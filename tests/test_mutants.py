"""The committed mutation table in tests/mutants.py stays runnable: each
row's old text occurs exactly once in its file, and each selector names a
test that exists. The mutants themselves run only in ``python
tests/mutants.py``; this check is cheap, so a refactor that voids a row
fails here first."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def _test_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_mutant_row_changes_one_text_and_names_a_test():
    mutants = _mutants()
    assert mutants
    void = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1 or m.new == m.old:
            void.append(f"{m.path}: {m.what}: old text found {count} times")
        path, _, name = m.selector.partition("::")
        if not (ROOT / path).is_file() or name and name not in _test_names(ROOT / path):
            void.append(f"{m.selector}: no such test")
    assert void == []
