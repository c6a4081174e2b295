"""The committed mutation table in tests/mutants.py stays runnable: each
row's old text occurs exactly once in its file, and each selector names a
test that exists. The mutants themselves run only in ``python
tests/mutants.py``; this check is cheap, so a refactor that voids a row
fails here first. A selector drawn by hypothesis also carries a fixed
``@example``, since the runner starts each row with no example database:
without one, whether a row is killed would depend on the draw."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def _tests(path: Path) -> dict[str, ast.FunctionDef]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _decorators(test: ast.FunctionDef) -> set[str]:
    """The names of test's decorators, called or not."""
    calls = (d.func if isinstance(d, ast.Call) else d for d in test.decorator_list)
    return {d.id if isinstance(d, ast.Name) else getattr(d, "attr", "") for d in calls}


def test_every_mutant_row_changes_one_text_and_names_a_test():
    mutants = _mutants()
    assert mutants
    void = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1 or m.new == m.old:
            void.append(f"{m.path}: {m.what}: old text found {count} times")
        path, _, name = m.selector.partition("::")
        tests = _tests(ROOT / path) if (ROOT / path).is_file() else {}
        if not tests or name and name not in tests:
            void.append(f"{m.selector}: no such test")
        elif name and "given" in (used := _decorators(tests[name])) and "example" not in used:
            void.append(f"{m.selector}: drawn by hypothesis with no fixed @example")
    assert void == []
