"""Committed mutation checks: each row of MUTANTS changes one exact text in
the package and names the tests that must catch the change.

    python tests/mutants.py

For each row the runner copies src/, tests/, pyproject.toml and README.md
to a temporary directory, applies the change there and runs pytest on the
row's selector from the copy's root: pyproject.toml's ``pythonpath``
resolves against that root, so the tests import the changed copy, and
test_api reads the copied README. A row is killed when at least one
selected test fails or the run exceeds TIMEOUT, since a mutant can make a
search or a BFS loop forever.

The selected tests must first pass on an unchanged copy, or every row
would count as killed. The runner exits non-zero when a mutant survives,
when a row's old text does not occur exactly once (a refactor must not
silently void a row), or when pytest ends any other way, such as a
selector that matches no test. A survivor is a gap in the tests: close it
there and keep the row.

It uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
# seconds per pytest run; each row's tests take a few seconds
TIMEOUT = 300
PYTEST_FAILED = 1


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    selector: str  # the pytest node id or path that must fail
    what: str


ORACLES = "src/geodom/oracles.py"
BITMASKS = "src/geodom/bitmasks.py"
GRAPH = "src/geodom/graph.py"
PRODUCTS = "src/geodom/products.py"
PERTURBED = "tests/test_oracles.py::test_sweep_verdict_matches_the_loop_on_perturbed_matrices"
SWEEP_FAILURES = "tests/test_oracles.py::test_sweep_failures_match_the_loop"
EVERY_CLASS = "tests/test_products.py::test_every_factor_class_on_at_most_five_vertices"

MUTANTS = (
    Mutant(
        ORACLES,
        "(dx[:, None, :] > dx[:, :, None])",
        "(dx[:, None, :] >= dx[:, :, None])",
        "tests/test_boundary.py::test_boundary_rules_agree_on_every_small_graph",
        "_boundary_mask counts a neighbour at the same distance as farther",
    ),
    Mutant(
        ORACLES,
        "(dx[:, None, :] > dx[:, :, None])",
        "(dx[:, None, :] == dx[:, :, None] + 1)",
        PERTURBED,
        "_boundary_mask looks one level farther only",
    ),
    Mutant(
        BITMASKS,
        "dx[:, None, :] + d == dx[:, :, None]",
        "dx[:, None, :] + d <= dx[:, :, None]",
        PERTURBED,
        "_interval_bits takes every v with d(x, v) + d(y, v) <= d(x, y)",
    ),
    Mutant(
        ORACLES,
        "i = where[row]",
        "i = row",
        SWEEP_FAILURES,
        "_verify_graphs reports a failure on the slice's graph at its row in the size's chunk",
    ),
    Mutant(
        ORACLES,
        "islice(todo, _SWEEP_CHUNK)",
        "islice(todo, None)",
        "tests/test_oracles.py::test_sweep_reads_the_graphs_a_slice_at_a_time",
        "_verify_graphs holds the whole iterator",
    ),
    Mutant(
        ORACLES,
        "islice(todo, _SWEEP_CHUNK)",
        "islice(todo, 1)",
        "tests/test_oracles.py::test_sweep_stacks_each_slice_by_vertex_count",
        "_verify_graphs sweeps the listed graphs one at a time",
    ),
    Mutant(
        ORACLES,
        "(hits.sum(axis=1) == 1)\n            & (found",
        "(found",
        PERTURBED,
        "_failing_sources accepts tied minimum sets",
    ),
    Mutant(
        ORACLES,
        "    for i in range(n - 1):\n        union = ",
        "    for i in range(n - 2):\n        union = ",
        "tests/test_oracles.py::test_path_minimum_is_far_endpoint",
        "_minimum_covers leaves out the last candidate",
    ),
    Mutant(
        ORACLES,
        "for v in combo[i + 1:]",
        "for v in combo[i + 2:]",
        "tests/test_oracles.py::test_geodetic_numbers_of_families",
        "geodetic_number_bruteforce skips each member's next member",
    ),
    Mutant(
        BITMASKS,
        "sum(1 << w for w in g.neighbors(v))",
        "sum(1 << w for w in g.neighbors(v)[1:])",
        "tests/test_oracles.py::test_stacked_bits_match_the_reference_neighbour_sets",
        "_stacked_bits leaves out each vertex's least neighbour",
    ),
    Mutant(
        BITMASKS,
        "seen[:, 0] == (1 << n) - 1",
        "seen[:, 0] >= 1 << (n - 1)",
        "tests/test_oracles.py::test_connectivity_from_the_levels_matches_the_loop",
        "_levels takes a graph as connected when vertex 0 reaches the last vertex",
    ),
    Mutant(
        BITMASKS,
        "(need <= low)",
        "(need < low)",
        "tests/test_oracles.py::test_enumeration_counts_match_recurrence",
        "_mask_chunks skips the masks whose low half is full",
    ),
    Mutant(
        ORACLES,
        "up = levels[-1] & targets",
        "up = np.zeros_like(levels[-1])",
        "tests/test_oracles.py::test_array_predicate_matches_the_loop_on_small_graphs",
        "_fails_everywhere leaves out the farthest level",
    ),
    Mutant(
        ORACLES,
        "_POPCOUNT[simp] >= min_simplicial",
        "_POPCOUNT[simp] > min_simplicial",
        "tests/test_oracles.py::test_search_matches_the_loop",
        "_first_counterexample wants more simplicial vertices than asked",
    ),
    Mutant(
        GRAPH,
        "spread[w] &= ~(level[w] | before[w])",
        "spread[w] &= ~level[w]",
        "tests/test_graph.py::test_word_budget_picks_words_or_rows",
        "_level_words keeps the bits of the level before in the next level",
    ),
    Mutant(
        GRAPH,
        "interior[v] |= spread[v] & bits",
        "interior[v] |= spread[v]",
        "tests/test_graph.py::test_schedule_gives_each_source_its_gx_on_words_and_rows",
        "_gx_of_levels counts a vertex as interior with a neighbour in any level",
    ),
    Mutant(
        GRAPH,
        "counts[j], carry = count ^ carry, count & carry",
        "counts[j], carry = count ^ carry, 0",
        "tests/test_graph.py::test_min_gx_vertex_across_words",
        "_gx_of_levels drops the counter's carries",
    ),
    Mutant(
        GRAPH,
        "islice(walk, min(_word_budget(g, len(probe)), cap))",
        "islice(walk, min(_word_budget(g, len(probe)), cap) - 1)",
        "tests/test_graph.py::test_probe_falls_back_one_level_past_its_budget",
        "_source_schedule falls back one level before the probe's budget",
    ),
    Mutant(
        GRAPH,
        "return min(n, max(_PROBE_WIDTH, _WALK_BITS // (lists * n)))",
        "return max(_PROBE_WIDTH, _WALK_BITS // (lists * n))",
        "tests/test_graph.py::test_batch_width_comes_from_n_and_the_memory_constant",
        "_batch_width is not capped at n",
    ),
    Mutant(
        PRODUCTS,
        "actual = in_bg * bh",
        "actual = in_bg | bh",
        EVERY_CLASS,
        "_boundary_masks takes the cartesian boundary as an OR of the factor masks",
    ),
    Mutant(
        PRODUCTS,
        "b_k * below |",
        "b_k * (below & bh) |",
        EVERY_CLASS,
        "_boundary_masks asks b in bh of the strong cells with d_G > d_H",
    ),
    Mutant(
        PRODUCTS,
        "g_k * (bh & above)",
        "b_k * (bh & above)",
        EVERY_CLASS,
        "_boundary_masks asks a in bg of the strong cells with d_H > d_G",
    ),
    Mutant(
        PRODUCTS,
        "b_k * (bh & level)",
        "g_k * (bh & level)",
        EVERY_CLASS,
        "_boundary_masks drops a in bg from the strong ties",
    ),
    Mutant(
        PRODUCTS,
        "if len(h_levels) > 2 else in_bg",
        "if len(h_levels) > 1 else in_bg",
        EVERY_CLASS,
        "_boundary_masks never takes the lexicographic layers at d_G = 1",
    ),
    Mutant(
        PRODUCTS,
        "| (near & bh)",
        "| near",
        EVERY_CLASS,
        "_boundary_masks puts every neighbour of y in the lexicographic base row",
    ),
    Mutant(
        PRODUCTS,
        'format(mask, "b").encode()[::-1]',
        'format(mask, "b").encode()',
        "tests/test_cli.py::test_product_verify_json_golden",
        "_picked reads a mask's bits highest first",
    ),
)


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(
                source, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
            )
        else:
            shutil.copy2(source, dest / name)


def _pytest(root: Path, selectors: list[str]) -> int | None:
    """pytest's exit code on selectors, run from root; None on a timeout."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selectors]
    try:
        done = subprocess.run(
            command, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def _verdict(mutant: Mutant) -> str:
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text found {count} times"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy_tree(root)
        (root / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = _pytest(root, [mutant.selector])
    if code is None:
        return "killed (timeout)"
    if code == PYTEST_FAILED:
        return "killed"
    return "SURVIVED" if code == 0 else f"pytest exit code {code}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy_tree(root)
        code = _pytest(root, sorted({m.selector for m in MUTANTS}))
    if code != 0:
        print(f"the selected tests do not pass unchanged (pytest exit code {code})")
        return 1
    failed = 0
    for mutant in MUTANTS:
        verdict = _verdict(mutant)
        failed += not verdict.startswith("killed")
        print(f"{verdict:>18}  {mutant.path}: {mutant.what}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
