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

Each verdict line gives the row's wall seconds, and the run ends with its
total, so a row that is killed only by the timeout shows in the log.

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
import time
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
GRAPH = "src/geodom/graph.py"
JSONOUT = "src/geodom/jsonout.py"
BOUNDARY = "src/geodom/boundary.py"
PRODUCTS = "src/geodom/products.py"
CLI = "src/geodom/cli.py"
PERTURBED = "tests/test_oracles.py::test_sweep_verdict_matches_the_loop_on_perturbed_matrices"
SWEEP_FAILURES = "tests/test_oracles.py::test_sweep_failures_match_the_loop"
EVERY_CLASS = "tests/test_products.py::test_every_factor_class_on_at_most_five_vertices"
ACROSS_SLICES = "tests/test_oracles.py::test_search_matches_the_loop_across_slices"
EXIT_STATUS = "tests/test_cli.py::test_exit_status_is_read_from_the_checks"

MUTANTS = (
    Mutant(
        ORACLES,
        "farther = _neighbourhood(adj, beyond)",
        "farther = _neighbourhood(adj, [b | at for b, at in zip(beyond, level)])",
        "tests/test_boundary.py::test_boundary_rules_agree_on_every_small_graph",
        "_boundary_lanes counts a neighbour at the same distance as farther",
    ),
    Mutant(
        ORACLES,
        "beyond = [b | at for b, at in zip(beyond, level)]",
        "beyond = level",
        PERTURBED,
        "_boundary_lanes looks one level farther only",
    ),
    Mutant(
        ORACLES,
        "if d[x][v] + d[v][y] == d[x][y]",
        "if d[x][v] + d[v][y] <= d[x][y]",
        PERTURBED,
        "_interval_masks takes every v with d(x, v) + d(v, y) <= d(x, y)",
    ),
    Mutant(
        ORACLES,
        "for x in _failing_sources(g, d))",
        "for x in sorted(_failing_sources(g, d), reverse=True))",
        SWEEP_FAILURES,
        "_verify_graphs reports a graph's failing sources in descending order",
    ),
    Mutant(
        ORACLES,
        "    for g in graphs:\n",
        "    for g in list(graphs):\n",
        "tests/test_oracles.py::test_sweep_reads_the_graphs_one_at_a_time",
        "_verify_graphs holds the whole iterator",
    ),
    Mutant(
        ORACLES,
        "_require_cap(g.n, _CAP_LIMIT)",
        "_require_cap(g.n, 12)",
        "tests/test_oracles.py::test_sweep_reaches_the_cap_of_twenty",
        "_verify_graphs refuses a listed graph over 12 vertices",
    ),
    Mutant(
        ORACLES,
        "g: Graph, x: int, *, cap: int = _CAP_LIMIT",
        "g: Graph, x: int, *, cap: int = 12",
        "tests/test_oracles.py::test_searches_answer_twenty_vertices_by_default",
        "min_x_geodominating_bruteforce defaults to a cap of 12, below the limit",
    ),
    Mutant(
        ORACLES,
        "def geodetic_number_bruteforce(g: Graph, *, cap: int = _CAP_LIMIT)",
        "def geodetic_number_bruteforce(g: Graph, *, cap: int = 10)",
        "tests/test_oracles.py::test_searches_answer_twenty_vertices_by_default",
        "geodetic_number_bruteforce defaults to a cap of 10, below the limit",
    ),
    Mutant(
        ORACLES,
        "    return (\n        random_connected_graph(",
        "    return tuple(\n        random_connected_graph(",
        "tests/test_cli.py::test_verify_theorems_draws_each_graph_after_the_last_is_swept",
        "random_graph_corpus draws every graph before the sweep reads one",
    ),
    Mutant(
        ORACLES,
        "    labels = _family_labels(n)\n",
        "    labels = _family_labels(n)[::-1]\n",
        "tests/test_oracles.py::test_random_graphs_are_pinned",
        "random_connected_graph labels its vertices in reverse",
    ),
    Mutant(
        ORACLES,
        "if _min_x_search(d, x) != (inside,):",
        "if inside not in _min_x_search(d, x):",
        PERTURBED,
        "_failing_sources accepts tied minimum sets",
    ),
    Mutant(
        ORACLES,
        "for i, y in enumerate(candidates) if",
        "for i, y in enumerate(candidates[:-1]) if",
        "tests/test_oracles.py::test_search_matches_the_loop_on_every_small_graph",
        "_min_x_search takes the last candidate to cover every vertex",
    ),
    Mutant(
        ORACLES,
        "for w in range(u + 1, n) if",
        "for w in range(u + 2, n) if",
        "tests/test_oracles.py::test_geodetic_search_finds_the_first_least_geodetic_set",
        "geodetic_number_bruteforce skips each vertex's next vertex",
    ),
    Mutant(
        ORACLES,
        "[(w, lanes) for w in g.neighbors(v)]",
        "[(w, lanes) for w in g.neighbors(v)[1:]]",
        "tests/test_oracles.py::test_stacked_bits_match_the_reference_neighbour_sets",
        "_edge_lanes leaves out each vertex's least neighbour",
    ),
    Mutant(
        ORACLES,
        "return reduce(and_, reached)",
        "return reached[-1]",
        "tests/test_oracles.py::test_connectivity_from_the_levels_matches_the_loop",
        "_connected_lanes takes a graph as connected when vertex 0 reaches the last vertex",
    ),
    Mutant(
        ORACLES,
        "if not any(frontier):",
        "if not all(frontier):",
        "tests/test_oracles.py::test_connectivity_from_the_levels_matches_the_loop",
        "_levels stops once any vertex gains no lane",
    ),
    Mutant(
        ORACLES,
        "for _ in range(len(adj) - 1):",
        "for _ in range(len(adj) - 2):",
        "tests/test_oracles.py::test_path_minimum_is_far_endpoint",
        "_levels stops a level short of a path's far end",
    ),
    Mutant(
        ORACLES,
        "if 0 <= low <= width:",
        "if 0 <= low < width:",
        "tests/test_oracles.py::test_enumeration_counts_match_recurrence",
        "_in_key_order skips the masks whose low bits are all set",
    ),
    Mutant(
        ORACLES,
        "    for count in range(n * (n - 1) // 2 + 1):\n        for high in sorted(picked, reverse=True):",
        "    for high in sorted(picked, reverse=True):\n        for count in range(n * (n - 1) // 2 + 1):",
        ACROSS_SLICES,
        "_in_key_order lists each slice in turn, not the least key over all slices",
    ),
    Mutant(
        ORACLES,
        "lanes |= lanes << (1 << b)",
        "lanes |= lanes << ((1 << b) + 1)",
        "tests/test_oracles.py::test_patterns_by_doubling_match_their_definition",
        "_subset_lanes doubles with a period one lane too long",
    ),
    Mutant(
        ORACLES,
        "low | high << (1 << b)",
        "low | high << (2 << b)",
        "tests/test_oracles.py::test_patterns_by_doubling_match_their_definition",
        "_size_patterns shifts the next popcount by twice its period",
    ),
    Mutant(
        ORACLES,
        "for k, size in enumerate(sizes) if",
        "for k, size in reversed(list(enumerate(sizes))) if",
        "tests/test_oracles.py::test_path_minimum_is_far_endpoint",
        "_least picks the greatest popcount",
    ),
    Mutant(
        ORACLES,
        "for level in reversed(levels):\n        near = ",
        "for level in reversed(levels[:-1]):\n        near = ",
        "tests/test_oracles.py::test_array_predicate_matches_the_loop_on_small_graphs",
        "_geodesic_cover leaves out the farthest level",
    ),
    Mutant(
        ORACLES,
        "apart |= with_u & with_w & ~edge[u].get(w, 0)",
        "apart |= with_u & ~edge[u].get(w, 0)",
        "tests/test_oracles.py::test_array_predicate_matches_the_loop_on_small_graphs",
        "_simplicial_lanes takes a neighbour u apart from any w, a neighbour of v or not",
    ),
    Mutant(
        ORACLES,
        "_at_least(simp, lanes, min_simplicial)[-1]",
        "_at_least(simp, lanes, min_simplicial + 1)[-1]",
        "tests/test_oracles.py::test_search_matches_the_loop",
        "_counterexample_lanes wants more simplicial vertices than asked",
    ),
    Mutant(
        ORACLES,
        "hub = min(n - 1, spare)",
        "hub = 0",
        "tests/test_oracles.py::test_search_scans_only_the_slices_where_a_leads",
        "_hub_highs lists every slice of the counterexample search",
    ),
    Mutant(
        ORACLES,
        "((1 << hub) - (1 << k)) << rest",
        "((1 << k) - 1) << rest",
        ACROSS_SLICES,
        "_hub_highs lists the slices where a's pairs run zeros, then ones",
    ),
    Mutant(
        ORACLES,
        "hub = min(n - 1, spare)",
        "hub = min(n, spare)",
        ACROSS_SLICES,
        "_hub_highs reads the pair b-c as one of a's",
    ),
    Mutant(
        ORACLES,
        "range(max(4, min_simplicial), max_n + 1)",
        "range(max(4, min_simplicial), min(max_n, _EXHAUSTIVE_MAX_N) + 1)",
        "tests/test_cli.py::test_find_counterexample_not_found_at_eight",
        "the counterexample search stops at n = 7 when asked for 8",
    ),
    Mutant(
        ORACLES,
        "partial(_counterexample_lanes, min_simplicial), _hub_highs(n))",
        "partial(_counterexample_lanes, min_simplicial))",
        "tests/test_oracles.py::test_search_scans_only_the_slices_where_a_leads",
        "the counterexample search scans every slice, not those of _hub_highs",
    ),
    Mutant(
        ORACLES,
        "other |= covers & ~same & at_least[size]",
        "other |= covers & ~same",
        "tests/test_oracles.py::test_sweep_report_matches_the_loop",
        "_sweep_lanes takes any other cover as a rival to the boundary, whatever its size",
    ),
    Mutant(
        ORACLES,
        "fails.append(connected & ~(is_b & ~other))",
        "fails.append(connected & ~is_b)",
        "tests/test_oracles.py::test_sweep_fails_a_boundary_with_a_smaller_cover",
        "_sweep_lanes passes a boundary that covers, with a smaller cover beside it",
    ),
    Mutant(
        GRAPH,
        # the walk runs to its bound of 2 ecc + 1 levels, with wrong interiors
        "spread[w] = bits & ~(level[w] | before[w])",
        "spread[w] = bits & ~level[w]",
        "tests/test_graph.py::test_gx_of_batch_counts_the_boundary_flags_of_the_rows",
        "_gx_of_batch keeps the bits of the level before in the next level",
    ),
    Mutant(
        GRAPH,
        "for _ in range(2 * ecc + 1):",
        "for _ in range(ecc + 1):",
        "tests/test_graph.py::test_middle_first_walks_the_deeper_ends",
        "_gx_of_batch walks only as deep as the first row",
    ),
    Mutant(
        GRAPH,
        "interior[w] |= bits & before[w]",
        "interior[w] |= bits",
        "tests/test_graph.py::test_schedule_gives_each_source_its_gx_on_words_and_rows",
        "_gx_of_batch counts a vertex as interior with a neighbour in any level",
    ),
    Mutant(
        GRAPH,
        "interior[w] |= bits & before[w]\n"
        "            spread[w] = bits & ~(level[w] | before[w])",
        "spread[w] = bits & ~(level[w] | before[w])\n"
        "            interior[w] |= spread[w] & before[w]",
        "tests/test_graph.py::test_gx_of_batch_counts_the_boundary_flags_of_the_rows",
        "_gx_of_batch reads the interior bits after it masks the spread",
    ),
    Mutant(
        GRAPH,
        "counts[j], carry = count ^ carry, count & carry",
        "counts[j], carry = count ^ carry, 0",
        "tests/test_graph.py::test_min_gx_vertex_across_words",
        "_gx_of_batch drops the counter's carries",
    ),
    Mutant(
        GRAPH,
        "ecc >= _word_budget(g)",
        "ecc > _word_budget(g)",
        "tests/test_graph.py::test_first_row_at_the_budget_puts_every_source_on_rows",
        "_gx_of_sources walks when the first row is exactly as deep as the budget",
    ),
    Mutant(
        GRAPH,
        "return min(n, max(_MIN_BATCH, _WALK_BITS // (4 * n)))",
        "return max(_MIN_BATCH, _WALK_BITS // (4 * n))",
        "tests/test_graph.py::test_batch_width_comes_from_n_and_the_memory_constant",
        "_batch_width is not capped at n",
    ),
    Mutant(
        GRAPH,
        "elif dist[w] == d:",
        "elif False:",
        "tests/test_boundary.py::test_boundary_rules_agree_on_every_small_graph",
        "_bfs_row keeps u flagged when its farther neighbour was reached from another vertex",
    ),
    Mutant(
        GRAPH,
        "if reach[w] and row[w] == farther:",
        "if reach[w]:",
        "tests/test_boundary.py::test_covered_set_matches_direct_computation",
        "_sweep covers a vertex from any covered neighbour, not only one a level farther",
    ),
    Mutant(
        GRAPH,
        "if any(map(operator.eq, row, islice(row, 1, None))):",
        "if False:",
        "tests/test_graph.py::test_parse_duplicate_edges_collapse",
        "Graph keeps a repeated edge twice",
    ),
    Mutant(
        GRAPH,
        "if any(map(operator.eq, row, islice(row, 1, None))):",
        "if any(map(operator.eq, row, islice(row, 2, None))):",
        "tests/test_graph.py::test_repeated_edges_collapse",
        "_neighbour_tuples drops repeats only from rows that hold a neighbour three times",
    ),
    Mutant(
        GRAPH,
        "members[k:]",
        "members[k + 1:]",
        "tests/test_graph.py::test_geodetic_families",
        "geodetic_closure sweeps from each member to the later members only",
    ),
    Mutant(
        GRAPH,
        "members[:-1] or members",
        "members[:-1]",
        "tests/test_graph.py::test_bit_parallel_paths_reject_disconnected",
        "geodetic_closure gives the only member no row",
    ),
    Mutant(
        GRAPH,
        "members[:-1] or members",
        "members",
        "tests/test_graph.py::test_closure_on_rows_matches_direct_computation",
        "geodetic_closure gives the last member a row of its own",
    ),
    Mutant(
        GRAPH,
        "not prev < m < n",
        "not prev <= m < n",
        "tests/test_graph.py::test_vertex_set_validates",
        "VertexSet accepts a repeated member",
    ),
    Mutant(
        GRAPH,
        "return (self.members, self.n) == (other.members, other.n)",
        "return self.members == other.members",
        "tests/test_api.py::test_record_semantics",
        "VertexSet equality ignores n",
    ),
    Mutant(
        GRAPH,
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        "tests/test_api.py::test_record_semantics",
        "VertexSet fields can be assigned",
    ),
    Mutant(
        GRAPH,
        "    if not 0 <= v < g.n:\n",
        "    if not 0 <= v <= g.n:\n",
        "tests/test_graph.py::test_vertex_methods_reject_out_of_range_indices",
        "_check_vertex takes n as a vertex index",
    ),
    Mutant(
        GRAPH,
        "    if np is not None and isinstance(v, np.bool_):\n        v = bool(v)\n",
        "",
        "tests/test_api.py::test_every_vertex_argument_is_an_index",
        "_check_vertex takes a numpy bool as an index",
    ),
    Mutant(
        GRAPH,
        "        frontier = nxt\n",
        "",
        "tests/test_graph.py::test_bfs_distances_row",
        "_bfs_row never leaves the source's level, so it reaches only its neighbours",
    ),
    Mutant(
        GRAPH,
        "for d in range(1, len(adjacency)):",
        "for d in range(1, len(adjacency) - 1):",
        "tests/test_graph.py::test_bfs_distances_row",
        "_bfs_row stops a level short of a path's far end",
    ),
    Mutant(
        JSONOUT,
        "        if size >= _CHUNK:\n",
        "        if False:\n",
        "tests/test_cli.py::test_write_json_coalesces_small_pieces",
        "write_json holds the whole document before its one write",
    ),
    Mutant(
        JSONOUT,
        "head += _encoder(0)({key: 0})[1:-2]",
        'head += str(key) + ": "',
        "tests/test_cli.py::test_write_json_keys_that_compare_equal",
        "write_json writes a non-string key with str() instead of as json.dumps does",
    ),
    Mutant(
        BOUNDARY,
        "chk.is_geodominating or is_geodetic(g, s)",
        "chk.is_geodominating",
        "tests/test_boundary.py::test_heuristic_verdict_falls_back_to_the_closure",
        "geodetic_from_boundary takes a failed sweep as the verdict, with no closure",
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
    Mutant(
        CLI,
        "return 0 if all(out.checks.values()) else 1",
        "return 0 if any(out.checks.values()) else 1",
        EXIT_STATUS,
        "main exits 0 when any check holds, not only when all do",
    ),
    Mutant(
        CLI,
        "            code=1,\n",
        "",
        "tests/test_cli.py::test_find_counterexample_not_found_at_eight",
        "find-counterexample exits 0 when it finds nothing",
    ),
    Mutant(
        CLI,
        'checks["containments_hold"] = False',
        "pass",
        EXIT_STATUS,
        "product-verify's tally never clears containments_hold",
    ),
    Mutant(
        CLI,
        'fails.append(f"FAIL base {base}: witnesses {witnesses}")',
        "pass",
        "tests/test_cli.py::test_product_verify_plain_fail_lines",
        "plain product-verify drops its witness FAIL lines",
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
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy_tree(root)
        code = _pytest(root, sorted({m.selector for m in MUTANTS}))
    if code != 0:
        print(f"the selected tests do not pass unchanged (pytest exit code {code})")
        return 1
    failed = 0
    for mutant in MUTANTS:
        row_start = time.perf_counter()
        verdict = _verdict(mutant)
        seconds = time.perf_counter() - row_start
        failed += not verdict.startswith("killed")
        print(f"{verdict:>18} {seconds:6.1f} s  {mutant.path}: {mutant.what}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed in {total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
