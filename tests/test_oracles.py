import hashlib
import random
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodom import (
    Graph,
    GraphError,
    boundary,
    complete_graph,
    cycle_graph,
    emit_graph,
    enumerate_connected_graphs,
    find_simplicial_counterexample,
    geodetic_number_bruteforce,
    is_connected,
    is_geodetic,
    is_x_geodominating,
    min_gx_vertex,
    min_x_geodominating_bruteforce,
    path_graph,
    random_connected_graph,
    random_graph_corpus,
    simplicial_vertices,
    star_graph,
    verify_unique_minimum,
)
from geodom import bitmasks, oracles
from geodom.boundary import _row_boundary
from helpers import (
    close_the_path_in_graph_bfs,
    connected_labeled_graph_counts,
    drop_one_boundary_vertex,
    edge_subsets,
    floyd_warshall,
    loop_connected_graphs,
    loop_min_x_geodominating,
    loop_simplicial_counterexample,
    loop_simplicial_verdict,
    loop_verify_unique_minimum,
    raw_bfs_rows,
    raw_connected,
    reference_graph,
)
from strategies import connected_graphs, graphs_with_vertex, trees


# ---------------------------------------------------------------------------
# minimum x-geodominating search


def test_path_minimum_is_far_endpoint():
    g = path_graph(["a", "b", "c", "d"])
    res = min_x_geodominating_bruteforce(g, 0)
    assert res.minimum_size == 1 and res.exhausted
    assert [g.labels_of(s) for s in res.minimum_sets] == [["d"]]


def test_complete_graph_minimum_is_everyone_else():
    g = complete_graph(4)
    res = min_x_geodominating_bruteforce(g, 2)
    assert res.minimum_size == 3
    assert [set(s) for s in res.minimum_sets] == [{0, 1, 3}]


def test_every_minimum_set_geodominates():
    g = cycle_graph(6)
    res = min_x_geodominating_bruteforce(g, 0)
    for s in res.minimum_sets:
        assert is_x_geodominating(g, 0, s).is_geodominating


def test_cap_is_enforced_and_overridable():
    g = path_graph(13)
    with pytest.raises(ValueError, match="too large"):
        min_x_geodominating_bruteforce(g, 0)
    assert min_x_geodominating_bruteforce(g, 0, cap=13).minimum_size == 1


def test_single_vertex_rejected():
    g = Graph(vertices=["a"])
    with pytest.raises(ValueError, match="two vertices"):
        min_x_geodominating_bruteforce(g, 0)


def test_searches_check_the_cap_first(monkeypatch):
    def no_distances(*args):
        raise AssertionError("an over-cap graph needs no distances")

    monkeypatch.setattr(oracles, "_stacked_bits", no_distances)
    monkeypatch.setattr(oracles, "_distances", no_distances)
    g = path_graph(2000)
    with pytest.raises(ValueError, match="too large: 2000 vertices exceeds the cap of 12"):
        min_x_geodominating_bruteforce(g, 0)
    with pytest.raises(ValueError, match="too large: 2000 vertices exceeds the cap of 10"):
        geodetic_number_bruteforce(g)
    # ahead of the single-vertex and index checks too
    single = Graph(vertices=["a"])
    with pytest.raises(ValueError, match="cap of 0"):
        min_x_geodominating_bruteforce(single, 5, cap=0)
    with pytest.raises(ValueError, match="cap of 0"):
        geodetic_number_bruteforce(single, cap=0)


def test_searches_refuse_a_cap_over_the_limit_first(monkeypatch):
    def no_distances(*args):
        raise AssertionError("a cap over the limit needs no distances")

    monkeypatch.setattr(oracles, "_graph_distances", no_distances)
    p4 = path_graph(4)
    with pytest.raises(ValueError, match="cap 21 exceeds the limit of 20 vertices"):
        min_x_geodominating_bruteforce(p4, 0, cap=21)
    with pytest.raises(ValueError, match="cap 21 exceeds the limit of 20 vertices"):
        geodetic_number_bruteforce(p4, cap=21)
    # ahead of the single-vertex check too
    with pytest.raises(ValueError, match="cap 1000 exceeds the limit"):
        min_x_geodominating_bruteforce(Graph(vertices=["a"]), 0, cap=1000)
    monkeypatch.undo()
    # the limit itself is a cap the searches take
    assert min_x_geodominating_bruteforce(p4, 0, cap=20).minimum_size == 1
    assert geodetic_number_bruteforce(p4, cap=20)[0] == 2


def test_searches_compute_their_own_distances(monkeypatch):
    # the searches, with a BFS of their own, still see the path
    close_the_path_in_graph_bfs(monkeypatch)
    p4 = path_graph("abcd")
    assert p4.labels_of(boundary(p4, 0).boundary) == ["c"]
    res = min_x_geodominating_bruteforce(p4, 0)
    assert [p4.labels_of(s) for s in res.minimum_sets] == [["d"]]
    number, witness = geodetic_number_bruteforce(p4)
    assert (number, p4.labels_of(witness)) == (2, ["a", "d"])


def test_searches_reject_disconnected_graphs():
    g = Graph([("a", "b"), ("c", "d")])
    with pytest.raises(GraphError, match="disconnected"):
        min_x_geodominating_bruteforce(g, 0)
    with pytest.raises(GraphError, match="disconnected"):
        geodetic_number_bruteforce(g)


@given(graphs_with_vertex(max_n=6))
def test_excluding_x_loses_nothing(gv):
    # the search skips x as a candidate; adding it back never helps
    g, x = gv
    res = min_x_geodominating_bruteforce(g, x)
    for s in res.minimum_sets:
        with_x = set(s) | {x}
        assert is_x_geodominating(g, x, with_x).is_geodominating
        assert set(is_x_geodominating(g, x, s).covered) == set(
            is_x_geodominating(g, x, with_x).covered
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_search_matches_the_loop_on_every_small_graph(n):
    for g in enumerate_connected_graphs(n):
        dist = floyd_warshall(g)
        for x in range(n):
            assert min_x_geodominating_bruteforce(g, x) == loop_min_x_geodominating(g, dist, x)


def test_search_matches_the_loop_on_a_random_corpus():
    for g in random_graph_corpus(12, 9, 12, 0.25, seed=3):
        dist = floyd_warshall(g)
        for x in range(g.n):
            assert min_x_geodominating_bruteforce(g, x) == loop_min_x_geodominating(g, dist, x)


def test_search_lists_tied_sets_in_combinations_order():
    # a graph has one minimum set per source; arbitrary symmetric matrices
    # with a zero diagonal tie many, which pins the order of minimum_sets
    rng = np.random.default_rng(7)
    tied = 0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        d = rng.integers(0, 3, size=(n, n))
        d = np.triu(d, 1) + np.triu(d, 1).T
        g = complete_graph(n)
        for x in range(n):
            res = oracles._min_x_search(d, x)
            assert res == loop_min_x_geodominating(g, d, x)
            # ties of sets with two or more members, which index order does not sort
            tied += res.minimum_size > 1 and len(res.minimum_sets) > 1
    assert tied > 50


# ---------------------------------------------------------------------------
# geodetic number search


def test_geodetic_numbers_of_families():
    p5 = path_graph(5)
    n, witness = geodetic_number_bruteforce(p5)
    assert n == 2 and list(witness) == [0, 4]
    c5 = cycle_graph(5)
    n5, w5 = geodetic_number_bruteforce(c5)
    assert n5 == 3 and is_geodetic(c5, w5)
    c6 = cycle_graph(6)
    assert geodetic_number_bruteforce(c6)[0] == 2
    k4 = complete_graph(4)
    assert geodetic_number_bruteforce(k4)[0] == 4
    star = star_graph(6)
    assert geodetic_number_bruteforce(star)[0] == 5


def test_geodetic_cap():
    g = path_graph(11)
    with pytest.raises(ValueError, match="too large"):
        geodetic_number_bruteforce(g)
    assert geodetic_number_bruteforce(g, cap=11)[0] == 2


def test_geodetic_single_vertex():
    g = Graph(vertices=["a"])
    n, w = geodetic_number_bruteforce(g)
    assert n == 1 and list(w) == [0]


@given(connected_graphs(max_n=7))
def test_geodetic_number_at_most_min_gx_plus_one(g):
    number, witness = geodetic_number_bruteforce(g)
    assert is_geodetic(g, witness)
    assert number <= min_gx_vertex(g)[1] + 1


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_recurrence():
    expected = connected_labeled_graph_counts(5)
    assert expected == [1, 1, 4, 38, 728]
    for n in range(1, 6):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == expected[n - 1]


def test_enumeration_yields_distinct_connected_graphs():
    seen = set()
    for g in enumerate_connected_graphs(4):
        assert g.labels == ("a", "b", "c", "d")
        assert is_connected(g)
        key = frozenset(g.edges())
        assert key not in seen
        seen.add(key)
    assert len(seen) == 38


def test_enumeration_range_checks():
    with pytest.raises(ValueError):
        list(enumerate_connected_graphs(0))
    with pytest.raises(ValueError):
        list(enumerate_connected_graphs(8))


def test_enumeration_n1_and_n2():
    (only,) = enumerate_connected_graphs(1)
    assert only.n == 1 and only.edge_count == 0
    (edge,) = enumerate_connected_graphs(2)
    assert edge.edge_count == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumeration_matches_the_loop(n):
    assert list(enumerate_connected_graphs(n)) == list(loop_connected_graphs(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mask_chunks_follow_combinations_order(n):
    # pair p is bit P-1-p, so every edge subset appears once, in the
    # loop's (edge count, combinations rank) order
    pairs = oracles._all_pairs_list(n)
    top = len(pairs) - 1
    expected = [
        sum(1 << (top - pairs.index(pair)) for pair in subset) for subset in edge_subsets(n)
    ]
    chunks = list(oracles._mask_chunks(n))
    assert [int(m) for masks, _ in chunks for m in masks] == expected
    for masks, nbrs in chunks:
        for mask, row in zip(masks.tolist(), nbrs.tolist()):
            want = [0] * n
            for p, (i, j) in enumerate(pairs):
                if mask >> (top - p) & 1:
                    want[i] |= 1 << j
                    want[j] |= 1 << i
            assert row == want


def _random_edge_sets(n: int, seed: int) -> list[list[set[int]]]:
    """Neighbour sets of seeded random edge sets on n vertices; the
    sparse ones leave vertices isolated (an empty CSR segment) or the
    graph disconnected."""
    rng = random.Random(seed)
    out = []
    for p in (0.0, 0.1, 0.2, 0.3, 0.5, 1.0) * 4:
        adjsets: list[set[int]] = [set() for _ in range(n)]
        for i, j in combinations(range(n), 2):
            if rng.random() < p:
                adjsets[i].add(j)
                adjsets[j].add(i)
        out.append(adjsets)
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_bits_match_the_reference_neighbour_sets(n):
    labels = [f"v{i:02d}" for i in range(n)]
    graphs, want = [], []
    for adjsets in _random_edge_sets(n, n):
        edges = [(labels[u], labels[w]) for u in range(n) for w in adjsets[u] if u < w]
        g, sets = reference_graph(edges, labels)
        graphs.append(g)
        want.append([sum(1 << w for w in nbrs) for nbrs in sets])
    bits = oracles._stacked_bits(graphs, n)
    assert bits.dtype == bitmasks._bits_dtype(n) and bits.tolist() == want


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_connectivity_from_the_levels_matches_the_loop(n):
    # uint16 rows: a reach mask of fewer bits than vertices loses some
    cases = _random_edge_sets(n, 100 + n)
    nbrs = np.array(
        [[sum(1 << w for w in nbrs) for nbrs in adjsets] for adjsets in cases], dtype=np.uint16
    )
    keep, levels = bitmasks._levels(nbrs)
    want = [k for k, adjsets in enumerate(cases) if raw_connected(n, adjsets)]
    assert 0 < len(want) < len(cases) and keep.tolist() == want
    rows = [raw_bfs_rows([sorted(a) for a in cases[k]]) for k in want]
    assert bitmasks._distances(levels).tolist() == rows


# ---------------------------------------------------------------------------
# random generation


def test_spec_validation():
    with pytest.raises(ValueError, match="probability"):
        random_connected_graph(5, edge_probability=1.5)
    with pytest.raises(ValueError, match="probability"):
        random_connected_graph(5, edge_probability=-0.1)
    # one check covers every n below two
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="two vertices"):
            random_connected_graph(n)


def test_zero_probability_gives_a_spanning_tree():
    for seed in range(10):
        g = random_connected_graph(9, edge_probability=0.0, seed=seed)
        assert g.n == 9 and g.edge_count == 8 and is_connected(g)


def test_unit_probability_gives_complete():
    g = random_connected_graph(6, edge_probability=1.0, seed=3)
    assert g.edge_count == 15


def test_same_seed_same_graph():
    assert random_connected_graph(8, 0.4, 123) == random_connected_graph(8, 0.4, 123)


def test_seeds_vary_the_graph():
    graphs = {
        frozenset(random_connected_graph(8, edge_probability=0.4, seed=s).edges())
        for s in range(8)
    }
    assert len(graphs) > 1


def test_random_samples_are_valid():
    for i in range(100):
        g = random_connected_graph(9, edge_probability=0.3, seed=i)
        assert g.n == 9 and is_connected(g)


def test_random_graphs_are_pinned():
    # sha256 of the edge-list documents: a seed always draws the same graphs,
    # so the generator must consume its RNG in this order
    corpus = random_graph_corpus(12, 4, 12, 0.3, seed=5)
    digest = hashlib.sha256("".join(map(emit_graph, corpus)).encode()).hexdigest()
    assert digest == "d30809357db88298e7fb3078be15136faeacf7863a0914bd197f112141eb7dec"
    graphs = [random_connected_graph(9, p, 7) for p in (0.0, 0.4, 1.0)]
    digest = hashlib.sha256("".join(map(emit_graph, graphs)).encode()).hexdigest()
    assert digest == "f2e916a718b4ff589d76209bbd4edc5ef880673482ef91da1898fde1f16b3a8f"


def test_corpus_cycles_sizes_and_is_deterministic():
    corpus = random_graph_corpus(7, 4, 6, 0.3, seed=2)
    assert [g.n for g in corpus] == [4, 5, 6, 4, 5, 6, 4]
    again = random_graph_corpus(7, 4, 6, 0.3, seed=2)
    assert corpus == again
    with pytest.raises(ValueError):
        random_graph_corpus(3, 6, 4, 0.3, seed=2)
    # the probability is checked even when no graph is drawn
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"edge probability must lie in \[0, 1\]"):
            random_graph_corpus(0, 4, 6, p, seed=2)


def test_corpus_checks_the_cap_before_drawing_a_graph(monkeypatch):
    # drawing a graph loops over all n^2 vertex pairs, so a size far over
    # the sweep's cap must fail before the first one is drawn
    def no_drawing(*args):
        raise AssertionError("an over-cap size needs no graph")

    monkeypatch.setattr(oracles, "random_connected_graph", no_drawing)
    with pytest.raises(ValueError, match="too large: 3000 vertices exceeds the cap of 12"):
        random_graph_corpus(1, 3000, 3000, 0.1, 0)
    with pytest.raises(ValueError, match="too large: 13 vertices exceeds the cap of 12"):
        random_graph_corpus(0, 4, 13, 0.1, 0)


# ---------------------------------------------------------------------------
# simplicial counterexample search


def test_first_counterexample_is_deterministic():
    hit = find_simplicial_counterexample(8)
    assert hit is not None
    g, simp = hit
    assert g.n == 5
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]
    assert g.labels_of(simp) == ["c"]
    assert set(simp) == set(simplicial_vertices(g))
    for z in range(g.n):
        assert not is_x_geodominating(g, z, simp).is_geodominating


def test_no_counterexample_on_four_vertices():
    assert find_simplicial_counterexample(4) is None


def test_counterexample_with_many_simplicial_vertices():
    hit = find_simplicial_counterexample(8, min_simplicial=4)
    assert hit is not None
    g, simp = hit
    assert g.n == 7
    assert list(g.edges()) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (4, 5), (4, 6)
    ]
    assert g.labels_of(simp) == ["c", "d", "f", "g"]
    assert set(simp) == set(simplicial_vertices(g))
    for z in range(g.n):
        assert not is_x_geodominating(g, z, simp).is_geodominating


def _hit_key(hit):
    if hit is None:
        return None
    g, simp = hit
    return g.n, list(g.edges()), list(simp)


@pytest.mark.parametrize("min_simplicial", [1, 2, 3, 4])
@pytest.mark.parametrize("max_n", [4, 5, 6])
def test_search_matches_the_loop(max_n, min_simplicial):
    assert _hit_key(find_simplicial_counterexample(max_n, min_simplicial=min_simplicial)) == (
        _hit_key(loop_simplicial_counterexample(max_n, min_simplicial))
    )


def _assert_predicate_matches_loop(graphs, n):
    nbrs = oracles._stacked_bits(graphs, n)
    simp = oracles._simplicial_bits(nbrs)
    keep, levels = oracles._levels(nbrs)
    assert len(keep) == len(graphs)
    fails = oracles._fails_everywhere(nbrs, simp, levels)
    for g, bits, verdict in zip(graphs, simp.tolist(), fails.tolist()):
        want_simp, want_fails = loop_simplicial_verdict(g)
        assert [v for v in range(n) if bits >> v & 1] == want_simp, g.edges()
        assert verdict == want_fails, list(g.edges())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_array_predicate_matches_the_loop_on_small_graphs(n):
    _assert_predicate_matches_loop(list(loop_connected_graphs(n)), n)


def test_array_predicate_matches_the_loop_on_the_seeded_sample():
    graphs = [
        random_connected_graph(8, edge_probability=0.25 + 0.05 * (i % 6), seed=i)
        for i in range(2000)
    ]
    _assert_predicate_matches_loop(graphs, 8)
    # the simplicial counts span the min_simplicial thresholds the search uses
    counts = {len(loop_simplicial_verdict(g)[0]) for g in graphs}
    assert {1, 4, 5} <= counts


def test_counterexample_search_is_independent(monkeypatch):
    # the search certifies the package's BFS and simplicial code, so it
    # must not run them
    def forbidden(*args, **kwargs):
        raise AssertionError("the counterexample search must not call graph.py")

    names = (
        "bfs_distances", "_neighbour_lists", "_bfs_row", "_level_words", "geodesic_sweep",
        "simplicial_vertices",
    )
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "geodom":
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    assert find_simplicial_counterexample(6, min_simplicial=2) is not None
    assert find_simplicial_counterexample(8, min_simplicial=5) is None
    assert sum(1 for _ in enumerate_connected_graphs(5)) == 728


def test_counterexample_argument_validation():
    with pytest.raises(ValueError):
        find_simplicial_counterexample(3)
    with pytest.raises(ValueError):
        find_simplicial_counterexample(9)
    with pytest.raises(ValueError):
        find_simplicial_counterexample(6, min_simplicial=0)


@given(trees(max_n=8))
def test_trees_are_never_counterexamples(t):
    # the leaf set contains every boundary, so it geodominates from anywhere
    leaves = simplicial_vertices(t)
    for z in range(t.n):
        assert is_x_geodominating(t, z, leaves).is_geodominating


@pytest.mark.parametrize("n", [3, 4, 5])
def test_complete_graphs_are_never_counterexamples(n):
    g = complete_graph(n)
    everyone = simplicial_vertices(g)
    assert len(everyone) == n
    for z in range(n):
        assert is_x_geodominating(g, z, everyone).is_geodominating


# ---------------------------------------------------------------------------
# verification driver


def test_verify_unique_minimum_on_small_corpus():
    graphs = list(enumerate_connected_graphs(4))
    report = verify_unique_minimum(graphs)
    assert report.ok
    assert report.graphs_checked == 38
    assert report.sources_checked == 38 * 4
    assert report.failures == ()


def test_verify_unique_minimum_runs_no_bfs(monkeypatch):
    # the sweep holds a matrix for its oracle and reads the boundary from it
    def no_bfs(g, source):
        raise AssertionError("verify_unique_minimum must read its matrix rows")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "geodom" and hasattr(module, "bfs_distances"):
            monkeypatch.setattr(module, "bfs_distances", no_bfs)
    report = verify_unique_minimum(enumerate_connected_graphs(4))
    assert report.ok and report.graphs_checked == 38


def test_verify_skips_single_vertex_graphs():
    graphs = list(enumerate_connected_graphs(1)) + list(enumerate_connected_graphs(2))
    report = verify_unique_minimum(graphs)
    assert report.graphs_checked == 1 and report.sources_checked == 2


def test_sweep_report_matches_the_loop():
    enumerated = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    corpus = random_graph_corpus(12, 7, 12, 0.3, seed=2)
    expected = loop_verify_unique_minimum(enumerated + corpus)
    assert expected.ok and expected.graphs_checked == 771 + 12
    assert verify_unique_minimum(enumerated + corpus) == expected
    # the enumeration goes ahead of the graphs, as in the loop's input
    assert verify_unique_minimum(corpus, exhaustive_n=5) == expected


def test_sweep_failures_match_the_loop(monkeypatch):
    drop_one_boundary_vertex(monkeypatch)
    graphs = [g for n in range(2, 5) for g in enumerate_connected_graphs(n)]
    expected = loop_verify_unique_minimum(graphs)
    # a boundary is never empty, so the mutant fails every source
    assert len(expected.failures) == expected.sources_checked == 2 + 4 * 3 + 38 * 4
    assert verify_unique_minimum(graphs) == expected
    assert verify_unique_minimum([], exhaustive_n=4) == expected
    up_to_three = graphs[:5]
    corpus = random_graph_corpus(9, 7, 9, 0.3, seed=4)
    expected = loop_verify_unique_minimum(up_to_three + corpus)
    assert len(expected.failures) == expected.sources_checked
    assert verify_unique_minimum(corpus, exhaustive_n=3) == expected


def test_sweep_verdict_matches_the_loop_on_perturbed_matrices():
    # a changed distance can tie minimum sets or move the boundary, so
    # every clause of the verdict decides some source
    rng = np.random.default_rng(11)
    graphs = random_graph_corpus(60, 6, 6, 0.4, seed=8)
    nbrs = oracles._stacked_bits(graphs, 6)
    d = np.array([floyd_warshall(g) for g in graphs], dtype=np.uint8)
    for row in range(0, 60, 2):
        u, v = rng.choice(6, size=2, replace=False)
        d[row, u, v] = d[row, v, u] = rng.integers(0, 4)
    expected, tied = [], 0
    for row, g in enumerate(graphs):
        for x in range(6):
            res = loop_min_x_geodominating(g, d[row], x)
            inside = _row_boundary(g, d[row, x]).boundary
            tied += len(res.minimum_sets) > 1
            if res.minimum_sets != (inside,) or res.minimum_size != len(inside):
                expected.append((row, x))
    assert tied > 5 and 20 < len(expected) < 150
    assert oracles._failing_sources(nbrs, d) == expected


def test_sweep_checks_the_cap_before_sweeping(monkeypatch):
    def no_chunks(*args):
        raise AssertionError("an over-cap graph must fail before the enumeration")

    monkeypatch.setattr(oracles, "_mask_chunks", no_chunks)
    with pytest.raises(ValueError, match="too large: 13 vertices exceeds the cap of 12"):
        verify_unique_minimum([path_graph(13)], exhaustive_n=6)
    for bad in (-1, 8):
        with pytest.raises(ValueError, match=r"exhaustive_n must lie in \[0, 7\]"):
            verify_unique_minimum([], exhaustive_n=bad)


def test_sweep_rejects_disconnected_graphs():
    g = Graph([("a", "b"), ("c", "d")])
    with pytest.raises(GraphError, match="disconnected"):
        verify_unique_minimum([g])


@given(connected_graphs(max_n=6))
def test_oracle_agrees_with_boundary(g):
    for x in range(g.n):
        res = min_x_geodominating_bruteforce(g, x)
        assert res.exhausted
        assert len(res.minimum_sets) == 1
        assert res.minimum_sets[0] == boundary(g, x).boundary
