import hashlib
import random
import sys
from functools import cache, partial
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodom import (
    Graph,
    GraphError,
    VertexSet,
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
from geodom import oracles
from helpers import (
    add_one_boundary_vertex,
    close_the_path_in_graph_bfs,
    connected_labeled_graph_counts,
    direct_boundary,
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
    swept_cover,
)
from strategies import connected_graphs, graphs_with_vertex, trees


# ---------------------------------------------------------------------------
# minimum x-geodominating search


def test_path_minimum_is_far_endpoint():
    g = path_graph(["a", "b", "c", "d"])
    sets = min_x_geodominating_bruteforce(g, 0)
    assert len(sets[0]) == 1
    assert [g.labels_of(s) for s in sets] == [["d"]]


def test_complete_graph_minimum_is_everyone_else():
    g = complete_graph(4)
    sets = min_x_geodominating_bruteforce(g, 2)
    assert len(sets[0]) == 3
    assert [set(s) for s in sets] == [{0, 1, 3}]


def test_every_minimum_set_geodominates():
    g = cycle_graph(6)
    for s in min_x_geodominating_bruteforce(g, 0):
        assert is_x_geodominating(g, 0, s).is_geodominating


def test_cap_is_enforced_and_overridable():
    g = path_graph(13)
    with pytest.raises(ValueError, match="too large"):
        min_x_geodominating_bruteforce(g, 0)
    assert len(min_x_geodominating_bruteforce(g, 0, cap=13)[0]) == 1


def test_single_vertex_rejected():
    g = Graph(vertices=["a"])
    with pytest.raises(ValueError, match="two vertices"):
        min_x_geodominating_bruteforce(g, 0)


def test_searches_check_the_cap_first(monkeypatch):
    def no_distances(*args):
        raise AssertionError("an over-cap graph needs no distances")

    monkeypatch.setattr(oracles, "_graph_distances", no_distances)
    monkeypatch.setattr(oracles, "_levels", no_distances)
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
    assert len(min_x_geodominating_bruteforce(p4, 0, cap=20)[0]) == 1
    assert len(geodetic_number_bruteforce(p4, cap=20)) == 2


def test_searches_compute_their_own_distances(monkeypatch):
    # the searches, with a BFS of their own, still see the path
    close_the_path_in_graph_bfs(monkeypatch)
    p4 = path_graph("abcd")
    assert p4.labels_of(boundary(p4, 0)) == ["c"]
    sets = min_x_geodominating_bruteforce(p4, 0)
    assert [p4.labels_of(s) for s in sets] == [["d"]]
    witness = geodetic_number_bruteforce(p4)
    assert (len(witness), p4.labels_of(witness)) == (2, ["a", "d"])


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
    for s in min_x_geodominating_bruteforce(g, x):
        with_x = set(s) | {x}
        assert is_x_geodominating(g, x, with_x).is_geodominating
        assert swept_cover(g, x, s) == swept_cover(g, x, with_x)


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
    # with a zero diagonal tie many, which pins the order of the sets
    rng = np.random.default_rng(7)
    tied = 0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        d = rng.integers(0, 3, size=(n, n))
        d = np.triu(d, 1) + np.triu(d, 1).T
        g = complete_graph(n)
        for x in range(n):
            sets = oracles._min_x_search(d, x)
            assert sets == loop_min_x_geodominating(g, d, x)
            # ties of sets with two or more members, which index order does not sort
            tied += len(sets[0]) > 1 and len(sets) > 1
    assert tied > 50


# ---------------------------------------------------------------------------
# geodetic number search


def test_geodetic_numbers_of_families():
    p5 = path_graph(5)
    witness = geodetic_number_bruteforce(p5)
    assert len(witness) == 2 and list(witness) == [0, 4]
    c5 = cycle_graph(5)
    w5 = geodetic_number_bruteforce(c5)
    assert len(w5) == 3 and is_geodetic(c5, w5)
    c6 = cycle_graph(6)
    assert len(geodetic_number_bruteforce(c6)) == 2
    k4 = complete_graph(4)
    assert len(geodetic_number_bruteforce(k4)) == 4
    star = star_graph(6)
    assert len(geodetic_number_bruteforce(star)) == 5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_geodetic_search_finds_the_first_least_geodetic_set(n):
    # on every connected graph, against graph.py's closure: the witness is
    # the first geodetic set of least size in combinations order
    for g in enumerate_connected_graphs(n):
        sets = (c for size in range(1, n + 1) for c in combinations(range(n), size))
        assert tuple(geodetic_number_bruteforce(g)) == next(c for c in sets if is_geodetic(g, c))


def test_geodetic_cap():
    g = path_graph(11)
    with pytest.raises(ValueError, match="too large"):
        geodetic_number_bruteforce(g)
    assert len(geodetic_number_bruteforce(g, cap=11)) == 2


def test_geodetic_single_vertex():
    g = Graph(vertices=["a"])
    w = geodetic_number_bruteforce(g)
    assert len(w) == 1 and list(w) == [0]


@given(connected_graphs(max_n=7))
def test_geodetic_number_at_most_min_gx_plus_one(g):
    witness = geodetic_number_bruteforce(g)
    assert is_geodetic(g, witness)
    assert len(witness) <= min_gx_vertex(g)[1] + 1


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_enumeration_matches_the_loop_across_slices(n, monkeypatch):
    # slices of eight masks: the order runs over every slice of an edge count
    monkeypatch.setattr(oracles, "_SLICE_BITS", 3)
    assert list(enumerate_connected_graphs(n)) == list(loop_connected_graphs(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mask_chunks_follow_combinations_order(n, monkeypatch):
    # pair p is bit P-1-p, so every edge subset appears once, in the
    # loop's (edge count, combinations rank) order, whether one slice
    # holds every mask or each holds eight
    pairs = oracles._all_pairs_list(n)
    top = len(pairs) - 1
    expected = [
        sum(1 << (top - pairs.index(pair)) for pair in subset) for subset in edge_subsets(n)
    ]
    for slice_bits in (oracles._SLICE_BITS, 3):
        monkeypatch.setattr(oracles, "_SLICE_BITS", slice_bits)
        width = oracles._slice_width(n)
        slices = list(oracles._scan(n, lambda adj, lanes: adj))
        assert [high for high, _ in slices] == list(reversed(range(len(slices))))
        everything = {high: (1 << (1 << width)) - 1 for high, _ in slices}
        # the loop starts at n - 1 edges: nothing smaller can span n vertices
        ordered = list(oracles._in_key_order(n, everything))
        assert [m for m in ordered if m.bit_count() >= n - 1] == expected
        assert len(ordered) == 1 << len(pairs)
        for high, adj in slices:
            for lane in range(1 << width):
                mask = high << width | lane
                want: list[set[int]] = [set() for _ in range(n)]
                for p, (i, j) in enumerate(pairs):
                    if mask >> (top - p) & 1:
                        want[i].add(j)
                        want[j].add(i)
                assert [{w for w, lanes in nbrs if lanes >> lane & 1} for nbrs in adj] == want


@pytest.mark.parametrize("width", range(11))
def test_patterns_by_doubling_match_their_definition(width):
    lanes = range(1 << width)
    assert oracles._clear_patterns(width) == tuple(
        sum(1 << t for t in lanes if not t >> b & 1) for b in range(width)
    )
    assert oracles._size_patterns(width) == tuple(
        sum(1 << t for t in lanes if t.bit_count() == k) for k in range(width + 1)
    )
    for bits in (0, 1, 5, (1 << width) - 1, 0b1010010):
        subsets = range(1 << max(width, 7))
        assert oracles._subset_lanes(bits) == sum(1 << t for t in subsets if t & ~bits == 0)


def _graph_lanes(cases: list[list[set[int]]]) -> list[list[tuple[int, int]]]:
    """The adjacency in lanes of the neighbour sets cases[k], lane k
    standing for case k as it would for an edge mask in a slice."""
    n = len(cases[0])
    adj = []
    for v in range(n):
        lanes = [sum(1 << k for k, sets in enumerate(cases) if w in sets[v]) for w in range(n)]
        adj.append([(w, edge) for w, edge in enumerate(lanes) if edge])
    return adj


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
        want.append([[(w, 5) for w in sorted(nbrs)] for nbrs in sets])
    assert [oracles._edge_lanes(g, 5) for g in graphs] == want


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_connectivity_from_the_levels_matches_the_loop(n):
    # one lane per edge set, past the exhaustive range; BFS levels from
    # every source give each connected lane its distances
    cases = _random_edge_sets(n, 100 + n)
    adj, lanes = _graph_lanes(cases), (1 << len(cases)) - 1
    connected = oracles._connected_lanes(adj, lanes)
    want = [k for k, adjsets in enumerate(cases) if raw_connected(n, adjsets)]
    assert 0 < len(want) < len(cases)
    assert [k for k in range(len(cases)) if connected >> k & 1] == want
    rows = {k: [[0] * n for _ in range(n)] for k in want}
    for z in range(n):
        for depth, level in enumerate(oracles._levels(adj, oracles._sourced(n, z, lanes))):
            for v, at in enumerate(level):
                for k in want:
                    if at >> k & 1:
                        rows[k][z][v] = depth
    assert [rows[k] for k in want] == [raw_bfs_rows([sorted(a) for a in cases[k]]) for k in want]


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
    with pytest.raises(ValueError, match="too large: 3000 vertices exceeds the cap of 20"):
        random_graph_corpus(1, 3000, 3000, 0.1, 0)
    with pytest.raises(ValueError, match="too large: 21 vertices exceeds the cap of 20"):
        random_graph_corpus(0, 4, 21, 0.1, 0)


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


@pytest.mark.parametrize("slice_bits", [4, 8, 12])
@pytest.mark.parametrize("min_simplicial", [1, 2, 3])
def test_search_matches_the_loop_across_slices(min_simplicial, slice_bits, monkeypatch):
    # small slices: the first hit of an n is the least key over all of its
    # slices, not the first slice's; and a's pairs fall across the split of
    # the mask bits in different ways, so that the slices listed by
    # _hub_highs hold them wherever they lie
    monkeypatch.setattr(oracles, "_SLICE_BITS", slice_bits)
    assert _hit_key(find_simplicial_counterexample(6, min_simplicial=min_simplicial)) == (
        _hit_key(loop_simplicial_counterexample(6, min_simplicial))
    )


@cache
def _full_scan(min_simplicial):
    """(n, mask) of the first hit on up to seven vertices of the lane scan
    over every slice, with no slice skipped."""
    for n in range(max(4, min_simplicial), 8):
        hits = dict(oracles._scan(n, partial(oracles._counterexample_lanes, min_simplicial)))
        mask = next(oracles._in_key_order(n, hits), None)
        if mask is not None:
            return n, mask
    return None


@pytest.mark.parametrize("min_simplicial", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("max_n", [7, 8])
def test_search_matches_the_scan_of_every_slice(max_n, min_simplicial):
    # the only check of the n = 7 stage against a search that keeps every
    # slice: the loop in helpers.py takes minutes there. Five and six
    # simplicial vertices fail nowhere up to n = 7; the scan of every n = 8
    # slice takes about 20 s, so it runs in CI, and here the n = 8 hit is
    # checked to be its relabelling class's first key, with the loop's verdict
    hit = find_simplicial_counterexample(max_n, min_simplicial=min_simplicial)
    if hit is None:
        assert _full_scan(min_simplicial) is None
        assert (max_n, min_simplicial) != (8, 5)
        return
    g, simp = hit
    pairs = list(combinations(range(g.n), 2))
    mask = sum(1 << (len(pairs) - 1 - p) for p, pair in enumerate(pairs) if g.has_edge(*pair))
    assert list(simp) == loop_simplicial_verdict(g)[0]
    if g.n < 8:
        assert _full_scan(min_simplicial) == (g.n, mask)
        return
    assert (max_n, min_simplicial, mask) == (8, 5, 267911216)
    assert _full_scan(min_simplicial) is None
    assert _greatest_relabelling(g.n, list(g.edges())) == mask
    assert loop_simplicial_verdict(g)[1]


def test_search_scans_only_the_slices_where_a_leads(monkeypatch):
    # at n = 7 the slice bits are the pairs a-b ... a-f, highest first, and
    # a pair's edge int is every lane or none; below n = 7 there is one
    # slice. Only the slices scanned are built: 6 of the 32 at n = 7
    scanned, built = [], []
    scan, build = oracles._counterexample_lanes, oracles._slice

    def spy(min_simplicial, adj, lanes):
        n = len(adj)
        high = sum(1 << (5 - j) for j, edge in adj[0] if j <= 5) if n == 7 else 0
        scanned.append((n, high))
        return scan(min_simplicial, adj, lanes)

    monkeypatch.setattr(oracles, "_counterexample_lanes", spy)
    monkeypatch.setattr(
        oracles, "_slice", lambda n, high: built.append((n, high)) or build(n, high)
    )
    assert find_simplicial_counterexample(8, min_simplicial=4) is not None
    assert scanned == built == [(4, 0), (5, 0), (6, 0)] + [(7, h) for h in (31, 30, 28, 24, 16, 0)]


def _hub_leads(n):
    """Every slice on n vertices, high descending, that the prefix rule
    keeps: those of a's pairs among high's bits run ones, then zeros, so
    2^hub less their value is a power of two."""
    spare = n * (n - 1) // 2 - oracles._slice_width(n)
    hub = min(n - 1, spare)
    return [high for high in reversed(range(1 << spare))
            if not (gap := (1 << hub) - (high >> (spare - hub))) & (gap - 1)]


@pytest.mark.parametrize("slice_bits", [4, 8, 12, 16])
def test_hub_highs_are_the_slices_the_prefix_rule_keeps(slice_bits, monkeypatch):
    # the highs are listed, not filtered, so the list is checked against
    # the rule read off every slice, up to 2^24 of them at n = 8
    monkeypatch.setattr(oracles, "_SLICE_BITS", slice_bits)
    for n in range(2, 9):
        assert oracles._hub_highs(n) == _hub_leads(n), n


def _greatest_relabelling(n, edges):
    """The greatest edge mask over all n! relabellings of edges, bit
    len(pairs) - 1 - p for the pth pair in combinations order."""
    pairs = list(combinations(range(n), 2))
    bit = {}
    for p, (i, j) in enumerate(pairs):
        bit[i, j] = bit[j, i] = 1 << (len(pairs) - 1 - p)
    return max(
        sum(bit[order[u], order[v]] for u, v in edges) for order in permutations(range(n))
    )


def _assert_first_mask_leads_with_a_hub(n, edges):
    pairs = list(combinations(range(n), 2))
    best = _greatest_relabelling(n, edges)
    first = [pair for p, pair in enumerate(pairs) if best >> (len(pairs) - 1 - p) & 1]
    degree = [sum(v in pair for pair in first) for v in range(n)]
    hub = max(degree)
    assert degree[0] == hub, edges
    assert {j for i, j in first if i == 0} == set(range(1, hub + 1)), edges


def test_a_relabelling_class_first_mask_leads_with_a_hub():
    # the claim _hub_highs rests on: of the relabellings of a graph, which
    # share its edge count, the first key, the greatest mask, has
    # N(0) = {1, ..., Δ}
    checked = 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            _assert_first_mask_leads_with_a_hub(
                n, [pair for p, pair in enumerate(pairs) if mask >> p & 1]
            )
            checked += 1
    assert checked == 1094
    rng = random.Random(7)
    for n in (6, 7):
        pairs = list(combinations(range(n), 2))
        for _ in range(15):
            edges = [pair for pair in pairs if rng.random() < 0.4] or pairs[:1]
            _assert_first_mask_leads_with_a_hub(n, edges)


def _assert_predicate_matches_loop(graphs, n):
    # one lane per graph; at min_simplicial 0 every connected lane is a
    # candidate, so the hits are the graphs whose simplicial set fails
    adj = _graph_lanes([[set(g.neighbors(v)) for v in range(n)] for g in graphs])
    lanes = (1 << len(graphs)) - 1
    assert oracles._connected_lanes(adj, lanes) == lanes
    simp = oracles._simplicial_lanes(adj, lanes)
    hits = oracles._counterexample_lanes(0, adj, lanes)
    for k, g in enumerate(graphs):
        want_simp, want_fails = loop_simplicial_verdict(g)
        assert [v for v in range(n) if simp[v] >> k & 1] == want_simp, g.edges()
        assert hits >> k & 1 == want_fails, list(g.edges())


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
        "bfs_distances", "_bfs_row", "_sweep", "_gx_of_batch", "simplicial_vertices",
    )
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "geodom":
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    assert find_simplicial_counterexample(6, min_simplicial=2) is not None
    hit = find_simplicial_counterexample(8, min_simplicial=5)
    assert hit is not None and hit[0].n == 8
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
    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    expected = loop_verify_unique_minimum(graphs)
    # a boundary is never empty, so the mutant fails every source
    assert len(expected.failures) == expected.sources_checked == 2 + 4 * 3 + 38 * 4 + 728 * 5
    assert verify_unique_minimum(graphs) == expected
    assert verify_unique_minimum([], exhaustive_n=5) == expected
    up_to_three = graphs[:5]
    corpus = random_graph_corpus(9, 7, 9, 0.3, seed=4)
    expected = loop_verify_unique_minimum(up_to_three + corpus)
    assert len(expected.failures) == expected.sources_checked
    assert verify_unique_minimum(corpus, exhaustive_n=3) == expected


def test_sweep_failures_keep_the_order_across_slices(monkeypatch):
    drop_one_boundary_vertex(monkeypatch)
    monkeypatch.setattr(oracles, "_SLICE_BITS", 4)
    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    assert verify_unique_minimum([], exhaustive_n=5) == loop_verify_unique_minimum(graphs)


def test_sweep_fails_a_boundary_with_a_smaller_cover(monkeypatch):
    # the rule's boundary still covers, but the true one is a smaller
    # cover, so the sweeps fail every source with a vertex added
    add_one_boundary_vertex(monkeypatch)
    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    expected = loop_verify_unique_minimum(graphs)
    assert 0 < len(expected.failures) < expected.sources_checked
    assert verify_unique_minimum(graphs) == expected
    assert verify_unique_minimum([], exhaustive_n=5) == expected


def test_sweep_verdict_matches_the_loop_on_perturbed_matrices():
    # a changed distance can tie minimum sets or move the boundary, so
    # every clause of the verdict decides some source
    rng = np.random.default_rng(11)
    graphs = random_graph_corpus(60, 6, 6, 0.4, seed=8)
    d = np.array([floyd_warshall(g) for g in graphs], dtype=np.uint8)
    for row in range(0, 60, 2):
        u, v = rng.choice(6, size=2, replace=False)
        d[row, u, v] = d[row, v, u] = rng.integers(0, 4)
    expected, tied = [], 0
    for row, g in enumerate(graphs):
        for x in range(6):
            sets = loop_min_x_geodominating(g, d[row], x)
            inside = VertexSet.of(direct_boundary(g, d[row].tolist(), x), 6)
            tied += len(sets) > 1
            if sets != (inside,):
                expected.append((row, x))
    assert tied > 5 and 20 < len(expected) < 150
    got = [(row, x) for row, g in enumerate(graphs)
           for x in oracles._failing_sources(g, d[row].tolist())]
    assert got == expected


def test_sweep_checks_the_cap_before_sweeping(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("an over-cap graph must fail before the enumeration")

    swept = []
    sweep = oracles._failing_sources
    monkeypatch.setattr(oracles, "_slice", no_enumeration)
    monkeypatch.setattr(oracles, "_failing_sources", lambda g, d: swept.append(g.n) or sweep(g, d))
    # each graph's cap comes before its own sweep: a lone over-cap graph
    # sweeps nothing, and the graphs before one are swept, but the
    # enumeration never starts
    for graphs, before in (([path_graph(21)], []),
                           ([path_graph(5), path_graph(6), path_graph(21)], [5, 6])):
        swept.clear()
        with pytest.raises(ValueError, match="too large: 21 vertices exceeds the cap of 20"):
            verify_unique_minimum(graphs, exhaustive_n=6)
        assert swept == before
    for bad in (-1, 8):
        with pytest.raises(ValueError, match=r"exhaustive_n must lie in \[0, 7\]"):
            verify_unique_minimum([], exhaustive_n=bad)


def test_sweep_reads_the_graphs_one_at_a_time(monkeypatch):
    drawn = []

    def graphs():
        for g in enumerate_connected_graphs(5):
            drawn.append(g)
            yield g

    sweep = oracles._failing_sources
    drawn_at_sweep = []

    def counting(g, d):
        drawn_at_sweep.append(len(drawn))
        return sweep(g, d)

    monkeypatch.setattr(oracles, "_failing_sources", counting)
    report = verify_unique_minimum(graphs())
    assert report.ok and report.graphs_checked == 728
    # an iterator is never held whole: each graph is swept before the
    # next one is drawn
    assert drawn_at_sweep == list(range(1, 729))


@cache
def _twenty_vertices():
    return random_connected_graph(20, 0.2, seed=20)


def test_sweep_reaches_the_cap_of_twenty():
    # listed graphs above the bruteforce default of 12 vertices, up to the
    # sweep's cap of 20
    corpus = random_graph_corpus(4, 13, 16, 0.2, seed=3)
    assert [g.n for g in corpus] == [13, 14, 15, 16]
    report = verify_unique_minimum([*corpus, _twenty_vertices()])
    assert report.ok
    assert (report.graphs_checked, report.sources_checked) == (5, 13 + 14 + 15 + 16 + 20)


def test_bruteforce_minimum_is_the_boundary_at_the_cap_of_twenty():
    g = _twenty_vertices()
    for x in range(g.n):
        assert min_x_geodominating_bruteforce(g, x, cap=20) == (boundary(g, x),), x


def test_sweep_rejects_disconnected_graphs():
    g = Graph([("a", "b"), ("c", "d")])
    with pytest.raises(GraphError, match="disconnected"):
        verify_unique_minimum([g])


@given(connected_graphs(max_n=6))
def test_oracle_agrees_with_boundary(g):
    for x in range(g.n):
        sets = min_x_geodominating_bruteforce(g, x)
        assert len(sets) == 1
        assert sets[0] == boundary(g, x)
