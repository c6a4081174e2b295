import sys
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodom import (
    Graph,
    VertexSet,
    bfs_distances,
    boundary,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    geodetic_from_boundary,
    is_geodetic,
    is_x_geodominating,
    min_gx_vertex,
    path_graph,
    random_connected_graph,
    star_graph,
)
from geodom import bitmasks, cli, graph, oracles
from geodom.boundary import GeodominationCheck
from helpers import (
    direct_boundary,
    direct_covered,
    floyd_warshall,
    geodesic_vertices_by_paths,
    raw_bfs_rows,
    reference_adjacency,
    swept_cover,
)
from strategies import connected_graphs, graphs_vertex_and_set, graphs_with_vertex, trees

P4 = path_graph(["a", "b", "c", "d"])
# the module, whose name the function boundary shadows in the package
boundary_module = sys.modules["geodom.boundary"]


def labels_of_boundary(g, x_label):
    return g.labels_of(boundary(g, g.index_of(x_label)))


# ---------------------------------------------------------------------------
# pinned values


def test_path_boundaries():
    assert labels_of_boundary(P4, "b") == ["a", "d"]
    assert labels_of_boundary(P4, "a") == ["d"]
    assert len(boundary(P4, P4.index_of("b"))) == 2
    p3 = path_graph(["a", "b", "c"])
    assert labels_of_boundary(p3, "a") == ["c"]
    assert labels_of_boundary(p3, "b") == ["a", "c"]


def test_cycle_boundaries():
    c5 = cycle_graph(5)
    assert c5.labels_of(boundary(c5, 0)) == ["v2", "v3"]
    c6 = cycle_graph(6)
    assert c6.labels_of(boundary(c6, 0)) == ["v3"]


def test_complete_graph_boundary_is_everyone_else():
    k5 = complete_graph(5)
    for x in range(5):
        assert set(boundary(k5, x)) == set(range(5)) - {x}
        assert len(boundary(k5, x)) == 4


# ---------------------------------------------------------------------------
# definitional properties


@given(graphs_with_vertex())
def test_boundary_matches_definition_scan(gv):
    g, x = gv
    assert set(boundary(g, x)) == direct_boundary(g, floyd_warshall(g), x)


@given(graphs_with_vertex())
def test_source_never_in_own_boundary(gv):
    g, x = gv
    assert x not in boundary(g, x)


@given(graphs_with_vertex())
def test_eccentric_vertices_are_boundary(gv):
    g, x = gv
    row = bfs_distances(g, x)
    b = set(boundary(g, x))
    assert set(np.flatnonzero(row == row.max())) <= b


@given(trees())
def test_tree_boundary_is_leaves_except_source(t):
    leaves = {v for v in range(t.n) if t.degree(v) == 1}
    for x in range(t.n):
        assert set(boundary(t, x)) == leaves - {x}


# ---------------------------------------------------------------------------
# x-geodomination checks


def _assert_check_reads_the_sweep(g, x, members, covered):
    """is_x_geodominating's verdict and witness follow from the swept
    cover: it holds when covered is all of V, and the witness is the least
    vertex missing from covered."""
    chk = is_x_geodominating(g, x, members)
    assert chk.is_geodominating == (len(covered) == g.n)
    assert chk.witness_uncovered == min(set(range(g.n)) - covered, default=None)


@given(graphs_vertex_and_set())
def test_covered_set_matches_direct_computation(gvs):
    g, x, members = gvs
    covered = swept_cover(g, x, members)
    assert covered == direct_covered(floyd_warshall(g), x, members, g.n)
    _assert_check_reads_the_sweep(g, x, members, covered)


def test_empty_set_never_geodominates():
    chk = is_x_geodominating(P4, 0, [])
    assert not chk.is_geodominating
    assert swept_cover(P4, 0, []) == set()
    assert chk.witness_uncovered == 0


@given(graphs_with_vertex())
def test_everyone_else_geodominates(gv):
    g, x = gv
    rest = set(range(g.n)) - {x}
    assert is_x_geodominating(g, x, rest).is_geodominating


def test_witness_is_smallest_uncovered():
    c5 = cycle_graph(5)
    chk = is_x_geodominating(c5, 0, [2])
    # v3 is not on any geodesic from v0 to v2
    assert not chk.is_geodominating
    assert chk.witness_uncovered == 3
    assert chk.witness_uncovered not in swept_cover(c5, 0, [2])


def test_vertex_set_size_mismatch_rejected():
    with pytest.raises(ValueError, match="size"):
        is_x_geodominating(P4, 0, VertexSet.of([0], 3))


# ---------------------------------------------------------------------------
# the boundary-containment rule


@given(graphs_vertex_and_set())
def test_geodominating_iff_contains_boundary(gvs):
    g, x, members = gvs
    direct = is_x_geodominating(g, x, members).is_geodominating
    assert direct == boundary(g, x).issubset(members)


FIXED_SMALL = [
    P4,
    cycle_graph(5),
    complete_graph(4),
    star_graph(5),
    # smallest graph whose simplicial set geodominates from no source
    Graph([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "e"), ("d", "e")]),
]


@pytest.mark.parametrize("g", FIXED_SMALL, ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_rule_exhaustive_over_all_subsets(g):
    for x in range(g.n):
        b = set(boundary(g, x))
        for mask in range(1 << g.n):
            s = [v for v in range(g.n) if mask >> v & 1]
            direct = is_x_geodominating(g, x, s).is_geodominating
            assert direct == (b <= set(s)), (x, s)


# ---------------------------------------------------------------------------
# minimum-boundary vertex and the geodetic heuristic


def test_min_gx_vertex_values():
    assert min_gx_vertex(P4) == (0, 1)
    assert min_gx_vertex(cycle_graph(6)) == (0, 1)


@given(connected_graphs())
def test_min_gx_vertex_is_argmin_with_lowest_index(g):
    sizes = [len(boundary(g, x)) for x in range(g.n)]
    x, value = min_gx_vertex(g)
    assert value == min(sizes)
    assert sizes[x] == value and sizes.index(value) == x


@given(connected_graphs())
def test_heuristic_set_is_geodetic_with_pinned_size(g):
    s = geodetic_from_boundary(g)
    assert is_geodetic(g, s)
    assert len(s) == min_gx_vertex(g)[1] + 1


@given(connected_graphs())
def test_heuristic_verdict_needs_no_closure(g):
    # the boundary of x x-geodominates, so boundary(x) + x is geodetic: the
    # sweep of x's own row decides, and the closure never runs
    want = [(VertexSet.of([*boundary(g, x), x], g.n), True) for x in range(g.n)]

    def no_closure(*args):
        raise AssertionError("the sweep proves the set geodetic")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "geodetic_closure", no_closure)
        got = [boundary_module._boundary_with_source(g, x) for x in range(g.n)]
        x, _, s, geodetic, size_ok = cli._heuristic(g)
        assert (s, geodetic) == want[x] and size_ok
        assert geodetic_from_boundary(g) == s
    assert got == want


def test_heuristic_verdict_falls_back_to_the_closure(monkeypatch):
    # a failed sweep hands the verdict to the geodetic closure
    monkeypatch.setattr(
        boundary_module, "_row_coverage", lambda g, row, s: GeodominationCheck(False, 0)
    )
    c5 = cycle_graph(5)
    for g in (P4, c5, star_graph(5)):
        assert all(boundary_module._boundary_with_source(g, x)[1] for x in range(g.n))
    # a closure that adds nothing leaves {v0, v2, v3} short of C5
    monkeypatch.setattr(graph, "geodetic_closure", lambda g, s: VertexSet.of(s, g.n))
    s, geodetic = boundary_module._boundary_with_source(c5, 0)
    assert c5.labels_of(s) == ["v0", "v2", "v3"] and not geodetic


def test_heuristic_examples():
    assert P4.labels_of(geodetic_from_boundary(P4)) == ["a", "d"]
    c5 = cycle_graph(5)
    assert c5.labels_of(geodetic_from_boundary(c5)) == [
        "v0",
        "v2",
        "v3",
    ]


# ---------------------------------------------------------------------------
# every boundary rule against the definition


def _gx_on_words_and_rows(g):
    """gx of every source from the schedule's level ints, and again with
    no level budget, so that every source takes a BFS row."""
    gx_of_sources = graph._gx_of_sources
    on_words = gx_of_sources(g, range(g.n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_word_budget", lambda g, k: 0)
        on_rows = gx_of_sources(g, range(g.n))
    return on_words, on_rows


def _oracle_rule(adj, dist):
    """The oracle sweep's own boundary rule from every source, run as the
    sweep runs it, once per source index on the graphs with adjacency
    adj[k]; dist[k] holds the distances of graph k. Returns the boundary
    of each source of each graph."""
    d = np.array(dist)
    graphs, n, _ = d.shape
    inside = [oracles._boundary_mask(adj, d[:, x, :]) for x in range(n)]
    return [[set(np.flatnonzero(inside[x][k]).tolist()) for x in range(n)] for k in range(graphs)]


def _assert_rules_agree(g, dist, interval_oracle, targets):
    """The boundary that the BFS pass flags and gx on words and on rows
    equal the definition scan from every source, and so do the coverage
    sweeps: of one target y in targets (the interval to y) against
    interval_oracle, of the boundary and of the even vertices against the
    distance definition."""
    want = [direct_boundary(g, dist, x) for x in range(g.n)]
    assert [set(boundary(g, x)) for x in range(g.n)] == want
    assert _gx_on_words_and_rows(g) == ([len(b) for b in want],) * 2
    evens = range(0, g.n, 2)
    for x in range(g.n):
        row, _ = graph._distance_row(g, x)
        for y in targets:
            assert set(compress(range(g.n), graph._sweep(g, row, [y]))) == interval_oracle(x, y)
        for s in (want[x], evens):
            covered = swept_cover(g, x, s)
            assert covered == direct_covered(dist, x, s, g.n)
            _assert_check_reads_the_sweep(g, x, s, covered)
    return want


def test_boundary_rules_agree_on_every_small_graph():
    # every connected labelled graph on 2 to 5 vertices, from every
    # source; intervals come from enumerating simple paths. The theorem
    # sweep checks the oracle's own rule, so this ties that rule to the
    # boundary the commands print
    by_size = {n: list(enumerate_connected_graphs(n)) for n in range(2, 6)}
    assert sum(map(len, by_size.values())) == 771
    for n, graphs in by_size.items():
        dist = [floyd_warshall(g) for g in graphs]
        wants = [
            _assert_rules_agree(
                g, d, lambda x, y, g=g: geodesic_vertices_by_paths(g, x, y), range(n)
            )
            for g, d in zip(graphs, dist)
        ]
        adj = bitmasks._unpack(bitmasks._stacked_bits(graphs, n), n).astype(bool)
        assert _oracle_rule(adj, dist) == wants


@settings(max_examples=25, deadline=None)
@given(st.integers(6, 70), st.floats(0.0, 0.3), st.integers(0, 2**16))
def test_boundary_rules_agree_on_larger_graphs(n, extra, seed):
    # past the probe of 64 sources too; intervals by the distance
    # definition, to about ten targets per source
    g = random_connected_graph(n, edge_probability=2 / n + extra, seed=seed)
    dist = raw_bfs_rows([g.neighbors(v) for v in range(n)])
    want = _assert_rules_agree(
        g, dist, lambda x, y: direct_covered(dist, x, [y], n), range(0, n, max(1, n // 10))
    )
    adj = reference_adjacency([g.neighbors(v) for v in range(n)])
    assert _oracle_rule(adj[None], [dist]) == [want]


# ---------------------------------------------------------------------------
# validation


def test_single_vertex_rejected():
    g = Graph(vertices=["a"])
    with pytest.raises(ValueError, match="two vertices"):
        boundary(g, 0)
    with pytest.raises(ValueError, match="two vertices"):
        min_gx_vertex(g)


def test_boundary_validates_inputs():
    with pytest.raises(ValueError):
        boundary(P4, 9)
