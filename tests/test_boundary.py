import numpy as np
import pytest
from hypothesis import given, settings

from geodom import (
    Graph,
    VertexSet,
    bfs_distances,
    boundary,
    complete_graph,
    cycle_graph,
    geodetic_from_boundary,
    is_geodetic,
    is_x_geodominating,
    min_gx_vertex,
    path_graph,
    star_graph,
)
from helpers import direct_boundary, direct_covered, floyd_warshall
from strategies import connected_graphs, graphs_vertex_and_set, graphs_with_vertex, trees

P4 = path_graph(["a", "b", "c", "d"])


def labels_of_boundary(g, x_label):
    return g.labels_of(boundary(g, g.index_of(x_label)).boundary)


# ---------------------------------------------------------------------------
# pinned values


def test_path_boundaries():
    assert labels_of_boundary(P4, "b") == ["a", "d"]
    assert labels_of_boundary(P4, "a") == ["d"]
    assert boundary(P4, P4.index_of("b")).gx == 2
    p3 = path_graph(["a", "b", "c"])
    assert labels_of_boundary(p3, "a") == ["c"]
    assert labels_of_boundary(p3, "b") == ["a", "c"]


def test_cycle_boundaries():
    c5 = cycle_graph(5)
    assert c5.labels_of(boundary(c5, 0).boundary) == ["v2", "v3"]
    c6 = cycle_graph(6)
    assert c6.labels_of(boundary(c6, 0).boundary) == ["v3"]


def test_complete_graph_boundary_is_everyone_else():
    k5 = complete_graph(5)
    for x in range(5):
        assert set(boundary(k5, x).boundary) == set(range(5)) - {x}
        assert boundary(k5, x).gx == 4


# ---------------------------------------------------------------------------
# definitional properties


@given(graphs_with_vertex())
def test_boundary_matches_definition_scan(gv):
    g, x = gv
    assert set(boundary(g, x).boundary) == direct_boundary(g, floyd_warshall(g), x)


@given(graphs_with_vertex())
def test_source_never_in_own_boundary(gv):
    g, x = gv
    assert x not in boundary(g, x).boundary


@given(graphs_with_vertex())
def test_eccentric_vertices_are_boundary(gv):
    g, x = gv
    row = bfs_distances(g, x)
    b = set(boundary(g, x).boundary)
    assert set(np.flatnonzero(row == row.max())) <= b


@given(trees())
def test_tree_boundary_is_leaves_except_source(t):
    leaves = {v for v in range(t.n) if t.degree(v) == 1}
    for x in range(t.n):
        assert set(boundary(t, x).boundary) == leaves - {x}


# ---------------------------------------------------------------------------
# x-geodomination checks


@given(graphs_vertex_and_set())
def test_covered_set_matches_direct_computation(gvs):
    g, x, members = gvs
    chk = is_x_geodominating(g, x, members)
    assert set(chk.covered) == direct_covered(floyd_warshall(g), x, members, g.n)
    assert chk.is_geodominating == (len(chk.covered) == g.n)


def test_empty_set_never_geodominates():
    chk = is_x_geodominating(P4, 0, [])
    assert not chk.is_geodominating
    assert len(chk.covered) == 0
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
    assert chk.witness_uncovered not in chk.covered


def test_vertex_set_size_mismatch_rejected():
    with pytest.raises(ValueError, match="size"):
        is_x_geodominating(P4, 0, VertexSet.of([0], 3))


# ---------------------------------------------------------------------------
# the boundary-containment rule


@given(graphs_vertex_and_set())
def test_geodominating_iff_contains_boundary(gvs):
    g, x, members = gvs
    direct = is_x_geodominating(g, x, members).is_geodominating
    assert direct == boundary(g, x).boundary.issubset(members)


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
        b = set(boundary(g, x).boundary)
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
    sizes = [boundary(g, x).gx for x in range(g.n)]
    x, value = min_gx_vertex(g)
    assert value == min(sizes)
    assert sizes[x] == value and sizes.index(value) == x


@given(connected_graphs())
def test_heuristic_set_is_geodetic_with_pinned_size(g):
    s = geodetic_from_boundary(g)
    assert is_geodetic(g, s)
    assert len(s) == min_gx_vertex(g)[1] + 1


def test_heuristic_examples():
    assert P4.labels_of(geodetic_from_boundary(P4)) == ["a", "d"]
    c5 = cycle_graph(5)
    assert c5.labels_of(geodetic_from_boundary(c5)) == [
        "v0",
        "v2",
        "v3",
    ]


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
