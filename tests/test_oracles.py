import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodom import (
    Graph,
    GraphGenSpec,
    all_pairs,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    find_simplicial_counterexample,
    geodetic_number_bruteforce,
    gx_set,
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
from helpers import connected_labeled_graph_counts
from strategies import connected_graphs, graphs_with_vertex, trees


# ---------------------------------------------------------------------------
# minimum x-geodominating search


def test_path_minimum_is_far_endpoint():
    g = path_graph(["a", "b", "c", "d"])
    res = min_x_geodominating_bruteforce(g, all_pairs(g), 0)
    assert res.minimum_size == 1 and res.exhausted
    assert [g.labels_of(s) for s in res.minimum_sets] == [["d"]]


def test_complete_graph_minimum_is_everyone_else():
    g = complete_graph(4)
    res = min_x_geodominating_bruteforce(g, all_pairs(g), 2)
    assert res.minimum_size == 3
    assert [set(s) for s in res.minimum_sets] == [{0, 1, 3}]


def test_every_minimum_set_geodominates():
    g = cycle_graph(6)
    dm = all_pairs(g)
    res = min_x_geodominating_bruteforce(g, dm, 0)
    for s in res.minimum_sets:
        assert is_x_geodominating(g, dm, 0, s).is_geodominating


def test_cap_is_enforced_and_overridable():
    g = path_graph(13)
    dm = all_pairs(g)
    with pytest.raises(ValueError, match="too large"):
        min_x_geodominating_bruteforce(g, dm, 0)
    assert min_x_geodominating_bruteforce(g, dm, 0, cap=13).minimum_size == 1


def test_single_vertex_rejected():
    g = Graph(vertices=["a"])
    with pytest.raises(ValueError, match="two vertices"):
        min_x_geodominating_bruteforce(g, all_pairs(g), 0)


@given(graphs_with_vertex(max_n=6))
def test_excluding_x_loses_nothing(gv):
    # the search skips x as a candidate; adding it back never helps
    g, x = gv
    dm = all_pairs(g)
    res = min_x_geodominating_bruteforce(g, dm, x)
    for s in res.minimum_sets:
        with_x = set(s) | {x}
        assert is_x_geodominating(g, dm, x, with_x).is_geodominating
        assert set(is_x_geodominating(g, dm, x, s).covered) == set(
            is_x_geodominating(g, dm, x, with_x).covered
        )


# ---------------------------------------------------------------------------
# geodetic number search


def test_geodetic_numbers_of_families():
    p5 = path_graph(5)
    n, witness = geodetic_number_bruteforce(p5, all_pairs(p5))
    assert n == 2 and list(witness) == [0, 4]
    c5 = cycle_graph(5)
    n5, w5 = geodetic_number_bruteforce(c5, all_pairs(c5))
    assert n5 == 3 and is_geodetic(c5, w5)
    c6 = cycle_graph(6)
    assert geodetic_number_bruteforce(c6, all_pairs(c6))[0] == 2
    k4 = complete_graph(4)
    assert geodetic_number_bruteforce(k4, all_pairs(k4))[0] == 4
    star = star_graph(6)
    assert geodetic_number_bruteforce(star, all_pairs(star))[0] == 5


def test_geodetic_cap():
    g = path_graph(11)
    with pytest.raises(ValueError, match="too large"):
        geodetic_number_bruteforce(g, all_pairs(g))
    assert geodetic_number_bruteforce(g, all_pairs(g), cap=11)[0] == 2


def test_geodetic_single_vertex():
    g = Graph(vertices=["a"])
    n, w = geodetic_number_bruteforce(g, all_pairs(g))
    assert n == 1 and list(w) == [0]


@given(connected_graphs(max_n=7))
def test_geodetic_number_at_most_min_gx_plus_one(g):
    dm = all_pairs(g)
    number, witness = geodetic_number_bruteforce(g, dm)
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


# ---------------------------------------------------------------------------
# random generation


def test_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        GraphGenSpec(n=5, mode="weird")
    with pytest.raises(ValueError, match="probability"):
        GraphGenSpec(n=5, edge_probability=1.5)
    with pytest.raises(ValueError, match="at least 1"):
        GraphGenSpec(n=0)
    with pytest.raises(ValueError, match="random-mode"):
        random_connected_graph(GraphGenSpec(n=5, mode="exhaustive"))
    with pytest.raises(ValueError, match="two vertices"):
        random_connected_graph(GraphGenSpec(n=1))


def test_zero_probability_gives_a_spanning_tree():
    for seed in range(10):
        g = random_connected_graph(GraphGenSpec(n=9, edge_probability=0.0, seed=seed))
        assert g.n == 9 and g.edge_count == 8 and is_connected(g)


def test_unit_probability_gives_complete():
    g = random_connected_graph(GraphGenSpec(n=6, edge_probability=1.0, seed=3))
    assert g.edge_count == 15


def test_same_seed_same_graph():
    spec = GraphGenSpec(n=8, edge_probability=0.4, seed=123)
    assert random_connected_graph(spec) == random_connected_graph(spec)


def test_seeds_vary_the_graph():
    graphs = {
        frozenset(random_connected_graph(GraphGenSpec(n=8, edge_probability=0.4, seed=s)).edges())
        for s in range(8)
    }
    assert len(graphs) > 1


def test_random_samples_are_valid():
    for i in range(100):
        g = random_connected_graph(GraphGenSpec(n=9, edge_probability=0.3, seed=i))
        assert g.n == 9 and is_connected(g)


def test_corpus_cycles_sizes_and_is_deterministic():
    corpus = random_graph_corpus(7, 4, 6, 0.3, seed=2)
    assert [g.n for g in corpus] == [4, 5, 6, 4, 5, 6, 4]
    again = random_graph_corpus(7, 4, 6, 0.3, seed=2)
    assert corpus == again
    with pytest.raises(ValueError):
        random_graph_corpus(3, 6, 4, 0.3, seed=2)


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
    dm = all_pairs(g)
    for z in range(g.n):
        assert not is_x_geodominating(g, dm, z, simp).is_geodominating


def test_no_counterexample_on_four_vertices():
    assert find_simplicial_counterexample(4) is None


def test_counterexample_with_many_simplicial_vertices():
    hit = find_simplicial_counterexample(8, min_simplicial=4)
    assert hit is not None
    g, simp = hit
    assert g.n <= 8 and len(simp) >= 4
    dm = all_pairs(g)
    for z in range(g.n):
        assert not is_x_geodominating(g, dm, z, simp).is_geodominating


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
    dm = all_pairs(t)
    leaves = simplicial_vertices(t)
    for z in range(t.n):
        assert is_x_geodominating(t, dm, z, leaves).is_geodominating


@pytest.mark.parametrize("n", [3, 4, 5])
def test_complete_graphs_are_never_counterexamples(n):
    g = complete_graph(n)
    dm = all_pairs(g)
    everyone = simplicial_vertices(g)
    assert len(everyone) == n
    for z in range(n):
        assert is_x_geodominating(g, dm, z, everyone).is_geodominating


# ---------------------------------------------------------------------------
# verification driver


def test_verify_unique_minimum_on_small_corpus():
    graphs = list(enumerate_connected_graphs(4))
    report = verify_unique_minimum(graphs)
    assert report.ok
    assert report.graphs_checked == 38
    assert report.sources_checked == 38 * 4
    assert report.failures == ()


def test_verify_skips_single_vertex_graphs():
    graphs = list(enumerate_connected_graphs(1)) + list(enumerate_connected_graphs(2))
    report = verify_unique_minimum(graphs)
    assert report.graphs_checked == 1 and report.sources_checked == 2


@given(connected_graphs(max_n=6))
def test_oracle_agrees_with_boundary(g):
    dm = all_pairs(g)
    for x in range(g.n):
        res = min_x_geodominating_bruteforce(g, dm, x)
        assert res.exhausted
        assert len(res.minimum_sets) == 1
        assert res.minimum_sets[0] == gx_set(g, dm, x)
