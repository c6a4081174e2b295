import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodom import (
    DisconnectedError,
    Graph,
    ProductKind,
    bfs_distances,
    boundary,
    complete_graph,
    parse_graph,
    path_graph,
    product,
    product_distance,
    product_reports,
)
from geodom import graph, products
from helpers import assert_same_graph, cells, loop_product, loop_product_reports, pair_labels
from strategies import connected_graphs, relabelled

P3A = path_graph(["a", "b", "c"])
P3N = path_graph(["1", "2", "3"])
P4N = path_graph(["1", "2", "3", "4"])

KINDS = list(ProductKind)

factor_pairs = st.tuples(connected_graphs(max_n=5), connected_graphs(max_n=5))


# ---------------------------------------------------------------------------
# construction


def test_cartesian_of_two_edges_is_a_square():
    pg = product("cartesian", path_graph(2), path_graph(2))
    assert pg.graph.n == 4 and pg.graph.edge_count == 4
    assert all(pg.graph.degree(v) == 2 for v in range(4))


def test_lexicographic_of_two_edges_is_complete():
    pg = product("lexicographic", complete_graph(2), complete_graph(2))
    assert pg.graph.n == 4 and pg.graph.edge_count == 6


def test_strong_of_two_edges_is_complete():
    pg = product("strong", path_graph(2), path_graph(2))
    assert pg.graph.n == 4 and pg.graph.edge_count == 6


def test_single_vertex_factor_copies_the_other():
    solo = Graph(vertices=["s"])
    pg = product("cartesian", solo, P3A)
    assert pg.graph.n == 3 and pg.graph.edge_count == 2
    assert pg.graph.labels == ("(s,a)", "(s,b)", "(s,c)")


def test_pair_bookkeeping_is_a_bijection():
    pg = product("strong", P3A, P4N)
    assert pg.graph.n == 12
    for p in range(pg.graph.n):
        gi, hi = pg.pair_of(p)
        assert pg.index_of_pair(gi, hi) == p
        assert pg.graph.labels[p] == f"({P3A.labels[gi]},{P4N.labels[hi]})"
    with pytest.raises(ValueError):
        pg.index_of_pair(3, 0)


def _assert_matches_loop(kind, g, h):
    pg = product(kind, g, h)
    ref, sets = loop_product(kind, g, h)
    assert_same_graph(pg.graph, ref.graph, sets)
    assert pg.factor_pairs == ref.factor_pairs
    for p in range(pg.graph.n):
        assert pg.index_of_pair(*pg.pair_of(p)) == p
    return pg


@settings(max_examples=40)
@given(st.tuples(relabelled(connected_graphs(max_n=4)), relabelled(connected_graphs(max_n=4))))
def test_product_matches_label_loop(pair):
    for kind in KINDS:
        _assert_matches_loop(kind, *pair)


@pytest.mark.parametrize("kind", KINDS)
def test_pair_label_order_differs_from_index_order(kind):
    # "(a+,x)" < "(a,x)" and "(a,x!)" < "(a,x)": '+' and '!' sort before ','
    # and ')', so the product's vertex order is not (a, b) index order
    g = Graph([("a", "a+"), ("a+", "b")])
    h = Graph([("x", "x!")])
    pg = _assert_matches_loop(kind, g, h)
    assert pg.graph.labels[:3] == ("(a+,x!)", "(a+,x)", "(a,x!)")
    assert pg.factor_pairs[:3] == ((1, 1), (1, 0), (0, 1))


def test_colliding_pair_labels_rejected(monkeypatch):
    monkeypatch.setattr(products, "pair_label", lambda a, b: f"({a})")
    with pytest.raises(AssertionError, match="collided"):
        product("cartesian", P3A, P3N)


def test_kind_normalization():
    assert product(ProductKind.CARTESIAN, P3A, P3N).kind is ProductKind.CARTESIAN
    with pytest.raises(ValueError, match="unknown product kind"):
        product("tensor", P3A, P3N)


def test_disconnected_factor_rejected():
    broken = parse_graph("vertices: z\na b\n")
    with pytest.raises(DisconnectedError, match="disconnected factor"):
        product("cartesian", broken, P3A)


def test_comma_in_factor_label_rejected():
    odd = Graph([("x,y", "z")])
    with pytest.raises(ValueError, match="comma"):
        product("cartesian", odd, P3A)


def _rule(kind, g, h, a, b):
    (g1, h1), (g2, h2) = a, b
    cart = (g.has_edge(g1, g2) and h1 == h2) or (g1 == g2 and h.has_edge(h1, h2))
    if kind is ProductKind.CARTESIAN:
        return cart
    if kind is ProductKind.LEXICOGRAPHIC:
        return g.has_edge(g1, g2) or (g1 == g2 and h.has_edge(h1, h2))
    return cart or (g.has_edge(g1, g2) and h.has_edge(h1, h2))


@settings(max_examples=40)
@given(factor_pairs)
def test_edge_rules_hold_for_every_vertex_pair(factors):
    g, h = factors
    for kind in KINDS:
        pg = product(kind, g, h)
        assert pg.graph.n == g.n * h.n
        for p in range(pg.graph.n):
            for q in range(p + 1, pg.graph.n):
                expected = _rule(kind, g, h, pg.pair_of(p), pg.pair_of(q))
                assert pg.graph.has_edge(p, q) == expected


@settings(max_examples=40)
@given(factor_pairs)
def test_edge_sets_nest_across_kinds(factors):
    g, h = factors

    def edge_labels(kind):
        pg = product(kind, g, h)
        return {
            frozenset((pg.graph.labels[u], pg.graph.labels[v]))
            for u, v in pg.graph.edges()
        }

    cart = edge_labels(ProductKind.CARTESIAN)
    assert cart <= edge_labels(ProductKind.STRONG)
    assert cart <= edge_labels(ProductKind.LEXICOGRAPHIC)


# ---------------------------------------------------------------------------
# distances


def test_distance_examples():
    # distances from the base (first vertex, first vertex)
    a3, n3, n4 = bfs_distances(P3A, 0), bfs_distances(P3N, 0), bfs_distances(P4N, 0)
    assert product_distance("cartesian", a3, n3)[2, 2] == 4
    assert product_distance("strong", a3, n4)[2, 2] == 2
    p2 = path_graph(["a", "b"])
    assert product_distance("lexicographic", bfs_distances(p2, 0), n4)[0, 3] == 2
    # with one layer, the layer metric is H's own
    assert product_distance("lexicographic", [0], n4).tolist() == [[0, 1, 2, 3]]


def test_distance_validates_range():
    # a factor row is 1-D, with one zero at its source
    row = bfs_distances(P3A, 0)
    for bad in ([[0, 1]], [1, 2], [0, 0, 1], 0):
        with pytest.raises(ValueError, match="exactly one zero"):
            product_distance("cartesian", bad, row)
        with pytest.raises(ValueError, match="exactly one zero"):
            product_distance("cartesian", row, bad)


@settings(max_examples=30)
@given(factor_pairs)
def test_closed_form_matches_bfs_on_product(factors):
    g, h = factors
    for kind in KINDS:
        pg = product(kind, g, h)
        a, b = np.array(pg.factor_pairs).T
        for p in range(pg.graph.n):
            x, y = pg.pair_of(p)
            got = product_distance(kind, bfs_distances(g, x), bfs_distances(h, y))
            # cell [a[q], b[q]] is the distance to product vertex q
            assert got[a, b].tolist() == bfs_distances(pg.graph, p).tolist(), (kind, (x, y))


# ---------------------------------------------------------------------------
# boundary reports


def test_lexicographic_report_pinned_values():
    [rep] = product_reports("lexicographic", P3A, P3N, [(0, 0)])
    assert pair_labels(P3A, P3N, rep.actual) == ["(a,3)", "(c,1)", "(c,2)", "(c,3)"]
    assert rep.containments_hold and rep.witnesses is None
    assert not rep.upper_strict  # the bound is attained here
    [rep_b] = product_reports("lexicographic", P3A, P3N, [(1, 0)])
    assert pair_labels(P3A, P3N, rep_b.actual) == ["(b,3)"]


def test_strong_report_pinned_values():
    [rep] = product_reports("strong", P3A, P3N, [(0, 0)])
    assert pair_labels(P3A, P3N, rep.actual) == [
        "(a,3)",
        "(b,3)",
        "(c,1)",
        "(c,2)",
        "(c,3)",
    ]
    [rep4] = product_reports("strong", P3A, P4N, [(0, 0)])
    assert pair_labels(P3A, P4N, rep4.actual) == [
        "(a,4)",
        "(b,4)",
        "(c,1)",
        "(c,2)",
        "(c,4)",
    ]
    assert rep4.upper_strict
    missing = rep4.upper & ~rep4.actual
    assert pair_labels(P3A, P4N, missing) == ["(c,3)"]


def test_cartesian_report_is_an_equality():
    [rep] = product_reports("cartesian", P3A, P3N, [(0, 0)])
    assert pair_labels(P3A, P3N, rep.actual) == ["(c,3)"]
    assert cells(rep.lower) == cells(rep.upper) == cells(rep.actual)
    assert rep.containments_hold and not rep.upper_strict


@settings(max_examples=25)
@given(factor_pairs)
def test_cartesian_equality_everywhere(factors):
    g, h = factors
    for rep in product_reports("cartesian", g, h):
        assert rep.containments_hold
        assert cells(rep.lower) == cells(rep.upper) == cells(rep.actual)


@settings(max_examples=25)
@given(factor_pairs)
def test_strong_sandwich_everywhere(factors):
    g, h = factors
    for rep in product_reports("strong", g, h):
        assert rep.containments_hold, rep.base
        assert rep.witnesses is None
        lower, actual, upper = cells(rep.lower), cells(rep.actual), cells(rep.upper)
        assert lower <= actual <= upper
        assert rep.upper_strict == (actual < upper)


@settings(max_examples=25)
@given(factor_pairs)
def test_lexicographic_lower_containment_everywhere(factors):
    # Only the lower containment is guaranteed for this product.  The
    # candidate upper bound can miss same-layer vertices at truncated
    # distance two, so the reports must record the facts consistently
    # rather than assume the bound.
    g, h = factors
    for rep in product_reports("lexicographic", g, h):
        lower, actual, upper = cells(rep.lower), cells(rep.actual), cells(rep.upper)
        assert lower <= actual, rep.base
        assert rep.containments_hold == (actual <= upper)
        if rep.containments_hold:
            assert rep.witnesses is None
            assert rep.upper_strict == (actual < upper)
        else:
            assert cells(rep.witnesses) == actual - upper
            assert not rep.upper_strict


def test_lexicographic_upper_bound_fails_on_small_tree():
    # Base (A,c) in P2 lex T: the layer vertex (A,b) sits at truncated
    # distance two from the base, which makes it a boundary vertex even
    # though b is interior in T.  The candidate upper bound misses it.
    p2 = path_graph(["A", "B"])
    tree = Graph([("a", "b"), ("a", "c"), ("b", "d")])
    base = (p2.index_of("A"), tree.index_of("c"))
    [rep] = product_reports("lexicographic", p2, tree, [base])
    assert not rep.containments_hold
    assert pair_labels(p2, tree, rep.actual) == ["(A,b)", "(A,d)"]
    assert pair_labels(p2, tree, rep.witnesses) == ["(A,b)"]
    assert cells(rep.lower) <= cells(rep.actual)
    assert not rep.upper_strict


def test_report_requires_nontrivial_factors():
    solo = Graph(vertices=["s"])
    with pytest.raises(ValueError, match="two vertices"):
        product_reports("cartesian", solo, P3A, [(0, 0)])
    with pytest.raises(ValueError, match="two vertices"):
        product_reports("strong", P3A, solo, [(0, 0)])


def test_report_rejects_bad_factors_and_bases():
    broken = parse_graph("vertices: z\na b\n")
    with pytest.raises(DisconnectedError, match="disconnected factor"):
        product_reports("cartesian", P3A, broken)
    with pytest.raises(ValueError, match="comma"):
        product_reports("strong", Graph([("x,y", "z")]), P3A)
    with pytest.raises(ValueError, match="first-factor index 3 out of range"):
        product_reports("strong", P3A, P3N, [(3, 0)])
    with pytest.raises(ValueError, match="second-factor index -1 out of range"):
        product_reports("strong", P3A, P3N, [(0, -1)])
    with pytest.raises(ValueError, match="unknown product kind"):
        product_reports("tensor", P3A, P3N)


def test_stream_checks_every_input_before_it_returns():
    # a generator body would defer these checks to the first report, after
    # a caller has started writing its output
    broken = parse_graph("vertices: z\na b\n")
    with pytest.raises(DisconnectedError, match="disconnected factor"):
        products._stream_reports("cartesian", P3A, broken)
    with pytest.raises(ValueError, match="first-factor index 3 out of range"):
        products._stream_reports("strong", P3A, P3N, [(0, 0), (3, 0)])
    with pytest.raises(ValueError, match="unknown product kind"):
        products._stream_reports("tensor", P3A, P3N)


def test_stream_holds_one_layer_of_stacks():
    # once the first report of x + 1 is out, no stack of x is alive
    stacks = []
    for rep in products._stream_reports("strong", P4N, P3A):
        x = rep.base[0]
        stacks.append((x, weakref.ref(rep.actual.base)))
        del rep
        assert all(ref() is None for x0, ref in stacks if x0 < x)
    assert [x for x, _ in stacks] == [x for x in range(4) for _ in range(3)]


def test_stream_yields_every_base_in_request_order():
    # one report per requested base, repeats included; each run of bases
    # with the same x shares one array pass
    bases = [(2, 1), (2, 0), (0, 3), (2, 1)]
    reps = list(products._stream_reports("lexicographic", P3A, P4N, bases))
    assert [rep.base for rep in reps] == bases
    first, second, _, last = (rep.actual.base for rep in reps)
    assert first is second
    assert last is not first


@pytest.mark.parametrize("bases", [None, [(2, 1), (0, 3), (2, 1)]])
def test_reports_build_each_factors_lists_once(monkeypatch, bases):
    # one build per factor for the connectivity check, then one per factor
    # that every row of that factor shares, whatever the bases
    built = []
    real = graph._neighbour_lists
    monkeypatch.setattr(graph, "_neighbour_lists", lambda g: built.append(g) or real(g))
    for kind in KINDS:
        built.clear()
        product_reports(kind, P3A, P4N, bases)
        assert built == [P3A, P4N, P4N, P3A]


def test_reports_follow_the_given_bases():
    every = product_reports("lexicographic", P3A, P4N)
    assert [rep.base for rep in every] == [(x, y) for x in range(3) for y in range(4)]
    picked = product_reports("lexicographic", P3A, P4N, [(2, 1), (0, 3), (2, 1)])
    assert [rep.base for rep in picked] == [(2, 1), (0, 3), (2, 1)]
    for rep in picked:
        twin = every[rep.base[0] * 4 + rep.base[1]]
        assert cells(rep.actual) == cells(twin.actual)
        assert (rep.gx, rep.gx_lower, rep.gx_upper) == (twin.gx, twin.gx_lower, twin.gx_upper)


@settings(max_examples=40)
@given(factor_pairs)
def test_reports_match_bfs_on_built_product(factors):
    # the closed forms against the definition: BFS on the product itself
    g, h = factors
    for kind in KINDS:
        pg = product(kind, g, h)
        for rep in product_reports(kind, g, h):
            expected = boundary(pg.graph, pg.index_of_pair(*rep.base))
            assert {pg.index_of_pair(a, b) for a, b in cells(rep.actual)} == set(
                expected.boundary
            ), (kind, rep.base)
            assert rep.gx == expected.gx


def _assert_same_reports(got, want):
    assert len(got) == len(want)
    for rep, twin in zip(got, want):
        for field in fields(rep):
            value, expected = getattr(rep, field.name), getattr(twin, field.name)
            if isinstance(expected, np.ndarray):
                assert value.shape == expected.shape and value.dtype == expected.dtype
                assert np.array_equal(value, expected), (rep.base, field.name)
                assert not value.flags.writeable
            else:
                assert value == expected, (rep.base, field.name)


@settings(max_examples=40)
@given(factor_pairs, st.data())
def test_reports_match_the_per_base_loop(factors, data):
    # one array pass per distinct x against one closed form per base
    g, h = factors
    pick = st.tuples(st.integers(0, g.n - 1), st.integers(0, h.n - 1))
    picked = data.draw(st.lists(pick, max_size=8))
    repeated = [(g.n - 1, h.n - 1), (0, h.n - 1), (0, 0), (g.n - 1, h.n - 1)]
    for kind in KINDS:
        for bases in (None, picked, repeated):
            got = product_reports(kind, g, h, bases)
            _assert_same_reports(got, loop_product_reports(kind, g, h, bases))


# ---------------------------------------------------------------------------
# gx reports


def test_gx_report_pinned_values():
    [cart] = product_reports("cartesian", P3A, P3N, [(0, 0)])
    assert (cart.gx, cart.gx_lower, cart.gx_upper) == (1, 1, 1)
    [lex] = product_reports("lexicographic", P3A, P3N, [(1, 0)])
    assert (lex.gx, lex.gx_lower, lex.gx_upper) == (1, 1, 7)
    [strong] = product_reports("strong", P3A, P4N, [(0, 0)])
    assert (strong.gx, strong.gx_lower, strong.gx_upper) == (5, 1, 7)
    assert cart.gx_holds and lex.gx_holds and strong.gx_holds


@settings(max_examples=25)
@given(factor_pairs)
def test_gx_bounds_everywhere(factors):
    g, h = factors
    for kind in KINDS:
        for rep in product_reports(kind, g, h):
            assert rep.gx_holds == (rep.gx_lower <= rep.gx <= rep.gx_upper)
            if kind is ProductKind.CARTESIAN:
                assert rep.gx_holds
                assert rep.gx == rep.gx_g * rep.gx_h
            elif kind is ProductKind.STRONG:
                assert rep.gx_holds, rep.base
            else:
                # lower side is guaranteed, upper side is not
                assert rep.gx >= rep.gx_lower, rep.base


def test_lexicographic_gx_upper_bound_fails_on_paths():
    # From (a,1) in P3 lex P4 the boundary has six vertices: the far
    # column plus every layer vertex at truncated distance two.  The
    # candidate cap gx_g * n_h + gx_h evaluates to five.
    [rep] = product_reports("lexicographic", P3A, P4N, [(0, 0)])
    assert (rep.gx, rep.gx_lower, rep.gx_upper) == (6, 1, 5)
    assert not rep.gx_holds
