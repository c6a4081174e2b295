import sys
from itertools import chain, permutations

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
    enumerate_connected_graphs,
    parse_graph,
    path_graph,
    product,
    product_distance,
    product_reports,
)
from geodom import cli, products
from helpers import (
    assert_same_graph,
    cells,
    direct_boundary,
    floyd_warshall,
    loop_product,
    loop_product_reports,
    pair_labels,
)
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


def test_bracket_labels_make_distinct_pairs():
    # comma-free factor labels name each pair once, even with brackets in them
    g = Graph([("(a", "a)"), ("a)", "(b")])
    h = Graph([("x(", "y"), ("y", ")z")])
    for kind in KINDS:
        pg = product(kind, g, h)
        assert pg.graph.n == g.n * h.n
        for v, (a, b) in enumerate(pg.factor_pairs):
            assert pg.index_of_pair(a, b) == v
    for a in range(g.n):
        for b in range(h.n):
            label = products.pair_label(g.labels[a], h.labels[b])
            assert cli._parse_base(label, g, h) == (a, b)


def test_kind_normalization():
    by_kind = product(ProductKind.CARTESIAN, P3A, P3N)
    by_name = product("cartesian", P3A, P3N)
    assert by_kind.graph == by_name.graph
    assert by_kind.factor_pairs == by_name.factor_pairs
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
    assert product_distance("cartesian", a3, n3)[2][2] == 4
    assert product_distance("strong", a3, n4)[2][2] == 2
    p2 = path_graph(["a", "b"])
    assert product_distance("lexicographic", bfs_distances(p2, 0), n4)[0][3] == 2
    # with one layer, the layer metric is H's own
    assert product_distance("lexicographic", [0], n4) == [[0, 1, 2, 3]]


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
        for p in range(pg.graph.n):
            x, y = pg.pair_of(p)
            got = product_distance(kind, bfs_distances(g, x), bfs_distances(h, y))
            # entry [a][b] is the distance to the product vertex (a, b)
            row = [got[a][b] for a, b in pg.factor_pairs]
            assert tuple(row) == bfs_distances(pg.graph, p), (kind, (x, y))


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
    assert cells(rep.lower, 3) == cells(rep.upper, 3) == cells(rep.actual, 3)
    assert rep.containments_hold and not rep.upper_strict


@settings(max_examples=25)
@given(factor_pairs)
def test_cartesian_equality_everywhere(factors):
    g, h = factors
    for rep in product_reports("cartesian", g, h):
        assert rep.containments_hold
        assert cells(rep.lower, h.n) == cells(rep.upper, h.n) == cells(rep.actual, h.n)


@settings(max_examples=25)
@given(factor_pairs)
def test_strong_sandwich_everywhere(factors):
    g, h = factors
    for rep in product_reports("strong", g, h):
        assert rep.containments_hold, rep.base
        assert rep.witnesses is None
        lower, actual, upper = cells(rep.lower, h.n), cells(rep.actual, h.n), cells(rep.upper, h.n)
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
        lower, actual, upper = cells(rep.lower, h.n), cells(rep.actual, h.n), cells(rep.upper, h.n)
        assert lower <= actual, rep.base
        assert rep.containments_hold == (actual <= upper)
        if rep.containments_hold:
            assert rep.witnesses is None
            assert rep.upper_strict == (actual < upper)
        else:
            assert cells(rep.witnesses, h.n) == actual - upper
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
    assert cells(rep.lower, tree.n) <= cells(rep.actual, tree.n)
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
    # a caller has started writing its output: each error comes from the
    # call itself, before any next()
    broken = parse_graph("vertices: z\na b\n")
    solo = Graph(vertices=["s"])
    with pytest.raises(DisconnectedError, match="disconnected factor"):
        product_reports("cartesian", P3A, broken)
    with pytest.raises(ValueError, match="two vertices"):
        product_reports("strong", solo, P3A)
    with pytest.raises(ValueError, match="first-factor index 3 out of range"):
        product_reports("strong", P3A, P3N, [(0, 0), (3, 0)])
    with pytest.raises(ValueError, match="unknown product kind"):
        product_reports("tensor", P3A, P3N)
    # checked inputs give an iterator of the reports
    reports = product_reports("strong", P3A, P3N, [(0, 0), (2, 2)])
    assert iter(reports) is reports
    assert [rep.base for rep in reports] == [(0, 0), (2, 2)]


def test_stream_makes_one_report_at_a_time(monkeypatch):
    # the stream computes each report's masks as it is asked for the
    # report, so a caller that writes and drops each one holds one report
    made = []
    kernel = products._boundary_masks
    monkeypatch.setattr(
        products, "_boundary_masks", lambda *args: made.append(args[1]) or kernel(*args)
    )
    for k, rep in enumerate(product_reports("strong", P4N, P3A)):
        assert len(made) == k + 1 and made[-1] == rep.base[0]
    assert made == [x for x in range(4) for _ in range(3)]


def test_stream_yields_every_base_in_request_order():
    # one report per requested base, repeats included, each equal to the
    # report of the same base made alone
    bases = [(2, 1), (2, 0), (0, 3), (2, 1)]
    reps = list(product_reports("lexicographic", P3A, P4N, bases))
    assert [rep.base for rep in reps] == bases
    for rep in reps:
        [alone] = product_reports("lexicographic", P3A, P4N, [rep.base])
        assert (rep.actual, rep.lower, rep.upper) == (alone.actual, alone.lower, alone.upper)


@pytest.mark.parametrize("bases", [None, [(2, 1), (0, 3), (2, 1)]])
def test_reports_build_no_adjacency(monkeypatch, bases):
    # the factors' rows and boundaries come from the neighbour tuples each
    # factor stored when it was built: no call builds an adjacency or runs
    # the word walk, whatever the bases
    g, h = path_graph(["a", "b", "c"]), path_graph(["1", "2", "3", "4"])

    def no_build(*args):
        raise AssertionError("product reports must read the stored neighbour tuples")

    monkeypatch.setattr(Graph, "_build", no_build)
    monkeypatch.setattr(sys.modules["geodom.graph"], "_gx_of_batch", no_build)
    for kind in KINDS:
        assert [rep.base for rep in product_reports(kind, g, h, bases)] == (
            bases or [(x, y) for x in range(3) for y in range(4)]
        )


def test_reports_follow_the_given_bases():
    every = tuple(product_reports("lexicographic", P3A, P4N))
    assert [rep.base for rep in every] == [(x, y) for x in range(3) for y in range(4)]
    picked = tuple(product_reports("lexicographic", P3A, P4N, [(2, 1), (0, 3), (2, 1)]))
    assert [rep.base for rep in picked] == [(2, 1), (0, 3), (2, 1)]
    for rep in picked:
        twin = every[rep.base[0] * 4 + rep.base[1]]
        assert rep.actual == twin.actual
        assert (rep.gx, rep.gx_lower, rep.gx_upper) == (twin.gx, twin.gx_lower, twin.gx_upper)


@settings(max_examples=40)
@given(factor_pairs, st.data())
def test_reports_match_bfs_on_built_product(factors, data):
    # the int kernel against the definition: each report's mask is the
    # boundary from BFS on the product itself, read through index_of_pair,
    # for every base and for drawn bases with repeats
    g, h = factors
    pick = st.tuples(st.integers(0, g.n - 1), st.integers(0, h.n - 1))
    picked = data.draw(st.lists(pick, min_size=1, max_size=6))
    picked += data.draw(st.lists(st.sampled_from(picked), min_size=1, max_size=3))
    for kind in KINDS:
        pg = product(kind, g, h)
        for bases in (None, picked):
            for rep in product_reports(kind, g, h, bases):
                expected = set(boundary(pg.graph, pg.index_of_pair(*rep.base)))
                mask = sum(
                    1 << (a * h.n + b)
                    for a in range(g.n)
                    for b in range(h.n)
                    if pg.index_of_pair(a, b) in expected
                )
                assert rep.actual == mask, (kind, rep.base)
                assert rep.gx == len(expected)


def _factor_classes(n):
    """One connected graph on n vertices per isomorphism class: the first
    one of ``enumerate_connected_graphs(n)`` with each least relabelled
    edge list."""
    classes = {}
    for g in enumerate_connected_graphs(n):
        edges = list(g.edges())
        key = min(
            sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges)
            for p in permutations(range(n))
        )
        classes.setdefault(tuple(key), g)
    return list(classes.values())


def test_every_factor_class_on_at_most_five_vertices():
    # every ordered pair of the 30 connected factor classes on 2 to 5
    # vertices, every kind and every base: each report's boundary is BFS
    # on the built product, cartesian and strong keep their bounds, and
    # every lexicographic base fails exactly as criterion 6 predicts
    classes = {n: _factor_classes(n) for n in range(2, 6)}
    assert {n: len(c) for n, c in classes.items()} == {2: 1, 3: 2, 4: 6, 5: 21}
    factors = []
    for g in chain.from_iterable(classes.values()):
        dist = floyd_warshall(g)
        factors.append((g, dist, [direct_boundary(g, dist, x) for x in range(g.n)]))
    reports, mismatches, unpredicted = 0, [], []
    contain_bad, gx_bad = dict.fromkeys(KINDS, 0), dict.fromkeys(KINDS, 0)
    for g, _, bg in factors:
        for h, dist_h, bh in factors:
            for kind in KINDS:
                pg = product(kind, g, h)
                cell = [a * h.n + b for a, b in pg.factor_pairs]
                for rep in product_reports(kind, g, h):
                    reports += 1
                    bfs = boundary(pg.graph, pg.index_of_pair(*rep.base))
                    got = {a * h.n + b for a, b in cells(rep.actual, h.n)}
                    if got != {cell[p] for p in bfs} or rep.gx != len(bfs):
                        mismatches.append((list(g.edges()), list(h.edges()), kind, rep.base))
                    contain_bad[kind] += not rep.containments_hold
                    gx_bad[kind] += not rep.gx_holds
                    if kind is not ProductKind.LEXICOGRAPHIC:
                        continue
                    # the candidate misses exactly the base-layer vertices at
                    # layer distance two whose second coordinate is interior,
                    # and the gx cap gx_g * n_H + gx_h fails exactly when exceeded
                    x, y = rep.base
                    predicted = {
                        (x, b) for b in range(h.n) if dist_h[y][b] >= 2 and b not in bh[y]
                    }
                    witnesses = set() if rep.witnesses is None else cells(rep.witnesses, h.n)
                    if not (
                        witnesses == predicted
                        and rep.containments_hold == (not predicted)
                        and cells(rep.lower, h.n) <= cells(rep.actual, h.n)
                        and rep.gx_lower <= rep.gx
                        and rep.gx_holds == (rep.gx <= len(bg[x]) * h.n + len(bh[y]))
                    ):
                        unpredicted.append((list(g.edges()), list(h.edges()), rep.base))
    assert reports == 3 * 137**2 == 56307
    assert mismatches == [] and unpredicted == []
    lex = ProductKind.LEXICOGRAPHIC
    assert contain_bad == {**dict.fromkeys(KINDS, 0), lex: 2466}
    assert gx_bad == {**dict.fromkeys(KINDS, 0), lex: 1224}


def _assert_same_reports(got, want):
    assert len(got) == len(want)
    for rep, twin in zip(got, want):
        for field in rep._fields:
            value, expected = getattr(rep, field), getattr(twin, field)
            assert type(value) is type(expected), (rep.base, field)
            assert value == expected, (rep.base, field)


@settings(max_examples=40)
@given(factor_pairs, st.data())
def test_reports_match_the_per_base_loop(factors, data):
    # the big-int kernel against one closed form per base on boolean arrays
    g, h = factors
    pick = st.tuples(st.integers(0, g.n - 1), st.integers(0, h.n - 1))
    picked = data.draw(st.lists(pick, max_size=8))
    repeated = [(g.n - 1, h.n - 1), (0, h.n - 1), (0, 0), (g.n - 1, h.n - 1)]
    for kind in KINDS:
        for bases in (None, picked, repeated):
            got = tuple(product_reports(kind, g, h, bases))
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
