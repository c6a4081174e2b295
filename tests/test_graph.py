import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodom import (
    DisconnectedError,
    Graph,
    GraphError,
    ParseError,
    VertexSet,
    bfs_distances,
    boundary,
    min_gx_vertex,
    complete_graph,
    cycle_graph,
    emit_graph,
    geodetic_closure,
    interval,
    is_connected,
    is_geodetic,
    is_x_geodominating,
    parse_graph,
    path_graph,
    product,
    simplicial_vertices,
    star_graph,
)
from geodom.oracles import random_connected_graph
from helpers import (
    assert_same_graph,
    direct_boundary,
    direct_closure,
    floyd_warshall,
    geodesic_vertices_by_paths,
    raw_bfs_rows,
    reference_graph,
    reference_parse,
)
from strategies import connected_graphs, edge_documents, edge_lists


# ---------------------------------------------------------------------------
# parsing and emission


def test_parse_basic_document():
    text = "\n".join(
        [
            "# a commented header",
            "",
            "vertices: d a",
            "a b",
            "b c",
            "  c d  ",
        ]
    )
    g = parse_graph(text)
    assert g.labels == ("a", "b", "c", "d")
    assert g.edge_count == 3
    assert g.has_edge(g.index_of("c"), g.index_of("d"))


def test_parse_declared_only_vertices():
    g = parse_graph("vertices: x y z\n")
    assert g.n == 3 and g.edge_count == 0
    assert not is_connected(g)


def test_parse_duplicate_edges_collapse():
    g = parse_graph("a b\nb a\na b\n")
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("a b c\n", "line 1"),
        ("a b\nx\n", "line 2"),
        ("a a\n", "self-loop"),
        ("", "empty vertex set"),
        ("# nothing but comments\n", "empty vertex set"),
        ("a b\nb #c\n", "line 2: label '#c'"),
        ("a b\nvertices: c vertices:d\nc a\n", "line 2: label 'vertices:d'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_graph(text)


def test_emit_round_trip_fixed():
    g = parse_graph("vertices: q\na b\nb c\n")
    assert parse_graph(emit_graph(g)) == g
    assert emit_graph(g).endswith("\n")


@given(connected_graphs())
def test_emit_round_trip(g):
    assert parse_graph(emit_graph(g)) == g


# ---------------------------------------------------------------------------
# construction invariants


def test_labels_sorted_and_indexed():
    g = Graph([("zz", "aa"), ("mm", "aa")])
    assert g.labels == ("aa", "mm", "zz")
    assert g.index_of("mm") == 1
    assert g.label(2) == "zz"
    assert g.labels_of([2, 0]) == ["zz", "aa"]


def test_adjacency_sorted_and_symmetric():
    g = Graph([("c", "a"), ("c", "b"), ("a", "b")])
    for v in range(g.n):
        assert list(g.neighbors(v)) == sorted(g.neighbors(v))
        for w in g.neighbors(v):
            assert g.has_edge(w, v)
    assert g.degree(0) == 2
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize(
    "edges",
    [[("a", "a")], [("a b", "c")], [("", "c")], [("#a", "b")], [("vertices:a", "zz")]],
)
def test_construction_rejects_bad_edges(edges):
    with pytest.raises(GraphError):
        Graph(edges)


def test_construction_rejects_empty():
    with pytest.raises(GraphError, match="empty"):
        Graph()


def test_construction_rejects_bad_declared_label():
    with pytest.raises(GraphError):
        Graph([("a", "b")], vertices=["ok", "not ok"])
    for label in ("#a", "vertices:", "vertices:a"):
        with pytest.raises(GraphError):
            Graph([("a", "b")], vertices=[label])


def test_equality_ignores_input_order():
    g1 = Graph([("a", "b"), ("b", "c")])
    g2 = Graph([("c", "b"), ("b", "a")])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != Graph([("a", "b"), ("a", "c")])
    # same labels and degrees, so the same CSR offsets; other neighbours
    assert cycle_graph("abcd") != cycle_graph("abdc")


def test_index_of_unknown_label():
    g = Graph([("a", "b")])
    with pytest.raises(ValueError, match="unknown vertex"):
        g.index_of("zz")


def test_repr_mentions_size():
    assert repr(Graph([("a", "b")])) == "Graph(n=2, m=1)"


@pytest.mark.parametrize(
    "method, args",
    [
        ("has_edge", (-1, 2)),
        ("has_edge", (7, 0)),
        ("has_edge", (0, 4)),
        ("has_edge", (0, -4)),
        ("neighbors", (-1,)),
        ("neighbors", (4,)),
        ("degree", (-1,)),
        ("degree", (4,)),
        ("pair_of", (-1,)),
        ("pair_of", (16,)),
    ],
)
def test_vertex_methods_reject_out_of_range_indices(method, args):
    # a negative index must not wrap around to the last vertex
    g = path_graph(4)
    target = product("cartesian", g, g) if method == "pair_of" else g
    with pytest.raises(ValueError, match="out of range"):
        getattr(target, method)(*args)


# ---------------------------------------------------------------------------
# construction against the set-based reference


@given(edge_lists())
def test_constructor_matches_reference(case):
    edges, vertices = case
    assert_same_graph(Graph(edges, vertices=vertices), *reference_graph(edges, vertices))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12])
def test_families_match_reference(n):
    labels = [f"v{i:02d}" for i in range(n)]
    path = list(zip(labels, labels[1:]))
    assert_same_graph(path_graph(labels), *reference_graph(path, labels))
    if n >= 3:
        cycle = path + [(labels[-1], labels[0])]
        assert_same_graph(cycle_graph(labels), *reference_graph(cycle))
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    assert_same_graph(complete_graph(labels), *reference_graph(pairs, labels))
    if n >= 2:
        spokes = [(labels[0], leaf) for leaf in labels[1:]]
        assert_same_graph(star_graph(labels), *reference_graph(spokes))


@given(edge_documents())
def test_parse_matches_reference(text):
    g = parse_graph(text)
    assert_same_graph(g, *reference_parse(text))
    assert_same_graph(parse_graph(emit_graph(g)), *reference_parse(text))


# ---------------------------------------------------------------------------
# VertexSet


def test_vertex_set_of_normalizes():
    vs = VertexSet.of([3, 1, 1, 2], 5)
    assert vs.members == (1, 2, 3)
    assert list(vs) == [1, 2, 3]
    assert len(vs) == 3 and 2 in vs and 0 not in vs
    assert vs and not VertexSet.of([], 5)


@pytest.mark.parametrize("members", [(2, 1), (0, 0), (-1,), (5,)])
def test_vertex_set_validates(members):
    with pytest.raises(ValueError):
        VertexSet(members, 5)


def test_vertex_set_refuses_masks_floats_and_bools():
    # none of these is a list of indices; int() once read the mask of the
    # two ends of a-b-c-d-e as {0, 1}, and the floats as {0, 4}
    g = path_graph("abcde")
    mask = np.array([True, False, False, False, True])
    for bad in (mask, [0.9, 4.2], np.array([0.0, 4.0])):
        with pytest.raises(TypeError):
            VertexSet.of(bad, 5)
        with pytest.raises(TypeError):
            geodetic_closure(g, bad)
    for bad in ([True, 4], [False]):
        with pytest.raises(ValueError, match="bool"):
            VertexSet.of(bad, 5)
        with pytest.raises(ValueError, match="bool"):
            geodetic_closure(g, bad)
    for members in ((True,), (False, 4)):
        with pytest.raises(ValueError, match="strictly ascending indices"):
            VertexSet(members, 5)
    # numpy integers stay indices
    assert VertexSet.of(np.flatnonzero(mask), 5).members == (0, 4)
    assert VertexSet.of(np.array([3, 1], dtype=np.int32), 5).members == (1, 3)
    assert g.labels_of(geodetic_closure(g, np.flatnonzero(mask))) == list("abcde")


def test_vertex_set_issubset():
    vs = VertexSet.of([1, 3], 5)
    assert vs.issubset([0, 1, 2, 3])
    assert vs.issubset(VertexSet.of([1, 3], 5))
    assert not vs.issubset([1, 2])


def test_vertex_set_reads_only_indices():
    # int() would read 0.9 as 0 and a mask entry as 0 or 1, and `in` would
    # match True against 1; both go through the one index check
    vs = VertexSet.of([0, 1], 5)
    for bad in ([0.9, 1], np.array([True, True])):
        with pytest.raises(TypeError):
            vs.issubset(bad)
    with pytest.raises(ValueError, match="bool"):
        vs.issubset([False, True])
    assert vs.issubset(np.arange(3)) and not vs.issubset(np.array([1, 2]))
    for bad in (True, np.True_, 1.0, np.float64(1), "1", None):
        assert bad not in vs
    assert np.int64(1) in vs and 1 in vs and 2 not in vs


# ---------------------------------------------------------------------------
# distances


@given(connected_graphs())
@example(path_graph(3))
def test_bfs_rows_match_floyd_warshall(g):
    assert [list(bfs_distances(g, x)) for x in range(g.n)] == floyd_warshall(g)


def test_bfs_distances_row():
    g = path_graph(["a", "b", "c", "d"])
    row = bfs_distances(g, 0)
    # a tuple of ints: read-only, and no numpy
    assert row == (0, 1, 2, 3) and all(type(d) is int for d in row)
    with pytest.raises(ValueError, match="out of range"):
        bfs_distances(g, 9)


def test_disconnected_raises():
    g = parse_graph("vertices: z\na b\n")
    assert not is_connected(g)
    with pytest.raises(DisconnectedError):
        bfs_distances(g, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: boundary(g, 0),
        lambda g: is_x_geodominating(g, 0, [1]),
        lambda g: interval(g, 0, 1),
        lambda g: geodetic_closure(g, [0, 1, 2]),
        lambda g: is_geodetic(g, [0, 1, 2]),
    ],
    ids=["boundary", "is_x_geodominating", "interval", "geodetic_closure", "is_geodetic"],
)
def test_row_source_none_checks_connectivity(call):
    # the closure seeds are the whole vertex set, so no sweep is needed to
    # cover it, yet the disconnection must still be reported
    g = parse_graph("vertices: z\na b\n")
    with pytest.raises(DisconnectedError):
        call(g)


def test_cycle_distances():
    g = cycle_graph(6)
    assert bfs_distances(g, 0) == (0, 1, 2, 3, 2, 1)


# ---------------------------------------------------------------------------
# intervals and closures


@settings(max_examples=60)
@given(connected_graphs(max_n=6), st.data())
def test_interval_matches_path_enumeration(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    assert set(interval(g, u, v)) == geodesic_vertices_by_paths(g, u, v)


def test_interval_examples():
    p4 = path_graph(["a", "b", "c", "d"])
    assert list(interval(p4, 0, 3)) == [0, 1, 2, 3]
    c5 = cycle_graph(5)
    assert list(interval(c5, 0, 2)) == [0, 1, 2]
    c6 = cycle_graph(6)
    # antipodal pair: both arcs are geodesics
    assert len(interval(c6, 0, 3)) == 6


def test_interval_validates_inputs():
    g = path_graph(4)
    with pytest.raises(ValueError):
        interval(g, 0, 9)
    with pytest.raises(ValueError, match="out of range"):
        interval(g, 9, 0)


def test_closure_rejects_empty():
    g = path_graph(3)
    with pytest.raises(ValueError, match="empty"):
        geodetic_closure(g, [])


@given(connected_graphs(), st.data())
def test_closure_contains_seed_and_is_monotone(g, data):
    small = data.draw(st.frozensets(st.integers(0, g.n - 1), min_size=1))
    extra = data.draw(st.frozensets(st.integers(0, g.n - 1)))
    c_small = set(geodetic_closure(g, small))
    c_big = set(geodetic_closure(g, small | extra))
    assert small <= c_small
    assert c_small <= c_big


@given(connected_graphs(), st.data())
def test_closure_matches_direct_computation(g, data):
    dist = floyd_warshall(g)
    members = set(data.draw(st.frozensets(st.integers(0, g.n - 1), min_size=1)))
    if data.draw(st.booleans()):
        # x with its boundary covers the graph from x, so the sweep stops early
        x = data.draw(st.integers(0, g.n - 1))
        members |= {x} | direct_boundary(g, dist, x)
    assert set(geodetic_closure(g, members)) == direct_closure(dist, members, g.n)


# ---------------------------------------------------------------------------
# the first source's row, then the bit-parallel BFS in batches or rows


@pytest.fixture(scope="module", params=[63, 64, 65, 129])
def word_graph(request):
    n = request.param
    g = random_connected_graph(n, edge_probability=3 / n, seed=n)
    return g, floyd_warshall(g)


def _swapped(g, a, b):
    """g with the edges of vertices a and b exchanged (labels unchanged)."""
    swap = {a: b, b: a}
    lab = g.labels
    edges = [(lab[swap.get(u, u)], lab[swap.get(v, v)]) for u, v in g.edges()]
    return Graph(edges, vertices=lab)


def test_gx_of_batch_counts_the_boundary_flags_of_the_rows(word_graph):
    # each source of one walk gets the count of its own row's boundary
    # flags, whether the batch runs ascending, reversed or middle first
    g, _ = word_graph
    graph = sys.modules["geodom.graph"]
    middle = g.n // 2
    for batch in (
        list(range(g.n)),
        list(reversed(range(g.n))),
        [middle, *range(middle), *range(middle + 1, g.n)],
    ):
        want = [graph._bfs_row(g._adjacency, s)[1].count(1) for s in batch]
        assert graph._gx_of_batch(g, batch) == want


def test_min_gx_vertex_across_words(word_graph):
    g, dist = word_graph
    sizes = [len(direct_boundary(g, dist, x)) for x in range(g.n)]
    best = min(sizes)
    assert min_gx_vertex(g) == (sizes.index(best), best)
    # move a minimiser to the first row, to each side of its end and across
    # the batch after it
    x = sizes.index(best)
    for t in sorted({0, 1, 2, 62, 63, 64, 65, 127, 128} & set(range(g.n))):
        moved = sizes.copy()
        moved[x], moved[t] = moved[t], moved[x]
        assert min_gx_vertex(_swapped(g, x, t)) == (moved.index(best), best), t


def test_closure_across_words(word_graph):
    g, dist = word_graph
    for size in sorted({63, 64, 65, g.n} & set(range(g.n + 1))):
        members = random.Random(size).sample(range(g.n), size)
        got = set(geodetic_closure(g, members))
        assert got == direct_closure(dist, members, g.n), size


def test_closure_second_word_adds_coverage():
    # a star on v000..v063 hangs off h = v064, which joins a = v065 and
    # b = v066; w = v067 is a second a-b geodesic. Every geodesic from the
    # star's members to a member stops before w, so only the bits of
    # sources a and b cover it, in the batch after the first row (from the
    # centre v000).
    star = [(0, i) for i in range(1, 64)]
    edges = [*star, (0, 64), (64, 65), (64, 66), (65, 67), (66, 67)]
    g = Graph((f"v{u:03d}", f"v{v:03d}") for u, v in edges)
    members = [*range(64), 65, 66]
    assert set(geodetic_closure(g, members)) == direct_closure(floyd_warshall(g), members, g.n)
    assert len(geodetic_closure(g, members)) == g.n
    assert 67 not in geodetic_closure(g, range(64))


@settings(max_examples=20, deadline=None)
@given(st.integers(66, 150), st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16))
@example(100, 7, 40, 20)
def test_schedule_gives_each_source_its_gx_on_words_and_rows(n, seed, gap, size):
    # a shuffled source list with a gap, longer than one word: each source
    # gets its own gx in the order given, on the level words after the
    # first source's row and, with no level budget, on one row each
    g = random_connected_graph(n, edge_probability=3 / n, seed=seed)
    gap = 1 + gap % (n - 2)
    size = 65 + size % (n - 65)
    sources = random.Random(seed).sample([v for v in range(n) if v != gap], size)
    dist = raw_bfs_rows([g.neighbors(v) for v in range(n)])
    want = [len(direct_boundary(g, dist, x)) for x in sources]
    graph = sys.modules["geodom.graph"]
    gx_of_sources = graph._gx_of_sources
    rows = []
    real_row = graph._bfs_row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_bfs_row", lambda lists, u: rows.append(u) or real_row(lists, u))
        # the first row is shallower than the budget, so the rest walk
        assert gx_of_sources(g, sources) == want
        assert rows == sources[:1]
        rows.clear()
        mp.setattr(graph, "_word_budget", lambda g: 0)
        assert gx_of_sources(g, sources) == want
        assert rows == sources


def test_word_budget_picks_words_or_rows(word_graph, monkeypatch):
    # rows counts the BFS rows by source, builds the adjacency builds, and
    # walks the sources of each batch the word walk takes: once a graph is
    # built, no call builds an adjacency again
    rows, builds, walks = [], [], []
    graph = sys.modules["geodom.graph"]
    real_row, real_build, real_walk = graph._bfs_row, Graph._build, graph._gx_of_batch
    monkeypatch.setattr(graph, "_bfs_row", lambda adj, u: rows.append(u) or real_row(adj, u))
    monkeypatch.setattr(Graph, "_build", lambda g, *a: builds.append(g) or real_build(g, *a))
    monkeypatch.setattr(
        graph, "_gx_of_batch", lambda g, batch: walks.append(list(batch)) or real_walk(g, batch)
    )
    # on a shallow graph the first source takes a row and the rest walk in
    # one batch, since n x n bits are far below the memory constant
    g, dist = word_graph
    sizes = [len(direct_boundary(g, dist, x)) for x in range(g.n)]
    assert min_gx_vertex(g) == (sizes.index(min(sizes)), min(sizes))
    assert rows == [0] and walks == [list(range(1, g.n))]
    # the closure never walks: a closure of two members takes the first
    # one's row, and the first row of the closure of every vertex covers
    # the graph
    rows.clear()
    walks.clear()
    ends = [0, g.n - 1]
    assert set(geodetic_closure(g, ends)) == direct_closure(dist, ends, g.n)
    assert rows == [0] and walks == []
    rows.clear()
    assert len(geodetic_closure(g, range(g.n))) == g.n
    assert rows == [0] and builds == walks == []
    # a path of 150 is deeper from its first vertex, 149 levels, than gx
    # (64 x 299 / 150 = 127 levels) may walk, so every source takes its
    # own row, each from the stored tuples, and nothing walks. The members'
    # closure misses the path's ends, so each member but the last takes a
    # row
    p = path_graph(150)
    builds.clear()
    rows.clear()
    assert min_gx_vertex(p) == (0, 1)
    assert rows == list(range(150)) and walks == []
    rows.clear()
    members = list(range(5, 140, 2))
    assert set(geodetic_closure(p, members)) == set(range(5, 140))
    assert rows == members[:-1] and builds == walks == []
    # on a 12 x 12 grid the first row, from corner to corner, covers the
    # grid; from the corner to two members on its sides it does not, and
    # the member after it takes a row too
    grid = Graph(
        (f"g{i:02d}{j:02d}", f"g{i + di:02d}{j + dj:02d}")
        for i in range(12)
        for j in range(12)
        for di, dj in ((0, 1), (1, 0))
        if i + di < 12 and j + dj < 12
    )
    rows.clear()
    builds.clear()
    grid_members = [*range(0, 144, 2), 143]
    assert len(geodetic_closure(grid, grid_members)) == 144
    assert rows == [0] and builds == walks == []
    rows.clear()
    sides = [0, 5, 60]
    assert set(geodetic_closure(grid, sides)) == direct_closure(floyd_warshall(grid), sides, 144)
    assert rows == sides[:-1] and walks == []


@pytest.mark.parametrize("n, on_rows", [(127, False), (128, True)])
def test_first_row_at_the_budget_puts_every_source_on_rows(n, on_rows, monkeypatch):
    # the first source of a path of n, an end, is n - 1 levels deep, and
    # the budget is 64 x (2n - 1) // n = 127 levels: on a path of 127 the
    # other sources walk, and on a path of 128 every source takes a row
    rows, walks = [], []
    graph = sys.modules["geodom.graph"]
    real_row, real_walk = graph._bfs_row, graph._gx_of_batch
    monkeypatch.setattr(graph, "_bfs_row", lambda adj, u: rows.append(u) or real_row(adj, u))
    monkeypatch.setattr(
        graph, "_gx_of_batch", lambda g, batch: walks.append(list(batch)) or real_walk(g, batch)
    )
    p = path_graph(n)
    assert graph._word_budget(p) == 127
    assert graph._gx_of_sources(p, range(n)) == [1, *[2] * (n - 2), 1]
    assert rows == (list(range(n)) if on_rows else [0])
    assert walks == ([] if on_rows else [list(range(1, n))])


def test_middle_first_walks_the_deeper_ends(monkeypatch):
    # the middle vertex 63 of a path of 128 is 64 levels deep, below the
    # budget of 127, so the other sources walk in one batch, down to the
    # ends, which are 127 levels deep: 128 levels, within twice the first
    # row's depth and one. Their gx match one row each, and the ends' gx
    # of 1 needs the walk's last level, where only the far end lies
    graph = sys.modules["geodom.graph"]
    rows, walks = [], []
    real_row, real_walk = graph._bfs_row, graph._gx_of_batch
    monkeypatch.setattr(graph, "_bfs_row", lambda adj, u: rows.append(u) or real_row(adj, u))
    monkeypatch.setattr(
        graph, "_gx_of_batch", lambda g, batch: walks.append(list(batch)) or real_walk(g, batch)
    )
    p = path_graph(128)
    order = [63, *range(63), *range(64, 128)]
    want = [1 if v in (0, 127) else 2 for v in order]
    assert graph._gx_of_sources(p, order) == want
    assert rows == [63] and walks == [order[1:]]
    rows.clear()
    monkeypatch.setattr(graph, "_word_budget", lambda g: 0)
    assert graph._gx_of_sources(p, order) == want
    assert rows == order and walks == [order[1:]]


def test_batch_width_comes_from_n_and_the_memory_constant(monkeypatch):
    # a batch of the gx pass, whose step holds four n-entry lists of ints,
    # takes _WALK_BITS // (4 x n) sources, at least 64 and at most n
    graph = sys.modules["geodom.graph"]
    assert graph._WALK_BITS == 4 * 10**8
    widths = [graph._batch_width(n) for n in (1, 63, 2000, 10000, 10001, 100000, 10**6, 10**7)]
    assert widths == [1, 63, 2000, 10000, 9999, 1000, 100, 64]
    # with a smaller constant, the 149 sources after the first row of a
    # 150-vertex graph go in batches of the constant // (4 x 150), and of
    # 64 when that is fewer
    g = random_connected_graph(150, edge_probability=3 / 150, seed=150)
    want = graph._gx_of_sources(g, range(150))
    walks = []
    real_walk = graph._gx_of_batch
    monkeypatch.setattr(
        graph, "_gx_of_batch", lambda g, batch: walks.append(len(batch)) or real_walk(g, batch)
    )
    for width, batches in ((150, [149]), (40, [64, 64, 21]), (80, [80, 69])):
        monkeypatch.setattr(graph, "_WALK_BITS", 4 * 150 * width)
        walks.clear()
        assert graph._gx_of_sources(g, range(150)) == want
        assert walks == batches, width


@given(connected_graphs(), st.lists(st.integers(0, 2**16), min_size=1, max_size=8))
@example(path_graph(3), [1])
@example(path_graph(5), [1, 3])
@example(cycle_graph(6), [0, 1, 3])
def test_closure_on_rows_matches_direct_computation(g, picks):
    # I[u, v] = I[v, u], so member k of the ascending members takes one BFS
    # row and covers the intervals from it to members k onward; the last
    # member takes no row unless it is the only one, the rows stop once the
    # union covers every vertex, and nothing walks level words
    members = sorted({p % g.n for p in picks})
    dist = floyd_warshall(g)
    want_rows, covered = [], set()
    for k, u in enumerate(members[:-1] or members):
        want_rows.append(u)
        covered |= {
            w for w in range(g.n) for v in members[k:] if dist[u][w] + dist[w][v] == dist[u][v]
        }
        if len(covered) == g.n:
            break
    graph = sys.modules["geodom.graph"]
    rows, real_row = [], graph._bfs_row

    def no_walk(*args):
        raise AssertionError("the closure runs on BFS rows")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_bfs_row", lambda adj, u: rows.append(u) or real_row(adj, u))
        mp.setattr(graph, "_gx_of_batch", no_walk)
        got = set(geodetic_closure(g, members))
    assert got == covered == direct_closure(dist, members, g.n)
    assert rows == want_rows

DISCONNECTED = {
    "isolated-last": "vertices: z\na b\nb c\n",
    "isolated-inner": "vertices: b\na c\nc d\n",
    "two-components": "a b\nb c\nd e\n",
    "components-past-a-word": "".join(
        f"{side}{i:02d} {side}{i + 1:02d}\n" for side in "pq" for i in range(39)
    ),
}


@pytest.mark.parametrize("text", DISCONNECTED.values(), ids=DISCONNECTED.keys())
@pytest.mark.parametrize(
    "call",
    [
        min_gx_vertex,
        lambda g: geodetic_closure(g, [0]),
        lambda g: geodetic_closure(g, range(g.n)),
    ],
    ids=["min_gx_vertex", "closure-of-one", "closure-of-all"],
)
def test_bit_parallel_paths_reject_disconnected(call, text):
    with pytest.raises(DisconnectedError):
        call(parse_graph(text))


def test_geodetic_families():
    p5 = path_graph(5)
    assert is_geodetic(p5, [0, 4])
    assert not is_geodetic(p5, [0])
    k4 = complete_graph(4)
    # complete graph: intervals are just the endpoint pairs
    assert not is_geodetic(k4, [0, 1, 2])
    assert is_geodetic(k4, range(4))
    k1 = Graph(vertices=["a"])
    assert list(geodetic_closure(k1, [0])) == [0]
    assert is_geodetic(k1, [0])


# ---------------------------------------------------------------------------
# simplicial vertices


def test_simplicial_families():
    assert list(simplicial_vertices(path_graph(5))) == [0, 4]
    assert list(simplicial_vertices(cycle_graph(5))) == []
    assert list(simplicial_vertices(complete_graph(4))) == [0, 1, 2, 3]
    star = star_graph(["hub", "l1", "l2", "l3"])
    assert star.labels_of(simplicial_vertices(star)) == ["l1", "l2", "l3"]


def test_simplicial_triangle_counts_all():
    assert len(simplicial_vertices(cycle_graph(3))) == 3


# ---------------------------------------------------------------------------
# families


def test_family_sizes():
    assert (path_graph(5).n, path_graph(5).edge_count) == (5, 4)
    assert (cycle_graph(5).n, cycle_graph(5).edge_count) == (5, 5)
    assert (complete_graph(5).n, complete_graph(5).edge_count) == (5, 10)
    assert (star_graph(5).n, star_graph(5).edge_count) == (5, 4)


def test_generated_labels_sort_naturally():
    g = path_graph(12)
    assert g.labels[0] == "v00" and g.labels[11] == "v11"
    assert bfs_distances(g, 0)[11] == 11


def test_star_center_is_first_label():
    g = star_graph(["mid", "a", "b"])
    assert g.degree(g.index_of("mid")) == 2


@pytest.mark.parametrize(
    "family, arg",
    [(path_graph, 0), (cycle_graph, 2), (star_graph, 1), (complete_graph, [])],
)
def test_family_argument_validation(family, arg):
    with pytest.raises(ValueError):
        family(arg)
