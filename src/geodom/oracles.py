"""Brute-force ground truth, independent of the closed-form boundary route.

Sets here are Python ints, most in *lanes*: one bit per case, so one int
holds one fact for many cases. Item i of k items is bit k - 1 - i, so
descending lanes of one popcount run in combinations order.

The searches of one graph run on candidate-set lanes: lane t of a
2^k-bit int is the set of candidates that t holds. The sets that leave a
vertex uncovered are the subsets of the candidates whose interval
misses it (``_subset_lanes``), the covers are the lanes left over, and
the least popcount among them is the minimum (``_least``). Intervals come
from the distances by their definition, sharing no logic with
boundary(). The exhaustive stages run on graph lanes: bit g of an edge
int is edge mask g, a slice of 2^16 masks at a time, each built
(``_slice``) only when the scan (``_scan``) reaches it, and
``_in_key_order`` lists picked masks in (edge count, combinations rank)
order over all slices. The counterexample search scans only the slices
where a's pairs run ones, then zeros, listed by ``_hub_highs``: its test
is the same for every relabelling of a graph, and a relabelling class's
first key lies in such a slice. One bit-parallel BFS (``_levels``)
serves both, its lanes a graph's sources or a slice's graphs, and the
theorem sweep checks the minimum against a boundary rule of its own
(``_boundary_lanes``), which the tests tie to graph.py's. Nothing here
calls the BFS, geodesic or simplicial code of graph.py that the searches
certify. Each function checks its inputs before any work, even when no
graph is drawn. The searches take a cap of 20 by default and refuse any
cap over it, which is also the theorem sweep's cap.
"""

from __future__ import annotations

import heapq
import random
from functools import cache, partial, reduce
from itertools import combinations
from operator import and_, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph import DisconnectedError, Graph, VertexSet, _check_vertex, _family_labels

__all__ = [
    "VerificationReport",
    "min_x_geodominating_bruteforce",
    "geodetic_number_bruteforce",
    "enumerate_connected_graphs",
    "random_connected_graph",
    "random_graph_corpus",
    "find_simplicial_counterexample",
    "verify_unique_minimum",
]

_ENUM_LABELS = "abcdefgh"
# the most vertices that the enumeration and the theorem sweep's
# exhaustive stage cover
_EXHAUSTIVE_MAX_N = 7
# the largest cap either search takes, and its default, and the theorem
# sweep's cap; each vertex doubles the width of a search's lane ints
# (128 KB at n = 20), so a cap of 30 would take gigabytes
_CAP_LIMIT = 20
# low edge-mask bits per slice of graph lanes: 2^16 lanes, 8 KB per int
_SLICE_BITS = 16

# an adjacency in lanes: adj[v] lists (w, the lanes where v and w are adjacent)
Adjacency = Sequence[Sequence[tuple[int, int]]]


# ---------------------------------------------------------------------------
# lanes


@cache
def _clear_patterns(width: int) -> tuple[int, ...]:
    """clear[b]: the lanes t < 2^width without bit b."""
    return tuple(_subset_lanes(((1 << width) - 1) ^ 1 << b) for b in range(width))


@cache
def _size_patterns(width: int) -> tuple[int, ...]:
    """sizes[k]: the lanes t < 2^width of popcount k; below 2^(b+1), those
    below 2^b of popcount k and those of k - 1 shifted up by 2^b."""
    sizes = [1]
    for b in range(width):
        sizes = [low | high << (1 << b) for low, high in zip([*sizes, 0], [0, *sizes])]
    return tuple(sizes)


def _subset_lanes(bits: int) -> int:
    """The lanes of every subset of bits, by doubling over its set bits:
    the lanes so far, shifted by the bit's period, are those with it."""
    lanes, b = 1, 0
    while bits >> b:
        if bits >> b & 1:
            lanes |= lanes << (1 << b)
        b += 1
    return lanes


def _least(lanes: int, sizes: Sequence[int]) -> tuple[int, int]:
    """(k, hits): the least popcount k among lanes, and the lanes of it."""
    return next((k, lanes & size) for k, size in enumerate(sizes) if lanes & size)


def _lanes_of(bits: int) -> Iterator[int]:
    """The set lanes of bits, highest first."""
    while bits:
        top = bits.bit_length() - 1
        yield top
        bits ^= 1 << top


def _members(lane: int, items: Sequence) -> tuple:
    """The items of lane, where item i is bit len(items) - 1 - i."""
    top = len(items) - 1
    return tuple(item for i, item in enumerate(items) if lane >> (top - i) & 1)


# ---------------------------------------------------------------------------
# BFS and rules in lanes


def _edge_lanes(g: Graph, lanes: int) -> list[list[tuple[int, int]]]:
    """g's edges in every one of lanes, from ``g.neighbors(v)``."""
    return [[(w, lanes) for w in g.neighbors(v)] for v in range(g.n)]


def _neighbourhood(adj: Adjacency, sets: Sequence[int]) -> list[int]:
    """out[v]: the lanes in which v has a neighbour w in sets[w]."""
    return [reduce(or_, [lanes & sets[w] for w, lanes in nbrs], 0) for nbrs in adj]


def _levels(adj: Adjacency, start: list[int]) -> list[list[int]]:
    """Bit-frontier BFS in every lane at once: start[v] holds the lanes
    whose source is v, and levels[j][v] the lanes in which v lies at
    distance j from the source, to the last level of any lane: at most
    the n levels of a path from its end."""
    levels, seen = [start], start
    for _ in range(len(adj) - 1):
        frontier = [reach & ~s for reach, s in zip(_neighbourhood(adj, levels[-1]), seen)]
        if not any(frontier):
            break
        seen = [s | f for s, f in zip(seen, frontier)]
        levels.append(frontier)
    return levels


def _sourced(n: int, z: int, lanes: int) -> list[int]:
    """A BFS start with source z in every one of lanes."""
    return [lanes if v == z else 0 for v in range(n)]


def _connected_lanes(adj: Adjacency, lanes: int) -> int:
    """Those of lanes in which every vertex lies at some distance from 0."""
    reached = [reduce(or_, column) for column in zip(*_levels(adj, _sourced(len(adj), 0, lanes)))]
    return reduce(and_, reached)


def _boundary_lanes(adj: Adjacency, levels: Sequence[Sequence[int]]) -> list[int]:
    """inside[v]: the lanes in which v has no neighbour farther from the
    source than v, the boundary by its definition, from levels[j][v], the
    lanes in which v lies at distance j (of ``_levels`` or any distances)."""
    n = len(adj)
    inside, beyond = [0] * n, [0] * n  # beyond: the lanes past the level
    for level in reversed(levels):
        farther = _neighbourhood(adj, beyond)
        inside = [i | (at & ~f) for i, at, f in zip(inside, level, farther)]
        beyond = [b | at for b, at in zip(beyond, level)]
    return inside


def _geodesic_cover(adj: Adjacency, levels: list[list[int]], targets: list[int]) -> list[int]:
    """covered[v]: the lanes in which v lies on a geodesic from the source
    to a vertex w in targets[w]. Back up the levels, U_j = L_j & (targets |
    N(U_{j+1})) holds the level-j vertices on such a geodesic."""
    up = covered = [0] * len(adj)
    for level in reversed(levels):
        near = _neighbourhood(adj, up)
        up = [at & (t | r) for at, t, r in zip(level, targets, near)]
        covered = [c | u for c, u in zip(covered, up)]
    return covered


def _at_least(sets: Sequence[int], lanes: int, most: int) -> list[int]:
    """at[k]: those of lanes that lie in at least k of sets, k <= most."""
    at = [lanes] + [0] * most
    for s in sets:
        for k in range(most, 0, -1):
            at[k] |= at[k - 1] & s
    return at


# ---------------------------------------------------------------------------
# brute-force searches


def min_x_geodominating_bruteforce(
    g: Graph, x: int, *, cap: int = _CAP_LIMIT
) -> tuple[VertexSet, ...]:
    """Every minimum x-geodominating set, all of one size, in combinations
    order, by exhaustive search over every candidate set
    (``_min_x_search``), whose 2^(n-1) lanes the cap bounds; the cap
    is 20 by default, the most it takes.

    The cap is checked before anything else. The distances come from the
    oracle stage's own BFS, not from the rows of graph.py that boundary()
    reads. Candidates exclude x itself: x is covered by any nonempty set
    (it ends every geodesic from x) and contributes only I[x,x] = {x}, so
    adding it never shrinks a cover.
    """
    n = g.n
    _require_cap(n, cap)
    if n < 2:
        raise ValueError("x-geodomination needs at least two vertices")
    x = _check_vertex(g, x)
    return _min_x_search(_graph_distances(g), x)


def _require_cap(n: int, cap: int) -> None:
    if cap > _CAP_LIMIT:
        raise ValueError(f"cap {cap} exceeds the limit of {_CAP_LIMIT} vertices")
    if n > cap:
        raise ValueError(f"too large: {n} vertices exceeds the cap of {cap}")


def _graph_distances(g: Graph) -> list[list[int]]:
    """d[x][v]: the distance from x to v in g, by ``_levels`` with one
    lane per source; a disconnected g raises DisconnectedError."""
    n = g.n
    levels = _levels(_edge_lanes(g, (1 << n) - 1), [1 << v for v in range(n)])
    if reduce(or_, (level[0] for level in levels)) != (1 << n) - 1:
        raise DisconnectedError("graph is disconnected")
    d = [[0] * n for _ in range(n)]
    for depth, level in enumerate(levels):
        for x, ring in enumerate(level):  # by symmetry, the vertices at depth from x
            for v in _lanes_of(ring):
                d[x][v] = depth
    return d


def _interval_masks(d: Sequence[Sequence[int]], x: int) -> list[int]:
    """iv[y]: the interval I[x, y] of the distances d as a vertex mask,
    the vertices v with d(x, v) + d(v, y) = d(x, y)."""
    n = len(d)
    return [sum(1 << v for v in range(n) if d[x][v] + d[v][y] == d[x][y]) for y in range(n)]


def _min_x_search(d: Sequence[Sequence[int]], x: int) -> tuple[VertexSet, ...]:
    """The search of ``min_x_geodominating_bruteforce`` for source x on
    any symmetric (n, n) matrix d with a zero diagonal: the candidate sets
    of least size whose geodesics from x cover every vertex."""
    n = len(d)
    candidates = [y for y in range(n) if y != x]
    iv = _interval_masks(d, x)
    top = len(candidates) - 1
    uncovered = 0
    for v in range(n):
        # the candidates whose interval misses v, as lane bits
        missing = sum(1 << (top - i) for i, y in enumerate(candidates) if not iv[y] >> v & 1)
        uncovered |= _subset_lanes(missing)
    covers = ((1 << (1 << len(candidates))) - 1) ^ uncovered
    # the set of every candidate always covers, so there is a hit
    _, hits = _least(covers, _size_patterns(top + 1))
    return tuple(VertexSet(_members(t, candidates), n) for t in _lanes_of(hits))


def geodetic_number_bruteforce(g: Graph, *, cap: int = _CAP_LIMIT) -> VertexSet:
    """The first geodetic set of least size, in combinations order: its
    size is the geodetic number.

    As in ``min_x_geodominating_bruteforce``, the cap, 20 by default and
    at most, comes first and the distances come from the oracle stage's
    own BFS. The sets that leave v uncovered, with no pair u, w with v in
    I[u, w], grow by doubling.
    """
    n = g.n
    _require_cap(n, cap)
    if n == 1:
        return VertexSet.of([0], 1)

    d = _graph_distances(g)
    iv = [_interval_masks(d, u) for u in range(n)]
    clear = _clear_patterns(n)
    uncovered = 0
    for v in range(n):
        free = 1
        for u in reversed(range(n)):
            apart = (clear[n - 1 - w] for w in range(u + 1, n) if iv[u][w] >> v & 1)
            free |= reduce(and_, apart, free) << (1 << (n - 1 - u))
        uncovered |= free
    _, hits = _least(((1 << (1 << n)) - 1) ^ uncovered, _size_patterns(n))
    return VertexSet(_members(hits.bit_length() - 1, range(n)), n)


# ---------------------------------------------------------------------------
# graph lanes and generation


def _all_pairs_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _slice_width(n: int) -> int:
    return min(n * (n - 1) // 2, _SLICE_BITS)


def _slice(n: int, high: int) -> list[list[tuple[int, int]]]:
    """The adjacency of slice high of the edge masks on n vertices: lane
    g is mask high << _slice_width(n) | g."""
    pairs = _all_pairs_list(n)
    width = _slice_width(n)
    clear = _clear_patterns(width)
    lanes = (1 << (1 << width)) - 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        b = len(pairs) - 1 - p
        edge = lanes ^ clear[b] if b < width else lanes * (high >> (b - width) & 1)
        if edge:
            adj[i].append((j, edge))
            adj[j].append((i, edge))
    return adj


def _hub_highs(n: int) -> list[int]:
    """The highs, descending, of the slices on n vertices that can hold a
    relabelling class's first key, its greatest mask. That mask has
    N(a) = {b, ..., the Δth vertex}, Δ the maximum degree, and a's pairs
    are the top mask bits: those among high's bits are a prefix
    (1 << hub) - (1 << k), over every pattern of the bits below them."""
    spare = n * (n - 1) // 2 - _slice_width(n)
    hub = min(n - 1, spare)
    rest = spare - hub
    return [((1 << hub) - (1 << k)) << rest | low
            for k in range(hub + 1) for low in reversed(range(1 << rest))]


def _scan(
    n: int, pick: Callable[[Adjacency, int], object], highs: Iterable[int] | None = None
) -> Iterator[tuple[int, object]]:
    """(high, pick(adj, every lane)) per slice of highs, by default every
    slice of n, high descending; each slice is built (``_slice``) and
    picked before the next is made."""
    width = _slice_width(n)
    if highs is None:
        highs = reversed(range(1 << (n * (n - 1) // 2 - width)))
    lanes = (1 << (1 << width)) - 1
    for high in highs:
        yield high, pick(_slice(n, high), lanes)


def _in_key_order(n: int, picked: dict[int, int]) -> Iterator[int]:
    """The masks of picked, a lane int per slice's high bits, by edge
    count, then descending mask, over all the slices."""
    width = _slice_width(n)
    sizes = _size_patterns(width)
    for count in range(n * (n - 1) // 2 + 1):
        for high in sorted(picked, reverse=True):
            low = count - high.bit_count()
            if 0 <= low <= width:
                for lane in _lanes_of(picked[high] & sizes[low]):
                    yield high << width | lane


def _mask_graph(n: int, mask: int) -> Graph:
    """The graph on labels a, b, ... whose edges are the set bits of mask."""
    labels = _ENUM_LABELS[:n]
    edges = _members(mask, _all_pairs_list(n))
    return Graph(((labels[i], labels[j]) for i, j in edges), vertices=labels)


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected simple labeled graph on n vertices, exactly once,
    by edge count ascending then combinations order of the edge list."""
    if not 1 <= n <= _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {_EXHAUSTIVE_MAX_N}")
    for mask in _in_key_order(n, dict(_scan(n, _connected_lanes))):
        yield _mask_graph(n, mask)


def _prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n >= 2 vertices."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_connected_graph(n: int, edge_probability: float = 0.0, seed: int = 0) -> Graph:
    """Connected graph on n >= 2 vertices from a uniform spanning tree
    plus each remaining edge independently with edge_probability;
    identical for identical arguments."""
    if n < 2:
        raise ValueError("random generation needs at least two vertices")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    tree = {(min(u, v), max(u, v)) for u, v in _prufer_tree(n, rng)}
    edges = set(tree)
    if edge_probability > 0.0:
        for pair in _all_pairs_list(n):
            if pair not in tree and rng.random() < edge_probability:
                edges.add(pair)
    labels = _family_labels(n)
    return Graph(
        ((labels[i], labels[j]) for i, j in sorted(edges)), vertices=labels
    )


def random_graph_corpus(
    count: int, n_low: int, n_high: int, edge_probability: float, seed: int
) -> Iterator[Graph]:
    """count seeded graphs with sizes cycling through [n_low, n_high],
    each drawn only when the iterator reaches it.

    count, the sizes, n_high against the theorem sweep's cap of 20 and the
    edge probability are checked when the iterator is made, even when
    count is 0, so an over-cap size fails before any graph is drawn."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 2 <= n_low <= n_high:
        raise ValueError("need 2 <= n_low <= n_high")
    _require_cap(n_high, _CAP_LIMIT)
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    sizes = range(n_low, n_high + 1)
    return (
        random_connected_graph(sizes[i % len(sizes)], edge_probability, seed * 100003 + i)
        for i in range(count)
    )


# ---------------------------------------------------------------------------
# simplicial counterexample search


def _simplicial_lanes(adj: Adjacency, lanes: int) -> list[int]:
    """simp[v]: those of lanes in which the neighbourhood of v is a clique:
    no two neighbours u, w of v are apart."""
    edge = [dict(nbrs) for nbrs in adj]
    simp = []
    for nbrs in adj:
        apart = 0
        for (u, with_u), (w, with_w) in combinations(nbrs, 2):
            apart |= with_u & with_w & ~edge[u].get(w, 0)
        simp.append(lanes & ~apart)
    return simp


def _counterexample_lanes(min_simplicial: int, adj: Adjacency, lanes: int) -> int:
    """Those of lanes that are connected graphs with at least
    min_simplicial simplicial vertices, whose simplicial set covers from
    no source (``_geodesic_cover``)."""
    simp = _simplicial_lanes(adj, lanes)
    hits = _at_least(simp, lanes, min_simplicial)[-1] & _connected_lanes(adj, lanes)
    for z in range(len(adj)):
        if hits:
            covered = _geodesic_cover(adj, _levels(adj, _sourced(len(adj), z, lanes)), simp)
            hits &= ~reduce(and_, covered)
    return hits


def find_simplicial_counterexample(
    max_n: int, *, min_simplicial: int = 1
) -> tuple[Graph, VertexSet] | None:
    """First connected graph (n ascending, then edge count, then
    combinations order of the edge list) whose nonempty simplicial set
    fails to x-geodominate from every source vertex.

    min_simplicial additionally requires that many simplicial vertices.
    The search is exhaustive through max_n up to relabelling, which changes
    neither connectivity nor the simplicial set nor its failure: a class's
    first key has N(a) = {b, ..., the Δth}, so only the slices of an n
    where a's pairs run ones, then zeros (``_hub_highs``) are built and
    scanned, 6 of 32 at n = 7 and 256 of 4096 at n = 8, before the least
    key is taken.
    """
    if not 4 <= max_n <= 8:
        raise ValueError("search supports 4 <= max_n <= 8")
    if min_simplicial < 1:
        raise ValueError("min_simplicial must be at least 1")

    for n in range(max(4, min_simplicial), max_n + 1):
        hits = dict(_scan(n, partial(_counterexample_lanes, min_simplicial), _hub_highs(n)))
        mask = next(_in_key_order(n, hits), None)
        if mask is not None:
            g = _mask_graph(n, mask)
            simp = _simplicial_lanes(_edge_lanes(g, 1), 1)
            return g, VertexSet.of((v for v, bit in enumerate(simp) if bit), n)

    return None


# ---------------------------------------------------------------------------
# verification driver


class VerificationReport(NamedTuple):
    """Aggregate outcome of the oracle-agreement sweep."""

    graphs_checked: int
    sources_checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_unique_minimum(
    graphs: Iterable[Graph], *, exhaustive_n: int = 0
) -> VerificationReport:
    """For every graph and source, check that the brute-force search finds
    exactly one minimum x-geodominating set and that it is the boundary.

    exhaustive_n puts every connected graph on 2..exhaustive_n vertices
    ahead of graphs, swept on graph lanes (``_sweep_lanes``), building a
    Graph only to report a failure. graphs are read and swept one at a
    time, each checked against the cap of 20 vertices first, and go first,
    so that an over-cap graph fails before the enumeration. Single-vertex
    graphs are skipped: geodomination needs a non-source vertex to exist.
    """
    if not 0 <= exhaustive_n <= _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive_n must lie in [0, {_EXHAUSTIVE_MAX_N}]")
    listed = _verify_graphs(graphs)
    enumerated = _verify_enumeration(exhaustive_n)
    return VerificationReport(
        graphs_checked=enumerated.graphs_checked + listed.graphs_checked,
        sources_checked=enumerated.sources_checked + listed.sources_checked,
        failures=enumerated.failures + listed.failures,
    )


def _verify_enumeration(max_n: int) -> VerificationReport:
    """The sweep over every connected graph on 2..max_n vertices; the
    failures of an n are listed in (edge count, combinations rank) order,
    then by source."""
    graphs_checked = sources_checked = 0
    failures: list[str] = []
    for n in range(2, max_n + 1):
        failing: dict[int, list[int]] = {}
        for high, (connected, fails) in _scan(n, _sweep_lanes):
            graphs_checked += connected.bit_count()
            sources_checked += n * connected.bit_count()
            if any(fails):
                failing[high] = fails
        for mask in _in_key_order(n, {high: reduce(or_, f) for high, f in failing.items()}):
            high, lane = divmod(mask, 1 << _slice_width(n))
            g = _mask_graph(n, mask)
            d = _graph_distances(g)
            failures.extend(
                _failure(g, d, z) for z, lanes in enumerate(failing[high]) if lanes >> lane & 1
            )
    return VerificationReport(graphs_checked, sources_checked, tuple(failures))


def _sweep_lanes(adj: Adjacency, lanes: int) -> tuple[int, list[int]]:
    """(connected, fails): a slice's connected lanes, and per source z
    those where the boundary B (``_boundary_lanes``) is not the unique
    minimum: B is no cover, or another set of at most |B| candidates is.
    The sets grow by doubling over the candidates y, each with its
    interval I[z, y], and keep the lanes where they are B."""
    n = len(adj)
    connected = _connected_lanes(adj, lanes)
    fails = []
    for z in range(n):
        levels = _levels(adj, _sourced(n, z, lanes))
        inside = _boundary_lanes(adj, levels)
        at_least = _at_least(inside, lanes, n)
        # (size, covered per vertex, lanes where the set is B) per set
        sets = [(0, [0] * n, lanes & ~inside[z])]
        for y in range(n):
            if y != z:
                iv = _geodesic_cover(adj, levels, _sourced(n, y, lanes))
                sets = [grown for size, covered, same in sets for grown in (
                    (size, covered, same & ~inside[y]),
                    (size + 1, [c | i for c, i in zip(covered, iv)], same & inside[y]),
                )]
        is_b = other = 0
        for size, covered, same in sets:
            covers = reduce(and_, covered)
            is_b |= covers & same
            other |= covers & ~same & at_least[size]
        fails.append(connected & ~(is_b & ~other))
    return connected, fails


def _verify_graphs(graphs: Iterable[Graph]) -> VerificationReport:
    """The sweep over graphs, one at a time, so that an iterator is never
    held whole; failures keep the order of graphs, then of sources."""
    graphs_checked = sources_checked = 0
    failures: list[str] = []
    for g in graphs:
        if g.n < 2:
            continue
        _require_cap(g.n, _CAP_LIMIT)
        d = _graph_distances(g)
        failures.extend(_failure(g, d, x) for x in _failing_sources(g, d))
        graphs_checked += 1
        sources_checked += g.n
    return VerificationReport(graphs_checked, sources_checked, tuple(failures))


def _boundaries(g: Graph, d: Sequence[Sequence[int]]) -> list[VertexSet]:
    """The boundary of every source x of g by ``_boundary_lanes``, one
    lane per source, on the distances d."""
    n = g.n
    levels = [[sum(1 << x for x in range(n) if d[x][v] == j) for v in range(n)]
              for j in range(max(map(max, d)) + 1)]
    inside = _boundary_lanes(_edge_lanes(g, (1 << n) - 1), levels)
    return [VertexSet(tuple(v for v in range(n) if inside[v] >> x & 1), n) for x in range(n)]


def _failing_sources(g: Graph, d: Sequence[Sequence[int]]) -> Iterator[int]:
    """Every source x of g whose minimum x-geodominating set is not unique
    or is not the boundary, ascending; d holds the distances, which may
    be any symmetric matrix with a zero diagonal."""
    for x, inside in enumerate(_boundaries(g, d)):
        if _min_x_search(d, x) != (inside,):
            yield x


def _failure(g: Graph, d: Sequence[Sequence[int]], x: int) -> str:
    """The report line of a failing source x of g, whose distances are d:
    the boundary comes from the rule that found x (``_boundaries``)."""
    sets = _min_x_search(d, x)
    expected = _boundaries(g, d)[x]
    oracle_sets = [g.labels_of(s) for s in sets]
    return (
        f"{g!r} edges={list(g.edges())} x={g.labels[x]}: "
        f"oracle size {len(sets[0])} sets {oracle_sets} vs "
        f"boundary {g.labels_of(expected)}"
    )
