"""Brute-force ground truth, independent of the closed-form boundary route.

The geodomination oracle unions, by subset doubling, the geodesic covers
of every candidate set and keeps the full unions of least size, so its
minima come from raw distance arithmetic and share no logic with
boundary(). Both brute-force searches take a graph and compute its
distances themselves, once it is within their cap. Small-graph
enumeration and seeded random generation supply the verification
substrate, and the simplicial counterexample search certifies that
simplicial vertices can fail to geodominate from every source. Each
input is checked by the function that takes it, before any work: the
generator checks its size and edge probability, the corpus its count,
size range, largest size against the sweep's cap and edge probability,
even when it draws no graph, and the searches refuse any cap over 20.

The brute-force searches, exhaustive enumeration, the counterexample
search and the theorem sweep share one array stage, the first section
below. Every edge set on n <= 7 vertices is an integer mask, produced in
chunks in (edge count, combinations rank) order together with per-vertex
neighbour bitmasks (``_mask_chunks``); graphs of any size stack into the
same bitmask rows (``_stacked_bits``, from each graph's ``neighbors``),
which ``_unpack`` spreads into the stage's own adjacency. One
bit-frontier BFS per chunk (``_levels``) gives connectivity, distances
and geodesic sweeps, and ``_interval_bits`` the intervals I[x, y] from
those distances, so nothing here calls the BFS, geodesic or simplicial
code of graph.py that the searches certify. The theorem sweep checks the
minimum against a boundary rule of its own (``_boundary_mask``, the
definition as one array pass), run once per source index on the
adjacency of a chunk's bitmask rows; the tests tie that rule to the
boundary that graph.py's BFS flags.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import DisconnectedError, Graph, VertexSet, _check_vertex

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
# the most vertices that enumeration, sweep and counterexample search cover
_EXHAUSTIVE_MAX_N = 7
# the largest graph min_x_geodominating_bruteforce searches by default,
# and the theorem sweep's cap: it searches 2^(n-1) sets per source
_GX_CAP = 12
# the largest cap either search takes. Past the default caps each vertex
# at least doubles the gx search's memory (its own share about 4, 18 and
# 72 MB at n = 20, 22 and 24) and multiplies the geodetic search's time by
# about 2.2 (0.55, 0.91 and 2.0 s on K_n at n = 17, 18 and 19, 2-vCPU
# host), so a cap of 30 would allow gigabytes or hours
_CAP_LIMIT = 20
# the theorem sweep holds n x n distances and adjacency per graph, so it
# takes smaller chunks; these keep its peak memory at about the interpreter's
_SWEEP_CHUNK = 1 << 9
# set bits of every byte (np.bitwise_count needs numpy 2)
_POPCOUNT = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)


# ---------------------------------------------------------------------------
# array stage: edge masks, neighbour bitmasks and their BFS

# edge masks per array pass; larger chunks gain little speed and raise
# the peak memory of the search
_CHUNK = 1 << 12


def _all_pairs_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _neighbour_bits(
    n: int, pairs: Sequence[tuple[int, int]], masks: np.ndarray
) -> np.ndarray:
    """nbrs[k, v]: the neighbour bitmask of vertex v in edge mask k, where
    pair p of pairs is bit len(pairs) - 1 - p."""
    top = len(pairs) - 1
    nbrs = np.zeros((len(masks), n), dtype=np.uint8)
    for p, (i, j) in enumerate(pairs):
        edge = ((masks >> (top - p)) & 1).astype(np.uint8)
        nbrs[:, i] |= edge << np.uint8(j)
        nbrs[:, j] |= edge << np.uint8(i)
    return nbrs


def _mask_chunks(n: int, chunk: int = _CHUNK) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(masks, nbrs) for every edge set on n vertices, by edge count
    ascending then combinations rank, at most chunk masks at a time.

    Pair p of _all_pairs_list(n) is bit P - 1 - p of a mask, so the
    combinations order of each edge count is descending mask order. A mask
    is a high and a low half: descending order runs the high halves
    downwards and, under each, the low halves of the remaining popcount
    downwards. nbrs comes from per-half tables. Starts at n - 1 edges:
    nothing smaller can span n vertices.
    """
    pairs = _all_pairs_list(n)
    low = len(pairs) // 2
    high_vals = np.arange((1 << (len(pairs) - low)) - 1, -1, -1)
    high_pc = np.array([v.bit_count() for v in high_vals.tolist()])
    # low halves grouped by popcount, descending within a group;
    # group c is low_sorted[first[c]:first[c + 1]]
    low_sorted = np.array(sorted(range(1 << low), key=lambda v: (v.bit_count(), -v)))
    first = np.cumsum([0] + [comb(low, c) for c in range(low + 1)])
    nb_high = _neighbour_bits(n, pairs, np.arange(1 << (len(pairs) - low)) << low)
    nb_low = _neighbour_bits(n, pairs, np.arange(1 << low))
    for count in range(max(0, n - 1), len(pairs) + 1):
        need = count - high_pc
        fits = (need >= 0) & (need <= low)
        highs, need = high_vals[fits], need[fits]
        # ranks starts[h]:starts[h + 1] pair highs[h] with group need[h]
        starts = np.concatenate(([0], np.cumsum(first[need + 1] - first[need])))
        for lead in range(0, starts[-1], chunk):
            rank = np.arange(lead, min(lead + chunk, starts[-1]))
            h = np.searchsorted(starts, rank, side="right") - 1
            hi = highs[h]
            lo = low_sorted[first[need[h]] + rank - starts[h]]
            yield (hi << low) | lo, nb_high[hi] | nb_low[lo]


def _bits_dtype(n: int) -> np.dtype:
    """The narrowest unsigned integer dtype with a bit per vertex."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype)
    raise ValueError(f"too large: {n} vertices exceed a 64-bit vertex mask")


def _vertex_bits(n: int, dtype: np.dtype) -> np.ndarray:
    """[1 << v for v < n] in dtype."""
    return np.array([1 << v for v in range(n)], dtype=dtype)


def _unpack(bits: np.ndarray, n: int) -> np.ndarray:
    """bits[..., i] spread over a new last axis: out[..., i, v] is bit v."""
    raw = np.ascontiguousarray(bits, dtype=bits.dtype.newbyteorder("<"))
    return np.unpackbits(raw[..., None].view(np.uint8), axis=-1, bitorder="little")[..., :n]


def _pack(flags: np.ndarray) -> np.ndarray:
    """The inverse of ``_unpack``: the last axis of flags as bitmasks."""
    n = flags.shape[-1]
    dtype = _bits_dtype(n)
    raw = np.zeros((*flags.shape[:-1], dtype.itemsize), dtype=np.uint8)
    raw[..., : (n + 7) // 8] = np.packbits(flags, axis=-1, bitorder="little")
    return raw.view(dtype.newbyteorder("<"))[..., 0]


def _stacked_bits(graphs: Sequence[Graph], n: int) -> np.ndarray:
    """Neighbour bitmasks of n-vertex graphs, one row per graph, from
    ``g.neighbors(v)``."""
    rows = [[sum(1 << w for w in g.neighbors(v)) for v in range(n)] for g in graphs]
    return np.array(rows, dtype=_bits_dtype(n)).reshape(len(graphs), n)


def _neighbourhood(nbrs: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Union of nbrs[k, v] over the bits v of sets[k, j], per (k, j)."""
    out = np.zeros_like(sets)
    for v in range(nbrs.shape[1]):
        out |= ((sets >> np.uint8(v)) & np.uint8(1)) * nbrs[:, v, None]
    return out


def _levels(nbrs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bit-frontier BFS from every source: (keep, levels), where keep indexes
    the connected rows of nbrs and levels[j][k, z] is the bitmask of the
    vertices at distance j from z in row keep[k], to the chunk's last level."""
    rows, n = nbrs.shape
    seen = np.tile(_vertex_bits(n, nbrs.dtype), (rows, 1))  # [k, z]
    levels = [seen.copy()]
    while (frontier := _neighbourhood(nbrs, levels[-1]) & ~seen).any():
        seen |= frontier
        levels.append(frontier)
    (keep,) = np.nonzero(seen[:, 0] == (1 << n) - 1)
    return keep, [level[keep] for level in levels]


def _distances(levels: list[np.ndarray]) -> np.ndarray:
    """d[k, z, v]: the distance from z to v in row k of the ``_levels``."""
    rows, n = levels[0].shape
    d = np.zeros((rows, n, n), dtype=np.uint8)
    for depth in range(1, len(levels)):
        d += np.uint8(depth) * _unpack(levels[depth], n)
    return d


def _interval_bits(d: np.ndarray, x: int) -> np.ndarray:
    """iv[k, y]: the interval I[x, y] in graph k of the distances d[K, n, n]
    as a bitmask: the vertices v with d(x, v) + d(y, v) = d(x, y)."""
    dx = d[:, x, :]
    return _pack(dx[:, None, :] + d == dx[:, :, None])


# ---------------------------------------------------------------------------
# brute-force searches


def min_x_geodominating_bruteforce(
    g: Graph, x: int, *, cap: int = _GX_CAP
) -> tuple[VertexSet, ...]:
    """Every minimum x-geodominating set, all of one size, in combinations
    order, by exhaustive search over every candidate set
    (``_minimum_covers``). The search covers every candidate or refuses
    the graph, so no smaller set exists.

    The cap is checked before anything else. The distances come from the
    oracle stage's own bit-frontier BFS, not from the BFS
    rows of graph.py that boundary() reads.

    Candidates exclude x itself: x is covered by any nonempty set (it is
    an endpoint of every geodesic from x) and contributes only I[x,x] =
    {x}, so adding it never shrinks a cover. Time and memory grow as
    2^(n-1) per source, which the cap bounds.
    """
    n = g.n
    _require_cap(n, cap)
    if n < 2:
        raise ValueError("x-geodomination needs at least two vertices")
    x = _check_vertex(g, x)
    return _min_x_search(_graph_distances(_stacked_bits([g], n))[0], x)


def _require_cap(n: int, cap: int) -> None:
    if cap > _CAP_LIMIT:
        raise ValueError(f"cap {cap} exceeds the limit of {_CAP_LIMIT} vertices")
    if n > cap:
        raise ValueError(f"too large: {n} vertices exceeds the cap of {cap}")


def _graph_distances(nbrs: np.ndarray) -> np.ndarray:
    """``_distances`` of the rows of nbrs, which must all be connected."""
    keep, levels = _levels(nbrs)
    if len(keep) < len(nbrs):
        raise DisconnectedError("graph is disconnected")
    return _distances(levels)


def _min_x_search(d: np.ndarray, x: int) -> tuple[VertexSet, ...]:
    """The search of ``min_x_geodominating_bruteforce`` for source x on
    any symmetric (n, n) matrix d with a zero diagonal."""
    _, hits = _minimum_covers(d[None], x)
    return _minimum_sets(hits[0], x, len(d))


def _minimum_covers(d: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(size, hits) for source x in each graph of d[K, n, n]: hits[k, t]
    marks the candidate sets t of least size size[k] whose geodesics from
    x cover every vertex, where bit i of t is the i-th vertex other than x.

    cover[k, i] is the interval I[x, y] of candidate y as a bitmask
    (``_interval_bits``). Subset doubling unions them over every t: the
    unions of the sets without candidate i, ORed with cover i, are those of
    the sets with it.
    """
    rows, n, _ = d.shape
    cover = np.delete(_interval_bits(d, x), x, axis=1)
    union = np.zeros((rows, 1), dtype=cover.dtype)
    sizes = np.zeros(1, dtype=np.uint8)
    for i in range(n - 1):
        union = np.concatenate((union, union | cover[:, i, None]), axis=1)
        sizes = np.concatenate((sizes, sizes + np.uint8(1)))
    full = union == (1 << n) - 1
    # the set of every candidate is always full, so each row has a hit
    size = np.where(full, sizes, n).min(axis=1)
    return size, full & (sizes == size[:, None])


def _minimum_sets(hits: np.ndarray, x: int, n: int) -> tuple[VertexSet, ...]:
    """The sets marked in one row of ``_minimum_covers``'s hits, which all
    have one size, in combinations order: their sorted members ascending."""
    candidates = [v for v in range(n) if v != x]
    members = sorted(
        tuple(v for i, v in enumerate(candidates) if t >> i & 1)
        for t in np.flatnonzero(hits).tolist()
    )
    return tuple(VertexSet(m, n) for m in members)


def geodetic_number_bruteforce(g: Graph, *, cap: int = 10) -> VertexSet:
    """The first geodetic set of least size, in combinations order: its
    size is the geodetic number.

    As in ``min_x_geodominating_bruteforce``, the cap comes first and the
    distances come from the oracle stage's own BFS."""
    n = g.n
    _require_cap(n, cap)
    if n == 1:
        return VertexSet.of([0], 1)

    d = _graph_distances(_stacked_bits([g], n))[0]
    full = (1 << n) - 1
    pair_mask = [_interval_bits(d[None], u)[0].tolist() for u in range(n)]

    for size in range(2, n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for i, u in enumerate(combo):
                row = pair_mask[u]
                for v in combo[i + 1:]:
                    mask |= row[v]
            if mask == full:
                return VertexSet.of(combo, n)
    raise AssertionError("unreachable: V itself is geodetic")


# ---------------------------------------------------------------------------
# graph generation


def _mask_graph(n: int, mask: int) -> Graph:
    """The graph on labels a, b, ... whose edges are the set bits of mask."""
    pairs = _all_pairs_list(n)
    labels = _ENUM_LABELS[:n]
    return Graph(
        ((labels[i], labels[j]) for p, (i, j) in enumerate(pairs)
         if mask >> (len(pairs) - 1 - p) & 1),
        vertices=labels,
    )


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected simple labeled graph on n vertices, exactly once,
    by edge count ascending then combinations order of the edge list."""
    if not 1 <= n <= _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {_EXHAUSTIVE_MAX_N}")
    for masks, nbrs in _mask_chunks(n):
        for mask in masks[_levels(nbrs)[0]].tolist():
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
    width = len(str(n - 1))
    labels = [f"v{i:0{width}d}" for i in range(n)]
    return Graph(
        ((labels[i], labels[j]) for i, j in sorted(edges)), vertices=labels
    )


def random_graph_corpus(
    count: int, n_low: int, n_high: int, edge_probability: float, seed: int
) -> list[Graph]:
    """count seeded graphs with sizes cycling through [n_low, n_high].

    count, the sizes, n_high against the theorem sweep's cap of 12 and the
    edge probability are checked even when count is 0, so an over-cap
    size fails before any graph is drawn."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 2 <= n_low <= n_high:
        raise ValueError("need 2 <= n_low <= n_high")
    _require_cap(n_high, _GX_CAP)
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    sizes = range(n_low, n_high + 1)
    return [
        random_connected_graph(sizes[i % len(sizes)], edge_probability, seed * 100003 + i)
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# simplicial counterexample search


def _simplicial_bits(nbrs: np.ndarray) -> np.ndarray:
    """Bitmask of the vertices whose neighbourhood is a clique, per row:
    v qualifies when its closed neighbourhood N[v] lies inside N[u] for
    every neighbour u."""
    n = nbrs.shape[1]
    closed = nbrs | _vertex_bits(n, nbrs.dtype)
    inside = np.full_like(nbrs, 0xFF)  # [k, v]: N[u] over the neighbours u of v
    for u in range(n):
        # (bit - 1) is 0xFF where u is no neighbour of v, else 0
        inside &= closed[:, u, None] | (((nbrs >> np.uint8(u)) & np.uint8(1)) - np.uint8(1))
    return np.packbits((closed & ~inside) == 0, axis=1, bitorder="little")[:, 0]


def _fails_everywhere(nbrs: np.ndarray, simp: np.ndarray, levels: list[np.ndarray]) -> np.ndarray:
    """Whether the simplicial bits cover no source, per row of connected
    graphs: for every z some v lies on no geodesic from z to simp.

    From the BFS level bitmasks L_0..L_e of every source z (``_levels``),
    going back up, U_j = L_j & (simp | N(U_{j+1})) holds the level-j
    vertices with a distance-increasing path into simp, which are the
    vertices on a geodesic from z to simp.
    """
    n = nbrs.shape[1]
    targets = simp[:, None]
    up = levels[-1] & targets
    covered = up.copy()
    for level in reversed(levels[:-1]):
        up = level & (targets | _neighbourhood(nbrs, up))
        covered |= up
    return (covered != (1 << n) - 1).all(axis=1)


def _first_counterexample(nbrs: np.ndarray, min_simplicial: int) -> tuple[int, int] | None:
    """(row, simplicial bits) of the first row that is connected, has at
    least min_simplicial simplicial vertices and fails from every source."""
    simp = _simplicial_bits(nbrs)
    (keep,) = np.nonzero(_POPCOUNT[simp] >= min_simplicial)
    connected, levels = _levels(nbrs[keep])
    keep = keep[connected]
    (hits,) = np.nonzero(_fails_everywhere(nbrs[keep], simp[keep], levels))
    if len(hits) == 0:
        return None
    row = int(keep[hits[0]])
    return row, int(simp[row])


def _vertex_set(bits: int, n: int) -> VertexSet:
    return VertexSet.of((v for v in range(n) if bits >> v & 1), n)


def find_simplicial_counterexample(
    max_n: int, *, min_simplicial: int = 1
) -> tuple[Graph, VertexSet] | None:
    """First connected graph (n ascending, then edge count, then
    combinations order of the edge list) whose nonempty simplicial set
    fails to x-geodominate from every source vertex.

    min_simplicial additionally requires that many simplicial vertices.
    The search is exhaustive through n = 7, one array pass per chunk of
    edge masks. max_n = 8 is accepted and searches the same graphs as 7:
    n = 8 was only ever a seeded sample of 2000 random graphs, and it
    never changed a result (every min_simplicial from 1 to 4 hits by
    n = 7, and the sample had no hit at 5 or above), while full
    enumeration of n = 8 is out of reach.
    """
    if not 4 <= max_n <= 8:
        raise ValueError("search supports 4 <= max_n <= 8")
    if min_simplicial < 1:
        raise ValueError("min_simplicial must be at least 1")

    for n in range(4, min(max_n, _EXHAUSTIVE_MAX_N) + 1):
        for masks, nbrs in _mask_chunks(n):
            hit = _first_counterexample(nbrs, min_simplicial)
            if hit is not None:
                row, simp = hit
                return _mask_graph(n, int(masks[row])), _vertex_set(simp, n)

    return None


# ---------------------------------------------------------------------------
# verification driver


@dataclass(frozen=True)
class VerificationReport:
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
    ahead of graphs, swept chunk by chunk from ``_mask_chunks`` without
    building a Graph. graphs take the same chunk check: they are read
    _SWEEP_CHUNK at a time, so an iterator is never held whole, each
    slice's graphs of one vertex count are stacked into one chunk, and a
    slice's caps are all checked before it is swept. They are swept first,
    so that a graph over the cap of 12 vertices fails before the
    enumeration. A Graph is built only to report an enumerated failure.
    Single-vertex graphs are skipped: geodomination needs a non-source
    vertex to exist.
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
    """The sweep over every connected graph on 2..max_n vertices."""
    graphs_checked = sources_checked = 0
    failures: list[str] = []
    for n in range(2, max_n + 1):
        for masks, nbrs in _mask_chunks(n, _SWEEP_CHUNK):
            keep, levels = _levels(nbrs)
            masks, nbrs = masks[keep], nbrs[keep]
            d = _distances(levels)
            failures.extend(
                _failure(_mask_graph(n, int(masks[row])), d[row], x)
                for row, x in _failing_sources(nbrs, d)
            )
            graphs_checked += len(nbrs)
            sources_checked += n * len(nbrs)
    return VerificationReport(graphs_checked, sources_checked, tuple(failures))


def _verify_graphs(graphs: Iterable[Graph]) -> VerificationReport:
    """The sweep over graphs, read _SWEEP_CHUNK at a time so that an
    iterator is never held whole. A slice's caps are all checked before it
    is swept, and its graphs of each vertex count are stacked into one
    chunk; failures keep the order of graphs, then of sources."""
    graphs_checked = sources_checked = 0
    failures: list[str] = []
    todo = iter(graphs)
    while chunk := list(islice(todo, _SWEEP_CHUNK)):
        chunk = [g for g in chunk if g.n >= 2]
        for g in chunk:
            _require_cap(g.n, _GX_CAP)
        lines: list[list[str]] = [[] for _ in chunk]  # the failures of each graph
        for n in {g.n for g in chunk}:
            where = [i for i, g in enumerate(chunk) if g.n == n]
            nbrs = _stacked_bits([chunk[i] for i in where], n)
            d = _graph_distances(nbrs)
            for row, x in _failing_sources(nbrs, d):
                i = where[row]
                lines[i].append(_failure(chunk[i], d[row], x))
        failures.extend(chain.from_iterable(lines))
        graphs_checked += len(chunk)
        sources_checked += sum(g.n for g in chunk)
    return VerificationReport(graphs_checked, sources_checked, tuple(failures))


def _failing_sources(nbrs: np.ndarray, d: np.ndarray) -> list[tuple[int, int]]:
    """(row, x) of every source x of the connected graphs in nbrs whose
    minimum x-geodominating set is not unique or is not the boundary, by
    row then x; d holds their distances (``_distances``).

    The oracle is ``_minimum_covers``; the boundary is ``_boundary_mask``,
    run once per source index on the adjacency of the rows.
    """
    rows, n = nbrs.shape
    adj = _unpack(nbrs, n).astype(bool)
    bad = np.zeros((rows, n), dtype=bool)
    for x in range(n):
        size, hits = _minimum_covers(d, x)
        # the vertex mask of a row's first hit: a zero bit goes in at x
        first = hits.argmax(axis=1)
        low = (1 << x) - 1
        found = (first & low) | ((first & ~low) << 1)
        inside = _boundary_mask(adj, d[:, x, :])
        bad[:, x] = ~(
            (hits.sum(axis=1) == 1)
            & (found == _pack(inside))
            & (size == inside.sum(axis=1))
        )
    return [(row, x) for row, x in np.argwhere(bad).tolist()]


def _boundary_mask(adj: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """inside[k, v]: whether v has no neighbour farther from the source of
    dx[k] than v is, in graph k with adjacency adj[k]: the boundary by its
    definition."""
    return ~(adj & (dx[:, None, :] > dx[:, :, None])).any(axis=2)


def _failure(g: Graph, d: np.ndarray, x: int) -> str:
    """The report line of a failing source x of g, whose distances are d:
    the boundary comes from the rule that found x (``_failing_sources``),
    over the adjacency of g's bitmask row."""
    sets = _min_x_search(d, x)
    adj = _unpack(_stacked_bits([g], g.n), g.n).astype(bool)
    inside = _boundary_mask(adj, d[None, x])[0]
    expected = VertexSet(tuple(np.flatnonzero(inside).tolist()), g.n)
    oracle_sets = [g.labels_of(s) for s in sets]
    return (
        f"{g!r} edges={list(g.edges())} x={g.labels[x]}: "
        f"oracle size {len(sets[0])} sets {oracle_sets} vs "
        f"boundary {g.labels_of(expected)}"
    )
