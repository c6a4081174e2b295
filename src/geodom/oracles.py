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
search and the theorem sweep share one stage (bitmasks.py): edge masks
in chunks, neighbour bitmasks and one bit-frontier BFS per chunk, so
nothing here calls the BFS, geodesic or simplicial code of graph.py that
the searches certify. The theorem sweep reads only the boundary itself from
boundary.py, once per source index on the disjoint union of a chunk.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator

import numpy as np

from .bitmasks import (
    _all_pairs_list,
    _levels,
    _distances,
    _mask_chunks,
    _neighbourhood,
    _pack,
    _stacked_bits,
    _union_csr,
    _vertex_bits,
)
from .boundary import _boundary_mask, _row_boundary
from .graph import DisconnectedError, Graph, VertexSet

__all__ = [
    "OracleResult",
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
# the theorem sweep holds n x n distances and a CSR per graph, so it takes
# smaller chunks; these keep its peak memory at about the interpreter's
_SWEEP_CHUNK = 1 << 9
# set bits of every byte (np.bitwise_count needs numpy 2)
_POPCOUNT = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a size-ordered exhaustive search.

    minimum_sets holds every set of the winning size; exhausted records
    that the search space was fully covered up to that size, so nothing
    smaller exists.
    """

    minimum_size: int
    minimum_sets: tuple[VertexSet, ...]
    exhausted: bool


def min_x_geodominating_bruteforce(g: Graph, x: int, *, cap: int = _GX_CAP) -> OracleResult:
    """All minimum x-geodominating sets, in combinations order, by
    exhaustive search over every candidate set (``_minimum_covers``).

    The cap is checked before anything else. The distances come from the
    oracle stage's own bit-frontier BFS (bitmasks.py), not from the BFS
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
    if not 0 <= x < n:
        raise ValueError(f"vertex index {x} out of range [0, {n})")
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


def _min_x_search(d: np.ndarray, x: int) -> OracleResult:
    """The search of ``min_x_geodominating_bruteforce`` for source x on
    any symmetric (n, n) matrix d with a zero diagonal."""
    size, hits = _minimum_covers(d[None], x)
    return OracleResult(
        minimum_size=int(size[0]),
        minimum_sets=_minimum_sets(hits[0], x, len(d)),
        exhausted=True,
    )


def _minimum_covers(d: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(size, hits) for source x in each graph of d[K, n, n]: hits[k, t]
    marks the candidate sets t of least size size[k] whose geodesics from
    x cover every vertex, where bit i of t is the i-th vertex other than x.

    cover[k, i] is the interval I[x, y] of candidate y as a bitmask. Subset
    doubling unions them over every t: the unions of the sets without
    candidate i, ORed with cover i, are those of the sets with it.
    """
    rows, n, _ = d.shape
    dx = d[:, x, :]
    on = dx[:, None, :] + d == dx[:, :, None]  # [k, y, v]: v on a geodesic x..y
    cover = _pack(np.delete(on, x, axis=1))
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


def geodetic_number_bruteforce(g: Graph, *, cap: int = 10) -> tuple[int, VertexSet]:
    """Smallest k with a geodetic set of size k, plus the first witness.

    As in ``min_x_geodominating_bruteforce``, the cap comes first and the
    distances come from the oracle stage's own BFS."""
    n = g.n
    _require_cap(n, cap)
    if n == 1:
        return 1, VertexSet.of([0], 1)

    d = _graph_distances(_stacked_bits([g], n))[0]
    full = (1 << n) - 1
    pair_mask = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            mask = 0
            for w in range(n):
                if d[u, w] + d[w, v] == d[u, v]:
                    mask |= 1 << w
            pair_mask[u][v] = mask

    for size in range(2, n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for i, u in enumerate(combo):
                row = pair_mask[u]
                for v in combo[i + 1:]:
                    mask |= row[v]
            if mask == full:
                return size, VertexSet.of(combo, n)
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
    building a Graph. graphs take the same chunk check, stacked by vertex
    count; they are swept first, so that one over the cap of 12 vertices
    fails before the enumeration. A Graph is built only to report an
    enumerated failure. Single-vertex graphs are skipped: geodomination
    needs a non-source vertex to exist.
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
    """The sweep over graphs, _SWEEP_CHUNK at a time, each chunk stacked by
    vertex count; failures keep the order of graphs, then of sources."""
    graphs_checked = sources_checked = 0
    failures: list[str] = []
    todo = iter(graphs)
    while chunk := list(islice(todo, _SWEEP_CHUNK)):
        chunk = [g for g in chunk if g.n >= 2]
        for g in chunk:
            _require_cap(g.n, _GX_CAP)
        failing = []
        for n in sorted({g.n for g in chunk}):
            where = [i for i, g in enumerate(chunk) if g.n == n]
            nbrs = _stacked_bits([chunk[i] for i in where], n)
            d = _graph_distances(nbrs)
            failing.extend((where[row], x, d[row]) for row, x in _failing_sources(nbrs, d))
        failing.sort(key=lambda f: f[:2])
        failures.extend(_failure(chunk[i], dist, x) for i, x, dist in failing)
        graphs_checked += len(chunk)
        sources_checked += sum(g.n for g in chunk)
    return VerificationReport(graphs_checked, sources_checked, tuple(failures))


def _failing_sources(nbrs: np.ndarray, d: np.ndarray) -> list[tuple[int, int]]:
    """(row, x) of every source x of the connected graphs in nbrs whose
    minimum x-geodominating set is not unique or is not the boundary, by
    row then x; d holds their distances (``_distances``).

    The oracle is ``_minimum_covers``; the boundary is the library's
    ``_boundary_mask``, run once per source index on the union of rows.
    """
    rows, n = nbrs.shape
    flat, offsets = _union_csr(nbrs)
    bad = np.zeros((rows, n), dtype=bool)
    for x in range(n):
        size, hits = _minimum_covers(d, x)
        # the vertex mask of a row's first hit: a zero bit goes in at x
        first = hits.argmax(axis=1)
        low = (1 << x) - 1
        found = (first & low) | ((first & ~low) << 1)
        inside = _boundary_mask(flat, offsets, d[:, x, :].ravel()).reshape(rows, n)
        bad[:, x] = ~(
            (hits.sum(axis=1) == 1)
            & (found == _pack(inside))
            & (size == inside.sum(axis=1))
        )
    return [(row, x) for row, x in np.argwhere(bad).tolist()]


def _failure(g: Graph, d: np.ndarray, x: int) -> str:
    """The report line of a failing source x of g, whose distances are d."""
    res = _min_x_search(d, x)
    expected = _row_boundary(g, d[x]).boundary
    oracle_sets = [g.labels_of(s) for s in res.minimum_sets]
    return (
        f"{g!r} edges={list(g.edges())} x={g.labels[x]}: "
        f"oracle size {res.minimum_size} sets {oracle_sets} vs "
        f"boundary {g.labels_of(expected)}"
    )
