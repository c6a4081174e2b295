"""Brute-force ground truth, independent of the closed-form boundary route.

The geodomination oracle enumerates candidate sets by increasing size and
tests coverage by raw distance arithmetic, so its minima can be compared
against boundary() without sharing logic. Small-graph enumeration and
seeded random generation supply the verification substrate, and the
simplicial counterexample search certifies that simplicial vertices can
fail to geodominate from every source.

Exhaustive enumeration and the counterexample search share one stage:
every edge set on n <= 7 vertices is an integer mask, produced in chunks
in (edge count, combinations rank) order together with per-vertex uint8
neighbour bitmasks. Connectivity, the simplicial test and the geodesic
test are numpy passes over those bitmasks, with their own bit-frontier
BFS: nothing here calls the BFS, geodesic or simplicial code of graph.py
that the search certifies.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boundary import _row_boundary
from .graph import DistanceMatrix, Graph, VertexSet, all_pairs

__all__ = [
    "OracleResult",
    "GraphGenSpec",
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
# edge masks per array pass; larger chunks gain little speed and raise
# the peak memory of the search
_CHUNK = 1 << 12
# set bits of every byte (np.bitwise_count needs numpy 2)
_POPCOUNT = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)
_BITS = np.array([1 << v for v in range(8)], dtype=np.uint8)


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


@dataclass(frozen=True)
class GraphGenSpec:
    """Reproducible random-graph parameters: a uniform spanning tree plus
    each remaining edge independently with edge_probability."""

    n: int
    mode: str = "random"
    edge_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown generation mode {self.mode!r}")
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge probability must lie in [0, 1]")


def min_x_geodominating_bruteforce(
    g: Graph, dm: DistanceMatrix, x: int, *, cap: int = 12
) -> OracleResult:
    """All minimum x-geodominating sets, by exhaustive size-ordered search.

    Candidates exclude x itself: x is covered by any nonempty set (it is
    an endpoint of every geodesic from x) and contributes only I[x,x] =
    {x}, so adding it never shrinks a cover.
    """
    n = g.n
    if n < 2:
        raise ValueError("x-geodomination needs at least two vertices")
    if n > cap:
        raise ValueError(f"too large: {n} vertices exceeds the cap of {cap}")
    if not 0 <= x < n:
        raise ValueError(f"vertex index {x} out of range [0, {n})")

    d = dm.d
    full = (1 << n) - 1
    candidates = [v for v in range(n) if v != x]
    cover = {}
    for y in candidates:
        mask = 0
        for v in range(n):
            if d[x, v] + d[v, y] == d[x, y]:
                mask |= 1 << v
        cover[y] = mask

    for size in range(1, len(candidates) + 1):
        winners = [
            combo
            for combo in combinations(candidates, size)
            if _union(cover, combo) == full
        ]
        if winners:
            return OracleResult(
                minimum_size=size,
                minimum_sets=tuple(VertexSet.of(c, n) for c in winners),
                exhausted=True,
            )
    raise AssertionError("unreachable: V minus x always geodominates")


def _union(cover: dict[int, int], combo: Sequence[int]) -> int:
    mask = 0
    for y in combo:
        mask |= cover[y]
    return mask


def geodetic_number_bruteforce(
    g: Graph, dm: DistanceMatrix, *, cap: int = 10
) -> tuple[int, VertexSet]:
    """Smallest k with a geodetic set of size k, plus the first witness."""
    n = g.n
    if n > cap:
        raise ValueError(f"too large: {n} vertices exceeds the cap of {cap}")
    if n == 1:
        return 1, VertexSet.of([0], 1)

    d = dm.d
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


def _mask_chunks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(masks, nbrs) for every edge set on n vertices, by edge count
    ascending then combinations rank, at most _CHUNK masks at a time.

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
        for lead in range(0, starts[-1], _CHUNK):
            rank = np.arange(lead, min(lead + _CHUNK, starts[-1]))
            h = np.searchsorted(starts, rank, side="right") - 1
            hi = highs[h]
            lo = low_sorted[first[need[h]] + rank - starts[h]]
            yield (hi << low) | lo, nb_high[hi] | nb_low[lo]


def _neighbourhood(nbrs: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Union of nbrs[k, v] over the bits v of sets[k, j], per (k, j)."""
    out = np.zeros_like(sets)
    for v in range(nbrs.shape[1]):
        out |= ((sets >> np.uint8(v)) & np.uint8(1)) * nbrs[:, v, None]
    return out


def _connected(nbrs: np.ndarray) -> np.ndarray:
    """Whether vertex 0 reaches every vertex, per row of nbrs."""
    n = nbrs.shape[1]
    reach = np.ones((len(nbrs), 1), dtype=np.uint8)
    for _ in range(n - 1):
        reach |= _neighbourhood(nbrs, reach)
    return reach[:, 0] == (1 << n) - 1


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
    if not 1 <= n <= 7:
        raise ValueError("exhaustive enumeration supports 1 <= n <= 7")
    for masks, nbrs in _mask_chunks(n):
        for mask in masks[_connected(nbrs)].tolist():
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


def random_connected_graph(spec: GraphGenSpec) -> Graph:
    """Connected graph from a uniform spanning tree plus independent
    extra edges; identical for identical specs."""
    if spec.mode != "random":
        raise ValueError("random_connected_graph needs a random-mode spec")
    n = spec.n
    if n < 2:
        raise ValueError("random generation needs at least two vertices")
    rng = random.Random(spec.seed)
    tree = {(min(u, v), max(u, v)) for u, v in _prufer_tree(n, rng)}
    edges = set(tree)
    if spec.edge_probability > 0.0:
        for pair in _all_pairs_list(n):
            if pair not in tree and rng.random() < spec.edge_probability:
                edges.add(pair)
    width = len(str(n - 1))
    labels = [f"v{i:0{width}d}" for i in range(n)]
    return Graph(
        ((labels[i], labels[j]) for i, j in sorted(edges)), vertices=labels
    )


def random_graph_corpus(
    count: int, n_low: int, n_high: int, edge_probability: float, seed: int
) -> list[Graph]:
    """count seeded graphs with sizes cycling through [n_low, n_high]."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 2 <= n_low <= n_high:
        raise ValueError("need 2 <= n_low <= n_high")
    sizes = range(n_low, n_high + 1)
    out = []
    for i in range(count):
        spec = GraphGenSpec(
            n=sizes[i % len(sizes)],
            edge_probability=edge_probability,
            seed=seed * 100003 + i,
        )
        out.append(random_connected_graph(spec))
    return out


# ---------------------------------------------------------------------------
# simplicial counterexample search


def _simplicial_bits(nbrs: np.ndarray) -> np.ndarray:
    """Bitmask of the vertices whose neighbourhood is a clique, per row:
    v qualifies when its closed neighbourhood N[v] lies inside N[u] for
    every neighbour u."""
    n = nbrs.shape[1]
    closed = nbrs | _BITS[:n]
    inside = np.full_like(nbrs, 0xFF)  # [k, v]: N[u] over the neighbours u of v
    for u in range(n):
        # (bit - 1) is 0xFF where u is no neighbour of v, else 0
        inside &= closed[:, u, None] | (((nbrs >> np.uint8(u)) & np.uint8(1)) - np.uint8(1))
    return np.packbits((closed & ~inside) == 0, axis=1, bitorder="little")[:, 0]


def _fails_everywhere(nbrs: np.ndarray, simp: np.ndarray) -> np.ndarray:
    """Whether the simplicial bits cover no source, per row of connected
    graphs: for every z some v lies on no geodesic from z to simp.

    A bit-frontier BFS from every source z gives the level bitmasks
    L_0..L_e. Going back up, U_j = L_j & (simp | N(U_{j+1})) holds the
    level-j vertices with a distance-increasing path into simp, which are
    the vertices on a geodesic from z to simp.
    """
    rows, n = nbrs.shape
    seen = np.tile(_BITS[:n], (rows, 1))  # [k, z]
    levels = [seen.copy()]
    while True:
        frontier = _neighbourhood(nbrs, levels[-1]) & ~seen
        if not frontier.any():
            break
        seen |= frontier
        levels.append(frontier)
    targets = simp[:, None]
    up = levels.pop() & targets
    covered = up.copy()
    while levels:
        up = levels.pop() & (targets | _neighbourhood(nbrs, up))
        covered |= up
    return (covered != (1 << n) - 1).all(axis=1)


def _first_counterexample(nbrs: np.ndarray, min_simplicial: int) -> tuple[int, int] | None:
    """(row, simplicial bits) of the first row that is connected, has at
    least min_simplicial simplicial vertices and fails from every source."""
    simp = _simplicial_bits(nbrs)
    (keep,) = np.nonzero(_POPCOUNT[simp] >= min_simplicial)
    keep = keep[_connected(nbrs[keep])]
    (hits,) = np.nonzero(_fails_everywhere(nbrs[keep], simp[keep]))
    if len(hits) == 0:
        return None
    row = int(keep[hits[0]])
    return row, int(simp[row])


def _stacked_bits(graphs: Iterable[Graph], n: int) -> np.ndarray:
    """Neighbour bitmasks of n-vertex graphs, one row per graph; each
    graph can be dropped once its row is read."""
    return np.array(
        [[sum(1 << w for w in g.adj[v]) for v in range(n)] for g in graphs],
        dtype=np.uint8,
    ).reshape(-1, n)


def _vertex_set(bits: int, n: int) -> VertexSet:
    return VertexSet.of((v for v in range(n) if bits >> v & 1), n)


def find_simplicial_counterexample(
    max_n: int, *, min_simplicial: int = 1
) -> tuple[Graph, VertexSet] | None:
    """First connected graph (n ascending, then edge count, then
    combinations order of the edge list) whose nonempty simplicial set
    fails to x-geodominate from every source vertex.

    min_simplicial additionally requires that many simplicial vertices.
    Exhaustive through n = 7, one array pass per chunk of edge masks. At
    max_n = 8 the same predicate runs once over a fixed seeded sample of
    2000 random graphs, stacked, since full enumeration is out of reach
    there; the first of them that passes is the hit.
    """
    if not 4 <= max_n <= 8:
        raise ValueError("search supports 4 <= max_n <= 8")
    if min_simplicial < 1:
        raise ValueError("min_simplicial must be at least 1")

    for n in range(4, min(max_n, 7) + 1):
        for masks, nbrs in _mask_chunks(n):
            hit = _first_counterexample(nbrs, min_simplicial)
            if hit is not None:
                row, simp = hit
                return _mask_graph(n, int(masks[row])), _vertex_set(simp, n)

    if max_n == 8:
        specs = [
            GraphGenSpec(n=8, edge_probability=0.25 + 0.05 * (i % 6), seed=i)
            for i in range(2000)
        ]
        nbrs = _stacked_bits((random_connected_graph(spec) for spec in specs), 8)
        hit = _first_counterexample(nbrs, min_simplicial)
        if hit is not None:
            row, simp = hit
            return random_connected_graph(specs[row]), _vertex_set(simp, 8)
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


def verify_unique_minimum(graphs: Iterable[Graph], *, cap: int = 12) -> VerificationReport:
    """For every graph and source, check that the brute-force search finds
    exactly one minimum x-geodominating set and that it is the boundary.

    Single-vertex graphs are skipped: geodomination needs a non-source
    vertex to exist.
    """
    graphs_checked = 0
    sources_checked = 0
    failures: list[str] = []
    for g in graphs:
        if g.n < 2:
            continue
        graphs_checked += 1
        dm = all_pairs(g)
        for x in range(g.n):
            sources_checked += 1
            res = min_x_geodominating_bruteforce(g, dm, x, cap=cap)
            # the oracle's matrix holds the row, so no BFS per source
            expected = _row_boundary(g, dm.row(x), x).boundary
            if (
                not res.exhausted
                or len(res.minimum_sets) != 1
                or res.minimum_sets[0] != expected
                or res.minimum_size != len(expected)
            ):
                oracle_sets = [g.labels_of(s) for s in res.minimum_sets]
                failures.append(
                    f"{g!r} edges={list(g.edges())} x={g.labels[x]}: "
                    f"oracle size {res.minimum_size} sets {oracle_sets} vs "
                    f"boundary {g.labels_of(expected)}"
                )
    return VerificationReport(
        graphs_checked=graphs_checked,
        sources_checked=sources_checked,
        failures=tuple(failures),
    )
