"""Brute-force ground truth, independent of the closed-form boundary route.

The geodomination oracle enumerates candidate sets by increasing size and
tests coverage by raw distance arithmetic, so its minima can be compared
against boundary() without sharing logic. Small-graph enumeration and
seeded random generation supply the verification substrate, and the
simplicial counterexample search certifies that simplicial vertices can
fail to geodominate from every source.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

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


def _edge_subsets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every edge subset, by edge count ascending then lexicographic order.

    Starts at n-1 edges: nothing smaller can span n vertices.
    """
    pairs = _all_pairs_list(n)
    for count in range(max(0, n - 1), len(pairs) + 1):
        yield from combinations(pairs, count)


def _raw_connected(n: int, adjsets: Sequence[set[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjsets[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected simple labeled graph on n vertices, exactly once."""
    if not 1 <= n <= 7:
        raise ValueError("exhaustive enumeration supports 1 <= n <= 7")
    labels = list(_ENUM_LABELS[:n])
    if n == 1:
        yield Graph(vertices=labels)
        return
    for subset in _edge_subsets(n):
        adjsets: list[set[int]] = [set() for _ in range(n)]
        for i, j in subset:
            adjsets[i].add(j)
            adjsets[j].add(i)
        if _raw_connected(n, adjsets):
            yield Graph(((labels[i], labels[j]) for i, j in subset), vertices=labels)


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


def _raw_simplicial(adj: Sequence[Sequence[int]], adjsets: Sequence[set[int]]) -> list[int]:
    out = []
    for v in range(len(adj)):
        nbrs = adj[v]
        if all(
            nbrs[j] in adjsets[nbrs[i]]
            for i in range(len(nbrs))
            for j in range(i + 1, len(nbrs))
        ):
            out.append(v)
    return out


def _raw_bfs_rows(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(adj)
    rows = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        rows.append(dist)
    return rows


def _fails_from_every_source(rows: list[list[int]], simp: list[int]) -> bool:
    """True when the simplicial set covers no source: for every z some
    vertex lies on no geodesic from z to a simplicial vertex."""
    n = len(rows)
    for z in range(n):
        dz = rows[z]
        for v in range(n):
            if not any(dz[v] + rows[v][y] == dz[y] for y in simp):
                break
        else:
            return False
    return True


def _counterexample_from_raw(
    n: int, subset: Iterable[tuple[int, int]], simp: list[int]
) -> tuple[Graph, VertexSet]:
    labels = list(_ENUM_LABELS[:n])
    g = Graph(((labels[i], labels[j]) for i, j in subset), vertices=labels)
    return g, VertexSet.of(simp, n)


def find_simplicial_counterexample(
    max_n: int, *, min_simplicial: int = 1
) -> tuple[Graph, VertexSet] | None:
    """First connected graph (n ascending, then edge count) whose nonempty
    simplicial set fails to x-geodominate from every source vertex.

    min_simplicial additionally requires that many simplicial vertices.
    Exhaustive through n = 7; at max_n = 8 a bounded seeded random sweep
    follows, since full enumeration is out of reach there.
    """
    if not 4 <= max_n <= 8:
        raise ValueError("search supports 4 <= max_n <= 8")
    if min_simplicial < 1:
        raise ValueError("min_simplicial must be at least 1")

    for n in range(4, min(max_n, 7) + 1):
        for subset in _edge_subsets(n):
            adj: list[list[int]] = [[] for _ in range(n)]
            adjsets: list[set[int]] = [set() for _ in range(n)]
            for i, j in subset:
                adj[i].append(j)
                adj[j].append(i)
                adjsets[i].add(j)
                adjsets[j].add(i)
            simp = _raw_simplicial(adj, adjsets)
            if len(simp) < min_simplicial:
                continue
            if not _raw_connected(n, adjsets):
                continue
            rows = _raw_bfs_rows(adj)
            if _fails_from_every_source(rows, simp):
                return _counterexample_from_raw(n, subset, simp)

    if max_n == 8:
        for i in range(2000):
            g = random_connected_graph(
                GraphGenSpec(n=8, edge_probability=0.25 + 0.05 * (i % 6), seed=i)
            )
            adj = [list(g.adj[v]) for v in range(8)]
            adjsets = [set(a) for a in adj]
            simp = _raw_simplicial(adj, adjsets)
            if len(simp) < min_simplicial:
                continue
            rows = _raw_bfs_rows(adj)
            if _fails_from_every_source(rows, simp):
                return g, VertexSet.of(simp, 8)
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
