"""Seeded graph inputs and reference answers, independent of geodom.

Every graph is a uniform random recursive tree (each vertex joins a
uniformly chosen earlier vertex of a shuffled order) plus distinct extra
edges drawn uniformly at random until the requested edge count is
reached. None of this calls geodom, so a change to the library or its
oracle layer cannot change a workload's inputs or the answers they are
checked against.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


def derive_rng(seed: int, *tags: object) -> random.Random:
    """Independent stream for one input: stable across runs and Python
    versions, and never shared between two inputs of a workload."""
    text = "/".join([str(seed), *map(str, tags)])
    return random.Random(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big"))


@dataclass(frozen=True)
class Graph:
    """Edge-list graph with labels whose sorted order is index order."""

    labels: tuple[str, ...]
    adj: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def text(self) -> str:
        return "".join(f"{self.labels[u]} {self.labels[v]}\n" for u, v in self.edges)

    def names(self, vertices) -> list[str]:
        return [self.labels[v] for v in sorted(vertices)]


def make_labels(n: int, prefix: str) -> tuple[str, ...]:
    width = len(str(n - 1))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(n))


def from_edges(labels: tuple[str, ...], edges) -> Graph:
    adj: list[list[int]] = [[] for _ in labels]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(labels, tuple(tuple(sorted(a)) for a in adj), tuple(sorted(edges)))


def random_graph(n: int, m: int, rng: random.Random, prefix: str = "v") -> Graph:
    """Connected graph on n vertices with exactly m edges."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph has n={n} and m={m}")
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edges(make_labels(n, prefix), edges)


def parse_edge_list(text: str) -> Graph:
    """Graph from a geodom edge-list document (the form geodom emits)."""
    declared: list[str] = []
    pairs: list[tuple[str, str]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            declared.extend(line[len("vertices:"):].split())
        else:
            u, v = line.split()
            pairs.append((u, v))
    labels = tuple(sorted(set(declared) | {x for p in pairs for x in p}))
    index = {lab: i for i, lab in enumerate(labels)}
    edges = {tuple(sorted((index[u], index[v]))) for u, v in pairs}
    return from_edges(labels, edges)


@dataclass(frozen=True)
class InputFile:
    """One generated file, recorded in the result by name, size and hash."""

    name: str
    n: int
    m: int
    sha256: str

    def record(self) -> dict:
        return {"name": self.name, "n": self.n, "m": self.m, "sha256": self.sha256}


def write_graph(workdir: Path, name: str, g: Graph) -> InputFile:
    data = g.text().encode()
    (workdir / name).write_bytes(data)
    return InputFile(name, g.n, len(g.edges), hashlib.sha256(data).hexdigest())


# ---------------------------------------------------------------------------
# reference answers by definition


def bfs(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def boundary(g: Graph, x: int) -> list[int]:
    """Vertices none of whose neighbours is farther from x: one BFS row
    and a scan of the definition."""
    d = bfs(g, x)
    return [v for v in range(g.n) if all(d[w] <= d[v] for w in g.adj[v])]


def covered(g: Graph, x: int, s) -> list[bool]:
    """covered[v] iff v lies on a shortest path from x to some member of
    s: a reverse sweep by level over the geodesic DAG of x, marking every
    vertex from which a member of s can be reached."""
    d = bfs(g, x)
    reach = [False] * g.n
    for v in s:
        reach[v] = True
    for v in sorted(range(g.n), key=d.__getitem__, reverse=True):
        if not reach[v]:
            reach[v] = any(reach[w] for w in g.adj[v] if d[w] == d[v] + 1)
    return reach


def closure(g: Graph, s) -> list[int]:
    """Union of the intervals I[u, v] over all pairs of s, by scanning
    every vertex against the two BFS rows of each pair."""
    members = sorted(set(s))
    rows = {u: bfs(g, u) for u in members}
    inside = [False] * g.n
    for u in members:
        inside[u] = True
    for i, u in enumerate(members):
        du = rows[u]
        for v in members[i + 1:]:
            dv = rows[v]
            target = du[v]
            for w in range(g.n):
                if du[w] + dv[w] == target:
                    inside[w] = True
    return [w for w in range(g.n) if inside[w]]


def simplicial(g: Graph) -> list[int]:
    adjsets = [set(a) for a in g.adj]
    return [
        v
        for v in range(g.n)
        if all(b in adjsets[a] for a in g.adj[v] for b in g.adj[v] if a < b)
    ]
