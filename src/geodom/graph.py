"""Core graph representation and metric primitives.

Vertices are arbitrary non-whitespace string labels. Internal indices are
the labels' positions in sorted order, so every derived quantity is
deterministic across runs. Graphs are simple, undirected, and immutable
after construction; all metric operations (distances, intervals, closures)
require a connected graph and raise :class:`DisconnectedError` otherwise.
The adjacency is stored once, as CSR arrays, which ``Graph(...)``,
``parse_graph`` and ``products.product`` all build through ``Graph._build``.

The metric core works on single distance rows. ``interval`` takes its
row from one BFS (``bfs_distances``), O(n + m), and ``geodesic_sweep``
turns a row into interval membership by one reverse sweep of the
source's geodesic DAG.
``geodetic_closure`` and ``is_geodetic`` take no matrix: they run the BFS
of 64 members at a time in the bits of one uint64 word per vertex
(``_level_words``), about depth x (n + m) word operations per batch.
``_word_budget`` and ``_kept_levels`` cap the depth at
min(|batch| x (n + m), 4(n + 2m)) / n levels; deeper graphs (paths, long
cycles, grids) go back to one row and one sweep per member. Nothing here
builds an all-pairs matrix: the brute-force oracles compute theirs with
their own BFS (bitmasks.py), and ``products.product_distance`` takes
factor rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "VertexSet",
    "GraphError",
    "ParseError",
    "DisconnectedError",
    "parse_graph",
    "emit_graph",
    "is_connected",
    "bfs_distances",
    "geodesic_sweep",
    "interval",
    "geodetic_closure",
    "is_geodetic",
    "simplicial_vertices",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
]


class GraphError(Exception):
    """Invalid graph construction or a graph-level precondition failure."""


class ParseError(GraphError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DisconnectedError(GraphError):
    """A metric operation received a disconnected graph."""


# a line starting with one of these is a comment or a declaration, not an edge
_RESERVED = ("#", "vertices:")


def _valid_label(label: str) -> bool:
    return isinstance(label, str) and label.split() == [label] and not label.startswith(_RESERVED)


class Graph:
    """Immutable simple undirected graph over string-labeled vertices.

    ``labels`` is the sorted tuple of vertex labels; vertex ``i`` is
    ``labels[i]``. Only the CSR is stored: ``flat_neighbors`` from
    ``neighbor_offsets[i]`` to the next offset are i's neighbours, ascending.
    """

    __slots__ = ("labels", "_index", "flat_neighbors", "neighbor_offsets", "edge_count")

    def __init__(self, edges: Iterable[tuple[str, str]] = (), vertices: Iterable[str] = ()):
        index: dict[str, int] = {}
        for label in vertices:
            if not _valid_label(label):
                raise GraphError(f"invalid vertex label {label!r}")
            index.setdefault(label, len(index))
        tails, heads = [], []
        for u, v in edges:
            if not _valid_label(u) or not _valid_label(v):
                raise GraphError(f"invalid vertex label in edge ({u!r}, {v!r})")
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            tails.append(index.setdefault(u, len(index)))
            heads.append(index.setdefault(v, len(index)))
        if not index:
            raise GraphError("empty vertex set")
        self._build(list(index), tails, heads)

    def _build(self, labels: Sequence[str], tails: Sequence, heads: Sequence) -> list[int]:
        """Fill the graph from distinct valid labels in any order and its
        edges as index arrays into them; returns ``order``, where vertex i
        is labels[order[i]]. Callers with labels valid by construction call
        it on ``Graph.__new__(Graph)``, skipping the checks of __init__.
        One sort of the keys tail * n + head of both directions of each edge
        puts repeats side by side (numpy 2's hash-based ``np.unique`` is
        many times slower); the heads are the CSR."""
        n = len(labels)
        order = sorted(range(n), key=labels.__getitem__)
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        tails = rank[np.asarray(tails, dtype=np.intp)]
        heads = rank[np.asarray(heads, dtype=np.intp)]
        keys = np.sort(np.concatenate([tails * n + heads, heads * n + tails]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.labels: tuple[str, ...] = tuple(map(labels.__getitem__, order))
        self._index: dict[str, int] = dict(zip(self.labels, range(n)))
        self.flat_neighbors: np.ndarray = keys % n
        self.neighbor_offsets: np.ndarray = np.searchsorted(keys, np.arange(0, n * n, n))
        self.flat_neighbors.setflags(write=False)
        self.neighbor_offsets.setflags(write=False)
        self.edge_count: int = len(keys) // 2
        return order

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label {label!r}") from None

    def label(self, v: int) -> str:
        return self.labels[v]

    def labels_of(self, vertices: Iterable[int]) -> list[str]:
        """Labels of the given indices; ascending indices give sorted labels."""
        return [self.labels[v] for v in vertices]

    def _csr_row(self, v: int) -> np.ndarray:
        _check_vertex(self, v)
        end = self.neighbor_offsets[v + 1] if v + 1 < self.n else len(self.flat_neighbors)
        return self.flat_neighbors[self.neighbor_offsets[v]:end]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._csr_row(v).tolist())

    def degree(self, v: int) -> int:
        return len(self._csr_row(v))

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self, v)
        return bool(v in self._csr_row(u))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as an index pair (u, v) with u < v, sorted."""
        tails, heads = _edge_arrays(self)
        return zip(tails.tolist(), heads.tolist())

    def _key(self) -> tuple:
        return self.labels, self.neighbor_offsets.tobytes(), self.flat_neighbors.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class VertexSet:
    """Sorted, deduplicated vertex indices within a host graph of size n."""

    members: tuple[int, ...]
    n: int

    def __post_init__(self):
        prev = -1
        for m in self.members:
            if not isinstance(m, int) or not prev < m < self.n:
                raise ValueError(
                    f"vertex set members must be strictly ascending indices in "
                    f"[0, {self.n}), got {self.members!r}"
                )
            prev = m

    @classmethod
    def of(cls, items: Iterable[int], n: int) -> "VertexSet":
        return cls(tuple(sorted({int(i) for i in items})), n)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: object) -> bool:
        return v in self.members

    def __bool__(self) -> bool:
        return bool(self.members)

    def issubset(self, other: Iterable[int]) -> bool:
        return set(self.members) <= {int(i) for i in other}


def _as_vertex_set(s: "VertexSet | Iterable[int]", n: int) -> VertexSet:
    if isinstance(s, VertexSet):
        if s.n != n:
            raise ValueError(f"vertex set is for a graph of size {s.n}, not {n}")
        return s
    return VertexSet.of(s, n)


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex index {v} out of range [0, {g.n})")


# ---------------------------------------------------------------------------
# parsing / emission


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Lines are comments (``#`` prefix), an optional ``vertices: a b c ...``
    declaration, or ``u v`` edge lines. Duplicate edges collapse; self-loops,
    malformed lines and labels starting with ``#`` or ``vertices:``, which
    ``emit_graph`` could not write back, raise :class:`ParseError` with the
    line number.
    """
    index: dict[str, int] = {}
    tails, heads = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            for label in line[len("vertices:"):].split():
                index.setdefault(label, len(index))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected an edge line 'u v', got {raw!r}", line_no)
        u, v = parts
        if u == v:
            raise ParseError(f"self-loop at {u!r}", line_no)
        tails.append(index.setdefault(u, len(index)))
        heads.append(index.setdefault(v, len(index)))
    if not index:
        raise ParseError("empty vertex set: no edges or vertex declarations")
    reserved = next((lab for lab in index if lab.startswith(_RESERVED)), None)
    if reserved is not None:
        raise ParseError(
            f"label {reserved!r} starts with '#' or 'vertices:'", _line_of(text, reserved)
        )
    g = Graph.__new__(Graph)
    g._build(list(index), tails, heads)
    return g


def _line_of(text: str, label: str) -> int | None:
    """Number of the first line of text that names label, read as
    ``parse_graph`` reads it."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith("#") and label in line.removeprefix("vertices:").split():
            return line_no
    return None


def emit_graph(g: Graph) -> str:
    """Edge-list document that re-parses to an equal Graph."""
    lines = ["vertices: " + " ".join(g.labels)]
    for u, v in g.edges():
        lines.append(f"{g.labels[u]} {g.labels[v]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# distances


def _neighbour_lists(g: Graph) -> list[tuple[int, ...]]:
    """Neighbour tuples from one ``tolist()`` of the CSR, what ``_bfs_row`` reads;
    tuples hold items inline, so rows on a shuffled path beat lists by ~10%."""
    flat = g.flat_neighbors.tolist()
    bounds = [*g.neighbor_offsets.tolist(), len(flat)]
    return [tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _bfs_row(nbr_lists: Sequence[Sequence[int]], source: int) -> list[int]:
    """Hop counts from source; -1 marks unreachable vertices."""
    dist = [-1] * len(nbr_lists)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in nbr_lists[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    return -1 not in _bfs_row(_neighbour_lists(g), 0)


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Distance row from source as a read-only integer array."""
    _check_vertex(g, source)
    return _distance_row(_neighbour_lists(g), source)


def _distance_row(nbr_lists: Sequence[Sequence[int]], source: int) -> np.ndarray:
    """``bfs_distances`` over neighbour lists that the caller built."""
    out = np.array(_bfs_row(nbr_lists, source), dtype=np.int32)
    if out.min() < 0:
        raise DisconnectedError("graph is disconnected")
    out.setflags(write=False)
    return out


def _degrees(g: Graph) -> np.ndarray:
    return np.diff(g.neighbor_offsets, append=len(g.flat_neighbors))


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Each edge once, as sorted index arrays (tails, heads), tail < head."""
    tails = np.repeat(np.arange(g.n), _degrees(g))
    forward = tails < g.flat_neighbors
    return tails[forward], g.flat_neighbors[forward]


def _neighbour_or(g: Graph, words: np.ndarray) -> np.ndarray:
    """Per vertex, the OR of its neighbours' words. Needs every vertex to
    have a neighbour when g has edges: ``reduceat`` misreads an empty CSR
    segment."""
    if not len(g.flat_neighbors):
        return np.zeros_like(words)
    return np.bitwise_or.reduceat(words[g.flat_neighbors], g.neighbor_offsets)


_WORD_BITS = 64


def _word_budget(g: Graph, k: int) -> int:
    """Most BFS levels a word-parallel walk of k sources may take.

    The walk costs about levels x (n + m) word operations; k separate BFS
    rows cost k x (n + m) Python steps, each 10 to 17 times dearer than a
    word operation (measured on sparse random graphs, paths and grids).
    Capping levels x n at k x (n + m), 2k to 4k levels on sparse graphs,
    keeps the walk cheaper than the rows on graphs of any diameter;
    deeper graphs (paths, long cycles, large grids) go back to one row
    per source.
    """
    return k * (g.n + g.edge_count) // g.n


def _kept_levels(g: Graph) -> int:
    """Most BFS levels a walk may keep at once: 4(n + 2m) / n levels of n
    words, four times the CSR arrays, about what one BFS row and one
    ``geodesic_sweep`` allocate, so a closure that sweeps its levels back
    holds no more than the row-per-member path."""
    return 4 * (g.n + 2 * g.edge_count) // g.n


def _level_words(
    g: Graph, sources: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """BFS levels of at most 64 distinct sources at once, one bit per
    source, as pairs ``(level, spread)``: bit i of ``level[v]`` is set iff
    d(sources[i], v) = d for the d-th pair, and ``spread`` is the OR of
    ``level`` over the neighbours of each vertex.

    The next level is ``spread`` masked by the visited words: the
    word-parallel BFS of Akiba, Iwata and Yoshida (SIGMOD 2013), one
    ``reduceat`` per level. Raises :class:`DisconnectedError`, once the
    levels run out, when some source has not reached every vertex; a
    caller that stops early leaves that check to its fallback.
    """
    sources = np.asarray(sources, dtype=np.intp)
    k = len(sources)
    if not 1 <= k <= _WORD_BITS:
        raise ValueError(f"level words take 1 to {_WORD_BITS} sources, got {k}")
    # an isolated vertex leaves an empty CSR segment, which reduceat
    # misreads; a single vertex has no neighbours to OR
    if g.n > 1 and not _degrees(g).all():
        raise DisconnectedError("graph is disconnected")
    level = np.zeros(g.n, dtype=np.uint64)
    level[sources] = np.uint64(1) << np.arange(k, dtype=np.uint64)
    visited = level.copy()
    while level.any():
        spread = _neighbour_or(g, level)
        yield level, spread
        level = spread & ~visited
        visited |= level
    if not (visited == np.uint64((1 << k) - 1)).all():
        raise DisconnectedError("graph is disconnected")


def geodesic_sweep(g: Graph, row: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mask of the vertices on some geodesic from the source of ``row`` to
    a vertex of the boolean mask ``targets``.

    The geodesic DAG of the source u has the edges v -> w with
    d(w) = d(v) + 1. v lies on a shortest u-y path exactly when y can be
    reached from v in that DAG, so one sweep over the levels, from the far
    end back to u, marks the union of the intervals I[u, y] over the
    targets y. The forward edges are sorted by level once; each level is
    one masked scatter, so the sweep costs O(n + m log m).
    """
    reach = targets.copy()
    if not reach.any():
        return reach
    tails = np.repeat(np.arange(g.n), _degrees(g))
    heads = g.flat_neighbors
    levels = row[tails]
    # edges leaving the farthest target's level or beyond reach no target
    forward = (row[heads] == levels + 1) & (levels < row[targets].max())
    levels = levels[forward]
    order = np.argsort(levels, kind="stable")
    tails, heads = tails[forward][order], heads[forward][order]
    ends = np.cumsum(np.bincount(levels))
    for level in reversed(range(len(ends))):
        lo = ends[level - 1] if level else 0
        level_tails, level_heads = tails[lo:ends[level]], heads[lo:ends[level]]
        reach[level_tails[reach[level_heads]]] = True
    return reach


def _mask(g: Graph, vertices: Iterable[int]) -> np.ndarray:
    mask = np.zeros(g.n, dtype=bool)
    mask[list(vertices)] = True
    return mask


# ---------------------------------------------------------------------------
# intervals and geodetic closure


def interval(g: Graph, u: int, v: int) -> VertexSet:
    """Vertices on at least one shortest u-v path:
    { w : d(u,w) + d(w,v) = d(u,v) }."""
    _check_vertex(g, v)
    on_geodesic = geodesic_sweep(g, bfs_distances(g, u), _mask(g, [v]))
    return VertexSet.of(np.flatnonzero(on_geodesic), g.n)


def geodetic_closure(g: Graph, s: "VertexSet | Iterable[int]") -> VertexSet:
    """Union of intervals over all pairs of vertices in s.

    Members go 64 at a time through ``_batch_reach`` while their BFS stays
    within ``_word_budget`` and ``_kept_levels`` levels; from the first
    batch that does not, each member takes one BFS row and one
    ``geodesic_sweep``. Stops once every vertex is covered (the union
    cannot grow after that); the first batch always runs, so a
    disconnected graph is reported.
    """
    vs = _as_vertex_set(s, g.n)
    if not vs:
        raise ValueError("geodetic closure of the empty set is undefined")
    members = _mask(g, vs)
    covered = members.copy()
    targets = np.where(members, ~np.uint64(0), np.uint64(0))
    for lo in range(0, len(vs), _WORD_BITS):
        batch = vs.members[lo:lo + _WORD_BITS]
        budget = min(_word_budget(g, len(batch)), _kept_levels(g))
        reach = _batch_reach(g, batch, targets, budget)
        if reach is None:
            # too deep for the words: one row per remaining member
            nbr_lists = _neighbour_lists(g)
            for u in vs.members[lo:]:
                covered |= geodesic_sweep(g, _distance_row(nbr_lists, u), members)
                if covered.all():
                    break
            break
        covered |= reach
        if covered.all():
            break
    return VertexSet.of(np.flatnonzero(covered), g.n)


def _batch_reach(
    g: Graph, batch: Sequence[int], targets: np.ndarray, budget: int
) -> np.ndarray | None:
    """Mask of the vertices on a geodesic from a member of ``batch`` to a
    vertex whose ``targets`` word is all ones; None when the batch needs
    more than ``budget`` levels.

    Bit i of ``reach[v]`` marks v as lying on such a geodesic from
    batch[i]. One sweep over the level words, from the far end back, sets
    it where v is a target or a neighbour one level farther has it.
    """
    levels = [level for level, _ in islice(_level_words(g, batch), budget + 1)]
    if len(levels) > budget:
        return None
    reach = levels[-1] & targets
    for level in reversed(levels[:-1]):
        reach |= level & (targets | _neighbour_or(g, reach))
    return reach != 0


def is_geodetic(g: Graph, s: "VertexSet | Iterable[int]") -> bool:
    """True iff the geodetic closure of s covers every vertex."""
    return len(geodetic_closure(g, s)) == g.n


def simplicial_vertices(g: Graph) -> VertexSet:
    """Vertices whose neighborhood induces a clique."""
    nbr_lists = _neighbour_lists(g)
    out = [v for v, nbrs in enumerate(nbr_lists)
           if all(set(nbrs[i + 1:]).issubset(nbr_lists[a]) for i, a in enumerate(nbrs))]
    return VertexSet.of(out, g.n)


# ---------------------------------------------------------------------------
# standard families (test and demo substrate)


def _family_labels(vertices: "int | Sequence[str]") -> list[str]:
    if isinstance(vertices, int):
        n = vertices
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        width = len(str(n - 1))
        return [f"v{i:0{width}d}" for i in range(n)]
    labels = list(vertices)
    if not labels:
        raise ValueError("a graph needs at least one vertex")
    return labels


def path_graph(vertices: "int | Sequence[str]") -> Graph:
    """Path through the given labels in order (generated labels if an int)."""
    labels = _family_labels(vertices)
    return Graph(zip(labels, labels[1:]), vertices=labels)


def cycle_graph(vertices: "int | Sequence[str]") -> Graph:
    labels = _family_labels(vertices)
    if len(labels) < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph(list(zip(labels, labels[1:])) + [(labels[-1], labels[0])])


def complete_graph(vertices: "int | Sequence[str]") -> Graph:
    labels = _family_labels(vertices)
    edges = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    return Graph(edges, vertices=labels)


def star_graph(vertices: "int | Sequence[str]") -> Graph:
    """First label is the center, the rest are leaves."""
    labels = _family_labels(vertices)
    if len(labels) < 2:
        raise ValueError("a star needs a center and at least one leaf")
    return Graph((labels[0], leaf) for leaf in labels[1:])
