"""Core graph representation and metric primitives.

Vertices are arbitrary non-whitespace string labels. Internal indices are
the labels' positions in sorted order, so every derived quantity is
deterministic across runs. Graphs are simple, undirected, and immutable
after construction; all metric operations (distances, intervals, closures)
require a connected graph and raise :class:`DisconnectedError` otherwise.
The adjacency is stored once, as one sorted neighbour tuple per vertex,
which ``Graph(...)``, ``parse_graph`` and ``products.product`` all build
through ``Graph._build``. Other modules read it only through
``g.edges()``, ``g.neighbors(v)`` and the distance rows below. The word
walk's CSR arrays (``Graph._csr``) are derived from the tuples on first
use, kept, and read by ``_neighbour_or`` alone. numpy is imported there
and in the functions that take or return arrays, so the single-source
path (``boundary``, ``is_x_geodominating``, ``interval``, parsing and
emitting) runs without it.

The metric core works on single distance rows, and every row in the
package comes from one BFS, ``_bfs_row``, over the stored tuples; in the
same pass it flags the boundary of the source, the vertices with no
neighbour one level farther. ``_distance_rows`` hands out the rows of
many sources and checks connectivity, and ``bfs_distances`` converts one
row to an array. ``interval`` takes its row from one BFS, O(n + m), and
``_sweep`` turns a row into interval membership by one reverse sweep of
the source's geodesic DAG, level by level over the tuples.
Every all-source pass (``geodetic_closure`` and ``_gx_of_sources``, which
``min_gx_vertex`` in boundary.py calls) runs one schedule,
``_source_schedule``: sources in any order, 64 at a time in the bits of
one uint64 word per vertex (``_level_words``), about depth x (n + m) word
operations per batch. Only ``_batch_reach`` and ``_gx_of_levels`` read
those words.
``_word_budget`` caps the depth at |batch| x (n + m) / n levels, and the
closure, which keeps its levels, at ``_kept_levels``; from the first
batch deeper than that (paths, long cycles, grids), each source left
takes one distance row. Nothing here builds an all-pairs matrix: the
brute-force oracles compute theirs with their own BFS (bitmasks.py), and
``products.product_distance`` takes factor rows.
"""

from __future__ import annotations

import gc
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice, starmap
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
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


@contextmanager
def _gc_paused() -> Iterator[None]:
    """The cyclic garbage collector off for a block that allocates many
    containers and makes no reference cycles, then back as it was."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _neighbour_tuples(
    n: int, tails: Iterable[int], heads: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """The ascending neighbour tuple of each of n vertices, given the edges
    as index pairs. Both ends of each edge append to a per-vertex list,
    and each list is sorted. A repeated edge leaves two equal neighbours
    side by side; only then do sets drop the repeats, since a set per
    vertex costs nearly as much as the rest of the build."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(tails, heads):
        adjacency[u].append(v)
        adjacency[v].append(u)
    for row in adjacency:
        row.sort()
    # every row followed by -1 - v, so that no two rows meet
    ends = zip(range(-1, -n - 1, -1))
    flat = list(chain.from_iterable(chain.from_iterable(zip(adjacency, ends))))
    if any(map(operator.eq, flat, islice(flat, 1, None))):
        adjacency = [sorted(set(row)) for row in adjacency]
    return tuple(map(tuple, adjacency))


def _valid_label(label: str) -> bool:
    return isinstance(label, str) and label.split() == [label] and not label.startswith(_RESERVED)


class Graph:
    """Immutable simple undirected graph over string-labeled vertices.

    ``labels`` is the sorted tuple of vertex labels; vertex ``i`` is
    ``labels[i]``, and ``neighbors(i)`` is the ascending tuple of its
    neighbours, stored once.
    """

    __slots__ = ("labels", "_index", "_adjacency", "_csr_arrays", "edge_count")

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
        edges as index lists into them; returns ``order``, where vertex i
        is labels[order[i]]. Callers with labels valid by construction call
        it on ``Graph.__new__(Graph)``, skipping the checks of __init__.

        The neighbour tuples come from ``_neighbour_tuples`` with the
        garbage collector paused, since they are many containers and no
        cycles: parsing a graph with n = 100000 and m = 250000 spent 87 ms
        in collections, and 26 ms with the pause (2-vCPU host)."""
        n = len(labels)
        order = sorted(range(n), key=labels.__getitem__)
        rank = [0] * n
        for i, label_index in enumerate(order):
            rank[label_index] = i
        with _gc_paused():
            self._adjacency: tuple[tuple[int, ...], ...] = _neighbour_tuples(
                n, map(rank.__getitem__, tails), map(rank.__getitem__, heads)
            )
        self.labels: tuple[str, ...] = tuple(map(labels.__getitem__, order))
        self._index: dict[str, int] = dict(zip(self.labels, range(n)))
        self.edge_count: int = sum(map(len, self._adjacency)) // 2
        self._csr_arrays: tuple[np.ndarray, np.ndarray] | None = None
        return order

    @property
    def n(self) -> int:
        return len(self.labels)

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat, offsets), read-only intp arrays made from the neighbour
        tuples at the first call and kept: the neighbours of i run from
        ``flat[offsets[i]]`` to the next offset."""
        if self._csr_arrays is None:
            import numpy as np

            flat = np.fromiter(chain.from_iterable(self._adjacency), np.intp, 2 * self.edge_count)
            offsets = np.zeros(self.n, dtype=np.intp)
            np.cumsum(np.fromiter(map(len, self._adjacency[:-1]), np.intp), out=offsets[1:])
            flat.setflags(write=False)
            offsets.setflags(write=False)
            self._csr_arrays = flat, offsets
        return self._csr_arrays

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label {label!r}") from None

    def label(self, v: int) -> str:
        return self.labels[_check_vertex(self, v)]

    def labels_of(self, vertices: Iterable[int]) -> list[str]:
        """Labels of the given indices; ascending indices give sorted labels.
        A VertexSet of this graph's size holds checked indices already."""
        if not (isinstance(vertices, VertexSet) and vertices.n == self.n):
            vertices = [_check_vertex(self, v) for v in vertices]
        return [self.labels[v] for v in vertices]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[_check_vertex(self, v)]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        v = _check_vertex(self, v)
        return v in self.neighbors(u)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as an index pair (u, v) with u < v, sorted."""
        return ((u, v) for u, nbrs in enumerate(self._adjacency) for v in nbrs if u < v)

    def _key(self) -> tuple:
        return self.labels, self._adjacency

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
            # exact ints only: a bool is an int, but no vertex index
            if type(m) is not int or not prev < m < self.n:
                raise ValueError(
                    f"vertex set members must be strictly ascending indices in "
                    f"[0, {self.n}), got {self.members!r}"
                )
            prev = m

    @classmethod
    def of(cls, items: Iterable[int], n: int) -> "VertexSet":
        """The set of items, which are ints or numpy integers; a float or
        a bool (a mask entry) is refused, not read as an index."""
        return cls(tuple(sorted({_vertex_index(i) for i in items})), n)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: object) -> bool:
        try:
            return _vertex_index(v) in self.members
        except (TypeError, ValueError):
            return False

    def __bool__(self) -> bool:
        return bool(self.members)

    def issubset(self, other: Iterable[int]) -> bool:
        return set(self.members) <= {_vertex_index(i) for i in other}


def _vertex_index(i: int) -> int:
    if isinstance(i, bool):
        raise ValueError(f"a vertex index cannot be the bool {i!r}")
    return operator.index(i)


def _as_vertex_set(s: "VertexSet | Iterable[int]", n: int) -> VertexSet:
    if isinstance(s, VertexSet):
        if s.n != n:
            raise ValueError(f"vertex set is for a graph of size {s.n}, not {n}")
        return s
    return VertexSet.of(s, n)


def _flagged(flags: bytearray) -> VertexSet:
    """The vertices whose byte in flags is nonzero, already ascending."""
    return VertexSet(tuple(compress(range(len(flags)), flags)), len(flags))


def _check_vertex(g: Graph, v: int, what: str = "vertex") -> int:
    """v as an int, once it is known to be a vertex of g; a float raises
    TypeError, and a bool ValueError, a numpy bool too (there is none
    unless numpy is loaded)."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(v, np.bool_):
        v = bool(v)
    v = _vertex_index(v)
    if not 0 <= v < g.n:
        raise ValueError(f"{what} index {v} out of range [0, {g.n})")
    return v


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
        parts = raw.split()
        # anything but an edge line: a blank line, a comment, a declaration
        if len(parts) != 2 or parts[0].startswith(_RESERVED):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("vertices:"):
                for label in line[len("vertices:"):].split():
                    index.setdefault(label, len(index))
                continue
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


def _bfs_row(adjacency: Sequence[Sequence[int]], source: int) -> tuple[list[int], bytearray]:
    """Hop counts from source, -1 marking unreachable vertices, and the
    source's boundary flags: byte v is 0 when v has a neighbour one level
    farther, else 1.

    Scanning a vertex u of level d - 1 meets each neighbour of level d:
    one not reached yet, which u reaches, or one reached earlier in the
    same level. Either way u has a neighbour farther than itself, so the
    pass that makes the row gives the flags too, for one comparison per
    edge that reaches no vertex."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    flags = bytearray(b"\x01") * len(adjacency)
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
                    flags[u] = 0
                elif dist[w] == d:
                    flags[u] = 0
        frontier = nxt
    return dist, flags


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    return -1 not in _bfs_row(g._adjacency, 0)[0]


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Distance row from source as a read-only integer array."""
    import numpy as np

    row = np.array(_distance_row(g, source)[0], dtype=np.int32)
    row.setflags(write=False)
    return row


def _distance_row(g: Graph, source: int) -> tuple[list[int], bytearray]:
    """``_bfs_row`` of one checked source of a connected graph."""
    return next(_distance_rows(g, (_check_vertex(g, source),)))


def _distance_rows(g: Graph, sources: Iterable[int]) -> Iterator[tuple[list[int], bytearray]]:
    """The ``_bfs_row`` of each source in turn; raises
    :class:`DisconnectedError` on a disconnected graph, which the first
    row shows, so no later row is scanned for it."""
    for k, source in enumerate(sources):
        row, flags = _bfs_row(g._adjacency, source)
        if not k and -1 in row:
            raise DisconnectedError("graph is disconnected")
        yield row, flags


def _neighbour_or(g: Graph, words: np.ndarray) -> np.ndarray:
    """Per vertex, the OR of its neighbours' words. Needs every vertex to
    have a neighbour when g has edges: ``reduceat`` misreads an empty CSR
    segment."""
    import numpy as np

    if not g.edge_count:
        return np.zeros_like(words)
    flat, offsets = g._csr()
    return np.bitwise_or.reduceat(words[flat], offsets)


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
    ``_sweep`` allocate, so a closure that sweeps its levels back holds
    no more than the row-per-member path."""
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
    import numpy as np

    sources = np.asarray(sources, dtype=np.intp)
    k = len(sources)
    if not 1 <= k <= _WORD_BITS:
        raise ValueError(f"level words take 1 to {_WORD_BITS} sources, got {k}")
    # an isolated vertex leaves an empty CSR segment, which reduceat
    # misreads; a single vertex has no neighbours to OR
    if g.n > 1 and not all(g._adjacency):
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


def _source_schedule(
    g: Graph, sources: Sequence[int], word_step: Callable, row_step: Callable, *, cap: int
) -> Iterator:
    """``word_step(batch, levels)`` on the ``_level_words`` of each batch of
    64 sources, in order, until one takes more than min(``_word_budget``,
    cap) levels; from that batch on, ``row_step(row, flags)`` on the
    ``_distance_rows`` of each source left. Yields each result as it comes,
    so a caller that has its answer leaves its loop and no further batch
    or row runs. A step sees at most the budget of levels, and a deeper
    batch's is thrown away.
    """
    for lo in range(0, len(sources), _WORD_BITS):
        batch = sources[lo:lo + _WORD_BITS]
        walk = _level_words(g, batch)
        result = word_step(batch, islice(walk, min(_word_budget(g, len(batch)), cap)))
        if next(walk, None) is None:
            yield result
            continue
        yield from starmap(row_step, _distance_rows(g, sources[lo:]))
        return


def _sweep(g: Graph, row: Sequence[int], targets: Iterable[int]) -> bytearray:
    """Flags of the vertices on some geodesic from the source of the
    distance row ``row`` to a vertex of ``targets``.

    The geodesic DAG of the source u has the edges v -> w with
    d(w) = d(v) + 1. v lies on a shortest u-y path exactly when y can be
    reached from v in that DAG, so one sweep over the levels, from the
    farthest target's back to u, flags v when it is a target or has a
    flagged neighbour one level farther: O(n + m).
    """
    reach = bytearray(len(row))
    far = -1
    for t in targets:
        reach[t] = 1
        far = max(far, row[t])
    # levels nearer than the farthest target; no vertex beyond it is flagged
    levels: list[list[int]] = [[] for _ in range(far)]
    for v, d in enumerate(row):
        if d < far:
            levels[d].append(v)
    adjacency = g._adjacency
    for farther in range(far, 0, -1):
        for v in levels[farther - 1]:
            if not reach[v]:
                for w in adjacency[v]:
                    if reach[w] and row[w] == farther:
                        reach[v] = 1
                        break
    return reach


# ---------------------------------------------------------------------------
# intervals and geodetic closure


def interval(g: Graph, u: int, v: int) -> VertexSet:
    """Vertices on at least one shortest u-v path:
    { w : d(u,w) + d(w,v) = d(u,v) }."""
    row, _ = _distance_row(g, u)
    return _flagged(_sweep(g, row, (_check_vertex(g, v),)))


def geodetic_closure(g: Graph, s: "VertexSet | Iterable[int]") -> VertexSet:
    """Union of intervals over all pairs of vertices in s.

    The members go through ``_source_schedule``, keeping at most
    ``_kept_levels`` levels: 64 at a time through ``_batch_reach``, or one
    BFS row and one ``_sweep`` each. Stops once every vertex is covered
    (the union cannot grow after that); the first batch always runs, so a
    disconnected graph is reported.
    """
    import numpy as np

    vs = _as_vertex_set(s, g.n)
    if not vs:
        raise ValueError("geodetic closure of the empty set is undefined")
    members = np.zeros(g.n, dtype=bool)
    members[list(vs)] = True
    covered = members.copy()
    targets = np.where(members, ~np.uint64(0), np.uint64(0))
    for reach in _source_schedule(
        g, vs.members,
        lambda _, levels: _batch_reach(g, targets, levels),
        lambda row, _: np.frombuffer(_sweep(g, row, vs), dtype=bool),
        cap=_kept_levels(g),
    ):
        covered |= reach
        if covered.all():
            break
    return VertexSet(tuple(np.flatnonzero(covered).tolist()), g.n)


def _batch_reach(g: Graph, targets: np.ndarray, levels: Iterable) -> np.ndarray:
    """Mask of the vertices on a geodesic from a source of the level
    words ``levels`` to a vertex whose ``targets`` word is all ones.

    Bit i of ``reach[v]`` marks v as lying on such a geodesic from
    source i. One sweep over the level words, from the far end back, sets
    it where v is a target or a neighbour one level farther has it.
    """
    levels = [level for level, _ in levels]
    reach = levels[-1] & targets
    for level in reversed(levels[:-1]):
        reach |= level & (targets | _neighbour_or(g, reach))
    return reach != 0


def _gx_of_sources(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """gx of each source, in order, from ``_source_schedule``: 64 sources
    at a time through ``_gx_of_levels``, or the boundary flags of one BFS
    row each."""
    import numpy as np

    return np.hstack(list(_source_schedule(
        g, sources, partial(_gx_of_levels, g),
        lambda _, flags: flags.count(1),
        cap=g.n,  # no BFS has more than n levels
    )))


def _gx_of_levels(g: Graph, batch: Sequence[int], levels: Iterable) -> np.ndarray:
    """gx of each source of ``batch`` from its level words ``levels``.

    A vertex is in the boundary of a source unless a neighbour lies one
    level farther. The spread of level d, masked by the levels before d,
    marks exactly the vertices of level d - 1 with such a neighbour, so
    the OR of those masks over all levels is the interior word; gx of
    source i is n minus the number of vertices with interior bit i set.
    """
    import numpy as np

    interior = np.zeros(g.n, dtype=np.uint64)
    before = np.zeros(g.n, dtype=np.uint64)
    for level, spread in levels:
        interior |= spread & before
        before |= level
    bits = np.unpackbits(interior.astype("<u8").view(np.uint8), bitorder="little")
    return g.n - bits.reshape(g.n, _WORD_BITS).sum(axis=0)[: len(batch)]


def is_geodetic(g: Graph, s: "VertexSet | Iterable[int]") -> bool:
    """True iff the geodetic closure of s covers every vertex."""
    return len(geodetic_closure(g, s)) == g.n


def simplicial_vertices(g: Graph) -> VertexSet:
    """Vertices whose neighborhood induces a clique."""
    adjacency = g._adjacency
    out = [v for v, nbrs in enumerate(adjacency)
           if all(set(nbrs[i + 1:]).issubset(adjacency[a]) for i, a in enumerate(nbrs))]
    return VertexSet(tuple(out), g.n)


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
