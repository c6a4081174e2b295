"""Core graph representation and metric primitives.

Vertices are arbitrary non-whitespace string labels. Internal indices are
the labels' positions in sorted order, so every derived quantity is
deterministic across runs. Graphs are simple, undirected, and immutable
after construction; all metric operations (distances, intervals, closures)
require a connected graph and raise :class:`DisconnectedError` otherwise.
The adjacency is stored once, as one sorted neighbour tuple per vertex,
which ``Graph(...)``, ``parse_graph`` and ``products.product`` all build
through ``Graph._build``; a graph keeps no other form of it. Other modules
read it only through ``g.edges()``, ``g.neighbors(v)`` and the distance
rows below. Nothing here loads numpy; ``_check_vertex`` only recognises
a numpy bool when the caller has loaded numpy.

The metric core works on single distance rows, and every row in the
package comes from one BFS, ``_bfs_row``, over the stored tuples; in the
same pass it flags the boundary of the source, the vertices with no
neighbour one level farther. ``_distance_rows`` hands out the rows of
many sources and checks connectivity, and ``bfs_distances`` hands out one
row as a tuple. One reverse sweep of the source's geodesic DAG,
``_sweep``, turns a row into interval membership, level by level over
the tuples: ``interval``, the geodomination check in boundary.py and
``geodetic_closure`` all run on it, the closure one row and one sweep
per member. Only the gx pass of ``min_gx_vertex`` (``_gx_of_sources``)
takes one row and then, below a depth, a batch of ``_batch_width``
sources at a time in the bits of one Python int per vertex, one
function walking the levels and counting as it walks (``_gx_of_batch``);
deeper graphs (paths, long cycles, grids) give every source a row.
Nothing here builds an all-pairs matrix: the brute-force oracles compute
theirs with their own BFS (oracles.py), and
``products.product_distance`` takes factor rows.
"""

from __future__ import annotations

import gc
import operator
import sys
from contextlib import contextmanager
from itertools import compress, islice
from typing import Iterable, Iterator, Sequence

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
    side by side in the rows of both its ends; only such a row drops its
    repeats, since dropping them from every row costs nearly as much as
    the rest of the build."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(tails, heads):
        adjacency[u].append(v)
        adjacency[v].append(u)
    for row in adjacency:
        row.sort()
        if any(map(operator.eq, row, islice(row, 1, None))):
            row[:] = dict.fromkeys(row)
    return tuple(map(tuple, adjacency))


def _valid_label(label: str) -> bool:
    return isinstance(label, str) and label.split() == [label] and not label.startswith(_RESERVED)


class Graph:
    """Immutable simple undirected graph over string-labeled vertices.

    ``labels`` is the sorted tuple of vertex labels; vertex ``i`` is
    ``labels[i]``, and ``neighbors(i)`` is the ascending tuple of its
    neighbours, stored once.
    """

    __slots__ = ("labels", "_index", "_adjacency", "edge_count")

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


class VertexSet:
    """Sorted, deduplicated vertex indices within a host graph of size n.

    Immutable, and equal only to a VertexSet with the same members and n.
    """

    __slots__ = ("members", "n")
    __match_args__ = ("members", "n")
    members: tuple[int, ...]
    n: int

    def __init__(self, members: tuple[int, ...], n: int):
        prev = -1
        for m in members:
            # exact ints only: a bool is an int, but no vertex index
            if type(m) is not int or not prev < m < n:
                raise ValueError(
                    f"vertex set members must be strictly ascending indices in "
                    f"[0, {n}), got {members!r}"
                )
            prev = m
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[tuple[int, ...], int]]:
        return type(self), (self.members, self.n)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.members, self.n) == (other.members, other.n)

    def __hash__(self) -> int:
        return hash((self.members, self.n))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(members={self.members!r}, n={self.n!r})"

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
    edge that reaches no vertex. No vertex lies more than n - 1 levels
    from the source, so the pass stops there at the latest: a level n - 1
    holds the far end of a path, which has no farther neighbour."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    flags = bytearray(b"\x01") * len(adjacency)
    frontier = [source]
    for d in range(1, len(adjacency)):
        if not frontier:
            break
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


def bfs_distances(g: Graph, source: int) -> tuple[int, ...]:
    """Distance row from source, a tuple of ints indexed by vertex."""
    return tuple(_distance_row(g, source)[0])


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


# the least batch width of the word walk (unless n is less), and the rows
# whose steps _word_budget weighs a batch's levels against
_MIN_BATCH = 64
# bits, 50 MB, that the n-entry int lists of a batch may hold
_WALK_BITS = 4 * 10**8


def _batch_width(n: int) -> int:
    """Sources in each batch of the gx pass's word walk, whose step holds
    four n-entry lists of ints: at least 64 and at most n. With n = 100000
    and m = 250000, batches of 1000 kept ``geodetic-heuristic`` at 133 MB
    peak RSS in 111 s, and of 1342 at 152 MB in 92 s (2-vCPU host)."""
    return min(n, max(_MIN_BATCH, _WALK_BITS // (4 * n)))


def _word_budget(g: Graph) -> int:
    """The depth of the gx pass: every source takes a BFS row once the
    first source's row is this many levels deep.

    A batch's walk pushes at most what its rows would, and fewer where the
    sources' levels share vertices, but each of its levels adds scans of
    n-entry lists in C, and a first row e levels deep bounds a batch to
    2e + 1 levels. Keeping e x n below 64 x (n + m), e below 128 to 256 on
    sparse graphs, keeps those scans within about twice the steps of 64
    rows. A shuffled 5000-vertex path is at least 2500 levels deep from
    any source, so all its sources take rows, in 3.6 s (2-vCPU host).
    """
    return _MIN_BATCH * (g.n + g.edge_count) // g.n


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

    I[u, v] = I[v, u], so member k takes one BFS row and one ``_sweep``
    toward members k onward, and the last member takes no row of its own
    unless it is the only one. Stops once every vertex is covered (the
    union cannot grow after that); the first row always runs, so a
    disconnected graph is reported.
    """
    vs = _as_vertex_set(s, g.n)
    if not vs:
        raise ValueError("geodetic closure of the empty set is undefined")
    members, covered = vs.members, bytearray(g.n)
    for k, (row, _) in enumerate(_distance_rows(g, members[:-1] or members)):
        covered = bytearray(map(operator.or_, covered, _sweep(g, row, members[k:])))
        if all(covered):
            break
    return _flagged(covered)


def _gx_of_sources(g: Graph, sources: Sequence[int]) -> list[int]:
    """gx of each source, in order.

    The first source takes a BFS row, which checks connectivity and gives
    its eccentricity e (the row's largest entry). If e reaches
    ``_word_budget``, every other source takes a row too, and its gx is
    the count of its boundary flags. Else the others go through
    ``_gx_of_batch`` a batch of ``_batch_width`` at a time:
    ecc(u) <= d(u, v) + ecc(v) <= 2 ecc(v) for all u and v (Takes and
    Kosters, CIKM 2011), so no batch's BFS has more than 2e + 1 levels.
    """
    rows = _distance_rows(g, sources)
    row, flags = next(rows)
    gx = [flags.count(1)]
    ecc = max(row)
    if ecc >= _word_budget(g):
        gx.extend(flags.count(1) for _, flags in rows)
        return gx
    width = _batch_width(g.n)
    for lo in range(1, len(sources), width):
        gx.extend(_gx_of_batch(g, sources[lo:lo + width], ecc))
    return gx


def _gx_of_batch(g: Graph, batch: Sequence[int], ecc: int) -> list[int]:
    """gx of each distinct source of ``batch``, from one BFS of them all
    at once, one int per vertex and one bit per source: bit i of
    ``level[v]`` is set iff d(batch[i], v) is the current level.

    This is the multi-source BFS of Akiba, Iwata and Yoshida (SIGMOD 2013)
    and Then et al. (PVLDB 2014): each vertex of a level pushes its int to
    its neighbours, which lie in the level before, this one or the next,
    so the next level is ``spread`` without the bits of this level and the
    one before. A vertex is in the boundary of a source unless a neighbour
    lies one level farther, so the spread masked by the level before marks
    exactly its interior vertices; the walk ORs that into ``interior``
    before it masks the spread. A bit-sliced counter then adds up the
    interior ints: bit i of ``counts[j]`` is bit j of the number of
    interior vertices of source i, and gx of source i is n minus that
    number. It does not check connectivity: ``_gx_of_sources`` takes a row
    first, which does and gives ecc, the eccentricity of some vertex, so
    the walk stops after 2 ecc + 1 levels at the latest.
    """
    n, adjacency, vertices = g.n, g._adjacency, list(range(g.n))
    level, before, interior = [0] * n, [0] * n, [0] * n
    for i, source in enumerate(batch):
        level[source] = 1 << i
    for _ in range(2 * ecc + 1):
        if not any(level):
            break
        spread = [0] * n
        for neighbours, bits in zip(compress(adjacency, level), filter(None, level)):
            for w in neighbours:
                spread[w] |= bits
        for w in compress(vertices, spread):
            bits = spread[w]
            interior[w] |= bits & before[w]
            spread[w] = bits & ~(level[w] | before[w])
        before, level = level, spread
    counts: list[int] = []
    for carry in interior:
        for j, count in enumerate(counts):
            if not carry:
                break
            counts[j], carry = count ^ carry, count & carry
        else:
            if carry:
                counts.append(carry)
    gx = [n] * len(batch)
    for j, count in enumerate(counts):
        bits = map(int, reversed(f"{count:0{len(batch)}b}"))
        gx = [size - (bit << j) for size, bit in zip(gx, bits)]
    return gx


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
