"""Boundary vertices and x-geodomination.

For a fixed source x, a vertex v is a boundary vertex of x when no
neighbor of v is farther from x than v is, i.e. d(x, w) <= d(x, v) for
all w adjacent to v. A set S x-geodominates the graph when every vertex
lies on a shortest path from x to some member of S. The two notions
coincide minimally: the boundary of x is the unique minimum
x-geodominating set, so gx equals the boundary's size.

Both questions need only the distance row of x, so the single-source
functions take ``dm=None`` and then run one BFS: the boundary is a scan
of that row over the CSR neighbours, and coverage is one geodesic sweep
(``geodesic_sweep``), each O(n + m). A ``DistanceMatrix`` supplies the
rows instead, for callers that already hold one. ``min_gx_vertex`` and
``geodetic_from_boundary`` visit every source without a matrix: the BFS
levels of 64 sources share one uint64 word per vertex (``_level_words``),
so gx for all n sources costs about ceil(n/64) x depth x (n + m) word
operations and O(n) words of memory. On graphs deeper than
``_word_budget`` allows, the sources take one BFS row each instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import (
    _WORD_BITS,
    DistanceMatrix,
    Graph,
    VertexSet,
    _as_vertex_set,
    _distance_row,
    _level_words,
    _mask,
    _word_budget,
    geodesic_sweep,
)

__all__ = [
    "BoundaryResult",
    "GeodominationCheck",
    "boundary",
    "is_x_geodominating",
    "gx_set",
    "gx",
    "theorem_check",
    "min_gx_vertex",
    "geodetic_from_boundary",
]


@dataclass(frozen=True)
class BoundaryResult:
    """Boundary of a source vertex and the geodomination number it induces."""

    source: int
    boundary: VertexSet
    gx: int


@dataclass(frozen=True)
class GeodominationCheck:
    """Outcome of testing one candidate set against one source."""

    source: int
    candidate: VertexSet
    covered: VertexSet
    is_geodominating: bool
    witness_uncovered: int | None


def boundary(g: Graph, dm: DistanceMatrix | None, x: int) -> BoundaryResult:
    """Boundary vertices of x, with gx = its size."""
    return _row_boundary(g, _distance_row(g, dm, x), x)


def _row_boundary(g: Graph, row: np.ndarray, x: int) -> BoundaryResult:
    """Boundary of x from its distance row."""
    members = VertexSet.of(np.flatnonzero(_boundary_mask(g, row)), g.n)
    return BoundaryResult(source=x, boundary=members, gx=len(members))


def _boundary_mask(g: Graph, row: np.ndarray) -> np.ndarray:
    """Mask of the vertices with no neighbour farther from the source of
    ``row``.

    A connected graph on n >= 2 vertices has no isolated vertex, so every
    reduceat segment is nonempty.
    """
    if g.n < 2:
        raise ValueError("boundary needs at least two vertices")
    farthest = np.maximum.reduceat(row[g.flat_neighbors], g.neighbor_offsets)
    return farthest <= row


def is_x_geodominating(
    g: Graph, dm: DistanceMatrix | None, x: int, s: "VertexSet | Iterable[int]"
) -> GeodominationCheck:
    """Does every vertex lie on a shortest path from x to some member of s?"""
    return _row_coverage(g, _distance_row(g, dm, x), x, s)


def _row_coverage(
    g: Graph, row: np.ndarray, x: int, s: "VertexSet | Iterable[int]"
) -> GeodominationCheck:
    """Geodomination check of s from x, given the distance row of x."""
    vs = _as_vertex_set(s, g.n)
    covered_mask = geodesic_sweep(g, row, _mask(g, vs))
    covered = VertexSet.of(np.flatnonzero(covered_mask), g.n)
    ok = len(covered) == g.n
    witness = None if ok else int(np.flatnonzero(~covered_mask)[0])
    return GeodominationCheck(
        source=x,
        candidate=vs,
        covered=covered,
        is_geodominating=ok,
        witness_uncovered=witness,
    )


def _boundary_and_coverage(
    g: Graph, x: int, s: "VertexSet | Iterable[int] | None" = None
) -> tuple[BoundaryResult, GeodominationCheck]:
    """The boundary of x and the geodomination check of s from x (of the
    boundary itself when s is None), both from one BFS row."""
    row = _distance_row(g, None, x)
    res = _row_boundary(g, row, x)
    return res, _row_coverage(g, row, x, res.boundary if s is None else s)


def gx_set(g: Graph, dm: DistanceMatrix | None, x: int) -> VertexSet:
    """The unique minimum x-geodominating set (the boundary of x)."""
    return boundary(g, dm, x).boundary


def gx(g: Graph, dm: DistanceMatrix | None, x: int) -> int:
    return boundary(g, dm, x).gx


def theorem_check(
    g: Graph, dm: DistanceMatrix | None, x: int, s: "VertexSet | Iterable[int]"
) -> bool:
    """Verify on one instance that s x-geodominates iff it contains the
    boundary of x. Returns True when both routes agree."""
    vs = _as_vertex_set(s, g.n)
    direct = is_x_geodominating(g, dm, x, vs).is_geodominating
    via_boundary = boundary(g, dm, x).boundary.issubset(vs)
    return direct == via_boundary


def _gx_of_sources(g: Graph, sources: range) -> np.ndarray | None:
    """gx of each of at most 64 sources; None when their BFS needs more
    levels than ``_word_budget`` allows.

    A vertex is in the boundary of a source unless a neighbour lies one
    level farther. The spread of level d, masked by the levels before d,
    marks exactly the vertices of level d - 1 with such a neighbour, so
    the OR of those masks over all levels is the interior word; gx of
    source i is n minus the number of vertices with interior bit i set.
    """
    budget = _word_budget(g, len(sources))
    interior = np.zeros(g.n, dtype=np.uint64)
    before = np.zeros(g.n, dtype=np.uint64)
    for depth, (level, spread) in enumerate(_level_words(g, sources)):
        if depth == budget:
            return None
        interior |= spread & before
        before |= level
    bits = np.unpackbits(interior.astype("<u8").view(np.uint8), bitorder="little")
    return g.n - bits.reshape(g.n, _WORD_BITS).sum(axis=0)[: len(sources)]


def min_gx_vertex(g: Graph) -> tuple[int, int]:
    """Vertex minimizing gx, ties broken by index; returns (vertex, gx).

    Sources go 64 at a time through ``_gx_of_sources``; once a batch is
    too deep for it, the remaining sources take one BFS row each.
    """
    if g.n < 2:
        raise ValueError("boundary needs at least two vertices")
    sizes: list[int] = []
    for lo in range(0, g.n, _WORD_BITS):
        batch = _gx_of_sources(g, range(lo, min(lo + _WORD_BITS, g.n)))
        if batch is None:
            sizes.extend(
                int(np.count_nonzero(_boundary_mask(g, _distance_row(g, None, x))))
                for x in range(lo, g.n)
            )
            break
        sizes.extend(batch.tolist())
    x = int(np.argmin(sizes))
    return x, sizes[x]


def geodetic_from_boundary(g: Graph) -> VertexSet:
    """Geodetic set of size (min over x of gx) + 1: the boundary of a
    minimizing vertex together with that vertex itself."""
    x, _ = min_gx_vertex(g)
    return _boundary_with_source(g, x)


def _boundary_with_source(g: Graph, x: int) -> VertexSet:
    """The boundary of x together with x itself: a geodetic set of size
    gx + 1, since every vertex lies on a geodesic from x to the boundary."""
    return VertexSet.of([*boundary(g, None, x).boundary, x], g.n)
