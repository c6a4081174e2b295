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
rows instead, for callers that already hold one; ``min_gx_vertex`` and
``geodetic_from_boundary`` visit every source and require it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import (
    DistanceMatrix,
    Graph,
    VertexSet,
    _as_vertex_set,
    _check_matrix,
    _distance_row,
    _mask,
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


def _boundary_mask(g: Graph, row: np.ndarray) -> np.ndarray:
    """Boolean mask over vertices: no neighbor is farther from the source
    of ``row``.

    Isolated-vertex-free by construction (connected, n >= 2), so every
    vertex has at least one neighbor and reduceat segments are nonempty.
    """
    seg_max = np.maximum.reduceat(row[g.flat_neighbors], g.neighbor_offsets)
    return seg_max <= row


def boundary(g: Graph, dm: DistanceMatrix | None, x: int) -> BoundaryResult:
    """Boundary vertices of x, with gx = its size."""
    row = _distance_row(g, dm, x)
    if g.n < 2:
        raise ValueError("boundary needs at least two vertices")
    mask = _boundary_mask(g, row)
    members = VertexSet.of(np.flatnonzero(mask), g.n)
    return BoundaryResult(source=x, boundary=members, gx=len(members))


def is_x_geodominating(
    g: Graph, dm: DistanceMatrix | None, x: int, s: "VertexSet | Iterable[int]"
) -> GeodominationCheck:
    """Does every vertex lie on a shortest path from x to some member of s?"""
    row = _distance_row(g, dm, x)
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


def min_gx_vertex(g: Graph, dm: DistanceMatrix) -> tuple[int, int]:
    """Vertex minimizing gx, ties broken by index; returns (vertex, gx)."""
    _check_matrix(g, dm)
    if g.n < 2:
        raise ValueError("boundary needs at least two vertices")
    best_x = 0
    best = int(np.count_nonzero(_boundary_mask(g, dm.row(0))))
    for x in range(1, g.n):
        size = int(np.count_nonzero(_boundary_mask(g, dm.row(x))))
        if size < best:
            best_x, best = x, size
    return best_x, best


def geodetic_from_boundary(g: Graph, dm: DistanceMatrix) -> VertexSet:
    """Geodetic set of size (min over x of gx) + 1: the boundary of a
    minimizing vertex together with that vertex itself."""
    x, _ = min_gx_vertex(g, dm)
    return _boundary_with_source(g, dm, x)


def _boundary_with_source(g: Graph, dm: DistanceMatrix | None, x: int) -> VertexSet:
    """The boundary of x together with x itself: a geodetic set of size
    gx + 1, since every vertex lies on a geodesic from x to the boundary."""
    return VertexSet.of([*boundary(g, dm, x).boundary, x], g.n)
