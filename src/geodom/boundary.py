"""Boundary vertices and x-geodomination.

For a fixed source x, a vertex v is a boundary vertex of x when no
neighbor of v is farther from x than v is, i.e. d(x, w) <= d(x, v) for
all w adjacent to v. A set S x-geodominates the graph when every vertex
lies on a shortest path from x to some member of S. The two notions
coincide minimally: the boundary of x is the unique minimum
x-geodominating set, so gx equals the boundary's size.

Both questions need only the distance row of x. The one BFS of graph.py
(``_bfs_row``) flags the boundary in the pass that makes the row, so
``boundary`` reads those flags, and coverage is one geodesic sweep over
the neighbour tuples (``graph._sweep``): each O(n + m). ``min_gx_vertex``
and ``geodetic_from_boundary`` visit every source without a matrix:
graph.py's ``_gx_of_sources`` gives gx of each source, on the bit-parallel
BFS over Python ints or the row fallback (graph.py's module docstring has
the schedule). Nothing here loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Graph,
    VertexSet,
    _as_vertex_set,
    _distance_row,
    _flagged,
    _gx_of_sources,
    _sweep,
    is_geodetic,
)

__all__ = [
    "GeodominationCheck",
    "boundary",
    "is_x_geodominating",
    "min_gx_vertex",
    "geodetic_from_boundary",
]


@dataclass(frozen=True)
class GeodominationCheck:
    """Outcome of testing one candidate set against one source: whether
    its geodesics cover every vertex, and the first one they miss."""

    is_geodominating: bool
    witness_uncovered: int | None


def boundary(g: Graph, x: int) -> VertexSet:
    """Boundary vertices of x: the unique minimum x-geodominating set, so
    gx is its size."""
    return _boundary_and_row(g, x)[0]


def _boundary_and_row(g: Graph, x: int) -> tuple[VertexSet, list[int]]:
    """The boundary of x and the distance row of x, from one BFS."""
    row, flags = _distance_row(g, x)
    if g.n < 2:
        raise ValueError("boundary needs at least two vertices")
    return _flagged(flags), row


def is_x_geodominating(g: Graph, x: int, s: "VertexSet | Iterable[int]") -> GeodominationCheck:
    """Does every vertex lie on a shortest path from x to some member of s?"""
    return _row_coverage(g, _distance_row(g, x)[0], s)


def _row_coverage(g: Graph, row: list[int], s: "VertexSet | Iterable[int]") -> GeodominationCheck:
    """Geodomination check of s from the source of a distance row."""
    reach = _sweep(g, row, _as_vertex_set(s, g.n))
    uncovered = reach.find(0)
    return GeodominationCheck(
        is_geodominating=uncovered < 0,
        witness_uncovered=None if uncovered < 0 else uncovered,
    )


def _boundary_and_coverage(
    g: Graph, x: int, s: "VertexSet | Iterable[int] | None" = None
) -> tuple[VertexSet, GeodominationCheck]:
    """The boundary of x and the geodomination check of s from x (of the
    boundary itself when s is None), both from one BFS row."""
    members, row = _boundary_and_row(g, x)
    return members, _row_coverage(g, row, members if s is None else s)


def min_gx_vertex(g: Graph) -> tuple[int, int]:
    """Vertex minimizing gx, ties broken by index; returns (vertex, gx)."""
    if g.n < 2:
        raise ValueError("boundary needs at least two vertices")
    sizes = _gx_of_sources(g, range(g.n))
    x = sizes.index(min(sizes))
    return x, sizes[x]


def geodetic_from_boundary(g: Graph) -> VertexSet:
    """Geodetic set of size (min over x of gx) + 1: the boundary of a
    minimizing vertex together with that vertex itself."""
    x, _ = min_gx_vertex(g)
    return _boundary_with_source(g, x)[0]


def _boundary_with_source(g: Graph, x: int) -> tuple[VertexSet, bool]:
    """The boundary of x together with x itself, and whether that set is
    geodetic: it is when the boundary x-geodominates, else the closure says."""
    members, chk = _boundary_and_coverage(g, x)
    s = VertexSet.of([*members, x], g.n)
    return s, chk.is_geodominating or is_geodetic(g, s)
