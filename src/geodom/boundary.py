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
the neighbour tuples (``graph._sweep``): each O(n + m), and neither loads
numpy. ``min_gx_vertex`` and ``geodetic_from_boundary`` visit every
source without a matrix, on the word-parallel BFS or the row fallback
that graph.py's ``_source_schedule`` picks (its module docstring has the
schedule); they load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Sequence

from .graph import (
    _WORD_BITS,
    Graph,
    VertexSet,
    _as_vertex_set,
    _distance_row,
    _flagged,
    _source_schedule,
    _sweep,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GeodominationCheck",
    "boundary",
    "is_x_geodominating",
    "min_gx_vertex",
    "geodetic_from_boundary",
]


@dataclass(frozen=True)
class GeodominationCheck:
    """Outcome of testing one candidate set against one source: the
    vertices its geodesics cover, and the first one they miss."""

    covered: VertexSet
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
        covered=_flagged(reach),
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


def min_gx_vertex(g: Graph) -> tuple[int, int]:
    """Vertex minimizing gx, ties broken by index; returns (vertex, gx)."""
    if g.n < 2:
        raise ValueError("boundary needs at least two vertices")
    sizes = _gx_of_sources(g, range(g.n))
    x = int(sizes.argmin())
    return x, int(sizes[x])


def geodetic_from_boundary(g: Graph) -> VertexSet:
    """Geodetic set of size (min over x of gx) + 1: the boundary of a
    minimizing vertex together with that vertex itself."""
    x, _ = min_gx_vertex(g)
    return _boundary_with_source(g, x)


def _boundary_with_source(g: Graph, x: int) -> VertexSet:
    """The boundary of x together with x itself: a geodetic set of size
    gx + 1, since every vertex lies on a geodesic from x to the boundary."""
    return VertexSet.of([*boundary(g, x), x], g.n)
