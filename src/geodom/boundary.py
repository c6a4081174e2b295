"""Boundary vertices and x-geodomination.

For a fixed source x, a vertex v is a boundary vertex of x when no
neighbor of v is farther from x than v is, i.e. d(x, w) <= d(x, v) for
all w adjacent to v. A set S x-geodominates the graph when every vertex
lies on a shortest path from x to some member of S. The two notions
coincide minimally: the boundary of x is the unique minimum
x-geodominating set, so gx equals the boundary's size.

Both questions need only the distance row of x, so ``boundary`` and
``is_x_geodominating`` run one BFS (``bfs_distances``): the boundary is a
scan of that row over the CSR neighbours, and coverage is one geodesic
sweep (``geodesic_sweep``), each O(n + m). ``min_gx_vertex`` and
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
    Graph,
    VertexSet,
    _as_vertex_set,
    _distance_row,
    _level_words,
    _mask,
    _neighbour_lists,
    _word_budget,
    bfs_distances,
    geodesic_sweep,
)

__all__ = [
    "BoundaryResult",
    "GeodominationCheck",
    "boundary",
    "is_x_geodominating",
    "min_gx_vertex",
    "geodetic_from_boundary",
]


@dataclass(frozen=True)
class BoundaryResult:
    """Boundary of a source vertex and the geodomination number it induces."""

    boundary: VertexSet
    gx: int


@dataclass(frozen=True)
class GeodominationCheck:
    """Outcome of testing one candidate set against one source: the
    vertices its geodesics cover, and the first one they miss."""

    covered: VertexSet
    is_geodominating: bool
    witness_uncovered: int | None


def boundary(g: Graph, x: int) -> BoundaryResult:
    """Boundary vertices of x, with gx = its size."""
    return _row_boundary(g, bfs_distances(g, x))


def _row_boundary(g: Graph, row: np.ndarray) -> BoundaryResult:
    """Boundary of the source of a distance row."""
    if g.n < 2:
        raise ValueError("boundary needs at least two vertices")
    mask = _boundary_mask(g.flat_neighbors, g.neighbor_offsets, row)
    members = VertexSet.of(np.flatnonzero(mask), g.n)
    return BoundaryResult(boundary=members, gx=len(members))


def _boundary_mask(
    flat_neighbors: np.ndarray, neighbor_offsets: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """Mask of the vertices with no neighbour farther from the source of
    ``row``, in the graph with these CSR arrays.

    Every vertex needs a neighbour, so that every reduceat segment is
    nonempty: a connected graph on n >= 2 vertices, or a disjoint union of
    such graphs, has no isolated vertex.
    """
    farthest = np.maximum.reduceat(row[flat_neighbors], neighbor_offsets)
    return farthest <= row


def is_x_geodominating(g: Graph, x: int, s: "VertexSet | Iterable[int]") -> GeodominationCheck:
    """Does every vertex lie on a shortest path from x to some member of s?"""
    return _row_coverage(g, bfs_distances(g, x), s)


def _row_coverage(g: Graph, row: np.ndarray, s: "VertexSet | Iterable[int]") -> GeodominationCheck:
    """Geodomination check of s from the source of a distance row."""
    covered_mask = geodesic_sweep(g, row, _mask(g, _as_vertex_set(s, g.n)))
    covered = VertexSet.of(np.flatnonzero(covered_mask), g.n)
    ok = len(covered) == g.n
    witness = None if ok else int(np.flatnonzero(~covered_mask)[0])
    return GeodominationCheck(
        covered=covered, is_geodominating=ok, witness_uncovered=witness
    )


def _boundary_and_coverage(
    g: Graph, x: int, s: "VertexSet | Iterable[int] | None" = None
) -> tuple[BoundaryResult, GeodominationCheck]:
    """The boundary of x and the geodomination check of s from x (of the
    boundary itself when s is None), both from one BFS row."""
    row = bfs_distances(g, x)
    res = _row_boundary(g, row)
    return res, _row_coverage(g, row, res.boundary if s is None else s)


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
            csr = g.flat_neighbors, g.neighbor_offsets
            nbr_lists = _neighbour_lists(g)
            sizes.extend(
                int(np.count_nonzero(_boundary_mask(*csr, _distance_row(nbr_lists, x))))
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
    return VertexSet.of([*boundary(g, x).boundary, x], g.n)
