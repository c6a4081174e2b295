"""Edge masks and neighbour bitmasks: the array stage of the oracles.

Every edge set on n <= 7 vertices is an integer mask, produced in chunks
in (edge count, combinations rank) order together with per-vertex
neighbour bitmasks (``_mask_chunks``); graphs of any size stack into the
same bitmask rows (``_stacked_bits``, from each graph's ``neighbors``),
which ``_unpack`` spreads into the stage's own adjacency. One
bit-frontier BFS per chunk (``_levels``) gives connectivity, distances
and geodesic sweeps, and ``_interval_bits`` the intervals I[x, y] from
those distances, so the oracles built on it call none of the BFS code of
graph.py that they check. The brute-force searches, exhaustive
enumeration, the simplicial counterexample search and the theorem sweep
in oracles.py share this stage.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

import numpy as np

from .graph import Graph

# edge masks per array pass; larger chunks gain little speed and raise
# the peak memory of the search
_CHUNK = 1 << 12


def _all_pairs_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _neighbour_bits(
    n: int, pairs: Sequence[tuple[int, int]], masks: np.ndarray
) -> np.ndarray:
    """nbrs[k, v]: the neighbour bitmask of vertex v in edge mask k, where
    pair p of pairs is bit len(pairs) - 1 - p."""
    top = len(pairs) - 1
    nbrs = np.zeros((len(masks), n), dtype=np.uint8)
    for p, (i, j) in enumerate(pairs):
        edge = ((masks >> (top - p)) & 1).astype(np.uint8)
        nbrs[:, i] |= edge << np.uint8(j)
        nbrs[:, j] |= edge << np.uint8(i)
    return nbrs


def _mask_chunks(n: int, chunk: int = _CHUNK) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(masks, nbrs) for every edge set on n vertices, by edge count
    ascending then combinations rank, at most chunk masks at a time.

    Pair p of _all_pairs_list(n) is bit P - 1 - p of a mask, so the
    combinations order of each edge count is descending mask order. A mask
    is a high and a low half: descending order runs the high halves
    downwards and, under each, the low halves of the remaining popcount
    downwards. nbrs comes from per-half tables. Starts at n - 1 edges:
    nothing smaller can span n vertices.
    """
    pairs = _all_pairs_list(n)
    low = len(pairs) // 2
    high_vals = np.arange((1 << (len(pairs) - low)) - 1, -1, -1)
    high_pc = np.array([v.bit_count() for v in high_vals.tolist()])
    # low halves grouped by popcount, descending within a group;
    # group c is low_sorted[first[c]:first[c + 1]]
    low_sorted = np.array(sorted(range(1 << low), key=lambda v: (v.bit_count(), -v)))
    first = np.cumsum([0] + [comb(low, c) for c in range(low + 1)])
    nb_high = _neighbour_bits(n, pairs, np.arange(1 << (len(pairs) - low)) << low)
    nb_low = _neighbour_bits(n, pairs, np.arange(1 << low))
    for count in range(max(0, n - 1), len(pairs) + 1):
        need = count - high_pc
        fits = (need >= 0) & (need <= low)
        highs, need = high_vals[fits], need[fits]
        # ranks starts[h]:starts[h + 1] pair highs[h] with group need[h]
        starts = np.concatenate(([0], np.cumsum(first[need + 1] - first[need])))
        for lead in range(0, starts[-1], chunk):
            rank = np.arange(lead, min(lead + chunk, starts[-1]))
            h = np.searchsorted(starts, rank, side="right") - 1
            hi = highs[h]
            lo = low_sorted[first[need[h]] + rank - starts[h]]
            yield (hi << low) | lo, nb_high[hi] | nb_low[lo]


def _bits_dtype(n: int) -> np.dtype:
    """The narrowest unsigned integer dtype with a bit per vertex."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype)
    raise ValueError(f"too large: {n} vertices exceed a 64-bit vertex mask")


def _vertex_bits(n: int, dtype: np.dtype) -> np.ndarray:
    """[1 << v for v < n] in dtype."""
    return np.array([1 << v for v in range(n)], dtype=dtype)


def _unpack(bits: np.ndarray, n: int) -> np.ndarray:
    """bits[..., i] spread over a new last axis: out[..., i, v] is bit v."""
    raw = np.ascontiguousarray(bits, dtype=bits.dtype.newbyteorder("<"))
    return np.unpackbits(raw[..., None].view(np.uint8), axis=-1, bitorder="little")[..., :n]


def _pack(flags: np.ndarray) -> np.ndarray:
    """The inverse of ``_unpack``: the last axis of flags as bitmasks."""
    n = flags.shape[-1]
    dtype = _bits_dtype(n)
    raw = np.zeros((*flags.shape[:-1], dtype.itemsize), dtype=np.uint8)
    raw[..., : (n + 7) // 8] = np.packbits(flags, axis=-1, bitorder="little")
    return raw.view(dtype.newbyteorder("<"))[..., 0]


def _stacked_bits(graphs: Sequence[Graph], n: int) -> np.ndarray:
    """Neighbour bitmasks of n-vertex graphs, one row per graph, from
    ``g.neighbors(v)``."""
    rows = [[sum(1 << w for w in g.neighbors(v)) for v in range(n)] for g in graphs]
    return np.array(rows, dtype=_bits_dtype(n)).reshape(len(graphs), n)


def _neighbourhood(nbrs: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Union of nbrs[k, v] over the bits v of sets[k, j], per (k, j)."""
    out = np.zeros_like(sets)
    for v in range(nbrs.shape[1]):
        out |= ((sets >> np.uint8(v)) & np.uint8(1)) * nbrs[:, v, None]
    return out


def _levels(nbrs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Bit-frontier BFS from every source: (keep, levels), where keep indexes
    the connected rows of nbrs and levels[j][k, z] is the bitmask of the
    vertices at distance j from z in row keep[k], to the chunk's last level."""
    rows, n = nbrs.shape
    seen = np.tile(_vertex_bits(n, nbrs.dtype), (rows, 1))  # [k, z]
    levels = [seen.copy()]
    while (frontier := _neighbourhood(nbrs, levels[-1]) & ~seen).any():
        seen |= frontier
        levels.append(frontier)
    (keep,) = np.nonzero(seen[:, 0] == (1 << n) - 1)
    return keep, [level[keep] for level in levels]


def _distances(levels: list[np.ndarray]) -> np.ndarray:
    """d[k, z, v]: the distance from z to v in row k of the ``_levels``."""
    rows, n = levels[0].shape
    d = np.zeros((rows, n, n), dtype=np.uint8)
    for depth in range(1, len(levels)):
        d += np.uint8(depth) * _unpack(levels[depth], n)
    return d


def _interval_bits(d: np.ndarray, x: int) -> np.ndarray:
    """iv[k, y]: the interval I[x, y] in graph k of the distances d[K, n, n]
    as a bitmask: the vertices v with d(x, v) + d(y, v) = d(x, y)."""
    dx = d[:, x, :]
    return _pack(dx[:, None, :] + d == dx[:, :, None])
