"""Cartesian, lexicographic, and strong graph products.

Product vertices are labeled "(g,h)" with the factor order fixed as the
argument order; nothing is commuted or canonicalized. ``product`` builds
the product graph and ``product_distance`` gives each kind's closed-form
distances from one base (x, y), from the factor rows of x and y.

``product_reports`` never builds the product. Since the boundary of a
source is its unique minimum geodominating set, the boundary of a base
(x, y) and its gx follow from the factors alone: one BFS row per distinct
x in G and y in H, and the factor boundary masks bg, bh of those rows.
The rows of each factor come from one ``graph._distance_rows`` call,
which builds that factor's neighbour tuples once for all of them; this
module never sees the tuples.
Its reports come from ``_stream_reports``, which checks every input
before it returns, then yields one report per requested base, in request
order: each run of consecutive bases with the same x is one array pass,
so a caller that writes each report and drops it holds one run's masks,
not all.
With d_G, d_H the factor distances from x and y:

- cartesian (d = d_G + d_H): exactly bg x bh;
- strong (d = max(d_G, d_H)): (a, b) with d_G(a) > d_H(b) and a in bg,
  d_H(b) > d_G(a) and b in bh, or d_G(a) = d_H(b) and both;
- lexicographic (d = d_G off the base layer, min(d_H, 2) on it): (x, b)
  with d_H(b) >= 2, or d_H(b) = 1 and b in bh; and (a, b) for a != x with
  a in bg, and d_G(a) >= 2 or ecc_H(y) <= 1.

The tests check these closed forms against BFS on the built product.
Each report compares the boundary with the paper's candidate bounds:

- cartesian: lower and upper both equal bg x bh, and the actual
  boundary matches them;
- lexicographic: lower is the base layer's copy of bh (always
  contained), upper adds whole layers over bg;
- strong: lower is bg x bh, upper is the union of whole rows/columns
  over bg and bh, and both containments hold.

The lexicographic upper candidate is not an upper bound in general: the
truncated layer metric min(d_H, 2) makes every layer vertex at distance
two or more from the base a boundary vertex, whether or not its second
coordinate lies in the factor boundary. Reports record such violations
in containments_hold and witnesses instead of assuming the bound. The
gx bounds are treated the same way: the cartesian product equality and
the strong interval always hold, the lexicographic interval's lower end
always holds, and its upper end can fail, which ProductReport.gx_holds
records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boundary import _boundary_mask
from .graph import (
    DisconnectedError,
    Graph,
    _check_vertex,
    _distance_rows,
    _edge_arrays,
    is_connected,
)

__all__ = [
    "ProductKind",
    "ProductGraph",
    "ProductReport",
    "product",
    "product_distance",
    "product_reports",
]


class ProductKind(str, Enum):
    CARTESIAN = "cartesian"
    LEXICOGRAPHIC = "lexicographic"
    STRONG = "strong"


def _as_kind(kind: "ProductKind | str") -> ProductKind:
    if isinstance(kind, ProductKind):
        return kind
    try:
        return ProductKind(kind)
    except ValueError:
        names = ", ".join(k.value for k in ProductKind)
        raise ValueError(f"unknown product kind {kind!r} (expected one of: {names})") from None


@dataclass(frozen=True, eq=False)
class ProductGraph:
    """A constructed product together with its factor bookkeeping.

    factor_pairs[p] is the (g_index, h_index) pair behind product vertex p.
    """

    kind: ProductKind
    factor_g: Graph
    factor_h: Graph
    graph: Graph
    factor_pairs: tuple[tuple[int, int], ...]

    def index_of_pair(self, gi: int, hi: int) -> int:
        if not 0 <= gi < self.factor_g.n:
            raise ValueError(f"first-factor index {gi} out of range")
        if not 0 <= hi < self.factor_h.n:
            raise ValueError(f"second-factor index {hi} out of range")
        return self.graph.index_of(pair_label(self.factor_g.labels[gi], self.factor_h.labels[hi]))

    def pair_of(self, p: int) -> tuple[int, int]:
        _check_vertex(self.graph, p)
        return self.factor_pairs[p]


def pair_label(g_label: str, h_label: str) -> str:
    return f"({g_label},{h_label})"


def product(kind: "ProductKind | str", g: Graph, h: Graph) -> ProductGraph:
    """Construct the product of two connected graphs under the given kind.

    Edge rules on pairs (g, h), (g', h'):
      cartesian      gg' in E(G) and h = h', or g = g' and hh' in E(H)
      lexicographic  gg' in E(G), or g = g' and hh' in E(H)
      strong         cartesian rule, or gg' in E(G) and hh' in E(H)
    """
    kind = _as_kind(kind)
    _require_product_factors(g, h)
    nh, layers, same = h.n, np.arange(g.n), np.arange(h.n)
    (g_tails, g_heads), (h_tails, h_heads) = _edge_arrays(g), _edge_arrays(h)
    if kind is ProductKind.CARTESIAN:
        rel_c, rel_d = same, same
    elif kind is ProductKind.STRONG:
        rel_c, rel_d = np.r_[same, h_tails, h_heads], np.r_[same, h_heads, h_tails]
    else:
        rel_c, rel_d = np.repeat(same, nh), np.tile(same, nh)
    # (a, c) is a * nh + c until the builder sorts the pair labels. All kinds copy H
    # into each layer; each edge ab of G joins (a, c) to (b, d) for (c, d) in rel
    tails = np.r_[(layers[:, None] * nh + h_tails).ravel(), (g_tails[:, None] * nh + rel_c).ravel()]
    heads = np.r_[(layers[:, None] * nh + h_heads).ravel(), (g_heads[:, None] * nh + rel_d).ravel()]
    pg = Graph.__new__(Graph)
    order = pg._build([pair_label(a, b) for a in g.labels for b in h.labels], tails, heads)
    if len(pg._index) != pg.n:
        raise AssertionError("pair labels collided; factor labels are unusable")
    return ProductGraph(kind, g, h, pg, factor_pairs=tuple(divmod(p, nh) for p in order))


def product_distance(kind: "ProductKind | str", dg: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Closed-form distances from the base (x, y) whose factor rows are dg,
    the distances from x in G, and dh, the distances from y in H, as an
    (n_G, n_H) array: cell [a, b] is the distance to (a, b)."""
    kind = _as_kind(kind)
    dg, dh = np.asarray(dg), np.asarray(dh)
    for row in (dg, dh):
        if row.ndim != 1 or np.count_nonzero(row == 0) != 1:
            raise ValueError("a factor row must be 1-D with exactly one zero, at its source")
    cg, ch = dg[:, None], dh[None, :]
    if kind is ProductKind.CARTESIAN:
        return cg + ch
    if kind is ProductKind.STRONG:
        return np.maximum(cg, ch)
    out = np.repeat(cg, len(dh), axis=1)
    # the base layer: hop out to a neighbour layer and back, unless G is trivial
    out[np.argmin(dg)] = dh if len(dg) == 1 else np.minimum(dh, 2)
    return out


@dataclass(frozen=True, eq=False)
class ProductReport:
    """Boundary and gx of one base vertex (x, y) of a product, against the
    candidate bounds built from the factor boundaries.

    ``actual``, ``lower``, ``upper`` and ``witnesses`` are read-only boolean
    masks of shape (n_G, n_H): cell [a, b] stands for the product vertex
    (a, b). ``witnesses`` marks the vertices violating a containment and is
    None when both containments hold; ``upper_strict`` records whether the
    actual boundary is a proper subset of the upper bound. ``gx`` is the
    size of the actual boundary, checked against [gx_lower, gx_upper],
    which come from the factor values ``gx_g`` and ``gx_h``.
    """

    kind: ProductKind
    base: tuple[int, int]
    actual: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    containments_hold: bool
    witnesses: np.ndarray | None
    upper_strict: bool
    gx: int
    gx_g: int
    gx_h: int
    gx_lower: int
    gx_upper: int
    gx_holds: bool


def _require_product_factors(g: Graph, h: Graph) -> None:
    """Check that both factors are connected and their labels comma-free."""
    if not (is_connected(g) and is_connected(h)):
        raise DisconnectedError("disconnected factor")
    # a comma inside a factor label would make distinct pair labels collide
    for lab in (*g.labels, *h.labels):
        if "," in lab:
            raise ValueError(f"factor label {lab!r} contains a comma")


def _boundary_stacks(
    kind: ProductKind,
    x: int,
    dg: np.ndarray,
    bg: np.ndarray,
    dh: np.ndarray,
    bh: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Actual boundary, lower and upper candidate of the bases (x, y_k),
    each of shape (k, n_G, n_H), from the factor row dg of x, its boundary
    mask bg, and the stacked rows dh and boundary masks bh of the y_k
    (both factors with two or more vertices)."""
    g_in = bg[None, :, None]
    h_in = bh[:, None, :]
    if kind is ProductKind.CARTESIAN:
        actual = g_in & h_in
        return actual, actual, actual
    if kind is ProductKind.STRONG:
        # d = max(d_G, d_H): the larger coordinate must be a factor boundary
        # vertex, and on a tie both must
        cg, ch = dg[None, :, None], dh[:, None, :]
        actual = ((cg > ch) & g_in) | ((ch > cg) & h_in) | ((cg == ch) & g_in & h_in)
        return actual, g_in & h_in, g_in | h_in
    # d = d_G off the base layer and min(d_H, 2) on it; a neighbour of x
    # also sees the base layer, which reaches 2 unless y dominates H
    layers = bg & ((dg >= 2) | (dh.max(axis=1) <= 1)[:, None])
    actual = np.repeat(layers[:, :, None], dh.shape[1], axis=2)
    actual[:, x] = (dh >= 2) | ((dh == 1) & bh)
    lower = np.zeros_like(actual)
    lower[:, x] = bh
    return actual, lower, g_in | lower


def _gx_bounds(
    kind: ProductKind, gx_g: int, gx_h: "int | np.ndarray", ng: int, nh: int
) -> tuple["int | np.ndarray", "int | np.ndarray"]:
    """The candidate gx interval, elementwise when gx_h is an array."""
    if kind is ProductKind.CARTESIAN:
        return gx_g * gx_h, gx_g * gx_h
    if kind is ProductKind.LEXICOGRAPHIC:
        return gx_h, gx_g * nh + gx_h
    return gx_g * gx_h, gx_g * nh + ng * gx_h


def _stream_reports(
    kind: "ProductKind | str",
    g: Graph,
    h: Graph,
    bases: "Iterable[tuple[int, int]] | None" = None,
) -> Iterator[ProductReport]:
    """One report per given (x, y) factor index pair, in their order,
    repeats included, or for every base in row-major order when ``bases``
    is None.

    The kind, the factors and every base are checked before the iterator
    is returned, so an input error comes before the first report. Each
    run of consecutive bases with the same x is one array pass, and the
    iterator holds one run's (#y, n_G, n_H) stacks at a time.
    """
    kind = _as_kind(kind)
    if g.n < 2 or h.n < 2:
        raise ValueError("boundary reports need factors with at least two vertices")
    _require_product_factors(g, h)
    ng, nh = g.n, h.n
    # (x, the y of each base in the run) per run of bases with the same x
    runs: "list[tuple[int, Sequence[int]]]"
    if bases is None:
        runs = [(x, range(nh)) for x in range(ng)]
    else:
        runs = []
        for x, y in bases:
            x, y = int(x), int(y)
            if not 0 <= x < ng:
                raise ValueError(f"first-factor index {x} out of range")
            if not 0 <= y < nh:
                raise ValueError(f"second-factor index {y} out of range")
            if runs and runs[-1][0] == x:
                runs[-1][1].append(y)
            else:
                runs.append((x, [y]))
    return _report_layers(kind, g, h, runs)


def _report_layers(
    kind: ProductKind, g: Graph, h: Graph, runs: "list[tuple[int, Sequence[int]]]"
) -> Iterator[ProductReport]:
    """The body of ``_stream_reports``, run on checked inputs."""
    ng, nh = g.n, h.n
    wanted = {y for _, ys in runs for y in ys}
    rows_h = {
        y: (row, _boundary_mask(h.flat_neighbors, h.neighbor_offsets, row))
        for y, row in zip(wanted, _distance_rows(h, wanted))
    }
    for (x, ys), dg in zip(runs, _distance_rows(g, [x for x, _ in runs])):
        bg = _boundary_mask(g.flat_neighbors, g.neighbor_offsets, dg)
        gx_g = int(np.count_nonzero(bg))
        dh = np.array([rows_h[y][0] for y in ys])
        bh = np.array([rows_h[y][1] for y in ys])
        actual, lower, upper = _boundary_stacks(kind, x, dg, bg, dh, bh)
        bad = (lower & ~actual) | (actual & ~upper)
        for stack in (actual, lower, upper, bad):
            stack.setflags(write=False)
        fails = bad.any(axis=(1, 2)).tolist()
        gx = np.count_nonzero(actual, axis=(1, 2)).tolist()
        tops = np.count_nonzero(upper, axis=(1, 2)).tolist()
        gx_h = np.count_nonzero(bh, axis=1)
        gx_lower, gx_upper = _gx_bounds(kind, gx_g, gx_h, ng, nh)
        gx_h, gx_lower, gx_upper = gx_h.tolist(), gx_lower.tolist(), gx_upper.tolist()
        for k, y in enumerate(ys):
            yield ProductReport(
                kind=kind,
                base=(x, y),
                actual=actual[k],
                lower=lower[k],
                upper=upper[k],
                containments_hold=not fails[k],
                witnesses=bad[k] if fails[k] else None,
                upper_strict=not fails[k] and gx[k] < tops[k],
                gx=gx[k],
                gx_g=gx_g,
                gx_h=gx_h[k],
                gx_lower=gx_lower[k],
                gx_upper=gx_upper[k],
                gx_holds=gx_lower[k] <= gx[k] <= gx_upper[k],
            )


def product_reports(
    kind: "ProductKind | str",
    g: Graph,
    h: Graph,
    bases: "Iterable[tuple[int, int]] | None" = None,
) -> tuple[ProductReport, ...]:
    """Reports for the given (x, y) factor index pairs, in their order, or
    for every base in row-major order when ``bases`` is None.

    Computed from one BFS row of each distinct y in H and of x per run of
    bases with the same x; no product graph and no all-pairs matrix is
    built. The masks of each run come from one array pass, and each
    report holds read-only views into its stacks.
    """
    return tuple(_stream_reports(kind, g, h, bases))
