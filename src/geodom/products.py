"""Cartesian, lexicographic, and strong graph products.

Product vertices are labeled "(g,h)" with the factor order fixed as the
argument order; nothing is commuted or canonicalized. ``product`` builds
the product graph and ``product_distance`` gives each kind's closed-form
distances from one base (x, y), from the factor rows of x and y.

``product_reports`` never builds the product. Since the boundary of a
source is its unique minimum geodominating set, the boundary of a base
(x, y) and its gx follow from the factors alone: one BFS row per distinct
x in G and y in H, and the factor boundaries of those rows, which the
BFS of graph.py flags as it makes them (``_factor_masks``); this module
never sees the neighbour tuples.
Every vertex set of a report is one Python int over the product cells:
bit a * n_H + b stands for the product vertex (a, b), so bit order is
row-major order, and ``_picked`` reads the set bits in that order. The
cell set S x T (a in S, b in T) is the product ``spread(S) * T``, where
``spread(S)`` puts bit a of S at bit a * n_H; no carries arise, since
T < 2^n_H. So each report is a few big-int products and ORs over the
factor masks (``_boundary_masks``), and nothing here loads numpy.
``product_reports`` checks every input before it returns, then yields
one report per requested base, in request order: each run of
consecutive bases with the same x shares x's row and its spread level
masks, and a caller that writes each report and drops it holds one
report's masks, not all.
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

import operator
from enum import Enum
from itertools import compress
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .graph import (
    DisconnectedError,
    Graph,
    _check_vertex,
    _distance_rows,
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

_T = TypeVar("_T")


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


class ProductGraph(NamedTuple):
    """A constructed product together with its factors and the factor
    pair behind each product vertex; the kind is the caller's own argument
    to ``product`` and is not stored.

    factor_pairs[p] is the (g_index, h_index) pair behind product vertex p.
    """

    factor_g: Graph
    factor_h: Graph
    graph: Graph
    factor_pairs: tuple[tuple[int, int], ...]

    def index_of_pair(self, gi: int, hi: int) -> int:
        g_label = self.factor_g.labels[_check_vertex(self.factor_g, gi, "first-factor")]
        h_label = self.factor_h.labels[_check_vertex(self.factor_h, hi, "second-factor")]
        return self.graph.index_of(pair_label(g_label, h_label))

    def pair_of(self, p: int) -> tuple[int, int]:
        return self.factor_pairs[_check_vertex(self.graph, p)]


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
    nh, g_edges, h_edges = h.n, [*g.edges()], [*h.edges()]
    # the pairs (c, d) of second coordinates that each edge ab of G joins
    # as (a, c) to (b, d)
    if kind is ProductKind.CARTESIAN:
        rel = [(c, c) for c in range(nh)]
    elif kind is ProductKind.STRONG:
        rel = [(c, c) for c in range(nh)] + h_edges + [(d, c) for c, d in h_edges]
    else:
        rel = [(c, d) for c in range(nh) for d in range(nh)]
    rel_c, rel_d = [c for c, _ in rel], [d for _, d in rel]
    # (a, c) is a * nh + c until the builder sorts the pair labels; every
    # kind also copies H into each layer
    layers = range(0, g.n * nh, nh)
    tails = [a + c for a in layers for c, _ in h_edges]
    heads = [a + d for a in layers for _, d in h_edges]
    tails += [a * nh + c for a, _ in g_edges for c in rel_c]
    heads += [b * nh + d for _, b in g_edges for d in rel_d]
    pg = Graph.__new__(Graph)
    labels = [pair_label(a, b) for a in g.labels for b in h.labels]
    order = pg._build(labels, tails, heads)
    return ProductGraph(g, h, pg, factor_pairs=tuple(divmod(p, nh) for p in order))


def _factor_row(row: Iterable[int]) -> list[int]:
    """A factor distance row as a list of ints, checked to have one zero."""
    try:
        out = list(map(operator.index, row))
    except TypeError:
        out = []
    if out.count(0) != 1:
        raise ValueError("a factor row must be 1-D with exactly one zero, at its source")
    return out


def product_distance(
    kind: "ProductKind | str", dg: Iterable[int], dh: Iterable[int]
) -> list[list[int]]:
    """Closed-form distances from the base (x, y) whose factor rows are dg,
    the distances from x in G, and dh, the distances from y in H, as n_G
    lists of n_H ints: entry [a][b] is the distance to (a, b)."""
    kind = _as_kind(kind)
    dg, dh = _factor_row(dg), _factor_row(dh)
    if kind is ProductKind.CARTESIAN:
        return [[a + b for b in dh] for a in dg]
    if kind is ProductKind.STRONG:
        return [[max(a, b) for b in dh] for a in dg]
    out = [[a] * len(dh) for a in dg]
    # the base layer: hop out to a neighbour layer and back, unless G is trivial
    out[dg.index(0)] = dh if len(dg) == 1 else [min(b, 2) for b in dh]
    return out


class ProductReport(NamedTuple):
    """Boundary and gx of one base vertex (x, y) of a product, against the
    candidate bounds built from the factor boundaries.

    ``actual``, ``lower``, ``upper`` and ``witnesses`` are vertex sets of
    the product, each one int: bit a * n_H + b stands for the product
    vertex (a, b), so the set bits in ascending order are the cells in
    row-major order. ``witnesses`` marks the vertices violating a
    containment and is None when both containments hold; ``upper_strict``
    records whether the actual boundary is a proper subset of the upper
    bound. ``gx`` is the size of the actual boundary, checked against
    [gx_lower, gx_upper], which come from the factor values ``gx_g`` and
    ``gx_h``.
    """

    base: tuple[int, int]
    actual: int
    lower: int
    upper: int
    containments_hold: bool
    witnesses: int | None
    upper_strict: bool
    gx: int
    gx_g: int
    gx_h: int
    gx_lower: int
    gx_upper: int
    gx_holds: bool


# a mask's binary digits as the bytes 0 and 1, selectors for ``compress``,
# and back: BFS boundary flags, highest vertex first, as binary digits
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _picked(items: Sequence[_T], mask: int) -> Iterator[_T]:
    """The items at the set bits of mask, lowest bit first."""
    return compress(items, format(mask, "b").encode()[::-1].translate(_SELECTORS))


def _require_product_factors(g: Graph, h: Graph) -> None:
    """Check that both factors are connected and their labels comma-free."""
    if not (is_connected(g) and is_connected(h)):
        raise DisconnectedError("disconnected factor")
    # a comma inside a factor label would make distinct pair labels collide
    for lab in (*g.labels, *h.labels):
        if "," in lab:
            raise ValueError(f"factor label {lab!r} contains a comma")


def _boundary_masks(
    kind: ProductKind,
    x: int,
    g_rows: Sequence[int],
    b_rows: Sequence[int],
    h_levels: Sequence[int],
    bh: int,
    nh: int,
) -> tuple[int, int, int]:
    """Actual boundary, lower and upper candidate of the base (x, y) as
    product cell masks (both factors with two or more vertices).

    From x: g_rows[k] is spread(G_k), one bit per first-factor vertex at
    distance k, at the first cell of its row, and b_rows[k] is
    spread(bg & G_k). From y: h_levels[k] is the mask H_k of the
    second-factor vertices at distance k, and bh its boundary. A spread
    mask times a second-factor mask is the cell set of their pairs.
    """
    full = (1 << nh) - 1
    in_bg = sum(b_rows)  # the level masks are disjoint: a sum is their OR
    if kind is ProductKind.CARTESIAN:
        actual = in_bg * bh
        return actual, actual, actual
    if kind is ProductKind.STRONG:
        # d = max(d_G, d_H): the larger coordinate must be a factor boundary
        # vertex, and on a tie both must; row by row over the levels k of d_G
        actual, below = 0, 0
        for k, (g_k, b_k) in enumerate(zip(g_rows, b_rows)):
            level = h_levels[k] if k < len(h_levels) else 0
            above = full & ~(below | level)
            actual |= b_k * below | g_k * (bh & above) | b_k * (bh & level)
            below |= level
        return actual, in_bg * bh, in_bg * full | sum(g_rows) * bh
    # d = d_G off the base layer and min(d_H, 2) on it; a neighbour of x
    # also sees the base layer, which reaches 2 unless y dominates H
    layers = sum(b_rows[2:]) if len(h_levels) > 2 else in_bg
    near = h_levels[1]
    base_row = (full & ~(h_levels[0] | near)) | (near & bh)
    lower = bh << (x * nh)
    return layers * full | base_row << (x * nh), lower, in_bg * full | lower


def _gx_bounds(kind: ProductKind, gx_g: int, gx_h: int, ng: int, nh: int) -> tuple[int, int]:
    """The candidate gx interval."""
    if kind is ProductKind.CARTESIAN:
        return gx_g * gx_h, gx_g * gx_h
    if kind is ProductKind.LEXICOGRAPHIC:
        return gx_h, gx_g * nh + gx_h
    return gx_g * gx_h, gx_g * nh + ng * gx_h


def product_reports(
    kind: "ProductKind | str",
    g: Graph,
    h: Graph,
    bases: "Iterable[tuple[int, int]] | None" = None,
) -> Iterator[ProductReport]:
    """Reports for the given (x, y) factor index pairs, in their order,
    repeats included, or for every base in row-major order when ``bases``
    is None.

    The kind, the factors and every base are checked before the iterator
    is returned, so an input error comes before the first report. Each
    run of consecutive bases with the same x shares x's BFS row, and the
    iterator makes one report at a time; ``tuple()`` keeps them all. No
    product graph and no all-pairs matrix is built.
    """
    kind = _as_kind(kind)
    if g.n < 2 or h.n < 2:
        raise ValueError("boundary reports need factors with at least two vertices")
    _require_product_factors(g, h)
    # (x, the y of each base in the run) per run of bases with the same x
    runs: "list[tuple[int, Sequence[int]]]"
    if bases is None:
        runs = [(x, range(h.n)) for x in range(g.n)]
    else:
        runs = []
        for x, y in bases:
            x, y = _check_vertex(g, x, "first-factor"), _check_vertex(h, y, "second-factor")
            if runs and runs[-1][0] == x:
                runs[-1][1].append(y)
            else:
                runs.append((x, [y]))
    return _report_layers(kind, g, h, runs)


def _factor_masks(g: Graph, sources: Iterable[int]) -> Iterator[tuple[list[int], int]]:
    """The distance levels of each source, as masks (bit v of levels[d]
    set when v lies at distance d), and its boundary mask."""
    for row, flags in _distance_rows(g, sources):
        levels = [0] * (max(row) + 1)
        for v, d in enumerate(row):
            levels[d] |= 1 << v
        yield levels, int(flags[::-1].translate(_DIGITS), 2)


def _spreader(nh: int) -> Callable[[int], int]:
    """spread(S): bit a of a first-factor mask S moved to bit a * nh."""
    table = {ord("0"): "0" * nh, ord("1"): "1".rjust(nh, "0")}
    return lambda s: int(format(s, "b").translate(table), 2)


def _report_layers(
    kind: ProductKind, g: Graph, h: Graph, runs: "list[tuple[int, Sequence[int]]]"
) -> Iterator[ProductReport]:
    """The body of ``product_reports``, run on checked inputs."""
    ng, nh = g.n, h.n
    spread = _spreader(nh)
    wanted = {y for _, ys in runs for y in ys}
    rows_h = dict(zip(wanted, _factor_masks(h, wanted)))
    for (x, ys), (g_levels, bg) in zip(runs, _factor_masks(g, [x for x, _ in runs])):
        gx_g = bg.bit_count()
        g_rows = [spread(level) for level in g_levels]
        b_rows = [spread(level & bg) for level in g_levels]
        for y in ys:
            h_levels, bh = rows_h[y]
            actual, lower, upper = _boundary_masks(kind, x, g_rows, b_rows, h_levels, bh, nh)
            bad = (lower & ~actual) | (actual & ~upper)
            gx, gx_h = actual.bit_count(), bh.bit_count()
            gx_lower, gx_upper = _gx_bounds(kind, gx_g, gx_h, ng, nh)
            yield ProductReport(
                base=(x, y),
                actual=actual,
                lower=lower,
                upper=upper,
                containments_hold=not bad,
                witnesses=bad or None,
                upper_strict=not bad and gx < upper.bit_count(),
                gx=gx,
                gx_g=gx_g,
                gx_h=gx_h,
                gx_lower=gx_lower,
                gx_upper=gx_upper,
                gx_holds=gx_lower <= gx <= gx_upper,
            )
