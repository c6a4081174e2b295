"""Hand-rolled reference implementations used as independent test oracles.

Nothing here shares code with the package: distances come from
Floyd-Warshall instead of BFS, intervals from explicit simple-path
enumeration, boundaries and coverage from direct definition scans. The
graph enumeration, the simplicial counterexample search, the minimum
x-geodominating search and the theorem sweep are the pure-Python loops
over `combinations` tuples that the package's lane passes replaced; the
sweep loop reads the boundary through the oracle sweep's own rule, as the
lane sweep does, since that rule is what it checks. The product report
loop is the per-base loop on (n_G, n_H) boolean arrays that the big-int
kernel replaced; it takes the factor rows, boundaries and gx bounds from
the package, since the cell masks are what it checks (BFS on the built
product checks the closed forms). The graph constructor, the parser and
the product builder are the set-based and label-string versions that
the index-edge builder replaced: neighbour sets, then sorted neighbour
tuples. Two functions call into the package on purpose, to hand a test
what it checks: ``swept_cover`` runs the geodesic sweep that
``is_x_geodominating`` runs, and ``_oracle_rule_boundary`` the oracle
sweep's boundary rule.
"""

from __future__ import annotations

import importlib
import sys
from itertools import combinations, compress
from typing import Iterable, Iterator, Sequence

import numpy as np
from geodom import (
    Graph,
    ProductGraph,
    ProductKind,
    ProductReport,
    VerificationReport,
    VertexSet,
    bfs_distances,
    boundary,
)
from geodom.products import (
    _as_kind,
    _gx_bounds,
    _require_product_factors,
    pair_label,
)

INF = 10**9


def reference_graph(
    edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()
) -> tuple[Graph, list[frozenset[int]]]:
    """The set-based constructor: per-vertex neighbour sets, sorted into
    neighbour tuples and written into a bare Graph. Also returns the
    neighbour sets. Takes valid labels only."""
    pairs = list(edges)
    label_set = set(vertices)
    for u, v in pairs:
        label_set.update((u, v))
    labels = tuple(sorted(label_set))
    index = {lab: i for i, lab in enumerate(labels)}
    neighbor_sets: list[set[int]] = [set() for _ in labels]
    for u, v in pairs:
        neighbor_sets[index[u]].add(index[v])
        neighbor_sets[index[v]].add(index[u])
    g = Graph.__new__(Graph)
    g.labels = labels
    g._index = index
    g._adjacency = tuple(tuple(sorted(nbrs)) for nbrs in neighbor_sets)
    g.edge_count = sum(len(a) for a in g._adjacency) // 2
    return g, [frozenset(nbrs) for nbrs in neighbor_sets]


def reference_parse(text: str) -> tuple[Graph, list[frozenset[int]]]:
    """The parser's line loop collecting label pairs, then the set-based
    constructor. Takes well-formed documents only."""
    declared: list[str] = []
    edges: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            declared.extend(line[len("vertices:"):].split())
        else:
            u, v = line.split()
            edges.append((u, v))
    return reference_graph(edges, declared)


def loop_product(
    kind: "ProductKind | str", g: Graph, h: Graph
) -> tuple[ProductGraph, list[frozenset[int]]]:
    """The product built from label strings: every edge endpoint formatted
    as a pair label, the set-based constructor, then one label lookup
    per (a, b) for the factor pairs. Also returns the neighbour sets."""
    kind = _as_kind(kind)
    _require_product_factors(g, h)
    gl, hl = g.labels, h.labels
    edges: list[tuple[str, str]] = []
    for a in gl:
        for hu, hv in h.edges():
            edges.append((pair_label(a, hl[hu]), pair_label(a, hl[hv])))
    for gu, gv in g.edges():
        a, b = gl[gu], gl[gv]
        if kind is ProductKind.LEXICOGRAPHIC:
            for hu in hl:
                for hv in hl:
                    edges.append((pair_label(a, hu), pair_label(b, hv)))
        else:
            for c in hl:
                edges.append((pair_label(a, c), pair_label(b, c)))
            if kind is ProductKind.STRONG:
                for hu, hv in h.edges():
                    edges.append((pair_label(a, hl[hu]), pair_label(b, hl[hv])))
                    edges.append((pair_label(a, hl[hv]), pair_label(b, hl[hu])))
    pg, sets = reference_graph(edges, [pair_label(a, b) for a in gl for b in hl])
    pairs = [(0, 0)] * pg.n
    for gi in range(g.n):
        for hi in range(h.n):
            pairs[pg.index_of(pair_label(gl[gi], hl[hi]))] = (gi, hi)
    return ProductGraph(g, h, pg, tuple(pairs)), sets


def assert_same_graph(got: Graph, want: Graph, want_sets: Sequence[frozenset[int]]) -> None:
    """got against a reference graph and its neighbour sets: labels, the
    neighbour tuples a BFS and the word walk read, edges, has_edge,
    equality and hash."""
    assert got.labels == want.labels
    assert got.edge_count == want.edge_count
    nbrs = [tuple(sorted(s)) for s in want_sets]
    assert [got.neighbors(v) for v in range(got.n)] == nbrs
    assert list(got.edges()) == [
        (u, v) for u in range(want.n) for v in sorted(want_sets[u]) if u < v
    ]
    for u in range(want.n):
        for v in range(want.n):
            assert got.has_edge(u, v) == (v in want_sets[u])
    assert got == want and want == got
    assert hash(got) == hash(want)


def floyd_warshall(g: Graph) -> list[list[int]]:
    n = g.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def geodesic_vertices_by_paths(g: Graph, u: int, v: int) -> set[int]:
    """Vertices on shortest u-v paths, by enumerating every simple path."""
    best_len = INF
    best_vertices: set[int] = set()
    path = [u]
    on_path = {u}

    def walk(cur: int) -> None:
        nonlocal best_len, best_vertices
        if cur == v:
            length = len(path) - 1
            if length < best_len:
                best_len = length
                best_vertices = set(path)
            elif length == best_len:
                best_vertices |= set(path)
            return
        if len(path) - 1 >= best_len:
            return
        for w in g.neighbors(cur):
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                walk(w)
                path.pop()
                on_path.remove(w)

    walk(u)
    return best_vertices


def direct_boundary(g: Graph, dist: list[list[int]], x: int) -> set[int]:
    """Definition scan: v is in the boundary of x when no neighbor of v
    is farther from x than v is."""
    row = dist[x]
    return {
        v for v in range(g.n) if all(row[w] <= row[v] for w in g.neighbors(v))
    }


def direct_lexicographic_boundary(
    g: Graph,
    h: Graph,
    dist_g: list[list[int]],
    dist_h: list[list[int]],
    x: int,
    y: int,
) -> set[tuple[int, int]]:
    """Boundary of the base (x, y) in G lex H, as (a, b) factor index pairs,
    by the exact closed form on the factors (both with two or more vertices):

    - base layer: (x, b) iff d_H(b) >= 2, or d_H(b) = 1 and b is in the
      boundary of y in H (the layer metric is min(d_H, 2));
    - other layers: (a, b) for a != x iff a is in the boundary of x in G,
      and d_G(a) >= 2 or ecc_H(y) <= 1 (a neighbor of x also sees the base
      layer, which reaches distance 2 from the base unless y dominates H).
    """
    dg, dh = dist_g[x], dist_h[y]
    bg, bh = direct_boundary(g, dist_g, x), direct_boundary(h, dist_h, y)
    base_layer = {
        (x, b) for b in range(h.n) if dh[b] >= 2 or (dh[b] == 1 and b in bh)
    }
    layers = {
        (a, b)
        for a in bg
        if dg[a] >= 2 or max(dh) <= 1
        for b in range(h.n)
    }
    return base_layer | layers


def cells(mask: int, nh: int) -> set[tuple[int, int]]:
    """The (a, b) factor index pairs set in a product report's mask, whose
    bit a * nh + b stands for (a, b)."""
    return {divmod(p, nh) for p in range(mask.bit_length()) if mask >> p & 1}


def pair_labels(g: Graph, h: Graph, mask: int) -> list[str]:
    """Sorted product labels "(g,h)" of the pairs set in a report's mask."""
    return sorted(f"({g.labels[a]},{h.labels[b]})" for a, b in cells(mask, h.n))


def _loop_actual_boundary(
    kind: ProductKind,
    x: int,
    dg: np.ndarray,
    dh: np.ndarray,
    bg: np.ndarray,
    bh: np.ndarray,
) -> np.ndarray:
    """Boundary of the base (x, y) from the factor rows dg, dh of x and y
    and their boundary masks bg, bh (both factors with two or more
    vertices)."""
    if kind is ProductKind.CARTESIAN:
        return np.outer(bg, bh)
    if kind is ProductKind.STRONG:
        # d = max(d_G, d_H): the larger coordinate must be a factor boundary
        # vertex, and on a tie both must
        cg, ch = dg[:, None], dh[None, :]
        return ((cg > ch) & bg[:, None]) | ((ch > cg) & bh[None, :]) | (
            (cg == ch) & np.outer(bg, bh)
        )
    # d = d_G off the base layer and min(d_H, 2) on it; a neighbour of x
    # also sees the base layer, which reaches 2 unless y dominates H
    layers = bg & ((dg >= 2) | (dh.max() <= 1))
    actual = np.repeat(layers[:, None], dh.size, axis=1)
    actual[x] = (dh >= 2) | ((dh == 1) & bh)
    return actual


def _loop_candidate_bounds(
    kind: ProductKind, x: int, bg: np.ndarray, bh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's lower and upper candidates as (n_G, n_H) masks."""
    if kind is ProductKind.CARTESIAN:
        lower = np.outer(bg, bh)
        return lower, lower
    if kind is ProductKind.LEXICOGRAPHIC:
        lower = np.zeros((bg.size, bh.size), dtype=bool)
        lower[x] = bh
        return lower, bg[:, None] | lower
    return np.outer(bg, bh), bg[:, None] | bh[None, :]


def _as_mask(cells: np.ndarray) -> int:
    """An (n_G, n_H) boolean array as a report's int mask: cell [a, b] is
    bit a * n_H + b."""
    return int.from_bytes(np.packbits(cells.ravel(), bitorder="little").tobytes(), "little")


def _row_and_mask(g: Graph, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The distance row of x as an array and the mask of its boundary."""
    mask = np.zeros(g.n, dtype=bool)
    mask[list(boundary(g, x))] = True
    return np.array(bfs_distances(g, x)), mask


def loop_product_reports(
    kind: "ProductKind | str",
    g: Graph,
    h: Graph,
    bases: "Iterable[tuple[int, int]] | None" = None,
) -> tuple[ProductReport, ...]:
    """The per-base array loop that `product_reports` replaced with big-int
    products of the factor masks: the same closed forms, one base at a
    time on (n_G, n_H) boolean arrays, each turned into an int mask last."""
    kind = _as_kind(kind)
    if g.n < 2 or h.n < 2:
        raise ValueError("boundary reports need factors with at least two vertices")
    _require_product_factors(g, h)
    if bases is None:
        bases = [(x, y) for x in range(g.n) for y in range(h.n)]
    bases = [(int(x), int(y)) for x, y in bases]
    for x, y in bases:
        if not 0 <= x < g.n:
            raise ValueError(f"first-factor index {x} out of range")
        if not 0 <= y < h.n:
            raise ValueError(f"second-factor index {y} out of range")
    rows_g = {x: _row_and_mask(g, x) for x in {x for x, _ in bases}}
    rows_h = {y: _row_and_mask(h, y) for y in {y for _, y in bases}}
    reports = []
    for x, y in bases:
        (dg, bg), (dh, bh) = rows_g[x], rows_h[y]
        actual = _loop_actual_boundary(kind, x, dg, dh, bg, bh)
        lower, upper = _loop_candidate_bounds(kind, x, bg, bh)
        bad = (lower & ~actual) | (actual & ~upper)
        holds = not bad.any()
        gx = int(np.count_nonzero(actual))
        gx_g, gx_h = int(np.count_nonzero(bg)), int(np.count_nonzero(bh))
        gx_lower, gx_upper = _gx_bounds(kind, gx_g, gx_h, g.n, h.n)
        reports.append(
            ProductReport(
                base=(x, y),
                actual=_as_mask(actual),
                lower=_as_mask(lower),
                upper=_as_mask(upper),
                containments_hold=holds,
                witnesses=None if holds else _as_mask(bad),
                upper_strict=holds and gx < int(np.count_nonzero(upper)),
                gx=gx,
                gx_g=gx_g,
                gx_h=gx_h,
                gx_lower=gx_lower,
                gx_upper=gx_upper,
                gx_holds=gx_lower <= gx <= gx_upper,
            )
        )
    return tuple(reports)


def swept_cover(g: Graph, x: int, members) -> set[int]:
    """The vertices that the package's geodesic sweep (``graph._sweep``,
    which ``is_x_geodominating`` runs) flags from x to members."""
    graph = sys.modules["geodom.graph"]
    row, _ = graph._distance_row(g, x)
    return set(compress(range(g.n), graph._sweep(g, row, members)))


def direct_covered(dist: list[list[int]], x: int, members, n: int) -> set[int]:
    """Vertices lying on some geodesic from x to a member."""
    return {
        v
        for v in range(n)
        if any(dist[x][v] + dist[v][y] == dist[x][y] for y in members)
    }


def direct_closure(dist: list[list[int]], members, n: int) -> set[int]:
    """Geodetic closure by definition: every w with d(u,w) + d(w,v) =
    d(u,v) for some u, v in members (u = v gives the members themselves)."""
    return {
        w
        for w in range(n)
        if any(dist[u][w] + dist[w][v] == dist[u][v] for u in members for v in members)
    }


def connected_labeled_graph_counts(n_max: int) -> list[int]:
    """Counts of connected simple labeled graphs for n = 1..n_max, by the
    inclusion-exclusion recurrence over the component containing vertex 1."""
    from math import comb

    total = [1 << comb(n, 2) for n in range(n_max + 1)]
    c = [0] * (n_max + 1)
    c[1] = 1
    for n in range(2, n_max + 1):
        c[n] = total[n] - sum(
            comb(n - 1, k - 1) * c[k] * total[n - k] for k in range(1, n)
        )
    return c[1:]


# ---------------------------------------------------------------------------
# loop enumeration and simplicial counterexample search

_ENUM_LABELS = "abcdefgh"


def _all_pairs_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def edge_subsets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every edge subset, by edge count ascending then lexicographic order.

    Starts at n-1 edges: nothing smaller can span n vertices.
    """
    pairs = _all_pairs_list(n)
    for count in range(max(0, n - 1), len(pairs) + 1):
        yield from combinations(pairs, count)


def raw_connected(n: int, adjsets: Sequence[set[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjsets[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def loop_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected simple labeled graph on n vertices, exactly once."""
    labels = list(_ENUM_LABELS[:n])
    if n == 1:
        yield Graph(vertices=labels)
        return
    for subset in edge_subsets(n):
        adjsets: list[set[int]] = [set() for _ in range(n)]
        for i, j in subset:
            adjsets[i].add(j)
            adjsets[j].add(i)
        if raw_connected(n, adjsets):
            yield Graph(((labels[i], labels[j]) for i, j in subset), vertices=labels)


def raw_simplicial(adj: Sequence[Sequence[int]], adjsets: Sequence[set[int]]) -> list[int]:
    out = []
    for v in range(len(adj)):
        nbrs = adj[v]
        if all(
            nbrs[j] in adjsets[nbrs[i]]
            for i in range(len(nbrs))
            for j in range(i + 1, len(nbrs))
        ):
            out.append(v)
    return out


def raw_bfs_rows(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(adj)
    rows = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        rows.append(dist)
    return rows


def fails_from_every_source(rows: list[list[int]], simp: list[int]) -> bool:
    """True when the simplicial set covers no source: for every z some
    vertex lies on no geodesic from z to a simplicial vertex."""
    n = len(rows)
    for z in range(n):
        dz = rows[z]
        for v in range(n):
            if not any(dz[v] + rows[v][y] == dz[y] for y in simp):
                break
        else:
            return False
    return True


def _counterexample_from_raw(
    n: int, subset: Iterable[tuple[int, int]], simp: list[int]
) -> tuple[Graph, VertexSet]:
    labels = list(_ENUM_LABELS[:n])
    g = Graph(((labels[i], labels[j]) for i, j in subset), vertices=labels)
    return g, VertexSet.of(simp, n)


def loop_simplicial_counterexample(
    max_n: int, min_simplicial: int = 1
) -> tuple[Graph, VertexSet] | None:
    """The search loop over every edge subset of n = 4..min(max_n, 7)."""
    for n in range(4, min(max_n, 7) + 1):
        for subset in edge_subsets(n):
            adj: list[list[int]] = [[] for _ in range(n)]
            adjsets: list[set[int]] = [set() for _ in range(n)]
            for i, j in subset:
                adj[i].append(j)
                adj[j].append(i)
                adjsets[i].add(j)
                adjsets[j].add(i)
            simp = raw_simplicial(adj, adjsets)
            if len(simp) < min_simplicial:
                continue
            if not raw_connected(n, adjsets):
                continue
            rows = raw_bfs_rows(adj)
            if fails_from_every_source(rows, simp):
                return _counterexample_from_raw(n, subset, simp)

    return None


def loop_simplicial_verdict(g: Graph) -> tuple[list[int], bool]:
    """The loop's simplicial vertices of g and whether they fail from
    every source."""
    adj = [list(g.neighbors(v)) for v in range(g.n)]
    simp = raw_simplicial(adj, [set(a) for a in adj])
    return simp, fails_from_every_source(raw_bfs_rows(adj), simp)


# ---------------------------------------------------------------------------
# loop minimum x-geodominating search and theorem sweep


def loop_min_x_geodominating(
    g: Graph, d: Sequence[Sequence[int]], x: int, *, cap: int = 12
) -> tuple[VertexSet, ...]:
    """All minimum x-geodominating sets, by exhaustive size-ordered search
    on the distance matrix d, ``floyd_warshall(g)`` for a graph.

    Candidates exclude x itself: x is covered by any nonempty set (it is
    an endpoint of every geodesic from x) and contributes only I[x,x] =
    {x}, so adding it never shrinks a cover.
    """
    n = g.n
    if n < 2:
        raise ValueError("x-geodomination needs at least two vertices")
    if n > cap:
        raise ValueError(f"too large: {n} vertices exceeds the cap of {cap}")
    if not 0 <= x < n:
        raise ValueError(f"vertex index {x} out of range [0, {n})")

    full = (1 << n) - 1
    candidates = [v for v in range(n) if v != x]
    cover = {}
    for y in candidates:
        mask = 0
        for v in range(n):
            if d[x][v] + d[v][y] == d[x][y]:
                mask |= 1 << v
        cover[y] = mask

    for size in range(1, len(candidates) + 1):
        winners = [
            combo
            for combo in combinations(candidates, size)
            if _union(cover, combo) == full
        ]
        if winners:
            return tuple(VertexSet.of(c, n) for c in winners)
    raise AssertionError("unreachable: V minus x always geodominates")


def _union(cover: dict[int, int], combo: Sequence[int]) -> int:
    mask = 0
    for y in combo:
        mask |= cover[y]
    return mask


def loop_verify_unique_minimum(graphs: Iterable[Graph]) -> VerificationReport:
    """For every graph and source, check that the brute-force search finds
    exactly one minimum x-geodominating set and that it is the boundary.

    Single-vertex graphs are skipped: geodomination needs a non-source
    vertex to exist.
    """
    graphs_checked = 0
    sources_checked = 0
    failures: list[str] = []
    for g in graphs:
        if g.n < 2:
            continue
        graphs_checked += 1
        dist = floyd_warshall(g)
        # the oracle's matrix holds the rows, so no BFS per source
        boundaries = _oracle_rule_boundary(g, dist)
        for x in range(g.n):
            sources_checked += 1
            sets = loop_min_x_geodominating(g, dist, x)
            expected = boundaries[x]
            if sets != (expected,):
                oracle_sets = [g.labels_of(s) for s in sets]
                failures.append(
                    f"{g!r} edges={list(g.edges())} x={g.labels[x]}: "
                    f"oracle size {len(sets[0])} sets {oracle_sets} vs "
                    f"boundary {g.labels_of(expected)}"
                )
    return VerificationReport(
        graphs_checked=graphs_checked,
        sources_checked=sources_checked,
        failures=tuple(failures),
    )


def _oracle_rule_boundary(g: Graph, dist: list[list[int]]) -> list[VertexSet]:
    """The boundary of every source of g by the oracle sweep's own rule on
    the distances dist, looked up at each call, so that a test's mutant
    of the rule applies."""
    return importlib.import_module("geodom.oracles")._boundaries(g, dist)


def close_the_path_in_graph_bfs(monkeypatch) -> None:
    """Make graph.py's BFS search the path a-b-c-d closed into a cycle,
    by joining the first and last vertex in the neighbour tuples it reads
    (graph.py's one BFS makes every row)."""
    graph = sys.modules["geodom.graph"]
    bfs_row = graph._bfs_row

    def closed_bfs(adjacency, source):
        closed = list(adjacency)
        closed[0] += (len(closed) - 1,)
        closed[-1] += (0,)
        return bfs_row(closed, source)

    monkeypatch.setattr(graph, "_bfs_row", closed_bfs)


def drop_one_boundary_vertex(monkeypatch) -> None:
    """Make the oracle sweep's boundary rule lose the highest boundary
    vertex in each lane it scans, which is one graph and source."""
    oracles = importlib.import_module("geodom.oracles")
    rule = oracles._boundary_lanes

    def mutant(adj, levels):
        inside = rule(adj, levels)
        higher = 0  # the lanes with a boundary vertex above v
        for v in reversed(range(len(inside))):
            inside[v], higher = inside[v] & higher, higher | inside[v]
        return inside

    monkeypatch.setattr(oracles, "_boundary_lanes", mutant)


def add_one_boundary_vertex(monkeypatch) -> None:
    """Make the oracle sweep's boundary rule take, in each lane it scans,
    also the lowest vertex that is neither in the boundary nor the
    source; the result still covers, but is no minimum."""
    oracles = importlib.import_module("geodom.oracles")
    rule = oracles._boundary_lanes

    def mutant(adj, levels):
        inside = rule(adj, levels)
        added = 0  # the lanes where a vertex was added
        for v in range(len(inside)):
            reached = 0
            for level in levels:
                reached |= level[v]
            extra = reached & ~(inside[v] | levels[0][v] | added)
            inside[v] |= extra
            added |= extra
        return inside

    monkeypatch.setattr(oracles, "_boundary_lanes", mutant)
