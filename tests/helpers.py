"""Hand-rolled reference implementations used as independent test oracles.

Nothing here shares code with the package: distances come from
Floyd-Warshall instead of BFS, intervals from explicit simple-path
enumeration, boundaries and coverage from direct definition scans.
"""

from __future__ import annotations

from geodom import Graph

INF = 10**9


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


def cells(mask) -> set[tuple[int, int]]:
    """The (a, b) factor index pairs set in a product report's mask."""
    return {(int(a), int(b)) for a, b in zip(*mask.nonzero())}


def pair_labels(g: Graph, h: Graph, mask) -> list[str]:
    """Sorted product labels "(g,h)" of the pairs set in a report's mask."""
    return sorted(f"({g.labels[a]},{h.labels[b]})" for a, b in cells(mask))


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
