"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

Every test prints a single "criterion N: PASS/FAIL ..." line with the
measured quantities before asserting, so the verdict survives in the
captured output either way. Corpora are built once at module scope:

- the exhaustive corpus of connected labeled graphs on 1..5 vertices,
- 200 seeded random connected graphs on 6..9 vertices,
- 100 seeded random factor pairs on 2..6 vertices for the products.

Criterion 6 checks every product report (computed from the factors by
closed forms) against BFS on the built product, at every kind and base.
It asserts the candidate product bounds that are true (both
containments and the gx interval for cartesian and strong, the lower
containment and gx floor for lexicographic) at every base. The paper's
lexicographic upper bound and its gx cap are false in general, so the
criterion proves the exact statement instead: the lexicographic boundary
equals the closed form of helpers.direct_lexicographic_boundary, the
reports' witnesses are exactly the base-layer vertices at layer distance
two whose second coordinate is interior, the gx cap fails exactly when
the exact boundary outgrows it, and the candidate is refuted at least
once on the corpus.
"""

import random
import time

import numpy as np
import pytest

from geodom import (
    ProductKind,
    bfs_distances,
    boundary,
    enumerate_connected_graphs,
    find_simplicial_counterexample,
    geodetic_from_boundary,
    geodetic_number_bruteforce,
    is_geodetic,
    is_x_geodominating,
    min_gx_vertex,
    path_graph,
    product,
    product_distance,
    product_reports,
    random_connected_graph,
    random_graph_corpus,
    simplicial_vertices,
    verify_unique_minimum,
)
from helpers import (
    cells,
    direct_boundary,
    direct_lexicographic_boundary,
    floyd_warshall,
    pair_labels,
)

P3A = path_graph(["a", "b", "c"])
P3N = path_graph(["1", "2", "3"])
P4N = path_graph(["1", "2", "3", "4"])

EXHAUSTIVE_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


def report(line: str) -> None:
    print(line)


@pytest.fixture(scope="module")
def exhaustive_by_n():
    return {n: tuple(enumerate_connected_graphs(n)) for n in range(1, 6)}


@pytest.fixture(scope="module")
def random_graphs():
    return random_graph_corpus(200, 6, 9, 0.35, seed=42)


@pytest.fixture(scope="module")
def factor_pairs():
    graphs = random_graph_corpus(200, 2, 6, 0.4, seed=7)
    return [(graphs[2 * i], graphs[2 * i + 1]) for i in range(100)]


def test_criterion_01_lexicographic_boundary_example():
    t0 = time.perf_counter()
    rep_a, rep_b = product_reports("lexicographic", P3A, P3N, [(0, 0), (1, 0)])
    elapsed = time.perf_counter() - t0
    got_a = pair_labels(P3A, P3N, rep_a.actual)
    got_b = pair_labels(P3A, P3N, rep_b.actual)
    ok = (
        got_a == ["(a,3)", "(c,1)", "(c,2)", "(c,3)"]
        and got_b == ["(b,3)"]
        and elapsed < 1.0
    )
    report(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - lexicographic P3*P3 "
        f"boundary of (a,1) = {got_a}, of (b,1) = {got_b} in {elapsed:.3f}s"
    )
    assert got_a == ["(a,3)", "(c,1)", "(c,2)", "(c,3)"]
    assert got_b == ["(b,3)"]
    assert elapsed < 1.0


def test_criterion_02_strong_boundary_examples():
    t0 = time.perf_counter()
    [rep3] = product_reports("strong", P3A, P3N, [(0, 0)])
    [rep4] = product_reports("strong", P3A, P4N, [(0, 0)])
    elapsed = time.perf_counter() - t0
    got3 = pair_labels(P3A, P3N, rep3.actual)
    got4 = pair_labels(P3A, P4N, rep4.actual)
    missing = pair_labels(P3A, P4N, rep4.upper & ~rep4.actual)
    ok = (
        got3 == ["(a,3)", "(b,3)", "(c,1)", "(c,2)", "(c,3)"]
        and got4 == ["(a,4)", "(b,4)", "(c,1)", "(c,2)", "(c,4)"]
        and rep4.upper_strict
        and missing == ["(c,3)"]
        and elapsed < 1.0
    )
    report(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - strong boundaries "
        f"{got3} and {got4}, upper bound excludes exactly {missing}, "
        f"in {elapsed:.3f}s"
    )
    assert got3 == ["(a,3)", "(b,3)", "(c,1)", "(c,2)", "(c,3)"]
    assert got4 == ["(a,4)", "(b,4)", "(c,1)", "(c,2)", "(c,4)"]
    assert rep4.upper_strict and missing == ["(c,3)"]
    assert elapsed < 1.0


def test_criterion_03_unique_minimum_is_the_boundary(exhaustive_by_n, random_graphs):
    t0 = time.perf_counter()
    counts = {n: len(gs) for n, gs in exhaustive_by_n.items()}
    assert counts == EXHAUSTIVE_COUNTS, counts
    # single-vertex graphs carry no source/target pair to check
    corpus = [g for gs in exhaustive_by_n.values() for g in gs if g.n >= 2]
    corpus.extend(random_graphs)
    rep = verify_unique_minimum(corpus)
    elapsed = time.perf_counter() - t0
    ok = rep.ok and elapsed < 600.0
    report(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - exhaustive counts "
        f"{tuple(counts.values())}, oracle agreement on {rep.graphs_checked} "
        f"graphs / {rep.sources_checked} sources, {len(rep.failures)} "
        f"failures, in {elapsed:.1f}s"
    )
    assert rep.graphs_checked == 771 + 200
    assert rep.ok, rep.failures[:3]
    assert elapsed < 600.0


def test_criterion_04_biconditional_on_random_candidates(
    exhaustive_by_n, random_graphs
):
    corpus = [g for gs in exhaustive_by_n.values() for g in gs if g.n >= 2]
    corpus.extend(random_graphs)
    rng = random.Random(2026)
    violations = []
    checked = 0
    for g in corpus:
        bounds = [set(boundary(g, x)) for x in range(g.n)]
        for i in range(20):
            x = rng.randrange(g.n)
            bnd = bounds[x]
            others = [v for v in range(g.n) if v != x]
            if i % 2 == 0:
                extra = rng.sample(others, rng.randint(0, len(others)))
                cand = sorted(bnd | set(extra))
            else:
                # drop one boundary vertex so non-supersets really occur
                drop = rng.choice(sorted(bnd))
                pool = [v for v in others if v != drop]
                cand = sorted(rng.sample(pool, rng.randint(0, len(pool))))
            chk = is_x_geodominating(g, x, cand)
            checked += 1
            if chk.is_geodominating != (bnd <= set(cand)):
                violations.append((g, x, cand))
    ok = not violations
    report(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - geodomination iff "
        f"boundary containment on {checked} candidate sets across "
        f"{len(corpus)} graphs, {len(violations)} violations"
    )
    assert not violations, violations[:3]


def test_criterion_05_cartesian_equality_on_corpus(factor_pairs):
    t0 = time.perf_counter()
    bases = 0
    for g, h in factor_pairs:
        for rep in product_reports("cartesian", g, h):
            bases += 1
            assert cells(rep.lower, h.n) == cells(rep.upper, h.n) == cells(rep.actual, h.n), (
                rep.base,
                list(g.edges()),
                list(h.edges()),
            )
            assert rep.gx == rep.gx_g * rep.gx_h, rep
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0
    report(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - cartesian boundary and "
        f"gx equalities on {len(factor_pairs)} factor pairs / {bases} bases, "
        f"in {elapsed:.1f}s"
    )
    assert elapsed < 300.0


def test_criterion_06_sandwich_and_gx_bounds(factor_pairs):
    lex = ProductKind.LEXICOGRAPHIC
    contain_bad = {kind: [] for kind in ProductKind}
    gx_bad = {kind: [] for kind in ProductKind}
    wrong = []  # true statements that failed: (pair, base, what)
    bases = 0
    for idx, (g, h) in enumerate(factor_pairs):
        dist_g, dist_h = floyd_warshall(g), floyd_warshall(h)
        gx_g = [len(direct_boundary(g, dist_g, x)) for x in range(g.n)]
        bh = [direct_boundary(h, dist_h, y) for y in range(h.n)]
        exact = {
            (x, y): direct_lexicographic_boundary(g, h, dist_g, dist_h, x, y)
            for x in range(g.n)
            for y in range(h.n)
        }
        for kind in ProductKind:
            pg = product(kind, g, h)
            for rep in product_reports(kind, g, h):
                # BFS on the built product is the oracle at every kind
                bfs = boundary(pg.graph, pg.index_of_pair(*rep.base))
                got = {pg.index_of_pair(a, b) for a, b in cells(rep.actual, h.n)}
                if got != set(bfs) or rep.gx != len(bfs):
                    wrong.append((idx, rep.base, f"{kind.value} boundary against BFS"))
                if not rep.containments_hold:
                    contain_bad[kind].append((idx, rep))
                if not rep.gx_holds:
                    gx_bad[kind].append((idx, rep))
                if kind is not lex:
                    continue
                bases += 1
                x, y = rep.base
                actual = cells(rep.actual, h.n)
                # the paper's candidate misses exactly the base-layer vertices
                # at layer distance two whose second coordinate is interior
                predicted = {
                    (x, b)
                    for b in range(h.n)
                    if dist_h[y][b] >= 2 and b not in bh[y]
                }
                witnesses = set() if rep.witnesses is None else cells(rep.witnesses, h.n)
                if not cells(rep.lower, h.n) <= actual:
                    wrong.append((idx, rep.base, "lower containment"))
                if actual != exact[rep.base]:
                    wrong.append((idx, rep.base, "exact boundary"))
                if witnesses != predicted or rep.containments_hold == bool(predicted):
                    wrong.append((idx, rep.base, "predicted witnesses"))
                size = len(exact[rep.base])
                if rep.gx != size or rep.gx < rep.gx_lower:
                    wrong.append((idx, rep.base, "gx value or lower bound"))
                # the cap g_x(G) * n_H + g_x(H) fails exactly when exceeded
                if rep.gx_holds != (size <= gx_g[x] * h.n + len(bh[y])):
                    wrong.append((idx, rep.base, "predicted gx cap"))
    for kind in (ProductKind.CARTESIAN, ProductKind.STRONG):
        for idx, r in contain_bad[kind] + gx_bad[kind]:
            wrong.append((idx, r.base, f"{kind.value} bounds"))
    parts = []
    for kind in ProductKind:
        parts.append(
            f"{kind.value}: {len(contain_bad[kind])} containment / "
            f"{len(gx_bad[kind])} gx violations"
        )
    detail = ""
    first = next(((kind, *v) for kind in ProductKind for v in contain_bad[kind]), None)
    if first is not None:
        kind, idx, rep = first
        outside = [] if rep.witnesses is None else pair_labels(*factor_pairs[idx], rep.witnesses)
        detail = (
            f"; first witness: pair {idx}, kind {kind.value}, base "
            f"{rep.base}, boundary vertices outside the upper bound: "
            f"{outside}"
        )
    refuted = bool(contain_bad[lex]) and bool(gx_bad[lex])
    ok = not wrong and refuted
    report(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - bounds on {bases} bases "
        f"per kind, every report against BFS on the built product, exact "
        f"lexicographic boundary, witnesses and gx cap "
        f"predicted with {len(wrong)} mismatches, paper's lexicographic "
        f"candidate refuted: {refuted}; " + "; ".join(parts) + detail
    )
    assert not wrong, wrong[:5]
    assert refuted, "; ".join(parts)


def test_criterion_07_closed_form_distances_match_bfs(factor_pairs):
    products = 0
    for g, h in factor_pairs:
        rows_g = [bfs_distances(g, x) for x in range(g.n)]
        rows_h = [bfs_distances(h, y) for y in range(h.n)]
        for kind in ProductKind:
            pg = product(kind, g, h)
            products += 1
            for p in range(pg.graph.n):
                x, y = pg.pair_of(p)
                # one closed-form row per p, against every q
                got = product_distance(kind, rows_g[x], rows_h[y])
                got = [got[a][b] for a, b in pg.factor_pairs]
                assert got == bfs_distances(pg.graph, p).tolist(), (kind, (x, y))
    report(
        f"criterion 7: PASS - closed-form distances match BFS on "
        f"{products} constructed products"
    )


def test_criterion_08_geodetic_bound_and_heuristic(exhaustive_by_n, random_graphs):
    corpus = [g for gs in exhaustive_by_n.values() for g in gs if g.n >= 2]
    corpus.extend(random_graphs)
    for g in corpus:
        _, best = min_gx_vertex(g)
        gnum = len(geodetic_number_bruteforce(g))
        assert gnum <= best + 1, (list(g.edges()), gnum, best)
        hull_set = geodetic_from_boundary(g)
        assert len(hull_set) == best + 1
        assert is_geodetic(g, hull_set), list(g.edges())
    report(
        f"criterion 8: PASS - geodetic number <= min gx + 1 and the "
        f"boundary-derived geodetic set checks out on {len(corpus)} graphs"
    )


def test_criterion_09_simplicial_counterexample():
    t0 = time.perf_counter()
    found = find_simplicial_counterexample(8)
    elapsed = time.perf_counter() - t0
    assert found is not None
    g, simp = found
    assert len(simp) >= 1
    assert simplicial_vertices(g) == simp
    failing = [x for x in range(g.n) if not is_x_geodominating(g, x, simp).is_geodominating]
    ok = len(failing) == g.n and elapsed < 300.0
    report(
        f"criterion 9: {'PASS' if ok else 'FAIL'} - n={g.n} graph with "
        f"simplicial set {g.labels_of(simp)} failing from all {g.n} "
        f"sources, found in {elapsed:.1f}s"
    )
    assert len(failing) == g.n
    assert elapsed < 300.0


def test_criterion_10_boundary_scaling():
    sizes = (500, 1000, 2000)
    times = []
    for n in sizes:
        g = random_connected_graph(n, edge_probability=3.0 / n, seed=42)
        t0 = time.perf_counter()
        for x in range(g.n):
            boundary(g, x)
        times.append(time.perf_counter() - t0)
    exponent = float(
        np.polyfit(np.log(np.array(sizes)), np.log(np.array(times)), 1)[0]
    )
    ok = times[-1] <= 10.0
    report(
        f"criterion 10: {'PASS' if ok else 'FAIL'} - all-source boundary "
        f"times {[f'{t:.2f}s' for t in times]} for n={list(sizes)}, fitted "
        f"exponent {exponent:.2f} (reported, not asserted), n=2000 within "
        f"10s: {times[-1] <= 10.0}"
    )
    assert times[-1] <= 10.0
