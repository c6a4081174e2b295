"""The four workloads: each a fixed list of geodom invocations built from
the seed, with the check every invocation's output must pass.

Every list holds at least one command twice (the last entry repeats the
first, or the short oracle runs appear three times), so even a run of a
single pass times a command twice and compares its stdout byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs as gen

# Connected labelled graphs on 2..6 vertices (OEIS A001187) and the
# sources they contribute, which `verify-theorems --exhaustive-n 6` sweeps.
_CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
EXHAUSTIVE_GRAPHS = sum(_CONNECTED_COUNTS.values())
EXHAUSTIVE_SOURCES = sum(n * c for n, c in _CONNECTED_COUNTS.items())

Check = Callable[[int, dict], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: arguments after `geodom`, and the check its
    exit code and JSON document must pass (None when they do)."""

    args: tuple[str, ...]
    check: Check

    def argv(self) -> list[str]:
        return [*self.args, "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[gen.InputFile, ...]
    ops: tuple[Op, ...]


def _first_error(*pairs: tuple[str, object, object]) -> "str | None":
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {_short(got)}, expected {_short(want)}"
    return None


def _short(value: object) -> str:
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _boundary_check(g: gen.Graph, x: int) -> Check:
    want = g.names(gen.boundary(g, x))

    def check(code: int, doc: dict) -> "str | None":
        return _first_error(
            ("exit code", code, 0),
            ("boundary", doc["result"]["boundary"], want),
            ("gx", doc["result"]["gx"], len(want)),
            ("checks", doc["checks"], {"geodominates": True}),
        )

    return check


def _gx_check(g: gen.Graph, x: int) -> Check:
    want = len(gen.boundary(g, x))

    def check(code: int, doc: dict) -> "str | None":
        return _first_error(("exit code", code, 0), ("gx", doc["result"]["gx"], want))

    return check


def _x_check_check(g: gen.Graph, x: int, s: list[int]) -> Check:
    cov = gen.covered(g, x, s)
    uncovered = [v for v in range(g.n) if not cov[v]]
    want = {
        "is_geodominating": not uncovered,
        "uncovered": g.labels[uncovered[0]] if uncovered else None,
    }

    def check(code: int, doc: dict) -> "str | None":
        return _first_error(
            ("exit code", code, 0),
            ("result", doc["result"], want),
            ("checks", doc["checks"], {"agrees_with_boundary_rule": True}),
        )

    return check


def _closure_check(g: gen.Graph, s: list[int]) -> Check:
    members = gen.closure(g, s)
    want = {"closure": g.names(members), "geodetic": len(members) == g.n}

    def check(code: int, doc: dict) -> "str | None":
        return _first_error(("exit code", code, 0), ("result", doc["result"], want))

    return check


def sparse_single(seed: int, workdir: Path) -> Workload:
    """Single-source commands on one sparse graph (n = 2000, m = 5000)."""
    rng = gen.derive_rng(seed, "sparse-single")
    g = gen.random_graph(2000, 5000, rng)
    f = gen.write_graph(workdir, "sparse.txt", g)
    x1, x2, x3, x4 = rng.sample(range(g.n), 4)
    full = gen.boundary(g, x3)
    partial = gen.boundary(g, x4)
    partial.remove(rng.choice(partial))
    s = rng.sample(range(g.n), 5)
    lab = g.labels

    def names(vs) -> str:
        return " ".join(g.names(vs))

    first = Op(("boundary", "-g", f.name, "--x", lab[x1]), _boundary_check(g, x1))
    ops = (
        first,
        Op(("gx", "-g", f.name, "--x", lab[x2]), _gx_check(g, x2)),
        Op(("check", "-g", f.name, "--x", lab[x3], "--set", names(full)),
           _x_check_check(g, x3, full)),
        Op(("check", "-g", f.name, "--x", lab[x4], "--set", names(partial)),
           _x_check_check(g, x4, partial)),
        Op(("closure", "-g", f.name, "--set", names(s)), _closure_check(g, s)),
        first,
    )
    return Workload("sparse-single", (f,), ops)


def _heuristic_check(g: gen.Graph) -> Check:
    def check(code: int, doc: dict) -> "str | None":
        res = doc["result"]
        x = g.labels.index(res["source"])
        bx = gen.boundary(g, x)
        return _first_error(
            ("exit code", code, 0),
            ("checks", doc["checks"], {"is_geodetic": True, "size_is_min_gx_plus_one": True}),
            ("min_gx", res["min_gx"], len(bx)),
            ("set", res["set"], g.names({*bx, x})),
            ("size", res["size"], len(res["set"])),
        )

    return check


def all_source(seed: int, workdir: Path) -> Workload:
    """`geodetic-heuristic` on three distinct sparse graphs (n = 2000)."""
    ops = []
    files = []
    for i in range(3):
        g = gen.random_graph(2000, 5000, gen.derive_rng(seed, "all-source", i))
        f = gen.write_graph(workdir, f"sweep{i}.txt", g)
        files.append(f)
        ops.append(Op(("geodetic-heuristic", "-g", f.name), _heuristic_check(g)))
    return Workload("all-source", tuple(files), (*ops, ops[0]))


def _product_check(kind: str, g: gen.Graph, h: gen.Graph) -> Check:
    """Rows must agree with the checks block and the exit code. Cartesian
    rows are also checked exactly: the boundary of (a, b) is the product
    of the factor boundaries. Lexicographic may exit 1, since the paper's
    candidate upper bound is false there."""
    bg = {g.labels[a]: g.names(gen.boundary(g, a)) for a in range(g.n)}
    bh = {h.labels[b]: h.names(gen.boundary(h, b)) for b in range(h.n)}

    def check(code: int, doc: dict) -> "str | None":
        rows = doc["result"]["bases"]
        checks = doc["checks"]
        contain = all(r["containments_hold"] for r in rows)
        gx_ok = all(r["gx_holds"] for r in rows)
        err = _first_error(
            ("bases", len(rows), g.n * h.n),
            ("containments_hold", checks["containments_hold"], contain),
            ("gx_bounds_hold", checks["gx_bounds_hold"], gx_ok),
            ("exit code", code, 0 if contain and gx_ok else 1),
            ("gx", [r["gx"] for r in rows], [len(r["actual"]) for r in rows]),
        )
        if err or kind == "lexicographic":
            return err
        err = _first_error(("checks", checks, {"containments_hold": True, "gx_bounds_hold": True}))
        if err or kind != "cartesian":
            return err
        for r in rows:
            a, b = r["base"][1:-1].split(",")
            want = [f"({p},{q})" for p in bg[a] for q in bh[b]]
            err = _first_error((f"cartesian boundary at {r['base']}", r["actual"], want))
            if err:
                return err
        return None

    return check


def products(seed: int, workdir: Path) -> Workload:
    """`product-verify` for every kind on one seeded 20 x 20 factor pair.

    One pair keeps a pass short, so each command is timed several times
    in a run; the seeds vary the pair from run to run.
    """
    rng = gen.derive_rng(seed, "products")
    g = gen.random_graph(20, 40, rng, prefix="a")
    h = gen.random_graph(20, 40, rng, prefix="b")
    fg = gen.write_graph(workdir, "factor_g.txt", g)
    fh = gen.write_graph(workdir, "factor_h.txt", h)
    ops = [
        Op(("product-verify", "--kind", kind, "--g", fg.name, "--h", fh.name),
           _product_check(kind, g, h))
        for kind in ("cartesian", "lexicographic", "strong")
    ]
    return Workload("products", (fg, fh), (*ops, ops[0]))


def _verify_check(graphs: int, sources: int) -> Check:
    def check(code: int, doc: dict) -> "str | None":
        res = doc["result"]
        return _first_error(
            ("exit code", code, 0),
            ("checks", doc["checks"], {"holds": True}),
            ("graphs_checked", res["graphs_checked"], graphs),
            ("sources_checked", res["sources_checked"], sources),
            ("failures", res["failures"], []),
        )

    return check


def _counterexample_check(min_simplicial: int) -> Check:
    """The reported graph is recomputed from its own document: its
    simplicial set must be the one reported and fail from every source."""

    def check(code: int, doc: dict) -> "str | None":
        res = doc["result"]
        err = _first_error(
            ("exit code", code, 0),
            ("found", res["found"], True),
            ("checks", doc["checks"], {"fails_from_every_source": True}),
        )
        if err:
            return err
        g = gen.parse_edge_list(res["document"])
        simp = gen.simplicial(g)
        fails = all(not all(gen.covered(g, z, simp)) for z in range(g.n))
        return _first_error(
            ("simplicial", res["simplicial"], g.names(simp)),
            ("enough simplicial vertices", len(simp) >= min_simplicial, True),
            ("fails from every source", fails, True),
        )

    return check


def _oracle_gx_check(g: gen.Graph, x: int) -> Check:
    want = g.names(gen.boundary(g, x))

    def check(code: int, doc: dict) -> "str | None":
        return _first_error(
            ("exit code", code, 0),
            ("result", doc["result"],
             {"minimum_size": len(want), "minimum_sets": [want], "exhausted": True}),
            ("checks", doc["checks"], {"unique_minimum": True, "equals_boundary": True}),
        )

    return check


def _oracle_geodetic_check(g: gen.Graph) -> Check:
    """The witness must be geodetic and as large as the reported number,
    and no smaller than two (a geodetic set of a graph with n >= 2)."""

    def check(code: int, doc: dict) -> "str | None":
        res = doc["result"]
        witness = [g.labels.index(lab) for lab in res["witness"]]
        return _first_error(
            ("exit code", code, 0),
            ("checks", doc["checks"], {"relation_holds": True, "heuristic_is_geodetic": True}),
            ("witness size", len(witness), res["geodetic_number"]),
            ("witness is geodetic", len(gen.closure(g, witness)), g.n),
            ("geodetic number at least 2", res["geodetic_number"] >= 2, True),
        )

    return check


def oracles(seed: int, workdir: Path) -> Workload:
    """The two long oracle sweeps plus short oracle runs on 9-12 vertices."""
    rng = gen.derive_rng(seed, "oracles")
    small = {n: gen.random_graph(n, n + n // 2, rng) for n in (9, 10, 11, 12)}
    files = {n: gen.write_graph(workdir, f"oracle{n}.txt", g) for n, g in small.items()}
    x10, x12 = rng.randrange(10), rng.randrange(12)
    random_seed = rng.randrange(1_000_000)

    def oracle_gx(n: int, x: int) -> Op:
        g = small[n]
        return Op(("oracle-gx", "-g", files[n].name, "--x", g.labels[x]), _oracle_gx_check(g, x))

    short = (
        oracle_gx(10, x10),
        oracle_gx(12, x12),
        Op(("oracle-geodetic", "-g", files[9].name), _oracle_geodetic_check(small[9])),
        Op(("oracle-geodetic", "-g", files[11].name, "--cap", "12"),
           _oracle_geodetic_check(small[11])),
        Op(("verify-theorems", "--exhaustive-n", "0", "--random", "30", "--n", "9",
            "--seed", str(random_seed)), _verify_check(30, 30 * 9)),
    )
    # The long sweeps run once per pass, which is all a run has time for.
    # The short runs come before, between and after them, so each is timed
    # three times spread over the pass.
    ops = (
        *short,
        Op(("verify-theorems", "--exhaustive-n", "6"),
           _verify_check(EXHAUSTIVE_GRAPHS, EXHAUSTIVE_SOURCES)),
        *short,
        Op(("find-counterexample", "--max-n", "8", "--min-simplicial", "4"),
           _counterexample_check(4)),
        *short,
    )
    return Workload("oracles", tuple(files.values()), ops)


BUILDERS: dict[str, Callable[[int, Path], Workload]] = {
    "sparse-single": sparse_single,
    "all-source": all_source,
    "products": products,
    "oracles": oracles,
}


def setup_op(workdir: Path) -> Op:
    """A command that does no graph work: the boundary of a two-vertex graph."""
    g = gen.from_edges(("a", "b"), [(0, 1)])
    f = gen.write_graph(workdir, "two.txt", g)
    return Op(("boundary", "-g", f.name, "--x", "a"), _boundary_check(g, 0))
