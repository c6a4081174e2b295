"""Command-line front end.

Every subcommand reads edge-list files, validates inputs before
computing, and writes either plain text or a single JSON document
{command, inputs, result, checks} with fixed field order. Output is
byte-identical across runs for identical inputs and seeds. Exit codes:
0 success, 1 property-check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .boundary import (
    _boundary_and_coverage,
    _boundary_with_source,
    boundary,
    gx_set,
    is_x_geodominating,
    min_gx_vertex,
)
from .graph import (
    Graph,
    GraphError,
    VertexSet,
    all_pairs,
    emit_graph,
    geodetic_closure,
    is_geodetic,
    parse_graph,
)
from .oracles import (
    enumerate_connected_graphs,
    find_simplicial_counterexample,
    geodetic_number_bruteforce,
    min_x_geodominating_bruteforce,
    random_graph_corpus,
    verify_unique_minimum,
)
from .products import (
    ProductGraph,
    product,
    product_boundary_reports,
    product_gx_reports,
)

__all__ = ["main"]


class Outcome(NamedTuple):
    code: int
    lines: list[str]
    inputs: dict
    result: dict
    checks: dict


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _labels(g: Graph, vs) -> list[str]:
    return g.labels_of(vs)


def _parse_set(g: Graph, spec: str) -> VertexSet:
    return VertexSet.of((g.index_of(lab) for lab in spec.split()), g.n)


def _parse_base(base: str, g: Graph, h: Graph) -> tuple[int, int]:
    s = base.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    for k in (i for i, ch in enumerate(s) if ch == ","):
        try:
            return g.index_of(s[:k]), h.index_of(s[k + 1:])
        except ValueError:
            continue
    raise ValueError(f"base {base!r} does not name a vertex pair of the factors")


def _pair_sorted(pg: ProductGraph, vs) -> list[str]:
    def key(p: int) -> tuple[str, str]:
        gi, hi = pg.factor_pairs[p]
        return (pg.factor_g.labels[gi], pg.factor_h.labels[hi])

    return [pg.graph.labels[p] for p in sorted(vs, key=key)]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_boundary(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    x = g.index_of(args.x)
    res, chk = _boundary_and_coverage(g, x)
    covers = chk.is_geodominating
    labels = _labels(g, res.boundary)
    return Outcome(
        code=0 if covers else 1,
        lines=[" ".join(labels), f"gx = {res.gx}"],
        inputs={"graph": args.graph, "x": args.x},
        result={"boundary": labels, "gx": res.gx},
        checks={"geodominates": covers},
    )


def _cmd_gx(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    res = boundary(g, None, g.index_of(args.x))
    return Outcome(
        code=0,
        lines=[f"gx = {res.gx}"],
        inputs={"graph": args.graph, "x": args.x},
        result={"gx": res.gx},
        checks={},
    )


def _cmd_check(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    x = g.index_of(args.x)
    s = _parse_set(g, args.set)
    res, chk = _boundary_and_coverage(g, x, s)
    agrees = chk.is_geodominating == res.boundary.issubset(s)
    lines = [f"geodominating: {_yesno(chk.is_geodominating)}"]
    if chk.witness_uncovered is not None:
        lines.append(f"uncovered: {g.labels[chk.witness_uncovered]}")
    return Outcome(
        code=0 if agrees else 1,
        lines=lines,
        inputs={"graph": args.graph, "x": args.x, "set": args.set},
        result={
            "is_geodominating": chk.is_geodominating,
            "uncovered": None
            if chk.witness_uncovered is None
            else g.labels[chk.witness_uncovered],
        },
        checks={"agrees_with_boundary_rule": agrees},
    )


def _cmd_closure(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    s = _parse_set(g, args.set)
    closure = geodetic_closure(g, s)
    geodetic = len(closure) == g.n
    labels = _labels(g, closure)
    return Outcome(
        code=0,
        lines=[" ".join(labels), f"geodetic: {_yesno(geodetic)}"],
        inputs={"graph": args.graph, "set": args.set},
        result={"closure": labels, "geodetic": geodetic},
        checks={},
    )


def _cmd_product(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    pg = product(args.kind, g, h)
    document = emit_graph(pg.graph)
    result = {
        "kind": pg.kind.value,
        "vertex_count": pg.graph.n,
        "edge_count": pg.graph.edge_count,
    }
    if args.emit:
        lines = document.splitlines()
        result["document"] = document
    else:
        lines = [
            f"kind: {pg.kind.value}",
            f"vertices: {pg.graph.n}",
            f"edges: {pg.graph.edge_count}",
        ]
    return Outcome(
        code=0,
        lines=lines,
        inputs={"kind": args.kind, "g": args.g, "h": args.h, "emit": args.emit},
        result=result,
        checks={},
    )


def _cmd_product_verify(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    b_reports = product_boundary_reports(args.kind, g, h)
    gx_reports = product_gx_reports(args.kind, g, h)
    pg = b_reports[0].product
    if args.base is not None:
        base = _parse_base(args.base, g, h)
        b_reports = tuple(r for r in b_reports if r.base == base)
        gx_reports = tuple(r for r in gx_reports if r.base == base)

    rows = []
    all_contain = True
    all_gx = True
    for br, gr in zip(b_reports, gx_reports):
        all_contain = all_contain and br.containments_hold
        all_gx = all_gx and gr.holds
        rows.append(
            {
                "base": pg.graph.labels[pg.index_of_pair(*br.base)],
                "actual": _pair_sorted(pg, br.actual_boundary),
                "lower": _pair_sorted(pg, br.lower_bound),
                "upper": _pair_sorted(pg, br.upper_bound),
                "containments_hold": br.containments_hold,
                "upper_strict": br.upper_strict,
                "witnesses": None
                if br.witnesses is None
                else _pair_sorted(pg, br.witnesses),
                "gx": gr.gx_product,
                "gx_lower": gr.lower,
                "gx_upper": gr.upper,
                "gx_holds": gr.holds,
            }
        )

    if args.base is not None and rows:
        row = rows[0]
        lines = [
            f"base: {row['base']}",
            "actual boundary: " + " ".join(row["actual"]),
            "lower bound: " + " ".join(row["lower"]),
            "upper bound: " + " ".join(row["upper"]),
            f"containments hold: {_yesno(row['containments_hold'])}",
            f"upper bound strict: {_yesno(row['upper_strict'])}",
            f"gx: {row['gx']} {'within' if row['gx_holds'] else 'outside'} "
            f"[{row['gx_lower']}, {row['gx_upper']}]",
        ]
        if row["witnesses"] is not None:
            lines.insert(5, "witnesses: " + " ".join(row["witnesses"]))
    else:
        lines = [
            f"bases checked: {len(rows)}",
            f"containments hold: {_yesno(all_contain)}",
            f"gx bounds hold: {_yesno(all_gx)}",
        ]
        for row in rows:
            if not row["containments_hold"]:
                lines.append(
                    f"FAIL base {row['base']}: witnesses "
                    + " ".join(row["witnesses"])
                )
            if not row["gx_holds"]:
                lines.append(
                    f"FAIL base {row['base']}: gx {row['gx']} outside "
                    f"[{row['gx_lower']}, {row['gx_upper']}]"
                )
    ok = all_contain and all_gx
    return Outcome(
        code=0 if ok else 1,
        lines=lines,
        inputs={"kind": args.kind, "g": args.g, "h": args.h, "base": args.base},
        result={"bases": rows},
        checks={"containments_hold": all_contain, "gx_bounds_hold": all_gx},
    )


def _cmd_geodetic_heuristic(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    x, min_gx = min_gx_vertex(g)
    s = _boundary_with_source(g, x)
    geodetic = is_geodetic(g, s)
    size_ok = len(s) == min_gx + 1
    labels = _labels(g, s)
    ok = geodetic and size_ok
    return Outcome(
        code=0 if ok else 1,
        lines=[" ".join(labels), f"size = {len(s)}", f"geodetic: {_yesno(geodetic)}"],
        inputs={"graph": args.graph},
        result={
            "set": labels,
            "size": len(s),
            "source": g.labels[x],
            "min_gx": min_gx,
        },
        checks={"is_geodetic": geodetic, "size_is_min_gx_plus_one": size_ok},
    )


def _cmd_oracle_gx(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    dm = all_pairs(g)
    x = g.index_of(args.x)
    res = min_x_geodominating_bruteforce(g, dm, x, cap=args.cap)
    expected = gx_set(g, dm, x)
    unique = len(res.minimum_sets) == 1
    matches = unique and res.minimum_sets[0] == expected
    sets_labels = [_labels(g, s) for s in res.minimum_sets]
    ok = res.exhausted and unique and matches
    return Outcome(
        code=0 if ok else 1,
        lines=[
            f"minimum size = {res.minimum_size}",
            "minimum sets: " + ", ".join("{" + " ".join(s) + "}" for s in sets_labels),
            f"matches boundary: {_yesno(matches)}",
        ],
        inputs={"graph": args.graph, "x": args.x, "cap": args.cap},
        result={
            "minimum_size": res.minimum_size,
            "minimum_sets": sets_labels,
            "exhausted": res.exhausted,
        },
        checks={"unique_minimum": unique, "equals_boundary": matches},
    )


def _cmd_oracle_geodetic(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    dm = all_pairs(g)
    number, witness = geodetic_number_bruteforce(g, dm, cap=args.cap)
    if g.n >= 2:
        x, min_gx = min_gx_vertex(g)
        heuristic = _boundary_with_source(g, x)
        relation = number <= min_gx + 1
        heuristic_ok = is_geodetic(g, heuristic) and len(heuristic) == min_gx + 1
    else:
        min_gx, relation, heuristic_ok = 0, True, True
    ok = relation and heuristic_ok
    return Outcome(
        code=0 if ok else 1,
        lines=[
            f"geodetic number = {number}",
            "witness: " + " ".join(_labels(g, witness)),
            f"min gx + 1 = {min_gx + 1}",
            f"relation holds: {_yesno(relation)}",
        ],
        inputs={"graph": args.graph, "cap": args.cap},
        result={
            "geodetic_number": number,
            "witness": _labels(g, witness),
            "min_gx": min_gx,
        },
        checks={"relation_holds": relation, "heuristic_is_geodetic": heuristic_ok},
    )


def _cmd_verify_theorems(args: argparse.Namespace) -> Outcome:
    if not 0 <= args.exhaustive_n <= 7:
        raise ValueError("--exhaustive-n must lie in [0, 7]")
    graphs: list[Graph] = []
    for n in range(2, args.exhaustive_n + 1):
        graphs.extend(enumerate_connected_graphs(n))
    if args.random > 0:
        graphs.extend(random_graph_corpus(args.random, args.n, args.n, args.p, args.seed))
    report = verify_unique_minimum(graphs)
    lines = [
        f"graphs checked: {report.graphs_checked}",
        f"sources checked: {report.sources_checked}",
    ]
    if report.ok:
        lines.append("theorem holds on all instances")
    else:
        lines.extend(f"FAIL: {f}" for f in report.failures[:5])
    return Outcome(
        code=0 if report.ok else 1,
        lines=lines,
        inputs={
            "exhaustive_n": args.exhaustive_n,
            "random": args.random,
            "n": args.n,
            "p": args.p,
            "seed": args.seed,
        },
        result={
            "graphs_checked": report.graphs_checked,
            "sources_checked": report.sources_checked,
            "failures": list(report.failures),
        },
        checks={"holds": report.ok},
    )


def _cmd_find_counterexample(args: argparse.Namespace) -> Outcome:
    hit = find_simplicial_counterexample(args.max_n, min_simplicial=args.min_simplicial)
    inputs = {"max_n": args.max_n, "min_simplicial": args.min_simplicial}
    if hit is None:
        return Outcome(
            code=1,
            lines=[f"no counterexample found up to n = {args.max_n}"],
            inputs=inputs,
            result={"found": False},
            checks={},
        )
    g, simp = hit
    dm = all_pairs(g)
    verified = all(
        not is_x_geodominating(g, dm, z, simp).is_geodominating for z in range(g.n)
    )
    document = emit_graph(g)
    lines = [
        f"found: n={g.n} m={g.edge_count}",
        "simplicial: " + " ".join(_labels(g, simp)),
        f"fails from every source: {_yesno(verified)}",
    ]
    lines.extend(document.splitlines())
    return Outcome(
        code=0 if verified else 1,
        lines=lines,
        inputs=inputs,
        result={
            "found": True,
            "n": g.n,
            "simplicial": _labels(g, simp),
            "document": document,
        },
        checks={"fails_from_every_source": verified},
    )


_HANDLERS: dict[str, Callable[[argparse.Namespace], Outcome]] = {
    "boundary": _cmd_boundary,
    "gx": _cmd_gx,
    "check": _cmd_check,
    "closure": _cmd_closure,
    "product": _cmd_product,
    "product-verify": _cmd_product_verify,
    "geodetic-heuristic": _cmd_geodetic_heuristic,
    "oracle-gx": _cmd_oracle_gx,
    "oracle-geodetic": _cmd_oracle_geodetic,
    "verify-theorems": _cmd_verify_theorems,
    "find-counterexample": _cmd_find_counterexample,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodom",
        description="Boundary vertices, x-geodomination, and geodetic sets "
        "on connected graphs, with product constructions and brute-force "
        "verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("plain", "json"), default="plain")
        return p

    def graph_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", "-g", required=True, help="edge-list file")

    def factor_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", required=True, choices=("cartesian", "lexicographic", "strong"))
        p.add_argument("--g", required=True, help="first factor edge-list file")
        p.add_argument("--h", required=True, help="second factor edge-list file")

    p = cmd("boundary", "boundary vertices of a source vertex")
    graph_flag(p)
    p.add_argument("--x", required=True, help="source vertex label")

    p = cmd("gx", "geodomination number of a source vertex")
    graph_flag(p)
    p.add_argument("--x", required=True)

    p = cmd("check", "test whether a set x-geodominates")
    graph_flag(p)
    p.add_argument("--x", required=True)
    p.add_argument("--set", required=True, help='vertex labels, e.g. "a b c"')

    p = cmd("closure", "geodetic closure of a set")
    graph_flag(p)
    p.add_argument("--set", required=True)

    p = cmd("product", "construct a graph product")
    factor_flags(p)
    p.add_argument("--emit", action="store_true", help="print the edge-list document")

    p = cmd("product-verify", "check product boundary and gx bounds")
    factor_flags(p)
    p.add_argument("--base", help='base vertex pair, e.g. "(a,1)"')

    p = cmd("geodetic-heuristic", "geodetic set from a minimum boundary")
    graph_flag(p)

    p = cmd("oracle-gx", "brute-force minimum x-geodominating sets")
    graph_flag(p)
    p.add_argument("--x", required=True)
    p.add_argument("--cap", type=int, default=12)

    p = cmd("oracle-geodetic", "brute-force geodetic number")
    graph_flag(p)
    p.add_argument("--cap", type=int, default=10)

    p = cmd("verify-theorems", "oracle-agreement sweep over graph corpora")
    p.add_argument("--exhaustive-n", type=int, default=5, dest="exhaustive_n")
    p.add_argument("--random", type=int, default=0, help="number of random graphs")
    p.add_argument("--n", type=int, default=9, help="random graph size")
    p.add_argument("--p", type=float, default=0.35, help="extra-edge probability")
    p.add_argument("--seed", type=int, default=0)

    p = cmd("find-counterexample", "simplicial set failing from every source")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--min-simplicial", type=int, default=1, dest="min_simplicial")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = _HANDLERS[args.command](args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {
            "command": args.command,
            "inputs": out.inputs,
            "result": out.result,
            "checks": out.checks,
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        for line in out.lines:
            print(line)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
