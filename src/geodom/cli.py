"""Command-line front end.

Every subcommand reads edge-list files, validates inputs before
computing, and writes either plain text or a single JSON document
{command, inputs, result, checks} with fixed field order; inputs holds
the command's flags as parsed, in flag order. Output is byte-identical
across runs for identical inputs and seeds. The exit status is 2 for an
input error, and otherwise read from the checks block after the output
is written: 1 if any check is false, 0 if none is. The one exception is
find-counterexample finding nothing: exit 1, with an empty checks block.

Each command calls the one library entry that computes its result:
geodetic-heuristic and oracle-geodetic call ``geodetic_from_boundary``,
and product-verify calls ``product_reports``.

product-verify checks every input before it makes a report, the factors
before the base, then takes the reports one base at a time. Its factor
rows come from graph.py's BFS over each factor's stored neighbour
tuples, and each report's vertex sets are int masks over the product
cells, whose labels ``products._picked`` reads in row-major order. JSON
writes each row as it is made, and plain keeps only its FAIL lines,
since its summary comes first. If the reader closes stdout early, main
makes the remaining rows unwritten, so the exit code is a full run's.

The product and oracle handlers import their modules in their own body,
so a command compiles and loads only the layers it runs; no command
loads numpy. The oracle handlers hand the graph and --cap to the
brute-force searches, which refuse a --cap over 20 or an over-cap graph
before any distance work and compute distances with their own BFS.
verify-theorems hands --exhaustive-n and its corpus flags to the library
as given, --random 0 included, so the library's checks are the only ones.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from .boundary import (
    _boundary_and_coverage,
    boundary,
    geodetic_from_boundary,
    is_x_geodominating,
)
from .graph import (
    Graph,
    GraphError,
    VertexSet,
    emit_graph,
    geodetic_closure,
    parse_graph,
)
from .jsonout import Encoded, _write_json

__all__ = ["main"]


class Outcome(NamedTuple):
    """What a command prints. A value in ``result`` may be an iterator,
    written as a list as it is produced; such an iterator updates
    ``checks`` as it goes. ``main`` reads the exit status after writing:
    ``code`` if the command gives one, else 1 if any check is false and 0
    if none is."""

    lines: list[str]
    result: dict
    checks: dict
    code: int | None = None


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _parse_set(g: Graph, spec: str) -> VertexSet:
    return VertexSet.of((g.index_of(lab) for lab in spec.split()), g.n)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_boundary(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    x = g.index_of(args.x)
    members, chk = _boundary_and_coverage(g, x)
    covers = chk.is_geodominating
    labels = g.labels_of(members)
    return Outcome(
        lines=[" ".join(labels), f"gx = {len(members)}"],
        result={"boundary": labels, "gx": len(members)},
        checks={"geodominates": covers},
    )


def _cmd_gx(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    gx = len(boundary(g, g.index_of(args.x)))
    return Outcome(
        lines=[f"gx = {gx}"],
        result={"gx": gx},
        checks={},
    )


def _cmd_check(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    x = g.index_of(args.x)
    s = _parse_set(g, args.set)
    members, chk = _boundary_and_coverage(g, x, s)
    agrees = chk.is_geodominating == members.issubset(s)
    lines = [f"geodominating: {_yesno(chk.is_geodominating)}"]
    if chk.witness_uncovered is not None:
        lines.append(f"uncovered: {g.labels[chk.witness_uncovered]}")
    return Outcome(
        lines=lines,
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
    labels = g.labels_of(closure)
    return Outcome(
        lines=[" ".join(labels), f"geodetic: {_yesno(geodetic)}"],
        result={"closure": labels, "geodetic": geodetic},
        checks={},
    )


def _cmd_product(args: argparse.Namespace) -> Outcome:
    from .products import product

    g = _load_graph(args.g)
    h = _load_graph(args.h)
    pg = product(args.kind, g, h)
    result = {
        "kind": args.kind,
        "vertex_count": pg.graph.n,
        "edge_count": pg.graph.edge_count,
    }
    if args.emit:
        document = emit_graph(pg.graph)
        lines = [document[:-1]]
        result["document"] = document
    else:
        lines = [
            f"kind: {args.kind}",
            f"vertices: {pg.graph.n}",
            f"edges: {pg.graph.edge_count}",
        ]
    return Outcome(
        lines=lines,
        result=result,
        checks={},
    )


def _cmd_product_verify(args: argparse.Namespace) -> Outcome:
    from .products import ProductReport, _cell_labels, _parse_base, _picked, product_reports

    g = _load_graph(args.g)
    h = _load_graph(args.h)
    # the base is parsed lazily, by product_reports after its factor
    # checks, so a bad factor is reported before a bad base
    bases = None if args.base is None else map(_parse_base, [args.base], [g], [h])
    # every input is checked here, before any report is made
    stream = product_reports(args.kind, g, h, bases)
    checks = {"containments_hold": True, "gx_bounds_hold": True}

    def tallied(reports: Iterator[ProductReport]) -> Iterator[ProductReport]:
        # the checks cover every report passed on so far
        for rep in reports:
            if not rep.containments_hold:
                checks["containments_hold"] = False
            if not rep.gx_holds:
                checks["gx_bounds_hold"] = False
            yield rep

    reports = tallied(stream)
    escape = encode_basestring_ascii if args.format == "json" else str
    # the label of each cell, in mask bit order, and as the output writes it
    labels = _cell_labels(g, h)
    cells = list(map(escape, labels))

    def base_label(rep: ProductReport) -> str:
        return labels[rep.base[0] * h.n + rep.base[1]]

    # only the output format asked for is built
    if args.format == "json":
        rows = (
            {
                "base": base_label(rep),
                "actual": Encoded(_picked(cells, rep.actual)),
                "lower": Encoded(_picked(cells, rep.lower)),
                "upper": Encoded(_picked(cells, rep.upper)),
                "containments_hold": rep.containments_hold,
                "upper_strict": rep.upper_strict,
                "witnesses": None
                if rep.witnesses is None
                else Encoded(_picked(cells, rep.witnesses)),
                "gx": rep.gx,
                "gx_lower": rep.gx_lower,
                "gx_upper": rep.gx_upper,
                "gx_holds": rep.gx_holds,
            }
            for rep in reports
        )
        return Outcome(lines=[], result={"bases": rows}, checks=checks)
    if args.base is not None:
        (rep,) = reports
        lines = [
            f"base: {base_label(rep)}",
            "actual boundary: " + " ".join(_picked(cells, rep.actual)),
            "lower bound: " + " ".join(_picked(cells, rep.lower)),
            "upper bound: " + " ".join(_picked(cells, rep.upper)),
            f"containments hold: {_yesno(rep.containments_hold)}",
            f"upper bound strict: {_yesno(rep.upper_strict)}",
            f"gx: {rep.gx} {'within' if rep.gx_holds else 'outside'} "
            f"[{rep.gx_lower}, {rep.gx_upper}]",
        ]
        if rep.witnesses is not None:
            lines.insert(5, "witnesses: " + " ".join(_picked(cells, rep.witnesses)))
        return Outcome(lines=lines, result={}, checks=checks)
    # the summary comes first but needs every report: keep the FAIL lines
    fails = []
    count = 0
    for rep in reports:
        count += 1
        if rep.containments_hold and rep.gx_holds:
            continue
        base = base_label(rep)
        if not rep.containments_hold:
            witnesses = " ".join(_picked(cells, rep.witnesses))
            fails.append(f"FAIL base {base}: witnesses {witnesses}")
        if not rep.gx_holds:
            fails.append(
                f"FAIL base {base}: gx {rep.gx} outside [{rep.gx_lower}, {rep.gx_upper}]"
            )
    lines = [
        f"bases checked: {count}",
        f"containments hold: {_yesno(checks['containments_hold'])}",
        f"gx bounds hold: {_yesno(checks['gx_bounds_hold'])}",
        *fails,
    ]
    return Outcome(lines=lines, result={}, checks=checks)


def _cmd_geodetic_heuristic(args: argparse.Namespace) -> Outcome:
    g = _load_graph(args.graph)
    x, min_gx, s, geodetic = geodetic_from_boundary(g)
    size_ok = len(s) == min_gx + 1
    labels = g.labels_of(s)
    return Outcome(
        lines=[" ".join(labels), f"size = {len(s)}", f"geodetic: {_yesno(geodetic)}"],
        result={
            "set": labels,
            "size": len(s),
            "source": g.labels[x],
            "min_gx": min_gx,
        },
        checks={"is_geodetic": geodetic, "size_is_min_gx_plus_one": size_ok},
    )


def _cmd_oracle_gx(args: argparse.Namespace) -> Outcome:
    from .oracles import min_x_geodominating_bruteforce

    g = _load_graph(args.graph)
    x = g.index_of(args.x)
    sets = min_x_geodominating_bruteforce(g, x, cap=args.cap)
    unique = len(sets) == 1
    matches = unique and sets[0] == boundary(g, x)
    sets_labels = [g.labels_of(s) for s in sets]
    return Outcome(
        lines=[
            f"minimum size = {len(sets[0])}",
            "minimum sets: " + ", ".join("{" + " ".join(s) + "}" for s in sets_labels),
            f"matches boundary: {_yesno(matches)}",
        ],
        result={
            "minimum_size": len(sets[0]),
            "minimum_sets": sets_labels,
            # the search covers every candidate set or refuses the graph
            "exhausted": True,
        },
        checks={"unique_minimum": unique, "equals_boundary": matches},
    )


def _cmd_oracle_geodetic(args: argparse.Namespace) -> Outcome:
    from .oracles import geodetic_number_bruteforce

    g = _load_graph(args.graph)
    witness = geodetic_number_bruteforce(g, cap=args.cap)
    number = len(witness)
    if g.n >= 2:
        _, min_gx, s, geodetic = geodetic_from_boundary(g)
        relation = number <= min_gx + 1
        heuristic_ok = geodetic and len(s) == min_gx + 1
    else:
        min_gx, relation, heuristic_ok = 0, True, True
    return Outcome(
        lines=[
            f"geodetic number = {number}",
            "witness: " + " ".join(g.labels_of(witness)),
            f"min gx + 1 = {min_gx + 1}",
            f"relation holds: {_yesno(relation)}",
        ],
        result={
            "geodetic_number": number,
            "witness": g.labels_of(witness),
            "min_gx": min_gx,
        },
        checks={"relation_holds": relation, "heuristic_is_geodetic": heuristic_ok},
    )


def _cmd_verify_theorems(args: argparse.Namespace) -> Outcome:
    from .oracles import random_graph_corpus, verify_unique_minimum

    # the corpus flags are checked, and the corpus drawn and swept, ahead
    # of the enumeration, so a bad --random, --n or --p fails before it
    corpus = random_graph_corpus(args.random, args.n, args.n, args.p, args.seed)
    report = verify_unique_minimum(corpus, exhaustive_n=args.exhaustive_n)
    lines = [
        f"graphs checked: {report.graphs_checked}",
        f"sources checked: {report.sources_checked}",
    ]
    if report.ok:
        lines.append("theorem holds on all instances")
    else:
        lines.extend(f"FAIL: {f}" for f in report.failures[:5])
    return Outcome(
        lines=lines,
        result={
            "graphs_checked": report.graphs_checked,
            "sources_checked": report.sources_checked,
            "failures": list(report.failures),
        },
        checks={"holds": report.ok},
    )


def _cmd_find_counterexample(args: argparse.Namespace) -> Outcome:
    from .oracles import find_simplicial_counterexample

    hit = find_simplicial_counterexample(args.max_n, min_simplicial=args.min_simplicial)
    if hit is None:
        return Outcome(
            code=1,
            lines=[f"no counterexample found up to n = {args.max_n}"],
            result={"found": False},
            checks={},
        )
    g, simp = hit
    verified = all(not is_x_geodominating(g, z, simp).is_geodominating for z in range(g.n))
    document = emit_graph(g)
    return Outcome(
        lines=[
            f"found: n={g.n} m={g.edge_count}",
            "simplicial: " + " ".join(g.labels_of(simp)),
            f"fails from every source: {_yesno(verified)}",
            document[:-1],
        ],
        result={
            "found": True,
            "n": g.n,
            "simplicial": g.labels_of(simp),
            "document": document,
        },
        checks={"fails_from_every_source": verified},
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodom",
        description="Boundary vertices, x-geodomination, and geodetic sets "
        "on connected graphs, with product constructions and brute-force "
        "verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(
        name: str, help_text: str, run: Callable[[argparse.Namespace], Outcome]
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("plain", "json"), default="plain")
        p.set_defaults(run=run)
        return p

    def graph_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", "-g", required=True, help="edge-list file")

    def factor_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", required=True, choices=("cartesian", "lexicographic", "strong"))
        p.add_argument("--g", required=True, help="first factor edge-list file")
        p.add_argument("--h", required=True, help="second factor edge-list file")

    p = cmd("boundary", "boundary vertices of a source vertex", _cmd_boundary)
    graph_flag(p)
    p.add_argument("--x", required=True, help="source vertex label")

    p = cmd("gx", "geodomination number of a source vertex", _cmd_gx)
    graph_flag(p)
    p.add_argument("--x", required=True)

    p = cmd("check", "test whether a set x-geodominates", _cmd_check)
    graph_flag(p)
    p.add_argument("--x", required=True)
    p.add_argument("--set", required=True, help='vertex labels, e.g. "a b c"')

    p = cmd("closure", "geodetic closure of a set", _cmd_closure)
    graph_flag(p)
    p.add_argument("--set", required=True)

    p = cmd("product", "construct a graph product", _cmd_product)
    factor_flags(p)
    p.add_argument("--emit", action="store_true", help="print the edge-list document")

    p = cmd("product-verify", "check product boundary and gx bounds", _cmd_product_verify)
    factor_flags(p)
    p.add_argument("--base", help='base vertex pair, e.g. "(a,1)"')

    p = cmd(
        "geodetic-heuristic", "geodetic set from a minimum boundary", _cmd_geodetic_heuristic
    )
    graph_flag(p)

    p = cmd("oracle-gx", "brute-force minimum x-geodominating sets", _cmd_oracle_gx)
    graph_flag(p)
    p.add_argument("--x", required=True)
    p.add_argument("--cap", type=int, default=20)

    p = cmd("oracle-geodetic", "brute-force geodetic number", _cmd_oracle_geodetic)
    graph_flag(p)
    p.add_argument("--cap", type=int, default=20)

    p = cmd(
        "verify-theorems", "oracle-agreement sweep over graph corpora", _cmd_verify_theorems
    )
    p.add_argument("--exhaustive-n", type=int, default=5, dest="exhaustive_n")
    p.add_argument("--random", type=int, default=0, help="number of random graphs")
    p.add_argument("--n", type=int, default=9, help="random graph size")
    p.add_argument("--p", type=float, default=0.35, help="extra-edge probability")
    p.add_argument("--seed", type=int, default=0)

    p = cmd(
        "find-counterexample",
        "simplicial set failing from every source",
        _cmd_find_counterexample,
    )
    p.add_argument(
        "--max-n",
        type=int,
        default=8,
        dest="max_n",
        help="largest vertex count, 4 to 8",
    )
    p.add_argument("--min-simplicial", type=int, default=1, dest="min_simplicial")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = args.run(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the command's flags as parsed, in the order they were added
    skip = ("command", "format", "run")
    inputs = {key: value for key, value in vars(args).items() if key not in skip}
    doc = {
        "command": args.command,
        "inputs": inputs,
        "result": out.result,
        "checks": out.checks,
    }
    try:
        if args.format == "json":
            _write_json(doc, sys.stdout.write)
        else:
            sys.stdout.write("\n".join([*out.lines, ""]))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`geodom ... | head`). Point stdout
        # at devnull, so that the flush at exit raises nothing either, and
        # use up the rows still to come unwritten: the exit code and the
        # checks are a full run's.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if args.format == "json":
            _write_json(doc, lambda text: None)
    if out.code is not None:
        return out.code
    return 0 if all(out.checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
