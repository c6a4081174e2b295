import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given

import cli_goldens
import geodom
from geodom import (
    Graph,
    VertexSet,
    boundary,
    enumerate_connected_graphs,
    oracles,
    parse_graph,
    product,
)
from geodom import cli
from geodom.cli import main
from geodom.jsonout import Encoded, _write_json
from helpers import (
    close_the_path_in_graph_bfs,
    drop_one_boundary_vertex,
    loop_verify_unique_minimum,
)
from strategies import json_documents, labelled_documents

P4_TEXT = "vertices: a b c d\na b\nb c\nc d\n"
P3_TEXT = "vertices: a b c\na b\nb c\n"
P3N_TEXT = "vertices: 1 2 3\n1 2\n2 3\n"


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    return str(path)


@pytest.fixture
def factors(tmp_path):
    g = tmp_path / "p3.txt"
    h = tmp_path / "p3n.txt"
    g.write_text(P3_TEXT)
    h.write_text(P3N_TEXT)
    return str(g), str(h)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _child_env():
    # the child imports the same package as this test, installed or not
    src = str(Path(geodom.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def big_factors(tmp_path):
    """A 14-cycle and a 14-leaf star: their strong product-verify JSON
    document is about 1.3 MB."""
    g = tmp_path / "cycle.txt"
    h = tmp_path / "star.txt"
    g.write_text("".join(f"c{i} c{(i + 1) % 14}\n" for i in range(14)))
    h.write_text("".join(f"hub s{i}\n" for i in range(14)))
    return str(g), str(h)


# ---------------------------------------------------------------------------
# plain outputs


def test_boundary_plain_golden(capsys, p4):
    code, out, err = run(capsys, "boundary", "--graph", p4, "--x", "b")
    assert code == 0 and err == ""
    assert out == "a d\ngx = 2\n"


def test_gx_plain(capsys, p4):
    code, out, _ = run(capsys, "gx", "--graph", p4, "--x", "a")
    assert code == 0 and out == "gx = 1\n"


def test_check_yes_and_no(capsys, p4):
    code, out, _ = run(capsys, "check", "--graph", p4, "--x", "b", "--set", "a d")
    assert code == 0 and out == "geodominating: yes\n"
    code, out, _ = run(capsys, "check", "--graph", p4, "--x", "b", "--set", "d")
    assert code == 0
    assert out == "geodominating: no\nuncovered: a\n"


def test_check_empty_set(capsys, p4):
    code, out, _ = run(capsys, "check", "--graph", p4, "--x", "b", "--set", "")
    assert code == 0 and out.startswith("geodominating: no")


def test_closure_plain(capsys, p4):
    code, out, _ = run(capsys, "closure", "--graph", p4, "--set", "a d")
    assert code == 0 and out == "a b c d\ngeodetic: yes\n"
    code, out, _ = run(capsys, "closure", "--graph", p4, "--set", "a c")
    assert code == 0 and out == "a b c\ngeodetic: no\n"


def test_geodetic_heuristic_plain(capsys, p4):
    code, out, _ = run(capsys, "geodetic-heuristic", "--graph", p4)
    assert code == 0
    assert out == "a d\nsize = 2\ngeodetic: yes\n"


def test_oracle_gx_plain(capsys, p4):
    code, out, _ = run(capsys, "oracle-gx", "--graph", p4, "--x", "b")
    assert code == 0
    assert out.splitlines() == [
        "minimum size = 2",
        "minimum sets: {a d}",
        "matches boundary: yes",
    ]


def test_oracle_gx_fails_a_tied_minimum(capsys, p4, monkeypatch):
    # a tie whose first set is the boundary {a d}: not unique, so no match
    def tied(g, x, *, cap):
        return VertexSet.of([0, 3], g.n), VertexSet.of([1, 3], g.n)

    monkeypatch.setattr("geodom.oracles.min_x_geodominating_bruteforce", tied)
    code, out, err = run(capsys, "oracle-gx", "--graph", p4, "--x", "b")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "minimum size = 2",
        "minimum sets: {a d}, {b d}",
        "matches boundary: no",
    ]
    code, out, err = run(capsys, "oracle-gx", "--graph", p4, "--x", "b", "--format", "json")
    doc = json.loads(out)
    assert (code, err) == (1, "")
    assert doc["result"] == {
        "minimum_size": 2,
        "minimum_sets": [["a", "d"], ["b", "d"]],
        "exhausted": True,
    }
    assert doc["checks"] == {"unique_minimum": False, "equals_boundary": False}


def test_oracle_geodetic_plain(capsys, p4):
    code, out, _ = run(capsys, "oracle-geodetic", "--graph", p4)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "geodetic number = 2"
    assert lines[-1] == "relation holds: yes"


def test_oracle_commands_refuse_an_over_cap_graph_before_any_distance_work(
    capsys, tmp_path, monkeypatch
):
    def no_distances(*args):
        raise AssertionError("an over-cap graph needs no distances")

    for target in ("graph._bfs_row", "oracles._graph_distances", "oracles._levels"):
        monkeypatch.setattr(f"geodom.{target}", no_distances)
    path = tmp_path / "p2000.txt"
    path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(1999)))
    for argv in (["oracle-gx", "--x", "v0"], ["oracle-geodetic"]):
        for fmt in ("plain", "json"):
            code, out, err = run(capsys, *argv, "--graph", str(path), "--format", fmt)
            message = "error: too large: 2000 vertices exceeds the cap of 20\n"
            assert (code, out, err) == (2, "", message)


def test_oracle_commands_answer_twenty_vertices_by_default(capsys, tmp_path):
    # the default cap is the searches' limit, so a 20-vertex graph needs no --cap
    path = tmp_path / "p20.txt"
    path.write_text("".join(f"v{i:02d} v{i + 1:02d}\n" for i in range(19)))
    for argv in (["oracle-gx", "--x", "v00"], ["oracle-geodetic"]):
        code, out, _ = run(capsys, *argv, "--graph", str(path), "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["inputs"]["cap"] == 20, argv
        assert doc["checks"] and all(doc["checks"].values()), argv


def test_oracle_commands_refuse_a_cap_over_the_limit(capsys, p4, monkeypatch):
    def no_distances(*args):
        raise AssertionError("a cap over the limit needs no distances")

    monkeypatch.setattr("geodom.oracles._graph_distances", no_distances)
    for argv in (["oracle-gx", "--x", "b"], ["oracle-geodetic"]):
        for fmt in ("plain", "json"):
            code, out, err = run(capsys, *argv, "--graph", p4, "--cap", "21", "--format", fmt)
            assert (code, out, err) == (2, "", "error: cap 21 exceeds the limit of 20 vertices\n")
    monkeypatch.undo()
    for argv in (["oracle-gx", "--x", "b"], ["oracle-geodetic"]):
        code, _, _ = run(capsys, *argv, "--graph", p4, "--cap", "20")
        assert code == 0


def test_oracle_cap_defaults_are_the_library_defaults():
    # the parser restates each search's default cap, the limit; the two must
    # not drift
    parser = cli._build_parser()
    for argv, search in (
        (["oracle-gx", "--x", "a"], oracles.min_x_geodominating_bruteforce),
        (["oracle-geodetic"], oracles.geodetic_number_bruteforce),
    ):
        default = inspect.signature(search).parameters["cap"].default
        assert default == oracles._CAP_LIMIT == 20, argv
        assert parser.parse_args([*argv, "--graph", "g.txt"]).cap == default, argv


def test_oracle_commands_take_their_distances_from_the_oracle_stage(capsys, p4, monkeypatch):
    # the oracles, with a BFS of their own, still see the path
    close_the_path_in_graph_bfs(monkeypatch)
    code, out, _ = run(capsys, "oracle-gx", "--graph", p4, "--x", "a", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["checks"]["equals_boundary"] is False
    assert doc["result"]["minimum_sets"] == [["d"]]
    _, out, _ = run(capsys, "oracle-geodetic", "--graph", p4)
    assert out.splitlines()[:2] == ["geodetic number = 2", "witness: a d"]


def test_single_source_commands_build_no_matrix(capsys, p4, monkeypatch):
    def no_matrix(g):
        raise AssertionError("these commands must not build all-pairs distances")

    monkeypatch.setattr("geodom.oracles._graph_distances", no_matrix)
    test_boundary_plain_golden(capsys, p4)
    test_gx_plain(capsys, p4)
    test_check_yes_and_no(capsys, p4)
    test_closure_plain(capsys, p4)
    test_geodetic_heuristic_plain(capsys, p4)
    test_json_output_is_deterministic(capsys, p4)
    test_find_counterexample(capsys)


# ---------------------------------------------------------------------------
# products


def test_product_summary_and_emit_round_trip(capsys, factors):
    g, h = factors
    code, out, _ = run(capsys, "product", "--kind", "cartesian", "--g", g, "--h", h)
    assert code == 0
    assert out == "kind: cartesian\nvertices: 9\nedges: 12\n"
    code, out, _ = run(
        capsys, "product", "--kind", "lexicographic", "--g", g, "--h", h, "--emit"
    )
    assert code == 0
    emitted = parse_graph(out)
    assert emitted.n == 9
    assert emitted.labels[0] == "(a,1)"


def test_product_emit_plain_is_one_write(capsys, factors, monkeypatch):
    # unbuffered stdout makes a system call per write, so the plain edge
    # list goes out in one, the JSON document's result.document
    g, h = factors
    argv = ["product", "--kind", "lexicographic", "--g", g, "--h", h, "--emit"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    document = json.loads(out)["result"]["document"]
    writes = []

    class Stdout:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(argv) == 0
    assert writes == [document]


def test_product_formats_the_edge_list_only_under_emit(capsys, factors, monkeypatch):
    def no_emit(*args):
        raise AssertionError("the summary needs no edge-list document")

    monkeypatch.setattr(cli, "emit_graph", no_emit)
    g, h = factors
    code, out, _ = run(capsys, "product", "--kind", "strong", "--g", g, "--h", h)
    assert (code, out) == (0, "kind: strong\nvertices: 9\nedges: 20\n")
    code, out, _ = run(
        capsys, "product", "--kind", "strong", "--g", g, "--h", h, "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"] == {"kind": "strong", "vertex_count": 9, "edge_count": 20}


def test_product_verify_all_bases(capsys, factors):
    g, h = factors
    for kind in ("cartesian", "lexicographic", "strong"):
        code, out, _ = run(capsys, "product-verify", "--kind", kind, "--g", g, "--h", h)
        assert code == 0
        assert "bases checked: 9" in out
        assert "containments hold: yes" in out
        assert "gx bounds hold: yes" in out


def test_product_verify_single_base(capsys, factors):
    g, h = factors
    code, out, _ = run(
        capsys,
        "product-verify",
        "--kind",
        "lexicographic",
        "--g",
        g,
        "--h",
        h,
        "--base",
        "(a,1)",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "base: (a,1)"
    assert lines[1] == "actual boundary: (a,3) (c,1) (c,2) (c,3)"
    assert "containments hold: yes" in lines
    assert "gx: 4 within [1, 4]" in lines


def test_product_verify_single_base_violation(capsys, factors, tmp_path):
    g, _ = factors
    h = tmp_path / "p4n.txt"
    h.write_text("vertices: 1 2 3 4\n1 2\n2 3\n3 4\n")
    code, out, _ = run(
        capsys,
        "product-verify",
        "--kind",
        "lexicographic",
        "--g",
        g,
        "--h",
        str(h),
        "--base",
        "(a,1)",
    )
    assert code == 1
    lines = out.splitlines()
    assert "containments hold: no" in lines
    assert "witnesses: (a,3)" in lines
    assert "gx: 6 outside [1, 5]" in lines


def test_product_verify_base_without_parens(capsys, factors):
    g, h = factors
    code, out, _ = run(
        capsys, "product-verify", "--kind", "strong", "--g", g, "--h", h, "--base", "b,2"
    )
    assert code == 0 and out.splitlines()[0] == "base: (b,2)"


def test_product_verify_bad_base(capsys, factors):
    # the base is checked before any output, in either format
    g, h = factors
    argv = ["product-verify", "--kind", "strong", "--g", g, "--h", h, "--base", "(q,9)"]
    for fmt in ("json", "plain"):
        assert run(capsys, *argv, "--format", fmt) == (
            2,
            "",
            "error: base '(q,9)' does not name a vertex pair of the factors\n",
        )


@pytest.mark.parametrize("kind", ["cartesian", "lexicographic", "strong"])
def test_product_verify_base_row_matches_all_bases(capsys, factors, kind):
    g, h = factors
    argv = ["product-verify", "--kind", kind, "--g", g, "--h", h, "--format", "json"]
    _, out, _ = run(capsys, *argv)
    rows = json.loads(out)["result"]["bases"]
    assert len(rows) == 9
    for row in rows:
        code, out, _ = run(capsys, *argv, "--base", row["base"])
        doc = json.loads(out)
        assert doc["result"]["bases"] == [row]
        ok = row["containments_hold"] and row["gx_holds"]
        assert code == (0 if ok else 1)


def test_product_verify_builds_no_product(capsys, factors, monkeypatch):
    # the two factors are the only graphs product-verify builds; every
    # graph, parsed, constructed or a product, goes through Graph._build
    built = []
    build = Graph._build

    def counting_build(self, *args, **kwargs):
        built.append(self)
        return build(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "_build", counting_build)
    g, h = factors
    for kind in ("cartesian", "lexicographic", "strong"):
        for extra in ([], ["--base", "(b,2)"]):
            built.clear()
            code, _, _ = run(capsys, "product-verify", "--kind", kind, "--g", g, "--h", h, *extra)
            assert code == 0 and len(built) == 2


def _expected_verify_document(kind, g_path, h_path, base=None):
    """The product-verify JSON document by BFS on the built product: the
    boundary of every base from the product graph, the candidate bounds from
    the factor boundaries, and every vertex list sorted by its factor label
    pair."""
    g = parse_graph(Path(g_path).read_text())
    h = parse_graph(Path(h_path).read_text())
    pg = product(kind, g, h)
    bg = [set(boundary(g, x)) for x in range(g.n)]
    bh = [set(boundary(h, y)) for y in range(h.n)]

    def labels(pairs):
        ordered = sorted(pairs, key=lambda p: (g.labels[p[0]], h.labels[p[1]]))
        return [f"({g.labels[a]},{h.labels[b]})" for a, b in ordered]

    rows = []
    for x in range(g.n):
        for y in range(h.n):
            label = f"({g.labels[x]},{h.labels[y]})"
            if base is not None and label != base:
                continue
            p = pg.index_of_pair(x, y)
            actual = {pg.pair_of(q) for q in boundary(pg.graph, p)}
            gx_g, gx_h = len(bg[x]), len(bh[y])
            if kind == "cartesian":
                lower = upper = {(a, b) for a in bg[x] for b in bh[y]}
                gx_lower = gx_upper = gx_g * gx_h
            elif kind == "lexicographic":
                lower = {(x, b) for b in bh[y]}
                upper = {(a, b) for a in bg[x] for b in range(h.n)} | lower
                gx_lower, gx_upper = gx_h, gx_g * h.n + gx_h
            else:
                lower = {(a, b) for a in bg[x] for b in bh[y]}
                upper = {(a, b) for a in bg[x] for b in range(h.n)}
                upper |= {(a, b) for a in range(g.n) for b in bh[y]}
                gx_lower, gx_upper = gx_g * gx_h, gx_g * h.n + g.n * gx_h
            bad = (lower - actual) | (actual - upper)
            rows.append(
                {
                    "base": label,
                    "actual": labels(actual),
                    "lower": labels(lower),
                    "upper": labels(upper),
                    "containments_hold": not bad,
                    "upper_strict": not bad and len(actual) < len(upper),
                    "witnesses": labels(bad) if bad else None,
                    "gx": len(actual),
                    "gx_lower": gx_lower,
                    "gx_upper": gx_upper,
                    "gx_holds": gx_lower <= len(actual) <= gx_upper,
                }
            )
    contain = all(r["containments_hold"] for r in rows)
    gx_ok = all(r["gx_holds"] for r in rows)
    doc = {
        "command": "product-verify",
        "inputs": {"kind": kind, "g": g_path, "h": h_path, "base": base},
        "result": {"bases": rows},
        "checks": {"containments_hold": contain, "gx_bounds_hold": gx_ok},
    }
    return (0 if contain and gx_ok else 1), json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("kind", ["cartesian", "lexicographic", "strong"])
def test_product_verify_json_golden(capsys, tmp_path, kind):
    # "(a+,x)" sorts before "(a,x)" as a string but after it by factor
    # label, which is the order product-verify must keep
    g = tmp_path / "g.txt"
    g.write_text("a a+\na+ b\nb a\nb c\n")
    h = tmp_path / "h.txt"
    h.write_text("x y\ny z\nz w\n")
    argv = ["product-verify", "--kind", kind, "--g", str(g), "--h", str(h)]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out, err) == (*_expected_verify_document(kind, str(g), str(h)), "")
    assert json.loads(out)["result"]["bases"][3]["base"] == "(a,z)"
    assert json.loads(out)["result"]["bases"][4]["base"] == "(a+,w)"
    code, out, err = run(capsys, *argv, "--format", "json", "--base", "(a+,y)")
    expected = _expected_verify_document(kind, str(g), str(h), "(a+,y)")
    assert (code, out, err) == (*expected, "")


# sha256 of the stdout of product --kind K --g G --h H --emit --format json,
# run in the directory of the two factor files
PRODUCT_EMIT_SHA256 = {
    ("pairs", "cartesian"): "04df3935902fd9692463cd10e1cf9d72b328fd3d84d0126b4e9d21dd23883f08",
    ("pairs", "lexicographic"): "428270a7554b0d2f3ea8026e7c17b17d4d46de3f1d96c837817b864ba739083f",
    ("pairs", "strong"): "6ba1ede50688147b4ec8b7484c48ad219374f3a4761e56be0d2177bfafde9379",
    ("cycle_star", "cartesian"): "383841004e5d23d8e655429e0a9248318f8bf93fd2aa12dce551fa4588db330b",
    ("cycle_star", "lexicographic"): "5743581f19fe06ac27b69ffeeac8810d1cec7602a378c1e43c8bf41c10835a5f",
    ("cycle_star", "strong"): "aa5530a88dbe086ffc6d70d9973ffe7436a49397b2f2e7ef0c208b91acd160c2",
}

PRODUCT_FACTORS = {
    # pair labels whose string order differs from (a, b) index order
    "pairs": ("a a+\na+ b\nb a\nb c\n", "x x!\nx! y\ny z\n"),
    "cycle_star": (
        "".join(f"c{i} c{(i + 1) % 14}\n" for i in range(14)),
        "".join(f"hub s{i}\n" for i in range(14)),
    ),
}


@pytest.mark.parametrize("factors, kind", sorted(PRODUCT_EMIT_SHA256))
def test_product_emit_json_golden(capsys, tmp_path, monkeypatch, factors, kind):
    monkeypatch.chdir(tmp_path)
    g_text, h_text = PRODUCT_FACTORS[factors]
    Path("g.txt").write_text(g_text)
    Path("h.txt").write_text(h_text)
    argv = ["product", "--kind", kind, "--g", "g.txt", "--h", "h.txt", "--emit", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PRODUCT_EMIT_SHA256[factors, kind]


# ---------------------------------------------------------------------------
# verification subcommands


def test_verify_theorems_report(capsys):
    code, out, _ = run(
        capsys,
        "verify-theorems",
        "--exhaustive-n",
        "4",
        "--random",
        "3",
        "--n",
        "7",
        "--p",
        "0.3",
        "--seed",
        "5",
    )
    assert code == 0
    assert "theorem holds on all instances" in out
    assert "graphs checked: 46" in out


def test_verify_theorems_validates_range(capsys):
    # the library's check is the only one, and names the range it enforces
    for bad in ("-1", "8"):
        code, out, err = run(capsys, "verify-theorems", "--exhaustive-n", bad)
        assert (code, out, err) == (2, "", "error: exhaustive_n must lie in [0, 7]\n")


def test_verify_theorems_rejects_bad_corpus_before_enumerating(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("the random corpus must be checked first")

    monkeypatch.setattr("geodom.oracles._slice", no_enumeration)
    code, _, err = run(capsys, "verify-theorems", "--random", "2", "--n", "1")
    assert code == 2 and "n_low" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--random", "-3"), "count must be non-negative"),
        (("--exhaustive-n", "3", "--n", "1"), "need 2 <= n_low <= n_high"),
        (("--random", "0", "--p", "1.5"), "edge probability must lie in [0, 1]"),
        (("--random", "0", "--n", "21"), "too large: 21 vertices exceeds the cap of 20"),
    ],
)
def test_verify_theorems_checks_the_corpus_flags_at_any_count(capsys, argv, message):
    # the library checks the count, the size, its cap and the edge
    # probability even when no graph is drawn
    for fmt in ("plain", "json"):
        code, out, err = run(capsys, "verify-theorems", *argv, "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_theorems_rejects_an_over_cap_corpus_before_enumerating(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("the corpus must be checked against the cap first")

    monkeypatch.setattr("geodom.oracles._slice", no_enumeration)
    argv = ("verify-theorems", "--exhaustive-n", "6", "--random", "2", "--n", "21")
    for fmt in ("plain", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (2, "", "error: too large: 21 vertices exceeds the cap of 20\n")


def test_verify_theorems_checks_the_cap_before_drawing_a_graph(capsys, monkeypatch):
    # drawing a graph loops over all n^2 vertex pairs, so an --n far over
    # the cap must fail before the first one is drawn
    def no_drawing(*args):
        raise AssertionError("an over-cap --n needs no graph")

    monkeypatch.setattr("geodom.oracles.random_connected_graph", no_drawing)
    argv = ("verify-theorems", "--exhaustive-n", "0", "--random", "1", "--n", "3000")
    for fmt in ("plain", "json"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (2, "", "error: too large: 3000 vertices exceeds the cap of 20\n")


def test_verify_theorems_draws_each_graph_after_the_last_is_swept(capsys, monkeypatch):
    # the corpus is never held whole: graph k is drawn only once graph
    # k - 1 has been swept
    events = []
    draw, sweep = oracles.random_connected_graph, oracles._failing_sources

    def logged_draw(*args):
        events.append("draw")
        return draw(*args)

    def logged_sweep(*args):
        events.append("sweep")
        return sweep(*args)

    monkeypatch.setattr(oracles, "random_connected_graph", logged_draw)
    monkeypatch.setattr(oracles, "_failing_sources", logged_sweep)
    argv = ("verify-theorems", "--exhaustive-n", "0", "--random", "5", "--n", "6")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "graphs checked: 5" in out
    assert events == ["draw", "sweep"] * 5


def test_verify_theorems_streams_the_mask_chunks(capsys, monkeypatch):
    # each slice of edge masks is checked before the next one is built;
    # slices of 2^10 masks give n = 6 its 32
    events = []
    build, check = oracles._slice, oracles._sweep_lanes

    def logged_slice(*args):
        events.append("slice")
        return build(*args)

    def logged_check(*args):
        events.append("check")
        return check(*args)

    monkeypatch.setattr(oracles, "_SLICE_BITS", 10)
    monkeypatch.setattr(oracles, "_slice", logged_slice)
    monkeypatch.setattr(oracles, "_sweep_lanes", logged_check)
    code, out, _ = run(capsys, "verify-theorems", "--exhaustive-n", "6")
    assert code == 0 and "graphs checked: 27475" in out
    assert len(events) > 20
    assert events == ["slice", "check"] * (len(events) // 2)


def test_verify_theorems_builds_no_graph(capsys, monkeypatch):
    def no_graph(self, *args, **kwargs):
        raise AssertionError("a passing sweep builds no Graph")

    monkeypatch.setattr(Graph, "__init__", no_graph)
    code, out, _ = run(capsys, "verify-theorems", "--exhaustive-n", "5")
    assert code == 0 and "graphs checked: 771" in out


def test_verify_theorems_prints_the_first_five_failures(capsys, monkeypatch):
    drop_one_boundary_vertex(monkeypatch)
    graphs = [g for n in range(2, 5) for g in enumerate_connected_graphs(n)]
    expected = loop_verify_unique_minimum(graphs)
    code, out, _ = run(capsys, "verify-theorems", "--exhaustive-n", "4")
    assert code == 1
    assert out.splitlines() == [
        "graphs checked: 43",
        "sources checked: 166",
        *(f"FAIL: {f}" for f in expected.failures[:5]),
    ]
    code, out, _ = run(capsys, "verify-theorems", "--exhaustive-n", "4", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["checks"] == {"holds": False}
    assert doc["result"]["failures"] == list(expected.failures)


# sha256 of the stdout of verify-theorems --exhaustive-n 6 --format json
EXHAUSTIVE_6_JSON_SHA256 = "9db982bfb2a34cb76dd0a0dc5a4ccd675557d8a0673df8ce1f4732b9549a81a1"

RANDOM_30_JSON = """\
{
  "command": "verify-theorems",
  "inputs": {
    "exhaustive_n": 0,
    "random": 30,
    "n": 9,
    "p": 0.35,
    "seed": 5
  },
  "result": {
    "graphs_checked": 30,
    "sources_checked": 270,
    "failures": []
  },
  "checks": {
    "holds": true
  }
}
"""


def test_verify_theorems_goldens(capsys):
    code, out, _ = run(capsys, "verify-theorems", "--exhaustive-n", "6", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXHAUSTIVE_6_JSON_SHA256
    code, out, _ = run(capsys, "verify-theorems", "--exhaustive-n", "6")
    assert code == 0
    assert out == "graphs checked: 27475\nsources checked: 164030\ntheorem holds on all instances\n"
    argv = ("verify-theorems", "--exhaustive-n", "0", "--random", "30", "--n", "9", "--seed", "5")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == RANDOM_30_JSON


def test_find_counterexample(capsys):
    code, out, _ = run(capsys, "find-counterexample", "--max-n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "found: n=5 m=6"
    assert lines[1] == "simplicial: c"
    assert lines[2] == "fails from every source: yes"
    # the remainder is the emitted edge list
    assert parse_graph("\n".join(lines[3:])).n == 5


def test_find_counterexample_not_found(capsys):
    code, out, _ = run(capsys, "find-counterexample", "--max-n", "4")
    assert code == 1
    assert out == "no counterexample found up to n = 4\n"


FOUR_SIMPLICIAL_JSON = """\
{
  "command": "find-counterexample",
  "inputs": {
    "max_n": 8,
    "min_simplicial": 4
  },
  "result": {
    "found": true,
    "n": 7,
    "simplicial": [
      "c",
      "d",
      "f",
      "g"
    ],
    "document": "vertices: a b c d e f g\\na b\\na c\\na d\\na e\\na f\\na g\\nb c\\nb d\\ne f\\ne g\\n"
  },
  "checks": {
    "fails_from_every_source": true
  }
}
"""


def test_find_counterexample_four_simplicial_json_golden(capsys):
    code, out, _ = run(
        capsys, "find-counterexample", "--max-n", "8", "--min-simplicial", "4", "--format", "json"
    )
    assert code == 0
    assert out == FOUR_SIMPLICIAL_JSON


def test_find_counterexample_not_found_at_eight(capsys):
    # n = 8 is searched: six simplicial vertices fail nowhere up to it,
    # and five first fail there
    argv = ("find-counterexample", "--max-n", "8", "--min-simplicial")
    code, out, _ = run(capsys, *argv, "5")
    assert code == 0
    assert out == (
        "found: n=8 m=11\n"
        "simplicial: c d f g h\n"
        "fails from every source: yes\n"
        "vertices: a b c d e f g h\n"
        "a b\na c\na d\na e\na f\na g\na h\nb c\nb d\ne f\ne g\n"
    )
    code, out, _ = run(capsys, *argv, "6")
    assert code == 1
    assert out == "no counterexample found up to n = 8\n"
    code, out, _ = run(capsys, *argv, "6", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["result"] == {"found": False} and doc["checks"] == {}


# ---------------------------------------------------------------------------
# json mode


def test_boundary_json_document(capsys, p4):
    code, out, _ = run(capsys, "boundary", "--graph", p4, "--x", "b", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "inputs", "result", "checks"]
    assert doc["command"] == "boundary"
    assert doc["result"] == {"boundary": ["a", "d"], "gx": 2}
    assert doc["checks"] == {"geodominates": True}
    assert out.endswith("\n")


def test_json_output_is_deterministic(capsys, p4):
    _, first, _ = run(capsys, "boundary", "--graph", p4, "--x", "b", "--format", "json")
    _, second, _ = run(capsys, "boundary", "--graph", p4, "--x", "b", "--format", "json")
    assert first == second


def test_product_verify_json(capsys, factors):
    g, h = factors
    code, out, _ = run(
        capsys,
        "product-verify",
        "--kind",
        "strong",
        "--g",
        g,
        "--h",
        h,
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]["bases"]) == 9
    assert doc["checks"] == {"containments_hold": True, "gx_bounds_hold": True}
    row = doc["result"]["bases"][0]
    assert row["base"] == "(a,1)"
    assert row["witnesses"] is None


@given(json_documents)
def test_write_json_equals_indented_dumps(doc):
    pieces = []
    _write_json(doc, pieces.append)
    assert "".join(pieces) == json.dumps(doc, indent=2) + "\n"


def _pre_encoded(doc):
    """doc with every list of strings escaped up front, as product-verify
    hands its label lists to the writer."""
    if isinstance(doc, dict):
        return {key: _pre_encoded(value) for key, value in doc.items()}
    if isinstance(doc, list):
        if all(type(item) is str for item in doc):
            return Encoded(map(encode_basestring_ascii, doc))
        return [_pre_encoded(item) for item in doc]
    return doc


@given(labelled_documents)
def test_write_json_fast_paths_equal_indented_dumps(doc):
    expected = json.dumps(doc, indent=2) + "\n"
    for given_doc in (doc, _pre_encoded(doc)):
        pieces = []
        _write_json(given_doc, pieces.append)
        assert "".join(pieces) == expected


def _as_iterators(doc):
    """doc with every list turned into an iterator over its items."""
    if isinstance(doc, dict):
        return {key: _as_iterators(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return (_as_iterators(item) for item in doc)
    return doc


@given(json_documents)
@example([])
@example({"rows": [[], [1]]})
def test_write_json_writes_iterators_as_lists(doc):
    pieces = []
    _write_json(_as_iterators(doc), pieces.append)
    assert "".join(pieces) == json.dumps(doc, indent=2) + "\n"


def test_write_json_keys_that_compare_equal():
    # 0 == False == 0.0 == -0.0, but json.dumps prints each differently
    doc = [{0: [1]}, {False: [1]}, {0.0: [1]}, {-0.0: [1]}, {None: [Encoded([])]}]
    pieces = []
    _write_json(doc, pieces.append)
    assert "".join(pieces) == json.dumps(doc, indent=2) + "\n"


def test_write_json_coalesces_small_pieces():
    doc = {"rows": [{"label": f"v{i}", "n": i, "ok": True} for i in range(3000)]}
    pieces = []
    _write_json(doc, pieces.append)
    assert "".join(pieces) == json.dumps(doc, indent=2) + "\n"
    # every write but the last holds at least 16 KiB, and none much more
    assert all(16384 <= len(p) < 20000 for p in pieces[:-1]) and len(pieces) > 5


ESCAPE_TEXT = 'é "q\n"q back\\slash\nback\\slash 日本\n日本 é\n日本 z\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary", "--graph", "G", "--x", "é"],
        ["gx", "--graph", "G", "--x", '"q'],
        ["check", "--graph", "G", "--x", "é", "--set", '"q 日本'],
        ["closure", "--graph", "G", "--set", "é back\\slash"],
        ["product", "--kind", "strong", "--g", "G", "--h", "G", "--emit"],
        ["product-verify", "--kind", "lexicographic", "--g", "G", "--h", "G"],
        ["geodetic-heuristic", "--graph", "G"],
        ["oracle-gx", "--graph", "G", "--x", "é"],
        ["oracle-geodetic", "--graph", "G"],
        ["verify-theorems", "--exhaustive-n", "3", "--random", "2", "--n", "5"],
        ["find-counterexample", "--max-n", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_writes_indented_json(capsys, tmp_path, argv):
    path = tmp_path / "escape.txt"
    path.write_text(ESCAPE_TEXT, encoding="utf-8")
    _, out, err = run(capsys, *(str(path) if a == "G" else a for a in argv), "--format", "json")
    assert err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _Sink:
    """A stdout that counts what is written to it."""

    total = largest = 0

    def write(self, text):
        self.total += len(text)
        self.largest = max(self.largest, len(text))

    def flush(self):
        pass


def _traced_peak(monkeypatch, argv):
    """The exit code, the stdout sink and the tracemalloc peak of main(argv),
    measured after one warm-up call that imports what the command uses."""
    monkeypatch.setattr(sys, "stdout", _Sink())
    main(argv)
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink, peak


def _streamed_extra_bound(monkeypatch, g, h):
    """How much more than a trivial command a streamed product-verify may
    peak at: the four (n_G, n_H) masks of every base, which a run that
    keeps every report holds."""
    _, _, floor = _traced_peak(monkeypatch, ["boundary", "--graph", g, "--x", "c0"])
    g_n, h_n = (parse_graph(Path(path).read_text()).n for path in (g, h))
    return floor, 4 * (g_n * h_n) ** 2


def test_product_verify_json_is_streamed(monkeypatch, big_factors):
    # Each row is written as it is made and then dropped. Keeping every
    # report measured 0.77 MB over the floor on these factors, against
    # the bound of 0.18 MB and about 0.1 MB for one layer at a time.
    g, h = big_factors
    floor, extra = _streamed_extra_bound(monkeypatch, g, h)
    argv = ["product-verify", "--kind", "strong", "--g", g, "--h", h, "--format", "json"]
    code, sink, peak = _traced_peak(monkeypatch, argv)
    assert code == 0 and sink.total >= 1_000_000
    assert peak - floor < extra
    assert sink.largest < sink.total / 10


def test_product_verify_plain_holds_only_the_fail_lines(monkeypatch, big_factors):
    # keeping every report measured 0.29 MB over the floor on these factors
    g, h = big_factors
    floor, extra = _streamed_extra_bound(monkeypatch, g, h)
    argv = ["product-verify", "--kind", "strong", "--g", g, "--h", h, "--format", "plain"]
    code, sink, peak = _traced_peak(monkeypatch, argv)
    assert (code, sink.total) == (0, 62)
    assert peak - floor < extra


_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(argv):
    """Exit code and peak RSS in KiB of `python -m geodom argv`, started from
    a small launcher: a child's ru_maxrss also counts its parent's memory up
    to the exec, which for a child of pytest would be pytest's."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "geodom", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
    )
    code, kb = map(int, proc.stdout.split())
    return code, kb


def test_product_verify_peak_rss_stays_near_a_trivial_command(tmp_path):
    # two random 40-vertex factors: keeping every report peaked 35 MB above
    # a trivial command in strong JSON, about 73 MB of output. The trivial
    # command is `boundary` on two vertices, which like product-verify loads
    # no numpy
    from geodom import emit_graph, random_connected_graph

    paths = []
    for seed in (1, 2):
        path = tmp_path / f"f{seed}.txt"
        path.write_text(emit_graph(random_connected_graph(40, 0.08, seed)))
        paths.append(str(path))
    g, h = paths
    p2 = tmp_path / "p2.txt"
    p2.write_text("a b\n")
    code, floor = _peak_rss_kb(["boundary", "--graph", str(p2), "--x", "a"])
    assert code == 0
    argv = ["product-verify", "--kind", "strong", "--g", g, "--h", h, "--format", "json"]
    code, peak = _peak_rss_kb(argv)
    assert code == 0
    assert peak - floor < 4 * 1024


@pytest.mark.parametrize("fmt", ["json", "plain", "json-failing"])
def test_closed_stdout_is_not_an_error(tmp_path, big_factors, fmt):
    # `geodom ... | head -c 10`: the reader leaves before the output ends
    g, h = big_factors
    code = 0
    if fmt == "json":
        argv = ["product-verify", "--kind", "strong", "--g", g, "--h", h]
    elif fmt == "json-failing":
        # K_60 with pendants p at k00 and q at k01. Only from p and q does a
        # vertex at distance 2 lie outside the boundary (k01 from p, k00
        # from q), so P2 lex it breaks the upper bound only at the bases
        # (., p) and (., q), the first of them 0.3 MB into 0.66 MB of JSON.
        # Those rows come after the pipe closes and must still set the code.
        ks = [f"k{i:02d}" for i in range(60)]
        edges = [f"{a} {b}\n" for i, a in enumerate(ks) for b in ks[i + 1:]]
        h_path = tmp_path / "k60.txt"
        h_path.write_text("".join(edges) + "k00 p\nk01 q\n")
        g_path = tmp_path / "p2.txt"
        g_path.write_text("A B\n")
        argv = ["product-verify", "--kind", "lexicographic", "--g", str(g_path), "--h", str(h_path)]
        code = 1
    else:
        # about 0.5 MB of edge lines
        path = tmp_path / "p30.txt"
        path.write_text("".join(f"p{i} p{i + 1}\n" for i in range(29)))
        argv = ["product", "--kind", "lexicographic", "--g", str(path), "--h", str(path), "--emit"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "geodom", *argv, "--format", "plain" if fmt == "plain" else "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (len(head), proc.returncode, err) == (10, code, b"")


_LOADS = """
import sys
from geodom import cli
from geodom.cli import main
main(sys.argv[1:])
watched = {"numpy", "dataclasses", "inspect"}
loaded = (m for m in sys.modules if m.startswith("geodom.") or m in watched)
sys.stderr.write(" ".join(sorted(loaded)))
"""


_ORACLE_COMMANDS = {"oracle-gx", "oracle-geodetic", "verify-theorems", "find-counterexample"}
# one BFS from x answers the first three, the word walk on Python ints the
# next two, big-int products of the factor masks the product reports, and
# lanes of Python ints the oracles: no command loads numpy
_NUMPY_FREE_COMMANDS = {
    "boundary", "gx", "check", "closure", "geodetic-heuristic", "product", "product-verify",
    *_ORACLE_COMMANDS,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary", "--graph", "G", "--x", "a"],
        ["gx", "--graph", "G", "--x", "a"],
        ["check", "--graph", "G", "--x", "b", "--set", "a d"],
        ["closure", "--graph", "G", "--set", "a"],
        ["geodetic-heuristic", "--graph", "G"],
        ["oracle-gx", "--graph", "G", "--x", "a"],
        ["oracle-geodetic", "--graph", "G"],
        ["verify-theorems", "--exhaustive-n", "3"],
        ["find-counterexample", "--max-n", "4"],
        ["product", "--kind", "strong", "--g", "G", "--h", "G"],
        ["product-verify", "--kind", "strong", "--g", "G", "--h", "G", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_load_only_the_layers_they_run(tmp_path, argv):
    if argv[0].startswith("product"):
        unloaded = {"oracles", "numpy"}
    elif argv[0] in _ORACLE_COMMANDS:
        unloaded = {"products", "numpy"}
    else:
        unloaded = {"oracles", "products", "numpy"}
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS, *(str(path) if a == "G" else a for a in argv)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.removeprefix("geodom.") for name in proc.stderr.split()}
    assert {"graph", "boundary", "cli"} <= loaded, proc.stderr
    assert not loaded & unloaded
    assert ("numpy" in loaded) == (argv[0] not in _NUMPY_FREE_COMMANDS)
    # dataclasses alone pulls in inspect, ast, dis and tokenize: milliseconds
    # of start-up that no command needs
    assert not loaded & {"dataclasses", "inspect"}, proc.stderr


_LIBRARY_LOADS = """
import sys
import geodom
from geodom import (
    Graph, bfs_distances, boundary, emit_graph, geodetic_closure, interval, is_x_geodominating,
    min_gx_vertex, min_x_geodominating_bruteforce, parse_graph,
)
g = parse_graph("a b\\nb c\\nc d\\n")
h = Graph([("a", "b"), ("b", "c")])
assert parse_graph(emit_graph(g)) == g
print(g.labels_of(boundary(g, 1)), is_x_geodominating(g, 0, [3]).is_geodominating)
print(list(interval(h, 0, 2)), list(geodetic_closure(g, [0, 3])), min_gx_vertex(g))
print(bfs_distances(g, 0), [list(s) for s in min_x_geodominating_bruteforce(g, 0)])
print(sorted({"numpy", "dataclasses", "inspect"} & set(sys.modules)))
"""


def test_single_source_library_calls_load_no_numpy():
    # the same calls as the commands, through the package, an oracle too:
    # none loads numpy, dataclasses or inspect
    proc = subprocess.run(
        [sys.executable, "-c", _LIBRARY_LOADS],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "['a', 'd'] True\n[0, 1, 2] [0, 1, 2, 3] (0, 1)\n(0, 1, 2, 3) [[3]]\n[]\n"
    )


def test_find_counterexample_json_round_trips(capsys):
    code, out, _ = run(capsys, "find-counterexample", "--max-n", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["found"] is True
    assert parse_graph(doc["result"]["document"]).edge_count == 6


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "boundary", "--graph", "no-such-file.txt", "--x", "a")
    assert code == 2 and err.startswith("error:")


def test_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b\nc c\n")
    code, _, err = run(capsys, "boundary", "--graph", str(bad), "--x", "a")
    assert code == 2 and "line 2" in err


def test_unknown_vertex_is_input_error(capsys, p4):
    code, _, err = run(capsys, "boundary", "--graph", p4, "--x", "zz")
    assert code == 2 and "unknown vertex" in err


@pytest.mark.parametrize(
    "command",
    [
        ["boundary", "--graph", "DISC", "--x", "a"],
        ["geodetic-heuristic", "--graph", "DISC"],
        ["product-verify", "--kind", "strong", "--g", "DISC", "--h", "DISC"],
    ],
    ids=lambda c: c[0],
)
def test_disconnected_graph_is_input_error(capsys, tmp_path, command):
    path = tmp_path / "disc.txt"
    path.write_text("vertices: a b\n")
    code, _, err = run(capsys, *(str(path) if a == "DISC" else a for a in command))
    assert code == 2 and "disconnected" in err


@pytest.mark.parametrize("base", [None, "(q,9)"])
def test_product_verify_rejects_bad_factors(capsys, factors, tmp_path, base):
    # a bad factor is reported before a bad base
    g, h = factors
    comma = tmp_path / "comma.txt"
    comma.write_text("x,y z\n")
    solo = tmp_path / "solo.txt"
    solo.write_text("vertices: s\n")
    disc = tmp_path / "disc.txt"
    disc.write_text("vertices: a b\n")
    extra = [] if base is None else ["--base", base]
    for g_path, h_path, message in [
        (g, str(disc), "disconnected factor"),
        (str(comma), h, "factor label 'x,y' contains a comma"),
        (g, str(comma), "factor label 'x,y' contains a comma"),
        (str(solo), h, "boundary reports need factors with at least two vertices"),
        (g, str(solo), "boundary reports need factors with at least two vertices"),
    ]:
        # JSON streams its rows, so the factors must be checked before the
        # document starts
        for fmt in ("json", "plain"):
            argv = ["--kind", "strong", "--g", g_path, "--h", h_path, *extra, "--format", fmt]
            code, out, err = run(capsys, "product-verify", *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_set_label_is_input_error(capsys, p4):
    code, _, err = run(capsys, "check", "--graph", p4, "--x", "a", "--set", "a zz")
    assert code == 2 and "unknown vertex" in err


def test_empty_closure_set_is_input_error(capsys, p4):
    code, _, err = run(capsys, "closure", "--graph", p4, "--set", "")
    assert code == 2 and "empty" in err


# ---------------------------------------------------------------------------
# command-line surface


@pytest.mark.parametrize("command", sorted(cli_goldens.INPUTS))
def test_json_inputs_are_the_parsed_flags(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text(P4_TEXT)
    Path("h.txt").write_text(P3N_TEXT)
    code, out, err = run(capsys, *cli_goldens.INPUT_ARGV[command], "--format", "json")
    assert (code, err) == (0, "")
    assert out[out.index('  "inputs"') : out.index('  "result"')] == cli_goldens.INPUTS[command]


@pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="from 3.13 argparse prints the metavar of a multi-flag option once",
)
@pytest.mark.parametrize("command", sorted(cli_goldens.HELP))
def test_help_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"] if command else ["--help"])
    out = capsys.readouterr()
    assert (exit_.value.code, out.out, out.err) == (0, cli_goldens.HELP[command], "")


def test_usage_error_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(cli_goldens.USAGE_ERROR_ARGV)
    out = capsys.readouterr()
    assert (exit_.value.code, out.out, out.err) == cli_goldens.USAGE_ERROR


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "geodom", "boundary", "--graph", str(path), "--x", "b"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "a d\ngx = 2\n"
