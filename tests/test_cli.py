import json
import subprocess
import sys

import pytest

from geodom import parse_graph
from geodom.cli import main

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


def test_oracle_geodetic_plain(capsys, p4):
    code, out, _ = run(capsys, "oracle-geodetic", "--graph", p4)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "geodetic number = 2"
    assert lines[-1] == "relation holds: yes"


def test_single_source_commands_build_no_matrix(capsys, p4, monkeypatch):
    def no_matrix(g):
        raise AssertionError("single-source commands must not build all-pairs distances")

    monkeypatch.setattr("geodom.cli.all_pairs", no_matrix)
    test_boundary_plain_golden(capsys, p4)
    test_gx_plain(capsys, p4)
    test_check_yes_and_no(capsys, p4)
    test_closure_plain(capsys, p4)
    test_json_output_is_deterministic(capsys, p4)


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
    g, h = factors
    code, _, err = run(
        capsys, "product-verify", "--kind", "strong", "--g", g, "--h", h, "--base", "(q,9)"
    )
    assert code == 2 and "error:" in err


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
    code, _, err = run(capsys, "verify-theorems", "--exhaustive-n", "9")
    assert code == 2 and "exhaustive-n" in err


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


def test_disconnected_graph_is_input_error(capsys, tmp_path):
    path = tmp_path / "disc.txt"
    path.write_text("vertices: a b\n")
    code, _, err = run(capsys, "boundary", "--graph", str(path), "--x", "a")
    assert code == 2 and "disconnected" in err


def test_unknown_set_label_is_input_error(capsys, p4):
    code, _, err = run(capsys, "check", "--graph", p4, "--x", "a", "--set", "a zz")
    assert code == 2 and "unknown vertex" in err


def test_empty_closure_set_is_input_error(capsys, p4):
    code, _, err = run(capsys, "closure", "--graph", p4, "--set", "")
    assert code == 2 and "empty" in err


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "geodom", "boundary", "--graph", str(path), "--x", "b"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "a d\ngx = 2\n"
