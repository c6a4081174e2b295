import copy
import importlib
import inspect
import pickle
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import geodom
from geodom import (
    GeodominationCheck,
    Graph,
    ParseError,
    VerificationReport,
    VertexSet,
    bfs_distances,
    boundary,
    cycle_graph,
    geodetic_number_bruteforce,
    interval,
    is_x_geodominating,
    min_x_geodominating_bruteforce,
    parse_graph,
    path_graph,
    product,
    product_reports,
    verify_unique_minimum,
)
from helpers import drop_one_boundary_vertex

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    # graph
    "Graph",
    "VertexSet",
    "GraphError",
    "ParseError",
    "DisconnectedError",
    "parse_graph",
    "emit_graph",
    "is_connected",
    "bfs_distances",
    "interval",
    "geodetic_closure",
    "is_geodetic",
    "simplicial_vertices",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    # boundary
    "GeodominationCheck",
    "boundary",
    "is_x_geodominating",
    "min_gx_vertex",
    "geodetic_from_boundary",
    # products
    "ProductKind",
    "ProductGraph",
    "ProductReport",
    "product",
    "product_distance",
    "product_reports",
    # oracles
    "VerificationReport",
    "min_x_geodominating_bruteforce",
    "geodetic_number_bruteforce",
    "enumerate_connected_graphs",
    "random_connected_graph",
    "random_graph_corpus",
    "find_simplicial_counterexample",
    "verify_unique_minimum",
    "__version__",
}

def test_package_names():
    assert set(geodom.__all__) == PUBLIC_NAMES
    assert len(geodom.__all__) == len(PUBLIC_NAMES)
    for name in geodom.__all__:
        getattr(geodom, name)
    # the lazily loaded names are their modules' own
    for name, module in geodom._LAZY.items():
        assert name in importlib.import_module(f"geodom.{module}").__all__


P5 = path_graph(5)
P3 = path_graph(3)
P3_SQUARE = product("cartesian", P3, P3)

# every public call that takes a vertex index, with the index as v
VERTEX_CALLS = {
    "boundary": lambda v: boundary(P5, v),
    "is_x_geodominating": lambda v: is_x_geodominating(P5, v, [0, 4]),
    "bfs_distances": lambda v: bfs_distances(P5, v),
    "interval-from": lambda v: interval(P5, v, 4),
    "interval-to": lambda v: interval(P5, 0, v),
    "min_x_geodominating_bruteforce": lambda v: min_x_geodominating_bruteforce(P5, v),
    "product_reports-x": lambda v: tuple(product_reports("strong", P3, P3, [(v, 0)])),
    "product_reports-y": lambda v: tuple(product_reports("strong", P3, P3, [(0, v)])),
    "index_of_pair-g": lambda v: P3_SQUARE.index_of_pair(v, 0),
    "index_of_pair-h": lambda v: P3_SQUARE.index_of_pair(0, v),
    "pair_of": lambda v: P3_SQUARE.pair_of(v),
    "label": lambda v: P5.label(v),
    "labels_of": lambda v: P5.labels_of([v]),
    "neighbors": lambda v: P5.neighbors(v),
    "degree": lambda v: P5.degree(v),
    "has_edge-u": lambda v: P5.has_edge(v, 2),
    "has_edge-v": lambda v: P5.has_edge(2, v),
}


@pytest.mark.parametrize("call", VERTEX_CALLS.values(), ids=VERTEX_CALLS.keys())
def test_every_vertex_argument_is_an_index(call):
    # a bool is an int to Python, and numpy's indexes as one, so
    # boundary(g, True) would answer for vertex 1. A float is no index
    # either, and a numpy integer is the same index as the int
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="bool"):
            call(bad)
    for bad in (1.0, np.float64(1)):
        with pytest.raises(TypeError):
            call(bad)
    assert repr(call(np.int64(1))) == repr(call(1))


def test_only_graph_knows_how_a_distance_row_is_made():
    # the stored neighbour tuples, the only stored form of a graph, and the
    # BFS and the word walk over them stay inside graph.py; every other
    # module takes its rows from _distance_rows or bfs_distances, and reads
    # the graph through edges(), neighbors() and index_of(), never its
    # private fields such as ._index. No module derives a CSR,
    # and no module imports numpy: bfs_distances returns a tuple, and the
    # oracle stage works on lanes of Python ints.
    # Importing __main__ would run the command line.
    names = [m.name for m in pkgutil.iter_modules(geodom.__path__) if m.name != "__main__"]
    # exactly these modules: the oracle stage has no module of its own
    assert sorted(names) == ["boundary", "cli", "graph", "jsonout", "oracles", "products"]
    for name in names:
        module = importlib.import_module(f"geodom.{name}")
        source = inspect.getsource(module)
        assert hasattr(module, "_bfs_row") == (name == "graph"), name
        assert ("_adjacency" in source) == (name == "graph"), name
        assert ("._index" in source) == (name == "graph"), name
        assert "_csr" not in source and "reduceat" not in source, name
        imports = re.findall(r"^ *(?:import|from) numpy\b.*$", source, re.M)
        assert imports == [], name
        numpy_users = {
            f.__name__
            for f in vars(module).values()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and "import numpy" in inspect.getsource(f)
        }
        assert numpy_users == set(), name
    # a distance row is a tuple of ints
    row = geodom.bfs_distances(geodom.path_graph(4), 1)
    assert row == (1, 0, 1, 2) and all(type(d) is int for d in row)


def test_only_graph_schedules_the_word_walk():
    # words or rows is decided once, in graph._gx_of_sources, the only
    # function that walks level words; no other module walks them, reads
    # their bits or the level budget
    names = [m.name for m in pkgutil.iter_modules(geodom.__path__) if m.name != "__main__"]
    scheduling = ("_gx_of_batch", "_word_budget", "_MIN_BATCH", "_WALK_BITS", "_batch_width")
    for name in names:
        module = importlib.import_module(f"geodom.{name}")
        holds = {attr for attr in scheduling if hasattr(module, attr)}
        assert holds == (set(scheduling) if name == "graph" else set()), name
    graph = importlib.import_module("geodom.graph")
    walkers = {
        f.__name__
        for f in vars(graph).values()
        if inspect.isfunction(f) and f.__name__ != "_gx_of_batch"
        and "_gx_of_batch(" in inspect.getsource(f)
    }
    assert walkers == {"_gx_of_sources"}


def test_products_and_oracles_never_walk_levels(monkeypatch):
    # product() takes the factor edges from edges(), and the oracle stage
    # fills its bitmasks from neighbors() and reads them as its own
    # adjacency, down to the report line of a failing source: neither runs
    # the word walk or the gx pass that schedules it
    def no_walk(*args, **kwargs):
        raise AssertionError("only the gx pass walks levels")

    graph = importlib.import_module("geodom.graph")
    monkeypatch.setattr(graph, "_gx_of_batch", no_walk)
    monkeypatch.setattr(importlib.import_module("geodom.boundary"), "_gx_of_sources", no_walk)
    p3, c4 = path_graph(3), cycle_graph(4)
    edge_counts = {"cartesian": 20, "lexicographic": 44, "strong": 36}
    for kind, m in edge_counts.items():
        assert product(kind, p3, c4).graph.edge_count == m
    assert min_x_geodominating_bruteforce(c4, 0) == (VertexSet.of([2], 4),)
    assert len(geodetic_number_bruteforce(c4)) == 2
    assert verify_unique_minimum([p3, c4], exhaustive_n=4).ok
    # a rule that loses a boundary vertex fails every source of P3
    drop_one_boundary_vertex(monkeypatch)
    failures = verify_unique_minimum([p3]).failures
    assert len(failures) == 3
    assert failures[0] == (
        "Graph(n=3, m=2) edges=[(0, 1), (1, 2)] x=v0: "
        "oracle size 1 sets [['v2']] vs boundary []"
    )


P2 = path_graph(2)

# each public record: an instance, a record that differs from it in one
# field (only n, for the VertexSet), its field names in order, and its repr
RECORDS = {
    "VertexSet": (
        lambda: VertexSet((0, 2), 3),
        VertexSet((0, 2), 4),
        ("members", "n"),
        "VertexSet(members=(0, 2), n=3)",
    ),
    "GeodominationCheck": (
        lambda: GeodominationCheck(is_geodominating=False, witness_uncovered=1),
        GeodominationCheck(is_geodominating=False, witness_uncovered=2),
        ("is_geodominating", "witness_uncovered"),
        "GeodominationCheck(is_geodominating=False, witness_uncovered=1)",
    ),
    "VerificationReport": (
        lambda: VerificationReport(graphs_checked=2, sources_checked=5, failures=("x",)),
        VerificationReport(graphs_checked=2, sources_checked=5, failures=()),
        ("graphs_checked", "sources_checked", "failures"),
        "VerificationReport(graphs_checked=2, sources_checked=5, failures=('x',))",
    ),
    "ProductGraph": (
        lambda: product("cartesian", P2, P2),
        product("strong", P2, P2),
        ("factor_g", "factor_h", "graph", "factor_pairs"),
        "ProductGraph(factor_g=Graph(n=2, m=1), factor_h=Graph(n=2, m=1), "
        "graph=Graph(n=4, m=4), factor_pairs=((0, 0), (0, 1), (1, 0), (1, 1)))",
    ),
    "ProductReport": (
        lambda: next(product_reports("lexicographic", P3, P3, [(0, 1)])),
        next(product_reports("lexicographic", P3, P3, [(0, 0)])),
        (
            "base", "actual", "lower", "upper", "containments_hold", "witnesses",
            "upper_strict", "gx", "gx_g", "gx_h", "gx_lower", "gx_upper", "gx_holds",
        ),
        "ProductReport(base=(0, 1), actual=453, lower=5, upper=453, "
        "containments_hold=True, witnesses=None, upper_strict=False, gx=5, gx_g=1, "
        "gx_h=2, gx_lower=2, gx_upper=5, gx_holds=True)",
    ),
}


@pytest.mark.parametrize("make, other, names, text", RECORDS.values(), ids=RECORDS.keys())
def test_record_semantics(make, other, names, text):
    # fields in order, repr, value equality and hash, immutability, copy
    # and pickle: NamedTuples (VertexSet a slotted class), since importing
    # dataclasses costs each command about 10 ms of start-up
    rec = make()
    assert (VertexSet.__slots__ if isinstance(rec, VertexSet) else rec._fields) == names
    assert repr(rec) == text
    assert rec == make() and hash(rec) == hash(make())
    assert rec != other and not rec == other
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == make() and repr(rec) == text
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec) and twin == rec and hash(twin) == hash(rec)


def test_vertex_set_equals_only_a_vertex_set():
    # not a NamedTuple: equal to no tuple of its fields, and still checked
    vs = VertexSet((0, 2), 3)
    assert vs != (0, 2) and vs != ((0, 2), 3) and vs != VertexSet((0, 1), 3)
    assert len({vs, VertexSet((0, 2), 3), VertexSet((0, 2), 4)}) == 2
    for members in ((2, 0), (0, 3)):
        with pytest.raises(ValueError, match="strictly ascending indices"):
            VertexSet(members, 3)


def test_readme_python_blocks_print_what_they_show(capsys):
    # each ```python block runs as printed; a `print(...)  # text` line
    # must print text
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    shown = 0
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out.splitlines() == expected, block
        shown += len(expected)
    assert len(blocks) == 4 and shown == 9


def test_readme_graph_file_block_parses_as_printed():
    # the block under "Graph file format" is a graph file as it stands,
    # and each rule the paragraph after it states holds
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Graph file format"):]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    g = parse_graph(block)
    assert g.labels == ("a", "b", "c", "d")
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("a b  # a comment\n")
    assert parse_graph("vertices: d c\nvertices: x\nd c\nc b\n").labels == ("b", "c", "d", "x")
    assert parse_graph("a b\nb a\na b\n").edge_count == 1
    assert parse_graph("a b\nc d\n").n == 4


def test_readme_product_shell_block_runs_as_printed(capsys, tmp_path, monkeypatch):
    # the ```sh block under "Product reports on small paths": printf writes
    # a factor file, and each geodom line runs through the CLI's main
    from geodom.cli import main

    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Product reports on small paths"):]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    codes, outputs = [], []
    for line in block.splitlines():
        words = shlex.split(line)
        if words[0] == "printf":
            _, body, redirect, name = words
            assert redirect == ">"
            Path(name).write_text(body.replace("\\n", "\n"))
        else:
            assert words[:2] == ["geodom", "product-verify"] and "--base" in words
            codes.append(main(words[1:]))
            outputs.append(capsys.readouterr().out.splitlines())
    assert codes == [0, 0, 1]
    # what the paragraph after the block says of the lexicographic run
    assert "witnesses: (a,3)" in outputs[2]
    assert "gx: 6 outside [1, 5]" in outputs[2]
