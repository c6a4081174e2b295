"""Per-layer numbers: self time and call counts from the traced run's
spans, and direct probes of public functions that no command calls.

Metric names follow the layers of geodom: `graph`, `boundary`,
`products`, `oracles` and `cli`. A function that no longer exists reads
as zero rather than as an error.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs as gen

SELF_TIMED = (
    "graph.all_pairs",
    "graph.geodetic_closure",
    "graph.is_geodetic",
    "graph.parse_graph",
    "graph.Graph",
    "graph.emit_graph",
    "boundary.boundary",
    "boundary.gx_set",
    "boundary.is_x_geodominating",
    "boundary.min_gx_vertex",
    "boundary.geodetic_from_boundary",
    "products.product",
    "products.product_boundary_reports",
    "products.product_gx_reports",
    "oracles.find_simplicial_counterexample",
    "oracles.enumerate_connected_graphs",
    "oracles.verify_unique_minimum",
    "oracles.min_x_geodominating_bruteforce",
    "oracles.geodetic_number_bruteforce",
    "oracles.random_graph_corpus",
    "cli.main",
)
COUNTED = (
    "graph.all_pairs",
    "graph.geodetic_closure",
    "graph.Graph",
    "boundary.boundary",
    "boundary.is_x_geodominating",
    "boundary.min_gx_vertex",
    "products.product",
    "oracles.min_x_geodominating_bruteforce",
)
ALL_SOURCE_SIZES = (500, 1000, 2000)
BFS_PROBE_SOURCES = 31


class SpanTotals:
    """Per-name sums over the spans of every traced invocation."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bfs_sources = 0
        self.apsp_bytes = 0

    def add_file(self, path: Path) -> None:
        with np.load(path) as z:
            names, name, parent = z["names"], z["name"], z["parent"]
            dur = z["end"] - z["start"]
            sized_span, sized_n = z["sized_span"], z["sized_n"]
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_time = np.bincount(name, weights=dur - child, minlength=len(names))
        total = np.bincount(name, weights=dur, minlength=len(names))
        calls = np.bincount(name, minlength=len(names))
        for i, label in enumerate(names):
            self.self_s[str(label)] += float(self_time[i])
            self.total_s[str(label)] += float(total[i])
            self.calls[str(label)] += int(calls[i])
        sized_names = names[name[sized_span]]
        apsp = sized_n[sized_names == "graph.all_pairs"]
        self.bfs_sources += int(apsp.sum()) + int(np.count_nonzero(sized_names == "graph.bfs_distances"))
        self.apsp_bytes += int((4 * apsp * apsp).sum())


def span_metrics(t: SpanTotals) -> dict[str, tuple[float, str]]:
    out = {f"{n}.self_s": (t.self_s[n], "s") for n in SELF_TIMED}
    out.update({f"{n}.calls": (t.calls[n], "count") for n in COUNTED})
    out["graph.bfs_sources"] = (t.bfs_sources, "count")
    out["graph.apsp_bytes"] = (t.apsp_bytes, "B")
    out["cli.main.total_s"] = (t.total_s["cli.main"], "s")
    return out


def _geodom_graph(geodom_graph, g: gen.Graph):
    lab = g.labels
    return geodom_graph.Graph(((lab[u], lab[v]) for u, v in g.edges), vertices=lab)


def direct_probes(src: Path, seed: int) -> dict[str, tuple[float, str]]:
    """Time one BFS, and the all-source boundary (APSP plus the boundary
    of every source) at three sizes with its fitted growth exponent."""
    sys.path.insert(0, str(src))
    # geodom re-exports the function `boundary` under its module's name
    B = importlib.import_module("geodom.boundary")
    G = importlib.import_module("geodom.graph")

    out: dict[str, tuple[float, str]] = {}
    rng = gen.derive_rng(seed, "probe-bfs")
    g = gen.random_graph(2000, 5000, rng)
    try:
        gg = _geodom_graph(G, g)
        times = []
        for src_vertex in rng.sample(range(g.n), BFS_PROBE_SOURCES):
            t0 = perf_counter()
            G.bfs_distances(gg, src_vertex)
            times.append(perf_counter() - t0)
        out["graph.bfs_distances.probe_s"] = (statistics.median(times), "s")
    except (AttributeError, TypeError) as exc:
        print(f"probe skipped: graph.bfs_distances ({exc})")
        out["graph.bfs_distances.probe_s"] = (0.0, "s")

    sizes, secs = [], []
    try:
        for n in ALL_SOURCE_SIZES:
            gg = _geodom_graph(G, gen.random_graph(n, 5 * n // 2, gen.derive_rng(seed, "probe-all", n)))
            t0 = perf_counter()
            dm = G.all_pairs(gg)
            for x in range(n):
                B.boundary(gg, dm, x)
            sizes.append(n)
            secs.append(perf_counter() - t0)
    except (AttributeError, TypeError) as exc:
        print(f"probe skipped: all-source boundary ({exc})")
    for n in ALL_SOURCE_SIZES:
        out[f"boundary.all_source_{n}.probe_s"] = (secs[sizes.index(n)] if n in sizes else 0.0, "s")
    exponent = float(np.polyfit(np.log(sizes), np.log(secs), 1)[0]) if len(sizes) >= 2 else 0.0
    out["boundary.all_source.exponent"] = (exponent, "1")
    return out
