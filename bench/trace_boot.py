"""Run `geodom.cli.main` with a span around every public library call.

Usage: python3 trace_boot.py SPANS_FILE -- CLI_ARGS...

Wraps each function named in the `__all__` of geodom.graph, .boundary,
.products and .oracles, plus the Graph constructor, and installs the
wrapper in every geodom namespace that holds the original. A span is
(name, start, end, parent); a generator's span is open whenever it runs
and ends when it is used up. Spans stay in memory and are written to
SPANS_FILE (numpy .npz) at exit. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

LIBRARY_MODULES = ("graph", "boundary", "products", "oracles")
# Spans of these names also record the vertex count of their first argument.
SIZED = {"graph.all_pairs", "graph.bfs_distances"}


class Spans:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.sized_span = array("q")
        self.sized_n = array("q")
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            sized_span=np.frombuffer(self.sized_span, dtype=np.int64),
            sized_n=np.frombuffer(self.sized_n, dtype=np.int64),
        )


def wrap(spans: Spans, name: str, fn):
    nid = spans.name_id(name)
    stack, end = spans.stack, spans.end
    sized = name in SIZED

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            idx = spans.open(nid)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        end[idx] = perf_counter()
                    yield item
            finally:
                inner.close()

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = spans.open(nid)
        if sized:
            spans.sized_span.append(idx)
            spans.sized_n.append(args[0].n)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            end[idx] = perf_counter()
            stack.pop()

    return wrapper


def install(spans: Spans) -> None:
    import importlib

    originals = {}
    for short in LIBRARY_MODULES:
        module = importlib.import_module(f"geodom.{short}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr, None)
            if inspect.isfunction(obj):
                originals[id(obj)] = (obj, wrap(spans, f"{short}.{attr}", obj))
    graph_cls = importlib.import_module("geodom.graph").Graph
    graph_cls.__init__ = wrap(spans, "graph.Graph", graph_cls.__init__)
    for modname, module in list(sys.modules.items()):
        if modname != "geodom" and not modname.startswith("geodom."):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main() -> int:
    spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_boot.py SPANS_FILE -- CLI_ARGS...")
    import geodom.cli

    spans = Spans()
    install(spans)
    run_cli = wrap(spans, "cli.main", geodom.cli.main)
    try:
        return run_cli(cli_args)
    finally:
        sys.stdout.flush()
        spans.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
