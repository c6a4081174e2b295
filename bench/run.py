"""End-to-end benchmark of the geodom command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs `python3 -m geodom` from the checkout's `src/` as subprocesses in a
closed loop: one client, one command at a time. Each workload is a fixed
list of invocations built from the seed (see workloads.py). Every
invocation's exit code and JSON output are checked, and repeated
invocations must print byte-identical stdout.

With --trace 0 the list is run in passes for about S seconds and the
end-to-end metrics are reported (measure() says how each is formed).
With --trace 1 the list is run once untraced and once under
trace_boot.py, S is not used, and the per-layer metrics are reported.
Commands are started through launch.py, which times them.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. Lines before it give the machine context, the
inputs, each metric by name with its unit, and fail_frac (failed
invocations over attempted ones).

Exits 2 without a result when the checkout has no geodom sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

INVOCATION_TIMEOUT_S = 90.0
SPEED_PROBE_ITERATIONS = 2_000_000


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: "int | None"  # None when killed at the timeout
    stdout: bytes
    stderr: bytes


class Cli:
    """Runs geodom commands one at a time and keeps the tally of outcomes."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        self._first: dict[tuple[str, ...], tuple[int, str, "str | None"]] = {}

    def run(self, op, spans_to: "Path | None" = None) -> Invocation:
        argv = op.argv()
        if spans_to is None:
            cmd = [sys.executable, "-m", "geodom", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "trace_boot.py"), str(spans_to), "--", *argv]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py"), str(INVOCATION_TIMEOUT_S),
             str(out_path), str(err_path), "--", *cmd],
            stdout=subprocess.PIPE, cwd=self.workdir, env=self.env,
        )
        try:
            report, _ = launcher.communicate()
        except BaseException:
            launcher.terminate()
            launcher.wait()
            raise
        if launcher.returncode != 0:
            raise RuntimeError(f"launcher exited with {launcher.returncode}")
        rep = json.loads(report)
        inv = Invocation(
            wall_s=rep["wall_s"],
            cpu_s=rep["cpu_s"],
            rss_kb=rep["rss_kb"],
            code=rep["code"],
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
        )
        self.peak_rss_kb = max(self.peak_rss_kb, inv.rss_kb)
        self._tally(op, inv)
        return inv

    def _tally(self, op, inv: Invocation) -> None:
        """Check the first output of each distinct command; every later run
        of it must match that output byte for byte and exit the same way."""
        self.attempted += 1
        key = tuple(op.argv())
        digest = hashlib.sha256(inv.stdout).hexdigest()
        if key not in self._first:
            self._first[key] = (inv.code, digest, _verdict(op, inv))
        code, first_digest, verdict = self._first[key]
        if (inv.code, digest) != (code, first_digest):
            verdict = "stdout or exit code differs on a repeat"
        if verdict is not None:
            self.failures.append(f"geodom {' '.join(key)[:160]}: {verdict}")


def _verdict(op, inv: Invocation) -> "str | None":
    if inv.code is None:
        return f"timed out after {INVOCATION_TIMEOUT_S:.0f} s"
    try:
        doc = json.loads(inv.stdout)
    except ValueError:
        return f"exit {inv.code}, no JSON on stdout; stderr: {inv.stderr[-300:]!r}"
    try:
        return op.check(inv.code, doc)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def run_pass(cli: Cli, ops, spans_dir: "Path | None" = None) -> list[Invocation]:
    runs = []
    for i, op in enumerate(ops):
        spans_to = None if spans_dir is None else spans_dir / f"spans{i}.npz"
        runs.append(cli.run(op, spans_to))
    return runs


def speed_probe() -> float:
    """A fixed pure-Python loop, recorded to show slow phases of the
    machine; never used to normalise a metric."""
    t0 = perf_counter()
    total = 0
    for i in range(SPEED_PROBE_ITERATIONS):
        total += i
    return perf_counter() - t0


def _emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}{'  ' + note if note else ''}")


def measure(cli: Cli, workload, setup, seconds: float) -> dict:
    """Passes over the fixed list, then the end-to-end metrics.

    A further pass starts while it is expected to end no more than half a
    pass past the deadline; there is always at least one. Each entry of
    the list is timed at its best over every run of the same command in
    the run, as timeit does: on a shared host other tenants can slow
    CPU-bound work by up to half for seconds at a time, and the best of
    several runs spread over the run is the steady figure. op_s.p50 is
    the median of those times over the list and wall_s their sum. One
    set-up sample runs before every invocation, so set-up samples spread
    over the whole run too; setup_s is their median.
    """
    best: dict[tuple[str, ...], float] = {}
    setup_times: list[float] = []
    pass_elapsed: list[float] = []
    invocations = 0
    start = perf_counter()
    while not pass_elapsed or perf_counter() - start + statistics.median(pass_elapsed) / 2 <= seconds:
        t0 = perf_counter()
        for op in workload.ops:
            setup_times.append(cli.run(setup).wall_s)
            key = tuple(op.argv())
            best[key] = min(best.get(key, float("inf")), cli.run(op).wall_s)
            invocations += 1
        pass_elapsed.append(perf_counter() - t0)
    entry_times = [best[tuple(op.argv())] for op in workload.ops]
    metrics = {
        "op_s.p50": (statistics.median(entry_times), "s"),
        "wall_s": (sum(entry_times), "s"),
        "peak_rss_mb": (cli.peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "op_s.p50": f"(list entries={len(entry_times)}, distinct commands={len(best)}, "
                    f"invocations timed={invocations}, passes={len(pass_elapsed)})",
        "wall_s": "(sum over the list of each entry's best time)",
        "setup_s": f"(samples={len(setup_times)})",
    }
    for name, (value, unit) in metrics.items():
        _emit(name, value, unit, notes.get(name, ""))
    return metrics


def trace(cli: Cli, workload, workdir: Path, seed: int) -> dict:
    import layers

    untraced = run_pass(cli, workload.ops)
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    traced = run_pass(cli, workload.ops, spans_dir)
    totals = layers.SpanTotals()
    for path in sorted(spans_dir.glob("*.npz")):
        totals.add_file(path)
    metrics = layers.span_metrics(totals)
    metrics.update(layers.direct_probes(SRC, seed))

    sources = sum(
        json.loads(r.stdout)["result"]["sources_checked"]
        for op, r in zip(workload.ops, traced)
        if op.args[0] == "verify-theorems" and r.code == 0
    )
    sweep_s = totals.total_s["oracles.verify_unique_minimum"]
    metrics["oracles.sources_per_s"] = (sources / sweep_s if sweep_s else 0.0, "1/s")
    metrics["cli.stdout_bytes"] = (sum(len(r.stdout) for r in untraced), "B")
    # numpy's thread pool can make CPU time exceed wall time, so each
    # invocation's wait is floored at zero
    metrics["cli.wait_s"] = (sum(max(0.0, r.wall_s - r.cpu_s) for r in untraced), "s")
    base = sum(r.wall_s for r in untraced)
    metrics["trace.overhead_frac"] = (sum(r.wall_s for r in traced) / base - 1.0, "ratio")

    for name, (value, unit) in sorted(metrics.items()):
        _emit(name, value, unit)
    in_process = totals.total_s["cli.main"]
    if in_process:
        share = totals.self_s["graph.all_pairs"] / in_process
        print(f"graph.all_pairs self time is {share:.1%} of in-process op time (cli.main)")
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running command is stopped and the work
    # directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    if not (SRC / "geodom" / "cli.py").is_file():
        print(f"error: no geodom sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(args, workloads, workdir: Path) -> int:
    import numpy

    workload = workloads.BUILDERS[args.workload](args.seed, workdir)
    setup = workloads.setup_op(workdir)
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "speed_probe_before_s": round(speed_probe(), 4),
        "inputs": [f.record() for f in workload.inputs],
    }
    cli = Cli(workdir)
    cli.run(setup)  # warm-up: byte-compiles the sources once
    if args.trace:
        metrics = trace(cli, workload, workdir, args.seed)
    else:
        metrics = measure(cli, workload, setup, args.seconds)
    failed = len(cli.failures)
    _emit("fail_frac", failed / cli.attempted, "ratio", f"({failed} of {cli.attempted})")
    context["speed_probe_after_s"] = round(speed_probe(), 4)
    for failure in cli.failures[:20]:
        print(f"FAIL {failure}")
    print("context " + json.dumps(context))
    result = {
        "correct": failed == 0,
        "attempted": cli.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
