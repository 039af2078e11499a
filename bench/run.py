"""Benchmark for the uncquery package: time of solves and competition
trials, end to end and layer by layer.

    python3 bench/run.py --workload select-scale --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` runs each op of the
list once untraced and once traced, and reports the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every operation passed its check.

The end-to-end times are given at a reference machine speed: a fixed
pure-Python kernel (`Reference`) is timed between operations, and each wall
time is scaled by how much slower or faster than its nominal 4 ms that kernel
ran around it.  On a shared machine whose speed drifts by tens of percent
over seconds, this keeps the figures of one program steady from run to run;
the unscaled wall times are printed in the summary line.

The package is imported from `src/` of the checkout this file sits in; there
is nothing to build.  Scratch files go to `bench/.work/`.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import re
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
# p90 needs ten samples beyond it.
MIN_SAMPLES = 100
# The reference kernel runs at least this often between operations.
REFERENCE_EVERY_S = 0.2


class BenchError(Exception):
    pass


def load_package():
    """Fresh import of `uncquery` from the checkout's `src/`, plus the
    function the `uncquery` console script runs.  Earlier imports are dropped
    first, so each call pays the full import cost."""
    src = ROOT / "src"
    if not (src / "uncquery" / "__init__.py").is_file():
        raise BenchError(f"no uncquery package under {src}")
    pyproject = ROOT / "pyproject.toml"
    if not pyproject.is_file():
        raise BenchError(f"no {pyproject}")
    entry = re.search(r'^uncquery\s*=\s*"([\w.]+):(\w+)"', pyproject.read_text(), re.M)
    if entry is None:
        raise BenchError("pyproject.toml declares no `uncquery` console script")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "uncquery" or m.startswith("uncquery.")]:
        del sys.modules[name]
    uq = importlib.import_module("uncquery")
    if Path(uq.__file__).resolve().parent != (src / "uncquery").resolve():
        raise BenchError(f"imported uncquery from {uq.__file__}, not from {src}")
    cli = getattr(importlib.import_module(entry.group(1)), entry.group(2))
    return uq, cli


def set_up(workload, seed: int, reference):
    """Import, generate and write the inputs; returns (wall seconds, seconds
    at reference speed, uq, cli, ops)."""
    workdir = WORK_DIR / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    watch = Stopwatch(reference)
    uq, cli = load_package()
    watch.tick()
    ops = workload.build(uq, seed, workdir, watch.tick)
    return watch.stop() + (uq, cli, ops)


class Reference:
    """Machine-speed reference: a fixed kernel of sorting, hashing and
    integer and `Fraction` arithmetic, built from the standard library alone,
    so no change to the package can change its cost.  It tracks the drift of
    the machine the package runs on, and `scale(i)` turns a wall time
    measured between samples i and i + 1 into a time at nominal speed."""

    NOMINAL_S = 0.004

    def __init__(self) -> None:
        rng = random.Random(0)
        self._fractions = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 1000))
                           for _ in range(800)]
        self._pairs = [(rng.randrange(10**6), rng.randrange(1, 1000)) for _ in range(800)]
        self.samples: list = []
        self.last = -math.inf

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        xs = sorted(self._fractions)
        sum(xs[::5])
        {x: i for i, x in enumerate(xs)}
        acc = 0
        for a, b in sorted(self._pairs, key=lambda p: (p[0] * 7919) % 1000003):
            acc += a // b if a & 1 else a - b
        return time.perf_counter() - t0

    def sample(self) -> None:
        # The faster of two runs drops a one-off interruption.
        self.samples.append(min(self._kernel(), self._kernel()))
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= REFERENCE_EVERY_S

    def scale(self, i: int) -> float:
        return self.NOMINAL_S / ((self.samples[i] + self.samples[i + 1]) / 2)


class Stopwatch:
    """Wall time of one stretch of work, with the reference kernel sampled
    whenever due at the `tick`s in between, and that time at reference speed.
    The kernel's own runs are not counted."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.wall = self.scaled = 0.0
        reference.sample()
        self._t0 = time.perf_counter()

    def _split(self) -> None:
        wall = time.perf_counter() - self._t0
        self.reference.sample()
        self.wall += wall
        self.scaled += wall * self.reference.scale(len(self.reference.samples) - 2)
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        if self.reference.due():
            self._split()

    def stop(self) -> tuple:
        self._split()
        return self.wall, self.scaled


class Pass:
    """Timed closed loop over the operation list, one op at a time.  With a
    `reference`, the kernel is sampled between ops and `scaled` gives each
    op's time at nominal machine speed."""

    def __init__(self, workload, uq, cli, ops, tracer=None, reference=None):
        self.workload, self.uq, self.cli, self.ops = workload, uq, cli, ops
        self.tracer = tracer
        self.reference = reference
        self.times: list = []
        self.sample_index: list = []
        self.errors: list = []
        self.queries_total = 0
        self._digest = hashlib.sha256()

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()

    def run_op(self, op) -> None:
        i = len(self.times)
        if self.reference is not None:
            if self.reference.due():
                self.reference.sample()
            self.sample_index.append(len(self.reference.samples) - 1)
        t0 = time.perf_counter()
        if self.tracer is None:
            raw = self.workload.execute(self.uq, self.cli, op)
        else:
            with self.tracer.span("op"):
                raw = self.workload.execute(self.uq, self.cli, op)
        self.times.append(time.perf_counter() - t0)
        outcome = self.workload.judge(op, raw)
        if outcome.error is not None:
            self.errors.append(f"op {i} [{op.label}]: {outcome.error}")
        if i < len(self.ops):  # the first pass makes the fingerprint
            self.queries_total += outcome.queries
            self._digest.update(json.dumps(outcome.log, sort_keys=True).encode() + b"\n")

    def run_for(self, seconds: float, min_samples: int) -> float:
        """One whole pass over the list, then on round by round from its
        start, until `seconds` have elapsed and at least `min_samples`
        operations ran.  A run thus ends on a round boundary, and every run
        holds the same class mix however fast the program is."""
        round_size = self.workload.round_size
        t_start = time.perf_counter()
        while (len(self.times) < len(self.ops)
               or len(self.times) % round_size
               or len(self.times) < min_samples
               or time.perf_counter() - t_start < seconds):
            self.run_op(self.ops[len(self.times) % len(self.ops)])
        elapsed = time.perf_counter() - t_start
        self.reference.sample()
        return elapsed

    @property
    def scaled(self) -> list:
        scale = self.reference.scale
        return [t * scale(j) for t, j in zip(self.times, self.sample_index)]


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed: int, seconds: float):
    reference = Reference()
    setup_times, wall_setup_times = [], []
    for _ in range(SETUP_REPS):
        ops = None  # the previous set-up's inputs are not kept alive
        wall, scaled, uq, cli, ops = set_up(workload, seed, reference)
        wall_setup_times.append(wall)
        setup_times.append(scaled)
    run = Pass(workload, uq, cli, ops, reference=reference)
    elapsed = run.run_for(seconds, MIN_SAMPLES)
    times = sorted(run.scaled)
    wall_times = sorted(run.times)
    n = len(times)
    metrics = {
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": metric(percentile(times, 0.9) * 1e3, "ms"),
        "ops_per_s": metric(n / sum(times), "1/s"),
        "queries_total": metric(run.queries_total, "count"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = n - math.ceil(0.9 * n)
    kernel_ms = sorted(t * 1e3 for t in reference.samples)
    summary = {
        "workload": workload.name, "seed": seed, "ops": n, "distinct_ops": len(ops),
        "seconds": elapsed, "beyond_p90": beyond,
        "fingerprint": run.fingerprint, "queries_total": run.queries_total,
        "failed_frac": len(run.errors) / n,
        # Unscaled wall times, and the reference kernel's spread.
        "wall_op_p50_ms": statistics.median(wall_times) * 1e3,
        "wall_op_p90_ms": percentile(wall_times, 0.9) * 1e3,
        "wall_ops_per_s": n / sum(wall_times),
        "wall_setup_s": statistics.median(wall_setup_times),
        "reference_ms": {"min": kernel_ms[0], "median": statistics.median(kernel_ms),
                         "max": kernel_ms[-1], "samples": len(kernel_ms)},
    }
    for name, m in metrics.items():
        print(f"{workload.name:14s} {name:16s} {m['value']:>14.4f} {m['unit']}")
    print(f"{workload.name:14s} {'failed_frac':16s} {summary['failed_frac']:>14.4f} ratio")
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p90", file=sys.stderr)
    return run.errors, n, metrics, summary


def replay(workload, uq, cli, ops):
    """Each operation untraced and then traced, back to back, so that both
    runs of an op see the same machine state; returns both passes and the
    tracer holding the spans."""
    tracer = Tracer()
    plain = Pass(workload, uq, cli, ops)
    traced = Pass(workload, uq, cli, ops, tracer)
    for op in ops:
        plain.run_op(op)
        tracer.install()
        try:
            traced.run_op(op)
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def run_traced(workload, seed: int):
    uq, cli = load_package()
    gen = Tracer()
    gen.install()
    try:
        ops = workload.build(uq, seed, WORK_DIR / workload.name)
    finally:
        gen.uninstall()
    plain, traced, tracer = replay(workload, uq, cli, ops)
    trace_path = WORK_DIR / workload.name / "trace.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(trace_path)
    layers = tracer.layer_metrics()
    layers["harness.gen_ms"] = gen.layer_metrics()["harness.gen_ms"]
    metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
    overhead = sum(traced.times) / sum(plain.times) - 1
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    errors = plain.errors + traced.errors
    if (plain.fingerprint, plain.queries_total) != (traced.fingerprint, traced.queries_total):
        errors.append("traced run changed the query logs")
    for name, m in metrics.items():
        print(f"{workload.name:14s} {name:28s} {m['value']:>16.4f} {m['unit']}")
    summary = {
        "workload": workload.name, "seed": seed, "ops": len(ops),
        "spans": len(tracer.kind), "trace": str(trace_path.relative_to(ROOT)),
        "unbound_targets": tracer.missing,
        "fingerprint": plain.fingerprint, "traced_fingerprint": traced.fingerprint,
        "queries_total": plain.queries_total, "traced_queries_total": traced.queries_total,
    }
    return errors, 2 * len(ops), metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            errors, attempted, metrics, summary = run_traced(workload, args.seed)
        else:
            errors, attempted, metrics, summary = run_untraced(
                workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
