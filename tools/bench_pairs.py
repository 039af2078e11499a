"""Run the benchmark on a parent and a change checkout in back-to-back pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seed 7 --seed 4242 --out BENCH_<pr>.json

For every workload the change's BENCHMARK.json declares and every seed,
each of 10 pairs runs

    python3 bench/run.py --workload W --seed S --trace 0

in the parent checkout and in the change checkout, one right after the
other; the parent goes first in odd pairs and the change in even ones, so
that a drift of the machine's speed does not favour one side.  Ten pairs
are what a claimed gain is judged on, and bench/run.py sets the run length.
After a workload and seed's pairs, each side runs once more with
`--trace 1`, the parent first, so that the record shows in which layer
(`harness.gen_ms`, `engine.solve_ms`, ...) a difference sits.

The file `--out` holds the command, the parent's commit, the machine, how
the pairs ran, and one record per pair with the result and summary lines
each side printed, unmodified.  Its `summary` gives, per workload and per
seed and over all seeds of a workload, each end-to-end metric's median and
quartiles on both sides and in how many pairs the change was better, by the
direction BENCHMARK.json declares.  Its `traced` holds one record per
workload and seed with both traced runs' lines, unmodified, and each
per-layer metric's value on both sides.  Its `source_lines` gives each
side's line count of every `src/uncquery/*.py` module and their total.  A
pair or traced record whose sides differ in `fingerprint` or
`queries_total`, or where a side did not report `"correct": true`, is
flagged in its record and on stderr, and the exit code is 1.  Standard library only; nothing but `--out` is written.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def run_side(checkout: Path, workload: str, seed: int, trace: int = 0) -> tuple:
    """The summary and result lines one run of bench/run.py printed."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    try:
        json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"error: {checkout}: no summary and result line from {workload} seed "
                         f"{seed} (exit {run.returncode}): {run.stderr.strip()}") from None
    return lines[-2], lines[-1]


def pair_flags(record: dict) -> list:
    """The ways the two sides of one pair disagree or fail."""
    summary = {side: json.loads(record[f"{side}_summary"]) for side in SIDES}
    flags = [f"{key} differs: parent {summary['parent'].get(key)!r}, "
             f"change {summary['change'].get(key)!r}"
             for key in ("fingerprint", "queries_total")
             if summary["parent"].get(key) != summary["change"].get(key)]
    for side in SIDES:
        if json.loads(record[f"{side}_result"]).get("correct") is not True:
            flags.append(f"{side} did not report correct: true")
    return flags


def layer_values(record: dict) -> dict:
    """Each per-layer metric of a traced record, on both sides."""
    metrics = {side: json.loads(record[f"{side}_result"])["metrics"] for side in SIDES}
    return {name: {side: metrics[side].get(name, {}).get("value") for side in SIDES}
            for name in metrics["change"]}


def flagged(record: dict, where: str) -> bool:
    """Set the record's flags, print each on stderr, and say if there were any."""
    record["flags"] = pair_flags(record)
    for flag in record["flags"]:
        print(f"{where}: {flag}", file=sys.stderr)
    return bool(record["flags"])


def spread(values: list) -> dict:
    """Median and quartiles of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def metric_stats(records: list, metrics: dict) -> dict:
    """Per end-to-end metric: each side's spread over `records` and in how
    many of those pairs the change was better."""
    out = {}
    for name, better in metrics.items():
        values = {side: [json.loads(r[f"{side}_result"])["metrics"][name]["value"]
                         for r in records] for side in SIDES}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {"better": better, "pairs": len(records), "change_wins": wins,
                     **{side: spread(values[side]) for side in SIDES}}
    return out


def summarize(runs: list, metrics: dict) -> dict:
    """`metric_stats` per workload, over all its seeds and per seed."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {"all seeds": metric_stats(mine, metrics)}
        for seed in dict.fromkeys(r["seed"] for r in mine):
            out[workload][f"seed {seed}"] = metric_stats(
                [r for r in mine if r["seed"] == seed], metrics)
    return out


def source_lines(checkout: Path) -> dict:
    """The line count of each `src/uncquery` module in `checkout`, and their total."""
    modules = {path.name: len(path.read_text().splitlines())
               for path in sorted((checkout / "src" / "uncquery").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def git_commit(checkout: Path):
    """The commit checked out at `checkout`, or None outside a git clone."""
    run = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}

    runs, traced = [], []
    any_flags = False
    for workload in (w["name"] for w in declared["workloads"]):
        for seed in args.seed:
            for pair in range(1, PAIRS + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                record = {"workload": workload, "seed": seed, "pair": pair, "first": order[0]}
                for side in order:
                    record[f"{side}_summary"], record[f"{side}_result"] = run_side(
                        checkouts[side], workload, seed)
                any_flags |= flagged(record, f"{workload} seed {seed} pair {pair}")
                runs.append(record)
                print(f"{workload} seed {seed}: pair {pair}/{PAIRS} done", file=sys.stderr)
            record = {"workload": workload, "seed": seed}
            for side in SIDES:
                record[f"{side}_summary"], record[f"{side}_result"] = run_side(
                    checkouts[side], workload, seed, trace=1)
            any_flags |= flagged(record, f"{workload} seed {seed} traced")
            record["layers"] = layer_values(record)
            traced.append(record)

    payload = {
        "command": "python3 bench/run.py --workload W --seed S --trace 0",
        "parent_commit": git_commit(args.parent),
        "change_commit": git_commit(args.change),
        "machine": f"{os.cpu_count()}-core {platform.system()} machine, "
                   f"Python {platform.python_version()}",
        "pairs": f"{PAIRS} pairs per workload and seed; each pair ran the parent and the "
                 "change back to back, each from its own checkout, the parent first in odd "
                 "pairs and the change first in even pairs; the *_result and *_summary strings "
                 "are the result and summary lines bench/run.py printed, unmodified",
        "summary": summarize(runs, metrics),
        "source_lines": {side: source_lines(checkouts[side]) for side in SIDES},
        "traced_command": "python3 bench/run.py --workload W --seed S --trace 1",
        "traced": traced,
        "runs": runs,
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 1 if any_flags else 0


if __name__ == "__main__":
    raise SystemExit(main())
