"""Check the benchmark's seed-7 outputs against pinned values.

For each workload this runs

    python3 bench/run.py --workload W --seed 7 --seconds 1 --trace 1

and fails unless the query-log fingerprint of the untraced and of the traced
pass and `queries_total` equal the pins below, every tracer target is bound
(`unbound_targets` is empty), and the result line reads "correct": true.

A change that alters a query log must update these pins and say so in
CHANGES.md.  Run it from anywhere:

    python3 tools/check_bench_pins.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload: (query-log fingerprint, queries_total) at seed 7.
PINS = {
    "select-scale": ("dad057c3acdc7ddbb2dd69da8a9b29b5ebb0de9ab0898268769459331eca4d0c", 3616),
    "mst-scale": ("108b1a76d04b598f9afcf9c0f59ebc9096cf985f26e40e3400dbfa207b20578b", 5223),
    "compete-desk": ("84a6a77e1f532396140d3db8b8fc1d7537127d42a7b59771889b7a4d712668f5", 7324),
}


def check(workload: str, fingerprint: str, queries_total: int) -> list:
    """The ways one workload's seed-7 run differs from its pins."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    try:
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"no summary and result line (exit {run.returncode}): {run.stderr.strip()}"]
    expected = {"fingerprint": fingerprint, "traced_fingerprint": fingerprint,
                "queries_total": queries_total, "unbound_targets": []}
    faults = [f"{key} is {summary.get(key)!r}, pinned {want!r}"
              for key, want in expected.items() if summary.get(key) != want]
    if result.get("correct") is not True:
        faults.append(f"result reads correct={result.get('correct')!r}")
    return faults


def main() -> int:
    failed = False
    for workload, pins in PINS.items():
        faults = check(workload, *pins)
        for fault in faults:
            print(f"{workload}: {fault}", file=sys.stderr)
        print(f"{workload}: {'FAIL' if faults else 'ok'}")
        failed = failed or bool(faults)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
