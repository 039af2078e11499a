"""Check the benchmark's seed-7 and seed-4242 outputs against pinned values.

For each workload and each seed S of 7 and 4242 this runs

    python3 bench/run.py --workload W --seed S --seconds 1 --trace 1

and fails unless the query-log fingerprint of the untraced and of the traced
pass and `queries_total` equal the pins below, so do the traced run's
deterministic counts (`COUNTED`), every tracer target is bound
(`unbound_targets` is empty), and the result line reads "correct": true.

A change that alters a query log must update these pins and say so in
CHANGES.md.  The counts catch what the query logs do not: a change that adds
verifier calls, witness rounds or uMST passes while the logs stay put.  Seed
4242 is held out: no change is tuned on it, so its pins show that a change
left the generated inputs as they were.  Run it from anywhere:

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

# The same at the held-out seed 4242.
HELD_OUT_PINS = {
    "select-scale": ("d7e5c2cc8a320c9de8c99610ea5d475f4d4e962f8ff5bd3b3a8f5b6a44513b9a", 3699),
    "mst-scale": ("91e083962ace3d77970a72b486141c19dfc02b48acc2b39182afbec2908a6393", 5203),
    "compete-desk": ("e1839e916e44c05641ffa370788bb498c9ce5fa8c7dcbebf9cd1303821f9133c", 7364),
}

PINS_BY_SEED = {7: PINS, 4242: HELD_OUT_PINS}

# The traced run's counts, one per name here, per seed and workload.
COUNTED = ("engine.iterations", "oracles.respond_calls", "selection.verify_calls",
           "selection.witness_calls", "mst.pass_calls")
COUNT_PINS = {
    7: {
        "select-scale": (2347, 3616, 3798, 2347, 0),
        "mst-scale": (0, 5223, 0, 0, 2832),
        "compete-desk": (4044, 26078, 21201, 4044, 7426),
    },
    4242: {
        "select-scale": (2386, 3699, 3881, 2386, 0),
        "mst-scale": (0, 5203, 0, 0, 2833),
        "compete-desk": (4052, 26124, 21316, 4052, 8424),
    },
}


def check(workload: str, seed: int, fingerprint: str, queries_total: int,
          counts: tuple) -> list:
    """The ways one workload's run at `seed` differs from its pins."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
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
    values = {name: m.get("value") for name, m in result.get("metrics", {}).items()}
    faults += [f"{name} is {values.get(name)!r}, pinned {want!r}"
               for name, want in zip(COUNTED, counts) if values.get(name) != want]
    if result.get("correct") is not True:
        faults.append(f"result reads correct={result.get('correct')!r}")
    return faults


def main() -> int:
    failed = False
    for seed, pins_of in PINS_BY_SEED.items():
        for workload, pins in pins_of.items():
            faults = check(workload, seed, *pins, COUNT_PINS[seed][workload])
            for fault in faults:
                print(f"{workload} seed {seed}: {fault}", file=sys.stderr)
            print(f"{workload} seed {seed}: {'FAIL' if faults else 'ok'}")
            failed = failed or bool(faults)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
