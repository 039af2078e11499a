"""Self-tests of the benchmark: its checkers, its tracer and its inputs.

    python3 bench/selftest.py

Exit code 0 when every test passes.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from collections import Counter

from reference import BOUNDS, check_solve_output, kruskal_tree
from run import WORK_DIR, Pass, Reference, load_package, replay
from workloads import WORKLOADS

SEED = 1
HELD_OUT_SEED = 90_210
SCRATCH = WORK_DIR / "selftest"


def _build(uq, name: str, seed: int) -> list:
    return WORKLOADS[name].build(uq, seed, SCRATCH / f"{name}-{seed}")


def _first_of(ops, prefix: str):
    return next(op for op in ops if op.label.startswith(prefix))


def test_selection_checker_rejects_wrong_answer(uq, cli):
    w = WORKLOADS["select-scale"]
    op = _first_of(_build(uq, w.name, SEED), "min1-witness/OP-P")
    rc, out, err = w.execute(uq, cli, op)
    data = json.loads(out)
    assert check_solve_output(rc, data, op.expected) is None, "true answer rejected"
    n = len(json.loads(open(op.argv[2]).read())["areas"])
    data["answer"] = data["answer"] % n + 1
    assert check_solve_output(rc, data, op.expected) is not None, "wrong k-th accepted"


def test_mst_checker_rejects_non_minimal_tree(uq, cli):
    w = WORKLOADS["mst-scale"]
    op = _build(uq, w.name, SEED)[0]
    rc, out, err = w.execute(uq, cli, op)
    data = json.loads(out)
    assert check_solve_output(rc, data, op.expected) is None, "minimum tree rejected"
    inst = json.loads(open(op.argv[2]).read())
    edges = [(e["u"], e["v"]) for e in inst["problem"]["edges"]]
    hidden = [uq.parse_rational(h) for h in inst["hidden"]]
    heaviest = kruskal_tree(inst["problem"]["vertices"], edges, [-h for h in hidden])
    assert heaviest != op.expected
    data["tree"] = sorted(e + 1 for e in heaviest)
    assert check_solve_output(rc, data, op.expected) is not None, "non-minimal tree accepted"


def test_trial_checker_rejects_bound_violation(uq, cli):
    w = WORKLOADS["compete-desk"]
    ops = _build(uq, w.name, SEED)
    for prefix in ("min1-witness/", "kmin-bypass/", "opop-alternate/", "umst/"):
        op = _first_of(ops, prefix)
        raw = w.execute(uq, cli, op)
        assert w.judge(op, raw).error is None, f"{op.label}: valid trial rejected"
        report, got, opt, n = raw
        # Above every bound in the table.
        padded = dataclasses.replace(report, total=2 * (opt + op.k) + 1)
        assert w.judge(op, (padded, got, opt, n)).error is not None, (
            f"{op.label}: bound violation accepted")
        assert w.judge(op, (report, got, None, n)).error is not None, (
            f"{op.label}: missing OPT accepted")


def test_bounds_match_the_package(uq, cli):
    package_bounds = getattr(uq.harness, "BOUNDS", None)
    if package_bounds is None:
        return
    for alg, bound in BOUNDS.items():
        for q in range(12):
            for opt in range(6):
                assert bound(q, opt, 2, 6) == package_bounds[alg](q, opt, 2, 6), alg


def test_traced_run_keeps_query_logs(uq, cli):
    for name, w in WORKLOADS.items():
        ops = _build(uq, name, SEED)[: w.round_size]
        originals = {k: getattr(uq.selection, k) for k in ("order_l", "kmin_verifier")}
        plain, traced, tracer = replay(w, uq, cli, ops)
        assert not plain.errors and not traced.errors, (plain.errors + traced.errors)[:3]
        assert plain.fingerprint == traced.fingerprint, f"{name}: fingerprint changed"
        assert plain.queries_total == traced.queries_total, f"{name}: queries changed"
        assert tracer.missing == [], f"unbound targets {tracer.missing}"
        assert all(getattr(uq.selection, k) is v for k, v in originals.items()), "not restored"
        layers = tracer.layer_metrics()
        busy = "mst.pass_calls" if name == "mst-scale" else "selection.verify_calls"
        assert layers[busy][0] > 0, f"{name}: no {busy} recorded"


def test_held_out_seed_has_same_shape(uq, cli):
    for name in WORKLOADS:
        ops = _build(uq, name, SEED)
        again = _build(uq, name, SEED)
        held = _build(uq, name, HELD_OUT_SEED)
        assert Counter(op.label for op in ops) == Counter(op.label for op in held), name
        assert [op.expected for op in ops] == [op.expected for op in again], name
        if name == "compete-desk":
            same = [a.instance == b.instance for a, b in zip(ops, held)]
        else:
            same = [open(a.argv[2]).read() == open(b.argv[2]).read() for a, b in zip(ops, held)]
        assert sum(same) <= len(same) // 100, f"{name}: held-out seed repeats inputs"


def test_reference_scaling(uq, cli):
    reference = Reference()
    nominal = Reference.NOMINAL_S
    # Kernel samples at nominal speed, then at half and at double speed.
    reference.samples = [nominal, nominal, 2 * nominal, 2 * nominal, nominal / 2]
    run = Pass(WORKLOADS["select-scale"], uq, cli, [], reference=reference)
    run.times = [0.1, 0.1, 0.1, 0.1]
    run.sample_index = [0, 1, 2, 3]
    expected = [0.1, 0.1 / 1.5, 0.05, 0.1 / 1.25]
    assert all(abs(a - b) < 1e-12 for a, b in zip(run.scaled, expected)), run.scaled
    reference = Reference()
    reference.sample()
    assert 0 < reference.samples[0] < 1, "reference kernel takes no time or too long"


TESTS = [v for k, v in sorted(globals().items()) if k.startswith("test_")]


def main() -> int:
    uq, cli = load_package()
    failed = 0
    try:
        for test in TESTS:
            try:
                test(uq, cli)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
            else:
                print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(TESTS) - failed}/{len(TESTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
