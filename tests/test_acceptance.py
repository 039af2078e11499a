"""Acceptance gate: one test per advertised guarantee, exact tolerances.

Each test computes its verdict, records a printable pass/fail line (see
conftest's terminal summary), and then asserts.  Guarantees covered:

 1. tight 1-Min replay: exactly 2n queries in both adversary branches, OPT n
 2. 1-Min bypass additive gap <= 1 on 1000 seeded OP-P instances
 3. k-Min bypass gap <= min{k, n-k} on 500 seeded OP-P instances
 4. 2k-area fixture forces >= k queries while OPT = 1
 5. bypass refused off OP-P; witness stays within 2*OPT on the same schedule
 6. closed-interval anomaly: ratio n without lex, bounded with lex
 7. every emitted witness set intersects every minimal solution
 8. witness strategies within 2*OPT; querying an optimal index drops OPT by 1
 9. uncertain MST: <= 2*OPT, exact tree weight, red-rule-only solves free
10. order-invariance under strictly increasing affine maps
11. byte-identical reports and bit-exact instance JSON round-trips
"""
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import record_criterion
from helpers import (
    affine_map_area, cp_anomaly_revealed_hidden, min_tight_opt_script, recorded_solve,
    reference_is_connected, witness_meets_every_solution,
)
from uncquery.core import Area, TieRule
from uncquery.engine import RunStatus, StrategyModelError, default_budget, solve
from uncquery.harness import (
    EXIT_BOUND_VIOLATED,
    EXIT_OK,
    ExperimentConfig,
    GenParams,
    GraphGenParams,
    compete,
    dump_json,
    generate_graph_instance,
    generate_instance,
    instance_from_json,
    instance_to_json,
    main,
    report_emit,
)
from uncquery.models import ModelSpec, UncertainInstance
from uncquery.mst import mst_verifier, umst_solve
from uncquery.oracles import (
    ExactPolicy,
    GroundTruthOracle,
    HalvePolicy,
    cp_anomaly_fixture,
    kmin_point_fixture,
    min_tight_fixture,
    opo_counterexample_fixture,
)
from uncquery.optbrute import opt_value
from uncquery.selection import SelectionProblem, kmin_verifier, make_strategy

OPP = ModelSpec.parse("OP-P")


def _exact(instance):
    return GroundTruthOracle.for_instance(instance, ExactPolicy())


def _kmin_v(k, tie=TieRule.STABLE):
    return lambda areas: kmin_verifier(areas, k, tie)


def test_criterion_1_tight_replay():
    failures = []
    for n in (2, 3, 5):
        for a0_last, want_case in ((False, 1), (True, 2)):
            fix = min_tight_fixture(n, a0_last=a0_last)
            strategy = make_strategy("min1-witness", fix.instance.problem)
            oracle = fix.oracle.fork()
            report = solve(fix.instance, oracle, strategy, default_budget(n + 1))
            ratio = report.total / fix.opt_value
            if not (
                report.status is RunStatus.SOLVED
                and report.total == 2 * n
                and oracle.case == want_case
                and fix.opt_value == n
                and ratio == 2.0
            ):
                failures.append((n, a0_last, report.total, oracle.case))
                continue
            # The colluding optimum really does finish in n queries.
            script = min_tight_opt_script(oracle, want_case)
            areas = list(fix.instance.areas)
            spent = 0
            if want_case == 1:
                for i in range(len(areas)):
                    if i != oracle.a0_index:
                        areas[i] = script.respond(i, 1, areas[i])
                        spent += 1
            else:
                for c in range(1, n + 1):
                    areas[oracle.a0_index] = script.respond(
                        oracle.a0_index, c, areas[oracle.a0_index]
                    )
                    spent += 1
            if spent != n or kmin_verifier(areas, 1) is None:
                failures.append((n, a0_last, "opt script", spent))
    ok = not failures
    record_criterion(1, ok, "2n/2n/ratio 2.0 for n in {2,3,5}, both branches")
    assert ok, failures


def test_criterion_2_min1_bypass_gap():
    worst_gap = 0
    worst_ratio = 0.0
    failures = []
    for seed in range(1000):
        n = 2 + seed % 7  # 2..8
        inst = generate_instance(
            GenParams(n=n, model=OPP, point_fraction=0.25, overlap=0.7), seed
        )
        oracle = _exact(inst)
        opt = opt_value(list(inst.areas), oracle, _kmin_v(1), n).opt
        bypass = solve(
            inst, oracle.fork(), make_strategy("min1-bypass", inst.problem), default_budget(n)
        )
        witness = solve(
            inst, oracle.fork(), make_strategy("min1-witness", inst.problem), default_budget(n)
        )
        gap = bypass.total - opt
        worst_gap = max(worst_gap, gap)
        if gap > 1 or bypass.status is not RunStatus.SOLVED:
            failures.append(("bypass", seed, bypass.total, opt))
        bound = 2 * opt if opt else 0
        worst_ratio = max(worst_ratio, witness.total / max(opt, 1))
        if witness.total > bound:
            failures.append(("witness", seed, witness.total, opt))
    ok = not failures
    record_criterion(
        2, ok, f"1000 OP-P instances: max bypass gap {worst_gap} (<=1), "
        f"max witness ratio {worst_ratio:.2f} (<=2)"
    )
    assert ok, failures[:5]


def test_criterion_3_kmin_bypass_gap():
    worst = 0
    failures = []
    for seed in range(500):
        n = 4 + seed % 5  # 4..8
        k = 2 + seed % 2  # 2 or 3
        inst = generate_instance(
            GenParams(n=n, model=OPP, k=k, point_fraction=0.25, overlap=0.7),
            10_000 + seed,
        )
        oracle = _exact(inst)
        opt = opt_value(list(inst.areas), oracle, _kmin_v(k), n).opt
        report = solve(
            inst, oracle.fork(), make_strategy("kmin-bypass", inst.problem), default_budget(n)
        )
        gap = report.total - opt
        worst = max(worst, gap)
        if gap > min(k, n - k) or report.status is not RunStatus.SOLVED:
            failures.append((seed, n, k, report.total, opt))
    ok = not failures
    record_criterion(3, ok, f"500 OP-P instances k in {{2,3}}: max gap {worst} <= min(k, n-k)")
    assert ok, failures[:5]


def test_kmin_bypass_declared_bound_fails_at_k_equals_n(tmp_path, capsys):
    """Pins a known fault as it stands: at k = n the declared
    OPT + min{k, n-k} reads OPT, but the rule there is a 1-Max bypass, whose
    additive term is 1.  The competition below finds 20 violations of 200.
    When the declaration or the rule is fixed, this test changes with it."""
    config = {"algorithm": "kmin-bypass", "model": "OP-P", "oracle": "ground:exact",
              "trials": 200, "seed": 7, "n": 3, "problem": {"k": 3}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["compete", "--config", str(cfg_path)]) == EXIT_BOUND_VIOLATED
    aggregate = json.loads(capsys.readouterr().out)
    assert (aggregate["violations"], aggregate["max_gap"]) == (20, 1)


def test_criterion_4_kmin_lower_bound_fixture():
    failures = []
    for k in (2, 3):
        fix = kmin_point_fixture(k)
        for name in ("kmin-witness", "kmin-bypass"):
            report = solve(
                fix.instance,
                fix.oracle.fork(),
                make_strategy(name, fix.instance.problem),
                default_budget(2 * k),
            )
            if not (report.status is RunStatus.SOLVED and report.total >= k and fix.opt_value == 1):
                failures.append((k, name, report.total))
    ok = not failures
    record_criterion(4, ok, "2k-area fixture: >= k queries for k in {2,3}, fixture OPT 1")
    assert ok, failures


def test_criterion_5_opo_counterexample():
    fix = opo_counterexample_fixture()
    refused = False
    try:
        solve(
            fix.instance,
            fix.oracle.fork(),
            make_strategy("min1-bypass", fix.instance.problem),
            50,
        )
    except StrategyModelError:
        refused = True
    report = solve(
        fix.instance,
        fix.oracle.fork(),
        make_strategy("min1-witness", fix.instance.problem),
        50,
    )
    ok = (
        refused
        and report.status is RunStatus.SOLVED
        and report.total <= 2 * fix.opt_value
    )
    record_criterion(
        5, ok, f"bypass refused off OP-P; witness used {report.total} <= 2*OPT={2 * fix.opt_value}"
    )
    assert ok


def test_criterion_6_cp_anomaly_and_lex_fix():
    failures = []
    detail = []
    for n in (3, 4, 5):
        plain = cp_anomaly_fixture(n)
        report = solve(
            plain.instance,
            plain.oracle.fork(),
            make_strategy("min1-witness", plain.instance.problem),
            default_budget(n),
        )
        if not (report.total == n and plain.opt_value == 1):
            failures.append(("plain", n, report.total))
        lex = cp_anomaly_fixture(n, TieRule.LEX)
        lex_report = solve(
            lex.instance,
            lex.oracle.fork(),
            make_strategy("min1-lex", lex.instance.problem),
            default_budget(n),
        )
        # OPT under the lex condition, brute-forced on the configuration the
        # adversary committed to.
        hidden = cp_anomaly_revealed_hidden(lex.oracle)
        oracle = GroundTruthOracle(ExactPolicy(), hidden, lex.instance.model.returns)
        opt_lex = opt_value(
            list(lex.instance.areas), oracle, _kmin_v(1, TieRule.LEX), n
        ).opt
        detail.append(f"n={n}: plain {report.total}/1, lex {lex_report.total}<=2*{opt_lex}")
        if opt_lex is None or lex_report.total > 2 * opt_lex:
            failures.append(("lex", n, lex_report.total, opt_lex))
    ok = not failures
    record_criterion(6, ok, "; ".join(detail))
    assert ok, failures


# The anomaly under ground-truth reveals with distinct hidden values and no
# adversary: an OCP-P kmax state where the stable witness pairs spend three
# queries against an optimum of one.
STABLE_CLOSED_ANOMALY = {
    "areas": [
        {"kind": "closed", "lo": "0", "hi": "1"},
        {"kind": "closed", "lo": "0", "hi": "1"},
        {"kind": "point", "value": "1"},
        {"kind": "closed", "lo": "0", "hi": "2"},
        {"kind": "point", "value": "2"},
    ],
    "hidden": ["0", "1/2", "1", "3/2", "2"],
    "model": {"input": "OCP", "returns": "P"},
    "problem": {"type": "kmin", "k": 5, "objective": "kmax", "tie_rule": "stable"},
}


@pytest.mark.parametrize("tie_rule, spent, opt", [("stable", 3, 1), ("lex", 3, 3)])
def test_stable_witness_pairs_exceed_twice_opt_on_closed_areas(
        tmp_path, capsys, tie_rule, spent, opt):
    """The 2·OPT claim of the witness-set solvers holds under lex, and under
    stable only on inputs without closed areas: here `solve` spends 3
    queries under both rules, and `opt` reports 1 under stable."""
    data = json.loads(json.dumps(STABLE_CLOSED_ANOMALY))
    data["problem"]["tie_rule"] = tie_rule
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--instance", str(path), "--algorithm", "kmin-witness",
                 "--oracle", "ground:exact"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["total"] == spent
    assert main(["opt", "--instance", str(path), "--oracle", "ground:exact"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["opt"] == opt


def _check_trace_witnesses(trace, oracle, verifier, max_total):
    """Every recorded witness set must intersect every minimal solution of the
    state it was emitted at; returns (violations, solved_states).  The
    ground-truth oracles answer whatever the query count, so each state is
    searched from counts of 0."""
    bad = 0
    nonempty = 0
    for witness, areas_snap in trace:
        areas = list(areas_snap)
        if opt_value(areas, oracle, verifier, max_total).opt is not None:
            nonempty += 1
        if not witness_meets_every_solution(witness, areas, oracle, verifier, max_total):
            bad += 1
    return bad, nonempty


def test_criterion_7_witness_validity():
    strategies = ("min1-witness", "kmin-witness", "min1-lex")
    bad = 0
    states = 0
    solvable_states = 0
    for seed in range(300):
        n = 3 + seed % 4  # 3..6
        name = strategies[seed % 3]
        k = 2 if name == "kmin-witness" else 1
        tie = TieRule.LEX if name.endswith("-lex") else TieRule.STABLE
        inst = generate_instance(
            GenParams(n=n, model=OPP, k=k, tie_rule=tie, point_fraction=0.2, overlap=0.7),
            20_000 + seed,
        )
        verifier = _kmin_v(k, tie)
        strategy = make_strategy(name, inst.problem)
        # Exact responses under point returns.
        exact = _exact(inst)
        _report, trace = recorded_solve(inst, exact.fork(), strategy, default_budget(n))
        b, s = _check_trace_witnesses(trace, exact, verifier, n)
        bad += b
        states += len(trace)
        solvable_states += s
        # Interval responses over the same hidden configuration.
        halve_inst = UncertainInstance(
            model=ModelSpec.parse("OP-O"),
            areas=inst.areas,
            problem=inst.problem,
            hidden=inst.hidden,
        )
        halve = GroundTruthOracle.for_instance(halve_inst, HalvePolicy(Fraction(1, 2)))
        _report, trace = recorded_solve(halve_inst, halve.fork(), strategy, default_budget(n))
        b, s = _check_trace_witnesses(trace, halve, verifier, 10)
        bad += b
        states += len(trace)
        solvable_states += s
    ok = bad == 0 and solvable_states > states // 2
    record_criterion(
        7, ok, f"300 instances, {states} witness states checked "
        f"({solvable_states} with solutions in budget), {bad} violations"
    )
    assert ok


def test_criterion_8_competitiveness_and_decrement():
    failures = []
    worst = 0.0
    for seed in range(200):
        n = 3 + seed % 5  # 3..7
        inst = generate_instance(
            GenParams(n=n, model=OPP, k=min(2, n), point_fraction=0.2, overlap=0.7),
            30_000 + seed,
        )
        oracle = _exact(inst)
        for name, k, tie in (
            ("min1-witness", 1, TieRule.STABLE),
            ("kmin-witness", min(2, n), TieRule.STABLE),
            ("min1-lex", 1, TieRule.LEX),
        ):
            problem = SelectionProblem(k=k, tie_rule=tie)
            run_inst = UncertainInstance(
                model=inst.model, areas=inst.areas, problem=problem, hidden=inst.hidden
            )
            report = solve(
                run_inst, oracle.fork(), make_strategy(name, problem), default_budget(n)
            )
            opt = opt_value(list(inst.areas), oracle, _kmin_v(k, tie), n).opt
            bound = 2 * opt if opt else 0
            worst = max(worst, report.total / max(opt, 1))
            if report.total > bound:
                failures.append((name, seed, report.total, opt))
        # Decrement property: one query into any optimal solution reduces the
        # optimum by exactly one.
        verifier = _kmin_v(1)
        res = opt_value(list(inst.areas), oracle, verifier, n)
        if res.opt and res.vector:
            i = min(res.vector)
            refined = list(inst.areas)
            refined[i] = oracle.respond(i, 1, refined[i])  # a point: its chain has ended
            after = opt_value(refined, oracle, verifier, n).opt
            if after != res.opt - 1:
                failures.append(("decrement", seed, res.opt, after))
    ok = not failures
    record_criterion(
        8, ok, f"200 instances x 3 witness strategies: max ratio {worst:.2f} <= 2; "
        "optimal-index decrement exact"
    )
    assert ok, failures[:5]


def _brute_mst_weight(instance):
    g = instance.problem
    best = None
    for comb in combinations(range(g.n_edges), g.vertices - 1):
        if reference_is_connected(g.vertices, g.edges, comb):
            w = sum(instance.hidden[e] for e in comb)
            best = w if best is None or w < best else best
    return best


def test_criterion_9_uncertain_mst():
    failures = []
    worst = 0.0
    for seed in range(200):
        v = 4 + seed % 3  # 4..6
        extra = seed % (10 - v)  # keeps total edges <= 9
        inst = generate_graph_instance(
            GraphGenParams(vertices=v, extra_edges=extra, model=ModelSpec.parse("OC-OC")),
            40_000 + seed,
        )
        oracle = GroundTruthOracle.for_instance(inst, HalvePolicy(Fraction(1, 2)))
        report, answer = umst_solve(inst, oracle.fork(), 4000)
        if report.status is not RunStatus.SOLVED:
            failures.append(("unsolved", seed))
            continue
        opt = opt_value(list(inst.areas), oracle, mst_verifier(inst.problem), 14).opt
        bound = 2 * opt if opt else 0
        worst = max(worst, report.total / max(opt or 0, 1))
        if opt is None or report.total > bound:
            failures.append(("bound", seed, report.total, opt))
        if sum(inst.hidden[e] for e in answer.tree) != _brute_mst_weight(inst):
            failures.append(("weight", seed))
    # Red-rule-only: pairwise surely-ordered weights solve with zero queries.
    zero_failures = []
    for seed in range(20):
        topo = generate_graph_instance(
            GraphGenParams(vertices=5, extra_edges=3, model=ModelSpec.parse("OC-OC")),
            50_000 + seed,
        )
        spaced = tuple(Area.closed(3 * e, 3 * e + 1) for e in range(topo.problem.n_edges))
        inst = UncertainInstance(
            model=topo.model,
            areas=spaced,
            problem=topo.problem,
            hidden=tuple(Fraction(6 * e + 1, 2) for e in range(topo.problem.n_edges)),
        )
        oracle = GroundTruthOracle.for_instance(inst, HalvePolicy(Fraction(1, 2)))
        report, answer = umst_solve(inst, oracle, 100)
        if report.total != 0 or answer is None:
            zero_failures.append(seed)
    ok = not failures and not zero_failures
    record_criterion(
        9, ok, f"200 graphs: max ratio {worst:.2f} <= 2, tree weights exact; "
        f"{20 - len(zero_failures)}/20 red-rule-only graphs at 0 queries"
    )
    assert ok, (failures[:5], zero_failures)


def test_criterion_10_order_invariance():
    rng = random.Random("affine-maps")
    failures = []
    for seed in range(100):
        n = 3 + seed % 4
        inst = generate_instance(
            GenParams(n=n, model=ModelSpec.parse("O-O"), overlap=0.7), 60_000 + seed
        )
        oracle = GroundTruthOracle.for_instance(inst, HalvePolicy(Fraction(1, 2)))
        strategy = make_strategy("min1-witness", inst.problem)
        base_report, base_trace = recorded_solve(
            inst, oracle.fork(), strategy, default_budget(n)
        )
        base_indices = [i for i, _ in base_report.query_log]
        base_verdict = kmin_verifier(list(inst.areas), 1)
        base_witnesses = [w for w, _ in base_trace]
        for _ in range(10):
            m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            mapped_areas = tuple(affine_map_area(a, m, b) for a in inst.areas)
            mapped = UncertainInstance(
                model=inst.model,
                areas=mapped_areas,
                problem=inst.problem,
                hidden=tuple(m * h + b for h in inst.hidden),
            )
            if kmin_verifier(list(mapped_areas), 1) != base_verdict:
                failures.append((seed, "verifier", str(m), str(b)))
                continue
            m_oracle = GroundTruthOracle.for_instance(mapped, HalvePolicy(Fraction(1, 2)))
            m_report, m_trace = recorded_solve(mapped, m_oracle, strategy, default_budget(n))
            if [i for i, _ in m_report.query_log] != base_indices:
                failures.append((seed, "queries", str(m), str(b)))
            if [w for w, _ in m_trace] != base_witnesses:
                failures.append((seed, "witnesses", str(m), str(b)))
    ok = not failures
    record_criterion(
        10, ok, "100 instances x 10 affine maps: verifier verdicts, witness sets "
        "and query sequences unchanged"
    )
    assert ok, failures[:5]


def test_criterion_11_determinism_and_io():
    def cfg():
        return ExperimentConfig(
            algorithm="min1-witness",
            model=OPP,
            oracle="ground:exact",
            trials=10,
            seed=42,
            n=5,
            point_fraction=0.2,
        )

    rec_a, _, _ = compete(cfg())
    rec_b, _, _ = compete(cfg())
    reports_ok = (
        report_emit(rec_a, "csv") == report_emit(rec_b, "csv")
        and report_emit(rec_a, "json") == report_emit(rec_b, "json")
    )
    round_trips_ok = True
    for seed in range(10):
        inst = generate_instance(GenParams(n=5, model=OPP, point_fraction=0.3), seed)
        text = dump_json(instance_to_json(inst))
        again = instance_from_json(json.loads(text))
        if again != inst or dump_json(instance_to_json(again)) != text:
            round_trips_ok = False
        graph = generate_graph_instance(
            GraphGenParams(vertices=4, extra_edges=2, model=ModelSpec.parse("OC-OC")), seed
        )
        gtext = dump_json(instance_to_json(graph))
        if instance_from_json(json.loads(gtext)) != graph:
            round_trips_ok = False
    ok = reports_ok and round_trips_ok
    record_criterion(11, ok, "byte-identical reports; bit-exact instance JSON round-trips")
    assert ok
