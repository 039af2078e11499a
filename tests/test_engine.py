"""The solve loop: termination, budget handling, alternation, determinism."""
from fractions import Fraction

import pytest

from uncquery.core import Area, TieRule
from uncquery.engine import (
    EngineError,
    OracleResponseError,
    RunStatus,
    SolverStrategy,
    default_budget,
    solve,
)
from uncquery.models import ModelSpec, UncertainInstance
from uncquery.oracles import GroundTruthOracle, ScriptedOracle, min_tight_fixture
from uncquery.selection import AlternatingWitness, SelectionProblem, make_strategy


def _instance(model, areas, hidden=None, k=1, tie=TieRule.STABLE):
    return UncertainInstance(
        model=ModelSpec.parse(model),
        areas=tuple(areas),
        problem=SelectionProblem(k=k, tie_rule=tie),
        hidden=hidden,
    )


class TestSolve:
    def test_already_resolved_zero_queries(self):
        inst = _instance("O-O", [Area.open(2, 5), Area.open(6, 8), Area.open(9, 11)])
        strategy = make_strategy("min1-witness", inst.problem)
        report = solve(inst, ScriptedOracle({}), strategy, 10)
        assert report.status is RunStatus.SOLVED
        assert report.answer == 0 and report.total == 0

    def test_single_scripted_query_resolves(self):
        # One response [8,10] on the first area settles the minimum: the loop
        # re-verifies before the second witness member, so only 1 query lands.
        inst = _instance(
            "C-C",
            [Area.closed(3, 17), Area.closed(14, 19), Area.closed(15, 20)],
            tie=TieRule.LEX,
        )
        oracle = ScriptedOracle({0: [Area.closed(8, 10)]})
        strategy = make_strategy("min1-lex", inst.problem)
        report = solve(inst, oracle, strategy, 10)
        assert report.status is RunStatus.SOLVED
        assert report.answer == 0
        assert report.total == 1

    def test_min_tight_replay(self):
        fix = min_tight_fixture(3)
        strategy = make_strategy("min1-witness", fix.instance.problem)
        report = solve(fix.instance, fix.fresh_oracle(), strategy, 100)
        assert report.status is RunStatus.SOLVED and report.total == 6

    def test_budget_exceeded(self):
        fix = min_tight_fixture(3)
        strategy = make_strategy("min1-witness", fix.instance.problem)
        report = solve(fix.instance, fix.fresh_oracle(), strategy, 4)
        assert report.status is RunStatus.BUDGET_EXCEEDED
        assert report.answer is None and report.total == 4

    def test_counts_match_log(self):
        fix = min_tight_fixture(2)
        strategy = make_strategy("min1-witness", fix.instance.problem)
        report = solve(fix.instance, fix.fresh_oracle(), strategy, 100)
        assert sum(report.counts.values()) == report.total == len(report.query_log)

    def test_invalid_instance_rejected(self):
        inst = _instance("O-O", [Area.closed(1, 3)])
        strategy = make_strategy("min1-witness", inst.problem)
        with pytest.raises(EngineError):
            solve(inst, ScriptedOracle({}), strategy, 10)

    def test_invalid_oracle_response_rejected(self):
        inst = _instance("O-O", [Area.open(0, 4), Area.open(1, 5)])
        oracle = ScriptedOracle({0: [Area.open(6, 7)]})  # not contained
        strategy = make_strategy("min1-witness", inst.problem)
        with pytest.raises(OracleResponseError):
            solve(inst, oracle, strategy, 10)

    def test_bad_budget_rejected(self):
        inst = _instance("O-O", [Area.open(0, 4)])
        strategy = make_strategy("min1-witness", inst.problem)
        with pytest.raises(ValueError):
            solve(inst, ScriptedOracle({}), strategy, 0)

    def test_witness_naming_point_rejected(self):
        inst = _instance("OP-P", [Area.point(1), Area.open(0, 4), Area.open(1, 5)])
        bad = SolverStrategy(
            name="bad",
            verifier=lambda areas: None,
            witness=lambda areas: [0],
        )
        with pytest.raises(EngineError):
            solve(inst, ScriptedOracle({}), bad, 10)

    def test_oversized_witness_rejected(self):
        inst = _instance("O-O", [Area.open(0, 4), Area.open(1, 5), Area.open(2, 6)])
        bad = SolverStrategy(
            name="bad",
            verifier=lambda areas: None,
            witness=lambda areas: [0, 1, 2],
            k_bound=2,
        )
        with pytest.raises(EngineError):
            solve(inst, ScriptedOracle({}), bad, 10)

    def test_determinism(self):
        inst = _instance(
            "O-O",
            [Area.open(0, 4), Area.open(1, 5), Area.open(2, 6)],
            hidden=(Fraction(2), Fraction(3), Fraction(4)),
        )
        oracle = GroundTruthOracle.for_instance(inst)
        strategy = make_strategy("min1-witness", inst.problem)
        r1 = solve(inst, oracle.fork(), strategy, 200)
        r2 = solve(inst, oracle.fork(), strategy, 200)
        assert r1.to_json() == r2.to_json()

    def test_run_report_json_one_based(self):
        inst = _instance(
            "OP-P",
            [Area.open(0, 4), Area.open(1, 5)],
            hidden=(Fraction(1), Fraction(3)),
        )
        oracle = GroundTruthOracle.for_instance(inst)
        strategy = make_strategy("min1-witness", inst.problem)
        payload = solve(inst, oracle, strategy, 50).to_json()
        assert payload["answer"] == 1
        assert all(int(k) >= 1 for k in payload["counts"])
        assert payload["total"] == sum(payload["counts"].values())


class TestAlternate:
    def test_a_first_then_b(self):
        calls = []

        def make(tag, pick):
            return SolverStrategy(
                name=tag,
                verifier=lambda areas: None if len(calls) < 3 else 0,
                witness=lambda areas: (calls.append(tag), pick)[1],
            )

        inst = _instance("O-O", [Area.open(0, 4), Area.open(1, 5)])
        a = make("A", [0])
        b = make("B", [1])
        combined = SolverStrategy("A|B", a.verifier, AlternatingWitness(a.witness, b.witness))
        oracle = ScriptedOracle(
            {0: [Area.open(1, 4), Area.open(2, 4)], 1: [Area.open(2, 5)]}
        )
        solve(inst, oracle, combined, 10)
        assert calls == ["A", "B", "A"]

    def test_reset_between_runs(self):
        fix = min_tight_fixture(2)
        strategy = make_strategy("opop-alternate", fix.instance.problem)
        # opop-alternate refuses the O-O model; build an OP-OP twin instead.
        inst = _instance(
            "OP-OP", list(fix.instance.areas), k=1
        )
        r1 = solve(inst, fix.fresh_oracle(), strategy, 100)
        r2 = solve(inst, fix.fresh_oracle(), strategy, 100)
        assert r1.to_json() == r2.to_json()


def test_alternation_bound_on_opop_instances():
    from uncquery.harness import GenParams, generate_instance
    from uncquery.optbrute import opt_value
    from uncquery.selection import kmin_verifier

    for seed in range(40):
        n = 3 + seed % 5
        k = 1 + seed % 2
        inst = generate_instance(
            GenParams(n=n, model=ModelSpec.parse("OP-OP"), k=k, point_fraction=0.25),
            seed,
        )
        oracle = GroundTruthOracle.for_instance(inst)
        strategy = make_strategy("opop-alternate", inst.problem)
        report = solve(inst, oracle.fork(), strategy, default_budget(n))
        assert report.status is RunStatus.SOLVED
        opt = opt_value(
            list(inst.areas), oracle, lambda a: kmin_verifier(a, k), n
        ).opt
        assert report.total <= 2 * (opt + k), (seed, report.total, opt, k)


def test_default_budget_scales_with_n():
    assert default_budget(3) == 192
