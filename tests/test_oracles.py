"""Ground-truth refinement policies, scripted replay, and the adversaries."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cp_anomaly_opt_script, cp_anomaly_revealed_hidden, min_tight_opt_script,
    reference_halve_window,
)
from uncquery.core import Area, TieRule
from uncquery.models import ModelSpec, TypeSet
from uncquery.oracles import (
    CpAnomalyAdversary,
    ExactPolicy,
    GroundTruthOracle,
    HalvePolicy,
    KMinPointAdversary,
    MinTightAdversary,
    OpoCounterOracle,
    Oracle,
    OracleError,
    ScriptedOracle,
    _halve_window,
    cp_anomaly_fixture,
    ground_truth_respond,
    kmin_point_fixture,
    min_tight_fixture,
    opo_counterexample_fixture,
)
from uncquery.selection import kmin_verifier


class TestGroundTruthRespond:
    def test_exact_reveals_point(self):
        out = ground_truth_respond(
            ExactPolicy(), Fraction(3), Area.open(2, 6), TypeSet.parse("P")
        )
        assert out == Area.point(3)

    def test_halve_centered(self):
        out = ground_truth_respond(
            HalvePolicy(Fraction(1, 2)), Fraction(3), Area.open(0, 10), TypeSet.parse("O")
        )
        assert out == Area.open(Fraction(1, 2), Fraction(11, 2))

    def test_halve_clipped_with_nudge(self):
        out = ground_truth_respond(
            HalvePolicy(Fraction(1, 2)),
            Fraction(1, 2),
            Area.open(0, 10),
            TypeSet.parse("O"),
        )
        assert out == Area.open(Fraction(1, 20), 5 + Fraction(1, 20))

    def test_hidden_outside_rejected(self):
        with pytest.raises(OracleError):
            ground_truth_respond(
                ExactPolicy(), Fraction(7), Area.open(2, 6), TypeSet.parse("P")
            )

    def test_point_current_rejected(self):
        with pytest.raises(OracleError):
            ground_truth_respond(
                ExactPolicy(), Fraction(3), Area.point(3), TypeSet.parse("P")
            )

    def test_exact_needs_point_returns(self):
        with pytest.raises(OracleError, match="exact responses need P in the return type set"):
            ground_truth_respond(
                ExactPolicy(), Fraction(3), Area.open(2, 6), TypeSet.parse("O")
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(OracleError, match="unknown refinement policy"):
            ground_truth_respond(object(), Fraction(3), Area.open(2, 6), TypeSet.parse("O"))

    def test_point_only_returns_force_point(self):
        out = ground_truth_respond(
            HalvePolicy(Fraction(1, 2)), Fraction(3), Area.open(0, 10), TypeSet.parse("P")
        )
        assert out == Area.point(3)

    def test_closed_fallback_when_hidden_on_boundary(self):
        # Hidden at the closed lower endpoint: the window shares that endpoint,
        # so an open response is impossible and a closed one is returned.
        out = ground_truth_respond(
            HalvePolicy(Fraction(1, 2)),
            Fraction(0),
            Area.closed(0, 10),
            TypeSet.parse("OC"),
        )
        assert out.contains_value(0) and out.length == 5

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
        st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)),
    )
    def test_halve_always_contains_hidden(self, rel, shrink):
        cur = Area.open(0, 10)
        hidden = cur.lo + cur.length * rel
        out = ground_truth_respond(
            HalvePolicy(shrink), hidden, cur, TypeSet.parse("O")
        )
        assert out.contains_value(hidden)
        assert out.length == cur.length * shrink
        from uncquery.core import contains

        assert contains(cur, out)

    def test_shrink_out_of_range(self):
        with pytest.raises(ValueError):
            HalvePolicy(Fraction(3, 2))


class TestGroundTruthOracle:
    def test_for_instance_picks_exact_under_point_returns(self):
        fix = kmin_point_fixture(2)
        oracle = GroundTruthOracle.for_instance(_with_hidden(fix.instance, (1, 1, 3, 3)))
        assert isinstance(oracle.policy, ExactPolicy)

    def test_update_independent_across_interleavings(self):
        from uncquery.models import UncertainInstance
        from uncquery.selection import SelectionProblem

        inst = UncertainInstance(
            model=ModelSpec.parse("O-O"),
            areas=(Area.open(0, 8), Area.open(1, 9)),
            problem=SelectionProblem(k=1),
            hidden=(Fraction(3), Fraction(5)),
        )
        oracle = GroundTruthOracle.for_instance(inst, HalvePolicy(Fraction(1, 2)))
        # Sequence A: i0,i0,i1 ; Sequence B: i0,i1,i0 — per-index chains match.
        a = oracle.fork()
        a1 = a.respond(0, 1, inst.areas[0])
        a2 = a.respond(0, 2, a1)
        a3 = a.respond(1, 1, inst.areas[1])
        b = oracle.fork()
        b1 = b.respond(0, 1, inst.areas[0])
        b3 = b.respond(1, 1, inst.areas[1])
        b2 = b.respond(0, 2, b1)
        assert (a1, a2, a3) == (b1, b2, b3)

    def test_fork_answers_like_the_original(self):
        """The shallow fork and the original, queried in turns on their own
        states, give the same response to every query, and the original stays
        usable after the fork is made."""
        areas = (Area.open(0, 8), Area.closed(1, 9), Area.open(2, 4))
        hidden = (Fraction(3), Fraction(9), Fraction(7, 2))
        for policy in (HalvePolicy(Fraction(1, 2)), HalvePolicy(Fraction(1, 3))):
            oracle = GroundTruthOracle(policy, hidden, ModelSpec.parse("OC-OC").returns)
            fork = oracle.fork()
            assert type(fork) is GroundTruthOracle and fork is not oracle
            mine, theirs = list(areas), list(areas)
            counts = [0, 0, 0]
            for step, index in enumerate((0, 2, 0, 1, 1, 2, 0, 1, 2, 2)):
                counts[index] += 1
                first, second = (oracle, fork) if step % 2 else (fork, oracle)
                mine[index] = first.respond(index, counts[index], mine[index])
                theirs[index] = second.respond(index, counts[index], theirs[index])
                assert mine[index] == theirs[index]
            assert oracle.respond(0, 1, areas[0]) == fork.respond(0, 1, areas[0])


# Pairwise coprime denominators, and two that share factors with them, so the
# window's common denominator meets every mix of factors.
COPRIME_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 97, 1024, 2**61 - 1, 6, 1000)


@st.composite
def halving_cases(draw):
    """An open or closed area, a hidden value strictly inside it or at an
    endpoint it attains, and a shrink in (0, 1)."""
    den = st.sampled_from(COPRIME_DENOMINATORS)
    lo = Fraction(draw(st.integers(-10**6, 10**6)), draw(den))
    hi = lo + Fraction(draw(st.integers(1, 10**6)), draw(den))
    area = Area(lo, hi, draw(st.booleans()))
    where = draw(st.sampled_from(["inside", "lo", "hi"]))
    if where == "lo" and area.attains:
        hidden = lo
    elif where == "hi" and area.attains:
        hidden = hi
    else:
        q = draw(den) + 1
        hidden = lo + (hi - lo) * Fraction(draw(st.integers(1, q - 1)), q)
    q = draw(st.sampled_from((2, 3, 7, 100, 1000, 2**31 - 1, 10**9 + 7)))
    return hidden, area, Fraction(draw(st.integers(1, q - 1)), q)


def _ratios(window):
    """A Fraction window (lo, hi) as the `Area.ratios` `_halve_window` returns."""
    lo, hi = window
    return lo.as_integer_ratio() + hi.as_integer_ratio()


@settings(max_examples=500, deadline=None)
@given(halving_cases())
def test_halve_window_equals_the_fraction_formula(case):
    assert _halve_window(*case) == _ratios(reference_halve_window(*case))


def test_halve_window_nudges_off_each_shared_endpoint():
    # Centered, clipped at lo with hidden inside, clipped at lo with hidden on
    # it (no nudge), and the same at hi: every branch of the formula.
    area = Area.closed(0, 1)
    for hidden in (Fraction(1, 2), Fraction(1, 100), Fraction(0), Fraction(99, 100), Fraction(1)):
        for shrink in (Fraction(1, 2), Fraction(1, 3), Fraction(999, 1000)):
            assert _halve_window(hidden, area, shrink) == _ratios(
                reference_halve_window(hidden, area, shrink))
    # [-1/4, 1/4] + 1/4 is clipped at 0, then nudged by half the gap, 1/200.
    assert _halve_window(Fraction(1, 100), area, Fraction(1, 2)) == (1, 200, 101, 200)


def _with_hidden(instance, hidden):
    from dataclasses import replace

    return replace(instance, hidden=tuple(Fraction(h) for h in hidden))


class TestScriptedOracle:
    def test_replay_and_exhaustion(self):
        oracle = ScriptedOracle({0: [Area.open(1, 2)]})
        assert oracle.respond(0, 1, Area.open(0, 3)) == Area.open(1, 2)
        with pytest.raises(OracleError):
            oracle.respond(0, 2, Area.open(1, 2))
        with pytest.raises(OracleError):
            oracle.respond(1, 1, Area.open(0, 3))

    def test_from_json_one_based_keys(self):
        oracle = ScriptedOracle.from_json(
            {"responses": {"1": [{"kind": "closed", "lo": "8", "hi": "10"}]}}
        )
        assert oracle.respond(0, 1, Area.closed(3, 17)) == Area.closed(8, 10)

    def test_fork_resets_nothing_shared(self):
        oracle = ScriptedOracle({0: [Area.open(1, 2)]})
        fork = oracle.fork()
        assert fork.respond(0, 1, Area.open(0, 3)) == Area.open(1, 2)
        assert oracle.respond(0, 1, Area.open(0, 3)) == Area.open(1, 2)


def test_base_oracle_has_no_responses():
    with pytest.raises(NotImplementedError):
        Oracle().respond(0, 1, Area.open(0, 1))


@pytest.mark.parametrize("adversary", [MinTightAdversary, KMinPointAdversary, CpAnomalyAdversary])
def test_adversary_refuses_a_size_below_one(adversary):
    # The library boundary; the CLI refuses these sizes in harness._build_fixture.
    with pytest.raises(ValueError, match="must be positive"):
        adversary(0)


class TestMinTightAdversary:
    def test_first_wide_query(self):
        adv = MinTightAdversary(3)
        out = adv.respond(0, 1, Area.open(1, 5))
        assert out == Area.open(1 + Fraction(1, 12), 5)

    def test_first_narrow_query(self):
        adv = MinTightAdversary(3)
        assert adv.respond(2, 1, Area.open(3, 7)) == Area.open(6, 7)

    def test_narrow_area_queried_again_shrinks_from_below(self):
        adv = MinTightAdversary(3)
        first = adv.respond(1, 1, Area.open(3, 7))
        assert first == Area.open(6, 7)
        assert adv.respond(1, 2, first) == Area.open(Fraction(25, 4), 7)
        assert adv.s_seen == [1] and adv.case is None

    def test_case2_trigger_on_last_distinct_narrow(self):
        adv = MinTightAdversary(3)
        adv.respond(1, 1, Area.open(3, 7))
        adv.respond(2, 1, Area.open(3, 7))
        out = adv.respond(3, 1, Area.open(3, 7))
        assert out == Area.open(3, 4)
        assert adv.case == 2

    def test_case1_trigger_on_nth_wide_query(self):
        adv = MinTightAdversary(2)
        adv.respond(0, 1, Area.open(1, 5))
        adv.respond(0, 2, Area.open(1 + Fraction(1, 8), 5))
        assert adv.case == 1

    def test_opt_scripts_resolve_in_n_queries(self):
        for case, a0_last in ((1, False), (2, True)):
            n = 3
            fix = min_tight_fixture(n, a0_last=a0_last)
            adv = fix.oracle
            script = min_tight_opt_script(adv, case)
            areas = list(fix.instance.areas)
            total = 0
            if case == 1:
                for i in range(len(areas)):
                    if i == adv.a0_index:
                        continue
                    areas[i] = script.respond(i, 1, areas[i])
                    total += 1
            else:
                for c in range(1, n + 1):
                    areas[adv.a0_index] = script.respond(adv.a0_index, c, areas[adv.a0_index])
                    total += 1
            assert total == n == fix.opt_value
            assert kmin_verifier(areas, 1) is not None

    def test_opt_script_has_two_cases(self):
        with pytest.raises(ValueError, match="case must be 1 or 2"):
            min_tight_opt_script(min_tight_fixture(2).oracle, 3)


class TestKMinPointAdversary:
    def test_first_and_kth_interval_queries(self):
        adv = KMinPointAdversary(3)
        assert adv.respond(0, 1, Area.open(0, 5)) == Area.point(1)
        assert adv.respond(1, 1, Area.open(0, 5)) == Area.point(1)
        assert adv.respond(2, 1, Area.open(0, 5)) == Area.point(4)


class TestCpAnomalyAdversary:
    def test_reveal_sequence(self):
        adv = CpAnomalyAdversary(4)
        assert adv.respond(0, 1, Area.closed(1, 3)) == Area.point(2)
        assert adv.respond(1, 1, Area.closed(1, 3)) == Area.point(2)
        assert adv.respond(2, 1, Area.closed(1, 3)) == Area.point(2)
        assert adv.respond(3, 1, Area.closed(1, 3)) == Area.point(1)

    def test_opt_script_designated_index(self):
        adv = CpAnomalyAdversary(4)
        script = cp_anomaly_opt_script(adv)
        assert script.respond(3, 1, Area.closed(1, 3)) == Area.point(1)

    def test_revealed_hidden_consistency(self):
        adv = CpAnomalyAdversary(3)
        hidden = cp_anomaly_revealed_hidden(adv)
        assert hidden == (Fraction(2), Fraction(2), Fraction(1))


class TestOpoCounterOracle:
    def test_low_interval_never_separates(self):
        oracle = OpoCounterOracle()
        assert oracle.respond(0, 1, Area.open(2, 20)) == Area.open(
            19 - Fraction(1, 2), 20
        )

    def test_high_interval_resolves(self):
        oracle = OpoCounterOracle()
        assert oracle.respond(1, 1, Area.open(19, 21)) == Area.open(Fraction(41, 2), 21)


class TestFixtures:
    def test_min_tight_shape(self):
        fix = min_tight_fixture(3)
        assert len(fix.instance.areas) == 4 and fix.opt_value == 3

    def test_kmin_point_shape(self):
        fix = kmin_point_fixture(2)
        assert len(fix.instance.areas) == 4 and fix.opt_value == 1
        assert sum(a.is_point for a in fix.instance.areas) == 2

    def test_cp_anomaly_shape(self):
        fix = cp_anomaly_fixture(3, TieRule.LEX)
        assert fix.instance.problem.tie_rule is TieRule.LEX

    def test_opo_shape(self):
        fix = opo_counterexample_fixture()
        assert fix.instance.areas == (Area.open(2, 20), Area.open(19, 21))

    def test_fresh_oracle_isolation(self):
        fix = min_tight_fixture(2)
        a = fix.oracle.fork()
        a.respond(0, 1, Area.open(1, 5))
        b = fix.oracle.fork()
        assert b.a0_queries == 0
