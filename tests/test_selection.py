"""Selection verifiers and witness choosers, checked against exhaustive
realization sampling and the frozen step-through examples."""
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    grid_vectors,
    kth_min_valid,
    logged_run,
    mirror,
    realizations,
    reference_kmin_bypass_witness,
    reference_kmin_verifier,
    reference_kmin_witness,
    reference_min1_witness,
    reference_order_l,
    reference_order_u,
    reference_surely_before,
    refinement_runs,
    verifier_answer_sound,
    witness_meets_every_solution,
)
from uncquery.core import Area, TieRule, VectorState
from uncquery.engine import solve
from uncquery.harness import GenParams, build_oracle, generate_instance
from uncquery.models import ModelSpec, TypeSet
from uncquery.oracles import ExactPolicy, GroundTruthOracle
from uncquery.selection import (
    STRATEGY_NAMES,
    Objective,
    SelectionProblem,
    kmin_bypass_witness,
    kmin_verifier,
    kmin_witness,
    make_strategy,
    min1_bypass_witness,
    min1_witness,
)


def O(lo, hi):
    return Area.open(lo, hi)


def C(lo, hi):
    return Area.closed(lo, hi)


class TestMin1Verifier:
    def test_resolved_instance(self):
        assert kmin_verifier([O(2, 5), O(6, 8), O(9, 11)], 1) == 0

    def test_unresolved_instance(self):
        assert kmin_verifier([O(2, 6), O(5, 8), O(9, 11)], 1) is None

    def test_lex_point_before_closed_tie(self):
        # A revealed point at the shared lower bound wins on index.
        assert (
            kmin_verifier([Area.point(1), C(1, 3)], 1, TieRule.LEX) == 0
        )

    def test_lex_unrevealed_smaller_index_blocks(self):
        assert kmin_verifier([C(1, 3), Area.point(1)], 1, TieRule.LEX) is None

    def test_stable_touching_closed_resolves(self):
        assert kmin_verifier([C(1, 3), C(3, 5)], 1) == 0


class TestKminVerifier:
    def test_disjoint_chain(self):
        assert kmin_verifier([O(1, 2), O(3, 4), O(5, 6)], 2) == 1

    def test_rank_swap_unresolved(self):
        assert kmin_verifier([O(1, 4), O(2, 5), O(6, 9)], 2) is None

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kmin_verifier([O(1, 2)], 2)

    def test_state_of_the_other_tie_rule_refused(self):
        areas = [C(5, 10), C(0, 5)]
        lex = VectorState(TieRule.LEX).update(areas)
        stable = VectorState(TieRule.STABLE).update(areas)
        with pytest.raises(ValueError, match="state ordered by"):
            kmin_verifier(lex, 2, TieRule.STABLE)
        with pytest.raises(ValueError, match="state ordered by"):
            kmin_witness(stable, 2, TieRule.LEX)
        with pytest.raises(ValueError, match="state ordered by"):
            kmin_bypass_witness(lex, 1)

    def test_lex_prefix_touching_a_larger_index_blocks(self):
        # Area 1 closes at 5, where the answer candidate 0 opens, and comes
        # after it by index: lex needs a strict separation there, so only the
        # stable rule can answer.
        areas = [C(5, 10), C(0, 5)]
        assert kmin_verifier(areas, 2, TieRule.LEX) is None
        assert kmin_verifier(areas, 2, TieRule.STABLE) == 0


class TestMin1Witness:
    def test_two_heads_by_lo(self):
        assert min1_witness([O(2, 6), O(5, 8), O(9, 11)]) == [0, 1]
        assert min1_witness([O(3, 17), O(14, 19), O(15, 20)]) == [0, 1]

    def test_skips_point_head(self):
        assert min1_witness([Area.point(3), O(0, 5)]) == [1]

    def test_all_points_rejected(self):
        with pytest.raises(ValueError):
            min1_witness([Area.point(1), Area.point(2)])


class TestKminWitness:
    def test_unseparated_prefix(self):
        assert kmin_witness([O(1, 4), O(2, 5), O(6, 9)], 2) == [1, 0]

    def test_separated_prefix_reduces_to_min1(self):
        assert kmin_witness([O(1, 2), O(3, 6), O(4, 7)], 2) == [1, 2]

    def test_k1_equals_min1(self):
        vec = [O(2, 6), O(5, 8), O(9, 11)]
        assert kmin_witness(vec, 1) == min1_witness(vec)

    def test_lex_prefix_touching_a_larger_index_is_not_separated(self):
        # The verifier's lex block (TestKminVerifier) holds for the chooser
        # too: the prefix {1} is not surely below 0, so the pair is (pk, q1),
        # or q1 alone beside a point pk, and not the heads of the tail.
        assert kmin_witness([C(5, 10), C(0, 5)], 2, TieRule.LEX) == [0, 1]
        assert kmin_witness([Area.point(5), C(0, 5)], 2, TieRule.LEX) == [1]
        assert kmin_witness([C(5, 10), C(0, 5)], 2, TieRule.STABLE) == [0]


class TestBypassWitnesses:
    def test_min1_head(self):
        assert min1_bypass_witness([O(1, 5), O(3, 7)]) == [0]

    def test_kmin_unseparated_max_u(self):
        assert kmin_bypass_witness([O(1, 6), O(2, 4), O(7, 9)], 2) == [0]

    def test_kmin_separated_max_within_prefix(self):
        assert kmin_bypass_witness([O(0, 1), O(2, 4), O(7, 9)], 2) == [1]


class TestMirror:
    def test_max1_via_mirror(self):
        problem = SelectionProblem(k=1, objective=Objective.KTH_MAX)
        strategy = make_strategy("min1-witness", problem)
        assert strategy.verifier([O(1, 3), O(4, 6)]) == 1


class TestStrategyRegistry:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_strategy("nope", SelectionProblem(k=1))

    def test_min1_requires_k1(self):
        with pytest.raises(ValueError):
            make_strategy("min1-witness", SelectionProblem(k=2))

    def test_lex_names_force_lex_tie(self):
        # With the candidate at the larger index, a tie at 3 means the
        # smaller-index competitor could claim the answer: lex needs strict
        # separation where stable does not.
        s = make_strategy("min1-lex", SelectionProblem(k=1, tie_rule=TieRule.STABLE))
        vec = [C(3, 5), C(1, 3)]
        assert s.verifier(vec) is None
        stable = make_strategy("min1-witness", SelectionProblem(k=1))
        assert stable.verifier(vec) == 1

    def test_bypass_model_check(self):
        from uncquery.models import ModelCategory

        for name in ("min1-bypass", "kmin-bypass"):
            s = make_strategy(name, SelectionProblem(k=1))
            assert s.categories == frozenset({ModelCategory.OP_P})
        s = make_strategy("opop-alternate", SelectionProblem(k=1))
        assert s.categories == frozenset({ModelCategory.OP_P, ModelCategory.OP_OP})
        for name in ("kmin-witness", "min1-witness", "min1-lex", "kmin-lex"):
            assert make_strategy(name, SelectionProblem(k=1)).categories is None


# ---------------------------------------------------------------------------
# Exhaustive realization soundness.

small_areas = st.builds(
    lambda lo, length, kind: (
        Area.point(lo)
        if kind == "point"
        else (Area.open(lo, lo + length) if kind == "open" else Area.closed(lo, lo + length))
    ),
    st.fractions(min_value=0, max_value=8),
    st.fractions(min_value=Fraction(1, 2), max_value=4),
    st.sampled_from(["open", "closed", "point"]),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_areas, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(list(TieRule)),
)
def test_verifier_sound_on_sampled_realizations(vec, k, tie):
    if k > len(vec):
        k = len(vec)
    answer = kmin_verifier(vec, k, tie)
    assert verifier_answer_sound(vec, answer, k, tie)


def _grid_specs():
    return [
        (Fraction(lo), Fraction(length), kind)
        for lo, length, kind in product((0, 1, 2), (1, 2), "poc")
    ]


def _mk(lo, length, kind):
    if kind == "p":
        return Area.point(lo)
    if kind == "o":
        return Area.open(lo, lo + length)
    return Area.closed(lo, lo + length)


def test_lex_verifier_complete_on_grid():
    """When the lex verifier declines, no index is a valid answer in every
    sampled realization.  Exhaustive over a small point/open/closed grid."""
    specs = _grid_specs()
    for combo in product(specs, repeat=2):
        vec = [_mk(*s) for s in combo]
        for k in (1, 2):
            if kmin_verifier(vec, k, TieRule.LEX) is not None:
                continue
            always = set(range(len(vec)))
            for vals in realizations(vec):
                always = {i for i in always if kth_min_valid(vals, i, k, TieRule.LEX)}
                if not always:
                    break
            assert not always, (k, [str(a) for a in vec])


def test_stable_verifier_complete_with_distinct_lower_bounds():
    """The stable verifier anchors at the lo-order head, so its completeness
    claim holds when lower bounds are pairwise distinct: an undecided head is
    invalid in some sampled realization."""
    from uncquery.core import order_l

    specs = _grid_specs()
    for combo in product(specs, repeat=2):
        if combo[0][0] == combo[1][0]:
            continue
        vec = [_mk(*s) for s in combo]
        for k in (1, 2):
            if kmin_verifier(vec, k, TieRule.STABLE) is not None:
                continue
            pk = order_l(vec)[k - 1]
            assert not all(
                kth_min_valid(vals, pk, k, TieRule.STABLE) for vals in realizations(vec)
            ), (k, [str(a) for a in vec])


@settings(max_examples=60, deadline=None)
@given(st.lists(small_areas, min_size=1, max_size=5))
def test_witness_subsets_are_queriable(vec):
    if all(a.is_point for a in vec):
        return
    w = min1_witness(vec)
    assert 1 <= len(w) <= 2
    assert all(not vec[i].is_point for i in w)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(grid_vectors, st.sampled_from(list(TieRule)), st.booleans())
def test_integer_choosers_match_fraction_reference(vec, tie, kmax):
    """Verifier and witness choosers on integer images against the Fraction
    code they replaced, for every k; kmax runs both on the mirrored vector,
    as the max objective does."""
    if kmax:
        vec = [mirror(a) for a in vec]
    assert _outcome(min1_witness, vec, tie) == _outcome(reference_min1_witness, vec, tie)
    for k in range(1, len(vec) + 1):
        assert kmin_verifier(vec, k, tie) == reference_kmin_verifier(vec, k, tie)
        assert _outcome(kmin_witness, vec, k, tie) == _outcome(
            reference_kmin_witness, vec, k, tie)
        if tie is TieRule.STABLE:
            assert _outcome(kmin_bypass_witness, vec, k) == _outcome(
                reference_kmin_bypass_witness, vec, k)


@settings(max_examples=300, deadline=None)
@given(grid_vectors, st.sampled_from(list(TieRule)))
def test_unseparated_max_u_member_is_never_a_point(vec, tie):
    """Why the choosers need no point fallback: when a lo-order prefix is not
    surely below the rest, the prefix member with the largest u value is an
    interval (hi(q) > lo of the rest's head >= lo(q))."""
    order = reference_order_l(vec, None, tie)
    for cut in range(1, len(vec)):
        prefix, rest = order[:cut], order[cut:]
        if all(reference_surely_before(i, j, vec, tie) for i in prefix for j in rest):
            continue
        assert not vec[reference_order_u(vec, prefix, tie)[-1]].is_point


@st.composite
def witness_pair_cases(draw):
    """A witness-pair strategy with its tie rule and objective, 2 to 5 areas
    on an integer grid, hidden values on the half-integer grid inside them,
    and a k.  Under lex the areas are of the OCP or CP input types, so
    closed endpoints touch points and one another.  Under the stable rule
    they are open intervals and points: with closed areas a query can reveal
    a value that another area may tie, which under the stable rule decides
    at once (the closed-interval anomaly of criterion 6, which lex repairs)."""
    name = draw(st.sampled_from(("kmin-witness", "kmin-lex", "min1-witness", "min1-lex")))
    tie = TieRule.LEX if name.endswith("-lex") else draw(st.sampled_from(list(TieRule)))
    if tie is TieRule.LEX:
        kinds = draw(st.sampled_from((("open", "closed", "point"), ("closed", "point"))))
    else:
        kinds = ("open", "point")
    areas, hidden = [], []
    for _ in range(draw(st.integers(2, 5))):
        kind, lo = draw(st.sampled_from(kinds)), draw(st.integers(0, 4))
        if kind == "point":
            area = Area.point(lo)
        else:
            hi = draw(st.integers(lo + 1, 5))
            area = O(lo, hi) if kind == "open" else C(lo, hi)
        areas.append(area)
        hidden.append(draw(st.sampled_from(
            [v for v in (Fraction(h, 2) for h in range(2 * lo, 11)) if area.contains_value(v)])))
    k = 1 if name.startswith("min1") else draw(st.integers(1, len(areas)))
    problem = SelectionProblem(k, draw(st.sampled_from(list(Objective))), tie)
    return name, problem, areas, hidden


@settings(max_examples=600, deadline=None)
@given(witness_pair_cases())
@example(("kmin-lex", SelectionProblem(2, tie_rule=TieRule.LEX),
          [Area.point(5), C(0, 5)], [Fraction(5), Fraction(3)]))
def test_witness_pair_meets_every_minimal_solution(case):
    """The 2·OPT argument: at every state of exact reveals where a
    witness-pair strategy's verifier answers None, the set its chooser
    returns meets every minimal solution from that state."""
    name, problem, areas, hidden = case
    strategy, search = make_strategy(name, problem), make_strategy(name, problem)
    oracle = GroundTruthOracle(ExactPolicy(), hidden, TypeSet.parse("P"))
    for revealed in product((False, True), repeat=len(areas)):
        state = [Area.point(h) if r else a for a, h, r in zip(areas, hidden, revealed)]
        if strategy.verifier(state) is not None:
            continue
        witness = strategy.witness(state)
        assert witness_meets_every_solution(witness, state, oracle, search.verifier, len(areas)), (
            [str(a) for a in state], witness)


def _from_scratch_witness(name, vec, k, tie):
    """The public chooser a named strategy runs, called on a plain vector."""
    if name in ("min1-witness", "min1-lex"):
        return _outcome(min1_witness, vec, tie)
    if name in ("kmin-witness", "kmin-lex"):
        return _outcome(kmin_witness, vec, k, tie)
    if name == "min1-bypass":
        return _outcome(min1_bypass_witness, vec)
    return _outcome(kmin_bypass_witness, vec, k)


@settings(max_examples=300, deadline=None)
@given(refinement_runs(), st.sampled_from(list(TieRule)), st.sampled_from(list(Objective)),
       st.data())
def test_patched_strategies_match_from_scratch(run, tie, objective, data):
    """Strategies keep their state across calls, patched along the writes
    to a LoggedVector as in a solve; after every refinement their verdicts
    and witness sets equal the public functions computed from scratch (on
    the mirrored vector for kmax), and a patched state's lo order equals the
    Fraction reference's."""
    first, _ = run
    k = data.draw(st.integers(1, len(first)))
    problem = SelectionProblem(k=k, objective=objective, tie_rule=tie)
    names = [n for n in STRATEGY_NAMES if n != "opop-alternate"
             and not (n.startswith("min1") and k != 1)]
    strategies = {name: make_strategy(name, problem) for name in names}
    states = {t: VectorState(t, objective is Objective.KTH_MAX) for t in TieRule}
    for vec, _ in logged_run(run):
        oriented = [mirror(a) for a in vec] if objective is Objective.KTH_MAX else vec
        for t, state in states.items():
            assert state.update(vec).order == reference_order_l(oriented, None, t)
        for name, strategy in strategies.items():
            t = TieRule.LEX if name.endswith("-lex") else tie
            assert strategy.verifier(vec) == kmin_verifier(oriented, k, t), name
            assert _outcome(strategy.witness, vec) == _from_scratch_witness(
                name, oriented, k, t), name


def test_strategy_reused_on_another_instance_answers_like_a_fresh_one():
    for objective in Objective:
        for n, k in ((9, 1), (14, 3)):
            problem = SelectionProblem(k=k, objective=objective)
            insts = [
                replace(generate_instance(GenParams(m, ModelSpec.parse("OP-P"), k), seed),
                        problem=problem)
                for m, seed in ((n, 1), (n, 2), (n + 3, 3))
            ]
            for name in STRATEGY_NAMES:
                if name.startswith("min1") and k != 1:
                    continue
                reused = make_strategy(name, problem)
                for inst in insts:
                    oracle = build_oracle("ground:exact", inst)
                    fresh = solve(inst, oracle.fork(), make_strategy(name, problem), 10 * n)
                    again = solve(inst, oracle.fork(), reused, 10 * n)
                    assert (again.answer, again.query_log) == (fresh.answer, fresh.query_log)
