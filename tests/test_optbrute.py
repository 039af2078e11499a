"""Brute-force optimum search, and the witness-validity check built on it."""
import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _reference_level_vectors, reference_minimal_vectors, walked_vectors,
    witness_meets_every_solution,
)
from uncquery.core import (
    SCALE_BITS_LIMIT, Area, ImagedVector, TieRule, VectorState, endpoint_images,
)
from uncquery.harness import (
    EXIT_OK, GenParams, GraphGenParams, build_oracle,
    generate_graph_instance, generate_instance, instance_to_json, main,
)
from uncquery.models import ModelSpec, TypeSet, UncertainInstance
from uncquery.mst import UncertainGraph, mst_verifier
from uncquery.oracles import (
    ExactPolicy,
    GroundTruthOracle,
    HalvePolicy,
    MinTightAdversary,
    Oracle,
    OracleError,
    ScriptedOracle,
)
from uncquery.optbrute import OptResult, OptSearchError, opt_value, response_chain
from uncquery.optbrute import _Chains, _level_walk
from uncquery.selection import (
    Objective, SelectionProblem, kmin_verifier, make_strategy, min1_witness,
)


def O(lo, hi):
    return Area.open(lo, hi)


def C(lo, hi):
    return Area.closed(lo, hi)


def _oracle(areas, hidden, returns="P", policy=None):
    inst = UncertainInstance(
        model=ModelSpec.parse(f"OC-{returns}" if returns != "P" else "OCP-P"),
        areas=tuple(areas),
        problem=SelectionProblem(k=1),
        hidden=tuple(Fraction(h) for h in hidden),
    )
    if policy is None:
        policy = ExactPolicy() if returns == "P" else HalvePolicy(Fraction(1, 2))
    return GroundTruthOracle(policy, inst.hidden, ModelSpec.parse(f"X-{returns}".replace("X", "OCP")).returns)


def _v1(areas):
    return kmin_verifier(areas, 1)


class TestResponseChain:
    def test_exact_stops_after_point(self):
        oracle = _oracle([O(1, 5)], [2])
        chain = response_chain(oracle, 0, O(1, 5), 5)
        assert chain == [Area.point(2)]

    def test_halve_chain_lengths(self):
        oracle = _oracle([O(0, 8)], [3], returns="O")
        chain = response_chain(oracle, 0, O(0, 8), 3)
        assert len(chain) == 3
        assert all(chain[i + 1].length < chain[i].length for i in range(2))

    def test_base_count_offset_continues_chain(self):
        oracle = _oracle([O(0, 8)], [3], returns="O")
        full = response_chain(oracle, 0, O(0, 8), 4)
        tail = response_chain(oracle, 0, full[1], 2, base_count=2)
        assert tail == full[2:]


# Chains ending at points at depths 2 and 3, and one that never ends.
MIXED_CAPS_AREAS = [O(1, 5), O(3, 7), O(4, 8)]
MIXED_CAPS_SCRIPT = {
    0: [O(1, 4), Area.point(2)],
    1: [O(3, 6), O(3, 5), Area.point(4)],
    2: [O(4, 4 + Fraction(4, 2**j)) for j in range(1, 9)],
}


def test_level_walks_yield_only_the_vectors_within_the_caps():
    """Where chains end at points at different depths past 1, a level's walk
    yields only the multisets that count no index past its cap, the
    reference's vectors, and no more: fewer than all the multisets."""
    oracle = ScriptedOracle(MIXED_CAPS_SCRIPT)
    caps = _Chains(MIXED_CAPS_AREAS, oracle).extend(6)
    assert caps == [2, 3, 6]
    every = 1 + 3 + sum(1 for t in range(2, 7) for _ in combinations_with_replacement(range(3), t))
    valid = sum(1 for t in range(7) for _ in _reference_level_vectors(caps, t))
    assert walked_vectors(MIXED_CAPS_AREAS, oracle, 6) == valid < every == 84


def test_level_walk_matches_the_recursive_reference():
    """The level walk yields the reference's vectors as ascending index
    tuples, an index repeated once per query, which read as the same dicts,
    keys in the same order, in the same order: every caps vector of n <= 5
    indices with caps up to 3, mixed caps and so the cap filter included,
    every total up to one past the sum of the caps."""
    for n in range(6):
        for caps in product(range(4), repeat=n):
            for total in range(sum(caps) + 2):
                want = list(_reference_level_vectors(caps, total))
                got = []
                for chosen in _level_walk(caps, total):
                    assert list(chosen) == sorted(chosen) and len(chosen) == total, (caps, chosen)
                    got.append({i: chosen.count(i) for i in chosen})
                assert got == want, (caps, total)
                assert [list(v) for v in got] == [list(v) for v in want], (caps, total)


class TestOptValue:
    def test_already_resolved(self):
        areas = [O(2, 5), O(6, 8), O(9, 11)]
        res = opt_value(areas, _oracle(areas, [3, 7, 10]), _v1, 3)
        assert res.opt == 0 and res.vector == {}

    def test_single_query_suffices(self):
        oracle = _oracle([O(1, 5), O(3, 7)], [2, Fraction(13, 2)])
        res = opt_value([O(1, 5), O(3, 7)], oracle, _v1, 2)
        assert res.opt == 1 and res.vector == {0: 1}

    def test_unbounded_within_budget(self):
        # Script refines without ever separating the two areas.
        oracle = ScriptedOracle(
            {
                0: [O(1, 5 - Fraction(1, i)) for i in range(2, 8)],
                1: [O(1 + Fraction(1, i), 5) for i in range(2, 8)],
            }
        )
        res = opt_value([O(1, 5), O(1, 5)], oracle, _v1, 4)
        assert res.opt is None

    def test_adversary_rejected(self):
        with pytest.raises(OptSearchError):
            opt_value([O(1, 5)], MinTightAdversary(2), _v1, 2)

    def test_lex_smallest_vector_reported(self):
        # Hidden values make either single query sufficient; the search must
        # report the vector querying the smaller index.
        oracle = _oracle([O(2, 6), O(5, 8), O(9, 11)], [3, 7, 10])
        res = opt_value([O(2, 6), O(5, 8), O(9, 11)], oracle, _v1, 3)
        assert res.opt == 1 and res.vector == {0: 1}


# Either single query verifies, and only through index 0 or 1: the minimal
# solutions are {0: 1} and {1: 1}.
GOLDEN_AREAS = [O(2, 6), O(5, 8), O(9, 11)]
GOLDEN_HIDDEN = [3, 7, 10]


def _meets(witness, areas, hidden, max_total):
    return witness_meets_every_solution(witness, areas, _oracle(areas, hidden), _v1, max_total)


class TestMinimalSolutions:
    def test_golden_three_interval_instance(self):
        oracle = _oracle(GOLDEN_AREAS, GOLDEN_HIDDEN)
        assert list(reference_minimal_vectors(GOLDEN_AREAS, oracle, _v1, 3)) == [{0: 1}, {1: 1}]
        met = [w for size in (1, 2, 3) for w in combinations(range(3), size)
               if _meets(w, GOLDEN_AREAS, GOLDEN_HIDDEN, 3)]
        assert met == [(0, 1), (0, 1, 2)]

    def test_resolved_instance_empty_vector(self):
        # The empty vector verifies, and it queries no witness.
        areas = [O(2, 5), O(6, 8)]
        assert opt_value(areas, _oracle(areas, [3, 7]), _v1, 2) == OptResult(0, {})
        assert not _meets([0, 1], areas, [3, 7], 2)

    def test_monotone_in_budget(self):
        """A smaller budget has fewer minimal solutions, so a witness that
        meets every one within a budget meets every one within less."""
        areas = [O(1, 5), O(3, 7), O(4, 8)]
        verdicts = {}
        for max_total in (1, 3):
            verdicts[max_total] = [_meets(w, areas, [2, 5, 6], max_total)
                                   for size in (1, 2) for w in combinations(range(3), size)]
        assert all(small or not large for small, large in zip(verdicts[1], verdicts[3]))
        assert verdicts[1] != verdicts[3]  # {0} meets {0: 1}, but not {1: 1, 2: 1} of total 2

    def test_verifying_is_not_monotone(self):
        """Under the stable rule a superset of a failing vector can verify:
        here {} verifies, {1: 1} does not and {0: 1, 1: 1} does.  {} is the
        only minimal solution, and no witness meets it."""
        areas = [Area.closed(5, 7), Area.closed(0, 5)]
        oracle = _oracle(areas, [6, 5])
        verdicts = []
        for counts in ([0, 0], [0, 1], [1, 1]):
            vector = [response_chain(oracle, i, a, c)[-1] if c else a
                      for i, (a, c) in enumerate(zip(areas, counts))]
            verdicts.append(kmin_verifier(vector, 1, TieRule.STABLE) is not None)
        assert verdicts == [True, False, True]
        assert list(reference_minimal_vectors(areas, oracle, _v1, 2)) == [{}]
        assert not witness_meets_every_solution([0, 1], areas, oracle, _v1, 2)

    def test_opt_equals_min_over_minimal(self):
        areas = [O(1, 5), O(3, 7), O(6, 10)]
        oracle = _oracle(areas, [4, 5, 7])
        res = opt_value(areas, oracle, _v1, 4)
        sols = list(reference_minimal_vectors(areas, oracle, _v1, 4))
        assert res.opt == min(sum(s.values()) for s in sols)


class TestWitnessCheck:
    def test_all_indices_always_true(self):
        assert _meets([0, 1, 2], GOLDEN_AREAS, GOLDEN_HIDDEN, 3)

    def test_empty_witness_fails(self):
        assert not _meets([], GOLDEN_AREAS, GOLDEN_HIDDEN, 3)

    def test_min1_witness_hits_every_solution(self):
        assert _meets(min1_witness(GOLDEN_AREAS), GOLDEN_AREAS, GOLDEN_HIDDEN, 3)

    def test_uncovered_solution_detected(self):
        # {1: 1} queries no index of [0], and nothing verifies within a budget of 0.
        assert not _meets([0], GOLDEN_AREAS, GOLDEN_HIDDEN, 3)
        assert _meets([0], GOLDEN_AREAS, GOLDEN_HIDDEN, 0)


@st.composite
def witness_cases(draw):
    """A state of two to four areas on a small grid with hidden values on
    its half-grid, a ground-truth oracle revealing them exactly or halving
    toward them, and the kmin-witness verifier for a k, objective and tie
    rule."""
    areas, hidden = [], []
    for _ in range(draw(st.integers(2, 4))):
        kind, lo = draw(st.sampled_from(("open", "closed", "point"))), draw(st.integers(0, 3))
        hi = lo if kind == "point" else draw(st.integers(lo + 1, 4))
        area = Area.point(lo) if kind == "point" else Area(lo, hi, kind == "closed")
        areas.append(area)
        hidden.append(draw(st.sampled_from(
            [v for v in (Fraction(h, 2) for h in range(2 * lo, 2 * hi + 1))
             if area.contains_value(v)])))
    exact = draw(st.booleans())
    policy, returns = (ExactPolicy(), "P") if exact else (HalvePolicy(Fraction(1, 2)), "OC")
    oracle = GroundTruthOracle(policy, hidden, TypeSet.parse(returns))
    problem = SelectionProblem(draw(st.integers(1, len(areas))),
                               draw(st.sampled_from(list(Objective))),
                               draw(st.sampled_from(list(TieRule))))
    max_total = len(areas) if exact else draw(st.integers(0, 3))
    return areas, oracle, make_strategy("kmin-witness", problem).verifier, max_total


@settings(max_examples=300, deadline=None)
@given(witness_cases())
def test_witness_check_agrees_with_every_minimal_solution(case):
    """witness_meets_every_solution answers as testing every witness of one
    or two indices against every minimal solution the eager reference
    enumerates."""
    areas, oracle, verifier, max_total = case
    solutions = list(reference_minimal_vectors(areas, oracle, verifier, max_total))
    for size in (1, 2):
        for witness in combinations(range(len(areas)), size):
            want = all(any(i in solution for i in witness) for solution in solutions)
            got = witness_meets_every_solution(witness, areas, oracle, verifier, max_total)
            assert got == want, (witness, [str(a) for a in areas], solutions)


def _assert_pruned(got, want):
    """`got`, a search's verifier calls, is a subsequence of `want`, the
    eager reference's, and every call of `want` that it omits was
    declined: the search skips only vectors that cannot verify."""
    pending = iter(got)
    expected = next(pending, None)
    for call in want:
        if call == expected:
            expected = next(pending, None)
        else:
            assert call[1] is None, call
    assert expected is None, expected


def _withheld(verifier):
    """The verifier, handed a copy of each vector, so that no certificate
    it leaves reaches the search."""
    return lambda vector: verifier(list(vector))


# Deep enough that a halving chain by 2^-521 passes SCALE_BITS_LIMIT and
# the chains image by rank.
CERTIFICATE_DEPTH = 3


@st.composite
def certificate_cases(draw):
    """A declined-or-not vector of an OPT search and the verifier it is
    handed: one to six grid areas with tied endpoints and hidden values on
    the half-grid, or a connected graph of at most seven such edge weights;
    chains revealed exactly, halved, or shrunk by a 521-bit prime
    denominator, which images by rank; and a bare `kmin_verifier` (stable
    or lex), a strategy's (either rule, k-th min or max) or `mst_verifier`.
    Returns the areas, the oracle, the verifier and a count per index."""
    graph = None
    if draw(st.booleans()):
        vertices = draw(st.integers(2, 5))
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, vertices)]
        pair = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
        edges += draw(st.lists(pair.filter(lambda p: p[0] != p[1]),
                               max_size=7 - len(edges)))
        graph = UncertainGraph(vertices, tuple(edges))
        n = len(edges)
    else:
        n = draw(st.integers(1, 6))
    areas, hidden = [], []
    for _ in range(n):
        kind, lo = draw(st.sampled_from(("open", "closed", "point"))), draw(st.integers(0, 3))
        hi = lo if kind == "point" else draw(st.integers(lo + 1, 4))
        area = Area.point(lo) if kind == "point" else Area(lo, hi, kind == "closed")
        areas.append(area)
        hidden.append(draw(st.sampled_from(
            [v for v in (Fraction(h, 2) for h in range(2 * lo, 2 * hi + 1))
             if area.contains_value(v)])))
    prime = 2**521 - 1
    policy, returns = draw(st.sampled_from([
        (ExactPolicy(), "P"), (HalvePolicy(Fraction(1, 2)), "OC"),
        (HalvePolicy(Fraction(prime // 2, prime)), "OC")]))
    oracle = GroundTruthOracle(policy, hidden, TypeSet.parse(returns))
    if graph is not None:
        verifier = mst_verifier(graph)
    else:
        k, tie_rule = draw(st.integers(1, n)), draw(st.sampled_from(list(TieRule)))
        if draw(st.booleans()):
            verifier = lambda vector: kmin_verifier(vector, k, tie_rule)  # noqa: E731
        else:
            problem = SelectionProblem(k, draw(st.sampled_from(list(Objective))), tie_rule)
            verifier = make_strategy("kmin-witness", problem).verifier
    counts = draw(st.lists(st.integers(0, CERTIFICATE_DEPTH), min_size=n, max_size=n))
    return areas, oracle, verifier, counts


@settings(max_examples=400, deadline=None)
@given(certificate_cases(), st.data())
def test_certificates_hold_for_every_refinement_of_a_settled_index(case, data):
    """A declined vector's certificate is sound, whatever OPT search uses
    it: replacing a settled index by any later entry of its chain leaves
    the verdict at declined, and so does replacing every settled index at
    once by later entries."""
    areas, oracle, verifier, counts = case
    chains = _Chains(areas, oracle)
    caps = chains.extend(CERTIFICATE_DEPTH)
    if not any(caps):  # all points: nothing to refine, and no chain imaged
        return
    vector_of = chains.vectors()

    def vector(counts):
        return vector_of(tuple(i for i, c in enumerate(counts) for _ in range(c)))

    counts = [min(c, cap) for c, cap in zip(counts, caps)]
    declined = vector(counts)
    if verifier(declined) is not None:
        return
    settled = [x for x in range(len(areas)) if declined.settled >> x & 1]
    for x in settled:
        for later in range(counts[x] + 1, caps[x] + 1):
            assert verifier(vector(counts[:x] + [later] + counts[x + 1:])) is None, (x, later)
    joint = counts[:]
    for x in settled:
        joint[x] = data.draw(st.integers(counts[x], caps[x]))
    assert verifier(vector(joint)) is None, joint


def _imaged(areas):
    """An OPT search's kind of vector: the areas with their own images."""
    vector = ImagedVector(areas)
    vector.images, vector.settled = endpoint_images(vector), 0
    return vector


def _refined(areas, points):
    """The areas with each index of `points` refined to that point."""
    return [Area.point(points[i]) if i in points else a for i, a in enumerate(areas)]


def test_selection_certificate_keeps_every_prefix_blocker():
    """Stable kmin at k = 5 on (1/2, 3), [0, 3], [0, 3], (0, 2), (0, 3/2):
    the head is area 0 and all four prefix members block it, so nothing is
    settled.  A rule that kept one blocker would be unsound, whichever it
    kept: it would settle a [0, 3], and refining that area to the point 3
    makes it the head, with no prefix member above it.  So does refining
    area 2 to 3 and area 3 to 3/2 together, and refining the head itself
    to 3."""
    areas = [O(Fraction(1, 2), 3), C(0, 3), C(0, 3), O(0, 2), O(0, Fraction(3, 2))]
    declined = _imaged(areas)
    assert kmin_verifier(declined, 5) is None and declined.settled == 0
    for x in (0, 1, 2):
        assert kmin_verifier(_refined(areas, {x: 3}), 5) == x
    assert kmin_verifier(_refined(areas, {2: 3, 3: Fraction(3, 2)}), 5) == 2


def test_selection_certificate_keeps_the_head_and_its_first_tail_blocker():
    """Stable kmin at k = 1 on [0, 2], (1, 3), (1, 4): nothing precedes the
    head, area 0, and both tail members block it.  The certificate keeps
    the head and the first blocker, area 1, and settles area 2.  Neither
    kept index may be settled with area 2: refining the head to the point
    1 makes the vector verify, and so does refining area 1 to 2 and area 2
    to 3."""
    areas = [C(0, 2), O(1, 3), O(1, 4)]
    declined = _imaged(areas)
    assert kmin_verifier(declined, 1) is None and declined.settled == 1 << 2
    assert kmin_verifier(_refined(areas, {0: 1}), 1) == 0
    assert kmin_verifier(_refined(areas, {1: 2, 2: 3}), 1) == 0


def test_umst_certificate_settles_only_the_edges_off_the_stopping_cycle():
    """Edges (0, 1), (2, 3), (1, 2) and (0, 2) weighing (0, 2), (0, 4),
    (1/2, 1) and [3/2, 4]: the pass links the first three and stops at
    edge 3, since path edge 0 may weigh more than 3/2.  Only edge 1, off
    that cycle, is settled, though edge 3 is the last in the order, past
    which nothing lies.  Refining edge 1 leaves the pass stopped; refining
    path edge 0 to (0, 1), or the stop edge 3 to the point 3, lets it
    finish."""
    graph = UncertainGraph(4, ((0, 1), (2, 3), (1, 2), (0, 2)))
    areas = [O(0, 2), O(0, 4), O(Fraction(1, 2), 1), C(Fraction(3, 2), 4)]
    verifier = mst_verifier(graph)
    declined = _imaged(areas)
    assert verifier(declined) is None and declined.settled == 1 << 1
    for value in (Fraction(1, 2), 1, 2, 3):
        assert verifier(_refined(areas, {1: value})) is None
    assert verifier([O(0, 1)] + areas[1:]) is not None
    assert verifier(_refined(areas, {3: 3})) is not None


def _recording(verifier, calls):
    """The verifier, recording every input and the answer it gave."""
    def verify(areas):
        answer = verifier(areas)
        calls.append((tuple(areas), answer))
        return answer

    return verify


class _CountingOracle(Oracle):
    """An oracle that logs every (index, count) it is asked for; its forks
    log to the same list."""

    def __init__(self, inner, asked):
        self.inner, self.asked = inner, asked

    def respond(self, index, count, current):
        self.asked.append((index, count))
        return self.inner.respond(index, count, current)

    def fork(self):
        return _CountingOracle(self.inner.fork(), self.asked)


@pytest.mark.parametrize("oracle_spec", ["ground:exact", "ground:halve"])
@pytest.mark.parametrize("problem", ["kmin", "mst"])
def test_opt_value_is_the_first_minimal_solution(problem, oracle_spec):
    """opt_value makes some of the eager reference's verifier calls, in the
    same order, up to and including its first minimal vector, omitting only
    vectors the reference saw declined, and reports that vector."""
    model = ModelSpec.parse("OC-P" if oracle_spec == "ground:exact" else "OC-OC")
    for seed in range(6):
        if problem == "mst":
            params = GraphGenParams(vertices=3 + seed % 3, extra_edges=3, model=model)
            inst = generate_graph_instance(params, seed)
            verifier = mst_verifier(inst.problem)
        else:
            inst = generate_instance(GenParams(n=3 + seed % 4, model=model, k=1 + seed % 3), seed)
            verifier = make_strategy("kmin-witness", inst.problem).verifier
        n = len(inst.areas)
        assert n <= 8
        oracle = build_oracle(oracle_spec, inst)
        # The smaller budget leaves some searches without any solution.
        for max_total in (1, n if oracle_spec == "ground:halve" else 2 * n):
            opt_calls, all_calls = [], []
            result = opt_value(list(inst.areas), oracle, _recording(verifier, opt_calls), max_total)
            minima = list(reference_minimal_vectors(
                list(inst.areas), oracle, _recording(verifier, all_calls), max_total))
            hits = [i for i, (_areas, answer) in enumerate(all_calls) if answer is not None]
            if minima:
                _assert_pruned(opt_calls, all_calls[: hits[0] + 1])
                assert (result.opt, result.vector) == (sum(minima[0].values()), minima[0])
            else:
                _assert_pruned(opt_calls, all_calls)
                assert not hits and (result.opt, result.vector) == (None, None)


def _chain_asks(areas, oracle, max_total, result):
    """The (index, count) pairs a search that returned `result` asked for,
    in order: level by level, from 1 to the level it returned at (to
    max_total when nothing verified), each index whose chain reaches that
    count."""
    lengths = [len(response_chain(oracle.fork(), i, a, max_total)) for i, a in enumerate(areas)]
    reached = max_total if result.opt is None else result.opt
    return [(i, t) for t in range(1, reached + 1) for i in range(len(areas)) if t <= lengths[i]]


def _assert_same_search(areas, oracle, verifier, max_total):
    """opt_value calls the verifier on some of the inputs the eager
    reference calls it on up to its first minimal vector, in the same
    order, and omits only inputs the reference saw declined; it returns
    that vector, as it does with the certificates withheld, and asks the
    oracle for each chain only as deep as the level it returns at.  Returns
    the number of vectors so checked, the reference's calls up to its first
    minimal vector, and of the minimal vectors the reference finds."""
    got, want, asked = [], [], []
    result = opt_value(areas, _CountingOracle(oracle, asked), _recording(verifier, got), max_total)
    reference = reference_minimal_vectors(areas, oracle, _recording(verifier, want), max_total)
    first = next(reference, None)
    _assert_pruned(got, want)
    assert result == (OptResult(None, None) if first is None
                      else OptResult(sum(first.values()), first))
    assert result == opt_value(areas, oracle, _withheld(verifier), max_total)
    assert list(result.vector or ()) == sorted(result.vector or ())  # keys in index order
    assert asked == _chain_asks(areas, oracle, max_total, result)
    checked = len(want)
    return checked, (first is not None) + sum(1 for _ in reference)


def _resumed(areas, oracle, max_total, seed):
    """The state after a few queries on some indices, and a script of each
    index's next responses from there: chains that end at a point at
    different depths, or not at all."""
    script, state = {}, []
    for i, area in enumerate(areas):
        done = (seed + i) % 3
        chain = response_chain(oracle, i, area, done + max_total)
        done = min(done, len(chain))
        script[i] = chain[done:]
        state.append(chain[done - 1] if done else area)
    return state, ScriptedOracle(script)


SEARCH_ORACLES = (("ground:exact", "OC-P"), ("ground:halve", "OC-OC"))


@pytest.mark.parametrize("oracle_spec,model", SEARCH_ORACLES)
@pytest.mark.parametrize("objective", [Objective.KTH_MIN, Objective.KTH_MAX])
@pytest.mark.parametrize("tie_rule", [TieRule.STABLE, TieRule.LEX])
def test_search_matches_eager_reference_on_selection(oracle_spec, model, objective, tie_rule):
    visited = 0
    for seed in range(8):
        n = 3 + seed % 5
        params = GenParams(n=n, model=ModelSpec.parse(model), k=1 + seed % 3, tie_rule=tie_rule)
        inst = generate_instance(params, seed)
        inst = replace(inst, problem=replace(inst.problem, objective=objective))
        verifier = make_strategy("kmin-witness", inst.problem).verifier
        oracle = build_oracle(oracle_spec, inst)
        max_total = min(n, 5) if oracle_spec == "ground:halve" else 2 * n
        areas = list(inst.areas)
        # A budget of 1 leaves some searches without a solution.
        for budget in (1, max_total):
            visited += _assert_same_search(areas, oracle, verifier, budget)[0]
        state, script = _resumed(areas, oracle, max_total, seed)
        visited += _assert_same_search(state, script, verifier, max_total)[0]
    assert visited > 100


@pytest.mark.parametrize("oracle_spec,model", SEARCH_ORACLES)
def test_search_matches_eager_reference_on_graphs(oracle_spec, model):
    visited = 0
    for seed in range(6):
        params = GraphGenParams(vertices=3 + seed % 3, extra_edges=2 + seed % 3,
                                model=ModelSpec.parse(model))
        inst = generate_graph_instance(params, seed)
        n = len(inst.areas)
        assert n <= 8
        verifier = mst_verifier(inst.problem)
        oracle = build_oracle(oracle_spec, inst)
        max_total = min(n, 5) if oracle_spec == "ground:halve" else 2 * n
        areas = list(inst.areas)
        # A budget of 1 leaves some searches without a solution.
        for budget in (1, max_total):
            visited += _assert_same_search(areas, oracle, verifier, budget)[0]
        state, script = _resumed(areas, oracle, max_total, seed)
        visited += _assert_same_search(state, script, verifier, max_total)[0]
    assert visited > 100


def _kinds(verifier, kinds):
    """The verifier, noting whether each vector brought its own images."""
    def verify(areas):
        kinds.add(isinstance(areas, ImagedVector))
        return verifier(areas)

    return verify


def _orders_exactly(vector):
    """True iff the vector's images order its endpoints as their values."""
    values = [a.lo for a in vector] + [a.hi for a in vector]
    images = vector.images[1] + vector.images[2]
    return all((x < y, x == y) == (ix < iy, ix == iy)
               for x, ix in zip(values, images) for y, iy in zip(values, images))


@pytest.mark.parametrize("bits,depths", [(127, (8, 9)), (521, (2,))])
def test_chains_past_the_scale_limit_image_by_rank(bits, depths):
    """Halving by a shrink with a prime denominator of b bits adds about b
    bits per level to the common scale of the areas the chains hold.  With
    b = 127 it passes SCALE_BITS_LIMIT at depth 8 or 9, after the chains
    imaged at growing scales; with b = 521 at depth 2, the level after they
    first image.  From then on the chains image by rank (scale 0), and every
    vector still comes as an ImagedVector whose ranks, taken over all the
    areas held, order its own endpoints exactly, as does level 0's start
    vector.  The search makes the eager reference's calls throughout, less
    those its certificates skip."""
    prime = 2**bits - 1  # a Mersenne prime
    model = ModelSpec.parse("OC-OC")
    kinds, solutions = set(), 0
    for seed in range(6):
        inst = generate_instance(GenParams(n=4, model=model, k=2), seed)
        oracle = build_oracle(f"ground:halve:{prime // 2}/{prime}", inst)
        areas = list(inst.areas)
        chains = _Chains(areas, oracle)
        depth = 2
        chains.extend(depth)
        while chains.scale:
            assert chains.scale.bit_length() <= SCALE_BITS_LIMIT
            depth += 1
            chains.extend(depth)
        assert depth in depths
        vector_of = chains.vectors()
        for chosen in ((0, 0, 1, 1, 2, 2, 3, 3), (1, 1, 2), (0, 1, 2, 3)):
            vector = vector_of(chosen)
            assert type(vector) is ImagedVector and vector.images[0] == 0
            assert _orders_exactly(vector)
        verifier = make_strategy("kmin-witness", inst.problem).verifier
        solutions += _assert_same_search(areas, oracle, verifier, 9)[1]
        opt_value(areas, oracle, _kinds(verifier, kinds), 9)
    assert kinds == {True} and solutions > 4


@pytest.mark.parametrize("objective,tie_rule", [
    (Objective.KTH_MAX, TieRule.STABLE), (Objective.KTH_MIN, TieRule.LEX),
    (Objective.KTH_MAX, TieRule.LEX),
])
def test_strategy_verifier_agrees_with_a_fresh_state(objective, tie_rule):
    """A strategy's verifier keeps one state, mirrored for k-th max, and
    takes each vector's images into it.  The search answers the same with
    it as with a fresh state per call, and as with a fresh state that
    images the plain list itself."""
    def fresh(problem, plain):
        mirror = problem.objective is Objective.KTH_MAX

        def verify(areas):
            areas = list(areas) if plain else areas
            return kmin_verifier(VectorState(tie_rule, mirror).update(areas), problem.k, tie_rule)

        return verify

    hits = 0
    for seed in range(8):
        for oracle_spec, model, max_total in (("ground:exact", "OC-P", 8),
                                              ("ground:halve", "OC-OC", 5)):
            params = GenParams(n=4 + seed % 3, model=ModelSpec.parse(model), k=1 + seed % 3,
                               tie_rule=tie_rule)
            inst = generate_instance(params, seed)
            problem = replace(inst.problem, objective=objective)
            oracle = build_oracle(oracle_spec, inst)
            areas = list(inst.areas)
            answers = []
            for verifier in (make_strategy("kmin-witness", problem).verifier,
                             fresh(problem, False), fresh(problem, True)):
                result = opt_value(areas, oracle, verifier, max_total)
                answers.append((result.opt, result.vector,
                                list(reference_minimal_vectors(areas, oracle, verifier, max_total))))
            assert answers[0] == answers[1] == answers[2]
            hits += result.opt is not None and result.opt > 1
    assert hits > 4


@pytest.mark.parametrize("oracle_spec,model", SEARCH_ORACLES)
def test_opt_value_asks_nothing_past_the_optimum(oracle_spec, model):
    """Chains grow only as deep as the level reached: after opt_value finds
    OPT = t, no index was asked for a count past t (past max_total when
    nothing verifies)."""
    opts = set()
    for seed in range(12):
        inst = generate_instance(GenParams(n=3 + seed % 4, model=ModelSpec.parse(model),
                                           k=1 + seed % 2), seed)
        n = len(inst.areas)
        verifier = make_strategy("kmin-witness", inst.problem).verifier
        asked = []
        oracle = _CountingOracle(build_oracle(oracle_spec, inst), asked)
        result = opt_value(list(inst.areas), oracle, verifier, 2 * n)
        opts.add(result.opt)
        depth = 2 * n if result.opt is None else result.opt
        assert all(count <= depth for _i, count in asked)
        if oracle_spec == "ground:halve":  # halving never ends at a point
            assert len(asked) == n * depth
    assert len(opts - {None}) > 2


def test_points_that_do_not_verify_leave_every_level_empty():
    # No chain grows, so no level has a vector to build.
    areas = [Area.point(1), Area.point(2)]
    assert opt_value(areas, ScriptedOracle({}), lambda vector: None, 2) == OptResult(None, None)


def test_resolved_instance_asks_the_oracle_nothing():
    areas = [O(2, 5), O(6, 8), O(9, 11)]
    asked = []
    oracle = _CountingOracle(_oracle(areas, [3, 7, 10], returns="O"), asked)
    res = opt_value(areas, oracle, _v1, 6)
    assert res.opt == 0 and res.vector == {} and asked == []


# Three areas and one scripted response each: the first query on index 1
# separates it below the others.
SHORT_SCRIPT_AREAS = [O(1, 5), O(3, 7), O(4, 8)]
SHORT_SCRIPT = {0: [O(1, 2)], 1: [O(3, 6)], 2: [O(5, 8)]}


def test_short_script_is_enough_for_the_levels_visited():
    """The search asks a script only for the counts of the levels it visits:
    with OPT = 1, a budget of 4 needs no second response on any index."""
    res = opt_value(SHORT_SCRIPT_AREAS, ScriptedOracle(SHORT_SCRIPT), _v1, 4)
    assert res.opt == 1 and res.vector == {0: 1}


def test_short_script_fails_at_the_level_that_needs_more():
    # The single responses separate nothing, so level 2 needs second ones.
    script = {0: [O(1, 4)], 1: [O(2, 5)]}
    with pytest.raises(OracleError, match="query #2"):
        opt_value([O(1, 5), O(1, 5)], ScriptedOracle(script), _v1, 4)


@pytest.mark.parametrize("areas,script,argv", [
    (SHORT_SCRIPT_AREAS, SHORT_SCRIPT, ["--max-total", "4"]),
    ([O(0, 4), O(2, 6)], {0: [O(0, 1)], 1: [O(5, 6)]}, []),
], ids=["three-areas", "two-areas"])
def test_cli_opt_reads_a_short_script_only_as_deep_as_it_searches(tmp_path, capsys, areas,
                                                                 script, argv):
    """`uncquery opt` asks a script only for the responses of the levels it
    visits, so a script with one response per index is enough when one
    query verifies, whatever --max-total is."""
    inst = UncertainInstance(
        model=ModelSpec.parse("O-O"),
        areas=tuple(areas),
        problem=SelectionProblem(k=1),
    )
    inst_path, script_path = tmp_path / "inst.json", tmp_path / "script.json"
    inst_path.write_text(json.dumps(instance_to_json(inst)))
    script_path.write_text(json.dumps({"responses": {
        str(i + 1): [a.to_json() for a in rs] for i, rs in script.items()
    }}))
    code = main(["opt", "--instance", str(inst_path), "--oracle", f"script:{script_path}", *argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")
    assert json.loads(captured.out) == {"opt": 1, "vector": {"1": 1}}


def test_cli_opt_answers_a_mixed_caps_script(tmp_path, capsys, monkeypatch):
    """One index with a long chain and seven that end at a point after one
    response: to the default --max-total of 4n = 32 the levels' walks yield
    a few thousand count vectors, not the comb(40, 32) multisets of the
    eight indices at level 32 alone, and `uncquery opt` answers as the
    search does when its walk is the recursive reference."""
    areas = [O(0, 1 + i) for i in range(8)]
    script = {0: [O(0, Fraction(1, j + 1)) for j in range(1, 33)]}
    script.update({i: [Area.point(Fraction(1, 2))] for i in range(1, 8)})
    caps = _Chains(areas, ScriptedOracle(script)).extend(32)
    assert caps == [32] + [1] * 7
    assert sum(1 for t in range(33) for _ in _level_walk(caps, t)) == 3776 < comb(40, 32)
    inst = UncertainInstance(model=ModelSpec.parse("O-OP"), areas=tuple(areas),
                             problem=SelectionProblem(k=1))
    inst_path, script_path = tmp_path / "inst.json", tmp_path / "script.json"
    inst_path.write_text(json.dumps(instance_to_json(inst)))
    script_path.write_text(json.dumps({"responses": {
        str(i + 1): [a.to_json() for a in rs] for i, rs in script.items()
    }}))
    code = main(["opt", "--instance", str(inst_path), "--oracle", f"script:{script_path}"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")

    def reference_walk(caps, total):
        return (tuple(i for i, c in v.items() for _ in range(c))
                for v in _reference_level_vectors(caps, total))

    monkeypatch.setattr("uncquery.optbrute._level_walk", reference_walk)
    verifier = make_strategy("kmin-witness", inst.problem).verifier
    want = opt_value(areas, ScriptedOracle(script), verifier, 32)
    assert want.opt == 8
    assert json.loads(captured.out) == {
        "opt": want.opt, "vector": {str(i + 1): c for i, c in sorted(want.vector.items())}}
