"""Brute-force optimum search and minimal-solution enumeration."""
import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from helpers import _reference_level_vectors, reference_minimal_vectors
from uncquery.core import SCALE_BITS_LIMIT, Area, ImagedVector, TieRule, VectorState
from uncquery.harness import (
    EXIT_INVALID_CONFIG, GenParams, GraphGenParams, build_oracle, generate_graph_instance,
    generate_instance, instance_to_json, main,
)
from uncquery.models import ModelSpec, UncertainInstance
from uncquery.mst import mst_verifier
from uncquery.oracles import (
    ExactPolicy,
    GroundTruthOracle,
    HalvePolicy,
    MinTightAdversary,
    Oracle,
    OracleError,
    ScriptedOracle,
)
from uncquery.optbrute import (
    OptSearchError,
    minimal_solutions,
    opt_value,
    response_chain,
    search_size,
    witness_check,
)
from uncquery.optbrute import MAX_SEARCH_VECTORS, _Chains, _level_walk
from uncquery.selection import (
    Objective, SelectionProblem, kmin_verifier, make_strategy, min1_witness,
)


def O(lo, hi):
    return Area.open(lo, hi)


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


def _walked(areas, oracle, max_total):
    """How many vectors the level walks of a search to max_total yield,
    level 0's start vector included, each level under the caps it sees."""
    chains = _Chains(areas, oracle, None)
    return 1 + sum(1 for t in range(1, max_total + 1) for _ in _level_walk(chains.extend(t), t))


def test_search_size_counts_every_vector_of_every_level():
    # Exact reveals cap an interval at one query and a point at none; halving
    # never reaches a point, so its chains run to max_total.
    areas = [O(1, 5), Area.point(3), O(2, 9), O(0, 4)]
    for returns, hidden in (("P", [2, 3, 4, 1]), ("O", [2, 3, 5, 1])):
        oracle = _oracle(areas, hidden, returns=returns)
        for max_total in range(6):
            assert search_size(areas, oracle, max_total) == _walked(areas, oracle, max_total)


# Chains ending at points at depths 2 and 3, and one that never ends.
MIXED_CAPS_AREAS = [O(1, 5), O(3, 7), O(4, 8)]
MIXED_CAPS_SCRIPT = {
    0: [O(1, 4), Area.point(2)],
    1: [O(3, 6), O(3, 5), Area.point(4)],
    2: [O(4, 4 + Fraction(4, 2**j)) for j in range(1, 9)],
}


def test_search_size_counts_the_candidates_the_cap_filter_reads():
    """Where chains end at points at different depths past 1, a level's walk
    reads every multiset of the queriable indices and drops those that count
    an index past its cap: search_size counts what it reads, more than the
    count vectors it yields, which are the reference's."""
    oracle = ScriptedOracle(MIXED_CAPS_SCRIPT)
    caps = _Chains(MIXED_CAPS_AREAS, oracle, None).extend(6)
    assert caps == [2, 3, 6]
    read = 1 + 3 + sum(1 for t in range(2, 7) for _ in combinations_with_replacement(range(3), t))
    valid = sum(1 for t in range(7) for _ in _reference_level_vectors(caps, t))
    assert search_size(MIXED_CAPS_AREAS, oracle, 6) == read == 84
    assert _walked(MIXED_CAPS_AREAS, oracle, 6) == valid < read


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


class TestMinimalSolutions:
    def test_golden_three_interval_instance(self):
        areas = [O(2, 6), O(5, 8), O(9, 11)]
        oracle = _oracle(areas, [3, 7, 10])
        sols = minimal_solutions(areas, oracle, _v1, 3)
        assert sols == [{0: 1}, {1: 1}]

    def test_resolved_instance_empty_vector(self):
        areas = [O(2, 5), O(6, 8)]
        sols = minimal_solutions(areas, _oracle(areas, [3, 7]), _v1, 2)
        assert sols == [{}]

    def test_supersets_pruned(self):
        areas = [O(2, 6), O(5, 8), O(9, 11)]
        oracle = _oracle(areas, [3, 7, 10])
        sols = minimal_solutions(areas, oracle, _v1, 3)
        for s in sols:
            assert sum(s.values()) == 1

    def test_monotone_in_budget(self):
        areas = [O(1, 5), O(3, 7), O(4, 8)]
        oracle = _oracle(areas, [2, 5, 6])
        small = minimal_solutions(areas, oracle, _v1, 1)
        large = minimal_solutions(areas, oracle, _v1, 3)
        for s in small:
            assert s in large

    def test_verifying_is_not_monotone(self):
        """Under the stable rule a superset of a failing vector can verify:
        here {} verifies, {1: 1} does not and {0: 1, 1: 1} does.  The search
        still reports {} alone, as a superset of a found solution is never
        minimal."""
        areas = [Area.closed(5, 7), Area.closed(0, 5)]
        oracle = _oracle(areas, [6, 5])
        verdicts = []
        for counts in ([0, 0], [0, 1], [1, 1]):
            vector = [response_chain(oracle, i, a, c)[-1] if c else a
                      for i, (a, c) in enumerate(zip(areas, counts))]
            verdicts.append(kmin_verifier(vector, 1, TieRule.STABLE) is not None)
        assert verdicts == [True, False, True]
        assert minimal_solutions(areas, oracle, _v1, 2) == [{}]

    def test_opt_equals_min_over_minimal(self):
        areas = [O(1, 5), O(3, 7), O(6, 10)]
        oracle = _oracle(areas, [4, 5, 7])
        res = opt_value(areas, oracle, _v1, 4)
        sols = minimal_solutions(areas, oracle, _v1, 4)
        assert res.opt == min(sum(s.values()) for s in sols)


class TestWitnessCheck:
    def test_all_indices_always_true(self):
        assert witness_check([0, 1, 2], [{0: 1}, {2: 2}])

    def test_empty_witness_fails(self):
        assert not witness_check([], [{0: 1}])

    def test_min1_witness_hits_every_solution(self):
        areas = [O(2, 6), O(5, 8), O(9, 11)]
        oracle = _oracle(areas, [3, 7, 10])
        sols = minimal_solutions(areas, oracle, _v1, 3)
        assert witness_check(min1_witness(areas), sols)

    def test_uncovered_solution_detected(self):
        assert not witness_check([0], [{0: 1}, {1: 1}])


def _recording(verifier, calls):
    """The verifier, recording every input and the answer it gave."""
    def verify(areas):
        answer = verifier(areas)
        calls.append((tuple(areas), answer))
        return answer

    return verify


@pytest.mark.parametrize("oracle_spec", ["ground:exact", "ground:halve"])
@pytest.mark.parametrize("problem", ["kmin", "mst"])
def test_opt_value_is_the_first_minimal_solution(problem, oracle_spec):
    """opt_value makes minimal_solutions' verifier calls, in the same order,
    up to and including the first hit, and reports that first solution."""
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
            minima = minimal_solutions(
                list(inst.areas), oracle, _recording(verifier, all_calls), max_total
            )
            assert opt_calls == all_calls[: len(opt_calls)]
            hits = [i for i, (_areas, answer) in enumerate(all_calls) if answer is not None]
            if minima:
                assert len(opt_calls) == hits[0] + 1
                assert (result.opt, result.vector) == (sum(minima[0].values()), minima[0])
            else:
                assert opt_calls == all_calls and not hits
                assert (result.opt, result.vector) == (None, None)


def _assert_same_search(areas, oracle, verifier, max_total, base_counts=None):
    """opt_value and minimal_solutions call the verifier on the same inputs,
    in the same order, and return the same results as the search with eager
    chains and the recursive enumerator."""
    got, want = [], []
    minima = minimal_solutions(areas, oracle, _recording(verifier, got), max_total, base_counts)
    reference = list(
        reference_minimal_vectors(areas, oracle, _recording(verifier, want), max_total, base_counts)
    )
    assert got == want and minima == reference
    assert all(list(v) == sorted(v) for v in minima)  # keys in index order
    got, want = [], []
    result = opt_value(areas, oracle, _recording(verifier, got), max_total, base_counts)
    first = next(
        reference_minimal_vectors(areas, oracle, _recording(verifier, want), max_total, base_counts),
        None,
    )
    assert got == want
    assert (result.opt, result.vector) == (
        (None, None) if first is None else (sum(first.values()), first)
    )
    return len(want)


def _resumed(areas, oracle, max_total, seed):
    """The state after a few queries on some indices, with a script that
    continues each index's responses from there: base counts shift the
    counts the search asks for, so a wrong offset reads the wrong response."""
    base = [(seed + i) % 3 for i in range(len(areas))]
    script, state = {}, []
    for i, area in enumerate(areas):
        chain = response_chain(oracle, i, area, base[i] + max_total)
        script[i] = chain
        done = min(base[i], len(chain))
        base[i] = done
        state.append(chain[done - 1] if done else area)
    return state, ScriptedOracle(script), base


SEARCH_ORACLES = (("ground:exact", "OC-P"), ("ground:halve", "OC-OC"))


@pytest.mark.parametrize("oracle_spec,model", SEARCH_ORACLES)
@pytest.mark.parametrize("objective", [Objective.KTH_MIN, Objective.KTH_MAX])
@pytest.mark.parametrize("tie_rule", [TieRule.STABLE, TieRule.LEX])
def test_search_matches_eager_reference_on_selection(oracle_spec, model, objective, tie_rule):
    visited = 0
    for seed in range(5):
        n = 3 + seed
        params = GenParams(n=n, model=ModelSpec.parse(model), k=1 + seed % 3, tie_rule=tie_rule)
        inst = generate_instance(params, seed)
        inst = replace(inst, problem=replace(inst.problem, objective=objective))
        verifier = make_strategy("kmin-witness", inst.problem).verifier
        oracle = build_oracle(oracle_spec, inst)
        max_total = min(n, 5) if oracle_spec == "ground:halve" else 2 * n
        areas = list(inst.areas)
        visited += _assert_same_search(areas, oracle, verifier, max_total)
        visited += _assert_same_search(areas, oracle, verifier, max_total, [seed % 2] * n)
        state, script, base = _resumed(areas, oracle, max_total, seed)
        visited += _assert_same_search(state, script, verifier, max_total, base)
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
        visited += _assert_same_search(areas, oracle, verifier, max_total)
        state, script, base = _resumed(areas, oracle, max_total, seed)
        visited += _assert_same_search(state, script, verifier, max_total, base)
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
    areas held, order its own endpoints exactly.  Level 0 gets a plain
    vector.  The search makes the eager reference's calls throughout."""
    prime = 2**bits - 1  # a Mersenne prime
    model = ModelSpec.parse("OC-OC")
    kinds, solutions = set(), 0
    for seed in range(6):
        inst = generate_instance(GenParams(n=4, model=model, k=2), seed)
        oracle = build_oracle(f"ground:halve:{prime // 2}/{prime}", inst)
        areas = list(inst.areas)
        chains = _Chains(areas, oracle, None)
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
        verifier = _kinds(make_strategy("kmin-witness", inst.problem).verifier, kinds)
        _assert_same_search(areas, oracle, verifier, 9)
        solutions += len(minimal_solutions(areas, oracle, verifier, 9))
    assert kinds == {True, False} and solutions > 4


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
                                minimal_solutions(areas, oracle, verifier, max_total)))
            assert answers[0] == answers[1] == answers[2]
            hits += result.opt is not None and result.opt > 1
    assert hits > 4


class _CountingOracle(Oracle):
    """A ground-truth oracle that logs every (index, count) it is asked for;
    its forks log to the same list."""

    def __init__(self, inner, asked):
        self.inner, self.asked = inner, asked

    def respond(self, index, count, current):
        self.asked.append((index, count))
        return self.inner.respond(index, count, current)

    def fork(self):
        return _CountingOracle(self.inner, self.asked)


@pytest.mark.parametrize("oracle_spec,model", SEARCH_ORACLES)
def test_opt_value_asks_nothing_past_the_optimum(oracle_spec, model):
    """Chains grow only as deep as the level reached: after opt_value finds
    OPT = t, no index was asked for a count past base + t (past base +
    max_total when nothing verifies)."""
    opts = set()
    for seed in range(12):
        inst = generate_instance(GenParams(n=3 + seed % 4, model=ModelSpec.parse(model),
                                           k=1 + seed % 2), seed)
        n = len(inst.areas)
        verifier = make_strategy("kmin-witness", inst.problem).verifier
        for base in (None, [seed % 3] * n):
            asked = []
            oracle = _CountingOracle(build_oracle(oracle_spec, inst), asked)
            result = opt_value(list(inst.areas), oracle, verifier, 2 * n, base)
            opts.add(result.opt)
            depth = 2 * n if result.opt is None else result.opt
            offset = 0 if base is None else base[0]
            assert all(count <= offset + depth for _i, count in asked)
            if oracle_spec == "ground:halve":  # halving never ends at a point
                assert len(asked) == n * depth
    assert len(opts - {None}) > 2


def test_points_that_do_not_verify_leave_every_level_empty():
    # No chain grows, so no level has a vector to build.
    areas = [Area.point(1), Area.point(2)]
    assert minimal_solutions(areas, ScriptedOracle({}), lambda vector: None, 2) == []


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


def test_cli_opt_refuses_a_short_script_up_front(tmp_path, capsys):
    """`uncquery opt` sizes the whole search before running it, which reads
    every chain to --max-total: a short script ends it with exit 3 and one
    line, before any verifier call."""
    inst = UncertainInstance(
        model=ModelSpec.parse("O-O"),
        areas=tuple(SHORT_SCRIPT_AREAS),
        problem=SelectionProblem(k=1),
    )
    inst_path, script_path = tmp_path / "inst.json", tmp_path / "script.json"
    inst_path.write_text(json.dumps(instance_to_json(inst)))
    script_path.write_text(json.dumps({"responses": {
        str(i + 1): [a.to_json() for a in rs] for i, rs in SHORT_SCRIPT.items()
    }}))
    code = main(["opt", "--instance", str(inst_path), "--oracle", f"script:{script_path}",
                 "--max-total", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID_CONFIG and captured.out == ""
    assert captured.err == "error: script has no response for index 1, query #2\n"


def test_cli_opt_refuses_a_mixed_caps_search_up_front(tmp_path, capsys, monkeypatch):
    """One index with a long chain and seven that end at a point after one
    response: the count vectors to the default --max-total of 4n = 32 are
    few, but each level's walk reads every multiset of the eight indices,
    comb(40, 32) in all.  `uncquery opt` counts those, and refuses with
    exit 3 and one line before any verifier call."""
    def refuse(*args, **kwargs):
        raise AssertionError("searched past the size guard")

    monkeypatch.setattr("uncquery.harness.opt_value", refuse)
    areas = [O(0, 1 + i) for i in range(8)]
    script = {0: [O(0, Fraction(1, j + 1)) for j in range(1, 33)]}
    script.update({i: [Area.point(Fraction(1, 2))] for i in range(1, 8)})
    caps = _Chains(areas, ScriptedOracle(script), None).extend(32)
    assert caps == [32] + [1] * 7
    assert sum(1 for t in range(33) for _ in _reference_level_vectors(caps, t)) < MAX_SEARCH_VECTORS
    inst = UncertainInstance(model=ModelSpec.parse("O-OP"), areas=tuple(areas),
                             problem=SelectionProblem(k=1))
    inst_path, script_path = tmp_path / "inst.json", tmp_path / "script.json"
    inst_path.write_text(json.dumps(instance_to_json(inst)))
    script_path.write_text(json.dumps({"responses": {
        str(i + 1): [a.to_json() for a in rs] for i, rs in script.items()
    }}))
    code = main(["opt", "--instance", str(inst_path), "--oracle", f"script:{script_path}"])
    assert (code, capsys.readouterr()) == (EXIT_INVALID_CONFIG, ("", (
        f"error: the OPT search could visit {comb(40, 32)} count vectors, more than "
        f"{MAX_SEARCH_VECTORS}; lower --max-total (now 32)\n")))
