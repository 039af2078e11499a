"""Brute-force optimum search and minimal-solution enumeration."""
from fractions import Fraction

import pytest

from uncquery.core import Area, TieRule
from uncquery.harness import (
    GenParams, GraphGenParams, build_oracle, generate_graph_instance, generate_instance,
)
from uncquery.models import ModelSpec, UncertainInstance
from uncquery.mst import mst_verifier
from uncquery.oracles import (
    ExactPolicy,
    GroundTruthOracle,
    HalvePolicy,
    MinTightAdversary,
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
from uncquery.optbrute import _level_vectors, _prepare
from uncquery.selection import SelectionProblem, kmin_verifier, make_strategy, min1_witness


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


def test_search_size_counts_every_vector_of_every_level():
    # Exact reveals cap an interval at one query and a point at none; halving
    # never reaches a point, so its chains run to max_total.
    areas = [O(1, 5), Area.point(3), O(2, 9), O(0, 4)]
    for returns, hidden in (("P", [2, 3, 4, 1]), ("O", [2, 3, 5, 1])):
        oracle = _oracle(areas, hidden, returns=returns)
        for max_total in range(6):
            _chains, caps = _prepare(areas, oracle, max_total, None)
            visited = sum(1 for t in range(max_total + 1) for _ in _level_vectors(caps, t))
            assert search_size(areas, oracle, max_total) == visited


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
        assert not res.bounded

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
    def verify(areas):
        answer = verifier(areas)
        calls.append((tuple(areas), answer is not None))
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
            hits = [i for i, (_areas, hit) in enumerate(all_calls) if hit]
            if minima:
                assert len(opt_calls) == hits[0] + 1
                assert (result.opt, result.vector) == (sum(minima[0].values()), minima[0])
            else:
                assert opt_calls == all_calls and not hits
                assert (result.opt, result.vector) == (None, None)
