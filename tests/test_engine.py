"""The solve loop: termination, budget handling, alternation, determinism,
and the logged area vector its strategies' states patch from."""
import contextlib
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncquery.core import (
    SCALE_BITS_LIMIT, Area, ImagedVector, LoggedVector, TieRule, VectorState, endpoint_images,
)
from uncquery.engine import (
    EngineError,
    OracleResponseError,
    RunStatus,
    SolverStrategy,
    StrategyModelError,
    default_budget,
    model_refusal,
    solve,
)
from uncquery.harness import (
    GenParams, GraphGenParams, build_oracle, generate_graph_instance, generate_instance,
)
from uncquery.models import ModelSpec, UncertainInstance
from uncquery.mst import UmstStrategy, umst_solve
from uncquery.optbrute import opt_value
from uncquery.oracles import GroundTruthOracle, ScriptedOracle, min_tight_fixture
from uncquery.selection import (
    SELECTION_ALGORITHMS, AlternatingWitness, Objective, SelectionProblem, make_strategy,
)


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

    def test_each_vector_is_verified_once(self):
        """The verifier sees every vector of a selection solve once, also the
        one a re-check between a pair's members settles, as in the scripted
        solve, whose only round settles after its first member."""
        scripted = _instance(
            "C-C", [Area.closed(3, 17), Area.closed(14, 19), Area.closed(15, 20)],
            tie=TieRule.LEX)
        runs = [(scripted, "min1-lex", ScriptedOracle({0: [Area.closed(8, 10)]}))]
        for seed in range(6):
            inst = generate_instance(
                GenParams(n=6, model=ModelSpec.parse("O-O"), k=1 + seed % 3), seed)
            runs.append((inst, "kmin-witness", GroundTruthOracle.for_instance(inst)))
        for inst, name, oracle in runs:
            strategy = make_strategy(name, inst.problem)
            seen = []
            verify = strategy.verifier
            strategy.verifier = lambda areas: (seen.append(tuple(areas)), verify(areas))[1]
            report = solve(inst, oracle, strategy, 100)
            assert report.status is RunStatus.SOLVED
            assert len(seen) == len(set(seen)) == report.total + 1

    def test_min_tight_replay(self):
        fix = min_tight_fixture(3)
        strategy = make_strategy("min1-witness", fix.instance.problem)
        report = solve(fix.instance, fix.oracle.fork(), strategy, 100)
        assert report.status is RunStatus.SOLVED and report.total == 6

    def test_budget_exceeded(self):
        fix = min_tight_fixture(3)
        strategy = make_strategy("min1-witness", fix.instance.problem)
        report = solve(fix.instance, fix.oracle.fork(), strategy, 4)
        assert report.status is RunStatus.BUDGET_EXCEEDED
        assert report.answer is None and report.total == 4

    def test_counts_match_log(self):
        """The query log is the writes list of the vector the strategy read."""
        fix = min_tight_fixture(2)
        strategy = make_strategy("min1-witness", fix.instance.problem)
        handed, verifier = [], strategy.verifier
        strategy.verifier = lambda areas: handed.append(areas) or verifier(areas)
        report = solve(fix.instance, fix.oracle.fork(), strategy, 100)
        assert sum(report.counts.values()) == report.total == len(report.query_log)
        assert {type(a) for a in handed} == {LoggedVector} and len({id(a) for a in handed}) == 1
        assert handed[0].writes is report.query_log
        last = dict(report.query_log)
        assert handed[0] == [last.get(i, a) for i, a in enumerate(fix.instance.areas)]

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

    def test_empty_witness_rejected(self):
        inst = _instance("O-O", [Area.open(0, 4), Area.open(1, 5)])
        bad = SolverStrategy(name="bad", verifier=lambda areas: None, witness=lambda areas: [])
        with pytest.raises(EngineError, match="strategy bad returned an empty witness set"):
            solve(inst, ScriptedOracle({}), bad, 10)

    @pytest.mark.parametrize("name, model, admitted", [
        ("kmin-bypass", "O-O", "op-p"),
        ("min1-bypass", "OP-OP", "op-p"),
        ("opop-alternate", "OC-OC", "op-p, op-op"),
    ])
    def test_refused_model_raises_before_any_query(self, name, model, admitted):
        inst = _instance(model, [Area.open(0, 4), Area.open(1, 5)])
        strategy = make_strategy(name, inst.problem)
        with pytest.raises(StrategyModelError) as info:
            solve(inst, ScriptedOracle({}), strategy, 10)
        assert str(info.value) == (
            f"{name} refuses model {model}: it runs under {admitted} models only")

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
        r1 = solve(inst, fix.oracle.fork(), strategy, 100)
        r2 = solve(inst, fix.oracle.fork(), strategy, 100)
        assert r1.to_json() == r2.to_json()

    def test_a_reused_strategy_starts_every_solve_with_the_bypass(self):
        """A solve's first witness call hands the alternation a new logged
        vector, so it restarts with the bypass, also after a solve of an odd
        number of rounds."""
        inst = generate_instance(GenParams(n=5, model=ModelSpec.parse("OP-OP"), k=1), 2)
        strategy = make_strategy("opop-alternate", inst.problem)
        alternation, picks = strategy.witness, []
        for tag in ("first", "second"):
            chooser = getattr(alternation, tag)
            setattr(alternation, tag, lambda areas, tag=tag, chooser=chooser: (
                picks.append(tag), chooser(areas))[1])
        rounds = []
        for _ in range(3):
            picks.clear()
            solve(inst, GroundTruthOracle.for_instance(inst), strategy, 100)
            rounds.append(picks[:])
        assert rounds == [["first", "second", "first"]] * 3

    def test_plain_vectors_alternate_on_every_call(self):
        """Only a new logged vector restarts the turn: plain lists, and the
        same logged vector again, take the next one."""
        alternate = AlternatingWitness(lambda areas: "A", lambda areas: "B")
        plain, log, other = [Area.open(0, 1)], LoggedVector([Area.open(0, 1)]), LoggedVector()
        calls = [plain, plain, plain, log, log, plain, other, plain]
        assert "".join(alternate(areas) for areas in calls) == "ABAABAAB"


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


# ---------------------------------------------------------------------------
# The solve's logged area vector and the states patched from it.

_update = VectorState.update


def _dense(values):
    """Each value's rank among the distinct values: equal lists iff the two
    value lists compare alike entry by entry."""
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _assert_matches_fresh(state, areas, written):
    """`state`, just brought up to `areas`, against a state built from
    scratch on a plain copy: `changed` names the indices of `written`, the
    writes it read since its last read of the same LoggedVector, or every
    index when `written` is None, as after any other vector; the order is
    the same, and so are the images and ranks once the fresh state is
    brought to the patched state's scale.  Only an ImagedVector that brings
    ranks taken over a superset leaves the state ranked where the fresh one
    scales; its images then compare alike."""
    fresh = _update(VectorState(state.tie_rule, state.mirror), list(areas))
    n = len(areas)
    assert list(state.changed) == (list(range(n)) if written is None
                                   else sorted({i for i, _ in written}))
    assert len(state.areas) == n and all(a is b for a, b in zip(state.areas, areas))
    assert state.order == fresh.order
    if state.scale and fresh.scale:
        m, rest = divmod(state.scale, fresh.scale)
        assert rest == 0
        fresh._read([v * m for v in fresh.lo], [v * m for v in fresh.hi])
    elif state.scale != fresh.scale:
        assert isinstance(areas, ImagedVector) and not state.scale
        assert _dense(state.lo + state.hi) == _dense(fresh.lo + fresh.hi)
        assert _dense(state.rank) == _dense(fresh.rank)
        return
    assert (state.lo, state.hi, state.rank) == (fresh.lo, fresh.hi, fresh.rank)


@contextlib.contextmanager
def _checked_states():
    """Check every VectorState update against a fresh state; yields the
    number of updates that read a LoggedVector's writes."""
    seen = {"logged": 0}

    def update(state, areas):
        written = areas.writes[state._seen:] if areas is state._log else None
        seen["logged"] += written is not None
        _update(state, areas)
        _assert_matches_fresh(state, areas, written)
        return state

    with mock.patch.object(VectorState, "update", update):
        yield seen


# Each model with the oracle its responses admit: exact reveals return
# points, halving returns open (OP-OP) or closed (OC-OC) sub-intervals.
_MODELS = {"OP-P": "ground:exact", "OCP-P": "ground:exact",
           "OP-OP": "ground:halve", "OC-OC": "ground:halve"}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_MODELS)), st.integers(3, 7), st.data())
def test_patched_states_match_fresh_ones_through_solves(model, n, data):
    """Strategies run through engine.solve: after every verifier and
    witness call each state they hold equals one built from scratch, and
    the calls after a query read the logged vector's writes.  Each strategy
    then solves a second instance, and its verifier is handed the OPT
    search's vectors, as harness.run_trial does."""
    spec = ModelSpec.parse(model)
    k = data.draw(st.integers(1, n))
    objective = data.draw(st.sampled_from(list(Objective)))
    tie = data.draw(st.sampled_from(list(TieRule)))
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
    problem = SelectionProblem(k=k, objective=objective, tie_rule=tie)
    insts = [replace(generate_instance(GenParams(n, spec, k, tie, overlap=1.5), s), problem=problem)
             for s in seeds]
    names = [name for name, algorithm in SELECTION_ALGORITHMS.items()
             if not (name.startswith("min1") and k != 1)
             and model_refusal(name, algorithm.categories, spec) is None]
    with _checked_states() as seen:
        for name in names:
            strategy = make_strategy(name, problem)
            for inst in insts:
                oracle = build_oracle(_MODELS[model], inst)
                before = seen["logged"]
                report = solve(inst, oracle.fork(), strategy, default_budget(n))
                assert report.status is RunStatus.SOLVED
                assert (seen["logged"] > before) == (report.total > 0)
            # The last instance's OPT search, on the strategy's own verifier.
            opt_value(list(inst.areas), oracle, strategy.verifier, 3)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["OCP-P", "OC-OC"]), st.integers(3, 6), st.integers(0, 10**6))
def test_umst_pass_state_matches_a_fresh_one_through_a_solve(model, vertices, seed):
    """The same for a uMST solve, whose passes patch their log's state, and
    then for its verifier handed the OPT search's vectors."""
    params = GraphGenParams(vertices, vertices, ModelSpec.parse(model), overlap=1.5)
    inst = generate_graph_instance(params, seed)
    oracle = build_oracle(_MODELS[model], inst)
    strategy = UmstStrategy(inst.problem)
    with _checked_states() as seen:
        report = solve(inst, oracle.fork(), strategy, default_budget(len(inst.areas)))
        assert report.status is RunStatus.SOLVED
        assert (seen["logged"] > 0) == (report.total > 0)
        opt_value(list(inst.areas), oracle, strategy.verifier, 3)


def test_a_logged_vector_names_every_write_and_refuses_other_changes():
    vec = LoggedVector([Area.open(0, 2), Area.open(1, 3), Area.point(4)])
    for i, area in ((1, Area.point(2)), (0, Area.open(0, 1))):  # as engine.solve writes
        list.__setitem__(vec, i, area)
        vec.writes.append((i, area))
    assert vec.writes == [(1, Area.point(2)), (0, Area.open(0, 1))] and type(vec[:]) is list
    for change in (lambda: vec.__setitem__(0, Area.point(0)), lambda: vec.append(Area.point(0)),
                   lambda: vec.pop(), vec.reverse, vec.sort,
                   lambda: vec.__setitem__(slice(0, 1), [Area.point(0)]),
                   lambda: vec.__delitem__(0), lambda: vec.__iadd__([])):
        with pytest.raises(TypeError):
            change()
    assert len(vec.writes) == 2 and vec == [Area.open(0, 1), Area.point(2), Area.point(4)]
    # A state that read another vector in between images the log afresh,
    # though the other vector shares two of its areas; handed the same
    # vector again it reads one write, then several.
    state, other = VectorState(), [vec[0], vec[1], Area.point(5)]
    for areas in (vec, other, vec):
        _assert_matches_fresh(state.update(areas), areas, None)
    for writes, changed in (([(2, Area.point(5))], [2]),
                            ([(1, Area.open(2, 3)), (0, Area.point(1)), (1, Area.point(3))], [0, 1])):
        read = len(vec.writes)
        for i, area in writes:
            list.__setitem__(vec, i, area)
            vec.writes.append((i, area))
        _assert_matches_fresh(state.update(vec), vec, vec.writes[read:])
        assert state.changed == changed


def test_a_state_patches_only_along_the_log_it_read_last(monkeypatch):
    """A state patches a LoggedVector it reads again.  Handed a plain list
    after that, though it differs from the log in one entry, or an
    ImagedVector, it rebuilds with no _patch call, names every index as
    changed, and then rebuilds on the log too.  It takes an ImagedVector's
    images as they are and never writes into them."""
    vec = LoggedVector([Area.open(0, 2), Area.open(1, 3), Area.point(4)])
    patch, patched = VectorState._patch, []

    def counted_patch(state, areas):
        patched.append(areas)
        return patch(state, areas)

    def write(i, area):  # as engine.solve writes
        list.__setitem__(vec, i, area)
        vec.writes.append((i, area))

    monkeypatch.setattr(VectorState, "_patch", counted_patch)
    state = VectorState().update(vec)
    write(0, Area.open(0, 1))
    _assert_matches_fresh(state.update(vec), vec, vec.writes[-1:])
    assert patched == [vec]
    plain = list(vec)
    plain[2] = Area.point(5)
    imaged = ImagedVector(vec)
    imaged.images = endpoint_images(vec)
    _, lo, hi = imaged.images
    kept = (lo[:], hi[:])
    for areas in (plain, vec, imaged):
        _assert_matches_fresh(state.update(areas), areas, None)
    assert state.lo is lo and state.hi is hi and patched == [vec]
    state.update(vec)
    write(1, Area.point(2))
    _assert_matches_fresh(state.update(vec), vec, vec.writes[-1:])
    assert patched == [vec, vec] and (lo, hi) == kept


def test_solves_read_writes_and_rescale_seldom(monkeypatch):
    """Two fixed solves: a min1-lex selection solve (OP-OP, n = 800) and a
    uMST solve (OC-OC, V = 80), both halving with shrink 1/2 at overlap 3.
    Each state reads a vector other than its solve's logged one only at its
    first call: every later call reads the logged writes.  A whole-vector
    rescale happens at most half as often as with D kept at the exact lcm,
    which rescaled 17 times in the selection solve and 14 times in the uMST
    solve.  No state is ranked while the exact lcm of its denominators fits
    in SCALE_BITS_LIMIT bits.  Two small solves, kmin-witness on OP-P with
    exact reveals at n = 6 and a halving uMST solve on OC-OC at V = 4, read
    their writes just the same."""
    counts, unlogged = {"rescales": 0}, []
    patch = VectorState._patch

    def counted_patch(state, areas):
        before = state.scale
        patched = patch(state, areas)
        counts["rescales"] += patched and state.scale != before
        return patched

    def checked_update(state, areas):
        if areas is not state._log:
            unlogged.append(state)
        _update(state, areas)
        if not state.scale:
            d = math.lcm(*(x.denominator for a in areas for x in (a.lo, a.hi)))
            assert d.bit_length() > SCALE_BITS_LIMIT
        return state

    def first_reads_only():
        """Whether no state read an unlogged vector twice, for the next solve."""
        once = len(unlogged) == len(set(map(id, unlogged))) > 0
        unlogged.clear()
        return once

    monkeypatch.setattr(VectorState, "_patch", counted_patch)
    monkeypatch.setattr(VectorState, "update", checked_update)
    inst = generate_instance(GenParams(800, ModelSpec.parse("OP-OP"), overlap=3), 1)
    report = solve(inst, build_oracle("ground:halve:1/2", inst),
                   make_strategy("min1-lex", inst.problem), default_budget(800))
    assert report.total == 278 and first_reads_only()
    assert counts["rescales"] <= 17 // 2
    counts["rescales"] = 0
    params = GraphGenParams(80, 160, ModelSpec.parse("OC-OC"), overlap=3)
    graph = generate_graph_instance(params, 1)
    report, answer = umst_solve(graph, build_oracle("ground:halve:1/2", graph), 10**5)
    assert answer is not None and report.total == 458 and first_reads_only()
    assert counts["rescales"] <= 14 // 2
    small = generate_instance(GenParams(6, ModelSpec.parse("OP-P"), k=3, overlap=3), 1)
    report = solve(small, build_oracle("ground:exact", small),
                   make_strategy("kmin-witness", small.problem), default_budget(6))
    assert report.total == 5 and first_reads_only()
    params = GraphGenParams(4, 3, ModelSpec.parse("OC-OC"), overlap=3)
    graph = generate_graph_instance(params, 1)
    report, answer = umst_solve(graph, build_oracle("ground:halve", graph), 10**3)
    assert answer is not None and report.total == 10 and first_reads_only()
