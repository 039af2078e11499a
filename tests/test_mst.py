"""Uncertain-weight spanning trees: comparison operator, red rule, witness
pairs, and the full solve loop against brute-force realization checks."""
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    always_maximal,
    edge_prec,
    grid_areas,
    reference_is_connected,
    reference_kruskal,
    reference_mst_pass,
    reference_replay_point,
    reference_umst,
    reference_witness_or_delete,
    sub_areas,
)
import uncquery.mst
from uncquery.core import Area, ImagedVector, LoggedVector, VectorState, endpoint_images
from uncquery.engine import EngineError, RunStatus
from uncquery.harness import GraphGenParams, build_oracle, generate_graph_instance
from uncquery.models import ModelSpec, UncertainInstance
from uncquery.mst import (
    PassLog,
    UmstStrategy,
    UncertainGraph,
    _Forest,
    mst_pass,
    _witness_pair,
    mst_verifier,
    umst_solve,
)
from uncquery.oracles import GroundTruthOracle, HalvePolicy
from uncquery.optbrute import OptResult, opt_value, search_size


def O(lo, hi):
    return Area.open(lo, hi)


def C(lo, hi):
    return Area.closed(lo, hi)


F = Fraction
# Weights for the exhaustive chooser grids: touching and nested bounds, points,
# negative endpoints, and coprime denominators (1/3, 1/7, 1/11), so that the
# pass's common-denominator integer ranks meet every tie that edge_prec breaks.
GRID = [
    O(1, 2), C(1, 2), O(2, 3), C(3, 4), Area.point(2),
    O(F(-1, 3), F(1, 7)), C(-2, F(-1, 11)), Area.point(F(-1, 3)),
    C(F(1, 7), 2), O(F(-1, 11), F(1, 3)), Area.point(F(1, 7)),
]


class TestEdgePrec:
    def test_tie_smaller_index_wins(self):
        assert edge_prec(Fraction(2), 0, Fraction(2), 1)
        assert not edge_prec(Fraction(2), 1, Fraction(2), 0)

    def test_strict_values(self):
        assert edge_prec(Fraction(2), 1, Fraction(5), 0)
        assert not edge_prec(Fraction(3), 0, Fraction(2), 1)

    def test_same_edge_rejected(self):
        with pytest.raises(ValueError):
            edge_prec(Fraction(1), 0, Fraction(2), 0)


class TestAlwaysMaximal:
    def test_dominating_edge(self):
        w = [O(1, 2), O(1, 2), O(5, 6)]
        assert always_maximal([0, 1, 2], 2, w)
        assert not always_maximal([0, 1, 2], 0, w)

    def test_touching_bounds_index_tie(self):
        w = [O(1, 2), C(2, 3)]
        assert always_maximal([0, 1], 1, w)

    def test_edge_not_on_cycle(self):
        with pytest.raises(ValueError):
            always_maximal([0, 1], 2, [O(1, 2), O(1, 2), O(5, 6)])

    def test_at_most_one_per_cycle(self):
        # Two always-maximal edges on one cycle would each dominate the other.
        for combo in itertools.product(GRID, repeat=3):
            w = list(combo)
            cycle = [0, 1, 2]
            assert sum(always_maximal(cycle, e, w) for e in cycle) <= 1


def witness_pair(cycle, weights):
    """The chooser on the images of a fresh state of the weights."""
    state = VectorState().update(weights)
    return _witness_pair(cycle, state.lo, state.hi)


def walk_deletes(cycle, weights):
    """Whether the path walk deletes cycle[-1], the edge closing a forest
    path made of the other cycle edges, on a fresh state of the weights."""
    state = VectorState().update(weights)
    forest, e, n = _Forest(len(cycle)), cycle[-1], len(weights)
    for i, c in enumerate(cycle[:-1]):
        forest.link(i, i + 1, c, i)
    return forest.path_below(len(cycle) - 1, 0, state.hi, state.lo[e] * n + e)


class TestWitnessOrDelete:
    """The pair chooser on cycles no edge of which is always maximal, and
    the path walk's red rule on the closing edge, against the definitions
    on Fractions."""

    def test_red_rule_delete(self):
        w = [O(1, 2), O(1, 2), O(5, 6)]
        assert reference_witness_or_delete([0, 1, 2], w) == ("delete", 2)
        assert walk_deletes([0, 1, 2], w)

    def test_witness_pair(self):
        w = [O(1, 2), O(2, 3), O(Fraction(5, 2), Fraction(7, 2))]
        assert reference_witness_or_delete([0, 1, 2], w) == ("witness", (2, 1))
        assert witness_pair([0, 1, 2], w) == (2, 1)
        assert not walk_deletes([0, 1, 2], w)

    def test_parallel_certain_edges(self):
        w = [Area.point(1), Area.point(2)]
        assert reference_witness_or_delete([0, 1], w) == ("delete", 1)
        assert walk_deletes([0, 1], w)

    def test_matches_definition_on_grid(self):
        # The O(L) chooser on integer ranks against the O(L^2) definition on
        # Fractions, for every cycle order and a cycle that skips an index:
        # the pair wherever no edge is always maximal, and the walk's
        # deletion of the closing edge everywhere.
        pairs = 0
        for combo in itertools.product(GRID, repeat=3):
            w = list(combo)
            cases = [(cycle, w) for cycle in ([0, 1, 2], [2, 0, 1], [1, 0])]
            cases.append(([3, 0, 2], w[:1] + [C(-5, 5)] + w[1:]))
            for cycle, weights in cases:
                action, payload = reference_witness_or_delete(cycle, weights)
                assert walk_deletes(cycle, weights) == ((action, payload) == ("delete", cycle[-1]))
                if action == "witness":
                    assert witness_pair(cycle, weights) == payload
                    pairs += 1
        assert pairs > 1000


def _triangle(weights, model="OC-OC", hidden=None):
    graph = UncertainGraph(3, ((0, 1), (1, 2), (0, 2)))
    return UncertainInstance(
        model=ModelSpec.parse(model),
        areas=tuple(weights),
        problem=graph,
        hidden=hidden,
    )


def _brute_mst_weight(instance):
    g = instance.problem
    best = None
    for comb in itertools.combinations(range(g.n_edges), g.vertices - 1):
        if reference_is_connected(g.vertices, g.edges, comb):
            w = sum(instance.hidden[e] for e in comb)
            best = w if best is None or w < best else best
    return best


class TestMstPass:
    def test_point_weights_no_queries(self):
        inst = _triangle([Area.point(1), Area.point(2), Area.point(3)], "OCP-OCP")
        status, tree, red = mst_pass(PassLog(inst.problem), inst.areas)
        assert status == "done" and tree == frozenset({0, 1}) and red == 1

    def test_red_rule_resolves_overlap(self):
        inst = _triangle([O(1, 2), O(1, 2), O(5, 6)])
        status, tree, red = mst_pass(PassLog(inst.problem), inst.areas)
        assert status == "done" and tree == frozenset({0, 1}) and red == 1

    def test_witness_needed(self):
        # The pass stops at edge 2, which closes the cycle; the strategy's
        # witness lists that cycle and queries its pair.
        inst = _triangle([O(1, 2), O(2, 3), O(Fraction(5, 2), Fraction(7, 2))])
        assert mst_pass(PassLog(inst.problem), inst.areas) == ("witness", 2)
        strategy = UmstStrategy(inst.problem)
        assert strategy.verifier(inst.areas) is None
        assert strategy.witness(inst.areas) == [2, 1]


class TestUmstSolve:
    def test_selection_instance_refused(self):
        from uncquery.selection import SelectionProblem

        inst = UncertainInstance(ModelSpec.parse("OC-OC"), (O(1, 2), O(0, 3)), SelectionProblem(k=1))
        with pytest.raises(EngineError, match="instance problem is not an uncertain graph"):
            umst_solve(inst, None, 10)  # refused before the oracle is asked

    def test_triangle_with_queries(self):
        inst = _triangle(
            [O(1, 2), O(2, 3), O(Fraction(5, 2), Fraction(7, 2))],
            model="OC-OC",
            hidden=(Fraction(3, 2), Fraction(5, 2), Fraction(3)),
        )
        oracle = GroundTruthOracle.for_instance(inst)
        report, answer = umst_solve(inst, oracle.fork(), 100)
        assert report.status is RunStatus.SOLVED
        assert answer.tree == frozenset({0, 1})
        opt = opt_value(list(inst.areas), oracle, mst_verifier(inst.problem), 12)
        assert report.total <= 2 * max(opt.opt, 1)

    def test_disconnected_graph_rejected(self):
        graph = UncertainGraph(4, ((0, 1), (2, 3)))
        inst = UncertainInstance(
            model=ModelSpec.parse("OC-OC"),
            areas=(O(1, 2), O(3, 4)),
            problem=graph,
        )
        with pytest.raises(EngineError):
            umst_solve(inst, None, 10)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            UncertainGraph(2, ((0, 0),))

    def test_budget_exceeded(self):
        inst = _triangle(
            [O(1, 3), O(1, 3), O(1, 3)],
            hidden=(Fraction(3, 2), Fraction(2), Fraction(5, 2)),
        )
        oracle = GroundTruthOracle.for_instance(inst)
        report, answer = umst_solve(inst, oracle, 1)
        assert report.status is RunStatus.BUDGET_EXCEEDED and answer is None

    def test_tree_weight_matches_realization_mst(self):
        from uncquery.harness import GraphGenParams, generate_graph_instance

        for seed in range(12):
            inst = generate_graph_instance(
                GraphGenParams(vertices=5, extra_edges=3, model=ModelSpec.parse("OC-OC")),
                seed,
            )
            oracle = GroundTruthOracle.for_instance(inst)
            report, answer = umst_solve(inst, oracle, 2000)
            assert report.status is RunStatus.SOLVED
            mine = sum(inst.hidden[e] for e in answer.tree)
            assert mine == _brute_mst_weight(inst)

    def test_prefers_smaller_indices_among_equal_weight_trees(self):
        # Two parallel certain edges of equal weight: the smaller index wins,
        # which is exactly the index tie-break of the comparison operator.
        graph = UncertainGraph(2, ((0, 1), (0, 1)))
        inst = UncertainInstance(
            model=ModelSpec.parse("OCP-OCP"),
            areas=(Area.point(1), Area.point(1)),
            problem=graph,
        )
        status, tree, red = mst_pass(PassLog(graph), inst.areas)
        assert status == "done" and tree == frozenset({0})


@st.composite
def graph_instances(draw):
    """Connected graphs on 3-10 vertices with parallel edges allowed.  Lower
    bounds come from a small grid so they repeat; OCP-P instances also carry
    point weights and are revealed exactly, OC-OC ones are halved."""
    model = draw(st.sampled_from(["OC-OC", "OCP-P"]))
    vertices = draw(st.integers(3, 10))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, vertices)]
    pairs = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    edges += draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=2 * vertices))
    edges = draw(st.permutations(edges))
    areas, hidden = [], []
    for _ in edges:
        lo = F(draw(st.integers(-2, 3)), draw(st.sampled_from([1, 2, 3])))
        length = F(draw(st.integers(0 if model == "OCP-P" else 1, 3)), draw(st.sampled_from([1, 7])))
        if length == 0:
            areas.append(Area.point(lo))
            hidden.append(lo)
            continue
        closed = draw(st.booleans())
        areas.append(C(lo, lo + length) if closed else O(lo, lo + length))
        j = draw(st.integers(0 if closed else 1, 8 if closed else 7))
        hidden.append(lo + length * F(j, 8))
    return UncertainInstance(
        model=ModelSpec.parse(model),
        areas=tuple(areas),
        problem=UncertainGraph(vertices, tuple(edges)),
        hidden=tuple(hidden),
    )


@settings(max_examples=200, deadline=None)
@given(graph_instances())
def test_resumed_passes_match_restarting_reference(inst):
    oracle = GroundTruthOracle.for_instance(inst)
    budget = 4 * inst.problem.n_edges
    report, answer = umst_solve(inst, oracle.fork(), budget)
    log, tree, red = reference_umst(inst, oracle.fork(), budget)
    assert report.query_log == log
    if tree is None:
        assert report.status is RunStatus.BUDGET_EXCEEDED and answer is None
    else:
        assert report.status is RunStatus.SOLVED
        assert (answer.tree, answer.red_rule_count) == (tree, red)


def _log_write(weights, e, area):
    """Store `area` at `e` of a LoggedVector as engine.solve does."""
    list.__setitem__(weights, e, area)
    weights.writes.append((e, area))


def _checked_pass(log, graph, weights):
    """mst_pass on the log and on a fresh log both equal the reference; true
    when the logged pass resumed, keeping its forest for a replayed prefix."""
    forest = log._forest
    fresh = reference_mst_pass(graph, weights)
    assert mst_pass(log, weights) == fresh == mst_pass(PassLog(graph), weights)
    return forest is not None and log._forest is forest


def test_replayed_pass_matches_fresh_pass_after_any_change():
    """The weights are a LoggedVector changed as a solve changes them: one
    or two intervals a round, each revealed (at an endpoint it attains, or
    inside) or refined to a sub-interval, whose new denominators rescale
    the log's images or, repeated, take them past core.SCALE_BITS_LIMIT to
    ranks.  Every change must stop the replay where the fresh pass would
    differ; some passes do resume."""
    resumed = []

    @settings(max_examples=200, deadline=None)
    @given(graph_instances(), st.data())
    def check(inst, data):
        graph, weights = inst.problem, LoggedVector(inst.areas)
        log = PassLog(graph)
        for _ in range(5):
            resumed.append(_checked_pass(log, graph, weights))
            intervals = [e for e, w in enumerate(weights) if not w.is_point]
            if not intervals:
                break
            for e in data.draw(st.lists(st.sampled_from(intervals), min_size=1, max_size=2)):
                w = weights[e]
                if w.is_point:
                    continue
                changes = sub_areas(w)
                if w.attains:
                    changes = st.one_of(st.sampled_from([Area.point(w.lo), Area.point(w.hi)]), changes)
                _log_write(weights, e, data.draw(changes))

    check()
    assert any(resumed)


def test_pass_on_value_ranks_matches_reference():
    """Grid weights, with edge 0 carrying both Mersenne-prime denominators:
    their lcm passes core.SCALE_BITS_LIMIT bits, so the pass orders and
    decides on the ranks of the values.  Fresh, and with a log carried
    across refinements and reveals of the other edges, logged as a solve
    logs them, it agrees with the Fraction reference; some passes resume."""
    resumed = []

    @settings(max_examples=100, deadline=None)
    @given(graph_instances(), st.data())
    def check(inst, data):
        graph = inst.problem
        weights = data.draw(st.lists(grid_areas(), min_size=graph.n_edges, max_size=graph.n_edges))
        weights[0] = O(F(-1, 2**521 - 1), F(1, 2**607 - 1))
        weights, log = LoggedVector(weights), PassLog(graph)
        for _ in range(4):
            resumed.append(_checked_pass(log, graph, weights))
            assert log.state.scale == 0
            e = data.draw(st.integers(1, graph.n_edges - 1))
            w = weights[e]
            if not w.is_point:
                changes = sub_areas(w)
                if w.attains:
                    changes = st.one_of(st.just(Area.point(w.hi)), changes)
                _log_write(weights, e, data.draw(changes))

    check()
    assert any(resumed)


def test_one_log_across_the_opt_search_order_matches_reference():
    """One PassLog carried across every vector an OPT search hands its
    verifier, in its order; the verifier accepts none, so the search visits
    every vector up to its budget.  Between two vectors counts fall as well
    as rise, so weights widen as well as narrow.  Level 0 is a plain list.
    Exact reveals give start vectors patched at index subsets; halving
    gives vectors assembled from chains imaged at a scale, or by rank (a
    shrink with a 521-bit prime denominator).  Every pass equals the
    reference's."""
    prime = 2**521 - 1
    kinds = {}
    for seed in range(4):
        for model, spec, max_total in (("OCP-P", "ground:exact", 9),
                                       ("OC-OC", "ground:halve:1/2", 4),
                                       ("OC-OC", f"ground:halve:{prime // 2}/{prime}", 4)):
            params = GraphGenParams(vertices=4, extra_edges=3, model=ModelSpec.parse(model))
            inst = generate_graph_instance(params, seed)
            oracle, log, passes = build_oracle(spec, inst), PassLog(inst.problem), []
            seen = kinds.setdefault(spec.split(":")[1], set())

            def verify(weights):
                seen.add("plain" if not isinstance(weights, ImagedVector)
                         else "scaled" if weights.images[0] else "ranks")
                assert mst_pass(log, weights) == reference_mst_pass(inst.problem, list(weights))
                passes.append(weights)

            assert opt_value(list(inst.areas), oracle, verify, max_total) == OptResult(None, None)
            assert len(passes) == search_size(list(inst.areas), oracle, max_total) > 30
    assert kinds == {"exact": {"plain", "scaled"}, "halve": {"plain", "scaled", "ranks"}}


def test_verifier_passes_share_one_log(monkeypatch):
    """mst_verifier is one UmstStrategy's verifier: every pass of an OPT
    search goes through that strategy's one PassLog."""
    inst = generate_graph_instance(
        GraphGenParams(vertices=4, extra_edges=3, model=ModelSpec.parse("OC-OC")), 3)
    logs = []

    def recording(log, weights):
        logs.append(log)
        return mst_pass(log, weights)

    monkeypatch.setattr(uncquery.mst, "mst_pass", recording)
    verifier = mst_verifier(inst.problem)
    assert opt_value(list(inst.areas), build_oracle("ground:halve", inst), verifier, 6).opt
    assert len(logs) > 20 and all(log is logs[0] for log in logs)


def test_verifier_pass_on_a_second_opt_vector_links_from_position_zero(monkeypatch):
    """mst_verifier handed a second OPT-style vector, equal to the first but
    for one revealed edge late in the first pass's order, replays nothing of
    the first pass: its first link is at position 0, and it links at the
    positions a fresh pass does."""
    inst = generate_graph_instance(
        GraphGenParams(vertices=8, extra_edges=8, model=ModelSpec.parse("OC-OC")), 1)
    first = ImagedVector(inst.areas)
    first.images = endpoint_images(first)
    verifier, positions = mst_verifier(inst.problem), []
    link = _Forest.link

    def recording(self, u, v, e, pos):
        positions.append(pos)
        link(self, u, v, e, pos)

    monkeypatch.setattr(_Forest, "link", recording)
    verifier(first)
    log = PassLog(inst.problem)
    mst_pass(log, first)
    assert log.processed > 2
    e = log.state.order[log.processed - 1]
    second = ImagedVector(first)
    second[e] = Area.point(inst.hidden[e])
    second.images = endpoint_images(second)
    positions.clear()
    verifier(second)
    replayed = positions[:]
    positions.clear()
    mst_pass(PassLog(inst.problem), second)
    assert replayed[0] == 0 and replayed == positions


def _forest_of(vertices, edges):
    """A forest linking each edge that joins two trees, edge i at position i."""
    forest = _Forest(vertices)
    for pos, (u, v) in enumerate(edges):
        if forest.label[u] != forest.label[v]:
            forest.link(u, v, pos, pos)
    return forest


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forest_undo_from_restores_the_forest_of_the_earlier_links(data):
    """Undoing from a position gives the forest built fresh from the links
    before it, field for field, also after relinking and undoing again as
    resumed passes do; every tree stays labelled by its root."""
    vertices = data.draw(st.integers(2, 9))
    pairs = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    edge_lists = st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=3 * vertices)
    edges = data.draw(edge_lists)
    forest = _forest_of(vertices, edges)
    for _ in range(3):
        cut = data.draw(st.integers(0, len(edges)))
        forest.undo_from(cut)
        fresh = _forest_of(vertices, edges[:cut])
        for name in ("up", "up_edge", "depth", "label", "size", "adj", "links"):
            assert getattr(forest, name) == getattr(fresh, name), name
        for x in range(vertices):
            root = x
            while forest.up[root] != -1:
                root = forest.up[root]
            assert forest.label[x] == root
        edges = edges[:cut] + data.draw(edge_lists)
        for pos in range(cut, len(edges)):
            u, v = edges[pos]
            if forest.label[u] != forest.label[v]:
                forest.link(u, v, pos, pos)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_connected_matches_breadth_first_search(data):
    """The Kruskal-forest check agrees with a plain search on any edge list
    and on the graph of any subset of it."""
    vertices = data.draw(st.integers(0, 8))
    edges = []
    if vertices > 1:
        pairs = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
        edges = data.draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=3 * vertices))
    graph = UncertainGraph(vertices, tuple(edges))
    every = range(len(edges))
    assert graph.is_connected() == reference_is_connected(vertices, edges, every)
    active = data.draw(st.lists(st.sampled_from(every), unique=True) if edges else st.just([]))
    subgraph = UncertainGraph(vertices, tuple(edges[e] for e in active))
    assert subgraph.is_connected() == reference_is_connected(vertices, edges, active)


def test_resumed_pass_links_nothing_ahead_of_its_replay_point(monkeypatch):
    """After a witness round the next pass keeps the forest of its replayed
    prefix: every edge it links lies at or past the replay point, the first
    position where the order moved or a queried edge sits.  The weights are
    a LoggedVector with each reveal logged, as engine.solve keeps them."""
    inst = generate_graph_instance(
        GraphGenParams(vertices=60, extra_edges=120, model=ModelSpec.parse("OC-OC"), overlap=0.95), 5)
    strategy, weights = UmstStrategy(inst.problem), LoggedVector(inst.areas)
    log, positions = strategy.pass_log, []
    link = _Forest.link

    def counting(self, u, v, e, pos):
        positions.append(pos)
        link(self, u, v, e, pos)

    monkeypatch.setattr(_Forest, "link", counting)
    answer, kept = strategy.verifier(weights), 0
    while answer is None:
        # The state patches the order in place, so keep a copy of it.
        old_order, old_processed = list(log.state.order), log.processed
        queried = strategy.witness(weights)
        for e in queried:
            _log_write(weights, e, Area.point(inst.hidden[e]))
        positions.clear()
        answer = strategy.verifier(weights)
        replay = reference_replay_point(old_order[:old_processed], log.state.order, queried)
        assert positions and all(pos >= replay for pos in positions)
        kept += replay
    assert kept > 400


@settings(max_examples=200, deadline=None)
@given(graph_instances())
def test_path_walk_deletes_exactly_the_red_rule_deletions(inst):
    """On every cycle the passes of a solve meet, the path walk lets the
    closing edge e go (deletes it) exactly when the definitional chooser on
    the cycle's Fractions answers ('delete', e)."""
    weights, verdicts = [], []
    walk = _Forest.path_below

    def checked(forest, u, v, hi, bound):
        deleted = walk(forest, u, v, hi, bound)
        cycle = forest.path(u, v) + [bound % len(hi)]
        verdicts.append(deleted == (reference_witness_or_delete(cycle, weights) == ("delete", cycle[-1])))
        return deleted

    def recording(log, current):
        weights[:] = current
        return mst_pass(log, current)

    with mock.patch.object(_Forest, "path_below", checked), \
            mock.patch.object(uncquery.mst, "mst_pass", recording):
        umst_solve(inst, GroundTruthOracle.for_instance(inst), 4 * inst.problem.n_edges)
    assert all(verdicts)


def test_a_pass_lists_one_cycle_at_most_and_only_where_it_stops(monkeypatch):
    """No pass lists a cycle: the red rule decides on the forest path
    without listing it, and a pass that needs queries stops without
    choosing.  The witness step after it lists one cycle, the one the
    stopping edge closes; a finished pass is followed by none."""
    inst = generate_graph_instance(
        GraphGenParams(vertices=60, extra_edges=120, model=ModelSpec.parse("OC-OC"), overlap=0.95), 5)
    events, passes = [], []
    path = _Forest.path

    def counting(forest, u, v):
        events.append(("path", (u, v)))
        return path(forest, u, v)

    def recording(log, weights):
        result = mst_pass(log, weights)
        stop = inst.problem.edges[result[1]] if result[0] == "witness" else None
        events.append((result[0], stop))
        passes.append((result[0], stop))
        return result

    monkeypatch.setattr(_Forest, "path", counting)
    monkeypatch.setattr(uncquery.mst, "mst_pass", recording)
    report, _ = umst_solve(inst, GroundTruthOracle.for_instance(inst), 10**4)
    assert report.status is RunStatus.SOLVED
    expected = []
    for kind, stop in passes:
        expected += [(kind, stop)] + ([("path", stop)] if kind == "witness" else [])
    assert events == expected and [kind for kind, _ in passes].count("witness") > 20


def _criterion_9_instance(seed):
    """The graphs of acceptance criterion 9: 4-6 vertices, at most 9 edges."""
    v = 4 + seed % 3
    params = GraphGenParams(vertices=v, extra_edges=seed % (10 - v), model=ModelSpec.parse("OC-OC"))
    return generate_graph_instance(params, 40_000 + seed)


def test_the_opt_search_never_chooses_and_a_solve_chooses_once_per_round(monkeypatch):
    """The OPT search's passes list no cycle and rank no pair; a solve lists
    one cycle and ranks one pair per witness round."""
    calls = {"path": 0, "pair": 0, "witness passes": 0, "passes": 0}
    path, pair = _Forest.path, uncquery.mst._witness_pair

    def counting(name, call):
        def counted(*args):
            calls[name] += 1
            return call(*args)
        return counted

    def recording(log, weights):
        result = mst_pass(log, weights)
        calls["passes"] += 1
        calls["witness passes"] += result[0] == "witness"
        return result

    monkeypatch.setattr(_Forest, "path", counting("path", path))
    monkeypatch.setattr(uncquery.mst, "_witness_pair", counting("pair", pair))
    monkeypatch.setattr(uncquery.mst, "mst_pass", recording)
    stopped = rounds = 0
    for seed in range(12):
        inst = _criterion_9_instance(seed)
        oracle = GroundTruthOracle.for_instance(inst, HalvePolicy(F(1, 2)))
        calls.update(dict.fromkeys(calls, 0))
        assert opt_value(list(inst.areas), oracle, mst_verifier(inst.problem), 14).opt is not None
        assert calls["path"] == calls["pair"] == 0
        stopped += calls["witness passes"]
        calls.update(dict.fromkeys(calls, 0))
        report, _ = umst_solve(inst, oracle.fork(), 4000)
        assert report.status is RunStatus.SOLVED and calls["passes"] == calls["witness passes"] + 1
        assert calls["path"] == calls["pair"] == calls["witness passes"]
        rounds += calls["witness passes"]
    assert stopped > 1000 and rounds > 5


@settings(max_examples=200, deadline=None)
@given(graph_instances())
def test_witness_pair_matches_reference_on_every_round(inst):
    """On every round of a solve, the pair the strategy ranks on the cycle
    its pass stopped at is the definitional chooser's pair on the cycle the
    reference pass stops at, over the same weights."""
    weights, verdicts = [], []
    choose = uncquery.mst._witness_pair

    def recording(log, current):
        weights[:] = current
        return mst_pass(log, current)

    def checked(cycle, lo, hi):
        pair = choose(cycle, lo, hi)
        *_, reference_cycle = reference_kruskal(inst.problem, weights)
        verdicts.append(("witness", pair) == reference_witness_or_delete(reference_cycle, weights))
        return pair

    with mock.patch.object(uncquery.mst, "_witness_pair", checked), \
            mock.patch.object(uncquery.mst, "mst_pass", recording):
        umst_solve(inst, GroundTruthOracle.for_instance(inst), 4 * inst.problem.n_edges)
    assert all(verdicts)
