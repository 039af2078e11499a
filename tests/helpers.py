"""Shared test utilities: exhaustive realization checking, affine maps, a
witness-state recorder around the solve loop, a recorder of the indices
each state patch is handed, the Fraction-based area predicates, instance
validation, orderings and selection choosers, the scan that found a
resumed uMST pass's replay point, the mirror of an area, the halving
window, the uMST comparison operator, red rule and restart-from-scratch
pass that the integer code is checked against, the brute-force OPT search
with eagerly built response chains, the witness-validity check built on
`opt_value`, what the adversaries' colluding optima are shown, and the
instance generators and the instance reader as first written, on
Fractions."""
import contextlib
import copy
import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence
from unittest import mock

from hypothesis import strategies as st

from uncquery.core import (Area, LoggedVector, Rationals, TieRule, VectorState,
                           format_rational, parse_rational, surely_leq, surely_lt)
from uncquery.engine import solve
from uncquery.harness import SCALE, ConfigError, _json_value, _malformed
from uncquery.models import ModelSpec, UncertainInstance, validate_response
from uncquery.mst import UncertainGraph
from uncquery.optbrute import OptResult, _Chains, _level_walk, opt_value
from uncquery.oracles import ScriptedOracle
from uncquery.selection import Objective, SelectionProblem


def sample_values(area: Area) -> List[Fraction]:
    """Representative exact values of an area: attained endpoints, near-endpoint
    interior points, and the midpoint.  Enough to witness every strict/non-strict
    ordering disagreement between areas with rational endpoints."""
    if area.is_point:
        return [area.lo]
    out = []
    quarter = area.length / 4
    if area.attains:
        out.append(area.lo)
    out.append(area.lo + quarter / 64)
    out.append(area.lo + 2 * quarter)
    out.append(area.hi - quarter / 64)
    if area.attains:
        out.append(area.hi)
    return sorted(set(out))


def realizations(areas: Sequence[Area]):
    yield from product(*(sample_values(a) for a in areas))


def kth_min_valid(values: Sequence[Fraction], answer: int, k: int, tie_rule: TieRule) -> bool:
    """Whether `answer` is a correct k-th-smallest report for these exact values."""
    if tie_rule is TieRule.LEX:
        order = sorted(range(len(values)), key=lambda j: (values[j], j))
        return order[k - 1] == answer
    below = sum(1 for v in values if v < values[answer])
    at_most = sum(1 for v in values if v <= values[answer])
    return below <= k - 1 and at_most >= k


def verifier_answer_sound(
    areas: Sequence[Area], answer: Optional[int], k: int, tie_rule: TieRule
) -> bool:
    """A claimed answer must be valid in EVERY sampled realization."""
    if answer is None:
        return True
    return all(kth_min_valid(vals, answer, k, tie_rule) for vals in realizations(areas))


def affine_map_area(area: Area, m: Fraction, b: Fraction) -> Area:
    """Strictly increasing affine image; preserves attainment and order relations."""
    assert m > 0
    return Area(m * area.lo + b, m * area.hi + b, area.attains)


def recorded_solve(instance, oracle, strategy, budget: int):
    """engine.solve, plus one (witness, areas) state per witness set the
    strategy emits: the set as the engine queries it (sorted, without
    repeats) and the areas it was chosen on.  The states are taken from
    outside the loop, by wrapping the strategy's witness chooser."""
    states = []
    choose = strategy.witness

    def witness(areas):
        chosen = choose(areas)
        states.append((tuple(sorted(set(chosen))), tuple(areas)))
        return chosen

    recorded = copy.copy(strategy)
    recorded.witness = witness
    return solve(instance, oracle, recorded, budget), states


# Endpoints on a small grid of coprime denominators: values repeat often
# (1/1 = 7/7), share a denominator or need a large lcm, and go negative.  The
# two Mersenne primes have an lcm above core.SCALE_BITS_LIMIT bits, so a vector
# holding both takes the ranked path of core.VectorState.
grid_endpoints = st.builds(
    Fraction,
    st.integers(-8, 8),
    st.sampled_from((1, 2, 3, 7, 11, 101, 7919, 2**521 - 1, 2**607 - 1)),
)


@st.composite
def grid_areas(draw):
    """Open, closed and point areas on `grid_endpoints`, so that endpoints
    often tie between areas of all three kinds."""
    lo, hi = sorted((draw(grid_endpoints), draw(grid_endpoints)))
    if lo == hi or draw(st.integers(0, 4)) == 0:
        return Area.point(lo)
    return Area(lo, hi, draw(st.booleans()))


grid_vectors = st.lists(grid_areas(), min_size=1, max_size=8)


# Denominators a refinement may bring in.  5, 13 and 17 divide no grid
# denominator, so images patched from call to call must rescale; 2^607 - 1
# next to the grid's 2^521 - 1, or squared by a second refinement of the
# same area, takes the common denominator past core.SCALE_BITS_LIMIT.
refine_denominators = (2, 3, 5, 13, 17, 2**607 - 1)


@st.composite
def sub_areas(draw, area: Area):
    """A query response to an interval `area`: a revealed point strictly
    inside it or a sub-interval, on a grid of a drawn denominator.  A
    sub-interval attains an endpoint it shares with `area` only if `area`
    does."""
    q = draw(st.sampled_from(refine_denominators))
    if draw(st.integers(0, 3)) == 0:
        return Area.point(area.lo + area.length * Fraction(draw(st.integers(1, q - 1)), q))
    a = draw(st.integers(0, q - 1))
    b = draw(st.integers(a + 1, q))
    attains = draw(st.booleans()) and (area.attains or 0 < a and b < q)
    return Area(
        area.lo + area.length * Fraction(a, q), area.lo + area.length * Fraction(b, q), attains,
    )


@st.composite
def refinement_runs(draw):
    """A vector of grid areas and the steps after it, each the vector after
    the step and the indices it wrote, in order.  A step refines one to
    three intervals (`sub_areas`), mostly one as a solve does, or now and
    then swaps in an unrelated vector of the same length, whose indices are
    None.  Vectors run to 12 areas."""
    first = draw(st.lists(grid_areas(), min_size=1, max_size=12))
    cur = list(first)
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        intervals = [i for i, a in enumerate(cur) if not a.is_point]
        if not intervals or draw(st.integers(0, 9)) == 0:
            cur = draw(st.lists(grid_areas(), min_size=len(cur), max_size=len(cur)))
            written = None
        else:
            count = min(len(intervals), draw(st.sampled_from((1, 1, 1, 2, 3))))
            written = draw(st.permutations(intervals))[:count]
            for i in written:
                cur[i] = draw(sub_areas(cur[i]))
        steps.append((list(cur), written))
    return first, steps


def logged_run(run):
    """The vectors of a `refinement_runs` draw as a solve hands them to its
    states, each with the indices whose area changed since the vector
    before.  The first vector and the refinements after it are one
    `LoggedVector`, written as engine.solve writes it, whose later reads
    bring the indices written since, ascending; an unrelated vector comes
    as a plain list and the refinements after it as a new LoggedVector.  A
    plain list and a first read of a LoggedVector bring every index, as a
    range."""
    first, steps = run
    log = LoggedVector(first)
    yield log, range(len(first))
    fresh = False
    for vec, written in steps:
        if written is None:
            log, fresh = LoggedVector(vec), True
            yield list(vec), range(len(vec))
            continue
        for i in written:
            list.__setitem__(log, i, vec[i])
            log.writes.append((i, vec[i]))
        yield log, range(len(vec)) if fresh else sorted(written)
        fresh = False


@contextlib.contextmanager
def recorded_patches():
    """Yields the list of the indices each `VectorState._patch` call is
    handed, one list per call, in call order."""
    handed, patch = [], VectorState._patch

    def recorded(state, areas, changed):
        handed.append(list(changed))
        return patch(state, areas, changed)

    with mock.patch.object(VectorState, "_patch", recorded):
        yield handed


def reference_replay_point(old_order: Sequence[int], new_order: Sequence[int],
                           changed) -> int:
    """Where a uMST pass resumed before `VectorState.first_moved`, by a scan
    of the old and the new lo order: the length of their longest common
    prefix that holds no index in `changed`."""
    replay = 0
    for new, old in zip(new_order, old_order):
        if new != old or new in changed:
            break
        replay += 1
    return replay


# ---------------------------------------------------------------------------
# Area predicates and instance validation on Fractions, as they read before
# they moved to integer cross products.


def reference_area_error(lo, hi, attains) -> Optional[str]:
    """The message of the ValueError `Area.__post_init__` raised for these
    endpoints and flag, or None when it accepted them."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        return f"empty area: lo={lo} > hi={hi}"
    if lo == hi and not attains:
        return "a degenerate area is a point and must be closed at both ends"
    return None


def reference_is_point(area: Area) -> bool:
    return area.lo == area.hi


def reference_contains_value(area: Area, x) -> bool:
    x = Fraction(x)
    if x < area.lo or x > area.hi:
        return False
    if x == area.lo and not area.attains:
        return False
    if x == area.hi and not area.attains:
        return False
    return True


def _reference_shape(area: Area) -> str:
    if reference_is_point(area):
        return "P"
    return "C" if area.attains else "O"


def reference_validate_instance(instance) -> Optional[str]:
    """models.validate_instance on the Fraction shape and containment tests,
    for a problem that passes its own check: the first failed rule, or None."""
    if not instance.areas:
        return "instance has no areas"
    for i, area in enumerate(instance.areas):
        shape = _reference_shape(area)
        if shape not in instance.model.input:
            return (f"area {i + 1} shape {shape} not admitted by input "
                    f"type set {instance.model.input}")
    if instance.hidden is not None:
        if len(instance.hidden) != len(instance.areas):
            return "hidden configuration length differs from areas"
        for area, value in zip(instance.areas, instance.hidden):
            if not reference_contains_value(area, value):
                return f"hidden value {value} outside area {area}"
    return None


# ---------------------------------------------------------------------------
# Selection on Fractions: the orderings, the verifier and the witness choosers
# exactly as they read before they moved to integer images, including the
# all-pairs separation test and the point fallbacks.


def mirror(area: Area) -> Area:
    """Negate endpoints; maps k-th max questions onto k-th min ones."""
    return Area(-area.hi, -area.lo, area.attains)


def reference_order_l(areas, subset=None, tie_rule=TieRule.STABLE) -> list:
    idx = list(range(len(areas))) if subset is None else list(subset)
    if tie_rule is TieRule.STABLE:
        return sorted(idx, key=lambda i: (areas[i].lo, i))
    return sorted(idx, key=lambda i: (areas[i].lo, 0 if areas[i].attains else 1, i))


def reference_order_u(areas, subset=None, tie_rule=TieRule.STABLE) -> list:
    idx = list(range(len(areas))) if subset is None else list(subset)
    if tie_rule is TieRule.STABLE:
        return sorted(idx, key=lambda i: (areas[i].hi, i))
    return sorted(idx, key=lambda i: (areas[i].hi, 1 if areas[i].attains else 0, i))


def reference_surely_before(i, j, areas, tie_rule=TieRule.STABLE) -> bool:
    """Area i surely comes before area j, as kmin_verifier's docstring
    defines it: a non-strict separation, except that under lex an area
    with the larger index needs a strict one."""
    if tie_rule is TieRule.LEX and i > j:
        return surely_lt(areas[i], areas[j])
    return surely_leq(areas[i], areas[j])


def reference_kmin_verifier(areas, k, tie_rule=TieRule.STABLE) -> Optional[int]:
    order = reference_order_l(areas, None, tie_rule)
    pk = order[k - 1]
    for i in order[: k - 1]:
        if not reference_surely_before(i, pk, areas, tie_rule):
            return None
    for j in order[k:]:
        if not reference_surely_before(pk, j, areas, tie_rule):
            return None
    return pk


def _reference_first_nonpoints(areas, ordering, limit) -> List[int]:
    out = []
    for i in ordering:
        if not areas[i].is_point:
            out.append(i)
            if len(out) == limit:
                break
    return out


def reference_min1_witness(areas, tie_rule=TieRule.STABLE, subset=None) -> List[int]:
    picked = _reference_first_nonpoints(areas, reference_order_l(areas, subset, tie_rule), 2)
    if not picked:
        raise ValueError("no queriable area available for a witness set")
    return picked


def reference_kmin_witness(areas, k, tie_rule=TieRule.STABLE) -> List[int]:
    order = reference_order_l(areas, None, tie_rule)
    prefix = order[: k - 1]
    tail = order[k - 1 :]
    pk = tail[0]
    if all(reference_surely_before(i, j, areas, tie_rule) for i in prefix for j in tail):
        return reference_min1_witness(areas, tie_rule, subset=tail)
    q1 = reference_order_u(areas, prefix, tie_rule)[-1]
    # q1 is an interval here (test_unseparated_max_u_member_is_never_a_point),
    # so the pair is never empty.
    return [i for i in (pk, q1) if not areas[i].is_point]


def reference_kmin_bypass_witness(areas, k) -> List[int]:
    order = reference_order_l(areas)
    prefix = order[:k]
    rest = order[k:]
    if not all(surely_leq(areas[i], areas[j]) for i in prefix for j in rest):
        for q in reversed(reference_order_u(areas, prefix)):
            if not areas[q].is_point:
                return [q]
        picked = _reference_first_nonpoints(areas, order, 1)
        if not picked:
            raise ValueError("no queriable area available")
        return picked
    mirrored = [mirror(a) for a in areas]
    picked = _reference_first_nonpoints(areas, reference_order_l(mirrored, prefix), 1)
    if not picked:
        raise ValueError("no queriable area available")
    return picked


def reference_halve_window(hidden: Fraction, current: Area, shrink: Fraction):
    """The halving window on Fractions, step by step: center a window of
    shrink times the current length on the hidden value, shift it back
    inside the area, then nudge it off the shared endpoint by new_len/100,
    or by half the gap to the hidden value if that is less."""
    new_len = current.length * shrink
    lo = hidden - new_len / 2
    hi = hidden + new_len / 2
    clipped_lo = clipped_hi = False
    if lo < current.lo:
        shift = current.lo - lo
        lo += shift
        hi += shift
        clipped_lo = True
    elif hi > current.hi:
        shift = hi - current.hi
        lo -= shift
        hi -= shift
        clipped_hi = True
    delta = new_len / 100
    if clipped_lo and hidden > current.lo:
        lo += min(delta, (hidden - current.lo) / 2)
        hi += min(delta, (hidden - current.lo) / 2)
    elif clipped_hi and hidden < current.hi:
        lo -= min(delta, (current.hi - hidden) / 2)
        hi -= min(delta, (current.hi - hidden) / 2)
    return lo, hi


def edge_prec(x: Fraction, e: int, y: Fraction, f: int) -> bool:
    """x (an endpoint value of edge e) precedes y (of edge f): smaller value
    first, equal values broken toward the smaller edge index."""
    if e == f:
        raise ValueError("cannot compare an edge with itself")
    return x < y or (x == y and e < f)


def always_maximal(cycle: Sequence[int], e: int, weights: Sequence[Area]) -> bool:
    """True iff every other cycle edge's upper bound precedes e's lower bound,
    so e can never be part of a minimum tree using this cycle."""
    if e not in cycle:
        raise ValueError("edge not on the cycle")
    if len(cycle) < 2:
        raise ValueError("a cycle needs at least two edges")
    return all(
        edge_prec(weights[c].hi, c, weights[e].lo, e) for c in cycle if c != e
    )


def reference_witness_or_delete(cycle: Sequence[int], weights: Sequence[Area]):
    """The red rule and witness pair straight from their definitions, on
    Fractions: every always-maximal candidate is tested in O(L^2)."""
    candidates = [e for e in cycle if always_maximal(cycle, e, weights)]
    if candidates:
        pick = candidates[0]
        for e in candidates[1:]:
            if edge_prec(weights[pick].hi, pick, weights[e].hi, e):
                pick = e
        return ("delete", pick)
    f = cycle[0]
    for e in cycle[1:]:
        if edge_prec(weights[f].hi, f, weights[e].hi, e):
            f = e
    partners = [
        g for g in sorted(cycle)
        if g != f and not edge_prec(weights[g].hi, g, weights[f].lo, f)
    ]
    if not partners:
        raise AssertionError("no witness partner despite no always-maximal edge")
    return ("witness", (f, partners[0]))


def _forest_path(adj, u: int, v: int) -> Optional[List[int]]:
    prev = {}
    seen = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for x, e in adj[w]:
            if x not in seen:
                seen.add(x)
                prev[x] = (w, e)
                if x == v:
                    path = []
                    while x != u:
                        w2, e2 = prev[x]
                        path.append(e2)
                        x = w2
                    return path
                stack.append(x)
    return None


def reference_is_connected(vertices: int, edges, active: Sequence[int]) -> bool:
    """Breadth-first search from vertex 0 over the active edges."""
    adj = defaultdict(list)
    for e in active:
        u, v = edges[e]
        adj[u].append(v)
        adj[v].append(u)
    seen, queue = {0}, [0]
    for x in queue:
        for w in adj[x]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return vertices > 0 and len(seen) == vertices


def reference_kruskal(graph, weights: Sequence[Area]):
    """One Kruskal pass from scratch: a Fraction sort, a forest search for
    every edge and the definitional chooser.  Returns ('done', tree,
    red-rule count), or ('witness', e, cycle) at the first cycle that needs
    queries, e the edge that closes it and the cycle's last edge."""
    order = sorted(range(graph.n_edges), key=lambda e: (weights[e].lo, e))
    adj = defaultdict(list)
    in_tree = set()
    red = 0
    for e in order:
        u, v = graph.edges[e]
        path = _forest_path(adj, u, v)
        if path is None:
            adj[u].append((v, e))
            adj[v].append((u, e))
            in_tree.add(e)
            continue
        action, payload = reference_witness_or_delete(path + [e], weights)
        if action == "witness":
            return ("witness", e, path + [e])
        red += 1
        if payload == e:
            continue
        du, dv = graph.edges[payload]
        adj[du].remove((dv, payload))
        adj[dv].remove((du, payload))
        adj[u].append((v, e))
        adj[v].append((u, e))
        in_tree.discard(payload)
        in_tree.add(e)
    return ("done", frozenset(in_tree), red)


def reference_mst_pass(graph, weights: Sequence[Area]):
    """reference_kruskal with mst_pass's contract: ('done', tree, red-rule
    count), or ('witness', e) with e the edge closing the cycle it stopped at."""
    result = reference_kruskal(graph, weights)
    return result if result[0] == "done" else result[:2]


def reference_umst(instance, oracle, budget: int):
    """The uMST query loop restarting reference_kruskal every round and
    querying the definitional pair of the cycle it stopped at.  Returns
    (query log, tree, red-rule count); tree and count are None when the
    budget runs out."""
    weights = list(instance.areas)
    counts = {}
    log = []
    while True:
        result = reference_kruskal(instance.problem, weights)
        if result[0] == "done":
            return log, result[1], result[2]
        _, pair = reference_witness_or_delete(result[2], weights)
        queriable = [e for e in sorted(pair) if not weights[e].is_point]
        assert queriable, "witness pair contains no queriable edge"
        for e in queriable:
            if len(log) >= budget:
                return log, None, None
            counts[e] = counts.get(e, 0) + 1
            response = oracle.respond(e, counts[e], weights[e])
            assert validate_response(instance.model, weights[e], response) is None
            weights[e] = response
            log.append((e, response))


def _reference_level_vectors(caps: Sequence[int], total: int):
    n = len(caps)

    def rec(i: int, remaining: int, acc: dict):
        if i == n:
            if remaining == 0:
                yield dict(acc)
            return
        tail_cap = sum(caps[i + 1 :])
        lo = max(0, remaining - tail_cap)
        for c in range(min(caps[i], remaining), lo - 1, -1):
            if c:
                acc[i] = c
            yield from rec(i + 1, remaining - c, acc)
            acc.pop(i, None)

    yield from rec(0, total, {})


def walked_vectors(areas, oracle, max_total: int) -> int:
    """How many vectors the level walks of a search to max_total yield,
    level 0's start vector included, each level under the caps it sees: what
    `opt_value` hands its verifier when nothing verifies."""
    chains = _Chains(areas, oracle)
    return 1 + sum(1 for t in range(1, max_total + 1) for _ in _level_walk(chains.extend(t), t))


def reference_minimal_vectors(areas, oracle, verifier, max_total: int, base_counts=None):
    """optbrute's search as first written: every index's response chain is
    built to max_total entries up front on a deep copy of the oracle, then
    the count vectors are visited level by level, each level recursing over
    every index.  Yields the inclusion-minimal verifying vectors in search
    order."""
    oracle = copy.deepcopy(oracle)
    n = len(areas)
    base = [0] * n if base_counts is None else list(base_counts)
    chains = []
    for i in range(n):
        chain, cur = [], areas[i]
        for c in range(base[i] + 1, base[i] + max_total + 1):
            if cur.is_point:
                break
            cur = oracle.respond(i, c, cur)
            chain.append(cur)
        chains.append(chain)
    caps = [len(chain) for chain in chains]
    found = []
    for total in range(0, max_total + 1):
        level_open = False
        for vector in _reference_level_vectors(caps, total):
            if any(all(vector.get(i, 0) >= c for i, c in sol.items()) for sol in found):
                continue
            level_open = True
            trial = list(areas)
            for i, c in vector.items():
                trial[i] = chains[i][c - 1]
            if verifier(trial) is not None:
                found.append(vector)
                yield vector
        if not level_open and total > 0:
            return


def witness_meets_every_solution(witness, areas, oracle, verifier, max_total: int) -> bool:
    """True iff every inclusion-minimal verifying count vector of total at
    most max_total queries some index of `witness`.  That holds iff no
    verifying vector within the budget leaves the witness unqueried, although
    verifying is not monotone: every verifying vector lies above a minimal
    one, which queries no index that it does not.  So `opt_value` decides it,
    with a verifier that declines every vector changing a witness index and
    settles every index of it, since each refinement changes that index too.

    The search counts from 0 on every index whatever was queried before, so
    this holds only for an oracle whose responses do not depend on the query
    count, as a ground-truth oracle's do not."""
    witness = set(witness)
    every = (1 << len(areas)) - 1

    def avoiding(vector):
        if any(vector[i] is not areas[i] for i in witness):
            # Every refinement changes that index too: all indices settled.
            vector.settled = every
            return None
        return verifier(vector)

    return opt_value(areas, oracle, avoiding, max_total) == OptResult(None, None)


def min_tight_opt_script(adversary, case: int) -> ScriptedOracle:
    """What the colluding optimum is shown in the given branch of a
    MinTightAdversary."""
    if case == 1:
        responses = {
            i: [Area.open(6, 7)]
            for i in range(adversary.n + 1)
            if i != adversary.a0_index
        }
    elif case == 2:
        chain = [
            Area.open(1 + i * adversary.epsilon, 5) for i in range(1, adversary.n)
        ] + [Area.open(2, 3)]
        responses = {adversary.a0_index: chain}
    else:
        raise ValueError("case must be 1 or 2")
    return ScriptedOracle(responses)


def cp_anomaly_opt_script(adversary) -> ScriptedOracle:
    """What the colluding optimum of a CpAnomalyAdversary is shown."""
    responses = {i: [Area.point(2)] for i in range(adversary.n)}
    responses[adversary.n - 1] = [Area.point(1)]
    return ScriptedOracle(responses)


def cp_anomaly_revealed_hidden(adversary) -> tuple:
    """A hidden configuration consistent with every response of a
    CpAnomalyAdversary."""
    return tuple(
        Fraction(1) if i == adversary.n - 1 else Fraction(2) for i in range(adversary.n)
    )


def reference_pick_hidden(rng: random.Random, area: Area, used: set) -> Fraction:
    """Grid value inside the area, distinct from previously chosen values so
    interval-return refinement always terminates."""
    for denom in (16, 64, 256, 1024):
        lo_j = 0 if area.attains else 1
        hi_j = denom - lo_j
        offsets = list(range(lo_j, hi_j + 1))
        rng.shuffle(offsets)
        for j in offsets:
            value = area.lo + area.length * Fraction(j, denom)
            if value not in used:
                used.add(value)
                return value
    raise ConfigError("could not place a distinct hidden value")


def reference_span(rng: random.Random, overlap: float, count: int):
    """The lo and length of one of `count` areas drawn to overlap with
    density `overlap`."""
    # Every overlap of 1 or more draws width 1.  A large negative overlap
    # overflows the float product, so its exact integer is taken instead.
    spread = max(0, 1 - overlap)
    scaled = spread * count * SCALE
    width = max(1, round(scaled) if math.isfinite(scaled) else int(spread) * count * SCALE)
    return Fraction(rng.randint(0, 2 * width), 2), Fraction(rng.randint(2, 2 * SCALE), 2)


def reference_draw(rng: random.Random, lo: Fraction, length: Fraction, kinds: Sequence[str],
                   used: set, point: bool = False):
    """An area spanning lo to lo + length and its hidden value: a point, or
    an interval of a kind drawn from `kinds`."""
    if point:
        value = reference_pick_hidden(rng, Area.closed(lo, lo + length), used)
        return Area.point(value), value
    kind = rng.choice(kinds)
    area = Area.open(lo, lo + length) if kind == "O" else Area.closed(lo, lo + length)
    return area, reference_pick_hidden(rng, area, used)


def reference_generate_instance(params, seed) -> UncertainInstance:
    """harness.generate_instance as first written, drawing on Fractions."""
    model = params.model
    interval_kinds = [c for c in "OC" if c in model.input]
    if params.point_fraction > 0 and "P" not in model.input:
        raise ConfigError("point fraction needs P in the input type set")
    rng = random.Random(f"uncquery-gen:{seed}")
    used: set = set()
    drawn = []
    for i in range(params.n):
        point = "P" in model.input and (
            not interval_kinds or rng.random() < params.point_fraction)
        if params.overlap <= 0:
            span = Fraction(i * (SCALE + 2)), Fraction(rng.randint(1, SCALE))
        else:
            span = reference_span(rng, params.overlap, params.n)
        drawn.append(reference_draw(rng, *span, interval_kinds, used, point))
    problem = SelectionProblem(k=params.k, tie_rule=params.tie_rule)
    problem.validate(params.n)
    return UncertainInstance(model=model, areas=tuple(a for a, _ in drawn), problem=problem,
                             hidden=tuple(h for _, h in drawn))


def reference_generate_graph_instance(params, seed) -> UncertainInstance:
    """harness.generate_graph_instance as first written, drawing on
    Fractions."""
    rng = random.Random(f"uncquery-graph:{seed}")
    v = params.vertices
    edges = []
    for i in range(1, v):
        edges.append((rng.randrange(i), i))
    for _ in range(params.extra_edges):
        a = rng.randrange(v)
        b = rng.randrange(v)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    graph = UncertainGraph(v, tuple(edges))
    interval_kinds = [c for c in "OC" if c in params.model.input]
    used: set = set()
    drawn = [reference_draw(rng, *reference_span(rng, params.overlap, graph.n_edges),
                            interval_kinds, used, point=not interval_kinds)
             for _ in range(graph.n_edges)]
    return UncertainInstance(model=params.model, areas=tuple(a for a, _ in drawn),
                             problem=graph, hidden=tuple(h for _, h in drawn))


# ---------------------------------------------------------------------------
# The instance reader as it was when areas held Fractions: each distinct
# endpoint text parsed to a Fraction once, and each area's constructor
# coercing and checking its Fraction endpoints.


class ReferenceArea:
    """core.Area on Fraction endpoints, as its constructor, `from_json` and
    `to_json` were before the endpoints became integer pairs."""

    __slots__ = ("lo", "hi", "attains", "is_point")

    def __init__(self, lo, hi, attains: bool) -> None:
        if attains.__class__ is not bool:
            raise TypeError(f"attains must be a bool, got {attains!r}")
        if not isinstance(lo, Fraction) or not isinstance(hi, Fraction):
            lo, hi = Fraction(lo), Fraction(hi)
        p, q = lo.as_integer_ratio()
        r, s = hi.as_integer_ratio()
        width = r * q - p * s  # sign of hi - lo
        if width < 0:
            raise ValueError(f"empty area: lo={lo} > hi={hi}")
        if width == 0 and not attains:
            raise ValueError("a degenerate area is a point and must be closed at both ends")
        self.lo, self.hi, self.attains, self.is_point = lo, hi, attains, width == 0

    def to_json(self) -> dict:
        if self.is_point:
            return {"kind": "point", "value": format_rational(self.lo)}
        return {"kind": "closed" if self.attains else "open",
                "lo": format_rational(self.lo), "hi": format_rational(self.hi)}

    @staticmethod
    def from_json(data: dict, parse=parse_rational) -> "ReferenceArea":
        kind = data["kind"]
        if kind == "point":
            lo = hi = parse(data["value"])
            return ReferenceArea(lo, hi, True)
        if kind != "open" and kind != "closed":
            raise ValueError(f"unknown area kind {kind!r}")
        return ReferenceArea(parse(data["lo"]), parse(data["hi"]), kind == "closed")


def reference_instance_from_json(data: dict) -> UncertainInstance:
    """harness.instance_from_json on Fractions, its areas ReferenceAreas."""
    with _malformed("instance"):
        parsed: dict = {}

        def parse(text) -> Fraction:
            if type(text) is not str:
                return parse_rational(text)
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = parse_rational(text)
            return value

        model = ModelSpec.from_json(data["model"])
        pjson = data["problem"]
        if pjson["type"] == "kmin":
            problem = SelectionProblem(
                k=_json_value("problem.k", pjson["k"], int),
                objective=Objective(pjson.get("objective", "kmin")),
                tie_rule=TieRule(pjson.get("tie_rule", "stable")),
            )
            areas = tuple(ReferenceArea.from_json(a, parse) for a in data["areas"])
        elif pjson["type"] == "mst":
            edges = tuple((_json_value("u", e["u"], int), _json_value("v", e["v"], int))
                          for e in pjson["edges"])
            problem = UncertainGraph(_json_value("problem.vertices", pjson["vertices"], int),
                                     edges)
            if "areas" in data:
                areas = tuple(ReferenceArea.from_json(a, parse) for a in data["areas"])
            else:
                areas = tuple(ReferenceArea.from_json(e["weight"], parse)
                              for e in pjson["edges"])
        else:
            raise ConfigError(f"unknown problem type {pjson['type']!r}")
        hidden = data.get("hidden")
        if hidden is not None:
            hidden = Rationals.parse(hidden)
        return UncertainInstance(model=model, areas=areas, problem=problem, hidden=hidden)
