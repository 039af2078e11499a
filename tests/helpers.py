"""Shared test utilities: exhaustive realization checking, affine maps, and
the restart-from-scratch uMST pass that the resumable one is checked against."""
from collections import defaultdict
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence

from uncquery.core import Area, TieRule
from uncquery.models import validate_response
from uncquery.mst import always_maximal, edge_prec


def sample_values(area: Area) -> List[Fraction]:
    """Representative exact values of an area: attained endpoints, near-endpoint
    interior points, and the midpoint.  Enough to witness every strict/non-strict
    ordering disagreement between areas with rational endpoints."""
    if area.is_point:
        return [area.lo]
    out = []
    quarter = area.length / 4
    if area.attains_lo:
        out.append(area.lo)
    out.append(area.lo + quarter / 64)
    out.append(area.lo + 2 * quarter)
    out.append(area.hi - quarter / 64)
    if area.attains_hi:
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
    """Strictly increasing affine image; preserves kinds and order relations."""
    assert m > 0
    return Area(m * area.lo + b, m * area.hi + b, area.lo_kind, area.hi_kind)


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


def reference_mst_pass(graph, weights: Sequence[Area]):
    """One Kruskal pass from scratch: a Fraction sort, a forest search for
    every edge and the definitional chooser.  Same contract as mst_pass."""
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
            return ("witness", payload)
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


def reference_umst(instance, oracle, budget: int):
    """The uMST query loop restarting reference_mst_pass every round.
    Returns (query log, tree, red-rule count); tree and count are None when
    the budget runs out."""
    weights = list(instance.areas)
    counts = {}
    log = []
    while True:
        result = reference_mst_pass(instance.problem, weights)
        if result[0] == "done":
            return log, result[1], result[2]
        queriable = [e for e in sorted(result[1]) if not weights[e].is_point]
        assert queriable, "witness pair contains no queriable edge"
        for e in queriable:
            if len(log) >= budget:
                return log, None, None
            counts[e] = counts.get(e, 0) + 1
            response = oracle.respond(e, counts[e], weights[e])
            assert validate_response(instance.model, weights[e], response) is None
            weights[e] = response
            log.append((e, response))
