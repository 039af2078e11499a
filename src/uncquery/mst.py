"""Spanning trees over edges with uncertain weights.

Kruskal-style growth ordered by lower bounds under an index-breaking
comparison operator; cycles are resolved either by deleting an edge whose
lower bound dominates every other cycle edge's upper bound (the red rule) or,
when no such edge exists, by querying a two-edge witness pair.

A pass decides with exact integers: each endpoint becomes the rank
value·D·E + edge index, where D is the lcm of all endpoint denominators and E
the edge count, so every comparison of the operator is one int comparison.
In a pass ordered by lower bounds the red rule can only delete the edge that
closes the cycle, so the forest only grows: tree labels tell whether an edge
closes a cycle, and only then is the forest path walked.

After a witness round the next pass resumes rather than restarts.  It replays
the previous pass on the prefix of the edge order ahead of both queried
edges, adding or deleting each edge without a path walk or a red-rule check,
and continues from there.  This is exact: a response lies inside the queried
area, so lower bounds never decrease and every edge ahead of the queried
pair keeps its place in the order; processing such an edge reads only the
forest built from that prefix and the prefix's weights, none of which
changed.

`umst_solve` runs the algorithm on `engine.solve`: the verifier is one pass,
and the witness is the pair that pass stopped at.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import Area, IntImages, int_images
from .engine import EngineError, RunReport, SolverStrategy, solve
from .models import UncertainInstance
# Nothing here calls validate_response; engine.solve validates every
# response.  It stays importable from this module because bench/tracer.py
# binds uncquery.mst.validate_response (tests/test_tooling.py checks that
# every tracer target resolves).
from .models import validate_response  # noqa: F401


@dataclass(frozen=True)
class UncertainGraph:
    """Edge order is identity: ties in the comparison operator break toward
    the smaller edge index."""

    vertices: int
    edges: Tuple[Tuple[int, int], ...]

    kind = "mst"

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise ValueError("edge endpoint out of range")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_connected(self, active: Optional[Sequence[int]] = None) -> bool:
        if self.vertices == 0:
            return False
        idx = range(self.n_edges) if active is None else active
        adj = defaultdict(list)
        for e in idx:
            u, v = self.edges[e]
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertices


@dataclass(frozen=True)
class MstAnswer:
    tree: frozenset
    red_rule_count: int


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


def mst_witness_or_delete(cycle: Sequence[int], weights: Sequence[Area]):
    """('delete', edge) when the red rule applies, else ('witness', (f, g)).

    f is the cycle edge with the largest upper bound under the comparison
    operator; g is the smallest-index other edge whose upper bound does not
    precede f's lower bound.
    """
    if len(cycle) < 2:
        raise ValueError("a cycle needs at least two edges")
    lo_rank, hi_rank = _ranks(*int_images(weights))
    return _witness_or_delete(cycle, lo_rank, hi_rank)


def _ranks(lo_image: List[int], hi_image: List[int]) -> Tuple[List[int], List[int]]:
    """Exact integer ranks of every lo and hi endpoint: value·D·E + index,
    where value·D is the integer image (`int_images` or `IntImages`) and E
    the edge count.  Two ranks of different edges compare exactly as
    edge_prec does on their values, since the index term is below E and only
    breaks value ties."""
    n = len(lo_image)
    return (
        [v * n + e for e, v in enumerate(lo_image)],
        [v * n + e for e, v in enumerate(hi_image)],
    )


def _witness_or_delete(cycle: Sequence[int], lo_rank: List[int], hi_rank: List[int]):
    """mst_witness_or_delete on integer ranks, in O(len(cycle)).

    An edge is always maximal iff the largest other upper bound precedes its
    lower bound.  Only f, the edge with the largest upper bound, can be: any
    other edge has f's upper bound above its own upper bound, hence above its
    lower bound.  And f is iff the second-largest upper bound precedes lo(f).
    """
    f = max(cycle, key=hi_rank.__getitem__)
    lo_f = lo_rank[f]
    if max(hi_rank[c] for c in cycle if c != f) < lo_f:
        return ("delete", f)
    return ("witness", (f, min(g for g in cycle if g != f and hi_rank[g] > lo_f)))


class _Forest:
    """Kruskal forest with every tree rooted.  Parent pointers give the path
    between two vertices of one tree in O(path length); a link hangs the
    smaller tree below the larger one, re-rooted at its linked vertex, and
    relabels it, so a vertex's label names its tree."""

    def __init__(self, vertices: int) -> None:
        self.adj: List[List[Tuple[int, int]]] = [[] for _ in range(vertices)]
        self.up = [-1] * vertices
        self.up_edge = [-1] * vertices
        self.depth = [0] * vertices
        self.label = list(range(vertices))
        self.size = [1] * vertices

    def connected(self, u: int, v: int) -> bool:
        return self.label[u] == self.label[v]

    def link(self, u: int, v: int, e: int) -> None:
        label, size, up, up_edge, depth = self.label, self.size, self.up, self.up_edge, self.depth
        if size[label[u]] > size[label[v]]:
            u, v = v, u
        c = label[v]
        size[c] += size[label[u]]
        self.adj[u].append((v, e))
        self.adj[v].append((u, e))
        up[u], up_edge[u], depth[u], label[u] = v, e, depth[v] + 1, c
        stack = [u]
        while stack:
            x = stack.pop()
            for y, f in self.adj[x]:
                if label[y] != c:
                    up[y], up_edge[y], depth[y], label[y] = x, f, depth[x] + 1, c
                    stack.append(y)

    def path(self, u: int, v: int) -> List[int]:
        """Edges of the path between two vertices of one tree."""
        up, up_edge, depth = self.up, self.up_edge, self.depth
        path = []
        du, dv = depth[u], depth[v]
        for _ in range(du - dv):
            path.append(up_edge[u])
            u = up[u]
        for _ in range(dv - du):
            path.append(up_edge[v])
            v = up[v]
        while u != v:
            path.append(up_edge[u])
            path.append(up_edge[v])
            u, v = up[u], up[v]
        return path


@dataclass
class PassLog:
    """What the last pass read and how far it got, for the next pass to
    replay: the integer images of its weights (patched, not rebuilt, by the
    next pass), the edge order, and the number of edges processed before the
    witness cycle (all of them when the pass finished)."""

    images: IntImages = field(default_factory=IntImages)
    order: List[int] = field(default_factory=list)
    processed: int = 0


def mst_pass(graph: UncertainGraph, weights: Sequence[Area], log: Optional[PassLog] = None):
    """One Kruskal pass over the current weights.

    Returns ('done', tree_indices, red_rule_count) when every cycle closed
    during growth had a red-rule deletion, or ('witness', (f, g)) at the
    first cycle that needs queries to resolve.

    The red rule only ever deletes the edge closing the cycle: when e is
    processed, every other cycle edge c has lo(c) before lo(e), and lo(e) is
    not after hi(e), so hi(e) cannot precede lo(c) and c is never always
    maximal.  The forest therefore only grows, and an edge joins it iff it
    links two trees.

    With a log from an earlier pass over the same graph, the pass replays
    the longest processed prefix of that pass's order whose edges kept their
    positions and their weights (compared by identity; areas are immutable).
    Each of those edges was added or deleted without queries, so the replay
    needs only the tree labels, no path or chooser.  The log's images are
    patched for the changed weights, and the log is then overwritten with
    this pass.  The result is the same as without a log.
    """
    edges = graph.edges
    if log is None:
        lo_rank, hi_rank = _ranks(*int_images(weights))
    else:
        changed = set(log.images.update(weights))
        lo_rank, hi_rank = _ranks(log.images.lo, log.images.hi)
    order = sorted(range(graph.n_edges), key=lo_rank.__getitem__)
    replay = 0
    if log is not None:
        for e, old in zip(order, log.order[: log.processed]):
            if e != old or e in changed:
                break
            replay += 1
        log.order = order
    forest = _Forest(graph.vertices)
    tree = []
    red = 0
    for i, e in enumerate(order):
        u, v = edges[e]
        if not forest.connected(u, v):
            forest.link(u, v, e)
            tree.append(e)
            continue
        if i >= replay:
            cycle = forest.path(u, v)
            cycle.append(e)
            action, payload = _witness_or_delete(cycle, lo_rank, hi_rank)
            if action == "witness":
                if log is not None:
                    log.processed = i
                return ("witness", payload)
        red += 1
    if log is not None:
        log.processed = len(order)
    return ("done", frozenset(tree), red)


def mst_verifier(graph: UncertainGraph):
    """Verifier closure for the brute-force optimum search: the answer (the
    certified tree) once a pass needs no witness queries, else None."""

    def verify(weights: Sequence[Area]):
        result = mst_pass(graph, weights)
        if result[0] == "done":
            return result[1]
        return None

    return verify


class UmstStrategy(SolverStrategy):
    """The uncertain-MST algorithm as an engine strategy.  The verifier runs
    one pass, resumed from the previous one, and keeps its result; the
    witness is the queriable part of the pair that pass stopped at.  The
    engine calls the witness right after the verifier on the same weights.

    Both edges of a pair are queried with no pass in between.  A pass between
    them would about double the passes per solve and save about 1 % of the
    queries, and it would change the query sequence."""

    def __init__(self, graph: UncertainGraph) -> None:
        super().__init__("umst", self._verify, self._witness)
        self.graph = graph
        self.pass_log = PassLog()
        self.result: tuple = ()

    def _verify(self, weights: Sequence[Area]) -> Optional[MstAnswer]:
        self.result = mst_pass(self.graph, weights, self.pass_log)
        if self.result[0] == "done":
            return MstAnswer(self.result[1], self.result[2])
        return None

    def _witness(self, weights: Sequence[Area]) -> List[int]:
        return [e for e in self.result[1] if not weights[e].is_point]

    def queries(self, weights: List[Area], witness: List[int]) -> List[int]:
        return witness


def umst_solve(
    instance: UncertainInstance, oracle, budget: int
) -> Tuple[RunReport, Optional[MstAnswer]]:
    """Grow, resolve cycles, query witness pairs until a pass completes.

    The report's answer is None; the certified tree and its red-rule count
    come back as the MstAnswer, or None when the budget runs out.
    """
    graph = instance.problem
    if not isinstance(graph, UncertainGraph):
        raise EngineError("instance problem is not an uncertain graph")
    if not graph.is_connected():
        raise EngineError("graph must be connected")
    report = solve(instance, oracle, UmstStrategy(graph), budget)
    return replace(report, answer=None), report.answer
