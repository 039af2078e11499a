"""Spanning trees over edges with uncertain weights.

Kruskal-style growth ordered by lower bounds under an index-breaking
comparison operator; cycles are resolved either by deleting an edge whose
lower bound dominates every other cycle edge's upper bound (the red rule) or,
when no such edge exists, by querying a two-edge witness pair.

A pass decides with exact integers.  It reads a `core.VectorState` of the
weights, whose lo order is the operator's order of lower bounds (equal values
toward the smaller index).  A cycle's chooser ranks only the cycle's edges,
as image·E + edge index with E the edge count, so every comparison of the
operator is one int comparison.  In a pass ordered by lower bounds the red
rule can only delete the edge that closes the cycle, so the forest only
grows: tree labels tell whether an edge closes a cycle, and only then is the
forest path walked.  The red rule then reads on the path maximum: the closing
edge e is deleted iff the largest upper bound on the forest path between its
ends precedes lo(e).  The walk stops at the first path edge whose upper bound
does not, and the pass stops there without choosing: only a solve's witness
step lists that cycle and ranks its witness pair.

After a witness round the next pass resumes rather than restarts.  It keeps
the previous pass's forest on the prefix of the edge order ahead of both
queried edges, undoes the links made past it, and continues from there.
The state gives that prefix's end: patching its order for the queried
edges by bisection, sorting nothing, it records in `first_moved` the
lowest old position it took an edge from.  This is exact: a response lies
inside the queried area, so lower bounds never decrease and every edge
ahead of the queried pair keeps its place in the order; processing such an
edge reads only the forest built from that prefix and the prefix's
weights, none of which changed.  A tree's label is its root, so an undone
link re-roots the hung tree at its old root.

`umst_solve` runs the algorithm on `engine.solve`: the verifier is one pass,
and the witness is the pair of the cycle that pass stopped at.  `mst_verifier`,
the OPT search's verifier, is one more such strategy whose witness is never
called.  A pass resumes only along a solve's areas; every other weight
vector, an OPT search's among them, starts afresh.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from .core import Area, VectorState
from .engine import Algorithm, EngineError, RunReport, SolverStrategy, solve
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

    def validate(self, n: int) -> None:
        if n != self.n_edges:
            raise ValueError(f"{n} weights for {self.n_edges} edges; give one weight per edge")
        if not self.is_connected():
            raise ValueError("graph must be connected")

    def is_connected(self) -> bool:
        """Whether the edges span every vertex: a Kruskal forest over them
        makes V - 1 links.  Fewer than V - 1 edges cannot, and are refused
        before the O(V) forest is built."""
        if self.n_edges < self.vertices - 1:
            return False
        forest = _Forest(self.vertices)
        label = forest.label
        for e, (u, v) in enumerate(self.edges):
            if label[u] != label[v]:
                forest.link(u, v, e, e)
        return len(forest.links) == self.vertices - 1


@dataclass(frozen=True)
class MstAnswer:
    tree: frozenset
    red_rule_count: int


def _witness_pair(cycle: Sequence[int], lo: List[int], hi: List[int]) -> Tuple[int, int]:
    """The witness pair (f, g) of a cycle that has no always-maximal edge,
    on the integer images of the weights, in O(len(cycle)).

    f is the cycle edge with the largest upper bound under the comparison
    operator; g is the smallest-index other edge whose upper bound does not
    precede f's lower bound.

    Each cycle edge c's upper bound is ranked as hi(c)·E + c, E the edge
    count, and f's lower bound as lo(f)·E + f.  Two ranks of different edges
    compare as the comparison operator does on their values, since the index
    term is below E and only breaks value ties.

    An edge is always maximal iff the largest other upper bound precedes its
    lower bound.  Only f, the edge with the largest upper bound, can be: any
    other edge has f's upper bound above its own upper bound, hence above its
    lower bound.  So when no edge is, g exists.
    """
    n = len(lo)
    f = max(cycle, key=lambda c: hi[c] * n + c)
    lo_f = lo[f] * n + f
    return f, min(c for c in cycle if c != f and hi[c] * n + c > lo_f)


class _Forest:
    """Kruskal forest with every tree rooted at the vertex that labels it.
    Parent pointers give the path between two vertices of one tree in
    O(path length).  A link hangs the smaller tree below the larger one,
    re-rooted at its linked vertex, so the larger tree keeps its root and
    label; it is recorded as (position, hung vertex, far vertex, old root),
    and undoing it re-roots the hung tree at its old root.  A one-vertex
    tree is hung and unhung by setting its four fields, with no walk."""

    def __init__(self, vertices: int) -> None:
        self.adj: List[List[Tuple[int, int]]] = [[] for _ in range(vertices)]
        self.up = [-1] * vertices
        self.up_edge = [-1] * vertices
        self.depth = [0] * vertices
        self.label = list(range(vertices))
        self.size = [1] * vertices
        self.links: List[Tuple[int, int, int, int]] = []

    def link(self, u: int, v: int, e: int, pos: int) -> None:
        label, size = self.label, self.size
        if size[label[u]] > size[label[v]]:
            u, v = v, u
        root, c = label[u], label[v]
        self.links.append((pos, u, v, root))
        self.adj[u].append((v, e))
        self.adj[v].append((u, e))
        if size[root] == 1:
            self.up[u], self.up_edge[u], self.depth[u], label[u] = v, e, self.depth[v] + 1, c
        else:
            self._hang(u, v, e, self.depth[v] + 1, c)
        size[c] += size[root]

    def undo_from(self, pos: int) -> None:
        while self.links and self.links[-1][0] >= pos:
            _, u, v, root = self.links.pop()
            self.adj[u].pop()
            self.adj[v].pop()
            self.size[self.label[v]] -= self.size[root]
            if self.size[root] == 1:
                self.up[u], self.up_edge[u], self.depth[u], self.label[u] = -1, -1, 0, u
            else:
                self._hang(root, -1, -1, 0, root)

    def _hang(self, x: int, parent: int, e: int, d: int, c: int) -> None:
        """Root x's tree at x, below parent by edge e at depth d, labelled c."""
        label, up, up_edge, depth, adj = self.label, self.up, self.up_edge, self.depth, self.adj
        up[x], up_edge[x], depth[x], label[x] = parent, e, d, c
        stack = [x]
        while stack:
            x = stack.pop()
            for y, f in adj[x]:
                if label[y] != c:
                    up[y], up_edge[y], depth[y], label[y] = x, f, depth[x] + 1, c
                    stack.append(y)

    def path_below(self, u: int, v: int, hi: List[int], bound: int) -> bool:
        """Whether every edge c of the path between two vertices of one tree
        ranks hi[c]·E + c below `bound`, E = len(hi); the walk stops at the
        first edge that does not."""
        up, up_edge, depth, n = self.up, self.up_edge, self.depth, len(hi)
        if depth[u] < depth[v]:
            u, v = v, u
        for _ in range(depth[u] - depth[v]):
            c = up_edge[u]
            if hi[c] * n + c >= bound:
                return False
            u = up[u]
        while u != v:
            c, d = up_edge[u], up_edge[v]
            if hi[c] * n + c >= bound or hi[d] * n + d >= bound:
                return False
            u, v = up[u], up[v]
        return True

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
    """What the last pass over `graph` read and how far it got, for the next
    pass to resume from: the state of its weights, whose lo order is the
    pass's edge order (patched by the next pass along a solve's write log,
    rebuilt on any other vector), the number of edges processed before the
    witness cycle (all of them when the pass finished), and the forest the
    pass built."""

    graph: UncertainGraph
    state: VectorState = field(default_factory=VectorState)
    processed: int = 0
    _forest: Optional[_Forest] = field(default=None, init=False, repr=False)


def mst_pass(log: PassLog, weights: Sequence[Area]):
    """One Kruskal pass over the current weights of the log's graph.

    Returns ('done', tree_indices, red_rule_count) when every cycle closed
    during growth had a red-rule deletion, or ('witness', e) at the first
    cycle that needs queries to resolve, e the edge that closes it.  The
    pass does not list that cycle or choose its witness pair: the log's
    forest and state keep what `UmstStrategy`'s witness reads for that.

    The red rule only ever deletes the edge closing the cycle: when e is
    processed, every other cycle edge c has lo(c) before lo(e), and lo(e) is
    not after hi(e), so hi(e) cannot precede lo(c) and c is never always
    maximal.  The forest therefore only grows, and an edge joins it iff it
    links two trees; every other processed edge was deleted, so the red-rule
    count is the processed edges less the links.

    So e, closing a cycle, is deleted iff it is always maximal: iff every
    edge c of the forest path between its ends has hi(c) before lo(e), that
    is iff the path maximum of hi·E + c lies below lo(e)·E + e.  The path
    walk stops at the first edge not below, and so does the pass.

    The log's state is brought up to the weights, and the pass resumes at
    the lesser of the state's `first_moved` and the log's `processed`: the
    end of the last pass's processed prefix whose edges kept their
    positions and weights.  `first_moved` is 0 unless the weights are a
    solve's `LoggedVector` read again.  The pass undoes the log forest's
    links past that point, goes on from there and overwrites the log.  A
    fresh log replays nothing; the result is the same with any log of the
    graph.
    """
    edges = log.graph.edges
    state = log.state.update(weights)
    order = state.order
    replay = min(state.first_moved, log.processed)
    forest = log._forest if replay else _Forest(log.graph.vertices)
    forest.undo_from(replay)
    log._forest = forest
    lo, hi, label, n = state.lo, state.hi, forest.label, len(order)
    for i in range(replay, n):
        e = order[i]
        u, v = edges[e]
        if label[u] != label[v]:
            forest.link(u, v, e, i)
        elif not forest.path_below(u, v, hi, lo[e] * n + e):
            log.processed = i
            return ("witness", e)
    log.processed = len(order)
    return ("done", frozenset(order[p] for p, *_ in forest.links), len(order) - len(forest.links))


# The uncertain-MST algorithm's witness size, model restriction and bound.
MST_ALGORITHMS = {"umst": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt)}


class UmstStrategy(SolverStrategy):
    """The uncertain-MST algorithm as an engine strategy.  The verifier runs
    one pass, resumed from the previous one.  The witness lists the cycle
    that pass stopped at, closed by the edge at `processed` in the order of
    the log's state, from the log's forest, ranks it on the log's state with `_witness_pair`, and
    returns the queriable part of the pair.  The engine calls the witness
    right after the verifier on the same weights, so forest and state are
    still those of the pass; the OPT search calls only the verifier, so its
    passes never list a cycle.

    Both edges of a pair are queried with no pass in between: `recheck` is
    off.  A pass between them would about double the passes per solve and
    save about 1 % of the queries, and it would change the query sequence."""

    recheck = False

    def __init__(self, graph: UncertainGraph) -> None:
        umst = MST_ALGORITHMS["umst"]
        super().__init__("umst", self._verify, self._pair, umst.k_bound, umst.categories)
        self.pass_log = PassLog(graph)

    def _verify(self, weights: Sequence[Area]) -> Optional[MstAnswer]:
        result = mst_pass(self.pass_log, weights)
        return MstAnswer(*result[1:]) if result[0] == "done" else None

    def _pair(self, weights: Sequence[Area]) -> List[int]:
        log = self.pass_log
        e = log.state.order[log.processed]
        u, v = log.graph.edges[e]
        pair = _witness_pair(log._forest.path(u, v) + [e], log.state.lo, log.state.hi)
        return [c for c in pair if not weights[c].is_point]


def mst_verifier(graph: UncertainGraph):
    """The verifier of one UmstStrategy, for the OPT search: the MstAnswer
    once a pass needs no witness queries, else None.  Its passes share one
    log but start afresh, since no vector of the search is a solve's."""
    return UmstStrategy(graph).verifier


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
    report = solve(instance, oracle, UmstStrategy(graph), budget)
    return replace(report, answer=None), report.answer
