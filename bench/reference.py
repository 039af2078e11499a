"""Reference answers computed from the hidden values alone.

Nothing here calls a solver: the k-th value comes from a plain sort, the tree
from a textbook Kruskal run with union-find, and the competitive bounds are the
paper's formulas written out again.  The benchmark judges every operation
against these, so a solver bug cannot hide behind its own verifier.
"""
from __future__ import annotations

from typing import Optional, Sequence

# Paper bounds on the query count q, given OPT, k and n.
BOUNDS = {
    "min1-witness": lambda q, opt, k, n: q <= 2 * opt,
    "kmin-witness": lambda q, opt, k, n: q <= 2 * opt,
    "min1-lex": lambda q, opt, k, n: q <= 2 * opt,
    "kmin-lex": lambda q, opt, k, n: q <= 2 * opt,
    "min1-bypass": lambda q, opt, k, n: q <= opt + 1,
    "kmin-bypass": lambda q, opt, k, n: q <= opt + min(k, n - k),
    "opop-alternate": lambda q, opt, k, n: q <= 2 * (opt + k),
    "umst": lambda q, opt, k, n: q <= 2 * opt,
}


def kth_index(hidden: Sequence, k: int, objective: str = "kmin") -> int:
    """0-based index of the k-th smallest (or, for "kmax", k-th largest)
    hidden value.  The values must be distinct, so the answer is unique."""
    if len(set(hidden)) != len(hidden):
        raise ValueError("hidden values are not distinct; the k-th is ambiguous")
    order = sorted(range(len(hidden)), key=lambda i: hidden[i], reverse=objective == "kmax")
    return order[k - 1]


def kruskal_tree(vertices: int, edges: Sequence, weights: Sequence) -> frozenset:
    """Edge indices of the minimum spanning tree under `weights`, ties going
    to the smaller edge index."""
    parent = list(range(vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for e in sorted(range(len(edges)), key=lambda e: (weights[e], e)):
        ru, rv = find(edges[e][0]), find(edges[e][1])
        if ru != rv:
            parent[ru] = rv
            tree.append(e)
    if len(tree) != vertices - 1:
        raise ValueError("graph is not connected")
    return frozenset(tree)


def check_solve_output(rc: int, out: Optional[dict], expected) -> Optional[str]:
    """Reason a CLI solve result is wrong, or None.

    `expected` is a 0-based answer index for selection, or a frozenset of
    0-based edge indices for a spanning tree.  The CLI reports 1-based.
    """
    if rc != 0:
        return f"exit code {rc}"
    if out is None:
        return "no JSON on stdout"
    if out.get("status") != "solved":
        return f"status {out.get('status')!r}"
    if out.get("total") != len(out.get("queries", ())):
        return "total differs from the number of logged queries"
    if isinstance(expected, frozenset):
        tree = out.get("tree")
        if tree != sorted(e + 1 for e in expected):
            return f"tree {tree} is not the minimum spanning tree"
        return None
    if out.get("answer") != expected + 1:
        return f"answer {out.get('answer')} != expected {expected + 1}"
    return None


def check_trial(
    algorithm: str, solved: bool, answer_ok: bool, queries: int,
    opt: Optional[int], k: int, n: int,
) -> Optional[str]:
    """Reason a competition trial fails, or None."""
    if not solved:
        return "algorithm did not solve within its budget"
    if not answer_ok:
        return "wrong answer"
    if opt is None:
        return "no OPT within the search budget"
    if not BOUNDS[algorithm](queries, opt, k, n):
        return f"bound violated: {queries} queries against OPT {opt}"
    return None
