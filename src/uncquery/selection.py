"""Selection verifiers and witness choosers: the plain and lexicographic
1-Min / k-Min witness pairs and the additive-guarantee bypass choosers.  The
rules read a core.VectorState, which a strategy patches across one solve and
which, mirrored, turns k-th-max questions into k-th-min ones."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, List, Optional, Sequence

# Nothing here calls order_l or order_u.  They stay importable from this
# module because bench/tracer.py binds uncquery.selection.order_l and
# order_u (tests/test_tooling.py checks that every tracer target resolves).
from .core import (  # noqa: F401
    AreaVector, TieRule, VectorState, order_l, order_u,
)
from .engine import Algorithm, SolverStrategy
from .models import ModelCategory, ModelSpec, classify_model


class Objective(Enum):
    KTH_MIN = "kmin"
    KTH_MAX = "kmax"


@dataclass(frozen=True)
class SelectionProblem:
    k: int
    objective: Objective = Objective.KTH_MIN
    tie_rule: TieRule = TieRule.STABLE

    kind = "kmin"

    def validate(self, n: int) -> None:
        if not 1 <= self.k <= n:
            raise ValueError(f"k={self.k} out of range for n={n}")


def _state(areas, tie_rule: TieRule) -> VectorState:
    """The state a rule reads: `areas` itself when a strategy passes its
    patched state, else one built from scratch."""
    if isinstance(areas, VectorState):
        if areas.tie_rule is not tie_rule:
            raise ValueError(f"state ordered by {areas.tie_rule}, asked for {tie_rule}")
        return areas
    return VectorState(tie_rule).update(areas)


def kmin_verifier(
    areas: AreaVector, k: int, tie_rule: TieRule = TieRule.STABLE
) -> Optional[int]:
    """Answer index if the k-th smallest is already determined, else None.

    Under the lex tie rule a determined answer is the lex-first valid one:
    competitors with a smaller index need only a non-strict separation, those
    with a larger index a strict one.
    """
    s = _state(areas, tie_rule)
    order, lo, hi = s.order, s.lo, s.hi
    n = len(order)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    pk = order[k - 1]
    lo_pk, hi_pk = lo[pk], hi[pk]
    # Separations are non-strict except, under lex, against the competitors
    # that need a strict one; a strict separation fails on an equal endpoint
    # value iff both areas attain it (surely_lt).
    lex = tie_rule is TieRule.LEX
    prefix = order[: k - 1]
    if prefix:
        top = max(map(hi.__getitem__, prefix))
        if top > lo_pk or (
            lex and top == lo_pk and s.attains_lo(pk)
            and any(i > pk and hi[i] == lo_pk and s.attains_hi(i) for i in prefix)
        ):
            return None
    for j in islice(order, k, None):
        if lo[j] > hi_pk:
            break  # the tail is sorted by lo, so the rest lies strictly above
        if lo[j] < hi_pk or (lex and j < pk and s.attains_hi(pk) and s.attains_lo(j)):
            return None
    return pk


def _first_nonpoints(
    ordering: Iterable[int], lo: Sequence[int], hi: Sequence[int], limit: int
) -> List[int]:
    return list(islice((i for i in ordering if lo[i] != hi[i]), limit))


def _two_heads(ordering: Iterable[int], lo: Sequence[int], hi: Sequence[int]) -> List[int]:
    picked = _first_nonpoints(ordering, lo, hi, 2)
    if not picked:
        raise ValueError("no queriable area available for a witness set")
    return picked


def _max_u(s: VectorState, members: Sequence[int], tie_rule: TieRule) -> int:
    """The last of `members` in order_u's order, in O(len(members)): the
    largest hi; among ties, under lex an area attaining it, then the larger
    index."""
    hi = s.hi
    top = max(map(hi.__getitem__, members))
    tied = [i for i in members if hi[i] == top]
    if tie_rule is TieRule.LEX:
        tied = [i for i in tied if s.attains_hi(i)] or tied
    return max(tied)


def _max_hi_head(members: Iterable[int], lo: Sequence[int], hi: Sequence[int]) -> List[int]:
    """The queriable member with the largest hi, ties to the smaller index."""
    picked = [i for i in members if lo[i] != hi[i]]
    if not picked:
        raise ValueError("no queriable area available")
    top = max(map(hi.__getitem__, picked))
    return [min(i for i in picked if hi[i] == top)]


def min1_witness(areas: AreaVector, tie_rule: TieRule = TieRule.STABLE) -> List[int]:
    """The two lo-order heads, skipping point areas (points are unqueriable):
    the k-Min pair at k = 1."""
    return kmin_witness(areas, 1, tie_rule)


def kmin_witness(
    areas: AreaVector, k: int, tie_rule: TieRule = TieRule.STABLE
) -> List[int]:
    """Witness pair for k-Min.

    If the k-1 smallest-by-lo areas are surely below everything else, the
    problem reduces to 1-Min on the rest.  Otherwise pair the k-th head with
    the member of the prefix having the largest u value.

    The separation test is O(k): every prefix area is surely at most every
    tail area iff max(hi over the prefix) <= min(lo over the tail), and the
    smallest lo of the tail is its head's.  An empty prefix is separated.
    """
    s = _state(areas, tie_rule)
    order, lo, hi = s.order, s.lo, s.hi
    if k > 1:
        pk = order[k - 1]
        q1 = _max_u(s, order[: k - 1], tie_rule)
        if hi[q1] > lo[pk]:
            # Not separated.  q1 is never a point: hi(q1) > lo(pk) >= lo(q1),
            # since the prefix precedes pk in lo order.  Only pk can be one,
            # so the pair always holds a queriable area.
            return [q1] if lo[pk] == hi[pk] else [pk, q1]
    return _two_heads(islice(order, k - 1, None), lo, hi)


def min1_bypass_witness(areas: AreaVector) -> List[int]:
    """Singleton lo-order head; additive (OPT+1) guarantee, OP-P only."""
    s = _state(areas, TieRule.STABLE)
    picked = _first_nonpoints(s.order, s.lo, s.hi, 1)
    if not picked:
        raise ValueError("no queriable area available")
    return picked


def kmin_bypass_witness(areas: AreaVector, k: int) -> List[int]:
    """Singleton chooser for k-Min with an OPT + min{k, n-k} guarantee.

    While the k smallest-by-lo areas are not surely below the rest, query the
    one among them with the largest u value; once they are separated, run the
    1-Max bypass inside that prefix.

    The separation test is O(k), as in kmin_witness: max(hi over the prefix)
    <= the smallest lo of the rest, which is its head's.  An empty rest is
    separated.
    """
    s = _state(areas, TieRule.STABLE)
    order, lo, hi = s.order, s.lo, s.hi
    prefix = order[:k]
    if k < len(order):
        q = _max_u(s, prefix, TieRule.STABLE)
        if hi[q] > lo[order[k]]:
            # Not separated, so q is not a point: hi(q) > lo(order[k]) >= lo(q).
            return [q]
    return _max_hi_head(prefix, lo, hi)


# ---------------------------------------------------------------------------
# The selection algorithms for the engine and the CLI.


def require_op_p(spec: ModelSpec) -> Optional[str]:
    """The bypass strategies' model restriction: None under OP-P, else why
    the model is refused."""
    if classify_model(spec) is not ModelCategory.OP_P:
        return (
            f"bypass strategies diverge once queries may return intervals; "
            f"model {spec} is refused (OP-P only)"
        )
    return None


def _require_op_family(spec: ModelSpec) -> Optional[str]:
    if classify_model(spec) not in (ModelCategory.OP_OP, ModelCategory.OP_P):
        return f"alternation is defined for the OP-OP model, got {spec}"
    return None


# Each selection algorithm's witness size, model restriction and bound.
# Alternation lifts the bypass's OP-P restriction: that is its point.
SELECTION_ALGORITHMS = {
    "kmin-witness": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt),
    "min1-witness": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt),
    "min1-bypass": Algorithm(1, require_op_p, lambda q, opt, k, n: q <= opt + 1),
    "kmin-bypass": Algorithm(1, require_op_p, lambda q, opt, k, n: q <= opt + min(k, n - k)),
    "min1-lex": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt),
    "kmin-lex": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt),
    "opop-alternate": Algorithm(2, _require_op_family, lambda q, opt, k, n: q <= 2 * (opt + k)),
}

STRATEGY_NAMES = tuple(SELECTION_ALGORITHMS)


class AlternatingWitness:
    """Strictly alternates two witness choosers across engine iterations."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.turn = 0

    def reset(self) -> None:
        self.turn = 0

    def __call__(self, areas: AreaVector) -> Sequence[int]:
        chooser = self.first if self.turn % 2 == 0 else self.second
        self.turn += 1
        return chooser(areas)


def _verifier(state: VectorState, k: int, tie_rule: TieRule):
    return lambda areas: kmin_verifier(state.update(areas), k, tie_rule)


def _witness(name: str, k: int, tie: TieRule, states: dict):
    """The named strategy's witness chooser.  It looks its rule up by name
    on every call, so a rule rebound on this module is the one that runs."""
    state, stable = states[tie], states[TieRule.STABLE]
    if name.endswith(("-witness", "-lex")):  # a min1 name has k = 1
        return lambda areas: kmin_witness(state.update(areas), k, tie)
    if name == "min1-bypass":
        return lambda areas: min1_bypass_witness(stable.update(areas))
    if name == "kmin-bypass":
        return lambda areas: kmin_bypass_witness(stable.update(areas), k)
    # opop-alternate: the bypass of its family and the witness pair in turn.
    bypass = _witness("min1-bypass" if k == 1 else "kmin-bypass", k, tie, states)
    return AlternatingWitness(bypass, _witness("kmin-witness", k, tie, states))


def make_strategy(name: str, problem: SelectionProblem) -> SolverStrategy:
    """Build a named selection strategy bound to the problem's parameters:
    the k-th smallest, or the k-th largest on the mirrored state.  Its
    verifier and witness chooser share one state per tie rule, patched from
    call to call."""
    algorithm = SELECTION_ALGORITHMS.get(name)
    if algorithm is None:
        raise ValueError(f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}")
    k = problem.k
    if name.startswith("min1") and k != 1:
        raise ValueError(f"{name} requires k=1, got k={k}")
    tie = TieRule.LEX if name.endswith("-lex") else problem.tie_rule
    kmax = problem.objective is Objective.KTH_MAX
    states = {tie_rule: VectorState(tie_rule, kmax) for tie_rule in TieRule}
    return SolverStrategy(
        name, _verifier(states[tie], k, tie), _witness(name, k, tie, states),
        algorithm.k_bound, algorithm.model_check,
    )
