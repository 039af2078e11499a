"""Selection verifiers and witness choosers: the plain and lexicographic
1-Min / k-Min witness pairs and the additive-guarantee bypass choosers.  The
rules read a SelectionState, which a strategy patches across one solve and
which, mirrored, turns k-th-max questions into k-th-min ones."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence

# Nothing here calls order_l or order_u.  They stay importable from this
# module because bench/tracer.py binds uncquery.selection.order_l and
# order_u (tests/test_tooling.py checks that every tracer target resolves).
from .core import (  # noqa: F401
    REBUILD_SHARE, AreaVector, IntImages, TieRule, _check_subset, lo_rank, lo_ranks, order_l,
    order_u,
)
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


class SelectionState:
    """A vector's integer images and its lo order, patched across the
    verifier and witness calls of one solve.

    `update(areas)` brings the state up to a vector and returns it; the
    verifier and the witness choosers accept the result in place of the
    vector.  Only the entries whose area changed are re-imaged (see
    core.IntImages), taken out of the lo order and inserted again by
    bisection.  The order is sorted afresh only when the length changed or
    more than one entry in REBUILD_SHARE did.

    Under the max objective the state describes the mirrored vector, so the
    k-min rules answer the k-max question: the images are negated and
    swapped, and so are the attains flags.
    """

    __slots__ = ("images", "tie_rule", "kmax", "lo", "hi", "rank", "order")

    def __init__(
        self, tie_rule: TieRule = TieRule.STABLE, objective: Objective = Objective.KTH_MIN
    ) -> None:
        self.images = IntImages()
        self.tie_rule = tie_rule
        self.kmax = objective is Objective.KTH_MAX
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.rank: List[int] = []  # core.lo_ranks by index
        self.order: List[int] = []  # ascending by rank, ties to the smaller index

    def attains_lo(self, i: int) -> bool:
        a = self.images.areas[i]
        return a.attains_hi if self.kmax else a.attains_lo

    def attains_hi(self, i: int) -> bool:
        a = self.images.areas[i]
        return a.attains_lo if self.kmax else a.attains_hi

    def _rank(self, i: int) -> int:
        a = self.images.areas[i]
        return lo_rank(self.lo[i], a.hi_kind if self.kmax else a.lo_kind, self.tie_rule)

    def _key(self, i: int) -> int:
        return self.rank[i] * len(self.rank) + i

    def update(self, areas: AreaVector) -> "SelectionState":
        changed = self.images.update(areas)
        n = len(self.images.lo)
        if len(self.order) != n or REBUILD_SHARE * len(changed) > n:
            self._read_images()
            # A stable sort of ascending indices breaks rank ties by index.
            self.order = sorted(range(n), key=self.rank.__getitem__)
            return self
        order = self.order
        for i in changed:
            order.remove(i)
        # Unchanged entries keep their order even when the images are
        # renumbered, since the images always order as the values do.
        if self.images.renumbered:
            self._read_images()
        else:
            for i in changed:
                if self.kmax:
                    self.lo[i], self.hi[i] = -self.images.hi[i], -self.images.lo[i]
                self.rank[i] = self._rank(i)
        for i in changed:
            order.insert(bisect_left(order, self._key(i), key=self._key), i)
        return self

    def _read_images(self) -> None:
        self.lo, self.hi = self.images.lo, self.images.hi
        if self.kmax:
            self.lo, self.hi = [-v for v in self.hi], [-v for v in self.lo]
        kinds = map(attrgetter("hi_kind" if self.kmax else "lo_kind"), self.images.areas)
        self.rank = lo_ranks(self.lo, kinds, self.tie_rule)

    def lo_order(self, subset: Optional[Iterable[int]]) -> List[int]:
        if subset is None:
            return self.order
        return sorted(_check_subset(self.lo, subset), key=self._key)


def _state(areas, tie_rule: TieRule) -> SelectionState:
    """The state a rule reads: `areas` itself when a strategy passes its
    patched state, else one built from scratch."""
    if isinstance(areas, SelectionState):
        if areas.tie_rule is not tie_rule:
            raise ValueError(f"state ordered by {areas.tie_rule}, asked for {tie_rule}")
        return areas
    return SelectionState(tie_rule).update(areas)


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


def min1_verifier(areas: AreaVector, tie_rule: TieRule = TieRule.STABLE) -> Optional[int]:
    return kmin_verifier(areas, 1, tie_rule)


def _first_nonpoints(
    ordering: Iterable[int], lo: Sequence[int], hi: Sequence[int], limit: int
) -> List[int]:
    return list(islice((i for i in ordering if lo[i] != hi[i]), limit))


def _two_heads(ordering: Iterable[int], lo: Sequence[int], hi: Sequence[int]) -> List[int]:
    picked = _first_nonpoints(ordering, lo, hi, 2)
    if not picked:
        raise ValueError("no queriable area available for a witness set")
    return picked


def _max_u(s: SelectionState, members: Sequence[int], tie_rule: TieRule) -> int:
    """order_u(areas, members, tie_rule)[-1] in O(len(members)): the largest
    hi; among ties, under lex an area attaining it, then the larger index."""
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


def min1_witness(
    areas: AreaVector,
    tie_rule: TieRule = TieRule.STABLE,
    subset: Optional[Sequence[int]] = None,
) -> List[int]:
    """The two lo-order heads, skipping point areas (points are unqueriable)."""
    s = _state(areas, tie_rule)
    return _two_heads(s.lo_order(subset), s.lo, s.hi)


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
    pk = order[k - 1]
    if k > 1:
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
# Strategy registry for the engine and the CLI.

from .engine import SolverStrategy, alternate  # noqa: E402


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


def _states(objective: Objective) -> dict:
    """One SelectionState per tie rule, shared by the rules of a strategy."""
    return {tie_rule: SelectionState(tie_rule, objective) for tie_rule in TieRule}


def _verifier(states: dict, k: int, tie_rule: TieRule):
    state = states[tie_rule]
    return lambda areas: kmin_verifier(state.update(areas), k, tie_rule)


def selection_verifier(problem: SelectionProblem, tie_rule: TieRule):
    """The problem's verifier under a tie rule: k-th smallest, or k-th
    largest on the mirrored state.  It patches its state from call to call."""
    return _verifier(_states(problem.objective), problem.k, tie_rule)


STRATEGY_NAMES = (
    "min1-witness",
    "kmin-witness",
    "min1-bypass",
    "kmin-bypass",
    "min1-lex",
    "kmin-lex",
    "opop-alternate",
)


def make_strategy(name: str, problem: SelectionProblem) -> SolverStrategy:
    """Build a named selection strategy bound to the problem's parameters.
    Its verifier and witness chooser share one state per tie rule."""
    return _make_strategy(name, problem, _states(problem.objective))


def _make_strategy(name: str, problem: SelectionProblem, states: dict) -> SolverStrategy:
    k = problem.k
    if name.startswith("min1") and k != 1:
        raise ValueError(f"{name} requires k=1, got k={k}")
    tie = problem.tie_rule
    if name.endswith("-lex"):
        tie = TieRule.LEX

    verifier = _verifier(states, k, tie)
    state, stable = states[tie], states[TieRule.STABLE]

    if name in ("min1-witness", "min1-lex"):
        witness = lambda areas: min1_witness(state.update(areas), tie)  # noqa: E731
        return SolverStrategy(name, verifier, witness, k_bound=2)
    if name in ("kmin-witness", "kmin-lex"):
        witness = lambda areas: kmin_witness(state.update(areas), k, tie)  # noqa: E731
        return SolverStrategy(name, verifier, witness, k_bound=2)
    if name == "min1-bypass":
        witness = lambda areas: min1_bypass_witness(stable.update(areas))  # noqa: E731
        return SolverStrategy(name, verifier, witness, k_bound=1, model_check=require_op_p)
    if name == "kmin-bypass":
        witness = lambda areas: kmin_bypass_witness(stable.update(areas), k)  # noqa: E731
        return SolverStrategy(name, verifier, witness, k_bound=1, model_check=require_op_p)
    if name == "opop-alternate":
        bypass_name = "min1-bypass" if k == 1 else "kmin-bypass"
        witness_name = "min1-witness" if k == 1 else "kmin-witness"
        # alternate() drops the bypass's OP-P restriction: lifting it is the
        # point of alternation.
        bypass = _make_strategy(bypass_name, problem, states)
        paired = _make_strategy(witness_name, problem, states)
        combined = alternate(bypass, paired, name="opop-alternate")
        combined.model_check = _require_op_family
        return combined
    raise ValueError(f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}")
