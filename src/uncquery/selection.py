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
    AreaVector, ImagedVector, LoggedVector, TieRule, VectorState, order_l, order_u,
)
from .engine import Algorithm, SolverStrategy
from .models import ModelCategory


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

    Declining an `ImagedVector`, it leaves the certificate `_settled` on it.
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
        if top > lo_pk or (lex and top == lo_pk and _lex_blocked(s, prefix, pk)):
            return _decline(areas, s, k)
    for j in islice(order, k, None):
        if lo[j] > hi_pk:
            break  # the tail is sorted by lo, so the rest lies strictly above
        if lo[j] < hi_pk or (lex and j < pk and s.areas[pk].attains and s.areas[j].attains):
            return _decline(areas, s, k)
    return pk


def _decline(areas, s: VectorState, k: int) -> None:
    """The declined verdict; an `ImagedVector` gets its certificate."""
    if type(areas) is ImagedVector:
        areas.settled = _settled(s, k)


def _settled(s: VectorState, k: int) -> int:
    """The certificate of a declined k-th-min verdict on state s: the
    bitmask of every index but the k-th head pk and what blocks it.  When
    the prefix test failed, that is every blocking prefix member: hi above
    lo(pk), or under lex a strict-tie blocker (`_lex_blocked`'s).  Else it
    is the first blocking tail member, the one the verifier stopped at.

    Sound for any refinement of the settled indices, alone or together.  A
    refinement raises lo and lowers hi, so a refined index only moves later
    in lo order and pk only earlier; every tail member stays behind pk.  A
    settled prefix member x does not block, so hi(x) <= lo(pk): it can pass
    pk only as the point lo(pk), and only under the stable rule (under lex
    it would be a strict-tie blocker).  While nothing passes pk, pk stays
    the head, and what it kept blocks it still: a prefix blocker ahead of
    it, a tail one behind.  When something passes, the new head has lo(pk)
    as its lo, as everything that passed has.  A kept prefix blocker, ahead
    of pk, blocks it; without one, pk, now in its prefix, does, since a
    tail member blocks pk only when lo(pk) < hi(pk)."""
    order, lo, hi, areas = s.order, s.lo, s.hi, s.areas
    pk = order[k - 1]
    lo_pk, hi_pk = lo[pk], hi[pk]
    tie = s.tie_rule is TieRule.LEX and areas[pk].attains
    kept = 1 << pk
    for i in islice(order, k - 1):
        if hi[i] > lo_pk or (tie and i > pk and hi[i] == lo_pk and areas[i].attains):
            kept |= 1 << i
    if kept == 1 << pk:
        # The tail is sorted by lo, so its first blocking member lies at or
        # below hi(pk), where the verifier's walk stopped.
        kept |= 1 << next(j for j in islice(order, k, None) if lo[j] < hi_pk or (
            tie and j < pk and lo[j] == hi_pk and areas[j].attains))
    return ((1 << len(order)) - 1) ^ kept


def _lex_blocked(s: VectorState, prefix: Sequence[int], pk: int) -> bool:
    """Under lex, whether a lo-order prefix whose largest hi equals lo(pk) is
    still not surely below pk: a prefix member with a larger index than pk
    needs a strict separation, which fails iff both areas attain the shared
    value."""
    lo_pk, hi, areas = s.lo[pk], s.hi, s.areas
    return areas[pk].attains and any(
        i > pk and hi[i] == lo_pk and areas[i].attains for i in prefix)


def _two_heads(ordering: Iterable[int], lo: Sequence[int], hi: Sequence[int]) -> List[int]:
    picked = list(islice((i for i in ordering if lo[i] != hi[i]), 2))
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
        tied = [i for i in tied if s.areas[i].attains] or tied
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

    "Surely below" is kmin_verifier's separation: non-strict, but strict
    under lex against a tail area with a smaller index.  The test is O(k):
    max(hi over the prefix) <= lo(pk), the tail's smallest lo, and under lex
    no _lex_blocked tie with pk, which any blocked tail area would share.
    An empty prefix is separated.
    """
    s = _state(areas, tie_rule)
    order, lo, hi = s.order, s.lo, s.hi
    if k > 1:
        pk = order[k - 1]
        prefix = order[: k - 1]
        q1 = _max_u(s, prefix, tie_rule)
        top = hi[q1]
        if top > lo[pk] or (
            tie_rule is TieRule.LEX and top == lo[pk] and _lex_blocked(s, prefix, pk)
        ):
            # Not separated.  q1 is never a point: hi(q1) > lo(pk) >= lo(q1),
            # since the prefix precedes pk in lo order, or else q1 blocks pk
            # (_max_u takes an attaining member, then the larger index), and
            # a point blocker would follow pk in lex lo order.  Only pk can
            # be a point, so the pair always holds a queriable area.
            return [q1] if lo[pk] == hi[pk] else [pk, q1]
    return _two_heads(islice(order, k - 1, None), lo, hi)


def min1_bypass_witness(areas: AreaVector) -> List[int]:
    """The lo-order head, the k-Min bypass at k = 1; additive (OPT+1)
    guarantee, OP-P only."""
    return kmin_bypass_witness(areas, 1)


def kmin_bypass_witness(areas: AreaVector, k: int) -> List[int]:
    """Singleton k-Min chooser with an OPT + max{1, min{k, n-k}} guarantee.

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
# The selection algorithms for the engine and the CLI: each one's witness
# size, model categories and bound.  The bypass choosers diverge once queries
# may return intervals; alternation lifts their OP-P restriction to OP-OP.
OP_P = frozenset({ModelCategory.OP_P})
OP_FAMILY = frozenset({ModelCategory.OP_P, ModelCategory.OP_OP})
SELECTION_ALGORITHMS = {
    "kmin-witness": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt),
    "min1-witness": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt),
    "min1-bypass": Algorithm(1, OP_P, lambda q, opt, k, n: q <= opt + 1),
    "kmin-bypass": Algorithm(1, OP_P, lambda q, opt, k, n: q <= opt + max(1, min(k, n - k))),
    "min1-lex": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt),
    "kmin-lex": Algorithm(2, None, lambda q, opt, k, n: q <= 2 * opt),
    "opop-alternate": Algorithm(2, OP_FAMILY, lambda q, opt, k, n: q <= 2 * (opt + k)),
}

STRATEGY_NAMES = tuple(SELECTION_ALGORITHMS)


class AlternatingWitness:
    """Strictly alternates two witness choosers across engine iterations.  A
    solve's first call, on a new `core.LoggedVector`, restarts the turn."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.turn = 0
        self._log: Optional[LoggedVector] = None

    def __call__(self, areas: AreaVector) -> Sequence[int]:
        if type(areas) is LoggedVector and areas is not self._log:
            self._log, self.turn = areas, 0
        self.turn += 1
        return (self.first if self.turn % 2 else self.second)(areas)


def make_strategy(name: str, problem: SelectionProblem) -> SolverStrategy:
    """Build a named selection strategy bound to the problem's parameters:
    the k-th smallest, or the k-th largest on the mirrored state.  Its
    verifier and witness chooser share one state, patched from call to call;
    the bypass reads the stable order, so a lex strategy keeps a second,
    stable state for it.  Each rule is looked up by name on every call, so a
    rule rebound on this module is the one that runs."""
    algorithm = SELECTION_ALGORITHMS.get(name)
    if algorithm is None:
        raise ValueError(f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}")
    k = problem.k
    if name.startswith("min1") and k != 1:
        raise ValueError(f"{name} requires k=1, got k={k}")
    tie = TieRule.LEX if name.endswith("-lex") else problem.tie_rule
    kmax = problem.objective is Objective.KTH_MAX
    state = VectorState(tie, kmax)
    stable = VectorState(TieRule.STABLE, kmax) if tie is TieRule.LEX else state

    def pair(areas):  # a min1 name has k = 1 and runs the kmin rule of its family
        return kmin_witness(state.update(areas), k, tie)

    def bypass(areas):
        return kmin_bypass_witness(stable.update(areas), k)

    def verify(areas):  # an OPT search's vector gets the certificate of a decline
        answer = kmin_verifier(state.update(areas), k, tie)
        return _decline(areas, state, k) if answer is None else answer

    witness = (bypass if name.endswith("-bypass")
               else AlternatingWitness(bypass, pair) if name == "opop-alternate" else pair)
    return SolverStrategy(name, verify, witness, algorithm.k_bound, algorithm.categories)
