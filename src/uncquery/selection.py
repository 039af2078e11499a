"""Selection verifiers and witness choosers: the plain and lexicographic
1-Min / k-Min witness pairs, the additive-guarantee bypass choosers, and the
mirror that turns k-th-max questions into k-th-min ones."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, List, Optional, Sequence

# Nothing here calls order_u.  It stays importable from this module because
# bench/tracer.py binds uncquery.selection.order_u (tests/test_tooling.py
# checks that every tracer target resolves).
from .core import (  # noqa: F401
    Area, AreaVector, TieRule, int_images, order_l, order_u,
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


def kmin_verifier(
    areas: AreaVector, k: int, tie_rule: TieRule = TieRule.STABLE
) -> Optional[int]:
    """Answer index if the k-th smallest is already determined, else None.

    Under the lex tie rule a determined answer is the lex-first valid one:
    competitors with a smaller index need only a non-strict separation, those
    with a larger index a strict one.
    """
    n = len(areas)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    lo, hi = int_images(areas)
    order = order_l(areas, None, tie_rule, lo)
    pk = order[k - 1]
    lo_pk, hi_pk = lo[pk], hi[pk]
    # Separations are non-strict except, under lex, against the competitors
    # that need a strict one; a strict separation fails on an equal endpoint
    # value iff both areas attain it (surely_lt).
    lex = tie_rule is TieRule.LEX
    for i in order[: k - 1]:
        if hi[i] > lo_pk or (
            lex and hi[i] == lo_pk and i > pk
            and areas[i].attains_hi and areas[pk].attains_lo
        ):
            return None
    for j in order[k:]:
        if lo[j] > hi_pk:
            break  # the tail is sorted by lo, so the rest lies strictly above
        if lo[j] < hi_pk or (
            lex and j < pk and areas[pk].attains_hi and areas[j].attains_lo
        ):
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


def _max_u(areas: AreaVector, members: Sequence[int], hi: Sequence[int], tie_rule: TieRule) -> int:
    """order_u(areas, members, tie_rule)[-1] in O(len(members)): the largest
    hi; among ties, under lex an area attaining it, then the larger index."""
    top = max(map(hi.__getitem__, members))
    tied = [i for i in members if hi[i] == top]
    if tie_rule is TieRule.LEX:
        tied = [i for i in tied if areas[i].attains_hi] or tied
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
    lo, hi = int_images(areas)
    return _two_heads(order_l(areas, subset, tie_rule, lo), lo, hi)


def kmin_witness(
    areas: AreaVector, k: int, tie_rule: TieRule = TieRule.STABLE
) -> List[int]:
    """Witness pair for k-Min.

    If the k-1 smallest-by-lo areas are surely below everything else, the
    problem reduces to 1-Min on the rest.  Otherwise pair the k-th head with
    the member of the prefix having the largest u value.

    The separation test is O(n): every prefix area is surely at most every
    tail area iff max(hi over the prefix) <= min(lo over the tail), and the
    smallest lo of the tail is its head's.  An empty prefix is separated.
    """
    lo, hi = int_images(areas)
    order = order_l(areas, None, tie_rule, lo)
    tail = order[k - 1 :]
    pk = tail[0]
    if k > 1:
        q1 = _max_u(areas, order[: k - 1], hi, tie_rule)
        if hi[q1] > lo[pk]:
            # Not separated.  q1 is never a point: hi(q1) > lo(pk) >= lo(q1),
            # since the prefix precedes pk in lo order.  Only pk can be one,
            # so the pair always holds a queriable area.
            return [q1] if lo[pk] == hi[pk] else [pk, q1]
    return _two_heads(tail, lo, hi)


def min1_bypass_witness(areas: AreaVector) -> List[int]:
    """Singleton lo-order head; additive (OPT+1) guarantee, OP-P only."""
    lo, hi = int_images(areas)
    picked = _first_nonpoints(order_l(areas, None, TieRule.STABLE, lo), lo, hi, 1)
    if not picked:
        raise ValueError("no queriable area available")
    return picked


def kmin_bypass_witness(areas: AreaVector, k: int) -> List[int]:
    """Singleton chooser for k-Min with an OPT + min{k, n-k} guarantee.

    While the k smallest-by-lo areas are not surely below the rest, query the
    one among them with the largest u value; once they are separated, run the
    1-Max bypass inside that prefix.

    The separation test is O(n), as in kmin_witness: max(hi over the prefix)
    <= the smallest lo of the rest, which is its head's.  An empty rest is
    separated.
    """
    lo, hi = int_images(areas)
    order = order_l(areas, None, TieRule.STABLE, lo)
    prefix = order[:k]
    if k < len(order):
        q = _max_u(areas, prefix, hi, TieRule.STABLE)
        if hi[q] > lo[order[k]]:
            # Not separated, so q is not a point: hi(q) > lo(order[k]) >= lo(q).
            return [q]
    return _max_hi_head(prefix, lo, hi)


def mirror_areas(areas: AreaVector) -> List[Area]:
    """Negate every area; k-th max of the originals is k-th min of these."""
    return [a.mirror() for a in areas]


def mirror_to_max(fn):
    """Lift a min-oriented verifier/witness to the max objective."""

    def wrapped(areas: AreaVector, *args, **kwargs):
        return fn(mirror_areas(areas), *args, **kwargs)

    return wrapped


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


def _orient(fn, objective: Objective):
    if objective is Objective.KTH_MAX:
        return mirror_to_max(fn)
    return fn


def selection_verifier(problem: SelectionProblem, tie_rule: TieRule):
    """The problem's verifier under a tie rule: k-th smallest, or k-th
    largest through the mirror."""
    k = problem.k
    return _orient(lambda areas: kmin_verifier(areas, k, tie_rule), problem.objective)


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
    """Build a named selection strategy bound to the problem's parameters."""
    k = problem.k
    if name.startswith("min1") and k != 1:
        raise ValueError(f"{name} requires k=1, got k={k}")
    tie = problem.tie_rule
    if name.endswith("-lex"):
        tie = TieRule.LEX

    verifier = selection_verifier(problem, tie)

    if name in ("min1-witness", "min1-lex"):
        witness = _orient(lambda areas: min1_witness(areas, tie), problem.objective)
        return SolverStrategy(name, verifier, witness, k_bound=2)
    if name in ("kmin-witness", "kmin-lex"):
        witness = _orient(lambda areas: kmin_witness(areas, k, tie), problem.objective)
        return SolverStrategy(name, verifier, witness, k_bound=2)
    if name == "min1-bypass":
        witness = _orient(min1_bypass_witness, problem.objective)
        return SolverStrategy(name, verifier, witness, k_bound=1, model_check=require_op_p)
    if name == "kmin-bypass":
        witness = _orient(lambda areas: kmin_bypass_witness(areas, k), problem.objective)
        return SolverStrategy(name, verifier, witness, k_bound=1, model_check=require_op_p)
    if name == "opop-alternate":
        bypass_name = "min1-bypass" if k == 1 else "kmin-bypass"
        witness_name = "min1-witness" if k == 1 else "kmin-witness"
        # alternate() drops the bypass's OP-P restriction: lifting it is the
        # point of alternation.
        bypass = make_strategy(bypass_name, problem)
        paired = make_strategy(witness_name, problem)
        combined = alternate(bypass, paired, name="opop-alternate")
        combined.model_check = _require_op_family
        return combined
    raise ValueError(f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}")
