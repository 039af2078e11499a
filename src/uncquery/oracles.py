"""Query-response sources.

Three kinds: ground-truth oracles that refine toward a fixed hidden
configuration, scripted replays, and the adversaries used by the tight
examples.  Non-adversary oracles are update independent: the response to the
c-th query on index i never depends on what happened to other indices.
Adversaries may inspect the full query history and also carry a companion
script describing what the colluding optimum is shown.  Adversaries check
neither index ranges nor point queries: the engine plays one only on its own
fixture and never queries a point.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .core import Area, Rationals, TieRule, as_fraction
from .models import ModelSpec, TypeSet, UncertainInstance, validate_response
from .selection import SelectionProblem

class OracleError(Exception):
    pass


class Oracle:
    update_independent: bool = True

    def respond(self, index: int, count: int, current: Area) -> Area:
        raise NotImplementedError

    def fork(self) -> "Oracle":
        """Fresh copy with pristine history; replays are deterministic.  A
        deep copy, so scripted oracles and adversaries never share state with
        their forks; GroundTruthOracle keeps no state and copies shallowly."""
        return copy.deepcopy(self)


class ExactPolicy:
    """Reveal the hidden value itself."""


@dataclass(frozen=True)
class HalvePolicy:
    """Return a sub-interval of `shrink` times the current length, centered on
    the hidden value and clipped inside the current area."""

    shrink: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "shrink", Fraction(self.shrink))
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie strictly between 0 and 1")


def _halve_window(hidden: Fraction, current: Area, shrink: Fraction):
    """The (lo, hi) of a window of `shrink` times the current length,
    centered on `hidden` and shifted back inside the current area if it pokes
    out.  A shifted window is then nudged off the shared endpoint, so the
    response is visibly interior, by new_len/100 or by half the gap to
    `hidden` if that is less, which keeps `hidden` inside.

    Computed on integers over one common denominator, scale = d·200·q_s,
    with d the lcm of the denominators of the area's endpoints and `hidden`
    and q_s the shrink's denominator: at that scale new_len/2, new_len/100
    and the half gaps are exact integers, so the window equals the Fraction
    formula's (tests/helpers.reference_halve_window) value for value, and
    only its two endpoints become Fractions."""
    a, qa = current.lo.as_integer_ratio()
    b, qb = current.hi.as_integer_ratio()
    h, qh = hidden.as_integer_ratio()
    p_s, q_s = shrink.as_integer_ratio()
    d = math.lcm(qa, qb, qh)
    scale = d * 200 * q_s
    a, b, h = a * (scale // qa), b * (scale // qb), h * (scale // qh)
    new_len = (b - a) // q_s * p_s
    lo, hi = h - new_len // 2, h + new_len // 2
    if lo < a:
        lo, hi = a, hi + a - lo
        if h > a:
            nudge = min(new_len // 100, (h - a) // 2)
            lo, hi = lo + nudge, hi + nudge
    elif hi > b:
        lo, hi = lo - (hi - b), b
        if h < b:
            nudge = min(new_len // 100, (b - h) // 2)
            lo, hi = lo - nudge, hi - nudge
    return Fraction(lo, scale), Fraction(hi, scale)


def ground_truth_respond(
    policy, hidden: Fraction, current: Area, returns: TypeSet
) -> Area:
    """Deterministic refinement of `current` toward `hidden`.

    Point-only return sets force the exact point whatever the policy says.
    """
    hidden = as_fraction(hidden)
    if not current.contains_value(hidden):
        raise OracleError(f"hidden value {hidden} not inside current area {current}")
    if current.is_point:
        raise OracleError("point areas cannot be refined")
    if returns.letters == {"P"} or isinstance(policy, ExactPolicy):
        if "P" not in returns:
            raise OracleError("exact responses need P in the return type set")
        return Area.point(hidden)
    if isinstance(policy, HalvePolicy):
        lo, hi = _halve_window(hidden, current, policy.shrink)
        strict_inside = lo < hidden < hi
        if "O" in returns and strict_inside:
            return Area.open(lo, hi)
        if "C" in returns:
            return Area.closed(lo, hi)
        # Every return set but {P} holds O or C, so this one holds O and not C.
        raise OracleError(f"cannot build an open response around boundary value {hidden}")
    raise OracleError(f"unknown refinement policy {policy!r}")


class GroundTruthOracle(Oracle):
    def __init__(self, policy, hidden: Sequence, returns: TypeSet):
        if isinstance(policy, ExactPolicy) and "P" not in returns:
            # Refused here, so a solve or an OPT search stops before any query.
            raise OracleError("exact responses need P in the return type set")
        self.policy = policy
        self.hidden = Rationals(hidden)
        self.returns = returns

    @staticmethod
    def for_instance(instance: UncertainInstance, policy=None) -> "GroundTruthOracle":
        if instance.hidden is None:
            raise OracleError("instance carries no hidden configuration")
        if policy is None:
            policy = (
                ExactPolicy()
                if "P" in instance.model.returns
                else HalvePolicy(Fraction(1, 2))
            )
        return GroundTruthOracle(policy, instance.hidden, instance.model.returns)

    def respond(self, index: int, count: int, current: Area) -> Area:
        return ground_truth_respond(self.policy, self.hidden[index], current, self.returns)

    def fork(self) -> "GroundTruthOracle":
        """A shallow copy: there is no history, and the policy, the hidden
        values and the return set are immutable, so nothing needs copying."""
        return copy.copy(self)


class ScriptedOracle(Oracle):
    """Replays a script's responses.  Given the instance's model, it checks
    each one it hands out as the engine does, so the OPT search, which reads
    responses a solve may not, refuses a script that a solve would."""

    def __init__(self, responses: Dict[int, List[Area]], model: Optional[ModelSpec] = None):
        self.responses = {int(i): list(rs) for i, rs in responses.items()}
        self.model = model

    @staticmethod
    def from_json(data: dict, model: Optional[ModelSpec] = None) -> "ScriptedOracle":
        # External script keys are 1-based to match reported indices.
        return ScriptedOracle(
            {
                int(key) - 1: [Area.from_json(a) for a in areas]
                for key, areas in data["responses"].items()
            },
            model,
        )

    @staticmethod
    def load(path: str, model: Optional[ModelSpec] = None) -> "ScriptedOracle":
        with open(path) as fh:
            return ScriptedOracle.from_json(json.load(fh), model)

    def respond(self, index: int, count: int, current: Area) -> Area:
        try:
            response = self.responses[index][count - 1]
        except (KeyError, IndexError):
            raise OracleError(
                f"script has no response for index {index + 1}, query #{count}"
            ) from None
        err = None if self.model is None else validate_response(self.model, current, response)
        if err is not None:
            raise OracleError(f"index {index + 1}: {err}")
        return response


class MinTightAdversary(Oracle):
    """The 2n-query construction for 1-Min under interval returns.

    The distinguished wide interval keeps creeping upward; the n identical
    overlapping intervals resolve high one by one.  Whichever threshold the
    algorithm crosses first (n queries on the wide interval, or n distinct
    overlapping intervals queried) fixes the branch; the final response on the
    other side then lets the run finish at exactly 2n queries.
    """

    update_independent = False

    def __init__(self, n: int, a0_index: int = 0):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.a0_index = a0_index
        self.epsilon = Fraction(1, 4 * n)
        self.a0_queries = 0
        self.s_seen: List[int] = []
        self.case: Optional[int] = None

    def respond(self, index: int, count: int, current: Area) -> Area:
        if index == self.a0_index:
            self.a0_queries += 1
            i = self.a0_queries
            if self.case is None and i == self.n:
                self.case = 1
            if self.case == 2 and i >= self.n:
                return Area.open(2, 3)
            return Area.open(1 + i * self.epsilon, 5)
        if index in self.s_seen:  # unplanned repeat: raise lo by a quarter of the length
            return Area.open(current.lo + current.length / 4, current.hi)
        self.s_seen.append(index)
        if self.case is None and len(self.s_seen) == self.n:
            self.case = 2
            return Area.open(3, 4)
        return Area.open(6, 7)

    def opt_script(self, case: int) -> ScriptedOracle:
        """What the colluding optimum is shown in the given branch."""
        if case == 1:
            responses = {
                i: [Area.open(6, 7)]
                for i in range(self.n + 1)
                if i != self.a0_index
            }
        elif case == 2:
            chain = [
                Area.open(1 + i * self.epsilon, 5) for i in range(1, self.n)
            ] + [Area.open(2, 3)]
            responses = {self.a0_index: chain}
        else:
            raise ValueError("case must be 1 or 2")
        return ScriptedOracle(responses)


class KMinPointAdversary(Oracle):
    """The 2k-area lower bound for k-Min under point-capable inputs: the
    first k-1 distinct intervals queried resolve low, the k-th resolves high,
    while the colluding optimum only ever needed the high one.  Each answer
    is a point, so no index is queried twice."""

    update_independent = False

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.queries = 0

    def respond(self, index: int, count: int, current: Area) -> Area:
        self.queries += 1
        return Area.point(1 if self.queries < self.k else 4)


class CpAnomalyAdversary(Oracle):
    """Identical closed intervals answered 2 until the last distinct index,
    which gets 1; the colluding optimum is shown 1 on the last area and
    queries it straight away.  Each answer is a point, so no index is
    queried twice."""

    update_independent = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.queries = 0

    def respond(self, index: int, count: int, current: Area) -> Area:
        self.queries += 1
        return Area.point(2 if self.queries < self.n else 1)

    def opt_script(self) -> ScriptedOracle:
        responses = {i: [Area.point(2)] for i in range(self.n)}
        responses[self.n - 1] = [Area.point(1)]
        return ScriptedOracle(responses)

    @property
    def revealed_hidden(self):
        """Configuration consistent with every response in this construction."""
        return tuple(
            Fraction(1) if i == self.n - 1 else Fraction(2) for i in range(self.n)
        )


class OpoCounterOracle(Oracle):
    """Two-interval schedule showing the 1-Min bypass diverges once queries
    may return intervals: the low interval never separates, the high one
    resolves in a single query."""

    def respond(self, index: int, count: int, current: Area) -> Area:
        if index == 0:
            return Area.open(19 - Fraction(1, count + 1), 20)
        return Area.open(21 - Fraction(1, 2 * count), 21)


# ---------------------------------------------------------------------------
# Fixtures: the instances each adversary is defined against.


@dataclass
class Fixture:
    name: str
    instance: UncertainInstance
    oracle: Oracle
    opt_value: int

    def fresh_oracle(self) -> Oracle:
        return self.oracle.fork()


def min_tight_fixture(n: int, a0_last: bool = False) -> Fixture:
    """Tight 1-Min instance: one wide interval and n identical overlapping
    ones.  Placing the wide interval last flips which adversary branch a
    deterministic ascending-index solver hits."""
    wide = Area.open(1, 5)
    narrow = [Area.open(3, 7) for _ in range(n)]
    if a0_last:
        areas = narrow + [wide]
        a0_index = n
    else:
        areas = [wide] + narrow
        a0_index = 0
    instance = UncertainInstance(
        model=ModelSpec.parse("O-O"),
        areas=tuple(areas),
        problem=SelectionProblem(k=1),
    )
    adversary = MinTightAdversary(n, a0_index)
    return Fixture(
        name="min-tight",
        instance=instance,
        oracle=adversary,
        opt_value=n,
    )


def kmin_point_fixture(k: int) -> Fixture:
    areas = tuple(Area.open(0, 5) for _ in range(k)) + tuple(
        Area.point(3) for _ in range(k)
    )
    instance = UncertainInstance(
        model=ModelSpec.parse("OP-P"),
        areas=areas,
        problem=SelectionProblem(k=k),
    )
    return Fixture(
        name="kmin-point",
        instance=instance,
        oracle=KMinPointAdversary(k),
        opt_value=1,
    )


def cp_anomaly_fixture(n: int, tie_rule: TieRule = TieRule.STABLE) -> Fixture:
    """n identical closed intervals; the fixture OPT of 1 holds for the
    non-lex reading."""
    instance = UncertainInstance(
        model=ModelSpec.parse("CP-P"),
        areas=tuple(Area.closed(1, 3) for _ in range(n)),
        problem=SelectionProblem(k=1, tie_rule=tie_rule),
    )
    return Fixture(
        name="cp-anomaly",
        instance=instance,
        oracle=CpAnomalyAdversary(n),
        opt_value=1,
    )


def opo_counterexample_fixture() -> Fixture:
    instance = UncertainInstance(
        model=ModelSpec.parse("O-O"),
        areas=(Area.open(2, 20), Area.open(19, 21)),
        problem=SelectionProblem(k=1),
    )
    return Fixture(
        name="opo-counter",
        instance=instance,
        oracle=OpoCounterOracle(),
        opt_value=1,
    )


# Every builder takes the CLI's (n, k) and uses what its construction needs.
FIXTURE_BUILDERS = {
    "min-tight": lambda n, k: min_tight_fixture(n),
    "kmin-point": lambda n, k: kmin_point_fixture(k),
    "cp-anomaly": lambda n, k: cp_anomaly_fixture(n),
    "opo-counter": lambda n, k: opo_counterexample_fixture(),
}
