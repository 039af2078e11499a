"""The generic solve loop: verify, pick a witness set, query its members,
repeat.  Strategies plug in a verifier, a witness chooser and the order in
which a witness set's members are queried; the engine owns budgets, response
validation, the query counts and the query log.  Selection and the
uncertain spanning tree (`mst.umst_solve`) both run on it."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .core import Area, AreaVector
from .models import ModelSpec, UncertainInstance, validate_instance, validate_response


class EngineError(Exception):
    pass


class StrategyModelError(EngineError):
    """Strategy refuses to run under the instance's model."""


class OracleResponseError(EngineError):
    pass


class RunStatus(Enum):
    SOLVED = "solved"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class Algorithm:
    """What the paper proves of one algorithm, declared once: the most areas
    one witness set names, the model restriction (None, or a check returning
    why a model is refused, else None), and the competitive bound, true iff
    q queries keep to it against an optimum of opt on a k-of-n instance."""

    k_bound: int
    model_check: Optional[Callable[[ModelSpec], Optional[str]]]
    bound: Callable[[int, int, int, int], bool]


@dataclass
class SolverStrategy:
    """Verifier returns the answer (an area index for selection) or None;
    witness returns a nonempty index set of at most k_bound queriable areas."""

    name: str
    verifier: Callable[[AreaVector], object]
    witness: Callable[[AreaVector], Sequence[int]]
    k_bound: int = 2
    model_check: Optional[Callable[[ModelSpec], Optional[str]]] = None

    def reset(self) -> None:
        reset = getattr(self.witness, "reset", None)
        if reset is not None:
            reset()

    def queries(self, areas: List[Area], witness: List[int]) -> Iterable[int]:
        """The members of a witness set to query this round, in ascending
        index order.  The engine queries each one it is handed before asking
        for the next, so `areas` already holds the earlier responses; the
        verifier is re-checked before each later member, and the round stops
        as soon as a response settles the answer."""
        for pos, idx in enumerate(witness):
            if pos > 0 and self.verifier(areas) is not None:
                return
            yield idx


@dataclass
class RunReport:
    answer: Optional[int]
    query_log: List[Tuple[int, Area]]
    counts: Dict[int, int]
    total: int
    status: RunStatus

    def to_json(self) -> dict:
        return {
            "answer": None if self.answer is None else self.answer + 1,
            "queries": [[i + 1, a.to_json()] for i, a in self.query_log],
            "counts": {str(i + 1): c for i, c in sorted(self.counts.items())},
            "total": self.total,
            "status": self.status.value,
        }


def default_budget(n: int) -> int:
    return 4 * n * 16  # four queries per area for each of 16 refinements


def solve(
    instance: UncertainInstance,
    oracle,
    strategy: SolverStrategy,
    budget: int,
) -> RunReport:
    """Run the verify/witness/query loop until solved or out of budget.

    Each round queries the members of one witness set in the order the
    strategy's `queries` hands them out.  Point areas are never queriable.
    """
    err = validate_instance(instance)
    if err is not None:
        raise EngineError(f"invalid instance: {err}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if strategy.model_check is not None:
        err = strategy.model_check(instance.model)
        if err:
            raise StrategyModelError(err)
    strategy.reset()

    areas: List[Area] = list(instance.areas)
    counts: Dict[int, int] = {}
    log: List[Tuple[int, Area]] = []

    while True:
        answer = strategy.verifier(areas)
        if answer is not None:
            return RunReport(answer, log, counts, len(log), RunStatus.SOLVED)
        witness = sorted(set(strategy.witness(areas)))
        if not witness:
            raise EngineError(f"strategy {strategy.name} returned an empty witness set")
        if len(witness) > strategy.k_bound:
            raise EngineError(
                f"witness set {witness} exceeds k_bound={strategy.k_bound}"
            )
        for idx in witness:
            if areas[idx].is_point:
                raise EngineError(f"witness set names unqueriable point area {idx + 1}")
        for idx in strategy.queries(areas, witness):
            if len(log) >= budget:
                return RunReport(None, log, counts, len(log), RunStatus.BUDGET_EXCEEDED)
            counts[idx] = counts.get(idx, 0) + 1
            response = oracle.respond(idx, counts[idx], areas[idx])
            err = validate_response(instance.model, areas[idx], response)
            if err is not None:
                raise OracleResponseError(f"index {idx + 1}: {err}")
            areas[idx] = response
            log.append((idx, response))
