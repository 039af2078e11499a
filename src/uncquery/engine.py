"""The generic solve loop: verify, pick a witness set, query its members,
repeat.  Strategies plug in a verifier and a witness chooser; the engine
owns budgets, response validation, the query counts, the query log and the
round: a witness set's members in ascending index order, the verifier
re-checked before each later one when the strategy's `recheck` is true.
Selection and the uncertain spanning tree (`mst.umst_solve`) run on it.

The areas a solve hands its strategy are one `core.LoggedVector`, written
only by the engine, one entry per query.  Its `writes` list of (index,
response) is the report's query log, so a strategy's `core.VectorState`
patches the entries written since its last call without comparing the
other n."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .core import Area, AreaVector, LoggedVector
from .models import (ModelCategory, ModelSpec, UncertainInstance, classify_model,
                     validate_instance, validate_response)

# The model categories an algorithm runs under; None for every model.
Categories = Optional[FrozenSet[ModelCategory]]


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
    one witness set names, the model categories it runs under, and the
    competitive bound, true iff q queries keep to it against an optimum of
    opt on a k-of-n instance."""

    k_bound: int
    categories: Categories
    bound: Callable[[int, int, int, int], bool]


def model_refusal(name: str, categories: Categories, spec: ModelSpec) -> Optional[str]:
    """Why algorithm `name` refuses model `spec`, in one line naming the
    categories it runs under; None when `categories` admits the model."""
    if categories is None or classify_model(spec) in categories:
        return None
    admitted = ", ".join(c.value for c in ModelCategory if c in categories)
    return f"{name} refuses model {spec}: it runs under {admitted} models only"


@dataclass
class SolverStrategy:
    """Verifier returns the answer (an area index for selection) or None;
    witness returns a nonempty index set of at most k_bound queriable areas,
    queried by ascending index, the verifier re-checked between them iff `recheck`."""

    name: str
    verifier: Callable[[AreaVector], object]
    witness: Callable[[AreaVector], Sequence[int]]
    k_bound: int = 2
    categories: Categories = None

    recheck = True


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

    Each round queries one witness set's members in ascending index order,
    re-checking the verifier before each later one when `strategy.recheck`
    is true.  Point areas are never queriable.
    """
    err = validate_instance(instance)
    if err is not None:
        raise EngineError(f"invalid instance: {err}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    err = model_refusal(strategy.name, strategy.categories, instance.model)
    if err is not None:
        raise StrategyModelError(err)

    areas = LoggedVector(instance.areas)
    writes, write = areas.writes, list.__setitem__
    counts: Dict[int, int] = {}

    while True:
        answer = strategy.verifier(areas)
        if answer is not None:
            return RunReport(answer, writes, counts, len(writes), RunStatus.SOLVED)
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
        for pos, idx in enumerate(witness):
            if pos and strategy.recheck and (answer := strategy.verifier(areas)) is not None:
                return RunReport(answer, writes, counts, len(writes), RunStatus.SOLVED)
            if len(writes) >= budget:
                return RunReport(None, writes, counts, len(writes), RunStatus.BUDGET_EXCEEDED)
            counts[idx] = counts.get(idx, 0) + 1
            response = oracle.respond(idx, counts[idx], areas[idx])
            err = validate_response(instance.model, areas[idx], response)
            if err is not None:
                raise OracleResponseError(f"index {idx + 1}: {err}")
            write(areas, idx, response)
            writes.append((idx, response))
