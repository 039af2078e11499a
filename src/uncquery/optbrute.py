"""Brute-force ground truth for the minimum number of queries.

Update independence makes a per-index count vector a sufficient statistic for
any non-adversary oracle, so the optimum is found by searching count vectors
in order of increasing total.  The same search yields the full family of
inclusion-minimal verifying vectors, which is what witness-set validity is
checked against.  This module is a test oracle, not a solver: it is meant for
n up to about 10.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence

from .core import Area
from .oracles import ADVERSARY, Oracle


class OptSearchError(Exception):
    pass


@dataclass
class OptResult:
    opt: Optional[int]
    vector: Optional[Dict[int, int]]

    @property
    def bounded(self) -> bool:
        return self.opt is not None


def response_chain(
    oracle: Oracle,
    index: int,
    area: Area,
    max_count: int,
    base_count: int = 0,
) -> List[Area]:
    """Successive areas for queries base_count+1, base_count+2, ... on one
    index; stops early once the area collapses to a point."""
    out: List[Area] = []
    cur = area
    for c in range(base_count + 1, base_count + max_count + 1):
        if cur.is_point:
            break
        cur = oracle.respond(index, c, cur)
        out.append(cur)
    return out


def _prepare(areas, oracle, max_total, base_counts):
    if oracle.kind == ADVERSARY or not oracle.update_independent:
        raise OptSearchError(
            "the brute-force search needs update independence; adversary "
            "optima are fixture values, not searchable objects"
        )
    oracle = oracle.fork()
    n = len(areas)
    base = [0] * n if base_counts is None else list(base_counts)
    chains = [
        response_chain(oracle, i, areas[i], max_total, base[i]) for i in range(n)
    ]
    caps = [len(chain) for chain in chains]
    return chains, caps


def _areas_for(areas, chains, vector) -> List[Area]:
    out = list(areas)
    for i, c in vector.items():
        if c:
            out[i] = chains[i][c - 1]
    return out


def _level_vectors(caps: Sequence[int], total: int):
    """All count vectors of the given total; vectors placing queries on
    smaller indices come first, so the first verifying vector found is the
    canonical one reported by opt_value."""
    n = len(caps)

    def rec(i: int, remaining: int, acc: Dict[int, int]):
        if i == n:
            if remaining == 0:
                yield dict(acc)
            return
        tail_cap = sum(caps[i + 1 :])
        lo = max(0, remaining - tail_cap)
        for c in range(min(caps[i], remaining), lo - 1, -1):
            if c:
                acc[i] = c
            yield from rec(i + 1, remaining - c, acc)
            acc.pop(i, None)

    yield from rec(0, total, {})


# The most count vectors `uncquery opt` agrees to search; past this it asks
# for a lower max_total instead of running for hours.
MAX_SEARCH_VECTORS = 200_000


def search_size(areas: Sequence[Area], oracle: Oracle, max_total: int) -> int:
    """How many count vectors with total <= max_total the search could visit:
    each index counts from 0 up to the length of its response chain."""
    _chains, caps = _prepare(areas, oracle, max_total, None)
    ways = [1] + [0] * max_total  # vectors over the indices so far, by total
    for cap in caps:
        below = list(accumulate(ways, initial=0))
        ways = [below[t + 1] - below[max(0, t - cap)] for t in range(max_total + 1)]
    return sum(ways)


def _dominates(vector: Dict[int, int], found: List[Dict[int, int]]) -> bool:
    return any(
        all(vector.get(i, 0) >= c for i, c in sol.items()) for sol in found
    )


def opt_value(
    areas: Sequence[Area],
    oracle: Oracle,
    verifier: Callable,
    max_total: int,
    base_counts: Optional[Sequence[int]] = None,
) -> OptResult:
    """Smallest verifying query total and the lexicographically smallest
    vector achieving it; OptResult(None, None) when nothing verifies within
    the budget."""
    chains, caps = _prepare(areas, oracle, max_total, base_counts)
    for total in range(0, max_total + 1):
        for vector in _level_vectors(caps, total):
            if verifier(_areas_for(areas, chains, vector)) is not None:
                return OptResult(total, vector)
    return OptResult(None, None)


def minimal_solutions(
    areas: Sequence[Area],
    oracle: Oracle,
    verifier: Callable,
    max_total: int,
    base_counts: Optional[Sequence[int]] = None,
) -> List[Dict[int, int]]:
    """All inclusion-minimal verifying count vectors with total <= max_total.

    Supersets of an already-found solution verify by monotonicity and are
    pruned; once a whole level is dominated the search stops early.
    """
    chains, caps = _prepare(areas, oracle, max_total, base_counts)
    found: List[Dict[int, int]] = []
    for total in range(0, max_total + 1):
        level_open = False
        for vector in _level_vectors(caps, total):
            if _dominates(vector, found):
                continue
            level_open = True
            if verifier(_areas_for(areas, chains, vector)) is not None:
                found.append(vector)
        if not level_open and total > 0:
            break
    return found


def witness_check(witness: Sequence[int], solutions: List[Dict[int, int]]) -> bool:
    """True iff every minimal solution queries some member of the witness."""
    wset = set(witness)
    return all(any(sol.get(i, 0) > 0 for i in wset) for sol in solutions)
