"""Brute-force ground truth for the minimum number of queries.

Update independence makes a per-index count vector a sufficient statistic for
any non-adversary oracle, so the optimum is found by searching count vectors
in order of increasing total.  The same search yields the full family of
inclusion-minimal verifying vectors, which is what witness-set validity is
checked against.  This module is a test oracle, not a solver: it is meant for
n up to about 10.

Response chains are built only as deep as the level reached: a vector of
total t counts at most t on one index, so level t reads each chain to at most
t entries, and the search asks the oracle for nothing beyond that.  Capping
every chain at t leaves the vectors of level t and their order unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence

from .core import Area
from .oracles import Oracle


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


class _Chains:
    """Each index's response chain on a fork of the oracle, grown on demand."""

    def __init__(self, areas, oracle, base_counts):
        if not oracle.update_independent:
            raise OptSearchError(
                "the brute-force search needs update independence; adversary "
                "optima are fixture values, not searchable objects"
            )
        self.areas = list(areas)
        self.oracle = oracle.fork()
        self.base = [0] * len(areas) if base_counts is None else list(base_counts)
        self.chains: List[List[Area]] = [[] for _ in areas]

    def extend(self, depth: int) -> List[int]:
        """Grow every chain that has not ended at a point to `depth` entries;
        the chain lengths."""
        for i, chain in enumerate(self.chains):
            if len(chain) < depth:
                last = chain[-1] if chain else self.areas[i]
                if not last.is_point:
                    chain += response_chain(
                        self.oracle, i, last, depth - len(chain), self.base[i] + len(chain)
                    )
        return [len(chain) for chain in self.chains]

    def areas_for(self, vector: Dict[int, int]) -> List[Area]:
        out = list(self.areas)
        for i, c in vector.items():
            out[i] = self.chains[i][c - 1]
        return out


def _level_vectors(caps: Sequence[int], total: int):
    """All count vectors of the given total; vectors placing queries on
    smaller indices come first, so the first verifying vector found is the
    canonical one reported by opt_value."""
    n = len(caps)
    tails = [0] * n  # tails[i] = sum(caps[i + 1:])
    for i in range(n - 1, 0, -1):
        tails[i - 1] = tails[i] + caps[i]
    if total > sum(caps):
        return

    def rec(i: int, remaining: int, acc: Dict[int, int]):
        if not remaining:
            yield dict(acc)
            return
        for c in range(min(caps[i], remaining), max(0, remaining - tails[i]) - 1, -1):
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
    caps = _Chains(areas, oracle, None).extend(max_total)
    ways = [1] + [0] * max_total  # vectors over the indices so far, by total
    for cap in caps:
        below = list(accumulate(ways, initial=0))
        ways = [below[t + 1] - below[max(0, t - cap)] for t in range(max_total + 1)]
    return sum(ways)


def _dominates(vector: Dict[int, int], found: List[Dict[int, int]]) -> bool:
    return any(
        all(vector.get(i, 0) >= c for i, c in sol.items()) for sol in found
    )


def _minimal_vectors(areas, oracle, verifier, max_total, base_counts):
    """The inclusion-minimal verifying count vectors with total <= max_total,
    in search order.  Supersets of a found one verify by monotonicity and
    are pruned, so nothing is pruned before the first; once a whole level
    is dominated the search stops."""
    chains = _Chains(areas, oracle, base_counts)
    found: List[Dict[int, int]] = []
    for total in range(0, max_total + 1):
        level_open = False
        for vector in _level_vectors(chains.extend(total), total):
            if _dominates(vector, found):
                continue
            level_open = True
            if verifier(chains.areas_for(vector)) is not None:
                found.append(vector)
                yield vector
        if not level_open and total > 0:
            return


def opt_value(
    areas: Sequence[Area],
    oracle: Oracle,
    verifier: Callable,
    max_total: int,
    base_counts: Optional[Sequence[int]] = None,
) -> OptResult:
    """Smallest verifying query total and the lexicographically smallest
    vector achieving it, the first minimal solution; OptResult(None, None)
    when nothing verifies within the budget."""
    vector = next(_minimal_vectors(areas, oracle, verifier, max_total, base_counts), None)
    return OptResult(None, None) if vector is None else OptResult(sum(vector.values()), vector)


def minimal_solutions(
    areas: Sequence[Area],
    oracle: Oracle,
    verifier: Callable,
    max_total: int,
    base_counts: Optional[Sequence[int]] = None,
) -> List[Dict[int, int]]:
    """All inclusion-minimal verifying count vectors with total <= max_total,
    in search order."""
    return list(_minimal_vectors(areas, oracle, verifier, max_total, base_counts))


def witness_check(witness: Sequence[int], solutions: List[Dict[int, int]]) -> bool:
    """True iff every minimal solution queries some member of the witness."""
    wset = set(witness)
    return all(any(sol.get(i, 0) > 0 for i in wset) for sol in solutions)
