"""Brute-force ground truth for the minimum number of queries.

Update independence makes a per-index count vector a sufficient statistic for
any non-adversary oracle, so the optimum is found by searching count vectors
in order of increasing total and stopping at the first that verifies.  This
module is a test oracle, not a solver: it is meant for n up to about 10.

Response chains are built only as deep as the level reached: a vector of
total t counts at most t on one index, so level t reads each chain to at most
t entries, and the search asks the oracle for nothing beyond that.  Capping
every chain at t leaves the vectors of level t and their order unchanged.

A vector is written as the ascending tuple of the indices it queries, an
index repeated once per query: level t lists the t-subsets of the queriable
indices (`itertools.combinations`) while no chain holds two entries, as with
exact reveals, where OPT is the smallest verifying set of queries, and their
t-multisets (`combinations_with_replacement`) otherwise.  Both list tuples in
lexicographic order, which is the search order: it puts the vectors that
count more on smaller indices first, so `opt_value` reports the vector that
does.  At the first position where tuple A has index a below B's b, A counts
a once more than B does and every smaller index as often.

The verifier calls are the search's real work, so the search skips those
whose verdict is known and keeps the rest lean.  A verifier that declines an
`core.ImagedVector` may leave a certificate on it, `settled`: indices whose
further refinement, alone or together, provably leaves the verdict at
declined.  A vector's parents are the vectors of the level before that it
refines by one query, on some index x.  When a parent's certificate holds
x, the vector is skipped unverified and inherits that certificate, since
every refinement of the vector on those indices refines the parent on them;
the search keeps the certificates of one level.  Nothing skipped could
verify, so the first vector in search order that verifies is the one an
eager search finds.  So a verifier that wraps another and may accept a
vector its inner verifier declines must not hand the inner verifier the
search's vector: the inner certificate would then skip vectors the wrapper
accepts.

Each vector the search verifies is a fresh `core.ImagedVector`.  Level 0 is
the start vector imaged by `core.endpoint_images`.  From depth 1 on, each
time the chains grow, every area they hold is imaged in one call to
`endpoint_images`, the rebuild of a solve's state, and a vector is the start
vector and its images, copied and patched at the chosen indices.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, compress, islice
from typing import Callable, Dict, List, Optional, Sequence

from .core import Area, ImagedVector, endpoint_images
from .oracles import Oracle


class OptSearchError(Exception):
    pass


@dataclass
class OptResult:
    opt: Optional[int]
    vector: Optional[Dict[int, int]]


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
    """Each index's response chain on a fork of the oracle, grown on demand,
    with the integer images of every area it holds.

    `columns[i][c]` is index i's area after c queries of the search (c = 0:
    its start area), and `cells[i][c]` is that area with its lo and hi
    images from one `core.endpoint_images` call over all areas held, made
    each time the chains grow, from level 1 on; `scale` is their D, 0 for
    ranks."""

    def __init__(self, areas, oracle):
        if not oracle.update_independent:
            raise OptSearchError(
                "the brute-force search needs update independence; adversary "
                "optima are fixture values, not searchable objects"
            )
        self.oracle = oracle.fork()
        self.columns: List[List[Area]] = [[a] for a in areas]
        self.scale: Optional[int] = None  # None until the chains first grow
        self.cells: List[List[tuple]] = []

    def extend(self, depth: int) -> List[int]:
        """Grow every chain that has not ended at a point to `depth` entries;
        the chain lengths."""
        grown = False
        for i, column in enumerate(self.columns):
            held = len(column) - 1
            if held < depth and not column[-1].is_point:
                column += response_chain(self.oracle, i, column[-1], depth - held, held)
                grown = True
        if grown:
            held = [a for column in self.columns for a in column]
            self.scale, lo, hi = endpoint_images(held)
            cells = zip(held, lo, hi)
            self.cells = [list(islice(cells, len(column))) for column in self.columns]
        return [len(column) - 1 for column in self.columns]

    def vectors(self) -> Callable[[Sequence[int]], ImagedVector]:
        """The function from the indices a vector queries, ascending and each
        repeated once per query, to the vector: the start vector and its
        images, copied and patched at each chosen index at its count."""
        scale, cells = self.scale, self.cells
        start = [column[0][0] for column in cells]
        lo0, hi0 = [column[0][1] for column in cells], [column[0][2] for column in cells]

        def vector(chosen: Sequence[int]) -> ImagedVector:
            areas, lo, hi = ImagedVector(start), lo0[:], hi0[:]
            count, last = 0, None
            for i in chosen:  # ascending: a repeated index is patched at each count
                count = count + 1 if i == last else 1
                areas[i], lo[i], hi[i] = cells[i][count]
                last = i
            areas.images, areas.settled = (scale, lo, hi), 0
            return areas

        return vector


def _within(caps: Sequence[int], indices: Sequence[int], total: int):
    """The `total`-multisets of `indices` that count no index past its cap,
    as ascending tuples in lexicographic order: the first index as often as
    its cap allows, then once fewer each time, down to what the caps of the
    rest leave it, and each count followed by every tail of the rest."""
    if not indices:
        yield ()
        return
    i, rest = indices[0], indices[1:]
    room = sum(caps[j] for j in rest)
    for count in range(min(caps[i], total), max(total - room, 0) - 1, -1):
        for tail in _within(caps, rest, total - count):
            yield (i,) * count + tail


def _level_walk(caps: Sequence[int], total: int):
    """The count vectors of level `total` under these caps, in search order:
    the `total`-subsets of the indices with a cap when no cap passes 1, else
    their `total`-multisets that count no index past its cap.  Only a cap
    below `total` rules out any multiset, so only a chain that ends at a
    point after two or more responses, as only a script's can, brings in
    the capped walk: exact reveals end every chain after one, and halving
    none."""
    queriable = list(compress(range(len(caps)), caps))
    if max(caps, default=0) <= 1:
        return combinations(queriable, total)
    if any(caps[i] < total for i in queriable):
        return _within(caps, queriable, total)
    return combinations_with_replacement(queriable, total)


def _inherited(certified: Dict[int, int], weight: List[int], key: int, chosen) -> int:
    """The certificate the vector `chosen`, keyed `key`, inherits: that of
    its first parent, `chosen` less one query on an index x, whose
    certificate holds x; 0 if none."""
    for x in chosen:
        settled = certified.get(key - weight[x], 0)
        if settled >> x & 1:
            return settled
    return 0


def opt_value(areas: Sequence[Area], oracle: Oracle, verifier: Callable,
              max_total: int, max_vectors: int = sys.maxsize) -> OptResult:
    """Smallest verifying query total and the first vector in search order
    that reaches it, the lexicographically smallest; OptResult(None, None)
    when nothing verifies within the budget.  Past `max_vectors` vectors
    visited, verified or skipped, OptSearchError instead."""
    chains = _Chains(areas, oracle)
    start = ImagedVector(areas)
    start.images, start.settled = endpoint_images(start), 0
    if max_total >= 0 and verifier(start) is not None:
        return OptResult(0, {})
    # A vector's key is the sum of weight[i] over its queries: its counts as
    # the digits of a number in base max_total + 1, so a parent's key is the
    # vector's less one weight.
    weight = [(max_total + 1) ** i for i in range(len(areas))]
    certified = {0: start.settled} if start.settled else {}
    visited = 1
    for total in range(1, max_total + 1):
        walk = _level_walk(chains.extend(total), total)
        vector_of = chains.vectors()
        level: Dict[int, int] = {}
        for visited, chosen in enumerate(walk, visited + 1):
            if visited > max_vectors:
                raise OptSearchError(f"the OPT search visited {max_vectors} count vectors "
                                     "without an answer")
            key = sum(map(weight.__getitem__, chosen))
            settled = certified and _inherited(certified, weight, key, chosen)
            if not settled:
                vector = vector_of(chosen)
                if verifier(vector) is not None:
                    return OptResult(total, {i: chosen.count(i) for i in chosen})
                settled = vector.settled
            if settled:
                level[key] = settled
        certified = level
    return OptResult(None, None)
