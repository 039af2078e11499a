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

The verifier calls are the search's real work, so the rest is kept lean.
Level 0 is the start vector alone, handed over as a plain list.  From depth
1 on, each time the chains grow, every area they hold is imaged in one call
to `core.endpoint_images`, the rebuild of a solve's state, and each verifier
call gets a fresh `core.ImagedVector` carrying its areas' images.  When no
chain holds two entries, as with exact reveals, where OPT is the smallest
verifying set of queries, the vectors of level t are the t-subsets of the
queriable indices, listed by `itertools.combinations`: each is the start
vector and its images, copied and patched at the chosen indices, and one
mask test tells whether a found solution dominates it.  Otherwise a level's
count vectors come from an iterative walk that steps from one vector to the
next in place, each vector is assembled from the images by lookup, and a
found solution is compared with a vector only when a bit mask shows its
support inside the vector's.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, compress, pairwise
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
    its start area), and `lo[i][c]`, `hi[i][c]` are that area's images from
    one `core.endpoint_images` call over all areas held, made each time the
    chains grow, from level 1 on; `scale` is their D, 0 for ranks."""

    def __init__(self, areas, oracle, base_counts):
        if not oracle.update_independent:
            raise OptSearchError(
                "the brute-force search needs update independence; adversary "
                "optima are fixture values, not searchable objects"
            )
        self.oracle = oracle.fork()
        self.base = [0] * len(areas) if base_counts is None else list(base_counts)
        self.columns: List[List[Area]] = [[a] for a in areas]
        self.scale: Optional[int] = None  # None until the chains first grow
        self.lo: List[List[int]] = []
        self.hi: List[List[int]] = []

    def extend(self, depth: int) -> List[int]:
        """Grow every chain that has not ended at a point to `depth` entries;
        the chain lengths."""
        grown = False
        for i, column in enumerate(self.columns):
            held = len(column) - 1
            if held < depth and not column[-1].is_point:
                base = self.base[i] + held
                column += response_chain(self.oracle, i, column[-1], depth - held, base)
                grown = True
        if grown:
            self.scale, lo, hi = endpoint_images([a for column in self.columns for a in column])
            cuts = list(pairwise(accumulate(map(len, self.columns), initial=0)))
            self.lo = [lo[a:b] for a, b in cuts]
            self.hi = [hi[a:b] for a, b in cuts]
        return [len(column) - 1 for column in self.columns]

    def areas_for(self, counts: Sequence[int]) -> ImagedVector:
        """The areas after `counts[i]` queries on each index i."""
        areas = ImagedVector(map(list.__getitem__, self.columns, counts))
        areas.images = (self.scale, list(map(list.__getitem__, self.lo, counts)),
                        list(map(list.__getitem__, self.hi, counts)))
        return areas

    def subset_vectors(self) -> Callable[[Sequence[int]], ImagedVector]:
        """For a level where no chain holds two entries: the function from
        the indices queried once to their vector, the start vector and its
        images copied and patched at those indices."""
        scale = self.scale
        start, top = [c[0] for c in self.columns], [c[-1] for c in self.columns]
        lo0, lo1 = [c[0] for c in self.lo], [c[-1] for c in self.lo]
        hi0, hi1 = [c[0] for c in self.hi], [c[-1] for c in self.hi]

        def vector(chosen: Sequence[int]) -> ImagedVector:
            areas, lo, hi = ImagedVector(start), lo0[:], hi0[:]
            for i in chosen:
                areas[i], lo[i], hi[i] = top[i], lo1[i], hi1[i]
            areas.images = (scale, lo, hi)
            return areas

        return vector


def _count_vectors(caps: Sequence[int], total: int):
    """All count vectors with 0 <= counts[i] <= caps[i] summing to `total`,
    in descending lexicographic order, so that vectors placing queries on
    smaller indices come first.  Yields one list, changed in place, with the
    bit mask of its support.

    Each step finds the last index whose count can drop by one while the
    indices after it still hold the rest, lowers it, and refills those
    indices greedily from the left: the next vector down in the order."""
    n = len(caps)
    tails = list(accumulate(reversed(caps), initial=0))[::-1]  # tails[i] = sum(caps[i:])
    if total > tails[0]:
        return
    counts, mask, i, rest = [0] * n, 0, -1, total
    while True:
        mask &= (1 << (i + 1)) - 1
        for j in range(i + 1, n):
            c = caps[j] if caps[j] < rest else rest
            counts[j] = c
            rest -= c
            if c:
                mask |= 1 << j
        yield counts, mask
        # Find the last index i with a count to give and room after it.
        for i in range(n - 1, -1, -1):
            c = counts[i]
            if c and tails[i + 1] > rest:
                break
            rest += c
        else:
            return
        counts[i] = c - 1
        if c == 1:
            mask &= ~(1 << i)
        rest += 1


def _vector(counts: Sequence[int]) -> Dict[int, int]:
    """The nonzero counts as a dict, keys ascending: a vector as reported."""
    return {i: c for i, c in enumerate(counts) if c}


def _level_walk(caps: Sequence[int], total: int):
    """(ones, walk): the count vectors of level `total` under these caps, in
    _count_vectors' order, each with the bit mask of its support.  When no
    cap passes 1, as with exact reveals, ones is True and walk yields each
    vector as the tuple of indices it counts once: the `total`-subsets of
    the indices with a cap, which itertools.combinations lists in that
    order, since an earlier subset takes its first differing index smaller.
    Otherwise walk is _count_vectors(caps, total)."""
    if max(caps, default=0) > 1:
        return False, _count_vectors(caps, total)
    indices = list(compress(range(len(caps)), caps))
    bits = [1 << i for i in indices]
    return True, zip(combinations(indices, total), map(sum, combinations(bits, total)))


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


def _minimal_vectors(areas, oracle, verifier, max_total, base_counts):
    """The inclusion-minimal verifying count vectors with total <= max_total,
    in search order.

    Verifying is not monotone: a vector above a verifying one may fail, and
    one above a failing one may verify.  The pruning is exact without it.  A
    found vector dominates every vector with at least its count on each
    index; those are not minimal, whatever their verdict, so they are
    skipped, and nothing is skipped before the first is found.  Once a whole
    level is dominated, so is every later one: a vector of total t + 1 is
    dominated by the one of total t that counts one less on an index it
    queries.  A found vector can dominate only a vector whose support holds
    its own, which one mask test rules out before any count is compared."""
    chains = _Chains(areas, oracle, base_counts)
    # Level 0 is the start vector alone.  The verifier images it as cheaply
    # as the chains would, and the chains image it again at level 1.
    if max_total >= 0 and verifier(list(areas)) is not None:
        yield {}
        return
    found: List[tuple] = []  # (support mask, (index, count) pairs)
    for total in range(1, max_total + 1):
        ones, walk = _level_walk(chains.extend(total), total)
        level_open = False
        if ones:
            # Every solution found so far counts one on each index it
            # queries, so it dominates exactly the vectors whose support
            # holds its own.  One found in this level dominates no other
            # vector of the level, as they all have the same total.
            masks = [sol_mask for sol_mask, _ in found]
            vector_of = chains.subset_vectors()
            for chosen, mask in walk:
                if masks and any(sol_mask & mask == sol_mask for sol_mask in masks):
                    continue
                level_open = True
                if verifier(vector_of(chosen)) is not None:
                    vector = dict.fromkeys(chosen, 1)
                    found.append((mask, tuple(vector.items())))
                    yield vector
        else:
            for counts, mask in walk:
                outside = ~mask
                if found and any(
                    not sol_mask & outside and all(counts[i] >= c for i, c in pairs)
                    for sol_mask, pairs in found
                ):
                    continue
                level_open = True
                if verifier(chains.areas_for(counts)) is not None:
                    vector = _vector(counts)
                    found.append((mask, tuple(vector.items())))
                    yield vector
        if not level_open:
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
