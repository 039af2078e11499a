"""Exact areas of uncertainty and the comparison algebra over them.

An *area* is the region currently known to contain a hidden value: either an
interval with per-endpoint open/closed kinds, or a single point (modelled as a
degenerate closed interval).  Endpoints are exact rationals; there is no
epsilon anywhere, which is what makes the closed-endpoint tie rules sound.

Hot paths compare integer images instead of Fractions.  `int_images` scales
every lo and hi endpoint of a vector by D, the lcm of all their denominators,
so each image p·(D/q) is an int.  Scaling by one positive constant preserves
order and equality, so any comparison between two endpoints of the same
vector is exactly the comparison of their images, with no floats and no
rounding.  Images of different vectors (different D) are not comparable.
The scaling pays off while the vector has a small common denominator, as
with halving oracles (powers of two) or decimal inputs.  Many coprime
denominators make D, and every image, thousands of digits long; above
SCALE_BITS_LIMIT bits the images are instead the ranks of the values among
the vector's endpoints, which cost one sort and keep the same exactness.

All values are immutable and all functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

Rational = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal notation into an exact rational."""
    return Fraction(str(text).strip())


def format_rational(value: Fraction) -> str:
    """Canonical text form: 'p/q' with gcd-normalized terms (q > 0)."""
    return f"{value.numerator}/{value.denominator}"


class EndpointKind(Enum):
    OPEN = "open"
    CLOSED = "closed"


class TieRule(Enum):
    STABLE = "stable"
    LEX = "lex"


@dataclass(frozen=True)
class Area:
    """A point or interval with per-endpoint kinds.  Never the empty set."""

    lo: Fraction
    hi: Fraction
    lo_kind: EndpointKind
    hi_kind: EndpointKind

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty area: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and (
            self.lo_kind is not EndpointKind.CLOSED or self.hi_kind is not EndpointKind.CLOSED
        ):
            raise ValueError("a degenerate area is a point and must be closed at both ends")

    @staticmethod
    def point(value) -> "Area":
        v = Fraction(value)
        return Area(v, v, EndpointKind.CLOSED, EndpointKind.CLOSED)

    @staticmethod
    def open(lo, hi) -> "Area":
        return Area(Fraction(lo), Fraction(hi), EndpointKind.OPEN, EndpointKind.OPEN)

    @staticmethod
    def closed(lo, hi) -> "Area":
        return Area(Fraction(lo), Fraction(hi), EndpointKind.CLOSED, EndpointKind.CLOSED)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def attains_lo(self) -> bool:
        return self.lo_kind is EndpointKind.CLOSED

    @property
    def attains_hi(self) -> bool:
        return self.hi_kind is EndpointKind.CLOSED

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains_value(self, x) -> bool:
        x = Fraction(x)
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.attains_lo:
            return False
        if x == self.hi and not self.attains_hi:
            return False
        return True

    def mirror(self) -> "Area":
        """Negate endpoints; maps k-th max questions onto k-th min ones."""
        return Area(-self.hi, -self.lo, self.hi_kind, self.lo_kind)

    def __str__(self) -> str:
        if self.is_point:
            return str(self.lo)
        lb = "[" if self.attains_lo else "("
        rb = "]" if self.attains_hi else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"

    def to_json(self) -> dict:
        if self.is_point:
            return {"kind": "point", "value": format_rational(self.lo)}
        if self.lo_kind is EndpointKind.OPEN and self.hi_kind is EndpointKind.OPEN:
            kind = "open"
        elif self.lo_kind is EndpointKind.CLOSED and self.hi_kind is EndpointKind.CLOSED:
            kind = "closed"
        else:
            kind = "mixed"
        out = {"kind": kind, "lo": format_rational(self.lo), "hi": format_rational(self.hi)}
        if kind == "mixed":
            out["lo_kind"] = self.lo_kind.value
            out["hi_kind"] = self.hi_kind.value
        return out

    @staticmethod
    def from_json(data: dict) -> "Area":
        kind = data["kind"]
        if kind == "point":
            return Area.point(parse_rational(data["value"]))
        lo = parse_rational(data["lo"])
        hi = parse_rational(data["hi"])
        if kind == "open":
            return Area.open(lo, hi)
        if kind == "closed":
            return Area.closed(lo, hi)
        if kind == "mixed":
            return Area(lo, hi, EndpointKind(data["lo_kind"]), EndpointKind(data["hi_kind"]))
        raise ValueError(f"unknown area kind {kind!r}")


AreaVector = Sequence[Area]


def contains(outer: Area, inner: Area) -> bool:
    """True iff every value of `inner` is a member of `outer`."""
    if inner.lo < outer.lo or (
        inner.lo == outer.lo and inner.attains_lo and not outer.attains_lo
    ):
        return False
    if inner.hi > outer.hi or (
        inner.hi == outer.hi and inner.attains_hi and not outer.attains_hi
    ):
        return False
    return True


def surely_leq(a: Area, b: Area) -> bool:
    """True iff x <= y for every x in a, y in b.

    Equivalent to hi(a) <= lo(b): on equality every x <= hi(a) = lo(b) <= y,
    so the endpoint kinds are irrelevant for the non-strict relation.
    """
    return a.hi <= b.lo


def surely_lt(a: Area, b: Area) -> bool:
    """True iff x < y for every x in a, y in b."""
    if a.hi < b.lo:
        return True
    return a.hi == b.lo and (not a.attains_hi or not b.attains_lo)


def _check_subset(areas: AreaVector, subset: Optional[Iterable[int]]) -> list:
    if subset is None:
        idx = list(range(len(areas)))
    else:
        idx = list(subset)
    if not idx:
        raise ValueError("subset must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate indices in subset")
    for i in idx:
        if not 0 <= i < len(areas):
            raise ValueError(f"index {i} out of range")
    return idx


# Above this size of D, int_images ranks the endpoint values instead.  Scaling
# costs time in proportion to D's size and ranking does not; at n=1600 the two
# cost the same near 4000 bits.
SCALE_BITS_LIMIT = 1024


def int_images(areas: AreaVector) -> Tuple[List[int], List[int]]:
    """Integer images of every lo and hi endpoint, in exactly the order and
    equality of the endpoint values.

    The images are lo·D and hi·D, D the lcm of all lo and hi denominators,
    while D has at most SCALE_BITS_LIMIT bits.  Otherwise they are the ranks
    of the values among all distinct endpoints of the vector, so many coprime
    denominators cost one sort of the values, not arithmetic on huge ints.
    """
    los = [a.lo.as_integer_ratio() for a in areas]
    his = [a.hi.as_integer_ratio() for a in areas]
    d = 1
    for q in {q for _, q in los} | {q for _, q in his}:
        d = math.lcm(d, q)
        if d.bit_length() > SCALE_BITS_LIMIT:
            return _value_ranks(areas)
    return [p * (d // q) for p, q in los], [p * (d // q) for p, q in his]


def _value_ranks(areas: AreaVector) -> Tuple[List[int], List[int]]:
    values = [a.lo for a in areas] + [a.hi for a in areas]
    order = list(range(len(values)))
    try:
        # Rounding to float is monotone, so this leaves the values nearly
        # sorted and the exact sort below makes one linear pass over them.
        order.sort(key=lambda i: float(values[i]))
    except OverflowError:
        pass
    order.sort(key=values.__getitem__)
    ranks = [0] * len(values)
    r = 0
    for prev, i in zip(order, order[1:]):
        if values[i] != values[prev]:
            r += 1
        ranks[i] = r
    return ranks[: len(areas)], ranks[len(areas) :]


def order_l(
    areas: AreaVector,
    subset: Optional[Iterable[int]] = None,
    tie_rule: TieRule = TieRule.STABLE,
    lo_image: Optional[Sequence[int]] = None,
) -> list:
    """Indices of `subset` sorted ascending by lo value.

    Stable ties keep index order.  Lex ties put an area that attains its lo
    endpoint (closed end or point) before one that does not; remaining ties
    go to the smaller index.  `lo_image` is the lo list of `int_images(areas)`
    when the caller already has it.
    """
    # Sorting the indices first makes the stable sorts break every remaining
    # tie toward the smaller index.
    idx = sorted(_check_subset(areas, subset))
    if lo_image is None:
        lo_image = int_images(areas)[0]
    if tie_rule is TieRule.STABLE:
        return sorted(idx, key=lo_image.__getitem__)
    return sorted(idx, key=lambda i: (lo_image[i], not areas[i].attains_lo))


def order_u(
    areas: AreaVector,
    subset: Optional[Iterable[int]] = None,
    tie_rule: TieRule = TieRule.STABLE,
) -> list:
    """Indices of `subset` sorted ascending by hi value.

    Lex ties are the mirror of order_l: an area attaining its hi endpoint
    orders after one that does not; remaining ties to the smaller index.
    """
    idx = sorted(_check_subset(areas, subset))
    hi = int_images(areas)[1]
    if tie_rule is TieRule.STABLE:
        return sorted(idx, key=hi.__getitem__)
    return sorted(idx, key=lambda i: (hi[i], areas[i].attains_hi))
