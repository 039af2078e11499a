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

A solve changes one area per query, so `IntImages` keeps the images of the
vector it last saw and patches them.  The images of one such state share one
D, which only grows between rebuilds: a new denominator that does not divide
D rescales every image by D'/D.  They order exactly as the values do, but
need not equal `int_images` of the same vector, whose D is the lcm of the
denominators present now.

Areas are immutable and every function is pure; `IntImages` is the one
object that changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress
from operator import is_not
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

Rational = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal notation into an exact rational.

    Accepts and rejects exactly what Fraction(text.strip()) does.  Plain
    ASCII 'p/q' and integers, the canonical form format_rational writes, are
    decoded with int(); everything else goes through Fraction's own parser.
    """
    text = str(text).strip()
    num, slash, den = text.partition("/")
    if text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit():
        if not slash:
            return Fraction(int(num))
        if den.isdigit():
            return Fraction(int(num), int(den))
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Canonical text form: 'p/q' with gcd-normalized terms (q > 0)."""
    return f"{value.numerator}/{value.denominator}"


def _fraction(value) -> Fraction:
    # Fraction(value) on a Fraction rebuilds it after an ABC instance check.
    return value if isinstance(value, Fraction) else Fraction(value)


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
        # Denominators are positive, so p/q vs r/s is p·s vs r·q on ints.
        p, q = self.lo.as_integer_ratio()
        r, s = self.hi.as_integer_ratio()
        width = r * q - p * s  # sign of hi - lo
        if width < 0:
            raise ValueError(f"empty area: lo={self.lo} > hi={self.hi}")
        if width == 0 and (
            self.lo_kind is not EndpointKind.CLOSED or self.hi_kind is not EndpointKind.CLOSED
        ):
            raise ValueError("a degenerate area is a point and must be closed at both ends")

    @staticmethod
    def point(value) -> "Area":
        v = _fraction(value)
        return Area(v, v, EndpointKind.CLOSED, EndpointKind.CLOSED)

    @staticmethod
    def open(lo, hi) -> "Area":
        return Area(_fraction(lo), _fraction(hi), EndpointKind.OPEN, EndpointKind.OPEN)

    @staticmethod
    def closed(lo, hi) -> "Area":
        return Area(_fraction(lo), _fraction(hi), EndpointKind.CLOSED, EndpointKind.CLOSED)

    @property
    def is_point(self) -> bool:
        # Fractions are normalised, so equal values have equal ratios.
        return self.lo.as_integer_ratio() == self.hi.as_integer_ratio()

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
        a, b = _fraction(x).as_integer_ratio()
        p, q = self.lo.as_integer_ratio()
        r, s = self.hi.as_integer_ratio()
        above_lo = a * q - p * b  # sign of x - lo
        below_hi = r * b - a * s  # sign of hi - x
        return (above_lo > 0 or (above_lo == 0 and self.lo_kind is EndpointKind.CLOSED)) and (
            below_hi > 0 or (below_hi == 0 and self.hi_kind is EndpointKind.CLOSED)
        )

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
        return Area._from_json(data, parse_rational)

    @staticmethod
    def _from_json(data: dict, parse: Callable[[object], Fraction]) -> "Area":
        """from_json with the endpoint parser passed in, so a reader of many
        areas can parse each distinct endpoint text once."""
        kind = data["kind"]
        if kind == "point":
            return Area.point(parse(data["value"]))
        lo = parse(data["lo"])
        hi = parse(data["hi"])
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

# IntImages.update re-images only the changed entries while at most one in
# this many changed; past that a rebuild costs about as much as the patch.
REBUILD_SHARE = 4


def int_images(areas: AreaVector) -> Tuple[List[int], List[int]]:
    """Integer images of every lo and hi endpoint, in exactly the order and
    equality of the endpoint values.

    The images are lo·D and hi·D, D the lcm of all lo and hi denominators,
    while D has at most SCALE_BITS_LIMIT bits.  Otherwise they are the ranks
    of the values among all distinct endpoints of the vector, so many coprime
    denominators cost one sort of the values, not arithmetic on huge ints.
    """
    return _images(areas)[1:]


def _images(areas: AreaVector) -> Tuple[int, List[int], List[int]]:
    """(D, lo images, hi images), with D = 0 when the images are ranks."""
    los = [a.lo.as_integer_ratio() for a in areas]
    his = [a.hi.as_integer_ratio() for a in areas]
    d = _grow_scale(1, {q for _, q in los + his})
    if not d:
        return (0, *_value_ranks(areas))
    return d, [p * (d // q) for p, q in los], [p * (d // q) for p, q in his]


def _grow_scale(d: int, denominators: Iterable[int]) -> int:
    """The lcm of d and the denominators, or 0 once it passes
    SCALE_BITS_LIMIT bits."""
    for q in denominators:
        if d % q:
            d = math.lcm(d, q)
            if d.bit_length() > SCALE_BITS_LIMIT:
                return 0
    return d


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


class IntImages:
    """The lo and hi images of the vector last seen, patched from call to
    call.

    `update` compares the new vector with the last one by identity (areas
    are immutable, so an unchanged entry is the same object) and re-images
    only the entries that changed.  A new denominator that does not divide D
    rescales every image by D'/D.  The images are rebuilt by `int_images`'s
    rule when the length changed, when more than one entry in REBUILD_SHARE
    changed, when D would pass SCALE_BITS_LIMIT bits, or when they are
    ranks, which cannot be patched.
    """

    __slots__ = ("areas", "lo", "hi", "scale", "renumbered")

    def __init__(self) -> None:
        self.areas: List[Area] = []
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.scale = 0  # D, or 0 while the images are ranks
        # True when the last update changed images of unchanged entries too
        # (a rescale or a rebuild); their order among themselves never moves.
        self.renumbered = False

    def update(self, areas: AreaVector) -> Sequence[int]:
        """Bring the images up to `areas`; the indices whose area changed."""
        n = len(areas)
        if n == len(self.areas):
            changed = list(compress(range(n), map(is_not, areas, self.areas)))
            if not changed:
                self.renumbered = False
                return changed
        else:
            changed = range(n)
        if not (self.scale and REBUILD_SHARE * len(changed) <= n and self._patch(areas, changed)):
            self.areas = list(areas)
            self.scale, self.lo, self.hi = _images(self.areas)
            self.renumbered = True
        return changed

    def _patch(self, areas: AreaVector, changed: List[int]) -> bool:
        los = [areas[i].lo.as_integer_ratio() for i in changed]
        his = [areas[i].hi.as_integer_ratio() for i in changed]
        d = _grow_scale(self.scale, [q for _, q in los + his])
        if not d:
            return False
        self.renumbered = d != self.scale
        if self.renumbered:
            f = d // self.scale
            self.lo = [v * f for v in self.lo]
            self.hi = [v * f for v in self.hi]
            self.scale = d
        for i, (p, q), (r, s) in zip(changed, los, his):
            self.lo[i] = p * (d // q)
            self.hi[i] = r * (d // s)
            self.areas[i] = areas[i]
        return True


def lo_ranks(
    lo_image: Sequence[int], lo_kinds: Iterable[EndpointKind], tie_rule: TieRule
) -> Sequence[int]:
    """order_l's sort ranks of areas with these lo images and lo endpoint
    kinds; equal ranks go to the smaller index.  Under stable a rank is the
    image itself, and `lo_image` is returned as it is.  Under lex an area that
    attains its lo sorts before one that does not at the same value."""
    if tie_rule is TieRule.LEX:
        return [2 * v + (kind is not EndpointKind.CLOSED) for v, kind in zip(lo_image, lo_kinds)]
    return lo_image


def lo_rank(lo_image: int, lo_kind: EndpointKind, tie_rule: TieRule) -> int:
    """lo_ranks of one area."""
    return lo_ranks((lo_image,), (lo_kind,), tie_rule)[0]


def order_l(
    areas: AreaVector,
    subset: Optional[Iterable[int]] = None,
    tie_rule: TieRule = TieRule.STABLE,
) -> list:
    """Indices of `subset` sorted ascending by lo value.

    Stable ties keep index order.  Lex ties put an area that attains its lo
    endpoint (closed end or point) before one that does not; remaining ties
    go to the smaller index.
    """
    # Sorting the indices first makes the stable sort break every remaining
    # tie toward the smaller index.
    idx = sorted(_check_subset(areas, subset))
    rank = lo_ranks(int_images(areas)[0], (a.lo_kind for a in areas), tie_rule)
    return sorted(idx, key=rank.__getitem__)


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
