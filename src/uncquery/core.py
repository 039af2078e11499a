"""Exact areas of uncertainty and the comparison algebra over them.

An *area* is the region currently known to contain a hidden value: either an
interval with per-endpoint open/closed kinds, or a single point (modelled as a
degenerate closed interval).  Endpoints are exact rationals; there is no
epsilon anywhere, which is what makes the closed-endpoint tie rules sound.

Hot paths compare integer images instead of Fractions.  A `VectorState`
scales every lo and hi endpoint of a vector by D, the lcm of all their
denominators, so each image p·(D/q) is an int.  Scaling by one positive
constant preserves order and equality, so any comparison between two
endpoints of the same vector is exactly the comparison of their images, with
no floats and no rounding.  Images of different states are not comparable.
The scaling pays off while the vector has a small common denominator, as
with halving oracles (powers of two) or decimal inputs.  Many coprime
denominators make D, and every image, thousands of digits long; above
SCALE_BITS_LIMIT bits the images are instead the ranks of the values among
the vector's endpoints, which cost one sort and keep the same exactness.

A solve changes one area per query, so a `VectorState` keeps the images of
the vector it last saw, with the lo ranks and the lo order read from them,
and patches all three.  Its D only grows between rebuilds: a new denominator
that does not divide D rescales every image by D'/D.  The selection rules,
uMST passes and `order_l`/`order_u` all read such a state.

A vector may bring its own images: an `ImagedVector` carries images taken
over any superset of its areas, scaled or ranked, which order its own
endpoints just as exactly.  A state rebuilt from one takes them instead of
imaging the areas again; the OPT search hands its verifier these.

An `Area` is a slotted immutable value.  Its constructor coerces the
endpoints to Fraction, refuses an empty area, and fixes `is_point` once, so
the solvers' many point checks are attribute loads.  Every function is pure;
a `VectorState` is the one object that changes.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from itertools import compress
from operator import attrgetter, is_not
from typing import Callable, Iterable, List, Sequence, Tuple


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or decimal notation into an exact rational.

    Accepts and rejects what Fraction(text.strip()) does, with one bound: a
    decimal whose mantissa digits plus absolute exponent exceed the
    interpreter's digit bound for int strings (sys.get_int_max_str_digits(),
    or 4300 where that does not exist or is switched off) raises ValueError
    before anything is built.  That sum bounds the digits of the numerator
    and of the denominator: '1e4300' and '1e-4300' each name a 4301-digit
    integer, which format_rational could not write out, and Fraction would
    build 10**exponent for them.  Plain ASCII 'p/q' and integers, the
    canonical form format_rational writes, are decoded with int(), which
    applies the bound itself; everything else goes through Fraction's own
    parser.
    """
    text = str(text).strip()
    num, slash, den = text.partition("/")
    if text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit():
        if not slash:
            return Fraction(int(num))
        if den.isdigit():
            return Fraction(int(num), int(den))
    mantissa, e, exponent = text.lower().partition("e")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    try:
        digits = 0 if slash else sum(map(str.isdigit, mantissa)) + (abs(int(exponent)) if e else 0)
    except ValueError:  # a malformed exponent; Fraction judges the text
        digits = 0
    if digits > limit:
        raise ValueError(f"decimal past the {limit}-digit bound in {text[:40]!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Canonical text form: 'p/q' with gcd-normalized terms (q > 0)."""
    return f"{value.numerator}/{value.denominator}"


def as_fraction(value) -> Fraction:
    """`value` as a Fraction; Fraction(value) would rebuild a Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


class EndpointKind(Enum):
    OPEN = "open"
    CLOSED = "closed"


class TieRule(Enum):
    STABLE = "stable"
    LEX = "lex"


class Area:
    """A point or interval with per-endpoint kinds.  Never the empty set.

    An immutable value: every assignment raises AttributeError, and equal
    areas hash equal.  The constructor coerces the endpoints to Fraction and
    fixes `is_point` from the sign of hi - lo that its emptiness check
    computes anyway, so reading it is an attribute load."""

    __slots__ = ("lo", "hi", "lo_kind", "hi_kind", "is_point")

    lo: Fraction
    hi: Fraction
    lo_kind: EndpointKind
    hi_kind: EndpointKind
    is_point: bool

    def __init__(self, lo, hi, lo_kind: EndpointKind, hi_kind: EndpointKind) -> None:
        if not isinstance(lo, Fraction) or not isinstance(hi, Fraction):
            lo, hi = Fraction(lo), Fraction(hi)
        # Denominators are positive, so p/q vs r/s is p·s vs r·q on ints.
        p, q = lo.as_integer_ratio()
        r, s = hi.as_integer_ratio()
        width = r * q - p * s  # sign of hi - lo
        if width < 0:
            raise ValueError(f"empty area: lo={lo} > hi={hi}")
        if width == 0 and (
            lo_kind is not EndpointKind.CLOSED or hi_kind is not EndpointKind.CLOSED
        ):
            raise ValueError("a degenerate area is a point and must be closed at both ends")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_lo_kind(self, lo_kind)
        _set_hi_kind(self, hi_kind)
        _set_is_point(self, width == 0)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi, self.lo_kind, self.hi_kind) == (
                other.lo, other.hi, other.lo_kind, other.hi_kind)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.lo_kind, self.hi_kind))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(lo={self.lo!r}, hi={self.hi!r}, "
                f"lo_kind={self.lo_kind!r}, hi_kind={self.hi_kind!r})")

    def __reduce__(self):
        return type(self), (self.lo, self.hi, self.lo_kind, self.hi_kind)

    def __copy__(self) -> "Area":
        return self

    def __deepcopy__(self, memo) -> "Area":
        return self

    @staticmethod
    def point(value) -> "Area":
        v = as_fraction(value)
        return Area(v, v, EndpointKind.CLOSED, EndpointKind.CLOSED)

    @staticmethod
    def open(lo, hi) -> "Area":
        return Area(lo, hi, EndpointKind.OPEN, EndpointKind.OPEN)

    @staticmethod
    def closed(lo, hi) -> "Area":
        return Area(lo, hi, EndpointKind.CLOSED, EndpointKind.CLOSED)

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
        a, b = as_fraction(x).as_integer_ratio()
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
    def from_json(data: dict, parse: Callable[[object], Fraction] = parse_rational) -> "Area":
        """The area a JSON object describes.  A reader of many areas can pass
        a `parse` that parses each distinct endpoint text once."""
        kind = data["kind"]
        if kind == "point":
            lo = hi = parse(data["value"])
            return Area(lo, hi, EndpointKind.CLOSED, EndpointKind.CLOSED)
        lo = parse(data["lo"])
        hi = parse(data["hi"])
        if kind == "open":
            return Area(lo, hi, EndpointKind.OPEN, EndpointKind.OPEN)
        if kind == "closed":
            return Area(lo, hi, EndpointKind.CLOSED, EndpointKind.CLOSED)
        if kind == "mixed":
            return Area(lo, hi, EndpointKind(data["lo_kind"]), EndpointKind(data["hi_kind"]))
        raise ValueError(f"unknown area kind {kind!r}")


# The slots' own setters: Area.__setattr__ refuses every assignment, so its
# constructor writes each field through the slot descriptor.
_set_lo, _set_hi, _set_lo_kind, _set_hi_kind, _set_is_point = (
    vars(Area)[name].__set__ for name in Area.__slots__)

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


# Above this size of D, a VectorState ranks the endpoint values instead.
# Scaling costs time in proportion to D's size and ranking does not; at n=1600
# the two cost the same near 4000 bits.
SCALE_BITS_LIMIT = 1024

# VectorState.update patches only the changed entries while at most one in
# this many changed; past that a rebuild costs about as much as the patch.
REBUILD_SHARE = 4


class ImagedVector(list):
    """A list of areas carrying `images` = (D, lo images, hi images), set
    after construction: `endpoint_images` of any superset of the areas, read
    at the vector's entries.  Scaled (D > 0) or ranked (D = 0), they order
    the vector's endpoints exactly as their values."""

    __slots__ = ("images",)


def endpoint_images(areas: AreaVector) -> Tuple[int, List[int], List[int]]:
    """(D, lo images, hi images) at the lcm D of the denominators, or with
    D = 0 the values' ranks once D would pass SCALE_BITS_LIMIT bits."""
    los = [a.lo.as_integer_ratio() for a in areas]
    his = [a.hi.as_integer_ratio() for a in areas]
    d = _grow_scale(1, {q for _, q in los + his})
    if not d:
        return (0, *_rank_values(areas))
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


def _rank_values(areas: AreaVector) -> Tuple[List[int], List[int]]:
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


class VectorState:
    """The integer images, lo ranks and lo order of the vector last seen,
    patched from one vector to the next.

    `update` compares the new vector with the last one by identity (areas
    are immutable, so an unchanged entry is the same object) and keeps the
    indices whose area changed in `changed`.  Only those are re-imaged,
    taken out of the lo order and inserted again by bisection.  A new
    denominator that does not divide D rescales every image by D'/D, which
    keeps their order.  Everything is rebuilt when the length changed, when
    more than one entry in REBUILD_SHARE changed, when D would pass
    SCALE_BITS_LIMIT bits, or while the images are ranks, which cannot be
    patched.  An `ImagedVector` is always rebuilt from the images it
    brings, scaled or ranked over whatever superset they were taken from:
    copying them costs less than a patch.

    `rank[i]` is order_l's sort rank of entry i: its lo image under the
    stable tie rule; under lex twice that, plus one when the area does not
    attain its lo, so an attained lo sorts first.  `order` lists the indices
    ascending by rank·n + index, so ties go to the smaller index.

    A mirrored state describes the vector with every value negated: the
    images are negated and swapped, and so are the attains flags, so that
    the k-min rules answer the k-max question.
    """

    __slots__ = ("tie_rule", "mirror", "areas", "scale", "lo", "hi", "rank", "order", "changed")

    def __init__(self, tie_rule: TieRule = TieRule.STABLE, mirror: bool = False) -> None:
        self.tie_rule = tie_rule
        self.mirror = mirror
        self.areas: List[Area] = []
        self.scale = 0  # D, or 0 while the images are ranks
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.rank: List[int] = []
        self.order: List[int] = []
        self.changed: Sequence[int] = ()

    def attains_lo(self, i: int) -> bool:
        a = self.areas[i]
        return a.attains_hi if self.mirror else a.attains_lo

    def attains_hi(self, i: int) -> bool:
        a = self.areas[i]
        return a.attains_lo if self.mirror else a.attains_hi

    def update(self, areas: AreaVector) -> "VectorState":
        """Bring the state up to `areas` and return it."""
        n = len(areas)
        if n == len(self.areas):
            self.changed = list(compress(range(n), map(is_not, areas, self.areas)))
            if not self.changed:
                return self
        else:
            self.changed = range(n)
        images = getattr(areas, "images", None)
        if images is not None or not (
            self.scale and REBUILD_SHARE * len(self.changed) <= n and self._patch(areas)
        ):
            self.areas = list(areas)
            if images is None:
                self.scale, lo, hi = endpoint_images(self.areas)
            else:
                self.scale, lo, hi = images[0], images[1][:], images[2][:]
            if self.mirror:
                lo, hi = [-v for v in hi], [-v for v in lo]
            self._read(lo, hi)
            # A stable sort of ascending indices breaks rank ties by index.
            self.order = sorted(range(n), key=self.rank.__getitem__)
        return self

    def _read(self, lo: List[int], hi: List[int]) -> None:
        """Take these oriented images and rank them."""
        self.lo, self.hi = lo, hi
        if self.tie_rule is TieRule.LEX:
            kinds = map(attrgetter("hi_kind" if self.mirror else "lo_kind"), self.areas)
            self.rank = [2 * v + (kind is not EndpointKind.CLOSED) for v, kind in zip(lo, kinds)]
        else:
            self.rank = lo

    def _patch(self, areas: AreaVector) -> bool:
        changed = self.changed
        los = [areas[i].lo.as_integer_ratio() for i in changed]
        his = [areas[i].hi.as_integer_ratio() for i in changed]
        d = _grow_scale(self.scale, [q for _, q in los + his])
        if not d:
            return False
        order = self.order
        for i in changed:
            order.remove(i)
            self.areas[i] = areas[i]
        if d != self.scale:
            f = d // self.scale
            self.scale = d
            self._read([v * f for v in self.lo], [v * f for v in self.hi])
        lo, hi, rank = self.lo, self.hi, self.rank
        for i, (p, q), (r, s) in zip(changed, los, his):
            a, b = p * (d // q), r * (d // s)
            lo[i], hi[i] = (-b, -a) if self.mirror else (a, b)
            if self.tie_rule is TieRule.LEX:
                rank[i] = 2 * lo[i] + (not self.attains_lo(i))
        n = len(rank)
        for i in changed:
            order.insert(bisect_left(order, rank[i] * n + i, key=lambda j: rank[j] * n + j), i)
        return True


def order_l(areas: AreaVector, tie_rule: TieRule = TieRule.STABLE) -> list:
    """Indices sorted ascending by lo value.

    Stable ties keep index order.  Lex ties put an area that attains its lo
    endpoint (closed end or point) before one that does not; remaining ties
    go to the smaller index.
    """
    return VectorState(tie_rule).update(areas).order


def order_u(areas: AreaVector, tie_rule: TieRule = TieRule.STABLE) -> list:
    """Indices sorted ascending by hi value.

    Lex ties are the mirror of order_l: an area attaining its hi endpoint
    orders after one that does not; remaining ties to the smaller index.
    """
    hi = VectorState().update(areas).hi
    if tie_rule is TieRule.STABLE:
        return sorted(range(len(areas)), key=hi.__getitem__)
    return sorted(range(len(areas)), key=lambda i: (hi[i], areas[i].attains_hi))
