"""Exact areas of uncertainty and the comparison algebra over them.

An *area* is the region currently known to contain a hidden value: an open
interval, a closed interval, or a single point (modelled as a degenerate
closed interval), the three area types every query model is built from.  One
flag, `attains`, says whether the area holds its endpoints.  Endpoints are
exact rationals; there is no epsilon anywhere, which is what makes the
closed-endpoint tie rules sound.

Hot paths compare integer images instead of Fractions.  A `VectorState`
scales every lo and hi endpoint of a vector by D, a common multiple of all
their denominators, so each image p·(D/q) is an int.  Scaling by one positive
constant preserves order and equality, so any comparison between two
endpoints of the same vector is exactly the comparison of their images, with
no floats and no rounding.  Images of different states are not comparable.
The scaling pays off while the vector has a small common denominator, as
with halving oracles (powers of two) or decimal inputs.  Many coprime
denominators make D, and every image, thousands of digits long; once their
lcm passes SCALE_BITS_LIMIT bits the images are instead the ranks of the
values among the vector's endpoints, which cost one sort and keep the same
exactness.

A solve changes one area per query, so a `VectorState` keeps the images of
the vector it last saw, with the lo ranks and the lo order read from them,
and patches all three.  Every solve keeps them in a `LoggedVector`, whose
writes are the solve's query log, so a state handed the same vector again
reads the indices written since its last call instead of comparing all n
entries.  A rebuild takes D as the exact lcm.  Between rebuilds D only
grows: a new denominator that does not divide D rescales every image by
D'/D, and D' takes powers of the missing factor past the lcm, up to
HEADROOM_BITS, so that the next denominators of the same kind (a halving
oracle's next power of two) divide it and rescale nothing.  The selection
rules, uMST passes and `order_l`/`order_u` all read such a state.

A vector may bring its own images: an `ImagedVector` carries images taken
over any superset of its areas, scaled or ranked, which order its own
endpoints just as exactly.  A state rebuilt from one takes them instead of
imaging the areas again; the OPT search hands its verifier these.

An `Area` is a slotted immutable value.  Its constructor coerces the
endpoints to Fraction, refuses an empty area and a flag that is not a bool,
and fixes `is_point` once, so the solvers' many point checks are attribute
loads.  Every function is pure; a `VectorState` and a solve's `LoggedVector`
are the objects that change.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from itertools import compress
from operator import is_not
from typing import Callable, Iterable, List, Optional, Sequence, Tuple


def _plain_ratio(text):
    """(p, q) of a plain ASCII 'p/q' or integer text, the canonical form
    format_rational writes, q possibly 0; None for any other value."""
    if type(text) is str and text.isascii():
        num, slash, den = text.partition("/")
        if num.isdigit() or num[:1] == "-" and num[1:].isdigit():
            if not slash:
                return int(num), 1
            if den.isdigit():
                return int(num), int(den)
    return None


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
    ratio = _plain_ratio(text)
    if ratio is not None:
        return Fraction(*ratio)
    text = str(text).strip()
    mantissa, e, exponent = text.lower().partition("e")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    try:
        digits = 0 if "/" in text else sum(map(str.isdigit, mantissa)) + (abs(int(exponent)) if e else 0)
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


class Rationals(Sequence):
    """An immutable sequence of exact rationals that equals and hashes like
    the tuple of its Fractions.  Built from Rationals it is that object;
    from other values it coerces each as as_fraction does.  Built by `parse`
    it holds integer pairs and builds a value's Fraction when its index is
    first read, so a solve builds Fractions only for the hidden values its
    queries reveal."""

    __slots__ = ("_ratios", "_values")

    def __new__(cls, values: Iterable = ()) -> "Rationals":
        if type(values) is cls:
            return values
        self = object.__new__(cls)
        self._ratios, self._values = None, list(map(as_fraction, values))
        return self

    @classmethod
    def parse(cls, texts: Iterable) -> "Rationals":
        """The values parse_rational reads from `texts`.  A plain 'p/q' or
        integer text with q nonzero is kept as its integers; every other
        text is parsed at once, so a bad one raises here as parse_rational
        does."""
        ratios = []
        for text in texts:
            ratio = _plain_ratio(text)
            ratios.append(ratio if ratio and ratio[1] else parse_rational(text).as_integer_ratio())
        self = object.__new__(cls)
        self._ratios, self._values = ratios, [None] * len(ratios)
        return self

    def ratios(self) -> Iterable[Tuple[int, int]]:
        """Each value as (p, q), q > 0 and not necessarily in lowest terms,
        without building a Fraction."""
        if self._ratios is None:
            return map(Fraction.as_integer_ratio, self._values)
        return iter(self._ratios)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        value = self._values[index]
        if value is None:
            value = self._values[index] = Fraction(*self._ratios[index])
        return value

    def __iter__(self):
        return map(self.__getitem__, range(len(self._values)))

    def __eq__(self, other):
        if isinstance(other, Rationals):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({tuple(self)!r})"


class TieRule(Enum):
    STABLE = "stable"
    LEX = "lex"


class Area:
    """An open interval, a closed interval or a point.  Never the empty set.

    `attains` is true for a closed interval and a point, which hold both
    their endpoints, and false for an open interval, which holds neither;
    the constructor takes it as a bool, so no text or enum member can pass
    for one.  An immutable value: every assignment raises AttributeError,
    and equal areas hash equal.  The constructor coerces the endpoints to
    Fraction and fixes `is_point` from the sign of hi - lo that its
    emptiness check computes anyway, so reading it is an attribute load."""

    __slots__ = ("lo", "hi", "attains", "is_point")

    lo: Fraction
    hi: Fraction
    attains: bool
    is_point: bool

    def __init__(self, lo, hi, attains: bool) -> None:
        if attains.__class__ is not bool:
            raise TypeError(f"attains must be a bool, got {attains!r}")
        if not isinstance(lo, Fraction) or not isinstance(hi, Fraction):
            lo, hi = Fraction(lo), Fraction(hi)
        # Denominators are positive, so p/q vs r/s is p·s vs r·q on ints.
        p, q = lo.as_integer_ratio()
        r, s = hi.as_integer_ratio()
        width = r * q - p * s  # sign of hi - lo
        if width < 0:
            raise ValueError(f"empty area: lo={lo} > hi={hi}")
        if width == 0 and not attains:
            raise ValueError("a degenerate area is a point and must be closed at both ends")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_attains(self, attains)
        _set_is_point(self, width == 0)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi, self.attains) == (other.lo, other.hi, other.attains)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.attains))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(lo={self.lo!r}, hi={self.hi!r}, "
                f"attains={self.attains!r})")

    def __reduce__(self):
        return type(self), (self.lo, self.hi, self.attains)

    def __copy__(self) -> "Area":
        return self

    def __deepcopy__(self, memo) -> "Area":
        return self

    @staticmethod
    def point(value) -> "Area":
        v = as_fraction(value)
        return Area(v, v, True)

    @staticmethod
    def open(lo, hi) -> "Area":
        return Area(lo, hi, False)

    @staticmethod
    def closed(lo, hi) -> "Area":
        return Area(lo, hi, True)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains_value(self, x) -> bool:
        return self.contains_ratio(*as_fraction(x).as_integer_ratio())

    def contains_ratio(self, a: int, b: int) -> bool:
        """contains_value of a/b, for b > 0, decided on integers."""
        p, q = self.lo.as_integer_ratio()
        r, s = self.hi.as_integer_ratio()
        above_lo = a * q - p * b  # sign of x - lo
        below_hi = r * b - a * s  # sign of hi - x
        if self.attains:
            return above_lo >= 0 and below_hi >= 0
        return above_lo > 0 and below_hi > 0

    def __str__(self) -> str:
        if self.is_point:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]" if self.attains else f"({self.lo}, {self.hi})"

    def to_json(self) -> dict:
        if self.is_point:
            return {"kind": "point", "value": format_rational(self.lo)}
        return {"kind": "closed" if self.attains else "open",
                "lo": format_rational(self.lo), "hi": format_rational(self.hi)}

    @staticmethod
    def from_json(data: dict, parse: Callable[[object], Fraction] = parse_rational) -> "Area":
        """The area a JSON object of kind "point", "open" or "closed"
        describes.  A reader of many areas can pass a `parse` that parses
        each distinct endpoint text once."""
        kind = data["kind"]
        if kind == "point":
            lo = hi = parse(data["value"])
            return Area(lo, hi, True)
        if kind != "open" and kind != "closed":
            raise ValueError(f"unknown area kind {kind!r}")
        return Area(parse(data["lo"]), parse(data["hi"]), kind == "closed")


# The slots' own setters: Area.__setattr__ refuses every assignment, so its
# constructor writes each field through the slot descriptor.
_set_lo, _set_hi, _set_attains, _set_is_point = (
    vars(Area)[name].__set__ for name in Area.__slots__)

AreaVector = Sequence[Area]


def contains(outer: Area, inner: Area) -> bool:
    """True iff every value of `inner` is a member of `outer`: it lies within
    outer's endpoints and holds a shared endpoint only if outer does."""
    if inner.lo < outer.lo or inner.hi > outer.hi:
        return False
    return outer.attains or not inner.attains or (inner.lo != outer.lo and inner.hi != outer.hi)


def surely_leq(a: Area, b: Area) -> bool:
    """True iff x <= y for every x in a, y in b.

    Equivalent to hi(a) <= lo(b): on equality every x <= hi(a) = lo(b) <= y,
    so whether the areas attain their endpoints is irrelevant for the
    non-strict relation.
    """
    return a.hi <= b.lo


def surely_lt(a: Area, b: Area) -> bool:
    """True iff x < y for every x in a, y in b."""
    if a.hi < b.lo:
        return True
    return a.hi == b.lo and not (a.attains and b.attains)


# Above this size of D, a VectorState ranks the endpoint values instead.
# Scaling costs time in proportion to D's size and ranking does not; at n=1600
# the two cost the same near 4000 bits.
SCALE_BITS_LIMIT = 1024

# A patch that needs a new factor in D takes powers of it past the exact lcm,
# so that later denominators with the same factor find it there, but never
# past this size: well below SCALE_BITS_LIMIT, so the headroom alone cannot
# send a vector to ranks (a patch past the limit rebuilds at the exact lcm).
HEADROOM_BITS = SCALE_BITS_LIMIT // 4

# VectorState.update patches only the changed entries while at most one in
# this many changed; past that a rebuild costs about as much as the patch.
REBUILD_SHARE = 4


class LoggedVector(list):
    """A solve's areas with `writes`, its query log: the engine, their only
    writer, stores each response with `list.__setitem__` and appends
    (index, response) to `writes`, so a `VectorState` that last read the
    vector at some length of the log finds the entries written since without
    comparing the others.  Item and slice assignment and every mutator that
    could move or drop entries raise TypeError, since they would change
    entries the log does not name."""

    __slots__ = ("writes",)

    def __init__(self, areas: Iterable[Area] = ()) -> None:
        super().__init__(areas)
        self.writes: List[Tuple[int, Area]] = []


def _unlogged(name: str):
    def refuse(self, *args):
        raise TypeError(f"LoggedVector.{name} would change entries unlogged")
    return refuse


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
              "insert", "pop", "remove", "clear", "sort", "reverse"):
    setattr(LoggedVector, _name, _unlogged(_name))


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

    `update` keeps the indices whose area changed since the last vector in
    `changed`, ascending.  Handed again the `LoggedVector` it read last, it
    takes them from the solve's writes since then, each a strict refinement
    and so a changed entry.  Handed any other vector (the OPT search's, or a
    solve's first) it compares each entry with the last one's by identity
    (areas are immutable, so an unchanged entry is the same object).  Only
    the changed entries are re-imaged, taken out of the lo order and
    inserted again by bisection.  A new denominator that does not divide D
    rescales every image by D'/D, which keeps their order; D' is the lcm
    times powers of the factor it adds, up to HEADROOM_BITS, so later
    patches find more of that factor in D.  Everything is rebuilt, at the
    exact lcm, when the length changed, when more than one entry in
    REBUILD_SHARE changed, when D would pass SCALE_BITS_LIMIT bits, or while
    the images are ranks, which cannot be patched.  An `ImagedVector` is
    always rebuilt from the images it brings, scaled or ranked over whatever
    superset they were taken from: copying them costs less than a patch.

    `rank[i]` is order_l's sort rank of entry i: its lo image under the
    stable tie rule; under lex twice that, plus one when the area is open,
    so an attained lo sorts first.  `order` lists the indices ascending by
    rank·n + index, so ties go to the smaller index.

    A mirrored state describes the vector with every value negated: the
    images are negated and swapped, so that the k-min rules answer the k-max
    question.  An area attains both its endpoints or neither, so its mirror
    attains what it does and the rules read `areas[i].attains` either way.
    """

    __slots__ = ("tie_rule", "mirror", "areas", "scale", "lo", "hi", "rank", "order", "changed",
                 "_log", "_seen")

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
        # The last vector read if it was a LoggedVector, with `_seen`, how
        # many of its writes this state has read.
        self._log: Optional[LoggedVector] = None

    def update(self, areas: AreaVector) -> "VectorState":
        """Bring the state up to `areas` and return it."""
        n = len(areas)
        if areas is self._log:
            writes, seen = areas.writes, self._seen
            self._seen = m = len(writes)
            if m == seen:
                self.changed = ()
                return self
            self.changed = ([writes[seen][0]] if m == seen + 1
                            else sorted({i for i, _ in writes[seen:]}))
        else:
            if type(areas) is LoggedVector:
                self._log, self._seen = areas, len(areas.writes)
            elif self._log is not None:
                self._log = None
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
            self.rank = [2 * v + (not a.attains) for v, a in zip(lo, self.areas)]
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
            # Room for more of the new factor: D' takes powers of it until
            # its bit length doubles, never past HEADROOM_BITS.
            f = d // self.scale
            room = min(2 * d.bit_length(), HEADROOM_BITS)
            while (d * f).bit_length() <= room:
                d *= f
            f = d // self.scale
            self.scale = d
            self._read([v * f for v in self.lo], [v * f for v in self.hi])
        lo, hi, rank = self.lo, self.hi, self.rank
        for i, (p, q), (r, s) in zip(changed, los, his):
            a, b = p * (d // q), r * (d // s)
            lo[i], hi[i] = (-b, -a) if self.mirror else (a, b)
            if self.tie_rule is TieRule.LEX:
                rank[i] = 2 * lo[i] + (not areas[i].attains)
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
    return sorted(range(len(areas)), key=lambda i: (hi[i], areas[i].attains))
