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
and patches all three.  Every solve keeps its areas in a `LoggedVector`,
whose writes are the solve's query log, so a state handed the same vector
again reads the indices written since its last call; any other vector is
imaged afresh.  A rebuild takes D as the exact lcm.  Between rebuilds D only
grows: a new denominator that does not divide D rescales every image by
D'/D, and D' takes powers of the missing factor past the lcm, up to
HEADROOM_BITS, so that the next denominators of the same kind (a halving
oracle's next power of two) divide it and rescale nothing.  The selection
rules, uMST passes and `order_l`/`order_u` all read such a state.

A vector may bring its own images: an `ImagedVector` carries images taken
over any superset of its areas, scaled or ranked, which order its own
endpoints just as exactly.  A state rebuilt from one takes them as they are
instead of imaging the areas again; the OPT search hands its verifier these,
and a verifier that declines one may leave a certificate on it (`settled`).

An `Area` is a slotted immutable value that holds its endpoints as
lowest-terms integer pairs, `ratios` = (p, q, r, s) for lo = p/q and
hi = r/s.  Reading, validating and solving an instance compare the pairs;
an area's `lo` and `hi` become Fractions only when read, once.
`Area.from_ratios` is the one place that refuses an empty area and a flag
that is not a bool, and fixes `is_point`, so the solvers' many point checks
are attribute loads; the constructor turns what Fraction() accepts into
pairs and goes through it.  Every function is pure; a `VectorState` and a
solve's `LoggedVector` are the objects that change.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
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


def reduce_ratio(p: int, q: int) -> Tuple[int, int]:
    """(p, q) in lowest terms, for q > 0."""
    g = math.gcd(p, q)
    return (p, q) if g == 1 else (p // g, q // g)


def parse_ratio(text) -> Tuple[int, int]:
    """parse_rational(text).as_integer_ratio(), raising as it does, with no
    Fraction built for a plain 'p/q' or integer text with q nonzero."""
    ratio = _plain_ratio(text)
    if ratio is None or not ratio[1]:
        return parse_rational(text).as_integer_ratio()
    return reduce_ratio(*ratio)


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
    and equal areas hash equal.

    The endpoints are held as integer pairs: `ratios` is (p, q, r, s), with
    lo = p/q and hi = r/s in lowest terms and q, s > 0, so equal values have
    equal pairs.  `lo` and `hi` are Fractions, built together on the first
    read of either and kept, and `length` is their difference, so an area
    that is only compared builds none.  `is_point` is fixed from the sign of
    hi - lo that the emptiness check computes anyway, so reading it is an
    attribute load."""

    __slots__ = ("ratios", "attains", "is_point", "_fractions")

    ratios: Tuple[int, int, int, int]
    attains: bool
    is_point: bool

    def __new__(cls, lo, hi, attains: bool) -> "Area":
        if not isinstance(lo, Fraction) or not isinstance(hi, Fraction):
            lo, hi = Fraction(lo), Fraction(hi)
        return Area.from_ratios(lo.as_integer_ratio() + hi.as_integer_ratio(), attains)

    @staticmethod
    def from_ratios(ratios: Tuple[int, int, int, int], attains: bool) -> "Area":
        """The area whose `ratios` are these: (p, q, r, s) from lo = p/q to
        hi = r/s, each in lowest terms with a positive denominator.  The one
        place that refuses a flag that is not a bool, an empty area and an
        open point, and fixes `is_point`."""
        if attains.__class__ is not bool:
            raise TypeError(f"attains must be a bool, got {attains!r}")
        p, q, r, s = ratios
        width = r * q - p * s  # sign of hi - lo, the denominators being positive
        if width < 0:
            raise ValueError(f"empty area: lo={Fraction(p, q)} > hi={Fraction(r, s)}")
        if width == 0 and not attains:
            raise ValueError("a degenerate area is a point and must be closed at both ends")
        area = _new(Area)
        _set_ratios(area, ratios)
        _set_attains(area, attains)
        _set_is_point(area, width == 0)
        return area

    @property
    def lo(self) -> Fraction:
        return self._fraction_pair()[0]

    @property
    def hi(self) -> Fraction:
        return self._fraction_pair()[1]

    @property
    def length(self) -> Fraction:
        lo, hi = self._fraction_pair()
        return hi - lo

    def _fraction_pair(self) -> Tuple[Fraction, Fraction]:
        """(lo, hi) as Fractions, built together on the first read of either
        and kept in a slot, which stays unset until then."""
        try:
            return self._fractions
        except AttributeError:
            p, q, r, s = self.ratios
            fractions = (Fraction(p, q), Fraction(r, s))
            _set_fractions(self, fractions)
            return fractions

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ratios == other.ratios and self.attains == other.attains
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ratios, self.attains))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(lo={self.lo!r}, hi={self.hi!r}, "
                f"attains={self.attains!r})")

    def __reduce__(self):
        return Area.from_ratios, (self.ratios, self.attains)

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

    def contains_value(self, x) -> bool:
        return self.contains_ratio(*as_fraction(x).as_integer_ratio())

    def contains_ratio(self, a: int, b: int) -> bool:
        """contains_value of a/b, for b > 0, decided on integers."""
        p, q, r, s = self.ratios
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
        p, q, r, s = self.ratios
        if self.is_point:
            return {"kind": "point", "value": f"{p}/{q}"}
        return {"kind": "closed" if self.attains else "open", "lo": f"{p}/{q}", "hi": f"{r}/{s}"}

    @staticmethod
    def from_json(data: dict, ratio: Callable[[object], Tuple[int, int]] = parse_ratio) -> "Area":
        """The area a JSON object of kind "point", "open" or "closed"
        describes, its endpoints read by `ratio`: a reader of many areas can
        pass one that decodes each distinct endpoint text once."""
        kind = data["kind"]
        if kind == "point":
            value = ratio(data["value"])
            return Area.from_ratios(value + value, True)
        if kind != "open" and kind != "closed":
            raise ValueError(f"unknown area kind {kind!r}")
        return Area.from_ratios(ratio(data["lo"]) + ratio(data["hi"]), kind == "closed")


# The slots' own setters: Area.__setattr__ refuses every assignment, so each
# field is written through its slot descriptor.
_set_ratios, _set_attains, _set_is_point, _set_fractions = (
    vars(Area)[name].__set__ for name in Area.__slots__)
_new = object.__new__


AreaVector = Sequence[Area]


def contains(outer: Area, inner: Area) -> bool:
    """True iff every value of `inner` is a member of `outer`: it lies within
    outer's endpoints and holds a shared endpoint only if outer does."""
    p, q, r, s = outer.ratios
    a, b, c, d = inner.ratios
    above_lo = a * q - p * b  # sign of lo(inner) - lo(outer)
    below_hi = r * d - c * s  # sign of hi(outer) - hi(inner)
    if above_lo < 0 or below_hi < 0:
        return False
    return outer.attains or not inner.attains or (above_lo != 0 and below_hi != 0)


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
    the vector's endpoints exactly as their values.

    `settled` is a declining verifier's certificate, a bitmask of indices,
    set to 0 with `images` (a slot has no default, and an `__init__` would
    cost every vector of the OPT search a Python call) and then by a
    verifier that declines the vector: refining any of those indices
    further, alone or together, provably leaves the verdict at declined.
    The OPT search reads it to skip such vectors unverified."""

    __slots__ = ("images", "settled")


def endpoint_images(areas: AreaVector) -> Tuple[int, List[int], List[int]]:
    """(D, lo images, hi images) at the lcm D of the denominators, or with
    D = 0 the values' ranks once D would pass SCALE_BITS_LIMIT bits."""
    ratios = [a.ratios for a in areas]
    d = _grow_scale(1, {q for _, q, _, _ in ratios} | {s for _, _, _, s in ratios})
    if not d:
        return (0, *_rank_values(areas))
    return d, [p * (d // q) for p, q, _, _ in ratios], [r * (d // s) for _, _, r, s in ratios]


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
    values = [v for a in areas for v in a._fraction_pair()]  # each lo, then its hi
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
    return ranks[0::2], ranks[1::2]


class VectorState:
    """The integer images, lo ranks and lo order of the vector last seen,
    patched from one vector to the next.

    Handed again the `LoggedVector` it read last, `update` takes the indices
    whose area changed, ascending, from the solve's writes since then, each
    a strict refinement and so a changed entry, and hands those alone to
    `_patch`: each is re-imaged, taken out of the lo order and inserted
    again by bisection.  A new denominator that does not divide D rescales
    every image by D'/D, which keeps their order; D' is the lcm times powers
    of the factor it adds, up to HEADROOM_BITS, so later patches find more
    of that factor in D.  The state is rebuilt, at the exact lcm, when D
    would pass SCALE_BITS_LIMIT bits or while the images are ranks, which
    cannot be patched.  Handed any other vector (a solve's first, the OPT
    search's, a caller's list) it rebuilds.  An `ImagedVector` is rebuilt
    from the images it brings, scaled or ranked over whatever superset they
    were taken from, and the state holds those very lists: it patches only
    lists it built itself on a log read, so it never writes into a vector's
    images.

    `first_moved` is the lowest position of the old lo order that the last
    `update` changed: the least old position of a patched index, found as
    the patch takes it out; `len(order)` on a re-read of the log with no new
    writes; 0 after any rebuild.  A write refines its area, so no lo rank
    falls along a solve's log: a patched index moves later or stays, and
    the order ahead of `first_moved` is the old one.  A uMST pass resumes
    there.

    `rank[i]` is order_l's sort rank of entry i: its lo image under the
    stable tie rule; under lex twice that, plus one when the area is open,
    so an attained lo sorts first.  `order` lists the indices ascending by
    rank·n + index, so ties go to the smaller index.

    A mirrored state describes the vector with every value negated: the
    images are negated and swapped, so that the k-min rules answer the k-max
    question.  An area attains both its endpoints or neither, so its mirror
    attains what it does and the rules read `areas[i].attains` either way.
    """

    __slots__ = ("tie_rule", "mirror", "areas", "scale", "lo", "hi", "rank", "order",
                 "first_moved", "_log", "_seen")

    def __init__(self, tie_rule: TieRule = TieRule.STABLE, mirror: bool = False) -> None:
        self.tie_rule = tie_rule
        self.mirror = mirror
        self.areas: List[Area] = []
        self.scale = 0  # D, or 0 while the images are ranks
        self.lo: List[int] = []
        self.hi: List[int] = []
        self.rank: List[int] = []
        self.order: List[int] = []
        self.first_moved = 0
        # The last vector read if it was a LoggedVector, with `_seen`, how
        # many of its writes this state has read.
        self._log: Optional[LoggedVector] = None

    def update(self, areas: AreaVector) -> "VectorState":
        """Bring the state up to `areas` and return it."""
        if areas is self._log:
            writes, seen = areas.writes, self._seen
            self._seen = m = len(writes)
            if m == seen:
                self.first_moved = len(self.order)
                return self
            changed = ([writes[seen][0]] if m == seen + 1
                       else sorted({i for i, _ in writes[seen:]}))
            if self.scale and self._patch(areas, changed):
                return self
        else:
            self._log = areas if type(areas) is LoggedVector else None
            self._seen = 0 if self._log is None else len(areas.writes)
        self.areas = list(areas)
        self.first_moved = 0
        self.scale, lo, hi = getattr(areas, "images", None) or endpoint_images(self.areas)
        if self.mirror:
            lo, hi = [-v for v in hi], [-v for v in lo]
        self._read(lo, hi)
        # A stable sort of ascending indices breaks rank ties by index.
        self.order = sorted(range(len(areas)), key=self.rank.__getitem__)
        return self

    def _read(self, lo: List[int], hi: List[int]) -> None:
        """Take these oriented images and rank them."""
        self.lo, self.hi = lo, hi
        if self.tie_rule is TieRule.LEX:
            self.rank = [2 * v + (not a.attains) for v, a in zip(lo, self.areas)]
        else:
            self.rank = lo

    def _patch(self, areas: AreaVector, changed: Sequence[int]) -> bool:
        ratios = [areas[i].ratios for i in changed]
        d = _grow_scale(self.scale, [t for _, q, _, s in ratios for t in (q, s)])
        if not d:
            return False
        order = self.order
        # A deletion moves only the entries after it, so the least position
        # seen here is the least old position of a changed index.
        first = len(order)
        for i in changed:
            p = order.index(i)
            del order[p]
            if p < first:
                first = p
            self.areas[i] = areas[i]
        self.first_moved = first
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
        for i, (p, q, r, s) in zip(changed, ratios):
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
