"""Areas, the comparison algebra, and the two orderings."""
import copy
import math
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    grid_endpoints,
    grid_vectors,
    logged_run,
    mirror,
    recorded_patches,
    reference_area_error,
    reference_contains_value,
    reference_is_point,
    reference_order_l,
    reference_order_u,
    reference_replay_point,
    refinement_runs,
)
from uncquery.core import (
    Area,
    LoggedVector,
    Rationals,
    TieRule,
    VectorState,
    contains,
    format_rational,
    order_l,
    order_u,
    parse_ratio,
    parse_rational,
    surely_leq,
    surely_lt,
)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational(" 7 ") == Fraction(7)
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def _parsed(fn, text):
    try:
        value = fn(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return type(value), value


PARSE_CASES = (
    "-6/8", "+2/1", " 5/10 ", "1.5", "1e3", "1/0", "1_000", "1 / 2", "", "/2",
    "-/2", "\uff11/2", "\u0663/4", "\u00b2/3", "3/4", "007/08", "-0", "-12",
    "1/-2", "--1/2", "1/+2", "1/", "-", " 7 ", "1/2/3", "0/0",
)


def _bounded_fraction(text):
    """Fraction(text.strip()), refused with ValueError when the text's
    mantissa digits plus absolute decimal exponent exceed the int-string
    digit bound.  Test texts are short, so Fraction builds any exponent they
    can hold at once."""
    value = Fraction(text.strip())
    mantissa, exponent = re.fullmatch(r"(.*?)(?:[eE]([-+]?[\d_]+))?", text.strip()).groups()
    digits = sum(ch.isdigit() for ch in mantissa) + abs(int(exponent or 0))
    if "/" not in text and digits > sys.get_int_max_str_digits():
        raise ValueError("decimal past the bound")
    return value


def _parsed_item(text):
    """The value Rationals.parse reads from `text`, as _parsed gives it."""
    return _parsed(lambda t: Rationals.parse([t])[0], text)


def _parsed_pair(text):
    """parse_ratio's pair for `text`, as _parsed gives parse_rational's
    value: it must be that value's lowest-terms pair."""
    outcome = _parsed(parse_ratio, text)
    return outcome if type(outcome) is type else (Fraction, Fraction(*outcome[1]))


def test_parse_rational_accepts_what_fraction_does():
    # The fast path takes plain ASCII p/q and integers; every other text,
    # including fullwidth and Arabic-Indic digits, is Fraction's to judge.
    for text in PARSE_CASES:
        assert _parsed(parse_rational, text) == _parsed(_bounded_fraction, text), text
        assert _parsed_item(text) == _parsed(parse_rational, text), text
        assert _parsed_pair(text) == _parsed(parse_rational, text), text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789-+/._e \uff11", max_size=7))
def test_parse_rational_matches_fraction_on_any_text(text):
    assert _parsed(parse_rational, text) == _parsed(_bounded_fraction, text)
    assert _parsed_item(text) == _parsed(parse_rational, text)
    assert _parsed_pair(text) == _parsed(parse_rational, text)
    if type(_parsed_pair(text)) is tuple:
        p, q = parse_ratio(text)
        assert q > 0 and math.gcd(p, q) == 1


@pytest.mark.parametrize("text", ["2/4", "-0/5", "03/4", "+3/4", " 3/4", "1_000/3",
                                  "\u0663/4", "1e3", "0.5"])
def test_parsed_rationals_read_what_parse_rational_does(text):
    """Rationals.parse keeps a plain text as its integers and parses every
    other one at once; either way an item reads as parse_rational's value."""
    parsed = Rationals.parse([text, "7"])
    assert parsed[0] == parse_rational(text) and type(parsed[0]) is Fraction
    assert parsed == (parse_rational(text), Fraction(7))


class TestRationals:
    def test_items_equal_and_hash_like_the_tuple_of_fractions(self):
        plain = (Fraction(1, 2), Fraction(-3), Fraction(7, 4))
        for values in (Rationals(plain), Rationals([Fraction(1, 2), -3, "7/4"]),
                       Rationals.parse(["2/4", "-3", " 7/4 "])):
            assert values == plain and plain == values and hash(values) == hash(plain)
            assert values == Rationals(plain) and values != list(plain)
            assert len(values) == 3 and list(values) == list(plain)
            assert values[-1] == plain[-1] and values[1:] == plain[1:]
            assert repr(values) == f"Rationals({plain!r})"
            with pytest.raises(IndexError):
                values[3]

    def test_built_from_rationals_is_that_object(self):
        parsed = Rationals.parse(["1/3"])
        assert Rationals(parsed) is parsed

    def test_copy_deepcopy_and_pickle_keep_the_values(self):
        plain = (Fraction(1, 2), Fraction(3))
        for values in (Rationals(plain), Rationals.parse(["1/2", "6/2"])):
            for twin in (copy.copy(values), copy.deepcopy(values),
                         pickle.loads(pickle.dumps(values))):
                assert twin == plain and hash(twin) == hash(plain)


@pytest.mark.parametrize("text, value", [
    ("1e4299", Fraction(10**4299)), ("-2.5E-4298", Fraction(-25, 10**4299)),
    ("1e+4_299", Fraction(10**4299)), ("7e0004299", Fraction(7 * 10**4299)),
    pytest.param("1" * 4300, Fraction(int("1" * 4300)), id="4300-digit-integer"),
    pytest.param("0." + "1" * 4299, Fraction(int("1" * 4299), 10**4299), id="4299-place-decimal"),
    ("1e4300", ValueError), ("1e-4300", ValueError), ("12345e4296", ValueError),
    ("-2.5E-4300", ValueError), ("1e+4_300", ValueError), ("7e0004300", ValueError),
    pytest.param("0." + "1" * 4300, ValueError, id="4300-place-decimal"),
    ("1e4301", ValueError), ("1e-4301", ValueError), ("0e5000", ValueError),
    ("1E100000000", ValueError), (" 1.5e-100000000 ", ValueError),
])
def test_parse_rational_bounds_the_decimal_exponent(monkeypatch, text, value):
    """A decimal whose mantissa digits plus absolute exponent lie within the
    int-string digit bound (4300 by default) parses; one past it, whose
    numerator or denominator could not be written out, is refused before
    10**exponent is built, so even 1e100000000 fails at once."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    assert _parsed(parse_rational, text) == (
        value if value is ValueError else (Fraction, value))


def test_parse_rational_exponent_bound_follows_the_interpreter(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 100)
    assert parse_rational("1e99") == 10**99
    with pytest.raises(ValueError, match="100-digit bound in '1e100'"):
        parse_rational("1e100")
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    with pytest.raises(ValueError, match="4300-digit bound"):
        parse_rational("1e4301")


class TestArea:
    def test_constructors(self):
        p = Area.point(3)
        assert p.is_point and p.attains
        o = Area.open(2, 6)
        assert not o.is_point and not o.attains
        c = Area.closed(2, 6)
        assert not c.is_point and c.attains
        assert (Area(2, 6, False), Area(2, 6, True), Area(3, 3, True)) == (o, c, p)

    @pytest.mark.parametrize("flag", ["open", "closed", "", 1, 0, None, object()])
    def test_flag_must_be_a_bool(self, flag):
        with pytest.raises(TypeError, match="attains must be a bool"):
            Area(1, 2, flag)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Area.open(5, 2)

    def test_degenerate_must_be_point(self):
        with pytest.raises(ValueError):
            Area.open(3, 3)
        with pytest.raises(ValueError):
            Area(3, 3, False)

    def test_contains_value_respects_kinds(self):
        o = Area.open(2, 6)
        assert o.contains_value(3)
        assert not o.contains_value(2)
        assert not o.contains_value(6)
        c = Area.closed(2, 6)
        assert c.contains_value(2) and c.contains_value(6)
        assert not c.contains_value(7)

    def test_mirror_swaps_and_negates(self):
        for a in (Area.open(1, 4), Area.closed(1, 4)):
            m = mirror(a)
            assert (m.lo, m.hi, m.attains) == (-4, -1, a.attains)
            assert mirror(m) == a

    def test_str(self):
        assert str(Area.open(2, 6)) == "(2, 6)"
        assert str(Area.closed(2, 6)) == "[2, 6]"
        assert str(Area.point(3)) == "3"

    @pytest.mark.parametrize(
        "area",
        [
            Area.point(Fraction(3, 7)),
            Area.open(1, 5),
            Area.closed(-2, Fraction(1, 2)),
            Area.closed(Fraction(-7, 3), Fraction(2**521 - 1, 3)),
        ],
    )
    def test_json_round_trip(self, area):
        assert Area.from_json(area.to_json()) == area

    @pytest.mark.parametrize("kind", ["mixed", "half-open", "Open", None, 1])
    def test_json_kind_other_than_point_open_closed_refused(self, kind):
        data = {"kind": kind, "lo": "0/1", "hi": "1/1", "lo_kind": "open", "hi_kind": "closed"}
        with pytest.raises(ValueError, match="unknown area kind"):
            Area.from_json(data)


class TestContains:
    def test_strict_nesting(self):
        assert contains(Area.open(2, 6), Area.open(3, 5))

    def test_open_outer_excludes_endpoint(self):
        assert not contains(Area.open(2, 6), Area.closed(2, 3))

    def test_closed_outer_admits_inner(self):
        assert contains(Area.closed(3, 17), Area.closed(8, 10))

    def test_equal_areas_contain(self):
        a = Area.closed(1, 2)
        assert contains(a, a)


class TestSurelyRelations:
    def test_leq_disjoint(self):
        assert surely_leq(Area.open(2, 5), Area.open(6, 8))

    def test_leq_overlapping_self(self):
        a = Area.open(3, 7)
        assert not surely_leq(a, a)

    def test_leq_touching_closed(self):
        assert surely_leq(Area.closed(1, 3), Area.closed(3, 5))

    def test_lt_touching_closed_fails(self):
        assert not surely_lt(Area.closed(1, 3), Area.closed(3, 5))

    def test_lt_touching_open_end(self):
        assert surely_lt(Area.open(1, 3), Area.closed(3, 5))

    def test_lt_disjoint(self):
        assert surely_lt(Area.open(2, 5), Area.open(6, 8))

    def test_point_vs_point(self):
        assert surely_leq(Area.point(2), Area.point(2))
        assert not surely_lt(Area.point(2), Area.point(2))
        assert surely_lt(Area.point(1), Area.point(2))


rationals = st.fractions(min_value=-20, max_value=20)


@st.composite
def areas(draw):
    lo = draw(rationals)
    hi = draw(rationals)
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        return Area.point(lo)
    return Area(lo, hi, draw(st.booleans()))


# Endpoints on the grid, with negatives, zero and the 2^521 - 1 and
# 2^607 - 1 denominators, or plain ints, which the constructor converts.
endpoint_values = st.one_of(grid_endpoints, st.integers(-3, 3))


@settings(max_examples=500, deadline=None)
@given(endpoint_values, st.data(), st.booleans())
def test_integer_area_predicates_match_fraction_reference(lo, data, attains):
    # hi equals lo, or its negation, often enough to reach every branch.
    hi = data.draw(st.one_of(st.just(lo), st.just(-lo), endpoint_values))
    expected = reference_area_error(lo, hi, attains)
    try:
        area = Area(lo, hi, attains)
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert area.is_point == reference_is_point(area)
    xs = data.draw(st.lists(endpoint_values, max_size=4))
    for x in [lo, hi, Fraction(lo + hi) / 2, *xs]:
        assert area.contains_value(x) == reference_contains_value(area, x), x


@settings(max_examples=60, deadline=None)
@given(areas(), areas())
def test_surely_lt_implies_leq(a, b):
    if surely_lt(a, b):
        assert surely_leq(a, b)


@settings(max_examples=60, deadline=None)
@given(areas())
def test_json_round_trip_property(a):
    assert Area.from_json(a.to_json()) == a


@settings(max_examples=200, deadline=None)
@given(areas())
def test_is_point_fixed_at_construction_matches_reference(a):
    assert a.is_point == reference_is_point(a)
    assert Area.from_json(a.to_json()).is_point == reference_is_point(a)


class TestAreaValue:
    def test_assignment_and_deletion_raise(self):
        a = Area.open(1, 2)
        for name in ("lo", "hi", "attains", "is_point", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, 3)
        with pytest.raises(AttributeError, match="cannot delete field 'lo'"):
            del a.lo
        assert a == Area.open(1, 2) and not a.is_point

    def test_endpoints_of_any_type_give_one_value(self):
        built = [Area(1, 5, True), Area(Fraction(1), Fraction(10, 2), True),
                 Area("1", "5/1", True), Area("1.0", 5, True)]
        assert all(b == built[0] and hash(b) == hash(built[0]) for b in built)
        assert all(type(b.lo) is Fraction and type(b.hi) is Fraction for b in built)
        assert all(b.ratios == (1, 1, 5, 1) for b in built)
        assert Area.from_ratios((1, 2, 3, 4), False) == Area.open(Fraction(1, 2), Fraction(3, 4))
        with pytest.raises(ValueError, match="empty area: lo=3/4 > hi=1/2"):
            Area.from_ratios((3, 4, 1, 2), True)
        assert len({Area.point(2), Area.point("2"), Area.point(Fraction(4, 2))}) == 1
        assert Area.open(1, 5) != Area(1, 5, True) and Area.point(1) != (1, 1)

    def test_repr_is_the_field_listing(self):
        assert repr(Area(1, Fraction(5, 2), False)) == (
            "Area(lo=Fraction(1, 1), hi=Fraction(5, 2), attains=False)"
        )

    @pytest.mark.parametrize("area", [Area.point(Fraction(3, 7)), Area.open(1, 5),
                                      Area.closed(0, 1)])
    def test_copy_deepcopy_and_pickle_round_trip(self, area):
        for twin in (copy.copy(area), copy.deepcopy(area), copy.deepcopy([area])[0],
                     pickle.loads(pickle.dumps(area))):
            assert twin == area and hash(twin) == hash(area)
            assert twin.is_point == area.is_point and repr(twin) == repr(area)


@settings(max_examples=60, deadline=None)
@given(areas(), areas())
def test_mirror_reverses_relations(a, b):
    assert surely_leq(a, b) == surely_leq(mirror(b), mirror(a))
    assert surely_lt(a, b) == surely_lt(mirror(b), mirror(a))


class TestOrderings:
    def test_order_l_stable(self):
        areas_ = [Area.open(2, 6), Area.open(5, 8), Area.open(9, 11)]
        assert order_l(areas_) == [0, 1, 2]

    def test_order_l_lex_attained_first(self):
        areas_ = [Area.open(3, 7), Area.closed(3, 7)]
        assert order_l(areas_, TieRule.LEX) == [1, 0]

    def test_order_l_lex_index_breaks_remaining_ties(self):
        areas_ = [Area.open(3, 7), Area.open(3, 7)]
        assert order_l(areas_, TieRule.LEX) == [0, 1]

    def test_order_u_stable(self):
        areas_ = [Area.open(2, 6), Area.open(5, 8), Area.open(9, 11)]
        assert order_u(areas_) == [0, 1, 2]
        assert order_u([Area.open(1, 5), Area.open(3, 5)]) == [0, 1]

    def test_order_u_lex_attained_last(self):
        a1 = Area.closed(1, 5)
        a2 = Area.open(3, 5)
        assert order_u([a1, a2], TieRule.LEX) == [1, 0]


@settings(max_examples=50, deadline=None)
@given(st.lists(areas(), min_size=1, max_size=6), st.sampled_from(list(TieRule)))
def test_orderings_are_permutations(vec, tie):
    for fn in (order_l, order_u):
        perm = fn(vec, tie)
        assert sorted(perm) == list(range(len(vec)))


@settings(max_examples=50, deadline=None)
@given(st.lists(areas(), min_size=1, max_size=6))
def test_order_l_sorted_by_lo(vec):
    perm = order_l(vec)
    los = [vec[i].lo for i in perm]
    assert los == sorted(los)


def _fresh_images(vec):
    state = VectorState().update(vec)
    return state.lo, state.hi


@settings(max_examples=200, deadline=None)
@given(grid_vectors)
def test_int_images_order_endpoints_exactly(vec):
    lo, hi = _fresh_images(vec)
    assert all(isinstance(v, int) for v in lo + hi)
    values = [a.lo for a in vec] + [a.hi for a in vec]
    images = lo + hi
    for x, ix in zip(values, images):
        for y, iy in zip(values, images):
            assert (x < y, x == y) == (ix < iy, ix == iy)


def test_int_images_rank_values_above_the_scale_limit():
    # The lcm of two Mersenne primes has 1128 bits.  1 and 1 + 1/b1 round to
    # the same float; 10**500/b1 is too large for a float.
    b0, b1 = 2**521 - 1, 2**607 - 1
    vec = [
        Area.closed(Fraction(-1, b0), 1 + Fraction(1, b1)),
        Area.open(Fraction(-2, b1), Fraction(2)),
        Area.point(Fraction(1)),
    ]
    assert _fresh_images(vec) == ([0, 1, 2], [3, 4, 2])
    huge = Fraction(10**500, b1)
    vec = [
        Area.closed(Fraction(-1, b0), huge),
        Area.open(Fraction(-2, b1), huge),
        Area.point(Fraction(0)),
    ]
    assert _fresh_images(vec) == ([0, 1, 2], [3, 3, 2])


@settings(max_examples=200, deadline=None)
@given(grid_vectors, st.sampled_from(list(TieRule)))
def test_orderings_match_fraction_reference(vec, tie):
    assert order_l(vec, tie) == reference_order_l(vec, None, tie)
    assert order_u(vec, tie) == reference_order_u(vec, None, tie)


@settings(max_examples=200, deadline=None)
@given(refinement_runs())
def test_patched_images_order_endpoints_exactly(run):
    """A VectorState across refinements written to one LoggedVector: each
    read after the first, while the images are scaled, hands `_patch` the
    sorted distinct indices written since, and an unrelated vector, handed
    over as a plain list, is rebuilt with no patch.  The images order
    exactly as the values do (checked between neighbours in value order);
    while they are scaled, not ranks, each is its value times the one scale
    D."""
    state = VectorState()
    with recorded_patches() as handed:
        for vec, changed in logged_run(run):
            patches = [list(changed)] if type(changed) is not range and state.scale else []
            state.update(vec)
            assert handed == patches
            handed.clear()
            assert all(a is b for a, b in zip(state.areas, vec)) and len(state.areas) == len(vec)
            values = [a.lo for a in vec] + [a.hi for a in vec]
            ints = state.lo + state.hi
            if state.scale:
                assert ints == [v * state.scale for v in values]
            by_value = sorted(range(len(values)), key=values.__getitem__)
            for a, b in zip(by_value, by_value[1:]):
                assert (values[a] < values[b], values[a] == values[b]) == (
                    ints[a] < ints[b], ints[a] == ints[b])


def test_first_moved_is_where_the_order_scan_stops():
    """Across refinements written to one LoggedVector, some read twice, a
    VectorState's `first_moved` is where the scan of the old and the new lo
    order stops (`reference_replay_point`): on a patch, at the least old
    position of a written index; on a read with no new writes, at the
    order's end.  Any rebuild gives 0: a plain list, a new LoggedVector, or
    the log once its images are or become ranks.  Both tie rules, mirrored
    or not.  Every kind of read comes up: a write that keeps its area's lo,
    one that rescales the images, one that takes them past
    SCALE_BITS_LIMIT to ranks, a re-read with no writes, a plain list."""
    kinds = set()

    @settings(max_examples=300, deadline=None)
    @given(refinement_runs(), st.sampled_from(list(TieRule)), st.booleans(), st.data())
    def check(run, tie, mirrored, data):
        state, last = VectorState(tie, mirrored), None
        for vec, written in logged_run(run):
            for read in range(data.draw(st.integers(1, 2))):
                changed = () if read else written
                old_order, old_areas, old_scale = state.order, list(state.areas), state.scale
                old = list(old_order)
                state.update(vec)
                same_log, last = vec is last, vec
                if type(vec) is not LoggedVector:
                    kinds.add("plain list")
                    assert state.first_moved == 0
                elif state.order is old_order:
                    assert state.first_moved == reference_replay_point(old, state.order,
                                                                       changed)
                    if not changed:
                        kinds.add("no new writes")
                        assert state.first_moved == len(old)
                    if state.scale != old_scale:
                        kinds.add("rescale")
                    if any(vec[i].lo == old_areas[i].lo for i in changed):
                        kinds.add("lo kept")
                else:
                    if same_log and old_scale and not state.scale:
                        kinds.add("to ranks")
                    assert state.first_moved == 0

    check()
    assert kinds == {"plain list", "no new writes", "rescale", "lo kept", "to ranks"}
