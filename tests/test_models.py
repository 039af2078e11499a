"""Model taxonomy grid, instance validation and response validation."""
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_endpoints, grid_vectors, reference_validate_instance
from uncquery.core import Area, Rationals
from uncquery.models import (
    ModelCategory,
    ModelSpec,
    TypeSet,
    UncertainInstance,
    area_shape,
    classify_model,
    validate_instance,
    validate_response,
)
from uncquery.selection import SelectionProblem


def test_area_shape():
    assert area_shape(Area.point(3)) == "P"
    assert area_shape(Area.open(1, 2)) == "O"
    assert area_shape(Area.closed(1, 2)) == "C"


class TestTypeSet:
    def test_parse_and_render_canonical(self):
        assert str(TypeSet.parse("PO")) == "OP"
        assert str(TypeSet.parse("pco")) == "OCP"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TypeSet.parse("")

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            TypeSet.parse("OX")

    def test_admits(self):
        ts = TypeSet.parse("OP")
        assert ts.admits(Area.open(1, 2))
        assert ts.admits(Area.point(1))
        assert not ts.admits(Area.closed(1, 2))


class TestModelSpec:
    def test_parse_round_trip(self):
        spec = ModelSpec.parse("OP-P")
        assert str(spec) == "OP-P"
        assert ModelSpec.from_json(spec.to_json()) == spec

    def test_missing_dash_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec.parse("OP")


def _all_type_sets():
    letters = "OCP"
    return [
        "".join(c)
        for c in chain.from_iterable(
            combinations(letters, r) for r in range(1, 4)
        )
    ]


def _expected_category(inp: str, ret: str) -> ModelCategory:
    """Independent restatement of the taxonomy grid, spelled out cell by
    cell so the production table is cross-checked rather than echoed."""
    if inp == "P":
        return ModelCategory.TRIVIAL if ret == "P" else ModelCategory.INVALID_ALPHA
    grid = {
        ("O", "O"): ModelCategory.CATEGORY1,
        ("C", "C"): ModelCategory.CATEGORY1,
        ("OC", "OC"): ModelCategory.CATEGORY1,
        ("OP", "O"): ModelCategory.CATEGORY2,
        ("CP", "C"): ModelCategory.CATEGORY2,
        ("OCP", "OC"): ModelCategory.CATEGORY2,
        ("CP", "P"): ModelCategory.CATEGORY3,
        ("CP", "CP"): ModelCategory.CATEGORY3,
        ("OCP", "P"): ModelCategory.CATEGORY3,
        ("OCP", "OCP"): ModelCategory.CATEGORY3,
        ("OP", "P"): ModelCategory.OP_P,
        ("OP", "OP"): ModelCategory.OP_OP,
    }
    return grid.get((inp, ret), ModelCategory.INVALID_ALPHA)


def test_full_taxonomy_grid():
    for inp in _all_type_sets():
        for ret in _all_type_sets():
            spec = ModelSpec.parse(f"{inp}-{ret}")
            assert classify_model(spec) == _expected_category(inp, ret), str(spec)


@pytest.mark.parametrize(
    "text,category",
    [
        ("O-P", ModelCategory.INVALID_ALPHA),
        ("CP-C", ModelCategory.CATEGORY2),
        ("CP-P", ModelCategory.CATEGORY3),
        ("P-P", ModelCategory.TRIVIAL),
        ("OP-P", ModelCategory.OP_P),
    ],
)
def test_classify_examples(text, category):
    assert classify_model(ModelSpec.parse(text)) == category


def _instance(model, areas, hidden=None):
    return UncertainInstance(
        model=ModelSpec.parse(model),
        areas=tuple(areas),
        problem=SelectionProblem(k=1),
        hidden=hidden,
    )


class TestValidateInstance:
    def test_admitted_shapes_ok(self):
        inst = _instance("OP-P", [Area.open(2, 6), Area.point(3)])
        assert validate_instance(inst) is None

    def test_shape_violation_reported(self):
        inst = _instance("O-O", [Area.open(0, 1), Area.closed(1, 3)])
        assert validate_instance(inst) == "area 2 shape C not admitted by input type set O"

    def test_hidden_outside_area(self):
        inst = _instance("O-O", [Area.open(2, 6)], hidden=(7,))
        assert "outside" in validate_instance(inst)

    def test_hidden_on_open_boundary_rejected(self):
        inst = _instance("O-O", [Area.open(2, 6)], hidden=(2,))
        assert validate_instance(inst)

    def test_hidden_length_mismatch(self):
        inst = _instance("O-O", [Area.open(2, 6), Area.open(0, 1)], hidden=(3,))
        assert validate_instance(inst)

    def test_empty_instance(self):
        inst = _instance("O-O", [])
        assert validate_instance(inst)


def _hidden_values(area: Area):
    """Values on, inside and beyond an area's endpoints."""
    return st.one_of(
        st.sampled_from((area.lo, area.hi, (area.lo + area.hi) / 2)), grid_endpoints
    )


@settings(max_examples=300, deadline=None)
@given(grid_vectors, st.sets(st.sampled_from("OCP"), min_size=1), st.data())
def test_validate_instance_matches_fraction_reference(areas, letters, data):
    hidden = data.draw(st.one_of(
        st.none(),
        st.tuples(*map(_hidden_values, areas)),
        st.lists(grid_endpoints, max_size=3),
    ))
    inst = UncertainInstance(
        model=ModelSpec(TypeSet(frozenset(letters)), TypeSet.parse("P")),
        areas=tuple(areas),
        problem=SelectionProblem(k=1),
        hidden=hidden,
    )
    assert validate_instance(inst) == reference_validate_instance(inst)
    # The same values read from text, as a parsed instance holds them: plain
    # 'p/q' in and out of lowest terms, and padded text parse_rational reads.
    if hidden is not None:
        texts = [data.draw(st.sampled_from((
            f"{v.numerator}/{v.denominator}", f"{3 * v.numerator}/{3 * v.denominator}",
            f" {v.numerator}/{v.denominator} "))) for v in hidden]
        parsed = UncertainInstance(inst.model, inst.areas, inst.problem, Rationals.parse(texts))
        assert validate_instance(parsed) == reference_validate_instance(inst)


class TestValidateResponse:
    def test_point_response_ok(self):
        spec = ModelSpec.parse("OP-P")
        assert validate_response(spec, Area.open(2, 6), Area.point(3)) is None

    def test_interval_refinement_ok(self):
        from fractions import Fraction

        spec = ModelSpec.parse("OP-O")
        resp = Area.open(19 - Fraction(1, 2), 20)
        assert validate_response(spec, Area.open(2, 20), resp) is None

    def test_interval_return_not_admitted(self):
        spec = ModelSpec.parse("OP-P")
        assert validate_response(spec, Area.open(2, 6), Area.open(3, 5)) is not None

    def test_non_contained_response(self):
        spec = ModelSpec.parse("O-O")
        assert validate_response(spec, Area.open(2, 6), Area.open(5, 7)) is not None

    def test_non_strict_response(self):
        spec = ModelSpec.parse("O-O")
        a = Area.open(2, 6)
        assert validate_response(spec, a, a) is not None
