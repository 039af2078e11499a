"""Query-model taxonomy: which area shapes may appear in the input and in
query returns, the category grid over those combinations, and validation of
instances and responses against a model."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .core import Area, EndpointKind, Rationals, contains

SHAPE_ORDER = "OCP"


# The shape letter of an area by (lo closed, hi closed, is point); a
# half-open area has none.  The kinds enter as flags because an enum member
# hashes in Python and a bool does not.
_SHAPES = {(False, False, False): "O", (True, True, False): "C", (True, True, True): "P"}
_CLOSED = EndpointKind.CLOSED


def area_shape(area: Area) -> Optional[str]:
    """'P' point, 'O' open interval, 'C' closed interval, None for half-open."""
    return _SHAPES.get((area.lo_kind is _CLOSED, area.hi_kind is _CLOSED, area.is_point))


@dataclass(frozen=True)
class TypeSet:
    """Nonempty subset of {O, C, P}, rendered canonically in that order."""

    letters: frozenset

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("TypeSet must be nonempty")
        bad = self.letters - set(SHAPE_ORDER)
        if bad:
            raise ValueError(f"unknown shape letters {sorted(bad)}")

    @staticmethod
    def parse(text: str) -> "TypeSet":
        return TypeSet(frozenset(text.strip().upper()))

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def admits(self, area: Area) -> bool:
        return area_shape(area) in self.letters

    def __str__(self) -> str:
        return "".join(c for c in SHAPE_ORDER if c in self.letters)


@dataclass(frozen=True)
class ModelSpec:
    input: TypeSet
    returns: TypeSet

    @staticmethod
    def parse(text: str) -> "ModelSpec":
        left, _, right = text.partition("-")
        if not right:
            raise ValueError(f"model spec must look like 'OP-P', got {text!r}")
        return ModelSpec(TypeSet.parse(left), TypeSet.parse(right))

    def __str__(self) -> str:
        return f"{self.input}-{self.returns}"

    def to_json(self) -> dict:
        return {"input": str(self.input), "returns": str(self.returns)}

    @staticmethod
    def from_json(data: dict) -> "ModelSpec":
        return ModelSpec(TypeSet.parse(data["input"]), TypeSet.parse(data["returns"]))


class ModelCategory(Enum):
    CATEGORY1 = "category-1"
    CATEGORY2 = "category-2"
    CATEGORY3 = "category-3"
    OP_P = "op-p"
    OP_OP = "op-op"
    TRIVIAL = "trivial"
    INVALID_ALPHA = "invalid-alpha"


_CATEGORY_BY_MODEL = {
    "O-O": ModelCategory.CATEGORY1,
    "C-C": ModelCategory.CATEGORY1,
    "OC-OC": ModelCategory.CATEGORY1,
    "OP-O": ModelCategory.CATEGORY2,
    "CP-C": ModelCategory.CATEGORY2,
    "OCP-OC": ModelCategory.CATEGORY2,
    "CP-P": ModelCategory.CATEGORY3,
    "CP-CP": ModelCategory.CATEGORY3,
    "OCP-P": ModelCategory.CATEGORY3,
    "OCP-OCP": ModelCategory.CATEGORY3,
    "OP-P": ModelCategory.OP_P,
    "OP-OP": ModelCategory.OP_OP,
    "P-P": ModelCategory.TRIVIAL,
}


def classify_model(spec: ModelSpec) -> ModelCategory:
    """Category of an input/return model; unnatural combinations (a query
    could change the effective input type) classify as invalid."""
    return _CATEGORY_BY_MODEL.get(str(spec), ModelCategory.INVALID_ALPHA)


@dataclass(frozen=True)
class UncertainInstance:
    """Ordered areas plus the problem they feed and an optional hidden
    configuration (the true values, one per area), kept as Rationals, which
    build a value's Fraction only when it is read."""

    model: ModelSpec
    areas: Tuple[Area, ...]
    problem: object
    hidden: Optional[Rationals] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "areas", tuple(self.areas))
        if self.hidden is not None:
            object.__setattr__(self, "hidden", Rationals(self.hidden))


def validate_instance(instance: UncertainInstance) -> Optional[str]:
    """None if the instance is valid; otherwise the first rule that failed,
    checked in this order: some areas, the problem's own check, shape
    admission per the model's input set, the hidden configuration's length
    and hidden-value containment."""
    if not instance.areas:
        return "instance has no areas"
    try:
        instance.problem.validate(len(instance.areas))
    except ValueError as exc:
        return str(exc)
    letters = instance.model.input.letters
    for i, area in enumerate(instance.areas):
        shape = area_shape(area)
        if shape not in letters:
            return (f"area {i + 1} shape {shape or 'half-open'} not admitted by input "
                    f"type set {instance.model.input}")
    hidden = instance.hidden
    if hidden is not None:
        if len(hidden) != len(instance.areas):
            return "hidden configuration length differs from areas"
        for i, (area, (p, q)) in enumerate(zip(instance.areas, hidden.ratios())):
            if not area.contains_ratio(p, q):
                return f"hidden value {hidden[i]} outside area {area}"
    return None


def validate_response(spec: ModelSpec, queried: Area, response: Area) -> Optional[str]:
    """None if the response is a valid strict refinement of the queried area
    under `spec`; otherwise the rule that failed."""
    if not contains(queried, response):
        return f"response {response} not contained in queried area {queried}"
    if response == queried:
        return "response must strictly refine the queried area"
    if not spec.returns.admits(response):
        shape = area_shape(response)
        return f"response shape {shape or 'half-open'} not admitted by return type set {spec.returns}"
    return None
