"""Query-model taxonomy: which area shapes may appear in the input and in
query returns, the category grid over those combinations, and validation of
instances and responses against a model."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from .core import Area, EndpointKind, _fraction, contains

SHAPE_ORDER = "OCP"


def area_shape(area: Area) -> Optional[str]:
    """'P' point, 'O' open interval, 'C' closed interval, None for half-open."""
    if area.is_point:
        return "P"
    if area.lo_kind is EndpointKind.OPEN and area.hi_kind is EndpointKind.OPEN:
        return "O"
    if area.lo_kind is EndpointKind.CLOSED and area.hi_kind is EndpointKind.CLOSED:
        return "C"
    return None


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
        shape = area_shape(area)
        return shape is not None and shape in self.letters

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
    configuration (the true values, one per area)."""

    model: ModelSpec
    areas: Tuple[Area, ...]
    problem: object
    hidden: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "areas", tuple(self.areas))
        if self.hidden is not None:
            object.__setattr__(self, "hidden", tuple(map(_fraction, self.hidden)))

    @property
    def n(self) -> int:
        return len(self.areas)


@dataclass(frozen=True)
class Violation:
    index: Optional[int]
    reason: str


def validate_instance(instance: UncertainInstance) -> list:
    """Shape admission per the model's input set plus hidden-value containment.
    Empty list means the instance is valid."""
    out = []
    if not instance.areas:
        out.append(Violation(None, "instance has no areas"))
        return out
    for i, area in enumerate(instance.areas):
        if not instance.model.input.admits(area):
            shape = area_shape(area)
            out.append(
                Violation(
                    i,
                    f"area {i + 1} shape {shape or 'half-open'} not admitted by input "
                    f"type set {instance.model.input}",
                )
            )
    if instance.hidden is not None:
        if len(instance.hidden) != len(instance.areas):
            out.append(Violation(None, "hidden configuration length differs from areas"))
        else:
            for i, (area, value) in enumerate(zip(instance.areas, instance.hidden)):
                if not area.contains_value(value):
                    out.append(Violation(i, f"hidden value {value} outside area {area}"))
    return out


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
