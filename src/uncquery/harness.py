"""Experiment plumbing and the command-line interface.

Instance JSON is the single interchange format: every subcommand reads or
writes it.  Competitions run an algorithm against an oracle, brute-force the
optimum on the same responses (or take the fixture value for adversaries),
and fail loudly when a configured bound is violated.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import (Area, Rationals, TieRule, format_rational, parse_ratio, parse_rational,
                   reduce_ratio)
from .engine import Algorithm, EngineError, RunStatus, default_budget, model_refusal, solve
from .models import ModelSpec, UncertainInstance, validate_instance
from .mst import MST_ALGORITHMS, MstAnswer, UncertainGraph, mst_verifier, umst_solve
from .optbrute import OptSearchError, opt_value
from .oracles import (
    FIXTURE_BUILDERS,
    ExactPolicy,
    Fixture,
    GroundTruthOracle,
    HalvePolicy,
    Oracle,
    OracleError,
    ScriptedOracle,
)
from .selection import SELECTION_ALGORITHMS, Objective, SelectionProblem, make_strategy

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 2
EXIT_INVALID_CONFIG = 3

# The widest area the generators draw, in units of the value grid.
SCALE = 4

# The most areas a generated instance may have: n for selection, and the
# vertices - 1 tree edges plus the extra edges for a graph.
MAX_GENERATED_AREAS = 10**6


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Instance JSON


def instance_to_json(instance: UncertainInstance) -> dict:
    problem = instance.problem
    if isinstance(problem, SelectionProblem):
        pjson = {
            "type": "kmin",
            "k": problem.k,
            "objective": problem.objective.value,
            "tie_rule": problem.tie_rule.value,
        }
    elif isinstance(problem, UncertainGraph):
        pjson = {
            "type": "mst",
            "vertices": problem.vertices,
            "edges": [{"u": u, "v": v} for u, v in problem.edges],
        }
    else:
        raise ConfigError(f"unknown problem object {problem!r}")
    out = {
        "model": instance.model.to_json(),
        "problem": pjson,
        "areas": [a.to_json() for a in instance.areas],
    }
    if instance.hidden is not None:
        out["hidden"] = [format_rational(h) for h in instance.hidden]
    return out


@contextmanager
def _malformed(what: str):
    """Turn the errors of reading JSON of the wrong shape into ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"malformed {what} JSON: missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from None


_JSON_TYPES = {dict: "an object", str: "a string", int: "an integer", float: "a number"}


def _json_value(key: str, value, want: type):
    """`value`, read at `key`, if its JSON type is `want`, where an int within
    float range passes as a float and a bool is no int; else TypeError, which
    `_malformed` reports, or ConfigError for an int past float range."""
    if type(value) is want:
        return value
    if want is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{key!r} is an integer past float range") from None
    raise TypeError(f"{key!r} must be {_JSON_TYPES[want]}, got {json.dumps(value)}")


def instance_from_json(data: dict) -> UncertainInstance:
    """The instance a JSON object describes; a missing key or a value of the
    wrong shape raises ConfigError."""
    with _malformed("instance"):
        return _parse_instance(data)


def _parse_instance(data: dict) -> UncertainInstance:
    # Endpoint texts repeat across areas; each distinct text is decoded once
    # into its integer pair, which the areas share.  Other JSON values go to
    # parse_ratio as they are.  No endpoint becomes a Fraction here, and
    # hidden values stay integer pairs until a query reveals them.
    decoded: dict = {}

    def ratio(text) -> Tuple[int, int]:
        if type(text) is not str:
            return parse_ratio(text)
        value = decoded.get(text)
        if value is None:
            value = decoded[text] = parse_ratio(text)
        return value

    model = ModelSpec.from_json(data["model"])
    pjson = data["problem"]
    if pjson["type"] == "kmin":
        problem = SelectionProblem(
            k=_json_value("problem.k", pjson["k"], int),
            objective=Objective(pjson.get("objective", "kmin")),
            tie_rule=TieRule(pjson.get("tie_rule", "stable")),
        )
        areas = [Area.from_json(a, ratio) for a in data["areas"]]
    elif pjson["type"] == "mst":
        edges = tuple((_json_value("u", e["u"], int), _json_value("v", e["v"], int))
                      for e in pjson["edges"])
        problem = UncertainGraph(_json_value("problem.vertices", pjson["vertices"], int), edges)
        if "areas" in data:
            areas = [Area.from_json(a, ratio) for a in data["areas"]]
        else:  # graph-style JSON with inline weights
            areas = [Area.from_json(e["weight"], ratio) for e in pjson["edges"]]
    else:
        raise ConfigError(f"unknown problem type {pjson['type']!r}")
    hidden = data.get("hidden")
    if hidden is not None:
        hidden = Rationals.parse(hidden)
    return UncertainInstance(model=model, areas=areas, problem=problem, hidden=hidden)


_encode_str = json.encoder.encode_basestring_ascii


def dump_json(data: dict) -> str:
    """`json.dumps(data, indent=2, sort_keys=True) + "\\n"`, byte for byte.
    An indent sends json.dumps to its pure-Python encoder; this writer
    takes half to two thirds of its time."""
    out: List[str] = []
    _encode_json(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode_json(value, newline: str, out: List[str]) -> None:
    """Append the indented JSON text of `value` to `out`, with `newline`
    the line break and indent of its own level.  Dict keys must be str.
    Scalars other than str and int go to json.dumps by type test, not by a
    lookup: 0 == False."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            out.append(f"{sep}{inner}{_encode_str(key)}: ")
            _encode_json(value[key], inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            out.append(sep + inner)
            _encode_json(item, inner, out)
            sep = ","
        out.append(newline + "]")
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))



# ---------------------------------------------------------------------------
# Seeded generation


@dataclass(frozen=True)
class GenParams:
    n: int
    model: ModelSpec
    k: int = 1
    tie_rule: TieRule = TieRule.STABLE
    overlap: float = 0.6
    point_fraction: float = 0.0


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) as Random._randbelow_with_getrandbits draws it, so an
    instance rests on the Mersenne Twister output, not on randint's code."""
    if n <= 0:
        raise ValueError(f"empty range below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


# random.shuffle's swaps over the 1/16 grid's offsets, for an open area (15
# offsets, 1 to 15) and for one that attains (17, 0 to 16): each swap's i and
# the bits that `_below(rng, i + 1)` draws.
_SHUFFLE_16 = tuple(tuple((i, (i + 1).bit_length()) for i in range(count - 1, 0, -1))
                    for count in (15, 17))


def _pick_hidden(rng: random.Random, lo2: int, len2: int, attains: bool, used: set) -> int:
    """Grid value inside the area from lo2/2 to (lo2 + len2)/2, as its numerator
    over 2048, which every grid denominator divides, distinct from those in
    `used` so interval-return refinement always terminates.  A level's offsets
    are first shuffled in full by random.shuffle's swaps, each drawn here on
    `getrandbits` by `_below`'s rule, so the same words go to the same swaps."""
    lo_j = 0 if attains else 1
    getrandbits = rng.getrandbits
    for denom in (16, 64, 256, 1024):
        offsets = list(range(lo_j, denom - lo_j + 1))
        steps = (_SHUFFLE_16[attains] if denom == 16 else
                 [(i, (i + 1).bit_length()) for i in range(len(offsets) - 1, 0, -1)])
        for i, bits in steps:
            # j = _below(rng, i + 1): the bits of i + 1, redrawn while past i.
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            offsets[i], offsets[j] = offsets[j], offsets[i]
        base, step = lo2 * 1024, len2 * (1024 // denom)
        for j in offsets:
            value = base + step * j
            if value not in used:
                used.add(value)
                return value
    raise ConfigError("could not place a distinct hidden value")


def _span_width(overlap: float, count: int) -> int:
    """The largest lo of one of `count` areas drawn to overlap with density
    `overlap`, computed once per instance."""
    # Every overlap of 1 or more draws width 1.  A large negative overlap
    # overflows the float product, so its exact integer is taken instead.
    spread = max(0, 1 - overlap)
    scaled = spread * count * SCALE
    return max(1, round(scaled) if math.isfinite(scaled) else int(spread) * count * SCALE)


def _span(rng: random.Random, width: int) -> Tuple[int, int]:
    """Twice the lo and twice the length of one area whose lo lies at most
    `width` from 0 (`_span_width`), each one `_below` draw."""
    return _below(rng, 2 * width + 1), 2 + _below(rng, 2 * SCALE - 1)


def _draw(rng: random.Random, lo2: int, len2: int, kinds: Sequence[str], used: set,
          point: bool = False) -> Tuple[Area, Fraction]:
    """An area spanning lo2/2 to (lo2 + len2)/2 and its hidden value: a point,
    or an interval of a kind drawn from `kinds` by one `_below`."""
    attains = point or kinds[_below(rng, len(kinds))] == "C"
    value = _pick_hidden(rng, lo2, len2, attains, used)
    ratios = (reduce_ratio(value, 2048) * 2 if point
              else reduce_ratio(lo2, 2) + reduce_ratio(lo2 + len2, 2))
    return Area.from_ratios(ratios, attains), Fraction(value, 2048)


def generate_instance(params: GenParams, seed: int | str) -> UncertainInstance:
    """Deterministic seeded instance honoring overlap density, point fraction
    and the model's admitted input shapes.  Per area: `random()` for whether
    it is a point, where the model admits both, then `_span` and `_draw`."""
    model = params.model
    interval_kinds = [c for c in "OC" if c in model.input]
    if params.point_fraction > 0 and "P" not in model.input:
        raise ConfigError("point fraction needs P in the input type set")
    rng = random.Random(f"uncquery-gen:{seed}")
    # Per instance, not per area: whether points are admitted, and the width.
    points, point_fraction = "P" in model.input, params.point_fraction
    width = _span_width(params.overlap, params.n) if params.overlap > 0 else 0
    used: set = set()
    drawn = []
    for i in range(params.n):
        point = points and (not interval_kinds or rng.random() < point_fraction)
        if width:
            span = _span(rng, width)
        else:
            span = 2 * i * (SCALE + 2), 2 * (1 + _below(rng, SCALE))
        drawn.append(_draw(rng, *span, interval_kinds, used, point))
    problem = SelectionProblem(k=params.k, tie_rule=params.tie_rule)
    problem.validate(params.n)
    return UncertainInstance(model=model, areas=tuple(a for a, _ in drawn), problem=problem,
                             hidden=tuple(h for _, h in drawn))


@dataclass(frozen=True)
class GraphGenParams:
    vertices: int
    extra_edges: int
    model: ModelSpec
    overlap: float = GenParams.overlap


def generate_graph_instance(params: GraphGenParams, seed: int | str) -> UncertainInstance:
    """Connected graph (random spanning tree plus extras) with uncertain
    edge weights drawn like selection areas; every draw is on `getrandbits`."""
    rng = random.Random(f"uncquery-graph:{seed}")
    v = params.vertices
    edges: List[Tuple[int, int]] = [(_below(rng, i), i) for i in range(1, v)]
    for _ in range(params.extra_edges):
        a = _below(rng, v)
        b = _below(rng, v)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    graph = UncertainGraph(v, tuple(edges))
    interval_kinds = [c for c in "OC" if c in params.model.input]
    point = not interval_kinds
    # An edgeless graph draws no span, so it computes no width either.
    width = _span_width(params.overlap, graph.n_edges) if graph.n_edges else 1
    used: set = set()
    drawn = [_draw(rng, *_span(rng, width), interval_kinds, used, point)
             for _ in range(graph.n_edges)]
    return UncertainInstance(model=params.model, areas=tuple(a for a, _ in drawn),
                             problem=graph, hidden=tuple(h for _, h in drawn))


# ---------------------------------------------------------------------------
# Oracles from CLI strings


def build_oracle(spec: str, instance: UncertainInstance) -> Oracle:
    """The oracle a `ground`, `ground:exact`, `ground:halve[:R]` or
    `script:PATH` spec names; adversary_fixture plays `adversary:NAME`."""
    if spec == "ground:exact":
        return GroundTruthOracle.for_instance(instance, ExactPolicy())
    if spec == "ground:halve":
        spec += ":1/2"
    if spec.startswith("ground:halve:"):
        try:
            shrink = parse_rational(spec.removeprefix("ground:halve:"))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"oracle spec {spec!r}: the shrink is not a rational") from None
        return GroundTruthOracle.for_instance(instance, HalvePolicy(shrink))
    if spec == "ground":
        return GroundTruthOracle.for_instance(instance)
    if spec.startswith("script:"):
        with _malformed("script"):
            return ScriptedOracle.load(spec.split(":", 1)[1], instance.model)
    raise ConfigError(f"unknown oracle spec {spec!r}")


def _build_fixture(name: str, n: int, k: int) -> Fixture:
    """The fixture FIXTURE_BUILDERS[name] builds for (n, k); ConfigError
    before anything is built if n or k is below 1, or if n or 2k, the areas
    of the largest fixtures, passes MAX_GENERATED_AREAS."""
    _check_limit("n", n, 1, MAX_GENERATED_AREAS)
    _check_limit("k", k, 1, MAX_GENERATED_AREAS // 2)
    return FIXTURE_BUILDERS[name](n, k)


def adversary_fixture(spec: str, model, problem, areas=None, n=3, k=2) -> Optional[Fixture]:
    """The fixture an `adversary:NAME` oracle spec plays, built for (n, k) or
    for the size of the given areas, or None for any other spec.  An adversary
    plays only its own fixture, so ConfigError unless it has this model and
    problem, and these areas if any."""
    if not spec.startswith("adversary:"):
        return None
    name = spec.split(":", 1)[1]
    if name not in FIXTURE_BUILDERS:
        raise ConfigError(f"unknown adversary {name!r}; known: {', '.join(FIXTURE_BUILDERS)}")
    if areas is not None:  # as `fixtures` writes them; min-tight's n omits its wide area
        n, k = max(len(areas) - (name == "min-tight"), 1), max(getattr(problem, "k", 1), 1)
    fixture = _build_fixture(name, n, k)
    own = fixture.instance
    if (model, problem) != (own.model, own.problem) or areas not in (None, own.areas):
        raise ConfigError(f"adversary {name!r} plays only its own fixture instance: "
                          f"{own.model}, k={own.problem.k}, {own.problem.tie_rule.value} ties")
    return fixture


# ---------------------------------------------------------------------------
# Competitions


@dataclass
class TrialRecord:
    trial: int
    algorithm: str
    model: str
    n: int
    k: int
    queries: int
    opt: Optional[int]
    status: str

    @property
    def ratio(self) -> Optional[float]:
        if self.opt is None:
            return None
        return self.queries / max(self.opt, 1)

    @property
    def gap(self) -> Optional[int]:
        if self.opt is None:
            return None
        return self.queries - self.opt

    def to_json(self) -> dict:
        ratio = None if self.ratio is None else round(self.ratio, 6)
        return {**asdict(self), "ratio": ratio, "gap": self.gap}


CSV_COLUMNS = "trial,algorithm,model,n,k,queries,opt,ratio,gap,status"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_emit(records: Sequence[TrialRecord], fmt: str) -> str:
    """Byte-stable CSV or JSON rendering."""
    if fmt == "csv":
        lines = [CSV_COLUMNS]
        for r in records:
            j = r.to_json()
            lines.append(",".join(_csv_cell(j[c]) for c in CSV_COLUMNS.split(",")))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = dump_json({"records": [r.to_json() for r in records]})
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return text


# The algorithms of each problem type, keyed by the type's name in instance
# JSON.  The first of a table solves every instance and is `solve`'s default.
ALGORITHMS = {"kmin": SELECTION_ALGORITHMS, "mst": MST_ALGORITHMS}

BOUNDS = {name: alg.bound for table in ALGORITHMS.values() for name, alg in table.items()}


def paired_algorithm(problem_type: str, name: Optional[str]) -> Tuple[str, Algorithm]:
    """The named algorithm, or the problem type's default when name is None,
    with its declaration; ConfigError unless it solves that problem type."""
    table = ALGORITHMS.get(problem_type)
    if table is None:
        raise ConfigError(f"unknown problem type {problem_type!r}")
    if name is None:
        name = next(iter(table))
    if name not in table:
        raise ConfigError(f"no {problem_type} algorithm {name!r}; known: {', '.join(table)}")
    return name, table[name]


# Each key a compete config may hold, "problem.KEY" for those of its "problem"
# object: the ExperimentConfig field it sets and the JSON type of its value.
CONFIG_TABLE = {
    "algorithm": ("algorithm", str), "model": ("model", str), "oracle": ("oracle", str),
    "trials": ("trials", int), "seed": ("seed", int), "n": ("n", int),
    "overlap": ("overlap", float), "point_fraction": ("point_fraction", float),
    "budget": ("budget", int), "max_total": ("max_total", int),
    "out": ("out", str), "format": ("out_format", str),
    "problem.type": ("problem_type", str), "problem.k": ("k", int),
    "problem.tie_rule": ("tie_rule", str), "problem.vertices": ("vertices", int),
    "problem.extra_edges": ("extra_edges", int),
}


@dataclass
class ExperimentConfig:
    """The settings of one competition.  Each default is written once, the
    generator's in GenParams and the rest here: `from_json` keeps them for a
    missing key or a null; `gen` takes them."""

    algorithm: str
    model: ModelSpec
    oracle: str = "ground"
    trials: int = 20
    seed: int = 0
    n: int = 6
    k: int = GenParams.k
    tie_rule: TieRule = GenParams.tie_rule
    problem_type: str = "kmin"
    overlap: float = GenParams.overlap
    point_fraction: float = GenParams.point_fraction
    vertices: int = 5
    extra_edges: int = 3
    budget: Optional[int] = None
    max_total: Optional[int] = None
    out: Optional[str] = None
    out_format: str = "csv"

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        """The configuration a JSON object describes, read through
        CONFIG_TABLE; an unknown key, a value of the wrong JSON type or a
        missing `algorithm` or `model` raises ConfigError."""
        with _malformed("config"):
            problem = _json_value("config", data, dict).get("problem")
            problem = {} if problem is None else _json_value("problem", problem, dict)
            keys = {**data, **{f"problem.{key}": value for key, value in problem.items()}}
            keys.pop("problem", None)
            # A top-level key never names a key of the "problem" object.
            unknown = sorted((keys.keys() - CONFIG_TABLE.keys()) | {k for k in data if "." in k})
            if unknown:
                raise ConfigError(f"unknown config key {unknown[0]!r}")
            values = {CONFIG_TABLE[key][0]: _json_value(key, value, CONFIG_TABLE[key][1])
                      for key, value in keys.items() if value is not None}
            if "tie_rule" in values:
                values["tie_rule"] = TieRule(values["tie_rule"])
            return ExperimentConfig(algorithm=values.pop("algorithm"),
                                    model=ModelSpec.parse(values.pop("model")), **values)

    def validate(self) -> Optional[Fixture]:
        """ConfigError unless every trial can run and the report can be
        written; returns the fixture an adversary oracle plays, which must
        have the configured model and problem, or None for any other
        oracle."""
        _check_limit("trials", self.trials, 0)
        _check_limit("budget", self.budget, 1)
        _check_limit("max_total", self.max_total, 0)
        _, algorithm = paired_algorithm(self.problem_type, self.algorithm)
        err = model_refusal(self.algorithm, algorithm.categories, self.model)
        if err is not None:
            raise ConfigError(err)
        report_emit([], self.out_format)  # raises ConfigError on an unknown format
        _check_out(self.out, "the report")
        kmin = self.problem_type == "kmin"
        problem = SelectionProblem(self.k, tie_rule=self.tie_rule) if kmin else None
        fixture = adversary_fixture(self.oracle, self.model, problem, n=self.n, k=self.k)
        _generator(self)  # raises ConfigError on a generator setting out of range
        if kmin:
            try:  # the strategy's own refusals, such as min1's k = 1
                make_strategy(self.algorithm, problem)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if fixture is None:  # trial 0's oracle: ConfigError on a spec no trial can build
            build_oracle(self.oracle, trial_instance(self, 0))
        return fixture


def _check_out(path: Optional[str], what: str) -> None:
    """ConfigError unless `what` can be written to the file at `path`, or
    `path` is None (stdout).  Checked without opening the file, so a refused
    command leaves it as it was."""
    folder = os.path.dirname(os.path.abspath(path or "."))
    if path and (os.path.isdir(path) or not os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write {what} to {path!r}")


def _check_limit(name: str, value, least: int, most: Optional[int] = None) -> None:
    """ConfigError unless `value` is None (the default) or an int of at
    least `least` and, if `most` is given, at most `most`."""
    if value is None:
        return
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ConfigError(f"{name} must be at most {most}, got {value}")


# The most count vectors `uncquery opt` visits without an answer, verified or
# skipped; past this it asks for a lower max_total instead of running for hours.
MAX_SEARCH_VECTORS = 200_000


def _max_total(instance: UncertainInstance, max_total: Optional[int]) -> int:
    """`max_total`, or 4n when it is None.  When every response is a point,
    each chain ends after one entry, so the search stops by level n anyway."""
    return 4 * len(instance.areas) if max_total is None else max_total


def _generator(spec) -> tuple:
    """The generator `spec` (an ExperimentConfig or `gen`'s arguments) asks
    for and its parameters, each `spec`'s attribute of its name; ConfigError
    names the first parameter out of range, before anything is drawn."""
    if spec.problem_type == "mst":
        params, generate = GraphGenParams, generate_graph_instance
    else:
        params, generate = GenParams, generate_instance
    values = {f.name: getattr(spec, f.name) for f in fields(params)}
    if not math.isfinite(values["overlap"]):
        raise ConfigError(f"overlap must be finite, got {values['overlap']}")
    if not 0 <= values.get("point_fraction", 0) <= 1:
        raise ConfigError(f"point_fraction must be in [0, 1], got {values['point_fraction']}")
    if params is GraphGenParams:
        # One vertex has no edges, and so an instance without areas.
        vertices = values["vertices"]
        _check_limit("vertices", vertices, 2, MAX_GENERATED_AREAS + 1)
        _check_limit("extra_edges", values["extra_edges"], 0, MAX_GENERATED_AREAS - (vertices - 1))
    else:
        _check_limit("n", values["n"], 1, MAX_GENERATED_AREAS)
        _check_limit("k", values["k"], 1, values["n"])
    return generate, params(**values)


def _generate(spec, seed) -> UncertainInstance:
    """The instance `spec` describes, from `seed`."""
    generate, params = _generator(spec)
    return generate(params, seed)


def trial_instance(config: ExperimentConfig, trial: int) -> UncertainInstance:
    """The generated instance of one trial: the configured generator, seeded
    with the string f"{config.seed}:{trial}"."""
    return _generate(config, f"{config.seed}:{trial}")


def run_algorithm(instance: UncertainInstance, oracle: Oracle, algorithm, budget) -> tuple:
    """(report, answer, verifier for the OPT search) of the named algorithm,
    or the problem's default, within the budget or the default one.  The
    answer is an MstAnswer on a graph.  bench/tracer.py rebinds this
    module's `solve` and `umst_solve`, so both are looked up at each call."""
    name, _ = paired_algorithm(instance.problem.kind, algorithm)
    if budget is None:
        budget = default_budget(len(instance.areas))
    if isinstance(instance.problem, UncertainGraph):
        report, answer = umst_solve(instance, oracle, budget)
        return report, answer, mst_verifier(instance.problem)
    strategy = make_strategy(name, instance.problem)
    report = solve(instance, oracle, strategy, budget)
    return report, report.answer, strategy.verifier


def run_trial(config: ExperimentConfig, trial: int, fixture: Optional[Fixture]) -> TrialRecord:
    """One trial; `fixture` is the one `config.validate` returned."""
    if fixture is not None:
        instance, oracle, opt = fixture.instance, fixture.oracle, fixture.opt_value
    else:
        instance = trial_instance(config, trial)
        oracle, opt = build_oracle(config.oracle, instance), None
    report, _, verifier = run_algorithm(instance, oracle.fork(), config.algorithm, config.budget)
    if opt is None:
        max_total = _max_total(instance, config.max_total)
        opt = opt_value(list(instance.areas), oracle, verifier, max_total).opt

    status = "ok"
    if report.status is RunStatus.BUDGET_EXCEEDED:
        status = "budget-exceeded"
    elif opt is None:
        status = "opt-unbounded"
    elif not BOUNDS[config.algorithm](report.total, opt, config.k, len(instance.areas)):
        status = "bound-violated"
    return TrialRecord(
        trial=trial,
        algorithm=config.algorithm,
        model=str(instance.model),
        n=len(instance.areas),
        k=config.k,
        queries=report.total,
        opt=opt,
        status=status,
    )


def compete(config: ExperimentConfig) -> Tuple[List[TrialRecord], dict, int]:
    """All trials plus an aggregate summary and the process exit code."""
    fixture = config.validate()
    records = [run_trial(config, t, fixture) for t in range(config.trials)]
    ratios = [r.ratio for r in records if r.ratio is not None]
    gaps = [r.gap for r in records if r.gap is not None]
    aggregate = {
        "trials": len(records),
        "max_ratio": max(ratios) if ratios else None,
        "max_gap": max(gaps) if gaps else None,
        "violations": sum(1 for r in records if r.status != "ok"),
    }
    code = EXIT_OK if aggregate["violations"] == 0 else EXIT_BOUND_VIOLATED
    return records, aggregate, code


# ---------------------------------------------------------------------------
# CLI


def _write(text: str, path: Optional[str]) -> None:
    """Write `text` to the file at `path`, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    _check_limit("--budget", args.budget, 1)
    _check_out(args.out, "the report")
    with open(args.instance) as fh:
        instance = instance_from_json(json.load(fh))
    fixture = adversary_fixture(args.oracle, instance.model, instance.problem, instance.areas)
    oracle = build_oracle(args.oracle, instance) if fixture is None else fixture.oracle.fork()
    report, answer, _ = run_algorithm(instance, oracle, args.algorithm, args.budget)
    payload = report.to_json()
    if isinstance(answer, MstAnswer):
        payload["tree"] = sorted(e + 1 for e in answer.tree)
        payload["red_rule_count"] = answer.red_rule_count
    _write(dump_json(payload), args.out)
    return EXIT_OK


def _cmd_opt(args) -> int:
    _check_limit("--max-total", args.max_total, 0)
    with open(args.instance) as fh:
        instance = instance_from_json(json.load(fh))
    err = validate_instance(instance)
    if err is not None:
        raise ConfigError(f"invalid instance: {err}")
    if args.oracle.startswith("adversary:"):
        raise ConfigError(f"oracle spec {args.oracle!r}: an adversary's optimum is its fixture's "
                          "value, which `fixtures` writes; `opt` does not search it")
    oracle = build_oracle(args.oracle, instance)
    if isinstance(instance.problem, UncertainGraph):
        verifier = mst_verifier(instance.problem)
    else:
        verifier = make_strategy("kmin-witness", instance.problem).verifier
    max_total = _max_total(instance, args.max_total)
    try:
        result = opt_value(list(instance.areas), oracle, verifier, max_total,
                           MAX_SEARCH_VECTORS)
    except OptSearchError as exc:  # only the limit: an adversary was refused above
        raise ConfigError(f"{exc}; lower --max-total (now {max_total})") from None
    vector = None if result.vector is None else {
        str(i + 1): c for i, c in sorted(result.vector.items())}
    sys.stdout.write(dump_json({"opt": result.opt, "vector": vector}))
    return EXIT_OK


def _gen_seed(text: str) -> int | str:
    """`gen --seed`: an int, or S:T, which seeds as trial T of a compete
    config with seed S does; ArgumentTypeError for any other text."""
    seed, colon, trial = text.partition(":")
    try:
        if not colon:
            return int(seed)
        if int(trial) >= 0:
            return f"{int(seed)}:{int(trial)}"
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid seed {text!r}: want an integer or S:T, "
                                     "with integers S and T >= 0")


def _cmd_gen(args) -> int:
    _check_out(args.out, "the instance")
    args.model = ModelSpec.parse(args.model)
    _write(dump_json(instance_to_json(_generate(args, args.seed))), args.out)
    return EXIT_OK


def _cmd_compete(args) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(json.load(fh))
    records, aggregate, code = compete(config)
    if config.out:
        _write(report_emit(records, config.out_format), config.out)
    sys.stdout.write(dump_json(aggregate))
    return code


def _cmd_fixtures(args) -> int:
    _check_out(args.out, "the instance")
    fixture = _build_fixture(args.name, args.n, args.k)  # argparse checked the name
    payload = instance_to_json(fixture.instance)
    payload["fixture"] = {
        "name": fixture.name,
        "opt": fixture.opt_value,
        "provenance": "asserted",
    }
    _write(dump_json(payload), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigError, so a bad command
    line exits 3 with one line, as any other bad input does."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(
        prog="uncquery",
        description="Query-competitive computation over interval-uncertain data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm")
    p.add_argument("--oracle", default="ground")
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("opt", help="brute-force the minimum query count")
    p.add_argument("--instance", required=True)
    p.add_argument("--oracle", default="ground")
    p.add_argument("--max-total", type=int, dest="max_total")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--model", required=True)
    p.add_argument("--problem", choices=sorted(ALGORITHMS), dest="problem_type")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--vertices", type=int)
    p.add_argument("--extra-edges", type=int, dest="extra_edges")
    p.add_argument("--overlap", type=float)
    p.add_argument("--point-fraction", type=float, dest="point_fraction")
    p.add_argument("--seed", type=_gen_seed)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen, **{f.name: f.default for f in fields(ExperimentConfig)})

    p = sub.add_parser("compete", help="run an algorithm-vs-OPT competition")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_compete)

    p = sub.add_parser("fixtures", help="materialize a named adversary instance")
    p.add_argument("--name", required=True, choices=sorted(FIXTURE_BUILDERS))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, EngineError, OracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    print("error: uncquery.harness is not a command; run python -m uncquery", file=sys.stderr)
    raise SystemExit(EXIT_INVALID_CONFIG)
