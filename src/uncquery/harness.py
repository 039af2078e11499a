"""Experiment plumbing and the command-line interface.

Instance JSON is the single interchange format: every subcommand reads or
writes it.  Competitions run an algorithm against an oracle, brute-force the
optimum on the same responses (or take the fixture value for adversaries),
and fail loudly when a configured bound is violated.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import Area, TieRule, format_rational, parse_rational
from .engine import EngineError, RunStatus, StrategyModelError, default_budget, solve
from .models import ModelSpec, UncertainInstance
from .mst import UncertainGraph, mst_verifier, umst_solve
from .optbrute import minimal_solutions, opt_value
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
from .selection import (
    Objective,
    SelectionProblem,
    STRATEGY_NAMES,
    make_strategy,
    require_op_p,
    selection_verifier,
)

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 2
EXIT_INVALID_CONFIG = 3


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


def instance_from_json(data: dict) -> UncertainInstance:
    """The instance a JSON object describes; a missing key or a value of the
    wrong shape raises ConfigError."""
    try:
        return _parse_instance(data)
    except KeyError as exc:
        raise ConfigError(f"malformed instance JSON: missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed instance JSON: {exc}") from None


def _parse_instance(data: dict) -> UncertainInstance:
    model = ModelSpec.from_json(data["model"])
    pjson = data["problem"]
    if pjson["type"] == "kmin":
        problem = SelectionProblem(
            k=int(pjson["k"]),
            objective=Objective(pjson.get("objective", "kmin")),
            tie_rule=TieRule(pjson.get("tie_rule", "stable")),
        )
        areas = tuple(Area.from_json(a) for a in data["areas"])
    elif pjson["type"] == "mst":
        edges = [(e["u"], e["v"]) for e in pjson["edges"]]
        problem = UncertainGraph(int(pjson["vertices"]), tuple(edges))
        if "areas" in data:
            areas = tuple(Area.from_json(a) for a in data["areas"])
        else:  # graph-style JSON with inline weights
            areas = tuple(Area.from_json(e["weight"]) for e in pjson["edges"])
    else:
        raise ConfigError(f"unknown problem type {pjson['type']!r}")
    hidden = None
    if data.get("hidden") is not None:
        hidden = tuple(parse_rational(h) for h in data["hidden"])
    return UncertainInstance(model=model, areas=areas, problem=problem, hidden=hidden)


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


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
    scale: int = 4


def _pick_hidden(rng: random.Random, area: Area, used: set) -> Fraction:
    """Grid value inside the area, distinct from previously chosen values so
    interval-return refinement always terminates."""
    for denom in (16, 64, 256, 1024):
        lo_j = 0 if area.attains_lo else 1
        hi_j = denom if area.attains_hi else denom - 1
        offsets = list(range(lo_j, hi_j + 1))
        rng.shuffle(offsets)
        for j in offsets:
            value = area.lo + area.length * Fraction(j, denom)
            if value not in used:
                used.add(value)
                return value
    raise ConfigError("could not place a distinct hidden value")


def generate_instance(params: GenParams, seed: int | str) -> UncertainInstance:
    """Deterministic seeded instance honoring overlap density, point fraction
    and the model's admitted input shapes."""
    model = params.model
    interval_kinds = [c for c in "OC" if c in model.input]
    if params.point_fraction > 0 and "P" not in model.input:
        raise ConfigError("point fraction needs P in the input type set")
    if not interval_kinds and "P" not in model.input:
        raise ConfigError(f"input type set {model.input} admits nothing")
    rng = random.Random(f"uncquery-gen:{seed}")
    used: set = set()
    areas: List[Area] = []
    hidden: List[Fraction] = []
    for i in range(params.n):
        make_point = (
            "P" in model.input
            and (not interval_kinds or rng.random() < params.point_fraction)
        )
        if params.overlap <= 0:
            lo = Fraction(i * (params.scale + 2))
            length = Fraction(rng.randint(1, params.scale))
        else:
            width = max(1, round((1 - params.overlap) * params.n * params.scale))
            lo = Fraction(rng.randint(0, 2 * width), 2)
            length = Fraction(rng.randint(2, 2 * params.scale), 2)
        if make_point:
            value = _pick_hidden(rng, Area.closed(lo, lo + length), used)
            areas.append(Area.point(value))
            hidden.append(value)
            continue
        kind = rng.choice(interval_kinds)
        area = Area.open(lo, lo + length) if kind == "O" else Area.closed(lo, lo + length)
        areas.append(area)
        hidden.append(_pick_hidden(rng, area, used))
    problem = SelectionProblem(k=params.k, tie_rule=params.tie_rule)
    problem.validate(params.n)
    return UncertainInstance(
        model=model, areas=tuple(areas), problem=problem, hidden=tuple(hidden)
    )


@dataclass(frozen=True)
class GraphGenParams:
    vertices: int
    extra_edges: int
    model: ModelSpec
    overlap: float = 0.6
    scale: int = 4


def generate_graph_instance(params: GraphGenParams, seed: int | str) -> UncertainInstance:
    """Connected graph (random spanning tree plus extras) with uncertain
    edge weights drawn like selection areas."""
    rng = random.Random(f"uncquery-graph:{seed}")
    v = params.vertices
    edges: List[Tuple[int, int]] = []
    for i in range(1, v):
        edges.append((rng.randrange(i), i))
    for _ in range(params.extra_edges):
        a = rng.randrange(v)
        b = rng.randrange(v)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    graph = UncertainGraph(v, tuple(edges))
    interval_kinds = [c for c in "OC" if c in params.model.input] or ["C"]
    used: set = set()
    areas: List[Area] = []
    hidden: List[Fraction] = []
    for _ in range(graph.n_edges):
        width = max(1, round((1 - params.overlap) * graph.n_edges * params.scale))
        lo = Fraction(rng.randint(0, 2 * width), 2)
        length = Fraction(rng.randint(2, 2 * params.scale), 2)
        kind = rng.choice(interval_kinds)
        area = Area.open(lo, lo + length) if kind == "O" else Area.closed(lo, lo + length)
        areas.append(area)
        hidden.append(_pick_hidden(rng, area, used))
    return UncertainInstance(
        model=params.model, areas=tuple(areas), problem=graph, hidden=tuple(hidden)
    )


# ---------------------------------------------------------------------------
# Oracles from CLI strings


ADVERSARY_NAMES = tuple(FIXTURE_BUILDERS)


def build_oracle(spec: str, instance: UncertainInstance) -> Oracle:
    if spec == "ground:exact":
        return GroundTruthOracle.for_instance(instance, ExactPolicy())
    if spec.startswith("ground:halve"):
        parts = spec.split(":")
        shrink = parse_rational(parts[2]) if len(parts) > 2 else Fraction(1, 2)
        return GroundTruthOracle.for_instance(instance, HalvePolicy(shrink))
    if spec == "ground":
        return GroundTruthOracle.for_instance(instance)
    if spec.startswith("script:"):
        return ScriptedOracle.load(spec.split(":", 1)[1])
    raise ConfigError(f"unknown oracle spec {spec!r}")


def build_fixture(name: str, n: int = 3, k: int = 2) -> Fixture:
    if name not in FIXTURE_BUILDERS:
        raise ConfigError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURE_BUILDERS)}"
        )
    return FIXTURE_BUILDERS[name](n, k)


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
        return {
            "trial": self.trial,
            "algorithm": self.algorithm,
            "model": self.model,
            "n": self.n,
            "k": self.k,
            "queries": self.queries,
            "opt": self.opt,
            "ratio": None if self.ratio is None else round(self.ratio, 6),
            "gap": self.gap,
            "status": self.status,
        }


CSV_COLUMNS = "trial,algorithm,model,n,k,queries,opt,ratio,gap,status"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_emit(records: Sequence[TrialRecord], fmt: str, path: Optional[str] = None) -> str:
    """Byte-stable CSV or JSON rendering; optionally written to `path`."""
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
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def records_from_csv(text: str) -> List[TrialRecord]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        row = dict(zip(CSV_COLUMNS.split(","), cells))
        out.append(
            TrialRecord(
                trial=int(row["trial"]),
                algorithm=row["algorithm"],
                model=row["model"],
                n=int(row["n"]),
                k=int(row["k"]),
                queries=int(row["queries"]),
                opt=int(row["opt"]) if row["opt"] else None,
                status=row["status"],
            )
        )
    return out


BOUNDS = {
    "min1-witness": lambda q, opt, k, n: q <= 2 * opt,
    "kmin-witness": lambda q, opt, k, n: q <= 2 * opt,
    "min1-lex": lambda q, opt, k, n: q <= 2 * opt,
    "kmin-lex": lambda q, opt, k, n: q <= 2 * opt,
    "min1-bypass": lambda q, opt, k, n: q <= opt + 1,
    "kmin-bypass": lambda q, opt, k, n: q <= opt + min(k, n - k),
    "opop-alternate": lambda q, opt, k, n: q <= 2 * (opt + k),
    "umst": lambda q, opt, k, n: q <= 2 * opt,
}


@dataclass
class ExperimentConfig:
    algorithm: str
    model: ModelSpec
    oracle: str = "ground"
    trials: int = 20
    seed: int = 0
    n: int = 6
    k: int = 1
    tie_rule: TieRule = TieRule.STABLE
    problem_type: str = "kmin"
    overlap: float = 0.6
    point_fraction: float = 0.0
    vertices: int = 5
    extra_edges: int = 3
    budget: Optional[int] = None
    max_total: Optional[int] = None
    out: Optional[str] = None
    out_format: str = "csv"

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        problem = data.get("problem", {"type": "kmin", "k": 1})
        cfg = ExperimentConfig(
            algorithm=data["algorithm"],
            model=ModelSpec.parse(data["model"]),
            oracle=data.get("oracle", "ground"),
            trials=int(data.get("trials", 20)),
            seed=int(data.get("seed", 0)),
            n=int(data.get("n", 6)),
            k=int(problem.get("k", 1)),
            tie_rule=TieRule(problem.get("tie_rule", "stable")),
            problem_type=problem.get("type", "kmin"),
            overlap=float(data.get("overlap", 0.6)),
            point_fraction=float(data.get("point_fraction", 0.0)),
            vertices=int(problem.get("vertices", 5)),
            extra_edges=int(problem.get("extra_edges", 3)),
            budget=data.get("budget"),
            max_total=data.get("max_total"),
            out=data.get("out"),
            out_format=data.get("format", "csv"),
        )
        return cfg

    def validate(self) -> None:
        known = set(STRATEGY_NAMES) | {"umst"}
        if self.algorithm not in known:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.problem_type == "mst" and self.algorithm != "umst":
            raise ConfigError("mst problems run the 'umst' algorithm")
        if self.problem_type == "kmin" and self.algorithm == "umst":
            raise ConfigError("'umst' needs an mst problem")
        if self.algorithm in ("min1-bypass", "kmin-bypass"):
            err = require_op_p(self.model)
            if err:
                raise ConfigError(f"{self.algorithm}: {err}")
        if self.oracle.startswith("adversary:"):
            name = self.oracle.split(":", 1)[1]
            if name not in ADVERSARY_NAMES:
                raise ConfigError(f"unknown adversary {name!r}")


def _default_max_total(instance: UncertainInstance) -> int:
    n = len(instance.areas)
    return 2 * n if "P" in instance.model.returns else 4 * n


def trial_instance(config: ExperimentConfig, trial: int) -> UncertainInstance:
    """The generated instance of one trial: the configured generator, seeded
    with the string f"{config.seed}:{trial}"."""
    seed = f"{config.seed}:{trial}"
    if config.problem_type == "mst":
        return generate_graph_instance(
            GraphGenParams(
                vertices=config.vertices,
                extra_edges=config.extra_edges,
                model=config.model,
                overlap=config.overlap,
            ),
            seed,
        )
    return generate_instance(
        GenParams(
            n=config.n,
            model=config.model,
            k=config.k,
            tie_rule=config.tie_rule,
            overlap=config.overlap,
            point_fraction=config.point_fraction,
        ),
        seed,
    )


def run_trial(config: ExperimentConfig, trial: int) -> TrialRecord:
    if config.oracle.startswith("adversary:"):
        name = config.oracle.split(":", 1)[1]
        fixture = build_fixture(name, n=config.n, k=config.k)
        instance = fixture.instance
        oracle = fixture.fresh_oracle()
        opt: Optional[int] = fixture.opt_value
    else:
        instance = trial_instance(config, trial)
        oracle = build_oracle(config.oracle, instance)
        opt = None

    budget = config.budget or default_budget(len(instance.areas))
    if config.problem_type == "mst":
        report, _answer = umst_solve(instance, oracle.fork(), budget)
        verifier = mst_verifier(instance.problem)
    else:
        strategy = make_strategy(config.algorithm, instance.problem)
        report = solve(instance, oracle.fork(), strategy, budget)
        verifier = strategy.verifier

    if opt is None:
        max_total = config.max_total or _default_max_total(instance)
        opt_res = opt_value(list(instance.areas), oracle, verifier, max_total)
        opt = opt_res.opt

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
    config.validate()
    records = [run_trial(config, t) for t in range(config.trials)]
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


def _cmd_solve(args) -> int:
    with open(args.instance) as fh:
        instance = instance_from_json(json.load(fh))
    if args.oracle.startswith("adversary:"):
        name = args.oracle.split(":", 1)[1]
        fixture = build_fixture(name)
        if (instance.model, instance.areas) != (fixture.instance.model, fixture.instance.areas):
            raise ConfigError(f"adversary {name!r} plays only its own fixture instance")
        oracle = fixture.fresh_oracle()
    else:
        oracle = build_oracle(args.oracle, instance)
    budget = args.budget or default_budget(len(instance.areas))
    if isinstance(instance.problem, UncertainGraph):
        report, answer = umst_solve(instance, oracle, budget)
        payload = report.to_json()
        if answer is not None:
            payload["tree"] = sorted(e + 1 for e in answer.tree)
            payload["red_rule_count"] = answer.red_rule_count
    else:
        strategy = make_strategy(args.algorithm, instance.problem)
        report = solve(instance, oracle, strategy, budget)
        payload = report.to_json()
    text = dump_json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_opt(args) -> int:
    with open(args.instance) as fh:
        instance = instance_from_json(json.load(fh))
    oracle = build_oracle(args.oracle, instance)
    if isinstance(instance.problem, UncertainGraph):
        verifier = mst_verifier(instance.problem)
    else:
        verifier = selection_verifier(instance.problem, instance.problem.tie_rule)
    max_total = args.max_total or _default_max_total(instance)
    result = opt_value(list(instance.areas), oracle, verifier, max_total)
    minima = minimal_solutions(list(instance.areas), oracle, verifier, max_total)
    payload = {
        "opt": result.opt,
        "vector": None
        if result.vector is None
        else {str(i + 1): c for i, c in sorted(result.vector.items())},
        "minimal_count": len(minima),
    }
    sys.stdout.write(dump_json(payload))
    return EXIT_OK


def _cmd_gen(args) -> int:
    model = ModelSpec.parse(args.model)
    if args.problem == "mst":
        instance = generate_graph_instance(
            GraphGenParams(
                vertices=args.vertices,
                extra_edges=args.extra_edges,
                model=model,
                overlap=args.overlap,
            ),
            seed=args.seed,
        )
    else:
        instance = generate_instance(
            GenParams(
                n=args.n,
                model=model,
                k=args.k,
                overlap=args.overlap,
                point_fraction=args.point_fraction,
            ),
            seed=args.seed,
        )
    text = dump_json(instance_to_json(instance))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_compete(args) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(json.load(fh))
    records, aggregate, code = compete(config)
    if config.out:
        report_emit(records, config.out_format, config.out)
    sys.stdout.write(dump_json(aggregate))
    return code


def _cmd_fixtures(args) -> int:
    fixture = build_fixture(args.name, n=args.n, k=args.k)
    payload = instance_to_json(fixture.instance)
    payload["fixture"] = {
        "name": fixture.name,
        "opt": fixture.opt_value,
        "provenance": "asserted",
    }
    text = dump_json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncquery",
        description="Query-competitive computation over interval-uncertain data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", default="min1-witness")
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
    p.add_argument("--problem", choices=["kmin", "mst"], default="kmin")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--vertices", type=int, default=5)
    p.add_argument("--extra-edges", type=int, default=3, dest="extra_edges")
    p.add_argument("--overlap", type=float, default=0.6)
    p.add_argument("--point-fraction", type=float, default=0.0, dest="point_fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StrategyModelError, ValueError, EngineError, OracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
