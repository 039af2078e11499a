"""The three workloads: what each operation is, how its inputs are generated
from the seed, and how its result is judged.

Every workload is a closed loop, one caller in one thread: the next operation
starts only when the previous one has returned.  Inputs come from the
package's public generators, seeded from the run's seed, the generator
settings and the position in the class; the program under test sees only
those inputs.

Operations of the classes are interleaved in rounds: a round holds each class
as many times as its weight, so every whole number of rounds has the same
class mix.  The first pass over the list makes the query-log fingerprint and
`queries_total`; the traced run replays the list once.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from reference import check_solve_output, check_trial, kruskal_tree, kth_index


@dataclass(frozen=True)
class SelectClass:
    strategy: str
    model: str
    oracle: str
    n: int
    k: int
    overlap: float
    weight: int
    objective: str = "kmin"
    point_fraction: float = 0.0

    @property
    def label(self) -> str:
        return (f"{self.strategy}/{self.model}/{self.oracle}/n{self.n}/k{self.k}/"
                f"ov{self.overlap}/{self.objective}")

    @property
    def generator_key(self) -> tuple:
        return ("select", self.model, self.n, self.k, self.overlap, self.objective,
                self.point_fraction)


@dataclass(frozen=True)
class GraphClass:
    model: str
    oracle: str
    vertices: int
    extra_edges: int
    overlap: float
    weight: int
    strategy: str = "umst"

    @property
    def label(self) -> str:
        return (f"umst/{self.model}/{self.oracle}/V{self.vertices}/"
                f"+{self.extra_edges}/ov{self.overlap}")

    @property
    def generator_key(self) -> tuple:
        return ("graph", self.model, self.vertices, self.extra_edges, self.overlap)


@dataclass(frozen=True)
class SolveOp:
    """One `uncquery solve` on an instance file."""

    label: str
    argv: tuple
    expected: object  # 0-based answer index, or frozenset of 0-based edges


@dataclass(frozen=True)
class TrialOp:
    """One competition trial: solve, brute-force OPT, bound check."""

    label: str
    strategy: str
    instance: object
    oracle: str
    k: int
    expected: object


@dataclass
class Outcome:
    error: Optional[str]
    queries: int
    log: list


EXACT = "ground:exact"
HALVE = "ground:halve:1/2"

_K = "kmax"
# Classes with equal generator settings share their inputs, so one generated
# instance serves several strategies and set-up stays short.
SELECT_SCALE = (
    # k = 1: the witness chooser is two heads of one sort; the verifier's
    # full sort and JSON parsing dominate.
    SelectClass("min1-witness", "OP-P", EXACT, 1600, 1, 0.98, 1),
    SelectClass("min1-bypass", "OP-P", EXACT, 1600, 1, 0.98, 1),
    SelectClass("min1-lex", "OP-OP", HALVE, 800, 1, 0.6, 1),
    SelectClass("opop-alternate", "OP-OP", HALVE, 800, 1, 0.6, 1),
    SelectClass("min1-witness", "OP-O", HALVE, 400, 1, 0.98, 1, objective=_K),
    # k = n/10.
    SelectClass("kmin-witness", "OP-O", HALVE, 400, 40, 0.6, 1),
    SelectClass("kmin-lex", "OP-O", HALVE, 400, 40, 0.6, 1),
    SelectClass("kmin-bypass", "OP-P", EXACT, 200, 20, 0.98, 1),
    SelectClass("opop-alternate", "OP-OP", HALVE, 200, 20, 0.98, 1),
    # k = n/2: the all-pairs separation test of the k-Min choosers.
    SelectClass("kmin-witness", "OP-O", HALVE, 200, 100, 0.98, 1),
    SelectClass("kmin-lex", "OP-P", EXACT, 200, 100, 0.98, 1),
    SelectClass("kmin-bypass", "OP-P", EXACT, 400, 200, 0.6, 1, objective=_K),
    SelectClass("kmin-witness", "OP-P", EXACT, 400, 200, 0.6, 1, objective=_K),
)

MST_SCALE = (
    GraphClass("OC-OC", HALVE, 80, 160, 0.98, 1),
    GraphClass("OC-OC", HALVE, 130, 260, 0.9, 1),
    GraphClass("OC-OC", HALVE, 200, 400, 0.9, 1),
    GraphClass("OCP-P", EXACT, 80, 160, 0.98, 1),
    GraphClass("OCP-P", EXACT, 130, 260, 0.98, 1),
    GraphClass("OCP-P", EXACT, 200, 400, 0.9, 1),
)

COMPETE_DESK = (
    # OP-P with exact reveals: every strategy, n = 6..8.
    SelectClass("min1-witness", "OP-P", EXACT, 8, 1, 0.7, 20, point_fraction=0.2),
    SelectClass("kmin-witness", "OP-P", EXACT, 8, 3, 0.7, 20, point_fraction=0.2),
    SelectClass("min1-bypass", "OP-P", EXACT, 7, 1, 0.7, 20, point_fraction=0.2),
    SelectClass("kmin-bypass", "OP-P", EXACT, 8, 4, 0.7, 20, point_fraction=0.2),
    SelectClass("min1-lex", "OP-P", EXACT, 6, 1, 0.7, 20, point_fraction=0.2),
    SelectClass("kmin-lex", "OP-P", EXACT, 7, 2, 0.7, 20, point_fraction=0.2),
    SelectClass("opop-alternate", "OP-P", EXACT, 8, 2, 0.7, 20, point_fraction=0.2),
    # Spanning trees with exact reveals, at most 9 edges.
    GraphClass("OCP-P", EXACT, 6, 4, 0.9, 12),
    GraphClass("OCP-P", EXACT, 5, 4, 0.6, 12),
    # Interval returns by halving.  OPT search cost grows steeply with OPT,
    # so these heavy-tailed classes stay at n = 4 and get a small share of
    # the operations; at n = 5 single trials took up to half a second.
    SelectClass("kmin-witness", "OP-O", HALVE, 4, 2, 0.6, 1),
    SelectClass("min1-lex", "OP-O", HALVE, 4, 1, 0.6, 1),
    SelectClass("opop-alternate", "OP-OP", HALVE, 4, 2, 0.6, 1),
    SelectClass("min1-witness", "OP-OP", HALVE, 4, 1, 0.6, 1),
    GraphClass("OC-OC", HALVE, 4, 1, 0.6, 1),
)


def _instance_seed(workload: str, seed: int, key: tuple) -> int:
    text = repr((workload, seed, key)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:6], "big")


def _interleave(classes, rounds: int) -> list:
    """(class index, position) pairs spread evenly: class c appears
    weight_c times per round, at evenly spaced points of the list."""
    slots = []
    for ci, cls in enumerate(classes):
        for j in range(cls.weight * rounds):
            slots.append(((j + 0.5) / cls.weight, ci, j))
    slots.sort()
    return [(ci, j) for _, ci, j in slots]


def _generate(uq, cls, instance_seed: int):
    model = uq.ModelSpec.parse(cls.model)
    if isinstance(cls, GraphClass):
        params = uq.GraphGenParams(
            vertices=cls.vertices, extra_edges=cls.extra_edges, model=model,
            overlap=cls.overlap,
        )
        inst = uq.generate_graph_instance(params, instance_seed)
        graph = inst.problem
        return inst, kruskal_tree(graph.vertices, graph.edges, inst.hidden)
    params = uq.GenParams(
        n=cls.n, model=model, k=cls.k, overlap=cls.overlap,
        point_fraction=cls.point_fraction,
    )
    inst = uq.generate_instance(params, instance_seed)
    return inst, kth_index(inst.hidden, cls.k, cls.objective)


def _inputs(workload, uq, seed: int):
    """(class, input key, instance, expected answer) for every operation, in
    list order; each distinct input is generated once."""
    cache = {}
    for ci, j in _interleave(workload.classes, workload.rounds):
        cls = workload.classes[ci]
        key = (cls.generator_key, j)
        if key not in cache:
            cache[key] = _generate(uq, cls, _instance_seed(workload.name, seed, key))
        yield (cls, key) + cache[key]


class Workload:
    """A named class mix; the operation list holds `rounds` rounds."""

    def __init__(self, name: str, classes, rounds: int):
        self.name = name
        self.classes = classes
        self.rounds = rounds

    @property
    def round_size(self) -> int:
        return sum(cls.weight for cls in self.classes)

    def build(self, uq, seed: int, workdir, tick=lambda: None) -> list:
        """The operation list; `tick` is called after each operation is
        made, so that a caller can interleave its own work."""
        raise NotImplementedError

    def execute(self, uq, cli, op):
        """The timed part of one operation; returns what `judge` needs."""
        raise NotImplementedError

    def judge(self, op, raw) -> Outcome:
        raise NotImplementedError


class ScaleWorkload(Workload):
    """Each operation is one in-process `uncquery solve` on an instance file
    written during set-up, with stdout captured."""

    def build(self, uq, seed: int, workdir, tick=lambda: None) -> list:
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        paths = {}
        for cls, key, inst, expected in _inputs(self, uq, seed):
            path = paths.get(key)
            if path is None:
                data = uq.instance_to_json(inst)
                if isinstance(cls, SelectClass):
                    data["problem"]["objective"] = cls.objective
                path = paths[key] = workdir / f"in{len(paths):04d}.json"
                path.write_text(json.dumps(data, sort_keys=True) + "\n")
            argv = ("solve", "--instance", str(path), "--algorithm", cls.strategy,
                    "--oracle", cls.oracle)
            ops.append(SolveOp(cls.label, argv, expected))
            tick()
        return ops

    def execute(self, uq, cli, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli(list(op.argv))
            except Exception as exc:  # an op that raises counts as failed
                return None, "", f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue(), err.getvalue()

    def judge(self, op, raw) -> Outcome:
        rc, out, err = raw
        if rc is None:
            return Outcome(err, 0, [])
        try:
            data = json.loads(out)
        except json.JSONDecodeError:
            data = None
        error = check_solve_output(rc, data, op.expected)
        if error and err:
            error = f"{error}: {err.strip()}"
        if data is None:
            return Outcome(error, 0, [])
        return Outcome(error, data.get("total", 0), data.get("queries", []))


class TrialWorkload(Workload):
    """Each operation is one competition trial built from public calls: the
    algorithm against a ground-truth oracle, then the brute-force OPT with the
    problem's verifier on the same responses, then the paper's bound."""

    def build(self, uq, seed: int, workdir, tick=lambda: None) -> list:
        ops = []
        for cls, _key, inst, expected in _inputs(self, uq, seed):
            ops.append(TrialOp(cls.label, cls.strategy, inst, cls.oracle,
                               getattr(cls, "k", 1), expected))
            tick()
        return ops

    def execute(self, uq, cli, op):
        inst = op.instance
        n = len(inst.areas)
        if op.oracle == EXACT:
            oracle = uq.GroundTruthOracle.for_instance(inst, uq.ExactPolicy())
            # Exact reveals query an index at most once.
            max_total = 2 * n
        else:
            oracle = uq.GroundTruthOracle.for_instance(inst, uq.HalvePolicy(Fraction(1, 2)))
            # Halving never reaches a point; leave the search ample room.
            max_total = 8 * n
        budget = uq.default_budget(n)
        try:
            if op.strategy == "umst":
                report, answer = uq.umst_solve(inst, oracle.fork(), budget)
                got = None if answer is None else answer.tree
                verifier = uq.mst_verifier(inst.problem)
            else:
                problem = inst.problem
                strategy = uq.make_strategy(op.strategy, problem)
                report = uq.solve(inst, oracle.fork(), strategy, budget)
                got = report.answer
                tie = uq.TieRule.LEX if op.strategy.endswith("-lex") else problem.tie_rule
                k = problem.k
                verifier = lambda areas: uq.kmin_verifier(areas, k, tie)  # noqa: E731
            opt = uq.opt_value(list(inst.areas), oracle, verifier, max_total).opt
        except Exception as exc:  # an op that raises counts as failed
            return f"{type(exc).__name__}: {exc}"
        return report, got, opt, n

    def judge(self, op, raw) -> Outcome:
        if isinstance(raw, str):
            return Outcome(raw, 0, [])
        report, got, opt, n = raw
        solved = report.status.value == "solved"
        error = check_trial(op.strategy, solved, got == op.expected, report.total, opt, op.k, n)
        log = [[i + 1, area.to_json()] for i, area in report.query_log]
        return Outcome(error, report.total, log)


# bench/README.md records why each workload was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        ScaleWorkload("select-scale", SELECT_SCALE, rounds=14),
        ScaleWorkload("mst-scale", MST_SCALE, rounds=20),
        TrialWorkload("compete-desk", COMPETE_DESK, rounds=20),
    )
}
