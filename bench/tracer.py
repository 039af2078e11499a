"""Layer spans recorded from outside the package.

The tracer rebinds public functions at the names through which they are looked
up (a module global, a package attribute, or a class attribute) with a wrapper
that records one span per call: name, start, end, parent and one integer of
payload.  Nothing inside the package changes, so calls a module makes to its
own helpers through a local reference stay invisible; `surely_leq` and the
`Fraction` operators are deliberately left alone, because wrapping millions of
sub-microsecond calls would measure the wrapper instead of the code.

Spans are kept in flat arrays while the run is timed and written out as JSONL
afterwards.
"""
from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


def _count(result) -> int:
    return len(result)


def _hit(result) -> int:
    return 0 if result is None else 1


# (owner, attribute, span name, payload).  The owner is a module or
# "module:Class".  A function bound under several names gets the same span
# name at each of them.
TARGETS = (
    ("uncquery.selection", "order_l", "core.order", _count),
    ("uncquery.selection", "order_u", "core.order", _count),
    ("uncquery.selection", "kmin_verifier", "selection.verify", _hit),
    ("uncquery", "kmin_verifier", "selection.verify", _hit),
    ("uncquery.selection", "kmin_witness", "selection.witness", None),
    ("uncquery.selection", "kmin_bypass_witness", "selection.witness", None),
    ("uncquery.selection", "min1_witness", "selection.witness", None),
    ("uncquery.selection", "min1_bypass_witness", "selection.witness", None),
    ("uncquery.engine", "validate_response", "models.validate", None),
    ("uncquery.mst", "validate_response", "models.validate", None),
    ("uncquery.mst", "mst_pass", "mst.pass", None),
    ("uncquery.optbrute", "response_chain", "optbrute.chain", None),
    ("uncquery.oracles:GroundTruthOracle", "respond", "oracles.respond", None),
    ("uncquery.harness", "instance_from_json", "harness.parse", None),
    ("uncquery.harness", "dump_json", "harness.emit", None),
    # Entry points the CLI or the benchmark itself calls into.
    ("uncquery.harness", "solve", "engine.solve", None),
    ("uncquery", "solve", "engine.solve", None),
    ("uncquery.harness", "umst_solve", "mst.solve", None),
    ("uncquery", "umst_solve", "mst.solve", None),
    ("uncquery", "opt_value", "optbrute.opt", None),
    ("uncquery", "generate_instance", "harness.gen", None),
    ("uncquery", "generate_graph_instance", "harness.gen", None),
)

VERIFIER_SPANS = ("selection.verify", "mst.pass")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Span recorder; `install` rebinds the targets, `uninstall` restores
    them.  Spans accumulate across installs until the tracer is dropped."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.kind = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.value = array("q")
        self._stack: list = []
        self._undo: list = []
        self.missing: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.kind)
        self.kind.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name_id: int, payload):
        open_, close, value = self._open, self._close, self.value

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if payload is not None:
                value[idx] = payload(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for owner, attr, name, payload in TARGETS:
            try:
                obj = _resolve(owner)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            own = vars(obj)
            if attr not in own:
                self.missing.append(f"{owner}.{attr}")
                continue
            self._undo.append((obj, attr, own[attr]))
            setattr(obj, attr, self._wrap(own[attr], self._name_id(name), payload))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.kind)):
                fh.write(
                    f'{{"id": {i}, "name": "{self.names[self.kind[i]]}", '
                    f'"start_ns": {self.start[i]}, "end_ns": {self.end[i]}, '
                    f'"parent": {self.parent[i]}, "value": {self.value[i]}}}\n'
                )

    def layer_metrics(self) -> dict:
        """Per-layer counts and times, in the units BENCHMARK.json declares.

        `*_ms` is inclusive time in that layer's spans; `self_ms` subtracts
        the time covered by child spans.  A witness chooser called from
        another witness chooser counts once, at the outer call.
        """
        n = len(self.kind)
        names = [self.names[k] for k in self.kind]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        payload = defaultdict(int)
        under = defaultdict(int)  # (name, parent name) -> calls
        for i in range(n):
            name = names[i]
            p = self.parent[i]
            pname = names[p] if p >= 0 else None
            if name == "selection.witness" and pname == "selection.witness":
                continue
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            payload[name] += self.value[i]
            under[name, pname] += 1

        def ms(ns: int) -> float:
            return ns / 1e6

        def ratio(a, b) -> float:
            return a / b if b else 0.0

        visited = sum(under[v, "optbrute.opt"] for v in VERIFIER_SPANS)
        return {
            "core.order_calls": (calls["core.order"], "count"),
            "core.order_items": (payload["core.order"], "count"),
            "core.order_ms": (ms(total["core.order"]), "ms"),
            "selection.verify_calls": (calls["selection.verify"], "count"),
            "selection.verify_ms": (ms(total["selection.verify"]), "ms"),
            "selection.verify_hit_ratio": (
                ratio(payload["selection.verify"], calls["selection.verify"]), "ratio"),
            "selection.witness_calls": (calls["selection.witness"], "count"),
            "selection.witness_ms": (ms(total["selection.witness"]), "ms"),
            "engine.iterations": (under["selection.witness", "engine.solve"], "count"),
            "engine.solve_ms": (ms(total["engine.solve"]), "ms"),
            "engine.self_ms": (ms(own["engine.solve"]), "ms"),
            "oracles.respond_calls": (calls["oracles.respond"], "count"),
            "oracles.respond_ms": (ms(total["oracles.respond"]), "ms"),
            "optbrute.chain_ms": (ms(total["optbrute.chain"]), "ms"),
            "models.validate_calls": (calls["models.validate"], "count"),
            "models.validate_ms": (ms(total["models.validate"]), "ms"),
            "mst.pass_calls": (calls["mst.pass"], "count"),
            "mst.pass_ms": (ms(total["mst.pass"]), "ms"),
            "mst.passes_per_solve": (
                ratio(under["mst.pass", "mst.solve"], calls["mst.solve"]), "count"),
            "mst.solve_self_ms": (ms(own["mst.solve"]), "ms"),
            "optbrute.opt_ms": (ms(total["optbrute.opt"]), "ms"),
            "optbrute.vectors_visited": (visited, "count"),
            "optbrute.vectors_per_s": (ratio(visited, total["optbrute.opt"] / 1e9), "1/s"),
            "harness.parse_ms": (ms(total["harness.parse"]), "ms"),
            "harness.emit_ms": (ms(total["harness.emit"]), "ms"),
            "harness.gen_ms": (ms(total["harness.gen"]), "ms"),
        }
