"""The benchmark's layer tracer rebinds package functions by name; every name
it targets must still exist where it looks, or a traced run silently loses
that layer."""
import runpy
from fractions import Fraction
from pathlib import Path

from uncquery.core import Area
from uncquery.engine import solve
from uncquery.harness import build_oracle
from uncquery.models import ModelSpec, UncertainInstance
from uncquery.selection import STRATEGY_NAMES, SelectionProblem, make_strategy

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    # run_path compiles the file without writing bytecode next to it.
    tracer = runpy.run_path(str(TRACER))
    missing = []
    for owner, attr, _name, _payload in tracer["TARGETS"]:
        obj = tracer["_resolve"](owner)
        if not callable(vars(obj).get(attr)):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"tracer targets not found: {missing}"


def test_tracer_sees_every_selection_strategy():
    """Strategies built before the tracer is installed still call the rules
    it rebinds: their closures look the rules up by name on every call."""
    instance = UncertainInstance(
        model=ModelSpec.parse("OP-P"),
        areas=(Area.open(0, 4), Area.open(1, 5), Area.open(2, 6)),
        problem=SelectionProblem(k=1),
        hidden=(Fraction(3), Fraction(2), Fraction(5, 2)),
    )
    strategies = [make_strategy(name, instance.problem) for name in STRATEGY_NAMES]
    assert len(strategies) == 7
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    tracer.install()
    try:
        for strategy in strategies:
            start = len(tracer.kind)
            solve(instance, build_oracle("ground:exact", instance), strategy, 20)
            spans = {tracer.names[k] for k in tracer.kind[start:]}
            assert {"selection.witness", "selection.verify"} <= spans, strategy.name
    finally:
        tracer.uninstall()
