"""The benchmark's layer tracer rebinds package functions by name; every name
it targets must still exist where it looks, or a traced run silently loses
that layer."""
import runpy
from pathlib import Path

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
