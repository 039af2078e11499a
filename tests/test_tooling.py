"""The benchmark's layer tracer rebinds package functions by name; every name
it targets must still exist where it looks, or a traced run silently loses
that layer."""
import ast
import json
import runpy
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import uncquery
from uncquery.core import Area
from uncquery.engine import solve
from uncquery.harness import (
    CONFIG_TABLE, ExperimentConfig, GenParams, GraphGenParams, build_oracle,
    generate_graph_instance, generate_instance, instance_from_json, instance_to_json, main,
)
from uncquery.models import ModelSpec, UncertainInstance
from uncquery.selection import STRATEGY_NAMES, SelectionProblem, make_strategy

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
REFERENCE = ROOT / "bench" / "reference.py"

# Names a package module imports but never reads: the tracer rebinds each at
# that module, so it must stay importable there.  Each maps to its target.
TRACER_ONLY_IMPORTS = {
    "selection.order_l": ("uncquery.selection", "order_l"),
    "selection.order_u": ("uncquery.selection", "order_u"),
    "mst.validate_response": ("uncquery.mst", "validate_response"),
}


def test_tracer_targets_resolve():
    # run_path compiles the file without writing bytecode next to it.
    tracer = runpy.run_path(str(TRACER))
    missing = []
    for owner, attr, _name, _payload in tracer["TARGETS"]:
        obj = tracer["_resolve"](owner)
        if not callable(vars(obj).get(attr)):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"tracer targets not found: {missing}"


def test_bench_reference_reads_generated_and_parsed_hidden_values():
    """The benchmark's reference answers take `hidden` from a generated
    instance and from a parsed one, with len, set, indexing and sort keys,
    and agree with the answers from a plain list of the values."""
    reference = runpy.run_path(str(REFERENCE))
    kth_index, kruskal_tree = reference["kth_index"], reference["kruskal_tree"]

    def generated_and_parsed(inst):
        return inst.hidden, instance_from_json(json.loads(json.dumps(instance_to_json(inst)))).hidden

    model = ModelSpec.parse("OP-P")
    made = generate_instance(GenParams(n=30, model=model, k=7), 3)
    plain = list(made.hidden)
    for hidden in generated_and_parsed(made):
        for objective in ("kmin", "kmax"):
            assert kth_index(hidden, 7, objective) == kth_index(plain, 7, objective)
    graph = generate_graph_instance(GraphGenParams(vertices=8, extra_edges=6, model=model), 3)
    vertices, edges, plain = graph.problem.vertices, graph.problem.edges, list(graph.hidden)
    for hidden in generated_and_parsed(graph):
        assert kruskal_tree(vertices, edges, hidden) == kruskal_tree(vertices, edges, plain)


def _package_reads(tree) -> set:
    """The dotted names a bench file reads off the package, which it binds to
    `uq`: each attribute chain rooted at `uq`, and each `getattr` of such a
    chain by a string constant or by a name a comprehension takes from a
    tuple of them."""
    def chain(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return ".".join(reversed(parts)) if isinstance(node, ast.Name) and node.id == "uq" else None

    reads = {chain(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            continue
        bound = {gen.target.id: [e.value for e in gen.iter.elts] for gen in scope.generators
                 if isinstance(gen.target, ast.Name) and isinstance(gen.iter, ast.Tuple)
                 and all(isinstance(e, ast.Constant) for e in gen.iter.elts)}
        for call in ast.walk(scope):
            if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                    and isinstance(call.args[1], ast.Name) and chain(call.args[0]) is not None):
                reads |= {f"{chain(call.args[0])}.{name}"
                          for name in bound.get(call.args[1].id, ())}
    reads |= {
        f"{chain(call.args[0])}.{call.args[1].value}" for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
        and isinstance(call.args[1], ast.Constant) and chain(call.args[0]) is not None
    }
    return reads - {None}


def test_every_package_attribute_the_benchmark_reads_exists():
    """Each name a bench/ file reads off the package, such as `uq.GenParams`
    or `uq.selection.order_l`, resolves on it: deleting one from src/ would
    break the benchmark, which runs outside the test suite."""
    reads = {
        f"{path.name}: {name}"
        for path in sorted((ROOT / "bench").glob("*.py"))
        for name in _package_reads(ast.parse(path.read_text()))
    }
    missing = []
    for read in sorted(reads):
        obj = uncquery
        try:
            for part in read.split(": ")[1].split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(read)
    assert len(reads) > 20 and not missing, f"bench reads names the package lacks: {missing}"


def test_every_import_is_used_or_a_tracer_target():
    """Every name a package module other than __init__ imports is read in
    that module, except the tracer-only imports, each of which the tracer
    still targets."""
    unused = set()
    for path in sorted((ROOT / "src" / "uncquery").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in imported - read}
    assert unused == set(TRACER_ONLY_IMPORTS)
    targets = {(owner, attr) for owner, attr, _, _ in runpy.run_path(str(TRACER))["TARGETS"]}
    assert set(TRACER_ONLY_IMPORTS.values()) <= targets


def test_no_module_reaches_into_another_modules_private_names():
    """No package module imports a `_private` name from another package
    module, or reads a `_private` attribute of a name it imported from one:
    a private name is used only where it is defined."""
    reached = []
    for path in sorted((ROOT / "src" / "uncquery").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "uncquery"):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        reached.append(f"{path.stem} imports {alias.name}")
                    imported.add(alias.asname or alias.name)
        reached += [
            f"{path.stem} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ]
    assert not reached, reached


def test_opt_reference_imports_only_core_and_oracles():
    """The brute-force OPT is the reference every competitive bound is
    checked against, so it reads nothing of a verifier's or a chooser's
    internals: of the package it imports `core` and `oracles` alone, and
    gets its verifier as an argument."""
    tree = ast.parse((ROOT / "src" / "uncquery" / "optbrute.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules.add(node.module or ".")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("uncquery"):
            modules.add(node.module.removeprefix("uncquery."))
        elif isinstance(node, ast.Import):
            modules |= {a.name.removeprefix("uncquery.") for a in node.names
                        if a.name.split(".")[0] == "uncquery"}
    assert modules == {"core", "oracles"}, modules


def _defined(node) -> list:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_public_name_is_read_exported_or_traced():
    """Every public module-level name of a package module is read somewhere
    in src/, exported by the package, or rebound by the tracer: a name that
    none of these reaches is code that nothing needs."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "uncquery").glob("*.py"))
    }
    read = {
        node.id for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = {
        alias.asname or alias.name for node in ast.walk(trees.pop("__init__"))
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    traced = {
        f"{owner}.{attr}" for owner, attr, _, _ in runpy.run_path(str(TRACER))["TARGETS"]
    }
    unreached = {
        f"{stem}.{name}"
        for stem, tree in trees.items() for node in tree.body for name in _defined(node)
        if not name.startswith("_") and name not in read | exported
        and f"uncquery.{stem}.{name}" not in traced
    }
    assert not unreached, f"public names nothing reads: {sorted(unreached)}"


def test_config_table_sets_every_config_field_once():
    """Each ExperimentConfig field is set by exactly one key of a compete
    config, and no key names anything else."""
    set_by = sorted(name for name, _ in CONFIG_TABLE.values())
    assert set_by == sorted(f.name for f in fields(ExperimentConfig))


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


def test_tracer_sees_the_cli_solve_layers(tmp_path, capsys):
    """`uncquery solve` parses, solves and emits through the harness names
    the tracer rebinds: `solve` for a selection instance, `umst_solve` for a
    graph, both looked up on the harness module at each call."""
    sel, graph = tmp_path / "sel.json", tmp_path / "graph.json"
    assert main(["gen", "--model", "OP-P", "--n", "5", "--k", "2", "--seed", "3",
                 "--out", str(sel)]) == 0
    assert main(["gen", "--model", "OC-OC", "--problem", "mst", "--vertices", "5",
                 "--seed", "3", "--out", str(graph)]) == 0
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    tracer.install()
    try:
        spans = {}
        for path in (sel, graph):
            start = len(tracer.kind)
            assert main(["solve", "--instance", str(path)]) == 0
            spans[path] = {tracer.names[k] for k in tracer.kind[start:]}
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for path in (sel, graph):
        assert {"harness.parse", "harness.emit"} <= spans[path], path
    assert "engine.solve" in spans[sel]
    assert "mst.solve" in spans[graph]


def test_tracer_times_every_oracle_call_of_the_opt_search():
    """The OPT search asks the oracle only through `response_chain`, which
    the tracer times as `optbrute.chain`: every `respond` span of the search
    sits inside a chain span, and there are as many as the chain entries the
    search built, one per index and level for halving reveals."""
    inst = generate_instance(GenParams(n=5, model=ModelSpec.parse("OC-OC"), k=2), 3)
    oracle = build_oracle("ground:halve", inst)
    verifier = make_strategy("kmin-witness", inst.problem).verifier
    tracer = runpy.run_path(str(TRACER))["Tracer"]()
    tracer.install()
    try:
        result = uncquery.opt_value(list(inst.areas), oracle, verifier, 10)
    finally:
        tracer.uninstall()
    names = [tracer.names[k] for k in tracer.kind]
    assert result.opt and names.count("optbrute.opt") == 1
    chains = {i for i, name in enumerate(names) if name == "optbrute.chain"}
    responds = [i for i, name in enumerate(names) if name == "oracles.respond"]
    assert chains and all(tracer.parent[i] in chains for i in responds)
    assert len(responds) == len(inst.areas) * result.opt


def _counting(verifier, calls):
    def verify(areas):
        calls.append(1)
        return verifier(areas)

    return verify


def test_tracer_sees_every_verifier_call_of_the_opt_search():
    """Every vector the OPT search verifies is one `selection.verify` or
    `mst.pass` span directly under `optbrute.opt`, whether the verifier is
    a bare `kmin_verifier`, a strategy's patched one or `mst_verifier`: the
    benchmark's `optbrute.vectors_visited` counts these spans."""
    # Selection seed 2 (n = 7, k = 3) and graph seed 22 give OPT = 5 and 4,
    # so the search walks level 1 as index subsets and the levels past it as
    # count vectors, all with their images, and verifies 39 and 28 of them
    # past the skips.
    sel = generate_instance(GenParams(n=7, model=ModelSpec.parse("OC-OC"), k=3), 2)
    graph = generate_graph_instance(
        GraphGenParams(vertices=4, extra_edges=3, model=ModelSpec.parse("OC-OC")), 22
    )
    k = sel.problem.k
    cases = [
        (sel, lambda areas: uncquery.kmin_verifier(areas, k), "selection.verify"),
        (sel, make_strategy("kmin-witness", sel.problem).verifier, "selection.verify"),
        (graph, uncquery.mst_verifier(graph.problem), "mst.pass"),
    ]
    module = runpy.run_path(str(TRACER))
    tracer = module["Tracer"]()
    for instance, verifier, span in cases:
        calls = []
        start = len(tracer.kind)
        tracer.install()
        try:
            uncquery.opt_value(list(instance.areas), build_oracle("ground:halve", instance),
                               _counting(verifier, calls), 6)
        finally:
            tracer.uninstall()
        names = [tracer.names[kind] for kind in tracer.kind[start:]]
        assert names.count("optbrute.opt") == 1, span
        opt = start + names.index("optbrute.opt")
        under = [i for i in range(opt + 1, len(tracer.kind)) if tracer.parent[i] == opt]
        verified = [i for i in under if tracer.names[tracer.kind[i]] in module["VERIFIER_SPANS"]]
        assert len(calls) > 20 and len(verified) == len(calls), span
        assert {tracer.names[tracer.kind[i]] for i in verified} == {span}


# The modules whose code takes decisions: orders, verdicts, witness sets,
# responses and OPT.
DECISION_MODULES = ("core", "engine", "models", "selection", "mst", "oracles", "optbrute")


def test_no_floats_in_decisions():
    """The decision modules use no float literal and read the name `float`
    in one place only: `core._rank_values` presorts by float values, and its
    exact sort after that decides.  Every other comparison is on ints or
    Fractions, so a rounding can never change a verdict."""
    found = []
    for stem in DECISION_MODULES:
        tree = ast.parse((ROOT / "src" / "uncquery" / f"{stem}.py").read_text())
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{stem}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                owner = [name for name, scope in scopes if node in ast.walk(scope)]
                found.append(f"{stem}.{'.'.join(owner) or '<module>'}: float")
    assert found == ["core._rank_values: float"], found


def test_linecov_counts_code_lines_and_skips_main_blocks(tmp_path):
    """tools/linecov.py counts every line some instruction carries, nested
    code included, and leaves out the body of an `if __name__ ==
    "__main__":` block, which only a subprocess runs."""
    linecov = runpy.run_path(str(ROOT / "tools" / "linecov.py"))
    module = tmp_path / "m.py"
    module.write_text('"""Doc."""\nX = 1\n\n\ndef f():\n    return [\n        X]\n\n\n'
                      'if __name__ == "__main__":\n    f()\n    print(X)\n')
    assert linecov["executable_lines"](module) == {1, 2, 5, 6, 7, 10}


# Stands in for bench/run.py in a stub checkout: logs which side ran, and
# whether traced, then prints a line of text and canned summary and result
# lines.
STUB_RUN = '''import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
traced = " traced" if sys.argv[sys.argv.index("--trace") + 1] == "1" else ""
with open(Path(__file__).parent.parent.parent / "order.txt", "a") as fh:
    fh.write(f"{SIDE} {seed}{traced}\\n")
print("stub text line")
print(json.dumps({"fingerprint": FINGERPRINTS[seed], "queries_total": 5}))
print(json.dumps({"correct": True, "metrics": {"setup_s": {"value": SETUP, "unit": "s"},
                                               "ops_per_s": {"value": 100, "unit": "1/s"}}}))
'''


def test_bench_pairs_alternates_sides_and_flags_differing_query_logs(tmp_path):
    """tools/bench_pairs.py runs each pair's sides back to back, the parent
    first in odd pairs, keeps their lines as printed, counts the change's
    wins by the declared direction, and flags a pair whose fingerprints
    differ.  After each seed's pairs it runs each side once traced, the
    parent first, and keeps both sides' metric values.  It records each
    side's line count per `src/uncquery` module and in total."""
    for side, setup, fingerprints in (("parent", 2.0, {7: "a", 8: "a"}),
                                      ("change", 1.0, {7: "a", 8: "b"})):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(
            f"SIDE, SETUP, FINGERPRINTS = {side!r}, {setup}, {fingerprints!r}\n" + STUB_RUN)
        (tmp_path / side / "src" / "uncquery").mkdir(parents=True)
        (tmp_path / side / "src" / "uncquery" / "core.py").write_text("a = 1\nb = 2\n")
        (tmp_path / side / "src" / "uncquery" / "mst.py").write_text(
            "c = 3\n" * (4 if side == "parent" else 1))
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "stub"}],
        "end_to_end": [{"name": "setup_s", "better": "lower"},
                       {"name": "ops_per_s", "better": "higher"}]}))
    bench_pairs = runpy.run_path(str(ROOT / "tools" / "bench_pairs.py"))
    out = tmp_path / "BENCH.json"
    assert bench_pairs["main"]([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--seed", "7", "--seed", "8", "--out", str(out),
    ]) == 1

    order = (tmp_path / "order.txt").read_text().split("\n")
    assert order[:6] == [
        "parent 7", "change 7", "change 7", "parent 7", "parent 7", "change 7"]
    assert order[18:24] == ["change 7", "parent 7", "parent 7 traced", "change 7 traced",
                            "parent 8", "change 8"]
    assert order[-3:] == ["parent 8 traced", "change 8 traced", ""]
    data = json.loads(out.read_text())
    assert data["command"] == "python3 bench/run.py --workload W --seed S --trace 0"
    runs = data["runs"]
    assert [(r["seed"], r["pair"], r["first"]) for r in runs] == [
        (seed, pair, "parent" if pair % 2 else "change")
        for seed in (7, 8) for pair in range(1, 11)]
    assert json.loads(runs[0]["change_summary"]) == {"fingerprint": "a", "queries_total": 5}
    assert [bool(r["flags"]) for r in runs] == [False] * 10 + [True] * 10
    assert runs[10]["flags"] == ["fingerprint differs: parent 'a', change 'b'"]
    setup = data["summary"]["stub"]["seed 7"]["setup_s"]
    assert setup == {"better": "lower", "pairs": 10, "change_wins": 10,
                     "parent": {"q1": 2.0, "median": 2.0, "q3": 2.0},
                     "change": {"q1": 1.0, "median": 1.0, "q3": 1.0}}
    assert data["summary"]["stub"]["all seeds"]["ops_per_s"]["change_wins"] == 0
    traced = data["traced"]
    assert [(r["seed"], bool(r["flags"])) for r in traced] == [(7, False), (8, True)]
    assert traced[0]["layers"] == {"setup_s": {"parent": 2.0, "change": 1.0},
                                   "ops_per_s": {"parent": 100, "change": 100}}
    assert json.loads(traced[1]["parent_summary"]) == {"fingerprint": "a", "queries_total": 5}
    assert data["source_lines"] == {
        "parent": {"modules": {"core.py": 2, "mst.py": 4}, "total": 6},
        "change": {"modules": {"core.py": 2, "mst.py": 1}, "total": 3}}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH.json", "change", "order.txt",
                                                          "parent"]
