"""Generators, instance JSON, competitions, reports, and the CLI."""
import json
from fractions import Fraction

import pytest

from helpers import reference_umst
from uncquery.core import Area, TieRule
from uncquery.engine import default_budget, solve
from uncquery.harness import (
    ConfigError,
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    ExperimentConfig,
    GenParams,
    GraphGenParams,
    TrialRecord,
    build_oracle,
    compete,
    dump_json,
    generate_graph_instance,
    generate_instance,
    instance_from_json,
    instance_to_json,
    main,
    records_from_csv,
    report_emit,
    run_trial,
    trial_instance,
)
from uncquery.models import ModelSpec, UncertainInstance, Violation, validate_instance
from uncquery.mst import UncertainGraph
from uncquery.selection import Objective, SelectionProblem, make_strategy
from uncquery.core import surely_leq


OPP = ModelSpec.parse("OP-P")


class TestGenerateInstance:
    def test_deterministic(self):
        a = generate_instance(GenParams(n=3, model=OPP), 7)
        b = generate_instance(GenParams(n=3, model=OPP), 7)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_instance(GenParams(n=5, model=OPP), 1)
        b = generate_instance(GenParams(n=5, model=OPP), 2)
        assert a != b

    def test_valid_and_hidden_distinct(self):
        for seed in range(20):
            inst = generate_instance(
                GenParams(n=6, model=OPP, point_fraction=0.3), seed
            )
            assert validate_instance(inst) == []
            assert len(set(inst.hidden)) == len(inst.hidden)

    def test_point_fraction_zero_all_open(self):
        inst = generate_instance(GenParams(n=6, model=ModelSpec.parse("O-O")), 3)
        assert all(not a.is_point for a in inst.areas)

    def test_point_fraction_needs_p(self):
        with pytest.raises(ConfigError):
            generate_instance(
                GenParams(n=3, model=ModelSpec.parse("O-O"), point_fraction=0.5), 0
            )

    def test_zero_overlap_pairwise_ordered(self):
        inst = generate_instance(
            GenParams(n=5, model=ModelSpec.parse("O-O"), overlap=0.0), 4
        )
        for i in range(4):
            assert surely_leq(inst.areas[i], inst.areas[i + 1])


class TestGenerateGraphInstance:
    def test_connected_and_valid(self):
        for seed in range(10):
            inst = generate_graph_instance(
                GraphGenParams(vertices=5, extra_edges=3, model=ModelSpec.parse("OC-OC")),
                seed,
            )
            assert isinstance(inst.problem, UncertainGraph)
            assert inst.problem.is_connected()
            assert validate_instance(inst) == []

    def test_deterministic(self):
        p = GraphGenParams(vertices=4, extra_edges=2, model=ModelSpec.parse("OC-OC"))
        assert generate_graph_instance(p, 5) == generate_graph_instance(p, 5)


class TestInstanceJson:
    def test_kmin_round_trip(self):
        inst = generate_instance(GenParams(n=4, model=OPP, point_fraction=0.25), 9)
        again = instance_from_json(json.loads(dump_json(instance_to_json(inst))))
        assert again == inst

    def test_mst_round_trip(self):
        inst = generate_graph_instance(
            GraphGenParams(vertices=4, extra_edges=2, model=ModelSpec.parse("OC-OC")), 2
        )
        again = instance_from_json(json.loads(dump_json(instance_to_json(inst))))
        assert again == inst

    def test_graph_style_inline_weights_accepted(self):
        data = {
            "model": {"input": "OC", "returns": "OC"},
            "problem": {
                "type": "mst",
                "vertices": 2,
                "edges": [{"u": 0, "v": 1, "weight": {"kind": "open", "lo": "1", "hi": "2"}}],
            },
        }
        inst = instance_from_json(data)
        assert inst.areas == (Area.open(1, 2),)

    def test_non_canonical_endpoint_texts(self):
        # Each distinct endpoint text is parsed once and its Fraction shared;
        # the instance must equal the one read text by text.
        data = {
            "model": {"input": "OC", "returns": "OC"},
            "problem": {"type": "kmin", "k": 1},
            "areas": [
                {"kind": "closed", "lo": "2/4", "hi": " 1 "},
                {"kind": "open", "lo": "0.5", "hi": "1e3"},
                {"kind": "closed", "lo": "1/2", "hi": "1000/1"},
                {"kind": "open", "lo": " 1 ", "hi": "1e3"},
                {"kind": "closed", "lo": "1", "hi": "1e3"},
            ],
            "hidden": ["2/4", "1/2", "1e3", "3", " 1 "],
        }
        inst = instance_from_json(data)
        half, one, thousand = Fraction(1, 2), Fraction(1), Fraction(1000)
        assert inst.areas == (
            Area.closed(half, one), Area.open(half, thousand), Area.closed(half, thousand),
            Area.open(one, thousand), Area.closed(one, thousand),
        )
        assert inst.areas == tuple(Area.from_json(a) for a in data["areas"])
        assert inst.hidden == (half, half, thousand, Fraction(3), one)
        assert all(type(v) is Fraction for a in inst.areas for v in (a.lo, a.hi))
        assert validate_instance(inst) == [
            Violation(1, "hidden value 1/2 outside area (1/2, 1000)")
        ]


class TestBuildOracle:
    def test_specs(self):
        inst = generate_instance(GenParams(n=3, model=OPP), 0)
        from uncquery.oracles import ExactPolicy, HalvePolicy

        assert isinstance(build_oracle("ground:exact", inst).policy, ExactPolicy)
        halve = build_oracle("ground:halve:1/4", inst)
        from fractions import Fraction

        assert halve.policy.shrink == Fraction(1, 4)
        with pytest.raises(ConfigError):
            build_oracle("nope", inst)


class TestReports:
    def _records(self):
        return [
            TrialRecord(0, "min1-witness", "OP-P", 5, 1, 2, 1, "ok"),
            TrialRecord(1, "min1-witness", "OP-P", 5, 1, 0, 0, "ok"),
            TrialRecord(2, "min1-witness", "OP-P", 5, 1, 3, None, "opt-unbounded"),
        ]

    def test_header_only_csv(self):
        assert report_emit([], "csv").strip().count("\n") == 0

    def test_csv_round_trip(self):
        recs = self._records()
        text = report_emit(recs, "csv")
        again = records_from_csv(text)
        assert [r.to_json() for r in again] == [r.to_json() for r in recs]

    def test_json_mirror(self):
        recs = self._records()
        data = json.loads(report_emit(recs, "json"))
        assert data["records"][0]["ratio"] == 2.0
        assert data["records"][2]["opt"] is None

    def test_byte_stability(self):
        recs = self._records()
        assert report_emit(recs, "csv") == report_emit(recs, "csv")
        assert report_emit(recs, "json") == report_emit(recs, "json")


class TestCompete:
    def test_ground_truth_run(self):
        cfg = ExperimentConfig(
            algorithm="min1-witness", model=OPP, oracle="ground:exact",
            trials=5, seed=3, n=5, point_fraction=0.2,
        )
        records, aggregate, code = compete(cfg)
        assert code == EXIT_OK and aggregate["violations"] == 0
        assert len(records) == 5

    def test_adversary_run(self):
        cfg = ExperimentConfig(
            algorithm="min1-witness", model=ModelSpec.parse("O-O"),
            oracle="adversary:min-tight", trials=2, n=3,
        )
        records, aggregate, code = compete(cfg)
        assert aggregate["max_ratio"] == 2.0
        assert all(r.queries == 6 and r.opt == 3 for r in records)

    def test_determinism(self):
        cfg = lambda: ExperimentConfig(
            algorithm="min1-bypass", model=OPP, oracle="ground:exact",
            trials=6, seed=11, n=5, point_fraction=0.2,
        )
        a = report_emit(compete(cfg())[0], "csv")
        b = report_emit(compete(cfg())[0], "csv")
        assert a == b

    def test_invalid_algorithm_rejected(self):
        cfg = ExperimentConfig(algorithm="nope", model=OPP)
        with pytest.raises(ConfigError):
            compete(cfg)

    def test_trial_instances_seeded_by_string(self):
        # Trial t of a run seeded s solves the generator's instance for the
        # seed string "s:t".
        cfg = ExperimentConfig(
            algorithm="kmin-witness", model=OPP, oracle="ground:exact",
            seed=5, n=5, k=2, point_fraction=0.2,
        )
        params = GenParams(n=5, model=OPP, k=2, point_fraction=0.2)
        for t in range(4):
            inst = generate_instance(params, f"5:{t}")
            assert trial_instance(cfg, t) == inst
            report = solve(
                inst, build_oracle("ground:exact", inst),
                make_strategy("kmin-witness", inst.problem), default_budget(5),
            )
            assert run_trial(cfg, t).queries == report.total
        graph_cfg = ExperimentConfig(
            algorithm="umst", model=ModelSpec.parse("OC-OC"), problem_type="mst",
            seed=5, vertices=5, extra_edges=3,
        )
        graph_params = GraphGenParams(vertices=5, extra_edges=3, model=ModelSpec.parse("OC-OC"))
        assert trial_instance(graph_cfg, 2) == generate_graph_instance(graph_params, "5:2")

    def test_bypass_requires_opp(self):
        cfg = ExperimentConfig(algorithm="min1-bypass", model=ModelSpec.parse("O-O"))
        with pytest.raises(ConfigError):
            compete(cfg)


class TestCli:
    def test_gen_solve_opt(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert main([
            "gen", "--model", "OP-P", "--n", "4", "--point-fraction", "0.25",
            "--seed", "3", "--out", str(inst_path),
        ]) == EXIT_OK
        assert main([
            "solve", "--instance", str(inst_path), "--algorithm", "min1-witness",
            "--oracle", "ground:exact",
        ]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "solved"
        assert main([
            "opt", "--instance", str(inst_path), "--oracle", "ground:exact",
        ]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["opt"] <= payload["total"]

    def test_fixtures_and_compete(self, tmp_path, capsys):
        assert main(["fixtures", "--name", "min-tight", "--n", "2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["fixture"]["opt"] == 2
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "rep.csv"
        cfg_path.write_text(json.dumps({
            "algorithm": "min1-witness", "model": "OP-P", "oracle": "ground:exact",
            "trials": 3, "seed": 0, "n": 4, "point_fraction": 0.2,
            "out": str(out_path),
        }))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_OK
        assert out_path.read_text().startswith("trial,algorithm")

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithm": "nope", "model": "OP-P"}))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG

    def test_bypass_refused_on_bad_model_instance(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--model", "O-O", "--n", "3", "--seed", "1", "--out", str(inst_path)])
        code = main([
            "solve", "--instance", str(inst_path), "--algorithm", "min1-bypass",
            "--oracle", "ground:halve",
        ])
        assert code == EXIT_INVALID_CONFIG

    def test_solve_with_script(self, tmp_path, capsys):
        inst = {
            "model": {"input": "C", "returns": "C"},
            "problem": {"type": "kmin", "k": 1, "tie_rule": "lex"},
            "areas": [
                {"kind": "closed", "lo": "3", "hi": "17"},
                {"kind": "closed", "lo": "14", "hi": "19"},
                {"kind": "closed", "lo": "15", "hi": "20"},
            ],
        }
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(inst))
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(
            {"responses": {"1": [{"kind": "closed", "lo": "8", "hi": "10"}]}}
        ))
        assert main([
            "solve", "--instance", str(inst_path), "--algorithm", "min1-lex",
            "--oracle", f"script:{script_path}",
        ]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 1 and payload["answer"] == 1

    def test_opt_honours_kmax(self, tmp_path, capsys):
        # The largest value is the point 50, known from the start: solve
        # answers it with no query, so OPT is 0.
        inst = UncertainInstance(
            model=OPP,
            areas=(Area.open(0, 10), Area.open(1, 3), Area.point(50)),
            problem=SelectionProblem(k=1, objective=Objective.KTH_MAX),
            hidden=(5, 2, 50),
        )
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(dump_json(instance_to_json(inst)))
        assert main(["solve", "--instance", str(inst_path), "--oracle", "ground:exact"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["answer"], payload["total"]) == (3, 0)
        assert main(["opt", "--instance", str(inst_path), "--oracle", "ground:exact"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["opt"] == 0

    def test_opt_refuses_a_search_past_the_limit(self, tmp_path, capsys):
        # 11 edges and the default max_total of 44 would mean about 1.2e11
        # count vectors; the search used to run without end.
        inst_path = tmp_path / "inst.json"
        assert main([
            "gen", "--model", "OC-OC", "--problem", "mst", "--vertices", "6",
            "--extra-edges", "6", "--seed", "1", "--out", str(inst_path),
        ]) == EXIT_OK
        code = main(["opt", "--instance", str(inst_path), "--oracle", "ground:halve"])
        assert code == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--max-total" in lines[0]
        assert main([
            "opt", "--instance", str(inst_path), "--oracle", "ground:halve", "--max-total", "3",
        ]) == EXIT_OK

    def test_solve_mst_payload(self, tmp_path, capsys):
        inst = generate_graph_instance(
            GraphGenParams(vertices=6, extra_edges=6, model=ModelSpec.parse("OC-OC")), 1
        )
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(dump_json(instance_to_json(inst)))
        assert main(["solve", "--instance", str(inst_path), "--oracle", "ground:halve"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        log, tree, red = reference_umst(
            inst, build_oracle("ground:halve", inst), default_budget(inst.n)
        )
        assert len(log) == 12 and red == 6
        assert payload["status"] == "solved" and payload["answer"] is None
        assert payload["tree"] == sorted(e + 1 for e in tree)
        assert payload["red_rule_count"] == red
        assert payload["queries"] == [[e + 1, a.to_json()] for e, a in log]
        assert payload["total"] == len(log)

    def test_missing_instance_file_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--instance", str(tmp_path / "absent.json")])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ground_oracle_without_hidden_exit_code(self, tmp_path, capsys):
        inst = generate_graph_instance(
            GraphGenParams(vertices=5, extra_edges=3, model=ModelSpec.parse("OC-OC")), 1
        )
        data = instance_to_json(inst)
        del data["hidden"]
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(data))
        code = main(["solve", "--instance", str(inst_path), "--oracle", "ground:halve"])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("breakage", [
        lambda data: data["problem"].pop("k"),
        lambda data: data.pop("model"),
        lambda data: data["areas"][0].pop("lo"),
        lambda data: data.update(areas=5),
        lambda data: data["model"].update(input=5),
    ], ids=["no-problem-k", "no-model", "no-area-lo", "areas-not-a-list",
            "model-type-set-not-a-string"])
    def test_malformed_instance_exit_code(self, tmp_path, capsys, breakage):
        data = instance_to_json(generate_instance(GenParams(n=4, model=OPP, k=2), 1))
        breakage(data)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(data))
        code = main(["solve", "--instance", str(inst_path), "--algorithm", "kmin-witness"])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: malformed instance JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, algorithm", [
        ("min-tight", "min1-witness"), ("kmin-point", "kmin-witness"),
        ("cp-anomaly", "min1-witness"), ("opo-counter", "min1-witness"),
    ])
    def test_adversary_plays_its_own_fixture(self, tmp_path, capsys, name, algorithm):
        inst_path = tmp_path / "fixture.json"
        assert main(["fixtures", "--name", name, "--out", str(inst_path)]) == EXIT_OK
        assert main([
            "solve", "--instance", str(inst_path), "--algorithm", algorithm,
            "--oracle", f"adversary:{name}",
        ]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["status"] == "solved"

    # Both instances ran to "solved" against the fixture's adversary before
    # the refusal.
    @pytest.mark.parametrize("gen_args", [
        ["--model", "OC-OC", "--problem", "mst", "--vertices", "5", "--seed", "1"],
        ["--model", "O-O", "--n", "4", "--seed", "1"],
    ])
    def test_adversary_refuses_unrelated_instance(self, tmp_path, capsys, gen_args):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", *gen_args, "--out", str(inst_path)]) == EXIT_OK
        code = main(["solve", "--instance", str(inst_path), "--oracle", "adversary:min-tight"])
        assert code == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_adversary_refuses_resized_fixture(self, tmp_path, capsys):
        inst_path = tmp_path / "fixture.json"
        main(["fixtures", "--name", "min-tight", "--n", "4", "--out", str(inst_path)])
        code = main(["solve", "--instance", str(inst_path), "--oracle", "adversary:min-tight"])
        assert code == EXIT_INVALID_CONFIG

    @pytest.mark.parametrize("config", [
        {"model": "OP-P"},
        {"algorithm": "min1-witness", "model": 5},
        {"algorithm": "min1-witness", "model": "OP-P", "problem": 5},
        {"algorithm": "min1-witness", "model": "OP-P", "problem": ["kmin"]},
        {"algorithm": "min1-witness", "model": "OP-P", "budget": "x"},
        {"algorithm": "min1-witness", "model": "OP-P", "max_total": [4]},
        {"algorithm": "min1-witness", "model": "OP-P", "budget": 2.9},
        {"algorithm": "min1-witness", "model": "OP-P", "max_total": 7.5},
    ], ids=["no-algorithm", "model-not-a-string", "problem-a-number", "problem-a-list",
            "budget-not-a-number", "max-total-a-list", "budget-a-float", "max-total-a-float"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 1, "n": 4, **config}))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [[1, 2], None, {"p": 1}, "1/0"],
                             ids=["list", "null", "object", "zero-denominator"])
    @pytest.mark.parametrize("field", ["lo", "hidden"])
    def test_bad_endpoint_value_exit_code(self, tmp_path, capsys, value, field):
        data = instance_to_json(generate_instance(GenParams(n=4, model=OPP, k=2), 1))
        if field == "hidden":
            data["hidden"][1] = value
        else:
            data["areas"][1] = {"kind": "open", "lo": value, "hi": "1000"}
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(data))
        code = main(["solve", "--instance", str(inst_path), "--algorithm", "kmin-witness"])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_oracle_shrink_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", "OC-OC", "--n", "4", "--out", str(inst_path)]) == EXIT_OK
        code = main(["solve", "--instance", str(inst_path), "--oracle", "ground:halve:1/0"])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

