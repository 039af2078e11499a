"""Generators, instance JSON, competitions, reports, and the CLI."""
import contextlib
import copy
import hashlib
import io
import json
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceArea,
    reference_generate_graph_instance,
    reference_generate_instance,
    reference_instance_from_json,
    reference_pick_hidden,
    reference_umst,
)
from uncquery.core import Area, TieRule, endpoint_images, format_rational
from uncquery.engine import default_budget, solve
from uncquery.harness import (
    BOUNDS,
    CSV_COLUMNS,
    ConfigError,
    EXIT_BOUND_VIOLATED,
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    ExperimentConfig,
    GenParams,
    GraphGenParams,
    MAX_GENERATED_AREAS,
    TrialRecord,
    build_oracle,
    build_parser,
    compete,
    dump_json,
    generate_graph_instance,
    generate_instance,
    instance_from_json,
    instance_to_json,
    main,
    report_emit,
    run_algorithm,
    run_trial,
    trial_instance,
)
from uncquery.harness import (
    _below,
    _build_fixture,
    _generate,
    _generator,
    _max_total,
    _pick_hidden,
)
from uncquery.models import _CATEGORY_BY_MODEL, ModelSpec, UncertainInstance, validate_instance
from uncquery.mst import UncertainGraph
from uncquery.oracles import FIXTURE_BUILDERS
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
            assert validate_instance(inst) is None
            assert len(set(inst.hidden)) == len(inst.hidden)

    def test_point_fraction_zero_all_open(self):
        inst = generate_instance(GenParams(n=6, model=ModelSpec.parse("O-O")), 3)
        assert all(not a.is_point for a in inst.areas)

    def test_point_fraction_needs_p(self):
        with pytest.raises(ConfigError):
            generate_instance(
                GenParams(n=3, model=ModelSpec.parse("O-O"), point_fraction=0.5), 0
            )

    def test_no_distinct_hidden_value_left_is_refused(self):
        # A point has one grid value at every denominator; once it is used,
        # there is nothing left to place.  The point at 0 is lo2 = len2 = 0,
        # and its value's numerator over 2048 is 0.
        with pytest.raises(ConfigError, match="^could not place a distinct hidden value$"):
            _pick_hidden(random.Random(0), 0, 0, True, {0})

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
            assert validate_instance(inst) is None

    def test_deterministic(self):
        p = GraphGenParams(vertices=4, extra_edges=2, model=ModelSpec.parse("OC-OC"))
        assert generate_graph_instance(p, 5) == generate_graph_instance(p, 5)


# Every model the category table names, plus the point-only ones, whose graph
# instances draw point weights, and C-O, whose closed inputs take open returns.
GENERATED_MODELS = sorted(set(_CATEGORY_BY_MODEL) | {"P-P", "P-O", "C-O"})
GENERATED_OVERLAPS = (-1e308, -5, 0, 0.3, 0.98, 1, 2.5)
generator_seeds = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds("{}:{}".format, st.integers(-99, 99), st.integers(0, 99)),
)


def _outcome(call, *args):
    """What `call(*args)` returns, or the text of the ConfigError it raises."""
    try:
        return call(*args)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def _generated(generate, params, seed):
    """The instance `generate` draws and its JSON text, or the text of the
    ConfigError it raises, and the state of each Random it made, after: a
    Random that records what is made is patched into the `random` that
    `generate`'s module reads."""
    made = []

    def recording(seed):
        made.append(random.Random(seed))
        return made[-1]

    with mock.patch.object(sys.modules[generate.__module__], "random",
                           SimpleNamespace(Random=recording)):
        inst = _outcome(generate, params, seed)
    return (inst, None if isinstance(inst, str) else dump_json(instance_to_json(inst)),
            [rng.getstate() for rng in made])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GENERATED_MODELS), st.integers(1, 40), st.data(),
       st.sampled_from(GENERATED_OVERLAPS), st.sampled_from((0, 0.3, 1)),
       st.sampled_from(TieRule), generator_seeds)
def test_integer_generator_matches_fraction_reference(model, n, data, overlap, point_fraction,
                                                      tie_rule, seed):
    """The same instance, and the Mersenne Twister left where the reference
    leaves it: the same words drawn."""
    params = GenParams(n=n, model=ModelSpec.parse(model), k=data.draw(st.integers(1, n)),
                       tie_rule=tie_rule, overlap=overlap, point_fraction=point_fraction)
    assert _generated(generate_instance, params, seed) == _generated(
        reference_generate_instance, params, seed)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GENERATED_MODELS), st.integers(2, 12), st.integers(0, 12),
       st.sampled_from(GENERATED_OVERLAPS), generator_seeds)
def test_integer_graph_generator_matches_fraction_reference(model, vertices, extra_edges,
                                                            overlap, seed):
    """The same graph instance, and the same words drawn."""
    params = GraphGenParams(vertices=vertices, extra_edges=extra_edges,
                            model=ModelSpec.parse(model), overlap=overlap)
    assert _generated(generate_graph_instance, params, seed) == _generated(
        reference_generate_graph_instance, params, seed)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 20), st.integers(0, 8), st.booleans(), st.integers(0, 4), st.data(),
       st.integers(0, 2**32))
def test_pick_hidden_matches_fraction_reference_at_every_grid_level(lo2, len2, attains, full,
                                                                    data, seed):
    """Generated instances seldom use up an area's 1/16 grid, so here the
    first `full` grid levels are used up and some values of the next are
    taken: the pick lands on each level and, with all four used up, is
    refused."""
    attains = attains or len2 == 0  # a point holds its value
    lo_j = 0 if attains else 1
    levels = [[lo2 * 1024 + len2 * j * (1024 // denom) for j in range(lo_j, denom - lo_j + 1)]
              for denom in (16, 64, 256, 1024)]
    used = {v for level in levels[:full] for v in level}
    if full < 4:
        used |= set(data.draw(st.lists(st.sampled_from(levels[full]), max_size=40)))
    area = Area(Fraction(lo2, 2), Fraction(lo2 + len2, 2), attains)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    expected = _outcome(reference_pick_hidden, reference_rng, area,
                        {Fraction(v, 2048) for v in used})
    value = _outcome(_pick_hidden, rng, lo2, len2, attains, used)
    assert (value if isinstance(value, str) else Fraction(value, 2048)) == expected
    assert rng.getstate() == reference_rng.getstate()  # as many draws


# n where the rejection loop in `_below` rejects least and most often: just
# below, at and just above each power of two up to 2**80.
BELOW_EDGES = sorted({1, 2, 3} | {2**e + d for e in range(1, 81) for d in (-1, 0, 1)})


def test_below_draws_as_randrange_at_every_power_of_two():
    for seed in range(3):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        assert [_below(rng, n) for n in BELOW_EDGES] == [
            reference_rng.randrange(n) for n in BELOW_EDGES]
        assert rng.getstate() == reference_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(BELOW_EDGES), st.integers(1, 2**81)),
                min_size=1, max_size=20),
       st.integers(0, 2**64))
def test_below_draws_as_randrange(ns, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    assert [_below(rng, n) for n in ns] == [reference_rng.randrange(n) for n in ns]
    assert rng.getstate() == reference_rng.getstate()  # as many draws


class _NoDraws(random.Random):
    """A Random that fails any draw, so that a rejection loop over an empty
    range fails the test rather than running forever."""

    def getrandbits(self, k):
        raise AssertionError(f"getrandbits({k}) drawn")


@pytest.mark.parametrize("n", [0, -1, -2**70])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        _below(_NoDraws(0), n)


def test_graph_generator_refuses_an_empty_vertex_range(monkeypatch):
    params = GraphGenParams(vertices=0, extra_edges=1, model=ModelSpec.parse("O-O"))
    with pytest.raises(ValueError):
        reference_generate_graph_instance(params, 1)
    monkeypatch.setattr("uncquery.harness.random", SimpleNamespace(Random=_NoDraws))
    with pytest.raises(ValueError):
        generate_graph_instance(params, 1)


# sha256 of the instance JSON the generators write for these parameters and
# seeds.  A seed's instance must not change with the code that draws it: a
# change in the order or the kind of any random draw changes these digests.
PINNED_INSTANCES = [
    (lambda: generate_instance(GenParams(n=8, model=OPP, k=3, point_fraction=0.25), 1),
     "9e203056c4dde4f3296837f797b8d46662deef8879418685385aa8e07ea4b352"),
    (lambda: generate_instance(GenParams(n=6, model=ModelSpec.parse("OC-OC"), k=2,
                                         tie_rule=TieRule.LEX, overlap=0.9), 2),
     "dc993b239263bc931b5da6a708646f0021f4a6eb0d89e07a53f9ee8763767a3c"),
    (lambda: generate_instance(GenParams(n=5, model=ModelSpec.parse("OCP-P"), overlap=0.0,
                                         point_fraction=0.5), 3),
     "32366565eda6d9f98549c9616ae5d3d12a9f5bee00b67c37e3017538dc69b855"),
    (lambda: generate_graph_instance(
        GraphGenParams(vertices=5, extra_edges=3, model=ModelSpec.parse("OC-OC")), 1),
     "e55452c3a37ab24982aeb88920d82ca6148b5c20de63b1b4d5e93a5e1147350c"),
    (lambda: generate_graph_instance(
        GraphGenParams(vertices=8, extra_edges=10, model=ModelSpec.parse("O-O"), overlap=0.9), 2),
     "095cd21a2aec5fd1b7e7903e8890970db350eaa5f14c0b73e455e8537c769bc3"),
    (lambda: generate_graph_instance(
        GraphGenParams(vertices=6, extra_edges=4, model=ModelSpec.parse("C-C"), overlap=0.0), 3),
     "cbb6e51c7445e597030764db6c6e57d39022cdd49493b787e785726c8add65d7"),
]


@pytest.mark.parametrize("generate, digest", PINNED_INSTANCES,
                         ids=["kmin-points", "kmin-lex", "kmin-ordered",
                              "mst-default", "mst-dense", "mst-no-overlap"])
def test_generated_instance_json_is_pinned(generate, digest):
    text = dump_json(instance_to_json(generate()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class _OnlyBaseDraws(random.Random):
    """A Random whose derived draws raise: only `random()` and `getrandbits`,
    whose outputs the Mersenne Twister fixes, are left."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a derived random draw was made")

    shuffle = randrange = randint = choice = _randbelow = _refuse


def test_pinned_instances_draw_only_from_getrandbits_and_random(monkeypatch):
    made = []

    def only_base_draws(seed):
        made.append(seed)
        return _OnlyBaseDraws(seed)

    monkeypatch.setattr("uncquery.harness.random", SimpleNamespace(Random=only_base_draws))
    for generate, digest in PINNED_INSTANCES:
        text = dump_json(instance_to_json(generate()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(made) == len(PINNED_INSTANCES)
    with pytest.raises(AssertionError, match="derived"):
        _OnlyBaseDraws(0).randint(0, 1)


_OC_GEN = ["--model", "OC-OC", "--n", "40", "--k", "13", "--overlap", "0.95", "--seed", "1"]
_OCP_GEN = ["--model", "OCP-P", "--n", "40", "--k", "13", "--overlap", "0.95",
            "--point-fraction", "0.3", "--seed", "3"]
_UMST_GEN = ["--model", "OC-OC", "--problem", "mst", "--vertices", "12", "--extra-edges", "24",
             "--overlap", "0.9", "--seed", "4"]
# An instance no generator writes: endpoints in lowest terms and not, "-0/3",
# decimals, an exponent, and a JSON int and float.
_HAND_WRITTEN = {
    "model": {"input": "OC", "returns": "OC"}, "problem": {"type": "kmin", "k": 2},
    "areas": [{"kind": "open", "lo": "6/4", "hi": "5"}, {"kind": "closed", "lo": "-0/3", "hi": 2.5},
              {"kind": "open", "lo": 1, "hi": "3e0"}, {"kind": "closed", "lo": "0.25", "hi": "12/8"}],
    "hidden": ["4/2", "1/1", "5/2", "0.75"],
}

# sha256 of the whole `uncquery solve` stdout (query log, counts, answer and,
# for uMST, the tree and red-rule count) on these instances: gen arguments or
# a written instance, edits to its "problem" object, and solve arguments.  A
# change to how instances are read, refined or reported changes a digest.
PINNED_REPORTS = {
    "kmin-stable": (_OC_GEN, {}, ["--algorithm", "kmin-witness", "--oracle", "ground:halve"],
                    "af880d9abd8280978be56278815336d1906ffa2dbea4b397170ab908edd8af2f"),
    "kmin-lex": (_OC_GEN, {}, ["--algorithm", "kmin-lex", "--oracle", "ground:halve"],
                 "0572e579a00fa60c63d217ecfaff04a44e7821bf38a35ad12936b9dfb365837c"),
    "kmax-stable": (_OCP_GEN, {"objective": "kmax"},
                    ["--algorithm", "kmin-witness", "--oracle", "ground:exact"],
                    "35d87d951b38df3aaaab2430d5b6cdc80e9f82b62f53bbe4b5fa587660b933ef"),
    "kmax-lex": (_OCP_GEN, {"objective": "kmax"},
                 ["--algorithm", "kmin-lex", "--oracle", "ground:exact"],
                 "e5b51e400bfae5f923076acd774ebe7d474f25ef956e81cc58f00cbf1ae3c30a"),
    "opop-halve": (["--model", "OP-OP", "--n", "30", "--k", "5", "--overlap", "0.9", "--seed", "8"],
                   {}, ["--algorithm", "opop-alternate", "--oracle", "ground:halve"],
                   "adfb996c01b8a50dd568c3b91d01135be95c133650b926d01737679b3373ad9d"),
    "umst-halve": (_UMST_GEN, {}, ["--oracle", "ground:halve"],
                   "c554fc955c49c70fd39c16035d7870701c7c547e48979cd284109a846d8e4586"),
    "hand-written": (_HAND_WRITTEN, {}, ["--algorithm", "kmin-witness", "--oracle", "ground:halve"],
                     "42a713d9419108d028fc20f3521c8aeb8ff4851c2290265981a6c1c89f55dd15"),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_solve_report_bytes_are_pinned(tmp_path, capsys, name):
    source, edit, solve_args, digest = PINNED_REPORTS[name]
    inst_path = tmp_path / "inst.json"
    if isinstance(source, dict):
        data = copy.deepcopy(source)
    else:
        assert main(["gen", *source, "--out", str(inst_path)]) == EXIT_OK
        data = json.loads(inst_path.read_text())
    data["problem"].update(edit)
    inst_path.write_text(json.dumps(data))
    assert main(["solve", "--instance", str(inst_path), *solve_args]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if name == "umst-halve":
        report = json.loads(out)
        assert report["tree"] == [3, 6, 9, 10, 12, 16, 18, 20, 23, 30, 31]
        assert report["red_rule_count"] == 22


# Endpoint and hidden values as instance JSON may write them: canonical
# texts, terms not in lowest terms, signed zeros, decimals and exponents,
# JSON ints and floats, and digits other than ASCII; now and then a zero
# denominator, a text past the interpreter's digit bound, or a value that is
# no number at all.
_grid = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_BAD_VALUES = ["1/0", "0/0", "x", "", "1" * 4301 + "/3", "1/" + "9" * 4301, "1e5000",
               float("inf"), float("nan"), None, True, [1], {"p": 1}]


@st.composite
def json_value(draw, value):
    """`value` as instance JSON may write it, or now and then a bad value."""
    if draw(st.integers(0, 24)) == 0:
        return draw(st.sampled_from(_BAD_VALUES))
    p, q = value.as_integer_ratio()
    m = draw(st.integers(2, 5))
    forms = [f"{p}/{q}", f"{p * m}/{q * m}", f"-0/{m}" if p == 0 else f"{p}/{q}",
             repr(float(value)), float(value), f"{p}/{q}".translate(_ARABIC_INDIC),
             f" {p}/{q}", f"+{p}/{q}" if p > 0 else f"{p}/{q}"]
    if q == 1:
        forms += [p, str(p), f"{p * 10}e-1", f"{p}E0"]
    return draw(st.sampled_from(forms))


@st.composite
def json_areas(draw):
    kind = draw(st.sampled_from(["open", "closed", "point"] * 6 + ["Open", None, 3]))
    lo, hi = draw(_grid), draw(_grid)
    if draw(st.integers(0, 3)):  # mostly nonempty
        lo, hi = min(lo, hi), max(lo, hi)
    if kind == "point":
        area = {"kind": kind, "value": draw(json_value(lo))}
    else:
        area = {"kind": kind, "lo": draw(json_value(lo)), "hi": draw(json_value(hi))}
    if draw(st.integers(0, 24)) == 0:  # now and then a key goes missing
        del area[draw(st.sampled_from(sorted(area)))]
    return area


@st.composite
def json_instances(draw):
    areas = draw(st.lists(json_areas(), min_size=1, max_size=5))
    data = {"model": {"input": "OCP", "returns": "OCP"}}
    if draw(st.booleans()):
        data["problem"] = {"type": "kmin", "k": 1}
        data["areas"] = areas
    else:  # a graph whose edges carry their weights
        data["problem"] = {"type": "mst", "vertices": len(areas) + 1,
                           "edges": [{"u": i, "v": i + 1, "weight": a}
                                     for i, a in enumerate(areas)]}
    if draw(st.booleans()):
        data["hidden"] = [draw(json_value(draw(_grid))) for _ in areas]
    return data


def _read(read, data):
    try:
        return read(data)
    except Exception as exc:
        return type(exc), str(exc)


def _fields(area):
    return area.lo, area.hi, area.attains, area.is_point


@settings(max_examples=250, deadline=None)
@given(json_instances())
def test_instance_reader_matches_fraction_reference(data):
    """The reader on integer pairs reads what the Fraction reader did: equal
    instances writing equal JSON text, or the same exception type and
    message."""
    got, want = _read(instance_from_json, data), _read(reference_instance_from_json, data)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.model, got.problem, got.hidden) == (want.model, want.problem, want.hidden)
    assert list(map(_fields, got.areas)) == list(map(_fields, want.areas))
    assert dump_json(instance_to_json(got)) == dump_json(instance_to_json(want))


@settings(max_examples=200, deadline=None)
@given(json_areas())
def test_area_from_json_matches_fraction_reference(data):
    got, want = _read(Area.from_json, data), _read(ReferenceArea.from_json, data)
    if isinstance(want, tuple):
        assert got == want
        return
    assert _fields(got) == _fields(want) and got.to_json() == want.to_json()


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([0, 1, 10**30, -(10**30)]),
    st.floats(), st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
    st.text(),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(), json_values))
@example({"é": ["ü\u2603\U0001f600", 10**30, -0.0, float("inf"), float("nan"), [], {}],
          "a": {"": (0, False, 1, True, None, 1.5)}, "\u00e9\u0000": "\x7f\"\\"})
def test_dump_json_writes_what_json_dumps_does(data):
    """The writer's text is json.dumps's with indent=2 and sorted keys, byte
    for byte, on nested values with non-ASCII keys and strings, ints past 64
    bits, -0.0, inf, nan, bools beside 0 and 1, and empty lists and dicts."""
    assert dump_json(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


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

    def test_reading_and_imaging_build_no_fraction(self, monkeypatch):
        """Reading, validating and imaging an instance compare integer
        pairs; an endpoint becomes a Fraction when it is read, once."""
        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        data = json.loads(dump_json(instance_to_json(
            generate_instance(GenParams(n=50, model=OPP, point_fraction=0.2), 3))))
        monkeypatch.setattr("uncquery.core.Fraction", Counted)
        inst = instance_from_json(data)
        assert validate_instance(inst) is None
        endpoint_images(list(inst.areas))
        assert built == []
        area = inst.areas[0]
        assert area.lo is area.lo and area.hi is area.hi and len(built) == 2

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
        assert validate_instance(inst) == "hidden value 1/2 outside area (1/2, 1000)"

    def test_foreign_problem_object_is_refused(self):
        inst = replace(generate_instance(GenParams(n=3, model=OPP), 0), problem=object())
        with pytest.raises(ConfigError, match="^unknown problem object "):
            instance_to_json(inst)

    def test_parsed_hidden_values_build_fractions_only_where_revealed(self):
        """Parsing and validating keep the hidden values as integer pairs;
        a ground:exact solve builds the Fraction of each value it reveals
        and of no other."""
        made = generate_instance(GenParams(n=60, model=OPP, k=30), 5)
        inst = instance_from_json(json.loads(json.dumps(instance_to_json(made))))
        hidden, n = inst.hidden, len(inst.areas)
        assert validate_instance(inst) is None and hidden._values == [None] * n
        oracle = build_oracle("ground:exact", inst)
        report, _, _ = run_algorithm(inst, oracle, None, None)
        revealed = {i for i, _ in report.query_log}
        assert oracle.hidden is hidden and 0 < len(revealed) < n
        assert {i for i, v in enumerate(hidden._values) if v is not None} == revealed
        plain = tuple(made.hidden)
        assert all(type(v) is Fraction for v in plain)
        for twin in (hidden, copy.copy(hidden), copy.deepcopy(hidden),
                     pickle.loads(pickle.dumps(hidden)), pickle.loads(pickle.dumps(inst)).hidden):
            assert twin == plain and plain == twin and hash(twin) == hash(plain)
        assert inst == made and hash(inst) == hash(made)


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

    @pytest.mark.parametrize("spec", ["ground:halveXYZ", "ground:halve:1/2:junk", "ground:halve:",
                                      "ground:exactly", "adversary:min-tight"])
    def test_only_the_listed_specs(self, spec):
        """A spec is one of the listed forms exactly: nothing after it is
        dropped.  Adversaries are played by adversary_fixture, not here."""
        inst = generate_instance(GenParams(n=3, model=OPP), 0)
        with pytest.raises(ConfigError, match="oracle spec"):
            build_oracle(spec, inst)


def records_from_csv(text: str):
    """The trial records of a CSV report, read back."""
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

    def test_adversary_run(self, monkeypatch):
        """Every trial plays a fresh oracle of the one fixture validate built."""
        builds, build = [], FIXTURE_BUILDERS["min-tight"]
        monkeypatch.setitem(FIXTURE_BUILDERS, "min-tight",
                            lambda n, k: builds.append((n, k)) or build(n, k))
        cfg = ExperimentConfig(
            algorithm="min1-witness", model=ModelSpec.parse("O-O"),
            oracle="adversary:min-tight", trials=4, n=3,
        )
        records, aggregate, code = compete(cfg)
        assert builds == [(3, 1)] and len(records) == 4
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
            assert run_trial(cfg, t, None).queries == report.total
        graph_cfg = ExperimentConfig(
            algorithm="umst", model=ModelSpec.parse("OC-OC"), problem_type="mst",
            seed=5, vertices=5, extra_edges=3,
        )
        graph_params = GraphGenParams(vertices=5, extra_edges=3, model=ModelSpec.parse("OC-OC"))
        assert trial_instance(graph_cfg, 2) == generate_graph_instance(graph_params, "5:2")

    def test_halving_on_a_model_admitting_points_searches_past_2n(self):
        """The default OPT budget is 4n, whatever the oracle.  Halving under
        OP-OP returns intervals although P is admitted: trials 2 and 10 below
        spend 15 and 12 queries, so a 2n = 10 budget would call them
        opt-unbounded."""
        opop = ModelSpec.parse("OP-OP")
        cfg = ExperimentConfig(
            algorithm="kmin-witness", model=opop, oracle="ground:halve:1/2",
            trials=30, n=5, k=2,
        )
        records, aggregate, code = compete(cfg)
        assert code == EXIT_OK and aggregate["violations"] == 0
        assert [records[t].queries for t in (2, 10)] == [15, 12]
        assert all(r.opt is not None for r in records)
        inst = trial_instance(cfg, 0)
        assert _max_total(inst, None) == 20
        assert _max_total(replace(inst, model=ModelSpec.parse("OP-P")), None) == 20
        assert _max_total(inst, 3) == 3

    def test_default_opt_budget_past_n_changes_nothing_for_point_responses(self, tmp_path, capsys):
        """With point responses every response chain ends after one entry, so
        the search stops by level n: the 4n default reports what 2n did."""
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", "OP-P", "--n", "6", "--k", "3", "--seed", "4",
                     "--out", str(inst_path)]) == EXIT_OK
        capsys.readouterr()
        outputs = []
        for extra in ([], ["--max-total", "12"], ["--max-total", "6"]):
            assert main(["opt", "--instance", str(inst_path), *extra]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["opt"] > 0

    def test_validate_refuses_a_budget_that_is_no_integer(self):
        # A JSON config cannot set this (from_json refuses the float); code can.
        config = ExperimentConfig(algorithm="kmin-witness", model=OPP, budget=2.5)
        with pytest.raises(ConfigError, match=r"^budget must be an integer, got 2\.5$"):
            config.validate()

    def test_bypass_requires_opp(self):
        cfg = ExperimentConfig(algorithm="min1-bypass", model=ModelSpec.parse("O-O"))
        with pytest.raises(ConfigError):
            compete(cfg)

    def test_alternation_refused_on_oo_before_any_trial(self):
        cfg = ExperimentConfig(algorithm="opop-alternate", model=ModelSpec.parse("O-O"))
        with pytest.raises(ConfigError, match="^opop-alternate refuses model O-O: "
                                              "it runs under op-p, op-op models only$"):
            cfg.validate()

    def test_unknown_report_format_refused_before_any_trial(self):
        cfg = ExperimentConfig(algorithm="min1-witness", model=OPP, out_format="xml")
        with pytest.raises(ConfigError, match="xml"):
            cfg.validate()


# The competitive bounds as the paper states them, written out apart from the
# package's algorithm tables; at k = n, where min{k, n-k} is 0, kmin-bypass
# is the 1-Max bypass, whose additive term is 1.
PAPER_BOUNDS = {
    "min1-witness": lambda q, opt, k, n: q <= 2 * opt,
    "kmin-witness": lambda q, opt, k, n: q <= 2 * opt,
    "min1-lex": lambda q, opt, k, n: q <= 2 * opt,
    "kmin-lex": lambda q, opt, k, n: q <= 2 * opt,
    "min1-bypass": lambda q, opt, k, n: q <= opt + 1,
    "kmin-bypass": lambda q, opt, k, n: q <= opt + max(1, min(k, n - k)),
    "opop-alternate": lambda q, opt, k, n: q <= 2 * (opt + k),
    "umst": lambda q, opt, k, n: q <= 2 * opt,
}


def test_bounds_are_the_papers():
    assert set(BOUNDS) == set(PAPER_BOUNDS)
    for name, bound in PAPER_BOUNDS.items():
        for q in range(12):
            for opt in range(6):
                for k, n in ((1, 6), (2, 6), (3, 5), (3, 3)):
                    assert BOUNDS[name](q, opt, k, n) == bound(q, opt, k, n), (name, q, opt, k, n)


def _as_graph(edit):
    """A breakage that swaps the instance for a graph instance's JSON, then
    applies `edit` to it."""
    def breakage(data):
        data.clear()
        data.update(instance_to_json(generate_graph_instance(
            GraphGenParams(vertices=4, extra_edges=2, model=ModelSpec.parse("OC-OC")), 1)))
        edit(data)
    return breakage


def _refuse_to_draw(*args, **kwargs):
    """Stands in for the generator's area draw where a setting must be
    refused before anything is drawn."""
    raise AssertionError("drew an area for a setting out of range")


class TestCli:
    @pytest.mark.parametrize("problem_type", ["kmin", "mst"])
    def test_gen_defaults_are_the_config_defaults(self, capsys, problem_type):
        assert main(["gen", "--model", "OC-OC", "--problem", problem_type]) == EXIT_OK
        config = ExperimentConfig("unused", ModelSpec.parse("OC-OC"), problem_type=problem_type)
        assert capsys.readouterr().out == dump_json(instance_to_json(_generate(config, 0)))

    @pytest.mark.parametrize("args, config", [
        (["--model", "OP-P", "--n", "5", "--point-fraction", "0.3"],
         ExperimentConfig("kmin-witness", OPP, seed=7, n=5, point_fraction=0.3)),
        (["--problem", "mst", "--model", "OC-OC", "--vertices", "6", "--extra-edges", "4"],
         ExperimentConfig("umst", ModelSpec.parse("OC-OC"), seed=7, problem_type="mst",
                          vertices=6, extra_edges=4)),
    ], ids=["kmin", "mst"])
    def test_gen_seed_s_t_is_compete_trial_t(self, capsys, args, config):
        assert main(["gen", *args, "--seed", "7:3"]) == EXIT_OK
        assert capsys.readouterr().out == dump_json(instance_to_json(trial_instance(config, 3)))

    @pytest.mark.parametrize("argv", [
        ["compete"], ["bogus"], [], ["fixtures", "--name", "nope"], ["solve", "--budget", "abc"],
        ["gen", "--n", "abc"], ["opt", "--instance", "x.json", "--extra"],
        *(["gen", "--model", "OP-P", "--seed", seed] for seed in ("x", "7:", "7:-1", "1.5")),
    ], ids=["compete-no-config", "unknown-command", "no-command", "unknown-fixture",
            "budget-not-an-int", "n-not-an-int", "unknown-argument", "seed-not-an-int",
            "seed-no-trial", "seed-negative-trial", "seed-a-float"])
    def test_argument_error_exit_code(self, capsys, argv):
        assert main(argv) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == EXIT_OK and "--seed" in capsys.readouterr().out

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

    @pytest.mark.parametrize("model", ["P-P", "P-O"])
    def test_gen_and_solve_a_graph_under_point_inputs(self, tmp_path, capsys, model):
        """Under an input set with no interval shape every weight is drawn
        as a point, so `solve` takes the instance and certifies a tree with
        no query."""
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", model, "--problem", "mst", "--vertices", "4",
                     "--seed", "1", "--out", str(inst_path)]) == EXIT_OK
        assert main(["solve", "--instance", str(inst_path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["status"], report["total"]) == ("solved", 0)

    def test_compete_on_graphs_under_point_inputs(self, tmp_path, capsys):
        out, cfg_path = tmp_path / "rep.json", tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithm": "umst", "model": "P-P",
                                        "problem": {"type": "mst"}, "format": "json",
                                        "out": str(out)}))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_OK
        records = json.loads(out.read_text())["records"]
        assert records and all((r["queries"], r["status"]) == (0, "ok") for r in records)

    def test_opt_refuses_an_adversary_oracle(self, tmp_path, capsys):
        """An adversary's optimum is its fixture's value: `opt` names that
        in one line rather than calling the spec unknown."""
        inst_path = tmp_path / "tight.json"
        assert main(["fixtures", "--name", "min-tight", "--n", "3",
                     "--out", str(inst_path)]) == EXIT_OK
        capsys.readouterr()
        code = main(["opt", "--instance", str(inst_path), "--oracle", "adversary:min-tight"])
        assert (code, capsys.readouterr()) == (EXIT_INVALID_CONFIG, ("", (
            "error: oracle spec 'adversary:min-tight': an adversary's optimum is its "
            "fixture's value, which `fixtures` writes; `opt` does not search it\n")))

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

    def test_unknown_problem_type_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "algorithm": "min1-witness", "model": "OP-P", "oracle": "ground:exact",
            "problem": {"type": "graph"}, "trials": 3,
        }))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown problem type 'graph'\n"

    def test_solve_pairs_algorithm_with_problem(self, tmp_path, capsys):
        graph, sel = tmp_path / "graph.json", tmp_path / "sel.json"
        main(["gen", "--model", "OC-OC", "--problem", "mst", "--seed", "2", "--out", str(graph)])
        main(["gen", "--model", "OP-P", "--n", "4", "--seed", "2", "--out", str(sel)])
        for path, kind, foreign in ((graph, "mst", "kmin-bypass"), (sel, "kmin", "umst")):
            code = main(["solve", "--instance", str(path), "--algorithm", foreign])
            assert code == EXIT_INVALID_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"no {kind} algorithm {foreign!r}" in err
        # Without --algorithm a graph runs umst and a selection kmin-witness,
        # which at k=1 reports as min1-witness does and also solves k > 1.
        sel_k3 = tmp_path / "sel_k3.json"
        main(["gen", "--model", "OP-P", "--n", "6", "--k", "3", "--seed", "7",
              "--out", str(sel_k3)])
        for path, default in ((graph, "umst"), (sel, "min1-witness"), (sel_k3, "kmin-witness")):
            assert main(["solve", "--instance", str(path)]) == EXIT_OK
            implicit = capsys.readouterr().out
            assert main(["solve", "--instance", str(path), "--algorithm", default]) == EXIT_OK
            assert capsys.readouterr().out == implicit
            assert ("tree" in json.loads(implicit)) == (default == "umst")

    def test_bypass_refused_on_bad_model_instance(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--model", "O-O", "--n", "3", "--seed", "1", "--out", str(inst_path)])
        code = main([
            "solve", "--instance", str(inst_path), "--algorithm", "min1-bypass",
            "--oracle", "ground:halve",
        ])
        assert code == EXIT_INVALID_CONFIG

    @pytest.mark.parametrize("algorithm, model, admitted", [
        ("kmin-bypass", "O-O", "op-p"),
        ("opop-alternate", "OC-OC", "op-p, op-op"),
    ])
    def test_refused_model_exits_3_in_solve_and_compete(
            self, tmp_path, capsys, algorithm, model, admitted):
        """One `error:` line naming the algorithm, the model and the admitted
        categories, before any query in `solve` and before any trial in
        `compete`, also with no trials."""
        line = f"error: {algorithm} refuses model {model}: it runs under {admitted} models only\n"
        inst_path, cfg_path = tmp_path / "inst.json", tmp_path / "cfg.json"
        main(["gen", "--model", model, "--n", "4", "--k", "2", "--seed", "1", "--out", str(inst_path)])
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst_path), "--algorithm", algorithm,
                     "--oracle", "ground:halve"]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr() == ("", line)
        for trials in (3, 0):
            cfg_path.write_text(json.dumps({"algorithm": algorithm, "model": model,
                                            "trials": trials, "problem": {"k": 2}}))
            assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG
            assert capsys.readouterr() == ("", line)

    @pytest.mark.parametrize("gen_args", [
        ["--n", "5", "--k", "2", "--overlap", "0.95", "--seed", "2"],
        ["--n", "4", "--seed", "1"],
    ], ids=["queries-needed", "solved-at-start"])
    def test_exact_oracle_refused_without_point_returns(self, tmp_path, capsys, gen_args):
        """`ground:exact` under O-O exits 3 before any query in `solve`, `opt`
        and `compete`, also on an instance that needs no query."""
        inst_path, cfg_path = tmp_path / "inst.json", tmp_path / "cfg.json"
        main(["gen", "--model", "O-O", *gen_args, "--out", str(inst_path)])
        cfg_path.write_text(json.dumps({"algorithm": "kmin-witness", "model": "O-O",
                                        "oracle": "ground:exact", "trials": 2, "n": 4}))
        capsys.readouterr()
        for argv in (["solve", "--instance", str(inst_path), "--oracle", "ground:exact"],
                     ["opt", "--instance", str(inst_path), "--oracle", "ground:exact"],
                     ["compete", "--config", str(cfg_path)]):
            assert main(argv) == EXIT_INVALID_CONFIG
            assert capsys.readouterr() == (
                "", "error: exact responses need P in the return type set\n"), argv[0]

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

    def test_opt_answers_a_halving_search_that_verifies_few_vectors(self, tmp_path, capsys):
        # Halving never ends a chain, so the levels to the default max_total
        # of 24 hold 593,775 count vectors, but level 2 verifies: the guard
        # counts the vectors the search visits, not those the levels hold.
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", "OP-OP", "--n", "6", "--k", "2", "--seed", "3",
                     "--out", str(inst_path)]) == EXIT_OK
        assert main(["opt", "--instance", str(inst_path), "--oracle", "ground:halve"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {"opt": 2, "vector": {"2": 1, "6": 1}}

    def test_opt_refuses_a_search_past_the_limit(self, tmp_path, capsys):
        # 11 edges and the default max_total of 44 would mean about 1.2e11
        # count vectors; nothing verifies among the first MAX_SEARCH_VECTORS.
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
            inst, build_oracle("ground:halve", inst), default_budget(len(inst.areas))
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
        lambda data: data["problem"].update(k=1.9),
        lambda data: data["problem"].update(k=True),
        lambda data: data["problem"].update(k="2"),
        _as_graph(lambda data: data["problem"].update(vertices=4.0)),
        _as_graph(lambda data: data["problem"]["edges"][0].update(u=0.0)),
        _as_graph(lambda data: data["problem"]["edges"][0].update(v="1")),
    ], ids=["no-problem-k", "no-model", "no-area-lo", "areas-not-a-list",
            "model-type-set-not-a-string", "k-a-float", "k-a-bool", "k-a-string",
            "vertices-a-float", "edge-u-a-float", "edge-v-a-string"])
    def test_malformed_instance_exit_code(self, tmp_path, capsys, breakage):
        data = instance_to_json(generate_instance(GenParams(n=4, model=OPP, k=2), 1))
        breakage(data)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(data))
        code = main(["solve", "--instance", str(inst_path), "--algorithm", "kmin-witness"])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: malformed instance JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("breakage, oracle, message", [
        (lambda data: data["problem"].update(type="graph"), "ground:exact",
         "unknown problem type 'graph'"),
        (_as_graph(lambda data: data["problem"]["edges"][0].update(v=99)), "ground:exact",
         "edge endpoint out of range"),
        (lambda data: data["problem"].update(k=5), "ground:exact",
         "invalid instance: k=5 out of range for n=4"),
        (lambda data: data["areas"][0].update(kind="blob"), "ground:exact",
         "unknown area kind 'blob'"),
        (lambda data: None, "adversary:nope",
         "unknown adversary 'nope'; known: " + ", ".join(FIXTURE_BUILDERS)),
    ], ids=["unknown-problem-type", "edge-endpoint-out-of-range", "k-above-n",
            "unknown-area-kind", "unknown-adversary"])
    def test_refused_input_exit_code(self, tmp_path, capsys, breakage, oracle, message):
        data = instance_to_json(generate_instance(GenParams(n=4, model=OPP, k=2), 1))
        breakage(data)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(data))
        assert main(["solve", "--instance", str(inst_path), "--oracle", oracle]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_lex_blocked_prefix_solves_in_opt_queries(self, tmp_path, capsys):
        """Point 5 and closed [0, 5] at k = 2 under lex: the prefix {2} is
        not surely below area 1, since it would tie at 5 with the larger
        index.  The witness pair queries area 2 and stops, as OPT does."""
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps({
            "model": {"input": "CP", "returns": "P"},
            "problem": {"type": "kmin", "k": 2, "tie_rule": "lex"},
            "areas": [{"kind": "point", "value": "5"},
                      {"kind": "closed", "lo": "0", "hi": "5"}],
            "hidden": ["5", "3"],
        }))
        assert main(["opt", "--instance", str(inst_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["opt"] == 1
        for algorithm in ("kmin-lex", "kmin-witness"):
            assert main(["solve", "--instance", str(inst_path),
                         "--algorithm", algorithm]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert (report["status"], report["counts"], report["answer"]) == ("solved", {"2": 1}, 1)

    @pytest.mark.parametrize("config, status", [
        ({"algorithm": "min1-witness", "model": "OP-P", "budget": 1}, "budget-exceeded"),
        ({"algorithm": "min1-witness", "model": "OP-P", "max_total": 0}, "opt-unbounded"),
        ({"algorithm": "kmin-witness", "model": "CP-P", "oracle": "adversary:cp-anomaly"},
         "bound-violated"),
    ], ids=["budget-exceeded", "opt-unbounded", "bound-violated"])
    def test_compete_trial_status_exit_code(self, tmp_path, capsys, config, status):
        # The cp-anomaly adversary makes kmin-witness query all 4 areas,
        # against the fixture's OPT of 1.
        out = tmp_path / "report.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oracle": "ground:exact", "trials": 1, "n": 4,
                                        "seed": 1, "out": str(out), **config}))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_BOUND_VIOLATED
        assert json.loads(capsys.readouterr().out)["violations"] == 1
        assert out.read_text().splitlines()[1].split(",")[-1] == status

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
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("size", [("3", "2"), ("5", "4")], ids=["n3-k2", "n5-k4"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
    def test_adversary_plays_its_fixture_at_any_size(self, tmp_path, capsys, name, size):
        """`solve` sizes the fixture to the instance, as `compete` sizes it
        to the config: it plays whatever `fixtures --n N --k K` wrote."""
        inst_path = tmp_path / "fixture.json"
        n, k = size
        assert main(["fixtures", "--name", name, "--n", n, "--k", k,
                     "--out", str(inst_path)]) == EXIT_OK
        assert main(["solve", "--instance", str(inst_path),
                     "--oracle", f"adversary:{name}"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "solved"
        if name == "min-tight":  # the 2n-query construction
            assert report["total"] == 2 * int(n)

    @pytest.mark.parametrize("written, edit", [
        ("cp-anomaly", lambda data: None),
        ("min-tight", lambda data: data["areas"][1].update(hi="8/1")),
        ("min-tight", lambda data: data.update(areas=[])),
        ("min-tight", lambda data: data["problem"].update(k=0)),
    ], ids=["another-adversarys-fixture", "one-area-moved", "no-areas", "k-zero"])
    def test_adversary_refuses_mismatched_fixture(self, tmp_path, capsys, written, edit):
        inst_path = tmp_path / "fixture.json"
        assert main(["fixtures", "--name", written, "--n", "4", "--out", str(inst_path)]) == 0
        data = json.loads(inst_path.read_text())
        edit(data)
        inst_path.write_text(json.dumps(data))
        code = main(["solve", "--instance", str(inst_path), "--oracle", "adversary:min-tight"])
        assert code == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: adversary 'min-tight' plays only its own fixture")

    @pytest.mark.parametrize("mismatch", [
        {"model": "OP-P"},
        {"problem": {"type": "kmin", "k": 3}},
        {"problem": {"type": "kmin", "k": 1, "tie_rule": "lex"}},
        {"problem": {"type": "mst"}, "algorithm": "umst"},
    ], ids=["model", "k", "tie-rule", "problem-type"])
    def test_compete_adversary_refuses_foreign_config(self, tmp_path, capsys, mismatch):
        # min-tight's fixture is an O-O k=1 stable selection instance.
        out = tmp_path / "report.csv"
        config = {"algorithm": "min1-witness", "model": "O-O", "oracle": "adversary:min-tight",
                  "trials": 1, "n": 3, "out": str(out), **mismatch}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "plays only its own fixture" in err
        assert not out.exists()

    def test_compete_adversary_plays_matching_config(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "algorithm": "min1-witness", "model": "O-O", "oracle": "adversary:min-tight",
            "problem": {"type": "kmin", "k": 1, "tie_rule": "stable"},
            "trials": 1, "n": 3, "out": str(out),
        }))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["violations"] == 0
        assert out.read_text().splitlines()[1] == "0,min1-witness,O-O,4,1,6,3,2,3,ok"

    @pytest.mark.parametrize("config", [
        {"model": "OP-P"},
        {"algorithm": "min1-witness", "model": 5},
        {"algorithm": "min1-witness", "model": "OP-P", "problem": 5},
        {"algorithm": "min1-witness", "model": "OP-P", "problem": ["kmin"]},
        {"algorithm": "min1-witness", "model": "OP-P", "budget": "x"},
        {"algorithm": "min1-witness", "model": "OP-P", "max_total": [4]},
        {"algorithm": "min1-witness", "model": "OP-P", "budget": 2.9},
        {"algorithm": "min1-witness", "model": "OP-P", "max_total": 7.5},
        {"algorithm": "min1-witness", "model": "OP-P", "budget": 0},
        {"algorithm": "min1-witness", "model": "OP-P", "budget": -1},
        {"algorithm": "min1-witness", "model": "OP-P", "max_total": -1},
        {"algorithm": "min1-witness", "model": "OP-P", "trails": 50},
        {"algorithm": "kmin-witness", "model": "OP-P",
         "problem": {"type": "kmin", "k": 2, "objective": "kmax"}},
        {"algorithm": "min1-witness", "model": "OP-P", "trials": -3},
        {"algorithm": "min1-witness", "model": "OP-P", "oracle": 5},
        {"algorithm": ["min1-witness"], "model": "OP-P"},
        {"algorithm": "min1-witness", "model": "OP-P", "out": 5},
        {"algorithm": "min1-witness", "model": "OP-P", "trials": True},
        {"algorithm": "min1-witness", "model": "OP-P", "n": 4.7},
        {"algorithm": "kmin-witness", "model": "OP-P", "problem": {"k": 2.5}},
        {"algorithm": "min1-witness", "model": "OP-P", "format": 5},
        {"algorithm": "min1-witness", "model": "OP-P", "problem": {"tie_rule": 5}},
        {"algorithm": "min1-witness", "model": "OP-P", "trials": "3"},
        {"algorithm": "min1-witness", "model": "OP-P", "problem.k": 1},
        {"algorithm": "min1-witness", "model": "OP-P", "overlap": float("inf")},
        {"algorithm": "min1-witness", "model": "OP-P", "overlap": float("nan")},
        {"algorithm": "min1-witness", "model": "OP-P", "overlap": float("inf"), "trials": 0},
        {"algorithm": "min1-witness", "model": "OP-P", "point_fraction": 5},
        {"algorithm": "kmin-witness", "model": "OP-P", "overlap": 10**400},
        {"algorithm": "kmin-witness", "model": "OP-P", "point_fraction": -10**400},
        {"algorithm": "umst", "model": "OC-OC", "problem": {"type": "mst", "vertices": 0}},
        {"algorithm": "umst", "model": "OC-OC", "problem": {"type": "mst", "vertices": 1}},
        {"algorithm": "umst", "model": "OC-OC",
         "problem": {"type": "mst", "extra_edges": 10**11}},
        {"algorithm": "min1-witness", "model": "OP-P", "n": 10**6 + 1},
        {"algorithm": "kmin-witness", "model": "OP-P", "problem": {"k": 0}},
        {"algorithm": "kmin-witness", "model": "OP-P", "problem": {"k": 5}},
        {"algorithm": "min1-witness", "model": "OP-P", "problem": {"k": 2}},
        {"algorithm": "min1-witness", "model": "OP-P", "problem": {"k": 2}, "trials": 0},
        ["min1-witness", "OP-P"],
    ], ids=["no-algorithm", "model-not-a-string", "problem-a-number", "problem-a-list",
            "budget-not-a-number", "max-total-a-list", "budget-a-float", "max-total-a-float",
            "budget-zero", "budget-negative", "max-total-negative", "unknown-key",
            "unknown-problem-key", "trials-negative", "oracle-a-number", "algorithm-a-list",
            "out-a-number", "trials-a-bool", "n-a-float", "k-a-float", "format-a-number",
            "tie-rule-a-number", "trials-a-string", "problem-key-at-top-level",
            "overlap-infinite", "overlap-nan", "overlap-infinite-no-trials",
            "point-fraction-above-one", "overlap-past-float-range",
            "point-fraction-past-float-range", "vertices-zero", "vertices-one",
            "extra-edges-past-the-size-cap", "n-past-the-size-cap", "k-zero", "k-above-n",
            "min1-k-two", "min1-k-two-no-trials", "config-a-list"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, monkeypatch, config):
        monkeypatch.setattr("uncquery.harness._draw", _refuse_to_draw)
        cfg_path = tmp_path / "cfg.json"
        if isinstance(config, dict):
            config = {"trials": 1, "n": 4, **config}
        cfg_path.write_text(json.dumps(config))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("oracle", [
        "ground:bogus", "ground:exact", "ground:halve:2", "script:/nonexistent.json",
    ], ids=["unknown-spec", "exact-without-points", "shrink-above-one", "missing-script"])
    def test_bad_oracle_spec_exit_code_without_trials(self, tmp_path, capsys, oracle):
        """An oracle spec no trial can build is refused before any trial, so
        also with no trials: O-O returns no points, and a shrink lies in
        (0, 1)."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"algorithm": "kmin-witness", "model": "O-O", "oracle": oracle, "trials": 0}))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("out", ["missing/r.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_is_refused_before_any_trial(self, tmp_path, capsys, monkeypatch, out):
        """A report path in no directory, or naming a directory, is refused
        before the first trial runs, not after the last."""
        def refuse(*args, **kwargs):
            raise AssertionError("ran a trial of a config that should have been refused")

        monkeypatch.setattr("uncquery.harness.run_trial", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithm": "kmin-witness", "model": "OP-P",
                                        "trials": 3000, "out": str(tmp_path / out)}))
        assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr() == ("", f"error: cannot write the report to "
                                           f"{str(tmp_path / out)!r}\n")
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("out", ["missing/r.json", "."], ids=["missing-dir", "a-dir"])
    @pytest.mark.parametrize("command, what, work", [
        (["solve", "--instance", "no-such-instance.json"], "the report", "instance_from_json"),
        (["gen", "--model", "OP-P", "--n", "20000"], "the instance", "_generate"),
        (["fixtures", "--name", "min-tight"], "the instance", "_build_fixture"),
    ], ids=["solve", "gen", "fixtures"])
    def test_unwritable_out_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       command, what, work, out):
        """`solve`, `gen` and `fixtures` refuse an --out in no directory, or
        naming a directory, before they read, generate or solve anything: solve
        names the path although its instance file does not exist."""
        def refuse(*args, **kwargs):
            raise AssertionError("worked on a command that should have been refused")

        monkeypatch.setattr(f"uncquery.harness.{work}", refuse)
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--out", str(tmp_path / out)]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr() == ("", f"error: cannot write {what} to "
                                           f"{str(tmp_path / out)!r}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", [
        ["solve", "--budget", "0"], ["solve", "--budget", "-1"], ["opt", "--max-total", "-1"],
    ], ids=["solve-budget-zero", "solve-budget-negative", "opt-max-total-negative"])
    def test_limit_below_its_least_exit_code(self, tmp_path, capsys, args):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", "OP-P", "--n", "4", "--out", str(inst_path)]) == EXIT_OK
        assert main([*args, "--instance", str(inst_path)]) == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args, setting", [
        (["--overlap", "inf"], "overlap"), (["--overlap", "nan"], "overlap"),
        (["--point-fraction", "5"], "point_fraction"),
        (["--point-fraction", "-0.5"], "point_fraction"),
        (["--problem", "mst", "--vertices", "0"], "vertices"),
        (["--problem", "mst", "--vertices", "1"], "vertices"),
        (["--problem", "mst", "--vertices", "1000002"], "vertices"),
        (["--problem", "mst", "--extra-edges", "100000000000"], "extra_edges"),
        (["--problem", "mst", "--extra-edges", "-1"], "extra_edges"),
        (["--n", "1000001"], "n"),
        (["--n", "0"], "n"),
        (["--k", "0"], "k"),
        (["--n", "6", "--k", "7"], "k"),
    ], ids=["overlap-infinite", "overlap-nan", "point-fraction-above-one",
            "point-fraction-negative", "vertices-zero", "vertices-one",
            "vertices-past-the-size-cap", "extra-edges-past-the-size-cap",
            "extra-edges-negative", "n-past-the-size-cap", "n-zero", "k-zero", "k-above-n"])
    def test_gen_setting_out_of_range_exit_code(self, tmp_path, capsys, monkeypatch, args,
                                                setting):
        monkeypatch.setattr("uncquery.harness._draw", _refuse_to_draw)
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", "OP-P", *args, "--out", str(inst_path)]) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {setting} must be ") and err.count("\n") == 1
        assert not inst_path.exists()

    @pytest.mark.parametrize("problem_type, size", [
        ("kmin", {"n": MAX_GENERATED_AREAS}),
        ("mst", {"vertices": 5, "extra_edges": MAX_GENERATED_AREAS - 4}),
        ("mst", {"vertices": MAX_GENERATED_AREAS + 1, "extra_edges": 0}),
    ], ids=["n", "extra-edges", "vertices"])
    def test_size_cap_admits_exactly_its_areas(self, problem_type, size):
        # _generator checks without drawing, so the cap itself is cheap to try.
        config = ExperimentConfig("umst", ModelSpec.parse("OC-OC"), problem_type=problem_type,
                                  **size)
        _generator(config)
        key = "n" if problem_type == "kmin" else "extra_edges"
        with pytest.raises(ConfigError, match=f"{key} must be at most "):
            _generator(replace(config, **{key: getattr(config, key) + 1}))

    @staticmethod
    def _refused_before_built(tmp_path, capsys, monkeypatch, argv, config_n) -> str:
        """The one stderr line of `argv`, which must exit 3 without building a
        fixture; "{cfg}" in argv names an adversary:min-tight compete config
        of n `config_n`."""
        def refuse(n, k):
            raise AssertionError(f"built a fixture of n={n}, k={k}")

        for name in FIXTURE_BUILDERS:
            monkeypatch.setitem(FIXTURE_BUILDERS, name, refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithm": "min1-witness", "model": "O-O",
                                        "oracle": "adversary:min-tight", "n": config_n}))
        argv = [arg.format(cfg=cfg_path) for arg in argv]
        assert main(argv) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("argv, message", [
        (["fixtures", "--name", "min-tight", "--n", "1500000"], "n must be at most 1000000"),
        (["fixtures", "--name", "kmin-point", "--k", "500001"], "k must be at most 500000"),
        (["compete", "--config", "{cfg}"], "n must be at most 1000000"),
    ], ids=["fixtures-n", "fixtures-k", "compete-n"])
    def test_oversized_fixture_is_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch,
                                                             argv, message):
        err = self._refused_before_built(tmp_path, capsys, monkeypatch, argv, 1500000)
        assert err.startswith(f"error: {message}, got ")

    @pytest.mark.parametrize("argv, setting", [
        (["fixtures", "--name", "min-tight", "--n", "0"], "n"),
        (["fixtures", "--name", "cp-anomaly", "--n", "0"], "n"),
        (["fixtures", "--name", "opo-counter", "--n", "0"], "n"),
        (["fixtures", "--name", "kmin-point", "--k", "0"], "k"),
        (["compete", "--config", "{cfg}"], "n"),
    ], ids=["fixtures-min-tight-n", "fixtures-cp-anomaly-n", "fixtures-opo-counter-n",
            "fixtures-kmin-point-k", "compete-min-tight-n"])
    def test_fixture_size_below_one_is_refused_before_it_is_built(self, tmp_path, capsys,
                                                                  monkeypatch, argv, setting):
        """Every fixture takes both settings, so each is refused below 1 on
        every fixture, including those whose construction ignores it."""
        err = self._refused_before_built(tmp_path, capsys, monkeypatch, argv, 0)
        assert err == f"error: {setting} must be at least 1, got 0\n"

    def test_fixture_size_cap_admits_exactly_its_areas(self, monkeypatch):
        built = []
        monkeypatch.setitem(FIXTURE_BUILDERS, "kmin-point", lambda n, k: built.append((n, k)))
        _build_fixture("kmin-point", MAX_GENERATED_AREAS, MAX_GENERATED_AREAS // 2)
        for n, k in ((MAX_GENERATED_AREAS + 1, 1), (1, MAX_GENERATED_AREAS // 2 + 1)):
            with pytest.raises(ConfigError, match=" must be at most "):
                _build_fixture("kmin-point", n, k)
        assert built == [(MAX_GENERATED_AREAS, MAX_GENERATED_AREAS // 2)]

    def test_parser_is_built_once_and_a_failing_call_leaves_it_as_it_was(self, capsys):
        assert build_parser() is build_parser()
        args = ["gen", "--model", "OC-OC", "--problem", "mst", "--vertices", "4", "--seed", "2"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["gen", "--model", "OP-P", "--problem", "kmin", "--overlap", "inf",
                     "--vertices", "1", "--seed", "3"]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err == "error: overlap must be finite, got inf\n"
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_opt_max_total_zero_searches_only_the_start(self, tmp_path, capsys):
        # A max_total of 0 is a limit, not the default: the start vector does
        # not verify, so there is no solution within it.
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", "OP-P", "--n", "4", "--out", str(inst_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["opt", "--instance", str(inst_path), "--max-total", "0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["opt"] is None
        assert main(["opt", "--instance", str(inst_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["opt"] > 0

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

    @pytest.mark.parametrize("command", ["solve", "opt"])
    @pytest.mark.parametrize("value", ["3/0", "3/-4", "abc", [1, 2], None, "1e100000000"],
                             ids=["zero-denominator", "signed-denominator", "word", "list",
                                  "null", "huge-exponent"])
    def test_bad_hidden_value_exits_before_solving(self, tmp_path, capsys, monkeypatch,
                                                   command, value):
        """A bad hidden value is refused when the instance is read, with one
        line, though nothing reads it as a Fraction until a query reveals it."""
        def refuse(*args, **kwargs):
            raise AssertionError("solved an instance that should have been refused")

        monkeypatch.setattr("uncquery.harness.solve", refuse)
        monkeypatch.setattr("uncquery.harness.opt_value", refuse)
        data = instance_to_json(generate_instance(GenParams(n=4, model=OPP, k=2), 1))
        data["hidden"][1] = value
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(data))
        assert main([command, "--instance", str(inst_path)]) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["ground:halveXYZ", "ground:halve:1/2:junk"])
    def test_bad_oracle_spec_exit_code(self, tmp_path, capsys, spec):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", "OC-OC", "--n", "4", "--out", str(inst_path)]) == EXIT_OK
        assert main(["solve", "--instance", str(inst_path), "--oracle", spec]) == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        """`python -m uncquery` runs the CLI, and an error is one stderr
        line with no import warning before it."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-m", "uncquery", "solve", "--instance", str(tmp_path / "missing.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == EXIT_INVALID_CONFIG and run.stdout == ""
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1

    def test_python_dash_m_harness_names_the_cli(self, tmp_path):
        """`python -m uncquery.harness` runs nothing and says so: exit 3 and
        one error line naming `python -m uncquery`.  (The interpreter's
        warning that the package already imported the module may precede it.)"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-m", "uncquery.harness", "solve", "--instance", str(tmp_path / "missing.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        errors = [line for line in run.stderr.splitlines() if line.startswith("error: ")]
        assert run.returncode == EXIT_INVALID_CONFIG and run.stdout == ""
        assert len(errors) == 1 and "python -m uncquery" in errors[0]

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        """`solve`, `opt` and `compete` with a CSV report, run as processes
        under two string-hash seeds, write the same bytes to stdout and to
        the report."""
        sel, graph, cfg = tmp_path / "sel.json", tmp_path / "graph.json", tmp_path / "cfg.json"
        assert main(["gen", "--model", "OP-P", "--n", "6", "--k", "2", "--point-fraction", "0.3",
                     "--seed", "5", "--out", str(sel)]) == EXIT_OK
        assert main(["gen", "--model", "OC-OC", "--problem", "mst", "--vertices", "5",
                     "--seed", "5", "--out", str(graph)]) == EXIT_OK
        commands = [
            ["solve", "--instance", str(sel), "--algorithm", "opop-alternate"],
            ["solve", "--instance", str(graph), "--oracle", "ground:halve"],
            ["opt", "--instance", str(sel), "--oracle", "ground:halve"],
            ["compete", "--config", str(cfg)],
        ]
        outputs = []
        for hash_seed in ("1", "777"):
            report = tmp_path / f"report-{hash_seed}.csv"
            cfg.write_text(json.dumps({
                "algorithm": "umst", "model": "OC-OC", "oracle": "ground:halve", "trials": 3,
                "problem": {"type": "mst", "vertices": 4}, "out": str(report)}))
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
                [str(Path(__file__).resolve().parent.parent / "src"),
                 os.environ.get("PYTHONPATH", "")])}
            runs = [subprocess.run([sys.executable, "-m", "uncquery", *command],
                                   capture_output=True, env=env, timeout=60)
                    for command in commands]
            assert all(run.returncode == EXIT_OK and run.stderr == b"" for run in runs)
            outputs.append([run.stdout for run in runs] + [report.read_bytes()])
        assert outputs[0] == outputs[1]
        assert all(outputs[0]) and outputs[0][-1].startswith(CSV_COLUMNS.encode())

    def test_bad_oracle_shrink_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--model", "OC-OC", "--n", "4", "--out", str(inst_path)]) == EXIT_OK
        code = main(["solve", "--instance", str(inst_path), "--oracle", "ground:halve:1/0"])
        assert code == EXIT_INVALID_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("script", [
        {"responses": {"1": [{"kind": "open", "hi": "3/1"}]}},
        [{"kind": "open", "lo": "0/1", "hi": "3/1"}],
    ], ids=["area-without-lo", "top-level-list"])
    def test_malformed_script_exit_code(self, tmp_path, capsys, script):
        inst_path, script_path = tmp_path / "inst.json", tmp_path / "script.json"
        assert main(["gen", "--model", "OC-OC", "--n", "4", "--out", str(inst_path)]) == EXIT_OK
        script_path.write_text(json.dumps(script))
        code = main(["solve", "--instance", str(inst_path), "--oracle", f"script:{script_path}"])
        assert code == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: malformed script JSON: ")

    @pytest.mark.parametrize("where", ["instance", "hidden", "script", "shrink"])
    def test_exponent_past_the_digit_bound_exit_code(self, tmp_path, capsys, where):
        """A value written with a decimal exponent past the int-string digit
        bound exits 3 at once, wherever it is read: Fraction alone would
        build 10**100000000 first."""
        huge = "1e100000000"
        data = instance_to_json(generate_instance(GenParams(n=4, model=ModelSpec.parse("OC-OC")), 1))
        if where == "instance":
            data["areas"][1]["hi"] = huge
        if where == "hidden":
            data["hidden"][1] = huge
        inst_path, script_path = tmp_path / "inst.json", tmp_path / "script.json"
        inst_path.write_text(json.dumps(data))
        script_path.write_text(json.dumps({"responses": {"1": [{"kind": "open", "lo": "0", "hi": huge}]}}))
        oracle = {"script": f"script:{script_path}", "shrink": f"ground:halve:{huge}"}.get(where, "ground")
        assert main(["solve", "--instance", str(inst_path), "--oracle", oracle]) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("end, text", [("hi", "1e4300"), ("lo", "1e-4300"), ("hi", "12345e4296")])
    def test_decimal_past_the_digit_bound_is_refused_when_read(self, tmp_path, capsys, end, text):
        """A decimal whose numerator or denominator has more digits than the
        int-string bound allows exits 3 when the instance is read, with one
        line naming the text, rather than after the solve, when the report
        could not write it."""
        data = instance_to_json(generate_instance(GenParams(n=4, model=ModelSpec.parse("OC-OC")), 1))
        data["areas"][1][end] = text
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(data))
        assert main(["solve", "--instance", str(inst_path), "--oracle", "ground"]) == EXIT_INVALID_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: decimal past the 4300-digit bound in {text!r}\n"

    def test_gen_and_compete_take_any_finite_overlap(self, tmp_path, capsys):
        """Every overlap of 1 or more draws width 1, so 1e308 writes what 2
        writes; a large negative overlap on a graph draws exact wide spans."""
        written = []
        for overlap in ("2", "1e308"):
            path = tmp_path / f"inst-{overlap}.json"
            assert main(["gen", "--model", "OP-P", f"--overlap={overlap}", "--n", "10",
                         "--out", str(path)]) == EXIT_OK
            written.append(path.read_bytes())
        assert written[0] == written[1]
        for overlap in ("1e308", "-1e308"):
            assert main(["gen", "--model", "OC-OC", "--problem", "mst", "--vertices", "5",
                         f"--overlap={overlap}", "--out", str(tmp_path / "graph.json")]) == EXIT_OK
        cfg_path = tmp_path / "cfg.json"
        for problem in ({"type": "kmin", "k": 1}, {"type": "mst", "vertices": 3}):
            cfg_path.write_text(json.dumps({
                "algorithm": "umst" if problem["type"] == "mst" else "min1-witness",
                "model": "OC-OC", "oracle": "ground:halve", "trials": 1, "n": 3,
                "overlap": 1e308, "problem": problem}))
            assert main(["compete", "--config", str(cfg_path)]) == EXIT_OK
        capsys.readouterr()


def _closed_area(data):
    data["areas"][0]["kind"] = "closed"


def test_open_response_around_a_closed_endpoint_exits_3(tmp_path, capsys):
    """Pinned as it stands: under C-O the generator may draw a hidden value
    on a closed area's endpoint, and no open response holds it.  Seed 1
    draws 7/2 on one."""
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--model", "C-O", "--n", "6", "--seed", "1",
                 "--out", str(inst_path)]) == EXIT_OK
    assert main(["solve", "--instance", str(inst_path)]) == EXIT_INVALID_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot build an open response around boundary value 7/2\n"


def _drop_weight(data):
    del data["areas"][-1], data["hidden"][-1]


def _extra_weight(data):
    data["areas"].append(data["areas"][0])
    data["hidden"].append(data["hidden"][0])


def _isolated_vertex(data):
    data["problem"]["vertices"] += 1


def _huge_vertex_count(data):
    # Fewer than V - 1 edges: refused before anything of size V is built.
    data["problem"]["vertices"] = 10**12


def _no_areas(data):
    data["areas"], data["hidden"] = [], []


@pytest.mark.parametrize("command", ["solve", "opt"])
@pytest.mark.parametrize("problem, edit, reason", [
    ("kmin", _closed_area, "area 1 shape C not admitted by input type set O"),
    ("mst", _drop_weight, "{w} weights for {e} edges; give one weight per edge"),
    ("mst", _extra_weight, "{w} weights for {e} edges; give one weight per edge"),
    ("mst", _isolated_vertex, "graph must be connected"),
    ("mst", _huge_vertex_count, "graph must be connected"),
    ("kmin", _no_areas, "instance has no areas"),
], ids=["closed-area-under-O-O", "fewer-weights", "more-weights", "disconnected",
        "huge-vertex-count", "no-areas"])
def test_solve_and_opt_refuse_an_invalid_instance(tmp_path, capsys, command, problem, edit, reason):
    """`solve` and `opt` check an instance by the one rule, validate_instance,
    which holds the problem's own check: each refuses with the same reason."""
    inst_path = tmp_path / "inst.json"
    size = ["--problem", "mst", "--vertices", "6", "--extra-edges", "5"] if problem == "mst" else []
    assert main(["gen", "--model", "O-O", *size, "--seed", "2", "--out", str(inst_path)]) == 0
    data = json.loads(inst_path.read_text())
    edit(data)
    inst_path.write_text(json.dumps(data))
    assert main([command, "--instance", str(inst_path)]) == EXIT_INVALID_CONFIG
    out, err = capsys.readouterr()
    reason = reason.format(w=len(data["areas"]), e=len(data["problem"].get("edges", ())))
    assert out == "" and err == f"error: invalid instance: {reason}\n"


# ---------------------------------------------------------------------------
# Fuzzing `uncquery solve` with mutated instance JSON.

# Rational texts next to the canonical 'p/q': signs, spaces, decimals and
# exponents at and past the digit bound, non-ASCII digits, and non-numbers.
_ODD_TEXTS = ["", " ", "1/0", "0/0", "-0/1", "1/-2", "3/2/1", " 7 ", "+5", "--1", "1_000",
              "0x10", "1.5", "1.5e", "1e", "e5", ".", "2e3", "1e4301", "1e-4301", "9" * 4400,
              "nan", "inf", "-inf", "١", "½", "1/2 ", "1 /2", "-1/3"]
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30),
    st.floats(allow_nan=False, allow_infinity=True), st.sampled_from(_ODD_TEXTS),
    # A fresh [] and {} each draw: `st.just` would hand every draw one shared
    # object, which a mutation could then nest inside itself.
    st.text(max_size=4), st.builds(list), st.builds(dict),
    st.lists(st.integers(-3, 3), max_size=3),
)
_SIZE_VALUES = st.sampled_from([-1, 0, 1, 2, 5, 10**9, 10**30, True, 2.0, "3", None])


def _json_paths(value, path=()):
    """The path of every value inside a JSON document, the document first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _mutated(draw, data, values):
    """`data` after one to three mutations: a dropped key or a value
    replaced by one of `values`, at any depth, the document included."""
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(data))))
        if not path:
            data = draw(values)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.integers(0, 2)) == 0 and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(values)
    return data


@st.composite
def mutated_instances(draw):
    """A generated selection or graph instance of a few areas, as JSON, with
    one to three mutations, each a dropped key or a value of another JSON
    type or an odd rational text, and now and then an out-of-range k or
    vertex count."""
    seed = draw(st.integers(0, 50))
    if draw(st.booleans()):
        model = ModelSpec.parse(draw(st.sampled_from(["OP-P", "OCP-P", "OP-OP"])))
        n = draw(st.integers(1, 5))
        inst = generate_instance(GenParams(n, model, draw(st.integers(1, n))), seed)
    else:
        model = ModelSpec.parse(draw(st.sampled_from(["OC-OC", "OCP-P"])))
        inst = generate_graph_instance(GraphGenParams(draw(st.integers(2, 4)), 2, model), seed)
    data = _mutated(draw, json.loads(json.dumps(instance_to_json(inst))), _JSON_VALUES)
    if isinstance(data, dict) and isinstance(data.get("problem"), dict) and draw(st.booleans()):
        data["problem"][draw(st.sampled_from(["k", "vertices"]))] = draw(_SIZE_VALUES)
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(mutated_instances(), st.sampled_from(["ground", "ground:exact", "ground:halve"]))
def test_solve_on_mutated_instance_json_exits_cleanly(fuzz_dir, data, oracle):
    """Every mutated instance ends in exit 0, 2 or 3, never a traceback, and
    an exit 3 prints exactly one stderr line."""
    path = fuzz_dir / "instance.json"
    path.write_text(json.dumps(data))
    report = _run_cleanly(["solve", "--instance", str(path), "--oracle", oracle])
    assert report is None or report["status"]


def _run_cleanly(argv):
    """main(argv) exits 0, 2 or 3, and with 3 prints exactly one stderr line;
    the JSON it printed, or None after exit 3."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_BOUND_VIOLATED, EXIT_INVALID_CONFIG)
    if code == EXIT_INVALID_CONFIG:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
        return None
    assert not err.getvalue()
    return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# Scripted responses and area kinds the search and the parsers must refuse.


def _point(value):
    return {"kind": "point", "value": value}


def test_opt_refuses_a_scripted_response_that_solve_refuses(tmp_path, capsys):
    """The OPT search reads the scripted response for area 1, which lies
    outside it: `opt` refuses the script as `solve` does, with the same
    line, instead of reporting an optimum of 1."""
    inst = UncertainInstance(model=OPP, areas=(Area.open(0, 4), Area.open(1, 5)),
                             problem=SelectionProblem(k=1))
    inst_path, script_path = tmp_path / "inst.json", tmp_path / "script.json"
    inst_path.write_text(dump_json(instance_to_json(inst)))
    script_path.write_text(json.dumps({"responses": {"1": [_point(9)], "2": [_point(3)]}}))
    for command in ("opt", "solve"):
        code = main([command, "--instance", str(inst_path), "--oracle", f"script:{script_path}"])
        assert code == EXIT_INVALID_CONFIG
        assert capsys.readouterr() == (
            "", "error: index 1: response 9 not contained in queried area (0, 4)\n")


def test_compete_refuses_a_scripted_response_only_its_opt_search_reads(tmp_path, capsys):
    """The solve queries area 1 alone and its response settles k = 1; the
    OPT search also reads area 2's response, which lies outside area 2."""
    cfg = {"algorithm": "kmin-witness", "model": "OP-P", "trials": 1, "n": 2, "seed": 8}
    first, second = trial_instance(ExperimentConfig.from_json(cfg), 0).areas
    assert first.lo < second.lo < first.hi and not first.is_point
    settle = (first.lo + min(first.hi, second.lo)) / 2
    script_path, cfg_path = tmp_path / "script.json", tmp_path / "cfg.json"
    script_path.write_text(json.dumps({"responses": {
        "1": [_point(format_rational(settle))], "2": [_point(str(second.hi + 1))]}}))
    cfg_path.write_text(json.dumps({**cfg, "oracle": f"script:{script_path}"}))
    assert main(["compete", "--config", str(cfg_path)]) == EXIT_INVALID_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: index 2: response {second.hi + 1} not contained in queried area {second}\n")


@pytest.mark.parametrize("command", ["solve", "opt"])
@pytest.mark.parametrize("where", ["instance", "script"])
@pytest.mark.parametrize("kind", ["mixed", "half-open", "OPEN"])
def test_area_kind_other_than_point_open_closed_exit_code(tmp_path, capsys, command, where, kind):
    """An area is a point, an open or a closed interval; any other kind, in
    instance JSON or in a script, exits 3 with one line."""
    inst = UncertainInstance(model=ModelSpec.parse("OC-OC"), areas=(Area.open(0, 4), Area.closed(1, 5)),
                             problem=SelectionProblem(k=1))
    data = instance_to_json(inst)
    odd = {"kind": kind, "lo": "1/1", "hi": "2/1", "lo_kind": "open", "hi_kind": "closed"}
    if where == "instance":
        data["areas"][1] = odd
    inst_path, script_path = tmp_path / "inst.json", tmp_path / "script.json"
    inst_path.write_text(json.dumps(data))
    script_path.write_text(json.dumps({"responses": {"1": [odd], "2": [odd]}}))
    code = main([command, "--instance", str(inst_path), "--oracle", f"script:{script_path}"])
    assert code == EXIT_INVALID_CONFIG
    assert capsys.readouterr() == ("", f"error: unknown area kind {kind!r}\n")


# ---------------------------------------------------------------------------
# Fuzzing `uncquery compete` with mutated config JSON and `uncquery solve` and
# `opt` with mutated script JSON.

# Values past float range, area kinds and oracle specs, next to _JSON_VALUES.
_ODD_VALUES = st.one_of(
    _JSON_VALUES,
    st.sampled_from([10**400, -10**400, 2**1024, 1e308, -1e308, 0, 1, 2, -1,
                     "mixed", "half-open", "open", "closed", "point", "ground:halve:1/0",
                     "ground:halve:2", "ground:exact", "adversary:cp-anomaly", "adversary:nope",
                     "script:", "kmin-lex", "opop-alternate", "umst", "OCP-OCP", "OC-OC",
                     "mst", "kmax", "lex"]),
)

# Areas for a script, of every kind and with endpoints inside, on and outside
# the areas they refine, and past float range.
_SCRIPT_AREAS = st.builds(
    dict, kind=st.sampled_from(["mixed", "open", "closed", "point"]),
    lo=st.sampled_from(["0/1", "1/1", "2/1", 10**400]), hi=st.sampled_from(["3/1", "4/1", "9/4"]),
    value=st.sampled_from(["2/1", "5/2", "7/1", 10**400]),
)
_SCRIPT_LEAVES = st.sampled_from(["0/1", "1/1", "2/1", "5/2", "7/2", "4/1", "open", "closed",
                                  "point", "mixed"])

_CONFIGS = (
    {"algorithm": "kmin-witness", "model": "OP-P", "oracle": "ground:exact", "trials": 2,
     "seed": 3, "n": 4, "overlap": 0.7, "point_fraction": 0.2, "budget": 40, "max_total": 6,
     "format": "json", "problem": {"type": "kmin", "k": 2, "tie_rule": "lex"}},
    {"algorithm": "umst", "model": "OC-OC", "oracle": "ground:halve", "trials": 1,
     "problem": {"type": "mst", "vertices": 4, "extra_edges": 2}},
    {"algorithm": "kmin-witness", "model": "OP-P", "oracle": "adversary:kmin-point", "trials": 1,
     "problem": {"k": 2}},
)

# The most of each size a mutated config keeps, so that an example runs in
# milliseconds; a larger int is cut to it.
_CONFIG_CAPS = {"trials": 2, "n": 4, "vertices": 4, "extra_edges": 3, "max_total": 6}


@st.composite
def mutated_configs(draw):
    data = _mutated(draw, copy.deepcopy(draw(st.sampled_from(_CONFIGS))), _ODD_VALUES)
    for scope in (data, data.get("problem")) if isinstance(data, dict) else ():
        for key, cap in _CONFIG_CAPS.items():
            if isinstance(scope, dict) and type(scope.get(key)) is int:
                scope[key] = min(scope[key], cap)
    return data


@st.composite
def mutated_scripts(draw):
    return _mutated(draw, {"responses": {
        "1": [{"kind": "open", "lo": "1/1", "hi": "3/1"}, _point("2/1")],
        "2": [{"kind": "closed", "lo": "2/1", "hi": "4/1"}, _point("5/2")],
    }}, st.one_of(_SCRIPT_AREAS, _SCRIPT_LEAVES, _ODD_VALUES))


@settings(max_examples=150, deadline=None)
@given(mutated_configs())
def test_compete_on_mutated_config_json_exits_cleanly(fuzz_dir, data):
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(data))
    _run_cleanly(["compete", "--config", str(path)])


@settings(max_examples=150, deadline=None)
@given(mutated_scripts(), st.sampled_from(["solve", "opt"]))
def test_solve_and_opt_on_mutated_script_json_exit_cleanly(fuzz_dir, data, command):
    inst = UncertainInstance(
        model=ModelSpec.parse("OCP-OCP"),
        areas=(Area.open(0, 4), Area.closed(1, 5), Area.point(3)),
        problem=SelectionProblem(k=2),
    )
    inst_path, script_path = fuzz_dir / "script-instance.json", fuzz_dir / "script.json"
    inst_path.write_text(dump_json(instance_to_json(inst)))
    script_path.write_text(json.dumps(data))
    _run_cleanly([command, "--instance", str(inst_path), "--oracle", f"script:{script_path}"])


def _readme_blocks(language: str) -> list:
    """The fenced code blocks of README.md in this language, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.S | re.M)


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    """README's CLI block runs line by line, each `uncquery` command in
    process with its competition config as experiment.json, and exits 0;
    its instance JSON solves; its inline-weight MST instance reads, and
    carrying no hidden values, its `solve` under `ground` exits 3."""
    monkeypatch.chdir(tmp_path)
    config, instance, inline = (json.loads(block) for block in _readme_blocks("json"))
    Path("experiment.json").write_text(json.dumps(config))
    cli = next(block for block in _readme_blocks("sh") if "uncquery gen" in block)
    ran = []
    for line in cli.splitlines():
        words = line.partition("#")[0].split()
        argv = words[1:] if words[:1] == ["uncquery"] else words[3:]
        assert words[:1] == ["uncquery"] or words[:3] == ["python", "-m", "uncquery"], line
        assert main(argv) == EXIT_OK, (line, capsys.readouterr().err)
        ran.append((argv[0], capsys.readouterr().out))
    assert [command for command, _ in ran] == ["gen", "solve", "opt", "fixtures", "compete",
                                               "solve"]
    assert json.loads(ran[-1][1])["status"] == "solved"
    Path("instance.json").write_text(json.dumps(instance))
    assert main(["solve", "--instance", "instance.json"]) == EXIT_OK
    assert isinstance(instance_from_json(inline).problem, UncertainGraph)
    Path("inline.json").write_text(json.dumps(inline))
    assert main(["solve", "--instance", "inline.json"]) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
