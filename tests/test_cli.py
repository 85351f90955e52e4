import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralcover import (
    ClassParams, GridEvaluation, GridSpec, VerificationReport, check_derivative_disk, cli, functions, kernel,
    random_measure, verification,
)
from spiralcover.cli import main
from spiralcover.render import render_svg
from spiralcover.serialize import dumps, dumps_spec, function_spec, load_function_spec, measure_spec

from conftest import report_json, report_oracle

SRC = Path(__file__).resolve().parents[1] / "src"

EXAMPLE_SPEC = {
    "mu": 1.0,
    "beta": 0.6,
    "factors": [
        {"node": [0.9, 0.4], "exponent": [0.2, 0.0]},
        {"node": [0.9, -0.4], "exponent": [0.2, 0.0]},
    ],
}

CORE_SPEC = {"mu": 1.0, "beta": 0.6, "prefactor": [0.6, 0.0], "factors": []}

# a real-mu spec with one real and one complex exponent; it passes membership and growth
MIXED_EXPONENTS_SPEC = {
    "mu": 1.0,
    "beta": 0.1,
    "factors": [
        {"node": [0.5, -0.8], "exponent": [0.05, 0.0]},
        {"node": [-0.2, 0.9], "exponent": [0.04, -0.03]},
    ],
}

# f = (1-z)/(1-z/2)**1e300: finite exponent data whose values overflow on every curve
OVERFLOW_SPEC = {"mu": 1, "beta": 0.5, "factors": [{"node": [0.5, 0], "exponent": [1e300, 0]}]}

# f = (1-z)**-60: finite on |z| = 0.999, up to 1e180, too large for a boundary polygon's winding products
WINDING_OVERFLOW_SPEC = {"mu": [1, 0], "beta": 0.5, "prefactor": [-60, 0], "factors": []}

# the `--checks all` order: the entries of verification's table, wedge-containment last
ALL_CHECKS = list(verification._GRID_CHECKS)

# the six grid checks of spiralbench's wide-measure workload
WIDE_CHECKS = "membership,distortion,derivative-disk,schwarz,value-bounds,interior-identity"


def wide_specs() -> list[dict]:
    """Three seeded measure-form class members with 64, 512 and 2048 atoms."""
    params = ((64, [1.0, 0.3], 0.4), (512, [0.8, -0.4], 0.2), (2048, [1.5, 0.2], 0.7))
    return [
        {"mu": mu, "beta": beta, "measure": measure_spec(random_measure(n, 100 + n))}
        for n, mu, beta in params
    ]


@pytest.fixture()
def example_path(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(report_json(EXAMPLE_SPEC))
    return str(path)


def svg_text(path) -> str:
    """The SVG at path, after checking that it parses as XML."""
    ElementTree.parse(path)
    return path.read_text()


class TestLoadSpec:
    def test_factors_form(self):
        f, params = load_function_spec(EXAMPLE_SPEC)
        assert params.mu == 1.0
        assert len(f.factors) == 2

    def test_measure_form(self):
        spec = {
            "mu": [1.0, 0.2],
            "beta": 0.3,
            "measure": {"atoms": [{"angle": 0.5, "weight": 0.4}, {"angle": -2.0, "weight": 0.6}]},
        }
        f, params = load_function_spec(spec)
        assert len(f.factors) == 2
        assert f.prefactor == params.mu

    def test_missing_body_rejected(self):
        with pytest.raises(ValueError):
            load_function_spec({"mu": 1.0, "beta": 0.0})

    # a measure fixes the prefactor and the factors, so neither may sit beside it
    MIXED_SPECS = [
        {"mu": 1, "beta": 0.3, "prefactor": [0.2, 0], "measure": {"atoms": [{"angle": 0.5, "weight": 1}]}},
        {**EXAMPLE_SPEC, "measure": {"atoms": [{"angle": 0.5, "weight": 1}]}},
    ]

    @pytest.mark.parametrize("spec", MIXED_SPECS, ids=["measure-prefactor", "measure-factors"])
    def test_measure_with_other_form_rejected(self, spec):
        with pytest.raises(ValueError, match="measure spec cannot also hold"):
            load_function_spec(spec)

    @pytest.mark.parametrize("command", ["check", "cover"])
    @pytest.mark.parametrize("spec", MIXED_SPECS, ids=["measure-prefactor", "measure-factors"])
    def test_measure_with_other_form_is_a_usage_error(self, command, spec, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(spec))
        assert main([command, "-i", str(src), "-o", str(out)]) == 2
        assert "measure spec cannot also hold" in capsys.readouterr().err
        assert not out.exists()

    # a boolean or a string where a number belongs, in each numeric field
    @pytest.mark.parametrize(
        "spec",
        [
            {**EXAMPLE_SPEC, "mu": True},
            {**EXAMPLE_SPEC, "mu": ["1", "0"]},
            {**EXAMPLE_SPEC, "beta": "0.5"},
            {**EXAMPLE_SPEC, "beta": False},
            {**EXAMPLE_SPEC, "factors": [{"node": [True, False], "exponent": [0.2, 0.0]}]},
            {**EXAMPLE_SPEC, "factors": [{"node": [0.9, 0.4], "exponent": ["0.2", 0]}]},
            {"mu": 1.0, "beta": 0.5, "measure": {"atoms": [{"angle": "0", "weight": "1"}]}},
        ],
        ids=["mu-bool", "mu-strings", "beta-string", "beta-bool", "node-bools", "exponent-string", "atom-strings"],
    )
    def test_non_number_rejected(self, spec, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(spec))
        assert main(["check", "-i", str(src), "-o", str(out)]) == 2
        assert "expected a number" in capsys.readouterr().err
        assert not out.exists()

    # a rejected value or key is named in a bounded message, whatever its size
    @pytest.mark.parametrize(
        "text",
        [
            '{"mu": 1, "beta": ' + "[" * 900 + "]" * 900 + ', "factors": []}',
            '{"mu": 1, "beta": "' + "9" * 10_000 + '", "factors": []}',
            '{"mu": 1, "beta": 0.5, "factors": [], "' + "k" * 10_000 + '": 0}',
        ],
        ids=["deep-array", "long-string", "long-key"],
    )
    def test_rejected_input_message_is_short(self, text, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(text)
        assert main(["check", "-i", str(src), "-o", str(out)]) == 2
        assert len(capsys.readouterr().err) < 120
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([EXAMPLE_SPEC], "must be a JSON object"),
            ({k: v for k, v in EXAMPLE_SPEC.items() if k != "mu"}, "missing key 'mu'"),
            ({k: v for k, v in EXAMPLE_SPEC.items() if k != "beta"}, "missing key 'beta'"),
        ],
        ids=["array", "no-mu", "no-beta"],
    )
    def test_malformed_spec_is_a_usage_error(self, spec, message, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(spec))
        assert main(["check", "-i", str(src), "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    NON_LIST_FACTORS = [{}, "", {"node": [0.5, 0], "exponent": [0.2, 0]}, "abc"]
    NON_LIST_IDS = ["empty-object", "empty-string", "object", "string"]

    @pytest.mark.parametrize("factors", NON_LIST_FACTORS, ids=NON_LIST_IDS)
    def test_factors_not_a_list_rejected(self, factors):
        # an empty object or string would otherwise load as the bare map (1-z)**mu
        with pytest.raises(ValueError, match="'factors' must be a list"):
            load_function_spec({"mu": 1, "beta": 0.5, "factors": factors})

    @pytest.mark.parametrize("command", ["check", "cover"])
    @pytest.mark.parametrize("factors", NON_LIST_FACTORS, ids=NON_LIST_IDS)
    def test_factors_not_a_list_is_a_usage_error(self, command, factors, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps({"mu": 1, "beta": 0.5, "factors": factors}))
        assert main([command, "-i", str(src), "-o", str(out)]) == 2
        assert "'factors' must be a list" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text('{"mu": 1, "beta": 0, "factors": [{"node": [0, 0], "exponent": [1' + "0" * 400 + ', 0]}]}')
        assert main(["check", "-i", str(src), "-o", str(out)]) == 2
        assert "too large" in capsys.readouterr().err
        assert not out.exists()

    # a key outside the fixed set of its object, in each kind of object a spec holds;
    # the first is the README's bare power with "prefactor" misspelt
    UNKNOWN_KEY_SPECS = [
        ({"mu": 1.0, "beta": 0.6, "prefactr": [0.3, 0.0], "factors": []}, "prefactr"),
        ({**EXAMPLE_SPEC, "factors": [{"node": [0.9, 0.4], "exponent": [0.2, 0.0], "weight": 1}]}, "weight"),
        ({**EXAMPLE_SPEC, "factors": [{"node": [0.9, 0.4], "exponen": [0.2, 0.0]}]}, "exponen"),
        ({"mu": 1, "beta": 0.3, "measure": {"atoms": [{"angle": 0.5, "weight": 1}]}, "extra": 1}, "extra"),
        ({"mu": 1, "beta": 0.3, "measure": {"atoms": [{"angle": 0.5, "weight": 1}], "extra": 1}}, "extra"),
        ({"mu": 1, "beta": 0.3, "measure": {"atoms": [{"angle": 0.5, "weight": 1, "node": 0}]}}, "node"),
        ({"mu": 1, "beta": 0.3, "measure": {"atoms": [{"angle": 0.5, "wieght": 1}]}}, "wieght"),
    ]
    UNKNOWN_KEY_IDS = [
        "spec", "factor-extra", "factor-misspelt", "measure-spec", "measure", "atom-extra", "atom-misspelt",
    ]

    @pytest.mark.parametrize("spec, key", UNKNOWN_KEY_SPECS, ids=UNKNOWN_KEY_IDS)
    def test_unknown_key_rejected(self, spec, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            load_function_spec(spec)

    @pytest.mark.parametrize("argv", [["check"], ["cover"], ["construct"], ["render"]], ids=lambda a: a[0])
    @pytest.mark.parametrize("spec, key", UNKNOWN_KEY_SPECS, ids=UNKNOWN_KEY_IDS)
    def test_unknown_key_is_a_usage_error(self, argv, spec, key, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.svg"
        src.write_text(json.dumps(spec))
        assert main([*argv, "-i", str(src), "-o", str(out)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["check", "--checks", "all"], ["cover", "--r-inner", "0.95", "--rho", "0.999", "--samples", "512"]],
        ids=["check", "cover"],
    )
    def test_misspelt_prefactor_is_not_the_bare_core(self, argv, tmp_path):
        # spelt right, (1-z)**0.3 declared with beta = 0.6 fails; misspelt, it would be (1-z)**1
        spec = {"mu": 1.0, "beta": 0.6, "prefactor": [0.3, 0.0], "factors": []}
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(spec))
        assert main([*argv, "-i", str(src), "-o", str(out)]) == 1
        assert json.loads(out.read_text())["passed"] is False
        out.unlink()
        src.write_text(json.dumps({"prefactr" if k == "prefactor" else k: v for k, v in spec.items()}))
        assert main([*argv, "-i", str(src), "-o", str(out)]) == 2
        assert not out.exists()

    # the reader names the object of the wrong shape
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"mu": 1, "beta": 0.3, "measure": {"atoms": 5}}, "'atoms' must be a list of {angle, weight} objects"),
            ({"mu": 1, "beta": 0.3, "factors": [5]}, "factor must be a JSON object"),
            ({"mu": 1, "beta": 0.3, "measure": []}, "measure must be a JSON object"),
            ({"mu": 1, "beta": 0.3, "measure": {"atoms": [[0.5, 1]]}}, "atom must be a JSON object"),
            ({"mu": 1, "beta": 0.3, "measure": {"atoms": [{"angle": 0.5}]}}, "atom missing key 'weight'"),
        ],
        ids=["atoms-number", "factor-number", "measure-list", "atom-list", "atom-no-weight"],
    )
    def test_wrong_shape_names_its_object(self, spec, message, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(spec))
        assert main(["check", "-i", str(src), "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["construct", "check", "cover", "render"])
    def test_deeply_nested_json_is_a_usage_error(self, command, tmp_path, capsys):
        src, out = tmp_path / "deep.json", tmp_path / "out.json"
        src.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, "-i", str(src), "-o", str(out)]) == 2
        assert "cannot read JSON from" in capsys.readouterr().err
        assert not out.exists()

    # a key given twice: the README example read at the second beta would pass membership
    # (worst margin 0.404) as a map other than the one meant
    @pytest.mark.parametrize(
        "argv, text, key",
        [
            (["check", "--checks", "membership"],
             json.dumps(EXAMPLE_SPEC).replace('"beta": 0.6', '"beta": 0.6, "beta": 0.2'), "beta"),
            (["check"], '{"mu": 1, "beta": 0.3, "measure": {"atoms": [{"angle": 0.5, "weight": 1, "weight": 0.5}]}}',
             "weight"),
            (["render"], '{"functions": [' + json.dumps(EXAMPLE_SPEC) + '], "wedge": true, "wedge": false}', "wedge"),
        ],
        ids=["spec", "atom", "render-option"],
    )
    def test_repeated_key_is_a_usage_error(self, argv, text, key, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(text)
        assert main([*argv, "-i", str(src), "-o", str(out)]) == 2
        assert f"repeated key '{key}'" in capsys.readouterr().err
        assert not out.exists()


def json_paths(value, path=()):
    """The path, a tuple of keys and indices, of value and of every value inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from json_paths(item, (*path, key))


def json_at(value, path):
    for key in path:
        value = value[key]
    return value


def json_replaced(value, path, new):
    """value with the value at path replaced by new, without changing value."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = json_replaced(value[path[0]], path[1:], new)
    return copy


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
SMALL_GRID = ["--grid-radii", "0.5", "--grid-angles", "4"]
SMALL_FACTOR_SPEC = {"mu": [1.0, 0.0], "beta": 0.6, "factors": [{"node": [0.9, 0.4], "exponent": [0.4, 0.0]}]}
SMALL_MEASURE_SPEC = {"mu": [0.8, -0.5], "beta": 0.3,
                      "measure": {"atoms": [{"angle": 0.4, "weight": 0.6}, {"angle": -2.1, "weight": 0.4}]}}
# (argv, valid input, output suffix): each input that `main` reads, at small sizes
READER_CASES = [
    (["check", "--checks", "all", *SMALL_GRID], SMALL_FACTOR_SPEC, "json"),
    (["check", "--checks", "all", *SMALL_GRID], SMALL_MEASURE_SPEC, "json"),
    (["construct"], SMALL_MEASURE_SPEC, "json"),
    (["cover", "--samples", "32"], SMALL_FACTOR_SPEC, "json"),
    (["render", "--samples", "32"], {"functions": [SMALL_FACTOR_SPEC], "covering_disk": True, "labels": ["f"]}, "svg"),
    (["render", "--samples", "32"], {**SMALL_MEASURE_SPEC, "wedge": False}, "csv"),
]
KNOWN_KEYS = {"mu", "beta", "prefactor", "factors", "measure", "atoms", "angle", "weight", "node", "exponent",
              "functions", "covering_disk", "wedge", "labels"}


class TestReaderProperty:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_changed_value_or_added_key(self, data):
        # exit 0, 1 or 2, never an exception; exit 2 writes no file, and an added key always exits 2
        argv, base, suffix = data.draw(st.sampled_from(READER_CASES))
        added = data.draw(st.booleans())
        if added:
            path = data.draw(st.sampled_from([p for p in json_paths(base) if isinstance(json_at(base, p), dict)]))
            key = data.draw(st.text(max_size=8).filter(lambda k: k not in KNOWN_KEYS))
            changed = json_replaced(base, path, {**json_at(base, path), key: data.draw(JSON_VALUES)})
        else:
            changed = json_replaced(base, data.draw(st.sampled_from(list(json_paths(base)))), data.draw(JSON_VALUES))
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "in.json", Path(tmp) / f"out.{suffix}"
            src.write_text(json.dumps(changed))
            code = main([*argv, "-i", str(src), "-o", str(out)])
            assert code == 2 if added else code in (0, 1, 2)
            assert out.exists() == (code != 2)


def outcome(write, value):
    """The text write gives for value, or the type of what it raises."""
    try:
        return write(value)
    except Exception as exc:
        return type(exc)


def json_text(value):
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


def report_dict(r: VerificationReport) -> dict:
    """The six fields of r under their JSON names, worst_z the complex location itself."""
    return {"check": r.check, "passed": r.passed, "worst_margin": r.worst_margin, "worst_z": r.worst_location,
            "tolerance": r.tolerance, "samples": r.samples}


REPORT_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf])
REPORTS = st.builds(
    VerificationReport,
    st.text(max_size=6) | st.sampled_from(["", "\x00", "\x1f", "\x7f", "\"", "\\", "é", "\u2028", "😀", "%s"]),
    REPORT_FLOATS,
    st.builds(complex, REPORT_FLOATS, REPORT_FLOATS),
    REPORT_FLOATS,
    st.integers(0, 2**63),
)


class TestDumps:
    """dumps writes a report, or the check document of a list of them, as json.dumps(..., indent=2) writes
    the report's six fields at 12 significant digits, or raises as it does; dumps_spec is json.dumps."""

    @given(REPORTS | st.lists(REPORTS, min_size=1, max_size=10))
    @settings(max_examples=400, deadline=None)
    def test_matches_json(self, value):
        if isinstance(value, VerificationReport):
            d = report_dict(value)
        else:
            d = {"checks": [report_dict(r) for r in value], "passed": all(r.passed for r in value)}
        assert outcome(dumps, value) == outcome(json_text, report_oracle(d))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), complex(0.0, float("inf"))])
    def test_rejects_non_finite(self, value):
        report = VerificationReport("x", 0.5, 0.1 + 0.2j, 1e-9, 3)
        fields = ["worst_location"] if isinstance(value, complex) else ["worst_margin", "worst_location", "tolerance"]
        for field in fields:
            bad = dataclasses.replace(report, **{field: value})
            for reports in (bad, [report, bad]):
                with pytest.raises(ValueError):
                    dumps(reports)

    def test_each_command_writes_through_one_call(self, example_path, tmp_path, monkeypatch):
        # the benchmark's tracer times report writing by wrapping serialize.dumps: one call per report file
        calls = []
        monkeypatch.setattr(cli, "dumps", lambda reports: calls.append(reports) or dumps(reports))
        out = tmp_path / "out.json"
        for argv in (["check", "--checks", "all"], ["cover", "--samples", "64"]):
            calls.clear()
            assert main([*argv, "-i", example_path, "-o", str(out)]) == 0
            assert len(calls) == 1 and out.read_text() == dumps(calls[0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_spec_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            dumps_spec({"beta": value})

    def test_spec_round_trips(self):
        values = [0.1 + 0.2, 1.0 - 2.0**-52, 5e-324, -1.2345678901234567e-300]
        assert json.loads(dumps_spec({"v": values}))["v"] == values


class TestConstruct:
    def test_canonicalizes_measure_spec(self, tmp_path):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        src.write_text(
            report_json({"mu": 1.0, "beta": 0.5, "measure": {"atoms": [{"angle": 0.0, "weight": 1.0}]}})
        )
        assert main(["construct", "-i", str(src), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["factors"][0]["node"] == [1.0, 0.0]

    def test_writes_prefactor_other_than_mu(self, tmp_path):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(CORE_SPEC))
        assert main(["construct", "-i", str(src), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["prefactor"] == [0.6, 0.0]
        assert load_function_spec(data) == load_function_spec(CORE_SPEC)

    def test_random_measure_generation(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["construct", "--seed", "7", "--samples", "4", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["atoms"]) == 4
        assert sum(a["weight"] for a in data["atoms"]) == pytest.approx(1.0)

    def test_default_sample_count(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["construct", "--seed", "7", "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["atoms"]) == 256

    def test_population_specs_pass_their_class(self, population, tmp_path):
        # the written spec is an input: loading it gives back the constructed floats,
        # and single-atom maps stay inside the class (12 digits moved them out)
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        for e in population:
            for params in (e.params, e.real_params):
                spec = {"mu": [params.mu.real, params.mu.imag], "beta": params.beta,
                        "measure": measure_spec(e.measure)}
                src.write_text(json.dumps(spec))
                assert main(["construct", "-i", str(src), "-o", str(out)]) == 0
                built, _ = load_function_spec(spec)
                f, loaded = load_function_spec(json.loads(out.read_text()))
                assert (f.prefactor, f.factors, loaded) == (built.prefactor, built.factors, params)
                assert check_derivative_disk(GridEvaluation(f), loaded).passed

    def test_random_measure_round_trips(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["construct", "--seed", "7", "--samples", "16", "-o", str(out)]) == 0
        assert json.loads(out.read_text()) == measure_spec(random_measure(16, 7))

    def test_needs_input_or_seed(self, capsys):
        assert main(["construct"]) == 2

    # --input reads neither flag, so giving one with it is a usage error
    @pytest.mark.parametrize("flags", [["--seed", "5"], ["--samples", "3"], ["--seed", "5", "--samples", "3"]])
    def test_input_rejects_seed_and_samples(self, flags, example_path, tmp_path):
        out = tmp_path / "out.json"
        assert main(["construct", "-i", example_path, *flags, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("angle", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_angle_rejected(self, angle, tmp_path, capsys):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        src.write_text(f'{{"mu": 1.0, "beta": 0.5, "measure": {{"atoms": [{{"angle": {angle}, "weight": 1.0}}]}}}}')
        assert main(["construct", "-i", str(src), "-o", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestCheck:
    def test_example_passes_all(self, example_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "-i", example_path, "-o", str(out), "--checks", "all"]) == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        names = [c["check"] for c in data["checks"]]
        assert "membership" in names
        assert "derivative-bounds" in names  # real mu in (0, 2]

    def test_dash_output_is_stdout(self, example_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "-i", example_path, "--checks", "all", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", "-i", example_path, "--checks", "all", "-o", "-"]) == 0
        text = capsys.readouterr().out
        assert text == out.read_text()
        assert json.loads(text)["passed"] is True

    def test_example_with_higher_order_fails(self, tmp_path):
        spec = dict(EXAMPLE_SPEC, beta=0.9)
        path = tmp_path / "bad.json"
        path.write_text(report_json(spec))
        out = tmp_path / "report.json"
        assert main(["check", "-i", str(path), "-o", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["passed"] is False
        assert data["checks"][0]["worst_margin"] < 0

    def test_zero_prefactor_spec_fails_with_a_report(self, tmp_path):
        # a zero prefactor's term is 0, but the grid's evaluation still takes Log(1 - z), which
        # distortion reads
        spec = {"mu": [1, 0], "beta": 0.5, "prefactor": [0, 0], "factors": [{"node": [0.6, 0.7], "exponent": [0.2, 0]}]}
        path, out = tmp_path / "zero.json", tmp_path / "report.json"
        path.write_text(report_json(spec))
        assert main(["check", "-i", str(path), "--checks", "membership,distortion,growth", "-o", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["passed"] is False and len(data["checks"]) == 3
        f, _ = load_function_spec(spec)
        assert f.prefactor == 0 and np.all(np.isfinite(GridEvaluation(f).log_1mz))

    def test_truncated_json_is_a_usage_error(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"mu": 1.0, "beta"')
        assert main(["check", "-i", str(path)]) == 2

    def test_missing_input_flag(self):
        assert main(["check"]) == 2

    def test_unknown_check_name(self, example_path):
        assert main(["check", "-i", example_path, "--checks", "nonsense"]) == 2

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_check_list(self, example_path, tmp_path, checks):
        out = tmp_path / "report.json"
        assert main(["check", "-i", example_path, "--checks", checks, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_rejected(self, example_path, tmp_path, tolerance):
        out = tmp_path / "report.json"
        argv = ["check", "-i", example_path, "--checks", "all", f"--tolerance={tolerance}", "-o", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["-100", "-1e-12"])
    def test_negative_tolerance_rejected(self, example_path, tmp_path, tolerance):
        # a tolerance below 0 would fail checks whose margins are positive
        out = tmp_path / "report.json"
        argv = ["check", "-i", example_path, "--checks", "all", f"--tolerance={tolerance}", "-o", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_zero_tolerance_accepted(self, example_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "-i", example_path, "--checks", "all", "--tolerance=0", "-o", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        # interior-identity is exact algebra, held to its own 1e-12
        assert all(c["tolerance"] == 0.0 for c in checks if c["check"] != "interior-identity")

    @pytest.mark.parametrize("flag", ["--grid-angles=0", "--grid-radii="])
    def test_zero_or_empty_grid_flag_rejected(self, example_path, tmp_path, flag):
        out = tmp_path / "report.json"
        assert main(["check", "-i", example_path, flag, "-o", str(out)]) == 2
        assert not out.exists()

    def test_negative_order_spec_skips_interior_identity(self, tmp_path, capsys):
        # mu = 1e-9*exp(i*acos(-4e-4)) is admitted, |mu - 1| - 1 = 4e-13 being within OMEGA_TOL, but the
        # interior map's order cos(arg mu) - |mu|*(1-beta)/2 is below 0: `all` skips interior-identity, as
        # it skips derivative-bounds for complex mu, and naming it exits 2
        spec = {"mu": [-4.000000000000281e-13, 9.999999199999968e-10], "beta": 0.5, "factors": []}
        path, out, named = tmp_path / "order.json", tmp_path / "report.json", tmp_path / "named.json"
        path.write_text(json.dumps(spec))
        assert main(["check", "-i", str(path), "--checks", "all", "-o", str(out)]) == 0
        names = [c["check"] for c in json.loads(out.read_text())["checks"]]
        assert len(names) == 7 and "interior-identity" not in names
        capsys.readouterr()
        assert main(["check", "-i", str(path), "--checks", "interior-identity", "-o", str(named)]) == 2
        assert "negative spirallike order" in capsys.readouterr().err and not named.exists()

    def test_derivative_bounds_on_complex_mu(self, population, tmp_path):
        entry = population[0]
        assert entry.params.mu.imag != 0.0
        path = tmp_path / "complex.json"
        path.write_text(report_json(function_spec(entry.f, entry.params)))
        assert main(["check", "-i", str(path), "--checks", "derivative-bounds"]) == 2
        out = tmp_path / "report.json"
        assert main(["check", "-i", str(path), "--checks", "all", "-o", str(out)]) == 0
        names = [c["check"] for c in json.loads(out.read_text())["checks"]]
        assert "derivative-bounds" not in names

    def test_beta_zero_member_passes_all(self, tmp_path):
        # mu = 2 at beta = 0, a member: every entry passes, derivative-bounds among them
        spec = {"mu": [2.0, 0.0], "beta": 0.0,
                "measure": {"atoms": [{"angle": 0.4, "weight": 0.6}, {"angle": -2.1, "weight": 0.4}]}}
        path, out = tmp_path / "beta-zero.json", tmp_path / "report.json"
        path.write_text(report_json(spec))
        assert main(["check", "-i", str(path), "--checks", "all", "-o", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert "derivative-bounds" in [c["check"] for c in checks] and all(c["passed"] for c in checks)

    # the checks whose margins overflow on the grid for OVERFLOW_SPEC, and their report names
    OVERFLOWING = {
        "all": "distortion-coefficient",
        "distortion": "distortion-coefficient",
        "schwarz": "schwarz",
        "value-bounds": "value-bounds",
        "derivative-bounds": "derivative-bounds",
    }

    @pytest.mark.parametrize("warning_action", ["default", "error"])
    @pytest.mark.parametrize("checks", list(OVERFLOWING))
    def test_overflowing_margins_rejected(self, tmp_path, capsys, checks, warning_action):
        # f = (1-z)/(1-z/2)**1e300 overflows on the grid: exit 2 naming the check, no file,
        # and no RuntimeWarning, so the same holds when warnings are errors
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json(OVERFLOW_SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action, RuntimeWarning)
            assert main(["check", "-i", str(src), "--checks", checks, "-o", str(out)]) == 2
        assert not out.exists()
        assert f"error: {self.OVERFLOWING[checks]}: margin not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("warning_action", ["default", "error"])
    def test_overflowing_values_fail_growth(self, tmp_path, warning_action):
        # growth compares logs, which stay finite where f = (1-z)/(1-z/2)**1e300 overflows:
        # exit 1 and a failing report with a finite rate, and no RuntimeWarning
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json(OVERFLOW_SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action, RuntimeWarning)
            assert main(["check", "-i", str(src), "--checks", "growth", "-o", str(out)]) == 1
        (report,) = json.loads(out.read_text())["checks"]
        assert report["check"] == "growth" and report["passed"] is False
        assert -1e301 < report["worst_margin"] < -1e299

    @pytest.mark.parametrize("warning_action", ["default", "error"])
    @pytest.mark.parametrize("checks", ["membership", "distortion", "all"])
    def test_overflowing_factor_sums_rejected(self, tmp_path, capsys, checks, warning_action):
        # f = (1-z)**(1 - 1e308): e*Log(1 - z) and -(e*c)/(1 - z) overflow near z = 1 in the
        # pass that runs before the first check; that pass is quiet too, so the check names
        # the overflow and exits 2
        spec = {"mu": 1, "beta": 0.5, "factors": [{"node": [1, 0], "exponent": [1e308, 0]}]}
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json(spec))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(warning_action, RuntimeWarning)
            assert main(["check", "-i", str(src), "--checks", checks, "-o", str(out)]) == 2
        assert seen == []
        assert not out.exists()
        name = "distortion-coefficient" if checks == "distortion" else "membership"
        assert f"error: {name}: margin not finite" in capsys.readouterr().err

    def test_overflowing_margins_rejected_with_warnings_as_errors(self, tmp_path):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json(OVERFLOW_SPEC))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "spiralcover.cli",
             "check", "-i", str(src), "--checks", "all", "-o", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: distortion-coefficient: margin not finite")
        assert not out.exists()

    def test_byte_identical_reports(self, example_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["check", "-i", example_path, "-o", str(a)])
        main(["check", "-i", example_path, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_parser_state_does_not_leak_between_calls(self, example_path, tmp_path):
        first, cover, last = tmp_path / "a.json", tmp_path / "c.json", tmp_path / "b.json"
        assert main(["check", "-i", example_path, "--checks", "all", "-o", str(first)]) == 0
        assert main(["cover", "-i", example_path, "--samples", "64", "-o", str(cover)]) == 0
        assert main(["check", "-i", example_path, "--checks", "all", "-o", str(last)]) == 0
        assert first.read_bytes() == last.read_bytes()

    # sha256 over the concatenated reports, recorded before the check table and
    # the array envelopes replaced the per-name dispatch and the per-point loop.
    # real-population-20 was re-recorded once: numpy's complex abs, division and
    # power round differently from Python scalars in the last bit, which moves
    # two derivative-bounds margins in the 12th digit.  population-20 and
    # real-population-20 were re-recorded once more when the kernel moved from
    # numpy's complex log to 0.5*log(x*x + y*y) and arctan2: three growth
    # margins and one value-bounds margin move in the 12th digit.
    # Recorded on numpy 2.4.6, Python 3.11.7, x86_64 Linux with numpy's SIMD
    # dispatch finding X86_V3, X86_V4, AVX512_ICL and AVX512_SPR.  The bytes
    # hold for that numpy build and dispatch; with the AVX512 paths disabled
    # (NPY_DISABLE_CPU_FEATURES) six growth margins of population-20 and
    # real-population-20 differ in the 12th digit.  wide-3 and
    # custom-grid-population-20 were recorded on the same build before the
    # checks came to share one evaluation of log f, f'/f and Log(1-z).
    # fine-grid-population-5 (8,194 points, above the 8,192-element block bound, so
    # growth takes one shift per block and every kernel call one factor) was recorded
    # on the same build before growth took its shifted logs from the one factor pass.
    # The five cases that run growth were re-recorded once more, on the same build,
    # when growth came to report the rate L(z, t)/t with its exact t -> 0+ row; the
    # entries of every other check kept their bytes.  core-map and mixed-exponents were
    # recorded on the same build before growth's real-parts pass came to take the
    # complex Log for every nonzero prefactor and to choose ln|base| alone once per map.
    # Every case kept its bytes when growth came to report its t -> 0+ row alone, with
    # no shifted grids: where growth passes, that row was already its worst rate.
    # real-population-20 and fine-grid-population-5 were re-recorded, on the same build,
    # when derivative-bounds stopped taking the margin simple_upper - upper, which reads
    # no map; only their derivative-bounds entries changed.
    # population-20, real-population-20 and custom-grid-population-20 were re-recorded, on the same
    # build, when schwarz came to read distortion's exponential exp(q/(1-beta)); only their schwarz
    # entries changed, by rounding, and no verdict.
    CHECK_DIGESTS = {
        "readme-example": "231a7b88856c2897b758a7608085d173f45eb9dcfa00af0760630a277b30710e",
        "core-map": "9618766e3b7bf7b1afd2c60a70890238c7b947a119d98a2a04f04cdc3de68d8b",
        "mixed-exponents": "4fde75fce62f4071aceb34a1d1b6064565aafc26d839a8930c136a39a61a0de5",
        "population-20": "c9e58403196c189eb6a51e851f729758cc9acdf26f5676c1c2d4e6851de7796c",
        "real-population-20": "931d4fe447a75158bec309df2aef04af127d9c3b05b82c682aad6c8b450fb07b",
        "distort-readme-example": "da3bc43b04818d05c9538e7b7b4452c11b21b712b6f72baca983c7355cb8ef41",
        "wide-3": "3c799146ccd3e20f621bcabf4b85093299d307fc3cba4b7172b6ced7083b493a",
        "custom-grid-population-20": "5ccca29b9164194eede61ae0693f307f04eb5553f8a8f7e146d73868917b2e75",
        "fine-grid-population-5": "ce12f677557ae1795dbcdf41b48ee1aa8cfd683d2443d5f27885b2df48c4eb9d",
    }

    @staticmethod
    def check_runs(kind, population):
        """The (argv, spec) runs of one kind of `check` input, in digest order; every run exits 0."""
        if kind == "distort-readme-example":
            # recorded when a `distort` subcommand ran these two checks
            return [(["check", "--checks", "distortion,derivative-disk"], EXAMPLE_SPEC)]
        if kind == "readme-example":
            return [(["check", "--checks", "all"], EXAMPLE_SPEC)]
        if kind == "core-map":
            # recorded when growth's shifted grids took the ratio map f/(1-z)**mu, here with the
            # real prefactor 0.6 - 1 = -0.4
            return [(["check", "--checks", "all"], CORE_SPEC)]
        if kind == "mixed-exponents":
            # recorded when growth's shifted grids took one factor per block on the default
            # grid and, on 8 points, both factors, one real exponent and one complex, in one
            argv = ["check", "--checks", "membership,growth"]
            small = ["--grid-radii", "0.5", "--grid-angles", "8"]
            return [(argv, MIXED_EXPONENTS_SPEC), ([*argv, *small], MIXED_EXPONENTS_SPEC)]
        if kind == "population-20":
            return [(["check", "--checks", "all"], function_spec(e.f, e.params)) for e in population[:20]]
        if kind == "real-population-20":
            return [(["check", "--checks", "all"], function_spec(e.real_f, e.real_params)) for e in population[:20]]
        if kind == "wide-3":
            return [(["check", "--checks", WIDE_CHECKS], spec) for spec in wide_specs()]
        if kind == "fine-grid-population-5":
            argv = ["check", "--checks", "all", "--grid-radii", "0.5,0.995", "--grid-angles", "4097"]
            pairs = [(f, p) for e in population[:5] for f, p in ((e.f, e.params), (e.real_f, e.real_params))]
            return [(argv, function_spec(f, p)) for f, p in pairs]
        argv = ["check", "--grid-radii", "0.2,0.9", "--grid-angles", "33", "--checks", "growth,schwarz,membership"]
        return [(argv, function_spec(e.f, e.params)) for e in population[:20]]

    @pytest.mark.parametrize("kind", sorted(CHECK_DIGESTS))
    def test_report_bytes_match_recorded_digest(self, kind, population, tmp_path):
        digest = hashlib.sha256()
        for k, (argv, spec) in enumerate(self.check_runs(kind, population)):
            src, out = tmp_path / f"in{k}.json", tmp_path / f"out{k}.json"
            src.write_text(report_json(spec))
            assert main([*argv, "-i", str(src), "-o", str(out)]) == 0
            digest.update(out.read_bytes())
        assert digest.hexdigest() == self.CHECK_DIGESTS[kind]


class TestSharedEvaluation:
    """`check` computes log f and f'/f once per invocation, in one pass, whichever checks it runs."""

    @pytest.fixture()
    def passes(self, monkeypatch):
        seen = []

        def spy(f, zz, dlog=False, log_1mz=None, _fn=verification._factor_sums):
            seen.append((zz.shape, dlog))
            return _fn(f, zz, dlog, log_1mz)

        monkeypatch.setattr(verification, "_factor_sums", spy)
        return seen

    WEDGE_RING = ("--grid-radii", "0.999", "--grid-angles", "512")

    @pytest.mark.parametrize(
        "kind, checks, flags, grids",
        [
            ("wide-64", WIDE_CHECKS, (), [(896, True)]),
            ("readme-example", "membership", (), [(896, True)]),
            # wedge-containment takes log f alone on its own 512-point ring
            ("readme-example", "all", (), [(896, True), (512, False)]),
            ("readme-example", "distortion", (), [(896, True)]),
            # growth reads the class margin, so the grid's one pass is all it takes
            ("readme-example", "growth", (), [(896, True)]),
            # wedge-containment alone reads only its ring, so the grid is not evaluated
            ("readme-example", "wedge-containment", (), [(512, False)]),
            # a grid that is the wedge ring is evaluated once, as the grid, with f'/f
            ("readme-example", "membership,wedge-containment", WEDGE_RING, [(512, True)]),
            ("readme-example", "wedge-containment", WEDGE_RING, [(512, True)]),
        ],
        ids=["wide-measure-checks", "membership", "all", "distortion", "growth", "wedge-containment",
             "ring-grid-membership-wedge", "ring-grid-wedge"],
    )
    def test_kernel_call_counts(self, passes, tmp_path, kind, checks, flags, grids):
        src = tmp_path / "in.json"
        src.write_text(report_json(wide_specs()[0] if kind == "wide-64" else EXAMPLE_SPEC))
        assert main(["check", "-i", str(src), "--checks", checks, *flags, "-o", str(tmp_path / "out.json")]) == 0
        # one pass over the factors per set of points a named check reads, with f'/f on the grid alone
        assert passes == [((n,), dlog) for n, dlog in grids]

    def test_class_margin_formed_once(self, monkeypatch, tmp_path):
        # membership, interior-identity and growth read one class margin, distortion and schwarz one
        # exp(q/(1-beta)), and distortion and value-bounds one q; nothing else is kept
        formed, kept = [], []

        def spy(ev, params, _fn=verification._class_margin):
            formed.append(ev.points.size)
            return _fn(ev, params)

        def once(memo, key, params, compute, _fn=verification._once):
            def record():
                kept.append((key, compute()))
                return kept[-1][1]

            return _fn(memo, key, params, record)

        monkeypatch.setattr(verification, "_class_margin", spy)
        monkeypatch.setattr(verification, "_once", once)
        src = tmp_path / "in.json"
        src.write_text(report_json(EXAMPLE_SPEC))
        for checks, margins, quantities in [("all", [896], ["class", "e", "q"]), ("distortion,schwarz", [], ["e", "q"])]:
            del formed[:], kept[:]
            assert main(["check", "-i", str(src), "--checks", checks, "-o", str(tmp_path / "out.json")]) == 0
            assert formed == margins
            assert sorted(key for key, _ in kept) == quantities and all(a.size == 896 for _, a in kept)

    def test_point_arrays_computed_once_per_process(self, monkeypatch, tmp_path):
        # the GridSpecs of the default grid and of the wedge ring keep Log(1-z) of their points, so a
        # second `check` takes the kernel for the blocks of factors alone, 2 factors x 896, then x 512,
        # and for the wedge's rotation, the logs of 1 - c_j
        src = tmp_path / "in.json"
        src.write_text(report_json(EXAMPLE_SPEC))
        argv = ["check", "-i", str(src), "--checks", "all", "-o", str(tmp_path / "out.json")]
        assert main(argv) == 0
        shapes = []

        def spy(w, work, log_mod, _fn=kernel._log_into):
            shapes.append(w.shape)
            _fn(w, work, log_mod)

        monkeypatch.setattr(kernel, "_log_into", spy)
        monkeypatch.setattr(functions, "_log_into", spy)
        assert main(argv) == 0
        assert shapes == [(2, 896), (2, 512), (2,)]

    @pytest.mark.parametrize("name", [name for name, c in verification._GRID_CHECKS.items() if c.grid is not None])
    def test_own_grid_reads_no_dlog(self, name, population):
        # `check` evaluates a check's own grid with dlog false: its margin reads no f'/f
        check = verification._GRID_CHECKS[name]
        for entry in population[:25]:
            for f, params in ((entry.f, entry.params), (entry.real_f, entry.real_params)):
                evs = [GridEvaluation(f, check.grid.points(), dlog=dlog) for dlog in (True, False)]
                assert evs[1].dlog_f is None
                reports = [dumps(getattr(verification, check.function)(ev, params)) for ev in evs]
                assert reports[0] == reports[1]

    def test_no_flag_is_the_default_grid(self):
        # DEFAULT_GRID itself, whose points are computed once per process
        args = cli._PARSER.parse_args(["check", "-i", "in.json"])
        assert cli._grid_from_args(args) is verification.DEFAULT_GRID
        args = cli._PARSER.parse_args(["check", "-i", "in.json", "--grid-angles", "128"])
        assert cli._grid_from_args(args) == verification.DEFAULT_GRID

    def test_unread_grid_is_not_computed(self, example_path, tmp_path):
        # 1e15 points could not be allocated; wedge-containment alone reads only its ring
        out = tmp_path / "out.json"
        argv = ["check", "-i", example_path, "--checks", "wedge-containment", "--grid-angles", "1000000000000000"]
        assert main([*argv, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["checks"][0]["samples"] == 512

    @pytest.mark.parametrize("checks", ["wedge-containment", "all"])
    def test_wedge_report_ignores_the_grid_flags(self, checks, example_path, tmp_path):
        reports = []
        # the last grid is the wedge ring itself, whose one pass takes f'/f as the grid's
        for k, grid in enumerate([[], ["--grid-radii", "0.5"], ["--grid-angles", "3"], SMALL_GRID, self.WEDGE_RING]):
            out = tmp_path / f"out{k}.json"
            assert main(["check", "-i", example_path, "--checks", checks, *grid, "-o", str(out)]) == 0
            reports.append(json.loads(out.read_text())["checks"][-1])
        assert reports[0]["check"] == "wedge-containment" and reports[0]["samples"] == 512
        assert all(r == reports[0] for r in reports)

    @pytest.mark.parametrize("name", ALL_CHECKS)
    def test_check_in_all_matches_check_alone(self, name, example_path, tmp_path):
        every, alone = tmp_path / "all.json", tmp_path / "alone.json"
        assert main(["check", "-i", example_path, "--checks", "all", "-o", str(every)]) == 0
        assert main(["check", "-i", example_path, "--checks", name, "-o", str(alone)]) == 0
        # every check applies to the README example, so the reports come in table order
        entry = json.loads(every.read_text())["checks"][ALL_CHECKS.index(name)]
        assert alone.read_text() == report_json({"checks": [entry], "passed": entry["passed"]})

    def test_cli_checks_are_the_table(self):
        # `check` keeps no list of its own: it runs the table's entries, each on the grid it names
        assert not hasattr(cli, "CHECKS")
        grids = {name: check.grid for name, check in verification._GRID_CHECKS.items()}
        assert grids == {**dict.fromkeys(ALL_CHECKS[:-1]), "wedge-containment": GridSpec((0.999,), 512)}

    # the |f'| envelopes are stated for real mu in (0, 2]: at its end, inside, just past it
    # within the admissible region's slack, and off the real axis
    @pytest.mark.parametrize(
        "mu, applies",
        [(2.0, True), (0.5, True), (2.0 + 1e-12, False), (1 + 0.5j, False), (1 - 0.5j, False)],
        ids=["two", "half", "past-two", "upper", "lower"],
    )
    def test_derivative_bounds_condition(self, mu, applies, tmp_path):
        spec = {"mu": [complex(mu).real, complex(mu).imag], "beta": 0.5, "factors": []}
        f, params = load_function_spec(spec)
        assert [name for name, c in verification._GRID_CHECKS.items() if not c.applies(params, f)] == (
            [] if applies else ["derivative-bounds"]
        )
        # `--checks all` reports in table order, wedge-containment last, and only what applies
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(dumps_spec(spec))
        assert main(["check", "-i", str(src), "--checks", "all", *SMALL_GRID, "-o", str(out)]) in (0, 1)
        expected = [c.report for name, c in verification._GRID_CHECKS.items() if applies or name != "derivative-bounds"]
        assert [c["check"] for c in json.loads(out.read_text())["checks"]] == expected
        assert expected[-1] == "wedge-containment"
        # named alone, a check that does not apply is a usage error
        out.unlink()
        code = main(["check", "-i", str(src), "--checks", "derivative-bounds", *SMALL_GRID, "-o", str(out)])
        assert (code, out.exists()) == ((0, True) if applies else (2, False))

    # the constant member f = 1 (a unit mass at 1, at beta = 0): its boundary exponent is 0, so the wedge's
    # rotation is undefined; `--checks all` passes the rest without wedge-containment, and naming it exits 2
    @pytest.mark.parametrize("mu", [[1.0, 0.0], [0.8, 0.5]], ids=["real-mu", "complex-mu"])
    def test_wedge_containment_condition(self, mu, tmp_path, capsys):
        spec = {"mu": mu, "beta": 0.0, "measure": {"atoms": [{"angle": 0.0, "weight": 1.0}]}}
        f, params = load_function_spec(spec)
        assert [name for name, c in verification._GRID_CHECKS.items() if not c.applies(params, f)] == (
            ["wedge-containment"] if mu[1] == 0.0 else ["derivative-bounds", "wedge-containment"]
        )
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(dumps_spec(spec))
        assert main(["check", "-i", str(src), "--checks", "all", "-o", str(out)]) == 0
        reports = json.loads(out.read_text())["checks"]
        assert "wedge-containment" not in [c["check"] for c in reports] and all(c["passed"] for c in reports)
        out.unlink()
        assert main(["check", "-i", str(src), "--checks", "wedge-containment", "-o", str(out)]) == 2
        assert not out.exists()
        assert "boundary exponent is 0; rotation undefined" in capsys.readouterr().err


class TestDistort:
    """The distortion-theorem reports come from `check` alone: `distort` is no command."""

    def test_example(self, example_path, tmp_path):
        out = tmp_path / "d.json"
        assert main(["check", "-i", example_path, "--checks", "distortion,derivative-disk", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        names = [c["check"] for c in data["checks"]]
        assert names == ["distortion-coefficient", "derivative-disk"]

    def test_distort_is_an_unknown_command(self, example_path, tmp_path, capsys):
        out = tmp_path / "d.json"
        with pytest.raises(SystemExit) as exc:
            main(["distort", "-i", example_path, "-o", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'distort'" in capsys.readouterr().err
        assert not out.exists()


class TestCover:
    def test_overflowing_turn_ratio_is_no_warning(self, tmp_path):
        # a factor of exponent -192 at |c| = 0.985: on |z| = 0.99, |f| runs from ~1e-308 to ~1e57,
        # so two adjacent segments of the boundary polygon differ in length by more than the float
        # range.  The decision takes no polygon: where e^v vanishes the margin is 1 - r_inner = 0.1,
        # the least of a 2**22-angle scan
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json({**EXAMPLE_SPEC, "factors": [{"node": [0.9, 0.4], "exponent": [-192, 0.0]}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["cover", "-i", str(src), "--samples", "32", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True and report["worst_margin"] == pytest.approx(0.1, abs=1e-9)

    def test_example_covering(self, example_path, tmp_path):
        out = tmp_path / "c.json"
        code = main(
            ["cover", "-i", example_path, "--r-inner", "0.95", "--rho", "0.999",
             "--samples", "128", "-o", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["samples"] == 128

    # sha256 over the concatenated `cover` reports at the README settings, recorded
    # when the decision moved from the winding test to the margin on |z| = rho
    # (numpy 2.4, x86_64); the exit codes stay those of the winding test
    COVER_DIGESTS = {
        "readme-example": "8f098e782df6ae31ff2e27f522f2d7e6ecbc18f8db89c6a5dda520148588ebee",
        "population-20": "4b903b0af80de2753578a24ce447164e987820e7dad1261352f9bfc32af3ecd8",
        "bare-power-5": "aa35b6730525f970ebc1b935c0a3a415d69c158f45d4252b036deb190f217f52",
    }

    @staticmethod
    def cover_specs(kind, population):
        """(specs, expected exit code) of one kind of `cover` input."""
        if kind == "readme-example":
            return [EXAMPLE_SPEC], 0
        if kind == "population-20":
            return [function_spec(e.f, e.params) for e in population[:20]], 0
        # (1-z)**(mu*b) declared with beta = b + 0.3: part of the declared core is not covered
        specs = []
        for e, b in zip(population[:5], (0.1, 0.2, 0.3, 0.4, 0.5)):
            mu = e.params.mu
            specs.append(
                {"mu": [mu.real, mu.imag], "beta": b + 0.3,
                 "prefactor": [(mu * b).real, (mu * b).imag], "factors": []}
            )
        return specs, 1

    @pytest.mark.parametrize("kind", sorted(COVER_DIGESTS))
    def test_report_bytes_match_recorded_digest(self, kind, population, tmp_path):
        specs, code = self.cover_specs(kind, population)
        digest = hashlib.sha256()
        for k, spec in enumerate(specs):
            src, out = tmp_path / f"in{k}.json", tmp_path / f"out{k}.json"
            src.write_text(report_json(spec))
            args = ["--r-inner", "0.95", "--rho", "0.999", "--samples", "512"]
            assert main(["cover", "-i", str(src), "-o", str(out), *args]) == code
            digest.update(out.read_bytes())
        assert digest.hexdigest() == self.COVER_DIGESTS[kind]

    def test_overflowing_curve_rejected(self, tmp_path):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json(OVERFLOW_SPEC))
        assert main(["cover", "-i", str(src), "-o", str(out)]) == 2
        assert not out.exists()

    def test_overflowing_curve_rejected_with_warnings_as_errors(self, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json(OVERFLOW_SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["cover", "-i", str(src), "-o", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: boundary curve overflows")

    @pytest.mark.parametrize("warning_action", ["default", "error"])
    def test_overflowing_winding_decided(self, tmp_path, capsys, warning_action):
        # the boundary polygon's cross products overflow, but the decision takes none: where
        # e^v vanishes the margin is 1 - r_inner = 0.05, the least of a 2**20-angle scan
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json(WINDING_OVERFLOW_SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action, RuntimeWarning)
            assert main(["cover", "-i", str(src), "-o", str(out), "--rho", "0.999", "--r-inner", "0.95"]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True and report["worst_margin"] == pytest.approx(0.05, abs=1e-9)
        assert capsys.readouterr().err == ""

    def test_beta_zero_rejected(self, tmp_path, capsys):
        # at beta = 0 the core map (1-z)**(mu*beta) is the constant 1, which covers no disk
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json({**EXAMPLE_SPEC, "beta": 0.0}))
        assert main(["cover", "-i", str(src), "-o", str(out)]) == 2
        assert not out.exists()
        assert "cover needs beta > 0" in capsys.readouterr().err

    def test_indeterminate_count_warned_not_written(self, example_path, tmp_path, capsys, monkeypatch):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        assert main(["cover", "-i", example_path, "-o", str(plain)]) == 0
        assert capsys.readouterr().err == ""
        covering = cli.check_covering
        monkeypatch.setattr(
            cli, "check_covering", lambda *a, **k: dataclasses.replace(covering(*a, **k), indeterminate=3)
        )
        assert main(["cover", "-i", example_path, "-o", str(marked)]) == 0
        assert capsys.readouterr().err == "warning: 3 undecided arc(s)\n"
        assert marked.read_bytes() == plain.read_bytes()


class TestEnvironment:
    # NPY_DISABLE_CPU_FEATURES is left out: it changes numpy's SIMD dispatch,
    # which moves some margins in the 12th digit (see the CHECK_DIGESTS note)
    ENVIRONMENTS = (
        {"PYTHONHASHSEED": "0", "LC_ALL": "C", "OMP_NUM_THREADS": "1", "SPIRALCOVER_THREADS": "1"},
        {"PYTHONHASHSEED": "4099", "LC_ALL": "C.UTF-8", "OMP_NUM_THREADS": "2", "SPIRALCOVER_THREADS": "2"},
    )

    def test_report_bytes_do_not_depend_on_environment(self, population, tmp_path):
        """`check --checks all` and a failing `cover` write the same bytes under each environment."""
        src = tmp_path / "in.json"
        src.write_text(report_json(function_spec(population[0].f, population[0].params)))
        # (1-z)**(mu*b) declared with a larger beta: a failing cover, whose worst margin is a failing sample
        failing = TestCover.cover_specs("bare-power-5", population)[0][0]
        (tmp_path / "fail.json").write_text(report_json(failing))
        runs = {
            "check": (["check", "-i", str(src), "--checks", "all"], 0),
            "cover": (["cover", "-i", str(tmp_path / "fail.json"), "--samples", "64"], 1),
        }
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        for name, (argv, code) in runs.items():
            outs = []
            for k, extra in enumerate(self.ENVIRONMENTS):
                out = tmp_path / f"{name}{k}.json"
                proc = subprocess.run(
                    [sys.executable, "-m", "spiralcover.cli", *argv, "-o", str(out)],
                    env={**env, **extra},
                    capture_output=True,
                )
                assert proc.returncode == code, proc.stderr
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], name


class TestSamples:
    @pytest.mark.parametrize("command", ["construct", "cover", "radius-table", "render"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_rejected(self, command, samples, example_path, tmp_path):
        out = tmp_path / "out.csv"
        argv = [command, "--samples", samples, "-o", str(out)]
        if command == "construct":
            argv += ["--seed", "7"]
        elif command != "radius-table":
            argv += ["-i", example_path]
        assert main(argv) == 2
        assert not out.exists()

    # 1e15 elements fail at allocation, whatever the machine: 8 PiB and more
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--grid-angles", "1000000000000000"],
            ["cover", "--samples", "1000000000000000"],
            ["construct", "--seed", "1", "--samples", "1000000000000000"],
            ["render", "--samples", "1000000000000000"],
            ["radius-table", "--samples", "1000000000000000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_too_large_to_allocate_rejected(self, argv, example_path, tmp_path, capsys):
        out = tmp_path / "out.json"
        if argv[0] not in ("construct", "radius-table"):
            argv = [*argv, "-i", example_path]
        assert main([*argv, "-o", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestUnreadFlags:
    # flags that the subcommand does not read
    @pytest.mark.parametrize(
        "argv",
        [
            ["cover", "--tolerance", "0.5"],
            ["radius-table", "--input", "missing.json"],
            ["check", "--rho", "0.5"],
            ["check", "--seed", "3"],
            ["check", "--samples", "9"],
            ["render", "--grid-radii", "0.5"],
            ["render", "--tolerance", "5"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_rejected_as_usage_error(self, argv, example_path, tmp_path):
        out = tmp_path / "out.txt"
        if argv[0] != "radius-table":
            argv = [*argv, "-i", example_path]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestRadiusTable:
    def test_table_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["radius-table", "-o", str(out), "--samples", "64"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,r_closed,r_numeric,chen_owa,ratio"
        assert len(lines) == 65
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        s1 = rows["1"]
        assert float(s1[1]) == 1.0
        assert float(s1[3]) == 0.25
        assert float(s1[4]) == 4.0
        s_half = rows["0.5"]
        assert float(s_half[1]) == pytest.approx(0.41421356237309515)
        s2 = rows["2"]
        assert float(s2[1]) == 1.0

    def test_disagreeing_columns_fail(self, tmp_path, capsys, monkeypatch):
        # a numeric minimum 1e-6 off the closed form: the table is written and the run fails
        gap = lambda s, t: np.full_like(t, (cli.covering_radius(s) + 1e-6) ** 2)
        monkeypatch.setattr(cli, "boundary_gap_profile", gap)
        out = tmp_path / "t.csv"
        assert main(["radius-table", "-o", str(out), "--samples", "4"]) == 1
        assert "radius columns disagree by 1e-06" in capsys.readouterr().err
        assert len(out.read_text().strip().split("\n")) == 5

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["radius-table", "-o", str(a), "--samples", "16"])
        main(["radius-table", "-o", str(b), "--samples", "16"])
        assert a.read_bytes() == b.read_bytes()


class TestRender:
    def test_two_curve_overlay(self, tmp_path):
        path = tmp_path / "overlay.json"
        path.write_text(report_json({"functions": [EXAMPLE_SPEC, CORE_SPEC], "labels": ["f", "core"]}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out), "--rho", "0.99"]) == 0
        svg = svg_text(out)
        assert svg.count("<path") == 2
        assert svg.startswith("<?xml")

    def test_covering_disk_circle(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(report_json({"functions": [CORE_SPEC], "covering_disk": True}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        assert svg_text(out).count("<circle") == 1

    # sha256 of the README overlay's SVG with its covering disk and wedge spirals,
    # recorded with the covering disk drawn from a Disk record (numpy 2.4, x86_64)
    OVERLAY_DIGEST = "17952495673532ded5a15ca01a3611f94177aeba01849e535d78d2fa19ff2c75"

    def test_readme_overlay_bytes_match_recorded_digest(self, tmp_path):
        path, out = tmp_path / "overlay.json", tmp_path / "fig.svg"
        path.write_text(report_json({"functions": [EXAMPLE_SPEC, CORE_SPEC], "covering_disk": True, "wedge": True}))
        assert main(["render", "-i", str(path), "-o", str(out), "--rho", "0.999"]) == 0
        svg = svg_text(out)
        assert svg.count("<circle") == 1 and svg.count("<path") == 4
        assert hashlib.sha256(svg.encode()).hexdigest() == self.OVERLAY_DIGEST

    def test_disk_about_one(self):
        # the circle sits at f(0) = 1 with the given radius, in the viewport of the curve and the disk
        curve = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
        svg = render_svg([curve], 0.25)
        circle = ElementTree.fromstring(svg.encode()).find("{http://www.w3.org/2000/svg}circle")
        # the viewport spans [-0.5, 1.25] plus a 5% margin each side on the 1024-pixel canvas
        scale = 1024.0 / (1.75 * 1.1)
        cx, cy, r = (float(circle.get(k)) for k in ("cx", "cy", "r"))
        assert cx == pytest.approx((1.0 + 0.5 + 0.0875) * scale)
        assert cy == pytest.approx(1024.0 - (0.0 + 0.5 + 0.0875) * scale)
        assert r == pytest.approx(0.25 * scale)

    def test_closed_curves_solid_and_spirals_dashed(self):
        # a closed curve's path ends in Z and is solid; a spiral's is open and dashed
        curve = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
        closed, spiral = ElementTree.fromstring(render_svg([curve], None, [0.5 * curve[:4]]).encode()).iter(
            "{http://www.w3.org/2000/svg}path"
        )
        assert closed.get("d").endswith(" Z") and closed.get("stroke-dasharray") is None
        assert not spiral.get("d").endswith("Z") and spiral.get("stroke-dasharray") == "6 4"
        assert closed.get("d").count("L") == 15 and spiral.get("d").count("L") == 3

    def test_nothing_to_render(self):
        with pytest.raises(ValueError, match="nothing to render"):
            render_svg([])

    def test_wedge_overlay(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(report_json({"functions": [EXAMPLE_SPEC], "wedge": True}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        assert svg_text(out).count("<path") == 3  # one curve + two spirals

    # the README's no-environment rule for text: files are read and written as UTF-8,
    # and stdout gets the file's bytes, under a UTF-8 locale and under plain ASCII
    LOCALES = (
        {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
        {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
    )

    def test_utf8_label_whatever_the_locale(self, tmp_path):
        src = tmp_path / "labelled.json"
        src.write_bytes(json.dumps({"functions": [EXAMPLE_SPEC], "labels": ["λ = 0.6"]}, ensure_ascii=False).encode())
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONIOENCODING", None)
        runs = []
        for k, extra in enumerate(self.LOCALES):
            out = tmp_path / f"fig{k}.svg"
            for target in (str(out), "-"):
                proc = subprocess.run(
                    [sys.executable, "-m", "spiralcover.cli", "render", "-i", str(src), "--samples", "64", "-o", target],
                    env={**env, **extra},
                    capture_output=True,
                )
                assert proc.returncode == 0, proc.stderr
            runs.append((out.read_bytes(), proc.stdout))
        assert "λ = 0.6".encode() in runs[0][0]
        assert runs[0][0] == runs[0][1]
        assert runs[1] == runs[0]

    def test_undecodable_input_is_a_usage_error(self, tmp_path, capsys):
        src, out = tmp_path / "utf16.json", tmp_path / "fig.svg"
        src.write_bytes(json.dumps({"functions": [EXAMPLE_SPEC], "labels": ["λ"]}, ensure_ascii=False).encode("utf-16"))
        assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert "cannot read JSON from" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"labels": [5]}, "'labels' must be a list of strings"),
            ({"labels": [None]}, "'labels' must be a list of strings"),
            ({"labels": "abc"}, "'labels' must be a list of strings"),
            ({"wedge": "no"}, "must be true or false"),
            ({"covering_disk": 1}, "must be true or false"),
            ({"functions": {}}, "'functions' must be a list of function specs"),
            ({"labels": ["a", "b", "c"], "wedge": True}, "more labels than function specs"),
        ],
        ids=[
            "number-label", "null-label", "string-labels", "string-wedge", "number-covering-disk", "object-functions",
            "labels-past-curves",
        ],
    )
    @pytest.mark.parametrize("suffix", ["svg", "csv"])
    def test_bad_options_rejected(self, options, message, suffix, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / f"out.{suffix}"
        src.write_text(report_json({"functions": [EXAMPLE_SPEC], **options}))
        assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_options_beside_one_spec(self, tmp_path):
        # a single spec may carry the options beside its own keys, as in {"functions": [spec]}
        options = {"covering_disk": True, "wedge": True, "labels": ["f"]}
        one, listed = tmp_path / "one.json", tmp_path / "listed.json"
        one.write_text(report_json({**CORE_SPEC, **options}))
        listed.write_text(report_json({"functions": [CORE_SPEC], **options}))
        for src in (one, listed):
            assert main(["render", "-i", str(src), "-o", str(src.with_suffix(".svg"))]) == 0
        assert one.with_suffix(".svg").read_bytes() == listed.with_suffix(".svg").read_bytes()

    @pytest.mark.parametrize(
        "data, key",
        [({"functions": [EXAMPLE_SPEC], "label": ["f"]}, "label"), ({"functions": [EXAMPLE_SPEC], **CORE_SPEC}, "mu")],
        ids=["misspelt-option", "spec-key"],
    )
    def test_unknown_key_rejected(self, data, key, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "fig.svg"
        src.write_text(report_json(data))
        assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert f"render input has unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_false_options_draw_nothing_extra(self, tmp_path):
        path = tmp_path / "one.json"
        options = {"covering_disk": False, "wedge": False, "labels": []}
        path.write_text(report_json({"functions": [EXAMPLE_SPEC], **options}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        svg = svg_text(out)
        assert svg.count("<path") == 1
        assert "<circle" not in svg and "<text" not in svg

    def test_five_curves_rejected(self, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "fig.svg"
        src.write_text(report_json({"functions": [EXAMPLE_SPEC] * 5}))
        assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert "at most 4 overlay curves" in capsys.readouterr().err
        assert not out.exists()

    def test_covering_disk_needs_real_mu_beta(self, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / "fig.svg"
        src.write_text(report_json({"functions": [{**EXAMPLE_SPEC, "mu": [1.0, 0.2]}], "covering_disk": True}))
        assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert "covering disk needs real mu*beta" in capsys.readouterr().err
        assert not out.exists()

    def test_covering_disk_needs_positive_beta(self, tmp_path, capsys):
        # at beta = 0 the core map (1-z)**(mu*beta) is constant and covers no disk
        src, out = tmp_path / "in.json", tmp_path / "fig.svg"
        spec = {"mu": [1, 0], "beta": 0.0, "factors": [{"node": [0.9, 0.4], "exponent": [0.5, 0]}]}
        src.write_text(report_json({**spec, "covering_disk": True}))
        assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert "covering disk needs beta > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_function_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(report_json({"functions": []}))
        assert main(["render", "-i", str(path), "-o", str(tmp_path / "x.svg")]) == 2

    def test_deterministic_output(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(report_json({"functions": [EXAMPLE_SPEC]}))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", "-i", str(path), "-o", str(a)])
        main(["render", "-i", str(path), "-o", str(b)])
        svg_text(a)
        assert a.read_bytes() == b.read_bytes()

    def test_label_text_is_escaped(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(report_json({"functions": [EXAMPLE_SPEC, CORE_SPEC], "labels": ["a<b & c", "plain"]}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        svg = svg_text(out)
        texts = [el.text for el in ElementTree.fromstring(svg.encode()).iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["a<b & c", "plain"]
        assert ">plain</text>" in svg

    def test_unwritable_output(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(report_json({"functions": [EXAMPLE_SPEC]}))
        assert main(["render", "-i", str(path), "-o", str(tmp_path / "no" / "dir.svg")]) == 2

    def test_curve_csv_output(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(report_json(EXAMPLE_SPEC))
        out = tmp_path / "curve.csv"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "re,im"
        assert len(lines) >= 257

    @pytest.mark.parametrize("suffix", ["svg", "csv"])
    def test_overflowing_curve_rejected(self, suffix, tmp_path):
        # exp(log f) overflows on |z| = rho: exit 2 before any file is written
        src, out = tmp_path / "in.json", tmp_path / f"out.{suffix}"
        src.write_text(report_json(OVERFLOW_SPEC))
        assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("suffix", ["svg", "csv"])
    def test_overflowing_curve_rejected_with_warnings_as_errors(self, suffix, tmp_path, capsys):
        src, out = tmp_path / "in.json", tmp_path / f"out.{suffix}"
        src.write_text(report_json(OVERFLOW_SPEC))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: boundary curve overflows")

    @pytest.mark.parametrize(
        "options", [{"wedge": True}, {"covering_disk": True}, {"labels": ["f"]}],
        ids=["wedge", "covering-disk", "labels"],
    )
    def test_curve_csv_rejects_drawn_options(self, options, tmp_path, capsys, monkeypatch):
        # the options are drawn in SVG only: CSV output exits 2 before any curve is sampled
        src, out = tmp_path / "in.json", tmp_path / "curve.csv"
        src.write_text(report_json({"functions": [EXAMPLE_SPEC], **options}))
        sampled = []
        monkeypatch.setattr(cli, "boundary_curve", lambda *args, **kwargs: sampled.append(args))
        assert main(["render", "-i", str(src), "-o", str(out)]) == 2
        assert "CSV output takes exactly one curve and no covering_disk, wedge or labels" in capsys.readouterr().err
        assert not out.exists() and not sampled

    def test_curve_csv_takes_false_options(self, tmp_path):
        plain, opts = tmp_path / "plain.json", tmp_path / "opts.json"
        plain.write_text(report_json(EXAMPLE_SPEC))
        opts.write_text(report_json({**EXAMPLE_SPEC, "covering_disk": False, "wedge": False, "labels": []}))
        for src in (plain, opts):
            assert main(["render", "-i", str(src), "-o", str(src.with_suffix(".csv"))]) == 0
        assert plain.with_suffix(".csv").read_bytes() == opts.with_suffix(".csv").read_bytes()

    def test_curve_csv_rejects_multiple(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(report_json({"functions": [EXAMPLE_SPEC, CORE_SPEC]}))
        assert main(["render", "-i", str(path), "-o", str(tmp_path / "x.csv")]) == 2
