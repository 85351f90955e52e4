import hashlib
import json
from xml.etree import ElementTree

import pytest

from spiralcover.cli import main
from spiralcover.serialize import dumps, load_function_spec

EXAMPLE_SPEC = {
    "mu": 1.0,
    "beta": 0.6,
    "factors": [
        {"node": [0.9, 0.4], "exponent": [0.2, 0.0]},
        {"node": [0.9, -0.4], "exponent": [0.2, 0.0]},
    ],
}

CORE_SPEC = {"mu": 1.0, "beta": 0.6, "prefactor": [0.6, 0.0], "factors": []}


@pytest.fixture()
def example_path(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(dumps(EXAMPLE_SPEC))
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


class TestConstruct:
    def test_canonicalizes_measure_spec(self, tmp_path):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        src.write_text(
            dumps({"mu": 1.0, "beta": 0.5, "measure": {"atoms": [{"angle": 0.0, "weight": 1.0}]}})
        )
        assert main(["construct", "-i", str(src), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["factors"][0]["node"] == [1.0, 0.0]

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

    def test_needs_input_or_seed(self, capsys):
        assert main(["construct"]) == 2


class TestCheck:
    def test_example_passes_all(self, example_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", "-i", example_path, "-o", str(out), "--checks", "all"]) == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        names = [c["check"] for c in data["checks"]]
        assert "membership" in names
        assert "derivative-bounds" in names  # real mu in (0, 2]

    def test_example_with_higher_order_fails(self, tmp_path):
        spec = dict(EXAMPLE_SPEC, beta=0.9)
        path = tmp_path / "bad.json"
        path.write_text(dumps(spec))
        out = tmp_path / "report.json"
        assert main(["check", "-i", str(path), "-o", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["passed"] is False
        assert data["checks"][0]["worst_margin"] < 0

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

    def test_derivative_bounds_on_complex_mu(self, population, tmp_path):
        entry = population[0]
        assert entry.params.mu.imag != 0.0
        path = tmp_path / "complex.json"
        path.write_text(dumps(entry.f.to_dict(entry.params)))
        assert main(["check", "-i", str(path), "--checks", "derivative-bounds"]) == 2
        out = tmp_path / "report.json"
        assert main(["check", "-i", str(path), "--checks", "all", "-o", str(out)]) == 0
        names = [c["check"] for c in json.loads(out.read_text())["checks"]]
        assert "derivative-bounds" not in names

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
    # the array envelopes replaced the per-name dispatch and the per-point loop
    # (numpy 2.4, x86_64).  real-population-20 was re-recorded once: numpy's
    # complex abs, division and power round differently from Python scalars in
    # the last bit, which moves two derivative-bounds margins in the 12th digit.
    CHECK_DIGESTS = {
        "readme-example": "1002f5d999d8ec6f82df35c1af1a37f98febda02e0a1a0d2879c85c83cc74bee",
        "population-20": "81b591b133d1cb98f20f6d30435cda136b19046783d8f2092453d604e89554e0",
        "real-population-20": "e037d6f294ca0a4bc39597bb7b55d7029db9affd53d7f53769ef555d484c12a3",
        "distort-readme-example": "da3bc43b04818d05c9538e7b7b4452c11b21b712b6f72baca983c7355cb8ef41",
    }

    @pytest.mark.parametrize("kind", sorted(CHECK_DIGESTS))
    def test_report_bytes_match_recorded_digest(self, kind, population, tmp_path):
        argv = ["check", "--checks", "all"]
        if kind == "distort-readme-example":
            argv, specs = ["distort"], [EXAMPLE_SPEC]
        elif kind == "readme-example":
            specs = [EXAMPLE_SPEC]
        elif kind == "population-20":
            specs = [e.f.to_dict(e.params) for e in population[:20]]
        else:
            specs = [e.real_f.to_dict(e.real_params) for e in population[:20]]
        digest = hashlib.sha256()
        for k, spec in enumerate(specs):
            src, out = tmp_path / f"in{k}.json", tmp_path / f"out{k}.json"
            src.write_text(dumps(spec))
            assert main([*argv, "-i", str(src), "-o", str(out)]) == 0
            digest.update(out.read_bytes())
        assert digest.hexdigest() == self.CHECK_DIGESTS[kind]


class TestDistort:
    def test_example(self, example_path, tmp_path):
        out = tmp_path / "d.json"
        assert main(["distort", "-i", example_path, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        names = [c["check"] for c in data["checks"]]
        assert names == ["distortion-coefficient", "derivative-disk"]


class TestCover:
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

    # sha256 over the concatenated `cover` reports at the README settings,
    # recorded with the dense winding test (numpy 2.4, x86_64): the pruned
    # winding test must reproduce them byte for byte
    COVER_DIGESTS = {
        "readme-example": "e97c98b87ada63013b2c209f24f9f8adb067a55f2744d4777c90c2b348382e19",
        "population-20": "57a36c311e99130118be46f80fccc40ffeacbdcbc7cc828105220872c7cfcb4b",
        "bare-power-5": "a51b0c60217ef484d70eca46be457302a982cfa99f3925e1ccecbb890f0d026f",
    }

    @staticmethod
    def cover_specs(kind, population):
        """(specs, expected exit code) of one kind of `cover` input."""
        if kind == "readme-example":
            return [EXAMPLE_SPEC], 0
        if kind == "population-20":
            return [e.f.to_dict(e.params) for e in population[:20]], 0
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
            src.write_text(dumps(spec))
            args = ["--r-inner", "0.95", "--rho", "0.999", "--samples", "512"]
            assert main(["cover", "-i", str(src), "-o", str(out), *args]) == code
            digest.update(out.read_bytes())
        assert digest.hexdigest() == self.COVER_DIGESTS[kind]

    def test_report_ignores_thread_variable(self, population, tmp_path, monkeypatch):
        # a failing input: its worst margin is that of a failing sample
        specs, _ = self.cover_specs("bare-power-5", population)
        src = tmp_path / "in.json"
        src.write_text(dumps(specs[0]))
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SPIRALCOVER_THREADS", threads)
            outs.append(tmp_path / f"out{threads}.json")
            assert main(["cover", "-i", str(src), "--samples", "64", "-o", str(outs[-1])]) == 1
        assert outs[0].read_bytes() == outs[1].read_bytes()


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

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["radius-table", "-o", str(a), "--samples", "16"])
        main(["radius-table", "-o", str(b), "--samples", "16"])
        assert a.read_bytes() == b.read_bytes()


class TestRender:
    def test_two_curve_overlay(self, tmp_path):
        path = tmp_path / "overlay.json"
        path.write_text(dumps({"functions": [EXAMPLE_SPEC, CORE_SPEC], "labels": ["f", "core"]}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out), "--rho", "0.99"]) == 0
        svg = svg_text(out)
        assert svg.count("<path") == 2
        assert svg.startswith("<?xml")

    def test_covering_disk_circle(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(dumps({"functions": [CORE_SPEC], "covering_disk": True}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        assert "<circle" in svg_text(out)

    def test_wedge_overlay(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(dumps({"functions": [EXAMPLE_SPEC], "wedge": True}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        assert svg_text(out).count("<path") == 3  # one curve + two spirals

    def test_empty_function_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(dumps({"functions": []}))
        assert main(["render", "-i", str(path), "-o", str(tmp_path / "x.svg")]) == 2

    def test_deterministic_output(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(dumps({"functions": [EXAMPLE_SPEC]}))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", "-i", str(path), "-o", str(a)])
        main(["render", "-i", str(path), "-o", str(b)])
        svg_text(a)
        assert a.read_bytes() == b.read_bytes()

    def test_label_text_is_escaped(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(dumps({"functions": [EXAMPLE_SPEC], "labels": ["a<b & c", "plain"]}))
        out = tmp_path / "fig.svg"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        svg = svg_text(out)
        texts = [el.text for el in ElementTree.fromstring(svg.encode()).iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["a<b & c", "plain"]
        assert ">plain</text>" in svg

    def test_unwritable_output(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(dumps({"functions": [EXAMPLE_SPEC]}))
        assert main(["render", "-i", str(path), "-o", str(tmp_path / "no" / "dir.svg")]) == 2

    def test_curve_csv_output(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(dumps(EXAMPLE_SPEC))
        out = tmp_path / "curve.csv"
        assert main(["render", "-i", str(path), "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "re,im"
        assert len(lines) >= 257

    def test_curve_csv_rejects_multiple(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(dumps({"functions": [EXAMPLE_SPEC, CORE_SPEC]}))
        assert main(["render", "-i", str(path), "-o", str(tmp_path / "x.csv")]) == 2
