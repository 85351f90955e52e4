"""Near-misses whose true verdict is fixed by construction, not by running the checks.

Each wrong answer of today's code is an xfail(strict=True) test, so the fix
that mends it must flip the test.  Beside each stands a passing test of the
construction itself.
"""

import json
import math

import numpy as np
import pytest

import spiralcover as sc
from spiralcover.cli import main
from spiralcover.serialize import load_function_spec

from conftest import growth_shifts, reference_growth_margin, report_json

# the extremal of G(1, 0.5) with its atom at angle pi + pi/128, declared with a beta above
# 0.5: the class margin's minimum on |z| = 0.995 lies halfway between two default grid angles
BETWEEN_ANGLES_SPEC = {
    "mu": [1.0, 0.0],
    "beta": 0.501253227200744,
    "factors": [{"node": [-0.9996988186962042, 0.02454122852291208], "exponent": [0.5, 0.0]}],
}


def run_membership(tmp_path, *grid) -> int:
    src = tmp_path / "in.json"
    src.write_text(report_json(BETWEEN_ANGLES_SPEC))
    return main(["check", "-i", str(src), "--checks", "membership", *grid, "-o", str(tmp_path / "out.json")])


class TestBetweenGridAngles:
    def test_fine_ring_finds_the_map_outside_its_class(self, tmp_path):
        assert run_membership(tmp_path, "--grid-radii", "0.995", "--grid-angles", "4096") == 1

    @pytest.mark.xfail(strict=True, reason="the default grid passes a map whose margin dips between its angles")
    def test_default_grid_does_not_pass(self, tmp_path):
        assert run_membership(tmp_path) != 0


class TestPointOnTheTrueCurve:
    # the README worked example on |z| = 0.999: of 200,000 equally spaced angles this one
    # maps farthest from the polygon that boundary_curve samples.  A point on the true
    # curve cannot be placed by a polygon whose gap to the curve exceeds the guard.
    F = sc.ProductForm(1.0, ((0.9 + 0.4j, 0.2), (0.9 - 0.4j, 0.2)))
    RHO = 0.999
    THETA = 2.0 * math.pi * 186476 / 200000

    def on_curve_point(self) -> complex:
        return sc.evaluate(self.F, self.RHO * complex(math.cos(self.THETA), math.sin(self.THETA)))

    def test_point_lies_far_outside_the_guard(self):
        poly = sc.boundary_curve(self.F, self.RHO)
        _, indeterminate, dists = sc.winding_numbers(poly, [self.on_curve_point()])
        assert not indeterminate[0]
        assert dists[0] > 7e-4

    @pytest.mark.xfail(strict=True, reason="the winding test treats the polygon as the curve")
    def test_winding_test_is_indeterminate(self):
        _, indeterminate, _ = sc.winding_numbers(sc.boundary_curve(self.F, self.RHO), [self.on_curve_point()])
        assert indeterminate[0]


# the extremal of G(1 + 0.5i, 0) with its atom at -1, declared with beta = 0.003: the
# growth rate L(z, t)/t tends to (|mu|/2)*class margin as t -> 0, which is negative at
# z = 0.995, but it turns positive again before t = 2*cos(phi)/33, the first of the 32
# shifts the tests sample (conftest.growth_shifts)
BETWEEN_T_SPEC = {"mu": [1.0, 0.5], "beta": 0.003, "factors": [{"node": [-1.0, 0.0], "exponent": [1.0, 0.5]}]}


class TestBetweenTSamples:
    F, PARAMS = load_function_spec(BETWEEN_T_SPEC)
    COS2 = 2.0 * math.cos(PARAMS.phi)

    def test_margin_dips_below_the_first_sampled_t(self):
        rate = reference_growth_margin(sc.GridEvaluation(self.F, 0.995), self.PARAMS, [0.1 * self.COS2 / 33.0])
        assert -1.06e-4 < rate.item() < -1.04e-4

    @pytest.mark.parametrize("grid", [sc.DEFAULT_GRID, sc.GridSpec((0.995,), 4096)], ids=["default-grid", "ring"])
    def test_sampled_t_pass(self, grid):
        ev = sc.GridEvaluation(self.F, grid.points())
        assert reference_growth_margin(ev, self.PARAMS, growth_shifts(self.PARAMS)).min() > 4e-5

    def test_growth_check_does_not_pass(self, tmp_path):
        # the t -> 0+ row, (|mu|/2)*class margin, is the worst rate: -2.76e-4 at z = 0.995
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(report_json(BETWEEN_T_SPEC))
        assert main(["check", "-i", str(src), "--checks", "growth", "-o", str(out)]) == 1
        (report,) = json.loads(out.read_text())["checks"]
        assert report["worst_z"] == [0.995, 0.0]
        assert -2.77e-4 < report["worst_margin"] < -2.75e-4


# the README worked example declared with beta = 0.6035 in place of 0.6: the default grid's
# worst class margin, +7.306e-4 at its outer ring z = -0.995, hides a dip below zero nearer
# the circle, as the margin is harmonic and its infimum lies on |z| = 1
README_NEAR_MISS_SPEC = {
    "mu": 1.0,
    "beta": 0.6035,
    "factors": [
        {"node": [0.9, 0.4], "exponent": [0.2, 0.0]},
        {"node": [0.9, -0.4], "exponent": [0.2, 0.0]},
    ],
}


class TestReadmeMapNearMiss:
    F, PARAMS = load_function_spec(README_NEAR_MISS_SPEC)

    def test_class_margin_is_negative_near_minus_one(self):
        margin = sc.class_margin(sc.GridEvaluation(self.F, -0.9999), self.PARAMS)
        assert -3.0e-4 < margin.item() < -2.9e-4

    @pytest.mark.xfail(strict=True, reason="the default grid passes a map whose margin dips outside its outer ring")
    def test_membership_check_does_not_pass(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(report_json(README_NEAR_MISS_SPEC))
        assert main(["check", "-i", str(src), "--checks", "membership", "-o", str(tmp_path / "out.json")]) != 0


# the README worked example declared with beta = 0.6171 in place of 0.6: on the default grid
# the worst margin of 1 - |lambda|, +1.352e-4 at its outer ring z = -0.995, hides |lambda| > 1
# nearer the circle, where the map's own distortion coefficient leaves the closed disk
DISTORTION_NEAR_MISS_SPEC = {**README_NEAR_MISS_SPEC, "beta": 0.6171}


def run_distortion(tmp_path, *grid) -> tuple[int, dict]:
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(report_json(DISTORTION_NEAR_MISS_SPEC))
    code = main(["check", "-i", str(src), "--checks", "distortion", *grid, "-o", str(out)])
    return code, json.loads(out.read_text())["checks"][0]


class TestReadmeMapDistortionNearMiss:
    F, PARAMS = load_function_spec(DISTORTION_NEAR_MISS_SPEC)

    def test_coefficient_leaves_the_disk_near_minus_one(self):
        margin = 1.0 - abs(sc.distortion_coefficient(sc.GridEvaluation(self.F, -0.9999), self.PARAMS).item())
        assert -4.32e-5 < margin < -4.30e-5

    def test_fine_ring_finds_the_coefficient_outside_the_disk(self, tmp_path):
        code, report = run_distortion(tmp_path, "--grid-radii", "0.999", "--grid-angles", "4096")
        assert (code, report["passed"]) == (1, False)
        assert report["worst_z"][0] == -0.999
        assert -1.04e-5 < report["worst_margin"] < -1.03e-5

    @pytest.mark.xfail(strict=True, reason="the default grid passes a map whose |lambda| exceeds 1 outside its outer ring")
    def test_distortion_check_does_not_pass(self, tmp_path):
        assert run_distortion(tmp_path)[0] != 0


class TestReadmeMapCoveringNearMiss:
    # the same map, declared with beta = 0.6171: core(D) is not inside f(D), yet `cover` tests the
    # compact statement core(|z| <= r_inner) in f(|z| < rho), which holds at its defaults
    F, PARAMS = load_function_spec(DISTORTION_NEAR_MISS_SPEC)
    F_AT_MINUS_ONE = 2.0 / 3.77**0.2  # 2/|1 + c|**0.4 with c = 0.9 + 0.4i

    def test_core_value_lies_outside_the_image(self):
        # f has real coefficients and meets the class inequality of G(1, 0.6), so it is univalent and
        # f(D) meets (0, inf) in f((-1, 1)) = (0, f(-1)), f decreasing on (-1, 1)
        ring = sc.GridSpec((0.9, 0.99, 0.999), 1024).points()
        assert sc.class_margin(sc.GridEvaluation(self.F, ring), sc.ClassParams(1.0, 0.6)).min() > 0.0
        x = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 2001)
        values = sc.evaluate(self.F, x)
        assert np.all(np.abs(values.imag) <= 1e-15 * np.abs(values)) and np.all(np.diff(values.real) < 0.0)
        assert values[0].real == pytest.approx(self.F_AT_MINUS_ONE, rel=1e-8)
        # core(-0.99999) = 1.99999**0.6171 = 1.5337842 lies beyond f(-1) = 1.5337753
        core = sc.evaluate(sc.core_function(self.PARAMS), -0.99999)
        assert core.imag == 0.0 and core.real == pytest.approx(1.99999**0.6171, rel=1e-14)
        assert core.real - self.F_AT_MINUS_ONE > 8e-6

    @pytest.mark.xfail(strict=True, reason="cover decides core(|z| <= 0.9) in f(|z| < 0.99), which holds, not core(D) in f(D)")
    def test_cover_does_not_pass(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(report_json(DISTORTION_NEAR_MISS_SPEC))
        assert main(["cover", "-i", str(src), "-o", str(tmp_path / "out.json")]) != 0
