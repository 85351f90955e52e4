"""Near-misses whose true verdict is fixed by construction, not by running the checks.

Each wrong answer of today's code is an xfail(strict=True) test, so the fix
that mends it must flip the test.  Beside each stands a passing test of the
construction itself.
"""

import cmath
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


class TestCoreNearTheCircle:
    # the core of G(1, 0.5), (1-z)**0.5, at r_inner = 0.999 and rho = 0.99999: on |z| = rho the core's inverse
    # gives 1 - e^v = z, so M = rho - r_inner = 0.00099 on the whole circle.  From 512 start arcs no arc bound
    # reaches half of it before the 16*max(m, 64) evaluations run out (passes of 512, 512, 1,024, 2,048 and
    # 4,096), and 2 arcs are left undecided at bound -1.999
    PARAMS = sc.ClassParams(1.0, 0.5)
    CORE = sc.core_function(PARAMS)

    def test_core_covers_itself_on_nested_disks(self):
        # core(|zeta| <= 0.999) lies in core(|z| < 0.99999): the core's inverse takes core(z) back to z
        z = 0.99999 * np.exp(2j * np.pi * np.arange(4096) / 4096)
        zeta = 1.0 - np.exp(sc.eval_log(self.CORE, z) / (self.PARAMS.mu * self.PARAMS.beta))
        assert np.abs(zeta - z).max() <= 1e-12
        report = sc.check_covering(self.CORE, self.PARAMS, 0.999, 0.99999, 4096)
        assert report.passed and abs(report.worst_margin - 0.00099) <= 1e-12

    @pytest.mark.xfail(strict=True, reason="from 512 start arcs the bisection budget runs out before M = 0.00099 is certified")
    def test_cover_passes_from_512_start_arcs(self):
        assert sc.check_covering(self.CORE, self.PARAMS, 0.999, 0.99999, 512).passed


class TestAtomNearAngleZero:
    # the core of G(1, 0.05) written as a measure with its atom at angle 1e-11: its node 1 - 1e-11i lies outside
    # NODE_TOL of 1, so it keeps its own pole in the arc bound, where P = 1/beta and the exponent no longer cancel,
    # and 20 arcs are left undecided at worst margin -0.0944.  ROADMAP item 31's record, with its rounding rule for
    # the node at 1, mends it
    PARAMS = sc.ClassParams(1, 0.05)
    SPEC = {"mu": [1, 0], "beta": 0.05, "measure": {"atoms": [{"angle": 1e-11, "weight": 1}]}}

    def test_every_check_passes(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(self.SPEC))
        assert main(["check", "-i", str(src), "--checks", "all", "-o", str(tmp_path / "out.json")]) == 0

    def test_atom_at_angle_zero_covers(self):
        f = sc.construct(self.PARAMS, sc.make_measure([(1.0, 1)]))
        report = sc.check_covering(f, self.PARAMS, 0.9, 0.99, 256)
        assert report.passed and abs(report.worst_margin - 0.09) <= 1e-12

    @pytest.mark.xfail(strict=True, reason="a node 1e-11 from 1 keeps its own pole in the arc bound")
    def test_cover_passes(self):
        f = sc.construct(self.PARAMS, sc.make_measure([(cmath.exp(1e-11j), 1)]))
        assert sc.check_covering(f, self.PARAMS, 0.9, 0.99, 256).passed


class TestMemberNearTheCircle:
    # a one-atom member whose node 0.99964663 - 0.02658218i lies 0.0266 from 1: at r_inner = 0.999 and
    # rho = 0.99999 from 512 start arcs the bisection budget runs out, as for TestCoreNearTheCircle, with
    # 52 arcs undecided at bound -1.999.  ROADMAP items 9 and 14 mend it
    PARAMS = sc.ClassParams(0.9397012195347239 + 0.02439756900937313j, 0.621046028061495)
    F = sc.construct(PARAMS, sc.random_measure(1, 179135429))

    def test_covers_from_1024_start_arcs(self):
        report = sc.check_covering(self.F, self.PARAMS, 0.999, 0.99999, 1024)
        assert report.passed and report.worst_margin >= 0.99999 - 0.999

    @pytest.mark.xfail(strict=True, reason="from 512 start arcs the bisection budget runs out before the margin is certified")
    def test_cover_passes_from_512_start_arcs(self):
        assert sc.check_covering(self.F, self.PARAMS, 0.999, 0.99999, 512).passed
