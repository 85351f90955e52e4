"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time
from xml.etree import ElementTree

import numpy as np
import pytest

import spiralcover as sc
from spiralcover.cli import main

from conftest import MASTER_SEED, draw_params, report_json
from radial_oracles import boundary_exponent_radial, boundary_rotation_radial


def report(criterion: str, detail: str):
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_criterion_01_membership_suite(population):
    """100 seeded random measures with random admissible parameters all
    pass the membership scan on the default grid in under 10 s."""
    t0 = time.perf_counter()
    worst = math.inf
    for entry in population:
        rep = sc.check_membership(sc.GridEvaluation(entry.f), entry.params)
        assert rep.passed, (entry.params, rep.worst_margin)
        worst = min(worst, rep.worst_margin)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"membership suite took {elapsed:.1f}s"
    assert worst >= -1e-9
    report("criterion 1 (membership suite)", f"worst margin {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_distortion_suite(population):
    """Distortion coefficient stays in the closed unit disk and the
    derivative functional stays in its disk; extremals are sharp."""
    pts = sc.DEFAULT_GRID.points()
    worst_lam, worst_disk = math.inf, math.inf
    for entry in population:
        lam = sc.distortion_coefficient(sc.GridEvaluation(entry.f, pts), entry.params)
        worst_lam = min(worst_lam, float(np.min(1.0 - np.abs(lam))))
        value, center, radius = sc.derivative_functional(sc.GridEvaluation(entry.f, pts), entry.params)
        worst_disk = min(worst_disk, float(np.min(radius - np.abs(value - center))))
    assert worst_lam >= -1e-9
    assert worst_disk >= -1e-9

    rng = np.random.default_rng(MASTER_SEED + 99)
    for _ in range(10):
        params = draw_params(rng)
        xi = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        f = sc.extremal(params, xi)
        lam = sc.distortion_coefficient(sc.GridEvaluation(f, pts), params)
        assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-9
        value, center, radius = sc.derivative_functional(sc.GridEvaluation(f, 0.0), params)
        assert abs(abs(value - center) - radius) <= 1e-9
    report(
        "criterion 2 (distortion suite)",
        f"worst |lambda| margin {worst_lam:.3e}, worst disk margin {worst_disk:.3e}",
    )


def test_criterion_03_bound_suite(population):
    """All five modulus/argument envelopes plus the derivative envelopes
    hold on the real-parameter population; extremals achieve the
    modulus equalities."""
    worst = math.inf
    for entry in population:
        rep = sc.check_value_bounds(sc.GridEvaluation(entry.real_f), entry.real_params)
        assert rep.passed, (entry.real_params, rep.worst_margin)
        worst = min(worst, rep.worst_margin)
        repd = sc.check_derivative_value_bounds(sc.GridEvaluation(entry.real_f), entry.real_params)
        assert repd.passed, (entry.real_params, repd.worst_margin)
        worst = min(worst, repd.worst_margin)

    rng = np.random.default_rng(MASTER_SEED + 7)
    for _ in range(10):
        params = draw_params(rng, real=True)
        xi = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        f = sc.extremal(params, xi)
        for r in (0.3, 0.7, 0.95):
            b = sc.modulus_arg_bounds(params, r * xi)
            q_lo = sc.log_principal(1 - r * xi) - sc.eval_log(f, r * xi) / params.mu
            q_hi = sc.log_principal(1 + r * xi) - sc.eval_log(f, -r * xi) / params.mu
            assert abs(math.exp(q_lo.real) - b.mod_lo) <= 1e-6
            assert abs(math.exp(q_hi.real) - b.mod_hi) <= 1e-6
    report("criterion 3 (bound suite)", f"worst envelope margin {worst:.3e}")


def test_criterion_04_figure_reproduction(worked_example, tmp_path):
    """The worked interior-node map covers its core map on the stated
    compact exhaustion, and the two-curve overlay renders."""
    t0 = time.perf_counter()
    f, params = worked_example
    res = sc.check_covering(f, params, r_inner=0.95, rho_outer=0.999, m=512)
    assert res.passed
    assert res.indeterminate == 0

    spec = {
        "functions": [
            {
                "mu": 1.0,
                "beta": 0.6,
                "factors": [
                    {"node": [0.9, 0.4], "exponent": [0.2, 0.0]},
                    {"node": [0.9, -0.4], "exponent": [0.2, 0.0]},
                ],
            },
            {"mu": 1.0, "beta": 0.6, "prefactor": [0.6, 0.0], "factors": []},
        ]
    }
    path = tmp_path / "overlay.json"
    path.write_text(report_json(spec))
    out = tmp_path / "figure.svg"
    assert main(["render", "-i", str(path), "-o", str(out), "--rho", "0.999"]) == 0
    ElementTree.parse(out)  # well-formed XML
    assert out.read_text().count("<path") == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"figure reproduction took {elapsed:.1f}s"
    report(
        "criterion 4 (figure reproduction)",
        f"512 samples, 0 indeterminate, {elapsed:.2f}s",
    )


def test_criterion_05_covering_radius():
    """Numeric minimization of the boundary gap reproduces the closed
    covering radius on a 64-point grid; the radius saturates at 1 and
    dominates the quarter rule."""
    worst = 0.0
    for k in range(1, 65):
        s = 2.0 * k / 64.0
        numeric = math.sqrt(sc.minimize_boundary_gap(s)[1])
        closed = sc.covering_radius(s)
        worst = max(worst, abs(numeric - closed))
        assert abs(numeric - closed) <= 1e-8
        assert closed >= s / 4.0
    assert sc.covering_radius(1.0) == 1.0
    report("criterion 5 (covering radius)", f"worst |numeric-closed| {worst:.2e}")


def test_criterion_06_schwarz_suite(population):
    """The subordination witness is a contraction everywhere, with
    equality for single-atom measures."""
    pts = sc.DEFAULT_GRID.points()
    worst = math.inf
    for entry in population:
        omega = sc.schwarz_function(sc.GridEvaluation(entry.f, pts), entry.params)
        worst = min(worst, float(np.min(np.abs(pts) - np.abs(omega))))
    assert worst >= -1e-9

    rng = np.random.default_rng(MASTER_SEED + 13)
    for _ in range(10):
        params = draw_params(rng)
        zeta = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        f = sc.construct(params, sc.make_measure([(zeta, 1.0)]))
        omega = sc.schwarz_function(sc.GridEvaluation(f, pts), params)
        assert np.max(np.abs(np.abs(omega) - np.abs(pts))) <= 1e-12
    report("criterion 6 (schwarz suite)", f"worst contraction margin {worst:.3e}")


def test_criterion_07_boundary_limit_agreement(population):
    """Closed-form boundary exponent and rotation agree with the
    Richardson radial limits to 1e-3, and satisfy the ratio and
    rotation inequalities."""
    worst_nu, worst_a = 0.0, 0.0
    for entry in population:
        nu = sc.boundary_exponent(entry.f)
        nu_est = boundary_exponent_radial(entry.f)
        worst_nu = max(worst_nu, abs(nu - nu_est))
        assert abs(nu - nu_est) <= 1e-3

        a = sc.boundary_rotation(entry.f)
        a_est = boundary_rotation_radial(entry.f, nu)
        worst_a = max(worst_a, abs(a - a_est))
        assert abs(a - a_est) <= 1e-3

        ratio = nu / entry.params.mu
        assert abs(ratio.imag) <= 1e-12
        assert entry.params.beta - 1e-12 <= ratio.real <= 1.0 + 1e-12
        bound = (math.pi / 2.0) * (1.0 / ratio.real) * (1.0 - entry.params.beta)
        assert abs(a) < bound + 1e-9
    report(
        "criterion 7 (boundary limits)",
        f"worst exponent gap {worst_nu:.2e}, worst rotation gap {worst_a:.2e}",
    )


def test_criterion_08_interior_identity(population):
    """The spiral margin of the interior correspondence equals (r/2)
    times the class margin to 1e-12 on the whole grid."""
    worst = math.inf
    for entry in population[:20]:
        rep = sc.check_interior_identity(sc.GridEvaluation(entry.f), entry.params)
        assert rep.passed, (entry.params, rep.worst_margin)
        worst = min(worst, rep.worst_margin)
    report("criterion 8 (interior identity)", f"worst deviation {-worst:.2e}")


def test_criterion_09_inclusion_suite():
    """Maps built for scaled-down parameters pass membership for the
    scaled-up class with order multiplied by the scale."""
    rng = np.random.default_rng(MASTER_SEED + 777)
    checked = 0
    for j in range(21):
        r = (0.3, 0.6, 0.9)[j % 3]
        while True:
            mu2 = 1.0 + np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            if abs(mu2) >= 0.05:
                break
        beta1 = rng.uniform(0.0, 0.95)
        sigma = sc.random_measure(int(rng.integers(1, 9)), MASTER_SEED + 5000 + j)
        f = sc.construct(sc.ClassParams(r * mu2, beta1), sigma)
        rep = sc.check_membership(sc.GridEvaluation(f), sc.ClassParams(mu2, r * beta1))
        assert rep.passed, (r, mu2, beta1, rep.worst_margin)
        checked += 1
    assert checked >= 20
    report("criterion 9 (inclusion suite)", f"{checked} scaled parameter pairs")


def test_criterion_10_covering_composition(population):
    """Algebraic-collapse witness reduces the composition to the
    identity map; a nontrivial order-1/2 starlike input covers the
    sampled unit disk."""
    params = sc.ClassParams(2.0, 0.5)
    s_collapse = sc.InteriorSpirallikeMap(sc.core_function(params), params)
    g, rep = sc.covering_composition(s_collapse, 0.5, 0.5)
    pts = sc.DEFAULT_GRID.points()
    collapse_dev = float(np.max(np.abs(g(pts) - pts)))
    assert collapse_dev <= 1e-12
    assert rep.passed

    f = sc.construct(params, population[0].measure)
    s = sc.InteriorSpirallikeMap(f, params)
    assert s.order == pytest.approx(0.5)
    g2, rep2 = sc.covering_composition(s, 0.5, 0.5)
    assert rep2.passed, rep2.worst_margin
    assert rep2.samples == 256
    report(
        "criterion 10 (covering composition)",
        f"collapse deviation {collapse_dev:.2e}, coverage margin {rep2.worst_margin:.3f}",
    )
