import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spiralcover as sc
from spiralcover import (
    ClassParams,
    Disk,
    DomainError,
    IndeterminateWindingError,
    PolyLine,
    ProductForm,
    boundary_curve,
    boundary_gap_profile,
    canonical_wedge,
    check_covering,
    check_wedge_containment,
    construct,
    contains_point,
    core_function,
    covering_composition,
    covering_radius,
    eval_log,
    evaluate,
    extremal,
    make_measure,
    minimize_boundary_gap,
    random_measure,
    to_interior_spirallike,
    wedge_margin,
    wedge_spirals,
    winding_number,
    winding_numbers,
)


def regular_ngon(n=256, center=0.0, radius=1.0):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return PolyLine(center + radius * np.exp(1j * theta), closed=True)


class TestPolyLine:
    def test_too_few_closed_points(self):
        with pytest.raises(ValueError):
            PolyLine(np.exp(1j * np.linspace(0, 6, 8)), closed=True)

    def test_duplicate_points_rejected(self):
        pts = np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
        pts[5] = pts[6]
        with pytest.raises(ValueError):
            PolyLine(pts, closed=True)

    def test_csv_round_trip_shape(self):
        poly = regular_ngon(16)
        csv = poly.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "re,im"
        assert len(lines) == 17

    def test_disk_validation(self):
        with pytest.raises(ValueError):
            Disk(0.0, -1.0)


class TestWindingNumber:
    def test_unit_circle_contains_origin(self):
        assert winding_number(regular_ngon(), 0.0) == 1

    def test_unit_circle_excludes_two(self):
        assert winding_number(regular_ngon(), 2.0) == 0

    def test_figure_eight_lobes(self):
        # both lobes pass through 0: left traversed counterclockwise,
        # right traversed clockwise
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        left = -1.0 + np.exp(1j * theta)
        right = 1.0 - np.exp(-1j * theta)
        eight = PolyLine(np.concatenate([left, right]), closed=True)
        assert winding_number(eight, -1.0) == 1
        assert winding_number(eight, 1.0) == -1
        assert winding_number(eight, 3.0) == 0

    def test_on_curve_indeterminate(self):
        poly = regular_ngon(64)
        edge_mid = (poly.points[0] + poly.points[1]) / 2.0
        with pytest.raises(IndeterminateWindingError):
            winding_number(poly, edge_mid)

    def test_requires_closed(self):
        poly = PolyLine(np.linspace(0, 1, 8) + 0.0j, closed=False)
        with pytest.raises(ValueError):
            winding_number(poly, 0.5 + 0.5j)

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_cyclic_rotation_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        radii = rng.uniform(0.5, 1.5, size=64)
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = radii * np.exp(1j * theta)
        poly = PolyLine(pts, closed=True)
        rolled = PolyLine(np.roll(pts, shift), closed=True)
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            base = winding_number(poly, w)
        except IndeterminateWindingError:
            return
        assert winding_number(rolled, w) == base
        assert winding_number(PolyLine(pts[::-1], closed=True), w) == -base

    def test_vectorized_matches_scalar(self):
        poly = regular_ngon(128)
        ws = np.array([0.0, 0.5 + 0.2j, 2.0, -3.0j])
        wn, indet, dists = winding_numbers(poly, ws)
        assert not indet.any()
        assert list(wn) == [winding_number(poly, w) for w in ws]
        assert np.all(dists > 0)


def dense_winding_numbers(poly, points):
    """Reference for winding_numbers: every point x segment pair.

    The winding number is the rounded arctan2 angle sum; the distance is
    the clipped-projection formula over every segment.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    verts = np.concatenate([poly.points, poly.points[:1]])
    a, b = verts[None, :-1], verts[None, 1:]
    va, vb = a - pts[:, None], b - pts[:, None]
    cross = va.real * vb.imag - va.imag * vb.real
    dot = va.real * vb.real + va.imag * vb.imag
    windings = np.rint(np.arctan2(cross, dot).sum(axis=1) / (2.0 * np.pi)).astype(np.int64)
    edge = b - a
    edge_sq = np.abs(edge) ** 2
    t = -(va.real * edge.real + va.imag * edge.imag) / np.where(edge_sq > 0, edge_sq, 1.0)
    dists = np.abs(va + np.clip(t, 0.0, 1.0) * edge).min(axis=1)
    return windings, dists < sc.geometry.GUARD_FACTOR * poly.diameter(), dists


def assert_matches_dense(poly, points):
    wn, indet, dists = winding_numbers(poly, points)
    ref_wn, ref_indet, ref_dists = dense_winding_numbers(poly, points)
    assert dists.dtype == np.float64 and dists.tobytes() == ref_dists.tobytes()
    assert np.array_equal(indet, ref_indet)
    assert wn.dtype == np.int64 and np.array_equal(wn[~indet], ref_wn[~indet])
    return wn, indet


def probe_points(poly, rng, count):
    """Box points, points at exactly a vertex's height, and points a few guards off an edge."""
    a = poly.points
    b = np.roll(a, -1)
    lo, hi = a.min(), a.max()
    span = hi - lo
    box = lo - 0.2 * span + 1.4 * (rng.uniform(size=count) * span.real + 1j * rng.uniform(size=count) * span.imag)
    k = rng.integers(a.size, size=count)
    level = box.real + 1j * a[k].imag
    guard = sc.geometry.GUARD_FACTOR * poly.diameter()
    off = np.exp(2j * np.pi * rng.uniform(size=count)) * guard * 10.0 ** rng.uniform(-1.0, 3.0, size=count)
    near = a[k] + rng.uniform(-0.2, 1.2, size=count) * (b[k] - a[k]) + off
    return np.concatenate([box, level, near, near.real + 1j * a[k].imag])


class TestWindingAgainstDense:
    @given(
        st.integers(min_value=16, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_star_polygons(self, n, seed, scale, count):
        rng = np.random.default_rng(seed)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        center = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        poly = PolyLine(scale * (center + rng.uniform(0.2, 2.0, size=n) * np.exp(1j * theta)), closed=True)
        assert_matches_dense(poly, probe_points(poly, rng, count))

    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=40, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_turn_spirals(self, turns, depth, per_turn, seed):
        # winds `turns` times round 0 while its modulus swings once between
        # 1 - depth and 1 + depth: many crossings per horizontal line
        t = np.linspace(0.0, 2.0 * np.pi, turns * per_turn, endpoint=False)
        poly = PolyLine(np.exp(1j * turns * t) * (1.0 + depth * np.cos(t)), closed=True)
        assert_matches_dense(poly, probe_points(poly, np.random.default_rng(seed), 100))
        assert winding_number(poly, 0.0) == turns

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_figure_eight(self, seed):
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        eight = PolyLine(np.concatenate([-1.0 + np.exp(1j * theta), 1.0 - np.exp(-1j * theta)]), closed=True)
        wn, indet = assert_matches_dense(eight, probe_points(eight, np.random.default_rng(seed), 150))
        assert set(wn[~indet]) <= {-1, 0, 1}

    @given(st.integers(min_value=16, max_value=80), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_vertices_and_edge_midpoints_indeterminate(self, n, seed):
        rng = np.random.default_rng(seed)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        poly = PolyLine(rng.uniform(0.2, 2.0, size=n) * np.exp(1j * theta), closed=True)
        mids = (poly.points + np.roll(poly.points, -1)) / 2.0
        _, indet = assert_matches_dense(poly, np.concatenate([poly.points, mids]))
        assert indet.all()

    def test_covering_samples_over_several_passes(self, worked_example):
        # 5000 samples against an ~900-vertex curve take several passes of
        # the bounded-memory distance search
        f, params = worked_example
        curve = boundary_curve(f, 0.999, n=512)
        theta = np.linspace(0.0, 2.0 * np.pi, 5000, endpoint=False)
        ws = evaluate(core_function(params), 0.95 * np.exp(1j * theta))
        wn, indet, dists = winding_numbers(curve, ws)
        for lo in range(0, ws.size, 500):
            ref_wn, ref_indet, ref_dists = dense_winding_numbers(curve, ws[lo : lo + 500])
            assert dists[lo : lo + 500].tobytes() == ref_dists.tobytes()
            assert np.array_equal(indet[lo : lo + 500], ref_indet)
            assert np.array_equal(wn[lo : lo + 500], ref_wn)
        assert (wn == 1).all() and not indet.any()

    def test_single_point_and_empty(self):
        poly = regular_ngon(64)
        assert_matches_dense(poly, 0.3 + 0.1j)
        wn, indet, dists = winding_numbers(poly, [])
        assert wn.shape == indet.shape == dists.shape == (0,)
        assert (wn.dtype, indet.dtype, dists.dtype) == (np.int64, np.bool_, np.float64)


class TestBoundaryCurve:
    def test_core_modulus_range(self):
        f = ProductForm(0.6)  # (1-z)**0.6
        curve = boundary_curve(f, 0.9)
        mods = np.abs(curve.points)
        assert mods.min() >= 0.1**0.6 - 1e-9
        assert mods.max() <= 1.9**0.6 + 1e-9

    def test_wedge_map_right_half_plane(self):
        curve = boundary_curve(canonical_wedge(1.0, 0.0), 0.99)
        assert np.all(curve.points.real > 0)

    def test_constant_map_degenerate(self):
        with pytest.raises(DomainError):
            boundary_curve(ProductForm(0.0), 0.9)

    def test_point_budget(self):
        f = construct(ClassParams(1.0, 0.1), random_measure(4, 3))
        curve = boundary_curve(f, 0.995, n=64)
        assert 64 <= len(curve) <= 16 * 64

    def test_parameter_validation(self):
        f = ProductForm(1.0)
        with pytest.raises(DomainError):
            boundary_curve(f, 1.0)
        with pytest.raises(ValueError):
            boundary_curve(f, 0.9, n=32)


class TestContainsPoint:
    def test_center_value_inside(self):
        f = construct(ClassParams(1.0, 0.3), random_measure(3, 21))
        assert contains_point(f, 1.0, 0.9) is True  # f(0) = 1

    def test_far_point_outside(self):
        f = ProductForm(0.6)
        assert contains_point(f, 11.0, 0.99) is False

    def test_worked_example_covers_core_value(self, worked_example):
        f, _ = worked_example
        w = evaluate(ProductForm(0.6), 0.5)  # core map at z = 0.5
        assert contains_point(f, w, 0.999) is True

    def test_on_curve_returns_none(self):
        f = ProductForm(0.6)
        curve = boundary_curve(f, 0.9)
        edge_mid = (curve.points[0] + curve.points[1]) / 2.0
        assert contains_point(f, edge_mid, 0.9, curve=curve) is None

    @pytest.mark.parametrize("re,im", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf), (1.0, math.nan)])
    def test_non_finite_point_rejected(self, re, im):
        bad = complex(re, im)
        with pytest.raises(DomainError):
            winding_numbers(regular_ngon(64), [0.1, bad])
        with pytest.raises(DomainError):
            contains_point(ProductForm(0.6), bad, 0.9)


class TestCheckCovering:
    def test_core_covers_itself_on_nested_disks(self):
        params = ClassParams(1.0, 0.6)
        res = check_covering(core_function(params), params, 0.9, 0.99)
        assert res.report.passed
        assert res.indeterminate_count == 0

    def test_extremal_covers_core(self):
        params = ClassParams(1.0, 0.5)
        res = check_covering(extremal(params, -1.0), params, 0.9, 0.99)
        assert res.report.passed

    def test_population_covering(self, population):
        for entry in population[:50]:
            res = check_covering(entry.f, entry.params, 0.9, 0.99, m=64, curve_n=256)
            assert res.report.passed, entry.params
            assert res.indeterminate_count == 0

    def test_radius_ordering_enforced(self):
        params = ClassParams(1.0, 0.5)
        with pytest.raises(DomainError):
            check_covering(core_function(params), params, 0.99, 0.9)


class TestCoveringRadius:
    def test_unit_value(self):
        assert covering_radius(1.0) == 1.0

    def test_sqrt2_minus_one(self):
        assert covering_radius(0.5) == pytest.approx(math.sqrt(2.0) - 1.0)

    def test_saturates_above_one(self):
        assert covering_radius(1.7) == 1.0
        assert covering_radius(2.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            covering_radius(0.0)
        with pytest.raises(DomainError):
            covering_radius(2.1)

    @given(st.floats(min_value=1e-3, max_value=1.0))
    def test_radical_identity(self, s):
        radical = math.sqrt(1.0 + 2.0 ** (2 * s) - 2.0 ** (s + 1))
        assert abs(radical - covering_radius(s)) <= 1e-12

    def test_dominates_quarter_rule(self):
        for k in range(1, 65):
            s = 2.0 * k / 64.0
            assert covering_radius(s) >= s / 4.0


class TestBoundaryGap:
    def test_value_at_zero(self):
        for s in (0.3, 1.0, 1.8):
            assert boundary_gap_profile(s, 0.0) == pytest.approx((2.0**s - 1.0) ** 2)

    def test_even_in_t(self):
        for t in (0.3, 1.1, 2.9):
            assert boundary_gap_profile(0.7, t) == pytest.approx(boundary_gap_profile(0.7, -t))

    def test_limit_at_pi(self):
        assert boundary_gap_profile(0.5, math.pi) == pytest.approx(1.0)
        assert boundary_gap_profile(0.5, math.pi - 1e-9) == pytest.approx(1.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            boundary_gap_profile(0.5, 4.0)
        with pytest.raises(DomainError):
            boundary_gap_profile(0.0, 0.5)


class TestMinimizeBoundaryGap:
    def test_small_s_minimum_at_zero(self):
        # the profile is flat to machine precision near its boundary
        # minimum, so the abscissa is only located to ~1e-7
        t_min, value = minimize_boundary_gap(0.5)
        assert t_min == pytest.approx(0.0, abs=1e-6)
        assert value == pytest.approx((math.sqrt(2.0) - 1.0) ** 2, abs=1e-10)

    def test_large_s_minimum_at_pi(self):
        t_min, value = minimize_boundary_gap(1.5)
        assert t_min == pytest.approx(math.pi, abs=1e-8)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_branch_agreement_at_one(self):
        _, value = minimize_boundary_gap(1.0)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        for k in range(1, 65):
            s = 2.0 * k / 64.0
            _, value = minimize_boundary_gap(s)
            assert abs(math.sqrt(value) - covering_radius(s)) <= 1e-8


class TestWedgeSpirals:
    def test_axis_anchors(self):
        up, down = wedge_spirals(1.0, 0.0, (0.0, 1.0), n=8)
        assert up.points[0] == pytest.approx(1.0j)
        assert down.points[0] == pytest.approx(-1.0j)

    def test_real_exponent_constant_argument(self):
        up, _ = wedge_spirals(1.3, 0.2, (-1.0, 2.0), n=32)
        args = np.angle(up.points)
        assert np.max(np.abs(args - args[0])) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            wedge_spirals(1.0, 0.0, (1.0, 1.0))
        with pytest.raises(DomainError):
            wedge_spirals(2.5, 0.0, (0.0, 1.0))
        with pytest.raises(DomainError):
            wedge_spirals(1.0, 1.6, (0.0, 1.0))

    def test_wedge_map_stays_inside_own_wedge(self):
        h = canonical_wedge(1.0 + 0.8j, 0.5)
        z = 0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 512, endpoint=False))
        margins = wedge_margin(1.0 + 0.8j, 0.5, eval_log(h, z))
        assert np.all(margins > 0)

    def test_population_wedge_containment(self, population):
        for entry in population[:10]:
            assert check_wedge_containment(entry.f).passed

    def test_worked_example_wedge(self, worked_example):
        f, _ = worked_example
        assert check_wedge_containment(f).passed


class TestCoveringComposition:
    @staticmethod
    def collapse_witness():
        # s(z) = z/(1-z) realized through the core map of (mu, beta) = (2, 1/2)
        params = ClassParams(2.0, 0.5)
        return to_interior_spirallike(core_function(params), params)

    def test_algebraic_collapse_to_identity(self):
        s = self.collapse_witness()
        g, report = covering_composition(s, 0.0, 0.5, 0.5)
        pts = sc.DEFAULT_GRID.points()
        assert np.max(np.abs(g(pts) - pts)) <= 1e-12
        assert report.passed

    def test_zero_at_origin(self):
        s = self.collapse_witness()
        g, _ = covering_composition(s, 0.0, 0.5, 0.5, samples=64)
        assert g(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_half_plane_companion(self):
        # for the collapse witness the companion is (1-z)/(1+z)
        s = self.collapse_witness()
        g, _ = covering_composition(s, 0.0, 0.5, 0.5, samples=64)
        for z in (0.3, -0.4 + 0.2j, 0.7j):
            assert g.half_plane_map(z) == pytest.approx((1 - z) / (1 + z), abs=1e-12)
            assert g.half_plane_map(z).real > 0

    def test_nontrivial_starlike_input(self, population):
        params = ClassParams(2.0, 0.5)
        f = construct(params, population[0].measure)
        s = to_interior_spirallike(f, params)
        assert s.order == pytest.approx(0.5)
        g, report = covering_composition(s, 0.0, 0.5, 0.5, samples=256)
        assert report.passed

    def test_parameter_validation(self):
        s = self.collapse_witness()
        with pytest.raises(DomainError):
            covering_composition(s, 1.6, 0.5, 0.5)
        with pytest.raises(DomainError):
            covering_composition(s, 0.0, 1.1, 0.5)
        with pytest.raises(DomainError):
            covering_composition(s, 0.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            covering_composition(s, 0.0, 0.5, 1.1)

    def test_rejects_mismatched_angle(self):
        params = ClassParams(1.0 + 0.5j, 0.4)
        s = to_interior_spirallike(core_function(params), params)
        with pytest.raises(DomainError):
            covering_composition(s, 0.0, 0.25, 0.25)

    def test_rejects_insufficient_order(self):
        params = ClassParams(2.0, 0.5)  # order 1/2
        s = to_interior_spirallike(core_function(params), params)
        with pytest.raises(DomainError):
            covering_composition(s, 0.0, 0.75, 0.75)
