import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spiralcover as sc
from spiralcover import (
    ClassParams,
    CoveringComposition,
    DomainError,
    GridEvaluation,
    InteriorSpirallikeMap,
    PolyLine,
    ProductForm,
    boundary_curve,
    boundary_gap_profile,
    canonical_wedge,
    check_covering,
    check_wedge_containment,
    construct,
    core_function,
    covering_composition,
    covering_radius,
    eval_log,
    evaluate,
    extremal,
    make_measure,
    minimize_boundary_gap,
    random_measure,
    wedge_margin,
    wedge_spirals,
    winding_numbers,
)
from spiralcover.serialize import curve_csv


def regular_ngon(n=256, center=0.0, radius=1.0):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return PolyLine(center + radius * np.exp(1j * theta), closed=True)


class TestPolyLine:
    def test_too_few_closed_points(self):
        with pytest.raises(ValueError):
            PolyLine(np.exp(1j * np.linspace(0, 6, 8)), closed=True)

    def test_too_few_open_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            PolyLine([0.5j], closed=False)

    def test_duplicate_points_rejected(self):
        pts = np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
        pts[5] = pts[6]
        with pytest.raises(ValueError):
            PolyLine(pts, closed=True)

    def test_csv_round_trip_shape(self):
        poly = regular_ngon(16)
        csv = curve_csv(poly)
        lines = csv.strip().split("\n")
        assert lines[0] == "re,im"
        assert len(lines) == 17


class TestWindingNumber:
    def test_unit_circle_contains_origin(self):
        wn, indet, _ = winding_numbers(regular_ngon(), [0.0])
        assert wn[0] == 1 and not indet[0]

    def test_unit_circle_excludes_two(self):
        wn, indet, _ = winding_numbers(regular_ngon(), [2.0])
        assert wn[0] == 0 and not indet[0]

    def test_figure_eight_lobes(self):
        # both lobes pass through 0: left traversed counterclockwise,
        # right traversed clockwise
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        left = -1.0 + np.exp(1j * theta)
        right = 1.0 - np.exp(-1j * theta)
        eight = PolyLine(np.concatenate([left, right]), closed=True)
        wn, indet, _ = winding_numbers(eight, [-1.0, 1.0, 3.0])
        assert list(wn) == [1, -1, 0]
        assert not indet.any()

    def test_on_curve_indeterminate(self):
        poly = regular_ngon(64)
        edge_mid = (poly.points[0] + poly.points[1]) / 2.0
        assert winding_numbers(poly, [edge_mid])[1][0]

    def test_requires_closed(self):
        poly = PolyLine(np.linspace(0, 1, 8) + 0.0j, closed=False)
        with pytest.raises(ValueError):
            winding_numbers(poly, [0.5 + 0.5j])

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
        base, indet, _ = winding_numbers(poly, [w])
        if indet[0]:
            return
        assert winding_numbers(rolled, [w])[0][0] == base[0]
        assert winding_numbers(PolyLine(pts[::-1], closed=True), [w])[0][0] == -base[0]

    def test_vectorized_matches_scalar(self):
        poly = regular_ngon(128)
        ws = np.array([0.0, 0.5 + 0.2j, 2.0, -3.0j])
        wn, indet, dists = winding_numbers(poly, ws)
        assert not indet.any()
        assert list(wn) == [winding_numbers(poly, [w])[0][0] for w in ws]
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
        assert winding_numbers(poly, [0.0])[0][0] == turns

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


def reference_winding_report(curve, pts):
    """The covering report with exact distances at every sample: the oracle for _winding_report."""
    wn, indet, dists = winding_numbers(curve, pts)
    guard = sc.geometry.GUARD_FACTOR * curve.diameter()
    margins = np.where((wn == 1) & ~indet, dists, -np.maximum(dists, guard))
    return sc.verification._report("winding", margins, pts, 0.0, int(np.count_nonzero(indet)))


def assert_same_report(got, ref):
    assert np.float64(got.worst_margin).tobytes() == np.float64(ref.worst_margin).tobytes()
    assert got.worst_location == ref.worst_location
    assert (got.indeterminate, got.samples) == (ref.indeterminate, ref.samples)


def assert_report_matches_reference(curve, pts):
    assert_same_report(sc.geometry._winding_report("winding", curve, pts), reference_winding_report(curve, pts))


def edge_samples(n, seed, scale, layout):
    """A regular n-gon and samples about its edges whose bounds are tight to rounding.

    The polygon is moved so that a point of its first edge is the origin,
    where sample coordinates can step by far less than an ulp of the edge.
    "parallel": 128 samples inside, in a row along that edge at one offset
    of 1 to 1000 guards; their distances differ by rounding only.
    "normal": on the outward normals of 8 random edges, a sample 1e4 to
    1e7 diameters out (4 times farther on each normal) and 15 samples
    within one guard of the curve, then one sample farther than all.
    Each far sample lies on the line from the near samples to their
    nearest point, so its exact distance minus the reach is their
    distance up to rounding of the far distance.
    """
    rng = np.random.default_rng(seed)
    verts = scale * np.exp(1j * (rng.uniform(0.0, 2.0 * np.pi) + np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)))
    poly = PolyLine(verts - (verts[0] + rng.uniform(0.1, 0.9) * (verts[1] - verts[0])), closed=True)
    a = poly.points
    b = np.roll(a, -1)
    along = (b - a) / np.abs(b - a)
    guard = sc.geometry.GUARD_FACTOR * poly.diameter()
    if layout == "parallel":
        step = np.spacing(scale) * 10.0 ** rng.uniform(-3.0, -2.0)
        return poly, 1j * along[0] * guard * 10.0 ** rng.uniform(0.0, 3.0) + along[0] * step * np.arange(128)
    far = poly.diameter() * 10.0 ** rng.uniform(4.0, 7.0)
    rows = []
    for k, e in enumerate(rng.integers(n, size=8)):
        foot = a[e] + rng.uniform(0.1, 0.9) * (b[e] - a[e])
        offsets = np.concatenate([[far * 4.0**k], guard * rng.uniform(0.1, 1.0, size=15)])
        rows.append(foot - 1j * along[e] * offsets)
    return poly, np.concatenate(rows + [[far * 4.0**8]])


class TestWindingReportAgainstReference:
    @given(
        st.integers(min_value=16, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.sampled_from([0.0, 3.0, 1e4, 1e8]),
        st.sampled_from(["ring", "probe"]),
        st.sampled_from(["given", "shuffled", "repeated", "one", "few"]),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=150, deadline=None)
    def test_star_polygons(self, n, seed, scale, shift, layout, order, count):
        rng = np.random.default_rng(seed)
        theta = (np.arange(n) + rng.uniform(0.0, 0.5, size=n)) * (2.0 * np.pi / n)
        center = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        poly = PolyLine(shift + scale * (center + rng.uniform(0.2, 2.0, size=n) * np.exp(1j * theta)), closed=True)
        if layout == "ring":
            # a covering sample: one ring in angle order, inside the curve or crossing it
            radius = scale * rng.choice([0.15, rng.uniform(0.1, 2.5)])
            pts = shift + scale * center + radius * np.exp(2j * np.pi * np.arange(count) / count)
        else:
            pts = probe_points(poly, rng, count)
        if order == "shuffled":
            pts = rng.permutation(pts)
        elif order == "repeated":
            pts = np.repeat(pts, 3)
        elif order == "one":
            pts = pts[rng.integers(pts.size, size=1)]
        elif order == "few":
            pts = pts[: sc.geometry.ANCHOR_EVERY - 1]
        assert_report_matches_reference(poly, pts)

    @given(
        st.integers(min_value=16, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.sampled_from(["parallel", "normal"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_tight_to_rounding(self, n, seed, scale, layout):
        # without the guard the parallel rows, and without the relative slack the
        # normal rows, prune the sample that decides the report
        assert_report_matches_reference(*edge_samples(n, seed, scale, layout))

    def test_population_covering_at_2048_samples(self, population):
        # members pass; the bare power (1-z)**(0.3*mu) declared with beta = 0.6 misses
        # part of the declared core and fails
        members = [(e.f, e.params, True) for e in population]
        bare = [(ProductForm(0.3 * e.params.mu), ClassParams(e.params.mu, 0.6), False) for e in population[:10]]
        theta = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
        for f, params, passed in members + bare:
            ws = evaluate(core_function(params), 0.95 * np.exp(1j * theta))
            ref = reference_winding_report(boundary_curve(f, 0.999, n=512), ws)
            report = check_covering(f, params, 0.95, 0.999, m=2048)
            assert_same_report(report, ref)
            assert report.passed is passed

    def test_covering_composition(self, population):
        params = ClassParams(2.0, 0.5)
        s = InteriorSpirallikeMap(construct(params, population[0].measure), params)
        g, report = covering_composition(s, 0.5, 0.5)
        curve = sc.geometry._adaptive_closed_curve(g, 0.999, 512)
        pts = (np.linspace(0.2, 0.95, 4)[:, None] * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))).ravel()
        assert_same_report(report, reference_winding_report(curve, pts))

    def test_exact_distances_only_where_they_decide(self, worked_example, monkeypatch):
        # one distance index and one crossing pass per report; every exact distance is
        # a query of that index, and only a subset of the samples gets one
        f, params = worked_example
        geometry = sc.geometry
        calls = {"_distance_index": 0, "_crossing_windings": 0}
        counted = []

        def counting(name):
            inner = getattr(geometry, name)

            def wrapped(*args):
                calls[name] += 1
                return inner(*args)

            return wrapped

        for name in calls:
            monkeypatch.setattr(geometry, name, counting(name))
        query = geometry._index_distances

        def counting_query(blocks, pts, guard):
            counted.append(pts.size)
            return query(blocks, pts, guard)

        monkeypatch.setattr(geometry, "_index_distances", counting_query)
        report = check_covering(f, params, 0.95, 0.999, m=2048)
        assert report.passed and report.samples == 2048
        assert calls == {"_distance_index": 1, "_crossing_windings": 1}
        assert 2048 // geometry.ANCHOR_EVERY <= sum(counted) < 2048


def reference_adaptive_curve(fn, rho, n):
    """The refinement loop with np.roll neighbours and per-pass moduli: the oracle for _adaptive_closed_curve."""
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    values = sc.geometry._curve_values(fn, rho, thetas)
    budget = 16 * n
    for _ in range(64):
        nxt = np.roll(values, -1)
        gaps = np.roll(thetas, -1) - thetas
        gaps[-1] += 2.0 * np.pi
        chords = np.abs(nxt - values)
        local = np.maximum(np.maximum(np.abs(values), np.abs(nxt)), 1e-12 * np.abs(values).max())
        flags = chords > sc.geometry.REFINE_TOL * local
        seg = nxt - values
        prev = np.roll(seg, 1)
        nz = (np.abs(seg) > 0) & (np.abs(prev) > 0)
        turn = np.zeros_like(chords)
        turn[nz] = np.abs(np.angle(seg[nz] / prev[nz]))
        vert_flags = turn > sc.geometry.MAX_TURN
        flags |= vert_flags | np.roll(vert_flags, -1)
        room = budget - thetas.size
        if not flags.any() or room <= 0:
            break
        idx = np.nonzero(flags)[0]
        if idx.size > room:
            order = np.argsort(-(chords[idx] / local[idx]))
            idx = idx[order[:room]]
        new_thetas = thetas[idx] + gaps[idx] / 2.0
        new_values = sc.geometry._curve_values(fn, rho, new_thetas)
        thetas = np.concatenate([thetas, new_thetas])
        values = np.concatenate([values, new_values])
        order = np.argsort(thetas)
        thetas, values = thetas[order], values[order]
    keep = np.abs(values - np.roll(values, 1)) > 0
    keep[0] = True
    return values[keep]


def assert_curve_matches_reference(fn, rho, n):
    got = sc.geometry._adaptive_closed_curve(fn, rho, n).points
    ref = reference_adaptive_curve(fn, rho, n)
    assert np.array_equal(got, ref)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))  # signed zeros too


class TestAdaptiveCurveAgainstReference:
    @pytest.mark.parametrize("rho,n", [(0.999, 512), (0.99, 256), (0.999, 64)])
    def test_population(self, population, rho, n):
        for e in population:
            assert_curve_matches_reference(lambda z, f=e.f: evaluate(f, z), rho, n)

    def test_worked_example(self, worked_example):
        f, _ = worked_example
        assert_curve_matches_reference(lambda z: evaluate(f, z), 0.999, 512)

    def test_point_budget_map(self):
        # a map that converges within its 16 * n budget: 688 points after 9 passes
        f = construct(ClassParams(1.0, 0.1), random_measure(4, 3))
        assert_curve_matches_reference(lambda z: evaluate(f, z), 0.995, 64)

    def test_budget_exhausted(self, population):
        # at n = 64 the budget runs out and the largest relative chords are bisected first
        f = population[0].f
        assert reference_adaptive_curve(lambda z: evaluate(f, z), 0.999, 64).size == 16 * 64
        assert_curve_matches_reference(lambda z: evaluate(f, z), 0.999, 64)

    def test_all_passes_and_duplicates(self):
        # within 2**-53 of the circle the bisections near z = 1 run all 64 passes and
        # produce coinciding values, which are dropped
        calls = []

        def fn(z):
            calls.append(z.size)
            return (1.0 - z) ** 0.05

        rho = float(np.nextafter(1.0, 0.0))
        points = sc.geometry._adaptive_closed_curve(fn, rho, 4096).points
        assert len(calls) == 65 and points.size < sum(calls)
        assert_curve_matches_reference(fn, rho, 4096)

    def test_covering_composition(self, population):
        params = ClassParams(2.0, 0.5)
        s = InteriorSpirallikeMap(construct(params, population[0].measure), params)
        g, _ = covering_composition(s, 0.5, 0.5)
        assert_curve_matches_reference(g, 0.999, 512)


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

    def test_point_budget(self, population):
        # population[0] at rho = 0.999 needs more than 16 * n points, so the budget binds
        curve = boundary_curve(population[0].f, 0.999, n=64)
        assert len(curve) == 16 * 64

    def test_parameter_validation(self):
        f = ProductForm(1.0)
        with pytest.raises(DomainError):
            boundary_curve(f, 1.0)
        with pytest.raises(ValueError):
            boundary_curve(f, 0.9, n=32)


class TestContainsPoint:
    # by univalence, w lies in the image of the rho-disk when boundary_curve(f, rho) winds
    # once around it, up to the curve's guard distance
    def test_center_value_inside(self):
        f = construct(ClassParams(1.0, 0.3), random_measure(3, 21))
        wn, indeterminate, _ = winding_numbers(boundary_curve(f, 0.9), [1.0])  # f(0) = 1
        assert wn[0] == 1 and not indeterminate[0]

    def test_far_point_outside(self):
        wn, indeterminate, _ = winding_numbers(boundary_curve(ProductForm(0.6), 0.99), [11.0])
        assert wn[0] == 0 and not indeterminate[0]

    def test_worked_example_covers_core_value(self, worked_example):
        f, _ = worked_example
        w = evaluate(ProductForm(0.6), 0.5)  # core map at z = 0.5
        wn, indeterminate, _ = winding_numbers(boundary_curve(f, 0.999), [w])
        assert wn[0] == 1 and not indeterminate[0]

    def test_on_curve_is_indeterminate(self):
        curve = boundary_curve(ProductForm(0.6), 0.9)
        edge_mid = (curve.points[0] + curve.points[1]) / 2.0
        _, indeterminate, _ = winding_numbers(curve, [edge_mid])
        assert indeterminate[0]

    @pytest.mark.parametrize("re,im", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf), (1.0, math.nan)])
    def test_non_finite_point_rejected(self, re, im):
        bad = complex(re, im)
        for curve in (regular_ngon(64), boundary_curve(ProductForm(0.6), 0.9)):
            with pytest.raises(DomainError):
                winding_numbers(curve, [0.1, bad])


class TestWindingOverflow:
    # f = (1-z)**-60 is finite on |z| = 0.999 (up to 1e180), but its cross products and
    # segment lengths overflow float arithmetic; f(0) = 1 must not be reported outside
    F, PARAMS = ProductForm(-60.0), ClassParams(1.0, 0.5)

    @pytest.mark.parametrize("warning_action", ["default", "error"])
    def test_library_calls_raise(self, warning_action):
        curve = boundary_curve(self.F, 0.999)
        assert np.all(np.isfinite(curve.points))
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action, RuntimeWarning)
            with pytest.raises(DomainError, match="winding test overflows"):
                winding_numbers(curve, [1.0, 2.0, 0.5])
            with pytest.raises(DomainError, match="winding test overflows"):
                check_covering(self.F, self.PARAMS, 0.95, 0.999)


class TestCheckCovering:
    def test_core_covers_itself_on_nested_disks(self):
        params = ClassParams(1.0, 0.6)
        res = check_covering(core_function(params), params, 0.9, 0.99)
        assert res.passed
        assert res.indeterminate == 0

    def test_extremal_covers_core(self):
        params = ClassParams(1.0, 0.5)
        res = check_covering(extremal(params, -1.0), params, 0.9, 0.99)
        assert res.passed

    def test_population_covering(self, population):
        for entry in population[:50]:
            res = check_covering(entry.f, entry.params, 0.9, 0.99, m=64)
            assert res.passed, entry.params
            assert res.indeterminate == 0

    def test_radius_ordering_enforced(self):
        params = ClassParams(1.0, 0.5)
        with pytest.raises(DomainError):
            check_covering(core_function(params), params, 0.99, 0.9)

    def test_needs_a_sample(self):
        params = ClassParams(1.0, 0.5)
        with pytest.raises(ValueError, match="at least one sample"):
            check_covering(core_function(params), params, 0.9, 0.99, m=0)


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

    def test_domain(self):
        for s in (0.0, 2.1):
            with pytest.raises(DomainError):
                minimize_boundary_gap(s)


class TestWedgeSpirals:
    def test_axis_anchors(self):
        # t runs from -1, where e^{-t} = e
        up, down = wedge_spirals(1.0, 0.0)
        assert up.points[0] == pytest.approx(math.e * 1.0j)
        assert down.points[0] == pytest.approx(-math.e * 1.0j)

    def test_real_exponent_constant_argument(self):
        up, _ = wedge_spirals(1.3, 0.2)
        args = np.angle(up.points)
        assert np.max(np.abs(args - args[0])) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            wedge_spirals(2.5, 0.0)
        with pytest.raises(DomainError):
            wedge_spirals(1.0, 1.6)

    def test_wedge_map_stays_inside_own_wedge(self):
        h = canonical_wedge(1.0 + 0.8j, 0.5)
        z = 0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 512, endpoint=False))
        margins = wedge_margin(1.0 + 0.8j, 0.5, eval_log(h, z))
        assert np.all(margins > 0)

    # the ring on which `check` samples wedge-containment
    RING = sc.GridSpec((0.999,), 512).points()

    def test_population_wedge_containment(self, population):
        for entry in population[:10]:
            assert check_wedge_containment(GridEvaluation(entry.f, self.RING), entry.params).passed

    def test_worked_example_wedge(self, worked_example):
        f, params = worked_example
        assert check_wedge_containment(GridEvaluation(f, self.RING), params).passed


class TestCoveringComposition:
    @staticmethod
    def collapse_witness():
        # s(z) = z/(1-z) realized through the core map of (mu, beta) = (2, 1/2)
        params = ClassParams(2.0, 0.5)
        return InteriorSpirallikeMap(core_function(params), params)

    def test_algebraic_collapse_to_identity(self):
        s = self.collapse_witness()
        g, report = covering_composition(s, 0.5, 0.5)
        pts = sc.DEFAULT_GRID.points()
        assert np.max(np.abs(g(pts) - pts)) <= 1e-12
        assert report.passed

    def test_zero_at_origin(self):
        s = self.collapse_witness()
        g, _ = covering_composition(s, 0.5, 0.5)
        assert g(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_half_plane_companion(self):
        # for the collapse witness the companion is (1-z)/(1+z)
        s = self.collapse_witness()
        g, _ = covering_composition(s, 0.5, 0.5)
        for z in (0.3, -0.4 + 0.2j, 0.7j):
            assert g.half_plane_map(z) == pytest.approx((1 - z) / (1 + z), abs=1e-12)
            assert g.half_plane_map(z).real > 0

    @pytest.mark.parametrize("mu", [1.0, 0.8 - 0.5j], ids=["real-mu", "complex-mu"])
    def test_one_pass_matches_separate_logs(self, mu):
        # log f and Log(1-z) from one pass give the bytes of eval_log and log_principal taken apart
        params = ClassParams(mu, 0.6)
        f = ProductForm(mu, ((0.9 + 0.4j, 0.2 * mu), (0.9 - 0.4j, 0.2 * mu)))
        s = InteriorSpirallikeMap(f, params)
        g, _ = covering_composition(s, 0.3, 0.3)
        z = (np.linspace(0.05, 0.99, 4)[:, None] * np.exp(1j * np.linspace(0.0, 6.0, 25))).ravel()
        log_1mz = sc.log_principal(1.0 - z)
        log_ratio = eval_log(f, z) - mu * log_1mz
        core = np.exp(log_1mz / g.beta + log_ratio / (g.mu * g.beta))
        for got, ref in [(s.log_ratio(z), log_ratio), (s(z), z * np.exp(log_ratio)),
                         (g(z), 1.0 - core), (g.half_plane_map(z), core / (2.0 - core))]:
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        # a scalar gives the value of the one-point array
        for fn in (s.log_ratio, s, g, g.half_plane_map):
            value = fn(complex(z[37]))
            assert type(value) is complex and value == fn(z[37:38])[0]

    def test_nontrivial_starlike_input(self, population):
        params = ClassParams(2.0, 0.5)
        f = construct(params, population[0].measure)
        s = InteriorSpirallikeMap(f, params)
        assert s.order == pytest.approx(0.5)
        g, report = covering_composition(s, 0.5, 0.5)
        assert report.passed

    def test_nonzero_spiral_angle(self, population):
        params = ClassParams(1.2 * np.exp(0.4j), 0.5)
        s = InteriorSpirallikeMap(construct(params, population[0].measure), params)
        assert s.order == pytest.approx(math.cos(0.4) - 0.3)
        g, report = covering_composition(s, 0.5, 0.5)
        assert report.passed and report.indeterminate == 0
        assert report.worst_margin == pytest.approx(0.05, abs=1e-4)
        assert g(0.0) == pytest.approx(0.0, abs=1e-14)
        # near 0 g stays in the disk, which (1-g)/(1+g) takes into the right half-plane
        z = 0.2 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))
        assert np.all(np.abs(g(z)) < 1.0)
        assert np.all(g.half_plane_map(z).real > 0.0)

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [(0.9, 0.99, "beta must lie in"), (0.5, 1.0, "beta must lie in"), (1.0, 0.5, "alpha must be < cos"),
         (0.75, 0.75, "not spirallike of order alpha")],
    )
    def test_direct_construction_validates(self, alpha, beta, message):
        # the composition's rules hold for g however it is built, not only through covering_composition
        with pytest.raises(DomainError, match=message):
            CoveringComposition(self.collapse_witness(), alpha, beta)

    def test_direct_construction_matches_covering_composition(self):
        s = self.collapse_witness()
        direct, (built, _) = CoveringComposition(s, 0.5, 0.5), covering_composition(s, 0.5, 0.5)
        assert direct == built
        z = sc.DEFAULT_GRID.points()
        for fn in ("__call__", "half_plane_map"):
            got, ref = getattr(direct, fn)(z), getattr(built, fn)(z)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_spiral_angle_rule(self):
        # the OMEGA_TOL slack admits mu = 1.5e-12*e^{i(pi/2 + 5e-13)}: phi past pi/2 and order
        # -8.75e-13, which InteriorSpirallikeMap accepts; alpha = -0.5 passes every other rule
        params = ClassParams(1.5e-12 * np.exp(1j * (math.pi / 2 + 5e-13)), 0.5)
        s = InteriorSpirallikeMap(core_function(params), params)
        assert s.phi > math.pi / 2 and -1e-12 < s.order < 0.0
        with pytest.raises(DomainError, match=r"\|phi\| must be < pi/2"):
            CoveringComposition(s, -0.5, 0.5)
        with pytest.raises(DomainError, match=r"\|phi\| must be < pi/2"):
            covering_composition(s, -0.5, 0.5)

    def test_parameter_validation(self):
        s = self.collapse_witness()
        with pytest.raises(DomainError):
            covering_composition(s, 1.1, 0.5)
        with pytest.raises(DomainError):
            covering_composition(s, 0.5, 0.0)
        with pytest.raises(DomainError):
            covering_composition(s, 0.5, 1.1)

    def test_rejects_insufficient_order(self):
        params = ClassParams(2.0, 0.5)  # order 1/2
        s = InteriorSpirallikeMap(core_function(params), params)
        with pytest.raises(DomainError):
            covering_composition(s, 0.75, 0.75)
        # order cos(0.4) - 0.3 = 0.621 < alpha, with alpha < cos(phi) and beta <= alpha/cos(phi)
        params = ClassParams(1.2 * np.exp(0.4j), 0.5)
        s = InteriorSpirallikeMap(extremal(params, 1j), params)
        with pytest.raises(DomainError, match="not spirallike of order alpha"):
            covering_composition(s, 0.8, 0.5)
