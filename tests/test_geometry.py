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
    random_measure,
    wedge_margin,
    wedge_spirals,
    winding_numbers,
)
from spiralcover.functions import _factor_sums
from spiralcover.geometry import GAP_SCAN_T, _arc_steps
from spiralcover.serialize import curve_csv

from conftest import bit_equal, draw_params


def regular_ngon(n=256, center=0.0, radius=1.0):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return PolyLine(center + radius * np.exp(1j * theta))


class TestPolyLine:
    def test_too_few_closed_points(self):
        with pytest.raises(ValueError):
            PolyLine(np.exp(1j * np.linspace(0, 6, 8)))

    def test_duplicate_points_rejected(self):
        # the segment from the last point back to the first (k = -1) is a segment too
        for k in (5, -1):
            pts = np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
            pts[k] = pts[k + 1]
            with pytest.raises(ValueError, match="coincide"):
                PolyLine(pts)

    def test_csv_round_trip_shape(self):
        poly = regular_ngon(16)
        csv = curve_csv(poly.points)
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
        eight = PolyLine(np.concatenate([left, right]))
        wn, indet, _ = winding_numbers(eight, [-1.0, 1.0, 3.0])
        assert list(wn) == [1, -1, 0]
        assert not indet.any()

    def test_on_curve_indeterminate(self):
        poly = regular_ngon(64)
        edge_mid = (poly.points[0] + poly.points[1]) / 2.0
        assert winding_numbers(poly, [edge_mid])[1][0]

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_cyclic_rotation_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        radii = rng.uniform(0.5, 1.5, size=64)
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = radii * np.exp(1j * theta)
        poly = PolyLine(pts)
        rolled = PolyLine(np.roll(pts, shift))
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        base, indet, _ = winding_numbers(poly, [w])
        if indet[0]:
            return
        assert winding_numbers(rolled, [w])[0][0] == base[0]
        assert winding_numbers(PolyLine(pts[::-1]), [w])[0][0] == -base[0]

    def test_vectorized_matches_scalar(self):
        poly = regular_ngon(128)
        ws = np.array([0.0, 0.5 + 0.2j, 2.0, -3.0j])
        wn, indet, dists = winding_numbers(poly, ws)
        assert not indet.any()
        assert list(wn) == [winding_numbers(poly, [w])[0][0] for w in ws]
        assert np.all(dists > 0)

    def test_points_taken_flat(self):
        # a 2-D input gives the three arrays of its flattened input
        poly = regular_ngon(64)
        flat = winding_numbers(poly, [0, 0.1, 0.2, 5])
        for got, want in zip(winding_numbers(poly, [[0, 0.1], [0.2, 5]]), flat):
            assert got.dtype == want.dtype and got.shape == (4,) and got.tobytes() == want.tobytes()
        assert list(flat[0]) == [1, 1, 1, 0]


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
        poly = PolyLine(scale * (center + rng.uniform(0.2, 2.0, size=n) * np.exp(1j * theta)))
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
        poly = PolyLine(np.exp(1j * turns * t) * (1.0 + depth * np.cos(t)))
        assert_matches_dense(poly, probe_points(poly, np.random.default_rng(seed), 100))
        assert winding_numbers(poly, [0.0])[0][0] == turns

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_figure_eight(self, seed):
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        eight = PolyLine(np.concatenate([-1.0 + np.exp(1j * theta), 1.0 - np.exp(-1j * theta)]))
        wn, indet = assert_matches_dense(eight, probe_points(eight, np.random.default_rng(seed), 150))
        assert set(wn[~indet]) <= {-1, 0, 1}

    @given(st.integers(min_value=16, max_value=80), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_vertices_and_edge_midpoints_indeterminate(self, n, seed):
        rng = np.random.default_rng(seed)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        poly = PolyLine(rng.uniform(0.2, 2.0, size=n) * np.exp(1j * theta))
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


def winding_oracle(f, params, r, rho, m):
    """The covering verdict of the winding test: m core samples on |z| = r each wind once, determinately,
    inside boundary_curve(f, rho, 512)."""
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    ws = evaluate(core_function(params), r * np.exp(1j * theta))
    wn, indet, _ = winding_numbers(boundary_curve(f, rho, n=512), ws)
    return bool(np.all(wn == 1) and not indet.any())


def bare_powers(population):
    """(1-z)**(0.3*mu) declared with beta = 0.6: part of the declared core (1-z)**(0.6*mu) is not covered."""
    return [(ProductForm(0.3 * e.params.mu), ClassParams(e.params.mu, 0.6)) for e in population[:10]]


# (r_inner, rho, start arcs): cover's defaults, and the benchmark's radii
SETTINGS = [(0.9, 0.99, 256), (0.95, 0.999, 512)]


def maps_at_one(beta):
    """The single-atom member of G(1, beta) with its atom at angle 2*pi, node 1 + 2.4e-16i, and the
    factor-form map with node 1 - 1e-13i and the same exponents: each within NODE_TOL of 1, not equal to it."""
    params = ClassParams(1.0, beta)
    member = construct(params, make_measure([(np.exp(2j * np.pi), 1.0)]))
    return params, [member, ProductForm(member.prefactor, ((1.0 - 1e-13j, member.exponents[0]),))]


class TestBoundaryCovering:
    """check_covering decides core(|z| <= r) in f(|z| < rho) from v = log f/(mu*beta) on |z| = rho."""

    @pytest.mark.parametrize("r,rho,m", SETTINGS)
    def test_members_meet_the_schwarz_bound(self, population, r, rho, m):
        # by subordination |1 - e^v| = |core^-1(f(z))| >= |z| = rho for every member
        for e in population:
            report = check_covering(e.f, e.params, r, rho, m)
            assert report.worst_margin >= rho - r - 1e-12, e.params
            assert report.passed and report.indeterminate == 0 and report.samples == m
            assert abs(abs(report.worst_location) - rho) <= 1e-12

    @pytest.mark.parametrize("r,rho,m", [(0.9, 0.99, 256), (0.95, 0.999, 2048)])
    def test_interior_node_members_meet_the_schwarz_bound(self, interior_population, r, rho, m):
        # the covering theorem beyond atomic measures: members whose nodes lie inside the disk
        for f, params in interior_population:
            report = check_covering(f, params, r, rho, m)
            assert report.passed and report.worst_margin >= rho - r, (f, params)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31),
        st.complex_numbers(max_magnitude=1.0),
        st.floats(min_value=0.01, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_members_meet_the_schwarz_bound(self, atoms, seed, offset, beta):
        params = ClassParams(1.0 + offset if abs(1.0 + offset) >= 0.05 else 1.0, beta)
        report = check_covering(construct(params, random_measure(atoms, seed)), params, 0.95, 0.999, 512)
        assert report.worst_margin >= 0.049 - 1e-12 and report.indeterminate == 0

    def test_core_margin_is_rho_minus_r(self, population):
        # the core is the equality case: 1 - e^v = z on the circle
        for e in population:
            for r, rho, m in SETTINGS:
                report = check_covering(core_function(e.params), e.params, r, rho, m)
                assert abs(report.worst_margin - (rho - r)) <= 1e-12 and report.indeterminate == 0

    @pytest.mark.parametrize("beta", [0.01, 0.05])
    @pytest.mark.parametrize("r,rho,m", SETTINGS + [(0.95, 0.999, 2048)])
    def test_factors_near_one_share_its_pole(self, beta, r, rho, m):
        # a node within NODE_TOL of 1 folds into the pole of (1-z)**P, as boundary_exponent counts it, so
        # the core's exponents cancel in the arc bound and the map decides as the core does
        params, maps = maps_at_one(beta)
        for f in maps:
            report = check_covering(f, params, r, rho, m)
            assert report.indeterminate == 0 and abs(report.worst_margin - (rho - r)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.01, 0.05])
    @pytest.mark.parametrize("r,rho,m", SETTINGS + [(0.95, 0.999, 2048)])
    def test_arc_bound_holds_near_one(self, beta, r, rho, m):
        # L*h bounds |v(theta) - v(theta_a)| on each start arc, the folded factors' remainder included;
        # v at 64 equally spaced points of every arc comes from one pass over the factors
        params, maps = maps_at_one(beta)
        mb = params.mu * params.beta
        theta, h = 2.0 * np.pi * np.arange(m) / m, 2.0 * np.pi / m
        rows = np.append(np.arange(m), 0)[None, :]
        along = theta[:, None] + h * np.linspace(0.0, 1.0, 64)
        for f in maps:
            F = ProductForm(f.prefactor / mb, np.column_stack([f.nodes, f.exponents / mb]))
            lh = _arc_steps(F, rho)(rho * np.exp(1j * theta[rows]), theta[rows], np.array([h]))
            v = _factor_sums(F, rho * np.exp(1j * along))[1]
            assert np.all(lh >= np.abs(v - v[:, :1]).max(axis=1))

    @pytest.mark.parametrize("r,rho,m", SETTINGS)
    def test_failing_bare_powers_give_a_witness(self, population, r, rho, m):
        # at worst_z, f equals core(zeta) for a zeta in the closed r-disk
        for f, params in bare_powers(population):
            report = check_covering(f, params, r, rho, m)
            assert not report.passed and report.worst_margin < 0.0
            z = report.worst_location
            assert abs(abs(z) - rho) <= 1e-12
            zeta = 1.0 - np.exp(eval_log(f, z) / (params.mu * params.beta))
            assert abs(zeta) <= r
            assert evaluate(core_function(params), zeta) == pytest.approx(evaluate(f, z), rel=1e-9)

    # and near the circle, where a decided pass must imply that the winding test passes too
    @pytest.mark.parametrize("r,rho,m", SETTINGS + [(0.999, 0.99999, 512)])
    def test_verdicts_match_the_winding_oracle(self, population, r, rho, m):
        cases = [(e.f, e.params) for e in population] + bare_powers(population)
        for f, params in cases:
            assert check_covering(f, params, r, rho, m).passed is winding_oracle(f, params, r, rho, m)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_random_decided_passes_match_the_winding_oracle(self, atoms, seed):
        # near the circle a decided pass must imply that the winding test passes, on members drawn as the population's
        params = draw_params(np.random.default_rng(seed))
        f = construct(params, random_measure(atoms, seed))
        if check_covering(f, params, 0.999, 0.99999, 512).passed:
            assert winding_oracle(f, params, 0.999, 0.99999, 512)

    def test_covering_composition(self, population):
        # the three maps of TestCoveringComposition cover |w| <= 0.95 from |z| < 0.999
        starlike, spiral = ClassParams(2.0, 0.5), ClassParams(1.2 * np.exp(0.4j), 0.5)
        for source, params in [(core_function(starlike), starlike), (construct(starlike, population[0].measure), starlike),
                               (construct(spiral, population[0].measure), spiral)]:
            _, report = covering_composition(InteriorSpirallikeMap(source, params), 0.5, 0.5)
            assert report.check == "disk-coverage" and report.samples == 256 and report.indeterminate == 0
            assert 0.049 - 1e-12 <= report.worst_margin <= 0.05

    def test_beta_zero_rejected(self):
        params = ClassParams(1.0, 0.0)
        with pytest.raises(DomainError, match="cover needs beta > 0"):
            check_covering(core_function(params), params, 0.9, 0.99)

    def test_evaluations_counted(self, worked_example, population, monkeypatch):
        # the cost is margin evaluations, one pass over the factors each round of arcs; unlike a
        # timing the count can be pinned, so a change that evaluates more fails here
        f, params = worked_example
        geometry = sc.geometry
        points = []

        def counting(F, z, *args, **kwargs):
            points.append(z.size)
            return factor_sums(F, z, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("check_covering takes no boundary polygon")

        factor_sums = geometry._factor_sums
        monkeypatch.setattr(geometry, "_factor_sums", counting)
        monkeypatch.setattr(geometry, "boundary_curve", forbidden)
        monkeypatch.setattr(geometry, "winding_numbers", forbidden)
        report = check_covering(f, params, 0.95, 0.999, m=2048)
        assert report.passed and report.samples == 2048
        assert points == [2048]
        points.clear()
        for e in population[:20]:
            check_covering(e.f, e.params, 0.95, 0.999, m=2048)
        assert (sum(points), len(points)) == (40976, 27)


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
    # segment lengths overflow float arithmetic; f(0) = 1 must not be reported outside.
    # The covering check takes no polygon and decides the map
    F, PARAMS = ProductForm(-60.0), ClassParams(1.0, 0.5)

    @pytest.mark.parametrize("warning_action", ["default", "error"])
    def test_library_calls_raise(self, warning_action):
        curve = boundary_curve(self.F, 0.999)
        assert np.all(np.isfinite(curve.points))
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action, RuntimeWarning)
            with pytest.raises(DomainError, match="winding test overflows"):
                winding_numbers(curve, [1.0, 2.0, 0.5])

    @pytest.mark.parametrize("warning_action", ["default", "error"])
    def test_covering_decided_from_the_circle(self, warning_action):
        # v = -120*Log(1-z) stays finite; a scan of 2**20 angles puts the least margin at 0.05
        with warnings.catch_warnings():
            warnings.simplefilter(warning_action, RuntimeWarning)
            report = check_covering(self.F, self.PARAMS, 0.95, 0.999)
        assert report.passed and report.indeterminate == 0
        assert report.worst_margin == pytest.approx(0.05, abs=1e-9)


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
        for s, t in (
            (0.5, 4.0), (0.0, 0.5), (0.5, math.nan), (0.5, -math.inf), (0.5, [0.0, 4.0]), (0.5, [0.0, math.nan]),
        ):
            with pytest.raises(DomainError):
                boundary_gap_profile(s, t)

    @given(st.floats(min_value=1e-6, max_value=2.0), st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=40))
    def test_scalar_and_array_agree(self, s, ts):
        values = boundary_gap_profile(s, np.array(ts))
        assert values.shape == (len(ts),)
        for t, value in zip(ts, values.tolist()):
            scalar = boundary_gap_profile(s, t)
            assert type(scalar) is float and bit_equal(scalar, value)


class TestGapScan:
    """The scan radius-table takes: the gap profile's minimum over GAP_SCAN_T."""

    def test_small_s_minimum_at_zero(self):
        assert GAP_SCAN_T[0] == 0.0
        for s in (0.01, 0.25, 0.5, 0.75, 0.99):
            gaps = boundary_gap_profile(s, GAP_SCAN_T)
            assert gaps.argmin() == 0 and gaps.min() == boundary_gap_profile(s, 0.0)

    def test_large_s_minimum_at_pi(self):
        assert GAP_SCAN_T[-1] == math.pi and GAP_SCAN_T.size == 4097
        for s in (1.01, 1.03125, 1.5, 2.0):
            gaps = boundary_gap_profile(s, GAP_SCAN_T)
            assert gaps.argmin() == GAP_SCAN_T.size - 1 and gaps.min() == 1.0

    def test_branch_agreement_at_one(self):
        gaps = boundary_gap_profile(1.0, GAP_SCAN_T)
        assert np.all(np.abs(gaps - 1.0) <= 4 * np.finfo(float).eps)

    @given(st.floats(min_value=0.0, max_value=2.0, exclude_min=True))
    def test_matches_closed_form(self, s):
        assert abs(math.sqrt(boundary_gap_profile(s, GAP_SCAN_T).min()) - covering_radius(s)) <= 1e-8

    def test_domain(self):
        for s in (0.0, 2.1, math.nan):
            with pytest.raises(DomainError):
                boundary_gap_profile(s, GAP_SCAN_T)


class TestWedgeSpirals:
    def test_axis_anchors(self):
        # t runs from -1, where e^{-t} = e
        up, down = wedge_spirals(1.0, 0.0)
        assert up[0] == pytest.approx(math.e * 1.0j)
        assert down[0] == pytest.approx(-math.e * 1.0j)

    def test_real_exponent_constant_argument(self):
        up, _ = wedge_spirals(1.3, 0.2)
        args = np.angle(up)
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
        # s and g each read eval_log of the one product form they keep: s(z)/z, prefactor p - mu with f's
        # factors, and 1 - g, the form covering_composition certifies
        params = ClassParams(mu, 0.6)
        f = ProductForm(mu, ((0.9 + 0.4j, 0.2 * mu), (0.9 - 0.4j, 0.2 * mu)))
        s = InteriorSpirallikeMap(f, params)
        g, _ = covering_composition(s, 0.3, 0.3)
        assert s._ratio == ProductForm(0.0, f.factors)
        z = (np.linspace(0.05, 0.99, 4)[:, None] * np.exp(1j * np.linspace(0.0, 6.0, 25))).ravel()
        log_ratio = eval_log(s._ratio, z)
        core = np.exp(eval_log(g._form, z))
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
