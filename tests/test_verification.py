import cmath
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spiralcover as sc
from spiralcover import verification
from spiralcover import (
    ClassParams,
    DomainError,
    GridEvaluation,
    GridSpec,
    InteriorSpirallikeMap,
    ProductForm,
    VerificationReport,
    check_derivative_disk,
    check_derivative_value_bounds,
    check_distortion,
    check_growth,
    check_interior_identity,
    check_membership,
    check_schwarz,
    check_value_bounds,
    class_margin,
    construct,
    core_function,
    derivative_bounds,
    derivative_functional,
    distortion_coefficient,
    eval_log,
    evaluate,
    extremal,
    make_measure,
    modulus_arg_bounds,
    random_measure,
    schwarz_function,
)
from spiralcover.serialize import dumps, load_function_spec

from conftest import MASTER_SEED, bit_equal, build_population, growth_shifts, reference_growth_margin


class TestGrid:
    def test_default_size(self):
        assert sc.DEFAULT_GRID.points().size == 7 * 128

    def test_radius_cap_keeps_points_off_one(self):
        pts = GridSpec(radii=(0.999,), angles_per_ring=4096).points()
        assert pts.size == 4096
        assert np.all(np.abs(pts - 1.0) >= 1e-3)

    def test_radius_cap(self):
        with pytest.raises(ValueError):
            GridSpec(radii=(0.9995,))

    def test_needs_a_radius(self):
        with pytest.raises(ValueError, match="at least one radius"):
            GridSpec(radii=())

    def test_points_computed_once(self):
        grid = GridSpec((0.5, 0.9), 16)
        pts = grid.points()
        assert grid.points() is pts and not pts.flags.writeable
        # equality and hashing stay on the two fields, whether or not the points were computed
        fresh = GridSpec((0.5, 0.9), 16)
        assert fresh == grid and hash(fresh) == hash(grid) and repr(fresh) == repr(grid)
        assert bit_equal(fresh.points(), pts)
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.angles_per_ring = 8

    @pytest.mark.parametrize("radii", [[0.5, 0.9], np.array([0.5, 0.9])], ids=["list", "array"])
    def test_radii_kept_as_a_tuple_of_floats(self, radii):
        grid = GridSpec(radii, np.int64(16))
        tuple_grid = GridSpec((0.5, 0.9), 16)
        assert grid == tuple_grid and hash(grid) == hash(tuple_grid) and repr(grid) == repr(tuple_grid)
        assert all(type(r) is float for r in grid.radii) and type(grid.angles_per_ring) is int
        assert bit_equal(grid.points(), tuple_grid.points())

    def test_non_integer_angle_count_rejected(self):
        with pytest.raises(ValueError, match="angles per ring must be an integer"):
            GridSpec((0.5, 0.9), 2.5)

    def test_default_grid_unchanged(self):
        radii = (0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.995)
        assert repr(sc.DEFAULT_GRID) == f"GridSpec(radii={radii!r}, angles_per_ring=128)"
        assert hash(sc.DEFAULT_GRID) == hash((radii, 128))


class TestReport:
    @pytest.mark.parametrize(
        "margin,tol,passed",
        [(-1e-9, 1e-9, True), (np.nextafter(-1e-9, -1.0), 1e-9, False), (-0.0, 0.0, True), (-1.0, 1e-9, False)],
    )
    def test_passed_follows_the_margin(self, margin, tol, passed):
        assert VerificationReport("x", margin, 0.0, tol, 1).passed is passed
        assert verification._report("x", np.array([1.0, margin]), np.zeros(2), tol).passed is passed

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_margin_rejected(self, bad):
        with pytest.raises(DomainError, match="schwarz: margin not finite at 1 of 3 points"):
            verification._report("schwarz", np.array([0.5, bad, 1.0]), np.zeros(3), 1e-9)

    def test_json_schema(self):
        rep = VerificationReport("x", 0.5, 0.1 + 0.2j, 1e-9, 3)
        d = json.loads(dumps(rep))
        assert set(d) == {"check", "passed", "worst_margin", "worst_z", "tolerance", "samples"}
        assert d["worst_z"] == [0.1, 0.2]

    def test_indeterminate_count_is_not_serialized(self):
        rep = VerificationReport("x", 0.5, 0.1 + 0.2j, 1e-9, 3, indeterminate=2)
        assert rep.indeterminate == 2
        assert dumps(rep) == dumps(VerificationReport("x", 0.5, 0.1 + 0.2j, 1e-9, 3))
        assert len(json.loads(dumps(rep))) == 6


class TestOverflow:
    # f = (1-z)/(1-z/2)**1e300 overflows on the default grid
    SPEC = {"mu": 1, "beta": 0.5, "factors": [{"node": [0.5, 0], "exponent": [1e300, 0]}]}
    OVERFLOWING = {
        check_distortion: "distortion-coefficient",
        check_schwarz: "schwarz",
        check_value_bounds: "value-bounds",
        check_derivative_value_bounds: "derivative-bounds",
    }

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("check", list(OVERFLOWING), ids=list(OVERFLOWING.values()))
    def test_library_check_raises_domain_error(self, check, action):
        # the same error under either warning filter, and no numpy warning on the way
        f, params = load_function_spec(self.SPEC)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(DomainError, match=f"^{self.OVERFLOWING[check]}: margin not finite"):
                check(GridEvaluation(f), params)
        assert seen == []

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_growth_rate_stays_finite(self, action):
        # growth compares logs, which stay finite where |f| overflows: the map fails with a
        # finite rate, at most the t -> 0+ row's (|mu|/2) times the class margin, and no warning
        f, params = load_function_spec(self.SPEC)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action, RuntimeWarning)
            ev = GridEvaluation(f)
            rep = check_growth(ev, params)
        assert seen == []
        assert not rep.passed and math.isfinite(rep.worst_margin)
        assert rep.worst_margin <= 0.5 * check_membership(ev, params).worst_margin < 0.0


class TestClassMargin:
    def test_origin_value(self):
        params = ClassParams(1.2 + 0.3j, 0.35)
        f = construct(params, random_measure(3, 1))
        # z = 0 kills the derivative term: margin is 1 - beta for any map
        assert class_margin(GridEvaluation(f, 0.0), params) == pytest.approx(1.0 - params.beta)

    def test_worked_example_origin(self, worked_example):
        f, params = worked_example
        assert class_margin(GridEvaluation(f, 0.0), params) == pytest.approx(0.4)

    def test_core_real_axis_formula(self):
        # direct substitution gives (1 + r - 2*beta*r)/(1 - r) - beta
        for mu, beta in [(1.0, 0.3), (1.7, 0.6), (0.5 + 0.5j, 0.2)]:
            params = ClassParams(mu, beta)
            f = core_function(params)
            for r in (0.1, 0.5, 0.9):
                expected = (1 + r - 2 * beta * r) / (1 - r) - beta
                assert class_margin(GridEvaluation(f, r), params) == pytest.approx(expected)


class TestGridEvaluation:
    def test_arrays_are_computed_once_and_read_only(self, worked_example):
        ev = GridEvaluation(worked_example[0])
        for name in ("points", "log_f", "dlog_f", "log_1mz"):
            arr = getattr(ev, name)
            assert getattr(ev, name) is arr
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_points_are_a_flat_read_only_copy(self):
        f = ProductForm(1.0)
        pts = np.array([[0.1, 0.2j], [0.3, -0.4]])
        ev = GridEvaluation(f, pts)
        assert ev.points.shape == (4,) and ev.points.dtype == np.complex128
        assert np.array_equal(ev.points, pts.ravel())
        assert pts.flags.writeable
        assert GridEvaluation(f, 0.5).points.tolist() == [0.5]
        assert np.array_equal(GridEvaluation(f).points, sc.DEFAULT_GRID.points())

    def test_without_dlog(self, worked_example, grid):
        # dlog false: the same log f and Log(1-z), bit for bit, and no f'/f
        members = [construct(ClassParams(0.9 + 0.4j, 0.35), random_measure(n, 7)) for n in (2, 2048)]
        for f in (worked_example[0], ProductForm(1.3 - 0.2j), *members):
            full, bare = GridEvaluation(f, grid.points()), GridEvaluation(f, grid.points(), dlog=False)
            assert bare.dlog_f is None and full.dlog_f is not None
            assert bit_equal(bare.log_f, full.log_f) and bit_equal(bare.log_1mz, full.log_1mz)
            assert not (bare.log_f.flags.writeable or bare.log_1mz.flags.writeable)

    @pytest.mark.parametrize("points", [[], np.empty((3, 0))], ids=["empty-list", "empty-2d"])
    def test_rejects_no_points(self, points):
        # a scan of no points has no worst margin
        with pytest.raises(ValueError, match="at least one point"):
            GridEvaluation(ProductForm(1.0), points)

    def test_matches_direct_evaluation(self, worked_example, grid):
        pts = grid.points()
        # the worked example, and maps of 0, 2 and 2048 factors: one block of factors, and several
        members = [construct(ClassParams(0.9 + 0.4j, 0.35), random_measure(n, 7)) for n in (2, 2048)]
        for f in (worked_example[0], ProductForm(1.3 - 0.2j), *members):
            ev = GridEvaluation(f, pts)
            # the one pass has the bits of the single-mode passes
            assert np.array_equal(ev.points, pts)
            assert bit_equal(ev.log_f, eval_log(f, pts))
            assert bit_equal(ev.dlog_f, sc.log_derivative(f, pts))
            assert bit_equal(ev.log_1mz, sc.log_principal(1.0 - pts))

    @pytest.mark.parametrize(
        "bad, match", [(1.0, "outside the open unit disk"), (complex("nan"), "non-finite")], ids=["one", "nan"]
    )
    def test_points_checked_when_built(self, bad, match):
        with pytest.raises(DomainError, match=match):
            GridEvaluation(ProductForm(1.0), [0.5, bad])

    # the grid `check` reads unless told otherwise, its wedge ring, and a grid the --grid-* flags name
    SPECS = [sc.DEFAULT_GRID, verification._GRID_CHECKS["wedge-containment"].grid, GridSpec((0.5, 0.9), 16)]

    @pytest.mark.parametrize("spec", SPECS, ids=["default", "wedge-ring", "custom"])
    def test_spec_arrays_kept_as_they_are(self, spec, worked_example):
        # no copy and no second Log(1-z): the evaluation reads the record its GridSpec keeps
        for dlog in (True, False):
            ev = GridEvaluation(worked_example[0], spec, dlog=dlog)
            assert ev.points is spec.points() and ev.log_1mz is spec._arrays.log_1mz
        assert GridEvaluation(worked_example[0]).points is sc.DEFAULT_GRID.points()

    @pytest.mark.parametrize("spec", SPECS, ids=["default", "wedge-ring", "custom"])
    def test_raw_points_match_their_spec(self, spec, population):
        # raw points get a record of their own, with the bits of the one their GridSpec keeps
        for entry in population:
            for f, params in ((entry.f, entry.params), (entry.real_f, entry.real_params)):
                kept, raw = GridEvaluation(f, spec), GridEvaluation(f, np.array(spec.points()))
                assert raw.points is not kept.points and raw.log_1mz is not kept.log_1mz
                for name in ("points", "log_1mz", "log_f", "dlog_f"):
                    assert bit_equal(getattr(raw, name), getattr(kept, name)), name
                for name, check in verification._GRID_CHECKS.items():
                    if check.applies(params, f):
                        assert bit_equal(check.margin(raw, params), check.margin(kept, params)), name


class TestMembership:
    def test_measure_built_maps_pass(self, population):
        for entry in population[:10]:
            assert check_membership(GridEvaluation(entry.f), entry.params).passed

    def test_worked_example_passes(self, worked_example):
        f, params = worked_example
        assert check_membership(GridEvaluation(f), params).passed

    def test_interior_node_members_pass(self, interior_population):
        # members whose measure has no atom, beta 1e-3 below the class expression's least value on the circle
        for f, params in interior_population:
            ev = GridEvaluation(f)
            assert check_membership(ev, params).passed and check_distortion(ev, params).passed, (f, params)

    def test_cube_fails_unit_class(self):
        # (1-z)**3 is not in the beta = 0 class: the margin equals
        # Re(5 - 4/(1-z)), negative once Re(1/(1-z)) > 5/4
        rep = check_membership(GridEvaluation(ProductForm(3.0)), ClassParams(1.0, 0.0))
        assert not rep.passed
        assert rep.worst_margin < -1.0


class TestDistortion:
    def test_extremal_on_unit_circle(self):
        params = ClassParams(1.3, 0.4)
        xi = cmath.exp(1.1j)
        f = extremal(params, xi)
        pts = sc.DEFAULT_GRID.points()
        lam = distortion_coefficient(GridEvaluation(f, pts), params)
        assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-9
        # oracle: (1-z)/f**(1/mu) = (1 - z*conj(xi))**(1-beta), so the
        # coefficient is -conj(xi) for every z
        assert np.max(np.abs(lam - (-np.conj(xi)))) <= 1e-9

    def test_core_constant_minus_one(self):
        params = ClassParams(1.0, 0.6)
        lam = distortion_coefficient(GridEvaluation(core_function(params), 0.3 + 0.4j), params)
        assert lam == pytest.approx(-1.0)

    def test_two_atoms_strictly_interior(self):
        # designated witness: well-separated atoms with weight >= 0.05
        params = ClassParams(1.0, 0.0)
        f = construct(params, make_measure([(1.0, 0.5), (1.0j, 0.3), (-1.0, 0.2)]))
        rep = check_distortion(GridEvaluation(f), params)
        assert rep.passed
        assert rep.worst_margin >= 1e-6

    def test_union_identity_restatement(self, population):
        # |exp(q/(1-beta)) - 1| = |lambda*z| <= 1 everywhere
        for entry in population[:10]:
            pts = sc.DEFAULT_GRID.points()
            lam = distortion_coefficient(GridEvaluation(entry.f, pts), entry.params)
            assert np.max(np.abs(lam * pts)) <= 1.0 + 1e-9

    def test_rejected_at_origin(self):
        params = ClassParams(1.0, 0.0)
        with pytest.raises(DomainError):
            distortion_coefficient(GridEvaluation(core_function(params), 0.0), params)


class TestDerivativeFunctional:
    def test_origin_disk(self):
        params = ClassParams(1.0 + 0.7j, 0.3)
        f = construct(params, random_measure(4, 6))
        value, center, radius = derivative_functional(GridEvaluation(f, 0.0), params)
        assert center == 0.0
        assert radius == pytest.approx(1.0 - params.beta)
        assert abs(value) <= radius + 1e-12

    def test_core_sits_on_boundary_at_origin(self):
        params = ClassParams(1.4, 0.45)
        value, center, radius = derivative_functional(GridEvaluation(core_function(params), 0.0), params)
        assert value == pytest.approx(1.0 - params.beta)
        assert abs(value - center) == pytest.approx(radius)

    def test_two_atom_strict_interior(self):
        params = ClassParams(1.0, 0.2)
        f = construct(params, make_measure([(1.0j, 0.5), (-1.0j, 0.5)]))
        value, center, radius = derivative_functional(GridEvaluation(f, 0.5), params)
        assert abs(value - center) < radius - 1e-6

    def test_population_disk_membership(self, population):
        for entry in population[:10]:
            assert check_derivative_disk(GridEvaluation(entry.f), entry.params).passed


class TestModulusArgBounds:
    def test_collapse_at_origin(self):
        b = modulus_arg_bounds(ClassParams(1.0, 0.3), 0.0)
        assert (b.mod_lo, b.mod_hi, b.arg_cap) == (1.0, 1.0, 0.0)

    def test_arc_sine_cap(self):
        b = modulus_arg_bounds(ClassParams(1.0, 0.0), 0.5j)
        assert b.arg_cap == pytest.approx(math.pi / 6)

    def test_core_modulus_within_envelope(self):
        params = ClassParams(1.6, 0.4)
        f = core_function(params)
        for r in (0.2, 0.5, 0.9):
            b = modulus_arg_bounds(params, r)
            val = abs(evaluate(f, r))
            assert b.f_lo - 1e-12 <= val <= b.f_hi + 1e-12

    def test_complex_mu_has_no_f_envelope(self):
        b = modulus_arg_bounds(ClassParams(1.0 + 0.5j, 0.2), 0.3)
        assert b.f_lo is None and b.f_hi is None

    def test_extremal_modulus_equalities(self):
        # equality at z = +-|z|*xi for the single-atom extremals
        params = ClassParams(1.2, 0.35)
        xi = cmath.exp(0.9j)
        f = extremal(params, xi)
        for r in (0.3, 0.7, 0.95):
            b = modulus_arg_bounds(params, r * xi)
            q = sc.log_principal(1 - r * xi) - eval_log(f, r * xi) / params.mu
            assert abs(math.exp(q.real) - b.mod_lo) <= 1e-6
            q = sc.log_principal(1 + r * xi) - eval_log(f, -r * xi) / params.mu
            assert abs(math.exp(q.real) - b.mod_hi) <= 1e-6

    def test_population_envelopes(self, population):
        for entry in population[:10]:
            assert check_value_bounds(GridEvaluation(entry.f), entry.params).passed

    @given(
        st.floats(1e-12, 2.0, exclude_min=True), st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 1.0, exclude_max=True), st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_f_envelopes_are_modulus_envelopes_to_the_mu(self, mu, beta, r, theta):
        # for real mu in (0, 2] (the class takes |mu| > 1e-12), |f| = (|1-z|/|(1-z)/f**(1/mu)|)**mu:
        # f_lo restates mod_hi and f_hi restates mod_lo
        z = r * cmath.exp(1j * theta)
        assume(np.abs(z) < 1.0)  # numpy's modulus, which the envelopes hold the points to
        b = modulus_arg_bounds(ClassParams(mu, beta), z)
        power = abs(1.0 - z) ** mu
        assert b.f_lo == pytest.approx(power / b.mod_hi**mu, rel=1e-12, abs=0.0)
        assert b.f_hi == pytest.approx(power / b.mod_lo**mu, rel=1e-12, abs=0.0)

    LADDER = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.3)
    # (1-z)**2/(1+z)**2, extremal at beta = 0, checked just past it: its worst |f| margin sits on the default
    # grid at z = -0.995, where |f| is 1.6e5
    EDGE = [(extremal(ClassParams(2.0, 0.0), -1.0), ClassParams(2.0, delta)) for delta in (2e-10, 5e-10, 2e-8)]

    @pytest.mark.parametrize("seed", [1, MASTER_SEED])
    def test_f_envelopes_are_margins_of_value_bounds(self, seed, population):
        # value-bounds' worst margin is at most its worst |f| margin, on both parameter sets at beta + delta
        # and on the edge extremals
        entries = population if seed == MASTER_SEED else build_population(seed=seed)
        cases = [
            (f, ClassParams(declared.mu, declared.beta + delta))
            for entry in entries
            for f, declared in ((entry.f, entry.params), (entry.real_f, entry.real_params))
            for delta in self.LADDER
            if declared.beta + delta < 1.0
        ]
        pts, failed = sc.DEFAULT_GRID.points(), 0
        for f, params in cases + self.EDGE:
            rep, b = check_value_bounds(GridEvaluation(f, pts), params), modulus_arg_bounds(params, pts)
            if b.f_lo is not None:
                fmod = np.abs(evaluate(f, pts))
                worst = min(np.min(fmod - b.f_lo), np.min(b.f_hi - fmod))
                assert rep.worst_margin <= worst + 1e-13 * np.max(fmod)
            failed += not rep.passed
        assert len(cases) > 1000 and 0 < failed < len(cases)

    def test_f_margin_fails_where_modulus_margin_passes(self):
        # f_hi restates mod_lo, but the tolerance is absolute: at z = -0.995 the modulus margin of the
        # edge extremal at beta = 5e-10 is within it and the |f| margin, 1.6e5 times larger, is not
        f, params = self.EDGE[1]
        ev, z = GridEvaluation(f), -0.995
        b = modulus_arg_bounds(params, z)
        q = sc.log_principal(1 - z) - eval_log(f, z) / params.mu
        assert -verification.PASS_TOL < math.exp(q.real) - b.mod_lo < 0.0
        assert b.f_hi - abs(evaluate(f, z)) < -1e5 * verification.PASS_TOL
        assert check_schwarz(ev, params).passed and check_distortion(ev, params).passed
        rep = check_value_bounds(ev, params)
        assert not rep.passed and rep.worst_location == pytest.approx(z)

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            modulus_arg_bounds(ClassParams(1.0, 0.0), 1.0)


class TestDerivativeBounds:
    def test_origin_values(self):
        params = ClassParams(1.5, 0.4)
        b = derivative_bounds(params, 0.0)
        assert b.lower == pytest.approx(1.5 * 0.4)
        assert b.upper == pytest.approx(1.5 * (2.0 - 0.4))
        assert b.simple_upper == pytest.approx(3.0)

    def test_core_derivative_at_origin_hits_lower(self):
        params = ClassParams(1.5, 0.4)
        f = core_function(params)
        fprime = abs(evaluate(f, 0.0) * sc.log_derivative(f, 0.0))
        b = derivative_bounds(params, 0.0)
        assert fprime == pytest.approx(b.lower)
        assert fprime <= b.upper

    def test_upper_below_simple_upper(self):
        # at beta = 0 the bracket is 1 and upper equals simple_upper in exact arithmetic
        for params in (ClassParams(0.9, 0.25), ClassParams(1.7, 0.0), ClassParams(2.0, 0.0)):
            for z in sc.DEFAULT_GRID.points()[::37]:
                b = derivative_bounds(params, z)
                assert b.upper <= b.simple_upper * (1 + 1e-12)

    @pytest.mark.parametrize("mu", [1.7, 1.9, 2.0])
    def test_beta_zero_members_pass(self, mu):
        # upper and simple_upper round apart by more than the tolerance near |z| = 0.995 at beta = 0;
        # the check reads only the map's two inequalities, so the members pass
        params = ClassParams(mu, 0.0)
        for k in range(20):
            f = construct(params, random_measure(1 + k % 8, k))
            assert check_derivative_value_bounds(GridEvaluation(f), params).passed

    def test_raw_lower_never_negative(self):
        # the bracket is >= beta*(1-|z|), so the clamp is a no-op in
        # exact arithmetic
        params = ClassParams(1.1, 0.3)
        for z in sc.DEFAULT_GRID.points()[::53]:
            b = derivative_bounds(params, z)
            assert b.raw_lower >= -1e-12
            assert b.lower == max(b.raw_lower, 0.0)

    def test_extremal_within_bounds(self):
        params = ClassParams(1.3, 0.5)
        f = extremal(params, cmath.exp(2.0j))
        assert check_derivative_value_bounds(GridEvaluation(f), params).passed

    def test_complex_mu_rejected(self):
        with pytest.raises(DomainError):
            derivative_bounds(ClassParams(1.0 + 0.2j, 0.3), 0.1)

    def test_out_of_range_mu_rejected(self):
        params = ClassParams(1.0, 0.0)
        with pytest.raises(DomainError):
            derivative_bounds(ClassParams(2.0, 0.0), 1.5)  # z outside disk also caught
        with pytest.raises(DomainError):
            derivative_bounds(params, 1.5)


def scalar_value_bounds(params, z):
    """Reference for modulus_arg_bounds at one point, in math/cmath scalars."""
    az, one_m_b = abs(z), 1.0 - params.beta
    out = [(1.0 - az) ** one_m_b, (1.0 + az) ** one_m_b, one_m_b * math.asin(az)]
    if params.mu.imag == 0.0:
        m = params.mu.real
        base = abs(1.0 - z) ** m
        out += [base / (1.0 + az) ** (m * one_m_b), base / (1.0 - az) ** (m * one_m_b)]
    return out


def scalar_derivative_bounds(params, z):
    """Reference for derivative_bounds at one point: (lower, upper, simple_upper, raw_lower)."""
    m, beta, az = params.mu.real, params.beta, abs(z)
    base = m * abs(1.0 - z) ** m / (1.0 - az**2)
    bracket = abs((1.0 - z.conjugate()) / (1.0 - z) + beta * z.conjugate())
    raw_lower = base / (1.0 + az) ** (m * (1.0 - beta)) * (bracket - 1.0 + beta)
    upper = base / (1.0 - az) ** (m * (1.0 - beta)) * (bracket + 1.0 - beta)
    simple_upper = 2.0 * m * abs(1.0 - z) ** m / ((1.0 - az**2) * (1.0 - az) ** (m * (1.0 - beta)))
    return [max(raw_lower, 0.0), upper, simple_upper, raw_lower]


ENVELOPE_PARAMS = [(0.3, 0.0), (1.0, 0.6), (2.0, 0.25), (1.5 + 0.5j, 0.2), (0.4 - 0.3j, 0.8)]


class TestArrayEnvelopes:
    @pytest.mark.parametrize("mu,beta", ENVELOPE_PARAMS)
    def test_value_bounds_match_scalar_reference(self, mu, beta, grid):
        params, pts = ClassParams(mu, beta), grid.points()
        arrays = modulus_arg_bounds(params, pts)
        ref = np.array([scalar_value_bounds(params, complex(z)) for z in pts]).T
        got = [a for a in arrays if a is not None]
        assert len(got) == ref.shape[0] == (5 if params.mu.imag == 0.0 else 3)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        assert modulus_arg_bounds(params, pts[5]) == modulus_arg_bounds(params, complex(pts[5]))

    @pytest.mark.parametrize("mu,beta", [pb for pb in ENVELOPE_PARAMS if complex(pb[0]).imag == 0.0])
    def test_derivative_bounds_match_scalar_reference(self, mu, beta, grid):
        params, pts = ClassParams(mu, beta), grid.points()
        arrays = np.array(derivative_bounds(params, pts))
        ref = np.array([scalar_derivative_bounds(params, complex(z)) for z in pts]).T
        # at beta = 0 the lower bracket is 0 in exact arithmetic and only its
        # rounding is compared, so lower and raw_lower are held on the scale of upper
        scale = np.maximum(np.abs(ref), np.abs(ref[1]) if beta == 0.0 else 0.0)
        assert np.all(np.abs(arrays - ref) <= 1e-12 * scale)
        assert isinstance(derivative_bounds(params, pts[7]).upper, float)

    @pytest.mark.parametrize("bad", [1.0 + 0.0j, complex("nan"), complex(0.0, math.inf)])
    def test_array_with_one_point_outside_rejected(self, bad):
        pts = np.array([0.1, 0.5j, bad])
        for z in (pts, bad):
            with pytest.raises(DomainError):
                modulus_arg_bounds(ClassParams(1.0, 0.0), z)
            with pytest.raises(DomainError):
                derivative_bounds(ClassParams(1.0, 0.0), z)

    def test_complex_mu_array_rejected(self, grid):
        with pytest.raises(DomainError):
            derivative_bounds(ClassParams(1.0 + 0.2j, 0.3), grid.points())


class TestSchwarz:
    def test_zero_at_origin(self):
        params = ClassParams(1.1, 0.4)
        f = construct(params, random_measure(4, 12))
        assert schwarz_function(GridEvaluation(f, 0.0), params) == pytest.approx(0.0, abs=1e-15)

    def test_single_atom_rotation(self):
        params = ClassParams(1.0 - 0.4j, 0.3)
        zeta = cmath.exp(0.6j)
        f = construct(params, make_measure([(zeta, 1.0)]))
        for z in (0.5, -0.2 + 0.6j, 0.85j):
            omega = schwarz_function(GridEvaluation(f, z), params)
            assert omega == pytest.approx(z * zeta.conjugate(), abs=1e-13)
            assert abs(abs(omega) - abs(z)) <= 1e-12

    def test_conjugate_pair_value(self):
        f = construct(ClassParams(1.0, 0.0), make_measure([(1.0j, 0.5), (-1.0j, 0.5)]))
        omega = schwarz_function(GridEvaluation(f, 0.5), ClassParams(1.0, 0.0))
        assert omega == pytest.approx(1.0 - math.sqrt(1.25))
        assert abs(omega) <= 0.5

    def test_population_contraction(self, population):
        for entry in population[:10]:
            assert check_schwarz(GridEvaluation(entry.f), entry.params).passed

    def test_omega_is_minus_lambda_z(self, population):
        # omega = 1 - exp(q/(1-beta)) and lambda = (exp(q/(1-beta)) - 1)/z read one exponential, so
        # omega = -lambda*z to the rounding of lambda's division and of its product with z
        cases = [case for e in population for case in ((e.f, e.params), (e.real_f, e.real_params))]
        for mu, beta, angle in [(0.3, 0.0, 0.0), (1.0, 0.5, 1.1), (1.3 - 0.4j, 0.9, 3.0), (2.0, 0.2, -2.0)]:
            params = ClassParams(mu, beta)
            cases.append((extremal(params, cmath.exp(1j * angle)), params))
        for f, params in cases:
            ev = GridEvaluation(f)
            omega = schwarz_function(ev, params)
            lam_z = distortion_coefficient(ev, params) * ev.points
            assert np.all(np.abs(omega + lam_z) <= 4 * np.finfo(float).eps * np.abs(omega))


class TestInteriorSpirallike:
    def test_core_real_mu_closed_form(self):
        params = ClassParams(1.5, 0.4)
        s = InteriorSpirallikeMap(core_function(params), params)
        for z in (0.3, -0.5 + 0.2j, 0.7j):
            expected = z * (1.0 - z) ** (-params.mu.real * (1.0 - params.beta))
            assert s(z) == pytest.approx(expected, abs=1e-13)

    def test_origin_margin(self):
        # z*s'/s = 1 at the origin, so the margin is cos(phi) - order,
        # which collapses to r*(1-beta)/2 exactly
        params = ClassParams(0.8 + 0.6j, 0.3)
        f = construct(params, random_measure(3, 14))
        s = InteriorSpirallikeMap(f, params)
        expected = params.radius * (1.0 - params.beta) / 2.0
        margin = s.spiral_margin(GridEvaluation(f, 0.0))
        assert margin == pytest.approx(expected)
        assert margin > 0.0

    def test_origin_margin_real_mu(self):
        params = ClassParams(1.2, 0.4)
        f = core_function(params)
        s = InteriorSpirallikeMap(f, params)
        assert s.spiral_margin(GridEvaluation(f, 0.0)) == pytest.approx(1.0 - s.order)

    def test_margin_needs_evaluation_of_source(self):
        params = ClassParams(1.2, 0.4)
        s = InteriorSpirallikeMap(core_function(params), params)
        with pytest.raises(ValueError):
            s.spiral_margin(GridEvaluation(extremal(params, 1j), 0.5))

    def test_order_formula(self, population):
        # the angle and the order are those of params, on both parameter sets of the population
        params = ClassParams(1.0 + 1.0j, 0.5)
        cases = [(core_function(params), params)]
        cases += [case for e in population for case in ((e.f, e.params), (e.real_f, e.real_params))]
        for f, params in cases:
            s = InteriorSpirallikeMap(f, params)
            assert s.phi == params.phi
            assert s.order == math.cos(params.phi) - params.radius * (1.0 - params.beta) / 2.0
            assert s.order >= 0.0

    def test_negative_order_rejected(self):
        # admissible, |mu - 1| - 1 = 4.0e-13, but cos(phi) < 0 leaves the order below 0
        params = ClassParams(1e-9 * cmath.exp(1j * math.acos(-4e-4)), 0.5)
        with pytest.raises(DomainError, match="negative spirallike order"):
            InteriorSpirallikeMap(core_function(params), params)

    def test_margin_identity_pointwise(self, population):
        # two-line algebra in the interior correspondence: the spiral
        # margin is exactly (r/2) times the class margin
        for entry in population[:5]:
            assert check_interior_identity(GridEvaluation(entry.f), entry.params).passed

    def test_identity_on_worked_example(self, worked_example):
        f, params = worked_example
        rep = check_interior_identity(GridEvaluation(f), params)
        assert rep.passed and rep.worst_margin >= -1e-12


class TestGrowth:
    """The growth theorem, reproduced on the rate L(z, t)/t of conftest.reference_growth_margin, and check_growth,
    which reports its t -> 0+ limit, (|mu|/2) times the class margin."""

    def test_margin_vanishes_as_t_to_zero(self):
        # L = t * rate vanishes, and the rate tends to the t -> 0+ row: (|mu|/2) times the
        # class margin, (1 + z - 2*beta*z)/(1 - z) - beta = 1.5 for the core map at z = 0.5
        params = ClassParams(1.0, 0.5)
        f = core_function(params)
        rate = reference_growth_margin(GridEvaluation(f, 0.5), params, [1e-9]).item()
        assert abs(rate * 1e-9) < 1e-6
        assert rate == pytest.approx(0.5 * 1.5, abs=1e-6)
        assert check_growth(GridEvaluation(f, 0.5), params).worst_margin == pytest.approx(0.5 * 1.5, abs=1e-12)

    def test_origin_closed_form(self):
        # at z = 0 both logs of f cancel: the rate is -Re(mu)*(1-beta)*log(1 - t/(2*cos(phi)))/t
        params = ClassParams(0.9 + 0.3j, 0.25)
        f = construct(params, random_measure(4, 15))
        t = 0.7
        cos2 = 2 * math.cos(params.phi)
        expected = -params.mu.real * (1 - params.beta) * math.log1p(-t / cos2) / t
        assert reference_growth_margin(GridEvaluation(f, 0.0), params, [t]) == pytest.approx(expected)
        assert expected >= 0.0

    def test_core_sample_value(self):
        # frozen oracle: lhs = sqrt(1.5), rhs = 1.5/sqrt(0.75), so L = log(rhs/lhs) at t = 0.5
        params = ClassParams(1.0, 0.5)
        f = core_function(params)
        expected = (math.log(1.5 * 0.75 ** (-0.5)) - math.log(math.sqrt(1.5))) / 0.5
        assert reference_growth_margin(GridEvaluation(f, 0.5), params, [0.5]) == pytest.approx(expected)
        assert expected == pytest.approx(math.log(2.0))

    def test_population_scan(self, population):
        for entry in population[:5]:
            assert check_growth(GridEvaluation(entry.f), entry.params).passed

    @pytest.mark.parametrize("mu", ["real", "complex"])
    def test_members_satisfy_the_theorem(self, population, mu):
        # every member's rate clears -PASS_TOL at the 32 shifts over the default grid: the
        # premise under which check_growth's verdict is membership's
        for entry in population:
            f, params = (entry.real_f, entry.real_params) if mu == "real" else (entry.f, entry.params)
            rates = reference_growth_margin(GridEvaluation(f), params, growth_shifts(params))
            assert rates.min() >= -verification.PASS_TOL

    @given(
        st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 0.95), st.integers(1, 8),
        st.integers(0, 2**32 - 1), st.floats(0.0, 0.995), st.floats(0.0, 2.0 * math.pi), st.floats(1e-3, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_members_satisfy_the_theorem(self, spread, angle, beta, n, seed, r, theta, s):
        # mu = 1 + spread*e^{i angle} fills the parameter disk; the shift t = s*2*cos(phi) covers (0, 2*cos(phi))
        mu = 1.0 + spread * cmath.exp(1j * angle)
        assume(abs(mu) >= 0.05)
        params = ClassParams(mu, beta)
        f = construct(params, random_measure(n, seed))
        t = s * 2.0 * math.cos(params.phi)
        rate = reference_growth_margin(GridEvaluation(f, r * cmath.exp(1j * theta)), params, [t]).item()
        assert rate >= -verification.PASS_TOL

    DELTAS = (0.0, 1e-6, 1e-4, 1e-2, 0.3)

    def test_verdict_is_membership(self, population):
        # each map declared with beta + delta, a non-member for delta > 0: growth passes exactly where
        # membership does, and its worst margin is (|mu|/2) times the class margin at its worst point
        verdicts = []
        for entry in population:
            for f, params in ((entry.f, entry.params), (entry.real_f, entry.real_params)):
                ev = GridEvaluation(f)
                for delta in self.DELTAS:
                    if params.beta + delta >= 1.0:
                        continue
                    declared = ClassParams(params.mu, params.beta + delta)
                    growth, member = check_growth(ev, declared), check_membership(ev, declared)
                    assert growth.passed == member.passed
                    (at_worst,) = class_margin(ev, declared)[ev.points == growth.worst_location]
                    assert growth.worst_margin == 0.5 * declared.radius * at_worst
                    verdicts.append(growth.passed)
        # beta + delta < 1 leaves 943 cases; the default grid passes every map at delta = 0, 1e-6
        # and 1e-4, below its resolution in beta, and fails every one at 1e-2 and 0.3
        assert (len(verdicts), verdicts.count(True)) == (943, 600)

    @pytest.mark.parametrize("bad", [1.0, -0.6 + 0.8j, 1.5, complex("nan")], ids=["one", "unit-circle", "outside", "nan"])
    def test_points_outside_disk_rejected(self, bad):
        # the evaluation checks its points when it is built
        params = ClassParams(0.8 - 0.5j, 0.3)
        match = "non-finite" if cmath.isnan(bad) else "evaluation point outside the open unit disk"
        with pytest.raises(DomainError, match=match):
            check_growth(GridEvaluation(construct(params, random_measure(2, 43)), [0.5, bad]), params)
