import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spiralcover as sc
from spiralcover import functions, kernel
from spiralcover import (
    DEFAULT_GRID,
    ClassParams,
    DomainError,
    GridEvaluation,
    ProductForm,
    boundary_exponent,
    boundary_rotation,
    canonical_wedge,
    construct,
    core_function,
    dirac_reweight,
    eval_log,
    evaluate,
    extremal,
    growth_margin,
    log_derivative,
    make_measure,
    random_measure,
    transform_class,
)
from spiralcover.serialize import load_function_spec, measure_spec

from conftest import bit_equal, reference_growth_margin
from radial_oracles import boundary_exponent_radial, boundary_rotation_radial, richardson_limit

SAMPLE_Z = [0.0, 0.5, -0.3 + 0.4j, 0.1 - 0.7j, -0.85, 0.6 + 0.35j]


class TestClassParams:
    def test_accepts_region(self):
        ClassParams(1.0, 0.0)
        ClassParams(2.0, 0.99)
        ClassParams(1.0 + 1.0j, 0.5)
        ClassParams(0.01, 0.0)

    def test_rejects_zero_mu(self):
        with pytest.raises(DomainError):
            ClassParams(0.0, 0.5)

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            ClassParams(2.5, 0.5)
        with pytest.raises(DomainError):
            ClassParams(-0.2, 0.5)

    @pytest.mark.parametrize("mu", [float("nan"), complex(1.0, float("inf"))])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(DomainError, match="finite"):
            ClassParams(mu, 0.5)

    def test_rejects_bad_beta(self):
        with pytest.raises(DomainError):
            ClassParams(1.0, 1.0)
        with pytest.raises(DomainError):
            ClassParams(1.0, -0.1)

    def test_polar_pieces(self):
        p = ClassParams(1.0 + 1.0j, 0.2)
        assert p.phi == pytest.approx(math.pi / 4)
        assert p.radius == pytest.approx(math.sqrt(2))


def same_bits(a, b) -> bool:
    """Same complex128 shape and bits, so -0.0 differs from 0.0."""
    a, b = np.atleast_1d(np.asarray(a, dtype=np.complex128)), np.atleast_1d(np.asarray(b, dtype=np.complex128))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestProductForm:
    def test_rejects_node_outside_disk(self):
        with pytest.raises(DomainError):
            ProductForm(1.0, ((1.1, 1.0),))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ProductForm(complex("inf"))

    @pytest.mark.parametrize(
        "factors, message",
        [
            (((0.5, 1.0), (1.1 + 0.2j, 1.0), (2.0, 1.0)), "node (1.1+0.2j) outside the closed unit disk"),
            (((0.5, 1.0), (complex("nan"), 1.0), (2.0, 1.0)), "non-finite factor"),
            (((0.5, complex(0.2, math.inf)), (2.0, 1.0)), "non-finite factor"),
            (((2.0, 1.0), (complex("nan"), 1.0)), "node (2+0j) outside the closed unit disk"),
            (((1.0 + 2e-12, 0.5),), "node (1.000000000002+0j) outside the closed unit disk"),
        ],
    )
    def test_first_bad_factor_named(self, factors, message):
        with pytest.raises(DomainError) as exc:
            ProductForm(1.0, factors)
        assert str(exc.value) == message

    @pytest.mark.parametrize("factors", [[0.5, 0.2], [(0.5,), (0.2,)], [(0.5, 0.2, 0.1, 0.3)]])
    def test_rejects_factors_that_are_not_pairs(self, factors):
        with pytest.raises(ValueError):
            ProductForm(1.0, factors)

    def test_node_on_the_circle_within_tolerance(self):
        f = ProductForm(1.0, ((1.0 + 1e-12, 0.5), (-1.0j, 0.25)))
        assert f.factors == ((1.0 + 1e-12 + 0j, 0.5 + 0j), (-1.0j, 0.25 + 0j))

    def test_stored_arrays(self, population, worked_example):
        forms = [worked_example[0], ProductForm(0.6), ProductForm(0.8, ((0.5 - 0.8j, 0.3), (-1, 2)))]
        forms += [e.f for e in population[:20]] + [e.real_f for e in population[:20]]
        for f in forms:
            assert all(type(x) is complex for pair in f.factors for x in pair)
            expected = (
                [c for c, _ in f.factors],
                [e for _, e in f.factors],
                [-(e * c) for c, e in f.factors],
            )
            for arr, values in zip((f.nodes, f.exponents, f._numerators), expected):
                assert same_bits(arr, np.array(values, dtype=np.complex128))
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0.0
            assert f.nodes is f.nodes  # stored, not rebuilt on each read

    def test_array_factors_equal_tuple_factors(self, population):
        for e in population[:20]:
            pairs = np.array(e.f.factors, dtype=np.complex128)
            g = ProductForm(e.f.prefactor, pairs)
            pairs[:] = 0.0  # the form keeps its own copy
            assert g == e.f and same_bits(g.nodes, e.f.nodes) and same_bits(g.exponents, e.f.exponents)


class TestConstruct:
    def test_dirac_at_one_collapses_to_power(self):
        # exponents collapse: (1-z)**(mu - mu*(1-beta)) = (1-z)**(mu*beta)
        params = ClassParams(0.8 + 0.5j, 0.4)
        f = construct(params, make_measure([(1.0, 1.0)]))
        for z in SAMPLE_Z:
            expected = (1.0 - z) ** (params.mu * params.beta)
            assert evaluate(f, z) == pytest.approx(expected, abs=1e-14)

    def test_single_atom_at_minus_one(self):
        f = construct(ClassParams(1.0, 0.0), make_measure([(-1.0, 1.0)]))
        for z in SAMPLE_Z:
            assert evaluate(f, z) == pytest.approx((1.0 - z) / (1.0 + z))

    def test_core_function_builds_no_measure(self, monkeypatch):
        params = ClassParams(0.8 + 0.5j, 0.4)
        expected = construct(params, make_measure([(1.0, 1.0)]))
        monkeypatch.setattr(functions, "make_measure", None)  # the point mass at 1 is built once, on import
        assert core_function(params) == expected

    def test_value_one_at_origin(self):
        for seed in range(5):
            sigma = random_measure(1 + seed, seed)
            f = construct(ClassParams(1.0 + 0.3j, 0.2), sigma)
            assert evaluate(f, 0.0) == pytest.approx(1.0, abs=1e-15)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=-math.pi, max_value=math.pi), st.floats(min_value=1e-3, max_value=1.0)),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_independent_sum(self, atoms, mu_radius, mu_angle, beta):
        # log f = mu*Log(1-z) - mu*(1-beta)*sum_j w_j*Log(1 - conj(zeta_j)*z), point by point
        mu = 1.0 + mu_radius * cmath.exp(1j * mu_angle)
        assume(abs(mu) >= 0.05)
        total = sum(w for _, w in atoms)
        sigma = make_measure([(cmath.exp(1j * angle), w / total) for angle, w in atoms])
        zs = DEFAULT_GRID.points()[::7]
        got = eval_log(construct(ClassParams(mu, beta), sigma), zs)
        for z, value in zip(zs, got):
            core = mu * cmath.log(1.0 - z)
            terms = [w * cmath.log(1.0 - zeta.conjugate() * z) for zeta, w in sigma.atoms]
            expected = core - mu * (1.0 - beta) * sum(terms)
            size = abs(core) + abs(mu) * (1.0 - beta) * sum(abs(t) for t in terms)
            assert abs(value - expected) <= 1e-12 * size


def per_atom_measure_form(spec: dict) -> tuple[list, list, complex]:
    """Nodes, exponents and prefactor of a measure spec, atom by atom.

    load_measure's np.exp(1j * angle) per atom, make_measure's list
    comprehensions over the (point, weight) pairs, and construct's
    generator of Python products mu*(1-beta)*w: the path the array
    parse and construct must reproduce bit for bit.
    """
    params = ClassParams(complex(*spec["mu"]), spec["beta"])
    atoms = [(float(a["angle"]), float(a["weight"])) for a in spec["measure"]["atoms"]]
    sigma = make_measure([(np.exp(1j * angle), w) for angle, w in atoms])
    mu, beta = params.mu, params.beta
    facs = [(complex(np.conj(p)), mu * (1.0 - beta) * w) for p, w in sigma.atoms]
    return [c for c, _ in facs], [e for _, e in facs], mu


def edge_measure_specs(count: int, seed: int) -> list[dict]:
    """Measure specs with negative, wrapped and coinciding angles and zero weights.

    The mu values include real ones written with imaginary part -0.0 and ones with
    real part -0.0 or just below 0, whose products k*w with k = mu*(1-beta) have
    signed-zero parts; every other spec writes its zero weights as -0.0.
    """
    rng = np.random.default_rng(seed)
    mus = ([0.7, -0.0], [1.9, -0.0], [-0.0, 1e-6], [-0.0, -1e-6], [-5e-13, 5e-7], [-5e-13, -5e-7],
           [1.2, 0.4], [0.5, -0.6])
    specs = []
    for i in range(count):
        n = int(rng.integers(1, 40))
        angles = rng.uniform(-7.0, 7.0, n)
        angles[rng.integers(0, n, n // 3)] = angles[0]  # coinciding atoms, merged
        if n > 2:
            angles[1] = angles[2] + 1e-13  # within the merge tolerance
        weights = rng.uniform(size=n) * (rng.uniform(size=n) < 0.6)
        weights[0] += weights.sum() == 0
        weights = (weights / weights.sum()).tolist()
        if i % 2:
            weights = [-0.0 if w == 0 else w for w in weights]
        specs.append({
            "mu": mus[i % len(mus)],
            "beta": float(rng.uniform(0.0, 0.95)),
            "measure": {"atoms": [{"angle": a, "weight": w} for a, w in zip(angles.tolist(), weights)]},
        })
    return specs


class TestMeasureSpecAgainstPerAtomPath:
    def check(self, spec):
        f, params = load_function_spec(spec)
        nodes, exponents, prefactor = per_atom_measure_form(spec)
        assert same_bits(f.nodes, np.array(nodes, dtype=np.complex128))
        assert same_bits(f.exponents, np.array(exponents, dtype=np.complex128))
        assert same_bits(f.prefactor, prefactor)
        assert repr(f.factors) == repr(tuple(zip(nodes, exponents)))

    def test_population(self, population):
        for e in population:
            for params in (e.params, e.real_params):
                mu = [params.mu.real, params.mu.imag]
                self.check({"mu": mu, "beta": params.beta, "measure": measure_spec(e.measure)})

    def test_edge_specs(self):
        specs = edge_measure_specs(400, 20261018)
        zero_weights = sum(any(a["weight"] == 0 for a in s["measure"]["atoms"]) for s in specs)
        merged = sum(len(load_function_spec(s)[0].factors) < len(s["measure"]["atoms"]) for s in specs)
        assert zero_weights > 100 and merged > 100
        for spec in specs:
            self.check(spec)

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_random_measure(self, n):
        rng = np.random.default_rng(n)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        weights = rng.uniform(size=n)
        expected = make_measure(list(zip(np.exp(1j * angles), weights / weights.sum())))
        got = random_measure(n, n)
        assert same_bits(got.points, expected.points)
        assert bit_equal(got.weights, expected.weights)


class TestEvalLog:
    def test_zero_at_origin(self):
        f = construct(ClassParams(1.5, 0.2), random_measure(4, 2))
        assert eval_log(f, 0.0) == 0.0

    def test_real_axis_power(self):
        f = ProductForm(0.6)  # bare (1 - z)**0.6
        assert eval_log(f, 0.5) == pytest.approx(0.6 * math.log(0.5))

    def test_conjugate_pair_cancellation(self):
        # atoms at +-i with mu=1, beta=0: Log(0.5) - 0.5*Log(1-0.5i) - 0.5*Log(1+0.5i)
        f = construct(ClassParams(1.0, 0.0), make_measure([(1.0j, 0.5), (-1.0j, 0.5)]))
        expected = cmath.log(0.5) - 0.5 * cmath.log(1.25)
        assert eval_log(f, 0.5) == pytest.approx(expected)

    def test_matches_exp(self):
        f = construct(ClassParams(0.9 + 0.4j, 0.35), random_measure(5, 8))
        zs = np.asarray(SAMPLE_Z)
        assert np.allclose(evaluate(f, zs), np.exp(eval_log(f, zs)), rtol=0, atol=1e-14)

    def test_rejects_outside_disk(self):
        f = ProductForm(1.0)
        with pytest.raises(DomainError):
            eval_log(f, 1.0)
        with pytest.raises(DomainError):
            evaluate(f, np.array([0.5, 1.2j]))


@pytest.mark.parametrize("evaluation", [eval_log, log_derivative, evaluate])
@pytest.mark.parametrize("n", [0, 3, 9000], ids=["bare-power", "3-factors", "9000-factors"])
def test_empty_point_set_gives_empty_array(evaluation, n):
    # no points: an empty result, with the factors still walked in blocks
    out = evaluation(many_factor_map(n), np.array([], dtype=np.complex128))
    assert isinstance(out, np.ndarray) and out.shape == (0,) and out.dtype == np.complex128


RULE_PARAMS = ClassParams(1.0, 0.5)
RULE_MAP = construct(RULE_PARAMS, make_measure([(1j, 0.5), (-1j, 0.5)]))
RULE_S = sc.InteriorSpirallikeMap(RULE_MAP, RULE_PARAMS)
RULE_G = sc.CoveringComposition(RULE_S, 0.5, 0.5)
# every function of evaluation points, each through functions._as_points and, but for
# GridEvaluation, functions._like
POINT_EVALUATORS = {
    "eval_log": lambda z: eval_log(RULE_MAP, z),
    "evaluate": lambda z: evaluate(RULE_MAP, z),
    "log_derivative": lambda z: log_derivative(RULE_MAP, z),
    "interior-map": RULE_S,
    "log-ratio": RULE_S.log_ratio,
    "covering-composition": RULE_G,
    "half-plane-map": RULE_G.half_plane_map,
    "modulus_arg_bounds": lambda z: sc.modulus_arg_bounds(RULE_PARAMS, z),
    "derivative_bounds": lambda z: sc.derivative_bounds(RULE_PARAMS, z),
    "GridEvaluation": lambda z: GridEvaluation(RULE_MAP, z),
}


@pytest.mark.parametrize("name", list(POINT_EVALUATORS))
def test_one_point_rule(name):
    evaluator = POINT_EVALUATORS[name]
    for bad in (complex("nan"), [0.5, math.inf]):
        with pytest.raises(DomainError, match="non-finite evaluation point"):
            evaluator(bad)
    with pytest.raises(DomainError, match="evaluation point outside the open unit disk"):
        evaluator(1.0)
    # a scalar is one point, and what comes back is a Python scalar, or a tuple of them
    out = evaluator(-0.3 + 0.4j)
    if name == "GridEvaluation":
        assert out.points.shape == (1,)
    elif isinstance(out, tuple):
        assert all(v is None or type(v) is float for v in out)
    else:
        assert type(out) is complex


class TestEvaluate:
    def test_worked_example_at_origin(self, worked_example):
        f, _ = worked_example
        assert evaluate(f, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_core_real_power(self):
        f = core_function(ClassParams(1.0, 0.6))
        assert evaluate(f, 0.5) == pytest.approx(0.5**0.6)


class TestLogDerivative:
    def test_core_at_origin(self):
        params = ClassParams(1.3, 0.45)
        f = core_function(params)
        assert log_derivative(f, 0.0) == pytest.approx(-params.mu * params.beta)

    def test_series_at_origin(self):
        f = construct(ClassParams(0.7 + 0.2j, 0.3), random_measure(6, 4))
        expected = -f.prefactor + np.sum(f.exponents * f.nodes)
        assert log_derivative(f, 0.0) == pytest.approx(expected)

    def test_finite_difference_oracle_inner(self):
        # truncation error of the central difference is h**2*|L'''|/6,
        # negligible for |z| <= 0.5
        f = construct(ClassParams(1.1 - 0.3j, 0.25), random_measure(5, 17))
        h = 1e-6
        for z in [0.1, 0.3j, -0.4, 0.2 - 0.3j]:
            fd = (eval_log(f, z + h) - eval_log(f, z - h)) / (2 * h)
            assert abs(log_derivative(f, z) - fd) <= 1e-8

    def test_finite_difference_oracle_grid(self):
        f = construct(ClassParams(1.4, 0.5), random_measure(4, 23))
        h = 1e-6
        radii = [0.1, 0.3, 0.5, 0.7, 0.9]
        for r in radii:
            for theta in np.linspace(0, 2 * np.pi, 32, endpoint=False):
                z = r * np.exp(1j * theta)
                fd = (eval_log(f, z + h) - eval_log(f, z - h)) / (2 * h)
                assert abs(log_derivative(f, z) - fd) <= 1e-7


def per_factor_log(f, z):
    """eval_log one factor at a time, in the operation order of the sum before blocking."""
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    out = f.prefactor * kernel.log_principal(1.0 - zz)
    for c, e in f.factors:
        out = out - e * kernel.log_principal(1.0 - c * zz)
    return complex(out[0]) if np.ndim(z) == 0 else out


def per_factor_log_derivative(f, z):
    """log_derivative one factor at a time, in the operation order of the sum before blocking."""
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    out = -f.prefactor / (1.0 - zz)
    for c, e in f.factors:
        out = out + e * c / (1.0 - c * zz)
    return complex(out[0]) if np.ndim(z) == 0 else out


def many_factor_map(n: int) -> ProductForm:
    """A member with n circle atoms; the bare power (1-z)**p when n = 0."""
    params = ClassParams(0.9 + 0.4j, 0.35)
    return construct(params, random_measure(n, 7)) if n else ProductForm(params.mu)


class TestBlockedEvaluation:
    """Blocks of factors give the bytes of the per-factor sum."""

    GRID = DEFAULT_GRID.points()
    ROWS = functions.BLOCK_ELEMENTS // GRID.size  # factors per block on the default grid

    @pytest.mark.parametrize("n", [0, 1, ROWS - 1, ROWS, ROWS + 1, 2048])
    def test_default_grid(self, n):
        f = many_factor_map(n)
        assert np.array_equal(eval_log(f, self.GRID), per_factor_log(f, self.GRID))
        assert np.array_equal(log_derivative(f, self.GRID), per_factor_log_derivative(f, self.GRID))

    @pytest.mark.parametrize("n", [1, 8, 9, 2048])
    def test_scalar_points(self, n):
        # one point puts up to BLOCK_ELEMENTS factors in a block, a sum down a single column
        f = many_factor_map(n)
        for z in [0.0, 0.5, -0.3 + 0.4j, 0.999]:
            assert eval_log(f, z) == per_factor_log(f, z)
            assert log_derivative(f, z) == per_factor_log_derivative(f, z)

    def test_growth_shaped_block(self):
        f = many_factor_map(40)
        block = self.GRID * np.linspace(0.9, 0.2, 9)[:, None]
        assert np.array_equal(eval_log(f, block), per_factor_log(f, block))
        assert np.array_equal(log_derivative(f, block), per_factor_log_derivative(f, block))

    def test_kernel_calls_per_block(self, monkeypatch):
        calls = []

        def spy(w, work, log_mod, angles=False):
            calls.append(np.shape(w))
            kernel._log_into(w, work, log_mod, angles)

        monkeypatch.setattr(functions, "_log_into", spy)
        eval_log(many_factor_map(2048), self.GRID)
        # the prefactor term, then ceil(2048/9) blocks of 9 factors x 896 points
        assert self.ROWS == 9
        assert len(calls) == 1 + math.ceil(2048 / self.ROWS)
        assert calls[1] == (self.ROWS, self.GRID.size)

    POINT_SETS = {
        "scalar": np.array([-0.3 + 0.4j]),
        "empty": np.array([], dtype=np.complex128),
        "default-grid": GRID,
        # growth's shape: 9 shifts x 896 points
        "growth-shaped": GRID * np.linspace(0.9, 0.2, 9)[:, None],
    }

    @pytest.mark.parametrize("points", list(POINT_SETS))
    @pytest.mark.parametrize("n", [0, ROWS - 1, ROWS, ROWS + 1, 2048])
    def test_one_pass_for_both(self, n, points):
        # the pass that adds f'/f gives the bytes of the pass without it, and of each sum alone
        f, z = many_factor_map(n), self.POINT_SETS[points]
        log_1mz, log_f, dlog_f = functions._factor_sums(f, z, dlog=True)
        assert bit_equal(log_1mz, kernel.log_principal(1.0 - z))
        assert bit_equal(log_f, per_factor_log(f, z))
        assert bit_equal(dlog_f, per_factor_log_derivative(f, z))
        log_only = functions._factor_sums(f, z)
        assert bit_equal(log_only[0], log_1mz) and bit_equal(log_only[1], log_f) and log_only[2] is None

    @pytest.mark.parametrize("points", [GRID, GRID[::9]], ids=["default-grid", "100-points"])
    def test_growth_scan_over_blocks(self, points):
        # growth's shifted points take (rows, 1, 1) nodes: 1 factor per block at 9 x 896 on
        # the default grid, 2 at 32 x 100 on 100 points, so 25 factors span several blocks
        params = ClassParams(0.9 + 0.4j, 0.35)
        f = many_factor_map(25)
        ts = [2.0 * math.cos(params.phi) * k / 33.0 for k in range(1, 33)]
        ev = GridEvaluation(f, points)
        assert bit_equal(growth_margin(ev, params, ts), reference_growth_margin(ev, params, ts, per_factor_log))


class TestEvalLogReal:
    """_factor_sums with real is Re(eval_log) bit for bit, with arctan2 only for complex coefficients."""

    GRID = DEFAULT_GRID.points()
    MAPS = {
        "real": ProductForm(1.3, ((0.6 + 0.7j, 0.25), (-0.9, 0.4), (0.3j, -0.1))),
        "complex": many_factor_map(12),
        # a real prefactor with one real and one complex exponent
        "mixed": ProductForm(0.8, ((0.5 - 0.8j, 0.3), (-0.2 + 0.9j, 0.2 - 0.35j))),
        "complex-prefactor": ProductForm(0.7 - 0.4j, ((0.9, 0.5),)),
        "bare-power": ProductForm(1.1),
    }
    POINTS = {
        # one point, as a 1-element array: every factor in one block, a sum down a single column
        "scalar": np.array([-0.3 + 0.4j]),
        "empty": np.array([], dtype=np.complex128),
        "default-grid": GRID,
        # the growth scan's block on the default grid: 9 shifts x 896 points
        "growth-block": GRID * np.linspace(0.95, 0.1, 9)[:, None],
    }

    @pytest.mark.parametrize("points", list(POINTS))
    @pytest.mark.parametrize("name", list(MAPS))
    def test_equals_real_part_of_eval_log(self, name, points):
        f, z = self.MAPS[name], self.POINTS[points]
        log_1mz, log_f, dlog_f = functions._factor_sums(f, z, real=True)
        assert bit_equal(log_f, eval_log(f, z).real)
        assert bit_equal(log_1mz, kernel.log_principal(1.0 - z).real)
        assert dlog_f is None

    @pytest.mark.parametrize("name, kernel_calls", [("real", 0), ("mixed", 1), ("complex", 12)])
    def test_arctan2_only_for_complex_exponents(self, monkeypatch, name, kernel_calls):
        f, z = self.MAPS[name], self.POINTS["growth-block"]
        calls = []

        def spy(w, work, log_mod, angles=False):
            calls.append(angles)
            kernel._log_into(w, work, log_mod, angles)

        monkeypatch.setattr(functions, "_log_into", spy)
        functions._factor_sums(f, z, real=True)
        # the prefactor's log, with arctan2 only for a complex prefactor, then one factor
        # per block at 9 x 896 points: Log with arctan2 once per complex exponent
        assert calls[0] == (f.prefactor.imag != 0.0)
        assert len(calls) == 1 + len(f.factors) and sum(calls[1:]) == kernel_calls


class TestTransformClass:
    def test_identity_transform(self):
        params = ClassParams(1.1 + 0.4j, 0.3)
        f = construct(params, random_measure(4, 31))
        g = transform_class(f, params, params)
        assert abs(g.prefactor - f.prefactor) <= 1e-14
        assert np.max(np.abs(g.exponents - f.exponents)) <= 1e-14

    def test_unit_mu_power(self):
        # moving to (1, beta) is exactly f**(1/mu)
        params = ClassParams(1.2 - 0.5j, 0.4)
        f = construct(params, random_measure(3, 32))
        g = transform_class(f, params, ClassParams(1.0, 0.4))
        zs = np.asarray(SAMPLE_Z)
        assert np.allclose(evaluate(g, zs), np.exp(eval_log(f, zs) / params.mu), atol=1e-14)

    def test_core_to_unit_class(self):
        params = ClassParams(1.7, 0.35)
        g = transform_class(core_function(params), params, ClassParams(1.0, 0.35))
        for z in SAMPLE_Z:
            assert evaluate(g, z) == pytest.approx((1.0 - z) ** 0.35, abs=1e-14)

    def test_round_trip_exponents(self):
        a = ClassParams(0.7 + 0.5j, 0.3)
        b = ClassParams(1.4, 0.65)
        f = construct(a, random_measure(5, 33))
        back = transform_class(transform_class(f, a, b), b, a)
        assert abs(back.prefactor - f.prefactor) <= 1e-12
        assert np.max(np.abs(back.exponents - f.exponents)) <= 1e-12

    def test_preserves_representing_measure(self):
        # the transformed map equals the direct construction over the
        # same measure, which is what makes membership a theorem
        sigma = random_measure(4, 34)
        a = ClassParams(0.6 + 0.3j, 0.2)
        b = ClassParams(1.5, 0.55)
        g = transform_class(construct(a, sigma), a, b)
        direct = construct(b, sigma)
        assert abs(g.prefactor - direct.prefactor) <= 1e-13
        assert np.max(np.abs(g.exponents - direct.exponents)) <= 1e-13

    def test_transformed_membership(self):
        sigma = random_measure(6, 35)
        a = ClassParams(1.3 + 0.2j, 0.7)
        b = ClassParams(0.4 - 0.3j, 0.15)
        g = transform_class(construct(a, sigma), a, b)
        assert sc.check_membership(sc.GridEvaluation(g), b).passed


class TestExtremal:
    def test_xi_one_is_core(self):
        params = ClassParams(1.0 + 0.6j, 0.3)
        assert extremal(params, 1.0) == core_function(params)

    def test_xi_minus_one(self):
        f = extremal(ClassParams(1.0, 0.0), -1.0)
        for z in SAMPLE_Z:
            assert evaluate(f, z) == pytest.approx((1.0 - z) / (1.0 + z))

    def test_equals_dirac_construction(self):
        params = ClassParams(1.5, 0.5)
        xi = cmath.exp(0.8j)
        f = extremal(params, xi)
        g = construct(params, make_measure([(xi, 1.0)]))
        zs = np.asarray(SAMPLE_Z)
        assert np.max(np.abs(eval_log(f, zs) - eval_log(g, zs))) <= 1e-14

    def test_off_circle_rejected(self):
        with pytest.raises(DomainError):
            extremal(ClassParams(1.0, 0.0), 0.9)

    @pytest.mark.parametrize("xi", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_nan_rejected(self, xi):
        # |xi| is NaN, which compares false both ways: the check must not pass it on
        with pytest.raises(DomainError, match="xi must lie on the unit circle"):
            extremal(ClassParams(1.0, 0.5), xi)


class TestCanonicalWedge:
    def test_trivial_rotation(self):
        h = canonical_wedge(1.0, 0.0)
        for z in SAMPLE_Z:
            assert evaluate(h, z) == pytest.approx((1.0 - z) / (1.0 + z))

    def test_value_one_at_origin(self):
        h = canonical_wedge(0.8 + 0.4j, 0.7)
        assert evaluate(h, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_right_half_plane_image(self):
        # the rotation-0, exponent-1 wedge is the right half-plane
        h = canonical_wedge(1.0, 0.0)
        z = 0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 720, endpoint=False))
        w = evaluate(h, z)
        assert np.all(np.abs(np.angle(w)) < np.pi / 2)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            canonical_wedge(2.5, 0.0)
        with pytest.raises(DomainError):
            canonical_wedge(1.0, math.pi / 2)


class TestBoundaryExponent:
    def test_dirac_at_one(self):
        params = ClassParams(0.9 + 0.2j, 0.55)
        f = core_function(params)
        assert boundary_exponent(f) == pytest.approx(params.mu * params.beta)

    def test_no_atom_at_one(self):
        params = ClassParams(1.1, 0.3)
        f = construct(params, make_measure([(1.0j, 0.4), (-1.0, 0.6)]))
        assert boundary_exponent(f) == pytest.approx(params.mu)

    def test_ratio_between_beta_and_one(self, population):
        for entry in population[:25]:
            nu = boundary_exponent(entry.f)
            ratio = nu / entry.params.mu
            assert abs(ratio.imag) <= 1e-12
            assert entry.params.beta - 1e-12 <= ratio.real <= 1.0 + 1e-12

    def test_agrees_with_radial_estimate(self, population):
        for entry in population[:25]:
            nu = boundary_exponent(entry.f)
            assert abs(nu - boundary_exponent_radial(entry.f)) <= 1e-3

    def test_interior_nodes_agree_with_radial(self, worked_example):
        f, params = worked_example
        nu = boundary_exponent(f)
        assert nu == pytest.approx(1.0)
        assert abs(nu - boundary_exponent_radial(f)) <= 1e-3


class TestBoundaryRotation:
    def test_dirac_at_one_is_zero(self):
        params = ClassParams(1.0, 0.5)
        assert boundary_rotation(core_function(params)) == pytest.approx(0.0)

    def test_dirac_at_minus_one_is_zero(self):
        params = ClassParams(1.0, 0.0)
        f = construct(params, make_measure([(-1.0, 1.0)]))
        # arg(1 - (-1)) = arg(2) = 0
        assert boundary_rotation(f) == pytest.approx(0.0)

    def test_atom_at_i(self):
        # single atom at i: omega-map is the wedge with rotation -pi/4
        params = ClassParams(1.0, 0.0)
        f = construct(params, make_measure([(1.0j, 1.0)]))
        assert boundary_rotation(f) == pytest.approx(-math.pi / 4)

    def test_bound_from_class(self, population):
        for entry in population[:25]:
            nu = boundary_exponent(entry.f)
            a = boundary_rotation(entry.f)
            ratio = (entry.params.mu / nu).real
            assert abs(a) < (math.pi / 2) * ratio * (1.0 - entry.params.beta) + 1e-9

    def test_agrees_with_radial_estimate(self, population):
        for entry in population[:25]:
            nu = boundary_exponent(entry.f)
            a = boundary_rotation(entry.f)
            assert abs(a - boundary_rotation_radial(entry.f, nu)) <= 1e-3

    @staticmethod
    def per_factor_rotation(f):
        """boundary_rotation with one log_principal call per factor, summed in factor order."""
        nu = boundary_exponent(f)
        total = 0.0
        for c, e in f.factors:
            if abs(c - 1.0) <= functions.NODE_TOL:
                continue
            total += ((e / nu) * kernel.log_principal(1.0 - c)).imag
        return -total

    def test_equals_per_factor_loop(self, population):
        maps = [m for entry in population for m in (entry.f, entry.real_f)]
        maps += [
            # a node at 1, skipped, between complex exponents
            ProductForm(1.2 + 0.3j, ((0.6 + 0.7j, 0.2 - 0.1j), (1.0, 0.3 + 0.2j), (-0.9j, 0.25 + 0.4j))),
            # a node within NODE_TOL of 1
            ProductForm(1.1, ((1.0 + 1e-13j, 0.4), (-0.5, 0.3))),
            many_factor_map(2048),
            canonical_wedge(0.9 + 0.3j, 0.7),
        ]
        for f in maps:
            assert bit_equal(boundary_rotation(f), self.per_factor_rotation(f))

    def test_every_node_at_one(self):
        f = ProductForm(1.5, ((1.0, 0.2), (1.0, 0.3j)))
        assert bit_equal(boundary_rotation(f), self.per_factor_rotation(f))

    def test_degenerate_exponent_rejected(self):
        params = ClassParams(1.0, 0.0)
        f = core_function(params)  # (1-z)**0, the constant 1
        assert boundary_exponent(f) == pytest.approx(0.0)
        with pytest.raises(DomainError):
            boundary_rotation(f)


class TestDiracReweightConsistency:
    def test_reweighted_measure_reexpresses_the_map(self):
        # construct((r*mu2, b1), sigma) == construct((mu2, r*b1), reweight(sigma, r, b1))
        sigma = random_measure(5, 55)
        mu2 = 1.1 + 0.5j
        for r in (0.3, 0.6, 0.9):
            b1 = 0.45
            f1 = construct(ClassParams(r * mu2, b1), sigma)
            f2 = construct(ClassParams(mu2, r * b1), dirac_reweight(sigma, r, b1))
            zs = np.asarray(SAMPLE_Z)
            assert np.max(np.abs(eval_log(f1, zs) - eval_log(f2, zs))) <= 1e-13


class TestRichardson:
    def test_recovers_cubic_limit(self):
        limit = 1.7 - 0.4j
        steps = [10.0 ** (-k) for k in range(3, 7)]
        vals = [limit + 2.1 * h - 0.7 * h**2 + 5.0 * h**3 for h in steps]
        assert richardson_limit(vals) == pytest.approx(limit, abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            richardson_limit([1.0])
