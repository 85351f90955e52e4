import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spiralcover import (
    AtomicCircleMeasure,
    DomainError,
    dirac_reweight,
    make_measure,
    random_measure,
)
from spiralcover.serialize import load_measure, measure_spec


def assert_valid(sigma: AtomicCircleMeasure):
    """The type invariants, assertable post-hoc on any instance."""
    assert np.all(np.abs(np.abs(sigma.points) - 1.0) <= 1e-12)
    assert np.all(sigma.weights >= 0.0)
    assert abs(sigma.weights.sum() - 1.0) <= 1e-12
    d = np.abs(sigma.points[:, None] - sigma.points[None, :])
    np.fill_diagonal(d, np.inf)
    assert np.all(d > 1e-12)


class TestMakeMeasure:
    def test_single_atom(self):
        sigma = make_measure([(1.0, 1.0)])
        assert len(sigma) == 1
        assert list(zip(sigma.points.tolist(), sigma.weights.tolist())) == [(1.0 + 0.0j, 1.0)]
        assert_valid(sigma)

    def test_symmetric_pair(self):
        sigma = make_measure([(1.0j, 0.5), (-1.0j, 0.5)])
        assert len(sigma) == 2
        assert_valid(sigma)

    def test_large_deviation_rejected(self):
        with pytest.raises(ValueError, match="deviates"):
            make_measure([(1.0, 2.0), (-1.0, 2.0)])

    def test_small_deviation_rescaled(self):
        sigma = make_measure([(1.0, 0.5), (-1.0, 0.5 + 3e-8)])
        assert abs(sigma.weights.sum() - 1.0) <= 1e-12
        assert_valid(sigma)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_measure([(1.0, 1.5), (-1.0, -0.5)])

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError, match="circle"):
            make_measure([(1.01, 1.0)])

    def test_near_circle_projected(self):
        sigma = make_measure([((1.0 + 5e-10) * 1.0j, 1.0)])
        assert abs(abs(sigma.points[0]) - 1.0) == 0.0

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="mass|deviates"):
            make_measure([(1.0, 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_measure([])

    def test_duplicates_merged(self):
        sigma = make_measure([(1.0, 0.5), (np.exp(1e-13j), 0.5)])
        assert len(sigma) == 1
        assert sigma.weights[0] == pytest.approx(1.0)

    def test_merged_sum_off_one_renormalized(self):
        # the input sum is within 1e-12 of 1, so it is not rescaled; the merge adds
        # the cluster's weights first, and that sum rounds to beyond 1e-12 of 1
        atoms = [(1.0, 0.1), (1.0j, 0.7), (1.0, 0.200000000001)]
        merged = np.array([0.1 + 0.200000000001, 0.7])
        assert abs(np.array([w for _, w in atoms]).sum() - 1.0) <= 1e-12 < abs(merged.sum() - 1.0)
        sigma = make_measure(atoms)
        assert sigma.points.tolist() == [1.0, 1.0j]
        assert sigma.weights.tolist() == (merged / merged.sum()).tolist()
        assert_valid(sigma)

    def test_pair_across_pi_merged(self):
        # 2e-13 apart, at the two ends of the angle order
        a, b = np.exp(1j * (np.pi - 1e-13)), np.exp(1j * (-np.pi + 1e-13))
        sigma = make_measure([(a, 0.25), (b, 0.75)])
        assert len(sigma) == 1
        assert sigma.points[0] == a
        assert sigma.weights[0] == 1.0

    @pytest.mark.parametrize(
        "atom",
        [(np.nan, 1.0), (1.0, np.nan), (complex(1.0, np.nan), 1.0), (np.inf, 1.0), (1.0, np.inf)],
    )
    def test_non_finite_rejected(self, atom):
        with pytest.raises(ValueError, match="non-finite"):
            make_measure([atom])

    def test_json_round_trip(self):
        sigma = random_measure(5, 3)
        back = load_measure(measure_spec(sigma))
        assert np.allclose(np.sort(np.angle(back.points)), np.sort(np.angle(sigma.points)))
        assert back.weights.sum() == pytest.approx(1.0)


def greedy_merge(atoms) -> tuple[np.ndarray, np.ndarray]:
    """make_measure's former merge, kept as the reference: each atom joins
    the first earlier cluster whose first atom lies within 1e-12."""
    pts = np.asarray([complex(p) for p, _ in atoms])
    wts = np.asarray([float(w) for _, w in atoms])
    pts = pts / np.abs(pts)
    if abs(wts.sum() - 1.0) > 1e-12:
        wts = wts / wts.sum()
    merged_pts: list[complex] = []
    merged_wts: list[float] = []
    for p, w in zip(pts, wts):
        for i, q in enumerate(merged_pts):
            if abs(p - q) <= 1e-12:
                merged_wts[i] += w
                break
        else:
            merged_pts.append(complex(p))
            merged_wts.append(float(w))
    warr = np.asarray(merged_wts)
    if abs(warr.sum() - 1.0) > 1e-12:
        warr = warr / warr.sum()
    return np.asarray(merged_pts), warr


class TestMergeAgainstGreedy:
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_equal(self, n, duplicates, across_pi, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-np.pi, np.pi, size=n)
        # near-duplicates within 0.45e-12 of an atom are within 1e-12 of each other
        near = angles[rng.integers(0, n, size=duplicates)] + rng.uniform(-4.5e-13, 4.5e-13, size=duplicates)
        angles = np.concatenate([angles, near])
        if across_pi:
            angles = np.concatenate([angles, [np.pi, np.pi - 2e-13, -np.pi + 2e-13]])
        rng.shuffle(angles)
        weights = rng.uniform(0.0, 1.0, size=angles.size) + 1e-3
        pts, wts = np.exp(1j * angles), weights / weights.sum()
        atoms = list(zip(pts, wts))
        points, weights = greedy_merge(atoms)
        for sigma in (make_measure(atoms), AtomicCircleMeasure(pts, wts)):
            assert np.array_equal(sigma.points, points)
            assert np.array_equal(sigma.weights, weights)
            assert_valid(sigma)


class TestAtomicCircleMeasure:
    def test_duplicates_across_pi_merged(self):
        # adjacent only through the wrap-around from the largest angle to the smallest
        pts = np.exp(1j * np.array([np.pi - 1e-13, 0.5, -np.pi + 1e-13]))
        sigma = AtomicCircleMeasure(pts, np.array([0.25, 0.5, 0.25]))
        assert np.allclose(sigma.points, pts[:2], rtol=0.0, atol=1e-15)
        assert sigma.weights.tolist() == [0.5, 0.5]
        assert_valid(sigma)

    def test_near_duplicates_beside_off_circle_atom_merged(self):
        # the middle atom, 0.99e-12 off the circle, sits between two atoms 6e-13 apart:
        # it is projected first, so the gaps are measured on the circle and all three merge
        pts = np.array([1.0, np.exp(0.6e-12j), (1.0 + 0.99e-12) * np.exp(0.3e-12j), -1.0])
        sigma = AtomicCircleMeasure(pts, np.full(4, 0.25))
        assert sigma.points.tolist() == [1.0, -1.0]
        assert sigma.weights.tolist() == [0.75, 0.25]
        assert_valid(sigma)

    @pytest.mark.parametrize(
        "points, weights, message",
        [
            ([1.0, -1.0], [1.0], "matching 1-d arrays"),
            ([1.0, -1.0], [1.5, -0.5], "negative atom weight"),
            ([1.0, -1.0], [0.5, 0.4], "deviates from 1"),
        ],
        ids=["mismatched-shapes", "negative-weight", "sum-off-one"],
    )
    def test_malformed_rejected(self, points, weights, message):
        with pytest.raises(ValueError, match=message):
            AtomicCircleMeasure(np.array(points, dtype=complex), np.array(weights))

    @pytest.mark.parametrize(
        "point, weight",
        [(np.nan, 1.0), (1.0, np.nan), (complex(np.nan, 0.0), 1.0), (np.inf, 1.0), (1.0, np.inf)],
    )
    def test_non_finite_rejected(self, point, weight):
        with pytest.raises(ValueError, match="non-finite"):
            AtomicCircleMeasure(np.array([point], dtype=complex), np.array([weight]))


def weight_at(sigma, point: complex) -> float:
    """Total weight of the atoms of sigma within 1e-12 of point."""
    return float(sigma.weights[np.abs(sigma.points - point) <= 1e-12].sum())


class TestDiracReweight:
    def test_identity_at_r_one(self):
        sigma = random_measure(4, 11)
        out = dirac_reweight(sigma, 1.0, 0.3)
        assert len(out) == len(sigma)
        for p, w in zip(sigma.points.tolist(), sigma.weights.tolist()):
            assert weight_at(out, p) == pytest.approx(w)

    def test_dirac_at_minus_one_splits(self):
        sigma = make_measure([(-1.0, 1.0)])
        out = dirac_reweight(sigma, 0.5, 0.0)
        assert len(out) == 2
        assert weight_at(out, -1.0) == pytest.approx(0.5)
        assert weight_at(out, 1.0) == pytest.approx(0.5)

    def test_dirac_at_one_merges(self):
        sigma = make_measure([(1.0, 1.0)])
        out = dirac_reweight(sigma, 0.5, 0.5)
        assert len(out) == 1
        assert weight_at(out, 1.0) == pytest.approx(1.0)

    def test_parameter_validation(self):
        sigma = make_measure([(1.0j, 1.0)])
        with pytest.raises(DomainError):
            dirac_reweight(sigma, 0.0, 0.0)
        with pytest.raises(DomainError):
            dirac_reweight(sigma, 1.5, 0.0)
        with pytest.raises(DomainError):
            dirac_reweight(sigma, 0.5, 1.0)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.99),
        st.integers(min_value=0, max_value=50),
    )
    def test_preserves_mass_and_positivity(self, r, beta1, seed):
        out = dirac_reweight(random_measure(3, seed), r, beta1)
        assert_valid(out)


class TestRandomMeasure:
    def test_deterministic_per_seed(self):
        a = random_measure(4, 7)
        b = random_measure(4, 7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_single_atom_is_dirac(self):
        sigma = random_measure(1, 123)
        assert len(sigma) == 1
        assert sigma.weights[0] == pytest.approx(1.0)

    def test_normalized(self):
        sigma = random_measure(8, 1)
        assert abs(sigma.weights.sum() - 1.0) <= 1e-12
        assert_valid(sigma)

    def test_zero_atoms_rejected(self):
        with pytest.raises(ValueError):
            random_measure(0, 1)
