import numpy as np
import pytest
from hypothesis import given, strategies as st

from spiralcover import (
    AtomicCircleMeasure,
    DomainError,
    dirac_reweight,
    make_measure,
    random_measure,
)


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
        assert sigma.atoms == [(1.0 + 0.0j, 1.0)]
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

    def test_json_round_trip(self):
        sigma = random_measure(5, 3)
        back = AtomicCircleMeasure.from_dict(sigma.to_dict())
        assert np.allclose(np.sort(np.angle(back.points)), np.sort(np.angle(sigma.points)))
        assert back.weights.sum() == pytest.approx(1.0)


class TestDiracReweight:
    def test_identity_at_r_one(self):
        sigma = random_measure(4, 11)
        out = dirac_reweight(sigma, 1.0, 0.3)
        assert len(out) == len(sigma)
        for p, w in sigma.atoms:
            assert out.weight_near(p) == pytest.approx(w)

    def test_dirac_at_minus_one_splits(self):
        sigma = make_measure([(-1.0, 1.0)])
        out = dirac_reweight(sigma, 0.5, 0.0)
        assert len(out) == 2
        assert out.weight_near(-1.0) == pytest.approx(0.5)
        assert out.weight_near(1.0) == pytest.approx(0.5)

    def test_dirac_at_one_merges(self):
        sigma = make_measure([(1.0, 1.0)])
        out = dirac_reweight(sigma, 0.5, 0.5)
        assert len(out) == 1
        assert out.weight_near(1.0) == pytest.approx(1.0)

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
