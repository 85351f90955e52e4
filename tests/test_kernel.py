import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spiralcover import DomainError, ProductForm, log_principal
from spiralcover.functions import NODE_TOL, _factor_sums


EPS = sys.float_info.epsilon


def right_half_plane_in_domain():
    """w = r*e^{it} with 1e-150 <= r <= 1e150 and |t| <= pi/2."""
    return st.builds(
        lambda e, t: cmath.rect(10.0**e, t),
        st.floats(min_value=-149.99, max_value=149.99),
        st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
    )


def right_half_plane():
    return st.builds(
        complex,
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )


class TestLogPrincipal:
    def test_identity(self):
        assert log_principal(1.0) == 0.0

    def test_real_axis(self):
        assert log_principal(2.0) == pytest.approx(math.log(2.0))

    def test_polar_decomposition(self):
        # oracle: ln|w| + i*atan2(Im, Re)
        w = 1.0 + 1.0j
        expected = complex(0.5 * math.log(2.0), math.pi / 4.0)
        assert log_principal(w) == pytest.approx(expected)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            log_principal(0.0)

    def test_array_zero_rejected(self):
        with pytest.raises(DomainError):
            log_principal(np.array([1.0, 0.0j]))

    def test_arg_range_on_negative_axis(self):
        assert log_principal(-1.0).imag == pytest.approx(math.pi)

    def test_array_round_trip(self):
        w = np.array([1.0, 2.0, 1.0 + 1.0j, 0.5 - 0.25j])
        out = log_principal(w)
        assert out.shape == w.shape
        assert np.allclose(np.exp(out), w)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            log_principal(complex(float("nan"), 0.0))

    @given(right_half_plane())
    def test_imag_part_bounded_on_right_half_plane(self, w):
        assert abs(log_principal(w).imag) < math.pi / 2


    @given(right_half_plane_in_domain())
    def test_matches_cmath_log(self, w):
        # each part within 8 eps * max(1, |Log w|) of the correctly rounded reference
        got, ref = log_principal(w), cmath.log(w)
        bound = 8 * EPS * max(1.0, abs(ref))
        assert abs(got.real - ref.real) <= bound
        assert abs(got.imag - ref.imag) <= bound

    @given(st.lists(right_half_plane_in_domain(), min_size=1, max_size=8))
    def test_array_matches_scalar(self, ws):
        out = log_principal(np.array(ws))
        assert out.dtype == np.complex128
        assert list(out) == [log_principal(w) for w in ws]

    @pytest.mark.parametrize("w, expected", [(complex(-1.0, -0.0), math.pi), (complex(1.0, -0.0), 0.0)])
    def test_negative_zero_imaginary_part_normalized(self, w, expected):
        for out in (log_principal(w), log_principal(np.array([w]))[0]):
            assert out.imag == expected
            assert math.copysign(1.0, out.imag) == 1.0

    @pytest.mark.parametrize("w", [1e200, 1e-200, complex(0.0, 1e200), complex(1e-200, -1e-200)])
    def test_modulus_outside_domain_rejected(self, w):
        for arg in (w, np.array([1.0, w])):
            with pytest.raises(DomainError, match="modulus outside"):
                log_principal(arg)

    @pytest.mark.parametrize(
        "w, message",
        [
            (complex(float("nan"), 0.0), "non-finite complex argument"),
            (complex(0.0, float("inf")), "non-finite complex argument"),
            (float("-inf"), "non-finite complex argument"),
            (0.0, "log of 0"),
            (complex(-0.0, -0.0), "log of 0"),
        ],
    )
    def test_domain_messages(self, w, message):
        for arg in (w, np.array([2.0, w, 0.5j])):
            with pytest.raises(DomainError, match=message):
                log_principal(arg)

    def test_empty_array(self):
        out = log_principal(np.array([], dtype=np.complex128))
        assert out.shape == (0,)
        assert out.dtype == np.complex128

    def test_scalar_returns_python_complex(self):
        assert type(log_principal(np.float64(2.0))) is complex
        assert type(log_principal(np.array(1.0 + 1.0j))) is complex


class TestFactorPassPrecondition:
    """_log_into sets no error state: the factor pass's bases 1 - c*z have |c| <= 1 + NODE_TOL and |z| < 1,
    so |1 - c*z| < 2 + 1e-12 and no square overflows, even at the edge of both ranges."""

    # nodes of modulus exactly 1 + NODE_TOL, and points of modulus exactly nextafter(1, 0)
    EDGE = 1.0 + NODE_TOL
    NODES = (-EDGE, EDGE * 1j, -EDGE * 1j, EDGE)
    POINTS = np.nextafter(1.0, 0.0) * np.array([1.0, -1.0, 1j, -1j])

    @pytest.mark.parametrize("exponents", [(0.3, 0.2, 0.1, 0.4), (0.3 - 0.1j, 0.2, 0.1 + 0.05j, 0.4)],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("prefactor", [1.0, 0.0, -0.4 + 0.2j], ids=["one", "zero", "complex"])
    def test_no_overflow_at_the_edge(self, exponents, prefactor):
        f = ProductForm(prefactor, tuple(zip(self.NODES, exponents)))
        assert float(np.abs(f.nodes).max()) == self.EDGE and float(np.abs(self.POINTS).max()) < 1.0
        # one row of points, as the grid and the ring are, and several rows
        for zz in (self.POINTS, np.stack([self.POINTS, -self.POINTS, 0.5 * self.POINTS])):
            with np.errstate(over="raise"):
                passes = [_factor_sums(f, zz, dlog=True), _factor_sums(f, zz)]
            assert all(np.isfinite(v).all() for values in passes for v in values if v is not None)

    @pytest.mark.parametrize("overflow", ["warn", "raise"])
    def test_log_principal_turns_overflow_off_itself(self, overflow):
        # 1e200j squares to inf: log_principal reports the domain, with no warning or FloatingPointError
        with warnings.catch_warnings(), np.errstate(over=overflow):
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="modulus outside"):
                log_principal(1e200j)
            with pytest.raises(DomainError, match="modulus outside"):
                log_principal(np.array([0.5, 1e200j]))
