import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spiralcover import DomainError, log_principal


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

