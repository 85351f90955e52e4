"""Richardson radial estimates of the boundary asymptotics: the tests' oracles.

The library gives the wedge exponent and rotation in closed form
(`boundary_exponent`, `boundary_rotation`).  These estimates take the
radial limits r -> 1- numerically instead, from the map's values at a
few radii, so they check the closed forms independently of them.
"""

from __future__ import annotations

from spiralcover import DomainError, ProductForm, eval_log, log_derivative
from spiralcover.functions import NODE_TOL

RADIAL_EXPONENTS = (3, 4, 5, 6)  # radii 1 - 10**-k used for radial limits


def richardson_limit(values):
    """Richardson table for samples at steps h, h/10, h/100, ... (RADIAL_EXPONENTS).

    Assumes an expansion L + c1*h + c2*h**2 + ...; values must be
    ordered from the largest step to the smallest.
    """
    table = list(values)
    if len(table) < 2:
        raise ValueError("need at least two samples")
    n = len(table)
    for j in range(1, n):
        fac = 10.0 ** j
        table = [(fac * table[i + 1] - table[i]) / (fac - 1.0) for i in range(len(table) - 1)]
    return table[0]


def _radial_points() -> list[float]:
    return [1.0 - 10.0 ** (-k) for k in RADIAL_EXPONENTS]


def boundary_exponent_radial(f: ProductForm) -> complex:
    """Radial-limit estimate of the wedge exponent, Richardson accelerated.

    Independent of the closed form in `boundary_exponent`; the raw
    ratio converges like (1-r), and acceleration over radii
    1 - 10**-k, k = 3..6 recovers well under 1e-3 accuracy.
    """
    vals = [(r - 1.0) * log_derivative(f, r) for r in _radial_points()]
    return complex(richardson_limit(vals))


def boundary_rotation_radial(f: ProductForm, exponent: complex) -> float:
    """Radial-limit estimate of the rotation via Im(log f(r)/exponent)."""
    if abs(exponent) <= NODE_TOL:
        raise DomainError("boundary exponent is 0; rotation undefined")
    vals = [(eval_log(f, r) / exponent).imag for r in _radial_points()]
    return float(richardson_limit(vals))
