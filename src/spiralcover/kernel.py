"""Branch-safe complex logarithm on the right half-plane.

Every multi-valued operation in the package funnels through
log_principal; powers are taken as exp(s * log).  All bases that arise
downstream have the form 1 - c*z with |c| <= 1 and |z| < 1, so they lie
inside the open disk of radius 1 around 1 and in particular in the
right half-plane, where the principal branch is continuous.  There is
no branch tracking anywhere else.

log_principal takes one real log and one arctan2 per element,

    Log w = 0.5*ln(x*x + y*y) + i*arctan2(y + 0.0, x),   w = x + iy,

on the domain 1e-150 <= |w| <= 1e150, where x*x + y*y neither
overflows nor underflows.  Against cmath.log each part is within
8*eps*max(1, |Log w|) on the right half-plane of that domain.
_log_modulus is its real part alone, ln|w| with no arctan2, for callers
that read no imaginary part; both share one domain check.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "log_principal"]

# |w|**2 bounds of the domain 1e-150 <= |w| <= 1e150
_MIN_SQ = 1e-300
_MAX_SQ = 1e300


class DomainError(ValueError):
    """Argument outside the domain the caller contract guarantees."""


def _square_modulus(arr: np.ndarray):
    """x*x + y*y of a complex array; DomainError unless 1e-150 <= |w| <= 1e150 everywhere."""
    x, y = arr.real, arr.imag
    with np.errstate(over="ignore"):
        sq = x * x + y * y
    # one min and one max decide the domain (NaN fails both comparisons);
    # which message applies is worked out only once it has failed
    if sq.size and not (_MIN_SQ <= sq.min() and sq.max() <= _MAX_SQ):
        if not np.all(np.isfinite(arr)):
            raise DomainError("non-finite complex argument")
        if np.any(arr == 0):
            raise DomainError("log of 0")
        raise DomainError("modulus outside [1e-150, 1e150]")
    return sq


def log_principal(w):
    """Principal logarithm ln|w| + i*arg(w) with arg(w) in (-pi, pi].

    Accepts scalars or arrays.  NaN, infinities, w = 0 and any modulus
    outside [1e-150, 1e150] raise DomainError.  Callers in this package
    always pass Re(w) > 0 and |w| < 2 + 1e-12 (bases 1 - c*z with
    |c| <= 1 + 1e-12 and |z| <= 1), where the branch is continuous and
    the imaginary part lies in (-pi/2, pi/2).
    """
    arr = np.asarray(w, dtype=np.complex128)
    sq = _square_modulus(arr)
    out = np.empty(arr.shape, dtype=np.complex128)
    np.multiply(np.log(sq), 0.5, out=out.real)
    # -0.0 imaginary parts would flip arg(-x) to -pi; + 0.0 normalizes them to +0.0
    np.arctan2(arr.imag + 0.0, arr.real, out=out.imag)
    return out.item() if arr.ndim == 0 else out


def _log_modulus(w):
    """ln|w|: bit for bit log_principal(w).real, with the same DomainErrors and no arctan2."""
    arr = np.asarray(w, dtype=np.complex128)
    out = 0.5 * np.log(_square_modulus(arr))
    return out.item() if arr.ndim == 0 else out
