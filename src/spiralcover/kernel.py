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
8*eps*max(1, |Log w|) on the right half-plane of that domain.  It
writes through _log_into, which the factor pass, with work arrays of
its own, also uses; so the log has one code path and one domain check.
_log_into sets no floating-point error state: the factor pass gives it
only bases 1 - c*z with |c| <= 1 + 1e-12 and |z| < 1, so
|w| < 2 + 1e-12 and no square can overflow.  log_principal, which
takes any argument, turns overflow warnings off itself, so an
overflowing square reaches the domain check as inf.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "log_principal"]

# |w|**2 bounds of the domain 1e-150 <= |w| <= 1e150
_MIN_SQ = 1e-300
_MAX_SQ = 1e300


class DomainError(ValueError):
    """Argument outside the domain the caller contract guarantees."""


def _log_into(w: np.ndarray, work: np.ndarray, log_mod: np.ndarray) -> None:
    """Log w into work; DomainError unless 1e-150 <= |w| <= 1e150.

    w and work are C-contiguous complex128 arrays of one shape, log_mod a
    float64 scratch array of that shape; work must not share memory with
    w.  work first takes the squares of w's float64 view, whose pairs add
    to x*x + y*y bit for bit in log_mod, which is left holding
    w.imag + 0.0.  No error state is set here, so w must not overflow
    when squared: the factor pass's bases have |w| < 2 + 1e-12, and
    log_principal turns overflow warnings off for any other argument.
    """
    squares = np.square(w.view(np.float64), out=work.view(np.float64))
    np.add(squares[..., ::2], squares[..., 1::2], out=log_mod)
    # one min and one max decide the domain (NaN fails both comparisons);
    # which message applies is worked out only once it has failed
    if log_mod.size and not (_MIN_SQ <= log_mod.min() and log_mod.max() <= _MAX_SQ):
        if not np.all(np.isfinite(w)):
            raise DomainError("non-finite complex argument")
        if np.any(w == 0):
            raise DomainError("log of 0")
        raise DomainError("modulus outside [1e-150, 1e150]")
    np.log(log_mod, out=log_mod)
    np.multiply(log_mod, 0.5, out=work.real)
    # -0.0 imaginary parts would flip arg(-x) to -pi; + 0.0 normalizes them to +0.0
    np.add(w.imag, 0.0, out=log_mod)
    np.arctan2(log_mod, w.real, out=work.imag)


@np.errstate(over="ignore")
def log_principal(w):
    """Principal logarithm ln|w| + i*arg(w) with arg(w) in (-pi, pi].

    Accepts scalars or arrays.  NaN, infinities, w = 0 and any modulus
    outside [1e-150, 1e150] raise DomainError.  Callers in this package
    always pass Re(w) > 0 and |w| < 2 + 1e-12 (bases 1 - c*z with
    |c| <= 1 + 1e-12 and |z| <= 1), where the branch is continuous and
    the imaginary part lies in (-pi/2, pi/2).
    """
    arr = np.asarray(w, dtype=np.complex128)
    flat = np.ascontiguousarray(arr)  # at least 1-d, as the float64 view needs
    out = np.empty(flat.shape, dtype=np.complex128)
    _log_into(flat, out, np.empty(flat.shape))
    return out.item() if arr.ndim == 0 else out

