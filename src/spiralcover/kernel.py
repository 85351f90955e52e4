"""Branch-safe complex logarithm on the right half-plane.

Every multi-valued operation in the package funnels through
log_principal; powers are taken as exp(s * log).  All bases that arise
downstream have the form 1 - c*z with |c| <= 1 and |z| < 1, so they lie
inside the open disk of radius 1 around 1 and in particular in the
right half-plane, where the principal branch is continuous.  There is
no branch tracking anywhere else.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "log_principal"]


class DomainError(ValueError):
    """Argument outside the domain the caller contract guarantees."""


def log_principal(w):
    """Principal logarithm ln|w| + i*arg(w) with arg(w) in (-pi, pi].

    Accepts scalars or arrays; w = 0 is rejected.  Callers in this
    package always pass Re(w) > 0, where the branch is continuous and
    the imaginary part lies in (-pi/2, pi/2).
    """
    arr = np.asarray(w, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite complex argument")
    if np.any(arr == 0):
        raise DomainError("log of 0")
    # -0.0 imaginary parts would flip arg(-x) to -pi; normalize to +0.0
    out = np.log(arr + np.complex128(0))
    return out.item() if arr.ndim == 0 else out

