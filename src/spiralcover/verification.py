"""Numerical verification of the class inequalities on sampling grids.

Each check reduces to a margin that is nonnegative exactly when the
corresponding inequality holds; a grid scan reports the worst margin,
its location, and passes when the worst margin clears -tolerance.
Margins are O(1)-O(100) on the default grid, so the default tolerance
PASS_TOL sits orders of magnitude above double-precision round-off.

Every margin is built from three quantities of the map on the grid:
log f, f'/f and Log(1-z).  A GridEvaluation computes each of them at
most once, when a check first reads it, and every check takes one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .kernel import DomainError, log_principal
from .functions import ClassParams, ProductForm, eval_log, log_derivative

__all__ = [
    "GridSpec",
    "DEFAULT_GRID",
    "GridEvaluation",
    "VerificationReport",
    "class_margin",
    "check_membership",
    "distortion_coefficient",
    "check_distortion",
    "derivative_functional",
    "check_derivative_disk",
    "modulus_arg_bounds",
    "derivative_bounds",
    "check_value_bounds",
    "check_derivative_value_bounds",
    "schwarz_function",
    "check_schwarz",
    "InteriorSpirallikeMap",
    "to_interior_spirallike",
    "check_interior_identity",
    "growth_margin",
    "check_growth",
]

PASS_TOL = 1e-9
# shifts of the growth scan per eval_log call: 4 blocks of 8 beat both 32 calls over
# one grid each and one call over all 32 grids, which is slower and needs more memory
GROWTH_BLOCK = 8


@dataclass(frozen=True)
class GridSpec:
    """Sampling rings for disk-wide scans.

    Radii are capped at 0.999, so every grid point lies at least 1e-3
    from z = 1, where (1+z)/(1-z) blows up.
    """

    radii: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.995)
    angles_per_ring: int = 128

    def __post_init__(self):
        if not self.radii:
            raise ValueError("grid needs at least one radius")
        if any(not 0.0 < r <= 0.999 for r in self.radii):
            raise ValueError("grid radii must lie in (0, 0.999]")
        if self.angles_per_ring < 1:
            raise ValueError("need at least one angle per ring")

    def points(self) -> np.ndarray:
        theta = np.linspace(0.0, 2.0 * np.pi, self.angles_per_ring, endpoint=False)
        ring = np.exp(1j * theta)
        return (np.asarray(self.radii)[:, None] * ring[None, :]).ravel()


DEFAULT_GRID = GridSpec()


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GridEvaluation:
    """A map on a grid: points, log f, f'/f and Log(1-z), each computed on first read.

    The arrays are read-only, because every check reads the same ones.
    """

    f: ProductForm
    grid: GridSpec = DEFAULT_GRID

    @cached_property
    def points(self) -> np.ndarray:
        return _read_only(self.grid.points())

    @cached_property
    def log_f(self) -> np.ndarray:
        return _read_only(eval_log(self.f, self.points))

    @cached_property
    def dlog_f(self) -> np.ndarray:
        return _read_only(log_derivative(self.f, self.points))

    @cached_property
    def log_1mz(self) -> np.ndarray:
        return _read_only(log_principal(1.0 - self.points))


@dataclass(frozen=True)
class VerificationReport:
    check: str
    passed: bool
    worst_margin: float
    worst_location: complex
    tolerance: float
    samples: int

    def __post_init__(self):
        if self.passed != (self.worst_margin >= -self.tolerance):
            raise ValueError("passed flag inconsistent with worst margin")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "worst_z": [self.worst_location.real, self.worst_location.imag],
            "tolerance": float(self.tolerance),
            "samples": int(self.samples),
        }


def _report(check: str, margins: np.ndarray, locations: np.ndarray, tol: float) -> VerificationReport:
    margins = np.asarray(margins, dtype=np.float64)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return VerificationReport(
        check=check,
        passed=worst >= -tol,
        worst_margin=worst,
        worst_location=complex(np.asarray(locations).ravel()[i]),
        tolerance=tol,
        samples=int(margins.size),
    )


def _class_margin(params: ClassParams, z, dlog):
    expr = (2.0 / params.mu) * z * dlog + (1.0 + z) / (1.0 - z)
    return expr.real - params.beta


def class_margin(f: ProductForm, params: ClassParams, z):
    """Re((2/mu)*z*f'/f + (1+z)/(1-z)) - beta; positive where the class inequality holds."""
    zz = np.asarray(z, dtype=np.complex128)
    out = _class_margin(params, zz, log_derivative(f, zz))
    return float(out) if np.ndim(z) == 0 else out


def check_membership(
    ev: GridEvaluation,
    params: ClassParams,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Minimum class margin over the grid, excluding the z = 1 neighborhood."""
    return _report("membership", _class_margin(params, ev.points, ev.dlog_f), ev.points, tolerance)


def distortion_coefficient(f: ProductForm, params: ClassParams, z):
    """The coefficient lambda(z) with (1-z)/f(z)**(1/mu) = (1 + lambda*z)**(1-beta).

    Computed from the canonical log q = Log(1-z) - eval_log(f,z)/mu as
    (exp(q/(1-beta)) - 1)/z.  Class members satisfy |lambda| <= 1, with
    equality exactly for the single-atom extremals.
    """
    zz = np.asarray(z, dtype=np.complex128)
    if np.any(zz == 0):
        raise DomainError("lambda is undefined at z = 0")
    out = _distortion_coefficient(params, zz, eval_log(f, zz), log_principal(1.0 - zz))
    return complex(out) if np.ndim(z) == 0 else out


def _ratio_log(params: ClassParams, log_f, log_1mz):
    """q = Log(1-z) - log f/mu, the canonical log of (1-z)/f**(1/mu)."""
    return log_1mz - log_f / params.mu


def _distortion_coefficient(params: ClassParams, z, log_f, log_1mz):
    return (np.exp(_ratio_log(params, log_f, log_1mz) / (1.0 - params.beta)) - 1.0) / z


def check_distortion(
    ev: GridEvaluation,
    params: ClassParams,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Worst margin of 1 - |lambda(z)| over the grid."""
    lam = _distortion_coefficient(params, ev.points, ev.log_f, ev.log_1mz)
    return _report("distortion-coefficient", 1.0 - np.abs(lam), ev.points, tolerance)


def derivative_functional(f: ProductForm, params: ClassParams, z):
    """Value, center, radius of the derivative-functional disk.

    value = f'/(mu*f) + 1/(1-z) must satisfy |value - center| <= radius
    with center (1-beta)*conj(z)/(1-|z|^2), radius (1-beta)/(1-|z|^2).
    """
    zz = np.asarray(z, dtype=np.complex128)
    value, center, radius = _derivative_functional(params, zz, log_derivative(f, zz))
    if np.ndim(z) == 0:
        return complex(value), complex(center), float(radius)
    return value, center, radius


def _derivative_functional(params: ClassParams, z, dlog):
    value = dlog / params.mu + 1.0 / (1.0 - z)
    denom = 1.0 - np.abs(z) ** 2
    center = (1.0 - params.beta) * np.conj(z) / denom
    radius = (1.0 - params.beta) / denom
    return value, center, radius


def check_derivative_disk(
    ev: GridEvaluation,
    params: ClassParams,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    value, center, radius = _derivative_functional(params, ev.points, ev.dlog_f)
    return _report("derivative-disk", radius - np.abs(value - center), ev.points, tolerance)


class ValueBounds(NamedTuple):
    """Envelopes for (1-z)/f**(1/mu) and, for real mu, for |f| itself."""

    mod_lo: float
    mod_hi: float
    arg_cap: float
    f_lo: float | None
    f_hi: float | None


def modulus_arg_bounds(params: ClassParams, z):
    """Sharp modulus/argument envelopes at a point or an array of points.

    (1-|z|)**(1-beta) <= |(1-z)/f**(1/mu)| <= (1+|z|)**(1-beta) and
    |arg| <= (1-beta)*arcsin|z| for every class member.  The |f|
    envelopes only make sense for real mu and are None otherwise.
    """
    zz = np.asarray(z, dtype=np.complex128)
    az = np.abs(zz)
    if not np.all(az < 1):  # NaN fails too
        raise DomainError("z outside the open unit disk")
    one_m_b = 1.0 - params.beta
    f_lo = f_hi = None
    if params.mu.imag == 0.0:
        m = params.mu.real
        base = np.abs(1.0 - zz) ** m
        f_lo = base / (1.0 + az) ** (m * one_m_b)
        f_hi = base / (1.0 - az) ** (m * one_m_b)
    out = ValueBounds((1.0 - az) ** one_m_b, (1.0 + az) ** one_m_b, one_m_b * np.arcsin(az), f_lo, f_hi)
    if np.ndim(z) == 0:
        return ValueBounds(*(None if b is None else float(b) for b in out))
    return out


class DerivativeBounds(NamedTuple):
    lower: float
    upper: float
    simple_upper: float
    raw_lower: float


def _derivative_bounds_apply(params: ClassParams) -> bool:
    """Whether the |f'| envelopes are stated for these parameters: real mu in (0, 2]."""
    return params.mu.imag == 0.0 and 0.0 < params.mu.real <= 2.0


def derivative_bounds(params: ClassParams, z):
    """|f'| envelopes for real mu in (0, 2], at a point or an array of points.

    lower <= |f'(z)| <= upper <= simple_upper.  The lower bracket
    |(1-conj(z))/(1-z) + beta*conj(z)| - 1 + beta is >= beta*(1-|z|),
    hence never truly negative; it is still clamped at 0 and the raw
    value reported alongside.
    """
    zz = np.asarray(z, dtype=np.complex128)
    az = np.abs(zz)
    if not np.all(az < 1):  # NaN fails too
        raise DomainError("z outside the open unit disk")
    if not _derivative_bounds_apply(params):
        raise DomainError("derivative bounds need real mu in (0, 2]")
    m, beta = params.mu.real, params.beta
    power = np.abs(1.0 - zz) ** m
    base = m * power / (1.0 - az**2)
    bracket = np.abs((1.0 - np.conj(zz)) / (1.0 - zz) + beta * np.conj(zz))
    raw_lower = base / (1.0 + az) ** (m * (1.0 - beta)) * (bracket - 1.0 + beta)
    upper = base / (1.0 - az) ** (m * (1.0 - beta)) * (bracket + 1.0 - beta)
    simple_upper = 2.0 * m * power / ((1.0 - az**2) * (1.0 - az) ** (m * (1.0 - beta)))
    out = DerivativeBounds(np.maximum(raw_lower, 0.0), upper, simple_upper, raw_lower)
    return DerivativeBounds(*map(float, out)) if np.ndim(z) == 0 else out


def check_value_bounds(
    ev: GridEvaluation,
    params: ClassParams,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Worst margin over all applicable modulus/argument envelopes."""
    q = _ratio_log(params, ev.log_f, ev.log_1mz)
    ratio_mod = np.exp(q.real)
    b = modulus_arg_bounds(params, ev.points)
    margins = [ratio_mod - b.mod_lo, b.mod_hi - ratio_mod, b.arg_cap - np.abs(q.imag)]
    if b.f_lo is not None:
        fmod = np.exp(ev.log_f.real)
        margins += [fmod - b.f_lo, b.f_hi - fmod]
    return _report("value-bounds", np.min(margins, axis=0), ev.points, tolerance)


def check_derivative_value_bounds(
    ev: GridEvaluation,
    params: ClassParams,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Worst margin of lower <= |f'| <= upper <= simple_upper over the grid."""
    fd = np.exp(ev.log_f.real) * np.abs(ev.dlog_f)
    b = derivative_bounds(params, ev.points)
    margins = np.min([fd - b.lower, b.upper - fd, b.simple_upper - b.upper], axis=0)
    return _report("derivative-bounds", margins, ev.points, tolerance)


def schwarz_function(f: ProductForm, params: ClassParams, z):
    """The Schwarz function of the subordination f/(1-z)**mu < (1-z)**(-mu*(1-beta)).

    omega(z) = 1 - exp(-(eval_log(f,z) - mu*Log(1-z))/(mu*(1-beta)));
    |omega(z)| <= |z| and omega(0) = 0 certify the subordination, with
    |omega| = |z| exactly for single-atom members.
    """
    zz = np.asarray(z, dtype=np.complex128)
    out = _schwarz_function(params, eval_log(f, zz), log_principal(1.0 - zz))
    return complex(out) if np.ndim(z) == 0 else out


def _schwarz_function(params: ClassParams, log_f, log_1mz):
    inner = (log_f - params.mu * log_1mz) / (params.mu * (1.0 - params.beta))
    return 1.0 - np.exp(-inner)


def check_schwarz(
    ev: GridEvaluation,
    params: ClassParams,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    omega = _schwarz_function(params, ev.log_f, ev.log_1mz)
    return _report("schwarz", np.abs(ev.points) - np.abs(omega), ev.points, tolerance)


@dataclass(frozen=True)
class InteriorSpirallikeMap:
    """s(z) = z*f(z)/(1-z)**mu, spirallike about the interior point s(0) = 0.

    With mu = r*exp(i*phi), s satisfies
    Re(exp(-i*phi)*z*s'/s) > order with order = cos(phi) - r*(1-beta)/2,
    and the margin of that inequality equals (r/2) times the class
    margin of f, exactly.
    """

    source: ProductForm
    params: ClassParams
    phi: float
    order: float

    def __call__(self, z):
        zz = np.asarray(z, dtype=np.complex128)
        out = zz * np.exp(self.log_ratio(zz))
        return complex(out) if np.ndim(z) == 0 else out

    def log_ratio(self, z):
        """Canonical log of s(z)/z = f(z)/(1-z)**mu."""
        zz = np.asarray(z, dtype=np.complex128)
        out = eval_log(self.source, zz) - self.params.mu * log_principal(1.0 - zz)
        return complex(out) if np.ndim(z) == 0 else out

    def spiral_margin(self, z):
        """Re(exp(-i*phi)*z*s'/s) - order via z*s'/s = 1 + z*f'/f + mu*z/(1-z)."""
        zz = np.asarray(z, dtype=np.complex128)
        out = self._spiral_margin(zz, log_derivative(self.source, zz))
        return float(out) if np.ndim(z) == 0 else out

    def _spiral_margin(self, z, dlog):
        zs = 1.0 + z * dlog + self.params.mu * z / (1.0 - z)
        return (cmath.exp(-1j * self.phi) * zs).real - self.order


def to_interior_spirallike(f: ProductForm, params: ClassParams) -> InteriorSpirallikeMap:
    """Correspondence with maps spirallike about an interior point."""
    phi = params.phi
    order = math.cos(phi) - params.radius * (1.0 - params.beta) / 2.0
    if order < -1e-12:
        # admissible mu forces cos(phi) >= r/2 >= r*(1-beta)/2
        raise DomainError("negative spirallike order; parameters inadmissible")
    return InteriorSpirallikeMap(source=f, params=params, phi=phi, order=order)


def check_interior_identity(
    ev: GridEvaluation,
    params: ClassParams,
    tolerance: float = 1e-12,
) -> VerificationReport:
    """Exact algebra: spiral margin == (r/2) * class margin, no inequality slack."""
    s = to_interior_spirallike(ev.f, params)
    pts, dlog = ev.points, ev.dlog_f
    dev = np.abs(s._spiral_margin(pts, dlog) - 0.5 * params.radius * _class_margin(params, pts, dlog))
    return _report("interior-identity", -dev, pts, tolerance)


def _growth_margins(f: ProductForm, params: ClassParams, zz: np.ndarray, ts, log_f, log_1mz) -> np.ndarray:
    """growth_margin at each shift t of ts (one row each) over the 1-d points zz.

    log_f and log_1mz are log f and Log(1-z) at zz; the shifted points are
    evaluated GROWTH_BLOCK shifts per eval_log call.
    """
    phi = params.phi
    cos2 = 2.0 * math.cos(phi)
    if not all(0.0 < t < cos2 for t in ts):
        raise DomainError("t outside (0, 2*cos(arg mu))")
    rot = cmath.exp(-1j * phi)
    power = -params.mu.real * (1.0 - params.beta)
    rows = []
    for i in range(0, len(ts), GROWTH_BLOCK):
        block = ts[i : i + GROWTH_BLOCK]
        shifted = zz * np.array([[1.0 - rot * t] for t in block])
        if np.any(np.abs(shifted) >= 1.0):
            raise DomainError("shifted point outside the disk")
        lhs = np.exp((eval_log(f, shifted) - log_f).real)
        log_ratio = params.mu * (log_principal(1.0 - shifted) - log_1mz)
        rhs = np.exp(log_ratio.real) * np.array([[(1.0 - t / cos2) ** power] for t in block])
        rows.append(rhs - lhs)
    return np.concatenate(rows)


def growth_margin(f: ProductForm, params: ClassParams, z, t: float):
    """RHS - LHS of the spiral growth inequality at shift parameter t.

    For 0 < t < 2*cos(arg mu) the point z*(1 - exp(-i*phi)*t) stays in
    the disk and |f| there is controlled by |((1-z')/(1-z))**mu| times
    (1 - t/(2*cos(phi)))**(-Re(mu)*(1-beta)).  Moduli are taken branch
    safely through exp(Re(eval_log)).
    """
    zz = np.asarray(z, dtype=np.complex128).ravel()
    out = _growth_margins(f, params, zz, [t], eval_log(f, zz), log_principal(1.0 - zz))[0]
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def check_growth(
    ev: GridEvaluation,
    params: ClassParams,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Scan the growth inequality on the grid times a fixed open t-grid.

    The claim quantifies over all t in (0, 2*cos(phi)); the scan takes the
    32 values 2*cos(phi)*k/33, k = 1..32, and counts only the grid points.
    """
    cos2 = 2.0 * math.cos(params.phi)
    ts = [cos2 * k / 33.0 for k in range(1, 33)]
    margins = _growth_margins(ev.f, params, ev.points, ts, ev.log_f, ev.log_1mz)
    return _report("growth", margins.min(axis=0), ev.points, tolerance)
