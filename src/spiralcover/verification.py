"""Numerical verification of the class inequalities on sampling grids.

Each check reduces to a margin that is nonnegative exactly when the
corresponding inequality holds; a grid scan reports the worst margin,
its location, and passes when the worst margin clears -tolerance.
Margins are O(1)-O(100) on the default grid, so the default tolerance
1e-9 sits orders of magnitude above double-precision round-off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernel import DomainError, log_principal
from .functions import ClassParams, ProductForm, eval_log, log_derivative

__all__ = [
    "GridSpec",
    "DEFAULT_GRID",
    "VerificationReport",
    "class_margin",
    "check_membership",
    "distortion_coefficient",
    "check_distortion",
    "derivative_functional",
    "check_derivative_disk",
    "ValueBounds",
    "modulus_arg_bounds",
    "DerivativeBounds",
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


@dataclass(frozen=True)
class GridSpec:
    """Sampling rings for disk-wide scans.

    A neighborhood of z = 1 may be excluded: the class inequality
    degenerates favorably there ((1+z)/(1-z) blows up), so exclusion
    loses nothing while avoiding overflow on custom near-boundary
    rings.
    """

    radii: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 0.995)
    angles_per_ring: int = 128
    exclusion_radius: float = 1e-3

    def __post_init__(self):
        if not self.radii:
            raise ValueError("grid needs at least one radius")
        if any(not 0.0 < r <= 0.999 for r in self.radii):
            raise ValueError("grid radii must lie in (0, 0.999]")
        if self.angles_per_ring < 1:
            raise ValueError("need at least one angle per ring")
        if self.exclusion_radius < 0:
            raise ValueError("exclusion radius must be nonnegative")

    def points(self) -> np.ndarray:
        theta = np.linspace(0.0, 2.0 * np.pi, self.angles_per_ring, endpoint=False)
        ring = np.exp(1j * theta)
        pts = (np.asarray(self.radii)[:, None] * ring[None, :]).ravel()
        if self.exclusion_radius > 0:
            pts = pts[np.abs(pts - 1.0) >= self.exclusion_radius]
        return pts


DEFAULT_GRID = GridSpec()


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


def class_margin(f: ProductForm, params: ClassParams, z):
    """Re((2/mu)*z*f'/f + (1+z)/(1-z)) - beta; positive where the class inequality holds."""
    zz = np.asarray(z, dtype=np.complex128)
    expr = (2.0 / params.mu) * zz * log_derivative(f, zz) + (1.0 + zz) / (1.0 - zz)
    out = expr.real - params.beta
    return float(out) if np.ndim(z) == 0 else out


def check_membership(
    f: ProductForm,
    params: ClassParams,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Minimum class margin over the grid, excluding the z = 1 neighborhood."""
    pts = grid.points()
    return _report("membership", class_margin(f, params, pts), pts, tolerance)


def distortion_coefficient(f: ProductForm, params: ClassParams, z):
    """The coefficient lambda(z) with (1-z)/f(z)**(1/mu) = (1 + lambda*z)**(1-beta).

    Computed from the canonical log q = Log(1-z) - eval_log(f,z)/mu as
    (exp(q/(1-beta)) - 1)/z.  Class members satisfy |lambda| <= 1, with
    equality exactly for the single-atom extremals.
    """
    zz = np.asarray(z, dtype=np.complex128)
    if np.any(zz == 0):
        raise DomainError("lambda is undefined at z = 0")
    q = log_principal(1.0 - zz) - eval_log(f, zz) / params.mu
    out = (np.exp(q / (1.0 - params.beta)) - 1.0) / zz
    return complex(out) if np.ndim(z) == 0 else out


def check_distortion(
    f: ProductForm,
    params: ClassParams,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Worst margin of 1 - |lambda(z)| over the grid."""
    pts = grid.points()
    lam = distortion_coefficient(f, params, pts)
    return _report("distortion-coefficient", 1.0 - np.abs(lam), pts, tolerance)


def derivative_functional(f: ProductForm, params: ClassParams, z):
    """Value, center, radius of the derivative-functional disk.

    value = f'/(mu*f) + 1/(1-z) must satisfy |value - center| <= radius
    with center (1-beta)*conj(z)/(1-|z|^2), radius (1-beta)/(1-|z|^2).
    """
    zz = np.asarray(z, dtype=np.complex128)
    value = log_derivative(f, zz) / params.mu + 1.0 / (1.0 - zz)
    denom = 1.0 - np.abs(zz) ** 2
    center = (1.0 - params.beta) * np.conj(zz) / denom
    radius = (1.0 - params.beta) / denom
    if np.ndim(z) == 0:
        return complex(value), complex(center), float(radius)
    return value, center, radius


def check_derivative_disk(
    f: ProductForm,
    params: ClassParams,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    pts = grid.points()
    value, center, radius = derivative_functional(f, params, pts)
    return _report("derivative-disk", radius - np.abs(value - center), pts, tolerance)


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
    f: ProductForm,
    params: ClassParams,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Worst margin over all applicable modulus/argument envelopes."""
    pts = grid.points()
    log_f = eval_log(f, pts)
    q = log_principal(1.0 - pts) - log_f / params.mu
    ratio_mod = np.exp(q.real)
    b = modulus_arg_bounds(params, pts)
    margins = [ratio_mod - b.mod_lo, b.mod_hi - ratio_mod, b.arg_cap - np.abs(q.imag)]
    if b.f_lo is not None:
        fmod = np.exp(log_f.real)
        margins += [fmod - b.f_lo, b.f_hi - fmod]
    return _report("value-bounds", np.min(margins, axis=0), pts, tolerance)


def check_derivative_value_bounds(
    f: ProductForm,
    params: ClassParams,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Worst margin of lower <= |f'| <= upper <= simple_upper over the grid."""
    pts = grid.points()
    fd = np.exp(eval_log(f, pts).real) * np.abs(log_derivative(f, pts))
    b = derivative_bounds(params, pts)
    margins = np.min([fd - b.lower, b.upper - fd, b.simple_upper - b.upper], axis=0)
    return _report("derivative-bounds", margins, pts, tolerance)


def schwarz_function(f: ProductForm, params: ClassParams, z):
    """The Schwarz function of the subordination f/(1-z)**mu < (1-z)**(-mu*(1-beta)).

    omega(z) = 1 - exp(-(eval_log(f,z) - mu*Log(1-z))/(mu*(1-beta)));
    |omega(z)| <= |z| and omega(0) = 0 certify the subordination, with
    |omega| = |z| exactly for single-atom members.
    """
    zz = np.asarray(z, dtype=np.complex128)
    inner = (eval_log(f, zz) - params.mu * log_principal(1.0 - zz)) / (params.mu * (1.0 - params.beta))
    out = 1.0 - np.exp(-inner)
    return complex(out) if np.ndim(z) == 0 else out


def check_schwarz(
    f: ProductForm,
    params: ClassParams,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    pts = grid.points()
    omega = schwarz_function(f, params, pts)
    return _report("schwarz", np.abs(pts) - np.abs(omega), pts, tolerance)


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
        zs = 1.0 + zz * log_derivative(self.source, zz) + self.params.mu * zz / (1.0 - zz)
        out = (cmath.exp(-1j * self.phi) * zs).real - self.order
        return float(out) if np.ndim(z) == 0 else out


def to_interior_spirallike(f: ProductForm, params: ClassParams) -> InteriorSpirallikeMap:
    """Correspondence with maps spirallike about an interior point."""
    phi = params.phi
    order = math.cos(phi) - params.radius * (1.0 - params.beta) / 2.0
    if order < -1e-12:
        # admissible mu forces cos(phi) >= r/2 >= r*(1-beta)/2
        raise DomainError("negative spirallike order; parameters inadmissible")
    return InteriorSpirallikeMap(source=f, params=params, phi=phi, order=order)


def check_interior_identity(
    f: ProductForm,
    params: ClassParams,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = 1e-12,
) -> VerificationReport:
    """Exact algebra: spiral margin == (r/2) * class margin, no inequality slack."""
    s = to_interior_spirallike(f, params)
    pts = grid.points()
    dev = np.abs(s.spiral_margin(pts) - 0.5 * params.radius * class_margin(f, params, pts))
    return _report("interior-identity", -dev, pts, tolerance)


def _growth_margins(f: ProductForm, params: ClassParams, zz: np.ndarray, ts) -> list:
    """growth_margin at each shift t of ts; the logs at zz are computed once."""
    phi = params.phi
    cos2 = 2.0 * math.cos(phi)
    if not all(0.0 < t < cos2 for t in ts):
        raise DomainError("t outside (0, 2*cos(arg mu))")
    log_f = eval_log(f, zz)
    log_1mz = log_principal(1.0 - zz)
    margins = []
    for t in ts:
        shifted = zz * (1.0 - cmath.exp(-1j * phi) * t)
        if np.any(np.abs(shifted) >= 1.0):
            raise DomainError("shifted point outside the disk")
        lhs = np.exp((eval_log(f, shifted) - log_f).real)
        log_ratio = params.mu * (log_principal(1.0 - shifted) - log_1mz)
        rhs = np.exp(log_ratio.real) * (1.0 - t / cos2) ** (-params.mu.real * (1.0 - params.beta))
        margins.append(rhs - lhs)
    return margins


def growth_margin(f: ProductForm, params: ClassParams, z, t: float):
    """RHS - LHS of the spiral growth inequality at shift parameter t.

    For 0 < t < 2*cos(arg mu) the point z*(1 - exp(-i*phi)*t) stays in
    the disk and |f| there is controlled by |((1-z')/(1-z))**mu| times
    (1 - t/(2*cos(phi)))**(-Re(mu)*(1-beta)).  Moduli are taken branch
    safely through exp(Re(eval_log)).
    """
    out = _growth_margins(f, params, np.asarray(z, dtype=np.complex128), [t])[0]
    return float(out) if np.ndim(z) == 0 else out


def check_growth(
    f: ProductForm,
    params: ClassParams,
    grid: GridSpec = DEFAULT_GRID,
    tolerance: float = PASS_TOL,
) -> VerificationReport:
    """Scan the growth inequality on the grid times a fixed open t-grid.

    The claim quantifies over all t in (0, 2*cos(phi)); the scan takes the
    32 values 2*cos(phi)*k/33, k = 1..32, and counts only the grid points.
    """
    pts = grid.points()
    cos2 = 2.0 * math.cos(params.phi)
    ts = [cos2 * k / 33.0 for k in range(1, 33)]
    margins = np.stack(_growth_margins(f, params, pts, ts))
    return _report("growth", margins.min(axis=0), pts, tolerance)
