"""Numerical verification of the class inequalities at sets of points.

Each check reduces to a margin that is nonnegative exactly when the
corresponding inequality holds; a scan reports the worst margin over
the points, its location, and passes when the worst margin clears
-tolerance.  Margins are O(1)-O(100) on the default grid, so the
default tolerance PASS_TOL sits orders of magnitude above
double-precision round-off.

Every margin is built from three quantities of the map at the points:
log f, f'/f and Log(1-z).  A GridEvaluation computes all three when it
is built, in one pass over the factors, and every margin reads the
same arrays.  Each check is one entry of the table _GRID_CHECKS: the
name of its report, its margin (one function of a GridEvaluation), the
parameters it applies to and, for wedge-containment, the points it is
sampled at.  One scan turns an entry into its report with numpy's
floating-point warnings off: a map that overflows leaves a non-finite
margin, which raises DomainError whatever the warning filters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .kernel import DomainError
from .functions import (
    ClassParams, ProductForm, _as_points, _block_rows, _factor_sums, _like, boundary_exponent, boundary_rotation,
)

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
    "check_interior_identity",
    "growth_margin",
    "check_growth",
    "wedge_margin",
    "check_wedge_containment",
]

PASS_TOL = 1e-9
INTERIOR_IDENTITY_TOL = 1e-12  # exact algebra: round-off is the only slack


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
    """One map at a set of points, with log f, f'/f and Log(1-z) there, computed when it is built.

    The points (the default grid unless given; a scalar is one point) are
    kept as a 1-d complex copy, and there must be at least one: a scan of
    no points has no worst margin.  The three arrays come from one pass
    over the factors, with numpy's floating-point warnings off as in the
    checks: a value that overflows is left non-finite, for the margin
    that reads it to report.  All four arrays are read-only, because
    every margin reads the same ones.
    """

    f: ProductForm
    points: np.ndarray = field(default_factory=DEFAULT_GRID.points)
    log_1mz: np.ndarray = field(init=False, repr=False)
    log_f: np.ndarray = field(init=False, repr=False)
    dlog_f: np.ndarray = field(init=False, repr=False)

    @np.errstate(all="ignore")
    def __post_init__(self):
        points = np.array(self.points, dtype=np.complex128).ravel()
        if not points.size:
            raise ValueError("need at least one point")
        values = _factor_sums(self.f, _as_points(points), dlog=True)
        for name, value in zip(("points", "log_1mz", "log_f", "dlog_f"), (points, *values)):
            object.__setattr__(self, name, _read_only(value))


@dataclass(frozen=True)
class VerificationReport:
    """Worst margin of one check; indeterminate counts undecided samples, which to_dict omits."""

    check: str
    worst_margin: float
    worst_location: complex
    tolerance: float
    samples: int
    indeterminate: int = 0

    @property
    def passed(self) -> bool:
        return bool(self.worst_margin >= -self.tolerance)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "worst_margin": float(self.worst_margin),
            "worst_z": [self.worst_location.real, self.worst_location.imag],
            "tolerance": float(self.tolerance),
            "samples": int(self.samples),
        }


def _report(
    check: str, margins: np.ndarray, locations: np.ndarray, tol: float, indeterminate: int = 0
) -> VerificationReport:
    margins = np.asarray(margins, dtype=np.float64)
    bad = int(np.count_nonzero(~np.isfinite(margins)))
    if bad:
        raise DomainError(f"{check}: margin not finite at {bad} of {margins.size} points (the map overflows)")
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return VerificationReport(
        check=check,
        worst_margin=worst,
        worst_location=complex(np.asarray(locations).ravel()[i]),
        tolerance=tol,
        samples=int(margins.size),
        indeterminate=indeterminate,
    )


def class_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """Re((2/mu)*z*f'/f + (1+z)/(1-z)) - beta; positive where the class inequality holds."""
    z = ev.points
    expr = (2.0 / params.mu) * z * ev.dlog_f + (1.0 + z) / (1.0 - z)
    return expr.real - params.beta


def _ratio_log(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """q = Log(1-z) - log f/mu, the canonical log of (1-z)/f**(1/mu)."""
    return ev.log_1mz - ev.log_f / params.mu


def distortion_coefficient(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """The coefficient lambda(z) with (1-z)/f(z)**(1/mu) = (1 + lambda*z)**(1-beta).

    Computed from the canonical log q = Log(1-z) - eval_log(f,z)/mu as
    (exp(q/(1-beta)) - 1)/z.  Class members satisfy |lambda| <= 1, with
    equality exactly for the single-atom extremals.
    """
    if np.any(ev.points == 0):
        raise DomainError("lambda is undefined at z = 0")
    return (np.exp(_ratio_log(ev, params) / (1.0 - params.beta)) - 1.0) / ev.points


def derivative_functional(ev: GridEvaluation, params: ClassParams):
    """Value, center, radius of the derivative-functional disk, as arrays over the points.

    value = f'/(mu*f) + 1/(1-z) must satisfy |value - center| <= radius
    with center (1-beta)*conj(z)/(1-|z|^2), radius (1-beta)/(1-|z|^2).
    """
    z = ev.points
    value = ev.dlog_f / params.mu + 1.0 / (1.0 - z)
    denom = 1.0 - np.abs(z) ** 2
    center = (1.0 - params.beta) * np.conj(z) / denom
    radius = (1.0 - params.beta) / denom
    return value, center, radius


def _disk_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    value, center, radius = derivative_functional(ev, params)
    return radius - np.abs(value - center)


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
    zz = _as_points(z)
    az = np.abs(zz)
    one_m_b = 1.0 - params.beta
    f_lo = f_hi = None
    if params.mu.imag == 0.0:
        m = params.mu.real
        base = np.abs(1.0 - zz) ** m
        f_lo = base / (1.0 + az) ** (m * one_m_b)
        f_hi = base / (1.0 - az) ** (m * one_m_b)
    out = ValueBounds((1.0 - az) ** one_m_b, (1.0 + az) ** one_m_b, one_m_b * np.arcsin(az), f_lo, f_hi)
    return ValueBounds(*(None if b is None else _like(z, b) for b in out))


class DerivativeBounds(NamedTuple):
    lower: float
    upper: float
    simple_upper: float
    raw_lower: float


def derivative_bounds(params: ClassParams, z):
    """|f'| envelopes for real mu in (0, 2], at a point or an array of points.

    lower <= |f'(z)| <= upper <= simple_upper.  The lower bracket
    |(1-conj(z))/(1-z) + beta*conj(z)| - 1 + beta is >= beta*(1-|z|),
    hence never truly negative; it is still clamped at 0 and the raw
    value reported alongside.
    """
    zz = _as_points(z)
    az = np.abs(zz)
    if not _GRID_CHECKS["derivative-bounds"].applies(params):
        raise DomainError("derivative bounds need real mu in (0, 2]")
    m, beta = params.mu.real, params.beta
    power = np.abs(1.0 - zz) ** m
    base = m * power / (1.0 - az**2)
    bracket = np.abs((1.0 - np.conj(zz)) / (1.0 - zz) + beta * np.conj(zz))
    raw_lower = base / (1.0 + az) ** (m * (1.0 - beta)) * (bracket - 1.0 + beta)
    upper = base / (1.0 - az) ** (m * (1.0 - beta)) * (bracket + 1.0 - beta)
    simple_upper = 2.0 * m * power / ((1.0 - az**2) * (1.0 - az) ** (m * (1.0 - beta)))
    out = DerivativeBounds(np.maximum(raw_lower, 0.0), upper, simple_upper, raw_lower)
    return DerivativeBounds(*(_like(z, b) for b in out))


def _value_bounds_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    q = _ratio_log(ev, params)
    ratio_mod = np.exp(q.real)
    b = modulus_arg_bounds(params, ev.points)
    margins = [ratio_mod - b.mod_lo, b.mod_hi - ratio_mod, b.arg_cap - np.abs(q.imag)]
    if b.f_lo is not None:
        fmod = np.exp(ev.log_f.real)
        margins += [fmod - b.f_lo, b.f_hi - fmod]
    return np.min(margins, axis=0)


def _derivative_bounds_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    fd = np.exp(ev.log_f.real) * np.abs(ev.dlog_f)
    b = derivative_bounds(params, ev.points)
    return np.min([fd - b.lower, b.upper - fd, b.simple_upper - b.upper], axis=0)


def schwarz_function(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """The Schwarz function of the subordination f/(1-z)**mu < (1-z)**(-mu*(1-beta)).

    omega(z) = 1 - exp(-(eval_log(f,z) - mu*Log(1-z))/(mu*(1-beta)));
    |omega(z)| <= |z| and omega(0) = 0 certify the subordination, with
    |omega| = |z| exactly for single-atom members.
    """
    inner = (ev.log_f - params.mu * ev.log_1mz) / (params.mu * (1.0 - params.beta))
    return 1.0 - np.exp(-inner)


@dataclass(frozen=True)
class InteriorSpirallikeMap:
    """s(z) = z*f(z)/(1-z)**mu, spirallike about the interior point s(0) = 0.

    With mu = r*exp(i*phi), s satisfies
    Re(exp(-i*phi)*z*s'/s) > order with order = cos(phi) - r*(1-beta)/2,
    and the margin of that inequality equals (r/2) times the class
    margin of f, exactly.  The angle and the order are those of params.
    """

    source: ProductForm
    params: ClassParams

    def __post_init__(self):
        if self.order < -1e-12:
            # |mu - 1| <= 1 forces cos(phi) >= r/2 >= r*(1-beta)/2; only the OMEGA_TOL
            # slack on it, at tiny r, leaves cos(phi) below 0
            raise DomainError("negative spirallike order: cos(arg mu) < |mu|*(1-beta)/2")

    @property
    def phi(self) -> float:
        """The spiral angle arg mu."""
        return self.params.phi

    @property
    def order(self) -> float:
        """cos(phi) - r*(1-beta)/2."""
        return math.cos(self.phi) - self.params.radius * (1.0 - self.params.beta) / 2.0

    def _log_parts(self, z):
        """(Log(1-z), log of s(z)/z) at the points z, from one pass over the factors."""
        log_1mz, log_f, _ = _factor_sums(self.source, _as_points(z))
        return log_1mz, log_f - self.params.mu * log_1mz

    def __call__(self, z):
        return _like(z, np.asarray(z, dtype=np.complex128) * np.exp(self._log_parts(z)[1]))

    def log_ratio(self, z):
        """Canonical log of s(z)/z = f(z)/(1-z)**mu."""
        return _like(z, self._log_parts(z)[1])

    def spiral_margin(self, ev: GridEvaluation) -> np.ndarray:
        """Re(exp(-i*phi)*z*s'/s) - order via z*s'/s = 1 + z*f'/f + mu*z/(1-z).

        ev must evaluate the source map f.
        """
        if ev.f != self.source:
            raise ValueError("the evaluation is not of this map's source")
        z = ev.points
        zs = 1.0 + z * ev.dlog_f + self.params.mu * z / (1.0 - z)
        return (cmath.exp(-1j * self.phi) * zs).real - self.order


def _identity_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    s = InteriorSpirallikeMap(ev.f, params)
    return -np.abs(s.spiral_margin(ev) - 0.5 * params.radius * class_margin(ev, params))


def growth_margin(ev: GridEvaluation, params: ClassParams, ts) -> np.ndarray:
    """RHS - LHS of the spiral growth inequality, one row per shift t of ts.

    For 0 < t < 2*cos(arg mu) the point z' = z*(1 - exp(-i*phi)*t) stays
    in the disk and |f| there is controlled by |((1-z')/(1-z))**mu| times
    (1 - t/(2*cos(phi)))**(-Re(mu)*(1-beta)).  Moduli are taken branch
    safely through exp(Re(log)).  The shifts go in blocks of
    _block_rows(points) at a time, and each block takes log f(z') and
    Log(1 - z') from one pass over the factors, for both sides: real
    parts alone when mu is real.  The bytes equal those of
    Re(eval_log(f, z')) and Re(mu*(Log(1 - z') - Log(1 - z))).
    """
    phi = params.phi
    cos2 = 2.0 * math.cos(phi)
    if not all(0.0 < t < cos2 for t in ts):
        raise DomainError("t outside (0, 2*cos(arg mu))")
    rot = cmath.exp(-1j * phi)
    mu = params.mu
    power = -mu.real * (1.0 - params.beta)
    real = mu.imag == 0.0
    # the points lie in the disk, and |1 - rot*t|**2 = 1 - 2t*cos(phi) + t**2 < 1 keeps z' there
    log_f = np.ascontiguousarray(ev.log_f.real)
    log_1mz = np.ascontiguousarray(ev.log_1mz.real) if real else ev.log_1mz
    rows = _block_rows(ev.points.size)
    out = np.empty((len(ts), ev.points.size))
    for i in range(0, len(ts), rows):
        block = ts[i : i + rows]
        shifted = ev.points * np.array([[1.0 - rot * t] for t in block])
        log_1mz_s, log_f_s, _ = _factor_sums(ev.f, shifted, real=real)
        # real parts of complex arrays are strided views: each exp reads a contiguous array,
        # lhs a new one and the right-hand side the block's rows of out
        lhs, margin = np.subtract(log_f_s.real, log_f), out[i : i + rows]
        ratio = np.subtract(log_1mz_s, log_1mz, out=log_1mz_s)
        np.copyto(margin, np.multiply(mu.real if real else mu, ratio, out=ratio).real)
        np.exp(lhs, out=lhs)
        np.exp(margin, out=margin)
        np.multiply(margin, np.array([[(1.0 - t / cos2) ** power] for t in block]), out=margin)
        np.subtract(margin, lhs, out=margin)
    return out


def _worst_growth(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    cos2 = 2.0 * math.cos(params.phi)
    return growth_margin(ev, params, [cos2 * k / 33.0 for k in range(1, 33)]).min(axis=0)


def wedge_margin(exponent: complex, rotation: float, log_w) -> np.ndarray | float:
    """Signed distance (in matched spiral parameter) of image points to the wedge.

    An image point with canonical log L lies in the wedge exactly when
    Im(L/exponent) falls in (rotation - pi/2, rotation + pi/2); the
    margin is the distance to the nearer bounding spiral.
    """
    theta = (np.asarray(log_w, dtype=np.complex128) / exponent).imag
    out = np.minimum(rotation + math.pi / 2.0 - theta, theta - (rotation - math.pi / 2.0))
    return _like(log_w, out)


class _GridCheck(NamedTuple):
    """A check_*, its report's name, its margin (one value per point, nonnegative where the statement holds),
    the params it applies to, a tolerance of its own, if any, and the points `check` samples it at, if not
    the invocation's grid."""

    function: str
    report: str
    margin: Callable[[GridEvaluation, ClassParams], np.ndarray]
    applies: Callable[[ClassParams], bool] = lambda p: True
    tolerance: float | None = None
    grid: GridSpec | None = None

    def run(self, ev: GridEvaluation, params: ClassParams, tolerance: float) -> VerificationReport:
        """check_*'s report, looked up when called, so wrappers put on it (spiralbench's tracer) see every call."""
        check = globals()[self.function]
        return check(ev, params) if self.tolerance is not None else check(ev, params, tolerance)


# CLI name -> grid check, in `--checks all` order; the |f'| envelopes are stated for real mu in (0, 2] only
_GRID_CHECKS = {
    "membership": _GridCheck("check_membership", "membership", class_margin),
    "distortion": _GridCheck(
        "check_distortion", "distortion-coefficient", lambda ev, p: 1.0 - np.abs(distortion_coefficient(ev, p))
    ),
    "derivative-disk": _GridCheck("check_derivative_disk", "derivative-disk", _disk_margin),
    "schwarz": _GridCheck(
        "check_schwarz", "schwarz", lambda ev, p: np.abs(ev.points) - np.abs(schwarz_function(ev, p))
    ),
    "value-bounds": _GridCheck("check_value_bounds", "value-bounds", _value_bounds_margin),
    "derivative-bounds": _GridCheck(
        "check_derivative_value_bounds", "derivative-bounds", _derivative_bounds_margin,
        applies=lambda p: p.mu.imag == 0.0 and 0.0 < p.mu.real <= 2.0,
    ),
    "interior-identity": _GridCheck(
        "check_interior_identity", "interior-identity", _identity_margin, tolerance=INTERIOR_IDENTITY_TOL
    ),
    "growth": _GridCheck("check_growth", "growth", _worst_growth),
    "wedge-containment": _GridCheck(
        "check_wedge_containment", "wedge-containment",
        lambda ev, p: wedge_margin(boundary_exponent(ev.f), boundary_rotation(ev.f), ev.log_f),
        grid=GridSpec((0.999,), 512),
    ),
}


@np.errstate(all="ignore")
def _scan(name: str, ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Worst margin of the grid check name over the points, with numpy's floating-point warnings off."""
    check = _GRID_CHECKS[name]
    tol = tolerance if check.tolerance is None else check.tolerance
    return _report(check.report, check.margin(ev, params), ev.points, tol)


def check_membership(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Minimum class margin over the points."""
    return _scan("membership", ev, params, tolerance)


def check_distortion(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Worst margin of 1 - |lambda(z)| over the points."""
    return _scan("distortion", ev, params, tolerance)


def check_derivative_disk(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Worst margin of radius - |value - center| over the points."""
    return _scan("derivative-disk", ev, params, tolerance)


def check_schwarz(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Worst margin of |z| - |omega(z)| over the points."""
    return _scan("schwarz", ev, params, tolerance)


def check_value_bounds(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Worst margin over all applicable modulus/argument envelopes at the points."""
    return _scan("value-bounds", ev, params, tolerance)


def check_derivative_value_bounds(
    ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL
) -> VerificationReport:
    """Worst margin of lower <= |f'| <= upper <= simple_upper over the points."""
    return _scan("derivative-bounds", ev, params, tolerance)


def check_interior_identity(ev: GridEvaluation, params: ClassParams) -> VerificationReport:
    """Exact algebra: spiral margin == (r/2) * class margin, held to INTERIOR_IDENTITY_TOL."""
    return _scan("interior-identity", ev, params)


def check_growth(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Worst growth margin over the points, each at the 32 shifts t = 2*cos(phi)*k/33, k = 1..32, of (0, 2*cos(phi))."""
    return _scan("growth", ev, params, tolerance)


def check_wedge_containment(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Image samples of f at the points stay inside the wedge of its own boundary asymptotics.

    `check` samples f at 512 points of |z| = 0.999.  Only containment is
    asserted; minimality of the wedge is not grid-decidable.
    """
    return _scan("wedge-containment", ev, params, tolerance)
