"""Numerical verification of the class inequalities at sets of points.

Each check reduces to a margin that is nonnegative exactly when the
corresponding inequality holds; a scan reports the worst margin over
the points, its location, and passes when the worst margin clears
-tolerance.  Margins are O(1)-O(100) on the default grid, so the
default tolerance PASS_TOL sits orders of magnitude above
double-precision round-off.

Every margin is built from log f and f'/f at the points and from
quantities of the points alone: Log(1-z), 1-z, |z|, (1+z)/(1-z), 1/(1-z)
and 1-|z|^2, one read-only record that a GridSpec builds on first use
and keeps; raw points get a record of their own.  A GridEvaluation takes
a GridSpec or raw points, computes log f and f'/f in one pass over the
factors that reads Log(1-z) from the record, and keeps each quantity of
the map that several margins share, formed once per params: the class
margin (membership, growth, interior-identity), the ratio log q
(distortion, value-bounds) and exp(q/(1-beta)), which is 1 + lambda*z
and 1 - omega (distortion, schwarz).  Each check is one entry of the
table _GRID_CHECKS: the name of its report, its margin (one function of
a GridEvaluation), the params and map it applies to and, for
wedge-containment, points of its own.  `check` runs the named entries
(for 'all', those that apply) with one evaluation per set of points they
read, taking f'/f on its grid alone; one scan turns an entry into its
report with numpy's floating-point warnings off: a map that overflows
leaves a non-finite margin, which raises DomainError whatever the
warning filters.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .kernel import DomainError, log_principal
from .functions import (
    NODE_TOL, ClassParams, ProductForm, _as_points, _factor_sums, _like, boundary_exponent, boundary_rotation,
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
        # kept as a tuple of floats and an int, so a spec from a list or an array hashes and compares
        object.__setattr__(self, "radii", tuple(map(float, self.radii)))
        if not self.radii:
            raise ValueError("grid needs at least one radius")
        if any(not 0.0 < r <= 0.999 for r in self.radii):
            raise ValueError("grid radii must lie in (0, 0.999]")
        try:
            object.__setattr__(self, "angles_per_ring", operator.index(self.angles_per_ring))
        except TypeError:
            raise ValueError("angles per ring must be an integer") from None
        if self.angles_per_ring < 1:
            raise ValueError("need at least one angle per ring")

    def points(self) -> np.ndarray:
        """The points, ring by ring: computed on the first call, which then returns the same read-only array."""
        return self._arrays.points

    @cached_property
    def _arrays(self) -> _PointArrays:
        """The points' record, kept from the first read on in __dict__, so equality, hashing and repr stay on
        the two fields."""
        ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, self.angles_per_ring, endpoint=False))
        return _point_arrays((np.asarray(self.radii)[:, None] * ring[None, :]).ravel())


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _PointArrays(NamedTuple):
    """Points inside the disk, with the quantities of the points alone that the margins read, all read-only."""

    points: np.ndarray
    one_m_z: np.ndarray
    log_1mz: np.ndarray
    abs_z: np.ndarray
    cayley: np.ndarray  # (1+z)/(1-z)
    inv_1mz: np.ndarray  # 1/(1-z)
    one_m_abs2: np.ndarray  # 1 - |z|**2


def _point_arrays(points) -> _PointArrays:
    """The record of raw points (a scalar is one point), checked by _as_points and kept as a read-only copy."""
    points = _as_points(points).copy()
    one_m_z, abs_z = 1.0 - points, np.abs(points)
    arrays = points, one_m_z, log_principal(one_m_z), abs_z, (1.0 + points) / one_m_z, 1.0 / one_m_z, 1.0 - abs_z**2
    return _PointArrays(*map(_read_only, arrays))


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True, eq=False)
class GridEvaluation:
    """One map at a set of points, with log f, f'/f and Log(1-z) there, computed when it is built.

    The points are a GridSpec's (DEFAULT_GRID unless given), kept as it
    keeps them with the arrays of the points alone, Log(1-z) among them; or
    raw points (a scalar is one point), kept as a flat, checked, read-only
    complex copy with arrays of their own.  There must be at least one: a
    scan of no points has no worst margin.  log f and f'/f come from one
    pass over the factors, with numpy's floating-point warnings off as in
    the checks: a value that overflows is left non-finite, for the margin
    that reads it to report.  With dlog false the pass takes no f'/f and
    dlog_f is None, for checks that read log f and Log(1-z) alone.  The
    arrays are read-only, because every margin reads the same ones; so are
    the quantities of the map that several margins share (the class margin,
    q and exp(q/(1-beta))), each formed on its first read, once per params.
    """

    f: ProductForm
    points: np.ndarray | GridSpec = DEFAULT_GRID
    dlog: bool = True
    log_1mz: np.ndarray = field(init=False, repr=False)
    log_f: np.ndarray = field(init=False, repr=False)
    dlog_f: np.ndarray | None = field(init=False, repr=False)

    @np.errstate(all="ignore")
    def __post_init__(self):
        arrays = self.points._arrays if isinstance(self.points, GridSpec) else _point_arrays(np.ravel(self.points))
        if not arrays.points.size:
            raise ValueError("need at least one point")
        _, log_f, dlog_f = _factor_sums(self.f, arrays.points, self.dlog, arrays.log_1mz)
        kept = {"points": arrays.points, "log_1mz": arrays.log_1mz, "log_f": _read_only(log_f),
                "dlog_f": dlog_f if dlog_f is None else _read_only(dlog_f), "_arrays": arrays, "_memo": {}}
        for name, value in kept.items():
            object.__setattr__(self, name, value)


def _once(memo: dict, key: str, params, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """compute(), kept read-only in memo under key for these params (the same object), so it is formed once."""
    hit = memo.get(key)
    if hit is None or hit[0] is not params:
        hit = memo[key] = (params, _read_only(compute()))
    return hit[1]


@dataclass(frozen=True)
class VerificationReport:
    """Worst margin of one check; indeterminate counts undecided samples, which the JSON report omits."""

    check: str
    worst_margin: float
    worst_location: complex
    tolerance: float
    samples: int
    indeterminate: int = 0

    @property
    def passed(self) -> bool:
        return bool(self.worst_margin >= -self.tolerance)


def _report(
    check: str, margins: np.ndarray, locations: np.ndarray, tol: float, indeterminate: int = 0
) -> VerificationReport:
    margins = np.asarray(margins, dtype=np.float64)
    i = int(margins.argmin())
    worst = float(margins[i])
    # argmin stops at the first NaN, so any non-finite margin leaves the min or the max non-finite
    if not (math.isfinite(worst) and math.isfinite(margins.max())):
        bad = int(np.count_nonzero(~np.isfinite(margins)))
        raise DomainError(f"{check}: margin not finite at {bad} of {margins.size} points (the map overflows)")
    return VerificationReport(
        check=check,
        worst_margin=worst,
        worst_location=complex(np.asarray(locations).ravel()[i]),
        tolerance=tol,
        samples=int(margins.size),
        indeterminate=indeterminate,
    )


def class_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """Re((2/mu)*z*f'/f + (1+z)/(1-z)) - beta; positive where the class inequality holds.

    Formed once per evaluation and params, as a read-only array that
    membership, growth and interior-identity all read.
    """
    return _once(ev._memo, "class", params, lambda: _class_margin(ev, params))


def _class_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    expr = (2.0 / params.mu) * ev.points * ev.dlog_f + ev._arrays.cayley
    return expr.real - params.beta


def _ratio_log(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """q = Log(1-z) - log f/mu, the canonical log of (1-z)/f**(1/mu)."""
    return _once(ev._memo, "q", params, lambda: ev.log_1mz - ev.log_f / params.mu)


def _ratio_exp(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """exp(q/(1-beta)) = 1 + lambda*z = 1 - omega, which distortion and schwarz read."""
    return _once(ev._memo, "e", params, lambda: np.exp(_ratio_log(ev, params) / (1.0 - params.beta)))


def distortion_coefficient(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """The coefficient lambda(z) with (1-z)/f(z)**(1/mu) = (1 + lambda*z)**(1-beta).

    Computed from the canonical log q = Log(1-z) - eval_log(f,z)/mu as
    (exp(q/(1-beta)) - 1)/z.  Class members satisfy |lambda| <= 1, with
    equality exactly for the single-atom extremals.
    """
    if np.any(ev.points == 0):
        raise DomainError("lambda is undefined at z = 0")
    return (_ratio_exp(ev, params) - 1.0) / ev.points


def derivative_functional(ev: GridEvaluation, params: ClassParams):
    """Value, center, radius of the derivative-functional disk, as arrays over the points.

    value = f'/(mu*f) + 1/(1-z) must satisfy |value - center| <= radius
    with center (1-beta)*conj(z)/(1-|z|^2), radius (1-beta)/(1-|z|^2).
    """
    arrays = ev._arrays
    value = ev.dlog_f / params.mu + arrays.inv_1mz
    center = (1.0 - params.beta) * np.conj(ev.points) / arrays.one_m_abs2
    radius = (1.0 - params.beta) / arrays.one_m_abs2
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
    out = _value_envelopes(params, _point_arrays(z))
    return ValueBounds(*(None if b is None else _like(z, b) for b in out))


def _envelope_powers(params: ClassParams, arrays: _PointArrays):
    """|1-z|**mu, (1+|z|)**k and (1-|z|)**k with k = mu*(1-beta): the powers of the real-mu |f| and |f'| bounds."""
    m, k = params.mu.real, params.mu.real * (1.0 - params.beta)
    return np.abs(arrays.one_m_z) ** m, (1.0 + arrays.abs_z) ** k, (1.0 - arrays.abs_z) ** k


def _value_envelopes(params: ClassParams, arrays: _PointArrays) -> ValueBounds:
    az, one_m_b = arrays.abs_z, 1.0 - params.beta
    f_lo = f_hi = None
    if params.mu.imag == 0.0:
        power, lo, hi = _envelope_powers(params, arrays)
        f_lo, f_hi = power / lo, power / hi
    return ValueBounds((1.0 - az) ** one_m_b, (1.0 + az) ** one_m_b, one_m_b * np.arcsin(az), f_lo, f_hi)


class DerivativeBounds(NamedTuple):
    lower: float
    upper: float
    simple_upper: float
    raw_lower: float


def derivative_bounds(params: ClassParams, z):
    """|f'| envelopes for real mu in (0, 2], at a point or an array of points.

    lower <= |f'(z)| <= upper, and upper <= simple_upper in exact
    arithmetic, with equality at beta = 0.  The lower bracket
    |(1-conj(z))/(1-z) + beta*conj(z)| - 1 + beta is >= beta*(1-|z|),
    hence never truly negative; it is still clamped at 0 and the raw
    value reported alongside.
    """
    lower, upper, raw_lower, half_simple = _derivative_envelopes(params, _point_arrays(z))
    return DerivativeBounds(*(_like(z, b) for b in (lower, upper, 2.0 * half_simple, raw_lower)))


def _derivative_envelopes(params: ClassParams, arrays: _PointArrays):
    """lower, upper, raw_lower and simple_upper/2, a factor of upper; the margin reads lower and upper alone."""
    if not _GRID_CHECKS["derivative-bounds"].applies(params, None):
        raise DomainError("derivative bounds need real mu in (0, 2]")
    m, beta, zc = params.mu.real, params.beta, np.conj(arrays.points)
    power, lo, hi = _envelope_powers(params, arrays)
    base = m * power / arrays.one_m_abs2
    half_simple = base / hi
    bracket = np.abs((1.0 - zc) / arrays.one_m_z + beta * zc)
    raw_lower = base / lo * (bracket - 1.0 + beta)
    return np.maximum(raw_lower, 0.0), half_simple * (bracket + 1.0 - beta), raw_lower, half_simple


def _value_bounds_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    q = _ratio_log(ev, params)
    ratio_mod = np.exp(q.real)
    b = _value_envelopes(params, ev._arrays)
    margins = [ratio_mod - b.mod_lo, b.mod_hi - ratio_mod, b.arg_cap - np.abs(q.imag)]
    if b.f_lo is not None:
        fmod = np.exp(ev.log_f.real)
        margins += [fmod - b.f_lo, b.f_hi - fmod]
    return np.min(margins, axis=0)


def _derivative_bounds_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    fd = np.exp(ev.log_f.real) * np.abs(ev.dlog_f)
    lower, upper, *_ = _derivative_envelopes(params, ev._arrays)
    return np.minimum(fd - lower, upper - fd)


def schwarz_function(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    """The Schwarz function of the subordination f/(1-z)**mu < (1-z)**(-mu*(1-beta)).

    omega(z) = 1 - exp(q/(1-beta)) with q = Log(1-z) - eval_log(f,z)/mu,
    which is -lambda(z)*z, from the exponential distortion_coefficient
    reads; |omega(z)| <= |z| and omega(0) = 0 certify the subordination,
    with |omega| = |z| exactly for single-atom members.
    """
    return 1.0 - _ratio_exp(ev, params)


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
        if not _GRID_CHECKS["interior-identity"].applies(self.params, self.source):
            raise DomainError("negative spirallike order: cos(arg mu) < |mu|*(1-beta)/2")

    @property
    def phi(self) -> float:
        """The spiral angle arg mu."""
        return self.params.phi

    @property
    def order(self) -> float:
        """cos(phi) - r*(1-beta)/2."""
        return _spiral_order(self.params)

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
        zs = 1.0 + z * ev.dlog_f + self.params.mu * z / ev._arrays.one_m_z
        return (cmath.exp(-1j * self.phi) * zs).real - self.order


def _spiral_order(params: ClassParams) -> float:
    return math.cos(params.phi) - params.radius * (1.0 - params.beta) / 2.0


def _identity_margin(ev: GridEvaluation, params: ClassParams) -> np.ndarray:
    s = InteriorSpirallikeMap(ev.f, params)
    return -np.abs(s.spiral_margin(ev) - 0.5 * params.radius * class_margin(ev, params))


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
    the params and map it applies to (the map is None for a map-free caller), a tolerance of its own, if any,
    and the points `check` samples it at, if not the invocation's grid.  f'/f is taken on the invocation's
    grid alone, never on an entry's own points, whose margin reads log f and Log(1-z) alone."""

    function: str
    report: str
    margin: Callable[[GridEvaluation, ClassParams], np.ndarray]
    applies: Callable[[ClassParams, ProductForm | None], bool] = lambda p, f: True
    tolerance: float | None = None
    grid: GridSpec | None = None


# CLI name -> grid check, in `--checks all` order; the |f'| envelopes are stated for real mu in (0, 2] only, the
# interior map for cos(phi) >= r*(1-beta)/2, which |mu - 1| <= 1 forces but for its OMEGA_TOL slack at tiny r, and
# the wedge for a boundary exponent off 0, where its rotation is defined (not for the constant member f = 1)
_GRID_CHECKS = {
    "membership": _GridCheck("check_membership", "membership", class_margin),
    "distortion": _GridCheck(
        "check_distortion", "distortion-coefficient", lambda ev, p: 1.0 - np.abs(distortion_coefficient(ev, p))
    ),
    "derivative-disk": _GridCheck("check_derivative_disk", "derivative-disk", _disk_margin),
    "schwarz": _GridCheck(
        "check_schwarz", "schwarz", lambda ev, p: ev._arrays.abs_z - np.abs(schwarz_function(ev, p))
    ),
    "value-bounds": _GridCheck("check_value_bounds", "value-bounds", _value_bounds_margin),
    "derivative-bounds": _GridCheck(
        "check_derivative_value_bounds", "derivative-bounds", _derivative_bounds_margin,
        applies=lambda p, f: p.mu.imag == 0.0 and 0.0 < p.mu.real <= 2.0,
    ),
    "interior-identity": _GridCheck(
        "check_interior_identity", "interior-identity", _identity_margin,
        applies=lambda p, f: _spiral_order(p) >= -1e-12, tolerance=INTERIOR_IDENTITY_TOL,
    ),
    "growth": _GridCheck("check_growth", "growth", lambda ev, p: 0.5 * p.radius * class_margin(ev, p)),
    "wedge-containment": _GridCheck(
        "check_wedge_containment", "wedge-containment",
        lambda ev, p: wedge_margin(boundary_exponent(ev.f), boundary_rotation(ev.f), ev.log_f),
        applies=lambda p, f: abs(boundary_exponent(f)) > NODE_TOL, grid=GridSpec((0.999,), 512),
    ),
}


def _run_checks(
    names: str, f: ProductForm, params: ClassParams, grid: GridSpec, tolerance: float
) -> list[VerificationReport]:
    """`check`'s reports: check_* is looked up when called, so wrappers on it (spiralbench's tracer) see each call."""
    if names == "all":
        checks = [check for check in _GRID_CHECKS.values() if check.applies(params, f)]
    else:
        named = [n.strip() for n in names.split(",") if n.strip()]
        if not named:
            raise ValueError("no checks named")
        if unknown := [name for name in named if name not in _GRID_CHECKS]:
            raise ValueError(f"unknown check {unknown[0]!r}")
        checks = [_GRID_CHECKS[name] for name in named]
    evs = {spec: GridEvaluation(f, spec, dlog=spec == grid) for spec in dict.fromkeys(c.grid or grid for c in checks)}
    reports = []
    for c in checks:
        check, ev = globals()[c.function], evs[c.grid or grid]
        reports.append(check(ev, params) if c.tolerance is not None else check(ev, params, tolerance))
    return reports


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
    """Worst margin of the modulus/argument envelopes and, for real mu, of the |f| ones, which restate the modulus
    ones in exact arithmetic but keep margins of their own: the tolerance is absolute and |f| nears 1e5 at z = -1."""
    return _scan("value-bounds", ev, params, tolerance)


def check_derivative_value_bounds(
    ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL
) -> VerificationReport:
    """Worst margin of lower <= |f'| <= upper over the points."""
    return _scan("derivative-bounds", ev, params, tolerance)


def check_interior_identity(ev: GridEvaluation, params: ClassParams) -> VerificationReport:
    """Exact algebra: spiral margin == (r/2) * class margin, held to INTERIOR_IDENTITY_TOL."""
    return _scan("interior-identity", ev, params)


def check_growth(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """The growth theorem's verdict over the points: its rate as t -> 0+, (|mu|/2) times the class margin.

    For 0 < t < 2*cos(phi), z' = z*(1 - exp(-i*phi)*t) and
    g = log(f/(1-z)**mu), the theorem's inequality is L(z, t) >= 0 with
    L = Re g(z) - Re g(z') - Re(mu)*(1-beta)*log(1 - t/(2*cos(phi))), and
    the rate L/t tends to (|mu|/2) times the class margin as t -> 0+.  A
    non-member fails it at small t wherever its class margin is negative,
    and every member satisfies it for every t by the paper's growth
    theorem (checked numerically in the tests), so on the open disk it
    holds for every z and t exactly when the map is a member.  The report
    is membership's, its margins scaled by |mu|/2 and held to the same
    tolerance.
    """
    return _scan("growth", ev, params, tolerance)


def check_wedge_containment(ev: GridEvaluation, params: ClassParams, tolerance: float = PASS_TOL) -> VerificationReport:
    """Image samples of f at the points stay inside the wedge of its own boundary asymptotics.

    `check` samples f at 512 points of |z| = 0.999.  Only containment is
    asserted; minimality of the wedge is not grid-decidable.
    """
    return _scan("wedge-containment", ev, params, tolerance)
