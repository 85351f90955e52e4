"""Image-domain geometry: boundary curves, winding numbers, covering checks.

Covering is decided on compact exhaustions from the map's values on a
circle: the maps are unbounded near boundary atoms, so the honest
desk-scale statement is nested-compact containment, which the
subordination theorems imply.  Through the core map's explicit inverse,
the open mapping theorem turns it into a margin on |z| = rho, certified
arc by arc.  The boundary polygon and its winding numbers serve
`render` and the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import DomainError
from .functions import (
    BLOCK_ELEMENTS,
    ClassParams,
    ProductForm,
    evaluate,
    _factor_sums,
    _like,
    _wedge_exponent,
)
# spiralbench/tracer.py wraps check_wedge_containment under geometry's name until it takes the checks from the table
from .verification import InteriorSpirallikeMap, VerificationReport, check_wedge_containment

__all__ = [
    "PolyLine",
    "boundary_curve",
    "winding_numbers",
    "check_covering",
    "covering_radius",
    "boundary_gap_profile",
    "wedge_spirals",
    "CoveringComposition",
    "covering_composition",
]

GUARD_FACTOR = 1e-12  # of the curve diameter; closer points are indeterminate
MAX_TURN = 0.2        # radians of turning per segment before bisection
REFINE_TOL = 0.05     # chord length, relative to the local modulus, before bisection
DENSE_PAIRS = 65536   # (point, segment) pairs per chunk of the winding distances
CLIP_RE = 700.0       # Re v at which the covering margin takes e^v: |1 - e^v| > 1e304 there
# the t at which radius-table scans the gap profile: [0, pi] with both ends, where a real s has its minimum
GAP_SCAN_T = np.linspace(0.0, np.pi, 4097)
GAP_SCAN_T.setflags(write=False)


@dataclass(frozen=True, eq=False)
class PolyLine:
    """Closed polygon through an ordered sample of a curve in the image plane.

    The last point joins the first.  It needs at least 16 points and no
    two consecutive points, the last and first included, may coincide.
    It keeps a read-only copy, which later writes to the input cannot reach.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.complex128).ravel()
        if pts.size < 16:
            raise ValueError("closed polyline needs at least 16 points")
        if np.any(_next(pts) == pts):
            raise ValueError("consecutive polyline points coincide")
        object.__setattr__(self, "points", pts)
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return self.points.size

    def diameter(self) -> float:
        """Bounding-box diagonal; the scale for winding guard distances."""
        re, im = self.points.real, self.points.imag
        return float(math.hypot(re.max() - re.min(), im.max() - im.min()))


@np.errstate(all="ignore")
def _curve_values(fn: Callable[[np.ndarray], np.ndarray], rho: float, thetas: np.ndarray) -> np.ndarray:
    """fn at rho*e^{i*theta}; DomainError when a value overflows, with or without a warning."""
    values = np.asarray(fn(rho * np.exp(1j * thetas)), dtype=np.complex128)
    if not np.all(np.isfinite(values)):
        raise DomainError("boundary curve overflows: the map is not finite on |z| = rho")
    return values


def _next(x: np.ndarray) -> np.ndarray:
    """x[k + 1] at index k, cyclically: np.roll(x, -1) by slicing."""
    return np.concatenate([x[1:], x[:1]])


# warnings off: adjacent segments whose lengths differ beyond the float range overflow their turning ratio
@np.errstate(all="ignore")
def _adaptive_closed_curve(
    fn: Callable[[np.ndarray], np.ndarray],
    rho: float,
    n: int,
) -> PolyLine:
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    values = _curve_values(fn, rho, thetas)
    budget = 16 * n

    # up to 64 inserting passes; the iteration after the last one only measures
    for inserted in range(65):
        # segment k runs from vertex k to vertex k + 1
        seg = _next(values) - values
        chords = np.abs(seg)
        mods = np.abs(values)
        local = np.maximum(np.maximum(mods, _next(mods)), 1e-12 * mods.max())
        flags = chords > REFINE_TOL * local

        # turning angle at each vertex flags both adjacent segments;
        # curves of power-map type have high curvature near the image of z ~ 1
        prev = np.concatenate([seg[-1:], seg[:-1]])
        nz = chords > 0
        nz &= np.concatenate([nz[-1:], nz[:-1]])
        # a vertex next to a zero-length segment does not turn: its ratio stays 1
        turn = np.abs(np.angle(np.divide(seg, prev, out=np.ones_like(seg), where=nz)))
        vert_flags = turn > MAX_TURN
        flags |= vert_flags | _next(vert_flags)

        room = budget - thetas.size
        if inserted == 64 or not flags.any() or room <= 0:
            break
        idx = np.nonzero(flags)[0]
        if idx.size > room:
            order = np.argsort(-(chords[idx] / local[idx]))
            idx = idx[order[:room]]
        gaps = _next(thetas) - thetas
        gaps[-1] += 2.0 * np.pi
        new_thetas = thetas[idx] + gaps[idx] / 2.0
        new_values = _curve_values(fn, rho, new_thetas)
        thetas = np.concatenate([thetas, new_thetas])
        order = np.argsort(thetas)
        thetas = thetas[order]
        values = np.concatenate([values, new_values])[order]

    scale = mods.max()
    if scale == 0 or np.all(chords <= 1e-15 * scale):
        raise DomainError("degenerate boundary curve (constant map?)")
    # drop exact duplicates so the polyline invariant holds
    keep = np.concatenate([[True], chords[:-1] > 0])
    return PolyLine(values[keep])


def boundary_curve(f: ProductForm, rho: float, n: int = 256) -> PolyLine:
    """Adaptive closed sample of f(rho * e^{i*theta}).

    Segments are bisected while their chord exceeds REFINE_TOL times
    the local modulus scale or the turning angle exceeds MAX_TURN, up to
    16*n points.  A map that overflows on the circle raises DomainError.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0, 1)")
    if n < 64:
        raise ValueError("need at least 64 initial samples")
    return _adaptive_closed_curve(lambda z: evaluate(f, z), rho, n)


def _crossing_windings(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Winding numbers around pts of the closed polygon with edges a[k] -> b[k].

    Crossing rule (Hormann & Agathos, Comput. Geom. 20, 2001): the
    horizontal line through a point meets only the edges whose half-open
    y-span holds its height.  An upward edge with the point on its left
    adds +1, a downward edge with the point on its right adds -1.  The
    samples are sorted by height, so each edge finds its points by
    bisection and only crossing (edge, point) pairs are tested.
    """
    order = np.argsort(pts.imag)
    heights = pts.imag[order]
    first = np.searchsorted(heights, np.minimum(a.imag, b.imag))
    counts = np.searchsorted(heights, np.maximum(a.imag, b.imag)) - first
    edge_idx = np.repeat(np.arange(a.size), counts)
    # sorted positions first[k], ..., first[k] + counts[k] - 1 of each edge k
    pos = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - first, counts)
    pt_idx = order[pos]
    tail, head, w = a[edge_idx], b[edge_idx], pts[pt_idx]
    va, vb = tail - w, head - w
    # (a-w) x (b-w) > 0 when w is left of a -> b: the cross product of the
    # dense angle sum, whose rounding error shrinks as w nears either vertex
    cross = va.real * vb.imag - va.imag * vb.real
    _require_finite(cross)
    side = np.sign(cross)
    signs = np.where(head.imag > tail.imag, np.maximum(side, 0.0), np.minimum(side, 0.0))
    return np.bincount(pt_idx, weights=signs, minlength=pts.size).astype(np.int64)


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError("winding test overflows: the curve is too large for float arithmetic")


@np.errstate(all="ignore")
def winding_numbers(poly: PolyLine, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winding numbers of a closed polyline around many points at once.

    Returns (windings, indeterminate, distances); a point within the guard
    distance of the curve is marked indeterminate.  Windings take the
    crossing (edge, point) pairs, distances every pair, DENSE_PAIRS at a
    time.  A non-finite point, or a curve whose cross products or segment
    lengths overflow, raises DomainError, with or without a warning.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if not np.all(np.isfinite(pts)):
        raise DomainError("non-finite point")
    a = poly.points
    b = _next(a)
    windings = _crossing_windings(a, b, pts)
    a, edge = a[None, :], (b - a)[None, :]
    edge_sq = np.abs(edge) ** 2
    _require_finite(edge_sq)
    edge_sq = np.where(edge_sq > 0, edge_sq, 1.0)
    dists = np.empty(pts.size)
    chunk = max(1, DENSE_PAIRS // a.size)
    for lo in range(0, pts.size, chunk):
        va = a - pts[lo : lo + chunk, None]
        t = -(va.real * edge.real + va.imag * edge.imag) / edge_sq
        dists[lo : lo + chunk] = np.abs(va + np.clip(t, 0.0, 1.0) * edge).min(axis=1)
    _require_finite(dists)
    return windings, dists < GUARD_FACTOR * poly.diameter(), dists


def _arc_steps(F: ProductForm, rho: float, z: np.ndarray, theta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """L*h on the arcs between consecutive points of each row of z (angles theta in [0, 2*pi)), of length h[row].

    L = rho*(|P - sum of E_k at c_k = 1|/d(arc, 1) + sum over the other
    c_k != 0 of |E_k|/d(arc, 1/c_k)) bounds |dv/dtheta| on the arc; d is
    the pole's distance to the circle if its angle lies in the arc, else
    to the nearer end.  Factors at 1 share the pole of (1-z)**P, so the
    core's exponents cancel there.  Poles go a block at a time, so no work
    array exceeds max(BLOCK_ELEMENTS, z.size) elements.
    """
    at_one = F.nodes == 1.0
    keep = ~at_one & (F.nodes != 0) & (F.exponents != 0)
    poles = np.concatenate([[1.0 + 0.0j], 1.0 / F.nodes[keep]])
    weights = rho * np.concatenate([[abs(F.prefactor - F.exponents[at_one].sum())], np.abs(F.exponents[keep])])
    angles, gaps = np.angle(poles) % (2.0 * np.pi), np.abs(np.abs(poles) - rho)
    starts, h = theta[:, :-1], h[:, None]
    total = np.zeros(starts.shape)
    per_block = max(1, BLOCK_ELEMENTS // z.size)
    for k in range(0, poles.size, per_block):
        block = slice(k, k + per_block)
        ends = np.abs(poles[block, None, None] - z)
        delta = angles[block, None, None] - starts
        inside = ((delta >= 0.0) & (delta <= h)) | (delta <= h - 2.0 * np.pi)
        d = np.where(inside, gaps[block, None, None], np.minimum(ends[..., :-1], ends[..., 1:]))
        total += (weights[block, None, None] / d).sum(axis=0)
    return (total * h).ravel()


@np.errstate(all="ignore")
def _boundary_cover(check: str, F: ProductForm, scale: complex, r: float, rho: float, m: int) -> VerificationReport:
    """Decide r*closed(D) in (1 - e^v)(rho*D), v = log F, from v on |z| = rho; tolerance 0.

    v(0) = 0 lies in the connected set R_r = Log(1 - r*closed(D)).  If
    v(rho*circle) avoids R_r, it winds about each point of R_r as about
    v(0), at least once, so R_r lies in v(rho*D) by the open mapping
    theorem.  v is off R_r where M = max(|1 - e^v| - r, |Im v| - pi/2) > 0;
    e^v is taken at Re v clipped to CLIP_RE.  DomainError unless the map
    exp(scale*v) is finite wherever v is evaluated.

    The ends of m equal start arcs are evaluated in one pass over the
    factors; a value with M < 0 fails, the witness.  With Lh from
    _arc_steps, M on an arc is at least the largest of
    (|Im v_a| + |Im v_b| - pi - Lh)/2, e^{min Re v} - 1 - r,
    1 - r - e^{max Re v} and (|zeta_a| + |zeta_b| - 2r - e^{max Re v}*Lh)/2,
    with zeta = 1 - e^v and min, max Re v = (Re v_a + Re v_b -+ Lh)/2.
    Each pass bisects, in one pass over the factors, every arc whose bound
    is below half the least M so far (NaN too), lowest first, within
    16*max(m, 64) evaluations.  The report gives the least M and its
    point, or the count of arcs left below 0 as indeterminate and the
    least bound, at its arc's start.  Rounding is not counted.
    """
    theta = 2.0 * np.pi * np.arange(m) / m
    # a pass evaluates the new points of rows of consecutive arc ends; the arcs of a row have length h[row]
    rows, h = np.append(np.arange(m), 0)[None, :], np.array([2.0 * np.pi / m])
    z = re = im = mod = arc_h = bound = np.empty(0)
    arc_a = arc_b = np.empty(0, dtype=np.intp)
    best, where = math.inf, 0j
    while True:
        new_z = rho * np.exp(1j * theta[z.size :])
        v = _factor_sums(F, new_z)[1]
        # Re(scale*v) below 709 settles that the map is finite without forming it
        if not (scale.real * v.real - scale.imag * v.imag).max() < 709.0 and not np.all(np.isfinite(np.exp(scale * v))):
            raise DomainError("boundary curve overflows: the map is not finite on |z| = rho")
        z, re, im = np.append(z, new_z), np.append(re, v.real), np.append(im, np.abs(v.imag))
        np.minimum(v.real, CLIP_RE, out=v.real)
        mod = np.append(mod, np.abs(1.0 - np.exp(v)))
        margins = np.maximum(mod[-v.size :] - r, im[-v.size :] - np.pi / 2.0)
        i = int(margins.argmin())
        if margins[i] < best:
            best, where = float(margins[i]), complex(new_z[i])
        if best < 0.0:
            break
        a, b = rows[:, :-1].ravel(), rows[:, 1:].ravel()
        lh = _arc_steps(F, rho, z[rows], theta[rows], h)
        pair = re[a] + re[b]
        e_max = np.exp((pair + lh) / 2.0)
        new_bound = np.fmax(
            np.fmax((im[a] + im[b] - np.pi - lh) / 2.0, (mod[a] + mod[b] - 2.0 * r - e_max * lh) / 2.0),
            np.fmax(np.exp((pair - lh) / 2.0) - 1.0, 1.0 - e_max) - r,
        )
        # an arc certified at half the least M stays certified: the least M only falls
        arc_a, arc_b, arc_h = np.append(arc_a, a), np.append(arc_b, b), np.append(arc_h, np.repeat(h, a.size // h.size))
        bound = np.append(bound, new_bound)
        keep = ~(bound >= best / 2.0)
        arc_a, arc_b, arc_h, bound = arc_a[keep], arc_b[keep], arc_h[keep], bound[keep]
        room = 16 * max(m, 64) - z.size
        if not bound.size or room <= 0:
            break
        order = np.argsort(bound, kind="stable")
        cut, rest = order[:room], order[room:]
        theta = np.append(theta, theta[arc_a[cut]] + arc_h[cut] / 2.0)
        rows = np.stack([arc_a[cut], np.arange(z.size, theta.size), arc_b[cut]], axis=1)
        h = arc_h[cut] / 2.0
        arc_a, arc_b, arc_h, bound = arc_a[rest], arc_b[rest], arc_h[rest], bound[rest]

    undecided = ~(bound >= 0.0) & (best >= 0.0)
    if undecided.any():
        k = int(np.argmin(np.where(undecided, bound, np.inf)))
        best, where = float(bound[k]), complex(z[arc_a[k]])
    if not math.isfinite(best):
        raise DomainError(f"{check}: margin not finite (the map overflows)")
    return VerificationReport(check, best, where, 0.0, m, int(np.count_nonzero(undecided)))


def check_covering(
    f: ProductForm,
    params: ClassParams,
    r_inner: float,
    rho_outer: float,
    m: int = 256,
) -> VerificationReport:
    """Certify core(|z| <= r_inner) in f(|z| < rho_outer), the covering theorem on a compact exhaustion.

    The core's inverse takes f(z) to 1 - e^v, v = log f/(mu*beta), of
    modulus at least |z| for a member by subordination.  _boundary_cover
    decides it from m start arcs on |z| = rho_outer: a member's margin is
    at least rho_outer - r_inner, the core's exactly that, and a failing
    worst_z is a point where f equals core(zeta), |zeta| <= r_inner.
    beta = 0, where the core is constant, raises DomainError.
    """
    if not 0.0 < r_inner < rho_outer < 1.0:
        raise DomainError("need 0 < r_inner < rho_outer < 1")
    if m < 1:
        raise ValueError("need at least one sample")
    if params.beta == 0.0:
        raise DomainError("cover needs beta > 0: at beta = 0 the core map (1-z)**(mu*beta) is constant")
    mb = params.mu * params.beta
    F = ProductForm(f.prefactor / mb, np.column_stack([f.nodes, f.exponents / mb]))
    return _boundary_cover("covering", F, mb, r_inner, rho_outer, m)


def covering_radius(s: float) -> float:
    """Radius of the disk around 1 covered by every class image, s = mu*beta.

    sqrt(1 + 2**(2s) - 2**(s+1)) collapses to 2**s - 1 on (0, 1]; the
    radius saturates at 1 on (1, 2].  It is the square root of the gap
    profile's minimum over t, which radius-table takes on GAP_SCAN_T.
    """
    if not 0.0 < s <= 2.0:
        raise DomainError("s must lie in (0, 2]")
    if s <= 1.0:
        return 2.0**s - 1.0
    return 1.0


def boundary_gap_profile(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """Squared distance |(1 + e^{it})**s - 1|**2 from 1 to the core image boundary, at each t.

    Equals (2*cos(t/2))**(2s) + 1 - 2*(2*cos(t/2))**s * cos(s*t/2); even
    in t, with limit 1 at t = +-pi.  For real s it increases on [0, pi]
    for s < 1, decreases for s > 1 and is constant at s = 1, so its
    minimum is at t = 0 or t = pi.  Taken as the squared modulus of
    (1 + e^{it})**s - 1, which has no cancellation where the gap is
    small.  A float t gives a float and an array an array of its shape,
    through the same numpy arithmetic, so both give the same bits.
    """
    if not 0.0 < s <= 2.0:
        raise DomainError("s must lie in (0, 2]")
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.abs(t) <= math.pi):  # NaN fails the comparison
        raise DomainError("t must lie in [-pi, pi]")
    # 1 + e^{it} = c*e^{it/2}, with c >= 2*cos(pi/2) > 0 on [-pi, pi]; np.power, not **, which on a
    # numpy scalar takes the C library's pow, whose last bits differ from the array loop's
    modulus, arg = np.power(2.0 * np.cos(t / 2.0), s), s * t / 2.0
    re, im = modulus * np.cos(arg) - 1.0, modulus * np.sin(arg)
    gap = re * re + im * im
    return float(gap) if gap.ndim == 0 else gap


def wedge_spirals(exponent: complex, rotation: float) -> tuple[np.ndarray, np.ndarray]:
    """The two bounding spirals e^{-exponent*t} * e^{i*exponent*(rotation +- pi/2)}, as complex arrays.

    Each is sampled at 200 equally spaced t in [-1, 5]; the spirals are
    open curves, drawn but never wound around.
    """
    exponent = _wedge_exponent(exponent, rotation)
    radial = np.exp(-exponent * np.linspace(-1.0, 5.0, 200))
    up, down = (radial * cmath.exp(1j * exponent * (rotation + sign * math.pi / 2.0)) for sign in (1.0, -1.0))
    return up, down


@dataclass(frozen=True)
class CoveringComposition:
    """g(z) = 1 - (1-z)**(1/beta) * (s(z)/z)**(1/(mu*beta)); image covers the unit disk.

    The log of s(z)/z comes from the canonical log of the backing
    product form, never from Log of evaluated values.  The Moebius
    companion (1-g)/(1+g) covers the right half-plane.  With phi the
    spiral angle of s, it needs phi in (-pi/2, pi/2), alpha < cos(phi),
    beta in (0, alpha/cos(phi)], and s of order at least alpha; other
    parameters raise DomainError.
    """

    s: InteriorSpirallikeMap
    alpha: float
    beta: float

    def __post_init__(self):
        phi = self.s.phi
        if not abs(phi) < math.pi / 2:
            raise DomainError("|phi| must be < pi/2")
        if not self.alpha < math.cos(phi):
            raise DomainError("alpha must be < cos(phi)")
        if not 0.0 < self.beta <= self.alpha / math.cos(phi):
            raise DomainError("beta must lie in (0, alpha/cos(phi)]")
        if self.s.order < self.alpha - 1e-12:
            raise DomainError("s is not spirallike of order alpha")

    @property
    def mu(self) -> complex:
        """e^{i*phi} * 2*(cos(phi) - alpha)/(1 - beta), with phi the spiral angle of s."""
        phi = self.s.phi
        return cmath.exp(1j * phi) * 2.0 * (math.cos(phi) - self.alpha) / (1.0 - self.beta)

    def _core(self, z) -> np.ndarray:
        """1 - g at the points z; Log(1-z) and log s(z)/z from one pass."""
        log_1mz, log_ratio = self.s._log_parts(z)
        return np.exp(log_1mz / self.beta + log_ratio / (self.mu * self.beta))

    def __call__(self, z):
        return _like(z, 1.0 - self._core(z))

    def half_plane_map(self, z):
        """(1-g)/(1+g); covers the right half-plane when g covers the disk."""
        core = self._core(z)
        return _like(z, core / (2.0 - core))


def covering_composition(
    s: InteriorSpirallikeMap,
    alpha: float,
    beta: float,
) -> tuple[CoveringComposition, VerificationReport]:
    """Build the unit-disk covering composition and certify that g(|z| < 0.999) covers |w| <= 0.95.

    CoveringComposition rejects parameters outside its rules.  1 - g is
    e^v, v = log F with F = (1-z)**(1/beta + (p - mu_s)/(mu*beta)) times
    the factors of s's source (prefactor p, class mu_s), their exponents
    over mu*beta; _boundary_cover decides it from 256 start arcs.
    """
    g = CoveringComposition(s=s, alpha=alpha, beta=beta)
    src, mb = s.source, g.mu * g.beta
    F = ProductForm(1.0 / g.beta + (src.prefactor - s.params.mu) / mb, np.column_stack([src.nodes, src.exponents / mb]))
    return g, _boundary_cover("disk-coverage", F, 1.0, 0.95, 0.999, 256)
