"""Product-form maps of the unit disk and their boundary asymptotics.

Every map handled by the toolkit is stored as the exponent data of

    log f(z) = p * Log(1 - z) - sum_j e_j * Log(1 - c_j * z),

with |c_j| <= 1, so f(0) = 1 automatically and the canonical branch of
log f is available everywhere on the disk.  Constructing from an atomic
circle measure gives the members of the class G(mu, beta); interior
nodes (|c_j| < 1) are admitted so that worked examples whose factors
are not circle atoms fit the same representation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kernel import DomainError, log_principal
from .measures import AtomicCircleMeasure, make_measure

__all__ = [
    "ClassParams",
    "ProductForm",
    "construct",
    "core_function",
    "extremal",
    "canonical_wedge",
    "eval_log",
    "evaluate",
    "log_derivative",
    "transform_class",
    "boundary_exponent",
    "boundary_rotation",
    "boundary_exponent_radial",
    "boundary_rotation_radial",
    "richardson_limit",
]

OMEGA_TOL = 1e-12       # slack on |mu - 1| <= 1
NODE_TOL = 1e-12        # |node| <= 1 slack, and node-at-1 detection
RADIAL_EXPONENTS = (3, 4, 5, 6)  # radii 1 - 10**-k used for radial limits


def _in_admissible_region(mu: complex, tol: float = OMEGA_TOL) -> bool:
    return abs(mu - 1.0) <= 1.0 + tol and abs(mu) > NODE_TOL


@dataclass(frozen=True)
class ClassParams:
    """Class parameters: mu in the closed disk |mu-1| <= 1 minus 0, beta in [0,1)."""

    mu: complex
    beta: float

    def __post_init__(self):
        mu = complex(self.mu)
        if not (math.isfinite(mu.real) and math.isfinite(mu.imag)):
            raise DomainError("mu must be finite")
        if not _in_admissible_region(mu):
            raise DomainError(f"mu={mu} outside the admissible region")
        if not 0.0 <= self.beta < 1.0:
            raise DomainError(f"beta={self.beta} outside [0, 1)")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def phi(self) -> float:
        """Argument of mu."""
        return cmath.phase(self.mu)

    @property
    def radius(self) -> float:
        """Modulus of mu."""
        return abs(self.mu)


Factor = Tuple[complex, complex]


@dataclass(frozen=True)
class ProductForm:
    """Exponent data (prefactor p, factors (c_j, e_j)) of a disk map.

    Immutable; all evaluations are pure, so instances are safe to share
    across threads and grids may be evaluated in any order.
    """

    prefactor: complex
    factors: Tuple[Factor, ...] = ()

    def __post_init__(self):
        p = complex(self.prefactor)
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise DomainError("non-finite prefactor")
        facs = []
        for c, e in self.factors:
            c, e = complex(c), complex(e)
            if not all(map(math.isfinite, (c.real, c.imag, e.real, e.imag))):
                raise DomainError("non-finite factor")
            if abs(c) > 1.0 + NODE_TOL:
                raise DomainError(f"node {c} outside the closed unit disk")
            facs.append((c, e))
        object.__setattr__(self, "prefactor", p)
        object.__setattr__(self, "factors", tuple(facs))

    @property
    def nodes(self) -> np.ndarray:
        return np.asarray([c for c, _ in self.factors], dtype=np.complex128)

    @property
    def exponents(self) -> np.ndarray:
        return np.asarray([e for _, e in self.factors], dtype=np.complex128)

    def has_interior_nodes(self) -> bool:
        return any(abs(c) < 1.0 - 1e-9 for c, _ in self.factors)

    def to_dict(self, params: "ClassParams | None" = None) -> dict:
        d: dict = {}
        if params is not None:
            d["mu"] = [params.mu.real, params.mu.imag]
            d["beta"] = params.beta
        if params is None or self.prefactor != params.mu:
            d["prefactor"] = [self.prefactor.real, self.prefactor.imag]
        d["factors"] = [
            {"node": [c.real, c.imag], "exponent": [e.real, e.imag]}
            for c, e in self.factors
        ]
        return d


def construct(params: ClassParams, sigma: AtomicCircleMeasure) -> ProductForm:
    """Class member for an atomic measure: nodes conj(zeta_j), exponents mu*(1-beta)*w_j.

    The result is guaranteed to satisfy the defining class inequality;
    the verification module can re-check that on a grid.
    """
    mu, beta = params.mu, params.beta
    facs = tuple((complex(np.conj(p)), mu * (1.0 - beta) * w) for p, w in sigma.atoms)
    return ProductForm(mu, facs)


def core_function(params: ClassParams) -> ProductForm:
    """(1-z)**(mu*beta): the member whose image every class member covers."""
    return construct(params, make_measure([(1.0 + 0.0j, 1.0)]))


def extremal(params: ClassParams, xi: complex) -> ProductForm:
    """Single-atom member (1-z)**mu / (1-z*conj(xi))**((1-beta)*mu), |xi| = 1.

    These are exactly the maps achieving equality in the distortion
    theorems.
    """
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > 1e-9:
        raise DomainError("xi must lie on the unit circle")
    return construct(params, make_measure([(xi, 1.0)]))


def canonical_wedge(exponent: complex, rotation: float) -> ProductForm:
    """The spiral-wedge map ((1-z)/(1+exp(-2i*rotation)*z))**exponent.

    Its image is the open spiral wedge with exponent `exponent` and
    midline rotation `rotation`; every class member with these boundary
    asymptotics is subordinate to it.
    """
    exponent = complex(exponent)
    if not _in_admissible_region(exponent):
        raise DomainError("wedge exponent outside the admissible region")
    if not abs(rotation) < math.pi / 2:
        raise DomainError("|rotation| must be < pi/2")
    node = -cmath.exp(-2j * rotation)
    return ProductForm(exponent, ((node, exponent),))


def _as_points(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=np.complex128)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if np.any(np.abs(arr) >= 1.0):
        raise DomainError("evaluation point outside the open unit disk")
    return arr, scalar


def eval_log(f: ProductForm, z):
    """Canonical branch of log f on the disk; the source of every power of f.

    Powers f**s must always be taken as exp(s * eval_log(f, z)); the
    naive Log(evaluate(f, z)) can jump by 2*pi*i between nearby points.
    """
    zz, scalar = _as_points(z)
    out = f.prefactor * log_principal(1.0 - zz)
    for c, e in f.factors:
        out = out - e * log_principal(1.0 - c * zz)
    return complex(out[0]) if scalar else out


def evaluate(f: ProductForm, z):
    """f(z) = exp(eval_log(f, z))."""
    zz, scalar = _as_points(z)
    out = np.exp(eval_log(f, zz))
    return complex(out[0]) if scalar else out


def log_derivative(f: ProductForm, z):
    """Exact f'(z)/f(z) = -p/(1-z) + sum_j e_j*c_j/(1-c_j*z); no differencing."""
    zz, scalar = _as_points(z)
    out = -f.prefactor / (1.0 - zz)
    for c, e in f.factors:
        out = out + e * c / (1.0 - c * zz)
    return complex(out[0]) if scalar else out


def transform_class(f: ProductForm, frm: ClassParams, to: ClassParams) -> ProductForm:
    """Re-express a member of one class as a member of another.

    Exponent arithmetic on the factor list: each e_j scales by
    k = mu2*(1-beta2)/(mu1*(1-beta1)) and the (1-z) exponent becomes
    mu2*(beta2-beta1)/(1-beta1) + k*p.  With this scaling a map built
    from a measure keeps its measure, so the round trip is exact and
    membership in the target class is preserved.
    """
    k = to.mu * (1.0 - to.beta) / (frm.mu * (1.0 - frm.beta))
    new_pref = to.mu * (to.beta - frm.beta) / (1.0 - frm.beta) + k * f.prefactor
    new_facs = tuple((c, k * e) for c, e in f.factors)
    return ProductForm(new_pref, new_facs)


def boundary_exponent(f: ProductForm) -> complex:
    """Limit of f'(r)*(r-1)/f(r) as r -> 1-: the spiral-wedge exponent.

    Closed form: prefactor minus the exponents of nodes at 1; factors
    with nodes elsewhere in the closed disk vanish in the limit.  For a
    measure-built map this is mu*(1 - (1-beta)*sigma({1})).  Agrees
    with :func:`boundary_exponent_radial` (the independent estimate).
    """
    at_one = sum((e for c, e in f.factors if abs(c - 1.0) <= NODE_TOL), 0.0 + 0.0j)
    return complex(f.prefactor - at_one)


def boundary_rotation(f: ProductForm) -> float:
    """Limit of arg(f(r)**(1/exponent)) as r -> 1-: the wedge midline rotation.

    Closed form: -sum over nodes c != 1 of Im((e/exponent)*Log(1-c)).
    For a measure-built map with real exponent ratio this reduces to
    -(mu/exponent)*(1-beta)*sum w_j*arg(1-conj(zeta_j)).  The sign is
    pinned by the radial-limit estimate, which this equals by
    construction.
    """
    nu = boundary_exponent(f)
    if abs(nu) <= NODE_TOL:
        raise DomainError("boundary exponent is 0; rotation undefined")
    total = 0.0
    for c, e in f.factors:
        if abs(c - 1.0) <= NODE_TOL:
            continue
        total += ((e / nu) * log_principal(1.0 - c)).imag
    return -total


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

    Independent of the closed form in :func:`boundary_exponent`; the
    raw ratio converges like (1-r), and acceleration over radii
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
