"""Product-form maps of the unit disk and their boundary asymptotics.

Every map handled by the toolkit is stored as the exponent data of

    log f(z) = p * Log(1 - z) - sum_j e_j * Log(1 - c_j * z),

with |c_j| <= 1, so f(0) = 1 automatically and the canonical branch of
log f is available everywhere on the disk.  Constructing from an atomic
circle measure gives the members of the class G(mu, beta); interior
nodes (|c_j| < 1) are admitted so that worked examples whose factors
are not circle atoms fit the same representation.

Every evaluation goes through one pass over the factors, _factor_sums,
and gives each point the bits it gets in any batch, a lone point too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kernel import DomainError, _log_into, log_principal
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
]

OMEGA_TOL = 1e-12       # slack on |mu - 1| <= 1
NODE_TOL = 1e-12        # |node| <= 1 slack, and node-at-1 detection
# elements per kernel call: factors x points in _factor_sums.  A block holds at least
# one factor, so a call takes at most max(8192, points) elements, and up to 8,192 points
# a block's complex work array is at most 128 KiB, glibc's default mmap threshold; larger
# bounds fault in more pages per call in a fresh process (ROADMAP item 1)
BLOCK_ELEMENTS = 8192


def _in_admissible_region(mu: complex) -> bool:
    return abs(mu - 1.0) <= 1.0 + OMEGA_TOL and abs(mu) > NODE_TOL


def _wedge_exponent(exponent: complex, rotation: float) -> complex:
    """exponent as a complex; DomainError unless it is admissible and |rotation| < pi/2."""
    exponent = complex(exponent)
    if not _in_admissible_region(exponent):
        raise DomainError("wedge exponent outside the admissible region")
    if not abs(rotation) < math.pi / 2:
        raise DomainError("|rotation| must be < pi/2")
    return exponent


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

    Immutable, and every evaluation is a pure function of it, so grids
    may be evaluated in any order with the same results.  The factors
    may be given as a sequence of pairs or as an (n, 2) array; they are
    kept as a tuple of complex pairs and, built once for the evaluations,
    as the read-only arrays nodes and exponents and a private array of
    the numerators -(e_j*c_j).
    """

    prefactor: complex
    factors: Tuple[Factor, ...] = ()

    def __post_init__(self):
        p = complex(self.prefactor)
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise DomainError("non-finite prefactor")
        pairs = np.array(self.factors, dtype=np.complex128).reshape(-1, 2)
        if len(pairs) != len(self.factors):
            raise ValueError("factors must be (node, exponent) pairs")
        nodes, exponents = np.ascontiguousarray(pairs.T)
        finite = np.isfinite(pairs).all(axis=1)
        bad = ~finite | (np.abs(nodes) > 1.0 + NODE_TOL)
        if bad.any():  # the first bad factor, with the message the per-factor checks give it
            i = int(np.argmax(bad))
            if not finite[i]:
                raise DomainError("non-finite factor")
            raise DomainError(f"node {complex(nodes[i])} outside the closed unit disk")
        facs = tuple(zip(nodes.tolist(), exponents.tolist()))
        # Python complex products, as a per-factor sum forms them
        numerators = np.array([-(e * c) for c, e in facs], dtype=np.complex128)
        for arr in (nodes, exponents, numerators):
            arr.flags.writeable = False
        object.__setattr__(self, "prefactor", p)
        object.__setattr__(self, "factors", facs)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "_numerators", numerators)


def construct(params: ClassParams, sigma: AtomicCircleMeasure) -> ProductForm:
    """Class member for an atomic measure: nodes conj(zeta_j), exponents mu*(1-beta)*w_j.

    The result is guaranteed to satisfy the defining class inequality;
    the verification module can re-check that on a grid.
    """
    k, w = params.mu * (1.0 - params.beta), sigma.weights
    pairs = np.empty((len(sigma), 2), dtype=np.complex128)
    pairs[:, 0] = np.conj(sigma.points)
    # the parts of the Python product k*w, which takes w as w + 0j, with their signed zeros; numpy's k*w
    # differs under FMA, where a real part that underflows keeps the sign of its exact product
    pairs[:, 1].real = k.real * w - k.imag * 0.0
    pairs[:, 1].imag = k.imag * w + k.real * 0.0
    return ProductForm(params.mu, pairs)


_DIRAC_AT_ONE = make_measure([(1.0 + 0.0j, 1.0)])


def core_function(params: ClassParams) -> ProductForm:
    """(1-z)**(mu*beta): the member whose image every class member covers."""
    return construct(params, _DIRAC_AT_ONE)


def extremal(params: ClassParams, xi: complex) -> ProductForm:
    """Single-atom member (1-z)**mu / (1-z*conj(xi))**((1-beta)*mu), |xi| = 1.

    These are exactly the maps achieving equality in the distortion
    theorems.
    """
    xi = complex(xi)
    if not abs(abs(xi) - 1.0) <= 1e-9:
        raise DomainError("xi must lie on the unit circle")
    return construct(params, make_measure([(xi, 1.0)]))


def canonical_wedge(exponent: complex, rotation: float) -> ProductForm:
    """The spiral-wedge map ((1-z)/(1+exp(-2i*rotation)*z))**exponent.

    Its image is the open spiral wedge with exponent `exponent` and
    midline rotation `rotation`; every class member with these boundary
    asymptotics is subordinate to it.
    """
    exponent = _wedge_exponent(exponent, rotation)
    node = -cmath.exp(-2j * rotation)
    return ProductForm(exponent, ((node, exponent),))


def _as_points(z) -> np.ndarray:
    """z as a complex array, a scalar as one point; DomainError unless every point is finite and |z| < 1."""
    arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if not np.all(np.abs(arr) < 1.0):
        if not np.all(np.isfinite(arr)):
            raise DomainError("non-finite evaluation point")
        raise DomainError("evaluation point outside the open unit disk")
    return arr


def _like(z, out):
    """out for an array z; for a scalar z, the one value of out as a Python scalar."""
    return out if np.ndim(z) else out.item()


def _fold(total: np.ndarray, terms: np.ndarray) -> None:
    """total - terms[0] - terms[1] - ... into total, row by row.

    The running total goes into the first row, and np.subtract.reduce
    along axis 0 goes row by row down the block (np.add.reduce would sum
    a one-point block pairwise), so the bytes equal those of one term at
    a time.
    """
    np.subtract(total, terms[0], out=terms[0])
    np.subtract.reduce(terms, axis=0, out=total)


def _factor_sums(f: ProductForm, zz: np.ndarray, dlog: bool = False, log_1mz: np.ndarray | None = None):
    """(Log(1 - zz), log f, f'/f or None) at the points zz, from one pass over the factors.

    zz is an array of points inside the disk, of any shape.  A pass takes
    log f and Log(1 - zz), the prefactor's log, unless the caller gives
    log_1mz, which a GridEvaluation keeps with its points and which is
    then returned as given; dlog adds f'/f.  Each block of
    max(1, BLOCK_ELEMENTS // zz.size) factors forms its bases 1 - c_j*zz
    once, takes e_j*Log(base) through _log_into and, with dlog,
    -(e_j*c_j)/base into the Log array, which is no longer read.  The work
    arrays are allocated once per call, in the shape of a block (the last,
    shorter block writes into their leading rows).  Each total is
    p*Log(1 - zz) or -p/(1 - zz) minus the terms, left to right, as one
    factor at a time forms it.

    A point gets the same bits whatever it is evaluated with.  numpy
    rounds a product whose operand is broadcast over a single element, as
    in a one-point block's (1, 1) x (1,) product, without the fused
    multiply-add of its vector loops, so a lone point goes through the
    pass as the pair [z, z], whose first values are returned (without it,
    some 3 % of lone points differ from the batch where numpy uses FMA).
    """
    if zz.size == 1:
        pair, log_pair = (None if a is None else np.repeat(a.ravel(), 2) for a in (zz, log_1mz))
        return tuple(None if a is None else a[:1].reshape(zz.shape) for a in _factor_sums(f, pair, dlog, log_pair))
    p, dlog_f = f.prefactor, None
    rows = max(1, BLOCK_ELEMENTS // max(1, zz.size))  # an empty point array counts as one element
    shape = (min(rows, len(f.nodes)),) + zz.shape
    nodes = f.nodes.reshape((-1,) + (1,) * zz.ndim)
    bases = np.empty(shape, dtype=np.complex128)
    one_m_z = 1.0 - zz
    if log_1mz is None:
        log_1mz = np.empty(zz.shape, dtype=np.complex128)
        _log_into(one_m_z, log_1mz, np.empty(zz.shape))
    log_f = p * log_1mz
    exponents = f.exponents.reshape(nodes.shape)
    logs, log_mod = np.empty(shape, dtype=np.complex128), np.empty(shape)
    if dlog:
        dlog_f = -p / one_m_z
        numerators = f._numerators.reshape(nodes.shape)
    for i in range(0, len(nodes), rows):
        c = nodes[i : i + rows]
        w = bases[: len(c)]
        np.multiply(c, zz, out=w)
        np.subtract(1.0, w, out=w)
        block = logs[: len(c)]
        _log_into(w, block, log_mod[: len(c)])
        # e * logs, exponent first: under FMA the other operand order rounds differently
        _fold(log_f, np.multiply(exponents[i : i + rows], block, out=block))
        if dlog:
            # subtracting -(e_j*c_j)/(1-c_j*z) rounds as adding e_j*c_j/(1-c_j*z) does
            _fold(dlog_f, np.divide(numerators[i : i + rows], w, out=block))
    return log_1mz, log_f, dlog_f


def eval_log(f: ProductForm, z):
    """Canonical branch of log f on the disk; the source of every power of f.

    Powers f**s must always be taken as exp(s * eval_log(f, z)); the
    naive Log(evaluate(f, z)) can jump by 2*pi*i between nearby points.
    """
    return _like(z, _factor_sums(f, _as_points(z))[1])


def evaluate(f: ProductForm, z):
    """f(z) = exp(eval_log(f, z))."""
    return _like(z, np.exp(eval_log(f, z)))


def log_derivative(f: ProductForm, z):
    """Exact f'(z)/f(z) = -p/(1-z) + sum_j e_j*c_j/(1-c_j*z); no differencing."""
    return _like(z, _factor_sums(f, _as_points(z), dlog=True)[2])


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


def _at_one(f: ProductForm) -> np.ndarray:
    """Mask of the factors at z = 1, |c_j - 1| <= NODE_TOL: one rule for the boundary asymptotics and cover."""
    return np.abs(f.nodes - 1.0) <= NODE_TOL


def boundary_exponent(f: ProductForm) -> complex:
    """Limit of f'(r)*(r-1)/f(r) as r -> 1-: the spiral-wedge exponent.

    Closed form: prefactor minus the exponents of the nodes at 1 (_at_one), in factor
    order; factors with nodes elsewhere in the closed disk vanish in the limit.  For
    a measure-built map this is mu*(1 - (1-beta)*sigma({1})).
    """
    return complex(f.prefactor - sum(f.exponents[_at_one(f)].tolist(), 0.0 + 0.0j))


def boundary_rotation(f: ProductForm) -> float:
    """Limit of arg(f(r)**(1/exponent)) as r -> 1-: the wedge midline rotation.

    Closed form: -sum over nodes c not at 1 (_at_one) of Im((e/exponent)*Log(1-c)).
    For a measure-built map with real exponent ratio this reduces to
    -(mu/exponent)*(1-beta)*sum w_j*arg(1-conj(zeta_j)).
    """
    nu = boundary_exponent(f)
    if abs(nu) <= NODE_TOL:
        raise DomainError("boundary exponent is 0; rotation undefined")
    kept = ~_at_one(f)
    # every log in one call; the sum stays in Python, in factor order
    logs = log_principal(1.0 - f.nodes[kept]).tolist()
    total = 0.0
    for e, log in zip(f.exponents[kept].tolist(), logs):
        total += ((e / nu) * log).imag
    return -total
