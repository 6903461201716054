"""Closed-form bound states of a pseudo-Coulomb plus ring-shaped potential.

The potential, in D-dimensional spherical coordinates (r, theta, ...):

    V(r, theta) = -a/r + b/r^2 + beta * cos(theta)^2 / (r^2 sin(theta)^2) + c

Separation psi = R(r) H(theta) Phi(phi) pushes the ring strength beta into
effective, generally non-integer indices

    m'^2 = m^2 + 2 mu beta / hbar^2
    l'   = -(D-2)/2 + (1/2) sqrt((D-2)^2 + 4 (n+m')(n+m'+1))

and the angular eigenvalue coupling the two equations is

    Lambda = l'(l' + D - 2) - 2 mu beta / hbar^2 = (n+m')(n+m'+1) - 2 mu beta / hbar^2.

The radial equation then quantizes like a Coulomb problem with a modified
centrifugal term, giving

    E = c - (2 mu a^2 / hbar^2) / (2N + 1 + sqrt(4 gamma + 1))^2,
    gamma = nu_t + 2 mu b / hbar^2,   4 nu_t + 1 = (D-2)^2 + 4 Lambda,

equivalently the Coulombic form E = c - mu a^2 / (2 hbar^2 N'^2) with the
principal-like number N' = N + L + 1.  Everything here is a pure function of
immutable inputs; the spectral eigensolver checks live in ``oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SpectrumError(Exception):
    """Base class for spectrum construction failures."""


class FallToCenter(SpectrumError):
    """4*gamma + 1 < 0: the inverse-square attraction swallows the barrier."""


class NoBoundState(SpectrumError):
    """a = 0 removes the Coulomb well; nothing binds below c."""


class OutOfRange(SpectrumError):
    """Valid parameters whose arithmetic leaves the range of a float."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Reduced mass and action unit in any consistent unit system."""

    mu: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (0 < self.mu < math.inf and 0 < self.hbar < math.inf):
            raise ValueError("mu and hbar must be positive and finite")
        if not 0 < self.hbar * self.hbar < math.inf:
            # every formula divides by hbar^2
            raise ValueError("hbar^2 = %r is outside the float range" % (self.hbar * self.hbar))


@dataclass(frozen=True)
class PotentialParams:
    a: float
    b: float = 0.0
    c: float = 0.0
    beta: float = 0.0
    D: int = 3

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.beta))):
            raise ValueError("a, b, c and beta must be finite")
        if self.a < 0 or self.b < 0 or self.beta < 0:
            raise ValueError("a, b and beta must be nonnegative")
        if not isinstance(self.D, int) or self.D < 2:
            raise ValueError("dimension D must be an integer >= 2")

    @property
    def domain_extension(self) -> bool:
        """True when c < 0, outside the all-positive parameter regime."""
        return self.c < 0


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial index N, polar (Jacobi) index n, magnetic index m; all >= 0."""

    N: int
    n: int
    m: int

    def __post_init__(self):
        N, n, m = self.N, self.n, self.m
        if not (isinstance(N, int) and isinstance(n, int) and isinstance(m, int)
                and N >= 0 and n >= 0 and m >= 0):
            name = next(k for k, v in zip("Nnm", (N, n, m)) if not isinstance(v, int) or v < 0)
            raise ValueError("%s must be a nonnegative integer" % name)


@dataclass(frozen=True)
class EffectiveIndices:
    """Derived real indices of a state; none of them depends on N."""

    m_prime: float
    ell_prime: float
    Lambda: float      # separation constant l(l + D - 2)
    nu_tilde: float    # from the identity 4*nu_t + 1 = (D-2)^2 + 4*Lambda
    gamma: float
    alpha: float
    L: float           # radial power index

    @property
    def domain_extension(self) -> bool:
        return self.Lambda < 0


@dataclass(frozen=True)
class SpectrumEntry:
    """One bound state: energy, decay rate and all derived indices."""

    E: float
    epsilon: float
    quantum: QuantumNumbers
    eff: EffectiveIndices
    N_prime: float     # N + L + 1
    domain_extension: bool = False


def m_prime(m: int, beta: float, consts: PhysicalConstants) -> float:
    """Effective magnetic index absorbing the ring strength."""
    return math.sqrt(m * m + 2.0 * consts.mu * beta / consts.hbar**2)


def ell_prime(n: int, mp: float, D: int) -> float:
    """Effective orbital index; satisfies l'(l'+D-2) = (n+m')(n+m'+1)."""
    half = 0.5 * (D - 2)
    return -half + 0.5 * math.sqrt((D - 2) ** 2 + 4.0 * (n + mp) * (n + mp + 1.0))


def separation_constant(lp: float, D: int, beta: float, consts: PhysicalConstants) -> float:
    """Angular eigenvalue Lambda = l'(l'+D-2) - 2*mu*beta/hbar^2."""
    return lp * (lp + D - 2.0) - 2.0 * consts.mu * beta / consts.hbar**2


def radial_params(params: PotentialParams, consts: PhysicalConstants, Lambda: float):
    """Coulomb strength alpha and centrifugal strength gamma for a given Lambda.

    Returns ``(alpha, gamma, nu_tilde)``.  nu_tilde comes from the identity
    4*nu_t + 1 = (D-2)^2 + 4*Lambda, so it stays real even when the auxiliary
    index l solving l(l+D-2) = Lambda is complex.
    """
    mu, hbar = consts.mu, consts.hbar
    D = params.D
    nu_t = ((D - 2) ** 2 + 4.0 * Lambda - 1.0) / 4.0
    gamma = nu_t + 2.0 * mu * params.b / hbar**2
    alpha = 2.0 * mu * params.a / hbar**2
    if 4.0 * gamma + 1.0 < 0.0:
        raise FallToCenter("4*gamma + 1 = %r < 0" % (4.0 * gamma + 1.0))
    return alpha, gamma, nu_t


def effective_indices(params: PotentialParams, consts: PhysicalConstants,
                      q: QuantumNumbers) -> EffectiveIndices:
    """The indices of q's (n, m): every index of a state but N."""
    mu, hbar, D, beta = consts.mu, consts.hbar, params.D, params.beta
    mp = m_prime(q.m, beta, consts)
    lp = ell_prime(q.n, mp, D)
    Lambda = separation_constant(lp, D, beta, consts)
    # exactly, Lambda = (n+m')(n+m'+1) - 2 mu beta/hbar^2 >= m' >= 0; within 8
    # ulps of l'(l'+D-2) the subtraction keeps no correct digit.  The bound is
    # strict so the exact Lambda = 0 of beta = n = m = 0 passes, and a nan
    # Lambda compares false and reaches the checks below
    if abs(Lambda) < 8.0 * 2.0**-52 * lp * (lp + D - 2.0):
        raise OutOfRange("Lambda = %r: 2*mu*beta/hbar^2 cancels every digit of "
                         "l'(l'+D-2) = %r" % (Lambda, lp * (lp + D - 2.0)))
    alpha, gamma, nu_t = radial_params(params, consts, Lambda)
    # radial power index; its radicand equals 4*gamma + 1 but is grouped
    # through l' and (b - beta), which is the independent arithmetic path
    # used by the Coulombic energy form
    rad = (D - 2) ** 2 + 4.0 * lp * (lp + D - 2.0) + 8.0 * mu * (params.b - beta) / hbar**2
    if rad < 0.0:
        raise FallToCenter("radial power radicand %r < 0" % rad)
    if (params.a and not 0.0 < alpha < math.inf) or not math.isfinite(rad):
        raise OutOfRange("alpha = %r, 4*gamma + 1 = %r: outside the float range"
                         % (alpha, rad))
    L = 0.5 * (math.sqrt(rad) - 1.0)
    return EffectiveIndices(m_prime=mp, ell_prime=lp, Lambda=Lambda, nu_tilde=nu_t,
                            gamma=gamma, alpha=alpha, L=L)


def principal_number(N: int, eff: EffectiveIndices) -> float:
    """N' = N + L + 1, the one index that reads N."""
    return N + eff.L + 1.0


def energy(params: PotentialParams, consts: PhysicalConstants,
           q: QuantumNumbers, eff: EffectiveIndices | None = None) -> SpectrumEntry:
    """Bound-state energy E = c - (2 mu a^2/hbar^2) / (2N+1+sqrt(4 gamma+1))^2.

    The decay rate epsilon = alpha / (2N+1+sqrt(4 gamma+1)) is computed first
    and E = c - hbar^2 eps^2 / (2 mu) follows exactly from it.  ``eff``, when
    given, is ``effective_indices(params, consts, q)``, which a caller walking
    N at fixed (n, m) computes once.
    """
    if params.a == 0:
        raise NoBoundState("a = 0: the potential has no Coulomb well")
    if eff is None:
        eff = effective_indices(params, consts, q)
    den = 2 * q.N + 1 + math.sqrt(4.0 * eff.gamma + 1.0)
    eps = eff.alpha / den
    E = params.c - consts.hbar**2 * eps * eps / (2.0 * consts.mu)
    if not math.isfinite(E):
        raise OutOfRange("E = %r: outside the float range" % E)
    return SpectrumEntry(E, eps, q, eff, principal_number(q.N, eff),
                         params.domain_extension or eff.domain_extension)


def energy_coulombic_form(params: PotentialParams, consts: PhysicalConstants,
                          q: QuantumNumbers) -> float:
    """Same spectrum in the 1/N'^2 form, E = c - mu a^2 / (2 hbar^2 N'^2).

    Uses the principal-like number N' = N + L + 1; the arithmetic path is
    independent of :func:`energy` up to the shared effective indices, which
    is what the form-equivalence check exercises.
    """
    if params.a == 0:
        raise NoBoundState("a = 0: the potential has no Coulomb well")
    Np = principal_number(q.N, effective_indices(params, consts, q))
    return params.c - consts.mu * params.a**2 / (2.0 * consts.hbar**2 * Np**2)


# ---------------------------------------------------------------------------
# published limiting cases; each has a general-path evaluation (the same
# energy() code on substituted parameters) and a literal transcription of
# the reduced formula, kept deliberately separate for dual-path checks
# ---------------------------------------------------------------------------

def kratzer_ring_params(De: float, re: float, beta: float, D: int = 3) -> PotentialParams:
    """Substitution a = 2*De*re, b = De*re^2, c = De (Kratzer-type well)."""
    return PotentialParams(a=2.0 * De * re, b=De * re * re, c=De, beta=beta, D=D)


def reduce_cheng_dai(De, re, beta, consts, q) -> SpectrumEntry:
    """Modified Kratzer plus ring term in three dimensions, general path."""
    return energy(kratzer_ring_params(De, re, beta, D=3), consts, q)


def cheng_dai_literal(De, re, beta, consts, q) -> float:
    """Literal reduced formula for the 3-D Kratzer-plus-ring case."""
    mu, hbar = consts.mu, consts.hbar
    mp = math.sqrt(q.m**2 + 2.0 * mu * beta / hbar**2)
    den = 2 * q.N + 1 + math.sqrt(
        (2 * q.n + 1) ** 2 + 4 * q.m**2 + 4 * (2 * q.n + 1) * mp
        + 8.0 * mu * De * re**2 / hbar**2)
    return De - (8.0 * mu * De**2 * re**2 / hbar**2) / den**2


def reduce_kratzer(De, re, consts, N: int, ell: int) -> SpectrumEntry:
    """Modified Kratzer well (no ring term), general path.

    Integer angular momentum ell maps onto (n=ell, m=0) at beta = 0.
    """
    return energy(kratzer_ring_params(De, re, 0.0, D=3), consts,
                  QuantumNumbers(N=N, n=ell, m=0))


def kratzer_literal(De, re, consts, N: int, ell: int) -> float:
    mu, hbar = consts.mu, consts.hbar
    den = 1 + 2 * N + math.sqrt(
        1 + 4 * ell * (ell + 1) + 8.0 * mu * De * re**2 / hbar**2)
    return De - (8.0 * mu * De**2 * re**2 / hbar**2) / den**2


def reduce_ddim(De, re, beta, consts, q, D: int) -> SpectrumEntry:
    """Kratzer-plus-ring substitution kept in arbitrary dimension, general path."""
    return energy(kratzer_ring_params(De, re, beta, D=D), consts, q)


def ddim_literal(De, re, beta, consts, q, D: int) -> float:
    mu, hbar = consts.mu, consts.hbar
    lp = ell_prime(q.n, m_prime(q.m, beta, consts), D)
    den = 2 * q.N + 1 + math.sqrt(
        (D - 2) ** 2 + 4.0 * lp * (lp + D - 2.0)
        + 8.0 * mu * (De * re**2 - beta) / hbar**2)
    return De - (8.0 * mu * De**2 * re**2 / hbar**2) / den**2


def reduce_coulomb_ring(Z, e_charge, beta, consts, q) -> SpectrumEntry:
    """Coulomb attraction Z*e^2/r plus ring term, general path (b = c = 0, D = 3)."""
    if Z <= 0:
        raise ValueError("Z must be positive")
    return energy(PotentialParams(a=Z * e_charge**2, b=0.0, c=0.0, beta=beta, D=3),
                  consts, q)


def coulomb_ring_literal(Z, e_charge, beta, consts, q) -> float:
    mu, hbar = consts.mu, consts.hbar
    mp = math.sqrt(q.m**2 + 2.0 * mu * beta / hbar**2)
    bracket = (q.n + mp) * (q.n + mp + 1.0) - 2.0 * mu * beta / hbar**2
    den = 2 * q.N + 1 + math.sqrt(1.0 + 4.0 * bracket)
    return -(2.0 * mu * Z**2 * e_charge**4 / hbar**2) / den**2
