"""Normalized radial, angular, azimuthal and total wavefunctions.

The radial factor is

    R(r) = C * r**(L - (D-3)/2) * exp(-eps*r) * L_N^(2L+1)(2*eps*r)

normalized against the r**(D-1) measure, with

    C = sqrt((2*eps)**(2L+3) * N! / (2 (N+L+1) (N+2L+1)!))

where factorials of non-integer argument are read as Gamma(x+1).  The angular
factor is

    H(theta) = h_n**(-1/2) * sin(theta)**m' * P_n^(m',m')(cos(theta))

with h_n the closed-form sin(theta)-weighted norm of its shape (DLMF 18.3).
The textbook prefactor sqrt((2l'+1)(l'-m')! / (2 (l'+m')!)) only normalizes
the m' in {0, 1} family; the state keeps it as a diagnostic, with the norm it
would give and whether that misses 1 by more than NORM_CHECK_TOL.  Quadrature
serves only as a reference.

The states carry log C and -log(h_n)/2, never C or h_n: both leave the float
range at valid quantum numbers.  Both factors are evaluated in the log domain
(:func:`log_radial_R`, :func:`log_angular_H`) and exponentiated once per
sample, so that a constant or a polynomial beyond a float costs no
representable value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature, spectrum
from .special import jacobi, laguerre, log_power, log_sin_power

#: relative misnormalization of the textbook angular prefactor above which a
#: state is reported as ``adjusted``
NORM_CHECK_TOL = 1e-6


def log_normalization_C(N: int, L: float, epsilon: float) -> float:
    """log C of the radial normalization constant, via log-Gamma."""
    if N < 0:
        raise ValueError("N must be a nonnegative integer")
    if L <= -1.0:
        raise ValueError("L must exceed -1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 0.5 * ((2.0 * L + 3.0) * math.log(2.0 * epsilon)
                  + math.lgamma(N + 1.0)
                  - math.log(2.0)
                  - math.log(N + L + 1.0)
                  - math.lgamma(N + 2.0 * L + 2.0))


@dataclass(frozen=True)
class RadialState:
    N: int
    L: float
    epsilon: float
    D: int
    log_C: float

    def support(self, share: float) -> float:
        """Radius beyond which R^2 r^(D-1) holds less than share of the norm.

        Past 2 eps r = x0, above every zero of L_N^(2L+1) (Szegő, §6.31), the
        log of R^2 r^(D-1) is concave: its tail past a mesh point is at most
        its value there over minus the slope of the log before it.  The older
        rule, the envelope r^(2N+2L+2) exp(-2 eps r) at share/100 of its peak,
        keeps small-N grids as they were; alone it cuts half the norm at N = 100.
        """
        rate, alpha = 2.0 * self.epsilon, 2.0 * self.L + 1.0
        b = 2.0 * self.N + alpha + 1.0
        x0 = b + math.sqrt(max(b * b + 0.25 - alpha * alpha, 0.0))
        r = (x0 + (1.0 + math.sqrt(x0)) * 2.0 ** np.arange(0.0, 16.0, 1.0 / 32.0)) / rate
        with np.errstate(all="ignore"):
            log_f = 2.0 * log_radial_R(self, r)[1] + (self.D - 1) * np.log(r)
            fits = log_f[1:] - np.log(np.diff(log_f) / -np.diff(r)) <= math.log(share)
        fits[-1] = True     # the farthest point stands in if none fits
        return max(quadrature.decay_cutoff(2.0 * self.L + 2.0 + 2.0 * self.N, rate,
                                           drop=share / 100.0),
                   float(r[1:][np.argmax(fits)]))


def radial_state_of(entry: spectrum.SpectrumEntry, D: int) -> RadialState:
    """The normalized radial factor of an already computed spectrum entry."""
    N, L = entry.quantum.N, entry.eff.L
    if not entry.epsilon > 0.0:
        raise spectrum.OutOfRange("epsilon = %r: the decay rate underflows" % entry.epsilon)
    return RadialState(N=N, L=L, epsilon=entry.epsilon, D=D,
                       log_C=log_normalization_C(N, L, entry.epsilon))


def radial_state(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                 q: spectrum.QuantumNumbers) -> RadialState:
    return radial_state_of(spectrum.energy(params, consts, q), params.D)


def log_radial_R(state: RadialState, r):
    """(sign, log|R(r)|) = log C + expo log r - eps r + log|L_N^(2L+1)(2 eps r)|,
    expo = L - (D-3)/2, with r**0 = 1 at r = 0; r may be a scalar or ndarray."""
    sign, log_poly = laguerre(state.N, 2.0 * state.L + 1.0, 2.0 * state.epsilon * r)
    return sign, (state.log_C + log_power(r, state.L - 0.5 * (state.D - 3))
                  - state.epsilon * r + log_poly)


def radial_R(state: RadialState, r):
    """Radial wavefunction; r may be a scalar or ndarray.

    The power-law prefactor r**(L - (D-3)/2) makes R(0) = 0 for positive
    exponent, C * L_N(0) at zero exponent, and divergent (still normalizable)
    for exponent in (-1/2, 0).
    """
    r = np.asarray(r, dtype=float) if np.ndim(r) else float(r)
    sign, log_abs = log_radial_R(state, r)
    return sign * np.exp(log_abs)


@dataclass(frozen=True)
class AngularState:
    n: int
    m_prime: float
    ell_prime: float
    log_norm: float         # -log(h_n) / 2
    printed_norm: float     # the analytic prefactor, nan when undefined
    printed_integral: float  # what the sin-weighted norm would be with it
    adjusted: bool


#: m' above which log h_n takes the large-m' form: the direct sum's rounding
#: error there passes 1e-13, the expansion's first omitted term is below 2e-15
JACOBI_NORM_LARGE_MP = 50.0


def log_jacobi_norm(n: int, mp: float) -> float:
    """log h_n, where h_n = integral of [sin^m' P_n^(m',m')(cos)]^2 sin over (0, pi).

    h_n = 2^(2m'+1) Gamma(n+m'+1)^2 / ((2n+2m'+1) n! Gamma(n+2m'+1)), whose
    log-Gamma terms cancel at large m'.  There the Pochhammer factors (m'+1)_n
    and (2m'+1)_n are summed as logs, and the duplication formula leaves
    log Gamma(m') - log Gamma(m'+1/2), expanded in 1/m' (DLMF 5.11.13).
    """
    if mp <= JACOBI_NORM_LARGE_MP:
        return ((2.0 * mp + 1.0) * math.log(2.0) + 2.0 * math.lgamma(n + mp + 1.0)
                - math.log(2.0 * n + 2.0 * mp + 1.0) - math.lgamma(n + 1.0)
                - math.lgamma(n + 2.0 * mp + 1.0))
    t = 1.0 / mp
    lead = (math.log(2.0) + 0.5 * math.log(math.pi * mp)
            + t * (0.125 - t * t * (1.0 / 192.0 - t * t / 640.0)))
    rising = math.fsum(2.0 * math.log(mp + i) - math.log(2.0 * mp + i)
                       for i in range(1, n + 1))
    return lead + rising - math.log(2.0 * n + 2.0 * mp + 1.0) - math.lgamma(n + 1.0)


def angular_state(n: int, mp: float, D: int = 3) -> AngularState:
    """Build the polar factor for Jacobi index n and effective index m'.

    The norm is always h_n^(-1/2).  ``adjusted`` reports that the textbook
    prefactor would miss the unit norm by more than NORM_CHECK_TOL.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if mp < 0:
        raise ValueError("m_prime must be nonnegative")
    lp = spectrum.ell_prime(n, mp, D)
    log_norm = -0.5 * log_jacobi_norm(n, mp)
    if lp - mp > -1.0:
        log_printed = 0.5 * (math.log(2.0 * lp + 1.0) + math.lgamma(lp - mp + 1.0)
                             - math.log(2.0) - math.lgamma(lp + mp + 1.0))
        printed = math.exp(log_printed)
        printed_integral = math.exp(2.0 * (log_printed - log_norm))
    else:
        # Gamma(l'-m'+1) is at a pole or negative; the printed constant is
        # meaningless here and only the closed-form norm can normalize
        printed = math.nan
        printed_integral = math.nan
    adjusted = not abs(printed_integral - 1.0) <= NORM_CHECK_TOL
    return AngularState(n=n, m_prime=mp, ell_prime=lp, log_norm=log_norm,
                        printed_norm=printed, printed_integral=printed_integral,
                        adjusted=adjusted)


def log_angular_H(state: AngularState, theta):
    """(sign, log|H(theta)|) = -log(h_n)/2 + m' log sin(theta) + log|P_n^(m',m')(cos theta)|,
    with sin**0 = 1 at the poles; theta may be a scalar or ndarray."""
    sign, log_poly = jacobi(state.n, state.m_prime, state.m_prime, np.cos(theta))
    return sign, state.log_norm + log_sin_power(theta, state.m_prime) + log_poly


def angular_H(state: AngularState, theta):
    """Polar wavefunction H(theta); theta may be a scalar or ndarray."""
    theta = np.asarray(theta, dtype=float) if np.ndim(theta) else float(theta)
    sign, log_abs = log_angular_H(state, theta)
    return sign * np.exp(log_abs)


@dataclass(frozen=True)
class EvalPoint:
    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError("phi must lie in [0, 2*pi)")


@dataclass(frozen=True)
class BoundState:
    """One fully assembled bound state, evaluable on grids."""

    params: spectrum.PotentialParams
    consts: spectrum.PhysicalConstants
    quantum: spectrum.QuantumNumbers
    entry: spectrum.SpectrumEntry
    radial: RadialState
    angular: AngularState

    def psi(self, r, theta, phi, sign: int = +1):
        """Total wavefunction R * H * Phi, with the azimuthal factor
        Phi = exp(sign i m phi) / sqrt(2 pi) and sign +1 or -1."""
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if np.ndim(phi):
            azim = np.exp(1j * sign * self.quantum.m * np.asarray(phi, dtype=float))
        else:
            azim = cmath.exp(1j * sign * self.quantum.m * phi)
        return (radial_R(self.radial, r) * angular_H(self.angular, theta)
                * (azim / math.sqrt(2.0 * math.pi)))

    def density(self, r, theta):
        """Probability density against dr dtheta dphi: |psi|^2 r^(D-1) sin(theta).

        Independent of phi and of the azimuthal sign.  The logs of the factors
        add before one exp, so that no factor's underflow costs a normal
        density its digits.
        """
        log_amp = log_radial_R(self.radial, r)[1] + log_angular_H(self.angular, theta)[1]
        with np.errstate(divide="ignore"):
            log_measure = log_power(r, self.params.D - 1) + np.log(np.sin(theta))
        return np.exp(2.0 * log_amp + log_measure - math.log(2.0 * math.pi))


def bound_state(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                q: spectrum.QuantumNumbers) -> BoundState:
    entry = spectrum.energy(params, consts, q)
    return BoundState(params=params, consts=consts, quantum=q, entry=entry,
                      radial=radial_state_of(entry, params.D),
                      angular=angular_state(q.n, entry.eff.m_prime, params.D))


def total_psi(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
              q: spectrum.QuantumNumbers, point: EvalPoint, sign: int = +1) -> complex:
    """Total wavefunction at one point; see :meth:`BoundState.psi`."""
    return bound_state(params, consts, q).psi(point.r, point.theta, point.phi, sign)
