"""Test-only references: closed forms and quadratures that no program path
needs, each checked against the program's own path (``ell_prime``, ``energy``,
the closed-form normalization constants)."""

import math

import numpy as np

from ringcoulomb import quadrature
from ringcoulomb.spectrum import (
    PhysicalConstants,
    PotentialParams,
    QuantumNumbers,
    effective_indices,
    principal_number,
)
from ringcoulomb.wavefunctions import AngularState, RadialState, angular_H, radial_R


def jacobi_index(lp: float, mp: float, D: int) -> float:
    """Inverse of :func:`ell_prime`: recovers the polar polynomial degree n."""
    return -0.5 * (1.0 + 2.0 * mp) + 0.5 * math.sqrt(
        (2.0 * lp + 1.0) ** 2 + 4.0 * lp * (D - 3))


def epsilon_coulombic_form(params: PotentialParams, consts: PhysicalConstants,
                           q: QuantumNumbers) -> float:
    """Decay rate in the principal-number form eps = mu a / (hbar^2 N')."""
    Np = principal_number(q.N, effective_indices(params, consts, q))
    return consts.mu * params.a / (consts.hbar**2 * Np)


def radial_norm_integral(state: RadialState, *, tol=1e-10) -> quadrature.QuadResult:
    """Quadrature of R^2 r^(D-1) over (0, r_max) with the decay-rule cutoff."""
    r_max = quadrature.decay_cutoff(state.envelope_power, 2.0 * state.epsilon)

    def integrand(r):
        R = radial_R(state, r)
        return R * R * np.power(r, state.D - 1)

    return quadrature.integrate(integrand, 0.0, r_max, tol=tol)


def angular_norm_integral(state: AngularState, *, tol=1e-10) -> quadrature.QuadResult:
    def integrand(theta):
        H = angular_H(state, theta)
        return H * H * np.sin(theta)

    return quadrature.integrate(integrand, 0.0, math.pi, tol=tol)
