"""Test-only references: closed forms and quadratures that no program path
needs, each checked against the program's own path (``ell_prime``, ``energy``,
the closed-form normalization constants), the polynomial values that the
program's log-domain kernels stand for, and the finite-difference ODE
residuals of the closed-form wavefunctions.

The quadrature is adaptive and composite Gauss-Legendre.  Every panel carries
an embedded 21- vs 10-node error estimate, and the panel with the worst
estimate is bisected until the summed estimate meets the tolerance.  No
endpoint is ever sampled, so integrable endpoint singularities (r**p with
p > -1, exponential tails cut at a finite radius) are handled by refinement
alone; genuinely divergent integrands keep their error mass no matter how
finely they are split and exhaust the panel budget instead of converging
silently.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ringcoulomb import quadrature, special, wavefunctions
from ringcoulomb.spectrum import (
    PhysicalConstants,
    PotentialParams,
    QuantumNumbers,
    effective_indices,
    principal_number,
)
from ringcoulomb.wavefunctions import AngularState, RadialState, angular_H, radial_R


_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)


class NoConvergence(Exception):
    """Panel budget exhausted; carries the best estimate and its error."""

    def __init__(self, message, best, error):
        super().__init__(message)
        self.best = best
        self.error = error


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float


def _panel(f, a, b):
    """(integral, error estimate) on one panel from the embedded pair."""
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)
    hi = rad * float(np.dot(_WEIGHTS_HI, f(mid + rad * _NODES_HI)))
    lo = rad * float(np.dot(_WEIGHTS_LO, f(mid + rad * _NODES_LO)))
    return hi, abs(hi - lo)


def integrate(f, a, b, *, tol=1e-10, max_panels=20000) -> QuadResult:
    """Integrate a vectorized callable over [a, b] to absolute tolerance tol."""
    if not b > a:
        raise ValueError("need b > a")
    value, err = _panel(f, a, b)
    heap = [(-err, 0, a, b, value)]
    total_err = err
    counter = 1
    while total_err > tol:
        if len(heap) >= max_panels:
            raise NoConvergence(
                "tolerance %g not reached with %d panels (error %g)"
                % (tol, max_panels, total_err),
                best=math.fsum(item[4] for item in heap), error=total_err)
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        if (hi - lo) <= 1e-15 * (abs(lo) + abs(hi)):
            # worst panel has collapsed to roundoff width and still carries
            # the error mass: the integrand does not converge there
            heapq.heappush(heap, (neg_err, counter, lo, hi, val))
            raise NoConvergence(
                "panel at [%g, %g] cannot be refined further (error %g)"
                % (lo, hi, total_err),
                best=math.fsum(item[4] for item in heap), error=total_err)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2))
        counter += 2
    return QuadResult(value=math.fsum(item[4] for item in heap),
                      error=max(total_err, 0.0))


def jacobi_index(lp: float, mp: float, D: int) -> float:
    """Inverse of :func:`ell_prime`: recovers the polar polynomial degree n."""
    return -0.5 * (1.0 + 2.0 * mp) + 0.5 * math.sqrt(
        (2.0 * lp + 1.0) ** 2 + 4.0 * lp * (D - 3))


def epsilon_coulombic_form(params: PotentialParams, consts: PhysicalConstants,
                           q: QuantumNumbers) -> float:
    """Decay rate in the principal-number form eps = mu a / (hbar^2 N')."""
    Np = principal_number(q.N, effective_indices(params, consts, q))
    return consts.mu * params.a / (consts.hbar**2 * Np)


def radial_norm_integral(state: RadialState, *, tol=1e-10) -> QuadResult:
    """Quadrature of R^2 r^(D-1) over (0, r_max) with the decay-rule cutoff."""
    r_max = quadrature.decay_cutoff(state.envelope_power, 2.0 * state.epsilon)

    def integrand(r):
        R = radial_R(state, r)
        return R * R * np.power(r, state.D - 1)

    return integrate(integrand, 0.0, r_max, tol=tol)


def angular_norm_integral(state: AngularState, *, tol=1e-10) -> QuadResult:
    def integrand(theta):
        H = angular_H(state, theta)
        return H * H * np.sin(theta)

    return integrate(integrand, 0.0, math.pi, tol=tol)


def laguerre(n, eta, x):
    """L_n^(eta)(x), from :func:`ringcoulomb.special.laguerre`'s (sign, log|L|)."""
    sign, log_abs = special.laguerre(n, eta, x)
    return sign * np.exp(log_abs)


def jacobi(n, aa, bb, x):
    """P_n^(aa,bb)(x), from :func:`ringcoulomb.special.jacobi`'s (sign, log|P|)."""
    sign, log_abs = special.jacobi(n, aa, bb, x)
    return sign * np.exp(log_abs)


def sin_power(theta, power):
    """sin(theta)**power with 0**0 = 1 at the poles, from its log."""
    return np.exp(special.log_sin_power(theta, power))


#: the ODE residuals sample RESIDUAL_POINTS points of r in RADIAL_WINDOW and of
#: theta in (POLAR_PAD, pi - POLAR_PAD), with finite-difference step RESIDUAL_STEP
RESIDUAL_POINTS = 200
RADIAL_WINDOW = (0.1, 20.0)
POLAR_PAD = 0.1
RESIDUAL_STEP = 5e-4


def _fd_derivatives(f, x, h):
    """f(x), f'(x) and f''(x) from f evaluated once at each of x - 2h ... x + 2h."""
    fm2, fm1, f0, fp1, fp2 = f(x - 2 * h), f(x - h), f(x), f(x + h), f(x + 2 * h)
    # fourth-order five-point stencils; they keep the truncation term
    # negligible even where the coefficients grow like 1/r^2 on the test grid
    first = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    second = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return f0, first, second


def radial_ode_residual(params, consts, entry, *, energy_offset=0.0):
    """Max residual of g'' + [e + alpha/r - gamma/r^2] g over a test grid.

    ``entry`` is the state's ``spectrum.energy`` result.  Returns
    (max_residual, scale) with scale = max|g| * max|coefficient|; the second
    derivative is taken by central differences of the analytic g.
    """
    eff = entry.eff
    state = wavefunctions.radial_state_of(entry, params.D)
    e = 2.0 * consts.mu * (entry.E + energy_offset - params.c) / consts.hbar**2

    def g(r):
        return np.power(r, 0.5 * (params.D - 1)) * wavefunctions.radial_R(state, r)

    r = np.linspace(*RADIAL_WINDOW, RESIDUAL_POINTS)
    coef = e + eff.alpha / r - eff.gamma / (r * r)
    g0, _, g2 = _fd_derivatives(g, r, RESIDUAL_STEP)
    resid = g2 + coef * g0
    scale = np.max(np.abs(g0)) * max(np.max(np.abs(coef)), 1.0)
    return float(np.max(np.abs(resid))), float(scale)


def angular_ode_residual(params, consts, entry):
    """Max residual of the polar ODE for the analytic H over (POLAR_PAD, pi - POLAR_PAD).

    ``entry`` is the state's ``spectrum.energy`` result.
    """
    q, eff = entry.quantum, entry.eff
    state = wavefunctions.angular_state(q.n, eff.m_prime, params.D)
    kappa = 2.0 * consts.mu * params.beta / consts.hbar**2

    def H(theta):
        return wavefunctions.angular_H(state, theta)

    theta = np.linspace(POLAR_PAD, math.pi - POLAR_PAD, RESIDUAL_POINTS)
    sin2 = np.sin(theta) ** 2
    coef = eff.Lambda - (q.m**2 + kappa * np.cos(theta) ** 2) / sin2
    H0, H1, H2 = _fd_derivatives(H, theta, RESIDUAL_STEP)
    resid = H2 + (np.cos(theta) / np.sin(theta)) * H1 + coef * H0
    scale = np.max(np.abs(H0)) * max(np.max(np.abs(coef)), 1.0)
    return float(np.max(np.abs(resid))), float(scale)
