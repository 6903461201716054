"""Independent finite-difference eigensolvers for the radial and angular ODEs.

These solvers verify the closed-form spectrum without sharing any algebra
with the analytic modules: they discretize the separated equations directly
and read eigenvalues off symmetric tridiagonal matrices (LAPACK bisection on
Sturm-sequence counts via ``scipy.linalg.eigh_tridiagonal``, lowest k only).
scipy is imported inside ``_lowest``, the one call site, so importing this
module does not load it; only a solve does.

Radial equation, in Liouville normal form for g(r) = r^((D-1)/2) R(r):

    g'' + [e + alpha/r - gamma/r^2] g = 0,     e = 2 mu (E - c) / hbar^2

Discretized with second-order central differences on a uniform grid with
Dirichlet ends.  Near r = 0 the solution behaves like r**s with
s = (1 + sqrt(4*gamma+1))/2 (the indicial exponent of the ODE); for
non-integer s a plain 1/r^2 coefficient leaves an O(h^(2s-1)) eigenvalue
error that defeats h^2 extrapolation, so the centrifugal coefficient at node
j is replaced by the unique value that makes the three-point stencil
annihilate r**s exactly:

    gamma_j = j^2 [ (1 + 1/j)^s + (1 - 1/j)^s - 2 ]

which tends to s(s-1) = gamma and reduces to it identically at integer s.
This applies only when the grid starts at the origin (x_min = 0, the exact
boundary condition); with x_min > 0 the plain coefficient is kept.

Angular equation, conservative (flux) form:

    d/dtheta( sin(theta) dH/dtheta ) + [Lambda sin - (m^2 + kappa cos^2)/sin] H = 0

with kappa = 2 mu beta / hbar^2, discretized on a staggered grid whose cell
boundaries include the poles: the flux coefficient sin(theta) vanishes there,
so the natural (regularity) pole condition holds without any artificial
truncation.  That matters: truncating at theta = 1e-4 with Dirichlet walls
shifts the lowest m' = 0 eigenvalue by O(1/ln(1/delta)) ~ 0.1, far outside
tolerance, while the staggered grid keeps the constant mode exactly at
Lambda = 0.

Eigenvalues from ``refinement_levels`` grid halvings are combined by
Richardson extrapolation with the exponent ladder 2, 3, 4, ...; the error
estimate is the difference between the last two extrapolation stages.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import spectrum, wavefunctions


class OracleError(Exception):
    """Base class for verification-solver failures."""


class GridTooCoarse(OracleError):
    """The base grid has fewer nodes than requested states, or level-to-level
    eigenvalue differences fail to shrink under refinement."""


class SpectrumPollution(OracleError):
    """An eigenvalue moved by more than its spectral gap between refinement levels."""


class GridOutOfRange(OracleError):
    """At these parameters a grid or its matrix leaves the range of a float."""


#: smallest base grid and fewest refinement levels a GridSpec accepts
MIN_POINTS = 64
MIN_LEVELS = 2
#: the polar solver never uses a base grid coarser than this
ANGULAR_MIN_POINTS = 1000


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n_points: int = 1500
    refinement_levels: int = 3

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("need x_min < x_max")
        if self.n_points < MIN_POINTS:
            raise ValueError("n_points must be at least %d" % MIN_POINTS)
        if self.refinement_levels < MIN_LEVELS:
            raise ValueError("refinement_levels must be at least %d" % MIN_LEVELS)


@dataclass(frozen=True)
class GridEigenResult:
    eigenvalues: np.ndarray          # finest-grid raw values, ascending
    richardson: np.ndarray           # extrapolated values
    est_error: np.ndarray            # per-eigenvalue extrapolation estimate
    levels: list = field(default_factory=list)  # raw values per refinement level


def radial_grid_for(alpha: float, gamma: float, k_states: int, *,
                    n_points: int = 1500, refinement_levels: int = 3,
                    span: float = 40.0) -> GridSpec:
    """Grid sized by the decay rule x_max = span / eps of the slowest state."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    eps_slowest = alpha / (2.0 * (k_states - 1) + 1.0 + math.sqrt(4.0 * gamma + 1.0))
    if not eps_slowest > span / sys.float_info.max:
        raise GridOutOfRange("decay rate %r is too slow for a finite grid" % eps_slowest)
    return GridSpec(x_min=0.0, x_max=span / eps_slowest,
                    n_points=n_points, refinement_levels=refinement_levels)


def angular_grid(*, n_points: int = 2000, refinement_levels: int = 3) -> GridSpec:
    return GridSpec(x_min=0.0, x_max=math.pi,
                    n_points=n_points, refinement_levels=refinement_levels)


def _matched_centrifugal(s: float, j: np.ndarray) -> np.ndarray:
    """Node-wise coefficient making the stencil exact on r**s; -> s(s-1)."""
    out = np.empty(j.shape)
    near = j <= 100
    jn = j[near]
    out[near] = jn * jn * ((1.0 + 1.0 / jn) ** s + (1.0 - 1.0 / jn) ** s - 2.0)
    jf = j[~near]
    d2 = 1.0 / (jf * jf)
    # series in 1/j^2 avoids the catastrophic cancellation of the direct form
    out[~near] = s * (s - 1.0) * (
        1.0 + (s - 2.0) * (s - 3.0) / 12.0 * d2
        + (s - 2.0) * (s - 3.0) * (s - 4.0) * (s - 5.0) / 360.0 * d2 * d2)
    return out


def _lowest(diag, off, k):
    """The k lowest eigenvalues of the symmetric tridiagonal (diag, off)."""
    from scipy.linalg import eigh_tridiagonal  # here alone, so only verify loads scipy
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise GridOutOfRange("the grid matrix has entries outside the float range")
    try:
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                                eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise GridOutOfRange("the eigensolver failed at this scale: %s" % exc) from exc


def _radial_level(alpha, gamma, x_min, x_max, n, k):
    h = (x_max - x_min) / (n + 1)
    if not h * h > 0.0:
        raise GridOutOfRange("grid step %r squared underflows" % h)
    j = np.arange(1, n + 1)
    r = x_min + j * h
    s = 0.5 * (1.0 + math.sqrt(4.0 * gamma + 1.0))
    # matching is what keeps fractional indicial exponents at clean O(h^2),
    # but its first-node coefficient grows like 2**s; beyond s ~ 12 the plain
    # scheme's O(h^(2s-1)) defect is already far below tolerance while the
    # matched coefficient would start inflating the eigensolver's noise floor
    if x_min == 0.0 and s <= 12.0:
        centrifugal = _matched_centrifugal(s, j.astype(float)) / (r * r)
    else:
        centrifugal = gamma / (r * r)
    diag = 2.0 / (h * h) + centrifugal - alpha / r
    off = np.full(n - 1, -1.0 / (h * h))
    return _lowest(diag, off, k), float(np.max(np.abs(diag)))


def _matched_pole_m2(mp: float, n_cells: int) -> np.ndarray:
    """Per-cell replacement for m'^2 making the staggered polar stencil exact
    on theta**m' near a pole.

    On the model operator with p = w = theta (cell centers t_i = i + 1/2,
    boundaries at integers) the requirement is

        m2_i = [ (i+1)(t_{i+1}^m' - t_i^m') - i(t_i^m' - t_{i-1}^m') ] t_i^(1-m')

    which equals m'^2 identically for integer m' and tends to it for large i.
    """
    i = np.arange(n_cells, dtype=float)
    t = i + 0.5
    tm = (i + 1.5) ** mp
    t0 = t**mp
    tmm = np.empty_like(t)
    tmm[0] = 0.0  # the i = 0 flux sits at the pole and vanishes with p
    tmm[1:] = (i[1:] - 0.5) ** mp
    out = ((i + 1.0) * (tm - t0) - i * (t0 - tmm)) * t ** (1.0 - mp)
    return out


def _angular_level(m2, kappa, x_min, x_max, n, k):
    # nodes at cell centers, flux coefficients at cell boundaries; a pole
    # boundary has sin = 0 and decouples by itself (natural condition)
    h = (x_max - x_min) / n
    theta = x_min + (np.arange(n) + 0.5) * h
    p_bound = np.sin(x_min + np.arange(n + 1) * h)
    w = np.sin(theta)
    # the polar singularity of the full coefficient (m^2 + kappa cos^2)/sin^2
    # has strength m'^2 = m^2 + kappa; near each pole that strength is
    # replaced by its stencil-matched value so fractional m' keeps the
    # O(h^2) eigenvalue convergence the extrapolation relies on
    mp2 = m2 + kappa
    m2_eff = np.full(n, mp2)
    # stencil matching only pays off for small m': the plain scheme's pole
    # defect is O(h^(2 m' + 1)), negligible beyond m' ~ 3, while the matched
    # first-cell coefficient grows like 3**m' and would degrade the absolute
    # accuracy of the eigensolver (which scales with the matrix norm)
    if x_min == 0.0 and abs(x_max - math.pi) < 1e-12 and 0.0 < mp2 <= 9.0:
        mp = math.sqrt(mp2)
        j = min(n // 2, 2048)
        matched = _matched_pole_m2(mp, j)
        m2_eff[:j] = matched
        m2_eff[n - j:] = matched[::-1]
    q = (m2_eff - kappa * w * w) / (w * w)
    diag = (p_bound[1:] + p_bound[:-1]) / (h * h * w) + q
    off = -p_bound[1:n] / (h * h * np.sqrt(w[:-1] * w[1:]))
    return _lowest(diag, off, k), float(np.max(np.abs(diag)))


def _check_level_convergence(levels, noise):
    """Raise GridTooCoarse / SpectrumPollution on suspicious level sequences.

    ``noise`` holds per-level eigenvalue noise floors (machine epsilon times
    the matrix norm); level differences below the floor are converged and
    exempt from the monotonicity requirement.
    """
    arr = [np.asarray(l, float) for l in levels]
    finest = arr[-1]
    floors = [1e3 * np.finfo(float).eps * s for s in noise]
    diffs = [np.abs(arr[i + 1] - arr[i]) for i in range(len(arr) - 1)]
    if len(finest) > 1:
        gaps = np.empty_like(finest)
        inner = np.minimum(np.abs(np.diff(finest))[:-1], np.abs(np.diff(finest))[1:])
        gaps[1:-1] = inner
        gaps[0] = abs(finest[1] - finest[0])
        gaps[-1] = abs(finest[-1] - finest[-2])
        if np.any(diffs[0] > 0.5 * gaps + floors[1]):
            raise SpectrumPollution(
                "eigenvalue moved by more than half its spectral gap under refinement")
    for j in range(len(diffs) - 1):
        a, b = diffs[j], diffs[j + 1]
        bad = (b > floors[j + 2]) & (b > 1.05 * a + floors[j + 2])
        if np.any(bad):
            raise GridTooCoarse(
                "refinement differences are not decreasing; refine the base grid")


def _richardson(levels):
    stages = [np.asarray(l, float) for l in levels]
    prev = stages[-1]
    est = np.zeros_like(prev)
    p = 2.0
    while len(stages) > 1:
        f = 2.0 ** p
        stages = [(f * stages[i + 1] - stages[i]) / (f - 1.0)
                  for i in range(len(stages) - 1)]
        est = np.abs(stages[-1] - prev)
        prev = stages[-1]
        p += 1.0
    return stages[0], est


def _refine(level_solver, grid: GridSpec, k_states: int) -> GridEigenResult:
    if k_states < 1:
        raise ValueError("k_states must be at least 1")
    if k_states > grid.n_points:
        raise GridTooCoarse("%d states need more than the %d nodes of the base grid"
                            % (k_states, grid.n_points))
    solved = [level_solver(grid.n_points * 2 ** i, k_states)
              for i in range(grid.refinement_levels)]
    levels = [evals for evals, _ in solved]
    noise = [scale for _, scale in solved]
    _check_level_convergence(levels, noise)
    extrap, est = _richardson(levels)
    return GridEigenResult(eigenvalues=levels[-1], richardson=extrap,
                           est_error=est, levels=levels)


def radial_eigen(alpha: float, gamma: float, grid: GridSpec,
                 k_states: int) -> GridEigenResult:
    """Lowest k_states eigenvalues e_N of the reduced radial operator.

    The closed-form counterpart is e_N = -alpha^2 / (2N+1+sqrt(4 gamma+1))^2;
    the solver never evaluates it.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if gamma < 0:
        raise OracleError(
            "gamma < 0 is outside the oracle's trust region (Dirichlet "
            "truncation is unreliable in the limit-circle regime)")
    return _refine(
        lambda n, k: _radial_level(alpha, gamma, grid.x_min, grid.x_max, n, k),
        grid, k_states)


def angular_eigen(m: int, beta: float, consts: spectrum.PhysicalConstants,
                  grid: GridSpec, k_states: int) -> GridEigenResult:
    """Lowest k_states angular eigenvalues Lambda_n for magnetic index m.

    The closed-form counterpart is (n+m')(n+m'+1) - 2 mu beta / hbar^2.
    """
    if m < 0 or beta < 0:
        raise ValueError("m and beta must be nonnegative")
    kappa = 2.0 * consts.mu * beta / consts.hbar**2
    return _refine(
        lambda n, k: _angular_level(float(m * m), kappa, grid.x_min, grid.x_max, n, k),
        grid, k_states)


# ---------------------------------------------------------------------------
# state-level verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyTolerances:
    energy_rel: float = 1e-4
    lambda_abs: float = 1e-4
    residual_rel: float = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str        # "pass" or "fail"
    value: float
    target: float
    tolerance: float
    error_estimate: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "value": self.value,
                "target": self.target, "tolerance": self.tolerance,
                "error_estimate": self.error_estimate}


@dataclass(frozen=True)
class VerificationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"checks": [c.as_dict() for c in self.checks]}


def _fd_second(f, x, h):
    # fourth-order five-point stencil; keeps the truncation term negligible
    # even where the coefficients grow like 1/r^2 on the test grid
    return (-f(x + 2 * h) + 16.0 * f(x + h) - 30.0 * f(x)
            + 16.0 * f(x - h) - f(x - 2 * h)) / (12.0 * h * h)


def _fd_first(f, x, h):
    return (f(x - 2 * h) - 8.0 * f(x - h) + 8.0 * f(x + h)
            - f(x + 2 * h)) / (12.0 * h)


def radial_ode_residual(params, consts, entry, *, r_lo=0.1, r_hi=20.0, n_pts=200,
                        energy_offset=0.0):
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

    r = np.linspace(r_lo, r_hi, n_pts)
    h = 5e-4
    coef = e + eff.alpha / r - eff.gamma / (r * r)
    resid = _fd_second(g, r, h) + coef * g(r)
    scale = np.max(np.abs(g(r))) * max(np.max(np.abs(coef)), 1.0)
    return float(np.max(np.abs(resid))), float(scale)


def angular_ode_residual(params, consts, entry, *, pad=0.1, n_pts=200):
    """Max residual of the polar ODE for the analytic H over (pad, pi - pad).

    ``entry`` is the state's ``spectrum.energy`` result.
    """
    q, eff = entry.quantum, entry.eff
    state = wavefunctions.angular_state(q.n, eff.m_prime, params.D)
    kappa = 2.0 * consts.mu * params.beta / consts.hbar**2

    def H(theta):
        return wavefunctions.angular_H(state, theta)

    theta = np.linspace(pad, math.pi - pad, n_pts)
    h = 5e-4
    sin2 = np.sin(theta) ** 2
    coef = eff.Lambda - (q.m**2 + kappa * np.cos(theta) ** 2) / sin2
    resid = (_fd_second(H, theta, h)
             + (np.cos(theta) / np.sin(theta)) * _fd_first(H, theta, h)
             + coef * H(theta))
    scale = np.max(np.abs(H(theta))) * max(np.max(np.abs(coef)), 1.0)
    return float(np.max(np.abs(resid))), float(scale)


def _check(name, value, target, error, tolerance, error_estimate=0.0) -> CheckResult:
    return CheckResult(name=name, status="pass" if error <= tolerance else "fail",
                       value=value, target=target, tolerance=tolerance,
                       error_estimate=error_estimate)


def verify_states(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                  states, tolerances: VerifyTolerances | None = None, *,
                  n_points: int = 1500, refinement_levels: int = 3,
                  energy_offset: float = 0.0) -> list:
    """Cross-check closed-form states; one report per state, in input order.

    The polar equation does not involve N, so states sharing (n, m) share
    their two angular checks; the radial checks run per state.
    """
    angular_checks = {}
    return [verify_state(params, consts, q, tolerances, n_points=n_points,
                         refinement_levels=refinement_levels,
                         energy_offset=energy_offset, angular_checks=angular_checks)
            for q in states]


def verify_state(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                 q: spectrum.QuantumNumbers,
                 tolerances: VerifyTolerances | None = None, *,
                 n_points: int = 1500, refinement_levels: int = 3,
                 energy_offset: float = 0.0,
                 angular_checks: dict | None = None) -> VerificationReport:
    """Cross-check one closed-form state against the finite-difference solvers.

    Runs the angular solver to confirm Lambda, the radial solver (fed the
    confirmed closed-form Lambda through gamma) to confirm E, and the ODE
    residuals of the analytic wavefunctions.  ``energy_offset`` shifts the
    closed-form energy before comparison and exists for negative controls.
    ``angular_checks`` maps (n, m) to the angular checks of states verified
    with the same arguments apart from N; missing entries are added to it.
    """
    tol = tolerances or VerifyTolerances()
    entry = spectrum.energy(params, consts, q)
    eff = entry.eff
    angular_checks = {} if angular_checks is None else angular_checks
    if (q.n, q.m) not in angular_checks:
        ang = angular_eigen(q.m, params.beta, consts,
                            angular_grid(n_points=max(n_points, ANGULAR_MIN_POINTS),
                                         refinement_levels=refinement_levels),
                            q.n + 1)
        lam_fd = float(ang.richardson[q.n])
        resid_a, scale_a = angular_ode_residual(params, consts, entry)
        angular_checks[q.n, q.m] = (
            _check("angular_lambda", lam_fd, eff.Lambda, abs(lam_fd - eff.Lambda),
                   tol.lambda_abs, float(ang.est_error[q.n])),
            _check("angular_ode_residual", resid_a, 0.0, resid_a,
                   tol.residual_rel * scale_a))
    lam_check, resid_a_check = angular_checks[q.n, q.m]

    rad = radial_eigen(eff.alpha, eff.gamma,
                       radial_grid_for(eff.alpha, eff.gamma, q.N + 1,
                                       n_points=n_points,
                                       refinement_levels=refinement_levels),
                       q.N + 1)
    e_fd = float(rad.richardson[q.N])
    E_fd = params.c + consts.hbar**2 * e_fd / (2.0 * consts.mu)
    E_target = entry.E + energy_offset
    scale = max(abs(E_target), abs(E_target - params.c))
    resid, scale_r = radial_ode_residual(params, consts, entry, energy_offset=energy_offset)
    return VerificationReport(checks=[
        lam_check,
        _check("radial_energy", E_fd, E_target, abs(E_fd - E_target),
               tol.energy_rel * scale,
               float(rad.est_error[q.N]) * consts.hbar**2 / (2.0 * consts.mu)),
        _check("radial_ode_residual", resid, 0.0, resid, tol.residual_rel * scale_r),
        resid_a_check])
