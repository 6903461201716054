"""Independent spectral (Galerkin) eigensolvers for the radial and polar ODEs.

The solvers share no algebra with the closed forms.  Each expands its
separated equation in a basis built from the ODE's own indicial exponent,
integrates the weak form with one Gauss rule, and takes the eigenvalues of
the dense symmetric matrix with ``numpy.linalg.eigvalsh``.

Radial, in Liouville form for g = r^((D-1)/2) R, with e = 2 mu (E - c) / hbar^2:

    -g'' + [gamma/r^2 - alpha/r] g = e g

In r = h x the basis is x^s e^(-x/2) p_k(x), k < K.  s = (1 + sqrt(4 gamma + 1))/2
solves the indicial equation s(s - 1) = gamma at r = 0, and the p_k are
orthonormal for x^(2s) e^(-x), so the basis is orthonormal.  Every element of
the weak form is x^(2s-2) e^(-x) times a polynomial of degree at most 2K,
which the Gauss rule of that weight with K + 2 nodes integrates exactly.  The
eigenvalues are h^2 e.  With h = 0.8 / (2 eps), eps the closed-form decay rate
of the slowest state, the basis decays 1.25 times faster: no basis function is
an eigenfunction; it peaks at x = 2s, the state near 2.5s, so K grows by s/16.

Polar, in s = cos(theta), with kappa = 2 mu beta / hbar^2:

    -((1 - s^2) H')' + (m^2 + kappa s^2) / (1 - s^2) H = Lambda H

The basis is (1 - s^2)^(p/2) q_k(s): p^2 = m^2 + kappa solves the indicial
equation at both poles, and the q_k are orthonormal for (1 - s^2)^p.  One
integration by parts cancels the pole term, because p^2 = m^2 + kappa, and
leaves int (1 - s^2)^(p+1) q_i' q_j' ds + (p + m^2) delta_ij, which the Gauss
rule of (1 - s^2)^p with K + 2 nodes integrates exactly.  The form before that
step needs the weight (1 - s^2)^(p-1), which is not integrable at p = 0.  The
basis holds the eigenfunctions, so the solve is exact from K = n + 1: it asks,
by quadrature, whether the ODE has polynomial solutions of the claimed degree,
the question the Nikiforov-Uvarov derivation answers in closed form.

Independence: both exponents come from indicial equations, never from the
energy formula, and both solvers diagonalize the operator.  The closed-form
decay rate only sets h; a wrong one slows convergence but moves no eigenvalue.

Numerics: Gauss nodes are eigenvalues of the Jacobi matrix.  Weights come
from the Christoffel sum w_j = 1 / sum_k P_k(x_j)^2, not from eigenvector
components, whose small entries lose their relative accuracy.  Rows are
carried times sqrt(w_j), so no value leaves the float range.  The radial
recurrences run in y = x - (2s - 1), which keeps the nodes resolved at large
s.  A solve takes the leading blocks of ``refinement_levels`` basis sizes
K, K + 10, ... (:class:`GridSpec`); it reports the largest's values and
their change from the one before as the error estimate.

:func:`verify_states` solves each (n, m) radially once per run of its N
(RUN_RATIO); a level read there is within 1e-12 relative of its own solve's.
It runs the recurrence of many solves in one pass over their nodes
(PASS_BYTES), as numpy's per-call cost dominates a recurrence of a few dozen
rows.  Each node steps with its own rule's coefficients and each solve keeps
its own rows; elementwise operations, numpy's log and exp among them, ignore
an element's neighbours, so a pass changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import spectrum, wavefunctions


class OracleError(Exception):
    """Base class for verification-solver failures."""


class BasisSizeError(OracleError):
    """A basis-size cap, K-step count or state count that a solve cannot take."""


class GridOutOfRange(OracleError):
    """At these parameters a basis scale or its matrix leaves the range of a float."""


#: bounds on the basis-size cap and on the number of K steps
MIN_POINTS = 64
MAX_POINTS = 2048
MIN_LEVELS = 2
MAX_LEVELS = 10
#: basis functions added at each K step
K_STEP = 10


@dataclass(frozen=True)
class GridSpec:
    """Basis sizes of a solve: ``refinement_levels`` sizes K, K + K_STEP, ...,
    the largest at most the cap ``n_points``; each solver picks its first K."""

    n_points: int = 1500
    refinement_levels: int = 3

    def __post_init__(self):
        if not MIN_POINTS <= self.n_points <= MAX_POINTS:
            raise BasisSizeError("the basis-size cap must lie in %d..%d, got %r"
                                 % (MIN_POINTS, MAX_POINTS, self.n_points))
        if not MIN_LEVELS <= self.refinement_levels <= MAX_LEVELS:
            raise BasisSizeError("the number of K steps must lie in %d..%d, got %r"
                                 % (MIN_LEVELS, MAX_LEVELS, self.refinement_levels))

    def _sizes(self, k_states: int, first: int, index: str) -> list:
        if k_states < 1:
            raise ValueError("k_states must be at least 1")
        sizes = [first + K_STEP * i for i in range(self.refinement_levels)]
        if sizes[-1] > self.n_points:
            raise BasisSizeError("%s = %d needs %d basis functions, more than the cap of %d"
                                 % (index, k_states - 1, sizes[-1], self.n_points))
        return sizes

    def radial_sizes(self, k_states: int, s: float = 1.0) -> list:
        """Radial sizes, from 2 k_states + 8 + s/16; BasisSizeError past the cap."""
        return self._sizes(k_states, 2 * k_states + 8 + int(s / 16.0), "radial index N")

    def angular_sizes(self, k_states: int) -> list:
        """Polar sizes, from k_states; BasisSizeError past the cap."""
        return self._sizes(k_states, k_states, "polar index n")


@dataclass(frozen=True)
class GridEigenResult:
    eigenvalues: np.ndarray          # values at the largest basis, ascending
    est_error: np.ndarray            # change from the next smaller basis
    levels: list = field(default_factory=list)  # values at each basis size


class _Rule(NamedTuple):
    """The Gauss rule and basis of one solve: ``param`` is the radial a = 2s - 2
    or the polar p, and the rule has size + 2 nodes for ``size`` basis functions."""

    radial: bool
    param: float
    size: int


def _coefficients(rule: _Rule, n_rows: int):
    """Rows 0 .. n_rows - 1 of the recurrence y P_k = off[k+1] P_{k+1} + diag[k] P_k
    + off[k] P_{k-1} of the rule's weight (row 0) and of the basis weight (row 1),
    and the basis's P_0 over the rule's."""
    j = np.arange(n_rows, dtype=float)
    if rule.radial:
        a = rule.param                  # the Gauss rule's weight x^a e^(-x)
        # the basis weight is x^(a+2) e^(-x); both recurrences run in y = x - (a + 1)
        diag = np.stack([2.0 * j, 2.0 * j + 2.0])
        off = np.sqrt(np.stack([j * (j + a), j * (j + a + 2.0)]))
        return diag, off, 1.0 / math.sqrt((a + 1.0) * (a + 2.0))
    p = rule.param                      # both weights are (1 - s^2)^p
    off = np.zeros(n_rows)
    off[1] = 1.0 / math.sqrt(2.0 * p + 3.0)   # the general form below is 0/0 at p = -1/2
    j = j[2:]
    off[2:] = np.sqrt(j * (j + 2.0 * p) / ((2.0 * j + 2.0 * p + 1.0) * (2.0 * j + 2.0 * p - 1.0)))
    return np.zeros((2, n_rows)), np.stack([off, off]), 1.0


#: bytes of the rows of one recurrence pass, 24 per solve, row and node (padded to
#: the largest solve); it takes the solves consecutive states first need while they fit
PASS_BYTES = 2**20


def _bases(rules) -> list:
    """Per rule, its Gauss nodes y and its basis rows p and dp, each (size, nodes):
    the orthonormal basis polynomials and their derivatives at y, times sqrt of
    each node's Christoffel weight.

    One recurrence pass runs over the nodes of every rule, rule i's in row i
    of the node array, so its coefficients broadcast along that row.  Each node
    steps with its own rule's coefficients, so no node's values depend on the
    other rules; a rule's rows past its own size + 2, and the columns that pad
    its nodes to the longest rule's, are computed and dropped.
    """
    if not rules:
        return []
    n_rows = max(rule.size for rule in rules) + 2
    # rule i owns row i of y: its nodes, then copies of its last node
    y = np.empty((len(rules), n_rows))
    diag, off = np.empty((3, len(rules), n_rows)), np.empty((3, len(rules), n_rows))
    start = np.empty((len(rules), 1))
    for i, rule in enumerate(rules):
        d, o, start[i] = _coefficients(rule, n_rows)
        n = rule.size + 2
        y[i, :n] = np.linalg.eigvalsh(np.diag(d[0, :n]) + np.diag(o[0, 1:n], -1))
        y[i, n:] = y[i, n - 1]
        # the pass carries the rule's P_k, the basis P_k and the basis P_k'
        diag[:, i], off[:, i] = d[[0, 1, 1]], o[[0, 1, 1]]
    cur = np.zeros((3,) + y.shape)
    cur[0], cur[1] = 1.0, start
    prev = np.zeros_like(cur)
    rows = np.empty((n_rows, 2) + y.shape)
    grow = np.ones((n_rows,) + y.shape)
    for k in range(n_rows - 1):
        rows[k] = cur[1:]
        nxt = (y - diag[:, :, k, None]) * cur - off[:, :, k, None] * prev
        nxt[2] += cur[1]
        nxt /= off[:, :, k + 1, None]
        # every row is carried over sqrt(sum_{i<=k} P_i^2) of the rule's
        # family, so no value leaves the float range however small the weight
        np.sqrt(1.0 + nxt[0] ** 2, out=grow[k + 1])
        prev, cur = cur / grow[k + 1], nxt / grow[k + 1]
    rows[-1] = cur[1:]
    log_norm = np.cumsum(np.log(grow, out=grow), axis=0, out=grow)
    bases = []
    for i, rule in enumerate(rules):
        size, n = rule.size, rule.size + 2
        scale = np.exp(log_norm[:size, i, :n] - log_norm[size + 1, i, :n])
        bases.append((y[i, :n], rows[:size, 0, i, :n] * scale, rows[:size, 1, i, :n] * scale))
    return bases


def _levels(matrix, sizes, k_states) -> GridEigenResult:
    """Lowest eigenvalues of the leading blocks of the largest basis's matrix,
    each exactly the matrix of the smaller basis, the Gauss rule being exact."""
    if not np.isfinite(matrix).all():
        raise GridOutOfRange("the basis matrix has entries outside the float range")
    try:
        levels = [np.linalg.eigvalsh(matrix[:size, :size])[:k_states] for size in sizes]
    except np.linalg.LinAlgError as exc:
        raise GridOutOfRange("the eigensolver failed at this scale: %s" % exc) from exc
    return GridEigenResult(eigenvalues=levels[-1],
                           est_error=np.abs(levels[-1] - levels[-2]), levels=levels)


def _radial_setup(alpha, gamma, grid, k_states):
    """The indicial exponent s, the scale h, the basis sizes and the rule of a radial solve."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if gamma < 0:
        raise OracleError("gamma < 0 is outside the oracle's trust region")
    s = 0.5 * (1.0 + math.sqrt(4.0 * gamma + 1.0))
    # the closed-form decay rate of the slowest state sets the scale, nothing else
    eps_slowest = alpha / (2.0 * (k_states - 1) + 2.0 * s)
    h = 0.8 / (2.0 * eps_slowest) if eps_slowest > 0.0 else math.inf
    if not 0.0 < h * h < math.inf:
        raise GridOutOfRange("basis scale h = %r squared %s"
                             % (h, "underflows" if h < 1.0 else "overflows"))
    sizes = grid.radial_sizes(k_states, s)
    return s, h, sizes, _Rule(True, 2.0 * s - 2.0, sizes[-1])


def radial_eigen(alpha: float, gamma: float, grid: GridSpec,
                 k_states: int, *, bases: dict | None = None) -> GridEigenResult:
    """Lowest k_states eigenvalues e_N of the reduced radial operator.

    The closed-form counterpart is e_N = -alpha^2 / (2N+1+sqrt(4 gamma+1))^2;
    the solver never evaluates it.  ``bases`` maps rules to basis rows that
    :func:`verify_states` computed for many solves in one pass; a rule not
    in it gets a pass of its own.
    """
    s, h, sizes, rule = _radial_setup(alpha, gamma, grid, k_states)
    y, p, dp = bases[rule] if bases and rule in bases else _bases([rule])[0]
    # Galerkin matrix of x^s e^(-x/2) p_k(x); eigenvalues h^2 e
    x = y + (rule.param + 1.0)
    u = s * p - 0.5 * x * p + x * dp    # x^(1-s) e^(x/2) d/dx of a basis function
    matrix = u @ u.T + (p * (gamma - alpha * h * x)) @ p.T
    return _levels(matrix / (h * h), sizes, k_states)


def _angular_setup(m, beta, consts, grid, k_states):
    """The basis sizes and the rule of a polar solve."""
    if m < 0 or beta < 0:
        raise ValueError("m and beta must be nonnegative")
    sizes = grid.angular_sizes(k_states)
    kappa = 2.0 * consts.mu * beta / consts.hbar**2
    if not math.isfinite(kappa):
        raise GridOutOfRange("kappa = 2 mu beta / hbar^2 = %r is outside the float range"
                             % kappa)
    return sizes, _Rule(False, math.sqrt(m * m + kappa), sizes[-1])


def angular_eigen(m: int, beta: float, consts: spectrum.PhysicalConstants,
                  grid: GridSpec, k_states: int, *,
                  bases: dict | None = None) -> GridEigenResult:
    """Lowest k_states angular eigenvalues Lambda_n for magnetic index m.

    The closed-form counterpart is (n+m')(n+m'+1) - 2 mu beta / hbar^2.
    ``bases`` is as for :func:`radial_eigen`.
    """
    sizes, rule = _angular_setup(m, beta, consts, grid, k_states)
    y, _, dq = bases[rule] if bases and rule in bases else _bases([rule])[0]
    # Galerkin matrix of (1 - s^2)^(p/2) q_k(s); eigenvalues Lambda
    d = dq * np.sqrt((1.0 - y) * (1.0 + y))
    matrix = d @ d.T + (rule.param + float(m * m)) * np.eye(rule.size)
    return _levels(matrix, sizes, k_states)


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


@dataclass(frozen=True)
class VerificationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


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


def _check(name, value, target, error, tolerance, error_estimate=0.0) -> CheckResult:
    return CheckResult(name=name, status="pass" if error <= tolerance else "fail",
                       value=value, target=target, tolerance=tolerance,
                       error_estimate=error_estimate)


#: the N values of one (n, m) share a radial solve while (N_hi + s) / (N_lo + s)
#: <= RUN_RATIO: a solve's h follows its N_hi, so a longer run under-resolves
#: N_lo (at 8, by 7e-10 relative; at 4, no level is off by more than 1e-11)
RUN_RATIO = 4


def _run_sizes(Ns, s: float) -> dict:
    """N -> k_states of the solve it reads: the distinct N, from the highest,
    cut into runs with (N_hi + s) / (N_lo + s) <= RUN_RATIO, solved at N_hi + 1."""
    sizes, top = {}, math.inf
    for N in sorted(set(Ns), reverse=True):
        if RUN_RATIO * (N + s) < top + s:
            top = N
        sizes[N] = top + 1
    return sizes


def verify_states(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                  states, tolerances: VerifyTolerances | None = None, *,
                  grid: GridSpec = GridSpec(), energy_offset: float = 0.0) -> list:
    """Cross-check closed-form states; one report per state, in input order.

    States sharing (n, m) share their two angular checks, as the polar
    equation does not involve N, and one radial solve per run of their N
    (RUN_RATIO).  ``grid`` sets the basis sizes of every solve.  The solves
    consecutive states first need take their rows from one recurrence pass.
    """
    block_Ns = {}
    for q in states:
        block_Ns.setdefault((q.n, q.m), []).append(q.N)
    # each state's radial k_states, and the solves it is the first to need:
    # the polar one of its (n, m) and the radial one of its run
    sizes, needs, blocks, planned = [], [], {}, set()
    for q in states:
        k, rules = None, []
        try:
            if (q.n, q.m) not in blocks:
                eff = spectrum.effective_indices(params, consts, q)
                s = _radial_setup(eff.alpha, eff.gamma, grid, 1)[0]
                blocks[q.n, q.m] = eff, _run_sizes(block_Ns[q.n, q.m], s)
                rules.append(_angular_setup(q.m, params.beta, consts, grid, q.n + 1)[1])
            eff, run_sizes = blocks[q.n, q.m]
            run = (q.n, q.m, run_sizes[q.N])
            if run not in planned:
                rules.append(_radial_setup(eff.alpha, eff.gamma, grid, run[2])[3])
                planned.add(run)
            k = run[2]
        except (spectrum.SpectrumError, OracleError, ArithmeticError, ValueError):
            pass    # q solves alone, so its error, if any, comes in state order
        sizes.append(k)
        needs.append(rules)
    shared, reports, start = {}, [], 0
    while start < len(states):
        rules, stop = needs[start], start + 1
        while stop < len(states):
            wider = rules + needs[stop]
            if 24 * len(wider) * max((r.size + 2 for r in wider), default=0) ** 2 > PASS_BYTES:
                break
            rules, stop = wider, stop + 1
        rules = list(dict.fromkeys(rules))
        bases = dict(zip(rules, _bases(rules)))
        reports += [verify_state(params, consts, q, tolerances, grid=grid, k_states=k,
                                 energy_offset=energy_offset, shared=shared, bases=bases)
                    for q, k in zip(states[start:stop], sizes[start:stop])]
        start = stop
    return reports


def verify_state(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                 q: spectrum.QuantumNumbers,
                 tolerances: VerifyTolerances | None = None, *,
                 grid: GridSpec = GridSpec(), energy_offset: float = 0.0,
                 k_states: int | None = None, shared: dict | None = None,
                 bases: dict | None = None) -> VerificationReport:
    """Cross-check one closed-form state against the spectral solvers.

    Runs the angular solver to confirm Lambda, the radial solver (fed the
    confirmed closed-form Lambda through gamma) to confirm E, and the ODE
    residuals of the analytic wavefunctions.  ``energy_offset`` shifts the
    closed-form energy before comparison and exists for negative controls.
    ``k_states`` (N + 1 by default) sizes the radial solve.  ``shared`` maps
    (n, m) to the angular checks and (n, m, k_states) to the radial solve of
    states verified with the same arguments but N, and gains what it lacks.
    ``bases`` is as for :func:`radial_eigen`.
    """
    tol = tolerances or VerifyTolerances()
    entry = spectrum.energy(params, consts, q)
    eff = entry.eff
    shared = {} if shared is None else shared
    if (q.n, q.m) not in shared:
        ang = angular_eigen(q.m, params.beta, consts, grid, q.n + 1, bases=bases)
        lam_num = float(ang.eigenvalues[q.n])
        resid_a, scale_a = angular_ode_residual(params, consts, entry)
        shared[q.n, q.m] = (
            _check("angular_lambda", lam_num, eff.Lambda, abs(lam_num - eff.Lambda),
                   tol.lambda_abs, float(ang.est_error[q.n])),
            _check("angular_ode_residual", resid_a, 0.0, resid_a,
                   tol.residual_rel * scale_a))
    lam_check, resid_a_check = shared[q.n, q.m]

    k = k_states or q.N + 1
    if (q.n, q.m, k) not in shared:
        shared[q.n, q.m, k] = radial_eigen(eff.alpha, eff.gamma, grid, k, bases=bases)
    rad = shared[q.n, q.m, k]
    e_num = float(rad.eigenvalues[q.N])
    E_num = params.c + consts.hbar**2 * e_num / (2.0 * consts.mu)
    E_target = entry.E + energy_offset
    scale = max(abs(E_target), abs(E_target - params.c))
    resid, scale_r = radial_ode_residual(params, consts, entry, energy_offset=energy_offset)
    return VerificationReport(checks=[
        lam_check,
        _check("radial_energy", E_num, E_target, abs(E_num - E_target),
               tol.energy_rel * scale,
               float(rad.est_error[q.N]) * consts.hbar**2 / (2.0 * consts.mu)),
        _check("radial_ode_residual", resid, 0.0, resid, tol.residual_rel * scale_r),
        resid_a_check])
