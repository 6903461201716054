"""Independent spectral (Galerkin) eigensolvers for the radial and polar ODEs.

The solvers share no algebra with the closed forms.  Each expands its
separated equation in a basis built from the ODE's own indicial exponent,
integrates the weak form with one Gauss rule, and takes the eigenvalues of
the dense symmetric matrix with ``numpy.linalg.eigvalsh``, and the
eigenvectors of the largest basis with ``numpy.linalg.eigh``.

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

Wavefunctions: an eigenvector v holds the unit-norm numerical eigenfunction's
coefficients in the orthonormal basis.  The same Gauss rule projects the
closed-form R (as g) or H, given in the log domain at the nodes, onto the
basis: c_k = sum_j p_k(x_j) sqrt(w_j) f_j, where f_j is sqrt(w_j) times the
function times the basis prefactor over the rule's weight.  A check reads
||c - (+-)v||, 0 up to the truncation of the basis for a right state.  It is
linear in C and h_n^(-1/2), so it sees the normalization that an ODE residual
cannot, and it reads a relative error of the function in any length unit.

Numerics: Gauss nodes are eigenvalues of the Jacobi matrix.  Weights come
from the Christoffel sum w_j = 1 / sum_k P_k(x_j)^2, not from eigenvector
components, whose small entries lose their relative accuracy.  Rows are
carried times sqrt(w_j), so no value leaves the float range.  The radial
recurrences run in y = x - (2s - 1), which keeps the nodes resolved at large
s.  A solve takes the leading blocks of ``refinement_levels`` basis sizes
K, K + 10, ... (:class:`GridSpec`); it reports the largest's values and
their change from the one before as the error estimate.

:func:`verify_states` solves each (n, m) radially once per run of its N
(RUN_RATIO); a level read there is within 1e-12 relative of its own solve's,
and an eigenvector within a distance of 2e-9.  :func:`size_problems` finds
the solves too large for the basis cap from the same plan, solving none.
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
    # the values' eigenvectors at the largest basis, one column each, and what
    # :meth:`distance` projects a function with: the points where it is
    # sampled, the basis rows there and the log of each point's factor
    vectors: np.ndarray = None
    nodes: np.ndarray = None
    rows: np.ndarray = None
    log_weights: np.ndarray = None

    def distance(self, index: int, sign, log_abs) -> float:
        """||c - (+-)v|| for v the eigenvector ``index`` and c the basis
        coefficients of the function sign * exp(log_abs) given at ``nodes``,
        which the Gauss rule projects; for a unit-norm eigenfunction it is 0."""
        c = self.rows @ (sign * np.exp(self.log_weights + log_abs))
        v = self.vectors[:, index]
        return float(np.linalg.norm(c - math.copysign(1.0, c @ v) * v))


class _Rule(NamedTuple):
    """The Gauss rule and basis of one solve: ``param`` is the radial a = 2s - 2
    or the polar p, and the rule has size + 2 nodes for ``size`` basis functions."""

    radial: bool
    param: float
    size: int


def _coefficients(rule: _Rule, n_rows: int):
    """Rows 0 .. n_rows - 1 of the recurrence y P_k = off[k+1] P_{k+1} + diag[k] P_k
    + off[k] P_{k-1} of the rule's weight (row 0) and of the basis weight (row 1),
    the basis's P_0 over the rule's, and log sqrt of the rule weight's integral."""
    j = np.arange(n_rows, dtype=float)
    if rule.radial:
        a = rule.param                  # the Gauss rule's weight x^a e^(-x)
        # the basis weight is x^(a+2) e^(-x); both recurrences run in y = x - (a + 1)
        diag = np.stack([2.0 * j, 2.0 * j + 2.0])
        off = np.sqrt(np.stack([j * (j + a), j * (j + a + 2.0)]))
        return diag, off, 1.0 / math.sqrt((a + 1.0) * (a + 2.0)), 0.5 * math.lgamma(a + 1.0)
    p = rule.param                      # both weights are (1 - s^2)^p
    off = np.zeros(n_rows)
    off[1] = 1.0 / math.sqrt(2.0 * p + 3.0)   # the general form below is 0/0 at p = -1/2
    j = j[2:]
    off[2:] = np.sqrt(j * (j + 2.0 * p) / ((2.0 * j + 2.0 * p + 1.0) * (2.0 * j + 2.0 * p - 1.0)))
    # the integral of (1 - s^2)^p over (-1, 1) is 2^(2p+1) Gamma(p+1)^2 / Gamma(2p+2)
    log_mass = ((2.0 * p + 1.0) * math.log(2.0) + 2.0 * math.lgamma(p + 1.0)
                - math.lgamma(2.0 * p + 2.0))
    return np.zeros((2, n_rows)), np.stack([off, off]), 1.0, 0.5 * log_mass


#: bytes of the rows of one recurrence pass, 24 per solve, row and node (padded to
#: the largest solve); it takes the solves consecutive states first need while they fit
PASS_BYTES = 2**20


def _bases(rules) -> list:
    """Per rule, its Gauss nodes y, its basis rows p and dp, each (size, nodes):
    the orthonormal basis polynomials and their derivatives at y, times sqrt of
    each node's Christoffel weight w, and log sqrt(w), which stays finite where
    the p_0 row underflows.

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
    start, log_mass = np.empty((len(rules), 1)), np.empty(len(rules))
    for i, rule in enumerate(rules):
        d, o, start[i], log_mass[i] = _coefficients(rule, n_rows)
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
        bases.append((y[i, :n], rows[:size, 0, i, :n] * scale, rows[:size, 1, i, :n] * scale,
                      log_mass[i] - log_norm[size + 1, i, :n]))
    return bases


def _levels(matrix, sizes, k_states, nodes, rows, log_weights) -> GridEigenResult:
    """Lowest eigenvalues of the leading blocks of the largest basis's matrix,
    each exactly the matrix of the smaller basis, the Gauss rule being exact,
    and the largest's eigenvectors."""
    if not np.isfinite(matrix).all():
        raise GridOutOfRange("the basis matrix has entries outside the float range")
    try:
        levels = [np.linalg.eigvalsh(matrix[:size, :size])[:k_states] for size in sizes]
        # eigh's values differ from eigvalsh's in the last digits; only its vectors are read
        vectors = np.linalg.eigh(matrix)[1][:, :k_states]
    except np.linalg.LinAlgError as exc:
        raise GridOutOfRange("the eigensolver failed at this scale: %s" % exc) from exc
    return GridEigenResult(eigenvalues=levels[-1],
                           est_error=np.abs(levels[-1] - levels[-2]), levels=levels,
                           vectors=vectors, nodes=nodes, rows=rows, log_weights=log_weights)


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
    y, p, dp, log_sqrt_w = bases[rule] if bases and rule in bases else _bases([rule])[0]
    # Galerkin matrix of x^s e^(-x/2) p_k(x); eigenvalues h^2 e
    x = y + (rule.param + 1.0)
    u = s * p - 0.5 * x * p + x * dp    # x^(1-s) e^(x/2) d/dx of a basis function
    matrix = u @ u.T + (p * (gamma - alpha * h * x)) @ p.T
    # a function g of r = h x has the coefficients p (sqrt(w h) g(h x) x^(2-s) e^(x/2))
    return _levels(matrix / (h * h), sizes, k_states, h * x, p,
                   log_sqrt_w + 0.5 * math.log(h) + (2.0 - s) * np.log(x) + 0.5 * x)


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
    y, q, dq, log_sqrt_w = bases[rule] if bases and rule in bases else _bases([rule])[0]
    # Galerkin matrix of (1 - s^2)^(p/2) q_k(s); eigenvalues Lambda
    sigma = (1.0 - y) * (1.0 + y)
    d = dq * np.sqrt(sigma)
    matrix = d @ d.T + (rule.param + float(m * m)) * np.eye(rule.size)
    # a function H of theta = arccos(s) has the coefficients q (sqrt(w) H (1 - s^2)^(-p/2))
    return _levels(matrix, sizes, k_states, np.arccos(y), q,
                   log_sqrt_w - 0.5 * rule.param * np.log(sigma))


# ---------------------------------------------------------------------------
# state-level verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyTolerances:
    energy_rel: float = 1e-4
    lambda_abs: float = 1e-4
    state_abs: float = 1e-7


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


def _plan(params, consts, states, grid) -> tuple:
    """Per state, the N values of the run whose solve it reads (none: it
    solves alone) and the rules of the solves it is the first to need, the
    polar one of its (n, m) and the radial one of its run; and the
    BasisSizeErrors that left a state to solve alone."""
    block_Ns = {}
    for q in states:
        block_Ns.setdefault((q.n, q.m), []).append(q.N)
    runs, needs, too_large, blocks, planned = [], [], [], {}, set()
    for q in states:
        run, rules = (), []
        try:
            if (q.n, q.m) not in blocks:
                eff = spectrum.effective_indices(params, consts, q)
                s = _radial_setup(eff.alpha, eff.gamma, grid, 1)[0]
                run_sizes, members = _run_sizes(block_Ns[q.n, q.m], s), {}
                for N, k in run_sizes.items():
                    members.setdefault(k, []).append(N)
                blocks[q.n, q.m] = eff, run_sizes, members
                rules.append(_angular_setup(q.m, params.beta, consts, grid, q.n + 1)[1])
            eff, run_sizes, members = blocks[q.n, q.m]
            k = run_sizes[q.N]
            if (q.n, q.m, k) not in planned:
                rules.append(_radial_setup(eff.alpha, eff.gamma, grid, k)[3])
                planned.add((q.n, q.m, k))
            run = members[k]
        except BasisSizeError as exc:
            too_large.append(exc)   # q solves alone and meets it again, in state order
        except (spectrum.SpectrumError, OracleError, ArithmeticError, ValueError):
            pass    # q solves alone, so its error, if any, comes in state order
        runs.append(run)
        needs.append(rules)
    return runs, needs, too_large


def size_problems(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                  states, grid: GridSpec) -> list:
    """("N", message) and ("n", message) for the first radial and the first
    polar solve of ``states`` that needs more basis functions than ``grid``
    holds, as :func:`verify_states` would meet them; it solves nothing."""
    found = {}
    for exc in _plan(params, consts, states, grid)[2]:
        found.setdefault("N" if str(exc).startswith("radial") else "n", str(exc))
    return [(index, found[index]) for index in ("N", "n") if index in found]


def verify_states(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                  states, tolerances: VerifyTolerances | None = None, *,
                  grid: GridSpec = GridSpec(), energy_offset: float = 0.0) -> list:
    """Cross-check closed-form states; one report per state, in input order.

    States sharing (n, m) share their two angular checks, as the polar
    equation does not involve N, and one radial solve per run of their N
    (RUN_RATIO).  ``grid`` sets the basis sizes of every solve.  The solves
    consecutive states first need take their rows from one recurrence pass.
    """
    runs, needs, _ = _plan(params, consts, states, grid)
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
        reports += [verify_state(params, consts, q, tolerances, grid=grid, run=run,
                                 energy_offset=energy_offset, shared=shared, bases=bases)
                    for q, run in zip(states[start:stop], runs[start:stop])]
        start = stop
    return reports


def _angular_checks(params, consts, q, tol, grid, bases) -> tuple:
    """The angular_lambda and angular_wavefunction checks of q's (n, m)."""
    eff = spectrum.energy(params, consts, q).eff
    ang = angular_eigen(q.m, params.beta, consts, grid, q.n + 1, bases=bases)
    lam_num = float(ang.eigenvalues[q.n])
    state = wavefunctions.angular_state(q.n, eff.m_prime, params.D)
    distance = ang.distance(q.n, *wavefunctions.log_angular_H(state, ang.nodes))
    return (_check("angular_lambda", lam_num, eff.Lambda, abs(lam_num - eff.Lambda),
                   tol.lambda_abs, float(ang.est_error[q.n])),
            _check("angular_wavefunction", distance, 0.0, distance, tol.state_abs))


def _radial_checks(params, consts, q, run, tol, grid, energy_offset, bases) -> dict:
    """N -> the radial_energy and radial_wavefunction checks of (N, q.n, q.m)
    for every N of ``run``, from one solve sized for the last."""
    entries = [spectrum.energy(params, consts, spectrum.QuantumNumbers(N, q.n, q.m))
               for N in run]
    eff = entries[0].eff
    rad = radial_eigen(eff.alpha, eff.gamma, grid, run[-1] + 1, bases=bases)
    log_liouville = 0.5 * (params.D - 1) * np.log(rad.nodes)   # g = r^((D-1)/2) R
    checks = {}
    for N, entry in zip(run, entries):
        E_num = params.c + consts.hbar**2 * float(rad.eigenvalues[N]) / (2.0 * consts.mu)
        E_target = entry.E + energy_offset
        scale = max(abs(E_target), abs(E_target - params.c))
        sign, log_R = wavefunctions.log_radial_R(
            wavefunctions.radial_state_of(entry, params.D), rad.nodes)
        distance = rad.distance(N, sign, log_R + log_liouville)
        checks[N] = (
            _check("radial_energy", E_num, E_target, abs(E_num - E_target),
                   tol.energy_rel * scale,
                   float(rad.est_error[N]) * consts.hbar**2 / (2.0 * consts.mu)),
            _check("radial_wavefunction", distance, 0.0, distance, tol.state_abs))
    return checks


def verify_state(params: spectrum.PotentialParams, consts: spectrum.PhysicalConstants,
                 q: spectrum.QuantumNumbers,
                 tolerances: VerifyTolerances | None = None, *,
                 grid: GridSpec = GridSpec(), energy_offset: float = 0.0,
                 run=(), shared: dict | None = None,
                 bases: dict | None = None) -> VerificationReport:
    """Cross-check one closed-form state against the spectral solvers.

    Runs the angular solver to confirm Lambda and the radial solver (fed the
    confirmed closed-form Lambda through gamma) to confirm E.  Each solve's
    eigenvector of the state checks the closed-form R or H, normalization
    included, through the distance ||c - v|| of :meth:`GridEigenResult.distance`.
    ``energy_offset`` shifts the closed-form energy before comparison and
    exists for negative controls; the wavefunction checks do not read it.
    ``run`` lists N values that share q's radial solve; it is sized for the
    highest of them and q.N, and checks them all.  ``shared`` maps (n, m) to
    the angular checks and (n, m, k_states) to the radial checks read from the
    solve of that size, for states verified with the same arguments but N, and
    gains what it lacks.  ``bases`` is as for :func:`radial_eigen`.
    """
    tol = tolerances or VerifyTolerances()
    shared = {} if shared is None else shared
    if (q.n, q.m) not in shared:
        shared[q.n, q.m] = _angular_checks(params, consts, q, tol, grid, bases)
    radial = shared.setdefault((q.n, q.m, max([q.N, *run]) + 1), {})
    if q.N not in radial:
        radial.update(_radial_checks(params, consts, q, sorted({q.N, *run}), tol, grid,
                                     energy_offset, bases))
    lam_check, angular_check = shared[q.n, q.m]
    return VerificationReport(checks=[lam_check, *radial[q.N], angular_check])
