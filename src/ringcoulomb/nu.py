"""Nikiforov-Uvarov reduction for hypergeometric-type second-order ODEs.

Handles equations of the form

    y''(s) + (tau_tilde(s) / sigma(s)) y'(s) + (sigma_tilde(s) / sigma(s)^2) y(s) = 0

with ``sigma`` and ``sigma_tilde`` of degree at most two and ``tau_tilde`` of
degree at most one.  The reduction determines a shift polynomial ``pi(s)``
(degree <= 1) such that the substitution y = phi * u turns the equation into
self-adjoint hypergeometric form

    sigma u'' + tau u' + lam u = 0,        tau = tau_tilde + 2 pi,

which has polynomial solutions of degree n exactly when

    lam = -n tau' - n (n - 1) / 2 * sigma''       (n = 0, 1, 2, ...)

matches the branch constant lam = k + pi'.  Equating the two expressions
quantizes whatever physical parameter the coefficients carry.  For the radial
Coulomb problem ``quantize_epsilon`` gives the binding parameter in closed
form and can cross-check it against a bracketed Brent root of the engine's
own eigenvalue mismatch.

Coefficients may be 64-bit floats or exact rationals (``fractions.Fraction``
or int); all algebra stays inside the coefficient field.  In exact mode every
square root encountered must be a perfect square of a rational, otherwise
``InexactSquareRoot`` is raised; in float mode perfect-square and sign checks
use a relative tolerance of ``TOLERANCE``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Coeff = Union[int, float, Fraction]

#: coefficientwise tolerance for perfect-square / root checks in float mode
TOLERANCE = 1e-10


class NUError(Exception):
    """Base class for reduction failures."""


class DegenerateSigma(NUError):
    """sigma(s) is identically zero; the equation is not of the handled form."""


class NoRealK(NUError):
    """The discriminant equation for k has no real solution."""


class NotPerfectSquare(NUError):
    """The radicand for the given k is not the square of a linear polynomial."""


class NoValidBranch(NUError):
    """No candidate branch has a decreasing linear coefficient tau."""


class AmbiguousBranch(NUError):
    """More than one admissible branch; carries all of them in ``branches``."""

    def __init__(self, branches):
        super().__init__(
            "%d branches have tau' < 0; supply a domain to disambiguate" % len(branches)
        )
        self.branches = list(branches)


class InvalidGamma(NUError):
    """4*gamma + 1 < 0: attractive inverse-square term too strong, no ground state."""


class InexactSquareRoot(NUError):
    """Exact (rational) mode hit a square root that is not a perfect square."""


def _exact_sqrt(value: Fraction) -> Fraction:
    if value < 0:
        raise InexactSquareRoot("square root of negative rational %s" % value)
    num, den = value.numerator, value.denominator
    sn, sd = math.isqrt(num), math.isqrt(den)
    if sn * sn != num or sd * sd != den:
        raise InexactSquareRoot("%s is not a perfect rational square" % value)
    return Fraction(sn, sd)


def _sqrt(value, exact: bool):
    if exact:
        return _exact_sqrt(Fraction(value))
    if value < 0:
        raise InexactSquareRoot("square root of negative value %r" % value)
    return math.sqrt(value)


@dataclass(frozen=True)
class Poly2:
    """Polynomial c0 + c1*s + c2*s**2 over floats or exact rationals."""

    c0: Coeff = 0
    c1: Coeff = 0
    c2: Coeff = 0

    def __call__(self, s):
        return self.c0 + s * (self.c1 + s * self.c2)

    @property
    def degree(self) -> int:
        if self.c2 != 0:
            return 2
        if self.c1 != 0:
            return 1
        return 0

    def deriv(self) -> "Poly2":
        return Poly2(self.c1, 2 * self.c2, 0)

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return Poly2(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def scale(self, factor) -> "Poly2":
        return Poly2(factor * self.c0, factor * self.c1, factor * self.c2)

    def mul(self, other: "Poly2") -> "Poly2":
        """Product, provided the result still has degree <= 2."""
        c3 = self.c1 * other.c2 + self.c2 * other.c1
        c4 = self.c2 * other.c2
        if c3 != 0 or c4 != 0:
            raise ValueError("product exceeds degree 2")
        return Poly2(
            self.c0 * other.c0,
            self.c0 * other.c1 + self.c1 * other.c0,
            self.c0 * other.c2 + self.c1 * other.c1 + self.c2 * other.c0,
        )


@dataclass(frozen=True)
class NUProblem:
    """Coefficient triple (sigma, sigma_tilde, tau_tilde) defining the ODE."""

    sigma: Poly2
    sigma_tilde: Poly2
    tau_tilde: Poly2

    def __post_init__(self):
        if self.tau_tilde.degree > 1:
            raise ValueError("tau_tilde must have degree <= 1")


@dataclass(frozen=True)
class NUBranch:
    """One admissible (k, pi) pair with tau = tau_tilde + 2*pi."""

    k: Coeff
    pi: Poly2
    tau: Poly2
    sign: int  # which root branch of pi was taken, +1 or -1


@dataclass(frozen=True)
class NUSolution:
    """Selected branch together with the problem it solves."""

    problem: NUProblem
    branch: NUBranch

    @property
    def lambda_const(self):
        """Branch eigenvalue constant k + pi'."""
        return self.branch.k + self.branch.pi.c1

    def lambda_n(self, n: int):
        """Polynomial-solution eigenvalue -n*tau' - n(n-1)/2 * sigma''."""
        if n < 0:
            raise ValueError("n must be a nonnegative integer")
        sigma_pp = 2 * self.problem.sigma.c2
        return -n * self.branch.tau.c1 - (n * (n - 1) // 2) * sigma_pp


def _canonical(problem: NUProblem):
    """Coerce coefficients into a single field; returns (problem, exact)."""
    coeffs = []
    for poly in (problem.sigma, problem.sigma_tilde, problem.tau_tilde):
        coeffs.extend((poly.c0, poly.c1, poly.c2))
    exact = not any(isinstance(c, float) for c in coeffs)
    if exact:
        conv = lambda c: c if isinstance(c, Fraction) else Fraction(c)
    else:
        conv = float
    polys = [
        Poly2(conv(p.c0), conv(p.c1), conv(p.c2))
        for p in (problem.sigma, problem.sigma_tilde, problem.tau_tilde)
    ]
    return NUProblem(*polys), exact


def _half_poly(problem: NUProblem, exact: bool) -> Poly2:
    """(sigma' - tau_tilde) / 2, the polynomial part of pi."""
    half = Fraction(1, 2) if exact else 0.5
    return (problem.sigma.deriv() - problem.tau_tilde).scale(half)


def _vanishes(value, parts, exact: bool) -> bool:
    """Structural zero test: value is a sum of the given parts and is zero
    only when it cancels to roundoff relative to their magnitudes."""
    if exact:
        return value == 0
    scale = max((abs(p) for p in parts), default=0)
    return scale == 0 or abs(value) <= 1e-13 * scale


def _radicand_parts(problem: NUProblem, exact: bool):
    """Radicand of the pi formula written as q(s) + k * sigma(s)."""
    half = _half_poly(problem, exact)
    return half.mul(half) - problem.sigma_tilde


def _square_tol(rad: Poly2, exact: bool):
    """Largest perfect-square residual of the radicand accepted as zero."""
    return 0 if exact else TOLERANCE * max(abs(rad.c0), abs(rad.c1), abs(rad.c2), 1)


def k_candidates(problem: NUProblem) -> list:
    """All real k for which the pi radicand can be a perfect square.

    The radicand q(s) + k*sigma(s) is quadratic in s with k-linear
    coefficients; requiring its s-discriminant to vanish gives a quadratic
    (or linear) equation in k.  Returns the real roots sorted ascending; a
    double root appears once.
    """
    problem, exact = _canonical(problem)
    if problem.sigma.is_zero():
        raise DegenerateSigma("sigma is identically zero")
    q = _radicand_parts(problem, exact)
    sg = problem.sigma
    # s-discriminant of (q2 + k*sg2) s^2 + (q1 + k*sg1) s + (q0 + k*sg0)
    a = sg.c1 * sg.c1 - 4 * sg.c2 * sg.c0
    b = 2 * q.c1 * sg.c1 - 4 * (q.c2 * sg.c0 + q.c0 * sg.c2)
    c = q.c1 * q.c1 - 4 * q.c2 * q.c0
    a_zero = _vanishes(a, (sg.c1 * sg.c1, 4 * sg.c2 * sg.c0), exact)
    b_zero = _vanishes(b, (2 * q.c1 * sg.c1, 4 * q.c2 * sg.c0, 4 * q.c0 * sg.c2), exact)
    c_zero = _vanishes(c, (q.c1 * q.c1, 4 * q.c2 * q.c0), exact)

    if a_zero:
        if b_zero:
            if c_zero:
                raise NUError("k-equation vanishes identically; every k admissible")
            raise NoRealK("k-equation is a nonzero constant")
        return [-c / b]
    # b^2 - 4ac without its cancellation (both terms near 4 alpha^2, radially)
    square = q.c2 * sg.c0 - q.c0 * sg.c2
    cross = (q.c2 * sg.c1 - q.c1 * sg.c2) * (q.c1 * sg.c0 - q.c0 * sg.c1)
    disc = 16 * (square * square - cross)
    disc_zero = _vanishes(disc, (16 * square * square, 16 * cross), exact)
    if disc < 0 and not disc_zero:
        raise NoRealK("negative discriminant %r in the k-equation" % disc)
    if disc_zero:
        return [-b / (2 * a)]
    root = _exact_sqrt(Fraction(disc)) if exact else math.sqrt(disc)
    lo = (-b - root) / (2 * a)
    hi = (-b + root) / (2 * a)
    return sorted((lo, hi))


def pi_candidates(problem: NUProblem, k) -> list:
    """Both sign branches of pi for a k from :func:`k_candidates`.

    Returns ``[(+1, pi_plus), (-1, pi_minus)]`` where each pi is a degree <= 1
    polynomial; collapses to a single entry when the square-root polynomial is
    identically zero.  Raises ``NotPerfectSquare`` when the radicand at this k
    does not reduce to the square of a real linear polynomial.
    """
    problem, exact = _canonical(problem)
    if not exact:
        k = float(k)
    half = _half_poly(problem, exact)
    q = _radicand_parts(problem, exact)
    rad = q + problem.sigma.scale(k)
    a, b, c = rad.c2, rad.c1, rad.c0
    a_zero = _vanishes(a, (q.c2, k * problem.sigma.c2), exact)
    b_zero = _vanishes(b, (q.c1, k * problem.sigma.c1), exact)
    c_zero = _vanishes(c, (q.c0, k * problem.sigma.c0), exact)
    tol = _square_tol(rad, exact)

    if a_zero:
        if not b_zero:
            raise NotPerfectSquare("radicand is linear in s for k=%r" % k)
        if c < 0 and not c_zero:
            raise NotPerfectSquare("radicand is a negative constant for k=%r" % k)
        c_val = 0 if c_zero and c < 0 else c
        root_poly = Poly2(_sqrt(c_val, exact), 0, 0)
    else:
        if a < 0:
            raise NotPerfectSquare("radicand opens downward for k=%r" % k)
        sa = _sqrt(a, exact)
        residual = c - b * b / (4 * a)
        if abs(residual) > tol:
            raise NotPerfectSquare(
                "perfect-square residual %r exceeds tolerance for k=%r" % (residual, k)
            )
        root_poly = Poly2(b / (2 * sa), sa, 0)

    if root_poly.is_zero():
        return [(+1, half)]
    return [(+1, half + root_poly), (-1, half - root_poly)]


def branch_candidates(problem: NUProblem) -> list:
    """Enumerate every (k, sign) branch with tau assembled.

    k values whose radicand opens downward (no real square root) are skipped;
    they cannot produce a real pi.
    """
    out = []
    for k in k_candidates(problem):
        try:
            pis = pi_candidates(problem, k)
        except NotPerfectSquare:
            continue
        for sign, pi in pis:
            tau = problem.tau_tilde + pi.scale(2)
            out.append(NUBranch(k=k, pi=pi, tau=tau, sign=sign))
    return out


def _tau_zero_on_end(problem: NUProblem, branch: NUBranch, end) -> bool:
    """True when the zero of tau sits on the domain end ``end`` (finite).

    tau = sigma' + 2*(pi - half), and (pi - half)^2 is the radicand
    q + k*sigma up to the perfect-square tolerance, so tau(end) = 0 exactly
    when sigma'(end)^2 = 4*radicand(end), on the branch whose tau(end) is
    nearer 0 than 2*sigma'(end).  That gap is tested in place of tau(end):
    in float mode the computed tau(end) carries the perfect-square tolerance,
    amplified where k nearly cancels against sigma_tilde (the radial problem
    at small eps).
    """
    if not math.isfinite(end):
        return False
    problem, exact = _canonical(problem)
    sp = problem.sigma.deriv()(end)
    tau_end = branch.tau(end)
    if abs(tau_end) > abs(tau_end - 2 * sp):
        return False
    rad = _radicand_parts(problem, exact) + problem.sigma.scale(branch.k)
    return abs(sp * sp - 4 * rad(end)) <= 4 * _square_tol(rad, exact)


def select_branch(problem: NUProblem, candidates, *, domain=None) -> NUBranch:
    """Pick the branch whose tau has a negative slope.

    With ``domain=(lo, hi)`` the classical refinement is applied as well: the
    zero of tau must lie strictly inside the interval, which is what makes the
    weight function integrable there; a zero on a finite end, to the precision
    of the perfect-square test (exactly, for exact coefficients), is not inside.
    Plain slope filtering can legitimately leave two branches (both sign
    choices share tau' when tau_tilde' = 0), in which case ``AmbiguousBranch``
    is raised rather than guessing.
    """
    admissible = [br for br in candidates if br.tau.c1 < 0]
    if domain is not None:
        lo, hi = domain
        admissible = [
            br for br in admissible
            if lo < -br.tau.c0 / br.tau.c1 < hi
            and not any(_tau_zero_on_end(problem, br, end) for end in (lo, hi))]
    if not admissible:
        raise NoValidBranch("no branch with tau' < 0%s" % (
            " and tau root inside the domain" if domain is not None else ""))
    if len(admissible) > 1:
        raise AmbiguousBranch(admissible)
    return admissible[0]


def solve(problem: NUProblem, *, domain=None) -> NUSolution:
    """Run the full reduction: k roots, pi branches, branch selection."""
    branch = select_branch(problem, branch_candidates(problem), domain=domain)
    return NUSolution(problem=problem, branch=branch)


def radial_coulomb_problem(alpha, gamma, epsilon) -> NUProblem:
    """Reduced radial problem g'' + (-eps^2 r^2 + alpha r - gamma)/r^2 g = 0.

    This is the normal form of a Coulomb attraction alpha/r with an
    inverse-square term gamma/r^2 at binding parameter epsilon; sigma = r,
    tau_tilde = 0.
    """
    return NUProblem(
        sigma=Poly2(0, 1, 0),
        sigma_tilde=Poly2(-gamma, alpha, -epsilon * epsilon),
        tau_tilde=Poly2(0, 0, 0),
    )


def quantize_epsilon(alpha: float, gamma: float, n_radial: int, *, verify: bool = False) -> float:
    """Binding parameter fixed by matching the two eigenvalue expressions.

    Solves 2*N*eps = alpha - eps*(1 + sqrt(4*gamma + 1)) for eps > 0:

        eps = alpha / (2*N + 1 + sqrt(4*gamma + 1))

    With ``verify=True`` the value is cross-checked against
    :func:`quantize_epsilon_bisect`, an independent numeric root through the
    engine, to a relative 1e-10.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n_radial < 0:
        raise ValueError("n_radial must be a nonnegative integer")
    if 4.0 * gamma + 1.0 < 0:
        raise InvalidGamma("4*gamma + 1 = %r < 0" % (4.0 * gamma + 1.0))
    eps = alpha / (2 * n_radial + 1 + math.sqrt(4.0 * gamma + 1.0))
    if verify:
        other = quantize_epsilon_bisect(alpha, gamma, n_radial)
        if abs(other - eps) > 1e-10 * eps:
            raise NUError(
                "closed form %r and engine root %r disagree" % (eps, other))
    return eps


def quantize_epsilon_bisect(alpha: float, gamma: float, n_radial: int,
                            rel_tol: float = 1e-12) -> float:
    """Root of lambda_const(eps) - lambda_n(eps), bracketed, by Brent's method.

    Every evaluation rebuilds the radial problem at the trial eps and runs
    the full engine (k roots, branch selection on (0, inf)), so this shares
    no algebra with the closed form in :func:`quantize_epsilon`.  The bracket
    grows down from eps = alpha by factors of 4 until the mismatch changes
    sign; Brent's iteration (inverse quadratic, secant, bisection fallback;
    Brent 1973, ch. 4) then brackets the root to a relative ``rel_tol``.  The
    ``_bisect`` name is kept for existing callers.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if 4.0 * gamma + 1.0 < 0:
        raise InvalidGamma("4*gamma + 1 = %r < 0" % (4.0 * gamma + 1.0))

    def mismatch(eps):
        sol = solve(radial_coulomb_problem(alpha, gamma, eps), domain=(0.0, math.inf))
        return sol.lambda_const - sol.lambda_n(n_radial)

    a, fa = b, fb = alpha, mismatch(alpha)
    for _ in range(61):
        if fb == 0 or (fa > 0) != (fb > 0):
            break
        a, fa = b, fb
        b = 0.25 * a
        fb = mismatch(b)
    else:
        raise NUError("no sign change bracketing the quantized epsilon")

    # Brent's zero: b is the best estimate, c keeps f(c) of the other sign
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if fb == 0:
            return b
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = (0.5 * rel_tol + 2.0 * sys.float_info.epsilon) * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = mismatch(b)
    raise NUError("Brent iteration did not converge on the quantized epsilon")
