"""Tests for the Nikiforov-Uvarov reduction engine."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from ringcoulomb import nu
from ringcoulomb.nu import (
    AmbiguousBranch,
    DegenerateSigma,
    InexactSquareRoot,
    InvalidGamma,
    NoRealK,
    NoValidBranch,
    NUBranch,
    NUProblem,
    Poly2,
)


def radial(alpha, gamma, eps):
    return nu.radial_coulomb_problem(alpha, gamma, eps)


class TestPoly2:
    def test_eval_and_derivative(self):
        p = Poly2(1, -2, 3)
        assert p(2.0) == 1 - 4 + 12
        assert p.deriv()(2.0) == -2 + 12
        assert p.degree == 2
        assert Poly2(5).degree == 0

    def test_product_degree_guard(self):
        with pytest.raises(ValueError):
            Poly2(0, 1).mul(Poly2(0, 0, 1))


class TestKCandidates:
    def test_unit_coulomb(self):
        # eps=1, alpha=2, gamma=0: the k-equation roots are alpha -+ eps
        assert nu.k_candidates(radial(2.0, 0.0, 1.0)) == [1.0, 3.0]

    def test_symmetric_case(self):
        # sigma_tilde = -r^2 alone: symmetric roots
        p = NUProblem(Poly2(0, 1), Poly2(0, 0, -1), Poly2())
        assert nu.k_candidates(p) == [-1, 1]

    def test_scaled_case(self):
        # eps=2, alpha=6, gamma=2: 6 -+ 2*sqrt(9)
        assert nu.k_candidates(radial(6.0, 2.0, 2.0)) == [0.0, 12.0]

    def test_matches_closed_form_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            alpha = rng.uniform(0.1, 10.0)
            gamma = rng.uniform(0.0, 20.0)
            eps = rng.uniform(0.05, 5.0)
            ks = nu.k_candidates(radial(alpha, gamma, eps))
            root = eps * math.sqrt(4.0 * gamma + 1.0)
            assert ks[0] == pytest.approx(alpha - root, rel=1e-12)
            assert ks[1] == pytest.approx(alpha + root, rel=1e-12)

    def test_degenerate_sigma(self):
        with pytest.raises(DegenerateSigma):
            nu.k_candidates(NUProblem(Poly2(), Poly2(0, 1), Poly2()))

    def test_no_real_k(self):
        # 4*gamma + 1 < 0 makes the k-discriminant negative
        with pytest.raises(NoRealK):
            nu.k_candidates(radial(2.0, -1.0, 1.0))

    def test_double_root_collapses_to_one(self):
        # 4*gamma + 1 = 0: single k with multiplicity two
        ks = nu.k_candidates(radial(F(2), F(-1, 4), F(1)))
        assert ks == [F(2)]

    def test_exact_mode_returns_fractions(self):
        ks = nu.k_candidates(radial(F(2), F(0), F(1)))
        assert ks == [F(1), F(3)] and all(isinstance(k, F) for k in ks)


class TestPiCandidates:
    def test_four_branch_table(self):
        # the two k's give root polynomials eps*r +- sqrt(4 gamma + 1)/2
        prob = radial(F(2), F(2), F(1))
        q = F(3)  # sqrt(9)
        k_lo, k_hi = nu.k_candidates(prob)
        pis_lo = dict(nu.pi_candidates(prob, k_lo))
        pis_hi = dict(nu.pi_candidates(prob, k_hi))
        half = F(1, 2)
        assert pis_lo[+1] == Poly2(half - q / 2, F(1))
        assert pis_lo[-1] == Poly2(half + q / 2, F(-1))
        assert pis_hi[+1] == Poly2(half + q / 2, F(1))
        assert pis_hi[-1] == Poly2(half - q / 2, F(-1))

    def test_unit_coulomb_low_k(self):
        # eps=1, alpha=2, gamma=0, k=1: pi in {r, 1 - r}
        pis = [p for _, p in nu.pi_candidates(radial(2.0, 0.0, 1.0), 1.0)]
        assert Poly2(0.0, 1.0, 0.0) in pis
        assert Poly2(1.0, -1.0, 0.0) in pis

    def test_inconsistent_k_rejected(self):
        with pytest.raises(nu.NotPerfectSquare):
            nu.pi_candidates(radial(2.0, 0.0, 1.0), 1.7)

    def test_perfect_square_residual_on_random_draws(self):
        # reconstructing the radicand from pi must give zero residual
        rng = np.random.default_rng(99)
        for _ in range(200):
            prob = radial(rng.uniform(0.1, 8.0), rng.uniform(0.0, 15.0),
                          rng.uniform(0.05, 4.0))
            for k in nu.k_candidates(prob):
                for _, pi in nu.pi_candidates(prob, k):
                    # (pi - half)^2 == radicand, coefficientwise
                    half = 0.5
                    root = Poly2(pi.c0 - half, pi.c1, 0)
                    sq = root.mul(root)
                    eps2 = -prob.sigma_tilde.c2
                    gamma = -prob.sigma_tilde.c0
                    alpha = prob.sigma_tilde.c1
                    rad = Poly2(gamma + 0.25, k - alpha, eps2)
                    for got, want in zip((sq.c0, sq.c1, sq.c2),
                                         (rad.c0, rad.c1, rad.c2)):
                        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestSelectBranch:
    def test_radial_selection_with_domain(self):
        sol = nu.solve(radial(F(2), F(0), F(1)), domain=(0, math.inf))
        assert sol.branch.k == F(1)
        assert sol.branch.pi == Poly2(F(1), F(-1), F(0))
        assert sol.branch.tau == Poly2(F(2), F(-2), F(0))

    def test_tau_identity_and_negativity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            prob = radial(rng.uniform(0.1, 8.0), rng.uniform(0.0, 15.0),
                          rng.uniform(0.05, 4.0))
            for br in nu.branch_candidates(prob):
                tt = prob.tau_tilde
                assert br.tau.c0 == pytest.approx(tt.c0 + 2 * br.pi.c0, rel=1e-12)
                assert br.tau.c1 == pytest.approx(tt.c1 + 2 * br.pi.c1, rel=1e-12)
            sel = nu.select_branch(prob, nu.branch_candidates(prob),
                                   domain=(0.0, math.inf))
            assert sel.tau.c1 < 0

    def test_bare_call_is_ambiguous_for_the_radial_family(self):
        # both sign branches share tau' = -2*eps when tau_tilde = 0, so slope
        # filtering alone cannot decide; the domain refinement is required
        with pytest.raises(AmbiguousBranch) as err:
            nu.select_branch(radial(2.0, 0.0, 1.0),
                             nu.branch_candidates(radial(2.0, 0.0, 1.0)))
        assert len(err.value.branches) == 2

    def test_tau_zero_on_the_domain_end_is_outside(self):
        # the float example has tau = 3.3e-16 - 0.0875 r on the wrong branch
        sol = nu.solve(radial(0.1, 0.0, 0.04375), domain=(0.0, math.inf))
        assert sol.branch.tau.c0 == pytest.approx(2.0)
        sol = nu.solve(radial(F(1, 10), F(0), F(7, 160)), domain=(0, math.inf))
        assert sol.branch.tau == Poly2(F(2), F(-7, 80), F(0))

    def test_all_positive_slopes_rejected(self):
        prob = radial(2.0, 0.0, 1.0)
        fake = [NUBranch(k=1.0, pi=Poly2(0.0, 1.0), tau=Poly2(0.0, 2.0), sign=+1),
                NUBranch(k=3.0, pi=Poly2(0.0, 2.0), tau=Poly2(0.0, 4.0), sign=+1)]
        with pytest.raises(NoValidBranch):
            nu.select_branch(prob, fake)


class TestEigenvalueExpressions:
    def test_lambda_n_at_zero(self):
        sol = nu.solve(radial(2.0, 0.0, 1.0), domain=(0.0, math.inf))
        assert sol.lambda_n(0) == 0

    def test_lambda_n_radial(self):
        # selected branch has tau' = -2*eps, sigma'' = 0: lambda_n = 2*n*eps
        sol = nu.solve(radial(2.0, 0.0, 1.0), domain=(0.0, math.inf))
        assert sol.lambda_n(3) == pytest.approx(6.0)

    def test_lambda_n_synthetic_quadratic_sigma(self):
        # sigma'' = 2 and tau' = -2: lambda_2 = 4 - 2 = 2
        prob = NUProblem(Poly2(0, 0, 1), Poly2(), Poly2())
        branch = NUBranch(k=0.0, pi=Poly2(0.0, -1.0), tau=Poly2(1.0, -2.0), sign=-1)
        sol = nu.NUSolution(problem=prob, branch=branch)
        assert sol.lambda_n(2) == 2

    def test_lambda_const_examples(self):
        sol = nu.solve(radial(2.0, 0.0, 1.0), domain=(0.0, math.inf))
        assert sol.lambda_const == pytest.approx(0.0)
        sol = nu.solve(radial(2.0, 0.0, 0.5), domain=(0.0, math.inf))
        assert sol.lambda_const == pytest.approx(1.0)
        branch = NUBranch(k=5.0, pi=Poly2(3.0, -2.0), tau=Poly2(6.0, -4.0), sign=-1)
        sol = nu.NUSolution(problem=radial(1.0, 0.0, 1.0), branch=branch)
        assert sol.lambda_const == 3.0


class TestQuantization:
    def test_closed_form_examples(self):
        assert nu.quantize_epsilon(2.0, 0.0, 0) == pytest.approx(1.0)
        assert nu.quantize_epsilon(2.0, 0.0, 1) == pytest.approx(0.5)
        assert nu.quantize_epsilon(2.0, 2.0, 0) == pytest.approx(0.5)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidGamma):
            nu.quantize_epsilon(2.0, -0.3, 0)
        with pytest.raises(InvalidGamma):
            nu.quantize_epsilon_bisect(2.0, -0.3, 0)

    def test_self_verification_runs(self):
        assert nu.quantize_epsilon(3.7, 4.2, 2, verify=True) > 0

    def test_bisection_agrees_with_closed_form(self, monkeypatch):
        # the engine root also stays within a dozen engine runs per quantization
        calls = []
        solve = nu.solve

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(nu, "solve", counting)
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha = rng.uniform(0.1, 10.0)
            gamma = rng.uniform(0.0, 20.0)
            n = int(rng.integers(0, 11))
            closed = nu.quantize_epsilon(alpha, gamma, n)
            calls.clear()
            numeric = nu.quantize_epsilon_bisect(alpha, gamma, n)
            assert abs(numeric - closed) <= 1e-10 * closed
            assert len(calls) <= 12

    def test_exact_endpoint_root_is_returned(self):
        # 4*gamma + 1 = 0 and N = 0 put the root at the bracket end eps = alpha
        for alpha in (0.1, 2.0, 3.7, 30.0):
            assert nu.quantize_epsilon_bisect(alpha, -0.25, 0) == alpha

    @pytest.mark.parametrize("k", [100.0, -100.0])
    def test_no_sign_change_raises(self, monkeypatch, k):
        # an engine whose mismatch k - 1 - 2N keeps one sign for every eps
        branch = NUBranch(k=k, pi=Poly2(0.0, -1.0), tau=Poly2(1.0, -2.0), sign=-1)
        monkeypatch.setattr(nu, "solve",
                            lambda problem, *, domain=None: nu.NUSolution(problem, branch))
        with pytest.raises(nu.NUError, match="no sign change"):
            nu.quantize_epsilon_bisect(2.0, 1.0, 3)

    def test_verified_s_wave_grid(self):
        # gamma = 0: the wrong branch's tau zero sits at r = 0 up to roundoff
        for alpha in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 10.0, 30.0):
            for n in (0, 1, 5, 9):
                eps = nu.quantize_epsilon(alpha, 0.0, n, verify=True)
                assert eps == pytest.approx(alpha / (2 * n + 2), rel=1e-15)


    @pytest.mark.parametrize("N", [10**4, 10**5, 10**6])
    def test_large_radial_index(self, N):
        # b^2 and 4ac of the k-equation both approach 4 alpha^2 here
        eps = nu.quantize_epsilon(2.0, 5.0, N, verify=True)
        assert eps == pytest.approx(2.0 / (2 * N + 1 + math.sqrt(21.0)), rel=1e-12)
        # 4 gamma + 1 = 25 keeps every root rational, so exact mode runs too
        eps = F(2, 2 * N + 6)
        ks = nu.k_candidates(radial(2.0, 6.0, float(eps)))
        assert nu.k_candidates(radial(F(2), F(6), eps)) == [2 - 5 * eps, 2 + 5 * eps]
        assert ks == pytest.approx([float(2 - 5 * eps), float(2 + 5 * eps)], rel=1e-15)

class TestExactMode:
    def test_inexact_root_raises(self):
        # 4*gamma + 1 = 5 is not a perfect rational square
        with pytest.raises(InexactSquareRoot):
            nu.k_candidates(radial(F(2), F(1), F(1)))

    def test_full_pipeline_is_exact(self):
        eps, alpha, gamma, q = F(2), F(6), F(2), F(3)
        sol = nu.solve(radial(alpha, gamma, eps), domain=(0, math.inf))
        assert sol.branch.k == alpha - eps * q
        assert sol.branch.tau == Poly2(1 + q, -2 * eps, F(0))
        assert sol.lambda_n(4) == 8 * eps
        assert sol.lambda_const == alpha - eps * (1 + q)
