"""Adaptive quadrature against gamma-function integrals and Laguerre identities."""

import math

import numpy as np
import pytest

from ringcoulomb.quadrature import decay_cutoff
from references import NoConvergence, integrate, laguerre


class TestIntegrate:
    def test_gamma_integral(self):
        # integral of r^2 exp(-2r) over (0, inf) = 2!/2^3 = 1/4
        r_max = decay_cutoff(2.0, 2.0)
        res = integrate(lambda r: r**2 * np.exp(-2.0 * r), 0.0, r_max, tol=1e-12)
        assert res.value == pytest.approx(0.25, abs=1e-10)
        assert res.error < 1e-9

    def test_gamma_integrals_random_exponents(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.uniform(-0.4, 6.0)
            rate = rng.uniform(0.3, 4.0)
            r_max = decay_cutoff(p, rate)
            res = integrate(lambda r: r**p * np.exp(-rate * r), 0.0, r_max,
                            tol=1e-11)
            want = math.exp(math.lgamma(p + 1.0) - (p + 1.0) * math.log(rate))
            assert res.value == pytest.approx(want, rel=1e-8)

    def test_laguerre_orthogonality(self):
        # same-weight polynomials of different degree integrate to zero
        r_max = decay_cutoff(8.0, 1.0)

        def f(z):
            return z * np.exp(-z) * laguerre(2, 1.0, z) * laguerre(3, 1.0, z)

        res = integrate(f, 0.0, r_max, tol=1e-12)
        assert abs(res.value) <= 1e-9

    def test_laguerre_weighted_norm(self):
        # integral of z^(eta+1) e^-z [L_n^eta]^2 = (2n + eta + 1)(n + eta)!/n!
        # for n = 2, eta = 1 that is 6 * 3! / 2! = 18
        n, eta = 2, 1.0
        want = (2 * n + eta + 1) * math.gamma(n + eta + 1.0) / math.factorial(n)
        assert want == 18.0
        r_max = decay_cutoff(8.0, 1.0)

        def f(z):
            L = laguerre(n, eta, z)
            return z ** (eta + 1.0) * np.exp(-z) * L * L

        res = integrate(f, 0.0, r_max, tol=1e-12)
        assert res.value == pytest.approx(want, rel=1e-10)

    def test_endpoint_power_singularity(self):
        res = integrate(lambda x: x**-0.5, 0.0, 1.0, tol=1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-7)

    def test_divergent_integral_raises_with_best_estimate(self):
        with pytest.raises(NoConvergence) as err:
            integrate(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10, max_panels=500)
        assert math.isfinite(err.value.best)
        assert err.value.error > 1e-10

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)


class TestDecayCutoff:
    def test_envelope_is_negligible_at_cutoff(self):
        for power, rate in [(2.0, 2.0), (7.5, 0.4), (0.0, 1.0)]:
            r_max = decay_cutoff(power, rate, drop=1e-18)
            peak_r = max(power, 0.0) / rate
            peak = peak_r**power * math.exp(-rate * peak_r) if peak_r > 0 else 1.0
            tail = r_max**power * math.exp(-rate * r_max)
            assert tail <= 1.1e-18 * peak

    def test_positive_rate_required(self):
        with pytest.raises(ValueError):
            decay_cutoff(2.0, 0.0)
