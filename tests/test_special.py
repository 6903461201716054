"""Recurrence kernels against explicit finite-sum formulas, scipy and mpmath."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_jacobi

from ringcoulomb import special

from references import jacobi, laguerre, sin_power


def _binom(top: float, k: int) -> float:
    """Binomial coefficient with real top index via log-Gamma."""
    if k < 0:
        return 0.0
    out = 1.0
    for i in range(k):
        out *= (top - i) / (k - i)
    return out


def laguerre_series(n, eta, x):
    """Independent oracle: L_n^(eta)(x) = sum_i (-1)^i binom(n+eta, n-i) x^i / i!.

    Also returns the sum of term magnitudes; the alternating sum loses
    accuracy proportionally to it, which the comparison must budget for.
    """
    total = 0.0
    magnitude = 0.0
    for i in range(n + 1):
        term = (-1.0) ** i * _binom(n + eta, n - i) * x**i / math.factorial(i)
        total += term
        magnitude += abs(term)
    return total, magnitude


def jacobi_series(n, aa, bb, x):
    """Independent oracle: the hypergeometric finite sum for P_n^(aa,bb)(x)."""
    total = 0.0
    for s in range(n + 1):
        total += (_binom(n + aa, n - s) * _binom(n + bb, s)
                  * ((x - 1.0) / 2.0) ** s * ((x + 1.0) / 2.0) ** (n - s))
    return total


class TestLaguerre:
    def test_order_zero_is_one(self):
        for eta in (-0.5, 0.0, 1.7):
            for x in (0.0, 0.3, 10.0):
                assert laguerre(0, eta, x) == 1.0

    def test_order_one(self):
        for eta in (-0.5, 0.0, 2.5):
            for x in (0.0, 1.0, 4.2):
                assert laguerre(1, eta, x) == pytest.approx(1.0 + eta - x, rel=1e-15)

    def test_series_spot_value(self):
        # L_2^(0)(1) = (1 - 4 + 2)/2 = -1/2
        assert laguerre_series(2, 0.0, 1.0)[0] == pytest.approx(-0.5, rel=1e-14)
        assert laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, rel=1e-14)

    def test_recurrence_matches_series(self):
        for n in range(11):
            for eta in (-0.5, 0.0, 0.7, 1.0, 2.3, 5.0):
                for x in (0.0, 0.1, 1.0, 3.7, 9.0):
                    want, magnitude = laguerre_series(n, eta, x)
                    got = laguerre(n, eta, x)
                    # the alternating series itself rounds at eps * magnitude
                    budget = max(1e-12 * abs(want), 1e-12,
                                 200 * np.finfo(float).eps * magnitude)
                    assert abs(got - want) <= budget

    def test_against_scipy(self):
        x = np.linspace(0.0, 20.0, 50)
        for n in range(9):
            for eta in (0.0, 0.5, 1.0, 3.2):
                want = eval_genlaguerre(n, eta, x)
                got = laguerre(n, eta, x)
                assert np.allclose(got, want, rtol=1e-11, atol=1e-11)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)


class TestJacobi:
    def test_order_zero_is_one(self):
        assert jacobi(0, 0.7, 0.7, 0.3) == 1.0

    def test_symmetric_linear_case(self):
        for a in (0.0, 0.5, 2.0):
            for x in (-1.0, -0.2, 0.9):
                assert jacobi(1, a, a, x) == pytest.approx((a + 1.0) * x, rel=1e-14,
                                                           abs=1e-14)

    def test_series_spot_value(self):
        want = jacobi_series(2, 1.0, 1.0, 0.5)
        assert jacobi(2, 1.0, 1.0, 0.5) == pytest.approx(want, rel=1e-13)

    def test_recurrence_matches_series(self):
        for n in range(11):
            for a, b in [(0.0, 0.0), (0.5, 0.5), (1.0, 2.0), (2.7, 0.3),
                         (-0.5, 1.5)]:
                for x in (-0.9, -0.3, 0.0, 0.4, 1.0):
                    want = jacobi_series(n, a, b, x)
                    got = jacobi(n, a, b, x)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_against_scipy(self):
        x = np.linspace(-1.0, 1.0, 41)
        for n in range(9):
            for a, b in [(0.0, 0.0), (1.0, 1.0), (0.5, 2.5)]:
                want = eval_jacobi(n, a, b, x)
                got = jacobi(n, a, b, x)
                assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


class TestLogForm:
    """(sign, log|P|) where P itself overflows or underflows a float."""

    @mpmath.workdps(50)
    @pytest.mark.parametrize("family, n, params, x", [
        ("laguerre", 400, (3.0,), [0.5, 37.3, 900.0, 2500.0, 1e5]),
        ("laguerre", 60, (601.0,), [1.0, 700.0, 3e4]),
        ("jacobi", 1000, (1000.0, 1000.0), [-0.999, -0.3, 0.0, 0.61, 1.0]),
        ("jacobi", 300, (0.5, 2.5), [-1.0, -0.2, 0.95]),
    ])
    def test_against_mpmath(self, family, n, params, x):
        sign, log_abs = getattr(special, family)(n, *params, np.array(x))
        assert np.all(np.isfinite(log_abs))
        for s, got, point in zip(sign, log_abs, x):
            want = getattr(mpmath, family)(n, *params, point)
            assert s == mpmath.sign(want)
            assert got == pytest.approx(float(mpmath.log(abs(want))), rel=1e-12, abs=1e-11)

    def test_signs_and_small_values(self):
        # L_3(x) = (-x^3 + 9x^2 - 18x + 6) / 6: 1 at x = 0, -1/3 at x = 2
        sign, log_abs = special.laguerre(3, 0.0, np.array([0.0, 2.0]))
        assert list(sign) == [1.0, -1.0]
        assert np.exp(log_abs) == pytest.approx([1.0, 1.0 / 3.0], rel=1e-15)
        assert special.jacobi(0, 0.7, 0.7, 0.3) == (1.0, 0.0)


class TestSinPower:
    def test_zero_power_convention_at_poles(self):
        assert sin_power(0.0, 0) == 1.0
        assert sin_power(math.pi, 0) == 1.0

    def test_positive_power_vanishes_at_poles(self):
        assert sin_power(0.0, 1.5) == 0.0

    def test_matches_numpy_inside_domain(self):
        theta = np.linspace(0.05, math.pi - 0.05, 30)
        assert np.allclose(sin_power(theta, 2.5), np.sin(theta) ** 2.5)
