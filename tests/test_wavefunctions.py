"""Wavefunction normalization, factorization and special-value tests."""

import cmath
import contextlib
import io
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import lpmv

from ringcoulomb import cli, quadrature, spectrum, wavefunctions as wf
import references
from references import jacobi, sin_power

CONSTS = spectrum.PhysicalConstants()


def hydrogen_state():
    return wf.bound_state(spectrum.PotentialParams(a=1.0), CONSTS,
                          spectrum.QuantumNumbers(0, 0, 0))


def shape_norm_by_quadrature(n: int, mp: float) -> float:
    """Integral of [sin^m' P_n^(m',m')(cos)]^2 sin(theta) over (0, pi)."""

    def integrand(theta):
        shape = sin_power(theta, mp) * jacobi(n, mp, mp, np.cos(theta))
        return shape * shape * np.sin(theta)

    return references.integrate(integrand, 0.0, math.pi, tol=1e-12).value


class TestNormalizationConstant:
    def test_hydrogen_value(self):
        assert math.exp(wf.log_normalization_C(0, 0.0, 1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_scaled_decay(self):
        assert math.exp(wf.log_normalization_C(0, 0.0, 2.0)) == pytest.approx(
            math.sqrt(32.0), rel=1e-14)

    def test_epsilon_scaling_law(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            N = int(rng.integers(0, 5))
            L = rng.uniform(-0.4, 3.0)
            eps = rng.uniform(0.2, 4.0)
            want = (L + 1.5) * math.log(eps) + wf.log_normalization_C(N, L, 1.0)
            # C to 1e-12 relative is log C to 1e-12 absolute
            assert wf.log_normalization_C(N, L, eps) == pytest.approx(want, abs=1e-12)

    def test_input_guards(self):
        with pytest.raises(ValueError):
            wf.log_normalization_C(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            wf.log_normalization_C(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            wf.log_normalization_C(0, 0.0, 0.0)

    def test_overflow(self):
        # C itself overflows or underflows a float here; log C does neither
        for eps in (1e300, 1e-300):
            assert math.isfinite(wf.log_normalization_C(0, 1e3, eps))

    def test_underflowed_decay_rate(self):
        entry = spectrum.energy(spectrum.PotentialParams(a=1e-300, b=1e100),
                                spectrum.PhysicalConstants(), spectrum.QuantumNumbers(0, 0, 0))
        assert entry.epsilon == 0.0
        with pytest.raises(spectrum.OutOfRange, match="epsilon"):
            wf.radial_state_of(entry, 3)

    @mpmath.workdps(50)
    def test_against_mpmath(self):
        # C**2 = (2 eps)**(2L+3) N! / (2 (N+L+1) Gamma(N+2L+2)), compared as
        # C where C is a normal float, as in every case before there was log C
        compared = 0
        for N in (0, 1, 5, 50, 150, 400):
            for L in (-0.45, 0.0, 0.7, 3.2, 20.0, 150.2):
                for eps in (0.05, 0.7, 3.0, 40.0):
                    Nm, Lm, em = mpmath.mpf(N), mpmath.mpf(L), mpmath.mpf(eps)
                    want = mpmath.sqrt(
                        (2 * em) ** (2 * Lm + 3) * mpmath.factorial(Nm)
                        / (2 * (Nm + Lm + 1) * mpmath.gamma(Nm + 2 * Lm + 2)))
                    if not sys.float_info.min <= want <= sys.float_info.max:
                        continue
                    got = math.exp(wf.log_normalization_C(N, L, eps))
                    assert got == pytest.approx(float(want), rel=1e-11)
                    compared += 1
        assert compared > 100


class TestRadial:
    def test_hydrogen_ground_state_shape(self):
        state = hydrogen_state().radial
        r = np.linspace(0.0, 8.0, 50)
        assert np.allclose(wf.radial_R(state, r), 2.0 * np.exp(-r), rtol=1e-12)

    def test_origin_vanishes_for_positive_power(self):
        state = wf.RadialState(N=0, L=1.0, epsilon=1.0, D=3,
                               log_C=wf.log_normalization_C(0, 1.0, 1.0))
        assert wf.radial_R(state, 0.0) == 0.0

    def test_unit_norm_random_states(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            N = int(rng.integers(0, 5))
            L = rng.uniform(-0.45, 3.0)
            D = int(rng.integers(2, 7))
            eps = rng.uniform(0.3, 3.0)
            state = wf.RadialState(N=N, L=L, epsilon=eps, D=D,
                                   log_C=wf.log_normalization_C(N, L, eps))
            res = references.radial_norm_integral(state)
            assert res.value == pytest.approx(1.0, abs=1e-8)


class TestSupport:
    """RadialState.support, the wavefunction grid's default r_max."""

    @staticmethod
    def tail(state: wf.RadialState, r_max: float, tol: float) -> float:
        """The norm of R^2 r^(D-1) beyond r_max."""
        def density(r):
            return np.exp(2.0 * wf.log_radial_R(state, r)[1] + (state.D - 1) * np.log(r))

        # past 4 r_max the decaying density holds nothing that counts here
        assert density(4.0 * r_max) * r_max < 1e-30
        return references.integrate(density, r_max, 4.0 * r_max, tol=tol).value

    @pytest.mark.parametrize("N", [10, 50, 100, 200, 400])
    def test_default_r_max_holds_the_state(self, N):
        # the envelope rule alone left 1.6e-9 of the norm out at N = 10, and
        # 0.197, 0.536, 0.651 and 0.712 at N = 50 .. 400
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["wavefunction", "--a", "1", "--N", str(N),
                             "--nr", "2", "--ntheta", "2"]) == 0
        r_max = float(re.search(r"^# r_max=(.*)$", out.getvalue(), re.M).group(1))
        state = wf.radial_state(spectrum.PotentialParams(a=1.0), CONSTS,
                                spectrum.QuantumNumbers(N, 0, 0))
        assert 0.0 < self.tail(state, r_max, 1e-13) <= 1e-10

    @pytest.mark.parametrize("N, L", [(0, 0.0), (3, 0.4), (10, 2.0), (40, 7.5), (150, 30.0)])
    def test_tail_within_the_share(self, N, L):
        state = wf.RadialState(N=N, L=L, epsilon=0.6, D=4,
                               log_C=wf.log_normalization_C(N, L, 0.6))
        for share in (1e-6, 1e-10, 1e-14):
            assert self.tail(state, state.support(share), 1e-3 * share) <= share

    def test_small_N_keeps_the_envelope_rule(self):
        # byte-identical grids for N <= 2, which every golden file and the
        # density benchmark use
        for N in range(3):
            for L in (-0.45, 0.0, 0.7, 2.2, 5.0, 12.0, 40.0, 100.0):
                for eps, D in ((0.1, 2), (0.9, 3), (7.0, 5)):
                    state = wf.RadialState(N=N, L=L, epsilon=eps, D=D,
                                           log_C=wf.log_normalization_C(N, L, eps))
                    want = quadrature.decay_cutoff(2.0 * L + 2.0 + 2.0 * N, 2.0 * eps,
                                                   drop=1e-12)
                    assert state.support(1e-10) == want, (N, L, eps, D)


class TestAngular:
    def test_isotropic_ground_state(self):
        state = wf.angular_state(0, 0.0, 3)
        theta = np.linspace(0.0, math.pi, 20)
        assert np.allclose(wf.angular_H(state, theta), math.sqrt(0.5), rtol=1e-14)
        assert not state.adjusted

    def test_poles_vanish_for_positive_m_prime(self):
        state = wf.angular_state(1, 1.3, 3)
        assert wf.angular_H(state, 0.0) == 0.0
        assert wf.angular_H(state, math.pi) == 0.0

    def test_printed_prefactor_misnormalization_is_recorded(self):
        # the textbook constant normalizes only the lowest cases; n=1, m'=1
        # comes out at 4/9 and must be flagged and corrected
        state = wf.angular_state(1, 1.0, 3)
        assert state.adjusted
        assert state.printed_integral == pytest.approx(4.0 / 9.0, abs=1e-10)
        state = wf.angular_state(0, 2.0, 3)
        assert state.printed_integral == pytest.approx(1.0 / 9.0, abs=1e-10)

    def test_printed_prefactor_against_jacobi_norm(self):
        for n in range(4):
            for mp in (0.0, 0.5, 1.0, 1.7, 2.0, 3.1):
                state = wf.angular_state(n, mp, 3)
                want = (state.printed_norm ** 2) * shape_norm_by_quadrature(n, mp)
                assert state.printed_integral == pytest.approx(want, rel=1e-9)

    @mpmath.workdps(50)
    def test_log_jacobi_norm_against_mpmath(self):
        # DLMF 18.3 with alpha = beta = m'; large indices are where the float
        # log-Gamma differences cancel most
        for n in (0, 1, 2, 5, 60, 150, 300):
            for mp in (0, 0.3, 1, 2.7, 60, 150, 300):
                m = mpmath.mpf(mp)
                want = ((2 * m + 1) * mpmath.log(2) + 2 * mpmath.loggamma(n + m + 1)
                        - mpmath.log(2 * n + 2 * m + 1) - mpmath.loggamma(n + 1)
                        - mpmath.loggamma(n + 2 * m + 1))
                assert wf.log_jacobi_norm(n, float(mp)) == pytest.approx(float(want),
                                                                         rel=1e-11)

    @pytest.mark.parametrize("mp", [30.0, 50.0, 50.000001, 51.0, 1e3, 1e10, 1e20, 1e50, 1e100])
    def test_log_jacobi_norm_at_large_m_prime(self, mp):
        # past JACOBI_NORM_LARGE_MP the log-Gamma sum cancels to nothing; the
        # reference carries log10(m') more digits so that its own sum keeps 50
        with mpmath.workdps(50 + int(math.log10(mp))):
            m = mpmath.mpf(mp)
            for n in range(6):
                want = ((2 * m + 1) * mpmath.log(2) + 2 * mpmath.loggamma(n + m + 1)
                        - mpmath.log(2 * n + 2 * m + 1) - mpmath.loggamma(n + 1)
                        - mpmath.loggamma(n + 2 * m + 1))
                assert wf.log_jacobi_norm(n, mp) == pytest.approx(float(want), rel=2e-15)

    def test_norm_is_always_the_closed_form(self):
        # the textbook prefactor is a diagnostic; the norm is h_n^(-1/2) either way
        for n, mp, adjusted in ((0, 0.0, False), (1, 0.0, False), (1, 1.0, True),
                                (0, 2.0, True)):
            state = wf.angular_state(n, mp, 3)
            assert state.adjusted is adjusted
            assert state.log_norm == -0.5 * wf.log_jacobi_norm(n, mp)

    def test_every_state_is_unit_normalized(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            n = int(rng.integers(0, 5))
            mp = rng.uniform(0.0, 3.5)
            D = int(rng.integers(2, 7))
            state = wf.angular_state(n, mp, D)
            assert references.angular_norm_integral(state).value == pytest.approx(1.0,
                                                                          abs=1e-8)

    def test_matches_normalized_associated_legendre(self):
        # beta = 0, D = 3, integer m: compare with the classical
        # Theta_lm = sqrt((2l+1)(l-m)!/(2(l+m)!)) P_l^m(cos) up to a sign
        theta = np.linspace(0.15, math.pi - 0.15, 80)
        for ell in range(5):
            for m in range(ell + 1):
                n = ell - m
                state = wf.angular_state(n, float(m), 3)
                got = wf.angular_H(state, theta)
                norm = math.sqrt((2 * ell + 1) * math.factorial(ell - m)
                                 / (2.0 * math.factorial(ell + m)))
                want = norm * lpmv(m, ell, np.cos(theta))
                sign = math.copysign(1.0, got[0] * want[0])
                assert np.allclose(got, sign * want, atol=1e-10)

    def test_high_dimension_fallback_is_numeric(self):
        # l' - m' <= -1 makes the printed constant meaningless; the state
        # must still come out unit-normalized
        state = wf.angular_state(0, 2.0, 10)
        assert state.adjusted and math.isnan(state.printed_norm)
        assert references.angular_norm_integral(state).value == pytest.approx(1.0, abs=1e-8)


class TestAzimuthal:
    """The azimuthal factor exp(sign i m phi) / sqrt(2 pi), as psi carries it."""

    PARAMS = spectrum.PotentialParams(a=1.4, b=0.3, beta=1.5)

    def state(self, m):
        return wf.bound_state(self.PARAMS, CONSTS, spectrum.QuantumNumbers(1, 1, m))

    def test_constant_mode(self):
        state = self.state(0)
        r, theta = 0.8, 1.1
        real = (wf.radial_R(state.radial, r) * wf.angular_H(state.angular, theta)
                / math.sqrt(2.0 * math.pi))
        for phi in (0.0, 1.234, 6.0):
            assert state.psi(r, theta, phi) == pytest.approx(real, rel=1e-14)

    def test_periodicity(self):
        phis = np.array([0.0, 0.7, 3.1])
        for m in range(4):
            state = self.state(m)
            for phi in phis:
                a = state.psi(0.8, 1.1, phi)
                b = state.psi(0.8, 1.1, phi + 2.0 * math.pi)
                assert abs(a - b) <= 1e-13 * abs(a)
            a = state.psi(0.8, 1.1, phis)
            b = state.psi(0.8, 1.1, phis + 2.0 * math.pi)
            assert np.all(np.abs(a - b) <= 1e-13 * np.abs(a))

    def test_unit_measure(self):
        # |Phi|^2 is constant 1/(2 pi); its integral over a period is one
        state = self.state(3)
        r, theta = 0.8, 1.1
        real = wf.radial_R(state.radial, r) * wf.angular_H(state.angular, theta)
        for phi in (0.0, 0.42, 5.0):
            dens = abs(state.psi(r, theta, phi)) ** 2
            assert dens * 2.0 * math.pi == pytest.approx(real * real, rel=1e-13)

    def test_sign_flag(self):
        state = self.state(2)
        plus = state.psi(0.8, 1.1, 0.9, +1)
        minus = state.psi(0.8, 1.1, 0.9, -1)
        assert plus.imag != 0.0
        assert plus == pytest.approx(minus.conjugate(), rel=1e-15)
        point = wf.EvalPoint(r=0.8, theta=1.1, phi=0.9)
        assert wf.total_psi(self.PARAMS, CONSTS, state.quantum, point, -1) == minus
        for sign in (0, 5, -2):
            with pytest.raises(ValueError):
                state.psi(0.8, 1.1, 0.9, sign)
            with pytest.raises(ValueError):
                state.psi(0.8, 1.1, np.array([0.9]), sign)
            with pytest.raises(ValueError):
                wf.total_psi(self.PARAMS, CONSTS, state.quantum, point, sign)


class TestTotalPsi:
    def test_hydrogen_origin_density(self):
        state = hydrogen_state()
        val = abs(state.psi(0.0, 0.4, 1.1)) ** 2
        assert val == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_factorizes_into_three_parts(self):
        params = spectrum.PotentialParams(a=1.4, b=0.3, c=0.2, beta=1.5, D=4)
        q = spectrum.QuantumNumbers(1, 2, 1)
        state = wf.bound_state(params, CONSTS, q)
        rng = np.random.default_rng(19)
        for _ in range(100):
            r = rng.uniform(0.05, 12.0)
            theta = rng.uniform(0.05, math.pi - 0.05)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            combined = state.psi(r, theta, phi)
            product = (wf.radial_R(state.radial, r)
                       * wf.angular_H(state.angular, theta)
                       * cmath.exp(1j * q.m * phi) / math.sqrt(2.0 * math.pi))
            assert abs(combined - product) <= 1e-12 * abs(product)

    def test_total_psi_wrapper(self):
        params = spectrum.PotentialParams(a=1.0)
        q = spectrum.QuantumNumbers(0, 0, 0)
        point = wf.EvalPoint(r=1.0, theta=0.5, phi=0.25)
        direct = wf.total_psi(params, CONSTS, q, point)
        state = wf.bound_state(params, CONSTS, q)
        assert direct == state.psi(1.0, 0.5, 0.25)

    def test_full_space_unit_norm(self):
        rng = np.random.default_rng(29)
        cases = [
            (spectrum.PotentialParams(a=1.0), spectrum.QuantumNumbers(0, 0, 0)),
            (spectrum.PotentialParams(a=1.6, b=0.4, c=0.0, beta=1.2, D=3),
             spectrum.QuantumNumbers(1, 1, 1)),
            (spectrum.PotentialParams(a=2.2, b=0.1, c=-0.3, beta=0.6, D=5),
             spectrum.QuantumNumbers(0, 2, 1)),
        ]
        nodes, weights = np.polynomial.legendre.leggauss(120)
        theta = 0.5 * math.pi * (nodes + 1.0)
        w_theta = 0.5 * math.pi * weights
        for params, q in cases:
            state = wf.bound_state(params, CONSTS, q)
            r_max = state.radial.support(1e-16)

            def theta_integrated(r_values):
                out = np.empty_like(r_values)
                for i, r in enumerate(r_values):
                    out[i] = float(np.dot(w_theta, state.density(float(r), theta)))
                return out

            res = references.integrate(theta_integrated, 0.0, r_max, tol=1e-9)
            assert res.value * 2.0 * math.pi == pytest.approx(1.0, abs=1e-6)

    def test_eval_point_validation(self):
        with pytest.raises(ValueError):
            wf.EvalPoint(r=-1.0, theta=0.5, phi=0.0)
        with pytest.raises(ValueError):
            wf.EvalPoint(r=1.0, theta=4.0, phi=0.0)
        with pytest.raises(ValueError):
            wf.EvalPoint(r=1.0, theta=0.5, phi=-0.1)

    def test_eval_point_phi_period_is_half_open(self):
        with pytest.raises(ValueError, match="phi"):
            wf.EvalPoint(r=1.0, theta=0.5, phi=2 * math.pi)
        wf.EvalPoint(r=1.0, theta=0.5, phi=math.nextafter(2 * math.pi, 0.0))


def mp_density_factors(state: wf.BoundState, r: float, theta: float) -> tuple:
    """R^2 r^(D-1) and H^2 sin(theta) / (2 pi) of the paper's closed form, whose
    product is the density, at the working precision of mpmath, with Laguerre
    and Jacobi values from mpmath's own hypergeometric sums."""
    rad, ang, D = state.radial, state.angular, state.params.D
    L, eps, N = mpmath.mpf(rad.L), mpmath.mpf(rad.epsilon), rad.N
    C2 = ((2 * eps) ** (2 * L + 3) * mpmath.factorial(N)
          / (2 * (N + L + 1) * mpmath.gamma(N + 2 * L + 2)))
    r = mpmath.mpf(r)
    radial = (C2 * r ** (2 * L + 2) * mpmath.exp(-2 * eps * r)
              * mpmath.laguerre(N, 2 * L + 1, 2 * eps * r) ** 2)
    mp, n = mpmath.mpf(ang.m_prime), ang.n
    h = (2 ** (2 * mp + 1) * mpmath.gamma(n + mp + 1) ** 2
         / ((2 * n + 2 * mp + 1) * mpmath.factorial(n) * mpmath.gamma(n + 2 * mp + 1)))
    theta = mpmath.mpf(theta)
    polar = (mpmath.sin(theta) ** (2 * mp + 1) * mpmath.jacobi(n, mp, mp, mpmath.cos(theta)) ** 2
             / (2 * mpmath.pi * h))
    return radial, polar


class TestLargeQuantumNumbers:
    """C underflows or overflows, h_n overflows, or the Laguerre recurrence
    overflows, at these valid states; the log-domain kernels keep every
    density that a float can hold."""

    @pytest.mark.parametrize("a, N, n, m, least", [
        pytest.param(1.0, 0, 150, 0, 900, id="0-150-0"),
        pytest.param(1.0, 0, 0, 300, 900, id="0-0-300"),
        pytest.param(1.0, 60, 60, 60, 900, id="60-60-60"),
        pytest.param(1.0, 400, 0, 0, 900, id="400-0-0"),
        # C = exp(1034.7)
        pytest.param(1e8, 0, 0, 100, 900, id="a1e8-0-0-100"),
        # the smallest n = m with h_n = exp(709.9) past a float; sin^(2m'+1)
        # leaves about half of the polar samples in the float range
        pytest.param(1.0, 0, 831, 831, 600, id="0-831-831"),
    ])
    @mpmath.workdps(50)
    def test_cli_density_against_mpmath(self, a, N, n, m, least):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["wavefunction", "--a", repr(a), "--beta", "1", "--N", str(N),
                             "--n", str(n), "--m", str(m), "--nr", "50", "--ntheta", "30"])
        assert code == 0
        rows = [tuple(map(float, line.split(","))) for line in out.getvalue().splitlines()
                if line and line[0].isdigit()]
        assert len(rows) == 1500 and all(math.isfinite(d) for _, _, d in rows)
        state = wf.bound_state(spectrum.PotentialParams(a=a, beta=1.0), CONSTS,
                               spectrum.QuantumNumbers(N, n, m))
        radial = {r: mp_density_factors(state, r, 1.0)[0] for r, _, _ in rows[::30]}
        # the mesh's ends are the poles, where H takes sin(pi - theta) = 0
        polar = {theta: mp_density_factors(state, 1.0, theta)[1] for _, theta, _ in rows[1:29]}
        compared = 0
        for r, theta, density in rows:
            if theta in polar:
                want = radial[r] * polar[theta]
                if sys.float_info.min <= want <= sys.float_info.max:
                    assert abs(density - want) <= 1e-10 * want, (r, theta)
                    compared += 1
        assert compared > least
