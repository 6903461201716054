"""Tests for the closed-form spectrum and its limiting cases."""

import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest

from ringcoulomb import spectrum
from ringcoulomb.spectrum import (
    FallToCenter,
    NoBoundState,
    PhysicalConstants,
    PotentialParams,
    QuantumNumbers,
)

import references

CONSTS = PhysicalConstants()


def hydrogen_params():
    return PotentialParams(a=1.0, b=0.0, c=0.0, beta=0.0, D=3)


class TestEffectiveMagneticIndex:
    def test_beta_zero_identity(self):
        assert spectrum.m_prime(4, 0.0, CONSTS) == 4.0

    def test_exact_pythagorean_case(self):
        assert spectrum.m_prime(3, 8.0, CONSTS) == pytest.approx(5.0)

    def test_m_zero(self):
        assert spectrum.m_prime(0, 2.0, CONSTS) == pytest.approx(2.0)


class TestEffectiveOrbitalIndex:
    def test_all_zero(self):
        assert spectrum.ell_prime(0, 0.0, 3) == 0.0

    def test_three_dimensions_integer_sum(self):
        for n in range(6):
            for m in range(6):
                assert spectrum.ell_prime(n, float(m), 3) == pytest.approx(n + m,
                                                                           abs=1e-12)

    def test_higher_dimension_spot_value(self):
        # l' solves x(x + 3) = (1+2)(1+2+1) = 12 in five dimensions
        want = max(np.roots([1.0, 3.0, -12.0]))
        got = spectrum.ell_prime(1, 2.0, 5)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(2.27492, abs=5e-6)

    def test_defining_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(0, 7))
            mp = rng.uniform(0.0, 4.0)
            D = int(rng.integers(2, 9))
            lp = spectrum.ell_prime(n, mp, D)
            lhs = lp * (lp + D - 2)
            rhs = (n + mp) * (n + mp + 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestJacobiIndexRoundTrip:
    def test_trivial(self):
        assert references.jacobi_index(0.0, 0.0, 3) == 0.0

    def test_three_dimensional_spot(self):
        # l'=3, m'=1 at D=3: -(3/2) + 7/2 = 2
        assert references.jacobi_index(3.0, 1.0, 3) == pytest.approx(2.0)

    def test_round_trip_spot(self):
        lp = spectrum.ell_prime(2, 1.5, 6)
        assert references.jacobi_index(lp, 1.5, 6) == pytest.approx(2.0, abs=1e-10)

    def test_round_trip_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(0, 7))
            mp = rng.uniform(0.0, 4.0)
            D = int(rng.integers(2, 9))
            lp = spectrum.ell_prime(n, mp, D)
            assert abs(references.jacobi_index(lp, mp, D) - n) <= 1e-10


class TestSeparationConstant:
    def test_beta_zero(self):
        for n in range(4):
            for D in (2, 3, 5):
                lp = spectrum.ell_prime(n, 1.0, D)
                lam = spectrum.separation_constant(lp, D, 0.0, CONSTS)
                assert lam == pytest.approx(lp * (lp + D - 2), rel=1e-12)

    def test_ring_shifted_value(self):
        # mu=hbar=1, n=0, m=0, beta=2: m'=2 so Lambda = 2*3 - 4 = 2
        mp = spectrum.m_prime(0, 2.0, CONSTS)
        lp = spectrum.ell_prime(0, mp, 3)
        assert spectrum.separation_constant(lp, 3, 2.0, CONSTS) == pytest.approx(2.0)

    def test_four_dimensions(self):
        mp = spectrum.m_prime(1, 0.0, CONSTS)
        lp = spectrum.ell_prime(1, mp, 4)
        assert spectrum.separation_constant(lp, 4, 0.0, CONSTS) == pytest.approx(6.0)


class TestRadialParams:
    def test_textbook_coulomb(self):
        params = PotentialParams(a=1.0, b=0.0, c=0.0, beta=0.0, D=3)
        for ell in range(4):
            alpha, gamma, _ = spectrum.radial_params(params, CONSTS,
                                                     float(ell * (ell + 1)))
            assert alpha == pytest.approx(2.0)
            assert gamma == pytest.approx(ell * (ell + 1))

    def test_five_dimensions_s_wave(self):
        params = PotentialParams(a=1.0, b=0.0, c=0.0, beta=0.0, D=5)
        _, _, nu_t = spectrum.radial_params(params, CONSTS, 0.0)
        assert nu_t == pytest.approx(2.0)

    def test_inverse_square_strength(self):
        params = PotentialParams(a=1.0, b=1.0, c=0.0, beta=0.0, D=3)
        _, gamma, _ = spectrum.radial_params(params, CONSTS, 0.0)
        assert gamma == pytest.approx(2.0)

    def test_fall_to_center(self):
        params = PotentialParams(a=1.0, b=0.0, c=0.0, beta=0.0, D=3)
        with pytest.raises(FallToCenter):
            spectrum.radial_params(params, CONSTS, -3.0)

    def test_complex_ell_reported_as_nan(self):
        params = PotentialParams(a=1.0, b=1.0, c=0.0, beta=0.0, D=3)
        _, _, nu_t = spectrum.radial_params(params, CONSTS, -0.3)
        assert math.isfinite(nu_t)


class TestEnergy:
    def test_hydrogen_ground_state(self):
        entry = spectrum.energy(hydrogen_params(), CONSTS, QuantumNumbers(0, 0, 0))
        assert entry.E == pytest.approx(-0.5, rel=1e-14)

    def test_hydrogen_first_excited(self):
        entry = spectrum.energy(hydrogen_params(), CONSTS, QuantumNumbers(0, 1, 0))
        assert entry.E == pytest.approx(-0.125, rel=1e-14)

    def test_constant_shift_is_additive(self):
        base = spectrum.energy(PotentialParams(a=1.3, b=0.4, c=0.0, beta=0.7, D=4),
                               CONSTS, QuantumNumbers(1, 1, 1)).E
        for delta in (0.5, -2.0, 7.25):
            shifted = spectrum.energy(
                PotentialParams(a=1.3, b=0.4, c=delta, beta=0.7, D=4),
                CONSTS, QuantumNumbers(1, 1, 1)).E
            assert shifted == pytest.approx(base + delta, rel=1e-14, abs=1e-14)

    def test_no_bound_state_without_coulomb_well(self):
        with pytest.raises(NoBoundState):
            spectrum.energy(PotentialParams(a=0.0, b=1.0, c=0.0, beta=0.0, D=3),
                            CONSTS, QuantumNumbers(0, 0, 0))

    def test_bound_state_contract(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            params = PotentialParams(
                a=rng.uniform(0.1, 5.0), b=rng.uniform(0.0, 5.0),
                c=rng.uniform(-5.0, 5.0), beta=rng.uniform(0.0, 5.0),
                D=int(rng.integers(2, 9)))
            q = QuantumNumbers(int(rng.integers(0, 7)), int(rng.integers(0, 7)),
                               int(rng.integers(0, 7)))
            entry = spectrum.energy(params, CONSTS, q)
            assert entry.E < params.c
            assert entry.epsilon > 0
            # E = c - hbar^2 eps^2 / (2 mu) holds exactly by construction
            assert entry.E == params.c - CONSTS.hbar**2 * entry.epsilon**2 / (2 * CONSTS.mu)

    def test_strictly_increasing_in_radial_index(self):
        params = PotentialParams(a=2.0, b=0.5, c=0.1, beta=1.0, D=5)
        energies = [spectrum.energy(params, CONSTS, QuantumNumbers(N, 1, 1)).E
                    for N in range(8)]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_form_equivalence_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            params = PotentialParams(
                a=rng.uniform(0.1, 5.0), b=rng.uniform(0.0, 5.0),
                c=rng.uniform(-5.0, 5.0), beta=rng.uniform(0.0, 5.0),
                D=int(rng.integers(2, 9)))
            q = QuantumNumbers(int(rng.integers(0, 7)), int(rng.integers(0, 7)),
                               int(rng.integers(0, 7)))
            e35 = spectrum.energy(params, CONSTS, q)
            e37 = spectrum.energy_coulombic_form(params, CONSTS, q)
            scale = max(abs(e35.E), abs(e35.E - params.c))
            assert abs(e35.E - e37) <= 1e-12 * scale
            eps37 = references.epsilon_coulombic_form(params, CONSTS, q)
            assert eps37 == pytest.approx(e35.epsilon, rel=1e-12)

    def test_nu_tilde_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            params = PotentialParams(
                a=rng.uniform(0.1, 5.0), b=rng.uniform(0.0, 5.0),
                c=0.0, beta=rng.uniform(0.0, 5.0), D=int(rng.integers(2, 9)))
            q = QuantumNumbers(int(rng.integers(0, 5)), int(rng.integers(0, 5)),
                               int(rng.integers(0, 5)))
            eff = spectrum.effective_indices(params, CONSTS, q)
            lhs = 4.0 * eff.nu_tilde + 1.0
            rhs = (params.D - 2) ** 2 + 4.0 * eff.Lambda
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_domain_extension_flag(self):
        entry = spectrum.energy(PotentialParams(a=1.0, b=0.0, c=-1.0, beta=0.0, D=3),
                                CONSTS, QuantumNumbers(0, 0, 0))
        assert entry.domain_extension
        entry = spectrum.energy(hydrogen_params(), CONSTS, QuantumNumbers(0, 0, 0))
        assert not entry.domain_extension

    def test_nonstandard_constants_propagate(self):
        consts = PhysicalConstants(mu=2.0, hbar=0.5)
        entry = spectrum.energy(PotentialParams(a=1.0), consts, QuantumNumbers(0, 0, 0))
        # pure Coulomb ground state: E = -mu a^2 / (2 hbar^2)
        assert entry.E == pytest.approx(-2.0 / (2 * 0.25), rel=1e-12)


def _leaf_types(value):
    """The type of every scalar inside a (nested) dataclass."""
    if dataclasses.is_dataclass(value):
        return tuple(_leaf_types(getattr(value, f.name)) for f in dataclasses.fields(value))
    return type(value)


class TestGivenIndices:
    """energy(..., eff) with the indices of q's (n, m) equals energy(...) without them."""

    PARAMS = PotentialParams(a=1.3, b=0.4, c=-0.2, beta=0.7, D=5)

    @pytest.mark.parametrize("cast", [float, np.float64, int])
    @pytest.mark.parametrize("D", [2, 5])
    def test_given_indices_equal_computed_ones(self, cast, D):
        # integral values, so int params keep them; each scalar type keeps its
        # own type through the arithmetic, and both calls must keep the same
        params = PotentialParams(a=cast(2.0), b=cast(1.0), c=cast(0.0), beta=cast(3.0), D=D)
        consts = PhysicalConstants(mu=cast(1.0), hbar=cast(1.0))
        for n, m in itertools.product(range(4), range(3)):
            # one N's indices serve every N of the block, as in the CLI table
            eff = spectrum.effective_indices(params, consts, QuantumNumbers(0, n, m))
            for N in range(3):
                q = QuantumNumbers(N, n, m)
                given = spectrum.energy(params, consts, q, eff)
                computed = spectrum.energy(params, consts, q)
                assert given == computed
                assert _leaf_types(given) == _leaf_types(computed)

    def test_signed_zero_coulomb_strength_keeps_its_sign(self):
        q = QuantumNumbers(0, 1, 1)
        for a in (0.0, -0.0, 0.0):
            eff = spectrum.effective_indices(dataclasses.replace(self.PARAMS, a=a), CONSTS, q)
            assert math.copysign(1.0, eff.alpha) == math.copysign(1.0, a)


_MP_N = (0, 10**3, 10**6)
_MP_NM = (0, 10**3, 10**5)


@pytest.mark.parametrize("D", [2, 3, 10])
@pytest.mark.parametrize("beta", [0.0, 1e-8, 1.0, 1e4, 1e8])
def test_energy_matches_50_digit_reference(D, beta):
    """E = -(2a / (2N + 1 + sqrt(4 gamma + 1)))^2 / 2 at mu = hbar = 1, c = 0, with
    4 gamma + 1 = (D-2)^2 + 4 (n+m')(n+m'+1) - 8 beta + 8 b, evaluated at 50 digits."""
    a = 1.0
    worst = 0.0
    with mpmath.workdps(50):
        for b, N, n, m in itertools.product((0.0, 0.7, 1e4), _MP_N, _MP_NM, _MP_NM):
            entry = spectrum.energy(PotentialParams(a=a, b=b, beta=beta, D=D), CONSTS,
                                    QuantumNumbers(N, n, m))
            mp = mpmath.sqrt(m * m + 2 * mpmath.mpf(beta))
            four_gamma_1 = ((D - 2) ** 2 + 4 * (n + mp) * (n + mp + 1)
                            - 8 * mpmath.mpf(beta) + 8 * mpmath.mpf(b))
            ref = -(2 * mpmath.mpf(a) / (2 * N + 1 + mpmath.sqrt(four_gamma_1))) ** 2 / 2
            worst = max(worst, float(abs((entry.E - ref) / ref)))
    # the worst case, about 3e-12, is Lambda's cancellation at beta = 1e8
    assert worst <= 1e-11


class TestReductions:
    def test_cheng_dai_dual_path(self):
        for De, re, beta in [(1.0, 1.0, 0.0), (1.0, 1.0, 2.0), (0.7, 1.3, 1.1)]:
            q = QuantumNumbers(0, 0, 0)
            general = spectrum.reduce_cheng_dai(De, re, beta, CONSTS, q).E
            literal = spectrum.cheng_dai_literal(De, re, beta, CONSTS, q)
            assert abs(general - literal) <= 1e-12 * max(abs(general),
                                                         abs(general - De))

    def test_cheng_dai_beta_zero_matches_kratzer(self):
        q = QuantumNumbers(2, 1, 0)
        nested = spectrum.reduce_cheng_dai(1.5, 0.8, 0.0, CONSTS, q).E
        kratzer = spectrum.kratzer_literal(1.5, 0.8, CONSTS, 2, 1)
        assert nested == pytest.approx(kratzer, rel=1e-12)

    def test_kratzer_dual_path(self):
        general = spectrum.reduce_kratzer(2.0, 1.0, CONSTS, 1, 1).E
        literal = spectrum.kratzer_literal(2.0, 1.0, CONSTS, 1, 1)
        assert general == pytest.approx(literal, rel=1e-12)

    def test_kratzer_vanishing_well(self):
        for De in (1e-2, 1e-4, 1e-6):
            entry = spectrum.reduce_kratzer(De, 1.0, CONSTS, 0, 0)
            assert abs(entry.E) < 10 * De

    def test_ddim_dual_path(self):
        q = QuantumNumbers(1, 1, 1)
        for D, beta in [(3, 0.0), (5, 1.0), (4, 2.0)]:
            general = spectrum.reduce_ddim(1.2, 0.9, beta, CONSTS, q, D).E
            literal = spectrum.ddim_literal(1.2, 0.9, beta, CONSTS, q, D)
            assert general == pytest.approx(literal, rel=1e-12)

    def test_coulomb_ring_hydrogen_values(self):
        assert spectrum.reduce_coulomb_ring(
            1.0, 1.0, 0.0, CONSTS, QuantumNumbers(0, 0, 0)).E == pytest.approx(-0.5)
        literal = spectrum.coulomb_ring_literal(1.0, 1.0, 0.0, CONSTS,
                                                QuantumNumbers(0, 0, 0))
        assert literal == pytest.approx(-0.5, rel=1e-14)

    def test_coulomb_ring_degeneracy_is_exact(self):
        compositions = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
                        (0, 0, 2)]
        energies = {spectrum.reduce_coulomb_ring(
            1.0, 1.0, 0.0, CONSTS, QuantumNumbers(*c)).E for c in compositions}
        assert energies == {-1.0 / 18.0}

    def test_ring_strength_raises_energy(self):
        for q in [QuantumNumbers(0, 0, 0), QuantumNumbers(1, 0, 1),
                  QuantumNumbers(0, 2, 1)]:
            prev = spectrum.reduce_coulomb_ring(1.0, 1.0, 0.0, CONSTS, q).E
            for beta in (0.5, 1.0, 2.0, 4.0):
                cur = spectrum.reduce_coulomb_ring(1.0, 1.0, beta, CONSTS, q).E
                assert cur > prev
                prev = cur


class TestValidation:
    def test_negative_strengths_rejected(self):
        with pytest.raises(ValueError):
            PotentialParams(a=-1.0)
        with pytest.raises(ValueError):
            PotentialParams(a=1.0, b=-0.1)
        with pytest.raises(ValueError):
            PotentialParams(a=1.0, beta=-0.1)

    def test_dimension_lower_bound(self):
        with pytest.raises(ValueError):
            PotentialParams(a=1.0, D=1)

    def test_quantum_numbers_nonnegative(self):
        with pytest.raises(ValueError):
            QuantumNumbers(-1, 0, 0)

    def test_constants_positive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(mu=0.0)

    @pytest.mark.parametrize("field", ["a", "b", "c", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            PotentialParams(**{"a": 1.0, field: value})

    @pytest.mark.parametrize("field", ["mu", "hbar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constants_rejected(self, field, value):
        with pytest.raises(ValueError):
            PhysicalConstants(**{field: value})

    @pytest.mark.parametrize("hbar", [1e200, 1e-200])
    def test_hbar_squared_must_be_a_float(self, hbar):
        # hbar itself is finite, but every formula divides by hbar^2
        with pytest.raises(ValueError, match="hbar"):
            PhysicalConstants(hbar=hbar)


class TestOutOfRange:
    """Valid inputs whose arithmetic leaves the float range raise a typed error."""

    @pytest.mark.parametrize("a, mu", [(1e308, 1.0), (5e-324, 0.1)])
    def test_alpha_beyond_a_float(self, a, mu):
        # 2 mu a / hbar^2 overflows to inf or underflows to 0
        with pytest.raises(spectrum.OutOfRange, match="alpha"):
            spectrum.energy(PotentialParams(a=a), PhysicalConstants(mu=mu),
                            QuantumNumbers(0, 0, 0))

    def test_ring_strength_beyond_a_float(self):
        # 2 mu beta / hbar^2 = inf makes m' infinite and 4*gamma + 1 nan
        with pytest.raises(spectrum.OutOfRange):
            spectrum.energy(PotentialParams(a=1.0, beta=1e308), PhysicalConstants(mu=2.0),
                            QuantumNumbers(0, 0, 0))

    @pytest.mark.parametrize("a", [1e160, 1e200])
    def test_energy_beyond_a_float(self, a):
        # alpha and epsilon are finite, but hbar^2 eps^2 / (2 mu) overflows
        with pytest.raises(spectrum.OutOfRange, match="E = -inf"):
            spectrum.energy(PotentialParams(a=a), CONSTS, QuantumNumbers(0, 0, 0))

    def test_a_zero_still_has_indices(self):
        eff = spectrum.effective_indices(PotentialParams(a=0.0), CONSTS, QuantumNumbers(0, 1, 0))
        assert eff.alpha == 0.0

