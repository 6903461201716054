"""Finite-difference eigensolvers against known spectra and negative controls."""

import collections
import itertools
import math

import numpy as np
import pytest

from ringcoulomb import oracle, spectrum
from ringcoulomb.oracle import (
    GridSpec,
    GridTooCoarse,
    OracleError,
    SpectrumPollution,
    VerifyTolerances,
)

CONSTS = spectrum.PhysicalConstants()


def closed_form_e(alpha, gamma, N):
    return -alpha**2 / (2 * N + 1 + math.sqrt(4.0 * gamma + 1.0)) ** 2


class TestRadialEigen:
    def test_hydrogen_ground_state(self):
        grid = oracle.radial_grid_for(2.0, 0.0, 1)
        res = oracle.radial_eigen(2.0, 0.0, grid, 1)
        assert res.richardson[0] == pytest.approx(-1.0, rel=1e-5)

    def test_inverse_square_core(self):
        grid = oracle.radial_grid_for(2.0, 2.0, 1)
        res = oracle.radial_eigen(2.0, 2.0, grid, 1)
        assert res.richardson[0] == pytest.approx(-0.25, rel=1e-4)

    def test_spacing_law(self):
        gamma = 2.0
        grid = oracle.radial_grid_for(2.0, gamma, 2)
        res = oracle.radial_eigen(2.0, gamma, grid, 2)
        q = math.sqrt(4.0 * gamma + 1.0)
        want = ((1.0 + q) / (3.0 + q)) ** 2
        assert res.richardson[1] / res.richardson[0] == pytest.approx(want,
                                                                      rel=1e-4)

    def test_bound_count_with_decay_rule(self):
        grid = oracle.radial_grid_for(2.0, 0.0, 5)
        res = oracle.radial_eigen(2.0, 0.0, grid, 5)
        assert np.all(res.richardson < 0.0)
        assert np.all(np.diff(res.eigenvalues) > 0.0)

    def test_second_order_convergence_on_smooth_case(self):
        # integer indicial exponent, so the raw error is cleanly O(h^2)
        grid = GridSpec(x_min=0.0, x_max=40.0 / (2.0 / 6.0), n_points=800,
                        refinement_levels=4)
        res = oracle.radial_eigen(2.0, 2.0, grid, 1)
        target = closed_form_e(2.0, 2.0, 0)
        errs = [abs(lv[0] - target) for lv in res.levels]
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(3.0 <= r <= 5.0 for r in ratios)

    def test_gamma_domain_guard(self):
        grid = GridSpec(x_min=0.0, x_max=40.0, n_points=200)
        with pytest.raises(OracleError):
            oracle.radial_eigen(2.0, -0.1, grid, 1)

    def test_truncated_start_keeps_plain_coefficients(self):
        # an x_min > 0 grid must still converge (hydrogen-like, s states)
        grid = GridSpec(x_min=1e-6, x_max=40.0, n_points=1500)
        res = oracle.radial_eigen(2.0, 0.0, grid, 1)
        assert res.richardson[0] == pytest.approx(-1.0, rel=1e-4)


class TestAngularEigen:
    def test_legendre_ladder(self):
        res = oracle.angular_eigen(0, 0.0, CONSTS, oracle.angular_grid(), 4)
        for n, want in enumerate((0.0, 2.0, 6.0, 12.0)):
            assert res.richardson[n] == pytest.approx(want, abs=1e-5)

    def test_order_one_ladder(self):
        res = oracle.angular_eigen(1, 0.0, CONSTS, oracle.angular_grid(), 3)
        for n, want in enumerate((2.0, 6.0, 12.0)):
            assert res.richardson[n] == pytest.approx(want, abs=1e-5)

    def test_ring_shifted_ground_value(self):
        # m=3, beta=8 gives m'=5 and Lambda_0 = 30 - 16 = 14
        res = oracle.angular_eigen(3, 8.0, CONSTS, oracle.angular_grid(), 1)
        assert res.richardson[0] == pytest.approx(14.0, abs=1e-4)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            oracle.angular_eigen(-1, 0.0, CONSTS, oracle.angular_grid(), 1)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=1.0, x_max=0.5)
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=1.0, n_points=10)
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0, x_max=1.0, refinement_levels=1)


class TestGridOutOfRange:
    """Grids or matrices beyond the float range raise GridOutOfRange."""

    def test_decay_too_slow_for_a_finite_grid(self):
        with pytest.raises(oracle.GridOutOfRange, match="finite grid"):
            oracle.radial_grid_for(1e-320, 1e10, 1)

    def test_grid_step_underflows(self):
        grid = oracle.radial_grid_for(2e200, 0.0, 1, n_points=64, refinement_levels=2)
        with pytest.raises(oracle.GridOutOfRange, match="underflows"):
            oracle.radial_eigen(2e200, 0.0, grid, 1)

    def test_matrix_entries_beyond_a_float(self):
        grid = oracle.angular_grid(n_points=64, refinement_levels=2)
        with np.errstate(invalid="ignore"), \
                pytest.raises(oracle.GridOutOfRange, match="float range"):
            oracle.angular_eigen(0, 1e308, spectrum.PhysicalConstants(mu=2.0), grid, 1)


class TestConvergenceGuards:
    @pytest.mark.parametrize("k_states", [65, 2**70], ids=["one_more", "2**70"])
    @pytest.mark.parametrize("solve", [
        lambda grid, k: oracle.radial_eigen(1.0, 0.0, grid, k),
        lambda grid, k: oracle.angular_eigen(0, 0.0, CONSTS, grid, k),
    ], ids=["radial", "angular"])
    def test_more_states_than_base_grid_nodes(self, solve, k_states):
        grid = GridSpec(0.0, math.pi, n_points=64, refinement_levels=2)
        with pytest.raises(GridTooCoarse, match="nodes of the base grid"):
            solve(grid, k_states)

    def test_grid_too_coarse_on_growing_differences(self):
        levels = [np.array([1.0]), np.array([1.1]), np.array([1.4])]
        with pytest.raises(GridTooCoarse):
            oracle._check_level_convergence(levels, [1.0, 1.0, 1.0])

    def test_pollution_on_gap_sized_jump(self):
        levels = [np.array([1.0, 1.2]), np.array([1.15, 1.21]),
                  np.array([1.19, 1.21])]
        with pytest.raises(SpectrumPollution):
            oracle._check_level_convergence(levels, [1.0, 1.0, 1.0])

    def test_noise_floor_exempts_converged_values(self):
        levels = [np.array([1.0]), np.array([1.0 + 1e-13]),
                  np.array([1.0 + 5e-13])]
        oracle._check_level_convergence(levels, [1e3, 1e3, 1e3])


class TestOdeResiduals:
    def test_radial_residual_small_for_valid_states(self):
        cases = [
            (spectrum.PotentialParams(a=1.0), spectrum.QuantumNumbers(0, 0, 0)),
            (spectrum.PotentialParams(a=1.5, b=0.5, c=0.3, beta=2.0, D=4),
             spectrum.QuantumNumbers(1, 1, 1)),
            (spectrum.PotentialParams(a=2.0, b=0.012, c=0.0, beta=0.01, D=3),
             spectrum.QuantumNumbers(2, 0, 0)),
        ]
        for params, q in cases:
            resid, scale = oracle.radial_ode_residual(
                params, CONSTS, spectrum.energy(params, CONSTS, q))
            assert resid <= 1e-6 * scale

    def test_radial_residual_detects_wrong_energy(self):
        params = spectrum.PotentialParams(a=1.0)
        q = spectrum.QuantumNumbers(0, 0, 0)
        resid, scale = oracle.radial_ode_residual(
            params, CONSTS, spectrum.energy(params, CONSTS, q), energy_offset=1e-2)
        assert resid > 1e-6 * scale

    def test_angular_residual_small_for_valid_states(self):
        cases = [
            (spectrum.PotentialParams(a=1.0), spectrum.QuantumNumbers(0, 1, 0)),
            (spectrum.PotentialParams(a=1.0, beta=2.0), spectrum.QuantumNumbers(0, 1, 1)),
            (spectrum.PotentialParams(a=1.0, beta=8.0, D=5),
             spectrum.QuantumNumbers(0, 2, 2)),
        ]
        for params, q in cases:
            resid, scale = oracle.angular_ode_residual(
                params, CONSTS, spectrum.energy(params, CONSTS, q))
            assert resid <= 1e-6 * scale


class TestVerifyState:
    def test_hydrogen_passes_all_checks(self):
        report = oracle.verify_state(spectrum.PotentialParams(a=1.0), CONSTS,
                                     spectrum.QuantumNumbers(0, 0, 0))
        assert report.passed
        assert {c.name for c in report.checks} == {
            "angular_lambda", "radial_energy", "radial_ode_residual",
            "angular_ode_residual"}

    def test_perturbed_energy_fails_radial_check(self):
        report = oracle.verify_state(spectrum.PotentialParams(a=1.0), CONSTS,
                                     spectrum.QuantumNumbers(0, 0, 0),
                                     energy_offset=1e-2)
        status = {c.name: c.status for c in report.checks}
        assert status["radial_energy"] == "fail"
        assert not report.passed

    def test_small_gamma_stress_case(self):
        # b slightly above beta with both small: gamma just above zero, the
        # radial power index close to its lower admissible range
        params = spectrum.PotentialParams(a=1.0, b=0.012, c=0.0, beta=0.01, D=3)
        q = spectrum.QuantumNumbers(0, 0, 0)
        eff = spectrum.effective_indices(params, CONSTS, q)
        assert 0.0 < eff.gamma < 0.2
        report = oracle.verify_state(params, CONSTS, q)
        assert report.passed

    def test_report_serialization(self):
        report = oracle.verify_state(spectrum.PotentialParams(a=1.0), CONSTS,
                                     spectrum.QuantumNumbers(0, 0, 0),
                                     VerifyTolerances(energy_rel=1e-3))
        payload = report.as_dict()
        assert set(payload) == {"checks"}
        for check in payload["checks"]:
            assert set(check) == {"name", "status", "value", "target",
                                  "tolerance", "error_estimate"}


class TestVerifyStates:
    PARAMS = spectrum.PotentialParams(a=1.2, b=0.3, c=0.0, beta=1.5, D=4)
    STATES = [spectrum.QuantumNumbers(N, n, m)
              for N, n, m in itertools.product(range(3), range(2), range(2))]

    def test_reports_equal_the_per_state_reports(self):
        reports = oracle.verify_states(self.PARAMS, CONSTS, self.STATES)
        assert reports == [oracle.verify_state(self.PARAMS, CONSTS, q)
                           for q in self.STATES]

    def test_one_angular_solve_per_n_m_and_one_radial_solve_per_state(self, monkeypatch):
        angular, radial = collections.Counter(), collections.Counter()
        angular_eigen, radial_eigen = oracle.angular_eigen, oracle.radial_eigen

        def counted_angular(m, beta, consts, grid, k_states):
            angular[k_states - 1, m] += 1
            return angular_eigen(m, beta, consts, grid, k_states)

        def counted_radial(alpha, gamma, grid, k_states):
            radial[alpha, gamma, k_states - 1] += 1
            return radial_eigen(alpha, gamma, grid, k_states)

        monkeypatch.setattr(oracle, "angular_eigen", counted_angular)
        monkeypatch.setattr(oracle, "radial_eigen", counted_radial)
        oracle.verify_states(self.PARAMS, CONSTS, self.STATES)
        assert angular == {(n, m): 1 for n in range(2) for m in range(2)}
        assert sum(radial.values()) == len(self.STATES) == 12
        assert set(radial.values()) == {1}

    def test_energy_offset_fails_only_the_radial_checks(self):
        # the offset shifts E, which the shared angular checks never see
        clean = oracle.verify_states(self.PARAMS, CONSTS, self.STATES)
        shifted = oracle.verify_states(self.PARAMS, CONSTS, self.STATES,
                                       energy_offset=1e-2)
        for before, after in zip(clean, shifted):
            assert {c.name for c in after.checks if not c.passed} == {
                "radial_energy", "radial_ode_residual"}
            assert ([c for c in after.checks if c.name.startswith("angular")]
                    == [c for c in before.checks if c.name.startswith("angular")])
