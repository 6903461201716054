"""Spectral eigensolvers against known spectra, accuracy grids and negative controls."""

import collections
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from ringcoulomb import oracle, spectrum, wavefunctions
from ringcoulomb.oracle import (
    BasisSizeError,
    GridSpec,
    OracleError,
    VerifyTolerances,
)

import references

# a NaN that a numpy warning announces must fail here, not print a row
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONSTS = spectrum.PhysicalConstants()
GRID = GridSpec()


def closed_form_e(alpha, gamma, N):
    return -alpha**2 / (2 * N + 1 + math.sqrt(4.0 * gamma + 1.0)) ** 2


class TestRadialEigen:
    def test_hydrogen_ground_state(self):
        res = oracle.radial_eigen(2.0, 0.0, GRID, 1)
        assert res.eigenvalues[0] == pytest.approx(-1.0, rel=1e-12)

    def test_inverse_square_core(self):
        res = oracle.radial_eigen(2.0, 2.0, GRID, 1)
        assert res.eigenvalues[0] == pytest.approx(-0.25, rel=1e-12)

    def test_spacing_law(self):
        gamma = 2.0
        res = oracle.radial_eigen(2.0, gamma, GRID, 2)
        q = math.sqrt(4.0 * gamma + 1.0)
        want = ((1.0 + q) / (3.0 + q)) ** 2
        assert res.eigenvalues[1] / res.eigenvalues[0] == pytest.approx(want, rel=1e-12)

    def test_bound_count_with_decay_rule(self):
        res = oracle.radial_eigen(2.0, 0.0, GRID, 5)
        assert np.all(res.eigenvalues < 0.0)
        assert np.all(np.diff(res.eigenvalues) > 0.0)

    def test_error_falls_with_basis_size(self):
        # the scale follows the slowest of ten states, so the basis decays far
        # more slowly than the ground state and converges on it only with K
        res = oracle.radial_eigen(2.0, 2.0, GridSpec(refinement_levels=3), 10)
        target = closed_form_e(2.0, 2.0, 0)
        errs = [abs(level[0] / target - 1.0) for level in res.levels]
        assert errs[0] > 1e-8 and 1e-12 < errs[1] < 1e-9 and errs[2] < 1e-13
        assert res.est_error[0] == abs(res.levels[-1][0] - res.levels[-2][0])

    def test_gamma_domain_guard(self):
        with pytest.raises(OracleError):
            oracle.radial_eigen(2.0, -0.1, GRID, 1)


class TestAngularEigen:
    def test_legendre_ladder(self):
        res = oracle.angular_eigen(0, 0.0, CONSTS, GRID, 4)
        for n, want in enumerate((0.0, 2.0, 6.0, 12.0)):
            assert res.eigenvalues[n] == pytest.approx(want, abs=1e-12)

    def test_order_one_ladder(self):
        res = oracle.angular_eigen(1, 0.0, CONSTS, GRID, 3)
        for n, want in enumerate((2.0, 6.0, 12.0)):
            assert res.eigenvalues[n] == pytest.approx(want, abs=1e-12)

    def test_ring_shifted_ground_value(self):
        # m=3, beta=8 gives m'=5 and Lambda_0 = 30 - 16 = 14
        res = oracle.angular_eigen(3, 8.0, CONSTS, GRID, 1)
        assert res.eigenvalues[0] == pytest.approx(14.0, abs=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            oracle.angular_eigen(-1, 0.0, CONSTS, GRID, 1)

    def test_exact_from_n_plus_one_functions(self):
        # the basis holds the eigenfunctions, so every K step agrees to roundoff
        res = oracle.angular_eigen(2, 0.35, CONSTS, GRID, 6)
        for level in res.levels:
            assert np.allclose(level, res.eigenvalues, rtol=0.0, atol=1e-12)


class TestAccuracyGrid:
    """Both solvers against the closed forms over the parameter ranges they serve."""

    @pytest.mark.parametrize("gamma", [0.0, 1e-8, 0.3, 2.0, 1e4, 1e6])
    def test_radial(self, gamma):
        # as verify uses it: state N is the slowest of the N + 1 solved for
        for N in (0, 1, 2, 5, 13, 30, 50):
            res = oracle.radial_eigen(1.3, gamma, GRID, N + 1)
            assert res.eigenvalues[N] == pytest.approx(closed_form_e(1.3, gamma, N),
                                                       rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("kappa", [0.0, 0.01, 0.3, 0.7, 2.0, 37.0, 1e3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_angular(self, m, kappa):
        # kappa = 0.01 and 0.3 at m = 0 give 0 < m' < 1
        consts = spectrum.PhysicalConstants(mu=0.5)      # kappa = beta
        res = oracle.angular_eigen(m, kappa, consts, GRID, 51)
        mp = math.sqrt(m * m + kappa)
        want = np.array([(n + mp) * (n + mp + 1.0) - kappa for n in range(51)])
        assert np.max(np.abs(res.eigenvalues - want) / np.maximum(1.0, want)) < 1e-12

    def test_large_basis_raises_no_warning(self):
        # the Christoffel sum of the outer nodes would overflow a float here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = oracle.radial_eigen(1.0, 0.3, GridSpec(n_points=2048), 95)
            ang = oracle.angular_eigen(1, 3.0, CONSTS, GridSpec(n_points=2048), 200)
        assert res.levels[-1].size == 95 and np.isfinite(res.eigenvalues).all()
        assert np.isfinite(ang.eigenvalues).all()


def _reference_basis(rule):
    """One rule's nodes and basis rows by a recurrence over its own nodes alone,
    families stacked; the batched pass must reproduce it bit for bit."""
    n = rule.size + 2
    j = np.arange(n, dtype=float)
    if rule.radial:
        a = rule.param
        diag = np.stack([2.0 * j, 2.0 * j + 2.0])
        off = np.sqrt(np.stack([j * (j + a), j * (j + a + 2.0)]))
        start, family = [1.0, 1.0 / math.sqrt((a + 1.0) * (a + 2.0))], 1
    else:
        p = rule.param
        off = np.zeros((1, n))
        off[0, 1] = 1.0 / math.sqrt(2.0 * p + 3.0)
        off[0, 2:] = np.sqrt(j[2:] * (j[2:] + 2.0 * p)
                             / ((2.0 * j[2:] + 2.0 * p + 1.0) * (2.0 * j[2:] + 2.0 * p - 1.0)))
        diag, start, family = np.zeros((1, n)), [1.0], 0
    y = np.linalg.eigvalsh(np.diag(diag[0]) + np.diag(off[0, 1:], -1))
    diag, off = diag[:, :, None, None], off[:, :, None, None]
    out = np.empty((n, len(start), 2, y.size))
    cur = np.zeros((len(start), 2, y.size))
    cur[:, 0] = np.asarray(start)[:, None]
    prev = np.zeros_like(cur)
    grow = np.ones((n, y.size))
    for k in range(n - 1):
        out[k] = cur
        nxt = (y - diag[:, k]) * cur - off[:, k] * prev
        nxt[:, 1] += cur[:, 0]
        nxt /= off[:, k + 1]
        grow[k + 1] = np.sqrt(1.0 + nxt[0, 0] ** 2)
        prev, cur = cur / grow[k + 1], nxt / grow[k + 1]
    out[-1] = cur
    log_norm = np.cumsum(np.log(grow), axis=0)
    rows = (np.moveaxis(out, 0, 2) * np.exp(log_norm - log_norm[-1]))[family, :, :rule.size]
    return y, rows[0], rows[1]


class TestBatchedBases:
    """One recurrence pass over many solves' nodes changes no bit of any solve."""

    # gamma = 1e6 gives s near 1000, so its basis starts int(s/16) = 62 larger
    RULES = ([oracle._radial_setup(1.3, gamma, GRID, k)[3]
              for gamma, k in ((0.0, 1), (0.3, 4), (1e6, 2))]
             # p = 0.5 takes the closed-form off[1]
             + [oracle._Rule(False, p, size) for p, size in ((0.0, 1), (0.5, 25), (1.3, 3),
                                                            (37.0, 12))])

    def test_mixed_batch_equals_single_solves(self):
        assert oracle._radial_setup(1.3, 1e6, GRID, 2)[3].size > 2 * 2 + 8 + 20
        batched = oracle._bases(self.RULES)
        for rule, basis in zip(self.RULES, batched):
            for one in (oracle._bases([rule])[0], _reference_basis(rule)):
                assert all(np.array_equal(got, want) for got, want in zip(basis, one)), rule

    def test_rows_past_a_shorter_solve_raise_no_warning(self):
        # the small solves run 1200 rows past their own sizes
        rules = self.RULES + [oracle._Rule(True, 0.0, 1200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = oracle._bases(rules)
        for rule, basis in zip(rules, batched):
            assert all(np.array_equal(got, want)
                       for got, want in zip(basis, oracle._bases([rule])[0])), rule

    # at beta = 0, gamma depends on n + m alone, so (n, m) = (0, 1) and (1, 0)
    # share each radial rule: 9 radial and 4 polar solves take 11 rules
    @pytest.mark.parametrize("beta, rules", [(1.5, 13), (0.0, 11)])
    def test_reports_from_several_passes_equal_run_solves_alone(self, monkeypatch, beta,
                                                                rules):
        params = spectrum.PotentialParams(a=1.2, b=0.3, beta=beta, D=4)
        states = [spectrum.QuantumNumbers(N, n, m)
                  for N, n, m in itertools.product(range(40), range(2), range(2))]
        passes, bases = [], oracle._bases

        def counted(rules):
            passes.append(len(rules))
            return bases(rules)

        monkeypatch.setattr(oracle, "_bases", counted)
        reports = oracle.verify_states(params, CONSTS, states)
        assert len(passes) > 1 and sum(passes) == rules
        # each state reads its run's solve, bit for bit as a lone solve of that size
        shared, alone = {}, []
        for q in states:
            eff = spectrum.effective_indices(params, CONSTS, q)
            k = oracle._run_sizes(range(40), oracle._radial_setup(eff.alpha, eff.gamma,
                                                                  GRID, 1)[0])[q.N]
            alone.append(oracle.verify_state(params, CONSTS, q, run=range(k), shared=shared))
        assert reports == alone

    def test_errors_surface_in_state_order(self, monkeypatch):
        # the second state has no solve at this grid; when the first state's
        # solve fails too, its error comes first, as from a loop of verify_state
        grid = GridSpec(n_points=64, refinement_levels=2)
        params = spectrum.PotentialParams(a=1.0)
        states = [spectrum.QuantumNumbers(0, 0, 0), spectrum.QuantumNumbers(30, 0, 0)]
        with pytest.raises(BasisSizeError, match="radial index N = 30"):
            oracle.verify_states(params, CONSTS, states, grid=grid)

        def failing(alpha, gamma, grid, k_states, **kwargs):
            raise oracle.GridOutOfRange("the first state's solve")

        monkeypatch.setattr(oracle, "radial_eigen", failing)
        with pytest.raises(oracle.GridOutOfRange, match="the first state's solve"):
            oracle.verify_states(params, CONSTS, states, grid=grid)


    def test_a_run_too_large_to_solve_defers_to_the_states_before_its_top(self):
        # N = 20 and 23 of (0, 0) make one run, whose solve at k_states = 24 this
        # grid cannot hold; N = 20 alone fits, so the polar n = 60 of the state
        # between them raises first, as from a loop of verify_state
        grid = GridSpec(n_points=64, refinement_levels=2)
        params = spectrum.PotentialParams(a=1.0)
        states = [spectrum.QuantumNumbers(20, 0, 0), spectrum.QuantumNumbers(0, 60, 0),
                  spectrum.QuantumNumbers(23, 0, 0)]
        with pytest.raises(BasisSizeError, match="polar index n = 60"):
            oracle.verify_states(params, CONSTS, states, grid=grid)
        with pytest.raises(BasisSizeError, match="radial index N = 23"):
            oracle.verify_states(params, CONSTS, states[::2], grid=grid)


class TestGridSpec:
    def test_validation(self):
        for kwargs in ({"n_points": oracle.MIN_POINTS - 1},
                       {"n_points": oracle.MAX_POINTS + 1},
                       {"refinement_levels": oracle.MIN_LEVELS - 1},
                       {"refinement_levels": oracle.MAX_LEVELS + 1}):
            with pytest.raises(BasisSizeError):
                GridSpec(**kwargs)
        GridSpec(n_points=oracle.MIN_POINTS, refinement_levels=oracle.MAX_LEVELS)
        GridSpec(n_points=oracle.MAX_POINTS, refinement_levels=oracle.MIN_LEVELS)

    @pytest.mark.parametrize("solver, first", [
        ("radial", lambda k: 2 * k + 8),
        ("angular", lambda k: k),
    ])
    def test_largest_basis_meets_the_cap(self, solver, first):
        sizes = getattr(GridSpec(n_points=100, refinement_levels=3), solver + "_sizes")
        fits = max(k for k in range(1, 101) if first(k) + 20 <= 100)
        assert sizes(fits) == [first(fits), first(fits) + 10, first(fits) + 20]
        with pytest.raises(BasisSizeError, match="more than the cap of 100"):
            sizes(fits + 1)


class TestGridOutOfRange:
    """Basis scales or matrices beyond the float range raise GridOutOfRange."""

    def test_decay_too_slow_for_a_finite_grid(self):
        with pytest.raises(oracle.GridOutOfRange, match="overflows"):
            oracle.radial_eigen(1e-320, 1e10, GRID, 1)

    def test_grid_step_underflows(self):
        with pytest.raises(oracle.GridOutOfRange, match="underflows"):
            oracle.radial_eigen(2e200, 0.0, GRID, 1)

    def test_matrix_entries_beyond_a_float(self):
        with pytest.raises(oracle.GridOutOfRange, match="float range"):
            oracle.angular_eigen(0, 1e308, spectrum.PhysicalConstants(mu=2.0), GRID, 1)


class TestConvergenceGuards:
    @pytest.mark.parametrize("k_states", [65, 2**70], ids=["one_more", "2**70"])
    @pytest.mark.parametrize("solve", [
        lambda grid, k: oracle.radial_eigen(1.0, 0.0, grid, k),
        lambda grid, k: oracle.angular_eigen(0, 0.0, CONSTS, grid, k),
    ], ids=["radial", "angular"])
    def test_more_states_than_base_grid_nodes(self, solve, k_states):
        # 65 states never fit in a basis of 64 functions
        grid = GridSpec(n_points=64, refinement_levels=2)
        with pytest.raises(BasisSizeError, match="more than the cap of 64"):
            solve(grid, k_states)


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
            resid, scale = references.radial_ode_residual(
                params, CONSTS, spectrum.energy(params, CONSTS, q))
            assert resid <= 1e-6 * scale

    def test_radial_residual_detects_wrong_energy(self):
        params = spectrum.PotentialParams(a=1.0)
        q = spectrum.QuantumNumbers(0, 0, 0)
        resid, scale = references.radial_ode_residual(
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
            resid, scale = references.angular_ode_residual(
                params, CONSTS, spectrum.energy(params, CONSTS, q))
            assert resid <= 1e-6 * scale


class TestVerifyState:
    def test_hydrogen_passes_all_checks(self):
        report = oracle.verify_state(spectrum.PotentialParams(a=1.0), CONSTS,
                                     spectrum.QuantumNumbers(0, 0, 0))
        assert report.passed
        assert [c.name for c in report.checks] == [
            "angular_lambda", "radial_energy", "radial_wavefunction",
            "angular_wavefunction"]

    @pytest.mark.parametrize("shift", [1e-6, 5.0], ids=["log_C_plus_1e-6", "C_times_e5"])
    def test_wrong_radial_constant_fails_only_the_radial_wavefunction(self, monkeypatch,
                                                                       shift):
        log_C = wavefunctions.log_normalization_C
        monkeypatch.setattr(wavefunctions, "log_normalization_C",
                            lambda N, L, eps: log_C(N, L, eps) + shift)
        for report in oracle.verify_states(TestVerifyStates.PARAMS, CONSTS,
                                           TestVerifyStates.STATES):
            assert {c.name for c in report.checks if not c.passed} == {"radial_wavefunction"}

    @pytest.mark.parametrize("field", ["epsilon", "L"])
    def test_wrong_radial_shape_fails_only_the_radial_wavefunction(self, monkeypatch, field):
        # a decay rate or an index 1e-4 off, with the normalization that fits it
        radial_state_of = wavefunctions.radial_state_of

        def shifted(entry, D):
            state = radial_state_of(entry, D)
            return dataclasses.replace(state, **{field: getattr(state, field) * (1.0 + 1e-4)})

        monkeypatch.setattr(wavefunctions, "radial_state_of", shifted)
        for report in oracle.verify_states(TestVerifyStates.PARAMS, CONSTS,
                                           TestVerifyStates.STATES):
            assert {c.name for c in report.checks if not c.passed} == {"radial_wavefunction"}

    def test_wrong_angular_norm_fails_only_the_angular_wavefunction(self, monkeypatch):
        # h_n * (1 + 1e-6) moves H by 5e-7 of its norm
        log_h = wavefunctions.log_jacobi_norm
        monkeypatch.setattr(wavefunctions, "log_jacobi_norm",
                            lambda n, mp: log_h(n, mp) + math.log1p(1e-6))
        for report in oracle.verify_states(TestVerifyStates.PARAMS, CONSTS,
                                           TestVerifyStates.STATES):
            assert {c.name for c in report.checks if not c.passed} == {"angular_wavefunction"}

    def test_perturbed_energy_fails_radial_check(self):
        report = oracle.verify_state(spectrum.PotentialParams(a=1.0), CONSTS,
                                     spectrum.QuantumNumbers(0, 0, 0),
                                     energy_offset=1e-2)
        status = {c.name: c.status for c in report.checks}
        assert status["radial_energy"] == "fail"
        assert not report.passed

    @pytest.mark.parametrize("m, beta", [(0, 0.0), (1, 0.4), (2, 37.0)])
    def test_lambda_offset_fails_angular_lambda(self, monkeypatch, m, beta):
        # a closed form 1e-3 off in Lambda, ten times the default tolerance
        energy = spectrum.energy

        def shifted(params, consts, q):
            entry = energy(params, consts, q)
            eff = dataclasses.replace(entry.eff, Lambda=entry.eff.Lambda + 1e-3)
            return dataclasses.replace(entry, eff=eff)

        params = spectrum.PotentialParams(a=1.0, b=0.2, beta=beta)
        q = spectrum.QuantumNumbers(1, 2, m)
        assert oracle.verify_state(params, CONSTS, q).passed
        monkeypatch.setattr(oracle.spectrum, "energy", shifted)
        status = {c.name: c.status for c in oracle.verify_state(params, CONSTS, q).checks}
        assert status["angular_lambda"] == "fail"

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
        payload = dataclasses.asdict(report)
        assert set(payload) == {"checks"}
        for check in payload["checks"]:
            assert set(check) == {"name", "status", "value", "target",
                                  "tolerance", "error_estimate"}


class TestVerifyStates:
    PARAMS = spectrum.PotentialParams(a=1.2, b=0.3, c=0.0, beta=1.5, D=4)
    STATES = [spectrum.QuantumNumbers(N, n, m)
              for N, n, m in itertools.product(range(3), range(2), range(2))]

    def test_reports_equal_the_per_state_reports(self):
        # N = 0..2 of each (n, m) read one radial solve at k_states = 3, so a
        # state verified alone at that size gets the same report; at its own
        # size, only the radial values and estimates move, by rounding
        reports = oracle.verify_states(self.PARAMS, CONSTS, self.STATES)
        assert reports == [oracle.verify_state(self.PARAMS, CONSTS, q, run=range(3))
                           for q in self.STATES]
        for report, q in zip(reports, self.STATES):
            for got, want in zip(report.checks,
                                 oracle.verify_state(self.PARAMS, CONSTS, q).checks):
                if got.name == "radial_energy":
                    assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
                    assert got.error_estimate == pytest.approx(want.error_estimate,
                                                               abs=1e-12 * abs(want.value))
                    got = dataclasses.replace(got, value=want.value,
                                              error_estimate=want.error_estimate)
                if got.name == "radial_wavefunction":
                    assert abs(got.value - want.value) <= 1e-12
                    got = dataclasses.replace(got, value=want.value)
                assert got == want

    def test_one_angular_solve_per_n_m_and_one_radial_solve_per_run(self, monkeypatch):
        angular, radial = collections.Counter(), collections.Counter()
        angular_eigen, radial_eigen = oracle.angular_eigen, oracle.radial_eigen

        def counted_angular(m, beta, consts, grid, k_states, **kwargs):
            angular[k_states - 1, m] += 1
            return angular_eigen(m, beta, consts, grid, k_states, **kwargs)

        def counted_radial(alpha, gamma, grid, k_states, **kwargs):
            radial[alpha, gamma, k_states - 1] += 1
            return radial_eigen(alpha, gamma, grid, k_states, **kwargs)

        monkeypatch.setattr(oracle, "angular_eigen", counted_angular)
        monkeypatch.setattr(oracle, "radial_eigen", counted_radial)
        oracle.verify_states(self.PARAMS, CONSTS, self.STATES)
        assert angular == {(n, m): 1 for n in range(2) for m in range(2)}
        # s >= 1, so N = 0..2 is one run of each (n, m), solved for N_hi = 2
        blocks = {spectrum.effective_indices(self.PARAMS, CONSTS, q) for q in self.STATES}
        assert radial == {(eff.alpha, eff.gamma, 2): 1 for eff in blocks}
        assert len(radial) == 4

    def test_long_n_range_reads_every_level_within_tolerance(self, monkeypatch):
        # gamma = 0 has the smallest s, where a run's h, set by its top N,
        # resolves its lowest N least, in its level and in its eigenvector
        solves, radial_eigen = [], oracle.radial_eigen

        def counted(alpha, gamma, grid, k_states, **kwargs):
            solves.append(k_states)
            return radial_eigen(alpha, gamma, grid, k_states, **kwargs)

        monkeypatch.setattr(oracle, "radial_eigen", counted)
        params = spectrum.PotentialParams(a=1.0, b=0.0, beta=0.0, D=3)
        reports = oracle.verify_states(params, CONSTS,
                                       [spectrum.QuantumNumbers(N, 0, 0) for N in range(301)])
        assert solves == [4, 18, 75, 301]
        energy = [c for report in reports for c in report.checks if c.name == "radial_energy"]
        assert len(energy) == 301
        assert max(abs(c.value - c.target) / c.tolerance for c in energy) <= 1e-2
        state = [c for report in reports for c in report.checks
                 if c.name == "radial_wavefunction"]
        assert len(state) == 301
        assert max(c.value / c.tolerance for c in state) <= 1e-1

    @pytest.mark.parametrize("s", [1.0, 1.5, 6.0, 100.0])
    def test_runs_keep_their_ratio(self, s):
        Ns = [0, 1, 2, 3, 5, 9, 30, 31, 200, 737]
        sizes = oracle._run_sizes(Ns + [5, 0], s)
        assert sorted(sizes) == Ns
        for N, k in sizes.items():
            assert k - 1 in Ns and N <= k - 1
            assert k - 1 + s <= oracle.RUN_RATIO * (N + s)
        # every range verify_sweep draws, N <= 2, is one run
        assert set(oracle._run_sizes([0, 1, 2], s).values()) == {3}

    def test_energy_offset_fails_only_the_radial_checks(self):
        # the offset shifts the target E alone: neither the wavefunction
        # checks nor the shared angular checks read it
        clean = oracle.verify_states(self.PARAMS, CONSTS, self.STATES)
        shifted = oracle.verify_states(self.PARAMS, CONSTS, self.STATES,
                                       energy_offset=1e-2)
        for before, after in zip(clean, shifted):
            assert {c.name for c in after.checks if not c.passed} == {"radial_energy"}
            assert ([c for c in after.checks if c.name.startswith("angular")]
                    == [c for c in before.checks if c.name.startswith("angular")])
