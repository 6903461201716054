"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
the criterion.  The whole module runs at desk scale, well under two minutes.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from ringcoulomb import cli, nu, oracle, spectrum, wavefunctions as wf
from ringcoulomb.nu import Poly2

import references

CONSTS = spectrum.PhysicalConstants()


def report(name: str, ok: bool, detail: str = ""):
    line = "%s: %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += " (%s)" % detail
    print(line, flush=True)
    assert ok, line


def random_params(rng, a_rng=(0.1, 5.0), b_rng=(0.0, 5.0), c_rng=(-5.0, 5.0),
                  beta_rng=(0.0, 5.0), d_rng=(2, 9)):
    return spectrum.PotentialParams(
        a=rng.uniform(*a_rng), b=rng.uniform(*b_rng), c=rng.uniform(*c_rng),
        beta=rng.uniform(*beta_rng), D=int(rng.integers(*d_rng)))


def test_form_equivalence_1000_draws():
    """Both closed forms of E agree to relative 1e-12 over 1000 random draws."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        params = random_params(rng)
        q = spectrum.QuantumNumbers(int(rng.integers(0, 7)),
                                    int(rng.integers(0, 7)),
                                    int(rng.integers(0, 7)))
        entry = spectrum.energy(params, CONSTS, q)
        other = spectrum.energy_coulombic_form(params, CONSTS, q)
        scale = max(abs(entry.E), abs(entry.E - params.c))
        worst = max(worst, abs(entry.E - other) / scale)
    elapsed = time.perf_counter() - t0
    report("form equivalence, 1000 draws",
           worst <= 1e-12 and elapsed < 1.0,
           "worst rel diff %.2e, %.2fs" % (worst, elapsed))


def test_nu_pipeline_rational_fidelity():
    """The engine reproduces the full radial reduction exactly in rational mode."""
    # (eps, alpha, gamma) with 4*gamma + 1 a perfect rational square
    spots = [
        (F(1), F(2), F(0)),
        (F(1, 2), F(2), F(0)),
        (F(2), F(6), F(2)),
        (F(1), F(3), F(6)),
        (F(3), F(5), F(12)),
        (F(1, 3), F(7, 2), F(3, 4)),
        (F(5, 2), F(4), F(2)),
        (F(1), F(1), F(0)),
        (F(7, 4), F(9, 2), F(6)),
        (F(2, 3), F(11, 3), F(3, 4)),
    ]
    ok = True
    for eps, alpha, gamma in spots:
        q = nu._exact_sqrt(4 * gamma + 1)
        problem = nu.radial_coulomb_problem(alpha, gamma, eps)
        ok &= nu.k_candidates(problem) == sorted([alpha - eps * q, alpha + eps * q])
        sol = nu.solve(problem, domain=(0, math.inf))
        ok &= sol.branch.k == alpha - eps * q
        ok &= sol.branch.pi == Poly2(F(1, 2) + q / 2, -eps, F(0))
        ok &= sol.branch.tau == Poly2(1 + q, -2 * eps, F(0))
        ok &= all(sol.lambda_n(n) == 2 * n * eps for n in range(4))
        ok &= sol.lambda_const == alpha - eps * (1 + q)
    report("NU pipeline fidelity, 10 exact spot points", ok)


def test_quantization_dual_path_1000_draws():
    """The engine's Brent root equals the closed-form eps to relative 1e-10."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.1, 10.0)
        gamma = rng.uniform(0.0, 20.0)
        n = int(rng.integers(0, 11))
        closed = nu.quantize_epsilon(alpha, gamma, n)
        numeric = nu.quantize_epsilon_bisect(alpha, gamma, n)
        worst = max(worst, abs(numeric - closed) / closed)
    report("quantization dual path, 1000 draws", worst <= 1e-10,
           "worst rel diff %.2e" % worst)


def test_radial_oracle_20_random_states():
    """Spectral eigenvalues match the closed-form E to relative 1e-4."""
    rng = np.random.default_rng(4242)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        params = spectrum.PotentialParams(
            a=rng.uniform(0.5, 3.0), b=rng.uniform(0.0, 3.0),
            c=rng.uniform(-1.0, 1.0), beta=rng.uniform(0.0, 3.0),
            D=int(rng.integers(3, 6)))
        q = spectrum.QuantumNumbers(int(rng.integers(0, 4)),
                                    int(rng.integers(0, 4)),
                                    int(rng.integers(0, 3)))
        entry = spectrum.energy(params, CONSTS, q)
        eff = entry.eff
        res = oracle.radial_eigen(eff.alpha, eff.gamma, oracle.GridSpec(), q.N + 1)
        E_num = params.c + CONSTS.hbar**2 * res.eigenvalues[q.N] / (2.0 * CONSTS.mu)
        scale = max(abs(entry.E), abs(entry.E - params.c))
        worst = max(worst, abs(E_num - entry.E) / scale)
    elapsed = time.perf_counter() - t0
    report("radial oracle, 20 random states", worst <= 1e-4 and elapsed < 60.0,
           "worst rel dev %.2e, %.1fs" % (worst, elapsed))


def test_radial_oracle_hydrogen_ladder():
    """Hydrogen ladder -1/(2 n_p^2) for n_p = 1..5 to relative 1e-5."""
    res = oracle.radial_eigen(2.0, 0.0, oracle.GridSpec(), 5)
    worst = 0.0
    for N in range(5):
        n_p = N + 1
        E_num = 0.5 * res.eigenvalues[N]
        want = -0.5 / n_p**2
        worst = max(worst, abs(E_num - want) / abs(want))
    report("radial oracle, hydrogen ladder n_p=1..5", worst <= 1e-5,
           "worst rel dev %.2e" % worst)


def test_angular_oracle_ring_families():
    """Angular eigenvalues match (n+m')(n+m'+1) - 2 mu beta/hbar^2 to 1e-4."""
    worst = 0.0
    for beta in (0.0, 2.0, 8.0):
        for m in (0, 1, 2):
            res = oracle.angular_eigen(m, beta, CONSTS, oracle.GridSpec(), 4)
            mp = spectrum.m_prime(m, beta, CONSTS)
            for n in range(4):
                want = (n + mp) * (n + mp + 1.0) - 2.0 * beta
                worst = max(worst, abs(res.eigenvalues[n] - want))
    report("angular oracle, n<=3 m<=2 beta in {0,2,8}", worst <= 1e-4,
           "worst abs dev %.2e" % worst)


def test_angular_oracle_legendre_ladder():
    """The beta = 0 ladder {0, 2, 6, 12} to absolute 1e-5."""
    res = oracle.angular_eigen(0, 0.0, CONSTS, oracle.GridSpec(), 4)
    worst = max(abs(res.eigenvalues[n] - n * (n + 1.0)) for n in range(4))
    report("angular oracle, Legendre ladder", worst <= 1e-5,
           "worst abs dev %.2e" % worst)


def test_reduction_grids():
    """Literal reduced formulas vs the general form, 3x3x3 per case, 1e-12."""
    worst = 0.0
    q = spectrum.QuantumNumbers(1, 1, 1)
    for De in (0.5, 1.0, 2.0):
        for re in (0.6, 1.0, 1.4):
            for beta in (0.0, 1.0, 2.0):
                g = spectrum.reduce_cheng_dai(De, re, beta, CONSTS, q).E
                l = spectrum.cheng_dai_literal(De, re, beta, CONSTS, q)
                worst = max(worst, abs(g - l) / abs(g))
            for ell in (0, 1, 2):
                g = spectrum.reduce_kratzer(De, re, CONSTS, 1, ell).E
                l = spectrum.kratzer_literal(De, re, CONSTS, 1, ell)
                worst = max(worst, abs(g - l) / abs(g))
            for D in (3, 4, 5):
                g = spectrum.reduce_ddim(De, re, 1.0, CONSTS, q, D).E
                l = spectrum.ddim_literal(De, re, 1.0, CONSTS, q, D)
                worst = max(worst, abs(g - l) / abs(g))
    for Z in (1.0, 2.0, 3.0):
        for beta in (0.0, 1.0, 2.0):
            for qq in (spectrum.QuantumNumbers(2, 0, 0),
                       spectrum.QuantumNumbers(1, 1, 0),
                       spectrum.QuantumNumbers(0, 0, 2)):
                g = spectrum.reduce_coulomb_ring(Z, 1.0, beta, CONSTS, qq).E
                l = spectrum.coulomb_ring_literal(Z, 1.0, beta, CONSTS, qq)
                worst = max(worst, abs(g - l) / abs(g))
    report("reductions, 3x3x3 grids for all four cases", worst <= 1e-12,
           "worst rel diff %.2e" % worst)


def test_reduction_degeneracy_exact():
    """Compositions of N+n+m share the beta = 0 Coulomb-ring energy exactly."""
    total = 3
    comps = [(N, n, total - N - n) for N in range(total + 1)
             for n in range(total + 1 - N)]
    energies = {spectrum.reduce_coulomb_ring(
        1.0, 1.0, 0.0, CONSTS, spectrum.QuantumNumbers(*c)).E for c in comps}
    report("coulomb-ring degeneracy across compositions", len(energies) == 1,
           "%d compositions, %d distinct energies" % (len(comps), len(energies)))


def test_wavefunction_contracts():
    """ODE residuals, radial norm, the hydrogen shape and the index round trip."""
    ok = True
    details = []

    # residuals <= 1e-6 * scale on a spread of states
    cases = [
        (spectrum.PotentialParams(a=1.0), spectrum.QuantumNumbers(0, 0, 0)),
        (spectrum.PotentialParams(a=1.5, b=0.5, c=0.3, beta=2.0, D=4),
         spectrum.QuantumNumbers(1, 1, 1)),
        (spectrum.PotentialParams(a=2.5, b=1.0, c=-0.5, beta=0.5, D=5),
         spectrum.QuantumNumbers(2, 1, 0)),
    ]
    for params, q in cases:
        entry = spectrum.energy(params, CONSTS, q)
        resid, scale = oracle.radial_ode_residual(params, CONSTS, entry)
        ok &= resid <= 1e-6 * scale
        resid, scale = oracle.angular_ode_residual(params, CONSTS, entry)
        ok &= resid <= 1e-6 * scale

    # radial norm within 1e-8
    worst_norm = 0.0
    for params, q in cases:
        state = wf.radial_state(params, CONSTS, q)
        worst_norm = max(worst_norm, abs(references.radial_norm_integral(state).value - 1.0))
    ok &= worst_norm <= 1e-8
    details.append("norm dev %.1e" % worst_norm)

    # C(0, 0, 1) = 2 reproduces R(r) = 2 exp(-r)
    ok &= wf.normalization_C(0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    r = np.linspace(0.0, 10.0, 64)
    hydro = wf.radial_state(spectrum.PotentialParams(a=1.0), CONSTS,
                            spectrum.QuantumNumbers(0, 0, 0))
    ok &= bool(np.allclose(wf.radial_R(hydro, r), 2.0 * np.exp(-r), rtol=1e-12))

    # index round trip to 1e-10
    rng = np.random.default_rng(55)
    worst_rt = 0.0
    for _ in range(400):
        n = int(rng.integers(0, 7))
        mp = rng.uniform(0.0, 4.0)
        D = int(rng.integers(2, 9))
        lp = spectrum.ell_prime(n, mp, D)
        worst_rt = max(worst_rt, abs(references.jacobi_index(lp, mp, D) - n))
    ok &= worst_rt <= 1e-10
    details.append("round trip dev %.1e" % worst_rt)

    report("wavefunction contracts", ok, ", ".join(details))


def test_cli_determinism_and_exit_codes(tmp_path):
    """Byte-identical reruns; the reduce exit-code contract with a control."""
    ok = True
    args = ["spectrum", "--a", "1.5", "--b", "0.3", "--beta", "1.1", "--D", "4",
            "--N", "0..3", "--n", "0..2", "--m", "0..2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok &= cli.main(args + ["--out", str(a)]) == 0
    ok &= cli.main(args + ["--out", str(b)]) == 0
    ok &= a.read_bytes() == b.read_bytes()

    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    vargs = ["reduce", "--case", "coulomb-ring", "--format", "json"]
    ok &= cli.main(vargs + ["--out", str(v1)]) == 0
    ok &= cli.main(vargs + ["--out", str(v2)]) == 0
    ok &= v1.read_bytes() == v2.read_bytes()

    clean = cli.main(["reduce", "--case", "cheng-dai",
                      "--out", str(tmp_path / "ok.csv")])
    tripped = cli.main(["reduce", "--case", "cheng-dai", "--negative-control",
                        "11", "--out", str(tmp_path / "bad.csv")])
    ok &= clean == 0 and tripped == 1
    report("CLI determinism and reduce exit-code contract", ok)
