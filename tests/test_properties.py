"""Property tests of the closed-form spectrum over generated parameters."""

import dataclasses

from hypothesis import given, settings, strategies as st

from ringcoulomb import spectrum
from ringcoulomb.spectrum import PhysicalConstants, PotentialParams, QuantumNumbers

# the same examples on every run, and no example database left behind
examples = settings(derandomize=True, database=None, deadline=None, max_examples=200)

index = st.integers(0, 30)
quantum = st.builds(QuantumNumbers, index, index, index)
consts = st.builds(PhysicalConstants, st.floats(0.1, 10.0), st.floats(0.1, 10.0))
strength = st.floats(0.0, 100.0)
coulomb = st.floats(0.01, 100.0)
shift = st.floats(-100.0, 100.0)
params = st.builds(PotentialParams, a=coulomb, b=strength, c=shift, beta=strength,
                   D=st.integers(2, 8))


def _compositions(total):
    """Lists of (N, n, m) with N + n + m = total, from two cut points each."""
    cut = st.integers(0, total)
    return st.lists(st.tuples(cut, cut).map(sorted), min_size=2, max_size=6).map(
        lambda cuts: [QuantumNumbers(x, y - x, total - y) for x, y in cuts])


@examples
@given(params, consts, quantum)
def test_energy_lies_below_the_continuum(p, k, q):
    assert spectrum.energy(p, k, q).E < p.c


@examples
@given(params, consts, quantum, strength, st.sampled_from(["b", "beta"]))
def test_energy_does_not_decrease_with_b_or_beta(p, k, q, step, field):
    lower = spectrum.energy(p, k, q).E
    raised = dataclasses.replace(p, **{field: getattr(p, field) + step})
    # Lambda subtracts two terms that both grow with beta; allow their roundoff
    assert spectrum.energy(raised, k, q).E >= lower - 1e-12 * (p.c - lower)


@examples
@given(coulomb, shift, consts, index.flatmap(_compositions))
def test_three_dimensional_degeneracy_in_N_plus_n_plus_m(a, c, k, states):
    # with b = beta = 0, D = 3 is hydrogen-like: E depends on N + n + m only
    p = PotentialParams(a=a, c=c)
    assert len({spectrum.energy(p, k, q).E for q in states}) == 1


@examples
@given(params, consts, quantum)
def test_energy_forms_agree(p, k, q):
    entry = spectrum.energy(p, k, q)
    coulombic = spectrum.energy_coulombic_form(p, k, q)
    assert abs(entry.E - coulombic) <= 1e-12 * max(abs(entry.E), abs(entry.E - p.c))


@examples
@given(params, consts, quantum)
def test_energy_returns_python_floats(p, k, q):
    # the CLI writes these with %r, which prints a numpy scalar as np.float64(...)
    entry = spectrum.energy(p, k, q)
    assert all(type(x) is float for x in (entry.E, entry.epsilon, entry.N_prime))
