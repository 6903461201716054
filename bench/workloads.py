"""Seeded workloads of the ringcoulomb benchmark: inputs, execution and output checks.

Every workload is a closed loop with one client.  An op is one call into a
public entry point: ``cli.main(argv)`` with stdout captured, or
``nu.quantize_epsilon(..., verify=True)``.  All inputs come from a
``random.Random(seed)``; size classes are drawn in shuffled blocks that cover
every class once, so any run of a few blocks sees the same mix of sizes and a
seed changes the values, not the mix.

Each check recomputes what it needs without the code path it checks, and runs
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ringcoulomb import cli, nu, spectrum

# parameter ranges on which every drawn op passes at the default tolerances
A_RANGE = (0.5, 3.0)
B_RANGE = (0.0, 1.0)
BETA_RANGE = (0.0, 4.0)
DIMENSIONS = (3, 4, 5)

DENSITY_NR = 151       # odd sample counts, so the every-other-point subgrid
DENSITY_NTHETA = 81    # keeps both ends for the integral's error estimate


@dataclass(frozen=True)
class Op:
    """One request: ``argv`` for ``cli.main``, or ``engine`` = (alpha, gamma, N)."""

    work: int            # work units the op completes
    states: int          # quantum states the op touches (base of per-state ratios)
    argv: tuple = ()
    engine: tuple = ()
    physics: tuple = ()  # (a, b, beta, D) passed to the CLI
    shape: tuple = ()    # per-workload detail the check needs


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                                  # what one work unit is
    block: int                                 # ops per block of size classes
    trace_ops: int                             # fixed op count of a traced run
    ops: Callable[[object], Iterator[Op]]      # rng -> endless op stream
    warmup: Callable[[object], Op]             # rng -> one small op
    check: Callable[[Op, int, str], str]       # "" when the output is right


def execute(op: Op):
    """Run one op through the public entry point; returns (exit code, output text)."""
    if op.engine:
        return 0, repr(nu.quantize_epsilon(*op.engine, verify=True))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue() + err.getvalue()


def _physics(rng) -> tuple:
    return (rng.uniform(*A_RANGE), rng.uniform(*B_RANGE),
            rng.uniform(*BETA_RANGE), rng.choice(DIMENSIONS))


def _physics_argv(physics) -> list:
    a, b, beta, D = physics
    return ["--a", repr(a), "--b", repr(b), "--beta", repr(beta), "--D", str(D)]


def _range(lo: int, size: int) -> str:
    return "%d..%d" % (lo, lo + size - 1)


def _params(physics):
    a, b, beta, D = physics
    return spectrum.PotentialParams(a=a, b=b, beta=beta, D=D)


def _rows(fmt: str, text: str) -> list:
    """Table rows of a CSV or JSON CLI output as dicts of strings or values."""
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# spectrum_table: large energy tables, CSV and JSON in turn
# ---------------------------------------------------------------------------

def _spectrum_op(rng, target: float, fmt: str) -> Op:
    sizes = [rng.randint(8, 16), rng.randint(8, 16)]
    sizes.append(max(1, round(target / (sizes[0] * sizes[1]))))
    rng.shuffle(sizes)
    los = [rng.randint(0, 3) for _ in sizes]
    physics = _physics(rng)
    argv = ["spectrum", *_physics_argv(physics), "--format", fmt]
    for flag, lo, size in zip(("--N", "--n", "--m"), los, sizes):
        argv += [flag, _range(lo, size)]
    states = math.prod(sizes)
    return Op(work=states, states=states, argv=tuple(argv), physics=physics,
              shape=(fmt, tuple(los), tuple(sizes)))


def spectrum_ops(rng) -> Iterator[Op]:
    while True:
        # one block: each of ten strata of width 200 states across 1000..3000
        # once as CSV (even positions) and once as JSON (odd positions)
        targets = {fmt: [1000.0 + 200.0 * (i + rng.random()) for i in range(10)]
                   for fmt in ("csv", "json")}
        for column in targets.values():
            rng.shuffle(column)
        for csv_target, json_target in zip(targets["csv"], targets["json"]):
            yield _spectrum_op(rng, csv_target, "csv")
            yield _spectrum_op(rng, json_target, "json")


def spectrum_warmup(rng) -> Op:
    return _spectrum_op(rng, 1000.0, "csv")


def check_spectrum(op: Op, code: int, text: str) -> str:
    if code != 0:
        return "exit code %d" % code
    fmt, los, sizes = op.shape
    rows = _rows(fmt, text)
    if len(rows) != op.states:
        return "%d rows for %d states" % (len(rows), op.states)
    expected = set(itertools.product(*(range(lo, lo + s) for lo, s in zip(los, sizes))))
    seen = {(int(r["N"]), int(r["n"]), int(r["m"])) for r in rows}
    if seen != expected:
        return "rows do not cover the requested states"
    if any(r["status"] != "ok" for r in rows):
        return "a row is not ok"
    energies = [float(r["E"]) for r in rows]
    if any(e2 < e1 for e1, e2 in zip(energies, energies[1:])):
        return "E is not sorted"
    params, consts = _params(op.physics), spectrum.PhysicalConstants()
    for row, E in zip(rows, energies):
        q = spectrum.QuantumNumbers(N=int(row["N"]), n=int(row["n"]), m=int(row["m"]))
        ref = spectrum.energy_coulombic_form(params, consts, q)
        if not abs(E - ref) <= 1e-12 * abs(ref):
            return "E(%d,%d,%d) = %r, Coulombic form gives %r" % (q.N, q.n, q.m, E, ref)
    return ""


# ---------------------------------------------------------------------------
# density_grid: one state's density on a 151 x 81 grid
# ---------------------------------------------------------------------------

def _density_op(rng, N: int, n: int, m: int) -> Op:
    physics = _physics(rng)
    argv = ["wavefunction", *_physics_argv(physics), "--N", str(N), "--n", str(n),
            "--m", str(m), "--nr", str(DENSITY_NR), "--ntheta", str(DENSITY_NTHETA)]
    return Op(work=DENSITY_NR * DENSITY_NTHETA, states=1, argv=tuple(argv),
              physics=physics, shape=(N, n, m))


def density_ops(rng) -> Iterator[Op]:
    while True:
        block = list(itertools.product(range(3), repeat=3))
        rng.shuffle(block)
        for N, n, m in block:
            yield _density_op(rng, N, n, m)


def density_warmup(rng) -> Op:
    return _density_op(rng, 0, 0, 0)


def _trapezoid_mass(density, r, theta) -> float:
    return 2.0 * math.pi * float(np.trapezoid(np.trapezoid(density, theta, axis=1), r))


def check_density(op: Op, code: int, text: str) -> str:
    if code != 0:
        return "exit code %d" % code
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if lines[0] != "r,theta,density":
        return "unexpected header %r" % lines[0]
    grid = np.array([line.split(",") for line in lines[1:]], dtype=float)
    if grid.shape != (DENSITY_NR * DENSITY_NTHETA, 3):
        return "grid shape %r" % (grid.shape,)
    grid = grid.reshape(DENSITY_NR, DENSITY_NTHETA, 3)
    r, theta, density = grid[:, 0, 0], grid[0, :, 1], grid[:, :, 2]
    if not np.all(np.isfinite(density)) or np.any(density < 0.0):
        return "density has negative or non-finite samples"
    fine = _trapezoid_mass(density, r, theta)
    # the trapezoid error is O(h^2) on each axis, so halving one axis changes
    # the mass by about three times that axis's error on the full grid; the
    # two axes are halved separately because their errors can cancel
    tol = (1e-6 + abs(fine - _trapezoid_mass(density[::2], r[::2], theta))
           + abs(fine - _trapezoid_mass(density[:, ::2], r, theta[::2])))
    if not abs(fine - 1.0) <= tol:
        return "2 pi * integral of density = %r, tolerance %g" % (fine, tol)
    return ""


# ---------------------------------------------------------------------------
# verify_sweep: finite-difference verification of 1 to 27 states per op
# ---------------------------------------------------------------------------

def _verify_op(rng, sizes) -> Op:
    los = [rng.randint(0, 3 - size) for size in sizes]   # every index stays <= 2
    physics = _physics(rng)
    argv = ["verify", *_physics_argv(physics), "--format", "json"]
    for flag, lo, size in zip(("--N", "--n", "--m"), los, sizes):
        argv += [flag, _range(lo, size)]
    states = math.prod(sizes)
    return Op(work=states, states=states, argv=tuple(argv), physics=physics,
              shape=(tuple(los), tuple(sizes)))


def verify_ops(rng) -> Iterator[Op]:
    while True:
        block = list(itertools.product((1, 2, 3), repeat=3))
        rng.shuffle(block)
        for sizes in block:
            yield _verify_op(rng, sizes)


def verify_warmup(rng) -> Op:
    return _verify_op(rng, (1, 1, 1))


def check_verify(op: Op, code: int, text: str) -> str:
    if code != 0:
        return "exit code %d" % code
    checks = json.loads(text)["checks"]
    if len(checks) != 4 * op.states:
        return "%d checks for %d states" % (len(checks), op.states)
    failing = [c["name"] for c in checks if c["status"] != "pass"]
    if failing:
        return "checks not passed: %s" % ", ".join(failing)
    return ""


# ---------------------------------------------------------------------------
# engine_crosscheck: closed-form quantization checked by the NU bisection
# ---------------------------------------------------------------------------

def _engine_op(rng) -> Op:
    alpha = 30.0 * (1.0 - rng.random())     # (0, 30]
    gamma = 30.0 * rng.random()             # [0, 30)
    return Op(work=1, states=0, engine=(alpha, gamma, rng.randrange(10)))


def engine_ops(rng) -> Iterator[Op]:
    while True:
        yield _engine_op(rng)


def check_engine(op: Op, code: int, text: str) -> str:
    alpha, gamma, N = op.engine
    eps = float(text)
    ref = alpha / (2 * N + 1 + math.sqrt(4.0 * gamma + 1.0))
    if not abs(eps - ref) <= 1e-12 * ref:
        return "epsilon %r, closed form %r" % (eps, ref)
    return ""


WORKLOADS = {w.name: w for w in (
    Workload("spectrum_table", "states", 20, 20, spectrum_ops, spectrum_warmup,
             check_spectrum),
    Workload("density_grid", "density samples", 27, 27, density_ops, density_warmup,
             check_density),
    Workload("verify_sweep", "states verified", 27, 27, verify_ops, verify_warmup,
             check_verify),
    Workload("engine_crosscheck", "quantizations", 1, 200, engine_ops, _engine_op,
             check_engine),
)}
