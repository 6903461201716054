"""Command-line interface: spectrum tables, density grids, verification, reductions.

Output is deterministic: fixed column order, shortest round-trip float
formatting (repr), no timestamps.  Exit codes: 0 success, 1 a verification or
reduction check failed or the computation itself failed, 2 invalid
configuration (one ``error: <field>: <message>`` line per offending field on
stderr).

``_COMMANDS`` declares each command's handler, help line and keys; a key is
the flag ``--key`` (``_`` written ``-``) and a ``--config`` entry.  argparse
only places flag text, so every value, from a flag or a file, meets the same
readers, and an argument that is not a flag of the command is a problem.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, oracle, spectrum, wavefunctions


class ConfigError(Exception):
    """Carries (field, message) pairs for every offending config entry."""

    def __init__(self, problems):
        super().__init__("invalid configuration")
        self.problems = list(problems)


def _diagnose(message: str) -> None:
    color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    prefix = "\x1b[31merror:\x1b[0m" if color else "error:"
    print(prefix, message, file=sys.stderr)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


#: size caps, each checked before anything of that size is built
MAX_STATES = 10**6          # indices in one range; states in a spectrum or verify run
MAX_SAMPLES = 10**6         # wavefunction nr * ntheta
MAX_DEGREE = 10**4          # wavefunction N and n: one numpy pass per polynomial degree


def _parse_range(text: str, field: str, problems: list, allow_empty: bool = True) -> list:
    s = str(text).strip()
    try:
        if ".." in s:
            lo_s, hi_s = s.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(s)
    except ValueError:
        problems.append((field, "expected an integer or lo..hi range, got %r" % text))
        return []
    if lo < 0:
        problems.append((field, "indices must be nonnegative, got %r" % text))
        return []
    if hi < lo and not allow_empty:
        problems.append((field, "the range %r holds no index" % text))
        return []
    if hi - lo + 1 > MAX_STATES:
        problems.append((field, "range holds %d indices, more than %d"
                         % (hi - lo + 1, MAX_STATES)))
        return []
    return list(range(lo, hi + 1))


def _state_ranges(cfg: dict, problems: list, allow_empty: bool = True) -> list:
    """The N, n and m ranges, holding at most MAX_STATES states together."""
    ranges = [_parse_range(cfg.get(key, "0"), key, problems, allow_empty)
              for key in ("N", "n", "m")]
    count = math.prod(map(len, ranges))
    if count > MAX_STATES:
        problems.append(("states", "N, n and m ranges hold %d states, more than %d"
                         % (count, MAX_STATES)))
    return ranges


def _merge_config(args: argparse.Namespace, problems: list) -> dict:
    """File values fill in unset flags; explicit flags always win.

    Config keys may use dashes or underscores; keys matching no flag of any
    subcommand are reported (typo protection), and the values of other
    subcommands' keys meet those subcommands' checks, then go unused.
    """
    merged = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:    # unreadable, not UTF-8 or not JSON
            problems.append(("config", "cannot read %r: %s" % (args.config, exc)))
            loaded = {}
        if not isinstance(loaded, dict):
            problems.append(("config", "top level must be a flat JSON object"))
            loaded = {}
        for key, value in loaded.items():
            name = str(key).replace("-", "_")
            if name not in _KNOWN_KEYS:
                problems.append((str(key), "unknown configuration key"))
                continue
            merged[name] = value
    merged.update((key, value) for key, value in vars(args).items()
                  if key in _KNOWN_KEYS and value is not None)
    unread = {k: v for k, v in merged.items() if k not in _COMMANDS[args.command][2]}
    for read in (_physics, _state_ranges, _sampling, _verify_settings):
        read(unread, problems)      # each reader checks the keys present only
    _choice(unread, "case", _REDUCE_CASES, _REDUCE_CASES[0], problems)
    _integer(unread, "negative_control", None, problems)
    return merged


def _number(cfg: dict, key: str, default: float, problems: list) -> float:
    """A finite float from the config, the default if the key is absent; on a
    problem, record it and return the default."""
    if key not in cfg:
        return default
    value = cfg[key]
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        problems.append((key, "must be a number, got %r" % (value,)))
        return default
    if not math.isfinite(number):
        problems.append((key, "must be finite, got %r" % (value,)))
        return default
    return number


def _integer(cfg: dict, key: str, default: int, problems: list) -> int:
    """An integer from the config (an int, an integral float or a decimal string)."""
    if key not in cfg:
        return default
    value = cfg[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    problems.append((key, "must be an integer, got %r" % (value,)))
    return default


def _choice(cfg: dict, key: str, choices: tuple, default, problems: list):
    """One of ``choices`` from the config; on a problem, record it and return the default."""
    value = cfg.get(key, default)
    if value not in choices:
        problems.append((key, "must be one of %s; got %r" % (", ".join(choices), value)))
        return default
    return value


def _output(cfg: dict, default_format: str, problems: list):
    """The output format and the --out path (None: stdout)."""
    fmt = _choice(cfg, "format", ("csv", "json"), default_format, problems)
    out = cfg.get("out")
    if out is not None and not isinstance(out, str):
        problems.append(("out", "must be a file path, got %r" % (out,)))
    return fmt, out


def _constants(cfg: dict, problems: list) -> spectrum.PhysicalConstants:
    mu = _number(cfg, "mu", 1.0, problems)
    hbar = _number(cfg, "hbar", 1.0, problems)
    if mu <= 0:
        problems.append(("mu", "must be positive, got %r" % mu))
        mu = 1.0
    if hbar <= 0:
        problems.append(("hbar", "must be positive, got %r" % hbar))
        hbar = 1.0
    elif not 0 < hbar * hbar < math.inf:
        problems.append(("hbar", "hbar^2 = %r is outside the float range" % (hbar * hbar)))
        hbar = 1.0
    return spectrum.PhysicalConstants(mu=mu, hbar=hbar)


def _physics(cfg: dict, problems: list):
    a = _number(cfg, "a", 1.0, problems)
    b = _number(cfg, "b", 0.0, problems)
    c = _number(cfg, "c", 0.0, problems)
    beta = _number(cfg, "beta", 0.0, problems)
    D = _integer(cfg, "D", 3, problems)
    if a <= 0:
        problems.append(("a", "must be positive for bound states, got %r" % a))
    if b < 0:
        problems.append(("b", "must be nonnegative, got %r" % b))
    if beta < 0:
        problems.append(("beta", "must be nonnegative, got %r" % beta))
    if D < 2:
        problems.append(("D", "must be at least 2, got %r" % D))
    consts = _constants(cfg, problems)
    params = None
    if not problems:
        params = spectrum.PotentialParams(a=a, b=b, c=c, beta=beta, D=D)
    return params, consts, {"a": a, "b": b, "c": c, "beta": beta, "D": D,
                            "mu": consts.mu, "hbar": consts.hbar}


def _emit(text: str, out_path) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError([("out", "cannot write %r: %s" % (out_path, exc))]) from None


def _json_value(value) -> str:
    """One scalar exactly as ``json.dumps`` renders it."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("cannot render %r as a JSON table value" % (value,))


def _row_format(fmt: str, columns) -> tuple:
    """The cell renderer and ``%`` template of one row: its cells joined by
    commas, or a JSON row object at the nesting depth of ``_frame``."""
    if fmt == "json":
        fields = ",\n".join("      %s: %%s" % encode_basestring_ascii(col) for col in columns)
        return _json_value, "    {\n" + fields + "\n    }"
    return _fmt, ",".join(["%s"] * len(columns))


def _frame(fmt: str, meta: dict, columns, body: list, key: str = "rows") -> str:
    """Wrap rendered rows in the table's header: CSV, or JSON ``{"meta", key}``.

    The JSON layout is that of ``json.dumps({"meta": meta, key: rows}, indent=2)``,
    whose rows ``_row_format`` renders one at a time.
    """
    if fmt == "json":
        head = ('{\n  "meta": ' + json.dumps(meta, indent=2).replace("\n", "\n  ")
                + ",\n  " + encode_basestring_ascii(key) + ": ")
        if not body:
            return head + "[]\n}\n"
        return head + "[\n" + ",\n".join(body) + "\n  ]\n}\n"
    lines = ["# %s=%s" % (name, _fmt(value)) for name, value in meta.items()]
    lines.append(",".join(columns))
    lines.extend(body)
    return "\n".join(lines) + "\n"


def _table(fmt: str, meta: dict, columns, rows, key: str = "rows") -> str:
    """Render tuple rows, one value per column, as CSV or JSON."""
    cell, template = _row_format(fmt, columns)
    return _frame(fmt, meta, columns, [template % tuple(map(cell, row)) for row in rows], key)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

_SPECTRUM_COLUMNS = ["N", "n", "m", "m_prime", "ell_prime", "L", "N_prime",
                     "epsilon", "E", "status"]


def _cmd_spectrum(cfg: dict, problems: list) -> int:
    fmt, out = _output(cfg, "csv", problems)
    params, consts, meta_phys = _physics(cfg, problems)
    Ns, ns, ms = _state_ranges(cfg, problems)
    if problems:
        raise ConfigError(problems)

    cell, template = _row_format(fmt, _SPECTRUM_COLUMNS)
    # the indices of a state other than N and N' depend on (n, m) alone, so a
    # block of states sharing (n, m) computes them once and renders them once,
    # into its own template (a rendered cell is a number, never holding a '%');
    # an empty N range has no state to compute them for.  Both cell renderers
    # write an int N and energy()'s finite floats as %d and %r do
    ok = cell("ok")
    rows = []
    QuantumNumbers = spectrum.QuantumNumbers
    for n, m in itertools.product(ns, ms) if Ns else ():
        try:
            eff = spectrum.effective_indices(params, consts, QuantumNumbers(Ns[0], n, m))
        except spectrum.FallToCenter:
            rows.extend((True, 0.0, N, n, m,
                         template % tuple(map(cell, (N, n, m, None, None, None, None,
                                                     None, None, "fall-to-center"))))
                        for N in Ns)
            continue
        block_template = template % (
            "%d", *map(cell, (n, m, eff.m_prime, eff.ell_prime, eff.L)), "%r", "%r", "%r", ok)
        for N in Ns:
            entry = spectrum.energy(params, consts, QuantumNumbers(N, n, m), eff)
            rows.append((False, entry.E, N, n, m, block_template
                         % (N, entry.N_prime, entry.epsilon, entry.E)))
    # by E, with fall-to-center rows last; (N, n, m) settles every tie, so
    # the rendered text is never compared
    rows.sort()

    meta = {"command": "spectrum", **meta_phys,
            "N": cfg.get("N", "0"), "n": cfg.get("n", "0"), "m": cfg.get("m", "0")}
    _emit(_frame(fmt, meta, _SPECTRUM_COLUMNS, [row[5] for row in rows]), out)
    return 0


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------

def _single_index(cfg, key, problems) -> int:
    values = _parse_range(cfg.get(key, "0"), key, problems)
    if len(values) != 1:
        problems.append((key, "wavefunction needs a single index, got %r" % cfg.get(key)))
        return 0
    return values[0]


def _sampling(cfg: dict, problems: list) -> tuple:
    """The wavefunction grid's nr, ntheta and r_max (None: from the state's decay)."""
    nr = _integer(cfg, "nr", 100, problems)
    ntheta = _integer(cfg, "ntheta", 50, problems)
    problems += [(key, "need at least 2 %s samples" % axis)
                 for key, count, axis in (("nr", nr, "radial"), ("ntheta", ntheta, "polar"))
                 if count < 2]
    if min(nr, ntheta) >= 2 and nr * ntheta > MAX_SAMPLES:
        problems.append(("ntheta", "nr * ntheta = %d samples, more than %d"
                         % (nr * ntheta, MAX_SAMPLES)))
    r_max = _number(cfg, "r_max", None, problems)
    if r_max is not None and r_max <= 0:
        problems.append(("r_max", "must be positive, got %r" % r_max))
    return nr, ntheta, r_max


def _cmd_wavefunction(cfg: dict, problems: list) -> int:
    fmt, out = _output(cfg, "csv", problems)
    params, consts, meta_phys = _physics(cfg, problems)
    N, n, m = (_single_index(cfg, key, problems) for key in ("N", "n", "m"))
    for key, degree in (("N", N), ("n", n)):
        if degree > MAX_DEGREE:
            problems.append((key, "polynomial degree %d is more than %d" % (degree, MAX_DEGREE)))
    nr, ntheta, r_max = _sampling(cfg, problems)
    if problems:
        raise ConfigError(problems)

    state = wavefunctions.bound_state(params, consts,
                                      spectrum.QuantumNumbers(N=N, n=n, m=m))
    r_max = float(state.radial.support(1e-10) if r_max is None else r_max)
    r_grid = np.linspace(0.0, r_max, nr)
    theta_grid = np.linspace(0.0, math.pi, ntheta)

    eff = state.entry.eff
    meta = {"command": "wavefunction", **meta_phys, "N": N, "n": n, "m": m,
            "E": state.entry.E, "epsilon": state.entry.epsilon,
            "m_prime": eff.m_prime, "ell_prime": eff.ell_prime, "L": eff.L,
            "N_prime": state.entry.N_prime, "log_C": state.radial.log_C,
            "log_angular_norm": state.angular.log_norm,
            "angular_norm_adjusted": str(state.angular.adjusted).lower(),
            "nr": nr, "ntheta": ntheta, "r_max": r_max,
            "density": "abs(psi)^2 * r^(D-1) * sin(theta)"}
    # the assembly can overflow at large quantum numbers; no such sample is data
    with np.errstate(all="ignore"):
        density = state.density(r_grid[:, None], theta_grid[None, :])
    bad = int(np.count_nonzero(~np.isfinite(density)))
    if bad:
        raise ConfigError([("state", "N=%d n=%d m=%d gives a non-finite density at "
                                     "%d of %d grid points" % (N, n, m, bad, density.size))])
    # every sample is a finite float, which CSV and JSON both render as repr;
    # each r and theta cell is rendered once with the text around it, so only
    # the density is rendered per sample (about 3x the samples/s of _table)
    columns = ["r", "theta", "density"]
    _, template = _row_format(fmt, columns)
    head, mid, tail, end = template.split("%s")
    r_cells = [head + repr(r) + mid for r in r_grid.tolist()]
    theta_cells = [repr(theta) + tail for theta in theta_grid.tolist()]
    _emit(_frame(fmt, meta, columns, [r + theta + repr(d) + end
                                      for r, row in zip(r_cells, density.tolist())
                                      for theta, d in zip(theta_cells, row)]), out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_COLUMNS = ["name", "status", "value", "target", "tolerance", "error_estimate"]


def _verify_settings(cfg: dict, problems: list) -> tuple:
    """verify's tolerances, basis grid (None when out of range) and energy offset."""
    tols = {key: _number(cfg, key, default, problems) for key, default in
            (("tol_energy", 1e-4), ("tol_lambda", 1e-4), ("tol_state", 1e-7))}
    problems += [(key, "must be positive, got %r" % value)
                 for key, value in tols.items() if value <= 0]
    n_points = _integer(cfg, "points", 1500, problems)
    levels = _integer(cfg, "levels", 3, problems)
    offset = _number(cfg, "perturb_energy", 0.0, problems)
    bad = [(key, "must lie in %d..%d, got %r" % (lo, hi, value))
           for key, value, lo, hi in (("points", n_points, oracle.MIN_POINTS, oracle.MAX_POINTS),
                                      ("levels", levels, oracle.MIN_LEVELS, oracle.MAX_LEVELS))
           if not lo <= value <= hi]
    problems += bad
    grid = None if bad else oracle.GridSpec(n_points, levels)
    return oracle.VerifyTolerances(*tols.values()), grid, offset


def _cmd_verify(cfg: dict, problems: list) -> int:
    # the verification report is JSON-first; CSV mirrors the same fields
    fmt, out = _output(cfg, "json", problems)
    params, consts, meta_phys = _physics(cfg, problems)
    ranges = _state_ranges(cfg, problems, allow_empty=False)
    tol, grid, offset = _verify_settings(cfg, problems)
    if problems:
        raise ConfigError(problems)

    states = [spectrum.QuantumNumbers(N=N, n=n, m=m)
              for N, n, m in itertools.product(*ranges)]
    try:
        reports = oracle.verify_states(params, consts, states, tol, grid=grid,
                                       energy_offset=offset)
    except oracle.BasisSizeError as exc:    # planned, before any solve ran
        raise ConfigError([("N" if message.startswith("radial") else "n", message)
                           for message in exc.args]) from None

    checks = [("N%d_n%d_m%d.%s" % (q.N, q.n, q.m, c.name), c.status, c.value,
               c.target, c.tolerance, c.error_estimate)
              for q, report in zip(states, reports) for c in report.checks]
    all_passed = all(report.passed for report in reports)
    meta = {"command": "verify", **meta_phys,
            "N": cfg.get("N", "0"), "n": cfg.get("n", "0"), "m": cfg.get("m", "0"),
            "tol_energy": tol.energy_rel, "tol_lambda": tol.lambda_abs,
            "tol_state": tol.state_abs, "points": grid.n_points,
            "levels": grid.refinement_levels, "perturb_energy": offset}
    _emit(_table(fmt, meta, _VERIFY_COLUMNS, checks, key="checks"), out)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

_REL_TOL_REDUCE = 1e-12
_REDUCE_CASES = ("cheng-dai", "kratzer", "ddim", "coulomb-ring")


def _reduce_rows(case: str, consts, beta_override):
    De_axis = (0.5, 1.0, 2.0)
    re_axis = (0.6, 1.0, 1.4)
    beta_axis = (0.0, 1.0, 2.0) if beta_override is None else (beta_override,)
    rows = []
    if case == "cheng-dai":
        q = spectrum.QuantumNumbers(N=1, n=1, m=1)
        for De, re, beta in itertools.product(De_axis, re_axis, beta_axis):
            general = spectrum.reduce_cheng_dai(De, re, beta, consts, q).E
            literal = spectrum.cheng_dai_literal(De, re, beta, consts, q)
            rows.append({"De": De, "re": re, "beta": beta,
                         "N": q.N, "n": q.n, "m": q.m,
                         "literal": literal, "general": general})
    elif case == "kratzer":
        for De, re, ell in itertools.product(De_axis, re_axis, (0, 1, 2)):
            general = spectrum.reduce_kratzer(De, re, consts, 1, ell).E
            literal = spectrum.kratzer_literal(De, re, consts, 1, ell)
            rows.append({"De": De, "re": re, "ell": ell, "N": 1,
                         "literal": literal, "general": general})
    elif case == "ddim":
        q = spectrum.QuantumNumbers(N=1, n=1, m=1)
        beta = 1.0 if beta_override is None else beta_override
        for De, re, D in itertools.product(De_axis, re_axis, (3, 4, 5)):
            general = spectrum.reduce_ddim(De, re, beta, consts, q, D).E
            literal = spectrum.ddim_literal(De, re, beta, consts, q, D)
            rows.append({"De": De, "re": re, "D": D, "beta": beta,
                         "N": q.N, "n": q.n, "m": q.m,
                         "literal": literal, "general": general})
    elif case == "coulomb-ring":
        # equal N + n + m compositions expose the beta = 0 degeneracy
        q_axis = (spectrum.QuantumNumbers(2, 0, 0),
                  spectrum.QuantumNumbers(1, 1, 0),
                  spectrum.QuantumNumbers(0, 0, 2))
        for Z, beta, q in itertools.product((1.0, 2.0, 3.0), beta_axis, q_axis):
            general = spectrum.reduce_coulomb_ring(Z, 1.0, beta, consts, q).E
            literal = spectrum.coulomb_ring_literal(Z, 1.0, beta, consts, q)
            rows.append({"Z": Z, "beta": beta, "N": q.N, "n": q.n, "m": q.m,
                         "literal": literal, "general": general})
    return rows


def _cmd_reduce(cfg: dict, problems: list) -> int:
    fmt, out = _output(cfg, "csv", problems)
    case = _choice(cfg, "case", _REDUCE_CASES, None, problems)
    beta_override = _number(cfg, "beta", None, problems)
    if case == "kratzer" and beta_override not in (None, 0.0):
        problems.append(("beta", "must be 0 for the kratzer case (the ring "
                                 "term is absent there)"))
    consts = _constants(cfg, problems)
    seed = _integer(cfg, "negative_control", None, problems)
    if problems:
        raise ConfigError(problems)

    rows = _reduce_rows(case, consts, beta_override)

    if seed is not None:
        # deliberately corrupt one pseudo-randomly chosen literal value so the
        # comparator provably trips; used by the exit-code contract tests
        idx = random.Random(seed).randrange(len(rows))
        rows[idx]["literal"] *= 1.0 + 1e-9

    worst = 0.0
    for row in rows:
        diff = abs(row["literal"] - row["general"])
        row["abs_diff"] = diff
        limit = _REL_TOL_REDUCE * abs(row["general"])
        row["status"] = "ok" if diff <= limit else "mismatch"
        # an energy that underflows to 0 is matched only exactly
        worst = max(worst, diff / abs(row["general"]) if row["general"]
                    else math.inf if diff else 0.0)

    meta = {"command": "reduce", "case": case, "mu": consts.mu, "hbar": consts.hbar,
            "rel_tol": _REL_TOL_REDUCE, "worst_rel_diff": worst}
    columns = list(rows[0])
    _emit(_table(fmt, meta, columns, [tuple(row.values()) for row in rows]), out)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


# ---------------------------------------------------------------------------

_PHYSICS = ("a", "b", "c", "beta", "D", "mu", "hbar")
_OUTPUT = ("format", "out")
_STATES = ("N", "n", "m")

#: command -> (handler, help line, the keys it reads)
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "energy table over quantum-number ranges",
                 _PHYSICS + _OUTPUT + _STATES),
    "wavefunction": (_cmd_wavefunction, "density grid of one state",
                     _PHYSICS + _OUTPUT + _STATES + ("nr", "ntheta", "r_max")),
    "verify": (_cmd_verify, "spectral eigensolver cross-check of states",
               _PHYSICS + _OUTPUT + _STATES + ("tol_energy", "tol_lambda", "tol_state",
                                              "points", "levels", "perturb_energy")),
    "reduce": (_cmd_reduce, "limiting-case formulas vs the general one",
               ("beta", "mu", "hbar") + _OUTPUT + ("case", "negative_control")),
}
_KNOWN_KEYS = frozenset(key for _, _, keys in _COMMANDS.values() for key in keys)
_VALUE_FLAGS = _KNOWN_KEYS | {"config"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Flags of every command as plain text; no flag may be abbreviated.

    Built once per process: parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="ringcoulomb", allow_abbrev=False, exit_on_error=False,
        description="Bound states of the pseudo-Coulomb plus ring-shaped "
                    "potential in D dimensions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_line, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, allow_abbrev=False, exit_on_error=False)
        for key in keys + ("config",):
            p.add_argument("--" + key.replace("_", "-"))
    return parser


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse(argv) -> tuple:
    """The parsed flags and the problems of every argument argparse could not place."""
    # argparse takes only -1 and -.5 shapes as values; "--c -1e-3" means --c=-1e-3
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        flag = joined[-1] if joined else ""
        if (flag.startswith("--") and flag[2:].replace("-", "_") in _VALUE_FLAGS
                and arg.startswith("-") and _is_number(arg)):
            joined[-1] = flag + "=" + arg
        else:
            joined.append(arg)
    try:
        args, extras = _build_parser().parse_known_args(joined)
    except argparse.ArgumentError as exc:   # a flag without its value, an unknown command
        flag = (exc.argument_name or "command").split("/")[-1]    # "-h/--help": help
        field_name = flag.lstrip("-").replace("-", "_")
        raise ConfigError([(field_name, exc.message)]) from None
    if args.command is None:
        raise ConfigError([("command", "missing; choose one of %s" % ", ".join(_COMMANDS))])
    problems = []
    value_of_flag = False
    for arg in extras:
        if value_of_flag and not arg.startswith("--"):
            value_of_flag = False       # reported with the flag before it
            continue
        key, eq, _ = arg.lstrip("-").partition("=")
        key = key.replace("-", "_")
        is_flag = arg.startswith("-") and key.isidentifier()
        problems.append((key, "not a flag of %s" % args.command) if is_flag
                        else (args.command, "unexpected argument %r" % arg))
        value_of_flag = is_flag and not eq
    return args, problems


def main(argv=None) -> int:
    try:
        args, problems = _parse(argv)
        cfg = _merge_config(args, problems)
        return _COMMANDS[args.command][0](cfg, problems)
    except ConfigError as exc:
        for field_name, message in exc.problems:
            _diagnose("%s: %s" % (field_name, message))
        return 2
    except (spectrum.SpectrumError, oracle.OracleError) as exc:
        _diagnose(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
