"""Byte-identity guard: the stdout of a fixed set of CLI invocations.

Each invocation's stdout is compared byte for byte with a file under
``tests/data/golden/``.  The files were made and are checked on one platform
(x86-64 Linux, Python 3.11, numpy 2.4, scipy 1.17).  The spectrum and reduce
tables are closed forms and should hold anywhere; the wavefunction and verify
outputs run through libm and LAPACK, whose last digits may differ on another
platform, in which case regenerate the files there from a commit known to be
right before using them as a guard.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.  For each file
it rewrites, it prints the number of changed lines and the largest relative
change of a numeric cell among lines whose other cells are unchanged, and
counts apart the lines that change in more than their numbers.
"""

import contextlib
import io
import pathlib
import re
import sys

import pytest

from ringcoulomb import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"

_SPECTRUM = ["spectrum", "--a", "1.5", "--b", "0.3", "--beta", "1.1", "--D", "4",
             "--N", "0..2", "--n", "0..2", "--m", "0..2"]
# 81 (n, m) blocks of 2 N each: the table computes each block's indices once
_SPECTRUM_MANY_NM = ["spectrum", "--a", "0.9", "--b", "0.4", "--c", "-0.25", "--beta",
                     "0.7", "--D", "5", "--N", "0..1", "--n", "0..8", "--m", "0..8"]
# beta = 0, m = 0: the printed angular constant normalizes the state
_WAVE_PRINTED = ["wavefunction", "--a", "1.3", "--b", "0.2", "--N", "1", "--n", "1",
                 "--m", "0", "--nr", "41", "--ntheta", "21"]
# beta = 2, m = 2: the angular norm is replaced by the closed-form value
_WAVE_ADJUSTED = ["wavefunction", "--a", "1.3", "--b", "0.2", "--beta", "2",
                  "--N", "1", "--n", "1", "--m", "2", "--nr", "41", "--ntheta", "21"]
_VERIFY = ["verify", "--a", "1", "--b", "0.2", "--beta", "0.5", "--N", "1",
           "--n", "0", "--m", "1"]
# 18 states, three radial indices sharing each (n, m)
_VERIFY_RANGE = ["verify", "--a", "1.2", "--b", "0.3", "--beta", "1.5", "--D", "4",
                 "--N", "0..2", "--n", "0..1", "--m", "0..2"]

#: golden file name -> argv
INVOCATIONS = {
    "spectrum.csv": _SPECTRUM + ["--format", "csv"],
    "spectrum.json": _SPECTRUM + ["--format", "json"],
    "spectrum_many_nm.csv": _SPECTRUM_MANY_NM + ["--format", "csv"],
    "spectrum_many_nm.json": _SPECTRUM_MANY_NM + ["--format", "json"],
    "spectrum_empty.csv": ["spectrum", "--a", "1", "--N", "2..1"],
    "spectrum_empty.json": ["spectrum", "--a", "1", "--N", "2..1", "--format", "json"],
    "wavefunction_printed.csv": _WAVE_PRINTED + ["--format", "csv"],
    "wavefunction_printed.json": _WAVE_PRINTED + ["--format", "json"],
    "wavefunction_adjusted.csv": _WAVE_ADJUSTED + ["--format", "csv"],
    "wavefunction_adjusted.json": _WAVE_ADJUSTED + ["--format", "json"],
    "verify.csv": _VERIFY + ["--format", "csv"],
    "verify.json": _VERIFY + ["--format", "json"],
    "verify_range.csv": _VERIFY_RANGE + ["--format", "csv"],
    "verify_range.json": _VERIFY_RANGE + ["--format", "json"],
    "reduce_cheng-dai.csv": ["reduce", "--case", "cheng-dai"],
    "reduce_kratzer.csv": ["reduce", "--case", "kratzer"],
    "reduce_ddim.csv": ["reduce", "--case", "ddim"],
    "reduce_coulomb-ring.csv": ["reduce", "--case", "coulomb-ring"],
    "reduce_coulomb-ring.json": ["reduce", "--case", "coulomb-ring", "--format", "json"],
}


def stdout_of(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_matches_golden(name):
    assert stdout_of(INVOCATIONS[name]) == (GOLDEN_DIR / name).read_bytes()


def _cells(line: str) -> list:
    """The cells of a CSV, JSON or meta line, numbers as floats."""
    cells = []
    for cell in re.split(r'[\s,:="{}\[\]]+', line):
        try:
            cells.append(float(cell))
        except ValueError:
            cells.append(cell)
    return cells


def moved(old: bytes, new: bytes) -> str:
    """What changed from old to new: changed lines, the largest relative
    change of a numeric cell, and the lines that change in more than numbers."""
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    changed = [(_cells(a), _cells(b)) for a, b in zip(old_lines, new_lines) if a != b]
    count = len(changed) + abs(len(old_lines) - len(new_lines))
    if not count:
        return "unchanged"
    worst, other = 0.0, count - len(changed)
    for a, b in changed:
        if [x if isinstance(x, str) else None for x in a] != [
                y if isinstance(y, str) else None for y in b]:
            other += 1
        else:
            worst = max([worst] + [abs(x - y) / max(abs(x), abs(y))
                                   for x, y in zip(a, b) if x != y])
    return ("%d lines changed, largest relative change %.2g, %d changed in more than "
            "numbers" % (count, worst, other))


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in INVOCATIONS.items():
        path = GOLDEN_DIR / name
        old = path.read_bytes() if path.exists() else b""
        path.write_bytes(stdout_of(argv))
        print("wrote %s: %s" % (path, moved(old, path.read_bytes())), file=sys.stderr)
