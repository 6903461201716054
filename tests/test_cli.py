"""CLI contract tests: formats, determinism, exit codes, config handling."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringcoulomb import cli, oracle, spectrum


#: the one kind of line exit code 2 writes to stderr
_FIELD_LINE = re.compile(r"^error: \w+: \S", re.M)


def run(argv):
    return cli.main(argv)


def read(path):
    return path.read_bytes()


def load_table(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSpectrum:
    def test_hydrogen_grid_row_count_and_grouping(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--a", "1", "--D", "3", "--N", "0..2",
                    "--n", "0..2", "--m", "0..1", "--out", str(out)]) == 0
        header, rows = load_table(out.read_text())
        assert header == ["N", "n", "m", "m_prime", "ell_prime", "L", "N_prime",
                          "epsilon", "E", "status"]
        assert len(rows) == 18
        # energies are sorted, so the degenerate principal shells sit together
        energies = [float(r["E"]) for r in rows]
        assert energies == sorted(energies)
        assert energies[0] == pytest.approx(-0.5)

    def test_empty_range_gives_empty_table(self, tmp_path, capsys):
        assert run(["spectrum", "--a", "1", "--N", "2..1"]) == 0
        captured = capsys.readouterr()
        _, rows = load_table(captured.out)
        assert rows == []

    def test_byte_identical_reruns(self, tmp_path):
        args = ["spectrum", "--a", "1.5", "--b", "0.3", "--beta", "1.1",
                "--D", "4", "--N", "0..3", "--n", "0..2", "--m", "0..2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert read(out1) == read(out2)

    def test_json_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--a", "1.7", "--b", "0.2", "--N", "0..2",
                    "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        consts = spectrum.PhysicalConstants()
        for row in payload["rows"]:
            q = spectrum.QuantumNumbers(row["N"], row["n"], row["m"])
            entry = spectrum.energy(
                spectrum.PotentialParams(a=1.7, b=0.2), consts, q)
            assert row["E"] == entry.E  # bit-for-bit through JSON
        # serializing again reproduces the file byte for byte
        assert json.dumps(payload, indent=2) + "\n" == out.read_text()

    def test_invalid_config_exit_and_diagnostics(self, capsys):
        code = run(["spectrum", "--a", "-1", "--D", "1"])
        captured = capsys.readouterr()
        assert code == 2
        errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
        assert len(errors) == 2
        assert any("a:" in e for e in errors)
        assert any("D:" in e for e in errors)

    def test_fall_to_center_rows_are_flagged(self, tmp_path, monkeypatch, capsys):
        # physical inputs cannot reach 4*gamma+1 < 0, so force the branch
        real_indices = spectrum.effective_indices

        def fake_indices(params, consts, q):
            if q.n == 1:
                raise spectrum.FallToCenter("forced")
            return real_indices(params, consts, q)

        monkeypatch.setattr(cli.spectrum, "effective_indices", fake_indices)
        assert run(["spectrum", "--a", "1", "--n", "0..1"]) == 0
        _, rows = load_table(capsys.readouterr().out)
        flagged = [r for r in rows if r["status"] == "fall-to-center"]
        assert len(flagged) == 1
        assert flagged[0]["E"] == "" and flagged[0]["epsilon"] == ""
        assert rows[-1]["status"] == "fall-to-center"  # sorted to the end

    @pytest.mark.parametrize("ranges, blocks, states", [
        (["--N", "0..2", "--n", "0..1", "--m", "0..2"], 6, 18),
        (["--N", "3..3", "--n", "2..4", "--m", "1..1"], 3, 3),
        (["--N", "1..0", "--n", "0..1", "--m", "0..2"], 0, 0),
    ])
    def test_indices_once_per_block_energy_once_per_state(self, ranges, blocks, states,
                                                           monkeypatch, capsys):
        calls = {"effective_indices": 0, "energy": 0}

        def counted(name):
            real = getattr(spectrum, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli.spectrum, name, counted(name))
        assert run(["spectrum", "--a", "1.1", "--beta", "0.3", *ranges]) == 0
        _, rows = load_table(capsys.readouterr().out)
        assert calls == {"effective_indices": blocks, "energy": states}
        assert len(rows) == states

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": 2.0, "D": 5, "N": "0..1"}))
        assert run(["spectrum", "--config", str(cfg), "--D", "3"]) == 0
        out = capsys.readouterr().out
        assert "# a=2.0" in out
        assert "# D=3" in out  # flag wins over file
        _, rows = load_table(out)
        assert len(rows) == 2


class TestWavefunction:
    def test_density_grid_contracts(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert run(["wavefunction", "--a", "1", "--nr", "100", "--ntheta", "50",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("r,"))
        meta = dict(l[2:].split("=", 1) for l in lines[:start] if "=" in l)
        assert float(meta["E"]) == pytest.approx(-0.5)
        data = np.loadtxt(str(out), delimiter=",", skiprows=start + 1)
        r = np.unique(data[:, 0])
        theta = np.unique(data[:, 1])
        dens = data[:, 2].reshape(len(r), len(theta))
        # radial density peaks at the length scale 1/eps within one cell
        radial = np.trapezoid(dens, theta, axis=1)
        assert abs(r[np.argmax(radial)] - 1.0) <= r[1] - r[0]
        # coarse-grid integral consistency
        total = np.trapezoid(radial, r) * 2.0 * math.pi
        assert total == pytest.approx(1.0, abs=1e-2)

    def test_polar_axis_zero_for_ring_states(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert run(["wavefunction", "--a", "1", "--beta", "2", "--m", "1",
                    "--nr", "40", "--ntheta", "21", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("r,"))
        data = np.loadtxt(str(out), delimiter=",", skiprows=start + 1)
        axis_rows = data[np.isclose(data[:, 1], 0.0) | np.isclose(data[:, 1], math.pi)]
        assert np.all(axis_rows[:, 2] == 0.0)

    def test_requires_single_state(self, capsys):
        assert run(["wavefunction", "--a", "1", "--N", "0..2"]) == 2
        assert "N:" in capsys.readouterr().err

    def test_json_and_csv_carry_the_same_samples(self, capsys):
        args = ["wavefunction", "--a", "1.2", "--beta", "1.5", "--N", "1", "--m", "1",
                "--nr", "17", "--ntheta", "9"]
        assert run(args + ["--format", "csv"]) == 0
        _, rows = load_table(capsys.readouterr().out)
        from_csv = [(float(r["r"]), float(r["theta"]), float(r["density"])) for r in rows]
        assert run(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from_json = [(r["r"], r["theta"], r["density"]) for r in payload["rows"]]
        assert len(from_csv) == 17 * 9
        assert from_json == from_csv


class TestVerify:
    def test_pass_case_exit_zero(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--a", "1", "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert all(c["status"] == "pass" for c in payload["checks"])
        for check in payload["checks"]:
            assert set(check) == {"name", "status", "value", "target",
                                  "tolerance", "error_estimate"}

    def test_negative_control_exit_one(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--a", "1", "--perturb-energy", "1e-2",
                    "--format", "json", "--out", str(out)]) == 1
        payload = json.loads(out.read_text())
        status = {c["name"]: c["status"] for c in payload["checks"]}
        assert status["N0_n0_m0.radial_energy"] == "fail"

    def test_csv_format_mirrors_check_fields(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert run(["verify", "--a", "1", "--format", "csv",
                    "--out", str(out)]) == 0
        header, rows = load_table(out.read_text())
        assert header == ["name", "status", "value", "target", "tolerance",
                          "error_estimate"]
        assert len(rows) == 4

    def test_perturbed_energy_fails_only_the_energy_check(self, capsys):
        assert run(["verify", "--a", "1", "--N", "0..1", "--perturb-energy", "1e-2",
                    "--format", "json"]) == 1
        failed = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]
                  if c["status"] != "pass"}
        assert failed == {"N0_n0_m0.radial_energy", "N1_n0_m0.radial_energy"}

    @pytest.mark.parametrize("physics", [
        ["--a", "1e-4"],
        ["--a", "1000"],
        ["--a", "2.307e-28", "--mu", "9.109e-31", "--hbar", "1.0546e-34"],
        ["--b", "3e4"],
    ], ids=["a_1e-4", "a_1000", "si_hydrogen", "b_3e4"])
    def test_wavefunction_checks_hold_at_every_length_scale(self, physics, capsys):
        # finite-difference residuals on a fixed window of r failed a = 1000,
        # passed SI hydrogen with 0.0 against a tolerance of 0.0, and printed
        # numpy warnings and a NaN row at b = 3e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify", *physics, "--N", "0..1", "--m", "0..1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        checks = [c for c in json.loads(captured.out)["checks"]
                  if c["name"].endswith("_wavefunction")]
        assert len(checks) == 8
        assert all(0.0 < c["value"] <= 1e-2 * c["tolerance"] for c in checks)

    def test_basis_cap_reads_the_state_exponent_and_runs_no_solve(self, monkeypatch, capsys):
        # at b = 1e5 the radial exponent s = 448 adds int(s / 16) = 27 basis
        # functions; a cap rule that took s = 1 let N = 725 through to its solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        for name in ("_bases", "radial_eigen", "angular_eigen"):
            monkeypatch.setattr(oracle, name, no_solve)
        assert run(["verify", "--a", "1", "--b", "1e5", "--N", "725"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: N: radial index N = 725 needs 1507 basis "
                                "functions, more than the cap of 1500\n")

    def test_sweep_mode_merges_sorted(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--a", "1", "--N", "0..1", "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        names = [c["name"] for c in payload["checks"]]
        assert names[0].startswith("N0_") and names[-1].startswith("N1_")
        assert len(names) == 8


class TestReduce:
    def test_all_cases_within_tolerance(self, tmp_path):
        for case in ("cheng-dai", "kratzer", "ddim", "coulomb-ring"):
            out = tmp_path / ("%s.json" % case)
            assert run(["reduce", "--case", case, "--format", "json",
                        "--out", str(out)]) == 0, case
            payload = json.loads(out.read_text())
            assert len(payload["rows"]) == 27
            for row in payload["rows"]:
                assert row["status"] == "ok"
                assert abs(row["literal"] - row["general"]) <= 1e-12 * abs(row["general"])

    def test_coulomb_ring_degeneracy_listing(self, tmp_path):
        out = tmp_path / "cr.json"
        assert run(["reduce", "--case", "coulomb-ring", "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        for Z in (1.0, 2.0, 3.0):
            at_zero_beta = {row["general"] for row in payload["rows"]
                            if row["Z"] == Z and row["beta"] == 0.0}
            assert len(at_zero_beta) == 1  # all compositions of N+n+m coincide

    def test_kratzer_rejects_ring_strength(self, capsys):
        assert run(["reduce", "--case", "kratzer", "--beta", "1"]) == 2
        assert "beta:" in capsys.readouterr().err

    def test_negative_control_trips_comparator(self, tmp_path):
        out = tmp_path / "nc.csv"
        assert run(["reduce", "--case", "cheng-dai", "--negative-control", "7",
                    "--out", str(out)]) == 1
        _, rows = load_table(out.read_text())
        assert sum(r["status"] == "mismatch" for r in rows) == 1

    def test_reduce_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run(["reduce", "--case", "ddim", "--out", str(out1)]) == 0
        assert run(["reduce", "--case", "ddim", "--out", str(out2)]) == 0
        assert read(out1) == read(out2)

    def test_missing_case_is_config_error(self, capsys):
        assert run(["reduce"]) == 2
        assert "case:" in capsys.readouterr().err


class TestTableWriter:
    COLUMNS = ["x", "y"]
    META = {"command": "test", "a": 1.5, "label": "caf\u00e9"}

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0, 0.1, 1e300, None,
        'quote " back \\ tab \t nl \n caf\u00e9 \u2603 %s', "", 0, -7, 10**20,
        True, False, np.float64(2.5), np.float64(math.nan),
    ])
    def test_json_rows_render_as_json_dumps(self, value):
        rows = [(value, 1), (2.0, value)]
        expected = json.dumps({"meta": self.META,
                               "rows": [dict(zip(self.COLUMNS, r)) for r in rows]},
                              indent=2) + "\n"
        assert cli._table("json", self.META, self.COLUMNS, rows) == expected

    def test_empty_json_table(self):
        expected = json.dumps({"meta": self.META, "checks": []}, indent=2) + "\n"
        assert cli._table("json", self.META, self.COLUMNS, [], key="checks") == expected

    def test_csv_rows_go_through_fmt(self):
        rows = [(None, "ok"), (3, np.float64(0.25)), (math.nan, -0.0)]
        text = cli._table("csv", {"command": "test", "a": 1.5}, self.COLUMNS, rows)
        assert text == "# command=test\n# a=1.5\nx,y\n,ok\n3,0.25\nnan,-0.0\n"


class TestBadInput:
    """Every bad value gets exit code 2 and one ``field: message`` line."""

    @pytest.mark.parametrize("argv, field", [
        (["spectrum", "--a", "nan"], "a"),
        (["spectrum", "--a", "inf", "--beta", "inf"], "beta"),
        (["spectrum", "--b=-inf"], "b"),
        (["spectrum", "--c", "nan"], "c"),
        (["spectrum", "--mu", "inf"], "mu"),
        (["wavefunction", "--hbar", "nan"], "hbar"),
        (["wavefunction", "--r-max", "-3"], "r_max"),
        (["wavefunction", "--r-max", "0"], "r_max"),
        (["wavefunction", "--r-max", "inf"], "r_max"),
        (["verify", "--points", "10"], "points"),
        (["verify", "--levels", "1"], "levels"),
        (["verify", "--tol-energy", "nan"], "tol_energy"),
        (["reduce", "--case", "ddim", "--beta", "nan"], "beta"),
        (["reduce", "--case", "ddim", "--mu", "inf"], "mu"),
        # size caps, rejected before anything of that size is built
        (["spectrum", "--N", "0..1000000"], "N"),
        (["spectrum", "--N", "0..999", "--n", "0..999", "--m", "0..1"], "states"),
        (["verify", "--N", "0..999", "--n", "0..999", "--m", "0..1"], "states"),
        (["wavefunction", "--nr", "1001", "--ntheta", "1000"], "ntheta"),
        (["verify", "--levels", "30"], "levels"),
        (["verify", "--points", "1500", "--levels", "11"], "levels"),
        (["verify", "--points", "64", "--levels", "12"], "levels"),
        # a basis larger than the cap; a polynomial degree past the cap
        (["verify", "--N", "1500"], "N"),
        (["verify", "--n", "0..2000", "--points", "64"], "n"),
        (["wavefunction", "--N", "99999999999999999999"], "N"),
        # every formula divides by hbar^2
        (["spectrum", "--hbar", "1e308"], "hbar"),
        (["reduce", "--case", "kratzer", "--hbar", "1e-300"], "hbar"),
        # reduce reads no a, b, c or D; a flag is never abbreviated
        (["reduce", "--case", "ddim", "--a", "nan"], "a"),
        (["reduce", "--case", "ddim", "--D", "7"], "D"),
        (["spectrum", "--conf", "x"], "conf"),
        # flag text meets the readers a config value meets
        (["spectrum", "--a", "x"], "a"),
        (["spectrum", "--format", "xml"], "format"),
        (["reduce", "--case", "foo"], "case"),
        (["wavefunction", "--nr", "2.5"], "nr"),
        # verify never passes having checked nothing
        (["verify", "--N", "2..1"], "N"),
        (["verify", "--n", "1..0", "--m", "3..2"], "m"),
        # what argparse cannot place
        (["spectrum", "--a"], "a"),
        (["spectrum", "--a", "1", "2"], "spectrum"),
        ([], "command"),
        (["foo"], "command"),
    ])
    def test_flags(self, argv, field, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: %s: " % field) in captured.err
        # field lines only: no usage block
        assert all(_FIELD_LINE.match(line) for line in captured.err.splitlines())

    @pytest.mark.parametrize("argv, field", [
        (["--points", "2048"], None),
        (["--points", "2049"], "points"),
        (["--levels", "10"], None),
        (["--points", "64", "--levels", "2", "--N", "22"], None),
        (["--points", "64", "--levels", "2", "--N", "23"], "N"),
        (["--points", "64", "--levels", "2", "--n", "53"], None),
        (["--points", "64", "--levels", "2", "--n", "54"], "n"),
    ])
    def test_basis_cap_edges(self, argv, field, capsys):
        # the largest basis of each solver meets --points exactly at the edge
        code = run(["verify", "--a", "1.2", *argv])
        err = capsys.readouterr().err
        if field is None:
            assert code == 0, err
        else:
            assert code == 2 and ("error: %s: " % field) in err, err

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--a", "1e308"], "alpha = inf"),
        (["wavefunction", "--a", "1e300", "--b", "1e300"], "C = exp("),
        # for n >> m'^2, h_n approaches 2^(2m'+1) / (2n), beyond a float at m' = 447
        (["wavefunction", "--beta", "2e5", "--n", "10000", "--nr", "3", "--ntheta", "3"],
         "h_n = exp("),
        # E = c - 2 mu a^2 / (hbar^2 den^2) stays finite, but the decay rate
        # 2 mu a / (hbar^2 den) = 1e200 makes the grid step square to zero
        (["verify", "--hbar", "1e-100", "--points", "64", "--levels", "2"],
         "squared underflows"),
        (["verify", "--beta", "1e308", "--points", "64", "--levels", "2"],
         "outside the float range"),
        (["spectrum", "--a", "1e200", "--N", "0..0", "--n", "0..0", "--m", "0..0"],
         "E = -inf"),
        # Lambda = l'(l'+D-2) - 2 mu beta/hbar^2 keeps no correct digit; these
        # printed E = -0.5 marked ok and a fall-to-center row
        (["spectrum", "--beta", "1e33"], "cancels every digit"),
        (["spectrum", "--beta", "1e32"], "cancels every digit"),
    ])
    def test_extreme_parameters_fail_with_a_message(self, argv, message, capsys):
        # valid inputs whose computation leaves the float range end in a
        # typed error of the library, never in a traceback
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    @pytest.mark.parametrize("command, config, field", [
        ("spectrum", {"a": "x"}, "a"),
        ("spectrum", {"beta": None}, "beta"),
        ("spectrum", {"hbar": True}, "hbar"),
        ("spectrum", {"D": 3.5}, "D"),
        ("spectrum", {"D": 1e400}, "D"),
        ("spectrum", {"format": "xml"}, "format"),
        ("wavefunction", {"nr": 10.5}, "nr"),
        ("wavefunction", {"ntheta": "many"}, "ntheta"),
        ("wavefunction", {"r_max": "far"}, "r_max"),
        ("verify", {"points": "x"}, "points"),
        ("verify", {"levels": 2.5}, "levels"),
        ("reduce", {"case": "ddim", "negative_control": "seven"}, "negative_control"),
        ("spectrum", {"out": 2.5}, "out"),
    ])
    def test_config_values(self, command, config, field, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        runs = [[command, "--config", str(cfg)]]
        if all(isinstance(value, str) for value in config.values()):
            # the same text as flags meets the same readers
            runs.append([command] + ["--%s=%s" % (key.replace("_", "-"), value)
                                     for key, value in config.items()])
        lines = []
        for argv in runs:
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines.append([line for line in captured.err.splitlines()
                          if line.startswith("error: %s: " % field)])
        assert len(lines[0]) == 1 and lines.count(lines[0]) == len(lines), lines

    @pytest.mark.parametrize("key, value, line", [
        ("tol_energy", -1, "tol_energy: must be positive, got -1.0"),
        ("tol_lambda", 0, "tol_lambda: must be positive, got 0.0"),
        ("tol_state", "-0.0", "tol_state: must be positive, got -0.0"),
    ])
    def test_tolerances_must_be_positive(self, key, value, line, tmp_path, capsys):
        # a negative tolerance failed every check; a zero one passed exact values
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        for argv in (["--%s=%s" % (key.replace("_", "-"), value)], ["--config", str(cfg)]):
            assert run(["verify", "--a", "1", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == "error: %s\n" % line

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--a", "1", "--c", "-1e-3"],
        ["spectrum", "--a", "1", "--c", "-1E3", "--format", "json"],
        ["verify", "--perturb-energy", "-1e-3"],
        ["spectrum", "--c", "-inf"],
        ["wavefunction", "--r-max", "-2e0", "--nr", "3", "--ntheta", "3"],
    ])
    def test_negative_value_in_its_own_token(self, argv, capsys):
        # argparse reads only -1 and -.5 shapes as values; any other number
        # that float() accepts is still the value of the flag before it
        code = run(argv)
        spaced = capsys.readouterr()
        joined = argv[:-2] + ["%s=%s" % tuple(argv[-2:])]
        assert (run(joined), capsys.readouterr()) == (code, spaced)
        assert "expected one argument" not in spaced.err

    def test_flag_before_a_flag_still_lacks_its_value(self, capsys):
        assert run(["spectrum", "--a", "--b", "1"]) == 2
        assert capsys.readouterr().err == "error: a: expected one argument\n"

    def test_unwritable_out_path(self, tmp_path, capsys):
        assert run(["spectrum", "--out", str(tmp_path / "missing" / "spec.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out: cannot write ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("indices", [
        # 2 eps r overflows a float at the outer samples, and the Laguerre
        # recurrence with it
        ["--a", "10", "--N", "2", "--r-max", "1e308"],
    ], ids=["two_eps_r_overflows"])
    def test_non_finite_density_is_not_data(self, indices, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["wavefunction", *indices, "--nr", "3", "--ntheta", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: state: ")
        assert captured.err.count("\n") == 1

    def test_integral_config_values_still_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"D": 4.0, "nr": "12", "ntheta": 5}))
        assert run(["wavefunction", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "# D=4\n" in out and "# nr=12\n" in out


class TestConfigHandling:
    def test_unknown_config_key_is_diagnosed(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": 1.0, "bete": 2.0}))
        assert run(["spectrum", "--config", str(cfg)]) == 2
        assert "bete:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, lines", [
        (["reduce", "--case", "ddim"], {"a": "x", "D": 1},
         ["a: must be a number, got 'x'", "D: must be at least 2, got 1"]),
        (["reduce", "--case", "ddim"], {"N": "0..x", "nr": 1},
         ["N: expected an integer or lo..hi range, got '0..x'",
          "nr: need at least 2 radial samples"]),
        (["spectrum"], {"tol-energy": -1, "points": 8},
         ["tol_energy: must be positive, got -1.0", "points: must lie in 64..2048, got 8"]),
        (["verify"], {"r_max": 0, "case": "dim", "negative_control": 0.5},
         ["r_max: must be positive, got 0.0",
          "case: must be one of cheng-dai, kratzer, ddim, coulomb-ring; got 'dim'",
          "negative_control: must be an integer, got 0.5"]),
    ])
    def test_a_key_of_another_command_is_checked(self, argv, config, lines, tmp_path, capsys):
        # the command ignores the key, but a bad value in a shared file is reported
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert run(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "".join("error: %s\n" % line for line in lines)

    def test_a_shared_config_file_serves_every_command(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": 2.0, "D": 4, "N": "0..1", "nr": 3, "ntheta": 3,
                                   "points": 64, "levels": 2, "case": "ddim"}))
        for argv in (["spectrum"], ["wavefunction", "--N", "1"], ["verify"], ["reduce"]):
            assert run(argv + ["--config", str(cfg)]) == 0, argv
        assert capsys.readouterr().err == ""

    def test_dashed_config_keys_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol-energy": 1e-3, "a": 1.0}))
        assert run(["verify", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["tol_energy"] == 1e-3


# ---------------------------------------------------------------------------
# fuzzing the configuration surface
# ---------------------------------------------------------------------------

_FLAGS = {
    "spectrum": ("a", "b", "c", "beta", "D", "mu", "hbar", "format", "N", "n", "m"),
    "wavefunction": ("a", "b", "c", "beta", "D", "mu", "hbar", "format", "N", "n", "m",
                     "nr", "ntheta", "r-max"),
    "verify": ("a", "b", "c", "beta", "D", "mu", "hbar", "format", "N", "n", "m",
               "tol-energy", "tol-lambda", "tol-state", "points", "levels",
               "perturb-energy"),
    "reduce": ("beta", "mu", "hbar", "format", "case", "negative-control"),
}
_CONFIG_KEYS = sorted({key.replace("-", "_") for keys in _FLAGS.values() for key in keys}
                      | {"typo"})
# huge, tiny and negative numbers that parse, and text that does not
_NUMBERS = ["0", "-0.0", "0.5", "1", "2.5", "-3", "1e-300", "1e300", "1e308", "-1e308",
            "-2E-3", "5e-324", "99999999999999999999"]
_JUNK = ["nan", "-nan", "inf", "-inf", "1e400", "", " ", "x", "1e", "0x10", str(2**63),
         "..", "1..", "..2", "a..b", "1..2..3"]
_CHOICES = {"format": ["csv", "json"], "case": ["cheng-dai", "kratzer", "ddim", "coulomb-ring"],
            "D": ["2", "3", "5"], "nr": ["2", "7"], "ntheta": ["2", "5"],
            "points": ["64", "200"], "levels": ["2", "3"], "negative-control": ["0", "7"]}
# lo..hi with hi - lo in -2..1: empty, reversed, single and pair ranges, a few
# states at most, so that every accepted run stays cheap
_RANGES = st.builds(lambda lo, width: "%d..%d" % (lo, lo + width),
                    st.integers(-2, 4), st.integers(-2, 1))
_ANY_TEXT = st.sampled_from(_NUMBERS + _JUNK + sorted({v for vs in _CHOICES.values()
                                                       for v in vs}))


def _text_for(key):
    """A value that fits the flag about half of the time."""
    fits = _RANGES if key in ("N", "n", "m") else st.sampled_from(_CHOICES.get(key, _NUMBERS))
    return st.one_of(fits, _ANY_TEXT)


_JSON_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(10**18, 10**30),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -2.5]),
    st.lists(st.integers(0, 2), max_size=2), st.just({"nested": 1}))


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    # sorted, because a set's order of strings changes from process to process;
    # "typo" is a flag of no command
    flags = {key: draw(_text_for(key)) for key in sorted(draw(
        st.sets(st.sampled_from(_FLAGS[command] + ("typo",)), max_size=4)))}
    config = draw(st.one_of(
        st.none(),
        st.sampled_from(["[1, 2]", "{not json", "7", ""]),
        st.sets(st.sampled_from(_CONFIG_KEYS), max_size=3).flatmap(
            lambda keys: st.fixed_dictionaries(
                {key: st.one_of(_text_for(key.replace("_", "-")), _JSON_JUNK)
                 for key in sorted(keys)}))))
    return command, flags, config


def _check_exit_contract(argv):
    """Exit 0, 1 or 2, never a traceback, and exit 2 names the offending field;
    returns the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert lines and all(_FIELD_LINE.match(line) for line in lines), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _reads_as_a_flag(value):
    try:
        float(value)
    except ValueError:
        return value.startswith("-")
    return False


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_invocations())
def test_any_configuration_exits_cleanly(tmp_path_factory, invocation):
    """Flags and config values of every kind, valid or not, as --flag=value
    and as --flag value, which mean the same unless the value starts with "-"
    and is not a number: argparse reads that as a flag."""
    command, flags, config = invocation
    tail = []
    if config is not None:
        path = tmp_path_factory.mktemp("fuzz") / "run.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        tail = ["--config=%s" % path]
    joined = _check_exit_contract([command] + ["--%s=%s" % item for item in flags.items()]
                                  + tail)
    spaced = _check_exit_contract([command] + [text for key, value in flags.items()
                                               for text in ("--" + key, value)] + tail)
    if not any(map(_reads_as_a_flag, flags.values())):
        assert spaced == joined


_SMALL_RUNS = {"spectrum": [], "wavefunction": ["--nr", "5", "--ntheta", "5"],
               "verify": ["--points", "64", "--levels", "2"], "reduce": ["--case", "ddim"]}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from(sorted(_SMALL_RUNS)),
       st.dictionaries(st.sampled_from(["a", "b", "beta", "mu", "hbar"]),
                       st.sampled_from(["5e-324", "1e-300", "1e-150", "0.5", "1e150",
                                        "1e300", "1e308"]), min_size=1, max_size=3))
def test_extreme_magnitudes_exit_cleanly(command, physics):
    """Valid parameters at the ends of the float range reach the computation."""
    _check_exit_contract([command, *_SMALL_RUNS[command]]
                         + ["--%s=%s" % item for item in physics.items()])


_STARTUP_SCRIPT = """
import contextlib, io, json, sys
from ringcoulomb import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["spectrum", "--N", "0..1"]),
             cli.main(["wavefunction", "--nr", "5", "--ntheta", "5"]),
             cli.main(["reduce", "--case", "kratzer"]),
             cli.main(["verify"])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def test_no_command_loads_scipy():
    """scipy is not a runtime dependency; verify's eigensolves use numpy alone."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "scipy": False}
