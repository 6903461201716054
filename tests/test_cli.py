"""CLI contract tests: formats, determinism, exit codes, config handling."""

import json
import math
import warnings

import numpy as np
import pytest

from ringcoulomb import cli, spectrum


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
        real_energy = spectrum.energy

        def fake_energy(params, consts, q):
            if q.N == 1:
                raise spectrum.FallToCenter("forced")
            return real_energy(params, consts, q)

        monkeypatch.setattr(cli.spectrum, "energy", fake_energy)
        assert run(["spectrum", "--a", "1", "--N", "0..1"]) == 0
        _, rows = load_table(capsys.readouterr().out)
        flagged = [r for r in rows if r["status"] == "fall-to-center"]
        assert len(flagged) == 1
        assert flagged[0]["E"] == "" and flagged[0]["epsilon"] == ""
        assert rows[-1]["status"] == "fall-to-center"  # sorted to the end

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
        (["verify", "--points", "64", "--levels", "12"], "levels"),  # polar grid floor
    ])
    def test_flags(self, argv, field, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: %s: " % field) in captured.err

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
    ])
    def test_config_values(self, command, config, field, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: %s: " % field) in captured.err

    @pytest.mark.parametrize("indices", [
        ["--m", "300"],
        ["--N", "60", "--n", "60", "--m", "60"],
    ], ids=["m300", "N60_n60_m60"])
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

    def test_dashed_config_keys_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol-energy": 1e-3, "a": 1.0}))
        assert run(["verify", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["tol_energy"] == 1e-3
