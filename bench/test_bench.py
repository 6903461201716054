"""Tests of the benchmark itself: exact trace counts, failure counting, checks, compare."""

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import compare  # noqa: E402
from layertrace import _covered, layer_stats  # noqa: E402
from workloads import WORKLOADS, execute  # noqa: E402


def _first_ops(name, seed, count):
    return list(itertools.islice(WORKLOADS[name].ops(random.Random(seed)), count))


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_spectrum_energy_called_once_per_state():
    workload = WORKLOADS["spectrum_table"]
    ops = _first_ops(workload.name, 3, 2)
    result = run.traced_run(workload, 3, ops)
    metrics = _values(result)
    assert result["failed"] == 0 and result["digest"] == result["traced_digest"]
    assert metrics["spectrum.energy.calls"] == sum(op.states for op in ops)
    assert metrics["cli.main.calls"] == 2
    assert metrics["nu.solve.calls"] == 0


def test_engine_counts_repeat_exactly():
    workload = WORKLOADS["engine_crosscheck"]
    first, second = (_values(run.traced_run(workload, 5, _first_ops(workload.name, 5, 3)))
                     for _ in range(2))
    assert first["nu.quantize_epsilon.calls"] == 3
    assert first["nu.solve.calls"] > 3
    for name in ("nu.solve.calls", "nu.quantize_epsilon_bisect.calls",
                 "nu.solve_per_quantize"):
        assert first[name] == second[name]


def test_single_state_verify_solves_two_eigenproblems():
    workload = WORKLOADS["verify_sweep"]
    op = workload.warmup(random.Random(7))
    metrics = _values(run.traced_run(workload, 7, [op]))
    assert op.states == 1
    assert metrics["oracle.verify_state.calls"] == 1
    assert metrics["oracle.eigen_calls_per_state"] == 2


def test_perturbed_energy_counts_as_failed_op():
    workload = WORKLOADS["verify_sweep"]

    def perturbed(rng):
        while True:
            op = workload.warmup(rng)
            yield dataclasses.replace(op, argv=op.argv + ("--perturb-energy", "1e-2"))

    result = run.timed_run(dataclasses.replace(workload, ops=perturbed, block=1), 1,
                           seconds=0.0, min_ops=2)
    assert result["attempted"] == 2
    assert result["failed"] == 2 and result["fail_ratio"] == 1.0


def test_spectrum_check_rejects_a_wrong_energy():
    workload = WORKLOADS["spectrum_table"]
    op = workload.warmup(random.Random(2))
    code, text = execute(op)
    assert workload.check(op, code, text) == ""
    row = text.splitlines()[-1].split(",")
    row[8] = repr(float(row[8]) * (1.0 + 1e-9))
    tampered = "\n".join(text.splitlines()[:-1] + [",".join(row)]) + "\n"
    assert workload.check(op, code, tampered) != ""


def test_density_check_rejects_a_scaled_density():
    workload = WORKLOADS["density_grid"]
    op = workload.warmup(random.Random(4))
    code, text = execute(op)
    assert workload.check(op, code, text) == ""
    lines = text.splitlines()
    body = [line.rsplit(",", 1) for line in lines if line[0].isdigit()]
    scaled = [head + "," + repr(1.01 * float(d)) for head, d in body]
    header = [line for line in lines if not line[0].isdigit()]
    assert workload.check(op, code, "\n".join(header + scaled) + "\n") != ""


def test_speed_scales_use_the_median_of_nearby_probes():
    ref = run.REF_PROBE_S
    assert run.speed_scales([ref, 3 * ref], 1) == [0.5]
    probes = [ref, ref, 9 * ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert run.speed_scales(probes, 2) == pytest.approx([1.0, 1.0, 2 / 3, 0.5, 0.5, 0.5])


def test_self_time_subtracts_union_of_overlapping_children():
    assert _covered([(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)], 0.0, 10.0) == 7.0
    records = [(0, None, "root", 0.0, 10.0, 0),
               (1, 0, "child", 1.0, 3.0, 0),
               (2, 0, "child", 2.0, 4.0, 0)]
    stats = layer_stats(records)
    assert stats["root"]["self_s"] == 7.0
    assert stats["child"]["calls"] == 2 and stats["child"]["busy_s"] == 4.0


def _record(workload, seed, value, digest="d", failed=0):
    return {"workload": workload, "trace": 0, "failed": failed, "digest": digest,
            "digest_ops": 20, "env": {"seed": seed},
            "metrics": {"op_p50_ms": {"value": value}}}


SPEC = {"end_to_end": [{"name": "op_p50_ms", "better": "lower", "bound": 0.1}]}


def _verdict(parent_values, change_values, **change_kw):
    parent = {"w": [_record("w", i, v) for i, v in enumerate(parent_values)]}
    change = {"w": [_record("w", i, v, **change_kw) for i, v in enumerate(change_values)]}
    rows, flags = compare.compare(parent, change, SPEC)
    return rows[0][2]["verdict"], flags["w"]


def test_compare_verdicts():
    steady = [100.0 + i % 3 for i in range(10)]
    assert _verdict(steady, [v * 0.8 for v in steady]) == ("gain", [])
    assert _verdict(steady, [v * 1.2 for v in steady])[0] == "regression"
    assert _verdict(steady, [v * 1.01 for v in steady])[0] == "no regression"
    noisy = [100.0, 150.0, 80.0, 130.0, 70.0, 160.0, 90.0, 120.0, 60.0, 140.0]
    assert _verdict(noisy, noisy[::-1])[0] == "unresolved"
    assert _verdict(steady, [v * 0.8 for v in steady], failed=1)[0].startswith("gain (void")
    assert _verdict(steady, steady, digest="other")[1] == list(range(10))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "engine_crosscheck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _first_ops(name, 9, 5) == _first_ops(name, 9, 5)
    assert _first_ops(name, 9, 5) != _first_ops(name, 10, 5)
