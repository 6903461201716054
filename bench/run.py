"""Run one workload of the ringcoulomb benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

``--trace 0`` runs ops back to back until ``--seconds`` of op time have passed
(and at least ``MIN_OPS`` ops), and reports the end-to-end metrics, with op
times scaled to a reference CPU speed (see :func:`speed_scales`).  Set-up time
is measured in fresh processes before that.  ``--trace 1`` runs each op of a
fixed, seeded list untraced and then traced, and reports the per-layer
metrics and the tracing overhead; its exact counts repeat for a given seed.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it is the full record (environment, output digest, sample
counts), which ``--out`` also appends to a JSON-lines file for compare.py.
Run it from anywhere inside a checkout; it imports the program from the
checkout's ``src/`` and exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_OPS = 100          # so that at least ten samples lie beyond the 90th percentile
TAIL_PERCENTILE = 90
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# Other tenants of a shared machine slow a CPU by up to 2x for seconds at a
# time.  A fixed piece of Python work timed before and after each op measures
# the CPU's speed around it, and the op's time is scaled to a reference speed.
PROBE_ROWS = 300
REF_PROBE_S = 0.0015   # the probe's time on an uncontended 2-vCPU reference VM
PROBE_WINDOW = 5


def use_checkout_source() -> None:
    """Import ringcoulomb from this checkout's src/, or exit with code 2."""
    if not (SRC / "ringcoulomb" / "__init__.py").is_file():
        print("error: no src/ringcoulomb package under %s" % ROOT, file=sys.stderr)
        sys.exit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import ringcoulomb
    if Path(ringcoulomb.__file__).resolve().parent != SRC / "ringcoulomb":
        print("error: imported ringcoulomb from %s, not from %s"
              % (ringcoulomb.__file__, SRC), file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "git_commit": _git_commit()}


def _warmup_rng(seed: int) -> random.Random:
    return random.Random("warmup-%d" % seed)


def run_op(workload, op, tracer=None):
    """Time one op, then check it; returns (seconds, exit code, text, failure).

    A given tracer records spans during the op only, not during its check.
    """
    from workloads import execute
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        code, text = execute(op)
    except (Exception, SystemExit) as exc:
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, -1, "exception %s" % type(exc).__name__, repr(exc)
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - start
    try:
        failure = workload.check(op, code, text)
    except Exception as exc:
        failure = "output check raised %r" % exc
    return elapsed, code, text, failure


class Digest:
    """sha256 over (exit code, output) of each op, in order."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.ops = 0

    def add(self, code: int, text: str) -> None:
        self._hash.update(b"%d\n" % code)
        self._hash.update(text.encode())
        self.ops += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _report_failure(op, failure: str) -> None:
    print("op failed: %s: %s" % (" ".join(map(str, op.argv or op.engine)), failure),
          file=sys.stderr)


def machine_probe() -> float:
    """Seconds a fixed piece of Python work takes: how fast this CPU runs now.

    It builds small row dicts, JSON-encodes them with indentation and joins
    float reprs, the mix of work in the CLI output path.  Op times track
    this probe far more closely than a pure arithmetic loop.
    """
    start = time.perf_counter()
    rows = [{"N": i, "E": -0.5 / (i + 1.5) ** 2, "status": "ok"} for i in range(PROBE_ROWS)]
    json.dumps(rows, indent=2)
    ",".join(repr(row["E"]) for row in rows)
    return time.perf_counter() - start


def speed_scales(probes, window: int = PROBE_WINDOW) -> list:
    """Per interval between consecutive probes, the factor that takes a time
    measured in it to the reference speed: REF_PROBE_S over the median of the
    ``2 * window`` probes nearest the interval, which damps one probe's noise."""
    return [REF_PROBE_S / statistics.median(probes[max(0, i + 1 - window):i + 1 + window])
            for i in range(len(probes) - 1)]


def measure_setup(workload_name: str, seed: int) -> list:
    """Fresh-process set-up times: import ringcoulomb.cli plus one warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def setup_probe(workload_name: str, seed: int) -> None:
    start = time.perf_counter()
    use_checkout_source()
    import ringcoulomb.cli  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS, execute
    workload = WORKLOADS[workload_name]
    execute(workload.warmup(_warmup_rng(seed)))
    print(repr(time.perf_counter() - start))


def timed_run(workload, seed: int, seconds: float, min_ops: int = MIN_OPS) -> dict:
    """Closed loop of ops with tracing off.

    The loop runs until ``seconds`` of op time and ``min_ops`` ops have
    passed, and ends on a block boundary.  Each op's time is taken to the
    reference speed by :func:`speed_scales`.
    """
    run_op(workload, workload.warmup(_warmup_rng(seed)))
    ops = workload.ops(random.Random(seed))
    digest = Digest()
    raw, works, probes, failed = [], [], [machine_probe()], 0
    while sum(raw) < seconds or len(raw) < min_ops or len(raw) % workload.block:
        op = next(ops)
        elapsed, code, text, failure = run_op(workload, op)
        probes.append(machine_probe())
        raw.append(elapsed)
        if digest.ops < workload.trace_ops:
            digest.add(code, text)
        if failure:
            failed += 1
            _report_failure(op, failure)
        works.append(0 if failure else op.work)
    latencies = [t * f for t, f in zip(raw, speed_scales(probes))]
    return {"attempted": len(raw), "failed": failed, "fail_ratio": failed / len(raw),
            "digest": digest.hexdigest(), "digest_ops": digest.ops,
            "busy_s": sum(raw), "raw_p50_ms": 1e3 * statistics.median(raw),
            "probe_ms": [1e3 * q for q in statistics.quantiles(probes, n=4)],
            "latencies_ms": [1e3 * t for t in latencies],
            "work_per_s": sum(works) / sum(latencies)}


def end_to_end(workload, seed: int, seconds: float) -> dict:
    setup = measure_setup(workload.name, seed)
    run = timed_run(workload, seed, seconds)
    lat = run.pop("latencies_ms")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "work_per_s": {"value": run["work_per_s"], "unit": "1/s", "n": len(lat)},
        "op_p50_ms": {"value": statistics.median(lat), "unit": "ms", "n": len(lat)},
        "op_p90_ms": {"value": statistics.quantiles(lat, n=100, method="inclusive")[
            TAIL_PERCENTILE - 1], "unit": "ms", "n": len(lat), "percentile": TAIL_PERCENTILE},
        "setup_s": {"value": statistics.median(setup), "unit": "s", "n": len(setup)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
    }
    return {**run, "work_unit": workload.unit, "setup_samples_s": setup, "metrics": metrics}


def traced_run(workload, seed: int, ops=None) -> dict:
    """Each op of the fixed list untraced, then traced; per-layer metrics and overhead.

    Running the two right after each other pairs them in time, so that a
    change in the machine's speed during the run does not show as overhead.
    """
    from layertrace import Tracer, layer_stats
    if ops is None:
        ops = list(itertools.islice(workload.ops(random.Random(seed)), workload.trace_ops))
    run_op(workload, workload.warmup(_warmup_rng(seed)))
    tracer = Tracer()
    digests = {False: Digest(), True: Digest()}
    busy = {False: 0.0, True: 0.0}
    failed, bytes_out = 0, 0
    tracer.install()
    try:
        for op in ops:
            op_failed = False
            for traced in (False, True):
                elapsed, code, text, failure = run_op(workload, op,
                                                      tracer if traced else None)
                busy[traced] += elapsed
                digests[traced].add(code, text)
                if failure:
                    op_failed = True
                    _report_failure(op, failure)
            failed += op_failed
            bytes_out += len(text.encode()) if op.argv else 0
    finally:
        tracer.uninstall()
    states = sum(op.states for op in ops)
    metrics = per_layer_metrics(layer_stats(tracer.records), states, bytes_out)
    metrics.update({
        "trace.ops": (len(ops), "count"),
        "trace.states": (states, "count"),
        "trace.untraced_s": (busy[False], "s"),
        "trace.traced_s": (busy[True], "s"),
        "trace.overhead_s": (busy[True] - busy[False], "s"),
    })
    return {"attempted": len(ops), "failed": failed,
            "digest": digests[False].hexdigest(), "traced_digest": digests[True].hexdigest(),
            "digest_ops": len(ops), "missing_targets": tracer.missing,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer_metrics(stats: dict, states: int, bytes_out: int) -> dict:
    """Named per-layer metrics; a layer an op list never reaches reads 0."""
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    main_wall = get("cli.main", "busy_s")
    eigen_calls = get("oracle.angular_eigen", "calls") + get("oracle.radial_eigen", "calls")
    metrics = {
        "cli.main.calls": (get("cli.main", "calls"), "count"),
        "cli.main.wall_s": (main_wall, "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "spectrum.energy.calls_per_state": (
            ratio(get("spectrum.energy", "calls"), states), "calls/state"),
        "nu.solve_per_quantize": (
            ratio(get("nu.solve", "calls"), get("nu.quantize_epsilon", "calls")),
            "calls/op"),
        "wavefunctions.density.points": (get("wavefunctions.density", "size"), "count"),
        "oracle.verify_state.busy_s": (get("oracle.verify_state", "busy_s"), "s"),
        "oracle.concurrency": (
            ratio(get("oracle.verify_state", "busy_s"), main_wall), "ratio"),
        "oracle.eigen_calls_per_state": (
            ratio(eigen_calls, get("oracle.verify_state", "calls")), "calls/state"),
    }
    counted = ("spectrum.energy", "nu.solve", "nu.quantize_epsilon",
               "nu.quantize_epsilon_bisect", "wavefunctions.bound_state",
               "wavefunctions.radial_state", "wavefunctions.angular_state",
               "wavefunctions.density", "quadrature.integrate", "quadrature.decay_cutoff",
               "oracle.verify_state", "oracle.angular_eigen", "oracle.radial_eigen",
               "oracle.ode_residual")
    timed = ("spectrum.energy", "nu.solve", "nu.quantize_epsilon_bisect",
             "wavefunctions.bound_state", "wavefunctions.angular_state",
             "wavefunctions.density", "quadrature.integrate", "oracle.angular_eigen",
             "oracle.radial_eigen", "oracle.ode_residual")
    for name in counted:
        metrics[name + ".calls"] = (get(name, "calls"), "count")
    for name in timed:
        metrics[name + ".self_s"] = (get(name, "self_s"), "s")
    return metrics


def declared_metrics(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full record to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    use_checkout_source()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    wanted = declared_metrics(bool(args.trace))

    started = time.perf_counter()
    if args.trace:
        result = traced_run(workload, args.seed)
        correct = result["failed"] == 0 and result["digest"] == result["traced_digest"]
    else:
        result = end_to_end(workload, args.seed, args.seconds)
        correct = result["failed"] == 0
    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "correct": correct, "wall_s": time.perf_counter() - started,
              "env": environment(args.seed), **result}
    line = json.dumps(record, sort_keys=True)
    print(line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    metrics = {}
    for name, unit in wanted.items():
        measured = record["metrics"][name]
        if measured["unit"] != unit:
            sys.exit("error: %s is measured in %s, BENCHMARK.json declares %s"
                     % (name, measured["unit"], unit))
        metrics[name] = {"value": measured["value"], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
