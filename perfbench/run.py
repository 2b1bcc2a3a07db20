"""polarcool pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload theta_sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, one report

With ``--trace 0`` it reports the end-to-end metrics of one workload; with
``--trace 1`` the per-layer metrics from spans at polarcool's module
boundaries (see ``spans.py``). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Every output is
checked (see ``workloads.py``); any failed check makes the exit code 1.
BLAS is pinned to one thread so that the ``hot_grid`` pool is the only
parallelism.

Timings are reported at a reference machine speed. The speed of a shared
machine drifts by a third within seconds, so after every operation the
benchmark times a fixed calibration kernel that does not touch polarcool,
and scales each wall time by CAL_REF_S over the median calibration time
around it. Set-up is scaled the same way against fresh interpreters that
import only polarcool's dependencies. The raw wall times are printed next
to them.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("theta_sweep", "hot_grid", "optimize", "crosscheck")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
SPANS_DIR = ROOT / ".perfbench_out"

# a fresh interpreter's set-up: import the package and load the workload's config
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import polarcool
if len(sys.argv) > 1:
    polarcool.load_config(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""
# the same interpreter start-up without polarcool: its third-party imports only
IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import numpy, scipy.linalg, scipy.optimize, yaml
print(repr(time.perf_counter() - t0))
"""
IMPORT_REF_S = 0.5  # IMPORT_PROBE time that defines the reference speed for set-up

CAL_REF_S = 1e-3   # calibration kernel time that defines the reference speed
CAL_WINDOW = 5     # ops on each side whose calibration times are pooled
_CAL_DRIFT = -2.0 * np.eye(8) + 0.3 * np.random.default_rng(0).standard_normal((8, 8))
_CAL_NOISE = np.eye(8)


def calibration_kernel() -> float:
    """Seconds of a fixed mix like a working point's: interpreter loop, numpy, LAPACK."""
    start = time.perf_counter()
    x = 0.0
    for i in range(3000):
        x += math.sin(i)
    for _ in range(4):
        np.linalg.eigvals(_CAL_DRIFT)
        _CAL_DRIFT @ _CAL_DRIFT
        scipy.linalg.solve_continuous_lyapunov(_CAL_DRIFT, _CAL_NOISE)
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe(code: str, *args: str) -> float:
    """Seconds a fresh interpreter reports for ``code``."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(config: Path | None) -> tuple[list[float], float]:
    """Set-up seconds of fresh processes, raw and at reference speed.

    Set-up probes alternate with probes that import only numpy, scipy and
    yaml; the reference-speed figure is the set-up median times
    IMPORT_REF_S over the median of those.
    """
    args = [str(config)] if config else []
    imports = [probe(IMPORT_PROBE)]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(probe(SETUP_PROBE, *args))
        imports.append(probe(IMPORT_PROBE))
    return raw, statistics.median(raw) * IMPORT_REF_S / statistics.median(imports)


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numba": importlib.util.find_spec("numba") is not None,
    }


def run_op(workload, item):
    """(seconds, points, failure or None) of one timed operation and its check."""
    start = time.perf_counter()
    try:
        result = workload.run(item)
    except Exception as exc:  # a raised error is a failed op, not a crash
        return time.perf_counter() - start, 0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.points(result), workload.check(item, result)
    except Exception as exc:
        return elapsed, 0, f"check raised {type(exc).__name__}: {exc}"


class Tally:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.cals: list[float] = []
        self.points = 0
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, elapsed: float, points: int, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)
        else:
            self.times.append(elapsed)
            self.points += points

    def scaled(self) -> list[float]:
        """Op times at reference speed, each against the calibrations around it."""
        return [t * CAL_REF_S / statistics.median(self.cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
                for i, t in enumerate(self.times)]


def warm_up(workload, tally: Tally) -> None:
    """One untimed op so lazy set-up and caches are done before timing; checked."""
    failure = run_op(workload, workload.deck[0])[2]
    if failure:
        tally.attempted += 1
        tally.failures.append(failure)


def measure(workload, seconds: float) -> Tally:
    """Whole passes over the deck until ``seconds`` have elapsed, tracing off."""
    tally = Tally()
    warm_up(workload, tally)
    deadline = time.perf_counter() + seconds
    while True:
        for item in workload.deck:
            elapsed, points, failure = run_op(workload, item)
            tally.add(elapsed, points, failure)
            if not failure:
                tally.cals.append(calibration_kernel())
        if time.perf_counter() >= deadline:
            return tally


def measure_traced(workload, seconds: float, spans_path: Path):
    """Each input once untraced and once traced, alternating which goes first."""
    tracer = spans.Tracer()
    plain, traced = Tally(), Tally()
    warm_up(workload, plain)
    deadline = time.perf_counter() + seconds
    op = 0
    while True:
        for item in workload.deck:
            for traced_turn in ((False, True) if op % 2 else (True, False)):
                if not traced_turn:
                    plain.add(*run_op(workload, item))
                    continue
                tracer.op_id = op
                tracer.install()
                try:
                    traced.add(*run_op(workload, item))
                finally:
                    tracer.uninstall()
            op += 1
        if time.perf_counter() >= deadline:
            break
    metrics = tracer.summarize(op)
    metrics["trace.overhead_frac"] = sum(traced.times) / sum(plain.times) - 1.0
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return plain, traced, metrics, tracer.absent


def timing_metrics(times: list[float], points: int) -> dict[str, float]:
    if not times:                       # every op failed: nothing was timed
        return {"points_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
    return {
        "points_per_s": points / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[-1],
    }


def run_workload(args) -> int:
    if not (SRC / "polarcool" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no polarcool sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # numpy seeds must be non-negative; this keeps every seed below 2**32 as given
        workload = workloads.WORKLOADS[args.workload](args.seed % 2**32, workdir)
        machine = machine_record()
        if args.trace:
            spans_path = SPANS_DIR / f"spans-{args.workload}.csv"
            plain, traced, metrics, absent = measure_traced(workload, args.seconds, spans_path)
            failures = plain.failures + traced.failures
            attempted = plain.attempted + traced.attempted
            lines = [f"traced {traced.attempted} ops against {plain.attempted} untraced;"
                     f" spans in {spans_path.relative_to(ROOT)}"]
            if absent:
                lines.append(f"absent boundaries (zero calls): {', '.join(absent)}")
            lines += [f"  {name} = {value!r}" for name, value in metrics.items()]
            units = spans.metric_units()
        else:
            setup_raw, setup = measure_setup(workload.config)
            tally = measure(workload, args.seconds)
            failures, attempted = tally.failures, tally.attempted
            raw = timing_metrics(tally.times, tally.points)
            metrics = {"setup_s": setup,
                       **timing_metrics(tally.scaled(), tally.points),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            raw["setup_s"] = statistics.median(setup_raw)
            units = {"setup_s": "s", "points_per_s": "1/s", "op_p50_ms": "ms",
                     "op_p90_ms": "ms", "peak_rss_mb": "MB"}
            samples = {"setup_s": len(setup_raw), "points_per_s": tally.points,
                       "op_p50_ms": len(tally.times), "op_p90_ms": len(tally.times),
                       "peak_rss_mb": 1}
            lines = [f"  {name} = {value:.6g} {units[name]} (n={samples[name]})"
                     + (f"  raw wall {raw[name]:.6g}" if name in raw else "")
                     for name, value in metrics.items()]
            lines.append(f"  failed_frac = {len(failures) / attempted:.6g}"
                         f" ({len(failures)}/{attempted} ops)")
            if tally.cals:
                lines.append(f"  calibration kernel: median {1e3 * statistics.median(tally.cals):.4g} ms"
                             f" (reference {1e3 * CAL_REF_S:g} ms, n={len(tally.cals)})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for line in lines:
        print(line)
    for failure in failures[:10]:
        print(f"FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, machine=machine)
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process; their reports one after another."""
    records, status = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        if proc.stdout.strip():
            records[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    result = {
        "correct": status == 0 and all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{w}.{m}": v for w, r in records.items() for m, v in r["metrics"].items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
