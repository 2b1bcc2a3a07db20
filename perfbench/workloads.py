"""The four perfbench workloads: seeded inputs, one timed operation, its check.

Each workload holds a *deck*: the list of inputs one pass runs, built from
the seed. A run repeats whole passes, so every run of a workload sees the
same mix of inputs whatever its length. The inputs of ``theta_sweep``,
``hot_grid`` and ``optimize`` come from fixed tables whose outputs were
recorded at the commit that added the benchmark (``record_reference.py``);
the seed picks the variant or the order. ``crosscheck`` builds fresh random
systems from the seed and checks them against each other.

Workloads drive polarcool only through its public API and CLI, and look
every function up at call time so that the tracer's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
from pathlib import Path

import numpy as np

import polarcool as pc
import polarcool.cli

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference"

REL_TOL = 1e-8          # numeric outputs against the recorded references
THETA_ABS_TOL = 1e-4    # optimum angle, rad (the refinement stops at 1.6e-6)
OPT_VALUE_REL_TOL = 1e-6
CROSSCHECK_DIFF = 1e-2  # criterion-5 bounds
CROSSCHECK_RESIDUAL = 1e-9


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_table(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _rows_match(got: dict[str, str], want: dict[str, str], exact: tuple[str, ...]) -> str | None:
    """None when two table rows agree: ``exact`` columns as text, the rest within REL_TOL."""
    for key, value in want.items():
        if key in exact:
            if got.get(key) != value:
                return f"{key}: {got.get(key)!r} != {value!r}"
        elif not _close(float(got[key]), float(value), REL_TOL):
            return f"{key}: {got[key]} != {value}"
    return None


# ---------------------------------------------------------------------------
# theta_sweep: the CLI sweep of the base preset


class ThetaSweep:
    """101-point approx theta sweep through ``polarcool sweep``, in-process, one thread.

    The seed picks one of four configs; variant 0 is the ``two_mode_base``
    preset, whose CSV must match the golden file byte for byte.
    """

    name = "theta_sweep"
    variants = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.variant = seed % self.variants
        self.config = CONFIGS / f"theta_sweep_{self.variant}.config"
        self.reference = REFERENCE / f"theta_sweep_{self.variant}.csv"
        self.out = workdir / "sweep.csv"
        self.deck = [self.variant]
        self._expected = self.reference.read_bytes() if self.reference.exists() else None

    def run(self, _item):
        argv = ["sweep", "--config", str(self.config), "--out", str(self.out),
                "--averages", "approx", "--threads", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            return polarcool.cli.main(argv)

    def points(self, _result) -> int:
        return 101

    def check(self, _item, exit_code) -> str | None:
        if exit_code != 0:
            return f"polarcool sweep exited with {exit_code}"
        got = self.out.read_bytes()
        rows = list(csv.DictReader(io.StringIO(got.decode("utf-8"))))
        if len(rows) != 101:
            return f"{len(rows)} rows instead of 101"
        if any(flag.startswith("error:") for r in rows for flag in r["flags"].split(";")):
            return "a row carries an error flag"
        if got == self._expected:
            return None
        if self.variant == 0:
            return "CSV differs from the golden file"
        want = list(csv.DictReader(io.StringIO(self._expected.decode("utf-8"))))
        for g, w in zip(rows, want):
            why = _rows_match(g, w, exact=("stable", "flags"))
            if why:
                return f"variable={w['variable']}: {why}"
        return None

    def record(self) -> None:
        for variant in range(self.variants):
            sweep = ThetaSweep(variant, self.out.parent)
            if sweep.run(variant) != 0:
                raise RuntimeError(f"theta_sweep variant {variant}: polarcool sweep failed")
            sweep.reference.write_bytes(sweep.out.read_bytes())


# ---------------------------------------------------------------------------
# hot_grid: the criterion-3 temperature x theta grid, selfconsistent, pooled

HOT_TEMPERATURES = np.linspace(0.01, 0.8, 21)
HOT_THETAS = np.linspace(0.02, 1.55, 41)
GRID_COLUMNS = ("temperature_k", "theta", "kappa1_eff", "kappa2_eff", "n1_analytic",
                "n1_numeric", "n2_analytic", "n2_numeric", "stable", "flags")


class HotGrid:
    """One op is one 41-angle row of the grid, ``pc.sweep(..., threads=2)``.

    The seed shuffles the 21 rows of each pass.
    """

    name = "hot_grid"
    config = CONFIGS / "hot_grid.config"
    reference = REFERENCE / "hot_grid.csv"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.setup = pc.load_config(str(self.config)).setup
        self.deck = [int(i) for i in np.random.default_rng(seed).permutation(len(HOT_TEMPERATURES))]
        self._expected = self._load_reference() if self.reference.exists() else None

    def _load_reference(self) -> list[list[dict[str, str]]]:
        rows = _read_table(self.reference)
        n = len(HOT_THETAS)
        return [rows[i * n:(i + 1) * n] for i in range(len(HOT_TEMPERATURES))]

    def run(self, item: int):
        setup = dataclasses.replace(self.setup, bath_temperature=float(HOT_TEMPERATURES[item]))
        return pc.sweep(setup, "theta", HOT_THETAS, averages="selfconsistent", threads=2)

    def points(self, rows) -> int:
        return len(rows)

    @staticmethod
    def _fields(temperature: float, row) -> list[str]:
        return [_fmt(temperature), _fmt(row.theta),
                _fmt(row.kappa_eff[0]), _fmt(row.kappa_eff[1]),
                _fmt(row.n_analytic[0]), _fmt(row.n_numeric[0]),
                _fmt(row.n_analytic[1]), _fmt(row.n_numeric[1]),
                "true" if row.stable else "false", ";".join(row.flags)]

    def check(self, item: int, rows) -> str | None:
        if len(rows) != len(HOT_THETAS):
            return f"{len(rows)} rows instead of {len(HOT_THETAS)}"
        temperature = float(HOT_TEMPERATURES[item])
        for row, want in zip(rows, self._expected[item]):
            if any(flag.startswith("error:") for flag in row.flags):
                return f"T={temperature:.4g} theta={row.theta:.4g}: {row.flags}"
            got = dict(zip(GRID_COLUMNS, self._fields(temperature, row)))
            why = _rows_match(got, want, exact=("stable", "flags"))
            if why:
                return f"T={temperature:.4g} theta={row.theta:.4g}: {why}"
        return None

    def record(self) -> None:
        table = [self._fields(float(t), row)
                 for i, t in enumerate(HOT_TEMPERATURES) for row in self.run(i)]
        _write_table(self.reference, GRID_COLUMNS, table)


# ---------------------------------------------------------------------------
# optimize: sequential, dependent evaluations through optimize_theta

OPT_OBJECTIVES = ("max", "mode1", "mode2")
OPT_TEMPERATURES = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
OPT_COLUMNS = ("objective", "temperature_k", "theta", "value", "n1", "n2",
               "evaluations", "converged")


class Optimize:
    """One op is one ``pc.optimize_theta`` call on the base device.

    The deck is every (objective, bath temperature) pair of the table; the
    seed shuffles it.
    """

    name = "optimize"
    config = CONFIGS / "optimize.config"
    reference = REFERENCE / "optimize.csv"
    cases = [(o, t) for o in OPT_OBJECTIVES for t in OPT_TEMPERATURES]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.setup = pc.load_config(str(self.config)).setup
        self.deck = [int(i) for i in np.random.default_rng(seed).permutation(len(self.cases))]
        self._expected = _read_table(self.reference) if self.reference.exists() else None

    def run(self, item: int):
        objective, temperature = self.cases[item]
        return pc.optimize_theta(self.setup, objective=objective, temperature=temperature)

    def points(self, result) -> int:
        return result.evaluations

    def _fields(self, item: int, result) -> list[str]:
        objective, temperature = self.cases[item]
        return [objective, _fmt(temperature), _fmt(result.theta), _fmt(result.value),
                _fmt(result.occupations[0]), _fmt(result.occupations[1]),
                str(result.evaluations), "true" if result.converged else "false"]

    def check(self, item: int, result) -> str | None:
        want = self._expected[item]
        objective, temperature = self.cases[item]
        where = f"{objective} at {temperature} K"
        if not result.converged or want["converged"] != "true":
            return f"{where}: did not converge"
        if not _close(result.theta, float(want["theta"]), 0.0, THETA_ABS_TOL):
            return f"{where}: theta {float(result.theta)!r} != {want['theta']}"
        if not _close(result.value, float(want["value"]), OPT_VALUE_REL_TOL):
            return f"{where}: value {float(result.value)!r} != {want['value']}"
        return None

    def record(self) -> None:
        table = [self._fields(i, self.run(i)) for i in range(len(self.cases))]
        _write_table(self.reference, OPT_COLUMNS, table)


# ---------------------------------------------------------------------------
# crosscheck: Lyapunov solve against the time-domain integrator

CROSSCHECK_PAIRS = range(2, 9)                 # 4x4 ... 16x16 systems
CROSSCHECK_SLOWEST_DAMPING = (0.2, 0.4, 0.6)
CROSSCHECK_FASTEST_ROTATION = (2.0, 3.5, 5.0)


def block_instance(rng, n_pairs: int, kappa_min: float, omega_max: float):
    """Stable damped-rotation blocks with weak skew couplings (criterion-5 shape).

    Damping rates are drawn from [kappa_min, 0.8] and rotation rates from
    [1, omega_max]; one block gets exactly kappa_min and one exactly
    omega_max. Those two values set the integrator's step count (about
    300 omega_max / kappa_min), so the cost of an instance depends on its
    stratum, not on the draw, while the entries change between seeds.
    """
    kappas = rng.uniform(kappa_min, 0.8, n_pairs)
    omegas = rng.uniform(1.0, omega_max, n_pairs)
    kappas[rng.integers(n_pairs)] = kappa_min
    omegas[rng.integers(n_pairs)] = omega_max
    n = 2 * n_pairs
    r = np.zeros((n, n))
    d = np.zeros((n, n))
    for k in range(n_pairs):
        i = 2 * k
        r[i:i + 2, i:i + 2] = [[-kappas[k], omegas[k]], [-omegas[k], -kappas[k]]]
        d[i:i + 2, i:i + 2] = 2.0 * kappas[k] * (rng.uniform(0.0, 3.0) + 0.5) * np.eye(2)
    for k in range(n_pairs - 1):
        g = rng.uniform(0.01, 0.1)
        i, j = 2 * k, 2 * (k + 1)
        r[i, j] = -g
        r[j + 1, i + 1] = g
    return r, d


class Crosscheck:
    """One op is one instance through ``pc.integrate_covariance`` and ``pc.solve_lyapunov``.

    A pass holds one instance per (size, slowest damping, fastest rotation)
    stratum, 63 in all, drawn from the seed and shuffled.
    """

    name = "crosscheck"
    config = None

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.deck = [block_instance(rng, n, k, w)
                     for n in CROSSCHECK_PAIRS
                     for k in CROSSCHECK_SLOWEST_DAMPING
                     for w in CROSSCHECK_FASTEST_ROTATION]
        rng.shuffle(self.deck)

    def run(self, item):
        r, d = item
        v_time = pc.integrate_covariance(r, d)
        v_direct, residual, _ = pc.solve_lyapunov(r, d)
        return v_time, v_direct, residual

    def points(self, _result) -> int:
        return 1

    def check(self, item, result) -> str | None:
        r, d = item
        v_time, v_direct, residual = result
        own = float(np.linalg.norm(r @ v_direct + v_direct @ r.T + d) / np.linalg.norm(d))
        diff = float(np.linalg.norm(v_time - v_direct) / np.linalg.norm(v_direct))
        if not diff < CROSSCHECK_DIFF:
            return f"{r.shape[0]}x{r.shape[0]}: routes disagree by {diff:.3e}"
        if not max(residual, own) < CROSSCHECK_RESIDUAL:
            return f"{r.shape[0]}x{r.shape[0]}: Lyapunov residual {max(residual, own):.3e}"
        return None


WORKLOADS = {w.name: w for w in (ThetaSweep, HotGrid, Optimize, Crosscheck)}
