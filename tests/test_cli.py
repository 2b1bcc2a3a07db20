"""CLI behavior: exit codes, report content, CSV/plot-file formats."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from polarcool import (
    SweepRow,
    analytics,
    dynamics,
    load_config,
    optimize_theta,
    serialize_config,
    sweep,
    tuning,
)
from polarcool.cli import csv_columns, main, write_csv, write_plot_data
from polarcool.errors import SolverError, ValidationError

BASE = "configs/two_mode_base.config"
HIGHPOWER = "configs/two_mode_highpower.config"
THREE = "configs/three_mode.config"
GOLDEN = "tests/golden/two_mode_base_sweep.csv"
# the three-mode preset's temperature sweep in both averages modes, recorded
# from the separate N-mode path (tune_n_mode, polariton_network and a one-point
# solve) that Device.working_point replaced
THREE_SWEEP = "tests/golden/three_mode_sweep.json"


def write_config(tmp_path, raw, name="case.config"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return str(path)


def base_raw(**overrides):
    raw = {
        "system": {
            "cavity_freq_hz": 1.0e10,
            "cavity_linewidth_hz": 1.0e6,
            "magnon_linewidth_hz": 1.0e6,
            "bath_temperature_k": 0.01,
            "mechanical_modes": [
                {"freq_hz": 1.0e7, "damping_hz": 100.0, "bare_coupling_hz": 0.2},
                {"freq_hz": 3.0e7, "damping_hz": 100.0, "bare_coupling_hz": 0.2},
            ],
        },
        "drive": {"sphere_diameter_m": 2.5e-4, "field_t": 2.7e-5},
        "theta": 0.7853981633974483,
    }
    raw.update(overrides)
    return raw


def report_occupations(text):
    """numeric/analytic/thermal triples from a simulate or tune report."""
    rows = re.findall(
        r"mode \d+: numeric (\S+)\s+analytic (\S+)\s+thermal (\S+)", text)
    return [tuple(float(v) for v in row) for row in rows]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_base_point(capsys, tmp_path):
    out_file = tmp_path / "report.txt"
    code = main(["simulate", "--config", BASE, "--out", str(out_file)])
    text = capsys.readouterr().out
    assert code == 0
    assert "working point:" in text
    assert "stability: stable" in text
    occ = report_occupations(text)
    assert len(occ) == 2
    for numeric, analytic, thermal in occ:
        assert numeric < 1.0  # ground-state window at the symmetric point
        assert analytic < 1.0
        assert numeric < thermal
    assert out_file.read_text() == text


def test_simulate_averages_override(capsys):
    code = main(["simulate", "--config", BASE, "--averages", "selfconsistent"])
    text = capsys.readouterr().out
    assert code == 0
    assert "averages mode = selfconsistent" in text


def test_simulate_zero_drive_reports_thermal(capsys, tmp_path):
    raw = base_raw(drive={"rabi_hz": 0.0})
    code = main(["simulate", "--config", write_config(tmp_path, raw)])
    text = capsys.readouterr().out
    assert code == 0
    for numeric, analytic, thermal in report_occupations(text):
        assert numeric == pytest.approx(thermal, rel=1e-10)
        assert analytic == pytest.approx(thermal, rel=1e-10)


def test_simulate_unresolved_sideband_warns(capsys, tmp_path):
    raw = base_raw()
    # first mechanical mode at the polariton linewidth: deep unresolved regime
    raw["system"]["mechanical_modes"][0]["freq_hz"] = 1.0e6
    code = main(["simulate", "--config", write_config(tmp_path, raw)])
    text = capsys.readouterr().out
    assert code == 0
    assert "warning:" in text
    assert "resolved sideband" in text


def test_simulate_instability_needs_flag_for_nonzero_exit(capsys, tmp_path):
    raw = base_raw(drive={"rabi_hz": 6.25e14})
    path = write_config(tmp_path, raw)
    code = main(["simulate", "--config", path])
    text = capsys.readouterr().out
    assert code == 0
    assert "UNSTABLE" in text
    assert main(["simulate", "--config", path, "--require-stable"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("drive", [None, {"rabi_hz": 6.25e14}], ids=["base", "unstable"])
def test_simulate_flags_match_one_point_sweep(capsys, tmp_path, drive):
    path = write_config(tmp_path, base_raw() if drive is None else base_raw(drive=drive))
    assert main(["simulate", "--config", path]) == 0
    flags = re.search(r"^flags: (\S+)$", capsys.readouterr().out, re.M).group(1)
    cfg = load_config(path)
    (row,) = sweep(cfg.setup, "theta", [cfg.theta])
    assert ("unstable" in row.flags) == (drive is not None)
    assert flags == (";".join(row.flags) or "-")


# ---------------------------------------------------------------------------
# rates / tune / optimize


@pytest.mark.parametrize("config,command", [
    (BASE, "simulate"), (BASE, "rates"), (BASE, "tune"), (BASE, "optimize"), (THREE, "tune"),
    (THREE, "simulate"), (THREE, "rates")])
def test_preset_reports_match_golden_files(capsys, config, command):
    golden = Path("tests/golden") / f"{Path(config).stem}_{command}.txt"
    assert main([command, "--config", config]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_three_mode_reports(capsys):
    assert main(["simulate", "--config", THREE]) == 0
    text = capsys.readouterr().out
    assert "detunings = (10000000, 20000000, 35000000) Hz" in text
    assert "|<P3>|" in text and "G_3 = " in text and "flags: -" in text
    for numeric, analytic, thermal in report_occupations(text):
        assert numeric < thermal / 10.0
        assert abs(analytic - numeric) < 0.25 * numeric
    assert main(["rates", "--config", THREE]) == 0
    text = capsys.readouterr().out
    assert text.startswith("scattering rates (all rates in Hz):")
    for j in (1, 2, 3):
        assert f"(dominant: polariton {j})" in text


def test_rates_report(capsys):
    code = main(["rates", "--config", BASE])
    text = capsys.readouterr().out
    assert code == 0
    assert "anti-stokes" in text
    assert "kappa_eff" in text
    assert "weak coupling valid: yes" in text


def test_tune_two_mode_report(capsys):
    code = main(["tune", "--config", BASE])
    text = capsys.readouterr().out
    assert code == 0
    assert "two-mode tuning:" in text
    assert "detuning upper = 30000000 Hz" in text
    assert "detuning lower = 10000000 Hz" in text


def test_tune_n_mode_report(capsys):
    code = main(["tune", "--config", THREE])
    text = capsys.readouterr().out
    assert code == 0
    assert "n-mode tuning (3 polaritons):" in text
    assert "converged: yes" in text
    assert "network: stable" in text
    occ = report_occupations(text)
    assert len(occ) == 3
    for numeric, analytic, thermal in occ:
        assert numeric < thermal / 10.0
        assert abs(analytic - numeric) < 0.25 * numeric


def test_tune_n_mode_averages_override(capsys):
    assert main(["tune", "--config", THREE]) == 0
    approx = report_occupations(capsys.readouterr().out)
    code = main(["tune", "--config", THREE, "--averages", "selfconsistent"])
    text = capsys.readouterr().out
    assert code == 0
    assert "network: stable" in text
    exact = report_occupations(text)
    assert len(exact) == len(approx) == 3
    for (n_exact, _, _), (n_approx, _, _) in zip(exact, approx):
        # the override reaches the network builder, and moves it only slightly
        assert n_exact != n_approx
        assert n_exact == pytest.approx(n_approx, rel=1e-2)


def test_optimize_report(capsys):
    code = main(["optimize", "--config", BASE])
    text = capsys.readouterr().out
    assert code == 0
    assert "optimization result:" in text
    assert "converged = yes" in text
    theta = float(re.search(r"theta = (\S+) rad", text).group(1))
    assert 0.1 < theta < 0.5 * math.pi - 0.1


def test_optimize_report_runs_the_config_section(capsys, tmp_path):
    section = {"objective": "mode1", "lower": 0.2, "upper": 1.3, "coarse_points": 9,
               "tol": 1e-4}
    path = write_config(tmp_path, preset_raw(BASE, "system") | {"optimize": section})
    assert main(["optimize", "--config", path]) == 0
    result = optimize_theta(load_config(BASE).setup, objective="mode1", bounds=(0.2, 1.3),
                            coarse_points=9, tol=1e-4)
    fmt = "{:.12g}".format
    out = capsys.readouterr().out
    assert out == (
        "optimization result:\n  objective = mode1\n"
        f"  theta = {fmt(result.theta)} rad\n  value = {fmt(result.value)}\n"
        f"  occupations = ({fmt(result.occupations[0])}, {fmt(result.occupations[1])})\n"
        f"  evaluations = {result.evaluations}\n  converged = yes\n")
    assert out != Path("tests/golden/two_mode_base_optimize.txt").read_text()  # the defaults'


# ---------------------------------------------------------------------------
# sweep

def run_sweep(capsys, config, out, extra=()):
    code = main(["sweep", "--config", config, "--out", str(out), *extra])
    capsys.readouterr()
    return code


def test_sweep_csv_format(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_sweep(capsys, BASE, out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(csv_columns(2))
    assert len(lines) == 102
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(csv_columns(2))
        assert fields[11] in ("true", "false")
        for value in fields[:11]:
            float(value)  # every numeric field parses
        # 12 significant digits max
        for value in fields[:11]:
            digits = re.sub(r"[-+.e]", "", value).lstrip("0")
            assert len(digits) <= 12


def test_sweep_matches_golden_file(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_sweep(capsys, BASE, out) == 0
    assert out.read_bytes() == Path(GOLDEN).read_bytes()


def test_sweep_determinism_across_threads(capsys, tmp_path):
    one = tmp_path / "one.csv"
    four = tmp_path / "four.csv"
    assert run_sweep(capsys, BASE, one, ("--threads", "1")) == 0
    assert run_sweep(capsys, BASE, four, ("--threads", "4")) == 0
    assert one.read_bytes() == four.read_bytes()


def test_threads_is_a_sweep_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", BASE, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_sweep_writes_plot_data(capsys, tmp_path):
    plot = tmp_path / "sweep.dat"
    raw = base_raw(sweep={"variable": "theta", "start": 0.3, "stop": 1.2,
                          "points": 7, "plot": str(plot)})
    out = tmp_path / "sweep.csv"
    assert run_sweep(capsys, write_config(tmp_path, raw), out) == 0
    lines = plot.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("theta [rad]" in ln for ln in header)
    assert len(data) == 7
    for line in data:
        fields = line.split()
        assert len(fields) == len(csv_columns(2))
        assert fields[11] in ("0", "1")
        assert fields[12] == "-" or ";" in fields[12] or fields[12]


# every number a %.12g field can hold at an edge: NaN, the infinities, signed
# zeros, the smallest subnormal and numbers near the largest double
EDGES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308)
FLAGS = ("unstable", "ill_conditioned", "weak_coupling_broken", "tuning_not_converged")


def table_row(n_m, x, stable=True, flags=()):
    return SweepRow(x, x, x, x, x, (x,) * n_m, (x,) * n_m, (x,) * n_m, stable, flags)


def error_row(n_m, variable):
    return SweepRow(variable, math.nan, math.nan, math.nan, math.nan, (math.nan,) * n_m,
                    (math.nan,) * n_m, (math.nan,) * n_m, False, ("error:SolverError",))


def assert_writers_match_the_oracle(rows, directory):
    for writer, oracle, args in (
        (write_csv, helpers.write_csv, ()),
        *((write_plot_data, helpers.write_plot_data, (variable,))
          for variable in ("theta", "temperature", "rabi")),
    ):
        got, want = directory / "got", directory / "want"
        writer(rows, str(got), *args)
        oracle(rows, str(want), *args)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n_m", [1, 2, 3])
def test_sweep_writers_match_the_per_field_oracle_at_the_edges(tmp_path, n_m):
    rows = [table_row(n_m, x, stable=i % 2 == 0, flags=FLAGS[:i % 4])
            for i, x in enumerate(EDGES + (1.0 / 3.0, -2.5e-10, 12345678901234.5, 7))]
    rows += [table_row(n_m, 0.5, stable=np.bool_(True)),  # any truth value, as before
             table_row(n_m, 0.5, stable=np.bool_(False)), table_row(n_m, 1e7, flags=FLAGS),
             error_row(n_m, 0.3), error_row(n_m, math.nan)]
    assert_writers_match_the_oracle(rows, tmp_path)
    assert_writers_match_the_oracle(rows[-2:], tmp_path)  # error rows alone


NUMBER = st.sampled_from(EDGES) | st.floats()


@st.composite
def table_rows(draw):
    n_m = draw(st.integers(1, 3))

    def numbers(count):
        return tuple(draw(NUMBER) for _ in range(count))

    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            rows.append(error_row(n_m, draw(NUMBER)))
            continue
        flags = tuple(draw(st.lists(st.sampled_from(FLAGS), max_size=3, unique=True)))
        rows.append(SweepRow(*numbers(5), numbers(n_m), numbers(n_m), numbers(n_m),
                             draw(st.booleans()), flags))
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=table_rows())
def test_sweep_writers_match_the_per_field_oracle(tmp_path, rows):
    assert_writers_match_the_oracle(rows, tmp_path)


def test_sweep_needs_out_and_sweep_section(capsys, tmp_path):
    code = main(["sweep", "--config", BASE])
    err = capsys.readouterr().err
    assert code == 1
    assert "--out" in err
    raw = base_raw()  # no sweep section
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "config.sweep" in err
    assert not out.exists()


def test_sweep_rejects_degenerate_grid_without_output(capsys, tmp_path):
    raw = base_raw(sweep={"variable": "theta", "start": 0.3, "stop": 1.2, "points": 1})
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "points" in err
    assert not out.exists()


@pytest.mark.parametrize("variable,start,stop", [
    ("temperature", -0.1, 0.1), ("theta", 0.5, 2.0), ("rabi", -1.0e13, 1.0e13)])
def test_sweep_grid_outside_its_domain_exits_1_without_output(capsys, tmp_path, variable,
                                                               start, stop):
    """A negative temperature grid once wrote an error:ValidationError row and exited 0."""
    raw = base_raw(sweep={"variable": variable, "start": start, "stop": stop, "points": 3})
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert code == 1
    bad = "start" if start < 0 else "stop"
    assert capsys.readouterr().err.startswith(f"error: config.sweep.{bad}: must be finite")
    assert not out.exists()


def test_three_mode_sweep_matches_recorded_occupations(capsys, tmp_path):
    """The three-mode preset sweeps in both averages modes, bit-identical to its record."""
    want = json.loads(Path(THREE_SWEEP).read_text())
    device = load_config(THREE).setup
    for mode in ("approx", "selfconsistent"):
        out = tmp_path / f"{mode}.csv"
        assert run_sweep(capsys, THREE, out, ("--averages", mode)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(csv_columns(3))
        assert len(lines) == 1 + len(want["temperature"])
        rec = want[mode]
        rows = sweep(device, "temperature", want["temperature"], averages=mode)
        for i, (line, row) in enumerate(zip(lines[1:], rows)):
            fields = line.split(",")
            assert float(fields[0]) == pytest.approx(want["temperature"][i], rel=1e-11)
            assert fields[1:4] == ["nan", "nan", "nan"]
            assert fields[-2:] == ["true", ""]
            assert row.drive_freq == want["drive_freq"]
            assert math.isnan(row.theta) and math.isnan(row.coupling)
            assert row.stable and row.flags == ()
            for key, got in (("kappa_eff", row.kappa_eff), ("n_analytic", row.n_analytic),
                             ("n_numeric", row.n_numeric)):
                assert list(got) == rec[key][i], (mode, i, key)
            assert fields[8:14] == [f"{n:.12g}" for pair in zip(rec["n_analytic"][i],
                                                                 rec["n_numeric"][i])
                                    for n in pair]


def compensated_sum(values, start=0):
    """The builtin sum() of Python 3.12 and 3.13 in pure Python: ints exactly, floats
    with Neumaier's compensation once the total is a float, the rest by plain addition.
    It gives the bits of Python 3.13's sum() on random lists of floats."""
    total, c = start, 0.0
    for x in values:
        if type(total) is float and type(x) in (float, int):
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    if type(total) is float and c and math.isfinite(c):
        total += c
    return total


def test_three_mode_sweep_matches_its_record_under_a_compensated_sum(
        monkeypatch, capsys, tmp_path):
    """The sums of a working point and of the tuning add left to right, so the
    record holds under the compensated sum() of Python 3.12 on as well."""
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0  # left to right gives 0.0
    for module in (analytics, dynamics, tuning):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    test_three_mode_sweep_matches_recorded_occupations(capsys, tmp_path)


def test_sweep_require_stable_exit3_without_partial_file(capsys, tmp_path):
    # rabi grids are in working units (rad/s); the top point is ~50x the
    # base drive, far beyond the stability boundary at this angle
    raw = base_raw(sweep={"variable": "rabi", "start": 7.85e13, "stop": 3.93e15,
                          "points": 5})
    out = tmp_path / "sweep.csv"
    path = write_config(tmp_path, raw)
    code = main(["sweep", "--config", path, "--out", str(out), "--require-stable"])
    err = capsys.readouterr().err
    assert code == 3
    assert "unstable" in err
    assert not out.exists()
    # without the flag the same grid completes, flagging the bad rows
    assert run_sweep(capsys, path, out) == 0
    body = out.read_text()
    assert "false,unstable" in body


# ---------------------------------------------------------------------------
# error mapping


def test_bad_config_exit1(capsys, tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.config")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.config"
    bad.write_text("system: [unclosed\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    capsys.readouterr()
    # a three-mode device simulates, but has no mixing angle to sweep or optimize
    assert main(["simulate", "--config", THREE]) == 0
    assert len(report_occupations(capsys.readouterr().out)) == 3
    assert main(["optimize", "--config", THREE]) == 1
    assert "needs an angle-tuned device" in capsys.readouterr().err
    raw = serialize_config(load_config(THREE))
    raw["sweep"] = {"variable": "theta", "start": 0.1, "stop": 1.4, "points": 3}
    out = tmp_path / "theta.csv"
    assert main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert "needs an angle-tuned device" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "optimize"])
@pytest.mark.parametrize("section,key,value", [
    ("system", "bath_temperature_k", math.nan),
    ("system", "bath_temperature_k", -1.0),
    ("system", "cavity_freq_hz", math.inf),
    ("drive", "field_t", math.inf),
    # finite in the file, infinite once converted to rad/s
    ("system", "cavity_freq_hz", 1e308),
    ("drive", "field_t", 1e300),
])
def test_bad_device_fails_at_load(capsys, tmp_path, command, section, key, value):
    """Such configs once loaded, and sweep/optimize exited 0 with all-NaN output."""
    raw = base_raw(sweep={"variable": "theta", "start": 0.1, "stop": 1.4, "points": 3})
    raw[section][key] = value
    out = tmp_path / "result.out"
    assert main([command, "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config.{section}.{key}: must be finite")
    assert not out.exists()


def test_selfconsistent_overflow_is_a_config_error(capsys, tmp_path):
    raw = base_raw()
    for mode in raw["system"]["mechanical_modes"]:
        mode["bare_coupling_hz"] = 1.0e300
    path = write_config(tmp_path, raw)
    assert main(["simulate", "--config", path, "--averages", "selfconsistent"]) == 1
    assert capsys.readouterr().err.startswith("error: averages: ")


def test_unconverged_tuning_flag_reaches_simulate_and_csv(capsys, tmp_path):
    raw = serialize_config(load_config(THREE))
    raw["nmode"]["couplings_hz"] = [7.0e6, 1.0e5]
    raw["sweep"] = {"variable": "temperature", "start": 0.01, "stop": 0.02, "points": 2}
    path = write_config(tmp_path, raw)
    assert main(["simulate", "--config", path]) == 0
    assert "flags: tuning_not_converged" in capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(row.endswith(",true,tuning_not_converged") for row in rows)
    assert main(["rates", "--config", path]) == 0
    assert capsys.readouterr().out.endswith("\nflags: tuning_not_converged\n")


def test_a_tuning_whose_residuals_overflow_reports_only_its_error(capsys, tmp_path):
    # residuals near 1e305 rad/s overflow the least-squares cost; the warning
    # that numpy gives for it used to reach stderr ahead of the error line
    raw = serialize_config(load_config(THREE))
    raw["nmode"]["cavity_freq_hz"] = 3.2e306
    raw["nmode"]["couplings_hz"] = [1.6e305, 1.92e305]
    for mode, freq in zip(raw["nmode"]["mechanical_modes"], (3.2e305, 8.0e305, 1.6e306)):
        mode["freq_hz"] = freq
    path = write_config(tmp_path, raw)
    assert main(["simulate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sideband_rates: ") and err.count("\n") == 1


def test_converged_rates_reports_carry_no_flags(capsys):
    for path in (BASE, THREE):
        assert main(["rates", "--config", path]) == 0
        assert "flags" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unreadable_config_exits_1(capsys, tmp_path, command):
    binary = tmp_path / "binary.config"
    binary.write_bytes(b"\xff\xfe")
    out = str(tmp_path / "out.csv")
    for path, reason in ((binary, "not UTF-8 text"), (tmp_path, "cannot read the config file")):
        assert main([command, "--config", str(path), "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {reason}")


def preset_raw(path, section, **changes):
    """A preset's mapping as its file holds it, with ``changes`` made to ``section``
    (``drive`` of an ``nmode`` preset is its own subsection); a ``mech_hz`` change
    sets the mechanical mode frequencies."""
    raw = yaml.safe_load(Path(path).read_text())
    top = raw["nmode"] if "nmode" in raw else raw["system"]
    target = top["drive"] if section == "drive" and "nmode" in raw else raw[section]
    for key, value in changes.items():
        if key == "mech_hz":
            for mode, freq in zip(top["mechanical_modes"], value):
                mode["freq_hz"] = freq
        else:
            target[key] = value
    return raw


# detunings whose sideband denominators overflow, and, for "solve", a drift whose
# Frobenius norm overflows while every rate is still finite (frequencies in Hz)
RATES_HZ, SOLVE_HZ = 1e307 / (2 * math.pi), 6.0e153 / (2 * math.pi)
THREE_RATES_HZ = 7.0e153 / (2 * math.pi)
AVERAGES = "error: averages: a value derived from the inputs overflows\n"
SIDEBAND = "error: sideband_rates: linewidth^2 + (detuning +- mech_freq)^2 overflows\n"
NORM = "solver error: drift: its norm overflows, so the stability margin cannot be set\n"


# per failing point, the (exit code, stderr) of simulate, rates and tune, as
# they were when the reports ran Device.working_point and the one-point solve;
# a two-mode tune prints the closed-form tuning and runs no point
@pytest.mark.parametrize("raw,want", [
    (lambda: preset_raw(HIGHPOWER, "drive", power_w=1.0e300),
     ((1, AVERAGES), (1, AVERAGES), (0, ""))),
    (lambda: preset_raw(THREE, "drive", field_t=1.0e200),
     ((1, AVERAGES), (1, AVERAGES), (1, AVERAGES))),
    (lambda: preset_raw(BASE, "system", cavity_freq_hz=2 * RATES_HZ,
                        mech_hz=(0.3 * RATES_HZ, RATES_HZ)),
     ((1, SIDEBAND), (1, SIDEBAND), (0, ""))),
    (lambda: preset_raw(THREE, "nmode", cavity_freq_hz=2 * THREE_RATES_HZ,
                        couplings_hz=[0.02 * THREE_RATES_HZ, 0.03 * THREE_RATES_HZ],
                        mech_hz=[x * THREE_RATES_HZ for x in (0.8, 0.9, 1.0)]),
     ((1, SIDEBAND), (1, SIDEBAND), (1, SIDEBAND))),
    (lambda: preset_raw(BASE, "system", cavity_freq_hz=2 * SOLVE_HZ,
                        mech_hz=(0.9 * SOLVE_HZ, SOLVE_HZ)),
     ((2, NORM), (0, ""), (0, ""))),
    (lambda: preset_raw(THREE, "nmode", cavity_freq_hz=2 * SOLVE_HZ,
                        couplings_hz=[0.02 * SOLVE_HZ, 0.03 * SOLVE_HZ],
                        mech_hz=[x * SOLVE_HZ for x in (0.8, 0.9, 1.0)]),
     ((2, NORM), (0, ""), (2, NORM))),
], ids=["build-two", "build-three", "rates-two", "rates-three", "solve-two", "solve-three"])
def test_a_failing_point_keeps_each_reports_error_line_and_exit_code(capsys, tmp_path, raw,
                                                                     want):
    path = write_config(tmp_path, raw())
    for command, (code, err) in zip(("simulate", "rates", "tune"), want):
        got = main([command, "--config", path])
        out = capsys.readouterr()
        assert (got, out.err) == (code, err), command
        assert (out.out == "") == (code != 0), command


def test_the_writers_name_missing_rows_and_an_unknown_variable(tmp_path):
    """No rows once escaped both writers as a raw IndexError, an unknown
    variable the plot writer as a raw KeyError, and rows of two devices, an entry
    that is not a row or a generator of rows each as a raw TypeError or AttributeError."""
    path = tmp_path / "out.txt"
    two = sweep(load_config(BASE).setup, "theta", [0.3, 0.6])
    three = sweep(load_config(THREE).setup, "temperature", [0.01])
    for write in (write_csv, lambda rows, out: write_plot_data(rows, out, "theta")):
        with pytest.raises(ValidationError, match="^rows: expected at least one sweep row"):
            write([], str(path))
        for rows, message in (
                (two + three, "rows[2]: expected 2 mechanical modes as rows[0] has, got 3"),
                (three + two, "rows[1]: expected 3 mechanical modes as rows[0] has, got 2"),
                ([two[0], "row"], "rows[1]: expected a SweepRow, got 'row'")):
            with pytest.raises(ValidationError) as exc:
                write(rows, str(path))
            assert str(exc.value) == message
        assert not path.exists()
        write((row for row in two), str(path))  # a generator writes as its list does
        from_generator = path.read_bytes()
        write(list(two), str(path))
        assert path.read_bytes() == from_generator
        path.unlink()
    setup = load_config(BASE).setup
    with pytest.raises(ValidationError) as want:
        sweep(setup, "foo", [0.3])
    with pytest.raises(ValidationError) as got:
        write_plot_data(sweep(setup, "theta", [0.3, 0.6]), str(path), "foo")
    assert str(got.value) == str(want.value)
    assert not path.exists()


@pytest.mark.parametrize("field", ["n_analytic", "n_numeric"])
@pytest.mark.parametrize("write", [
    write_csv, lambda rows, out: write_plot_data(rows, out, "theta")],
    ids=["write_csv", "write_plot_data"])
def test_the_writers_reject_a_row_whose_occupations_are_not_one_per_mode(tmp_path, field, write):
    """A row with an occupation more or fewer than its modes was once written as a
    normal line: the pairs of analytic and numeric occupations were zipped, so the
    extra value was dropped."""
    path = tmp_path / "out.txt"
    rows = sweep(load_config(BASE).setup, "theta", [0.3, 0.6])
    for i, changed in ((1, getattr(rows[1], field) + (1.0,)), (0, getattr(rows[0], field)[:1])):
        bad = list(rows)
        bad[i] = dataclasses.replace(rows[i], **{field: changed})
        with pytest.raises(ValidationError) as exc:
            write(bad, str(path))
        assert str(exc.value) == (f"rows[{i}]: expected 2 {field} values, one per mechanical"
                                  f" mode, got {len(changed)}")
        assert not path.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "plot"])
def test_an_output_path_that_cannot_be_written_is_a_validation_error(capsys, tmp_path,
                                                                     command):
    """Such a path once escaped as a raw FileNotFoundError traceback."""
    missing = tmp_path / "missing" / "out.txt"
    if command == "simulate":
        argv = ["simulate", "--config", BASE, "--out", str(missing)]
    elif command == "sweep":
        argv = ["sweep", "--config", BASE, "--out", str(missing)]
    else:
        raw = base_raw(sweep={"variable": "theta", "start": 0.3, "stop": 1.2, "points": 3,
                              "plot": str(missing)})
        argv = ["sweep", "--config", write_config(tmp_path, raw),
                "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 1
    out = capsys.readouterr()
    reason = "cannot write the output file (No such file or directory)"
    assert out.err == f"error: {missing}: {reason}\n"
    assert out.out.startswith("working point:") == (command == "simulate")
    assert (tmp_path / "sweep.csv").exists() == (command == "plot")
    assert not missing.parent.exists()


def test_solver_error_maps_to_exit2(capsys, monkeypatch):
    def explode(drifts, diffusions):  # each point's solve fails, as _solve reports it
        return [SolverError("manufactured failure")] * len(drifts)

    monkeypatch.setattr("polarcool.steadystate._solve", explode)
    assert main(["simulate", "--config", BASE]) == 2
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [None, "simulate", "rates", "sweep", "tune", "optimize"])
def test_help_matches_golden_text(capsys, monkeypatch, command):
    # argparse wraps its help to $COLUMNS; the golden files are 80 columns wide
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    golden = Path("tests/golden") / (f"help_{command}.txt" if command else "help.txt")
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_console_script_entry_point():
    # run the [project.scripts] target as the installed wrapper would, so no
    # install is needed: sys.exit(func()) with the script's argv
    with open("pyproject.toml", encoding="utf-8") as fh:
        target = re.search(r'^\[project\.scripts\][^\[]*?^polarcool\s*=\s*"([\w.]+):(\w+)"',
                           fh.read(), re.M | re.S)
    assert target, "pyproject.toml: no polarcool entry under [project.scripts]"
    module, func = target.groups()
    wrapper = (
        f"import sys\nfrom {module} import {func}\n"
        f"sys.argv = ['polarcool', 'tune', '--config', {BASE!r}]\n"
        f"sys.exit({func}())\n"
    )
    paths = ["src", os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "two-mode tuning:" in proc.stdout


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize serves only tune_n_mode; importing it with the package
    # costs every command about a third of its start-up time
    code = "import sys, polarcool, polarcool.cli; print(sorted(m for m in sys.modules" \
           " if m == 'scipy.optimize' or m.startswith('scipy.optimize.')))"
    paths = ["src", os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def drive_raw(**drive):
    """The base preset with ``drive`` as its drive section."""
    return preset_raw(BASE, "system") | {"drive": drive}


# each once escaped as a raw traceback or named an argument of calibrate_drive
@pytest.mark.parametrize("drive, message", [
    ({"sphere_diameter_m": 1.0e200, "field_t": 2.7e-5},
     "config.drive.sphere_diameter_m: the spin number of the sphere overflows, got 1e+200"),
    ({"sphere_diameter_m": 2.5e-4, "power_w": 1.0e308, "reference_power_w": 1.0e-300,
      "reference_field_t": 1.0},
     "config.drive.power_w: the field B_ref sqrt(P / P_ref) overflows, got 1e+308"),
    ({"sphere_diameter_m": 2.5e-4, "power_w": 1.0},
     "config.drive.power_w: needs a cal.reference_power calibration"),
], ids=["sphere", "power", "no-reference"])
@pytest.mark.parametrize("command", ["simulate", "rates", "sweep"])
def test_a_drive_section_that_overflows_names_its_key(capsys, tmp_path, drive, message, command):
    path = write_config(tmp_path, drive_raw(**drive))
    assert main([command, "--config", path, "--out", str(tmp_path / "out.txt")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_backaction_limit_that_overflows_is_an_infinite_warning(capsys, tmp_path):
    raw = preset_raw(BASE, "system", bath_temperature_k=0.0, mech_hz=(1.0e-200, 3.0e7))
    raw["drive"] = {"rabi_hz": 0.0}
    assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("warning: backaction limit inf > 0.01: outside the resolved"
                         " sideband regime")


def test_a_mode_whose_quantum_underflows_fails_its_points(capsys, tmp_path):
    path = write_config(tmp_path, preset_raw(BASE, "system", mech_hz=(1.0e-295, 3.0e7)))
    assert main(["simulate", "--config", path]) == 1
    assert capsys.readouterr() == ("", "error: diffusion: contains a NaN or infinite entry\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 101 and all(row.endswith(",false,error:ValidationError") for row in rows)
