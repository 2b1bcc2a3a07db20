"""Command line front end.

Subcommands: simulate (one working point, full report), rates (analytic
scattering-rate table), sweep (grid -> CSV, optional plot-data file), tune
(working-point inversion, two-mode or N-mode), optimize (best mixing angle).
Reports run one working point by the public path that sweep rows are pinned to:
Device.working_point, network_cooling, then steady_state (not run for rates).

Exit codes: 0 success, 1 validation error, 2 solver error,
3 instability under --require-stable.

:func:`main` parses with one parser, built on its first call and kept for the
life of the process; :func:`build_parser` returns a fresh one on every call.
"""
from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .analytics import network_cooling, quantum_backaction_limit
from .config import RunConfig, load_config
from .dynamics import AVERAGES
from .errors import (SolverError, UnstableSystemError, ValidationError, check_choice,
                     check_entries, write_text)
from .model import TWO_PI, thermal_occupation
from .steadystate import steady_state
from .tuning import SWEEP_VARIABLES, SweepRow, _flags, optimize_theta, sweep


def csv_columns(n_modes: int) -> tuple[str, ...]:
    """Header of a sweep CSV whose rows carry ``n_modes`` mechanical modes."""
    modes = range(1, n_modes + 1)
    return (
        "variable", "theta", "g_hz", "omega_m_hz", "omega_0_hz",
        *(f"kappa{j}_eff_hz" for j in modes),
        *(f"n{j}_{kind}" for j in modes for kind in ("analytic", "numeric")),
        "stable", "flags",
    )


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_UNSTABLE = 3


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _columns(rows) -> tuple[tuple[SweepRow, ...], tuple[str, ...]]:
    """(rows as a tuple, their :func:`csv_columns`), or a ValidationError naming the
    rows where there are none or ``rows[i]`` where one is not a :class:`SweepRow`,
    has another number of mechanical modes than the first, or an occupation
    tuple of another length than its ``kappa_eff``."""
    rows = check_entries("rows", rows, SweepRow)
    if not rows:
        raise ValidationError("rows: expected at least one sweep row, got none")
    n_modes = len(rows[0].kappa_eff)
    for i, row in enumerate(rows):
        if len(row.kappa_eff) != n_modes:
            raise ValidationError(f"rows[{i}]: expected {n_modes} mechanical modes as rows[0]"
                                  f" has, got {len(row.kappa_eff)}")
        for name in ("n_analytic", "n_numeric"):
            if len(getattr(row, name)) != n_modes:
                raise ValidationError(f"rows[{i}]: expected {n_modes} {name} values, one per"
                                      f" mechanical mode, got {len(getattr(row, name))}")
    return rows, csv_columns(n_modes)


def _table(rows, sep: str, stable: str, unstable: str, no_flags: str) -> list[str]:
    """One line per sweep row from one template: its 5 + 3 N_m numbers as %.12g
    (the frequencies and rates in Hz), then its stability word and its flags."""
    template = sep.join(["%.12g"] * (5 + 3 * len(rows[0].kappa_eff)) + ["%s", "%s"])
    return [
        template % (
            row.variable, row.theta, row.coupling / TWO_PI, row.magnon_freq / TWO_PI,
            row.drive_freq / TWO_PI, *[k / TWO_PI for k in row.kappa_eff],
            *[n for pair in zip(row.n_analytic, row.n_numeric) for n in pair],
            stable if row.stable else unstable, ";".join(row.flags) if row.flags else no_flags,
        )
        for row in rows
    ]


def write_csv(rows, path: str) -> None:
    """Sweep rows to an RFC-4180-style CSV (header row, LF line endings).

    All values are plain %.12g numbers or bare lowercase words, so no field
    ever needs quoting and identical inputs give bit-identical files.
    """
    rows, columns = _columns(rows)
    lines = [",".join(columns)] + _table(rows, ",", "true", "false", "")
    write_text(path, "\n".join(lines) + "\n", "output")


def write_plot_data(rows, path: str, variable: str) -> None:
    """Gnuplot-friendly whitespace table; units spelled out in the # header."""
    rows, columns = _columns(rows)
    check_choice("variable", variable, SWEEP_VARIABLES)
    unit = {"theta": "rad", "temperature": "K", "rabi": "rad/s"}[variable]
    lines = [
        "# steady-state cooling sweep",
        f"# swept variable: {variable} [{unit}]",
        "# columns: " + " ".join(columns),
        "# units: theta [rad], *_hz [Hz], n_* [quanta], stable in {0,1}, flags '-' if none",
    ]
    lines += _table(rows, " ", "1", "0", "-")
    write_text(path, "\n".join(lines) + "\n", "output")


def _occupation_lines(device, numeric, analytic) -> list[str]:
    """One line per mechanical mode: numeric and analytic occupation, thermal reference."""
    return [
        f"  mode {j + 1}: numeric {_fmt(n)}  analytic {_fmt(a)}"
        f"  thermal {_fmt(thermal_occupation(mech.freq, device.bath_temperature))}"
        for j, (mech, n, a) in enumerate(zip(device.mechanical_modes, numeric, analytic))
    ]


def _simulate_report(cfg: RunConfig, averages_mode: str) -> tuple[str, bool]:
    device, n_p = cfg.setup, len(cfg.setup.matter_linewidths) + 1
    tuning, model = device.working_point(cfg.theta, mode=averages_mode)
    rates = network_cooling(model)
    state = steady_state(model, require_stable=False)
    flags = _flags(tuning, state.stable, state.condition_flag, all(r.weak_coupling for r in rates))
    # polariton k's linewidth and drive detuning, off its damped rotation block
    drift, avg = model.drift, model.averages
    linewidths = [-drift[2 * k, 2 * k] for k in range(n_p)]
    detunings = [drift[2 * k, 2 * k + 1] for k in range(n_p)]

    lines = ["working point:"]
    if device.couplings:
        names = [f"P{k + 1}" for k in range(len(linewidths))]
        for i, f in enumerate(tuning.matter_freqs):
            lines.append(f"  matter mode {i + 1}: {_fmt(f / TWO_PI)} Hz")
        drive_freq = tuning.drive_freq
    else:
        names = ["U", "L"]
        coupling, magnon_freq, drive_freq = tuning
        lines.append(f"  theta = {_fmt(cfg.theta)} rad")
        lines.append(f"  g = {_fmt(coupling / TWO_PI)} Hz")
        lines.append(f"  omega_m = {_fmt(magnon_freq / TWO_PI)} Hz")
    lines.append(f"  omega_0 = {_fmt(drive_freq / TWO_PI)} Hz")
    lines.append(f"  detunings = ({', '.join(_fmt(d / TWO_PI) for d in detunings)}) Hz")
    lines.append(f"  averages mode = {avg.mode}")
    lines.append("steady-state averages:")
    for name, p_avg in zip(names, avg.avg_polaritons):
        lines.append(f"  |<{name}>| = {_fmt(abs(p_avg))}")
    lines.append(f"  |<M>| = {_fmt(abs(avg.avg_matter))}")
    for j, g_eff in enumerate(avg.effective_couplings):
        lines.append(f"  G_{j + 1} = {_fmt(g_eff / TWO_PI)} Hz")
    verdict = "stable" if state.stable else "UNSTABLE"
    lines.append(f"stability: {verdict} (spectral abscissa {_fmt(state.spectral_abscissa)} rad/s)")
    if state.stable:
        lines.append(f"lyapunov residual: {state.lyapunov_residual:.3e}")
    lines.append("occupations:")
    lines.extend(_occupation_lines(device, state.occupations[n_p:], [r.n_eff for r in rates]))
    lines.append(f"flags: {';'.join(flags) if flags else '-'}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for mech, r in zip(device.mechanical_modes, rates):
            quantum_backaction_limit(linewidths[r.dominant], mech.freq)
        for w in caught:
            lines.append(f"warning: {w.message}")
    return "\n".join(lines) + "\n", state.stable


def _rates_report(cfg: RunConfig, averages_mode: str) -> tuple[str, bool]:
    tuning, model = cfg.setup.working_point(cfg.theta, mode=averages_mode)
    rates = network_cooling(model)
    if cfg.setup.couplings:
        lines = ["scattering rates (all rates in Hz):"]
        names = [f"polariton {k + 1}" for k in range(len(cfg.setup.matter_linewidths) + 1)]
    else:
        lines = [f"scattering rates at theta = {_fmt(cfg.theta)} rad (all rates in Hz):"]
        names = ["upper", "lower"]
    for r in rates:
        lines.append(f"mode {r.mode_index + 1}:")
        for k, name in enumerate(names):
            lines.append(
                f"  {name}: stokes {_fmt(r.stokes[k] / TWO_PI)}"
                f"  anti-stokes {_fmt(r.anti_stokes[k] / TWO_PI)}"
                f"  net {_fmt(r.net[k] / TWO_PI)}"
            )
        lines.append(f"  kappa_eff = {_fmt(r.kappa_eff / TWO_PI)} Hz"
                     f"  (dominant: {names[r.dominant]})")
        lines.append(f"  n_eff = {_fmt(r.n_eff)}  n_eff_all = {_fmt(r.n_eff_all)}")
        lines.append(f"  weak coupling valid: {'yes' if r.weak_coupling else 'no'}")
    flags = _flags(tuning)
    if flags:
        lines.append(f"flags: {';'.join(flags)}")
    return "\n".join(lines) + "\n", True


def _tune_report(cfg: RunConfig, averages_mode: str) -> tuple[str, bool]:
    device = cfg.setup
    if device.couplings:
        tuned, model = device.working_point(cfg.theta, mode=averages_mode)
        rates = network_cooling(model)
        state = steady_state(model, require_stable=False)
        lines = [f"n-mode tuning ({len(device.mechanical_modes)} polaritons):"]
        lines.append(f"  converged: {'yes' if tuned.converged else 'no'}")
        lines.append(f"  residual: {tuned.residual / TWO_PI:.6e} Hz")
        lines.append(f"  omega_0 = {_fmt(tuned.drive_freq / TWO_PI)} Hz")
        for i, f in enumerate(tuned.matter_freqs):
            lines.append(f"  matter mode {i + 1}: {_fmt(f / TWO_PI)} Hz")
        verdict = "stable" if state.stable else "UNSTABLE"
        lines.append(f"  network: {verdict}"
                     f" (spectral abscissa {_fmt(state.spectral_abscissa)} rad/s)")
        if state.stable:
            numeric = state.occupations[len(device.matter_linewidths) + 1:]
            lines.extend(_occupation_lines(device, numeric, [r.n_eff_all for r in rates]))
        return "\n".join(lines) + "\n", state.stable

    coupling, magnon_freq, drive_freq = device._tuned(cfg.theta)
    lower, upper = device.mechanical_modes
    lines = ["two-mode tuning:"]
    lines.append(f"  theta = {_fmt(cfg.theta)} rad")
    lines.append(f"  g = {_fmt(coupling / TWO_PI)} Hz")
    lines.append(f"  omega_m = {_fmt(magnon_freq / TWO_PI)} Hz")
    lines.append(f"  omega_0 = {_fmt(drive_freq / TWO_PI)} Hz")
    lines.append(f"  detuning upper = {_fmt(upper.freq / TWO_PI)} Hz")
    lines.append(f"  detuning lower = {_fmt(lower.freq / TWO_PI)} Hz")
    return "\n".join(lines) + "\n", True


def _optimize_report(cfg: RunConfig, averages_mode: str) -> tuple[str, bool]:
    kwargs = {"averages": averages_mode}
    if cfg.optimize is not None:
        kwargs.update(
            objective=cfg.optimize.objective,
            bounds=(cfg.optimize.lower, cfg.optimize.upper),
            coarse_points=cfg.optimize.coarse_points,
            tol=cfg.optimize.tol,
        )
    result = optimize_theta(cfg.setup, **kwargs)
    lines = ["optimization result:"]
    lines.append(f"  objective = {kwargs.get('objective', 'max')}")
    lines.append(f"  theta = {_fmt(result.theta)} rad")
    lines.append(f"  value = {_fmt(result.value)}")
    lines.append(f"  occupations = ({_fmt(result.occupations[0])},"
                 f" {_fmt(result.occupations[1])})")
    lines.append(f"  evaluations = {result.evaluations}")
    lines.append(f"  converged = {'yes' if result.converged else 'no'}")
    return "\n".join(lines) + "\n", True


_REPORTS = {
    "simulate": _simulate_report,
    "rates": _rates_report,
    "tune": _tune_report,
    "optimize": _optimize_report,
}


def _run(args) -> int:
    cfg = load_config(args.config)
    averages_mode = args.averages or cfg.averages
    if args.command != "sweep":
        report, stable = _REPORTS[args.command](cfg, averages_mode)
        sys.stdout.write(report)
        if args.out:
            write_text(args.out, report, "output")
        return EXIT_UNSTABLE if args.require_stable and not stable else EXIT_OK

    if cfg.sweep is None:
        raise ValidationError("config.sweep: required for the sweep command")
    if not args.out:
        raise ValidationError("--out: required for the sweep command")
    grid = [
        cfg.sweep.start + (cfg.sweep.stop - cfg.sweep.start) * i / (cfg.sweep.points - 1)
        for i in range(cfg.sweep.points)
    ]
    rows = sweep(
        cfg.setup,
        cfg.sweep.variable,
        grid,
        theta=cfg.theta,
        averages=averages_mode,
        threads=args.threads,
        require_stable=args.require_stable,
    )
    write_csv(rows, args.out)
    if cfg.sweep.plot:
        write_plot_data(rows, cfg.sweep.plot, cfg.sweep.variable)
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarcool",
        description="Steady-state cooling of mechanical modes through tunable polaritons",
    )
    # the options of every subcommand; -h/--help first, where argparse would add it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-h", "--help", action="help", default=argparse.SUPPRESS,
                        help="show this help message and exit")
    common.add_argument("--config", required=True, help="path to a .config (YAML) file")
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--require-stable", action="store_true",
                        help="exit with status 3 when the working point is unstable")
    common.add_argument("--averages", choices=AVERAGES, default=None,
                        help="override the config's steady-state averages mode")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "solve one working point and print a report"),
        ("rates", "print the analytic scattering-rate table"),
        ("sweep", "evaluate a grid and write CSV (and optional plot data)"),
        ("tune", "invert the working-point transform (two-mode or n-mode)"),
        ("optimize", "find the mixing angle minimizing the occupation"),
    ):
        sub.add_parser(name, help=help_text, parents=[common], add_help=False)
    sub.choices["sweep"].add_argument("--threads", type=int, default=1,
                                      help="accepted and ignored: sweeps run serially; kept"
                                      " until the benchmark's commands stop passing it")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`: argparse keeps no state between two parses, so
    one built on the first call serves every later one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except UnstableSystemError as exc:
        sys.stderr.write(f"unstable: {exc}\n")
        return EXIT_UNSTABLE
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
