"""YAML run configuration: parsing, validation, serialization.

Unit conventions are carried by key suffixes: ``*_hz`` keys hold linear
frequencies in Hz and are multiplied by 2 pi on load, ``*_k`` Kelvin,
``*_m`` meters, ``*_t`` Tesla, ``*_w`` Watts. Sweep grids are expressed in
the swept variable's working units (radians for theta, Kelvin for
temperature, rad/s for rabi). parse and serialize round-trip to float
round-off (one 2 pi conversion each way).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from .errors import ValidationError, check_real
from .model import DriveCalibration, MechanicalMode, calibrate_drive
from .tuning import OPTIMIZE_OBJECTIVES, SWEEP_VARIABLES, TwoModeSetup

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SweepConfig:
    variable: str
    start: float
    stop: float
    points: int
    plot: str | None = None


@dataclass(frozen=True)
class OptimizeConfig:
    objective: str
    lower: float
    upper: float
    coarse_points: int
    tol: float


@dataclass(frozen=True)
class NModeConfig:
    cavity_freq: float
    cavity_linewidth: float
    couplings: tuple[float, ...]
    matter_linewidths: tuple[float, ...]
    mechanical_modes: tuple[MechanicalMode, ...]
    rabi_freq: float
    bath_temperature: float


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (drive already reduced to a Rabi rate).

    ``setup`` is None for configs that only describe an N-mode tuning problem;
    commands needing the two-mode system reject those with a clear error.
    """

    setup: TwoModeSetup | None
    theta: float
    averages: str
    sweep: SweepConfig | None = None
    optimize: OptimizeConfig | None = None
    nmode: NModeConfig | None = None


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return obj


def _number(mapping: dict, key: str, path: str, **bounds) -> float:
    """``mapping[key]`` checked by :func:`check_real`; ``bounds`` are its keywords."""
    if key not in mapping:
        raise ValidationError(f"{path}.{key}: missing required key")
    return check_real(f"{path}.{key}", mapping[key], **bounds)


def _rad_s(path: str, hz: float) -> float:
    """A checked ``*_hz`` value in rad/s; one that overflows there fails under ``path``."""
    return check_real(path, TWO_PI * hz)


def _freq(mapping: dict, key: str, path: str) -> float:
    """A strictly positive ``*_hz`` entry, converted to rad/s."""
    return _rad_s(f"{path}.{key}", _number(mapping, key, path, above=0.0))


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")


def _parse_mech(obj, path: str) -> MechanicalMode:
    m = _mapping(obj, path)
    _check_keys(m, {"freq_hz", "damping_hz", "bare_coupling_hz"}, path)
    return MechanicalMode(
        freq=_freq(m, "freq_hz", path),
        damping=_freq(m, "damping_hz", path),
        bare_coupling=_freq(m, "bare_coupling_hz", path),
    )


def _parse_drive(obj, path: str) -> float:
    """Resolve the drive section to a Rabi frequency in rad/s.

    Zero drive is a legitimate working point (thermal-equilibrium baseline),
    so the resolved rate only has to be non-negative.
    """
    m = _mapping(obj, path)
    if "rabi_hz" in m:
        _check_keys(m, {"rabi_hz"}, path)
        return _rad_s(f"{path}.rabi_hz", _number(m, "rabi_hz", path, at_least=0.0))
    allowed = {"sphere_diameter_m", "field_t", "power_w",
               "reference_power_w", "reference_field_t"}
    _check_keys(m, allowed, path)
    reference = None
    if "reference_power_w" in m or "reference_field_t" in m:
        reference = (
            _number(m, "reference_power_w", path, above=0.0),
            _number(m, "reference_field_t", path, above=0.0),
        )
    cal = DriveCalibration(
        sphere_diameter=_number(m, "sphere_diameter_m", path, above=0.0),
        reference_power=reference,
    )
    has_field, has_power = "field_t" in m, "power_w" in m
    if has_field == has_power:
        raise ValidationError(f"{path}: give exactly one of field_t, power_w (or rabi_hz)")
    # a field or power so large that the Rabi frequency overflows fails under its own path
    if has_field:
        field = _number(m, "field_t", path, at_least=0.0)
        return check_real(f"{path}.field_t", calibrate_drive(cal, field_amplitude=field))
    power = _number(m, "power_w", path, at_least=0.0)
    return check_real(f"{path}.power_w", calibrate_drive(cal, power=power))


def _parse_system(obj, path: str, drive) -> TwoModeSetup:
    """The two-mode setup; the ``drive`` section is resolved after the system's own fields."""
    m = _mapping(obj, path)
    _check_keys(m, {"cavity_freq_hz", "cavity_linewidth_hz", "magnon_linewidth_hz",
                    "bath_temperature_k", "mechanical_modes"}, path)
    mechs_raw = m.get("mechanical_modes")
    if not isinstance(mechs_raw, list) or not mechs_raw:
        raise ValidationError(f"{path}.mechanical_modes: expected a non-empty list")
    mechs = tuple(
        _parse_mech(item, f"{path}.mechanical_modes[{i}]") for i, item in enumerate(mechs_raw)
    )
    return TwoModeSetup(
        cavity_freq=_freq(m, "cavity_freq_hz", path),
        cavity_linewidth=_freq(m, "cavity_linewidth_hz", path),
        magnon_linewidth=_freq(m, "magnon_linewidth_hz", path),
        mechanical_modes=mechs,
        bath_temperature=_number(m, "bath_temperature_k", path, at_least=0.0),
        rabi_freq=_parse_drive(drive, "config.drive"),
    )


def _parse_sweep(obj, path: str) -> SweepConfig:
    m = _mapping(obj, path)
    _check_keys(m, {"variable", "start", "stop", "points", "plot"}, path)
    variable = m.get("variable")
    if variable not in SWEEP_VARIABLES:
        raise ValidationError(f"{path}.variable: expected one of {SWEEP_VARIABLES}, got {variable!r}")
    points = m.get("points")
    if not isinstance(points, int) or isinstance(points, bool) or points < 2:
        raise ValidationError(f"{path}.points: expected an integer >= 2, got {points!r}")
    start = _number(m, "start", path)
    stop = _number(m, "stop", path)
    if not stop > start:
        raise ValidationError(f"{path}: need stop > start, got ({start}, {stop})")
    plot = m.get("plot")
    if plot is not None and not isinstance(plot, str):
        raise ValidationError(f"{path}.plot: expected a path string, got {plot!r}")
    return SweepConfig(variable=variable, start=start, stop=stop, points=points, plot=plot)


def _parse_optimize(obj, path: str) -> OptimizeConfig:
    m = _mapping(obj, path)
    _check_keys(m, {"objective", "lower", "upper", "coarse_points", "tol"}, path)
    objective = m.get("objective", "max")
    if objective not in OPTIMIZE_OBJECTIVES:
        raise ValidationError(
            f"{path}.objective: expected one of {OPTIMIZE_OBJECTIVES}, got {objective!r}"
        )
    lower = _number(m, "lower", path) if "lower" in m else 1e-3
    upper = _number(m, "upper", path) if "upper" in m else 0.5 * math.pi - 1e-3
    coarse = m.get("coarse_points", 33)
    if not isinstance(coarse, int) or isinstance(coarse, bool) or coarse < 3:
        raise ValidationError(f"{path}.coarse_points: expected an integer >= 3, got {coarse!r}")
    tol = _number(m, "tol", path, above=0.0) if "tol" in m else 1e-6
    return OptimizeConfig(objective=objective, lower=lower, upper=upper,
                          coarse_points=coarse, tol=tol)


def _parse_freq_list(m: dict, key: str, path: str) -> tuple[float, ...]:
    raw = m.get(key)
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}.{key}: expected a non-empty list")
    return tuple(_rad_s(f"{path}.{key}[{i}]", check_real(f"{path}.{key}[{i}]", v, above=0.0))
                 for i, v in enumerate(raw))


def _parse_nmode(obj, path: str) -> NModeConfig:
    m = _mapping(obj, path)
    _check_keys(m, {"cavity_freq_hz", "cavity_linewidth_hz", "couplings_hz",
                    "matter_linewidths_hz", "mechanical_modes", "drive",
                    "bath_temperature_k"}, path)
    mechs_raw = m.get("mechanical_modes")
    if not isinstance(mechs_raw, list) or len(mechs_raw) < 2:
        raise ValidationError(f"{path}.mechanical_modes: expected a list of at least 2")
    mechs = tuple(
        _parse_mech(item, f"{path}.mechanical_modes[{i}]") for i, item in enumerate(mechs_raw)
    )
    return NModeConfig(
        cavity_freq=_freq(m, "cavity_freq_hz", path),
        cavity_linewidth=_freq(m, "cavity_linewidth_hz", path),
        couplings=_parse_freq_list(m, "couplings_hz", path),
        matter_linewidths=_parse_freq_list(m, "matter_linewidths_hz", path),
        mechanical_modes=mechs,
        rabi_freq=_parse_drive(m.get("drive"), f"{path}.drive"),
        bath_temperature=_number(m, "bath_temperature_k", path, at_least=0.0),
    )


def parse_config(raw) -> RunConfig:
    m = _mapping(raw, "config")
    _check_keys(m, {"system", "drive", "theta", "averages", "sweep", "optimize", "nmode"},
                "config")
    setup = None
    if "system" in m or "drive" in m:
        if "system" not in m:
            raise ValidationError("config.system: missing required section")
        if "drive" not in m:
            raise ValidationError("config.drive: missing required section")
        setup = _parse_system(m["system"], "config.system", m["drive"])
    elif "nmode" not in m:
        raise ValidationError("config.system: missing required section")
    theta = check_real("config.theta", m.get("theta", 0.25 * math.pi),
                       above=0.0, below=0.5 * math.pi)
    averages = m.get("averages", "approx")
    if averages not in ("approx", "selfconsistent"):
        raise ValidationError(
            f"config.averages: expected 'approx' or 'selfconsistent', got {averages!r}"
        )
    return RunConfig(
        setup=setup,
        theta=theta,
        averages=averages,
        sweep=_parse_sweep(m["sweep"], "config.sweep") if "sweep" in m else None,
        optimize=_parse_optimize(m["optimize"], "config.optimize") if "optimize" in m else None,
        nmode=_parse_nmode(m["nmode"], "config.nmode") if "nmode" in m else None,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: invalid YAML ({exc})") from exc
    return parse_config(raw)


def _serialize_mech(m: MechanicalMode) -> dict:
    return {
        "freq_hz": m.freq / TWO_PI,
        "damping_hz": m.damping / TWO_PI,
        "bare_coupling_hz": m.bare_coupling / TWO_PI,
    }


def serialize_config(cfg: RunConfig) -> dict:
    """Plain mapping in file units, suitable for yaml.safe_dump."""
    out: dict = {}
    if cfg.setup is not None:
        out["system"] = {
            "cavity_freq_hz": cfg.setup.cavity_freq / TWO_PI,
            "cavity_linewidth_hz": cfg.setup.cavity_linewidth / TWO_PI,
            "magnon_linewidth_hz": cfg.setup.magnon_linewidth / TWO_PI,
            "bath_temperature_k": cfg.setup.bath_temperature,
            "mechanical_modes": [_serialize_mech(m) for m in cfg.setup.mechanical_modes],
        }
        out["drive"] = {"rabi_hz": cfg.setup.rabi_freq / TWO_PI}
    out["theta"] = cfg.theta
    out["averages"] = cfg.averages
    if cfg.sweep is not None:
        out["sweep"] = {
            "variable": cfg.sweep.variable,
            "start": cfg.sweep.start,
            "stop": cfg.sweep.stop,
            "points": cfg.sweep.points,
        }
        if cfg.sweep.plot is not None:
            out["sweep"]["plot"] = cfg.sweep.plot
    if cfg.optimize is not None:
        out["optimize"] = {
            "objective": cfg.optimize.objective,
            "lower": cfg.optimize.lower,
            "upper": cfg.optimize.upper,
            "coarse_points": cfg.optimize.coarse_points,
            "tol": cfg.optimize.tol,
        }
    if cfg.nmode is not None:
        out["nmode"] = {
            "cavity_freq_hz": cfg.nmode.cavity_freq / TWO_PI,
            "cavity_linewidth_hz": cfg.nmode.cavity_linewidth / TWO_PI,
            "couplings_hz": [g / TWO_PI for g in cfg.nmode.couplings],
            "matter_linewidths_hz": [k / TWO_PI for k in cfg.nmode.matter_linewidths],
            "mechanical_modes": [_serialize_mech(m) for m in cfg.nmode.mechanical_modes],
            "drive": {"rabi_hz": cfg.nmode.rabi_freq / TWO_PI},
            "bath_temperature_k": cfg.nmode.bath_temperature,
        }
    return out


def dump_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(serialize_config(cfg), fh, sort_keys=False)
