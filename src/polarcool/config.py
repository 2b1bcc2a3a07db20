"""YAML run configuration: parsing, validation, serialization.

Unit conventions are carried by key suffixes: ``*_hz`` keys hold linear
frequencies in Hz and are multiplied by 2 pi on load, ``*_k`` Kelvin,
``*_m`` meters, ``*_t`` Tesla, ``*_w`` Watts. Sweep grids are expressed in
the swept variable's working units (radians for theta, Kelvin for
temperature, rad/s for rabi). parse and serialize round-trip to float
round-off (one 2 pi conversion each way).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import yaml

from .dynamics import AVERAGES
from .errors import (ValidationError, check_choice, check_integer, check_path, check_real,
                     check_type, write_text)
from .model import TWO_PI, DriveCalibration, MechanicalMode, calibrate_drive
from .tuning import OPTIMIZE_OBJECTIVES, SWEEP_VARIABLES, Device

# each sweep variable's domain as check_real bounds; a grid is linear, so its ends suffice
_SWEEP_DOMAINS = {
    "theta": {"above": 0.0, "below": 0.5 * math.pi},
    "temperature": {"at_least": 0.0},
    "rabi": {"at_least": 0.0},
}


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
class RunConfig:
    """Fully resolved run description (drive already reduced to a Rabi rate).

    ``setup`` is the device of a ``system`` (with ``drive``) section, which is
    angle-tuned, or of an ``nmode`` section, which has fixed couplings.
    """

    setup: Device
    theta: float
    averages: str
    sweep: SweepConfig | None = None
    optimize: OptimizeConfig | None = None


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


# the drive-section key of each argument that calibrate_drive names in its errors
_DRIVE_KEYS = {"sphere_diameter": "sphere_diameter_m", "power": "power_w",
               "field_amplitude": "field_t"}


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
    key, arg = ("field_t", "field_amplitude") if has_field else ("power_w", "power")
    value = _number(m, key, path, at_least=0.0)
    # a missing reference, or a spin number, field or Rabi frequency that
    # overflows, fails under the key that set it
    try:
        rabi = calibrate_drive(cal, **{arg: value})
    except ValidationError as exc:
        name, _, reason = str(exc).partition(": ")
        raise ValidationError(f"{path}.{_DRIVE_KEYS[name]}: {reason}") from None
    return check_real(f"{path}.{key}", rabi)


def _parse_device(obj, path: str, drive=None) -> Device:
    """The device of a ``system`` section, angle-tuned with ``drive`` the config's
    drive section, or of an ``nmode`` section (``drive`` None): fixed couplings and
    its own drive. The drive is resolved after the section's own fields, and a mode
    count or ordering that the Device rejects names the section.
    """
    m = _mapping(obj, path)
    fixed = drive is None
    own = {"couplings_hz", "matter_linewidths_hz", "drive"} if fixed else {"magnon_linewidth_hz"}
    _check_keys(m, own | {"cavity_freq_hz", "cavity_linewidth_hz", "bath_temperature_k",
                          "mechanical_modes"}, path)
    mechs_raw = m.get("mechanical_modes")
    if not isinstance(mechs_raw, list) or not mechs_raw:
        raise ValidationError(f"{path}.mechanical_modes: expected a non-empty list")
    fields = dict(
        mechanical_modes=tuple(_parse_mech(item, f"{path}.mechanical_modes[{i}]")
                               for i, item in enumerate(mechs_raw)),
        cavity_freq=_freq(m, "cavity_freq_hz", path),
        cavity_linewidth=_freq(m, "cavity_linewidth_hz", path),
    )
    if fixed:
        fields["couplings"] = _parse_freq_list(m, "couplings_hz", path)
        fields["matter_linewidths"] = _parse_freq_list(m, "matter_linewidths_hz", path)
    else:
        fields["matter_linewidths"] = (_freq(m, "magnon_linewidth_hz", path),)
    fields["bath_temperature"] = _number(m, "bath_temperature_k", path, at_least=0.0)
    fields["rabi_freq"] = (_parse_drive(m.get("drive"), f"{path}.drive") if fixed
                           else _parse_drive(drive, "config.drive"))
    try:
        return Device(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{path}.{exc}") from None


def _parse_sweep(obj, path: str) -> SweepConfig:
    m = _mapping(obj, path)
    _check_keys(m, {f.name for f in dataclasses.fields(SweepConfig)}, path)
    variable = check_choice(f"{path}.variable", m.get("variable"), SWEEP_VARIABLES)
    points = check_integer(f"{path}.points", m.get("points"), at_least=2)
    start = _number(m, "start", path, **_SWEEP_DOMAINS[variable])
    stop = _number(m, "stop", path, **_SWEEP_DOMAINS[variable])
    if not stop > start:
        raise ValidationError(f"{path}: need stop > start, got ({start}, {stop})")
    plot = m.get("plot")
    if plot is not None and not isinstance(plot, str):
        raise ValidationError(f"{path}.plot: expected a path string, got {plot!r}")
    return SweepConfig(variable=variable, start=start, stop=stop, points=points, plot=plot)


def _parse_optimize(obj, path: str) -> OptimizeConfig:
    m = _mapping(obj, path)
    _check_keys(m, {f.name for f in dataclasses.fields(OptimizeConfig)}, path)
    objective = check_choice(f"{path}.objective", m.get("objective", "max"), OPTIMIZE_OBJECTIVES)
    # the bounds optimize_theta takes, checked here so that they fail at load
    lower = check_real(f"{path}.lower", m.get("lower", 1e-3), above=0.0)
    upper = check_real(f"{path}.upper", m.get("upper", 0.5 * math.pi - 1e-3), above=lower,
                       below=0.5 * math.pi)
    coarse = check_integer(f"{path}.coarse_points", m.get("coarse_points", 33), at_least=3)
    tol = _number(m, "tol", path, above=0.0) if "tol" in m else 1e-6
    return OptimizeConfig(objective=objective, lower=lower, upper=upper,
                          coarse_points=coarse, tol=tol)


def _parse_freq_list(m: dict, key: str, path: str) -> tuple[float, ...]:
    raw = m.get(key)
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}.{key}: expected a non-empty list")
    return tuple(_rad_s(f"{path}.{key}[{i}]", check_real(f"{path}.{key}[{i}]", v, above=0.0))
                 for i, v in enumerate(raw))


def parse_config(raw) -> RunConfig:
    m = _mapping(raw, "config")
    _check_keys(m, {"system", "drive", "theta", "averages", "sweep", "optimize", "nmode"},
                "config")
    if "nmode" in m:
        if "system" in m or "drive" in m:
            raise ValidationError(
                "config: give one device, either system with drive or nmode, not both"
            )
        setup = _parse_device(m["nmode"], "config.nmode")
    elif "system" not in m:
        raise ValidationError("config.system: missing required section")
    elif "drive" not in m:
        raise ValidationError("config.drive: missing required section")
    else:
        setup = _parse_device(m["system"], "config.system",
                              _mapping(m["drive"], "config.drive"))
    theta = check_real("config.theta", m.get("theta", 0.25 * math.pi),
                       above=0.0, below=0.5 * math.pi)
    return RunConfig(
        setup=setup,
        theta=theta,
        averages=check_choice("config.averages", m.get("averages", "approx"), AVERAGES),
        sweep=_parse_sweep(m["sweep"], "config.sweep") if "sweep" in m else None,
        optimize=_parse_optimize(m["optimize"], "config.optimize") if "optimize" in m else None,
    )


# libyaml's parser where PyYAML was built with it (about 9 times faster on a
# preset), the pure-Python one otherwise; both build the same mapping
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str) -> RunConfig:
    """Read, parse and validate a YAML config file.

    A missing or unreadable file, text that is not UTF-8 and invalid YAML
    raise ValidationError naming ``path``, as does a ``path`` that is not a file
    path (:func:`~polarcool.errors.check_path`).
    """
    check_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read the config file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: invalid YAML ({exc})") from exc
    return parse_config(raw)


def serialize_config(cfg: RunConfig) -> dict:
    """Plain mapping in file units, suitable for yaml.safe_dump."""
    d = check_type("cfg", cfg, RunConfig).setup
    cavity = {"cavity_freq_hz": d.cavity_freq / TWO_PI,
              "cavity_linewidth_hz": d.cavity_linewidth / TWO_PI}
    mechs = [{"freq_hz": m.freq / TWO_PI, "damping_hz": m.damping / TWO_PI,
              "bare_coupling_hz": m.bare_coupling / TWO_PI} for m in d.mechanical_modes]
    bath_and_mechs = {"bath_temperature_k": d.bath_temperature, "mechanical_modes": mechs}
    drive = {"rabi_hz": d.rabi_freq / TWO_PI}
    if d.couplings:
        out: dict = {"nmode": {
            **cavity,
            "couplings_hz": [g / TWO_PI for g in d.couplings],
            "matter_linewidths_hz": [k / TWO_PI for k in d.matter_linewidths],
            **bath_and_mechs,
            "drive": drive,
        }}
    else:
        out = {"system": {**cavity, "magnon_linewidth_hz": d.matter_linewidths[0] / TWO_PI,
                          **bath_and_mechs},
               "drive": drive}
    out["theta"] = cfg.theta
    out["averages"] = cfg.averages
    # a section's keys are its record's fields, less an absent (None) one
    for key, section in (("sweep", cfg.sweep), ("optimize", cfg.optimize)):
        if section is not None:
            out[key] = {k: v for k, v in dataclasses.asdict(section).items() if v is not None}
    return out


def dump_config(cfg: RunConfig, path: str) -> None:
    """Write ``cfg`` to ``path`` as a YAML config file (UTF-8, LF line endings)
    that :func:`load_config` accepts; a path it cannot write raises ValidationError
    naming it, as :func:`load_config` does one it cannot read. The mapping is
    parsed first, so a ``cfg`` that :func:`load_config` would reject raises the
    error it would raise and leaves the file as it was."""
    raw = serialize_config(cfg)
    parse_config(raw)
    write_text(path, yaml.safe_dump(raw, sort_keys=False), "config")
