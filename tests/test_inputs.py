"""Every public scalar input, and every numeric config field, rejects a non-number.

One table: each entry names the field path its message must start with and a
call that feeds one value into that field, everything else valid. Entries
where None means "not given" (an optional override) skip None.
"""
import dataclasses
import math
import re

import numpy as np
import pytest

import polarcool as pc
from polarcool.config import parse_config
from polarcool.errors import ValidationError

from helpers import TWO_PI, make_base_setup, make_mechs

BAD_VALUES = (math.nan, math.inf, -math.inf, None, "1.0", True, 1j)

CAV, LO, HI = TWO_PI * 1e10, TWO_PI * 1e7, TWO_PI * 3e7
SETUP = make_base_setup()
PARAMS = SETUP.params_at(0.7)
MECH = make_mechs()[0]
POL = pc.NetworkPolariton(freq=TWO_PI * 1e10, linewidth=TWO_PI * 1e6, weight=0.7)
DRIVE = pc.NetworkDrive(drive_freq=TWO_PI * 9.9e9, rabi_freq=1e13, bath_temperature=0.01)
MATTER = pc.MatterMode(freq=TWO_PI * 1e10, coupling=TWO_PI * 1e6, linewidth=TWO_PI * 1e6)
CAL = pc.DriveCalibration(sphere_diameter=250e-6, reference_power=(4.3e-3, 2.7e-5))
NMODE = dict(cavity_freq=CAV, mech_freqs=[LO, HI], couplings=[TWO_PI * 7e6],
             cavity_linewidth=TWO_PI * 1e6, matter_linewidths=[TWO_PI * 1e6])
swap = dataclasses.replace


def _setup(**fields):
    kwargs = {f.name: getattr(SETUP, f.name) for f in dataclasses.fields(SETUP)}
    return pc.Device(**{**kwargs, **fields})


def _nmode(key, value):
    return pc.tune_n_mode(**{**NMODE, key: value})


def _nmode_entry(key, value):
    return pc.tune_n_mode(**{**NMODE, key: [value] + NMODE[key][1:]})


# (field path, call with the value, None means "not given")
API = [
    ("theta", lambda v: pc.tune_two_mode(CAV, LO, HI, v), False),
    ("cavity_freq", lambda v: pc.tune_two_mode(v, LO, HI, 0.7), False),
    ("targets", lambda v: pc.tune_two_mode(CAV, v, HI, 0.7), False),
    ("targets", lambda v: pc.tune_two_mode(CAV, LO, v, 0.7), False),
    ("freq", lambda v: pc.thermal_occupation(v, 0.1), False),
    ("temperature", lambda v: pc.thermal_occupation(LO, v), False),
    ("mechanical_mode.freq", lambda v: swap(MECH, freq=v).validate(), False),
    ("mechanical_mode.damping", lambda v: swap(MECH, damping=v).validate(), False),
    ("mechanical_mode.bare_coupling", lambda v: swap(MECH, bare_coupling=v).validate(), False),
    *[(name, lambda v, name=name: swap(PARAMS, **{name: v}), False)
      for name in ("cavity_freq", "magnon_freq", "photon_matter_coupling", "cavity_linewidth",
                   "magnon_linewidth", "drive_freq", "rabi_freq", "bath_temperature")],
    *[(name, lambda v, name=name: _setup(**{name: v}), False)
      for name in ("cavity_freq", "cavity_linewidth", "bath_temperature", "rabi_freq")],
    ("matter_linewidths[0]", lambda v: _setup(matter_linewidths=(v,)), False),
    ("sphere_diameter", lambda v: pc.DriveCalibration(sphere_diameter=v), False),
    ("spin_density", lambda v: swap(CAL, spin_density=v), False),
    ("gyro_ratio", lambda v: swap(CAL, gyro_ratio=v), False),
    ("reference_power[0]", lambda v: swap(CAL, reference_power=(v, 2.7e-5)), False),
    ("reference_power[1]", lambda v: swap(CAL, reference_power=(4.3e-3, v)), False),
    ("field_amplitude", lambda v: pc.calibrate_drive(CAL, field_amplitude=v), True),
    ("power", lambda v: pc.calibrate_drive(CAL, power=v), True),
    ("coupling", lambda v: pc.sideband_rates(v, 1.0, 1.0, 1.0), False),
    ("linewidth", lambda v: pc.sideband_rates(1.0, v, 1.0, 1.0), False),
    ("detuning", lambda v: pc.sideband_rates(1.0, 1.0, v, 1.0), False),
    ("mech_freq", lambda v: pc.sideband_rates(1.0, 1.0, 1.0, v), False),
    ("linewidth", lambda v: pc.quantum_backaction_limit(v, LO), False),
    ("mech_freq", lambda v: pc.quantum_backaction_limit(1.0, v), False),
    ("drive.rabi_freq", lambda v: pc.build_network([POL], [MECH], swap(DRIVE, rabi_freq=v)),
     False),
    ("drive.bath_temperature",
     lambda v: pc.build_network([POL], [MECH], swap(DRIVE, bath_temperature=v)), False),
    *[(f"polaritons[0].{name}",
       lambda v, name=name: pc.build_network([swap(POL, **{name: v})], [MECH], DRIVE),
       name == "detuning")
      for name in ("freq", "linewidth", "weight", "detuning")],
    ("mechanics[0].freq", lambda v: pc.build_network([POL], [swap(MECH, freq=v)], DRIVE), False),
    ("cavity_freq", lambda v: pc.photon_matter_diagonalize(v, [MATTER], TWO_PI * 1e6), False),
    ("cavity_linewidth", lambda v: pc.photon_matter_diagonalize(CAV, [MATTER], v), False),
    *[(f"matter_modes[0].{name}",
       lambda v, name=name: pc.photon_matter_diagonalize(
           CAV, [swap(MATTER, **{name: v})], TWO_PI * 1e6), False)
      for name in ("freq", "coupling", "linewidth")],
    ("t_final", lambda v: pc.integrate_covariance(-np.eye(2), np.eye(2), t_final=v), True),
    ("theta", lambda v: pc.sweep(SETUP, "temperature", [0.01], theta=v), False),
    ("grid[0]", lambda v: pc.sweep(SETUP, "theta", [v]), False),
    ("tol", lambda v: pc.optimize_theta(SETUP, tol=v), False),
    ("bounds[0]", lambda v: pc.optimize_theta(SETUP, bounds=(v, 1.0)), False),
    ("bounds[1]", lambda v: pc.optimize_theta(SETUP, bounds=(0.1, v)), False),
    ("temperature", lambda v: pc.optimize_theta(SETUP, temperature=v), True),
    ("rabi", lambda v: pc.optimize_theta(SETUP, rabi=v), True),
    ("cavity_freq", lambda v: _nmode("cavity_freq", v), False),
    ("cavity_linewidth", lambda v: _nmode("cavity_linewidth", v), False),
    *[(f"{key}[0]", lambda v, key=key: _nmode_entry(key, v), False)
      for key in ("mech_freqs", "couplings", "matter_linewidths")],
    ("initial_guess[0]", lambda v: pc.tune_n_mode(**NMODE, initial_guess=[v]), False),
]


def two_mode_raw():
    return {
        "system": {
            "cavity_freq_hz": 1.0e10, "cavity_linewidth_hz": 1.0e6,
            "magnon_linewidth_hz": 1.0e6, "bath_temperature_k": 0.01,
            "mechanical_modes": [
                {"freq_hz": 1.0e7, "damping_hz": 100.0, "bare_coupling_hz": 0.2},
                {"freq_hz": 3.0e7, "damping_hz": 100.0, "bare_coupling_hz": 0.2},
            ],
        },
        "drive": {"sphere_diameter_m": 2.5e-4, "field_t": 2.7e-5},
        "theta": 0.7,
        "sweep": {"variable": "theta", "start": 0.1, "stop": 1.4, "points": 3},
        "optimize": {"lower": 0.1, "upper": 1.4, "tol": 1e-6},
    }


def nmode_raw():
    return {"nmode": {
        "cavity_freq_hz": 1.0e10, "cavity_linewidth_hz": 1.0e6,
        "couplings_hz": [7.0e6, 9.0e6], "matter_linewidths_hz": [1.0e6, 1.0e6],
        "bath_temperature_k": 0.01,
        "mechanical_modes": [{"freq_hz": f, "damping_hz": 100.0, "bare_coupling_hz": 0.2}
                             for f in (1.0e7, 2.0e7, 3.5e7)],
        "drive": {"rabi_hz": 1.25e13},
    }}


def config_field(raw, *keys):
    """Table entry for the config field at ``keys``, a key or list index at each level."""
    def call(value):
        tree = raw()
        node = tree
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return parse_config(tree)
    path = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    return path, call, False


CONFIG = [
    *[config_field(two_mode_raw, "system", key)
      for key in ("cavity_freq_hz", "cavity_linewidth_hz", "magnon_linewidth_hz",
                  "bath_temperature_k")],
    *[config_field(two_mode_raw, "system", "mechanical_modes", 1, key)
      for key in ("freq_hz", "damping_hz", "bare_coupling_hz")],
    config_field(two_mode_raw, "drive", "sphere_diameter_m"),
    config_field(two_mode_raw, "drive", "field_t"),
    config_field(two_mode_raw, "theta"),
    config_field(two_mode_raw, "sweep", "start"),
    config_field(two_mode_raw, "sweep", "stop"),
    *[config_field(two_mode_raw, "optimize", key) for key in ("lower", "upper", "tol")],
    *[config_field(nmode_raw, "nmode", key)
      for key in ("cavity_freq_hz", "cavity_linewidth_hz", "bath_temperature_k")],
    config_field(nmode_raw, "nmode", "couplings_hz", 1),
    config_field(nmode_raw, "nmode", "matter_linewidths_hz", 0),
    config_field(nmode_raw, "nmode", "drive", "rabi_hz"),
]


@pytest.mark.parametrize("path,call,none_means_default", API + CONFIG,
                         ids=[entry[0] for entry in API + CONFIG])
def test_scalar_inputs_reject_non_numbers(path, call, none_means_default):
    for value in BAD_VALUES:
        if value is None and none_means_default:
            continue
        with pytest.raises(ValidationError, match="^" + re.escape(path) + ": "):
            call(value)


HZ_FIELDS = [(path, call) for path, call, _ in CONFIG if "_hz" in path]


@pytest.mark.parametrize("path,call", HZ_FIELDS, ids=[path for path, _ in HZ_FIELDS])
def test_hz_fields_that_overflow_in_rad_s_fail_under_their_path(path, call):
    # 1e308 Hz is finite, 2 pi times it is not
    with pytest.raises(ValidationError, match="^" + re.escape(path) + ": must be finite"):
        call(1e308)
