"""Config parsing, validation messages, serialization round-trips."""
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from polarcool.config import (
    dump_config,
    load_config,
    parse_config,
    serialize_config,
)
from polarcool.errors import ValidationError

from helpers import TWO_PI

PRESETS = ("two_mode_base", "two_mode_highpower", "three_mode")


def base_raw():
    return {
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
        "drive": {"rabi_hz": 1.25e13},
        "theta": 0.7,
    }


def test_presets_load_and_units_convert():
    cfg = load_config("configs/two_mode_base.config")
    assert cfg.setup is not None
    assert cfg.setup.cavity_freq == pytest.approx(TWO_PI * 1.0e10, rel=1e-15)
    assert cfg.setup.mechanical_modes[0].freq == pytest.approx(TWO_PI * 1.0e7, rel=1e-15)
    assert cfg.sweep is not None and cfg.sweep.variable == "theta"
    assert cfg.sweep.points == 101

    hot = load_config("configs/two_mode_highpower.config")
    assert hot.setup.bath_temperature == pytest.approx(0.2)
    assert hot.sweep.variable == "temperature"

    nm = load_config("configs/three_mode.config")
    assert nm.setup is None
    assert nm.nmode is not None
    assert len(nm.nmode.mechanical_modes) == 3
    assert len(nm.nmode.couplings) == 2


@pytest.mark.parametrize("name", PRESETS)
def test_preset_round_trip_exact(name):
    cfg = load_config(f"configs/{name}.config")
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_random_draws_tight():
    """serialize/parse survives arbitrary magnitudes to a couple of ulps."""
    rng = np.random.default_rng(99)
    for _ in range(50):
        raw = base_raw()
        raw["system"]["cavity_freq_hz"] = float(rng.uniform(1e9, 2e10))
        raw["system"]["mechanical_modes"][0]["freq_hz"] = float(rng.uniform(1e6, 1e7))
        raw["drive"] = {"rabi_hz": float(rng.uniform(1e12, 1e14))}
        cfg = parse_config(raw)
        back = parse_config(serialize_config(cfg))
        assert back.setup.cavity_freq == pytest.approx(cfg.setup.cavity_freq, rel=5e-16)
        assert back.setup.rabi_freq == pytest.approx(cfg.setup.rabi_freq, rel=5e-16)
        assert back.setup.mechanical_modes == cfg.setup.mechanical_modes or all(
            a.freq == pytest.approx(b.freq, rel=5e-16)
            for a, b in zip(back.setup.mechanical_modes, cfg.setup.mechanical_modes)
        )


def test_dump_and_reload(tmp_path):
    cfg = load_config("configs/two_mode_base.config")
    out = tmp_path / "copy.config"
    dump_config(cfg, str(out))
    assert load_config(str(out)) == cfg


def test_unknown_keys_rejected_with_path():
    raw = base_raw()
    raw["system"]["color"] = "blue"
    with pytest.raises(ValidationError, match=r"config\.system: unknown keys.*color"):
        parse_config(raw)
    raw = base_raw()
    raw["extra"] = 1
    with pytest.raises(ValidationError, match="config: unknown keys"):
        parse_config(raw)
    raw = base_raw()
    raw["system"]["mechanical_modes"][1]["mass_kg"] = 1e-6
    with pytest.raises(ValidationError, match=r"mechanical_modes\[1\]"):
        parse_config(raw)


def test_missing_and_malformed_fields_name_their_path():
    raw = base_raw()
    del raw["system"]["cavity_freq_hz"]
    with pytest.raises(ValidationError, match=r"config\.system\.cavity_freq_hz: missing"):
        parse_config(raw)
    raw = base_raw()
    raw["system"]["cavity_freq_hz"] = -5.0
    with pytest.raises(ValidationError, match="strictly positive"):
        parse_config(raw)
    # unsigned exponents are a YAML 1.1 trap: they load as strings
    as_text = yaml.safe_load("cavity_freq_hz: 1.0e10")
    assert isinstance(as_text["cavity_freq_hz"], str)
    raw = base_raw()
    raw["system"]["cavity_freq_hz"] = "1.0e10"
    with pytest.raises(ValidationError, match="expected a number"):
        parse_config(raw)


def test_zero_drive_is_valid():
    raw = base_raw()
    raw["drive"] = {"rabi_hz": 0.0}
    cfg = parse_config(raw)
    assert cfg.setup.rabi_freq == 0.0
    raw["drive"] = {"rabi_hz": -1.0}
    with pytest.raises(ValidationError, match="non-negative"):
        parse_config(raw)


def test_drive_field_power_exclusivity():
    raw = base_raw()
    raw["drive"] = {"sphere_diameter_m": 2.5e-4, "field_t": 2.7e-5, "power_w": 0.069,
                    "reference_power_w": 4.3e-3, "reference_field_t": 2.7e-5}
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config(raw)
    raw["drive"] = {"sphere_diameter_m": 2.5e-4}
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config(raw)
    raw["drive"] = {"sphere_diameter_m": 2.5e-4, "field_t": 2.7e-5}
    cfg = parse_config(raw)
    assert cfg.setup.rabi_freq == pytest.approx(78525797543744.96, rel=1e-12)


def test_system_and_drive_must_come_together():
    raw = base_raw()
    del raw["drive"]
    with pytest.raises(ValidationError, match=r"config\.drive: missing"):
        parse_config(raw)
    raw = {"drive": {"rabi_hz": 1.0}}
    with pytest.raises(ValidationError, match=r"config\.system: missing"):
        parse_config(raw)
    with pytest.raises(ValidationError, match=r"config\.system: missing"):
        parse_config({"theta": 0.5})


def test_nmode_only_config_is_valid():
    cfg = load_config("configs/three_mode.config")
    assert cfg.setup is None
    # and it still round-trips
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_config_examples_parse():
    readme = Path("README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        parse_config(yaml.safe_load(block))


def test_theta_and_averages_validation():
    raw = base_raw()
    del raw["theta"]
    assert parse_config(raw).theta == pytest.approx(0.25 * math.pi)
    raw["theta"] = 2.0
    with pytest.raises(ValidationError, match="theta"):
        parse_config(raw)
    raw = base_raw()
    raw["averages"] = "exact"
    with pytest.raises(ValidationError, match="averages"):
        parse_config(raw)
    raw["averages"] = "selfconsistent"
    assert parse_config(raw).averages == "selfconsistent"


def test_sweep_section_validation():
    raw = base_raw()
    raw["sweep"] = {"variable": "theta", "start": 0.1, "stop": 1.5, "points": 11}
    cfg = parse_config(raw)
    assert cfg.sweep.points == 11 and cfg.sweep.plot is None
    raw["sweep"]["points"] = 1
    with pytest.raises(ValidationError, match="points"):
        parse_config(raw)
    raw["sweep"]["points"] = 11
    raw["sweep"]["stop"] = 0.05
    with pytest.raises(ValidationError, match="stop > start"):
        parse_config(raw)
    raw["sweep"] = {"variable": "power", "start": 0.1, "stop": 1.0, "points": 5}
    with pytest.raises(ValidationError, match="variable"):
        parse_config(raw)


def test_optimize_section_defaults_and_validation():
    raw = base_raw()
    raw["optimize"] = {"objective": "mode1"}
    cfg = parse_config(raw)
    assert cfg.optimize.objective == "mode1"
    assert cfg.optimize.coarse_points == 33
    assert cfg.optimize.tol == pytest.approx(1e-6)
    assert 0.0 < cfg.optimize.lower < cfg.optimize.upper < 0.5 * math.pi
    raw["optimize"] = {"objective": "median"}
    with pytest.raises(ValidationError, match="objective"):
        parse_config(raw)
    raw["optimize"] = {"coarse_points": 2}
    with pytest.raises(ValidationError, match="coarse_points"):
        parse_config(raw)


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_config(str(tmp_path / "missing.config"))
    bad = tmp_path / "bad.config"
    bad.write_text("system: [unclosed\n")
    with pytest.raises(ValidationError, match="invalid YAML"):
        load_config(str(bad))
