"""Config parsing, validation messages, serialization round-trips."""
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcool.config as config
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
    assert len(nm.setup.mechanical_modes) == 3
    assert len(nm.setup.couplings) == 2
    assert nm.setup.couplings[1] == pytest.approx(TWO_PI * 9.0e6, rel=1e-15)
    assert len(nm.setup.matter_linewidths) == 2
    assert nm.sweep.variable == "temperature"


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


def _hz(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def random_configs(draw):
    """A valid raw config: one device of either format, N = 2..4, optional sections."""
    n = 2 if draw(st.booleans()) else draw(st.integers(2, 4))
    mech_freqs = sorted(draw(st.lists(_hz(1e5, 1e8), min_size=n, max_size=n, unique=True)))
    device = {
        "cavity_freq_hz": draw(_hz(1e8, 1e11)),
        "cavity_linewidth_hz": draw(_hz(1e3, 1e8)),
        "bath_temperature_k": draw(_hz(0.0, 10.0)),
        "mechanical_modes": [{"freq_hz": f, "damping_hz": draw(_hz(1e-3, 1e5)),
                              "bare_coupling_hz": draw(_hz(1e-3, 1e3))} for f in mech_freqs],
    }
    drive = draw(st.one_of(
        st.builds(lambda r: {"rabi_hz": r}, _hz(0.0, 1e15)),
        st.builds(lambda d, b: {"sphere_diameter_m": d, "field_t": b},
                  _hz(1e-6, 1e-2), _hz(0.0, 1e-3)),
    ))
    if n == 2 and draw(st.booleans()):
        raw = {"system": {**device, "magnon_linewidth_hz": draw(_hz(1e3, 1e8))},
               "drive": drive}
    else:
        raw = {"nmode": {**device, "drive": drive,
                         "couplings_hz": draw(st.lists(_hz(1e3, 1e9), min_size=n - 1,
                                                       max_size=n - 1)),
                         "matter_linewidths_hz": draw(st.lists(_hz(1e3, 1e8), min_size=n - 1,
                                                               max_size=n - 1))}}
    raw["theta"] = draw(st.floats(1e-6, 0.5 * math.pi - 1e-6))
    raw["averages"] = draw(st.sampled_from(["approx", "selfconsistent"]))
    if draw(st.booleans()):
        variable = draw(st.sampled_from(["theta", "temperature", "rabi"]))
        hi = 0.5 * math.pi - 1e-6 if variable == "theta" else 1e15
        start, stop = sorted(draw(st.lists(st.floats(1e-6, hi), min_size=2, max_size=2,
                                           unique=True)))
        raw["sweep"] = {"variable": variable, "start": start, "stop": stop,
                        "points": draw(st.integers(2, 200))}
    if draw(st.booleans()):
        lower, upper = sorted(draw(st.lists(st.floats(1e-6, 1.5), min_size=2, max_size=2,
                                            unique=True)))
        raw["optimize"] = {"objective": draw(st.sampled_from(["max", "mode1", "mode2"])),
                           "lower": lower, "upper": upper, "tol": draw(_hz(1e-12, 1e-2))}
    return raw


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_configs())
def test_round_trip_is_exact_for_random_devices(raw):
    cfg = parse_config(raw)
    out = serialize_config(cfg)
    # one device per file, in the format it came in
    assert ("nmode" in out) == bool(cfg.setup.couplings) == ("system" not in out)
    back = parse_config(out)
    drive = (raw.get("drive") or raw["nmode"]["drive"])
    if "rabi_hz" not in drive:
        # a Rabi frequency calibrated from a field is written in Hz: one rounding
        assert back.setup.rabi_freq == pytest.approx(cfg.setup.rabi_freq, rel=4.5e-16)
        cfg = dataclasses.replace(
            cfg, setup=dataclasses.replace(cfg.setup, rabi_freq=back.setup.rabi_freq))
    assert back == cfg
    assert parse_config(serialize_config(back)) == back
    assert parse_config(yaml.safe_load(yaml.safe_dump(out))) == back


def test_dump_and_reload(tmp_path):
    cfg = load_config("configs/two_mode_base.config")
    out = tmp_path / "copy.config"
    dump_config(cfg, str(out))
    assert load_config(str(out)) == cfg


@pytest.mark.parametrize("preset", PRESETS)
def test_dump_config_writes_the_serialized_mapping_with_lf_line_endings(tmp_path, preset):
    cfg = load_config(f"configs/{preset}.config")
    dump_config(cfg, tmp_path / "copy.config")
    text = yaml.safe_dump(serialize_config(cfg), sort_keys=False)
    assert (tmp_path / "copy.config").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("field, value", [
    ("averages", "exact"),
    ("theta", math.nan),
    ("sweep.points", 1),
    ("sweep.variable", "drive"),
])
def test_dump_config_writes_only_a_config_that_load_config_accepts(tmp_path, field, value):
    """Such a config was once written, and load_config then rejected the file."""
    cfg = load_config("configs/two_mode_base.config")
    section, _, key = field.rpartition(".")
    if section:
        cfg = dataclasses.replace(
            cfg, **{section: dataclasses.replace(getattr(cfg, section), **{key: value})})
    else:
        cfg = dataclasses.replace(cfg, **{key: value})
    written = tmp_path / "written.config"
    written.write_text(yaml.safe_dump(serialize_config(cfg), sort_keys=False), encoding="utf-8")
    with pytest.raises(ValidationError) as loaded:
        load_config(written)
    out = tmp_path / "keep.config"
    out.write_bytes(b"theta: 0.5\n")
    with pytest.raises(ValidationError) as dumped:
        dump_config(cfg, out)
    assert str(dumped.value) == str(loaded.value)
    assert str(dumped.value).startswith(f"config.{field}: ")
    assert out.read_bytes() == b"theta: 0.5\n"


@pytest.mark.parametrize("cfg", [None, "x", load_config("configs/two_mode_base.config").setup])
def test_a_config_that_is_not_a_run_config_leaves_the_file_as_it_was(tmp_path, cfg):
    """Such a config once raised a raw AttributeError after the file had been
    opened for writing, which left it empty."""
    out = tmp_path / "keep.config"
    out.write_bytes(b"theta: 0.5\n")
    with pytest.raises(ValidationError) as exc:
        dump_config(cfg, str(out))
    assert str(exc.value) == f"cfg: expected a RunConfig, got {cfg!r}"
    assert out.read_bytes() == b"theta: 0.5\n"
    with pytest.raises(ValidationError, match="^cfg: expected a RunConfig"):
        serialize_config(cfg)


def test_a_config_path_that_cannot_be_written_is_a_validation_error(tmp_path):
    """Such a path once escaped as a raw FileNotFoundError."""
    cfg = load_config("configs/two_mode_base.config")
    missing = tmp_path / "missing" / "copy.config"
    with pytest.raises(ValidationError) as exc:
        dump_config(cfg, str(missing))
    assert str(exc.value) == f"{missing}: cannot write the config file (No such file or directory)"
    with pytest.raises(ValidationError, match="cannot write the config file"):
        dump_config(cfg, str(tmp_path))  # a directory
    assert not missing.parent.exists()


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


def test_one_device_per_config():
    nmode = load_config("configs/three_mode.config")
    for extra in ({"system": base_raw()["system"]}, {"drive": base_raw()["drive"]}):
        raw = {**serialize_config(nmode), **extra}
        with pytest.raises(ValidationError, match=r"^config: give one device"):
            parse_config(raw)
    # a mode count or ordering the device rejects names the config section
    raw = serialize_config(nmode)
    raw["nmode"]["couplings_hz"] = raw["nmode"]["couplings_hz"][:1]
    with pytest.raises(ValidationError, match=r"^config\.nmode\.couplings: need 2 entries"):
        parse_config(raw)
    raw = base_raw()
    raw["system"]["mechanical_modes"].append(
        {"freq_hz": 5.0e7, "damping_hz": 100.0, "bare_coupling_hz": 0.2})
    with pytest.raises(ValidationError, match=r"^config\.system\.mechanical_modes: .*exactly 2"):
        parse_config(raw)
    raw["system"]["mechanical_modes"] = raw["system"]["mechanical_modes"][1::-1]
    with pytest.raises(ValidationError, match=r"^config\.system\.mechanical_modes: .*increasing"):
        parse_config(raw)


def test_nmode_only_config_is_valid():
    cfg = load_config("configs/three_mode.config")
    assert cfg.setup.couplings
    # and it still round-trips
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_config_examples_parse():
    readme = Path("README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        parse_config(yaml.safe_load(block))


def test_readme_python_examples_run():
    readme = Path("README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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
    # a numpy integer is an integer, as optimize_theta takes it, held as a plain int
    raw["sweep"]["points"] = np.int64(11)
    assert type(parse_config(raw).sweep.points) is int
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


@pytest.mark.parametrize("variable,start,stop,bad", [
    ("theta", 0.0, 1.0, "start"),
    ("theta", -0.5, 1.0, "start"),
    ("theta", 0.1, 0.5 * math.pi, "stop"),
    ("theta", 0.1, 2.0, "stop"),
    ("temperature", -0.1, 0.1, "start"),
    ("temperature", -0.2, -0.1, "start"),
    ("rabi", -1.0e12, 1.0e13, "start"),
])
def test_sweep_grid_must_lie_in_its_variables_domain(variable, start, stop, bad):
    """Such a grid once loaded, and its sweep wrote error rows and exited 0."""
    raw = base_raw()
    raw["sweep"] = {"variable": variable, "start": start, "stop": stop, "points": 3}
    with pytest.raises(ValidationError, match=rf"^config\.sweep\.{bad}: must be finite"):
        parse_config(raw)
    # the domain's own edge is a valid end where it is closed
    if variable != "theta":
        raw["sweep"]["start"] = 0.0
        raw["sweep"]["stop"] = abs(stop)
        assert parse_config(raw).sweep.start == 0.0


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
    raw["optimize"] = {"coarse_points": np.int32(9)}
    assert type(parse_config(raw).optimize.coarse_points) is int
    # the bounds fail at load under their keys, as optimize_theta would reject them
    for bounds, key in (({"lower": 1.2, "upper": 0.3}, "upper"), ({"lower": -1.0}, "lower"),
                        ({"upper": 2.0}, "upper")):
        raw["optimize"] = bounds
        with pytest.raises(ValidationError, match=rf"^config\.optimize\.{key}: must be"):
            parse_config(raw)


def test_sections_and_lists_of_the_wrong_kind_name_their_path():
    raw = base_raw()
    raw["sweep"] = [0.1, 1.0]
    with pytest.raises(ValidationError, match=r"^config\.sweep: expected a mapping, got list$"):
        parse_config(raw)
    raw = base_raw()
    raw["system"]["mechanical_modes"] = []
    with pytest.raises(ValidationError,
                       match=r"^config\.system\.mechanical_modes: expected a non-empty list$"):
        parse_config(raw)
    raw = base_raw()
    raw["sweep"] = {"variable": "theta", "start": 0.1, "stop": 1.5, "points": 3, "plot": 3}
    with pytest.raises(ValidationError,
                       match=r"^config\.sweep\.plot: expected a path string, got 3$"):
        parse_config(raw)
    raw = yaml.safe_load(Path("configs/three_mode.config").read_text())
    raw["nmode"]["couplings_hz"] = []
    with pytest.raises(ValidationError,
                       match=r"^config\.nmode\.couplings_hz: expected a non-empty list$"):
        parse_config(raw)


def test_a_sweep_plot_path_round_trips():
    raw = base_raw()
    raw["sweep"] = {"variable": "theta", "start": 0.1, "stop": 1.5, "points": 3,
                    "plot": "sweep.dat"}
    cfg = parse_config(raw)
    assert serialize_config(cfg)["sweep"]["plot"] == "sweep.dat"
    assert parse_config(serialize_config(cfg)) == cfg


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_config(str(tmp_path / "missing.config"))
    bad = tmp_path / "bad.config"
    bad.write_text("system: [unclosed\n")
    with pytest.raises(ValidationError, match="invalid YAML"):
        load_config(str(bad))


def test_unreadable_config_is_a_validation_error(tmp_path):
    binary = tmp_path / "binary.config"
    binary.write_bytes(b"\xff\xfe")
    with pytest.raises(ValidationError, match=re.escape(f"{binary}: not UTF-8 text")):
        load_config(str(binary))
    with pytest.raises(ValidationError, match=re.escape(f"{tmp_path}: cannot read")):
        load_config(str(tmp_path))


@pytest.mark.parametrize("path", [None, 0, 1.5, True])
@pytest.mark.parametrize("io", ["load_config", "dump_config"])
def test_a_config_path_must_be_a_file_path(path, io):
    """An int was once opened as a file descriptor (0 read stdin), other non-paths
    raised a raw TypeError."""
    call = (lambda: load_config(path)) if io == "load_config" else (
        lambda: dump_config(load_config("configs/two_mode_base.config"), path))
    with pytest.raises(ValidationError, match="^" + re.escape(f"path: expected a file path,"
                                                              f" got {path!r}") + "$"):
        call()


def test_a_config_path_may_be_a_path_object_or_bytes(tmp_path):
    cfg = load_config(Path("configs/two_mode_base.config"))
    assert load_config(b"configs/two_mode_base.config") == cfg
    dump_config(cfg, tmp_path / "copy.config")
    assert load_config(str(tmp_path / "copy.config").encode()) == cfg


CONFIG_FILES = sorted(str(p) for p in (*Path("configs").glob("*.config"),
                                       *Path("perfbench/configs").glob("*.config")))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", CONFIG_FILES)
def test_libyaml_and_python_loaders_give_one_config(path, monkeypatch):
    fast = load_config(path)
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    assert load_config(path) == fast
