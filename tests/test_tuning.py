"""Working-point tuning, sweeps, and the mixing-angle optimizer."""
import collections
import dataclasses
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcool as pc
from polarcool import analytics, dynamics, errors, steadystate, tuning
from polarcool import model as model_module
from polarcool.cli import main, write_csv
from polarcool.config import load_config
from polarcool.errors import SolverError, UnstableSystemError, ValidationError

from helpers import (
    BASE_RABI,
    TWO_PI,
    assemble_network,
    design,
    make_base_setup,
    make_mechs,
    optimize_by_rows,
    pair_at,
    schur,
)


# ---------------------------------------------------------------------------
# two-mode tuning


def test_tune_round_trip_recovers_targets():
    """The tuned pair's normal modes must have the requested angle and detunings.

    Draw ranges mirror realistic devices (GHz polaritons, MHz sidebands).
    The detunings are parts-per-thousand of the carrier, so rel 1e-12 already
    sits within a couple of decades of the float64 cancellation floor.
    """
    rng = np.random.default_rng(31415)
    for _ in range(50):
        cavity = TWO_PI * rng.uniform(1e9, 2e10)
        lower = TWO_PI * rng.uniform(5e6, 4e7)
        upper = lower * rng.uniform(1.5, 3.5)
        theta = rng.uniform(0.02, 0.5 * math.pi - 0.02)
        mechs = tuple(dataclasses.replace(m, freq=f) for m, f in zip(make_mechs(), (lower, upper)))
        basis = pair_at(make_base_setup(cavity_freq=cavity, mechanical_modes=mechs), theta)
        assert basis.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)
        assert basis.detuning_upper == pytest.approx(upper, rel=1e-12)
        assert basis.detuning_lower == pytest.approx(lower, rel=1e-12)


def test_working_point_overrides():
    setup = make_base_setup()
    tuned, _ = setup.working_point(0.9)
    assert tuned == setup._tuned(0.9)
    for override, field, value in (("temperature", "bath_temperature", 0.35),
                                   ("rabi", "rabi_freq", 0.1 * setup.rabi_freq)):
        got_tuning, got = setup.working_point(0.9, **{override: value})
        # the override replaces the device's own value, and the tuning is unchanged by it
        _, want = dataclasses.replace(setup, **{field: value}).working_point(0.9)
        assert got.drift.tobytes() == want.drift.tobytes()
        assert got.diffusion.tobytes() == want.diffusion.tobytes()
        assert got_tuning == tuned


def test_working_point_angle_validations():
    setup = make_base_setup()
    for bad_theta in (0.0, 0.5 * math.pi, -0.1, 2.0):
        with pytest.raises(ValidationError, match="^theta: "):
            setup.working_point(bad_theta)
    with pytest.raises(ValidationError, match="^theta: expected a number"):
        setup.working_point("abc")
    # a huge splitting at small theta would push the magnon below zero
    mechs = tuple(dataclasses.replace(m, freq=f) for m, f in zip(make_mechs(), (1.0, TWO_PI * 1e7)))
    wide = make_base_setup(cavity_freq=TWO_PI * 1e6, mechanical_modes=mechs)
    with pytest.raises(ValidationError, match="^magnon_freq: "):
        wide.working_point(0.05)


def test_two_mode_setup_validations():
    kwargs = dict(cavity_freq=TWO_PI * 1e10, cavity_linewidth=TWO_PI * 1e6,
                  matter_linewidths=(TWO_PI * 1e6,), bath_temperature=0.01,
                  rabi_freq=BASE_RABI)
    with pytest.raises(ValidationError, match="at least 2"):
        pc.Device(mechanical_modes=make_mechs()[:1], **kwargs)
    with pytest.raises(ValidationError, match="exactly 2"):
        pc.Device(mechanical_modes=make_mechs((1e7, 2e7, 3e7)), **kwargs)
    descending = tuple(reversed(make_mechs()))
    with pytest.raises(ValidationError, match="increasing"):
        pc.Device(mechanical_modes=descending, **kwargs)
    # a bad device fails when it is built, not once per working point
    for field, value in (("cavity_freq", math.nan), ("bath_temperature", -1.0),
                         ("rabi_freq", math.inf), ("matter_linewidths", ("1e6",))):
        with pytest.raises(ValidationError, match=f"^{field}(\\[0\\])?: "):
            pc.Device(mechanical_modes=make_mechs(), **{**kwargs, field: value})
    bad_mode = pc.MechanicalMode(freq=TWO_PI * 3e7, damping=math.nan, bare_coupling=0.0)
    with pytest.raises(ValidationError, match=r"^mechanical_modes\[1\]\.damping"):
        pc.Device(mechanical_modes=(make_mechs()[0], bad_mode), **kwargs)
    with pytest.raises(ValidationError, match=r"^matter_linewidths: need 1 entries"):
        pc.Device(mechanical_modes=make_mechs(), **{**kwargs, "matter_linewidths": ()})
    with pytest.raises(ValidationError, match=r"^matter_linewidths: expected a sequence"):
        pc.Device(mechanical_modes=make_mechs(), **{**kwargs, "matter_linewidths": 1.0})


def test_device_rejects_nonpositive_fields_with_field_name():
    good = make_base_setup()
    for field, value in (("cavity_freq", 0.0), ("cavity_linewidth", 0.0),
                         ("matter_linewidths", (0.0,))):
        with pytest.raises(ValidationError, match=f"^{field}(\\[0\\])?: must be finite"):
            dataclasses.replace(good, **{field: value})
    # NaN and inf are not numbers in range either
    for field, value in (("rabi_freq", math.nan), ("bath_temperature", math.nan),
                         ("cavity_freq", math.inf)):
        with pytest.raises(ValidationError, match=f"^{field}: must be finite"):
            dataclasses.replace(good, **{field: value})


def test_device_rejects_duplicate_mechanical_frequencies():
    with pytest.raises(ValidationError, match="^mechanical_modes: must be ordered by increasing"):
        make_base_setup(mechanical_modes=make_mechs(freq_hz=(1.0e7, 1.0e7)))


def test_device_accepts_lists_and_stores_tuples():
    device = make_base_setup(mechanical_modes=list(make_mechs()),
                             matter_linewidths=[TWO_PI * 1.0e6])
    assert isinstance(device.mechanical_modes, tuple)
    assert isinstance(device.matter_linewidths, tuple)


def test_fixed_coupling_device_validations():
    device = three_mode_device()
    assert device.couplings and len(device.matter_linewidths) == 2
    fields = {f.name: getattr(device, f.name) for f in dataclasses.fields(device)}
    with pytest.raises(ValidationError, match=r"^couplings: need 2 entries for 3"):
        pc.Device(**{**fields, "couplings": device.couplings[:1]})
    with pytest.raises(ValidationError, match=r"^couplings\[1\]: must be finite"):
        pc.Device(**{**fields, "couplings": (TWO_PI * 7e6, -1.0)})
    with pytest.raises(ValidationError, match=r"^matter_linewidths: need 2 entries for 3"):
        pc.Device(**{**fields, "matter_linewidths": device.matter_linewidths[:1]})
    # the angle is no knob of a fixed-coupling device
    for call in (lambda: pc.sweep(device, "theta", [0.5, 0.7]),
                 lambda: pc.optimize_theta(device)):
        with pytest.raises(ValidationError, match="needs an angle-tuned device"):
            call()


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_preserves_grid_order_and_values():
    setup = make_base_setup()
    grid = np.linspace(0.3, 1.2, 7)
    rows = pc.sweep(setup, "theta", grid)
    assert len(rows) == 7
    for row, value in zip(rows, grid):
        assert row.variable == float(value)
        assert row.theta == float(value)
        assert row.stable
        assert not row.flags
        assert all(math.isfinite(n) for n in row.n_numeric)


def test_sweep_runs_one_stack_on_the_calling_thread(monkeypatch):
    """``threads`` is accepted and ignored: the whole grid is one call of ``_rows``."""
    calls = []

    def counted(setup, points, averages):
        calls.append((threading.get_ident(), len(points)))
        return original(setup, points, averages)

    original = tuning._rows
    monkeypatch.setattr(tuning, "_rows", counted)
    rows = pc.sweep(make_base_setup(), "theta", np.linspace(0.25, 1.3, 12), threads=4)
    assert len(rows) == 12
    assert calls == [(threading.get_ident(), 12)]


def test_sweep_temperature_and_rabi_need_theta():
    setup = make_base_setup()
    with pytest.raises(ValidationError, match="theta"):
        pc.sweep(setup, "temperature", [0.01, 0.02])
    rows = pc.sweep(setup, "temperature", [0.01, 0.1], theta=0.8)
    assert rows[0].n_numeric[0] < rows[1].n_numeric[0]
    with pytest.raises(ValidationError, match="variable"):
        pc.sweep(setup, "power", [1.0], theta=0.8)
    with pytest.raises(ValidationError, match="grid"):
        pc.sweep(setup, "theta", [])
    for bad_entry in ("abc", None):
        with pytest.raises(ValidationError, match=r"grid\[1\]"):
            pc.sweep(setup, "theta", [0.5, bad_entry])
    with pytest.raises(ValidationError, match="^grid: expected an iterable"):
        pc.sweep(setup, "theta", 5)
    for bad_threads in (0, "2", None, 2.5, True):
        with pytest.raises(ValidationError, match="^threads: expected an integer >= 1"):
            pc.sweep(setup, "theta", [0.5], threads=bad_threads)
    for bad_entry in (math.nan, math.inf, True):
        with pytest.raises(ValidationError, match=r"^grid\[1\]: "):
            pc.sweep(setup, "theta", [0.5, bad_entry])
    # the fixed angle is checked once, before any point is solved
    for bad_theta in (math.nan, 2.0, "0.8"):
        with pytest.raises(ValidationError, match="^theta: "):
            pc.sweep(setup, "temperature", [0.01], theta=bad_theta)


def test_sweep_records_per_point_errors():
    setup = make_base_setup()
    rows = pc.sweep(setup, "theta", [0.5, 2.5, 0.9])  # middle angle is out of range
    assert rows[0].stable and rows[2].stable
    bad = rows[1]
    assert bad.flags == ("error:ValidationError",)
    assert not bad.stable
    assert math.isnan(bad.coupling)
    assert all(math.isnan(n) for n in bad.n_numeric)
    assert bad.variable == 2.5  # grid position is still reported
    # the row is built by evaluate_point itself, so direct callers get it too
    direct = pc.evaluate_point(setup, 2.5)
    assert direct.flags == ("error:ValidationError",)
    assert pc.evaluate_point(setup, None).flags == ("error:ValidationError",)
    assert not direct.stable
    assert direct.theta == 2.5
    assert math.isnan(direct.variable)
    assert all(math.isnan(n) for n in direct.n_numeric + direct.kappa_eff)


def test_sweep_rows_hold_plain_floats():
    setup = make_base_setup()
    rows = pc.sweep(setup, "theta", np.linspace(0.3, 1.2, 4), averages="selfconsistent")
    rows += pc.sweep(setup, "temperature", [0.0, 0.1], theta=np.float64(0.8))
    for row in rows:
        for field in dataclasses.fields(row):
            value = getattr(row, field.name)
            if field.name in ("stable", "flags"):
                continue
            for x in value if isinstance(value, tuple) else (value,):
                assert type(x) is float, (field.name, type(x))
    result = pc.optimize_theta(setup, coarse_points=5, tol=1e-2)
    assert all(type(n) is float for n in result.occupations)


@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
@pytest.mark.parametrize("overrides", [
    {"rabi_freq": 1e300},  # the classical averages overflow
    {"cavity_freq": 1.7e308},  # the drive frequency overflows
    {"cavity_linewidth": 1e200},  # the sideband-rate denominators overflow
], ids=["averages", "drive", "rates"])
def test_overflowing_derived_values_give_error_rows(overrides, averages):
    row = pc.evaluate_point(make_base_setup(**overrides), 0.7, averages=averages)
    assert row.flags == ("error:ValidationError",)
    assert all(math.isnan(n) for n in row.n_numeric + row.n_analytic)


@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
def test_diffusion_norm_overflow_is_an_error_row_without_a_warning(averages):
    """||D||_F overflows (entries ~1e303, or ~1e160 at 1e157 K): the residual
    cannot be checked, so the point is a SolverError row, and no RuntimeWarning
    escapes (the suite turns warnings into errors)."""
    setup = make_base_setup()
    for temperature in (1e300, 1e157):
        row = pc.evaluate_point(setup, 0.7, temperature=temperature, averages=averages)
        assert row.flags == ("error:SolverError",)
        assert all(math.isnan(n) for n in row.n_numeric)
    with pytest.raises(SolverError, match="diffusion's norm overflows"):
        pc.steady_state(setup.working_point(0.7, temperature=1e300)[1])


@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
def test_temperature_sweep_through_a_norm_overflow_keeps_its_other_rows(averages):
    setup = make_base_setup()
    rows = pc.sweep(setup, "temperature", [0.01, 1e300, 0.1], theta=0.7, averages=averages)
    assert [row.flags for row in rows] == [(), ("error:SolverError",), ()]
    assert rows[0].n_numeric[0] < rows[2].n_numeric[0]


def test_selfconsistent_point_at_extreme_finite_inputs_is_a_row():
    """The scaled cubic keeps these finite: no raw LinAlgError, no RuntimeWarning."""
    setup = load_config("configs/two_mode_base.config").setup
    row = pc.evaluate_point(setup, 0.7, averages="selfconsistent", rabi=1e160)
    assert row.flags == ("unstable", "weak_coupling_broken")
    assert all(math.isnan(n) for n in row.n_numeric)
    mechs = tuple(dataclasses.replace(m, bare_coupling=1e300) for m in setup.mechanical_modes)
    row = pc.evaluate_point(dataclasses.replace(setup, mechanical_modes=mechs), 0.7,
                            averages="selfconsistent")
    assert row.flags == ("error:ValidationError",)


def numpy_scalar_twin(device):
    """``device`` with each of its own numbers, its mechanical modes' included,
    given as a numpy scalar."""
    modes = tuple(pc.MechanicalMode(*(np.float64(x) for x in dataclasses.astuple(m)))
                  for m in device.mechanical_modes)
    return dataclasses.replace(
        device, mechanical_modes=modes, cavity_freq=np.float64(device.cavity_freq),
        cavity_linewidth=np.float64(device.cavity_linewidth),
        matter_linewidths=tuple(np.float64(x) for x in device.matter_linewidths),
        bath_temperature=np.float64(device.bath_temperature),
        rabi_freq=np.float64(device.rabi_freq),
        couplings=tuple(np.float64(x) for x in device.couplings))


def test_a_device_tunes_once():
    device = three_mode_device()
    tuned = device.tuning
    row = pc.evaluate_point(device)
    assert device.tuning is tuned and row.drive_freq == tuned.drive_freq


def test_an_angle_tuned_device_has_no_tuning():
    device = load_config("configs/two_mode_base.config").setup
    message = "^tuning: needs a device with fixed couplings, this one is angle-tuned$"
    for _ in range(2):  # an error is not kept: each read raises it
        with pytest.raises(ValidationError, match=message):
            device.tuning


@pytest.mark.parametrize("overrides", ["none", "floats", "numpy scalars"])
@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
@pytest.mark.parametrize("device", ["pair", "numpy-scalar pair", "three-mode",
                                    "numpy-scalar three-mode"])
def test_a_clean_point_checks_only_its_own_inputs(monkeypatch, device, averages, overrides):
    # the angle goes through check_real, and an override that is not a plain
    # float; the device's fields were checked when it was built, and every
    # value the point derives (the tuning, the nodes, the rates) passes inline
    fixed = device.endswith("three-mode")
    setup = three_mode_device() if fixed else load_config("configs/two_mode_base.config").setup
    if device.startswith("numpy-scalar"):
        setup = numpy_scalar_twin(setup)  # kept as the floats check_real gives
    setup.working_point(0.7)  # a fixed-coupling device tunes and checks its nodes once
    kind = {"none": None, "floats": float, "numpy scalars": np.float64}[overrides]
    given = {} if kind is None else {"temperature": kind(0.02), "rabi": kind(0.5 * BASE_RABI)}
    calls = collections.Counter()

    def counted(path, *args, **kwargs):
        calls[path] += 1
        return errors.check_real(path, *args, **kwargs)

    for module in (analytics, dynamics, model_module, steadystate, tuning):
        monkeypatch.setattr(module, "check_real", counted)
    row = pc.evaluate_point(setup, 0.7, averages=averages, **given)
    assert row.stable and not row.flags
    own = [] if fixed else ["theta"]
    if kind is np.float64:  # named as the device's fields, whatever its kind
        own += ["rabi_freq", "bath_temperature"]
    assert calls == collections.Counter(own)


@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
@pytest.mark.parametrize("fixed", [False, True])
def test_a_numpy_scalar_device_sweeps_as_its_float_twin(fixed, averages):
    device = three_mode_device() if fixed else load_config("configs/two_mode_base.config").setup
    twin = numpy_scalar_twin(device)
    assert repr(twin) == repr(device)
    assert all(type(x) is float for m in twin.mechanical_modes for x in dataclasses.astuple(m))
    variable, grid = ("temperature", [0.0, 0.01, 0.3]) if fixed else ("theta", [0.2, 0.7, 1.4])
    assert (repr(pc.sweep(twin, variable, grid, averages=averages))
            == repr(pc.sweep(device, variable, grid, averages=averages)))


def test_sweep_flags_unstable_and_require_stable_raises():
    setup = make_base_setup()
    grid = [BASE_RABI, 50.0 * BASE_RABI]
    rows = pc.sweep(setup, "rabi", grid, theta=0.25 * math.pi)
    assert rows[0].stable
    assert not rows[1].stable
    assert "unstable" in rows[1].flags
    assert all(math.isnan(n) for n in rows[1].n_numeric)
    with pytest.raises(UnstableSystemError):
        pc.sweep(setup, "rabi", grid, theta=0.25 * math.pi, require_stable=True)


def test_require_stable_raises_for_unstable_rows_only():
    """A failed point is an ``error:`` row, also under require_stable; an unstable one raises."""
    setup = make_base_setup()
    # 2.0 lies outside (0, pi/2); the diffusion's norm overflows at 1e300 K
    for variable, bad in (("theta", 2.0), ("temperature", 1e300)):
        theta = None if variable == "theta" else 0.7
        good = 0.7 if variable == "theta" else 0.01
        rows = pc.sweep(setup, variable, [good, bad], theta=theta, require_stable=True)
        assert rows[0].stable and not rows[0].flags
        assert not rows[1].stable and rows[1].flags[0].startswith("error:")
    grid = [BASE_RABI, 1e300, 50.0 * BASE_RABI]  # ok, an error row, unstable
    rows = pc.sweep(setup, "rabi", grid, theta=0.25 * math.pi)
    assert [row.flags[:1] for row in rows] == [(), ("error:ValidationError",), ("unstable",)]
    with pytest.raises(UnstableSystemError, match=r"rabi=3\.9\d*e\+15 is unstable"):
        pc.sweep(setup, "rabi", grid, theta=0.25 * math.pi, require_stable=True)


def test_stronger_drive_cools_further_in_weak_coupling():
    setup = make_base_setup()
    grid = np.linspace(0.2, 1.5, 8) * BASE_RABI
    rows = pc.sweep(setup, "rabi", grid, theta=0.25 * math.pi)
    n1 = [row.n_numeric[0] for row in rows]
    n2 = [row.n_numeric[1] for row in rows]
    assert all(row.stable for row in rows)
    assert all(b < a for a, b in zip(n1, n1[1:]))
    assert all(b < a for a, b in zip(n2, n2[1:]))


# ---------------------------------------------------------------------------
# optimizer


def test_optimize_theta_deterministic_interior_minimum():
    setup = make_base_setup()
    first = pc.optimize_theta(setup, objective="max")
    second = pc.optimize_theta(setup, objective="max")
    assert first == second
    assert first.converged
    lo, hi = 1e-3, 0.5 * math.pi - 1e-3
    assert lo + 0.05 < first.theta < hi - 0.05
    assert first.value == pytest.approx(max(first.occupations), rel=1e-15)
    # the optimum beats a blunt grid scan of the same objective
    rows = pc.sweep(setup, "theta", np.linspace(0.1, 1.4, 27))
    assert first.value <= min(max(r.n_numeric) for r in rows) + 1e-12
    assert first.evaluations >= 33


def test_optimize_single_mode_objectives_differ():
    setup = make_base_setup()
    best1 = pc.optimize_theta(setup, objective="mode1")
    best2 = pc.optimize_theta(setup, objective="mode2")
    # mode 1 scatters through the lower polariton, matter-heavy at small
    # theta; mode 2 through the upper, matter-heavy at large theta. The
    # single-mode optima therefore sit on opposite sides of the window.
    assert best1.theta < best2.theta
    assert best1.occupations[0] < best2.occupations[0]
    assert best2.occupations[1] < best1.occupations[1]


def test_optimize_validations():
    setup = make_base_setup()
    with pytest.raises(ValidationError, match="objective"):
        pc.optimize_theta(setup, objective="sum")
    with pytest.raises(ValidationError, match="bounds"):
        pc.optimize_theta(setup, bounds=(0.5, 0.2))
    with pytest.raises(ValidationError, match="coarse_points"):
        pc.optimize_theta(setup, coarse_points=2)
    for bad_points in (3.5, True):
        with pytest.raises(ValidationError, match="coarse_points"):
            pc.optimize_theta(setup, coarse_points=bad_points)
    # the step halves towards 0.0, so only a positive floor ends the refinement
    for bad_tol in (-1e-6, 0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="tol"):
            pc.optimize_theta(setup, tol=bad_tol)
    # non-numbers and a short bounds pair used to raise raw TypeError/ValueError
    with pytest.raises(ValidationError, match="^tol: expected a number"):
        pc.optimize_theta(setup, tol="x")
    with pytest.raises(ValidationError, match="^bounds: expected a"):
        pc.optimize_theta(setup, bounds=(0.1,))
    with pytest.raises(ValidationError, match=r"^bounds\[1\]: must be finite"):
        pc.optimize_theta(setup, bounds=(0.1, math.nan))
    # overrides are checked once, not turned into 60 inf-scored points
    with pytest.raises(ValidationError, match="^temperature: "):
        pc.optimize_theta(setup, temperature=math.nan)
    with pytest.raises(ValidationError, match="^rabi: "):
        pc.optimize_theta(setup, rabi=-1.0)
    # so is the averages mode, which scored every angle +inf when misspelled
    for bad in ("selfconsistant", None):
        with pytest.raises(ValidationError, match=(
                "^averages: expected 'approx' or 'selfconsistent', got " + re.escape(repr(bad)))):
            pc.optimize_theta(setup, averages=bad)
    # a sweep point keeps its error row
    row = pc.evaluate_point(setup, 0.7, averages="selfconsistant")
    assert row.flags == ("error:ValidationError",)


# ---------------------------------------------------------------------------
# N-mode tuning


def three_mode_inputs():
    return dict(
        cavity_freq=TWO_PI * 1.0e10,
        mech_freqs=[TWO_PI * 1.0e7, TWO_PI * 2.0e7, TWO_PI * 3.5e7],
        couplings=[TWO_PI * 7.0e6, TWO_PI * 9.0e6],
        cavity_linewidth=TWO_PI * 1.0e6,
        matter_linewidths=[TWO_PI * 1.0e6, TWO_PI * 1.0e6],
    )


def test_tune_n_mode_places_every_sideband():
    tuned = pc.tune_n_mode(**three_mode_inputs())
    assert tuned.converged
    mech = three_mode_inputs()["mech_freqs"]
    assert tuned.residual <= 1e-6 * mech[-1]
    for pol, target in zip(tuned.polaritons, mech):
        assert pol.freq - tuned.drive_freq == pytest.approx(target, rel=1e-9)
    assert tuned.matter_freqs == tuple(sorted(tuned.matter_freqs))
    # residuals sum to zero by the trace identity, so the mean is exact
    # up to the round-off of the GHz-scale polariton sums
    detunings = [p.freq - tuned.drive_freq for p in tuned.polaritons]
    assert sum(detunings) == pytest.approx(sum(mech), rel=1e-12)


def test_tune_n_mode_validations():
    inputs = three_mode_inputs()
    with pytest.raises(ValidationError, match="two mechanical"):
        pc.tune_n_mode(**{**inputs, "mech_freqs": [TWO_PI * 1e7],
                          "couplings": [], "matter_linewidths": []})
    with pytest.raises(ValidationError, match="increasing"):
        pc.tune_n_mode(**{**inputs, "mech_freqs": list(reversed(inputs["mech_freqs"]))})
    with pytest.raises(ValidationError, match="entries"):
        pc.tune_n_mode(**{**inputs, "couplings": [TWO_PI * 7e6]})
    with pytest.raises(ValidationError, match="initial_guess"):
        pc.tune_n_mode(**inputs, initial_guess=[1.0, 2.0, 3.0])
    # NaN used to surface as scipy's raw ValueError, a string as a float() error
    with pytest.raises(ValidationError, match="^cavity_freq: must be finite"):
        pc.tune_n_mode(**{**inputs, "cavity_freq": math.nan})
    with pytest.raises(ValidationError, match=r"^mech_freqs\[1\]: expected a number"):
        pc.tune_n_mode(**{**inputs, "mech_freqs": [1e7, "2e7", 3e7]})
    with pytest.raises(ValidationError, match=r"^couplings\[0\]: must be finite"):
        pc.tune_n_mode(**{**inputs, "couplings": [0.0, TWO_PI * 9e6]})
    with pytest.raises(ValidationError, match=r"^initial_guess\[1\]: expected a number"):
        pc.tune_n_mode(**inputs, initial_guess=[1.0, "abc"])


def three_mode_device():
    inputs = three_mode_inputs()
    return pc.Device(
        cavity_freq=inputs["cavity_freq"],
        cavity_linewidth=inputs["cavity_linewidth"],
        matter_linewidths=inputs["matter_linewidths"],
        mechanical_modes=make_mechs(freq_hz=(1.0e7, 2.0e7, 3.5e7)),
        bath_temperature=0.01,
        rabi_freq=BASE_RABI,
        couplings=inputs["couplings"],
    )


def test_polariton_network_cools_all_three_modes():
    device = three_mode_device()
    tuned, model = device.working_point()
    assert tuned is device.tuning  # tuned once per device
    assert tuned == pc.tune_n_mode(**three_mode_inputs())
    state = pc.steady_state(model)
    assert state.stable
    for j, mech in enumerate(device.mechanical_modes):
        nbar = pc.thermal_occupation(mech.freq, 0.01)
        assert state.occupations[3 + j] < nbar


def test_unconverged_tuning_is_flagged():
    device = dataclasses.replace(load_config("configs/three_mode.config").setup,
                                 couplings=(TWO_PI * 7e6, TWO_PI * 1e5))
    assert not device.tuning.converged
    assert device.tuning.residual > TWO_PI * 1e6
    for averages in ("approx", "selfconsistent"):
        row = pc.evaluate_point(device, averages=averages)
        assert row.flags == ("tuning_not_converged",)
        assert all(math.isfinite(n) for n in row.n_numeric)
        (swept,) = pc.sweep(device, "temperature", [0.01], averages=averages)
        assert swept.flags == row.flags
    # a converged tuning adds nothing
    assert pc.evaluate_point(three_mode_device()).flags == ()


def test_polariton_network_keeps_dissipative_cross_coupling():
    """One matter mode with kappa_m != kappa_a: a fixed-coupling device is the angle-tuned one.

    Fixing the coupling that the angle sets, the numeric tuning finds the
    same magnon and drive frequencies. The network orders its nodes
    (lower, upper), the two-mode model (upper, lower); after that
    permutation drift, diffusion and occupations must agree, which needs the
    shared-loss cross damping delta-kappa.
    """
    angle_tuned = make_base_setup(magnon_linewidth=TWO_PI * 4.0e6)
    (coupling, magnon_freq, drive_freq), _ = angle_tuned.working_point(0.6)
    fixed = dataclasses.replace(angle_tuned, couplings=(coupling,))
    assert fixed.tuning.converged
    assert fixed.tuning.matter_freqs[0] == pytest.approx(magnon_freq, rel=1e-14)
    assert fixed.tuning.drive_freq == pytest.approx(drive_freq, rel=1e-14)
    perm = [2, 3, 0, 1, 4, 5, 6, 7]
    for mode in ("approx", "selfconsistent"):
        _, two_mode = angle_tuned.working_point(0.6, mode=mode)
        assert two_mode.drift[0, 2] != 0.0
        _, network = fixed.working_point(mode=mode)
        drift = network.drift[np.ix_(perm, perm)]
        diffusion = network.diffusion[np.ix_(perm, perm)]
        assert np.abs(drift - two_mode.drift).max() <= 1e-12 * np.abs(two_mode.drift).max()
        assert np.abs(diffusion - two_mode.diffusion).max() \
            <= 1e-12 * np.abs(two_mode.diffusion).max()
        occ_network = pc.steady_state(network).occupations
        occ_network = (occ_network[1], occ_network[0]) + occ_network[2:]
        occ_two_mode = pc.steady_state(two_mode).occupations
        assert occ_network == pytest.approx(occ_two_mode, rel=1e-9)


@pytest.mark.parametrize("n", [7, 8])
def test_a_default_guess_that_misses_ends_not_converged(n):
    # exact tunings exist (below); from the default guess N = 8's search left
    # the domain and raised a ValidationError naming one of its iterates
    device, _ = design(n)
    assert not device.tuning.converged
    assert all(f > 0.0 for f in device.tuning.matter_freqs)
    assert "tuning_not_converged" in pc.evaluate_point(device).flags


@pytest.mark.parametrize("n", range(2, 9))
def test_the_designed_family_converges_from_its_design(n):
    device, matter = design(n)
    tuned = pc.tune_n_mode(device.cavity_freq, [m.freq for m in device.mechanical_modes],
                           device.couplings, device.cavity_linewidth, device.matter_linewidths,
                           initial_guess=matter)
    assert tuned.converged
    assert tuned.matter_freqs == pytest.approx(matter, rel=1e-9)  # the designed tuning


def test_an_initial_guess_outside_the_domain_raises():
    with pytest.raises(ValidationError, match=r"^matter_modes\[0\]\.freq: must be finite"):
        pc.tune_n_mode(**three_mode_inputs(), initial_guess=[-1.0, TWO_PI * 1e10])


# ---------------------------------------------------------------------------
# one matrix check per working point


@pytest.fixture
def check_counts(monkeypatch):
    """Calls of the two matrix checks, under every name a polarcool module binds them to."""
    counts = collections.Counter()
    for name in ("check_drift_diffusion", "check_matrix"):
        original = getattr(errors, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in (errors, dynamics, steadystate):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("device, averages", [
    (make_base_setup(), "approx"),
    (make_base_setup(), "selfconsistent"),
    (three_mode_device(), "approx"),
])
def test_a_working_point_checks_its_matrices_once(check_counts, device, averages):
    row = pc.evaluate_point(device, 0.7, averages=averages)
    assert row.stable and not row.flags
    # a one-point stack whose values are finite passes without a matrix check
    assert not check_counts
    _, model = device.working_point(0.7, mode=averages)
    # the model's construction: one pair check, i.e. one check per matrix
    assert check_counts == {"check_drift_diffusion": 1, "check_matrix": 2}
    check_counts.clear()
    pc.steady_state(model)
    pc.network_cooling(model)
    assert not check_counts


def test_solve_lyapunov_checks_its_arrays_once(check_counts):
    _, model = make_base_setup().working_point(0.7)
    check_counts.clear()
    pc.solve_lyapunov(model.drift, model.diffusion)
    assert check_counts == {"check_drift_diffusion": 1, "check_matrix": 2}


# ---------------------------------------------------------------------------
# a sweep's points as one stack


def bits(values) -> tuple:
    """Floats as hex strings: equal exactly when the floats are, NaN matching NaN."""
    return tuple(float.hex(float(x)) for x in values)


def row_bits(row: pc.SweepRow) -> tuple:
    return (float.hex(row.variable), float.hex(row.theta), float.hex(row.coupling),
            float.hex(row.magnon_freq), float.hex(row.drive_freq), bits(row.kappa_eff),
            bits(row.n_analytic), bits(row.n_numeric), row.stable, row.flags)


def one_point_bits(device, theta=None, temperature=None, rabi=None, averages="approx"):
    """(kappa_eff, n_analytic, n_numeric, stable, flags) from the one-point API:
    ``Device.working_point``, then ``network_cooling`` and ``steady_state`` on its
    LinearModel, the flags formed here in their documented order."""
    fixed = bool(device.couplings)
    nans = (math.nan,) * len(device.mechanical_modes)
    try:
        tuning_, model = device.working_point(theta, temperature, rabi, averages)
        rates = pc.network_cooling(model)
        state = pc.steady_state(model, require_stable=False)
    except (ValidationError, SolverError) as exc:
        return bits(nans), bits(nans), bits(nans), False, (f"error:{type(exc).__name__}",)
    flags = tuple(flag for flag, on in (
        ("unstable", not state.stable), ("ill_conditioned", state.condition_flag),
        ("weak_coupling_broken", not all(r.weak_coupling for r in rates)),
        ("tuning_not_converged", fixed and not tuning_.converged)) if on)
    n_numeric = state.occupations[-len(rates):]  # the mechanical modes come last
    return (bits(r.kappa_eff for r in rates), bits(r.n_eff for r in rates), bits(n_numeric),
            state.stable, flags)


MECH_HZ = (1.0e7, 2.0e7, 3.5e7, 5.0e7)
# in units of the base drive: weak, up to the instability edge, and well past it
DRIVES = st.sampled_from([0.0, 60.0]) | st.floats(0.0, 2.0) | st.floats(2.0, 60.0)


@st.composite
def devices(draw):
    """An angle-tuned base device or a fixed-coupling one with N = 2..4 modes, at a
    temperature in [0, 1] K and a drive from zero to well past the instability edge."""
    temperature = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rabi = BASE_RABI * draw(DRIVES)
    n = draw(st.sampled_from(["angle-tuned", 2, 3, 4]))
    if n == "angle-tuned":
        return make_base_setup(magnon_linewidth=TWO_PI * draw(st.floats(0.3e6, 4.0e6)),
                               bath_temperature=temperature, rabi_freq=rabi)
    return pc.Device(
        cavity_freq=TWO_PI * 1.0e10,
        cavity_linewidth=TWO_PI * 1.0e6,
        matter_linewidths=tuple(TWO_PI * draw(st.floats(0.5e6, 2.0e6)) for _ in range(n - 1)),
        mechanical_modes=make_mechs(freq_hz=MECH_HZ[:n]),
        bath_temperature=temperature,
        rabi_freq=rabi,
        couplings=tuple(TWO_PI * draw(st.floats(4.0e6, 12.0e6)) for _ in range(n - 1)),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(device=devices(), averages=st.sampled_from(["approx", "selfconsistent"]),
       data=st.data())
def test_sweep_rows_equal_the_one_point_api(device, averages, data):
    variables = ["temperature", "rabi"] + ([] if device.couplings else ["theta"] * 2)
    variable = data.draw(st.sampled_from(variables))
    if variable == "theta":
        # 2.0 lies outside (0, pi/2): an error row
        values = st.sampled_from([1e-3, 0.5 * math.pi - 1e-3, 2.0]) | st.floats(0.01, 1.56)
    elif variable == "temperature":
        values = st.floats(0.0, 1.0)
    else:
        values = DRIVES.map(lambda x: x * BASE_RABI)
    grid = data.draw(st.lists(values, min_size=1, max_size=5))
    theta = None if device.couplings or variable == "theta" else data.draw(st.floats(0.05, 1.5))
    rows = pc.sweep(device, variable, grid, theta=theta, averages=averages)
    for value, row in zip(grid, rows):
        point = {"theta": theta, "temperature": None, "rabi": None, variable: value}
        assert row.variable == value
        assert (bits(row.kappa_eff), bits(row.n_analytic), bits(row.n_numeric), row.stable,
                row.flags) == one_point_bits(device, averages=averages, **point)


def inject(monkeypatch, stage: str, model: pc.LinearModel) -> None:
    """Make the sweep's stage ``stage`` fail for the point of ``model``; stages
    joined by ``+`` all fail for it.

    ``rates`` raises from ``_rates(values, n_p, n_m)``, as a sweep row and a
    report's ``network_cooling`` call it, and ``solve`` makes
    ``_solve(drifts, diffusions)`` return a SolverError for that point in a sweep,
    and ``_solve_point(drift, diffusion)`` raise it in a report's
    ``steady_state``; ``residual``
    doubles the point's triangular Sylvester solution, so its covariance fails
    the stacked residual check; ``occupations`` raises a SolverError from the
    occupation read of the point's covariance diagonal.
    """
    if "+" in stage:
        for one in stage.split("+"):
            inject(monkeypatch, one, model)
    elif stage == "rates":
        original, marked = tuning._rates, dynamics._values(model, 2, 2)

        def failing(values, n_p, n_m):
            if values == marked:
                raise ValidationError("_rates: injected")
            return original(values, n_p, n_m)

        monkeypatch.setattr(tuning, "_rates", failing)
        monkeypatch.setattr(analytics, "_rates", failing)
    elif stage == "solve":
        original, original_point = tuning._solve, steadystate._solve_point

        def failing(drifts, diffusions):
            return [SolverError("_solve: injected") if np.array_equal(d, model.diffusion)
                    else result for d, result in zip(diffusions, original(drifts, diffusions))]

        def failing_point(drift, diffusion):
            if np.array_equal(diffusion, model.diffusion):
                raise SolverError("_solve: injected")
            return original_point(drift, diffusion)

        monkeypatch.setattr(tuning, "_solve", failing)
        monkeypatch.setattr(steadystate, "_solve_point", failing_point)
    elif stage == "occupations":
        original = tuning._occupations
        marked = pc.steady_state(model).covariance.diagonal().tolist()

        def failing(diag):
            if diag == marked:
                raise SolverError("_occupations: injected")
            return original(diag)

        monkeypatch.setattr(tuning, "_occupations", failing)
    else:
        t, z = schur(model.drift)[:2]
        marked, original = z.T.dot((-model.diffusion).dot(z)), steadystate.dtrsyl

        def wrong(a, b, c, **kwargs):
            y, scale, status = original(a, b, c, **kwargs)
            return (2.0 * y if np.array_equal(c, marked) else y), scale, status

        monkeypatch.setattr(steadystate, "dtrsyl", wrong)


@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
@pytest.mark.parametrize("stage, variable, bad, error", [
    ("build", "theta", 2.5, "ValidationError"),  # the angle is out of range
    ("build", "rabi", 1e300, "ValidationError"),  # the averages overflow
    ("matrix check", "temperature", 1.7e308, "ValidationError"),  # the diffusion is infinite
    ("rates", "temperature", 0.3, "ValidationError"),
    ("solve", "temperature", 0.3, "SolverError"),
    ("residual", "temperature", 0.3, "SolverError"),  # fails the stacked residual check
    ("occupations", "temperature", 0.3, "SolverError"),
    ("rates+solve", "temperature", 0.3, "ValidationError"),  # the rates' error comes first
])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_one_failing_point_leaves_the_others_bit_identical(
        monkeypatch, check_counts, averages, stage, variable, bad, error, position):
    setup = make_base_setup()
    grid = {"theta": [0.3, 0.6, 0.9, 1.2], "rabi": [0.5 * BASE_RABI, BASE_RABI, 3.0 * BASE_RABI,
                                                     5.0 * BASE_RABI],
            "temperature": [0.0, 0.01, 0.1, 1.0]}[variable]
    theta = None if variable == "theta" else 0.7
    clean = pc.sweep(setup, variable, grid, theta=theta, averages=averages)
    if stage not in ("build", "matrix check"):
        _, model = setup.working_point(theta, temperature=bad, mode=averages)
        inject(monkeypatch, stage, model)
    check_counts.clear()
    rows = pc.sweep(setup, variable, grid[:position] + [bad] + grid[position:], theta=theta,
                    averages=averages)
    failed = rows[position]
    assert failed.flags == (f"error:{error}",) and not failed.stable
    assert failed.variable == bad
    assert all(math.isnan(x) for x in failed.kappa_eff + failed.n_analytic + failed.n_numeric)
    others = rows[:position] + rows[position + 1:]
    assert [row_bits(row) for row in others] == [row_bits(row) for row in clean]
    # only the point whose values are not all finite has its matrices checked
    point_checks = 1 if stage == "matrix check" else 0
    assert check_counts["check_drift_diffusion"] == point_checks


def test_an_ill_conditioned_solve_is_flagged_in_order(monkeypatch, tmp_path):
    assert tuning._flags(None, stable=False, ill_conditioned=True, weak_coupling=False) == (
        "unstable", "ill_conditioned", "weak_coupling_broken")
    setup, grid = make_base_setup(), [x * BASE_RABI for x in (0.0, 1.0, 3.0, 40.0)]
    clean = pc.sweep(setup, "rabi", grid, theta=0.7, averages="selfconsistent")
    monkeypatch.setattr(steadystate, "CONDITION_LIMIT", 0.0)  # every proxy exceeds it
    rows = pc.sweep(setup, "rabi", grid, theta=0.7, averages="selfconsistent")
    assert [row.flags for row in rows] == [
        ("ill_conditioned",), ("ill_conditioned",),
        ("ill_conditioned", "weak_coupling_broken"), ("unstable", "weak_coupling_broken")]
    assert [row_bits(row) for row in rows] == [
        row_bits(dataclasses.replace(row, flags=new.flags)) for row, new in zip(clean, rows)]
    out = tmp_path / "sweep.csv"
    write_csv(rows, str(out))
    flags = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
    assert flags == ["ill_conditioned", "ill_conditioned", "ill_conditioned;weak_coupling_broken",
                     "unstable;weak_coupling_broken"]
    _, model = setup.working_point(0.7, rabi=grid[2], mode="selfconsistent")
    assert pc.steady_state(model).condition_flag
    assert pc.solve_lyapunov(model.drift, model.diffusion)[2]


@pytest.mark.parametrize("command", ["simulate", "rates"])
def test_a_report_whose_point_fails_rates_and_solve_gives_the_rates_error(
        monkeypatch, capsys, command):
    config = "configs/two_mode_base.config"
    cfg = load_config(config)
    _, model = cfg.setup.working_point(cfg.theta, mode=cfg.averages)
    with monkeypatch.context() as solve_only:  # the injected solve fails simulate's point
        inject(solve_only, "solve", model)
        assert main([command, "--config", config]) == (2 if command == "simulate" else 0)
    capsys.readouterr()
    inject(monkeypatch, "rates+solve", model)
    assert main([command, "--config", config]) == 1
    assert capsys.readouterr() == ("", "error: _rates: injected\n")


def test_a_drift_whose_norm_overflows_is_a_solver_error():
    # ||R||_F overflows while every entry is finite: the margin 1e-9 ||R||_F
    # would be infinite and call any such drift unstable
    drift = np.diag([-1e160, -1.0])
    overflow = "^drift: its norm overflows"
    with pytest.raises(SolverError, match=overflow):
        pc.check_stability(drift)
    with pytest.raises(SolverError, match=overflow):
        pc.solve_lyapunov(drift, np.eye(2))
    # a drive of 1e162 rad/s puts couplings near 1e154 into the base device's drift
    setup, huge = make_base_setup(), 1e162
    _, model = setup.working_point(0.7, rabi=huge)
    assert np.isfinite(model.drift).all()
    with pytest.raises(SolverError, match=overflow):
        pc.steady_state(model)
    grid = [0.5 * BASE_RABI, BASE_RABI, 3.0 * BASE_RABI]
    clean = pc.sweep(setup, "rabi", grid, theta=0.7)
    rows = pc.sweep(setup, "rabi", grid[:1] + [huge] + grid[1:], theta=0.7)
    assert rows[1].flags == ("error:SolverError",) and not rows[1].stable
    assert [row_bits(row) for row in rows[:1] + rows[2:]] == [row_bits(row) for row in clean]


@pytest.fixture
def call_counts(monkeypatch):
    """Calls of dgees and dtrsyl, of the stacked norm pass ``_fros``, of ``np.matmul``
    in the solver, of the two model classes' construction and of the stack path."""
    counts = collections.Counter()

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    class SolverNumpy:
        """numpy as the solver module sees it; only ``matmul`` is counted."""

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(steadystate, "np", SolverNumpy())
    counting(steadystate.np, "matmul", "matmul")
    counting(steadystate, "dgees", "dgees")
    counting(steadystate, "dtrsyl", "dtrsyl")
    counting(steadystate, "_fros", "norm passes")
    counting(steadystate, "SteadyState", "SteadyState")
    counting(dynamics.LinearModel, "__post_init__", "LinearModel")
    counting(tuning, "_rows", "stacks")
    return counts


@pytest.mark.parametrize("device, variable", [
    (make_base_setup(), "theta"),
    (make_base_setup(), "temperature"),
    (three_mode_device(), "rabi"),
])
@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
def test_a_sweep_checks_one_stack_and_factors_each_point_once(
        monkeypatch, check_counts, call_counts, device, variable, averages):
    grid = {"theta": np.linspace(0.2, 1.4, 9), "temperature": np.linspace(0.0, 1.0, 9),
            "rabi": np.linspace(0.2, 2.0, 9) * BASE_RABI}[variable]
    theta = 0.7 if variable != "theta" and not device.couplings else None
    monkeypatch.setattr(steadystate, "_DGEES_LWORK", {})
    rows = pc.sweep(device, variable, grid, theta=theta, averages=averages)
    assert all(row.stable for row in rows)
    # the stack's values are finite, which is the matrix check's verdict
    assert not check_counts
    # one factorization and one triangular solve per point, plus one workspace
    # query on an empty cache, and two norm passes per stack, of the drifts and
    # of the solves' checks; the products are stacked, so their count does not
    # grow with the points
    counts = dict(call_counts)
    products = counts.pop("matmul")
    assert counts == {"dgees": len(grid) + 1, "dtrsyl": len(grid), "norm passes": 2,
                      "stacks": 1}
    call_counts.clear()
    pc.sweep(device, variable, grid, theta=theta, averages=averages)
    assert call_counts == {"dgees": len(grid), "dtrsyl": len(grid), "norm passes": 2,
                           "stacks": 1, "matmul": products}
    call_counts.clear()
    pc.sweep(device, variable, grid[:3], theta=theta, averages=averages)
    assert call_counts == {"dgees": 3, "dtrsyl": 3, "norm passes": 2, "stacks": 1,
                           "matmul": products}
    # two points are solved one by one: no norm pass and no stacked product
    call_counts.clear()
    pc.sweep(device, variable, grid[:2], theta=theta, averages=averages)
    assert call_counts == {"dgees": 2, "dtrsyl": 2, "stacks": 1}


def test_optimize_scores_its_grid_and_each_step_as_one_stack(call_counts, monkeypatch):
    sizes = []
    original = tuning._stages

    def recorded(setup, points, averages):
        sizes.append([theta for theta, _, _ in points])
        return original(setup, points, averages)

    monkeypatch.setattr(tuning, "_stages", recorded)
    monkeypatch.setattr(steadystate, "_DGEES_LWORK", {})
    # the score is the solve's alone: no closed-form rates and no sweep row
    for owner, name, key in ((tuning, "_rates", "rates"), (tuning.SweepRow, "__init__", "rows")):
        def counted(*args, _original=getattr(owner, name), _key=key, **kwargs):
            call_counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    result = pc.optimize_theta(make_base_setup(), coarse_points=17, tol=1e-4)
    assert result.converged
    assert len(sizes[0]) == 17  # the coarse grid
    assert all(len(thetas) in (1, 2) for thetas in sizes[1:])  # one compass step each
    scored = [theta for thetas in sizes for theta in thetas]
    assert len(scored) == len(set(scored)) == result.evaluations  # no angle twice
    assert call_counts["rates"] == call_counts["rows"] == call_counts["stacks"] == 0
    assert call_counts["LinearModel"] == 0 and call_counts["SteadyState"] == 0
    assert call_counts["dgees"] == result.evaluations + 1  # and one workspace query
    # two per stack of three or more points (the grid); a compass step's one or
    # two points are solved one by one, with no norm pass
    assert call_counts["norm passes"] == 2 * sum(len(thetas) > 2 for thetas in sizes) == 2


def test_stages_run_stacks_of_at_most_the_stack_bound(monkeypatch):
    setup = make_base_setup()
    grid = [0.2, 0.4, 0.6, 0.8, 2.0, 1.0, 1.2]  # the fifth angle is out of range: a build error
    rows, optimized = pc.sweep(setup, "theta", grid), pc.optimize_theta(setup, coarse_points=7)
    assert rows[4].flags == ("error:ValidationError",)
    sizes, original = [], tuning._solve

    def recorded(drift, diffusion):
        sizes.append(len(drift))
        return original(drift, diffusion)

    monkeypatch.setattr(tuning, "_solve", recorded)
    monkeypatch.setattr(tuning, "_STACK_POINTS", 3)
    assert repr(pc.sweep(setup, "theta", grid)) == repr(rows)
    assert sizes == [3, 2, 1]  # the build error leaves two points of the second stack
    sizes.clear()
    assert repr(pc.optimize_theta(setup, coarse_points=7)) == repr(optimized)
    assert sizes[:3] == [3, 3, 1]  # the coarse grid; then one stack per compass step
    assert all(size in (1, 2) for size in sizes[3:])


@pytest.mark.parametrize("config, pairs", [("configs/two_mode_base.config", 2 * 2),
                                           ("configs/three_mode.config", 3 * 3)])
def test_a_report_forms_each_sideband_rate_once(monkeypatch, config, pairs):
    # one (Stokes, anti-Stokes) pair per polariton and mechanical mode
    calls, original = [], analytics._sideband_rates

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analytics, "_sideband_rates", counted)
    assert main(["rates", "--config", config]) == 0
    assert len(calls) == pairs


@pytest.mark.parametrize("config", ["configs/two_mode_base.config", "configs/three_mode.config"])
def test_the_rates_report_solves_nothing(monkeypatch, capsys, config):
    # the rates report prints no solve, so it runs none: no stack and no one point
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def call(drift, diffusion):
            calls.append(name)
            return original(drift, diffusion)

        monkeypatch.setattr(owner, name, call)

    counted(tuning, "_solve")
    counted(steadystate, "_solve_point")
    assert main(["rates", "--config", config]) == 0
    assert capsys.readouterr().out.startswith("scattering rates")
    assert calls == []


@pytest.mark.parametrize("temperature, rabi", [
    (None, None), (0.0, None), (0.3, None),
    (None, 20.0 * BASE_RABI),  # part of the coarse grid is unstable in both modes
])
@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
@pytest.mark.parametrize("objective", tuning.OPTIMIZE_OBJECTIVES)
def test_optimize_scores_as_the_sweep_rows_do(objective, averages, temperature, rabi):
    setup = make_base_setup()
    result = pc.optimize_theta(setup, objective, temperature, rabi, averages)
    assert repr(result) == repr(optimize_by_rows(setup, objective, temperature, rabi, averages))
    if rabi is not None:
        grid = np.linspace(1e-3, 0.5 * math.pi - 1e-3, 33)
        stable = [pc.evaluate_point(setup, t, temperature, rabi, averages).stable for t in grid]
        assert any(stable) and not all(stable)


# ---------------------------------------------------------------------------
# the float core of a working point


@st.composite
def angle_tuned_points(draw):
    """An angle-tuned device with bare linewidths of 0.3-4 MHz and up to four of its
    working points: angles near both ends of (0, pi/2), temperatures from zero and
    drives from zero to 60 times the base drive."""
    linewidth = st.floats(0.3e6, 4.0e6).map(lambda hz: TWO_PI * hz)
    device = make_base_setup(magnon_linewidth=draw(linewidth),
                             cavity_linewidth=draw(linewidth))
    thetas = st.sampled_from([1e-3, 0.5 * math.pi - 1e-3]) | st.floats(1e-3, 0.5 * math.pi - 1e-3)
    temperatures = st.sampled_from([0.0]) | st.floats(0.0, 1.0)
    points = draw(st.lists(st.tuples(thetas, temperatures, DRIVES.map(lambda x: x * BASE_RABI)),
                           min_size=1, max_size=4))
    return device, points


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(angle_tuned_points(), st.sampled_from(["approx", "selfconsistent"]))
def test_the_pair_core_fills_the_oracles_entries_bit_for_bit(drawn, averages):
    """A sweep stack of the pair, built from plain floats, against the drift and
    diffusion filled entry by entry from the closed-form tuning written out here
    and the pair's normal modes, whose nodes carry the weights sin and cos theta;
    the effective couplings come from build_network of those nodes."""
    device, points = drawn
    values, wanted = [], []
    for theta, temperature, rabi in points:
        try:
            values.append(device._fields(theta, temperature, rabi, averages)[1])
        except (ValidationError, SolverError) as exc:
            with pytest.raises(type(exc)) as again:
                device.working_point(theta, temperature, rabi, averages)
            assert str(again.value) == str(exc)
            continue
        # targets omega_1 < omega_2, S = omega_2 - omega_1: g = (S/2) sin(2 theta),
        # omega_m = omega_a - S cos(2 theta), omega_0 = (omega_a + omega_m - omega_1 - omega_2)/2
        lower, upper = (m.freq for m in device.mechanical_modes)
        split = upper - lower
        coupling = 0.5 * split * math.sin(2.0 * theta)
        magnon_freq = device.cavity_freq - split * math.cos(2.0 * theta)
        drive_freq = 0.5 * (device.cavity_freq + magnon_freq) - 0.5 * (upper + lower)
        angle, up_freq, low_freq, kappa_u, kappa_l, dk, det_u, det_l = tuning._pair(
            device.cavity_freq, magnon_freq, coupling, device.cavity_linewidth,
            device.matter_linewidths[0], drive_freq)
        s, c = math.sin(angle), math.cos(angle)
        nodes = [pc.NetworkPolariton(up_freq, kappa_u, s, det_u),
                 pc.NetworkPolariton(low_freq, kappa_l, c, det_l)]
        drive = pc.NetworkDrive(drive_freq, rabi, temperature)
        cross = [[0.0, dk], [dk, 0.0]]
        couplings = pc.build_network(nodes, device.mechanical_modes, drive, cross,
                                     averages).averages.effective_couplings
        wanted.append(assemble_network(nodes, device.mechanical_modes, drive, cross, couplings))
    if not values:
        return
    _, drift, diffusion = dynamics._stack(2, 2, values)
    for p, (want_r, want_d) in enumerate(wanted):
        assert drift[p].tobytes() == want_r.tobytes()
        assert diffusion[p].tobytes() == want_d.tobytes()


LOW_CAVITY = TWO_PI * 1.5e7  # between the mechanical modes: the tuned drive goes negative

# the messages of every failure that depends on the working point, as the
# one-point API words them
POINT_FAILURES = [
    ({}, {"theta": 0.0},
     "theta: must be finite and strictly positive and < 1.5707963267948966, got 0.0"),
    ({}, {"theta": -0.1},
     "theta: must be finite and strictly positive and < 1.5707963267948966, got -0.1"),
    ({}, {"theta": 0.5 * math.pi}, "theta: must be finite and strictly positive and"
     " < 1.5707963267948966, got 1.5707963267948966"),
    ({}, {"theta": math.nan},
     "theta: must be finite and strictly positive and < 1.5707963267948966, got nan"),
    ({}, {"theta": True}, "theta: expected a number, got True"),
    ({}, {"theta": 0.7, "temperature": -1.0},
     "bath_temperature: must be finite and non-negative, got -1.0"),
    ({}, {"theta": 0.7, "temperature": "cold"}, "bath_temperature: expected a number, got 'cold'"),
    ({}, {"theta": 0.7, "rabi": -1.0}, "rabi_freq: must be finite and non-negative, got -1.0"),
    ({}, {"theta": 0.7, "rabi": "abc"}, "rabi_freq: expected a number, got 'abc'"),
    ({"cavity_freq": LOW_CAVITY}, {"theta": 0.7},
     "drive_freq: must be finite and strictly positive, got -42095277.08563882"),
    # the tuned values come before the overrides
    ({"cavity_freq": LOW_CAVITY}, {"theta": 0.7, "rabi": -1.0},
     "drive_freq: must be finite and strictly positive, got -42095277.08563882"),
    ({"cavity_freq": LOW_CAVITY}, {"theta": 0.3},
     "magnon_freq: must be finite and strictly positive, got -9466952.574156597"),
]


@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
@pytest.mark.parametrize("device, point, message", POINT_FAILURES)
def test_a_point_dependent_failure_keeps_its_row_and_message(device, point, message, averages):
    setup = make_base_setup(**device)
    row = pc.evaluate_point(setup, averages=averages, **point)
    assert row.flags == ("error:ValidationError",) and not row.stable
    with pytest.raises(ValidationError) as exc:
        setup.working_point(mode=averages, **point)
    assert str(exc.value) == message


@pytest.mark.parametrize("point, message", [
    ({"temperature": -1.0}, "bath_temperature: must be finite and non-negative, got -1.0"),
    ({"temperature": math.nan}, "bath_temperature: must be finite and non-negative, got nan"),
    ({"rabi": "abc"}, "rabi_freq: expected a number, got 'abc'"),
    ({"mode": "exact"}, "mode: expected 'approx' or 'selfconsistent', got 'exact'"),
])
def test_a_fixed_coupling_point_keeps_its_row_and_message(point, message):
    device = three_mode_device()
    mode = point.pop("mode", "approx")
    assert pc.evaluate_point(device, averages=mode, **point).flags == ("error:ValidationError",)
    with pytest.raises(ValidationError) as exc:
        device.working_point(mode=mode, **point)
    assert str(exc.value) == message


def resonant_pair():
    """An angle-tuned device whose lower polariton sits on the drive at theta = pi/4:
    every tuned value is a small integer, and the lower mechanical frequency, 1e-300,
    is lost next to them, so the lower detuning it sets is exactly 0.0."""
    mechs = (pc.MechanicalMode(1e-300, 1.0, 1.0), pc.MechanicalMode(2.0, 1.0, 1.0))
    return pc.Device(cavity_freq=4.0, cavity_linewidth=1.0, matter_linewidths=(1.0,),
                     mechanical_modes=mechs, bath_temperature=0.0, rabi_freq=1.0)


def resonant_three_mode():
    """The three-mode device with a tuning whose drive sits on polariton 0, written
    over its kept tuning before its nodes are built from it."""
    device = three_mode_device()
    tuned = device.tuning
    vars(device)["tuning"] = dataclasses.replace(tuned, drive_freq=tuned.polaritons[0].freq)
    return device


def network_inputs(device, theta):
    """The arguments of build_network for the working point of ``device`` at ``theta``."""
    if device.couplings:
        tuned = device.tuning
        nodes = [pc.NetworkPolariton(p.freq, p.linewidth, p.weights[1]) for p in tuned.polaritons]
        cross, drive_freq = [p.cross_damping for p in tuned.polaritons], tuned.drive_freq
    else:
        b = pair_at(device, theta)
        s, c = math.sin(b.theta), math.cos(b.theta)
        nodes = [pc.NetworkPolariton(b.upper_freq, b.upper_linewidth, s, b.detuning_upper),
                 pc.NetworkPolariton(b.lower_freq, b.lower_linewidth, c, b.detuning_lower)]
        dk, drive_freq = b.dissipative_coupling, device._tuned(theta)[2]
        cross = [[0.0, dk], [dk, 0.0]]
    drive = pc.NetworkDrive(drive_freq, device.rabi_freq, device.bath_temperature)
    return nodes, device.mechanical_modes, drive, cross


RESONANT = ("polaritons[{}].detuning: polariton resonant with the drive (zero detuning);"
            " approx mode requires nonzero detunings")


@pytest.mark.parametrize("fault", ["mode", "resonance"])
@pytest.mark.parametrize("angle_tuned", [True, False])
def test_the_mode_and_resonance_rules_read_the_same_through_every_entry_point(angle_tuned,
                                                                               fault):
    if fault == "mode":
        device = make_base_setup() if angle_tuned else three_mode_device()
        mode, message = "exact", "mode: expected 'approx' or 'selfconsistent', got 'exact'"
    else:
        device = resonant_pair() if angle_tuned else resonant_three_mode()
        mode, message = "approx", RESONANT.format(1 if angle_tuned else 0)
    theta = 0.25 * math.pi if angle_tuned else None
    for call in (lambda: pc.build_network(*network_inputs(device, theta), mode=mode),
                 lambda: device.working_point(theta, mode=mode)):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message
    rows = (pc.evaluate_point(device, theta, averages=mode),
            *pc.sweep(device, "temperature", [0.0, 0.5], theta=theta, averages=mode))
    assert all(row.flags == ("error:ValidationError",) and not row.stable for row in rows)
    if fault == "resonance":  # the rule is approx mode's only
        _, model = device.working_point(theta, mode="selfconsistent")
        assert model.averages.mode == "selfconsistent"


@pytest.fixture
def parameter_objects(monkeypatch):
    """Constructions of the per-point parameter and rates objects and calls of
    ``MechanicalMode.validate``, counted by name."""
    counts = collections.Counter()
    for owner, name in ((pc.NetworkPolariton, "__init__"), (pc.NetworkDrive, "__init__"),
                        (pc.SteadyStateAverages, "__init__"), (pc.CoolingRates, "__init__"),
                        (pc.MechanicalMode, "validate")):
        original = getattr(owner, name)

        def counted(*args, _key=owner.__name__, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("angle_tuned", [True, False])
@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
def test_a_sweep_builds_no_parameter_objects(monkeypatch, parameter_objects, angle_tuned,
                                             averages):
    device = make_base_setup() if angle_tuned else three_mode_device()
    parameter_objects.clear()  # the device's own checks, once, when it was built
    node_checks = collections.Counter()
    original = tuning._node_detunings

    def counted(*args):
        node_checks["nodes"] += 1
        return original(*args)

    monkeypatch.setattr(tuning, "_node_detunings", counted)
    if angle_tuned:
        rows = pc.sweep(device, "theta", np.linspace(0.2, 1.4, 7), averages=averages)
    else:
        rows = pc.sweep(device, "temperature", np.linspace(0.0, 1.0, 7), averages=averages)
    assert all(row.stable for row in rows)
    # a fixed-coupling device checks its nodes once, not once per point; a pair
    # derives its nodes at each point
    assert node_checks == {"nodes": len(rows) if angle_tuned else 1}
    if angle_tuned:
        assert pc.optimize_theta(device, averages=averages, coarse_points=5, tol=1e-3).converged
    assert not parameter_objects
    # the one-point API still builds its objects, and one CoolingRates per mode
    _, model = device.working_point(0.7, mode=averages)
    pc.network_cooling(model)
    assert parameter_objects["SteadyStateAverages"] == 1
    assert parameter_objects["CoolingRates"] == len(device.mechanical_modes)


@pytest.mark.parametrize("angle_tuned", [True, False])
@pytest.mark.parametrize("averages", ["approx", "selfconsistent"])
def test_only_the_one_point_path_forms_the_averages_record(monkeypatch, angle_tuned, averages):
    # a sweep point runs the values core alone; the record step runs once per
    # working_point, and the shift coefficient once per device, when it is built
    counts = collections.Counter()
    for owner, name in ((dynamics, "_averages"), (tuning, "_shift_coefficient")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    device = make_base_setup() if angle_tuned else three_mode_device()
    assert counts == {"_shift_coefficient": 1}
    theta = 0.7 if angle_tuned else None
    variable, grid = (("theta", np.linspace(0.2, 1.4, 7)) if angle_tuned
                      else ("temperature", np.linspace(0.0, 1.0, 7)))
    assert all(row.stable for row in pc.sweep(device, variable, grid, averages=averages))
    assert pc.evaluate_point(device, theta, averages=averages).stable
    if angle_tuned:
        assert pc.optimize_theta(device, averages=averages, coarse_points=5, tol=1e-3).converged
    assert counts == {"_shift_coefficient": 1}
    _, model = device.working_point(theta, mode=averages)
    assert counts == {"_shift_coefficient": 1, "_averages": 1}
    assert model.averages.mode == averages
