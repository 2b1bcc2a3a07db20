"""Working-point tuning, sweeps, and the mixing-angle optimizer."""
import collections
import dataclasses
import math

import numpy as np
import pytest

import polarcool as pc
from polarcool import analytics, dynamics, errors, steadystate, tuning
from polarcool import model as model_module
from polarcool.config import load_config
from polarcool.errors import UnstableSystemError, ValidationError

from helpers import BASE_RABI, TWO_PI, make_base_setup, make_mechs


# ---------------------------------------------------------------------------
# two-mode tuning


def test_tune_round_trip_recovers_targets():
    """tune -> diagonalize must return the requested angle and detunings.

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
        tuned = pc.tune_two_mode(cavity, lower, upper, theta)
        params = pc.SystemParams(
            cavity_freq=cavity,
            magnon_freq=tuned.magnon_freq,
            photon_matter_coupling=tuned.photon_matter_coupling,
            cavity_linewidth=TWO_PI * 1e6,
            magnon_linewidth=TWO_PI * 1e6,
            mechanical_modes=make_mechs(),
            drive_freq=tuned.drive_freq,
            rabi_freq=BASE_RABI,
            bath_temperature=0.01,
        )
        basis = pc.diagonalize_polaritons(params)
        assert basis.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)
        assert basis.detuning_upper == pytest.approx(upper, rel=1e-12)
        assert basis.detuning_lower == pytest.approx(lower, rel=1e-12)


def test_tune_two_mode_validations():
    good = dict(cavity_freq=TWO_PI * 1e10, target_lower=TWO_PI * 1e7,
                target_upper=TWO_PI * 3e7, theta=0.7)
    pc.tune_two_mode(**good)  # sanity
    for bad_theta in (0.0, 0.5 * math.pi, -0.1, 2.0):
        with pytest.raises(ValidationError, match="theta"):
            pc.tune_two_mode(**{**good, "theta": bad_theta})
    with pytest.raises(ValidationError, match="targets"):
        pc.tune_two_mode(**{**good, "target_lower": TWO_PI * 3e7,
                            "target_upper": TWO_PI * 1e7})
    with pytest.raises(ValidationError, match="targets"):
        pc.tune_two_mode(**{**good, "target_lower": 0.0})
    with pytest.raises(ValidationError, match="cavity_freq"):
        pc.tune_two_mode(**{**good, "cavity_freq": -1.0})
    for bad_cavity in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="cavity_freq"):
            pc.tune_two_mode(**{**good, "cavity_freq": bad_cavity})
    with pytest.raises(ValidationError, match="targets"):
        pc.tune_two_mode(**{**good, "target_upper": math.inf})
    # a string angle used to raise a raw TypeError from the comparison
    with pytest.raises(ValidationError, match="^theta: expected a number"):
        pc.tune_two_mode(1e10, 1e7, 2e7, "abc")
    # a huge splitting at small theta would push the magnon below zero
    with pytest.raises(ValidationError, match="magnon"):
        pc.tune_two_mode(TWO_PI * 1e6, 1.0, TWO_PI * 1e7, 0.05)


def test_params_at_overrides():
    setup = make_base_setup()
    params = setup.params_at(0.9)
    assert params.bath_temperature == setup.bath_temperature
    assert params.rabi_freq == setup.rabi_freq
    hot = setup.params_at(0.9, temperature=0.35)
    assert hot.bath_temperature == 0.35
    weak = setup.params_at(0.9, rabi=0.1 * setup.rabi_freq)
    assert weak.rabi_freq == pytest.approx(0.1 * setup.rabi_freq, rel=1e-15)
    # tuned geometry is unchanged by the overrides
    assert hot.magnon_freq == params.magnon_freq
    assert weak.drive_freq == params.drive_freq


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
    for call in (lambda: device.params_at(0.7),
                 lambda: pc.sweep(device, "theta", [0.5, 0.7]),
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


def test_sweep_threads_match_serial():
    setup = make_base_setup()
    grid = np.linspace(0.25, 1.3, 12)
    serial = pc.sweep(setup, "theta", grid, threads=1)
    threaded = pc.sweep(setup, "theta", grid, threads=4)
    assert serial == threaded


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
    with pytest.raises(ValidationError, match="threads"):
        pc.sweep(setup, "theta", [0.5], threads=0)
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


def test_approx_point_checks_each_value_once(monkeypatch):
    # theta, the tuned SystemParams (its device scalars and mechanics), the two
    # polariton nodes and the model's linewidths and dampings: 27 values, each
    # checked once
    setup = load_config("configs/two_mode_base.config").setup
    calls = collections.Counter()

    def counted(path, *args, **kwargs):
        calls[path] += 1
        return errors.check_real(path, *args, **kwargs)

    for module in (analytics, dynamics, model_module, steadystate, tuning):
        monkeypatch.setattr(module, "check_real", counted)
    row = pc.evaluate_point(setup, 0.7)
    assert row.stable and not row.flags
    assert sum(calls.values()) <= 30, calls
    assert max(calls.values()) == 1, calls


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
    params = angle_tuned.params_at(0.6)
    fixed = dataclasses.replace(angle_tuned, couplings=(params.photon_matter_coupling,))
    assert fixed.tuning.converged
    assert fixed.tuning.matter_freqs[0] == pytest.approx(params.magnon_freq, rel=1e-14)
    assert fixed.tuning.drive_freq == pytest.approx(params.drive_freq, rel=1e-14)
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
    # the model's construction: one pair check, i.e. one check per matrix
    assert check_counts == {"check_drift_diffusion": 1, "check_matrix": 2}
    _, model = device.working_point(0.7, mode=averages)
    check_counts.clear()
    pc.steady_state(model)
    pc.network_cooling(model)
    assert not check_counts


def test_solve_lyapunov_checks_its_arrays_once(check_counts):
    model = pc.build_linear_model(make_base_setup().params_at(0.7))
    check_counts.clear()
    pc.solve_lyapunov(model.drift, model.diffusion)
    assert check_counts == {"check_drift_diffusion": 1, "check_matrix": 2}
