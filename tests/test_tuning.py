"""Working-point tuning, sweeps, and the mixing-angle optimizer."""
import math

import numpy as np
import pytest

import polarcool as pc
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
                  magnon_linewidth=TWO_PI * 1e6, bath_temperature=0.01,
                  rabi_freq=BASE_RABI)
    with pytest.raises(ValidationError, match="exactly 2"):
        pc.TwoModeSetup(mechanical_modes=make_mechs()[:1], **kwargs)
    descending = tuple(reversed(make_mechs()))
    with pytest.raises(ValidationError, match="increasing"):
        pc.TwoModeSetup(mechanical_modes=descending, **kwargs)


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
    assert not direct.stable
    assert direct.theta == 2.5
    assert math.isnan(direct.variable)
    assert all(math.isnan(n) for n in direct.n_numeric + direct.kappa_eff)


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


def test_polariton_network_cools_all_three_modes():
    tuned = pc.tune_n_mode(**three_mode_inputs())
    mechs = tuple(
        pc.MechanicalMode(freq=f, damping=TWO_PI * 100.0, bare_coupling=TWO_PI * 0.2)
        for f in three_mode_inputs()["mech_freqs"]
    )
    model = pc.polariton_network(tuned, mechs, BASE_RABI, 0.01)
    state = pc.steady_state(model)
    assert state.stable
    for j, mech in enumerate(mechs):
        nbar = pc.thermal_occupation(mech.freq, 0.01)
        assert state.occupations[3 + j] < nbar


def test_polariton_network_keeps_dissipative_cross_coupling():
    """One matter mode with kappa_m != kappa_a: the N-mode route is the two-mode model.

    The network orders its nodes (lower, upper), the two-mode model
    (upper, lower); after that permutation drift, diffusion and occupations
    must agree, which needs the shared-loss cross damping delta-kappa.
    """
    params = make_base_setup(magnon_linewidth=TWO_PI * 4.0e6).params_at(0.6)
    polaritons = pc.photon_matter_diagonalize(
        params.cavity_freq,
        [pc.MatterMode(freq=params.magnon_freq, coupling=params.photon_matter_coupling,
                       linewidth=params.magnon_linewidth)],
        params.cavity_linewidth,
    )
    tuned = pc.NModeResult(matter_freqs=(params.magnon_freq,), drive_freq=params.drive_freq,
                           polaritons=polaritons, residual=0.0, converged=True)
    perm = [2, 3, 0, 1, 4, 5, 6, 7]
    for mode in ("approx", "selfconsistent"):
        two_mode = pc.build_linear_model(params, mode=mode)
        assert two_mode.drift[0, 2] != 0.0
        network = pc.polariton_network(tuned, params.mechanical_modes, params.rabi_freq,
                                       params.bath_temperature, mode)
        drift = network.drift[np.ix_(perm, perm)]
        diffusion = network.diffusion[np.ix_(perm, perm)]
        assert np.abs(drift - two_mode.drift).max() <= 1e-12 * np.abs(two_mode.drift).max()
        assert np.abs(diffusion - two_mode.diffusion).max() \
            <= 1e-12 * np.abs(two_mode.diffusion).max()
        occ_network = pc.steady_state(network).occupations
        occ_network = (occ_network[1], occ_network[0]) + occ_network[2:]
        occ_two_mode = pc.steady_state(two_mode).occupations
        assert occ_network == pytest.approx(occ_two_mode, rel=1e-9)
