"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
without -s the test names carry the same pass/fail information. Thresholds
are fixed here on purpose: loosening them is a release decision, not a
test-maintenance chore.
"""
import math
import time

import numpy as np
import pytest

import polarcool as pc
from polarcool.steadystate import integrate_covariance, solve_lyapunov

from helpers import (
    TWO_PI,
    make_base_setup,
    make_mechs,
    random_block_instance,
)

SPHERE_DIAMETER = 250e-6
FIELD_BASE = 2.7e-5
REFERENCE_POWER = (4.3e-3, FIELD_BASE)

THETA_GRID = np.linspace(0.02, 1.55, 101)


def verdict(num, ok, detail):
    label = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def base_sweep():
    """Timed 101-point angle sweep at the base operating point.

    The drive is re-derived from the field calibration instead of reusing
    the frozen constant, so this gate exercises the full input chain.
    """
    cal = pc.DriveCalibration(sphere_diameter=SPHERE_DIAMETER)
    rabi = pc.calibrate_drive(cal, field_amplitude=FIELD_BASE)
    setup = make_base_setup(rabi_freq=rabi)
    t0 = time.perf_counter()
    rows = pc.sweep(setup, "theta", THETA_GRID)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_1_angle_sweep_shape(base_sweep):
    rows, elapsed = base_sweep
    n1 = np.array([r.n_numeric[0] for r in rows])
    n2 = np.array([r.n_numeric[1] for r in rows])
    assert np.all(np.isfinite(n1)) and np.all(np.isfinite(n2))

    # contiguous interior window with both modes below one phonon
    below = np.flatnonzero(np.maximum(n1, n2) < 1.0)
    window_ok = (
        below.size > 0
        and np.array_equal(below, np.arange(below[0], below[-1] + 1))
        and below[0] > 0
        and below[-1] < len(rows) - 1
    )

    # mode 1 rises essentially everywhere; mode 2 falls steeply to a
    # minimum in the right half and only creeps back up after it (the
    # drive dilution eventually beats the growing magnon weight)
    rising = float(np.mean(np.diff(n1) > 0.0))
    k_min = int(np.argmin(n2))
    falling_to_min = bool(np.all(np.diff(n2[: k_min + 1]) < 0.0))
    drop = n2[0] / n2[k_min]
    shape_ok = (
        rising >= 0.9
        and falling_to_min
        and THETA_GRID[k_min] >= 0.7
        and drop >= 10.0
    )

    # not mirror-symmetric about pi/4: compare n1 with n2 reflected on the
    # (symmetric) grid; mirror symmetry would drive these to zero
    mirror = n2[::-1]
    rel = np.abs(n1 - mirror) / np.maximum(n1, mirror)
    asym = float(np.median(rel))

    ok = window_ok and shape_ok and asym >= 0.2 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"window [{THETA_GRID[below[0]]:.3f}, {THETA_GRID[below[-1]]:.3f}] rad, "
        f"n1 rising {rising:.0%}, n2 min at {THETA_GRID[k_min]:.2f} rad "
        f"(drop {drop:.0f}x), mirror asymmetry {asym:.2f}, {elapsed:.2f} s",
    )


def test_criterion_2_analytic_numeric_agreement(base_sweep):
    rows, _ = base_sweep
    mask = (THETA_GRID >= 0.15) & (THETA_GRID <= 0.5 * math.pi - 0.15)
    worst = 0.0
    for row, keep in zip(rows, mask):
        if not keep:
            continue
        for ana, num in zip(row.n_analytic, row.n_numeric):
            worst = max(worst, abs(ana - num) / num)
    verdict(2, worst <= 0.15, f"worst analytic-numeric deviation {worst:.1%} over "
                              f"{int(mask.sum())} interior points, budget 15%")


def test_criterion_3_temperature_robustness():
    cal = pc.DriveCalibration(sphere_diameter=SPHERE_DIAMETER,
                              reference_power=REFERENCE_POWER)
    rabi = pc.calibrate_drive(cal, power=69e-3)
    thetas = np.linspace(0.02, 1.55, 41)
    temps = np.linspace(0.01, 0.8, 21)

    t0 = time.perf_counter()
    worst_n = np.empty((len(temps), len(thetas)))
    for i, temp in enumerate(temps):
        setup = make_base_setup(bath_temperature=float(temp), rabi_freq=rabi)
        rows = pc.sweep(setup, "theta", thetas, threads=4)
        worst_n[i] = [max(r.n_numeric) for r in rows]
    elapsed = time.perf_counter() - t0

    cold = temps <= 0.4
    # one angle must hold both modes below one phonon over every bath
    # temperature up to 0.4 K
    per_theta = np.all(worst_n[cold] < 1.0, axis=0)
    exists_theta = bool(per_theta.any())

    reached = np.any(worst_n < 1.0, axis=1)
    boundary = float(temps[reached][-1]) if reached.any() else math.nan
    boundary_ok = (
        reached.any()
        and not reached.all()  # the ceiling must be visible inside the grid
        and 0.3 <= boundary <= 0.8
    )

    ok = exists_theta and boundary_ok and elapsed < 60.0
    verdict(3, ok, f"ground state up to {boundary:.3f} K "
                   f"(budget [0.3, 0.8] K), robust angle exists: {exists_theta}, "
                   f"{elapsed:.1f} s for 41x21 grid")


def test_criterion_4_thermal_equilibrium_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        f1 = rng.uniform(1e6, 2e7)
        f2 = f1 * rng.uniform(1.5, 3.0)
        temp = rng.uniform(0.002, 1.0)
        setup = make_base_setup(
            cavity_freq=TWO_PI * rng.uniform(5e9, 2e10),
            cavity_linewidth=TWO_PI * rng.uniform(0.5e6, 2e6),
            magnon_linewidth=TWO_PI * rng.uniform(0.5e6, 2e6),
            mechanical_modes=make_mechs(
                freq_hz=(f1, f2),
                damping_hz=rng.uniform(10.0, 1e4),
                bare_coupling_hz=0.0,
            ),
            bath_temperature=temp,
            rabi_freq=rng.uniform(0.1, 2.0) * 78525797543744.95,
        )
        params = setup.params_at(rng.uniform(0.1, 1.4))
        state = pc.steady_state(pc.build_linear_model(params))
        for mech, n in zip(params.mechanical_modes, state.occupations[2:]):
            expected = pc.thermal_occupation(mech.freq, temp)
            worst = max(worst, abs(n - expected) / expected)
    verdict(4, worst <= 5e-10,
            f"decoupled modes match the bath to rel {worst:.2e} over 20 draws, "
            f"budget 5e-10 (10 significant figures)")


def test_criterion_5_lyapunov_integrator_equivalence():
    rng = np.random.default_rng(77)
    worst_diff = 0.0
    worst_residual = 0.0
    for _ in range(100):
        r, d = random_block_instance(rng, int(rng.integers(2, 9)))
        v_direct, residual, _ = solve_lyapunov(r, d)
        v_time = integrate_covariance(r, d)
        diff = np.linalg.norm(v_time - v_direct) / np.linalg.norm(v_direct)
        worst_diff = max(worst_diff, float(diff))
        worst_residual = max(worst_residual, residual)
    ok = worst_diff < 0.01 and worst_residual < 1e-9
    verdict(5, ok, f"100 instances (sizes 4-16): worst route disagreement "
                   f"{worst_diff:.2e} (budget 1e-2), worst residual "
                   f"{worst_residual:.2e} (budget 1e-9)")


def test_criterion_6_tuning_round_trip():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
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
            rabi_freq=78525797543744.95,
            bath_temperature=0.01,
        )
        basis = pc.diagonalize_polaritons(params)
        worst = max(
            worst,
            abs(basis.detuning_upper - upper) / upper,
            abs(basis.detuning_lower - lower) / lower,
        )
    verdict(6, worst <= 1e-12,
            f"1000 draws: worst detuning round-trip error rel {worst:.2e}, "
            f"budget 1e-12")


def test_criterion_7_three_mode_extension():
    mech_freqs = [TWO_PI * 1.0e7, TWO_PI * 2.0e7, TWO_PI * 3.5e7]
    mechs = tuple(
        pc.MechanicalMode(freq=f, damping=TWO_PI * 100.0,
                          bare_coupling=TWO_PI * 0.2)
        for f in mech_freqs
    )
    temp = 0.01
    device = pc.Device(
        cavity_freq=TWO_PI * 1.0e10,
        cavity_linewidth=TWO_PI * 1.0e6,
        matter_linewidths=[TWO_PI * 1.0e6, TWO_PI * 1.0e6],
        mechanical_modes=mechs,
        bath_temperature=temp,
        rabi_freq=78525797543744.95,
        couplings=[TWO_PI * 7.0e6, TWO_PI * 9.0e6],
    )
    tuned, model = device.working_point()
    assert tuned.converged
    state = pc.steady_state(model)
    rates = pc.network_cooling(model)

    numeric = state.occupations[3:]
    cooled = []
    agree = []
    for mech, n, rate in zip(mechs, numeric, rates):
        nbar = pc.thermal_occupation(mech.freq, temp)
        cooled.append(n < nbar / 10.0)
        agree.append(abs(rate.n_eff_all - n) <= 0.25 * n)
    ok = state.stable and all(cooled) and all(agree)
    verdict(7, ok, f"stable={state.stable}, occupations "
                   + ", ".join(f"{n:.3f}" for n in numeric)
                   + f", all >10x below thermal: {all(cooled)}, "
                     f"analytic within 25%: {all(agree)}")


def test_criterion_8_weight_competition():
    setup = make_base_setup()
    omega_1 = setup.mechanical_modes[0].freq
    omega_2 = setup.mechanical_modes[1].freq
    coupling = TWO_PI * 2e5
    ratios = []
    for theta in np.linspace(0.15, 0.5 * math.pi - 0.15, 50):
        basis = pc.diagonalize_polaritons(setup.params_at(float(theta)))
        s, c = math.sin(basis.theta), math.cos(basis.theta)
        _, anti_l1 = pc.sideband_rates(
            coupling * c, basis.lower_linewidth, basis.detuning_lower, omega_1)
        _, anti_u2 = pc.sideband_rates(
            coupling * s, basis.upper_linewidth, basis.detuning_upper, omega_2)
        ratios.append(anti_l1 / anti_u2)
    steps = np.diff(ratios)
    ok = bool(np.all(steps < 0.0))
    verdict(8, ok, f"rate ratio strictly decreasing on all {len(steps)} steps, "
                   f"span {ratios[0]:.1f} -> {ratios[-1]:.3f}")
