"""Physical model layer: validation, polariton transform, occupations, drive."""
import dataclasses
import math

import numpy as np
import pytest

import polarcool as pc
from polarcool.errors import ValidationError
from polarcool.tuning import _pair

from helpers import TWO_PI, Pair, make_base_setup, pair_at

# high-precision references computed with 40-digit arithmetic
OCCUPATION_TABLE = (
    # (freq rad/s, temperature K, nbar)
    (TWO_PI * 1.0e7, 0.01, 20.34061835180099681),
    (TWO_PI * 2.0e7, 0.01, 9.926307078548583596),
    (TWO_PI * 3.0e7, 0.01, 6.457533676514097568),
    (TWO_PI * 3.5e7, 0.01, 5.467310967392567191),
    (TWO_PI * 1.0e10, 0.01, 1.4359925012169498e-21),
)

SPIN_NUMBER_250UM = 3.452479426601283e16
RABI_AT_27UT = 78525797543744.959
RABI_AT_69MW = 314559404199249.857


# ---------------------------------------------------------------------------
# thermal occupation


def test_thermal_occupation_reference_values():
    for freq, temp, expected in OCCUPATION_TABLE:
        got = pc.thermal_occupation(freq, temp)
        assert got == pytest.approx(expected, rel=1e-12)


def test_thermal_occupation_zero_temperature_is_exactly_zero():
    assert pc.thermal_occupation(TWO_PI * 1.0e7, 0.0) == 0.0


def test_thermal_occupation_deep_quantum_regime_underflows_gracefully():
    # hbar omega / k T ~ 5e4: expm1 would overflow, the exp branch must not
    n = pc.thermal_occupation(TWO_PI * 1.0e10, 1e-5)
    assert 0.0 <= n < 1e-300
    # a subnormal temperature makes k_B T underflow to zero
    assert pc.thermal_occupation(TWO_PI * 1.0e7, 1e-308) == 0.0


def test_thermal_occupation_classical_limit():
    # k T >> hbar omega: nbar approaches kT / (hbar omega)
    freq, temp = TWO_PI * 1.0e6, 1.0
    expected = 1.380649e-23 * temp / (1.054571817e-34 * freq)
    assert pc.thermal_occupation(freq, temp) == pytest.approx(expected, rel=1e-3)


def test_thermal_occupation_rejects_bad_input():
    with pytest.raises(ValidationError):
        pc.thermal_occupation(-1.0, 0.01)
    with pytest.raises(ValidationError):
        pc.thermal_occupation(TWO_PI * 1.0e7, -0.01)
    for bad_temperature in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="temperature"):
            pc.thermal_occupation(TWO_PI * 1.0e7, bad_temperature)
    # a bool is not a frequency (True once read as 1 rad/s, n = 1.3e10 at 0.1 K)
    with pytest.raises(ValidationError, match="^freq: expected a number"):
        pc.thermal_occupation(True, 0.1)


# ---------------------------------------------------------------------------
# mechanical modes


def test_mechanical_mode_validate_reports_path():
    mode = pc.MechanicalMode(freq=-1.0, damping=TWO_PI * 100.0, bare_coupling=0.0)
    with pytest.raises(ValidationError, match=r"mechanical_modes\[0\].freq"):
        mode.validate("mechanical_modes[0]")
    # NaN and inf fail too, instead of reaching the drift as numbers
    for field, value in (("freq", math.inf), ("damping", math.nan), ("bare_coupling", math.nan)):
        bad = dataclasses.replace(
            pc.MechanicalMode(freq=TWO_PI * 1e7, damping=TWO_PI * 100.0, bare_coupling=0.0),
            **{field: value})
        with pytest.raises(ValidationError, match=rf"mechanics\[2\]\.{field}"):
            bad.validate("mechanics[2]")


# ---------------------------------------------------------------------------
# polariton transform


def pair(cavity_freq, magnon_freq, coupling, cavity_linewidth, magnon_linewidth, drive_freq):
    return Pair(*_pair(cavity_freq, magnon_freq, coupling, cavity_linewidth, magnon_linewidth,
                       drive_freq))


def test_diagonalize_reference_point():
    # detuning equal to the coupling: theta = atan2(2, 1) / 2
    drive_freq = TWO_PI * 9.98e9
    basis = pair(TWO_PI * 1.0e10, TWO_PI * 9.99e9, TWO_PI * 1.0e7, TWO_PI * 1.0e6,
                 TWO_PI * 1.0e6, drive_freq)
    assert basis.theta == pytest.approx(0.55357435889704525, rel=1e-14)
    assert basis.upper_freq == pytest.approx(62870685292.570374, rel=1e-13)
    assert basis.lower_freq == pytest.approx(62730188997.949560, rel=1e-13)
    # detunings are evaluated midpoint-first to dodge GHz-scale round-off,
    # so they match the naive difference only to its own cancellation noise
    assert basis.detuning_upper == pytest.approx(basis.upper_freq - drive_freq, rel=1e-12)


def test_diagonalize_invariants_random_draws():
    rng = np.random.default_rng(417)
    for _ in range(200):
        cavity = TWO_PI * rng.uniform(5e9, 2e10)
        magnon = cavity + TWO_PI * rng.uniform(-5e7, 5e7)
        g = TWO_PI * 10 ** rng.uniform(5, 7.5)
        ka = TWO_PI * 10 ** rng.uniform(4, 6.5)
        km = TWO_PI * 10 ** rng.uniform(4, 6.5)
        b = pair(cavity, magnon, g, ka, km, cavity - TWO_PI * 3e7)
        assert 0.0 < b.theta < 0.5 * math.pi
        assert b.upper_freq > b.lower_freq
        # frequency and linewidth sums are preserved by the rotation
        assert b.upper_freq + b.lower_freq == pytest.approx(cavity + magnon, rel=1e-14)
        assert b.upper_linewidth + b.lower_linewidth == pytest.approx(ka + km, rel=1e-13)
        # determinant of the dissipation matrix is rotation-invariant
        assert (b.upper_linewidth * b.lower_linewidth - b.dissipative_coupling**2
                == pytest.approx(ka * km, rel=1e-10))
        # polariton splitting from the closed form; the subtraction of two
        # ~1e11 frequencies amplifies round-off, hence the looser tolerance
        delta = cavity - magnon
        split = math.hypot(delta, 2.0 * g)
        assert b.upper_freq - b.lower_freq == pytest.approx(split, rel=1e-9)


def test_diagonalize_theta_side_of_resonance():
    def theta(magnon_freq):
        return pair(TWO_PI * 1e10, magnon_freq, TWO_PI * 1e7, TWO_PI * 1e6, TWO_PI * 1e6,
                    TWO_PI * 9.9e9).theta

    red, blue = theta(TWO_PI * 0.995e10), theta(TWO_PI * 1.005e10)
    # magnon below cavity -> mostly-photon upper branch -> theta < pi/4
    assert red < 0.25 * math.pi < blue
    assert theta(TWO_PI * 1e10) == pytest.approx(0.25 * math.pi, rel=1e-14)


def test_dissipative_coupling_vanishes_for_equal_linewidths():
    basis = pair_at(make_base_setup(), 0.25 * math.pi)
    assert basis.dissipative_coupling == 0.0


def test_dissipative_coupling_sign_tracks_linewidth_difference():
    setup = make_base_setup(magnon_linewidth=TWO_PI * 2.0e6)
    basis = pair_at(setup, 0.25 * math.pi)
    # kappa_m > kappa_a: delta kappa = (kappa_m - kappa_a) sin cos > 0
    assert basis.dissipative_coupling > 0.0
    expected = (setup.matter_linewidths[0] - setup.cavity_linewidth) \
        * math.sin(basis.theta) * math.cos(basis.theta)
    assert basis.dissipative_coupling == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# drive calibration


def test_spin_number_reference_value():
    cal = pc.DriveCalibration(sphere_diameter=250e-6)
    assert cal.spin_number == pytest.approx(SPIN_NUMBER_250UM, rel=1e-12)


def test_calibrate_drive_field_reference_value():
    cal = pc.DriveCalibration(sphere_diameter=250e-6)
    rabi = pc.calibrate_drive(cal, field_amplitude=2.7e-5)
    assert rabi == pytest.approx(RABI_AT_27UT, rel=1e-12)


def test_calibrate_drive_power_reference_value():
    cal = pc.DriveCalibration(sphere_diameter=250e-6, reference_power=(4.3e-3, 2.7e-5))
    rabi = pc.calibrate_drive(cal, power=69e-3)
    assert rabi == pytest.approx(RABI_AT_69MW, rel=1e-12)


def test_calibrate_drive_power_scaling_law():
    rng = np.random.default_rng(99)
    cal = pc.DriveCalibration(sphere_diameter=250e-6, reference_power=(4.3e-3, 2.7e-5))
    base = pc.calibrate_drive(cal, power=4.3e-3)
    for _ in range(50):
        p = 10 ** rng.uniform(-4, 0)
        assert pc.calibrate_drive(cal, power=p) == pytest.approx(
            base * math.sqrt(p / 4.3e-3), rel=1e-12)


def test_calibrate_drive_input_validation():
    cal = pc.DriveCalibration(sphere_diameter=250e-6)
    with pytest.raises(ValidationError):
        pc.calibrate_drive(cal)
    with pytest.raises(ValidationError):
        pc.calibrate_drive(cal, field_amplitude=1e-5, power=1e-3)
    with pytest.raises(ValidationError):
        pc.calibrate_drive(cal, power=1e-3)  # no reference anchor
    with pytest.raises(ValidationError):
        pc.calibrate_drive(cal, field_amplitude=-1e-5)
    assert pc.calibrate_drive(cal, field_amplitude=0.0) == 0.0
    for bad_field in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="^field_amplitude: must be finite"):
            pc.calibrate_drive(cal, field_amplitude=bad_field)
    anchored = pc.DriveCalibration(sphere_diameter=250e-6, reference_power=(4.3e-3, 2.7e-5))
    with pytest.raises(ValidationError, match="^power: must be finite"):
        pc.calibrate_drive(anchored, power=math.nan)


def test_drive_calibration_rejects_bad_geometry():
    with pytest.raises(ValidationError, match="sphere_diameter"):
        pc.DriveCalibration(sphere_diameter=0.0)
    with pytest.raises(ValidationError, match="reference_power"):
        pc.DriveCalibration(sphere_diameter=250e-6, reference_power=(0.0, 2.7e-5))
    with pytest.raises(ValidationError, match="^reference_power: expected a"):
        pc.DriveCalibration(sphere_diameter=250e-6, reference_power=(4.3e-3,))
    with pytest.raises(ValidationError, match="^sphere_diameter: must be finite"):
        pc.DriveCalibration(sphere_diameter=math.inf)
