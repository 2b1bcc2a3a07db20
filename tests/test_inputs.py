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
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcool as pc
from polarcool import analytics, dynamics, steadystate
from polarcool.config import parse_config
from polarcool.errors import ValidationError, check_real

import helpers
from helpers import TWO_PI, make_base_setup, make_mechs

BAD_VALUES = (math.nan, math.inf, -math.inf, None, "1.0", True, 1j)

CAV, LO, HI = TWO_PI * 1e10, TWO_PI * 1e7, TWO_PI * 3e7
SETUP = make_base_setup()
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
    ("theta", SETUP.working_point, False),
    ("freq", lambda v: pc.thermal_occupation(v, 0.1), False),
    ("temperature", lambda v: pc.thermal_occupation(LO, v), False),
    ("mechanical_mode.freq", lambda v: swap(MECH, freq=v).validate(), False),
    ("mechanical_mode.damping", lambda v: swap(MECH, damping=v).validate(), False),
    ("mechanical_mode.bare_coupling", lambda v: swap(MECH, bare_coupling=v).validate(), False),
    ("rabi_freq", lambda v: SETUP.working_point(0.7, rabi=v), True),
    ("bath_temperature", lambda v: SETUP.working_point(0.7, temperature=v), True),
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
    ("drive.drive_freq", lambda v: pc.build_network([POL], [MECH], swap(DRIVE, drive_freq=v)),
     False),
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


def test_the_drive_frequency_is_checked_when_a_node_is_detuned_from_it():
    own = swap(POL, detuning=LO)
    for value in (None, "1.0", math.nan, 0.0):
        drive = swap(DRIVE, drive_freq=value)
        pc.build_network([own], [MECH], drive)  # every node has its own detuning
        with pytest.raises(ValidationError, match=r"^drive\.drive_freq: "):
            pc.build_network([own, POL], [MECH], drive)
        # a fault of the drive comes before one of a node
        with pytest.raises(ValidationError, match=r"^drive\.drive_freq: "):
            pc.build_network([swap(POL, linewidth=math.nan)], [MECH], drive)


HZ_FIELDS = [(path, call) for path, call, _ in CONFIG if "_hz" in path]


@pytest.mark.parametrize("path,call", HZ_FIELDS, ids=[path for path, _ in HZ_FIELDS])
def test_hz_fields_that_overflow_in_rad_s_fail_under_their_path(path, call):
    # 1e308 Hz is finite, 2 pi times it is not
    with pytest.raises(ValidationError, match="^" + re.escape(path) + ": must be finite"):
        call(1e308)


# (argument path, call with a malformed value): a ragged, string, complex or bool
# matrix, or a scalar where a sequence goes, is a ValidationError naming the argument
BIG = 10**400
MALFORMED = {
    "cross_damping ragged": ("cross_damping", lambda: pc.build_network(
        [POL, POL], [MECH], DRIVE, [[0.0, 1.0], [1.0]])),
    "cross_damping string": ("cross_damping", lambda: pc.build_network(
        [POL, POL], [MECH], DRIVE, "abc")),
    "cross_damping complex": ("cross_damping", lambda: pc.build_network(
        [POL, POL], [MECH], DRIVE, [[0.0, 1j], [1j, 0.0]])),
    "cross_damping bool": ("cross_damping", lambda: pc.build_network(
        [POL, POL], [MECH], DRIVE, [[False, True], [True, False]])),
    "covariance ragged": ("covariance", lambda: pc.extract_occupations([[0.5, 0.0], [0.5]])),
    "covariance string": ("covariance", lambda: pc.extract_occupations("abc")),
    # a complex array used to warn, lose its imaginary part and fail the vacuum clamp
    "covariance complex": ("covariance", lambda: pc.extract_occupations(np.eye(2) * 1j)),
    "covariance bool": ("covariance", lambda: pc.extract_occupations(np.eye(2) > 0)),
    # a non-finite entry, on the diagonal or off it
    "covariance inf": ("covariance", lambda: pc.extract_occupations(np.diag([np.inf, 0.5]))),
    "covariance off-diagonal nan": ("covariance", lambda: pc.extract_occupations(
        [[0.5, math.nan], [math.nan, 0.5]])),
    # an int beyond the float range, which a float conversion of the matrix overflows on
    "drift int beyond float range": ("drift", lambda: pc.check_stability([[BIG, 0], [0, -1]])),
    "LinearModel drift int beyond float range": ("drift", lambda: pc.LinearModel(
        [[BIG, 0], [0, -1]], np.eye(2), ("p1",), None)),
    "diffusion int beyond float range": ("diffusion", lambda: pc.solve_lyapunov(
        -np.eye(2), [[BIG, 0], [0, 1]])),
    "covariance int beyond float range": ("covariance", lambda: pc.extract_occupations(
        [[-BIG, 0], [0, 0.5]])),
    "cross_damping int beyond float range": ("cross_damping", lambda: pc.build_network(
        [POL, POL], [MECH], DRIVE, [[0, BIG], [BIG, 0]])),
    "v0 int beyond float range": ("v0", lambda: pc.integrate_covariance(
        -np.eye(2), np.eye(2), v0=[[BIG, 0], [0, 1]], t_final=1.0)),
    "initial_guess ragged": ("initial_guess", lambda: pc.tune_n_mode(
        **NMODE, initial_guess=[[1.0], [2.0, 3.0]])),
    "mech_freqs None": ("mech_freqs", lambda: pc.tune_n_mode(**{**NMODE, "mech_freqs": None})),
    "couplings scalar": ("couplings", lambda: pc.tune_n_mode(**{**NMODE, "couplings": 5})),
}


@pytest.mark.parametrize("path,call", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_matrices_and_sequences_name_their_argument(path, call):
    with pytest.raises(ValidationError, match="^" + re.escape(path) + ": "):
        call()


@pytest.mark.parametrize("key", [key for key in MALFORMED if key.endswith("beyond float range")])
def test_a_matrix_int_beyond_the_float_range_is_an_infinite_entry(key):
    """Such an int once escaped the matrix checks as a raw OverflowError."""
    path, call = MALFORMED[key]
    with pytest.raises(ValidationError,
                       match="^" + re.escape(f"{path}: contains a NaN or infinite entry") + "$"):
        call()


# (message, call with a record of the wrong type): a dict or tuple where a record
# goes is a ValidationError naming the entry, raised where the record enters
MODE_DICT, MODE_TUPLE = {"freq": 1.0}, dataclasses.astuple(MECH)
MISTYPED = {
    "Device mode dict": (f"mechanical_modes[0]: expected a MechanicalMode, got {MODE_DICT!r}",
                         lambda: _setup(mechanical_modes=(MODE_DICT, MECH))),
    "Device mode tuple": (f"mechanical_modes[1]: expected a MechanicalMode, got {MODE_TUPLE!r}",
                          lambda: _setup(mechanical_modes=(MECH, MODE_TUPLE))),
    "Device modes None": ("mechanical_modes: expected a sequence, got None",
                          lambda: _setup(mechanical_modes=None)),
    "build_network node tuple": (
        f"polaritons[0]: expected a NetworkPolariton, got {dataclasses.astuple(POL)!r}",
        lambda: pc.build_network([dataclasses.astuple(POL)], [MECH], DRIVE)),
    "build_network mechanics tuple": (
        f"mechanics[0]: expected a MechanicalMode, got {MODE_TUPLE!r}",
        lambda: pc.build_network([POL], [MODE_TUPLE], DRIVE)),
    "build_network drive None": ("drive: expected a NetworkDrive, got None",
                                 lambda: pc.build_network([POL], [MECH], None)),
    "photon_matter_diagonalize matter tuple": (
        f"matter_modes[0]: expected a MatterMode, got {dataclasses.astuple(MATTER)!r}",
        lambda: pc.photon_matter_diagonalize(CAV, [dataclasses.astuple(MATTER)],
                                             TWO_PI * 1e6)),
    "sweep setup None": ("setup: expected a Device, got None",
                         lambda: pc.sweep(None, "theta", [0.5])),
    "evaluate_point setup None": ("setup: expected a Device, got None",
                                  lambda: pc.evaluate_point(None, 0.5)),
    "optimize_theta setup None": ("setup: expected a Device, got None",
                                  lambda: pc.optimize_theta(None)),
    "steady_state model None": ("model: expected a LinearModel, got None",
                                lambda: pc.steady_state(None)),
    "network_cooling model None": ("model: expected a LinearModel, got None",
                                   lambda: pc.network_cooling(None)),
}


@pytest.mark.parametrize("message,call", MISTYPED.values(), ids=MISTYPED.keys())
def test_a_mistyped_record_names_its_entry(message, call):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        call()


# a linewidth whose square underflows, on an exact sideband resonance: the
# rate's denominator is 0, which used to escape as a raw ZeroDivisionError
UNDERFLOW_NETWORK = pc.build_network(
    [pc.NetworkPolariton(TWO_PI * 1e10, 1e-200, 1.0, detuning=MECH.freq)], [MECH], DRIVE)
UNDERFLOW = {
    "sideband_rates": lambda: pc.sideband_rates(1.0, 1e-200, 1.0, 1.0),
    "network_cooling": lambda: pc.network_cooling(UNDERFLOW_NETWORK),
    # the values-level rates pass that network_cooling and a sweep row read
    "rates_of_values": lambda: analytics._rates(dynamics._values(UNDERFLOW_NETWORK, 1, 1), 1, 1),
}


@pytest.mark.parametrize("call", UNDERFLOW.values(), ids=UNDERFLOW.keys())
def test_a_rate_denominator_that_underflows_is_a_validation_error(call):
    with pytest.raises(ValidationError, match=r"^sideband_rates: .* underflows to 0$"):
        call()


def test_an_int_beyond_the_float_range_is_infinite_and_rejected():
    for big in (10**400, -10**400):
        with pytest.raises(ValidationError, match=r"^x: must be finite, got -?inf$"):
            check_real("x", big)


# a mechanical frequency so low that hbar omega underflows to 0 at any T > 0:
# 1 / expm1(0) once escaped as a raw ZeroDivisionError
TINY_MODE = pc.MechanicalMode(1e-300, TWO_PI * 100.0, TWO_PI * 0.2)


def test_a_frequency_whose_quantum_underflows_has_infinite_occupation():
    assert pc.thermal_occupation(1e-300, 0.01) == math.inf
    assert pc.thermal_occupation(1.0, 1e300) == math.inf  # a subnormal hbar omega / kT
    assert pc.thermal_occupation(1e-300, 0.0) == 0.0
    setup = _setup(mechanical_modes=(TINY_MODE, SETUP.mechanical_modes[1]))
    failed = ("error:ValidationError",)
    assert pc.evaluate_point(setup, 0.7).flags == failed
    assert [row.flags for row in pc.sweep(setup, "theta", [0.5, 0.7])] == [failed, failed]
    with pytest.raises(ValidationError, match="^diffusion: contains a NaN or infinite entry$"):
        setup.working_point(0.7)


def test_a_zero_susceptibility_has_no_shift_even_where_sigma_overflows():
    # 2 G_0^2 overflows, so sigma = -inf, while the node's zero weight makes chi = 0:
    # sigma chi was NaN and slipped past the no-shift test
    node = pc.NetworkPolariton(1e10, 1e6, 0.0, 1e7)
    drive = pc.NetworkDrive(1e10, 1e13, 0.01)
    assert dynamics._shift_coefficient([pc.MechanicalMode(1e7, 100.0, 1e160)]) == -math.inf
    averages = [pc.build_network([node], [pc.MechanicalMode(1e7, 100.0, g0)], drive,
                                 mode="selfconsistent").averages for g0 in (1e160, 1.0)]
    for avg in averages:
        assert (avg.avg_matter, avg.effective_couplings, avg.branches) == (0j, (0.0,), (0j,))
    for g0 in (1e160, 1.0):
        oracle = helpers.selfconsistent_polaritons(
            [0.0], [1e7], [1e6], [[0.0]], 1e13, [pc.MechanicalMode(1e7, 100.0, g0)])
        assert oracle == ((0j,), (0j,))


def test_a_fold_at_infinite_amplitude_is_no_branch():
    # Re chi underflows, so p = -2 exactly, and the fold's double root y = 1 has
    # 1 + i y unit = 0: that branch's M would divide by zero
    model = pc.build_network([pc.NetworkPolariton(1e10, 1e-315, 1.0, 1e7)],
                             [pc.MechanicalMode(1e7, 100.0, 1.0)],
                             pc.NetworkDrive(1e10, 1.0, 0.0), mode="selfconsistent")
    assert model.averages.branches == (model.averages.avg_matter,)
    assert model.averages.avg_matter == -1e-07j
    oracle = helpers.selfconsistent_polaritons(
        [1.0], [1e7], [1e-315], [[0.0]], 1.0, [pc.MechanicalMode(1e7, 100.0, 1.0)])
    assert oracle == (model.averages.avg_polaritons, model.averages.branches)


def test_a_spin_number_or_drive_field_that_overflows_is_a_validation_error():
    huge = pc.DriveCalibration(1e200)
    assert huge.spin_number == math.inf
    with pytest.raises(ValidationError, match="^sphere_diameter: the spin number"):
        pc.calibrate_drive(huge, field_amplitude=1.0)
    with pytest.raises(ValidationError, match="^sphere_diameter: the spin number"):
        pc.calibrate_drive(pc.DriveCalibration(1e100), field_amplitude=0.0)
    anchored = pc.DriveCalibration(2.5e-4, reference_power=(1e-300, 1.0))
    with pytest.raises(ValidationError, match=r"^power: the field .* overflows, got 1e\+308$"):
        pc.calibrate_drive(anchored, power=1e308)


@pytest.mark.parametrize("cal", [None, "x", 2.5e-4])
def test_a_calibration_that_is_not_a_drive_calibration_is_named(cal):
    """Such a calibration once raised a raw AttributeError."""
    for given in ({"field_amplitude": 1e-5}, {"power": 1e-3}):
        with pytest.raises(ValidationError) as exc:
            pc.calibrate_drive(cal, **given)
        assert str(exc.value) == f"cal: expected a DriveCalibration, got {cal!r}"


def test_a_backaction_limit_whose_square_leaves_the_float_range():
    with pytest.warns(UserWarning, match="^backaction limit inf > 0.01"):
        assert pc.quantum_backaction_limit(1e200, 1.0) == math.inf
    with pytest.warns(UserWarning, match="^backaction limit inf > 0.01"):
        assert pc.quantum_backaction_limit(1.0, 1e-200) == math.inf
    with pytest.warns(UserWarning, match="^backaction limit 0.25 > 0.01"):
        assert pc.quantum_backaction_limit(1e-200, 1e-200) == 0.25
    # kappa^2 underflows to 0, (kappa / omega)^2 does not
    assert pc.quantum_backaction_limit(1e-200, 1e-100) == pytest.approx(2.5e-201, rel=1e-15)


# every float of a device log-uniform over nearly the whole double range
MAGNITUDES = st.floats(-310.0, 300.0).map(lambda exponent: 10.0 ** exponent)
TYPED_ERRORS = (ValidationError, pc.SolverError, pc.UnstableSystemError, pc.ConvergenceError)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data(), fixed=st.booleans(), averages=st.sampled_from(["approx", "selfconsistent"]))
def test_an_extreme_device_raises_only_typed_errors(data, fixed, averages):
    """A pair or a one-coupling device, each float in [1e-310, 1e300], the
    temperature and drive sometimes 0: evaluate_point, working_point with
    steady_state and network_cooling, and a sweep raise only the four typed errors,
    and every spectral abscissa read off a list equals ``ndarray.max``'s."""
    draw = data.draw
    freqs = sorted(draw(MAGNITUDES) for _ in range(2))
    modes = tuple(pc.MechanicalMode(f, draw(MAGNITUDES), draw(MAGNITUDES)) for f in freqs)
    off_or_on = st.just(0.0) | MAGNITUDES
    try:
        setup = pc.Device(cavity_freq=draw(MAGNITUDES), cavity_linewidth=draw(MAGNITUDES),
                          matter_linewidths=(draw(MAGNITUDES),), mechanical_modes=modes,
                          bath_temperature=draw(off_or_on), rabi_freq=draw(off_or_on),
                          couplings=(draw(MAGNITUDES),) if fixed else ())
    except ValidationError:
        return
    theta = None if fixed else draw(st.floats(0.01, 1.56))
    temperatures = [0.0, draw(MAGNITUDES)]

    def one_point():
        _, model = setup.working_point(theta, mode=averages)
        pc.steady_state(model, require_stable=False)
        pc.network_cooling(model)

    reads = []

    def abscissa(t, _read=steadystate._abscissa):
        # the list read of max(diag T) gives ndarray.max's float for every T met
        read = _read(t)
        reads.append((repr(read), repr(float(t.diagonal().max()))))
        return read

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steadystate, "_abscissa", abscissa)
        for call in (lambda: pc.evaluate_point(setup, theta, averages=averages), one_point,
                     lambda: pc.sweep(setup, "temperature", temperatures, theta=theta,
                                      averages=averages)):
            try:
                call()
            except TYPED_ERRORS:
                pass
    assert all(read == numpy for read, numpy in reads)
