"""Sideband-rate formulas and their agreement with the covariance solver."""
import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcool as pc
from polarcool import analytics, dynamics
from polarcool.errors import ValidationError

from helpers import TWO_PI, cooling, make_base_setup, pair_at


def test_sideband_rates_hand_values():
    # kappa = 2, g = 4, delta = 3, omega = 3:
    # anti resonant: 2*16/(4*4) = 2; stokes: 2*16/(4*(4+36)) = 0.2
    stokes, anti = pc.sideband_rates(4.0, 2.0, 3.0, 3.0)
    assert anti == pytest.approx(2.0, rel=1e-15)
    assert stokes == pytest.approx(0.2, rel=1e-15)
    # sign of the coupling is irrelevant, it enters squared
    assert pc.sideband_rates(-4.0, 2.0, 3.0, 3.0) == (stokes, anti)
    # blue detuning swaps the roles
    s_blue, a_blue = pc.sideband_rates(4.0, 2.0, -3.0, 3.0)
    assert s_blue == pytest.approx(anti, rel=1e-15)
    assert a_blue == pytest.approx(stokes, rel=1e-15)
    with pytest.raises(ValidationError):
        pc.sideband_rates(1.0, 0.0, 1.0, 1.0)
    # NaN in any slot used to come back as (nan, nan)
    with pytest.raises(ValidationError, match="^linewidth: must be finite"):
        pc.sideband_rates(1.0, math.nan, 1.0, 1.0)
    with pytest.raises(ValidationError, match="^coupling: must be finite"):
        pc.sideband_rates(math.nan, 1.0, 1.0, 1.0)
    # finite inputs whose squares overflow: a ValidationError, not a raw OverflowError
    with pytest.raises(ValidationError, match="^sideband_rates: .* overflows"):
        pc.sideband_rates(1.0, 1e200, 1.0, 1.0)


def test_backaction_limit_values_and_warning():
    kappa = TWO_PI * 1.0e6
    omega = TWO_PI * 1.0e7
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        limit = pc.quantum_backaction_limit(kappa, omega)
    assert not log  # deep in the resolved sideband regime, no complaint
    assert limit == pytest.approx(2.5e-3, rel=1e-15)
    with pytest.warns(UserWarning, match="resolved sideband"):
        bad = pc.quantum_backaction_limit(omega, omega)
    assert bad == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(ValidationError):
        pc.quantum_backaction_limit(-1.0, omega)
    with pytest.raises(ValidationError, match="^linewidth: must be finite"):
        pc.quantum_backaction_limit(math.nan, omega)
    with pytest.raises(ValidationError, match="^mech_freq: must be finite"):
        pc.quantum_backaction_limit(kappa, math.inf)


def model_with_couplings(setup, theta, couplings, detuning_sign=1.0):
    """Two-node network at the device's polaritons at ``theta`` with effective
    couplings G_j given.

    In approx mode G_j = 2 G_0j |M| and the matter amplitude M does not
    depend on G_0j, so the bare couplings set the effective ones; a negative
    ``detuning_sign`` puts both polaritons on the blue side of the drive.
    """
    basis = pair_at(setup, theta)
    s, c = math.sin(basis.theta), math.cos(basis.theta)
    nodes = (
        pc.NetworkPolariton(basis.upper_freq, basis.upper_linewidth, s,
                            detuning_sign * basis.detuning_upper),
        pc.NetworkPolariton(basis.lower_freq, basis.lower_linewidth, c,
                            detuning_sign * basis.detuning_lower),
    )
    drive = pc.NetworkDrive(setup._tuned(theta)[2], setup.rabi_freq, setup.bath_temperature)
    matter = setup.rabi_freq * abs(s * s / basis.detuning_upper + c * c / basis.detuning_lower)
    mechs = tuple(dataclasses.replace(m, bare_coupling=g / (2.0 * matter))
                  for m, g in zip(setup.mechanical_modes, couplings))
    model = pc.build_network(nodes, mechs, drive)
    assert np.allclose(np.abs(model.averages.effective_couplings), couplings, rtol=1e-12, atol=0)
    return model


def test_weak_coupling_flag_threshold():
    setup = make_base_setup()
    basis = pair_at(setup, 0.7)
    kappa_min = min(basis.upper_linewidth, basis.lower_linewidth)
    s, c = math.sin(basis.theta), math.cos(basis.theta)
    w_max = max(s, c)
    below = 0.49 * kappa_min / w_max
    above = 0.51 * kappa_min / w_max
    rates_ok = pc.network_cooling(model_with_couplings(setup, 0.7, (below, below)))
    rates_bad = pc.network_cooling(model_with_couplings(setup, 0.7, (above, below)))
    assert all(r.weak_coupling for r in rates_ok)
    assert not rates_bad[0].weak_coupling
    assert rates_bad[1].weak_coupling


def test_n_eff_approaches_thermal_as_coupling_vanishes():
    setup = make_base_setup()
    rates = pc.network_cooling(model_with_couplings(setup, 0.7, (1e-6, 1e-6)))
    for rate, mech in zip(rates, setup.mechanical_modes):
        nbar = pc.thermal_occupation(mech.freq, setup.bath_temperature)
        assert rate.n_eff == pytest.approx(nbar, rel=1e-6)
        assert rate.n_eff_all == pytest.approx(nbar, rel=1e-6)
        assert rate.kappa_eff == pytest.approx(mech.damping, rel=1e-6)


def test_n_eff_infinite_under_net_heating():
    # flip to blue detuning: Stokes resonant, net damping goes negative
    rates = pc.network_cooling(model_with_couplings(make_base_setup(), 0.6, (2e6, 2e6),
                                                    detuning_sign=-1.0))
    assert math.isinf(rates[0].n_eff)
    assert math.isinf(rates[0].n_eff_all)
    assert rates[0].kappa_eff < 0.0


def test_analytic_matches_lyapunov_in_weak_coupling():
    """The two routes are fully independent; they must agree where both hold."""
    setup = make_base_setup(rabi_freq=0.3 * make_base_setup().rabi_freq)
    for theta in (0.4, 0.25 * math.pi, 1.05):
        _, model = setup.working_point(theta)
        state = pc.steady_state(model)
        rates = pc.network_cooling(model)
        assert all(r.weak_coupling for r in rates)
        for j, rate in enumerate(rates):
            numeric = state.occupations[2 + j]
            assert abs(rate.n_eff_all - numeric) < 0.10 * numeric


def test_mode_competition_ratio_follows_cot_squared():
    """With fixed couplings at tuned detunings the cross-rate ratio is cot^2."""
    setup = make_base_setup()
    om1 = setup.mechanical_modes[0].freq
    om2 = setup.mechanical_modes[1].freq
    g_fixed = TWO_PI * 2.0e5
    thetas = np.linspace(0.15, math.pi / 2 - 0.15, 50)
    ratios = []
    for theta in thetas:
        basis = pair_at(setup, float(theta))
        s, c = math.sin(basis.theta), math.cos(basis.theta)
        # mode 1 anti-Stokes through the lower polariton
        _, a_l1 = pc.sideband_rates(g_fixed * c, basis.lower_linewidth,
                                    basis.detuning_lower, om1)
        # mode 2 anti-Stokes through the upper polariton
        _, a_u2 = pc.sideband_rates(g_fixed * s, basis.upper_linewidth,
                                    basis.detuning_upper, om2)
        ratios.append(a_l1 / a_u2)
    ratios = np.asarray(ratios)
    assert np.all(np.diff(ratios) < 0.0)
    # resonant at tuned detunings and equal linewidths: ratio = (c/s)^2 exactly
    expected = 1.0 / np.tan(thetas) ** 2
    assert np.allclose(ratios, expected, rtol=1e-10)


# ---------------------------------------------------------------------------
# the one-pass rates against the oracle that checks every rate first

RATE = st.sampled_from([1e3, 1e6]) | st.floats(1e2, 1e8)  # a linewidth or damping
# at or past an edge: not positive, NaN, or so large that a square overflows
# (1e154 overflows only when 4 (kappa^2 + ...) is formed, to inf, not raising)
EDGE_RATE = st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, 1e154, 1e160, 1e300])
# a detuning of -1e6 or -1e7 on a mode of that frequency heats it
FREQ = st.sampled_from([0.0, 1e6, -1e6, 1e7, -1e7]) | st.floats(-1e9, 1e9)
EDGE_FREQ = st.sampled_from([1e154, 1e160])
COUPLING = st.sampled_from([0.0, -0.0, 1e5, 1e7]) | st.floats(-1e8, 1e8)
EDGE_COUPLING = st.sampled_from([1e160, -1e300])  # its square overflows to inf


@st.composite
def cooling_values(draw):
    """(n_p, n_m, values) of a network of 1-4 polaritons and 1-4 mechanical modes
    in the order of ``dynamics._pattern``; about one rate, frequency and coupling
    in sixteen is at an edge."""
    n_p, n_m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def edge() -> bool:
        return draw(st.integers(0, 15)) == 0

    values = []
    for _ in range(n_p + n_m):
        rate = draw(EDGE_RATE if edge() else RATE)
        freq = draw(EDGE_FREQ if edge() else FREQ)
        noise = draw(st.sampled_from([0.0, 1e300, math.nan]) | st.floats(0.0, 1e12))
        values += [-rate, freq, -freq, noise]
    values += [draw(st.floats(-1e6, 0.0)) for _ in range(n_p * (n_p - 1))]  # not read
    for _ in range(n_m * n_p):
        g = draw(EDGE_COUPLING if edge() else COUPLING)
        values += [-g, g]
    return n_p, n_m, values


def outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=cooling_values())
def test_network_cooling_equals_the_oracle_by_repr(case):
    n_p, n_m, values = case
    _, drift, diffusion = dynamics._stack(n_p, n_m, [values])
    layout = tuple(f"p{k + 1}" for k in range(n_p)) + tuple(f"b{j + 1}" for j in range(n_m))
    # a LinearModel would reject the NaN and infinite entries that reach the core here
    model = types.SimpleNamespace(drift=drift[0], diffusion=diffusion[0], mode_layout=layout)
    assert outcome(lambda: pc.network_cooling(model)) == outcome(
        lambda: cooling(values, n_p, n_m))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=cooling_values())
def test_the_sweep_rates_core_equals_the_oracle_by_repr(case):
    # what a sweep row reads of each mode, and the dominant polariton, without
    # the per-polariton rates that only network_cooling forms
    n_p, n_m, values = case
    assert outcome(lambda: analytics._rates(values, n_p, n_m)) == outcome(
        lambda: [(r.kappa_eff, r.n_eff, r.weak_coupling, r.dominant)
                 for r in cooling(values, n_p, n_m)])
