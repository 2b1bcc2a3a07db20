"""Sideband-rate formulas and their agreement with the covariance solver."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import polarcool as pc
from polarcool.errors import ValidationError

from helpers import TWO_PI, make_base_setup


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


def model_with_couplings(params, couplings, detuning_sign=1.0):
    """Two-node network at the params' polaritons with effective couplings G_j given.

    In approx mode G_j = 2 G_0j |M| and the matter amplitude M does not
    depend on G_0j, so the bare couplings set the effective ones; a negative
    ``detuning_sign`` puts both polaritons on the blue side of the drive.
    """
    basis = pc.diagonalize_polaritons(params)
    s, c = math.sin(basis.theta), math.cos(basis.theta)
    nodes = (
        pc.NetworkPolariton(basis.upper_freq, basis.upper_linewidth, s,
                            detuning_sign * basis.detuning_upper),
        pc.NetworkPolariton(basis.lower_freq, basis.lower_linewidth, c,
                            detuning_sign * basis.detuning_lower),
    )
    drive = pc.NetworkDrive(params.drive_freq, params.rabi_freq, params.bath_temperature)
    matter = params.rabi_freq * abs(s * s / basis.detuning_upper + c * c / basis.detuning_lower)
    mechs = tuple(dataclasses.replace(m, bare_coupling=g / (2.0 * matter))
                  for m, g in zip(params.mechanical_modes, couplings))
    model = pc.build_network(nodes, mechs, drive)
    assert np.allclose(np.abs(model.averages.effective_couplings), couplings, rtol=1e-12, atol=0)
    return model


def test_weak_coupling_flag_threshold():
    params = make_base_setup().params_at(0.7)
    basis = pc.diagonalize_polaritons(params)
    kappa_min = min(basis.upper_linewidth, basis.lower_linewidth)
    s, c = math.sin(basis.theta), math.cos(basis.theta)
    w_max = max(s, c)
    below = 0.49 * kappa_min / w_max
    above = 0.51 * kappa_min / w_max
    rates_ok = pc.network_cooling(model_with_couplings(params, (below, below)))
    rates_bad = pc.network_cooling(model_with_couplings(params, (above, below)))
    assert all(r.weak_coupling for r in rates_ok)
    assert not rates_bad[0].weak_coupling
    assert rates_bad[1].weak_coupling


def test_n_eff_approaches_thermal_as_coupling_vanishes():
    params = make_base_setup().params_at(0.7)
    rates = pc.network_cooling(model_with_couplings(params, (1e-6, 1e-6)))
    for rate, mech in zip(rates, params.mechanical_modes):
        nbar = pc.thermal_occupation(mech.freq, params.bath_temperature)
        assert rate.n_eff == pytest.approx(nbar, rel=1e-6)
        assert rate.n_eff_all == pytest.approx(nbar, rel=1e-6)
        assert rate.kappa_eff == pytest.approx(mech.damping, rel=1e-6)


def test_n_eff_infinite_under_net_heating():
    params = make_base_setup().params_at(0.6)
    # flip to blue detuning: Stokes resonant, net damping goes negative
    rates = pc.network_cooling(model_with_couplings(params, (2e6, 2e6), detuning_sign=-1.0))
    assert math.isinf(rates[0].n_eff)
    assert math.isinf(rates[0].n_eff_all)
    assert rates[0].kappa_eff < 0.0


def test_analytic_matches_lyapunov_in_weak_coupling():
    """The two routes are fully independent; they must agree where both hold."""
    setup = make_base_setup(rabi_freq=0.3 * make_base_setup().rabi_freq)
    for theta in (0.4, 0.25 * math.pi, 1.05):
        params = setup.params_at(theta)
        model = pc.build_linear_model(params)
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
        params = setup.params_at(float(theta))
        basis = pc.diagonalize_polaritons(params)
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
