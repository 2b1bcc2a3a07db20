"""Closed-form sideband-cooling estimates for cross-checking the covariance route.

Each polariton acts on each mechanical mode as a structured bath, scattering
drive quanta to its red (anti-Stokes) and blue (Stokes) sidebands. The rate
asymmetry gives an extra mechanical damping and a radiation-pressure noise
floor; both follow from the drift and diffusion parameters alone, so
:func:`network_cooling` reads them off any :class:`~polarcool.dynamics.LinearModel`
(two polaritons or N) and agreement with the Lyapunov-solver occupations is
a nontrivial consistency check in the weak-coupling regime and a quantified
divergence outside it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .dynamics import LinearModel
from .errors import ValidationError, check_real


@dataclass(frozen=True)
class CoolingRates:
    """Per-mechanical-mode scattering rates and occupation estimates.

    ``stokes``/``anti_stokes``/``net`` carry one entry per polariton
    (net = anti_stokes - stokes, the polariton's damping contribution).
    ``n_eff`` keeps only the dominant polariton (largest anti-Stokes rate),
    ``n_eff_all`` sums all of them; either is math.inf when the net rates
    turn the mode's total damping nonpositive (runaway heating, no steady
    occupation in this approximation). ``weak_coupling`` is False when any
    effective coupling exceeds half its polariton linewidth, where these
    perturbative forms are known to degrade.
    """

    mode_index: int
    stokes: tuple[float, ...]
    anti_stokes: tuple[float, ...]
    net: tuple[float, ...]
    kappa_eff: float
    n_eff: float
    n_eff_all: float
    dominant: int
    weak_coupling: bool


def sideband_rates(
    coupling: float, linewidth: float, detuning: float, mech_freq: float
) -> tuple[float, float]:
    """(Stokes, anti-Stokes) rates of one polariton on one mechanical mode.

    A_pm = kappa g^2 / (4 [kappa^2 + (Delta pm omega)^2]); red detuning
    (Delta ~ +omega) makes the anti-Stokes term resonant and cools.
    """
    return _sideband_rates(check_real("coupling", coupling),
                           check_real("linewidth", linewidth, above=0.0),
                           check_real("detuning", detuning),
                           check_real("mech_freq", mech_freq))


def _sideband_rates(
    coupling: float, linewidth: float, detuning: float, mech_freq: float
) -> tuple[float, float]:
    """:func:`sideband_rates` of finite values and a positive linewidth."""
    g2 = coupling * coupling
    try:
        stokes = linewidth * g2 / (4.0 * (linewidth**2 + (detuning + mech_freq) ** 2))
        anti = linewidth * g2 / (4.0 * (linewidth**2 + (detuning - mech_freq) ** 2))
    except OverflowError:  # float ** 2 raises instead of giving inf
        raise ValidationError(
            "sideband_rates: linewidth^2 + (detuning +- mech_freq)^2 overflows"
        ) from None
    return stokes, anti


def _rates_for_mode(
    mode_index: int,
    mech_damping: float,
    mech_occupation: float,
    couplings: tuple[float, ...],
    linewidths: tuple[float, ...],
    detunings: tuple[float, ...],
    mech_freq: float,
) -> CoolingRates:
    stokes, anti = [], []
    weak = True
    for g, kappa, det in zip(couplings, linewidths, detunings):
        s_k, a_k = _sideband_rates(g, kappa, det, mech_freq)
        stokes.append(s_k)
        anti.append(a_k)
        if abs(g) > 0.5 * kappa:
            weak = False
    net = [a - s for a, s in zip(anti, stokes)]
    kappa_eff = mech_damping + sum(net)
    dominant = anti.index(max(anti)) if anti else 0
    # n = (gamma nbar + extra noise) / (gamma + extra damping), inf where that damping is <= 0
    base = mech_damping * mech_occupation
    n_eff = mech_occupation
    if anti:
        denom = mech_damping + net[dominant]
        n_eff = math.inf if denom <= 0.0 else (base + stokes[dominant]) / denom
    n_eff_all = math.inf if kappa_eff <= 0.0 else (base + sum(stokes)) / kappa_eff
    return CoolingRates(
        mode_index=mode_index,
        stokes=tuple(stokes),
        anti_stokes=tuple(anti),
        net=tuple(net),
        kappa_eff=kappa_eff,
        n_eff=n_eff,
        n_eff_all=n_eff_all,
        dominant=dominant,
        weak_coupling=weak,
    )


def network_cooling(model: LinearModel) -> tuple[CoolingRates, ...]:
    """Cooling rates read directly off a linear model's drift and diffusion.

    Works for any number of polaritons: block parameters (linewidths,
    detunings, couplings, mechanical frequencies) come from the drift, bath
    occupations from the diffusion diagonal, so the estimate refers to
    exactly the system the covariance solver sees. The model's matrices are
    finite, as its construction checked.
    """
    n_p = sum(1 for name in model.mode_layout if not name.startswith("b"))
    n_m = len(model.mode_layout) - n_p
    if n_m == 0:
        raise ValidationError("model: no mechanical modes in layout")
    # nested lists: entry reads are far cheaper than numpy scalar indexing
    r, d_diag = model.drift.tolist(), model.diffusion.diagonal().tolist()
    linewidths = tuple(check_real(f"model: polariton {k} linewidth", -r[2 * k][2 * k], above=0.0)
                       for k in range(n_p))
    detunings = tuple(r[2 * k][2 * k + 1] for k in range(n_p))
    out = []
    for j in range(n_m):
        i = 2 * (n_p + j)
        mech_freq = r[i][i + 1]
        mech_damping = check_real(f"model: mechanical mode {j} damping", -r[i][i], above=0.0)
        nbar = d_diag[i] / (2.0 * mech_damping) - 0.5
        couplings = tuple(-r[2 * k][i] for k in range(n_p))
        out.append(_rates_for_mode(
            j, mech_damping, nbar, couplings, linewidths, detunings, mech_freq
        ))
    return tuple(out)


def quantum_backaction_limit(linewidth: float, mech_freq: float) -> float:
    """Minimum occupation of ideal resolved-sideband cooling, kappa^2/(4 omega^2).

    Emits a warning above 0.01, where the drive sits outside the resolved
    sideband regime and the limit stops being a useful target.
    """
    linewidth = check_real("linewidth", linewidth, above=0.0)
    mech_freq = check_real("mech_freq", mech_freq, above=0.0)
    limit = linewidth**2 / (4.0 * mech_freq**2)
    if limit > 1e-2:
        warnings.warn(
            f"backaction limit {limit:.3g} > 0.01: outside the resolved sideband regime",
            stacklevel=2,
        )
    return limit
