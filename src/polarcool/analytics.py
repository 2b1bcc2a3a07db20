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

from .dynamics import LinearModel, _values
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
    """:func:`sideband_rates` of finite values and a positive linewidth.

    The rates stay scalar, point by point: no numpy form keeps their bits.
    ``x ** 2`` on a float calls C ``pow``, which differs from ``x * x`` (what
    numpy's ``a ** 2`` computes) on 2514 of 3,000,000 random doubles of
    magnitude 2^-60 to 2^60, and numpy's ``power`` with an array exponent
    (SIMD code on an AVX-512 host) differs from C ``pow`` on 54,783 of
    2,000,000 (numpy 2.4.6, seed 0).
    """
    g2 = coupling * coupling
    try:
        stokes = linewidth * g2 / (4.0 * (linewidth**2 + (detuning + mech_freq) ** 2))
        anti = linewidth * g2 / (4.0 * (linewidth**2 + (detuning - mech_freq) ** 2))
    except OverflowError:  # float ** 2 raises instead of giving inf
        raise ValidationError(
            "sideband_rates: linewidth^2 + (detuning +- mech_freq)^2 overflows"
        ) from None
    except ZeroDivisionError:  # the linewidth's square underflows on an exact resonance
        raise ValidationError(
            "sideband_rates: linewidth^2 + (detuning +- mech_freq)^2 underflows to 0"
        ) from None
    return stokes, anti


def network_cooling(model: LinearModel) -> tuple[CoolingRates, ...]:
    """Cooling rates read directly off a linear model's drift and diffusion.

    Works for any number of polaritons: block parameters (linewidths,
    detunings, couplings, mechanical frequencies) come from the drift, bath
    occupations from the diffusion diagonal, so the estimate refers to
    exactly the system the covariance solver sees. The model's matrices are
    finite, as its construction checked. A wrapper: the values that fill the
    matrices (:func:`~polarcool.dynamics._values`), then :func:`_cooling`.
    """
    # any record with the three fields is read; a value without them is named
    if not all(hasattr(model, name) for name in ("mode_layout", "drift", "diffusion")):
        raise ValidationError(f"model: expected a LinearModel, got {model!r}")
    n_p = sum(1 for name in model.mode_layout if not name.startswith("b"))
    n_m = len(model.mode_layout) - n_p
    return _cooling(_values(model, n_p, n_m), n_p, n_m)


def _cooling(values: list, n_p: int, n_m: int) -> tuple[CoolingRates, ...]:
    """:func:`network_cooling` of the values that fill a drift and diffusion, as
    plain floats, and the counts of polariton and mechanical modes: kappa_eff,
    n_eff, the weak-coupling verdict and the dominant polariton of :func:`_rates`,
    which a sweep point runs alone, then the per-polariton rates and ``n_eff_all``.
    """
    rates = _rates(values, n_p, n_m)  # checks every value this function reads
    linewidths, detunings = _nodes(values, n_p)
    out = []
    for j, (kappa_eff, n_eff, weak, dominant) in enumerate(rates):
        mech_damping, nbar, mech_freq, couplings = _mode(values, n_p, n_m, j)
        stokes, anti, stokes_sum = [], [], 0.0
        for g, kappa, det in zip(couplings, linewidths, detunings):
            s_k, a_k = _sideband_rates(g, kappa, det, mech_freq)
            stokes.append(s_k)
            anti.append(a_k)
            stokes_sum += s_k
        n_eff_all = (math.inf if kappa_eff <= 0.0
                     else (mech_damping * nbar + stokes_sum) / kappa_eff)
        out.append(CoolingRates(j, tuple(stokes), tuple(anti),
                                tuple(a_k - s_k for s_k, a_k in zip(stokes, anti)),
                                kappa_eff, n_eff, n_eff_all, dominant, weak))
    return tuple(out)


def _nodes(values: list, n_p: int) -> tuple[list, list]:
    """(linewidths, detunings) of the polaritons in the values that fill a drift
    and diffusion, laid out as :func:`~polarcool.dynamics._pattern` says."""
    return [-values[4 * k] for k in range(n_p)], values[1:4 * n_p:4]


def _mode(values: list, n_p: int, n_m: int, j: int) -> tuple:
    """(damping, thermal occupation, frequency, couplings -G_j w_k to the
    polaritons) of mechanical mode ``j`` in the values, its damping checked."""
    m = 4 * (n_p + j)
    mech_damping = -values[m]
    if not 0.0 < mech_damping < math.inf:  # check_real's test, so it raises with its message
        check_real(f"model: mechanical mode {j} damping", mech_damping, above=0.0)
    start = 4 * (n_p + n_m) + n_p * (n_p - 1) + 2 * j * n_p
    return (mech_damping, values[m + 3] / (2.0 * mech_damping) - 0.5, values[m + 1],
            values[start:start + 2 * n_p:2])


def _rates(values: list, n_p: int, n_m: int) -> list[tuple]:
    """Per mechanical mode, (kappa_eff, n_eff, weak_coupling, dominant) of
    :func:`_cooling` from the values that fill a drift and diffusion, as
    plain floats, and the counts of polariton and mechanical modes.

    One pass over a mode's couplings keeps only the running net-rate sum and the
    dominant polariton's rates, so no per-polariton list is formed. The sum adds
    left to right from 0.0.
    """
    if n_m == 0:
        raise ValidationError("model: no mechanical modes in layout")
    linewidths, detunings = _nodes(values, n_p)
    for k, kappa in enumerate(linewidths):
        if not 0.0 < kappa < math.inf:
            check_real(f"model: polariton {k} linewidth", kappa, above=0.0)
    out = []
    for j in range(n_m):
        mech_damping, nbar, mech_freq, couplings = _mode(values, n_p, n_m, j)
        net_sum = top_s = top_a = 0.0
        dominant, weak = 0, True
        # each coupling is -G_j w_k, whose sign drops out of g^2 and |g|
        for k, (g, kappa, det) in enumerate(zip(couplings, linewidths, detunings)):
            s_k, a_k = _sideband_rates(g, kappa, det, mech_freq)
            if abs(g) > 0.5 * kappa:
                weak = False
            if not k or a_k > top_a:  # the first largest anti-Stokes rate, as max() finds it
                dominant, top_s, top_a = k, s_k, a_k
            net_sum += a_k - s_k
        # n = (gamma nbar + extra noise) / (gamma + extra damping), inf where that damping is <= 0
        n_eff = nbar
        if n_p:
            denom = mech_damping + (top_a - top_s)
            n_eff = math.inf if denom <= 0.0 else (mech_damping * nbar + top_s) / denom
        out.append((mech_damping + net_sum, n_eff, weak, dominant))
    return out


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
