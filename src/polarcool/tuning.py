"""Working-point selection: hit mechanical sidebands with polariton detunings.

A :class:`Device` is tuned one of two ways. For an angle-tuned pair the
two-mode transform is exact and closed-form: given a mixing angle it
returns the photon-matter coupling, matter frequency and drive frequency
that place the lower polariton at detuning omega_1 and the upper at omega_2.
A device with fixed couplings is inverted numerically instead (least
squares over the matter frequencies, once per device), since no closed form
exists beyond one matter mode. Sweeps and a derivative-free optimizer sit
on top.
"""
from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytics import network_cooling
from .dynamics import (
    LinearModel,
    MatterMode,
    NetworkDrive,
    NetworkPolariton,
    PolaritonMode,
    build_linear_model,
    build_network,
    photon_matter_diagonalize,
)
from .errors import SolverError, UnstableSystemError, ValidationError, check_real
from .model import MechanicalMode, SystemParams
from .steadystate import steady_state


@dataclass(frozen=True)
class TuneResult:
    """Two-mode working point: what to set so the detunings equal the targets."""

    theta: float
    photon_matter_coupling: float
    cavity_magnon_detuning: float
    magnon_freq: float
    drive_freq: float
    detuning_upper: float
    detuning_lower: float


def tune_two_mode(
    cavity_freq: float, target_lower: float, target_upper: float, theta: float
) -> TuneResult:
    """Closed-form inverse of the polariton transform.

    With splitting S = target_upper - target_lower the choices
    g = (S/2) sin(2 theta), omega_m = omega_a - S cos(2 theta) and
    omega_0 = (omega_a + omega_m)/2 - (target_upper + target_lower)/2
    give detunings (target_upper, target_lower) exactly, for any
    theta in the open interval (0, pi/2).
    """
    theta = check_real("theta", theta, above=0.0, below=0.5 * math.pi)
    target_lower = check_real("targets", target_lower, above=0.0)
    target_upper = check_real("targets", target_upper, above=target_lower)
    cavity_freq = check_real("cavity_freq", cavity_freq, above=0.0)
    coupling, detuning_am, magnon_freq, drive_freq = _tune(
        cavity_freq, target_lower, target_upper, theta
    )
    return TuneResult(
        theta=theta,
        photon_matter_coupling=coupling,
        cavity_magnon_detuning=detuning_am,
        magnon_freq=check_real("magnon_freq", magnon_freq, above=0.0),
        drive_freq=drive_freq,
        detuning_upper=target_upper,
        detuning_lower=target_lower,
    )


def _tune(cavity_freq, target_lower, target_upper, theta) -> tuple[float, float, float, float]:
    """(coupling, cavity-magnon detuning, magnon and drive frequency) of checked targets."""
    split = target_upper - target_lower
    coupling = 0.5 * split * math.sin(2.0 * theta)
    detuning_am = split * math.cos(2.0 * theta)
    magnon_freq = cavity_freq - detuning_am
    drive_freq = 0.5 * (cavity_freq + magnon_freq) - 0.5 * (target_upper + target_lower)
    return coupling, detuning_am, magnon_freq, drive_freq


def _entries(name: str, value) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{name}: expected a sequence, got {value!r}") from None


@dataclass(frozen=True)
class Device:
    """Everything fixed about a device except the working point.

    One cavity, N - 1 matter modes and N >= 2 mechanical modes in increasing
    frequency; polariton k is to sit on the sideband of mechanical mode k.
    With ``couplings`` empty the device is an angle-tuned pair (N = 2): the
    mixing angle of each working point sets the photon-matter coupling and
    the matter and drive frequencies in closed form (:meth:`params_at`).
    Otherwise ``couplings`` holds the N - 1 fixed cavity-matter couplings,
    and :func:`tune_n_mode` places the polaritons once per device
    (:attr:`tuning`), so its working points take no angle.
    """

    cavity_freq: float
    cavity_linewidth: float
    matter_linewidths: tuple[float, ...]
    mechanical_modes: tuple[MechanicalMode, ...]
    bath_temperature: float
    rabi_freq: float
    couplings: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in ("matter_linewidths", "mechanical_modes", "couplings"):
            object.__setattr__(self, name, _entries(name, getattr(self, name)))
        for name in ("cavity_freq", "cavity_linewidth"):
            check_real(name, getattr(self, name), above=0.0)
        for name in ("matter_linewidths", "couplings"):
            for i, value in enumerate(getattr(self, name)):
                check_real(f"{name}[{i}]", value, above=0.0)
        check_real("bath_temperature", self.bath_temperature, at_least=0.0)
        check_real("rabi_freq", self.rabi_freq, at_least=0.0)
        for j, m in enumerate(self.mechanical_modes):
            m.validate(path=f"mechanical_modes[{j}]")
        n = len(self.mechanical_modes)
        if n < 2:
            raise ValidationError(f"mechanical_modes: need at least 2, got {n}")
        if not self.couplings and n != 2:
            raise ValidationError(
                f"mechanical_modes: an angle-tuned device (no couplings) needs exactly 2, got {n}"
            )
        freqs = [m.freq for m in self.mechanical_modes]
        if any(a >= b for a, b in zip(freqs, freqs[1:])):
            raise ValidationError("mechanical_modes: must be ordered by increasing frequency")
        if len(self.matter_linewidths) != n - 1:
            raise ValidationError(f"matter_linewidths: need {n - 1} entries for {n} mechanical"
                                  f" modes, got {len(self.matter_linewidths)}")
        if self.couplings and len(self.couplings) != n - 1:
            raise ValidationError(f"couplings: need {n - 1} entries for {n} mechanical"
                                  f" modes, got {len(self.couplings)}")

    def _needs_angle(self, what: str) -> None:
        if self.couplings:
            raise ValidationError(
                f"{what}: needs an angle-tuned device, this one has fixed couplings"
            )

    def params_at(
        self,
        theta: float,
        temperature: float | None = None,
        rabi: float | None = None,
    ) -> SystemParams:
        """Tuned parameters at mixing angle ``theta``; the overrides replace the device's own."""
        self._needs_angle("params_at")
        # the device was checked when it was built; SystemParams checks the tuned values
        coupling, _, magnon_freq, drive_freq = _tune(
            self.cavity_freq,
            self.mechanical_modes[0].freq,
            self.mechanical_modes[1].freq,
            check_real("theta", theta, above=0.0, below=0.5 * math.pi),
        )
        return SystemParams(
            cavity_freq=self.cavity_freq,
            magnon_freq=magnon_freq,
            photon_matter_coupling=coupling,
            cavity_linewidth=self.cavity_linewidth,
            magnon_linewidth=self.matter_linewidths[0],
            mechanical_modes=self.mechanical_modes,
            drive_freq=drive_freq,
            rabi_freq=self.rabi_freq if rabi is None else rabi,
            bath_temperature=(
                self.bath_temperature if temperature is None else temperature
            ),
        )

    @cached_property
    def tuning(self) -> NModeResult:
        """Matter and drive frequencies of a fixed-coupling device, found on first use."""
        return tune_n_mode(
            self.cavity_freq,
            [m.freq for m in self.mechanical_modes],
            self.couplings,
            self.cavity_linewidth,
            self.matter_linewidths,
        )

    def working_point(
        self,
        theta: float | None = None,
        temperature: float | None = None,
        rabi: float | None = None,
        mode: str = "approx",
    ) -> tuple[SystemParams | NModeResult, LinearModel]:
        """(tuning, linear model) of one working point, averages in ``mode``.

        The tuning is :meth:`params_at`, or the fixed-coupling device's
        :attr:`tuning`, which ignores ``theta``. Its network is driven and
        strained through the first matter mode, so each node's weight is that
        component of its eigenvector; the nodes share the dissipative
        couplings of their bare losses.
        """
        if not self.couplings:
            params = self.params_at(theta, temperature=temperature, rabi=rabi)
            return params, build_linear_model(params, mode=mode)
        tuned = self.tuning
        polaritons = tuple(
            NetworkPolariton(freq=p.freq, linewidth=p.linewidth, weight=p.weights[1])
            for p in tuned.polaritons
        )
        drive = NetworkDrive(
            drive_freq=tuned.drive_freq,
            rabi_freq=self.rabi_freq if rabi is None else rabi,
            bath_temperature=self.bath_temperature if temperature is None else temperature,
        )
        cross = [p.cross_damping for p in tuned.polaritons]
        return tuned, build_network(polaritons, self.mechanical_modes, drive, cross, mode)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_VARIABLES = ("theta", "temperature", "rabi")


@dataclass(frozen=True)
class SweepRow:
    """One working point of a sweep; NaNs where the solve did not produce a value."""

    variable: float
    theta: float
    coupling: float
    magnon_freq: float
    drive_freq: float
    kappa_eff: tuple[float, ...]
    n_analytic: tuple[float, ...]
    n_numeric: tuple[float, ...]
    stable: bool
    flags: tuple[str, ...]


def solve_model(model: LinearModel) -> tuple:
    """(rates, steady state, flags, mechanical occupations) of one working point.

    An unstable model is flagged, not raised, and its occupations are NaN. The
    flags, in order: ``unstable``, ``ill_conditioned``, ``weak_coupling_broken``.
    """
    rates = network_cooling(model)
    state = steady_state(model, require_stable=False)
    flags = []
    if not state.stable:
        flags.append("unstable")
    if state.condition_flag:
        flags.append("ill_conditioned")
    if any(not r.weak_coupling for r in rates):
        flags.append("weak_coupling_broken")
    return rates, state, tuple(flags), state.occupations[len(model.averages.avg_polaritons):]


def _tuning_flags(tuning, flags: tuple[str, ...]) -> tuple[str, ...]:
    """``flags`` plus ``tuning_not_converged`` where a fixed-coupling tuning missed its sidebands."""
    if isinstance(tuning, NModeResult) and not tuning.converged:
        return flags + ("tuning_not_converged",)
    return flags


def evaluate_point(
    setup: Device,
    theta: float | None = None,
    temperature: float | None = None,
    rabi: float | None = None,
    averages: str = "approx",
) -> SweepRow:
    """Solve one tuned working point end to end (analytic rates + covariance).

    A fixed-coupling device takes no angle: its row's theta, coupling and
    magnon_freq are NaN, and a tuning that did not converge adds the flag
    ``tuning_not_converged`` after those of :func:`solve_model`. A
    ValidationError or SolverError comes back as an ``error:<Type>`` row.
    """
    fixed = bool(setup.couplings)
    if fixed:
        theta = math.nan
    try:
        tuning, model = setup.working_point(theta, temperature, rabi, averages)
        rates, state, flags, n_numeric = solve_model(model)
    except (ValidationError, SolverError) as exc:
        nans = (math.nan,) * len(setup.mechanical_modes)
        return SweepRow(
            variable=math.nan,
            theta=theta,
            coupling=math.nan,
            magnon_freq=math.nan,
            drive_freq=math.nan,
            kappa_eff=nans,
            n_analytic=nans,
            n_numeric=nans,
            stable=False,
            flags=(f"error:{type(exc).__name__}",),
        )
    return SweepRow(
        variable=math.nan,
        theta=theta,
        coupling=math.nan if fixed else tuning.photon_matter_coupling,
        magnon_freq=math.nan if fixed else tuning.magnon_freq,
        drive_freq=tuning.drive_freq,
        kappa_eff=tuple(r.kappa_eff for r in rates),
        n_analytic=tuple(r.n_eff for r in rates),
        n_numeric=n_numeric,
        stable=state.stable,
        flags=_tuning_flags(tuning, flags),
    )


def sweep(
    setup: Device,
    variable: str,
    grid,
    theta: float | None = None,
    averages: str = "approx",
    threads: int = 1,
    require_stable: bool = False,
) -> tuple[SweepRow, ...]:
    """Evaluate a 1-D grid of working points, order-preserving.

    ``variable`` is one of "theta", "temperature", "rabi". A theta sweep
    needs an angle-tuned device; the other sweeps hold its mixing angle
    fixed at ``theta``, which a fixed-coupling device does not take. Grid
    entries must be finite numbers; a point that fails validation (an angle
    outside (0, pi/2)) or the solve is recorded in the row's flags rather
    than raised; an unstable point raises UnstableSystemError only under
    require_stable=True.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValidationError(f"variable: expected one of {SWEEP_VARIABLES}, got {variable!r}")
    if variable == "theta":
        setup._needs_angle("variable theta")
    elif not setup.couplings:
        theta = check_real("theta", theta, above=0.0, below=0.5 * math.pi)
    try:
        items = list(grid)
    except TypeError:
        raise ValidationError(f"grid: expected an iterable of numbers, got {grid!r}") from None
    values = [check_real(f"grid[{i}]", v) for i, v in enumerate(items)]
    if not values:
        raise ValidationError("grid: must not be empty")
    if threads < 1:
        raise ValidationError("threads: must be at least 1")

    def solve_one(value: float) -> SweepRow:
        # the sweep variables are evaluate_point's keywords; a theta sweep
        # overrides the fixed angle
        row = evaluate_point(setup, averages=averages, **{"theta": theta, variable: value})
        # the row is new and not yet shared: set its grid value in place, as a
        # frozen dataclass's own __init__ does, instead of rebuilding it
        object.__setattr__(row, "variable", value)
        return row

    if threads == 1:
        rows = [solve_one(v) for v in values]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(solve_one, values))
    if require_stable:
        for row in rows:
            if not row.stable:
                raise UnstableSystemError(
                    f"sweep point {variable}={row.variable:.6g} is unstable"
                )
    return tuple(rows)


# ---------------------------------------------------------------------------
# optimization

OPTIMIZE_OBJECTIVES = ("max", "mode1", "mode2")


@dataclass(frozen=True)
class OptimizeResult:
    theta: float
    value: float
    occupations: tuple[float, ...]
    evaluations: int
    converged: bool
    trace: tuple[tuple[float, float], ...]


def optimize_theta(
    setup: Device,
    objective: str = "max",
    temperature: float | None = None,
    rabi: float | None = None,
    averages: str = "approx",
    bounds: tuple[float, float] = (1e-3, 0.5 * math.pi - 1e-3),
    coarse_points: int = 33,
    tol: float = 1e-6,
) -> OptimizeResult:
    """Minimize a steady-state occupation over the mixing angle.

    Deterministic two-stage search: a coarse grid over ``bounds`` followed by
    a compass (step-halving) refinement from the best grid point. Unstable or
    failed points score +inf, so the optimizer simply walks around them.
    ``objective`` selects max(n_1, n_2) or a single mode's occupation.
    """
    setup._needs_angle("optimize_theta")
    if objective not in OPTIMIZE_OBJECTIVES:
        raise ValidationError(
            f"objective: expected one of {OPTIMIZE_OBJECTIVES}, got {objective!r}"
        )
    try:
        lo, hi = bounds
    except (TypeError, ValueError):
        raise ValidationError(f"bounds: expected a (lo, hi) pair, got {bounds!r}") from None
    lo = check_real("bounds[0]", lo, above=0.0)
    hi = check_real("bounds[1]", hi, above=lo, below=0.5 * math.pi)
    if (not isinstance(coarse_points, numbers.Integral) or isinstance(coarse_points, bool)
            or coarse_points < 3):
        raise ValidationError(f"coarse_points: expected an integer >= 3, got {coarse_points!r}")
    tol = check_real("tol", tol, above=0.0)
    if temperature is not None:
        check_real("temperature", temperature, at_least=0.0)
    if rabi is not None:
        check_real("rabi", rabi, at_least=0.0)
    pick = {"max": lambda n: max(n), "mode1": lambda n: n[0], "mode2": lambda n: n[1]}[objective]

    cache: dict[float, tuple[float, tuple[float, float]]] = {}

    def score(theta: float) -> float:
        if theta in cache:
            return cache[theta][0]
        row = evaluate_point(setup, theta, temperature=temperature, rabi=rabi, averages=averages)
        value = pick(row.n_numeric) if row.stable else math.inf
        if not math.isfinite(value):
            value = math.inf
        cache[theta] = (value, row.n_numeric)
        return value

    grid = np.linspace(lo, hi, coarse_points)
    best = min(grid, key=score)
    trace = [(float(best), score(best))]

    step = float(grid[1] - grid[0])
    floor = tol * (hi - lo)
    while step > floor:
        moved = False
        for cand in (best - step, best + step):
            cand = min(max(cand, lo), hi)
            if score(cand) < score(best):
                best = cand
                trace.append((float(best), score(best)))
                moved = True
        if not moved:
            step *= 0.5

    value, occupations = cache[best]
    return OptimizeResult(
        theta=float(best),
        value=value,
        occupations=occupations,
        evaluations=len(cache),
        converged=math.isfinite(value),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# N-mode tuning


@dataclass(frozen=True)
class NModeResult:
    """Matter frequencies and drive placing N polaritons on N mechanical sidebands.

    ``residual`` is the largest detuning mismatch in rad/s; ``converged``
    reports the least-squares outcome instead of raising, so callers can
    inspect near-misses.
    """

    matter_freqs: tuple[float, ...]
    drive_freq: float
    polaritons: tuple[PolaritonMode, ...]
    residual: float
    converged: bool


def tune_n_mode(
    cavity_freq: float,
    mech_freqs,
    couplings,
    cavity_linewidth: float,
    matter_linewidths,
    initial_guess=None,
) -> NModeResult:
    """Choose N-1 matter frequencies so the N polariton detunings hit mech_freqs.

    The drive frequency is fixed by the trace identity
    omega_0 = (sum of polariton freqs - sum of mechanical freqs) / N, which
    makes the residual vector sum to zero; the remaining N-1 mismatch
    directions are driven to zero by least squares over the matter
    frequencies at fixed couplings.
    """
    cavity_freq = check_real("cavity_freq", cavity_freq, above=0.0)
    cavity_linewidth = check_real("cavity_linewidth", cavity_linewidth, above=0.0)
    mech = [check_real(f"mech_freqs[{i}]", w, above=0.0) for i, w in enumerate(mech_freqs)]
    gs = [check_real(f"couplings[{i}]", g, above=0.0) for i, g in enumerate(couplings)]
    kappas = [check_real(f"matter_linewidths[{i}]", k, above=0.0)
              for i, k in enumerate(matter_linewidths)]
    n = len(mech)
    if n < 2:
        raise ValidationError("mech_freqs: need at least two mechanical modes")
    if sorted(mech) != mech or len(set(mech)) != n:
        raise ValidationError("mech_freqs: must be strictly increasing")
    if len(gs) != n - 1 or len(kappas) != n - 1:
        raise ValidationError(
            f"couplings/matter_linewidths: need {n - 1} entries for {n} mechanical modes"
        )

    def modes_for(freqs: np.ndarray) -> tuple[MatterMode, ...]:
        return tuple(
            MatterMode(freq=f, coupling=g, linewidth=k)
            for f, g, k in zip(freqs, gs, kappas)
        )

    def residuals(freqs: np.ndarray) -> np.ndarray:
        pols = photon_matter_diagonalize(cavity_freq, modes_for(freqs), cavity_linewidth)
        p_freqs = np.array([p.freq for p in pols])
        drive = (p_freqs.sum() - sum(mech)) / n
        return (p_freqs - drive) - np.asarray(mech)

    if initial_guess is None:
        span = mech[-1] - mech[0]
        initial_guess = cavity_freq + np.linspace(-span / 3.0, span / 3.0, n - 1)
    if np.shape(initial_guess) != (n - 1,):
        raise ValidationError(
            f"initial_guess: expected {n - 1} entries, got shape {np.shape(initial_guess)}"
        )
    x0 = np.array([check_real(f"initial_guess[{i}]", v) for i, v in enumerate(initial_guess)])

    from scipy.optimize import least_squares  # heavy import, needed only here

    sol = least_squares(residuals, x0, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
    freqs = np.sort(sol.x)
    polaritons = photon_matter_diagonalize(cavity_freq, modes_for(freqs), cavity_linewidth)
    p_freqs = np.array([p.freq for p in polaritons])
    drive_freq = float((p_freqs.sum() - sum(mech)) / n)
    resid = float(np.abs((p_freqs - drive_freq) - np.asarray(mech)).max())
    converged = bool(sol.success) and resid <= 1e-6 * mech[-1]
    return NModeResult(
        matter_freqs=tuple(float(f) for f in freqs),
        drive_freq=drive_freq,
        polaritons=polaritons,
        residual=resid,
        converged=converged,
    )
