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
from dataclasses import dataclass

import numpy as np

from .analytics import _cooling, _rates
from .dynamics import (
    LinearModel,
    MatterMode,
    PolaritonMode,
    _checked_stack,
    _model,
    _network,
    _node_detunings,
    _pair_nodes,
    _shift_coefficient,
    photon_matter_diagonalize,
)
from .errors import (
    SolverError,
    UnstableSystemError,
    ValidationError,
    check_entries,
    check_real,
    check_type,
)
from .model import MechanicalMode, _float_modes, _pair, _sum
from .steadystate import _occupations, _solve


@dataclass(frozen=True)
class Device:
    """Everything fixed about a device except the working point.

    One cavity, N - 1 matter modes and N >= 2 mechanical modes in increasing
    frequency; polariton k is to sit on the sideband of mechanical mode k.
    With ``couplings`` empty the device is an angle-tuned pair (N = 2): the
    mixing angle of each working point sets the photon-matter coupling and
    the matter and drive frequencies in closed form (:meth:`_tuned`).
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
        for name, kind in (("matter_linewidths", None), ("mechanical_modes", MechanicalMode),
                           ("couplings", None)):
            object.__setattr__(self, name, check_entries(name, getattr(self, name), kind))
        # each field keeps check_real's float, so that every value a working point
        # derives from them is a plain float and passes its inline test
        for name in ("cavity_freq", "cavity_linewidth"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), above=0.0))
        for name in ("matter_linewidths", "couplings"):
            object.__setattr__(self, name, tuple(
                check_real(f"{name}[{i}]", value, above=0.0)
                for i, value in enumerate(getattr(self, name))))
        for name in ("bath_temperature", "rabi_freq"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), at_least=0.0))
        object.__setattr__(self, "mechanical_modes",
                           _float_modes(self.mechanical_modes, "mechanical_modes"))
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
        # the shift coefficient of the selfconsistent averages, the same at every
        # working point, and the slot of the fixed-coupling tuning and its nodes,
        # filled on first use: set here, not as a cached_property, whose write of a
        # new key to __dict__ makes every later attribute load on the device slower
        object.__setattr__(self, "_sigma", _shift_coefficient(self.mechanical_modes))
        object.__setattr__(self, "_fixed", None)

    def _needs_angle(self, what: str) -> None:
        if self.couplings:
            raise ValidationError(
                f"{what}: needs an angle-tuned device, this one has fixed couplings"
            )

    def _tuned(self, theta) -> tuple[float, float, float]:
        """(coupling, magnon frequency, drive frequency) of the pair at angle ``theta``,
        each checked to be finite and positive, in the order magnon frequency,
        coupling, drive frequency, and named ``magnon_freq``, ``photon_matter_coupling``
        and ``drive_freq``.

        The angle, a caller's input, goes through :func:`check_real`; the three
        derived values are tested inline with check_real's own test, and
        :func:`check_real` runs on them only when that test fails (or one is
        not a plain float), to raise with its path and message.

        With the targets omega_1 < omega_2 of the lower and upper polariton and
        S = omega_2 - omega_1, g = (S/2) sin(2 theta), omega_m = omega_a - S cos(2 theta)
        and omega_0 = (omega_a + omega_m)/2 - (omega_1 + omega_2)/2 give the
        detunings exactly.
        """
        theta = check_real("theta", theta, above=0.0, below=0.5 * math.pi)
        lower, upper = self.mechanical_modes[0].freq, self.mechanical_modes[1].freq
        split = upper - lower
        coupling = 0.5 * split * math.sin(2.0 * theta)
        magnon_freq = self.cavity_freq - split * math.cos(2.0 * theta)
        drive_freq = 0.5 * (self.cavity_freq + magnon_freq) - 0.5 * (upper + lower)
        if not (type(magnon_freq) is float and 0.0 < magnon_freq < math.inf
                and type(coupling) is float and 0.0 < coupling < math.inf
                and type(drive_freq) is float and 0.0 < drive_freq < math.inf):
            check_real("magnon_freq", magnon_freq, above=0.0)
            check_real("photon_matter_coupling", coupling, above=0.0)
            check_real("drive_freq", drive_freq, above=0.0)
        return coupling, magnon_freq, drive_freq

    @property
    def tuning(self) -> NModeResult:
        """Matter and drive frequencies of a fixed-coupling device, found on first use
        and held in ``_fixed`` as (tuning, None) until :meth:`_nodes` adds its nodes."""
        if self._fixed is None:
            object.__setattr__(self, "_fixed", (tune_n_mode(
                self.cavity_freq, [m.freq for m in self.mechanical_modes], self.couplings,
                self.cavity_linewidth, self.matter_linewidths), None))
        return self._fixed[0]

    def _nodes(self) -> tuple:
        """(freqs, linewidths, weights, detunings, cross damping) of the nodes of a
        fixed-coupling device (see :meth:`working_point`), as plain floats, the nodes
        checked once, on first use: its :attr:`tuning` is the same at every working
        point. The cross damping is used as :func:`photon_matter_diagonalize` built
        it, symmetric with a zero diagonal."""
        tuned, nodes = self.tuning, self._fixed[1]
        if nodes is None:
            pols = tuned.polaritons
            freqs, linewidths = [p.freq for p in pols], [p.linewidth for p in pols]
            weights = [p.weights[1] for p in pols]
            nodes = (freqs, linewidths, weights, _node_detunings(
                freqs, linewidths, weights, [None] * len(pols), tuned.drive_freq),
                [p.cross_damping for p in pols])
            object.__setattr__(self, "_fixed", (tuned, nodes))
        return nodes

    def working_point(
        self,
        theta: float | None = None,
        temperature: float | None = None,
        rabi: float | None = None,
        mode: str = "approx",
    ) -> tuple[tuple[float, float, float] | NModeResult, LinearModel]:
        """(tuning, linear model) of one working point, averages in ``mode``.

        The tuning is the pair's (coupling, magnon frequency, drive frequency)
        at ``theta`` (:meth:`_tuned`), or the fixed-coupling device's
        :attr:`tuning`, which ignores ``theta``. Its network is driven and
        strained through the first matter mode, so each node's weight is that
        component of its eigenvector; the nodes share the dissipative
        couplings of their bare losses.
        """
        tuning, values, solved = self._fields(theta, temperature, rabi, mode)
        n_p, n_m = len(self.matter_linewidths) + 1, len(self.mechanical_modes)
        return tuning, _model(n_p, n_m, values, solved)

    def _fields(self, theta, temperature, rabi, mode) -> tuple:
        """(tuning, values, solved) of one working point from plain floats:
        :meth:`working_point` up to its one-point stack, the matrices as one flat
        list of the values that fill them, not checked yet, and what the record
        step needs to form its averages (:func:`~polarcool.dynamics._network`).

        The device's own fields were checked when it was built, and it is frozen,
        so only what the point changes is checked here, with the paths of
        :meth:`_tuned` and :func:`~polarcool.dynamics.build_network` and in
        this order: the angle and the tuned values (:meth:`_tuned`), the rabi and
        temperature overrides, each node, then in :func:`~polarcool.dynamics._network`
        the averages mode and the approx zero-detuning rule. A plain float passes
        by check_real's own test, inline; :func:`check_real` runs only on another
        type or a failing value, to convert it or raise with its message. The
        tuning of an angle-tuned pair is (coupling, magnon frequency, drive
        frequency); a fixed-coupling device's is its :attr:`tuning`, whose nodes
        are checked once (:meth:`_nodes`); the shift coefficient ``_sigma`` is
        formed when the device is built.
        """
        tuned, prefix = (self.tuning, "drive.") if self.couplings else (self._tuned(theta), "")
        if rabi is None:
            rabi = self.rabi_freq
        elif not (type(rabi) is float and 0.0 <= rabi < math.inf):
            rabi = check_real(f"{prefix}rabi_freq", rabi, at_least=0.0)
        if temperature is None:
            temperature = self.bath_temperature
        elif not (type(temperature) is float and 0.0 <= temperature < math.inf):
            temperature = check_real(f"{prefix}bath_temperature", temperature, at_least=0.0)
        if self.couplings:
            nodes = self._nodes()
        else:
            coupling, magnon_freq, drive_freq = tuned
            nodes = _pair_nodes(_pair(self.cavity_freq, magnon_freq, coupling,
                                      self.cavity_linewidth, self.matter_linewidths[0], drive_freq))
        freqs, linewidths, weights, detunings, cross = nodes
        return tuned, *_network(freqs, linewidths, weights, detunings, self.mechanical_modes,
                                self._sigma, rabi, temperature, cross, mode)


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


def _flags(tuning, stable: bool = True, ill_conditioned: bool = False,
           weak_coupling: bool = True) -> tuple[str, ...]:
    """The flags of a working point, in order: ``unstable``, ``ill_conditioned``,
    ``weak_coupling_broken`` (``weak_coupling`` holds when it holds for every
    mechanical mode) and ``tuning_not_converged``, where a fixed-coupling
    tuning missed its sidebands; the defaults leave the tuning's flag alone."""
    flags = []
    if not stable:
        flags.append("unstable")
    if ill_conditioned:
        flags.append("ill_conditioned")
    if not weak_coupling:
        flags.append("weak_coupling_broken")
    if isinstance(tuning, NModeResult) and not tuning.converged:
        flags.append("tuning_not_converged")
    return tuple(flags)


# points per stack: bounds the values, matrices and solves a long sweep holds
# at once, at its peak about 8.5 KB per point with the base preset's 8 x 8
# matrices and 17 KB with the three-mode preset's 12 x 12 (tracemalloc)
_STACK_POINTS = 256


def _stages(setup: Device, points: list, averages: str) -> list:
    """The one per-point sequence over a stack of working points ``(theta,
    temperature, rabi)``: build each to one flat list of values (:meth:`Device._fields`),
    check the stack with one finite test of its values
    (:func:`~polarcool.dynamics._checked_stack`), solve it (:func:`~polarcool.steadystate._solve`:
    a factorization and triangular solve per point, the products and one
    verification per stack), then read the occupations off each V's diagonal
    unchecked (:func:`~polarcool.steadystate._occupations`).

    Returns one entry per point: the ValidationError or SolverError of its
    build or matrix check, or (tuning, solved, values, result): ``solved`` for
    a report's record step, ``values`` as plain floats, and ``result`` the
    (verdict, residual, ill_conditioned, mechanical occupations) of its solve,
    the occupations NaN where the drift is unstable, or its SolverError. The
    rates are the caller's, off ``values``; their error comes ahead of
    ``result``'s, as :func:`~polarcool.analytics.network_cooling` comes ahead
    of :func:`~polarcool.steadystate.steady_state` on a model.
    """
    n_p, n_m = len(setup.matter_linewidths) + 1, len(setup.mechanical_modes)
    out, built, values = [], [], []
    for i, (theta, temperature, rabi) in enumerate(points):
        try:
            tuning, point_values, solved = setup._fields(theta, temperature, rabi, averages)
        except (ValidationError, SolverError) as exc:
            out.append(exc)
            continue
        out.append(None)
        built.append((i, tuning, solved))
        values.append(point_values)
    if not built:
        return out
    vals, drift, diffusion, faults = _checked_stack(n_p, n_m, values)
    if any(faults):
        clean = [p for p, fault in enumerate(faults) if fault is None]
        for (i, _, _), fault in zip(built, faults):
            if fault is not None:
                out[i] = fault
        built = [built[p] for p in clean]
        vals, drift, diffusion = vals[clean], drift[clean], diffusion[clean]
    nans = (math.nan,) * n_m
    solves = _solve(drift, diffusion)
    for (i, tuning, solved), point_values, result in zip(built, vals.tolist(), solves):
        if not isinstance(result, SolverError):
            info, v, residual, ill_conditioned = result
            try:
                occupations = nans if v is None else _occupations(v.diagonal().tolist())[n_p:]
                result = (info, residual, ill_conditioned, occupations)
            except SolverError as exc:
                result = exc
        out[i] = (tuning, solved, point_values, result)
    return out


def _point(setup: Device, theta: float | None, averages: str) -> tuple:
    """A report's working point: :func:`_stages` of a one-point stack.

    Returns (tuning, values, solved, rates, result), what a report prints
    beyond a row: ``solved`` for the record step (:func:`~polarcool.dynamics._averages`),
    the :class:`~polarcool.analytics.CoolingRates` of the values, and the
    point's result of :func:`_stages`, for a report that solves to raise its
    SolverError. Raises the point's error of build, matrix check or rates.
    """
    (entry,) = _stages(setup, [(theta, None, None)], averages)
    if isinstance(entry, Exception):
        raise entry
    tuning, solved, values, result = entry
    rates = _cooling(values, len(setup.matter_linewidths) + 1, len(setup.mechanical_modes))
    return tuning, values, solved, rates, result


def _rows(setup: Device, points: list, averages: str) -> list[SweepRow]:
    """One row per working point ``(variable, theta, temperature, rabi)``, the
    points run through :func:`_stages` as stacks of up to ``_STACK_POINTS``
    and the rates of each (:func:`~polarcool.analytics._rates`) run off its
    values. A point that fails becomes its ``error:<Type>`` row; the others go on.
    """
    fixed = bool(setup.couplings)
    n_p, n_m = len(setup.matter_linewidths) + 1, len(setup.mechanical_modes)
    nans = (math.nan,) * n_m

    def error_row(point, exc) -> SweepRow:
        return SweepRow(point[0], math.nan if fixed else point[1], math.nan, math.nan, math.nan,
                        nans, nans, nans, False, (f"error:{type(exc).__name__}",))

    rows = []
    for start in range(0, len(points), _STACK_POINTS):
        stack = points[start:start + _STACK_POINTS]
        entries = _stages(setup, [point[1:] for point in stack], averages)
        for point, entry in zip(stack, entries):
            if isinstance(entry, Exception):
                rows.append(error_row(point, entry))
                continue
            tuning, _, values, result = entry
            try:
                rates = _rates(values, n_p, n_m)
            except (ValidationError, SolverError) as exc:
                result = exc  # the rates' error comes ahead of the solve's
            if isinstance(result, Exception):
                rows.append(error_row(point, result))
                continue
            info, _, ill_conditioned, n_numeric = result
            coupling, magnon_freq, drive_freq = (
                (math.nan, math.nan, tuning.drive_freq) if fixed else tuning)
            kappa_eff, n_analytic, weak, _ = zip(*rates)  # per field, over the modes
            rows.append(SweepRow(point[0], math.nan if fixed else point[1], coupling, magnon_freq,
                                 drive_freq, kappa_eff, n_analytic, n_numeric, info.stable,
                                 _flags(tuning, info.stable, ill_conditioned, all(weak))))
    return rows


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
    ``tuning_not_converged`` (:func:`_flags`). A
    ValidationError or SolverError comes back as an ``error:<Type>`` row.
    """
    check_type("setup", setup, Device)
    return _rows(setup, [(math.nan, theta, temperature, rabi)], averages)[0]


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
    require_stable=True. The points are built and checked as one stack and
    each solved on its own, as :func:`evaluate_point` solves one, on the
    calling thread. ``threads`` is checked and otherwise ignored; it stays
    until the benchmark's workloads stop passing it.
    """
    check_type("setup", setup, Device)
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
    if not isinstance(threads, numbers.Integral) or isinstance(threads, bool) or threads < 1:
        raise ValidationError(f"threads: expected an integer >= 1, got {threads!r}")

    # a point is (grid value, theta, temperature, rabi), SWEEP_VARIABLES' order;
    # the grid value overrides its keyword (a theta sweep, the fixed angle)
    at, default = SWEEP_VARIABLES.index(variable), (theta, None, None)
    points = [(v, *default[:at], v, *default[at + 1:]) for v in values]
    rows = _rows(setup, points, averages)
    if require_stable:
        for row in rows:
            if "unstable" in row.flags:
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
    a compass (step-halving) refinement from the best grid point. The grid
    and each compass step are scored as one stack through :func:`_stages`,
    build, check, solve and occupations: no closed-form rates and no
    :class:`SweepRow`, so the score does not depend on the analytic rates.
    A point that fails its build, matrix check, solve or occupations, or is
    unstable, scores +inf, so the optimizer simply walks around it.
    ``objective`` selects max(n_1, n_2) or a single mode's occupation.
    """
    check_type("setup", setup, Device)
    setup._needs_angle("optimize_theta")
    if objective not in OPTIMIZE_OBJECTIVES:
        raise ValidationError(
            f"objective: expected one of {OPTIMIZE_OBJECTIVES}, got {objective!r}"
        )
    # checked here, not per angle: an unknown mode would score every angle +inf
    if averages not in ("approx", "selfconsistent"):
        raise ValidationError(
            f"averages: expected 'approx' or 'selfconsistent', got {averages!r}")
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
        temperature = check_real("temperature", temperature, at_least=0.0)
    if rabi is not None:
        rabi = check_real("rabi", rabi, at_least=0.0)
    pick = {"max": lambda n: max(n), "mode1": lambda n: n[0], "mode2": lambda n: n[1]}[objective]

    cache: dict[float, tuple[float, tuple[float, float]]] = {}
    failed = (math.inf, (math.nan,) * len(setup.mechanical_modes))

    def solve(thetas) -> None:
        """Score the angles not yet in the cache, as one stack of up to ``_STACK_POINTS``."""
        new = [t for t in dict.fromkeys(thetas) if t not in cache]
        for start in range(0, len(new), _STACK_POINTS):
            stack = new[start:start + _STACK_POINTS]
            entries = _stages(setup, [(t, temperature, rabi) for t in stack], averages)
            for theta, entry in zip(stack, entries):
                result = entry if isinstance(entry, Exception) else entry[-1]
                stable = not isinstance(result, Exception) and result[0].stable
                cache[theta] = (pick(result[3]), result[3]) if stable else failed

    def score(theta: float) -> float:
        return cache[theta][0]

    # plain floats, the grid's own doubles: check_real takes a float's fast path
    grid = np.linspace(lo, hi, coarse_points).tolist()
    solve(grid)
    best = min(grid, key=score)
    trace = [(best, score(best))]

    step = grid[1] - grid[0]
    floor = tol * (hi - lo)
    while step > floor:
        moved = False
        # both candidates are scored on every step, so they go as one stack
        candidates = [min(max(cand, lo), hi) for cand in (best - step, best + step)]
        solve(candidates)
        for cand in candidates:
            if score(cand) < score(best):
                best = cand
                trace.append((best, score(best)))
                moved = True
        if not moved:
            step *= 0.5

    value, occupations = cache[best]
    return OptimizeResult(
        theta=best,
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

    A search whose iterate leaves the domain (a matter frequency that is not
    positive) ends there, not converged, with the in-domain point of least
    residual it evaluated; an initial guess outside the domain raises.
    """
    cavity_freq = check_real("cavity_freq", cavity_freq, above=0.0)
    cavity_linewidth = check_real("cavity_linewidth", cavity_linewidth, above=0.0)
    mech, gs, kappas = (
        [check_real(f"{name}[{i}]", v, above=0.0)
         for i, v in enumerate(check_entries(name, values))]
        for name, values in (("mech_freqs", mech_freqs), ("couplings", couplings),
                             ("matter_linewidths", matter_linewidths)))
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

    best = []  # (cost, freqs) of the in-domain point of least cost evaluated so far

    def residuals(freqs: np.ndarray) -> np.ndarray:
        pols = photon_matter_diagonalize(cavity_freq, modes_for(freqs), cavity_linewidth)
        p_freqs = np.array([p.freq for p in pols])
        drive = (p_freqs.sum() - _sum(mech)) / n
        mismatch = (p_freqs - drive) - np.asarray(mech)
        cost = float(mismatch @ mismatch)
        if not best or cost < best[0]:
            best[:] = cost, freqs.copy()
        return mismatch

    if initial_guess is None:
        span = mech[-1] - mech[0]
        initial_guess = cavity_freq + np.linspace(-span / 3.0, span / 3.0, n - 1)
    try:
        shape = np.shape(initial_guess)
    except ValueError:  # ragged: numpy finds no shape
        raise ValidationError(f"initial_guess: expected {n - 1} entries, got a ragged"
                              " sequence") from None
    if shape != (n - 1,):
        raise ValidationError(f"initial_guess: expected {n - 1} entries, got shape {shape}")
    x0 = np.array([check_real(f"initial_guess[{i}]", v) for i, v in enumerate(initial_guess)])

    from scipy.optimize import least_squares  # heavy import, needed only here

    # residuals beyond about 1e154 rad/s overflow scipy's cost, which is then
    # inf; the search and its verdict need no warning for it
    with np.errstate(over="ignore"):
        try:
            sol = least_squares(residuals, x0, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
            found, success = sol.x, bool(sol.success)
        except ValidationError:  # a matter frequency left the domain
            if not best:  # at the initial guess: its own fault
                raise
            found, success = best[1], False
    freqs = np.sort(found)
    polaritons = photon_matter_diagonalize(cavity_freq, modes_for(freqs), cavity_linewidth)
    p_freqs = np.array([p.freq for p in polaritons])
    drive_freq = float((p_freqs.sum() - _sum(mech)) / n)
    resid = float(np.abs((p_freqs - drive_freq) - np.asarray(mech)).max())
    converged = success and resid <= 1e-6 * mech[-1]
    return NModeResult(
        matter_freqs=tuple(float(f) for f in freqs),
        drive_freq=drive_freq,
        polaritons=polaritons,
        residual=resid,
        converged=converged,
    )
