"""Polaritons and working points: hit mechanical sidebands with polariton detunings.

A device's polaritons, the nodes of :mod:`polarcool.dynamics`, are formed here
alone: the pair's normal modes in closed form (:func:`_pair`), N polaritons by
diagonalization (:func:`photon_matter_diagonalize`). A :class:`Device` is tuned
one of two ways: a mixing angle sets an angle-tuned pair's photon-matter coupling,
matter and drive frequencies in closed form, placing the lower polariton at
detuning omega_1 and the upper at omega_2; fixed couplings are inverted by least
squares over the matter frequencies, once per device, since no closed form exists
beyond one matter mode. Sweeps and a derivative-free optimizer sit on top.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytics import _rates
from .dynamics import (
    LinearModel,
    _checked_stack,
    _model,
    _network,
    _node_detunings,
    _shift_coefficient,
)
from .errors import (
    SolverError,
    UnstableSystemError,
    ValidationError,
    check_entries,
    check_real,
    check_type,
)
from .model import MechanicalMode, _float_modes, _sum
from .steadystate import _occupations, _solve


# normal modes: the pair's in closed form, N polaritons' by diagonalization
def _pair(cavity_freq, magnon_freq, coupling, cavity_linewidth, magnon_linewidth,
          drive_freq) -> tuple[float, ...]:
    """Normal modes of the photon-magnon pair, from plain floats with a coupling > 0:
    (theta, upper frequency, lower frequency, upper linewidth, lower linewidth,
    dissipative coupling delta-kappa, upper detuning, lower detuning).

    The upper polariton is U = a cos(theta) + m sin(theta), the lower one
    L = -a sin(theta) + m cos(theta); theta in (0, pi/2) so every weight
    factor sin^2, cos^2 stays in [0, 1].
    """
    delta_am = cavity_freq - magnon_freq
    # atan2 keeps theta in (0, pi/2) for a coupling > 0, both signs of delta_am
    theta = 0.5 * math.atan2(2.0 * coupling, delta_am)
    split = math.hypot(delta_am, 2.0 * coupling)
    mean = 0.5 * (cavity_freq + magnon_freq)
    s, c = math.sin(theta), math.cos(theta)
    kappa_u = cavity_linewidth * c * c + magnon_linewidth * s * s
    kappa_l = cavity_linewidth * s * s + magnon_linewidth * c * c
    dk = (magnon_linewidth - cavity_linewidth) * s * c
    # mean - drive is exact for nearby magnitudes; forming the eigenfrequency
    # first would round at the GHz scale and contaminate the MHz detunings
    base = mean - drive_freq
    return (theta, mean + 0.5 * split, mean - 0.5 * split, kappa_u, kappa_l, dk,
            base + 0.5 * split, base - 0.5 * split)


@dataclass(frozen=True)
class MatterMode:
    """A matter excitation coupled to the cavity: frequency, coupling, linewidth."""

    freq: float
    coupling: float
    linewidth: float


@dataclass(frozen=True)
class PolaritonMode:
    """One normal mode of the photon-matter network.

    ``weights`` is the orthonormal eigenvector (photon component first, then
    one entry per matter mode), signed so its largest-magnitude matter
    component is positive. ``cross_damping`` holds this mode's dissipative
    coupling to every mode of the network (zero for itself), the
    off-diagonal of the bare losses in the polariton basis.
    """

    freq: float
    linewidth: float
    weights: tuple[float, ...]
    cross_damping: tuple[float, ...]


def photon_matter_diagonalize(
    cavity_freq: float,
    matter_modes: Sequence[MatterMode],
    cavity_linewidth: float,
) -> tuple[PolaritonMode, ...]:
    """Normal modes of one cavity coupled to M matter modes, ascending in frequency.

    Diagonalizes the (M+1)x(M+1) symmetric frequency-coupling matrix; the
    polariton linewidths are the weight-squared averages of the bare ones,
    and modes k, l share the dissipative coupling
    K_kl = sum_i v_ik v_il (kappa_i - kappa_cavity), which is exactly zero
    when every bare linewidth equals the cavity's.
    Raises SolverError on (near-)degenerate eigenvalues, where the weight
    assignment is ambiguous.
    """
    matter_modes = check_entries("matter_modes", matter_modes, MatterMode)
    if not matter_modes:
        raise ValidationError("matter_modes: must not be empty")
    check_real("cavity_freq", cavity_freq, above=0.0)
    check_real("cavity_linewidth", cavity_linewidth, above=0.0)
    for i, mm in enumerate(matter_modes):
        for field in ("coupling", "freq", "linewidth"):
            check_real(f"matter_modes[{i}].{field}", getattr(mm, field), above=0.0)
    m = len(matter_modes)
    h = np.zeros((m + 1, m + 1))
    h[0, 0] = cavity_freq
    for i, mm in enumerate(matter_modes):
        h[i + 1, i + 1] = mm.freq
        h[0, i + 1] = h[i + 1, 0] = mm.coupling
    freqs, vecs = np.linalg.eigh(h)
    gaps = np.diff(freqs)
    tol = 1e-9 * np.abs(freqs).max()
    if np.any(gaps < tol):
        raise SolverError(
            f"photon_matter_diagonalize: near-degenerate polaritons (min gap {gaps.min():.3e})"
        )
    bare_kappas = np.array([cavity_linewidth] + [mm.linewidth for mm in matter_modes])
    # sign convention: each mode's largest-magnitude matter component positive
    lead = np.abs(vecs[1:]).argmax(axis=0)
    vecs = vecs * np.where(vecs[1 + lead, np.arange(m + 1)] < 0, -1.0, 1.0)
    excess = vecs.T @ ((bare_kappas - cavity_linewidth)[:, None] * vecs)
    cross = 0.5 * (excess + excess.T)
    np.fill_diagonal(cross, 0.0)
    return tuple(
        PolaritonMode(
            freq=float(freqs[k]),
            linewidth=float((vecs[:, k] ** 2 * bare_kappas).sum()),
            weights=tuple(float(x) for x in vecs[:, k]),
            cross_damping=tuple(float(x) for x in cross[k]),
        )
        for k in range(m + 1)
    )


# ---------------------------------------------------------------------------
# devices and their working points


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
        # working point
        object.__setattr__(self, "_sigma", _shift_coefficient(self.mechanical_modes))

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

    @functools.cached_property
    def tuning(self) -> NModeResult:
        """Matter and drive frequencies of a fixed-coupling device (:func:`tune_n_mode`),
        found on first use and kept. An angle-tuned device has none: reading it raises
        a ValidationError, as :meth:`_needs_angle` does for the other kind."""
        if not self.couplings:
            raise ValidationError(
                "tuning: needs a device with fixed couplings, this one is angle-tuned")
        return tune_n_mode(self.cavity_freq, [m.freq for m in self.mechanical_modes],
                           self.couplings, self.cavity_linewidth, self.matter_linewidths)

    @functools.cached_property
    def _nodes(self) -> tuple:
        """(freqs, linewidths, weights, detunings, cross damping) of the nodes of a
        fixed-coupling device, its :attr:`tuning`'s polaritons, as plain floats, built and
        checked on first use and kept; a node that fails its check raises on every read. A
        pair forms the same lists at each point (:meth:`_fields`). The cross damping is
        used as :func:`photon_matter_diagonalize` built it, symmetric with a zero diagonal."""
        pols = self.tuning.polaritons
        freqs, linewidths = [p.freq for p in pols], [p.linewidth for p in pols]
        weights = [p.weights[1] for p in pols]
        return (freqs, linewidths, weights, _node_detunings(
            freqs, linewidths, weights, [None] * len(pols), self.tuning.drive_freq),
            [p.cross_damping for p in pols])

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
        so only what the point changes is checked here, in this order: the angle
        and the tuned values (:meth:`_tuned`), the overrides, named after the fields
        ``rabi_freq`` and ``bath_temperature``, each node (``polaritons[k]``), then
        in :func:`~polarcool.dynamics._network` the averages mode and the approx
        zero-detuning rule. A plain float passes by check_real's own test, inline;
        :func:`check_real` runs only on another type or a failing value, to convert
        it or raise with its message. An angle-tuned pair's tuning is (coupling,
        magnon frequency, drive frequency) and its nodes, (upper, lower) of :func:`_pair`
        with weights sin(theta) and cos(theta), are formed at each point; a fixed-coupling
        device's is its :attr:`tuning`, whose nodes are checked once (:attr:`_nodes`).
        """
        tuned = self.tuning if self.couplings else self._tuned(theta)
        if rabi is None:
            rabi = self.rabi_freq
        elif not (type(rabi) is float and 0.0 <= rabi < math.inf):
            rabi = check_real("rabi_freq", rabi, at_least=0.0)
        if temperature is None:
            temperature = self.bath_temperature
        elif not (type(temperature) is float and 0.0 <= temperature < math.inf):
            temperature = check_real("bath_temperature", temperature, at_least=0.0)
        if self.couplings:
            freqs, linewidths, weights, detunings, cross = self._nodes
        else:  # the pair's nodes (upper, lower), from its normal modes at this point
            coupling, magnon_freq, drive_freq = tuned
            angle, upper, lower, kappa_u, kappa_l, dk, det_u, det_l = _pair(
                self.cavity_freq, magnon_freq, coupling, self.cavity_linewidth,
                self.matter_linewidths[0], drive_freq)
            freqs, linewidths = [upper, lower], [kappa_u, kappa_l]
            weights = [math.sin(angle), math.cos(angle)]
            detunings = _node_detunings(freqs, linewidths, weights, (det_u, det_l), None)
            cross = [[0.0, dk], [dk, 0.0]]
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


def _stages(setup: Device, points: list, averages: str):
    """The one per-point sequence over working points ``(theta, temperature, rabi)``,
    in stacks of up to ``_STACK_POINTS``: build each point to one flat list of values
    (:meth:`Device._fields`), check the stack by one finite test of its values
    (:func:`~polarcool.dynamics._checked_stack`), solve it (:func:`~polarcool.steadystate._solve`:
    a factorization and triangular solve per point, the products and residual norms
    per stack, or per point on a compass step's one or two), then read the
    occupations off each V's diagonal unchecked (:func:`~polarcool.steadystate._occupations`).

    Yields one entry per point, in order: the ValidationError or SolverError of its
    build or matrix check, or (tuning, values, result): ``values`` the list the build
    made, ``result`` the (verdict, residual, ill_conditioned, mechanical occupations)
    of its solve, NaN occupations where the drift is unstable, or its SolverError.
    The caller forms the rates off ``values`` and puts their error ahead of
    ``result``'s, as a report runs :func:`~polarcool.analytics.network_cooling`
    ahead of :func:`~polarcool.steadystate.steady_state` on its one point's model.
    """
    n_p, n_m = len(setup.matter_linewidths) + 1, len(setup.mechanical_modes)
    nans = (math.nan,) * n_m
    for start in range(0, len(points), _STACK_POINTS):
        out, built = [], []
        for i, (theta, temperature, rabi) in enumerate(points[start:start + _STACK_POINTS]):
            try:
                built.append((i, *setup._fields(theta, temperature, rabi, averages)[:2]))
                out.append(None)
            except (ValidationError, SolverError) as exc:
                out.append(exc)
        if built:
            drift, diffusion, faults = _checked_stack(n_p, n_m, [point[2] for point in built])
            if any(faults):
                for (i, *_), fault in zip(built, faults):
                    out[i] = fault  # None for a point that passed, as out[i] already is
                clean = [p for p, fault in enumerate(faults) if fault is None]
                built, drift, diffusion = [built[p] for p in clean], drift[clean], diffusion[clean]
            for (i, tuning, values), result in zip(built, _solve(drift, diffusion)):
                if not isinstance(result, SolverError):
                    info, v, residual, ill_conditioned = result
                    try:
                        occupations = (nans if v is None
                                       else _occupations(v.diagonal().tolist())[n_p:])
                        result = (info, residual, ill_conditioned, occupations)
                    except SolverError as exc:
                        result = exc
                out[i] = (tuning, values, result)
        yield from out


def _rows(setup: Device, points: list, averages: str) -> list[SweepRow]:
    """One row per working point ``(variable, theta, temperature, rabi)``, each
    point's entry of :func:`_stages` and the rates of its values
    (:func:`~polarcool.analytics._rates`), of which a row reads kappa_eff,
    n_eff and the weak-coupling verdict. A point that fails becomes its
    ``error:<Type>`` row; the others go on.
    """
    fixed = bool(setup.couplings)
    n_p, n_m = len(setup.matter_linewidths) + 1, len(setup.mechanical_modes)
    nans = (math.nan,) * n_m

    def error_row(point, exc) -> SweepRow:
        return SweepRow(point[0], math.nan if fixed else point[1], math.nan, math.nan, math.nan,
                        nans, nans, nans, False, (f"error:{type(exc).__name__}",))

    rows = []
    for point, entry in zip(points, _stages(setup, [point[1:] for point in points], averages)):
        if isinstance(entry, Exception):
            rows.append(error_row(point, entry))
            continue
        tuning, values, result = entry
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
        kappa_eff, n_analytic, weak, *_ = zip(*rates)  # per field, over the modes
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
    require_stable=True. The points run through :func:`_stages` on the
    calling thread, as stacks of up to 256 that are built, checked and solved
    together; each point's row is the one :func:`evaluate_point` gives.
    ``threads`` is checked and otherwise ignored; it stays until the
    benchmark's workloads stop passing it.
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
    build, check, solve and occupations (a step's one or two new angles are
    solved one by one on 2-D matrices): no closed-form rates and no
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
        """Score the angles not yet in the cache through :func:`_stages`."""
        new = [t for t in dict.fromkeys(thetas) if t not in cache]
        if not new:
            return
        for theta, entry in zip(new, _stages(setup, [(t, temperature, rabi) for t in new],
                                             averages)):
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
        # both candidates are scored on every step, so they go as one _stages call
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

    best = []  # (cost, freqs) of the in-domain point of least cost evaluated so far

    def evaluate(freqs: np.ndarray) -> tuple:
        """(polaritons, drive frequency, detuning mismatch) at matter frequencies ``freqs``."""
        pols = photon_matter_diagonalize(
            cavity_freq, tuple(MatterMode(freq=f, coupling=g, linewidth=k)
                               for f, g, k in zip(freqs, gs, kappas)), cavity_linewidth)
        p_freqs = np.array([p.freq for p in pols])
        drive = (p_freqs.sum() - _sum(mech)) / n
        return pols, drive, (p_freqs - drive) - np.asarray(mech)

    def residuals(freqs: np.ndarray) -> np.ndarray:
        mismatch = evaluate(freqs)[2]
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
    polaritons, drive_freq, mismatch = evaluate(freqs)
    resid = float(np.abs(mismatch).max())
    converged = success and resid <= 1e-6 * mech[-1]
    return NModeResult(
        matter_freqs=tuple(float(f) for f in freqs),
        drive_freq=float(drive_freq),
        polaritons=polaritons,
        residual=resid,
        converged=converged,
    )
