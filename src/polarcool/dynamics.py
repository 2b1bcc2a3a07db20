"""Mean-field steady state and linearized fluctuation dynamics.

One builder, :func:`build_network`, covers every system: N polaritons, all
fed by one drive through their matter content (one weight per node), cooling
M mechanical modes. It finds the classical averages (approximate closed form
or a selfconsistent fixed point) and the effective couplings they induce,
and builds the drift and diffusion matrices of the quadrature fluctuations.
The nodes, a device's polaritons, are formed in :mod:`polarcool.tuning`.

Quadrature ordering is (X, Y) per mode, polaritons first, then mechanics.
Vacuum noise corresponds to covariance 1/2 per quadrature.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    SolverError,
    ValidationError,
    check_drift_diffusion,
    check_entries,
    check_matrix,
    check_real,
    check_type,
)
from .model import MechanicalMode, _bose, _float_modes, _sum

@dataclass(frozen=True)
class SteadyStateAverages:
    """Classical steady-state amplitudes and the effective couplings they induce.

    ``avg_polaritons`` holds one amplitude per node and ``avg_matter`` the
    matter amplitude M = sum_k w_k <P_k> that every mechanical mode sees.
    ``effective_couplings`` holds one real G_j = 2 G_0j |M| per mechanical
    mode; node k couples to mode j with G_j w_k. The approximate solution
    leaves M purely imaginary so 2i G_0j M is real by itself; the
    selfconsistent solution acquires a small extra phase, which is absorbed
    by rotating every polariton fluctuation operator by ``phase_rotation``
    (the diffusion matrix is invariant under that common rotation).
    ``branches`` holds M of every classical steady state in ascending |M|
    (three where it is bistable); the record describes ``branches[0]``.
    """

    avg_polaritons: tuple[complex, ...]
    avg_mech: tuple[complex, ...]
    avg_matter: complex
    effective_couplings: tuple[float, ...]
    phase_rotation: float
    mode: str
    branches: tuple[complex, ...]


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Drift and diffusion of the linearized fluctuations plus their provenance.

    The one place a model's matrices are checked: construction (and so
    ``dataclasses.replace``) raises ValidationError, naming the field, unless
    both are real, square, non-empty, finite and of one shape, the diffusion
    is symmetric within 1e-12 max(1, max|D|), and ``mode_layout`` names one
    mode per two rows. The model holds
    read-only float copies, so what was checked cannot change afterwards and
    the solvers use the matrices without checking them again. Two models
    compare equal only if they are the same object.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    mode_layout: tuple[str, ...]
    averages: SteadyStateAverages

    def __post_init__(self) -> None:
        for name, arr in zip(("drift", "diffusion"),
                             check_drift_diffusion(self.drift, self.diffusion)):
            arr = arr.copy(order="K")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        try:
            fits = 2 * len(self.mode_layout) == len(self.drift)
        except TypeError:  # a layout without a length, such as None
            fits = False
        if not fits:
            raise ValidationError(f"mode_layout: expected {len(self.drift) // 2} mode names for"
                                  f" {len(self.drift)} x {len(self.drift)} matrices,"
                                  f" got {self.mode_layout!r}")


@functools.cache
def _pattern(n_p: int, n_m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the values of a point (:func:`_network`) go in its drift and diffusion.

    Returns (cells, sources, read): the cells the values fill, counted in the
    drift and then the diffusion, raveled one after the other, the index of
    the value each cell takes, and per value the first cell it fills. The
    values are, in order: per mode (nodes, then mechanics) its damping
    (negated), rotation frequency, the same negated, and input noise
    2 damping (nbar + 1/2); per node pair (k < q) its cross damping (negated)
    and shared noise, +0.0 for an uncoupled pair; per mechanical mode j and
    node k the couplings -G_j w_k and G_j w_k.
    :func:`~polarcool.analytics._rates` reads the rates off them: the
    linewidths, detunings, mechanical dampings, frequencies and noise, and per
    mechanical mode its N_p couplings -G_j w_k, in one pass.
    """
    n, pairs = n_p + n_m, [(k, q) for k in range(n_p) for q in range(k + 1, n_p)]
    cells = []  # (matrix: 0 drift, 1 diffusion, row, column, value index)
    for m in range(n):
        i, v = 2 * m, 4 * m
        cells += [(0, i, i, v), (0, i + 1, i + 1, v), (0, i, i + 1, v + 1),
                  (0, i + 1, i, v + 2), (1, i, i, v + 3), (1, i + 1, i + 1, v + 3)]
    for c, (k, q) in enumerate(pairs):
        i, i2, v = 2 * k, 2 * q, 4 * n + 2 * c
        for a, b in ((i, i2), (i + 1, i2 + 1), (i2, i), (i2 + 1, i + 1)):
            cells += [(0, a, b, v), (1, a, b, v + 1)]
    for j in range(n_m):
        i = 2 * (n_p + j)
        for k in range(n_p):
            v = 4 * n + 2 * len(pairs) + 2 * (j * n_p + k)
            cells += [(0, 2 * k, i, v), (0, i + 1, 2 * k + 1, v + 1)]
    flat = [(2 * n * (2 * n * matrix + a) + b, v) for matrix, a, b, v in cells]
    read = {}
    for cell, v in flat:
        read.setdefault(v, cell)
    return (np.array([cell for cell, _ in flat]), np.array([v for _, v in flat]),
            np.array([read[v] for v in range(len(read))]))


def _stack(n_p: int, n_m: int, values: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values of P points, each a flat list as :func:`_network` makes it, as a
    (P, K) float array, and the (P, n, n) drift and diffusion stacks they fill.

    Both stacks are zeros with one fancy-index write (:func:`_pattern`), so an
    entry no value fills is +0.0; neither stack is checked.
    """
    vals = np.array(values, dtype=float)
    n = 2 * (n_p + n_m)
    cells, sources, _ = _pattern(n_p, n_m)
    matrices = np.zeros((len(vals), 2 * n * n))
    matrices[:, cells] = vals.take(sources, axis=1)
    matrices = matrices.reshape(-1, 2, n, n)
    return vals, matrices[:, 0], matrices[:, 1]


def _checked_stack(n_p: int, n_m: int, values: list) -> tuple:
    """The drift and diffusion stacks of P points (:func:`_stack`), and per
    point the ValidationError of :class:`LinearModel`'s check of its drift and
    diffusion, or None.

    Every cell :func:`_pattern` fills holds one of the point's values and
    every other cell is +0.0, and each diffusion value fills a diagonal cell
    or both cells of a transposed pair, so the matrices of a point whose
    values are all finite pass that check: one ``np.isfinite`` over the
    (P, K) values gives the verdict of the whole stack. Only a point with a
    NaN or infinite value is checked on its own, for its error.
    """
    vals, r, d = _stack(n_p, n_m, values)
    faults = [None] * len(r)
    finite = np.isfinite(vals)
    if not finite.all():
        for p in np.flatnonzero(~finite.all(axis=1)).tolist():
            try:
                check_drift_diffusion(r[p], d[p])
            except ValidationError as exc:
                faults[p] = exc
    return r, d, faults


def _model(n_p: int, n_m: int, values: list, solved: tuple) -> LinearModel:
    """The :class:`LinearModel` of one point's values and solution, both as
    :func:`_network` returns them, a one-point stack, which it checks.

    Only the one-point path (:func:`build_network`, :meth:`~polarcool.tuning.Device.working_point`,
    and so the reports) runs the record step, :func:`_averages`; a sweep point reads only
    its values.
    """
    _, r, d = _stack(n_p, n_m, [values])
    layout = tuple(f"p{k + 1}" for k in range(n_p)) + tuple(f"b{j + 1}" for j in range(n_m))
    return LinearModel(r[0], d[0], layout, SteadyStateAverages(*_averages(*solved)))


def _values(model: LinearModel, n_p: int, n_m: int) -> list:
    """The values of :func:`_network` read back off a model's matrices, as plain floats."""
    cells = np.concatenate((model.drift.ravel(), model.diffusion.ravel()))
    return cells[_pattern(n_p, n_m)[2]].tolist()


@dataclass(frozen=True)
class NetworkPolariton:
    """Polariton node of a cooling network.

    ``weight`` is the node's matter content: the drive feeds the node with
    weight * Omega and every mechanical mode couples to it through the matter
    amplitude with the same weight (sin(theta) and cos(theta) for the upper
    and lower polariton of the two-mode system). ``detuning`` overrides the
    default ``freq - drive_freq`` for callers that already carry the
    drive-frame frequency at small-number accuracy.
    """

    freq: float
    linewidth: float
    weight: float
    detuning: float | None = None


@dataclass(frozen=True)
class NetworkDrive:
    drive_freq: float
    rabi_freq: float
    bath_temperature: float


def _node_detunings(freqs, linewidths, weights, detunings, drive_freq) -> list[float]:
    """The drive detunings of nodes whose values it checks, node by node, in the
    order frequency, linewidth, weight, detuning; a detuning of None is
    ``freq - drive_freq``.

    A plain float passes by check_real's own test, inline; any other value (an
    int, a numpy scalar) or a failing one goes through :func:`check_real`,
    which raises with its path, formatted only then, or gives the float that
    then replaces it in its list, so that no other number type reaches the averages.
    """
    checked = []
    for k, (freq, linewidth, weight, det) in enumerate(zip(freqs, linewidths, weights, detunings)):
        if not (type(freq) is float and 0.0 < freq < math.inf
                and type(linewidth) is float and 0.0 < linewidth < math.inf
                and type(weight) is float and abs(weight) < math.inf):
            freq = freqs[k] = check_real(f"polaritons[{k}].freq", freq, above=0.0)
            linewidths[k] = check_real(f"polaritons[{k}].linewidth", linewidth, above=0.0)
            weights[k] = check_real(f"polaritons[{k}].weight", weight)
        if det is None:
            det = freq - drive_freq
        if not (type(det) is float and abs(det) < math.inf):
            det = check_real(f"polaritons[{k}].detuning", det)
        checked.append(det)
    return checked


def _cross_damping(cross_damping, n_p: int) -> list:
    """A checked N_p x N_p cross-damping matrix as nested lists of floats, zeros for None."""
    if cross_damping is None:
        return [[0.0] * n_p for _ in range(n_p)]
    cross = check_matrix("cross_damping", cross_damping)
    if cross.shape != (n_p, n_p):
        raise ValidationError(f"cross_damping: expected shape {(n_p, n_p)}, got {cross.shape}")
    if (cross != cross.T).any() or cross.diagonal().any():
        raise ValidationError("cross_damping: must be finite and symmetric with a zero diagonal")
    return cross.tolist()


def _eliminate(rows) -> list:
    """x with a x = b from the rows [a_k..., b_k] of the augmented matrix, which
    it overwrites: Gaussian elimination with partial pivoting on Python scalars;
    raises SolverError on a zero pivot."""
    n = len(rows)
    for k in range(n):
        for i in range(k + 1, n):  # the largest entry of column k goes on top
            if abs(rows[i][k]) > abs(rows[k][k]):
                rows[i], rows[k] = rows[k], rows[i]
        top = rows[k]
        if top[k] == 0:
            raise SolverError("selfconsistent averages: singular polariton matrix")
        for row in rows[k + 1:]:
            factor = row[k] / top[k]
            for j in range(k + 1, n + 1):
                row[j] -= factor * top[j]
    x = [0j] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        acc = row[n]
        for j in range(k + 1, n):
            acc -= row[j] * x[j]
        x[k] = acc / row[k]
    return x


def _cubic_seeds(p: float, c: float) -> list[float]:
    """Real roots of y^3 + p y^2 + y - c in closed form, ascending: trigonometric
    for three, Cardano for one (Kahan 1986; Blinn 2006-07).

    The depressed form t = y + p/3 loses a root much smaller than 1 to
    cancellation, so the root of least magnitude is recomputed from the
    identity y = c / (y^2 + p y + 1).
    """
    h = 0.5 * (p * (2.0 * p * p - 9.0) / 27.0 - c)  # t^3 + 3 k t + 2 h = 0
    k = (1.0 - p * p / 3.0) / 3.0
    if k < 0.0 and h * h + k * k * k < 0.0:
        r = 2.0 * math.sqrt(-k)
        phi = math.acos(max(-1.0, min(1.0, -8.0 * h / (r * r * r)))) / 3.0
        third = 2.0 * math.pi / 3.0  # cos(phi + third) <= cos(phi + 2 third) <= cos(phi)
        ys = [r * math.cos(a) - p / 3.0 for a in (phi + third, phi + 2.0 * third, phi)]
        small = 0 if p < 0.0 else 2  # all three roots are positive for p < 0, two negative else
    else:
        # sqrt(h^2 + k^3) without squaring h, which overflows for c beyond ~1e154
        q, k3 = abs(h), abs(k) ** 1.5
        s = math.hypot(q, k3) if k >= 0.0 else math.sqrt(max(q - k3, 0.0)) * math.sqrt(q + k3)
        big = -math.copysign((q + s) ** (1.0 / 3.0), h)
        ys, small = [(big - k / big if big else 0.0) - p / 3.0], 0
    y = ys[small]
    others = (y + p) * y + 1.0  # the product of the other two roots, positive
    if others > 0.0:
        ys[small] = c / others
    return ys


def _nonnegative_roots(p: float, c: float, lowest: bool = False) -> list[float]:
    """Ascending roots y >= 0 of the monic cubic f(y) = y^3 + p y^2 + y - c, |p| <= 2, c >= 0;
    with ``lowest`` only the first (repeated if it is multiple), all a point's values read.

    f(0) = -c <= 0 < f(2 + 2 c^(1/3)), and f has critical points, 0 < y_lo < y_hi,
    only for p < -sqrt(3); between these marks f is monotone. A critical point
    where |f| <= 1e-15 sum|terms| is a double root at round-off (a fold), listed
    twice; two such points are one triple root. Every other root lies where f
    changes sign between two marks and is polished there by bracketed Newton
    steps from its closed-form seed, until a step is below 1e-14 relative.
    """

    def f(y):
        return ((y + p) * y + 1.0) * y - c

    marks = [(0.0, -c, 1)]  # (y, f(y) or 0 at a root, multiplicity of that root)
    disc = p * p - 3.0
    if p < 0.0 and disc > -1e-14:  # a rounded p = -sqrt(3) keeps its critical point
        y_hi = (math.sqrt(max(disc, 0.0)) - p) / 3.0
        y_lo = 1.0 / (3.0 * y_hi)  # the product of the critical points is 1/3
        f_lo, f_hi = f(y_lo), f(y_hi)
        if abs(f_lo) <= 1e-15 * (((y_lo - p) * y_lo + 1.0) * y_lo + c):
            f_lo = 0.0
        if abs(f_hi) <= 1e-15 * (((y_hi - p) * y_hi + 1.0) * y_hi + c):
            f_hi = 0.0
        if f_lo == f_hi == 0.0:
            marks.append((-p / 3.0, 0.0, 3))
        else:
            marks += [(y_lo, f_lo, 2), (y_hi, f_hi, 2)]
    marks.append((2.0 + 2.0 * c ** (1.0 / 3.0), 1.0, 0))

    seeds, roots = _cubic_seeds(p, c), []
    for (lo, f_a, mult), (hi, f_b, _) in zip(marks, marks[1:]):
        if f_a == 0.0:
            roots += [lo] * mult
            if lowest:
                break
            continue
        if f_b == 0.0 or (f_a < 0.0) == (f_b < 0.0):
            continue
        rising = f_a < 0.0
        for y in seeds:
            if lo < y < hi:
                break
        else:
            y = 0.5 * (lo + hi)
        for _ in range(100):
            fy = f(y)
            if fy == 0.0:
                break
            if (fy < 0.0) == rising:
                lo = y
            else:
                hi = y
            slope = (3.0 * y + 2.0 * p) * y + 1.0
            nxt = y - fy / slope if slope else math.nan
            if not lo <= nxt <= hi:  # also a NaN, from an overflowed f near the bound
                nxt = 0.5 * (lo + hi)
            y, step = nxt, abs(nxt - y)
            if step <= 1e-14 * y:
                break
        roots.append(y)
        if lowest:
            break
    return roots


def _shift_coefficient(mechanics) -> float:
    """sigma = sum_j 2 G_0j Re[-i G_0j / (i omega_j + gamma_j)] of the mechanical
    modes: the detuning shift per |M|^2 of the selfconsistent averages
    (:func:`_selfconsistent_polaritons`). It depends on the modes alone, so a
    device forms it once and :func:`build_network` once per call."""
    return _sum(2.0 * m.bare_coupling * (-1j * m.bare_coupling / (1j * m.freq + m.damping)).real
                for m in mechanics)


def _selfconsistent_polaritons(weights, detunings, linewidths, cross, rabi, sigma):
    """The matter amplitude M of the lowest branch, and (v, chi, unit, cubic), from
    which :func:`_averages` forms the polariton amplitudes and every branch's M;
    ``cubic`` is (p, c) of the scaled cubic below, or None where there is no shift.

    At a fixed displacement shift x the polariton equations are linear,
    (A0 + i x w w^T) P = Omega w with A0 = i Delta + kappa + K, so
    P = Omega v / (1 + i x chi) with v = A0^{-1} w and chi = w^T v, and the
    shift depends on P only through the matter amplitude, x = sigma |M|^2 with
    sigma from :func:`_shift_coefficient`.
    So M = Omega chi / (1 + i sigma u chi) with u = |M|^2 a non-negative root of
    sigma^2 |chi|^2 u^3 - 2 sigma Im(chi) u^2 + u - Omega^2 |chi|^2 = 0 whatever the
    number of nodes. Scaled to y = |sigma| |chi| u it is the monic
    y^3 + p y^2 + y - c = 0 with p = -2 sgn(sigma) Im(chi) / |chi| in [-2, 2] and
    c = |sigma| |chi|^3 Omega^2, whose only large coefficient is c. It has one
    root, as f(0) <= 0 < f'(0), or three where it is statically bistable; the
    lowest is the branch a drive ramped up from zero reaches. At a fold, where
    f vanishes at a critical point to round-off, the double root is listed
    twice. sigma chi = 0 leaves no shift: M = Omega chi. With ys the roots and
    unit = sgn(sigma) chi / |chi|, branch k's M is Omega chi / (1 + i ys[k] unit),
    and the polariton amplitudes of the lowest are P = Omega v / (1 + i ys[0] unit).
    Only the lowest root is found here; the others are the record's.
    """
    n = len(weights)
    v = _eliminate([[complex(linewidths[k], detunings[k]) if q == k else cross[k][q]
                     for q in range(n)] + [weights[k]] for k in range(n)])
    chi = _sum(w * x for w, x in zip(weights, v))
    scale = abs(sigma) * abs(chi)
    if scale == 0.0 or chi == 0:  # chi = 0 also where sigma is infinite: M = 0
        unit, cubic, y = 0j, None, 0.0
    else:
        unit = math.copysign(1.0, sigma) * chi / abs(chi)  # sigma u chi = y unit
        field = rabi * abs(chi)
        p, c = -2.0 * unit.imag, scale * field * field
        if not (math.isfinite(p) and math.isfinite(c)):
            raise OverflowError
        cubic, y = (p, c), _nonnegative_roots(p, c, lowest=True)[0]
    return rabi * chi / (1.0 + 1j * y * unit), (v, chi, unit, cubic)


def build_network(
    polaritons: Sequence[NetworkPolariton],
    mechanics: Sequence[MechanicalMode],
    drive: NetworkDrive,
    cross_damping: np.ndarray | None = None,
    mode: str = "approx",
) -> LinearModel:
    """Linear fluctuation model of N_p polaritons cooling N_m mechanical modes.

    Node k is a damped rotation at its drive detuning; the drive feeds it
    with w_k Omega, and mechanical mode j couples to it with G_j w_k,
    G_j = 2 G_0j |M|, through the matter amplitude M = sum_k w_k <P_k>
    (X rows of the nodes, Y rows of the mechanics). It checks every input
    and hands the plain values to :func:`_network`, the one core every
    working point runs through.

    Parameters
    ----------
    polaritons, mechanics, drive
        Nodes, mechanical modes, and the drive with its bath temperature.
    cross_damping
        Symmetric N_p x N_p matrix K of dissipative node-node couplings with
        a zero diagonal, or None for none. K_kl adds -K_kl I_2 between nodes
        k and l in the drift and their shared input noise
        2 K_kl (nbar + 1/2) I_2 to the diffusion, nbar taken at the pair's
        mean frequency.
    mode : {"approx", "selfconsistent"}
        "approx" evaluates the resolved-sideband closed form
        <P_k> = -i w_k Omega / Delta_k, <b_j> = -G_0j |M|^2 / omega_j; it
        requires nonzero detunings. "selfconsistent" solves the full
        classical equations including the linewidths, K and the
        displacement-induced detuning shift, from one cubic in |M|^2 scaled
        to the monic y^3 + p y^2 + y - c with |p| <= 2 and c >= 0 (lowest
        branch; every branch's M is in ``averages.branches``, and a fold's
        double root, where the cubic vanishes to round-off at a critical
        point, is listed twice).

    Raises
    ------
    ValidationError
        A drive, mechanical mode or node of the wrong type (``drive``,
        ``mechanics[j]``, ``polaritons[k]``), checked first; a missing, NaN,
        infinite or out-of-range input, named by its path
        (``polaritons[k].linewidth``, ``drive.rabi_freq``, ``cross_damping``);
        an unknown mode; approx mode with a node resonant with a nonzero
        drive; an average derived from finite inputs that overflows. Of
        several faults the first in this order is reported: the drive (its
        Rabi frequency, its bath temperature, then its frequency, checked
        only when a node has no detuning of its own), the mechanics, node by
        node, the cross damping, the mode, the resonance.
    SolverError
        selfconsistent mode with a singular polariton matrix.
    """
    check_type("drive", drive, NetworkDrive)
    mechanics = check_entries("mechanics", mechanics, MechanicalMode)
    polaritons = check_entries("polaritons", polaritons, NetworkPolariton)
    n_p = len(polaritons)
    if n_p < 1 or len(mechanics) < 1:
        raise ValidationError("build_network: need at least one polariton and one mechanical mode")
    rabi = check_real("drive.rabi_freq", drive.rabi_freq, at_least=0.0)
    temperature = check_real("drive.bath_temperature", drive.bath_temperature, at_least=0.0)
    drive_freq = drive.drive_freq
    if any(p.detuning is None for p in polaritons):  # a node detuned from the drive
        drive_freq = check_real("drive.drive_freq", drive_freq, above=0.0)
    mechanics = _float_modes(mechanics, "mechanics")
    freqs = [p.freq for p in polaritons]
    linewidths = [p.linewidth for p in polaritons]
    weights = [p.weight for p in polaritons]
    detunings = _node_detunings(freqs, linewidths, weights, [p.detuning for p in polaritons],
                                drive_freq)
    cross = _cross_damping(cross_damping, n_p)
    sigma = _shift_coefficient(mechanics) if mode == "selfconsistent" else 0.0
    return _model(n_p, len(mechanics), *_network(
        freqs, linewidths, weights, detunings, mechanics, sigma, rabi, temperature, cross, mode))


def _network(freqs, linewidths, weights, detunings, mechanics, sigma, rabi, temperature, cross,
             mode) -> tuple[list, tuple]:
    """(values, solved) of one working point from checked plain inputs: per node
    its frequency, linewidth, matter weight and drive detuning, the mechanical
    modes and their shift coefficient (:func:`_shift_coefficient`), the drive's
    Rabi frequency and bath temperature, and the cross damping as nested lists.
    ``values`` is its drift and diffusion as one flat list of the values that
    fill them (:func:`_pattern`). ``solved`` holds the arguments of the record
    step, :func:`_averages`: the node weights and detunings, the modes, the
    Rabi frequency, the mode, the matter amplitude M and |M|^2, the effective
    couplings and the selfconsistent solution (None in approx mode or at zero
    drive). This values core is what every working point runs; a sweep reads
    the values and forms neither a :class:`LinearModel` nor the fields of its
    averages record, which only :func:`_model` forms.

    It checks the two rules that every working point obeys, for every caller:
    the mode is "approx" or "selfconsistent", and in approx mode at a nonzero
    drive no detuning is zero (the first zero one is named). The callers check
    the inputs first, so a node's own bad value is reported before either.
    Derived values are not checked one by one: an M whose |M|^2 overflows
    raises ValidationError here, and a NaN or infinite value is left to the
    matrix check (:class:`LinearModel`, or a sweep's one finite test of its
    stack's values, :func:`_checked_stack`).
    """
    if mode not in ("approx", "selfconsistent"):
        raise ValidationError(f"mode: expected 'approx' or 'selfconsistent', got {mode!r}")
    if mode == "approx" and rabi != 0.0 and 0.0 in detunings:
        raise ValidationError(
            f"polaritons[{detunings.index(0.0)}].detuning: polariton resonant with the drive"
            " (zero detuning); approx mode requires nonzero detunings")
    n_p = len(freqs)
    solution = None
    try:
        if rabi == 0.0:
            matter, m2, couplings = 0j, 0.0, (0.0,) * len(mechanics)
        elif mode == "approx":
            matter = _sum(w * (-1j * w * rabi / d) for w, d in zip(weights, detunings))
            m2 = abs(matter) ** 2
            couplings = tuple((2j * m.bare_coupling * matter).real for m in mechanics)
        else:
            matter, solution = _selfconsistent_polaritons(
                weights, detunings, linewidths, cross, rabi, sigma)
            m2 = abs(matter) ** 2
            couplings = tuple(abs(2.0 * m.bare_coupling * matter) for m in mechanics)
    except OverflowError:  # float ** 2 raises instead of giving inf
        raise ValidationError("averages: a value derived from the inputs overflows") from None

    # damped rotation blocks and their input noise 2 damping (nbar + 1/2) I_2,
    # then the node-node and node-mechanics couplings, in _pattern's order
    values = []
    for f, g, det in zip(freqs, linewidths, detunings):
        values += (-g, det, -det, 2.0 * g * (_bose(f, temperature) + 0.5))
    for m in mechanics:
        g, f = m.damping, m.freq
        values += (-g, f, -f, 2.0 * g * (_bose(f, temperature) + 0.5))
    for k in range(n_p):
        for q in range(k + 1, n_p):
            cd = cross[k][q]
            if cd != 0.0:
                n_c = _bose(0.5 * (freqs[k] + freqs[q]), temperature)
                values += (-cd, 2.0 * cd * (n_c + 0.5))
            else:  # uncoupled nodes: +0.0, as in an entry no value fills
                values += (0.0, 0.0)
    for g_j in couplings:
        for w in weights:
            values += (-g_j * w, g_j * w)
    return values, (weights, detunings, mechanics, rabi, mode, matter, m2, couplings, solution)


def _averages(weights, detunings, mechanics, rabi, mode, matter, m2, couplings,
              solution) -> tuple:
    """The fields of a point's :class:`SteadyStateAverages`, in order, from the
    ``solved`` of :func:`_network`: the record step, which only :func:`_model` runs.

    It forms what no value of the point reads: the polariton amplitudes, the
    mechanical averages <b_j> (-G_0j |M|^2 / omega_j in approx mode,
    -i G_0j |M|^2 / (i omega_j + gamma_j) selfconsistently), the phase rotation,
    and every root of the cubic and so every branch's M, each by the code the
    core's M came from, so the first branch is M itself. It raises nothing:
    the values that can overflow, |M|^2 and the cubic's coefficients, the core
    formed.
    """
    if rabi == 0.0:
        return (0j,) * len(weights), (0j,) * len(mechanics), matter, couplings, 0.0, mode, (0j,)
    if mode == "approx":
        return (tuple(-1j * w * rabi / d for w, d in zip(weights, detunings)),
                tuple(complex(-m.bare_coupling * m2 / m.freq) for m in mechanics),
                matter, couplings, 0.0, mode, (matter,))
    v, chi, unit, cubic = solution
    ys = [0.0] if cubic is None else _nonnegative_roots(*cubic)
    lowest = rabi / (1.0 + 1j * ys[0] * unit)
    # a root with y unit = i, a rounded fold at infinite |M|, is no steady state
    denoms = [1.0 + 1j * y * unit for y in ys[1:]]
    return (tuple(lowest * x for x in v),
            tuple(-1j * m.bare_coupling * m2 / (1j * m.freq + m.damping) for m in mechanics),
            matter, couplings, -cmath.phase(matter) - 0.5 * math.pi if matter != 0 else 0.0,
            mode, (matter,) + tuple(rabi * chi / q for q in denoms if q))
