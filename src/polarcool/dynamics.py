"""Mean-field steady state and linearized fluctuation dynamics.

One builder, :func:`build_network`, covers every system: N polaritons, all
fed by one drive through their matter content (one weight per node), cooling
M mechanical modes. It finds the classical averages (approximate closed form
or a selfconsistent fixed point) and the effective couplings they induce,
and builds the drift and diffusion matrices of the quadrature fluctuations.
The two-polariton system is the two-node case: :func:`build_linear_model`
feeds it the upper and lower polaritons with weights sin(theta) and
cos(theta) and their dissipative cross-coupling.

Quadrature ordering is (X, Y) per mode, polaritons first, then mechanics.
Vacuum noise corresponds to covariance 1/2 per quadrature.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SolverError, ValidationError, check_drift_diffusion, check_real
from .model import (
    MechanicalMode,
    PolaritonBasis,
    SystemParams,
    _bose,
    diagonalize_polaritons,
)

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


@dataclass(frozen=True)
class LinearModel:
    """Drift and diffusion of the linearized fluctuations plus their provenance.

    The one place a model's matrices are checked: construction (and so
    ``dataclasses.replace``) raises ValidationError, naming the field, unless
    both are real, square, non-empty, finite and of one shape, and the
    diffusion is symmetric within 1e-12 max(1, max|D|). The model holds
    read-only float copies, so what was checked cannot change afterwards and
    the solvers use the matrices without checking them again.
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


def _node_detunings(polaritons, drive_freq: float, rabi: float, mode: str) -> list[float]:
    """Drive detunings of valid polariton nodes in a valid ``mode``; raises otherwise."""
    if mode not in ("approx", "selfconsistent"):
        raise ValidationError(f"mode: expected 'approx' or 'selfconsistent', got {mode!r}")
    detunings = []
    for k, p in enumerate(polaritons):
        check_real(f"polaritons[{k}].freq", p.freq, above=0.0)
        check_real(f"polaritons[{k}].linewidth", p.linewidth, above=0.0)
        check_real(f"polaritons[{k}].weight", p.weight)
        det = p.freq - drive_freq if p.detuning is None else p.detuning
        det = check_real(f"polaritons[{k}].detuning", det)
        if det == 0.0 and mode == "approx" and rabi != 0.0:
            raise ValidationError(
                f"polaritons[{k}].detuning: polariton resonant with the drive (zero detuning);"
                " approx mode requires nonzero detunings"
            )
        detunings.append(det)
    return detunings


def _validated_inputs(polaritons, mechanics, drive, cross_damping, mode):
    """Detunings and cross-damping matrix (nested lists) of valid inputs; raises otherwise."""
    n_p = len(polaritons)
    if n_p < 1 or len(mechanics) < 1:
        raise ValidationError("build_network: need at least one polariton and one mechanical mode")
    rabi = check_real("drive.rabi_freq", drive.rabi_freq, at_least=0.0)
    check_real("drive.bath_temperature", drive.bath_temperature, at_least=0.0)
    for j, mech in enumerate(mechanics):
        mech.validate(path=f"mechanics[{j}]")
    detunings = _node_detunings(polaritons, drive.drive_freq, rabi, mode)
    if cross_damping is None:
        return detunings, [[0.0] * n_p for _ in range(n_p)]
    cross = np.asarray(cross_damping, dtype=float)
    if cross.shape != (n_p, n_p):
        raise ValidationError(f"cross_damping: expected shape {(n_p, n_p)}, got {cross.shape}")
    # nested floats: a few scalar checks beat numpy reductions on an N_p x N_p matrix
    cross = cross.tolist()
    if not all(cross[k][q] == cross[q][k] and abs(cross[k][q]) < math.inf
               for k in range(n_p) for q in range(k + 1, n_p)) \
            or any(cross[k][k] != 0.0 for k in range(n_p)):
        raise ValidationError("cross_damping: must be finite and symmetric with a zero diagonal")
    return detunings, cross


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


def _nonnegative_roots(p: float, c: float) -> list[float]:
    """Ascending roots y >= 0 of the monic cubic f(y) = y^3 + p y^2 + y - c, |p| <= 2, c >= 0.

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
    return roots


def _selfconsistent_polaritons(weights, detunings, linewidths, cross, rabi, mechanics):
    """Polariton amplitudes of the lowest branch, and the matter amplitude of every branch.

    At a fixed displacement shift x the polariton equations are linear,
    (A0 + i x w w^T) P = Omega w with A0 = i Delta + kappa + K, so
    P = Omega v / (1 + i x chi) with v = A0^{-1} w and chi = w^T v, and the
    shift depends on P only through the matter amplitude,
    x = sigma |M|^2 with sigma = sum_j 2 G_0j Re[-i G_0j / (i omega_j + gamma_j)].
    So M = Omega chi / (1 + i sigma u chi) with u = |M|^2 a non-negative root of
    sigma^2 |chi|^2 u^3 - 2 sigma Im(chi) u^2 + u - Omega^2 |chi|^2 = 0 whatever the
    number of nodes. Scaled to y = |sigma| |chi| u it is the monic
    y^3 + p y^2 + y - c = 0 with p = -2 sgn(sigma) Im(chi) / |chi| in [-2, 2] and
    c = |sigma| |chi|^3 Omega^2, whose only large coefficient is c. It has one
    root, as f(0) <= 0 < f'(0), or three where it is statically bistable; the
    lowest is the branch a drive ramped up from zero reaches. At a fold, where
    f vanishes at a critical point to round-off, the double root is listed
    twice. sigma chi = 0 leaves no shift: M = Omega chi.
    """
    n = len(weights)
    v = _eliminate([[complex(linewidths[k], detunings[k]) if q == k else cross[k][q]
                     for q in range(n)] + [weights[k]] for k in range(n)])
    chi = sum(w * x for w, x in zip(weights, v))
    sigma = sum(2.0 * m.bare_coupling * (-1j * m.bare_coupling / (1j * m.freq + m.damping)).real
                for m in mechanics)
    scale = abs(sigma) * abs(chi)
    if scale == 0.0:
        unit, ys = 0j, [0.0]
    else:
        unit = math.copysign(1.0, sigma) * chi / abs(chi)  # sigma u chi = y unit
        field = rabi * abs(chi)
        p, c = -2.0 * unit.imag, scale * field * field
        if not (math.isfinite(p) and math.isfinite(c)):
            raise OverflowError
        ys = _nonnegative_roots(p, c)
    branches = tuple(rabi * chi / (1.0 + 1j * y * unit) for y in ys)
    lowest = rabi / (1.0 + 1j * ys[0] * unit)
    return tuple(lowest * x for x in v), branches


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
    (X rows of the nodes, Y rows of the mechanics).

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
        A missing, NaN, infinite or out-of-range input, named by its path
        (``polaritons[k].linewidth``, ``drive.rabi_freq``, ``cross_damping``);
        approx mode with a node resonant with the drive; an average derived
        from finite inputs that overflows.
    SolverError
        selfconsistent mode with a singular polariton matrix.
    """
    detunings, cross = _validated_inputs(polaritons, mechanics, drive, cross_damping, mode)
    return _network(polaritons, detunings, mechanics, drive, cross, mode)


def _network(polaritons, detunings, mechanics, drive, cross, mode) -> LinearModel:
    """:func:`build_network` of checked inputs, ``cross`` as nested lists.

    Derived values are not checked one by one: an average that overflows, or
    a NaN or infinite entry of the assembled matrices, which the
    :class:`LinearModel` rejects, raises ValidationError.
    """
    n_p, n_m = len(polaritons), len(mechanics)
    weights = [p.weight for p in polaritons]
    rabi = drive.rabi_freq

    try:
        if rabi == 0.0:
            p_avgs, mech_avgs = (0j,) * n_p, (0j,) * n_m
            matter, couplings, phase, branches = 0j, (0.0,) * n_m, 0.0, (0j,)
        elif mode == "approx":
            p_avgs = tuple(-1j * w * rabi / d for w, d in zip(weights, detunings))
            matter = sum(w * p for w, p in zip(weights, p_avgs))
            m2 = abs(matter) ** 2
            mech_avgs = tuple(complex(-m.bare_coupling * m2 / m.freq) for m in mechanics)
            couplings = tuple((2j * m.bare_coupling * matter).real for m in mechanics)
            phase, branches = 0.0, (matter,)
        else:
            p_avgs, branches = _selfconsistent_polaritons(
                weights, detunings, [p.linewidth for p in polaritons], cross, rabi, mechanics
            )
            matter = branches[0]
            m2 = abs(matter) ** 2
            mech_avgs = tuple(-1j * m.bare_coupling * m2 / (1j * m.freq + m.damping)
                              for m in mechanics)
            couplings = tuple(abs(2.0 * m.bare_coupling * matter) for m in mechanics)
            phase = -cmath.phase(matter) - 0.5 * math.pi if matter != 0 else 0.0
    except OverflowError:  # float ** 2 raises instead of giving inf
        raise ValidationError("averages: a value derived from the inputs overflows") from None

    temp = drive.bath_temperature
    n = 2 * (n_p + n_m)
    r = np.zeros((n, n))
    d = np.zeros((n, n))

    def rotation(i: int, damping: float, freq: float, nbar: float) -> None:
        # damped rotation block of drift and its input noise 2 damping (nbar + 1/2) I_2
        r[i, i] = r[i + 1, i + 1] = -damping
        r[i, i + 1], r[i + 1, i] = freq, -freq
        d[i, i] = d[i + 1, i + 1] = 2.0 * damping * (nbar + 0.5)

    for k, (p, det) in enumerate(zip(polaritons, detunings)):
        rotation(2 * k, p.linewidth, det, _bose(p.freq, temp))
        for q in range(k + 1, n_p):
            cd = cross[k][q]
            if cd != 0.0:
                i, i2 = 2 * k, 2 * q
                r[i, i2] = r[i + 1, i2 + 1] = r[i2, i] = r[i2 + 1, i + 1] = -cd
                n_c = _bose(0.5 * (p.freq + polaritons[q].freq), temp)
                d[i, i2] = d[i + 1, i2 + 1] = d[i2, i] = d[i2 + 1, i + 1] = 2.0 * cd * (n_c + 0.5)
    for j, (mech, g_j) in enumerate(zip(mechanics, couplings)):
        i = 2 * (n_p + j)
        rotation(i, mech.damping, mech.freq, _bose(mech.freq, temp))
        for k, w in enumerate(weights):
            r[2 * k, i] = -g_j * w
            r[i + 1, 2 * k + 1] = g_j * w

    layout = tuple(f"p{k + 1}" for k in range(n_p)) + tuple(f"b{j + 1}" for j in range(n_m))
    averages = SteadyStateAverages(
        avg_polaritons=p_avgs,
        avg_mech=mech_avgs,
        avg_matter=matter,
        effective_couplings=couplings,
        phase_rotation=phase,
        mode=mode,
        branches=branches,
    )
    return LinearModel(drift=r, diffusion=d, mode_layout=layout, averages=averages)


def build_linear_model(
    params: SystemParams, basis: PolaritonBasis | None = None, mode: str = "approx"
) -> LinearModel:
    """The two-polariton system as a two-node network, nodes (upper, lower).

    The nodes carry matter weights sin(theta) and cos(theta), the basis's
    detunings (formed without GHz-scale round-off) and the dissipative
    coupling delta-kappa between them; see :func:`build_network`.
    """
    if basis is None:
        basis = diagonalize_polaritons(params)
    s, c = math.sin(basis.theta), math.cos(basis.theta)
    nodes = (
        NetworkPolariton(basis.upper_freq, basis.upper_linewidth, s, basis.detuning_upper),
        NetworkPolariton(basis.lower_freq, basis.lower_linewidth, c, basis.detuning_lower),
    )
    drive = NetworkDrive(params.drive_freq, params.rabi_freq, params.bath_temperature)
    # the drive and the mechanics were checked when params was built; the nodes are new here
    detunings = _node_detunings(nodes, params.drive_freq, params.rabi_freq, mode)
    dk = basis.dissipative_coupling
    return _network(nodes, detunings, params.mechanical_modes, drive, [[0.0, dk], [dk, 0.0]], mode)


# ---------------------------------------------------------------------------
# photon-matter diagonalization for N-polariton devices


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
