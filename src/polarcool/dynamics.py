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

from .errors import SolverError, ValidationError, check_real
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
    """Drift and diffusion of the linearized fluctuations plus their provenance."""

    drift: np.ndarray
    diffusion: np.ndarray
    mode_layout: tuple[str, ...]
    averages: SteadyStateAverages


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


def _nonnegative_roots(coeffs) -> list[float]:
    """Ascending roots u >= 0 of the real cubic ``coeffs``, highest power first.

    np.roots drops zero leading coefficients (a line needs no special case) and
    resolves a near-double root at a fold only to about sqrt(eps), as a real or
    a complex pair. So a root within 1e-6 max|root| of the real axis counts when
    |f(u)| <= 1e-15 sum|terms|; a real one first gets two Newton steps, each kept
    only if it lowers |f| (from a pair's real part they might jump to another root).
    """
    c3, c2, c1, c0 = coeffs

    def f(u):
        return ((c3 * u + c2) * u + c1) * u + c0

    roots, found = np.roots(coeffs).tolist(), []
    near_axis = 1e-6 * max(map(abs, roots))
    for u, imag in ((r.real, r.imag) for r in roots if abs(r.imag) <= near_axis):
        for _ in range(2 if imag == 0.0 else 0):
            slope = (3.0 * c3 * u + 2.0 * c2) * u + c1
            nxt = u - f(u) / slope if slope else u
            u = nxt if abs(f(nxt)) < abs(f(u)) else u
        terms = ((abs(c3) * u + abs(c2)) * u + abs(c1)) * u + abs(c0)
        if u >= 0.0 and abs(f(u)) <= 1e-15 * terms:
            found.append(u)
    return sorted(found)


def _selfconsistent_polaritons(weights, detunings, linewidths, cross, rabi, mechanics):
    """Polariton amplitudes of the lowest branch, and the matter amplitude of every branch.

    At a fixed displacement shift x the polariton equations are linear,
    (A0 + i x w w^T) P = Omega w with A0 = i Delta + kappa + K, so
    P = Omega v / (1 + i x chi) with v = A0^{-1} w and chi = w^T v, and the
    shift depends on P only through the matter amplitude,
    x = sigma |M|^2 with sigma = sum_j 2 G_0j Re[-i G_0j / (i omega_j + gamma_j)].
    So M = Omega chi / (1 + i sigma u chi) with u = |M|^2 a non-negative root of
    sigma^2 |chi|^2 u^3 - 2 sigma Im(chi) u^2 + u - Omega^2 |chi|^2 = 0 whatever the
    number of nodes: at least one, as f(0) <= 0 < f'(0), and three where it is
    statically bistable; the lowest is the branch a drive ramped up from zero reaches.
    """
    w = np.asarray(weights, dtype=float)
    a0 = np.diag(1j * np.asarray(detunings) + linewidths) + np.asarray(cross)
    try:
        v = np.linalg.solve(a0, w)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"selfconsistent averages: singular polariton matrix ({exc})") from exc
    chi = complex(w @ v)
    sigma = sum(2.0 * m.bare_coupling * (-1j * m.bare_coupling / (1j * m.freq + m.damping)).real
                for m in mechanics)
    coeffs = ((sigma * abs(chi)) ** 2, -2.0 * sigma * chi.imag, 1.0, -(rabi * abs(chi)) ** 2)
    roots = _nonnegative_roots(coeffs)
    branches = tuple(rabi * chi / (1.0 + 1j * sigma * u * chi) for u in roots)
    p_avgs = tuple(complex(x) for x in rabi * v / (1.0 + 1j * sigma * roots[0] * chi))
    return p_avgs, branches


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
        displacement-induced detuning shift, from one cubic in |M|^2 (lowest
        branch; every branch's M is in ``averages.branches``).

    Raises
    ------
    ValidationError
        A missing, NaN, infinite or out-of-range input, named by its path
        (``polaritons[k].linewidth``, ``drive.rabi_freq``, ``cross_damping``);
        approx mode with a node resonant with the drive.
    SolverError
        selfconsistent mode with a singular polariton matrix.
    """
    detunings, cross = _validated_inputs(polaritons, mechanics, drive, cross_damping, mode)
    return _network(polaritons, detunings, mechanics, drive, cross, mode)


def _network(polaritons, detunings, mechanics, drive, cross, mode) -> LinearModel:
    """:func:`build_network` of checked inputs, ``cross`` as nested lists.

    Derived values are not checked one by one: an average that overflows, or
    a single finiteness test on the assembled drift, raises ValidationError.
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

    if not np.isfinite(r).all():
        raise ValidationError("drift: an entry derived from the inputs is NaN or infinite")
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
