"""Shared construction helpers and independent oracles for the test suite."""
import cmath
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

import polarcool as pc
from polarcool import steadystate
from polarcool.analytics import CoolingRates, _sideband_rates
from polarcool.errors import SolverError, ValidationError, check_real
from polarcool.model import _pair, _sum

TWO_PI = 2.0 * math.pi

# 250 um sphere at 2.7e-5 T; value frozen from the drive calibration
BASE_RABI = 78525797543744.95


def make_mechs(freq_hz=(1.0e7, 3.0e7), damping_hz=100.0, bare_coupling_hz=0.2):
    return tuple(
        pc.MechanicalMode(
            freq=TWO_PI * f,
            damping=TWO_PI * damping_hz,
            bare_coupling=TWO_PI * bare_coupling_hz,
        )
        for f in freq_hz
    )


def make_base_setup(magnon_linewidth=TWO_PI * 1.0e6, **overrides):
    """The base preset's angle-tuned device; ``magnon_linewidth`` is its one matter linewidth."""
    kwargs = dict(
        cavity_freq=TWO_PI * 1.0e10,
        cavity_linewidth=TWO_PI * 1.0e6,
        matter_linewidths=(magnon_linewidth,),
        mechanical_modes=make_mechs(),
        bath_temperature=0.01,
        rabi_freq=BASE_RABI,
    )
    kwargs.update(overrides)
    return pc.Device(**kwargs)


def design(n):
    """An exactly tuned fixed-coupling device of ``n`` modes, and its designed matter
    frequencies: mechanical modes at 10, 20, ..., 10 n MHz with the base preset's
    damping and bare coupling, polaritons on their sidebands of a 10 GHz drive,
    matter frequencies at the midpoints between those targets, every bare
    linewidth 1 MHz, and the couplings and cavity frequency of the arrowhead
    inverse eigenvalue problem (Boley & Golub 1987): g_i^2 = -prod_k (w_i - l_k)
    / prod_(j != i) (w_i - w_j), and the trace fixes the cavity."""
    mech_hz = tuple(1.0e7 * (k + 1) for k in range(n))
    targets = [TWO_PI * (1.0e10 + f) for f in mech_hz]
    matter = [0.5 * (a + b) for a, b in zip(targets, targets[1:])]
    couplings = tuple(
        math.sqrt(-math.prod(w - t for t in targets)
                  / math.prod(w - v for j, v in enumerate(matter) if j != i))
        for i, w in enumerate(matter))
    device = pc.Device(
        cavity_freq=sum(targets) - sum(matter),
        cavity_linewidth=TWO_PI * 1.0e6,
        matter_linewidths=(TWO_PI * 1.0e6,) * (n - 1),
        mechanical_modes=make_mechs(freq_hz=mech_hz),
        bath_temperature=0.01,
        rabi_freq=BASE_RABI,
        couplings=couplings,
    )
    return device, matter


# ---------------------------------------------------------------------------
# the angle-tuned pair's normal modes, named, and the same pair built by hand
# as a two-node network


class Pair(NamedTuple):
    """The normal modes of an angle-tuned pair, the fields of ``model._pair`` in order."""

    theta: float
    upper_freq: float
    lower_freq: float
    upper_linewidth: float
    lower_linewidth: float
    dissipative_coupling: float
    detuning_upper: float
    detuning_lower: float


def pair_at(setup, theta):
    """The normal modes of ``setup``'s pair at mixing angle ``theta``."""
    coupling, magnon_freq, drive_freq = setup._tuned(theta)
    return Pair(*_pair(setup.cavity_freq, magnon_freq, coupling, setup.cavity_linewidth,
                       setup.matter_linewidths[0], drive_freq))


def pair_network(setup, theta, mode="approx", **changes):
    """``build_network`` of the pair's two nodes at ``theta``, (upper, lower), each
    with its own detuning, their cross damping and ``setup``'s drive and mechanics;
    ``changes`` replace fields of the :class:`Pair` first."""
    pair = pair_at(setup, theta)._replace(**changes)
    s, c = math.sin(pair.theta), math.cos(pair.theta)
    nodes = (pc.NetworkPolariton(pair.upper_freq, pair.upper_linewidth, s, pair.detuning_upper),
             pc.NetworkPolariton(pair.lower_freq, pair.lower_linewidth, c, pair.detuning_lower))
    drive = pc.NetworkDrive(drive_freq=setup._tuned(theta)[2], rabi_freq=setup.rabi_freq,
                            bath_temperature=setup.bath_temperature)
    dk = pair.dissipative_coupling
    return pc.build_network(nodes, setup.mechanical_modes, drive, [[0.0, dk], [dk, 0.0]], mode)


# ---------------------------------------------------------------------------
# independent classical-dynamics oracle, coded from the equations of motion
# rather than from the package's matrix builders


def classical_rhs(v, pair, mechanics, rabi):
    """Full nonlinear classical equations in (Re, Im) coordinates, of a pair's
    normal modes (a :class:`Pair`), its mechanical modes and its Rabi frequency."""
    s, c = math.sin(pair.theta), math.cos(pair.theta)
    u = v[0] + 1j * v[1]
    low = v[2] + 1j * v[3]
    bs = [v[4 + 2 * j] + 1j * v[5 + 2 * j] for j in range(len(mechanics))]
    matter = s * u + c * low
    x = sum(2.0 * m.bare_coupling * b.real for m, b in zip(mechanics, bs))
    du = -(1j * pair.detuning_upper + pair.upper_linewidth) * u \
        - pair.dissipative_coupling * low - 1j * s * x * matter + rabi * s
    dl = -(1j * pair.detuning_lower + pair.lower_linewidth) * low \
        - pair.dissipative_coupling * u - 1j * c * x * matter + rabi * c
    out = [du.real, du.imag, dl.real, dl.imag]
    for mech, b in zip(mechanics, bs):
        db = -(1j * mech.freq + mech.damping) * b - 1j * mech.bare_coupling * abs(matter) ** 2
        out.extend([db.real, db.imag])
    return np.array(out)


def averages_vector(avg):
    return np.array([x for z in avg.avg_polaritons + avg.avg_mech for x in (z.real, z.imag)])


def rotate_polaritons(mat_or_vec, psi):
    rot = np.array([[math.cos(psi), -math.sin(psi)], [math.sin(psi), math.cos(psi)]])
    n = mat_or_vec.shape[0]
    t = np.eye(n)
    t[0:2, 0:2] = rot
    t[2:4, 2:4] = rot
    if mat_or_vec.ndim == 1:
        return t @ mat_or_vec
    return t @ mat_or_vec @ t.T


def shift_corrected_drift(drift, pair, mechanics, avg):
    """Add back the static displacement detuning shift the model drops."""
    s, c = math.sin(pair.theta), math.cos(pair.theta)
    shift = sum(2.0 * m.bare_coupling * b.real for m, b in zip(mechanics, avg.avg_mech))
    corrected = np.array(drift, dtype=float, copy=True)
    spin = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for rows, cols, w in (((0, 2), (0, 2), s * s), ((0, 2), (2, 4), s * c),
                          ((2, 4), (0, 2), c * s), ((2, 4), (2, 4), c * c)):
        corrected[rows[0]:rows[1], cols[0]:cols[1]] += shift * w * spin
    return corrected


def random_block_instance(rng, n_pairs):
    """Stable damped-rotation blocks with weak skew couplings, like the models."""
    n = 2 * n_pairs
    r = np.zeros((n, n))
    d = np.zeros((n, n))
    for k in range(n_pairs):
        kappa = rng.uniform(0.2, 0.8)
        omega = rng.uniform(1.0, 5.0)
        i = 2 * k
        r[i:i + 2, i:i + 2] = [[-kappa, omega], [-omega, -kappa]]
        d[i:i + 2, i:i + 2] = 2.0 * kappa * (rng.uniform(0.0, 3.0) + 0.5) * np.eye(2)
    for k in range(n_pairs - 1):
        g = rng.uniform(0.01, 0.1)
        i, j = 2 * k, 2 * (k + 1)
        r[i, j] = -g
        r[j + 1, i + 1] = g
    return r, d


# ---------------------------------------------------------------------------
# independent assembly oracle: the drift and diffusion filled entry by entry,
# as nested lists, from the inputs and couplings of a network


def assemble_network(polaritons, mechanics, drive, cross, couplings):
    """(drift, diffusion) of a network with effective couplings ``couplings``.

    ``cross`` is the nested N_p x N_p cross-damping list. Every entry no
    statement writes is +0.0; an uncoupled node pair writes nothing.
    """
    n_p, temp = len(polaritons), drive.bath_temperature
    n = 2 * (n_p + len(mechanics))
    r = [[0.0] * n for _ in range(n)]
    d = [[0.0] * n for _ in range(n)]

    def rotation(i, damping, freq, nbar):
        r[i][i] = r[i + 1][i + 1] = -damping
        r[i][i + 1], r[i + 1][i] = freq, -freq
        d[i][i] = d[i + 1][i + 1] = 2.0 * damping * (nbar + 0.5)

    for k, p in enumerate(polaritons):
        det = p.freq - drive.drive_freq if p.detuning is None else p.detuning
        rotation(2 * k, p.linewidth, det, pc.thermal_occupation(p.freq, temp))
        for q in range(k + 1, n_p):
            cd = cross[k][q]
            if cd != 0.0:
                i, i2 = 2 * k, 2 * q
                r[i][i2] = r[i + 1][i2 + 1] = r[i2][i] = r[i2 + 1][i + 1] = -cd
                n_c = pc.thermal_occupation(0.5 * (p.freq + polaritons[q].freq), temp)
                d[i][i2] = d[i + 1][i2 + 1] = d[i2][i] = d[i2 + 1][i + 1] = 2.0 * cd * (n_c + 0.5)
    for j, (mech, g_j) in enumerate(zip(mechanics, couplings)):
        i = 2 * (n_p + j)
        rotation(i, mech.damping, mech.freq, pc.thermal_occupation(mech.freq, temp))
        for k, p in enumerate(polaritons):
            r[2 * k][i] = -g_j * p.weight
            r[i + 1][2 * k + 1] = g_j * p.weight
    return np.array(r, dtype=float), np.array(d, dtype=float)


# ---------------------------------------------------------------------------
# rates oracle: the closed-form rates as a list per quantity and a CoolingRates
# per mode, with every linewidth and damping checked up front


def rates_for_mode(mode_index, mech_damping, mech_occupation, couplings, linewidths, detunings,
                   mech_freq):
    stokes, anti = [], []
    weak = True
    for g, kappa, det in zip(couplings, linewidths, detunings):
        s_k, a_k = _sideband_rates(g, kappa, det, mech_freq)
        stokes.append(s_k)
        anti.append(a_k)
        if abs(g) > 0.5 * kappa:
            weak = False
    net = [a - s for a, s in zip(anti, stokes)]
    kappa_eff = mech_damping + _sum(net)
    dominant = anti.index(max(anti)) if anti else 0
    base = mech_damping * mech_occupation
    n_eff = mech_occupation
    if anti:
        denom = mech_damping + net[dominant]
        n_eff = math.inf if denom <= 0.0 else (base + stokes[dominant]) / denom
    n_eff_all = math.inf if kappa_eff <= 0.0 else (base + _sum(stokes)) / kappa_eff
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


def cooling(values, n_p, n_m):
    """``network_cooling`` of the values that fill a drift and diffusion."""
    if n_m == 0:
        raise ValidationError("model: no mechanical modes in layout")
    linewidths = tuple(check_real(f"model: polariton {k} linewidth", -values[4 * k], above=0.0)
                       for k in range(n_p))
    detunings = tuple(values[4 * k + 1] for k in range(n_p))
    couplings = 4 * (n_p + n_m) + n_p * (n_p - 1)
    out = []
    for j in range(n_m):
        m, start = 4 * (n_p + j), couplings + 2 * j * n_p
        mech_damping = check_real(f"model: mechanical mode {j} damping", -values[m], above=0.0)
        nbar = values[m + 3] / (2.0 * mech_damping) - 0.5
        out.append(rates_for_mode(
            j, mech_damping, nbar, tuple(-g for g in values[start:start + 2 * n_p:2]),
            linewidths, detunings, values[m + 1]
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# solver oracle: the Bartels-Stewart solve of a stack point by point, each
# point's products formed as 2-D dots in scipy's order


def schur(r):
    """(T, Z, verdict, ||R||_F) of one validated drift, by one direct dgees call."""
    r_norm = steadystate._fro(r)
    if r_norm == math.inf:
        raise SolverError("drift: its norm overflows, so the stability margin cannot be set")
    n = r.shape[0]
    lwork = steadystate._DGEES_LWORK.get(n)
    if lwork is None:
        lwork = steadystate._DGEES_LWORK[n] = int(
            steadystate.dgees(steadystate._no_sort, r, lwork=-1)[-2][0])
    t, _, _, _, z, _, status = steadystate.dgees(steadystate._no_sort, r, lwork=lwork)
    if status != 0:
        raise SolverError(f"drift: real Schur factorization failed (dgees info {status})")
    margin = steadystate.STABILITY_MARGIN * r_norm
    abscissa = float(t.diagonal().max())
    info = steadystate.StabilityInfo(stable=abscissa < -margin, spectral_abscissa=abscissa,
                                     margin=margin)
    return t, z, info, r_norm


def solve(r, d):
    """``steadystate._solve`` of (P, n, n) stacks, each point factored, solved and
    back-transformed on its own."""
    out, solved = [], []
    checks = np.zeros((3, *d.shape))
    v = checks[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(len(r)):
            try:
                t, z, info, r_norm = schur(r[p])
                if not info.stable:
                    out.append((info, None, math.nan, False))
                    continue
                f = z.T.dot((-d[p]).dot(z))
                y, scale, status = steadystate.dtrsyl(t, t, f, tranb="T")
                if status != 0:
                    raise SolverError(
                        f"lyapunov: triangular Sylvester solve returned info {status} "
                        "(eigenvalue pairs of the drift nearly cancel)"
                    )
            except SolverError as exc:
                out.append(exc)
                continue
            y *= scale
            w = z.dot(y).dot(z.T)
            v[p] = 0.5 * (w + w.T)
            out.append(info)
            solved.append((p, r_norm))
        if not solved:
            return out
        v_norms, e_norms, d_norms = steadystate._verify(r, d, checks)
    for p, r_norm in solved:
        d_norm = d_norms[p]
        if d_norm == 0.0:
            out[p] = (out[p], v[p], 0.0, False)
            continue
        if d_norm == math.inf:
            out[p] = SolverError("lyapunov: the diffusion's norm overflows, so the residual"
                                 " cannot be checked")
            continue
        residual = e_norms[p] / d_norm
        if not math.isfinite(residual) or residual > steadystate.RESIDUAL_LIMIT:
            out[p] = SolverError(
                f"lyapunov residual {residual:.3e} exceeds {steadystate.RESIDUAL_LIMIT:.0e}")
            continue
        proxy = 2.0 * r_norm * v_norms[p] / d_norm
        out[p] = (out[p], v[p], residual, proxy > steadystate.CONDITION_LIMIT)
    return out


def integrate(r, d, v0=None, t_final=None):
    """``integrate_covariance`` of a checked drift and diffusion, its verdict read
    off :func:`schur` and every product formed by the @ operator."""
    if t_final is None:
        t_final = 15.0 / abs(schur(r)[2].spectral_abscissa)
    n = r.shape[0]
    v0 = 0.5 * np.eye(n) if v0 is None else v0
    k = math.ceil(math.log2(max(float(np.linalg.norm(r, 1)) * t_final, 1.0)))
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -r
    block[:n, n:] = d
    block[n:, n:] = r.T
    f = scipy.linalg.expm(block * (t_final / 2.0 ** k))
    phi = f[n:, n:].T
    q = phi @ f[:n, n:]
    for _ in range(k):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    v = phi @ v0 @ phi.T + q
    return 0.5 * (v + v.T)


# ---------------------------------------------------------------------------
# sweep-table oracle: the CSV and plot-data writers formatting field by field


def _fmt(value):
    return f"{value:.12g}"


def _row_fields(row):
    return [
        _fmt(row.variable),
        _fmt(row.theta),
        _fmt(row.coupling / TWO_PI),
        _fmt(row.magnon_freq / TWO_PI),
        _fmt(row.drive_freq / TWO_PI),
        *(_fmt(k / TWO_PI) for k in row.kappa_eff),
        *(_fmt(n) for pair in zip(row.n_analytic, row.n_numeric) for n in pair),
        "true" if row.stable else "false",
        ";".join(row.flags),
    ]


def write_csv(rows, path):
    """``cli.write_csv`` with each field formatted on its own."""
    from polarcool.cli import csv_columns

    lines = [",".join(csv_columns(len(rows[0].kappa_eff)))]
    lines.extend(",".join(_row_fields(row)) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plot_data(rows, path, variable):
    """``cli.write_plot_data`` with each field formatted on its own."""
    from polarcool.cli import csv_columns

    unit = {"theta": "rad", "temperature": "K", "rabi": "rad/s"}[variable]
    lines = [
        "# steady-state cooling sweep",
        f"# swept variable: {variable} [{unit}]",
        "# columns: " + " ".join(csv_columns(len(rows[0].kappa_eff))),
        "# units: theta [rad], *_hz [Hz], n_* [quanta], stable in {0,1}, flags '-' if none",
    ]
    for row in rows:
        fields = _row_fields(row)
        fields[-2] = "1" if row.stable else "0"
        fields[-1] = ";".join(row.flags) if row.flags else "-"
        lines.append(" ".join(fields))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# optimizer oracle: the compass search of optimize_theta with each angle scored
# off a full sweep row, rates and all


def optimize_by_rows(setup, objective="max", temperature=None, rabi=None, averages="approx",
                     bounds=(1e-3, 0.5 * math.pi - 1e-3), coarse_points=33, tol=1e-6):
    """``optimize_theta`` of valid inputs, each new angle of the coarse grid or a
    compass step scored as one stack of ``tuning._rows``: pick(n_numeric) of a
    stable row, +inf otherwise."""
    from polarcool import tuning

    pick = {"max": max, "mode1": lambda n: n[0], "mode2": lambda n: n[1]}[objective]
    lo, hi = bounds
    cache = {}

    def solve(thetas):
        new = [t for t in dict.fromkeys(thetas) if t not in cache]
        if new:
            points = [(math.nan, t, temperature, rabi) for t in new]
            for theta, row in zip(new, tuning._rows(setup, points, averages)):
                value = pick(row.n_numeric) if row.stable else math.inf
                cache[theta] = (value if math.isfinite(value) else math.inf, row.n_numeric)

    grid = np.linspace(lo, hi, coarse_points).tolist()
    solve(grid)
    best = min(grid, key=lambda t: cache[t][0])
    trace = [(best, cache[best][0])]
    step, floor = grid[1] - grid[0], tol * (hi - lo)
    while step > floor:
        moved = False
        candidates = [min(max(cand, lo), hi) for cand in (best - step, best + step)]
        solve(candidates)
        for cand in candidates:
            if cache[cand][0] < cache[best][0]:
                best = cand
                trace.append((best, cache[best][0]))
                moved = True
        if not moved:
            step *= 0.5
    value, occupations = cache[best]
    return pc.OptimizeResult(theta=best, value=value, occupations=occupations,
                             evaluations=len(cache), converged=math.isfinite(value),
                             trace=tuple(trace))


# ---------------------------------------------------------------------------
# network oracle: the values and the whole averages record of a point, formed
# together at every point, before the record step was split off


def selfconsistent_polaritons(weights, detunings, linewidths, cross, rabi, mechanics):
    """Polariton amplitudes of the lowest branch, and the matter amplitude of every branch."""
    from polarcool.dynamics import _eliminate, _nonnegative_roots

    n = len(weights)
    v = _eliminate([[complex(linewidths[k], detunings[k]) if q == k else cross[k][q]
                     for q in range(n)] + [weights[k]] for k in range(n)])
    chi = _sum(w * x for w, x in zip(weights, v))
    sigma = _sum(2.0 * m.bare_coupling * (-1j * m.bare_coupling / (1j * m.freq + m.damping)).real
                 for m in mechanics)
    scale = abs(sigma) * abs(chi)
    if scale == 0.0:
        unit, ys = 0j, [0.0]
    else:
        unit = math.copysign(1.0, sigma) * chi / abs(chi)
        field = rabi * abs(chi)
        p, c = -2.0 * unit.imag, scale * field * field
        if not (math.isfinite(p) and math.isfinite(c)):
            raise OverflowError
        ys = _nonnegative_roots(p, c)
    branches = tuple(rabi * chi / (1.0 + 1j * y * unit) for y in ys)
    lowest = rabi / (1.0 + 1j * ys[0] * unit)
    return tuple(lowest * x for x in v), branches


def network(freqs, linewidths, weights, detunings, mechanics, rabi, temperature, cross, mode):
    """(values, the fields of its SteadyStateAverages) of one point of checked inputs."""
    from polarcool.model import _bose

    if mode not in ("approx", "selfconsistent"):
        raise ValidationError(f"mode: expected 'approx' or 'selfconsistent', got {mode!r}")
    if mode == "approx" and rabi != 0.0 and 0.0 in detunings:
        raise ValidationError(
            f"polaritons[{detunings.index(0.0)}].detuning: polariton resonant with the drive"
            " (zero detuning); approx mode requires nonzero detunings")
    n_p, n_m = len(freqs), len(mechanics)
    try:
        if rabi == 0.0:
            p_avgs, mech_avgs = (0j,) * n_p, (0j,) * n_m
            matter, couplings, phase, branches = 0j, (0.0,) * n_m, 0.0, (0j,)
        elif mode == "approx":
            p_avgs = tuple(-1j * w * rabi / d for w, d in zip(weights, detunings))
            matter = _sum(w * p for w, p in zip(weights, p_avgs))
            m2 = abs(matter) ** 2
            mech_avgs = tuple(complex(-m.bare_coupling * m2 / m.freq) for m in mechanics)
            couplings = tuple((2j * m.bare_coupling * matter).real for m in mechanics)
            phase, branches = 0.0, (matter,)
        else:
            p_avgs, branches = selfconsistent_polaritons(
                weights, detunings, linewidths, cross, rabi, mechanics
            )
            matter = branches[0]
            m2 = abs(matter) ** 2
            mech_avgs = tuple(-1j * m.bare_coupling * m2 / (1j * m.freq + m.damping)
                              for m in mechanics)
            couplings = tuple(abs(2.0 * m.bare_coupling * matter) for m in mechanics)
            phase = -cmath.phase(matter) - 0.5 * math.pi if matter != 0 else 0.0
    except OverflowError:
        raise ValidationError("averages: a value derived from the inputs overflows") from None

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
            else:
                values += (0.0, 0.0)
    for g_j in couplings:
        for w in weights:
            values += (-g_j * w, g_j * w)
    return values, (p_avgs, mech_avgs, matter, couplings, phase, mode, branches)
