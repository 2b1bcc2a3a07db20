"""Steady-state covariance of the linearized dynamics and derived occupations.

Two independent routes to the same answer:

* :func:`solve_lyapunov` solves R V + V R^T + D = 0 by Bartels-Stewart
  (Comm. ACM 15, 820, 1972) and verifies the residual. One real Schur
  factorization R = Z T Z^T gives both the stability verdict (the spectral
  abscissa is max(diag T)) and the solve, so a working point factors R once.
* :func:`integrate_covariance` propagates dV/dt = R V + V R^T + D exactly
  to a finite horizon: Van Loan's block exponential for one short step,
  then Smith's doubling to reach the horizon.

Keeping both alive is deliberate: one is a Schur factorization, the other a
Pade matrix exponential and matrix products, so agreement is a real check
on the construction of R and D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgees, dtrsyl

from .dynamics import LinearModel
from .errors import (
    SolverError,
    UnstableSystemError,
    ValidationError,
    _real_array,
    check_drift_diffusion,
    check_matrix,
    check_real,
    check_type,
)

STABILITY_MARGIN = 1e-9
RESIDUAL_LIMIT = 1e-9
CONDITION_LIMIT = 1e12
OCCUPATION_CLAMP = -1e-9


@dataclass(frozen=True)
class StabilityInfo:
    stable: bool
    spectral_abscissa: float
    margin: float


@dataclass(frozen=True)
class SteadyState:
    """Steady-state covariance and per-mode occupations.

    ``covariance`` is None when the drift is unstable and the caller asked to
    continue anyway. ``condition_flag`` marks a solve whose conditioning
    proxy exceeded the trust threshold; the result is returned but suspect.
    """

    covariance: np.ndarray | None
    occupations: tuple[float, ...]
    stable: bool
    spectral_abscissa: float
    lyapunov_residual: float
    condition_flag: bool


# the fewest points _solve stacks: one _solve_point per point beat a 2-point stack
# at n = 8 in 13/20 and 16/20 rounds and tied at n = 12; from 3 points the stack won
# (84-88 against 94-99 us at n = 8; in-process, one BLAS thread)
_STACKED_FROM = 3

# optimal dgees workspace per matrix size, from one lwork=-1 query each (the
# answer depends on n alone); the minimal 3n workspace changes the blocking
# and so the bits of T and Z
_DGEES_LWORK: dict[int, int] = {}


def _no_sort(wr: float, wi: float) -> None:
    """Eigenvalue selector dgees requires; never called, as nothing is sorted."""


def _fro(a: np.ndarray) -> float:
    """Frobenius norm of a real matrix, computed as ``np.linalg.norm`` does
    (bit for bit) without its dispatch."""
    x = a.ravel(order="K")
    return math.sqrt(x.dot(x))


def _fros(a: np.ndarray) -> np.ndarray:
    """:func:`_fro` of each matrix of a C-ordered stack (..., n, n), in order, bit
    for bit: matmul of a row by a column runs the same dot product, over each
    matrix in memory order."""
    x = a.ravel(order="K").reshape(-1, 1, a.shape[-2] * a.shape[-1])
    return np.sqrt(np.matmul(x, x.transpose(0, 2, 1))[:, 0, 0])


def _factor(r: np.ndarray, r_norm: float, compute_v: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form R = Z T Z^T of a validated drift whose ||R||_F is ``r_norm``,
    as the pair (T, Z) in LAPACK's Fortran order; with ``compute_v=0`` T alone.

    One direct LAPACK call with the workspace ``scipy.linalg.schur`` would
    query, so T and Z are bit-identical to it; T is the same without Z. A
    drift whose norm overflows raises SolverError, as its margin would be
    infinite.
    """
    if r_norm == math.inf:
        raise SolverError("drift: its norm overflows, so the stability margin cannot be set")
    n = r.shape[0]
    lwork = _DGEES_LWORK.get(n)
    if lwork is None:
        lwork = _DGEES_LWORK[n] = int(dgees(_no_sort, r, lwork=-1)[-2][0])
    t, _, _, _, z, _, status = dgees(_no_sort, r, compute_v=compute_v, lwork=lwork)
    if status != 0:
        raise SolverError(f"drift: real Schur factorization failed (dgees info {status})")
    return t, z


def _verdict(abscissa: float, r_norm: float) -> StabilityInfo:
    """The verdict on a drift from max(diag T) of its real Schur form and its
    ||R||_F. LAPACK standardizes every 2x2 block of T so that both its diagonal
    entries hold the real part of the complex pair, so max(diag T) is the
    spectral abscissa."""
    margin = STABILITY_MARGIN * r_norm
    return StabilityInfo(stable=abscissa < -margin, spectral_abscissa=abscissa, margin=margin)


def _abscissa(t: np.ndarray) -> float:
    """``float(t.diagonal().max())`` off a list: Python's max drops a NaN that is not
    first and keeps the first of tied zeros, so a NaN sum or a maximum >= 0 goes to numpy."""
    diag = t.diagonal().tolist()
    top = max(diag)
    return top if top < 0.0 and not math.isnan(sum(diag)) else float(t.diagonal().max())


def _stability(r: np.ndarray) -> StabilityInfo:
    """The verdict on one validated drift, read off T alone (no Z is formed)."""
    with np.errstate(over="ignore"):
        r_norm = _fro(r)
    return _verdict(_abscissa(_factor(r, r_norm, compute_v=0)[0]), r_norm)


def _unstable(info: StabilityInfo, hint: str = "") -> UnstableSystemError:
    return UnstableSystemError(
        f"drift is not stable (spectral abscissa {info.spectral_abscissa:.6e}){hint}"
    )


def _sylvester(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Y of T Y + Y T^T = F on the quasi-triangular factor T (``dtrsyl``), scaled
    back as LAPACK reports; a failed solve raises SolverError."""
    y, scale, status = dtrsyl(t, t, f, tranb="T")
    if status != 0:
        raise SolverError(
            f"lyapunov: triangular Sylvester solve returned info {status} "
            "(eigenvalue pairs of the drift nearly cancel)"
        )
    if scale != 1.0:
        y *= scale
    return y


def _accept(info: StabilityInfo, v: np.ndarray, r_norm: float, v_norm: float, e_norm: float,
            d_norm: float) -> tuple:
    """(verdict, V, residual, condition_flag) of a solved point from the Frobenius
    norms of R, V, the residual E = R V + V R^T + D and D, or SolverError.

    A zero diffusion has the exact V = 0 and residual 0; a diffusion whose norm
    overflows leaves no residual to check, and a residual above 1e-9 is an error.
    """
    if d_norm == 0.0:
        return info, v, 0.0, False
    if d_norm == math.inf:
        # every residual would divide to 0 or NaN: none could be checked
        raise SolverError("lyapunov: the diffusion's norm overflows, so the residual"
                          " cannot be checked")
    residual = e_norm / d_norm
    if not math.isfinite(residual) or residual > RESIDUAL_LIMIT:
        raise SolverError(f"lyapunov residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}")
    # cheap conditioning proxy: large covariance from modest inputs signals
    # strong cancellation in the factored solve
    proxy = 2.0 * r_norm * v_norm / d_norm
    return info, v, residual, proxy > CONDITION_LIMIT


def _solve_point(r: np.ndarray, d: np.ndarray) -> tuple:
    """(verdict, V, residual, condition_flag) of one point from its checked 2-D
    drift and diffusion, or SolverError raised: the stages of :func:`_solve`
    with no stack buffer, no stacked product and no :func:`_fros` pass. Each
    product is a 2-D ``dot`` on the layouts the stacked products see for that
    point, ||R||_F is read in memory order and ||V||_F, ||E||_F and ||D||_F in
    C order, as :func:`_fros` reads them, so the result is bit-identical to
    that of the point in a stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        r_norm = _fro(r)
        t, z = _factor(r, r_norm)
        info = _verdict(_abscissa(t), r_norm)
        if not info.stable:
            return info, None, math.nan, False
        y = _sylvester(t, z.T.dot((-d).dot(z)))
        w = z.dot(y).dot(z.T)
        v = w + w.T
        v *= 0.5
        e = r.dot(v)
        e += v.dot(r.T)
        e += d
        return _accept(info, v, r_norm, _fro(v), _fro(e), _fro(np.ascontiguousarray(d)))


def _solve(r: np.ndarray, d: np.ndarray) -> list:
    """Per point of (P, n, n) stacks of checked drifts and diffusions, its
    (verdict, V, residual, condition_flag), or the SolverError of that point.

    Bartels-Stewart: each drift is factored R = Z T Z^T once (``dgees``), its
    verdict is read off T, and a stable one is solved on the same factors
    (``dtrsyl``); V is None and the residual NaN where the drift is unstable.
    One or two points run :func:`_solve_point` each, on 2-D matrices, as the
    stack's fixed costs outweigh what it saves there. Three or more run in
    stages over the stack, and only the LAPACK calls run per point: the
    products F = Z^T (-D) Z before the solve, V = (W + W^T)/2 with
    W = (Z Y) Z^T after it, and the residuals E = R V + V R^T + D are each
    formed for the whole stack, and one :func:`_fros` gives ||V||_F, ||E||_F
    and ||D||_F of every point. Every factor keeps the memory layout LAPACK
    gives it (the stacks hold T^T, Z^T and Y^T, read through transposed
    views), so each product runs the gemm of scipy's
    ``solve_continuous_lyapunov`` and V is bit-identical to it, and to the
    per-point path. :func:`_accept` judges the residual of each solved point.
    Stack code alone turns a point's SolverError into a value, as here.
    """
    size, n = r.shape[:2]
    out = [None] * size
    if size < _STACKED_FROM:
        for p in range(size):
            try:
                out[p] = _solve_point(r[p], d[p])
            except SolverError as exc:
                out[p] = exc
        return out
    # T^T, Z^T and Y^T, then the covariances, residuals and diffusions, in one
    # array so that one product forms all their norms. The products run over
    # the whole stack: a point that is not solved keeps a zero Y^T, so its W
    # and V are zero, and its norms are not read
    stacks = np.zeros((6, size, n, n))
    tt, zt, yt, checks = stacks[0], stacks[1], stacks[2], stacks[3:]
    # an overflow is inf and a residual that cannot be formed NaN, judged point
    # by point, so no warning concerns the whole stack
    with np.errstate(over="ignore", invalid="ignore"):
        r_norms = _fros(r).tolist()
        factored = []
        for p in range(size):
            try:
                t, z = _factor(r[p], r_norms[p])
            except SolverError as exc:
                out[p] = exc
                continue
            tt[p], zt[p] = t.T, z.T
            factored.append(p)
        abscissae = tt.diagonal(axis1=1, axis2=2).max(axis=1).tolist()
        live = []
        for p in factored:
            info = out[p] = _verdict(abscissae[p], r_norms[p])
            if info.stable:
                live.append(p)
            else:
                out[p] = (info, None, math.nan, False)
        if not live:
            return out
        z = zt.transpose(0, 2, 1)
        f = np.matmul(zt, np.matmul(-d, z))
        solved = []
        for p in live:
            try:
                yt[p] = _sylvester(tt[p].T, f[p]).T
            except SolverError as exc:
                out[p] = exc
                continue
            solved.append(p)
        if not solved:
            return out
        w = np.matmul(np.matmul(z, yt.transpose(0, 2, 1)), zt)
        v, e, checks[2] = checks[0], checks[1], d
        np.add(w, w.transpose(0, 2, 1), out=v)
        v *= 0.5
        # each norm is bit-identical to _fro of the point's 2-D products in C order
        np.matmul(r, v, out=e)
        e += v @ r.transpose(0, 2, 1)
        e += d
        norms = _fros(checks).tolist()
        v_norms, e_norms, d_norms = norms[:size], norms[size:2 * size], norms[2 * size:]
    for p in solved:
        try:
            out[p] = _accept(out[p], v[p], r_norms[p], v_norms[p], e_norms[p], d_norms[p])
        except SolverError as exc:
            out[p] = exc
    return out


def check_stability(drift: np.ndarray) -> StabilityInfo:
    """Hurwitz test with a scale-aware margin, read off the real Schur form of R.

    The drift is called stable when every eigenvalue real part lies below
    -margin, margin = 1e-9 ||R||_F, so round-off on a marginal mode cannot
    flip the verdict between platforms.
    """
    return _stability(check_matrix("drift", drift))


def solve_lyapunov(drift: np.ndarray, diffusion: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Solve R V + V R^T + D = 0 for the steady covariance V.

    Returns (V, residual, condition_flag) where residual is
    ||R V + V R^T + D||_F / ||D||_F. Raises UnstableSystemError when the
    drift fails the stability check and SolverError when the residual of an
    otherwise-accepted solve exceeds 1e-9. The point is solved on its 2-D
    matrices (:func:`_solve_point`).
    """
    info, v, residual, flagged = _solve_point(*check_drift_diffusion(drift, diffusion))
    if v is None:
        raise _unstable(info)
    return v, residual, flagged


def extract_occupations(covariance: np.ndarray) -> tuple[float, ...]:
    """Per-mode effective quantum occupations n_k = (V_xx + V_yy - 1)/2.

    Values in [-1e-9, 0) are clamped to zero (round-off below vacuum);
    anything lower raises SolverError since the covariance is then unphysical.
    A ragged, non-numeric, boolean or complex covariance, one that is not an
    even square matrix, or one with a NaN or infinite entry raises
    ValidationError, as :func:`~polarcool.errors.check_matrix` does for every
    other matrix argument.
    """
    v = _real_array("covariance", covariance)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
        raise ValidationError(f"covariance: expected an even square matrix, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError("covariance: contains a NaN or infinite entry")
    return _occupations(v.diagonal().tolist())


def _occupations(diag: list) -> tuple[float, ...]:
    """:func:`extract_occupations` of the diagonal of a covariance that is known to
    be an even square float matrix, as plain floats (cheaper to read, and what
    callers get): the form a solve's V takes, so it is not checked again."""
    out = []
    for k in range(len(diag) // 2):
        n = 0.5 * (diag[2 * k] + diag[2 * k + 1] - 1.0)
        if not math.isfinite(n):
            raise SolverError(f"mode {k}: non-finite occupation {n}")
        if n < OCCUPATION_CLAMP:
            raise SolverError(f"mode {k}: occupation {n:.3e} below the vacuum clamp")
        out.append(max(n, 0.0))
    return tuple(out)


def integrate_covariance(
    drift: np.ndarray,
    diffusion: np.ndarray,
    v0: np.ndarray | None = None,
    t_final: float | None = None,
) -> np.ndarray:
    """Time-domain route: V(t_final) of dV/dt = R V + V R^T + D, exactly.

    Defaults: v0 = vacuum (I/2), t_final = 15 / |spectral abscissa| (about
    3e-7 residual decay in the slowest covariance mode). There is no step
    size: with h = t_final / 2^k and ||R h||_1 <= 1, one expm of the block
    [[-R, D], [0, R^T]] h gives Phi = exp(R h) and the exact one-step
    increment Q (Van Loan 1978); k squarings Q <- Phi Q Phi^T + Q,
    Phi <- Phi^2 (Smith 1968) carry the pair to t_final. A single expm at
    t_final would overflow in its exp(-R t) block.
    """
    r, d = check_drift_diffusion(drift, diffusion)
    if t_final is None:
        info = _stability(r)
        if not info.stable:
            raise _unstable(info, "; pass t_final explicitly")
        t_final = 15.0 / abs(info.spectral_abscissa)
    else:
        t_final = check_real("t_final", t_final, above=0.0)
    n = r.shape[0]
    if v0 is None:
        v0 = 0.5 * np.eye(n)
    else:
        v0 = check_matrix("v0", v0)
        if v0.shape != r.shape:
            raise ValidationError(f"v0: expected shape {r.shape}, got {v0.shape}")
    span = float(np.abs(r).sum(axis=0).max()) * t_final  # ||R||_1, as np.linalg.norm forms it
    if not span <= 2.0 ** 1023:
        raise ValidationError(
            f"t_final: ||R||_1 t_final = {span:.3e} exceeds the doubling range 2^1023"
        )
    k = math.ceil(math.log2(max(span, 1.0)))
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -r
    block[:n, n:] = d
    block[n:, n:] = r.T
    f = scipy.linalg.expm(block * (t_final / 2.0 ** k))
    # 2-D dot runs the gemm of the @ operator without the ufunc's overhead, but
    # copies a strided argument into C order, which changes the gemm and so
    # the bits; a Fortran-ordered phi keeps the layout of the transposed block
    phi = np.asfortranarray(f[n:, n:].T)
    q = phi.dot(f[:n, n:])
    for _ in range(k):
        q += phi.dot(q).dot(phi.T)
        phi = phi.dot(phi)
    v = phi @ v0 @ phi.T + q  # @, as v0 may be strided
    if not np.isfinite(v).all():
        raise SolverError(f"covariance overflowed before t_final {t_final:.3e}")
    return 0.5 * (v + v.T)


def steady_state(model: LinearModel, require_stable: bool = True) -> SteadyState:
    """Full pipeline: stability, Lyapunov solve, occupations.

    R is factored once: the verdict is read off its real Schur form and the
    Lyapunov equation is solved on the same factors, on the 2-D matrices
    (:func:`_solve_point`). The model's matrices were checked when it was
    built, so they are not checked again.

    With require_stable=False an unstable model yields covariance=None and
    NaN occupations instead of raising, so a caller can record the point.
    """
    check_type("model", model, LinearModel)
    info, v, residual, flagged = _solve_point(model.drift, model.diffusion)
    if v is None and require_stable:
        raise _unstable(info)
    return SteadyState(
        covariance=v,
        occupations=(
            (math.nan,) * (len(model.drift) // 2) if v is None
            else _occupations(v.diagonal().tolist())
        ),
        stable=info.stable,
        spectral_abscissa=info.spectral_abscissa,
        lyapunov_residual=residual,
        condition_flag=flagged,
    )
