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
from scipy.linalg.lapack import dgees

from .dynamics import LinearModel
from .errors import (
    SolverError,
    UnstableSystemError,
    ValidationError,
    check_drift_diffusion,
    check_matrix,
    check_real,
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


def _schur(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, StabilityInfo, float]:
    """Real Schur form R = Z T Z^T of a validated drift, the verdict read off it, and ||R||_F.

    One direct LAPACK call with the workspace ``scipy.linalg.schur`` would
    query, so T and Z are bit-identical to it. LAPACK standardizes every 2x2
    block of T so that both its diagonal entries hold the real part of the
    complex pair, so max(diag T) is the spectral abscissa.
    """
    n = r.shape[0]
    lwork = _DGEES_LWORK.get(n)
    if lwork is None:
        lwork = _DGEES_LWORK[n] = int(dgees(_no_sort, r, lwork=-1)[-2][0])
    t, _, _, _, z, _, status = dgees(_no_sort, r, lwork=lwork)
    if status != 0:
        raise SolverError(f"drift: real Schur factorization failed (dgees info {status})")
    r_norm = _fro(r)
    margin = STABILITY_MARGIN * r_norm
    abscissa = float(t.diagonal().max())
    info = StabilityInfo(stable=abscissa < -margin, spectral_abscissa=abscissa, margin=margin)
    return t, z, info, r_norm


def _unstable(info: StabilityInfo, hint: str = "") -> UnstableSystemError:
    return UnstableSystemError(
        f"drift is not stable (spectral abscissa {info.spectral_abscissa:.6e}){hint}"
    )


def _solve(r: np.ndarray, d: np.ndarray) -> tuple[StabilityInfo, np.ndarray | None, float, bool]:
    """Factor a checked drift R = Z T Z^T once and, if stable, solve on the same factors.

    Returns (verdict, V, residual, condition_flag); V is None and the
    residual NaN when the drift is unstable. The Bartels-Stewart products
    follow scipy's ``solve_continuous_lyapunov`` operation for operation, so
    V is bit-identical to it.
    """
    t, z, info, r_norm = _schur(r)
    if not info.stable:
        return info, None, math.nan, False
    f = z.T.dot((-d).dot(z))
    y, scale, status = scipy.linalg.lapack.dtrsyl(t, t, f, tranb="T")
    if status != 0:
        raise SolverError(
            f"lyapunov: triangular Sylvester solve returned info {status} "
            "(eigenvalue pairs of the drift nearly cancel)"
        )
    y *= scale
    v = z.dot(y).dot(z.T)
    v = 0.5 * (v + v.T)
    d_norm = _fro(d)
    if d_norm == 0.0:
        return info, v, 0.0, False
    residual = _fro(r @ v + v @ r.T + d) / d_norm
    if not math.isfinite(residual) or residual > RESIDUAL_LIMIT:
        raise SolverError(f"lyapunov residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e}")
    # cheap conditioning proxy: large covariance from modest inputs signals
    # strong cancellation in the factored solve
    proxy = 2.0 * r_norm * _fro(v) / d_norm
    return info, v, residual, proxy > CONDITION_LIMIT


def check_stability(drift: np.ndarray) -> StabilityInfo:
    """Hurwitz test with a scale-aware margin, read off the real Schur form of R.

    The drift is called stable when every eigenvalue real part lies below
    -margin, margin = 1e-9 ||R||_F, so round-off on a marginal mode cannot
    flip the verdict between platforms.
    """
    return _schur(check_matrix("drift", drift))[2]


def solve_lyapunov(drift: np.ndarray, diffusion: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Solve R V + V R^T + D = 0 for the steady covariance V.

    Returns (V, residual, condition_flag) where residual is
    ||R V + V R^T + D||_F / ||D||_F. Raises UnstableSystemError when the
    drift fails the stability check and SolverError when the residual of an
    otherwise-accepted solve exceeds 1e-9.
    """
    info, v, residual, flagged = _solve(*check_drift_diffusion(drift, diffusion))
    if v is None:
        raise _unstable(info)
    return v, residual, flagged


def extract_occupations(covariance: np.ndarray) -> tuple[float, ...]:
    """Per-mode effective quantum occupations n_k = (V_xx + V_yy - 1)/2.

    Values in [-1e-9, 0) are clamped to zero (round-off below vacuum);
    anything lower raises SolverError since the covariance is then unphysical.
    """
    v = np.asarray(covariance, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
        raise ValidationError(f"covariance: expected an even square matrix, got shape {v.shape}")
    diag = v.diagonal().tolist()  # plain floats: cheaper to read, and what callers get
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
        info = _schur(r)[2]
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
    span = float(np.linalg.norm(r, 1)) * t_final
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
    phi = f[n:, n:].T
    q = phi @ f[:n, n:]
    for _ in range(k):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    v = phi @ v0 @ phi.T + q
    if not np.isfinite(v).all():
        raise SolverError(f"covariance overflowed before t_final {t_final:.3e}")
    return 0.5 * (v + v.T)


def steady_state(model: LinearModel, require_stable: bool = True) -> SteadyState:
    """Full pipeline: stability, Lyapunov solve, occupations.

    R is factored once: the verdict is read off its real Schur form and the
    Lyapunov equation is solved on the same factors. The model's matrices
    were checked when it was built, so they are not checked again.

    With require_stable=False an unstable model yields covariance=None and
    NaN occupations instead of raising, so sweeps can record the row.
    """
    info, v, residual, flagged = _solve(model.drift, model.diffusion)
    if v is None and require_stable:
        raise _unstable(info)
    return SteadyState(
        covariance=v,
        occupations=(
            (math.nan,) * (len(model.drift) // 2) if v is None else extract_occupations(v)
        ),
        stable=info.stable,
        spectral_abscissa=info.spectral_abscissa,
        lyapunov_residual=residual,
        condition_flag=flagged,
    )
