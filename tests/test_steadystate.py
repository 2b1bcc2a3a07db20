"""Covariance solvers: Lyapunov route, time-domain route, derived occupations."""
import collections
import dataclasses
import functools
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import polarcool as pc
import polarcool.steadystate as steadystate
from polarcool.errors import (
    ConvergenceError,
    SolverError,
    UnstableSystemError,
    ValidationError,
)

from helpers import (
    BASE_RABI,
    TWO_PI,
    averages_vector,
    classical_rhs,
    design,
    integrate,
    make_base_setup,
    make_mechs,
    pair_at,
    pair_network,
    random_block_instance,
    rotate_polaritons,
    shift_corrected_drift,
    solve,
)


def blue_detuned_model():
    """Drive above the lower polariton: anti-damping wins. The pair's two nodes,
    built by hand with the detunings of a drive at the lower polariton + omega_1.

    theta = pi/4 would null the matter average for this drive choice
    (s^2/delta_u cancels c^2/delta_l exactly), so keep it asymmetric.
    """
    setup = make_base_setup(rabi_freq=20.0 * BASE_RABI)
    pair = pair_at(setup, 0.6)
    omega_1 = setup.mechanical_modes[0].freq
    return pair_network(setup, 0.6, detuning_upper=pair.upper_freq - pair.lower_freq - omega_1,
                        detuning_lower=-omega_1)


# ---------------------------------------------------------------------------
# stability


def test_check_stability_verdicts():
    assert pc.check_stability(-np.eye(4)).stable
    marginal = np.array([[0.0, 1.0], [-1.0, 0.0]])
    info = pc.check_stability(marginal)
    assert not info.stable
    assert info.spectral_abscissa == pytest.approx(0.0, abs=1e-12)
    # T keeps both zeros: the abscissa is ndarray.max's last one, not the first
    # one Python's max keeps
    assert repr(pc.check_stability(np.diag([-0.0, 0.0])).spectral_abscissa) == "0.0"
    with pytest.raises(ValidationError):
        pc.check_stability(np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="drift"):
        pc.check_stability(np.array([[-1.0, np.nan], [0.0, -1.0]]))
    with pytest.raises(ValidationError, match="drift"):
        pc.check_stability(np.zeros((0, 0)))
    with pytest.raises(ValidationError, match="drift"):
        pc.check_stability("abc")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="drift.*complex"):
            pc.check_stability(-np.eye(2) + 1j * np.eye(2))


@pytest.mark.parametrize("diagonal", [
    [-1.0, -2.0], [-2.0, math.nan, -1.0], [math.nan, -1.0], [-1.0, -math.inf],
    [-0.0, 0.0, -1.0], [0.0, -0.0], [math.inf, -math.inf], [1.0, -0.0],
])
def test_the_abscissa_read_is_ndarray_max(monkeypatch, diagonal):
    # Python's max drops a NaN that is not first and keeps the first of two tied
    # zeros; the read gives ndarray.max's float, and so its verdict, for each T
    t = np.diag(diagonal)
    read = steadystate._abscissa(t)
    assert repr(read) == repr(float(t.diagonal().max()))
    real = steadystate.dgees

    def diagonal_t(select, a, compute_v=1, lwork=None):
        out = real(select, a, compute_v=compute_v, lwork=lwork)
        return (out if lwork == -1 else (t.copy(order="F"),) + out[1:])

    monkeypatch.setattr(steadystate, "dgees", diagonal_t)
    info = pc.check_stability(-np.eye(len(diagonal)))
    assert repr(info.spectral_abscissa) == repr(read)
    assert info.stable == (read < -info.margin)


def test_stability_info_holds_plain_python_scalars():
    info = pc.check_stability(-np.eye(2))
    assert type(info.stable) is bool
    assert type(info.spectral_abscissa) is float
    assert type(info.margin) is float
    record = json.loads(json.dumps(dataclasses.asdict(info)))
    assert record == {"stable": True, "spectral_abscissa": -1.0, "margin": info.margin}


def test_blue_detuned_drive_is_unstable():
    model = blue_detuned_model()
    info = pc.check_stability(model.drift)
    assert not info.stable
    assert info.spectral_abscissa > 0.0


# ---------------------------------------------------------------------------
# lyapunov route


def test_solve_lyapunov_single_mode_closed_form():
    # one damped rotation with thermal input relaxes to (nbar + 1/2) I
    kappa, omega, nbar = 0.37, 2.9, 4.25
    r = np.array([[-kappa, omega], [-omega, -kappa]])
    d = 2.0 * kappa * (nbar + 0.5) * np.eye(2)
    v, residual, flagged = pc.solve_lyapunov(r, d)
    assert np.allclose(v, (nbar + 0.5) * np.eye(2), rtol=1e-13, atol=1e-13)
    assert residual < 1e-9
    assert not flagged


def test_solve_lyapunov_validations():
    with pytest.raises(ValidationError):
        pc.solve_lyapunov(-np.eye(2), np.eye(3))
    with pytest.raises(ValidationError, match="symmetric"):
        pc.solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(UnstableSystemError):
        pc.solve_lyapunov(np.eye(2), np.eye(2))
    with pytest.raises(ValidationError, match="drift"):
        pc.solve_lyapunov(np.array([[-1.0, 0.0], [np.inf, -1.0]]), np.eye(2))
    with pytest.raises(ValidationError, match="diffusion"):
        pc.solve_lyapunov(-np.eye(2), np.diag([1.0, np.inf]))
    with pytest.raises(ValidationError, match="drift"):
        pc.solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(ValidationError, match="drift"):
        pc.solve_lyapunov("abc", np.eye(2))
    with pytest.raises(ValidationError, match="diffusion"):
        pc.solve_lyapunov(-np.eye(2), [["a", "b"], ["c", "d"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="drift.*complex"):
            pc.solve_lyapunov(-np.eye(2) + 0j, np.eye(2))
        with pytest.raises(ValidationError, match="diffusion.*complex"):
            pc.solve_lyapunov(-np.eye(2), np.eye(2) + 1j * np.eye(2)[::-1])


@pytest.mark.parametrize("field", ["drift", "diffusion"])
def test_matrix_entry_points_reject_booleans(field):
    matrices = {"drift": -np.eye(2), "diffusion": np.eye(2)}
    matrices[field] = np.array([[True, False], [False, True]])
    calls = [lambda: pc.solve_lyapunov(matrices["drift"], matrices["diffusion"]),
             lambda: pc.integrate_covariance(matrices["drift"], matrices["diffusion"], t_final=1.0)]
    if field == "drift":
        calls.append(lambda: pc.check_stability(matrices["drift"]))
    for call in calls:
        with pytest.raises(ValidationError, match=f"^{field}: .*booleans"):
            call()


def test_matrix_entry_points_reject_a_stack():
    stack = np.stack([-np.eye(2)] * 3)
    for call in (lambda: pc.solve_lyapunov(stack, np.stack([np.eye(2)] * 3)),
                 lambda: pc.check_stability(stack),
                 lambda: pc.integrate_covariance(stack, np.stack([np.eye(2)] * 3), t_final=1.0)):
        with pytest.raises(ValidationError, match=r"^drift: expected a square matrix, got shape"):
            call()


def test_solve_lyapunov_cancelling_eigenvalues_raise_without_warning():
    # stable by the margin, but the eigenvalue sums underflow: the triangular
    # Sylvester solve reports a perturbed solution (info 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="info 1"):
            pc.solve_lyapunov(-1e-300 * np.eye(2), np.eye(2))


def test_lyapunov_matches_integrator_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        r, d = random_block_instance(rng, int(rng.integers(2, 6)))
        v_lyap, residual, _ = pc.solve_lyapunov(r, d)
        v_time = pc.integrate_covariance(r, d)
        assert residual < 1e-9
        scale = np.linalg.norm(v_lyap)
        assert np.linalg.norm(v_time - v_lyap) < 1e-2 * scale


@pytest.mark.parametrize("n_pairs", range(1, 25))
def test_integrate_covariance_equals_the_matmul_oracle(n_pairs):
    # bit for bit, with the default horizon and vacuum start, and with an
    # explicit horizon from a strided start
    rng = np.random.default_rng(n_pairs)
    for _ in range(3):
        r, d = random_block_instance(rng, n_pairs)
        assert pc.integrate_covariance(r, d).tobytes() == integrate(r, d).tobytes()
        start = rng.uniform(0.0, 0.1, (4 * n_pairs, 4 * n_pairs)) + 0.25 * np.eye(4 * n_pairs)
        v0 = (start + start.T)[::2, ::2]
        assert not v0.flags.c_contiguous
        assert (pc.integrate_covariance(r, d, v0=v0, t_final=3.7).tobytes()
                == integrate(r, d, v0, 3.7).tobytes())


def test_integrate_covariance_transient_closed_form():
    # one damped rotation from v0 = c I stays isotropic and relaxes at 2 kappa
    kappa, omega, nbar, c = 0.37, 2.9, 4.25, 3.0
    r = np.array([[-kappa, omega], [-omega, -kappa]])
    d = 2.0 * kappa * (nbar + 0.5) * np.eye(2)
    for t in (0.1, 1.0, 3.0, 40.0):
        decay = math.exp(-2.0 * kappa * t)
        expected = (c * decay + (nbar + 0.5) * (1.0 - decay)) * np.eye(2)
        v = pc.integrate_covariance(r, d, v0=c * np.eye(2), t_final=t)
        assert np.allclose(v, expected, rtol=1e-13, atol=1e-13)


def test_integrate_covariance_validations():
    r = -np.eye(2)
    d = np.eye(2)
    with pytest.raises(ValidationError, match="t_final"):
        pc.integrate_covariance(r, d, t_final=-1.0)
    with pytest.raises(ValidationError, match="t_final"):
        pc.integrate_covariance(r, d, t_final=math.nan)
    with pytest.raises(ValidationError, match="drift"):
        pc.integrate_covariance(np.array([[-1.0, np.nan], [0.0, -1.0]]), d, t_final=1.0)
    with pytest.raises(ValidationError, match="diffusion"):
        pc.integrate_covariance(r, np.diag([1.0, np.inf]))
    with pytest.raises(ValidationError, match="v0"):
        pc.integrate_covariance(r, d, v0=np.diag([0.5, np.nan]))
    with pytest.raises(ValidationError, match="drift"):
        pc.integrate_covariance(np.zeros((0, 0)), np.zeros((0, 0)), t_final=1.0)
    with pytest.raises(ValidationError, match="drift"):
        pc.integrate_covariance("abc", d, t_final=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="diffusion.*complex"):
            pc.integrate_covariance(r, d + 0j, t_final=1.0)
    # ||R||_1 t_final beyond the doubling range: 2^k or ceil(inf) would overflow
    with pytest.raises(ValidationError, match="t_final"):
        pc.integrate_covariance(r, d, t_final=1e308)
    with pytest.raises(ValidationError, match="t_final"):
        pc.integrate_covariance(1e10 * r, d, t_final=1e300)
    with pytest.raises(UnstableSystemError):
        pc.integrate_covariance(np.array([[0.0, 1.0], [-1.0, 0.0]]), d)
    # abscissa -1e-12 lies inside the stability margin (1.4e-9): the default
    # horizon takes check_stability's verdict instead of planning ~1e13 s
    with pytest.raises(UnstableSystemError):
        pc.integrate_covariance(np.array([[-1e-12, 1.0], [-1.0, -1e-12]]), d)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError, match="overflow"):
        pc.integrate_covariance(-r, d, t_final=1e3)
    # explicit horizon works even for a marginal drift
    v = pc.integrate_covariance(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 2)),
                                v0=np.eye(2), t_final=1.0)
    assert np.allclose(v, np.eye(2), atol=1e-10)


def test_integrate_covariance_rejects_a_v0_of_another_shape():
    with pytest.raises(ValidationError, match=r"^v0: expected shape \(2, 2\), got \(4, 4\)$"):
        pc.integrate_covariance(-np.eye(2), np.eye(2), v0=0.5 * np.eye(4))


# ---------------------------------------------------------------------------
# one real Schur factorization serves the verdict and the solve

TYPED_ERRORS = (ValidationError, ConvergenceError, UnstableSystemError, SolverError)


def assert_shared_factorization(r, d, solve):
    """The verdict matches the eigenvalues, and solving succeeds exactly when stable."""
    info = pc.check_stability(r)
    assert info.stable == (np.linalg.eigvals(r).real.max() < -info.margin)
    try:
        v, residual = solve()
    except TYPED_ERRORS as exc:
        assert not info.stable, f"stable drift failed: {exc!r}"
        return
    assert info.stable
    expected = scipy.linalg.solve_continuous_lyapunov(r, -d)
    expected = 0.5 * (expected + expected.T)
    assert np.linalg.norm(v - expected) <= 1e-12 * np.linalg.norm(expected)
    assert residual < 1e-9
    # the stacked verification forms the residual as the 2-D products do, bit for bit
    assert residual == np.linalg.norm(r @ v + v @ r.T + d) / np.linalg.norm(d)


@st.composite
def networks(draw):
    """Random cooling networks: 1-4 nodes, 1-4 mechanical modes, drives past the edge.

    Nodes sit near a mechanical sideband, one in five on the heating side;
    the Rabi frequency spans 1e-2 to 3e2 times the base preset's, so about a
    third of the draws are unstable.
    """
    unit = st.floats(0.0, 1.0)
    n_m = draw(st.integers(1, 4))
    mechs = [
        pc.MechanicalMode(
            freq=TWO_PI * 1e6 * (5.0 + 45.0 * draw(unit)),
            damping=TWO_PI * (10.0 + 990.0 * draw(unit)),
            bare_coupling=TWO_PI * (0.05 + 0.95 * draw(unit)),
        )
        for _ in range(n_m)
    ]
    drive_freq = TWO_PI * 1e10
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        mech = draw(st.sampled_from(mechs))
        sign = draw(st.sampled_from((1.0, 1.0, 1.0, 1.0, -1.0)))
        detuning = sign * mech.freq * (0.8 + 0.4 * draw(unit))
        nodes.append(pc.NetworkPolariton(
            freq=drive_freq + detuning,
            linewidth=TWO_PI * (3e5 + 2.7e6 * draw(unit)),
            weight=0.1 + 0.9 * draw(unit),
            detuning=detuning,
        ))
    drive = pc.NetworkDrive(
        drive_freq=drive_freq,
        rabi_freq=7.85e13 * 10.0 ** (-2.0 + 4.5 * draw(unit)),
        bath_temperature=draw(unit),
    )
    return nodes, mechs, drive, draw(st.sampled_from(("approx", "selfconsistent")))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(networks())
def test_network_verdict_and_solve_share_one_factorization(network):
    nodes, mechs, drive, mode = network
    try:
        model = pc.build_network(nodes, mechs, drive, mode=mode)
    except TYPED_ERRORS:
        return

    def solve():
        state = pc.steady_state(model)
        return state.covariance, state.lyapunov_residual

    assert_shared_factorization(model.drift, model.diffusion, solve)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-0.5, 1.0))
def test_block_verdict_and_solve_share_one_factorization(n_pairs, seed, shift):
    # the blocks damp at 0.2-0.8; shifting R by +shift I crosses the edge
    r, d = random_block_instance(np.random.default_rng(seed), n_pairs)
    r = r + shift * np.eye(r.shape[0])
    assert_shared_factorization(r, d, lambda: pc.solve_lyapunov(r, d)[:2])


def test_steady_state_factors_the_drift_once(monkeypatch):
    _, model = make_base_setup().working_point(0.7)
    calls = collections.Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if kwargs.get("lwork") == -1:
                calls["workspace query"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # one direct dgees call per point; the workspace size is queried once per
    # matrix size, so an empty cache adds one query before the first point
    monkeypatch.setattr(steadystate, "_DGEES_LWORK", {})
    counted(steadystate, "dgees")
    counted(steadystate.scipy.linalg, "schur")
    counted(steadystate.scipy.linalg, "solve_continuous_lyapunov")
    counted(steadystate.np.linalg, "eigvals")
    for _ in range(3):
        state = pc.steady_state(model)
        assert state.stable
    assert calls == {"dgees": 4, "workspace query": 1}


@pytest.mark.parametrize("n", [*range(1, 41), 64, 75, 76, 100, 130, 200])
def test_schur_matches_scipy_bit_for_bit(n):
    # the cached workspace is the one scipy.linalg.schur queries, so the
    # blocking and every bit of T and Z agree, also past LAPACK's block size;
    # T is the same when dgees forms no Z (the verdict-only route)
    a = np.random.default_rng(n).standard_normal((n, n))
    t, z = steadystate._factor(a, steadystate._fro(a))
    t_ref, z_ref = scipy.linalg.schur(a, output="real")
    assert t.tobytes() == t_ref.tobytes()
    assert z.tobytes() == z_ref.tobytes()
    t_alone = steadystate._factor(a, steadystate._fro(a), compute_v=0)[0]
    assert t_alone.tobytes() == t_ref.tobytes()


def test_schur_failure_is_a_solver_error(monkeypatch):
    def failing(select, a, compute_v=1, lwork=None):
        if lwork == -1:
            return None, 0, None, None, None, np.array([3.0 * len(a)]), 0
        return a, 0, None, None, a, None, 2

    monkeypatch.setattr(steadystate, "_DGEES_LWORK", {})
    monkeypatch.setattr(steadystate, "dgees", failing)
    with pytest.raises(SolverError, match="^drift: real Schur factorization failed"):
        pc.check_stability(-np.eye(4))


# kinds of working point in a stack: the edges of every stage of the solve
SOLVE_POINTS = ("stable", "unstable", "zero diffusion", "drift norm overflows",
                "diffusion norm overflows", "cancelling", "residual", "status")


def solve_point(rng, n, kind):
    """(drift, diffusion) of one point of ``kind``; ``residual`` and ``status``
    are stable points whose Sylvester solve :class:`Tampered` spoils."""
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    # shifted past the spectrum of a: every eigenvalue at least 0.1 into a half-plane
    shift = np.abs(np.linalg.eigvals(a).real).max() + rng.uniform(0.1, 1.0)
    r, d = a - shift * np.eye(n), b @ b.T
    if kind == "unstable":
        r = a + shift * np.eye(n)
    elif kind == "zero diffusion":
        d = np.zeros((n, n))
    elif kind == "drift norm overflows":
        r = 1e160 * r  # every entry finite, ||R||_F not
    elif kind == "diffusion norm overflows":
        d = 1e200 * d
    elif kind == "cancelling":
        r = -1e-300 * np.eye(n)  # stable, but the Sylvester solve reports info 1
    return r, d


class Tampered:
    """``dtrsyl`` whose k-th call doubles its solution (a residual failure) or
    reports status 3, for each k in ``plan``. Both solvers call it for the
    stable points of a stack in order, so the same points are spoiled."""

    def __init__(self, plan: dict):
        self.plan, self.calls, self.dtrsyl = plan, 0, steadystate.dtrsyl

    def __call__(self, a, b, c, **kwargs):
        y, scale, status = self.dtrsyl(a, b, c, **kwargs)
        kind = self.plan.get(self.calls)
        self.calls += 1
        if kind == "residual":
            return 2.0 * y, scale, status
        return y, scale, 3 if kind == "status" else status


def solve_outcome(result):
    if isinstance(result, Exception):
        return type(result), str(result)
    info, v, residual, flagged = result
    return repr(info), None if v is None else v.tobytes(), repr(residual), flagged


def assert_solve_matches_the_oracle(r, d, kinds):
    """``_solve`` of the stacks gives every point the oracle's bytes, or its error."""
    plan, calls = {}, 0
    for kind in kinds:
        if kind in ("residual", "status"):
            plan[calls] = kind
        calls += kind not in ("unstable", "drift norm overflows")
    with pytest.MonkeyPatch.context() as patch:
        tampered = Tampered(plan)
        patch.setattr(steadystate, "dtrsyl", tampered)
        expected = [solve_outcome(x) for x in solve(r, d)]
        assert tampered.calls == calls
        tampered.calls = 0
        assert [solve_outcome(x) for x in steadystate._solve(r, d)] == expected
    return expected


def assert_ends_as_its_kind(kind, outcome):
    """Each kind ends where it should, so every stage's edge is reached."""
    if kind in ("stable", "zero diffusion"):
        assert outcome[1] is not None
    elif kind == "unstable":
        assert outcome[1] is None
    else:
        assert outcome[0] is SolverError


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(SOLVE_POINTS), min_size=1, max_size=8), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
def test_staged_solve_equals_the_point_by_point_oracle(kinds, n, seed):
    rng = np.random.default_rng(seed)
    r, d = (np.array(m) for m in zip(*(solve_point(rng, n, kind) for kind in kinds)))
    outcomes = assert_solve_matches_the_oracle(r, d, kinds)
    for kind, outcome in zip(kinds, outcomes):
        assert_ends_as_its_kind(kind, outcome)


@pytest.mark.parametrize("n", [64, 75, 100, 130])
def test_staged_solve_equals_the_oracle_on_large_drifts(n):
    rng = np.random.default_rng(n)
    kinds = SOLVE_POINTS
    r, d = (np.array(m) for m in zip(*(solve_point(rng, n, kind) for kind in kinds)))
    assert_solve_matches_the_oracle(r, d, kinds)
    # one point in Fortran order, as a caller of solve_lyapunov may pass it
    r1, d1 = np.asfortranarray(r[0])[None], np.asfortranarray(d[0])[None]
    assert_solve_matches_the_oracle(r1, d1, kinds[:1])


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("kinds", [
    ("stable", "stable"), ("stable", "unstable"), ("residual", "stable"), ("stable", "status"),
    ("stable", "stable", "stable"), ("unstable", "stable", "residual"),
])
def test_two_and_three_point_stacks_equal_the_oracle(kinds, n):
    # two points are solved one by one and three as a stack; either way each point
    # gets the oracle's bytes, or its own error, and the others are untouched
    rng = np.random.default_rng(n)
    points = [solve_point(rng, n, kind) for kind in kinds]
    r, d = (np.array(m) for m in zip(*points))
    outcomes = assert_solve_matches_the_oracle(r, d, kinds)
    for kind, (rp, dp), outcome in zip(kinds, points, outcomes):
        assert_ends_as_its_kind(kind, outcome)
        assert assert_solve_matches_the_oracle(rp[None], dp[None], [kind]) == [outcome]


def tampered_outcome(kind, call):
    """What ``call()`` returns or raises when the one point it solves is of
    ``kind``: a fresh :class:`Tampered` spoils its one ``dtrsyl`` call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steadystate, "dtrsyl",
                      Tampered({0: kind} if kind in ("residual", "status") else {}))
        try:
            return call()
        except TYPED_ERRORS as exc:
            return exc


def error_outcome(exc):
    return type(exc), str(exc)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 8, 16, 40])
@pytest.mark.parametrize("kind", SOLVE_POINTS)
def test_a_one_point_solve_equals_the_oracle(kind, n, order):
    # a one-point stack is solved on its 2-D matrices; _solve and the two public
    # one-point entries give the oracle's bytes, or its error, for every kind
    r, d = (np.asarray(m, order=order)
            for m in solve_point(np.random.default_rng(n), n, kind))
    (expected,) = assert_solve_matches_the_oracle(r[None], d[None], [kind])
    assert_ends_as_its_kind(kind, expected)
    (result,) = tampered_outcome(kind, lambda: solve(r[None], d[None]))

    got = tampered_outcome(kind, lambda: pc.solve_lyapunov(r, d))
    if isinstance(result, SolverError):
        want = error_outcome(result)
    elif result[1] is None:
        want = error_outcome(steadystate._unstable(result[0]))
    else:
        want = result[1].tobytes(), repr(result[2]), result[3]
    if isinstance(got, Exception):
        got = error_outcome(got)
    else:
        got = got[0].tobytes(), repr(got[1]), got[2]
    assert got == want

    if n % 2:
        return  # a model names one mode per two rows, so it has even matrices
    _, base = make_base_setup().working_point(0.7)
    model = pc.LinearModel(r, d, ("mode",) * (n // 2), base.averages)
    assert model.drift.flags.f_contiguous == (order == "F")
    got = tampered_outcome(kind, lambda: pc.steady_state(model, require_stable=False))
    if isinstance(result, SolverError):
        want = error_outcome(result)
    else:
        info, v, residual, flagged = result
        try:
            occupations = (math.nan,) * (n // 2) if v is None else pc.extract_occupations(v)
        except SolverError as exc:
            want = error_outcome(exc)
        else:
            want = (info.stable, repr(info.spectral_abscissa),
                    None if v is None else v.tobytes(), repr(occupations), repr(residual), flagged)
    if isinstance(got, Exception):
        got = error_outcome(got)
    else:
        got = (got.stable, repr(got.spectral_abscissa),
               None if got.covariance is None else got.covariance.tobytes(),
               repr(got.occupations), repr(got.lyapunov_residual), got.condition_flag)
    assert got == want


@pytest.mark.parametrize("n", [8, 16, 40])
def test_a_one_point_solve_reads_a_nearly_symmetric_diffusion_in_c_order(n):
    # a diffusion need be symmetric only within the check's tolerance; both paths
    # read its norm in C order, also when it is passed in Fortran order, where
    # its memory order would give another rounding for about a third of draws
    rng = np.random.default_rng(n)
    for _ in range(10):
        r, d = solve_point(rng, n, "stable")
        d = d + 0.9e-12 * np.abs(d).max() * np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        d = np.asfortranarray(d)
        pc.solve_lyapunov(r, d)  # the check accepts it
        (one,) = assert_solve_matches_the_oracle(r[None], d[None], ["stable"])
        assert solve_outcome(steadystate._solve(np.stack([r] * 3), np.stack([d] * 3))[0]) == one


@pytest.mark.parametrize("entry", ["solve_lyapunov", "steady_state"])
def test_a_one_point_solve_forms_no_stack(monkeypatch, entry):
    _, model = make_base_setup().working_point(0.7)
    calls = collections.Counter()

    class SolverNumpy:
        """numpy as the solver module sees it."""

        def __getattr__(self, name):
            return getattr(np, name)

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if kwargs.get("lwork") == -1:
                calls["workspace query"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setattr(steadystate, "np", SolverNumpy())
    monkeypatch.setattr(steadystate, "_DGEES_LWORK", {})
    for owner, name in ((steadystate, "dgees"), (steadystate, "dtrsyl"), (steadystate, "_fros"),
                        (steadystate.np, "matmul"), (steadystate.np, "zeros")):
        counted(owner, name)
    call = {"solve_lyapunov": lambda: pc.solve_lyapunov(model.drift, model.diffusion),
            "steady_state": lambda: pc.steady_state(model)}[entry]
    # one factorization, plus one workspace query on an empty cache, and one
    # triangular solve; no stack buffer, no stacked product and no norm pass
    call()
    assert calls == {"dgees": 2, "workspace query": 1, "dtrsyl": 1}
    calls.clear()
    call()
    assert calls == {"dgees": 1, "dtrsyl": 1}
    # the same point twice is solved point by point, with the same counts per point
    calls.clear()
    steadystate._solve(np.stack([model.drift] * 2), np.stack([model.diffusion] * 2))
    assert calls == {"dgees": 2, "dtrsyl": 2}
    # three times is a stack, which counts each of those
    calls.clear()
    steadystate._solve(np.stack([model.drift] * 3), np.stack([model.diffusion] * 3))
    assert calls["zeros"] == 1 and calls["_fros"] == 2 and calls["matmul"] > 0
    assert calls["dgees"] == calls["dtrsyl"] == 3


def test_nonfinite_drift_of_a_hand_built_model_is_rejected():
    # the model checks its matrices when built, so a broken one never reaches
    # steady_state or network_cooling
    _, model = make_base_setup().working_point(0.7)
    for bad in (math.nan, math.inf, -math.inf):
        for index in ((0, 0), (0, 4), (5, 1)):
            drift = model.drift.copy()
            drift[index] = bad
            with pytest.raises(ValidationError, match="drift"):
                dataclasses.replace(model, drift=drift)


# ---------------------------------------------------------------------------
# occupations


def test_extract_occupations_vacuum_and_clamp():
    assert pc.extract_occupations(0.5 * np.eye(4)) == (0.0, 0.0)
    slightly_low = 0.5 * np.eye(2) - 0.4e-9 * np.eye(2)
    assert pc.extract_occupations(slightly_low) == (0.0,)
    too_low = 0.5 * np.eye(2) - 1e-8 * np.eye(2)
    with pytest.raises(SolverError, match="clamp"):
        pc.extract_occupations(too_low)
    with pytest.raises(ValidationError):
        pc.extract_occupations(np.eye(3))
    with pytest.raises(ValidationError, match="^covariance: contains a NaN or infinite entry$"):
        pc.extract_occupations(np.diag([0.5, np.nan]))
    # while the diagonal of a solved V that reads non-finite is the solver's fault
    with pytest.raises(SolverError, match="^mode 0: non-finite occupation inf$"):
        steadystate._occupations([math.inf, 0.5])


def test_zero_coupling_recovers_thermal_occupations():
    mechs = make_mechs(bare_coupling_hz=0.0)
    setup = make_base_setup(mechanical_modes=mechs)
    state = pc.steady_state(setup.working_point(0.7)[1])
    for j, mech in enumerate(setup.mechanical_modes):
        nbar = pc.thermal_occupation(mech.freq, setup.bath_temperature)
        assert state.occupations[2 + j] == pytest.approx(nbar, rel=1e-10)


def test_steady_state_reports_uncertainty_compliant_covariance():
    state = pc.steady_state(make_base_setup().working_point(0.25 * math.pi)[1])
    n = state.covariance.shape[0]
    omega = np.zeros((n, n))
    for k in range(n // 2):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    herm = state.covariance + 0.5j * omega
    eigs = np.linalg.eigvalsh(herm)
    assert eigs.min() > -1e-10
    assert not state.condition_flag
    assert state.lyapunov_residual < 1e-9


# the fixed-coupling designs, each tuned once across the draws
DESIGNS = functools.cache(lambda n: design(n)[0])


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def valid_points(draw):
    """(device, theta, temperature, rabi, averages) of a valid working point: the base
    pair with bare linewidths of 0.1-100 MHz and any angle, or a 2-5 mode design;
    zero or 1 mK - 1 K; zero drive or 0.01-20 times the base preset's."""
    if draw(st.booleans()):
        linewidth = log_uniform(TWO_PI * 1e5, TWO_PI * 1e8)
        setup = make_base_setup(magnon_linewidth=draw(linewidth), cavity_linewidth=draw(linewidth))
        theta = draw(st.floats(0.01, 1.56))
    else:
        setup, theta = DESIGNS(draw(st.integers(2, 5))), None
    temperature = draw(st.just(0.0) | log_uniform(1e-3, 1.0))
    rabi = draw(st.just(0.0) | st.floats(0.01, 20.0).map(lambda f: f * BASE_RABI))
    return setup, theta, temperature, rabi, draw(st.sampled_from(("approx", "selfconsistent")))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(valid_points())
def test_a_valid_device_keeps_the_physical_invariants(point):
    setup, theta, temperature, rabi, averages = point
    try:
        state = pc.steady_state(setup.working_point(theta, temperature, rabi, averages)[1],
                                require_stable=False)
    except TYPED_ERRORS:
        return
    if not state.stable:
        return
    v = state.covariance
    assert np.array_equal(v, v.T)
    assert state.lyapunov_residual <= 1e-9
    omega = np.kron(np.eye(len(v) // 2), [[0.0, 1.0], [-1.0, 0.0]])
    assert np.linalg.eigvalsh(v + 0.5j * omega).min() >= -1e-9 * max(1.0, np.abs(v).max())
    if rabi == 0.0:  # undriven, each mechanical mode sits at its thermal occupation
        n_p = len(setup.matter_linewidths) + 1
        for mech, n in zip(setup.mechanical_modes, state.occupations[n_p:]):
            nbar = pc.thermal_occupation(mech.freq, temperature)
            assert abs(n - nbar) <= 1e-9 * (1.0 + nbar)


def test_steady_state_unstable_paths():
    model = blue_detuned_model()
    with pytest.raises(UnstableSystemError):
        pc.steady_state(model)
    state = pc.steady_state(model, require_stable=False)
    assert not state.stable
    assert state.covariance is None
    assert all(math.isnan(n) for n in state.occupations)
    assert state.spectral_abscissa > 0.0


# ---------------------------------------------------------------------------
# the drift really propagates small fluctuations (dynamic consistency)


def test_linearized_propagator_tracks_nonlinear_trajectory():
    """exp(R t) applied to a small deviation must follow the nonlinear flow.

    Uses the shift-corrected drift: the static displacement detuning shift,
    dropped by convention in the model matrix, would otherwise accumulate a
    visible phase over the integration window. Deviations are scaled so the
    quadratic terms stay ~1e-4 relative.
    """
    setup = make_base_setup()
    pair = pair_at(setup, 0.6)
    _, model = setup.working_point(0.6, mode="selfconsistent")
    avg = model.averages
    drift = shift_corrected_drift(model.drift, pair, setup.mechanical_modes, avg)

    z0 = averages_vector(avg)
    rng = np.random.default_rng(5150)
    delta0 = 1e-4 * np.abs(z0).max() * rng.standard_normal(z0.size)
    t_final = 2e-6

    sol = solve_ivp(
        lambda _t, v: classical_rhs(v, pair, setup.mechanical_modes, setup.rabi_freq),
        (0.0, t_final),
        z0 + delta0,
        rtol=1e-11,
        atol=1e-3,
        method="DOP853",
        first_step=1e-10,  # the automatic probe overshoots and overflows
    )
    assert sol.success
    delta_nonlinear = rotate_polaritons(sol.y[:, -1] - z0, avg.phase_rotation)
    delta_linear = expm(drift * t_final) @ rotate_polaritons(delta0, avg.phase_rotation)
    scale = np.abs(delta0).max()
    assert np.abs(delta_nonlinear - delta_linear).max() < 1e-3 * scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
       exponent=st.integers(-150, 150), fortran=st.booleans())
def test_fro_is_np_linalg_norm_bit_for_bit(n, seed, exponent, fortran):
    a = np.random.default_rng(seed).standard_normal((n, n)) * 10.0 ** exponent
    if fortran:
        a = np.asfortranarray(a)
    assert steadystate._fro(a) == float(np.linalg.norm(a))
    # a sweep's verification forms the norms of a whole stack at once
    stack = np.ascontiguousarray(np.stack([a, a.T, -2.0 * a]))
    assert steadystate._fros(stack).tolist() == [steadystate._fro(m) for m in stack]
