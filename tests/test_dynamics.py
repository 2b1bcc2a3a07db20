"""Steady-state averages, drift/diffusion construction, N-polariton network."""
import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import polarcool as pc
from polarcool import dynamics, errors
from polarcool.errors import SolverError, ValidationError

from helpers import (
    BASE_RABI,
    TWO_PI,
    assemble_network,
    averages_vector,
    classical_rhs,
    eliminate,
    make_base_setup,
    make_mechs,
    network,
    nonnegative_roots,
    pair_at,
    pair_network,
    rotate_polaritons,
    selfconsistent_roots,
    shift_corrected_drift,
)


def tuned(theta=0.25 * math.pi, **overrides):
    """The base device with ``overrides``, and its pair's normal modes at ``theta``."""
    setup = make_base_setup(**overrides)
    return setup, pair_at(setup, theta)


def solve_averages(setup, theta, mode="approx"):
    return setup.working_point(theta, mode=mode)[1].averages


# ---------------------------------------------------------------------------
# classical averages


def test_approx_averages_closed_form():
    setup, pair = tuned(theta=0.25 * math.pi)
    avg = solve_averages(setup, 0.25 * math.pi)
    s, c = math.sin(pair.theta), math.cos(pair.theta)
    upper, lower = avg.avg_polaritons
    assert upper == pytest.approx(-1j * s * setup.rabi_freq / pair.detuning_upper, rel=1e-14)
    assert lower == pytest.approx(-1j * c * setup.rabi_freq / pair.detuning_lower, rel=1e-14)
    assert avg.avg_matter == pytest.approx(s * upper + c * lower, rel=1e-14)
    # matter amplitude is purely imaginary in this approximation
    assert abs(avg.avg_matter.real) < 1e-9 * abs(avg.avg_matter)
    for mech, b, g_eff in zip(setup.mechanical_modes, avg.avg_mech, avg.effective_couplings):
        assert b == pytest.approx(-mech.bare_coupling * abs(avg.avg_matter) ** 2 / mech.freq,
                                  rel=1e-14)
        assert g_eff == pytest.approx(2.0 * mech.bare_coupling * abs(avg.avg_matter), rel=1e-12)
        assert g_eff > 0.0
    assert avg.phase_rotation == 0.0


def test_approx_averages_reference_magnitudes():
    # frozen first-run values at theta = pi/4, base drive
    avg = solve_averages(make_base_setup(), 0.25 * math.pi)
    assert abs(avg.avg_polaritons[0]) == pytest.approx(294575.23653285, rel=1e-11)
    assert abs(avg.avg_polaritons[1]) == pytest.approx(883725.70959854, rel=1e-11)
    assert abs(avg.avg_matter) == pytest.approx(833184.58928803, rel=1e-11)
    assert avg.effective_couplings[0] == pytest.approx(2094021.26783320, rel=1e-11)


def test_zero_drive_has_zero_averages():
    avg = solve_averages(make_base_setup(rabi_freq=0.0), 0.25 * math.pi)
    assert avg.avg_polaritons == (0j, 0j)
    assert avg.effective_couplings == (0.0, 0.0)


@pytest.mark.parametrize("mode", ["approx", "selfconsistent"])
def test_numpy_scalar_mechanics_give_the_float_records(mode):
    # the builders keep check_real's floats, so a record's repr does not depend
    # on the number type its mechanical modes came in
    def modes(number):
        return [pc.MechanicalMode(*map(number, (TWO_PI * f, TWO_PI * 100.0, TWO_PI * 0.2)))
                for f in (1.0e7, 3.0e7)]

    def network(number):
        return pc.build_network(
            [pc.NetworkPolariton(TWO_PI * 1.0e10, TWO_PI * 1.0e6, 0.7, detuning=TWO_PI * 1.0e7)],
            modes(number), pc.NetworkDrive(TWO_PI * 1.0e10, 1.0e13, 0.01), mode=mode)

    def device(number):
        return make_base_setup(mechanical_modes=modes(number)).working_point(0.7, mode=mode)[1]

    for got, want in ((network(np.float64), network(float)), (device(np.float64), device(float))):
        assert repr(got.averages) == repr(want.averages)
        assert got.drift.tobytes() == want.drift.tobytes()
        assert got.diffusion.tobytes() == want.diffusion.tobytes()


@pytest.mark.parametrize("detuned", [True, False], ids=["explicit detunings", "None detunings"])
@pytest.mark.parametrize("mode", ["approx", "selfconsistent"])
def test_numpy_scalar_nodes_give_the_float_records(mode, detuned):
    # the nodes' fields are check_real's floats too, so no numpy scalar reaches
    # the averages, whose repr and selfconsistent solve would differ with it
    def network(number):
        nodes = [pc.NetworkPolariton(*map(number, (TWO_PI * f, TWO_PI * 1.0e6, w)),
                                     detuning=number(TWO_PI * d) if detuned else None)
                 for f, w, d in ((1.00003e10, 0.6, 3.0e7), (1.00001e10, 0.8, 1.0e7))]
        mechanics = [pc.MechanicalMode(TWO_PI * f, TWO_PI * 100.0, TWO_PI * 0.2)
                     for f in (1.0e7, 3.0e7)]
        return pc.build_network(nodes, mechanics, pc.NetworkDrive(TWO_PI * 1.0e10, 1.0e13, 0.01),
                                mode=mode)

    got, want = network(np.float64), network(float)
    assert repr(got.averages) == repr(want.averages)
    assert got.drift.tobytes() == want.drift.tobytes()
    assert got.diffusion.tobytes() == want.diffusion.tobytes()


def test_approx_rejects_zero_detuning():
    with pytest.raises(ValidationError, match=r"^polaritons\[1\]\.detuning: polariton resonant"):
        pair_network(make_base_setup(), 0.25 * math.pi, detuning_lower=0.0)


def test_selfconsistent_close_to_approx_at_weak_drive():
    # the dominant correction is a common phase, which the rotation absorbs;
    # magnitudes must agree to the percent level at this drive strength
    setup = make_base_setup()
    for theta in (0.25 * math.pi, 0.6, 1.0):
        approx = solve_averages(setup, theta, mode="approx")
        exact = solve_averages(setup, theta, mode="selfconsistent")
        for p_exact, p_approx in zip(exact.avg_polaritons, approx.avg_polaritons):
            assert abs(p_exact) == pytest.approx(abs(p_approx), rel=1e-2)
        assert abs(exact.avg_matter) == pytest.approx(abs(approx.avg_matter), rel=1e-2)
        for g_exact, g_approx in zip(exact.effective_couplings, approx.effective_couplings):
            assert g_exact > 0.0
            assert g_exact == pytest.approx(g_approx, rel=1e-2)
        assert exact.mode == "selfconsistent"


def max_classical_residual(setup, pair, polaritons, mech_avgs):
    """Largest right-hand side of the two-mode classical equations at the given averages."""
    s, c = math.sin(pair.theta), math.cos(pair.theta)
    upper, lower = polaritons
    matter = s * upper + c * lower
    shift = sum(2.0 * m.bare_coupling * b.real
                for m, b in zip(setup.mechanical_modes, mech_avgs))
    du = -(1j * (pair.detuning_upper + shift * s * s) + pair.upper_linewidth) * upper \
        - (pair.dissipative_coupling + 1j * shift * s * c) * lower \
        + setup.rabi_freq * s
    dl = -(1j * (pair.detuning_lower + shift * c * c) + pair.lower_linewidth) * lower \
        - (pair.dissipative_coupling + 1j * shift * c * s) * upper \
        + setup.rabi_freq * c
    dbs = [-(1j * mech.freq + mech.damping) * b - 1j * mech.bare_coupling * abs(matter) ** 2
           for mech, b in zip(setup.mechanical_modes, mech_avgs)]
    return max(abs(r) for r in (du, dl, *dbs))


def test_selfconsistent_is_a_fixed_point_of_the_classical_equations():
    # equal bare linewidths, then unequal ones so delta-kappa is live
    for overrides in ({}, {"magnon_linewidth": TWO_PI * 2.0e6}):
        setup, pair = tuned(theta=0.6, **overrides)
        avg = solve_averages(setup, 0.6, mode="selfconsistent")
        residual = max_classical_residual(setup, pair, avg.avg_polaritons, avg.avg_mech)
        assert residual < 1e-9 * setup.rabi_freq

    # three nodes: the preset, then unequal bare linewidths so the cross damping is live
    for linewidths_hz in ((1.0e6, 1.0e6), (1.0e6, 3.0e6)):
        mechs = make_mechs(freq_hz=(1.0e7, 2.0e7, 3.5e7))
        device = pc.Device(
            cavity_freq=TWO_PI * 1.0e10,
            cavity_linewidth=TWO_PI * 1.0e6,
            matter_linewidths=[TWO_PI * k for k in linewidths_hz],
            mechanical_modes=mechs,
            bath_temperature=0.01,
            rabi_freq=BASE_RABI,
            couplings=[TWO_PI * 7.0e6, TWO_PI * 9.0e6],
        )
        tuned_n, model = device.working_point(mode="selfconsistent")
        avg = model.averages
        assert avg.mode == "selfconsistent"
        pols = tuned_n.polaritons
        cross = np.array([p.cross_damping for p in pols])
        assert bool(cross.any()) == (linewidths_hz[1] != 1.0e6)
        w = [p.weights[1] for p in pols]
        matter = sum(wk * pk for wk, pk in zip(w, avg.avg_polaritons))
        assert matter == pytest.approx(avg.avg_matter, rel=1e-12)
        shift = sum(2.0 * m.bare_coupling * b.real for m, b in zip(mechs, avg.avg_mech))
        for k, (p, p_avg) in enumerate(zip(pols, avg.avg_polaritons)):
            dp = -(1j * (p.freq - tuned_n.drive_freq) + p.linewidth) * p_avg \
                - sum(cross[k, q] * avg.avg_polaritons[q] for q in range(len(pols))) \
                - 1j * w[k] * shift * matter + BASE_RABI * w[k]
            assert abs(dp) < 1e-9 * BASE_RABI
        for mech, b in zip(mechs, avg.avg_mech):
            db = -(1j * mech.freq + mech.damping) * b - 1j * mech.bare_coupling * abs(matter) ** 2
            assert abs(db) < 1e-9 * BASE_RABI


HIGHPOWER_THETA = 0.3


def highpower(drive_factor=1.0):
    """The high-power preset with its drive scaled, and its pair at ``HIGHPOWER_THETA``."""
    setup = pc.load_config("configs/two_mode_highpower.config").setup
    setup = dataclasses.replace(setup, rabi_freq=drive_factor * setup.rabi_freq)
    return setup, pair_at(setup, HIGHPOWER_THETA)


@pytest.mark.parametrize("drive_factor", (3.3, 10.0, 22.0))
def test_selfconsistent_solves_strong_drive(drive_factor):
    # the cubic has a single root here; a damped iteration of M used to give up
    setup, pair = highpower(drive_factor=drive_factor)
    avg = solve_averages(setup, HIGHPOWER_THETA, mode="selfconsistent")
    assert avg.branches == (avg.avg_matter,)
    assert np.isfinite(averages_vector(avg)).all()
    residual = max_classical_residual(setup, pair, avg.avg_polaritons, avg.avg_mech)
    assert residual < 1e-9 * setup.rabi_freq


def branch_averages(setup, pair, matter):
    """Polariton and mechanical averages of the steady state with matter amplitude M.

    M fixes the mechanical displacements and so the detuning shift; the
    polariton equations are then linear in the amplitudes.
    """
    mech_avgs = [-1j * m.bare_coupling * abs(matter) ** 2 / (1j * m.freq + m.damping)
                 for m in setup.mechanical_modes]
    shift = sum(2.0 * m.bare_coupling * b.real for m, b in zip(setup.mechanical_modes, mech_avgs))
    w = np.array([math.sin(pair.theta), math.cos(pair.theta)])
    dk = pair.dissipative_coupling
    a = np.array([[1j * pair.detuning_upper + pair.upper_linewidth, dk],
                  [dk, 1j * pair.detuning_lower + pair.lower_linewidth]])
    polaritons = np.linalg.solve(a + 1j * shift * np.outer(w, w), setup.rabi_freq * w)
    return tuple(complex(p) for p in polaritons), mech_avgs


def test_selfconsistent_reports_every_branch():
    setup, pair = highpower()
    avg = solve_averages(setup, HIGHPOWER_THETA, mode="selfconsistent")
    assert len(avg.branches) == 3
    assert avg.branches[0] == avg.avg_matter
    magnitudes = [abs(m) for m in avg.branches]
    assert magnitudes == sorted(magnitudes)
    # the lowest branch is the one the damped fixed-point iteration reached (frozen value)
    assert avg.avg_matter == pytest.approx(478965.3085257518 - 4778026.818752742j, rel=1e-12)
    s, c = math.sin(pair.theta), math.cos(pair.theta)
    for matter in avg.branches:
        polaritons, mech_avgs = branch_averages(setup, pair, matter)
        assert s * polaritons[0] + c * polaritons[1] == pytest.approx(matter, rel=1e-9)
        residual = max_classical_residual(setup, pair, polaritons, mech_avgs)
        assert residual < 1e-9 * setup.rabi_freq
    approx = solve_averages(setup, HIGHPOWER_THETA)
    assert approx.branches == (approx.avg_matter,)
    undriven = make_base_setup(rabi_freq=0.0)
    assert solve_averages(undriven, 0.25 * math.pi, mode="selfconsistent").branches == (0j,)


def test_selfconsistent_keeps_the_lower_branch_at_its_fold():
    # one node at detuning 2 kappa: its cubic is bistable, and at the upper end
    # of the lower branch two roots merge at u_a, the local maximum of g(u) = f(u) + Omega^2 |chi|^2
    kappa, detuning = 1.0, 2.0
    pol = pc.NetworkPolariton(freq=10.0, linewidth=kappa, weight=1.0, detuning=detuning)
    mech = pc.MechanicalMode(freq=1.0, damping=1e-3, bare_coupling=0.01)
    chi = 1.0 / (1j * detuning + kappa)
    sigma = 2.0 * mech.bare_coupling * (-1j * mech.bare_coupling / (1j * mech.freq + mech.damping)).real
    c3, c2 = (sigma * abs(chi)) ** 2, -2.0 * sigma * chi.imag
    u_a = (-c2 - math.sqrt(c2 * c2 - 3.0 * c3)) / (3.0 * c3)
    fold = math.sqrt(((c3 * u_a + c2) * u_a + 1.0) * u_a) / abs(chi)

    def averages(rabi):
        drive = pc.NetworkDrive(drive_freq=10.0 - detuning, rabi_freq=rabi, bath_temperature=0.0)
        avg = pc.build_network([pol], [mech], drive, mode="selfconsistent").averages
        (p,), (b,) = avg.avg_polaritons, avg.avg_mech
        shift = 2.0 * mech.bare_coupling * b.real
        residual = max(abs(-(1j * (detuning + shift) + kappa) * p + rabi),
                       abs(-(1j * mech.freq + mech.damping) * b - 1j * mech.bare_coupling * abs(p) ** 2))
        assert residual < 1e-9 * rabi
        return avg

    # just inside the fold the cubic vanishes at its critical point to round-off
    # or dips just below zero there: either way the lower branch is kept
    for offset in (1e-16, 1e-15, 1e-14, 1e-13, 1e-12):
        avg = averages(fold * (1.0 - offset))
        assert len(avg.branches) == 3
        assert abs(avg.avg_matter) ** 2 == pytest.approx(u_a, rel=1e-5)
    # beyond it only the upper branch is left
    for offset in (1e-12, 1e-10, 1e-6):
        avg = averages(fold * (1.0 + offset))
        assert len(avg.branches) == 1
        assert abs(avg.avg_matter) ** 2 > 2.0 * u_a


# ---------------------------------------------------------------------------
# the scaled cubic y^3 + p y^2 + y - c and the node solve, against referees

EPS = 2.0 ** -52


def referee_roots(p, c):
    """(root, allowed error) of every non-negative root of y^3 + p y^2 + y - c, ascending.

    mpmath finds all three roots of the float coefficients at 50 digits, and
    Newton steps at that precision refine each real simple root (polyroots
    resolves a root only to 1e-50 absolute, and c reaches 1e-150). A
    perturbation of f by its evaluation round-off, 8 eps sum|terms|, moves a
    simple root by eps_f / |f'| and a k-fold one by (eps_f / |f^(k) / k!|)^(1/k);
    roots closer than twice that for k = 2 or 3 are one multiple root at
    round-off, possibly split into a complex pair, and count with their number
    at their mean. A multiple root needs f' to vanish there: at the centre of
    such a cluster |f'| stays within 8 eps_f^(2/3) plus its own evaluation
    round-off, and elsewhere no roots are clustered, however flat f'' is.
    """
    with mpmath.workdps(50):
        roots = sorted(mpmath.polyroots([1, p, 1, -c], maxsteps=400, extraprec=400),
                       key=lambda r: (mpmath.re(r), mpmath.im(r)))
    roots = [complex(r) for r in roots]

    def radius(y):
        slope = abs((3.0 * y + 2.0 * p) * y + 1.0)
        y = abs(y)
        eps_f = 8.0 * EPS * (((y + abs(p)) * y + 1.0) * y + c)
        if slope > 8.0 * eps_f ** (2.0 / 3.0) + 8.0 * EPS * ((3.0 * y + 2.0 * abs(p)) * y + 1.0):
            return eps_f / slope, 0.0  # f' does not vanish: no multiple root here
        return eps_f / max(slope, 1e-300), \
            max(math.sqrt(eps_f / max(abs(3.0 * y + p), 1e-300)), eps_f ** (1.0 / 3.0))

    def refine(y):
        with mpmath.workdps(50):
            y = mpmath.mpf(y)
            for _ in range(400):
                step = (((y + p) * y + 1) * y - c) / ((3 * y + 2 * p) * y + 1)
                y -= step
                if abs(step) <= mpmath.mpf(10) ** -45 * abs(y):
                    break
            return float(y)

    clusters = [[roots[0]]]
    for r in roots[1:]:
        mean = sum(clusters[-1]) / len(clusters[-1])
        if abs(r - mean) <= 2.0 * radius(0.5 * (r + mean))[1]:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    found = []
    for members in clusters:
        mean = sum(members) / len(members)
        if len(members) == 1 and mean.imag != 0.0 or mean.real < 0.0:
            continue
        simple, multiple = radius(mean.real)
        err = simple if len(members) == 1 else 2.0 * multiple
        root = mean.real if len(members) > 1 else refine(mean.real)
        found += [(root, 1e-12 * root + 2.0 * err)] * len(members)
    return found


def chosen_double_root(r, rel):
    """(p, c) of (y - a)(y - r)^2 with a = (1 - r^2) / (2 r), c scaled by 1 + rel.

    The y coefficient r^2 + 2 a r is 1 by the choice of a; r in [1/3, 1] gives
    a >= 0 and p in [-2, -sqrt(3)], and r = 1/sqrt(3) the triple root.
    """
    a = (1.0 - r * r) / (2.0 * r)
    return -(a + 2.0 * r), a * r * r * (1.0 + rel)


cubics = st.one_of(
    st.tuples(st.floats(-2.0, 2.0), st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)),
    st.builds(
        chosen_double_root,
        st.one_of(st.just(1.0 / math.sqrt(3.0)), st.just(1.0), st.floats(1.0 / 3.0, 1.0)),
        st.one_of(st.just(0.0), st.floats(1e-6, 1e-2), st.floats(-1e-2, -1e-6)),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cubics)
@example((0.0, 10.0 ** -50.5))  # one root near 0 and the pair +-i, far from any multiple root
def test_cubic_roots_match_a_50_digit_referee(pc_pair):
    p, c = pc_pair
    got = dynamics._nonnegative_roots(p, c)
    want = referee_roots(p, c)
    assert len(got) == len(want), (p, c, got, want)
    assert got == sorted(got)
    for y, (ref, tol) in zip(got, want):
        assert abs(y - ref) <= tol, (p, c, got, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cubics)
@example((0.0, 10.0 ** -50.5))
@example((-1.99, 0.026))  # three roots, the lowest inside (0, y_lo): f(y_hi) is not formed
@example((-2.0, 4.0 / 27.0))  # f(y_lo) rounds to 0: the fold's double root, listed twice
@example((-1.99, 1.0))  # f(y_lo) < 0 and f(y_hi) < 0: the root lies past y_hi
@example((-math.sqrt(3.0), 1.0 / (3.0 * math.sqrt(3.0))))  # the triple root
@example((-1.99, 0.0))  # c = 0: the root 0, before any bracket
@example((0.5, 1.0))  # p > -sqrt(3): no critical points, one bracket up to the bound
@example((-1.99, 1e300))  # c near the top of the range
def test_the_lowest_root_alone_has_the_same_bits(pc_pair):
    # all a working point's values read; repeated only where it is a multiple root,
    # and both searches keep the bits of the oracle's
    got = dynamics._nonnegative_roots(*pc_pair)
    lowest = dynamics._nonnegative_roots(*pc_pair, lowest=True)
    assert lowest == got[:len(lowest)] and set(lowest) == {got[0]}
    assert repr(got) == repr(nonnegative_roots(*pc_pair))
    assert repr(lowest) == repr(nonnegative_roots(*pc_pair, lowest=True))


def test_cubic_roots_at_the_edges_of_the_range():
    # c where 1 + c^(1/3) as the upper bracket end would round to c^(1/3)
    for c in (1e289, 1e300, 1.7e308):
        (y,) = dynamics._nonnegative_roots(-1.99, c)
        assert y == pytest.approx(c ** (1.0 / 3.0), rel=1e-12)
    assert dynamics._nonnegative_roots(0.5, 0.0) == [0.0]
    assert dynamics._nonnegative_roots(-2.0, 0.0) == [0.0, 1.0, 1.0]
    assert dynamics._nonnegative_roots(-2.0, 0.0, lowest=True) == [0.0]
    assert dynamics._nonnegative_roots(-2.0, 4.0 / 27.0, lowest=True) == [1.0 / 3.0, 1.0 / 3.0]
    assert dynamics._nonnegative_roots(-2.0, 4.0 / 27.0) == [1.0 / 3.0, 1.0 / 3.0,
                                                             pytest.approx(4.0 / 3.0, rel=1e-14)]
    assert dynamics._nonnegative_roots(-math.sqrt(3.0), 1.0 / (3.0 * math.sqrt(3.0))) \
        == [pytest.approx(1.0 / math.sqrt(3.0), rel=1e-5)] * 3


@pytest.mark.parametrize("p, c", [
    (0.5, 1.0),  # one bracket, up to the bound
    (0.0, 10.0 ** -50.5),  # a root near 0, far below the bracket's midpoint
    (-1.99, 0.026),  # three simple roots, one in each bracket
    (-1.99, 1.0),  # the root past y_hi
    (-1.99, 1e300),  # near the top of the range
])
def test_a_bracket_without_a_seed_starts_at_its_midpoint(p, c, monkeypatch):
    """No cubic found near p = -sqrt(3), the folds or across the range puts a
    closed-form seed outside its bracket, so the seeds are taken away here: the
    bracketed Newton steps from each midpoint find the same roots."""
    want = dynamics._nonnegative_roots(p, c)
    monkeypatch.setattr(dynamics, "_cubic_seeds", lambda p, c: [])
    got = dynamics._nonnegative_roots(p, c)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert dynamics._nonnegative_roots(p, c, lowest=True) == pytest.approx(want[:1], rel=1e-14,
                                                                             abs=0.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_node_elimination_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    cross = rng.uniform(-1.0, 1.0, (n, n))
    cross = np.triu(cross, 1) + np.triu(cross, 1).T
    a = np.diag(rng.uniform(0.1, 10.0, n) + 1j * rng.uniform(-10.0, 10.0, n)) + cross
    w = rng.uniform(-1.0, 1.0, n)
    rows = [list(row) + [wk] for row, wk in zip(a.tolist(), w.tolist())]
    oracle = eliminate([row[:] for row in rows])
    got = dynamics._eliminate(rows)
    assert repr(got) == repr(oracle)
    want = np.linalg.solve(a, w)
    assert np.abs(np.array(got) - want).max() <= 1e-13 * np.linalg.cond(a) * np.abs(want).max()


def test_node_elimination_keeps_the_top_row_on_a_tie():
    # |3 + 4i| = 5 = |5|: only a strictly larger entry goes on top
    rows = [[3.0 + 4.0j, 5.0, 1.0], [5.0, 1.0 + 1.0j, 2.0]]
    oracle = eliminate([row[:] for row in rows])
    assert repr(dynamics._eliminate(rows)) == repr(oracle)
    assert rows[0][0] == 3.0 + 4.0j


def test_node_elimination_pivots_past_a_small_diagonal():
    # node 0's |kappa + i Delta| lies below its cross damping to node 1, so the
    # elimination swaps the two rows before it divides
    a = np.array([[0.1 + 0.2j, 3.0, 0.5], [3.0, 2.0 + 1.0j, 0.7], [0.5, 0.7, 1.0 - 4.0j]])
    w = [0.3, -0.8, 0.6]
    rows = [list(row) + [wk] for row, wk in zip(a.tolist(), w)]
    got = np.array(dynamics._eliminate(rows))
    assert rows[0][0] == 3.0  # the largest entry of the first column went on top
    want = np.linalg.solve(a, w)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_build_network_needs_a_node_and_a_mechanical_mode():
    node = pc.NetworkPolariton(TWO_PI * 1e10, TWO_PI * 1e6, 0.7, detuning=TWO_PI * 1e7)
    drive = pc.NetworkDrive(TWO_PI * 1e10, 1e13, 0.01)
    for nodes, mechanics in (([], make_mechs()), ([node], [])):
        with pytest.raises(ValidationError, match="^build_network: need at least one polariton"
                                                  " and one mechanical mode$"):
            pc.build_network(nodes, mechanics, drive)


def test_singular_polariton_matrix_raises_solver_error():
    # A0 = [[1, 1], [1, 1]]: unit linewidths, no detuning, unit cross damping
    pol = pc.NetworkPolariton(freq=10.0, linewidth=1.0, weight=1.0, detuning=0.0)
    drive = pc.NetworkDrive(drive_freq=10.0, rabi_freq=1.0, bath_temperature=0.0)
    with pytest.raises(SolverError, match="singular polariton matrix"):
        pc.build_network([pol, pol], make_mechs(), drive, [[0.0, 1.0], [1.0, 0.0]],
                         mode="selfconsistent")


# ---------------------------------------------------------------------------
# drift oracle: finite differences of an independently coded right-hand side


def fd_jacobian(setup, pair, avg):
    z0 = averages_vector(avg)
    n = z0.size
    jac = np.zeros((n, n))
    for j in range(n):
        step = 1e-6 * max(abs(z0[j]), 1.0)
        e = np.zeros(n)
        e[j] = step
        jac[:, j] = (classical_rhs(z0 + e, pair, setup.mechanical_modes, setup.rabi_freq)
                     - classical_rhs(z0 - e, pair, setup.mechanical_modes, setup.rabi_freq)
                     ) / (2.0 * step)
    return jac


def test_drift_matches_finite_difference_jacobian():
    """The built drift is the true Jacobian up to the static displacement shift.

    The model deliberately keeps the bare tuned detunings; the steady
    mechanical displacement shifts them by x sin^2/cos^2 terms, which is the
    only discrepancy left. Correcting for it analytically must bring the
    match down to finite-difference noise.
    """
    setup, pair = tuned(theta=0.6)
    model = setup.working_point(0.6, mode="selfconsistent")[1]
    avg, drift = model.averages, model.drift
    jac = rotate_polaritons(fd_jacobian(setup, pair, avg), avg.phase_rotation)
    scale = np.abs(drift).max()
    assert np.abs(jac - drift).max() < 5e-4 * scale
    corrected = shift_corrected_drift(drift, pair, setup.mechanical_modes, avg)
    assert np.abs(jac - corrected).max() < 1e-6 * scale


def test_drift_block_structure():
    setup, pair = tuned(theta=0.6, magnon_linewidth=TWO_PI * 2.0e6)
    model = setup.working_point(0.6)[1]
    avg, r = model.averages, model.drift
    s, c = math.sin(pair.theta), math.cos(pair.theta)
    assert r.shape == (8, 8)
    assert r[0, 0] == -pair.upper_linewidth and r[0, 1] == pair.detuning_upper
    assert r[2, 3] == pair.detuning_lower
    assert r[0, 2] == -pair.dissipative_coupling
    assert r[2, 0] == -pair.dissipative_coupling
    for j, (mech, g_eff) in enumerate(zip(setup.mechanical_modes, avg.effective_couplings)):
        i = 4 + 2 * j
        assert r[i, i + 1] == mech.freq and r[i, i] == -mech.damping
        assert r[0, i] == -g_eff * s
        assert r[2, i] == -g_eff * c
        assert r[i + 1, 1] == g_eff * s
        assert r[i + 1, 3] == g_eff * c
        # X rows of mechanics carry no coupling, Y rows of polaritons none
        assert r[i, 1] == 0.0 and r[1, i] == 0.0


def test_drift_zero_coupling_decouples():
    r = make_base_setup(rabi_freq=0.0).working_point(0.25 * math.pi)[1].drift
    off = r[0:4, 4:8]
    assert np.all(off == 0.0) and np.all(r[4:8, 0:4] == 0.0)


@st.composite
def assembled_networks(draw):
    """1-4 nodes and 1-4 mechanical modes in either averages mode, each node
    pair with or without cross damping (signed zeros included), node weights of
    either sign or zero, and two drives of one network, zero drive included."""
    unit = st.floats(0.0, 1.0)
    mechs = [
        pc.MechanicalMode(
            freq=TWO_PI * 1e6 * (5.0 + 45.0 * draw(unit)),
            damping=TWO_PI * (10.0 + 990.0 * draw(unit)),
            bare_coupling=TWO_PI * (0.05 + 0.95 * draw(unit)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    drive_freq = TWO_PI * 1e10
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        detuning = draw(st.sampled_from((1.0, -1.0))) * TWO_PI * 1e6 * (5.0 + 45.0 * draw(unit))
        nodes.append(pc.NetworkPolariton(
            freq=drive_freq + detuning,
            linewidth=TWO_PI * (3e5 + 2.7e6 * draw(unit)),
            weight=draw(st.sampled_from((0.0, -0.0)) | st.floats(-1.0, 1.0)),
            detuning=draw(st.sampled_from((None, detuning))),
        ))
    cross = None
    if draw(st.booleans()):
        cross = [[0.0] * len(nodes) for _ in nodes]
        for k in range(len(nodes)):
            for q in range(k + 1, len(nodes)):
                cross[k][q] = cross[q][k] = draw(
                    st.sampled_from((0.0, -0.0)) | st.floats(-1.0, 1.0).map(lambda x: 1e5 * x))
    drives = [
        pc.NetworkDrive(
            drive_freq=drive_freq,
            rabi_freq=BASE_RABI * draw(st.sampled_from((0.0,)) | st.floats(0.0, 3.0)),
            bath_temperature=draw(st.sampled_from((0.0,)) | unit),
        )
        for _ in range(2)
    ]
    return nodes, mechs, drives, cross, draw(st.sampled_from(("approx", "selfconsistent")))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(assembled_networks())
def test_the_stack_fills_the_oracles_entries_bit_for_bit(network):
    # tobytes pins every bit, signed zeros included
    nodes, mechs, drives, cross, mode = network
    try:  # one-point stacks, which check the inputs
        models = [pc.build_network(nodes, mechs, drive, cross, mode) for drive in drives]
    except (ValidationError, SolverError):
        return
    cross = cross or [[0.0] * len(nodes) for _ in nodes]
    values = [dynamics._network(
        [n.freq for n in nodes], [n.linewidth for n in nodes], [n.weight for n in nodes],
        [n.freq - drive.drive_freq if n.detuning is None else n.detuning for n in nodes],
        mechs, dynamics._shift_coefficient(mechs), drive.rabi_freq, drive.bath_temperature,
        cross, mode)[0] for drive in drives]
    _, r, d = dynamics._stack(len(nodes), len(mechs), values)
    for p, (drive, model) in enumerate(zip(drives, models)):
        want_r, want_d = assemble_network(nodes, mechs, drive, cross,
                                          model.averages.effective_couplings)
        assert r[p].tobytes() == want_r.tobytes()
        assert d[p].tobytes() == want_d.tobytes()
    model = models[0]
    assert model.drift.tobytes() == r[0].tobytes()
    assert model.diffusion.tobytes() == d[0].tobytes()


@st.composite
def core_points(draw):
    """Checked plain inputs of one point as the values core takes them: 1-4 nodes
    and 1-4 mechanical modes (bare couplings zero or not), approx, selfconsistent or
    an unknown mode, zero drive, and one of four kinds of point: plain (zero
    detunings now and then); bistable, a selfconsistent drive inside the
    three-root window of the cubic; overflow, a drive or detuning whose |M|^2
    overflows; singular, two nodes whose polariton matrix is singular."""
    unit = st.floats(0.0, 1.0)
    kind = draw(st.sampled_from(("plain", "bistable", "overflow", "singular")))
    mode = "selfconsistent" if kind == "bistable" else draw(
        st.sampled_from(("approx", "selfconsistent") * 4 + ("exact",)))
    n_p = draw(st.integers(2 if kind == "singular" else 1, 4))
    mechanics = [
        pc.MechanicalMode(
            freq=TWO_PI * 1e6 * (5.0 + 45.0 * draw(unit)),
            damping=TWO_PI * (10.0 + 990.0 * draw(unit)),
            bare_coupling=TWO_PI * (draw(st.floats(0.05, 1.0)) if kind == "bistable"
                                    else draw(st.sampled_from((0.0,)) | st.floats(0.05, 1.0))),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    linewidths = [TWO_PI * (3e5 + 2.7e6 * draw(unit)) for _ in range(n_p)]
    detunings = []
    for kappa in linewidths:
        size = TWO_PI * 1e6 * (5.0 + 45.0 * draw(unit))
        if kind == "bistable":  # 2 to 32 linewidths, so Im(chi) / |chi| < -sqrt(3) / 2
            detunings.append(kappa * (2.0 + 30.0 * draw(unit)))
        elif kind == "overflow":
            detunings.append(draw(st.sampled_from((1e-150, -1.0, -1e-150, 1.0))) * size)
        else:
            detunings.append(draw(st.sampled_from((0.0, 1.0, -1.0, 1.0, -1.0))) * size)
    if kind == "bistable":
        weights = [draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.2, 1.0))
                   for _ in range(n_p)]
    else:
        weights = [draw(st.sampled_from((0.0, -0.0)) | st.floats(-1.0, 1.0)) for _ in range(n_p)]
    cross = [[0.0] * n_p for _ in range(n_p)]
    if kind == "singular":  # rows (kappa, kappa) and (kappa, kappa): a zero pivot
        linewidths[1], detunings[0], detunings[1] = linewidths[0], 0.0, 0.0
        cross[0][1] = cross[1][0] = linewidths[0]
    elif kind != "bistable" and draw(st.booleans()):
        for k in range(n_p):
            for q in range(k + 1, n_p):
                cross[k][q] = cross[q][k] = draw(
                    st.sampled_from((0.0, -0.0)) | st.floats(-1.0, 1.0).map(lambda x: 1e5 * x))
    freqs = [TWO_PI * 1e10 + det for det in detunings]
    rabi = BASE_RABI * draw(st.sampled_from((0.0,)) | st.floats(0.0, 3.0))
    if kind == "overflow":
        rabi = draw(st.sampled_from((1e300, 1e200, 1e160, BASE_RABI)))
    elif kind == "bistable":
        # y^3 + p y^2 + y - c has three roots for c between its values at the critical points
        v = dynamics._eliminate([[complex(linewidths[k], detunings[k]) if q == k else 0j
                                  for q in range(n_p)] + [weights[k]] for k in range(n_p)])
        chi = sum(w * x for w, x in zip(weights, v))
        sigma = dynamics._shift_coefficient(mechanics)
        p = 2.0 * chi.imag / abs(chi)  # sigma < 0
        y_hi = (math.sqrt(p * p - 3.0) - p) / 3.0
        y_lo = 1.0 / (3.0 * y_hi)
        low, high = (((y + p) * y + 1.0) * y for y in (y_hi, y_lo))
        c = low + draw(st.floats(0.01, 0.99)) * (high - low)
        rabi = math.sqrt(c / (abs(sigma) * abs(chi) ** 3))
    temperature = draw(st.sampled_from((0.0,)) | unit)
    return freqs, linewidths, weights, detunings, mechanics, rabi, temperature, cross, mode


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(core_points())
def test_the_values_core_and_the_record_step_equal_the_oracle(point):
    # the oracle forms the values and the whole record together at every point;
    # the core must give the same values bit for bit (or the same error), and
    # the one-point path the same record by repr and the same matrices
    freqs, linewidths, weights, detunings, mechanics, rabi, temperature, cross, mode = point
    n_p, n_m = len(freqs), len(mechanics)

    def core():
        return dynamics._network(freqs, linewidths, weights, detunings, mechanics,
                                 dynamics._shift_coefficient(mechanics), rabi, temperature,
                                 cross, mode)

    try:
        want_values, want_fields = network(*point)
    except (ValidationError, SolverError) as exc:
        event(f"core raises {type(exc).__name__}: {str(exc).split(':')[0]}")
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            core()
        return
    values, solved = core()
    assert np.array(values).tobytes() == np.array(want_values).tobytes()
    assert repr(dynamics._averages(*solved)) == repr(want_fields)
    event(f"{mode}, {len(want_fields[-1])} branch(es)")
    _, r, d = dynamics._stack(n_p, n_m, [want_values])
    layout = tuple(f"p{k + 1}" for k in range(n_p)) + tuple(f"b{j + 1}" for j in range(n_m))
    try:
        want = pc.LinearModel(r[0], d[0], layout, pc.SteadyStateAverages(*want_fields))
    except ValidationError as exc:
        event("matrix check raises")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            dynamics._model(n_p, n_m, values, solved)
        return
    model = dynamics._model(n_p, n_m, values, solved)
    assert repr(model.averages) == repr(want.averages)
    assert model.drift.tobytes() == want.drift.tobytes()
    assert model.diffusion.tobytes() == want.diffusion.tobytes()


@st.composite
def bistable_networks(draw):
    """(nodes, mechanics, drive, cross damping) of a selfconsistent network: 1-4
    nodes, mostly red-detuned by 2 to 32 linewidths, with or without cross damping,
    and 1-4 mechanical modes. Where the cubic of the lowest branch can have three
    roots, the drive mostly puts its constant inside that window; otherwise it is
    drawn from zero to 60 times the base drive."""
    unit = st.floats(0.0, 1.0)
    mechanics = [
        pc.MechanicalMode(
            freq=TWO_PI * 1e6 * (5.0 + 45.0 * draw(unit)),
            damping=TWO_PI * (10.0 + 990.0 * draw(unit)),
            bare_coupling=TWO_PI * (0.05 + 0.95 * draw(unit)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    n_p = draw(st.integers(1, 4))
    linewidths = [TWO_PI * (3e5 + 2.7e6 * draw(unit)) for _ in range(n_p)]
    detunings = [draw(st.sampled_from((1.0, 1.0, 1.0, -1.0))) * kappa * (2.0 + 30.0 * draw(unit))
                 for kappa in linewidths]
    weights = [draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.2, 1.0)) for _ in range(n_p)]
    cross = np.zeros((n_p, n_p))
    if draw(st.booleans()):
        for k in range(n_p):
            for q in range(k + 1, n_p):
                cross[k, q] = cross[q, k] = 1e5 * draw(st.floats(-1.0, 1.0))
    # the scaled cubic y^3 + p y^2 + y - c of the lowest branch, formed with numpy
    w = np.array(weights)
    chi = w @ np.linalg.solve(np.diag(np.array(linewidths) + 1j * np.array(detunings)) + cross,
                              w.astype(complex))
    sigma = dynamics._shift_coefficient(mechanics)
    p = -2.0 * math.copysign(1.0, sigma) * chi.imag / abs(chi)
    if p < -math.sqrt(3.0) and draw(st.sampled_from((True, True, False))):
        # three roots for c between the cubic's values at its two critical points
        y_hi = (math.sqrt(p * p - 3.0) - p) / 3.0
        low, high = (((y + p) * y + 1.0) * y for y in (y_hi, 1.0 / (3.0 * y_hi)))
        c = low + draw(unit) * (high - low)
        rabi = math.sqrt(c / (abs(sigma) * abs(chi) ** 3))
    else:
        rabi = BASE_RABI * draw(st.sampled_from((0.0,)) | st.floats(0.0, 60.0))
    nodes = [pc.NetworkPolariton(freq=TWO_PI * 1e10 + det, linewidth=kappa, weight=weight,
                                 detuning=det)
             for kappa, det, weight in zip(linewidths, detunings, weights)]
    return nodes, mechanics, pc.NetworkDrive(TWO_PI * 1e10, rabi, 0.01), cross


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bistable_networks())
def test_every_selfconsistent_branch_solves_the_classical_equations(case):
    # at a fixed shift x = sigma |M|^2 the polariton equations are linear,
    # (diag(kappa + i Delta) + K + i x w w^T) P = Omega w, and each branch's M
    # must be the matter amplitude w^T P of its own shift
    nodes, mechanics, drive, cross = case
    avg = pc.build_network(nodes, mechanics, drive, cross, mode="selfconsistent").averages
    event(f"{len(avg.branches)} branch(es)")
    assert len(avg.branches) in (1, 3) and avg.branches[0] == avg.avg_matter
    magnitudes = [abs(m) for m in avg.branches]
    assert magnitudes == sorted(magnitudes)
    w = np.array([node.weight for node in nodes])
    a0 = np.diag([complex(node.linewidth, node.detuning) for node in nodes]) + cross
    sigma = dynamics._shift_coefficient(mechanics)
    for matter in avg.branches:
        polaritons = np.linalg.solve(a0 + 1j * sigma * abs(matter) ** 2 * np.outer(w, w),
                                     drive.rabi_freq * w.astype(complex))
        # within 1e-9 |M|, well inside the 1e-9 Omega of the classical equations
        assert abs(w @ polaritons - matter) <= 1e-9 * abs(matter)


@st.composite
def averages_inputs(draw):
    """(weights, detunings, linewidths, cross, rabi, sigma) of a point of
    :func:`bistable_networks`; where its cubic has critical points, a third of
    the draws move the drive so that c is the cubic's value at one of them,
    a fold to within a few rounding errors."""
    nodes, mechanics, drive, cross = draw(bistable_networks())
    weights = [node.weight for node in nodes]
    detunings = [node.detuning for node in nodes]
    linewidths = [node.linewidth for node in nodes]
    cross, sigma, rabi = cross.tolist(), dynamics._shift_coefficient(mechanics), drive.rabi_freq
    _, chi, unit, _, _ = selfconsistent_roots(weights, detunings, linewidths, cross, 1.0, sigma)
    p = -2.0 * unit.imag
    if p < -math.sqrt(3.0) and draw(st.sampled_from((True, False, False))):
        y_hi = (math.sqrt(p * p - 3.0) - p) / 3.0
        y = draw(st.sampled_from((y_hi, 1.0 / (3.0 * y_hi))))
        rabi = math.sqrt(((y + p) * y + 1.0) * y / (abs(sigma) * abs(chi) ** 3))
    return weights, detunings, linewidths, cross, rabi, sigma


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(averages_inputs())
def test_the_averages_solve_equals_the_oracle(point):
    # M, v, chi, the cubic and its lowest root of a working point's build, bit for
    # bit those of the solve copied into the oracle, which finds every root
    matter, (v, chi, unit, cubic) = dynamics._selfconsistent_polaritons(*point)
    want_v, want_chi, want_unit, want_cubic, ys = selfconsistent_roots(*point)
    want_matter = point[4] * want_chi / (1.0 + 1j * ys[0] * want_unit)
    assert repr((matter, v, chi, unit, cubic)) == repr(
        (want_matter, want_v, want_chi, want_unit, want_cubic))
    if cubic is not None:
        lowest = dynamics._nonnegative_roots(*cubic, lowest=True)
        assert repr(lowest) == repr(nonnegative_roots(*cubic, lowest=True))
        assert repr(lowest) == repr(ys[:len(lowest)])
        event(f"{len(ys)} root(s), the lowest {'a fold' if len(lowest) > 1 else 'simple'}")
        event(f"{len(point[0])} node(s)")


@pytest.mark.parametrize("n_p", [1, 2, 3])
@pytest.mark.parametrize("n_m", [1, 2, 3])
def test_each_diffusion_value_fills_the_diagonal_or_a_transposed_pair(n_p, n_m):
    # so a point whose values are all finite has a finite, exactly symmetric
    # diffusion, and np.isfinite over the values is the matrix check's verdict
    n = 2 * (n_p + n_m)
    cells, sources, read = dynamics._pattern(n_p, n_m)
    assert len(set(cells.tolist())) == len(cells)  # no cell is filled twice
    assert sorted(set(sources.tolist())) == list(range(len(read)))  # every value fills a cell
    diffusion = {divmod(cell - n * n, n): v
                 for cell, v in zip(cells.tolist(), sources.tolist()) if cell >= n * n}
    for (row, col), v in diffusion.items():
        assert row == col or diffusion.get((col, row)) == v


def network_values(n_p, n_m) -> list:
    """The values of a clean point of an n_p-node, n_m-mode network with cross damping."""
    nodes = [pc.NetworkPolariton(freq=TWO_PI * (1e10 + 1e7 * k), linewidth=TWO_PI * 1e6,
                                 weight=0.5 + 0.1 * k) for k in range(n_p)]
    mechs = make_mechs(freq_hz=tuple(1e7 * (j + 1) for j in range(n_m)))
    cross = [[0.0 if k == q else TWO_PI * 1e4 for q in range(n_p)] for k in range(n_p)]
    drive = pc.NetworkDrive(drive_freq=TWO_PI * 9.99e9, rabi_freq=BASE_RABI,
                            bath_temperature=0.01)
    return dynamics._values(pc.build_network(nodes, mechs, drive, cross), n_p, n_m)


@pytest.mark.parametrize("n_p, n_m", [(1, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_value_faults_its_point_as_the_matrix_check_does(n_p, n_m, bad):
    clean = network_values(n_p, n_m)
    for slot in range(len(clean)):
        values = [list(clean), list(clean), list(clean)]
        values[1][slot] = bad
        r, d, faults = dynamics._checked_stack(n_p, n_m, values)
        _, want_r, want_d = dynamics._stack(n_p, n_m, [values[1]])  # the point on its own
        with pytest.raises(ValidationError) as want:
            errors.check_drift_diffusion(want_r[0], want_d[0])
        assert type(faults[1]) is type(want.value) and str(faults[1]) == str(want.value), slot
        assert faults[0] is None and faults[2] is None, slot


# ---------------------------------------------------------------------------
# diffusion


def test_diffusion_matches_mode_occupations():
    setup, pair = tuned(theta=0.6, magnon_linewidth=TWO_PI * 2.0e6)
    d = setup.working_point(0.6)[1].diffusion
    t = setup.bath_temperature
    n_u = pc.thermal_occupation(pair.upper_freq, t)
    n_l = pc.thermal_occupation(pair.lower_freq, t)
    n_c = pc.thermal_occupation(0.5 * (pair.upper_freq + pair.lower_freq), t)
    assert d[0, 0] == pytest.approx(2 * pair.upper_linewidth * (n_u + 0.5), rel=1e-14)
    assert d[2, 2] == pytest.approx(2 * pair.lower_linewidth * (n_l + 0.5), rel=1e-14)
    assert d[0, 2] == pytest.approx(2 * pair.dissipative_coupling * (n_c + 0.5), rel=1e-14)
    for j, mech in enumerate(setup.mechanical_modes):
        i = 4 + 2 * j
        nb = pc.thermal_occupation(mech.freq, t)
        assert d[i, i] == pytest.approx(2 * mech.damping * (nb + 0.5), rel=1e-14)
    assert np.all(d == d.T)


def test_diffusion_positive_semidefinite_with_dissipative_coupling():
    # kappa_u kappa_l - delta_kappa^2 = kappa_a kappa_m > 0 guarantees this
    rng = np.random.default_rng(31)
    for _ in range(50):
        theta = rng.uniform(0.05, 0.5 * math.pi - 0.05)
        setup = make_base_setup(
            magnon_linewidth=TWO_PI * 10 ** rng.uniform(5, 7),
            bath_temperature=rng.uniform(0.0, 1.0),
        )
        d = setup.working_point(theta)[1].diffusion
        eigs = np.linalg.eigvalsh(d)
        assert eigs.min() >= -1e-12 * abs(eigs.max())


# ---------------------------------------------------------------------------
# photon-matter diagonalization (N-mode)


def test_photon_matter_single_mode_matches_two_mode_transform():
    setup, pair = tuned(theta=0.6)
    coupling, magnon_freq, _ = setup._tuned(0.6)
    modes = pc.photon_matter_diagonalize(
        setup.cavity_freq,
        [pc.MatterMode(freq=magnon_freq, coupling=coupling,
                       linewidth=setup.matter_linewidths[0])],
        setup.cavity_linewidth,
    )
    lower, upper = modes
    s, c = math.sin(pair.theta), math.cos(pair.theta)
    assert upper.freq == pytest.approx(pair.upper_freq, rel=1e-13)
    assert lower.freq == pytest.approx(pair.lower_freq, rel=1e-13)
    assert upper.linewidth == pytest.approx(pair.upper_linewidth, rel=1e-10)
    assert lower.linewidth == pytest.approx(pair.lower_linewidth, rel=1e-10)
    # sign convention: largest matter component positive
    assert upper.weights[0] == pytest.approx(c, abs=1e-12)
    assert upper.weights[1] == pytest.approx(s, abs=1e-12)
    assert lower.weights[0] == pytest.approx(-s, abs=1e-12)
    assert lower.weights[1] == pytest.approx(c, abs=1e-12)
    # equal bare linewidths: no dissipative cross-coupling, exactly
    assert lower.cross_damping == (0.0, 0.0) and upper.cross_damping == (0.0, 0.0)


def test_photon_matter_weights_orthonormal():
    rng = np.random.default_rng(88)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        matter = [
            pc.MatterMode(freq=TWO_PI * rng.uniform(9.5e9, 10.5e9),
                          coupling=TWO_PI * rng.uniform(1e6, 2e7),
                          linewidth=TWO_PI * rng.uniform(1e5, 2e6))
            for _ in range(m)
        ]
        modes = pc.photon_matter_diagonalize(TWO_PI * 1e10, matter, TWO_PI * 1e6)
        w = np.array([p.weights for p in modes])
        assert np.allclose(w @ w.T, np.eye(m + 1), atol=1e-10)
        freqs = [p.freq for p in modes]
        assert freqs == sorted(freqs)
        # linewidths are convex combinations of the bare ones
        bare = [TWO_PI * 1e6] + [mm.linewidth for mm in matter]
        for p in modes:
            assert min(bare) - 1e-6 <= p.linewidth <= max(bare) + 1e-6


def test_photon_matter_degenerate_raises():
    # a near-dark spectator mode sitting exactly on the upper polariton of
    # the resonant pair (omega_a + g) collides with it
    matter = [
        pc.MatterMode(freq=TWO_PI * 1.0e10, coupling=TWO_PI * 1e6, linewidth=TWO_PI * 1e6),
        pc.MatterMode(freq=TWO_PI * (1.0e10 + 1e6), coupling=TWO_PI * 1e-3,
                      linewidth=TWO_PI * 1e6),
    ]
    with pytest.raises(SolverError, match="degenerate"):
        pc.photon_matter_diagonalize(TWO_PI * 1.0e10, matter, TWO_PI * 1e6)


def test_photon_matter_rejects_bad_input():
    with pytest.raises(ValidationError):
        pc.photon_matter_diagonalize(TWO_PI * 1e10, [], TWO_PI * 1e6)
    with pytest.raises(ValidationError, match=r"matter_modes\[0\].coupling"):
        pc.photon_matter_diagonalize(
            TWO_PI * 1e10,
            [pc.MatterMode(freq=TWO_PI * 1e10, coupling=0.0, linewidth=TWO_PI * 1e6)],
            TWO_PI * 1e6,
        )
    with pytest.raises(ValidationError, match=r"matter_modes\[1\].linewidth"):
        pc.photon_matter_diagonalize(
            TWO_PI * 1e10,
            [pc.MatterMode(freq=TWO_PI * 1e10, coupling=TWO_PI * 1e6, linewidth=TWO_PI * 1e6),
             pc.MatterMode(freq=TWO_PI * 1.01e10, coupling=TWO_PI * 1e6, linewidth=-1.0)],
            TWO_PI * 1e6,
        )
    one_mode = [pc.MatterMode(freq=TWO_PI * 1e10, coupling=TWO_PI * 1e6, linewidth=TWO_PI * 1e6)]
    with pytest.raises(ValidationError, match="cavity_linewidth"):
        pc.photon_matter_diagonalize(TWO_PI * 1e10, one_mode, math.nan)
    with pytest.raises(ValidationError, match="cavity_freq"):
        pc.photon_matter_diagonalize(math.inf, one_mode, TWO_PI * 1e6)
    # an infinite coupling used to give all-NaN polaritons
    with pytest.raises(ValidationError, match=r"^matter_modes\[0\]\.coupling: must be finite"):
        pc.photon_matter_diagonalize(
            TWO_PI * 1e10, [dataclasses.replace(one_mode[0], coupling=math.inf)], TWO_PI * 1e6)


# ---------------------------------------------------------------------------
# the angle-tuned device is a two-node network


def test_network_reduction_is_bit_identical():
    setup = make_base_setup(magnon_linewidth=TWO_PI * 2.0e6)
    for theta in (0.3, 0.25 * math.pi, 1.1):
        for mode in ("approx", "selfconsistent"):
            model2 = setup.working_point(theta, mode=mode)[1]
            network = pair_network(setup, theta, mode)
            assert network.drift.tobytes() == model2.drift.tobytes()
            assert network.diffusion.tobytes() == model2.diffusion.tobytes()
            assert network.averages == model2.averages


def test_network_rejects_resonant_drive():
    """A resonant node, and every other bad input, raises naming its field."""
    pol = pc.NetworkPolariton(freq=TWO_PI * 1e10, linewidth=TWO_PI * 1e6, weight=0.7)
    drive = pc.NetworkDrive(drive_freq=TWO_PI * 9.9e9, rabi_freq=1e13, bath_temperature=0.01)
    mechs = make_mechs()
    swap = dataclasses.replace
    with pytest.raises(ValidationError, match="resonant"):
        pc.build_network([pol], mechs, swap(drive, drive_freq=TWO_PI * 1e10))

    cases = [  # (field path, polaritons, mechanics, drive, cross_damping)
        (r"drive\.rabi_freq", [pol], mechs, swap(drive, rabi_freq=math.nan), None),
        (r"drive\.rabi_freq", [pol], mechs, swap(drive, rabi_freq=-1.0), None),
        (r"drive\.bath_temperature", [pol], mechs, swap(drive, bath_temperature=-0.01), None),
        (r"drive\.bath_temperature", [pol], mechs, swap(drive, bath_temperature=math.nan), None),
        (r"polaritons\[0\]\.linewidth", [swap(pol, linewidth=-TWO_PI * 1e6)], mechs, drive, None),
        (r"polaritons\[1\]\.detuning", [pol, swap(pol, detuning=math.nan)], mechs, drive, None),
        (r"polaritons\[0\]\.weight", [swap(pol, weight=math.inf)], mechs, drive, None),
        (r"mechanics\[1\]\.damping", [pol], (mechs[0], swap(mechs[1], damping=0.0)), drive, None),
        # lower triangle only, a nonzero diagonal, a NaN, the wrong shape
        ("cross_damping", [pol, pol], mechs, drive, [[0.0, 0.0], [1e5, 0.0]]),
        ("cross_damping", [pol, pol], mechs, drive, [[1e5, 0.0], [0.0, 0.0]]),
        ("cross_damping", [pol, pol], mechs, drive, [[0.0, math.nan], [math.nan, 0.0]]),
        ("cross_damping", [pol, pol], mechs, drive, [[0.0]]),
    ]
    for mode in ("approx", "selfconsistent"):
        for field, pols, mech_modes, bad_drive, cross in cases:
            with pytest.raises(ValidationError, match=field):
                pc.build_network(pols, mech_modes, bad_drive, cross, mode=mode)
    with pytest.raises(ValidationError, match="mode"):
        pc.build_network([pol], mechs, drive, mode="exact")


def test_a_nodes_own_fault_is_reported_before_the_mode_or_the_resonance():
    pol = pc.NetworkPolariton(freq=TWO_PI * 1e10, linewidth=TWO_PI * 1e6, weight=0.7)
    drive = pc.NetworkDrive(drive_freq=TWO_PI * 9.9e9, rabi_freq=1e13, bath_temperature=0.01)
    bad = dataclasses.replace(pol, freq=math.nan)
    resonant = dataclasses.replace(pol, detuning=0.0)
    message = "polaritons[1].freq: must be finite and strictly positive, got nan"
    for nodes, mode in (([pol, bad], "exact"), ([resonant, bad], "approx")):
        with pytest.raises(ValidationError) as exc:
            pc.build_network(nodes, make_mechs(), drive, mode=mode)
        assert str(exc.value) == message
    # the pair's two nodes too, the lower one's frequency NaN
    with pytest.raises(ValidationError) as exc:
        pair_network(make_base_setup(), 0.7, "exact", lower_freq=math.nan)
    assert str(exc.value) == message


def test_network_rejects_derived_values_that_overflow():
    node = pc.NetworkPolariton(freq=TWO_PI * 1e10, linewidth=TWO_PI * 1e6, weight=1e300)
    drive = pc.NetworkDrive(drive_freq=TWO_PI * 9.9e9, rabi_freq=1e13, bath_temperature=0.01)
    mech = make_mechs()[0]
    # the checked inputs are finite, the coupling G w in the drift is not
    with pytest.raises(ValidationError, match="^drift: "):
        pc.build_network([node], [mech], drive)
    # |M|^2 of the selfconsistent averages overflows
    big = dataclasses.replace(node, weight=1e155)
    with pytest.raises(ValidationError, match="^averages: "):
        pc.build_network([big], [mech], drive, mode="selfconsistent")


# ---------------------------------------------------------------------------
# the linear model checks its matrices once, when built


def base_model():
    return make_base_setup().working_point(0.7)[1]


def bad_matrices():
    """(field, drift, diffusion, message) of each kind of invalid pair."""
    good = base_model()
    r, d = good.drift.copy(), good.diffusion.copy()
    cases = []
    for field, ok in (("drift", r), ("diffusion", d)):
        for bad in (math.nan, math.inf, -math.inf):
            broken = ok.copy()
            broken[1, 2] = bad
            cases.append((field, broken, "NaN or infinite"))
        cases.append((field, ok.astype(complex), "complex"))
        cases.append((field, ok[:, :-1], "square"))
        cases.append((field, np.zeros((0, 0)), "non-empty"))
        cases.append((field, ok[:-2, :-2], "matching shapes"))
        cases.append((field, [["a"]], "real numeric"))
    d_skew = d.copy()
    d_skew[0, 1] += 2e-12 * np.abs(d).max()
    cases.append(("diffusion", d_skew, "symmetric"))
    cases += [(field, ok != 0.0, "booleans") for field, ok in (("drift", r), ("diffusion", d))]
    return [(field, bad if field == "drift" else r, bad if field == "diffusion" else d, msg)
            for field, bad, msg in cases]


@pytest.mark.parametrize("field, drift, diffusion, message", bad_matrices())
def test_linear_model_rejects_invalid_matrices(field, drift, diffusion, message):
    model = base_model()
    with pytest.raises(ValidationError, match=field) as exc:
        pc.LinearModel(drift, diffusion, model.mode_layout, model.averages)
    assert message in str(exc.value)
    with pytest.raises(ValidationError, match=field):
        dataclasses.replace(model, drift=drift, diffusion=diffusion)


@pytest.mark.parametrize("size, layout", [
    (6, ("p1", "p2", "b1", "b2")),  # more names than modes: network_cooling ran off the end
    (8, ("p1", "p2", "b1")),  # fewer: the rates read a mechanical damping as a linewidth
    (8, ()),
    (8, None),
    (8, "p1b1"),  # four characters: network_cooling counted one mechanical mode, not two
    (8, b"p1b1"),
    (8, (1, 2, 3, 4)),  # not names: network_cooling raised a raw AttributeError
    (8, ("p1", "p2", "b1", b"b2")),
])
def test_linear_model_rejects_a_layout_that_does_not_fit_its_matrices(size, layout):
    model = base_model()
    drift, diffusion = model.drift[:size, :size].copy(), model.diffusion[:size, :size].copy()
    with pytest.raises(ValidationError, match="^mode_layout: "):
        pc.LinearModel(drift, diffusion, layout, model.averages)
    if size == len(model.drift):
        with pytest.raises(ValidationError, match="^mode_layout: "):
            dataclasses.replace(model, mode_layout=layout)


def test_linear_model_holds_its_layout_as_a_tuple():
    model = base_model()
    listed = dataclasses.replace(model, mode_layout=list(model.mode_layout))
    assert listed.mode_layout == ("p1", "p2", "b1", "b2")
    assert repr(pc.network_cooling(listed)) == repr(pc.network_cooling(model))


def test_linear_model_accepts_round_off_asymmetry():
    model = base_model()
    d = model.diffusion.copy()
    d[0, 1] += 0.5e-12 * np.abs(d).max()
    kept = pc.LinearModel(model.drift, d, model.mode_layout, model.averages)
    assert kept.diffusion.tobytes() == d.tobytes()


def test_linear_models_compare_by_identity():
    setup = make_base_setup()
    first, second = setup.working_point(0.7)[1], setup.working_point(0.7)[1]
    assert (first == second) is False
    assert (first == first) is True
    assert hash(first) == object.__hash__(first)
    assert len({first, second, first}) == 2


def test_linear_model_holds_read_only_copies():
    model = base_model()
    drift, diffusion = model.drift.copy(), model.diffusion.copy()
    rebuilt = pc.LinearModel(drift, diffusion, model.mode_layout, model.averages)
    for mine, held in ((drift, rebuilt.drift), (diffusion, rebuilt.diffusion)):
        assert held.tobytes() == mine.tobytes() and held.dtype == float
        assert not np.shares_memory(held, mine)
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 1.0
        mine[0, 0] = 1.0  # the caller's array stays writable
    ints = pc.LinearModel(-np.eye(2, dtype=int), np.eye(2, dtype=int), ("b1",), model.averages)
    assert ints.drift.dtype == float and not ints.drift.flags.writeable
