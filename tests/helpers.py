"""Shared construction helpers and independent oracles for the test suite."""
import math

import numpy as np

import polarcool as pc

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


# ---------------------------------------------------------------------------
# independent classical-dynamics oracle, coded from the equations of motion
# rather than from the package's matrix builders


def classical_rhs(v, params, basis):
    """Full nonlinear classical equations in (Re, Im) coordinates."""
    s, c = math.sin(basis.theta), math.cos(basis.theta)
    u = v[0] + 1j * v[1]
    low = v[2] + 1j * v[3]
    bs = [v[4 + 2 * j] + 1j * v[5 + 2 * j] for j in range(len(params.mechanical_modes))]
    matter = s * u + c * low
    x = sum(2.0 * m.bare_coupling * b.real for m, b in zip(params.mechanical_modes, bs))
    du = -(1j * basis.detuning_upper + basis.upper_linewidth) * u \
        - basis.dissipative_coupling * low - 1j * s * x * matter + params.rabi_freq * s
    dl = -(1j * basis.detuning_lower + basis.lower_linewidth) * low \
        - basis.dissipative_coupling * u - 1j * c * x * matter + params.rabi_freq * c
    out = [du.real, du.imag, dl.real, dl.imag]
    for mech, b in zip(params.mechanical_modes, bs):
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


def shift_corrected_drift(drift, params, basis, avg):
    """Add back the static displacement detuning shift the model drops."""
    s, c = math.sin(basis.theta), math.cos(basis.theta)
    shift = sum(2.0 * m.bare_coupling * b.real
                for m, b in zip(params.mechanical_modes, avg.avg_mech))
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
