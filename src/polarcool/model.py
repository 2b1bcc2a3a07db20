"""Mechanical modes, the two-polariton normal modes, thermal occupation, drive calibration.

Frequencies and rates are angular (rad/s). Linewidths are amplitude
half-widths (a bare mode decays as e^{-kappa t}).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import GYROMAGNETIC_RATIO, HBAR, KB, SPIN_DENSITY
from .errors import ValidationError, check_real


@dataclass(frozen=True)
class MechanicalMode:
    """One mechanical mode: frequency, damping half-width, bare dispersive coupling."""

    freq: float
    damping: float
    bare_coupling: float

    def validate(self, path: str = "mechanical_mode") -> tuple[float, float, float]:
        """The fields as :func:`check_real` gives them, (freq, damping, bare_coupling),
        each checked in that order and named ``path.<field>``."""
        return (check_real(f"{path}.freq", self.freq, above=0.0),
                check_real(f"{path}.damping", self.damping, above=0.0),
                check_real(f"{path}.bare_coupling", self.bare_coupling, at_least=0.0))


def _float_modes(modes, path: str) -> tuple[MechanicalMode, ...]:
    """The modes with each field as :meth:`MechanicalMode.validate` gives it, a
    plain float, mode ``j`` checked as ``path[j]``: every value a working point
    derives from them is then a float too, whatever number type they came in."""
    return tuple(MechanicalMode(*m.validate(path=f"{path}[{j}]")) for j, m in enumerate(modes))


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


def thermal_occupation(freq: float, temperature: float) -> float:
    """Bose-Einstein mean occupation of a mode at ``freq`` (rad/s) and ``temperature`` (K).

    Exact 0 at zero temperature. Uses expm1 so the small-argument regime
    (hbar w / kT << 1) loses no precision, and switches to the asymptotic
    exponential once expm1 would overflow.
    """
    return _bose(check_real("freq", freq, above=0.0),
                 check_real("temperature", temperature, at_least=0.0))


def _bose(freq: float, temperature: float) -> float:
    """:func:`thermal_occupation` of a checked frequency and temperature."""
    kt = KB * temperature
    if kt == 0.0:  # zero, or a temperature so small that k_B T underflows
        return 0.0
    x = HBAR * freq / kt
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def _sum(values):
    """The builtin ``sum()`` added left to right from 0, whose bits do not depend on
    the Python version: from 3.12 on the builtin compensates a sum of floats."""
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class DriveCalibration:
    """Geometry and material data mapping drive field or power to a Rabi frequency.

    ``gyro_ratio`` is in Hz/T (28 GHz/T for YIG). ``reference_power`` is an
    optional (power_W, field_T) anchor enabling power input through the
    P proportional to B0^2 scaling.
    """

    sphere_diameter: float
    spin_density: float = SPIN_DENSITY
    gyro_ratio: float = GYROMAGNETIC_RATIO
    reference_power: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name in ("sphere_diameter", "spin_density", "gyro_ratio"):
            check_real(name, getattr(self, name), above=0.0)
        if self.reference_power is not None:
            try:
                p_ref, b_ref = self.reference_power
            except (TypeError, ValueError):
                raise ValidationError(f"reference_power: expected a (power, field) pair,"
                                      f" got {self.reference_power!r}") from None
            check_real("reference_power[0]", p_ref, above=0.0)
            check_real("reference_power[1]", b_ref, above=0.0)

    @property
    def spin_number(self) -> float:
        r = 0.5 * self.sphere_diameter
        return self.spin_density * (4.0 / 3.0) * math.pi * r**3


def calibrate_drive(
    cal: DriveCalibration,
    field_amplitude: float | None = None,
    power: float | None = None,
) -> float:
    """Rabi frequency (rad/s) from a drive field amplitude (T) or power (W).

    Exactly one of ``field_amplitude`` and ``power`` must be given. Power
    input requires ``cal.reference_power`` and maps through
    B0 = B_ref sqrt(P / P_ref) before the field formula
    Omega = (sqrt(5)/4) gamma sqrt(N) B0.
    """
    if (field_amplitude is None) == (power is None):
        raise ValidationError("calibrate_drive: give exactly one of field_amplitude, power")
    if field_amplitude is None:
        power = check_real("power", power, at_least=0.0)
        if cal.reference_power is None:
            raise ValidationError("power input requires cal.reference_power")
        p_ref, b_ref = cal.reference_power
        field_amplitude = b_ref * math.sqrt(power / p_ref)
    field_amplitude = check_real("field_amplitude", field_amplitude, at_least=0.0)
    return (math.sqrt(5.0) / 4.0) * cal.gyro_ratio * math.sqrt(cal.spin_number) * field_amplitude
