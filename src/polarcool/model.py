"""The physical inputs: constants, mechanical modes, thermal occupation, drive calibration.

SI units. Frequencies and rates are angular (rad/s), except the gyromagnetic
ratio, a linear frequency per tesla as it enters the Rabi-frequency
calibration. Linewidths are amplitude half-widths (a bare mode decays as e^{-kappa t}).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, check_real, check_type

TWO_PI = 2.0 * math.pi   # rad per cycle: Hz to rad/s
HBAR = 1.054571817e-34   # J s
KB = 1.380649e-23        # J / K

# YIG sphere defaults
SPIN_DENSITY = 4.22e27          # spins per m^3
GYROMAGNETIC_RATIO = 28e9       # Hz / T


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


def thermal_occupation(freq: float, temperature: float) -> float:
    """Bose-Einstein mean occupation of a mode at ``freq`` (rad/s) and ``temperature`` (K).

    Exact 0 at zero temperature. Uses expm1 so the small-argument regime
    (hbar w / kT << 1) loses no precision, and switches to the asymptotic
    exponential once expm1 would overflow. ``math.inf`` where kT / (hbar w)
    overflows, as where hbar w underflows to 0 (w below about 5e-290 rad/s).
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
    if x == 0.0:  # hbar w underflows: the limit a subnormal x already gives
        return math.inf
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
        """N = n (4/3) pi r^3 of the sphere, ``math.inf`` where it overflows."""
        r = 0.5 * self.sphere_diameter
        try:
            return self.spin_density * (4.0 / 3.0) * math.pi * r**3
        except OverflowError:  # float ** raises instead of giving inf
            return math.inf


def calibrate_drive(
    cal: DriveCalibration,
    field_amplitude: float | None = None,
    power: float | None = None,
) -> float:
    """Rabi frequency (rad/s) from a drive field amplitude (T) or power (W).

    Exactly one of ``field_amplitude`` and ``power`` must be given. Power
    input requires ``cal.reference_power`` and maps through
    B0 = B_ref sqrt(P / P_ref) before the field formula
    Omega = (sqrt(5)/4) gamma sqrt(N) B0. A ValidationError starts with the
    argument it names: ``cal`` for one that is not a DriveCalibration, ``power`` for a
    missing reference or a B0 that overflows, ``sphere_diameter`` for an N that overflows.
    """
    check_type("cal", cal, DriveCalibration)
    if (field_amplitude is None) == (power is None):
        raise ValidationError("calibrate_drive: give exactly one of field_amplitude, power")
    if field_amplitude is None:
        power = check_real("power", power, at_least=0.0)
        if cal.reference_power is None:
            raise ValidationError("power: needs a cal.reference_power calibration")
        p_ref, b_ref = cal.reference_power
        field_amplitude = b_ref * math.sqrt(power / p_ref)
        if field_amplitude == math.inf:
            raise ValidationError(f"power: the field B_ref sqrt(P / P_ref) overflows, got {power}")
    field_amplitude = check_real("field_amplitude", field_amplitude, at_least=0.0)
    spins = cal.spin_number
    if spins == math.inf:
        raise ValidationError(f"sphere_diameter: the spin number of the sphere overflows,"
                              f" got {cal.sphere_diameter}")
    return (math.sqrt(5.0) / 4.0) * cal.gyro_ratio * math.sqrt(spins) * field_amplitude
