"""System parameters, polariton diagonalization, thermal occupation, drive calibration.

Frequencies and rates are angular (rad/s). Linewidths are amplitude
half-widths (a bare mode decays as e^{-kappa t}).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import GYROMAGNETIC_RATIO, HBAR, KB, SPIN_DENSITY
from .errors import ValidationError


@dataclass(frozen=True)
class MechanicalMode:
    """One mechanical mode: frequency, damping half-width, bare dispersive coupling."""

    freq: float
    damping: float
    bare_coupling: float

    def validate(self, path: str = "mechanical_mode") -> None:
        if not 0 < self.freq < math.inf:
            raise ValidationError(
                f"{path}.freq: must be finite and strictly positive, got {self.freq}"
            )
        if not 0 < self.damping < math.inf:
            raise ValidationError(
                f"{path}.damping: must be finite and strictly positive, got {self.damping}"
            )
        if not 0 <= self.bare_coupling < math.inf:
            raise ValidationError(
                f"{path}.bare_coupling: must be finite and non-negative, got {self.bare_coupling}"
            )


@dataclass(frozen=True)
class SystemParams:
    """Full parameter set of the driven photon-magnon-mechanics system.

    ``drive_freq`` is the frequency of the coherent drive on the matter mode;
    ``rabi_freq`` its strength. ``mechanical_modes`` must have pairwise
    distinct frequencies, since the cooling scheme relies on spectrally
    separated sidebands.
    """

    cavity_freq: float
    magnon_freq: float
    photon_matter_coupling: float
    cavity_linewidth: float
    magnon_linewidth: float
    mechanical_modes: tuple[MechanicalMode, ...]
    drive_freq: float
    rabi_freq: float
    bath_temperature: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mechanical_modes", tuple(self.mechanical_modes))
        for name in ("cavity_freq", "magnon_freq", "photon_matter_coupling",
                     "cavity_linewidth", "magnon_linewidth", "drive_freq"):
            v = getattr(self, name)
            if not v > 0:
                raise ValidationError(f"{name}: must be strictly positive, got {v}")
        if self.rabi_freq < 0:
            raise ValidationError(f"rabi_freq: must be non-negative, got {self.rabi_freq}")
        if self.bath_temperature < 0:
            raise ValidationError(
                f"bath_temperature: must be non-negative, got {self.bath_temperature}"
            )
        if not self.mechanical_modes:
            raise ValidationError("mechanical_modes: must not be empty")
        for j, m in enumerate(self.mechanical_modes):
            m.validate(path=f"mechanical_modes[{j}]")
        freqs = [m.freq for m in self.mechanical_modes]
        if len(set(freqs)) != len(freqs):
            raise ValidationError("mechanical_modes: frequencies must be pairwise distinct")


@dataclass(frozen=True)
class PolaritonBasis:
    """Two-polariton normal-mode data of the coupled photon-magnon pair.

    The upper polariton is U = a cos(theta) + m sin(theta), the lower one
    L = -a sin(theta) + m cos(theta); theta in (0, pi/2) so every weight
    factor sin^2, cos^2 stays in [0, 1].
    """

    theta: float
    upper_freq: float
    lower_freq: float
    upper_linewidth: float
    lower_linewidth: float
    dissipative_coupling: float
    detuning_upper: float
    detuning_lower: float


def diagonalize_polaritons(params: SystemParams) -> PolaritonBasis:
    """Normal modes of the photon-magnon pair.

    Parameters
    ----------
    params : SystemParams
        Requires ``photon_matter_coupling > 0``; without coupling there is
        no polariton splitting and the basis is undefined.

    Returns
    -------
    PolaritonBasis
        Mixing angle, eigenfrequencies, transformed linewidths, the
        dissipative cross-coupling delta-kappa, and drive detunings.
    """
    g = params.photon_matter_coupling
    if not g > 0:
        raise ValidationError(f"photon_matter_coupling: must be strictly positive, got {g}")
    delta_am = params.cavity_freq - params.magnon_freq
    # atan2 keeps theta in (0, pi/2) for g > 0, both signs of delta_am
    theta = 0.5 * math.atan2(2.0 * g, delta_am)
    split = math.hypot(delta_am, 2.0 * g)
    mean = 0.5 * (params.cavity_freq + params.magnon_freq)
    upper = mean + 0.5 * split
    lower = mean - 0.5 * split
    s, c = math.sin(theta), math.cos(theta)
    kappa_u = params.cavity_linewidth * c * c + params.magnon_linewidth * s * s
    kappa_l = params.cavity_linewidth * s * s + params.magnon_linewidth * c * c
    dk = (params.magnon_linewidth - params.cavity_linewidth) * s * c
    # mean - drive is exact for nearby magnitudes; forming the eigenfrequency
    # first would round at the GHz scale and contaminate the MHz detunings
    base = mean - params.drive_freq
    return PolaritonBasis(
        theta=theta,
        upper_freq=upper,
        lower_freq=lower,
        upper_linewidth=kappa_u,
        lower_linewidth=kappa_l,
        dissipative_coupling=dk,
        detuning_upper=base + 0.5 * split,
        detuning_lower=base - 0.5 * split,
    )


def thermal_occupation(freq: float, temperature: float) -> float:
    """Bose-Einstein mean occupation of a mode at ``freq`` (rad/s) and ``temperature`` (K).

    Exact 0 at zero temperature. Uses expm1 so the small-argument regime
    (hbar w / kT << 1) loses no precision, and switches to the asymptotic
    exponential once expm1 would overflow.
    """
    if not freq > 0:
        raise ValidationError(f"freq: must be strictly positive, got {freq}")
    if not 0.0 <= temperature < math.inf:
        raise ValidationError(f"temperature: must be finite and non-negative, got {temperature}")
    kt = KB * temperature
    if kt == 0.0:  # zero, or a temperature so small that k_B T underflows
        return 0.0
    x = HBAR * freq / kt
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


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
        if not self.sphere_diameter > 0:
            raise ValidationError(
                f"sphere_diameter: must be strictly positive, got {self.sphere_diameter}"
            )
        if not self.spin_density > 0:
            raise ValidationError(f"spin_density: must be strictly positive, got {self.spin_density}")
        if not self.gyro_ratio > 0:
            raise ValidationError(f"gyro_ratio: must be strictly positive, got {self.gyro_ratio}")
        if self.reference_power is not None:
            p_ref, b_ref = self.reference_power
            if not (p_ref > 0 and b_ref > 0):
                raise ValidationError(
                    f"reference_power: both entries must be strictly positive, got {self.reference_power}"
                )

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
        if power < 0:
            raise ValidationError(f"power: must be non-negative, got {power}")
        if cal.reference_power is None:
            raise ValidationError("power input requires cal.reference_power")
        p_ref, b_ref = cal.reference_power
        field_amplitude = b_ref * math.sqrt(power / p_ref)
    if field_amplitude < 0:
        raise ValidationError(f"field_amplitude: must be non-negative, got {field_amplitude}")
    return (math.sqrt(5.0) / 4.0) * cal.gyro_ratio * math.sqrt(cal.spin_number) * field_amplitude
