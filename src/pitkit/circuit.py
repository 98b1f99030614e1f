"""Complex-impedance math for a passive resonant sensor coil inductively
coupled to a reader coil.

All functions accept a scalar frequency in Hz or a numpy array of
frequencies, and return a complex impedance (or complex array) in ohms.
Everything here is pure and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CoilParams:
    """One resonant coil: series L, loss R, and tuning capacitance C.

    The loss resistance is treated as frequency independent; skin and
    proximity effects are assumed folded into the measured value.
    """

    inductance: float
    resistance: float
    capacitance: float

    def __post_init__(self) -> None:
        # NaN fails every comparison below, so it would pass them all
        for name in ("inductance", "resistance", "capacitance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.inductance <= 0:
            raise ValueError(f"inductance must be > 0, got {self.inductance}")
        if self.resistance < 0:
            raise ValueError(f"resistance must be >= 0, got {self.resistance}")
        if self.capacitance <= 0:
            raise ValueError(f"capacitance must be > 0, got {self.capacitance}")

    @property
    def resonant_frequency(self) -> float:
        return resonant_frequency(self)

    @property
    def quality_factor(self) -> float:
        """Q = 2*pi*f0*L/R at resonance. Infinite for a lossless coil."""
        if self.resistance == 0:
            return math.inf
        return TWO_PI * self.resonant_frequency * self.inductance / self.resistance


@dataclass(frozen=True)
class CoupledPair:
    """Reader and sensor coils linked by a coupling coefficient k in [0, 1)."""

    reader: CoilParams
    sensor: CoilParams
    coupling: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.coupling < 1.0:
            raise ValueError(f"coupling must be in [0, 1), got {self.coupling}")

    @property
    def mutual_inductance(self) -> float:
        """M = k * sqrt(L_reader * L_sensor)."""
        return self.coupling * math.sqrt(
            self.reader.inductance * self.sensor.inductance
        )


def resonant_frequency(coil: CoilParams) -> float:
    """Series-resonant frequency 1 / (2*pi*sqrt(L*C)) in Hz."""
    return 1.0 / (TWO_PI * math.sqrt(coil.inductance * coil.capacitance))


def capacitance_for_resonance(inductance: float, frequency: float) -> float:
    """Tuning capacitance that puts a coil of given L at the given f0."""
    if not (math.isfinite(inductance) and inductance > 0):
        raise ValueError(f"inductance must be finite and > 0, got {inductance}")
    if not (math.isfinite(frequency) and frequency > 0):
        raise ValueError(f"frequency must be finite and > 0, got {frequency}")
    return 1.0 / ((TWO_PI * frequency) ** 2 * inductance)


def _check_frequency(f) -> None:
    if np.any(np.asarray(f) <= 0):
        raise ValueError("frequency must be > 0")


def sensor_impedance(coil: CoilParams, f):
    """Series impedance R + j*(w*L - 1/(w*C)) at frequency f (Hz).

    The imaginary part crosses zero exactly once on (0, inf), at the
    coil's resonant frequency, where the result reduces to R.
    """
    _check_frequency(f)
    w = TWO_PI * np.asarray(f, dtype=float)
    z = coil.resistance + 1j * (w * coil.inductance - 1.0 / (w * coil.capacitance))
    return complex(z) if np.isscalar(f) else z


def reflected_impedance(pair: CoupledPair, f):
    """Impedance change (w*M)^2 / Z_sensor reflected into the reader coil.

    Peaks in magnitude at the sensor's resonance, where Z_sensor collapses
    to its loss resistance. Scales with k^2; exactly zero at k = 0.
    """
    _check_frequency(f)
    if pair.coupling == 0.0:
        return 0j if np.isscalar(f) else np.zeros_like(np.asarray(f, float), complex)
    w = TWO_PI * np.asarray(f, dtype=float)
    z = (w * pair.mutual_inductance) ** 2 / sensor_impedance(pair.sensor, f)
    return complex(z) if np.isscalar(f) else z


def load_impedance(pair: CoupledPair, f):
    """Reader input impedance Z_reader + reflected_impedance at f (Hz)."""
    z = sensor_impedance(pair.reader, f)  # reader is itself a series RLC
    return z + reflected_impedance(pair, f)
