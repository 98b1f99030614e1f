"""Distributed-capacitance coil design.

Splitting a coil's tuning capacitance into N identical series chip
capacitors keeps each winding segment electrically short, letting a
high-inductance coil resonate in the tens-of-MHz range.  The equivalent
series capacitance of N identical capacitors C_seg is C_seg / N, so

    C_seg = N / ((2*pi*f0)^2 * L)

Segments are considered electrically short when they are below 1/20 of
the free-space wavelength, the usual lumped-element rule of thumb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .circuit import TWO_PI, capacitance_for_resonance

SPEED_OF_LIGHT = 299_792_458.0
WAVELENGTH_FRACTION = 20.0

# E12 preferred-number mantissas for optional capacitor rounding.
E12 = (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2)


class DesignError(ValueError):
    """A requested design violates a physical constraint."""


@dataclass(frozen=True)
class SegmentCheck:
    passed: bool
    segment_length: float
    length_limit: float

    @property
    def margin_ratio(self) -> float:
        """limit / segment_length; > 1 means the segment is short enough."""
        return self.length_limit / self.segment_length


@dataclass(frozen=True)
class DcaDesign:
    target_frequency: float
    inductance: float
    segment_count: int
    per_segment_capacitance: float
    equivalent_capacitance: float
    achieved_frequency: float
    frequency_error_fraction: float
    wire_length: Optional[float] = None
    max_segment_length: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "target_frequency_hz": self.target_frequency,
            "inductance_h": self.inductance,
            "segment_count": self.segment_count,
            "per_segment_capacitance_f": self.per_segment_capacitance,
            "equivalent_capacitance_f": self.equivalent_capacitance,
            "achieved_frequency_hz": self.achieved_frequency,
            "frequency_error_fraction": self.frequency_error_fraction,
            "wire_length_m": self.wire_length,
            "max_segment_length_m": self.max_segment_length,
        }


def round_to_e12(value: float) -> float:
    """Nearest E12 preferred value (log-nearest within the decade)."""
    if value <= 0:
        raise ValueError("value must be > 0")
    exponent = math.floor(math.log10(value))
    mantissa = value / 10**exponent
    candidates = [m * 10**exponent for m in E12]
    candidates.append(E12[0] * 10 ** (exponent + 1))
    candidates.append(E12[-1] * 10 ** (exponent - 1))
    return min(candidates, key=lambda c: abs(math.log(value / c)))


def _check_positive(name: str, value: float) -> None:
    # NaN fails every comparison, so finiteness is checked first
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def segment_length_check(
    wire_length: float, segment_count: int, frequency: float
) -> SegmentCheck:
    """Check that each winding segment stays below lambda/20 at frequency."""
    _check_positive("wire_length", wire_length)
    if segment_count < 1:
        raise ValueError("segment_count must be >= 1")
    _check_positive("frequency", frequency)
    segment_length = wire_length / segment_count
    limit = SPEED_OF_LIGHT / frequency / WAVELENGTH_FRACTION
    return SegmentCheck(segment_length < limit, segment_length, limit)


def design_dca(
    inductance: float,
    target_frequency: float,
    segment_count: int,
    wire_length: Optional[float] = None,
    round_e12: bool = False,
) -> DcaDesign:
    """Size N identical series capacitors so the coil resonates at f0.

    With ``round_e12`` the per-segment value snaps to the nearest E12
    standard capacitor and the resulting frequency error is reported;
    otherwise the design is exact and the error is ~0.
    """
    _check_positive("inductance", inductance)
    _check_positive("target_frequency", target_frequency)
    if segment_count < 1:
        raise ValueError("segment_count must be >= 1")

    c_eq = capacitance_for_resonance(inductance, target_frequency)
    per_segment = segment_count * c_eq
    if round_e12:
        per_segment = round_to_e12(per_segment)
        c_eq = per_segment / segment_count

    achieved = 1.0 / (TWO_PI * math.sqrt(inductance * c_eq))
    error = achieved / target_frequency - 1.0

    max_segment = None
    if wire_length is not None:
        check = segment_length_check(wire_length, segment_count, target_frequency)
        max_segment = check.length_limit
        if not check.passed:
            raise DesignError(
                f"segment length {check.segment_length:.3f} m exceeds the "
                f"lambda/{WAVELENGTH_FRACTION:.0f} limit of "
                f"{check.length_limit:.3f} m at "
                f"{target_frequency / 1e6:.2f} MHz; increase segment_count"
            )

    return DcaDesign(
        target_frequency=target_frequency,
        inductance=inductance,
        segment_count=segment_count,
        per_segment_capacitance=per_segment,
        equivalent_capacitance=c_eq,
        achieved_frequency=achieved,
        frequency_error_fraction=error,
        wire_length=wire_length,
        max_segment_length=max_segment,
    )
