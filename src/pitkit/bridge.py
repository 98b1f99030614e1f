"""Balanced-bridge differential readout.

The bridge subtracts the current through a matched reference impedance
from the current through the reader coil, so only the reflected
impedance change produces output:

    V_out = -R_amp * (V_in / Z_load - V_in / Z_ref)

The reference is never perfectly matched in hardware; the residual
mismatch is modeled as a magnitude deficit proportional to
``mismatch_fraction``:  Z_ref = Z_reader - m * |Z_reader|.  This keeps
the static offset in phase with the resonance perturbation, so the
sensor always shows up as an upward peak in the dB trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Peak amplitude of a 1 mW sine into 50 ohm, the default drive level.
V_IN_1MW_50OHM = math.sqrt(2 * 1e-3 * 50.0)


@dataclass(frozen=True)
class BridgeConfig:
    amplifier_resistance: float = 100.0
    input_amplitude: float = V_IN_1MW_50OHM
    mismatch_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.amplifier_resistance <= 0:
            raise ValueError("amplifier_resistance must be > 0")
        if self.input_amplitude <= 0:
            raise ValueError("input_amplitude must be > 0")
        if not 0.0 <= self.mismatch_fraction <= 0.2:
            raise ValueError("mismatch_fraction must be in [0, 0.2]")


def reference_impedance_for(cfg: BridgeConfig, z_reader):
    """Effective reference impedance given the reader impedance at one
    frequency: the nominal match minus the configured magnitude deficit."""
    z = np.asarray(z_reader, dtype=complex)
    z_ref = z - cfg.mismatch_fraction * np.abs(z)
    return complex(z_ref) if np.isscalar(z_reader) or z_ref.ndim == 0 else z_ref


def bridge_output(cfg: BridgeConfig, z_load, z_reader):
    """Exact bridge output voltage for a given load impedance.

    ``z_reader`` sets the per-frequency reference arm
    (``reference_impedance_for``).  A perfectly balanced bridge (z_load
    equal to the reference) outputs exactly 0.
    """
    z_load = np.asarray(z_load, dtype=complex)
    if np.any(np.abs(z_load) == 0):
        raise ValueError("z_load must have nonzero magnitude")
    z_ref = np.asarray(reference_impedance_for(cfg, z_reader), dtype=complex)
    if np.any(np.abs(z_ref) == 0):
        raise ValueError("reference impedance must have nonzero magnitude")
    v = -cfg.amplifier_resistance * (
        cfg.input_amplitude / z_load - cfg.input_amplitude / z_ref
    )
    return complex(v) if v.ndim == 0 else v


def to_db_magnitude(v_out, v_in: float):
    """Transfer magnitude 20*log10(|v_out| / v_in) in dB.

    Zero output maps to -inf rather than NaN so downstream math stays
    well defined.
    """
    if v_in <= 0:
        raise ValueError("v_in must be > 0")
    mag = np.abs(np.asarray(v_out)) / v_in
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag)
    return float(db) if db.ndim == 0 else db
