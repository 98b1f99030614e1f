"""Default constants for the reader/ring chain.

Experiments and the CLI share this one set of calibrated values, and
``synth.GeometryScenario`` and ``synth.DisturbanceModel`` take their
reference scene and noise defaults from it.  The sweep-grid and detector
defaults are the field defaults of ``SweepConfig`` and
``DetectorConfig``.
"""

from __future__ import annotations

from .bridge import V_IN_1MW_50OHM, BridgeConfig
from .circuit import CoilParams, capacitance_for_resonance

# Measurement noise: per-point dB RMS of the analyzer.
NOISE_SIGMA_DB = 0.002

# Reader (wristband) coil: 6 turns, tuned at 27 MHz, 55 ohm total series
# resistance including the series matching resistor.
READER_FREQUENCY_HZ = 27e6
READER_INDUCTANCE_H = 3.7e-6
READER_RESISTANCE_OHM = 55.0

# Bridge: amplifier factor 100 ohm, drive equivalent to 1 mW into 50 ohm.
# mismatch_fraction is the one free gain knob in the chain; 0.15 lands
# the default-scenario SNR at the measured anchor (~18 for the 8-turn
# ring at 13 cm with 0.002 dB noise).
R_AMP_OHM = 100.0
MISMATCH_FRACTION = 0.15
INPUT_AMPLITUDE_V = V_IN_1MW_50OHM

# Coupling geometry anchor: k = 0.001 at 13 cm, boresight.
K_REFERENCE = 1e-3
REFERENCE_DISTANCE_M = 0.13
# Bending scenarios use a closer-worn ring so 70 degrees stays readable.
K_REFERENCE_BENDING = 2.35e-3

# Ring coils (24 AWG wire, ~1.9 cm diameter).  L and R per turn count,
# plus the number of series chip capacitors used at ~29 MHz.
# Chip-capacitor ESR adds to the coil loss once per segment.
TURN_TABLE = {
    3: (0.34e-6, 0.89, 1),
    4: (0.56e-6, 1.1, 2),
    5: (0.85e-6, 1.5, 2),
    6: (1.2e-6, 1.8, 2),
    7: (1.4e-6, 2.0, 3),
    8: (1.8e-6, 2.6, 3),
    9: (2.1e-6, 3.4, 3),
}
CAPACITOR_ESR_OHM = 0.08


def reader_coil() -> CoilParams:
    """Wristband reader coil tuned to its default resonance."""
    return CoilParams(
        inductance=READER_INDUCTANCE_H,
        resistance=READER_RESISTANCE_OHM,
        capacitance=capacitance_for_resonance(
            READER_INDUCTANCE_H, READER_FREQUENCY_HZ
        ),
    )


def ring_coil(frequency: float, turns: int = 8) -> CoilParams:
    """Ring sensor coil with the given turn count, tuned to ``frequency``.
    Its loss resistance includes the ESR of every chip capacitor."""
    inductance, resistance, n_caps = TURN_TABLE[turns]
    return CoilParams(
        inductance=inductance,
        resistance=resistance + n_caps * CAPACITOR_ESR_OHM,
        capacitance=capacitance_for_resonance(inductance, frequency),
    )


def bridge_config() -> BridgeConfig:
    return BridgeConfig(
        amplifier_resistance=R_AMP_OHM,
        input_amplitude=INPUT_AMPLITUDE_V,
        mismatch_fraction=MISMATCH_FRACTION,
    )
