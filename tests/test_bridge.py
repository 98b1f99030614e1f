"""Balanced-bridge readout tests.

The frozen output value was hand-computed from
V_out = -R_amp * V_in * (1/Z_load - 1/Z_ref) with R_amp = 100 ohm,
Z_ref = 55 ohm and V_in = sqrt(2 * 1 mW * 50 ohm).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitkit.bridge import (
    V_IN_1MW_50OHM,
    BridgeConfig,
    bridge_output,
    reference_impedance_for,
    to_db_magnitude,
)

V_IN = 0.31622776601683794  # sqrt(0.1): 1 mW source into 50 ohm
# A 55 ohm reader arm with no mismatch: the reference is 55 ohm exactly.
Z_REF = 55.0 + 0j


def test_input_amplitude_constant():
    assert V_IN_1MW_50OHM == pytest.approx(V_IN, rel=1e-15)
    assert BridgeConfig().input_amplitude == V_IN_1MW_50OHM


def test_balanced_bridge_outputs_exactly_zero():
    cfg = BridgeConfig(mismatch_fraction=0.0)
    assert bridge_output(cfg, 55.0 + 0j, Z_REF) == 0


def test_hand_computed_output():
    cfg = BridgeConfig(amplifier_resistance=100.0, mismatch_fraction=0.0)
    v = bridge_output(cfg, 55.085 + 0.02j, Z_REF)
    assert v == pytest.approx(0.0008872784327454309 + 0.00020843144091615626j, rel=1e-12)
    assert to_db_magnitude(v, cfg.input_amplitude) == pytest.approx(
        -50.805522957563234, rel=1e-12
    )


def test_output_is_linear_in_input_amplitude():
    lo = BridgeConfig(input_amplitude=0.1, mismatch_fraction=0.0)
    hi = BridgeConfig(input_amplitude=0.3, mismatch_fraction=0.0)
    z = 55.2 + 0.5j
    assert bridge_output(hi, z, Z_REF) == pytest.approx(
        3.0 * bridge_output(lo, z, Z_REF), rel=1e-12
    )


@given(
    dz_mag=st.floats(1e-6, 0.5445),  # up to 0.0099 * |Z_ref|
    dz_phase=st.floats(0.0, 2.0 * math.pi),
)
def test_linearization_within_one_percent(dz_mag, dz_phase):
    """The small-signal form R_amp * dZ / Z_ref^2 * V_in tracks the exact
    difference of reciprocals to 1% while |dZ| <= 0.0099 |Z_ref|.

    The exact relative error is |dZ| / |Z_ref + dZ|, at most
    |dZ| / (|Z_ref| - |dZ|).  At |dZ| = 0.01 |Z_ref| with dZ pointing
    against Z_ref that is 1/99, just over 1%; at 0.0099 |Z_ref| it is
    0.0099 / 0.9901, just under."""
    cfg = BridgeConfig(amplifier_resistance=100.0, mismatch_fraction=0.0)
    dz = dz_mag * complex(math.cos(dz_phase), math.sin(dz_phase))
    z_ref = Z_REF
    exact = bridge_output(cfg, z_ref + dz, Z_REF)
    linear = cfg.amplifier_resistance * cfg.input_amplitude * dz / z_ref**2
    assert abs(exact - linear) <= 0.01 * abs(linear)


def test_reference_mismatch_is_magnitude_deficit():
    cfg = BridgeConfig(mismatch_fraction=0.1)
    z = 40.0 + 30.0j  # |z| = 50
    assert reference_impedance_for(cfg, z) == pytest.approx(35.0 + 30.0j, rel=1e-12)


def test_zero_mismatch_returns_reader_impedance():
    cfg = BridgeConfig(mismatch_fraction=0.0)
    z = 40.0 + 30.0j
    assert reference_impedance_for(cfg, z) == z


def test_bridge_output_with_explicit_reader_impedance():
    cfg = BridgeConfig(amplifier_resistance=100.0, mismatch_fraction=0.1)
    z_reader = np.array([55.0 + 0j, 60.0 + 5.0j])
    z_load = z_reader + 0.05
    v = bridge_output(cfg, z_load, z_reader)
    z_ref = reference_impedance_for(cfg, z_reader)
    expected = -cfg.amplifier_resistance * cfg.input_amplitude * (1 / z_load - 1 / z_ref)
    assert v == pytest.approx(expected, rel=1e-12)


def test_db_of_zero_is_negative_infinity():
    assert to_db_magnitude(0.0, V_IN) == float("-inf")


def test_db_handles_arrays():
    v = np.array([V_IN, V_IN / 10.0])
    db = to_db_magnitude(v, V_IN)
    assert db[0] == pytest.approx(0.0, abs=1e-12)
    assert db[1] == pytest.approx(-20.0, rel=1e-12)


def test_mismatch_fraction_bounds():
    with pytest.raises(ValueError):
        BridgeConfig(mismatch_fraction=-0.01)
    with pytest.raises(ValueError):
        BridgeConfig(mismatch_fraction=0.25)


def test_rejects_nonpositive_amplifier_resistance():
    with pytest.raises(ValueError):
        BridgeConfig(amplifier_resistance=0.0)
