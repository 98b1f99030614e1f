"""Series-RLC coil model and reflected-impedance tests.

Expected values were computed independently with the closed forms
f0 = 1/(2*pi*sqrt(LC)), Z = R + j(wL - 1/(wC)) and
dZ = (wM)^2 / Z_sensor with M = k*sqrt(L_r*L_s).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitkit.circuit import (
    CoilParams,
    CoupledPair,
    capacitance_for_resonance,
    load_impedance,
    reflected_impedance,
    resonant_frequency,
    sensor_impedance,
)

TWO_PI = 2.0 * math.pi


def make_coil(inductance, resistance, f0):
    return CoilParams(
        inductance=inductance,
        resistance=resistance,
        capacitance=capacitance_for_resonance(inductance, f0),
    )


class TestResonance:
    def test_capacitance_closed_form(self):
        # 1/((2*pi*26.93e6)^2 * 3.7e-6), computed by hand
        c = capacitance_for_resonance(3.7e-6, 26.93e6)
        assert c == pytest.approx(9.439866063313018e-12, rel=1e-12)

    def test_resonant_frequency_closed_form(self):
        coil = CoilParams(inductance=3.7e-6, resistance=55.0, capacitance=9.439866063313018e-12)
        assert resonant_frequency(coil) == pytest.approx(26.93e6, rel=1e-9)

    def test_property_matches_function(self):
        coil = make_coil(1.8e-6, 2.6, 29.0e6)
        assert coil.resonant_frequency == resonant_frequency(coil)

    @given(
        inductance=st.floats(1e-8, 1e-4),
        frequency=st.floats(1e6, 1e9),
    )
    def test_round_trip(self, inductance, frequency):
        c = capacitance_for_resonance(inductance, frequency)
        coil = CoilParams(inductance=inductance, resistance=1.0, capacitance=c)
        assert resonant_frequency(coil) == pytest.approx(frequency, rel=1e-9)

    def test_quality_factor(self):
        coil = make_coil(1.8e-6, 2.6, 29.0e6)
        expected = TWO_PI * 29.0e6 * 1.8e-6 / 2.6
        assert coil.quality_factor == pytest.approx(expected, rel=1e-9)


class TestSensorImpedance:
    def test_purely_resistive_at_resonance(self):
        coil = make_coil(1.8e-6, 2.6, 29.0e6)
        z = sensor_impedance(coil, 29.0e6)
        assert z.real == pytest.approx(2.6, rel=1e-12)
        assert abs(z.imag) < 1e-6

    def test_reactance_sign_below_and_above(self):
        coil = make_coil(1.8e-6, 2.6, 29.0e6)
        assert sensor_impedance(coil, 28.0e6).imag < 0  # capacitive below f0
        assert sensor_impedance(coil, 30.0e6).imag > 0  # inductive above f0

    def test_hand_computed_off_resonance(self):
        # 1.8 uH / 2.6 ohm tuned to 29 MHz, evaluated at 28.5 MHz
        coil = CoilParams(
            inductance=1.8e-6, resistance=2.6, capacitance=1.6732921066577117e-11
        )
        z = sensor_impedance(coil, 28.5e6)
        assert z == pytest.approx(2.6 - 11.408941741984108j, rel=1e-9)

    def test_array_input(self):
        coil = make_coil(1.8e-6, 2.6, 29.0e6)
        f = np.linspace(27e6, 30e6, 11)
        z = sensor_impedance(coil, f)
        assert z.shape == f.shape
        assert z[0] == sensor_impedance(coil, f[0])

    def test_rejects_nonpositive_frequency(self):
        coil = make_coil(1.8e-6, 2.6, 29.0e6)
        with pytest.raises(ValueError):
            sensor_impedance(coil, 0.0)
        with pytest.raises(ValueError):
            sensor_impedance(coil, -1e6)


class TestReflectedImpedance:
    def reader(self):
        return make_coil(3.7e-6, 55.0, 27.0e6)

    def sensor(self):
        return make_coil(1.8e-6, 2.6, 29.0e6)

    def test_magnitude_at_resonance(self):
        # (w*M)^2 / R_s with M = 1e-3*sqrt(3.7e-6*1.8e-6), w = 2*pi*29 MHz
        pair = CoupledPair(self.reader(), self.sensor(), 0.001)
        dz = reflected_impedance(pair, 29.0e6)
        assert abs(dz) == pytest.approx(0.08504653296425471, rel=1e-9)
        # at the sensor's own resonance the reflection is purely resistive
        assert abs(dz.imag) < 1e-9 * abs(dz)

    def test_zero_coupling_is_exactly_zero(self):
        pair = CoupledPair(self.reader(), self.sensor(), 0.0)
        f = np.linspace(27e6, 30e6, 51)
        assert np.all(reflected_impedance(pair, f) == 0)

    @given(k=st.floats(1e-5, 0.05), scale=st.floats(1.5, 10.0))
    def test_scales_with_coupling_squared(self, k, scale):
        base = CoupledPair(self.reader(), self.sensor(), k)
        if k * scale >= 1.0:
            return
        scaled = CoupledPair(self.reader(), self.sensor(), k * scale)
        dz0 = reflected_impedance(base, 28.3e6)
        dz1 = reflected_impedance(scaled, 28.3e6)
        assert abs(dz1) == pytest.approx(scale**2 * abs(dz0), rel=1e-9)

    def test_mutual_inductance(self):
        pair = CoupledPair(self.reader(), self.sensor(), 0.001)
        assert pair.mutual_inductance == pytest.approx(2.580697580112788e-09, rel=1e-9)

    def test_load_impedance_is_reader_plus_reflection(self):
        pair = CoupledPair(self.reader(), self.sensor(), 0.001)
        f = 28.7e6
        z = load_impedance(pair, f)
        expected = sensor_impedance(self.reader(), f) + reflected_impedance(pair, f)
        assert z == pytest.approx(expected, rel=1e-12)


class TestValidation:
    def test_rejects_negative_inductance(self):
        with pytest.raises(ValueError):
            CoilParams(inductance=-1e-6, resistance=1.0, capacitance=1e-12)

    def test_rejects_negative_resistance(self):
        with pytest.raises(ValueError):
            CoilParams(inductance=1e-6, resistance=-1.0, capacitance=1e-12)

    def test_rejects_zero_capacitance(self):
        with pytest.raises(ValueError):
            CoilParams(inductance=1e-6, resistance=1.0, capacitance=0.0)

    @pytest.mark.parametrize("field", ["inductance", "resistance", "capacitance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_field(self, field, value):
        """NaN passes every sign check, so it is rejected by name first."""
        params = {"inductance": 1e-6, "resistance": 1.0, "capacitance": 1e-12, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CoilParams(**params)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_capacitance_for_resonance_rejects_bad_frequency(self, value):
        with pytest.raises(ValueError, match="frequency must be finite and > 0"):
            capacitance_for_resonance(1e-6, value)
        with pytest.raises(ValueError, match="inductance must be finite and > 0"):
            capacitance_for_resonance(value, 29e6)

    def test_rejects_coupling_out_of_range(self):
        reader = make_coil(3.7e-6, 55.0, 27.0e6)
        sensor = make_coil(1.8e-6, 2.6, 29.0e6)
        with pytest.raises(ValueError):
            CoupledPair(reader, sensor, 1.0)
        with pytest.raises(ValueError):
            CoupledPair(reader, sensor, -0.1)
