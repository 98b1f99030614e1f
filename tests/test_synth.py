"""Frequency-sweep synthesis tests: grid construction, the static
baseline, peak placement, disturbances, sessions and serialization."""

import ast
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitkit import defaults, synth
from pitkit.bridge import bridge_output, to_db_magnitude
from pitkit.circuit import CoilParams, CoupledPair, capacitance_for_resonance, load_impedance
from pitkit.detect import _fit, _vandermonde, detect_peaks
from pitkit.synth import (
    DataFormatError,
    DisturbanceModel,
    GeometryScenario,
    SweepConfig,
    coupling_from_geometry,
    scripted_session,
    session_from_json,
    session_to_json,
    sweep_from_csv,
    sweep_to_csv,
    synthesize_block,
    synthesize_sweep,
)
from pitkit.trace import Sweep, SweepBlock

QUIET = DisturbanceModel(noise_sigma=0.0)


def noisy_session(step=60e3, seed=4):
    """A 4 s press session with a press from 1 s to 2.6 s."""
    from pitkit.decode import PROFILE_PRESETS

    inductance, resistance, n_caps = defaults.TURN_TABLE[8]
    return scripted_session(
        [(1.0, "off"), (2.6, "on")],
        PROFILE_PRESETS["press"],
        SweepConfig(step=step, seed=seed),
        reader=defaults.reader_coil(),
        bridge=defaults.bridge_config(),
        sensor_inductance=inductance,
        sensor_resistance=resistance + n_caps * defaults.CAPACITOR_ESR_OHM,
        duration=4.0,
        disturb=DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB),
    )


def ring(f0, turns=8):
    inductance, resistance, _ = defaults.TURN_TABLE[turns]
    return CoilParams(
        inductance=inductance,
        resistance=resistance,
        capacitance=capacitance_for_resonance(inductance, f0),
    )


def default_pair(f0=29.0e6, coupling=1e-3):
    return CoupledPair(defaults.reader_coil(), ring(f0), coupling)


def fit_baseline(sweep, order):
    """The unmasked least-squares baseline of the detector."""
    return _fit(_vandermonde(sweep.frequencies, order), sweep.magnitudes_db[None])[0]


class TestSweepConfig:
    def test_default_grid(self):
        cfg = SweepConfig()
        f = cfg.frequencies()
        assert cfg.point_count == 51
        assert f[0] == 27e6
        assert f[-1] == 30e6
        assert np.all(np.diff(f) == pytest.approx(60e3))

    def test_rejects_non_integral_span(self):
        with pytest.raises(ValueError):
            SweepConfig(start_frequency=27e6, stop_frequency=30e6, step=70e3)

    @pytest.mark.parametrize("field", ["start_frequency", "stop_frequency", "step", "acquisition_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SweepConfig(**{field: value})

    def test_rejects_span_that_overflows(self):
        with pytest.raises(ValueError, match="finite and integral"):
            SweepConfig(start_frequency=-1e308, stop_frequency=1e308, step=1.0)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            SweepConfig(start_frequency=30e6, stop_frequency=27e6)


class TestSweepValidation:
    def test_rejects_decreasing_frequencies(self):
        with pytest.raises(ValueError):
            Sweep(np.array([2.0, 1.0, 3.0]), np.zeros(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Sweep(np.array([1.0, 2.0]), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Sweep(np.array([1.0, 2.0]), np.array([0.0, np.nan]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_magnitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Sweep(np.array([1.0, 2.0]), np.array([0.0, bad]))

    def test_arrays_are_read_only(self):
        sweep = Sweep(np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(ValueError):
            sweep.magnitudes_db[0] = 1.0


class TestStaticBaseline:
    def test_zero_coupling_zero_noise_is_pure_quadratic(self):
        """With no sensor the trace is exactly the static bridge offset,
        a quadratic in frequency."""
        cfg = SweepConfig()
        pair = default_pair(coupling=0.0)
        sweep = synthesize_sweep(cfg, pair, defaults.bridge_config(), QUIET)
        residual = sweep.magnitudes_db - fit_baseline(sweep, 2)
        assert np.max(np.abs(residual)) < 1e-9

    def test_zero_coupling_yields_no_peaks(self):
        cfg = SweepConfig()
        pair = default_pair(coupling=0.0)
        sweep = synthesize_sweep(cfg, pair, defaults.bridge_config(), QUIET)
        assert detect_peaks(sweep) == []

    def test_static_offset_grows_with_mismatch(self):
        cfg = SweepConfig()
        pair = default_pair(coupling=0.0)
        bridge = defaults.bridge_config()
        small = synthesize_sweep(cfg, pair, replace(bridge, mismatch_fraction=0.05), QUIET)
        large = synthesize_sweep(cfg, pair, replace(bridge, mismatch_fraction=0.15), QUIET)
        assert large.magnitudes_db.mean() > small.magnitudes_db.mean()


class TestPeakPlacement:
    def test_default_scenario_peak_height_and_location(self):
        """8-turn ring at 29 MHz, k = 1e-3: peak lands within one grid
        step of 29 MHz with height in the detectable 0.02-0.2 dB band."""
        cfg = SweepConfig()
        sweep = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), QUIET)
        peaks = detect_peaks(sweep)
        assert len(peaks) == 1
        assert abs(peaks[0].peak_frequency - 29.0e6) <= 60e3
        assert 0.02 <= peaks[0].peak_height <= 0.2

    @pytest.mark.parametrize("coupling", [1e-4, 3e-4, 1e-3, 3e-3])
    @pytest.mark.parametrize("f0", [27.6e6, 28.4e6, 29.3e6])
    def test_argmax_within_one_step_of_resonance(self, coupling, f0):
        cfg = SweepConfig()
        pair = default_pair(f0=f0, coupling=coupling)
        sweep = synthesize_sweep(cfg, pair, defaults.bridge_config(), QUIET)
        baseline = sweep.magnitudes_db - fit_baseline(sweep, 2)
        f_hat = sweep.frequencies[np.argmax(baseline)]
        assert abs(f_hat - f0) <= cfg.step

    def test_difference_from_reference_equals_reflected_signature(self):
        """The with-sensor minus without-sensor difference is independent
        of the static offset, by construction."""
        cfg = SweepConfig()
        bridge = defaults.bridge_config()
        with_sensor = synthesize_sweep(cfg, default_pair(), bridge, QUIET)
        without = synthesize_sweep(cfg, default_pair(coupling=0.0), bridge, QUIET)
        diff = with_sensor.magnitudes_db - without.magnitudes_db
        assert diff[np.argmax(diff)] > 0.02
        assert abs(diff[0]) < 2e-3 and abs(diff[-1]) < 2e-3


class TestDeterminismAndNoise:
    def test_same_seed_same_trace(self):
        cfg = SweepConfig(seed=42)
        a = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), t=1.2)
        b = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), t=1.2)
        assert np.array_equal(a.magnitudes_db, b.magnitudes_db)

    def test_different_timestamps_different_noise(self):
        cfg = SweepConfig(seed=42)
        a = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), t=0.0)
        b = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), t=0.2)
        assert not np.array_equal(a.magnitudes_db, b.magnitudes_db)

    def test_noise_sigma_zero_removes_randomness(self):
        cfg = SweepConfig(seed=1)
        a = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), QUIET, t=0.0)
        b = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), QUIET, t=0.4)
        assert np.array_equal(a.magnitudes_db, b.magnitudes_db)

    def test_noise_statistics(self):
        cfg = SweepConfig(seed=9)
        pair = default_pair(coupling=0.0)
        bridge = defaults.bridge_config()
        quiet = synthesize_sweep(cfg, pair, bridge, QUIET)
        noise = np.concatenate(
            [
                synthesize_sweep(cfg, pair, bridge, t=i / 5.0).magnitudes_db
                - quiet.magnitudes_db
                for i in range(40)
            ]
        )
        assert abs(noise.mean()) < 3 * 0.002 / np.sqrt(noise.size)
        assert noise.std() == pytest.approx(0.002, rel=0.1)

    def test_amplitude_drift_is_smooth_and_bounded(self):
        cfg = SweepConfig(seed=3)
        disturb = DisturbanceModel(noise_sigma=0.0, amplitude_drift=0.01)
        pair = default_pair(coupling=0.0)
        a = synthesize_sweep(cfg, pair, defaults.bridge_config(), disturb, t=0.0)
        b = synthesize_sweep(cfg, pair, defaults.bridge_config(), disturb, t=2.0)
        assert not np.array_equal(a.magnitudes_db, b.magnitudes_db)
        # drift stays a low-order polynomial: the detector never sees it
        assert detect_peaks(a) == [] and detect_peaks(b) == []

    def test_frequency_drift_moves_the_peak(self):
        cfg = SweepConfig(seed=3)
        disturb = DisturbanceModel(noise_sigma=0.0, frequency_drift=50e3)
        bridge = defaults.bridge_config()
        positions = set()
        for t in np.arange(0.0, 10.0, 1.0):
            sweep = synthesize_sweep(cfg, default_pair(), bridge, disturb, t=t)
            positions.add(round(detect_peaks(sweep)[0].peak_frequency, -3))
        assert len(positions) > 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("noise_sigma", math.nan, "noise_sigma must be finite"),
            ("noise_sigma", math.inf, "noise_sigma must be finite"),
            ("noise_sigma", -0.001, "noise_sigma must be finite and >= 0"),
            ("amplitude_drift", math.nan, "amplitude_drift must be finite"),
            ("frequency_drift", math.inf, "frequency_drift must be finite"),
            ("nearby_resonator_shift", math.nan, "nearby_resonator_shift must be finite"),
            ("nearby_resonator_shift", -math.inf, "nearby_resonator_shift must be finite"),
            ("metal_baseline", (0.5, math.nan, 0.8), "metal_baseline entries must be finite"),
            ("metal_baseline", (math.inf,), "metal_baseline entries must be finite"),
        ],
    )
    def test_rejects_non_finite_disturbance(self, field, value, message):
        """NaN fails every comparison, so each field is checked for
        finiteness, not only for sign."""
        with pytest.raises(ValueError, match=message):
            DisturbanceModel(**{field: value})


def numpy_state(seed, key):
    """NumPy's own PCG64 (state, inc) of a noise stream."""
    state = np.random.PCG64(np.random.SeedSequence([seed & 0xFFFFFFFF, key])).state["state"]
    return state["state"], state["inc"]


class TestNoiseSeeding:
    """``synth._pcg64_states`` against NumPy's ``SeedSequence`` -> ``PCG64``."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_states_equal_numpy_at_word_edges(self, seed):
        keys = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        assert synth._pcg64_states(seed, keys) == [numpy_state(seed, k) for k in keys]

    @given(
        seed=st.integers(0, 2**40),
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_states_equal_numpy(self, seed, keys):
        assert synth._pcg64_states(seed, keys) == [numpy_state(seed, k) for k in keys]

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Row counts of the ``_pcg64_states`` calls made while it is used."""
        calls = []
        original = synth._pcg64_states
        monkeypatch.setattr(
            synth,
            "_pcg64_states",
            lambda seed, keys: calls.append(len(keys)) or original(seed, keys),
        )
        return calls

    def test_noisy_block_uses_the_kernel(self, kernel_calls):
        """Every noisy block, one row included, is seeded by one kernel
        call and equals NumPy's own per-row seeding."""
        cfg, bridge = SweepConfig(seed=5), defaults.bridge_config()
        for rows in (1, 2, 7):
            kernel_calls.clear()
            times = [0.2 * i for i in range(rows)]
            block = synthesize_block(
                cfg, [default_pair()] * rows, bridge, DisturbanceModel(), times
            )
            assert kernel_calls == [rows]
            for row, t in zip(block, times):
                expected = reference_sweep(cfg, default_pair(), bridge, DisturbanceModel(), t)
                assert np.array_equal(row.magnitudes_db, expected)

    @pytest.mark.parametrize("step", [60e3, 30e3, 7.5e3], ids=["51pt", "101pt", "401pt"])
    def test_session_seeds_once(self, kernel_calls, step):
        from pitkit.decode import PROFILE_PRESETS

        inductance, resistance, _ = defaults.TURN_TABLE[8]
        block = scripted_session(
            [(1.0 + 4.0 * i, label) for i, label in enumerate(["off", "on"] * 2)],
            PROFILE_PRESETS["press"],
            SweepConfig(step=step, seed=7),
            reader=defaults.reader_coil(),
            bridge=defaults.bridge_config(),
            sensor_inductance=inductance,
            sensor_resistance=resistance,
            duration=18.0,
            disturb=DisturbanceModel(),
        )
        assert len(block) == 90
        assert kernel_calls == [90]

    @pytest.mark.parametrize("amplitude_drift", [0.0, 0.01], ids=["steady", "drift"])
    @pytest.mark.parametrize("step", [60e3, 7.5e3], ids=["51pt", "401pt"])
    @pytest.mark.parametrize(
        "disturb",
        [DisturbanceModel(), DisturbanceModel(noise_sigma=0.008, metal_baseline=(0.8, -0.6, 1.5))],
        ids=["stock", "metal"],
    )
    def test_noisy_block_is_quiet_block_plus_scaled_rows(self, disturb, step, amplitude_drift):
        """Noise is added last, as sigma times the standard-normal rows of
        ``noise_rows``, bit for bit."""
        disturb = replace(disturb, amplitude_drift=amplitude_drift)
        cfg, bridge = SweepConfig(step=step, seed=9), defaults.bridge_config()
        pairs = [default_pair()] * 60 + [default_pair(coupling=0.0)] * 40
        times = [i / cfg.acquisition_rate for i in range(100)]
        noisy = synthesize_block(cfg, pairs, bridge, disturb, times)
        quiet = synthesize_block(cfg, pairs, bridge, replace(disturb, noise_sigma=0.0), times)
        rows = synth.noise_rows(cfg.seed, times, cfg.point_count)
        expected = quiet.magnitudes_db + disturb.noise_sigma * rows
        assert expected.shape == (100, cfg.point_count)
        assert np.array_equal(noisy.magnitudes_db, expected)

    def test_row_zero_mismatch_raises(self, monkeypatch):
        original = synth._pcg64_states

        def off_by_one(seed, keys):
            (state, inc), *rest = original(seed, keys)
            return [(state + 1, inc), *rest]

        monkeypatch.setattr(synth, "_pcg64_states", off_by_one)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            synthesize_sweep(SweepConfig(), default_pair(), defaults.bridge_config())

    @pytest.mark.parametrize(
        "t", [math.inf, -math.inf, math.nan, -1.0, -6e-10, 1e11, 2.0**64 / 1e9]
    )
    def test_timestamp_outside_the_key_range_raises(self, t):
        with pytest.raises(ValueError, match=r"finite, >= 0 and below 2\*\*64 ns"):
            synthesize_sweep(SweepConfig(), default_pair(), defaults.bridge_config(), t=t)

    @pytest.mark.parametrize(
        "t, key", [(0.0, 0), (-4e-10, 0), (1.25, 1_250_000_000), (1.8e10, 18 * 10**18)]
    )
    def test_timestamp_key_is_rounded_nanoseconds(self, t, key):
        assert synth._noise_key(t) == key


class TestGeometry:
    def test_reference_anchor(self):
        scene = GeometryScenario(distance=0.13)
        assert coupling_from_geometry(scene) == pytest.approx(1e-3, rel=1e-12)

    def test_inverse_cube_falloff(self):
        near = coupling_from_geometry(GeometryScenario(distance=0.13))
        far = coupling_from_geometry(GeometryScenario(distance=0.26))
        assert far == pytest.approx(near / 8.0, rel=1e-9)

    def test_bend_angle_cosine(self):
        flat = coupling_from_geometry(GeometryScenario(bend_angle=0.0))
        bent = coupling_from_geometry(GeometryScenario(bend_angle=60.0))
        assert bent == pytest.approx(flat / 2.0, rel=1e-9)

    @given(distance=st.floats(0.001, 10.0), angle=st.floats(0.0, 90.0))
    def test_coupling_always_physical(self, distance, angle):
        scene = GeometryScenario(distance=distance, bend_angle=angle)
        k = coupling_from_geometry(scene)
        assert 0.0 <= k < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometryScenario(distance=-0.1)
        with pytest.raises(ValueError):
            GeometryScenario(bend_angle=120.0)


class TestScriptedSession:
    def session(self, events, duration, profile_name="slide", **kwargs):
        from pitkit.decode import PROFILE_PRESETS

        profile = PROFILE_PRESETS[profile_name]
        inductance, resistance, n_caps = defaults.TURN_TABLE[8]
        return scripted_session(
            events,
            profile,
            SweepConfig(seed=0),
            reader=defaults.reader_coil(),
            bridge=defaults.bridge_config(),
            sensor_inductance=inductance,
            sensor_resistance=resistance + n_caps * defaults.CAPACITOR_ESR_OHM,
            duration=duration,
            disturb=kwargs.pop("disturb", QUIET),
            **kwargs,
        )

    def test_empty_events_constant_idle_train(self):
        sweeps = self.session([], duration=2.0)
        assert len(sweeps) == 10
        for s in sweeps[1:]:
            assert np.array_equal(s.magnitudes_db, sweeps[0].magnitudes_db)

    def test_slide_walk_peak_ladder(self):
        """idle -> 2 mm left -> 4 mm left walks the peak 28.7 -> 28.4 ->
        28.1 MHz."""
        events = [(1.0, "left-2mm"), (2.0, "left-4mm")]
        sweeps = self.session(events, duration=3.0)
        expected = [28.7e6, 28.4e6, 28.1e6]
        for second, f0 in zip(range(3), expected):
            sweep = sweeps[second * 5 + 2]
            peak = detect_peaks(sweep)[0]
            assert abs(peak.peak_frequency - f0) <= 60e3

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown state"):
            self.session([(1.0, "no-such-state")], duration=2.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0, 0.09, math.nan, math.inf, -math.inf])
    def test_duration_without_frames_raises(self, duration):
        """At 5 frames/s, 0.09 s rounds to no frame; a session needs one."""
        with pytest.raises(ValueError, match="duration must be finite and give at least one frame"):
            self.session([], duration=duration)

    def test_one_frame_session(self):
        assert len(self.session([], duration=0.2)) == 1

    def test_scene_timeline_changes_coupling(self):
        near = GeometryScenario(distance=0.10)
        far = GeometryScenario(distance=0.16)
        sweeps = self.session(
            [], duration=4.0, scene_timeline=[(0.0, near), (2.0, far)]
        )
        h_near = detect_peaks(sweeps[2])[0].peak_height
        peaks_far = detect_peaks(sweeps[-1])
        h_far = peaks_far[0].peak_height if peaks_far else 0.0
        assert h_near > h_far

    def test_timestamps_follow_acquisition_rate(self):
        sweeps = self.session([], duration=2.0)
        times = [s.timestamp for s in sweeps]
        assert times == pytest.approx(np.arange(10) / 5.0)


class TestSerialization:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        cfg = SweepConfig(seed=5)
        sweep = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), t=0.4)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(sweep, path)
        back = sweep_from_csv(path, timestamp=0.4)
        assert np.array_equal(back.frequencies, sweep.frequencies)
        assert np.array_equal(back.magnitudes_db, sweep.magnitudes_db)

    def test_csv_header(self, tmp_path):
        sweep = Sweep(np.array([1.0, 2.0]), np.array([-55.0, -54.0]))
        path = tmp_path / "s.csv"
        sweep_to_csv(sweep, path)
        assert path.read_text().splitlines()[0] == "frequency_hz,magnitude_db"

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,mag\n1.0,2.0\n")
        with pytest.raises(DataFormatError):
            sweep_from_csv(path)

    def test_bad_field_count_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_hz,magnitude_db\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError):
            sweep_from_csv(path)

    def test_session_json_round_trip(self, tmp_path):
        cfg = SweepConfig(seed=2)
        bridge = defaults.bridge_config()
        sweeps = [
            synthesize_sweep(cfg, default_pair(), bridge, t=i / 5.0) for i in range(4)
        ]
        path = tmp_path / "session.json"
        session_to_json(sweeps, path)
        back = session_from_json(path)
        assert len(back) == 4
        for a, b in zip(sweeps, back):
            assert a.timestamp == b.timestamp
            assert np.array_equal(a.magnitudes_db, b.magnitudes_db)

    def test_session_json_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a session"}\n')
        with pytest.raises(DataFormatError):
            session_from_json(path)

    def test_csv_rejects_infinite_magnitude(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("frequency_hz,magnitude_db\n1.0,-55.0\n2.0,inf\n")
        with pytest.raises(DataFormatError, match="finite"):
            sweep_from_csv(path)

    @pytest.mark.parametrize(
        "timestamps",
        [[0.0, float("nan")], [-0.2, 0.0], [0.4, 0.2], [0.0, float("inf")]],
        ids=["nan", "negative", "decreasing", "infinite"],
    )
    def test_session_json_rejects_bad_timestamps(self, tmp_path, timestamps):
        path = tmp_path / "bad.json"
        records = [
            {"timestamp_s": t, "frequencies_hz": [1.0, 2.0], "magnitudes_db": [0.0, 0.0]}
            for t in timestamps
        ]
        # json.dumps writes NaN and Infinity, which json.load reads back
        path.write_text(json.dumps(records))
        with pytest.raises(DataFormatError, match="timestamp_s"):
            session_from_json(path)

    def test_session_json_accepts_repeated_timestamps(self, tmp_path):
        path = tmp_path / "same.json"
        records = [
            {"timestamp_s": 0.2, "frequencies_hz": [1.0, 2.0], "magnitudes_db": [0.0, 0.0]}
        ] * 2
        path.write_text(json.dumps(records))
        assert [s.timestamp for s in session_from_json(path)] == [0.2, 0.2]

    def test_columnar_round_trip_bit_exact(self, tmp_path):
        block = noisy_session()
        path = tmp_path / "session.json"
        session_to_json(block, path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["frequencies_hz", "magnitudes_db", "timestamps_s"]
        assert len(doc["frequencies_hz"]) == 51 and len(doc["magnitudes_db"]) == len(block)
        back = session_from_json(path)
        assert isinstance(back, SweepBlock)
        for name in ("frequencies", "magnitudes_db", "timestamps"):
            assert getattr(back, name).tobytes() == getattr(block, name).tobytes()

    def test_columnar_empty_session(self, tmp_path):
        block = noisy_session()[:0]
        path = tmp_path / "empty.json"
        session_to_json(block, path)
        back = session_from_json(path)
        assert len(back) == 0 and np.array_equal(back.frequencies, block.frequencies)

    @pytest.mark.parametrize("key", ["frequencies_hz", "timestamps_s", "magnitudes_db"])
    @pytest.mark.parametrize("kind, convert", [
        ("strings", lambda v: np.asarray(v).astype(str).tolist()),
        ("booleans", lambda v: (np.asarray(v) != 0).tolist()),
    ], ids=["strings", "booleans"])
    def test_columnar_rejects_columns_that_are_not_numbers(self, tmp_path, key, kind, convert):
        """NumPy converts "0.01" and true to floats; a column of them must
        not decode as numbers."""
        doc = {"frequencies_hz": [0.5, 1.0], "timestamps_s": [0.0, 0.2],
               "magnitudes_db": [[0.01, 0.02], [0.03, 0.04]]}
        doc[key] = convert(doc[key])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=f"{key}: must hold only numbers, found {kind}"):
            session_from_json(path)

    @pytest.mark.parametrize("record", [
        {"timestamp_s": "0.2", "frequencies_hz": [1.0, 2.0], "magnitudes_db": [0.0, 0.0]},
        {"timestamp_s": True, "frequencies_hz": [1.0, 2.0], "magnitudes_db": [0.0, 0.0]},
        {"timestamp_s": [0.2], "frequencies_hz": [1.0, 2.0], "magnitudes_db": [0.0, 0.0]},
        {"timestamp_s": 0.2, "frequencies_hz": ["1.0", "2.0"], "magnitudes_db": [0.0, 0.0]},
        {"timestamp_s": 0.2, "frequencies_hz": [1.0, 2.0], "magnitudes_db": [None, 0.0]},
    ], ids=["string-time", "bool-time", "list-time", "string-grid", "null-magnitude"])
    def test_legacy_records_reject_values_that_are_not_numbers(self, tmp_path, record):
        good = {"timestamp_s": 0.0, "frequencies_hz": [1.0, 2.0], "magnitudes_db": [0.0, 0.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([good, record]))
        with pytest.raises(DataFormatError, match="record 1: "):
            session_from_json(path)

    def test_legacy_records_read_as_one_block(self, tmp_path):
        """Array-of-records files, with inline points or sweep_file CSVs,
        read to the block the columnar file holds, and decode to the
        same events."""
        from pitkit.decode import PROFILE_PRESETS, decode_stream

        block = noisy_session()
        inline = [
            {
                "timestamp_s": s.timestamp,
                "frequencies_hz": s.frequencies.tolist(),
                "magnitudes_db": s.magnitudes_db.tolist(),
            }
            for s in block
        ]
        (tmp_path / "csv").mkdir()
        files = []
        for i, s in enumerate(block):
            sweep_to_csv(s, tmp_path / "csv" / f"{i}.csv")
            files.append({"timestamp_s": s.timestamp, "sweep_file": f"csv/{i}.csv"})
        press = PROFILE_PRESETS["press"]
        expected = decode_stream(block, press)
        assert [e.event for e in expected] == ["press-down", "press-up"]
        for name, records in (("inline.json", inline), ("files.json", files)):
            path = tmp_path / name
            path.write_text(json.dumps(records))
            back = session_from_json(path)
            assert isinstance(back, SweepBlock)
            for attr in ("frequencies", "magnitudes_db", "timestamps"):
                assert getattr(back, attr).tobytes() == getattr(block, attr).tobytes()
            assert decode_stream(back, press) == expected

    @pytest.mark.parametrize("ref", [5, None, ["a.csv"]])
    def test_legacy_sweep_file_must_be_a_path(self, tmp_path, ref):
        path = tmp_path / "bad-ref.json"
        path.write_text(json.dumps([{"timestamp_s": 0.0, "sweep_file": ref}]))
        with pytest.raises(DataFormatError, match="record 0: sweep_file"):
            session_from_json(path)

    def test_legacy_grid_change_is_rejected(self, tmp_path):
        records = [
            {"timestamp_s": 0.0, "frequencies_hz": [1.0, 2.0], "magnitudes_db": [0.0, 0.0]},
            {"timestamp_s": 0.2, "frequencies_hz": [1.0, 3.0], "magnitudes_db": [0.0, 0.0]},
        ]
        path = tmp_path / "two-grids.json"
        path.write_text(json.dumps(records))
        with pytest.raises(DataFormatError, match="record 1: .*one grid"):
            session_from_json(path)


class TestGridMemo:
    """Grid-only terms and drift phases are computed once and shared."""

    def test_memoised_sweeps_bit_identical(self):
        """A sweep on a warm cache equals one on a cold cache."""
        cfg = SweepConfig(step=30e3, seed=4)
        pair = default_pair(28.4e6)
        bridge = defaults.bridge_config()
        disturb = DisturbanceModel(amplitude_drift=0.01, frequency_drift=2e3)
        warm = synthesize_sweep(cfg, pair, bridge, disturb, t=1.2)
        synth._grid_terms.cache_clear()
        synth._drift_phases.cache_clear()
        cold = synthesize_sweep(cfg, pair, bridge, disturb, t=1.2)
        assert np.array_equal(warm.magnitudes_db, cold.magnitudes_db)
        assert np.array_equal(warm.frequencies, cold.frequencies)

    def test_cached_arrays_are_read_only(self):
        cfg = SweepConfig()
        reader = defaults.reader_coil()
        bridge = defaults.bridge_config()
        synthesize_sweep(cfg, CoupledPair(reader, ring(29e6), 1e-3), bridge)
        terms = synth._grid_terms(
            cfg.start_frequency, cfg.stop_frequency, cfg.step, reader, bridge
        )
        for array in terms + (synth._drift_phases(cfg.seed),):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_grid_shared_between_sweeps(self):
        """Sweeps on one grid share one read-only frequency array."""
        cfg = SweepConfig(seed=1)
        a = synthesize_sweep(cfg, default_pair(), defaults.bridge_config(), t=0.0)
        b = synthesize_sweep(cfg, default_pair(28e6), defaults.bridge_config(), t=0.2)
        assert a.frequencies is b.frequencies
        assert np.array_equal(a.frequencies, cfg.frequencies())


def reference_sweep(cfg, pair, bridge, disturb, t):
    """Per-frame reference synthesis: circuit, bridge and every
    disturbance evaluated for one sweep alone, adding the terms in the
    order the block path must reproduce."""
    f, x, z_reader, p_unloaded, offset = synth._grid_terms(
        cfg.start_frequency, cfg.stop_frequency, cfg.step, pair.reader, bridge
    )
    phases = synth._drift_phases(cfg.seed)
    f0_shift = disturb.nearby_resonator_shift
    if disturb.frequency_drift > 0.0:
        f0_shift += (
            disturb.frequency_drift
            * synth.DRIFT_PERIOD_S
            / (2.0 * math.pi)
            * math.sin(2.0 * math.pi * t / synth.DRIFT_PERIOD_S + phases[3])
        )
    pair_t = CoupledPair(pair.reader, synth._shifted_sensor(pair.sensor, f0_shift), pair.coupling)
    z_load = load_impedance(pair_t, f)
    p_loaded = to_db_magnitude(bridge_output(bridge, z_load, z_reader), bridge.input_amplitude)
    p = offset + (p_loaded - p_unloaded)
    if disturb.metal_baseline is not None:
        p = p + np.polynomial.polynomial.polyval(x, np.asarray(disturb.metal_baseline, float))
    if disturb.amplitude_drift > 0.0:
        amp = disturb.amplitude_drift * synth.DRIFT_PERIOD_S / (2.0 * math.pi)
        coeffs = amp * np.sin(2.0 * math.pi * t / synth.DRIFT_PERIOD_S + phases[:3])
        p = p + np.polynomial.polynomial.polyval(x, coeffs)
    if disturb.noise_sigma > 0.0:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, round(t * 1e9)])
        )
        p = p + rng.normal(0.0, disturb.noise_sigma, size=len(f))
    return p


PAIR_POOL = [
    default_pair(29.0e6, 1e-3),
    default_pair(27.6e6, 2e-3),
    default_pair(29.0e6, 0.0),
    CoupledPair(defaults.reader_coil(), ring(28.4e6, turns=3), 5e-4),
]


@st.composite
def blocks(draw):
    points = draw(st.integers(10, 401))
    step = draw(st.sampled_from([7.5e3, 30e3, 60e3]))
    cfg = SweepConfig(27e6, 27e6 + step * (points - 1), step, seed=draw(st.integers(0, 2**32 - 1)))
    disturb = DisturbanceModel(
        noise_sigma=draw(st.sampled_from([0.0, 0.002, 0.01])),
        amplitude_drift=draw(st.sampled_from([0.0, 0.01])),
        frequency_drift=draw(st.sampled_from([0.0, 2e3, 50e3])),
        metal_baseline=draw(st.sampled_from([None, (0.5, -0.3, 0.8), (1.0, 0.5, 1.2, -0.2)])),
        nearby_resonator_shift=draw(st.sampled_from([0.0, 400e3, -150e3])),
    )
    rows = draw(st.sampled_from([0, 1, 2, 7, 100, 130]))
    # runs of repeated pairs, as in a session, mixed with distinct ones
    pairs = []
    while len(pairs) < rows:
        pairs += [PAIR_POOL[draw(st.integers(0, len(PAIR_POOL) - 1))]] * draw(st.integers(1, 40))
    pairs = pairs[:rows]
    start = draw(st.floats(0.0, 100.0))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.2, 0.05, 1.3]), min_size=rows, max_size=rows))
    times = start + np.cumsum(gaps)
    return cfg, pairs, disturb, [float(t) for t in times]


class TestSynthesizeBlock:
    @settings(max_examples=60, deadline=None)
    @given(blocks())
    def test_rows_bit_identical_to_per_frame_synthesis(self, case):
        cfg, pairs, disturb, times = case
        bridge = defaults.bridge_config()
        block = synthesize_block(cfg, pairs, bridge, disturb, times)
        assert block.magnitudes_db.shape == (len(pairs), cfg.point_count)
        assert list(block.timestamps) == times
        for row, pair, t in zip(block, pairs, times):
            assert np.array_equal(row.magnitudes_db, reference_sweep(cfg, pair, bridge, disturb, t))
            one = synthesize_sweep(cfg, pair, bridge, disturb, t)
            assert np.array_equal(row.magnitudes_db, one.magnitudes_db)
            assert row.timestamp == t and type(row.timestamp) is float
            assert row.frequencies is block.frequencies

    def test_rows_are_read_only_views(self):
        block = synthesize_block(
            SweepConfig(), [default_pair()] * 3, defaults.bridge_config(), QUIET, [0.0, 0.2, 0.4]
        )
        for row in block:
            assert not row.magnitudes_db.flags.writeable
            assert np.shares_memory(row.magnitudes_db, block.magnitudes_db)

    def test_one_timestamp_per_pair(self):
        pairs = [default_pair()] * 2
        with pytest.raises(ValueError, match="timestamps"):
            synthesize_block(SweepConfig(), pairs, defaults.bridge_config(), QUIET, [0.0])

    def test_session_equals_per_frame_synthesis_across_blocks(self):
        """A 401-point session spans several blocks of 10 rows; every
        frame equals its per-frame synthesis."""
        from pitkit.decode import PROFILE_PRESETS

        profile = PROFILE_PRESETS["slide"]
        cfg = SweepConfig(step=7.5e3, seed=3)
        inductance, resistance, _ = defaults.TURN_TABLE[8]
        reader, bridge = defaults.reader_coil(), defaults.bridge_config()
        events = [(0.6, "left-2mm"), (2.2, "idle"), (3.0, "right-2mm")]
        sweeps = scripted_session(
            events, profile, cfg, reader=reader, bridge=bridge,
            sensor_inductance=inductance, sensor_resistance=resistance, duration=5.0,
        )
        assert len(sweeps) == 25
        labels = ["idle"] * 3 + ["left-2mm"] * 8 + ["idle"] * 4 + ["right-2mm"] * 10
        for i, (sweep, label) in enumerate(zip(sweeps, labels)):
            capacitance = capacitance_for_resonance(inductance, profile.frequency_of(label))
            pair = CoupledPair(reader, CoilParams(inductance, resistance, capacitance), 1e-3)
            expected = reference_sweep(cfg, pair, bridge, DisturbanceModel(), i / 5.0)
            assert np.array_equal(sweep.magnitudes_db, expected)
            assert sweep.timestamp == i / 5.0


    @pytest.mark.parametrize("step", [60e3, 30e3, 7.5e3], ids=["51pt", "101pt", "401pt"])
    @pytest.mark.parametrize("name", ["press", "slide", "joystick", "scroll"])
    def test_session_rows_equal_per_chunk_blocks(self, name, step):
        """The one session block holds, row for row and bit for bit, what
        synthesize_block gives for each chunk of at most BLOCK_POINTS
        points, under noise and both drifts."""
        from pitkit.decode import PROFILE_PRESETS
        from pitkit.detect import BLOCK_POINTS

        profile = PROFILE_PRESETS[name]
        cfg = SweepConfig(step=step, seed=6)
        inductance, resistance, _ = defaults.TURN_TABLE[8]
        reader, bridge = defaults.reader_coil(), defaults.bridge_config()
        disturb = DisturbanceModel(noise_sigma=0.002, amplitude_drift=0.01, frequency_drift=2e3)
        labels = [s.label for s in profile.states]
        events = [(1.0 + 2.0 * i, label) for i, label in enumerate(labels[1:] + labels[:1])]
        duration = 18.0  # 90 frames: more than one chunk on every grid
        block = scripted_session(
            events, profile, cfg, reader=reader, bridge=bridge,
            sensor_inductance=inductance, sensor_resistance=resistance,
            duration=duration, disturb=disturb,
        )
        times = [i / cfg.acquisition_rate for i in range(int(round(duration * cfg.acquisition_rate)))]
        pairs = []
        for t in times:
            label = ([profile.states[0].label] + [lb for te, lb in events if te <= t])[-1]
            capacitance = capacitance_for_resonance(inductance, profile.frequency_of(label))
            pairs.append(CoupledPair(reader, CoilParams(inductance, resistance, capacitance), 1e-3))
        rows = BLOCK_POINTS // cfg.point_count
        assert len(times) > rows
        reference = np.concatenate([
            synthesize_block(cfg, pairs[i : i + rows], bridge, disturb, times[i : i + rows]).magnitudes_db
            for i in range(0, len(times), rows)
        ])
        assert block.magnitudes_db.tobytes() == reference.tobytes()
        assert block.timestamps.tolist() == times


GRID = np.linspace(27e6, 30e6, 51)


class TestSweepBlockValidation:
    def block(self, magnitudes=None, frequencies=GRID, timestamps=(0.0, 0.2)):
        if magnitudes is None:
            magnitudes = np.zeros((len(timestamps), len(frequencies)))
        return SweepBlock(frequencies, magnitudes, timestamps)

    @pytest.mark.parametrize("shape", [(2,), (2, 50), (2, 51, 1)])
    def test_rejects_wrong_magnitude_shape(self, shape):
        with pytest.raises(ValueError, match="magnitudes"):
            self.block(np.zeros(shape))

    def test_rejects_wrong_timestamp_count(self):
        with pytest.raises(ValueError, match="timestamps"):
            self.block(np.zeros((3, 51)))

    def test_rejects_2d_grid(self):
        with pytest.raises(ValueError):
            self.block(np.zeros((2, 51)), frequencies=np.zeros((1, 51)))

    @pytest.mark.parametrize(
        "grid", [GRID[::-1], np.r_[GRID[:10], GRID[9:49]]], ids=["reversed", "repeated"]
    )
    def test_rejects_grid_that_does_not_increase(self, grid):
        with pytest.raises(ValueError, match="increasing"):
            self.block(frequencies=grid)

    def test_rejects_non_finite_grid(self):
        with pytest.raises(ValueError, match="finite"):
            self.block(frequencies=np.r_[GRID[:-1], np.inf])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_magnitudes(self, bad):
        magnitudes = np.zeros((2, 51))
        magnitudes[1, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            self.block(magnitudes)

    @pytest.mark.parametrize(
        "times", [(0.4, 0.2), (0.0, np.nan), (0.0, np.inf)], ids=["decreasing", "nan", "inf"]
    )
    def test_rejects_bad_timestamps(self, times):
        with pytest.raises(ValueError, match="timestamps"):
            self.block(timestamps=times)

    def test_accepts_equal_timestamps_and_no_rows(self):
        assert len(self.block(timestamps=(0.2, 0.2))) == 2
        empty = self.block(timestamps=())
        assert len(empty) == 0 and list(empty) == []

    def test_arrays_are_read_only(self):
        block = self.block()
        for array in (block.frequencies, block.magnitudes_db, block.timestamps):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestSweepBlockIndexing:
    def block(self):
        return SweepBlock(GRID, np.arange(5 * 51, dtype=float).reshape(5, 51), [0.0, 0.2, 0.2, 0.6, 0.8])

    def test_int_index_is_read_only_row_view(self):
        block = self.block()
        for i in (0, 3, -1, np.int64(2)):
            row = block[i]
            assert type(row) is Sweep
            assert row.frequencies is block.frequencies
            assert np.shares_memory(row.magnitudes_db, block.magnitudes_db)
            assert np.array_equal(row.magnitudes_db, block.magnitudes_db[i])
            assert row.timestamp == block.timestamps[i] and type(row.timestamp) is float
            assert not row.magnitudes_db.flags.writeable
        assert block[-1].timestamp == 0.8

    def test_slice_is_read_only_block_view(self):
        block = self.block()
        for index in (slice(1, 4), slice(None, None, 2), slice(3, 99), slice(2, 2)):
            part = block[index]
            assert type(part) is SweepBlock
            assert part.frequencies is block.frequencies
            assert np.array_equal(part.magnitudes_db, block.magnitudes_db[index])
            assert np.array_equal(part.timestamps, block.timestamps[index])
            for array in (part.magnitudes_db, part.timestamps):
                assert not array.flags.writeable
                assert np.shares_memory(array, block.magnitudes_db) or np.shares_memory(
                    array, block.timestamps
                ) or array.size == 0
        assert [s.timestamp for s in block[1:4]] == [0.2, 0.2, 0.6]

    def test_views_are_not_validated_again(self, monkeypatch):
        from pitkit import trace

        block = self.block()
        monkeypatch.setattr(trace, "_checked", None)
        assert len(block[1:3]) == 2 and block[4].timestamp == 0.8 and len(list(block)) == 5

    def test_bad_indices(self):
        block = self.block()
        with pytest.raises(IndexError):
            block[5]
        with pytest.raises(TypeError):
            block[1.0]
        with pytest.raises(ValueError, match="step"):
            block[::-1]


def test_synth_does_not_import_decode_at_run_time():
    """synth sits below decode: it may name decode's types only under
    TYPE_CHECKING."""
    tree = ast.parse(Path(synth.__file__).read_text())
    type_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            type_only.update(id(n) for n in ast.walk(node))
    offending = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in type_only
        and (
            (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "decode")
            or (isinstance(node, ast.ImportFrom) and node.level and node.module is None
                and any(a.name == "decode" for a in node.names))
            or (
                isinstance(node, ast.Import)
                and any(a.name.split(".")[-1] == "decode" for a in node.names)
            )
        )
    ]
    assert offending == [], f"run-time import of decode at synth.py lines {offending}"
