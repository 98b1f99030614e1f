"""Evaluation harness: SNR measurement, coupling calibration and the
experiment runner.  The heavier end-to-end accuracy studies live in the
acceptance suite."""

import json

import numpy as np
import pytest

from pitkit import defaults, experiments
from pitkit.circuit import CoupledPair
from pitkit.decode import PRESS_PROFILE, foreign_block
from pitkit.detect import compute_snr, detect_block
from pitkit.experiments import (
    METAL_PRESETS,
    SNR_STUDIES,
    ExperimentSpec,
    calibrate_coupling,
    measure_snr,
    noiseless_peak,
    run_experiment,
    run_snr_study,
)
from pitkit.synth import (
    DisturbanceModel,
    GeometryScenario,
    SweepConfig,
    coupling_from_geometry,
    synthesize_sweep,
)


def default_pair(coupling=defaults.K_REFERENCE, turns=8):
    return CoupledPair(defaults.reader_coil(), defaults.ring_coil(29e6, turns), coupling)


class TestExperimentSpec:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentSpec("snr-vs-phase")

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentSpec("snr-vs-turns", trials=0)


class TestMeasureSnr:
    def test_noiseless_peak_sits_at_resonance(self):
        f, height = noiseless_peak(
            default_pair(), defaults.bridge_config(), SweepConfig()
        )
        assert abs(f - 29e6) <= 60e3
        assert height > 0.02

    def test_reference_scenario_snr(self):
        """The 8-turn ring at the reference coupling lands near SNR 19
        with the stock noise floor."""
        snr = measure_snr(
            default_pair(),
            defaults.bridge_config(),
            SweepConfig(seed=0),
            DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB),
        )
        assert 12.0 <= snr <= 28.0

    @pytest.mark.parametrize("disturb", [
        DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB),
        METAL_PRESETS["microwave-oven"],
        DisturbanceModel(noise_sigma=0.003, frequency_drift=2e3, amplitude_drift=0.01),
    ], ids=["stock", "metal", "drift"])
    def test_equals_per_frame_reference(self, disturb):
        """Block synthesis gives the SNR of 2 x 100 sweeps synthesized and
        evaluated one at a time."""
        pair = default_pair(7e-4)
        bridge = defaults.bridge_config()
        cfg = SweepConfig(seed=5)
        at_frequency, _ = noiseless_peak(pair, bridge, cfg, disturb)
        off = CoupledPair(pair.reader, pair.sensor, 0.0)
        times = [i / 5.0 for i in range(200)]
        with_sensor = [synthesize_sweep(cfg, pair, bridge, disturb, t) for t in times[:100]]
        without = [synthesize_sweep(cfg, off, bridge, disturb, t) for t in times[100:]]
        expected = compute_snr(with_sensor, without, at_frequency)
        assert measure_snr(pair, bridge, cfg, disturb) == expected

    def test_snr_increases_with_coupling(self):
        bridge = defaults.bridge_config()
        disturb = DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB)
        weak = measure_snr(default_pair(4e-4), bridge, SweepConfig(seed=1), disturb)
        strong = measure_snr(default_pair(1.2e-3), bridge, SweepConfig(seed=1), disturb)
        assert strong > weak


class TestCalibrateCoupling:
    def test_calibrated_residual_matches_target(self):
        """The noise-free detector residual at the calibrated coupling
        tracks target_snr * sigma after the noisy-fit correction; allow
        the correction's own margin."""
        target = 12.0
        cfg = SweepConfig(seed=0)
        sensor = defaults.ring_coil(28.0e6, 7)
        reader = defaults.reader_coil()
        bridge = defaults.bridge_config()
        k = calibrate_coupling(target, sensor, reader, bridge, cfg)
        sweep = synthesize_sweep(
            cfg,
            CoupledPair(reader, sensor, k),
            bridge,
            DisturbanceModel(noise_sigma=0.0),
        )
        residual = detect_block(sweep.frequencies, sweep.magnitudes_db[None, :]).residuals[0]
        height = float(residual.max())
        assert height == pytest.approx(
            target * defaults.NOISE_SIGMA_DB, rel=0.35
        )
        assert height >= target * defaults.NOISE_SIGMA_DB * 0.99

    def test_higher_target_needs_stronger_coupling(self):
        cfg = SweepConfig(seed=0)
        sensor = defaults.ring_coil(28.0e6, 7)
        reader = defaults.reader_coil()
        bridge = defaults.bridge_config()
        k_lo = calibrate_coupling(8.0, sensor, reader, bridge, cfg)
        k_hi = calibrate_coupling(14.0, sensor, reader, bridge, cfg)
        assert k_hi > k_lo

    def test_each_coupling_synthesized_once(self, monkeypatch):
        """Both bisections start from the same bracket; their shared steps
        are synthesized and detected once per call.  Each noise-free block
        holds the next two levels of the bisection tree (the first also
        the upper bound), and the first bisection's result, whose peak
        bin sets the noisy window, is a one-row block: at seed 0, 110
        couplings in 37 blocks, where the walk alone visits 74."""
        couplings = []
        blocks = []
        original = experiments.synthesize_block

        def counting(cfg, pairs, bridge, disturb, timestamps):
            if disturb.noise_sigma == 0.0:
                couplings.extend(pair.coupling for pair in pairs)
                blocks.append(len(pairs))
            return original(cfg, pairs, bridge, disturb, timestamps)

        monkeypatch.setattr(experiments, "synthesize_block", counting)
        sensor = defaults.ring_coil(28.0e6, 7)
        calibrate_coupling(
            16.0, sensor, defaults.reader_coil(), defaults.bridge_config(), SweepConfig(seed=0)
        )
        assert len(couplings) == len(set(couplings)) == 110
        assert len(blocks) == 37

    @pytest.mark.parametrize(
        "target, seed, k_hex",
        [
            (10.0, 0, "0x1.566b5db73c72dp-11"),
            (10.0, 1, "0x1.57fca8a4d8706p-11"),
            (10.0, 2, "0x1.594c4f2581a1ap-11"),
            (12.0, 0, "0x1.780e7a895a00bp-11"),
            (12.0, 1, "0x1.79e9e50ee4566p-11"),
            (12.0, 2, "0x1.7ae754ffa6da2p-11"),
            (16.0, 0, "0x1.b2f21c1bb3578p-11"),
            (16.0, 1, "0x1.b42d193a8adc4p-11"),
            (16.0, 2, "0x1.b56c409edce1cp-11"),
            (20.0, 0, "0x1.e4f6280857bd8p-11"),
            (20.0, 1, "0x1.e7c89f82fe580p-11"),
            (20.0, 2, "0x1.e89276bda04fbp-11"),
        ],
    )
    def test_calibrated_coupling_is_pinned(self, target, seed, k_hex):
        """Bit-identical to the unmemoised bisection (7-turn ring at 28 MHz)."""
        sensor = defaults.ring_coil(28.0e6, 7)
        k = calibrate_coupling(
            target, sensor, defaults.reader_coil(), defaults.bridge_config(), SweepConfig(seed=seed)
        )
        assert k.hex() == k_hex

    def test_unreachable_target_raises(self):
        cfg = SweepConfig(seed=0)
        sensor = defaults.ring_coil(28.0e6, 7)
        with pytest.raises(ValueError, match="unreachable"):
            calibrate_coupling(
                1e6, sensor, defaults.reader_coil(), defaults.bridge_config(), cfg
            )


STOCK_NOISE = DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB)
DEFAULT_GRID = ()  # SweepConfig's own grid
WIDE_GRID = (18e6, 42e6, 60e3)
RING = defaults.ring_coil(29e6, 8)


def _point(sensor, coupling, grid=DEFAULT_GRID, disturb=STOCK_NOISE):
    """(pair, sweep grid, disturbance) of a study point on the stock reader."""
    return CoupledPair(defaults.reader_coil(), sensor, coupling), grid, disturb


def _coupling_at(distance=defaults.REFERENCE_DISTANCE_M, angle=0.0, k_ref=defaults.K_REFERENCE):
    return coupling_from_geometry(
        GeometryScenario(
            distance=distance,
            bend_angle=angle,
            reference_coupling=k_ref,
            reference_distance=defaults.REFERENCE_DISTANCE_M,
        )
    )


def _turns_end(turns):
    ring = defaults.ring_coil(29e6, turns)
    return (turns, ring.inductance, ring.resistance), _point(ring, defaults.K_REFERENCE)


def _distance_end(distance):
    k = _coupling_at(distance=distance)
    return (distance, k), _point(RING, k)


def _angle_end(angle):
    k = _coupling_at(angle=angle, k_ref=defaults.K_REFERENCE_BENDING)
    return (angle, k), _point(RING, k)


# Per study: (key values, point) of its first and last rows.
STUDY_ENDS = {
    "snr-vs-turns": [_turns_end(3), _turns_end(9)],
    "snr-vs-frequency": [
        ((f0,), _point(defaults.ring_coil(f0, 8), defaults.K_REFERENCE, WIDE_GRID))
        for f0 in (20e6, 40e6)
    ],
    "snr-vs-distance": [_distance_end(0.05), _distance_end(0.20)],
    "snr-vs-angle": [_angle_end(0), _angle_end(70)],
    "snr-vs-metal": [
        ((name,), _point(RING, defaults.K_REFERENCE, disturb=METAL_PRESETS[name]))
        for name in ("qi-charger", "smart-ring")
    ],
}


class TestSnrStudies:
    @pytest.mark.parametrize("name", sorted(STUDY_ENDS))
    def test_end_rows_equal_direct_measurement(self, name):
        """The first and last rows hold the mean and population std of
        measure_snr called directly on the documented point, one call per
        trial at seed + trial.  Catches an entry with the wrong grid,
        coupling or coil."""
        trials, seed = 2, 3
        _, rows, _ = run_snr_study(SNR_STUDIES[name], trials, seed)
        bridge = defaults.bridge_config()
        for row, (key, (pair, grid, disturb)) in zip((rows[0], rows[-1]), STUDY_ENDS[name]):
            snrs = [
                measure_snr(pair, bridge, SweepConfig(*grid, seed=seed + trial), disturb)
                for trial in range(trials)
            ]
            n_keys = len(key)
            assert tuple(row[:n_keys]) == key
            assert row[n_keys:n_keys + 2] == [np.mean(snrs), np.std(snrs)]

    def test_runner_calls_module_measure_snr(self, monkeypatch):
        """Tracing wraps ``experiments.measure_snr``; the runner must call
        it through the module so every SNR point is seen."""
        calls = []
        monkeypatch.setattr(
            experiments, "measure_snr", lambda *args: calls.append(args) or 10.0
        )
        _, rows, _ = run_snr_study(SNR_STUDIES["snr-vs-angle"], trials=3, seed=0)
        assert len(calls) == 3 * len(rows)
        assert [cfg.seed for _, _, cfg, _ in calls[:3]] == [0, 1, 2]


class TestSnrVsTurns:
    def test_summary_flags(self):
        header, rows, summary = run_snr_study(SNR_STUDIES["snr-vs-turns"], trials=1, seed=0)
        assert header[0] == "turns"
        assert [r[0] for r in rows] == sorted(defaults.TURN_TABLE)
        assert summary["monotone_3_to_7"] is True
        assert summary["plateau_7_to_9_change"] <= 0.10


class TestSnrVsMetal:
    def test_frame_loop_equals_per_frame_reference(self):
        """Detection and foreign-resonator rates from one block per trial
        equal those of frames synthesized and detected one at a time."""
        trials, seed, n_frames = 2, 4, 20
        _, rows, _ = run_snr_study(SNR_STUDIES["snr-vs-metal"], trials, seed)
        pair = default_pair()
        bridge = defaults.bridge_config()
        for (name, *_, detection_rate, foreign_rate), (preset, disturb) in zip(
            rows, METAL_PRESETS.items()
        ):
            assert name == preset
            peak_f, _ = noiseless_peak(pair, bridge, SweepConfig(seed=seed), disturb)
            detections = foreign = 0
            for trial in range(trials):
                cfg = SweepConfig(seed=seed + trial)
                for i in range(n_frames):
                    sweep = synthesize_sweep(cfg, pair, bridge, disturb, t=i / 5.0)
                    detection = detect_block(sweep.frequencies, sweep.magnitudes_db[None, :])
                    peaks = detection.reports()[0]
                    detections += any(abs(p.peak_frequency - peak_f) <= 2 * cfg.step for p in peaks)
                    foreign += bool(foreign_block(detection, PRESS_PROFILE)[0])
            assert detection_rate == detections / (trials * n_frames)
            assert foreign_rate == foreign / (trials * n_frames)


class TestRunExperiment:
    def test_writes_csv_and_summary(self, tmp_path):
        out = tmp_path / "turns.csv"
        spec = ExperimentSpec("snr-vs-turns", trials=1, seed=0, output_path=str(out))
        doc = run_experiment(spec)
        assert out.exists()
        lines = out.read_text().splitlines()
        assert lines[0] == "turns,inductance_h,resistance_ohm,snr_mean,snr_std"
        assert len(lines) == 1 + len(defaults.TURN_TABLE)
        on_disk = json.loads((tmp_path / "turns.csv.summary.json").read_text())
        assert on_disk["experiment"] == doc["experiment"] == "snr-vs-turns"
        assert on_disk["summary"]["monotone_3_to_7"] is True
        assert on_disk["summary"]["plateau_7_to_9_change"] == pytest.approx(
            doc["summary"]["plateau_7_to_9_change"]
        )

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_experiment(
                ExperimentSpec("snr-vs-turns", trials=1, seed=7, output_path=str(out))
            )
        assert a.read_bytes() == b.read_bytes()
        assert (
            json.loads((tmp_path / "a.csv.summary.json").read_text())["summary"]
            == json.loads((tmp_path / "b.csv.summary.json").read_text())["summary"]
        )
