"""Evaluation harness: SNR measurement, coupling calibration and the
experiment runner.  The heavier end-to-end accuracy studies live in the
acceptance suite."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pitkit import defaults, experiments
from pitkit.circuit import CoupledPair
from pitkit.decode import PRESS_PROFILE, foreign_block
from pitkit.detect import DetectorConfig, compute_snr, detect_block
from pitkit.experiments import (
    METAL_PRESETS,
    SNR_STUDIES,
    ExperimentSpec,
    calibrate_coupling,
    measure_snr,
    noiseless_peak,
    run_experiment,
    run_snr_study,
    snr_noise,
)
from pitkit.synth import (
    DisturbanceModel,
    GeometryScenario,
    SweepConfig,
    coupling_from_geometry,
    synthesize_block,
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
        cfg = SweepConfig(seed=0)
        snr = measure_snr(
            default_pair(),
            defaults.bridge_config(),
            cfg,
            DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB),
            snr_noise(cfg),
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
        assert measure_snr(pair, bridge, cfg, disturb, snr_noise(cfg)) == expected

    def test_snr_increases_with_coupling(self):
        bridge = defaults.bridge_config()
        disturb = DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB)
        cfg = SweepConfig(seed=1)
        noise = snr_noise(cfg)
        weak = measure_snr(default_pair(4e-4), bridge, cfg, disturb, noise)
        strong = measure_snr(default_pair(1.2e-3), bridge, cfg, disturb, noise)
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
        """Both searches share one memo, so no coupling is synthesized
        twice.  At seed 0 the whole call takes at most 16 noise-free
        blocks (15 of 46 couplings today), where evaluating the 40-step
        bisection two levels of its tree per block took 37 of 110."""
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
        assert len(couplings) == len(set(couplings))
        assert len(blocks) <= 16

    @pytest.mark.parametrize("turns", [5, 7, 8])
    @pytest.mark.parametrize("step", [60e3, 30e3])
    @pytest.mark.parametrize("target", [10.0, 14.0, 20.0])
    def test_equals_the_unmemoised_walk(self, turns, step, target):
        """Bit-identical to two 40-step bisections that evaluate every
        midpoint, on 51- and 101-point grids."""
        args = (target, defaults.ring_coil(28.0e6, turns), defaults.reader_coil(),
                defaults.bridge_config(), SweepConfig(step=step, seed=3))
        assert calibrate_coupling(*args).hex() == reference_calibration(*args).hex()

    def test_non_monotone_height_falls_back_to_the_walk(self, monkeypatch):
        """Couplings whose last mantissa bit is set show half their
        noise-free height, so near the crossing a lower k clears the
        target where a higher one falls short.  Once the evaluated heights
        show that, the walk evaluates every midpoint it visits, as the
        unmemoised walk does, and returns its k."""
        quiet_couplings = []

        def synth(cfg, pairs, bridge, disturb, timestamps):
            if disturb.noise_sigma == 0.0:
                quiet_couplings.append([pair.coupling for pair in pairs])
            return synthesize_block(cfg, pairs, bridge, disturb, timestamps)

        def odd_halved(frequencies, magnitudes, cfg):
            odd = [int(math.ldexp(math.frexp(k)[0], 53)) & 1 for k in quiet_couplings[-1]]
            residuals = detect_block(frequencies, magnitudes, cfg).residuals
            return SimpleNamespace(residuals=residuals * np.where(odd, 0.5, 1.0)[:, None])

        monkeypatch.setattr(experiments, "synthesize_block", synth)
        monkeypatch.setattr(experiments, "detect_block", odd_halved)
        for seed, target in [(0, 16.0), (1, 10.0), (2, 20.0)]:
            args = (target, defaults.ring_coil(28.0e6, 7), defaults.reader_coil(),
                    defaults.bridge_config(), SweepConfig(seed=seed))
            quiet_couplings.clear()
            expected = reference_calibration(*args)
            visited = {k for (k,) in quiet_couplings}
            quiet_couplings.clear()
            assert calibrate_coupling(*args).hex() == expected.hex()
            assert visited <= {k for block in quiet_couplings for k in block}

    @pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -5.0])
    def test_rejects_bad_target(self, target):
        sensor = defaults.ring_coil(28.0e6, 7)
        with pytest.raises(ValueError, match="target_snr must be finite and > 0"):
            calibrate_coupling(
                target, sensor, defaults.reader_coil(), defaults.bridge_config(), SweepConfig()
            )

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -0.002])
    def test_rejects_bad_noise_sigma(self, sigma):
        sensor = defaults.ring_coil(28.0e6, 7)
        with pytest.raises(ValueError, match="noise_sigma must be finite and > 0"):
            calibrate_coupling(
                16.0, sensor, defaults.reader_coil(), defaults.bridge_config(), SweepConfig(),
                noise_sigma=sigma,
            )

    def test_target_met_at_the_lower_bound_raises(self):
        """At k = 1e-6 the noise-free height is about 5e-8 dB, so SNR 1e-6
        (2e-9 dB) is met before the search starts."""
        sensor = defaults.ring_coil(28.0e6, 7)
        with pytest.raises(ValueError, match="unreachable.*already met at the lower bound"):
            calibrate_coupling(
                1e-6, sensor, defaults.reader_coil(), defaults.bridge_config(), SweepConfig()
            )

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


def reference_calibration(target_snr, sensor, reader, bridge, cfg,
                          noise_sigma=defaults.NOISE_SIGMA_DB):
    """The unmemoised calibration: a 40-step geometric bisection of
    (1e-6, 0.05) that synthesizes and detects each midpoint as a one-row
    block, then a second one with the target raised by the noisy-fit
    deficit at the first result.  Noise-free rows go through
    ``experiments.synthesize_block`` and ``experiments.detect_block``, so
    a monkeypatch of either reaches them too."""
    det = DetectorConfig()

    def residual(k):
        block = experiments.synthesize_block(
            cfg, [CoupledPair(reader, sensor, k)], bridge, DisturbanceModel(noise_sigma=0.0), [0.0]
        )
        return experiments.detect_block(block.frequencies, block.magnitudes_db, det).residuals[0]

    def bisect(target):
        lo, hi = 1e-6, 0.05
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            if residual(mid).max() < target:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    target = target_snr * noise_sigma
    k0 = bisect(target)
    peak_bin = int(np.argmax(residual(k0)))
    frames = 240
    noisy = synthesize_block(
        cfg, [CoupledPair(reader, sensor, k0)] * frames, bridge,
        DisturbanceModel(noise_sigma=noise_sigma),
        [i / cfg.acquisition_rate for i in range(frames)],
    )
    window = detect_block(noisy.frequencies, noisy.magnitudes_db, det).residuals[
        :, max(peak_bin - 1, 0):peak_bin + 2
    ]
    deficit = max(target - float(np.mean(window.max(axis=1))), 0.0)
    return k0 if deficit == 0.0 else bisect(target + deficit)


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
            cfgs = [SweepConfig(*grid, seed=seed + trial) for trial in range(trials)]
            snrs = [measure_snr(pair, bridge, cfg, disturb, snr_noise(cfg)) for cfg in cfgs]
            n_keys = len(key)
            assert tuple(row[:n_keys]) == key
            assert row[n_keys:n_keys + 2] == [np.mean(snrs), np.std(snrs)]

    def test_runner_calls_module_measure_snr(self, monkeypatch):
        """Tracing wraps ``experiments.measure_snr``; the runner must call
        it through the module so every SNR point is seen.  Trials run
        outermost."""
        calls = []
        monkeypatch.setattr(
            experiments, "measure_snr", lambda *args: calls.append(args) or 10.0
        )
        _, rows, _ = run_snr_study(SNR_STUDIES["snr-vs-angle"], trials=3, seed=0)
        assert len(calls) == 3 * len(rows)
        assert [cfg.seed for _, _, cfg, _, _ in calls] == [t for t in range(3) for _ in rows]

    @pytest.mark.parametrize("name", ["snr-vs-turns", "snr-vs-frequency", "snr-vs-metal"])
    def test_noise_drawn_once_per_trial_grid_and_set(self, monkeypatch, name):
        """Every point of a trial shares its grid's noise rows: one draw
        per (trial, grid, with/without set), not one per point."""
        calls = []
        original = experiments.noise_rows

        def counted(seed, times, n):
            calls.append((seed, times[0], len(times), n))
            return original(seed, times, n)

        monkeypatch.setattr(experiments, "noise_rows", counted)
        run_snr_study(SNR_STUDIES[name], trials=3, seed=2)
        n = experiments.SNR_TRACE_COUNT
        points = experiments.WIDE_GRID.point_count if name == "snr-vs-frequency" else 51
        assert calls == [
            (seed, t0, n, points) for seed in (2, 3, 4) for t0 in (0.0, n / 5.0)
        ]


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
