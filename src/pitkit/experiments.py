"""Evaluation harness: SNR studies and end-to-end input accuracy.

Each experiment is deterministic given its seed (per-trial seeds are
``seed + trial index``) and emits a result table plus a JSON summary.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .bridge import BridgeConfig
from .circuit import CoilParams, CoupledPair
from .decode import PRESS_PROFILE, DebounceConfig, decode_stream, foreign_resonator
from .detect import DetectorConfig, compute_snr, detect_block, detect_stream
from .synth import (
    DisturbanceModel,
    GeometryScenario,
    SweepConfig,
    coupling_from_geometry,
    scripted_session,
    synthesize_block,
    synthesize_sweep,
)

EXPERIMENTS = (
    "snr-vs-turns",
    "snr-vs-frequency",
    "snr-vs-distance",
    "snr-vs-angle",
    "snr-vs-metal",
    "press-accuracy",
)

SNR_TRACE_COUNT = 100

# Metal-proximity presets: extra baseline curvature and noise, plus a
# resonance pull-up for a second resonant ring worn next to the sensor.
# Magnitudes are free parameters chosen to stress the detector.
METAL_PRESETS = {
    "qi-charger": DisturbanceModel(noise_sigma=0.004, metal_baseline=(0.5, -0.3, 0.8)),
    "nfc-reader": DisturbanceModel(noise_sigma=0.006, metal_baseline=(0.3, 0.2, 0.5)),
    "laptop": DisturbanceModel(noise_sigma=0.003, metal_baseline=(1.0, 0.5, 1.2)),
    "microwave-oven": DisturbanceModel(noise_sigma=0.008, metal_baseline=(0.8, -0.6, 1.5)),
    "hair-dryer": DisturbanceModel(noise_sigma=0.01, metal_baseline=(0.2, 0.1, 0.4)),
    "smart-ring": DisturbanceModel(noise_sigma=0.003, nearby_resonator_shift=400e3),
}


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    trials: int = 5
    seed: int = 0
    output_path: str = "result.csv"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def noiseless_peak(
    pair: CoupledPair,
    bridge: BridgeConfig,
    cfg: SweepConfig,
    disturb: DisturbanceModel = DisturbanceModel(noise_sigma=0.0),
) -> tuple[float, float]:
    """(frequency, height) of the noise-free with/without trace difference."""
    quiet = DisturbanceModel(
        noise_sigma=0.0,
        metal_baseline=disturb.metal_baseline,
        nearby_resonator_shift=disturb.nearby_resonator_shift,
    )
    pair_off = CoupledPair(pair.reader, pair.sensor, 0.0)
    block = synthesize_block(cfg, [pair, pair_off], bridge, quiet, [0.0, 0.0])
    diff = block.magnitudes_db[0] - block.magnitudes_db[1]
    i = int(np.argmax(diff))
    return float(block.frequencies[i]), float(diff[i])


def measure_snr(
    pair: CoupledPair,
    bridge: BridgeConfig,
    cfg: SweepConfig,
    disturb: DisturbanceModel,
    n_traces: int = SNR_TRACE_COUNT,
) -> float:
    """Empirical SNR from ``n_traces`` with-sensor and without-sensor
    sweeps, one block each, evaluated at the noise-free peak location."""
    at_frequency, _ = noiseless_peak(pair, bridge, cfg, disturb)
    times = [i / cfg.acquisition_rate for i in range(2 * n_traces)]
    pair_off = CoupledPair(pair.reader, pair.sensor, 0.0)
    traces_with = synthesize_block(cfg, [pair] * n_traces, bridge, disturb, times[:n_traces])
    traces_without = synthesize_block(
        cfg, [pair_off] * n_traces, bridge, disturb, times[n_traces:]
    )
    return compute_snr(traces_with, traces_without, at_frequency)


def calibrate_coupling(
    target_snr: float,
    sensor: CoilParams,
    reader: CoilParams,
    bridge: BridgeConfig,
    cfg: SweepConfig,
    noise_sigma: float = defaults.NOISE_SIGMA_DB,
) -> float:
    """Coupling coefficient whose expected baseline-residual peak height
    under the session noise is ``target_snr * noise_sigma``.

    What this pins is the mean residual height near the peak, not the
    SNR the detector reports (residual over the robust sigma of each
    frame's own residual).  The two differ: decoded press-downs in
    sessions calibrated to 16, 18 and 20 carry a median detector SNR of
    about 12.5, 14.0 and 15.5, some 22% below the label.

    Two stages: bisection on the noise-free residual height (monotone in
    k), then a second bisection with the target shifted by the measured
    noisy-fit deficit -- under noise the clipped baseline sits slightly
    higher near the peak than in the noise-free fit."""
    target_height = target_snr * noise_sigma
    quiet = DisturbanceModel(noise_sigma=0.0)
    noisy = DisturbanceModel(noise_sigma=noise_sigma)
    det = DetectorConfig()

    def quiet_residual(k: float) -> np.ndarray:
        s = synthesize_sweep(cfg, CoupledPair(reader, sensor, k), bridge, quiet)
        return detect_block(s.frequencies, s.magnitudes_db[None, :], det)[0][0]

    def bisect(target: float) -> float:
        lo, hi = 1e-6, 0.05
        if quiet_residual(hi).max() < target:
            raise ValueError("target SNR unreachable within coupling bounds")
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            if quiet_residual(mid).max() < target:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    k0 = bisect(target_height)
    # Detection is decided by the residual in the few grid bins around the
    # resonance, so the deficit is measured on that window rather than on
    # the sweep-wide maximum (which rides the highest noise excursion).
    peak_bin = int(np.argmax(quiet_residual(k0)))
    lo_bin, hi_bin = max(peak_bin - 1, 0), peak_bin + 2
    frames = 240
    noisy_sweeps = synthesize_block(
        cfg,
        [CoupledPair(reader, sensor, k0)] * frames,
        bridge,
        noisy,
        [i / cfg.acquisition_rate for i in range(frames)],
    )
    noisy_mean = float(
        np.mean([r[lo_bin:hi_bin].max() for _, r, _ in detect_stream(noisy_sweeps, det)])
    )
    deficit = max(target_height - noisy_mean, 0.0)
    if deficit == 0.0:
        return k0
    return bisect(target_height + deficit)


# ---------------------------------------------------------------------------
# individual experiments; each returns (header, rows, summary)


def _snr_stats(snrs: list[float]) -> tuple[float, float]:
    arr = np.asarray(snrs)
    return float(arr.mean()), float(arr.std())


def snr_vs_turns(trials: int, seed: int):
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    disturb = DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB)
    rows = []
    by_turn = {}
    for turns in sorted(defaults.TURN_TABLE):
        sensor = defaults.ring_coil(29e6, turns)
        pair = CoupledPair(reader, sensor, defaults.K_REFERENCE)
        snrs = []
        for trial in range(trials):
            cfg = SweepConfig(seed=seed + trial)
            snrs.append(measure_snr(pair, bridge, cfg, disturb))
        mean, std = _snr_stats(snrs)
        by_turn[turns] = mean
        rows.append(
            [turns, sensor.inductance, sensor.resistance, mean, std]
        )
    summary = {
        "snr_by_turns": by_turn,
        "monotone_3_to_7": all(
            by_turn[n] < by_turn[n + 1] for n in range(3, 7)
        ),
        "plateau_7_to_9_change": (
            max(by_turn[n] for n in (7, 8, 9)) - min(by_turn[n] for n in (7, 8, 9))
        )
        / max(by_turn[n] for n in (7, 8, 9)),
    }
    return ["turns", "inductance_h", "resistance_ohm", "snr_mean", "snr_std"], rows, summary


def snr_vs_frequency(trials: int, seed: int):
    # Wider grid than the operating band so out-of-band resonances are
    # still visible to the analyzer model.
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    disturb = DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB)
    rows = []
    band = []
    for f0_mhz in range(20, 41):
        sensor = defaults.ring_coil(f0_mhz * 1e6, 8)
        pair = CoupledPair(reader, sensor, defaults.K_REFERENCE)
        snrs = []
        for trial in range(trials):
            cfg = SweepConfig(18e6, 42e6, 60e3, seed=seed + trial)
            snrs.append(measure_snr(pair, bridge, cfg, disturb))
        mean, std = _snr_stats(snrs)
        rows.append([f0_mhz * 1e6, mean, std])
        if mean > 10:
            band.append(f0_mhz)
    summary = {
        "sensitive_band_mhz": [min(band), max(band)] if band else None,
    }
    return ["ring_frequency_hz", "snr_mean", "snr_std"], rows, summary


def snr_vs_distance(trials: int, seed: int):
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    disturb = DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB)
    sensor = defaults.ring_coil(29e6, 8)
    rows = []
    reach = None
    for d_cm in range(5, 21):
        scene = GeometryScenario(
            distance=d_cm / 100,
            reference_coupling=defaults.K_REFERENCE,
            reference_distance=defaults.REFERENCE_DISTANCE_M,
        )
        k = coupling_from_geometry(scene)
        pair = CoupledPair(reader, sensor, k)
        snrs = []
        for trial in range(trials):
            cfg = SweepConfig(seed=seed + trial)
            snrs.append(measure_snr(pair, bridge, cfg, disturb))
        mean, std = _snr_stats(snrs)
        rows.append([d_cm / 100, k, mean, std])
        if mean >= 10:
            reach = d_cm / 100
    summary = {"max_distance_snr10_m": reach}
    return ["distance_m", "coupling", "snr_mean", "snr_std"], rows, summary


def snr_vs_angle(trials: int, seed: int):
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    disturb = DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB)
    sensor = defaults.ring_coil(29e6, 8)
    rows = []
    detectable = []
    for angle in (0, 30, 50, 70):
        scene = GeometryScenario(
            distance=defaults.REFERENCE_DISTANCE_M,
            bend_angle=angle,
            reference_coupling=defaults.K_REFERENCE_BENDING,
            reference_distance=defaults.REFERENCE_DISTANCE_M,
        )
        pair = CoupledPair(reader, sensor, coupling_from_geometry(scene))
        snrs = []
        for trial in range(trials):
            cfg = SweepConfig(seed=seed + trial)
            snrs.append(measure_snr(pair, bridge, cfg, disturb))
        mean, std = _snr_stats(snrs)
        rows.append([angle, pair.coupling, mean, std])
        if mean >= 10:
            detectable.append(angle)
    summary = {"max_detectable_angle_deg": max(detectable) if detectable else None}
    return ["bend_angle_deg", "coupling", "snr_mean", "snr_std"], rows, summary


def snr_vs_metal(trials: int, seed: int):
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    sensor = defaults.ring_coil(29e6, 8)
    pair = CoupledPair(reader, sensor, defaults.K_REFERENCE)
    det = DetectorConfig()
    rows = []
    summary_items = {}
    for name, disturb in METAL_PRESETS.items():
        snrs = []
        detections = 0
        foreign_flags = 0
        n_frames = 20
        peak_f, _ = noiseless_peak(pair, bridge, SweepConfig(seed=seed), disturb)
        for trial in range(trials):
            cfg = SweepConfig(seed=seed + trial)
            snrs.append(measure_snr(pair, bridge, cfg, disturb))
            frames = synthesize_block(
                cfg,
                [pair] * n_frames,
                bridge,
                disturb,
                [i / cfg.acquisition_rate for i in range(n_frames)],
            )
            for peaks in detect_block(frames.frequencies, frames.magnitudes_db, det)[1]:
                if any(abs(p.peak_frequency - peak_f) <= 2 * cfg.step for p in peaks):
                    detections += 1
                if foreign_resonator(peaks, PRESS_PROFILE):
                    foreign_flags += 1
        mean, std = _snr_stats(snrs)
        detection_rate = detections / (trials * n_frames)
        foreign_rate = foreign_flags / (trials * n_frames)
        rows.append([name, mean, std, detection_rate, foreign_rate])
        summary_items[name] = {
            "snr_mean": mean,
            "detection_rate": detection_rate,
            "foreign_resonator_rate": foreign_rate,
        }
    return (
        ["appliance", "snr_mean", "snr_std", "detection_rate", "foreign_resonator_rate"],
        rows,
        summary_items,
    )


# Press-session shape: at 5 fps, two seconds idle then two seconds held
# per press.  Long enough for the debouncer to confirm both transitions
# even when individual frames drop out near the detection floor.
PRESS_IDLE_FRAMES = 6
PRESS_HOLD_FRAMES = 18


def press_accuracy_session(
    target_snr: float,
    n_presses: int,
    seed: int,
    turns: int = 7,
) -> float:
    """Fraction of scripted presses decoded at the given synthesized SNR."""
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    cfg = SweepConfig(seed=seed)
    sensor = defaults.ring_coil(PRESS_PROFILE.frequency_of("off"), turns)
    k = calibrate_coupling(target_snr, sensor, reader, bridge, cfg)
    scene = GeometryScenario(
        reference_coupling=k, reference_distance=defaults.REFERENCE_DISTANCE_M
    )

    rate = cfg.acquisition_rate
    cycle = PRESS_IDLE_FRAMES + PRESS_HOLD_FRAMES
    events = []
    windows = []
    for i in range(n_presses):
        t_down = (i * cycle + PRESS_IDLE_FRAMES) / rate
        t_up = (i * cycle + cycle) / rate
        events.append((t_down, "off"))
        events.append((t_up, "on"))
        windows.append((t_down, t_up))
    duration = n_presses * cycle / rate + PRESS_IDLE_FRAMES / rate

    sweeps = scripted_session(
        events,
        PRESS_PROFILE,
        cfg,
        reader=reader,
        bridge=bridge,
        sensor_inductance=sensor.inductance,
        sensor_resistance=sensor.resistance,
        duration=duration,
        disturb=DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB),
        scene_timeline=scene,
    )
    decoded = decode_stream(sweeps, PRESS_PROFILE, DetectorConfig(), DebounceConfig())
    downs = [e.time for e in decoded if e.event == "press-down"]

    recognized = 0
    slack = 1.0 / rate
    for t_down, t_up in windows:
        if any(t_down - slack <= t <= t_up + slack for t in downs):
            recognized += 1
    return recognized / n_presses


def press_accuracy(trials: int, seed: int):
    rows = []
    summary = {}
    n_presses = 300
    for target in (10.0, 11.0, 12.0, 13.0):
        accs = [
            press_accuracy_session(target, n_presses, seed + trial)
            for trial in range(trials)
        ]
        mean = float(np.mean(accs))
        rows.append([target, n_presses * trials, mean])
        summary[f"snr_{target:g}"] = mean
    return ["target_snr", "presses", "accuracy"], rows, summary


_RUNNERS = {
    "snr-vs-turns": snr_vs_turns,
    "snr-vs-frequency": snr_vs_frequency,
    "snr-vs-distance": snr_vs_distance,
    "snr-vs-angle": snr_vs_angle,
    "snr-vs-metal": snr_vs_metal,
    "press-accuracy": press_accuracy,
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment, write the CSV table and a JSON summary next to
    it, and return the summary."""
    header, rows, summary = _RUNNERS[spec.experiment](spec.trials, spec.seed)
    with open(spec.output_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    summary_doc = {
        "experiment": spec.experiment,
        "trials": spec.trials,
        "seed": spec.seed,
        "summary": summary,
    }
    summary_path = str(spec.output_path) + ".summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary_doc
