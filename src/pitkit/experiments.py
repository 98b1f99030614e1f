"""Evaluation harness: SNR studies and end-to-end input accuracy.

Each experiment is deterministic given its seed (per-trial seeds are
``seed + trial index``) and emits a result table plus a JSON summary.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from . import defaults
from .bridge import BridgeConfig
from .circuit import CoilParams, CoupledPair
from .decode import PRESS_PROFILE, DebounceConfig, decode_stream, foreign_block
from .detect import DetectorConfig, compute_snr, detect_block, detect_stream
from .synth import (
    DisturbanceModel,
    GeometryScenario,
    SweepConfig,
    coupling_from_geometry,
    noise_rows,
    scripted_session,
    synthesize_block,
)
from .trace import SweepBlock

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
        # trial seeds are seed + trial, and SweepConfig takes [0, 2**32)
        if not 0 <= self.seed <= 2**32 - self.trials:
            raise ValueError(f"seed must be in [0, 2**32 - trials], got {self.seed!r}")


def _noise_free_levels(
    pair: CoupledPair, bridge: BridgeConfig, cfg: SweepConfig, disturb: DisturbanceModel
) -> SweepBlock:
    """Noise-free 2-row block at t = 0: row 0 with the sensor coupled,
    row 1 at coupling 0, both under the metal baseline and resonator
    shift of ``disturb``."""
    quiet = DisturbanceModel(
        noise_sigma=0.0,
        metal_baseline=disturb.metal_baseline,
        nearby_resonator_shift=disturb.nearby_resonator_shift,
    )
    pair_off = CoupledPair(pair.reader, pair.sensor, 0.0)
    return synthesize_block(cfg, [pair, pair_off], bridge, quiet, [0.0, 0.0])


def noiseless_peak(
    pair: CoupledPair,
    bridge: BridgeConfig,
    cfg: SweepConfig,
    disturb: DisturbanceModel = DisturbanceModel(noise_sigma=0.0),
) -> tuple[float, float]:
    """(frequency, height) of the noise-free with/without trace difference."""
    block = _noise_free_levels(pair, bridge, cfg, disturb)
    diff = block.magnitudes_db[0] - block.magnitudes_db[1]
    i = int(np.argmax(diff))
    return float(block.frequencies[i]), float(diff[i])


def measure_snr(
    pair: CoupledPair,
    bridge: BridgeConfig,
    cfg: SweepConfig,
    disturb: DisturbanceModel,
    noise: tuple[np.ndarray, np.ndarray],
) -> float:
    """Empirical SNR from ``SNR_TRACE_COUNT`` with-sensor and
    without-sensor sweeps, evaluated at the grid point of the noise-free
    peak.

    ``noise`` is ``snr_noise(cfg)``: the standard-normal rows of the
    with-sensor sweeps (timestamps ``0 .. n-1`` frames) and of the
    without-sensor sweeps (``n .. 2n-1``); the rows depend only on the
    seed and grid of ``cfg``, so the points of a study share them.  Only
    the peak's column of each set is formed: the noise-free level plus
    ``disturb.noise_sigma`` times the column of the rows, bit for bit that
    column of what ``synthesize_block`` with ``disturb`` gives.  Without
    drift every row of a set has the same noise-free level, so a
    disturbance with amplitude or frequency drift raises ``ValueError``."""
    if disturb.amplitude_drift > 0.0 or disturb.frequency_drift > 0.0:
        raise ValueError("measure_snr takes a disturbance without amplitude or frequency drift")
    levels = _noise_free_levels(pair, bridge, cfg, disturb).magnitudes_db
    idx = int(np.argmax(levels[0] - levels[1]))
    with_values, without_values = (
        disturb.noise_sigma * rows[:, idx] + level[idx] for rows, level in zip(noise, levels)
    )
    return compute_snr(with_values, without_values)


def snr_noise(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """The standard-normal rows of ``measure_snr``'s with-sensor and
    without-sensor sweeps on the grid and seed of ``cfg``."""
    n = SNR_TRACE_COUNT
    times = [i / cfg.acquisition_rate for i in range(2 * n)]
    points = cfg.point_count
    return noise_rows(cfg.seed, times[:n], points), noise_rows(cfg.seed, times[n:], points)


# Coupling range of the calibration.
K_RANGE = (1e-6, 0.05)
# Each search stops once its bracket is this narrow, relative.  The
# height grows about as k**2, so at SNR 16 the bracket spans some 6e-11
# dB of height, 3e-8 of the noise sigma: interpolating inside it would
# buy nothing.
BRACKET_WIDTH = 1e-9
# A bound on probe blocks per search, so a height the secant cannot
# narrow still ends, with a wider bracket.  Searches took 1 to 7 blocks
# in 432 calibrations.
SECANT_BLOCKS = 40


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

    Two searches on the noise-free residual height: one for the target,
    then one with the target raised by the measured noisy-fit deficit --
    under noise the clipped baseline sits slightly higher near the peak
    than in the noise-free fit.  Both read one memo of noise-free
    residual rows by coupling, so no coupling is synthesized twice.

    Each search keeps a sign-change bracket: ``lo``, the highest
    evaluated coupling whose height falls short of the target, and
    ``hi``, the lowest evaluated one above ``lo`` that meets it.  Each
    noise-free block detects two couplings 0.9 ``BRACKET_WIDTH`` apart
    around the regula falsi estimate with the Illinois rule (log height
    against log k; the height grows about as k**2), and the bracket
    moves to the probes by their own heights, so it holds a crossing
    even where the height is not monotone.  The search returns
    ``sqrt(lo * hi)`` once ``hi / lo - 1 <= BRACKET_WIDTH``.

    At seed 0 and target 16 (7-turn ring at 28 MHz) this takes 9
    noise-free blocks of 17 couplings.  Raises ``ValueError`` for a
    target or ``noise_sigma`` that is not finite and positive, and for
    a target outside the reach of ``K_RANGE``."""
    if not (math.isfinite(target_snr) and target_snr > 0):
        raise ValueError("target_snr must be finite and > 0")
    if not (math.isfinite(noise_sigma) and noise_sigma > 0):
        raise ValueError("noise_sigma must be finite and > 0")
    target_height = target_snr * noise_sigma
    quiet = DisturbanceModel(noise_sigma=0.0)
    noisy = DisturbanceModel(noise_sigma=noise_sigma)
    det = DetectorConfig()

    # Both searches share one memo; each k is synthesized and detected
    # once per call, and rows do not depend on their block.
    residuals: dict[float, np.ndarray] = {}
    heights: dict[float, float] = {}

    def quiet_residuals(ks: list[float]) -> None:
        ks = [k for k in ks if k not in residuals]
        if ks:
            block = synthesize_block(
                cfg, [CoupledPair(reader, sensor, k) for k in ks], bridge, quiet, [0.0] * len(ks)
            )
            rows = detect_block(block.frequencies, block.magnitudes_db, det).residuals
            residuals.update(zip(ks, rows))
            heights.update(zip(ks, rows.max(axis=1).tolist()))

    def search(target: float) -> float:
        quiet_residuals(list(K_RANGE))
        if heights[K_RANGE[1]] < target:
            raise ValueError("target SNR unreachable within coupling bounds")
        if heights[K_RANGE[0]] >= target:
            raise ValueError(
                "target SNR unreachable within coupling bounds: already met at the lower bound"
            )
        lo = max(k for k, h in heights.items() if h < target)
        hi = min(k for k, h in heights.items() if k > lo and h >= target)
        # Two probes 0.9 bracket widths apart around each estimate: once
        # the estimate is that close, they bracket the crossing.
        half = 0.45 * math.log1p(BRACKET_WIDTH)
        weight_lo = weight_hi = 1.0
        lo_kept = hi_kept = False
        for _ in range(SECANT_BLOCKS):
            if hi / lo - 1 <= BRACKET_WIDTH:
                break
            x_lo, x_hi = math.log(lo), math.log(hi)
            if heights[lo] > 0.0:
                f_lo = math.log(heights[lo] / target) * weight_lo
                f_hi = math.log(heights[hi] / target) * weight_hi
                x = (x_lo * f_hi - x_hi * f_lo) / (f_hi - f_lo)
            else:
                x = (x_lo + x_hi) / 2
            probes = [k for k in (math.exp(x - half), math.exp(x + half)) if lo < k < hi]
            quiet_residuals(probes)
            new_lo, new_hi = lo, hi
            for k in probes:
                if heights[k] >= target:
                    new_hi = k
                    break
                new_lo = k
            # Illinois: an end kept twice running counts half.
            weight_lo = 1.0 if new_lo != lo else weight_lo / 2 if lo_kept else weight_lo
            weight_hi = 1.0 if new_hi != hi else weight_hi / 2 if hi_kept else weight_hi
            lo_kept, hi_kept = new_lo == lo, new_hi == hi
            lo, hi = new_lo, new_hi
        return math.sqrt(lo * hi)

    k0 = search(target_height)
    # Detection is decided by the residual in the few grid bins around the
    # resonance, so the deficit is measured on that window rather than on
    # the sweep-wide maximum (which rides the highest noise excursion).
    quiet_residuals([k0])
    peak_bin = int(np.argmax(residuals[k0]))
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
        np.mean(
            np.concatenate([
                d.residuals[:, lo_bin:hi_bin].max(axis=1)
                for _, d in detect_stream(noisy_sweeps, det)
            ])
        )
    )
    deficit = max(target_height - noisy_mean, 0.0)
    if deficit == 0.0:
        return k0
    return search(target_height + deficit)


# ---------------------------------------------------------------------------
# SNR studies: one table entry per study, all run by ``run_snr_study``

# The sweep grids of the study points; each trial sets its own seed.  The
# wide grid spans beyond the operating band so out-of-band resonances
# are still visible to the analyzer model.
DEFAULT_GRID = SweepConfig()
WIDE_GRID = SweepConfig(18e6, 42e6, 60e3)
STOCK_NOISE = DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB)
METAL_FRAMES = 20


@dataclass(frozen=True)
class SnrStudy:
    """One SNR study.

    ``points(reader)`` yields one (key values, pair, sweep grid,
    disturbance) per row.  A row of the result is its key values under
    ``key_columns``, the SNR mean and population std over the trials,
    then under ``extra_columns`` the mean over all trials' frames of
    ``extra(pair, bridge, cfg, disturb, rows)``: one trial's per-frame
    flags, one column each, on the trial's grid ``cfg`` and its
    with-sensor noise rows ``rows``.  ``summarize(rows)`` gives the
    summary."""

    key_columns: tuple[str, ...]
    points: Callable[[CoilParams], Iterator[tuple]]
    summarize: Callable[[list], dict]
    extra_columns: tuple[str, ...] = ()
    extra: Optional[Callable[..., list]] = None


def run_snr_study(study: SnrStudy, trials: int, seed: int):
    """(header, rows, summary) of one SNR study: each point measured by
    ``measure_snr`` once per trial, on the point's grid at seed
    ``seed + trial``.

    Trials run outermost.  Within a trial every point on one grid is
    measured on the same noise rows (common random numbers), drawn once
    by ``snr_noise``, and the study's ``extra`` flags read them too;
    only one trial's rows are alive at a time."""
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    points = list(study.points(reader))
    snrs = np.empty((len(points), trials))
    flags: list[list[np.ndarray]] = [[] for _ in points]
    for trial in range(trials):
        noise_of: dict = {}
        for i, (_, pair, grid, disturb) in enumerate(points):
            cfg = replace(grid, seed=seed + trial)
            if cfg not in noise_of:
                noise_of[cfg] = snr_noise(cfg)
            snrs[i, trial] = measure_snr(pair, bridge, cfg, disturb, noise_of[cfg])
            if study.extra is not None:
                flags[i].append(study.extra(pair, bridge, cfg, disturb, noise_of[cfg][0]))
    rows = []
    for (key, *_), point_snrs, point_flags in zip(points, snrs, flags):
        row = [*key, float(point_snrs.mean()), float(point_snrs.std())]
        if point_flags:
            # a mean of 0/1 flags sums exactly, so it is count / frames
            row += np.concatenate(point_flags).mean(axis=0).tolist()
        rows.append(row)
    header = [*study.key_columns, "snr_mean", "snr_std", *study.extra_columns]
    return header, rows, study.summarize(rows)


def _turns_points(reader: CoilParams) -> Iterator[tuple]:
    for turns in sorted(defaults.TURN_TABLE):
        sensor = defaults.ring_coil(29e6, turns)
        pair = CoupledPair(reader, sensor, defaults.K_REFERENCE)
        yield (turns, sensor.inductance, sensor.resistance), pair, DEFAULT_GRID, STOCK_NOISE


def _turns_summary(rows: list) -> dict:
    by_turn = {turns: mean for turns, _, _, mean, _ in rows}
    plateau = [by_turn[n] for n in (7, 8, 9)]
    return {
        "snr_by_turns": by_turn,
        "monotone_3_to_7": all(by_turn[n] < by_turn[n + 1] for n in range(3, 7)),
        "plateau_7_to_9_change": (max(plateau) - min(plateau)) / max(plateau),
    }


def _frequency_points(reader: CoilParams) -> Iterator[tuple]:
    for f0_mhz in range(20, 41):
        sensor = defaults.ring_coil(f0_mhz * 1e6, 8)
        pair = CoupledPair(reader, sensor, defaults.K_REFERENCE)
        yield (f0_mhz * 1e6,), pair, WIDE_GRID, STOCK_NOISE


def _frequency_summary(rows: list) -> dict:
    band = [round(f0 / 1e6) for f0, mean, _ in rows if mean > 10]
    return {"sensitive_band_mhz": [min(band), max(band)] if band else None}


def _distance_points(reader: CoilParams) -> Iterator[tuple]:
    sensor = defaults.ring_coil(29e6, 8)
    for d_cm in range(5, 21):
        scene = GeometryScenario(
            distance=d_cm / 100,
            reference_coupling=defaults.K_REFERENCE,
            reference_distance=defaults.REFERENCE_DISTANCE_M,
        )
        k = coupling_from_geometry(scene)
        yield (d_cm / 100, k), CoupledPair(reader, sensor, k), DEFAULT_GRID, STOCK_NOISE


def _distance_summary(rows: list) -> dict:
    reach = max((d for d, _, mean, _ in rows if mean >= 10), default=None)
    return {"max_distance_snr10_m": reach}


def _angle_points(reader: CoilParams) -> Iterator[tuple]:
    sensor = defaults.ring_coil(29e6, 8)
    for angle in (0, 30, 50, 70):
        scene = GeometryScenario(
            distance=defaults.REFERENCE_DISTANCE_M,
            bend_angle=angle,
            reference_coupling=defaults.K_REFERENCE_BENDING,
            reference_distance=defaults.REFERENCE_DISTANCE_M,
        )
        k = coupling_from_geometry(scene)
        yield (angle, k), CoupledPair(reader, sensor, k), DEFAULT_GRID, STOCK_NOISE


def _angle_summary(rows: list) -> dict:
    detectable = max((angle for angle, _, mean, _ in rows if mean >= 10), default=None)
    return {"max_detectable_angle_deg": detectable}


def _metal_points(reader: CoilParams) -> Iterator[tuple]:
    pair = CoupledPair(reader, defaults.ring_coil(29e6, 8), defaults.K_REFERENCE)
    for name, disturb in METAL_PRESETS.items():
        yield (name,), pair, DEFAULT_GRID, disturb


def _metal_frame_flags(pair, bridge, cfg, disturb, rows: np.ndarray) -> np.ndarray:
    """(detected, foreign resonator) flags of the ``METAL_FRAMES`` frames
    of one trial.  A frame counts as a detection when it has a peak
    within two grid steps of the noise-free peak.

    The frames are at timestamps ``0 .. METAL_FRAMES - 1`` frames, the
    first of ``measure_snr``'s with-sensor sweeps, so they are the
    noise-free level plus ``disturb.noise_sigma`` times the first of the
    trial's with-sensor noise ``rows``: bit for bit the block that
    ``synthesize_block`` with ``disturb`` gives, without drawing the
    noise again."""
    peak_f, _ = noiseless_peak(pair, bridge, cfg, disturb)
    quiet = replace(disturb, noise_sigma=0.0)
    level = synthesize_block(cfg, [pair], bridge, quiet, [0.0])
    frames = disturb.noise_sigma * rows[:METAL_FRAMES] + level.magnitudes_db
    found = detect_block(level.frequencies, frames, DetectorConfig())
    detected = np.zeros(METAL_FRAMES, dtype=bool)
    detected[found.row[np.abs(found.frequency - peak_f) <= 2 * cfg.step]] = True
    return np.column_stack([detected, foreign_block(found, PRESS_PROFILE)])


def _metal_summary(rows: list) -> dict:
    return {
        name: {
            "snr_mean": mean,
            "detection_rate": detection_rate,
            "foreign_resonator_rate": foreign_rate,
        }
        for name, mean, _, detection_rate, foreign_rate in rows
    }


SNR_STUDIES = {
    "snr-vs-turns": SnrStudy(
        ("turns", "inductance_h", "resistance_ohm"), _turns_points, _turns_summary
    ),
    "snr-vs-frequency": SnrStudy(
        ("ring_frequency_hz",), _frequency_points, _frequency_summary
    ),
    "snr-vs-distance": SnrStudy(
        ("distance_m", "coupling"), _distance_points, _distance_summary
    ),
    "snr-vs-angle": SnrStudy(
        ("bend_angle_deg", "coupling"), _angle_points, _angle_summary
    ),
    "snr-vs-metal": SnrStudy(
        ("appliance",),
        _metal_points,
        _metal_summary,
        extra_columns=("detection_rate", "foreign_resonator_rate"),
        extra=_metal_frame_flags,
    ),
}


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


EXPERIMENTS = (*SNR_STUDIES, "press-accuracy")


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment, write the CSV table and a JSON summary next to
    it, and return the summary."""
    if spec.experiment in SNR_STUDIES:
        study = SNR_STUDIES[spec.experiment]
        header, rows, summary = run_snr_study(study, spec.trials, spec.seed)
    else:
        header, rows, summary = press_accuracy(spec.trials, spec.seed)
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
