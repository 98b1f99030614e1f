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
    noise: tuple[np.ndarray, np.ndarray],
) -> float:
    """Empirical SNR from ``SNR_TRACE_COUNT`` with-sensor and
    without-sensor sweeps, evaluated at the noise-free peak location.

    ``noise`` is ``snr_noise(cfg)``: the standard-normal rows of the
    with-sensor sweeps (timestamps ``0 .. n-1`` frames) and of the
    without-sensor sweeps (``n .. 2n-1``).  Each set is one noise-free
    block plus ``disturb.noise_sigma`` times its rows, bit for bit what
    ``synthesize_block`` with ``disturb`` gives; the rows depend only on
    the seed and grid of ``cfg``, so the points of a study share them."""
    at_frequency, _ = noiseless_peak(pair, bridge, cfg, disturb)
    n = SNR_TRACE_COUNT
    times = [i / cfg.acquisition_rate for i in range(2 * n)]
    quiet = replace(disturb, noise_sigma=0.0)

    def traces(set_pair: CoupledPair, set_times: list, rows: np.ndarray) -> SweepBlock:
        block = synthesize_block(cfg, [set_pair] * n, bridge, quiet, set_times)
        magnitudes = disturb.noise_sigma * rows
        magnitudes += block.magnitudes_db
        return SweepBlock(block.frequencies, magnitudes, set_times)

    pair_off = CoupledPair(pair.reader, pair.sensor, 0.0)
    return compute_snr(
        traces(pair, times[:n], noise[0]), traces(pair_off, times[n:], noise[1]), at_frequency
    )


def snr_noise(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """The standard-normal rows of ``measure_snr``'s with-sensor and
    without-sensor sweeps on the grid and seed of ``cfg``."""
    n = SNR_TRACE_COUNT
    times = [i / cfg.acquisition_rate for i in range(2 * n)]
    points = cfg.point_count
    return noise_rows(cfg.seed, times[:n], points), noise_rows(cfg.seed, times[n:], points)


# Coupling range of the calibration and the steps of the geometric
# bisection whose result it returns.
K_RANGE = (1e-6, 0.05)
BISECT_STEPS = 40
# The secant phase stops once two evaluated couplings bracket the
# crossing within this relative width.  Step s of the bisection narrows
# K_RANGE to ln(5e4) / 2**s in log k, so only about its last seven
# midpoints fall inside a 1e-9 bracket and need evaluating.
BRACKET_WIDTH = 1e-9
# An evaluated height decides the side of a coupling the walk does not
# evaluate only when it clears the target by this fraction of it:
# 2e-12 dB at SNR 10 and sigma 0.002 dB, over 35x the 5.5e-14 dB by
# which two baseline fits of one sweep that are exact to rounding
# disagree, so rounding cannot make such a decision differ from
# evaluating the midpoint.
CLEARANCE = 1e-10
# Levels of the walk's bisection tree that one replay block holds; of
# those, only the midpoints that monotonicity leaves open are evaluated.
REPLAY_LEVELS = 3
# A bound on secant blocks per search, so a height the secant cannot
# bracket still ends; the replay is exact whatever bracket it leaves.
# Regula falsi took 2 to 7 blocks in 284 searches of 144 calibrations.
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

    Two searches on the noise-free residual height, which rises with k
    around the crossing: one for the target, then one with the target
    raised by the measured noisy-fit deficit -- under noise the clipped
    baseline sits slightly higher near the peak than in the noise-free
    fit.  Each returns, bit for bit, what a ``BISECT_STEPS``-step
    geometric bisection of ``K_RANGE`` returns, in two phases over one
    memo of noise-free residual rows by coupling:

    1. Bracket: regula falsi with the Illinois rule on log height
       against log k (the height grows about as k**2) detects two
       couplings around each estimate, until two evaluated couplings
       bracket the crossing within ``BRACKET_WIDTH``, each clearing the
       target by ``CLEARANCE``.
    2. Replay: walk the bisection.  By monotonicity a midpoint below
       the bracket falls short and one above it clears; the midpoints
       inside it are evaluated, ``REPLAY_LEVELS`` levels of the walk's
       tree per block.  If the evaluated heights ever contradict
       monotonicity, the walk starts again and evaluates every midpoint
       it visits.

    At seed 0 and target 16 (7-turn ring at 28 MHz) this takes 15
    noise-free blocks of 46 couplings, where evaluating the walk's
    midpoints two tree levels per block took 37 blocks of 110.  Raises
    ``ValueError`` for a target or ``noise_sigma`` that is not finite
    and positive, and for a target outside the reach of ``K_RANGE``."""
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

    def bounds(target: float) -> Optional[tuple[float, float]]:
        # The highest evaluated k that falls short of the target by the
        # clearance and the lowest that clears it (0 and inf if none);
        # None when a lower k clears where a higher one falls short.
        a = max((k for k, h in heights.items() if h <= target * (1 - CLEARANCE)), default=0.0)
        b = min((k for k, h in heights.items() if h >= target * (1 + CLEARANCE)), default=math.inf)
        return (a, b) if a < b else None

    def secant(target: float) -> None:
        # Two probes 0.9 bracket widths apart around each estimate: once
        # the estimate is that close, they bracket the crossing.
        half = 0.45 * math.log1p(BRACKET_WIDTH)
        weight_a = weight_b = 1.0
        a_kept = b_kept = False
        for _ in range(SECANT_BLOCKS):
            ab = bounds(target)
            if ab is None or ab[0] == 0.0 or ab[1] == math.inf:
                return
            a, b = ab
            if b / a - 1 <= BRACKET_WIDTH:
                return
            xa, xb = math.log(a), math.log(b)
            if heights[a] > 0.0:
                fa = math.log(heights[a] / target) * weight_a
                fb = math.log(heights[b] / target) * weight_b
                x = (xa * fb - xb * fa) / (fb - fa)
            else:
                x = (xa + xb) / 2
            quiet_residuals([k for k in (math.exp(x - half), math.exp(x + half)) if a < k < b])
            ab = bounds(target)
            if ab is None:
                return
            # Illinois: an end kept twice running counts half.
            weight_a = 1.0 if ab[0] != a else weight_a / 2 if a_kept else weight_a
            weight_b = 1.0 if ab[1] != b else weight_b / 2 if b_kept else weight_b
            a_kept, b_kept = ab[0] == a, ab[1] == b

    def below(k: float, target: float, ab: Optional[tuple[float, float]]) -> Optional[bool]:
        # Whether the walk's midpoint k falls short of the target: its own
        # height if evaluated, else monotonicity from the bounds ``ab``,
        # else None.
        if k in heights:
            return heights[k] < target
        if ab is not None and k <= ab[0]:
            return True
        if ab is not None and k >= ab[1]:
            return False
        return None

    def open_tree(lo: float, hi: float, levels: int, target: float, ab) -> list[float]:
        # The midpoints the walk's next ``levels`` steps can reach and
        # ``below`` leaves open.
        if not levels:
            return []
        mid = math.sqrt(lo * hi)
        side = below(mid, target, ab)
        if side is None:
            return [
                mid,
                *open_tree(lo, mid, levels - 1, target, ab),
                *open_tree(mid, hi, levels - 1, target, ab),
            ]
        return open_tree(*((mid, hi) if side else (lo, mid)), levels - 1, target, ab)

    def walk(target: float, ab: Optional[tuple[float, float]]) -> Optional[float]:
        # The bisection's result with midpoints decided by ``below``; None
        # once an evaluation contradicts the monotonicity that may have
        # decided earlier steps.
        lo, hi = K_RANGE
        for step in range(BISECT_STEPS):
            mid = math.sqrt(lo * hi)
            side = below(mid, target, ab)
            if side is None:
                levels = min(REPLAY_LEVELS, BISECT_STEPS - step)
                quiet_residuals(open_tree(lo, hi, levels, target, ab))
                if ab is not None:
                    ab = bounds(target)
                    if ab is None:
                        return None
                side = heights[mid] < target
            lo, hi = (mid, hi) if side else (lo, mid)
        return math.sqrt(lo * hi)

    def search(target: float) -> float:
        lo, hi = K_RANGE
        quiet_residuals([lo, hi])
        if heights[hi] < target:
            raise ValueError("target SNR unreachable within coupling bounds")
        if heights[lo] >= target:
            raise ValueError(
                "target SNR unreachable within coupling bounds: already met at the lower bound"
            )
        secant(target)
        k = walk(target, bounds(target))
        # Without monotonicity the walk evaluates every midpoint it visits.
        return k if k is not None else walk(target, None)

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

# Sweep grids of the study points; each trial sets its own seed.  The
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
    then ``extra(pair, bridge, grid, disturb, trials, seed)`` under
    ``extra_columns``.  ``summarize(rows)`` gives the summary."""

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
    by ``snr_noise``; only one trial's rows are alive at a time."""
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    points = list(study.points(reader))
    snrs = np.empty((len(points), trials))
    for trial in range(trials):
        noise_of: dict = {}
        for i, (_, pair, grid, disturb) in enumerate(points):
            cfg = replace(grid, seed=seed + trial)
            if cfg not in noise_of:
                noise_of[cfg] = snr_noise(cfg)
            snrs[i, trial] = measure_snr(pair, bridge, cfg, disturb, noise_of[cfg])
    rows = []
    for (key, pair, grid, disturb), point_snrs in zip(points, snrs):
        row = [*key, float(point_snrs.mean()), float(point_snrs.std())]
        if study.extra is not None:
            row += study.extra(pair, bridge, grid, disturb, trials, seed)
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


def _metal_frame_rates(pair, bridge, grid, disturb, trials: int, seed: int) -> list:
    """[detection rate, foreign-resonator rate] over ``METAL_FRAMES``
    detected frames per trial.  A frame counts as a detection when it has
    a peak within two grid steps of the noise-free peak."""
    det = DetectorConfig()
    peak_f, _ = noiseless_peak(pair, bridge, replace(grid, seed=seed), disturb)
    detections = 0
    foreign_flags = 0
    for trial in range(trials):
        cfg = replace(grid, seed=seed + trial)
        frames = synthesize_block(
            cfg,
            [pair] * METAL_FRAMES,
            bridge,
            disturb,
            [i / cfg.acquisition_rate for i in range(METAL_FRAMES)],
        )
        found = detect_block(frames.frequencies, frames.magnitudes_db, det)
        near = np.abs(found.frequency - peak_f) <= 2 * cfg.step
        detections += len(np.unique(found.row[near]))
        foreign_flags += int(foreign_block(found, PRESS_PROFILE).sum())
    n_frames = trials * METAL_FRAMES
    return [detections / n_frames, foreign_flags / n_frames]


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
        extra=_metal_frame_rates,
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
