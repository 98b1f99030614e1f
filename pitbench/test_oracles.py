"""Tests of the benchmark's own checks.

    python3 -m pytest pitbench/test_oracles.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import pitkit  # noqa: E402
from pitkit import defaults, experiments  # noqa: E402

NOISELESS = pitkit.DisturbanceModel(noise_sigma=0.0)


def _pair(f0, turns, k):
    inductance, resistance, n_caps = defaults.TURN_TABLE[turns]
    ring = pitkit.CoilParams(inductance, resistance + n_caps * defaults.CAPACITOR_ESR_OHM,
                             pitkit.capacitance_for_resonance(inductance, f0))
    return pitkit.CoupledPair(defaults.reader_coil(), ring, k)


@pytest.mark.parametrize("grid_args,f0,turns,k", [
    ((27e6, 30e6, 60e3), 29e6, 8, 1e-3),
    ((27e6, 30e6, 60e3), 28e6, 3, 2.35e-3),
    ((27e6, 30e6, 60e3), 29.4e6, 8, 1e-3),
    ((27e6, 30e6, 60e3), 29e6, 9, oracles.coupling_at(0.05)),
    ((18e6, 42e6, 60e3), 37e6, 8, 1e-3),
])
def test_snr_oracle_matches_noiseless_pitkit_sweep(grid_args, f0, turns, k):
    cfg = pitkit.SweepConfig(*grid_args)
    bridge = defaults.bridge_config()
    pair = _pair(f0, turns, k)
    with_ring = pitkit.synthesize_sweep(cfg, pair, bridge, NOISELESS)
    without = pitkit.synthesize_sweep(cfg, pitkit.CoupledPair(pair.reader, pair.sensor, 0.0),
                                      bridge, NOISELESS)
    f = oracles.grid(*grid_args)
    np.testing.assert_array_equal(with_ring.frequencies, f)
    bump = oracles.bump_db(f, f0, turns, k)
    assert np.max(np.abs(with_ring.magnitudes_db - without.magnitudes_db - bump)) < 1e-9
    _, height = experiments.noiseless_peak(pair, bridge, cfg)
    sigma = defaults.NOISE_SIGMA_DB
    assert abs(height / sigma - oracles.expected_snr(f, f0, turns, k, sigma)) < 1e-9 / sigma


def test_snr_study_points_cover_every_reported_row():
    points = oracles.snr_study_points()
    assert sorted(points["snr-vs-turns"]) == list(range(3, 10))
    assert len(points["snr-vs-frequency"]) == 21
    assert len(points["snr-vs-distance"]) == 16
    assert sorted(points["snr-vs-angle"]) == [0, 30, 50, 70]
    assert set(points["snr-vs-metal"]) == set(experiments.METAL_PRESETS)


def _press_downs():
    events, windows, _ = oracles.press_script(5, 6, 18, 5.0)
    return [a + 0.2 for a, _ in windows], windows


def test_press_oracle_accepts_one_press_down_per_window():
    downs, windows = _press_downs()
    assert oracles.press_faults(downs, windows, slack=0.2) == ([], [], 5)


def test_press_oracle_rejects_press_down_outside_its_window():
    downs, windows = _press_downs()
    moved = windows[1][1] + 0.6  # in the idle gap before the next press
    downs[1] = moved
    outside, duplicates, recognized = oracles.press_faults(downs, windows, slack=0.2)
    assert outside == [moved]
    assert duplicates == []
    assert recognized == 4


def test_press_oracle_rejects_duplicate_press_down():
    downs, windows = _press_downs()
    downs.append(windows[2][0] + 1.0)
    outside, duplicates, recognized = oracles.press_faults(sorted(downs), windows, slack=0.2)
    assert outside == []
    assert duplicates == [2]
    assert recognized == 5


A, B, C = "reed-a", "reed-b", "reed-c"


@pytest.mark.parametrize("labels,steps", [
    ([A, B, C, A, B], [(1, 1), (2, 1), (3, 1), (4, 1)]),
    ([A, C], []),  # a wrap from rest has no direction
    ([A, C, B, A, C], [(2, -1), (3, -1), (4, -1)]),
    ([A, B, A, C], [(1, 1), (2, -1), (3, -1)]),
    ([A, B, C, B, C, A], [(1, 1), (2, 1), (3, -1), (4, 1), (5, 1)]),
    ([A, B, B, C], [(1, 1), (3, 1)]),
    ([B, A, C, A], [(1, -1), (2, -1)]),  # c -> a after a ccw wrap clears direction
])
def test_scroll_oracle_counts_signed_steps(labels, steps):
    assert oracles.scroll_steps(labels) == steps


def test_expected_events_follow_the_script():
    script = [(1.0, "off"), (3.0, "on"), (5.0, "off"), (7.0, "on")]
    assert oracles.expected_events("press", "on", script, 9.0) == [
        (1.0, 3.0, "press-down"), (3.0, 5.0, "press-up"),
        (5.0, 7.0, "press-down"), (7.0, 9.0, "press-up")]
    script = [(1.0, "left-2mm"), (2.0, "idle"), (3.0, "press")]
    assert oracles.expected_events("slide", "idle", script, 4.0) == [
        (1.0, 2.0, "slide-left-2mm"), (3.0, 4.0, "slide-press")]
