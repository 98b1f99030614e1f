"""Ground truth for the benchmark's checks, computed without pitkit.

Every expected value here comes from the circuit and bridge equations or
from the input script itself, never from the program under test or from
saved program output.  The physical constants restate the experiment
design (reader coil, ring turn table, bridge mismatch, geometry anchors
and metal presets), so a change to the program's physics shows up as a
disagreement instead of moving the expectation with it.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Wristband reader: 6 turns tuned to 27 MHz, 55 ohm including matching.
READER_L_H = 3.7e-6
READER_R_OHM = 55.0
READER_F_HZ = 27e6
# Bridge reference deficit; amplifier gain and drive level cancel in the
# loaded/unloaded ratio, so they do not appear.
MISMATCH = 0.15
# Ring turns -> (inductance H, winding resistance ohm, series capacitors).
TURN_TABLE = {
    3: (0.34e-6, 0.89, 1),
    4: (0.56e-6, 1.1, 2),
    5: (0.85e-6, 1.5, 2),
    6: (1.2e-6, 1.8, 2),
    7: (1.4e-6, 2.0, 3),
    8: (1.8e-6, 2.6, 3),
    9: (2.1e-6, 3.4, 3),
}
CAP_ESR_OHM = 0.08
NOISE_SIGMA_DB = 0.002
K_REFERENCE = 1e-3
REFERENCE_DISTANCE_M = 0.13
K_REFERENCE_BENDING = 2.35e-3
SNR_TRACES = 100

# Metal presets: (noise sigma dB, resonance pull of a second ring in Hz).
# Only smart-ring carries a second resonator.
METAL_PRESETS = {
    "qi-charger": (0.004, 0.0),
    "nfc-reader": (0.006, 0.0),
    "laptop": (0.003, 0.0),
    "microwave-oven": (0.008, 0.0),
    "hair-dryer": (0.01, 0.0),
    "smart-ring": (0.003, 400e3),
}
NO_RESONATOR = tuple(n for n, (_, shift) in METAL_PRESETS.items() if shift == 0.0)


def grid(start: float, stop: float, step: float) -> np.ndarray:
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


DEFAULT_GRID = grid(27e6, 30e6, 60e3)
WIDE_GRID = grid(18e6, 42e6, 60e3)


def _series_rlc(inductance: float, resistance: float, f0: float, f: np.ndarray) -> np.ndarray:
    w = TWO_PI * f
    capacitance = 1.0 / ((TWO_PI * f0) ** 2 * inductance)
    return resistance + 1j * (w * inductance - 1.0 / (w * capacitance))


def bump_db(f: np.ndarray, f0: float, turns: int, k: float) -> np.ndarray:
    """Loaded-minus-unloaded bridge level in dB at each frequency.

    The ring's reflected impedance (w*M)^2 / Z_ring adds to the reader
    impedance; the bridge output is proportional to 1/Z_load - 1/Z_ref,
    with Z_ref = Z_reader - m*|Z_reader|.
    """
    inductance, resistance, n_caps = TURN_TABLE[turns]
    z_reader = _series_rlc(READER_L_H, READER_R_OHM, READER_F_HZ, f)
    z_ring = _series_rlc(inductance, resistance + n_caps * CAP_ESR_OHM, f0, f)
    mutual = k * math.sqrt(READER_L_H * inductance)
    z_load = z_reader + (TWO_PI * f * mutual) ** 2 / z_ring
    z_ref = z_reader - MISMATCH * np.abs(z_reader)
    loaded = np.abs(1.0 / z_load - 1.0 / z_ref)
    unloaded = np.abs(1.0 / z_reader - 1.0 / z_ref)
    return 20.0 * np.log10(loaded / unloaded)


def expected_snr(f: np.ndarray, f0: float, turns: int, k: float, sigma: float) -> float:
    """Bump height at its grid maximum over the per-point noise sigma."""
    return float(bump_db(f, f0, turns, k).max()) / sigma


def snr_tolerance(snr: float, n: int = SNR_TRACES, z: float = 5.0) -> float:
    """z standard errors of an SNR estimated from n traces with and n
    without the ring: the mean difference carries sqrt(2/n) of noise and
    the sample sigma a relative error of 1/sqrt(2n)."""
    return z * math.sqrt(2.0 / n + snr * snr / (2.0 * n))


def coupling_at(distance_m: float = REFERENCE_DISTANCE_M, angle_deg: float = 0.0,
                k_ref: float = K_REFERENCE) -> float:
    """Dipole falloff k_ref * (d_ref / d)^3 * cos(angle)."""
    k = k_ref * (REFERENCE_DISTANCE_M / distance_m) ** 3 * math.cos(math.radians(angle_deg))
    return min(max(k, 0.0), 1.0 - 1e-12)


def snr_study_points() -> dict:
    """Per experiment: {row key: (grid, f0, turns, k, sigma)} for every
    point the five snr-vs-* studies report."""
    return {
        "snr-vs-turns": {
            n: (DEFAULT_GRID, 29e6, n, K_REFERENCE, NOISE_SIGMA_DB) for n in TURN_TABLE
        },
        "snr-vs-frequency": {
            m * 1e6: (WIDE_GRID, m * 1e6, 8, K_REFERENCE, NOISE_SIGMA_DB) for m in range(20, 41)
        },
        "snr-vs-distance": {
            d / 100: (DEFAULT_GRID, 29e6, 8, coupling_at(d / 100), NOISE_SIGMA_DB)
            for d in range(5, 21)
        },
        "snr-vs-angle": {
            a: (DEFAULT_GRID, 29e6, 8, coupling_at(angle_deg=a, k_ref=K_REFERENCE_BENDING),
                NOISE_SIGMA_DB)
            for a in (0, 30, 50, 70)
        },
        "snr-vs-metal": {
            name: (DEFAULT_GRID, 29e6 + shift, 8, K_REFERENCE, sigma)
            for name, (sigma, shift) in METAL_PRESETS.items()
        },
    }


# ---------------------------------------------------------------------------
# input scripts


def press_script(presses: int, idle_frames: int, hold_frames: int, rate: float):
    """Events, press windows (t_down, t_up) and duration of a session of
    ``presses`` holds, each after ``idle_frames`` of rest."""
    cycle = idle_frames + hold_frames
    events, windows = [], []
    for i in range(presses):
        t_down = (i * cycle + idle_frames) / rate
        t_up = (i * cycle + cycle) / rate
        events += [(t_down, "off"), (t_up, "on")]
        windows.append((t_down, t_up))
    return events, windows, (presses * cycle + idle_frames) / rate


def press_faults(downs, windows, slack: float):
    """(press-downs outside every window, windows with two or more
    press-downs, windows with at least one).  A window spans its hold,
    widened by ``slack`` on each side."""
    hits = [0] * len(windows)
    outside = []
    for t in downs:
        inside = [i for i, (a, b) in enumerate(windows) if a - slack <= t <= b + slack]
        if not inside:
            outside.append(t)
        for i in inside:
            hits[i] += 1
    duplicates = [i for i, h in enumerate(hits) if h > 1]
    return outside, duplicates, sum(1 for h in hits if h)


def expected_events(kind: str, idle: str, script, duration: float):
    """(start, end, event name) for each scripted state change that the
    decoder should report: press rings report 'off' as press-down and the
    return to 'on' as press-up; other rings report each non-idle state as
    '<kind>-<state>'.  The event must fall inside its scripted segment."""
    out = []
    previous = idle
    for i, (t, label) in enumerate(script):
        end = script[i + 1][0] if i + 1 < len(script) else duration
        if kind == "press":
            name = "press-down" if label == "off" else ("press-up" if previous == "off" else None)
        else:
            name = None if label == idle else f"{kind}-{label}"
        if name is not None:
            out.append((t, end, name))
        previous = label
    return out


_REEDS = ("reed-a", "reed-b", "reed-c")


def scroll_steps(labels) -> list:
    """Signed 45-degree steps for a sequence of single active reeds.

    Clockwise rotation visits a -> b -> c -> a.  A move to the next reed
    is +1 and to the previous one -1, except that the wraps c -> a and
    a -> c are ambiguous from rest: they count only while a rotation in
    their direction is under way, and otherwise clear the direction.
    Returns (index of the label that completed the step, step).
    """
    steps = []
    direction = 0
    for i in range(1, len(labels)):
        a, b = _REEDS.index(labels[i - 1]), _REEDS.index(labels[i])
        if a == b:
            continue
        step = 1 if (b - a) % 3 == 1 else -1
        if {a, b} == {0, 2}:
            if direction == step:
                steps.append((i, step))
            else:
                direction = 0
        else:
            steps.append((i, step))
            direction = step
    return steps
