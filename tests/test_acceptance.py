"""Acceptance suite: one test per release criterion.

Each test prints the measured figure next to its stated tolerance, so the
``pytest -v`` line for the test doubles as the pass/fail record for that
criterion.
"""

import itertools
import time

import numpy as np
import pytest

from pitkit import decode, defaults
from pitkit.bridge import BridgeConfig, bridge_output
from pitkit.circuit import (
    CoilParams,
    CoupledPair,
    capacitance_for_resonance,
    reflected_impedance,
)
from pitkit.dca import design_dca
from pitkit.decode import PROFILE_PRESETS, classify_block, decode_scroll
from pitkit.detect import compute_snr, detect_block, detect_peaks
from pitkit.experiments import (
    SNR_STUDIES,
    ExperimentSpec,
    press_accuracy_session,
    run_experiment,
    run_snr_study,
)
from pitkit.synth import (
    DisturbanceModel,
    SweepConfig,
    scripted_session,
    sweep_to_csv,
    synthesize_sweep,
)
from pitkit.trace import Sweep

GRID = SweepConfig().frequencies()
QUIET = DisturbanceModel(noise_sigma=0.0)


def test_criterion_1_dca_sizing_accuracy_and_speed():
    """18 series segments on a 3.7 uH coil resonant at 26.93 MHz need
    ~170 pF per segment; sizing must be within 1% and under 1 ms."""
    design = design_dca(inductance=3.7e-6, target_frequency=26.93e6, segment_count=18)
    error = abs(design.per_segment_capacitance - 170e-12) / 170e-12
    best = min(
        timed
        for timed in (
            (lambda t0: (design_dca(3.7e-6, 26.93e6, 18), time.perf_counter() - t0)[1])(
                time.perf_counter()
            )
            for _ in range(20)
        )
    )
    print(
        f"criterion 1: per-segment C = {design.per_segment_capacitance * 1e12:.2f} pF "
        f"(error {error:.2%}, tolerance 1%); best sizing time {best * 1e6:.0f} us "
        f"(limit 1 ms)"
    )
    assert error <= 0.01
    assert best < 1e-3


def test_criterion_2_reflected_peak_tracks_resonance():
    """For 1000 random sensor coils with quality factors in the design
    range the grid argmax of the reflected impedance magnitude falls
    within one 60 kHz step of the designed resonance; full batch under
    5 s."""
    rng = np.random.default_rng(0)
    reader = defaults.reader_coil()
    step = 60e3
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        inductance = rng.uniform(1e-7, 1e-5)
        f0 = rng.uniform(GRID[1], GRID[-2])
        quality = rng.uniform(20.0, 300.0)
        sensor = CoilParams(
            inductance=inductance,
            resistance=2.0 * np.pi * f0 * inductance / quality,
            capacitance=capacitance_for_resonance(inductance, f0),
        )
        pair = CoupledPair(reader, sensor, 1e-3)
        magnitude = np.abs(reflected_impedance(pair, GRID))
        f_hat = GRID[int(np.argmax(magnitude))]
        worst = max(worst, abs(f_hat - f0))
        assert abs(f_hat - f0) <= step
    elapsed = time.perf_counter() - start
    print(
        f"criterion 2: worst argmax offset {worst / 1e3:.1f} kHz (limit 60 kHz) "
        f"over 1000 coils in {elapsed:.2f} s (limit 5 s)"
    )
    assert elapsed < 5.0


def test_criterion_3_bridge_null_and_linearization():
    """A balanced bridge outputs exactly zero, and for perturbations up
    to 1% of the reference impedance the exact output matches the
    first-order small-signal form within 1%."""
    bridge = BridgeConfig()
    z_ref = 55.0 + 20.0j
    assert bridge_output(bridge, z_ref, z_ref) == 0
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        dz = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        dz *= 0.01 * abs(z_ref) / abs(dz) * rng.uniform(0.05, 1.0)
        exact = bridge_output(bridge, z_ref + dz, z_ref)
        linear = (
            bridge.amplifier_resistance * bridge.input_amplitude * dz / z_ref**2
        )
        worst = max(worst, abs(exact - linear) / abs(exact))
    print(
        f"criterion 3: balanced output exactly 0; worst linearization "
        f"mismatch {worst:.3%} (tolerance 1%) for |dZ| <= 1% |Z_ref|"
    )
    assert worst <= 0.01


def test_criterion_4_detection_and_false_positive_rates():
    """On 1000 noisy fixtures carrying a 0.1 dB peak over a curved
    background, with the peak inside the 27.6-29.4 MHz operating band
    (where all profile states sit), the detector finds the peak >= 99%
    of the time and within 60 kHz; on 1000 peak-free fixtures it
    false-alarms <= 1%.  Whole study under 30 s."""
    rng = np.random.default_rng(2)
    x = (GRID - GRID.mean()) / 1.5e6
    background = -52.0 + 0.8 * x + 0.3 * x**2
    start = time.perf_counter()
    hits = 0
    localized = 0
    for _ in range(1000):
        center = rng.uniform(GRID[10], GRID[-11])
        y = background + 0.1 * np.exp(-0.5 * ((GRID - center) / 120e3) ** 2)
        y += rng.normal(0.0, 0.002, GRID.size)
        peaks = detect_peaks(Sweep(GRID, y))
        if peaks:
            hits += 1
            if abs(peaks[0].peak_frequency - center) <= 60e3:
                localized += 1
    false_alarms = 0
    for _ in range(1000):
        y = background + rng.normal(0.0, 0.002, GRID.size)
        if detect_peaks(Sweep(GRID, y)):
            false_alarms += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 4: detection {hits / 10:.1f}% (>= 99%), localization "
        f"{localized / 10:.1f}% within 60 kHz (>= 99%), false positives "
        f"{false_alarms / 10:.1f}% (<= 1%), {elapsed:.1f} s (limit 30 s)"
    )
    assert hits >= 990
    assert localized >= 990
    assert false_alarms <= 10
    assert elapsed < 30.0


def test_criterion_5_snr_definition_fixture():
    """SNR statistic on hand-built traces: a 0.02 dB mean gap over a
    0.002 dB population standard deviation is exactly SNR 10."""
    with_sensor = [Sweep(GRID, np.full(GRID.size, -54.98))] * 2
    without = [
        Sweep(GRID, np.full(GRID.size, -55.002)),
        Sweep(GRID, np.full(GRID.size, -54.998)),
    ]
    snr = compute_snr(with_sensor, without, 28.5e6)
    print(f"criterion 5: fixture SNR {snr:.6f} (expected 10 exactly)")
    assert snr == pytest.approx(10.0, abs=1e-9)
    with pytest.raises(ValueError):
        compute_snr(with_sensor[:1], without, 28.5e6)


def test_criterion_6_snr_vs_turns_trend():
    """Measured SNR grows monotonically from 3 to 7 turns and plateaus
    within 10% across 7-9 turns (seed 0)."""
    _, _, summary = run_snr_study(SNR_STUDIES["snr-vs-turns"], trials=1, seed=0)
    by_turn = summary["snr_by_turns"]
    print(
        "criterion 6: SNR by turns "
        + ", ".join(f"{n}:{by_turn[n]:.1f}" for n in sorted(by_turn))
        + f"; monotone 3-7 {summary['monotone_3_to_7']}, plateau change "
        f"{summary['plateau_7_to_9_change']:.2%} (limit 10%)"
    )
    assert summary["monotone_3_to_7"] is True
    assert summary["plateau_7_to_9_change"] <= 0.10


def test_criterion_7_snr_vs_distance_reach():
    """The 8-turn ring reads at SNR >= 10 out to 13 cm and drops below
    10 past 15 cm (seed 0)."""
    header, rows, summary = run_snr_study(SNR_STUDIES["snr-vs-distance"], trials=1, seed=0)
    by_distance = {round(r[0], 2): r[2] for r in rows}
    print(
        f"criterion 7: SNR {by_distance[0.13]:.1f} at 13 cm (>= 10); "
        f"SNR {by_distance[0.16]:.1f} at 16 cm (< 10); reach "
        f"{summary['max_distance_snr10_m']} m"
    )
    assert by_distance[0.13] >= 10.0
    for d, snr in by_distance.items():
        if d > 0.15:
            assert snr < 10.0
    assert summary["max_distance_snr10_m"] >= 0.13


def test_criterion_8_press_accuracy_vs_snr():
    """300 scripted presses: accuracy in [90%, 99%] at synthesized SNR 10
    and >= 99% at SNR 12 (seed 0); both sessions under 60 s."""
    start = time.perf_counter()
    acc_10 = press_accuracy_session(10.0, 300, seed=0)
    acc_12 = press_accuracy_session(12.0, 300, seed=0)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 8: accuracy {acc_10:.2%} at SNR 10 (band [90%, 99%]), "
        f"{acc_12:.2%} at SNR 12 (>= 99%), {elapsed:.1f} s (limit 60 s)"
    )
    assert 0.90 <= acc_10 <= 0.99
    assert acc_12 >= 0.99
    assert elapsed < 60.0


def test_criterion_9_every_profile_state_classifies():
    """In noiseless scripted sessions every state of all four shipped
    profiles is classified correctly, and scroll stepping matches an
    independent transition oracle on all short reed sequences."""
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    inductance, resistance, n_caps = defaults.TURN_TABLE[8]
    misses = []
    for name, profile in PROFILE_PRESETS.items():
        labels = [s.label for s in profile.states]
        events = [(float(i * 2 + 2), label) for i, label in enumerate(labels)]
        sweeps = scripted_session(
            events,
            profile,
            SweepConfig(seed=0),
            reader=reader,
            bridge=bridge,
            sensor_inductance=inductance,
            sensor_resistance=resistance + n_caps * defaults.CAPACITOR_ESR_OHM,
            duration=events[-1][0] + 2.0,
            disturb=QUIET,
        )
        for i, label in enumerate(labels):
            sweep = sweeps[(i * 2 + 2) * 5 + 2]
            detection = detect_block(sweep.frequencies, sweep.magnitudes_db[None, :])
            observed = decode._state_of(profile, classify_block(detection, profile)[0][0])
            expected = frozenset({label}) if profile.kind == "scroll" else label
            if observed != expected:
                misses.append((name, label, observed))
    assert misses == [], misses

    from test_decode import oracle_scroll

    frames = [
        frozenset({"reed-a"}),
        frozenset({"reed-b"}),
        frozenset({"reed-c"}),
        frozenset(),
    ]
    checked = 0
    for n in range(1, 6):
        for seq in itertools.product(frames, repeat=n):
            assert decode_scroll(list(seq)) == oracle_scroll(seq)
            checked += 1
    print(
        f"criterion 9: all {sum(len(p.states) for p in PROFILE_PRESETS.values())} "
        f"profile states classified; scroll decoder matches oracle on "
        f"{checked} sequences"
    )


def test_criterion_10_bit_exact_reproducibility(tmp_path):
    """Same-seed runs produce byte-identical sweep CSVs and experiment
    tables."""
    sweep_paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    pair = CoupledPair(
        defaults.reader_coil(),
        CoilParams(
            inductance=defaults.TURN_TABLE[8][0],
            resistance=defaults.TURN_TABLE[8][1],
            capacitance=capacitance_for_resonance(defaults.TURN_TABLE[8][0], 29e6),
        ),
        defaults.K_REFERENCE,
    )
    for path in sweep_paths:
        cfg = SweepConfig(seed=5)
        sweep = synthesize_sweep(cfg, pair, defaults.bridge_config(), t=0.4)
        sweep_to_csv(sweep, path)
    assert sweep_paths[0].read_bytes() == sweep_paths[1].read_bytes()

    table_paths = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
    for path in table_paths:
        run_experiment(
            ExperimentSpec("snr-vs-turns", trials=1, seed=3, output_path=str(path))
        )
    identical_csv = table_paths[0].read_bytes() == table_paths[1].read_bytes()
    identical_summary = (
        (tmp_path / "t1.csv.summary.json").read_bytes()
        == (tmp_path / "t2.csv.summary.json").read_bytes()
    )
    print(
        f"criterion 10: sweep CSVs identical True; experiment CSVs identical "
        f"{identical_csv}; summaries identical {identical_summary}"
    )
    assert identical_csv and identical_summary
