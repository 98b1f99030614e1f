"""Synthetic frequency-sweep generation.

Combines the coupled-coil and bridge models with a calibrated
coupling-vs-geometry law, analyzer noise, slow drift, and optional
metal-proximity perturbations to produce traces the detector consumes.

Generation is a pure function of (configs, seed, timestamp): the noise
generator is re-seeded per sweep from (seed, timestamp), so sweeps can
be produced in any order, block or process and stay bit-identical.
Every sweep is made in a block on one grid (``synthesize_block``): a
single sweep is a one-row block and a scripted session is one block.
A block evaluates each distinct ring state once and seeds the noise of
all its rows at once (``_pcg64_states``).  The terms that depend only
on the grid, reader and bridge, and the drift phases of each seed, are
computed once and shared read-only between sweeps.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import defaults
from .bridge import BridgeConfig, bridge_output, to_db_magnitude
from .circuit import CoilParams, CoupledPair, capacitance_for_resonance, load_impedance, sensor_impedance
from .trace import SweepBlock

if TYPE_CHECKING:
    from .decode import RingProfile

# Period of the slow sinusoidal wander used to realize drift rates.
DRIFT_PERIOD_S = 10.0


class DataFormatError(ValueError):
    """Malformed sweep/session file."""


# Default grid: 27-30 MHz in 60 kHz steps, 5 sweeps/s.
@dataclass(frozen=True)
class SweepConfig:
    start_frequency: float = 27e6
    stop_frequency: float = 30e6
    step: float = 60e3
    acquisition_rate: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN fails every comparison below and inf overflows round(span)
        for name in ("start_frequency", "stop_frequency", "step", "acquisition_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.start_frequency >= self.stop_frequency:
            raise ValueError("start_frequency must be < stop_frequency")
        if self.step <= 0:
            raise ValueError("step must be > 0")
        span = (self.stop_frequency - self.start_frequency) / self.step
        if not math.isfinite(span) or abs(span - round(span)) > 1e-9 * max(1.0, span):
            raise ValueError("(stop - start) / step must be finite and integral")
        if self.acquisition_rate <= 0:
            raise ValueError("acquisition_rate must be > 0")
        # the noise streams take the seed as one uint32 word
        if not 0 <= self.seed <= _MASK32:
            raise ValueError(f"seed must be in [0, 2**32), got {self.seed!r}")

    @property
    def point_count(self) -> int:
        return int(round((self.stop_frequency - self.start_frequency) / self.step)) + 1

    def frequencies(self) -> np.ndarray:
        return self.start_frequency + self.step * np.arange(self.point_count)


@dataclass(frozen=True)
class GeometryScenario:
    """Ring-to-wristband geometry mapped to a coupling coefficient."""

    distance: float = defaults.REFERENCE_DISTANCE_M
    bend_angle: float = 0.0
    reference_coupling: float = defaults.K_REFERENCE
    reference_distance: float = defaults.REFERENCE_DISTANCE_M

    def __post_init__(self) -> None:
        if self.distance <= 0:
            raise ValueError("distance must be > 0")
        if not 0.0 <= self.bend_angle <= 90.0:
            raise ValueError("bend_angle must be in [0, 90] degrees")
        if not 0.0 < self.reference_coupling < 1.0:
            raise ValueError("reference_coupling must be in (0, 1)")
        if self.reference_distance <= 0:
            raise ValueError("reference_distance must be > 0")


@dataclass(frozen=True)
class DisturbanceModel:
    noise_sigma: float = defaults.NOISE_SIGMA_DB
    amplitude_drift: float = 0.0
    frequency_drift: float = 0.0
    metal_baseline: Optional[tuple] = None
    nearby_resonator_shift: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so ``< 0`` alone would let it pass
        # and silently switch the term off.
        for name in ("noise_sigma", "amplitude_drift", "frequency_drift"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        if not math.isfinite(self.nearby_resonator_shift):
            raise ValueError("nearby_resonator_shift must be finite")
        if self.metal_baseline is not None and not all(map(math.isfinite, self.metal_baseline)):
            raise ValueError("metal_baseline entries must be finite")


def coupling_from_geometry(scene: GeometryScenario) -> float:
    """Coupling coefficient from distance and finger-bend angle.

    Far-field dipole falloff (inverse cube in distance) anchored at the
    scenario's reference point, with a cosine misalignment factor.
    """
    k = (
        scene.reference_coupling
        * (scene.reference_distance / scene.distance) ** 3
        * math.cos(math.radians(scene.bend_angle))
    )
    return min(max(k, 0.0), 1.0 - 1e-12)


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=256)
def _drift_phases(seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0xD217]))
    return _read_only(rng.uniform(0.0, 2.0 * math.pi, size=4))[0]


@lru_cache(maxsize=32)
def _grid(start: float, stop: float, step: float) -> tuple:
    """Frequencies and normalized grid of one sweep grid, read-only."""
    f = SweepConfig(start, stop, step).frequencies()
    return _read_only(f, (f - f.mean()) / ((f[-1] - f[0]) / 2.0))


@lru_cache(maxsize=32)
def _grid_terms(
    start: float, stop: float, step: float, reader: CoilParams, bridge: BridgeConfig
) -> tuple:
    """Per-frame invariants of one (grid, reader, bridge): frequencies,
    normalized grid, reader impedance, unloaded bridge level and the
    static quadratic offset.  Computed once and returned read-only."""
    f, x = _grid(start, stop, step)
    z_reader = sensor_impedance(reader, f)
    p_unloaded = to_db_magnitude(
        bridge_output(bridge, z_reader, z_reader), bridge.input_amplitude
    )
    # Static offset from the deliberate reference mismatch: a quadratic in
    # f carrying the magnitude of the unloaded bridge response.
    quad = np.polynomial.polynomial.polyfit(x, p_unloaded, 2)
    offset = np.polynomial.polynomial.polyval(x, quad)
    return (f, x) + _read_only(z_reader, p_unloaded, offset)


def _noise_key(t: float) -> int:
    """Key of the noise stream of a sweep at ``t`` seconds: the timestamp
    in whole nanoseconds, which must be finite, >= 0 and below 2**64."""
    ns = t * 1e9
    if math.isfinite(ns):
        key = round(ns)
        if 0 <= key < 1 << 64:
            return key
    raise ValueError(
        f"timestamp {t!r} s must be finite, >= 0 and below 2**64 ns (about 584 years)"
    )


# Seeding of a row's noise stream, computed for a whole block at once.
# NumPy's ``SeedSequence`` (NEP 19) hashes its entropy words into a pool
# of four uint32 words and hashes the pool out into the PCG64 seed words;
# ``PCG64`` then runs the PCG set-seed step (O'Neill 2014).  Both are
# fixed algorithms with data-independent hash constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# PCG's default 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# NumPy's MIX_MULT_L/MIX_MULT_R
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n: int) -> tuple:
    """Xor and multiply constants of ``n`` successive hash steps: a step
    xors in the hash constant, advances it by ``mult`` and multiplies by
    the new value."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _MASK32
        mults.append(init)
    return np.array(xors, np.uint32), np.array(mults, np.uint32)


# NumPy's INIT_A/MULT_A: 4 steps fill the pool, 12 mix it
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# NumPy's INIT_B/MULT_B: one step per output word
_OUT_XOR, _OUT_MULT = (c[:, None] for c in _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
# The mix hashes each source word s into the other three in ascending
# order, steps 4 + 3s to 6 + 3s.  The pool lives in rows 0-3 of a 7-row
# buffer whose rows 4-6 repeat rows 0-2, so the other three words are
# the slice s+1 : s+4, in the order s+1, s+2, s+3 (mod 4); each
# source's constants are put in that order.
_MIX_STEPS = [
    [4 + 3 * s + (d if d < s else d - 1) for d in ((s + 1) % 4, (s + 2) % 4, (s + 3) % 4)]
    for s in range(4)
]
_MIX_XOR = [_POOL_XOR[steps][:, None] for steps in _MIX_STEPS]
_MIX_MULT = [_POOL_MULT[steps][:, None] for steps in _MIX_STEPS]
# after the mix, pool words 0, 1, 2, 3 sit in buffer rows 4, 5, 6, 3
_OUT_ROWS = np.array([4, 5, 6, 3, 4, 5, 6, 3])


def _pcg64_states(seed: int, keys: Sequence[int]) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence([seed & 0xFFFFFFFF, key])``
    for each key (0 <= key < 2**64), hashed for all keys at once.

    The entropy is the four words ``[seed, key_lo, key_hi, 0]``: NumPy
    hashes a missing pool word as 0, so this equals its two- and
    three-word entropy.  The hash is uint32 array arithmetic, which wraps
    silently; the 128-bit PCG step is on Python ints."""
    k = np.array(keys, dtype=np.uint64)
    b = np.empty((7, len(k)), np.uint32)
    b[0] = seed & _MASK32
    b[1] = k
    b[2] = k >> np.uint64(32)
    b[3] = 0
    pool = b[:4]
    pool ^= _POOL_XOR[:4, None]
    pool *= _POOL_MULT[:4, None]
    pool ^= pool >> 16
    b[4:] = b[:3]
    for s in range(4):
        if s == 2:
            # from source 2 on, words 1 and 2 change in rows 5 and 6
            b[5:] = b[1:3]
        h = b[s] ^ _MIX_XOR[s]
        h *= _MIX_MULT[s]
        h ^= h >> 16
        h *= _MIX_MULT_R
        dst = b[s + 1 : s + 4]
        dst *= _MIX_MULT_L
        dst -= h
        dst ^= dst >> 16
    words = b[_OUT_ROWS]
    words ^= _OUT_XOR
    words *= _OUT_MULT
    words ^= words >> 16
    # Four uint64 seed words, low half first: initstate is words 0-1 and
    # initseq words 2-3, high word first.  PCG's set-seed takes
    # inc = 2 initseq + 1 and steps the LCG from 0, adds initstate and
    # steps again.
    states = []
    for s0, s1, s2, s3, i0, i1, i2, i3 in words.T.tolist():
        initstate = (s0 | s1 << 32) << 64 | s2 | s3 << 32
        inc = ((i0 | i1 << 32) << 65 | (i2 | i3 << 32) << 1 | 1) & _MASK128
        states.append((((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _shifted_sensor(sensor: CoilParams, shift_hz: float) -> CoilParams:
    if shift_hz == 0.0:
        return sensor
    f0 = sensor.resonant_frequency + shift_hz
    return CoilParams(
        inductance=sensor.inductance,
        resistance=sensor.resistance,
        capacitance=capacitance_for_resonance(sensor.inductance, f0),
    )


def synthesize_block(
    cfg: SweepConfig,
    pairs: Sequence[CoupledPair],
    bridge: BridgeConfig,
    disturb: DisturbanceModel,
    timestamps: Sequence[float],
) -> SweepBlock:
    """Analyzer sweeps on one grid, row i for ``pairs[i]`` at time
    ``timestamps[i]``: bridge transfer magnitude in dB plus metal
    baseline, drift, and per-point Gaussian noise.

    The noise-free level runs through circuit, bridge and dB once per
    distinct (pair, resonance shift) in the block and is shared by the
    rows that have it; under frequency drift the shift moves with time,
    so each row is its own.  Every row then adds the amplitude drift and
    noise of its own timestamp, so a row does not depend on the block it
    is synthesized in."""
    times = [float(t) for t in timestamps]
    if len(pairs) != len(times):
        raise ValueError(f"{len(pairs)} pairs but {len(times)} timestamps")
    f, x = _grid(cfg.start_frequency, cfg.stop_frequency, cfg.step)
    phases = _drift_phases(cfg.seed)
    metal = (
        None
        if disturb.metal_baseline is None
        else np.polynomial.polynomial.polyval(x, np.asarray(disturb.metal_baseline, float))
    )

    levels: list[np.ndarray] = []
    level_of: dict = {}
    which = []
    key = None
    for pair, t in zip(pairs, times):
        f0_shift = disturb.nearby_resonator_shift
        if disturb.frequency_drift > 0.0:
            f0_shift += (
                disturb.frequency_drift
                * DRIFT_PERIOD_S
                / (2.0 * math.pi)
                * math.sin(2.0 * math.pi * t / DRIFT_PERIOD_S + phases[3])
            )
        # rows come in runs of one state, so most rows match the last key
        # by identity and skip hashing the pair
        if key is not None and pair is key[0] and f0_shift == key[1]:
            which.append(which[-1])
            continue
        key = (pair, f0_shift)
        if key not in level_of:
            level_of[key] = len(levels)
            _, _, z_reader, p_unloaded, offset = _grid_terms(
                cfg.start_frequency, cfg.stop_frequency, cfg.step, pair.reader, bridge
            )
            pair_t = CoupledPair(pair.reader, _shifted_sensor(pair.sensor, f0_shift), pair.coupling)
            z_load = load_impedance(pair_t, f)
            p_loaded = to_db_magnitude(
                bridge_output(bridge, z_load, z_reader), bridge.input_amplitude
            )
            # The sensor's reflected signature rides on the static offset
            # as the exact loaded/unloaded level difference.
            level = offset + (p_loaded - p_unloaded)
            levels.append(level if metal is None else level + metal)
        which.append(level_of[key])
    stacked = np.array(levels).reshape(len(levels), len(f))
    # under frequency drift each row has its own level, and the list is a
    # whole copy of the block
    del levels
    magnitudes = stacked[np.array(which, dtype=np.intp)]

    if disturb.amplitude_drift > 0.0:
        amp = disturb.amplitude_drift * DRIFT_PERIOD_S / (2.0 * math.pi)
        t = np.array(times)[:, None]
        coeffs = amp * np.sin(2.0 * math.pi * t / DRIFT_PERIOD_S + phases[:3])
        magnitudes += np.polynomial.polynomial.polyval(x, coeffs.T)

    if disturb.noise_sigma > 0.0 and times:
        noise = noise_rows(cfg.seed, times, len(f))
        with np.errstate(over="raise"):
            try:
                noise *= disturb.noise_sigma
            except FloatingPointError:
                raise ValueError(
                    f"noise_sigma {disturb.noise_sigma:g} dB overflows the sweep noise"
                ) from None
        magnitudes += noise
    return SweepBlock(f, magnitudes, times)


def noise_rows(seed: int, times: Sequence[float], n: int) -> np.ndarray:
    """``(len(times), n)`` standard-normal rows, row i drawn from its own
    stream ``SeedSequence([seed & 0xFFFFFFFF, key])`` -> ``PCG64`` with
    the key of ``times[i]``.  A noisy block adds ``noise_sigma`` times
    these rows, which is bit for bit what ``Generator.normal(0.0, sigma)``
    would add.  The streams of all rows are seeded at once by
    ``_pcg64_states``, checked against NumPy's seeding of row 0, which
    then draws from the generator NumPy seeded."""
    seed &= _MASK32
    keys = [_noise_key(t) for t in times]
    rows = np.empty((len(keys), n))
    if not keys:
        return rows
    states = _pcg64_states(seed, keys)
    bits = np.random.PCG64(np.random.SeedSequence([seed, keys[0]]))
    first = bits.state["state"]
    if states[0] != (first["state"], first["inc"]):
        raise RuntimeError(
            "noise seeding no longer matches numpy's SeedSequence -> PCG64 "
            f"(numpy {np.__version__})"
        )
    gen = np.random.Generator(bits)
    gen.standard_normal(out=rows[0])
    for row, (state, inc) in zip(rows[1:], states[1:]):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
    return rows


def synthesize_sweep(
    cfg: SweepConfig,
    pair: CoupledPair,
    bridge: BridgeConfig,
    disturb: DisturbanceModel = DisturbanceModel(),
    t: float = 0.0,
) -> SweepBlock:
    """One analyzer sweep at time ``t``, as the one-row ``synthesize_block``."""
    return synthesize_block(cfg, (pair,), bridge, disturb, (t,))


def scripted_session(
    events: Sequence[tuple],
    profile: RingProfile,
    cfg: SweepConfig,
    *,
    reader: CoilParams,
    bridge: BridgeConfig,
    sensor_inductance: float,
    sensor_resistance: float,
    duration: float,
    disturb: DisturbanceModel = DisturbanceModel(),
    scene_timeline: Sequence[tuple] | GeometryScenario = GeometryScenario(),
) -> SweepBlock:
    """Generate the sweep train for a timed switch-state sequence, as one
    block.

    ``events`` is a list of (time_s, state_label); the ring idles in the
    profile's first state until the first event.  ``scene_timeline`` is
    either one geometry or a list of (time_s, GeometryScenario).  The
    whole train is one ``synthesize_block`` call; a ``duration`` that is
    not finite or gives no frame is a ``ValueError``.
    """
    events = sorted(events, key=lambda e: e[0])
    for _, label in events:
        if profile.frequency_of(label) is None:
            raise ValueError(f"unknown state label {label!r} for profile {profile.name!r}")
    if isinstance(scene_timeline, GeometryScenario):
        scene_timeline = [(0.0, scene_timeline)]
    scene_timeline = sorted(scene_timeline, key=lambda e: e[0])

    frames = duration * cfg.acquisition_rate
    frame_count = round(frames) if math.isfinite(frames) else 0
    if frame_count <= 0:
        raise ValueError(
            f"duration must be finite and give at least one frame at "
            f"{cfg.acquisition_rate:g} frames/s, got {duration!r} s"
        )
    times = [i / cfg.acquisition_rate for i in range(frame_count)]
    pairs = []
    pair_of: dict = {}
    state = profile.states[0].label
    ei = 0
    si = 0
    scene = scene_timeline[0][1]
    for t in times:
        while ei < len(events) and events[ei][0] <= t:
            state = events[ei][1]
            ei += 1
        while si < len(scene_timeline) and scene_timeline[si][0] <= t:
            scene = scene_timeline[si][1]
            si += 1
        if (state, scene) not in pair_of:
            sensor = CoilParams(
                inductance=sensor_inductance,
                resistance=sensor_resistance,
                capacitance=capacitance_for_resonance(
                    sensor_inductance, profile.frequency_of(state)
                ),
            )
            pair_of[state, scene] = CoupledPair(reader, sensor, coupling_from_geometry(scene))
        pairs.append(pair_of[state, scene])

    return synthesize_block(cfg, pairs, bridge, disturb, times)


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = "frequency_hz,magnitude_db"


def sweep_to_csv(sweep: SweepBlock, path) -> None:
    """Write the one sweep of a one-row block as CSV.  Floats use
    shortest round-trip formatting, so reading the file back reproduces
    the values bit-exactly."""
    if len(sweep) != 1:
        raise ValueError(f"a sweep CSV holds one sweep, got a block of {len(sweep)}")
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for f, m in zip(sweep.frequencies.tolist(), sweep.magnitudes_db[0].tolist()):
            fh.write(f"{f!r},{m!r}\n")


def sweep_from_csv(path) -> SweepBlock:
    """Read a sweep CSV as a one-row block at t = 0."""
    freqs = []
    mags = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise DataFormatError(
                f"{path}: line 1: expected header {CSV_HEADER!r}, got {header!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
            try:
                freqs.append(float(parts[0]))
                mags.append(float(parts[1]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
    try:
        return SweepBlock(np.array(freqs), np.array(mags)[None, :], (0.0,))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def session_to_json(block: SweepBlock, path) -> None:
    """Write a sweep train as one columnar JSON object: the grid once
    (``frequencies_hz``), the ``timestamps_s`` and one row of
    ``magnitudes_db`` per sweep.  Floats use shortest round-trip
    formatting, so reading the file back reproduces the values
    bit-exactly."""
    doc = {
        "frequencies_hz": block.frequencies.tolist(),
        "timestamps_s": block.timestamps.tolist(),
        "magnitudes_db": block.magnitudes_db.tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def session_from_json(path) -> SweepBlock:
    """Read a session file as one block, validated once.

    The file is a columnar object as ``session_to_json`` writes it, or
    the older JSON array of records, each with a ``timestamp_s`` and
    either inline points or a ``sweep_file`` reference relative to the
    session.  Every sweep of a session is on one grid, and the
    timestamps are finite, >= 0 and non-decreasing."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    if isinstance(doc, dict):
        frequencies, timestamps, magnitudes = _columns(path, doc)
    elif isinstance(doc, list):
        frequencies, timestamps, magnitudes = _records(path, doc)
    else:
        raise DataFormatError(
            f"{path}: expected a columnar session object or a JSON array of sweep records"
        )
    # decoding assumes a time-ordered train
    previous = np.concatenate(([0.0], timestamps[:-1]))
    bad = ~(np.isfinite(timestamps) & (timestamps >= previous))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataFormatError(
            f"{path}: record {i}: timestamp_s {float(timestamps[i])!r} must be finite, "
            f">= 0 and not before the previous record ({float(previous[i])!r})"
        )
    try:
        return SweepBlock(frequencies, magnitudes, timestamps)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


# Names of the array kinds NumPy builds from JSON values that are not
# numbers; ``np.asarray(..., dtype=float)`` would convert "0.01" and true.
_NOT_NUMBERS = {"U": "strings", "b": "booleans"}


def _numbers(value) -> np.ndarray:
    """A JSON number or (nested) list of numbers as a float array; a
    string, boolean, null or other value is a ``ValueError``, told by the
    kind of the array NumPy builds from it."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":
        found = _NOT_NUMBERS.get(a.dtype.kind, "values that are not numbers")
        raise ValueError(f"must hold only numbers, found {found}")
    return a.astype(float, copy=False)


def _columns(path, doc: dict) -> tuple:
    """Grid (N,), timestamps (T,) and magnitudes (T, N) of a columnar
    session object."""
    arrays = []
    for key in ("frequencies_hz", "timestamps_s", "magnitudes_db"):
        if key not in doc:
            raise DataFormatError(f"{path}: columnar session has no {key!r}")
        try:
            arrays.append(_numbers(doc[key]))
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: {key}: {exc}") from None
    f, t, m = arrays
    if f.ndim != 1 or t.ndim != 1:
        raise DataFormatError(f"{path}: frequencies_hz and timestamps_s must be lists of numbers")
    if m.size == 0 and not len(t):
        m = m.reshape(0, len(f))
    if m.shape != (len(t), len(f)):
        raise DataFormatError(
            f"{path}: magnitudes_db must hold one row of {len(f)} values per timestamp "
            f"({len(t)} rows), got shape {m.shape}"
        )
    return f, t, m


def _records(path, records: list) -> tuple:
    """Grid (N,), timestamps (T,) and magnitudes (T, N) of an array of
    sweep records."""
    grid = None
    times = []
    rows = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "timestamp_s" not in rec:
            raise DataFormatError(f"{path}: record {i}: missing 'timestamp_s'")
        try:
            times.append(float(_numbers(rec["timestamp_s"])))
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: record {i}: timestamp_s: {exc}") from None
        if "sweep_file" in rec:
            if not isinstance(rec["sweep_file"], str):
                raise DataFormatError(f"{path}: record {i}: sweep_file must be a path string")
            sweep = sweep_from_csv(os.path.join(os.path.dirname(os.fspath(path)), rec["sweep_file"]))
        elif "frequencies_hz" in rec and "magnitudes_db" in rec:
            try:
                sweep = SweepBlock(
                    _numbers(rec["frequencies_hz"]), [_numbers(rec["magnitudes_db"])], (0.0,)
                )
            except (TypeError, ValueError) as exc:
                raise DataFormatError(f"{path}: record {i}: {exc}") from None
        else:
            raise DataFormatError(
                f"{path}: record {i}: needs 'sweep_file' or inline points"
            )
        if grid is None:
            grid = sweep.frequencies
        elif not np.array_equal(sweep.frequencies, grid):
            raise DataFormatError(
                f"{path}: record {i}: frequencies differ from record 0's; "
                "a session has one grid"
            )
        rows.append(sweep.magnitudes_db[0])
    if grid is None:
        return np.empty(0), np.empty(0), np.empty((0, 0))
    return grid, np.array(times), np.array(rows)
