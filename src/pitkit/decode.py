"""Mapping detected resonance peaks to ring switch states and input events.

Each ring profile is a designed map from mechanical switch states to
distinct resonant frequencies with a tolerance band per state.  Every
ring is decoded by one confirm-N debouncer over per-frame observations.
They are read from the columns of the ``Detection`` that
``detect_block`` returns, its one input; there is no per-frame path:
``classify_block`` gives each frame an integer code, the index of the
state its strongest peak classifies to or, for the scroll ring, the
bitmask of the reeds with a peak in band.  A frame without an in-band
peak observes the idle state, code 0; that one rule, in
``classify_block``, is where a held press whose resonance fades under
the detection threshold splits into release and re-press.  The
debouncer walks runs of equal codes, not frames.  Press, slide and
joystick rings name each confirmed transition; scroll rings step over
the confirmed reed sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detect import Detection, DetectorConfig, detect_stream

KINDS = ("press", "slide", "joystick", "scroll")

# Reed adjacency for the scroll ring: clockwise rotation activates the
# reeds in a->b->c order.  The wraparound transitions (c->a clockwise,
# a->c counterclockwise) continue an established rotation but are
# ambiguous from rest, so they only count when a direction context
# exists; any other jump resets the context.
_CW_NEXT = {"reed-a": "reed-b", "reed-b": "reed-c", "reed-c": "reed-a"}
_CCW_NEXT = {v: k for k, v in _CW_NEXT.items()}
_WRAP_CW = ("reed-c", "reed-a")
_WRAP_CCW = ("reed-a", "reed-c")


@dataclass(frozen=True)
class ProfileState:
    label: str
    frequency: float


@dataclass(frozen=True)
class RingProfile:
    name: str
    kind: str
    tolerance: float
    states: tuple

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        states = tuple(
            s if isinstance(s, ProfileState) else ProfileState(*s) for s in self.states
        )
        object.__setattr__(self, "states", states)
        if not states:
            raise ValueError("a profile needs at least one state")
        if self.kind == "press" and len(states) != 2:
            raise ValueError("a press profile has exactly two states: idle, then pressed")
        if self.kind == "scroll" and sorted(s.label for s in states) != sorted(_CW_NEXT):
            raise ValueError(f"a scroll profile's states are the reeds {', '.join(_CW_NEXT)}")
        freqs = sorted(s.frequency for s in states)
        if len(set(freqs)) != len(freqs) or not all(map(math.isfinite, freqs)):
            raise ValueError("state frequencies must be finite and distinct")
        half_gap = min((b - a for a, b in zip(freqs, freqs[1:])), default=math.inf) / 2
        if not (0 < self.tolerance < half_gap and math.isfinite(self.tolerance)):
            raise ValueError(
                f"tolerance {self.tolerance:g} Hz must be finite, positive and "
                f"below half the minimum state gap ({half_gap:g} Hz)"
            )

    @property
    def idle_label(self) -> str:
        return self.states[0].label

    def frequency_of(self, label: str) -> Optional[float]:
        for s in self.states:
            if s.label == label:
                return s.frequency
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "tolerance_hz": self.tolerance,
            "states": [
                {"label": s.label, "frequency_hz": s.frequency} for s in self.states
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RingProfile":
        try:
            states = tuple(
                ProfileState(s["label"], float(s["frequency_hz"]))
                for s in data["states"]
            )
            return cls(
                name=data["name"],
                kind=data["kind"],
                tolerance=float(data["tolerance_hz"]),
                states=states,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed profile: {exc}") from None

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RingProfile":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class InputEvent:
    time: float
    ring: str
    event: str
    confidence: float = 0.0
    step: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "time_s": self.time,
                "ring": self.ring,
                "event": self.event,
                "confidence": self.confidence,
                "step": self.step,
            }
        )


@dataclass(frozen=True)
class DebounceConfig:
    confirm_frames: int = 2

    def __post_init__(self) -> None:
        if self.confirm_frames < 1:
            raise ValueError("confirm_frames must be >= 1")


# Shipped profiles.  Tolerance 45 kHz: under half the tightest designed
# state gap (100 kHz) and under the 60 kHz sweep step.
DEFAULT_TOLERANCE_HZ = 45e3

PRESS_PROFILE = RingProfile(
    "press", "press", DEFAULT_TOLERANCE_HZ,
    (("on", 28.9e6), ("off", 28.0e6)),
)
SLIDE_PROFILE = RingProfile(
    "slide", "slide", DEFAULT_TOLERANCE_HZ,
    (
        ("idle", 28.7e6),
        ("left-2mm", 28.4e6),
        ("left-4mm", 28.1e6),
        ("right-2mm", 27.9e6),
        ("right-4mm", 27.7e6),
        ("press", 27.6e6),
    ),
)
JOYSTICK_PROFILE = RingProfile(
    "joystick", "joystick", DEFAULT_TOLERANCE_HZ,
    (
        ("idle", 28.7e6),
        ("right", 28.4e6),
        ("up", 28.1e6),
        ("left", 27.8e6),
        ("down", 27.6e6),
    ),
)
SCROLL_PROFILE = RingProfile(
    "scroll", "scroll", DEFAULT_TOLERANCE_HZ,
    (("reed-a", 29.3e6), ("reed-b", 28.9e6), ("reed-c", 28.6e6)),
)

PROFILE_PRESETS = {
    p.name: p for p in (PRESS_PROFILE, SLIDE_PROFILE, JOYSTICK_PROFILE, SCROLL_PROFILE)
}


def _strongest(row: np.ndarray) -> np.ndarray:
    """Index of each row's first, strongest, peak in a sorted table."""
    if not len(row):
        return row
    return np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))


def classify_block(detection: Detection, profile: RingProfile) -> tuple[np.ndarray, np.ndarray]:
    """The observation of each frame of a block, as (codes, top SNRs).

    Press, slide and joystick rings: the strongest peak wins (a single
    ring has one resonance; extra peaks are artifacts), and the code is
    the index of the state nearest it if within tolerance.  Scroll
    rings: the code is the bitmask of the reeds with a peak in band (bit
    j for ``profile.states[j]``); several reeds may be active at once.
    The idle observation is code 0 on every ring.  The top SNR is the
    SNR of the frame's strongest peak, which is its highest, since the
    peaks of a row share one sigma; 0.0 without peaks."""
    states = np.array([s.frequency for s in profile.states])
    row, frequency = detection.row, detection.frequency
    # A frame without an in-band peak observes idle; a fix for the
    # held-press split belongs here: a held press whose resonance fades
    # under the detection threshold for ``confirm_frames`` frames decodes
    # as press-down, press-up, press-down.
    codes = np.zeros(len(detection.sigma), dtype=np.intp)
    first = _strongest(row)
    if profile.kind == "scroll":
        in_band = np.abs(frequency[:, None] - states) <= profile.tolerance
        np.bitwise_or.at(codes, row, (in_band << np.arange(len(states))).sum(axis=1))
    else:
        distance = np.abs(frequency[first, None] - states)
        nearest = distance.argmin(axis=1)
        in_band = distance[np.arange(len(first)), nearest] <= profile.tolerance
        codes[row[first[in_band]]] = nearest[in_band]
    top = np.zeros(len(codes))
    top[row[first]] = detection.snr[first]
    return codes, top


def _state_of(profile: RingProfile, code: int):
    """The state a code stands for: a label, or for a scroll ring the
    frozenset of reed labels."""
    if profile.kind == "scroll":
        return frozenset(s.label for j, s in enumerate(profile.states) if code >> j & 1)
    return profile.states[code].label


def foreign_block(detection: Detection, profile: RingProfile) -> np.ndarray:
    """Per frame of a block, whether its strongest peak sits above every
    profile band: the signature of a nearby metallic resonator pulling
    the ring upward."""
    flags = np.zeros(len(detection.sigma), dtype=bool)
    first = _strongest(detection.row)
    top = max(s.frequency for s in profile.states)
    flags[detection.row[first]] = detection.frequency[first] > top + profile.tolerance
    return flags


def decode_scroll(activation_sequence: Sequence[frozenset]) -> list[tuple]:
    """Signed 45-degree steps from a time-ordered active-reed sequence.

    Returns (index, step) tuples with step +1 for clockwise and -1 for
    counterclockwise.  Frames without exactly one active reed hold the
    current position.
    """
    steps: list[tuple] = []
    prev: Optional[str] = None
    context = 0  # +1 cw, -1 ccw, 0 unknown
    for i, active in enumerate(activation_sequence):
        if len(active) != 1:
            continue
        (label,) = active
        if label not in _CW_NEXT:
            raise ValueError(f"unknown reed label {label!r}")
        if prev is None or label == prev:
            prev = label
            continue
        pair = (prev, label)
        if pair == _WRAP_CW:
            if context == 1:
                steps.append((i, 1))
            else:
                context = 0
        elif pair == _WRAP_CCW:
            if context == -1:
                steps.append((i, -1))
            else:
                context = 0
        elif _CW_NEXT[prev] == label:
            steps.append((i, 1))
            context = 1
        elif _CCW_NEXT[prev] == label:
            steps.append((i, -1))
            context = -1
        prev = label
    return steps


def _event_name(profile: RingProfile, new: str) -> Optional[str]:
    """The event a confirmed transition into ``new`` emits, or None."""
    if profile.kind == "press":
        return "press-up" if new == profile.idle_label else "press-down"
    if new == profile.idle_label:
        return None
    return f"{profile.kind}-{new}"


def _debounce(codes: np.ndarray, confirm_frames: int) -> np.ndarray:
    """Frames at which the confirm-N debouncer confirms a new state, for a
    frame sequence of observation codes starting from the idle code 0.

    A run of equal codes as long as ``confirm_frames`` confirms its code
    on its ``confirm_frames``-th frame, unless that code is already the
    confirmed one; shorter runs change nothing.  Each confirmation makes
    its run's code the confirmed one, so a run confirms exactly when its
    code differs from that of the last run that was long enough."""
    if not len(codes):
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    lengths = np.diff(np.append(starts, len(codes)))
    starts = starts[lengths >= confirm_frames]
    held = codes[starts]
    new = held != np.concatenate(([0], held[:-1]))
    return starts[new] + (confirm_frames - 1)


def decode_stream(
    sweeps,
    profile: RingProfile,
    det: DetectorConfig = DetectorConfig(),
    deb: DebounceConfig = DebounceConfig(),
) -> list[InputEvent]:
    """Decode a time-ordered sweep train into debounced input events.

    One rule debounces every ring.  ``classify_block`` turns each frame
    into an observation code; a frame without an in-band peak observes
    the idle state (the idle label; for scroll, no active reed).  A run
    of ``confirm_frames`` equal observations that differ from the
    confirmed state confirms them on its last frame, so shorter
    excursions produce nothing (``_debounce``).  Each confirmed
    transition keeps its frame's time and highest peak SNR.  Press rings
    emit press-down on leaving idle and press-up on returning; slide and
    joystick rings emit each non-idle state they enter; the scroll ring
    steps over the confirmed reed sets with ``decode_scroll``.

    Making a frame without an in-band peak observe idle is why a held
    press whose resonance stays under the detection threshold for
    ``confirm_frames`` frames decodes as press-down, press-up,
    press-down; ``classify_block`` holds that line.

    ``sweeps`` is a ``SweepBlock`` or sweeps on one grid.  Detection runs
    on row views of the one block (see ``detect_stream``), each chunk is
    classified as a whole, and the debouncer walks runs of equal codes.
    """
    codes, snrs, times = [], [], []
    for chunk, detection in detect_stream(sweeps, det):
        chunk_codes, chunk_snrs = classify_block(detection, profile)
        codes.append(chunk_codes)
        snrs.append(chunk_snrs)
        times.append(chunk.timestamps)
    if not codes:
        return []
    codes = np.concatenate(codes)
    frames = _debounce(codes, deb.confirm_frames)
    transitions = list(
        zip(
            np.concatenate(times)[frames].tolist(),
            codes[frames].tolist(),
            np.concatenate(snrs)[frames].tolist(),
        )
    )  # (time, new state code, SNR)

    if profile.kind == "scroll":
        reeds = [_state_of(profile, code) for _, code, _ in transitions]
        return [
            InputEvent(
                time=transitions[i][0],
                ring=profile.name,
                event="scroll-cw-45deg" if step > 0 else "scroll-ccw-45deg",
                confidence=transitions[i][2],
                step=step,
            )
            for i, step in decode_scroll(reeds)
        ]
    events = []
    for t, code, snr in transitions:
        name = _event_name(profile, _state_of(profile, code))
        if name is not None:
            events.append(InputEvent(time=t, ring=profile.name, event=name, confidence=snr))
    return events


def events_to_jsonl(events: Sequence[InputEvent]) -> str:
    return "".join(e.to_json() + "\n" for e in events)
