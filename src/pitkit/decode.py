"""Mapping detected resonance peaks to ring switch states and input events.

Each ring profile is a designed map from mechanical switch states to
distinct resonant frequencies with a tolerance band per state.  Every
ring is decoded by one confirm-N debouncer over per-frame observations:
the state label the frame's peaks classify to, or for the scroll ring
the set of reeds with a peak in band.  A frame without an in-band peak
observes the idle state; that one rule, in ``decode_stream``, is where a
held press whose resonance fades under the detection threshold splits
into release and re-press.  Press, slide and joystick rings name each
confirmed transition; scroll rings step over the confirmed reed sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .detect import DetectorConfig, PeakReport, detect_stream

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


def classify_state(peaks: Sequence[PeakReport], profile: RingProfile):
    """Map detected peaks to a profile state.

    Non-scroll profiles: the strongest peak wins (a single ring has one
    resonance; extra peaks are artifacts).  Returns the label whose
    frequency is nearest that peak if within tolerance, else None.
    Scroll profiles return the frozenset of reed labels with a peak in
    band; several reeds may be active at once.
    """
    if profile.kind == "scroll":
        active = set()
        for peak in peaks:
            for s in profile.states:
                if abs(peak.peak_frequency - s.frequency) <= profile.tolerance:
                    active.add(s.label)
        return frozenset(active)
    if not peaks:
        return None
    strongest = max(peaks, key=lambda p: p.peak_height)
    nearest = min(profile.states, key=lambda s: abs(strongest.peak_frequency - s.frequency))
    if abs(strongest.peak_frequency - nearest.frequency) <= profile.tolerance:
        return nearest.label
    return None


def foreign_resonator(peaks: Sequence[PeakReport], profile: RingProfile) -> bool:
    """True when the strongest peak sits above every profile band: the
    signature of a nearby metallic resonator pulling the ring upward."""
    if not peaks:
        return False
    strongest = max(peaks, key=lambda p: p.peak_height)
    top = max(s.frequency for s in profile.states)
    return strongest.peak_frequency > top + profile.tolerance


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


def decode_stream(
    sweeps,
    profile: RingProfile,
    det: DetectorConfig = DetectorConfig(),
    deb: DebounceConfig = DebounceConfig(),
) -> list[InputEvent]:
    """Decode a time-ordered sweep train into debounced input events.

    One rule debounces every ring.  A frame's observation is
    ``classify_state`` of its peaks, and a frame without an in-band peak
    observes the idle state (the idle label; for scroll, no active reed).
    An observation equal to the confirmed state clears the candidate; one
    equal to the candidate extends its run, and any other starts a new
    run of one.  A run of ``confirm_frames`` confirms the candidate, so
    shorter excursions produce nothing.  Each confirmed transition keeps
    its frame's time and highest peak SNR.  Press rings emit press-down on
    leaving idle and press-up on returning; slide and joystick rings emit
    each non-idle state they enter; the scroll ring steps over the
    confirmed reed sets with ``decode_scroll``.

    The ``None -> idle`` line makes a frame without a peak count toward
    release.  It is why a held press whose resonance stays under the
    detection threshold for ``confirm_frames`` frames decodes as
    press-down, press-up, press-down; a fix for that belongs there.

    ``sweeps`` is a ``SweepBlock`` or sweeps on one grid.  Detection runs
    on row views of the one block (see ``detect_stream``); the debouncer
    then steps frame by frame.
    """
    scroll = profile.kind == "scroll"
    idle = frozenset() if scroll else profile.idle_label
    confirmed, candidate, run = idle, None, 0
    transitions: list[tuple] = []  # (time, new state, SNR)
    for sweep, _, peaks in detect_stream(sweeps, det):
        observed = classify_state(peaks, profile)
        if observed is None:  # a frame without a peak counts toward release
            observed = idle
        if observed == confirmed:
            candidate, run = None, 0
            continue
        run = run + 1 if observed == candidate else 1
        candidate = observed
        if run >= deb.confirm_frames:
            snr = max((p.snr for p in peaks), default=0.0)
            transitions.append((float(sweep.timestamp), candidate, snr))
            confirmed, candidate, run = candidate, None, 0

    if scroll:
        steps = decode_scroll([new for _, new, _ in transitions])
        return [
            InputEvent(
                time=transitions[i][0],
                ring=profile.name,
                event="scroll-cw-45deg" if step > 0 else "scroll-ccw-45deg",
                confidence=transitions[i][2],
                step=step,
            )
            for i, step in steps
        ]
    events = []
    for t, new, snr in transitions:
        name = _event_name(profile, new)
        if name is not None:
            events.append(InputEvent(time=t, ring=profile.name, event=name, confidence=snr))
    return events


def events_to_jsonl(events: Sequence[InputEvent]) -> str:
    return "".join(e.to_json() + "\n" for e in events)
