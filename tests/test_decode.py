"""State classification, debounced event decoding and scroll stepping."""

import itertools
import json
from collections import namedtuple
from types import SimpleNamespace
from typing import Optional, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitkit import decode, defaults
from pitkit.decode import (
    DebounceConfig,
    InputEvent,
    PROFILE_PRESETS,
    RingProfile,
    _debounce,
    classify_block,
    decode_scroll,
    decode_stream,
    events_to_jsonl,
    foreign_block,
)
from pitkit.detect import Detection, DetectorConfig, detect_stream
from pitkit.synth import DisturbanceModel, SweepConfig, scripted_session
from pitkit.trace import SweepBlock

GRID = 27e6 + 60e3 * np.arange(51)


def trace_with_peak(frequency, height=0.08):
    """A synthetic trace: flat floor plus a narrow bump at ``frequency``."""
    y = np.full(51, -55.0)
    if frequency is not None:
        y += height * np.exp(-0.5 * ((GRID - frequency) / 120e3) ** 2)
    return y


def stream_for(profile, labels, rate=5.0):
    """Sweep train visiting the given state labels, one frame each, as a
    block.  ``None`` means no resonance visible that frame."""
    rows = [trace_with_peak(profile.frequency_of(label) if label else None) for label in labels]
    return SweepBlock(
        GRID, np.array(rows).reshape(len(labels), len(GRID)), np.arange(len(labels)) / rate
    )


def block_of(rows):
    """A ``Detection`` of frames given as lists of (frequency, height)
    peaks, all with residual sigma 0.002 dB."""
    return detection_of([[(f, h, 0.002) for f, h in peaks] for peaks in rows])


def classify(rows, profile):
    """The state each frame's peaks classify to through ``classify_block``."""
    return [decode._state_of(profile, c) for c in classify_block(block_of(rows), profile)[0]]


class TestClassifyState:
    def test_press_profile_bands(self):
        press = PROFILE_PRESETS["press"]
        assert classify([[(28.9e6, 0.05)], [(28.02e6, 0.05)]], press) == ["on", "off"]

    def test_tolerance_boundary(self):
        rows = [[(28.0e6 + 45e3, 0.05)], [(28.0e6 + 46e3, 0.05)]]
        codes, _ = classify_block(block_of(rows), PROFILE_PRESETS["press"])
        assert codes.tolist() == [1, 0]

    def test_no_in_band_peak_is_idle(self):
        rows = [[], [(29.8e6, 0.05)], [(28.9e6, 0.05)]]
        codes, top = classify_block(block_of(rows), PROFILE_PRESETS["press"])
        assert codes.tolist() == [0, 0, 0]
        assert top.tolist() == [0.0, 0.05 / 0.002, 0.05 / 0.002]

    def test_strongest_peak_wins(self):
        slide = PROFILE_PRESETS["slide"]
        assert classify([[(28.4e6, 0.03), (28.1e6, 0.09)]], slide) == ["left-4mm"]

    def test_scroll_returns_active_set(self):
        scroll = PROFILE_PRESETS["scroll"]
        rows = [[], [(29.3e6, 0.05)], [(29.3e6, 0.05), (28.9e6, 0.05)]]
        assert classify(rows, scroll) == [
            frozenset(), frozenset({"reed-a"}), frozenset({"reed-a", "reed-b"})
        ]

    def test_foreign_resonator_flag(self):
        press = PROFILE_PRESETS["press"]
        rows = [[(29.8e6, 0.05)], [(28.9e6, 0.05)], [], [(28.9e6 + 45e3, 0.05)],
                [(28.9e6 + 46e3, 0.05)]]
        assert foreign_block(block_of(rows), press).tolist() == [True, False, False, False, True]


class TestRingProfile:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RingProfile("x", "dial", 45e3, (("a", 28e6),))

    def test_rejects_duplicate_frequencies(self):
        with pytest.raises(ValueError):
            RingProfile("x", "press", 45e3, (("a", 28e6), ("b", 28e6)))

    def test_rejects_tolerance_over_half_gap(self):
        with pytest.raises(ValueError):
            RingProfile("x", "press", 60e3, (("a", 28.0e6), ("b", 28.1e6)))

    def test_idle_is_first_state(self):
        assert PROFILE_PRESETS["slide"].idle_label == "idle"
        assert PROFILE_PRESETS["press"].idle_label == "on"

    def test_dict_round_trip(self):
        slide = PROFILE_PRESETS["slide"]
        assert RingProfile.from_dict(slide.to_dict()) == slide

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        PROFILE_PRESETS["joystick"].save(path)
        assert RingProfile.load(path) == PROFILE_PRESETS["joystick"]

    def test_malformed_dict_raises(self):
        with pytest.raises(ValueError, match="malformed profile"):
            RingProfile.from_dict({"name": "x"})


class TestDecodeStream:
    def test_press_and_release(self):
        press = PROFILE_PRESETS["press"]
        labels = ["on"] * 4 + ["off"] * 5 + ["on"] * 4
        events = decode_stream(stream_for(press, labels), press)
        assert [e.event for e in events] == ["press-down", "press-up"]
        assert events[0].time < events[1].time

    def test_constant_idle_is_silent(self):
        press = PROFILE_PRESETS["press"]
        events = decode_stream(stream_for(press, ["on"] * 12), press)
        assert events == []

    def test_single_frame_blip_debounced(self):
        press = PROFILE_PRESETS["press"]
        labels = ["on"] * 4 + ["off"] + ["on"] * 4
        assert decode_stream(stream_for(press, labels), press) == []

    def test_signal_dropout_counts_toward_release(self):
        """During release the ring alternates between a weak 'on' peak and
        no peak at all; both must advance the idle counter."""
        press = PROFILE_PRESETS["press"]
        labels = ["on"] * 3 + ["off"] * 5 + ["on", None, "on", None]
        events = decode_stream(stream_for(press, labels), press)
        assert [e.event for e in events] == ["press-down", "press-up"]

    def test_slide_walk(self):
        slide = PROFILE_PRESETS["slide"]
        labels = (
            ["idle"] * 3 + ["left-2mm"] * 4 + ["left-4mm"] * 4 + ["idle"] * 3
        )
        events = decode_stream(stream_for(slide, labels), slide)
        assert [e.event for e in events] == ["slide-left-2mm", "slide-left-4mm"]

    def test_reentry_emits_nothing_extra(self):
        joystick = PROFILE_PRESETS["joystick"]
        labels = ["idle"] * 3 + ["up"] * 3 + ["up"] * 3 + ["idle"] * 3
        events = decode_stream(stream_for(joystick, labels), joystick)
        assert [e.event for e in events] == ["joystick-up"]

    def test_confirm_frames_respected(self):
        press = PROFILE_PRESETS["press"]
        labels = ["on"] * 3 + ["off", "off"] + ["on"] * 4
        strict = DebounceConfig(confirm_frames=3)
        assert decode_stream(stream_for(press, labels), press, deb=strict) == []
        lax = DebounceConfig(confirm_frames=2)
        events = decode_stream(stream_for(press, labels), press, deb=lax)
        assert [e.event for e in events] == ["press-down", "press-up"]

    def test_confidence_is_positive(self):
        press = PROFILE_PRESETS["press"]
        labels = ["on"] * 3 + ["off"] * 4 + ["on"] * 4
        for event in decode_stream(stream_for(press, labels), press):
            assert event.confidence > 0.0

    @given(
        st.lists(
            st.sampled_from(["on", "off", None]), min_size=0, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_press_event_conservation(self, labels):
        """Downs and ups strictly alternate starting with a down, so their
        counts never differ by more than one."""
        press = PROFILE_PRESETS["press"]
        events = decode_stream(stream_for(press, labels), press)
        names = [e.event for e in events]
        downs = names.count("press-down")
        ups = names.count("press-up")
        assert abs(downs - ups) <= 1
        for first, second in zip(names, names[1:]):
            assert first != second

    @pytest.mark.parametrize("frequency", [26.99e6, 30.01e6])
    def test_state_off_the_grid_raises(self, frequency):
        """A state past either end of the 27-30 MHz grid could never be
        observed; the session used to decode to nothing."""
        slide = PROFILE_PRESETS["slide"]
        states = [(s.label, s.frequency) for s in slide.states[:-1]] + [("press", frequency)]
        off_grid = RingProfile("slide", "slide", slide.tolerance, states)
        with pytest.raises(ValueError, match=r"state 'press' at .* MHz lies outside the sweep "
                                             r"grid span 27-30 MHz"):
            decode_stream(stream_for(slide, ["idle"] * 4), off_grid)

    def test_states_at_the_grid_ends_are_accepted(self):
        ends = RingProfile("ends", "press", 45e3, (("on", 30e6), ("off", 27e6)))
        assert decode_stream(stream_for(ends, ["on"] * 4), ends) == []

    def test_debounce_validation(self):
        with pytest.raises(ValueError):
            DebounceConfig(confirm_frames=0)


# Reference: the per-frame classifier classify_block replaced, and the two
# state machines decode_stream replaced, kept verbatim (names prefixed) so
# the block classifier and the one-debouncer decoder can be checked
# against them.  The state machines read frames from ``detected_frames``,
# each frame's peaks as ``Peak``s read from the detection's columns.
Peak = namedtuple("Peak", "peak_frequency peak_height snr")


def reference_classify_state(peaks: Sequence[Peak], profile: RingProfile):
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


def frame_peak_lists(detection):
    """Each frame's peaks as ``Peak``s, strongest first."""
    frames = [[] for _ in range(len(detection.sigma))]
    for r, f, h, snr in zip(
        detection.row.tolist(),
        detection.frequency.tolist(),
        detection.height.tolist(),
        detection.snr.tolist(),
    ):
        frames[r].append(Peak(f, h, snr))
    return frames


def detected_frames(sweeps, det):
    """(timestamp, peaks) of each frame of ``detect_stream``'s chunks."""
    for chunk, detection in detect_stream(sweeps, det):
        yield from zip(chunk.timestamps.tolist(), frame_peak_lists(detection))


def _reference_event_name(profile: RingProfile, label: str, previous: Optional[str]) -> Optional[str]:
    if profile.kind == "press":
        if label == "off":
            return "press-down"
        if label == "on" and previous == "off":
            return "press-up"
        return None
    if label == profile.idle_label:
        return None
    return f"{profile.kind}-{label}"


def reference_decode_stream(
    sweeps,
    profile: RingProfile,
    det: DetectorConfig = DetectorConfig(),
    deb: DebounceConfig = DebounceConfig(),
) -> list[InputEvent]:
    idle = profile.idle_label
    if profile.kind == "scroll":
        return _reference_decode_scroll_stream(sweeps, profile, det, deb)

    events: list[InputEvent] = []
    confirmed = idle
    candidate: Optional[str] = None
    run = 0
    idle_run = 0
    for timestamp, peaks in detected_frames(sweeps, det):
        observed = reference_classify_state(peaks, profile)
        idle_run = idle_run + 1 if observed in (None, idle) else 0

        if observed is None or observed == confirmed:
            candidate, run = None, 0
        elif observed == candidate:
            run += 1
        else:
            candidate, run = observed, 1

        if confirmed != idle and idle_run >= deb.confirm_frames:
            name = _reference_event_name(profile, idle, confirmed)
            confirmed = idle
            candidate, run, idle_run = None, 0, 0
            if name is not None:
                confidence = max((p.snr for p in peaks), default=0.0)
                events.append(
                    InputEvent(
                        time=float(timestamp),
                        ring=profile.name,
                        event=name,
                        confidence=confidence,
                    )
                )
        elif candidate is not None and candidate != idle and run >= deb.confirm_frames:
            name = _reference_event_name(profile, candidate, confirmed)
            confirmed = candidate
            candidate, run = None, 0
            if name is not None:
                strongest = max(peaks, key=lambda p: p.peak_height)
                events.append(
                    InputEvent(
                        time=float(timestamp),
                        ring=profile.name,
                        event=name,
                        confidence=strongest.snr,
                    )
                )
    return events


def _reference_decode_scroll_stream(sweeps, profile, det, deb) -> list[InputEvent]:
    confirmed: frozenset = frozenset()
    candidate: Optional[frozenset] = None
    run = 0
    timeline: list[tuple] = []  # (timestamp, confirmed set, snr)
    for timestamp, peaks in detected_frames(sweeps, det):
        observed = reference_classify_state(peaks, profile)
        snr = max((p.snr for p in peaks), default=0.0)
        if observed == confirmed:
            candidate, run = None, 0
        else:
            if observed == candidate:
                run += 1
            else:
                candidate, run = observed, 1
            if run >= deb.confirm_frames:
                confirmed = observed
                candidate, run = None, 0
        timeline.append((float(timestamp), confirmed, snr))

    steps = decode_scroll([entry[1] for entry in timeline])
    events = []
    for idx, step in steps:
        t, _, snr = timeline[idx]
        name = "scroll-cw-45deg" if step > 0 else "scroll-ccw-45deg"
        events.append(
            InputEvent(time=t, ring=profile.name, event=name, confidence=snr, step=step)
        )
    return events


def passthrough(frames, det):
    return frames


def detection_of(rows):
    """A ``Detection`` of frames given as lists of (frequency, height,
    sigma) peaks, its table sorted as ``detect_block`` sorts it: by
    frame, then by height descending, ties in the order given."""
    table = sorted(
        ((t, -h, k, f, h, sigma) for t, peaks in enumerate(rows)
         for k, (f, h, sigma) in enumerate(peaks)),
        key=lambda entry: entry[:3],
    )
    sigmas = [peaks[0][2] if peaks else 1.0 for peaks in rows]
    return Detection(
        residuals=np.empty((len(rows), 0)),
        sigma=np.array(sigmas, dtype=float),
        row=np.array([e[0] for e in table], dtype=np.intp),
        frequency=np.array([e[3] for e in table], dtype=float),
        height=np.array([e[4] for e in table], dtype=float),
        snr=np.array([e[4] / e[5] for e in table], dtype=float),
    )


@st.composite
def frame_peaks(draw, profile):
    """A random frame train as lists of (frequency, height, sigma) peaks:
    runs of repeated frames, each holding 0-3 peaks in or out of the
    profile's bands, equal heights included.  The peaks of one frame
    share a residual sigma, as ``detect_block``'s do."""
    in_band = st.sampled_from(profile.states).flatmap(
        lambda s: st.floats(s.frequency - profile.tolerance, s.frequency + profile.tolerance)
    )
    frequency = st.one_of(in_band, st.floats(26.5e6, 30.5e6))
    height = st.sampled_from([0.02, 0.05]) | st.floats(1e-3, 0.2)
    rows = []
    for count in draw(st.lists(st.integers(1, 5), max_size=12)):
        sigma = draw(st.floats(1e-4, 1e-2))
        peaks = [(draw(frequency), h, sigma) for h in draw(st.lists(height, max_size=3))]
        rows += [peaks] * count
    return rows


class PeakStream(list):
    """(chunk, detection) pairs that stand in for a block on ``GRID``,
    where every shipped state lies."""

    frequencies = GRID


@st.composite
def peak_stream(draw, profile):
    """Detector output for a random frame train, as ``detect_stream``
    yields it: (chunk, detection) pairs of 1-7 frames each."""
    rows = draw(frame_peaks(profile))
    stream = []
    start = 0
    while start < len(rows):
        stop = min(len(rows), start + draw(st.integers(1, 7)))
        chunk = SimpleNamespace(timestamps=np.arange(start, stop) / 5.0)
        stream.append((chunk, detection_of(rows[start:stop])))
        start = stop
    return PeakStream(stream)


def frame_loop_debounce(codes, confirm_frames):
    """The frame-by-frame confirm-N loop the run-length debouncer
    replaced: the frames at which it confirms a new code."""
    confirmed, candidate, run = 0, None, 0
    frames = []
    for i, observed in enumerate(codes):
        if observed == confirmed:
            candidate, run = None, 0
            continue
        run = run + 1 if observed == candidate else 1
        candidate = observed
        if run >= confirm_frames:
            frames.append(i)
            confirmed, candidate, run = candidate, None, 0
    return frames


class TestOneDebouncer:
    @given(st.data(), st.sampled_from(sorted(PROFILE_PRESETS)), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_peak_streams(self, data, name, confirm_frames):
        profile = PROFILE_PRESETS[name]
        stream = data.draw(peak_stream(profile))
        deb = DebounceConfig(confirm_frames=confirm_frames)
        with mock.patch.object(decode, "detect_stream", passthrough), \
                mock.patch.dict(globals(), detect_stream=passthrough):
            got = decode_stream(stream, profile, deb=deb)
            want = reference_decode_stream(stream, profile, deb=deb)
        assert [e.to_json() for e in got] == [e.to_json() for e in want]

    @given(
        codes=st.lists(st.integers(0, 3), max_size=200)
        | st.lists(st.sampled_from([0, 5]), max_size=200),
        confirm_frames=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_length_debouncer_equals_frame_loop(self, codes, confirm_frames):
        got = _debounce(np.array(codes, dtype=np.intp), confirm_frames)
        assert got.tolist() == frame_loop_debounce(codes, confirm_frames)

    @given(st.data(), st.sampled_from(sorted(PROFILE_PRESETS)))
    @settings(max_examples=200, deadline=None)
    def test_block_classifier_equals_per_frame_rule(self, data, name):
        """Each frame's code names the state the per-frame rule gives, with
        no in-band peak read as idle, and its top SNR is the frame's
        highest peak SNR, 0.0 without peaks."""
        profile = PROFILE_PRESETS[name]
        rows = data.draw(frame_peaks(profile))
        detection = detection_of(rows)
        codes, top = classify_block(detection, profile)
        idle = frozenset() if profile.kind == "scroll" else profile.idle_label
        for code, snr, peaks in zip(codes.tolist(), top.tolist(), frame_peak_lists(detection)):
            want = reference_classify_state(peaks, profile)
            assert decode._state_of(profile, code) == (idle if want is None else want)
            assert snr == max((p.snr for p in peaks), default=0.0)

    @pytest.mark.parametrize("name", sorted(PROFILE_PRESETS))
    def test_matches_reference_on_synthesized_sessions(self, name):
        """The same events from real detector output, whose peaks share a
        row sigma, across every state of each shipped profile."""
        profile = PROFILE_PRESETS[name]
        script = [(0.6 + 0.8 * i, s.label) for i, s in enumerate(profile.states[1:] + profile.states)]
        inductance, resistance, n_caps = defaults.TURN_TABLE[8]
        sweeps = scripted_session(
            script, profile, SweepConfig(seed=1),
            reader=defaults.reader_coil(), bridge=defaults.bridge_config(),
            sensor_inductance=inductance,
            sensor_resistance=resistance + n_caps * defaults.CAPACITOR_ESR_OHM,
            duration=script[-1][0] + 1.0,
            disturb=DisturbanceModel(noise_sigma=defaults.NOISE_SIGMA_DB),
        )
        got = decode_stream(sweeps, profile)
        assert got
        assert [e.to_json() for e in got] == [
            e.to_json() for e in reference_decode_stream(sweeps, profile)
        ]


def oracle_scroll(frames):
    """Independent reference for the scroll stepper, using modular reed
    indices instead of transition tables."""
    order = ("reed-a", "reed-b", "reed-c")
    steps, prev, context = [], None, 0
    for i, active in enumerate(frames):
        if len(active) != 1:
            continue
        cur = order.index(next(iter(active)))
        if prev is None or cur == prev:
            prev = cur
            continue
        diff = (cur - prev) % 3
        wrap = (prev, cur) in ((2, 0), (0, 2))
        if diff == 1:
            if not wrap:
                steps.append((i, 1))
                context = 1
            elif context == 1:
                steps.append((i, 1))
            else:
                context = 0
        else:
            if not wrap:
                steps.append((i, -1))
                context = -1
            elif context == -1:
                steps.append((i, -1))
            else:
                context = 0
        prev = cur
    return steps


class TestDecodeScroll:
    A, B, C = (frozenset({x}) for x in ("reed-a", "reed-b", "reed-c"))

    def test_clockwise_quarter_turn(self):
        assert decode_scroll([self.A, self.B, self.C]) == [(1, 1), (2, 1)]

    def test_counterclockwise(self):
        assert decode_scroll([self.C, self.B, self.A]) == [(1, -1), (2, -1)]

    def test_wraparound_needs_direction_context(self):
        assert decode_scroll([self.A, self.C]) == []
        assert decode_scroll([self.A, self.B, self.C, self.A]) == [
            (1, 1),
            (2, 1),
            (3, 1),
        ]

    def test_repeats_hold_position(self):
        assert decode_scroll([self.A, self.A, self.A]) == []

    def test_ambiguous_frames_skipped(self):
        seq = [self.A, frozenset(), self.A | self.B, self.B]
        assert decode_scroll(seq) == [(3, 1)]

    def test_unknown_reed_raises(self):
        with pytest.raises(ValueError, match="unknown reed"):
            decode_scroll([frozenset({"reed-x"})])

    def test_matches_oracle_on_all_short_sequences(self):
        frames = [self.A, self.B, self.C, frozenset(), self.A | self.C]
        for n in range(1, 6):
            for seq in itertools.product(frames, repeat=n):
                assert decode_scroll(list(seq)) == oracle_scroll(seq), seq

    def test_scroll_stream_events(self):
        scroll = PROFILE_PRESETS["scroll"]
        labels = (
            ["reed-a"] * 3 + ["reed-b"] * 3 + ["reed-c"] * 3 + ["reed-a"] * 3
        )
        events = decode_stream(stream_for(scroll, labels), scroll)
        assert [e.event for e in events] == ["scroll-cw-45deg"] * 3
        assert [e.step for e in events] == [1, 1, 1]


class TestEventsJsonl:
    def test_shape_and_keys(self):
        events = [
            InputEvent(0.2, "press", "press-down", 12.5),
            InputEvent(1.0, "press", "press-up", 11.0),
        ]
        lines = events_to_jsonl(events).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "time_s": 0.2,
            "ring": "press",
            "event": "press-down",
            "confidence": 12.5,
            "step": 0,
        }
