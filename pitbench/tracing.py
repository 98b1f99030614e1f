"""Layer spans recorded from outside the program.

The tracer swaps the module attributes through which one pitkit module
calls another (and through which the benchmark calls pitkit) for thin
wrappers that record a span per call: layer, name, start, end, parent
span and group.  Spans stay in memory until the run writes them out.
Uninstalling restores the original functions, so untraced rounds run
the program unchanged.  A name that a refactor removed is listed as
missing and its layer reads zero instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, layer).  Circuit and bridge are timed at synth's
# calls into them; detect, decode and synth at every caller's binding.
TARGETS = (
    ("synth", "sensor_impedance", "circuit"),
    ("synth", "load_impedance", "circuit"),
    ("synth", "capacitance_for_resonance", "circuit"),
    ("synth", "bridge_output", "bridge"),
    ("synth", "synthesize_sweep", "synth"),
    ("synth", "scripted_session", "synth"),
    ("experiments", "synthesize_sweep", "synth"),
    ("experiments", "scripted_session", "synth"),
    ("cli", "session_from_json", "synth.io"),
    ("decode", "detect_peaks", "detect"),
    ("experiments", "detect_peaks", "detect"),
    ("experiments", "_masked_baseline", "detect"),
    ("cli", "detect_peaks", "detect"),
    ("decode", "decode_stream", "decode"),
    ("experiments", "decode_stream", "decode"),
    ("cli", "decode_stream", "decode"),
    ("experiments", "calibrate_coupling", "experiments"),
    ("experiments", "measure_snr", "experiments"),
    ("experiments", "run_experiment", "experiments"),
    ("cli", "main", "cli"),
)
LAYERS = ("circuit", "bridge", "synth", "synth.io", "detect", "decode", "experiments", "cli")
# Each call of these starts a new group: one SNR point.
GROUP_ROOTS = {"measure_snr"}

FIELDS = ("layer", "name", "start_ns", "end_ns", "parent", "group", "frames", "extra")
NOT_APPLICABLE = -1


def _frames_and_extra(layer: str, name: str, args, result) -> tuple:
    """Work counted at the boundary: frames for synth, detect, decode and
    I/O spans; peaks per detect_peaks call; events per decode call."""
    if layer == "synth":
        return (1 if hasattr(result, "magnitudes_db") else len(result)), NOT_APPLICABLE
    if layer == "synth.io":
        return len(result), NOT_APPLICABLE
    if layer == "detect":
        return 1, (len(result) if name == "detect_peaks" else NOT_APPLICABLE)
    if layer == "decode":
        frames = len(args[0]) if args and hasattr(args[0], "__len__") else 0
        return frames, len(result)
    return 0, NOT_APPLICABLE


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._group = 0
        self._installed: list = []

    def new_group(self) -> None:
        self._group += 1

    def install(self) -> None:
        self.missing = []
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(f"pitkit.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"pitkit.{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, layer, attr))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if name in GROUP_ROOTS:
                self._group += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                frames, extra = (
                    _frames_and_extra(layer, name, args, result) if result is not None else (0, NOT_APPLICABLE)
                )
                spans[index] = (layer, name, start, end, parent, self._group, frames, extra)

        return traced

    def absent_layers(self) -> list:
        present = {layer for module, attr, layer in TARGETS
                   if f"pitkit.{module}.{attr}" not in self.missing}
        return [layer for layer in LAYERS if layer not in present]

    def write(self, path, rounds: int) -> None:
        origin = min((s[2] for s in self.spans), default=0)
        rows = [
            (s[0], s[1], s[2] - origin, s[3] - origin) + tuple(s[4:]) for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "rounds": rounds, "missing": self.missing,
                       "spans": rows}, fh)
            fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer figures, per traced round, from a list of span tuples.

    Self time is a span's duration minus its direct children's.  Frame
    counts of a layer come from its outermost spans, so a synth call
    nested in another synth call is not counted twice.
    """
    child = [0] * len(spans)
    for layer, name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_ns = defaultdict(float)
    calls = defaultdict(int)
    frames = defaultdict(int)
    by_name = defaultdict(float)
    peaks = peak_frames = events = calibrate_frames = 0
    for i, (layer, name, start, end, parent, group, n, extra) in enumerate(spans):
        duration = end - start
        calls[layer] += 1
        self_ns[layer] += duration - child[i]
        by_name[name] += duration
        if parent >= 0 and spans[parent][0] == layer:
            continue
        total[layer] += duration
        frames[layer] += n
        if layer == "detect" and extra != NOT_APPLICABLE:
            peaks += extra
            peak_frames += n
        elif layer == "decode":
            events += extra
        if layer == "synth" and parent >= 0 and spans[parent][1] == "calibrate_coupling":
            calibrate_frames += n

    synth_frames = frames["synth"]
    us = 1e-3  # ns -> us
    return {
        "circuit.calls_per_frame": (_ratio(calls["circuit"], synth_frames), "calls/frame"),
        "circuit.us_per_frame": (_ratio(total["circuit"] * us, synth_frames), "us/frame"),
        "bridge.calls_per_frame": (_ratio(calls["bridge"], synth_frames), "calls/frame"),
        "bridge.us_per_frame": (_ratio(total["bridge"] * us, synth_frames), "us/frame"),
        "synth.frames": (synth_frames / rounds, "frames"),
        "synth.us_per_frame": (_ratio(total["synth"] * us, synth_frames), "us/frame"),
        "synth.self_us_per_frame": (_ratio(self_ns["synth"] * us, synth_frames), "us/frame"),
        "synth.io.us_per_frame": (_ratio(total["synth.io"] * us, frames["synth.io"]), "us/frame"),
        "detect.frames": (frames["detect"] / rounds, "frames"),
        "detect.us_per_frame": (_ratio(total["detect"] * us, frames["detect"]), "us/frame"),
        "detect.peaks_per_frame": (_ratio(peaks, peak_frames), "peaks/frame"),
        "decode.frames": (frames["decode"] / rounds, "frames"),
        "decode.self_us_per_frame": (_ratio(self_ns["decode"] * us, frames["decode"]), "us/frame"),
        "decode.events": (events / rounds, "events"),
        "experiments.calibrate_s": (by_name["calibrate_coupling"] * 1e-9 / rounds, "s"),
        "experiments.calibrate_frames": (calibrate_frames / rounds, "frames"),
        "experiments.run_s": (by_name["run_experiment"] * 1e-9 / rounds, "s"),
        "cli.calls": (calls["cli"] / rounds, "count"),
        "cli.self_ms_per_call": (_ratio(self_ns["cli"] * 1e-6, calls["cli"]), "ms/call"),
    }
