"""Command-line interface.

Subcommands: design-coil, synth, detect, decode, evaluate.
Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import defaults
from .circuit import CoupledPair
from .dca import design_dca
from .decode import PROFILE_PRESETS, DebounceConfig, RingProfile, decode_stream, events_to_jsonl
from .detect import DetectorConfig, detect_peaks
from .experiments import EXPERIMENTS, ExperimentSpec, run_experiment
from .synth import (
    DataFormatError,
    DisturbanceModel,
    SweepConfig,
    scripted_session,
    session_from_json,
    session_to_json,
    sweep_from_csv,
    sweep_to_csv,
    synthesize_sweep,
)

DEFAULT_CONFIG_ENV = "PITKIT_CONFIG"


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="pitkit",
        description="Passive inductive telemetry toolkit: coil design, sweep "
        "synthesis, resonance detection, input decoding, and SNR studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design-coil", help="size series capacitors for a coil")
    p.add_argument("--inductance", type=float, required=True, help="coil inductance in henries")
    p.add_argument("--frequency", type=float, required=True, help="target resonance in Hz")
    p.add_argument("--segments", type=int, required=True, help="number of series capacitors")
    p.add_argument("--wire-length", type=float, default=None, help="total winding length in meters")
    p.add_argument("--e12", action="store_true", help="round to the nearest E12 capacitor value")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("synth", help="synthesize a sweep CSV or a session JSON")
    p.add_argument("--output", required=True)
    p.add_argument("--f0", type=float, default=29e6, help="sensor resonance in Hz")
    p.add_argument("--coupling", type=float, default=defaults.K_REFERENCE)
    p.add_argument("--turns", type=int, default=8, choices=sorted(defaults.TURN_TABLE))
    p.add_argument("--noise-sigma", type=float, default=defaults.NOISE_SIGMA_DB)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time", type=float, default=0.0, help="acquisition timestamp in seconds")
    p.add_argument("--events", default=None,
                   help="JSON file of [time_s, state_label] pairs; emits a session JSON")
    p.add_argument("--profile", default="press",
                   help="profile preset name or JSON path (session mode)")
    p.add_argument("--duration", type=float, default=None,
                   help="session length in seconds (session mode)")

    p = sub.add_parser("detect", help="print peak reports for a sweep CSV")
    p.add_argument("sweep", help="sweep CSV path")
    p.add_argument("--baseline-order", type=int, default=DetectorConfig.baseline_order)
    p.add_argument("--threshold", type=float, default=DetectorConfig.peak_threshold)

    p = sub.add_parser("decode", help="decode a session JSON into input events")
    p.add_argument("--session", required=True)
    p.add_argument("--profile", required=True, help="preset name or profile JSON path")
    p.add_argument("--confirm-frames", type=int, default=2)
    p.add_argument("--output", default=None, help="write JSON-lines here instead of stdout")

    p = sub.add_parser("evaluate", help="run an SNR or accuracy experiment")
    p.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="CSV output path; summary JSON lands beside it")

    return parser


def _load_profile(name_or_path: str) -> RingProfile:
    if name_or_path in PROFILE_PRESETS:
        return PROFILE_PRESETS[name_or_path]
    if os.path.exists(name_or_path):
        return RingProfile.load(name_or_path)
    raise DataFormatError(
        f"unknown profile {name_or_path!r}: not a preset "
        f"({', '.join(sorted(PROFILE_PRESETS))}) and not a file"
    )


def _cmd_design_coil(args) -> int:
    design = design_dca(
        inductance=args.inductance,
        target_frequency=args.frequency,
        segment_count=args.segments,
        wire_length=args.wire_length,
        round_e12=args.e12,
    )
    text = json.dumps(design.to_dict(), indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _sweep_config(seed: int) -> SweepConfig:
    """Default sweep grid, overridable via a JSON file named by the
    PITKIT_CONFIG environment variable."""
    path = os.environ.get(DEFAULT_CONFIG_ENV)
    if not path:
        return SweepConfig(seed=seed)
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: expected a JSON object of sweep-grid settings")
    try:
        return SweepConfig(
            start_frequency=float(raw.get("start_frequency_hz", SweepConfig.start_frequency)),
            stop_frequency=float(raw.get("stop_frequency_hz", SweepConfig.stop_frequency)),
            step=float(raw.get("step_hz", SweepConfig.step)),
            acquisition_rate=float(
                raw.get("acquisition_rate_fps", SweepConfig.acquisition_rate)
            ),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _cmd_synth(args) -> int:
    cfg = _sweep_config(args.seed)
    disturb = DisturbanceModel(noise_sigma=args.noise_sigma)
    reader = defaults.reader_coil()
    bridge = defaults.bridge_config()
    sensor = defaults.ring_coil(args.f0, args.turns)

    if args.events is None:
        pair = CoupledPair(reader, sensor, args.coupling)
        sweep = synthesize_sweep(cfg, pair, bridge, disturb, t=args.time)
        sweep_to_csv(sweep, args.output)
        return 0

    with open(args.events) as fh:
        try:
            raw = json.load(fh)
            events = [(float(t), str(label)) for t, label in raw]
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{args.events}: {exc}") from None
    profile = _load_profile(args.profile)
    duration = args.duration
    if duration is None:
        duration = (max((t for t, _ in events), default=0.0)) + 2.0
    session = scripted_session(
        events,
        profile,
        cfg,
        reader=reader,
        bridge=bridge,
        sensor_inductance=sensor.inductance,
        sensor_resistance=sensor.resistance,
        duration=duration,
        disturb=disturb,
    )
    session_to_json(session, args.output)
    return 0


def _cmd_detect(args) -> int:
    sweep = sweep_from_csv(args.sweep)
    cfg = DetectorConfig(
        baseline_order=args.baseline_order, peak_threshold=args.threshold
    )
    for peak in detect_peaks(sweep, cfg):
        sys.stdout.write(peak.to_json() + "\n")
    return 0


def _cmd_decode(args) -> int:
    session = session_from_json(args.session)
    profile = _load_profile(args.profile)
    events = decode_stream(
        session,
        profile,
        DetectorConfig(),
        DebounceConfig(confirm_frames=args.confirm_frames),
    )
    text = events_to_jsonl(events)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_evaluate(args) -> int:
    spec = ExperimentSpec(
        experiment=args.experiment,
        trials=args.trials,
        seed=args.seed,
        output_path=args.output,
    )
    summary = run_experiment(spec)
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "design-coil": _cmd_design_coil,
    "synth": _cmd_synth,
    "detect": _cmd_detect,
    "decode": _cmd_decode,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # DataFormatError and DesignError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
