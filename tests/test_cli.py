"""Command-line interface: each subcommand end to end, in process via
``main`` so exit codes and output files are checked directly."""

import json
import math
import re

import pytest

from pitkit import cli, defaults
from pitkit.cli import _sweep_config, main
from pitkit.detect import DetectorConfig
from pitkit.synth import DataFormatError, SweepConfig, session_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def press_session_file(capsys, tmp_path):
    """A 3 s press session written by ``pitkit synth``: its path and the
    parsed columnar object."""
    events_path = tmp_path / "events.json"
    events_path.write_text(json.dumps([[1.0, "off"], [2.0, "on"]]))
    session_path = tmp_path / "session.json"
    assert run(capsys, "synth", "--output", str(session_path),
               "--events", str(events_path), "--duration", "3.0")[0] == 0
    return session_path, json.loads(session_path.read_text())


class TestDesignCoil:
    def test_stdout_json(self, capsys):
        code, out, _ = run(
            capsys,
            "design-coil",
            "--inductance", "3.7e-6",
            "--frequency", "26.93e6",
            "--segments", "18",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["segment_count"] == 18
        assert doc["per_segment_capacitance_f"] == pytest.approx(170e-12, rel=0.01)
        assert doc["achieved_frequency_hz"] == pytest.approx(26.93e6, rel=1e-6)

    def test_output_file_and_e12(self, capsys, tmp_path):
        out_path = tmp_path / "design.json"
        code, out, _ = run(
            capsys,
            "design-coil",
            "--inductance", "3.7e-6",
            "--frequency", "26.93e6",
            "--segments", "18",
            "--e12",
            "--output", str(out_path),
        )
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["per_segment_capacitance_f"] == pytest.approx(180e-12)

    @pytest.mark.parametrize(
        "option, value, field",
        [
            ("--inductance", "nan", "inductance"),
            ("--inductance", "inf", "inductance"),
            ("--frequency", "inf", "target_frequency"),
            ("--frequency", "nan", "target_frequency"),
            ("--wire-length", "nan", "wire_length"),
            ("--wire-length", "inf", "wire_length"),
        ],
    )
    def test_rejects_non_finite_value(self, capsys, option, value, field):
        """NaN passes ``<= 0`` and inf divides to zero, so each is an
        error naming its field, with nothing written to stdout."""
        argv = {"--inductance": "1e-6", "--frequency": "26.93e6", "--segments": "3"}
        argv[option] = value
        code, out, err = run(capsys, "design-coil", *[x for kv in argv.items() for x in kv])
        assert code == 1
        assert out == "" and err.startswith(f"error: {field} must be finite and > 0")

    def test_wire_length_violation_is_error(self, capsys):
        code, _, err = run(
            capsys,
            "design-coil",
            "--inductance", "3.7e-6",
            "--frequency", "26.93e6",
            "--segments", "2",
            "--wire-length", "10.0",
        )
        assert code == 1
        assert "lambda/20" in err


class TestSynthDetect:
    def test_sweep_chain(self, capsys, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "synth",
            "--output", str(sweep_path),
            "--f0", "29e6",
            "--coupling", "1e-3",
            "--seed", "3",
        )
        assert code == 0
        code, out, _ = run(capsys, "detect", str(sweep_path))
        assert code == 0
        peaks = [json.loads(line) for line in out.splitlines()]
        assert len(peaks) == 1
        assert abs(peaks[0]["peak_frequency_hz"] - 29e6) <= 60e3
        assert peaks[0]["snr"] > 5.0

    def test_synth_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert run(capsys, "synth", "--output", str(p), "--seed", "11")[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("time", ["inf", "nan", "-1", "1e11"])
    def test_synth_rejects_timestamp_outside_the_noise_key_range(self, capsys, tmp_path, time):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "synth", "--output", str(out_path), "--time", time)
        assert code == 1
        assert err.startswith(f"error: timestamp {float(time)!r} s must be finite, >= 0")
        assert not out_path.exists()

    def test_detect_defaults_are_detector_config(self, capsys, tmp_path, monkeypatch):
        sweep_path = tmp_path / "sweep.csv"
        assert run(capsys, "synth", "--output", str(sweep_path))[0] == 0
        configs = []
        original = cli.detect_block

        def spy(frequencies, magnitudes, cfg):
            configs.append(cfg)
            return original(frequencies, magnitudes, cfg)

        monkeypatch.setattr(cli, "detect_block", spy)
        assert run(capsys, "detect", str(sweep_path))[0] == 0
        assert configs == [DetectorConfig()]

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_detect_rejects_non_finite_threshold(self, capsys, tmp_path, threshold):
        sweep_path = tmp_path / "sweep.csv"
        assert run(capsys, "synth", "--output", str(sweep_path))[0] == 0
        code, out, err = run(capsys, "detect", str(sweep_path), f"--threshold={threshold}")
        assert code == 1
        assert out == "" and err.startswith("error: peak_threshold must be finite and > 0")

    def test_detect_missing_file(self, capsys):
        code, _, err = run(capsys, "detect", "/no/such/file.csv")
        assert code == 1
        assert "error" in err

    def test_config_env_override(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "start_frequency_hz": 27e6,
                    "stop_frequency_hz": 30e6,
                    "step_hz": 30e3,
                }
            )
        )
        monkeypatch.setenv("PITKIT_CONFIG", str(cfg_path))
        out_path = tmp_path / "fine.csv"
        assert run(capsys, "synth", "--output", str(out_path))[0] == 0
        assert len(out_path.read_text().splitlines()) == 1 + 101

    def test_config_env_partial_uses_sweep_config_defaults(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text('{"step_hz": 30e3}')
        monkeypatch.setenv("PITKIT_CONFIG", str(cfg_path))
        assert _sweep_config(4) == SweepConfig(step=30e3, seed=4)

    @pytest.mark.parametrize("raw", ["[27e6, 30e6]", "42", '"grid"', "null"])
    def test_config_env_not_an_object(self, capsys, tmp_path, monkeypatch, raw):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(raw)
        monkeypatch.setenv("PITKIT_CONFIG", str(cfg_path))
        with pytest.raises(DataFormatError, match="JSON object"):
            _sweep_config(0)
        code, _, err = run(capsys, "synth", "--output", str(tmp_path / "x.csv"))
        assert code == 1 and "JSON object" in err

    def test_config_env_bad_value(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text('{"step_hz": [60e3]}')
        monkeypatch.setenv("PITKIT_CONFIG", str(cfg_path))
        with pytest.raises(DataFormatError):
            _sweep_config(0)

    @pytest.mark.parametrize("key, field, value", [
        ("start_frequency_hz", "start_frequency", -math.inf),
        ("stop_frequency_hz", "stop_frequency", math.inf),
        ("step_hz", "step", math.nan),
        ("acquisition_rate_fps", "acquisition_rate", math.nan),
    ])
    def test_config_env_non_finite_value(self, capsys, tmp_path, monkeypatch, key, field, value):
        """Infinity overflowed ``round(span)`` into a bare traceback and a
        NaN rate passed ``<= 0``; each is now an error naming the field."""
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({key: value}))
        monkeypatch.setenv("PITKIT_CONFIG", str(cfg_path))
        out_path = tmp_path / "x.csv"
        code, _, err = run(capsys, "synth", "--output", str(out_path))
        assert code == 1
        assert err.startswith("error: ") and f"{field} must be finite" in err
        assert not out_path.exists()

    def test_detect_infinite_magnitude(self, capsys, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        assert run(capsys, "synth", "--output", str(sweep_path))[0] == 0
        lines = sweep_path.read_text().splitlines()
        freq = lines[4].split(",")[0]
        lines[4] = f"{freq},inf"
        sweep_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "detect", str(sweep_path))
        assert code == 1
        assert out == "" and "finite" in err

    def test_config_env_bad_json(self, capsys, tmp_path, monkeypatch):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text("{not json")
        monkeypatch.setenv("PITKIT_CONFIG", str(cfg_path))
        code, _, err = run(capsys, "synth", "--output", str(tmp_path / "x.csv"))
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("seed", ["4294967296", "-1"])
    def test_synth_rejects_seed_outside_32_bits(self, capsys, tmp_path, seed):
        """2**32 used to write the sweep of seed 0, and -1 that of 2**32 - 1."""
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "synth", "--output", str(out_path), "--seed", seed)
        assert code == 1
        assert err == f"error: seed must be in [0, 2**32), got {seed}\n"
        assert not out_path.exists()

    @pytest.mark.filterwarnings("error")
    def test_synth_rejects_nan_resonance_frequency(self, capsys, tmp_path):
        """Rejected where the capacitance is sized, before any numpy
        arithmetic can warn."""
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "synth", "--output", str(out_path), "--f0", "nan")
        assert code == 1
        assert err == "error: frequency must be finite and > 0, got nan\n"
        assert not out_path.exists()

    def test_synth_rejects_non_finite_noise_sigma(self, capsys, tmp_path):
        """A NaN noise sigma would fail ``> 0`` and write a noiseless sweep."""
        out_path = tmp_path / "a.csv"
        code, _, err = run(capsys, "synth", "--output", str(out_path), "--noise-sigma", "nan")
        assert code == 1
        assert err.startswith("error: noise_sigma must be finite")
        assert not out_path.exists()

    @pytest.mark.filterwarnings("error")
    def test_synth_rejects_overflowing_noise_sigma(self, capsys, tmp_path):
        """A finite sigma of 1e308 overflows the noise rows: numpy warned,
        and with warnings as errors the run ended in a traceback."""
        out_path = tmp_path / "a.csv"
        code, out, err = run(capsys, "synth", "--output", str(out_path), "--noise-sigma", "1e308")
        assert code == 1
        assert out == "" and err == "error: noise_sigma 1e+308 dB overflows the sweep noise\n"
        assert not out_path.exists()


class TestSynthDecode:
    @pytest.mark.parametrize("duration", ["-1", "0", "nan", "inf"])
    def test_synth_rejects_duration_without_frames(self, capsys, tmp_path, duration):
        events_path = tmp_path / "events.json"
        events_path.write_text(json.dumps([[1.0, "off"]]))
        session_path = tmp_path / "session.json"
        code, _, err = run(
            capsys, "synth", "--output", str(session_path),
            "--events", str(events_path), "--duration", duration,
        )
        assert code == 1
        assert err.startswith("error: duration must be finite and give at least one frame")
        assert not session_path.exists()

    def test_session_chain(self, capsys, tmp_path):
        events_path = tmp_path / "events.json"
        events_path.write_text(json.dumps([[2.0, "off"], [4.0, "on"]]))
        session_path = tmp_path / "session.json"
        code, _, _ = run(
            capsys,
            "synth",
            "--output", str(session_path),
            "--events", str(events_path),
            "--profile", "press",
            "--duration", "6.0",
            "--seed", "0",
        )
        assert code == 0
        code, out, _ = run(
            capsys, "decode", "--session", str(session_path), "--profile", "press"
        )
        assert code == 0
        names = [json.loads(line)["event"] for line in out.splitlines()]
        assert names == ["press-down", "press-up"]

    def test_decode_with_profile_file(self, capsys, tmp_path):
        from pitkit.decode import PROFILE_PRESETS

        profile_path = tmp_path / "press.json"
        PROFILE_PRESETS["press"].save(profile_path)
        events_path = tmp_path / "events.json"
        events_path.write_text(json.dumps([[1.0, "off"], [3.0, "on"]]))
        session_path = tmp_path / "session.json"
        run(
            capsys,
            "synth",
            "--output", str(session_path),
            "--events", str(events_path),
            "--profile", str(profile_path),
            "--duration", "5.0",
        )
        out_path = tmp_path / "events.jsonl"
        code, _, _ = run(
            capsys,
            "decode",
            "--session", str(session_path),
            "--profile", str(profile_path),
            "--output", str(out_path),
        )
        assert code == 0
        names = [
            json.loads(line)["event"]
            for line in out_path.read_text().splitlines()
        ]
        assert names == ["press-down", "press-up"]

    def test_custom_label_press_profile(self, capsys, tmp_path):
        """Press events follow the transition, whatever the states are called."""
        profile_path = tmp_path / "thumb.json"
        profile_path.write_text(json.dumps({
            "name": "thumb", "kind": "press", "tolerance_hz": 45e3,
            "states": [{"label": "idle", "frequency_hz": 28.9e6},
                       {"label": "down", "frequency_hz": 28.0e6}],
        }))
        events_path = tmp_path / "events.json"
        events_path.write_text(json.dumps([[1.0, "down"], [3.0, "idle"]]))
        session_path = tmp_path / "session.json"
        assert run(capsys, "synth", "--output", str(session_path), "--events", str(events_path),
                   "--profile", str(profile_path), "--duration", "5.0")[0] == 0
        code, out, _ = run(
            capsys, "decode", "--session", str(session_path), "--profile", str(profile_path)
        )
        assert code == 0
        assert [json.loads(line)["event"] for line in out.splitlines()] == [
            "press-down", "press-up"
        ]

    @pytest.mark.parametrize(
        "kind, tolerance, states, message",
        [
            ("press", 45e3, [], "at least one state"),
            ("slide", -5.0, [("idle", 28.9e6)], "tolerance -5 Hz must be finite, positive"),
            ("slide", float("nan"), [("idle", 28.9e6)], "tolerance nan Hz must be finite"),
            ("slide", 45e3, [("idle", float("nan"))], "frequencies must be finite"),
            ("scroll", 45e3, [("a", 29.3e6), ("b", 28.9e6), ("c", 28.6e6)],
             "states are the reeds reed-a, reed-b, reed-c"),
            ("press", 45e3, [("on", 28.9e6), ("off", 28.0e6), ("half", 28.4e6)],
             "exactly two states"),
            ("slide", 45e3, [("idle", 28.9e6), ("left", 28.4e6), ("idle", 28.1e6)],
             "state labels must be distinct"),
            ("slide", True, [("idle", 28.9e6)], "tolerance_hz must be a number, got True"),
            ("slide", "45e3", [("idle", 28.9e6)], "tolerance_hz must be a number, got '45e3'"),
            ("slide", 45e3, [("idle", False)], "frequency_hz must be a number, got False"),
            ("slide", 45e3, [("idle", "28.9e6")], "frequency_hz must be a number, got '28.9e6'"),
        ],
        ids=["no-states", "negative-tolerance", "nan-tolerance", "nan-frequency", "scroll-labels",
             "press-three-states", "duplicate-labels", "boolean-tolerance", "string-tolerance",
             "boolean-frequency", "string-frequency"],
    )
    def test_decode_rejects_malformed_profile(self, capsys, tmp_path, kind, tolerance, states, message):
        session_path, _ = press_session_file(capsys, tmp_path)
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({
            "name": "bad", "kind": kind, "tolerance_hz": tolerance,
            "states": [{"label": label, "frequency_hz": f} for label, f in states],
        }))
        code, out, err = run(
            capsys, "decode", "--session", str(session_path), "--profile", str(profile_path)
        )
        assert code == 1
        assert out == "" and err.startswith("error: ") and message in err

    def test_decode_rejects_profile_off_the_grid(self, capsys, tmp_path):
        """A press profile at 50/60 MHz on a 27-30 MHz session decoded to
        nothing with exit 0."""
        session_path, _ = press_session_file(capsys, tmp_path)
        profile_path = tmp_path / "high.json"
        profile_path.write_text(json.dumps({
            "name": "high", "kind": "press", "tolerance_hz": 45e3,
            "states": [{"label": "idle", "frequency_hz": 50e6},
                       {"label": "pressed", "frequency_hz": 60e6}],
        }))
        code, out, err = run(
            capsys, "decode", "--session", str(session_path), "--profile", str(profile_path)
        )
        assert code == 1
        assert out == "" and err == (
            "error: profile 'high' state 'idle' at 50 MHz lies outside the sweep grid span "
            "27-30 MHz\n"
        )

    def test_decode_rejects_reversed_session(self, capsys, tmp_path):
        session_path, doc = press_session_file(capsys, tmp_path)
        doc["timestamps_s"].reverse()
        doc["magnitudes_db"].reverse()
        session_path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "decode", "--session", str(session_path), "--profile", "press"
        )
        assert code == 1
        assert out == "" and "timestamp_s" in err

    @pytest.mark.parametrize("key", ["frequencies_hz", "timestamps_s", "magnitudes_db"])
    def test_decode_rejects_string_column(self, capsys, tmp_path, key):
        """A column of JSON strings such as "0.01" decoded with exit 0."""
        session_path, doc = press_session_file(capsys, tmp_path)
        column = doc[key]
        doc[key] = [[repr(v) for v in row] for row in column] if key == "magnitudes_db" else [
            repr(v) for v in column
        ]
        session_path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "decode", "--session", str(session_path), "--profile", "press"
        )
        assert code == 1
        assert out == "" and f"{key}: must hold only numbers, found strings" in err

    def test_decode_rejects_reversed_legacy_session(self, capsys, tmp_path):
        session_path, doc = press_session_file(capsys, tmp_path)
        records = [
            {"timestamp_s": t, "frequencies_hz": doc["frequencies_hz"], "magnitudes_db": m}
            for t, m in zip(doc["timestamps_s"], doc["magnitudes_db"])
        ]
        session_path.write_text(json.dumps(records[::-1]))
        code, out, err = run(
            capsys, "decode", "--session", str(session_path), "--profile", "press"
        )
        assert code == 1
        assert out == "" and "record 1: timestamp_s" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("frequencies_hz"), "no 'frequencies_hz'"),
            (lambda d: d.pop("timestamps_s"), "no 'timestamps_s'"),
            (lambda d: d.pop("magnitudes_db"), "no 'magnitudes_db'"),
            (lambda d: d["magnitudes_db"][3].pop(), "magnitudes_db"),
            (lambda d: d["magnitudes_db"].pop(), "one row of 51 values per timestamp"),
            (lambda d: d["timestamps_s"].append(3.0), "one row of 51 values per timestamp"),
            (lambda d: d["magnitudes_db"][2].__setitem__(5, float("nan")), "finite"),
            (lambda d: d["magnitudes_db"][2].__setitem__(5, float("-inf")), "finite"),
            (lambda d: d["timestamps_s"].__setitem__(4, float("inf")), "record 4: timestamp_s"),
            (lambda d: d["timestamps_s"].__setitem__(0, -0.2), "record 0: timestamp_s"),
            (lambda d: d["timestamps_s"].__setitem__(6, 0.4), "record 6: timestamp_s"),
            (lambda d: d.__setitem__("frequencies_hz", "grid"), "frequencies_hz"),
            (lambda d: d["frequencies_hz"].reverse(), "increasing"),
        ],
        ids=[
            "no-grid", "no-timestamps", "no-magnitudes", "ragged-row", "missing-row",
            "extra-timestamp", "nan", "minus-inf", "infinite-time", "negative-time",
            "decreasing-time", "grid-not-a-list", "grid-reversed",
        ],
    )
    def test_decode_rejects_malformed_columnar_session(self, capsys, tmp_path, edit, message):
        session_path, doc = press_session_file(capsys, tmp_path)
        edit(doc)
        session_path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=re.escape(message)):
            session_from_json(session_path)
        code, out, err = run(
            capsys, "decode", "--session", str(session_path), "--profile", "press"
        )
        assert code == 1
        assert out == "" and message in err

    def test_unknown_profile_name(self, capsys, tmp_path):
        session_path = tmp_path / "session.json"
        session_path.write_text("[]")
        code, _, err = run(
            capsys, "decode", "--session", str(session_path), "--profile", "dial"
        )
        assert code == 1 and "error" in err


class TestParser:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_see_only_their_own_arguments(self, capsys, monkeypatch):
        """The cached parser carries nothing from one main() call into the
        next: each namespace holds its own subcommand's options, with the
        defaults for those it did not give."""
        seen = []
        for name in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, name, lambda args: seen.append(vars(args)) or 0)
        assert main(["synth", "--output", "a.json", "--seed", "7", "--events", "e.json"]) == 0
        assert main(["detect", "s.csv", "--threshold", "0.05"]) == 0
        assert main(["synth", "--output", "b.csv"]) == 0
        assert main(["decode", "--session", "s.json", "--profile", "press",
                     "--confirm-frames", "3"]) == 0
        assert main(["decode", "--session", "t.json", "--profile", "slide"]) == 0
        synth_defaults = {
            "command": "synth", "f0": 29e6, "coupling": defaults.K_REFERENCE, "turns": 8,
            "noise_sigma": defaults.NOISE_SIGMA_DB, "seed": 0, "time": 0.0, "events": None,
            "profile": "press", "duration": None,
        }
        assert seen == [
            {**synth_defaults, "output": "a.json", "seed": 7, "events": "e.json"},
            {"command": "detect", "sweep": "s.csv", "threshold": 0.05,
             "baseline_order": DetectorConfig.baseline_order},
            {**synth_defaults, "output": "b.csv"},
            {"command": "decode", "session": "s.json", "profile": "press",
             "confirm_frames": 3, "output": None},
            {"command": "decode", "session": "t.json", "profile": "slide",
             "confirm_frames": 2, "output": None},
        ]


class TestEvaluate:
    def test_turns_experiment(self, capsys, tmp_path):
        out_path = tmp_path / "turns.csv"
        code, out, _ = run(
            capsys,
            "evaluate",
            "--experiment", "snr-vs-turns",
            "--trials", "1",
            "--seed", "0",
            "--output", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["summary"]["monotone_3_to_7"] is True
        assert out_path.exists()
        assert (tmp_path / "turns.csv.summary.json").exists()

    def test_rejects_trial_seed_outside_32_bits(self, capsys, tmp_path):
        """Trial seeds are seed + trial, so the last of 2 trials at
        2**32 - 1 would leave the 32-bit seed range."""
        out_path = tmp_path / "angle.csv"
        code, _, err = run(
            capsys, "evaluate", "--experiment", "snr-vs-angle", "--trials", "2",
            "--seed", str(2**32 - 1), "--output", str(out_path),
        )
        assert code == 1
        assert err == "error: seed must be in [0, 2**32 - trials], got 4294967295\n"
        assert not out_path.exists()

    def test_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--experiment", "nope", "--output", "x.csv"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
