"""pitkit benchmark: frame throughput end to end, per-layer cost traced.

    python3 pitbench/run.py --workload press-session --seed 0 --seconds 30 --trace 0

Runs whole rounds of one workload, one call after another in a single
process, until ``--seconds`` have passed, and checks every round's
outputs against the oracles.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, frames_per_s,
peak_rss_mb); with ``--trace 1`` untraced and traced rounds alternate,
and the metrics are per-layer figures from the traced rounds plus the
tracing overhead against the untraced rounds.  Spans are written to
``pitbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
IMPORT_REPEATS = 5
SETUP_REPEATS = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pitkit.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Median time to import pitkit in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _load_pitkit():
    sys.path.insert(0, str(SRC))
    import pitkit
    import pitkit.cli
    import pitkit.decode
    import pitkit.defaults
    import pitkit.experiments
    import pitkit.synth

    if Path(pitkit.__file__).resolve().parent != SRC / "pitkit":
        raise ImportError(f"pitkit imported from {pitkit.__file__}, not from {SRC}")
    return pitkit


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pitkit" / "__init__.py").is_file():
        print(f"error: no pitkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import_s = _import_seconds()
    pitkit = _load_pitkit()
    workload = WORKLOADS[args.workload](pitkit, args.seed, OUT / f"{args.workload}-{args.seed}")
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(builds)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    untraced, traced = [], []
    problems, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        if trace_this:
            tracer.install()
            workload.tracer = tracer
        try:
            elapsed, outputs = workload.run_round()
        finally:
            if trace_this:
                tracer.uninstall()
                workload.tracer = None
        (traced if trace_this else untraced).append(elapsed)
        round_problems, round_failed = workload.check(outputs)
        problems += round_problems
        attempted += workload.operations
        failed += round_failed
        # Stop when one more typical round would end past the deadline by
        # more than half a round, so a run lasts about --seconds.
        typical = statistics.median(untraced + traced)
        if time.perf_counter() - start + typical / 2 >= args.seconds and (tracer is None or traced):
            break

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(untraced) + len(traced),
                      "frames_per_round": workload.frames,
                      "round_s": untraced,
                      "quality": workload.quality(outputs)}))

    untraced_fps = workload.frames / statistics.median(untraced)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "frames_per_s": (untraced_fps, "frames/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    else:
        from tracing import layer_metrics
        traced_fps = workload.frames / statistics.median(traced)
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_pct"] = ((untraced_fps / traced_fps - 1.0) * 100.0, "%")
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path, len(traced))
        absent = tracer.absent_layers()
        print(json.dumps({"trace_file": str(trace_path.relative_to(ROOT)),
                          "spans": len(tracer.spans), "missing_names": tracer.missing,
                          "absent_layers": absent}))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
