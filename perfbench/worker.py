#!/usr/bin/env python3
"""Run one workload in this fresh interpreter and print one JSON line.

run.py starts this script with the FRACCHERN_* variables cleared and the
repository's src directory on PYTHONPATH; it refuses to run otherwise.

Modes:
  setup  import, build inputs and models, run the warm-up ops, stop
  timed  set up, then one caller runs ops back to back (a closed loop) for
         --seconds and on to the end of the round then running, so that
         every op of the catalogue ran equally often, and for at least
         MIN_OPS ops so that ten ops lie beyond the 90th percentile;
         calibration units run between the ops (see calibrate.py)
  trace  set up, run one round of the catalogue untraced, then the same
         round under the span tracer, then untraced again to time it;
         report per-layer metrics

Every mode reports its set-up time both as measured and in reference
seconds, scaled by calibration units run after set-up.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

if any(name.startswith("FRACCHERN_") for name in os.environ):
    sys.exit("worker: clear the FRACCHERN_* variables first (run.py does)")

import calibrate  # noqa: E402
import fracchern  # noqa: E402
import kernel_cases  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100


def attempt(workload, op):
    """(ok, exception) for one op; an op that raises is a failed op."""
    try:
        return bool(workload.run(op)), None
    except Exception as exc:  # counted as a failure, never fatal
        return False, exc


def report_failure(op, exc) -> None:
    detail = f"{type(exc).__name__}: {exc}" if exc else "wrong output"
    print(f"worker: op {op!r} failed: {detail}", file=sys.stderr)


def set_up(name: str):
    """Fresh workload with its warm-up ops run; (workload, failed warm-ups)."""
    workload = workloads.WORKLOADS[name]()
    failed = 0
    for op in workload.set_up():
        ok, exc = attempt(workload, op)
        if not ok:
            failed += 1
            report_failure(op, exc)
    return workload, failed


def timed(workload, seed: int, seconds: float) -> dict:
    """Closed loop of ops with calibration units between them.  Each op's
    time is scaled by the units around it; the raw_* values are as
    measured."""
    ops = workloads.rounds(workload, seed)
    size = len(workload.catalogue)
    latencies = []
    positions = []  # units run before each op
    units = []
    failed = 0
    busy = calibrating = 0.0
    deadline = time.perf_counter() + seconds
    while len(latencies) < MIN_OPS or time.perf_counter() < deadline or len(latencies) % size:
        op = next(ops)
        positions.append(len(units))
        start = time.perf_counter()
        ok, exc = attempt(workload, op)
        latency = time.perf_counter() - start
        latencies.append(latency)
        busy += latency
        if not ok:
            failed += 1
            if failed == 1:
                report_failure(op, exc)
        while calibrating < calibrate.SHARE * busy:
            units.append(calibrate.unit())
            calibrating += units[-1]
    scaled = [t * k for t, k in zip(latencies, calibrate.windowed_scales(positions, units))]
    return {
        "attempted": len(latencies),
        "failed": failed,
        "busy_s": sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": statistics.quantiles(scaled, n=10)[-1] * 1e3,
        "raw_busy_s": busy,
        "raw_latency_p50_ms": statistics.median(latencies) * 1e3,
        "raw_latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "speed": calibrate.scale(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def untraced_pass(workload, batch) -> tuple:
    """(busy seconds, failed ops) for one untraced pass over batch."""
    busy = 0.0
    failed = 0
    for op in batch:
        start = time.perf_counter()
        ok, _ = attempt(workload, op)
        busy += time.perf_counter() - start
        failed += not ok
    return busy, failed


def traced(workload, seed: int) -> dict:
    ops = workloads.rounds(workload, seed)
    batch = [next(ops) for _ in workload.catalogue]
    # a first untraced pass takes the first-run costs (caches, specializing
    # interpreter) that would otherwise land on the traced pass
    _, failed = untraced_pass(workload, batch)

    spans = tracer.Tracer()
    spans.install()
    unwrapped = sorted(set(tracer.IMPORT_SITES) - set(spans.wrapped))
    traced_s = 0.0
    mismatched = 0
    try:
        for op in batch:
            result, _, wall, unattributed, covered = spans.op(workload.run, op)
            traced_s += wall
            failed += not result
            # the span stack must account for every second of the op
            if abs(covered + unattributed - wall) > 1e-9 * max(1.0, wall):
                mismatched += 1
    finally:
        unrestored = spans.uninstall()
    for name in unwrapped:
        print(f"worker: binding {name} was not wrapped", file=sys.stderr)
    for name in unrestored:
        print(f"worker: binding {name} was not restored", file=sys.stderr)
    if mismatched:
        print(f"worker: {mismatched} ops whose span times do not add up", file=sys.stderr)
    untraced_s, failed_after = untraced_pass(workload, batch)
    failed += failed_after

    metrics = {name: spans.stats[name] for name in tracer.SPAN_METRICS}
    pairs = metrics["kernel.mul_terms.pairs"]
    metrics["kernel.mul_terms.yield"] = metrics["kernel.mul_terms.terms_out"] / pairs if pairs else 0.0
    metrics["op.calls"] = spans.stats["op.calls"]
    metrics["op.unattributed_s"] = spans.stats["op.unattributed_s"]
    # traced over untraced ops_per_s, for the same ops
    metrics["trace.overhead_ratio"] = untraced_s / traced_s
    metrics.update(kernel_cases.measure())
    return {
        "attempted": 3 * len(batch),
        "failed": failed,
        "trace_errors": mismatched + len(unwrapped) + len(unrestored),
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()

    workload, warmup_failed = set_up(args.workload)
    setup_s = time.perf_counter() - T0
    calibrate.warm()
    out = {
        "setup_s": setup_s * calibrate.scale_for(calibrate.SETUP_UNITS_S),
        "raw_setup_s": setup_s,
        "kernel": fracchern.KERNEL_NAME,
        "warmup_failed": warmup_failed,
    }
    if args.mode == "timed":
        out.update(timed(workload, args.seed, args.seconds))
    elif args.mode == "trace":
        out.update(traced(workload, args.seed))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
