#!/usr/bin/env python3
"""The fracchern benchmark: one workload per run, end to end or traced.

Usage, from the repository root:

  python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --trace 1 --out runs.jsonl

Each workload runs in fresh single-threaded interpreters (worker.py) with
the FRACCHERN_* variables cleared.  With --trace 0 the run reports the
end-to-end metrics named in BENCHMARK.json: one timed worker gives
throughput, latency and memory, and set-up time is the median over
SETUP_SAMPLES fresh workers.  Those times are reference seconds: each is
scaled by calibration units run in the same worker (see calibrate.py), so
that the machine's drift between runs cancels.  With --trace 1 it reports
the per-layer metrics from one traced worker, plus the median cold import
time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name every metric
with its unit, give the times as measured, and record the environment:
kernel, Python version, CPU count and commit.  --out appends the whole
record as one JSON line, for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
# every worker of one workload's run must end within --seconds plus this
ALLOWANCE_S = 140
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fracchern; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACCHERN_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def python(args: list, deadline: float) -> str:
    """Run a fresh interpreter in the repository root; its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=clean_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:3]} ran past the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[:3]} exited with {proc.returncode}")
    return lines[-1]


def worker(workload: str, mode: str, deadline: float, *extra) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--mode", mode, *extra]
    return json.loads(python(args, deadline))


def environment(kernels: set) -> dict:
    """What a comparison between runs must hold fixed."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            pass
    if len(kernels) != 1:
        raise BenchError(f"workers ran different kernels: {sorted(kernels)}")
    return {
        "kernel": kernels.pop(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    samples = [worker(workload, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = worker(workload, "timed", deadline, "--seed", str(seed), "--seconds", str(seconds))
    samples.append(run)
    attempted, failed = run["attempted"], run["failed"]
    metrics = {
        "ops_per_s": attempted / run["busy_s"],
        "latency_p50_ms": run["latency_p50_ms"],
        "latency_p90_ms": run["latency_p90_ms"],
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": 1 - failed / attempted,
    }
    measured = {
        "ops_per_s": attempted / run["raw_busy_s"],
        "latency_p50_ms": run["raw_latency_p50_ms"],
        "latency_p90_ms": run["raw_latency_p90_ms"],
        "setup_s": statistics.median(s["raw_setup_s"] for s in samples),
        "speed": run["speed"],
    }
    correct = failed == 0 and not any(s["warmup_failed"] for s in samples)
    return correct, attempted, failed, metrics, measured, {s["kernel"] for s in samples}


def per_layer(workload: str, seed: int, deadline: float):
    imports = [float(python(["-c", IMPORT_PROBE], deadline)) for _ in range(IMPORT_SAMPLES)]
    run = worker(workload, "trace", deadline, "--seed", str(seed))
    metrics = dict(run["metrics"], **{"import.fracchern_s": statistics.median(imports)})
    correct = run["failed"] == 0 and not run["warmup_failed"] and not run["trace_errors"]
    return correct, run["attempted"], run["failed"], metrics, {}, {run["kernel"]}


def measure(spec: dict, workload: str, args, deadline: float):
    """One workload's result, with every metric BENCHMARK.json names for
    this mode and no other."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        correct, attempted, failed, values, measured, kernels = per_layer(
            workload, args.seed, deadline
        )
    else:
        correct, attempted, failed, values, measured, kernels = end_to_end(
            workload, args.seed, args.seconds, deadline
        )
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, measured, environment(kernels)


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description="fracchern benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args()

    if not (SRC / "fracchern" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")

    results = {}
    deadline = start + (args.seconds + ALLOWANCE_S) * len(chosen)
    try:
        for workload in chosen:
            result, measured, env = measure(spec, workload, args, deadline)
            results[workload] = result
            print(f"{workload}: env {json.dumps(env)}")
            for name, metric in result["metrics"].items():
                raw = f" (measured {measured[name]:.6g})" if name in measured else ""
                print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}{raw}")
            if "speed" in measured:
                print(f"{workload}: machine speed = {measured['speed']:.4g} x reference")
            print(
                f"{workload}: fail_ratio = {result['failed'] / result['attempted']:.6g} "
                f"({result['failed']} of {result['attempted']} ops), correct = {result['correct']}"
            )
            if args.out:
                record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace, "env": env, "measured": measured,
                          "result": result}
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
