"""Kernel micro-cases: ``mul_terms`` on fixed operands from the hot paths.

The cases are those of ``benchmarks/bench_poly.py`` (theta coefficient
products, Koszul-signed loop-ring products, the rank-8 shifted-product
expansion), loaded from that script so that one copy exists.  They are
timed through the kernel the program selected and reported as the
per-layer ``kernel.case_*_s`` metrics of the ``_kernel`` layer.
"""

from __future__ import annotations

import importlib.util
import statistics
from pathlib import Path

from fracchern import _kernel

BENCH_POLY = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_poly.py"
REPEATS = 5
# one metric per case, in the order bench_poly.workloads() yields them
NAMES = ("kernel.case_theta_s", "kernel.case_loop_s", "kernel.case_rank8_s")


def _bench_poly():
    spec = importlib.util.spec_from_file_location("bench_poly", BENCH_POLY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure() -> dict:
    """Median over REPEATS of the seconds each case takes."""
    bench_poly = _bench_poly()
    cases = list(bench_poly.workloads())
    if len(cases) != len(NAMES):
        raise RuntimeError(f"{BENCH_POLY} has {len(cases)} cases, expected {len(NAMES)}")
    return {
        name: statistics.median(
            bench_poly.time_kernel(_kernel, ring, pairs, repeat=1) for _ in range(REPEATS)
        )
        for name, (_, ring, pairs) in zip(NAMES, cases)
    }
