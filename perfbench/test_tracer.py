"""Tests of the benchmark's tracer and harness.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def ticking_tracer():
    """A tracer whose clock advances by one on every read."""
    ticks = count()
    return tracer.Tracer(clock=lambda: float(next(ticks)))


def test_self_time_excludes_child_spans():
    spans = ticking_tracer()
    leaf = spans._wrap(lambda: 1, "t.leaf", None)
    outer = spans._wrap(lambda: leaf() + leaf(), "t.outer", None)
    result, error, wall, unattributed, covered = spans.op(outer)
    # clock reads: op 0, outer 1, leaf 2-3, leaf 4-5, outer 6, op 7
    assert (result, error) == (2, None)
    assert spans.stats["t.leaf.calls"] == 2
    assert spans.stats["t.leaf.self_s"] == 2
    assert spans.stats["t.outer.self_s"] == 3
    assert (wall, unattributed, covered) == (7, 2, 5)


def test_recursion_and_errors_keep_the_stack_balanced():
    spans = ticking_tracer()

    def descend(k):
        if k == 0:
            raise ValueError("bottom")
        return traced(k - 1)

    traced = spans._wrap(descend, "t.descend", None)
    result, error, wall, unattributed, covered = spans.op(traced, 3)
    assert result is None and isinstance(error, ValueError)
    assert spans.stats["t.descend.calls"] == 4
    assert covered + unattributed == wall
    assert spans.op(lambda: "next")[0] == "next"  # the stack was emptied


def test_install_wraps_every_import_site_and_restores_them():
    import fracchern.cli  # noqa: F401  (loads every program module)
    from fracchern import _kernel
    from fracchern.gcring import GradedPolynomial

    sites = []
    for site in tracer.IMPORT_SITES:
        module, attr = site.rsplit(".", 1)
        sites.append((importlib.import_module(module), attr))
    sites.append((GradedPolynomial, "__radd__"))
    # the selected kernel's own module, whichever kernel that is
    sites.append((_kernel._impl, "mul_terms"))
    originals = [vars(ns)[attr] for ns, attr in sites]
    spans = tracer.Tracer()
    spans.install()
    try:
        wrapped = set(spans.wrapped)
        for ns, attr in sites:
            assert f"{ns.__name__}.{attr}" in wrapped
            assert getattr(vars(ns)[attr], "__wrapped__", None) is not None
    finally:
        assert spans.uninstall() == []
    assert [vars(ns)[attr] for ns, attr in sites] == originals


def test_kernel_span_follows_the_selected_kernel(monkeypatch):
    """With another kernel selected (the compiled one, say), the span must
    wrap that kernel's bindings, not the pure-Python definition."""
    from fracchern import _kernel, _poly_py, gcring

    def other_kernel(*args):
        return _poly_py.mul_terms(*args)

    monkeypatch.setattr(_kernel, "mul_terms", other_kernel)
    monkeypatch.setattr(gcring, "mul_terms", other_kernel)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert gcring.mul_terms.__wrapped__ is other_kernel
        assert _kernel.mul_terms.__wrapped__ is other_kernel
        ring = gcring.RingPresentation([("a", 2), ("b", 2)], 4)
        ring.gen("a") * ring.gen("b")
    finally:
        spans.uninstall()
    assert spans.stats["kernel.mul_terms.calls"] == 1
    assert gcring.mul_terms is other_kernel


def test_windowed_scales_cancel_a_uniform_slowdown():
    # the same work at half speed: units and ops both take twice as long
    fast = calibrate.windowed_scales([0, 5, 30], [0.004] * 30)
    slow = calibrate.windowed_scales([0, 5, 30], [0.008] * 30)
    for f, s in zip(fast, slow):
        assert math.isclose(0.010 * f, 0.020 * s)
    assert math.isclose(fast[0], calibrate.REFERENCE_S / 0.004)


@pytest.mark.parametrize(
    "workload, ops",
    [
        ("oracle_sweep", [(4, 2, 2), (5, 1, 3), (6, 3, 4)]),
        ("witten_series", [(1, 1, "theta2", 2), (2, 2, "theta3", 3)]),
        ("cli_requests", None),
    ],
)
def test_span_self_times_add_up_to_op_wall_time(workload, ops, monkeypatch):
    monkeypatch.chdir(ROOT)
    bench = workloads.WORKLOADS[workload]()
    bench.set_up()
    if ops is None:
        ops = bench.catalogue[::25]
    spans = tracer.Tracer()
    spans.install()
    try:
        for op in ops:
            result, error, wall, unattributed, covered = spans.op(bench.run, op)
            assert result is True and error is None
            assert math.isclose(covered + unattributed, wall, rel_tol=1e-9, abs_tol=1e-12)
    finally:
        spans.uninstall()
    assert spans.stats["op.calls"] == len(ops)


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACCHERN_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def counts(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if not name.endswith("_s") and name != "trace.overhead_ratio"}


def traced_run_counts(workload: str, seed: int) -> dict:
    """The count metrics of the traced run the benchmark reports."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", "trace",
         "--seed", str(seed)],
        cwd=ROOT, env=clean_env(), capture_output=True, text=True, timeout=170, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == 0 and out["trace_errors"] == 0
    return counts(out["metrics"])


def test_traced_run_counts_repeat_exactly_for_a_fixed_seed():
    first = traced_run_counts("cli_requests", seed=5)
    assert first == traced_run_counts("cli_requests", seed=5)
    assert first["op.calls"] == len(workloads.CliRequests().catalogue)
    for name in ("kernel.mul_terms.calls", "kernel.mul_terms.pairs",
                 "kernel.mul_terms.terms_out", "gcring.morphism_apply.calls"):
        assert first[name] > 0


# traces fixed oracle_sweep ops, whose whole-round traced run is too long
# for a unit test, in a fresh interpreter; prints the tracer's counts
ORACLE_TRACE = """
import json, sys
sys.path.insert(0, "perfbench")
import tracer, workloads
bench = workloads.OracleSweep()
for op in bench.set_up():
    bench.run(op)
spans = tracer.Tracer()
spans.install()
for op in [(4, 2, 2), (5, 1, 3), (6, 3, 4), (6, 2, 5)]:
    assert spans.op(bench.run, op)[0] is True
assert spans.uninstall() == []
print(json.dumps(spans.stats))
"""


def oracle_counts() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", ORACLE_TRACE],
        cwd=ROOT, env=clean_env(), capture_output=True, text=True, timeout=170, check=True,
    )
    return counts(json.loads(proc.stdout.splitlines()[-1]))


def test_oracle_kernel_and_morphism_counts_repeat_exactly():
    first = oracle_counts()
    assert first == oracle_counts()
    for name in ("kernel.mul_terms.calls", "kernel.mul_terms.pairs",
                 "kernel.mul_terms.terms_out", "gcring.morphism_apply.calls"):
        assert first[name] > 0


def test_rounds_are_seeded_permutations_of_the_catalogue():
    bench = workloads.OracleSweep()
    size = len(bench.catalogue)

    def take(seed):
        ops = workloads.rounds(bench, seed)
        return [next(ops) for _ in range(2 * size)]

    first = take(7)
    assert first == take(7)
    assert first != take(8)
    assert sorted(first[:size]) == sorted(bench.catalogue) == sorted(first[size:])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_requests", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
