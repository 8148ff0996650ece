"""Acceptance suite: one test per criterion, exact equality throughout,
and wider sweeps of criteria 1 and 9 under the same time budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; ``fracchern verify`` prints the same sweeps.
"""

import time

import pytest

from fracchern import verify

_BUDGET_SECONDS = {1: 10.0, 9: 60.0}


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in verify.run_all(max_n=8, q_order=4)}


@pytest.mark.parametrize(
    "number,description",
    [(c[0], c[1]) for c in verify.CRITERIA],
    ids=[f"criterion_{c[0]}" for c in verify.CRITERIA],
)
def test_criterion(results, number, description):
    result = results[number]
    print(result.line())
    assert result.ok, result.line()
    budget = _BUDGET_SECONDS.get(number)
    if budget is not None:
        assert result.seconds < budget, f"criterion {number} took {result.seconds:.1f}s"


@pytest.mark.parametrize(
    "number,sweep,args",
    [
        (1, verify.closed_vs_brute, (9,)),
        (1, verify.closed_vs_brute, (10,)),
        (1, verify.closed_vs_brute, (11,)),
        (1, verify.closed_vs_brute, (12,)),
        (9, verify.q_series, (4, 6)),
        (9, verify.q_series, (5, 6)),
    ],
    ids=[
        "criterion_1_n_le_9",
        "criterion_1_n_le_10",
        "criterion_1_n_le_11",
        "criterion_1_n_le_12",
        "criterion_9_n_le_4_q_order_6",
        "criterion_9_n_le_5_q_order_6",
    ],
)
def test_wider_sweep(number, sweep, args):
    """The criterion's sweep over a wider range, under the same budget."""
    start = time.time()
    ok, detail = sweep(*args)
    seconds = time.time() - start
    print(f"[{number}] {detail} in {seconds:.1f}s")
    assert ok, detail
    assert seconds < _BUDGET_SECONDS[number], f"criterion {number} took {seconds:.1f}s"
