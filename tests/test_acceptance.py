"""Acceptance suite: one test per criterion, exact equality throughout,
wider sweeps of criteria 1, 3-6 and 9 under the same time budgets, and the
check runner's failure path (first failing check, failed cross-check).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; ``fracchern verify`` prints the same sweeps.
"""

import time

import pytest

from fracchern import cli, qtheta, symroots, towers, verify
from fracchern.errors import VerificationError

_BUDGET_SECONDS = {1: 10.0, 3: 5.0, 4: 5.0, 5: 5.0, 6: 5.0, 9: 60.0}


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
        (1, verify.closed_vs_brute, (13,)),
        (1, verify.closed_vs_brute, (14,)),
        (1, verify.closed_vs_brute, (15,)),
        (3, verify.splitting_relation, (8,)),
        (3, verify.splitting_relation, (10,)),
        (4, verify.tower_composition, (12,)),
        (4, verify.tower_composition, (24,)),
        (5, verify.transgression_suite, (12,)),
        (5, verify.transgression_suite, (24,)),
        (6, verify.loop_tower, (12,)),
        (6, verify.loop_tower, (24,)),
        (9, verify.q_series, (4, 6)),
        (9, verify.q_series, (5, 6)),
        (9, verify.q_series, (6, 6)),
        (9, verify.q_series, (7, 6)),
        (9, verify.q_series, (8, 6)),
    ],
    ids=[
        "criterion_1_n_le_9",
        "criterion_1_n_le_10",
        "criterion_1_n_le_11",
        "criterion_1_n_le_12",
        "criterion_1_n_le_13",
        "criterion_1_n_le_14",
        "criterion_1_n_le_15",
        "criterion_3_n_le_8",
        "criterion_3_n_le_10",
        "criterion_4_n_le_12",
        "criterion_4_n_le_24",
        "criterion_5_n_le_12",
        "criterion_5_n_le_24",
        "criterion_6_n_le_12",
        "criterion_6_n_le_24",
        "criterion_9_n_le_4_q_order_6",
        "criterion_9_n_le_5_q_order_6",
        "criterion_9_n_le_6_q_order_6",
        "criterion_9_n_le_7_q_order_6",
        "criterion_9_n_le_8_q_order_6",
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


def _injected_cross_check_failure(*args):
    raise VerificationError("cross-check failed: injected")


def _lambda_series_off_by_double(monkeypatch):
    real = qtheta._lambda_series
    monkeypatch.setattr(qtheta, "_lambda_series", lambda *args: real(*args) * 2)


def _theta_product_form_off_by_double(monkeypatch):
    real = qtheta._theta_product_form
    monkeypatch.setattr(qtheta, "_theta_product_form", lambda *args: real(*args) * 2)


def _shifted_orbit_with_a_twist(monkeypatch):
    """B_lambda plus a^|lambda| for every B_lambda of more than one term:
    the theta route's series moves, and its descent, read from the
    partition form, does not."""
    real = qtheta._shifted_orbit

    def spoiled(model, m):
        entry = real(model, m)
        if len(entry._terms) > 1:
            entry = entry + model.ring.gen("a") ** sum(model.ring.unpack(m))
        return entry

    monkeypatch.setattr(qtheta, "_shifted_orbit", spoiled)


@pytest.mark.parametrize(
    "culprit,break_it,detail",
    [
        (
            6,
            lambda mp: mp.setattr(towers, "lphi2_z2", _injected_cross_check_failure),
            "cross-check failed: injected",
        ),
        (
            9,
            _lambda_series_off_by_double,
            "theta_product and lambda_tensor expansions disagree at n=1, l=1, theta2",
        ),
        (9, _theta_product_form_off_by_double, "triple product failed for theta3"),
        (9, _shifted_orbit_with_a_twist, "descent does not map back at n=1, l=1, theta2"),
    ],
    ids=["criterion_6_raises", "criterion_9_disagrees", "criterion_9_triple_product", "criterion_9_maps_back"],
)
def test_failed_cross_check_fails_only_its_criterion(monkeypatch, capsys, culprit, break_it, detail):
    break_it(monkeypatch)
    results = verify.run_all(max_n=4, q_order=2)
    assert [r.number for r in results] == list(range(1, 11))
    assert [r.number for r in results if not r.ok] == [culprit]
    assert results[culprit - 1].detail == detail

    assert cli.main(["verify", "--max-n", "4"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 10
    assert [line.startswith("[FAIL]") for line in lines] == [n == culprit for n in range(1, 11)]
    assert f"({detail}, " in lines[culprit - 1]
    assert captured.err == "verification FAILED\n"


def test_sweep_stops_at_its_first_failing_check(monkeypatch):
    calls = []

    def brute(model, k):
        calls.append((model.n, model.l, k))
        return model.e_ring.zero()

    monkeypatch.setattr(symroots, "fractional_chern_brute", brute)
    assert verify.closed_vs_brute(3) == (False, "mismatch at n=1, l=1, k=0")
    assert calls == [(1, 1, 0)]
