"""Calibration units: fixed work that tracks the speed of the machine.

On a shared machine the speed of the benchmark's cores drifts in spells
that last minutes, far longer than a run, so runs taken minutes apart
differ by up to a third.  A run therefore times calibration units between
its ops and scales each time it reports by ``REFERENCE_S`` over the unit
time measured around it: the mean of the fastest three quarters of the
units near it, so that one preempted unit does not swing the scale.  The
reported times are "reference seconds": what the measured work would take
at the speed the reference machine had when ``REFERENCE_S`` was measured.

A unit is pure Python of the same kind as the program's hot paths
(integer arithmetic, dictionaries keyed by tuples, ``Fraction``
coefficients) and calls nothing of the program, so a change to the
program never changes a unit.
"""

from __future__ import annotations

import time
from fractions import Fraction

# mean seconds of one unit on the reference machine (2 shared cores,
# Python 3.11.7); it only sets the scale of the reported times
REFERENCE_S = 0.0045
SHARE = 0.2  # calibration seconds per second of op time in a timed run
WINDOW = 10  # units on each side of an op that scale its time
KEEP = 0.75  # share of a window's units, the fastest, whose mean is used
WARM_UNITS = 3  # run first, untimed, so the interpreter has specialized them
SETUP_UNITS_S = 0.25  # seconds of units after set-up, to scale set-up time

_LEFT = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
_RIGHT = {(i, j): i - j + 3 for i in range(5) for j in range(4)}


def _integers() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def _polynomial() -> int:
    out = {}
    for (a0, a1), coef_a in _LEFT.items():
        for (b0, b1), coef_b in _RIGHT.items():
            key = (a0 + b0, a1 + b1)
            coef = out.get(key, 0) + coef_a * coef_b
            if coef:
                out[key] = coef
            else:
                out.pop(key, None)
    return len(out)


def unit() -> float:
    """Run one unit; the seconds it took."""
    start = time.perf_counter()
    _integers()
    _polynomial()
    return time.perf_counter() - start


def warm() -> None:
    for _ in range(WARM_UNITS):
        unit()


def scale(times: list) -> float:
    """REFERENCE_S over the mean of the fastest KEEP of unit ``times``."""
    kept = sorted(times)[: max(1, round(KEEP * len(times)))]
    return REFERENCE_S * len(kept) / sum(kept)


def scale_for(seconds: float) -> float:
    """The scale measured by ``seconds`` of units run now."""
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(unit())
    return scale(times)


def windowed_scales(positions: list, units: list) -> list:
    """For each op, the scale of the WINDOW units on each side of it;
    ``positions[i]`` is how many units ran before op i."""
    return [scale(units[max(0, p - WINDOW) : p + WINDOW]) for p in positions]
