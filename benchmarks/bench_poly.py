"""Micro-cases for the polynomial multiplication kernel.

Operands for ``mul_terms`` taken from the hot paths (theta coefficient
products, Koszul-signed loop-ring products, the rank-8 shifted-product
expansion).  ``perfbench/kernel_cases.py`` loads this file by path and
times the cases as the ``kernel.case_*_s`` metrics of
``python3 perfbench/run.py --trace 1``.
"""

import random
import time
from fractions import Fraction

from fracchern.gcring import RingPresentation


def dense_poly(ring, rng, terms):
    out = ring.zero()
    names = [g.name for g in ring.generators]
    for _ in range(terms):
        mono = ring.one()
        budget = ring.degree_cap
        for _ in range(rng.randint(1, 4)):
            name = rng.choice(names)
            g = ring.generators[ring.index[name]]
            if g.degree > budget:
                break
            nxt = mono * ring.gen(name)
            if nxt.is_zero:
                continue
            mono = nxt
            budget -= g.degree
        out = out + mono * rng.randint(-9, 9)
    return out


def workloads():
    rng = random.Random(1)
    theta_ring = RingPresentation(
        [("a", 2), ("x1", 2), ("x2", 2), ("x3", 2)], 8
    )
    loop_ring = RingPresentation(
        [("zb1", 1), ("g", 2), ("c1", 2), ("z2", 3), ("c2", 4)], 9
    )
    wide_ring = RingPresentation(
        [("a", 2)] + [(f"x{i}", 2) for i in range(1, 9)], 16
    )
    yield "theta coefficients (4 even gens, cap 8)", theta_ring, [
        (dense_poly(theta_ring, rng, 40), dense_poly(theta_ring, rng, 40))
        for _ in range(20)
    ]
    yield "loop classes (odd gens, Koszul signs)", loop_ring, [
        (dense_poly(loop_ring, rng, 30), dense_poly(loop_ring, rng, 30))
        for _ in range(30)
    ]
    big = wide_ring.one()
    shift = wide_ring.gen("a") * Fraction(1, 8)
    for i in range(1, 9):
        big = big * (wide_ring.one() + wide_ring.gen(f"x{i}") - shift)
    yield "rank-8 product expansion (9 gens, cap 16)", wide_ring, [(big, big)] * 3


def time_kernel(impl, ring, pairs, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for p, q in pairs:
            impl.mul_terms(p._terms, q._terms, ring.odd_fields, ring.key_limit)
        best = min(best, time.perf_counter() - start)
    return best

