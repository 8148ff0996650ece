import random
from fractions import Fraction
from math import gcd

import pytest

from fracchern.gcring import RingPresentation


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_polynomial(ring: RingPresentation, rng, terms=6, max_coef=9):
    """Random element in normal form (may be zero); a constant over a ring
    without generators."""
    names = [g.name for g in ring.generators]
    if not names:
        return ring.constant(rng.randint(-max_coef, max_coef))
    out = ring.zero()
    for _ in range(terms):
        mono = ring.one()
        budget = ring.degree_cap
        for _ in range(rng.randint(0, 3)):
            name = rng.choice(names)
            g = ring.generators[ring.index[name]]
            if g.degree > budget:
                continue
            candidate = mono * ring.gen(name)
            if candidate.is_zero:
                continue
            mono = candidate
            budget -= g.degree
        coef = rng.randint(-max_coef, max_coef)
        out = out + mono * coef
    return out


def plain_moves_by_terms(images):
    """The key plan's moves read through ``terms()``, the reference for
    ``gcring._generator_moves``: per image, None for zero or the index of
    its one even generator with coefficient 1; None if any image is
    another element."""
    moves = []
    for img in images:
        terms = img.terms()
        if not terms:
            moves.append(None)
            continue
        if len(terms) != 1 or terms[0][1] != 1 or sum(terms[0][0]) != 1:
            return None
        j = terms[0][0].index(1)
        if img.ring.degrees[j] % 2:
            return None
        moves.append(j)
    return tuple(moves)


def assert_normal_form(p):
    """Int numerators over one positive denominator, coprime to them all,
    no zero numerator and den 1 for zero; the Fraction view round-trips,
    and an equal value built another way hashes equal."""
    assert type(p._den) is int and p._den > 0
    assert all(type(n) is int and n for n in p._terms.values())
    assert gcd(p._den, *p._terms.values()) == 1
    if p.is_zero:
        assert p._den == 1
    assert p.ring.from_exponents(dict(p.terms())) == p
    same = (p * Fraction(1, 3)) * 3
    assert same == p and hash(same) == hash(p)
