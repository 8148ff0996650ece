"""The multiplication kernel for graded-commutative polynomials.

A monomial is one int key laid out by ``gcring``; the kernel needs only
three facts about it.  Adding two keys multiplies the monomials, and keys
sort by degree first, so a product whose key reaches the ring's key limit
lies above the degree cap.  The odd generators present are the key's bits
in the ring's ``odd_fields``, and a later generator sits in a lower bit.
``_kernel`` re-exports it.
"""

from fractions import Fraction
from math import lcm

KERNEL_NAME = "python"


def _prepare(terms, odd_fields):
    """Turn {key: Fraction} into (common_den, [(key, odd bits, int_coef)]) sorted by key."""
    den = 1
    for c in terms.values():
        den = lcm(den, c.denominator)
    entries = sorted(
        (key, key & odd_fields, c.numerator * (den // c.denominator)) for key, c in terms.items()
    )
    return den, entries


def _koszul_sign(odd_a, odd_b):
    """Sign from moving b's odd generators left past a's later ones, which
    sit in lower bits."""
    swaps = 0
    m = odd_b
    while m:
        low = m & -m
        swaps += (odd_a & (low - 1)).bit_count()
        m ^= low
    return -1 if swaps & 1 else 1


def mul_terms(terms_a, terms_b, odd_fields, limit):
    """Multiply two term maps, dropping products whose key reaches ``limit``
    (degree above the cap); odd squares vanish.

    terms_a/terms_b: dict mapping monomial key -> Fraction.
    odd_fields: the lowest bit of each odd generator's field.
    Returns a dict in the same format.
    """
    if not terms_a or not terms_b:
        return {}
    den_a, ea = _prepare(terms_a, odd_fields)
    den_b, eb = _prepare(terms_b, odd_fields)
    acc = {}
    for key_a, odd_a, num_a in ea:
        room = limit - key_a
        if eb[0][0] >= room:
            break
        for key_b, odd_b, num_b in eb:
            if key_b >= room:
                break
            if odd_a & odd_b:
                continue
            n = num_a * num_b
            if odd_b and _koszul_sign(odd_a, odd_b) < 0:
                n = -n
            m = key_a + key_b
            if m in acc:
                acc[m] += n
            else:
                acc[m] = n
    den = den_a * den_b
    return {m: Fraction(n, den) for m, n in acc.items() if n}
