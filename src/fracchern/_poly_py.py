"""The multiplication kernel for graded-commutative polynomials.

Monomials are packed into single Python ints, 16 bits of exponent per
generator (field i holds the exponent of generator i).  Merging two
monomials is then plain integer addition; exponents never reach 2**15,
so fields cannot carry into each other.  ``_kernel`` re-exports it.
"""

from fractions import Fraction
from math import lcm

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1

KERNEL_NAME = "python"


def _prepare(terms, degrees, odd_mask_by_gen):
    """Turn {packed: Fraction} into (common_den, [(packed, deg, odd_mask, int_coef)])."""
    den = 1
    for c in terms.values():
        den = lcm(den, c.denominator)
    entries = []
    for mono, coef in terms.items():
        deg = 0
        odd = 0
        m = mono
        i = 0
        while m:
            e = m & FIELD_MASK
            if e:
                deg += e * degrees[i]
                if odd_mask_by_gen[i]:
                    odd |= odd_mask_by_gen[i]
            m >>= FIELD_BITS
            i += 1
        entries.append((mono, deg, odd, coef.numerator * (den // coef.denominator)))
    entries.sort(key=lambda t: t[1])
    return den, entries


def _koszul_sign(odd_a, odd_b):
    """Sign from moving b's odd generators left past a's higher-index ones."""
    swaps = 0
    m = odd_b
    while m:
        low = m & -m
        i = low.bit_length() - 1
        swaps += (odd_a >> (i + 1)).bit_count()
        m ^= low
    return -1 if swaps & 1 else 1


def mul_terms(terms_a, terms_b, degrees, odd_mask_by_gen, cap):
    """Multiply two term maps, truncating above ``cap``; odd squares vanish.

    terms_a/terms_b: dict mapping packed monomial -> Fraction.
    degrees: tuple of generator degrees.
    odd_mask_by_gen: tuple, entry i is ``1 << i`` when generator i is odd
        else 0.
    Returns a dict in the same format.
    """
    if not terms_a or not terms_b:
        return {}
    den_a, ea = _prepare(terms_a, degrees, odd_mask_by_gen)
    den_b, eb = _prepare(terms_b, degrees, odd_mask_by_gen)
    acc = {}
    for mono_a, deg_a, odd_a, num_a in ea:
        room = cap - deg_a
        if eb[0][1] > room:
            break
        for mono_b, deg_b, odd_b, num_b in eb:
            if deg_b > room:
                break
            if odd_a & odd_b:
                continue
            n = num_a * num_b
            if odd_b and _koszul_sign(odd_a, odd_b) < 0:
                n = -n
            m = mono_a + mono_b
            if m in acc:
                acc[m] += n
            else:
                acc[m] = n
    den = den_a * den_b
    return {m: Fraction(n, den) for m, n in acc.items() if n}
