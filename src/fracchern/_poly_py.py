"""The multiplication kernel for graded-commutative polynomials.

A monomial is one int key laid out by ``gcring``; the kernel needs only
three facts about it.  Adding two keys multiplies the monomials, and keys
sort by degree first, so a product whose key reaches the ring's key limit
lies above the degree cap.  The odd generators present are the key's bits
in the ring's ``odd_fields``, and a later generator sits in a lower bit.
Coefficients are integer numerators: ``gcring`` keeps each element's one
denominator and multiplies the two denominators of a product itself.
``_kernel`` re-exports it.
"""

KERNEL_NAME = "python"


def _prepare(terms, odd_fields):
    """Turn {key: int} into [(key, odd bits, int)] sorted by key."""
    return sorted((key, key & odd_fields, c) for key, c in terms.items())


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

    terms_a/terms_b: dict mapping monomial key -> int numerator.
    odd_fields: the lowest bit of each odd generator's field.
    Returns a dict in the same format, without zero numerators; its
    denominator is the product of the operands' denominators.
    """
    if not terms_a or not terms_b:
        return {}
    ea = _prepare(terms_a, odd_fields)
    eb = _prepare(terms_b, odd_fields)
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
    if 0 in acc.values():
        acc = {m: n for m, n in acc.items() if n}
    return acc
