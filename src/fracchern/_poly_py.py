"""The multiplication kernel for graded-commutative polynomials.

A monomial is one int key laid out by ``gcring``; the kernel needs only
three facts about it.  Adding two keys multiplies the monomials, and keys
sort by degree first, so a product whose key reaches the ring's key limit
lies above the degree cap.  The odd generators present are the key's bits
in the ring's ``odd_fields``, and a later generator sits in a lower bit.
Coefficients are integer numerators: ``gcring`` keeps each element's one
denominator and multiplies the two denominators of a product itself.
The kernel sorts only its right operand, once per call, and cuts each inner
loop at the key limit.  Given an accumulator dict it adds the products
into it in place and leaves any zero numerators there for the caller's
normal form.  ``_koszul_sign`` is the one Koszul sign rule: ring
maps that move odd generators take their signs from products made here.
``_kernel`` re-exports it.
"""

KERNEL_NAME = "python"


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


def mul_terms(terms_a, terms_b, odd_fields, limit, acc=None):
    """Multiply two term maps, dropping products whose key reaches ``limit``
    (degree above the cap); odd squares vanish.

    terms_a/terms_b: dict mapping monomial key -> int numerator.
    odd_fields: the lowest bit of each odd generator's field.
    acc: None, or a dict in the same format, neither operand, that the
    products are added into in place and that is returned; numerators that
    cancel there stay as zeros.
    Without acc, returns a new dict in the same format, without zero
    numerators.
    """
    sorted_b = sorted(terms_b.items())
    out = {} if acc is None else acc
    for key_a, num_a in terms_a.items():
        room = limit - key_a
        odd_a = key_a & odd_fields
        for key_b, num_b in sorted_b:
            if key_b >= room:
                break
            odd_b = key_b & odd_fields
            if odd_a & odd_b:
                continue
            n = num_a * num_b
            if odd_b and _koszul_sign(odd_a, odd_b) < 0:
                n = -n
            m = key_a + key_b
            if m in out:
                out[m] += n
            else:
                out[m] = n
    if acc is None and 0 in out.values():
        out = {m: n for m, n in out.items() if n}
    return out
