import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracchern import _kernel
from fracchern.errors import ExpressionError, PreconditionError, PresentationMismatch
from fracchern.gcring import (
    Generator,
    GradedPolynomial,
    RingMorphism,
    RingPresentation,
    _generator_moves,
    _normal_form,
    _sum_of_products,
    transplant,
)
from fracchern.spaces import SPACE_NAMES, space_ring
from fracchern.symroots import RootModel
from fracchern.transgression import DerivationTable

from conftest import assert_normal_form, plain_moves_by_terms, random_polynomial


@pytest.fixture
def even_ring():
    return RingPresentation([("a", 2), ("c1", 2), ("c2", 4)], 12)


@pytest.fixture
def loop_ring():
    return RingPresentation([("z1", 1), ("c1", 2), ("z2", 3), ("c2", 4)], 12)


def test_add_examples(even_ring):
    c1 = even_ring.gen("c1")
    assert c1 + c1 == c1 * 2
    p = even_ring.poly("c2 - 3*a*c1")
    assert p + even_ring.zero() == p
    a, c2 = even_ring.gen("a"), even_ring.gen("c2")
    assert (c2 - a * c1) + (a * c1) == c2


def test_odd_square_vanishes(loop_ring):
    z1 = loop_ring.gen("z1")
    assert (z1 * z1).is_zero
    z2 = loop_ring.gen("z2")
    assert (z2 * z2).is_zero


def test_even_odd_commute(loop_ring):
    z1, c1 = loop_ring.gen("z1"), loop_ring.gen("c1")
    assert z1 * c1 == c1 * z1
    assert (z1 * c1).render() == "z1*c1"


def test_koszul_sign(loop_ring):
    z1, z2 = loop_ring.gen("z1"), loop_ring.gen("z2")
    assert z1 * z2 == loop_ring.poly("z1*z2")
    assert z2 * z1 == -(z1 * z2)


def test_graded_commutativity_random(loop_ring, rng):
    for _ in range(40):
        d1 = rng.choice([1, 2, 3, 4])
        d2 = rng.choice([1, 2, 3, 4])
        p = random_polynomial(loop_ring, rng).homogeneous_part(d1)
        q = random_polynomial(loop_ring, rng).homogeneous_part(d2)
        sign = -1 if (d1 % 2 and d2 % 2) else 1
        assert p * q == (q * p) * sign


def test_associativity_distributivity(loop_ring, rng):
    for _ in range(25):
        p = random_polynomial(loop_ring, rng)
        q = random_polynomial(loop_ring, rng)
        r = random_polynomial(loop_ring, rng)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_normal_form_insertion_order(even_ring, rng):
    terms = [
        (even_ring.gen("a") ** 2, Fraction(3, 2)),
        (even_ring.gen("c2"), Fraction(1)),
        (even_ring.gen("a") * even_ring.gen("c1"), Fraction(-3, 2)),
    ]
    total_forward = even_ring.zero()
    for mono, coef in terms:
        total_forward = total_forward + mono * coef
    total_backward = even_ring.zero()
    for mono, coef in reversed(terms):
        total_backward = total_backward + mono * coef
    assert total_forward == total_backward
    assert total_forward.render() == "c2 - 3/2*a*c1 + 3/2*a^2"


def test_truncation_is_ring_quotient(rng):
    big = RingPresentation([("z1", 1), ("c1", 2), ("z2", 3), ("c2", 4)], 9)
    small = RingPresentation([("z1", 1), ("c1", 2), ("z2", 3), ("c2", 4)], 5)
    for _ in range(25):
        p = random_polynomial(big, rng)
        q = random_polynomial(big, rng)
        p_small = transplant(_truncate(p, 5), small)
        q_small = transplant(_truncate(q, 5), small)
        assert transplant(_truncate(p * q, 5), small) == p_small * q_small


def _truncate(p, cap):
    out = p.ring.zero()
    for d in range(cap + 1):
        out = out + p.homogeneous_part(d)
    return out


def test_transplant_matches_names_and_names_the_first_fault():
    source = RingPresentation([("a", 2), ("b", 1), ("c", 2), ("z", 3)], 8)
    target = RingPresentation([("z", 3), ("a", 2), ("c", 4), ("b", 1)], 6)
    p = source.poly("3*a^2 - 1/2*a*z + b*z")
    # z*b is -b*z, as in the source's order
    assert transplant(p, target) == target.poly("3*a^2 - 1/2*z*a - z*b")
    nameless = RingPresentation([("a", 2), ("c", 4)], 8)
    faults = [
        (nameless, "a*b", "generator b does not exist in the target presentation"),
        (target, "c", "generator c changes degree"),
        # render order meets c (degree 2) before b*a (degree 3)
        (nameless, "a*b + c", "generator c changes degree"),
        (target, "a^4", "monomial exceeds degree cap"),
        (nameless, "a^4 + b", "generator b does not exist in the target presentation"),
    ]
    for ring, text, message in faults:
        with pytest.raises(PreconditionError) as info:
            transplant(source.poly(text), ring)
        assert str(info.value) == message


def test_rename_onto_generators_in_another_order():
    source = RingPresentation([("x", 2), ("y", 4)], 8)
    target = RingPresentation([("u", 4), ("v", 2)], 8)
    f = RingMorphism.rename(source, target, {"x": "v", "y": "u"})
    assert f._moves == (1, 0)
    assert f(source.poly("x^2 + y")) == target.poly("v^2 + u")


def test_apply_morphism_expands_square(even_ring):
    shift = RingMorphism.substitution(even_ring, {"c1": "c1 - 2*a"})
    assert shift(even_ring.poly("c1^2")) == even_ring.poly("c1^2 - 4*a*c1 + 4*a^2")


def test_identity_morphism(even_ring, rng):
    ident = RingMorphism.identity(even_ring)
    for _ in range(10):
        p = random_polynomial(even_ring, rng)
        assert ident(p) == p


def test_morphism_is_ring_map(loop_ring, rng):
    target = loop_ring
    images = {
        "z1": target.poly("3*z1"),
        "c1": target.poly("2*c1"),
        "z2": target.poly("z2 + z1*c1"),
        "c2": target.poly("c2 - c1^2"),
    }
    m = RingMorphism(loop_ring, target, images)
    for _ in range(20):
        p = random_polynomial(loop_ring, rng)
        q = random_polynomial(loop_ring, rng)
        assert m(p * q) == m(p) * m(q)
        assert m(p + q) == m(p) + m(q)


def test_morphism_validation(even_ring, loop_ring):
    with pytest.raises(PreconditionError):
        RingMorphism(even_ring, even_ring, {"a": "c2", "c1": "c1", "c2": "c2"})
    with pytest.raises(PreconditionError):
        RingMorphism(even_ring, even_ring, {"a": "a", "c1": "c1"})
    with pytest.raises(PresentationMismatch):
        even_ring.gen("a") + loop_ring.gen("c1")


@pytest.mark.parametrize(
    "build,error,match",
    [
        (lambda r, o: r.gen("a") ** -1, PreconditionError, "^polynomial powers must be nonnegative integers$"),
        (lambda r, o: r.gen("a") ** 1.5, PreconditionError, "^polynomial powers must be nonnegative integers$"),
        (lambda r, o: r.from_exponents({(1, 0): 1}), PreconditionError, "^exponent tuple length mismatch$"),
        (lambda r, o: r.from_exponents({(-1, 0, 0): 1}), PreconditionError, "^negative exponent$"),
        (lambda r, o: r.from_exponents({(1, 0, 0): 0.5}), TypeError, "^expected an exact rational, got float$"),
        (
            lambda r, o: RingMorphism.substitution(r, {"zz": r.gen("a")}),
            ExpressionError,
            "^unknown generator 'zz'$",
        ),
        (
            lambda r, o: RingMorphism(r, r, {"a": o.gen("c1"), "c1": "c1", "c2": "c2"}),
            PresentationMismatch,
            "^image of a is not over the target$",
        ),
        (
            lambda r, o: RingMorphism(r, r, {"a": "a", "c1": "c1", "c2": "c2", "zzz": "a"}),
            PreconditionError,
            "^unknown source generator 'zzz'$",
        ),
        (
            lambda r, o: RingMorphism.identity(r).then(RingMorphism.identity(o)),
            PresentationMismatch,
            "^morphisms do not compose$",
        ),
    ],
    ids=[
        "negative_power", "fractional_power", "exponent_length", "negative_exponent",
        "float_coefficient", "substitution_unknown", "image_over_another_ring",
        "image_of_an_unknown_generator", "then_mismatch",
    ],
)
def test_library_refusals(even_ring, loop_ring, build, error, match):
    with pytest.raises(error, match=match):
        build(even_ring, loop_ring)


@pytest.mark.parametrize(
    "value,error",
    [
        (0, None),
        (Fraction(0), None),
        (1, "image of a must be homogeneous of degree 2"),
        (Fraction(1, 2), "image of a must be homogeneous of degree 2"),
        (None, "image of a must be a polynomial, got None"),
        (2.5, "image of a must be a polynomial, got 2.5"),
        ([1], r"image of a must be a polynomial, got \[1\]"),
    ],
    ids=["zero", "zero_fraction", "one", "half", "none", "float", "list"],
)
def test_image_values_that_are_not_strings_or_polynomials(even_ring, loop_ring, value, error):
    # a number is a constant; anything else is refused in one line
    if error is None:
        kill_a = RingMorphism.substitution(even_ring, {"a": value})
        assert kill_a._moves is not None
        assert kill_a(even_ring.poly("a*c1 + c2 - a^2")) == even_ring.poly("c2")
        table = DerivationTable(even_ring, loop_ring, {"c2": value})
        assert table.values["c2"].is_zero
        return
    with pytest.raises(PreconditionError, match=error) as info:
        RingMorphism.substitution(even_ring, {"a": value})
    assert "\n" not in str(info.value)
    with pytest.raises(PreconditionError, match="value of c2"):
        DerivationTable(even_ring, loop_ring, {"c2": value})


def test_homogeneous_part(even_ring):
    p = even_ring.one() + even_ring.gen("c1") + even_ring.gen("c2")
    assert p.homogeneous_part(4) == even_ring.gen("c2")
    total = even_ring.zero()
    for d in range(even_ring.degree_cap + 1):
        total = total + p.homogeneous_part(d)
    assert total == p
    q = even_ring.poly("a*c1 + a^2")
    assert q.homogeneous_part(4) == q


def test_is_integral(even_ring):
    assert even_ring.poly("2*c1 - a").is_integral
    assert not even_ring.poly("1/2*c1").is_integral
    assert even_ring.zero().is_integral


def test_render_cases(even_ring, loop_ring):
    assert even_ring.zero().render() == "0"
    assert even_ring.one().render() == "1"
    assert even_ring.constant(Fraction(-3, 2)).render() == "-3/2"
    assert (-even_ring.gen("c2")).render() == "-c2"
    assert (loop_ring.gen("z2") * -2 + loop_ring.gen("z1")).render() == "z1 - 2*z2"
    limit = str(sys.get_int_max_str_digits())
    for too_long in (even_ring.constant(2**20000), even_ring.gen("c1") * Fraction(1, 3**10000)):
        with pytest.raises(PreconditionError, match=limit):
            too_long.render()


def test_generator_validation():
    with pytest.raises(PreconditionError):
        Generator("bad name", 2)
    with pytest.raises(PreconditionError):
        Generator("x", 0)
    with pytest.raises(PreconditionError):
        RingPresentation([("x", 2), ("x", 4)], 8)
    with pytest.raises(PreconditionError):
        RingPresentation([("x", 6)], 4)


def test_exponent_validation(loop_ring):
    with pytest.raises(PreconditionError):
        loop_ring.from_exponents({(2, 0, 0, 0): Fraction(1)})
    with pytest.raises(PreconditionError):
        loop_ring.from_exponents({(0, 7, 0, 0): Fraction(1)})
    # a key holds every exponent, so a short tuple is refused, not padded
    z1 = loop_ring.gen("z1")
    assert z1.coefficient((1, 0, 0, 0)) == 1
    with pytest.raises(PreconditionError):
        z1.coefficient((1,))


def test_presentation_json_roundtrip(even_ring):
    data = even_ring.to_json()
    assert data == {
        "generators": [
            {"name": "a", "degree": 2},
            {"name": "c1", "degree": 2},
            {"name": "c2", "degree": 4},
        ],
        "degree_cap": 12,
    }
    assert RingPresentation.from_json(data) == even_ring


def test_inverse_unit(even_ring):
    u = even_ring.poly("2 + a + c2")
    assert u * u.inverse_unit() == even_ring.one()
    with pytest.raises(PreconditionError):
        even_ring.gen("a").inverse_unit()


def naive_product(p, q):
    """p*q from exponent tuples alone: the Koszul sign counts the pairs
    (odd generator of q, higher-index odd generator of p) that swap."""
    ring = p.ring
    odd = [g.is_odd for g in ring.generators]
    out = {}
    for ea, ca in p.terms():
        for eb, cb in q.terms():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if any(o and e > 1 for o, e in zip(odd, exps)):
                continue
            if ring.monomial_degree(exps) > ring.degree_cap:
                continue
            swaps = sum(
                ea[i]
                for j in range(len(odd))
                if odd[j] and eb[j]
                for i in range(j + 1, len(odd))
                if odd[i]
            )
            out[exps] = out.get(exps, 0) + (-1) ** swaps * ca * cb
    return ring.from_exponents(out)


def test_kernel_matches_naive_product(loop_ring):
    rng = random.Random(7)
    truncated = odd_signed = 0
    for _ in range(200):
        p = random_polynomial(loop_ring, rng)
        q = random_polynomial(loop_ring, rng)
        terms = _kernel.mul_terms(
            p._terms, q._terms, loop_ring.odd_fields, loop_ring.key_limit
        )
        assert GradedPolynomial(loop_ring, terms) == naive_product(p, q)
        truncated += p.degree() + q.degree() > loop_ring.degree_cap
        odd_signed += any(e[2] for e, _ in p.terms()) and any(e[0] for e, _ in q.terms())
    # the random pairs reach both the cap and the Koszul signs
    assert truncated and odd_signed


@st.composite
def kernel_operands(draw):
    """A ring with an odd generator and two integral operands.  Each holds
    one monomial of a boundary pair whose product has degree cap (key just
    below the key limit) or cap + 1 (key just past it)."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    if not any(d % 2 for d in degrees):
        degrees[0] = 1
    exponents = st.tuples(*[st.integers(0, 1 if d % 2 else 3) for d in degrees])
    pair = [draw(exponents.filter(any)) for _ in range(2)]
    pair_degrees = [sum(d * e for d, e in zip(degrees, m)) for m in pair]
    cap = sum(pair_degrees) - draw(st.integers(0, 1))
    assume(cap >= max(degrees + pair_degrees))
    ring = RingPresentation([(f"g{i}", d) for i, d in enumerate(degrees)], cap)
    coefficients = st.integers(-9, 9)
    operands = []
    for boundary in pair:
        terms = draw(st.dictionaries(exponents, coefficients, max_size=6))
        terms = {e: c for e, c in terms.items() if ring.monomial_degree(e) <= cap}
        terms[boundary] = draw(coefficients.filter(bool))
        operands.append(ring.from_exponents(terms))
    return ring, operands


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kernel_operands())
def test_kernel_matches_naive_product_at_the_key_limit(case):
    """The kernel against the naive product in both operand orders and with
    an empty operand on either side, on random rings with odd generators,
    at and just past the key limit."""
    ring, (p, q) = case
    for a, b in ((p, q), (q, p), (p, ring.zero()), (ring.zero(), q)):
        terms = _kernel.mul_terms(a._terms, b._terms, ring.odd_fields, ring.key_limit)
        assert GradedPolynomial(ring, terms) == naive_product(a, b)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kernel_operands(), st.data())
def test_kernel_adds_into_an_accumulator(case, data):
    """With ``acc`` the kernel adds the product into that dict in place and
    returns it; numerators that cancel may stay there as zeros, which the
    normal form drops.  The start dict holds some of the product's keys
    negated, so they cancel, and some of the operands' keys.  Without
    ``acc`` the kernel returns a new dict with no zero numerator."""
    ring, (p, q) = case
    coefficients = st.integers(-9, 9)
    for a, b in ((p, q), (q, p), (p, ring.zero()), (ring.zero(), q)):
        fresh = _kernel.mul_terms(a._terms, b._terms, ring.odd_fields, ring.key_limit)
        assert 0 not in fresh.values()
        cancel = data.draw(st.sets(st.sampled_from(sorted(fresh)))) if fresh else set()
        start = {m: -fresh[m] for m in cancel}
        for m in sorted(p._terms.keys() | q._terms.keys()):
            start.setdefault(m, data.draw(coefficients))
        expected = _normal_form(ring, 1, dict(start)) + naive_product(a, b)
        acc = dict(start)
        out = _kernel.mul_terms(a._terms, b._terms, ring.odd_fields, ring.key_limit, acc)
        assert out is acc
        assert _normal_form(ring, 1, out) == expected


@st.composite
def product_sums(draw):
    """A ring with two odd generators and a small cap, a list of pairs
    (a, b) and a den.  Each a is an int (0 and negative ones too), a lone
    constant 1, -1 or 1/3, or an element; each b is a lone constant or an
    element.  Element coefficients have denominators 1, 3 and 4.  The list
    may be empty, may repeat its pairs in the other order, so that odd
    factors meet both ways round, and may repeat them negated, so that it
    cancels to zero."""
    degrees = [1, 1] + draw(st.lists(st.integers(1, 4), max_size=2))
    cap = draw(st.integers(max(degrees), 6))
    ring = RingPresentation([(f"g{i}", d) for i, d in enumerate(degrees)], cap)
    exponents = st.tuples(*[st.integers(0, 1 if d % 2 else 3) for d in degrees])
    coefficients = st.sampled_from([1, -1, 2, -5, Fraction(1, 3), Fraction(-2, 3), Fraction(3, 4), Fraction(-1, 4)])
    elements = st.dictionaries(exponents, coefficients, min_size=1, max_size=4).map(
        lambda terms: ring.from_exponents({e: c for e, c in terms.items() if ring.monomial_degree(e) <= cap})
    )
    constants = st.sampled_from([1, -1, Fraction(1, 3)]).map(ring.constant)
    pairs = draw(st.lists(st.tuples(st.integers(-3, 3) | constants | elements, constants | elements), max_size=4))
    if draw(st.booleans()):
        pairs += [(b, a) for a, b in pairs if not isinstance(a, int)]
    if draw(st.booleans()):
        pairs += [(-a, b) for a, b in pairs]
    return ring, pairs, draw(st.sampled_from([1, 2, 3, 12]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(product_sums())
def test_sum_of_products_matches_the_naive_sum(case):
    """``_sum_of_products`` against the naive products of its pairs, an int
    factor taken as a constant, summed and divided by den through exponent
    tuples; the result, and the empty sum, in normal form."""
    ring, pairs, den = case
    expected = {}
    for a, b in pairs:
        for exps, c in naive_product(ring.constant(a) if isinstance(a, int) else a, b).terms():
            expected[exps] = expected.get(exps, 0) + c / den
    got = _sum_of_products(ring, pairs, den)
    assert got == ring.from_exponents(expected)
    assert_normal_form(got)
    assert _sum_of_products(ring, [], den) == ring.zero()


def test_product_over_two_denominators_matches_naive_product(loop_ring):
    """Operands over the denominators 3 and 4, then a sum and a difference
    whose denominators cancel to 1."""
    rng = random.Random(11)
    c1, z1 = loop_ring.gen("c1"), loop_ring.gen("z1")
    for _ in range(50):
        # the added term's coefficient is an integer plus 1/3 (or -1/4)
        p = random_polynomial(loop_ring, rng) + c1 * Fraction(1, 3)
        q = random_polynomial(loop_ring, rng) - z1 * Fraction(1, 4)
        assert (p._den, q._den) == (3, 4)
        assert p * q == naive_product(p, q)
        whole_p, whole_q = p + c1 * Fraction(2, 3), q - z1 * Fraction(3, 4)
        assert whole_p.is_integral and whole_q.is_integral
        assert whole_p._den == whole_q._den == 1
        assert whole_p * whole_q == naive_product(whole_p, whole_q)
        assert whole_p * q == naive_product(whole_p, q)


def test_constant_operand_matches_naive_product(loop_ring):
    """A lone constant term, integer or fractional, on either side of a
    product: the integral and the fractional other operand are scaled as
    the naive product says."""
    rng = random.Random(13)
    constants = [0, 1, -1, 6, Fraction(-3, 4), Fraction(7, 2)]
    for _ in range(30):
        p = random_polynomial(loop_ring, rng)
        for other in (p, p + loop_ring.gen("z2") * Fraction(1, 6)):
            for c in constants:
                k = loop_ring.constant(c)
                assert other * k == naive_product(other, k)
                assert k * other == naive_product(k, other)
                assert k * k == naive_product(k, k)


def test_morphism_rejects_foreign_polynomial(even_ring, loop_ring):
    ident = RingMorphism.identity(even_ring)
    with pytest.raises(PresentationMismatch):
        ident(loop_ring.gen("z1"))


def test_product_by_one_returns_the_other_factor(loop_ring, rng):
    """Elements are immutable, so a factor 1 shares its operand; so does
    the first power."""
    p = random_polynomial(loop_ring, rng) + loop_ring.gen("z2") * Fraction(1, 6)
    one = loop_ring.one()
    for same in (p * 1, 1 * p, p * Fraction(1), one * p, p * one, p ** 1):
        assert same is p
    assert one * one is one


@pytest.mark.parametrize("key_path", [True, False])
def test_single_and_batched_maps_refuse_a_foreign_polynomial_alike(even_ring, loop_ring, key_path):
    images = {"c1": "a", "c2": "c2"} if key_path else {"c1": "c1", "c2": "c2 - c1^2"}
    f = RingMorphism.substitution(even_ring, images)
    assert (f._plan is not None) == key_path
    stranger = loop_ring.gen("c1")
    messages = []
    for apply in (lambda: f(stranger), lambda: f.map_all([even_ring.one(), stranger])):
        with pytest.raises(PresentationMismatch) as info:
            apply()
        messages.append(str(info.value))
    assert messages == ["polynomial is not over the morphism source"] * 2


EVEN = [("a", 2), ("b", 2), ("c", 4)]
MIXED = [("u", 1), ("a", 2), ("v", 1), ("b", 2), ("c", 4)]


@pytest.mark.parametrize(
    "generators,images,keyed",
    [
        (EVEN, {}, True),
        (EVEN, {"a": "b", "b": "a"}, True),
        (MIXED, {"u": "0", "v": "0", "a": "0", "b": "a"}, True),
        (EVEN, {"a": "2/2*a", "b": "0*b"}, True),
        (EVEN, {"b": "2*b"}, False),
        (EVEN, {"a": "-a"}, False),
        (EVEN, {"b": "3/4*b"}, False),
        (EVEN, {"a": "a - 1/2*a"}, False),
        (MIXED, {"u": "0", "v": "0"}, True),
        (MIXED, {"u": "v", "v": "u"}, False),
        (MIXED, {"u": "0", "v": "0", "b": "u*v"}, False),
        (EVEN, {"c": "a*b"}, False),
        (EVEN, {"a": "a + b"}, False),
        (EVEN, {"c": "a^2"}, False),
    ],
    ids=[
        "identity", "renames", "zero", "two_halves", "scaled", "negated", "rational",
        "half_difference", "odd_dropped", "odd_target", "odd_product", "product", "two_terms",
        "square",
    ],
)
def test_generator_moves_match_the_terms_route(generators, images, keyed):
    """Moves exist exactly when every image is zero or one even generator
    with coefficient 1; the key plan is built for exactly those maps."""
    f = RingMorphism.substitution(RingPresentation(generators, 8), images)
    images = list(f.images.values())
    expected = plain_moves_by_terms(images)
    assert _generator_moves(images) == expected
    assert (expected is not None) == keyed
    assert (f._plan is not None) == keyed


def test_gen_is_the_unit_exponent_element():
    rings = [space_ring(name, n=4, l=2) for name in SPACE_NAMES]
    model = RootModel(3, 3, extra_even=("b",))
    for ring in rings + [model.ring, model.e_ring]:
        for i, name in enumerate(ring.names):
            unit = tuple(int(j == i) for j in range(len(ring.names)))
            reference = ring.from_exponents({unit: 1})
            assert ring.gen(name) == reference and hash(ring.gen(name)) == hash(reference)
        with pytest.raises(ExpressionError, match="^unknown generator 'zz'$"):
            ring.gen("zz")


def test_presentation_size_limits():
    with pytest.raises(PreconditionError):
        RingPresentation([(f"x{i}", 2) for i in range(65)], 4)
    with pytest.raises(PreconditionError):
        RingPresentation([("x", 2)], 1 << 15)
    # 64 generators and the maximal cap are accepted
    wide = RingPresentation([(f"x{i}", 2) for i in range(64)], 128)
    assert (wide.gen("x0") * wide.gen("x63")).render() == "x0*x63"
    # full-width keys: odd first and last generators, the largest cap
    cap = RingPresentation.MAX_DEGREE_CAP
    ends = RingPresentation([("z0", 1)] + [(f"x{i}", 2) for i in range(1, 63)] + [("z63", 1)], cap)
    z0, z63, top = ends.gen("z0"), ends.gen("z63"), ends.gen("x1") ** (cap // 2)
    assert z63 * z0 == -(z0 * z63)
    assert (z63 * z0).render() == "-z0*z63"
    assert (top * z63).render() == f"x1^{cap // 2}*z63"  # exactly at the cap: kept
    assert (top * z63).degree() == cap
    assert (top * z63 * z0).is_zero and (top * (z0 * z63)).is_zero  # one above: dropped


def test_merged_plain_fields_reach_the_largest_cap_without_a_carry():
    """x^a*y^b*z^c -> z^(a+b+c) with the monomial's degree at
    MAX_DEGREE_CAP: the merged exponent 16383 fills its field, and two
    monomials merging on one key add their coefficients."""
    cap = RingPresentation.MAX_DEGREE_CAP
    ring = RingPresentation([("u", 1), ("x", 2), ("y", 2), ("z", 2)], cap)
    f = RingMorphism.rename(ring, ring, {"x": "z", "y": "z"})
    a, b = 5000, 6000
    c = cap // 2 - a - b
    p = ring.from_exponents({(1, a, b, c): 3, (0, a, b, c): Fraction(1, 2), (0, c, a, b): -1})
    image = f(p)
    assert image == ring.from_exponents({(1, 0, 0, cap // 2): 3, (0, 0, 0, cap // 2): Fraction(-1, 2)})
    assert image.degree() == cap
    assert image == f._apply_generic(p)
