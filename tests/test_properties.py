"""Property-based tests: ring laws, parse/render round-trip, morphisms and
batched maps, unit inverses, q-series laws, formal_exp and free suspension
laws, and the CLI exit-code contract on mutated descriptors."""

import contextlib
import io
import json
from fractions import Fraction
from importlib import resources
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracchern import cli
from fracchern.errors import PreconditionError, PresentationMismatch
from fracchern.gcring import Generator, RingMorphism, RingPresentation, _KeyPlan, transplant
from fracchern.qtheta import HalfQSeries, formal_exp, qseries_div_unit, qseries_mul
from fracchern.towers import LEVELS
from fracchern.transgression import builtin_table, free_suspend, naturality_check
from fracchern.verify import FIXTURE_NAMES

from conftest import assert_normal_form, plain_moves_by_terms

# fixed examples, so that a failure repeats and the file stays fast
checked = settings(derandomize=True, deadline=None, max_examples=50)

coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def rings(draw, cap=None):
    """A presentation on 1-5 generators of degree 1-4, at least one odd."""
    degrees = draw(st.lists(st.integers(1, min(4, cap or 4)), min_size=1, max_size=5))
    if not any(d % 2 for d in degrees):
        degrees[0] = 1
    if cap is None:
        cap = draw(st.integers(max(degrees), 10))
    return RingPresentation([(f"g{i}", d) for i, d in enumerate(degrees)], cap)


def polynomials(ring):
    """Sums of up to 6 monomials; odd generators appear at most once."""
    exponents = st.tuples(*[st.integers(0, 1 if d % 2 else 3) for d in ring.degrees])
    return st.dictionaries(exponents, coefficients, max_size=6).map(
        lambda terms: ring.from_exponents(
            {e: c for e, c in terms.items() if ring.monomial_degree(e) <= ring.degree_cap}
        )
    )


@st.composite
def ring_with(draw, count):
    ring = draw(rings())
    return ring, [draw(polynomials(ring)) for _ in range(count)]


@checked
@given(ring_with(1))
def test_parse_render_roundtrip(case):
    ring, [p] = case
    assert ring.poly(p.render()) == p


def fraction_render(p):
    """The reference for ``render``: the text built from ``terms()``, with
    ``Fraction`` coefficients."""
    chunks = []
    for i, (exps, coef) in enumerate(p.terms()):
        factors = [f"{name}^{e}" if e > 1 else name for name, e in zip(p.ring.names, exps) if e]
        magnitude = abs(coef)
        if factors:
            body = "*".join(factors)
            if magnitude != 1:
                body = f"{magnitude}*{body}"
        else:
            body = str(magnitude)
        if i == 0:
            chunks.append(body if coef > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if coef > 0 else f" - {body}")
    return "".join(chunks) or "0"


@checked
@given(ring_with(2), coefficients.filter(bool))
def test_render_matches_the_fraction_rendering(case, scalar):
    ring, [p, q] = case
    for r in (p, -p, p * scalar, p * q, p + scalar, ring.constant(scalar), ring.zero(), ring.one()):
        assert r.render() == fraction_render(r)


@checked
@given(ring_with(3))
def test_associative_and_distributive(case):
    _, [p, q, r] = case
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@checked
@given(ring_with(2))
def test_graded_commutative(case):
    ring, [p, q] = case
    for dp in range(ring.degree_cap + 1):
        x = p.homogeneous_part(dp)
        for dq in range(ring.degree_cap + 1):
            y = q.homogeneous_part(dq)
            assert x * y == y * x * (-1) ** (dp * dq)


@checked
@given(ring_with(1))
def test_key_reads_match_decoded_exponents(case):
    """The reads of packed keys against the exponents and monomial_degree."""
    ring, [p] = case
    terms = p.terms()
    order = [(ring.monomial_degree(e), e) for e, _ in terms]
    assert all(x < y for x, y in zip(order, order[1:]))
    assert ring.from_exponents(dict(terms)) == p
    degrees = {d for d, _ in order}
    assert p.degree() == max(degrees, default=0)
    assert p.is_homogeneous() == (len(degrees) <= 1)
    for d in range(ring.degree_cap + 1):
        assert p.is_homogeneous(d) == (degrees <= {d})
        part = {e: c for e, c in terms if ring.monomial_degree(e) == d}
        assert p.homogeneous_part(d) == ring.from_exponents(part)


@checked
@given(ring_with(1))
def test_leading_term_is_the_last_term(case):
    ring, [p] = case
    if not p.is_zero:
        assert p.leading_term() == p.terms()[-1]
    with pytest.raises(PreconditionError):
        ring.zero().leading_term()


@checked
@given(ring_with(1), st.sampled_from([0, 1, -1, Fraction(1), Fraction(-1), Fraction(0)]) | coefficients)
def test_scalar_products_agree_on_either_side(case, c):
    """A scalar times p, as a number or as a constant element, on either
    side, against p's terms scaled one by one."""
    ring, [p] = case
    scaled = ring.from_exponents({e: x * c for e, x in p.terms()})
    assert p * c == c * p == p * ring.constant(c) == ring.constant(c) * p == scaled


def homogeneous(ring, degree):
    """Sums of up to 3 of ring's monomials of the degree (zero if it has none)."""
    ranges = [range(2 if d % 2 else degree // d + 1) for d in ring.degrees]
    monomials = [e for e in product(*ranges) if ring.monomial_degree(e) == degree]
    if not monomials:
        return st.just(ring.zero())
    return st.dictionaries(st.sampled_from(monomials), coefficients, max_size=3).map(
        ring.from_exponents
    )


@st.composite
def morphisms(draw):
    """A degree-preserving morphism into a ring of the same cap, with two
    source elements.  Each image is a random element of the target of the
    generator's degree."""
    source = draw(rings())
    target = draw(rings(cap=source.degree_cap))
    images = {g.name: draw(homogeneous(target, g.degree)) for g in source.generators}
    p, q = draw(polynomials(source)), draw(polynomials(source))
    return RingMorphism(source, target, images), p, q


@checked
@given(morphisms())
def test_morphism_is_multiplicative(case):
    f, p, q = case
    assert f(p * q) == f(p) * f(q)
    assert f(p + q) == f(p) + f(q)
    assert f(f.source.one()) == f.target.one()


def product_of_images(f, p):
    """f(p) term by term: the coefficient times the product of the
    generator images' powers, in declared order, summed one term at a time."""
    out = f.target.zero()
    for exps, coef in p.terms():
        term = f.target.constant(coef)
        for name, e in zip(f.source.names, exps):
            if e:
                term = term * f.images[name] ** e
        out = out + term
    return out


@settings(checked, max_examples=150)
@given(morphisms())
def test_generic_path_matches_product_of_images(case):
    f, p, q = case
    for x in (p, q, p * q):
        assert f._apply_generic(x) == product_of_images(f, x)


SCALARS = st.sampled_from([1, -1, 2, Fraction(-1, 3)]) | coefficients.filter(bool)


@st.composite
def generator_maps(draw):
    """A map sending each generator to zero or a scalar times one target
    generator, with an element of the source.  The target's cap may be
    below the source's, its generators come in shuffled order, and two odd
    generators may land on one target generator."""
    source = draw(rings())
    cap = draw(st.integers(1, source.degree_cap + 2))
    kept = [g for g in source.generators if g.degree <= cap]
    if draw(st.booleans()):
        # a rename: the kept generators under their own names
        target = RingPresentation(draw(st.permutations(kept)), cap)
        images = {g.name: target.gen(g.name) * draw(SCALARS) for g in kept}
    else:
        extra = draw(st.lists(st.integers(1, min(4, cap)), max_size=2))
        degrees = draw(st.permutations([g.degree for g in kept] + extra))
        target = RingPresentation([(f"h{i}", d) for i, d in enumerate(degrees)], cap)
        images = {}
        for g in source.generators:
            names = [h.name for h in target.generators if h.degree == g.degree]
            if names and draw(st.booleans()):
                images[g.name] = target.gen(draw(st.sampled_from(names))) * draw(SCALARS)
    images = {g.name: images.get(g.name, target.zero()) for g in source.generators}
    return RingMorphism(source, target, images), draw(polynomials(source))


@settings(checked, max_examples=300)
@given(generator_maps())
def test_key_remap_matches_generic_path(case):
    """Odd reorderings, rational scalars, merges and a lower target cap:
    a plan exactly for the maps without a scalar or an odd generator, and
    either route gives the generic route's image."""
    f, p = case
    assert (f._plan is not None) == (plain_moves_by_terms(f.images.values()) is not None)
    assert f(p) == f._apply_generic(p)


@st.composite
def shuffled_transplants(draw):
    """A ring on 1-5 generators of degree 1-4, odd or even, an element of
    it, and the same generators in shuffled order at a cap no lower."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    cap = draw(st.integers(max(degrees), 10))
    source = RingPresentation([(f"g{i}", d) for i, d in enumerate(degrees)], cap)
    target = RingPresentation(draw(st.permutations(source.generators)), cap + draw(st.integers(0, 2)))
    return source, target, draw(polynomials(source))


@checked
@given(shuffled_transplants())
def test_transplant_round_trip(case):
    """There and back is the identity; the way there takes the key plan
    exactly when no generator is odd."""
    source, target, p = case
    planned, key_apply = [], _KeyPlan.apply

    def apply(plan, q):
        planned.append(plan)
        return key_apply(plan, q)

    with mock.patch.object(_KeyPlan, "apply", apply):
        there = transplant(p, target)
    assert transplant(there, source) == p
    assert bool(planned) == (not any(d % 2 for d in source.degrees))


@settings(checked, max_examples=150)
@given(generator_maps(), st.data())
def test_a_map_keeps_its_monomial_images_across_calls(case, data):
    """A map whose generic route has already mapped other elements, in a
    batch and one at a time, gives what a freshly built map gives; its
    memo holds only divisors of the monomials mapped through it.  A new
    map builds neither its key plan nor its memo before it is applied,
    and the key path never builds the memo."""
    f, p = case
    polys = [p, p * p] + [data.draw(polynomials(f.source)) for _ in range(3)]

    def fresh():
        g = RingMorphism(f.source, f.target, f.images)
        assert "_plan" not in vars(g) and "_memo" not in vars(g)
        return g

    f._map_generic(polys[2:])
    for q in polys:
        assert f._apply_generic(q) == fresh()._apply_generic(q)
    assert f._map_generic(polys) == [fresh()._apply_generic(q) for q in polys]
    unpack = f.source.unpack
    mapped = [unpack(m) for q in polys for m in q._terms]
    for key in f._memo:
        assert key == 0 or any(all(a <= b for a, b in zip(unpack(key), m)) for m in mapped)
    g = fresh()
    g.map_all(polys)
    assert ("_memo" in vars(g)) == (g._plan is None)


@st.composite
def unit_renames(draw):
    """A unit-scalar rename of an even ring, with an element of the source:
    an endomorphism sending each generator to one of equal degree (most
    often a permutation, else two may merge), or a map by name onto the
    generators in another order, with the target cap below, at or above the
    source's."""
    degrees = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=6))
    cap = draw(st.integers(max(degrees), 10))
    source = RingPresentation([(f"g{i}", d) for i, d in enumerate(degrees)], cap)
    if draw(st.booleans()):
        target, mapping = source, {}
        merge = draw(st.integers(0, 3)) == 0
        for d in set(degrees):
            names = [g.name for g in source.generators if g.degree == d]
            images = [draw(st.sampled_from(names)) for _ in names] if merge else draw(st.permutations(names))
            mapping.update(zip(names, images))
    else:
        cap = source.degree_cap + draw(st.sampled_from([-2, 0, 2]))
        target = RingPresentation(draw(st.permutations(source.generators)), max(cap, max(degrees)))
        mapping = {}
    return RingMorphism.rename(source, target, mapping), draw(polynomials(source))


@settings(checked, max_examples=300)
@given(unit_renames())
def test_mask_case_matches_generic_path(case):
    """Such a map takes the mask case exactly when it is injective and the
    target's cap is not below the source's."""
    f, p = case
    distinct = len(set(f._moves)) == len(f._moves)
    assert f._plan.injective == (distinct and f.target.degree_cap >= f.source.degree_cap)
    image = f(p)
    assert image == f._apply_generic(p)
    assert_normal_form(image)


@st.composite
def batches(draw):
    """A map on the key path or the generic path, with a list of source
    elements that mixes denominators 3 and 4, zero and a constant."""
    f, p = draw(generator_maps() | morphisms().map(lambda case: case[:2]))
    q = draw(polynomials(f.source))
    constant = f.source.constant(draw(coefficients))
    polys = [p, p * Fraction(1, 3), q * Fraction(1, 4), f.source.zero(), constant]
    return f, draw(st.permutations(polys))


@checked
@given(batches())
def test_batched_map_matches_single_maps(case):
    f, polys = case
    images = f.map_all(polys)
    assert images == [f(p) for p in polys] == [f._apply_generic(p) for p in polys]
    assert f.map_all([]) == []
    stranger = RingPresentation(f.source.generators, f.source.degree_cap + 1).one()
    with pytest.raises(PresentationMismatch):
        f.map_all(polys + [stranger])


@st.composite
def even_rings(draw):
    """A presentation on 1-3 generators of degree 2 or 4, cap 4-8: its
    elements commute."""
    degrees = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))
    return RingPresentation([(f"g{i}", d) for i, d in enumerate(degrees)], draw(st.integers(4, 8)))


@st.composite
def even_series(draw, count):
    """``count`` series over one ring of even generators, where the
    coefficients commute, at one q-order up to 2."""
    ring = draw(even_rings())
    top = draw(st.integers(1, 4))
    halves = st.dictionaries(st.integers(0, top), polynomials(ring), max_size=3)
    return [
        HalfQSeries(ring, {Fraction(k, 2): p for k, p in draw(halves).items()}, Fraction(top, 2))
        for _ in range(count)
    ]


@settings(checked, max_examples=30)
@given(even_series(3), coefficients.filter(bool))
def test_series_products_and_unit_division(series, scalar):
    f, g, h = series
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    unit = g + HalfQSeries.unit(g.ring, g.q_order) * (scalar - g.coefficient(0).constant_term())
    assert qseries_div_unit(f * unit, unit) == f


def naive_qseries_mul(f, g):
    """The reference for ``qseries_mul``: each pair's product made on its
    own and added into its coefficient."""
    f._check_compatible(g.ring, g._top)
    top = f._top
    out: dict = {}
    for kf, pf in f._halves.items():
        for kg, pg in g._halves.items():
            k = kf + kg
            if k > top:
                continue
            prod = pf * pg
            if prod.is_zero:
                continue
            if k in out:
                out[k] = out[k] + prod
            else:
                out[k] = prod
    return HalfQSeries._from_halves(f.ring, out, top)


def series_coefficients(ring):
    """Polynomials, polynomials times an odd generator, or lone constants
    with exactly 1 among them."""
    odd = [ring.gen(g.name) for g in ring.generators if g.is_odd]
    constants = st.sampled_from([1, -1, Fraction(1, 3)]) | coefficients.filter(bool)
    odd_multiples = st.tuples(polynomials(ring), st.sampled_from(odd)).map(lambda pair: pair[0] * pair[1])
    return polynomials(ring) | odd_multiples | constants.map(ring.constant)


@st.composite
def series_pairs(draw):
    """Two series over one ring with at least two odd generators, so that
    Koszul signs show, at one q-order from 1/2 to 4, with polynomial and
    lone-constant coefficients."""
    ring = draw(rings())
    if sum(d % 2 for d in ring.degrees) < 2:
        ring = RingPresentation(ring.generators + (Generator("h", 1),), ring.degree_cap)
    top = draw(st.integers(1, 8))
    halves = st.dictionaries(st.integers(0, top), series_coefficients(ring), max_size=6)
    return [
        HalfQSeries(ring, {Fraction(k, 2): p for k, p in draw(halves).items()}, Fraction(top, 2))
        for _ in range(2)
    ]


@settings(checked, max_examples=200)
@given(series_pairs())
def test_fused_series_product_matches_the_pairwise_product(pair):
    f, g = pair
    for a, b in ((f, g), (g, f), (f, f)):
        product = qseries_mul(a, b)
        assert product == naive_qseries_mul(a, b)
        for p in product._halves.values():
            assert_normal_form(p)
    other_order = HalfQSeries.unit(f.ring, f.q_order + Fraction(1, 2))
    other_ring = HalfQSeries.unit(RingPresentation(f.ring.generators, f.ring.degree_cap + 1), f.q_order)
    for stranger in (other_order, other_ring):
        for mul in (qseries_mul, naive_qseries_mul):
            with pytest.raises(PreconditionError, match="^series must share ring and q_order$"):
                mul(f, stranger)


@checked
@given(ring_with(1), coefficients.filter(bool))
def test_inverse_unit_inverts_units(case, scalar):
    ring, [p] = case
    unit = p + (scalar - p.constant_term())
    inverse = unit.inverse_unit()
    assert unit * inverse == ring.one() == inverse * unit


@checked
@given(even_rings().flatmap(lambda ring: st.tuples(polynomials(ring), polynomials(ring))))
def test_formal_exp_turns_sums_into_products(pair):
    x, y = (p - p.constant_term() for p in pair)
    assert formal_exp(x + y) == formal_exp(x) * formal_exp(y)


# every generator of each source ring carries a value, so nu is defined on
# all of its polynomials
SUSPENSION_TABLES = (
    builtin_table("BUn", n=2, degree_cap=8),
    builtin_table("BUn_l", n=2, l=2, degree_cap=8),
)


@checked
@given(
    st.sampled_from(SUSPENSION_TABLES).flatmap(
        lambda t: st.tuples(st.just(t), polynomials(t.source), polynomials(t.source))
    ),
    coefficients,
)
def test_free_suspend_is_linear_and_kills_constants(case, scalar):
    table, p, q = case
    assert free_suspend(table, p + q * scalar) == free_suspend(table, p) + free_suspend(table, q) * scalar
    assert free_suspend(table, table.source.constant(scalar)) == table.target.zero()


@checked
@given(
    st.sampled_from(SUSPENSION_TABLES).flatmap(
        lambda t: st.tuples(st.just(t), polynomials(t.source), polynomials(t.source))
    )
)
def test_free_suspend_obeys_leibniz(case):
    """nu(pq) = nu(p) q + p nu(q) for even p, q moved to the loop ring by
    name.  Both caps are 8 and every source degree is even, so the terms pq
    loses above the cap are the ones the right side loses too."""
    table, p, q = case
    nu_p, nu_q = free_suspend(table, p), free_suspend(table, q)
    leibniz = nu_p * transplant(q, table.target) + transplant(p, table.target) * nu_q
    assert free_suspend(table, p * q) == leibniz


@settings(checked, max_examples=30)
@given(coefficients, coefficients, coefficients)
def test_naturality_holds_for_a_loop_map_built_to_commute(alpha, beta, gamma):
    """f: c1 -> alpha c1, c2 -> beta c2 + gamma c1^2 on BUn (n = 2); Lf is f on
    the c's, z1 -> nu(f(c1)) and z2 -> nu(f(c2)) - Lf(z1) Lf(c1), so the
    square commutes.  Adding z1 c1 to Lf(z2) must break it."""
    nu = builtin_table("BUn", n=2)
    bun, blun = nu.source, nu.target
    c1, c2 = bun.gen("c1"), bun.gen("c2")
    f = RingMorphism(bun, bun, {"c1": c1 * alpha, "c2": c2 * beta + c1 * c1 * gamma})
    lc1, lc2 = blun.gen("c1"), blun.gen("c2")
    lift = {"c1": lc1 * alpha, "c2": lc2 * beta + lc1 * lc1 * gamma, "z1": free_suspend(nu, f.images["c1"])}
    lift["z2"] = free_suspend(nu, f.images["c2"]) - lift["z1"] * lift["c1"]
    assert naturality_check(f, RingMorphism(blun, blun, lift), nu, nu).ok
    lift["z2"] = lift["z2"] + blun.gen("z1") * lc1
    assert not naturality_check(f, RingMorphism(blun, blun, lift), nu, nu).ok


@checked
@given(ring_with(2), coefficients.filter(bool))
def test_arithmetic_keeps_normal_form(case, scalar):
    ring, [p, q] = case
    flipped = RingPresentation(ring.generators[::-1], ring.degree_cap + 1)
    results = [p + q, p - q, p * q, p * scalar, p / scalar, p - p, transplant(p, flipped)]
    results += [p.homogeneous_part(d) for d in range(ring.degree_cap + 1)]
    for r in results:
        assert_normal_form(r)
    back = (p + q) - q
    assert back == p and hash(back) == hash(p)


@checked
@given(generator_maps())
def test_ring_maps_keep_normal_form(case):
    f, p = case
    assert_normal_form(f(p))
    assert_normal_form(f._apply_generic(p))


# each replaces one leaf of a shipped fixture, as raw JSON text
LEAF_VALUES = ("1e400", "4.9", "-1", "true", "null", '""', '"((("', "[]", "{}", "1" * 5000)


def _leaves(value, path=()):
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path


def _fixture(name):
    return json.loads(resources.files("fracchern").joinpath("fixtures", name).read_text())


FIXTURE_LEAVES = [(name, path) for name in FIXTURE_NAMES for path in _leaves(_fixture(name))]


def _mutated(name, path, raw):
    data = _fixture(name)
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = "@leaf@"
    return json.dumps(data).replace('"@leaf@"', raw)


@settings(checked, max_examples=150)
@given(st.sampled_from(FIXTURE_LEAVES), st.sampled_from(LEAF_VALUES), st.sampled_from(LEVELS))
def test_cli_mutated_descriptor_exit_codes(leaf, raw, level):
    text = _mutated(*leaf, raw)
    for command in ("count", "obstruction"):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--level", level, "--descriptor", "-"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert code == 0 or len(err.getvalue().splitlines()) == 1
