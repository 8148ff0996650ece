from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracchern import qtheta as qt
from fracchern import symroots as sr
from fracchern.errors import EngineError, PreconditionError, SymmetryError
from fracchern.gcring import RingMorphism, RingPresentation

from conftest import plain_moves_by_terms, random_polynomial


def divisors(n):
    return [l for l in range(1, n + 1) if n % l == 0]


def test_elementary_symmetric_examples():
    m2 = sr.RootModel(2, 2)
    assert sr.elementary_symmetric(0, m2) == m2.ring.one()
    assert sr.elementary_symmetric(1, m2) == m2.ring.poly("x1 + x2")
    m3 = sr.RootModel(3, 3)
    assert sr.elementary_symmetric(2, m3) == m3.ring.poly("x1*x2 + x1*x3 + x2*x3")
    with pytest.raises(PreconditionError):
        sr.elementary_symmetric(4, m3)


def test_shifted_total_chern_small():
    m1 = sr.RootModel(1, 1, degree_cap=4)
    assert sr.shifted_total_chern(m1) == m1.ring.poly("1 + x1 - a")
    m2 = sr.RootModel(2, 2)
    expected = m2.ring.poly(
        "1 + x1 + x2 - a + x1*x2 - 1/2*a*x1 - 1/2*a*x2 + 1/4*a^2"
    )
    assert sr.shifted_total_chern(m2) == expected


def _running_product(model):
    """prod_i (1 + x_i - a/l), one factor at a time."""
    out = model.ring.one()
    for r in model.shifted_roots():
        out = out * (model.ring.one() + r)
    return out


@pytest.mark.parametrize(
    "n,l,extra",
    [(n, l, ()) for n in range(1, 6) for l in divisors(n)] + [(4, 2, ("b",))],
)
def test_shifted_total_chern_matches_running_product(n, l, extra):
    m = sr.RootModel(n, l, extra_even=extra)
    assert sr.shifted_total_chern(m) == _running_product(m)


def test_root_tables_are_built_once_per_model():
    m = sr.RootModel(4, 2)
    assert sr.root_transpositions(m) is sr.root_transpositions(m)
    assert len(sr.root_transpositions(m)) == 3
    assert m._cycle is m._cycle
    for k in range(5):
        assert sr.elementary_symmetric(k, m) is sr.elementary_symmetric(k, m)
    other = sr.RootModel(4, 2)
    assert sr.root_transpositions(other) is not sr.root_transpositions(m)
    # shifted roots: built once, handed out as a new list each time
    assert m._shifted is m._shifted
    roots = m.shifted_roots()
    assert roots == m._shifted and roots is not m._shifted
    roots[0] = m.ring.zero()
    roots.append(m.ring.one())
    assert m.shifted_roots() == [x - m.ring.gen("a") / 2 for x in m.roots()]
    # the oracle builds no full shifted table and no Witten table; the
    # lambda route builds them once
    for k in range(5):
        sr.fractional_chern_brute(m, k)
    for table in ("_shifted_sigma", "_fractional_maps", "_level_tables"):
        assert table not in vars(m)
    qt.gch_witten(m, qt.WittenKind.THETA2, 2, "lambda_tensor")
    maps, levels = m._fractional_maps, m._level_tables
    qt.gch_witten(m, qt.WittenKind.THETA3, 3, "lambda_tensor")
    assert m._fractional_maps is maps and m._level_tables is levels
    assert len(levels) == 2 and all(len(table) == 5 for table in levels)
    assert other._fractional_maps is not maps


def test_the_level_product_is_built_once_per_model_by_the_lambda_route(monkeypatch):
    """The oracle builds no level product; the lambda route builds it with
    one sum of products per T_0..T_n, once per model, and every kind and
    q-order after the first reads that same table."""
    calls = []
    real = sr._sum_of_products

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(sr, "_sum_of_products", counted)
    m = sr.RootModel(4, 2, degree_cap=8)
    for k in range(5):
        sr.fractional_chern_brute(m, k)
    assert "_level_product" not in vars(m) and not calls
    qt.gch_witten(m, qt.WittenKind.THETA2, 2, "lambda_tensor")
    product = m._level_product
    assert len(product) == 9 and len(calls) == 5
    for kind in qt.WittenKind:
        for q in (Fraction(1, 2), 1, 3, 4):
            qt.gch_witten(m, kind, q, "lambda_tensor")
    assert m._level_product is product and len(calls) == 5
    other = sr.RootModel(4, 2, degree_cap=8)
    qt.gch_witten(other, qt.WittenKind.THETA3, 1, "lambda_tensor")
    assert other._level_product is not product and len(calls) == 10


def test_one_shifted_sigma_table_per_model(monkeypatch):
    """The back map f_k -> sigma_k(x - a/l), the total shifted Chern class
    and the splitting check all read the model's one shifted table, built
    by one expansion."""
    m = sr.RootModel(4, 2)
    expansions = []
    esp = sr._esp

    def counting_esp(values, *args):
        expansions.append(values)
        return esp(values, *args)

    monkeypatch.setattr(sr, "_esp", counting_esp)
    total = sr.shifted_total_chern(m)
    sigma = m._shifted_sigma
    assert total == sum(sigma, m.ring.zero())
    assert sr.splitting_check(m).ok
    assert sr.shifted_total_chern(m) == total and m._shifted_sigma is sigma
    assert sigma[0] == m.ring.one() and len(sigma) == 5
    back = m._fractional_maps[3]
    for k in range(1, 5):
        assert back.images[f"f{k}"] is sigma[k]
    assert expansions == [m._shifted]


@pytest.mark.parametrize("n,extra", [(2, ()), (3, ()), (6, ("b",)), (9, ())])
def test_root_permutations_take_the_mask_case(n, extra):
    """A silent fall back to the per-field loop would show here."""
    m = sr.RootModel(n, 1, extra_even=extra)
    for f in [*sr.root_transpositions(m), m._cycle]:
        assert f._plan.injective


@pytest.mark.parametrize("n,l", [(1, 1), (2, 1), (2, 2), (3, 3), (4, 2), (6, 3), (6, 6)])
def test_model_maps_take_the_key_plan_exactly_when_plain(n, l):
    """The root transpositions and n-cycle, a -> 0, e_k -> f_k, the back
    map and e_k -> sigma_k(x): a plan exactly when each image is zero or
    one even generator with coefficient 1, read through ``terms()``."""
    m = sr.RootModel(n, l, extra_even=("b",))
    _, at_zero, rename, back = m._fractional_maps
    for f in [*m._transpositions, m._cycle, at_zero, rename, back, m.elementary_to_roots()]:
        assert (f._plan is not None) == (plain_moves_by_terms(f.images.values()) is not None)
    assert at_zero._plan is not None and back._plan is None


@pytest.mark.parametrize("extra", [(), ("b",)])
@pytest.mark.parametrize("n", range(1, 7))
def test_parameter_dropping_maps_walk_and_match_the_generic_path(n, extra, rng):
    """The substitution a -> 0 and the rename e_k -> f_k, which sends the
    parameters to zero, drop keys, so they take the walk."""
    m = sr.RootModel(n, n, extra_even=extra)
    total = sr.shifted_total_chern(m)
    cases = [
        (RingMorphism.substitution(m.ring, {"a": 0}), total),
        (m._fractional_maps[2], sr.express_in_elementary(total, m)),
    ]
    for f, p in cases:
        assert f._plan is not None and not f._plan.injective
        for q in [p, *(random_polynomial(f.source, rng) for _ in range(8))]:
            assert f(q) == f._apply_generic(q)


def _sigma_power_product(model, multiplicities):
    """prod_k sigma_k^{m_k} (multiplicities indexed from 1), factor by
    factor: the reference for the model's table of sigma products."""
    out = model.ring.one()
    for k, m in enumerate(multiplicities, start=1):
        if m:
            out = out * sr.elementary_symmetric(k, model) ** m
    return out


def test_lone_sigma_products_share_the_sigma_table():
    m = sr.RootModel(4, 2)
    for k in range(1, 5):
        unit = tuple(int(j == k) for j in range(1, 5))
        assert _sigma_power_product(m, unit) is m._sigma[k]


def test_untwisted_limit():
    m = sr.RootModel(3, 3, degree_cap=6)
    kill_a = RingMorphism.substitution(m.ring, {"a": "0"})
    total = kill_a(sr.shifted_total_chern(m))
    plain = m.ring.one()
    for r in m.roots():
        plain = plain * (m.ring.one() + r)
    assert total == plain


def test_express_newton_identity():
    m = sr.RootModel(2, 2)
    p2 = m.root(1) ** 2 + m.root(2) ** 2
    assert sr.express_in_elementary(p2, m) == m.e_ring.poly("e1^2 - 2*e2")


def test_express_basis_elements():
    m = sr.RootModel(4, 2, degree_cap=8)
    for k in range(1, 5):
        expressed = sr.express_in_elementary(sr.elementary_symmetric(k, m), m)
        assert expressed == m.e_ring.gen(f"e{k}")


def test_express_with_parameter():
    m = sr.RootModel(2, 2)
    a = m.ring.gen("a")
    p = (m.root(1) - a) * (m.root(2) - a)
    assert sr.express_in_elementary(p, m) == m.e_ring.poly("e2 - a*e1 + a^2")


def test_express_rejects_asymmetric():
    m = sr.RootModel(3, 3)
    with pytest.raises(SymmetryError) as info:
        sr.express_in_elementary(m.root(1), m)
    assert info.value.transposition == ("x1", "x2")


def test_express_reports_an_internal_error_if_asymmetry_slips_through(monkeypatch):
    """With the symmetry check made to pass an asymmetric input, the
    elimination loop reaches a leading term that is not a partition."""
    m = sr.RootModel(3, 3)
    monkeypatch.setattr(sr, "find_asymmetry", lambda p, model: None)
    with pytest.raises(EngineError) as info:
        sr.express_in_elementary(m.root(1), m)
    assert type(info.value) is EngineError
    assert str(info.value) == "nonzero remainder in symmetric reduction (internal error)"


@pytest.mark.parametrize("text", ["x1 + x2", "x1*x2 + x3^2"])
def test_orbit_guard_refuses_an_asymmetric_input_that_slips_through(monkeypatch, text):
    """Each input's dominant terms alone would reduce without error (to e1
    and e2); the term count, 2 against an orbit total of 3, refuses it."""
    m = sr.RootModel(3, 3)
    monkeypatch.setattr(sr, "find_asymmetry", lambda p, model: None)
    with pytest.raises(EngineError) as info:
        sr.express_in_elementary(m.ring.poly(text), m)
    assert type(info.value) is EngineError
    assert str(info.value) == "nonzero remainder in symmetric reduction (internal error)"


def test_sigma_power_product_stays_the_full_product():
    m = sr.RootModel(3, 3)
    e1 = sr.elementary_symmetric(1, m)
    assert sr.express_in_elementary(e1 * e1, m) == m.e_ring.poly("e1^2")
    full = _sigma_power_product(m, (2, 0, 0))
    assert full == e1**2 == m.ring.poly("x1^2 + x2^2 + x3^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3")
    assert m._dominant_power_cache[(2, 0, 0)] == m.ring.poly("x1^2 + 2*x1*x2")


def _multiplicities_under_cap(model):
    """Every multiplicity vector (m_1..m_n) with prod_k e_k^{m_k} under the
    model's cap."""
    out = [()]
    for k in range(1, model.n + 1):
        out = [v + (m,) for v in out for m in range(model.ring.degree_cap // (2 * k) + 1)]
    return [v for v in out if sum(2 * k * m for k, m in enumerate(v, start=1)) <= model.ring.degree_cap]


@pytest.mark.parametrize("extra", [(), ("b",)])
@pytest.mark.parametrize("n", range(1, 7))
def test_dominant_power_is_the_dominant_part_of_the_full_product(n, extra):
    """The table of sigma products, e^mult under e_k -> sigma_k(x), gives
    the dominant part of the factor-by-factor product for every
    multiplicity vector under the cap, and the image of e_k is the model's
    sigma_k itself."""
    m = sr.RootModel(n, n, extra_even=extra)
    for k in range(1, n + 1):
        assert m._to_roots.images[f"e{k}"] is m._sigma[k]
    for mult in _multiplicities_under_cap(m):
        full = _sigma_power_product(m, mult)
        got = sr._dominant_power(m, mult)
        want = {key: Fraction(c, full._den) for key, c in sr._dominant_terms(m, full._terms).items()}
        assert {key: Fraction(c, got._den) for key, c in got._terms.items()} == want, mult


def test_express_rejects_a_polynomial_over_another_ring():
    m = sr.RootModel(2, 2)
    other = sr.RootModel(3, 3)
    for p in (other.root(1), m.e_ring.gen("e1")):
        with pytest.raises(PreconditionError, match="^polynomial is not over the model's root ring$"):
            sr.express_in_elementary(p, m)


def _asymmetry_by_rename(p, model):
    """The rename route: one rename morphism per adjacent transposition,
    applied as a product of generator images."""
    for i in range(1, model.n):
        swap = RingMorphism.rename(
            model.ring, model.ring, {f"x{i}": f"x{i+1}", f"x{i+1}": f"x{i}"}
        )
        if swap._apply_generic(p) != p:
            return (f"x{i}", f"x{i+1}")
    return None


def test_find_asymmetry_matches_rename_route(rng):
    m = sr.RootModel(4, 2, degree_cap=8, extra_even=("b",))
    e2 = sr.elementary_symmetric(2, m)
    b = m.ring.gen("b")
    symmetric = [m.ring.zero(), sr.shifted_total_chern(m), e2 * e2 * b - m.ring.gen("a")]
    asymmetric = [random_polynomial(m.ring, rng) for _ in range(20)]
    asymmetric += [m.ring.poly("x1 + x2 + x3"), e2 - m.ring.poly("x3*x4*b")]
    for p in symmetric + asymmetric:
        assert sr.find_asymmetry(p, m) == _asymmetry_by_rename(p, m)
    assert all(sr.find_asymmetry(p, m) is None for p in symmetric)
    found = {sr.find_asymmetry(p, m) for p in asymmetric}
    assert {("x1", "x2"), ("x2", "x3"), ("x3", "x4")} <= found


# one model per rank, with b beside a; the cap leaves room for e_n
_MODELS = {n: sr.RootModel(n, n, degree_cap=max(2 * n, 6), extra_even=("b",)) for n in range(1, 6)}


def _monomial(ring, indices):
    exps = [0] * len(ring.generators)
    for i in indices:
        exps[i] += 1
    return tuple(exps)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _terms(ring, size, coefficients=st.integers(-3, 3)):
    """Up to ``size`` terms of ring under its cap, each a product of up to
    three generators with a coefficient drawn from ``coefficients``."""
    factors = st.lists(st.integers(0, len(ring.generators) - 1), max_size=3)
    monomials = factors.map(lambda f: _monomial(ring, f))
    terms = st.lists(st.tuples(monomials, coefficients), max_size=size)
    return terms.map(
        lambda terms: ring.from_exponents(
            {e: c for e, c in dict(terms).items() if ring.monomial_degree(e) <= ring.degree_cap}
        )
    )


@st.composite
def _symmetric_and_perturbed(draw):
    """(model, a symmetric polynomial in a, b and the roots, the same plus a
    few root-ring monomials, which may or may not break the symmetry)."""
    model = _MODELS[draw(st.integers(1, 5))]
    symmetric = model.elementary_to_roots()(draw(_terms(model.e_ring, 4)))
    return model, symmetric, symmetric + draw(_terms(model.ring, 2))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_symmetric_and_perturbed())
def test_find_asymmetry_matches_the_full_adjacent_scan(case):
    model, symmetric, perturbed = case
    assert sr.find_asymmetry(symmetric, model) is None
    assert sr.find_asymmetry(perturbed, model) == _asymmetry_by_rename(perturbed, model)


_DOMINANCE_MODELS = [
    sr.RootModel(n, 1, degree_cap=cap, extra_even=extra)
    for n in range(1, 7)
    for extra in ((), ("b",))
    for cap in (None, RingPresentation.MAX_DEGREE_CAP)
]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_packed_dominance_test_matches_the_unpacked_root_exponents(data):
    model = data.draw(st.sampled_from(_DOMINANCE_MODELS))
    top = model.ring.degree_cap // 2
    exponent = st.one_of(st.integers(0, 2), st.integers(0, top))
    params = data.draw(st.lists(exponent, min_size=len(model.params), max_size=len(model.params)))
    roots = data.draw(st.lists(exponent, min_size=model.n, max_size=model.n))
    if data.draw(st.booleans()):
        roots.sort(reverse=True)
    key = model.ring.pack(params + roots)
    dominant = all(roots[i] >= roots[i + 1] for i in range(model.n - 1))
    assert bool(sr._dominant_terms(model, {key: 1})) == dominant


_ELEMENTARY_KEY_MODELS = [
    sr.RootModel(n, 1, degree_cap=cap, extra_even=extra)
    for n in range(1, 9)
    for extra in ((), ("b",))
    for cap in (None, RingPresentation.MAX_DEGREE_CAP)
]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_elementary_key_packs_the_multiplicities(data):
    """For a dominant key with root exponents lambda, the mask-and-shift
    e-key is the e-ring key of the parameters and lambda_k - lambda_{k+1}."""
    model = data.draw(st.sampled_from(_ELEMENTARY_KEY_MODELS))
    top = model.ring.degree_cap // 2
    exponent = st.one_of(st.integers(0, 2), st.integers(0, top))
    params = data.draw(st.lists(exponent, min_size=len(model.params), max_size=len(model.params)))
    lam = sorted(data.draw(st.lists(exponent, min_size=model.n, max_size=model.n)), reverse=True)
    mult = [lam[k] - (lam[k + 1] if k + 1 < model.n else 0) for k in range(model.n)]
    key = model.ring.pack(params + lam)
    assert sr._elementary_key(model, key) == model.e_ring.pack(params + mult)


def _express_by_arithmetic(p, model):
    """The elimination as whole-polynomial arithmetic, one subtraction of a
    full product per step: the reference for the in-place route."""
    n = model.n
    n_params = len(model.params)
    work = p
    out = {}
    while not work.is_zero:
        exps, lead_coef = work.leading_term()
        param, lam = exps[:n_params], exps[n_params:]
        mult = tuple(lam[k] - (lam[k + 1] if k + 1 < n else 0) for k in range(n))
        lead = model.ring.from_exponents({param + (0,) * n: lead_coef})
        work = work - _sigma_power_product(model, mult) * lead
        out[param + mult] = lead_coef
    return model.e_ring.from_exponents(out)


@st.composite
def _rational_symmetric(draw):
    """(model, a polynomial in a, b and e_1..e_n with rational coefficients,
    its image over the roots)."""
    model = _MODELS[draw(st.integers(1, 5))]
    e_poly = draw(_terms(model.e_ring, 5, _RATIONALS))
    return model, e_poly, model.elementary_to_roots()(e_poly)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_rational_symmetric())
def test_in_place_elimination_matches_the_arithmetic_loop(case):
    model, e_poly, p = case
    expressed = sr.express_in_elementary(p, model)
    assert expressed == _express_by_arithmetic(p, model)
    assert expressed == e_poly


def _esp_full(values, k_max, ring):
    """The recurrence over every entry for every value: the reference for
    the banded one."""
    table = [ring.one()] + [ring.zero()] * k_max
    for v in values:
        for j in range(k_max, 0, -1):
            table[j] = table[j] + v * table[j - 1]
    return table


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_banded_esp_entry_matches_the_full_table(data):
    model = _MODELS[data.draw(st.integers(1, 5))]
    values = data.draw(st.lists(_terms(model.ring, 3, _RATIONALS), max_size=6))
    top = len(values)
    full = _esp_full(values, top, model.ring)
    assert sr._esp(values, top, model.ring) == full
    for k in range(top + 1):
        assert sr._esp(values, k, model.ring, k)[k] == full[k]
        assert sr._esp(values, top, model.ring, k)[k:] == full[k:]


def test_esp_drops_the_zeros_a_cancelling_entry_leaves(monkeypatch):
    """Values such as x1, -x1 cancel an entry mid-recurrence, and the kernel
    leaves the cancelled numerators in it as zeros; every returned entry,
    full and banded, still equals the reference and holds no zero."""
    m = sr.RootModel(3, 3)
    x1, x2, x3 = m.roots()
    a = m.ring.gen("a")
    cases = [
        [x1, -x1, x2],
        [x1 - a / 2, a / 2 - x1, x2, x3],
        [x2, x1, -x1, -x2, x3],
    ]
    kernel = sr.mul_terms
    zeros_left = []

    def watching_kernel(*args):
        out = kernel(*args)
        zeros_left.append(0 in out.values())
        return out

    monkeypatch.setattr(sr, "mul_terms", watching_kernel)
    for values in cases:
        top = len(values)
        full = _esp_full(values, top, m.ring)
        for k in range(top + 1):
            for entry, ref in zip(sr._esp(values, top, m.ring, k)[k:], full[k:]):
                assert entry == ref
                assert 0 not in entry._terms.values()
    assert any(zeros_left)


def test_two_generator_prepass_pinned_cases():
    m3 = sr.RootModel(3, 3)
    x1, x2, x3 = m3.roots()
    swap = sr.root_transpositions(m3)[0]
    # the cycle fixes it, x1 <-> x2 does not
    cyclic = x1 * x1 * x2 + x2 * x2 * x3 + x3 * x3 * x1
    assert m3._cycle(cyclic) == cyclic and swap(cyclic) != cyclic
    assert sr.find_asymmetry(cyclic, m3) == ("x1", "x2")
    # x1 <-> x2 fixes it, the cycle does not
    paired = x1 * x2 + x3 * x3
    assert swap(paired) == paired and m3._cycle(paired) != paired
    assert sr.find_asymmetry(paired, m3) == ("x2", "x3")
    m5 = sr.RootModel(5, 5)
    assert sr.find_asymmetry(m5.ring.poly("x1 + x2 + x3 + x4"), m5) == ("x4", "x5")
    with pytest.raises(SymmetryError) as info:
        sr.express_in_elementary(paired, m3)
    assert str(info.value) == "input is not symmetric: transposition x2 <-> x3 changes it"
    assert info.value.transposition == ("x2", "x3")
    m1 = sr.RootModel(1, 1, degree_cap=4)
    assert sr.find_asymmetry(m1.ring.poly("x1^2 + a*x1"), m1) is None
    m2 = sr.RootModel(2, 2)
    assert sr.find_asymmetry(m2.ring.poly("x1 + x2 - a"), m2) is None
    assert sr.find_asymmetry(m2.ring.poly("x1 - a"), m2) == ("x1", "x2")


@pytest.mark.parametrize(
    "n,l,extra",
    # with b beside a, several parameter monomials share one degree
    [(3, 3, ()), (4, 2, ("b",))],
    ids=["n3_l3", "n4_l2_b"],
)
def test_express_roundtrip_random(rng, n, l, extra):
    m = sr.RootModel(n, l, degree_cap=10, extra_even=extra)
    back = m.elementary_to_roots()
    for _ in range(15):
        e_poly = random_polynomial(m.e_ring, rng)
        assert sr.express_in_elementary(back(e_poly), m) == e_poly


def _shifted_chern_sum_reference(ring, twist, prefix, n, l, k, terms):
    """shifted_chern_sum built from exponent tuples and Fractions."""
    out = {}
    for i in range(k + 1 if terms is None else terms):
        exps = [0] * len(ring.generators)
        exps[ring.index[twist]] = i
        if k - i >= 1:
            exps[ring.index[f"{prefix}{k - i}"]] = 1
        out[tuple(exps)] = Fraction(-1, l) ** i * comb(n - k + i, i)
    return ring.from_exponents(out)


@pytest.mark.parametrize("n", range(1, 10))
def test_shifted_chern_sum_matches_exponent_reference(n):
    """The twist first (the elementary ring, the trivialization ring) and
    last, every l | n, every k and every number of summands."""
    model = sr.RootModel(n, 1)
    twist_last = RingPresentation([(f"c{j}", 2 * j) for j in range(1, n + 1)] + [("g", 2)], 2 * n)
    trivialization = sr.change_trivialization_ring(model)
    for ring, twist, prefix in [(model.e_ring, "a", "e"), (trivialization, "x", "f"), (twist_last, "g", "c")]:
        for l in divisors(n):
            for k in range(n + 1):
                for terms in (None, *range(k + 2)):
                    got = sr.shifted_chern_sum(ring, twist, prefix, n, l, k, terms)
                    want = _shifted_chern_sum_reference(ring, twist, prefix, n, l, k, terms)
                    assert got == want and hash(got) == hash(want)


def test_closed_form_examples():
    assert sr.fractional_chern_closed(sr.RootModel(2, 2), 1).render() == "e1 - a"
    assert (
        sr.fractional_chern_closed(sr.RootModel(4, 2), 2).render()
        == "e2 - 3/2*a*e1 + 3/2*a^2"
    )
    m = sr.RootModel(6, 3)
    for k in range(7):
        kill_a = RingMorphism.substitution(m.e_ring, {"a": "0"})
        untwisted = kill_a(sr.fractional_chern_closed(m, k))
        assert untwisted == (m.e_ring.gen(f"e{k}") if k else m.e_ring.one())
    with pytest.raises(PreconditionError):
        sr.fractional_chern_closed(m, 7)


def test_brute_examples():
    assert sr.fractional_chern_brute(sr.RootModel(2, 2), 0) == sr.RootModel(2, 2).e_ring.one()
    assert (
        sr.fractional_chern_brute(sr.RootModel(2, 2), 2).render()
        == "e2 - 1/2*a*e1 + 1/4*a^2"
    )
    assert sr.fractional_chern_brute(sr.RootModel(3, 3), 1).render() == "e1 - a"


def test_oracle_equivalence_small_sweep():
    for n in range(1, 6):
        for l in divisors(n):
            m = sr.RootModel(n, l, degree_cap=2 * n)
            for k in range(n + 1):
                assert sr.fractional_chern_closed(m, k) == sr.fractional_chern_brute(m, k)


def test_low_degree_shapes():
    for n in range(2, 6):
        for l in divisors(n):
            m = sr.RootModel(n, l)
            s = n // l
            ring = m.e_ring
            assert sr.fractional_chern_closed(m, 1) == ring.gen("e1") - ring.gen("a") * s
            expect2 = (
                ring.gen("e2")
                - ring.gen("a") * ring.gen("e1") * Fraction(n - 1, l)
                + ring.gen("a") ** 2 * Fraction(s * (n - 1), 2 * l)
            )
            assert sr.fractional_chern_closed(m, 2) == expect2


def test_change_trivialization_examples():
    m = sr.RootModel(4, 2)
    assert sr.change_trivialization(m, 1).render() == "f1 - 2*x"
    assert sr.change_trivialization(m, 2).render() == "f2 - 3/2*x*f1 + 3/2*x^2"
    ring = sr.change_trivialization_ring(m)
    kill_x = RingMorphism.substitution(ring, {"x": "0"})
    for k in range(1, 5):
        assert kill_x(sr.change_trivialization(m, k)) == ring.gen(f"f{k}")


def test_change_trivialization_matches_closed_form():
    # same coefficients as the closed form under a -> x, e_k -> f_k
    for n in (2, 4, 6):
        for l in [d for d in divisors(n) if d > 1]:
            m = sr.RootModel(n, l)
            ring = sr.change_trivialization_ring(m)
            rename = RingMorphism(
                m.e_ring,
                ring,
                {"a": ring.gen("x"), **{f"e{k}": ring.gen(f"f{k}") for k in range(1, n + 1)}},
            )
            for k in range(n + 1):
                assert rename(sr.fractional_chern_closed(m, k)) == sr.change_trivialization(m, k)


def test_change_trivialization_two_step_composition():
    # moving the trivialization by x and then by -x restores every class
    for n in (2, 3, 4):
        for l in [d for d in divisors(n) if d > 1]:
            m = sr.RootModel(n, l)
            ring = sr.change_trivialization_ring(m)
            forward = {f"f{k}": sr.change_trivialization(m, k) for k in range(1, n + 1)}
            forward["x"] = -ring.gen("x")
            compose = RingMorphism(ring, ring, {**forward})
            for k in range(1, n + 1):
                assert compose(sr.change_trivialization(m, k)) == ring.gen(f"f{k}")


def test_splitting_check():
    assert sr.splitting_check(sr.RootModel(1, 1, degree_cap=4)).ok
    report = sr.splitting_check(sr.RootModel(2, 2))
    assert report.ok and len(report.residuals) == 2
    for n in range(1, 6):
        for l in divisors(n):
            assert sr.splitting_check(sr.RootModel(n, l, degree_cap=2 * n)).ok


def test_splitting_report_renders_one_line_per_root():
    report = sr.splitting_check(sr.RootModel(2, 2))
    assert str(report) == "splitting relation: ok\n  root 1: residual 0\n  root 2: residual 0"
    m = sr.RootModel(1, 1, degree_cap=4)
    failed = sr.SplittingReport(False, [m.ring.zero(), m.ring.poly("x1 - 1/2*a^2")])
    assert str(failed) == (
        "splitting relation: FAILED\n  root 1: residual 0\n  root 2: residual x1 - 1/2*a^2"
    )


def test_root_model_validation():
    with pytest.raises(PreconditionError):
        sr.RootModel(4, 3)
    with pytest.raises(PreconditionError):
        sr.RootModel(0, 1)
    with pytest.raises(PreconditionError):
        sr.shifted_total_chern(sr.RootModel(4, 2, degree_cap=6))


def test_change_trivialization_k_out_of_range():
    m = sr.RootModel(2, 2)
    with pytest.raises(PreconditionError):
        sr.change_trivialization(m, 3)
    with pytest.raises(PreconditionError):
        sr.change_trivialization(m, -1)
