import re
import sys
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_polynomial
from fracchern import qtheta as qt
from fracchern import symroots
from fracchern.errors import EngineError, PreconditionError, SymmetryError, VerificationError
from fracchern.gcring import RingMorphism, RingPresentation
from fracchern.qtheta import HalfQSeries, WittenKind
from fracchern.spaces import working_cap
from fracchern.symroots import RootModel, _esp, express_in_elementary, shifted_total_chern
from fracchern.verify import load_fixture

HALF = Fraction(1, 2)


@pytest.fixture
def scalar_ring():
    return RingPresentation([], 0)


def series(ring, order, **coeffs):
    # keys like q0="1", q1_2="..." are awkward; accept {exponent: text}
    return HalfQSeries(ring, {e: ring.poly(t) for e, t in coeffs.items()}, order)


def test_qseries_mul(scalar_ring):
    one = scalar_ring.one()
    f = HalfQSeries(scalar_ring, {0: one, HALF: one}, 2)
    g = HalfQSeries(scalar_ring, {0: one, HALF: -one}, 2)
    assert f * g == HalfQSeries(scalar_ring, {0: one, 1: -one}, 2)


def test_qseries_div_unit(scalar_ring):
    one = scalar_ring.one()
    f = HalfQSeries(scalar_ring, {0: one, HALF: one * 3, 2: one}, 2)
    assert qt.qseries_div_unit(f, f) == HalfQSeries.unit(scalar_ring, 2)
    geom = qt.qseries_div_unit(
        HalfQSeries.unit(scalar_ring, 1),
        HalfQSeries(scalar_ring, {0: one, HALF: -one}, 1),
    )
    assert geom == HalfQSeries(scalar_ring, {0: one, HALF: one, 1: one}, 1)


def test_div_requires_unit(scalar_ring):
    one = scalar_ring.one()
    f = HalfQSeries.unit(scalar_ring, 2)
    g = HalfQSeries(scalar_ring, {HALF: one}, 2)
    with pytest.raises(PreconditionError):
        qt.qseries_div_unit(f, g)


def test_qseries_validation(scalar_ring):
    with pytest.raises(PreconditionError):
        HalfQSeries(scalar_ring, {Fraction(1, 3): scalar_ring.one()}, 2)
    with pytest.raises(PreconditionError):
        HalfQSeries(scalar_ring, {Fraction(-1, 2): scalar_ring.one()}, 2)
    f = HalfQSeries.unit(scalar_ring, 2)
    g = HalfQSeries.unit(scalar_ring, 3)
    with pytest.raises(PreconditionError):
        qt.qseries_mul(f, g)


@pytest.mark.parametrize("value", ["x", None, 2.5, [1]], ids=["str", "None", "float", "list"])
def test_qseries_refuses_a_coefficient_that_is_not_a_polynomial(scalar_ring, value):
    expected = f"^series coefficient must be a polynomial, got {re.escape(repr(value))}$"
    for e in (0, 3):  # above the truncation order too
        with pytest.raises(PreconditionError, match=expected):
            HalfQSeries(scalar_ring, {e: value}, 2)


def test_qseries_refuses_a_negative_power_and_a_foreign_coefficient(scalar_ring):
    with pytest.raises(PreconditionError, match="^series powers must be nonnegative integers$"):
        HalfQSeries.unit(scalar_ring, 2) ** -1
    other = RingPresentation([("x", 2)], 4)
    for e in (0, 3):  # above the truncation order too
        with pytest.raises(PreconditionError, match="^series coefficients must share one ring$"):
            HalfQSeries(scalar_ring, {e: other.gen("x")}, 2)


def test_both_methods_refuse_a_disagreement(monkeypatch):
    original = qt._lambda_series

    def faulty(model, kind, top):
        return original(model, kind, top) * 2

    monkeypatch.setattr(qt, "_lambda_series", faulty)
    with pytest.raises(VerificationError, match="^theta_product and lambda_tensor expansions disagree$"):
        qt.gch_witten(RootModel(2, 2, degree_cap=8), WittenKind.THETA3, 1, "both")


def test_both_methods_refuse_a_disagreement_on_the_theta_side(monkeypatch):
    original = qt.theta_series

    def faulty(kind, shift, q_order):
        return original(kind, shift, q_order) * 2

    monkeypatch.setattr(qt, "theta_series", faulty)
    with pytest.raises(VerificationError, match="^theta_product and lambda_tensor expansions disagree$"):
        qt.gch_witten(RootModel(2, 2, degree_cap=8), WittenKind.THETA3, 1, "both")


@pytest.mark.parametrize("k", range(5))
def test_both_methods_compare_every_coefficient(monkeypatch, k):
    """A lambda series wrong at the one coefficient of q^(k/2) alone is
    refused."""
    original = qt._lambda_series

    def faulty(model, kind, top):
        series = original(model, kind, top)
        assert k in series._halves
        halves = dict(series._halves)
        halves[k] = halves[k] * 2
        return HalfQSeries._from_halves(series.ring, halves, top)

    monkeypatch.setattr(qt, "_lambda_series", faulty)
    with pytest.raises(VerificationError, match="^theta_product and lambda_tensor expansions disagree$"):
        qt.gch_witten(RootModel(3, 3, degree_cap=8), WittenKind.THETA3, 2, "both")


def test_qseries_exponent_boundary():
    """Exponents are Fractions wherever they are read, and checked wherever
    they come in."""
    ring = RingPresentation([("x", 2)], 4)
    s = HalfQSeries(ring, {2: ring.gen("x"), 0: ring.one(), HALF: 3, 1: ring.poly("x^2")}, 2)
    assert all(type(e) is Fraction for e in s.coefficients)
    assert s.coefficients == {
        0: ring.one(),
        HALF: ring.constant(3),
        1: ring.poly("x^2"),
        2: ring.gen("x"),
    }
    assert s.coefficient(1) == s.coefficient(Fraction(1)) == ring.poly("x^2")
    assert s.coefficient(Fraction(3, 2)).is_zero
    assert s.exponents() == [0, HALF, 1, 2]
    assert all(type(e) is Fraction for e in s.exponents())
    assert s.q_order == 2 and type(s.q_order) is Fraction
    assert s.render() == "q^0: 1\nq^1/2: 3\nq^1: x^2\nq^2: x"
    assert s.to_json() == {
        "q_order": "2",
        "coefficients": {"0": "1", "1/2": "3", "1": "x^2", "2": "x"},
    }
    assert HalfQSeries.unit(ring, Fraction(5, 2)).to_json()["q_order"] == "5/2"
    for bad in (Fraction(1, 3), Fraction(-1, 2)):
        with pytest.raises(PreconditionError):
            s.coefficient(bad)
        with pytest.raises(PreconditionError):
            HalfQSeries(ring, {bad: ring.one()}, 2)
        with pytest.raises(PreconditionError):
            HalfQSeries.unit(ring, bad)


def test_qseries_linear_arithmetic():
    """+, binary and unary -, and * by a scalar or a polynomial act
    coefficientwise; operands must share ring and q_order."""
    ring = RingPresentation([("x", 2)], 4)
    x = ring.gen("x")
    s = HalfQSeries(ring, {0: ring.poly("1 + x"), HALF: x, 1: ring.poly("2 - 1/3*x^2")}, 1)
    t = HalfQSeries(ring, {0: ring.poly("-x"), HALF: ring.poly("x^2 - x"), 1: 5}, 1)
    exponents = (0, HALF, 1)
    for result, expected in [
        (s + t, lambda e: s.coefficient(e) + t.coefficient(e)),
        (s - t, lambda e: s.coefficient(e) - t.coefficient(e)),
        (-s, lambda e: -s.coefficient(e)),
        (s * 2, lambda e: s.coefficient(e) * 2),
        (s * Fraction(-3, 4), lambda e: s.coefficient(e) * Fraction(-3, 4)),
        (s * x, lambda e: s.coefficient(e) * x),
        (x * s, lambda e: x * s.coefficient(e)),
    ]:
        assert result.ring == ring and result.q_order == 1
        for e in exponents:
            assert result.coefficient(e) == expected(e)
    assert (s + t).coefficient(0) == ring.one()
    assert (s - s).is_zero and (s + -s).is_zero
    assert 2 * s == s * 2
    foreign = HalfQSeries.unit(RingPresentation([("y", 2)], 4), 1)
    for other in (foreign, HalfQSeries.unit(ring, 2)):
        for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g):
            with pytest.raises(PreconditionError, match="must share ring and q_order"):
                op(s, other)
    for bad in (1, Fraction(1, 2), x, None):
        with pytest.raises(TypeError):
            s + bad
        with pytest.raises(TypeError):
            s - bad
    for bad in (None, "x", 2.5):
        with pytest.raises(TypeError):
            s * bad
        with pytest.raises(TypeError):
            bad * s


def test_formal_exp():
    ring = RingPresentation([("x", 2)], 4)
    x = ring.gen("x")
    assert qt.formal_exp(ring.zero()) == ring.one()
    assert qt.formal_exp(x) == ring.poly("1 + x + 1/2*x^2")
    assert qt.formal_exp(x) * qt.formal_exp(-x) == ring.one()
    with pytest.raises(PreconditionError):
        qt.formal_exp(ring.one())


def test_theta_zero_argument(scalar_ring):
    t3 = qt.theta_series(WittenKind.THETA3, scalar_ring.zero(), 2)
    assert {e: p.constant_term() for e, p in t3.coefficients.items()} == {
        Fraction(0): 1,
        HALF: 2,
        Fraction(2): 2,
    }
    t2 = qt.theta_series(WittenKind.THETA2, scalar_ring.zero(), 2)
    assert {e: p.constant_term() for e, p in t2.coefficients.items()} == {
        Fraction(0): 1,
        HALF: -2,
        Fraction(2): 2,
    }


def test_triple_product_to_order_8(scalar_ring):
    for kind, sign in ((WittenKind.THETA3, 1), (WittenKind.THETA2, -1)):
        series_ = qt.theta_series(kind, scalar_ring.zero(), 8)
        expected = {}
        m = 0
        while Fraction(m * m, 2) <= 8:
            expected[Fraction(m * m, 2)] = Fraction(sign**m * (2 if m else 1))
            m += 1
        got = {e: p.constant_term() for e, p in series_.coefficients.items()}
        assert got == expected


THETA_ORDERS = (HALF, 1, 2, 3, 4, 6)


@pytest.mark.parametrize("n", range(1, 6))
def test_triple_product_sum_is_the_product_form(n):
    """The triple-product sum ``theta_series`` builds equals the product of
    the factors multiplied out, at every l | n, cap and order, both kinds,
    for the shifted root, zero and a shift that is not a root."""
    for l in (d for d in range(1, n + 1) if n % d == 0):
        for cap in (c for c in (4, 8, 12) if c >= 2 * n):
            model = RootModel(n, l, degree_cap=cap)
            ring = model.ring
            shifts = (model.shifted_roots()[0], ring.zero(), ring.gen("x1") * 3 - ring.gen("a"))
            for kind in WittenKind:
                for q in THETA_ORDERS:
                    for shift in shifts:
                        expected = qt._theta_product_form(kind, shift, q)
                        assert qt.theta_series(kind, shift, q) == expected, (l, cap, kind, q, shift)


def test_triple_product_sum_is_the_product_form_with_an_odd_generator():
    ring = RingPresentation([("x", 2), ("y", 1), ("z", 4)], 12)
    for kind in WittenKind:
        for q in THETA_ORDERS:
            for text in ("x + y", "x^2 - z + y", "y"):
                shift = ring.poly(text)
                expected = qt._theta_product_form(kind, shift, q)
                assert qt.theta_series(kind, shift, q) == expected, (kind, q, text)


def test_theta_first_coefficient_is_cosh():
    ring = RingPresentation([("x", 2)], 8)
    t3 = qt.theta_series(WittenKind.THETA3, ring.gen("x"), 1)
    # e^x + e^{-x} = 2 + x^2 + x^4/12 at this cap
    assert t3.coefficient(HALF) == ring.poly("2 + x^2 + 1/12*x^4")


def test_theta_evenness():
    ring = RingPresentation([("x", 2)], 8)
    plus = qt.theta_series(WittenKind.THETA2, ring.gen("x"), 3)
    minus = qt.theta_series(WittenKind.THETA2, -ring.gen("x"), 3)
    assert plus == minus


def test_gch_single_untwisted_root_is_theta():
    model = RootModel(1, 1, degree_cap=6)
    kill_a = RingMorphism.substitution(model.ring, {"a": "0"})
    series_ = qt.gch_witten(model, WittenKind.THETA3, 3)
    untwisted = HalfQSeries(
        model.ring,
        {e: kill_a(p) for e, p in series_.coefficients.items()},
        series_.q_order,
    )
    assert untwisted == qt.theta_series(WittenKind.THETA3, model.root(1), 3)


def test_theta_product_is_the_product_of_root_theta_series():
    """The theta route, which moves root 1's factor to the others by root
    transpositions, equals the direct product over the shifted roots."""
    for n in range(1, 5):
        for l in (d for d in range(1, n + 1) if n % d == 0):
            model = RootModel(n, l, degree_cap=8)
            for kind in WittenKind:
                for q in (HALF, 1, 2, 3):
                    direct = HalfQSeries.unit(model.ring, q)
                    for r in model.shifted_roots():
                        direct = direct * qt.theta_series(kind, r, q)
                    assert qt.gch_witten(model, kind, q) == direct, (n, l, kind, q)


def test_gch_methods_agree():
    model = RootModel(2, 2, degree_cap=8)
    for kind in WittenKind:
        assert qt.gch_witten(model, kind, 3, method="both") == qt.gch_witten(
            model, kind, 3, method="theta_product"
        )


def test_lambda_route_shares_nothing_with_the_theta_route(monkeypatch):
    model = RootModel(3, 3, degree_cap=8)
    expected = {kind: qt.gch_witten(model, kind, 2) for kind in WittenKind}

    def shared(*args):
        raise AssertionError("the lambda route reached a theta-route helper")

    monkeypatch.setattr(qt, "formal_exp", shared)
    monkeypatch.setattr(symroots, "root_transpositions", shared)
    for kind in WittenKind:
        assert qt.gch_witten(model, kind, 2, method="lambda_tensor") == expected[kind]


def test_gch_constant_in_roots_part():
    model = RootModel(2, 2, degree_cap=8)
    series_ = qt.gch_witten(model, WittenKind.THETA2, 2)
    kill_roots = RingMorphism.substitution(model.ring, {"x1": "0", "x2": "0"})
    collapsed = HalfQSeries(
        model.ring,
        {e: kill_roots(p) for e, p in series_.coefficients.items()},
        2,
    )
    shift = model.ring.gen("a") * Fraction(-1, 2)
    assert collapsed == qt.theta_series(WittenKind.THETA2, shift, 2) ** 2


def test_gch_a_zero_reduction():
    model = RootModel(2, 1, degree_cap=8)
    kill_a = RingMorphism.substitution(model.ring, {"a": "0"})
    series_ = qt.gch_witten(model, WittenKind.THETA3, 2)
    reduced = HalfQSeries(
        model.ring, {e: kill_a(p) for e, p in series_.coefficients.items()}, 2
    )
    plain = HalfQSeries.unit(model.ring, 2)
    for r in model.roots():
        plain = plain * qt.theta_series(WittenKind.THETA3, r, 2)
    assert reduced == plain


def test_gch_q_order_error():
    model = RootModel(1, 1, degree_cap=4)
    with pytest.raises(PreconditionError):
        qt.gch_witten(model, WittenKind.THETA3, 0)
    for bad in (Fraction(1, 3), Fraction(-1, 2)):
        with pytest.raises(PreconditionError):
            qt.theta_series(WittenKind.THETA3, model.ring.zero(), bad)
        with pytest.raises(PreconditionError):
            qt.gch_witten(model, WittenKind.THETA3, bad)
    with pytest.raises(PreconditionError):
        qt.gch_witten(model, WittenKind.THETA3, 2, method="bogus")


@pytest.mark.parametrize("q", [HALF, Fraction(3, 2), Fraction(5, 2)])
def test_gch_methods_agree_at_half_integer_orders(q):
    """At an odd 2*q_order the top exponent q_order is a half-integer with
    no Euler factor of its own; both routes must still reach it and agree."""
    for n in range(1, 4):
        for l in (d for d in range(1, n + 1) if n % d == 0):
            model = RootModel(n, l, degree_cap=8)
            for kind in WittenKind:
                series_ = qt.gch_witten(model, kind, q, method="both")
                assert series_.q_order == q


def test_normalize():
    model = RootModel(1, 1, degree_cap=4)
    kind = WittenKind.THETA3
    theta0 = qt.theta_series(kind, model.ring.zero(), 2)
    assert qt.normalize_gch(theta0 ** 1, kind, 1, 2) == HalfQSeries.unit(model.ring, 2)
    series_ = qt.gch_witten(model, kind, 2)
    kill = RingMorphism.substitution(model.ring, {"a": "0"})
    normalized = qt.normalize_gch(
        HalfQSeries(model.ring, {e: kill(p) for e, p in series_.coefficients.items()}, 2),
        kind,
        1,
        2,
    )
    assert normalized.coefficient(0) == model.ring.one()
    for e in normalized.exponents():
        expected = model.ring.one() if e == 0 else model.ring.zero()
        assert normalized.coefficient(e).homogeneous_part(0) == expected


def normalize_by_division(series, kind, n, q_order):
    """The reference for ``normalize_gch``: divide by theta0^n built over
    the series' own ring."""
    return qt.qseries_div_unit(series, qt.theta_series(kind, series.ring.zero(), q_order) ** n)


def _random_series(ring, top, rng):
    """A series to q^(top/2) with random coefficients, one of them at least
    not a constant."""
    while True:
        halves = {
            Fraction(k, 2): random_polynomial(ring, rng, terms=4)
            for k in range(top + 1)
            if rng.random() < 0.7
        }
        if any(p.degree() > 0 for p in halves.values()):
            return HalfQSeries(ring, halves, Fraction(top, 2))


@pytest.mark.parametrize("kind", list(WittenKind))
@pytest.mark.parametrize("n", range(7))
def test_normalization_by_the_cached_inverse_matches_division(kind, n, rng):
    """Over a root ring and an f-ring, at every q-order 1/2..4."""
    model = RootModel(3, 3, degree_cap=8)
    f_ring = model._fractional_maps[0]
    for ring in (model.ring, f_ring):
        for top in range(1, 9):
            q = Fraction(top, 2)
            series_ = _random_series(ring, top, rng)
            assert qt.normalize_gch(series_, kind, n, q) == normalize_by_division(series_, kind, n, q)


@pytest.mark.parametrize(
    "kind, n, q_order, error, message",
    [
        (WittenKind.THETA2, 2, 3, PreconditionError, "series must share ring and q_order"),
        (WittenKind.THETA3, 2, HALF, PreconditionError, "series must share ring and q_order"),
        (WittenKind.THETA2, -1, 2, PreconditionError, "series powers must be nonnegative integers"),
        (WittenKind.THETA3, -1, 3, PreconditionError, "series powers must be nonnegative integers"),
        (WittenKind.THETA2, HALF, 2, PreconditionError, "series powers must be nonnegative integers"),
        (WittenKind.THETA2, [], 2, PreconditionError, "series powers must be nonnegative integers"),
        (WittenKind.THETA2, -1, Fraction(1, 3), PreconditionError, "q-exponents must be half-integers"),
        (WittenKind.THETA3, 2, -1, PreconditionError, "q-exponents must be nonnegative"),
        (WittenKind.THETA2, 2, "x", PreconditionError, "q-exponent 'x' is not a number"),
        ("theta2", 2, 2, AttributeError, "'str' object has no attribute 'sign'"),
    ],
)
def test_normalization_refuses_what_division_refuses(kind, n, q_order, error, message):
    series_ = qt.gch_witten(RootModel(2, 2, degree_cap=8), WittenKind.THETA2, 2)
    for call in (normalize_by_division, qt.normalize_gch):
        with pytest.raises(error) as info:
            call(series_, kind, n, q_order)
        assert str(info.value) == message, call


@pytest.mark.parametrize("n", range(1, 5))
def test_the_back_map_keeps_its_images_across_kinds_and_orders(n):
    """One model's back map f_k -> sigma_k(x - a/l), applied in turn to the
    lambda route's f-ring series of both kinds at every q-order 1/2..4,
    gives for each coefficient what a freshly built map gives."""
    for l in (d for d in range(1, n + 1) if n % d == 0):
        model = RootModel(n, l, degree_cap=8)
        back = model._fractional_maps[3]
        for kind in WittenKind:
            for top in range(1, 9):
                f_series = qt._lambda_series(model, kind, top)
                coeffs = list(f_series.coefficients.values())
                fresh = [
                    RingMorphism(back.source, back.target, back.images)._apply_generic(c)
                    for c in coeffs
                ]
                assert back.map_all(coeffs) == fresh, (l, kind, top)


def test_descend_examples():
    model = RootModel(1, 1, degree_cap=4)
    series_ = qt.gch_witten(model, WittenKind.THETA3, 2)
    descended = qt.descend_gch(series_, model)
    assert descended.coefficient(0) == descended.ring.one()
    assert descended.coefficient(HALF) == descended.ring.poly("2 + f1^2")

    model2 = RootModel(2, 2, degree_cap=8)
    for kind in WittenKind:
        qt.descend_gch(qt.gch_witten(model2, kind, 2), model2)


def test_descend_builds_no_ring_map_once_the_model_has_its_maps(monkeypatch):
    model = RootModel(3, 3, degree_cap=8)
    series_ = qt.normalize_gch(qt.gch_witten(model, WittenKind.THETA2, 2), WittenKind.THETA2, 3, 2)
    first = qt.descend_gch(series_, model)
    built = []
    init = RingMorphism.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingMorphism, "__init__", counting_init)
    assert qt.descend_gch(series_, model) == first
    assert built == []


def test_descend_rejects_surviving_twist():
    model = RootModel(2, 2, degree_cap=8)
    bad = HalfQSeries(model.ring, {0: model.ring.gen("a")}, 1)
    with pytest.raises(PreconditionError):
        qt.descend_gch(bad, model)


def test_descend_rejects_asymmetric():
    # a single shifted root is a-free after unshifting but not symmetric
    model = RootModel(2, 2, degree_cap=8)
    bad = HalfQSeries(model.ring, {0: model.ring.poly("x1 - 1/2*a")}, 1)
    with pytest.raises(SymmetryError):
        qt.descend_gch(bad, model)


def test_descend_reports_asymmetry_before_a_surviving_twist():
    # x1 + a*x2 is twisted and, at a = 0, not symmetric: the reduction
    # at a = 0 runs first and names the transposition
    model = RootModel(2, 2, degree_cap=8)
    bad = HalfQSeries(model.ring, {0: model.ring.poly("x1 + a*x2")}, 1)
    with pytest.raises(SymmetryError):
        qt.descend_gch(bad, model)


def test_descend_refuses_the_first_coefficient_that_fails():
    # a surviving twist at q^0 is named before an asymmetric q^1/2, and an
    # asymmetric q^0 before a surviving twist at q^1/2
    model = RootModel(2, 2, degree_cap=8)
    twisted, asymmetric = model.ring.gen("a"), model.ring.poly("x1 - 1/2*a")
    with pytest.raises(PreconditionError, match=r"survives at q\^0$"):
        qt.descend_gch(HalfQSeries(model.ring, {0: twisted, HALF: asymmetric}, 1), model)
    with pytest.raises(SymmetryError):
        qt.descend_gch(HalfQSeries(model.ring, {0: asymmetric, HALF: twisted}, 1), model)


@pytest.mark.parametrize(
    "n, l, extra", [(2, 1, ()), (2, 2, ()), (3, 3, ()), (4, 2, ()), (4, 2, ("b",))]
)
def test_descend_inverts_the_fractional_substitution(n, l, extra, rng):
    """Descent returns the P that built each coefficient as P(f) with
    f_k -> sigma_k(x - a/l), and rejects P(f) plus a twisted term."""
    model = RootModel(n, l, extra_even=extra)
    ring = model.ring
    f_ring = RingPresentation([(f"f{k}", 2 * k) for k in range(1, n + 1)], ring.degree_cap)
    total = shifted_total_chern(model)
    fractional = RingMorphism(
        f_ring, ring, {f"f{k}": total.homogeneous_part(2 * k) for k in range(1, n + 1)}
    )
    twists = [ring.gen("a") * total.homogeneous_part(2)] + [ring.gen(b) for b in extra]
    exponents = (0, HALF, 1)
    for _ in range(4):
        ps = {e: random_polynomial(f_ring, rng) for e in exponents}
        coeffs = {e: fractional(p) for e, p in ps.items()}
        descended = qt.descend_gch(HalfQSeries(ring, coeffs, 1), model)
        assert descended == HalfQSeries(f_ring, ps, 1)
        for e in exponents:
            for twist in twists:
                assert not twist.is_zero
                bad = dict(coeffs)
                bad[e] = bad[e] + twist
                with pytest.raises(PreconditionError, match="does not descend"):
                    qt.descend_gch(HalfQSeries(ring, bad, 1), model)


def _stub_bindings(monkeypatch, functions, message) -> set:
    """Bind every name under which a loaded fracchern module holds one of
    ``functions`` to a stub raising AssertionError(message); return the
    stubbed names as module.attribute."""
    forbidden = {id(f) for f in functions}

    def forbid(*args, **kwargs):
        raise AssertionError(message)

    stubbed = set()
    for name, module in list(sys.modules.items()):
        if name == "fracchern" or name.startswith("fracchern."):
            for attr, value in list(vars(module).items()):
                if id(value) in forbidden:
                    monkeypatch.setattr(module, attr, forbid)
                    stubbed.add(f"{name}.{attr}")
    return stubbed


def _reference_descend(series, model):
    """Descent by reduction: each coefficient reduced at a = 0 and renamed
    e_k -> f_k up to the first refusal, then every coefficient reduced
    before it mapped back to the roots and compared; the reference for
    ``descend_gch``'s table read."""
    f_ring, at_zero, rename, back = model._fractional_maps
    out = {}
    refusal = None
    for k, coeff in sorted(series._halves.items()):
        try:
            out[k] = rename(express_in_elementary(at_zero(coeff), model))
        except EngineError as exc:
            refusal = exc  # raised after the coefficients before k are checked
            break
    for k, image in zip(out, back.map_all(list(out.values()))):
        if image != series._halves[k]:
            raise PreconditionError(
                "coefficient does not descend: twist class survives at "
                f"q^{qt._format_half_steps(k)}"
            )
    if refusal is not None:
        raise refusal
    return HalfQSeries._from_halves(f_ring, out, series._top)


def _descent_outcome(descend, series, model):
    """descend's series, or the type, message and transposition of its
    refusal."""
    try:
        return descend(series, model)
    except EngineError as exc:
        return type(exc), str(exc), getattr(exc, "transposition", None)


def _divisors(n):
    return [l for l in range(1, n + 1) if n % l == 0]


@pytest.mark.parametrize("n", range(1, 7))
def test_descend_is_the_reference_descent(n):
    """The table read gives the reduction's series for every l | n, both
    kinds, q-orders 1..4, raw and normalized, at criterion 9's cap, with
    and without an extra parameter b."""
    for l in _divisors(n):
        for extra in ((), ("b",)):
            model = RootModel(n, l, degree_cap=working_cap(n, 8), extra_even=extra)
            for kind in WittenKind:
                for q in range(1, 5):
                    raw = qt.gch_witten(model, kind, q)
                    for series_ in (raw, qt.normalize_gch(raw, kind, n, q)):
                        want = _reference_descend(series_, model)
                        assert qt.descend_gch(series_, model) == want, (l, extra, kind, q)


def _refused_series():
    """(model, series) for each refusal of the pinned descent tests, and
    for each coefficient of a descending series with b added to it."""
    model = RootModel(2, 2, degree_cap=8)
    ring = model.ring
    twisted, asymmetric = ring.gen("a"), ring.poly("x1 - 1/2*a")
    cases = [
        (model, {0: twisted}),
        (model, {0: asymmetric}),
        (model, {0: ring.poly("x1 + a*x2")}),
        (model, {0: twisted, HALF: asymmetric}),
        (model, {0: asymmetric, HALF: twisted}),
    ]
    out = [(m, HalfQSeries(m.ring, coeffs, 1)) for m, coeffs in cases]
    with_b = RootModel(4, 2, degree_cap=8, extra_even=("b",))
    good = qt.gch_witten(with_b, WittenKind.THETA2, 2)
    for e in good.exponents():
        coeffs = good.coefficients
        coeffs[e] = coeffs[e] + with_b.ring.gen("b")
        out.append((with_b, HalfQSeries(with_b.ring, coeffs, 2)))
    return out


def test_descend_refuses_as_the_reference_refuses():
    """Every refusal keeps its type, message, transposition and the
    coefficient it names."""
    for model, series_ in _refused_series():
        want = _descent_outcome(_reference_descend, series_, model)
        assert isinstance(want, tuple), series_
        assert _descent_outcome(qt.descend_gch, series_, model) == want


def _plain(series):
    """A copy of series through its public coefficients, so it carries no
    partition form."""
    return HalfQSeries(series.ring, series.coefficients, series.q_order)


def _witten_catalogue():
    """The 48 ops of the witten_series benchmark: n <= 4, l | n, both
    kinds, q-orders 2..4, degree cap 8."""
    return [
        (n, l, kind, q) for n in range(1, 5) for l in _divisors(n) for kind in WittenKind for q in (2, 3, 4)
    ]


def test_the_table_read_answers_every_coefficient_that_descends(monkeypatch):
    """With every binding of ``express_in_elementary`` and
    ``find_asymmetry`` raising, models built under the stubs descend plain
    copies of the normalized characters of the witten_series catalogue to
    the reference's series: the read, not the refusal path, answers them."""
    cases = {}
    for n, l, kind, q in _witten_catalogue():
        model = RootModel(n, l, degree_cap=8)
        series_ = _plain(qt.normalize_gch(qt.gch_witten(model, kind, q, "both"), kind, n, q))
        cases[n, l, kind, q] = series_, _reference_descend(series_, model)
    stubbed = _stub_bindings(
        monkeypatch,
        (express_in_elementary, symroots.find_asymmetry),
        "the descent reduced a coefficient that descends",
    )
    assert stubbed >= {
        "fracchern.qtheta.express_in_elementary",
        "fracchern.symroots.express_in_elementary",
        "fracchern.symroots.find_asymmetry",
    }
    models = {}
    for (n, l, kind, q), (series_, want) in cases.items():
        model = models.setdefault((n, l), RootModel(n, l, degree_cap=8))
        assert qt.descend_gch(series_, model) == want, (n, l, kind, q)


def _dominant_free_keys(model, polys) -> set:
    """The keys of x^lambda over the polys' terms with no parameter and
    non-increasing root exponents."""
    n_params = len(model.params)
    keys = set()
    for p in polys:
        for m in p._terms:
            exps = model.ring.unpack(m)
            roots = list(exps[n_params:])
            if not any(exps[:n_params]) and roots == sorted(roots, reverse=True):
                keys.add(m)
    return keys


def test_the_descent_reduces_each_monomial_once_per_model(monkeypatch):
    """The descent's table holds one entry per dominant parameter-free key
    met, each the elimination of that single term, run once per model
    across kinds, q-orders and refused inputs, and each entry is m_lambda
    in the f's: it maps back to the orbit sum of x^lambda at a = 0."""
    model = RootModel(4, 2, degree_cap=8, extra_even=("b",))
    series_ = []
    for kind in WittenKind:
        for q in range(1, 5):
            raw = qt.gch_witten(model, kind, q)
            series_ += [raw, qt.normalize_gch(raw, kind, 4, q)]
    refused = [s for m, s in _refused_series() if m.ring == model.ring]
    eliminated = []
    eliminate = symroots._eliminate

    def counting(model_, work, den):
        eliminated.append(dict(work))
        return eliminate(model_, work, den)

    monkeypatch.setattr(symroots, "_eliminate", counting)
    for _ in range(2):
        for s in series_:
            qt.descend_gch(s, model)
    met = _dominant_free_keys(model, [c for s in series_ for c in s._halves.values()])
    assert all(list(work.values()) == [1] for work in eliminated)
    assert sorted(m for work in eliminated for m in work) == sorted(met)
    # a refused input is reduced whole, and reaches the table only through
    # its own dominant parameter-free keys
    for s in refused:
        with pytest.raises(PreconditionError, match="does not descend"):
            qt.descend_gch(s, model)
    met |= _dominant_free_keys(model, [c for s in refused for c in s._halves.values()])
    assert set(model._monomial_table) == met
    _, at_zero, _, back = model._fractional_maps
    n_params = len(model.params)
    for m, entry in model._monomial_table.items():
        exps = model.ring.unpack(m)
        orbit = {exps[:n_params] + perm: 1 for perm in permutations(exps[n_params:])}
        assert at_zero(back(entry)) == model.ring.from_exponents(orbit), m


@pytest.mark.parametrize("n", range(1, 7))
def test_newton_level_tables_match_the_reduced_root_tables(n):
    """The lambda route's level tables, built from the f's by Newton's
    identities, equal sigma_k(e^{+-x}) reduced over the unshifted roots and
    renamed e_k -> f_k; mapped back, they equal sigma_k(e^{+-(x - a/l)})
    expanded over the shifted roots.  The caps are criterion 9's (8 up to
    n = 4) and the default working cap."""
    for cap in sorted({working_cap(n, 8), working_cap(n)}):
        model = RootModel(n, n, degree_cap=cap)
        _, _, rename, back = model._fractional_maps
        tables = model._level_tables
        for sign, table in zip((1, -1), tables):
            roots = _esp([qt.formal_exp(x * sign) for x in model.roots()], n, model.ring)
            shifted = _esp([qt.formal_exp(r * sign) for r in model.shifted_roots()], n, model.ring)
            for k in range(n + 1):
                assert table[k] == rename(express_in_elementary(roots[k], model)), (cap, sign, k)
                assert back(table[k]) == shifted[k], (cap, sign, k)


@pytest.mark.parametrize("n", range(1, 5))
def test_lambda_series_over_the_fractional_classes_is_the_descended_theta_series(n):
    """The lambda route's series before its map back to the roots, over
    f_1..f_n, normalized, is an independent value for descending the
    normalized theta route's series, at criterion 9's caps."""
    cases = [
        (RootModel(n, l, degree_cap=working_cap(n, 8)), kind, q)
        for l in range(1, n + 1)
        if n % l == 0
        for kind in WittenKind
        for q in (2, 3)
    ]
    descended = [
        qt.descend_gch(qt.normalize_gch(qt.gch_witten(model, kind, q), kind, n, q), model)
        for model, kind, q in cases
    ]
    for (model, kind, q), want in zip(cases, descended):
        f_series = qt._lambda_series(model, kind, 2 * q)
        assert f_series.ring == want.ring
        assert qt.normalize_gch(f_series, kind, n, q) == want, (model.l, kind, q)


def _two_table_lambda_series(model, kind, top):
    """The reference for the lambda route's one factor per level: the same
    Euler constants, then two series products per odd level, one per level
    table sigma_k(e^{+-r}), each to k <= n."""
    f_ring = model._fractional_maps[0]
    sign = kind.sign
    series = qt._constant_series(f_ring, qt._euler_product(model.n, top), top)
    for level in range(1, top + 1, 2):
        last = min(model.n, top // level)
        for table in model._level_tables:
            coeffs = {k * level: -table[k] if sign**k < 0 else table[k] for k in range(last + 1)}
            series = series * HalfQSeries._from_halves(f_ring, coeffs, top)
    return series


@pytest.mark.parametrize("n", range(1, 7))
def test_one_factor_per_level_is_the_two_table_product(n):
    """Every entry T_k of the model's level product is the full convolution
    sum_i sigma_i(e^r) sigma_(k-i)(e^{-r}) for k <= 2n, the mirrored upper
    half included, and the lambda route's series equals the two-table
    reference for every l | n, both kinds and q-orders 1/2..4, at
    criterion 9's cap and the default working cap."""
    for cap in sorted({working_cap(n, 8), working_cap(n)}):
        for l in (d for d in range(1, n + 1) if n % d == 0):
            model = RootModel(n, l, degree_cap=cap)
            f_ring = model._fractional_maps[0]
            plus, minus = model._level_tables
            product = model._level_product
            assert len(product) == 2 * n + 1
            for k in range(2 * n + 1):
                pairs = range(max(0, k - n), min(k, n) + 1)
                want = sum((plus[i] * minus[k - i] for i in pairs), f_ring.zero())
                assert product[k] == want, (cap, l, k)
            for kind in WittenKind:
                for top in range(1, 9):
                    got = qt._lambda_series(model, kind, top)
                    assert got == _two_table_lambda_series(model, kind, top), (cap, l, kind, top)


# every entry point of the theta route, and the helpers of its partition
# sums, which no step of the lambda route may reach
THETA_ROUTE = (
    qt.formal_exp,
    qt.theta_series,
    qt._theta_product_form,
    symroots.root_transpositions,
    symroots._partition_products,
    symroots._shifted_orbit,
    symroots._monomial_in_fractional,
    symroots._eliminate,
)

THETA_ROUTE_BINDINGS = {
    "fracchern.qtheta.formal_exp",
    "fracchern.qtheta.theta_series",
    "fracchern.qtheta._theta_product_form",
    "fracchern.symroots.root_transpositions",
    "fracchern.qtheta._partition_products",
    "fracchern.symroots._partition_products",
    "fracchern.qtheta._shifted_orbit",
    "fracchern.symroots._shifted_orbit",
    "fracchern.qtheta._monomial_in_fractional",
    "fracchern.symroots._monomial_in_fractional",
    "fracchern.symroots._eliminate",
}


def test_the_lambda_route_reaches_no_theta_route_entry_point(monkeypatch):
    """The lambda route's row of the route-independence ledger: with every
    binding of ``formal_exp``, ``theta_series``, ``_theta_product_form``,
    ``root_transpositions`` and the partition-sum helpers
    (``_partition_products``, ``_shifted_orbit``,
    ``_monomial_in_fractional``, ``_eliminate``) in the package raising, a
    model built under the stubs gives the theta route's series, so no
    table built earlier can hide a call."""
    cases = [(n, l, kind) for n, l in ((3, 3), (4, 2)) for kind in WittenKind]
    expected = {
        (n, l, kind): qt.gch_witten(RootModel(n, l, degree_cap=8), kind, 4)
        for n, l, kind in cases
    }
    stubbed = _stub_bindings(monkeypatch, THETA_ROUTE, "the lambda route reached a theta-route entry point")
    assert stubbed >= THETA_ROUTE_BINDINGS
    for n, l, kind in cases:
        model = RootModel(n, l, degree_cap=8)
        got = qt.gch_witten(model, kind, 4, "lambda_tensor")
        assert got == expected[n, l, kind], (n, l, kind)


def _shifted_theta_route(model, kind, q_order):
    """The theta route over the shifted roots: ``theta_series`` at
    x_1 - a/l, carried to the other roots by the transpositions; the
    reference for the route at a = 0 followed by the root shift."""
    factor = series = qt.theta_series(kind, model.shifted_roots()[0], q_order)
    for swap in model._transpositions:
        factor = factor._map_coefficients(swap)
        series = series * factor
    return series


HALF_ORDERS = [Fraction(k, 2) for k in range(1, 9)]


@pytest.mark.parametrize("n", range(1, 7))
def test_the_theta_route_is_the_shifted_reference(n):
    """theta_product and both give the shifted route's series for every
    l | n, both kinds, q-orders 1/2..4, criterion 9's cap and the default
    cap, with and without an extra parameter b."""
    for l in _divisors(n):
        for cap in sorted({working_cap(n, 8), working_cap(n)}):
            for extra in ((), ("b",)):
                model = RootModel(n, l, degree_cap=cap, extra_even=extra)
                for kind in WittenKind:
                    for q in HALF_ORDERS:
                        want = _shifted_theta_route(model, kind, q)
                        where = (l, cap, extra, kind, q)
                        assert qt.gch_witten(model, kind, q, "theta_product") == want, where
                        assert qt.gch_witten(model, kind, q, "both") == want, where


def _transposition_theta0(model, kind, q_order):
    """Theta_0 by the transposition route: ``theta_series`` at the unshifted
    root x_1, carried to the other roots by the root transpositions; the
    reference for the partition sums."""
    factor = series = qt.theta_series(kind, model.root(1), q_order)
    for swap in model._transpositions:
        factor = factor._map_coefficients(swap)
        series = series * factor
    return series


def _orbit(model, m):
    """m_lambda(x) from the distinct permutations of the root exponents of
    the key m of x^lambda."""
    exps = model.ring.unpack(m)
    k = len(model.params)
    return model.ring.from_exponents({exps[:k] + perm: 1 for perm in set(permutations(exps[k:]))})


def _grid_models(n):
    """A model for every l | n, criterion 9's cap and the default cap, with
    and without an extra parameter b."""
    return [
        RootModel(n, l, degree_cap=cap, extra_even=extra)
        for l in _divisors(n)
        for cap in sorted({working_cap(n, 8), working_cap(n)})
        for extra in ((), ("b",))
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_the_partition_sums_are_the_transposition_route(n):
    """sum_lambda theta_lambda * m_lambda(x), from the one-root series split
    by the power of x_1, is the transposition route's Theta_0, and
    theta_product and both give its root shift, on the grid of
    ``_grid_models``, both kinds and q-orders 1/2..4."""
    for model in _grid_models(n):
        shift = model._shift_maps[1]
        for kind in WittenKind:
            for q in HALF_ORDERS:
                where = (model.l, model.ring.degree_cap, model.extra_even, kind, q)
                theta0 = _transposition_theta0(model, kind, q)
                one_root = qt.theta_series(kind, model.root(1), q)
                den, thetas = symroots._partition_products(model, one_root._halves, 2 * q)
                coeffs = {}
                for m, theta in thetas.items():
                    orbit = _orbit(model, m)
                    for k, num in theta.items():
                        e = Fraction(k, 2)
                        coeffs[e] = coeffs.get(e, model.ring.zero()) + orbit * Fraction(num, den)
                assert HalfQSeries(model.ring, coeffs, q) == theta0, where
                want = theta0._map_coefficients(shift)
                assert qt.gch_witten(model, kind, q, "theta_product") == want, where
                assert qt.gch_witten(model, kind, q, "both") == want, where


def _back_check_descend(series, model):
    """Descent checked over the roots: each coefficient's read P mapped back
    by f_k -> sigma_k(x - a/l) and compared with the coefficient, the first
    that fails refused by the reduction at a = 0; the reference for
    ``descend_gch``'s check by the table of m_lambda(x - a/l)."""
    f_ring, at_zero, rename, back = model._fractional_maps
    out = {}
    for k, coeff in sorted(series._halves.items()):
        p = symroots._fractional_read(coeff, model)[0] if coeff.ring == model.ring else None
        if p is None or back(p) != coeff:
            rename(express_in_elementary(at_zero(coeff), model))
            raise PreconditionError(
                "coefficient does not descend: twist class survives at "
                f"q^{qt._format_half_steps(k)}"
            )
        out[k] = p
    return HalfQSeries._from_halves(f_ring, out, series._top)


@pytest.mark.parametrize("n", range(1, 7))
def test_descend_is_the_back_check_reference(n):
    """The check by the table of m_lambda(x - a/l) gives the root-ring back
    check's series or refusal on the grid of ``_grid_models``, both kinds,
    q-orders 1/2..4, raw and normalized, and on each raw series with a
    twist, an asymmetric term or b added to a coefficient; and every
    B_lambda met is the back map's image of M_lambda."""
    for model in _grid_models(n):
        ring = model.ring
        additions = [ring.gen("a"), ring.gen("x1")] + [ring.gen(b) for b in model.extra_even]
        for kind in WittenKind:
            for q in HALF_ORDERS:
                raw = qt.gch_witten(model, kind, q)
                cases = [raw, qt.normalize_gch(raw, kind, n, q)]
                for i, extra in enumerate(additions):
                    coeffs = raw.coefficients
                    e = sorted(coeffs)[i % len(coeffs)]
                    coeffs[e] = coeffs[e] + extra
                    cases.append(HalfQSeries(ring, coeffs, q))
                for i, series_ in enumerate(cases):
                    where = (model.l, ring.degree_cap, model.extra_even, kind, q, i)
                    want = _descent_outcome(_back_check_descend, series_, model)
                    assert isinstance(want, tuple) == (i >= 2), where
                    assert _descent_outcome(qt.descend_gch, series_, model) == want, where
        back = model._fractional_maps[3]
        keys = set(model._shifted_orbit_table) | set(model._monomial_table)
        for m in keys:
            want = back(symroots._monomial_in_fractional(model, m))
            assert symroots._shifted_orbit(model, m) == want, (model.l, model.extra_even, m)


def test_descend_refuses_as_the_back_check_refuses():
    for model, series_ in _refused_series():
        want = _descent_outcome(_back_check_descend, series_, model)
        assert isinstance(want, tuple), series_
        assert _descent_outcome(qt.descend_gch, series_, model) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_a_witnessed_series_normalizes_and_descends_as_its_plain_copy(n):
    """The theta route's series carries its partition form, and so does
    its normalization; normalizing and descending it, raw and normalized,
    gives what the plain copy gives by the generic convolution and the
    read, on the grid of ``_grid_models``, both kinds and q-orders
    1/2..4."""
    for model in _grid_models(n):
        for kind in WittenKind:
            for q in HALF_ORDERS:
                where = (model.l, model.ring.degree_cap, model.extra_even, kind, q)
                for method in ("theta_product", "both"):
                    witnessed = qt.gch_witten(model, kind, q, method)
                    plain = _plain(witnessed)
                    assert witnessed._partition is not None and plain._partition is None, where
                    normalized = qt.normalize_gch(witnessed, kind, n, q)
                    plain_normalized = qt.normalize_gch(plain, kind, n, q)
                    assert normalized._partition is not None, where
                    assert normalized == plain_normalized, where
                    assert qt.descend_gch(witnessed, model) == qt.descend_gch(plain, model), where
                    want = qt.descend_gch(plain_normalized, model)
                    assert qt.descend_gch(normalized, model) == want, where


def test_arithmetic_drops_the_partition_form():
    """A series made from a witnessed one by arithmetic or a ring map
    carries no partition form: it normalizes and descends, or is refused,
    as the same series made from the plain copy."""
    model = RootModel(3, 3, degree_cap=8)
    x1 = model.ring.gen("x1")
    ops = [
        lambda s: s * 2,
        lambda s: 2 * s,
        lambda s: s * Fraction(1, 3),
        lambda s: s * x1,
        lambda s: s + s,
        lambda s: s - s * 2,
        lambda s: -s,
        lambda s: s * s,
        lambda s: s**2,
        lambda s: s._map_coefficients(model._shift_maps[1]),
    ]
    for kind in WittenKind:
        witnessed = qt.gch_witten(model, kind, 2)
        plain = _plain(witnessed)
        for i, op in enumerate(ops):
            got, want = op(witnessed), op(plain)
            assert got == want and got._partition is None, (kind, i)
            assert _descent_outcome(qt.descend_gch, got, model) == _descent_outcome(qt.descend_gch, want, model), (kind, i)
            assert qt.normalize_gch(got, kind, 3, 2) == qt.normalize_gch(want, kind, 3, 2), (kind, i)


@pytest.mark.parametrize("den", [1, 6])
def test_scaling_the_partition_products_is_rational_scaling(den):
    """Each theta_lambda times a scalar series of rational constants, as
    Fractions, to every truncation."""
    thetas = {0: {0: 1, 1: -3, 4: 2}, 7: {2: 5, 3: 1}, 9: {0: -4}}
    constants = ((0, Fraction(1)), (1, Fraction(-2, 3)), (3, Fraction(5, 4)), (4, 2))
    for top in range(6):
        got_den, got = symroots._scaled_partition(den, thetas, constants, top)
        for m, theta in thetas.items():
            want: dict = {}
            for j, a in theta.items():
                for k, c in constants:
                    if j + k <= top:
                        want[j + k] = want.get(j + k, 0) + Fraction(a, den) * c
            want = {k: c for k, c in want.items() if c}
            assert {k: Fraction(c, got_den) for k, c in got[m].items()} == want, (top, m)


def test_a_theta_lambda_that_vanishes_builds_no_table_entry():
    """At q-order 1/2 theta_lambda vanishes for every lambda with two
    nonzero parts, since each F_m with m > 0 starts at q^(1/2): after
    ``both``, normalization and descent, each table holds exactly the keys
    x^lambda met in Theta_0, fewer than the even partitions under the cap."""
    for kind in WittenKind:
        model = RootModel(4, 2, degree_cap=8)
        series_ = qt.gch_witten(model, kind, HALF, "both")
        qt.descend_gch(qt.normalize_gch(series_, kind, 4, HALF), model)
        met = _dominant_free_keys(model, _transposition_theta0(model, kind, HALF)._halves.values())
        assert set(model._monomial_table) == set(model._shifted_orbit_table) == met, kind
        x1 = model.root(1)
        even = symroots._partition_products(model, {0: model.ring.one() + x1**2 + x1**4}, 0)[1]
        assert met < set(even) and (len(met), len(even)) == (3, 4), kind


def test_descending_a_witnessed_series_reaches_no_read(monkeypatch):
    """The descent's row of the route-independence ledger: with every
    binding of ``_fractional_read``, ``express_in_elementary`` and
    ``find_asymmetry`` raising, the witnessed characters of the
    witten_series catalogue, raw and normalized, descend to the
    reference's series."""
    cases = []
    for n, l, kind, q in _witten_catalogue():
        model = RootModel(n, l, degree_cap=8)
        raw = qt.gch_witten(model, kind, q, "both")
        for series_ in (raw, qt.normalize_gch(raw, kind, n, q)):
            cases.append((model, series_, _reference_descend(series_, model)))
    stubbed = _stub_bindings(
        monkeypatch,
        (symroots._fractional_read, express_in_elementary, symroots.find_asymmetry),
        "the descent of a witnessed series reached the read",
    )
    assert stubbed >= {
        "fracchern.qtheta._fractional_read",
        "fracchern.symroots._fractional_read",
        "fracchern.qtheta.express_in_elementary",
        "fracchern.symroots.express_in_elementary",
        "fracchern.symroots.find_asymmetry",
    }
    for model, series_, want in cases:
        assert qt.descend_gch(series_, model) == want, (model.n, model.l)


def test_a_series_witnessed_for_another_model_takes_the_read(monkeypatch):
    """The partition form is trusted only for its own model object: another
    model with the same rank, twist and cap reads every coefficient, and
    gets the same series."""
    reads = []
    read = qt._fractional_read

    def counting(p, model):
        reads.append(model)
        return read(p, model)

    monkeypatch.setattr(qt, "_fractional_read", counting)
    for kind in WittenKind:
        model, other = RootModel(4, 2, degree_cap=8), RootModel(4, 2, degree_cap=8)
        raw = qt.gch_witten(model, kind, 2, "both")
        for series_ in (raw, qt.normalize_gch(raw, kind, 4, 2)):
            want = qt.descend_gch(series_, model)
            assert reads == []
            assert qt.descend_gch(series_, other) == want
            assert reads == [other] * len(series_._halves)
            reads.clear()


def test_a_monomial_table_entry_that_misses_m_lambda_is_an_engine_error(monkeypatch):
    """With the elimination doubling its answer, the first M_lambda built is
    refused as an internal error, by both and by the descent, on one line."""
    model = RootModel(3, 3, degree_cap=8)
    series_ = qt.gch_witten(model, WittenKind.THETA2, 2)
    eliminate = symroots._eliminate
    monkeypatch.setattr(symroots, "_eliminate", lambda *args: eliminate(*args) * 2)
    calls = (
        lambda: qt.gch_witten(RootModel(3, 3, degree_cap=8), WittenKind.THETA2, 2, "both"),
        lambda: qt.descend_gch(series_, model),
    )
    for call in calls:
        with pytest.raises(EngineError, match=r"^a monomial symmetric function in the f's misses m_lambda\(x\)") as info:
            call()
        assert type(info.value) is EngineError and "\n" not in str(info.value)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_root_shift_carries_sigma_to_the_fractional_classes(n):
    """The model's maps are f_k -> sigma_k(x) and x_i -> x_i - a/l fixing
    the parameters, and their composite is the back map on the
    generators, for every l | n, with and without b."""
    for l in _divisors(n):
        for extra in ((), ("b",)):
            model = RootModel(n, l, extra_even=extra)
            lower, shift = model._shift_maps
            f_ring, back = model._fractional_maps[0], model._fractional_maps[3]
            gens = [f_ring.gen(name) for name in f_ring.names]
            assert lower.map_all(gens) == model._sigma[1:], (l, extra)
            assert shift.map_all(model.roots()) == model.shifted_roots(), (l, extra)
            for name in model.params:
                assert shift(model.ring.gen(name)) == model.ring.gen(name), (l, extra)
            assert shift.map_all(lower.map_all(gens)) == back.map_all(gens), (l, extra)


def test_a_root_shift_that_misses_the_fractional_classes_is_an_engine_error():
    model = RootModel(3, 3, degree_cap=8)
    sigma = model._shifted_sigma
    model._shifted_sigma = sigma[:2] + [sigma[2] * 2] + sigma[3:]
    with pytest.raises(EngineError, match="^the root shift does not send") as info:
        qt.gch_witten(model, WittenKind.THETA2, 1, "both")
    assert "\n" not in str(info.value)


def _forbidden_map(message):
    """A stand-in for a ring map that raises AssertionError(message) when
    it is used in any way."""

    class Forbidden:
        def __getattr__(self, name):
            raise AssertionError(message)

    return Forbidden()


def test_the_lambda_side_of_both_reaches_no_theta_route_entry_point(monkeypatch):
    """The row of the route-independence ledger for ``both``: with every
    binding of the theta route's entry points and partition-sum helpers
    raising, and the model's root shift replaced by a map that raises, the
    lambda series mapped by f_k -> sigma_k(x) is the product of the theta
    series over the unshifted roots, on models built under the stubs."""
    cases = [(n, l, kind) for n, l in ((3, 3), (4, 2)) for kind in WittenKind]
    expected = {}
    for n, l, kind in cases:
        model = RootModel(n, l, degree_cap=8)
        theta0 = HalfQSeries.unit(model.ring, 4)
        for r in model.roots():
            theta0 = theta0 * qt.theta_series(kind, r, 4)
        expected[n, l, kind] = theta0
    message = "the lambda side of both reached a theta-route entry point"
    stubbed = _stub_bindings(monkeypatch, THETA_ROUTE, message)
    assert stubbed >= THETA_ROUTE_BINDINGS
    for n, l, kind in cases:
        model = RootModel(n, l, degree_cap=8)
        lower = model._shift_maps[0]
        model._shift_maps = (lower, _forbidden_map(message))
        got = qt._lambda_series(model, kind, 8)._map_coefficients(lower)
        assert got == expected[n, l, kind], (n, l, kind)


def test_the_theta_route_reaches_no_lambda_series(monkeypatch):
    """The theta route's row of the route-independence ledger: with every
    binding of ``_lambda_series`` raising, a model built under the stub
    gives the theta route's series."""
    cases = [(n, l, kind) for n, l in ((3, 3), (4, 2)) for kind in WittenKind]
    expected = {
        (n, l, kind): qt.gch_witten(RootModel(n, l, degree_cap=8), kind, 4)
        for n, l, kind in cases
    }
    stubbed = _stub_bindings(monkeypatch, (qt._lambda_series,), "the theta route reached _lambda_series")
    assert stubbed == {"fracchern.qtheta._lambda_series"}
    for n, l, kind in cases:
        got = qt.gch_witten(RootModel(n, l, degree_cap=8), kind, 4, "theta_product")
        assert got == expected[n, l, kind], (n, l, kind)


@pytest.mark.parametrize("n", range(1, 7))
def test_cached_euler_product_is_the_uncached_product(n):
    """The lambda route's cached constants are the coefficients of
    prod_k (1 - q^k)^n built factor by factor over a ring with a generator."""
    ring = RingPresentation([("f1", 2)], 4)
    for top in range(9):
        want = HalfQSeries.unit(ring, Fraction(top, 2))
        for k in range(2, top + 1, 2):
            want = want * qt._euler_factor(ring, k, top) ** n
        assert all(p == ring.constant(p.constant_term()) for p in want._halves.values())
        got = qt._euler_product(n, top)
        assert dict(got) == {j: p.constant_term() for j, p in want._halves.items()}, top
        assert qt._euler_product(n, top) is got


def _theta3_at(q_order):
    ring = RingPresentation([("x", 2)], 4)
    return qt.theta_series(WittenKind.THETA3, ring.gen("x"), q_order)


def _gch_at(q_order):
    return qt.gch_witten(RootModel(2, 2), WittenKind.THETA3, q_order)


def _coefficient_at(e):
    return HalfQSeries.unit(RingPresentation([], 0), 1).coefficient(e)


@pytest.mark.parametrize(
    "call, value",
    [
        (_theta3_at, "x"),
        (_theta3_at, None),
        (_theta3_at, []),
        (_theta3_at, float("inf")),
        (_theta3_at, "1/0"),
        (_gch_at, "x"),
        (_coefficient_at, None),
        (WittenKind.parse, None),
        (WittenKind.parse, 3),
    ],
)
def test_bad_library_input_is_a_one_line_precondition_error(call, value):
    with pytest.raises(PreconditionError, match=re.escape(repr(value))) as info:
        call(value)
    assert "\n" not in str(info.value)


def test_modularity_obstruction():
    symbolic = load_fixture("symbolic_n4l2.json")
    assert qt.modularity_obstruction(symbolic) == symbolic.ring_m.poly("1/2*f1^2 - f2")
    su = load_fixture("su_n4l2.json")
    assert qt.modularity_obstruction(su) == su.ring_m.poly("-f2")
    u6 = load_fixture("u6_n4l2.json")
    assert qt.modularity_obstruction(u6).is_zero


def test_series_render_and_json(scalar_ring):
    ring = RingPresentation([("x", 2)], 4)
    s = HalfQSeries(ring, {0: ring.one(), HALF: ring.poly("2 + x^2")}, 1)
    assert s.render() == "q^0: 1\nq^1/2: 2 + x^2"
    assert s.to_json() == {
        "q_order": "1",
        "coefficients": {"0": "1", "1/2": "2 + x^2"},
    }


def test_theta_rejects_constant_shift():
    ring = RingPresentation([("x", 2)], 4)
    with pytest.raises(PreconditionError):
        qt.theta_series(WittenKind.THETA3, ring.one(), 2)
    with pytest.raises(PreconditionError):
        qt._theta_product_form(WittenKind.THETA3, ring.one(), 2)
