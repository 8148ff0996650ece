"""Formal q^{1/2}-series with graded-polynomial coefficients; theta
products and Witten gerbe module characters.

The two character constructions are deliberately independent:

  theta_product   multiplies per root r the factor
                  prod_{j>=1} (1 - q^j)(1 + s*q^{j-1/2}e^r)(1 + s*q^{j-1/2}e^{-r})
                  with s = -1 for the alternating kind and +1 otherwise,
                  built as its Jacobi triple-product sum
                  1 + sum_{j>=1} 2 s^j q^{j^2/2} cosh(j*r) for the first
                  unshifted root and split by the power of that root into
                  scalar series F_m.  The product Theta_0 over the
                  unshifted roots has theta_lambda = prod_i F_(lambda_i)
                  at every permutation of x^lambda, so it is
                  sum_lambda theta_lambda * m_lambda(x), and its root shift
                  x_i -> x_i - a/l is sum_lambda theta_lambda * B_lambda
                  with B_lambda = m_lambda(x - a/l) from a per-model table.
                  The product form, multiplied out, stays as the reference
                  for the triple-product sum;
  lambda_tensor   expands the exterior-power series level by level, times
                  the scalar Euler factor, in the ring of the fractional
                  classes f_k = sigma_k(x - a/l): its level tables
                  sigma_k(e^{+-r}) come from the f's by Newton's identities,
                  each level is one factor, the model's table of
                  Lambda_t(E) * Lambda_t(E*) at t = s*q^{j-1/2}, and one
                  batched ring map f_k -> sigma_k(x - a/l) carries every
                  coefficient back to the roots.

Their agreement (exact, at every truncation) is the module's central
oracle: it checks the triple-product identity over n roots against the
lambda route, which builds no theta factor.  The method "both" checks it
over the f's: sum_lambda theta_lambda * M_lambda must be the lambda
series.  M_lambda = m_lambda(x) written in the f's is a parameter-free E
renamed e_k -> f_k, checked once per model to map to m_lambda(x) under
e_k -> sigma_k(x), so the injective back map sends it to the root shift of
m_lambda(x), B_lambda, and this is the same check.  At shift 0 the
product form reduces to the classical sums sum_m q^{m^2/2} and
sum_m (-1)^m q^{m^2/2}.

The theta route's series carries its partition form: the scalar series
theta_lambda with the model they are summed over.  Its root-ring sum over
the B_lambda is formed when its coefficients are first read, and kept;
the form stays set after that.  Normalizing it scales each theta_lambda by
the int constants of 1/theta0^n, again with no sum formed; every other
series is normalized by the series product.  The descent of every series
is sum_lambda theta_lambda * M_lambda: a series with no form for the same
model is read into one, whose image must be the series.  So a theta-route
series that is only normalized and descended forms no root-ring sum.

Every sum of products here (a series coefficient, a normalized
coefficient, a cosh, a term of ``formal_exp``, a partition sum) is one
``gcring._sum_of_products``: this module never reads the coefficient
layout.  The split of the one-root series into the products
theta_lambda, and the read of a series into them, are
``symroots._partition_products`` and ``symroots._read_partition``, which
read the keys and the numerators.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import PreconditionError, VerificationError
from .gcring import GradedPolynomial, RingMorphism, RingPresentation, _sum_of_products
from .symroots import RootModel, _monomial_in_fractional, _partition_products, _read_partition, _scalar_product, _shifted_orbit, express_in_elementary
from .towers import BundleDescriptor

class WittenKind(Enum):
    """Which infinite tensor product of exterior powers is taken: the
    alternating kind (theta2) or the plain kind (theta3)."""

    THETA2 = "theta2"
    THETA3 = "theta3"

    @property
    def sign(self) -> int:
        return -1 if self is WittenKind.THETA2 else 1

    @classmethod
    def parse(cls, text: str) -> "WittenKind":
        try:
            return cls(text.lower())
        except (AttributeError, ValueError):
            raise PreconditionError(f"unknown Witten kind {text!r}") from None


def _half_steps(e) -> int:
    """2e for a q-exponent e, which must be a nonnegative half-integer: the
    one place a q-exponent is checked."""
    try:
        q = Fraction(e)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise PreconditionError(f"q-exponent {e!r} is not a number") from None
    if q < 0:
        raise PreconditionError("q-exponents must be nonnegative")
    if q.denominator not in (1, 2):
        raise PreconditionError("q-exponents must be half-integers")
    return q.numerator * (2 // q.denominator)


def _q_top(q_order) -> int:
    """2*q_order for a character's truncation order, refusing one below 1/2."""
    top = _half_steps(q_order)
    if top < 1:
        raise PreconditionError("q_order must be at least 1/2")
    return top


def _format_half_steps(k: int) -> str:
    """The q-exponent k/2 as "k/2" when k is odd, else the integer k/2: the
    one q-exponent formatter, used by ``render`` and ``to_json``."""
    return f"{k}/2" if k % 2 else str(k // 2)


class HalfQSeries:
    """Finite map q-exponent -> GradedPolynomial, truncated at q_order.

    The coefficients are stored under the int keys 2e, up to the int top
    2*q_order, so that series arithmetic builds no ``Fraction``.  Exponents
    are checked where they come in (the constructor, ``unit`` and
    ``coefficient``); ``q_order``, ``coefficients`` and ``exponents()``
    give them back as ``Fraction``s.

    ``_partition`` is None or (model, den, thetas), the witness that the
    series is sum_lambda theta_lambda * B_lambda over the model's table of
    B_lambda = m_lambda(x - a/l), thetas as {key of x^lambda: {2e:
    numerator over den}}.  Only the theta route of ``gch_witten`` and the
    normalization of a witnessed series set it; every constructor,
    arithmetic and ring map leaves it None, and equality, ``render`` and
    ``to_json`` ignore it.  A witnessed series holds only its witness
    until its coefficients are first read: ``__getattr__`` then forms that
    sum into ``_halves`` and keeps it, and ``_partition`` stays set.
    """

    __slots__ = ("ring", "_top", "_halves", "_partition")

    def __init__(self, ring: RingPresentation, coefficients: dict, q_order):
        self.ring = ring
        self._top = _half_steps(q_order)
        coeffs = {}
        for e, poly in coefficients.items():
            k = _half_steps(e)
            if isinstance(poly, (int, Fraction)):
                poly = ring.constant(poly)
            elif not isinstance(poly, GradedPolynomial):
                raise PreconditionError(f"series coefficient must be a polynomial, got {poly!r}")
            if poly.ring != ring:
                raise PreconditionError("series coefficients must share one ring")
            if k <= self._top and not poly.is_zero:
                coeffs[k] = poly
        self._halves = coeffs
        self._partition = None

    def __getattr__(self, name):
        # called only when the normal lookup fails: a witnessed series
        # leaves _halves unset until its root-ring sum is first read
        if name != "_halves":
            raise AttributeError(name)
        model, den, thetas = self._partition
        self._halves = _partition_sum(model.ring, thetas, den, self._top, lambda m: _shifted_orbit(model, m))._halves
        return self._halves

    @classmethod
    def _from_halves(cls, ring: RingPresentation, halves: dict, top: int) -> "HalfQSeries":
        """The series of {2e: coefficient} over ``ring``, every key between 0
        and ``top``, unchecked; zero coefficients are dropped."""
        series = cls.__new__(cls)
        series.ring = ring
        series._top = top
        series._halves = {k: p for k, p in halves.items() if not p.is_zero}
        series._partition = None
        return series

    @classmethod
    def unit(cls, ring: RingPresentation, q_order) -> "HalfQSeries":
        return cls._from_halves(ring, {0: ring.one()}, _half_steps(q_order))

    @property
    def q_order(self) -> Fraction:
        return Fraction(self._top, 2)

    @property
    def coefficients(self) -> dict:
        """A new {q-exponent as a Fraction: coefficient} dict."""
        return {Fraction(k, 2): p for k, p in self._halves.items()}

    def coefficient(self, e) -> GradedPolynomial:
        return self._halves.get(_half_steps(e), self.ring.zero())

    def exponents(self):
        return [Fraction(k, 2) for k in sorted(self._halves)]

    @property
    def is_zero(self) -> bool:
        return not self._halves

    def _map_coefficients(self, f: RingMorphism) -> "HalfQSeries":
        """The series of the images of the coefficients under f, mapped as
        one batch."""
        images = f.map_all(list(self._halves.values()))
        return HalfQSeries._from_halves(f.target, dict(zip(self._halves, images)), self._top)

    def _check_compatible(self, ring: RingPresentation, top: int):
        """Refuse a series over another ring or to another order 2*top."""
        if self.ring != ring or self._top != top:
            raise PreconditionError("series must share ring and q_order")

    def __add__(self, other):
        if not isinstance(other, HalfQSeries):
            return NotImplemented
        self._check_compatible(other.ring, other._top)
        out = dict(self._halves)
        for k, poly in other._halves.items():
            out[k] = out[k] + poly if k in out else poly
        return HalfQSeries._from_halves(self.ring, out, self._top)

    def __neg__(self):
        return HalfQSeries._from_halves(
            self.ring, {k: -p for k, p in self._halves.items()}, self._top
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GradedPolynomial)):
            return HalfQSeries._from_halves(
                self.ring, {k: p * other for k, p in self._halves.items()}, self._top
            )
        if not isinstance(other, HalfQSeries):
            return NotImplemented
        return qseries_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise PreconditionError("series powers must be nonnegative integers")
        out = HalfQSeries._from_halves(self.ring, {0: self.ring.one()}, self._top)
        for _ in range(exponent):
            out = qseries_mul(out, self)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, HalfQSeries)
            and self.ring == other.ring
            and self._top == other._top
            and self._halves == other._halves
        )

    def render(self) -> str:
        if not self._halves:
            return "0"
        return "\n".join(
            f"q^{_format_half_steps(k)}: {self._halves[k]}" for k in sorted(self._halves)
        )

    def to_json(self) -> dict:
        return {
            "q_order": _format_half_steps(self._top),
            "coefficients": {
                _format_half_steps(k): self._halves[k].render() for k in sorted(self._halves)
            },
        }

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<HalfQSeries order {self.q_order}: {len(self._halves)} terms>"


def qseries_mul(f: HalfQSeries, g: HalfQSeries) -> HalfQSeries:
    """Cauchy product, truncated at the shared q_order: each coefficient is
    one ``_sum_of_products`` of the pairs (pf, pg) feeding it, f's factor on
    the left so the Koszul signs hold."""
    f._check_compatible(g.ring, g._top)
    top = f._top
    feeds: dict = {}
    for kf, pf in f._halves.items():
        for kg, pg in g._halves.items():
            if kf + kg <= top:
                feeds.setdefault(kf + kg, []).append((pf, pg))
    out = {k: _sum_of_products(f.ring, pairs) for k, pairs in feeds.items()}
    return HalfQSeries._from_halves(f.ring, out, top)


def qseries_div_unit(f: HalfQSeries, g: HalfQSeries) -> HalfQSeries:
    """Solve h with g*h = f; g must have an invertible constant term
    (nonzero scalar part at q^0)."""
    f._check_compatible(g.ring, g._top)
    zero = f.ring.zero()
    g0 = g._halves.get(0, zero)
    if not g0.constant_term():
        raise PreconditionError("division requires a unit constant term at q^0")
    g0_inv = g0.inverse_unit()
    h: dict = {}
    for k in range(f._top + 1):
        acc = f._halves.get(k, zero)
        for kg, pg in g._halves.items():
            if kg == 0 or kg > k:
                continue
            prev = h.get(k - kg)
            if prev is not None:
                acc = acc - pg * prev
        value = acc * g0_inv
        if not value.is_zero:
            h[k] = value
    return HalfQSeries._from_halves(f.ring, h, f._top)


def formal_exp(x: GradedPolynomial) -> GradedPolynomial:
    """sum_k x^k / k!, finite because x is nilpotent after truncation."""
    if x.constant_term():
        raise PreconditionError("formal_exp needs a zero constant term")
    out = x.ring.one()
    term = x.ring.one()
    k = 0
    while True:
        k += 1
        term = _sum_of_products(x.ring, [(term, x)], k)
        if term.is_zero:
            break
        out = out + term
    return out


def _constant_series(ring: RingPresentation, coefficients, top: int) -> HalfQSeries:
    """The series over ring of cached ((2e, c), ...) constant coefficients."""
    return HalfQSeries._from_halves(ring, {j: ring.constant(c) for j, c in coefficients}, top)


def _euler_factor(ring: RingPresentation, k: int, top: int) -> HalfQSeries:
    """1 - q^{k/2}."""
    return HalfQSeries._from_halves(ring, {0: ring.one(), k: -ring.one()}, top)


def theta_series(kind: WittenKind, shift: GradedPolynomial, q_order) -> HalfQSeries:
    """prod_{j>=1} (1 - q^j)(1 + sign q^{j-1/2} e^shift)(1 + sign q^{j-1/2} e^{-shift}),
    built as its Jacobi triple-product sum sum_{m in Z} sign^m q^{m^2/2} e^{m*shift}:
    1 at q^0 and 2 sign^j cosh(j*shift) at q^{j^2/2}.  Each cosh is one
    ``_sum_of_products`` of the even powers shift^(2i), scaled by
    j^(2i)/(2i)!, up to the last power below the cap.  Both are truncations
    of one formal series, so they agree at every order;
    ``_theta_product_form`` keeps the product as the reference."""
    top = _half_steps(q_order)
    if shift.constant_term():
        raise PreconditionError("formal_exp needs a zero constant term")
    ring = shift.ring
    square = shift * shift
    powers = [ring.one()]  # shift^(2i), up to the last nonzero one
    power = square
    while not power.is_zero:
        powers.append(power)
        power = power * square
    den = factorial(2 * len(powers) - 2)
    halves = {0: ring.one()}
    j = 1
    while j * j <= top:
        scale = 2 * kind.sign**j
        pairs = [(scale * j ** (2 * i) * (den // factorial(2 * i)), p) for i, p in enumerate(powers)]
        halves[j * j] = _sum_of_products(ring, pairs, den)
        j += 1
    return HalfQSeries._from_halves(ring, halves, top)


def _theta_product_form(kind: WittenKind, shift: GradedPolynomial, q_order) -> HalfQSeries:
    """``theta_series`` as the product of its factors, multiplied out: the
    reference for the triple-product sum."""
    top = _half_steps(q_order)
    ring = shift.ring
    sign = kind.sign
    e_plus = formal_exp(shift)
    e_minus = formal_exp(-shift)
    series = HalfQSeries._from_halves(ring, {0: ring.one()}, top)
    for k in range(1, top + 1, 2):  # k = 2j - 1
        if k < top:
            series = series * _euler_factor(ring, k + 1, top)
        for unit_part in (e_plus, e_minus):
            factor = HalfQSeries._from_halves(ring, {0: ring.one(), k: unit_part * sign}, top)
            series = series * factor
    return series


def gch_witten(model: RootModel, kind: WittenKind, q_order, method: str = "theta_product") -> HalfQSeries:
    """Graded character of the Witten module over the root model, with the
    roots shifted by -a/l.

    method "theta_product" splits the theta factor of the unshifted root
    x_1 by the power of x_1: the product Theta_0 of one factor per
    unshifted root is sum_lambda theta_lambda * m_lambda(x)
    (``symroots._partition_products``), and its root shift
    x_i -> x_i - a/l is sum_lambda theta_lambda * B_lambda, from the
    model's table of B_lambda = m_lambda(x - a/l).  "lambda_tensor"
    expands the exterior-power levels in the ring of f_k = sigma_k(x - a/l),
    one factor per level from the model's table of
    Lambda_t(E) * Lambda_t(E*) (built from the level tables of Newton's
    identities), and maps the series back to the roots with one batched
    ring map f_k -> sigma_k(x - a/l).  It calls neither ``theta_series``
    nor a table of m_lambda, so it stays the independent reference.
    "both" insists that sum_lambda theta_lambda * M_lambda, from the
    model's table of M_lambda = m_lambda(x) in the f's, equals the lambda
    route's series, and returns the theta route's series: the injective
    back map sends each M_lambda to B_lambda (``RootModel``), so this is
    the comparison of the two routes over the shifted roots.  The series
    of "theta_product" and "both" carries its partition form
    (``HalfQSeries._partition``) and forms its sum over the B_lambda when
    its coefficients are first read (``_witnessed``); the form stays set
    after that.
    """
    top = _q_top(q_order)
    if method == "lambda_tensor":
        return _lambda_series(model, kind, top)._map_coefficients(model._fractional_maps[3])
    if method not in ("theta_product", "both"):
        raise PreconditionError(f"unknown method {method!r}")
    one_root = theta_series(kind, model.root(1), q_order)
    den, thetas = _partition_products(model, one_root._halves, top)
    if method == "both" and _fractional_sum(model, den, thetas, top) != _lambda_series(model, kind, top):
        raise VerificationError("theta_product and lambda_tensor expansions disagree")
    return _witnessed(model, den, thetas, top)


def _partition_sum(ring: RingPresentation, thetas: dict, den: int, top: int, entry) -> HalfQSeries:
    """The series sum_lambda theta_lambda * entry(lambda) over ring, for
    {key of x^lambda: {2e: numerator over den}}: one ``_sum_of_products``
    per q-power."""
    feeds: dict = {}
    for m, theta in thetas.items():
        value = entry(m)
        for k, num in theta.items():
            feeds.setdefault(k, []).append((num, value))
    out = {k: _sum_of_products(ring, pairs, den) for k, pairs in feeds.items()}
    return HalfQSeries._from_halves(ring, out, top)


def _witnessed(model: RootModel, den: int, thetas: dict, top: int) -> HalfQSeries:
    """sum_lambda theta_lambda * B_lambda over the roots, from the model's
    table of B_lambda = m_lambda(x - a/l), carrying (model, den, thetas)
    as the witness of that form: the one place a witness is set.  The sum
    is formed when the coefficients are first read
    (``HalfQSeries.__getattr__``) and kept, and the witness stays set, so a
    series that is only normalized and descended builds no B_lambda."""
    series = HalfQSeries.__new__(HalfQSeries)
    series.ring = model.ring
    series._top = top
    series._partition = (model, den, thetas)
    return series


def _fractional_sum(model: RootModel, den: int, thetas: dict, top: int) -> HalfQSeries:
    """sum_lambda theta_lambda * M_lambda over the f's, from the model's
    table of M_lambda = m_lambda(x) in f_1..f_n: the series ``both``
    compares with the lambda route's, and the descent of a witnessed
    series."""
    f_ring = model._fractional_maps[0]
    return _partition_sum(f_ring, thetas, den, top, lambda m: _monomial_in_fractional(model, m))


def _lambda_series(model: RootModel, kind: WittenKind, top: int) -> HalfQSeries:
    """The lambda route's series to q^(top/2) over the fractional classes
    f_1..f_n, before its map back to the roots: the cached Euler constants
    times, per odd level (2e of q^{j-1/2}), the one factor
    sum_k sign^k T_k q^(k*level/2) for k <= 2n, with T_k the model's
    ``_level_product``, the coefficients of Lambda_t(E) * Lambda_t(E*)."""
    f_ring = model._fractional_maps[0]
    sign = kind.sign
    product = model._level_product
    series = _constant_series(f_ring, _euler_product(model.n, top), top)
    for level in range(1, top + 1, 2):
        last = min(2 * model.n, top // level)
        coeffs = {k * level: -product[k] if sign**k < 0 else product[k] for k in range(last + 1)}
        series = series * HalfQSeries._from_halves(f_ring, coeffs, top)
    return series


@lru_cache(maxsize=64)
def _euler_product(n: int, top: int) -> tuple:
    """((2e, c), ...): the coefficients of prod_k (1 - q^k)^n to q^(top/2).
    They are constants, so they are found once per (n, top) in the ring
    without generators."""
    scalar = RingPresentation([], 0)
    series = HalfQSeries.unit(scalar, Fraction(top, 2))
    for k in range(2, top + 1, 2):
        series = series * _euler_factor(scalar, k, top) ** n
    return tuple((j, h.constant_term()) for j, h in series._halves.items())


@lru_cache(maxsize=64)
def _theta0_inverse(kind: WittenKind, n: int, top: int) -> tuple:
    """((2e, c), ...): the coefficients of 1/theta0^n to q^(top/2), where
    theta0 is ``theta_series`` at shift 0.  They are constants, so they are
    found once per (kind, n, top) in the ring without generators, and ints:
    theta0 has int coefficients and constant term 1."""
    scalar = RingPresentation([], 0)
    q_order = Fraction(top, 2)
    theta0 = theta_series(kind, scalar.zero(), q_order)
    inverse = qseries_div_unit(HalfQSeries.unit(scalar, q_order), theta0 ** n)
    return tuple((j, int(h.constant_term())) for j, h in inverse._halves.items())


def normalize_gch(series: HalfQSeries, kind: WittenKind, n: int, q_order) -> HalfQSeries:
    """Divide by the n-th power of the shift-0 theta series: multiply by the
    series of the cached constant coefficients of 1/theta0^n
    (``_theta0_inverse``).  A series that carries its partition form is
    normalized in it: each theta_lambda times those int constants (with
    constant term 1, so none vanishes), truncated at q_order, summed over
    the same B_lambda when its coefficients are first read, and the result
    carries the scaled form, which stays set after that read.  The
    degree-2p coefficients of the result are the q-expansions whose
    modularity is governed by the degree-4 obstruction class; they are
    emitted as formal series, not verified analytically.
    """
    top = _half_steps(q_order)
    # a kind or an n of another type is built uncached, so that it is
    # refused as the division refuses it, not as an unhashable key
    cached = isinstance(kind, WittenKind) and isinstance(n, int)
    build = _theta0_inverse if cached else _theta0_inverse.__wrapped__
    inverse = build(kind, n, top)
    series._check_compatible(series.ring, top)
    if series._partition is not None:
        model, den, thetas = series._partition
        scale = dict(inverse)
        return _witnessed(model, den, {m: _scalar_product(theta, scale, top) for m, theta in thetas.items()}, top)
    return qseries_mul(series, _constant_series(series.ring, inverse, top))


def descend_gch(series: HalfQSeries, model: RootModel) -> HalfQSeries:
    """Rewrite every coefficient c as a polynomial P in the fractional
    classes f_k = sigma_k(x - a/l): P is sum_lambda theta_lambda * M_lambda
    over the series' partition form.  The back map, which is injective,
    sends each M_lambda to B_lambda = m_lambda(x - a/l) (``RootModel``), so
    it sends P to the form's sum over the B_lambda.

    A series that carries its form for this model object is that sum by
    construction.  Every other series is read into a form
    (``symroots._read_partition``) whose sum is compared with it in
    ascending q-order; the first coefficient that differs is refused as
    its reduction at a = 0 refuses it (not symmetric in the roots, or over
    another ring), else as a surviving twist class."""
    top = series._top
    if series._partition is not None and series._partition[0] is model:
        _, den, thetas = series._partition
    else:
        # a series over another ring has no read: the map a -> 0 refuses it
        den, thetas = _read_partition(model, series._halves) if series.ring == model.ring else (1, {})
        image = _witnessed(model, den, thetas, top)._halves
        for k, coeff in sorted(series._halves.items()):
            if image.get(k) != coeff:
                express_in_elementary(model._fractional_maps[1](coeff), model)
                raise PreconditionError(
                    "coefficient does not descend: twist class survives at "
                    f"q^{_format_half_steps(k)}"
                )
    return _fractional_sum(model, den, thetas, top)


def modularity_obstruction(d: BundleDescriptor) -> GradedPolynomial:
    """Degree-4 part of the twisted Chern character:
    (1/2)(c1^{l,a}(E)^2 - 2 c2^{l,a}(E)); its vanishing makes the
    normalized characters modular."""
    f1 = d.fractional(1)
    f2 = d.fractional(2)
    return f1 * f1 * Fraction(1, 2) - f2
