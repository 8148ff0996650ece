"""Chern-root workspace: splitting principle and fractional Chern classes.

A :class:`RootModel` carries n degree-2 roots x1..xn, a degree-2 twist
class ``a`` and optional extra even parameters.  Shifting every root by
-a/l produces the fractional classes: the degree-2k part of
prod_i (1 + x_i - a/l) is the pullback of the k-th fractional Chern
class, and rewriting it in the elementary symmetric basis must agree
with the closed form

    sum_{i=0..k} (-1/l)^i C(n-k+i, i) a^i e_{k-i}.

That agreement (closed vs brute force) is the module's central oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, factorial, lcm, prod

from ._kernel import mul_terms
from .errors import EngineError, PreconditionError, SymmetryError
from .gcring import FIELD_BITS, FIELD_MASK, GradedPolynomial, RingMorphism, RingPresentation, _normal_form, _sum_of_products
from .spaces import check_n_l, working_cap


class RootModel:
    """Splitting-principle workspace for rank n and twist order l (l | n).

    ``params`` (a, then the extra even parameters) lead both ``ring`` (then
    x1..xn) and ``e_ring`` (then e1..en), so x_i and e_i share a slot.  Each
    table is built on first use and kept: sigma_k(x), the transpositions and
    the n-cycle, the shifted roots x_i - a/l and their sigma_k, the maps of
    the fractional classes f_k = sigma_k(x - a/l), the root shift
    x_i -> x_i - a/l and f_k -> sigma_k(x), the Newton tables
    sigma_k(e^{+-r}) and the lambda route's one factor per level, their
    product Lambda_t(E) * Lambda_t(E*).  Two tables are keyed by the
    dominant parameter-free key of x^lambda and grow as keys are met:
    M_lambda, the monomial symmetric function m_lambda(x) written in
    f_1..f_n (``_monomial_in_fractional``), and B_lambda = m_lambda(x - a/l)
    over the roots, its image under the root shift (``_shifted_orbit``).
    """

    def __init__(self, n: int, l: int, degree_cap: int | None = None, extra_even=()):
        self.s = check_n_l(n, l)
        if degree_cap is None:
            degree_cap = working_cap(n)
        self.n = n
        self.l = l
        self.extra_even = tuple(extra_even)
        self.params = ("a", *self.extra_even)
        params = [(name, 2) for name in self.params]
        roots = [(f"x{i}", 2) for i in range(1, n + 1)]
        self.ring = RingPresentation(params + roots, degree_cap)
        elementary = [(f"e{k}", 2 * k) for k in range(1, n + 1)]
        self.e_ring = RingPresentation(params + elementary, degree_cap)
        # express_in_elementary's tables: the dominant part of each sigma
        # product, and the orbit size of each root part
        self._dominant_power_cache: dict[tuple, GradedPolynomial] = {}
        self._orbit_sizes: dict[int, int] = {}
        # m_lambda(x) in the f's and m_lambda(x - a/l), by the key of x^lambda
        self._monomial_table: dict[int, GradedPolynomial] = {}
        self._shifted_orbit_table: dict[int, GradedPolynomial] = {}

    @cached_property
    def _sigma(self) -> list[GradedPolynomial]:
        return _esp(self.roots(), self.n, self.ring)

    @cached_property
    def _dominance_masks(self) -> tuple:
        """(roots, tail, high): the exponent fields of x1..xn and of x2..xn,
        and the top bit of each field of x2..xn (the roots are the lowest
        fields of a key, x_n the lowest)."""
        high = 0
        for _ in range(self.n - 1):
            high = (high << FIELD_BITS) | (1 << (FIELD_BITS - 1))
        return (1 << FIELD_BITS * self.n) - 1, (1 << FIELD_BITS * (self.n - 1)) - 1, high

    @cached_property
    def _shifted(self) -> list[GradedPolynomial]:
        shift = self.ring.gen("a") * Fraction(-1, self.l)
        return [r + shift for r in self.roots()]

    @cached_property
    def _shifted_sigma(self) -> list[GradedPolynomial]:
        """sigma_0..sigma_n(x - a/l): the fractional classes over the roots."""
        return _esp(self._shifted, self.n, self.ring)

    @cached_property
    def _fractional_maps(self):
        """(f_ring, at_zero, rename, back): the ring of the fractional classes
        f_1..f_n under the model's cap, the substitution a -> 0, the rename
        e_k -> f_k sending the parameters to 0, and f_k -> sigma_k(x - a/l)."""
        n = self.n
        f_ring = RingPresentation([(f"f{k}", 2 * k) for k in range(1, n + 1)], self.ring.degree_cap)
        at_zero = RingMorphism.substitution(self.ring, {"a": self.ring.zero()})
        images = {name: f_ring.zero() for name in self.params}
        images.update({f"e{k}": f_ring.gen(f"f{k}") for k in range(1, n + 1)})
        rename = RingMorphism(self.e_ring, f_ring, images)
        back = RingMorphism(f_ring, self.ring, dict(zip(f_ring.names, self._shifted_sigma[1:])))
        return f_ring, at_zero, rename, back

    @cached_property
    def _shift_maps(self):
        """(lower, shift): f_k -> sigma_k(x) from the f-ring, and the root
        shift x_i -> x_i - a/l of the root ring, fixing the parameters.  The
        back map f_k -> sigma_k(x - a/l) is lower, then shift; that is
        checked here on the generators, shift(sigma_k(x)) == sigma_k(x - a/l)
        for every k, once per model."""
        f_ring = self._fractional_maps[0]
        lower = RingMorphism(f_ring, self.ring, dict(zip(f_ring.names, self._sigma[1:])))
        roots = {f"x{i}": r for i, r in enumerate(self._shifted, start=1)}
        shift = RingMorphism.substitution(self.ring, roots)
        if shift.map_all(self._sigma[1:]) != self._shifted_sigma[1:]:
            raise EngineError(
                "the root shift does not send sigma_k(x) to sigma_k(x - a/l) (internal error)"
            )
        return lower, shift

    @cached_property
    def _level_tables(self) -> list:
        """[sigma_k(e^r) for k = 0..n, sigma_k(e^{-r}) for k = 0..n] over
        the f-ring, whose generators f_1..f_n are sigma_k(r) of n roots r,
        by Newton's identities: the power sums p_j of the r from the f's
        (p_0 = n), the power sums P_m = sum_j (+-m)^j p_j / j! of the
        e^{+-r}, and k * sigma_k = sum_{m=1..k} (-1)^(m-1) sigma_{k-m} P_m."""
        f_ring, n = self._fractional_maps[0], self.n
        f = [f_ring.one()] + [f_ring.gen(f"f{k}") for k in range(1, n + 1)]
        p = [f_ring.constant(n)]
        for j in range(1, f_ring.degree_cap // 2 + 1):
            pj = f[j] * ((-1) ** (j - 1) * j) if j <= n else f_ring.zero()
            for i in range(1, min(j - 1, n) + 1):
                term = f[i] * p[j - i]
                pj = pj + term if i % 2 else pj - term
            p.append(pj)
        tables = []
        for sign in (1, -1):
            power = [None]  # P_m from m = 1
            for m in range(1, n + 1):
                terms = (pj * Fraction((sign * m) ** j, factorial(j)) for j, pj in enumerate(p))
                power.append(sum(terms, f_ring.zero()))
            table = [f_ring.one()]
            for k in range(1, n + 1):
                acc = f_ring.zero()
                for m in range(1, k + 1):
                    term = table[k - m] * power[m]
                    acc = acc + term if m % 2 else acc - term
                table.append(acc * Fraction(1, k))
            tables.append(table)
        return tables

    @cached_property
    def _level_product(self) -> list:
        """[T_0..T_2n]: the coefficients of the one factor per level,
        Lambda_t(E) * Lambda_t(E*) = prod_i (1 + t e^{r_i})(1 + t e^{-r_i}),
        over the f-ring: T_k = sum_i sigma_i(e^r) sigma_(k-i)(e^{-r}) from
        the level tables.  The product is t^(2n) times itself at 1/t, so
        T_(2n-k) = T_k, and only T_0..T_n are built."""
        plus, minus = self._level_tables
        f_ring, n = self._fractional_maps[0], self.n
        half = [
            _sum_of_products(f_ring, [(plus[i], minus[k - i]) for i in range(k + 1)])
            for k in range(n + 1)
        ]
        return half + half[n - 1 :: -1]

    @cached_property
    def _transpositions(self) -> list[RingMorphism]:
        return [
            RingMorphism.rename(self.ring, self.ring, {f"x{i}": f"x{i+1}", f"x{i+1}": f"x{i}"})
            for i in range(1, self.n)
        ]

    @cached_property
    def _cycle(self) -> RingMorphism:
        """x_i -> x_{i+1}, x_n -> x_1: with x1 <-> x2 it generates S_n."""
        mapping = {f"x{i}": f"x{i % self.n + 1}" for i in range(1, self.n + 1)}
        return RingMorphism.rename(self.ring, self.ring, mapping)

    def root(self, i: int) -> GradedPolynomial:
        return self.ring.gen(f"x{i}")

    def roots(self):
        return [self.root(i) for i in range(1, self.n + 1)]

    def shifted_roots(self):
        """The fractional Chern roots x_i - a/l, as a new list."""
        return list(self._shifted)

    def elementary_to_roots(self) -> RingMorphism:
        """e_k -> sigma_k(x); parameters map to their namesakes."""
        images = {name: self.ring.gen(name) for name in self.params}
        for k in range(1, self.n + 1):
            images[f"e{k}"] = elementary_symmetric(k, self)
        return RingMorphism(self.e_ring, self.ring, images)


def _check_k(k: int, n: int) -> None:
    """The rule for a class index k of a rank-n bundle: 0 <= k <= n."""
    if not 0 <= k <= n:
        raise PreconditionError(f"k={k} out of range 0..{n}")


def _esp(values, k_max, ring, k_min=0):
    """Elementary symmetric polynomials e_0..e_k_max of ring elements.

    The recurrence runs on int numerators: the values are brought to one
    common denominator D, each entry is a plain {key: numerator} dict of
    e_j(D * values), each product is one kernel call that adds into its
    entry in place (numerators that cancel stay as zeros), and
    e_j = e_j(D * values) / D**j is normalized once at the end, which
    drops the zeros.  Only the entries from k_min up are final, and only
    they are returned (the lower ones are None): after the i-th value the
    recurrence updates entry j only for j <= i (the others are still zero)
    and for j >= k_min minus the number of values still to come (lower ones
    can no longer reach k_min)."""
    den = lcm(*(v._den for v in values))
    scaled = [{m: n * (den // v._den) for m, n in v._terms.items()} for v in values]
    odd_fields, limit = ring.odd_fields, ring.key_limit
    table = [{0: 1}] + [{} for _ in range(k_max)]
    left = len(scaled)
    for i, v in enumerate(scaled, start=1):
        left -= 1
        for j in range(min(k_max, i), max(k_min - left, 1) - 1, -1):
            mul_terms(table[j - 1], v, odd_fields, limit, table[j])
    return [None] * k_min + [_normal_form(ring, den**j, table[j]) for j in range(k_min, k_max + 1)]


def elementary_symmetric(k: int, model: RootModel) -> GradedPolynomial:
    """sigma_k(x_1..x_n); sigma_0 = 1."""
    _check_k(k, model.n)
    return model._sigma[k]


def shifted_total_chern(model: RootModel) -> GradedPolynomial:
    """Full product prod_i (1 + x_i - a/l) = sum_k sigma_k(x - a/l), truncated."""
    return sum(model._shifted_sigma, model.ring.zero())


def root_transpositions(model: RootModel) -> list[RingMorphism]:
    """The n-1 adjacent root transpositions x_i <-> x_{i+1}, as renames
    built once per model; each one sends x_i - a/l to x_{i+1} - a/l."""
    return model._transpositions


def find_asymmetry(p: GradedPolynomial, model: RootModel):
    """Return the first adjacent root transposition not fixing p, or None.

    x1 <-> x2 and the n-cycle generate S_n, so when both fix p (two key
    remaps) every permutation does; otherwise the adjacent scan names the
    first transposition that moves p."""
    swaps = root_transpositions(model)
    if model.n >= 3 and swaps[0](p) == p and model._cycle(p) == p:
        return None
    for i, swap in enumerate(swaps, start=1):
        if swap(p) != p:
            return (f"x{i}", f"x{i+1}")
    return None


def _sigma_power_product(model: RootModel, multiplicities: tuple) -> GradedPolynomial:
    """prod_k sigma_k^{m_k} (multiplicities indexed from 1)."""
    out = model.ring.one()
    for k, m in enumerate(multiplicities, start=1):
        if m:
            out = out * elementary_symmetric(k, model) ** m
    return out


def _dominant_terms(model: RootModel, terms: dict) -> dict:
    """The terms whose root exponents are non-increasing, x1 >= ... >= xn.

    Shifting the root fields down one field puts x_i's exponent in
    x_{i+1}'s field; with that field's top bit set, subtracting x_{i+1}'s
    exponent keeps the bit iff x_i >= x_{i+1}, and never borrows across
    fields, since every exponent is below the top bit."""
    roots, tail, high = model._dominance_masks
    return {
        m: c for m, c in terms.items() if (((m & roots) >> FIELD_BITS | high) - (m & tail)) & high == high
    }


def _dominant_power(model: RootModel, multiplicities: tuple) -> GradedPolynomial:
    """The dominant terms of prod_k sigma_k^{m_k}, cached per model; the
    leading monomial is among them, so the part stays monic."""
    cached = model._dominant_power_cache.get(multiplicities)
    if cached is None:
        full = _sigma_power_product(model, multiplicities)
        cached = _normal_form(model.ring, full._den, _dominant_terms(model, full._terms))
        model._dominant_power_cache[multiplicities] = cached
    return cached


def _elementary_key(model: RootModel, m: int) -> int:
    """The e-ring key of the parameter monomial times prod_k e_k^(l_k - l_(k+1))
    for a dominant root-ring key m with root exponents l_1 >= ... >= l_n.

    x_k and e_k share a slot, and so do the parameters, so subtracting each
    root field's lower neighbour, moved up one field, is the whole map: the
    exponents are non-increasing, so nothing borrows, and the degree field
    stays, since sum 2*l_k = sum 2k*(l_k - l_(k+1))."""
    return m - ((m & model._dominance_masks[1]) << FIELD_BITS)


def express_in_elementary(p: GradedPolynomial, model: RootModel) -> GradedPolynomial:
    """Rewrite a root-symmetric polynomial in e_1..e_n and the parameters.

    A symmetric polynomial is fixed by its dominant terms (root exponents
    non-increasing), one per root orbit, so once ``find_asymmetry`` has
    cleared the input, its term count must be the sum of the orbit sizes of
    its dominant terms; ``_eliminate`` then rewrites those terms.
    Substituting e_k -> sigma_k in the result reproduces the input exactly.
    """
    if p.ring != model.ring:
        raise PreconditionError("polynomial is not over the model's root ring")
    violation = find_asymmetry(p, model)
    if violation is not None:
        raise SymmetryError(
            f"input is not symmetric: transposition {violation[0]} <-> {violation[1]} changes it",
            transposition=violation,
        )
    n = model.n
    work = _dominant_terms(model, p._terms)
    # the orbit of a dominant term has n! / prod (multiplicity of each
    # root exponent)! terms
    roots, sizes = model._dominance_masks[0], model._orbit_sizes
    terms = 0
    for m in work:
        r = m & roots
        if r not in sizes:
            exps = [(r >> FIELD_BITS * f) & FIELD_MASK for f in range(n)]
            sizes[r] = factorial(n) // prod(factorial(exps.count(e)) for e in set(exps))
        terms += sizes[r]
    if terms != len(p._terms):
        raise EngineError("nonzero remainder in symmetric reduction (internal error)")
    return _eliminate(model, work, p._den)


def _eliminate(model: RootModel, work: dict, den: int) -> GradedPolynomial:
    """The e-ring polynomial of the symmetric polynomial whose dominant
    terms are ``work`` (int numerators over den), by classical
    leading-monomial elimination run in place on the packed keys; ``work``
    is consumed.  The lex leading root exponents form a partition lambda,
    and subtracting
    coeff * (parameter monomial) * prod_k sigma_k^(lambda_k - lambda_{k+1})
    strictly lowers the leading monomial; the leading term is dominant, so
    the elimination reads the dominant terms of each sigma product alone.
    The one elimination loop: ``express_in_elementary`` runs it after its
    checks, and the descent's table on single terms x^lambda."""
    # The remainder is one numerator dict over den with a max-heap of its
    # keys.  The parameters precede the roots, so the leading key m is a
    # parameter monomial times x^lambda, and the dominant sigma product is
    # monic and integral at x^lambda: subtracting c times its shift by
    # m - x^lambda cancels m and adds only smaller keys.
    e_ring, n_params = model.e_ring, len(model.params)
    heap = [-m for m in work]
    heapify(heap)
    out = {}
    while heap:
        m = -heappop(heap)
        c = work.get(m)
        if c is None:
            continue  # cancelled, or a second entry for a key re-added
        e = _elementary_key(model, m)
        divisor = _dominant_power(model, e_ring.unpack(e)[n_params:])._terms
        shift = m - max(divisor)
        for key, num in divisor.items():
            key += shift
            if key in work:
                rest = work[key] - c * num
                if rest:
                    work[key] = rest
                else:
                    del work[key]
            else:
                work[key] = -c * num
                heappush(heap, -key)
        out[e] = c
    return _normal_form(e_ring, den, out)


def _orbit_sum(model: RootModel, m: int) -> GradedPolynomial:
    """m_lambda(x): the sum of the distinct root permutations of the
    dominant parameter-free key m of x^lambda, one term each."""
    n, roots = model.n, model._dominance_masks[0]
    counts: dict = {}
    for f in range(n):
        e = (m >> FIELD_BITS * f) & FIELD_MASK
        counts[e] = counts.get(e, 0) + 1
    keys = []

    def place(f, key):
        # fills the root fields from the lowest, each value as often as it
        # occurs in lambda, so every arrangement is met once
        if f == n:
            keys.append(key)
            return
        for e, left in counts.items():
            if left:
                counts[e] = left - 1
                place(f + 1, key | e << FIELD_BITS * f)
                counts[e] = left

    place(0, m & ~roots)
    return _normal_form(model.ring, 1, dict.fromkeys(keys, 1))


def _monomial_in_fractional(model: RootModel, m: int) -> GradedPolynomial:
    """M_lambda: the monomial symmetric function m_lambda(x) written in
    f_1..f_n, for the dominant parameter-free key m of x^lambda.  It is the
    elimination of the single term x^lambda, renamed e_k -> f_k, built once
    per model and key (``RootModel._monomial_table``) and checked when it
    is built: f_k -> sigma_k(x) must send it to m_lambda(x)."""
    table = model._monomial_table
    entry = table.get(m)
    if entry is None:
        entry = model._fractional_maps[2](_eliminate(model, {m: 1}, 1))
        if model._shift_maps[0](entry) != _orbit_sum(model, m):
            raise EngineError("a monomial symmetric function in the f's misses m_lambda(x) (internal error)")
        table[m] = entry
    return entry


def _shifted_orbit(model: RootModel, m: int) -> GradedPolynomial:
    """B_lambda = m_lambda(x - a/l): the root shift x_i -> x_i - a/l of
    m_lambda(x), for the dominant parameter-free key m of x^lambda, built
    once per model and key (``RootModel._shifted_orbit_table``).  It is the
    back map's image of M_lambda: the shift after f_k -> sigma_k(x) is the
    back map (``RootModel._shift_maps``), and M_lambda maps to m_lambda(x)."""
    table = model._shifted_orbit_table
    entry = table.get(m)
    if entry is None:
        entry = table[m] = model._shift_maps[1](_orbit_sum(model, m))
    return entry


def _scalar_product(a: dict, b: dict, top: int) -> dict:
    """The product of two scalar q-series {2e: int numerator}, truncated at
    2e = top, its zero numerators dropped: the one scalar series product."""
    product: dict = {}
    for j, x in a.items():
        for k, y in b.items():
            if j + k <= top:
                product[j + k] = product.get(j + k, 0) + x * y
    return {k: c for k, c in product.items() if c}


def _partition_products(model: RootModel, halves: dict, top: int) -> tuple:
    """(den, {key of x^lambda: {2e: numerator}}) for a series F in x1 alone,
    given as {2e: coefficient}: with F_m the scalar series of x1^m in F, its
    numerators over one denominator D, the series theta_lambda =
    prod_i F_(lambda_i) to q^(top/2) over den = D^n, for every partition
    lambda of at most n parts whose x^lambda is under the cap and whose
    theta_lambda does not vanish at the truncation.

    prod_i F(x_i) has theta_lambda at every permutation of x^lambda, so it
    is sum_lambda theta_lambda * m_lambda(x).  The parts are chosen from
    lambda_1 down, each product extending the one of the parts before it;
    a product that vanishes is not extended, since every extension of it
    vanishes too."""
    den = lcm(*(p._den for p in halves.values()))
    x1 = model.ring.generator_key("x1")
    split: dict = {}  # m: {2e: numerator of F_m over den}
    for k, p in halves.items():
        for key, num in p._terms.items():
            split.setdefault(key // x1, {})[k] = num * (den // p._den)
    parts = sorted(split)
    fields = [model.ring.generator_key(f"x{i}") for i in range(1, model.n + 1)]
    limit = model.ring.key_limit
    out = {}

    def extend(i, key, theta, largest):
        if i == model.n:
            out[key] = theta
            return
        for m in parts:
            if m > largest or key + m * fields[i] >= limit:
                break
            product = _scalar_product(theta, split[m], top)
            if product:
                extend(i + 1, key + m * fields[i], product, m)

    extend(0, 0, {0: 1}, max(parts, default=0))
    return den**model.n, out


def _scaled_partition(den: int, thetas: dict, constants, top: int) -> tuple:
    """(den', {key: {2e: numerator over den'}}): each theta_lambda, given as
    numerators over den, times the scalar series of the rational
    ((2e, c), ...) constants, truncated at 2e = top, over den' = den times
    the constants' common denominator.  With a constant term 1, as the
    constants of 1/theta0^n have, no nonzero theta_lambda becomes zero, so
    the products of ``_partition_products`` stay free of vanishing ones."""
    common = lcm(*(c.denominator for _, c in constants))
    scale = {j: c.numerator * (common // c.denominator) for j, c in constants}
    return den * common, {m: _scalar_product(theta, scale, top) for m, theta in thetas.items()}


def _fractional_read(p: GradedPolynomial, model: RootModel) -> tuple:
    """(P, image): the polynomial P in f_1..f_n with P(f_k -> sigma_k(x - a/l))
    == p, when p is such an image, and the image of P.  P is
    sum c_lambda * M_lambda over p's dominant parameter-free keys x^lambda
    (no a, no extra parameter), c_lambda the coefficient there, and its
    image is sum c_lambda * B_lambda, each one ``_sum_of_products`` over
    p's denominator from the same coefficients.

    At a = 0 the image of P is P(sigma(x)), the parameter-free part of p,
    so its dominant terms give P in the monomial symmetric basis, and
    M_lambda changes that basis to the f's.  The image is linear in P and
    B_lambda is the image of M_lambda, so a p that is no such image gives
    an image that is not p: the caller compares them."""
    roots = model._dominance_masks[0]
    params = ((1 << model.ring.degree_shift) - 1) ^ roots
    free = {m: c for m, c in p._terms.items() if not m & params}
    read = _dominant_terms(model, free).items()
    pairs = [(c, _monomial_in_fractional(model, m)) for m, c in read]
    images = [(c, _shifted_orbit(model, m)) for m, c in read]
    return (
        _sum_of_products(model._fractional_maps[0], pairs, p._den),
        _sum_of_products(model.ring, images, p._den),
    )


def shifted_chern_sum(
    ring: RingPresentation, twist: str, prefix: str, n: int, l: int, k: int, terms: int | None = None
) -> GradedPolynomial:
    """The first ``terms`` (default all k+1) summands of

        sum_{i=0..k} (-1/l)^i C(n-k+i, i) twist^i prefix_{k-i}    (prefix_0 = 1)

    over ring, whose generators include an even twist and prefix1..prefixk,
    prefix_j of j times the twist's degree, so every summand has prefix_k's
    degree.  Summand i is (-1)^i C(n-k+i, i) l^(k-i) over l^k at the key of
    its monomial: i twist keys plus the prefix_{k-i} key."""
    t = ring.generator_key(twist)
    nums = {}
    for i in range(k + 1 if terms is None else terms):
        key = i * t + (ring.generator_key(f"{prefix}{k - i}") if k - i else 0)
        nums[key] = (-1) ** i * comb(n - k + i, i) * l ** (k - i)
    return _normal_form(ring, l**k, nums)


def fractional_chern_closed(model: RootModel, k: int) -> GradedPolynomial:
    """Closed form sum_{i=0..k} (-1/l)^i C(n-k+i, i) a^i e_{k-i} (e_0 = 1)."""
    _check_k(k, model.n)
    return shifted_chern_sum(model.e_ring, "a", "e", model.n, model.l, k)


def fractional_chern_brute(model: RootModel, k: int) -> GradedPolynomial:
    """Independent oracle: sigma_k of the shifted roots, expanded over the
    roots and rewritten in the elementary basis."""
    _check_k(k, model.n)
    part = _esp(model._shifted, k, model.ring, k)[k]
    return express_in_elementary(part, model)


def change_trivialization_ring(model: RootModel) -> RingPresentation:
    """Presentation in the fractional classes f_1..f_n and the shift x."""
    gens = [("x", 2)] + [(f"f{k}", 2 * k) for k in range(1, model.n + 1)]
    return RingPresentation(gens, model.ring.degree_cap)


def change_trivialization(model: RootModel, k: int) -> GradedPolynomial:
    """Fractional classes after moving the trivialization by x:
    sum_{i=0..k} (-1/l)^i C(n-k+i, i) x^i f_{k-i} (f_0 = 1)."""
    _check_k(k, model.n)
    return shifted_chern_sum(change_trivialization_ring(model), "x", "f", model.n, model.l, k)


@dataclass
class SplittingReport:
    ok: bool
    residuals: list

    def __str__(self):
        status = "ok" if self.ok else "FAILED"
        lines = [f"splitting relation: {status}"]
        for j, res in enumerate(self.residuals, start=1):
            lines.append(f"  root {j}: residual {res}")
        return "\n".join(lines)


def splitting_check(model: RootModel) -> SplittingReport:
    """Each shifted root solves the fractional characteristic relation:

        sum_{k=0..n} (-1)^k sigma_k(x - a/l) (x_j - a/l)^{n-k} == 0
    """
    sigma = model._shifted_sigma
    residuals = []
    for r in model._shifted:
        pairs = [(-s if k % 2 else s, r ** (model.n - k)) for k, s in enumerate(sigma)]
        residuals.append(_sum_of_products(model.ring, pairs))
    return SplittingReport(all(res.is_zero for res in residuals), residuals)
