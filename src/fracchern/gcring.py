"""Truncated graded-commutative polynomial algebras over exact rationals.

A :class:`RingPresentation` is free graded-commutative on its named
generators and truncated above ``degree_cap``: products of odd-degree
generators anticommute, squares of odd generators vanish (we work over
the rationals), and any term of total degree above the cap is dropped.
Elements are kept in a canonical normal form, so equality is structural
and rendering is deterministic.  This module owns both halves of that
form: the key layout of the monomials and the coefficient layout.

Each monomial is one int key, laid out here and nowhere else: with g
generators it is ``degree << 16*g | e_0 << 16*(g-1) | ... | e_{g-1}``.  So
sorted keys are in render order (degree, then exponents), adding two keys
multiplies the monomials, and the constant term's key is 0.

The coefficients are int numerators over one positive int denominator:
an element is ``(den, {key: numerator})`` with no zero numerator, the gcd
of den and every numerator 1, and den 1 for zero.  Every element that
arithmetic builds passes through ``_normal_form``.  Every product, generic
ring-map image and sum of products is one ``_sum_of_products``, which
states once how a number or a lone constant scales the other factor; the
kernel's one other caller is ``symroots._esp``.  The public surface
deals in exponent tuples over the declared generator order and in
``Fraction`` coefficients, built when read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm

from ._kernel import mul_terms
from .errors import ExpressionError, PreconditionError, PresentationMismatch

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1


def json_int(value, field: str) -> int:
    """A JSON integer or a finite integral float: 4 and 4.0 are 4, while "4",
    true, 4.9, 1e400 and -Infinity raise a ValueError naming ``field``."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field}: expected an integer, got {value!r}")


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Generator:
    """A ring generator: a name and a positive cohomological degree."""

    name: str
    degree: int

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    def __post_init__(self):
        if self.degree < 1:
            raise PreconditionError(f"generator {self.name!r} must have degree >= 1")
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise PreconditionError(f"generator name {self.name!r} is not an identifier")


class RingPresentation:
    """Free graded-commutative algebra on ordered generators, capped in degree."""

    # a key is 16-bit exponent fields under a degree field: a cap below
    # 2**15 bounds every exponent, so adding two keys never carries between
    # fields; 64 generators bound a key at 1040 bits
    MAX_GENERATORS = 64
    MAX_DEGREE_CAP = (1 << (FIELD_BITS - 1)) - 1

    def __init__(self, generators, degree_cap: int):
        gens = tuple(
            g if isinstance(g, Generator) else Generator(g[0], g[1]) for g in generators
        )
        names = tuple(g.name for g in gens)
        if len(set(names)) != len(names):
            raise PreconditionError("generator names must be unique")
        if len(gens) > self.MAX_GENERATORS:
            raise PreconditionError(
                f"presentations support at most {self.MAX_GENERATORS} generators"
            )
        if gens and degree_cap < max(g.degree for g in gens):
            raise PreconditionError("degree_cap must be >= every generator degree")
        if not 0 <= degree_cap <= self.MAX_DEGREE_CAP:
            raise PreconditionError(
                f"degree_cap must be between 0 and {self.MAX_DEGREE_CAP}"
            )
        self.generators = gens
        self.degree_cap = degree_cap
        self.names = names
        self.degrees = tuple(g.degree for g in gens)
        self.index = {name: i for i, name in enumerate(names)}
        # a key's degree is key >> degree_shift, so keys above the cap are
        # >= key_limit; odd_fields has the lowest bit of each odd field
        self.degree_shift = FIELD_BITS * len(gens)
        self.key_limit = (degree_cap + 1) << self.degree_shift
        self.odd_fields = 0
        for g in gens:
            self.odd_fields = (self.odd_fields << FIELD_BITS) | g.is_odd
        self._one = GradedPolynomial(self, {0: 1})

    # -- identity -----------------------------------------------------------

    def _key(self):
        return (self.names, self.degrees, self.degree_cap)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, RingPresentation) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"RingPresentation([{gens}], cap={self.degree_cap})"

    # -- monomial packing ---------------------------------------------------

    def pack(self, exponents) -> int:
        key = self.monomial_degree(exponents)
        for e in exponents:
            key = (key << FIELD_BITS) | e
        return key

    def unpack(self, key: int) -> tuple:
        return tuple(
            (key >> shift) & FIELD_MASK
            for shift in range(self.degree_shift - FIELD_BITS, -1, -FIELD_BITS)
        )

    def monomial_degree(self, exponents) -> int:
        return sum(e * d for e, d in zip(exponents, self.degrees))

    # -- element constructors -----------------------------------------------

    def zero(self) -> "GradedPolynomial":
        return GradedPolynomial(self, {})

    def one(self) -> "GradedPolynomial":
        """The unit, one element per presentation, shared: elements are
        immutable."""
        return self._one

    def constant(self, value) -> "GradedPolynomial":
        # a Fraction is in lowest terms over a positive denominator already
        c = as_fraction(value)
        return GradedPolynomial(self, {0: c.numerator}, c.denominator) if c else self.zero()

    def generator_key(self, name: str) -> int:
        """The key of the monomial ``name``; adding keys multiplies monomials."""
        i = self.index.get(name)
        if i is None:
            raise ExpressionError(f"unknown generator {name!r}")
        return self.degrees[i] << self.degree_shift | 1 << self.degree_shift - FIELD_BITS * (i + 1)

    def gen(self, name: str) -> "GradedPolynomial":
        return GradedPolynomial(self, {self.generator_key(name): 1})

    def from_exponents(self, terms) -> "GradedPolynomial":
        """Build an element from {exponent tuple: coefficient}, validating."""
        packed_terms = {}
        for exps, coef in terms.items():
            c = as_fraction(coef)
            if not c:
                continue
            if len(exps) != len(self.generators):
                raise PreconditionError("exponent tuple length mismatch")
            for e, g in zip(exps, self.generators):
                if e < 0:
                    raise PreconditionError("negative exponent")
                if g.is_odd and e > 1:
                    raise PreconditionError(f"odd generator {g.name} squared is zero")
            key = self.pack(exps)
            if key >= self.key_limit:
                raise PreconditionError("monomial exceeds degree cap")
            packed_terms[key] = packed_terms.get(key, 0) + c
        den = lcm(*(c.denominator for c in packed_terms.values()))
        return _normal_form(
            self, den, {m: c.numerator * (den // c.denominator) for m, c in packed_terms.items()}
        )

    def poly(self, text: str) -> "GradedPolynomial":
        """Parse an expression ("c2 - 3/2*a*c1 + 3/2*a^2") over this ring."""
        from .parser import parse_polynomial

        return parse_polynomial(text, self)

    # -- JSON schema ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "generators": [{"name": g.name, "degree": g.degree} for g in self.generators],
            "degree_cap": self.degree_cap,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RingPresentation":
        try:
            gens = [(g["name"], json_int(g["degree"], "degree")) for g in data["generators"]]
            cap = json_int(data["degree_cap"], "degree_cap")
        except (KeyError, TypeError, ValueError) as exc:
            raise ExpressionError(f"malformed ring presentation: {exc}") from exc
        return cls(gens, cap)


def _coefficient_text(num: int, den: int) -> str:
    """num/den in lowest terms, printed as num alone when den is 1."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # longer than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(f"a coefficient has more than {limit} digits to print") from None


def _normal_form(ring: RingPresentation, den: int, nums: dict) -> "GradedPolynomial":
    """The element sum of nums[key]/den * key, in normal form: zero
    numerators dropped, the positive den and the numerators divided by
    their gcd, and den 1 for zero.  ``nums`` must be a dict no other object
    holds: it is reduced in place."""
    if 0 in nums.values():
        nums = {m: n for m, n in nums.items() if n}
    if not nums:
        return GradedPolynomial(ring, nums, 1)
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            for m, n in nums.items():
                nums[m] = n // g
    return GradedPolynomial(ring, nums, den)


def _sum_of_products(ring: RingPresentation, pairs, den: int = 1) -> "GradedPolynomial":
    """The element sum of a*b/den over the pairs (a, b): b an element of
    ring and a an int or an element of ring, on the left so the Koszul
    signs hold.

    An int, or a lone constant term on either side, scales the other
    factor: no sign, no truncation.  Every other product is one kernel call adding
    into the one numerator dict over den times the lcm of the pair
    denominators, normalized once.  A lone product by exactly 1 (and den 1)
    is the other factor itself, shared: elements are immutable."""
    parts = []  # (int scale, pair denominator, element, element or None)
    for a, b in pairs:
        if isinstance(a, int):
            parts.append((a, b._den, b, None))
        elif len(a._terms) == 1 and 0 in a._terms:
            parts.append((a._terms[0], a._den * b._den, b, None))
        elif len(b._terms) == 1 and 0 in b._terms:
            parts.append((b._terms[0], a._den * b._den, a, None))
        else:
            parts.append((1, a._den * b._den, a, b))
    if len(parts) == 1 and den == 1:
        num, d, p, q = parts[0]
        if q is None and num == 1 and d == p._den:
            return p
    common = lcm(*(d for _, d, _, _ in parts))
    nums = {}
    for num, d, p, q in parts:
        scale = num * (common // d)
        if q is not None:
            left = p._terms if scale == 1 else {m: n * scale for m, n in p._terms.items()}
            mul_terms(left, q._terms, ring.odd_fields, ring.key_limit, nums)
        elif nums:
            for m, n in p._terms.items():
                nums[m] = nums.get(m, 0) + scale * n
        else:
            nums = {m: scale * n for m, n in p._terms.items()}
    return _normal_form(ring, den * common, nums)


class GradedPolynomial:
    """Element of a RingPresentation in canonical normal form.

    ``_terms`` maps each monomial key to a nonzero int numerator over the
    one positive denominator ``_den`` (see the module docstring).
    Immutable after construction; all arithmetic returns new objects.
    """

    __slots__ = ("ring", "_terms", "_den")

    def __init__(self, ring: RingPresentation, terms: dict, den: int = 1):
        self.ring = ring
        self._terms = terms
        self._den = den

    # -- basic views ----------------------------------------------------------

    def terms(self):
        """Sorted [(exponent tuple, coefficient)]: by total degree, then
        exponent-vector lexicographic in declared generator order."""
        den = self._den
        return [(self.ring.unpack(m), Fraction(self._terms[m], den)) for m in sorted(self._terms)]

    def leading_term(self):
        """The last of ``terms()``, read from the largest key alone."""
        if not self._terms:
            raise PreconditionError("the zero polynomial has no leading term")
        m = max(self._terms)
        return self.ring.unpack(m), Fraction(self._terms[m], self._den)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest total degree among stored terms (0 for the zero element)."""
        return max(self._terms, default=0) >> self.ring.degree_shift

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {m >> self.ring.degree_shift for m in self._terms}
        if d is None:
            return len(degs) <= 1
        return degs <= {d}

    def homogeneous_part(self, d: int) -> "GradedPolynomial":
        shift = self.ring.degree_shift
        kept = {m: c for m, c in self._terms.items() if m >> shift == d}
        return _normal_form(self.ring, self._den, kept)

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self._den == 1

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(0, 0), self._den)

    def coefficient(self, exponents) -> Fraction:
        if len(exponents) != len(self.ring.generators):
            raise PreconditionError("exponent tuple length mismatch")
        return Fraction(self._terms.get(self.ring.pack(exponents), 0), self._den)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GradedPolynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise PresentationMismatch(
                    "operands live over different ring presentations"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        # copy the larger term map and merge in the smaller, over the lcm
        # of the denominators: big._den * grow == small._den * scale
        big, small = (self, q) if len(self._terms) >= len(q._terms) else (q, self)
        g = gcd(big._den, small._den)
        grow, scale = small._den // g, big._den // g
        if grow == 1:
            out = dict(big._terms)
        else:
            out = {m: n * grow for m, n in big._terms.items()}
        for m, n in small._terms.items():
            if scale != 1:
                n *= scale
            if m in out:
                s = out[m] + n
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = n
        return _normal_form(self.ring, big._den * grow, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedPolynomial(self.ring, {m: -n for m, n in self._terms.items()}, self._den)

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return _sum_of_products(self.ring, [(self, q)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / as_fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise PreconditionError("polynomial powers must be nonnegative integers")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def inverse_unit(self) -> "GradedPolynomial":
        """Inverse of c + nilpotent (c a nonzero scalar); finite by truncation."""
        c = self.constant_term()
        if not c:
            raise PreconditionError("element has no invertible constant term")
        nil = (self - c) * (Fraction(1) / c)
        # 1/(c(1+nil)) = (1/c) * sum (-nil)^k, nilpotent above the cap
        out = self.ring.one()
        power = self.ring.one()
        for _ in range(self.ring.degree_cap):
            power = power * (-nil)
            if power.is_zero:
                break
            out = out + power
        return out * (Fraction(1) / c)

    # -- comparison / rendering -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.ring == other.ring and self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, self._den, frozenset(self._terms.items())))

    def render(self) -> str:
        """The terms in ``terms()`` order, each coefficient reduced by one
        gcd straight from its numerator."""
        if not self._terms:
            return "0"
        names, den = self.ring.names, self._den
        chunks = []
        for i, m in enumerate(sorted(self._terms)):
            n = self._terms[m]
            g = gcd(n, den)
            num, d = abs(n) // g, den // g
            factors = [
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(names, self.ring.unpack(m))
                if e
            ]
            if factors:
                body = "*".join(factors)
                if num != 1 or d != 1:
                    body = f"{_coefficient_text(num, d)}*{body}"
            else:
                body = _coefficient_text(num, d)
            if i == 0:
                chunks.append(body if n > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if n > 0 else f" - {body}")
        return "".join(chunks)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<{self.render()}>"


class _KeyPlan:
    """The key rewrite of a map sending each generator to zero or to an
    even target generator with coefficient 1, worked out once from its
    moves: per source generator, None for zero or the target generator's
    index.

    The degree field and every kept field move by offset masks: each key is
    cut by one mask per field offset and the pieces, each shifted by its
    offset, are added.  Two fields on one target field add their exponents,
    which never carries: the sum is at most the key's degree, below 2**15.
    If no field goes to zero, no two land on one target field and the
    target's cap is not below the source's, the key map is injective and
    that is all (``injective`` is true): the numerators and the denominator
    carry over.  Otherwise one pass drops the keys with a field sent to
    zero or above the target's cap and sums the keys that collide.
    """

    __slots__ = ("target", "dropped", "masks", "injective")

    def __init__(self, source: RingPresentation, target: RingPresentation, moves):
        self.target = target
        src_shift, dst_shift = source.degree_shift, target.degree_shift
        dropped = 0  # fields sent to zero
        offsets = {dst_shift - src_shift: FIELD_MASK << src_shift}  # offset: mask
        for i, j in enumerate(moves):
            shift = src_shift - FIELD_BITS * (i + 1)
            if j is None:
                dropped |= FIELD_MASK << shift
                continue
            to = dst_shift - FIELD_BITS * (j + 1)
            offsets[to - shift] = offsets.get(to - shift, 0) | FIELD_MASK << shift
        self.dropped = dropped
        # the mask of offset 0, then (up mask, shift, down mask, shift) per
        # pair of an upward and a downward offset, the shorter side padded
        # with empty masks
        still = offsets.pop(0, 0)
        up = [(mask, d) for d, mask in offsets.items() if d > 0]
        down = [(mask, -d) for d, mask in offsets.items() if d < 0]
        self.masks = still, [a + b for a, b in zip_longest(up, down, fillvalue=(0, 0))]
        distinct = not dropped and len(set(moves)) == len(moves)
        self.injective = distinct and target.degree_cap >= source.degree_cap

    def apply(self, p: GradedPolynomial) -> GradedPolynomial:
        still, pairs = self.masks
        keys = p._terms.keys()
        new = [key & still for key in keys]
        for up, u, down, d in pairs:
            new = [m + ((key & up) << u) + ((key & down) >> d) for m, key in zip(new, keys)]
        if self.injective:
            return GradedPolynomial(self.target, dict(zip(new, p._terms.values())), p._den)
        dropped, limit = self.dropped, self.target.key_limit
        out = {}
        for m, (key, n) in zip(new, p._terms.items()):
            if not key & dropped and m < limit:
                out[m] = out.get(m, 0) + n
        return _normal_form(self.target, p._den, out)


def transplant(p: GradedPolynomial, target: RingPresentation) -> GradedPolynomial:
    """Rebuild p over another presentation, matching generators by name.

    Every generator actually appearing in p must exist in the target with
    the same degree; generators of either ring not involved are ignored.
    """
    images, faults = {}, {}
    for i, g in enumerate(p.ring.generators):
        j = target.index.get(g.name)
        if j is None:
            faults[i] = f"generator {g.name} does not exist in the target presentation"
        elif target.degrees[j] != g.degree:
            faults[i] = f"generator {g.name} changes degree"
        images[g.name] = target.zero() if i in faults else target.gen(g.name)
    if faults:
        # the first fault met in render order
        for exps, _ in p.terms():
            for i, e in enumerate(exps):
                if e and i in faults:
                    raise PreconditionError(faults[i])
    if p.degree() > target.degree_cap:
        raise PreconditionError("monomial exceeds degree cap")
    return RingMorphism(p.ring, target, images)(p)


def element_of_degree(target: RingPresentation, value, degree: int, what: str) -> GradedPolynomial:
    """``value`` as an element of ``target`` homogeneous of ``degree`` (or
    zero); a string is parsed over ``target`` and an int or ``Fraction`` is a
    constant.  ``what`` names it in errors."""
    if isinstance(value, str):
        value = target.poly(value)
    elif isinstance(value, (int, Fraction)):
        value = target.constant(value)
    elif not isinstance(value, GradedPolynomial):
        raise PreconditionError(f"{what} must be a polynomial, got {value!r}")
    if value.ring != target:
        raise PresentationMismatch(f"{what} is not over the target")
    if not value.is_homogeneous(degree):
        raise PreconditionError(f"{what} must be homogeneous of degree {degree}")
    return value


def _generator_moves(images):
    """The ``_KeyPlan`` moves of images that are each zero (None) or one
    even target generator with coefficient 1 (its index), else None.  Such
    an image has one key, numerator 1 and denominator 1, and its exponent
    bits are a single 1 at the bottom of an even generator's field."""
    moves = []
    for img in images:
        if not img._terms:
            moves.append(None)
            continue
        if len(img._terms) != 1 or img._den != 1:
            return None
        ((key, num),) = img._terms.items()
        ring = img.ring
        bits = key & ((1 << ring.degree_shift) - 1)
        if num != 1 or bits & (bits - 1) or bits & ring.odd_fields or bits.bit_length() % FIELD_BITS != 1:
            return None
        moves.append(len(ring.generators) - 1 - bits.bit_length() // FIELD_BITS)
    return tuple(moves)


class RingMorphism:
    """Degree-preserving ring homomorphism given by generator images."""

    def __init__(self, source: RingPresentation, target: RingPresentation, images: dict):
        self.source = source
        self.target = target
        for name in images:
            if name not in source.index:
                raise PreconditionError(f"unknown source generator {name!r}")
        imgs = {}
        for g in source.generators:
            if g.name not in images:
                raise PreconditionError(f"no image given for generator {g.name}")
            imgs[g.name] = element_of_degree(
                target, images[g.name], g.degree, f"image of {g.name}"
            )
        self.images = imgs
        self._moves = _generator_moves(imgs.values())

    @cached_property
    def _plan(self):
        """The ``_KeyPlan`` of the map's moves, or None when it has none (an
        image that is not zero or one even generator with coefficient 1);
        built on first use."""
        return None if self._moves is None else _KeyPlan(self.source, self.target, self._moves)

    @cached_property
    def _memo(self) -> dict:
        """{monomial key: its image} for the generic route, built on first
        use and grown by every call: the monomials mapped through the map
        and the divisors met on the way to them."""
        return {0: self.target.one()}

    @classmethod
    def identity(cls, ring: RingPresentation) -> "RingMorphism":
        return cls(ring, ring, {g.name: ring.gen(g.name) for g in ring.generators})

    @classmethod
    def substitution(cls, ring: RingPresentation, replacements: dict) -> "RingMorphism":
        """Endomorphism replacing the named generators, fixing the rest."""
        images = {g.name: ring.gen(g.name) for g in ring.generators}
        for name, value in replacements.items():
            if name not in ring.index:
                raise ExpressionError(f"unknown generator {name!r}")
            images[name] = value
        return cls(ring, ring, images)

    @classmethod
    def rename(cls, source: RingPresentation, target: RingPresentation, mapping: dict) -> "RingMorphism":
        """Generator-to-generator map; unmapped names map to their namesakes."""
        images = {}
        for g in source.generators:
            images[g.name] = target.gen(mapping.get(g.name, g.name))
        return cls(source, target, images)

    def __call__(self, p: GradedPolynomial) -> GradedPolynomial:
        return self.map_all([p])[0]

    def map_all(self, polys) -> list:
        """Each of ``polys`` mapped.  A map sending each generator to zero
        or to an even generator with coefficient 1 rewrites keys (its
        ``_KeyPlan``); every other map takes the generic route, which
        builds each monomial image once for the life of the map, whatever
        calls and lists it is mapped in."""
        if any(p.ring != self.source for p in polys):
            raise PresentationMismatch("polynomial is not over the morphism source")
        if self._plan is not None:
            return [self._plan.apply(p) for p in polys]
        return self._map_generic(polys)

    def _apply_generic(self, p: GradedPolynomial) -> GradedPolynomial:
        """The generic route for one polynomial, whatever the images: the
        reference for the key plan."""
        return self._map_generic([p])[0]

    def _map_generic(self, polys) -> list:
        """For each p, the sum over its terms of the coefficient times the
        monomial's image.

        The images of monomials are memoized on the map (``_memo``), so
        every call and every list shares them; they are fixed by the map.
        Monomial m's image is image(m / g) * image(g) for g the last
        generator of m in declared order, so the factors keep m's own
        (Koszul) order.  Each p is one ``_sum_of_products`` of its
        coefficients and its monomials' images.
        """
        source = self.source
        shift = source.degree_shift
        exponent_bits = (1 << shift) - 1
        last = len(source.generators) - 1
        gens = [self.images[name] for name in source.names]
        memo = self._memo

        def image(key):
            chain = []  # (key, index of its last generator), down to a known key
            while key not in memo:
                low = key & exponent_bits
                field = ((low & -low).bit_length() - 1) // FIELD_BITS
                i = last - field
                chain.append((key, i))
                key -= (1 << FIELD_BITS * field) + (source.degrees[i] << shift)
            img = memo[key]
            for k, i in reversed(chain):
                img = img * gens[i]
                memo[k] = img
            return img

        return [
            _sum_of_products(self.target, [(n, image(m)) for m, n in p._terms.items()], p._den)
            for p in polys
        ]

    def then(self, after: "RingMorphism") -> "RingMorphism":
        """Composite morphism: first self, then ``after``."""
        if after.source != self.target:
            raise PresentationMismatch("morphisms do not compose")
        return RingMorphism(
            self.source, after.target, {name: after(img) for name, img in self.images.items()}
        )

    def __repr__(self):
        ims = ", ".join(f"{n} -> {p}" for n, p in self.images.items())
        return f"RingMorphism({ims})"
