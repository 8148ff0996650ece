"""Generator-level morphism tables of the two lifting towers, obstruction
classes, lift-consequence identities and structure counting.

Both towers are modeled purely on cohomology generators: a space is its
truncated ring presentation (see ``spaces``) and a map is the table of
generator images of its pullback.  The fractional tower kills
(c1 - s*g, c1Q) and then (c2 - s(n-1)/(2l)*cb1^2, c2Q); the loop tower
kills (z1 - s*h, z1Q), (c1 - s*g, c1Q) and (z2 + s/l*zb1*cb1, z2Q).
Bundle-level data enters through :class:`BundleDescriptor` (JSON), and
the obstruction/lift/counting operations evaluate the corresponding
classes on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import transgression
from .errors import ExpressionError, PreconditionError, VerificationError
from .gcring import GradedPolynomial, RingMorphism, RingPresentation, element_of_degree, json_int, transplant
from .spaces import SPACE_NAMES, check_n_l, space_ring
from .symroots import _check_k, shifted_chern_sum
from .transgression import DerivationTable, free_suspend

# level -> (side, degree) of the group H^degree(side) counting its structures
_GROUPS = {"fracSU": ("M", 1), "fracU6": ("M", 3), "loopU": ("LM", 0), "loopSU": ("LM", 2)}

LEVELS = tuple(_GROUPS)


def _c2_twist(n: int, l: int) -> Fraction:
    """s(n-1)/(2l): the twist-squared coefficient of the level-2 class
    c2 - s(n-1)/(2l)*cb1^2."""
    return Fraction(n // l * (n - 1), 2 * l)


# ---------------------------------------------------------------------------
# universal pullback classes
# ---------------------------------------------------------------------------


def phi_pullback(n: int, l: int, k: int, degree_cap: int | None = None) -> GradedPolynomial:
    """Pullback of the k-th rational Chern class to BU(1) x BU(n):

        sum_{i=0..k} (-1/l)^i C(n-k+i, i) g^i c_{k-i}
    """
    check_n_l(n, l)
    _check_k(k, n)
    ring = space_ring("BU1xBUn", n=n, degree_cap=degree_cap)
    return shifted_chern_sum(ring, "g", "c", n, l, k)


def phi2_pullback(n: int, l: int, k: int, degree_cap: int | None = None) -> GradedPolynomial:
    """Pullback of the k-th rational Chern class (k >= 2) to BU(n)_l:

        sum_{i=0..k-2} (-1/l)^i C(n-k+i, i) cb1^i c_{k-i}
          + (-1/l)^k (1-k) C(n, k) cb1^k
    """
    check_n_l(n, l, require_higher=True)
    if not 2 <= k <= n:
        raise PreconditionError(f"k={k} must satisfy 2 <= k <= n")
    ring = space_ring("BUn_l", n=n, l=l, degree_cap=degree_cap)
    top = ring.gen("cb1") ** k * (Fraction(-1, l) ** k * (1 - k) * comb(n, k))
    return shifted_chern_sum(ring, "cb1", "c", n, l, k, terms=k - 1) + top


def _lphi_z2_image(n: int, l: int, degree_cap: int | None) -> GradedPolynomial:
    """Loop pullback of z2Q to BLU(1) x BLU(n), built through the
    transgression of the c2Q pullback:

        nu(phi*(c2Q)) - (z1 - s*h)(c1 - s*g)
    """
    s = n // l
    table = transgression.builtin_table("BU1xBUn", n=n, degree_cap=degree_cap)
    suspended = free_suspend(table, phi_pullback(n, l, 2, degree_cap))
    loop_ring = table.target
    correction = loop_ring.poly(f"(z1 - {s}*h)*(c1 - {s}*g)")
    return suspended - correction


def _phi3_images(tgt, n, l, s):
    """phi2 images of c3Q..cnQ pushed along the level-2 covering Bi3l."""
    bi3l = builtin_morphism("Bi3l", n, l, tgt.degree_cap)
    return {f"c{k}Q": bi3l(phi2_pullback(n, l, k, tgt.degree_cap)) for k in range(3, n + 1)}


def _lphi_images(tgt, n, l, s):
    """The level-0 loop pullback: phi images moved to the loop ring, and
    z2Q through the transgression of phi*(c2Q)."""
    return {
        "z1Q": f"z1 - {s}*h",
        "c1Q": transplant(phi_pullback(n, l, 1, tgt.degree_cap), tgt),
        "z2Q": _lphi_z2_image(n, l, tgt.degree_cap),
        "c2Q": transplant(phi_pullback(n, l, 2, tgt.degree_cap), tgt),
    }


def _br_images(tgt, n, l, s):
    """Br sends q1 to -c2, which BU(1) lacks."""
    if n < 2:
        raise PreconditionError(f"map Br needs n >= 2, got n={n}")
    return {"t": "c1", "q1": "-c2"}


# name -> (source space, target space, needs l > 1, images(target ring, n, l, s)).
# Images are expressions over the target or polynomials built over it; a
# source generator left out maps to its namesake in the target.
_MORPHISMS = {
    "phi": ("BUnQ", "BU1xBUn", False, lambda tgt, n, l, s: {
        f"c{k}Q": phi_pullback(n, l, k, tgt.degree_cap) for k in range(1, n + 1)
    }),
    "phi2": ("BSUnQ", "BUn_l", True, lambda tgt, n, l, s: {
        f"c{k}Q": phi2_pullback(n, l, k, tgt.degree_cap) for k in range(2, n + 1)
    }),
    "phi3": ("BU6nQ", "BU6n_l", True, _phi3_images),
    "xi2": ("BL0UnQ", "BLUbar_n_l", True, lambda tgt, n, l, s: {
        "c1Q": f"c1 - {s}*g", "z2Q": f"z2 + 1/{l}*zb1*c1"
    }),
    "xi3": ("BhatLSUnQ", "BhatLSUn_l", True, lambda tgt, n, l, s: {
        "c2Q": f"c2 - {_c2_twist(n, l)}*cb1^2"
    }),
    "Lphi": ("BLUnQ", "BLU1xBLUn", False, _lphi_images),
    "Lphi2": ("BLSUnQ", "BLUn_l", True, lambda tgt, n, l, s: {
        "z2Q": f"z2 + {Fraction(s, l)}*zb1*cb1", "c2Q": f"c2 - {_c2_twist(n, l)}*cb1^2"
    }),
    "Bi2l": ("BU1xBUn", "BUn_l", True, lambda tgt, n, l, s: {"g": "cb1", "c1": f"{s}*cb1"}),
    "Bi3l": ("BUn_l", "BU6n_l", True, lambda tgt, n, l, s: {"c2": f"{_c2_twist(n, l)}*cb1^2"}),
    "Biota2l": ("BLU1xBLUn", "BLUbar_n_l", True, lambda tgt, n, l, s: {"h": "zb1", "z1": f"{s}*zb1"}),
    "BhatLi2l": ("BLUbar_n_l", "BLUn_l", True, lambda tgt, n, l, s: {"g": "cb1", "c1": f"{s}*cb1"}),
    "Biota3l": ("BLUn_l", "BhatLSUn_l", True, lambda tgt, n, l, s: {
        "z2": f"-{Fraction(s, l)}*zb1*cb1"
    }),
    "Br": ("BSpinc", "BUn", False, _br_images),
    "BLr": ("BLSpinc", "BLUn", False, lambda tgt, n, l, s: {"sp1": "z1", "t": "c1", "mu": "-z2"}),
    "Bmu_s": ("BU1", "BU1xBUn", False, lambda tgt, n, l, s: {"g": f"c1 - {s}*g"}),
    "Bepsilon": ("S1", "BLUn", False, lambda tgt, n, l, s: {"h": "z1"}),
    "Brho_s": ("BUn", "BUn_l", False, lambda tgt, n, l, s: {"c1": f"{s}*cb1"}),
    "BLrho_s": ("BLUn", "BLUn_l", False, lambda tgt, n, l, s: {"z1": f"{s}*zb1", "c1": f"{s}*cb1"}),
    "BLi2l": ("BLU1xBLUn", "BLUn_l", True, lambda tgt, n, l, s: {
        "h": "zb1", "g": "cb1", "z1": f"{s}*zb1", "c1": f"{s}*cb1"
    }),
}

MORPHISM_NAMES = tuple(_MORPHISMS)


@dataclass
class MorphismTable:
    """A named generator-image table between two registry rings."""

    name: str
    n: int
    l: int
    morphism: RingMorphism

    def __call__(self, p: GradedPolynomial) -> GradedPolynomial:
        return self.morphism(p)

    @property
    def images(self):
        return self.morphism.images


def builtin_morphism(name: str, n: int, l: int, degree_cap: int | None = None) -> MorphismTable:
    """Generator-image table for a named map of the towers."""
    # an unknown name is checked like a map of the higher towers first
    source, target, higher, images = _MORPHISMS.get(name, (None, None, True, None))
    s = check_n_l(n, l, require_higher=higher)
    if images is None:
        raise PreconditionError(f"unknown morphism table {name!r}")
    tgt = space_ring(target, n=n, l=l, degree_cap=degree_cap)
    src = space_ring(source, n=n, l=l, degree_cap=degree_cap)
    given = images(tgt, n, l, s)
    full = {g: given[g] if g in given else tgt.gen(g) for g in src.names}
    return MorphismTable(name, n, l, RingMorphism(src, tgt, full))


def xi2_pullback(n: int, l: int, which: str, degree_cap: int | None = None) -> GradedPolynomial:
    """Level-1 loop pullback: which="c1Q" gives c1 - s*g, which="z2Q" gives
    z2 + 1/l*zb1*c1.

    The z2Q class is additionally recomputed through the transgression
    pipeline (nu of the c2Q pullback minus the correction term, pushed
    through the component-collapse table) and the two must agree.
    """
    if which not in ("c1Q", "z2Q"):
        raise PreconditionError("which must be 'c1Q' or 'z2Q'")
    value = builtin_morphism("xi2", n, l, degree_cap).images[which]
    if which == "z2Q":
        biota2l = builtin_morphism("Biota2l", n, l, degree_cap)
        pipeline = biota2l(_lphi_z2_image(n, l, degree_cap))
        if pipeline != value:
            raise VerificationError(
                f"transgression pipeline disagrees with the table: {pipeline} != {value}"
            )
    return value


def lphi2_z2(n: int, l: int, degree_cap: int | None = None) -> GradedPolynomial:
    """Loop pullback of z2Q to BLU(n)_l: z2 + s/l*zb1*cb1, cross-checked by
    two independent routes (transgression of the level-1 pullback, and the
    loop-tower factorization)."""
    check_n_l(n, l, require_higher=True)
    value = builtin_morphism("Lphi2", n, l, degree_cap).images["z2Q"]

    # route 1: suspend phi2*(c2Q) over BU(n)_l
    table = transgression.builtin_table("BUn_l", n=n, l=l, degree_cap=degree_cap)
    route1 = free_suspend(table, phi2_pullback(n, l, 2, degree_cap))
    # route 2: collapse the level-1 class through the factorization
    bhat = builtin_morphism("BhatLi2l", n, l, degree_cap)
    route2 = bhat(builtin_morphism("xi2", n, l, degree_cap).images["z2Q"])
    if route1 != value or route2 != value:
        raise VerificationError(
            f"cross-check failed: table={value}, suspension={route1}, factorization={route2}"
        )
    return value


# ---------------------------------------------------------------------------
# abelian groups (structure counting)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroupDesc:
    """Finitely generated abelian group: free rank plus torsion orders."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise PreconditionError("rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        if any(t < 2 for t in self.torsion):
            raise PreconditionError("torsion orders must be >= 2")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def render(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()

    @classmethod
    def from_json(cls, data) -> "AbelianGroupDesc":
        if not isinstance(data, dict):
            raise ExpressionError("group descriptor must be an object")
        try:
            rank = json_int(data.get("rank", 0), "rank")
            return cls(rank, tuple(json_int(t, "torsion") for t in data.get("torsion", ())))
        except (TypeError, ValueError):
            raise ExpressionError(
                f"group descriptor needs an integer rank and integer torsion orders, got {data!r}"
            ) from None


def count_structures(level: str, hM: dict | None, hLM: dict | None = None) -> AbelianGroupDesc:
    """The group parametrizing level structures: H^1(M), H^3(M), H^0(LM)
    or H^2(LM)."""
    if level not in _GROUPS:
        raise PreconditionError(f"unknown level {level!r}")
    side, degree = _GROUPS[level]
    table = hM if side == "M" else hLM
    if table is None or degree not in table:
        raise PreconditionError(
            f"level {level} needs H^{degree}({side}) in the descriptor cohomology"
        )
    return table[degree]


# ---------------------------------------------------------------------------
# bundle descriptors
# ---------------------------------------------------------------------------


def _class_at(classes: list, k: int, missing: str) -> GradedPolynomial:
    """classes[k - 1], or a PreconditionError saying ``missing``."""
    if not 1 <= k <= len(classes):
        raise PreconditionError(missing)
    return classes[k - 1]


@dataclass
class LoopData:
    ring_ly: RingPresentation
    ring_lm: RingPresentation
    pi_star: RingMorphism
    a: GradedPolynomial
    afrak: GradedPolynomial
    z: list
    c: list
    zfrac: list
    frac: list
    nu_y: DerivationTable | None = None
    nu_m: DerivationTable | None = None
    side_conditions_y: dict = field(default_factory=dict)
    side_conditions_m: dict = field(default_factory=dict)

    def z_class(self, k: int) -> GradedPolynomial:
        return _class_at(self.z, k, f"loop data has no class z{k}(LE)")

    def c_class(self, k: int) -> GradedPolynomial:
        return _class_at(self.c, k, f"loop data has no class c{k}(LE)")

    def zfrac_class(self, k: int) -> GradedPolynomial:
        return _class_at(self.zfrac, k, f"loop data has no fractional loop class of index {k}")


@dataclass
class BundleDescriptor:
    """Class-level model of a fractional bundle: rings of Y and M, the
    pullback along pi, the twist class a, the Chern classes of E and the
    candidate fractional classes, plus optional loop data and cohomology
    groups for counting."""

    n: int
    l: int
    ring_y: RingPresentation
    ring_m: RingPresentation
    pi_star: RingMorphism
    a: GradedPolynomial
    c: list
    frac: list
    loop: LoopData | None = None
    cohomology_m: dict | None = None
    cohomology_lm: dict | None = None

    @property
    def s(self) -> int:
        return self.n // self.l

    def chern(self, k: int) -> GradedPolynomial:
        return _class_at(self.c, k, f"descriptor has no class c{k}(E)")

    def fractional(self, k: int) -> GradedPolynomial:
        return _class_at(self.frac, k, f"descriptor has no fractional class of index {k}")

    def require_loop(self) -> LoopData:
        if self.loop is None:
            raise PreconditionError("descriptor carries no loop data")
        return self.loop


_REQUIRED = object()


def _field(data, path: str, default=_REQUIRED):
    """The value at a dotted path of the descriptor JSON, or ``default``
    when a key on the path is absent.  Errors name the path."""
    value, walked = data, ""
    for key in path.split("."):
        if not isinstance(value, dict):
            raise ExpressionError(f"{walked or 'descriptor'}: expected an object")
        walked = f"{walked}.{key}" if walked else key
        if key not in value:
            if default is _REQUIRED:
                raise ExpressionError(f"descriptor missing field {walked!r}")
            return default
        value = value[key]
    return value


def _integer(value, path: str) -> int:
    try:
        return json_int(value, path)
    except ValueError as exc:
        raise ExpressionError(str(exc)) from None


def _degree_key(key: str, path: str) -> int:
    """A cohomology degree: JSON object keys are strings, read by int()."""
    try:
        return int(key)
    except ValueError:
        raise ExpressionError(f"{path}: expected an integer, got {key!r}") from None


def _nested(path: str, read, *args):
    """``read(*args)``, with ``path: `` put in front of its ExpressionError or
    PreconditionError: the one place a field's path names a reader's error."""
    try:
        return read(*args)
    except (ExpressionError, PreconditionError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _expression(ring, text) -> GradedPolynomial:
    if not isinstance(text, str):
        raise ExpressionError(f"expected an expression string, got {text!r}")
    return ring.poly(text)


def _class(ring, data, path: str, degree: int) -> GradedPolynomial:
    """A twist class: zero or homogeneous of ``degree``."""
    poly = _nested(path, _expression, ring, _field(data, path))
    if not poly.is_homogeneous(degree):
        raise ExpressionError(f"{path}: class must have degree {degree}")
    return poly


def _expressions(data, path: str) -> dict:
    """An optional object of expression strings, such as pi_star."""
    value = _field(data, path, {})
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise ExpressionError(f"{path}: expected an object of expression strings")
    return dict(value)


def _side_conditions(ring, data, path: str) -> dict:
    """Optional substitutions on ``ring``: each named generator's checked image."""
    given = _expressions(data, path)
    images = _nested(path, RingMorphism.substitution, ring, given).images
    return {name: images[name] for name in given}


def _parse_classes(ring, data, path, expected_degrees, what):
    entries = _field(data, path, [])
    if not isinstance(entries, list):
        raise ExpressionError(f"{path}: expected a list")
    return [
        _nested(f"{path}[{k - 1}]", _entry, ring, text, expected_degrees(k), f"{what} #{k}")
        for k, text in enumerate(entries, start=1)
    ]


def _entry(ring, text, degree: int, what: str) -> GradedPolynomial:
    """A class-list entry; a wrong degree is a parse error that shows it."""
    poly = _expression(ring, text)
    try:
        return element_of_degree(ring, poly, degree, what)
    except PreconditionError as exc:
        raise ExpressionError(f"{exc}: got {poly}") from None


def _parse_groups(data, path):
    groups = _field(data, path, None)
    if groups is None:
        return None
    if not isinstance(groups, dict):
        raise ExpressionError(f"{path}: expected an object")
    return {
        _degree_key(degree, f"{path}.{degree}"): _nested(f"{path}.{degree}", AbelianGroupDesc.from_json, group)
        for degree, group in groups.items()
    }


def descriptor_from_json(data: dict) -> BundleDescriptor:
    n = _integer(_field(data, "n"), "n")
    l = _integer(_field(data, "l"), "l")
    ring_y, ring_m = (_nested(key, RingPresentation.from_json, _field(data, key)) for key in ("ringY", "ringM"))
    _field(data, "classes")
    check_n_l(n, l)
    pi_star = _nested("pi_star", RingMorphism, ring_m, ring_y, _expressions(data, "pi_star"))
    a = _class(ring_y, data, "classes.a", 2)
    c = _parse_classes(ring_y, data, "classes.c", lambda k: 2 * k, "c_k(E)")
    frac = _parse_classes(ring_m, data, "classes.frac", lambda k: 2 * k, "fractional class")
    loop = None
    if _field(data, "loop", None) is not None:
        ring_ly, ring_lm = (
            _nested(key, RingPresentation.from_json, _field(data, key)) for key in ("loop.ringLY", "loop.ringLM")
        )
        lo_pi = _nested("loop.pi_star", RingMorphism, ring_lm, ring_ly, _expressions(data, "loop.pi_star"))
        la = _class(ring_ly, data, "loop.classes.a", 2)
        afrak = _class(ring_ly, data, "loop.classes.afrak", 1)
        z = _parse_classes(ring_ly, data, "loop.classes.z", lambda k: 2 * k - 1, "z_k(LE)")
        lc = _parse_classes(ring_ly, data, "loop.classes.c", lambda k: 2 * k, "c_k(LE)")
        zfrac = _parse_classes(ring_lm, data, "loop.classes.zfrac", lambda k: 2 * k - 1, "loop fractional z")
        lfrac = _parse_classes(ring_lm, data, "loop.classes.frac", lambda k: 2 * k, "loop fractional c")
        nu_y = nu_m = None
        if _field(data, "loop.nuY", None) is not None:
            nu_y = _nested("loop.nuY", DerivationTable, ring_y, ring_ly, _expressions(data, "loop.nuY"))
        if _field(data, "loop.nuM", None) is not None:
            nu_m = _nested("loop.nuM", DerivationTable, ring_m, ring_lm, _expressions(data, "loop.nuM"))
        loop = LoopData(
            ring_ly,
            ring_lm,
            lo_pi,
            la,
            afrak,
            z,
            lc,
            zfrac,
            lfrac,
            nu_y,
            nu_m,
            _side_conditions(ring_ly, data, "loop.side_conditions.Y"),
            _side_conditions(ring_lm, data, "loop.side_conditions.M"),
        )
    return BundleDescriptor(
        n,
        l,
        ring_y,
        ring_m,
        pi_star,
        a,
        c,
        frac,
        loop,
        _parse_groups(data, "cohomology.hM"),
        _parse_groups(data, "cohomology.hLM"),
    )


def _json_int_literal(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise ExpressionError(f"integer literal of {len(text)} characters is too long") from None


def load_descriptor(path_or_file) -> BundleDescriptor:
    """Read a descriptor from a path or an open text file.  A file that
    cannot be opened, is not UTF-8 or is not JSON is an ExpressionError."""
    try:
        if hasattr(path_or_file, "read"):
            data = json.load(path_or_file, parse_int=_json_int_literal)
        else:
            with open(path_or_file, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_int=_json_int_literal)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ExpressionError(str(exc)) from None
    return descriptor_from_json(data)


# ---------------------------------------------------------------------------
# obstruction pairs, lift consequences, transgression of obstructions
# ---------------------------------------------------------------------------


@dataclass
class ObstructionPair:
    level: str
    upstairs: GradedPolynomial
    downstairs: GradedPolynomial
    vanishes: bool
    compatible: bool
    note: str = ""

    def render(self) -> str:
        lines = [
            f"obstruction {self.level}:",
            f"  upstairs   = {self.upstairs}",
            f"  downstairs = {self.downstairs}",
            f"  vanishes: {'yes' if self.vanishes else 'no'}",
            f"  pullback compatibility: {'ok' if self.compatible else 'MISMATCH'}",
        ]
        if self.note:
            lines.append(f"  note: {self.note}")
        return "\n".join(lines)

    def __str__(self):
        return self.render()


@dataclass
class IdentityCheck:
    description: str
    lhs: GradedPolynomial
    rhs: GradedPolynomial

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def __str__(self):
        verdict = "ok" if self.ok else f"FAILED ({self.lhs} != {self.rhs})"
        return f"{self.description}: {verdict}"


def _level(level: str, d: BundleDescriptor):
    """(upstairs class, downstairs class, pullback along pi, pi* of the
    downstairs class in upstairs classes, identities a lift forces) of a
    level; the fourth follows exactly from the root-shift formulas, with no
    side conditions."""
    s, n, l = d.s, d.n, d.l
    if level in ("fracSU", "fracU6"):
        c1 = IdentityCheck("c1(E) = s*a", d.chern(1), d.a * s)
        if level == "fracSU":
            up = c1.lhs - c1.rhs
            return up, d.fractional(1), d.pi_star, up, [c1]
        twist = d.a * d.a * _c2_twist(n, l)
        c2 = IdentityCheck("c2(E) = s(n-1)/(2l)*a^2", d.chern(2), twist)
        expected = c2.lhs - d.a * c1.lhs * Fraction(n - 1, l) + twist
        return c2.lhs - twist, d.fractional(2), d.pi_star, expected, [c1, c2]
    lo = d.require_loop()
    z1 = IdentityCheck("z1(LE) = s*af", lo.z_class(1), lo.afrak * s)
    if level == "loopU":
        up = z1.lhs - z1.rhs
        return up, lo.zfrac_class(1), lo.pi_star, up, [z1]
    c1 = IdentityCheck("c1(LE) = s*a", lo.c_class(1), lo.a * s)
    z2 = IdentityCheck("z2(LE) = -(s/l)*af*a", lo.z_class(2), -lo.afrak * lo.a * Fraction(s, l))
    up = z2.lhs + z1.lhs * c1.lhs * Fraction(1, n)
    expected = z2.lhs + (lo.afrak * c1.lhs + z1.lhs * lo.a) * Fraction(1, l) + z2.rhs
    return up, lo.zfrac_class(2), lo.pi_star, expected, [z1, c1, z2]


def obstruction(level: str, d: BundleDescriptor) -> ObstructionPair:
    """The obstruction pair of the level, with its pullback compatibility:

      fracSU: (c1(E) - s*a,                 c1^{l,a}(E))
      fracU6: (c2(E) - s(n-1)/(2l)*a^2,     c2^{l,a}(E))    [needs fracSU]
      loopU:  (z1(LE) - s*af,               z1^{l,a}(LE))
      loopSU: (z2(LE) + 1/n*z1(LE)c1(LE),   z2^{l,a}(LE))   [needs fracSU]
    """
    if level not in LEVELS:
        raise PreconditionError(f"unknown level {level!r}")
    check_n_l(d.n, d.l, require_higher=True)
    if level in ("fracU6", "loopSU") and not obstruction("fracSU", d).vanishes:
        raise PreconditionError(
            f"{level} requires a fractional SU structure (fracSU obstruction is nonzero)"
        )
    if level == "loopSU":
        lo = d.require_loop()
        if lo.c_class(1) != lo.a * d.s or lo.z_class(1) != lo.afrak * d.s:
            raise PreconditionError(
                "loopSU side conditions c1(LE) = s*a, z1(LE) = s*af do not hold"
            )
    up, down, pi, expected, _ = _level(level, d)
    compatible = pi(down) == expected
    vanishes = up.is_zero and down.is_zero
    note = ""
    if vanishes and level in ("loopU", "loopSU"):
        note = (
            "lifting this loop structure to its non-loop counterpart is "
            "undecidable at ring level"
        )
    return ObstructionPair(level, up, down, vanishes, compatible, note)


def lift_consequences(level: str, d: BundleDescriptor) -> list:
    """Class identities forced by the existence of the level's lift."""
    if not obstruction(level, d).vanishes:
        raise PreconditionError(f"{level} obstruction does not vanish; no lift exists")
    return _level(level, d)[4]


@dataclass
class TransgressionReport:
    level: str
    upstairs_transgressed: GradedPolynomial
    upstairs_loop: GradedPolynomial
    downstairs_transgressed: GradedPolynomial
    downstairs_loop: GradedPolynomial
    upstairs_equal: bool
    downstairs_equal: bool

    @property
    def ok(self) -> bool:
        return self.upstairs_equal and self.downstairs_equal

    def render(self) -> str:
        mark = lambda b: "==" if b else "!="
        return "\n".join(
            [
                f"transgression {self.level}:",
                f"  nu(upstairs)   = {self.upstairs_transgressed} "
                f"{mark(self.upstairs_equal)} {self.upstairs_loop}",
                f"  nu(downstairs) = {self.downstairs_transgressed} "
                f"{mark(self.downstairs_equal)} {self.downstairs_loop}",
            ]
        )

    def __str__(self):
        return self.render()


def transgress_obstruction(level: str, d: BundleDescriptor) -> TransgressionReport:
    """Transgress a non-loop obstruction pair and compare with the loop pair.

    level is "fracSU->loopU" or "fracU6->loopSU"; the second comparison is
    taken after imposing the descriptor's side conditions (c1 = s*a and
    z1 = s*af upstairs, vanishing of the level-1 fractional classes
    downstairs), which is where the identity lives.
    """
    lo = d.require_loop()
    if lo.nu_y is None or lo.nu_m is None:
        raise PreconditionError("descriptor loop data carries no transgression tables")
    if level not in ("fracSU->loopU", "fracU6->loopSU"):
        raise PreconditionError(f"unknown transgression level {level!r}")
    base, loop_level = level.split("->")
    up, down, *_ = _level(base, d)
    loop_up, loop_down, *_ = _level(loop_level, d)
    nu_up = free_suspend(lo.nu_y, up)
    nu_down = free_suspend(lo.nu_m, down)
    subs_y = RingMorphism.substitution(lo.ring_ly, lo.side_conditions_y)
    subs_m = RingMorphism.substitution(lo.ring_lm, lo.side_conditions_m)
    up_equal = subs_y(nu_up) == subs_y(loop_up)
    down_equal = subs_m(nu_down) == subs_m(loop_down)
    return TransgressionReport(level, nu_up, loop_up, nu_down, loop_down, up_equal, down_equal)


__all__ = [
    "LEVELS",
    "MORPHISM_NAMES",
    "SPACE_NAMES",
    "space_ring",
    "phi_pullback",
    "phi2_pullback",
    "xi2_pullback",
    "lphi2_z2",
    "MorphismTable",
    "builtin_morphism",
    "AbelianGroupDesc",
    "count_structures",
    "BundleDescriptor",
    "LoopData",
    "descriptor_from_json",
    "load_descriptor",
    "ObstructionPair",
    "obstruction",
    "IdentityCheck",
    "lift_consequences",
    "TransgressionReport",
    "transgress_obstruction",
]
