"""Acceptance sweeps: every criterion the engine must satisfy, runnable
from the CLI (``fracchern verify``) and mirrored by tests/test_acceptance.py.

All checks are exact (rational arithmetic), so there are no tolerances:
a criterion either holds identically or fails.  A sweep stops at its
first failing check; a cross-check that raises VerificationError fails
its own criterion with the error text, and the other criteria still run.
A q_order below 1/2 is refused before any sweep runs.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import qtheta, symroots, towers, transgression
from .errors import EngineError, PreconditionError, VerificationError
from .gcring import RingPresentation
from .spaces import space_ring, working_cap
from .symroots import RootModel
from .towers import BundleDescriptor, load_descriptor

FIXTURE_NAMES = ("symbolic_n4l2.json", "su_n4l2.json", "u6_n4l2.json")


def load_fixture(name: str) -> BundleDescriptor:
    path = resources.files("fracchern").joinpath("fixtures").joinpath(name)
    with path.open("r", encoding="utf-8") as fh:
        return load_descriptor(fh)


def _cases(max_n: int, higher: bool = False):
    """(n, l, n/l) for n <= max_n and l | n, l > 1 if ``higher``, by n then l."""
    for n in range(1, max_n + 1):
        for l in range(2 if higher else 1, n + 1):
            if n % l == 0:
                yield n, l, n // l


@dataclass
class CriterionResult:
    number: int
    description: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] criterion {self.number}: {self.description} ({self.detail}, {self.seconds:.2f}s)"


def _sweep(noun: str):
    """Make a sweep returning (ok, detail) from a generator yielding one
    (holds, message) pair per check.  The sweep stops at the first check
    that fails, with its message as the detail; a VerificationError fails
    it with the error text; otherwise the detail is "<count> <noun>"."""

    def wrap(checks):
        @functools.wraps(checks)
        def sweep(*args):
            count = 0
            try:
                for holds, message in checks(*args):
                    if not holds:
                        return False, message
                    count += 1
            except VerificationError as exc:
                return False, str(exc)
            return True, f"{count} {noun}"

        return sweep

    return wrap


@_sweep("identities")
def closed_vs_brute(max_n: int = 8):
    """Closed-form fractional Chern classes equal the expanded product."""
    for n, l, _ in _cases(max_n):
        model = RootModel(n, l, degree_cap=2 * n)
        for k in range(n + 1):
            closed = symroots.fractional_chern_closed(model, k)
            yield closed == symroots.fractional_chern_brute(model, k), f"mismatch at n={n}, l={l}, k={k}"


@_sweep("identities")
def low_specializations(max_n: int = 8):
    """k=1 and k=2 closed forms match their explicit low-degree shapes."""
    for n, l, s in _cases(max_n):
        model = RootModel(n, l, degree_cap=2 * n)
        ring = model.e_ring
        expect1 = ring.gen("e1") - ring.gen("a") * s
        yield symroots.fractional_chern_closed(model, 1) == expect1, f"k=1 mismatch at n={n}, l={l}"
        if n >= 2:
            expect2 = (
                ring.gen("e2")
                - ring.gen("a") * ring.gen("e1") * Fraction(n - 1, l)
                + ring.gen("a") ** 2 * Fraction(s * (n - 1), 2 * l)
            )
            yield symroots.fractional_chern_closed(model, 2) == expect2, f"k=2 mismatch at n={n}, l={l}"


@_sweep("residuals")
def splitting_relation(max_n: int = 6):
    """Every shifted root annihilates the fractional characteristic sum."""
    for n, l, _ in _cases(max_n):
        for residual in symroots.splitting_check(RootModel(n, l, degree_cap=2 * n)).residuals:
            yield residual.is_zero, f"nonzero residual at n={n}, l={l}"


@_sweep("identities")
def tower_composition(max_n: int = 6):
    """Covering substitution of the level-0 pullback equals the level-1
    pullback (and kills the k=1 class), and the k=2 image has its stated
    shape."""
    for n, l, s in _cases(max_n, higher=True):
        bi2l = towers.builtin_morphism("Bi2l", n, l)
        yield bi2l(towers.phi_pullback(n, l, 1)).is_zero, f"k=1 class survives the covering at n={n}, l={l}"
        for k in range(2, n + 1):
            pulled = bi2l(towers.phi_pullback(n, l, k))
            yield pulled == towers.phi2_pullback(n, l, k), f"composition mismatch at n={n}, l={l}, k={k}"
        ring = space_ring("BUn_l", n=n, l=l)
        expect = ring.gen("c2") - ring.gen("cb1") ** 2 * Fraction(s * (n - 1), 2 * l)
        yield towers.phi2_pullback(n, l, 2) == expect, f"k=2 shape mismatch at n={n}, l={l}"


@_sweep("checks")
def transgression_suite(max_n: int = 6):
    """Table values, the comparison-map naturality square, and the covering
    re-derivation of the level-1 loop table."""
    table = transgression.builtin_table("BUn", n=2)
    c1 = table.source.gen("c1")
    c2 = table.source.gen("c2")
    tgt = table.target
    yield transgression.free_suspend(table, c1 * c1) == tgt.poly("2*z1*c1"), "nu(c1^2) mismatch"
    yield transgression.free_suspend(table, c2) == tgt.poly("z2 + z1*c1"), "nu(c2) mismatch"

    report = transgression.naturality_check(
        towers.builtin_morphism("Br", 2, 1).morphism,
        towers.builtin_morphism("BLr", 2, 1).morphism,
        transgression.builtin_table("BSpinc"),
        table,
    )
    yield report.ok, "comparison-map naturality square failed"

    for n, l, _ in _cases(max_n, higher=True):
        blrho = towers.builtin_morphism("BLrho_s", n, l).morphism
        nu_n = transgression.builtin_table("BUn", n=n)
        nu_l = transgression.builtin_table("BUn_l", n=n, l=l)
        report = transgression.naturality_check(
            towers.builtin_morphism("Brho_s", n, l).morphism, blrho, nu_n, nu_l
        )
        yield report.ok, f"covering naturality failed at n={n}, l={l}"
        derived = blrho(transgression.free_suspend(nu_n, nu_n.source.gen("c2")))
        expect = transgression.free_suspend(nu_l, nu_l.source.gen("c2"))
        yield derived == expect, f"nu(c2) re-derivation failed at n={n}, l={l}"


@_sweep("identities (each internally cross-checked)")
def loop_tower(max_n: int = 6):
    """Level-1 and level-2 loop pullbacks via both their routes."""
    for n, l, s in _cases(max_n, higher=True):
        # xi2_pullback internally re-derives z2Q through the
        # transgression pipeline and raises on disagreement
        ring = space_ring("BLUbar_n_l", n=n, l=l)
        z2q = towers.xi2_pullback(n, l, "z2Q")
        yield z2q == ring.poly(f"z2 + 1/{l}*zb1*c1"), f"xi2 z2Q shape mismatch at n={n}, l={l}"
        c1q = towers.xi2_pullback(n, l, "c1Q")
        yield c1q == ring.poly(f"c1 - {s}*g"), f"xi2 c1Q shape mismatch at n={n}, l={l}"
        # lphi2_z2 internally cross-checks the suspension route and
        # the factorization route
        expect = space_ring("BLUn_l", n=n, l=l).poly(f"z2 + {Fraction(s, l)}*zb1*cb1")
        yield towers.lphi2_z2(n, l) == expect, f"Lphi2 z2Q shape mismatch at n={n}, l={l}"
        # full generator-table factorization of the looped covering
        composite = towers.builtin_morphism("Biota2l", n, l).morphism.then(
            towers.builtin_morphism("BhatLi2l", n, l).morphism
        )
        factors = composite.images == towers.builtin_morphism("BLi2l", n, l).images
        yield factors, f"loop-square factorization failed at n={n}, l={l}"


@_sweep("pairs")
def obstruction_transgression():
    """nu maps each non-loop obstruction pair to its loop pair."""
    for name in FIXTURE_NAMES:
        d = load_fixture(name)
        for level in ("fracSU->loopU", "fracU6->loopSU"):
            yield towers.transgress_obstruction(level, d).ok, f"{name}: {level} failed"


@_sweep("lookups")
def counting():
    """count_structures returns the designated cohomology group."""
    expected = {
        "symbolic_n4l2.json": {"fracSU": "Z^2", "fracU6": "Z", "loopU": "Z", "loopSU": "Z + Z/2"},
        "su_n4l2.json": {"fracSU": "0", "fracU6": "Z/3", "loopU": "Z", "loopSU": "Z/4"},
        "u6_n4l2.json": {"fracSU": "0", "fracU6": "0", "loopU": "0", "loopSU": "0"},
    }
    for name, groups in expected.items():
        d = load_fixture(name)
        for level, want in groups.items():
            got = towers.count_structures(level, d.cohomology_m, d.cohomology_lm).render()
            yield got == want, f"{name}: {level} gave {got}, expected {want}"


@_sweep("checks")
def q_series(max_n: int = 3, q_order: int = 4):
    """Witten character expansions agree by both methods, the theta product
    multiplied out at shift 0 is the triple-product sum to order 8, and
    every character descends.

    The methods are compared over the fractional classes: the descent P of
    the theta route's series must be the lambda route's series L before its
    map back to the roots, and normalizing commutes with the descent,
    normalize(L) == descend(normalize(theta)).  The back map is injective,
    so this is the comparison over the roots."""
    scalar = RingPresentation([], 0)
    for kind, sign in ((qtheta.WittenKind.THETA3, 1), (qtheta.WittenKind.THETA2, -1)):
        series = qtheta._theta_product_form(kind, scalar.zero(), 8)
        expect = {}
        m = 0
        while Fraction(m * m, 2) <= 8:
            expect[Fraction(m * m, 2)] = Fraction((sign ** m) * (1 if m == 0 else 2))
            m += 1
        got = {e: p.constant_term() for e, p in series.coefficients.items()}
        yield got == {e: c for e, c in expect.items() if c}, f"triple product failed for {kind.value}"
    top = qtheta._q_top(q_order)
    for n, l, _ in _cases(max_n):
        model = RootModel(n, l, degree_cap=working_cap(n, 8))
        for kind in qtheta.WittenKind:
            where = f"n={n}, l={l}, {kind.value}"
            series = qtheta.gch_witten(model, kind, q_order, "theta_product")
            try:
                descended = qtheta.descend_gch(series, model)
                normalized = qtheta.descend_gch(qtheta.normalize_gch(series, kind, n, q_order), model)
            except EngineError as exc:
                yield False, f"descent failed at {where}: {exc}"
            else:
                lam = qtheta._lambda_series(model, kind, top)
                same = descended == lam and normalized == qtheta.normalize_gch(lam, kind, n, q_order)
                yield same, f"theta_product and lambda_tensor expansions disagree at {where}"
                yield True, f"descends at {where}"


@_sweep("fixtures")
def modularity():
    """The degree-4 obstruction class has its stated shape and vanishes on
    the fully lifted fixture."""
    sym = load_fixture("symbolic_n4l2.json")
    got = qtheta.modularity_obstruction(sym)
    yield got == sym.ring_m.poly("1/2*f1^2 - f2"), f"symbolic obstruction is {got}"
    su = load_fixture("su_n4l2.json")
    yield qtheta.modularity_obstruction(su) == su.ring_m.poly("-f2"), "level-1 fixture obstruction mismatch"
    u6 = load_fixture("u6_n4l2.json")
    yield qtheta.modularity_obstruction(u6).is_zero, "fully lifted fixture has nonzero obstruction"


CRITERIA = (
    (1, "closed-form vs brute-force fractional Chern classes", closed_vs_brute, "max_n"),
    (2, "k=1 and k=2 specializations", low_specializations, "max_n"),
    (3, "splitting relation residuals", splitting_relation, "loop_n"),
    (4, "tower composition and k=2 image", tower_composition, "loop_n"),
    (5, "transgression suite", transgression_suite, "loop_n"),
    (6, "loop tower pullbacks via both routes", loop_tower, "loop_n"),
    (7, "obstruction pairs transgress to loop pairs", obstruction_transgression, None),
    (8, "structure counting groups", counting, None),
    (9, "q-series characters and descent", q_series, "q"),
    (10, "modularity obstruction", modularity, None),
)


def run_all(max_n: int = 8, q_order: int = 4):
    # below n = 2 the tower and loop sweeps (criteria 4 and 6) check nothing
    if max_n < 2:
        raise PreconditionError(f"max_n must be at least 2, got {max_n}")
    qtheta._q_top(q_order)
    args = {"max_n": (max_n,), "loop_n": (min(max_n, 6),), "q": (min(max_n, 3), q_order), None: ()}
    results = []
    for number, description, fn, mode in CRITERIA:
        start = time.time()
        ok, detail = fn(*args[mode])
        results.append(CriterionResult(number, description, ok, detail, time.time() - start))
    return results
