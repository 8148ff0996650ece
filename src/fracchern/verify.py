"""Acceptance sweeps: every criterion the engine must satisfy, runnable
from the CLI (``fracchern verify``) and mirrored by tests/test_acceptance.py.

All checks are exact (rational arithmetic), so there are no tolerances:
a criterion either holds identically or fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import qtheta, symroots, towers, transgression
from .errors import EngineError, PreconditionError
from .gcring import RingPresentation
from .spaces import space_ring, working_cap
from .symroots import RootModel
from .towers import BundleDescriptor, load_descriptor

FIXTURE_NAMES = ("symbolic_n4l2.json", "su_n4l2.json", "u6_n4l2.json")


def load_fixture(name: str) -> BundleDescriptor:
    path = resources.files("fracchern").joinpath("fixtures").joinpath(name)
    with path.open("r", encoding="utf-8") as fh:
        return load_descriptor(fh)


def _divisors(n: int):
    return [l for l in range(1, n + 1) if n % l == 0]


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


def closed_vs_brute(max_n: int = 8):
    """Closed-form fractional Chern classes equal the expanded product."""
    checks = 0
    for n in range(1, max_n + 1):
        for l in _divisors(n):
            model = RootModel(n, l, degree_cap=2 * n)
            for k in range(n + 1):
                if symroots.fractional_chern_closed(model, k) != symroots.fractional_chern_brute(model, k):
                    return False, f"mismatch at n={n}, l={l}, k={k}"
                checks += 1
    return True, f"{checks} identities"


def low_specializations(max_n: int = 8):
    """k=1 and k=2 closed forms match their explicit low-degree shapes."""
    checks = 0
    for n in range(1, max_n + 1):
        for l in _divisors(n):
            model = RootModel(n, l, degree_cap=2 * n)
            s = n // l
            ring = model.e_ring
            expect1 = ring.gen("e1") - ring.gen("a") * s
            if symroots.fractional_chern_closed(model, 1) != expect1:
                return False, f"k=1 mismatch at n={n}, l={l}"
            checks += 1
            if n >= 2:
                expect2 = (
                    ring.gen("e2")
                    - ring.gen("a") * ring.gen("e1") * Fraction(n - 1, l)
                    + ring.gen("a") ** 2 * Fraction(s * (n - 1), 2 * l)
                )
                if symroots.fractional_chern_closed(model, 2) != expect2:
                    return False, f"k=2 mismatch at n={n}, l={l}"
                checks += 1
    return True, f"{checks} identities"


def splitting_relation(max_n: int = 6):
    """Every shifted root annihilates the fractional characteristic sum."""
    checks = 0
    for n in range(1, max_n + 1):
        for l in _divisors(n):
            report = symroots.splitting_check(RootModel(n, l, degree_cap=2 * n))
            if not report.ok:
                return False, f"nonzero residual at n={n}, l={l}"
            checks += len(report.residuals)
    return True, f"{checks} residuals"


def tower_composition(max_n: int = 6):
    """Covering substitution of the level-0 pullback equals the level-1
    pullback (and kills the k=1 class), and the k=2 image has its stated
    shape."""
    checks = 0
    for n in range(2, max_n + 1):
        for l in [d for d in _divisors(n) if d > 1]:
            s = n // l
            bi2l = towers.builtin_morphism("Bi2l", n, l)
            if not bi2l(towers.phi_pullback(n, l, 1)).is_zero:
                return False, f"k=1 class survives the covering at n={n}, l={l}"
            checks += 1
            for k in range(2, n + 1):
                if bi2l(towers.phi_pullback(n, l, k)) != towers.phi2_pullback(n, l, k):
                    return False, f"composition mismatch at n={n}, l={l}, k={k}"
                checks += 1
            ring = space_ring("BUn_l", n=n, l=l, degree_cap=working_cap(n))
            expect = ring.gen("c2") - ring.gen("cb1") ** 2 * Fraction(s * (n - 1), 2 * l)
            if towers.phi2_pullback(n, l, 2) != expect:
                return False, f"k=2 shape mismatch at n={n}, l={l}"
            checks += 1
    return True, f"{checks} identities"


def transgression_suite(max_n: int = 6):
    """Table values, the comparison-map naturality square, and the covering
    re-derivation of the level-1 loop table."""
    table = transgression.builtin_table("BUn", n=2)
    c1 = table.source.gen("c1")
    c2 = table.source.gen("c2")
    tgt = table.target
    if transgression.free_suspend(table, c1 * c1) != tgt.poly("2*z1*c1"):
        return False, "nu(c1^2) mismatch"
    if transgression.free_suspend(table, c2) != tgt.poly("z2 + z1*c1"):
        return False, "nu(c2) mismatch"
    checks = 2

    report = transgression.naturality_check(
        towers.builtin_morphism("Br", 2, 1).morphism,
        towers.builtin_morphism("BLr", 2, 1).morphism,
        transgression.builtin_table("BSpinc"),
        table,
    )
    if not report.ok:
        return False, "comparison-map naturality square failed"
    checks += 1

    for n in range(2, max_n + 1):
        for l in [d for d in _divisors(n) if d > 1]:
            cap = working_cap(n)
            blrho = towers.builtin_morphism("BLrho_s", n, l, cap).morphism
            nu_n = transgression.builtin_table("BUn", n=n, degree_cap=cap)
            nu_l = transgression.builtin_table("BUn_l", n=n, l=l, degree_cap=cap)
            report = transgression.naturality_check(
                towers.builtin_morphism("Brho_s", n, l, cap).morphism, blrho, nu_n, nu_l
            )
            if not report.ok:
                return False, f"covering naturality failed at n={n}, l={l}"
            derived = blrho(transgression.free_suspend(nu_n, nu_n.source.gen("c2")))
            if derived != transgression.free_suspend(nu_l, nu_l.source.gen("c2")):
                return False, f"nu(c2) re-derivation failed at n={n}, l={l}"
            checks += 2
    return True, f"{checks} checks"


def loop_tower(max_n: int = 6):
    """Level-1 and level-2 loop pullbacks via both their routes."""
    checks = 0
    for n in range(2, max_n + 1):
        for l in [d for d in _divisors(n) if d > 1]:
            s = n // l
            # xi2_pullback internally re-derives z2Q through the
            # transgression pipeline and raises on disagreement
            ring = space_ring("BLUbar_n_l", n=n, l=l)
            value = towers.xi2_pullback(n, l, "z2Q")
            if value != ring.poly(f"z2 + 1/{l}*zb1*c1"):
                return False, f"xi2 z2Q shape mismatch at n={n}, l={l}"
            if towers.xi2_pullback(n, l, "c1Q") != ring.poly(f"c1 - {s}*g"):
                return False, f"xi2 c1Q shape mismatch at n={n}, l={l}"
            # lphi2_z2 internally cross-checks the suspension route and
            # the factorization route
            ring_l = space_ring("BLUn_l", n=n, l=l)
            if towers.lphi2_z2(n, l) != ring_l.poly(f"z2 + {Fraction(s, l)}*zb1*cb1"):
                return False, f"Lphi2 z2Q shape mismatch at n={n}, l={l}"
            # full generator-table factorization of the looped covering
            composite = towers.builtin_morphism("Biota2l", n, l).morphism.then(
                towers.builtin_morphism("BhatLi2l", n, l).morphism
            )
            if composite.images != towers.builtin_morphism("BLi2l", n, l).images:
                return False, f"loop-square factorization failed at n={n}, l={l}"
            checks += 4
    return True, f"{checks} identities (each internally cross-checked)"


def obstruction_transgression():
    """nu maps each non-loop obstruction pair to its loop pair."""
    checks = 0
    for name in FIXTURE_NAMES:
        d = load_fixture(name)
        for level in ("fracSU->loopU", "fracU6->loopSU"):
            report = towers.transgress_obstruction(level, d)
            if not report.ok:
                return False, f"{name}: {level} failed"
            checks += 1
    return True, f"{checks} pairs"


def counting():
    """count_structures returns the designated cohomology group."""
    expected = {
        "symbolic_n4l2.json": {"fracSU": "Z^2", "fracU6": "Z", "loopU": "Z", "loopSU": "Z + Z/2"},
        "su_n4l2.json": {"fracSU": "0", "fracU6": "Z/3", "loopU": "Z", "loopSU": "Z/4"},
        "u6_n4l2.json": {"fracSU": "0", "fracU6": "0", "loopU": "0", "loopSU": "0"},
    }
    checks = 0
    for name, groups in expected.items():
        d = load_fixture(name)
        for level, want in groups.items():
            got = towers.count_structures(level, d.cohomology_m, d.cohomology_lm).render()
            if got != want:
                return False, f"{name}: {level} gave {got}, expected {want}"
            checks += 1
    return True, f"{checks} lookups"


def q_series(max_n: int = 3, q_order: int = 4):
    """Witten character expansions agree by both methods, triple-product
    identities hold to order 8, and every character descends."""
    checks = 0
    scalar = RingPresentation([], 0)
    for kind, sign in ((qtheta.WittenKind.THETA3, 1), (qtheta.WittenKind.THETA2, -1)):
        series = qtheta.theta_series(kind, scalar.zero(), 8)
        expect = {}
        m = 0
        while Fraction(m * m, 2) <= 8:
            expect[Fraction(m * m, 2)] = Fraction((sign ** m) * (1 if m == 0 else 2))
            m += 1
        got = {e: p.constant_term() for e, p in series.coefficients.items()}
        if got != {e: c for e, c in expect.items() if c}:
            return False, f"triple product failed for {kind.value}"
        checks += 1
    for n in range(1, max_n + 1):
        for l in _divisors(n):
            model = RootModel(n, l, degree_cap=working_cap(n, 8))
            for kind in qtheta.WittenKind:
                series = qtheta.gch_witten(model, kind, q_order, method="both")
                try:
                    qtheta.descend_gch(series, model)
                except EngineError as exc:
                    return False, f"descent failed at n={n}, l={l}, {kind.value}: {exc}"
                checks += 2
    return True, f"{checks} checks"


def modularity():
    """The degree-4 obstruction class has its stated shape and vanishes on
    the fully lifted fixture."""
    sym = load_fixture("symbolic_n4l2.json")
    got = qtheta.modularity_obstruction(sym)
    if got != sym.ring_m.poly("1/2*f1^2 - f2"):
        return False, f"symbolic obstruction is {got}"
    su = load_fixture("su_n4l2.json")
    if qtheta.modularity_obstruction(su) != su.ring_m.poly("-f2"):
        return False, "level-1 fixture obstruction mismatch"
    u6 = load_fixture("u6_n4l2.json")
    if not qtheta.modularity_obstruction(u6).is_zero:
        return False, "fully lifted fixture has nonzero obstruction"
    return True, "3 fixtures"


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
    args = {"max_n": (max_n,), "loop_n": (min(max_n, 6),), "q": (min(max_n, 3), q_order), None: ()}
    results = []
    for number, description, fn, mode in CRITERIA:
        start = time.time()
        ok, detail = fn(*args[mode])
        results.append(CriterionResult(number, description, ok, detail, time.time() - start))
    return results
