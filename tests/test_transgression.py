import pytest

from fracchern import transgression as tg
from fracchern.errors import PreconditionError
from fracchern.gcring import RingMorphism, RingPresentation, transplant
from fracchern.spaces import space_ring


def test_builtin_table_values():
    bun = tg.builtin_table("BUn", n=3)
    assert bun.values["c2"].render() == "z2 + z1*c1"
    assert tg.builtin_table("BU1").values["g"] == space_ring("BLU1").gen("h")
    spin = tg.builtin_table("BSpinc")
    assert spin.values["q1"].render() == "mu - sp1*t"
    unl = tg.builtin_table("BUn_l", n=6, l=2)
    assert unl.values["c2"].render() == "z2 + 9*zb1*cb1"
    # c2 has no value where the source ring stops at c1
    assert set(tg.builtin_table("BUn", n=1).values) == {"c1"}
    assert set(tg.builtin_table("BU1xBUn", n=1).values) == {"g", "c1"}
    with pytest.raises(PreconditionError, match="no builtin transgression table for 'BTorus'"):
        tg.builtin_table("BTorus")


def test_free_suspend_examples():
    tab = tg.builtin_table("BUn", n=2)
    c1, c2 = tab.source.gen("c1"), tab.source.gen("c2")
    tgt = tab.target
    assert tg.free_suspend(tab, c1 * c1) == tgt.poly("2*z1*c1")
    assert tg.free_suspend(tab, tab.source.one()) == tgt.zero()
    assert tg.free_suspend(tab, c1 * c2) == tgt.poly("z1*c2 + z2*c1 + z1*c1^2")
    assert tg.free_suspend(tab, tab.source.constant(5)) == tgt.zero()


def test_free_suspend_rejects_odd_argument():
    src = RingPresentation([("u", 1), ("c1", 2)], 8)
    tgt = RingPresentation([("u", 1), ("z1", 1), ("c1", 2)], 8)
    tab = tg.DerivationTable(src, tgt, {"c1": "z1"})
    with pytest.raises(PreconditionError):
        tg.free_suspend(tab, src.gen("u") * src.gen("c1"))


def test_free_suspend_rejects_unvalued_generator():
    tab = tg.builtin_table("BUn", n=3)
    with pytest.raises(PreconditionError):
        tg.free_suspend(tab, tab.source.gen("c3"))


def test_free_suspend_refuses_a_namesake_of_another_degree():
    """The target's c1 has degree 4, not 2: the cofactor c1 of nu(c1^2) has
    no namesake there, rather than landing as 2*z1*c1 of degree 5."""
    src = RingPresentation([("c1", 2), ("c2", 4)], 8)
    tgt = RingPresentation([("z1", 1), ("c1", 4), ("z2", 3)], 8)
    tab = tg.DerivationTable(src, tgt, {"c1": "z1", "c2": "z2"})
    with pytest.raises(PreconditionError, match="^generator c1 has no namesake in the target ring$"):
        tg.free_suspend(tab, src.gen("c1") ** 2)
    # a lone generator has no cofactor to carry
    assert tg.free_suspend(tab, src.poly("c1 + 2*c2")) == tgt.poly("z1 + 2*z2")


def test_free_suspend_raises_the_first_fault_in_render_order():
    """c1^2 comes first in render order and its cofactor c1 has no namesake
    in the target; the later c3 has no value.  The namesake error wins."""
    src = RingPresentation([("c1", 2), ("c2", 4), ("c3", 6)], 12)
    tgt = RingPresentation([("z1", 1), ("z2", 3), ("c2", 4)], 12)
    tab = tg.DerivationTable(src, tgt, {"c1": "z1", "c2": "z2"})
    with pytest.raises(PreconditionError, match="^no transgression value for generator c3$"):
        tg.free_suspend(tab, src.gen("c3"))
    with pytest.raises(PreconditionError, match="^generator c1 has no namesake in the target ring$"):
        tg.free_suspend(tab, src.poly("c3 + c1^2"))


def test_table_validation():
    src = RingPresentation([("c1", 2)], 8)
    tgt = RingPresentation([("z1", 1), ("c1", 2)], 8)
    with pytest.raises(PreconditionError):
        tg.DerivationTable(src, tgt, {"c1": "c1"})  # wrong degree
    with pytest.raises(PreconditionError):
        tg.DerivationTable(src, tgt, {"missing": "z1"})


def test_leibniz_random(rng):
    tab = tg.builtin_table("BUn", n=2, degree_cap=16)
    src, tgt = tab.source, tab.target
    gens = [src.gen("c1"), src.gen("c2")]
    for _ in range(25):
        p = src.one()
        q = src.one()
        for _ in range(rng.randint(1, 2)):
            p = p * rng.choice(gens)
        for _ in range(rng.randint(1, 2)):
            q = q * rng.choice(gens)
        lhs = tg.free_suspend(tab, p * q)
        # p, q even, so both Leibniz terms carry sign +1
        rhs = tg.free_suspend(tab, p) * transplant(q, tgt) + tg.free_suspend(
            tab, q
        ) * transplant(p, tgt)
        assert lhs == rhs
        assert tg.free_suspend(tab, p * q) == tg.free_suspend(tab, q * p)


def test_output_always_carries_an_odd_generator(rng):
    # surrogate for nu o nu = 0: no purely even monomial survives
    tab = tg.builtin_table("BUn", n=2, degree_cap=16)
    gens = [tab.source.gen("c1"), tab.source.gen("c2")]
    for _ in range(20):
        p = tab.source.one()
        for _ in range(rng.randint(1, 3)):
            p = p * rng.choice(gens)
        result = tg.free_suspend(tab, p)
        for exps, _ in result.terms():
            assert any(
                e and tab.target.generators[i].is_odd for i, e in enumerate(exps)
            )


def test_spinc_naturality_square():
    br = RingMorphism(space_ring("BSpinc"), space_ring("BUn", n=2), {"t": "c1", "q1": "-c2"})
    blr = RingMorphism(
        space_ring("BLSpinc"), space_ring("BLUn"), {"sp1": "z1", "t": "c1", "mu": "-z2"}
    )
    report = tg.naturality_check(
        br, blr, tg.builtin_table("BSpinc"), tg.builtin_table("BUn", n=2)
    )
    assert report.ok
    assert report.generator_results == {"t": True, "q1": True}
    assert report.samples_checked > 0


def test_identity_is_natural():
    tab = tg.builtin_table("BUn", n=2)
    report = tg.naturality_check(
        RingMorphism.identity(tab.source),
        RingMorphism.identity(tab.target),
        tab,
        tab,
    )
    assert report.ok


@pytest.mark.parametrize("n,l", [(2, 2), (4, 2), (6, 2), (6, 3)])
def test_covering_route_rederives_loop_table(n, l):
    # naturality along the s-fold covering forces nu(c2) = z2 + s^2*zb1*cb1
    s = n // l
    src = space_ring("BUn", n=n)
    tgt = space_ring("BUn_l", n=n, l=l)
    images = {"c1": tgt.gen("cb1") * s}
    images.update({f"c{k}": tgt.gen(f"c{k}") for k in range(2, n + 1)})
    brho = RingMorphism(src, tgt, images)
    blun_l = space_ring("BLUn_l", n=n, l=l)
    blrho = RingMorphism(
        space_ring("BLUn"),
        blun_l,
        {"z1": blun_l.gen("zb1") * s, "c1": blun_l.gen("cb1") * s, "z2": "z2", "c2": "c2"},
    )
    nu_n = tg.builtin_table("BUn", n=n)
    nu_l = tg.builtin_table("BUn_l", n=n, l=l)
    assert tg.naturality_check(brho, blrho, nu_n, nu_l).ok
    derived = blrho(tg.free_suspend(nu_n, src.gen("c2")))
    assert derived == blun_l.poly(f"z2 + {s * s}*zb1*cb1")
    assert derived == tg.free_suspend(nu_l, nu_l.source.gen("c2"))


def test_derivation_table_refuses_a_value_on_an_odd_generator():
    loop = space_ring("BLUn", n=2)
    with pytest.raises(PreconditionError, match="^odd generator z1 cannot carry a transgression value$"):
        tg.DerivationTable(loop, loop, {"z1": "c1"})


def test_naturality_of_tables_without_values():
    """With no values nu is zero, so the square commutes and no monomial
    is sampled."""
    src, tgt = space_ring("BUn", n=2), space_ring("BLUn", n=2)
    table = tg.DerivationTable(src, tgt, {})
    report = tg.naturality_check(RingMorphism.identity(src), RingMorphism.identity(tgt), table, table)
    assert report.ok and report.generator_results == {} and report.samples_checked == 0


def test_naturality_shape_mismatch():
    tab = tg.builtin_table("BUn", n=2)
    wrong = RingMorphism.identity(space_ring("BSpinc"))
    with pytest.raises(PreconditionError):
        tg.naturality_check(wrong, RingMorphism.identity(tab.target), tab, tab)


def test_free_suspend_refuses_a_polynomial_over_another_ring():
    tab = tg.builtin_table("BUn", n=2)
    for p in (tg.builtin_table("BUn", n=3).source.gen("c1"), tab.target.gen("c1")):
        with pytest.raises(PreconditionError, match="^polynomial is not over the table's source ring$"):
            tg.free_suspend(tab, p)


def test_naturality_refuses_incompatible_morphisms():
    tab = tg.builtin_table("BUn", n=2)
    f, Lf = RingMorphism.identity(tab.source), RingMorphism.identity(tab.target)
    spin = RingMorphism.identity(space_ring("BSpinc"))
    for bad_f in (spin, RingMorphism(tab.source, space_ring("BSpinc"), {"c1": "t", "c2": "q1"})):
        with pytest.raises(PreconditionError, match="^morphism f is not compatible with the tables$"):
            tg.naturality_check(bad_f, Lf, tab, tab)
    for bad_Lf in (spin, RingMorphism.identity(space_ring("BLUn", degree_cap=10))):
        with pytest.raises(PreconditionError, match="^morphism Lf is not compatible with the tables$"):
            tg.naturality_check(f, bad_Lf, tab, tab)


def test_naturality_report_renders_both_failure_lines(monkeypatch):
    src, tgt = tg.builtin_table("BUn", n=2), tg.builtin_table("BUn", n=2)
    f, Lf = RingMorphism.identity(src.source), RingMorphism.identity(src.target)
    assert str(tg.naturality_check(f, Lf, src, tgt, samples=2)) == (
        "naturality: ok\n  c1: ok\n  c2: ok\n  random monomials checked: 2"
    )
    # a fault injected into nu on the target side breaks every square
    real = tg.free_suspend
    monkeypatch.setattr(tg, "free_suspend", lambda table, p: real(table, p) * (2 if table is tgt else 1))
    report = tg.naturality_check(f, Lf, src, tgt, samples=2)
    assert not report.ok and report.generator_results == {"c1": False, "c2": False}
    assert str(report) == "\n".join([
        "naturality: FAILED",
        "  c1: MISMATCH",
        "  c2: MISMATCH",
        "  random monomials checked: 2",
        "  generator c1: 2*z1 != z1",
        "  generator c2: 2*z2 + 2*z1*c1 != z2 + z1*c1",
        "  monomial c1*c2: 2*c1*z2 + 2*z1*c2 + 2*z1*c1^2 != c1*z2 + z1*c2 + z1*c1^2",
        "  monomial c2^2: 4*z2*c2 + 4*z1*c1*c2 != 2*z2*c2 + 2*z1*c1*c2",
    ])
