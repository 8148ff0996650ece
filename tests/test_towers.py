import json
from fractions import Fraction
from importlib import resources

import pytest

from fracchern import towers as tw
from fracchern import transgression as tg
from fracchern.errors import ExpressionError, PreconditionError, VerificationError
from fracchern.gcring import RingMorphism, RingPresentation
from fracchern.spaces import SPACE_NAMES, space_ring
from fracchern.symroots import RootModel, fractional_chern_closed
from fracchern.verify import load_fixture

from conftest import plain_moves_by_terms, random_polynomial


def divisors_gt1(n):
    return [l for l in range(2, n + 1) if n % l == 0]


# -- registry -----------------------------------------------------------------


def test_space_generator_tables():
    assert space_ring("BLUn").names == ("z1", "c1", "z2", "c2")
    assert space_ring("BUn_l", n=4, l=2).names == ("cb1", "c2", "c3", "c4")
    assert space_ring("BLU1").names == ("h", "g")
    assert space_ring("BLUn_l", n=4, l=2).names == ("zb1", "cb1", "z2", "c2")
    assert space_ring("BhatLSUn_l", n=4, l=2).names == ("zb1", "cb1", "c2")
    assert space_ring("BSpinc").names == ("t", "q1")
    assert space_ring("BLSpinc").names == ("sp1", "t", "mu")
    for name in SPACE_NAMES:
        ring = space_ring(name, n=4, l=2)
        assert ring.degree_cap >= max((g.degree for g in ring.generators), default=0)
    with pytest.raises(PreconditionError, match="unknown space 'BNowhere'"):
        space_ring("BNowhere")
    with pytest.raises(PreconditionError):
        space_ring("BUn_l", n=4, l=1)
    # spaces whose generators start above c_n have none
    assert space_ring("BSUnQ", n=1).names == ()
    assert space_ring("BU6nQ", n=1).names == ()
    assert space_ring("BU6nQ", n=2, degree_cap=4) == RingPresentation([], 4)
    assert tw.builtin_morphism("phi3", 2, 2).images == {}


# -- universal pullbacks --------------------------------------------------------


def test_phi_pullback_examples():
    assert tw.phi_pullback(2, 2, 1).render() == "c1 - g"
    assert tw.phi_pullback(4, 2, 0).render() == "1"
    assert tw.phi_pullback(2, 2, 2).render() == "c2 - 1/2*g*c1 + 1/4*g^2"
    for n in (3, 4, 6):
        for l in divisors_gt1(n):
            s = n // l
            ring = tw.phi_pullback(n, l, 1).ring
            assert tw.phi_pullback(n, l, 1) == ring.poly(f"c1 - {s}*g")


def test_phi_matches_root_oracle():
    # same coefficients as the closed form under a -> g, e_k -> c_k
    for n in (2, 3, 4):
        for l in [d for d in range(1, n + 1) if n % d == 0]:
            model = RootModel(n, l, degree_cap=max(12, 2 * n))
            target = tw.phi_pullback(n, l, 0).ring
            rename = RingMorphism(
                model.e_ring,
                target,
                {"a": target.gen("g"), **{f"e{k}": target.gen(f"c{k}") for k in range(1, n + 1)}},
            )
            for k in range(n + 1):
                assert rename(fractional_chern_closed(model, k)) == tw.phi_pullback(n, l, k)


def test_phi2_pullback_examples():
    ring = space_ring("BUn_l", n=4, l=2)
    assert tw.phi2_pullback(4, 2, 2) == ring.poly("c2 - 3/2*cb1^2")
    ring22 = space_ring("BUn_l", n=2, l=2)
    assert tw.phi2_pullback(2, 2, 2) == ring22.poly("c2 - 1/4*cb1^2")
    for n in (2, 3, 4, 5, 6):
        for l in divisors_gt1(n):
            s = n // l
            ring_nl = space_ring("BUn_l", n=n, l=l, degree_cap=max(12, 2 * n))
            coef = Fraction(s * (n - 1), 2 * l)
            assert tw.phi2_pullback(n, l, 2) == ring_nl.poly(f"c2 - {coef}*cb1^2")
    with pytest.raises(PreconditionError):
        tw.phi2_pullback(4, 2, 1)
    with pytest.raises(PreconditionError):
        tw.phi2_pullback(4, 1, 2)


def test_phi2_composition_oracle():
    for n in (2, 3, 4, 6):
        for l in divisors_gt1(n):
            bi2l = tw.builtin_morphism("Bi2l", n, l)
            for k in range(2, n + 1):
                assert bi2l(tw.phi_pullback(n, l, k)) == tw.phi2_pullback(n, l, k)


# -- builtin morphism tables ----------------------------------------------------


def test_builtin_morphism_cited_images():
    bi2l = tw.builtin_morphism("Bi2l", 4, 2)
    assert bi2l.images["c1"].render() == "2*cb1"
    assert bi2l.images["g"].render() == "cb1"
    assert bi2l.images["c3"].render() == "c3"

    biota = tw.builtin_morphism("Biota2l", 6, 3)
    assert biota.images["z1"].render() == "2*zb1"
    assert biota.images["h"].render() == "zb1"
    assert biota.images["g"].render() == "g"

    bhat = tw.builtin_morphism("BhatLi2l", 4, 2)
    assert bhat.images["g"].render() == "cb1"
    assert bhat.images["c1"].render() == "2*cb1"
    assert bhat.images["zb1"].render() == "zb1"

    br = tw.builtin_morphism("Br", 4, 1)
    assert br.images["t"].render() == "c1"
    assert br.images["q1"].render() == "-c2"

    bi3l = tw.builtin_morphism("Bi3l", 4, 2)
    assert bi3l.images["c2"].render() == "3/2*cb1^2"

    biota3 = tw.builtin_morphism("Biota3l", 4, 2)
    assert biota3.images["z2"].render() == "-zb1*cb1"

    bmu = tw.builtin_morphism("Bmu_s", 4, 2)
    assert bmu.images["g"].render() == "c1 - 2*g"

    beps = tw.builtin_morphism("Bepsilon", 2, 1)
    assert beps.images["h"].render() == "z1"

    rendered = {
        name: {g: p.render() for g, p in tw.builtin_morphism(name, 6, 3).images.items()}
        for name in ("Brho_s", "BLrho_s", "BLr", "Lphi2", "xi3")
    }
    assert rendered == {
        "Brho_s": {"c1": "2*cb1", "c2": "c2", "c3": "c3", "c4": "c4", "c5": "c5", "c6": "c6"},
        "BLrho_s": {"z1": "2*zb1", "c1": "2*cb1", "z2": "z2", "c2": "c2"},
        "BLr": {"sp1": "z1", "t": "c1", "mu": "-z2"},
        "Lphi2": {"z2Q": "z2 + 2/3*zb1*cb1", "c2Q": "c2 - 5/3*cb1^2"},
        "xi3": {"c2Q": "c2 - 5/3*cb1^2"},
    }

    with pytest.raises(PreconditionError, match="unknown morphism table 'Bzilch'"):
        tw.builtin_morphism("Bzilch", 4, 2)
    with pytest.raises(PreconditionError, match="unknown space 'BNowhere'"):
        space_ring("BNowhere", n=4, l=2)
    with pytest.raises(PreconditionError):
        tw.builtin_morphism("Bi2l", 4, 3)


def test_every_undefined_map_table_is_a_precondition():
    refused = []
    for name in tw.MORPHISM_NAMES:
        for n in range(1, 5):
            for l in range(1, n + 1):
                try:
                    tw.builtin_morphism(name, n, l)
                except PreconditionError:
                    refused.append((name, n, l))
    assert ("Br", 1, 1) in refused
    # BLUn keeps z2 at n = 1, so BLr has a table there while Br has none
    assert ("BLr", 1, 1) not in refused
    with pytest.raises(PreconditionError, match="^map Br needs n >= 2, got n=1$"):
        tw.builtin_morphism("Br", 1, 1)


@pytest.mark.parametrize("cap", [None, 4, 20])
def test_one_cap_rule_for_every_named_space(cap):
    """Every ring a map table or a transgression table is built on takes the
    requested cap (12 if none), raised to its own top generator degree."""
    ends = []
    for name in tw.MORPHISM_NAMES:
        for n, l in ((3, 1), (4, 2), (7, 7), (8, 2), (8, 8)):
            try:
                morphism = tw.builtin_morphism(name, n, l, cap).morphism
            except PreconditionError:
                continue
            ends += [(name, n, morphism.source), (name, n, morphism.target)]
    for space, l in (("BUn", None), ("BUn_l", 2), ("BSpinc", None), ("BU1", None), ("BU1xBUn", None)):
        for n in (2, 8):
            table = tg.builtin_table(space, n=n, l=l, degree_cap=cap)
            ends += [(space, n, table.source), (space, n, table.target)]
    # both ends of 82 map tables and of 10 transgression tables
    assert len(ends) == 184
    for name, n, ring in ends:
        top = max((g.degree for g in ring.generators), default=0)
        assert ring.degree_cap == max(cap or 12, top), (name, n, ring)


def test_morphism_tables_preserve_degree():
    for name in tw.MORPHISM_NAMES:
        table = tw.builtin_morphism(name, 4, 2)
        src = table.morphism.source
        for gen in src.generators:
            image = table.images[gen.name]
            assert image.is_zero or image.is_homogeneous(gen.degree)


def test_xi2_pullback():
    ring = space_ring("BLUbar_n_l", n=4, l=2)
    assert tw.xi2_pullback(4, 2, "c1Q") == ring.poly("c1 - 2*g")
    assert tw.xi2_pullback(4, 2, "z2Q") == ring.poly("z2 + 1/2*zb1*c1")
    ring33 = space_ring("BLUbar_n_l", n=3, l=3)
    assert tw.xi2_pullback(3, 3, "z2Q") == ring33.poly("z2 + 1/3*zb1*c1")
    with pytest.raises(PreconditionError):
        tw.xi2_pullback(4, 2, "c2Q")


def test_lphi2_z2():
    assert tw.lphi2_z2(2, 2).render() == "z2 + 1/2*zb1*cb1"
    assert tw.lphi2_z2(4, 2).render() == "z2 + zb1*cb1"
    assert tw.lphi2_z2(6, 3).render() == "z2 + 2/3*zb1*cb1"


def test_loop_cross_checks_refuse_a_faulty_route(monkeypatch):
    """A fault injected into one route of each loop cross-check raises."""
    lphi_image, phi2 = tw._lphi_z2_image, tw.phi2_pullback
    monkeypatch.setattr(tw, "_lphi_z2_image", lambda n, l, cap: lphi_image(n, l, cap) * 2)
    with pytest.raises(VerificationError, match="^transgression pipeline disagrees with the table: "):
        tw.xi2_pullback(4, 2, "z2Q")
    monkeypatch.setattr(tw, "phi2_pullback", lambda n, l, k, cap=None: phi2(n, l, k, cap) * 2)
    with pytest.raises(VerificationError, match="^cross-check failed: table="):
        tw.lphi2_z2(4, 2)


def test_obstruction_refuses_an_unknown_level():
    with pytest.raises(PreconditionError, match="^unknown level 'fracSO'$"):
        tw.obstruction("fracSO", load_fixture("su_n4l2.json"))


def test_loop_square_factorization():
    # collapsing the extra circle factor then covering equals the looped covering
    for n in (2, 4, 6):
        for l in divisors_gt1(n):
            composite = tw.builtin_morphism("Biota2l", n, l).morphism.then(
                tw.builtin_morphism("BhatLi2l", n, l).morphism
            )
            expected = tw.builtin_morphism("BLi2l", n, l).morphism
            assert composite.images == expected.images


def test_phi3_kills_c2_shape():
    # after the level-2 covering, the c2 slot is the stated multiple of cb1^2
    table = tw.builtin_morphism("phi3", 4, 2)
    img3 = table.images["c3Q"]
    assert img3.ring == space_ring("BU6n_l", n=4, l=2)
    bi3l = tw.builtin_morphism("Bi3l", 4, 2)
    assert img3 == bi3l(tw.phi2_pullback(4, 2, 3))


# -- descriptors and obstruction levels -----------------------------------------


@pytest.fixture(scope="module")
def symbolic():
    return load_fixture("symbolic_n4l2.json")


@pytest.fixture(scope="module")
def su():
    return load_fixture("su_n4l2.json")


@pytest.fixture(scope="module")
def u6():
    return load_fixture("u6_n4l2.json")


def test_obstruction_vanishing_case(u6):
    for level in tw.LEVELS:
        pair = tw.obstruction(level, u6)
        assert pair.vanishes and pair.compatible


def test_obstruction_symbolic(symbolic):
    pair = tw.obstruction("fracSU", symbolic)
    assert pair.upstairs == symbolic.ring_y.poly("c1 - 2*a")
    assert pair.downstairs == symbolic.ring_m.gen("f1")
    assert not pair.vanishes and pair.compatible
    loop = tw.obstruction("loopU", symbolic)
    assert loop.upstairs == symbolic.loop.ring_ly.poly("z1 - 2*af")
    assert loop.compatible


def test_obstruction_fracu6_upstairs(su):
    pair = tw.obstruction("fracU6", su)
    assert pair.upstairs == su.ring_y.poly("c2 - 3/2*a^2")
    assert pair.downstairs == su.ring_m.gen("f2")
    assert pair.compatible


def test_obstruction_loopsu_upstairs(su):
    pair = tw.obstruction("loopSU", su)
    # under z1 = s*af and c1 = s*a the extra term is (s/l)*af*a
    assert pair.upstairs == su.loop.ring_ly.poly("z2 + af*a")
    assert pair.compatible


def test_obstruction_requires_previous_level(symbolic):
    with pytest.raises(PreconditionError):
        tw.obstruction("fracU6", symbolic)
    with pytest.raises(PreconditionError):
        tw.obstruction("loopSU", symbolic)


def test_obstruction_requires_l_greater_than_one(symbolic):
    flat = {
        "n": 2,
        "l": 1,
        "ringY": {"generators": [{"name": "a", "degree": 2}], "degree_cap": 8},
        "ringM": {"generators": [], "degree_cap": 8},
        "pi_star": {},
        "classes": {"a": "a", "c": ["2*a"], "frac": ["0"]},
    }
    d = tw.descriptor_from_json(flat)
    with pytest.raises(PreconditionError):
        tw.obstruction("fracSU", d)


def test_obstruction_requires_loop_data():
    data = {
        "n": 4,
        "l": 2,
        "ringY": {"generators": [{"name": "a", "degree": 2}], "degree_cap": 8},
        "ringM": {"generators": [], "degree_cap": 8},
        "pi_star": {},
        "classes": {"a": "a", "c": ["2*a", "0", "0", "0"], "frac": ["0", "0", "0", "0"]},
    }
    d = tw.descriptor_from_json(data)
    with pytest.raises(PreconditionError):
        tw.obstruction("loopU", d)


def test_lift_consequences(u6, su, symbolic):
    for level in tw.LEVELS:
        for check in tw.lift_consequences(level, u6):
            assert check.ok
    assert {level: [str(c) for c in tw.lift_consequences(level, u6)] for level in tw.LEVELS} == {
        "fracSU": ["c1(E) = s*a: ok"],
        "fracU6": ["c1(E) = s*a: ok", "c2(E) = s(n-1)/(2l)*a^2: ok"],
        "loopU": ["z1(LE) = s*af: ok"],
        "loopSU": ["z1(LE) = s*af: ok", "c1(LE) = s*a: ok", "z2(LE) = -(s/l)*af*a: ok"],
    }
    assert [str(c) for c in tw.lift_consequences("fracSU", su)] == ["c1(E) = s*a: ok"]
    assert all(c.ok for c in tw.lift_consequences("fracSU", su))
    with pytest.raises(PreconditionError):
        tw.lift_consequences("fracU6", su)
    with pytest.raises(PreconditionError):
        tw.lift_consequences("fracSU", symbolic)


def test_failed_identity_names_both_sides(symbolic):
    check = tw.IdentityCheck("c1(E) = s*a", symbolic.chern(1), symbolic.a * symbolic.s)
    assert not check.ok
    assert str(check) == "c1(E) = s*a: FAILED (c1 != 2*a)"


def test_count_structures(symbolic, su, u6):
    assert tw.count_structures("fracSU", symbolic.cohomology_m, symbolic.cohomology_lm).render() == "Z^2"
    assert tw.count_structures("loopU", symbolic.cohomology_m, symbolic.cohomology_lm).render() == "Z"
    assert tw.count_structures("fracU6", su.cohomology_m, su.cohomology_lm).render() == "Z/3"
    group = tw.count_structures("fracSU", u6.cohomology_m, u6.cohomology_lm)
    assert group.is_trivial and group.render() == "0"
    with pytest.raises(PreconditionError):
        tw.count_structures("loopU", symbolic.cohomology_m, None)
    with pytest.raises(PreconditionError):
        tw.count_structures("spin", symbolic.cohomology_m, symbolic.cohomology_lm)


def test_group_rendering():
    assert tw.AbelianGroupDesc(0).render() == "0"
    assert tw.AbelianGroupDesc(1).render() == "Z"
    assert tw.AbelianGroupDesc(3).render() == "Z^3"
    assert tw.AbelianGroupDesc(1, (2, 4)).render() == "Z + Z/2 + Z/4"
    with pytest.raises(PreconditionError):
        tw.AbelianGroupDesc(0, (1,))
    with pytest.raises(PreconditionError):
        tw.AbelianGroupDesc(-1)


def test_transgress_obstruction_raw(symbolic):
    report = tw.transgress_obstruction("fracSU->loopU", symbolic)
    assert report.ok
    assert report.upstairs_transgressed == symbolic.loop.ring_ly.poly("z1 - 2*af")
    assert report.downstairs_transgressed == symbolic.loop.ring_lm.gen("zf1")


def test_transgress_obstruction_with_side_conditions(symbolic):
    report = tw.transgress_obstruction("fracU6->loopSU", symbolic)
    assert report.ok
    # raw classes differ; equality holds under c1 = s*a, z1 = s*af
    expected = symbolic.loop.ring_ly.poly("z2 + z1*c1 - 3*af*a")
    assert report.upstairs_transgressed == expected
    assert report.upstairs_transgressed != report.upstairs_loop
    # the descriptor holds each side condition as parsed when it was read
    ly, lm = symbolic.loop.ring_ly, symbolic.loop.ring_lm
    assert symbolic.loop.side_conditions_y == {"c1": ly.poly("2*a"), "z1": ly.poly("2*af")}
    assert symbolic.loop.side_conditions_m == {"f1": lm.zero(), "zf1": lm.zero()}


def test_transgress_obstruction_renders(symbolic):
    assert [tw.transgress_obstruction(pair, symbolic).render() for pair in ("fracSU->loopU", "fracU6->loopSU")] == [
        "transgression fracSU->loopU:\n"
        "  nu(upstairs)   = z1 - 2*af == z1 - 2*af\n"
        "  nu(downstairs) = zf1 == zf1",
        "transgression fracU6->loopSU:\n"
        "  nu(upstairs)   = z2 + z1*c1 - 3*af*a == z2 + 1/4*z1*c1\n"
        "  nu(downstairs) = zf2 + zf1*f1 == zf2",
    ]


def test_transgress_zero_goes_to_zero(u6):
    for level in ("fracSU->loopU", "fracU6->loopSU"):
        report = tw.transgress_obstruction(level, u6)
        assert report.ok
        assert report.upstairs_transgressed.is_zero
        assert report.downstairs_transgressed.is_zero


def test_transgress_requires_tables(symbolic):
    stripped = tw.BundleDescriptor(
        symbolic.n,
        symbolic.l,
        symbolic.ring_y,
        symbolic.ring_m,
        symbolic.pi_star,
        symbolic.a,
        symbolic.c,
        symbolic.frac,
        None,
    )
    with pytest.raises(PreconditionError):
        tw.transgress_obstruction("fracSU->loopU", stripped)


@pytest.mark.parametrize("table", ["nuY", "nuM"])
def test_transgress_requires_both_loop_tables(table):
    path = resources.files("fracchern").joinpath("fixtures").joinpath("symbolic_n4l2.json")
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["loop"][table]
    d = tw.descriptor_from_json(data)
    assert d.loop is not None
    with pytest.raises(PreconditionError, match="^descriptor loop data carries no transgression tables$"):
        tw.transgress_obstruction("fracSU->loopU", d)


def test_transgress_refuses_an_unknown_pair(symbolic):
    with pytest.raises(PreconditionError, match="^unknown transgression level 'fracSU->loopSU'$"):
        tw.transgress_obstruction("fracSU->loopSU", symbolic)


def test_descriptor_validation():
    with pytest.raises(PreconditionError):
        tw.descriptor_from_json(
            {
                "n": 4,
                "l": 3,
                "ringY": {"generators": [], "degree_cap": 4},
                "ringM": {"generators": [], "degree_cap": 4},
                "classes": {"a": "0"},
            }
        )
    with pytest.raises(ExpressionError):
        tw.descriptor_from_json(
            {
                "n": 2,
                "l": 2,
                "ringY": {"generators": [{"name": "a", "degree": 2}], "degree_cap": 8},
                "ringM": {"generators": [], "degree_cap": 8},
                "classes": {"a": "a", "c": ["a^2"], "frac": []},
            }
        )
    with pytest.raises(ExpressionError):
        tw.descriptor_from_json({"n": 2, "l": 2})


def test_load_descriptor_from_path(tmp_path, symbolic):
    raw = {
        "n": 2,
        "l": 2,
        "ringY": {"generators": [{"name": "a", "degree": 2}], "degree_cap": 8},
        "ringM": {"generators": [], "degree_cap": 8},
        "pi_star": {},
        "classes": {"a": "a", "c": ["a"], "frac": ["0"]},
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(raw))
    d = tw.load_descriptor(path)
    assert d.n == 2 and d.s == 1
    assert d.chern(1) == d.ring_y.gen("a")


def test_obstruction_missing_class_data():
    data = {
        "n": 4,
        "l": 2,
        "ringY": {"generators": [{"name": "a", "degree": 2}], "degree_cap": 8},
        "ringM": {"generators": [], "degree_cap": 8},
        "pi_star": {},
        "classes": {"a": "a", "c": ["2*a"], "frac": []},
    }
    d = tw.descriptor_from_json(data)
    with pytest.raises(PreconditionError):
        tw.obstruction("fracSU", d)


def test_xi3_covers_the_looped_level2():
    # xi3 restricted along the level-2 collapse agrees with Lphi2 followed
    # by the z2-relation table
    for n in (2, 4, 6):
        for l in divisors_gt1(n):
            xi3 = tw.builtin_morphism("xi3", n, l)
            lphi2 = tw.builtin_morphism("Lphi2", n, l)
            biota3l = tw.builtin_morphism("Biota3l", n, l)
            assert xi3.images["c2Q"] == biota3l(lphi2.images["c2Q"])
            # the z2Q slot is killed on the covered side
            assert biota3l(lphi2.images["z2Q"]).is_zero


def test_loop_operations_reject_l_equals_one():
    with pytest.raises(PreconditionError):
        tw.xi2_pullback(2, 1, "c1Q")
    with pytest.raises(PreconditionError):
        tw.lphi2_z2(2, 1)
    with pytest.raises(PreconditionError):
        tw.builtin_morphism("Bi2l", 2, 1)


def test_lphi_images():
    table = tw.builtin_morphism("Lphi", 4, 2)
    ring = table.morphism.target
    assert table.images["z1Q"] == ring.poly("z1 - 2*h")
    assert table.images["c1Q"] == ring.poly("c1 - 2*g")
    assert table.images["z2Q"] == ring.poly("z2 + 1/2*h*c1 + 1/2*g*z1 - h*g")


def test_loop_pullback_is_natural_for_suspension():
    # nu(phi*(x)) == Lphi*(nu(x)) on the rational generators; this
    # re-derives the z2Q entry of Lphi from first principles
    from fracchern import transgression as tg

    for n in (2, 3, 4, 6):
        for l in divisors_gt1(n):
            phi = tw.builtin_morphism("phi", n, l).morphism
            lphi = tw.builtin_morphism("Lphi", n, l).morphism
            src_q = phi.source
            loop_q = lphi.source
            nu_q = tg.DerivationTable(
                src_q,
                loop_q,
                {"c1Q": "z1Q", "c2Q": "z2Q + z1Q*c1Q"},
            )
            nu_prod = tg.builtin_table("BU1xBUn", n=n, degree_cap=max(12, 2 * n))
            for name in ("c1Q", "c2Q"):
                lhs = tg.free_suspend(nu_prod, phi(src_q.gen(name)))
                rhs = lphi(tg.free_suspend(nu_q, src_q.gen(name)))
                assert lhs == rhs, (n, l, name)


def test_phi_pullback_parameter_violations():
    with pytest.raises(PreconditionError):
        tw.phi_pullback(4, 3, 1)
    with pytest.raises(PreconditionError):
        tw.phi_pullback(4, 2, 5)


@pytest.mark.parametrize("name", ["Bi2l", "BhatLi2l"])
@pytest.mark.parametrize("n,l", [(2, 2), (4, 2), (6, 2), (6, 3), (6, 6)])
def test_merging_maps_walk_and_match_the_generic_path(name, n, l, rng):
    """g -> cb1 and c1 -> s*cb1 land on the same target field.  Only at
    s = 1 is every field of Bi2l plain, so only then does the merge take the
    key plan; BhatLi2l always carries the odd zb1 and z2, so it takes the
    generic route."""
    f = tw.builtin_morphism(name, n, l).morphism
    assert (f._plan is not None) == (name == "Bi2l" and n == l)
    g, c1 = f.source.gen("g"), f.source.gen("c1")
    for p in [g**2 * c1, *(random_polynomial(f.source, rng) for _ in range(12))]:
        assert f(p) == f._apply_generic(p)


@pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 7) for l in range(1, n + 1) if n % l == 0])
def test_only_plain_registry_maps_take_the_key_plan(n, l, rng):
    """Of the maps the registry builds at (n, l), a plan is built exactly
    for those whose images are each zero or one even generator with
    coefficient 1, read through ``terms()``: Bi2l and Brho_s among them
    at n = l > 1, no map elsewhere."""
    planned = set()
    for name in tw.MORPHISM_NAMES:
        try:
            f = tw.builtin_morphism(name, n, l).morphism
        except PreconditionError:
            continue  # a map of the higher towers at l = 1, or Br at n = 1
        assert (f._plan is not None) == (plain_moves_by_terms(f.images.values()) is not None), name
        if f._plan is not None:
            planned.add(name)
        for _ in range(4):
            p = random_polynomial(f.source, rng)
            assert f(p) == f._apply_generic(p), name
    if n == l > 1:
        assert {"Bi2l", "Brho_s"} <= planned
    else:
        assert not planned
