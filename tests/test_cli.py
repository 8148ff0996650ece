import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import fracchern
from fracchern import symroots, towers, verify
from fracchern.cli import main
from fracchern.errors import VerificationError


def fixture_path(name):
    return str(resources.files("fracchern").joinpath("fixtures").joinpath(name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frac_chern_oracle(capsys):
    code, out, _ = run(capsys, "frac-chern", "--n", "4", "--l", "2", "--k", "2", "--oracle")
    assert code == 0
    assert out == "e2 - 3/2*a*e1 + 3/2*a^2\ne2 - 3/2*a*e1 + 3/2*a^2\nMATCH\n"


def test_frac_chern_integral_marker(capsys):
    code, out, _ = run(capsys, "frac-chern", "--n", "2", "--l", "1", "--k", "2")
    assert code == 0
    assert out.strip() == "e2 - a*e1 + a^2 (integral)"


def test_frac_chern_roots_basis(capsys):
    code, out, _ = run(capsys, "frac-chern", "--n", "2", "--l", "2", "--k", "1", "--basis", "roots")
    assert code == 0
    assert out.strip() == "x2 + x1 - a (integral)"


@pytest.mark.parametrize("k", ["9", "-1"])
def test_frac_chern_roots_basis_refuses_k_out_of_range(capsys, k):
    code, out, err = run(capsys, "frac-chern", "--n", "4", "--l", "2", "--k", k, "--basis", "roots")
    assert code == 2 and out == ""
    assert err == f"precondition violated: k={k} out of range 0..4\n"


def test_universal_phi(capsys):
    code, out, _ = run(capsys, "universal", "--map", "phi", "--n", "2", "--l", "2", "--k", "1")
    assert code == 0
    assert out.strip() == "c1 - g"


def test_universal_lphi2(capsys):
    code, out, _ = run(capsys, "universal", "--map", "lphi2", "--n", "4", "--l", "2", "--k", "2")
    assert code == 0
    assert out.strip() == "z2 + zb1*cb1"


def test_universal_precondition(capsys):
    code, _, err = run(capsys, "universal", "--map", "phi2", "--n", "3", "--l", "3", "--k", "1")
    assert code == 2
    assert "precondition" in err


@pytest.mark.parametrize("map_name,k", [("xi2", "1"), ("lphi2", "2")])
def test_higher_towers_refuse_l_1(capsys, map_name, k):
    code, out, err = run(capsys, "universal", "--map", map_name, "--n", "4", "--l", "1", "--k", k)
    assert code == 2 and out == ""
    assert err == "precondition violated: the higher towers require l > 1\n"


def test_change_triv(capsys):
    code, out, _ = run(capsys, "change-triv", "--n", "4", "--l", "2", "--k", "1")
    assert code == 0
    assert out.strip() == "f1 - 2*x"


def test_transgress(capsys):
    code, out, _ = run(capsys, "transgress", "--space", "BUn", "--expr", "c1^2", "--n", "2")
    assert code == 0
    assert out.strip() == "2*z1*c1"
    code, out, _ = run(capsys, "transgress", "--space", "BSpinc", "--expr", "q1")
    assert code == 0
    assert out.strip() == "mu - sp1*t"
    nested = "(" * 50 + "c1^2" + ")" * 50
    code, out, _ = run(capsys, "transgress", "--space", "BUn", "--expr", nested, "--n", "2")
    assert code == 0
    assert out.strip() == "2*z1*c1"


def test_count(capsys):
    code, out, _ = run(
        capsys, "count", "--level", "fracU6", "--descriptor", fixture_path("symbolic_n4l2.json")
    )
    assert code == 0
    assert out.strip() == "Z"


def test_count_from_stdin(capsys, monkeypatch):
    with open(fixture_path("symbolic_n4l2.json")) as fh:
        payload = fh.read()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "count", "--level", "fracSU", "--descriptor", "-")
    assert code == 0
    assert out.strip() == "Z^2"


def test_obstruction(capsys):
    code, out, _ = run(
        capsys, "obstruction", "--level", "loopSU", "--descriptor", fixture_path("su_n4l2.json")
    )
    assert code == 0
    assert "upstairs   = z2 + af*a" in out
    assert "vanishes: no" in out


def test_obstruction_undecidable_note(capsys):
    code, out, _ = run(
        capsys, "obstruction", "--level", "loopU", "--descriptor", fixture_path("u6_n4l2.json")
    )
    assert code == 0
    assert "vanishes: yes" in out
    assert "undecidable at ring level" in out


def test_gch_descend(capsys, monkeypatch):
    monkeypatch.setenv("FRACCHERN_DEGREE_CAP", "4")
    code, out, _ = run(
        capsys,
        "gch", "--kind", "theta3", "--n", "1", "--l", "1",
        "--q-order", "2", "--descend", "--method", "both",
    )
    assert code == 0
    assert out == "q^0: 1\nq^1/2: 2 + f1^2\nq^2: 2 + 4*f1^2\n"


def test_degree_cap_env_changes_truncation(capsys, monkeypatch):
    monkeypatch.setenv("FRACCHERN_DEGREE_CAP", "8")
    _, deep, _ = run(capsys, "gch", "--kind", "theta3", "--n", "1", "--l", "1", "--q-order", "1", "--descend")
    monkeypatch.setenv("FRACCHERN_DEGREE_CAP", "4")
    _, shallow, _ = run(capsys, "gch", "--kind", "theta3", "--n", "1", "--l", "1", "--q-order", "1", "--descend")
    assert "1/12*f1^4" in deep
    assert "f1^4" not in shallow


@pytest.mark.parametrize(
    "raw,line",
    [("x", "FRACCHERN_DEGREE_CAP must be an integer, got 'x'"), ("0", "FRACCHERN_DEGREE_CAP must be positive")],
)
def test_bad_degree_cap_env_exits_one(capsys, monkeypatch, raw, line):
    monkeypatch.setenv("FRACCHERN_DEGREE_CAP", raw)
    code, out, err = run(capsys, "frac-chern", "--n", "2", "--l", "2", "--k", "1")
    assert (code, out, err) == (1, "", f"parse error: {line}\n")


def test_oracle_mismatch_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(symroots, "fractional_chern_brute", lambda model, k: model.e_ring.zero())
    code, out, err = run(capsys, "frac-chern", "--n", "4", "--l", "2", "--k", "2", "--oracle")
    assert (code, err) == (3, "")
    assert out == "e2 - 3/2*a*e1 + 3/2*a^2\n0\nMISMATCH\n"


def test_verification_error_exits_three(capsys, monkeypatch):
    def disagree(n, l, degree_cap=None):
        raise VerificationError("cross-check failed: injected")

    monkeypatch.setattr(towers, "lphi2_z2", disagree)
    code, out, err = run(capsys, "universal", "--map", "lphi2", "--n", "4", "--l", "2", "--k", "2")
    assert (code, out, err) == (3, "", "verification mismatch: cross-check failed: injected\n")


def test_deterministic_output(capsys):
    first = run(capsys, "universal", "--map", "phi", "--n", "6", "--l", "3", "--k", "4")
    second = run(capsys, "universal", "--map", "phi", "--n", "6", "--l", "3", "--k", "4")
    assert first == second


def test_bad_json_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": ')
    code, _, err = run(capsys, "count", "--level", "fracSU", "--descriptor", str(bad))
    assert code == 1
    assert "parse error" in err


def test_bad_expression_exit_code(capsys):
    code, _, err = run(capsys, "transgress", "--space", "BUn", "--expr", "c1 +", "--n", "2")
    assert code == 1
    deep = "(" * 5000 + "c1" + ")" * 5000
    code, _, err = run(capsys, "transgress", "--space", "BUn", "--expr", deep, "--n", "2")
    assert code == 1
    assert err.startswith("parse error: ") and "Traceback" not in err
    huge = "c1 + " + "1" * 5000
    code, _, err = run(capsys, "transgress", "--space", "BUn", "--expr", huge, "--n", "2")
    assert code == 1
    assert err.startswith("parse error: ") and "Traceback" not in err
    assert "position 5" in err
    code, out, err = run(capsys, "transgress", "--space", "BUn", "--expr", "c1 c2")
    assert (code, out, err) == (1, "", "parse error: trailing input after expression: 'c1 c2'\n")


def _without_class_a(d):
    del d["classes"]["a"]
    return d


def _with_loop_class(d, cls, value):
    d["loop"]["classes"][cls] = value
    return d


def _with_group(d, table, degree, group):
    d["cohomology"][table][degree] = group
    return d


INF = float("inf")


@pytest.mark.parametrize(
    "mutate,field",
    [
        (_without_class_a, "classes.a"),
        (lambda d: {**d, "n": "four"}, "n"),
        (lambda d: {**d, "classes": {**d["classes"], "c": [5]}}, "classes.c[0]"),
        (lambda d: [d], "descriptor"),
        (lambda d: {**d, "cohomology": {"hM": {"x": {"rank": 1}}}}, "cohomology.hM.x"),
        (lambda d: {**d, "n": 4.9}, "n"),
        (lambda d: {**d, "n": INF}, "n"),
        (lambda d: {**d, "l": -INF}, "l"),
        (lambda d: {**d, "ringY": {"generators": [{"name": "a", "degree": INF}]}}, "degree"),
        (lambda d: {**d, "ringY": {**d["ringY"], "degree_cap": -INF}}, "degree_cap"),
        (lambda d: {**d, "cohomology": {"hM": {"1": {"rank": INF}}}}, "rank"),
        (lambda d: {**d, "cohomology": {"hM": {"1": {"torsion": [-INF]}}}}, "torsion"),
        (lambda d: {**d, "n": "4"}, "n"),
        (lambda d: {**d, "n": True, "l": True}, "n"),
        (lambda d: {**d, "ringY": {**d["ringY"], "degree_cap": "12"}}, "degree_cap"),
        (lambda d: {**d, "cohomology": {"hM": {"1": {"rank": True}}}}, "rank"),
        (lambda d: {**d, "cohomology": {"hM": {"1": {"rank": "2"}}}}, "rank"),
        (lambda d: {**d, "cohomology": {"hM": {"1": {"torsion": "23"}}}}, "torsion"),
        (lambda d: {**d, "ringM": {**d["ringM"], "degree_cap": -INF}}, "ringM"),
        (lambda d: {**d, "loop": {**d["loop"], "ringLY": {"degree_cap": 12}}}, "loop.ringLY"),
        (lambda d: _with_group(d, "hM", "3", {"rank": 0, "torsion": ["3"]}), "cohomology.hM.3"),
        (lambda d: _with_group(d, "hLM", "0", {"rank": 1.5}), "cohomology.hLM.0"),
        (lambda d: {**d, "classes": {**d["classes"], "a": "c2"}}, "classes.a"),
        (lambda d: _with_loop_class(d, "a", "c2"), "loop.classes.a"),
        (lambda d: _with_loop_class(d, "afrak", "a"), "loop.classes.afrak"),
    ],
    ids=[
        "missing_class_a", "n_not_integer", "class_not_string", "top_level_list",
        "degree_not_integer", "n_not_integral", "n_infinite", "l_infinite",
        "generator_degree_infinite", "degree_cap_infinite", "rank_infinite",
        "torsion_infinite", "n_string", "n_l_true", "degree_cap_string", "rank_true",
        "rank_string", "torsion_string", "ringM_degree_cap_infinite", "ringLY_no_generators",
        "hM_3_torsion", "hLM_0_rank", "class_a_degree_4",
        "loop_a_degree_4", "afrak_degree_2",
    ],
)
def test_malformed_descriptor_names_the_field(capsys, monkeypatch, mutate, field):
    with open(fixture_path("su_n4l2.json")) as fh:
        payload = json.dumps(mutate(json.load(fh)))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, err = run(capsys, "obstruction", "--level", "fracSU", "--descriptor", "-")
    assert code == 1 and out == ""
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("parse error: ")
    assert f"{field}:" in line or f"'{field}'" in line


@pytest.mark.parametrize(
    "level,cls,missing",
    [
        ("loopU", "z", "z1(LE)"),
        ("loopU", "zfrac", "fractional loop class of index 1"),
        ("loopSU", "z", "z1(LE)"),
        ("loopSU", "c", "c1(LE)"),
        ("loopSU", "zfrac", "fractional loop class of index 2"),
    ],
    ids=["loopU-z", "loopU-zfrac", "loopSU-z", "loopSU-c", "loopSU-zfrac"],
)
def test_short_loop_class_list_is_a_precondition(capsys, monkeypatch, level, cls, missing):
    with open(fixture_path("su_n4l2.json")) as fh:
        d = json.load(fh)
    d["loop"]["classes"][cls] = []
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(d)))
    code, out, err = run(capsys, "obstruction", "--level", level, "--descriptor", "-")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("precondition violated: ") and missing in line


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: _with_group(d, "hM", "3", {"rank": -1}), "cohomology.hM.3"),
        (lambda d: _with_group(d, "hLM", "2", {"torsion": [1]}), "cohomology.hLM.2"),
        (lambda d: {**d, "ringY": {**d["ringY"], "degree_cap": 1}}, "ringY"),
        (
            lambda d: {**d, "loop": {**d["loop"], "ringLM": {**d["loop"]["ringLM"], "degree_cap": 1}}},
            "loop.ringLM",
        ),
    ],
    ids=["hM_3_negative_rank", "hLM_2_torsion_one", "ringY_cap_one", "ringLM_cap_one"],
)
def test_descriptor_precondition_names_the_path(capsys, monkeypatch, mutate, path):
    with open(fixture_path("su_n4l2.json")) as fh:
        payload = json.dumps(mutate(json.load(fh)))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, err = run(capsys, "obstruction", "--level", "fracSU", "--descriptor", "-")
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith(f"precondition violated: {path}: ")


def _loop_c1_zero(d):
    d["loop"]["classes"]["c"][0] = "0"
    return d


@pytest.mark.parametrize(
    "mutate,code,line",
    [
        (
            _loop_c1_zero,
            2,
            "precondition violated: loopSU side conditions c1(LE) = s*a, z1(LE) = s*af do not hold",
        ),
        (
            lambda d: {**d, "classes": {**d["classes"], "c": "2*a"}},
            1,
            "parse error: classes.c: expected a list",
        ),
        (
            lambda d: {**d, "cohomology": {"hM": [1]}},
            1,
            "parse error: cohomology.hM: expected an object",
        ),
        (
            lambda d: _with_group(d, "hM", "1", [0]),
            1,
            "parse error: cohomology.hM.1: group descriptor must be an object",
        ),
    ],
    ids=["loopSU_side_conditions", "classes_c_not_list", "hM_not_object", "group_not_object"],
)
def test_descriptor_refusal_lines(capsys, monkeypatch, mutate, code, line):
    with open(fixture_path("su_n4l2.json")) as fh:
        payload = json.dumps(mutate(json.load(fh)))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run(capsys, "obstruction", "--level", "loopSU", "--descriptor", "-") == (code, "", line + "\n")


def _setting(value, *keys):
    """A mutation that sets the descriptor entry at ``keys``, or deletes it
    when ``value`` is None."""

    def mutate(d):
        owner = d
        for key in keys[:-1]:
            owner = owner[key]
        if value is None:
            del owner[keys[-1]]
        else:
            owner[keys[-1]] = value
        return d

    return mutate


@pytest.mark.parametrize(
    "mutate,code,line",
    [
        (_setting("a +", "classes", "a"), 1, "parse error: classes.a: unexpected token 'end'"),
        (_setting("zz", "classes", "c", 0), 1, "parse error: classes.c[0]: unknown generator 'zz'"),
        (
            _setting("a^2", "classes", "c", 0),
            1,
            "parse error: classes.c[0]: c_k(E) #1 must be homogeneous of degree 2: got a^2",
        ),
        (
            _setting("f3", "classes", "frac", 1),
            1,
            "parse error: classes.frac[1]: fractional class #2 must be homogeneous of degree 4: got f3",
        ),
        (_setting("f2 +", "classes", "frac", 1), 1, "parse error: classes.frac[1]: unexpected token 'end'"),
        (
            _setting("a", "loop", "classes", "z", 0),
            1,
            "parse error: loop.classes.z[0]: z_k(LE) #1 must be homogeneous of degree 1: got a",
        ),
        (_setting("zz", "loop", "classes", "z", 1), 1, "parse error: loop.classes.z[1]: unknown generator 'zz'"),
        (_setting("c2 +", "pi_star", "f2"), 1, "parse error: pi_star: unexpected token 'end'"),
        (
            _setting("a", "pi_star", "f2"),
            2,
            "precondition violated: pi_star: image of f2 must be homogeneous of degree 4",
        ),
        (_setting(None, "pi_star", "f2"), 2, "precondition violated: pi_star: no image given for generator f2"),
        (_setting("a", "pi_star", "zzz"), 2, "precondition violated: pi_star: unknown source generator 'zzz'"),
        (
            _setting("z2", "loop", "pi_star", "f2"),
            2,
            "precondition violated: loop.pi_star: image of f2 must be homogeneous of degree 4",
        ),
        (
            _setting("af", "loop", "nuY", "q9"),
            2,
            "precondition violated: loop.nuY: unknown source generator 'q9'",
        ),
        (_setting("zz", "loop", "nuM", "f2"), 1, "parse error: loop.nuM: unknown generator 'zz'"),
        (
            _setting({"a": "a +"}, "loop", "side_conditions", "Y"),
            1,
            "parse error: loop.side_conditions.Y: unexpected token 'end'",
        ),
        (
            _setting({"zz": "a"}, "loop", "side_conditions", "Y"),
            1,
            "parse error: loop.side_conditions.Y: unknown generator 'zz'",
        ),
        (
            _setting({"c2": "a"}, "loop", "side_conditions", "Y"),
            2,
            "precondition violated: loop.side_conditions.Y: image of c2 must be homogeneous of degree 4",
        ),
        (
            _setting({"f2": "zf2 *"}, "loop", "side_conditions", "M"),
            1,
            "parse error: loop.side_conditions.M: unexpected token 'end'",
        ),
    ],
    ids=[
        "class_a_syntax", "class_c_unknown", "class_c_degree", "class_frac_degree",
        "class_frac_syntax", "loop_z_degree", "loop_z_unknown", "pi_star_syntax",
        "pi_star_degree", "pi_star_missing_image", "pi_star_unknown_key", "loop_pi_star_degree",
        "loop_nuY_unknown_key", "loop_nuM_unknown_generator", "side_Y_syntax",
        "side_Y_unknown_generator", "side_Y_degree", "side_M_syntax",
    ],
)
def test_nested_reader_errors_name_the_field(capsys, monkeypatch, mutate, code, line):
    with open(fixture_path("su_n4l2.json")) as fh:
        payload = json.dumps(mutate(json.load(fh)))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run(capsys, "obstruction", "--level", "fracSU", "--descriptor", "-") == (code, "", line + "\n")


def test_zero_loop_twist_class_is_accepted(capsys, monkeypatch):
    with open(fixture_path("symbolic_n4l2.json")) as fh:
        d = json.load(fh)
    d["loop"]["classes"]["afrak"] = "0"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(d)))
    code, out, err = run(capsys, "obstruction", "--level", "loopU", "--descriptor", "-")
    assert code == 0 and err == "" and "upstairs   = z1\n" in out


def test_integral_floats_read_as_integers(capsys, monkeypatch):
    with open(fixture_path("su_n4l2.json")) as fh:
        d = json.load(fh)
    d["n"], d["ringY"]["degree_cap"] = 4.0, 12.0
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(d)))
    code, out, _ = run(capsys, "obstruction", "--level", "fracSU", "--descriptor", "-")
    _, expected, _ = run(
        capsys, "obstruction", "--level", "fracSU", "--descriptor", fixture_path("su_n4l2.json")
    )
    assert code == 0 and out == expected


def _unreadable(tmp_path, kind):
    if kind == "missing":
        return "/nonexistent.json"
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "d.json"
    if kind == "not_utf8":
        path.write_bytes(b'{"n": "\xff\xfe"}')
    else:  # an integer past Python's int/str conversion limit
        path.write_text('{"n": ' + "1" * 5000 + "}")
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "huge_integer"])
def test_missing_file_exit_code(capsys, tmp_path, kind):
    path = _unreadable(tmp_path, kind)
    code, out, err = run(capsys, "count", "--level", "fracSU", "--descriptor", path)
    assert code == 1 and out == ""
    [line] = err.splitlines()
    assert line.startswith("parse error: ") and "Traceback" not in err


def test_coefficient_too_long_to_print(capsys):
    expr = "(2^10000)*(2^10000)*c1"
    code, out, err = run(capsys, "transgress", "--space", "BUn", "--n", "2", "--expr", expr)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("precondition violated: ") and str(sys.get_int_max_str_digits()) in line


@pytest.mark.parametrize("expr", ["2^10000000000*c1", "(2 + c1)^10000000000"])
def test_huge_constant_power_is_refused(capsys, expr):
    # refused from the size estimate, before any power is computed
    code, out, err = run(capsys, "transgress", "--space", "BUn", "--n", "2", "--expr", expr)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("precondition violated: ") and "bits" in line


def test_powers_within_the_bit_limit_render(capsys):
    code, out, _ = run(capsys, "transgress", "--space", "BUn", "--n", "2", "--expr", "2^1000*c1")
    assert code == 0 and out == f"{2**1000}*z1\n"
    expr = "0^10000000000 + (-1)^10000000001*c1 + (1 + c1)^3"
    code, out, _ = run(capsys, "transgress", "--space", "BUn", "--n", "2", "--expr", expr)
    assert code == 0 and out == "2*z1 + 6*z1*c1 + 3*z1*c1^2\n"


def test_argparse_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frac-chern", "--n", "4"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1


def test_verify_fast(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--q-order", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines)


@pytest.mark.parametrize("max_n", ["0", "1", "-3"])
def test_verify_refuses_vacuous_sweeps(capsys, max_n):
    code, out, err = run(capsys, "verify", "--max-n", max_n)
    assert code == 2 and out == ""
    assert err == f"precondition violated: max_n must be at least 2, got {max_n}\n"


@pytest.mark.parametrize(
    "q_order,line",
    [("0", "q_order must be at least 1/2"), ("-1", "q-exponents must be nonnegative")],
)
def test_verify_refuses_bad_q_order_before_any_sweep(capsys, monkeypatch, q_order, line):
    def not_run(*args):
        raise AssertionError("a sweep ran before the q_order check")

    monkeypatch.setattr(
        verify, "CRITERIA", tuple((num, desc, not_run, mode) for num, desc, _, mode in verify.CRITERIA)
    )
    code, out, err = run(capsys, "verify", "--max-n", "12", "--q-order", q_order)
    assert code == 2 and out == ""
    assert err == f"precondition violated: {line}\n"


@pytest.mark.parametrize(
    "argv,line",
    [
        (
            ["--space", "BUn_l", "--n", "4", "--expr", "cb1"],
            "space BUn_l needs a positive order l",
        ),
        (["--space", "BUn_l", "--n", "4", "--l", "3", "--expr", "cb1"], "l=3 must divide n=4"),
        (["--space", "BUn", "--n", "0", "--expr", "c1"], "space BUn needs a positive rank n"),
        (["--space", "BSpinc", "--expr", "q1*t"], "generator q1 has no namesake in the target ring"),
    ],
    ids=["no_order", "order_not_dividing", "zero_rank", "no_namesake"],
)
def test_transgress_space_preconditions(capsys, argv, line):
    code, out, err = run(capsys, "transgress", *argv)
    assert code == 2 and out == ""
    assert err == f"precondition violated: {line}\n"


def test_module_entry_point(module="fracchern"):
    env = dict(os.environ, PYTHONPATH=str(Path(fracchern.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", module, "frac-chern", "--n", "2", "--l", "2", "--k", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "e1 - a (integral)\n", "")


def test_cli_module_entry_point():
    """``python -m fracchern.cli`` runs the same main as ``python -m fracchern``."""
    test_module_entry_point("fracchern.cli")
