"""Command-line front end.

Subcommands: frac-chern, change-triv, universal, transgress, obstruction,
count, gch, verify.  Descriptors are JSON (see README); polynomial values
inside JSON use the expression grammar of the engine.  Output is plain
UTF-8 text and deterministic.  Exit codes: 0 success, 1 parse error,
2 precondition violation, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import qtheta, symroots, towers, transgression, verify
from .errors import ExpressionError, PreconditionError, VerificationError
from .spaces import working_cap
from .symroots import RootModel


class _Parser(argparse.ArgumentParser):
    """argparse error -> exit code 1 (argument parsing failure); help and
    usage wrap at one width whatever the terminal's."""

    def _get_formatter(self):
        # the width argparse itself picks for an 80-column terminal
        return self.formatter_class(prog=self.prog, width=78)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _usage(prog: str, *lines: str) -> str:
    """Usage text stated line by line, each line after the first indented
    under ``usage: prog``: argparse wraps a long usage line differently
    from one Python version to the next."""
    return f"{prog} " + ("\n" + " " * len(f"usage: {prog} ")).join(lines)


def _degree_cap() -> int | None:
    raw = os.environ.get("FRACCHERN_DEGREE_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ExpressionError(f"FRACCHERN_DEGREE_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise ExpressionError("FRACCHERN_DEGREE_CAP must be positive")
    return cap


def _open_descriptor(path: str):
    return towers.load_descriptor(sys.stdin if path == "-" else path)


def _model(args) -> RootModel:
    return RootModel(args.n, args.l, degree_cap=working_cap(args.n, _degree_cap()))


def _render_class(poly) -> str:
    text = poly.render()
    if poly.is_integral and not poly.is_zero:
        text += " (integral)"
    return text


def _cmd_frac_chern(args) -> int:
    model = _model(args)
    closed = symroots.fractional_chern_closed(model, args.k)
    if args.oracle:
        brute = symroots.fractional_chern_brute(model, args.k)
        print(_render_class(closed))
        print(_render_class(brute))
        if closed == brute:
            print("MATCH")
            return 0
        print("MISMATCH")
        return 3
    if args.basis == "roots":
        part = symroots.shifted_total_chern(model).homogeneous_part(2 * args.k)
        print(_render_class(part))
    else:
        print(_render_class(closed))
    return 0


def _cmd_change_triv(args) -> int:
    model = _model(args)
    print(symroots.change_trivialization(model, args.k).render())
    return 0


def _cmd_universal(args) -> int:
    cap = _degree_cap()
    if args.map == "phi":
        value = towers.phi_pullback(args.n, args.l, args.k, cap)
    elif args.map == "phi2":
        value = towers.phi2_pullback(args.n, args.l, args.k, cap)
    elif args.map == "xi2":
        which = {1: "c1Q", 2: "z2Q"}.get(args.k)
        if which is None:
            raise PreconditionError("xi2 computes k=1 (c1Q) or k=2 (z2Q)")
        value = towers.xi2_pullback(args.n, args.l, which, cap)
    else:  # lphi2
        if args.k != 2:
            raise PreconditionError("lphi2 computes the k=2 loop class only")
        value = towers.lphi2_z2(args.n, args.l, cap)
    print(value.render())
    return 0


def _cmd_transgress(args) -> int:
    table = transgression.builtin_table(
        args.space, n=args.n, l=args.l, degree_cap=_degree_cap()
    )
    poly = table.source.poly(args.expr)
    print(transgression.free_suspend(table, poly).render())
    return 0


def _cmd_obstruction(args) -> int:
    descriptor = _open_descriptor(args.descriptor)
    print(towers.obstruction(args.level, descriptor).render())
    return 0


def _cmd_count(args) -> int:
    descriptor = _open_descriptor(args.descriptor)
    group = towers.count_structures(
        args.level, descriptor.cohomology_m, descriptor.cohomology_lm
    )
    print(group.render())
    return 0


def _cmd_gch(args) -> int:
    model = _model(args)
    kind = qtheta.WittenKind.parse(args.kind)
    series = qtheta.gch_witten(model, kind, args.q_order, method=args.method)
    if args.normalize:
        series = qtheta.normalize_gch(series, kind, args.n, args.q_order)
    if args.descend:
        series = qtheta.descend_gch(series, model)
    print(series.render())
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_all(max_n=args.max_n, q_order=args.q_order)
    failed = False
    for result in results:
        print(result.line())
        failed = failed or not result.ok
    if failed:
        print("verification FAILED", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracchern",
        description="Exact engine for twisted (fractional) Chern classes, "
        "transgression and Witten gerbe module characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_nl(p):
        p.add_argument("--n", type=int, required=True, help="bundle rank")
        p.add_argument("--l", type=int, required=True, help="twist order (divides n)")

    p = sub.add_parser("frac-chern", help="fractional Chern class c_k^{l,a}")
    add_nl(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--basis", choices=("roots", "elementary"), default="elementary")
    p.add_argument("--oracle", action="store_true", help="also run the brute-force expansion and compare")
    p.set_defaults(fn=_cmd_frac_chern)

    p = sub.add_parser("change-triv", help="class after changing the trivialization by x")
    add_nl(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_change_triv)

    p = sub.add_parser("universal", help="universal pullback classes of the towers")
    p.add_argument("--map", choices=("phi", "phi2", "xi2", "lphi2"), required=True)
    add_nl(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_universal)

    p = sub.add_parser("transgress", help="free suspension of a class")
    p.add_argument("--space", required=True, help="BUn, BUn_l, BSpinc, BU1 or BU1xBUn")
    p.add_argument("--expr", required=True, help="polynomial over the space's ring")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(fn=_cmd_transgress)

    p = sub.add_parser("obstruction", help="obstruction pair of a level on a descriptor")
    p.add_argument("--level", choices=towers.LEVELS, required=True)
    p.add_argument("--descriptor", required=True, help="descriptor JSON path, or - for stdin")
    p.set_defaults(fn=_cmd_obstruction)

    levels = "{" + ",".join(towers.LEVELS) + "}"
    p = sub.add_parser(
        "count",
        help="group parametrizing the level's structures",
        usage=_usage("fracchern count", f"[-h] --level {levels} --descriptor", "DESCRIPTOR"),
    )
    p.add_argument("--level", choices=towers.LEVELS, required=True)
    p.add_argument("--descriptor", required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("gch", help="graded character of a Witten gerbe module")
    p.add_argument("--kind", choices=("theta2", "theta3"), required=True)
    add_nl(p)
    p.add_argument("--q-order", dest="q_order", type=int, default=4)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--descend", action="store_true")
    p.add_argument(
        "--method",
        choices=("theta_product", "lambda_tensor", "both"),
        default="theta_product",
    )
    p.set_defaults(fn=_cmd_gch)

    p = sub.add_parser("verify", help="run every acceptance sweep")
    p.add_argument("--max-n", dest="max_n", type=int, default=8)
    p.add_argument("--q-order", dest="q_order", type=int, default=4)
    p.set_defaults(fn=_cmd_verify)

    # set after add_subparsers, which would take it as the subcommands' prog
    parser.usage = _usage("fracchern", "[-h]", "{" + ",".join(sub.choices) + "}", "...")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ExpressionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
