"""Span tracer for the benchmark's per-layer run.

The tracer wraps the public functions of each program module from the
outside: it rebinds every name under which a function is reachable (its
defining module, each module that imported it by name, each alias in its
class) to a wrapper that times the call.  Self time comes from a span
stack: a span's self time is its duration minus the time of the spans it
caused, so a recursive call (``gch_witten``, ``builtin_morphism``,
``obstruction``) is not counted twice.  ``uninstall`` puts every original
binding back.

Metric names are ``<layer>.<function>.calls`` and ``.self_s``, plus the
counts a span's ``extra`` hook adds from its arguments and result.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _kernel_extra(stats, args, result):
    pairs = len(args[0]) * len(args[1])
    stats["kernel.mul_terms.pairs"] += pairs
    stats["kernel.mul_terms.terms_out"] += len(result)


def _morphism_extra(stats, args, result):
    stats["gcring.morphism_apply.terms_in"] += len(args[1]._terms)


def _parser_extra(stats, args, result):
    stats["parser.parse_polynomial.chars_in"] += len(args[0])


# (module, qualified name in it, span name, extra counts hook).  The kernel
# span is taken from _kernel, so it wraps whichever kernel was selected.
SPANS = (
    ("fracchern._kernel", "mul_terms", "kernel.mul_terms", _kernel_extra),
    ("fracchern.gcring", "GradedPolynomial.__add__", "gcring.add", None),
    ("fracchern.gcring", "GradedPolynomial.terms", "gcring.terms", None),
    ("fracchern.gcring", "GradedPolynomial.render", "gcring.render", None),
    ("fracchern.gcring", "RingMorphism.__call__", "gcring.morphism_apply", _morphism_extra),
    ("fracchern.parser", "parse_polynomial", "parser.parse_polynomial", _parser_extra),
    ("fracchern.symroots", "find_asymmetry", "symroots.find_asymmetry", None),
    ("fracchern.symroots", "express_in_elementary", "symroots.express_in_elementary", None),
    ("fracchern.symroots", "shifted_total_chern", "symroots.shifted_total_chern", None),
    ("fracchern.qtheta", "qseries_mul", "qtheta.qseries_mul", None),
    ("fracchern.qtheta", "qseries_div_unit", "qtheta.qseries_div_unit", None),
    ("fracchern.qtheta", "theta_series", "qtheta.theta_series", None),
    ("fracchern.qtheta", "formal_exp", "qtheta.formal_exp", None),
    ("fracchern.qtheta", "gch_witten", "qtheta.gch_witten", None),
    ("fracchern.qtheta", "normalize_gch", "qtheta.normalize_gch", None),
    ("fracchern.qtheta", "descend_gch", "qtheta.descend_gch", None),
    ("fracchern.spaces", "space_ring", "spaces.space_ring", None),
    ("fracchern.towers", "descriptor_from_json", "towers.descriptor_from_json", None),
    ("fracchern.towers", "builtin_morphism", "towers.builtin_morphism", None),
    ("fracchern.towers", "obstruction", "towers.obstruction", None),
    ("fracchern.transgression", "free_suspend", "transgression.free_suspend", None),
    ("fracchern.transgression", "builtin_table", "transgression.builtin_table", None),
    ("fracchern.cli", "build_parser", "cli.build_parser", None),
    ("fracchern.cli", "main", "cli.main", None),
)

# counts and times every traced run reports, zero when a workload never
# reaches the span
SPAN_METRICS = tuple(
    metric
    for _, _, span, _ in SPANS
    for metric in (f"{span}.calls", f"{span}.self_s")
) + (
    "kernel.mul_terms.pairs",
    "kernel.mul_terms.terms_out",
    "gcring.morphism_apply.terms_in",
    "parser.parse_polynomial.chars_in",
)


# import-site bindings a traced run must have wrapped, as module.attribute
IMPORT_SITES = (
    "fracchern.gcring.mul_terms",
    "fracchern._kernel.mul_terms",
    "fracchern.qtheta.express_in_elementary",
    "fracchern.towers.space_ring",
    "fracchern.verify.space_ring",
    "fracchern.towers.free_suspend",
    "fracchern.transgression.builtin_table",
)


def _resolve(module_name: str, qualname: str):
    """(namespace object, attribute) binding qualname."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def bindings(original) -> list:
    """Every (namespace, attribute) under which the program binds
    ``original``: globals of any loaded fracchern module, and class
    attributes aliasing it (``__radd__ = __add__``)."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if name != "fracchern" and not name.startswith("fracchern."):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
            elif isinstance(value, type) and value.__module__ == name:
                found.extend(
                    (value, cattr) for cattr, cval in vars(value).items() if cval is original
                )
    return found


class Tracer:
    """Span stack and per-span totals; install once, uninstall once."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(float)
        self.self_total = 0.0  # sum of every span's self time
        self._stack = []  # per open span: time spent in the spans it caused
        self._saved = []  # (namespace, attribute, original)

    def _wrap(self, original, span, extra):
        clock = self.clock
        stats = self.stats
        stack = self._stack
        calls_key = f"{span}.calls"
        self_key = f"{span}.self_s"

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - stack.pop()
                stats[self_key] += own
                stats[calls_key] += 1
                self.self_total += own
                if stack:
                    stack[-1] += duration
            if extra is not None:
                extra(stats, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, spans=SPANS) -> None:
        for module_name, qualname, span, extra in spans:
            owner, attr = _resolve(module_name, qualname)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, span, extra)
            for namespace, name in bindings(original):
                self._saved.append((namespace, name, original))
                setattr(namespace, name, wrapper)

    def uninstall(self) -> list:
        """Restore every binding; return those that did not come back."""
        for namespace, name, original in reversed(self._saved):
            setattr(namespace, name, original)
        broken = [
            f"{getattr(ns, '__name__', ns)}.{name}"
            for ns, name, original in self._saved
            if vars(ns)[name] is not original
        ]
        self._saved.clear()
        return broken

    @property
    def wrapped(self) -> list:
        """Names of the bindings currently wrapped, as module.attribute."""
        return [f"{getattr(ns, '__name__', ns)}.{name}" for ns, name, _ in self._saved]

    def op(self, fn, *args):
        """Run fn(*args) as one op under a root span.

        Returns (result or None, raised exception or None, wall seconds,
        unattributed seconds, traced self seconds), where unattributed is
        the op time no span covers; traced self plus unattributed equals
        wall.
        """
        if self._stack:
            raise RuntimeError("an op is already open")
        before = self.self_total
        self._stack.append(0.0)
        start = self.clock()
        result, error = None, None
        try:
            result = fn(*args)
        except Exception as exc:  # a failing op is counted, not fatal
            error = exc
        wall = self.clock() - start
        unattributed = wall - self._stack.pop()
        self.stats["op.calls"] += 1
        self.stats["op.unattributed_s"] += unattributed
        return result, error, wall, unattributed, self.self_total - before
