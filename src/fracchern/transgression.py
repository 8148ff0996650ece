"""Free suspension (transgression) as a degree -1 derivation.

A :class:`DerivationTable` records nu on even ring generators; Leibniz
extends it to polynomials in those generators:

    nu(x y) = nu(x) y + (-1)^{|x|} nu(y) x

with the target-side copies of x, y given by the identity-on-names
embedding.  nu is only defined on polynomials in even generators: every
use in the towers applies it to c-type classes, and extending to odd
arguments would need a sign convention the tables never exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import spaces
from .errors import PreconditionError
from .gcring import GradedPolynomial, RingMorphism, RingPresentation, _sum_of_products, element_of_degree


@dataclass
class DerivationTable:
    """nu on generators: each even source generator may map to an
    odd target class one degree lower."""

    source: RingPresentation
    target: RingPresentation
    values: dict

    def __post_init__(self):
        checked = {}
        for name, value in self.values.items():
            if name not in self.source.index:
                raise PreconditionError(f"unknown source generator {name!r}")
            gen = self.source.generators[self.source.index[name]]
            if gen.is_odd:
                raise PreconditionError(
                    f"odd generator {name} cannot carry a transgression value"
                )
            checked[name] = element_of_degree(
                self.target, value, gen.degree - 1, f"value of {name}"
            )
        self.values = checked


def free_suspend(table: DerivationTable, p: GradedPolynomial) -> GradedPolynomial:
    """Leibniz extension of the generator table; linear, kills constants."""
    if p.ring != table.source:
        raise PreconditionError("polynomial is not over the table's source ring")
    source = table.source
    target = table.target
    pairs = []  # (value, cofactor), summed once
    for exps, coef in p.terms():
        used = [(i, e) for i, e in enumerate(exps) if e]
        for i, _ in used:
            gen = source.generators[i]
            if gen.is_odd:
                raise PreconditionError(
                    f"free suspension is undefined on odd generator {gen.name}"
                )
            if gen.name not in table.values:
                raise PreconditionError(
                    f"no transgression value for generator {gen.name}"
                )
        for i, e in used:
            cof_exps = [0] * len(target.generators)
            for j, ej in used:
                remaining = ej - (1 if j == i else 0)
                if not remaining:
                    continue
                name = source.names[j]
                idx = target.index.get(name)
                if idx is None or target.degrees[idx] != source.degrees[j]:
                    raise PreconditionError(
                        f"generator {name} has no namesake in the target ring"
                    )
                cof_exps[idx] = remaining
            cofactor = target.from_exponents({tuple(cof_exps): coef * e})
            pairs.append((table.values[source.names[i]], cofactor))
    return _sum_of_products(target, pairs)


# source space -> (loop space, nu on generators as a function of n and l);
# values of generators the source ring lacks (c2 when n = 1) are dropped
_TABLES = {
    "BUn": ("BLUn", lambda n, l: {"c1": "z1", "c2": "z2 + z1*c1"}),
    "BUn_l": ("BLUn_l", lambda n, l: {"cb1": "zb1", "c2": f"z2 + {(n // l) ** 2}*zb1*cb1"}),
    "BSpinc": ("BLSpinc", lambda n, l: {"t": "sp1", "q1": "mu - sp1*t"}),
    "BU1": ("BLU1", lambda n, l: {"g": "h"}),
    "BU1xBUn": ("BLU1xBLUn", lambda n, l: {"g": "h", "c1": "z1", "c2": "z2 + z1*c1"}),
}


def builtin_table(space_name: str, n: int | None = None, l: int | None = None, degree_cap: int | None = None) -> DerivationTable:
    """Transgression tables of the classifying spaces used by the towers."""
    if space_name not in _TABLES:
        raise PreconditionError(f"no builtin transgression table for {space_name!r}")
    loop_name, values = _TABLES[space_name]
    src = spaces.space_ring(space_name, n=n, l=l, degree_cap=degree_cap)
    tgt = spaces.space_ring(loop_name, n=n, l=l, degree_cap=degree_cap)
    kept = {name: value for name, value in values(n, l).items() if name in src.index}
    return DerivationTable(src, tgt, kept)


@dataclass
class NaturalityReport:
    ok: bool
    generator_results: dict
    samples_checked: int = 0
    failures: list = field(default_factory=list)

    def __str__(self):
        lines = [f"naturality: {'ok' if self.ok else 'FAILED'}"]
        for name, good in self.generator_results.items():
            lines.append(f"  {name}: {'ok' if good else 'MISMATCH'}")
        lines.append(f"  random monomials checked: {self.samples_checked}")
        lines.extend(f"  {msg}" for msg in self.failures)
        return "\n".join(lines)


def _random_even_monomial(rng, table: DerivationTable):
    """A random product of valued generators staying under the degree cap."""
    names = sorted(table.values.keys())
    cap = min(table.source.degree_cap, table.target.degree_cap + 1)
    poly = table.source.one()
    degree = 0
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(names)
        gen_degree = table.source.degrees[table.source.index[name]]
        if degree + gen_degree > cap:
            break
        poly = poly * table.source.gen(name)
        degree += gen_degree
    return poly


def naturality_check(
    f: RingMorphism,
    Lf: RingMorphism,
    nu_src: DerivationTable,
    nu_tgt: DerivationTable,
    samples: int = 20,
    seed: int = 0,
) -> NaturalityReport:
    """Check nu_tgt(f(x)) == Lf(nu_src(x)) on generators and random monomials."""
    if f.source != nu_src.source or f.target != nu_tgt.source:
        raise PreconditionError("morphism f is not compatible with the tables")
    if Lf.source != nu_src.target or Lf.target != nu_tgt.target:
        raise PreconditionError("morphism Lf is not compatible with the tables")
    results = {}
    failures = []
    for name in nu_src.values:
        x = f.source.gen(name)
        lhs = free_suspend(nu_tgt, f(x))
        rhs = Lf(free_suspend(nu_src, x))
        results[name] = lhs == rhs
        if not results[name]:
            failures.append(f"generator {name}: {lhs} != {rhs}")
    rng = random.Random(seed)
    checked = 0
    # with no values nu is zero, so every square commutes: nothing to sample
    for _ in range(samples if nu_src.values else 0):
        x = _random_even_monomial(rng, nu_src)
        try:
            lhs = free_suspend(nu_tgt, f(x))
            rhs = Lf(free_suspend(nu_src, x))
        except PreconditionError:
            continue
        checked += 1
        if lhs != rhs:
            failures.append(f"monomial {x}: {lhs} != {rhs}")
    ok = all(results.values()) and not failures
    return NaturalityReport(ok, results, checked, failures)
