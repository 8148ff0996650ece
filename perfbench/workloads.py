"""The benchmark's three workloads.

Each workload has a fixed, finite catalogue of ops.  The run's seed only
chooses the order in which the catalogue is walked (see ``rounds``), so
every seed exercises the same mix and the goldens in ``goldens.json`` cover
every op.  A workload builds its shared state in ``set_up``, which returns
the warm-up ops (one per model) to run before timing, and checks every
op's output in ``run``, which returns True when the output is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from fracchern import cli, qtheta, symroots
from fracchern.symroots import RootModel

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
FIXTURES = ("su_n4l2.json", "symbolic_n4l2.json", "u6_n4l2.json")

# the CLI catalogue's expressions come from this fixed seed, not the run seed,
# so that the catalogue and its goldens stay finite and fixed
CATALOGUE_SEED = 20220329


def divisors(n: int) -> list:
    return [l for l in range(1, n + 1) if n % l == 0]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def spread(items: list, key, rng: random.Random) -> list:
    """One seeded permutation of ``items`` that spreads every class
    ``key(item)`` evenly along the order.

    Item j of a class of size m lands near position (j + u)/m of the round,
    u drawn once per class, so any prefix of the round holds about its share
    of every class.  A run cut by its deadline then sees the same mix of
    cheap and costly ops whatever the seed.
    """
    classes: dict = {}
    for item in items:
        classes.setdefault(key(item), []).append(item)
    placed = []
    for members in classes.values():
        rng.shuffle(members)
        offset = rng.random()
        for j, item in enumerate(members):
            placed.append(((j + offset) / len(members), rng.random(), len(placed), item))
    placed.sort()
    return [item for *_, item in placed]


def rounds(workload, seed: int):
    """Endless op sequence: seeded rounds, each a spread of the catalogue."""
    rng = random.Random(seed)
    while True:
        yield from spread(workload.catalogue, workload.spread_key, rng)


class OracleSweep:
    """Criterion 1 with a seeded order: closed form vs brute force."""

    name = "oracle_sweep"

    def __init__(self):
        self.catalogue = [
            (n, l, k) for n in range(4, 10) for l in divisors(n) for k in range(1, n + 1)
        ]
        self.models = {}

    @staticmethod
    def spread_key(op):
        return op[0]

    def set_up(self) -> list:
        warm_ups = []
        for n, l, _ in self.catalogue:
            if (n, l) not in self.models:
                self.models[(n, l)] = RootModel(n, l, degree_cap=2 * n)
                warm_ups.append((n, l, 1))
        return warm_ups

    def run(self, op) -> bool:
        n, l, k = op
        model = self.models[(n, l)]
        return symroots.fractional_chern_closed(model, k) == symroots.fractional_chern_brute(model, k)


class WittenSeries:
    """Criterion 9 with a seeded order: both character routes, then
    normalization, descent and rendering, checked against a digest."""

    name = "witten_series"
    DEGREE_CAP = 8

    def __init__(self):
        self.catalogue = [
            (n, l, kind, q)
            for n in range(1, 5)
            for l in divisors(n)
            for kind in ("theta2", "theta3")
            for q in (2, 3, 4)
        ]
        self.models = {}
        self.goldens = {}

    @staticmethod
    def spread_key(op):
        return (op[0], op[3])

    @staticmethod
    def golden_key(op) -> str:
        n, l, kind, q = op
        return f"n={n} l={l} {kind} q={q}"

    def build_models(self) -> list:
        warm_ups = []
        for n, l, _, _ in self.catalogue:
            if (n, l) not in self.models:
                self.models[(n, l)] = RootModel(n, l, degree_cap=self.DEGREE_CAP)
                warm_ups.append((n, l, "theta2", 2))
        return warm_ups

    def set_up(self) -> list:
        self.goldens = load_goldens()[self.name]
        return self.build_models()

    def output(self, op) -> str:
        n, l, kind_name, q = op
        model = self.models[(n, l)]
        kind = qtheta.WittenKind.parse(kind_name)
        series = qtheta.gch_witten(model, kind, q, method="both")
        series = qtheta.normalize_gch(series, kind, n, q)
        return qtheta.descend_gch(series, model).render()

    def run(self, op) -> bool:
        return digest(self.output(op)) == self.goldens[self.golden_key(op)]


def _atom(rng: random.Random, names: list) -> str:
    name = rng.choice(names)
    power = rng.choice(("", "", "^2", "^3"))
    coef = rng.choice(("", "", "2*", "3/2*", "-1/4*"))
    return f"{coef}{name}{power}"


def expression(rng: random.Random, names: list, budget: int) -> str:
    """A random sum of products over ``names`` of roughly ``budget`` tokens;
    factors nest as parenthesized sub-expressions when the budget allows."""
    terms = []
    used = 0
    while used < budget:
        factors = []
        for _ in range(rng.randint(1, 2)):
            room = budget - used
            if room > 16 and rng.random() < 0.4:
                inner = rng.randint(6, room // 2)
                factors.append(f"({expression(rng, names, inner)})")
                used += inner + 2
            else:
                factors.append(_atom(rng, names))
                used += 3
        terms.append("*".join(factors))
        used += len(factors)
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


# transgress spaces with the CLI flags they need and the generators their
# expressions use: ones that carry a transgression value and, for BSpinc,
# only t, because the suspension of a product with q1 leaves a q1 that the
# loop ring lacks
TRANSGRESS_SPACES = (
    ("BUn", ("--n", "4"), ("c1", "c2")),
    ("BUn_l", ("--n", "4", "--l", "2"), ("cb1", "c2")),
    ("BSpinc", (), ("t",)),
    ("BU1", (), ("g",)),
    ("BU1xBUn", ("--n", "2"), ("g", "c1", "c2")),
)
# token budgets of the short, medium and long expression classes; the
# generator overshoots, giving about 10, 35 and 100 parser tokens
EXPRESSION_TOKENS = {"short": 4, "medium": 20, "long": 70}

# requests whose correct answer is exit 1 (parse error) or exit 2
# (precondition violated)
ERROR_REQUESTS = (
    ("transgress", "--space", "BUn", "--expr", "c1 +* c2"),
    ("transgress", "--space", "BUn", "--expr", "c9"),
    ("transgress", "--space", "BUn", "--n", "4", "--expr", "c3*c1"),
    ("transgress", "--space", "BUx", "--expr", "c1"),
    ("frac-chern", "--n", "4", "--l", "3", "--k", "1"),
    ("frac-chern", "--n", "4", "--k", "1"),
    ("universal", "--map", "xi2", "--n", "4", "--l", "2", "--k", "3"),
    ("universal", "--map", "lphi2", "--n", "4", "--l", "2", "--k", "1"),
    ("count", "--level", "loopX", "--descriptor", "src/fracchern/fixtures/su_n4l2.json"),
    ("obstruction", "--level", "fracSU", "--descriptor", "src/fracchern/fixtures/absent.json"),
)


def cli_catalogue() -> list:
    """Every argv of the cli_requests workload, as tuples of strings."""
    out = []
    for n in (2, 4, 6):
        for l in divisors(n):
            for k in range(1, n + 1):
                out.append(("universal", "--map", "phi", "--n", str(n), "--l", str(l), "--k", str(k)))
            if l == 1:
                continue
            for k in range(2, n + 1):
                out.append(("universal", "--map", "phi2", "--n", str(n), "--l", str(l), "--k", str(k)))
            for k in (1, 2):
                out.append(("universal", "--map", "xi2", "--n", str(n), "--l", str(l), "--k", str(k)))
            out.append(("universal", "--map", "lphi2", "--n", str(n), "--l", str(l), "--k", "2"))
    rng = random.Random(CATALOGUE_SEED)
    for space, flags, names in TRANSGRESS_SPACES:
        for budget in EXPRESSION_TOKENS.values():
            for _ in range(3):
                expr = expression(rng, list(names), budget)
                # "--expr=" keeps argparse from reading a leading minus as a flag
                out.append(("transgress", "--space", space, *flags, f"--expr={expr}"))
    out.append(("transgress", "--space", "BSpinc", "--expr", "q1 - 2*t^2"))
    for fixture in FIXTURES:
        path = f"src/fracchern/fixtures/{fixture}"
        for level in ("fracSU", "fracU6", "loopU", "loopSU"):
            out.append(("obstruction", "--level", level, "--descriptor", path))
            out.append(("count", "--level", level, "--descriptor", path))
    for n in (2, 3, 4, 6):
        for l in divisors(n):
            for k in sorted({1, n}):
                out.append(("change-triv", "--n", str(n), "--l", str(l), "--k", str(k)))
    for n in range(1, 5):
        for l in divisors(n):
            for k in range(1, n + 1):
                out.append(("frac-chern", "--n", str(n), "--l", str(l), "--k", str(k), "--oracle"))
    out.extend(ERROR_REQUESTS)
    return out


def call_cli(argv) -> tuple:
    """One in-process ``cli.main`` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return (0 if code is None else code), out.getvalue(), err.getvalue()


class CliRequests:
    """One-shot CLI requests, run in process, checked against goldens."""

    name = "cli_requests"

    def __init__(self):
        self.catalogue = cli_catalogue()
        self.goldens = {}

    @staticmethod
    def spread_key(argv):
        return argv[0]

    def set_up(self) -> list:
        self.goldens = {
            tuple(entry["argv"]): entry for entry in load_goldens()[self.name]
        }
        missing = [argv for argv in self.catalogue if argv not in self.goldens]
        if missing:
            raise KeyError(f"no golden for {len(missing)} catalogue entries, e.g. {missing[0]}")
        first_of_each = {}
        for argv in self.catalogue:
            first_of_each.setdefault(argv[0], argv)
        return list(first_of_each.values())

    def run(self, argv) -> bool:
        code, out, err = call_cli(argv)
        golden = self.goldens[argv]
        return code == golden["exit"] and out == golden["stdout"] and "Traceback" not in err


WORKLOADS = {w.name: w for w in (OracleSweep, WittenSeries, CliRequests)}
