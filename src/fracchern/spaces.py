"""Ring presentations for the classifying spaces of both lifting towers.

Every space is modeled only through a truncated free graded-commutative
presentation on the generators listed below (no homotopy types).  Loop
spaces carry their low-degree generator tables; rational spaces use
``*Q``-suffixed generator names.  Twist-type generators (g, cb1, zb1,
h, sp1, ...) are declared first so that rendered classes come out in
the conventional order ("c1 - g", "c2 - 1/4*cb1^2", ...).

``space_ring`` alone sets a named space's degree cap, so one space always
gets one ring: callers pass the cap they were given, or None, straight
through.  ``working_cap`` is the root models' rule (raised to 2n).
"""

from .errors import PreconditionError
from .gcring import RingPresentation

# the cohomology degree kept by every rank-n computation unless asked otherwise
DEFAULT_CAP = 12


def check_n_l(n: int, l: int, require_higher: bool = False) -> int:
    """s = n/l for a rank-n module twisted by an order-l gerbe, l | n."""
    if n < 1 or l < 1:
        raise PreconditionError("n and l must be positive")
    if n % l:
        raise PreconditionError(f"l={l} must divide n={n}")
    if require_higher and l == 1:
        raise PreconditionError("the higher towers require l > 1")
    return n // l


def working_cap(n: int, degree_cap: int | None = None) -> int:
    """``degree_cap`` (DEFAULT_CAP if not given), raised to 2n for rank n."""
    return max(degree_cap or DEFAULT_CAP, 2 * n)


def _chern(n, lo, suffix=""):
    """c_lo .. c_n, of degrees 2*lo .. 2n."""
    return [(f"c{k}{suffix}", 2 * k) for k in range(lo, n + 1)]


# name -> (generators as a function of n, needs n, needs l)
_SPACES = {
    "BU1": (lambda n: [("g", 2)], False, False),
    "BUn": (lambda n: _chern(n, 1), True, False),
    "BUnQ": (lambda n: _chern(n, 1, "Q"), True, False),
    "BU1xBUn": (lambda n: [("g", 2)] + _chern(n, 1), True, False),
    "BUn_l": (lambda n: [("cb1", 2)] + _chern(n, 2), True, True),
    "BSUnQ": (lambda n: _chern(n, 2, "Q"), True, False),
    "BU6n_l": (lambda n: [("cb1", 2)] + _chern(n, 3), True, True),
    "BU6nQ": (lambda n: _chern(n, 3, "Q"), True, False),
    "BLU1": (lambda n: [("h", 1), ("g", 2)], False, False),
    "BLUn": (lambda n: [("z1", 1), ("c1", 2), ("z2", 3), ("c2", 4)], False, False),
    "BLUnQ": (lambda n: [("z1Q", 1), ("c1Q", 2), ("z2Q", 3), ("c2Q", 4)], False, False),
    "BLU1xBLUn": (
        lambda n: [("h", 1), ("g", 2), ("z1", 1), ("c1", 2), ("z2", 3), ("c2", 4)],
        False,
        False,
    ),
    "BLUbar_n_l": (lambda n: [("zb1", 1), ("g", 2), ("c1", 2), ("z2", 3), ("c2", 4)], False, True),
    "BL0UnQ": (lambda n: [("c1Q", 2), ("z2Q", 3)], False, False),
    "BLUn_l": (lambda n: [("zb1", 1), ("cb1", 2), ("z2", 3), ("c2", 4)], False, True),
    "BLSUnQ": (lambda n: [("z2Q", 3), ("c2Q", 4)], False, False),
    "BhatLSUn_l": (lambda n: [("zb1", 1), ("cb1", 2), ("c2", 4)], False, True),
    "BhatLSUnQ": (lambda n: [("c2Q", 4)], False, False),
    "BSpinc": (lambda n: [("t", 2), ("q1", 4)], False, False),
    "BLSpinc": (lambda n: [("sp1", 1), ("t", 2), ("mu", 3)], False, False),
    "S1": (lambda n: [("h", 1)], False, False),
}

SPACE_NAMES = tuple(_SPACES)


def space_ring(name: str, n: int | None = None, l: int | None = None, degree_cap: int | None = None) -> RingPresentation:
    """Presentation of H^{<= cap} for the named space: the one rule for a
    named space's cap is ``degree_cap`` (DEFAULT_CAP if not given), raised
    to the space's top generator degree."""
    if name not in _SPACES:
        raise PreconditionError(f"unknown space {name!r}")
    generators, needs_n, needs_l = _SPACES[name]
    if needs_n:
        if n is None or n < 1:
            raise PreconditionError(f"space {name} needs a positive rank n")
    if needs_l:
        if l is None or l < 1:
            raise PreconditionError(f"space {name} needs a positive order l")
        if l == 1:
            raise PreconditionError(
                f"space {name} belongs to the higher towers and requires l > 1"
            )
        if n is not None and n % l:
            raise PreconditionError(f"l={l} must divide n={n}")
    gens = generators(n)
    return RingPresentation(gens, max(degree_cap or DEFAULT_CAP, max((d for _, d in gens), default=0)))
