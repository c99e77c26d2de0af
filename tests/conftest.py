from __future__ import annotations

from hypothesis import HealthCheck, settings

from barriers.barrier import Canonical, Derived, ExactSize, Plus, Product, Restrict, Schreier
from barriers.ordinals import OMEGA, Ordinal, omega_pow, parse_ordinal
from barriers.seqs import GroundSet, Tail
from barriers.solver import verify_free, verify_mono, verify_rainbow, verify_thin

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")

EVENS = GroundSet(tail=Tail(0, 2))

# The three specs whose front is {()}, one member with no coordinates.
EMPTY_MEMBER_SPECS: dict[str, object] = {
    "exact:0": ExactSize(0),
    "canonical:0": Canonical(Ordinal.from_int(0)),
    "product(exact:0, exact:0)": Product(ExactSize(0), ExactSize(0)),
}

# Specs exercised across the suite.  Keys double as report labels.
SPEC_POOL: dict[str, object] = {
    "exact:1": ExactSize(1),
    "exact:2": ExactSize(2),
    "exact:3": ExactSize(3),
    "schreier": Schreier(),
    "canonical:0": Canonical(parse_ordinal("0")),
    "canonical:1": Canonical(parse_ordinal("1")),
    "canonical:2": Canonical(parse_ordinal("2")),
    "canonical:3": Canonical(parse_ordinal("3")),
    "canonical:w": Canonical(OMEGA),
    "canonical:w+1": Canonical(parse_ordinal("w + 1")),
    "canonical:w*2": Canonical(parse_ordinal("w*2")),
    "canonical:w^2": Canonical(parse_ordinal("w^2")),
    "canonical:w^w": Canonical(omega_pow(OMEGA)),
    "plus(schreier)": Plus(Schreier()),
    "product(exact:1, schreier)": Product(ExactSize(1), Schreier()),
    "derived(schreier, 2)": Derived(Schreier(), 2),
}

EXTRA_POOL: dict[str, object] = {
    "restrict(schreier, evens)": Restrict(Schreier(), EVENS),
    "plus(exact:2)": Plus(ExactSize(2)),
    "product(exact:2, exact:1)": Product(ExactSize(2), ExactSize(1)),
}

# The reduction grid of the acceptance battery's criterion 5.  In this order,
# so that each barrier keeps its seeds as the grid grows.
REDUCTION_BARRIERS = {
    "canonical:w": Canonical(OMEGA),
    "exact:1": ExactSize(1),
    "exact:2": ExactSize(2),
    "schreier": Schreier(),
    "derived(schreier, 2)": SPEC_POOL["derived(schreier, 2)"],
    "restrict(schreier, evens)": EXTRA_POOL["restrict(schreier, evens)"],
}

# (reduction, declared bound of the rainbow instances)
REDUCTION_ARMS = (
    ("fs-to-rt", None),
    ("ts-to-rt", None),
    ("ts-to-fs", None),
    ("rrt-to-rt", 2),
    ("rrt-to-rt", 3),
    ("rrt2-to-fs", None),
)


def colorings(n, top, k=None):
    """The colorings of n members up to a renaming of the colors above top,
    each class once: colors up to top are kept as they are, the others are
    numbered from top + 1 in order of first use, and with k no color has
    more than k members.  With top = -1 these are the restricted growth
    strings (Knuth, TAOCP 4A, 7.2.1.5)."""
    out = [()]
    for _ in range(n):
        out = [s + (c,) for s in out for c in range(max((*s, top)) + 2) if k is None or s.count(c) < k]
    return out


def holds(prop, f, h, universe=None):
    """Whether H has the property for f, by its verify_* definition on the
    front of H; thin omits a color of the given universe."""
    if prop == "thin":
        return verify_thin(f, h, universe)
    return {"mono": verify_mono, "free": verify_free, "rainbow": verify_rainbow}[prop](f, h)
