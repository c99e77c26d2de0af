from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from barriers.barrier import Canonical, Derived, ExactSize, Plus, Product, Restrict, Schreier
from barriers.ordinals import OMEGA, omega_pow, parse_ordinal
from barriers.seqs import GroundSet, Tail

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")

EVENS = GroundSet(tail=Tail(0, 2))

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


@pytest.fixture(scope="session")
def spec_pool():
    return dict(SPEC_POOL)


@pytest.fixture(scope="session")
def full_pool():
    return {**SPEC_POOL, **EXTRA_POOL}


@pytest.fixture(scope="session")
def evens():
    return EVENS
