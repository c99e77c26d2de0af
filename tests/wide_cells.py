"""A wider exhaustive cell than tier-1's tiny ones, run as its own CI step.

Every class of exact:1 on 0..5 up to a renaming of the colors above 5,
163,967 of them, for the free and thin arms into monochromatic.  Its name
lies outside tier-1's ``test_*.py`` pattern; run it with

    PYTHONPATH=src python -m pytest -q tests/wide_cells.py
"""

from __future__ import annotations

import pytest

from barriers.barrier import ExactSize
from barriers.reduction import REDUCTIONS

from test_reduction import _run_cell


@pytest.mark.parametrize("name", ["fs-to-rt", "ts-to-rt"])
def test_every_class_of_exact_1_on_0_to_5(name):
    failing, powered = _run_cell(REDUCTIONS[name], None, ExactSize(1), range(6))
    assert failing == []
    assert powered > 0
