"""Wider exhaustive cells than tier-1's tiny ones, run as their own CI step.

Every class of exact:1 on 0..5 up to a renaming of the colors above 5,
163,967 of them, for the free and thin arms into monochromatic; and every
k-bounded coloring up to a renaming of all colors for the rainbow arms:
568,504 of schreier on 0..6 at k = 2 for rrt-to-rt and rrt2-to-fs, and
61,136 of exact:2 on 0..4 at k = 3 for rrt-to-rt.  Its name lies outside
tier-1's ``test_*.py`` pattern; run it with

    PYTHONPATH=src python -m pytest -q tests/wide_cells.py
"""

from __future__ import annotations

import pytest

from barriers.barrier import ExactSize, Schreier
from barriers.reduction import REDUCTIONS

from test_reduction import _run_cell


@pytest.mark.parametrize("name, bound, spec, ground", [
    ("fs-to-rt", None, ExactSize(1), range(6)),
    ("ts-to-rt", None, ExactSize(1), range(6)),
    ("rrt-to-rt", 2, Schreier(), range(7)),
    ("rrt2-to-fs", None, Schreier(), range(7)),
    ("rrt-to-rt", 3, ExactSize(2), range(5)),
], ids=["fs-to-rt", "ts-to-rt", "rrt-to-rt-k2", "rrt2-to-fs", "rrt-to-rt-k3"])
def test_every_instance_of_a_wide_cell(name, bound, spec, ground):
    failing, powered, _ = _run_cell(REDUCTIONS[name], bound, spec, ground)
    assert failing == []
    assert powered > 0
