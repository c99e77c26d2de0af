"""Computable combinatorics of Nash-Williams barriers.

Barriers are given intensionally as constructor trees and queried through a
classification rule; on top of that sit front enumeration, brute-force
searches for monochromatic, free, thin and rainbow solution sets, executable
reductions between those principles with exhaustive finite validation, and
stage-based diagonalizing colorings evaluated against mock limit oracles.
"""

from .ordinals import OMEGA, ONE, ZERO, Ordinal, add, compare, fund_seq, mul, omega_pow, parse_ordinal
from .seqs import GroundSet, Seq, Tail, as_seq, seq_minus
from .barrier import (
    Canonical,
    Classification,
    Derived,
    ELEMENT,
    ExactSize,
    InternalInvariantError,
    NOT_IN_BASE,
    NotInBaseError,
    OVERRUN,
    PROPER_PREFIX,
    Plus,
    Product,
    Restrict,
    Schreier,
    VariantRangeError,
    append_variant,
    check_sperner,
    classify,
    density_probe,
    enum_rank,
    front,
    in_base,
    make_derived,
    make_product,
    make_restrict,
    order_type,
    step,
    variant,
)
from .coloring import Coloring, builtin_coloring, check_bounded, table_coloring
from .solver import Witness, find, verify_free, verify_mono, verify_rainbow, verify_thin
from .reduction import (
    REDUCTIONS,
    FreeToMonoColoring,
    check_reduction,
    rrt2_fs_forward,
    rrt_rt_forward,
    ts_rt_forward,
)
from .diag import (
    OracleEntry,
    OracleFamily,
    StagedColoring,
    code_seq,
    f_approx,
    pair,
    unpair,
    verify_defeat_rainbow,
    verify_defeat_thin,
)

__version__ = "0.1.0"
