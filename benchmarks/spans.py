"""Spans and counts around the calls into each module's public functions.

:func:`install` wraps each function listed in ``SPANS`` at every attribute
of a loaded ``barriers`` module that binds it, so that calls between layers
are caught as well: ``front`` is wrapped as ``barriers.solver.front``,
``barriers.reduction.front`` and ``barriers.coloring.front`` as well as
``barriers.barrier.front``.  Methods are wrapped on their class.  The
program's own files are not touched.

Spans are aggregated by name as they close, rather than stored one by one,
because a traced item makes millions of calls.  A span's self time is its
duration minus the part its child spans cover, and what a wrapper spends on
its own bookkeeping is charged to neither.  Every count is a pure function
of the workload, so two traced runs of one seed give equal counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

# span name -> (defining module, attribute); "Class.method" names a method.
SPANS = {
    "barrier.front": [("barrier", "front")],
    "barrier.density_probe": [("barrier", "density_probe")],
    "barrier.check_sperner": [("barrier", "check_sperner")],
    "barrier.step": [("barrier", "step")],
    "barrier.classify": [("barrier", "classify")],
    "barrier.variant": [("barrier", "variant")],
    "barrier.ranked_up_to": [("barrier", "ranked_up_to")],
    "ordinals.pred": [("ordinals", "pred")],
    "ordinals.fund_seq": [("ordinals", "fund_seq")],
    "ordinals.other": [("ordinals", n) for n in ("compare", "add", "mul", "omega_pow", "parse_ordinal")],
    "seqs.as_seq": [("seqs", "as_seq")],
    "coloring.eval": [("coloring", "Coloring.__call__")],
    "solver.find": [("solver", "find")],
    "solver.verify": [("solver", n) for n in ("verify_mono", "verify_free", "verify_thin", "verify_rainbow")],
    "reduction.check_reduction": [("reduction", "check_reduction")],
    "reduction.fs_memo": [("reduction", "FreeToMonoColoring.__init__")],
    "diag.verify_defeat": [("diag", "verify_defeat_thin"), ("diag", "verify_defeat_rainbow")],
    "diag.stage_colors": [("diag", "StagedColoring.stage_colors")],
    "diag.staged": [("diag", "StagedColoring.__init__")],
    "diag.code_seq": [("diag", "code_seq")],
    "jsonio.decode": [("jsonio", n) for n in ("spec_from_json", "ground_from_json", "coloring_from_json", "family_from_json")],
    "cli.main": [("cli", "main")],
    "parallel.pmap": [("parallel", "pmap")],
}

ERROR_LAYERS = ("barrier", "coloring", "solver", "reduction", "diag", "cli")

# name -> unit of every per-layer metric, in report order.
METRICS = {
    "barrier.front.calls": "count",
    "barrier.front.self_s": "s",
    "barrier.front.members": "count",
    "barrier.front.ground_elems": "count",
    "barrier.density_probe.calls": "count",
    "barrier.density_probe.self_s": "s",
    "barrier.density_probe.subsets": "count",
    "barrier.check_sperner.self_s": "s",
    "barrier.check_sperner.pairs": "count",
    "barrier.step.calls": "count",
    "barrier.step.self_s": "s",
    "barrier.step.coords": "count",
    "barrier.classify.calls": "count",
    "barrier.classify.self_s": "s",
    "barrier.variant.calls": "count",
    "barrier.variant.self_s": "s",
    "barrier.ranked_up_to.calls": "count",
    "barrier.ranked_up_to.self_s": "s",
    "ordinals.pred.calls": "count",
    "ordinals.fund_seq.calls": "count",
    "ordinals.self_s": "s",
    "seqs.as_seq.calls": "count",
    "seqs.as_seq.self_s": "s",
    "coloring.eval.calls": "count",
    "coloring.eval.self_s": "s",
    "coloring.eval.distinct": "count",
    "coloring.eval.repeat_ratio": "ratio",
    "solver.find.calls": "count",
    "solver.find.self_s": "s",
    "solver.find.subsets": "count",
    "solver.find.exhausted": "count",
    "solver.verify.calls": "count",
    "reduction.check_reduction.calls": "count",
    "reduction.check_reduction.self_s": "s",
    "reduction.check_reduction.subsets": "count",
    "reduction.check_reduction.witnesses": "count",
    "reduction.witness_ratio": "ratio",
    "reduction.fs_memo.entries": "count",
    "reduction.fs_memo.max_chain": "count",
    "diag.verify_defeat.calls": "count",
    "diag.verify_defeat.self_s": "s",
    "diag.stage_colors.calls": "count",
    "diag.stage_colors.self_s": "s",
    "diag.stages": "count",
    "diag.code_seq.self_s": "s",
    "diag.code_bits_max": "bit",
    "jsonio.decode.calls": "count",
    "jsonio.decode.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "parallel.pmap.calls": "count",
    "parallel.pmap.self_s": "s",
    **{f"{layer}.errors": "count" for layer in ERROR_LAYERS},
    "trace.overhead_ratio": "ratio",
}

# Calls a workload must not make: the layers it is meant to leave idle.
IDLE = {
    "census_diag": ("solver.find", "solver.verify", "reduction.check_reduction", "coloring.eval"),
    "reduce_search": ("barrier.density_probe", "diag.verify_defeat"),
}


def _subsets_before(g: tuple, min_size: int, h: tuple | None) -> int:
    """Subsets ``solver.find`` tries: every size from min_size in turn, each
    in ``itertools.combinations`` order, up to and including the witness."""
    n = len(g)
    if h is None:
        return sum(comb(n, k) for k in range(min_size, n + 1))
    k = len(h)
    tried = sum(comb(n, j) for j in range(min_size, k))
    pos = [g.index(x) for x in h]
    prev = -1
    for i, p in enumerate(pos):
        tried += sum(comb(n - 1 - q, k - 1 - i) for q in range(prev + 1, p))
        prev = p
    return tried + 1


def _materialize(pos: int):
    """Turn an iterable argument into a tuple before the call, so that the
    counts taken after it can read the argument again."""

    def prep(args: tuple) -> tuple:
        if len(args) > pos and not isinstance(args[pos], (tuple, list, range, set, frozenset)):
            args = args[:pos] + (tuple(args[pos]),) + args[pos + 1 :]
        return args

    return prep


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.code_bits_max = 0
        self.stack = [0.0]  # child time of each open span, the root first
        self._queried: dict = {}  # coloring -> members queried, for one item
        self._fs: list = []
        self._staged: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, prep=None, count=True):
        layer = name.split(".")[0]
        stack = self.stack
        self_s, counts = self.self_s, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prep is not None:
                args = prep(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                self_s[name] += t1 - t0 - stack.pop()
                counts[calls] += count
                if layer in ERROR_LAYERS:
                    counts[layer + ".errors"] += 1
                stack[-1] += t1 - t0
                raise
            t1 = perf_counter()
            self_s[name] += t1 - t0 - stack.pop()
            counts[calls] += count
            if after is not None:
                after(out, *args, **kwargs)
            stack[-1] += t1 - t0
            return out

        return wrapper

    def install(self, package: str = "barriers") -> None:
        """Wrap every function in ``SPANS`` wherever the package binds it."""
        for modname in {m for targets in SPANS.values() for m, _ in targets}:
            importlib.import_module(f"{package}.{modname}")
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        barrier = sys.modules[f"{package}.barrier"]
        self._base_members = barrier.base_members
        self._reductions = sys.modules[f"{package}.reduction"].REDUCTIONS
        self._find_signature = inspect.signature(sys.modules[f"{package}.solver"].find)
        hooks = {
            "barrier.front": (self._after_front, _materialize(1)),
            "barrier.density_probe": (self._after_density, _materialize(1)),
            "barrier.check_sperner": (self._after_sperner, _materialize(0)),
            "barrier.step": (self._after_step, None),
            "coloring.eval": (self._after_eval, _materialize(1)),
            "solver.find": (self._after_find, _materialize(2)),
            "reduction.check_reduction": (self._after_check_reduction, _materialize(2)),
            "reduction.fs_memo": (lambda out, obj, *a, **k: self._fs.append(obj), None),
            "diag.staged": (lambda out, obj, *a, **k: self._staged.append(obj), None),
            "diag.code_seq": (self._after_code_seq, None),
        }
        for name, targets in SPANS.items():
            after, prep = hooks.get(name, (None, None))
            for modname, attr in targets:
                module = sys.modules[f"{package}.{modname}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth], after, prep))
                    continue
                orig = getattr(module, attr)
                wrapped = self._wrap(name, orig, after, prep)
                if name == "parallel.pmap":
                    wrapped = self._wrap_pmap(wrapped)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)

    def _wrap_pmap(self, wrapped):
        """The callback pmap runs is its caller's own code (the chunk scan of
        density_probe), so its time is charged back to the caller's span."""

        @functools.wraps(wrapped)
        def pmap(fn, items):
            layer = fn.__module__.rpartition(".")[2]
            owner = fn.__qualname__.partition(".")[0]
            return wrapped(self._wrap(f"{layer}.{owner}", fn, count=False), items)

        return pmap

    # -- counts taken at the boundaries -------------------------------------

    def _after_front(self, out, spec, ground):
        self.counts["barrier.front.members"] += len(out)
        self.counts["barrier.front.ground_elems"] += len(set(ground))

    def _after_density(self, out, spec, ground):
        self.counts["barrier.density_probe.subsets"] += out.hit + out.inconclusive + len(out.violations)

    def _after_sperner(self, out, members):
        n = len(members)
        self.counts["barrier.check_sperner.pairs"] += n * (n - 1)

    def _after_step(self, out, spec, stream):
        if out is not None:
            self.counts["barrier.step.coords"] += len(out)

    def _after_eval(self, out, coloring, s):
        self._queried.setdefault(coloring, set()).add(tuple(s))

    def _after_find(self, out, *args, **kwargs):
        bound = self._find_signature.bind(*args, **kwargs).arguments
        f, ground, min_size = bound["f"], bound["ground"], bound["min_size"]
        g = self._base_members(f.barrier, ground)
        self.counts["solver.find.subsets"] += _subsets_before(g, min_size, None if out is None else out.h)
        self.counts["solver.find.exhausted"] += out is None

    def _after_check_reduction(self, out, red, f, ground, min_size):
        red = self._reductions[red] if isinstance(red, str) else red
        n = len(self._base_members(f.barrier, ground))
        lo = max(min_size, red.min_witness)
        self.counts["reduction.check_reduction.subsets"] += sum(comb(n, k) for k in range(lo, n + 1))
        self.counts["reduction.check_reduction.witnesses"] += out.checked_witnesses

    def _after_code_seq(self, out, s):
        self.code_bits_max = max(self.code_bits_max, out.bit_length())

    def end_item(self, report_bytes: int) -> None:
        """Fold the per-item state into the counts once an item returns."""
        self.counts["cli.report_bytes"] += report_bytes
        self.counts["coloring.eval.distinct"] += sum(len(v) for v in self._queried.values())
        self.counts["reduction.fs_memo.entries"] += sum(len(c.memo) for c in self._fs)
        chain = max((c.max_chain for c in self._fs), default=0)
        self.counts["reduction.fs_memo.max_chain"] = max(self.counts["reduction.fs_memo.max_chain"], chain)
        self.counts["diag.stages"] += sum(len(c._cache) for c in self._staged)
        self._queried.clear()
        self._fs.clear()
        self._staged.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every metric of ``METRICS`` but the overhead ratio, which takes an
        untraced run to measure."""
        c, t = self.counts, self.self_s
        out = {name: c[name] for name in METRICS}
        for name in METRICS:
            base, _, field = name.rpartition(".")
            if field == "self_s":
                out[name] = sum(v for k, v in t.items() if k.startswith("ordinals.")) if base == "ordinals" else t[base]
        calls, subsets = c["coloring.eval.calls"], c["reduction.check_reduction.subsets"]
        out["coloring.eval.repeat_ratio"] = 1 - c["coloring.eval.distinct"] / calls if calls else 0.0
        out["reduction.witness_ratio"] = c["reduction.check_reduction.witnesses"] / subsets if subsets else 0.0
        out["diag.code_bits_max"] = self.code_bits_max
        return out
