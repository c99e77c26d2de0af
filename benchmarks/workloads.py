"""Seeded workloads: the argv of every item, and the check of its report.

An item is one call of ``barriers.cli.main(argv)`` whose ``--json`` report
is checked here against :mod:`oracle`.  A workload's items are a pure
function of the seed and the run length, so two runs with the same seed
send the program identical work, and the sha256 of their concatenated
reports compares two versions of the program byte for byte.

Items come in four parts, one per heavy layer:

* ``census``: ``check`` on barrier specs, the shape of acceptance
  criterion 1.  All time goes to the barrier layer: ``front``,
  ``check_sperner`` and ``density_probe``.  No coloring, solver or
  reduction code runs.
* ``reduce``: ``reduce --check`` on one table coloring per item over the 6
  arms x 4 barriers of criterion 5, on ground 0..9.  Time goes to the
  subset scan of ``check_reduction`` and the forward colorings.  No density
  probe runs.
* ``search``: ``solve`` on small barriers, half of the searches exhausting.
  The same ``front`` layer as census, but as many calls on tiny subsets, so a
  census gain that adds per-call cost shows here.  No reduction runs.
* ``diag``: ``diag`` on seeded oracle families.  The only part where
  ``step`` walks long streams and where the stage replays and the pairing
  arithmetic run.  No solver or reduction runs.

The two workloads each send two parts, shuffled together, half of the run
length each.  ``census_diag`` loads the barrier walks and leaves the
colorings, the solver and the reductions idle; ``reduce_search`` loads the
colorings, the solver and the reductions and runs no density probe.  Four
separate workloads of half the length read 0.17 to 0.33 apart (quartile
distance over median, ten seeds) on a shared 2-core host whose speed drifts
by 10 % over tens of seconds; two longer ones average more of the drift.

Each part holds a fixed share, sent once, and a number of seeded blocks that
grows with the run length; no item repeats inside a run, so caches the
program keeps only pay off within an item or on work that items share.

Known blowups, and the caps that keep every item finite:

* The rainbow colors are ``pair(m, code_seq(stage))`` and the bit length of
  ``code_seq`` doubles with each coordinate of the stage: 0.54 Mbit at 16
  coordinates, 9.2 Mbit at 20, 38 Mbit at 22, where one ``pair`` call takes
  48 s.  A family with entry 2 on {1} and the positive multiples of 3 at
  delay 5 under alpha w did not finish.  Rainbow items therefore only
  inspect stages of at most ``RAINBOW_MAX_COORDS`` coordinates.
* ``step`` on canonical:w from minimum m reads 1 + m(m+1)/2 coordinates
  (137 at m = 16, 0.33 s) and did not finish in 100 s on canonical:w*2
  along the evens from 2.  Thin items therefore only inspect stages whose
  deciding coordinate is at most ``THIN_MAX_MIN``, and no diag item uses
  alpha w*2.
"""

from __future__ import annotations

import json
import random

import oracle

RAINBOW_MAX_COORDS = 17
THIN_MAX_MIN = 16


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _blocks(seconds: float, per_second: float) -> int:
    return max(1, round(seconds * per_second))


# --- census -----------------------------------------------------------------

EVENS = {"prefix": [], "tail": {"start": 0, "step": 2}}

# The 16 specs of the test suite's SPEC_POOL and the 3 of its EXTRA_POOL.
POOL = [
    "exact:1", "exact:2", "exact:3", "schreier",
    "canonical:0", "canonical:1", "canonical:2", "canonical:3",
    "canonical:w", "canonical:w+1", "canonical:w*2", "canonical:w^2", "canonical:w^w",
    {"plus": "schreier"},
    {"product": ["exact:1", "schreier"]},
    {"derived": {"inner": "schreier", "n": 2}},
    {"restrict": {"inner": "schreier", "base": EVENS}},
    {"plus": "exact:2"},
    {"product": ["exact:2", "exact:1"]},
]

# The pool on seeded sparse grounds leaves out canonical:w^w: its limit-chain
# memo grows with the first coordinates it meets, so on seeded grounds the
# peak memory of a run would follow the seed (by 5 MB of 35).
SPARSE_POOL = [spec for spec in POOL if spec != "canonical:w^w"]

# Plain factors in three classes of cost; a tree template names classes and
# the seed picks the factors, so every block costs about the same.
FACTORS = {
    "cheap": ["exact:1", "exact:2", "canonical:1", "canonical:2"],
    "mid": ["exact:3", "schreier", "canonical:3"],
    "dear": ["canonical:w", "canonical:w+1"],
}
TREES = [
    ("product", "cheap", "mid"), ("product", "mid", "dear"), ("product", "dear", "cheap"),
    ("plus", "mid"), ("plus", "dear"), ("plus", ("product", "cheap", "mid")),
    ("derived", "mid"), ("derived", "dear"), ("derived", ("plus", "mid")),
    ("restrict", "mid"), ("restrict", "dear"), ("restrict", ("product", "cheap", "dear")),
]


def _tree(rng: random.Random, template):
    """Products of plain factors, plus, derived, and restrict to an
    arithmetic tail, following a template."""
    if isinstance(template, str):
        return rng.choice(FACTORS[template])
    kind, *args = template
    if kind == "product":
        return {"product": [_tree(rng, args[0]), _tree(rng, args[1])]}
    inner = _tree(rng, args[0])
    if kind == "plus":
        return {"plus": inner}
    spec = oracle.spec_of(inner)
    if kind == "derived":
        choices = [n for n in range(6) if oracle.in_base(spec, n) and not oracle.member(spec, (n,))]
        return {"derived": {"inner": inner, "n": rng.choice(choices)}}
    prefix = sorted(rng.sample(range(4), rng.randint(0, 2)))
    start = (prefix[-1] if prefix else -1) + rng.randint(1, 3)
    base = {"prefix": prefix, "tail": {"start": start, "step": rng.randint(1, 3)}}
    return {"restrict": {"inner": inner, "base": base}}


def _check_item(spec, ground) -> dict:
    return {
        "argv": ["check", "--barrier", _js(spec), "--ground", ",".join(map(str, ground)), "--json"],
        "spec": spec,
        "ground": list(ground),
    }


def census(seed: int, seconds: float) -> list[dict]:
    """The pool on dense grounds once, then blocks of the pool on seeded
    sparse grounds (7 to 9 numbers below a top of 11 to 15, and the top) and
    of seeded trees on dense grounds; the sizes rotate from block to block.
    The top is always in, so the module caches every run fills reach the
    same depth."""
    rng = random.Random(seed)
    items = [_check_item(spec, range(n)) for spec in POOL for n in (9, 10, 11, 12)]
    for block in range(_blocks(seconds, 0.75)):
        for j, spec in enumerate(SPARSE_POOL):
            top = 11 + (block + j) % 5
            items.append(_check_item(spec, sorted(rng.sample(range(top), 7 + (block + j) % 3)) + [top]))
        for j, template in enumerate(TREES):
            items.append(_check_item(_tree(rng, template), range(9 + (block + j) % 3)))
    return items


def check_census(item: dict, report: dict) -> str | None:
    spec = oracle.spec_of(item["spec"])
    base = oracle.base_part(spec, item["ground"])
    density = report["density"]
    probed = density["hit"] + density["inconclusive"] + len(density["violations"])
    if probed != 2 ** len(base) - 1:
        return f"density probed {probed} subsets of {len(base)} base elements"
    if not report["sperner_ok"] or density["violations"]:
        return "barrier axioms reported violated"
    if len(item["ground"]) <= 9 and report["front_size"] != len(oracle.front(spec, base)):
        return f"front_size {report['front_size']} != subset filter {len(oracle.front(spec, base))}"
    return None


# --- reduce -----------------------------------------------------------------

REDUCE_ARMS = [("fs-to-rt", None), ("ts-to-rt", None), ("ts-to-fs", None), ("rrt-to-rt", 2), ("rrt-to-rt", 3), ("rrt2-to-fs", 2)]
REDUCE_BARRIERS = ["exact:1", "exact:2", "schreier", "canonical:w"]
REDUCE_GROUND = tuple(range(9))


def _members(barrier: str, ground: tuple) -> tuple:
    return oracle.front(oracle.spec_of(barrier), ground)


def _random_table(rng: random.Random, barrier: str, bound: int | None) -> dict:
    """Shaped like the library's random instances: colors below max+4, or an
    exactly k-bounded multiset of colors for the rainbow sources."""
    members = _members(barrier, REDUCE_GROUND)
    if bound is not None:
        colors = [i // bound for i in range(len(members))]
        rng.shuffle(colors)
    else:
        colors = [rng.randrange(max(REDUCE_GROUND) + 4) for _ in members]
    return dict(zip(members, colors))


def _adversarial_tables(barrier: str, bound: int | None) -> list[dict]:
    """The library's stress shapes: injective, adjacent twins and far twins
    for the rainbow sources; constant 0, a constant above the ground, min,
    max + 1, a cascade and a lone probe at the top member otherwise."""
    members = _members(barrier, REDUCE_GROUND)
    g = REDUCE_GROUND
    if bound is not None:
        stride = max(1, (len(members) + bound - 1) // bound)
        return [
            {s: i for i, s in enumerate(members)},
            {s: i // bound for i, s in enumerate(members)},
            {s: i % stride for i, s in enumerate(members)},
        ]
    top = max(members, key=lambda s: (s[-1], s))
    return [
        {s: 0 for s in members},
        {s: max(g) + 50 for s in members},
        {s: s[0] for s in members},
        {s: s[-1] + 1 for s in members},
        {s: max(s[0] - 2, 0) for s in members},
        {s: (min(x for x in g if x) if s == top else 0) for s in members},
    ]


def _reduce_item(name: str, barrier: str, bound: int | None, table: dict) -> dict:
    coloring = {"table": [[list(s), c] for s, c in table.items()]}
    if bound is not None:
        coloring["bound"] = bound
    return {
        "argv": [
            "reduce", "--name", name, "--barrier", barrier, "--ground", f"0..{len(REDUCE_GROUND)}",
            "--check", "--coloring", _js(coloring), "--min-size", "3", "--json",
        ],
    }


def reduce(seed: int, seconds: float) -> list[dict]:
    rng = random.Random(seed)
    items = [
        _reduce_item(name, barrier, bound, table)
        for name, bound in REDUCE_ARMS
        for barrier in REDUCE_BARRIERS
        for table in _adversarial_tables(barrier, bound)
    ]
    for _ in range(_blocks(seconds, 4.8)):
        for name, bound in REDUCE_ARMS:
            for barrier in REDUCE_BARRIERS:
                items.append(_reduce_item(name, barrier, bound, _random_table(rng, barrier, bound)))
    return items


def check_reduce(item: dict, report: dict) -> str | None:
    if report["instances"] != 1:
        return f"checked {report['instances']} instances, expected 1"
    if report["counterexamples"]:
        return f"{len(report['counterexamples'])} counterexamples"
    return None


# --- search -----------------------------------------------------------------

SEARCH_BARRIERS = ["exact:2", "exact:3", "schreier", "canonical:w", {"plus": "exact:1"}]
PROPERTIES = ["mono", "free", "thin", "rainbow"]

# Typical size of the largest solution, per barrier and ground 0..n, for the
# property order above: measured on three seeded 3-color tables each, and
# exact for the builtins, which take n = 9.  A table search starts one size
# below it and usually finds a witness, or one size above it and usually
# exhausts, which costs every subset from that size up; a builtin search
# starts at it or one above.  exact:3 and canonical:w stop at n = 11, and
# exact:3 takes no builtin, because exhausting them there costs seconds.
TABLE_MAX = {
    "exact:2": {9: (3, 7, 6, 3), 10: (3, 8, 6, 3), 11: (4, 8, 6, 3), 12: (4, 10, 6, 3)},
    "exact:3": {9: (4, 7, 5, 3), 10: (4, 7, 5, 3), 11: (4, 9, 5, 3)},
    "schreier": {9: (5, 7, 6, 6), 10: (6, 8, 7, 6), 11: (6, 8, 8, 7), 12: (7, 9, 8, 7)},
    "canonical:w": {9: (7, 7, 7, 7), 10: (7, 8, 8, 8), 11: (8, 8, 8, 8)},
    "plus(exact:1)": {9: (3, 6, 5, 3), 10: (4, 7, 5, 3), 11: (3, 8, 6, 3), 12: (4, 9, 6, 3)},
}
BUILTINS = [({"builtin": "rank"}, "rank"), ({"builtin": "rank-div", "params": {"k": 2}}, "rank-div"), ({"builtin": "rank-mod", "params": {"m": 3}}, "rank-mod")]
BUILTIN_MAX = {
    "exact:2": {"rank": (2, 7, 8, 9), "rank-div": (2, 6, 8, 5), "rank-mod": (4, 6, 6, 3)},
    "schreier": {"rank": (5, 7, 8, 9), "rank-div": (5, 7, 8, 7), "rank-mod": (6, 6, 6, 5)},
    "canonical:w": {"rank": (7, 7, 8, 9), "rank-div": (7, 7, 8, 7), "rank-mod": (7, 7, 7, 7)},
    "plus(exact:1)": {"rank": (2, 6, 7, 8), "rank-div": (2, 5, 7, 5), "rank-mod": (4, 6, 6, 3)},
}


def _label(barrier) -> str:
    return barrier if isinstance(barrier, str) else "plus(exact:1)"


def _search_item(barrier, n: int, prop: str, coloring: dict, min_size: int) -> dict:
    return {
        "argv": [
            "solve", "--property", prop, "--barrier", _js(barrier), "--coloring", _js(coloring),
            "--ground", f"0..{n}", "--min-size", str(min_size), "--json",
        ],
        "barrier": barrier,
        "coloring": coloring,
        "n": n,
        "prop": prop,
        "min_size": min_size,
    }


def search(seed: int, seconds: float) -> list[dict]:
    """Every block sends each barrier and property one seeded 3-color table;
    the ground size and whether the search starts one size above or one
    below the typical largest solution rotate from block to block, so about
    half of the searches exhaust.  The seed only picks the tables."""
    rng = random.Random(seed)
    items = []
    strata = [(b, p) for b in SEARCH_BARRIERS if _label(b) in BUILTIN_MAX for p in range(4)]
    for j, (barrier, p) in enumerate(strata):
        for coloring, name in BUILTINS:
            size = BUILTIN_MAX[_label(barrier)][name][p] + (j % 2)
            items.append(_search_item(barrier, 9, PROPERTIES[p], coloring, size))
    for block in range(_blocks(seconds, 1.15)):
        for j, barrier in enumerate(SEARCH_BARRIERS):
            spec = oracle.spec_of(barrier)
            sizes = TABLE_MAX[_label(barrier)]
            combos = [(n, shift) for n in sorted(sizes) for shift in (-1, 1)]
            for p, prop in enumerate(PROPERTIES):
                n, shift = combos[(block + j + p) % len(combos)]
                palette = rng.sample(range(n + 2), 3)
                table = [[list(s), rng.choice(palette)] for s in oracle.front(spec, tuple(range(n)))]
                items.append(_search_item(barrier, n, prop, {"table": table}, max(1, sizes[n][p] + shift)))
    return items


def check_search(item: dict, report: dict) -> str | None:
    witness = report["witness"]
    if witness is None:
        return None
    spec = oracle.spec_of(item["barrier"])
    ground = oracle.base_part(spec, range(item["n"]))
    h = tuple(witness["h"])
    if len(h) < item["min_size"] or not set(h) <= set(ground) or list(h) != sorted(set(h)):
        return f"witness {h} is not a subset of size >= {item['min_size']}"
    color = oracle.coloring_rule(spec, item["coloring"])
    if not oracle.witness_holds(item["prop"], spec, color, ground, h, witness["detail"]):
        return f"{item['prop']} fails on {h}"
    return None


# --- diag -------------------------------------------------------------------

def _family(rng: random.Random) -> dict:
    """One to three entries; each set is a short prefix below an arithmetic tail."""
    family = {}
    for e in sorted(rng.sample(range(4), rng.randint(1, 3))):
        prefix = tuple(sorted(rng.sample(range(4), rng.randint(0, 2))))
        start = (prefix[-1] if prefix else -1) + rng.randint(1, 4)
        family[e] = {"prefix": prefix, "tail": (start, rng.randint(1, 3)), "delay": rng.randint(0, 3)}
    return family


def _diag_item(rng: random.Random, kind: str, alpha: str, coords: tuple[int, int], short: bool) -> dict | None:
    """A defeat search whose outcome the oracle predicts and whose witness
    stage has a coordinate count in the ``coords`` range, or None.  With
    ``short`` the bound stops the search just before that stage."""
    family = _family(rng)
    e = rng.choice(sorted(family))
    i = rng.randint(0, 2) if kind == "thin" else None
    entry = family[e]
    for m0 in oracle.set_elements(entry, entry["delay"] + 1, THIN_MAX_MIN):
        length = oracle.stage_length(alpha, entry, m0)
        if m0 > THIN_MAX_MIN or (kind == "rainbow" and length > RAINBOW_MAX_COORDS):
            return None
        found = oracle.defeat_at(kind, family, e, i, m0)
        if found is not None:
            break
    else:
        return None
    if not coords[0] <= length <= coords[1]:
        return None
    bound = m0 if short else m0 + 1 + rng.randint(0, 3)
    rows = [
        {"e": k, "set": {"prefix": list(v["prefix"]), "tail": {"start": v["tail"][0], "step": v["tail"][1]}}, "delay": v["delay"]}
        for k, v in sorted(family.items())
    ]
    verify = f"e={e}" if i is None else f"e={e},i={i}"
    return {
        "argv": ["diag", "--kind", kind, "--alpha", alpha, "--family", _js(rows), "--verify", verify, "--bound", str(bound), "--json"],
        "kind": kind,
        "alpha": alpha,
        "entry": {"prefix": list(entry["prefix"]), "tail": list(entry["tail"])},
        "expect": None if short else {"numbers": list(found), "min": m0},
    }


# One block: (kind, alpha, range of coordinates of the witness stage, whether
# the bound stops short of it).  The longest stage a search inspects sets its
# cost, so every block holds the same spread of stage lengths.
DIAG_BLOCK = [
    *[("thin", "1", (1, 1), short) for short in (True, False, False)],
    *[("thin", "w", c, False) for c in ((1, 30), (31, 80), (81, 137))],
    *[("thin", "w+1", c, False) for c in ((1, 40), (41, 110), (111, 200))],
    *[("rainbow", "1", (1, 1), short) for short in (True, False, False)],
    *[("rainbow", "w", c, False) for c in ((1, 7), (11, 11), (16, 16))],
    *[("rainbow", "w+1", c, False) for c in ((1, 8), (12, 12), (17, 17))],
]


def diag(seed: int, seconds: float) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for _ in range(_blocks(seconds, 0.42)):
        for slot in DIAG_BLOCK:
            for _ in range(10_000):
                item = _diag_item(rng, *slot)
                if item is not None:
                    items.append(item)
                    break
            else:
                raise RuntimeError(f"no diag item matches {slot}")
    return items


def check_diag(item: dict, report: dict) -> str | None:
    """As acceptance criterion 8 checks a defeat, against the witness the
    oracle's replay predicts: the same numbers, a stage with the predicted
    minimum that lies in the set and is a member of canonical:alpha."""
    result, expect = report["result"], item["expect"]
    if expect is None:
        return None if result == {"found": None, "reason": "bound-too-small"} else f"expected no witness, got {result}"
    found = result["found"]
    if result["reason"] != "ok" or found is None or found["numbers"] != expect["numbers"]:
        return f"expected witness {expect['numbers']}, got {result}"
    stage = tuple(found["stage"])
    prefix, tail = tuple(item["entry"]["prefix"]), tuple(item["entry"]["tail"])
    if not stage or stage[0] != expect["min"] or not all(oracle.in_set(x, prefix, tail) for x in stage):
        return f"stage {stage} does not start at {expect['min']} inside the set"
    if not oracle.is_member(("canonical", oracle.parse_ordinal(item["alpha"])), stage):
        return f"stage {stage} is not a member of canonical:{item['alpha']}"
    return None


PARTS = {
    "census": (census, check_census),
    "reduce": (reduce, check_reduce),
    "search": (search, check_search),
    "diag": (diag, check_diag),
}
WORKLOADS = {"census_diag": ("census", "diag"), "reduce_search": ("reduce", "search")}


def items(workload: str, seed: int, seconds: int) -> list[dict]:
    """Every item of one run, each tagged with its part."""
    out = []
    for part in WORKLOADS[workload]:
        out += [{**item, "part": part} for item in PARTS[part][0](seed, seconds / 2)]
    random.Random(seed).shuffle(out)
    return out


def check(item: dict, report: dict) -> str | None:
    return PARTS[item["part"]][1](item, report)
