"""Independent definitions the benchmark checks the program's reports against.

Nothing here imports the library.  Barrier specs are the JSON trees the
benchmark hands to the CLI, read into nested tuples; membership follows the
definitions with brute-force splits for products and limit chains, fronts
come from filtering every subset, and the diagonalizing stages are replayed
straight from their description.  The code favours being obviously right
over being fast, so it only runs on inputs of desk size.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

# --- ordinals: tuples of (exponent, coefficient), exponents decreasing --------

ZERO: tuple = ()
ONE = ((ZERO, 1),)
OMEGA = ((ONE, 1),)


def nat(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


def parse_ordinal(text: str) -> tuple:
    """The text forms the benchmark generates: sums of ``k``, ``w``, ``w^k``,
    ``w^w``, each ``w`` term optionally times a coefficient."""
    terms: list = []
    for part in text.replace(" ", "").split("+"):
        if part.isdigit():
            if int(part):
                terms.append((ZERO, int(part)))
            continue
        base, _, coeff = part.partition("*")
        if base == "w":
            exp = ONE
        elif base == "w^w":
            exp = OMEGA
        elif base.startswith("w^") and base[2:].isdigit():
            exp = nat(int(base[2:]))
        else:
            raise ValueError(f"ordinal form not generated by the benchmark: {text!r}")
        terms.append((exp, int(coeff) if coeff else 1))
    return tuple(terms)


def is_successor(a: tuple) -> bool:
    return bool(a) and a[-1][0] == ZERO


def pred(a: tuple) -> tuple:
    _, c = a[-1]
    return a[:-1] + (((ZERO, c - 1),) if c > 1 else ())


def fund(a: tuple, n: int) -> tuple:
    """a[n] for a limit a, with w[n] = n.  Every term kept from ``a`` has an
    exponent above the new last term, so the sum is a concatenation."""
    exp, c = a[-1]
    head = a[:-1] + (((exp, c - 1),) if c > 1 else ())
    if is_successor(exp):
        return head + (((pred(exp), n),) if n else ())
    return head + ((fund(exp, n), 1),)


# --- specs ------------------------------------------------------------------


def spec_of(obj) -> tuple:
    """Read a JSON barrier tree (as given to ``--barrier``) into a tuple."""
    if isinstance(obj, str):
        if obj == "schreier":
            return ("schreier",)
        kind, _, arg = obj.partition(":")
        if kind == "exact":
            return ("exact", int(arg))
        if kind == "canonical":
            return ("canonical", parse_ordinal(arg))
        raise ValueError(f"unknown shorthand {obj!r}")
    (tag, value), = obj.items()
    if tag == "product":
        return ("product", spec_of(value[0]), spec_of(value[1]))
    if tag == "plus":
        return ("plus", spec_of(value))
    if tag == "derived":
        return ("derived", spec_of(value["inner"]), value["n"])
    if tag == "restrict":
        base = value["base"]
        tail = base.get("tail")
        return (
            "restrict",
            spec_of(value["inner"]),
            tuple(base.get("prefix", ())),
            None if tail is None else (tail["start"], tail["step"]),
        )
    raise ValueError(f"unknown constructor {tag!r}")


def in_set(x: int, prefix: tuple, tail) -> bool:
    if x in prefix:
        return True
    return tail is not None and x >= tail[0] and (x - tail[0]) % tail[1] == 0


def in_base(spec: tuple, x: int) -> bool:
    kind = spec[0]
    if x < 0:
        return False
    if kind in ("exact", "schreier", "canonical"):
        return True
    if kind == "plus":
        return x >= 1 and in_base(spec[1], x - 1)
    if kind == "derived":
        return x > spec[2] and in_base(spec[1], x)
    if kind == "restrict":
        return in_set(x, spec[2], spec[3]) and in_base(spec[1], x)
    return in_base(spec[1], x) and in_base(spec[2], x)  # product


@lru_cache(maxsize=None)
def member(spec: tuple, s: tuple) -> bool:
    """Membership by the constructor definitions (coordinates assumed in the base)."""
    kind = spec[0]
    if kind == "exact":
        return len(s) == spec[1]
    if kind == "schreier":
        return bool(s) and len(s) == s[0] + 1
    if kind == "plus":
        return bool(s) and member(spec[1], tuple(x - 1 for x in s[:-1]))
    if kind == "derived":
        return member(spec[1], (spec[2],) + s)
    if kind == "restrict":
        return member(spec[1], s)
    if kind == "product":
        return any(member(spec[1], s[:i]) and member(spec[2], s[i:]) for i in range(len(s) + 1))
    a = spec[1]  # canonical
    if not a:
        return s == ()
    if a[0][0] == ZERO:  # canonical:k for a natural k is exact:k
        return len(s) == a[0][1]
    if not s:
        return False
    if is_successor(a):
        return member(("canonical", pred(a)), s[1:])
    blocks = tuple(("canonical", fund(a, j)) for j in range(s[0], -1, -1))
    return _chain(blocks, s[1:])


@lru_cache(maxsize=None)
def _chain(blocks: tuple, rest: tuple) -> bool:
    if not blocks:
        return rest == ()
    return any(member(blocks[0], rest[:i]) and _chain(blocks[1:], rest[i:]) for i in range(len(rest) + 1))


def is_member(spec: tuple, s: tuple) -> bool:
    return all(in_base(spec, x) for x in s) and member(spec, s)


def base_part(spec: tuple, ground) -> tuple:
    return tuple(sorted(x for x in set(ground) if in_base(spec, x)))


@lru_cache(maxsize=None)
def front(spec: tuple, ground: tuple) -> tuple:
    """Members inside the ground set, by filtering all of its subsets."""
    g = base_part(spec, ground)
    subsets = (c for k in range(len(g) + 1) for c in combinations(g, k))
    return tuple(sorted(s for s in subsets if member(spec, s)))


@lru_cache(maxsize=None)
def rank_table(spec: tuple, top: int) -> dict:
    """Position of each member with max <= top in the (max, lex) order."""
    members = sorted(front(spec, tuple(range(top + 1))), key=lambda s: (s[-1] if s else -1, s))
    return {s: i for i, s in enumerate(members)}


# --- colorings and the four properties --------------------------------------


def coloring_rule(spec: tuple, obj: dict):
    """The color of a member under a ``--coloring`` JSON object."""
    if "table" in obj:
        table = {tuple(row[0]): row[1] for row in obj["table"]}
        return table.__getitem__
    name, params = obj["builtin"], obj.get("params", {})

    def rank(s: tuple) -> int:
        return rank_table(spec, s[-1] if s else 0)[s]

    if name == "rank":
        return rank
    if name == "rank-div":
        return lambda s: rank(s) // params["k"]
    if name == "rank-mod":
        return lambda s: rank(s) % params["m"]
    raise ValueError(f"builtin not generated by the benchmark: {name!r}")


def witness_holds(prop: str, spec: tuple, color, ground: tuple, h: tuple, detail) -> bool:
    """The definition of each property on the front inside h."""
    inside = front(spec, h)
    colors = [color(s) for s in inside]
    if prop == "mono":
        return len(set(colors)) <= 1 and detail == (colors[0] if colors else None)
    if prop == "free":
        return all(c not in h or c in s for s, c in zip(inside, colors))
    if prop == "rainbow":
        return len(set(colors)) == len(colors)
    universe = {color(s) for s in front(spec, ground)}  # thin
    return detail in universe and detail not in colors


# --- diagonalization --------------------------------------------------------


def pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + a


def unpair(z: int) -> tuple[int, int]:
    w = 0
    while (w + 1) * (w + 2) // 2 <= z:
        w += 1
    a = z - w * (w + 1) // 2
    return a, w - a


def approx(family: dict, e: int, x: int, s1: int) -> int:
    """g(e, x, stage) for a stage with minimum s1: correct past the delay."""
    entry = family.get(e)
    if entry is None or s1 <= entry["delay"]:
        return 0
    return int(in_set(x, entry["prefix"], entry["tail"]))


def thin_colors(family: dict, s1: int) -> list[int]:
    """Colors of m < s1 at a stage with minimum s1."""
    colors: dict[int, int] = {}
    for u in range(s1):
        e, i = unpair(u)
        xs = [x for x in range(s1) if approx(family, e, x, s1)][: pair(e, i) + 1]
        if len(xs) == pair(e, i) + 1:
            free = [m for m in xs if m not in colors]
            if free:
                colors[free[0]] = i
    return [colors.get(m, 1) for m in range(s1)]


def rainbow_anchors(family: dict, s1: int) -> list[int]:
    """For m < s1, the number whose pair code colors m: two numbers share a
    color exactly when they share an anchor, since pairing is injective."""
    anchor: dict[int, int] = {}
    for e in range(s1):
        cands = [x for x in range(s1) if x not in anchor and approx(family, e, x, s1)]
        if len(cands) >= 2:
            anchor[cands[0]] = anchor[cands[1]] = cands[0]
    return [anchor.get(m, m) for m in range(s1)]


def defeat_at(kind: str, family: dict, e: int, i: int | None, s1: int):
    """The witness numbers the search must report at a stage with minimum
    s1, or None when that stage holds none."""
    entry = family[e]
    below = [x for x in range(s1) if in_set(x, entry["prefix"], entry["tail"])]
    if kind == "thin":
        colors = thin_colors(family, s1)
        return next(((m,) for m in below if colors[m] == i), None)
    anchors = rainbow_anchors(family, s1)
    return next(((m, l) for a, m in enumerate(below) for l in below[a + 1 :] if anchors[m] == anchors[l]), None)


def set_elements(entry: dict, lo: int, count: int) -> list[int]:
    """The first ``count`` elements of an oracle set that are >= lo."""
    out: list[int] = []
    x = lo
    while len(out) < count:
        if in_set(x, entry["prefix"], entry["tail"]):
            out.append(x)
        x += 1
    return out


def stage_length(alpha: str, entry: dict, m0: int) -> int:
    """Coordinates of the lex-least stage from m0 inside the set, for the
    alphas the benchmark uses: canonical:1 is exact:1, canonical:w reads its
    first coordinate n and then n(n+1)/2 more, and canonical:w+1 prepends one
    coordinate to a canonical:w member."""
    if alpha == "1":
        return 1
    if alpha == "w":
        return 1 + m0 * (m0 + 1) // 2
    m1 = set_elements(entry, m0 + 1, 1)[0]
    return 2 + m1 * (m1 + 1) // 2
