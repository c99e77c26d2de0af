"""Cantor normal form ordinals below epsilon_0.

An ordinal is a finite sum ``w^a1*c1 + ... + w^ak*ck`` with ordinal exponents
``a1 > ... > ak`` and integer coefficients ``ci >= 1``; the empty sum is 0.
This representation is unique, so equality of terms is equality of ordinals.

Provided operations: comparison, the (non-commutative) ordinal sum and
product, ``w^a``, and the standard assignment of fundamental sequences to
limit ordinals.  The convention ``w[n] = n`` is fixed project-wide; it feeds
the shape of canonical barriers.

Text form, used by the CLI and JSON codecs: ``w^w + w^2*3 + 5``.

Grammar (spaces around tokens are optional; a nat is written in the ASCII
digits 0-9, and no other whitespace is read)::

    ordinal := term ("+" term)*
    term    := nat | pow ("*" nat)?
    pow     := "w" | "w^" exp
    exp     := nat | "w" | "(" ordinal ")"

Exponents other than a natural number or plain ``w`` are parenthesized when
rendering, e.g. ``w^(w + 1)`` or ``w^(w^2)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from .seqs import _clip

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "compare",
    "add",
    "mul",
    "omega_pow",
    "fund_seq",
    "pred",
    "parse_ordinal",
    "OrdinalParseError",
]


class OrdinalParseError(ValueError):
    pass


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs with exponents in
    strictly decreasing order and coefficients >= 1.  The empty tuple is 0.
    """

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent must be an Ordinal, got {exp!r}")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"coefficient must be a positive int, got {coeff!r}")
            if prev is not None and compare(prev, exp) <= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return cls(((ZERO, n),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0].is_zero

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1] if self.terms else 0

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return compare(self, other) < 0

    def __str__(self) -> str:
        return _render(self)

    def __repr__(self) -> str:
        return f"Ordinal({_render(self)!r})"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on canonical forms: -1, 0 or 1."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b (absorbs low terms of ``a``)."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    eb = b.terms[0][0]
    kept = []
    for exp, coeff in a.terms:
        c = compare(exp, eb)
        if c > 0:
            kept.append((exp, coeff))
        elif c == 0:
            return Ordinal(tuple(kept) + ((eb, coeff + b.terms[0][1]),) + b.terms[1:])
        else:
            break
    return Ordinal(tuple(kept) + b.terms)


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal product a * b, distributed over the terms of ``b``."""
    if a.is_zero or b.is_zero:
        return ZERO
    lead_exp, lead_coeff = a.terms[0]
    out = ZERO
    for exp, coeff in b.terms:
        if exp.is_zero:
            part = Ordinal(((lead_exp, lead_coeff * coeff),) + a.terms[1:])
        else:
            part = Ordinal(((add(lead_exp, exp), coeff),))
        out = add(out, part)
    return out


def omega_pow(a: Ordinal) -> Ordinal:
    """The ordinal w^a."""
    return Ordinal(((a, 1),))


def pred(a: Ordinal) -> Ordinal:
    """Predecessor of a successor ordinal."""
    if not a.is_successor:
        raise ValueError(f"{a} is not a successor")
    exp, coeff = a.terms[-1]
    if coeff == 1:
        return Ordinal(a.terms[:-1])
    return Ordinal(a.terms[:-1] + ((exp, coeff - 1),))


def fund_seq(l: Ordinal, n: int) -> Ordinal:
    """n-th member of the standard fundamental sequence of a limit ordinal.

    Rules, for l = head + w^e * c with e > 0:
      c > 1          ->  head + w^e*(c-1) + (w^e)[n]
      e = e' + 1     ->  head + w^e' * n
      e a limit      ->  head + w^(e[n])
    In particular w[n] = n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not l.is_limit:
        raise ValueError(f"{l} is not a limit ordinal")
    exp, coeff = l.terms[-1]
    head = Ordinal(l.terms[:-1] + (((exp, coeff - 1),) if coeff > 1 else ()))
    if exp.is_successor:
        step = mul(omega_pow(pred(exp)), Ordinal.from_int(n))
    else:
        step = omega_pow(fund_seq(exp, n))
    return add(head, step)


# --- text form ---------------------------------------------------------


def _render_exp(e: Ordinal) -> str:
    if e.is_finite:
        return str(e.as_int())
    if e == OMEGA:
        return "w"
    return f"({_render(e)})"


def _render(o: Ordinal) -> str:
    if o.is_zero:
        return "0"
    parts = []
    for exp, coeff in o.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        base = "w" if exp == ONE else f"w^{_render_exp(exp)}"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return " + ".join(parts)


def _ordinal(tokens: list[str]) -> Ordinal:
    """Read ``term ("+" term)*`` off the end of ``tokens`` (the text's tokens
    reversed, above an end marker) and leave the tokens after it there."""
    out = ZERO
    while True:
        tok = tokens.pop()
        if tok.isdigit():
            term = Ordinal.from_int(int(tok))
        elif tok != "w":
            raise OrdinalParseError(f"expected a term, got {tok!r}")
        else:
            exp = ONE
            if tokens[-1] == "^":
                tokens.pop()
                tok = tokens.pop()
                if tok.isdigit():
                    exp = Ordinal.from_int(int(tok))
                elif tok == "w":
                    exp = OMEGA
                elif tok != "(":
                    raise OrdinalParseError(f"bad exponent start {tok!r}")
                else:
                    exp = _ordinal(tokens)
                    if tokens.pop() != ")":
                        raise OrdinalParseError("expected ')'")
            term = omega_pow(exp)
            if tokens[-1] == "*":
                tokens.pop()
                tok = tokens.pop()
                if not tok.isdigit() or int(tok) < 1:
                    raise OrdinalParseError(f"coefficient must be a positive int, got {_clip(tok)}")
                term = mul(term, Ordinal.from_int(int(tok)))
        out = add(out, term)
        if tokens[-1] != "+":
            return out
        tokens.pop()


def parse_ordinal(text: str) -> Ordinal:
    """Parse the text form; canonical renderings round-trip exactly.

    Tokens are numbers in the digits 0-9 and the characters ``w^*+()``,
    separated by spaces only.  Non-canonical sums like ``1 + w`` are folded
    with ordinal addition, so they parse to the value of the expression
    (here ``w``).
    """
    bad = re.search(r"[^0-9w^*+() ]", text)
    if bad is not None:
        raise OrdinalParseError(f"bad character {bad.group()!r} at position {bad.start()}")
    tokens = ["the end", *reversed(re.findall(r"[0-9]+|[^ ]", text))]
    out = _ordinal(tokens)
    if len(tokens) > 1:
        raise OrdinalParseError(f"unexpected {_clip(tokens[-1])} after the ordinal")
    return out
