"""Ordinal notations in hereditary Cantor normal form over the base symbol w.

A notation is a finite sum  w^g0 * c0 + ... + w^gl * cl  with strictly
decreasing exponents (themselves notations) and positive integer
coefficients.  The empty sum denotes 0.  Values are immutable and always
kept in normal form, so structural equality is ordinal equality.

Text syntax: ``ord := term ('+' term)*``, ``term := 'w' ('^' exp)? ('*' nat)? | nat``
with ``exp := '(' ord ')' | term``.  Example: ``w^2*3+w+1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .errors import ForestError, OrdinalSyntaxError

# parse_ordinal refuses a notation whose exponents nest deeper than this,
# with the ForestError parse_term raises, before its recursion gets there.
# It admits every tower `canonical --alpha` can build (245 deep).
MAX_ORDINAL_DEPTH = 250


@total_ordering
@dataclass(frozen=True)
class Ord:
    """An ordinal notation in Cantor normal form over w."""

    terms: tuple[tuple["Ord", int], ...] = ()

    def __post_init__(self):
        for exp, coeff in self.terms:
            if not isinstance(exp, Ord) or not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"bad CNF term ({exp!r}, {coeff!r})")
        for (a, _), (b, _) in zip(self.terms, self.terms[1:]):
            if cmp_ord(a, b) <= 0:
                raise ValueError("CNF exponents must be strictly decreasing")

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return all(exp.is_zero() for exp, _ in self.terms)

    def finite_part(self) -> int:
        """The n with self = limit + n."""
        if self.terms and self.terms[-1][0].is_zero():
            return self.terms[-1][1]
        return 0

    def to_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self.finite_part()

    def __lt__(self, other: "Ord") -> bool:
        return cmp_ord(self, other) < 0

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ord[{format_ordinal(self)}]"


ZERO = Ord()
ONE = Ord(((ZERO, 1),))
OMEGA = Ord(((ONE, 1),))


def ord_of(n: int) -> Ord:
    """The notation for a natural number."""
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return Ord() if n == 0 else Ord(((ZERO, n),))


def cmp_ord(a: Ord, b: Ord) -> int:
    """Total order on notations: -1, 0 or 1 (LT, EQ, GT)."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cmp_ord(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def parity(a: Ord) -> str:
    """'even' or 'odd', by the finite part of a = limit + n."""
    return "even" if a.finite_part() % 2 == 0 else "odd"


def add(a: Ord, b: Ord) -> Ord:
    """Ordinal addition in CNF; terms of a below b's leading exponent are absorbed."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    lead = b.terms[0][0]
    kept = [t for t in a.terms if cmp_ord(t[0], lead) > 0]
    rest = list(b.terms)
    if len(kept) < len(a.terms) and cmp_ord(a.terms[len(kept)][0], lead) == 0:
        rest[0] = (lead, a.terms[len(kept)][1] + rest[0][1])
    return Ord(tuple(kept) + tuple(rest))


def omega_pow(a: Ord) -> Ord:
    """w ** a."""
    return Ord(((a, 1),))


def succ(a: Ord) -> Ord:
    return add(a, ONE)


def pred(a: Ord) -> Ord:
    """The b with succ(b) = a; error if a is zero or a limit."""
    if not a.terms or not a.terms[-1][0].is_zero():
        raise ValueError(f"{a} is not a successor")
    exp, coeff = a.terms[-1]
    if coeff == 1:
        return Ord(a.terms[:-1])
    return Ord(a.terms[:-1] + ((exp, coeff - 1),))


def parse_ordinal(text: str) -> Ord:
    """Parse the text syntax; raises OrdinalSyntaxError with a position."""
    parser = _Parser(text)
    result = parser.parse_ord()
    parser.skip_ws()
    if parser.pos != len(text):
        raise OrdinalSyntaxError("trailing input", parser.pos)
    return result


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # exponents open around the current position

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_ord(self) -> Ord:
        result = self.parse_term()
        while self.peek() == "+":
            self.pos += 1
            result = add(result, self.parse_term())
        return result

    def parse_term(self) -> Ord:
        ch = self.peek()
        if "0" <= ch <= "9":
            return ord_of(self.parse_nat())
        if ch != "w":
            raise OrdinalSyntaxError("expected 'w' or a number", self.pos)
        self.pos += 1
        exp = ONE
        if self.peek() == "^":
            self.pos += 1
            self.depth += 1
            if self.depth > MAX_ORDINAL_DEPTH:
                raise ForestError("input nested too deeply")
            if self.peek() == "(":
                self.pos += 1
                exp = self.parse_ord()
                if self.peek() != ")":
                    raise OrdinalSyntaxError("expected ')'", self.pos)
                self.pos += 1
            else:
                exp = self.parse_term()
            self.depth -= 1
        coeff = 1
        if self.peek() == "*":
            self.pos += 1
            coeff = self.parse_nat()
            if coeff < 1:
                raise OrdinalSyntaxError("coefficient must be positive", self.pos)
        return Ord(((exp, coeff),))

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if start == self.pos:
            raise OrdinalSyntaxError("expected a number", self.pos)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than int() converts
            raise OrdinalSyntaxError("number too long", start) from None


def format_ordinal(a: Ord) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        if cmp_ord(exp, ONE) == 0:
            base = "w"
        elif exp.is_finite():
            base = f"w^{exp.to_int()}"
        else:
            base = f"w^({format_ordinal(exp)})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)
