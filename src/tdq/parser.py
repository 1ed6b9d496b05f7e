"""Recursive-descent parser for exact scalar literals.

Grammar (standard precedence, '-' and '/' left associative):

    expr     :=  term  (('+' | '-') term)*
    term     :=  unary (('*' | '/') unary)*
    unary    :=  ('-' | '+')* power
    power    :=  atom ('^' exponent)?
    exponent :=  ('-' | '+')? INT  |  '(' ('-' | '+')? INT ')'
    atom     :=  INT  |  IDENT  |  '(' expr ')'

Identifiers are the field's indeterminates (ratfunc backend only); '^' binds
tighter than unary minus, so ``-q^2`` means ``-(q^2)``.  Exponents are
integer literals and may be negative.

Values stay in the field's ring until they meet a division: Python ints on
the rational backend, sympy polynomials over ZZ on ratfunc.  A '/' or a
negative exponent lifts both sides to field scalars (a ring value is itself
over 1, so canonical) and the rest of that subexpression runs in field
arithmetic; ``parse_scalar`` returns a :class:`Scalar` either way.  So a
division-free literal builds one scalar, and a rendered ``(N)/(D)`` costs
two polynomial builds and one cancellation.  Value, text and every refusal
are those of evaluating each node in the field.

Limits: parentheses nest at most ``MAX_NESTING`` (100) deep, an integer
literal has at most ``MAX_DIGITS`` (4,300, Python's default limit for
converting a decimal string) digits, an exponent is at most
``MAX_EXPONENT`` (1,000) in absolute value, and a power ``x^n`` is refused
before it is computed when |n| * log10(max(|p|, q)) > ``MAX_DIGITS`` for a
coefficient p/q among the field's ``end_coefficients`` of x (of the ring
value or the scalar, which agree): a rational x is its own, and a ratfunc x
gives the coefficients of the leading and the least term of its numerator
and denominator (both over the denominator when that is a constant).  That
coefficient's |n|-th power then appears in the rendered result with more
than ``MAX_DIGITS`` digits, so no value that could be written is refused.
A ratfunc power ``x^n`` is also refused before it is computed when
|n| * deg(x) > ``MAX_EXPONENT``, deg(x) being the largest exponent of any one
variable in x's numerator or denominator (the field's ``degree``; 0 on
rational), so no power reaches a degree that a literal ``q^n`` could not.
Beyond any of these limits, :class:`ParseError`.  The exponent bound stops
``2^99999999`` from running for minutes, the power bound
``(<4,300 nines>)^1000`` and ``(q + 10^50)^1000``, and the degree bound
``((q+1)^60)^60``; rendered ratfunc fixtures need exponents of about 2d^2,
and put ``^`` only on identifiers.

``MAX_DIAMETER`` (64) bounds the diameter ``tdq generate --d`` accepts:
validating the parameters loops over every i <= d before anything else
runs, so ``--d 100000`` would run for minutes.  The tests and the benchmark
use d <= 16.
"""

from __future__ import annotations

import math

from .scalars import Scalar

__all__ = ["ParseError", "parse_scalar"]

MAX_NESTING = 100
MAX_DIGITS = 4300
MAX_EXPONENT = 1000
MAX_DIAMETER = 64


class ParseError(ValueError):
    """Syntax or identifier error, with the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPERATORS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():  # what int() reads; isdigit() also takes superscripts
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", i)
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, at = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", at)
        return self.advance()

    def at_op(self, *symbols: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in symbols

    # -- values: ring elements until a division, then scalars --------------

    def lift(self, value) -> Scalar:
        return value if isinstance(value, Scalar) else self.field.from_ring(value)

    def pair(self, x, y):
        """x and y as they are when both are ring values, else as scalars."""
        if isinstance(x, Scalar) or isinstance(y, Scalar):
            return self.lift(x), self.lift(y)
        return x, y

    # -- grammar rules ----------------------------------------------------

    def parse(self) -> Scalar:
        value = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", at)
        return self.lift(value)

    def expr(self):
        value = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            value, rhs = self.pair(value, self.term())
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.at_op("*", "/"):
            _, op, at = self.advance()
            rhs = self.unary()
            if op == "*":
                value, rhs = self.pair(value, rhs)
                value = value * rhs
            else:
                if not rhs:
                    raise ZeroDivisionError(f"division by zero at position {at}")
                value = self.lift(value) / self.lift(rhs)
        return value

    def unary(self):
        negate = False
        while self.at_op("-", "+"):
            _, op, _ = self.advance()
            if op == "-":
                negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self):
        value = self.atom()
        if self.at_op("^"):
            _, _, at = self.advance()
            exponent = self.exponent()
            if exponent < 0 and not value:
                raise ZeroDivisionError(f"division by zero at position {at}")
            raw = value.raw if isinstance(value, Scalar) else value
            base = max(max(abs(c.numerator), c.denominator)
                       for c in self.field.end_coefficients(raw))
            if abs(exponent) * math.log10(base) > MAX_DIGITS:
                raise ParseError(f"power with a number of more than {MAX_DIGITS} digits", at)
            if abs(exponent) * self.field.degree(raw) > MAX_EXPONENT:
                raise ParseError(f"power of degree more than {MAX_EXPONENT}", at)
            if exponent == 0:  # 0^0 too, which sympy refuses
                value = self.field.ring_int(1)
            else:
                value = (self.lift(value) if exponent < 0 else value) ** exponent
        return value

    def exponent(self) -> int:
        parenthesized = False
        if self.at_op("("):
            self.advance()
            parenthesized = True
        sign = 1
        if self.at_op("-", "+"):
            _, op, _ = self.advance()
            sign = -1 if op == "-" else 1
        kind, text, at = self.peek()
        if kind != "int":
            raise ParseError("expected an integer exponent", at)
        self.advance()
        if parenthesized:
            self.expect_op(")")
        if int(text) > MAX_EXPONENT:
            raise ParseError(f"exponent larger than {MAX_EXPONENT}", at)
        return sign * int(text)

    def atom(self):
        kind, text, at = self.advance()
        if kind == "int":
            return self.field.ring_int(int(text))
        if kind == "ident":
            try:
                return self.field.ring_generator(text)
            except ValueError as exc:
                raise ParseError(str(exc), at) from None
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", at)


def parse_scalar(text: str, field) -> Scalar:
    """Parse a scalar literal in the given field.

    Raises :class:`ParseError` for syntax and identifier problems, and
    :class:`ZeroDivisionError` (with position info) when evaluation divides
    by zero.
    """
    return _Parser(text, field).parse()
