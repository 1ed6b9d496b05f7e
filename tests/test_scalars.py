import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.fields import FracElement, field
from sympy.polys.rings import PolyElement

from conftest import load_perfbench
from tdq.parser import (MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, ParseError, _tokenize,
                        parse_scalar)
from tdq.scalars import (Scalar, _cofactors, _exact_quotient_poly, rational_field,
                         ratfunc_field)

QF = rational_field()
RF = ratfunc_field(("q", "a", "b"))


class TestParser:
    def test_literal_fraction(self):
        assert parse_scalar("3/4", QF) == Fraction(3, 4)

    def test_polynomial_division_cancels(self):
        assert parse_scalar("(q^2-1)/(q-1)", RF) == parse_scalar("q+1", RF)

    def test_division_by_zero_reports_position(self):
        with pytest.raises(ZeroDivisionError, match="position 1"):
            parse_scalar("1/(q-q)", RF)

    def test_identifier_rejected_in_rational_backend(self):
        with pytest.raises(ParseError, match="rational backend"):
            parse_scalar("q", QF)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_scalar("x + 1", RF)

    @pytest.mark.parametrize("text", ["¹", "2²", "1/¹", "q^²"],
                             ids=["alone", "after-digit", "denominator", "exponent"])
    def test_superscript_digit_rejected(self, text):
        # str.isdigit() takes superscripts, which int() cannot read
        with pytest.raises(ParseError, match="unexpected character"):
            parse_scalar(text, RF)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("3 + * 4", QF)
        assert err.value.position == 4

    def test_precedence_and_associativity(self):
        assert parse_scalar("2-3-4", QF) == Fraction(-5)
        assert parse_scalar("8/2/2", QF) == Fraction(2)
        assert parse_scalar("2+3*4", QF) == Fraction(14)
        assert parse_scalar("-2^2", QF) == Fraction(-4)

    def test_negative_exponents(self):
        assert parse_scalar("2^-2", QF) == Fraction(1, 4)
        assert parse_scalar("q^-1", RF) == RF.one / RF.generator("q")
        assert parse_scalar("q^(-3)", RF) == RF.generator("q") ** -3

    def test_zero_to_negative_power(self):
        with pytest.raises(ZeroDivisionError):
            parse_scalar("0^-1", QF)

    @pytest.mark.parametrize("field", [QF, RF], ids=["rational", "ratfunc"])
    def test_zero_to_the_zero_is_one(self, field):
        # both backends read x^0 as 1, zero included
        assert parse_scalar("0^0", field) == field.one
        assert parse_scalar("(2-2)^0 + 1", field) == field.coerce(2)
        assert field.zero ** 0 == field.one

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("1 + 2 )", QF)

    @pytest.mark.parametrize("field,text", [
        (QF, "(10^4)^1000"),            # 4,001 digits
        (QF, "(1/10^4)^-1000"),
        (QF, f"({'9' * 4300})^1"),
        (RF, "(10^4*q + 1)^1000"),
        (RF, "(100*q + 1/1000)^1000"),  # renders as (100 q + 10^-3)^1000: 3,001 digits
        (RF, "(q + 10^4)^1000"),        # least term 10^4000
    ], ids=["rational", "rational-negative", "nines-once", "ratfunc", "ratfunc-constant-den",
            "ratfunc-least-term"])
    def test_power_inside_digit_bound_parses(self, field, text):
        assert parse_scalar(text, field).render()

    @pytest.mark.parametrize("field,text", [
        (QF, "(10^5)^1000"),            # 5,001 digits
        (QF, "(1/10^5)^-1000"),
        (QF, f"({'9' * 4300})^2"),
        (RF, "(10^5*q + 1)^1000"),      # leading coefficient 10^5000
        (RF, "(q/(10^5*q + 1))^-1000"),
        (RF, "(q + 10^5)^1000"),        # least term 10^5000, leading coefficient 1
        (RF, "(1/(q + 10^5))^1000"),
        (RF, "((q + 10^5)/3)^1000"),    # renders with least coefficient 10^5000/3^1000
    ], ids=["rational", "rational-negative", "nines-twice", "ratfunc", "ratfunc-negative",
            "ratfunc-least-term", "ratfunc-least-term-denominator",
            "ratfunc-least-term-constant-den"])
    def test_power_beyond_digit_bound_rejected(self, field, text):
        with pytest.raises(ParseError, match="more than 4300 digits"):
            parse_scalar(text, field)

    @pytest.mark.parametrize("field,text", [
        (RF, "((q+1)^30)^30"),          # degree 900
        (RF, "(q^2*a)^500"),
        (RF, "(1/(q + 1)^2)^-500"),
        (RF, "(a/q^4 + 1)^250"),        # q^1000 in the denominator
        (QF, "(2^3)^400"),              # a rational has degree 0
    ], ids=["nested", "product", "negative", "denominator", "rational"])
    def test_power_inside_degree_bound_parses(self, field, text):
        assert parse_scalar(text, field)

    @pytest.mark.parametrize("text", [
        "((q+1)^40)^40", "((q+1)^60)^60", "(q^2*a)^501", "(1/(q + 1)^2)^-501",
        "(a/q^4 + 1)^251", "((q-1)*(q+1))^1000",
    ], ids=["nested-40", "nested-60", "product", "negative", "denominator", "times-1000"])
    def test_power_beyond_degree_bound_rejected(self, text):
        # refused before the power is computed: ((q+1)^60)^60 took seconds
        started = time.perf_counter()
        with pytest.raises(ParseError, match="power of degree more than 1000"):
            parse_scalar(text, RF)
        assert time.perf_counter() - started < 5


class _FieldEvaluator:
    """Reference for the parser: the same grammar, evaluated in field
    arithmetic at every node."""

    def __init__(self, text, field):
        self.tokens, self.pos, self.field, self.depth = _tokenize(text), 0, field, 0

    def take(self, *symbols):
        kind, value, _ = self.tokens[self.pos]
        if kind == "op" and value in symbols:
            self.pos += 1
            return self.tokens[self.pos - 1]
        return None

    def parse(self):
        value = self.expr()
        kind, text, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", at)
        return value

    def expr(self):
        value = self.term()
        while tok := self.take("+", "-"):
            rhs = self.term()
            value = value + rhs if tok[1] == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while tok := self.take("*", "/"):
            rhs = self.unary()
            if tok[1] == "/" and rhs.is_zero():
                raise ZeroDivisionError(f"division by zero at position {tok[2]}")
            value = value * rhs if tok[1] == "*" else value / rhs
        return value

    def unary(self):
        negate = False
        while tok := self.take("-", "+"):
            negate ^= tok[1] == "-"
        value = self.power()
        return -value if negate else value

    def power(self):
        value = self.atom()
        if tok := self.take("^"):
            at = tok[2]
            exponent = self.exponent()
            if exponent < 0 and value.is_zero():
                raise ZeroDivisionError(f"division by zero at position {at}")
            base = max(max(abs(c.numerator), c.denominator)
                       for c in self.field.end_coefficients(value.raw))
            if abs(exponent) * math.log10(base) > MAX_DIGITS:
                raise ParseError(f"power with a number of more than {MAX_DIGITS} digits", at)
            if abs(exponent) * self.field.degree(value.raw) > MAX_EXPONENT:
                raise ParseError(f"power of degree more than {MAX_EXPONENT}", at)
            value = value ** exponent
        return value

    def exponent(self):
        parenthesized = self.take("(") is not None
        sign = -1 if (tok := self.take("-", "+")) and tok[1] == "-" else 1
        kind, text, at = self.tokens[self.pos]
        if kind != "int":
            raise ParseError("expected an integer exponent", at)
        self.pos += 1
        if parenthesized and not self.take(")"):
            raise ParseError("expected ')'", self.tokens[self.pos][2])
        if int(text) > MAX_EXPONENT:
            raise ParseError(f"exponent larger than {MAX_EXPONENT}", at)
        return sign * int(text)

    def atom(self):
        kind, text, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            return self.field.from_int(int(text))
        if kind == "ident":
            try:
                return self.field.generator(text)
            except ValueError as exc:
                raise ParseError(str(exc), at) from None
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            value = self.expr()
            if not self.take(")"):
                raise ParseError("expected ')'", self.tokens[self.pos][2])
            self.depth -= 1
            return value
        raise ParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", at)


def _outcome(evaluate, text, field):
    try:
        value = evaluate(text, field)
    except Exception as exc:  # a refusal: ParseError or ZeroDivisionError
        return type(exc), str(exc)
    return value, value.render()


_exponents = st.tuples(st.sampled_from(["{}", "-{}", "+{}", "({})", "(-{})", "(+{})"]),
                       st.integers(0, 4)).map(lambda t: t[0].format(t[1]))


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " - ", " * "]), inner).map("".join),
        st.tuples(st.text(alphabet="+-", min_size=1, max_size=3), inner).map("".join),
        inner.map("({})".format),
        st.tuples(inner, _exponents).map(lambda t: f"({t[0]})^{t[1]}"),
    )


# the grammar: integers, q and a, + - * / ^, signed and parenthesized exponents,
# sign chains and nesting; most literals parse, some divide by zero
grammar_literals = st.recursive(
    st.one_of(st.integers(0, 12).map(str), st.sampled_from(["q", "a", "q^2", "a^-1", "q^(-3)",
                                                            "1000003", "(q-q)", "0^-1"])),
    _grow, max_leaves=8)
token_soup = st.text(alphabet="0123456789qa+-*/^() ", max_size=12)


class TestParserAgainstFieldEvaluation:
    """Evaluating in the ring until the first division gives the value,
    text and refusals of evaluating every node in the field."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([QF, RF]), grammar_literals | token_soup)
    @example(QF, "(10^5)^1000")
    @example(RF, "(q + 10^5)^1000")
    @example(RF, "((q + 10^5)/3)^1000")
    @example(RF, "(2*q)^1001")
    @example(RF, "((q + 1)^4)^300")
    @example(QF, "1/(3-3)")
    @example(RF, "(q-q)^-2")
    @example(RF, "0^0")
    @example(RF, "--+-(q*a - 2)^(+3)/(a^-1 - q)")
    def test_same_value_text_and_refusal(self, field, text):
        assert _outcome(parse_scalar, text, field) == _outcome(
            lambda t, f: _FieldEvaluator(t, f).parse(), text, field)

    @pytest.mark.parametrize("field,text", [
        (RF, "3*q^2*a - (q + 2)*(a - 1)^2 + -7"),
        (QF, "3*2^5 - (4 + 2)*(7 - 1)^2 + -7"),
    ], ids=["ratfunc", "rational"])
    def test_division_free_literal_builds_one_scalar(self, monkeypatch, field, text):
        built = []
        original = Scalar.__init__

        def counted(self, field, raw):
            built.append(raw)
            original(self, field, raw)
        monkeypatch.setattr(Scalar, "__init__", counted)
        value = parse_scalar(text, field)
        assert len(built) == 1 and built[0] is value.raw
        monkeypatch.undo()
        assert value == _FieldEvaluator(text, field).parse()


class TestArithmetic:
    def test_add(self):
        assert QF.coerce(Fraction(1, 2)) + QF.coerce(Fraction(1, 3)) == Fraction(5, 6)

    def test_inv(self):
        q = RF.generator("q")
        assert q.inv() == parse_scalar("1/q", RF)

    def test_negative_power_is_canonical(self):
        # the numerator of 1 - q and of -q/2 leads with a negative coefficient
        q = RF.generator("q")
        for x in (RF.one - q, -q / 2):
            assert x ** -1 == RF.one / x and hash(x ** -1) == hash(RF.one / x)
            assert x ** -3 == RF.one / (x * x * x)

    def test_difference_of_squares(self):
        q = RF.generator("q")
        lhs = (q - q ** -1) * (q + q ** -1)
        assert lhs == q ** 2 - q ** -2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QF.one / QF.zero
        with pytest.raises(ZeroDivisionError):
            RF.zero.inv()

    def test_backend_mixing_rejected(self):
        with pytest.raises(ValueError):
            QF.one + RF.one


rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)


class TestFieldAxioms:
    @given(rationals, rationals, rationals)
    def test_rational_ring_axioms(self, x, y, z):
        sx, sy, sz = (QF.coerce(v) for v in (x, y, z))
        assert (sx + sy) + sz == sx + (sy + sz)
        assert sx * (sy + sz) == sx * sy + sx * sz
        assert sx + sy == sy + sx

    @given(rationals)
    def test_rational_inverses(self, x):
        s = QF.coerce(x)
        assert s + (-s) == QF.zero
        if not s.is_zero():
            assert s * s.inv() == QF.one


@st.composite
def ratfuncs(draw):
    q, a = RF.generator("q"), RF.generator("a")
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    value = RF.zero
    for i, c in enumerate(coeffs):
        value = value + RF.coerce(c) * q ** (i - 1) * a ** (i % 2)
    return value


class TestRatfuncAxioms:
    @settings(max_examples=30, deadline=None)
    @given(ratfuncs(), ratfuncs(), ratfuncs())
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y * z) == (x * y) * z
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=30, deadline=None)
    @given(ratfuncs())
    def test_inverses(self, x):
        assert x + (-x) == RF.zero
        if not x.is_zero():
            assert x * x.inv() == RF.one


# -- ratfunc arithmetic against sympy's own ------------------------------------

QA = ratfunc_field(("q", "a"))
STOCK = field("q,a", ZZ)[0]
_q, _a = STOCK.ring.gens
FACTORS = [_q, _a, _q + 1, _q - _a, 2 * _q * _a - 3, _q ** 2 + _a, _a ** 2 - _q + 5]
UNITS = st.sampled_from([1, -1, 2, -6])


@st.composite
def _polys(draw, pool):
    """A product of up to three factors from the pool, times a small integer
    of either sign."""
    value = STOCK.ring(draw(UNITS))
    for factor in draw(st.lists(st.sampled_from(pool), max_size=3)):
        value = value * factor
    return value


@st.composite
def _monomials(draw):
    """+-2 q^i a^j or 4 q^i a^j."""
    return draw(st.sampled_from([2, -2, 4])) * _q ** draw(st.integers(0, 3)) * _a ** draw(
        st.integers(0, 3))


@st.composite
def operand_pairs(draw):
    """Two (numerator, denominator) pairs that often share factors: free,
    over one denominator, crossed as x y / z and z / (y q), summing to a
    value over a smaller denominator, constant, or zero; with monomial
    parts; with shared integer content; a numerator that y's denominator
    q^i (a^2 - 1) divides only once q^i is split off; or a numerator that
    divides y's longer denominator."""
    shared = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=2))
    polys = _polys(FACTORS + shared * 3)
    x, y = (draw(polys), draw(polys)), (draw(polys), draw(polys))
    shape = draw(st.sampled_from(["free", "same-denominator", "crossed", "summing",
                                  "constant", "zero", "monomial", "content",
                                  "monomial-factor", "dividing"]))
    if shape == "monomial":
        parts = draw(st.sampled_from(["numerator", "denominator", "both"]))
        y = (draw(_monomials()) if parts != "denominator" else y[0],
             draw(_monomials()) if parts != "numerator" else y[1])
    elif shape == "content":
        k, j = draw(st.sampled_from([3, 15])), draw(st.sampled_from([2, 4]))
        x, y = (k * x[0], j * x[1]), (j * y[0], k * y[1])
    elif shape == "monomial-factor":
        x = ((_a ** 2 - 1) * (_q ** 2 - 1) * x[0], x[1])
        y = (y[0], _q ** draw(st.integers(1, 2)) * (_a ** 2 - 1))
    elif shape == "dividing":
        x, y = (shared[0], x[1]), (y[0], shared[0] * y[1] * draw(st.sampled_from(FACTORS)))
    elif shape == "summing":
        rest = STOCK.new(*y) - STOCK.new(*x)
        y = (rest.numer, rest.denom)
    elif shape == "same-denominator":
        y = (y[0], x[1])
    elif shape == "crossed":
        z = draw(polys)
        x, y = (x[0] * y[1], z), (z * y[0], y[1] * _q)
    elif shape == "constant":
        y = (STOCK.ring(draw(UNITS)), STOCK.ring(draw(UNITS)))
    elif shape == "zero":
        y = (STOCK.ring.zero, y[1])
    if draw(st.booleans()):
        x, y = y, x
    return x, y


def _pair_values(pair):
    """(tdq scalar, sympy FracElement) of one (numerator, denominator) pair,
    each reduced by sympy's ``cancel``, so neither depends on tdq's
    arithmetic."""
    num, den = pair
    ours = QA._field.new(num.set_ring(QA._ring), den.set_ring(QA._ring))
    return Scalar(QA, ours), STOCK.new(num, den)


def _same(ours, stock):
    assert type(ours.raw) is type(QA.one.raw)
    assert (ours.raw.numer, ours.raw.denom) == (stock.numer, stock.denom)


class TestRatfuncArithmeticAgainstSympy:
    """tdq's ratfunc arithmetic gives sympy's reduced form, byte for byte,
    and keeps tdq's element class."""

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs(), st.integers(1, 3))
    def test_operations(self, pairs, k):
        (x, sx), (y, sy) = map(_pair_values, pairs)
        _same(x + y, sx + sy)
        _same(x - y, sx - sy)
        _same(x * y, sx * sy)
        if y:
            _same(x / y, sx / sy)
            _same(y.inv(), 1 / sy)
            _same(y ** -k, (1 / sy) ** k)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            QA.one / QA.zero
        with pytest.raises(ZeroDivisionError):
            QA.zero.raw ** -2


@st.composite
def cofactor_operands(draw, ring):
    """Two nonzero polynomials of the ring that share a part: each is a
    signed integer times a monomial times up to three factors, over a shared
    part built the same way."""
    gens = ring.gens
    q, a = gens[:2]
    factors = [q + 1, q - a, a ** 2 - 1, q ** 2 - 1, 2 * q * a - 3, q ** 2 + a]
    factors += [f for b in gens[2:] for f in (b - q, a * b + 2)]

    def part(max_factors):
        value = ring(draw(st.sampled_from([1, -1, 2, 3, -6])))
        for gen in gens:
            value *= gen ** draw(st.integers(0, 2))
        for factor in draw(st.lists(st.sampled_from(factors), max_size=max_factors)):
            value *= factor
        return value

    shared = part(2)
    return shared * part(3), shared * part(3)


def _cofactor_examples(ring):
    """One pair for each way ``_cofactors`` can settle a gcd: a monomial
    operand (gcd 1 or not), a shorter operand dividing the longer (either
    way round), primitive parts dividing once the content and monomial
    factor are split off, and sympy's ``cofactors``."""
    q, a = ring.gens[:2]
    return [
        (2 * q * a, 3 * q + 1), (-4 * q ** 2 * a, 6 * q * a ** 3 - 2 * q ** 2), (q ** 3, -q ** 2 * a),
        ((q + 1) * (q - a), q + 1), (q - a, (q - a) * (a ** 2 - 1)),
        ((a ** 2 - 1) * (q ** 2 - 1), q * (a ** 2 - 1)),
        (6 * q * a * (a ** 2 - 1) * (q + 1), 4 * q ** 2 * (a ** 2 - 1)),
        (q ** 2 * (q - a), 2 * q * (q - a) * (q + 1)),
        ((q + 1) * (q - a), (q + 1) * (2 * q * a - 3)), (q + 1, q - a),
    ]


class TestCofactors:
    """``_cofactors`` returns a gcd and both cofactors on every path:
    h (x / h) = x, h (y / h) = y, and h is sympy's gcd up to sign."""

    @staticmethod
    def check(x, y):
        h, x_h, y_h = _cofactors(x, y)
        assert h * x_h == x and h * y_h == y
        assert h in (x.gcd(y), -x.gcd(y))

    @pytest.mark.parametrize("variables", [("q", "a"), ("q", "a", "b")])
    def test_each_path(self, variables):
        for x, y in _cofactor_examples(ratfunc_field(variables)._ring):
            self.check(x, y)
            self.check(y, x)

    @pytest.mark.parametrize("variables", [("q", "a"), ("q", "a", "b")])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_against_sympy(self, variables, data):
        self.check(*data.draw(cofactor_operands(ratfunc_field(variables)._ring)))


class TestExactQuotient:
    """``_exact_quotient_poly`` refuses a divisor whose least term does not
    divide the dividend's least term before it subtracts any multiple, and
    still divides every product by either factor."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        original = PolyElement._iadd_poly_monom
        monkeypatch.setattr(PolyElement, "_iadd_poly_monom",
                            lambda f, g, term: calls.append(1) or original(f, g, term))
        return calls

    def test_least_term_refuses_first(self, steps):
        # each divisor's leading term divides the dividend's (a multiple of
        # q^2 by q), so the long division would take a step; the least terms
        # do not divide, by exponents (1 by a) or by coefficient (q by 2, 3a by 2a)
        q, a = QA._ring.gens
        for x, y in ((q ** 2 + 1, q + a), (q ** 2 + q, q + 2), (2 * q ** 2 + 3 * a, q + 2 * a)):
            assert _exact_quotient_poly(x, y) is None
        assert not steps

    @settings(max_examples=100, deadline=None)
    @given(y=_polys(FACTORS), z=_polys(FACTORS))
    def test_divides_every_product(self, y, z):
        assert _exact_quotient_poly(y * z, y) == z
        assert _exact_quotient_poly(y * z, z) == y


class TestGcdCounts:
    """The arithmetic's shortcuts, pinned by counting sympy's gcds and
    polynomial products: a non-monomial denominator that divides the other
    numerator is cancelled by exact division, so is one that divides it once
    its monomial factor is split off, a monomial operand and a denominator 1
    need no gcd at all, and a factor 1 forms no product."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"cofactors": 0, "_gcd_ZZ": 0}
        for name in calls:
            original = getattr(PolyElement, name)

            def counted(f, g, _name=name, _original=original):
                calls[_name] += 1
                return _original(f, g)

            monkeypatch.setattr(PolyElement, name, counted)
        return calls

    def test_denominator_dividing_the_other_numerator(self, counts):
        x = parse_scalar("q/(q+1)", QA)
        y = parse_scalar("(q+1)*(q-a)/a^2", QA)
        counts.update(cofactors=0, _gcd_ZZ=0)
        values = (x * y, y / x.inv())
        assert counts["_gcd_ZZ"] == 0
        assert values == (parse_scalar("q*(q-a)/a^2", QA),) * 2
        stock_x, stock_y = STOCK.new(_q, _q + 1), STOCK.new((_q + 1) * (_q - _a), _a ** 2)
        stock_x * stock_y
        assert counts["_gcd_ZZ"] > 0

    def test_denominator_one(self, counts):
        p, r = parse_scalar("q^2-a", QA), parse_scalar("3*q*a+1", QA)
        f = parse_scalar("(q-a)/(q+1)", QA)
        counts.update(cofactors=0, _gcd_ZZ=0)
        values = (p + r, p * r - r, p + f, f - p)
        assert counts == {"cofactors": 0, "_gcd_ZZ": 0}
        assert values == tuple(parse_scalar(text, QA) for text in (
            "q^2-a+3*q*a+1", "(q^2-a-1)*(3*q*a+1)", "(q^3+q^2-q*a+q-2*a)/(q+1)",
            "(-q^3-q^2+q*a+q)/(q+1)"))

    def test_monomial_operand(self, counts):
        x = parse_scalar("(q+1)*(q-a)/(q^2*a)", QA)
        y, z = parse_scalar("6*q*a^3", QA), parse_scalar("(3*q-a)/(2*q*a^2)", QA)
        counts.update(cofactors=0, _gcd_ZZ=0)
        values = (x * y, x * z, x / y, x + z, z - x, y * z)
        assert counts == {"cofactors": 0, "_gcd_ZZ": 0}
        stock_x = STOCK.new((_q + 1) * (_q - _a), _q ** 2 * _a)
        stock_y, stock_z = STOCK.new(6 * _q * _a ** 3), STOCK.new(3 * _q - _a, 2 * _q * _a ** 2)
        for ours, stock in zip(values, (stock_x * stock_y, stock_x * stock_z, stock_x / stock_y,
                                        stock_x + stock_z, stock_z - stock_x, stock_y * stock_z)):
            _same(ours, stock)

    def test_denominator_dividing_once_its_monomial_is_split_off(self, counts):
        x = parse_scalar("(a^2-1)*(q^2-1)*(q+a)/a^2", QA)
        y = parse_scalar("(q-2*a)/(q*(a^2-1))", QA)
        counts.update(cofactors=0, _gcd_ZZ=0)
        values = (x * y, y * x, x / y.inv())
        assert counts["_gcd_ZZ"] == 0
        assert values == (parse_scalar("(q^2-1)*(q+a)*(q-2*a)/(q*a^2)", QA),) * 3
        stock_x = STOCK.new((_a ** 2 - 1) * (_q ** 2 - 1) * (_q + _a), _a ** 2)
        stock_x * STOCK.new(_q - 2 * _a, _q * (_a ** 2 - 1))
        assert counts["_gcd_ZZ"] > 0

    def test_factor_one_forms_no_product(self, monkeypatch):
        calls = []
        original = PolyElement.__mul__
        x, y = parse_scalar("(q^2-a)*(3*q*a+1)", QA), parse_scalar("1/(3*q*a+1)", QA)
        u, w = parse_scalar("(q^2-a)/q", QA), parse_scalar("2*a^3", QA)
        monkeypatch.setattr(PolyElement, "__mul__",
                            lambda f, g: calls.append(1) or original(f, g))
        values = (x * y, y * x, u * w, w * u)
        assert not calls
        monkeypatch.undo()
        assert values == (parse_scalar("q^2-a", QA),) * 2 + (parse_scalar("2*(q^2-a)*a^3/q", QA),) * 2

    def test_symbolic_verify_ceiling(self, counts, tmp_path):
        """tdq verify on the symbolic d = 3 udd fixture, over ratfunc(q, a),
        takes at most 244 heuristic gcds; it took 533 when only y was tried
        as a divisor of x and monomials went to sympy."""
        workloads = load_perfbench("workloads")
        generate, verify = workloads.instance("symbolic", (3, "udd"), str(tmp_path)).commands
        workloads.generate_symbolic(*generate.symbolic, generate.out)
        counts.update(cofactors=0, _gcd_ZZ=0)
        code, output = workloads.run_in_process(verify)
        assert code == 0, output
        assert counts["_gcd_ZZ"] <= 244


class TestSympyUntouched:
    def test_ratfunc_fields_hold_tdq_elements(self):
        for variables in (("q", "a"), ("q", "a", "b")):
            rf = ratfunc_field(variables)
            values = [rf.zero, rf.one, rf.coerce(Fraction(-2, 3))]
            values += [rf.generator(v) for v in variables]
            values += [values[-1] * values[-2], values[-1] + values[-2], values[-1].inv()]
            (cls,) = {type(x.raw) for x in values}
            assert issubclass(cls, FracElement) and cls is not FracElement

    def test_sympy_field_keeps_its_own_methods(self):
        QA.generator("q") * QA.generator("a")
        stock, q, a = field("q,a", ZZ)
        x = (q + 1) / (a - q)
        assert type(x) is FracElement and type(stock.one) is FracElement
        assert type(x * q) is FracElement and type(x ** -1) is FracElement
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__rtruediv__", "__pow__"):
            method = getattr(type(x), name)
            assert method is getattr(FracElement, name)
            assert method.__module__ == "sympy.polys.fields", name


class TestRendering:
    @settings(max_examples=50, deadline=None)
    @given(rationals)
    def test_rational_round_trip(self, x):
        s = QF.coerce(x)
        assert parse_scalar(s.render(), QF) == s

    @settings(max_examples=40, deadline=None)
    @given(ratfuncs(), ratfuncs())
    def test_ratfunc_round_trip(self, x, y):
        if y.is_zero():
            y = RF.one + y
        s = x / y
        assert parse_scalar(s.render(), RF) == s

    def test_zero_renders(self):
        assert RF.zero.render() == "0"
        assert parse_scalar("0", RF) == RF.zero

    def test_stable_rendering(self):
        s = parse_scalar("(b + a*q - 1)/(2*q^2 - 2)", RF)
        assert s.render() == parse_scalar(s.render(), RF).render()


class TestBackendAgreement:
    def test_specialization_matches_rational_computation(self):
        q, a, b = (RF.generator(v) for v in ("q", "a", "b"))
        sym = (q ** 2 - a) * (b + 1) / (q - a * b)
        point = {"q": QF.coerce(2), "a": QF.coerce(3), "b": QF.coerce(5)}
        direct = ((Fraction(4) - 3) * 6) / Fraction(2 - 15)
        assert RF.specialize(sym, point) == QF.coerce(direct)

    def test_specialization_detects_pole(self):
        q = RF.generator("q")
        s = RF.one / (q - 2)
        with pytest.raises(ZeroDivisionError):
            RF.specialize(s, {"q": QF.coerce(2), "a": QF.one, "b": QF.one})


class TestRoots:
    def test_rational_sqrt(self):
        assert QF.sqrt(QF.coerce(Fraction(9, 4))) == Fraction(3, 2)
        assert QF.sqrt(QF.coerce(2)) is None
        assert QF.sqrt(QF.coerce(-4)) is None

    @settings(max_examples=200, deadline=None)
    @given(st.builds(Fraction, st.integers(-2 ** 500, 2 ** 500), st.integers(1, 2 ** 500)))
    @example(Fraction(0))
    def test_rational_sqrt_of_square_is_its_absolute_value(self, x):
        assert QF.sqrt(QF.coerce(x * x)) == abs(x)

    @settings(max_examples=200, deadline=None)
    @given(st.builds(Fraction, st.integers(-2 ** 500, 2 ** 500).filter(bool),
                     st.integers(1, 2 ** 500)),
           st.integers(2, 10 ** 6).filter(lambda k: math.isqrt(k) ** 2 != k))
    def test_rational_sqrt_of_negative_or_non_square_is_none(self, x, k):
        assert QF.sqrt(QF.coerce(-x * x)) is None
        assert QF.sqrt(QF.coerce(k * x * x)) is None

    def test_ratfunc_sqrt(self):
        s = parse_scalar("(q^2-q^-2)^2", RF)
        root = RF.sqrt(s)
        assert root is not None and root * root == s
        assert RF.sqrt(RF.generator("q") + 1) is None

    def test_poly_roots_rational(self):
        # x^2 - 5/2 x + 1 = (x - 2)(x - 1/2)
        coeffs = [QF.one, QF.coerce(Fraction(-5, 2)), QF.one]
        roots, splits = QF.poly_roots(coeffs)
        assert splits and sorted(str(r) for r in roots) == ["1/2", "2"]

    def test_poly_roots_irreducible(self):
        coeffs = [QF.coerce(-2), QF.zero, QF.one]  # x^2 - 2
        roots, splits = QF.poly_roots(coeffs)
        assert not splits and roots == ()

    def test_poly_roots_ratfunc(self):
        q = RF.generator("q")
        # (x - q)(x - q^-1) = x^2 - (q + q^-1) x + 1
        coeffs = [RF.one, -(q + q ** -1), RF.one]
        roots, splits = RF.poly_roots(coeffs)
        assert splits and set(roots) == {q, q ** -1}


def _times(poly, factor):
    product = [Fraction(0)] * (len(poly) + len(factor) - 1)
    for i, x in enumerate(poly):
        for j, y in enumerate(factor):
            product[i + j] += x * y
    return product


def _split(lead, roots):
    """lead times (x - root)^m for each (root, m)."""
    poly = [lead]
    for root, m in roots:
        for _ in range(m):
            poly = _times(poly, [-root, Fraction(1)])
    return poly


def _poly_roots(coeffs):
    roots, splits = QF.poly_roots([QF.from_fraction(c) for c in coeffs])
    return tuple(r.raw for r in roots), splits


def _sympy_roots(coeffs):
    """The reference: the linear factors of sympy's factor_list, in its order."""
    from sympy import Poly, Rational, factor_list, symbols

    lam = symbols("lam")
    expr = sum((Rational(c.numerator, c.denominator) * lam ** i for i, c in enumerate(coeffs)), 0)
    roots = []
    for factor, m in factor_list(expr, lam)[1]:
        factor = Poly(factor, lam)
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            root = -c0 / c1
            roots += [Fraction(int(root.p), int(root.q))] * m
    return tuple(roots), len(roots) == Poly(expr, lam).degree()


SIGNS = st.sampled_from([1, -1])
NEAR_2_64 = st.integers(2 ** 64 - 2 ** 10, 2 ** 64 + 2 ** 10)
SMALL_ROOTS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
BIG_ROOTS = st.builds(lambda s, p, r: Fraction(s * p, r), SIGNS, NEAR_2_64,
                      st.one_of(st.integers(1, 12), NEAR_2_64))
ROOTS = st.lists(st.tuples(st.one_of(st.just(Fraction(0)), SMALL_ROOTS, BIG_ROOTS),
                           st.integers(1, 3)), max_size=4)
LEADS = st.builds(lambda s, p, r: Fraction(s * p, r), SIGNS,
                  st.one_of(st.integers(1, 9), NEAR_2_64), st.integers(1, 9))


@st.composite
def eisenstein(draw):
    """x^k + p (c_(k-1) x^(k-1) + ... + c_0) with p a prime that does not
    divide c_0: irreducible over Q by Eisenstein's criterion, degree 2-4."""
    k, p = draw(st.integers(2, 4)), draw(st.sampled_from([2, 3, 5, 7]))
    low = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1))
    const = draw(st.integers(-20, 20).filter(lambda c: c % p))
    return [Fraction(p * c) for c in [const, *low]] + [Fraction(1)]


@st.composite
def factored(draw):
    poly = _split(draw(LEADS), draw(ROOTS))
    for factor in draw(st.lists(eisenstein(), max_size=2)):
        poly = _times(poly, factor)
    return poly


DENSE_NEAR_2_64 = st.lists(st.builds(lambda s, p: Fraction(s * p), SIGNS, NEAR_2_64),
                           min_size=1, max_size=6)


class TestRationalRootsAgainstSympy:
    """RationalField.poly_roots finds rational roots without sympy; it must
    return what sympy's factor_list gives, order included: the engine takes
    eigenvalues in this order."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(factored(), DENSE_NEAR_2_64))
    @example([Fraction(-7, 3)])
    @example([Fraction(1, 2), Fraction(-3)])
    @example([Fraction(0), Fraction(0), Fraction(0), Fraction(2)])
    @example(_split(Fraction(-5, 2), [(Fraction(2), 2), (Fraction(-1, 2), 2), (Fraction(1, 3), 1)]))
    def test_matches_sympy_factor_list(self, coeffs):
        assert _poly_roots(coeffs) == _sympy_roots(coeffs)

    def test_zero_polynomial_does_not_split(self):
        assert _poly_roots([Fraction(0)]) == ((), False) == _sympy_roots([Fraction(0)])

    @settings(max_examples=50, deadline=None)
    @given(LEADS, ROOTS.filter(bool), st.data())
    def test_perturbed_coefficient_changes_the_roots(self, lead, roots, data):
        poly = _split(lead, roots)
        i = data.draw(st.integers(0, len(poly) - 2))
        delta = data.draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2 ** 64)]))
        perturbed = poly[:i] + [poly[i] + delta] + poly[i + 1:]
        assert _poly_roots(poly)[1]
        assert _poly_roots(perturbed) != _poly_roots(poly)


LARGE_ROOTS = st.builds(lambda s, p, r: Fraction(s * p, r), SIGNS,
                       st.integers(0, 2 ** 1000), st.integers(1, 2 ** 1000))
P61 = 2 ** 61 - 1  # the prime at which poly_roots tests square-freeness


class TestLargeRoots:
    """Products of (r x - p)^m with large p and r: every root comes back with
    its multiplicity, whether f is square-free (no integer gcd is taken) or
    not, and also where f is square-free but not modulo 2^61 - 1."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(LARGE_ROOTS, st.integers(1, 3)), min_size=1, max_size=4))
    @example([(Fraction(1), 1), (Fraction(1 + P61), 1)])
    @example([(Fraction(3, P61), 2)])
    @example([(Fraction(3, P61), 1), (Fraction(-2 ** 999, 3), 3)])
    def test_roots_and_multiplicities(self, factors):
        expected = {}
        for root, m in factors:
            expected[root] = expected.get(root, 0) + m
        roots, splits = _poly_roots(_split(Fraction(1), factors))
        assert splits
        assert {x: roots.count(x) for x in roots} == expected


class TestIntegerCoefficients:
    """Ratfunc values are reduced fractions over ZZ[q, a]; the representation
    shows in no render, specialization or root."""

    F = ratfunc_field(("q", "a"))

    @pytest.mark.parametrize("text,rendered,at_point", [
        ("1/2*q + 1/3", "1/2*q + 1/3", Fraction(11, 6)),
        ("(q/2)/(a/3)", "(3*q)/(2*a)", Fraction(63, 10)),
        ("(1/2)/(q - 1/3)", "(3)/(6*q - 2)", Fraction(3, 16)),
        ("(q^2 - 1/4)/(q + 1/2)", "q - 1/2", Fraction(5, 2)),
        ("q^-1/6", "(1)/(6*q)", Fraction(1, 18)),
        # sympy leads a denominator with q, the render with its highest
        # degree term; when that term is negative both parts change sign
        ("1/(q - a^2)", "(-1)/(a^2 - q)", Fraction(49, 122)),
        ("(q + 1)/(q - a^2)", "(-q - 1)/(a^2 - q)", Fraction(98, 61)),
        ("(2*q)/(3*q - 6*a^2)", "(-2*q)/(6*a^2 - 3*q)", Fraction(98, 97)),
    ])
    def test_render_and_specialize(self, text, rendered, at_point):
        value = parse_scalar(text, self.F)
        assert value.render() == rendered
        assert parse_scalar(rendered, self.F) == value
        assert self.F.specialize(value, {"q": 3, "a": Fraction(5, 7)}) == QF.coerce(at_point)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-4, 4).filter(bool), st.integers(1, 6), st.integers(-2, 2),
           st.integers(-3, 3))
    def test_sqrt_of_square(self, num, den, power, shift):
        q, a = self.F.generator("q"), self.F.generator("a")
        x = (self.F.coerce(Fraction(num, den)) * q ** power + shift) / a
        root = self.F.sqrt(x * x)
        assert root in (x, -x)

    def test_poly_roots_with_rational_coefficients(self):
        roots, splits = self.F.poly_roots([self.F.coerce(Fraction(-1, 4)), self.F.zero,
                                           self.F.one])
        assert splits and sorted(r.render() for r in roots) == ["-1/2", "1/2"]

    def test_from_fraction(self):
        assert self.F.from_fraction(Fraction(-6, 4)).render() == "-3/2"
        assert self.F.from_fraction(Fraction(-6, 4)) == parse_scalar("-3/2", self.F)
