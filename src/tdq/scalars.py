"""Exact field scalars with two interchangeable backends.

The ``rational`` backend wraps :class:`fractions.Fraction`.  The ``ratfunc``
backend wraps elements of the rational-function field Q(q, a, ...) in a
chosen tuple of indeterminates (by default ``q, a, b``), stored by sympy's
sparse fraction field as reduced fractions of polynomials over ZZ: a
rational constant such as 1/2 sits in the numerator and the denominator.
Integer coefficients keep sympy's gcd cancellation free of rational
arithmetic.  Both backends keep every value in a canonical form, so two
scalars are equal as field elements exactly when their representations
compare equal.

Ratfunc values of one field are added, subtracted, multiplied and divided
by tdq's own arithmetic, since sympy's cancels each result with one gcd of
the whole numerator against the whole denominator.  A product a/b * c/d is
cross-cancelled instead (Henrici; Knuth, TAOCP 2, 4.5.1): g1 = gcd(a, d) and
g2 = gcd(c, b), skipped when d or b is 1, give (a/g1)(c/g2) / ((b/g2)(d/g1)).
A quotient is the product with c/d swapped, and an inverse swaps numerator
and denominator with no gcd.  A sum over equal denominators cancels the
numerator sum against b alone; over a denominator 1 it needs no gcd;
otherwise g = gcd(b, d) and t = a (d/g) + c (b/g) leave the one gcd of t
with g.  Each gcd takes the cheapest test that settles it.  Against a
monomial c x^e it is gcd(c, content) times the least exponents, from one
scan of the other operand that stops once both are 1; a gcd 1 returns the
operands themselves.  Between non-monomials the shorter is tried as an
exact divisor of the longer, because a denominator often divides the other
numerator; then each side's content and monomial factor are split off and
the primitive parts are tried the same way, with the gcd of the split-off
factors put back (gcd((a^2-1)(q^2-1), q (a^2-1)) = a^2 - 1 this way).  Only
what all of these miss goes to sympy's ``cofactors``.  Splitting both sides
first, before any division, costs what it saves.  No product is formed with
a factor 1, and a monomial factor multiplies term by term.  Results are
sympy's canonical form, reduced with the denominator leading positive, so
equality, hashes and rendered text are those of sympy's arithmetic.

sympy is imported only where it is used: the first time a ratfunc field is
built.  The rational backend never loads it; it finds the rational roots of
a polynomial (eigenvalues the engine must detect itself) in pure Python.
``sqrt`` is defined once, for both backends, as the first root of x^2 - v
that ``poly_roots`` finds.

Scalars are immutable and all operations are pure, so values may be shared
freely between threads.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional, Sequence

__all__ = [
    "Scalar",
    "RenderError",
    "RationalField",
    "RatFuncField",
    "rational_field",
    "ratfunc_field",
    "get_field",
]


class RenderError(ValueError):
    """A number in a scalar's text form has more digits than Python converts
    to a decimal string (``sys.get_int_max_str_digits()``, 4,300 by default)."""


class Scalar:
    """An immutable element of an exact field.

    Arithmetic is defined between scalars of the same field; plain ``int``
    and :class:`~fractions.Fraction` operands are coerced.  Division by zero
    and inversion of zero raise :class:`ZeroDivisionError`.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise ValueError(
                    "cannot mix scalars from different backends: "
                    f"{self.field!r} vs {other.field!r}"
                )
            return other.raw
        if isinstance(other, int):
            return self.field.from_int(other).raw
        if isinstance(other, Fraction):
            return self.field.from_fraction(other).raw
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        raw = self._coerce(other)
        if raw is None:
            return NotImplemented
        return Scalar(self.field, self.raw + raw)

    __radd__ = __add__

    def __sub__(self, other):
        raw = self._coerce(other)
        if raw is None:
            return NotImplemented
        return Scalar(self.field, self.raw - raw)

    def __rsub__(self, other):
        raw = self._coerce(other)
        if raw is None:
            return NotImplemented
        return Scalar(self.field, raw - self.raw)

    def __mul__(self, other):
        raw = self._coerce(other)
        if raw is None:
            return NotImplemented
        return Scalar(self.field, self.raw * raw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = self._coerce(other)
        if raw is None:
            return NotImplemented
        if not raw:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.field, self.raw / raw)

    def __rtruediv__(self, other):
        raw = self._coerce(other)
        if raw is None:
            return NotImplemented
        if not self.raw:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.field, raw / self.raw)

    def __neg__(self):
        return Scalar(self.field, -self.raw)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0 and not self.raw:
            raise ZeroDivisionError("zero cannot be raised to a negative power")
        if exponent == 0:  # 0^0 too, which sympy refuses
            return self.field.one
        return Scalar(self.field, self.raw ** exponent)

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError for zero."""
        return self ** -1

    # -- predicates and protocol methods -----------------------------------

    def is_zero(self) -> bool:
        return not self.raw

    def __bool__(self):
        return bool(self.raw)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.raw == other.raw

    def __hash__(self):
        return hash((self.field, self.raw))

    def render(self) -> str:
        """Canonical text form; parses back to an equal scalar.  Raises
        :class:`RenderError` when a number in it is too long to convert."""
        try:
            return self.field.render(self.raw)
        except ValueError:
            raise RenderError("a value has a number with more than "
                              f"{sys.get_int_max_str_digits()} digits") from None

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Scalar({self.render()!r})"


class _Field:
    """What both backends share: equality by backend and variable names,
    coercion, zero, one, generators and square roots.  A backend supplies
    ``backend``, ``variables``, ``from_int``, ``from_fraction``,
    ``ring_int``, ``ring_generator``, ``from_ring``, ``end_coefficients``,
    ``degree`` and ``poly_roots``.  The ring is the integers (Python ints),
    or the integer polynomials in the variables (sympy ``PolyElement``s): the
    parser evaluates a literal in it until the first division."""

    backend: str
    variables: tuple[str, ...] = ()

    def __eq__(self, other):
        return self is other or (isinstance(other, _Field) and self.backend == other.backend
                                 and self.variables == other.variables)

    def __hash__(self):
        return hash((self.backend, self.variables))

    def coerce(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValueError("scalar belongs to a different backend")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        raise TypeError(f"cannot coerce {value!r} to a {self.backend} scalar")

    def generator(self, name: str) -> Scalar:
        return self.from_ring(self.ring_generator(name))

    @cached_property
    def zero(self) -> Scalar:
        return self.from_int(0)

    @cached_property
    def one(self) -> Scalar:
        return self.from_int(1)

    def sqrt(self, value: Scalar) -> Optional[Scalar]:
        """A square root in the field, or None: the first root of x^2 - value
        from ``poly_roots``.  A rational square root is the nonnegative one,
        since a positive root sorts before its negation."""
        roots, _ = self.poly_roots([-value, self.zero, self.one])
        return roots[0] if roots else None


class RationalField(_Field):
    """The field of arbitrary-precision rationals."""

    backend = "rational"

    def __repr__(self):
        return "RationalField()"

    # -- construction -------------------------------------------------------

    def from_int(self, value: int) -> Scalar:
        return Scalar(self, Fraction(value))

    def from_fraction(self, value: Fraction) -> Scalar:
        return Scalar(self, value)

    def ring_int(self, value: int) -> int:
        return value

    def ring_generator(self, name: str):
        raise ValueError(f"identifier {name!r} is not allowed in the rational backend")

    from_ring = from_int  # the ring is the integers

    # -- rendering ----------------------------------------------------------

    def render(self, raw: Fraction) -> str:
        return str(raw)

    def end_coefficients(self, raw) -> tuple[Fraction, ...]:
        """Rendered coefficients that ``raw ** n`` raises to exactly the
        |n|-th power, for the raw value of a scalar or a ring value: here
        the value itself."""
        return (raw,)

    def degree(self, raw) -> int:
        """The largest exponent of a variable in a value: none here."""
        return 0

    # -- root extraction ----------------------------------------------------

    def poly_roots(self, coeffs: Sequence[Scalar]) -> tuple[tuple[Scalar, ...], bool]:
        """Roots in the field of sum(coeffs[i] x^i), with multiplicity.

        Returns (roots, splits) where splits is True when the polynomial
        factors completely into linear factors over the field.  Each root
        p/r (r > 0, in lowest terms) is listed as often as its multiplicity
        m, and the roots are sorted by (m, r, -p): the order in which
        sympy's ``factor_list`` gives the primitive linear factors r x - p.
        """
        scale = math.lcm(*(c.raw.denominator for c in coeffs))
        f = _primitive([c.raw.numerator * (scale // c.raw.denominator) for c in coeffs])
        found = []
        for x in _rational_roots(f):
            m, linear = 0, [-x.numerator, x.denominator]
            while (quotient := _exact_quotient(f, linear)) is not None:
                f, m = quotient, m + 1
            found.append((m, x.denominator, -x.numerator, x))
        roots = tuple(Scalar(self, x) for m, *_, x in sorted(found) for _ in range(m))
        return roots, len(f) == 1


class RatFuncField(_Field):
    """The field Q(x_1, ..., x_k) of rational functions in named indeterminates.

    Each value is a reduced fraction of polynomials in ZZ[x_1, ..., x_k]
    whose denominator has a positive leading coefficient; this is the same
    field as the one built over QQ, with integer coefficients throughout.

    Values are elements of a subclass of sympy's ``FracElement`` (built on
    first use; sympy's class is not changed) whose +, -, *, / and inverse
    between values of one field cross-cancel, as the module docstring
    describes, instead of cancelling each whole result; they give the same
    reduced fraction.  The field's constructor, zero, one and generators
    are re-seated on that subclass, so every value it makes is one.
    """

    backend = "ratfunc"

    def __init__(self, variables: Sequence[str] = ("q", "a", "b")):
        variables = tuple(variables)
        if not variables:
            raise ValueError("ratfunc backend needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if not all(isinstance(v, str) and v.isidentifier() for v in variables):
            raise ValueError(f"variable names must be identifiers, got {list(variables)!r}")
        from sympy import ZZ
        from sympy.polys.fields import field

        self.variables = variables
        self._field, *old_gens = field(",".join(variables), ZZ)
        self._ring = self._field.ring
        # every value of this field is a _frac_class() element: re-seat the
        # constructor, the constants and the generators (by name too) on it
        fld = self._field
        fld.dtype = _frac_class()(fld, self._ring.zero).raw_new
        fld.zero, fld.one = fld.dtype(self._ring.zero), fld.dtype(self._ring.one)
        fld.gens = fld._gens()
        for name, old, gen in zip(variables, old_gens, fld.gens):
            if getattr(fld, name, None) is old:
                setattr(fld, name, gen)
        self._ring_gens = dict(zip(variables, self._ring.gens))

    def __repr__(self):
        return f"RatFuncField(variables={self.variables!r})"

    # -- construction -------------------------------------------------------

    def from_int(self, value: int) -> Scalar:
        return Scalar(self, self._field.ground_new(self._ring.domain(value)))

    def from_fraction(self, value: Fraction) -> Scalar:
        return Scalar(self, self._field.new(self._ring(value.numerator), self._ring(value.denominator)))

    def ring_int(self, value: int):
        return self._ring(value)

    def ring_generator(self, name: str):
        try:
            return self._ring_gens[name]
        except KeyError:
            raise ValueError(f"unknown identifier {name!r}") from None

    def from_ring(self, value) -> Scalar:
        """The scalar of a polynomial: itself over 1, which is canonical."""
        return Scalar(self, self._field.dtype(value))

    # -- rendering ----------------------------------------------------------

    def render(self, raw) -> str:
        num, den = raw.numer, raw.denom
        if not num:
            return "0"
        if den.is_ground:
            # constant denominator: fold it into the coefficients
            const = int(den.LC)
            terms = [(mon, coeff / const) for mon, coeff in _poly_terms(num)]
            return _render_terms(terms, self.variables)
        num_terms, den_terms = _normalize_fraction(_poly_terms(num), _poly_terms(den))
        return "({})/({})".format(
            _render_terms(num_terms, self.variables),
            _render_terms(den_terms, self.variables),
        )

    def end_coefficients(self, raw) -> tuple[Fraction | int, ...]:
        """Rendered coefficients that ``raw ** n`` raises to exactly the
        |n|-th power, for the raw value of a scalar or a polynomial of the
        ring (over 1): the coefficients of the leading and of the least term
        (in the ring's monomial order) of numerator and denominator, since
        the least term of p^n is the n-th power of the least term of p; or,
        when the denominator is a constant c, the numerator's two over c,
        which is how :meth:`render` shows them.  They are ints, and
        Fractions only over a constant denominator other than 1."""
        if isinstance(raw, _frac_class()):
            num, den = raw.numer, raw.denom
        else:
            num, den = raw, None
        if not num:
            return (0,)
        ends = (int(num.LC), int(num.terms()[-1][1]))
        if den is None or _is_one(den):
            return ends
        if den.is_ground:
            return tuple(Fraction(c, int(den.LC)) for c in ends)
        return ends + (int(den.LC), int(den.terms()[-1][1]))

    def degree(self, raw) -> int:
        """The largest exponent of any one variable in the numerator or the
        denominator of the raw value of a scalar or a ring polynomial, which
        ``raw ** n`` multiplies by |n|; 0 for a constant."""
        parts = (raw.numer, raw.denom) if isinstance(raw, _frac_class()) else (raw,)
        return max((e for p in parts if p for e in p.degrees()), default=0)

    # -- specialization -----------------------------------------------------

    def specialize(self, value: Scalar, assignment: dict) -> Scalar:
        """Evaluate at rational values of the indeterminates.

        ``assignment`` maps variable names to rational-backend scalars (or
        ints/Fractions).  Raises ZeroDivisionError when the denominator
        vanishes at the given point.
        """
        from sympy import QQ

        # Evaluating over ZZ cannot take the value 1/2, so evaluate in a
        # copy of the ring over QQ.
        ring = self._ring.clone(domain=QQ)
        pairs = []
        for gen, name in zip(ring.gens, self.variables):
            if name not in assignment:
                raise ValueError(f"no value supplied for {name!r}")
            val = assignment[name]
            if isinstance(val, Scalar):
                val = val.raw
            pairs.append((gen, QQ(Fraction(val))))
        num = value.raw.numer.set_ring(ring).evaluate(pairs)
        den = value.raw.denom.set_ring(ring).evaluate(pairs)
        if not den:
            raise ZeroDivisionError("denominator vanishes at the specialization point")
        result = Fraction(int(num.numerator), int(num.denominator)) / Fraction(
            int(den.numerator), int(den.denominator)
        )
        return rational_field().from_fraction(result)

    # -- root extraction ----------------------------------------------------

    def poly_roots(self, coeffs: Sequence[Scalar]) -> tuple[tuple[Scalar, ...], bool]:
        """Roots in the field of sum(coeffs[i] x^i), with multiplicity, from
        the linear factors of its factorization by sympy."""
        from sympy import Poly, factor_list, symbols

        lam = symbols("_lam")
        denom = self._ring.one
        for c in coeffs:
            denom = denom * c.raw.denom
        expr = 0 * lam
        for i, c in enumerate(coeffs):
            cleared = c.raw.numer * denom.quo(c.raw.denom)
            expr += cleared.as_expr() * lam ** i
        roots: list[Scalar] = []
        for base, exp in factor_list(expr, lam)[1]:
            factor = Poly(base, lam)
            if factor.degree() == 1:
                c1, c0 = factor.all_coeffs()
                roots.extend([Scalar(self, self._field.from_expr(-c0 / c1))] * exp)
        return tuple(roots), len(roots) == Poly(expr, lam).degree()


# -- ratfunc arithmetic --------------------------------------------------------
#
# Polynomials are sympy PolyElements over ZZ.  Every operand is a ratfunc
# value a/b: reduced over ZZ, with b leading positive.


def _is_one(poly) -> bool:
    return len(poly) == 1 and poly.get(poly.ring.zero_monom) == 1


def _exact_quotient_poly(x, y):
    """x / y when y divides x over ZZ, else None.  Stops at the first
    remainder whose leading term y's leading term does not divide, since y
    divides x only if it divides every such term."""
    y_monom, y_coeff = y.LT
    divide = x.ring.monomial_div
    rest, terms = x.copy(), []
    while rest:
        monom, coeff = rest.LT
        monom = divide(monom, y_monom)
        if monom is None or coeff % y_coeff:
            return None
        terms.append((monom, coeff // y_coeff))
        rest = rest._iadd_poly_monom(y, (monom, -(coeff // y_coeff)))
    return x.new(terms)


def _over(p, c, e):
    """p / (c x^e), term by term, for c x^e dividing every term of p."""
    divide = p.ring.monomial_ldiv
    return p.new([(divide(mon, e), cf // c) for mon, cf in p.items()])


def _monomial_cofactors(m, p):
    """(h, m / h, p / h) for a monomial m and a nonzero p: h is the gcd of
    m's coefficient and p's content times the least exponents of m and p,
    found in one scan of p that stops once both are 1.  When h is 1 the
    operands themselves come back."""
    ((monom, coeff),) = m.items()
    c, least = abs(coeff), monom
    for mon, cf in p.items():
        if c != 1:
            c = math.gcd(c, cf)
        if any(least):
            least = tuple(map(min, least, mon))
        elif c == 1:
            break
    if c == 1 and not any(least):
        return m.ring.one, m, p
    return m.new([(least, m.ring.domain(c))]), _over(m, c, least), _over(p, c, least)


def _split(p):
    """(c, e, p / (c x^e)) for a nonzero p: its content c, the least
    exponents e of its terms, and its primitive part."""
    c, least = 0, None
    for mon, cf in p.items():
        c = math.gcd(c, cf)
        least = mon if least is None else tuple(map(min, least, mon))
    if c == 1 and not any(least):
        return c, least, p
    return c, least, _over(p, c, least)


def _divided(x, y):
    """(h, x / h, y / h) when the shorter of x and y divides the other (h is
    then the shorter one), else None."""
    long, short = (x, y) if len(x) >= len(y) else (y, x)
    quotient = _exact_quotient_poly(long, short)
    if quotient is None:
        return None
    one = x.ring.one
    return (short, quotient, one) if short is y else (short, one, quotient)


def _cofactors(x, y):
    """(h, x / h, y / h) for a gcd h of nonzero x and y, cheapest test first:
    a monomial operand settles h from exponents and contents alone; a
    shorter operand may divide the longer; the primitive parts, once each
    side's content and monomial factor are split off, may divide likewise,
    with h the divisor times the gcd of those factors.  Only pairs that all
    of these miss go to sympy's ``cofactors``."""
    if len(x) == 1:
        return _monomial_cofactors(x, y)
    if len(y) == 1:
        h, y, x = _monomial_cofactors(y, x)
        return h, x, y
    found = _divided(x, y)
    if found:
        return found
    cx, ex, px = _split(x)
    cy, ey, py = _split(y)
    if px is not x or py is not y:
        found = _divided(px, py)
        if found:
            h, x_h, y_h = found
            c, e = math.gcd(cx, cy), tuple(map(min, ex, ey))
            divide = x.ring.monomial_ldiv
            return (h.mul_term((e, c)), x_h.mul_term((divide(ex, e), cx // c)),
                    y_h.mul_term((divide(ey, e), cy // c)))
    return x.cofactors(y)


def _times(x, y):
    """x * y, with no product formed when a factor is 1 and a monomial
    factor applied term by term."""
    if len(x) == 1:
        x, y = y, x
    if len(y) == 1:
        return x if _is_one(y) else x.mul_term(next(iter(y.items())))
    return x * y


def _signed(like, numer, denom):
    """numer / denom, both negated when denom leads negative."""
    if denom.LC < 0:
        numer, denom = -numer, -denom
    return like.raw_new(numer, denom)


def _product(f, c, d):
    """f * (c / d) for reduced f = a/b and c/d (d may lead negative), by
    cross-cancellation: (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d)
    and g2 = gcd(c, b), each skipped when its denominator is 1."""
    a, b = f.numer, f.denom
    if not a or not c:
        return f.field.zero
    if not _is_one(d):
        _, a, d = _cofactors(a, d)
    if not _is_one(b):
        _, c, b = _cofactors(c, b)
    return _signed(f, _times(a, c), _times(b, d))


def _sum(f, c, d):
    """f + c/d for reduced f = a/b and c/d.  Equal denominators cancel the
    numerator sum against b alone, a denominator 1 needs no gcd, and
    otherwise, with g = gcd(b, d) and t = a (d/g) + c (b/g), the sum is
    (t/h) / ((b/g)(d/g)(g/h)) with h = gcd(t, g)."""
    a, b = f.numer, f.denom
    if not c:
        return f
    if not a:
        return f.raw_new(c, d)
    if b == d:
        t = a + c
        if not t:
            return f.field.zero
        if _is_one(b):
            return f.raw_new(t, b)
        _, t, b = _cofactors(t, b)
        return _signed(f, t, b)
    if _is_one(b):
        return f.raw_new(_times(a, d) + c, d)
    if _is_one(d):
        return f.raw_new(a + _times(c, b), b)
    g, b, d = _cofactors(b, d)
    t = _times(a, d) + _times(c, b)
    if _is_one(g):
        return f.raw_new(t, _times(b, d))
    _, t, g = _cofactors(t, g)
    return _signed(f, t, _times(_times(b, d), g))


@cache
def _frac_class():
    """sympy's ``FracElement`` with the arithmetic above for operands of one
    field; any other operand takes sympy's own path.  Defined on first use,
    so that importing this module loads no sympy."""
    from sympy.polys.fields import FracElement

    class RatFuncElement(FracElement):
        def _same_field(f, g) -> bool:
            return isinstance(g, RatFuncElement) and (g.field is f.field or g.field == f.field)

        def __add__(f, g):
            return _sum(f, g.numer, g.denom) if f._same_field(g) else super().__add__(g)

        def __sub__(f, g):
            return _sum(f, -g.numer, g.denom) if f._same_field(g) else super().__sub__(g)

        def __mul__(f, g):
            return _product(f, g.numer, g.denom) if f._same_field(g) else super().__mul__(g)

        def __truediv__(f, g):
            if not f._same_field(g):
                return super().__truediv__(g)
            if not g:
                raise ZeroDivisionError("division by zero")
            return _product(f, g.denom, g.numer)

        def __rtruediv__(f, c):
            return f._inverse() if type(c) is int and c == 1 else super().__rtruediv__(c)

        def __pow__(f, n):
            return f._inverse() ** -n if n < 0 else super().__pow__(n)

        def _inverse(f):
            """1 / f: numerator and denominator swapped, with no gcd."""
            if not f:
                raise ZeroDivisionError("division by zero")
            return _signed(f, f.denom, f.numer)

    return RatFuncElement


_RATIONAL = RationalField()
_RATFUNC_CACHE: dict[tuple[str, ...], RatFuncField] = {}


def rational_field() -> RationalField:
    return _RATIONAL


def ratfunc_field(variables: Sequence[str] = ("q", "a", "b")) -> RatFuncField:
    key = tuple(variables)
    if key not in _RATFUNC_CACHE:
        _RATFUNC_CACHE[key] = RatFuncField(key)
    return _RATFUNC_CACHE[key]


def get_field(backend: str, variables: Optional[Sequence[str]] = None):
    """Look up a field by backend tag, as used in fixture files."""
    if backend == "rational":
        return rational_field()
    if backend == "ratfunc":
        return ratfunc_field(tuple(variables) if variables else ("q", "a", "b"))
    raise ValueError(f"unknown backend {backend!r}")


# -- rendering helpers -------------------------------------------------------


def _poly_terms(poly) -> list[tuple[tuple[int, ...], Fraction]]:
    """Terms of a sympy PolyElement as (exponent tuple, Fraction coefficient),
    sorted in descending graded-lexicographic order (first variable most
    significant)."""
    terms = [
        (tuple(int(e) for e in mon), Fraction(int(c.numerator), int(c.denominator)))
        for mon, c in poly.terms()
    ]
    terms.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return terms


def _normalize_fraction(num_terms, den_terms):
    """Negate both parts when the denominator's leading term (in render
    order) is negative.  A value is a fraction reduced over ZZ, so its
    coefficients are already coprime integers; only the sign can differ from
    the rendered form, because sympy makes the denominator lead positive in
    its own monomial order, not in the render's graded one."""
    if den_terms[0][1] < 0:
        num_terms = [(m, -c) for m, c in num_terms]
        den_terms = [(m, -c) for m, c in den_terms]
    return num_terms, den_terms


def _render_terms(terms, variables) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for mon, coeff in terms:
        factors = []
        for name, exp in zip(variables, mon):
            if exp == 1:
                factors.append(name)
            elif exp:
                factors.append(f"{name}^{exp}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if coeff > 0 else f" - {piece}")
    return "".join(parts)


# -- rational roots ------------------------------------------------------------
#
# Integer polynomials are lists of coefficients, constant term first, with no
# trailing zeros; the zero polynomial is [].


def _primitive(poly: list[int]) -> list[int]:
    """poly without trailing zeros, divided by the gcd of its coefficients
    (a positive number, so every sign stays)."""
    poly = list(poly)
    while poly and not poly[-1]:
        poly.pop()
    content = math.gcd(*poly)
    return [x // content for x in poly] if content > 1 else poly


def _exact_quotient(a: list[int], b: list[int]) -> Optional[list[int]]:
    """a / b when the primitive polynomial b divides a, else None.  By Gauss's
    lemma the quotient then has integer coefficients."""
    a, quotient = list(a), [0] * (len(a) - len(b) + 1)
    for i in reversed(range(len(quotient))):
        top, rest = divmod(a[i + len(b) - 1], b[-1])
        if rest:
            return None
        quotient[i] = top
        for j, y in enumerate(b):
            a[i + j] -= top * y
    return quotient if not any(a) else None


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """A multiple of the remainder of a divided by b by a power of b's leading
    coefficient (pseudo-division), without trailing zeros."""
    a, lead, db = list(a), b[-1], len(b) - 1
    while len(a) > db:
        top = a.pop()
        shift = len(a) - db
        a = [x * lead for x in a]
        for j in range(db):
            a[shift + j] -= top * b[j]
        while a and not a[-1]:
            a.pop()
    return a


def _gcd(a: list[int], b: list[int], p: Optional[int] = None) -> list[int]:
    """gcd(a, b) up to a constant factor: over the integers, or modulo the
    prime p when one is given."""
    def normal(poly):
        return _primitive(poly if p is None else [x % p for x in poly])

    a, b = normal(a), normal(b)
    while b:
        a, b = b, normal(_remainder(a, b))
    return a


def _derivative(poly: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(poly)][1:]


def _value(poly: list[int], y: int) -> int:
    value = 0
    for x in reversed(poly):
        value = value * y + x
    return value


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % k for k in range(2, math.isqrt(p) + 1))


def _rational_roots(f: list[int]) -> list[Fraction]:
    """The distinct rational roots of an integer polynomial f.

    With s the square-free part of f and c its leading coefficient, every
    rational root x of s makes y = c x an integer root of the monic integer
    polynomial g(y) = c^(n-1) s(y / c), and |y| < B by Fujiwara's bound.  The
    roots of g modulo the least prime p at which they are all simple are
    lifted by Newton's iteration to roots modulo a power of p above 2B; each
    lifted root whose residue nearest 0 is a root of g gives one x.  No
    integer is factored, so the work is polynomial in the coefficient sizes.

    s is f itself when f is square-free modulo the large prime P = 2^61 - 1
    and P does not divide f's leading coefficient: a square factor of f
    would stay one modulo P.  Only otherwise is s taken as f / gcd(f, f'),
    whose integer gcd is the slow step on large coefficients.
    """
    if len(f) < 2:
        return []
    P = 2 ** 61 - 1
    if not f[-1] % P or len(_gcd(f, _derivative(f), P)) > 1:
        f = _exact_quotient(f, _gcd(f, _derivative(f)))
    n, c = len(f) - 1, f[-1]
    g = [x * c ** (n - 1 - i) for i, x in enumerate(f[:-1])] + [1]
    dg = _derivative(g)
    bound = 2 ** (1 + max(-(-abs(g[n - k]).bit_length() // k) for k in range(1, n + 1)))
    p = 2
    while not (_is_prime(p) and len(_gcd(g, dg, p)) == 1):
        p += 1
    roots, modulus = [r for r in range(p) if not _value(g, r) % p], p
    while modulus <= 2 * bound:
        modulus *= modulus
        roots = [(r - _value(g, r) * pow(_value(dg, r), -1, modulus)) % modulus for r in roots]
    nearest = (r - modulus if 2 * r > modulus else r for r in roots)
    return [Fraction(y, c) for y in nearest if not _value(g, y)]
