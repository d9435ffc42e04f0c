"""Graded differential polynomials with exact rational-function coefficients.

A value is a sparse map from a *word* of anticommuting factors to a
coefficient in the even jet variables.  Words are kept in a fixed global
order (jet factors sorted by field and derivative order, then nonlocal
factors sorted by registration id), so that two values are equal exactly
when their term maps agree coefficient-wise.

Coefficients are elements of a field QQ(x1..xm) of rational functions of jet
symbols (``sympy.polys.fields.FracField``): reduced fractions, canonical by
construction, so zeros are dropped as they arise; their own type ``_Frac``
keeps them reduced with gcds of factors only, ``_fsum`` reduces a many-term
sum once, and gcds of two polynomials of two or more terms each are memoised
in sympy's cache, which ``clear_cache`` empties.  Their numerators and
denominators are ``_Poly``, whose arithmetic within one ring works on the term
dicts without sympy's dispatch, as ``D_x`` (``_d_x``) does.  Each value
carries its field; an operation on values from two fields lifts both into the
field over the union of their generators, by a per-pair map of exponent
positions.  Fields are memoised per generator set, in the order
``sympy.cancel`` uses.  Only this module imports sympy or reads a
coefficient's terms; other modules hold coefficients as ``Coeff`` and use its
private helpers.  Scalars come in as ``int``, ``Fraction`` or sympy
``Rational``, expressions are converted on construction, and ``_coeff_text``
writes a coefficient as ``str(c.as_expr())``, how ``sympy.cancel`` of the same
function prints, from the terms of its numerator and denominator.

Nonlocal factors may carry even parity (antiderivatives of densities with
an even number of odd factors).  Even factors commute with everything and
may repeat inside a word; odd factors anticommute and square to zero.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import gcd
from operator import itemgetter
from typing import Iterable, Mapping

import sympy as sp
from sympy import ZZ
from sympy.core.cache import cacheit
from sympy.integrals.rationaltools import ratint
from sympy.polys.domains import FractionField
from sympy.polys.fields import FracElement, FracField
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement

Coeff = FracElement  # a coefficient: an element of a ``coeff_field``
Jet = sp.Symbol  # a jet variable, as ``Fields.jet`` names it

_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_SUFFIX_RE = re.compile(r"^(\d*)x$")
_RATIONALS = (int, Fraction, sp.Rational)  # exact scalars, read by numerator and denominator


def _rational(field: FracField, q) -> "_Frac":
    """The rational number ``q``, one of ``_RATIONALS``, in ``field``."""
    ground = field.ring.ground_new
    return field.raw_new(ground(q.numerator), ground(q.denominator))


class _Frac(FracElement):
    """A ``coeff_field`` element: ``+``, ``-``, ``*``, ``/`` and ``diff`` of reduced
    operands take gcds of factors, not of the full products ``FracElement.new``
    cancels (Henrici 1956; Knuth, TAOCP 2, 4.5.1); a reduced fraction with a positive
    leading denominator coefficient is unique, so the results are sympy's own."""

    def _own(self, g) -> "_Frac | None":
        """``g`` in this field if it is a rational number or of this field, else None."""
        if isinstance(g, _Frac):
            return g if g.field is self.field else None
        return _rational(self.field, g) if isinstance(g, _RATIONALS) else None

    def _signed(self, num, den) -> "_Frac":
        """``num/den`` for coprime ``num`` and ``den``, with the canonical sign."""
        if not num:
            return self.field.zero
        return self.raw_new(-num, -den) if den.LC < 0 else self.raw_new(num, den)

    def __add__(self, other):
        g = self._own(other)
        if g is None:
            return super().__add__(other)
        if not g or not self:
            return g or self
        # a/b + c/d with h = gcd(b, d): only factors of h can divide the sum's numerator
        a, b, c, d, one = self.numer, self.denom, g.numer, g.denom, self.field.one.numer
        h, b, d = (b, one, one) if b == d else (one, b, d) if b == 1 or d == 1 else _cofactors(b, d)
        t, b = _times(a, d) + _times(c, b), _times(b, d)
        if h != 1:
            _, t, h = _cofactors(t, h)
        return self._signed(t, _times(b, h))

    def __sub__(self, other):
        g = self._own(other)
        return super().__sub__(other) if g is None else self + -g

    def __mul__(self, other):
        g = self._own(other)
        if g is None:
            return super().__mul__(other)
        if not self or not g:
            return self.field.zero
        # (a/b)(c/d): cross-cancel a with d and c with b
        a, b, c, d = self.numer, self.denom, g.numer, g.denom
        if d != 1:
            _, a, d = _cofactors(a, d)
        if b != 1:
            _, c, b = _cofactors(c, b)
        return self._signed(_times(a, c), _times(b, d))

    def __rmul__(self, other):
        g = self._own(other)
        return super().__rmul__(other) if g is None else self * g

    def __truediv__(self, other):
        g = self._own(other)
        return super().__truediv__(other) if g is None else self * g.raw_new(g.denom, g.numer)

    def diff(self, x) -> "_Frac":
        return self._quotient_rule(*(q.diff(x.to_poly()) for q in (self.numer, self.denom)))

    def _quotient_rule(self, dn, dd) -> "_Frac":
        """``(n/d)'`` from ``n' = dn``, ``d' = dd`` under a derivation for which no
        irreducible ``q`` with ``q' != 0`` divides ``q'`` (``d/du``, ``D_x``): with
        ``h = gcd(d, d')``, ``n'(d/h) - n(d'/h)`` over ``d (d/h)`` shares only factors of h."""
        if self.denom == 1:
            return self.raw_new(dn)
        h, d, dd = _cofactors(self.denom, dd)
        num = _times(dn, d) - _times(self.numer, dd)
        if h != 1:
            _, num, h = _cofactors(num, h)
        return self._signed(num, _times(_times(d, d), h))


class _Poly(PolyElement):
    """A ``coeff_field`` polynomial: ``==``, ``!=``, ``+``, ``-``, ``*`` with one of its own ring
    (``==`` also with an ``int``), ``diff``, ``LC`` and ``_gcd_monom`` take one pass over the term
    dicts, without sympy's ring test; other operands take sympy's methods, gcds its ``heugcd``."""

    __hash__ = PolyElement.__hash__  # defining __eq__ would drop it; _cofactors keys on it

    def __eq__(p1, p2):
        if p2.__class__ is _Poly and p2.ring is p1.ring:
            return dict.__eq__(p1, p2)
        if p2.__class__ is int:
            return not p1 if not p2 else len(p1) == 1 and p1.get(p1.ring.zero_monom) == p2
        return PolyElement.__eq__(p1, p2)

    def __ne__(p1, p2):
        return not p1.__eq__(p2)

    def __neg__(self):
        return _Poly(self.ring, {m: -c for m, c in self.items()})

    def __add__(p1, p2):
        if p2.__class__ is not _Poly or p2.ring is not p1.ring:
            return PolyElement.__add__(p1, p2)
        return _collect(p1.ring, p1, p2.items())

    def __sub__(p1, p2):
        if p2.__class__ is not _Poly or p2.ring is not p1.ring:
            return PolyElement.__sub__(p1, p2)
        return _collect(p1.ring, p1, p2.items(), -1)

    def __mul__(p1, p2):
        if p2.__class__ is not _Poly or p2.ring is not p1.ring:
            return PolyElement.__mul__(p1, p2)
        if len(p1) < len(p2):
            p1, p2 = p2, p1
        mul, p = p1.ring.monomial_mul, _Poly(p1.ring, ())
        if len(p2) == 1:  # no two products share a monomial, and over ZZ none is zero
            (m2, c2), = p2.items()
            p.update((mul(m1, m2), c1 * c2) for m1, c1 in p1.items())
            return p
        get = p.get
        for m2, c2 in p2.items():
            for m1, c1 in p1.items():
                m = mul(m1, m2)
                c = get(m, 0) + c1 * c2
                if c:
                    p[m] = c
                else:
                    del p[m]
        return p

    def _gcd_monom(f, g):
        """``(h, f/h, g/h)`` for a monomial ``f``, in one pass over ``g`` that stops at a gcd of 1."""
        ring, ((mf, cf),) = f.ring, f.items()
        m, c = mf, cf
        for mg, cg in g.items():
            m, c = ring.monomial_gcd(m, mg), gcd(c, cg)
            if c == 1 and m == ring.zero_monom:
                return ring.one, f, g
        div, new = ring.monomial_ldiv, f.new
        return new({m: c}), new({div(mf, m): cf // c}), new({div(mg, m): cg // c for mg, cg in g.items()})

    def diff(f, x):
        i = f.ring.index(x)  # no two terms of f differentiate to the same monomial
        return _Poly(f.ring, {m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in f.items() if m[i]})

    @property
    def LC(self):
        return self[max(self)] if self else 0  # every coeff_field ring is lex


def _collect(ring, start, terms, sign: int = 1) -> _Poly:
    """``start`` plus ``sign`` times the (monomial, coefficient) ``terms``, zeros dropped as they arise."""
    p = _Poly(ring, start)
    get = p.get
    for m, c in terms:
        c = get(m, 0) + sign * c
        if c:
            p[m] = c
        else:
            del p[m]
    return p


def _times(p, q):
    """``p * q`` for polynomials, skipping the pass over terms when either is 1."""
    return q if p == 1 else p if q == 1 else p * q


_memo_cofactors = cacheit(PolyElement.cofactors)  # emptied by sympy's clear_cache


def _cofactors(p, q):
    """``p.cofactors(q)``, memoised in sympy's cache when both have two or more terms;
    zero, constant and monomial operands take sympy's cheap paths directly."""
    return _memo_cofactors(p, q) if len(p) > 1 and len(q) > 1 else p.cofactors(q)


def _fsum(values: Iterable[_Frac], field: FracField) -> _Frac:
    """The sum of reduced ``values`` of ``field`` with one reduction: numerators add up
    over the running lcm of the denominators, with no gcd while a denominator equals it."""
    num, den = field.ring.zero, field.ring.one
    for v in filter(None, values):
        a, b = v.numer, v.denom
        if b == den:
            num += a
        else:
            den_b, b = (den, b) if den == 1 or b == 1 else _cofactors(den, b)[1:]
            num, den = _times(num, b) + _times(a, den_b), _times(den, b)
    if num and den != 1:
        _, num, den = _cofactors(num, den)
    return field.zero._signed(num, den)


def _by_order(entries: Iterable[tuple]) -> list[tuple]:
    """``(coefficient, order)`` pairs summed per order, by increasing order, zeros dropped."""
    acc: dict[int, object] = {}
    for coeff, order in entries:
        acc[order] = acc[order] + coeff if order in acc else coeff
    return [(acc[k], k) for k in sorted(acc) if acc[k]]


_FIELDS: dict[frozenset[sp.Symbol], FracField] = {}


def coeff_field(symbols: Iterable[sp.Symbol]) -> FracField:
    """The field QQ(symbols) of ``_Frac`` elements over ``_Poly`` polynomials, one instance
    per generator set: the fraction field of ZZ[symbols], whose gcds need no change of domain."""
    key = frozenset(symbols)
    field = _FIELDS.get(key)
    if field is None:
        field = _FIELDS[key] = FracField(tuple(_sort_gens(key)), ZZ, lex)
        ring = field.ring
        for domain, dtype in ((ring, _Poly(ring, ()).new), (field, _Frac(field, ring.zero).raw_new)):
            domain.dtype = dtype
            plain, domain.gens = domain.gens, domain._gens()
            for sym, was, gen in zip(domain.symbols, plain, domain.gens):
                if vars(domain).get(sym.name) is was:  # the by-name attributes sympy set
                    setattr(domain, sym.name, gen)
        ring._gens_set = set(ring.gens)  # sympy's in-place methods copy these first
        field.zero, field.one = field.dtype(ring.zero), field.dtype(ring.one)
    return field


@cache
def _mover(src: FracField, dst: FracField, names: tuple | None = None):
    """Monomials of ``src`` in ``dst``, generators matched by name (or by ``names``)."""
    at = {sym: i for i, sym in enumerate(names or src.symbols)}
    pick = itemgetter(*[at.get(sym, src.ngens) for sym in dst.symbols], src.ngens)
    return lambda m: pick(m + (0,))[:-1]


def _lift(c: FracElement, field: FracField, names: tuple | None = None) -> FracElement:
    """``c`` in ``field``, whose generators include its own (or ``names``); the
    generator order is global, so the reduced form carries over unchanged."""
    if c.field is field:
        return c
    move, new = _mover(c.field, field, names), field.ring.dtype
    return field.raw_new(*(new({move(m): k for m, k in q.items()}) for q in (c.numer, c.denom)))


def _into(field: FracField | None, values: Iterable) -> tuple[FracField, list[FracElement]]:
    """A field holding ``field`` and every value, and the values in it.

    Raises TypeError for a value that is no field element, expression or
    rational number (a float too: every verdict is an algebraic identity)
    and ValueError for an expression that is not a rational function of its
    symbols (``log``, ``atan``, ``RootSum``).
    """
    values = list(values)
    symbols = set()
    for v in values:
        if isinstance(v, FracElement):
            symbols.update(v.field.symbols)
        elif isinstance(v, sp.Expr):
            symbols.update(v.free_symbols)
        elif isinstance(v, bool) or not isinstance(v, _RATIONALS):
            raise TypeError(f"cannot use {v!r} as a coefficient; use integers or rationals")
    if field is None or not symbols.issubset(field.symbols):
        field = coeff_field(symbols.union(field.symbols) if field else symbols)
    return field, [
        _lift(v, field) if isinstance(v, FracElement)
        else _rational(field, v) if isinstance(v, _RATIONALS)
        else _canonical(field.from_expr(v))
        for v in values
    ]


def _canonical(c: FracElement) -> FracElement:
    """``c`` with the denominator sign ``cancel`` gives; ``from_expr`` skips it on 1/x**k."""
    return c.raw_new(-c.numer, -c.denom) if c.denom.LC < 0 else c


def _d_x(field: FracField, raised: Mapping[sp.Symbol, sp.Symbol]):
    """``D_x`` on ``field``, which holds each jet present and, as ``raised[jet]``, its
    next-order jet.  Each numerator and denominator takes one pass (the chain rule: an
    exponent ``e = m[i] > 0`` gives ``e`` times ``m`` shifted by ``d``), then ``_quotient_rule``."""
    at, ring = {s: i for i, s in enumerate(field.symbols)}, field.ring
    step = [(at[s], tuple((k == at[t]) - (k == at[s]) for k in range(field.ngens)))
            for s, t in raised.items()]
    mul = ring.monomial_mul

    def chain(q):
        return _collect(ring, (), ((mul(m, d), c * m[i]) for m, c in q.items() for i, d in step if m[i]))

    return lambda c: c._quotient_rule(chain(c.numer), chain(c.denom))


def _inverse(rows: list[list[FracElement]], field: FracField) -> list[list[FracElement]] | None:
    """The inverse of a square matrix over ``field``, or None when it is singular."""
    try:
        return DomainMatrix(rows, (len(rows), len(rows)), FractionField(field)).inv().to_list()
    except DMNonInvertibleMatrixError:
        return None


def _ratint(c: FracElement, x: sp.Symbol) -> FracElement | None:
    """An antiderivative of ``c`` in ``x``, or None when it is not a rational function:
    ``ratint`` leaves a log part as ``RootSum`` instead of solving for roots."""
    anti = ratint(c.as_expr(), x, real=False)
    try:
        return _into(None, [anti])[1][0]
    except ValueError:  # log, atan, RootSum, ...
        return None


def _two_point(field: FracField) -> tuple[FracField, tuple]:
    """The field over ``field``'s generators and a copy ``x(y)`` of each, and the copies."""
    ys = tuple(sp.Symbol(f"{x.name}(y)") for x in field.symbols)
    return coeff_field([*field.symbols, *ys]), ys


_DIGITS = 600  # below 640, the lowest limit on int <-> str an interpreter accepts
_BIG = 10**_DIGITS


def _int_text(k: int) -> str:
    """``str(k)`` for an integer of any size, ``_DIGITS`` digits at a time."""
    if -_BIG < k < _BIG:
        return str(k)
    high, low = divmod(abs(k), _BIG)
    return ("-" if k < 0 else "") + _int_text(high) + str(low).zfill(_DIGITS)


def _int_value(digits: str) -> int:
    """``int(digits)`` for a digit string of any length, ``_DIGITS`` digits at a time."""
    chunks = [digits[i : i + _DIGITS] for i in range(0, len(digits), _DIGITS)]
    return reduce(lambda value, chunk: value * 10 ** len(chunk) + int(chunk), chunks, 0)


@cache
def _by_name(field: FracField) -> tuple[list[tuple[int, str]], object]:
    """Generators as (position, name) in sympy's print order, by name, and a
    key reading a monomial's exponents in that order (terms print lex-descending)."""
    order = sorted(range(field.ngens), key=lambda i: field.symbols[i].name)
    key = itemgetter(*order) if order else tuple  # no generators: only the empty monomial
    return [(i, field.symbols[i].name) for i in order], key


def _ordered(poly, key, d: int = 1) -> list[tuple[tuple, int, int]]:
    """The terms of ``poly / d`` as (monomial, p, q) in lowest terms, ordered as by
    ``as_ordered_terms``: a constant before a lone negative power (``3 - 2*u**3``)."""
    terms = sorted(poly.items(), key=lambda t: key(t[0]), reverse=True)
    out = [(m, k // g, d // g) for m, k in terms for g in (gcd(k, d),)]
    if len(out) == 2 and out[0][1] < 0 < out[1][1] and not any(out[1][0]):
        if sum(1 for e in out[0][0] if e) == 1:
            out.reverse()
    return out


def _parts(c: FracElement) -> tuple[list, list, list | None]:
    """Names, numerator and denominator ``_ordered``; a ground denominator is
    distributed over the numerator as sympy does (``2*u/3 + 1/3``) and is None."""
    names, key = _by_name(c.field)
    if c.denom.is_ground:
        return names, _ordered(c.numer, key, c.denom.LC), None
    return names, _ordered(c.numer, key), _ordered(c.denom, key)


def _term_text(monom: tuple, p: int, q: int, names) -> str:
    """A term (p/q) * monomial as sympy prints it: ``-2*u**2*v/3``, ``-1/3``."""
    factors = [name if monom[i] == 1 else f"{name}**{monom[i]}" for i, name in names if monom[i]]
    text = "*".join([_int_text(abs(p))] * (abs(p) != 1 or not factors) + factors)
    return ("-" if p < 0 else "") + text + (f"/{_int_text(q)}" if q != 1 else "")


def _sum_text(terms, names) -> str:
    """A sum of ``_ordered`` terms joined with `` + `` and `` - ``."""
    texts = [_term_text(*t, names) for t in terms]
    return texts[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in texts[1:])


def _coeff_text(c: FracElement) -> str:
    """``str(c.as_expr())`` for a reduced ``c``, without building the expression.

    Over a polynomial denominator the quotient prints as sympy's ``Mul``, sums
    in parentheses, and a lone ``1/x**k`` as ``x**(-k)``.
    """
    names, num, den = _parts(c)
    if den is None:
        return _sum_text(num, names) if num else "0"
    top = _term_text(*num[0], names) if len(num) == 1 else f"({_sum_text(num, names)})"
    if len(den) > 1:
        return f"{top}/({_sum_text(den, names)})"
    (m, d, _), = den
    powers = [(name, m[i]) for i, name in names if m[i]]
    if top == "1" and d == 1 and len(powers) == 1 and powers[0][1] > 1:
        return "{}**(-{})".format(*powers[0])
    bottom = _term_text(m, d, 1, names)
    return f"{top}/({bottom})" if len(powers) + (d != 1) > 1 else f"{top}/{bottom}"


def _lead_rational(c: FracElement) -> tuple[int, int]:
    """(p, q) of ``c.as_expr().as_ordered_terms()[0].as_coeff_Mul(rational=True)[0]``;
    a monomial numerator's and denominator's contents are coprime in a reduced ``c``."""
    _, num, den = _parts(c)
    if den is None:
        return num[0][1:]
    return num[0][1] if len(num) == 1 else 1, den[0][1] if len(den) == 1 else 1


def _jet_name(base: str, order: int) -> str:
    """``base``, ``base_x``, ``base_2x``, ... at derivative ``order``."""
    return base if order == 0 else f"{base}_x" if order == 1 else f"{base}_{order}x"


@dataclass(frozen=True)
class Fields:
    """Declared dependent variables; owns the jet-symbol naming scheme.

    Order-0 symbols use the field name itself; derivatives append ``_x``,
    ``_2x``, ``_3x``, ...  Field names must be plain identifiers without
    underscores so the scheme stays unambiguous.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("at least one field is required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("field names must be unique")
        for name in self.names:
            if not _IDENT_RE.match(name):
                raise ValueError(
                    f"bad field name {name!r}: use letters/digits, no underscores"
                )

    @property
    def n(self) -> int:
        return len(self.names)

    def jet(self, index: int, order: int = 0) -> sp.Symbol:
        """Jet symbol of field ``index`` (1-based) at derivative ``order``."""
        if not 1 <= index <= self.n:
            raise ValueError(f"field index {index} out of range 1..{self.n}")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return sp.Symbol(_jet_name(self.names[index - 1], order))

    def classify(self, sym: sp.Symbol) -> tuple[int, int] | None:
        """Map a symbol back to ``(field_index, order)``, or None."""
        name = sym.name
        if "_" not in name:
            if name in self.names:
                return self.names.index(name) + 1, 0
            return None
        base, _, suffix = name.partition("_")
        if base not in self.names:
            return None
        m = _SUFFIX_RE.match(suffix)
        if not m:
            return None
        return self.names.index(base) + 1, int(m.group(1)) if m.group(1) else 1

    def jet_symbols(self, coeff: FracElement) -> list[tuple[sp.Symbol, int, int]]:
        """Jet symbols occurring in a coefficient as (symbol, field, order)."""
        degrees = zip(coeff.numer.degrees(), coeff.denom.degrees())
        out = []
        for sym, (dn, dd) in zip(coeff.field.symbols, degrees):
            if dn <= 0 and dd <= 0:
                continue
            hit = self.classify(sym)
            if hit is None:
                raise ValueError(f"symbol {sym} is not a jet variable of {self.names}")
            out.append((sym, hit[0], hit[1]))
        out.sort(key=lambda t: (t[1], t[2]))
        return out


class OddFactor(namedtuple("_Factor", "kind index order parity")):
    """One anticommuting (or even nonlocal) factor of a word.

    kind ``"p"``: dual jet factor of field ``index`` at derivative ``order``.
    kind ``"nl"``: nonlocal variable with registration id ``index``; its
    parity equals the parity of its defining density.  A tuple, so that
    words hash and compare in C.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int, order: int = 0, parity: int = 1):
        if kind not in ("p", "nl"):
            raise ValueError(f"unknown factor kind {kind!r}")
        if kind == "p" and parity != 1:
            raise ValueError("jet factors are always odd")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return tuple.__new__(cls, (kind, index, order, parity))

    def sort_key(self) -> tuple[int, int, int]:
        if self.kind == "p":
            return (0, self.index, self.order)
        return (1 if self.parity else 2, self.index, 0)


def p(index: int, order: int = 0) -> OddFactor:
    """Odd dual factor of field ``index`` at derivative ``order``."""
    return OddFactor("p", index, order)


def nl(ident: int, parity: int = 1) -> OddFactor:
    """Nonlocal factor with registry id ``ident``."""
    return OddFactor("nl", ident, 0, parity)


Word = tuple[OddFactor, ...]


def _word_key(word: Word) -> tuple:
    """The report order of words: by length, then factor by factor."""
    return len(word), [f.sort_key() for f in word]


def normalize_word(factors: Iterable[OddFactor]) -> tuple[int, Word | None]:
    """Sort a factor sequence into the global order with its Koszul sign.

    Returns ``(sign, word)``; a repeated odd factor makes the word vanish,
    signalled by ``(0, None)``.  Even factors commute freely and are kept
    with multiplicity.
    """
    odds = [f for f in factors if f.parity]
    evens = sorted((f for f in factors if not f.parity), key=OddFactor.sort_key)
    sign = 1
    n = len(odds)
    for i in range(n):
        for j in range(n - 1 - i):
            if odds[j].sort_key() > odds[j + 1].sort_key():
                odds[j], odds[j + 1] = odds[j + 1], odds[j]
                sign = -sign
    for a, b in zip(odds, odds[1:]):
        if a == b:
            return 0, None
    return sign, tuple(odds) + tuple(evens)


class SuperPoly:
    """Sparse graded polynomial: word of factors -> coefficient in ``field``."""

    __slots__ = ("terms", "field", "_texts")

    def __init__(self, terms: Mapping[Word, object] | None = None, field: FracField | None = None):
        """Coefficients in ``field``, or of any exact kind when it is None."""
        terms = terms or {}
        if field is None:
            field, coeffs = _into(None, terms.values())
            terms = dict(zip(terms, coeffs))
        self.field = field
        self.terms: dict[Word, FracElement] = {w: c for w, c in terms.items() if c}
        self._texts: list[tuple[Word, str]] | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SuperPoly":
        return SuperPoly()

    @staticmethod
    def scalar(value) -> "SuperPoly":
        return SuperPoly({(): value})

    @staticmethod
    def factor(f: OddFactor) -> "SuperPoly":
        return SuperPoly({(f,): 1})

    @staticmethod
    def monomial(coeff, factors: Iterable[OddFactor]) -> "SuperPoly":
        return SuperPoly.from_terms([(coeff, factors)])

    @staticmethod
    def from_terms(raw: Iterable[tuple[object, Iterable[OddFactor]]]) -> "SuperPoly":
        """Normalize a raw term list: sort each word with its sign, drop
        words with repeated odd factors, merge coefficients, drop zeros."""
        raw = list(raw)
        field, coeffs = _into(None, (c for c, _ in raw))
        acc: dict[Word, FracElement] = {}
        for (_, factors), c in zip(raw, coeffs):
            sign, word = normalize_word(tuple(factors))
            if word is None:
                continue
            c = c if sign > 0 else -c
            acc[word] = acc[word] + c if word in acc else c
        return SuperPoly(acc, field)

    def set_field(self, field: FracField) -> "SuperPoly":
        """The same value over ``field``, whose generators include this field's."""
        if field is self.field:
            return self
        return SuperPoly({w: _lift(c, field) for w, c in self.terms.items()}, field)

    def _aligned(self, other: "SuperPoly") -> tuple["SuperPoly", "SuperPoly"]:
        if self.field is other.field:
            return self, other
        field = coeff_field(self.field.symbols + other.field.symbols)
        return self.set_field(field), other.set_field(field)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        if not isinstance(other, SuperPoly):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        a, b = self._aligned(other)
        out = dict(a.terms)
        for word, coeff in b.terms.items():
            out[word] = out[word] + coeff if word in out else coeff
        return SuperPoly(out, a.field)

    def __neg__(self) -> "SuperPoly":
        return SuperPoly({w: -c for w, c in self.terms.items()}, self.field)

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SuperPoly):
            a, b = self._aligned(other)
            acc: dict[Word, FracElement] = {}
            for w1, c1 in a.terms.items():
                for w2, c2 in b.terms.items():
                    sign, word = normalize_word(w1 + w2)
                    if word is None:
                        continue
                    c = c1 * c2 if sign > 0 else -(c1 * c2)
                    acc[word] = acc[word] + c if word in acc else c
            return SuperPoly(acc, a.field)
        return self.scale(other)

    def scale(self, value) -> "SuperPoly":
        field, (c,) = _into(self.field, [value])
        return SuperPoly({w: _lift(k, field) * c for w, k in self.terms.items()}, field)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # semantic equality is not hash-compatible

    def canonical(self) -> "SuperPoly":
        """Coefficients are reduced fractions by construction: the identity."""
        return self

    def odd_degrees(self) -> set[int]:
        return {sum(1 for f in w if f.parity) for w in self.terms}

    def _odd_degree_where(self, keep) -> "SuperPoly":
        terms = {w: c for w, c in self.terms.items() if keep(sum(1 for f in w if f.parity))}
        return SuperPoly(terms, self.field)

    def parity_part(self, parity: int) -> "SuperPoly":
        return self._odd_degree_where(lambda d: d % 2 == parity)

    def degree_part(self, degree: int) -> "SuperPoly":
        return self._odd_degree_where(lambda d: d == degree)

    def is_local(self) -> bool:
        return all(f.kind == "p" for w in self.terms for f in w)

    def nonlocal_ids(self) -> set[int]:
        return {f.index for w in self.terms for f in w if f.kind == "nl"}

    def jet_factors(self) -> set[OddFactor]:
        return {f for w in self.terms for f in w if f.kind == "p"}

    # -- derivatives ----------------------------------------------------

    def partial_even(self, sym: sp.Symbol) -> "SuperPoly":
        if sym not in self.field.symbols:
            return SuperPoly.zero()
        x = self.field.gens[self.field.symbols.index(sym)]
        return SuperPoly({w: c.diff(x) for w, c in self.terms.items()}, self.field)

    def partial_odd(self, f: OddFactor) -> "SuperPoly":
        """Left graded derivative: strike the factor, sign from its position."""
        if f.kind != "p":
            raise ValueError("use nonlocal EL rules")
        out: dict[Word, FracElement] = {}
        for word, coeff in self.terms.items():
            if f not in word:
                continue
            pos = word.index(f)
            c = -coeff if sum(1 for g in word[:pos] if g.parity) % 2 else coeff
            rest = word[:pos] + word[pos + 1 :]
            out[rest] = out[rest] + c if rest in out else c
        return SuperPoly(out, self.field)

    # -- inspection -------------------------------------------------------

    def sorted_texts(self) -> list[tuple[Word, str]]:
        """Terms in word order, coefficients as ``str(c.as_expr())``; a value prints once."""
        if self._texts is None:
            words = sorted(self.terms, key=_word_key)
            self._texts = [(w, _coeff_text(self.terms[w])) for w in words]
        return self._texts

    def __repr__(self):
        if not self.terms:
            return "SuperPoly(0)"
        bits = []
        for word, coeff in self.sorted_texts():
            fs = "*".join(
                f"{f.kind}{f.index}" + (f"[{f.order}]" if f.order else "") for f in word
            )
            bits.append(f"({coeff})*{fs}" if fs else f"({coeff})")
        return "SuperPoly(" + " + ".join(bits) + ")"


def render_factor(f: OddFactor, fields: Fields, names: Mapping[int, str] | None = None) -> str:
    """Human-readable factor name: p, p_x, p2_3x, r1, y2, ..."""
    if f.kind == "nl":
        if names and f.index in names:
            return names[f.index]
        return f"r{f.index}"
    return _jet_name("p" if fields.n == 1 else f"p{f.index}", f.order)


def render_superpoly(
    a: SuperPoly,
    fields: Fields,
    names: Mapping[int, str] | None = None,
) -> str:
    """Deterministic text form with reduced-fraction coefficients."""
    if not a.terms:
        return "0"
    parts = []
    for word, cstr in a.sorted_texts():
        factors = "*".join(render_factor(f, fields, names) for f in word)
        if ("+" in cstr[1:]) or ("-" in cstr[1:]) or cstr.startswith("-("):
            cstr = f"({cstr})"
        parts.append(f"{cstr}*{factors}" if factors else cstr)
    return " + ".join(parts)
