"""Graded differential polynomials with exact rational-function coefficients.

A value is a sparse map from a *word* of anticommuting factors to a
coefficient in the even jet variables.  Words are kept in a fixed global
order (jet factors sorted by field and derivative order, then nonlocal
factors sorted by registration id), so that two values are equal exactly
when their term maps agree coefficient-wise.

Coefficients are elements of QQ(x1..xm) of jet variables named by ``str``:
reduced pairs ``_Frac`` of polynomials, plain dicts from packed monomials (``int``) to nonzero
``int``, the leading denominator coefficient positive in lex order, so equal values have equal
terms.  One ``_Field`` per generator set holds the monomial layout.  ``_Frac`` takes gcds of
factors only; a gcd of two sums is exact division where one divides the other (``_dividing``),
else the heuristic gcd ``_heu``, else the PRS gcd, memoised in ``_GCDS`` until the next command.
Values of two fields lift into the field over the union of their generators;
fields are memoised per name set, in sympy's ``_sort_gens`` order, which fixes signs.  Sympy is
imported by private converters only (the PRS gcd where ``_heu`` gives up, expressions given
to ``_into``), which no report reaches, and no other module imports it or reads a
coefficient's terms.  ``_coeff_text`` writes a coefficient as ``sympy.cancel`` of it prints.

Each job of the arithmetic has one kernel.  ``_muladd`` is the one polynomial product loop.  A
sum of many coefficients (``_fsum``) and each word of a sum of graded products (``_product_sum``,
which ``SuperPoly.__mul__`` calls with one pair) is a running sum: ``_add_into`` adds numerators
in place over the running lcm of the denominators, and ``_reduced`` reduces it once; a product
by one word with a rational coefficient shifts the words instead.  The sum of
two coefficients stays Henrici's ``_Frac.__add__``, whose ``gcd(b, d)`` spares coprime
denominators a second gcd.  A word-keyed sum of values is ``_merge``.  ``_start_command`` empties
the memos that last one command.

Nonlocal factors may carry even parity (antiderivatives of densities with
an even number of odd factors).  Even factors commute with everything and
may repeat inside a word; odd factors anticommute and square to zero.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import combinations, starmap
from math import comb, gcd, isqrt
from operator import floordiv, gt, itemgetter, mul, or_
from struct import Struct
from typing import Iterable, Mapping, Sequence

Jet = str  # a jet variable, as ``Fields.jet`` names it

_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_RESERVED_RE = re.compile(r"p\d*|[ry]\d+")  # the report names of dual factors and nonlocal variables
_JET_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)(?:_(\d*)x)?")  # a field name, a derivative suffix
_RANK = dict(zip("xyzpqrstuvwabcdefghijklmno", [*range(124, 127), *range(216, 224), *range(301, 316)]))


def _gen_key(name: Jet) -> tuple:
    """sympy's ``_sort_gens`` key: a letter's rank, the name less its trailing digits, those
    digits; then the name, which orders names that sympy leaves in input order (``u1``, ``u01``)."""
    base, digits = re.match(r"(.*?)(\d*)$", name).groups()
    return _RANK.get(base, 1000), base, int(digits or 0), name


_WIDTH = 16  # bits of one generator's field in a packed monomial (a struct "H"), the top one a guard bit
_MAX = (1 << _WIDTH - 1) - 1  # the largest exponent a field holds, and the mask of one field
_ONE = {0: 1}  # the polynomial 1 of every field; no polynomial is changed once built


class ExponentOverflowError(OverflowError):
    """An exponent would not fit the field of its generator in a packed monomial."""

    def __init__(self):
        super().__init__(f"an exponent of a jet variable would pass {_MAX}")


class _Field:
    """QQ(symbols), one instance per generator set: ``_Frac`` over ZZ[symbols] in lex order, whose
    polynomials are dicts from monomials to nonzero ``int``; ``converter`` is built by ``_sympy``.
    A monomial is one ``int``, generator ``i``'s exponent at bit ``shifts[i]``, the first
    generator's most significant: ``max`` is the lex leader, a product a sum (Bachmann and
    Schönemann 1998).  The top bit of each field, in ``guard``, is clear in a monomial; a sum sets
    it in a field that overflows, never carrying on, and ``(a | guard) - b`` clears it in each field
    where ``a``'s exponent is below ``b``'s."""

    __slots__ = ("symbols", "index", "shifts", "guard", "layout", "converter", "zero", "one", "gens")

    def __init__(self, symbols: tuple[Jet, ...]):
        self.symbols, self.index, self.converter = symbols, {s: i for i, s in enumerate(symbols)}, None
        self.layout = Struct(f">{len(symbols)}H")  # a monomial's bytes, big-endian, one field each
        self.shifts = tuple(_WIDTH * i for i in reversed(range(len(symbols))))
        self.guard = sum(1 << s + _WIDTH - 1 for s in self.shifts)
        self.zero, self.one = _Frac(self, {}, _ONE), _Frac(self, _ONE, _ONE)
        self.gens = tuple(_Frac(self, {1 << s: 1}, _ONE) for s in self.shifts)

    def monomial_gcd(self, a: int, b: int) -> int:
        """The exponent-wise minimum of monomials ``a`` and ``b``."""
        below = self.guard & ~((a | self.guard) - b)  # the guard bits of the fields where a < b
        below -= below >> _WIDTH - 1  # ... spread over those fields' exponent bits
        return b ^ (a ^ b) & below

    def packed(self, terms: Mapping[tuple, int]) -> dict:
        """The polynomial with the (exponent tuple, coefficient) ``terms``, as sympy's rings hold them."""
        if any(e > _MAX for m in terms for e in m):
            raise ExponentOverflowError()
        pack = self.layout.pack
        return {int.from_bytes(pack(*m), "big"): c for m, c in terms.items()}

    def checked(self, p: dict) -> dict:
        """``p``, whose monomials are sums of two monomials, if none set a guard bit: each sum is
        exact, so one that cancelled was no overflow."""
        if reduce(or_, p, 0) & self.guard:
            raise ExponentOverflowError()
        return p

    def unpacked(self, p: dict) -> dict[tuple, int]:
        """The terms of ``p`` with exponent tuples for monomials."""
        unpack, size = self.layout.unpack, self.layout.size
        return {unpack(m.to_bytes(size, "big")): c for m, c in p.items()}


def _collect(start, terms, sign: int = 1) -> dict:
    """``start`` plus ``sign`` times the (monomial, coefficient) ``terms``, zeros dropped as they arise."""
    p = dict(start)
    get = p.get
    for m, c in terms:
        c = get(m, 0) + sign * c
        if c:
            p[m] = c
        else:
            del p[m]
    return p


def _muladd(acc: dict, k: int, p: dict, q: dict) -> dict:
    """``acc += k*p*q`` in place, zeros dropped, for a dict ``acc`` the caller owns.  Its monomials
    may set guard bits: the caller checks them (``_Field.checked``) before it keeps or multiplies it."""
    get = acc.get
    for m2, c2 in q.items():
        c2 *= k
        for m1, c1 in p.items():
            m = m1 + m2
            c = get(m, 0) + c1 * c2
            if c:
                acc[m] = c
            else:
                del acc[m]
    return acc


def _neg(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _mul(field: _Field, p: dict, q: dict) -> dict:
    """``p * q`` for polynomials of ``field``: an operand itself when the other is 1."""
    if q == _ONE or not p:
        return p
    if p == _ONE or not q:
        return q
    return field.checked(_muladd({}, 1, p, q) if len(p) >= len(q) else _muladd({}, 1, q, p))


def _diff(p: dict, s: int) -> dict:
    """The derivative of ``p`` by the generator whose exponent is at bit ``s``."""
    return {m - (1 << s): c * e for m, c in p.items() if (e := m >> s & _MAX)}


def _rational(field: _Field, q) -> "_Frac":
    """The rational number ``q``, an ``int`` or a ``Fraction``, in ``field``."""
    if not q:
        return field.zero
    return _Frac(field, {0: q.numerator}, {0: q.denominator})


class _Frac:
    """A ``coeff_field`` element, the reduced pair ``numer/denom``.  ``+``, ``-``, ``*``, ``/`` and
    ``diff`` of reduced operands take gcds of factors, not of the full products (Henrici 1956;
    Knuth, TAOCP 2, 4.5.1)."""

    __slots__ = ("field", "numer", "denom")

    def __init__(self, field: _Field, numer: dict, denom: dict):
        self.field, self.numer, self.denom = field, numer, denom

    def _own(self, g) -> "_Frac | None":
        """``g`` in this field if it is a rational number or of this field, else None."""
        if g.__class__ is _Frac:
            return g if g.field is self.field else None
        return _rational(self.field, g) if isinstance(g, (int, Fraction)) else None

    def _signed(self, num, den) -> "_Frac":
        """``num/den`` for coprime ``num`` and ``den``, with the canonical sign."""
        if not num:
            return self.field.zero
        return _Frac(self.field, _neg(num), _neg(den)) if den[max(den)] < 0 else _Frac(self.field, num, den)

    def __bool__(self):
        return bool(self.numer)

    def __eq__(self, other):
        g = self._own(other)
        return g is not None and self.numer == g.numer and self.denom == g.denom

    def __neg__(self):
        return _Frac(self.field, _neg(self.numer), self.denom)

    def __add__(self, other):
        g = self._own(other)
        if g is None:
            return NotImplemented
        if not g or not self:
            return g or self
        # a/b + c/d with h = gcd(b, d): only factors of h can divide the sum's numerator
        a, b, c, d, field = self.numer, self.denom, g.numer, g.denom, self.field
        h, b, d = (b, _ONE, _ONE) if b == d else (_ONE, b, d) if _ONE in (b, d) else _cofactors(field, b, d)
        t, b = _collect(_mul(field, a, d), _mul(field, c, b).items()), _mul(field, b, d)
        if h != _ONE:
            _, t, h = _cofactors(field, t, h)
        return self._signed(t, _mul(field, b, h))

    __radd__ = __add__

    def __sub__(self, other):
        g = self._own(other)
        return NotImplemented if g is None else self + -g

    def __rsub__(self, other):
        g = self._own(other)
        return NotImplemented if g is None else g + -self

    def __mul__(self, other):
        g = self._own(other)
        if g is None:
            return NotImplemented
        if not self or not g:
            return self.field.zero
        # (a/b)(c/d): cross-cancel a with d and c with b
        a, b, c, d, field = self.numer, self.denom, g.numer, g.denom, self.field
        if d != _ONE:
            _, a, d = _cofactors(field, a, d)
        if b != _ONE:
            _, c, b = _cofactors(field, c, b)
        return self._signed(_mul(field, a, c), _mul(field, b, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._own(other)
        if g is None:
            return NotImplemented
        if not g:
            raise ZeroDivisionError("division by zero in a coefficient field")
        return self * _Frac(g.field, g.denom, g.numer)

    def __rtruediv__(self, other):
        g = self._own(other)
        return NotImplemented if g is None else g / self

    def __pow__(self, n: int) -> "_Frac":
        """``self**n``, for ``n < 0`` the power ``-n`` of ``1/self``: powers of coprime
        polynomials are coprime."""
        if n < 0:
            return (self.field.one / self) ** -n
        field = self.field
        return _Frac(field, *(reduce(partial(_mul, field), [q] * n, _ONE) for q in (self.numer, self.denom)))

    def diff(self, x: Jet) -> "_Frac":
        """The partial derivative by the generator named ``x``."""
        s = self.field.shifts[self.field.index[x]]
        return self._quotient_rule(_diff(self.numer, s), _diff(self.denom, s))

    def _quotient_rule(self, dn, dd) -> "_Frac":
        """``(n/d)'`` from ``n' = dn``, ``d' = dd`` under a derivation for which no
        irreducible ``q`` with ``q' != 0`` divides ``q'`` (``d/du``, ``D_x``): with
        ``h = gcd(d, d')``, ``n'(d/h) - n(d'/h)`` over ``d (d/h)`` shares only factors of h.
        For a sum ``d = r^e`` (``_power_form``), ``h = r^(e-1) gcd(r, e r')`` with ``e r' =
        d'/r^(e-1)`` by Leibniz: the gcd of smaller polynomials, for a conformal factor a monomial's;
        where ``gcd(r, e r') = 1``, the numerator is prime to h, which needs no second gcd."""
        if self.denom == _ONE:
            return self._signed(dn, self.denom)
        field = self.field
        form = len(self.denom) > 1 and len(dd) > 1 and _power_form(field, self.denom)
        r, below = form or (self.denom, _ONE)
        h, d, dd = _cofactors(field, r, dd if below is _ONE else _exquo(field, dd, below))
        coprime = below is not _ONE and h == _ONE  # no factor of r divides n or e r', so none divides num
        h = _mul(field, below, h)
        num = _collect(_mul(field, dn, d), _mul(field, self.numer, dd).items(), -1)
        if h != _ONE and not coprime:
            _, num, h = _cofactors(field, num, h)
        return self._signed(num, _mul(field, _mul(field, d, d), h))


Coeff = _Frac  # a coefficient: an element of a ``coeff_field``


def _sympy(field: _Field):
    """Sympy's ``FracField`` over ``field``'s generators, built on first use: the converter."""
    if field.converter is None:
        import sympy as sp
        from sympy.polys.fields import FracField

        field.converter = FracField([sp.Symbol(s) for s in field.symbols], sp.ZZ, sp.lex)
    return field.converter


_HEU_TRIES = 6  # evaluation points the heuristic gcd tries before it gives up
_GCDS: dict = {}  # (field, p's terms, q's terms) -> ``_cofactors`` of two sums, for one command


def _cofactors(field: _Field, p: dict, q: dict):
    """``(h, p/h, q/h)`` for ``h = gcd(p, q)``, its leading coefficient positive and its content
    the gcd of the contents; two sums take the memo, others one pass."""
    if len(p) > 1 and len(q) > 1:
        key = field, frozenset(p.items()), frozenset(q.items())
        hit = _GCDS.get(key)
        if hit is None:
            hit = _GCDS[key] = _dividing(field, p, q) or _heu(field, p, q) or _prs_gcd(field, p, q)
        return hit
    if not p or not q:  # gcd(g, 0) = g up to sign; gcd(0, 0) = 0, cofactors 0
        g = p or q
        h, u = (g, _ONE) if g and g[max(g)] > 0 else (_neg(g), {0: -1}) if g else (g, g)
        return (h, {}, u) if not p else (h, u, {})
    if len(p) == 1:
        return _gcd_monom(field, p, q)
    h, cq, cp = _gcd_monom(field, q, p)
    return h, cp, cq


_POWERS: dict = {}  # (field, a sum's terms) -> its ``_power_form``, for one command


def _power_form(field: _Field, d: dict):
    """``(r, r^(e-1))`` for the largest ``e > 1`` with ``d = r^e`` and ``lc(r) > 0``, else None;
    memoised in ``_POWERS``.  ``e`` divides each degree of ``d`` and each exponent of its lex-leading
    and lex-trailing monomials, and ``lc(r)`` is the integer root of ``lc(d)`` (Newton's method from
    above).  Each next term of ``r`` is the leading term of ``d - r^e`` over ``e lt(r)^(e-1)``, below
    the last and at most ``deg d / e`` in each generator (``cap``), so no power overflows."""
    key = field, frozenset(d.items())
    if key in _POWERS:
        return _POWERS[key]
    top, low, guard, shifts = max(d), min(d), field.guard, field.shifts
    degrees = [max(m >> s & _MAX for m in d) for s in shifts]
    k = gcd(*degrees, *(m >> s & _MAX for m in (top, low) for s in shifts))
    for e in (e for e in range(k, 1, -1) if not k % e):
        c = 1 << -(-d[top].bit_length() // e)
        while d[top] > 0 and (j := ((e - 1) * c + d[top] // c ** (e - 1)) // e) < c:
            c = j
        r, lead, scale = {top // e: c}, top // e * (e - 1), e * c ** (e - 1)
        cap = sum(t // e << s for t, s in zip(degrees, shifts))
        for _ in range(len(d) if c**e == d[top] else 0):  # r has at most len(d) terms
            below = reduce(partial(_mul, field), [r] * (e - 1), _ONE)
            rest = _collect(d, _mul(field, below, r).items(), -1)
            if not rest:
                _POWERS[key] = r, below
                return r, below
            m = max(rest)
            t = ((m | guard) - lead) ^ guard  # m / lead(r^(e-1)), a guard bit set if it does not divide
            if rest[m] % scale or t & guard or ((cap | guard) - t) & guard != guard or t >= min(r):
                break
            r[t] = rest[m] // scale
    _POWERS[key] = None
    return None


def _gcd_monom(field: _Field, f: dict, g: dict):
    """``_cofactors`` of a monomial ``f`` and a nonzero ``g``, in one pass that stops at a gcd of 1."""
    ((mf, cf),) = f.items()
    m, c, monomial_gcd = mf, cf, field.monomial_gcd
    for mg, cg in g.items():
        m, c = monomial_gcd(m, mg), gcd(c, cg)
        if c == 1 and not m:
            return _ONE, f, g
    return {m: c}, {mf - m: cf // c}, {mg - m: cg // c for mg, cg in g.items()}


def _dividing(field: _Field, p: dict, q: dict):
    """``_cofactors`` of sums ``p`` and ``q`` if one divides the other, else None: the divisor, its
    leading coefficient made positive, is the gcd, whose content is by Gauss's lemma the gcd of the
    contents.  ``_exquo`` stops at once where the divisor's leading monomial does not divide."""
    for f, h in (p, q), (q, p):
        if (cf := _exquo(field, f, h)) is not None:
            h, cf, ch = (h, cf, _ONE) if h[max(h)] > 0 else (_neg(h), _neg(cf), {0: -1})
            return (h, cf, ch) if f is p else (h, ch, cf)
    return None


def _heu(field: _Field, f: dict, g: dict, i: int = 0):
    """The heuristic gcd (Char, Geddes and Gonnet 1989) of nonzero ``f`` and ``g`` in generators
    ``i`` on as ``_cofactors``, or None if it gives up: their values at generator ``i`` ``= x``
    (exponents over their gcd ``j``) give a gcd and cofactors in symmetric base-``x`` digits; as in
    sympy's ``heugcd``, ``x`` starts and grows, and the first candidate dividing ``f`` and ``g`` is
    kept (the gcd's primitive part, ``f`` or ``g`` over its cofactor)."""
    last, s = i + 1 == len(field.symbols), field.shifts[i]
    j = gcd(*(m >> s & _MAX for m in f), *(m >> s & _MAX for m in g)) or 1
    content = gcd(*f.values(), *g.values())
    if content != 1:
        f, g = ({m: c // content for m, c in a.items()} for a in (f, g))
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * isqrt(b)), 2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    for _ in range(_HEU_TRIES):
        ff, gg = _evaluate(field, f, x, j, i, last), _evaluate(field, g, x, j, i, last)
        if ff and gg:
            images = (d := gcd(ff, gg), ff // d, gg // d) if last else _heu(field, ff, gg, i + 1)
            if images is None:
                return None
            h, cff, cfg = candidates = [_interpolate(field, image, x, j, i) for image in images]
            k = None not in candidates and gcd(*h.values())  # h is not 0: its value is a gcd
            found = k and (_divides(field, {m: c // k for m, c in h.items()}, f, g)
                           or _divides(field, _exquo(field, f, cff), f, g)
                           or _divides(field, _exquo(field, g, cfg), f, g))
            if found:
                h, cff, cfg = found if found[0][max(found[0])] > 0 else tuple(map(_neg, found))
                return {m: c * content for m, c in h.items()}, cff, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _divides(field: _Field, h, f: dict, g: dict):
    """``(h, f/h, g/h)`` if ``h`` is a polynomial dividing ``f`` and ``g``, else None."""
    cff = h and _exquo(field, f, h)
    cfg = cff and _exquo(field, g, h)
    return cfg and (h, cff, cfg)


def _exquo(field: _Field, f: dict, h: dict) -> dict | None:
    """``f/h`` if nonzero ``h`` divides ``f``, else None: lex division by leading terms.  Where
    ``h`` divides ``f``, no exponent of a product passes ``f``'s, so an overflow means it does not."""
    guard, (mh, ch) = field.guard, max(h.items())
    rest = [t for t in h.items() if t[0] != mh]
    r, q = dict(f), {}
    while r:
        m = max(r)
        c, e = r.pop(m), (m | guard) - mh
        if c % ch or e & guard != guard:  # a field of m below mh's cleared its guard bit
            return None
        e ^= guard
        k = q[e] = c // ch
        for m, c in rest:
            m += e
            if m & guard:
                return None
            c = r.pop(m, 0) - k * c
            if c:
                r[m] = c
    return q


def _evaluate(field: _Field, f: dict, x: int, j: int, i: int, last: bool):
    """``f`` at generator ``i`` ``= x``, exponents divided by ``j``: an integer if it is the
    ``last``, else a polynomial whose generators up to ``i`` have exponent 0, as ``f``'s before it."""
    values, s = {}, field.shifts[i]
    keep = ~(_MAX << s)
    for m, c in f.items():
        key = m & keep
        values[key] = values.get(key, 0) + c * x ** ((m >> s & _MAX) // j)
    return values[0] if last else {m: c for m, c in values.items() if c}


def _interpolate(field: _Field, image, x: int, j: int, i: int) -> dict | None:
    """The polynomial of ``field`` with coefficients in (-x/2, x/2] whose value at generator
    ``i`` ``= x``, exponents divided by ``j``, is ``image`` (an integer, or as ``_evaluate``'s);
    None if an exponent of it passes ``_MAX``, so that it divides no polynomial of ``field``."""
    terms, low, s = {}, x - x // 2 - 1, field.shifts[i]  # digits in [-low, x // 2], as sympy's ``heugcd``
    for m, c in image.items() if image.__class__ is dict else [(0, image)]:
        k = 0
        while c:
            digit = (c + low) % x - low
            if digit:
                terms[m | k << s] = digit
            c, k = (c - digit) // x, k + j
        if k - j > _MAX:
            return None
    return terms


def _prs_gcd(field: _Field, p: dict, q: dict):
    """``_cofactors`` by sympy's primitive PRS, which is dense, on exponents over their gcd per generator."""
    to, (f, g) = _sympy(field).ring, (field.unpacked(a) for a in (p, q))
    js = [gcd(*column) or 1 for column in zip(*f, *g)]
    f, g = (to.from_dict({tuple(map(floordiv, m, js)): c for m, c in a.items()}) for a in (f, g))
    found = [field.packed({tuple(map(mul, m, js)): c for m, c in x.items()}) for x in to.dmp_rr_prs_gcd(f, g)]
    return tuple(found if found[0][max(found[0])] > 0 else map(_neg, found))


def _add_into(field: _Field, entry: list, k: int, a: dict, b: dict, d: dict) -> None:
    """``entry += k*a*b/d`` for a running sum ``entry = [num, den]`` whose ``num`` is its own dict,
    never an operand's: ``k*a*b`` adds into ``num`` in place while ``d`` equals ``den`` (or ``num`` is
    0), else both go over the lcm of ``den`` and ``d``.  ``num`` is checked before it is multiplied."""
    num, den = entry
    if num and d != den:  # num/den + kab/d over lcm(den, d) = den (d/h), h = gcd(den, d)
        _, den_h, d_h = _cofactors(field, den, d)
        num, b, d = _muladd({}, 1, field.checked(num), d_h), _mul(field, b, den_h), _mul(field, den, d_h)
    entry[:] = num, d
    _muladd(num, k, a, b)


def _reduced(field: _Field, entry: list) -> _Frac:
    """The running sum ``entry`` of ``_add_into`` as a reduced coefficient: its one reduction."""
    num, den = entry
    if field.checked(num) and den != _ONE:
        _, num, den = _cofactors(field, num, den)
    return field.zero._signed(num, den)


def _fsum(values: Iterable[_Frac], field: _Field) -> _Frac:
    """The sum of reduced ``values`` of ``field`` with one reduction (``_add_into``); a lone
    nonzero value is that value itself, reduced already."""
    values = [v for v in values if v]
    if len(values) == 1:
        return values[0]
    entry = [{}, _ONE]
    for v in values:
        _add_into(field, entry, 1, v.numer, _ONE, v.denom)
    return _reduced(field, entry)


def _merge(acc: dict, pairs: Iterable[tuple]) -> dict:
    """Add ``(key, value)`` pairs into ``acc``: a value sums into the one of its key."""
    for key, value in pairs:
        acc[key] = acc[key] + value if key in acc else value
    return acc


def _by_order(entries: Iterable[tuple]) -> list[tuple]:
    """``(coefficient, order)`` pairs summed per order, by increasing order, zeros dropped."""
    acc = _merge({}, ((order, coeff) for coeff, order in entries))
    return [(acc[k], k) for k in sorted(acc) if acc[k]]


_FIELDS: dict[frozenset[Jet], _Field] = {}


def coeff_field(symbols: Iterable[Jet]) -> _Field:
    """The field QQ(symbols), one instance per generator set, generators in ``_gen_key`` order."""
    key = frozenset(symbols)
    field = _FIELDS.get(key)
    if field is None:
        field = _FIELDS[key] = _Field(tuple(sorted(key, key=_gen_key)))
    return field


@cache
def _mover(src: _Field, dst: _Field, names: tuple | None = None):
    """Monomials of ``src`` in ``dst``, generators matched by name (or by ``names``), those absent
    from ``dst`` (which must not occur) skipped: the fields that move by the same number of bits
    move together."""
    masks: dict[int, int] = {}
    for sym, s in zip(names or src.symbols, src.shifts):
        if sym not in dst.index:
            continue
        d = dst.shifts[dst.index[sym]] - s
        masks[d] = masks.get(d, 0) | _MAX << s
    moves = [(k, max(d, 0), max(-d, 0)) for d, k in masks.items()]
    if len(moves) == 1:  # all fields move alike
        (_, left, right), = moves
        return lambda m: m << left >> right
    return lambda m: sum([(m & k) << left >> right for k, left, right in moves])


def _lift(c: _Frac, field: _Field, names: tuple | None = None) -> _Frac:
    """``c`` in ``field``, whose generators include its own (or ``names``); the
    generator order is global, so the reduced form carries over unchanged."""
    if c.field is field:
        return c
    move = _mover(c.field, field, names)
    return _Frac(field, *({move(m): k for m, k in q.items()} for q in (c.numer, c.denom)))


def _into(field: _Field | None, values: Iterable) -> tuple[_Field, list[_Frac]]:
    """A field holding ``field`` and every value, and the values in it.  Raises TypeError for
    a value that is no field element, sympy expression, ``int`` or ``Fraction`` (a float too: every
    verdict is an algebraic identity) and ValueError for an expression that is not a rational
    function of its symbols (``log``, ``atan``, ``RootSum``)."""
    values = list(values)
    own = field or (values[0].field if values and values[0].__class__ is _Frac else None)
    if own and all(v.__class__ is _Frac and v.field is own for v in values):
        return own, values
    symbols = set()
    sympy = sys.modules.get("sympy")  # a sympy expression exists only once sympy is imported
    for v in values:
        if isinstance(v, _Frac):
            symbols.update(v.field.symbols)
        elif sympy and isinstance(v, sympy.Expr):
            symbols.update(s.name for s in v.free_symbols)
        elif isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise TypeError(f"cannot use {v!r} as a coefficient; use integers or rationals")
    if field is None or not symbols.issubset(field.symbols):
        field = coeff_field(symbols.union(field.symbols) if field else symbols)
    return field, [
        _lift(v, field) if isinstance(v, _Frac)
        else _rational(field, v) if isinstance(v, (int, Fraction))
        else _from_sympy(_sympy(field).from_expr(v), field)
        for v in values
    ]


def _from_sympy(x, field: _Field) -> _Frac:
    """A reduced element ``x`` of the converter of ``field``, in ``field`` with the canonical sign."""
    return field.zero._signed(field.packed(x.numer), field.packed(x.denom))


_DX: dict = {}  # (field, fields, jets present, density fields) -> ``_d_x``'s plan
_JETS: dict = {}  # (fields, field) -> ``Fields._jets_in``'s classes


def _start_command() -> None:
    """Empty the memos that last one command (``_GCDS``, ``_POWERS``, ``_DX``, ``_JETS``),
    so that a command run in-process starts as cold as a fresh process.  ``_FIELDS``, ``_mover`` and
    ``_by_name`` persist on purpose: a value built before a command must still combine with one
    built after it, which takes the same field instance."""
    for memo in (_GCDS, _POWERS, _DX, _JETS):
        memo.clear()


def _used(a: "SuperPoly") -> int:
    """The bitwise OR of the monomials of ``a``'s coefficients: its generators that occur."""
    return reduce(or_, (m for c in a.terms.values() for q in (c.numer, c.denom) for m in q), 0)


def _d_x(a: "SuperPoly", fields: "Fields", densities: tuple[_Field, ...]) -> tuple[_Field, object]:
    """``(K, D_x)`` for ``a``: K holds ``a``'s field, the next-order jet of each jet present and the
    generators of ``densities``.  The chain rule is one pass per numerator and denominator (exponent
    ``e > 0`` of a jet in ``m`` gives ``e (m + d)``, one unit moved up an order), then ``_quotient_rule``.
    A value whose coefficients are all rational numbers, with no ``densities``, keeps its field and
    gets the zero derivative, with no plan."""
    used = _used(a)
    if not used and not densities:
        return a.field, lambda c: a.field.zero
    jets = tuple(fields._jets_in(a.field, used))
    key = a.field, fields, jets, densities
    plan = _DX.get(key)
    if plan is None:
        raised = {s: fields.jet(i, o + 1) for s, i, o in jets}
        field = coeff_field([*a.field.symbols, *raised.values(), *(s for d in densities for s in d.symbols)])
        unit = {x: 1 << s for x, s in zip(field.symbols, field.shifts)}
        step = [(field.shifts[field.index[s]], unit[t] - unit[s]) for s, t in raised.items()]

        def chain(q):
            return field.checked(_collect((), ((m + d, c * e) for m, c in q.items() for i, d in step
                                               if (e := m >> i & _MAX))))

        plan = _DX[key] = field, lambda c: c._quotient_rule(chain(c.numer), chain(c.denom))
    return plan


def _inverse(rows: list[list[_Frac]], field: _Field) -> list[list[_Frac]] | None:
    """The inverse of a square matrix over ``field``, or None when it is singular: Gauss-Jordan
    elimination of ``[rows | 1]``, each column's first nonzero entry its pivot."""
    n, one, zero = len(rows), field.one, field.zero
    m = [[*row, *(one if j == i else zero for j in range(n))] for i, row in enumerate(rows)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        m[k] = [c / m[k][k] for c in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                m[i] = [a - m[i][k] * b for a, b in zip(m[i], m[k])]
    return [row[n:] for row in m]


def _two_point(field: _Field) -> tuple[_Field, tuple]:
    """The field over ``field``'s generators and a copy ``x(y)`` of each, and the copies."""
    ys = tuple(f"{x}(y)" for x in field.symbols)
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
def _by_name(field: _Field) -> tuple[list[tuple[int, str]], object]:
    """Generators as (position, name) in sympy's print order, by name, and a
    key reading a monomial's exponents in that order (terms print lex-descending)."""
    order = sorted(range(len(field.symbols)), key=field.symbols.__getitem__)
    key = itemgetter(*order) if order else tuple  # no generators: only the empty monomial
    return [(i, field.symbols[i]) for i in order], key


def _ordered(field: _Field, poly: dict, key, d: int = 1) -> list[tuple[tuple, int, int]]:
    """The terms of ``poly / d`` as (exponent tuple, p, q) in lowest terms, ordered as by
    ``as_ordered_terms``: a constant before a lone negative power (``3 - 2*u**3``)."""
    terms = sorted(field.unpacked(poly).items(), key=lambda t: key(t[0]), reverse=True)
    out = [(m, k // g, d // g) for m, k in terms for g in (gcd(k, d),)]
    if len(out) == 2 and out[0][1] < 0 < out[1][1] and not any(out[1][0]):
        if sum(1 for e in out[0][0] if e) == 1:
            out.reverse()
    return out


def _term_text(monom: tuple, p: int, q: int, names) -> str:
    """A term (p/q) * monomial as sympy prints it: ``-2*u**2*v/3``, ``-1/3``."""
    factors = [name if monom[i] == 1 else f"{name}**{monom[i]}" for i, name in names if monom[i]]
    text = "*".join([_int_text(abs(p))] * (abs(p) != 1 or not factors) + factors)
    return ("-" if p < 0 else "") + text + (f"/{_int_text(q)}" if q != 1 else "")


def _sum_text(terms, names) -> str:
    """A sum of ``_ordered`` terms joined with `` + `` and `` - ``."""
    texts = [_term_text(*t, names) for t in terms]
    return texts[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in texts[1:])


def _coeff_text(c: _Frac) -> str:
    """``str(c.as_expr())`` for a reduced ``c``, without building the expression.

    Over a polynomial denominator the quotient prints as sympy's ``Mul``, sums
    in parentheses, and a lone ``1/x**k`` as ``x**(-k)``.
    """
    names, key = _by_name(c.field)
    if c.denom.keys() == {0}:  # a ground denominator is distributed over the numerator: ``2*u/3 + 1/3``
        return _sum_text(_ordered(c.field, c.numer, key, c.denom[0]), names) if c else "0"
    num, den = _ordered(c.field, c.numer, key), _ordered(c.field, c.denom, key)
    top = _term_text(*num[0], names) if len(num) == 1 else f"({_sum_text(num, names)})"
    if len(den) > 1:
        return f"{top}/({_sum_text(den, names)})"
    (m, d, _), = den
    powers = [(name, m[i]) for i, name in names if m[i]]
    if top == "1" and d == 1 and len(powers) == 1 and powers[0][1] > 1:
        return "{}**(-{})".format(*powers[0])
    bottom = _term_text(m, d, 1, names)
    return f"{top}/({bottom})" if len(powers) + (d != 1) > 1 else f"{top}/{bottom}"


def _lead_ratio(c: _Frac) -> Fraction:
    """``lc(numer)/lc(denom)`` of a nonzero ``c`` in the field's lex order; ``q*c`` has ``q`` times it."""
    return Fraction(c.numer[max(c.numer)], c.denom[max(c.denom)])


def _exponents_below(c: _Frac, bits: int) -> bool:
    """Whether every exponent in ``c`` is below ``2**bits``: no field of the bitwise OR of its
    monomials has a higher bit."""
    used = reduce(or_, c.numer, 0) | reduce(or_, c.denom, 0)
    return not used & (c.field.guard >> _WIDTH - 1) * (_MAX >> bits << bits)


def _terms_bound(op: str, a: _Frac, b, limit: int) -> int:
    """A bound on the terms of the numerator and of the denominator of ``a op b``, for ``op`` one
    of ``+ - * /``, or ``^`` with an exponent ``b``, before it is computed: a product has at most
    the product of its operands' terms, a sum ``(a d + c b)/(b d)`` at most their sum, and a t-term
    polynomial to the k at most C(k+t-1, t-1), the count of its exponent vectors.  Past ``limit``,
    the lesser of that and C(e+v, v), the count of monomials of total degree at most e in the v
    generators that occur, e bounding the total degree of the result."""
    n, d = len(a.numer), len(a.denom)
    if op == "^":  # a denominator is never empty; a numerator is for zero
        k = abs(b)
        count = max(comb(k + n - 1, k) if n else 0, comb(k + d - 1, k))
    else:
        m, e = (len(b.denom), len(b.numer)) if op == "/" else (len(b.numer), len(b.denom))
        count = max(n * m, d * e) if op in "*/" else max(n * e + m * d, d * e)
    if count <= limit:
        return count
    polys = (a.numer, a.denom) if op == "^" else (a.numer, a.denom, b.numer, b.denom)
    unpack, size = a.field.layout.unpack, a.field.layout.size
    degrees = [max((sum(unpack(x.to_bytes(size, "big"))) for x in q), default=0) for q in polys]
    used = reduce(or_, (x for q in polys for x in q), 0)
    v = sum(1 for s in a.field.shifts if used >> s & _MAX)
    return min(count, comb((k * max(degrees) if op == "^" else sum(degrees)) + v, v))


def _jet_name(base: str, order: int) -> str:
    """``base``, ``base_x``, ``base_2x``, ... at derivative ``order``."""
    return base if order == 0 else f"{base}_x" if order == 1 else f"{base}_{order}x"


def _check_field_name(name: str) -> None:
    if not _IDENT_RE.match(name):
        raise ValueError(f"bad field name {name!r}: use letters/digits, no underscores")
    if _RESERVED_RE.fullmatch(name):
        raise ValueError(f"reports write {name} for a dual or nonlocal factor, so it cannot name a field")


@dataclass(frozen=True)
class Fields:
    """Declared dependent variables; owns the jet-symbol naming scheme.

    Order-0 symbols use the field name itself; derivatives append ``_x``,
    ``_2x``, ``_3x``, ...  Field names must be plain identifiers without
    underscores so the scheme stays unambiguous, and none of ``p``, ``p<k>``,
    ``r<k>``, ``y<k>``, which reports give the dual and nonlocal factors.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("at least one field is required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("field names must be unique")
        for name in self.names:
            _check_field_name(name)

    @property
    def n(self) -> int:
        return len(self.names)

    def jet(self, index: int, order: int = 0) -> Jet:
        """Jet variable of field ``index`` (1-based) at derivative ``order``."""
        if not 1 <= index <= self.n:
            raise ValueError(f"field index {index} out of range 1..{self.n}")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return _jet_name(self.names[index - 1], order)

    def classify(self, name: Jet) -> tuple[int, int] | None:
        """Map a jet name back to ``(field_index, order)``, or None."""
        m = _JET_RE.fullmatch(name)
        if m is None or m[1] not in self.names:
            return None
        return self.names.index(m[1]) + 1, 0 if m[2] is None else int(m[2] or 1)

    def jet_symbols(self, coeff: Coeff) -> list[tuple[Jet, int, int]]:
        """Jet variables occurring in a coefficient as (name, field, order)."""
        return self._jets_in(coeff.field, reduce(or_, coeff.numer, 0) | reduce(or_, coeff.denom, 0))

    def _jets_in(self, field: _Field, used: int) -> list[tuple[Jet, int, int]]:
        """``jet_symbols`` of the generators of ``field`` occurring in ``used``, an OR of monomials.
        Each is classified once per field, as (field index, order, position, name), a non-jet first."""
        classes = _JETS.get((self, field))
        if classes is None:
            classes = _JETS[self, field] = sorted(
                (*(self.classify(x) or (0, 0)), k, x) for k, x in enumerate(field.symbols))
        out = [(x, i, o) for i, o, k, x in classes if used >> field.shifts[k] & _MAX]
        if out and not out[0][1]:
            raise ValueError(f"symbol {out[0][0]} is not a jet variable of {self.names}")
        return out


def _packed_key(density: SuperPoly) -> tuple:
    """A density's words and packed coefficients, moved into the field of the generators that
    occur: reduced coefficients with the canonical sign are unique, one field instance holds each
    generator set and the generator order is global, so equal densities of any fields share it."""
    src, used = density.field, _used(density)
    field = coeff_field(x for x, s in zip(src.symbols, src.shifts) if used >> s & _MAX)
    move = _mover(src, field)
    moved = ((w, *(frozenset((move(m), k) for m, k in q.items()) for q in (c.numer, c.denom)))
             for w, c in density.terms.items())
    return field, frozenset(moved)


def _top_order_linear(Y: SuperPoly, fields: Fields) -> bool:
    """``integrate_density``'s linear-time test of a nonzero local Y: false where its top order K
    is 0, or a term is not affine in the order-K jets and dual factors or has an order-K jet in its
    denominator; a constant passes, for the variational derivatives to judge."""
    jets = fields._jets_in(Y.field, _used(Y))
    K = max([o for _, _, o in jets] + [f.order for w in Y.terms for f in w], default=None)
    if not K:
        return K is None
    units = {1 << Y.field.shifts[Y.field.index[x]] for x, _, o in jets if o == K}
    mask = sum(units) * _MAX
    for word, c in Y.terms.items():
        duals = sum(1 for f in word if f.order == K)
        allowed = {0} if duals else units | {0}
        if duals > 1 or any(m & mask for m in c.denom) or any(m & mask not in allowed for m in c.numer):
            return False
    return True


class OddFactor(namedtuple("_Factor", "rank index order kind parity")):
    """One anticommuting (or even nonlocal) factor of a word.

    kind ``"p"``: dual jet factor of field ``index`` at derivative ``order``.
    kind ``"nl"``: nonlocal variable with registration id ``index``; its
    parity equals the parity of its defining density.  A tuple in the global
    order (``rank`` 0 for a jet, 1 for an odd and 2 for an even nonlocal
    factor; then index and order), so words hash, compare and sort in C.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int, order: int = 0, parity: int = 1):
        if kind not in ("p", "nl"):
            raise ValueError(f"unknown factor kind {kind!r}")
        if kind == "p" and parity != 1:
            raise ValueError("jet factors are always odd")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        rank = 0 if kind == "p" else 1 if parity else 2
        return tuple.__new__(cls, (rank, index, order, kind, parity))


def p(index: int, order: int = 0) -> OddFactor:
    """Odd dual factor of field ``index`` at derivative ``order``."""
    return OddFactor("p", index, order)


def nl(ident: int, parity: int = 1) -> OddFactor:
    """Nonlocal factor with registry id ``ident``."""
    return OddFactor("nl", ident, 0, parity)


Word = tuple[OddFactor, ...]


def _word_key(word: Word) -> tuple:
    """The report order of words: by length, then factor by factor."""
    return len(word), word


def normalize_word(factors: Sequence[OddFactor]) -> tuple[int, Word | None]:
    """Sort a factor sequence into the global order with its Koszul sign.

    Returns ``(sign, word)``; a repeated odd factor makes the word vanish,
    signalled by ``(0, None)``.  Even factors commute freely, sort last and
    are kept with multiplicity.  The sign is the parity of the number of
    out-of-order pairs of odd factors.
    """
    odds = [f for f in factors if f.parity]
    if len(set(odds)) < len(odds):
        return 0, None
    return -1 if sum(starmap(gt, combinations(odds, 2))) & 1 else 1, tuple(sorted(factors))


class SuperPoly:
    """Sparse graded polynomial: word of factors -> coefficient in ``field``."""

    __slots__ = ("terms", "field", "_texts")

    def __init__(self, terms: Mapping[Word, _Frac], field: _Field):
        """Coefficients in ``field`` (``_into`` brings other kinds there); zeros are dropped."""
        self.field = field
        self.terms: dict[Word, _Frac] = {w: c for w, c in terms.items() if c}
        self._texts: list[tuple[Word, str]] | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SuperPoly":
        return SuperPoly({}, coeff_field(()))

    @staticmethod
    def factor(f: OddFactor) -> "SuperPoly":
        K = coeff_field(())
        return SuperPoly({(f,): K.one}, K)

    @staticmethod
    def from_terms(raw: Iterable[tuple[object, Iterable[OddFactor]]]) -> "SuperPoly":
        """Normalize a raw term list: sort each word with its sign, drop
        words with repeated odd factors, merge coefficients, drop zeros."""
        raw = list(raw)
        field, coeffs = _into(None, (c for c, _ in raw))
        signed = ((word, c if sign > 0 else -c) for (_, f), c in zip(raw, coeffs)
                  for sign, word in (normalize_word(tuple(f)),) if word is not None)
        return SuperPoly(_merge({}, signed), field)

    def set_field(self, field: _Field) -> "SuperPoly":
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
        return SuperPoly(_merge(dict(a.terms), b.terms.items()), a.field)

    def __neg__(self) -> "SuperPoly":
        return SuperPoly({w: -c for w, c in self.terms.items()}, self.field)

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SuperPoly):
            return _product_sum([(self, other)])
        return self.scale(other)

    def scale(self, value) -> "SuperPoly":
        """``value`` times this, for an exact scalar or coefficient; by a rational 1, this itself."""
        if value.__class__ in (int, Fraction):
            if value == 1:
                return self
            field, c = self.field, _rational(self.field, value)
        else:
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

    # -- derivatives ----------------------------------------------------

    def partial_even(self, sym: Jet) -> "SuperPoly":
        if sym.__class__ is not str:
            raise TypeError(f"a jet variable is named by a str, not {sym!r}")
        if sym not in self.field.index:
            return SuperPoly.zero()
        return SuperPoly({w: c.diff(sym) for w, c in self.terms.items()}, self.field)

    def partial_odd(self, f: OddFactor) -> "SuperPoly":
        """Left graded derivative: strike the factor, sign from its position."""
        if f.kind != "p":
            raise ValueError("use nonlocal EL rules")
        struck = ((word[:pos] + word[pos + 1 :], -c if sum(1 for g in word[:pos] if g.parity) % 2 else c)
                  for word, c in self.terms.items() if f in word for pos in (word.index(f),))
        return SuperPoly(_merge({}, struck), self.field)

    # -- inspection -------------------------------------------------------

    def sorted_texts(self) -> list[tuple[Word, str]]:
        """Terms in word order, coefficients as ``str(c.as_expr())``; a value prints once."""
        if self._texts is None:
            words = sorted(self.terms, key=_word_key)
            self._texts = [(w, _coeff_text(self.terms[w])) for w in words]
        return self._texts


def _product_sum(pairs: Iterable[tuple[SuperPoly, SuperPoly]], weight: int = 1) -> SuperPoly:
    """``weight * sum(A * B for A, B in pairs)`` in one pass over the word pairs: each word is a
    running sum of ``_add_into``, reduced once.  ``A * B`` is this sum of one pair.  For B one word
    with a rational coefficient r, over generators that A's field holds, the product appends that
    word to each of A's, with its Koszul sign, and scales each coefficient by r in A's field, which
    is then the union field: distinct words of A stay distinct."""
    pairs = [(A, B) for A, B in pairs if A.terms and B.terms]
    if len(pairs) == 1 and len(pairs[0][1].terms) == 1:
        (A, B), = pairs
        (w2, c), = B.terms.items()
        if c.numer.keys() == c.denom.keys() == {0} and B.field.index.keys() <= A.field.index.keys():
            shifted = ((normalize_word(w1 + w2), c1) for w1, c1 in A.terms.items())
            terms = {w: c1 if s > 0 else -c1 for (s, w), c1 in shifted if s}
            return SuperPoly(terms, A.field).scale(Fraction(c.numer[0] * weight, c.denom[0]))
    field = coeff_field({s for A, B in pairs for s in A.field.symbols + B.field.symbols})
    acc: dict[Word, list] = {}  # word -> its running sum [numerator, denominator]
    for A, B in pairs:
        A, B = A.set_field(field), B.set_field(field)
        for w1, c1 in A.terms.items():
            for w2, c2 in B.terms.items():
                sign, word = normalize_word(w1 + w2)
                if word is not None:
                    d = _mul(field, c1.denom, c2.denom)
                    _add_into(field, acc.setdefault(word, [{}, _ONE]), sign * weight, c1.numer, c2.numer, d)
    return SuperPoly({word: _reduced(field, entry) for word, entry in acc.items()}, field)  # zeros dropped


def render_factor(f: OddFactor, fields: Fields, names: Mapping[int, str] | None = None) -> str:
    """Human-readable factor name: p, p_x, p2_3x, r1, y2, ..."""
    if f.kind == "nl":
        if names and f.index in names:
            return names[f.index]
        return f"r{f.index}"
    return _jet_name("p" if fields.n == 1 else f"p{f.index}", f.order)


def render_superpoly(a: SuperPoly, fields: Fields, names: Mapping[int, str] | None = None) -> str:
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
