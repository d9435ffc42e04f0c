"""Graded differential polynomials with exact rational-function coefficients.

A value is a sparse map from a *word* of anticommuting factors to a sympy
expression in the even jet variables.  Words are kept in a fixed global
order (jet factors sorted by field and derivative order, then nonlocal
factors sorted by registration id), so that two values are equal exactly
when their term maps agree coefficient-wise.  All arithmetic is exact:
coefficients live in the field of rational functions over the rationals,
and the zero test reduces to polynomial normalization of numerators.

Coefficients stay sympy expressions between steps; the normal form of a
coefficient is its reduced fraction numerator/denominator.  ``normal_forms``
computes it for a whole batch at once: one sparse rational-function field
(``sympy.polys.fields.sfield``) is built over the batch's generators, each
expression becomes a reduced field element, and ``as_expr`` turns it back
into the expression ``sympy.cancel`` would return.

Nonlocal factors may carry even parity (antiderivatives of densities with
an even number of odd factors).  Even factors commute with everything and
may repeat inside a word; odd factors anticommute and square to zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import sympy as sp
from sympy.polys.fields import sfield

Expr = sp.Expr

_IDENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_SUFFIX_RE = re.compile(r"^(\d*)x$")


def as_coeff(value) -> Expr:
    """Coerce a coefficient to an exact sympy expression.

    Floats are rejected: every verdict downstream is an algebraic identity
    and must not depend on rounding.
    """
    if isinstance(value, sp.Expr):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"inexact coefficient {value!r}; use integers or rationals")
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, int):
        return sp.Integer(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def coeff_is_zero(c: Expr) -> bool:
    """Exact zero test for a rational-function coefficient.

    Brings the expression over a common denominator and expands the
    numerator; no gcd computation is needed to decide zero.
    """
    if c == 0:
        return True
    numer, _ = sp.fraction(sp.together(c))
    return sp.expand(numer) == 0


def normal_forms(exprs: Iterable[Expr]) -> list[Expr]:
    """Reduced-fraction normal forms of a batch of rational functions.

    One field over all generators of the batch serves every entry; the
    result of each entry equals ``sympy.cancel`` of it.
    """
    exprs = list(exprs)
    if not exprs:
        return []
    _, elements = sfield(exprs)
    return [e.as_expr() for e in elements]


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
        base = self.names[index - 1]
        if order == 0:
            return sp.Symbol(base)
        if order == 1:
            return sp.Symbol(f"{base}_x")
        return sp.Symbol(f"{base}_{order}x")

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

    def jet_symbols(self, expr: Expr) -> list[tuple[sp.Symbol, int, int]]:
        """All jet symbols occurring in ``expr`` as (symbol, field, order)."""
        out = []
        for sym in expr.free_symbols:
            hit = self.classify(sym)
            if hit is None:
                raise ValueError(f"symbol {sym} is not a jet variable of {self.names}")
            out.append((sym, hit[0], hit[1]))
        out.sort(key=lambda t: (t[1], t[2]))
        return out

    def max_order(self, expr: Expr) -> int:
        orders = [o for _, _, o in self.jet_symbols(expr)]
        return max(orders, default=0)


@dataclass(frozen=True, order=False)
class OddFactor:
    """One anticommuting (or even nonlocal) factor of a word.

    kind ``"p"``: dual jet factor of field ``index`` at derivative ``order``.
    kind ``"nl"``: nonlocal variable with registration id ``index``; its
    parity equals the parity of its defining density.
    """

    kind: str
    index: int
    order: int = 0
    parity: int = 1

    def __post_init__(self):
        if self.kind not in ("p", "nl"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "p" and self.parity != 1:
            raise ValueError("jet factors are always odd")
        if self.order < 0:
            raise ValueError("derivative order must be nonnegative")

    def sort_key(self) -> tuple[int, int, int]:
        if self.kind == "p":
            return (0, self.index, self.order)
        return (1 if self.parity else 2, self.index, 0)

    def __lt__(self, other: "OddFactor") -> bool:
        return self.sort_key() < other.sort_key()


def p(index: int, order: int = 0) -> OddFactor:
    """Odd dual factor of field ``index`` at derivative ``order``."""
    return OddFactor("p", index, order)


def nl(ident: int, parity: int = 1) -> OddFactor:
    """Nonlocal factor with registry id ``ident``."""
    return OddFactor("nl", ident, 0, parity)


Word = tuple[OddFactor, ...]


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
    """Sparse graded polynomial: word of factors -> rational-function coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Expr] | None = None):
        data: dict[Word, Expr] = {}
        if terms:
            for word, coeff in terms.items():
                if coeff == 0:
                    continue
                data[word] = coeff
        self.terms = data

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SuperPoly":
        return SuperPoly()

    @staticmethod
    def scalar(value) -> "SuperPoly":
        return SuperPoly({(): as_coeff(value)})

    @staticmethod
    def one() -> "SuperPoly":
        return SuperPoly.scalar(1)

    @staticmethod
    def factor(f: OddFactor) -> "SuperPoly":
        return SuperPoly({(f,): sp.Integer(1)})

    @staticmethod
    def monomial(coeff, factors: Iterable[OddFactor]) -> "SuperPoly":
        return SuperPoly.from_terms([(coeff, factors)])

    @staticmethod
    def from_terms(raw: Iterable[tuple[object, Iterable[OddFactor]]]) -> "SuperPoly":
        """Normalize a raw term list: sort each word with its sign, drop
        words with repeated odd factors, merge coefficients, drop zeros."""
        acc: dict[Word, Expr] = {}
        for coeff, factors in raw:
            c = as_coeff(coeff)
            if c == 0:
                continue
            sign, word = normalize_word(tuple(factors))
            if word is None:
                continue
            c = sign * c
            if word in acc:
                acc[word] = acc[word] + c
            else:
                acc[word] = c
        return SuperPoly(acc)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        if not isinstance(other, SuperPoly):
            return NotImplemented
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            if word in out:
                out[word] = out[word] + coeff
            else:
                out[word] = coeff
        return SuperPoly(out)

    def __neg__(self) -> "SuperPoly":
        return SuperPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SuperPoly):
            acc: dict[Word, Expr] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    sign, word = normalize_word(w1 + w2)
                    if word is None:
                        continue
                    c = sign * c1 * c2
                    if word in acc:
                        acc[word] = acc[word] + c
                    else:
                        acc[word] = c
            return SuperPoly(acc)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything, so left/right scaling agree
        return self.scale(other)

    def scale(self, value) -> "SuperPoly":
        c = as_coeff(value)
        if c == 0:
            return SuperPoly.zero()
        return SuperPoly({w: c * k for w, k in self.terms.items()})

    # -- structure ------------------------------------------------------

    def is_structurally_zero(self) -> bool:
        return not self.terms

    def is_zero(self) -> bool:
        return all(coeff_is_zero(c) for c in self.terms.values())

    def equals(self, other: "SuperPoly") -> bool:
        return (self - other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.equals(other)

    __hash__ = None  # semantic equality is not hash-compatible

    def canonical(self) -> "SuperPoly":
        """Bring every coefficient to numerator/denominator normal form."""
        return SuperPoly(dict(zip(self.terms, normal_forms(self.terms.values()))))

    def odd_degrees(self) -> set[int]:
        return {sum(1 for f in w if f.parity) for w in self.terms}

    def parity_part(self, parity: int) -> "SuperPoly":
        return SuperPoly(
            {
                w: c
                for w, c in self.terms.items()
                if sum(1 for f in w if f.parity) % 2 == parity
            }
        )

    def degree_part(self, degree: int) -> "SuperPoly":
        return SuperPoly(
            {
                w: c
                for w, c in self.terms.items()
                if sum(1 for f in w if f.parity) == degree
            }
        )

    def is_local(self) -> bool:
        return all(f.kind == "p" for w in self.terms for f in w)

    def nonlocal_ids(self) -> set[int]:
        return {f.index for w in self.terms for f in w if f.kind == "nl"}

    def jet_factors(self) -> set[OddFactor]:
        return {f for w in self.terms for f in w if f.kind == "p"}

    # -- derivatives ----------------------------------------------------

    def partial_even(self, sym: sp.Symbol) -> "SuperPoly":
        out = {}
        for word, coeff in self.terms.items():
            d = sp.diff(coeff, sym)
            if d != 0:
                out[word] = d
        return SuperPoly(out)

    def partial_odd(self, f: OddFactor) -> "SuperPoly":
        """Left graded derivative: strike the factor, sign from its position."""
        if f.kind != "p":
            raise ValueError("use nonlocal EL rules")
        out: dict[Word, Expr] = {}
        for word, coeff in self.terms.items():
            if f not in word:
                continue
            pos = word.index(f)
            sign = -1 if sum(1 for g in word[:pos] if g.parity) % 2 else 1
            rest = word[:pos] + word[pos + 1 :]
            c = sign * coeff
            if rest in out:
                out[rest] = out[rest] + c
            else:
                out[rest] = c
        return SuperPoly(out)

    # -- inspection -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Word, Expr]]:
        return sorted(
            self.terms.items(), key=lambda kv: (len(kv[0]), [f.sort_key() for f in kv[0]])
        )

    def __repr__(self):
        if not self.terms:
            return "SuperPoly(0)"
        bits = []
        for word, coeff in self.sorted_terms():
            fs = "*".join(
                f"{f.kind}{f.index}" + (f"[{f.order}]" if f.order else "") for f in word
            )
            bits.append(f"({coeff})*{fs}" if fs else f"({coeff})")
        return "SuperPoly(" + " + ".join(bits) + ")"


def partial(a: SuperPoly, v) -> SuperPoly:
    """Graded partial derivative: even for a jet symbol, left-odd for a factor."""
    if isinstance(v, OddFactor):
        return a.partial_odd(v)
    if isinstance(v, sp.Symbol):
        return a.partial_even(v)
    raise TypeError(f"cannot differentiate with respect to {v!r}")


def render_factor(f: OddFactor, fields: Fields, names: Mapping[int, str] | None = None) -> str:
    """Human-readable factor name: p, p_x, p2_3x, r1, y2, ..."""
    if f.kind == "nl":
        if names and f.index in names:
            return names[f.index]
        return f"r{f.index}"
    base = "p" if fields.n == 1 else f"p{f.index}"
    if f.order == 0:
        return base
    if f.order == 1:
        return base + "_x"
    return f"{base}_{f.order}x"


def render_superpoly(
    a: SuperPoly,
    fields: Fields,
    names: Mapping[int, str] | None = None,
) -> str:
    """Deterministic text form with canceled coefficients."""
    canon = a.canonical()
    if not canon.terms:
        return "0"
    parts = []
    for word, coeff in canon.sorted_terms():
        factors = "*".join(render_factor(f, fields, names) for f in word)
        cstr = str(coeff)
        if ("+" in cstr[1:]) or ("-" in cstr[1:]) or cstr.startswith("-("):
            cstr = f"({cstr})"
        parts.append(f"{cstr}*{factors}" if factors else cstr)
    return " + ".join(parts)
