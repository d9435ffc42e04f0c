"""Shared fixtures and random-input builders for the test suite."""

from __future__ import annotations

import random

import pytest
import sympy as sp
from sympy import ZZ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyElement

from wno.algebra import Fields, SuperPoly, _Frac, _into, p


@pytest.fixture(scope="session")
def F1() -> Fields:
    return Fields(("u",))


@pytest.fixture(scope="session")
def F2() -> Fields:
    return Fields(("u1", "u2"))


def scalar(value) -> SuperPoly:
    """The empty word with the coefficient ``value``, of any exact kind ``_into`` takes."""
    field, (c,) = _into(None, [value])
    return SuperPoly({(): c}, field)


def monomial(coeff, factors) -> SuperPoly:
    """One term, ``coeff`` times the word of ``factors``, normalized."""
    return SuperPoly.from_terms([(coeff, factors)])


def jet_expr(fields: Fields, index: int, order: int = 0) -> sp.Symbol:
    """The jet variable ``fields.jet(index, order)`` as a sympy symbol, to write
    test coefficients as sympy expressions."""
    return sp.Symbol(fields.jet(index, order))


class Twin:
    """Sympy's ``FracField`` over the generators of a coefficient field ``K``, in
    the same order, and its ``PolyRing``: the oracle for the owned arithmetic."""

    def __init__(self, K):
        self.K = K
        self.field = FracField([sp.Symbol(s) for s in K.symbols], ZZ, lex)
        self.ring = self.field.ring

    def theirs(self, x):
        """An owned polynomial or field element of ``K`` as sympy's."""
        if isinstance(x, dict):
            return self.ring(self.terms(x))
        return self.field.raw_new(self.theirs(x.numer), self.theirs(x.denom))

    def ours(self, x):
        """A sympy polynomial or reduced fraction over ``K``'s generators, in ``K``."""
        if isinstance(x, PolyElement):
            return self.K.packed(x)
        return _Frac(self.K, self.ours(x.numer), self.ours(x.denom))

    def terms(self, x) -> dict:
        """The terms of an owned polynomial of ``K`` with exponent tuples for its packed
        monomials, as sympy's ``dict(x)`` has them."""
        return self.K.unpacked(x)


def as_expr(c) -> sp.Expr:
    """A coefficient as a sympy expression."""
    return Twin(c.field).theirs(c).as_expr()


def random_rational(rng: random.Random) -> sp.Rational:
    num = rng.randint(-4, 4)
    if num == 0:
        num = 1
    return sp.Rational(num, rng.randint(1, 3))


def random_coeff(rng: random.Random, fields: Fields, max_order: int = 2) -> sp.Expr:
    expr = random_rational(rng)
    for _ in range(rng.randint(0, 2)):
        expr = expr * jet_expr(fields, rng.randint(1, fields.n), rng.randint(0, max_order))
    return expr


def random_local(
    rng: random.Random,
    fields: Fields,
    degree: int,
    max_order: int = 3,
    terms: int = 2,
) -> SuperPoly:
    """Random local value of the given odd degree (may normalize to zero)."""
    raw = []
    for _ in range(terms):
        factors = [
            p(rng.randint(1, fields.n), rng.randint(0, max_order))
            for _ in range(degree)
        ]
        raw.append((random_coeff(rng, fields, max_order), factors))
    return SuperPoly.from_terms(raw)


def random_local_mixed(
    rng: random.Random, fields: Fields, max_degree: int = 3, max_order: int = 4
) -> SuperPoly:
    out = SuperPoly.zero()
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(0, max_degree)
        out = out + random_local(rng, fields, degree, max_order, terms=1)
    return out
