"""Graded-algebra kernel: normalization, products, partials, invariants."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wno.algebra import (
    Fields,
    SuperPoly,
    coeff_is_zero,
    nl,
    normal_forms,
    normalize_word,
    p,
)
from wno.jetcalc import total_x

from conftest import random_local, random_local_mixed

F = Fields(("u",))
u = F.jet(1, 0)
u_x = F.jet(1, 1)


class TestNormalize:
    def test_repeated_odd_factor_vanishes(self):
        assert SuperPoly.from_terms([(1, [p(1), p(1)])]).is_zero()

    def test_single_transposition_sign(self):
        a = SuperPoly.from_terms([(1, [p(1, 1), p(1, 0)])])
        b = SuperPoly.from_terms([(-1, [p(1, 0), p(1, 1)])])
        assert a == b

    def test_nonlocal_square_vanishes(self):
        # -8 u_x (p_x r r) has a repeated nonlocal factor
        a = SuperPoly.from_terms([(-8 * u_x, [p(1, 1), nl(1), nl(1)])])
        assert a.is_zero()

    def test_merge_and_zero_removal(self):
        a = SuperPoly.from_terms(
            [(sp.Rational(16, 9) * u * u_x, [p(1, 1), p(1, 0), nl(1)]),
             (sp.Rational(16, 9) * u * u_x, [p(1, 1), nl(1), p(1, 0)])]
        )
        assert a.is_zero()

    def test_even_nonlocal_factor_commutes_and_repeats(self):
        y = nl(7, parity=0)
        a = SuperPoly.from_terms([(1, [y, p(1)])])
        b = SuperPoly.from_terms([(1, [p(1), y])])
        assert a == b
        assert not SuperPoly.from_terms([(1, [y, y])]).is_zero()

    def test_normalize_word_sign(self):
        sign, word = normalize_word((p(1, 1), nl(1), p(1, 3)))
        assert sign == -1
        assert word == (p(1, 1), p(1, 3), nl(1))


class TestArithmetic:
    def test_nilpotency_simple(self):
        a = SuperPoly.monomial(u_x, [p(1)])
        assert (a * a).is_zero()

    def test_anticommutation(self):
        a = SuperPoly.factor(p(1, 0))
        b = SuperPoly.factor(p(1, 1))
        assert (a * b) == -(b * a)

    def test_product_with_reordering(self):
        lhs = SuperPoly.monomial(sp.Rational(-4, 3), [p(1, 1), nl(1)]) * SuperPoly.monomial(
            -2, [p(1, 3)]
        )
        rhs = SuperPoly.monomial(sp.Rational(-8, 3), [p(1, 1), p(1, 3), nl(1)])
        assert lhs == rhs

    def test_additive_inverse(self):
        rng = random.Random(7)
        a = random_local_mixed(rng, F)
        assert (a + (-a)).is_zero()

    def test_rational_function_zero_test(self):
        assert coeff_is_zero(u / u - 1)
        assert coeff_is_zero(u / (1 + u) + 1 / (1 + u) - 1)
        assert not coeff_is_zero(u / (1 + u))

    def test_scalar_floats_rejected(self):
        with pytest.raises(TypeError):
            SuperPoly.scalar(0.5)


class TestPartials:
    def test_even_partial(self):
        a = SuperPoly.monomial(u**2, [p(1, 1), p(1, 0)])
        expected = SuperPoly.monomial(2 * u, [p(1, 1), p(1, 0)])
        assert a.partial_even(u) == expected

    def test_left_odd_partial_signs(self):
        a = SuperPoly.from_terms([(1, [p(1, 0), p(1, 1)])])  # p p_x
        assert a.partial_odd(p(1, 1)) == SuperPoly.monomial(-1, [p(1, 0)])
        assert a.partial_odd(p(1, 0)) == SuperPoly.factor(p(1, 1))

    def test_nonlocal_partial_rejected(self):
        a = SuperPoly.monomial(1, [p(1), nl(1)])
        with pytest.raises(ValueError, match="nonlocal EL rules"):
            a.partial_odd(nl(1))

    def test_partial_dispatcher(self):
        from wno.algebra import partial

        a = SuperPoly.monomial(u**2, [p(1, 0), p(1, 1)])
        assert partial(a, u) == SuperPoly.monomial(2 * u, [p(1, 0), p(1, 1)])
        assert partial(a, p(1, 1)) == SuperPoly.monomial(-(u**2), [p(1, 0)])
        with pytest.raises(TypeError):
            partial(a, 3)


# -- property suites ------------------------------------------------------

coeff_strategy = st.builds(
    lambda num, den, pow_u, pow_ux: sp.Rational(num if num else 1, den)
    * u**pow_u
    * u_x**pow_ux,
    st.integers(-4, 4),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 1),
)

factor_strategy = st.builds(p, st.just(1), st.integers(0, 3))

term_strategy = st.tuples(coeff_strategy, st.lists(factor_strategy, min_size=0, max_size=3))

superpoly_strategy = st.builds(
    SuperPoly.from_terms, st.lists(term_strategy, min_size=1, max_size=3)
)


@settings(max_examples=60, deadline=None)
@given(superpoly_strategy, superpoly_strategy)
def test_graded_commutativity(a, b):
    for da in sorted(a.odd_degrees() or {0}):
        for db in sorted(b.odd_degrees() or {0}):
            ah, bh = a.degree_part(da), b.degree_part(db)
            sign = -1 if (da * db) % 2 else 1
            assert (ah * bh - (bh * ah).scale(sign)).is_zero()


@settings(max_examples=40, deadline=None)
@given(superpoly_strategy, superpoly_strategy, superpoly_strategy)
def test_associativity_and_distributivity(a, b, c):
    assert ((a * b) * c - a * (b * c)).is_zero()
    assert (a * (b + c) - (a * b + a * c)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coeff_strategy, st.just(1), st.integers(0, 3)), min_size=1, max_size=3))
def test_degree_one_nilpotency(spec):
    w = SuperPoly.from_terms([(c, [p(i, o)]) for c, i, o in spec])
    assert (w * w).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(term_strategy, min_size=1, max_size=4))
def test_normalize_idempotence(raw):
    once = SuperPoly.from_terms(raw)
    twice = SuperPoly.from_terms(
        [(c, list(w)) for w, c in once.terms.items()]
    )
    assert once.terms == twice.terms


@settings(max_examples=60, deadline=None)
@given(superpoly_strategy)
def test_zero_test_soundness(a):
    assert (a - a).is_zero()


# Rational functions over jet symbols of two fields, built unexpanded so that
# the normal form has to expand, cancel and fix the sign of the denominator.
_SYMBOLS = [Fields(("u", "v")).jet(i, k) for i in (1, 2) for k in (0, 1, 2)]
_rationals = st.builds(sp.Rational, st.integers(-5, 5), st.integers(1, 4))
_monomials = st.builds(
    lambda c, syms: c * sp.Mul(*syms), _rationals, st.lists(st.sampled_from(_SYMBOLS), max_size=3)
)
_polys = st.builds(lambda ms: sp.Add(*ms), st.lists(_monomials, max_size=3))
_denominators = _polys.filter(lambda d: not coeff_is_zero(d))
_ratfuncs = st.one_of(
    st.just(sp.Integer(0)),
    _rationals,
    _polys,
    st.builds(lambda a, b: a / b, _polys, _denominators),
    st.builds(lambda a, b, c, d: a / b - c / d, _polys, _denominators, _polys, _denominators),
    st.builds(lambda a, b, c: (a * b) / (c * b), _polys, _denominators, _denominators),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ratfuncs, max_size=5))
def test_normal_forms_match_cancel(batch):
    assert [str(e) for e in normal_forms(batch)] == [str(sp.cancel(e)) for e in batch]


def test_normal_forms_constants_and_signs():
    batch = [sp.Integer(0), sp.Rational(-2, 3), -(u + 1) / (2 * u_x), (u + 1) / (1 - 3 * u_x)]
    assert [str(e) for e in normal_forms(batch)] == [
        "0", "-2/3", "(-u - 1)/(2*u_x)", "(-u - 1)/(3*u_x - 1)"
    ]


# Coefficients of values whose fields hold different generator sets: the
# sums, products and x-derivatives below lift them into joined fields, and
# each rendered coefficient must read exactly as sympy.cancel of the same
# computation done on expressions.  Single fractions keep that reference
# fast: sympy.cancel of products of the sums of fractions above can take
# minutes.
_F2 = Fields(("u", "v"))
_fractions = st.one_of(
    st.just(sp.Integer(0)), _rationals, _polys, st.builds(lambda a, b: a / b, _polys, _denominators)
)


def _dx(e):
    return sum(
        (sp.diff(e, s) * _F2.jet(i, k + 1) for s in e.free_symbols for i, k in [_F2.classify(s)]),
        sp.Integer(0),
    )


@settings(max_examples=60, deadline=None)
@given(_fractions, _fractions, _fractions)
def test_mixed_fields_render_like_cancel(e1, e2, e3):
    a, b, c = (SuperPoly.scalar(e) for e in (e1, e2, e3))
    cases = [
        (a + b, e1 + e2),
        (a * b - c, e1 * e2 - e3),
        (a.scale(e2) + c, e1 * e2 + e3),
        (total_x(a, _F2) * c, _dx(e1) * e3),
        (total_x(a + b, _F2), _dx(sp.cancel(e1 + e2))),
    ]
    for value, expr in cases:
        expected = sp.cancel(expr)
        rendered = [(w, str(k)) for w, k in value.sorted_terms()]
        assert rendered == ([((), str(expected))] if expected != 0 else [])
