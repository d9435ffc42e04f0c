"""Graded-algebra kernel: normalization, products, partials, invariants."""

import ast
import contextlib
import io
import math
import operator
import random
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest.mock import patch

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sympy import ZZ, lex
from sympy.polys.fields import FracElement, FracField
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement, PolyRing

import wno
from wno.algebra import (
    ExponentOverflowError,
    Fields,
    OddFactor,
    SuperPoly,
    _GCDS,
    _ONE,
    _cofactors,
    _coeff_text,
    _collect,
    _diff,
    _exquo,
    _Frac,
    _fsum,
    _heu,
    _lift,
    _int_text,
    _int_value,
    _mul,
    _neg,
    _product_sum,
    coeff_field,
    nl,
    normalize_word,
    p,
)
from wno.cli import main
from wno.jetcalc import total_x
from wno.nonlocal_vars import scalar_content
from wno.schouten import Tail, WNOperator

from conftest import Twin, as_expr, jet_expr, monomial, random_local, random_local_mixed, scalar

F = Fields(("u",))
u = jet_expr(F, 1, 0)
u_x = jet_expr(F, 1, 1)


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

    @pytest.mark.parametrize(
        "args, message",
        [
            (("q", 1), "unknown factor kind 'q'"),
            (("p", 1, 0, 0), "jet factors are always odd"),
            (("p", 1, -1), "derivative order must be nonnegative"),
            (("nl", 1, -1, 0), "derivative order must be nonnegative"),
        ],
    )
    def test_factor_validation(self, args, message):
        with pytest.raises(ValueError, match=message):
            OddFactor(*args)
        assert OddFactor("nl", 3, 0, 0) == nl(3, 0) and hash(p(2, 1)) == hash(OddFactor("p", 2, 1))

    def test_normalize_word_sign(self):
        sign, word = normalize_word((p(1, 1), nl(1), p(1, 3)))
        assert sign == -1
        assert word == (p(1, 1), p(1, 3), nl(1))


_FACTORS = st.one_of(
    st.builds(p, st.integers(1, 2), st.integers(0, 3)),
    st.builds(nl, st.integers(1, 3)),
    st.builds(nl, st.integers(1, 2), st.just(0)),
)


def _documented_key(f):
    """The global order as documented: jet factors by field, then by order; then odd
    nonlocal factors by id; then even ones by id."""
    return (0, f.index, f.order) if f.kind == "p" else (1 if f.parity else 2, f.index)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FACTORS, max_size=7))
def test_normalize_word_matches_a_permutation_oracle(factors):
    odds = [f for f in factors if f.parity]
    sign, word = normalize_word(tuple(factors))
    if any(odds.count(f) > 1 for f in odds):
        assert (sign, word) == (0, None)
        return
    target = sorted(range(len(odds)), key=lambda i: _documented_key(odds[i]))
    cycles, seen = 0, set()
    for start in range(len(target)):
        cycles += start not in seen
        while start not in seen:
            seen.add(start)
            start = target[start]
    evens = sorted((f for f in factors if not f.parity), key=_documented_key)
    assert sign == (-1) ** (len(target) - cycles)
    assert word == tuple(odds[i] for i in target) + tuple(evens)


class TestArithmetic:
    def test_nilpotency_simple(self):
        a = monomial(u_x, [p(1)])
        assert (a * a).is_zero()

    def test_anticommutation(self):
        a = SuperPoly.factor(p(1, 0))
        b = SuperPoly.factor(p(1, 1))
        assert (a * b) == -(b * a)

    def test_product_with_reordering(self):
        lhs = monomial(sp.Rational(-4, 3), [p(1, 1), nl(1)]) * monomial(
            -2, [p(1, 3)]
        )
        rhs = monomial(sp.Rational(-8, 3), [p(1, 1), p(1, 3), nl(1)])
        assert lhs == rhs

    def test_additive_inverse(self):
        rng = random.Random(7)
        a = random_local_mixed(rng, F)
        assert (a + (-a)).is_zero()

    def test_scalar_floats_rejected(self):
        """Exact scalars of one value give one element, as a factor and as a
        tail constant; inexact or foreign ones are refused."""
        for kinds in ((-3, Fraction(-3), sp.Integer(-3), sp.Rational(-3)),
                      (Fraction(2, 3), sp.Rational(2, 3))):
            scaled = [SuperPoly.factor(p(1, 1)).scale(k) for k in kinds]
            tails = [WNOperator(F, [[[]]], [Tail(k, (u,), (u_x,))]).tails[0].constant for k in kinds]
            for got in (scaled, tails):
                assert all(type(x) is type(got[0]) and x == got[0] for x in got)
            assert scaled[0].sorted_texts() == [((p(1, 1),), str(sp.Rational(kinds[0])))]
        for bad in (0.5, 2.0, True, Decimal("0.5"), "1/2"):
            with pytest.raises(TypeError):
                scalar(bad)
            with pytest.raises(TypeError):
                SuperPoly.factor(p(1)).scale(bad)
        with pytest.raises(ValueError, match="tail constants must be rational"):
            WNOperator(F, [[[]]], [Tail(u, (u,), (u_x,))])


class TestPartials:
    def test_even_partial(self):
        a = monomial(u**2, [p(1, 1), p(1, 0)])
        expected = monomial(2 * u, [p(1, 1), p(1, 0)])
        assert a.partial_even(F.jet(1, 0)) == expected

    def test_even_partial_names_a_jet_by_str(self):
        """A jet variable the field lacks gives 0; a name that is not a ``str``
        is refused, not read as a missing variable."""
        a = monomial(u**2, [p(1, 1), p(1, 0)])
        assert a.partial_even(F.jet(1, 3)).is_zero()
        for bad in (sp.Symbol(F.jet(1, 0)), u, 0):
            with pytest.raises(TypeError):
                a.partial_even(bad)

    def test_left_odd_partial_signs(self):
        a = SuperPoly.from_terms([(1, [p(1, 0), p(1, 1)])])  # p p_x
        assert a.partial_odd(p(1, 1)) == monomial(-1, [p(1, 0)])
        assert a.partial_odd(p(1, 0)) == SuperPoly.factor(p(1, 1))

    def test_nonlocal_partial_rejected(self):
        a = monomial(1, [p(1), nl(1)])
        with pytest.raises(ValueError, match="nonlocal EL rules"):
            a.partial_odd(nl(1))


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
_SYMBOLS = [jet_expr(Fields(("u", "v")), i, k) for i in (1, 2) for k in (0, 1, 2)]
_rationals = st.builds(sp.Rational, st.integers(-5, 5), st.integers(1, 4))
_monomials = st.builds(
    lambda c, syms: c * sp.Mul(*syms), _rationals, st.lists(st.sampled_from(_SYMBOLS), max_size=3)
)
_polys = st.builds(lambda ms: sp.Add(*ms), st.lists(_monomials, max_size=3))
_denominators = _polys.filter(lambda d: sp.expand(d) != 0)


# Coefficients of values whose fields hold different generator sets: the
# sums, products and x-derivatives below lift them into joined fields, and
# each rendered coefficient must read exactly as sympy.cancel of the same
# computation done on expressions.  Single fractions keep that reference
# fast: sympy.cancel of products of sums of such fractions can take
# minutes.
_F2 = Fields(("u", "v"))
_fractions = st.one_of(
    st.just(sp.Integer(0)), _rationals, _polys, st.builds(lambda a, b: a / b, _polys, _denominators)
)


def _dx(e):
    return sum(
        (sp.diff(e, s) * jet_expr(_F2, i, k + 1) for s in e.free_symbols for i, k in [_F2.classify(s.name)]),
        sp.Integer(0),
    )


@settings(max_examples=60, deadline=None)
@given(_fractions, _fractions, _fractions)
def test_mixed_fields_render_like_cancel(e1, e2, e3):
    a, b, c = (scalar(e) for e in (e1, e2, e3))
    cases = [
        (a + b, e1 + e2),
        (a * b - c, e1 * e2 - e3),
        (a.scale(e2) + c, e1 * e2 + e3),
        (total_x(a, _F2) * c, _dx(e1) * e3),
        (total_x(a + b, _F2), _dx(sp.cancel(e1 + e2))),
    ]
    for value, expr in cases:
        expected = sp.cancel(expr)
        rendered = value.sorted_texts()
        assert rendered == ([((), str(expected))] if expected != 0 else [])


# The report printer against sympy's own: fields whose generators sort
# differently by plain name (u10 before u2) than in sympy's generator order,
# with ground, monomial and sum denominators.
_PRINT_NAMES = ["u", "u2", "u10", "u_x", "u_10x", "u(y)", "u_x(y)"]


@st.composite
def _field_elements(draw):
    names = draw(st.lists(st.sampled_from(_PRINT_NAMES), min_size=1, max_size=4, unique=True))
    K = coeff_field(names)
    powers = st.lists(st.tuples(st.sampled_from(K.gens), st.integers(1, 3)), max_size=3)

    def poly(min_terms, max_terms, coeffs=st.integers(-12, 12)):
        terms = draw(st.lists(st.tuples(coeffs, powers), min_size=min_terms, max_size=max_terms))
        return sum((c * math.prod((g**e for g, e in f), start=K.one) for c, f in terms), K.zero)

    kind = draw(st.sampled_from(["ground", "monomial", "sum"]))
    if kind == "ground":
        den = K.one * draw(st.integers(1, 12))
    elif kind == "monomial":
        den = poly(1, 1, st.integers(1, 12) | st.integers(-12, -1))
    else:
        den = poly(2, 3)
    assume(den != 0)
    return poly(1, 4) / den, K


@settings(max_examples=300, deadline=None)
@given(_field_elements(), st.fractions(max_denominator=12).filter(bool))
def test_coeff_text_matches_sympy_printer(drawn, q):
    """The printer against sympy's; and the content of a density with the drawn coefficient on its
    first word is homogeneous: that of q*a is q times that of a, with the same reduced density."""
    c, K = drawn
    assert _coeff_text(c) == str(as_expr(c))
    if c:
        a = SuperPoly({(p(1, 1),): K.one + K.gens[0], (p(1),): c}, K)
        content, reduced = scalar_content(a)
        assert reduced.scale(content) == a
        scaled_content, scaled = scalar_content(a.scale(q))
        assert scaled_content == q * content
        assert scaled.sorted_texts() == reduced.sorted_texts()


def test_coeff_text_fixed_cases():
    K = coeff_field(["u", "u2", "u10"])
    u, u2, u10 = (K.gens[K.symbols.index(n)] for n in ("u", "u2", "u10"))
    cases = [
        (-2 * u2**3 + 3, "3 - 2*u2**3"),
        ((2 * u + 1) / 3, "2*u/3 + 1/3"),
        (u2 + u10, "u10 + u2"),
        ((u + 1) / (3 * u2), "(u + 1)/(3*u2)"),
        (K.one / u**2, "u**(-2)"),
        (-K.one / u**2, "-1/u**2"),
        (K.one / (u * u2), "1/(u*u2)"),
    ]
    for c, text in cases:
        assert _coeff_text(c) == text == str(as_expr(c))


def test_negative_power_converts_with_canonical_sign():
    a = scalar(1 / (1 - u))
    assert a.sorted_texts() == [((), "-1/(u - 1)")]
    assert a.terms[()] == (-scalar(1 / (u - 1))).terms[()]


def test_integer_text_in_chunks():
    for k in (0, -7, 10**600 - 1, 10**600, -(10**1200) - 7, 7 * 10**3000 + 1):
        assert _int_text(k) == str(k)
        assert _int_value(str(abs(k))) == abs(k)


# The fields' own arithmetic against sympy's FracField over the same
# generators.  Operands carry planted factors, so that products cross-cancel,
# sums meet shared denominator factors and derivatives meet repeated ones;
# denominators are ground, monomial or polynomial, of either sign before
# sympy makes them canonical.
_ARITH = coeff_field(["u", "u_x", "v"])
_TWIN = Twin(_ARITH)
_SYMPY = _TWIN.field


@st.composite
def _ring_polys(draw, kind="sum"):
    """A nonzero polynomial of sympy's ring: ground, monomial or a sum of 2-3 terms."""
    ring = _SYMPY.ring
    coeff = st.integers(-6, 6).filter(bool)
    if kind == "ground":
        return ring(draw(coeff))
    monom = st.tuples(*[st.integers(0, 2)] * ring.ngens)
    size = (1, 1) if kind == "monomial" else (2, 3)
    terms = draw(st.dictionaries(monom, coeff, min_size=size[0], max_size=size[1]))
    return ring(terms)


_any_poly = st.sampled_from(["ground", "monomial", "sum"]).flatmap(_ring_polys)


@st.composite
def _operand_pairs(draw):
    """Two reduced fractions a*f/(b*g) and c*g/(d*f), zero numerators allowed."""
    f, g = draw(_any_poly), draw(_any_poly)
    pairs = []
    for planted_top, planted_bottom in ((f, g), (g, f)):
        top = draw(_any_poly | st.just(_SYMPY.ring.zero)) * planted_top
        bottom = draw(_any_poly) * planted_bottom
        pairs.append(_SYMPY.new(top, bottom))
    return pairs


_ours = _TWIN.ours


def _same(ours, theirs):
    assert type(ours) is _Frac and ours.field is _ARITH
    assert _TWIN.theirs(ours) == theirs
    terms = _TWIN.terms
    assert (terms(ours.numer), terms(ours.denom)) == (dict(theirs.numer), dict(theirs.denom))


def _snapshot(*values):
    """Copies of the term dicts of field elements, to show that no operation changes them."""
    return [(dict(v.numer), dict(v.denom)) for v in values]


@settings(max_examples=150, deadline=None)
@given(_operand_pairs(), st.integers(-4, 4))
def test_field_arithmetic_matches_sympy(pair, k):
    x, y = pair
    a, b = _ours(x), _ours(y)
    before = _snapshot(a, b)

    def same(ours, theirs):
        _same(ours, theirs)
        assert _snapshot(a, b) == before  # no operand is changed in place

    same(a + b, x + y)
    same(a - b, x - y)
    same(a * b, x * y)
    if y:
        same(a / b, x / y)
    else:  # a zero divisor raises, as in sympy
        for ours, theirs in ((a, x), (_ARITH.one, _SYMPY.one), (_ARITH.zero, _SYMPY.zero)):
            for left, right in ((ours, b), (ours, 0)):
                with pytest.raises(ZeroDivisionError):
                    left / right
            with pytest.raises(ZeroDivisionError):
                theirs / y
    for name, theirs in zip(_ARITH.symbols, _SYMPY.gens):
        same(a.diff(name), x.diff(theirs))
    if x:  # sympy's own x**k for k < 0 keeps the sign of the denominator as it falls (``1/-1``)
        same(a ** k, x ** k if k >= 0 else (_SYMPY.one / x) ** -k)
    elif k < 0:
        for base in (a, _SYMPY.zero):
            with pytest.raises(ZeroDivisionError):
                base ** k
    elif k:  # sympy refuses 0**0
        same(a ** k, x ** k)
    kk = _SYMPY(k)  # sympy's own returns a bare int for 0 + k
    same(a + k, x + kk)
    same(k + a, kk + x)
    same(a * k, x * kk)
    same(k * a, kk * x)
    if k:
        same(a / k, x / kk)
    for left in (k, Fraction(k, 3)):  # a rational on the left takes the reflected operation
        theirs = _SYMPY(left)
        same(left - a, theirs - x)
        if x:
            same(left / a, theirs / x)
        else:
            with pytest.raises(ZeroDivisionError):
                left / a


@settings(max_examples=80, deadline=None)
@given(_operand_pairs())
def test_total_x_matches_full_quotient_rule(pair):
    """total_x equals the quotient rule reduced by one gcd of the full products."""
    F2 = Fields(("u", "v"))
    c = _ours(pair[0] * pair[1])
    out = total_x(SuperPoly({(): c}, _ARITH), F2)
    K = Twin(out.field)
    chain = [(sym, F2.jet(i, order + 1)) for sym, i, order in F2.jet_symbols(c)]
    gen = dict(zip(out.field.symbols, K.ring.gens))
    n, d = (_TWIN.theirs(q).set_ring(K.ring) for q in (c.numer, c.denom))
    dn, dd = (sum((q.diff(gen[s]) * gen[t] for s, t in chain), K.ring.zero) for q in (n, d))
    assert K.theirs(out.terms.get((), out.field.zero)) == K.field.new(dn * d - n * dd, d * d)


@settings(max_examples=150, deadline=None)
@given(_field_elements(), st.lists(st.sampled_from(_PRINT_NAMES), max_size=4))
def test_lift_matches_set_ring(drawn, extra):
    c, K = drawn
    L = coeff_field([*K.symbols, *extra])
    lifted = _lift(c, L)
    assert lifted.field is L and type(lifted) is _Frac
    theirs = Twin(K).theirs(c)
    assert Twin(L).theirs(lifted.numer) == theirs.numer.set_ring(Twin(L).ring)
    assert Twin(L).theirs(lifted.denom) == theirs.denom.set_ring(Twin(L).ring)


def test_sympy_field_classes_stay_unpatched():
    """Coefficients, polynomials and their field and ring are the module's own
    types, and sympy's element classes keep their own methods."""
    assert wno.algebra.coeff_field is coeff_field
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "diff"):
        method = vars(FracElement)[name]
        assert method.__module__ == "sympy.polys.fields"
        assert method.__qualname__ == f"FracElement.{name}"
    for name in ("__eq__", "__ne__", "__hash__", "__neg__", "__add__", "__sub__", "__mul__",
                 "_gcd_monom", "diff", "LC"):
        method = vars(PolyElement)[name]
        method = getattr(method, "fget", method)
        assert method.__module__ == "sympy.polys.rings"
        assert method.__qualname__ == f"PolyElement.{name}"
    gens = sp.symbols("u v")
    assert type(FracField(gens, ZZ, lex).one) is FracElement
    assert type(PolyRing(gens, ZZ, lex).one) is PolyElement
    K = coeff_field(["u", "v"])
    assert _Frac.__mro__ == (_Frac, object)
    for obj in (K, K.one, K.one.numer, K.gens[0] * K.gens[1] + K.gens[0]):
        assert not any(cls.__module__.startswith("sympy") for cls in type(obj).__mro__)
    assert type(K.one) is _Frac and type(K.one.numer) is dict


def test_generator_attributes_are_field_elements():
    """Each generator of a field is the ``_Frac`` ``g/1`` of that field, and
    arithmetic on generators stays in it."""
    K = coeff_field(["u", "v"])
    u, v = K.gens
    assert K.symbols == ("u", "v")
    for i, g in enumerate(K.gens):
        assert type(g) is _Frac and g.field is K
        assert g.denom == {0: 1}
        assert Twin(K).terms(g.numer) == {tuple(int(k == i) for k in range(2)): 1}
    for value in (u * v + u, u - v, u / v, (u * v).diff("v"), u ** 2):
        assert type(value) is _Frac and value.field is K
    assert u != v and u * v == v * u and (u * v).diff("v") == u


@pytest.mark.parametrize("names", [
    ["u2", "u10", "u"],
    ["u_2x", "u", "u_x", "u_10x", "u_3x"],
    ["u", "u_x", "u(y)", "u_x(y)", "u_2x(y)"],
    ["u1", "u2", "u1_x", "u2_2x", "u1(y)", "u2_x(y)"],
    ["a", "x", "z3", "y", "p", "w", "o", "ab", "A", "u01", "u1"],
    [],
])
def test_generator_order_is_sympys(names):
    """The owned fields order their generators as sympy's ``_sort_gens``, whose
    order fixes lex leading coefficients and so every printed sign."""
    assert coeff_field(names).symbols == _sort_gens(sorted(names))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(
    [jet + y for base in ("u", "v", "u1", "u2", "u10", "w3", "x", "a") for jet in
     (base, f"{base}_x", f"{base}_2x", f"{base}_11x") for y in ("", "(y)")]), max_size=8))
def test_generator_order_is_sympys_on_field_sets(names):
    assert coeff_field(names).symbols == _sort_gens(sorted(names))


def test_only_algebra_knows_the_coefficient_representation():
    """No module but ``wno.algebra`` imports sympy, reads a coefficient's
    numerator, denominator or ring, or calls its quotient rule."""
    found = []
    for path in sorted(Path(wno.__file__).parent.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(m == "sympy" or m.startswith("sympy.") for m in modules):
                found.append(f"{path.name}:{node.lineno} imports sympy")
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.id if isinstance(node, ast.Name) else None)
            if name in ("numer", "denom", "ring", "_quotient_rule"):
                found.append(f"{path.name}:{node.lineno} uses {name}")
    assert not found


@st.composite
def _fraction_lists(draw):
    """0-5 reduced fractions whose denominators come from a pool of 1-3 polynomials
    (so some are equal), numerators and denominators with a planted common factor,
    and some later terms negating earlier ones."""
    f, one = draw(_any_poly), _SYMPY.ring.one
    pool = draw(st.lists(_any_poly, min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, 5))):
        if out and draw(st.booleans()):
            out.append(-draw(st.sampled_from(out)))
            continue
        top = draw(_any_poly | st.just(_SYMPY.ring.zero)) * draw(st.sampled_from([f, one]))
        bottom = draw(st.sampled_from(pool)) * draw(st.sampled_from([f, one]))
        out.append(_SYMPY.new(top, bottom))
    return out


@settings(max_examples=200, deadline=None)
@given(_fraction_lists())
def test_fsum_matches_left_to_right_sum(xs):
    _same(_fsum([_ours(x) for x in xs], _ARITH), reduce(operator.add, xs, _SYMPY.zero))


def test_fsum_of_no_terms_zeros_and_one_term():
    K = _ARITH
    x = (K.gens[0] + 1) / (2 * K.gens[2] - 6)
    for values, expected in (([], K.zero), ([K.zero] * 3, K.zero), ([x], x), ([K.zero, x], x)):
        total = _fsum(values, K)
        assert type(total) is _Frac
        assert (dict(total.numer), dict(total.denom)) == (dict(expected.numer), dict(expected.denom))


def test_fsum_returns_a_lone_nonzero_value_itself():
    """A lone nonzero summand is reduced already: no gcd, no new value."""
    K = _ARITH
    x = (K.gens[0] + 1) / (2 * K.gens[2] - 6)
    with patch.object(wno.algebra, "_cofactors", _refused):
        assert _fsum([K.zero, x, K.zero], K) is x and _fsum(iter([x]), K) is x


@settings(max_examples=150, deadline=None)
@given(_any_poly | st.just(_SYMPY.ring.zero), _any_poly | st.just(_SYMPY.ring.zero))
def test_cofactors_match_sympy(p, q):
    assert tuple(map(_TWIN.theirs, _cofactors(_ARITH, _ours(p), _ours(q)))) == p.cofactors(q)


# The fields' own polynomial functions against sympy's PolyRing over the same
# generators: operands share a planted factor, so that gcds are nontrivial;
# monomial operands take the one-pass monomial gcd.
_mine = _TWIN.ours


def _same_poly(ours, theirs):
    assert type(ours) is dict
    assert _TWIN.theirs(ours) == theirs and _TWIN.terms(ours) == dict(theirs)


@settings(max_examples=200, deadline=None)
@given(
    _any_poly | st.just(_SYMPY.ring.zero),
    _any_poly | st.just(_SYMPY.ring.zero),
    _any_poly,
    _ring_polys("monomial"),
)
def test_poly_arithmetic_matches_sympy(x, y, f, m):
    x, y = x * f, y * f
    a, b, c = _mine(x), _mine(y), _mine(m)
    _same_poly(_collect(a, b.items()), x + y)
    _same_poly(_collect(a, b.items(), -1), x - y)
    _same_poly(_neg(a), -x)
    _same_poly(_mul(_ARITH, a, b), x * y)
    _same_poly(_mul(_ARITH, a, c), x * m)
    assert _mul(_ARITH, a, _ONE) is a and _mul(_ARITH, _ONE, a) == a  # times 1: the operand itself
    assert (a == b) == (x == y) and a == _mine(x)
    for s, theirs in zip(_ARITH.shifts, _SYMPY.ring.gens):
        _same_poly(_diff(a, s), x.diff(theirs))
    assert (a[max(a)] if a else 0) == x.LC  # the largest packed monomial leads in lex order
    for (p_, q_), (s_, t_) in (((a, b), (x, y)), ((a, c), (x, m)), ((c, a), (m, x))):
        for ours, theirs in zip(_cofactors(_ARITH, p_, q_), s_.cofactors(t_)):
            _same_poly(ours, theirs)


def test_cofactors_memo_is_emptied_per_command():
    """A repeated gcd of two sums comes from the memo, monomial operands bypass it,
    and each ``main`` call starts with it empty."""
    X, Y, _ = _ARITH.gens
    x, y = X.numer, Y.numer
    p, q = ((X + Y) * (X - 2)).numer, ((X + Y) * (Y + 3)).numer
    _GCDS.clear()
    first = _cofactors(_ARITH, p, q)
    assert list(_GCDS) == [(_ARITH, frozenset(p.items()), frozenset(q.items()))]
    rebuilt = _mine(_TWIN.theirs(p))
    assert rebuilt is not p and _cofactors(_ARITH, rebuilt, q) is first
    assert _cofactors(_ARITH, p, q) is first
    _cofactors(_ARITH, x, p), _cofactors(_ARITH, p, (Y + Y).numer)  # monomial operands bypass the memo
    assert len(_GCDS) == 1
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["--no-such-option"]) == 2
    assert not _GCDS


@st.composite
def _planted_pairs(draw, max_gens=4, max_bits=70, max_terms=4):
    """Two polynomials of sympy's ring over 1-``max_gens`` generators sharing a planted
    factor whose leading coefficient is negative and a common integer content, each
    times a cofactor of its own; coefficients reach ``2**max_bits`` and every
    exponent of a generator is a multiple of 1, 2 or 4, so that sympy deflates."""
    n = draw(st.integers(1, max_gens))
    ring = Twin(coeff_field(["u", "u_x", "v", "v_x"][:n])).ring
    steps = draw(st.tuples(*[st.sampled_from([1, 2, 4])] * n))
    big = st.integers(-(2**max_bits), 2**max_bits).filter(bool)
    coeff = st.integers(-9, 9).filter(bool) | big

    def poly(min_size):
        monom = st.tuples(*[st.integers(0, 2).map(lambda e, s=s: e * s) for s in steps])
        return ring(draw(st.dictionaries(monom, coeff, min_size=min_size, max_size=max_terms)))

    h, content = poly(1), draw(st.integers(1, 2**20) | big.map(abs))
    h = -h if h.LC > 0 else h
    return content * h * poly(1), content * h * poly(1)


def _sympy_cofactors(f, g):
    """Sympy's ``cofactors``, its primitive PRS gcd where its heuristic gcd gives up, with
    the leading coefficient of the gcd made positive: where the interpolated gcd does not
    divide, sympy's ``heugcd`` keeps ``f`` or ``g`` over an interpolated cofactor, whose sign
    is that of ``f`` or ``g`` (``(-8192*u + 9, 1, 1)`` for ``f = g = -8192*u + 9``)."""
    try:
        h, cff, cfg = f.cofactors(g)
    except HeuristicGCDFailed:
        h, cff, cfg = f.ring.dmp_rr_prs_gcd(f, g)
    return (h, cff, cfg) if h.LC > 0 else (-h, -cff, -cfg)


@settings(max_examples=150, deadline=None)
@given(_planted_pairs())
def test_cofactors_match_sympy_on_planted_factors(pair):
    twin = Twin(coeff_field(map(str, pair[0].ring.symbols)))
    f, g = pair
    assert tuple(map(twin.theirs, _cofactors(twin.K, twin.ours(f), twin.ours(g)))) == _sympy_cofactors(f, g)


def _equal_sums_with_negative_lead():
    """``(f, f)`` for a sum ``f`` whose leading coefficient is negative: sympy's primitive
    PRS gives ``(f, 1, 1)``, with the sign of ``f``."""
    ring = Twin(coeff_field(["u", "u_x", "v"])).ring
    v, u_x = (ring(sp.Symbol(name)) for name in ("v", "u_x"))
    f = -4852 * v * u_x - u_x
    return f, f


@settings(max_examples=40, deadline=None)
@given(_planted_pairs(max_gens=3, max_bits=30, max_terms=3))
@example(pair=_equal_sums_with_negative_lead())
def test_cofactors_fall_back_to_sympys_prs(pair):
    """With no evaluation point left to the heuristic gcd, two sums take sympy's
    primitive PRS, whose result is normalised as the heuristic's is."""
    twin = Twin(coeff_field(map(str, pair[0].ring.symbols)))
    f, g = pair
    assume(len(f) > 1 and len(g) > 1)
    theirs = _sympy_cofactors(f, g)
    with patch.object(wno.algebra, "_HEU_TRIES", 0), patch.dict(_GCDS, clear=True):
        assert _heu(twin.K, twin.ours(f), twin.ours(g)) is None
        assert tuple(map(twin.theirs, _cofactors(twin.K, twin.ours(f), twin.ours(g)))) == theirs


def _dividing_sums():
    """Sums of which one divides the other, as sympy's: a planted multiple each way, equal
    operands, a divisor with a negative leading coefficient and the content 6, a divisor with more
    terms than the dividend, and ``(2p, p)`` and ``(p, 2p)``, whose quotient is integral one way."""
    ring = Twin(coeff_field(["u", "u_x", "v"])).ring
    u, u_x, v = ring.gens
    h, f, p = -6 * u * v + 12 * u_x - 18, u**2 - 3 * v + 1, u * u_x + 3 * v
    return [(h, h * f), (h * f, h), (h, h), (f, ring(dict(f))), (h * f, 2 * h * f * v),
            (u**3 - 1, u**2 + u + 1), (u**2 + u + 1, u**3 - 1), (2 * p, p), (p, 2 * p)]


def _refused(*args):
    raise AssertionError("a call that the fast path should have spared")


def _divided_without_heu(f, g):
    """``_cofactors`` of sums ``f`` and ``g`` against sympy's, with ``_heu`` made to raise."""
    twin = Twin(coeff_field(map(str, f.ring.symbols)))
    with patch.object(wno.algebra, "_heu", _refused), patch.dict(_GCDS, clear=True):
        ours = _cofactors(twin.K, twin.ours(f), twin.ours(g))
    assert tuple(map(twin.theirs, ours)) == _sympy_cofactors(f, g)


@pytest.mark.parametrize("pair", _dividing_sums())
def test_cofactors_of_dividing_sums_match_sympy(pair):
    """A pair of sums of which one divides the other is settled by exact division: the
    divisor, its leading coefficient made positive, is the gcd."""
    _divided_without_heu(*pair)


@settings(max_examples=100, deadline=None)
@given(_planted_pairs(max_bits=30), st.booleans())
def test_cofactors_of_planted_multiples_match_sympy(pair, swap):
    """``(d, d*e)`` and ``(d*e, d)`` for the planted ``d`` and ``e`` of a pair, when both are sums."""
    d, e = pair
    f, g = (d * e, d) if swap else (d, d * e)
    assume(len(f) > 1 and len(g) > 1)
    _divided_without_heu(f, g)


def test_cofactors_of_the_same_sum_skip_the_heuristic_gcd():
    """One polynomial given as both operands is its own gcd, its sign made positive."""
    K = coeff_field(["u", "v"])
    U, V = K.gens
    h = (-3 * U * V + 6 * U - 9).numer
    with patch.object(wno.algebra, "_heu", _refused), patch.dict(_GCDS, clear=True):
        assert _cofactors(K, h, h) == (_neg(h), {0: -1}, {0: -1})


# Denominators that are powers r^e: the quotient rule takes gcd(d, d') from the power form
# (``_power_form``), checked against sympy's derivative of the same function.
_PF = Fields(("u", "v"))
_PU, _PU_X, _PU_2X, _PV, _PV_X = (sp.Symbol(_PF.jet(i, k))
                                  for i, k in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1)))
_PK = coeff_field([_PU.name, _PU_X.name, _PV.name])
_PLANTED_ROOTS = {
    "content": 6 * _PU**2 + 4 * _PV + 2,
    "negative leading coefficient": -_PU * _PV + 3,
    "factor free of u": (_PV + 1) * (_PU + _PV),
    "square factor": (_PU + 1) ** 2 * (_PV - 2),
}


def _power_form_of(expr):
    """``_power_form`` of the denominator of ``expr``, read as a coefficient, and the coefficient."""
    c = _lift(scalar(expr).terms[()], _PK)
    return wno.algebra._power_form(_PK, c.denom), c


def _derivatives_match_sympy(c, expr):
    """``c.diff`` by ``u`` and ``v`` and ``D_x c`` equal sympy's derivatives of ``expr``, cancelled."""
    step = {_PU: _PU_X, _PU_X: _PU_2X, _PV: _PV_X}
    for ours, theirs in ((c.diff(_PU.name), sp.diff(expr, _PU)), (c.diff(_PV.name), sp.diff(expr, _PV)),
                         (total_x(SuperPoly({(): c}, c.field), _PF).terms.get(()),
                          sum(sp.diff(expr, s) * t for s, t in step.items()))):
        twin = Twin(ours.field)
        assert twin.theirs(ours) == twin.field.from_expr(sp.cancel(theirs))


@pytest.mark.parametrize("e", [2, 3, 4, 5])
@pytest.mark.parametrize("root", list(_PLANTED_ROOTS))
def test_derivatives_over_planted_powers(root, e):
    """A denominator ``r^e`` is found as a power of a root whose leading coefficient is positive
    (``-r`` for the negative one), and the derivatives it takes match sympy's."""
    r = _PLANTED_ROOTS[root]
    expr = (_PU_X + 3 * _PV) / r**e
    form, c = _power_form_of(expr)
    assert form is not None
    found, below = form
    assert _mul(c.field, below, found) == c.denom and found[max(found)] > 0
    assert Twin(c.field).theirs(found).as_expr() in (r.expand(), (-r).expand())
    _derivatives_match_sympy(c, expr)


@st.composite
def _planted_power(draw):
    """``(r, e)``: a root of 2-3 terms in u, u_x, v with small coefficients and an exponent 2-5."""
    monomial = st.tuples(*[st.integers(0, 2)] * 3).map(
        lambda m: _PU ** m[0] * _PU_X ** m[1] * _PV ** m[2])
    terms = draw(st.lists(st.tuples(st.integers(-6, 6).filter(bool), monomial), min_size=2, max_size=3,
                          unique_by=lambda t: t[1]))
    r = sum(k * m for k, m in terms)
    assume(len(sp.Add.make_args(r)) > 1)
    return r, draw(st.integers(2, 5))


@settings(max_examples=40, deadline=None)
@given(_planted_power())
def test_derivatives_over_random_powers(planted):
    """The power form of ``r^e`` has an exponent that ``e`` divides, and the
    derivatives of ``1/r^e`` and of ``v/r^e`` match sympy's."""
    r, e = planted
    for numerator in (1, _PV):
        form, c = _power_form_of(numerator / r**e)
        if sp.gcd(numerator, r) == 1:
            found, below = form
            degree = max(sum(m) for m in c.field.unpacked(found))
            power = max(sum(m) for m in c.field.unpacked(c.denom)) // degree
            assert power % e == 0 and found[max(found)] > 0
            assert below == reduce(lambda a, b: _mul(c.field, a, b), [found] * (power - 1), _ONE)
            assert _mul(c.field, below, found) == c.denom
        _derivatives_match_sympy(c, numerator / r**e)


def test_no_power_form_and_its_memo():
    """A denominator that is not a proper power has no power form, and keeps the general gcd;
    ``main`` empties the memo of power forms."""
    for expr in (1 / (_PU**2 + 1), 1 / ((_PU + 1) ** 2 * (_PU + 2)), 1 / (4 * _PU**2 + 2)):
        form, c = _power_form_of(expr)
        assert form is None
        _derivatives_match_sympy(c, expr)
    assert wno.algebra._POWERS
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["--no-such-option"]) == 2
    assert not wno.algebra._POWERS


def test_constant_curvature_derivatives_skip_the_heuristic_gcd():
    """Every derivative by a field of the entries of the n = 3 constant-curvature metric ``h^2 I``,
    of its inverse and of quotients over powers of h matches sympy's with ``_heu`` made to raise:
    each denominator is a power of the conformal factor h, whose derivative is a monomial."""
    F3 = Fields(("u1", "u2", "u3"))
    u = [sp.Symbol(F3.jet(k, 0)) for k in (1, 2, 3)]
    h = 1 + u[0] ** 2 + u[1] ** 2 + u[2] ** 2
    with patch.object(wno.algebra, "_heu", _refused), patch.dict(wno.algebra._POWERS, clear=True):
        for expr in (h**2, 1 / h**2, u[0] / h**2, u[0] * u[1] / h**3, 1 / h**4):
            c = scalar(expr).terms[()]
            for s in u:
                twin = Twin(c.field)
                assert twin.theirs(c.diff(s.name)) == twin.field.from_expr(sp.cancel(sp.diff(expr, s)))


# Packed monomials at the edge of their fields: exponents up to ``_MAX``, one below the
# guard bit, against the exponent-wise minimum and sympy's division and gcd.
_TOP = wno.algebra._MAX
_STEP = _TOP // 7  # seven steps reach _TOP exactly


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, _TOP), st.integers(0, _TOP)), min_size=n, max_size=n)))
def test_monomial_gcd_is_the_exponentwise_minimum(pairs):
    K = coeff_field(["u", "u_x", "v", "v_x"][:len(pairs)])
    a, b, low = (next(iter(K.packed({tuple(e): 1}))) for e in (*zip(*pairs), map(min, pairs)))
    assert K.monomial_gcd(a, b) == K.monomial_gcd(b, a) == low


@st.composite
def _polys_at_the_guard(draw):
    """``h``, ``f`` and ``g`` of sympy's ring over 1-3 generators, exponents multiples of
    ``_STEP``: up to 3 steps in ``h`` and 4 in ``f`` and ``g``, so that ``h*f`` reaches ``_TOP``."""
    n = draw(st.integers(1, 3))
    ring = Twin(coeff_field(["u", "u_x", "v"][:n])).ring
    coeff = st.integers(-9, 9).filter(bool)

    def poly(steps):
        monom = st.tuples(*[st.integers(0, steps).map(lambda e: e * _STEP)] * n)
        return ring(draw(st.dictionaries(monom, coeff, min_size=1, max_size=3)))

    return poly(3), poly(4), poly(4)


def _candidate_past_the_guard():
    """``(h, f, g)`` for which ``_heu`` interpolates a candidate with an exponent past ``_TOP``
    (``u_x**(2 * 18724)`` at ``x = 229``), no divisor of ``f``: it takes the next point."""
    ring = Twin(coeff_field(["u", "u_x"])).ring
    u, u_x = (x**_STEP for x in ring.gens)
    return ring.one, -2 * u**3 * u_x**4 + u**2 * u_x**2 - 2 * u * u_x**4, 3 * u + 1


def _candidate_for_the_prs():
    """``(h, f, g)`` on whose ``h*f`` and ``h*g`` ``_dividing`` and ``_heu`` give up: the PRS, which
    is dense, takes the exponents over their gcd ``_STEP``, not dense polynomials of degree ``_TOP``."""
    ring = Twin(coeff_field(["u", "u_x", "v"])).ring
    u, v, u_x = (x**_STEP for x in ring.gens)  # the field's generator order
    return v**2 * u_x * (3 * u**3 - 4 * v), 3 * u * v**2 * u_x * (u**2 - 2 * v**2 * u_x**3), ring(-4)


@settings(max_examples=150, deadline=None)
@given(_polys_at_the_guard())
@example(polys=_candidate_past_the_guard())
@example(polys=_candidate_for_the_prs())
def test_exquo_and_heu_at_the_guard(polys):
    """Exact division and the gcd of packed polynomials whose exponents reach ``_TOP``: a
    division whose remainder would pass it fails, as sympy's leaves a remainder."""
    h, f, g = polys
    twin = Twin(coeff_field(map(str, h.ring.symbols)))
    hf, hg = h * f, h * g
    assert twin.terms(_exquo(twin.K, twin.ours(hf), twin.ours(h))) == dict(f)
    for x, y in ((hg, hf), (hf, h * h + 1), (f, g)):
        q, r = x.div(y)
        ours = _exquo(twin.K, twin.ours(x), twin.ours(y))
        assert (None if r else dict(q)) == (ours if ours is None else twin.terms(ours))
    with patch.dict(_GCDS, clear=True):
        ours = _cofactors(twin.K, twin.ours(hf), twin.ours(hg))
    assert tuple(map(twin.theirs, ours)) == _sympy_cofactors(hf, hg)


def test_exponent_overflow_is_refused():
    """A product, a total derivative or a converted sympy polynomial with an exponent past
    ``_TOP`` raises, where the sum would carry into the next generator's field."""
    F2 = Fields(("u",))
    K = coeff_field(["u", "u_x"])
    half, top, u_ux = (K.packed({e: 1}) for e in ((0, _TOP // 2), (0, _TOP), (1, 1)))
    u = _diff(u_ux, K.shifts[1])
    assert K.unpacked(_mul(K, half, half)) == {(0, _TOP - 1): 1}
    assert K.unpacked(_mul(K, top, u)) == {(1, _TOP): 1}
    with pytest.raises(ExponentOverflowError, match=f"would pass {_TOP}"):
        _mul(K, top, u_ux)
    with pytest.raises(ExponentOverflowError):  # D_x(u * u_x**_TOP) has u_x**(_TOP + 1)
        total_x(SuperPoly({(): _Frac(K, _mul(K, top, u), {0: 1})}, K), F2)
    with pytest.raises(ExponentOverflowError):
        K.packed({(0, _TOP + 1): 1})


# Sums of products of graded values, as the bracket forms them: words that vanish or meet
# again, coefficients over denominators 1 + u^2, u_x and 3, in fields of different generators.
_u2x, _v = sp.Symbol("u_2x"), sp.Symbol("v")
_sum_coeffs = st.builds(
    lambda k, top, bottom: sp.Integer(k) * top / bottom,
    st.integers(-3, 3).filter(bool),
    st.sampled_from([1, u, u_x, u * u_x, 1 + u, _u2x, u * _v]),
    st.sampled_from([1, 1 + u**2, u_x, 3]),
)
_sum_values = st.builds(
    SuperPoly.from_terms,
    st.lists(st.tuples(_sum_coeffs, st.lists(_FACTORS, max_size=2)), max_size=3),
)
_sum_pairs = st.lists(st.tuples(_sum_values, _sum_values), max_size=3)


def _naive_product(A, B):
    """``A * B`` word by word from pairwise coefficient products and sums, an oracle that shares
    no code with ``_product_sum`` (which ``SuperPoly.__mul__`` calls)."""
    field = coeff_field(A.field.symbols + B.field.symbols)
    acc = {}
    for w1, c1 in A.set_field(field).terms.items():
        for w2, c2 in B.set_field(field).terms.items():
            sign, word = normalize_word(w1 + w2)
            if word is not None:
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                acc[word] = acc[word] + c if word in acc else c
    return SuperPoly(acc, field)


def _naive_sum(pairs):
    return reduce(operator.add, (_naive_product(A, B) for A, B in pairs), SuperPoly.zero())


@settings(max_examples=150, deadline=None)
@given(_sum_pairs, st.sampled_from([1, 2]))
@example(pairs=[], weight=2)
def test_product_sum_matches_the_naive_sum(pairs, weight):
    """The fused sum of products equals sum(A * B) scaled by its weight, term by term, in the
    field over every operand's generators, which holds the naive sum's."""
    fused, naive = _product_sum(pairs, weight), _naive_sum(pairs)
    assert fused.sorted_texts() == naive.scale(weight).sorted_texts()
    symbols = {s for A, B in pairs if A and B for s in A.field.symbols + B.field.symbols}
    assert set(naive.field.symbols) <= set(fused.field.symbols) == symbols


def test_product_sum_fixed_cases():
    a = SuperPoly.from_terms([(u / (1 + u**2), [p(1)]), (u_x / 3, [p(1, 1)])])
    b = SuperPoly.from_terms([(1 / u_x, [p(1, 1)]), (_v, [p(1)])])
    fused = _product_sum([(a, b), (b, a)], 2)
    assert fused.sorted_texts() == _naive_sum([(a, b), (b, a)]).scale(2).sorted_texts()
    assert _product_sum([(a, a)]).is_zero()  # p p and p_x p_x vanish; p p_x cancels p_x p
    empty = _product_sum([])
    assert empty.is_zero() and empty.field is SuperPoly.zero().field


@settings(max_examples=150, deadline=None)
@given(_sum_values, st.lists(_FACTORS, min_size=1, max_size=2), st.sampled_from([1, -1, 2, Fraction(-2, 3)]),
       st.sampled_from([1, 2]), st.sampled_from(["empty", "own", "wider"]))
def test_word_shift_product_is_the_general_product(A, factors, r, weight, place):
    """``A * X`` for X one word with a rational coefficient r, in an empty field or in A's, appends
    the word with its Koszul sign (even nonlocal factors among A's and X's) and scales by r, with
    no running sum: term for term and in order the value of the general path, which takes
    ``A * 2X - A * X``.  In a field with a generator that A's lacks, X takes the general path."""
    X = SuperPoly.from_terms([(r, factors)])
    assume(X and A)
    if place != "empty":
        X = X.set_field(coeff_field(A.field.symbols + ("w",) * (place == "wider")))
    general = _product_sum([(A, X.scale(2)), (A, -X)], weight)
    with patch.object(wno.algebra, "_add_into", side_effect=AssertionError) if place != "wider" else contextlib.nullcontext():
        shifted = _product_sum([(A, X)], weight)
    assert shifted.field is general.field
    assert list(shifted.terms.items()) == list(general.terms.items())
    assert shifted.sorted_texts() == _naive_product(A, X).scale(weight).sorted_texts()


def test_product_sum_refuses_an_exponent_overflow():
    """The naive sum, the fused one and ``A * B`` raise when a product has an exponent past _TOP,
    the fused one also when a numerator past it would be brought to a new denominator; ``_fsum``
    raises when a numerator brought to a new denominator passes it."""
    K = coeff_field(["u", "u_x"])
    half = _Frac(K, K.packed({(_TOP // 2 + 1, 0): 1}), _ONE)
    a, b = (SuperPoly({(p(1, o),): half}, K) for o in (0, 1))
    c = SuperPoly({(p(1),): _Frac(K, _ONE, K.packed({(0, 1): 1}))}, K)  # 1/u_x p
    for pairs in ([(a, b)], [(a, b), (c, SuperPoly.factor(p(1, 1)))]):
        for path in (_naive_sum, _product_sum, lambda pairs: reduce(operator.add, (A * B for A, B in pairs))):
            with pytest.raises(ExponentOverflowError):
                path(pairs)
    top = _Frac(K, K.packed({(_TOP, 0): 1}), _ONE)
    over_u = _Frac(K, _ONE, K.packed({(1, 0): 1}))
    assert _fsum([top, top], K) == top * 2
    with pytest.raises(ExponentOverflowError):  # u**_TOP + 1/u is (u**(_TOP + 1) + 1)/u
        _fsum([top, over_u], K)


@settings(max_examples=60, deadline=None)
@given(_fraction_lists(), _sum_pairs)
def test_no_operation_changes_a_built_polynomial(xs, pairs):
    """No polynomial is changed once built, as the module says, and ``_ONE`` stays 1: sums
    that accumulate in place own their numerators."""
    values = [_ours(x) for x in xs]
    everything = values + [c for A, B in pairs for c in (*A.terms.values(), *B.terms.values())]
    before = _snapshot(*everything)
    _fsum(values, _ARITH)
    _product_sum(pairs, 2)
    for A, B in pairs:
        A * B, A + B, A.partial_odd(p(1)), B.partial_odd(p(2, 1))
        SuperPoly.from_terms([(c, w) for X in (A, B, A) for w, c in X.terms.items()])
    for a in values:
        for b in values:
            a + b, a - b, a * b, b and a / b
        for name in _ARITH.symbols:
            a.diff(name)
    assert _snapshot(*everything) == before
    assert _ONE == {0: 1}
