"""Operator encoding, skew test, bracket outcomes, and the verdict."""

import random
from fractions import Fraction
from itertools import product
from math import comb

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import wno.algebra
import wno.geometry
import wno.schouten
from wno.algebra import Fields, SuperPoly, _by_order, _coeff_text, _into, _lift, coeff_field, p
from wno.cli import _coefficient_report, main
from wno.jetcalc import _adjoint_terms
from wno.nonlocal_vars import NonlocalVarTable, el_nonlocal, scalar_content
from wno.schouten import (
    Tail,
    WNOperator,
    _tail_witness,
    is_hamiltonian,
    schouten_bracket,
    skew_check,
    to_superfunction,
)

from conftest import jet_expr, monomial, random_coeff

F = Fields(("u",))
u, u_x = jet_expr(F, 1, 0), jet_expr(F, 1, 1)


def op_local(rows):
    return WNOperator(F, [[rows]])


def kn_operator():
    return WNOperator(F, [[[]]], [Tail(sp.Integer(1), (u_x,), (u_x,))])


def mkdv_operator(with_tail=True):
    rows = [
        (sp.Integer(1), 3),
        (sp.Rational(2, 3) * u**2, 1),
        (sp.Rational(2, 3) * u * u_x, 0),
    ]
    tails = [Tail(sp.Rational(-2, 3), (u_x,), (u_x,))] if with_tail else []
    return WNOperator(F, [[rows]], tails)


class TestEncoding:
    def test_first_order_shift(self):
        table = NonlocalVarTable()
        S = to_superfunction(op_local([(sp.Integer(1), 1)]), table)
        assert S == SuperPoly.from_terms([(1, [p(1, 0), p(1, 1)])])

    def test_pure_tail(self):
        table = NonlocalVarTable()
        S = to_superfunction(kn_operator(), table)
        r = table.factor(1)
        assert S == monomial(u_x, [p(1, 0), r])
        assert table.density(1) == monomial(u_x, [p(1, 0)])

    def test_mkdv_encoding_up_to_orientation(self):
        # the reference spelling p_3x p + (2/3) u^2 p_x p + (2/3) u_x p r uses
        # the reversed factor order; our encoding is its negative, which the
        # quadratic bracket cannot distinguish
        table = NonlocalVarTable()
        S = to_superfunction(mkdv_operator(), table)
        r = table.factor(1)
        reference = SuperPoly.from_terms(
            [
                (1, [p(1, 3), p(1, 0)]),
                (sp.Rational(2, 3) * u**2, [p(1, 1), p(1, 0)]),
                (sp.Rational(2, 3) * u_x, [p(1, 0), r]),
            ]
        )
        assert S == -reference

    def test_order_zero_diagonal_entry_vanishes(self):
        table = NonlocalVarTable()
        S = to_superfunction(op_local([(u, 0)]), table)
        assert S.is_zero()


class TestSkew:
    def test_shift_is_skew(self):
        assert skew_check(op_local([(sp.Integer(1), 1)])).ok

    def test_multiplication_is_not(self):
        res = skew_check(op_local([(u, 0)]))
        assert not res.ok
        assert "2*u" in res.witness

    def test_first_order_metric_operator_is_skew(self):
        G = Fields(("u1", "u2"))
        v1 = jet_expr(G, 1, 0)
        rows = [[[(sp.Integer(1), 1)], []], [[], [(1 + v1**2, 1), (v1 * jet_expr(G, 1, 1), 0)]]]
        P = WNOperator(G, rows)
        assert skew_check(P).ok

    def test_asymmetric_tail_detected(self):
        P = WNOperator(F, [[[]]], [Tail(sp.Integer(1), (u_x,), (u**2,))])
        res = skew_check(P)
        assert not res.ok and "tail" in res.witness

    def test_tail_witness_writes_y_copies(self):
        P = WNOperator(F, [[[]]], [Tail(sp.Integer(1), (u**2 * u_x,), (u_x,))])
        res = skew_check(P)
        assert res.witness == "tail kernel [1,1]: u**2*u_x*u_x(y) - u(y)**2*u_x*u_x(y)"

    def test_one_skew_test_and_one_warning_per_verdict(self, monkeypatch):
        """The verdict's one skew test reads the odd-slot tuple of the encoding it brackets."""
        calls, els, el_nonlocal = [], [], wno.schouten.el_nonlocal

        def counted(op, *dp):
            calls.append(dp)
            return skew_check(op, *dp)

        def recorded(*args):
            els.append(el_nonlocal(*args))
            return els[-1]

        monkeypatch.setattr(wno.schouten, "skew_check", counted)
        monkeypatch.setattr(wno.schouten, "el_nonlocal", recorded)
        res = is_hamiltonian(op_local([(u, 0), (sp.Integer(1), 1)]))
        assert calls == [(els[0].el.dp,)]
        assert res.bracket.warnings == [
            f"operator is not skew-adjoint ({res.skew.witness}); "
            "only its skew part enters the bracket"
        ]

    def test_bracket_of_two_operators_warns_for_each(self):
        out = schouten_bracket(op_local([(u, 0)]), op_local([(u_x, 0)]))
        assert [w.split(" is ")[0] for w in out.warnings] == ["first operator", "second operator"]


class TestBracket:
    def test_self_bracket_of_pure_tail_vanishes_identically(self):
        out = schouten_bracket(kn_operator(), kn_operator())
        assert out.three_vector.is_zero()
        assert out.trivial and not out.independence_assumed

    def test_local_truncation_three_vector(self):
        L = mkdv_operator(with_tail=False)
        out = schouten_bracket(L, L)
        expected = monomial(
            sp.Rational(16, 3) * u, [p(1, 0), p(1, 1), p(1, 3)]
        )
        assert out.three_vector == expected
        assert not out.trivial

    def test_full_operator_three_vector_and_el(self):
        P = mkdv_operator()
        table = NonlocalVarTable()
        out = schouten_bracket(P, P, table)
        r = table.factor(1)
        expected = SuperPoly.from_terms(
            [
                (sp.Rational(16, 3) * u, [p(1, 0), p(1, 1), p(1, 3)]),
                (sp.Rational(-16, 3), [p(1, 1), p(1, 3), r]),
            ]
        )
        assert out.three_vector == expected
        assert out.trivial and not out.independence_assumed

    def test_non_skew_input_warns(self):
        out = schouten_bracket(op_local([(u, 0)]), op_local([(sp.Integer(1), 1)]))
        assert out.warnings

    def test_symmetry_on_local_operators(self):
        rng = random.Random(31)
        for _ in range(6):
            P = op_local([(random_coeff(rng, F, 1), rng.randint(0, 3))])
            Q = op_local([(random_coeff(rng, F, 1), rng.randint(0, 3))])
            a = schouten_bracket(P, Q)
            b = schouten_bracket(Q, P)
            assert a.el == b.el

    def test_symmetry_with_distinct_tails_shared_table(self):
        P = kn_operator()
        Q = WNOperator(F, [[[]]], [Tail(sp.Integer(1), (u**2,), (u**2,))])
        table = NonlocalVarTable()
        a = schouten_bracket(P, Q, table)
        b = schouten_bracket(Q, P, table)
        assert a.el == b.el

    def test_bilinearity_in_second_slot(self):
        rng = random.Random(37)
        for _ in range(4):
            P = op_local([(random_coeff(rng, F, 1), rng.randint(0, 2))])
            Q1 = op_local([(random_coeff(rng, F, 1), rng.randint(0, 2))])
            Q2 = op_local([(random_coeff(rng, F, 1), rng.randint(0, 2))])
            lhs = schouten_bracket(P, add(Q1, Q2)).el
            rhs = schouten_bracket(P, Q1).el + schouten_bracket(P, Q2).el
            assert lhs == rhs

    def test_quadratic_scaling(self):
        rng = random.Random(41)
        for c in (sp.Integer(2), sp.Rational(-3, 2)):
            P = op_local([(random_coeff(rng, F, 1), rng.randint(0, 3))])
            lhs = schouten_bracket(scale(P, c), scale(P, c)).el
            rhs = schouten_bracket(P, P).el.scale(c**2)
            assert lhs == rhs


class TestVerdicts:
    def test_kn_yes(self):
        res = is_hamiltonian(kn_operator())
        assert res.ok and res.skew.ok

    def test_mkdv_yes(self):
        assert is_hamiltonian(mkdv_operator()).ok

    def test_kdv_regression_against_hand_expansion(self):
        # frozen by hand before the build: for d^3 + 2u d + u_x the
        # self-bracket representative is 8 p p_x p_3x, whose EL vanishes
        kdv = op_local([(sp.Integer(1), 3), (2 * u, 1), (u_x, 0)])
        out = schouten_bracket(kdv, kdv)
        hand_expansion = monomial(8, [p(1, 0), p(1, 1), p(1, 3)])
        assert out.three_vector == hand_expansion
        assert is_hamiltonian(kdv).ok

    def test_local_truncation_no_with_named_coefficient(self):
        table = NonlocalVarTable()
        res = is_hamiltonian(mkdv_operator(with_tail=False), table)
        assert not res.ok and res.skew.ok
        rows = _coefficient_report(res.bracket.el, F, table)
        du_rows = [r for r in rows if r["component"] == "du[1]"]
        assert {"component": "du[1]", "monomial": "p*p_x*p_3x", "coefficient": "16/3"} in du_rows


# -- operator arithmetic, the adjoint and the skew part: the oracle of the encoding's inverse --


def add(P: WNOperator, Q: WNOperator) -> WNOperator:
    if P.fields != Q.fields:
        raise ValueError("operators live over different field sets")
    local = [[P.local[i][j] + Q.local[i][j] for j in range(P.n)] for i in range(P.n)]
    return WNOperator(P.fields, local, P.tails + Q.tails)


def scale(P: WNOperator, value) -> WNOperator:
    K, (c,) = _into(P.field, [value])
    local = [[[(c * _lift(k, K), o) for k, o in row] for row in rows] for rows in P.local]
    return WNOperator(P.fields, local, [Tail(c * _lift(t.constant, K), t.left, t.right) for t in P.tails])


def operator_adjoint(P: WNOperator) -> WNOperator:
    """Formal adjoint: entries transposed through (c d^k)* = (-1)^k d^k c,
    tails through (w d^(-1) z)* = -z d^(-1) w."""
    r = range(P.n)
    rows = [[[(factor * d.terms.get((), d.field.zero), m) for coeff, order in P.local[j][i]
              for factor, d, m in _adjoint_terms(SuperPoly({(): coeff}, P.field), order, P.fields)]
             for j in r] for i in r]
    return WNOperator(P.fields, rows, [Tail(-t.constant, t.right, t.left) for t in P.tails])


def skew_part(P: WNOperator) -> WNOperator:
    return scale(add(P, scale(operator_adjoint(P), -1)), Fraction(1, 2))


def operators_equal(P: WNOperator, Q: WNOperator) -> bool:
    D = add(P, scale(Q, -1))
    return not any(_by_order(row) for rows in D.local for row in rows) and not _tail_witness(D.tails, D.field)


def from_superfunction(S: SuperPoly, fields: Fields, table: NonlocalVarTable) -> WNOperator:
    """Inverse reading of the encoding, via the odd-slot variational tuple: the oracle for
    ``to_superfunction``.

    Half the odd-slot variational derivative of the encoding of P equals
    the skew part of P applied to the dual factors, so reading off the
    coefficients per factor reconstructs exactly skew(P).
    """
    comp = el_nonlocal(S, fields, table)
    n = fields.n
    local: list[list[list]] = [[[] for _ in range(n)] for _ in range(n)]
    tail_vectors: dict[int, list] = {}
    for i in range(1, n + 1):
        v = comp.el.dp[i - 1].scale(Fraction(1, 2))
        for word, coeff in v.terms.items():
            if len(word) == 1 and word[0].kind == "p":
                f = word[0]
                local[i - 1][f.index - 1].append((coeff, f.order))
            elif len(word) == 1 and word[0].kind == "nl":
                tail_vectors.setdefault(word[0].index, [0] * n)[i - 1] = coeff
            elif len(word) == 0:
                raise ValueError("degree-0 component cannot come from an operator")
            else:
                raise ValueError(f"unexpected word {word} in operator reading")
    tails = []
    for ident, vec in sorted(tail_vectors.items()):
        dvec = [0] * n
        for word, coeff in table.density(ident).terms.items():
            if len(word) != 1 or word[0].kind != "p" or word[0].order != 0:
                raise ValueError("tail density is not a zeroth-order covector")
            dvec[word[0].index - 1] = coeff
        tails.append(Tail(1, tuple(vec), tuple(dvec)))
    return WNOperator(fields, local, tails)


class TestRoundTrip:
    def random_operator(self, rng, n_tails=1):
        rows = [
            (random_coeff(rng, F, 1), rng.randint(0, 3))
            for _ in range(rng.randint(1, 2))
        ]
        tails = [
            Tail(
                sp.Rational(rng.randint(1, 3), rng.randint(1, 2)),
                (random_coeff(rng, F, 1),),
                (random_coeff(rng, F, 1),),
            )
            for _ in range(n_tails)
        ]
        return WNOperator(F, [[rows]], tails)

    def test_reading_inverts_encoding_onto_skew_part(self):
        rng = random.Random(43)
        for trial in range(8):
            P = self.random_operator(rng, n_tails=trial % 3)
            table = NonlocalVarTable()
            S = to_superfunction(P, table)
            back = from_superfunction(S, F, table)
            assert operators_equal(back, skew_part(P))

    def test_adjoint_involution_on_operators(self):
        rng = random.Random(47)
        P = self.random_operator(rng, n_tails=2)
        assert operators_equal(operator_adjoint(operator_adjoint(P)), P)

    def test_skew_part_is_skew(self):
        rng = random.Random(53)
        P = self.random_operator(rng)
        assert skew_check(skew_part(P)).ok


# -- independent skew oracle ------------------------------------------------
# P + P* of a scalar operator computed on sympy expressions: entries through
# the Leibniz rule with the jet chain rule, tails through the kernel
# e (w(x) z(y) - z(x) w(y)), every coefficient normalised with sp.cancel.
# It shares no code with the field computation of skew_check.

_JETS = [jet_expr(F, 1, k) for k in range(8)]
_constants = st.builds(sp.Rational, st.integers(-3, 3).filter(bool), st.integers(1, 3))
_monomials = st.sampled_from([1, u, u_x, u**2, u * u_x])
_numerators = st.builds(
    lambda terms: sp.Add(*(c * m for c, m in terms)),
    st.lists(st.tuples(_constants, _monomials), min_size=1, max_size=2),
)
_coefficients = st.builds(
    lambda a, b: a / b, _numerators, st.sampled_from([1, 1 + u, 1 + u**2, 2 + u_x, u])
)


def _oracle_dx(e):
    return sum((sp.diff(e, _JETS[k]) * _JETS[k + 1] for k in range(len(_JETS) - 1)), sp.Integer(0))


def _oracle_skew_witness(rows, tails):
    """The first nonzero entry of P + P*, as skew_check words it, or None."""
    by_order = {}
    for c, k in rows:
        by_order[k] = by_order.get(k, 0) + c
        derivs = [c]
        for _ in range(k):
            derivs.append(_oracle_dx(derivs[-1]))
        for m in range(k + 1):
            by_order[m] = by_order.get(m, 0) + (-1) ** k * comb(k, m) * derivs[k - m]
    for order in sorted(by_order):
        coeff = sp.cancel(by_order[order])
        if coeff != 0:
            return f"local[1,1]: {coeff} * D^{order}"

    def at_y(e):
        return e.xreplace({s: sp.Symbol(f"{s.name}(y)") for s in e.free_symbols})

    kernel = sp.cancel(sum((e * (w * at_y(z) - z * at_y(w)) for e, w, z in tails), sp.Integer(0)))
    return f"tail kernel [1,1]: {kernel}" if kernel != 0 else None


@st.composite
def _scalar_operators(draw):
    """Entries c*D^k (k <= 3) and at most two tails.  The local part and the
    tails are each skew by construction in half the draws: 2c D + D(c) and
    constant multiples of D^3, tails e (w, w)."""
    if draw(st.booleans()):
        rows = [(draw(_constants), 3)]
        for c in draw(st.lists(_coefficients, max_size=2)):
            rows += [(2 * c, 1), (_oracle_dx(c), 0)]
    else:
        rows = draw(st.lists(st.tuples(_coefficients, st.integers(0, 3)), min_size=1, max_size=3))
    if draw(st.booleans()):
        halves = draw(st.lists(st.tuples(_constants, _coefficients), max_size=2))
        tails = [(e, w, w) for e, w in halves]
    else:
        tails = draw(st.lists(st.tuples(_constants, _coefficients, _coefficients), max_size=2))
    return rows, tails


@settings(max_examples=60, deadline=None)
@given(_scalar_operators())
def test_skew_check_matches_expression_oracle(op):
    rows, tails = op
    P = WNOperator(F, [[list(rows)]], [Tail(e, (w,), (z,)) for e, w, z in tails])
    res = skew_check(P)
    witness = _oracle_skew_witness(rows, tails)
    assert res.ok == (witness is None)
    assert res.witness == witness


# Pencil bilinearity: the bracket is a symmetric bilinear form, so the EL
# tuple of [P + lam Q, P + lam Q] is [P,P] + 2 lam [P,Q] + lam^2 [Q,Q].  The
# left side runs the single-product self-bracket, [P,Q] the two-operand path;
# one variable table serves all four brackets.
_VIRASORO = [(sp.Integer(1), 3), (2 * u, 1), (u_x, 0)]
_SECOND = [(1 + u**2, 1), (u * u_x, 0)]


def _pencil_sides(P, Q, lam, table=None):
    table = NonlocalVarTable() if table is None else table
    R = add(P, scale(Q, lam))
    lhs = schouten_bracket(R, R, table).el
    pq = schouten_bracket(P, Q, table).el
    rhs = schouten_bracket(P, P, table).el + pq.scale(2 * lam)
    return lhs, rhs + schouten_bracket(Q, Q, table).el.scale(lam**2), pq


def test_pencil_bilinearity_fixed_pair():
    lhs, rhs, pq = _pencil_sides(op_local(_VIRASORO), op_local(_SECOND), sp.Rational(2, 3))
    assert not pq.is_zero()
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.tuples(_coefficients, st.integers(0, 3)), min_size=1, max_size=2),
    st.lists(st.tuples(_coefficients, st.integers(0, 3)), min_size=1, max_size=2) | st.just(_SECOND),
    _constants,
)
def test_pencil_bilinearity(p_rows, q_rows, lam):
    lhs, rhs, _ = _pencil_sides(op_local(p_rows), op_local(q_rows), lam)
    assert lhs == rhs


# With one tail each, skew local parts whose coefficients depend on u alone
# (a constant multiple of D^3 plus 2c D + D(c)) and tail vectors f(u) u_x, some
# over a polynomial denominator, the densities the four brackets meet either
# integrate or are rational multiples of ones already in the shared table,
# which share their variable (scalar_content), so the identity holds term by
# term in the nonlocal variables.  Outside this family it can fail: a local
# coefficient in u_x can make one formal density the sum of others (see
# ROADMAP.md, robustness oracles).
_TAIL_VECTORS = st.sampled_from(
    [u_x, u * u_x, u**2 * u_x, u_x / u, u_x / (1 + u**2), u * u_x / (2 + u), (1 + u) * u_x / (3 + u**2)]
)
_u_coefficients = st.builds(
    lambda a, b, c: (a + b * u) / c, _constants, _constants, st.sampled_from([1, 1 + u, 1 + u**2, u])
)


@st.composite
def _skew_operators_with_tail(draw):
    c = draw(_u_coefficients)
    rows = [(draw(_constants), 3), (2 * c, 1), (_oracle_dx(c), 0)]
    w = draw(_TAIL_VECTORS)
    return WNOperator(F, [[rows]], [Tail(draw(_constants), (w,), (w,))])


def test_pencil_bilinearity_with_tails_fixed_pair():
    P = WNOperator(F, [[_VIRASORO]], [Tail(sp.Integer(1), (u_x,), (u_x,))])
    Q = WNOperator(F, [[_SECOND]], [Tail(sp.Rational(-2, 3), (u * u_x,), (u * u_x,))])
    lhs, rhs, pq = _pencil_sides(P, Q, sp.Rational(2, 3))
    assert not pq.is_zero()
    assert lhs == rhs


def test_pencil_bilinearity_with_tails_fixed_multiples():
    """Two pairs whose brackets meet rational multiples, over a polynomial denominator, of densities
    already registered (u_x/(2u^2+2) p of r2's u_x/(u^2+1) p in the first): each multiple shares
    its variable, so one table of r1, r2 and y1 serves the four brackets, and the identity holds."""
    local = [(sp.Integer(1), 3), (2 * (u + 1), 1), (u_x, 0)]
    w = u_x / (u**2 + 1)
    pairs = [
        (WNOperator(F, [[local]], [Tail(sp.Integer(1), (u_x,), (u_x,))]),
         WNOperator(F, [[local]], [Tail(sp.Integer(1), (w,), (w,))])),
        (WNOperator(F, [[[(sp.Integer(1), 0)]]], [Tail(sp.Integer(1), (u_x,), (u_x,))]),
         WNOperator(F, [[[(1 / (u + 1), 2)]]], [Tail(sp.Integer(1), (u * u_x,), (u * u_x,))])),
    ]
    for P, Q in pairs:
        table = NonlocalVarTable()
        lhs, rhs, _ = _pencil_sides(P, Q, sp.Rational(1, 2), table)
        assert lhs == rhs
        assert list(table.names().values()) == ["r1", "r2", "y1"]


@settings(max_examples=15, deadline=None)
@given(_skew_operators_with_tail(), _skew_operators_with_tail(), _constants)
def test_pencil_bilinearity_with_tails(P, Q, lam):
    lhs, rhs, _ = _pencil_sides(P, Q, lam)
    assert lhs == rhs


# -- the skew test against the operator P + P* ---------------------------------
# skew_check reads the local entries of P + P* off the odd-slot variational
# tuple of P's encoding and drops each tail e (w, w); the reference builds the
# operator P + P* with the Leibniz rule (operator_adjoint) and reads its
# entries and the kernel of all its tails.  Tails are drawn equal (e w w),
# as a swapped pair e (w, z), e (z, w), which cancels in the kernel only, and
# unequal.

G = Fields(("u1", "u2"))
u1, u2 = jet_expr(G, 1, 0), jet_expr(G, 2, 0)
u1_x, u2_x = jet_expr(G, 1, 1), jet_expr(G, 2, 1)
_g_coefficients = st.builds(
    lambda c, m, d: c * m / d,
    _constants,
    st.sampled_from([1, u1, u2, u1_x, u1 * u2, u2**2, u1 * u2_x]),
    st.sampled_from([1, 1 + u1**2, 2 + u2, u1]),
)
_g_vectors = st.tuples(_g_coefficients | st.just(sp.Integer(0)), _g_coefficients)


def _g_dx(e):
    return sum((sp.diff(e, jet_expr(G, i, k)) * jet_expr(G, i, k + 1) for i in (1, 2) for k in range(4)),
               sp.Integer(0))


@st.composite
def _two_field_operators(draw):
    """Skew local parts in half the draws (2c D + D(c) on the diagonal, a and -a off it),
    random entries of orders 0..2 otherwise, and tails of the three kinds."""
    rows = [[[], []], [[], []]]
    if draw(st.booleans()):
        for i in range(2):
            c = draw(_g_coefficients)
            rows[i][i] += [(2 * c, 1), (_g_dx(c), 0)]
        a = draw(_g_coefficients)
        rows[0][1].append((a, 0))
        rows[1][0].append((-a, 0))
    else:
        for i, j in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=3)):
            rows[i][j].append((draw(_g_coefficients), draw(st.integers(0, 2))))
    tails = []
    for kind in draw(st.lists(st.sampled_from(["equal", "swapped", "unequal"]), max_size=3)):
        e, w, z = draw(_constants), draw(_g_vectors), draw(_g_vectors)
        if kind == "equal":
            tails.append(Tail(e, w, w))
        elif kind == "swapped":
            tails += [Tail(e, w, z), Tail(e, z, w)]
        else:
            tails.append(Tail(e, w, z))
    return WNOperator(G, rows, tails)


def _first_nonzero(D):
    """The first nonzero entry of the operator D, as skew_check words it: the local entries
    summed per order, then the kernel of the tails."""
    for i, j in product(range(D.n), repeat=2):
        row = _by_order(D.local[i][j])
        if row:
            return f"local[{i + 1},{j + 1}]: {_coeff_text(row[0][0])} * D^{row[0][1]}"
    return _tail_witness(D.tails, D.field)


@settings(max_examples=60, deadline=None)
@given(_two_field_operators())
def test_skew_check_matches_the_sum_with_the_adjoint(P):
    witness = _first_nonzero(add(P, operator_adjoint(P)))
    res = skew_check(P)
    assert res.ok == (witness is None)
    assert res.witness == witness


# -- the encoding against the sum of its pieces --------------------------------
# to_superfunction sums every term in one dict; the reference adds the local
# part from from_terms and, per tail, the product W * v of the tail's left
# covector with its variable, scaled by e times the density's content.


def _encoding_as_a_sum(P, table):
    n = P.n
    out = SuperPoly.from_terms(
        (coeff, [p(i, 0), p(j, order)])
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for coeff, order in P.entry(i, j)
    )
    for tail in P.tails:
        density = SuperPoly.from_terms([(tail.right[j - 1], [p(j, 0)]) for j in range(1, n + 1)])
        if density.is_zero():
            continue
        content, reduced = scalar_content(density)
        v = SuperPoly.factor(table.factor(table.register(reduced)))
        W = SuperPoly.from_terms([(tail.left[i - 1], [p(i, 0)]) for i in range(1, n + 1)])
        out = out + (W * v).scale(tail.constant * content)
    return out


def _table_entries(table):
    return [(ident, e.name, e.density.sorted_texts()) for ident, e in table.entries.items()]


@st.composite
def _encoded_operators(draw):
    """One or two fields; no local part in a third of the draws; tails from a pool of three,
    so that densities repeat and tails cancel, with a zero density or a zero left covector."""
    fields = draw(st.sampled_from([F, G]))
    n = fields.n
    coefficients = _coefficients if n == 1 else _g_coefficients
    rows = [[[] for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 2)):
        for _ in range(draw(st.integers(1, 4))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j].append((draw(coefficients), draw(st.integers(0, 2))))
    zero = (sp.Integer(0),) * n
    vector = st.tuples(*[coefficients | st.just(sp.Integer(0))] * n) | st.just(zero)
    pool = [(draw(_constants), draw(vector), draw(vector)) for _ in range(3)]
    tails = [Tail(sign * e, w, z)
             for k, sign in draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=4))
             for e, w, z in (pool[k],)]
    return WNOperator(fields, rows, tails)


@settings(max_examples=80, deadline=None)
@given(_encoded_operators())
def test_encoding_matches_the_sum_of_its_pieces(P):
    ours, theirs = NonlocalVarTable(), NonlocalVarTable()
    S, R = to_superfunction(P, ours), _encoding_as_a_sum(P, theirs)
    assert S.sorted_texts() == R.sorted_texts()
    assert list(S.terms) == list(R.terms)
    assert S.field is R.field
    assert _table_entries(ours) == _table_entries(theirs)


def test_encoding_fixed_cases_match_the_sum_of_its_pieces():
    """A zero density with and without a local part, tails that cancel, and a term that
    comes back after its sum was zero."""
    zero, one = sp.Integer(0), sp.Integer(1)
    cases = [
        WNOperator(F, [[[]]], [Tail(one, (u_x,), (zero,))]),
        WNOperator(F, [[[(u, 1)]]], [Tail(one, (u_x,), (zero,))]),
        WNOperator(F, [[[]]], [Tail(one, (u_x,), (u,)), Tail(-one, (u_x,), (u,))]),
        WNOperator(G, [[[], []], [[], []]], [Tail(one, (u1, u2), (u1, zero)), Tail(-one, (u1, zero), (u1, zero)),
                                             Tail(one, (u1, zero), (2 * u1, zero))]),
        WNOperator(F, [[[]]], []),
    ]
    for P in cases:
        ours, theirs = NonlocalVarTable(), NonlocalVarTable()
        S, R = to_superfunction(P, ours), _encoding_as_a_sum(P, theirs)
        assert (S.sorted_texts(), list(S.terms)) == (R.sorted_texts(), list(R.terms))
        assert S.field is R.field and _table_entries(ours) == _table_entries(theirs)
    empty = to_superfunction(cases[0], NonlocalVarTable())
    assert empty.is_zero() and empty.field is coeff_field(())


class TestSkewWork:
    """The skew test and the encoding build no intermediate operator, and a tail that is
    minus its own adjoint needs no two-point field; counted, so independent of machine speed."""

    SOURCE = """fields u;
operator P {
  local[1,1]: (1 + 2*u^2)*D + 2*u*u_x;
  nonlocal[1,1]: (1/2)*[u*u_x|u*u_x];
  nonlocal[1,1]: (-1/3)*[(1 + u^2)*u_x|(1 + u^2)*u_x];
  nonlocal[1,1]: (-1)*[u^2*u_x|u^2*u_x];
}
"""

    def check(self, tmp_path, capsys):
        f = tmp_path / "first_order_1d.wno"
        f.write_text(self.SOURCE)
        assert main(["check", str(f), "P"]) == 0
        assert "HAMILTONIAN: yes" in capsys.readouterr().out

    def test_symmetric_tails_build_no_two_point_field_and_no_operator(self, monkeypatch, tmp_path, capsys):
        def refuse(field):
            raise AssertionError("a two-point field was built")

        monkeypatch.setattr(wno.algebra, "_two_point", refuse)
        monkeypatch.setattr(wno.schouten, "_two_point", refuse)
        built, inside, post_init, skew = [], [], WNOperator.__post_init__, skew_check

        def counting(self):
            built.append(bool(inside))
            post_init(self)

        def tracked(P, *dp):
            inside.append(P)
            try:
                return skew(P, *dp)
            finally:
                inside.pop()

        monkeypatch.setattr(WNOperator, "__post_init__", counting)
        monkeypatch.setattr(wno.schouten, "skew_check", tracked)
        self.check(tmp_path, capsys)
        assert built == [False]  # the parsed operator, and none inside the skew test

    def test_coefficient_conversions_of_one_check(self, monkeypatch, tmp_path, capsys):
        """4 calls of ``_into``: the parsed operator's one field and the three tail densities'
        ``from_terms``.  A rational scale takes none, and the skew test no batch of P + P*'s entries
        (17 when they did; 50 when the skew test built P* and P + P* as operators and the encoding
        added separately built values)."""
        calls, original = [], wno.algebra._into

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (wno.algebra, wno.geometry, wno.schouten):
            monkeypatch.setattr(module, "_into", counting)
        self.check(tmp_path, capsys)
        assert len(calls) == 4


def test_empty_values_are_over_the_field_of_no_generators():
    assert SuperPoly.zero().field is coeff_field(())
    assert SuperPoly.factor(p(1, 2)).field is coeff_field(())
