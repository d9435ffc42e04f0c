"""Operator encoding, skew test, bracket outcomes, and the verdict."""

import random
from math import comb

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wno.algebra import Fields, SuperPoly, p
from wno.cli import _coefficient_report
from wno.nonlocal_vars import NonlocalVarTable
from wno.schouten import (
    Tail,
    WNOperator,
    from_superfunction,
    is_hamiltonian,
    operator_adjoint,
    operators_equal,
    schouten_bracket,
    skew_check,
    skew_part,
    to_superfunction,
)

from conftest import jet_expr, random_coeff

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
        assert S == SuperPoly.monomial(u_x, [p(1, 0), r])
        assert table.density(1) == SuperPoly.monomial(u_x, [p(1, 0)])

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
        import wno.schouten

        calls = []

        def counted(op):
            calls.append(op)
            return skew_check(op)

        monkeypatch.setattr(wno.schouten, "skew_check", counted)
        res = is_hamiltonian(op_local([(u, 0), (sp.Integer(1), 1)]))
        assert len(calls) == 1
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
        expected = SuperPoly.monomial(
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
            lhs = schouten_bracket(P, Q1 + Q2).el
            rhs = schouten_bracket(P, Q1).el + schouten_bracket(P, Q2).el
            assert lhs == rhs

    def test_quadratic_scaling(self):
        rng = random.Random(41)
        for c in (sp.Integer(2), sp.Rational(-3, 2)):
            P = op_local([(random_coeff(rng, F, 1), rng.randint(0, 3))])
            lhs = schouten_bracket(P.scale(c), P.scale(c)).el
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
        hand_expansion = SuperPoly.monomial(8, [p(1, 0), p(1, 1), p(1, 3)])
        assert out.three_vector == hand_expansion
        assert is_hamiltonian(kdv).ok

    def test_local_truncation_no_with_named_coefficient(self):
        table = NonlocalVarTable()
        res = is_hamiltonian(mkdv_operator(with_tail=False), table)
        assert not res.ok and res.skew.ok
        rows = _coefficient_report(res.bracket.el, F, table)
        du_rows = [r for r in rows if r["component"] == "du[1]"]
        assert {"component": "du[1]", "monomial": "p*p_x*p_3x", "coefficient": "16/3"} in du_rows


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


def _pencil_sides(P, Q, lam):
    table = NonlocalVarTable()
    R = P + Q.scale(lam)
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
# (a constant multiple of D^3 plus 2c D + D(c)) and tail vectors f(u) u_x with
# monomial denominators, the densities the four brackets meet either integrate
# or are rational multiples of ones already in the shared table, so the
# identity holds term by term in the nonlocal variables.  Outside this family
# it can fail: a local coefficient in u_x can make one formal density the sum
# of others, and the table misses a rational multiple whose leading
# coefficient has a polynomial denominator (see ROADMAP.md, robustness oracles).
_TAIL_VECTORS = st.sampled_from([u_x, u * u_x, u**2 * u_x, u_x / u])
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


@settings(max_examples=15, deadline=None)
@given(_skew_operators_with_tail(), _skew_operators_with_tail(), _constants)
def test_pencil_bilinearity_with_tails(P, Q, lam):
    lhs, rhs, _ = _pencil_sides(P, Q, lam)
    assert lhs == rhs
