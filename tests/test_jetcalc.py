"""Total derivative, variational derivatives, linearization and adjoint."""

import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import wno.jetcalc
from wno.algebra import Fields, SuperPoly, p
from wno.jetcalc import (
    LinearizationOp,
    NonlocalInputError,
    adjoint,
    el_sum,
    euler_lagrange,
    linearize,
    total_x,
)
from wno.nonlocal_vars import NonlocalVarTable, integrate_density

from conftest import jet_expr, monomial, random_local, random_local_mixed, scalar

F = Fields(("u",))
u, u_x, u_2x = jet_expr(F, 1, 0), jet_expr(F, 1, 1), jet_expr(F, 1, 2)


class TestTotalX:
    def test_even_scalar(self):
        assert total_x(scalar(u), F) == scalar(u_x)

    def test_unfolds_nonlocal_via_table(self):
        table = NonlocalVarTable()
        rid = table.register(monomial(u_x, [p(1)]))
        r = SuperPoly.factor(table.factor(rid))
        assert total_x(r, F, table) == monomial(u_x, [p(1)])

    def test_unregistered_nonlocal_raises(self):
        table = NonlocalVarTable()
        rid = table.register(monomial(u_x, [p(1)]))
        r = SuperPoly.factor(table.factor(rid))
        with pytest.raises(KeyError):
            total_x(r, F, None)

    def test_odd_word(self):
        a = SuperPoly.from_terms([(1, [p(1, 0), p(1, 1)])])
        expected = SuperPoly.from_terms([(1, [p(1, 0), p(1, 2)])])
        assert total_x(a, F) == expected

    def test_leibniz_random(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_local_mixed(rng, F, max_degree=2, max_order=3)
            b = random_local_mixed(rng, F, max_degree=2, max_order=3)
            lhs = total_x(a * b, F)
            rhs = total_x(a, F) * b + a * total_x(b, F)
            assert (lhs - rhs).is_zero()


class TestVarDeriv:
    def test_classical_density(self):
        a = scalar(u_x**2 / 2)
        assert euler_lagrange(a, F).du[0] == scalar(-u_2x)

    def test_annihilates_divergences(self):
        rng = random.Random(13)
        for _ in range(30):
            a = random_local_mixed(rng, F, max_degree=3, max_order=4)
            d = total_x(a, F)
            assert euler_lagrange(d, F).is_zero()

    def test_known_degree_two_value(self):
        # density p_3x p + (2/3) u^2 p_x p, written in canonical orientation
        L = SuperPoly.from_terms(
            [(-1, [p(1, 0), p(1, 3)]), (sp.Rational(-2, 3) * u**2, [p(1, 0), p(1, 1)])]
        )
        got = euler_lagrange(L, F).dp[0]
        expected = SuperPoly.from_terms(
            [
                (-2, [p(1, 3)]),
                (sp.Rational(-4, 3) * u**2, [p(1, 1)]),
                (sp.Rational(-4, 3) * u * u_x, [p(1, 0)]),
            ]
        )
        assert got == expected

    def test_rejects_nonlocal_input(self):
        table = NonlocalVarTable()
        rid = table.register(monomial(u_x, [p(1)]))
        bad = monomial(u_x, [p(1), table.factor(rid)])
        with pytest.raises(NonlocalInputError):
            euler_lagrange(bad, F)

    def test_euler_lagrange_of_quartic_word(self):
        # u p p_x p_3x: the odd-slot component is a frozen hand value
        T = monomial(u, [p(1, 0), p(1, 1), p(1, 3)])
        el = euler_lagrange(T, F)
        assert el.du[0] == SuperPoly.from_terms([(1, [p(1, 0), p(1, 1), p(1, 3)])])
        u_3x = jet_expr(F, 1, 3)
        expected_dp = SuperPoly.from_terms(
            [
                (-3 * u_2x, [p(1, 0), p(1, 2)]),
                (-2 * u_x, [p(1, 0), p(1, 3)]),
                (-u_3x, [p(1, 0), p(1, 1)]),
                (-3 * u_x, [p(1, 1), p(1, 2)]),
            ]
        )
        assert el.dp[0] == expected_dp

    def test_euler_lagrange_of_zero(self):
        el = euler_lagrange(SuperPoly.zero(), F)
        assert el.is_zero()


def _naive_el_sum(A, fixed, fields, top=3):
    """sum_k (-1)^k d_x^k(dA/dslot_k * fixed) slot by slot, with d_x applied k times to each
    partial: the definition, for jets and jet factors of order at most ``top``."""
    out = {"u": [SuperPoly.zero()] * fields.n, "p": [SuperPoly.zero()] * fields.n}
    for i in range(1, fields.n + 1):
        for k in range(top + 1):
            for slot, part in (("u", A.partial_even(fields.jet(i, k))), ("p", A.partial_odd(p(i, k)))):
                term = part if fixed is None else part * fixed
                for _ in range(k):
                    term = total_x(term, fields)
                out[slot][i - 1] = out[slot][i - 1] + (term if k % 2 == 0 else -term)
    return out["u"], out["p"]


_G = Fields(("u1", "u2"))


class TestVariationalKernel:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([F, _G]), st.booleans())
    def test_el_sum_matches_the_definition(self, rng, fields, with_fixed):
        """One el_sum over one to three pairs is the sum of the definition over the pairs."""
        pairs = []
        for _ in range(rng.randint(1, 3)):
            A = random_local_mixed(rng, fields, max_degree=2, max_order=3)
            fixed = random_local_mixed(rng, fields, max_degree=1, max_order=3) if with_fixed else None
            pairs.append((A, fixed))
        got = el_sum(pairs, fields)
        du, dp = [[sum(xs, SuperPoly.zero()) for xs in zip(*sums)]
                  for sums in zip(*(_naive_el_sum(A, fixed, fields) for A, fixed in pairs))]
        assert all(a == b for a, b in zip(got.du, du)) and all(a == b for a, b in zip(got.dp, dp))

    def test_total_derivatives_per_slot(self, monkeypatch):
        """A slot of top order k takes k total derivatives, not k(k+1)/2, and the integration
        stops at the cheapest nonzero slot: u_x*p fails at the odd slot, with none."""
        calls = []

        def counted(*args):
            calls.append(args)
            return total_x(*args)

        monkeypatch.setattr(wno.jetcalc, "total_x", counted)
        u_3x, u_4x = jet_expr(F, 1, 3), jet_expr(F, 1, 4)
        el_sum([(monomial(u_x * u_2x * u_3x * u_4x, [p(1)]), None)], F)
        assert len(calls) == 4
        calls.clear()
        assert not integrate_density(monomial(u_x, [p(1)]), F).ok and not calls


    def test_partials_on_demand(self, monkeypatch):
        """A slot group's partials are taken when its Horner loop reaches it: the integration
        of u*u_x*p stops at the odd slot, top order 0, before any partial by a jet."""
        calls, partial_even = [], SuperPoly.partial_even
        monkeypatch.setattr(SuperPoly, "partial_even",
                            lambda a, sym: calls.append(sym) or partial_even(a, sym))
        assert not integrate_density(monomial(u * u_x, [p(1)]), F).ok
        assert calls == []


class TestLinearize:
    def test_linearize_u_x_is_shift(self):
        op = linearize(scalar(u_x), F)
        assert set(op.rows) == {("u", 1)}
        [(coeff, order)] = op.rows[("u", 1)]
        assert order == 1 and coeff == scalar(1)

    def test_linearize_square_is_multiplication(self):
        op = linearize(scalar(u**2), F)
        [(coeff, order)] = op.rows[("u", 1)]
        assert order == 0 and coeff == scalar(2 * u)

    def test_adjoint_of_shift(self):
        op = linearize(scalar(u_x), F)
        [(coeff, order)] = adjoint(op).rows[("u", 1)]
        assert order == 1 and coeff == scalar(-1)

    def test_adjoint_of_multiplication(self):
        op = linearize(scalar(u**2 / (1 + u)), F)
        adj = adjoint(op)
        assert adj.equals(op)

    def test_adjoint_involution_and_power_signs(self):
        rng = random.Random(17)
        for _ in range(15):
            a = random_local_mixed(rng, F, max_degree=2, max_order=3)
            op = linearize(a, F)
            assert adjoint(adjoint(op)).equals(op)
        for k in range(4):
            row = {("u", 1): [(scalar(1), k)]}
            op = LinearizationOp(F, row)
            expected = LinearizationOp(
                F, {("u", 1): [(scalar((-1) ** k), k)]}
            )
            assert adjoint(op).equals(expected)

    def test_adjoint_linearize_evaluates_to_euler_lagrange(self):
        rng = random.Random(19)
        for _ in range(40):
            degree = rng.choice([1, 2])
            a = random_local(rng, F, degree, max_order=4, terms=2)
            lhs = adjoint(linearize(a, F)).apply_to_one()
            rhs = euler_lagrange(a, F)
            assert lhs == rhs


class TestMultiComponent:
    def test_var_deriv_per_field(self):
        G = Fields(("u1", "u2"))
        v = jet_expr(G, 2, 0)
        a = monomial(v, [p(1, 0), p(2, 1)])
        assert euler_lagrange(a, G).du[1] == SuperPoly.from_terms([(1, [p(1, 0), p(2, 1)])])
        el = euler_lagrange(a, G)
        assert len(el.du) == 2 and len(el.dp) == 2
