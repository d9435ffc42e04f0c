"""Nonlocal variable registry, density integration, tail-aware EL rules."""

import contextlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.integrals.rationaltools import ratint

import wno.algebra
import wno.cli
import wno.jetcalc
import wno.nonlocal_vars
import wno.schouten
from wno.algebra import Fields, SuperPoly, _top_order_linear, coeff_field, p
from wno.cli import main
from wno.dsl import parse
from wno.jetcalc import el_sum, euler_lagrange, total_x
from wno.nonlocal_vars import (
    NonlocalVarTable,
    TailTerm,
    UnsupportedStructureError,
    _antiderivative,
    el_nonlocal,
    integrate_density,
    reduce_depth,
    scalar_content,
    split_tails,
)
from wno.schouten import is_hamiltonian, to_superfunction

from conftest import jet_expr, monomial, random_local, random_local_mixed, scalar

CASES = Path(__file__).resolve().parent.parent / "cases"
F = Fields(("u",))
u, u_x, u_2x = jet_expr(F, 1, 0), jet_expr(F, 1, 1), jet_expr(F, 1, 2)


def as_superpoly(term: TailTerm, table: NonlocalVarTable) -> SuperPoly:
    """The summand a tail term stands for: its prefactor times its nonlocal factors."""
    out = term.prefactor
    for ident in term.suffix:
        out = out * SuperPoly.factor(table.factor(ident))
    return out


def make_table():
    table = NonlocalVarTable()
    rid = table.register(monomial(u_x, [p(1)]))
    return table, rid


class TestRegistry:
    def test_deduplication(self):
        table, rid = make_table()
        again = table.register(monomial(u_x, [p(1)]))
        assert again == rid

    def test_distinct_densities_get_distinct_ids(self):
        table, rid = make_table()
        other = table.register(monomial(u**2, [p(1)]))
        assert other != rid
        assert table.entries[other].level == 1

    def test_level_two_registration(self):
        table, rid = make_table()
        r = SuperPoly.factor(table.factor(rid))
        deg2 = (monomial(u, [p(1, 1)]) * r).canonical()
        ident = table.register(deg2, formal=True)
        assert table.entries[ident].level == 2
        assert table.entries[ident].parity == 0  # two odd factors

    def test_even_degree_zero_density_rejected(self):
        table = NonlocalVarTable()
        with pytest.raises(ValueError):
            table.register(scalar(u_x))


class TestIntegrateDensity:
    def test_odd_pair(self):
        Y = monomial(-1, [p(1, 1), p(1, 3)])
        res = integrate_density(Y, F)
        assert res.ok
        assert res.antiderivative == monomial(-1, [p(1, 1), p(1, 2)])

    def test_nonexact_fails_with_residual(self):
        Y = SuperPoly.from_terms([(1, [p(1, 0), p(1, 1)])])
        res = integrate_density(Y, F)
        assert not res.ok
        assert res.residual == Y
        # the failure is forced: the odd-slot variational derivative is 2 p_x
        assert euler_lagrange(Y, F).dp[0] == monomial(2, [p(1, 1)])

    @pytest.mark.parametrize(
        "piece", [sp.log(u), sp.atan(u), ratint(1 / (u**3 + u + 1), u, real=False)]
    )
    def test_non_rational_piece_refused(self, piece):
        # an antiderivative piece must convert into the coefficient field
        with pytest.raises(ValueError):
            scalar(piece)

    def test_rational_piece_accepted(self):
        piece = ratint(1 / (u + 1) ** 2, u, real=False)
        assert scalar(piece) == scalar(-1 / (u + 1))

    def test_nonlocal_input_fails(self):
        table, rid = make_table()
        Y = monomial(1, [p(1, 1), table.factor(rid)])
        assert not integrate_density(Y, F).ok

    def test_back_substitution_on_random_divergences(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(40):
            f = random_local_mixed(rng, F, max_degree=3, max_order=3)
            f = f - f.degree_part(0)
            res = integrate_density(total_x(f, F), F)
            assert res.ok and res.antiderivative == f
            checked += 1
        assert checked == 40


class TestElNonlocal:
    def test_degree_two_tail(self):
        # N = u_x p r with r_x = u_x p: the self-dual tail doubles both slots
        table, rid = make_table()
        N = monomial(u_x, [p(1), table.factor(rid)])
        res = el_nonlocal(N, F, table)
        r = table.factor(rid)
        assert res.el.du[0] == monomial(-2, [p(1, 1), r])
        assert res.el.dp[0] == monomial(2 * u_x, [r])
        assert not res.formal_used

    def test_degree_three_single_tail(self):
        # T = -p_x p_3x r: the prefactor integrates, no formal variables
        table, rid = make_table()
        r = table.factor(rid)
        T = monomial(-1, [p(1, 1), p(1, 3), r])
        res = el_nonlocal(T, F, table)
        assert not res.formal_used
        assert res.el.du[0] == SuperPoly.from_terms(
            [(-1, [p(1, 0), p(1, 1), p(1, 3)])]
        )
        u_3x = jet_expr(F, 1, 3)
        expected_dp = SuperPoly.from_terms(
            [
                (3 * u_2x, [p(1, 0), p(1, 2)]),
                (2 * u_x, [p(1, 0), p(1, 3)]),
                (u_3x, [p(1, 0), p(1, 1)]),
                (3 * u_x, [p(1, 1), p(1, 2)]),
            ]
        )
        assert res.el.dp[0] == expected_dp

    def test_cancellation_of_local_against_tail(self):
        # (u p p_x - p_x r) p_3x scaled: the two EL tuples cancel exactly
        table, rid = make_table()
        r = table.factor(rid)
        T = SuperPoly.from_terms(
            [
                (sp.Rational(16, 3) * u, [p(1, 0), p(1, 1), p(1, 3)]),
                (sp.Rational(-16, 3), [p(1, 1), p(1, 3), r]),
            ]
        )
        res = el_nonlocal(T, F, table)
        assert res.el.is_zero()
        assert not res.formal_used

    def test_three_nonlocal_factors_unsupported(self):
        table, rid = make_table()
        r = table.factor(rid)
        s = table.factor(table.register(monomial(u**2, [p(1)])))
        t = table.factor(table.register(monomial(u_2x, [p(1)])))
        bad = monomial(1, [r, s, t])
        with pytest.raises(UnsupportedStructureError):
            el_nonlocal(bad, F, table)

    def test_nonexact_prefactor_flags_formal_use(self):
        table, rid = make_table()
        r = table.factor(rid)
        T = monomial(u, [p(1, 0), p(1, 1), r])
        res = el_nonlocal(T, F, table)
        assert res.formal_used


def _per_pair_el(S: SuperPoly, fields: Fields, table: NonlocalVarTable):
    """The tail rules written out with one ``el_sum`` per ``(A, fixed)`` pair, the results added:
    per odd degree d of a one-tail prefactor part A, el_sum(A, v) + (-1)^(d+1) el_sum(Z, a), a the
    antiderivative of A; a two-tail term by depth reduction, else by its three-sum fallback."""
    local, tails = split_tails(S, table)
    el, formal = el_sum([(local, None)], fields), False

    def one_tail(prefactor, ident):
        nonlocal el, formal
        v, Z = SuperPoly.factor(table.factor(ident)), table.density(ident)
        for degree in sorted(prefactor.odd_degrees()):
            A = prefactor.degree_part(degree)
            anti = _antiderivative(A, fields, table)
            formal = formal or anti.formal
            sign = (-1) ** (degree + 1)
            el = el + el_sum([(A, v)], fields, table) + el_sum([(Z, anti.value)], fields, table).scale(sign)

    for term in tails:
        if len(term.suffix) == 1:
            one_tail(term.prefactor, *term.suffix)
            continue
        reduced = reduce_depth(term, table, fields)
        if reduced is not None:
            for t in reduced:
                one_tail(t.prefactor, *t.suffix)
            continue
        (id1, id2), B = term.suffix, term.prefactor
        v1, v2 = SuperPoly.factor(table.factor(id1)), SuperPoly.factor(table.factor(id2))
        q1, q2 = _antiderivative(B * v1, fields, table), _antiderivative(B * v2, fields, table)
        formal = formal or q1.formal or q2.formal
        el = el + el_sum([(B, v1 * v2)], fields, table)
        el = el + el_sum([(table.density(id1), q2.value)], fields, table)
        el = el + el_sum([(table.density(id2), q1.value)], fields, table).scale(-1)
    return el, formal


def _texts(el):
    return [x.sorted_texts() for x in (*el.du, *el.dp)]


def _tail_sums(w: str, z: str, monkeypatch):
    """el_nonlocal of the encoding of the tail [w|z], its table and the number of pairs it passes
    to its one el_sum call, and the per-pair sums' EL tuple, table and formal flag."""
    P = parse(f"fields u; operator P {{ nonlocal[1,1]: 1*[{w}|{z}]; }}").operators["P"]
    expected_table = NonlocalVarTable()
    expected, formal = _per_pair_el(to_superfunction(P, expected_table), F, expected_table)
    calls = []
    monkeypatch.setattr(wno.nonlocal_vars, "el_sum", lambda *args: calls.append(args) or el_sum(*args))
    table = NonlocalVarTable()
    comp = el_nonlocal(to_superfunction(P, table), F, table)
    assert len(calls) == 1
    assert _texts(comp.el) == _texts(expected)
    assert table.names() == expected_table.names()
    assert comp.formal_used == formal
    return table, len(calls[0][0])


@pytest.mark.parametrize("c", ["1", "2", "(-1/3)"])
@pytest.mark.parametrize("w", ["u_x", "(1+u^2)*u_x"])
def test_symmetric_tail_is_summed_once(w, c, monkeypatch):
    """For a tail [w|c w] the prefactor's antiderivative is c v, and the pair (Z, c v) sums as the
    pair (A, v): one pair gives the two-sum formula's EL tuple, names and formal flag."""
    table, pairs = _tail_sums(w, f"{c}*{w}", monkeypatch)
    assert pairs == 1
    assert table.names() == {1: "r1"}


def test_asymmetric_tail_takes_both_sums(monkeypatch):
    table, pairs = _tail_sums("u_x", "u^2*u_x", monkeypatch)
    assert pairs == 2
    assert table.names() == {1: "r1", 2: "y1"}


def test_tail_with_polynomial_denominator_multiple_is_summed_once(monkeypatch, tmp_path, capsys):
    """u_x/(2u^2+2) p is r1's density u_x/(u^2+1) p over 2, a multiple whose leading coefficient
    has a polynomial denominator: its antiderivative is r1/2, not a second variable, so the
    one-sum rule applies, and the verdict stands."""
    w, z = "u_x/(2*u^2+2)", "u_x/(u^2+1)"
    table, pairs = _tail_sums(w, z, monkeypatch)
    assert pairs == 1
    assert table.names() == {1: "r1"}
    f = tmp_path / "tail.wno"
    f.write_text(f"fields u; operator P {{ nonlocal[1,1]: 1*[{w}|{z}]; }}")
    assert main(["check", str(f), "P"]) == 0
    assert "HAMILTONIAN: yes" in capsys.readouterr().out


def _random_tail_value(seed: int, fields: Fields, two_tail: str):
    """A random value and its table: a local part, a one-tail term on each of two registered tails
    (its prefactor at times holding a rational multiple of the tail's own density) and, unless
    ``two_tail`` is "none", a two-tail term whose prefactor is exact ("reduced") or is not
    ("fallback": it holds u^3 p, whose odd-slot EL no polynomial of degree two in the jets cancels)."""
    rng = random.Random(seed)
    table, ids = NonlocalVarTable(), []
    while len(ids) < 2:
        Z = random_local(rng, fields, 1, max_order=2)
        if Z and (ident := table.register(scalar_content(Z)[1])) not in ids:
            ids.append(ident)
    v = [SuperPoly.factor(table.factor(ident)) for ident in ids]
    value = random_local_mixed(rng, fields, max_degree=3, max_order=2)
    for ident, vi in zip(ids, v):
        prefactor = random_local(rng, fields, rng.choice([1, 2]), max_order=2)
        if rng.random() < 0.5:
            prefactor = prefactor + table.density(ident).scale(rng.choice([1, 2, Fraction(-1, 3)]))
        value = value + prefactor * vi
    if two_tail == "reduced":
        value = value + total_x(random_local(rng, fields, 1, max_order=1), fields) * v[0] * v[1]
    elif two_tail == "fallback":
        B = random_local(rng, fields, 1, max_order=2) + monomial(jet_expr(fields, 1) ** 3, [p(1)])
        value = value + B * v[0] * v[1]
    return value, table


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([F, Fields(("u1", "u2"))]),
       st.sampled_from(["none", "reduced", "fallback"]))
def test_one_el_sum_is_the_sum_of_per_pair_sums(seed, fields, two_tail):
    """el_nonlocal's one el_sum over every pair of a value gives the per-pair sums added, with the
    same variable table and formal flag: on one-tail terms, depth-reduced two-tail terms and the
    two-tail fallback, which alone registers level-2 variables."""
    value, table = _random_tail_value(seed, fields, two_tail)
    expected_value, expected_table = _random_tail_value(seed, fields, two_tail)
    comp = el_nonlocal(value, fields, table)
    expected, formal = _per_pair_el(expected_value, fields, expected_table)
    assert _texts(comp.el) == _texts(expected)
    assert table.names() == expected_table.names()
    assert comp.formal_used == formal
    assert any(e.level == 2 for e in table.entries.values()) == (two_tail == "fallback")


def test_registered_local_densities_do_not_integrate():
    """What lets ``_antiderivative`` read the table before it integrates: every local density that
    the checks of the worked examples register is a tail's covector or a failed integration."""
    local = []
    for path in sorted(CASES.glob("*.wno")):
        doc = parse(path.read_text())
        for P in [*doc.operators.values(), *(m.operator for m in doc.firstorder.values())]:
            table = NonlocalVarTable()
            is_hamiltonian(P, table)
            local += [(e.density, doc.fields) for e in table.entries.values() if e.density.is_local()]
    assert len(local) > 10
    assert not any(integrate_density(d, fields).ok for d, fields in local)


def test_symmetric_tail_prefactor_is_not_integrated(monkeypatch, tmp_path, capsys):
    """The prefactor of a tail e*[w|w] is e times the tail's own registered density: its
    antiderivative is read from the table, with no integration."""
    calls = []
    monkeypatch.setattr(wno.nonlocal_vars, "integrate_density",
                        lambda Y, fields: calls.append(Y.sorted_texts()) or integrate_density(Y, fields))
    f = tmp_path / "kn.wno"
    f.write_text("fields u; operator P { nonlocal[1,1]: (-2/3)*[(1 + u^2)*u_x|(1 + u^2)*u_x]; }")
    assert main(["check", str(f), "P"]) == 0
    capsys.readouterr()
    assert monomial((1 + u**2) * u_x, [p(1)]).sorted_texts() not in calls


def substitute_nonlocals(a: SuperPoly, mapping: dict) -> SuperPoly:
    """Replace nonlocal factors by local values, preserving word order."""
    out = SuperPoly.zero()
    for word, coeff in a.terms.items():
        term = SuperPoly({(): coeff}, coeff.field)
        for f in word:
            term = term * (mapping[f.index] if f.kind == "nl" else SuperPoly.factor(f))
        out = out + term
    return out


class TestSplitAndReduce:
    def test_split_groups_by_suffix(self):
        table, rid = make_table()
        sid = table.register(monomial(u**2, [p(1)]))
        r, s = table.factor(rid), table.factor(sid)
        T = (
            monomial(u, [p(1, 0), p(1, 1)])
            + monomial(u_x, [p(1, 1), r])
            + monomial(2, [p(1, 0), r, s])
        )
        local, tails = split_tails(T, table)
        assert local == monomial(u, [p(1, 0), p(1, 1)])
        suffixes = {t.suffix for t in tails}
        assert suffixes == {(rid,), (rid, sid)}

    def test_reduce_depth_identity(self):
        # B = d_x(u p), so  B*r*s == d_x(u p r s) - (u p) Z_r s - (u p) r Z_s
        table = NonlocalVarTable()
        rid = table.register(monomial(u, [p(1, 1)]))
        sid = table.register(
            monomial(u_x, [p(1, 1)]) + monomial(u, [p(1, 2)])
        )
        r, s = table.factor(rid), table.factor(sid)
        B = monomial(u_x, [p(1, 0)]) + monomial(u, [p(1, 1)])
        term = TailTerm(B, (rid, sid))
        reduced = reduce_depth(term, table, F)
        assert reduced is not None
        assert all(len(t.suffix) <= 1 for t in reduced)
        y = monomial(u, [p(1, 0)])
        lhs = as_superpoly(term, table)
        rhs = SuperPoly.zero()
        for t in reduced:
            rhs = rhs + as_superpoly(t, table)
        divergence = total_x(y * SuperPoly.factor(r) * SuperPoly.factor(s), F, table)
        assert (lhs - rhs - divergence).is_zero()

    def test_reduce_depth_nonexact_flags(self):
        table, rid = make_table()
        sid = table.register(monomial(u**2, [p(1)]))
        term = TailTerm(monomial(u_x, [p(1)]), (rid, sid))
        assert reduce_depth(term, table, F) is None and len(table.entries) == 2
        # the fallback rule registers a level-2 variable for prefactor * first factor
        el_nonlocal(as_superpoly(term, table), F, table)
        assert any(e.level == 2 and e.formal for e in table.entries.values())

    def test_reduce_depth_zero_prefactor(self):
        table, rid = make_table()
        sid = table.register(monomial(u**2, [p(1)]))
        term = TailTerm(SuperPoly.zero(), (rid, sid))
        assert reduce_depth(term, table, F) == []

    def test_metric_operator_brackets_have_no_two_tail_terms(self):
        # Self-dual tails (left vector == right vector) make the cross terms
        # with two nonlocal factors cancel pairwise in the symmetric bracket.
        import sympy as sp
        from wno.geometry import MetricData, build_operator
        from wno.schouten import schouten_bracket

        G = Fields(("u1", "u2"))
        eye = [[sp.Integer(1), sp.Integer(0)], [sp.Integer(0), sp.Integer(1)]]
        P = build_operator(MetricData(G, eye, eye))
        Q = build_operator(
            MetricData(G, eye, [[sp.Integer(0), sp.Integer(1)], [sp.Integer(1), sp.Integer(0)]])
        )
        table = NonlocalVarTable()
        out = schouten_bracket(P, Q, table)
        _, tails = split_tails(out.three_vector, table)
        assert all(len(t.suffix) == 1 for t in tails)

    def test_bracket_generated_two_tail_terms(self):
        # Cross bracket of two pure-tail operators with distinct densities:
        # genuine two-tail terms survive.  Their prefactor happens to be an
        # exact density, so depth reduction applies and the direct rule must
        # agree with it exactly.
        import sympy as sp
        from wno.schouten import Tail, WNOperator, schouten_bracket

        u = jet_expr(F, 1, 0)
        P = WNOperator(F, [[[]]], [Tail(sp.Integer(1), (u_x,), (u_x,))])
        Q = WNOperator(F, [[[]]], [Tail(sp.Integer(1), (u**2,), (u**2,))])
        table = NonlocalVarTable()
        out = schouten_bracket(P, Q, table)
        _, tails = split_tails(out.three_vector, table)
        two_tail = [t for t in tails if len(t.suffix) == 2]
        assert two_tail
        for term in two_tail:
            before = el_nonlocal(as_superpoly(term, table), F, table)
            reduced = reduce_depth(term, table, F)
            assert reduced is not None
            assert all(len(t.suffix) < 2 for t in reduced)
            total = SuperPoly.zero()
            for t in reduced:
                total = total + as_superpoly(t, table)
            after = el_nonlocal(total, F, table)
            assert before.el == after.el

    def test_two_tail_fallback_rule_against_local_oracle(self):
        # Suffix densities are exact with explicit local antiderivatives
        # while the prefactor is not, so the formal fallback rule fires.
        # Substituting the honest local values into its output must
        # reproduce the EL tuple of the honest local density.
        table = NonlocalVarTable()
        eta_r = monomial(u, [p(1, 0)])
        eta_s = monomial(u**2, [p(1, 1)])
        rid = table.register(total_x(eta_r, F))
        sid = table.register(total_x(eta_s, F))
        B = monomial(u, [p(1, 2)])
        T = B * SuperPoly.factor(table.factor(rid)) * SuperPoly.factor(table.factor(sid))
        comp = el_nonlocal(T, F, table)
        assert comp.formal_used
        honest = {rid: eta_r, sid: eta_s}
        oracle = euler_lagrange((B * eta_r * eta_s).canonical(), F)
        assert not (B * eta_r * eta_s).is_zero()
        for got, want in zip(comp.el.du + comp.el.dp, oracle.du + oracle.dp):
            assert substitute_nonlocals(got, honest) == want

    def test_two_tail_el_agrees_with_reduction(self):
        # Exact prefactor and exact suffix densities: both EL routes are
        # concrete (every formal variable appears only differentiated) and
        # must agree exactly.
        table = NonlocalVarTable()
        rid = table.register(
            monomial(u_x, [p(1, 0)]) + monomial(u, [p(1, 1)])
        )
        sid = table.register(
            monomial(2 * u * u_x, [p(1, 0)])
            + monomial(u**2, [p(1, 1)])
        )
        B = monomial(u_2x, [p(1, 0)]) + monomial(u_x, [p(1, 1)])
        term = TailTerm(B, (rid, sid))
        direct = el_nonlocal(as_superpoly(term, table), F, table)
        reduced = reduce_depth(term, table, F)
        assert reduced is not None
        total = SuperPoly.zero()
        for t in reduced:
            total = total + as_superpoly(t, table)
        via_reduction = el_nonlocal(total, F, table)
        assert direct.el == via_reduction.el


# -- the one-tail bookkeeping: the top-order test, structural table keys, no rendering --

_G = Fields(("u1", "u2"))


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([F, _G]),
       st.sampled_from(["1", "1 + {0}**2", "1 + {0}_x**2", "{0}_2x"]), st.booleans())
def test_top_order_test_keeps_every_exact_density(rng, fields, denominator, planted):
    """``_top_order_linear`` never rejects ``total_x(eta)`` of a local eta (jets up to order 3, over
    a denominator in the first field's jets), and a density it rejects is not exact."""
    den = sp.sympify(denominator.format(fields.names[0]))
    eta = random_local_mixed(rng, fields, max_degree=2, max_order=3).scale(1 / den)
    Y = total_x(eta, fields) if planted else eta
    assert _top_order_linear(Y, fields) or not (planted or euler_lagrange(Y, fields).is_zero())


def test_top_order_test_rejects_what_no_total_derivative_is():
    """A top jet squared or in a denominator, two top-order dual factors in one word, a top jet
    times a top dual factor and a nonzero order-0 density fail; exact or not, an affine density
    and a constant pass."""
    p1, p2 = p(1, 2), p(2, 2)
    refused = [scalar(u_x**2), scalar(u / u_x), monomial(u_x, [p(1, 1)]), monomial(u**2, [p(1)]), scalar(u)]
    for Y, fields in [(Y, F) for Y in refused] + [(monomial(1, [p1, p2]), _G)]:
        assert not _top_order_linear(Y, fields) and not euler_lagrange(Y, fields).is_zero()
    for Y in (monomial(1, [p(1, 0), p(1, 2)]), scalar(u_2x / (1 + u_x**2)), monomial(u, [p(1, 1)]), scalar(3)):
        assert _top_order_linear(Y, F)


# -- the antiderivative from the Horner chain: eta = H / d, with no search --

_DENOMINATORS = st.sampled_from(["1", "1 + {0}**2", "1 + {0}_x**2", "{0}_2x"])


def _odd_eta(rng, fields: Fields, denominator: str) -> SuperPoly:
    """A random local value of odd degrees 1 to 3, jets up to order 3, over a denominator in the
    first field's jets."""
    eta = random_local_mixed(rng, fields, max_degree=3, max_order=3)
    return (eta - eta.degree_part(0)).scale(1 / sp.sympify(denominator.format(fields.names[0])))


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([F, _G]), _DENOMINATORS)
def test_planted_antiderivative_is_found_exactly(rng, fields, denominator):
    """The antiderivative of ``total_x(eta)`` is eta itself: D has no kernel in odd degree 1 or
    more, so the chain's H / d is the one antiderivative there is."""
    eta = _odd_eta(rng, fields, denominator)
    assume(eta)
    result = integrate_density(total_x(eta, fields), fields)
    assert result.ok and result.antiderivative == eta


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([F, _G]), _DENOMINATORS)
def test_integration_fails_exactly_where_the_variational_derivative_is_not_zero(rng, fields, denominator):
    """On a density that is not planted, the verdict is ``euler_lagrange``'s, a failure keeps Y as
    its residual, and an antiderivative found is one."""
    Y = _odd_eta(rng, fields, denominator)
    assume(Y)
    result = integrate_density(Y, fields)
    assert result.ok == euler_lagrange(Y, fields).is_zero()
    assert result.residual == (None if result.ok else Y)
    assert not result.ok or total_x(result.antiderivative, fields) == Y


def test_even_top_variable_takes_no_sympy_integration(monkeypatch):
    """The top variable of D((u_x/(1+u)^2) p) is the jet u_2x, whose coefficient once went to
    sympy's ``ratint``; the antiderivative now comes from the Horner chain alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("sympy's ratint was called")

    monkeypatch.setattr(sp.integrals.rationaltools, "ratint", refuse)
    eta = monomial(u_x / (1 + u) ** 2, [p(1)])
    result = integrate_density(total_x(eta, F), F)
    assert result.ok and result.antiderivative == eta


@pytest.mark.parametrize("Y", [scalar(u_x), scalar(u_x) + monomial(u, [p(1, 1)])])
def test_density_with_a_term_free_of_odd_factors_is_refused(Y):
    with pytest.raises(UnsupportedStructureError):
        integrate_density(Y, F)


def _register_all(densities):
    table = NonlocalVarTable()
    ids = [table.register(d, formal=formal) for d, formal in densities]
    found = [table.lookup(d) for d, _ in densities]
    return ids, found, [(e.name, e.formal, e.level) for e in table.entries.values()]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(st.booleans(), min_size=4, max_size=8))
def test_structural_keys_dedup_as_text_keys(rng, formals):
    """Keys by words and packed coefficients give the ids, names and formal flags that keys by
    ``sorted_texts`` give, on equal densities placed in two fields and on unequal ones, among
    them ``u1 p1`` and ``u2 p1``, whose one coefficient packs alike in their own fields."""
    wide = coeff_field([_G.jet(i, k) for i in (1, 2) for k in range(4)])
    pool = [monomial(jet_expr(_G, 1), [p(1)]), monomial(jet_expr(_G, 2), [p(1)])]
    pool += [d for d in (random_local(rng, _G, rng.choice([1, 2]), max_order=2) for _ in range(3)) if d]
    densities = []
    for formal in formals:
        d = rng.choice(pool)
        d = d.set_field(wide) if rng.random() < 0.5 else d
        densities.append((d.scale(rng.choice([1, -1, 2])) if rng.random() < 0.3 else d, formal))
    structural = _register_all(densities)
    with patch.object(wno.nonlocal_vars, "_packed_key", lambda d: tuple(d.sorted_texts())):
        assert _register_all(densities) == structural


def test_perturbed_affinor_densities_are_refused_before_the_variations():
    """The prefactor of each perturbed-affinor block's tail term is not exact, and the top-order
    test says so: ``integrate_density`` returns with no call of ``_variations``."""
    results, inside = [], []
    variations = wno.jetcalc._variations

    def integrate(Y, fields):
        inside.append(Y)
        result = integrate_density(Y, fields)
        inside.clear()
        results.append(result.ok)
        return result

    def spy(*args):
        assert not inside, "integrate_density called _variations"
        return variations(*args)

    # each module calls the name it holds: ``el_sum`` jetcalc's, ``integrate_density`` its own
    with (patch.object(wno.nonlocal_vars, "integrate_density", integrate),
          patch.object(wno.jetcalc, "_variations", spy), patch.object(wno.nonlocal_vars, "_variations", spy)):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", str(CASES / "curvature.wno"), "perturbed", "--el"]) == 1
            assert main(["check", str(CASES / "firstorder.wno"), "spherebad", "--el"]) == 1
    assert results == [False, False]


def test_nonlocal_vars_renders_nothing():
    """Across every ``check``, ``bracket`` and ``geom`` on ``cases/``, no coefficient is rendered
    while a function of ``nonlocal_vars`` runs: only ``cli`` renders."""
    seen = []

    def spying(render):
        def spy(*args):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_globals.get("__name__") == "wno.nonlocal_vars":
                    seen.append(frame.f_code.co_name)
                frame = frame.f_back
            return render(*args)
        return spy

    patches = [patch.object(SuperPoly, "sorted_texts", spying(SuperPoly.sorted_texts))]
    patches += [patch.object(module, "_coeff_text", spying(module._coeff_text))
                for module in (wno.algebra, wno.schouten, wno.cli) if hasattr(module, "_coeff_text")]
    commands = 0
    with contextlib.ExitStack() as stack, contextlib.redirect_stdout(io.StringIO()):
        for active in patches:
            stack.enter_context(active)
        for path in sorted(CASES.glob("*.wno")):
            doc = parse(path.read_text())
            names = [*doc.operators, *doc.firstorder]
            argvs = [["check", str(path), a, "--el"] for a in names] + [["geom", str(path), a] for a in doc.firstorder]
            argvs += [["bracket", str(path), a, b] for a in names for b in names]
            for argv in argvs:
                assert main(argv) in (0, 1)
                commands += 1
    assert commands > 50 and not seen
