"""Metric-data geometry, the condition system, and the bracket cross-check."""

import itertools

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wno.algebra
import wno.geometry
from wno.algebra import Fields, _by_order, _Frac
from wno.cli import main
from wno.geometry import (
    MetricData,
    SingularMetricError,
    build_operator,
    check_conditions,
    derive_geometry,
)
from wno.schouten import is_hamiltonian, skew_check

import conftest
from conftest import jet_expr

F1 = Fields(("u",))
F2 = Fields(("u1", "u2"))
F3 = Fields(("u1", "u2", "u3"))

ZERO = sp.Integer(0)
ONE = sp.Integer(1)


def as_expr(tree):
    """A nested list of field elements as the same nesting of sympy expressions."""
    return [as_expr(t) for t in tree] if isinstance(tree, list) else conftest.as_expr(tree)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(n):
    return [[ZERO] * n for _ in range(n)]


def sphere_metric():
    u1, u2 = jet_expr(F2, 1, 0), jet_expr(F2, 2, 0)
    h = 1 + (u1**2 + u2**2) / 4
    return MetricData(F2, [[h**2, ZERO], [ZERO, h**2]], identity(2))


# -- independent oracle ----------------------------------------------------
# Straight-line textbook formulas, written against sympy only, used to pin
# the curvature conventions before trusting the library implementation.


def oracle_curvature(g_lower: sp.Matrix, coords):
    n = len(coords)
    g_inv = g_lower.inv()

    def d(expr, k):
        return sp.diff(expr, coords[k])

    gamma = [
        [
            [
                sp.cancel(
                    sp.Rational(1, 2)
                    * sum(
                        g_inv[i, s]
                        * (d(g_lower[s, j], k) + d(g_lower[s, k], j) - d(g_lower[j, k], s))
                        for s in range(n)
                    )
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    riemann = [
        [
            [
                [
                    sp.cancel(
                        d(gamma[i][l][j], k)
                        - d(gamma[i][k][j], l)
                        + sum(
                            gamma[i][k][s] * gamma[s][l][j]
                            - gamma[i][l][s] * gamma[s][k][j]
                            for s in range(n)
                        )
                    )
                    for l in range(n)
                ]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return gamma, riemann


class TestDerive:
    def test_constant_metric_is_flat(self):
        m = MetricData(F2, identity(2), zeros(2))
        geo = derive_geometry(m)
        assert all(
            g == 0
            for layer in as_expr(geo.gamma)
            for row in layer
            for g in row
        )
        assert all(
            r == 0
            for a in as_expr(geo.riemann_up)
            for b in a
            for c in b
            for r in c
        )

    def test_one_dimensional_symbols_and_flatness(self):
        u = jet_expr(F1, 1, 0)
        m = MetricData(F1, [[(1 + u) ** 2]], [[ZERO]])
        geo = derive_geometry(m)
        # lower metric 1/(1+u)^2 has Gamma^1_11 = -g'/(2g) for g = (1+u)^2
        expected = sp.cancel(-sp.diff((1 + u) ** 2, u) / (2 * (1 + u) ** 2))
        assert sp.cancel(as_expr(geo.gamma)[0][0][0] - expected) == 0
        assert as_expr(geo.riemann_up)[0][0][0][0] == 0

    def test_sphere_against_oracle(self):
        m = sphere_metric()
        coords = sp.symbols(m.coords())
        u1, u2 = coords
        h = 1 + (u1**2 + u2**2) / 4
        g_lower = sp.Matrix([[1 / h**2, 0], [0, 1 / h**2]])
        gamma, riemann = oracle_curvature(g_lower, coords)
        geo = derive_geometry(m)
        for i, j, k in itertools.product(range(2), repeat=3):
            assert sp.cancel(as_expr(geo.gamma)[i][j][k] - gamma[i][j][k]) == 0
        g_up = sp.Matrix(as_expr(m.g))
        for i, j, k, l in itertools.product(range(2), repeat=4):
            raised = sp.cancel(
                sum(g_up[j, s] * riemann[i][s][k][l] for s in range(2))
            )
            assert sp.cancel(as_expr(geo.riemann_up)[i][j][k][l] - raised) == 0
        # unit-sphere normalization
        assert sp.cancel(as_expr(geo.riemann_up)[0][1][0][1] - 1) == 0

    def test_compatibility_identities_by_construction(self):
        m = sphere_metric()
        geo = derive_geometry(m)
        g = sp.Matrix(as_expr(m.g))
        x = sp.symbols(m.coords())
        for i, j, k in itertools.product(range(2), repeat=3):
            lhs = sp.diff(g[i, j], x[k])
            rhs = as_expr(geo.gamma_up)[i][j][k] + as_expr(geo.gamma_up)[j][i][k]
            assert sp.cancel(lhs - rhs) == 0
        for i, j, k in itertools.product(range(2), repeat=3):
            lhs = sum(g[i, s] * as_expr(geo.gamma_up)[j][k][s] for s in range(2))
            rhs = sum(g[j, s] * as_expr(geo.gamma_up)[i][k][s] for s in range(2))
            assert sp.cancel(lhs - rhs) == 0

    def test_first_bianchi_on_rational_metrics(self):
        u1, u2 = jet_expr(F3, 1, 0), jet_expr(F3, 2, 0)
        g = [
            [1 + u2**2, u1 / 2, ZERO],
            [u1 / 2, sp.Integer(2), ZERO],
            [ZERO, ZERO, 3 + u1**2],
        ]
        m = MetricData(F3, g, zeros(3))
        geo = derive_geometry(m)
        g_lo = sp.Matrix(as_expr(geo.g_lo))

        def lowered(i, j, k, h):
            return sum(g_lo[j, s] * as_expr(geo.riemann_up)[i][s][k][h] for s in range(3))

        # cyclic identity; triples with a repeated index vanish by the
        # antisymmetry in the last index pair, so distinct triples suffice
        for i in range(3):
            for j, k, h in itertools.combinations(range(3), 3):
                cyc = lowered(i, j, k, h) + lowered(i, k, h, j) + lowered(i, h, j, k)
                assert sp.cancel(cyc) == 0

    @pytest.mark.parametrize(
        "case", ["sphere", "non-symmetric g", "non-diagonal symmetric g", "three fields"]
    )
    def test_curvature_against_full_formula(self, case):
        # riemann_up computes the entries with k < l (and, for a symmetric g,
        # i < j, by the contravariant formula) and fills the rest by
        # antisymmetry; here every one of the n^4 entries comes from the mixed
        # formula contracted with g, on the connection the derivation returned
        u1, u2 = jet_expr(F2, 1, 0), jet_expr(F2, 2, 0)
        if case == "sphere":
            m = sphere_metric()
        elif case == "non-symmetric g":
            m = MetricData(F2, [[ONE, u2], [ZERO, 1 + u1]], zeros(2))
        elif case == "non-diagonal symmetric g":
            m = MetricData(F2, [[1 + u2**2, u1], [u1, sp.Integer(2)]], zeros(2))
        else:  # the metric of test_first_bianchi_on_rational_metrics
            g = [[1 + u2**2, u1 / 2, ZERO], [u1 / 2, sp.Integer(2), ZERO], [ZERO, ZERO, 3 + u1**2]]
            m = MetricData(F3, g, zeros(3))
        geo = derive_geometry(m)
        x, gamma, g = sp.symbols(m.coords()), as_expr(geo.gamma), sp.Matrix(as_expr(m.g))
        r = range(m.n)

        def riemann(i, j, k, l):
            return (
                sp.diff(gamma[i][l][j], x[k])
                - sp.diff(gamma[i][k][j], x[l])
                + sum(gamma[i][k][s] * gamma[s][l][j] - gamma[i][l][s] * gamma[s][k][j] for s in r)
            )

        nonzero = 0
        for i, j, k, l in itertools.product(r, repeat=4):
            full = sp.cancel(sum(g[j, s] * riemann(i, s, k, l) for s in r))
            assert sp.cancel(as_expr(geo.riemann_up)[i][j][k][l] - full) == 0
            nonzero += full != 0
        assert nonzero

    def test_singular_metric_raises(self):
        with pytest.raises(SingularMetricError):
            derive_geometry(MetricData(F2, [[ONE, ONE], [ONE, ONE]], zeros(2)))


class TestLazyCurvature:
    def test_curvature_computed_on_first_read(self):
        m = sphere_metric()
        build_operator(m)
        geo = m.geometry
        assert "riemann_up" not in vars(geo)
        check_conditions(m)
        assert m.geometry is geo
        assert "riemann_up" in vars(geo)
        first = geo.riemann_up
        assert geo.riemann_up is first


class TestCurvatureWork:
    """One sum per independent curvature entry when g is symmetric."""

    @pytest.mark.parametrize("symmetric, sums", [(True, 9), (False, 54)])
    def test_sums_on_first_read(self, monkeypatch, symmetric, sums):
        """The first read of riemann_up takes C(3,2)^2 = 9 sums on the n = 3
        constant-curvature metric, and 27 mixed entries plus 27 contractions
        on an asymmetric n = 3 metric; the second read takes none."""
        u1, u2, u3 = (jet_expr(F3, k, 0) for k in (1, 2, 3))
        if symmetric:
            h = (1 + u1**2 + u2**2 + u3**2) ** 2
            g = [[h if i == j else ZERO for j in range(3)] for i in range(3)]
        else:
            g = [[1 + u2**2, u1, ZERO], [ZERO, sp.Integer(2), u3], [ZERO, ZERO, 3 + u1**2]]
        geo = MetricData(F3, g, identity(3)).geometry
        calls, original = [], wno.geometry._fsum

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(wno.geometry, "_fsum", counting)
        first = geo.riemann_up
        assert len(calls) == sums
        assert geo.riemann_up is first and len(calls) == sums


def _constant_curvature_metric(symmetric):
    """The n = 3 metric of constant curvature 4 (diagonal, symmetric), or an asymmetric n = 3 metric."""
    u1, u2, u3 = (jet_expr(F3, k, 0) for k in (1, 2, 3))
    if symmetric:
        h = (1 + u1**2 + u2**2 + u3**2) ** 2
        return [[h if i == j else ZERO for j in range(3)] for i in range(3)]
    return [[1 + u2**2, u1, ZERO], [ZERO, sp.Integer(2), u3], [ZERO, ZERO, 3 + u1**2]]


class TestDerivationWork:
    """The derivation of a symmetric g computes its independent entries only, and its
    gcds of two sums settle by power forms and exact division."""

    def test_symmetric_g_against_the_textbook_formulas(self):
        """Every entry of g_lo, gamma and gamma_up of a non-diagonal symmetric 3-field metric,
        mirrored ones included, is that of the straight formulas in sympy."""
        u1, u2, u3 = (jet_expr(F3, k, 0) for k in (1, 2, 3))
        lower = sp.Matrix([[1, 0, 0], [u2, 1, 0], [u3, u1 / 2, 1]])
        g_up = lower * lower.T / (1 + u1**2)  # its inverse is a polynomial matrix
        m = MetricData(F3, g_up.tolist(), zeros(3))
        geo = derive_geometry(m)
        assert geo.symmetric
        x, r = sp.symbols(m.coords()), range(3)
        g_lo = (lower.T.inv() * lower.inv() * (1 + u1**2)).expand()

        def d(i, j, k):
            return sp.diff(g_lo[i, j], x[k])

        gamma = [[[sum(g_up[i, s] * (d(s, j, k) + d(s, k, j) - d(j, k, s)) for s in r) / 2
                   for k in r] for j in r] for i in r]
        ours = as_expr(geo.g_lo), as_expr(geo.gamma), as_expr(geo.gamma_up)
        for i, j in itertools.product(r, repeat=2):
            assert sp.cancel(ours[0][i][j] - g_lo[i, j]) == 0
        for i, j, k in itertools.product(r, repeat=3):
            assert sp.cancel(ours[1][i][j][k] - gamma[i][j][k]) == 0
            assert sp.cancel(ours[2][i][j][k] + sum(g_up[i, s] * gamma[j][s][k] for s in r)) == 0

    @pytest.mark.parametrize("symmetric, diffs", [(True, 18), (False, 27)])
    def test_derivatives_of_the_inverse(self, monkeypatch, symmetric, diffs):
        """The derivation differentiates the n(n+1)/2 entries of a symmetric inverse by
        each of the n = 3 fields, and all n^2 entries of an asymmetric one."""
        m = MetricData(F3, _constant_curvature_metric(symmetric), identity(3))
        calls, original = [], _Frac.diff

        def counting(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(_Frac, "diff", counting)
        geo = derive_geometry(m)
        assert geo.symmetric is symmetric and len(calls) == diffs

    def test_heuristic_gcds_of_geom(self, monkeypatch, tmp_path, capsys):
        """``geom`` on the n = 3 constant-curvature metric never enters the heuristic gcd: every
        denominator of the quotient rule is a power of the conformal factor, whose gcd with its
        derivative comes from the power form, and every other gcd of two sums is an exact
        division or a memo hit (9 entries before the power form, 33 before exact division)."""
        entries, original = [], wno.algebra._heu

        def counting(*args):
            entries.append(args)
            return original(*args)

        monkeypatch.setattr(wno.algebra, "_heu", counting)
        square = "u1^2 + u2^2 + u3^2"
        block = " ".join(f"g[{i},{i}]: (1 + ({square}))^2; w[{i},{i}]: 2;" for i in (1, 2, 3))
        f = tmp_path / "cc3.wno"
        f.write_text(f"fields u1, u2, u3; firstorder M {{ {block} }}")
        assert main(["geom", str(f), "M"]) == 0
        capsys.readouterr()
        assert len(entries) == 0


class TestConditionWork:
    """check_conditions evaluates a symmetric g's conditions on independent entries only."""

    def test_work_after_the_derivation(self, monkeypatch):
        """On the derived n = 3 constant-curvature metric with W = 2 I, where every condition
        passes and so runs to its last entry: 57 sums (18 metric_compatibility entries on i <= j,
        9 gGamma_symmetry, 3 gW_symmetry, 9 fused nablaW_symmetry, the 9 of riemann_up and 9
        gauss_relation entries on i < j), 54 derivatives (18 + 18 + 18) and 198 products
        (54 + 18 + 54 + 54 + 18).  Over every entry, with nabla W as a tensor, it took 102 sums,
        72 derivatives and 342 products."""
        W = [[2 * c for c in row] for row in identity(3)]
        m = MetricData(F3, _constant_curvature_metric(True), W)
        m.geometry
        counts = dict.fromkeys(("sums", "diffs", "products"), 0)
        sums, diff, mul = wno.geometry._fsum, _Frac.diff, _Frac.__mul__

        def counting(key, original):
            def counted(*args):
                counts[key] += 1
                return original(*args)
            return counted

        monkeypatch.setattr(wno.geometry, "_fsum", counting("sums", sums))
        monkeypatch.setattr(_Frac, "diff", counting("diffs", diff))
        monkeypatch.setattr(_Frac, "__mul__", counting("products", mul))
        assert all(c.ok for c in check_conditions(m))
        assert counts == {"sums": 57, "diffs": 54, "products": 198}


def _every_entry(m):
    """``(name, witness)`` of the six conditions over every entry, for any g: nabla W as the full
    tensor, no entry skipped, the first nonzero entry in the order (i, j, k, h) the witness.
    Written apart from check_conditions, from the derived connection and curvature only."""
    geo, r = m.geometry, range(m.n)
    x, g, W, G, gamma, R = geo.coords, geo.g, geo.W, geo.gamma_up, geo.gamma, geo.riemann_up
    three, four = list(itertools.product(r, repeat=3)), list(itertools.product(r, repeat=4))

    def nabla(i, j, k):  # the covariant derivative of W^j_k along u^i
        return W[j][k].diff(x[i]) + sum(gamma[j][i][s] * W[s][k] - gamma[s][i][k] * W[j][s] for s in r)

    entries = {
        "metric_symmetry": [(f"g[{i + 1},{j + 1}] - g[{j + 1},{i + 1}]", g[i][j] - g[j][i])
                            for i, j in itertools.product(r, r) if i < j],
        "metric_compatibility": [(f"dg[{i + 1},{j + 1}]/du{k + 1}",
                                  g[i][j].diff(x[k]) - G[i][j][k] - G[j][i][k]) for i, j, k in three],
        "gGamma_symmetry": [(f"(i,j,k)=({i + 1},{j + 1},{k + 1})",
                             sum(g[i][s] * G[j][k][s] - g[j][s] * G[i][k][s] for s in r))
                            for i, j, k in three if i < j],
        "gW_symmetry": [(f"(i,j)=({i + 1},{j + 1})",
                         sum(g[i][s] * W[j][s] - g[j][s] * W[i][s] for s in r))
                        for i, j in itertools.product(r, r) if i < j],
        "nablaW_symmetry": [(f"(i,j,k)=({i + 1},{j + 1},{k + 1})", nabla(i, j, k) - nabla(k, j, i))
                            for i, j, k in three if i < k],
        "gauss_relation": [(f"(i,j,k,h)=({i + 1},{j + 1},{k + 1},{h + 1})",
                            R[i][j][k][h] - W[i][k] * W[j][h] + W[j][k] * W[i][h])
                           for i, j, k, h in four if k < h],
    }
    text = wno.algebra._coeff_text
    return [(name, next((f"{label}: {text(v)}" for label, v in values if v != 0), None))
            for name, values in entries.items()]


@st.composite
def _metric_data(draw):
    """Metric data on 1-3 fields: a g with rational entries, symmetric but in about half the
    draws on 2 fields, where g^12 - g^21 is shifted by u1, and a W with polynomial
    entries, both of low degree."""
    n = draw(st.integers(1, 3))
    fields = (F1, F2, F3)[n - 1]
    u = [jet_expr(fields, k, 0) for k in range(1, n + 1)]
    small, var = st.integers(-3, 3), st.sampled_from(u)
    rational = st.one_of(
        st.builds(lambda a: sp.Integer(a), small),
        st.builds(lambda a, b, v: a + b * v, small, small, var),
        st.builds(lambda a, v, w: (a + v) / (1 + w**2), small, var, var),
        st.builds(lambda a, v: (1 + a * v**2) ** 2, st.integers(1, 2), var))
    polynomial = st.one_of(st.just(ZERO), st.builds(sp.Integer, small),
                           st.builds(lambda a, v: a * v, small, var), st.builds(lambda v, w: v * w, var, var))
    g = [[draw(rational) if i == j or draw(st.booleans()) else ZERO for j in range(n)] for i in range(n)]
    if n == 2 and draw(st.booleans()):  # asymmetric; at n = 3 its rational curvature is slow
        g[0][1] = g[1][0] + u[0]
    else:
        g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return MetricData(fields, g, [[draw(polynomial) for _ in range(n)] for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(_metric_data())
def test_conditions_match_every_entry(m):
    """check_conditions, which skips the mirror entries of a symmetric g and fuses nabla W,
    gives the verdicts and witnesses of the loop over every entry."""
    try:
        m.geometry
    except SingularMetricError:
        assume(False)
    assert [(c.name, c.witness) for c in check_conditions(m)] == _every_entry(m)
    assert all(c.ok == (c.witness is None) for c in check_conditions(m))


class TestConditions:
    def test_one_dimensional_family_always_passes(self):
        u = jet_expr(F1, 1, 0)
        for g, w in (([[ONE]], [[u]]), ([[1 / (1 + u) ** 2]], [[u**2]])):
            checks = check_conditions(MetricData(F1, g, w))
            assert all(c.ok for c in checks)

    def test_sphere_passes(self):
        assert all(c.ok for c in check_conditions(sphere_metric()))

    def test_perturbed_affinor_fails_with_witness(self):
        u1 = jet_expr(F2, 1, 0)
        m = sphere_metric()
        w = [[ONE, u1], [ZERO, ONE]]
        checks = check_conditions(MetricData(F2, m.g, w))
        failing = {c.name for c in checks if not c.ok}
        assert failing & {"nablaW_symmetry", "gauss_relation", "gW_symmetry"}
        assert all(c.witness for c in checks if not c.ok)


class TestBuildOperator:
    def test_flat_scalar_case_is_shift(self):
        m = MetricData(F1, [[ONE]], [[ZERO]])
        P = build_operator(m)
        assert _by_order(P.entry(1, 1)) == [(1, 1)]
        assert not P.tails

    def test_scalar_affinor_tail(self):
        u = jet_expr(F1, 1, 0)
        u_x = jet_expr(F1, 1, 1)
        m = MetricData(F1, [[ONE]], [[u]])
        P = build_operator(m)
        assert len(P.tails) == 1
        assert sp.cancel(as_expr(P.tails[0].left[0]) - u * u_x) == 0

    def test_sphere_operator_is_skew(self):
        P = build_operator(sphere_metric())
        assert skew_check(P).ok
        assert P.tails and _by_order(P.entry(1, 2))


class TestEquivalence:
    """Condition verdicts and bracket verdicts agree instance by instance."""

    def passing_instances(self):
        u = jet_expr(F1, 1, 0)
        yield "scalar flat", MetricData(F1, [[ONE]], [[u]])
        yield "scalar rational metric", MetricData(F1, [[1 / (1 + u**2) ** 2]], [[u]])
        yield "sphere", sphere_metric()
        yield "diag flat n=3", MetricData(F3, identity(3), zeros(3))

    def failing_instances(self):
        u2 = jet_expr(F2, 2, 0)
        yield "gW_symmetry", MetricData(F2, identity(2), [[ZERO, ONE], [ZERO, ZERO]])
        yield "nablaW_symmetry", MetricData(F2, identity(2), [[u2, ZERO], [ZERO, ZERO]])
        yield "gauss_relation", MetricData(F2, identity(2), identity(2))

    def test_passing_side(self):
        for label, m in self.passing_instances():
            checks = check_conditions(m)
            assert all(c.ok for c in checks), label
            assert is_hamiltonian(build_operator(m)).ok, label

    def test_failing_side_with_named_condition(self):
        for expected_failure, m in self.failing_instances():
            checks = check_conditions(m)
            failing = [c.name for c in checks if not c.ok]
            assert failing == [expected_failure]
            assert not is_hamiltonian(build_operator(m)).ok, expected_failure
