"""Acceptance suite: one check per contract criterion, one line of output each.

Every assertion is an exact algebraic identity; the only tolerances are the
wall-clock budgets stated alongside the criteria.  Run with ``pytest -s``
to see the per-criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import sympy as sp

from wno.algebra import Fields, SuperPoly, normalize_word, p
from wno.geometry import MetricData, build_operator, check_conditions
from wno.jetcalc import adjoint, euler_lagrange, linearize, total_x
from wno.nonlocal_vars import NonlocalVarTable, el_nonlocal, integrate_density
from wno.schouten import Tail, WNOperator, is_hamiltonian, schouten_bracket

from conftest import jet_expr, monomial, random_coeff, random_local, random_local_mixed

REPO = Path(__file__).resolve().parent.parent
F = Fields(("u",))
u, u_x = jet_expr(F, 1, 0), jet_expr(F, 1, 1)

ZERO = sp.Integer(0)
ONE = sp.Integer(1)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def test_criterion_1_pure_tail_operator():
    start = time.monotonic()
    table = NonlocalVarTable()
    rid = table.register(monomial(u_x, [p(1)]))
    r = table.factor(rid)
    N = monomial(u_x, [p(1), r])
    comp = el_nonlocal(N, F, table)
    ok_du = comp.el.du[0] == monomial(-2, [p(1, 1), r])
    ok_dp = comp.el.dp[0] == monomial(2 * u_x, [r])

    KN = WNOperator(F, [[[]]], [Tail(ONE, (u_x,), (u_x,))])
    res = is_hamiltonian(KN)
    ok_bracket = res.bracket.three_vector.is_zero() and res.ok
    elapsed = time.monotonic() - start
    report(
        1,
        "pure-tail operator: exact EL tuple, vanishing self-bracket, verdict yes",
        ok_du and ok_dp and ok_bracket and elapsed < 1.0,
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_2_mkdv():
    start = time.monotonic()
    rows = [(ONE, 3), (sp.Rational(2, 3) * u**2, 1), (sp.Rational(2, 3) * u * u_x, 0)]
    L = WNOperator(F, [[rows]])
    P = WNOperator(F, [[list(rows)]], [Tail(sp.Rational(-2, 3), (u_x,), (u_x,))])

    out_local = schouten_bracket(L, L)
    representative = monomial(
        sp.Rational(16, 3) * u, [p(1, 0), p(1, 1), p(1, 3)]
    )
    # frozen reference values for the representative's EL tuple
    u_2x, u_3x = jet_expr(F, 1, 2), jet_expr(F, 1, 3)
    ref_du = monomial(sp.Rational(16, 3), [p(1, 0), p(1, 1), p(1, 3)])
    ref_dp = SuperPoly.from_terms(
        [
            (-3 * u_2x, [p(1, 0), p(1, 2)]),
            (-2 * u_x, [p(1, 0), p(1, 3)]),
            (-u_3x, [p(1, 0), p(1, 1)]),
            (-3 * u_x, [p(1, 1), p(1, 2)]),
        ]
    ).scale(sp.Rational(16, 3))
    ok_repr = (
        out_local.three_vector == representative
        and out_local.el.du[0] == ref_du
        and out_local.el.dp[0] == ref_dp
    )

    anti = integrate_density(monomial(-1, [p(1, 1), p(1, 3)]), F)
    ok_anti = anti.ok and anti.antiderivative == monomial(
        -1, [p(1, 1), p(1, 2)]
    )

    res = is_hamiltonian(P)
    ok_full = res.ok and res.bracket.el.is_zero() and not res.bracket.independence_assumed
    elapsed = time.monotonic() - start
    report(
        2,
        "mKdV operator: local bracket EL matches the frozen tuple, tail density "
        "integrates, full self-bracket EL vanishes, verdict yes",
        ok_repr and ok_anti and ok_full and elapsed < 5.0,
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_3_linearization_adjoint_identity():
    rng = random.Random(101)
    count = 0
    for _ in range(100):
        degree = rng.choice([1, 2])
        a = random_local(rng, F, degree, max_order=4, terms=2)
        lhs = adjoint(linearize(a, F)).apply_to_one()
        rhs = euler_lagrange(a, F)
        assert lhs == rhs
        count += 1
    report(3, "adjoint of the linearization at 1 equals the EL tuple", count == 100,
           f"{count} random cases, exact")


def test_criterion_4_derivation_and_annihilation():
    rng = random.Random(103)
    leibniz = 0
    for _ in range(100):
        a = random_local_mixed(rng, F, max_degree=2, max_order=3)
        b = random_local_mixed(rng, F, max_degree=2, max_order=3)
        assert (total_x(a * b, F) - (total_x(a, F) * b + a * total_x(b, F))).is_zero()
        leibniz += 1
    annihilated = 0
    for _ in range(100):
        a = random_local_mixed(rng, F, max_degree=3, max_order=4)
        d = total_x(a, F)
        assert euler_lagrange(d, F).is_zero()
        annihilated += 1
    report(4, "total derivative is a derivation and its image has zero EL",
           leibniz == 100 and annihilated == 100, "100 + 100 random cases, exact")


def test_criterion_5_graded_algebra_suite():
    rng = random.Random(107)
    cases = 0
    for _ in range(150):
        a = random_local_mixed(rng, F, max_degree=2, max_order=3)
        b = random_local_mixed(rng, F, max_degree=2, max_order=3)
        for da in a.odd_degrees() or {0}:
            for db in b.odd_degrees() or {0}:
                ah, bh = a.degree_part(da), b.degree_part(db)
                sign = -1 if (da * db) % 2 else 1
                assert (ah * bh - (bh * ah).scale(sign)).is_zero()
                cases += 1
    for _ in range(100):
        a = random_local_mixed(rng, F, max_degree=1, max_order=3)
        b = random_local_mixed(rng, F, max_degree=1, max_order=3)
        c = random_local_mixed(rng, F, max_degree=1, max_order=3)
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        cases += 2
    for _ in range(100):
        w = random_local(rng, F, 1, max_order=3, terms=3)
        assert (w * w).is_zero()
        cases += 1
    for _ in range(100):
        raw = [
            (random_coeff(rng, F), [p(1, rng.randint(0, 3)) for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(1, 3))
        ]
        once = SuperPoly.from_terms(raw)
        twice = SuperPoly.from_terms([(c, list(w)) for w, c in once.terms.items()])
        assert once.terms == twice.terms
        for word in once.terms:
            sign, again = normalize_word(word)
            assert sign == 1 and again == word
        cases += 1
    report(5, "graded algebra laws on randomized inputs", cases >= 500,
           f"{cases} cases, exact")


def test_criterion_6_first_order_equivalence():
    start = time.monotonic()
    F2 = Fields(("u1", "u2"))
    F3 = Fields(("u1", "u2", "u3"))
    u1, u2 = jet_expr(F2, 1, 0), jet_expr(F2, 2, 0)
    h = 1 + (u1**2 + u2**2) / 4
    eye2 = [[ONE, ZERO], [ZERO, ONE]]

    passing = [
        ("scalar flat", MetricData(F, [[ONE]], [[u]])),
        ("scalar rational", MetricData(F, [[1 / (1 + u**2) ** 2]], [[u]])),
        ("constant curvature n=2", MetricData(F2, [[h**2, ZERO], [ZERO, h**2]], eye2)),
        ("flat diagonal n=3",
         MetricData(F3, [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
                    [[ZERO] * 3 for _ in range(3)])),
    ]
    failing = [
        ("gW_symmetry", MetricData(F2, eye2, [[ZERO, ONE], [ZERO, ZERO]])),
        ("nablaW_symmetry", MetricData(F2, eye2, [[u2, ZERO], [ZERO, ZERO]])),
        ("gauss_relation", MetricData(F2, eye2, eye2)),
    ]

    for label, m in passing:
        checks = check_conditions(m)
        assert all(c.ok for c in checks), label
        assert is_hamiltonian(build_operator(m)).ok, label
    named = []
    for expected, m in failing:
        checks = check_conditions(m)
        bad = [c.name for c in checks if not c.ok]
        assert bad == [expected], f"expected only {expected}, got {bad}"
        assert not is_hamiltonian(build_operator(m)).ok, expected
        named.append(expected)
    elapsed = time.monotonic() - start
    report(
        6,
        "first-order condition system is equivalent to the bracket verdict",
        elapsed < 60.0,
        f"{len(passing)} passing + {len(named)} single-condition failures "
        f"({', '.join(named)}), {elapsed:.1f}s < 60s",
    )


def test_criterion_7_kdv_regression():
    kdv = WNOperator(F, [[[(ONE, 3), (2 * u, 1), (u_x, 0)]]])
    out = schouten_bracket(kdv, kdv)
    hand_expansion = monomial(8, [p(1, 0), p(1, 1), p(1, 3)])
    res = is_hamiltonian(kdv)
    report(
        7,
        "third-order local operator: self-bracket matches the hand expansion "
        "and the verdict is yes",
        out.three_vector == hand_expansion and res.ok,
    )


def test_criterion_8_cli_contract():
    cases = REPO / "cases"
    expected = [
        (("check", str(cases / "kn.wno"), "KN"), 0),
        (("check", str(cases / "mkdv.wno"), "mkdv2"), 0),
        (("check", str(cases / "mkdv.wno"), "mkdv2loc"), 1),
        (("check", str(cases / "mkdv.wno"), "kdv"), 0),
        (("geom", str(cases / "firstorder.wno"), "sphere"), 0),
        (("geom", str(cases / "firstorder.wno"), "flatbad"), 1),
    ]
    ok = True
    for args, code in expected:
        proc = subprocess.run(
            [sys.executable, "-m", "wno.cli", *args],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        ok = ok and proc.returncode == code
    stable = True
    for args, _ in expected:
        json_args = [*args, "--format", "json"]
        runs = [
            subprocess.run(
                [sys.executable, "-m", "wno.cli", *json_args],
                capture_output=True,
                text=True,
                cwd=REPO,
            ).stdout
            for _ in range(2)
        ]
        stable = stable and runs[0] == runs[1] and json.loads(runs[0])
    report(8, "example files produce the documented exit codes and byte-stable "
              "machine-readable reports", bool(ok and stable))
