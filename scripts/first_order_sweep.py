#!/usr/bin/env python3
"""Sweep a family of first-order metric instances and tabulate both sides of
the equivalence: the geometric condition system versus the bracket verdict.

Usage: python scripts/first_order_sweep.py
"""

import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import sympy as sp

from wno.algebra import Fields
from wno.geometry import MetricData, build_operator, check_conditions
from wno.schouten import is_hamiltonian

ZERO, ONE = sp.Integer(0), sp.Integer(1)


def instances():
    F1 = Fields(("u",))
    F2 = Fields(("u1", "u2"))
    u = sp.Symbol(F1.jet(1, 0))
    u1, u2 = sp.symbols([F2.jet(1, 0), F2.jet(2, 0)])
    eye = [[ONE, ZERO], [ZERO, ONE]]
    h = 1 + (u1**2 + u2**2) / 4

    yield "scalar, flat metric, affinor u", MetricData(F1, [[ONE]], [[u]])
    yield "scalar, rational metric", MetricData(F1, [[1 / (1 + u**2) ** 2]], [[u]])
    yield "constant curvature, identity affinor", MetricData(
        F2, [[h**2, ZERO], [ZERO, h**2]], eye
    )
    yield "flat, asymmetric affinor", MetricData(F2, eye, [[ZERO, ONE], [ZERO, ZERO]])
    yield "flat, non-parallel affinor", MetricData(F2, eye, [[u2, ZERO], [ZERO, ZERO]])
    yield "flat, identity affinor", MetricData(F2, eye, eye)
    yield "sphere, perturbed affinor", MetricData(
        F2, [[h**2, ZERO], [ZERO, h**2]], [[ONE, u1], [ZERO, ONE]]
    )


def main():
    print(f"{'instance':42} {'conditions':28} {'bracket':8} agree")
    for label, metric in instances():
        t0 = time.monotonic()
        checks = check_conditions(metric)
        failing = [c.name for c in checks if not c.ok]
        verdict = is_hamiltonian(build_operator(metric)).ok
        agree = (not failing) == verdict
        cond = "all pass" if not failing else ", ".join(failing)
        print(
            f"{label:42} {cond:28} {'yes' if verdict else 'no':8} "
            f"{'yes' if agree else 'NO'}  [{time.monotonic() - t0:.2f}s]"
        )


if __name__ == "__main__":
    main()
