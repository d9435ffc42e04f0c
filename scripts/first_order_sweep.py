#!/usr/bin/env python3
"""Sweep a family of first-order metric instances and tabulate both sides of
the equivalence: the geometric condition system versus the bracket verdict.

The instances are ``firstorder`` blocks in ``cases/``; every value comes from
the JSON report of ``wno geom``.

Usage: python scripts/first_order_sweep.py
"""

import time

from worked_examples import wno

INSTANCES = (
    ("scalar, flat metric, affinor u", "firstorder_scalar.wno", "flat"),
    ("scalar, rational metric", "firstorder_scalar.wno", "rational"),
    ("constant curvature, identity affinor", "firstorder.wno", "sphere"),
    ("flat, asymmetric affinor", "firstorder.wno", "flatbad"),
    ("flat, non-parallel affinor", "firstorder.wno", "nonparallel"),
    ("flat, identity affinor", "firstorder.wno", "flat"),
    ("sphere, perturbed affinor", "firstorder.wno", "spherebad"),
)


def main():
    print(f"{'instance':42} {'conditions':28} {'bracket':8} agree")
    for label, file, name in INSTANCES:
        t0 = time.monotonic()
        geom = wno("geom", file, name)
        failing = [c["name"] for c in geom["conditions"] if not c["ok"]]
        cond = "all pass" if not failing else ", ".join(failing)
        print(
            f"{label:42} {cond:28} {'yes' if geom['cross_check_hamiltonian'] else 'no':8} "
            f"{'yes' if geom['cross_check_agrees'] else 'NO'}  [{time.monotonic() - t0:.2f}s]"
        )


if __name__ == "__main__":
    main()
