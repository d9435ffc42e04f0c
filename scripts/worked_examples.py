#!/usr/bin/env python3
"""Run the three bundled case studies and print their full reports.

Every value comes from the ``wno`` command line's JSON reports.

Usage: python scripts/worked_examples.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from wno.cli import main as wno_main


def wno(*argv: str) -> dict:
    """The JSON report of one ``wno`` command on a file in ``cases/``."""
    command, name, *rest = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wno_main([command, str(REPO / "cases" / name), *rest, "--format", "json"])
    if code not in (0, 1):
        sys.exit(err.getvalue())
    return json.loads(out.getvalue())


def show_operator(file, name):
    check = wno("check", file, name, "--el")
    bracket = wno("bracket", file, name, name)
    print(f"== operator {name}")
    print(f"   skew-adjoint: {check['skew_adjoint']}")
    print("   self-bracket representative:", bracket["three_vector"])
    for slot in ("du", "dp"):
        for i, part in enumerate(check["el"][slot], start=1):
            print(f"   EL {slot}[{i}] =", part)
    print(f"   verdict: {'Hamiltonian' if check['hamiltonian'] else 'not Hamiltonian'}")
    print()


def show_firstorder(file, name):
    geom = wno("geom", file, name)
    print(f"== firstorder {name}")
    for check in geom["conditions"]:
        mark = "pass" if check["ok"] else f"FAIL ({check['witness']})"
        print(f"   {check['name']}: {mark}")
    verdict = "Hamiltonian" if geom["cross_check_hamiltonian"] else "not Hamiltonian"
    print(f"   bracket cross-check: {verdict}")
    print()


def main():
    show_operator("kn.wno", "KN")
    for name in ("mkdv2", "mkdv2loc", "kdv"):
        show_operator("mkdv.wno", name)
    for name in ("sphere", "flatbad"):
        show_firstorder("firstorder.wno", name)


if __name__ == "__main__":
    main()
