"""Byte-for-byte snapshots of the worked-example reports.

Each case runs ``wno.cli.main`` in-process and compares its stdout with
``tests/golden/<case>``.  A change that alters a report on purpose
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names the changed lines in its description.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
import sympy.polys.fields
import sympy.polys.heuristicgcd
import sympy.polys.rings
import sympy.printing.str

import wno.algebra
from wno.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {}
for _name in ("KN", "mkdv2", "mkdv2loc", "kdv"):
    _file = "kn.wno" if _name == "KN" else "mkdv.wno"
    for _fmt, _ext in (("text", "txt"), ("json", "json")):
        CASES[f"check_{_name}.{_ext}"] = ["check", _file, _name, "--el", "--format", _fmt]
for _name in ("sphere", "flatbad"):
    for _fmt, _ext in (("text", "txt"), ("json", "json")):
        CASES[f"geom_{_name}.{_ext}"] = ["geom", "firstorder.wno", _name, "--format", _fmt]
CASES["check_perturbed.txt"] = ["check", "curvature.wno", "perturbed", "--el", "--format", "text"]
CASES["geom_perturbed.txt"] = ["geom", "curvature.wno", "perturbed", "--format", "text"]
CASES["geom_skewed.txt"] = ["geom", "firstorder.wno", "skewed", "--format", "text"]  # asymmetric g
CASES["geom_lower.txt"] = ["geom", "firstorder.wno", "lower", "--format", "text"]  # fails only at i > j
for _name in ("tail8", "local7"):  # variational sums of order up to 16
    CASES[f"check_{_name}.txt"] = ["check", "highorder.wno", _name, "--el", "--format", "text"]
for _name in ("loc", "tail"):  # skew witnesses: an entry of P + P*, a tail kernel
    for _fmt, _ext in (("text", "txt"), ("json", "json")):
        CASES[f"check_nonskew_{_name}.{_ext}"] = ["check", "nonskew.wno", _name, "--el", "--format", _fmt]
for _fmt, _ext in (("text", "txt"), ("json", "json")):
    CASES[f"bracket_mkdv2_mkdv2.{_ext}"] = [
        "bracket", "mkdv.wno", "mkdv2", "mkdv2", "--format", _fmt,
    ]


def _args(argv: list[str]) -> list[str]:
    return [argv[0], str(REPO / "cases" / argv[1]), *argv[2:]]


def report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(_args(argv))
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_snapshot(case):
    expected = (GOLDEN / case).read_text(encoding="utf-8")
    assert report(CASES[case]) == expected


def test_reports_stay_in_coefficient_fields(monkeypatch):
    """Parsing, skew tests, brackets and reports run on field elements: with
    the expression normalisers and the batch-field builder made to raise,
    every snapshot still comes out byte for byte."""

    def refuse(*args, **kwargs):
        raise AssertionError("an expression normal form was computed")

    for owner, name in ((sympy, "cancel"), (sympy, "together"), (sympy.polys.fields, "sfield")):
        monkeypatch.setattr(owner, name, refuse)
    for case in sorted(CASES):
        assert report(CASES[case]) == (GOLDEN / case).read_text(encoding="utf-8"), case


def test_reports_print_without_sympy_printer(monkeypatch):
    """Coefficients, witnesses and conditions are written from the field
    elements' terms: with sympy's printer made to raise on sums, products,
    powers and numbers, every snapshot still comes out byte for byte."""

    def refuse(*args, **kwargs):
        raise AssertionError("an expression was printed")

    for name in ("_print_Add", "_print_Mul", "_print_Pow", "_print_Rational", "_print_Integer"):
        monkeypatch.setattr(sympy.printing.str.StrPrinter, name, refuse)
    for case in sorted(CASES):
        assert report(CASES[case]) == (GOLDEN / case).read_text(encoding="utf-8"), case


def test_reports_stay_in_owned_arithmetic(monkeypatch):
    """Every sum, difference, product and quotient of coefficients on the CLI
    path takes the field's own element arithmetic: with sympy's fallbacks
    made to raise, every snapshot still comes out byte for byte."""

    def refuse(*args, **kwargs):
        raise AssertionError("sympy's field element arithmetic was called")

    for name in ("__add__", "__sub__", "__mul__", "__radd__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(sympy.polys.fields.FracElement, name, refuse)
    bad = []
    for case in sorted(CASES):
        try:
            ok = report(CASES[case]) == (GOLDEN / case).read_text(encoding="utf-8")
        except AssertionError:
            ok = False
        if not ok:
            bad.append(case)
    assert not bad


def test_reports_build_no_sympy_field_element(monkeypatch):
    """Coefficients are the module's own reduced pairs, not sympy's fractions:
    with sympy's ``FracElement`` made impossible to build, every snapshot
    still comes out byte for byte."""

    def refuse(*args, **kwargs):
        raise AssertionError("a sympy field element was built")

    monkeypatch.setattr(sympy.polys.fields.FracElement, "__init__", refuse)
    bad = []
    for case in sorted(CASES):
        try:
            ok = report(CASES[case]) == (GOLDEN / case).read_text(encoding="utf-8")
        except AssertionError:
            ok = False
        if not ok:
            bad.append(case)
    assert not bad


def test_reports_take_no_sympy_gcd(monkeypatch):
    """Every gcd of two sums on the CLI path is the owned heuristic gcd: with
    sympy's ``heugcd`` and ``PolyElement.cofactors`` made to raise, every
    snapshot still comes out byte for byte."""

    def refuse(*args, **kwargs):
        raise AssertionError("sympy's gcd was called")

    for owner in (sympy.polys.heuristicgcd, sympy.polys.rings):
        monkeypatch.setattr(owner, "heugcd", refuse)
    monkeypatch.setattr(sympy.polys.rings.PolyElement, "cofactors", refuse)
    for case in sorted(CASES):
        assert report(CASES[case]) == (GOLDEN / case).read_text(encoding="utf-8"), case


def test_reports_repeat_with_warm_gcd_memo():
    """Two passes over every case in one process, sharing the field table and
    its converters while each command starts with an empty gcd memo, both give
    the snapshots: no memoised polynomial is changed in place and no result of
    one command leaks into the next.  The polynomial 1 that every field shares
    is intact after them."""
    for _ in range(2):
        for case in sorted(CASES):
            assert report(CASES[case]) == (GOLDEN / case).read_text(encoding="utf-8"), case
    assert wno.algebra._ONE == {0: 1}


def test_reports_import_no_sympy():
    """In a process where sympy cannot be imported, every snapshot command
    prints its snapshot byte for byte: no worked example reaches a sympy
    converter or the PRS gcd."""
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['sympy'] = None  # every import of sympy now raises\n"
        "from wno.cli import main\n"
        "out = {}\n"
        "for case, args in json.loads(sys.stdin.read()).items():\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):\n"
        "        main(args)\n"
        "    out[case] = buf.getvalue()\n"
        "print(json.dumps(out))\n"
    )
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    cases = json.dumps({case: _args(argv) for case, argv in CASES.items()})
    proc = subprocess.run(
        [sys.executable, "-c", script], input=cases, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    for case in sorted(CASES):
        assert out[case] == (GOLDEN / case).read_text(encoding="utf-8"), case


def test_reports_without_sympy_cache():
    """With sympy's cache switched off, every snapshot still comes out byte
    for byte."""
    script = (
        "import sys\n"
        "from sympy.core.cache import USE_CACHE\n"
        "from test_golden import CASES, GOLDEN, report\n"
        "assert USE_CACHE == 'no'\n"
        "bad = [c for c in sorted(CASES) if report(CASES[c]) != (GOLDEN / c).read_text(encoding='utf-8')]\n"
        "sys.exit(f'changed: {bad}' if bad else 0)\n"
    )
    path = os.pathsep.join([str(REPO / "src"), str(GOLDEN.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "SYMPY_USE_CACHE": "no", "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / case).write_text(report(argv), encoding="utf-8")
        print(f"wrote {case}", file=sys.stderr)
