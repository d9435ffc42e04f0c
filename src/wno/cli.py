"""Command-line interface.

Commands:

    wno check FILE NAME [--el] [--format text|json]
    wno bracket FILE P Q [--format text|json]
    wno geom FILE NAME [--format text|json]

Exit codes: 0 success (check: Poisson; geom: all conditions pass and the
cross-check agrees), 1 negative verdict, 2 usage or parse error, or stdout
closed before the report was written, 3 unsupported structure, singular
metric or an exponent too large for a packed monomial; a closed stderr
changes no exit code.  Each command builds one payload from the values the
math layers return, and ``_emit`` writes it as JSON or text; no other
module assembles a report.  Reports are
deterministic; wall-clock timing goes to stderr only, so the machine-readable
output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from pathlib import Path

from .algebra import ExponentOverflowError, Fields, _start_command, render_factor, render_superpoly
from .dsl import OperatorFile, ParseError, parse
from .geometry import MetricData, SingularMetricError, check_conditions
from .jetcalc import ELResult
from .nonlocal_vars import NonlocalVarTable, UnsupportedStructureError
from .schouten import WNOperator, is_hamiltonian, schouten_bracket

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _load(path: str) -> OperatorFile:
    try:  # one binary read: a leading byte-order mark is dropped, newlines are translated as in text mode
        source = Path(path).read_bytes().decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise SystemExitWith(EXIT_USAGE, f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SystemExitWith(EXIT_USAGE, f"cannot read {path}: {exc}")
    try:
        return parse(source)
    except ParseError as exc:
        raise SystemExitWith(EXIT_USAGE, f"{path}:{exc}")


class SystemExitWith(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _get_operator(doc: OperatorFile, name: str) -> WNOperator:
    if name in doc.operators:
        return doc.operators[name]
    if name in doc.firstorder:
        return doc.firstorder[name].operator
    raise SystemExitWith(EXIT_USAGE, f"no operator or firstorder block named {name!r}")


def _el_payload(el: ELResult, fields: Fields, table: NonlocalVarTable) -> dict:
    names = table.names()
    return {
        "du": [render_superpoly(x, fields, names) for x in el.du],
        "dp": [render_superpoly(x, fields, names) for x in el.dp],
    }


def _coefficient_report(el: ELResult, fields: Fields, table: NonlocalVarTable) -> list[dict]:
    """One row per nonzero term of an EL tuple, from the texts ``render_superpoly`` reads."""
    names = table.names()
    return [
        {
            "component": f"{slot}[{i}]",
            "monomial": "*".join(render_factor(f, fields, names) for f in word) or "1",
            "coefficient": coeff,
        }
        for slot, parts in (("du", el.du), ("dp", el.dp))
        for i, part in enumerate(parts, start=1)
        for word, coeff in part.sorted_texts()
    ]


def _text(payload: dict) -> list[str]:
    """The text form of a command's payload."""
    yn = {True: "yes", False: "no"}
    el = payload.get("el", {})
    el_lines = [f"  {slot}[{i}] = {s}" for slot in el for i, s in enumerate(el[slot], 1)]
    warnings = [f"warning: {w}" for w in payload.get("warnings", ())]
    if payload["command"] == "check":
        return [
            f"operator: {payload['operator']}",
            f"skew-adjoint: {yn[payload['skew_adjoint']]}",
            *([f"skew witness: {payload['skew_witness']}"] if payload["skew_witness"] else []),
            f"self-bracket trivial: {yn[payload['bracket_trivial']]}",
            f"independence assumption used: {yn[payload['independence_assumed']]}",
            *warnings,
            *(f"nonzero {row['component']} coefficient of {row['monomial']}: {row['coefficient']}"
              for row in payload["coefficient_report"]),
            *(["EL tuple of the self-bracket:", *el_lines] if el else []),
            f"HAMILTONIAN: {yn[payload['hamiltonian']]}",
        ]
    if payload["command"] == "bracket":
        return [
            f"bracket [{', '.join(payload['operators'])}]",
            f"representative: {payload['three_vector']}",
            *warnings,
            "EL tuple:",
            *el_lines,
            f"trivial (total derivative): {yn[payload['trivial']]}",
            f"independence assumption used: {yn[payload['independence_assumed']]}",
        ]
    return [
        f"firstorder block: {payload['name']}",
        *(f"  {c['name']}: " + ("pass" if c["ok"] else f"FAIL ({c['witness']})")
          for c in payload["conditions"]),
        f"all conditions: {'pass' if payload['all_conditions_pass'] else 'fail'}",
        f"cross-check (bracket verdict): {yn[payload['cross_check_hamiltonian']]}",
        f"cross-check agrees: {yn[payload['cross_check_agrees']]}",
    ]


def _write(stream, text: str) -> bool:
    """Print ``text`` to ``stream``; False if its reader is gone, and then the stream goes to
    /dev/null, so that the interpreter's last flush is silent."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return False
    return True


def _emit(payload: dict, fmt: str) -> int:
    """Write a command's payload as JSON or text; returns its exit code, 2 if stdout is closed."""
    text = json.dumps(payload, sort_keys=True, indent=2) if fmt == "json" else "\n".join(_text(payload))
    return payload["exit_code"] if _write(sys.stdout, text) else EXIT_USAGE


def cmd_check(doc: OperatorFile, args) -> int:
    op = _get_operator(doc, args.name)
    table = NonlocalVarTable()
    result = is_hamiltonian(op, table)
    bracket = result.bracket
    payload = {
        "command": "check",
        "operator": args.name,
        "schema_version": 1,
        "skew_adjoint": result.skew.ok,
        "skew_witness": result.skew.witness,
        "bracket_trivial": bracket.trivial,
        "independence_assumed": bracket.independence_assumed,
        "coefficient_report": _coefficient_report(bracket.el, op.fields, table),
        "warnings": bracket.warnings,
        "hamiltonian": result.ok,
        "exit_code": EXIT_OK if result.ok else EXIT_NEGATIVE,
    }
    if args.el:
        payload["el"] = _el_payload(bracket.el, op.fields, table)
    return _emit(payload, args.format)


def cmd_bracket(doc: OperatorFile, args) -> int:
    P = _get_operator(doc, args.p)
    Q = _get_operator(doc, args.q)
    table = NonlocalVarTable()
    outcome = schouten_bracket(P, Q, table)
    return _emit({
        "command": "bracket",
        "operators": [args.p, args.q],
        "schema_version": 1,
        "three_vector": render_superpoly(outcome.three_vector, P.fields, table.names()),
        "el": _el_payload(outcome.el, P.fields, table),
        "trivial": outcome.trivial,
        "independence_assumed": outcome.independence_assumed,
        "coefficient_report": _coefficient_report(outcome.el, P.fields, table),
        "warnings": outcome.warnings,
        "exit_code": EXIT_OK,
    }, args.format)


def cmd_geom(doc: OperatorFile, args) -> int:
    if args.name not in doc.firstorder:
        raise SystemExitWith(EXIT_USAGE, f"no firstorder block named {args.name!r}")
    metric: MetricData = doc.firstorder[args.name]
    checks = check_conditions(metric)
    all_pass = all(c.ok for c in checks)
    cross = is_hamiltonian(metric.operator)
    return _emit({
        "command": "geom",
        "name": args.name,
        "schema_version": 1,
        "conditions": [
            {"name": c.name, "ok": c.ok, "witness": c.witness} for c in checks
        ],
        "all_conditions_pass": all_pass,
        "cross_check_hamiltonian": cross.ok,
        "cross_check_agrees": all_pass == cross.ok,
        "independence_assumed": cross.bracket.independence_assumed,
        "exit_code": EXIT_OK if all_pass and cross.ok else EXIT_NEGATIVE,
    }, args.format)


@cache  # built once per process; argparse reads sys.stderr when it reports
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wno",
        description="Poisson-property checks for weakly nonlocal differential operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, names, help_text in (
        ("check", cmd_check, ("name",), "skew-adjointness and self-bracket verdict"),
        ("bracket", cmd_bracket, ("p", "q"), "bracket of two named operators"),
        ("geom", cmd_geom, ("name",), "first-order condition checks plus cross-check"),
    ):
        sp = sub.add_parser(command, help=help_text)
        for name in ("file", *names):
            sp.add_argument(name)
        if command == "check":
            sp.add_argument("--el", action="store_true", help="print the full EL tuple")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    _start_command()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    start = time.monotonic()
    try:
        doc = _load(args.file)
        code = args.func(doc, args)
    except SystemExitWith as exc:
        _write(sys.stderr, f"error: {exc.message}")
        code = exc.code
    except (UnsupportedStructureError, SingularMetricError, ExponentOverflowError) as exc:
        _write(sys.stderr, f"error: {exc}")
        code = EXIT_UNSUPPORTED
    _write(sys.stderr, f"# time: {time.monotonic() - start:.3f}s")  # a closed stderr keeps the code
    return code


if __name__ == "__main__":
    sys.exit(main())
