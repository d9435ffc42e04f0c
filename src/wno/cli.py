"""Command-line interface.

Commands:

    wno check FILE NAME [--el] [--format text|json]
    wno bracket FILE P Q [--format text|json]
    wno geom FILE NAME [--format text|json]

Exit codes: 0 success (check: Poisson; geom: all conditions pass and the
cross-check agrees), 1 negative verdict, 2 usage or parse error, 3
unsupported structure, singular metric or an exponent too large for a
packed monomial.  Reports are deterministic; wall-clock timing goes to
stderr only, so the machine-readable output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from pathlib import Path

from .algebra import ExponentOverflowError, Fields, _start_command, render_superpoly
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
    try:
        source = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
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


def _el_lines(el: dict) -> list[str]:
    return [f"  {slot}[{i}] = {s}" for slot in ("du", "dp") for i, s in enumerate(el[slot], 1)]


def _emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_check(doc: OperatorFile, args) -> int:
    op = _get_operator(doc, args.name)
    table = NonlocalVarTable()
    result = is_hamiltonian(op, table)
    verdict = result.ok
    payload = {
        "command": "check",
        "operator": args.name,
        "schema_version": 1,
        "skew_adjoint": result.skew.ok,
        "skew_witness": result.skew.witness,
        "bracket_trivial": result.bracket.trivial,
        "independence_assumed": result.bracket.independence_assumed,
        "coefficient_report": result.bracket.coefficient_report,
        "warnings": result.bracket.warnings,
        "hamiltonian": verdict,
        "exit_code": EXIT_OK if verdict else EXIT_NEGATIVE,
    }
    lines = [
        f"operator: {args.name}",
        f"skew-adjoint: {'yes' if result.skew.ok else 'no'}",
    ]
    if result.skew.witness:
        lines.append(f"skew witness: {result.skew.witness}")
    lines.append(f"self-bracket trivial: {'yes' if result.bracket.trivial else 'no'}")
    lines.append(
        f"independence assumption used: "
        f"{'yes' if result.bracket.independence_assumed else 'no'}"
    )
    for warning in result.bracket.warnings:
        lines.append(f"warning: {warning}")
    for row in result.bracket.coefficient_report:
        lines.append(
            f"nonzero {row['component']} coefficient of {row['monomial']}: "
            f"{row['coefficient']}"
        )
    if args.el:
        payload["el"] = _el_payload(result.bracket.el, op.fields, table)
        lines += ["EL tuple of the self-bracket:", *_el_lines(payload["el"])]
    lines.append(f"HAMILTONIAN: {'yes' if verdict else 'no'}")
    _emit(payload, args.format, lines)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_bracket(doc: OperatorFile, args) -> int:
    P = _get_operator(doc, args.p)
    Q = _get_operator(doc, args.q)
    table = NonlocalVarTable()
    outcome = schouten_bracket(P, Q, table)
    three = render_superpoly(outcome.three_vector, P.fields, table.names())
    payload = {
        "command": "bracket",
        "operators": [args.p, args.q],
        "schema_version": 1,
        "three_vector": three,
        "el": _el_payload(outcome.el, P.fields, table),
        "trivial": outcome.trivial,
        "independence_assumed": outcome.independence_assumed,
        "coefficient_report": outcome.coefficient_report,
        "warnings": outcome.warnings,
        "exit_code": EXIT_OK,
    }
    lines = [f"bracket [{args.p}, {args.q}]", f"representative: {three}"]
    for warning in outcome.warnings:
        lines.append(f"warning: {warning}")
    lines += ["EL tuple:", *_el_lines(payload["el"])]
    lines.append(f"trivial (total derivative): {'yes' if outcome.trivial else 'no'}")
    lines.append(
        f"independence assumption used: "
        f"{'yes' if outcome.independence_assumed else 'no'}"
    )
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_geom(doc: OperatorFile, args) -> int:
    if args.name not in doc.firstorder:
        raise SystemExitWith(EXIT_USAGE, f"no firstorder block named {args.name!r}")
    metric: MetricData = doc.firstorder[args.name]
    checks = check_conditions(metric)
    all_pass = all(c.ok for c in checks)
    cross = is_hamiltonian(metric.operator)
    agrees = all_pass == cross.ok
    verdict = all_pass and cross.ok
    payload = {
        "command": "geom",
        "name": args.name,
        "schema_version": 1,
        "conditions": [
            {"name": c.name, "ok": c.ok, "witness": c.witness} for c in checks
        ],
        "all_conditions_pass": all_pass,
        "cross_check_hamiltonian": cross.ok,
        "cross_check_agrees": agrees,
        "independence_assumed": cross.bracket.independence_assumed,
        "exit_code": EXIT_OK if verdict else EXIT_NEGATIVE,
    }
    lines = [f"firstorder block: {args.name}"]
    for c in checks:
        mark = "pass" if c.ok else f"FAIL ({c.witness})"
        lines.append(f"  {c.name}: {mark}")
    lines.append(f"all conditions: {'pass' if all_pass else 'fail'}")
    lines.append(f"cross-check (bracket verdict): {'yes' if cross.ok else 'no'}")
    lines.append(f"cross-check agrees: {'yes' if agrees else 'no'}")
    _emit(payload, args.format, lines)
    return EXIT_OK if verdict else EXIT_NEGATIVE


@cache  # built once per process; argparse reads sys.stderr when it reports
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wno",
        description="Poisson-property checks for weakly nonlocal differential operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="skew-adjointness and self-bracket verdict")
    pc.add_argument("file")
    pc.add_argument("name")
    pc.add_argument("--el", action="store_true", help="print the full EL tuple")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(func=cmd_check)

    pb = sub.add_parser("bracket", help="bracket of two named operators")
    pb.add_argument("file")
    pb.add_argument("p")
    pb.add_argument("q")
    pb.add_argument("--format", choices=("text", "json"), default="text")
    pb.set_defaults(func=cmd_bracket)

    pg = sub.add_parser("geom", help="first-order condition checks plus cross-check")
    pg.add_argument("file")
    pg.add_argument("name")
    pg.add_argument("--format", choices=("text", "json"), default="text")
    pg.set_defaults(func=cmd_geom)
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
        print(f"error: {exc.message}", file=sys.stderr)
        code = exc.code
    except (UnsupportedStructureError, SingularMetricError, ExponentOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_UNSUPPORTED
    print(f"# time: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
