"""Command-line contract: exit codes, output formats, report stability."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wno.algebra
import wno.dsl
import wno.geometry
import wno.schouten
from wno.cli import main

REPO = Path(__file__).resolve().parent.parent
CASES = REPO / "cases"


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "wno.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, **env} if env else None,
    )
    return proc


class TestExitCodes:
    def test_check_positive(self):
        proc = run_cli("check", str(CASES / "kn.wno"), "KN")
        assert proc.returncode == 0
        assert "HAMILTONIAN: yes" in proc.stdout

    def test_check_negative(self):
        proc = run_cli("check", str(CASES / "mkdv.wno"), "mkdv2loc")
        assert proc.returncode == 1
        assert "HAMILTONIAN: no" in proc.stdout
        assert "p*p_x*p_3x" in proc.stdout

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.wno"
        bad.write_text("fields u; operator A { local[1,1] D; }")
        proc = run_cli("check", str(bad), "A")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_missing_name(self):
        proc = run_cli("check", str(CASES / "kn.wno"), "nope")
        assert proc.returncode == 2

    def test_repeated_in_process_usage_errors(self):
        """The parser is built once per process; each call still reports its own
        usage error to the stderr of its own call."""
        for argv, bad in ((["check"], "the following arguments are required: file, name"),
                          (["geom", "f", "m", "--format", "xml"], "invalid choice: 'xml'")):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 2
            assert err.getvalue().startswith("usage: wno ") and bad in err.getvalue()
            assert err.getvalue().count("usage:") == 1

    def test_singular_metric_unsupported(self, tmp_path):
        f = tmp_path / "sing.wno"
        f.write_text("fields u1, u2; firstorder m { g[1,1]: 1; g[1,2]: 1; g[2,1]: 1; g[2,2]: 1; }")
        proc = run_cli("geom", str(f), "m")
        assert proc.returncode == 3

    def test_singular_metric_with_proportional_rows(self, tmp_path):
        f = tmp_path / "sing.wno"
        f.write_text("fields u1, u2; firstorder m { g[1,1]: u1; g[1,2]: u2; "
                     "g[2,1]: u1^2; g[2,2]: u1*u2; }")
        proc = run_cli("geom", str(f), "m")
        assert proc.returncode == 3
        assert "metric is singular" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_local_coefficient(self, tmp_path):
        f = tmp_path / "nan.wno"
        f.write_text("fields u;\noperator P {\n  local[1,1]: 1/(u-u)*D;\n}\n")
        proc = run_cli("check", str(f), "P")
        assert proc.returncode == 2
        assert "nan.wno:3:17: non-finite coefficient" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_metric_entry(self, tmp_path):
        f = tmp_path / "nan.wno"
        f.write_text("fields u;\nfirstorder M {\n  g[1,1]: 1/(u-u);\n}\n")
        proc = run_cli("geom", str(f), "M")
        assert proc.returncode == 2
        assert "nan.wno:3:13: non-finite coefficient" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_file(self, tmp_path):
        f = tmp_path / "bytes.wno"
        f.write_bytes(b"fields u;\n\xff")
        proc = run_cli("check", str(f), "A")
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot read {f}: ")
        assert "Traceback" not in proc.stderr

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        """A file saved with a UTF-8 byte-order mark reads as the plain file."""
        plain = (CASES / "mkdv.wno").read_bytes()
        f = tmp_path / "bom.wno"
        f.write_bytes(b"\xef\xbb\xbf" + plain)
        outputs = []
        for path in (CASES / "mkdv.wno", f):
            assert main(["check", str(path), "mkdv2", "--el"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and "HAMILTONIAN: yes" in outputs[0]

    def test_byte_order_mark_inside_is_refused(self, tmp_path, capsys):
        f = tmp_path / "bom.wno"
        f.write_bytes(b"fields u;\n\xef\xbb\xbfoperator A { local[1,1]: D; }\n")
        assert main(["check", str(f), "A"]) == 2
        assert "bom.wno:2:1: unexpected character '\\ufeff'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coeff, col",
        [("(" * 260 + "u" + ")" * 260, 115), ("-" * 2000 + "u", 115)],
        ids=["parentheses", "minus-signs"],
    )
    def test_deep_nesting(self, tmp_path, coeff, col):
        f = tmp_path / "deep.wno"
        f.write_text(f"fields u;\noperator A {{\n  local[1,1]: {coeff}*D;\n}}\n")
        proc = run_cli("check", str(f), "A")
        assert proc.returncode == 2
        assert f"deep.wno:3:{col}: nesting exceeds the bound 100" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_signed_power_takes_one_exponent(self, tmp_path):
        f = tmp_path / "pow.wno"
        f.write_text("fields u;\noperator P {\n  local[1,1]: -u^2^2*D;\n}\n")
        proc = run_cli("check", str(f), "P")
        assert proc.returncode == 2
        assert "pow.wno:3:19: expected ';', got '^'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_derivative_order_bound(self, tmp_path):
        f = tmp_path / "big.wno"
        f.write_text("fields u;\noperator P {\n  local[1,1]: D^100000;\n}\n")
        proc = run_cli("check", str(f), "P")
        assert proc.returncode == 2
        assert "big.wno:3:17: derivative order exceeds the bound 16" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_exponent_bound(self, tmp_path):
        f = tmp_path / "big.wno"
        f.write_text("fields u;\nfirstorder M {\n  g[1,1]: (1 + u)^100000;\n}\n")
        proc = run_cli("geom", str(f), "M")
        assert proc.returncode == 2
        assert "big.wno:3:19: exponent exceeds the bound 16" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_degree_bound(self, tmp_path):
        f = tmp_path / "big.wno"
        f.write_text("fields u;\noperator P {\n  local[1,1]: ((((u^16)^16)^16)^16)*D + u_x;\n}\n")
        proc = run_cli("check", str(f), "P", "--el")
        assert proc.returncode == 2
        assert "big.wno:3:17: degree exceeds the bound 1023" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_degree_just_below_the_bound(self, tmp_path):
        f = tmp_path / "top.wno"
        f.write_text("fields u;\noperator P {\n  local[1,1]: ((u^16)^16)^3*((u^5)^3)^16*u^15*D;\n}\n")
        proc = run_cli("check", str(f), "P", "--el")
        assert proc.returncode == 1
        witness = "local[1,1]: -1023*u**1022*u_x * D^0"
        assert proc.stdout == (
            f"operator: P\nskew-adjoint: no\nskew witness: {witness}\nself-bracket trivial: yes\n"
            f"independence assumption used: no\nwarning: operator is not skew-adjoint ({witness}); "
            "only its skew part enters the bracket\nEL tuple of the self-bracket:\n"
            "  du[1] = 0\n  dp[1] = 0\nHAMILTONIAN: no\n"
        )

    def test_exponent_overflow_is_unsupported(self, tmp_path, monkeypatch, capsys):
        """With the parse bound lifted, a product of two coefficients whose exponents
        do not fit a packed monomial's field exits 3."""
        monkeypatch.setattr(wno.dsl, "MAX_DEGREE", 2**15 - 1)
        f = tmp_path / "huge.wno"
        f.write_text("fields u;\noperator P {\n  local[1,1]: (((u^16)^16)^16)^7*D^3;\n}\n")
        assert main(["check", str(f), "P"]) == 3
        assert "error: an exponent of a jet variable would pass 32767" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, col",
        [
            ("local[1,1]: {big}*D;", 15),
            ("nonlocal[1,1]: {big}*[u_x|u_x];", 18),
            ("local[{big},1]: D;", 9),
        ],
    )
    def test_long_integer_literal(self, tmp_path, entry, col):
        f = tmp_path / "long.wno"
        f.write_text(f"fields u;\noperator P {{\n  {entry.format(big='7' * 5000)}\n}}\n")
        proc = run_cli("check", str(f), "P")
        assert proc.returncode == 2
        assert f"long.wno:3:{col}: integer literal exceeds 4300 digits" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_coefficient_prints(self, tmp_path):
        f = tmp_path / "huge.wno"
        f.write_text(f"fields u;\noperator P {{\n  local[1,1]: {'7' * 3000}*u^2*D^3 + u*u_x*D^2;\n}}\n")
        proc = run_cli("check", str(f), "P", "--el")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert re.search(r"\d{6000}", proc.stdout)  # an EL coefficient past 4300 digits

    def test_long_literal_under_low_digit_limit(self, tmp_path):
        f = tmp_path / "long.wno"
        f.write_text(f"fields u;\noperator P {{\n  local[1,1]: {'7' * 1000}*u*D + u_x;\n}}\n")
        proc = run_cli("check", str(f), "P", "--el", env={"PYTHONINTMAXSTRDIGITS": "640"})
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert re.search(r"\d{1000}", proc.stdout)  # the skew witness

    def test_geom_verdicts(self):
        ok = run_cli("geom", str(CASES / "firstorder.wno"), "sphere")
        assert ok.returncode == 0
        bad = run_cli("geom", str(CASES / "firstorder.wno"), "flatbad")
        assert bad.returncode == 1
        assert "gW_symmetry: FAIL" in bad.stdout

    def test_geom_scalar_family(self, tmp_path):
        f = tmp_path / "scalar.wno"
        f.write_text("fields u; firstorder m { g[1,1]: 1; w[1,1]: u; }")
        proc = run_cli("geom", str(f), "m")
        assert proc.returncode == 0
        assert "cross-check agrees: yes" in proc.stdout

    def test_bracket_success(self):
        proc = run_cli("bracket", str(CASES / "mkdv.wno"), "mkdv2", "mkdv2")
        assert proc.returncode == 0
        assert "trivial (total derivative): yes" in proc.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ("bracket", "mkdv.wno", "mkdv2", "mkdv2", "--format", "json"),
            ("check", "curvature.wno", "perturbed", "--el"),  # 49 KB, past the stdout buffer
        ],
    )
    def test_closed_pipe(self, args):
        """A reader that is gone before the report is written, as in
        ``wno ... | head`` after ``head`` exits, ends the command with exit 2
        and no traceback, neither from the write nor from the interpreter's
        last flush."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wno.cli", args[0], str(CASES / args[1]), *args[2:]],
                stdout=write, stderr=subprocess.PIPE, text=True, cwd=REPO,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert re.fullmatch(r"# time: \d+\.\d{3}s\n", proc.stderr), proc.stderr


class TestFormats:
    def test_json_fields(self):
        proc = run_cli("check", str(CASES / "mkdv.wno"), "mkdv2", "--format", "json")
        data = json.loads(proc.stdout)
        assert data["hamiltonian"] is True
        assert data["skew_adjoint"] is True
        assert data["exit_code"] == 0
        assert data["independence_assumed"] is False

    def test_json_matches_text_verdict(self):
        text = run_cli("check", str(CASES / "mkdv.wno"), "mkdv2loc")
        proc = run_cli("check", str(CASES / "mkdv.wno"), "mkdv2loc", "--format", "json")
        data = json.loads(proc.stdout)
        assert ("HAMILTONIAN: no" in text.stdout) == (data["hamiltonian"] is False)
        assert data["exit_code"] == proc.returncode == 1
        for row in data["coefficient_report"]:
            assert f"{row['component']} coefficient of {row['monomial']}" in text.stdout

    def test_el_flag(self):
        proc = run_cli("check", str(CASES / "kn.wno"), "KN", "--el")
        assert "du[1] = 0" in proc.stdout

    def test_timing_only_on_stderr(self):
        proc = run_cli("check", str(CASES / "kn.wno"), "KN", "--format", "json")
        assert "time" not in proc.stdout
        assert "# time:" in proc.stderr

    def test_byte_stable_reports(self):
        for args in (
            ("check", str(CASES / "kn.wno"), "KN", "--format", "json"),
            ("check", str(CASES / "mkdv.wno"), "mkdv2loc", "--el", "--format", "json"),
            ("geom", str(CASES / "firstorder.wno"), "flatbad", "--format", "json"),
            ("bracket", str(CASES / "mkdv.wno"), "mkdv2", "mkdv2", "--format", "json"),
        ):
            first = run_cli(*args).stdout
            second = run_cli(*args).stdout
            assert first == second


class TestInProcess:
    def test_main_returns_codes(self, capsys):
        assert main(["check", str(CASES / "kn.wno"), "KN"]) == 0
        assert main(["check", str(CASES / "mkdv.wno"), "mkdv2loc"]) == 1
        capsys.readouterr()

    def test_usage_error(self, capsys):
        assert main(["check"]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_constant_curvature_ladder_passes(tmp_path, capsys, n):
    """The stereographic metric of constant curvature 4 in ``n`` fields with the
    affinor ``2 I`` satisfies all six conditions, and the bracket route agrees."""
    us = [f"u{i}" for i in range(1, n + 1)]
    square = " + ".join(f"{u}^2" for u in us)
    block = [f"g[{i},{i}]: (1 + ({square}))^2; w[{i},{i}]: 2;" for i in range(1, n + 1)]
    f = tmp_path / "ladder.wno"
    f.write_text(f"fields {', '.join(us)}; firstorder M {{ {' '.join(block)} }}")
    assert main(["geom", str(f), "M", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["ok"] for c in report["conditions"]] == [True] * 6
    assert report["cross_check_hamiltonian"] and report["cross_check_agrees"]


class TestOnceByConstruction:
    """One geometry derivation per command, one skew test per distinct operand."""

    @staticmethod
    def counted(monkeypatch, module, name):
        calls, original = [], getattr(module, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("command", ["geom", "check"])
    def test_geometry_derived_once(self, monkeypatch, capsys, command):
        calls = self.counted(monkeypatch, wno.geometry, "derive_geometry")
        assert main([command, str(CASES / "firstorder.wno"), "sphere"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv, operands",
        [
            ("check mkdv.wno mkdv2loc", 1),
            ("check firstorder.wno flatbad", 1),
            ("geom firstorder.wno sphere", 1),
            ("bracket mkdv.wno mkdv2 mkdv2", 1),
            ("bracket mkdv.wno mkdv2 kdv", 2),
            ("bracket firstorder.wno sphere sphere", 1),
            ("bracket firstorder.wno sphere flatbad", 2),
        ],
    )
    def test_skew_tested_once_per_operand(self, monkeypatch, capsys, argv, operands):
        calls = self.counted(monkeypatch, wno.schouten, "skew_check")
        command, name, *rest = argv.split()
        assert main([command, str(CASES / name), *rest]) in (0, 1)
        capsys.readouterr()
        assert len(calls) == operands

    @pytest.mark.parametrize("command, renders", [("geom", False), ("check", True)])
    def test_geom_renders_no_term(self, monkeypatch, capsys, command, renders):
        """``geom`` prints no EL term, so its failing cross-check renders no
        factor; ``check`` on the same block renders its coefficient rows."""
        original = wno.algebra.render_factor
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "wno"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
        assert main([command, str(CASES / "curvature.wno"), "perturbed"]) == 1
        capsys.readouterr()
        assert bool(calls) == renders

    def test_firstorder_self_bracket_builds_one_operator(self, monkeypatch, capsys, tmp_path):
        built = self.counted(monkeypatch, wno.geometry, "build_operator")
        el = self.counted(monkeypatch, wno.schouten, "el_nonlocal")
        f = tmp_path / "skewed.wno"  # g is not symmetric, so the operator is not skew-adjoint
        f.write_text("fields u1, u2; firstorder m { g[1,1]: 1; g[1,2]: 1; g[2,2]: 1; }")
        assert main(["bracket", str(f), "m", "m"]) == 0
        out = capsys.readouterr().out
        assert (len(built), len(el)) == (1, 2)
        assert "warning: operator is not skew-adjoint" in out


# -- fuzzing the command line ----------------------------------------------------
# Derivative orders stay at 3 or below and exponents at 2 or -1, so that each
# example runs in milliseconds; the parse bounds have their own tests.

_EXPR = ["u", "v", "u_x", "v_x", "u_2x", "0", "1", "2", "3", "+", "-", "*", "/", "^2", "^-1", "(", ")"]
_TOKENS = _EXPR + [
    "D", "D^2", "D^3", "fields", "operator", "firstorder", "local", "nonlocal", "g", "w",
    "A", "M", "[", "]", ",", ":", ";", "{", "}", "|", "[1,1]", "#", "\n", "u_99x", "1.5", "\u00e9",
]


def _soup(tokens, max_size):
    return st.lists(st.sampled_from(tokens), min_size=1, max_size=max_size).map(" ".join)


def _expr(atoms):
    return st.recursive(st.sampled_from(atoms), lambda e: st.one_of(
        st.builds("({} + {})".format, e, e), st.builds("{}*{}".format, e, e),
        st.builds("{}/{}".format, e, e), st.builds("-{}^2".format, e)), max_leaves=4)


@st.composite
def _operator_files(draw):
    """An operator file by the grammar; a coefficient is sometimes token soup."""
    names = draw(st.sampled_from([["u"], ["u", "v"]]))
    pairs = st.sampled_from([f"{i},{j}" for i in range(1, len(names) + 1) for j in range(1, len(names) + 1)])
    plain = [*names, "0", "1", "2", "3"]
    coeff = st.one_of(_expr(plain + [f"{n}_{k}" for n in names for k in ("x", "2x")]), _soup(_EXPR, 6))
    term = st.builds("{}*D^{}".format, coeff, st.integers(0, 3))
    local = st.builds("local[{}]: {};".format, pairs, st.lists(term, min_size=1, max_size=3).map(" + ".join))
    constant = st.sampled_from(["1", "-2/3", "(1/2)", "0", "u"])
    tail = st.builds("nonlocal[{}]: {}*[{}|{}];".format, pairs, constant, coeff, coeff)
    metric = st.builds("{}[{}]: {};".format, st.sampled_from("gw"), pairs,
                       st.one_of(_expr(plain), _soup(_EXPR, 4)))
    op = " ".join(draw(st.lists(st.one_of(local, tail), max_size=3)))
    m = " ".join([f"g[{i},{i}]: 1;" for i in range(1, len(names) + 1)] + draw(st.lists(metric, max_size=3)))
    return f"fields {', '.join(names)}; operator A {{ {op} }} firstorder M {{ {m} }}"


@settings(max_examples=150, deadline=None)
@given(source=st.one_of(
    st.binary(max_size=60), _soup(_TOKENS, 30).map(str.encode), _operator_files().map(str.encode)))
@example(source=b"fields u;\n\xff")
@example(source=f"fields u; operator A {{ local[1,1]: {'(' * 260}u{')' * 260}*D; }}".encode())
@example(source=f"fields u; operator A {{ local[1,1]: {'-' * 2000}u*D; }}".encode())
def test_main_on_arbitrary_input(tmp_path_factory, source):
    path = tmp_path_factory.getbasetemp() / "fuzz.wno"
    path.write_bytes(source)
    for argv in (["check", "A"], ["geom", "M"], ["bracket", "A", "M"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2, 3)
        assert not re.search(r"\b(nan|zoo)\b", out.getvalue())
