"""Operator file format: parsing and diagnostics."""

import re
from math import comb

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import wno.algebra
from wno.algebra import Fields, _by_order, _Frac
from wno.cli import main
from wno.dsl import MAX_DEGREE, MAX_DEPTH, MAX_TERMS, ParseError, parse
from wno.schouten import skew_check

from conftest import as_expr, jet_expr

u = sp.Symbol("u")

KN_SOURCE = "fields u; operator KN { nonlocal[1,1]: 1*[u_x|u_x]; }"

MKDV_SOURCE = """
fields u;
operator mkdv2 {
  local[1,1]: D^3 + (2/3)*u^2*D + (2/3)*u*u_x;
  nonlocal[1,1]: -(2/3)*[u_x|u_x];
}
"""


class TestParse:
    def test_pure_tail_operator(self):
        doc = parse(KN_SOURCE)
        op = doc.operators["KN"]
        assert not _by_order(op.entry(1, 1))
        [tail] = op.tails
        u_x = jet_expr(doc.fields, 1, 1)
        assert as_expr(tail.constant) == 1
        assert [as_expr(c) for c in (*tail.left, *tail.right)] == [u_x, u_x]

    def test_mkdv_entries(self):
        doc = parse(MKDV_SOURCE)
        op = doc.operators["mkdv2"]
        u, u_x = jet_expr(doc.fields, 1, 0), jet_expr(doc.fields, 1, 1)
        assert [(as_expr(c), k) for c, k in _by_order(op.entry(1, 1))] == [
            (sp.Rational(2, 3) * u * u_x, 0),
            (sp.Rational(2, 3) * u**2, 1),
            (sp.Integer(1), 3),
        ]
        [tail] = op.tails
        assert as_expr(tail.constant) == sp.Rational(-2, 3)
        assert skew_check(op).ok

    def test_firstorder_block(self):
        doc = parse(
            "fields u1, u2; firstorder m { g[1,1]: 1; g[2,2]: 1 + u1^2; w[1,1]: u2; }"
        )
        m = doc.firstorder["m"]
        assert as_expr(m.g[1][1]) == 1 + jet_expr(doc.fields, 1, 0) ** 2
        assert as_expr(m.W[0][0]) == jet_expr(doc.fields, 2, 0)

    def test_derivative_spellings(self):
        doc = parse("fields u; operator A { local[1,1]: u_2x*D + u_x; }")
        u_2x = jet_expr(doc.fields, 1, 2)
        coeff, order = _by_order(doc.operators["A"].entry(1, 1))[1]
        assert (as_expr(coeff), order) == (u_2x, 1)

    def test_comments_and_whitespace(self):
        doc = parse("# heading\nfields u;\noperator A { local[1,1]: D; } # tail comment\n")
        assert "A" in doc.operators


    def test_one_jet_lookup_per_identifier(self, monkeypatch):
        """Each identifier is mapped to its jet once per parse, across blocks; a bad one is not
        kept, so its error points at the token that the parse reaches."""
        calls, original = [], Fields.jet
        monkeypatch.setattr(Fields, "jet", lambda f, i, o=0: calls.append((i, o)) or original(f, i, o))
        parse("fields u; operator A { local[1,1]: u*u_x*D + u_x^2; } operator B { local[1,1]: u^2*D; }")
        assert sorted(calls) == [(1, 0), (1, 1)]
        with pytest.raises(ParseError, match=r"^1:36: bad derivative suffix in 'u_y'"):
            parse("fields u; operator A { local[1,1]: u_y*D + u_y; }")


class TestDiagnostics:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("fields u; operator A { local[1,1] D; }")
        assert err.value.line == 1 and err.value.col > 0

    def test_bad_character_position_after_crlf_comment_and_tab(self):
        with pytest.raises(ParseError, match=r"^4:2: unexpected character '\$'$"):
            parse("fields u;\r\n\r\n# a comment\n\t$")

    def test_undeclared_field(self):
        with pytest.raises(ParseError, match="undeclared field 'v'"):
            parse("fields u; operator A { local[1,1]: v_x*D; }")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("fields u; operator A { local[1,2]: D; }")

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            parse("fields u; operator A { local[1,1]: 0.5*D; }")

    def test_nonrational_tail_constant(self):
        with pytest.raises(ParseError, match="rational"):
            parse("fields u; operator A { nonlocal[1,1]: u*[u_x|u_x]; }")

    def test_metric_with_jets_rejected(self):
        with pytest.raises(ParseError, match="order-0"):
            parse("fields u; firstorder m { g[1,1]: u_x; }")

    def test_missing_fields_declaration(self):
        with pytest.raises(ParseError, match="fields"):
            parse("operator A { local[1,1]: D; }")

    def test_duplicate_names(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("fields u; operator A { } operator A { }")

    @pytest.mark.parametrize(
        "entry, col",
        [
            ("local[1,1]: 1/(u-u)*D;", 38),
            ("local[1,1]: u/((u + 1)^2 - u^2 - 2*u - 1);", 38),
            ("nonlocal[1,1]: 1*[u_x|(u-u)^-2];", 46),
            ("nonlocal[1,1]: 1*[u_x/(0*u)|u_x];", 46),
        ],
    )
    def test_non_finite_coefficient(self, entry, col):
        with pytest.raises(ParseError, match="non-finite coefficient") as err:
            parse(f"fields u; operator A {{ {entry} }}")
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize(
        "entry, message, col",
        [
            ("D^17", "derivative order", 38),
            ("u_17x*D", "derivative order", 36),
            ("u^17*D", "exponent", 38),
            ("D^00000000000000000000017", "derivative order", 38),
        ],
    )
    def test_order_and_exponent_bounds(self, entry, message, col):
        with pytest.raises(ParseError, match=f"{message} exceeds the bound 16") as err:
            parse(f"fields u; operator A {{ local[1,1]: {entry}; }}")
        assert (err.value.line, err.value.col) == (1, col)
        parse("fields u; operator A { local[1,1]: u_16x*u^16*D^16; }")

    @pytest.mark.parametrize(
        "entry, col",
        [
            ("((u^16)^16)^4*D", 36),  # a power
            ("((u^16)^16)^2*((u^16)^16)^2*D", 50),  # a product in a term, at its last factor
            ("(((u^16)^16)^2*((u^16)^16)^2)*D", 50),  # a product in an expression
            ("((u^16)^16)^2/((u^16)^16)^-2*D", 49),  # a quotient
            ("(1/(((u^16)^16)^2 + 1) + 1/((u^16)^16)^2)*D", 59),  # a sum's denominator
        ],
    )
    def test_degree_bound(self, entry, col):
        with pytest.raises(ParseError, match=f"degree exceeds the bound {MAX_DEGREE}") as err:
            parse(f"fields u; operator A {{ local[1,1]: {entry}; }}")
        assert (err.value.line, err.value.col) == (1, col)
        assert MAX_DEGREE == 1023
        top = "((u^16)^16)^3*((u^5)^3)^16*u^15"  # u^1023
        parse(f"fields u, v; operator A {{ local[1,1]: {top}/(1 + {top.replace('u', 'v')})*D; }}")

    def test_integer_literal_digits(self):
        parse(f"fields u; operator A {{ local[1,1]: {'0' * 9}{'7' * 4300}*D; }}")
        op = parse(f"fields u; operator A {{ local[1,1]: {'9' * 600}*D; }}").operators["A"]
        assert [(as_expr(c), k) for c, k in _by_order(op.entry(1, 1))] == [(10**600 - 1, 1)]
        with pytest.raises(ParseError, match="integer literal exceeds 4300 digits") as err:
            parse(f"fields u; operator A {{ local[1,1]: {'7' * 4301}*D; }}")
        assert (err.value.line, err.value.col) == (1, 36)

    @pytest.mark.parametrize("entry, col", [("u^2^2*D", 39), ("-u^2^2*D", 40)])
    def test_one_exponent_per_power(self, entry, col):
        with pytest.raises(ParseError, match="expected ';', got '\\^'") as err:
            parse(f"fields u; operator A {{ local[1,1]: {entry}; }}")
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("entry, value", [("-u^2*D", -u**2), ("(-u)^2*D", u**2)])
    def test_sign_binds_looser_than_power(self, entry, value):
        op = parse(f"fields u; operator A {{ local[1,1]: {entry}; }}").operators["A"]
        (coeff, order), = op.local[0][0]
        assert order == 1 and as_expr(coeff) == value

    def test_zeroth_power_of_zero_is_one(self):
        """``x^0`` is 1 for every coefficient x, the zero one included (it raised ValueError)."""
        op = parse("fields u; operator A { local[1,1]: (u - u)^0*D + u^0; }").operators["A"]
        assert [(as_expr(c), k) for c, k in _by_order(op.entry(1, 1))] == [(1, 0), (1, 1)]

    def test_d_outside_local(self):
        with pytest.raises(ParseError):
            parse("fields u; firstorder m { g[1,1]: D; }")

    def test_d_cannot_name_a_field(self, tmp_path, capsys):
        """``D`` always reads as the x-derivative, so a field named ``D`` could
        never be written: its declaration exits 2, with a message naming D."""
        with pytest.raises(ParseError, match=r"^1:11: D is the x-derivative and cannot name a field$"):
            parse("fields u, D; operator A { local[1,1]: D; }")
        path = tmp_path / "d.wno"
        path.write_text("fields D;\noperator A { local[1,1]: 2*D*D + D_x; }\n")
        assert main(["check", str(path), "A"]) == 2
        assert "D is the x-derivative" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["p", "p2", "r1", "y12"])
    def test_report_names_cannot_name_a_field(self, tmp_path, capsys, name):
        """Reports write ``p``, ``p<k>`` for dual factors and ``r<k>``, ``y<k>``
        for nonlocal variables: a field of such a name would print two
        different factors alike, so the parser and ``Fields`` refuse it."""
        message = f"reports write {name} for a dual or nonlocal factor, so it cannot name a field"
        with pytest.raises(ParseError, match=rf"^2:3: {message}$"):
            parse(f"fields u,\n  {name};")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Fields(("u", name))
        path = tmp_path / "f.wno"
        path.write_text(f"fields {name};\noperator A {{ local[1,1]: {name}*D^3 + 2*{name}*D + {name}_x; }}\n")
        assert main(["check", str(path), "A", "--el"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1:8: {message}\n")

    @pytest.mark.parametrize("name", ["r", "y", "q1", "pu", "P"])
    def test_names_near_the_report_names_are_fields(self, name):
        assert parse(f"fields {name};").fields.names == (name,)


    # the parser recurses once per open parenthesis or unary sign; pytest runs
    # these a few dozen frames deeper than the command line does
    @pytest.mark.parametrize(
        "entry, opener, start",
        [
            ("local[1,1]: {}u{}*D;", "(", 36),
            ("local[1,1]: {}u{}*D;", "-", 36),
            ("local[1,1]: {}u{}*D;", "(+-", 36),
            ("nonlocal[1,1]: {}1{}*[u_x|u_x];", "(", 39),
            ("nonlocal[1,1]: {}1{}*[u_x|u_x];", "-(", 39),
        ],
    )
    def test_nesting_depth_bound(self, entry, opener, start):
        def source(depth):
            opening = (opener * depth)[:depth]
            return f"fields u; operator A {{ {entry.format(opening, ')' * opening.count('('))} }}"

        assert "A" in parse(source(MAX_DEPTH)).operators
        with pytest.raises(ParseError, match=f"nesting exceeds the bound {MAX_DEPTH}") as err:
            parse(source(MAX_DEPTH + 1))
        assert (err.value.line, err.value.col) == (1, start + MAX_DEPTH)


TEN_FIELDS = "fields " + ", ".join(f"u{i}" for i in range(1, 11)) + ";"
TEN_SUM = "(" + " + ".join(f"u{i}" for i in range(1, 11)) + " + 1)"  # 36 characters


class TestTermBound:
    """A power, product, quotient or sum whose numerator or denominator may pass MAX_TERMS terms
    is refused before it is computed, at the token where the degree bound reports."""

    def test_largest_admitted_power(self):
        """``(u1+...+u10+1)^6``, of C(16, 10) = 8008 terms, is the largest power of its family that
        the bound admits: its term count, not the time it takes, guards it."""
        assert MAX_TERMS == 10_000
        op = parse(f"{TEN_FIELDS} operator A {{ local[1,1]: {TEN_SUM}^6*D; }}").operators["A"]
        (coeff, order), = op.local[0][0]
        assert (len(coeff.numer), len(coeff.denom), order) == (comb(16, 10), 1, 1)
        with pytest.raises(ParseError, match=r"^1:74: term count exceeds the bound 10000$"):
            parse(f"{TEN_FIELDS} operator A {{ local[1,1]: {TEN_SUM}^7*D; }}")

    @pytest.mark.parametrize(
        "entry, col",
        [
            ("{s}^16*D", 74),  # a power, at its base
            ("{s}^4*{s}^3*D", 131),  # a product in a term, at its last factor
            ("({s}^4*{s}^3)*D", 131),  # a product in an expression, at its operator
            ("{s}^4/(1/{s}^3)*D", 130),  # a quotient: (s^4 * s^3) / 1
            ("(1/{s}^4 - 1/{s}^3)*D", 134),  # a sum's denominator s^4 * s^3
        ],
    )
    def test_refused_before_it_is_computed(self, monkeypatch, entry, col):
        """Each refusal predicts C(17, 10) = 19448 > MAX_TERMS terms of total degree 7 and takes
        no product of the operands that would pass the bound."""
        products = []
        original = wno.algebra._mul
        monkeypatch.setattr(wno.algebra, "_mul", lambda f, p, q: products.append(len(p) * len(q)) or original(f, p, q))
        with pytest.raises(ParseError, match=rf"^1:{col}: term count exceeds the bound {MAX_TERMS}$"):
            parse(f"{TEN_FIELDS} operator A {{ local[1,1]: {entry.format(s=TEN_SUM)}; }}")
        assert max(products) <= MAX_TERMS

    @pytest.mark.parametrize(
        "source, terms",
        [
            ("fields u; operator A { local[1,1]: ((u + 1)^16)^16*D; }", 257),  # C(31, 16) by the count
            ("fields u, v; operator A { local[1,1]: ((u + v + 1)^16)^4*D; }", 2145),  # C(156, 4)
        ],
    )
    def test_few_generators_bound_the_terms_by_degree(self, source, terms):
        """A power of a sum in one or two generators has far fewer terms than its count of
        exponent vectors predicts: C(e+v, v) for total degree e in v generators admits it."""
        (coeff, _), = parse(source).operators["A"].local[0][0]
        assert (len(coeff.numer), len(coeff.denom)) == (terms, 1)


class TestParseWork:
    """Work counts of a parse, which do not depend on machine speed."""

    @staticmethod
    def counted(monkeypatch, owner, name):
        calls, original = [], getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
        return calls

    @pytest.mark.parametrize("entry, value", [("2*u*D", 2 * u), ("D^2 - 2*u*D", -2 * u)])
    def test_a_terms_first_factor_starts_its_coefficient(self, monkeypatch, entry, value):
        """``2*u*D`` takes one product, ``2 * u``: no sign multiplies the first factor."""
        products = self.counted(monkeypatch, _Frac, "__mul__")
        op = parse(f"fields u; operator A {{ local[1,1]: {entry}; }}").operators["A"]
        assert len(products) == 1
        assert (as_expr(op.local[0][0][-1][0]), op.local[0][0][-1][1]) == (value, 1)

    def test_a_parsed_operator_takes_no_lift(self, monkeypatch):
        """Every coefficient of a block is parsed in its field, which ``WNOperator`` keeps."""
        lifts = self.counted(monkeypatch, wno.algebra, "_lift")
        doc = parse(MKDV_SOURCE)
        assert lifts == [] and doc.operators["mkdv2"].field.symbols == ("u", "u_x")

    def test_a_parsed_metric_classifies_no_entry(self, monkeypatch):
        """A firstorder block whose jets are all of order 0 has its entries' jets classified by
        neither the parser nor ``MetricData``."""
        calls = self.counted(monkeypatch, Fields, "jet_symbols")
        m = parse("fields u1, u2; firstorder m { g[1,1]: 1; g[2,2]: 1 + u1^2; w[1,2]: u1*u2; }").firstorder["m"]
        assert calls == [] and as_expr(m.W[0][1]) == jet_expr(m.fields, 1, 0) * jet_expr(m.fields, 2, 0)


_OP = "fields u; operator A {{ {} }}"

# (source, the ParseError as it prints): every message of ``wno.dsl`` with its position, after
# CRLF, tabs and comments, at end of input, in nested parentheses, in a later block and in a
# firstorder block.  A change to the parser must leave each line of this table as it is.
DIAGNOSTICS = [
    ("fields u;\r\n\r\n# a comment\n\t$", "4:2: unexpected character '$'"),
    (_OP.format("local[1,1]: 0.5*D;"), "1:37: unexpected character '.'"),
    ("fields u; operator A { local[1,1] D; }", "1:35: expected ':', got 'D'"),
    ("fields u; operator A {", "1:23: expected 'ident', got 'end of input'"),
    ("fields u", "1:9: expected ';', got 'end of input'"),
    ("fields u;\noperator A {\n  local[1,1]: u*D # no semicolon\n", "4:1: expected ';', got 'end of input'"),
    (_OP.format("nonlocal[1,1]: 1*[u|u]"), "1:47: expected ';', got '}'"),
    ("fields ;", "1:8: expected 'ident', got ';'"),
    ("fields u; 42", "1:11: expected a declaration"),
    ("fields u;\nfields v;", "2:1: fields may be declared only once"),
    ("operator A { }", "1:1: declare fields before operators"),
    ("firstorder m { }", "1:1: declare fields before firstorder blocks"),
    ("fields u;\n\n  operators A { }", "3:3: unknown declaration 'operators'"),
    ("", "1:1: empty file: no fields declaration"),
    ("# only a comment\n", "2:1: empty file: no fields declaration"),
    ("fields u; operator A { }\nfirstorder A { g[1,1]: 1; }", "2:1: duplicate definition of 'A'"),
    ("fields u; operator A { local[1,1]: D; }\n\n\toperator A { }", "3:2: duplicate definition of 'A'"),
    ("fields u, D;", "1:11: D is the x-derivative and cannot name a field"),
    ("fields u_x;", "1:8: bad field name 'u_x': use letters/digits, no underscores"),
    ("fields u,\n  p;", "2:3: reports write p for a dual or nonlocal factor, so it cannot name a field"),
    ("fields u, u;", "1:13: field names must be unique"),
    (_OP.format("local[1,2]: D;"), "1:32: index 2 out of range 1..1"),
    (_OP.format("local[1,0]: D;"), "1:32: index 0 out of range 1..1"),
    (_OP.format("local[99999,1]: D;"), "1:30: index 99999 out of range 1..1"),
    (_OP.format("g[1,1]: 1;"), "1:24: expected 'local' or 'nonlocal' entry"),
    ("fields u; firstorder m { local[1,1]: D; }", "1:26: expected 'g' or 'w' entry"),
    ("fields u; firstorder m {\n  g[1,1]: 1 + u_x; }",
     "2:11: metric entries must depend on order-0 variables only, got u_x"),
    ("fields u; firstorder m { w[1,1]: u; }", "1:38: firstorder block needs at least one g entry"),
    (_OP.format("local[1,1]: D*u;"), "1:37: D must be the rightmost factor of a term"),
    ("fields u;\r\noperator A {\r\n  local[1,1]: D;\r\n  local[1,1]: u*D^2*D;\r\n}\r\n",
     "4:20: D must be the rightmost factor of a term"),
    (_OP.format(f"local[1,1]: {'(' * 101}u{')' * 101}*D;"), "1:136: nesting exceeds the bound 100"),
    (_OP.format("nonlocal[1,1]: 1/0*[u_x|u_x];"), "1:41: division by zero"),
    (_OP.format("nonlocal[1,1]: -(2/0)*[u|u];"), "1:43: division by zero"),
    (_OP.format("nonlocal[1,1]: u*[u_x|u_x];"), "1:39: expected a rational constant"),
    ("fields u; firstorder m { g[1,1]: 1 ) ; }", "1:36: unexpected ')' in expression"),
    (_OP.format("nonlocal[1,1]: 1*[u_x u_x];"), "1:46: unexpected 'u_x' in expression"),
    (_OP.format("local[1,1]: ((u^16)^16)^4*D;"), "1:36: degree exceeds the bound 1023"),
    ("fields u; firstorder m { g[1,1]: ((u^16)^16)^2*((u^16)^16)^2; }", "1:47: degree exceeds the bound 1023"),
    (_OP.format("local[1,1]: 1/(u-u)*D;"), "1:38: non-finite coefficient: divisor is identically zero"),
    ("fields u, w; operator A {\n  nonlocal[1,2]: 1*[u_x|(u + (u_x/(w - w)))];\n}",
     "2:35: non-finite coefficient: divisor is identically zero"),
    (_OP.format("local[1,1]: D^17;"), "1:38: derivative order exceeds the bound 16"),
    (_OP.format("local[1,1]: D^00000000000000000000017;"), "1:38: derivative order exceeds the bound 16"),
    (_OP.format("local[1,1]: u_17x*D;"), "1:36: derivative order exceeds the bound 16"),
    (_OP.format("local[1,1]: u^17*D;"), "1:38: exponent exceeds the bound 16"),
    ("fields u1, u2; # c\nfirstorder m {\n\tg[1,1]: 1;\r\n\tg[2,2]: u1^17; }", "4:13: exponent exceeds the bound 16"),
    (_OP.format(f"local[1,1]: {'7' * 4301}*D;"), "1:36: integer literal exceeds 4300 digits"),
    (_OP.format("local[1,1]: u*;"), "1:38: expected a number, variable, or parenthesized expression"),
    (_OP.format("local[1,1]: (u + "), "1:42: expected a number, variable, or parenthesized expression"),
    ("fields u; operator A { local[1,1]: (u + ", "1:41: expected a number, variable, or parenthesized expression"),
    ("fields u; firstorder m { g[1,1]: D; }", "1:34: D is only valid inside a local[] entry"),
    (_OP.format("local[1,1]: v_x*D;"), "1:36: undeclared field 'v'"),
    ("fields u;\noperator A { local[1,1]: D; }\noperator B {\n  local[1,1]: u*(1 + (2*v));\n}",
     "4:25: undeclared field 'v'"),
    (_OP.format("local[1,1]: u_y*D + u_y;"), "1:36: bad derivative suffix in 'u_y' (use _x, _2x, ...)"),
]


@pytest.mark.parametrize("source, printed", DIAGNOSTICS)
def test_every_diagnostic_and_its_position(source, printed):
    with pytest.raises(ParseError) as err:
        parse(source)
    line, col, message = printed.split(":", 2)
    assert str(err.value) == printed
    assert (err.value.line, err.value.col, err.value.message) == (int(line), int(col), message[1:])


# -- positions under arbitrary spacing ---------------------------------------------
# An independent reading of the token layout: a run of spaces, tabs and line ends and a comment
# separate tokens; a token is an identifier, a digit run or one other character.
_LAYOUT = re.compile(r"[ \t\r\n]+|#[^\n]*|(?P<token>[A-Za-z][A-Za-z0-9_]*|\d+|.)", re.S)
_SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\n\n\n", " # note ( ; $\n", "#\r\n", "\t# x\n\n"]
_SOUP = ["u", "v", "u_x", "v_2x", "u_y", "w", "0", "2", "17", "D", "D^2", "fields", "operator", "firstorder",
         "local", "nonlocal", "g", "A", "m", "[", "]", ",", ":", ";", "{", "}", "|", "*", "+", "-", "/", "^",
         "(", ")", "[1,1]", "[1,2]", "1.5", "$", "\u00e9"]
_HEADS = ["", "fields u, v;", "fields u; operator A { local[1,1]:", "fields u, v; firstorder m { g[1,1]:"]


def _tokens(source):
    return [m["token"] for m in _LAYOUT.finditer(source) if m["token"]]


@st.composite
def _spaced(draw, tokens):
    """``tokens`` joined by random runs of spaces, tabs, CRLF, blank lines and comments."""
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    lead = draw(st.sampled_from(["", *_SEPARATORS]))
    return lead + "".join(t + s for t, s in zip(tokens, seps))


def _valid_files():
    """Operator files by the grammar, over one or two fields, with a firstorder block."""
    atoms = st.sampled_from(["u", "v", "u_x", "v_x", "u_2x", "1", "2", "3", "(2/3)", "(-1)"])
    expr = st.recursive(atoms, lambda e: st.one_of(
        st.builds("({} + {})".format, e, e), st.builds("{}*{}".format, e, e), st.builds("{} - {}".format, e, e),
        st.builds("{}/(1 + {}^2)".format, e, e), st.builds("-{}^2".format, e)), max_leaves=4)
    order0 = st.recursive(st.sampled_from(["u", "v", "1", "2"]), lambda e: st.one_of(
        st.builds("({} + {})".format, e, e), st.builds("{}*{}".format, e, e)), max_leaves=3)
    pair = st.sampled_from(["1,1", "1,2", "2,1", "2,2"])
    term = st.builds("{}*D^{}".format, expr, st.integers(0, 3)) | st.builds("{}*D".format, expr) | expr
    local = st.builds("local[{}]: {};".format, pair, st.lists(term, min_size=1, max_size=3).map(" - ".join))
    tail = st.builds("nonlocal[{}]: {}*[{}|{}];".format, pair, st.sampled_from(["1", "-(2/3)", "3/4"]), expr, expr)
    metric = st.builds("{}[{}]: {};".format, st.sampled_from("gw"), pair, order0)
    return st.builds(
        "fields u, v; operator A {{ {} }} firstorder m {{ g[1,1]: 1 + u^2; {} }} operator B {{ {} }}".format,
        st.lists(local | tail, max_size=3).map(" ".join), st.lists(metric, max_size=3).map(" ".join),
        st.lists(local, max_size=2).map(" ".join))


def _parsed(source):
    """What a parse of ``source`` gives, as comparable values, or its message when it fails."""
    try:
        doc = parse(source)
    except ParseError as exc:
        return exc.message
    n = doc.fields.n
    ops = {name: ([_by_order(op.entry(i, j)) for i in range(1, n + 1) for j in range(1, n + 1)], op.tails)
           for name, op in doc.operators.items()}
    return doc.fields, ops, {name: (m.g, m.W) for name, m in doc.firstorder.items()}


def _offset(source, line, col):
    """The offset of 1-based (line, col) in ``source``, whose lines end at ``\\n``."""
    lines = source.split("\n")
    assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1
    return sum(len(s) + 1 for s in lines[: line - 1]) + col - 1


@settings(max_examples=150, deadline=None)
@given(source=st.one_of(
    st.tuples(st.sampled_from(_HEADS), st.lists(st.sampled_from(_SOUP), max_size=30)).flatmap(
        lambda t: _spaced(_tokens(t[0]) + t[1])),
    _valid_files().flatmap(lambda s: _spaced(_tokens(s)))))
def test_every_error_addresses_a_token_start_or_the_end(source):
    """A ParseError's (line, col) is where a token or a bad character starts, or the end of input."""
    try:
        parse(source)
    except ParseError as exc:
        starts = {m.start() for m in _LAYOUT.finditer(source) if m["token"]}
        assert _offset(source, exc.line, exc.col) in starts | {len(source)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), source=_valid_files())
def test_spacing_and_comments_change_no_parse(data, source):
    """Blank lines, tabs, CRLF and comments between the tokens of a file leave its operators'
    rows and tails, its metric data and any error message as they are."""
    spaced = data.draw(_spaced(_tokens(source)))
    assert _parsed(spaced) == _parsed(source)
