"""Operator file format: parsing and diagnostics."""

import pytest
import sympy as sp

from wno.algebra import Fields, _by_order
from wno.cli import main
from wno.dsl import MAX_DEGREE, MAX_DEPTH, ParseError, parse
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
