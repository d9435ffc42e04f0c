"""Text format for declaring fields, operators and first-order metric data.

Grammar (EBNF):

    file       := decl*
    decl       := fields | operator | firstorder
    fields     := "fields" ident ("," ident)* ";"
    operator   := "operator" ident "{" entry* "}"
    entry      := "local[" int "," int "]:" diffexpr ";"
                | "nonlocal[" int "," int "]:" rational "*" "[" expr "|" expr "]" ";"
    firstorder := "firstorder" ident "{" ("g[" int "," int "]:" expr ";")+
                                         ("w[" int "," int "]:" expr ";")* "}"
    diffexpr   := diffterm (("+" | "-") diffterm)*
    diffterm   := [expr "*"] "D" ["^" int] | expr          -- D^0 implicit
    expr       := sum | product | power | "(" expr ")" | rational | jetname
    jetname    := field | field "_x" | field "_<k>x"

A field cannot be named ``D``, the x-derivative, nor ``p``, ``p<k>``,
``r<k>`` or ``y<k>``, which reports give the dual and nonlocal factors.
Numbers are integers of at most ``MAX_DIGITS`` digits; rationals are
written as quotients (``2/3``).  Floats are rejected.  Derivative orders
(``D^k``, ``u_kx``) and exponents are at most ``MAX_POWER``: the cost of a
check grows steeply with them, and an unbounded one would let a short input
run without end.  Each power, product, quotient and sum an expression builds
has exponents of at most ``MAX_DEGREE`` in its reduced numerator and
denominator, far below the largest exponent a packed monomial holds (see
``wno.algebra._Field``).  Parentheses and unary signs nest at most
``MAX_DEPTH`` deep, so the recursive descent stays within Python's stack.  Each
``nonlocal[i,j]`` entry declares one rank-one tail ``e * w d^(-1) z`` whose
vectors are supported in slots i and j.  Entries are parsed into one
coefficient field per block (``Parser.enter_block``).
"""

from __future__ import annotations

import contextlib
import itertools
import re
from dataclasses import dataclass, field

from .algebra import (
    Coeff, Fields, Jet, _DIGITS, _check_field_name, _exponents_below, _int_value, _rational, coeff_field
)
from .geometry import MetricData
from .schouten import DiffRow, Tail, WNOperator


MAX_POWER = 16
MAX_DEGREE = 2**10 - 1  # one less than a power of two: a bound on the bit length of exponents
MAX_DEPTH = 100  # nesting of parentheses and unary signs
MAX_DIGITS = 4300  # digits of an integer literal


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # ident | int | punct | end
    text: str
    line: int
    col: int


_PUNCT = ("{", "}", "[", "]", ":", ";", ",", "|", "*", "+", "-", "/", "^", "(", ")")
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<punct>" + "|".join(re.escape(c) for c in _PUNCT) + ")"
    r"|(?P<bad>.)"
)


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", line, col)
        elif kind:  # whitespace and comments have no group
            tokens.append(Token(kind, m[0], line, col))
    tokens.append(Token("end", "", line, len(source) - line_start + 1))
    return tokens


@dataclass
class OperatorFile:
    fields: Fields
    operators: dict[str, WNOperator] = field(default_factory=dict)
    firstorder: dict[str, MetricData] = field(default_factory=dict)


class Parser:
    """Recursive-descent parser for the operator file format."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.fields: Fields | None = None
        self.field = self.gens = None  # the current block's field and its generators
        self.depth = 0  # open parentheses and unary signs

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text or "end of input"
            self.fail(f"expected {want!r}, got {got!r}")
        return self.next()

    # -- declarations -------------------------------------------------------

    def parse_file(self) -> OperatorFile:
        out = None
        while self.peek().kind != "end":
            tok = self.peek()
            if tok.kind != "ident":
                self.fail("expected a declaration")
            if tok.text == "fields":
                self.parse_fields()
                if out is None:
                    out = OperatorFile(self.fields)
                else:
                    self.fail("fields may be declared only once", tok)
            elif tok.text == "operator":
                if out is None:
                    self.fail("declare fields before operators", tok)
                name, op = self.parse_operator()
                self._check_fresh(out, name, tok)
                out.operators[name] = op
            elif tok.text == "firstorder":
                if out is None:
                    self.fail("declare fields before firstorder blocks", tok)
                name, metric = self.parse_firstorder()
                self._check_fresh(out, name, tok)
                out.firstorder[name] = metric
            else:
                self.fail(f"unknown declaration {tok.text!r}")
        if out is None:
            self.fail("empty file: no fields declaration")
        return out

    def _check_fresh(self, out: OperatorFile, name: str, tok: Token):
        if name in out.operators or name in out.firstorder:
            self.fail(f"duplicate definition of {name!r}", tok)

    def parse_fields(self) -> None:
        self.expect("ident", "fields")
        toks = [self.expect("ident")]
        while self.peek().text == ",":
            self.next()
            toks.append(self.expect("ident"))
        self.expect("punct", ";")
        for tok in toks:
            if tok.text == "D":  # its order-0 jet could be written nowhere
                self.fail("D is the x-derivative and cannot name a field", tok)
            try:
                _check_field_name(tok.text)
            except ValueError as exc:
                self.fail(str(exc), tok)
        try:
            self.fields = Fields(tuple(tok.text for tok in toks))
        except ValueError as exc:
            self.fail(str(exc))

    def enter_block(self) -> None:
        """Fix the field of the block ahead: the rational functions of the jet
        names among its tokens.  Never raises; the parse reports bad names."""
        symbols = set()
        for tok in itertools.takewhile(lambda t: t.text != "}", self.tokens[self.pos :]):
            if tok.kind == "ident" and tok.text.partition("_")[0] in self.fields.names:
                with contextlib.suppress(ParseError):
                    symbols.add(self.jet_from_name(tok))
        self.field = coeff_field(symbols)
        self.gens = dict(zip(self.field.symbols, self.field.gens))

    def parse_index_pair(self) -> tuple[int, int]:
        self.expect("punct", "[")
        itok = self.expect("int")
        self.expect("punct", ",")
        jtok = self.expect("int")
        self.expect("punct", "]")
        i, j = self.integer(itok), self.integer(jtok)
        n = self.fields.n
        for tok, value in ((itok, i), (jtok, j)):
            if not 1 <= value <= n:
                raise ParseError(f"index {value} out of range 1..{n}", tok.line, tok.col)
        return i, j

    def parse_operator(self) -> tuple[str, WNOperator]:
        self.expect("ident", "operator")
        name = self.expect("ident").text
        self.expect("punct", "{")
        self.enter_block()
        n = self.fields.n
        local: list[list[DiffRow]] = [[[] for _ in range(n)] for _ in range(n)]
        tails: list[Tail] = []
        while self.peek().text != "}":
            kind = self.expect("ident")
            if kind.text == "local":
                i, j = self.parse_index_pair()
                self.expect("punct", ":")
                local[i - 1][j - 1].extend(self.parse_diffexpr())
                self.expect("punct", ";")
            elif kind.text == "nonlocal":
                i, j = self.parse_index_pair()
                self.expect("punct", ":")
                constant = self.parse_rational()
                self.expect("punct", "*")
                self.expect("punct", "[")
                w_expr = self.parse_expr(stop={"|"})
                self.expect("punct", "|")
                z_expr = self.parse_expr(stop={"]"})
                self.expect("punct", "]")
                self.expect("punct", ";")
                wvec = [self.field.zero] * n
                zvec = [self.field.zero] * n
                wvec[i - 1] = w_expr
                zvec[j - 1] = z_expr
                tails.append(Tail(constant, tuple(wvec), tuple(zvec)))
            else:
                self.fail("expected 'local' or 'nonlocal' entry", kind)
        self.expect("punct", "}")
        return name, WNOperator(self.fields, local, tails)

    def parse_firstorder(self) -> tuple[str, MetricData]:
        self.expect("ident", "firstorder")
        name = self.expect("ident").text
        self.expect("punct", "{")
        self.enter_block()
        n = self.fields.n
        g = [[self.field.zero] * n for _ in range(n)]
        w = [[self.field.zero] * n for _ in range(n)]
        saw_g = False
        while self.peek().text != "}":
            kind = self.expect("ident")
            if kind.text not in ("g", "w"):
                self.fail("expected 'g' or 'w' entry", kind)
            i, j = self.parse_index_pair()
            self.expect("punct", ":")
            etok = self.peek()
            expr = self.parse_expr(stop={";"})
            self.expect("punct", ";")
            for sym, _, order in self.fields.jet_symbols(expr):
                if order:
                    raise ParseError(
                        f"metric entries must depend on order-0 variables only, got {sym}",
                        etok.line,
                        etok.col,
                    )
            target = g if kind.text == "g" else w
            target[i - 1][j - 1] = expr
            saw_g = saw_g or kind.text == "g"
        self.expect("punct", "}")
        if not saw_g:
            self.fail("firstorder block needs at least one g entry")
        try:
            metric = MetricData(self.fields, g, w)
        except ValueError as exc:
            self.fail(str(exc))
        return name, metric

    # -- expressions ---------------------------------------------------------

    def parse_diffexpr(self) -> DiffRow:
        """Sum of coefficient * D^k terms; D^0 is implicit."""
        entries = [self.parse_diffterm(sign=1)]
        while self.peek().text in ("+", "-"):
            sign = 1 if self.next().text == "+" else -1
            entries.append(self.parse_diffterm(sign=sign))
        return entries

    def parse_diffterm(self, sign: int) -> tuple[Coeff, int]:
        coeff = _rational(self.field, sign)
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "D":
                self.next()
                if self.peek().text == "^":
                    self.next()
                    order = self.integer(self.expect("int"), "derivative order")
                else:
                    order = 1
                if self.peek().text == "*":
                    self.fail("D must be the rightmost factor of a term")
                return coeff, order
            factor = self.parse_power()
            while self.peek().text == "/":
                slash = self.next()
                factor = self.bounded(slash, factor / self.nonzero(self.peek(), self.parse_power()))
            coeff = self.bounded(tok, coeff * factor)
            if self.peek().text == "*":
                self.next()
                continue
            return coeff, 0

    def nested(self, parse):
        """Step past a ``(`` or unary sign and ``parse()`` one level deeper."""
        tok = self.next()
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting exceeds the bound {MAX_DEPTH}", tok.line, tok.col)
        self.depth += 1
        try:
            value = parse()
            if tok.text == "(":
                self.expect("punct", ")")
            return -value if tok.text == "-" else value
        finally:
            self.depth -= 1

    def parse_rational(self) -> Coeff:
        tok = self.peek()
        if tok.text in ("-", "+", "("):
            return self.nested(self.parse_rational)
        if tok.kind == "int":
            self.next()
            value = _rational(self.field, self.integer(tok))
            if self.peek().text == "/":
                self.next()
                qtok = self.expect("int")
                q = self.integer(qtok)
                if q == 0:
                    raise ParseError("division by zero", qtok.line, qtok.col)
                value = value / q
            return value
        self.fail("expected a rational constant")

    def parse_expr(self, stop: set[str]) -> Coeff:
        expr = self.parse_sum()
        tok = self.peek()
        if tok.text not in stop and tok.kind != "end":
            self.fail(f"unexpected {tok.text!r} in expression")
        return expr

    def parse_sum(self) -> Coeff:
        left = self.parse_product()
        while self.peek().text in ("+", "-"):
            tok = self.next()
            right = self.parse_product()
            left = self.bounded(tok, left + right if tok.text == "+" else left - right)
        return left

    def parse_product(self) -> Coeff:
        left = self.parse_power()
        while self.peek().text in ("*", "/"):
            tok = self.next()
            if tok.text == "*":
                left = self.bounded(tok, left * self.parse_power())
            else:
                left = self.bounded(tok, left / self.nonzero(self.peek(), self.parse_power()))
        return left

    def bounded(self, tok: Token, value: Coeff) -> Coeff:
        """``value``, if no exponent of it passes MAX_DEGREE."""
        if not _exponents_below(value, MAX_DEGREE.bit_length()):
            raise ParseError(f"degree exceeds the bound {MAX_DEGREE}", tok.line, tok.col)
        return value

    def nonzero(self, tok: Token, divisor: Coeff) -> Coeff:
        """Refuse a divisor that is identically zero: the coefficient would be nan or zoo."""
        if divisor == 0:
            raise ParseError("non-finite coefficient: divisor is identically zero", tok.line, tok.col)
        return divisor

    def integer(self, tok: Token, bounded: str | None = None) -> int:
        """The value of an integer token: of at most MAX_DIGITS digits, or at
        most MAX_POWER when it is the ``bounded`` quantity (an order, an exponent)."""
        digits = tok.text.lstrip("0") or "0"
        if bounded and (len(digits) > len(str(MAX_POWER)) or int(digits) > MAX_POWER):
            raise ParseError(f"{bounded} exceeds the bound {MAX_POWER}", tok.line, tok.col)
        if len(digits) > MAX_DIGITS:
            raise ParseError(f"integer literal exceeds {MAX_DIGITS} digits", tok.line, tok.col)
        return int(digits) if len(digits) < _DIGITS else _int_value(digits)

    def parse_power(self) -> Coeff:
        tok = self.peek()
        base = self.parse_atom()
        # a signed atom has taken its exponent already: -u^2 is -(u^2), and -u^2^2 is refused
        if tok.text not in ("-", "+") and self.peek().text == "^":
            self.next()
            neg = False
            if self.peek().text == "-":
                self.next()
                neg = True
            exp = self.integer(self.expect("int"), "exponent")
            # dividing, not a negative power, keeps the denominator's sign canonical
            return self.bounded(tok, 1 / self.nonzero(tok, base) ** exp if neg else base**exp)
        return base

    def parse_atom(self) -> Coeff:
        tok = self.peek()
        if tok.text in ("-", "+"):
            return self.nested(self.parse_power)
        if tok.text == "(":
            return self.nested(self.parse_sum)
        if tok.kind == "int":
            self.next()
            return _rational(self.field, self.integer(tok))
        if tok.kind == "ident":
            self.next()
            return self.gens[self.jet_from_name(tok)]
        self.fail("expected a number, variable, or parenthesized expression")

    def jet_from_name(self, tok: Token) -> Jet:
        name = tok.text
        if name == "D":
            self.fail("D is only valid inside a local[] entry", tok)
        base, _, suffix = name.partition("_")
        if base not in self.fields.names:
            raise ParseError(f"undeclared field {base!r}", tok.line, tok.col)
        if "_" not in name:
            return self.fields.jet(self.fields.names.index(base) + 1, 0)
        m = re.fullmatch(r"(\d*)x", suffix)
        if not m:
            self.fail(f"bad derivative suffix in {name!r} (use _x, _2x, ...)", tok)
        order = self.integer(Token("int", m.group(1) or "1", tok.line, tok.col), "derivative order")
        return self.fields.jet(self.fields.names.index(base) + 1, order)


def parse(source: str) -> OperatorFile:
    return Parser(source).parse_file()
