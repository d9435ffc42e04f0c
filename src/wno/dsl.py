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

The source is read in one ``finditer`` pass into ``(kind, text, offset)``
tuples; a ``ParseError`` counts its line and column from the offset only when
it is raised (``_error``).  A field cannot be named ``D``, the x-derivative,
nor ``p``, ``p<k>``, ``r<k>`` or ``y<k>``, which reports give the dual and
nonlocal factors.  Numbers are integers of at most ``MAX_DIGITS`` digits;
rationals are written as quotients (``2/3``).  Floats are rejected.
Derivative orders (``D^k``, ``u_kx``) and exponents are at most
``MAX_POWER``: the cost of a check grows steeply with them, and an unbounded
one would let a short input run without end.  Each power, product, quotient
and sum an expression builds has at most ``MAX_TERMS`` terms in its numerator
and in its denominator, by a bound taken before it is computed
(``algebra._terms_bound``), and exponents of at most ``MAX_DEGREE`` in its
reduced numerator and denominator, far below the largest exponent a packed
monomial holds (see ``wno.algebra._Field``).  Parentheses and unary signs nest
at most ``MAX_DEPTH`` deep, so the recursive descent stays within Python's
stack.  Each ``nonlocal[i,j]`` entry declares one rank-one tail
``e * w d^(-1) z`` whose vectors are supported in slots i and j.  Entries are
parsed into one coefficient field per block (``Parser.enter_block``), and the
first factor of a term is the start of its coefficient.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import re
from dataclasses import dataclass, field

from .algebra import (
    Coeff, Fields, Jet, _DIGITS, _check_field_name, _exponents_below, _int_value, _rational, _terms_bound,
    coeff_field
)
from .geometry import MetricData
from .schouten import DiffRow, Tail, WNOperator


MAX_POWER = 16
MAX_DEGREE = 2**10 - 1  # one less than a power of two: a bound on the bit length of exponents
MAX_DEPTH = 100  # nesting of parentheses and unary signs
MAX_DIGITS = 4300  # digits of an integer literal
MAX_TERMS = 10_000  # terms of the numerator or the denominator of a coefficient
_POWER_DIGITS = len(str(MAX_POWER))
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


Token = tuple[str, str, int]  # (kind: ident | int | punct | end, text, offset in the source)

_TOKEN_RE = re.compile(
    r"(?P<punct>[{}\[\]:;,|*+\-/^()])"
    r"|[ \t\r\n]+"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|#[^\n]*"
    r"|(?P<bad>.)"
)

_SUFFIX_RE = re.compile(r"(\d*)x")  # the derivative suffix of a jet name, after its "_"


def _error(source: str, message: str, offset: int) -> ParseError:
    """The ParseError at ``offset`` of ``source``, its line and column counted from the offset."""
    return ParseError(message, source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset))


def tokenize(source: str) -> list[Token]:
    tokens = [(kind, m[0], m.start()) for m in _TOKEN_RE.finditer(source) if (kind := m.lastgroup)]
    for kind, text, offset in tokens:
        if kind == "bad":
            raise _error(source, f"unexpected character {text!r}", offset)
    tokens.append(("end", "", len(source)))
    return tokens


@dataclass
class OperatorFile:
    fields: Fields
    operators: dict[str, WNOperator] = field(default_factory=dict)
    firstorder: dict[str, MetricData] = field(default_factory=dict)


class Parser:
    """Recursive-descent parser for the operator file format."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.fields: Fields | None = None
        self.field = self.gens = None  # the current block's field and its generators
        self.jets: dict[str, Jet] = {}  # identifier -> its jet (``jet_from_name``)
        self.depth = 0  # open parentheses and unary signs

    # -- token plumbing ---------------------------------------------------

    def next(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, message: str, tok: Token | None = None):
        raise _error(self.source, message, (tok or self.tokens[self.pos])[2])

    def expect(self, want: str) -> Token:
        """The next token, if it is ``want``: a kind (``ident``, ``int``) or a text."""
        tok = self.tokens[self.pos]
        if (tok[0] if want in ("ident", "int") else tok[1]) != want:
            self.fail(f"expected {want!r}, got {tok[1] or 'end of input'!r}")
        self.pos += 1
        return tok

    # -- declarations -------------------------------------------------------

    def parse_file(self) -> OperatorFile:
        out = None
        while (tok := self.tokens[self.pos])[0] != "end":
            if tok[0] != "ident":
                self.fail("expected a declaration")
            if tok[1] == "fields":
                self.parse_fields()
                if out is None:
                    out = OperatorFile(self.fields)
                else:
                    self.fail("fields may be declared only once", tok)
            elif tok[1] == "operator":
                if out is None:
                    self.fail("declare fields before operators", tok)
                name, op = self.parse_operator()
                self._check_fresh(out, name, tok)
                out.operators[name] = op
            elif tok[1] == "firstorder":
                if out is None:
                    self.fail("declare fields before firstorder blocks", tok)
                name, metric = self.parse_firstorder()
                self._check_fresh(out, name, tok)
                out.firstorder[name] = metric
            else:
                self.fail(f"unknown declaration {tok[1]!r}")
        if out is None:
            self.fail("empty file: no fields declaration")
        return out

    def _check_fresh(self, out: OperatorFile, name: str, tok: Token):
        if name in out.operators or name in out.firstorder:
            self.fail(f"duplicate definition of {name!r}", tok)

    def parse_fields(self) -> None:
        self.expect("fields")
        toks = [self.expect("ident")]
        while self.tokens[self.pos][1] == ",":
            self.pos += 1
            toks.append(self.expect("ident"))
        self.expect(";")
        for tok in toks:
            if tok[1] == "D":  # its order-0 jet could be written nowhere
                self.fail("D is the x-derivative and cannot name a field", tok)
            try:
                _check_field_name(tok[1])
            except ValueError as exc:
                self.fail(str(exc), tok)
        try:
            self.fields = Fields(tuple(tok[1] for tok in toks))
        except ValueError as exc:
            self.fail(str(exc))

    def enter_block(self) -> None:
        """Fix the field of the block ahead: the rational functions of the jet
        names among its tokens.  Never raises; the parse reports bad names."""
        idents, symbols = {}, set()
        for tok in itertools.islice(self.tokens, self.pos, None):
            if tok[1] == "}":
                break
            if tok[0] == "ident":
                idents[tok[1]] = tok
        for name, tok in idents.items():  # each identifier once
            if name.partition("_")[0] in self.fields.names:
                with contextlib.suppress(ParseError):
                    symbols.add(self.jet_from_name(tok))
        self.field = coeff_field(symbols)
        self.gens = dict(zip(self.field.symbols, self.field.gens))

    def parse_index_pair(self) -> tuple[int, int]:
        self.expect("[")
        itok = self.expect("int")
        self.expect(",")
        jtok = self.expect("int")
        self.expect("]")
        i, j = self.integer(itok), self.integer(jtok)
        n = self.fields.n
        for tok, value in ((itok, i), (jtok, j)):
            if not 1 <= value <= n:
                self.fail(f"index {value} out of range 1..{n}", tok)
        return i, j

    def parse_operator(self) -> tuple[str, WNOperator]:
        self.expect("operator")
        name = self.expect("ident")[1]
        self.expect("{")
        self.enter_block()
        n = self.fields.n
        local: list[list[DiffRow]] = [[[] for _ in range(n)] for _ in range(n)]
        tails: list[Tail] = []
        while self.tokens[self.pos][1] != "}":
            kind = self.expect("ident")
            if kind[1] == "local":
                i, j = self.parse_index_pair()
                self.expect(":")
                local[i - 1][j - 1].extend(self.parse_diffexpr())
                self.expect(";")
            elif kind[1] == "nonlocal":
                i, j = self.parse_index_pair()
                self.expect(":")
                constant = self.parse_rational()
                self.expect("*")
                self.expect("[")
                w_expr = self.parse_expr(stop="|")
                self.expect("|")
                z_expr = self.parse_expr(stop="]")
                self.expect("]")
                self.expect(";")
                wvec = [self.field.zero] * n
                zvec = [self.field.zero] * n
                wvec[i - 1] = w_expr
                zvec[j - 1] = z_expr
                tails.append(Tail(constant, tuple(wvec), tuple(zvec)))
            else:
                self.fail("expected 'local' or 'nonlocal' entry", kind)
        self.pos += 1
        return name, WNOperator(self.fields, local, tails)

    def parse_firstorder(self) -> tuple[str, MetricData]:
        self.expect("firstorder")
        name = self.expect("ident")[1]
        self.expect("{")
        self.enter_block()
        n = self.fields.n
        g = [[self.field.zero] * n for _ in range(n)]
        w = [[self.field.zero] * n for _ in range(n)]
        raised = any("_" in s for s in self.field.symbols)  # a jet of positive order, by its suffix
        saw_g = False
        while self.tokens[self.pos][1] != "}":
            kind = self.expect("ident")
            if kind[1] not in ("g", "w"):
                self.fail("expected 'g' or 'w' entry", kind)
            i, j = self.parse_index_pair()
            self.expect(":")
            etok = self.tokens[self.pos]
            expr = self.parse_expr(stop=";")
            self.expect(";")
            for sym, _, order in self.fields.jet_symbols(expr) if raised else ():
                if order:
                    self.fail(f"metric entries must depend on order-0 variables only, got {sym}", etok)
            target = g if kind[1] == "g" else w
            target[i - 1][j - 1] = expr
            saw_g = saw_g or kind[1] == "g"
        self.pos += 1
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
        entries = [self.parse_diffterm(False)]
        while (sign := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            entries.append(self.parse_diffterm(sign == "-"))
        return entries

    def parse_diffterm(self, negated: bool) -> tuple[Coeff, int]:
        """A term ``c*D^k``, its first factor the start of ``c``, negated after the product."""
        coeff = None
        while True:
            tok = self.tokens[self.pos]
            if tok[1] == "D":
                self.pos += 1
                if self.tokens[self.pos][1] == "^":
                    self.pos += 1
                    order = self.integer(self.expect("int"), "derivative order")
                else:
                    order = 1
                if self.tokens[self.pos][1] == "*":
                    self.fail("D must be the rightmost factor of a term")
                coeff = self.field.one if coeff is None else coeff
                return -coeff if negated else coeff, order
            factor = self.parse_power()
            while self.tokens[self.pos][1] == "/":
                slash = self.next()
                factor = self.combine(slash, "/", factor, self.nonzero(self.tokens[self.pos], self.parse_power()))
            coeff = factor if coeff is None else self.combine(tok, "*", coeff, factor)
            if self.tokens[self.pos][1] != "*":
                return -coeff if negated else coeff, 0
            self.pos += 1

    def nested(self, parse):
        """Step past a ``(`` or unary sign and ``parse()`` one level deeper."""
        tok = self.next()
        if self.depth == MAX_DEPTH:
            self.fail(f"nesting exceeds the bound {MAX_DEPTH}", tok)
        self.depth += 1
        try:
            value = parse()
            if tok[1] == "(":
                self.expect(")")
            return -value if tok[1] == "-" else value
        finally:
            self.depth -= 1

    def parse_rational(self) -> Coeff:
        tok = self.tokens[self.pos]
        if tok[1] in ("-", "+", "("):
            return self.nested(self.parse_rational)
        if tok[0] == "int":
            self.pos += 1
            value = _rational(self.field, self.integer(tok))
            if self.tokens[self.pos][1] == "/":
                self.pos += 1
                qtok = self.expect("int")
                q = self.integer(qtok)
                if q == 0:
                    self.fail("division by zero", qtok)
                value = value / q
            return value
        self.fail("expected a rational constant")

    def parse_expr(self, stop: str) -> Coeff:
        expr = self.parse_sum()
        tok = self.tokens[self.pos]
        if tok[1] != stop and tok[0] != "end":
            self.fail(f"unexpected {tok[1]!r} in expression")
        return expr

    def parse_sum(self) -> Coeff:
        left = self.parse_product()
        while self.tokens[self.pos][1] in ("+", "-"):
            tok = self.next()
            left = self.combine(tok, tok[1], left, self.parse_product())
        return left

    def parse_product(self) -> Coeff:
        left = self.parse_power()
        while self.tokens[self.pos][1] in ("*", "/"):
            tok = self.next()
            right = self.parse_power() if tok[1] == "*" else self.nonzero(self.tokens[self.pos], self.parse_power())
            left = self.combine(tok, tok[1], left, right)
        return left

    def combine(self, tok: Token, op: str, a: Coeff, b) -> Coeff:
        """``a op b`` for ``op`` one of ``+ - * /``, or ``^`` with an exponent ``b``, refused at
        ``tok`` when its numerator or denominator may pass MAX_TERMS terms, which is predicted
        before it is computed, or when an exponent of it passes MAX_DEGREE."""
        if _terms_bound(op, a, b, MAX_TERMS) > MAX_TERMS:
            self.fail(f"term count exceeds the bound {MAX_TERMS}", tok)
        # dividing, not a negative power, keeps the denominator's sign canonical
        value = _OPS[op](a, b) if op != "^" else a**b if b >= 0 else 1 / a**-b
        if not _exponents_below(value, MAX_DEGREE.bit_length()):
            self.fail(f"degree exceeds the bound {MAX_DEGREE}", tok)
        return value

    def nonzero(self, tok: Token, divisor: Coeff) -> Coeff:
        """Refuse a divisor that is identically zero: the coefficient would be nan or zoo."""
        if divisor == 0:
            self.fail("non-finite coefficient: divisor is identically zero", tok)
        return divisor

    def integer(self, tok: Token, bounded: str | None = None) -> int:
        """The value of an integer token: of at most MAX_DIGITS digits, or at
        most MAX_POWER when it is the ``bounded`` quantity (an order, an exponent)."""
        digits = tok[1]
        if len(digits) > _POWER_DIGITS:  # a shorter literal needs no zeros stripped
            digits = digits.lstrip("0") or "0"
        if bounded and (len(digits) > _POWER_DIGITS or int(digits) > MAX_POWER):
            self.fail(f"{bounded} exceeds the bound {MAX_POWER}", tok)
        if len(digits) > MAX_DIGITS:
            self.fail(f"integer literal exceeds {MAX_DIGITS} digits", tok)
        return int(digits) if len(digits) < _DIGITS else _int_value(digits)

    def parse_power(self) -> Coeff:
        """An atom with an optional exponent; a signed atom takes its exponent inside the sign:
        -u^2 is -(u^2), and -u^2^2 is refused."""
        tok = self.tokens[self.pos]
        kind, text = tok[0], tok[1]
        if kind == "ident":
            self.pos += 1
            base = self.gens[self.jets.get(text) or self.jet_from_name(tok)]
        elif kind == "int":
            self.pos += 1
            base = _rational(self.field, self.integer(tok))
        elif text in ("-", "+"):
            return self.nested(self.parse_power)
        elif text == "(":
            base = self.nested(self.parse_sum)
        else:
            self.fail("expected a number, variable, or parenthesized expression")
        if self.tokens[self.pos][1] != "^":
            return base
        self.pos += 1
        neg = self.tokens[self.pos][1] == "-"
        if neg:
            self.pos += 1
        exp = self.integer(self.expect("int"), "exponent")
        return self.combine(tok, "^", self.nonzero(tok, base) if neg else base, -exp if neg else exp)

    def jet_from_name(self, tok: Token) -> Jet:
        """The jet that ``tok`` names, found once per parse: ``self.jets`` keeps it, not an error."""
        name = tok[1]
        if name in self.jets:
            return self.jets[name]
        if name == "D":
            self.fail("D is only valid inside a local[] entry", tok)
        base, _, suffix = name.partition("_")
        if base not in self.fields.names:
            self.fail(f"undeclared field {base!r}", tok)
        order = 0
        if "_" in name:
            m = _SUFFIX_RE.fullmatch(suffix)
            if not m:
                self.fail(f"bad derivative suffix in {name!r} (use _x, _2x, ...)", tok)
            order = self.integer(("int", m.group(1) or "1", tok[2]), "derivative order")
        jet = self.jets[name] = self.fields.jet(self.fields.names.index(base) + 1, order)
        return jet


def parse(source: str) -> OperatorFile:
    return Parser(source).parse_file()
