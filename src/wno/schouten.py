"""Weakly nonlocal operators, their encoding as degree-2 values, and the
variational bracket test for the Poisson property.

An operator is an n x n matrix of finite-order differential-operator
entries plus tail summands ``e * w d^(-1) z`` with rational constants e and
vectors w, z of rational-function coefficients.  The encoding sends a local
entry ``c d^k`` in slot (i, j) to ``c * p_i p_j[k]`` and each tail to
``e * (sum_i w_i p_i) * v`` for a nonlocal variable v whose density is
``sum_j z_j p_j``.

The bracket of two operator encodings is computed slot-wise from their
variational-derivative tuples,

    [P, Q] = sum_i dP/du_i * dQ/dp_i + dQ/du_i * dP/dp_i ,

which is the symmetric bilinear form that the self-bracket formula
``[P, P] = 2 sum_i dP/du_i dP/dp_i`` polarizes to.  The operator is
Poisson exactly when it is skew-adjoint and the bracket value is a total
x-derivative, certified by a vanishing variational-derivative tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product

from .algebra import (
    Coeff, Fields, SuperPoly, _by_order, _coeff_text, _into, _lift, _product_sum, _two_point, p
)
from .jetcalc import ELResult, _adjoint_terms
from .nonlocal_vars import NonlocalVarTable, el_nonlocal, scalar_content

DiffRow = list[tuple[Coeff, int]]  # sum of coefficient * d^order


@dataclass(frozen=True)
class Tail:
    """One weakly nonlocal summand e * w d^(-1) z."""

    constant: Coeff
    left: tuple[Coeff, ...]
    right: tuple[Coeff, ...]


@dataclass
class WNOperator:
    """Matrix differential operator with weakly nonlocal tails; all its
    coefficients lie in ``self.field`` (the constructor converts other kinds)."""

    fields: Fields
    local: list[list[DiffRow]]
    tails: list[Tail] = field(default_factory=list)

    def __post_init__(self):
        n = self.fields.n
        if len(self.local) != n or any(len(row) != n for row in self.local):
            raise ValueError(f"local part must be an {n}x{n} matrix of rows")
        for tail in self.tails:
            if len(tail.left) != n or len(tail.right) != n:
                raise ValueError("tail vectors must have one entry per field")
        values = [c for rows in self.local for row in rows for c, _ in row]
        values += [c for t in self.tails for c in (t.constant, *t.left, *t.right)]
        self.field, elements = _into(None, values)
        it = iter(elements)
        self.local = [[[(next(it), o) for _, o in row] for row in rows] for rows in self.local]
        self.tails = [Tail(next(it), tuple(islice(it, n)), tuple(islice(it, n))) for _ in self.tails]
        if any(self.fields.jet_symbols(t.constant) for t in self.tails):
            raise ValueError("tail constants must be rational numbers")

    @property
    def n(self) -> int:
        return self.fields.n

    def entry(self, i: int, j: int) -> DiffRow:
        return self.local[i - 1][j - 1]

    def merged_entry(self, i: int, j: int) -> DiffRow:
        return _by_order(self.entry(i, j))

    def __add__(self, other: "WNOperator") -> "WNOperator":
        if self.fields != other.fields:
            raise ValueError("operators live over different field sets")
        local = [
            [self.local[i][j] + other.local[i][j] for j in range(self.n)]
            for i in range(self.n)
        ]
        return WNOperator(self.fields, local, self.tails + other.tails)

    def scale(self, value) -> "WNOperator":
        K, (c,) = _into(self.field, [value])
        local = [
            [[(c * _lift(k, K), o) for k, o in row] for row in rows] for rows in self.local
        ]
        tails = [Tail(c * _lift(t.constant, K), t.left, t.right) for t in self.tails]
        return WNOperator(self.fields, local, tails)


def operator_adjoint(P: WNOperator) -> WNOperator:
    """Formal adjoint: entries transposed through (c d^k)* = (-1)^k d^k c,
    tails through (w d^(-1) z)* = -z d^(-1) w."""
    n = P.n
    local: list[list[DiffRow]] = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for coeff, order in P.local[j][i]:
                for factor, d, m in _adjoint_terms(SuperPoly({(): coeff}, P.field), order, P.fields):
                    local[i][j].append((factor * d.terms.get((), d.field.zero), m))
    tails = [Tail(-t.constant, t.right, t.left) for t in P.tails]
    return WNOperator(P.fields, local, tails)


def skew_part(P: WNOperator) -> WNOperator:
    return (P + operator_adjoint(P).scale(-1)).scale(Fraction(1, 2))


def tail_kernel(P: WNOperator) -> list[list[Coeff]]:
    """Integral-kernel matrix of the tail sum of P, with independent copies
    u(y), u_x(y), ... of the jet variables in the second slot; two tail lists
    act identically exactly when their kernels agree entry-wise."""
    n, (K, ys) = P.n, _two_point(P.field)
    out = [[K.zero for _ in range(n)] for _ in range(n)]
    for t in P.tails:
        left = [_lift(t.constant * w, K) for w in t.left]
        right = [_lift(z, K, ys) for z in t.right]  # the same exponents on the copies
        for i, j in product(range(n), repeat=2):
            out[i][j] = out[i][j] + left[i] * right[j]
    return out


def _first_nonzero(P: WNOperator) -> str | None:
    """The first nonzero local entry or tail-kernel entry of P, as text."""
    pairs = list(product(range(1, P.n + 1), repeat=2))
    for i, j in pairs:
        row = P.merged_entry(i, j)
        if row:
            coeff, order = row[0]
            return f"local[{i},{j}]: {_coeff_text(coeff)} * D^{order}"
    K = tail_kernel(P)
    for i, j in pairs:
        if K[i - 1][j - 1] != 0:
            return f"tail kernel [{i},{j}]: {_coeff_text(K[i - 1][j - 1])}"
    return None


def operators_equal(P: WNOperator, Q: WNOperator) -> bool:
    return _first_nonzero(P + Q.scale(-1)) is None


@dataclass
class SkewResult:
    ok: bool
    witness: str | None = None


def skew_check(P: WNOperator) -> SkewResult:
    """Test P + P* == 0; the witness is the first nonzero entry found."""
    witness = _first_nonzero(P + operator_adjoint(P))
    return SkewResult(witness is None, witness)


def to_superfunction(P: WNOperator, table: NonlocalVarTable) -> SuperPoly:
    """Encode an operator as a degree-2 value, registering tail variables."""
    n = P.n
    out = SuperPoly.from_terms(
        (coeff, [p(i, 0), p(j, order)])
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for coeff, order in P.entry(i, j)
    )
    for tail in P.tails:
        density = SuperPoly.from_terms([(tail.right[j - 1], [p(j, 0)]) for j in range(1, n + 1)])
        if density.is_zero():
            continue
        content, reduced = scalar_content(density)
        ident = table.register(reduced, note="operator tail")
        v = SuperPoly.factor(table.factor(ident))
        W = SuperPoly.from_terms([(tail.left[i - 1], [p(i, 0)]) for i in range(1, n + 1)])
        out = out + (W * v).scale(tail.constant * content)
    return out


def from_superfunction(S: SuperPoly, fields: Fields, table: NonlocalVarTable) -> WNOperator:
    """Inverse reading of the encoding, via the odd-slot variational tuple.

    Half the odd-slot variational derivative of the encoding of P equals
    the skew part of P applied to the dual factors, so reading off the
    coefficients per factor reconstructs exactly skew(P).
    """
    comp = el_nonlocal(S, fields, table)
    n = fields.n
    local: list[list[DiffRow]] = [[[] for _ in range(n)] for _ in range(n)]
    tail_vectors: dict[int, list] = {}
    for i in range(1, n + 1):
        v = comp.el.dp[i - 1].scale(Fraction(1, 2))
        for word, coeff in v.terms.items():
            if len(word) == 1 and word[0].kind == "p":
                f = word[0]
                local[i - 1][f.index - 1].append((coeff, f.order))
            elif len(word) == 1 and word[0].kind == "nl":
                tail_vectors.setdefault(word[0].index, [0] * n)[i - 1] = coeff
            elif len(word) == 0:
                raise ValueError("degree-0 component cannot come from an operator")
            else:
                raise ValueError(f"unexpected word {word} in operator reading")
    tails = []
    for ident, vec in sorted(tail_vectors.items()):
        dvec = [0] * n
        for word, coeff in table.density(ident).terms.items():
            if len(word) != 1 or word[0].kind != "p" or word[0].order != 0:
                raise ValueError("tail density is not a zeroth-order covector")
            dvec[word[0].index - 1] = coeff
        tails.append(Tail(1, tuple(vec), tuple(dvec)))
    return WNOperator(fields, local, tails)


@dataclass
class BracketOutcome:
    """Result of one bracket computation."""

    three_vector: SuperPoly
    el: ELResult
    trivial: bool
    independence_assumed: bool
    skew: list[SkewResult]  # the skew test of each distinct operand
    warnings: list[str] = field(default_factory=list)


def schouten_bracket(P: WNOperator, Q: WNOperator,
                     table: NonlocalVarTable | None = None) -> BracketOutcome:
    """Bracket of two operator encodings, with the divergence-triviality test.

    Each distinct operand is skew-tested once.  Operators failing the test
    are not rejected: the encoding only sees the skew part, and a warning is
    attached instead.
    """
    if P.fields != Q.fields:
        raise ValueError("operators live over different field sets")
    fields = P.fields
    if table is None:
        table = NonlocalVarTable()
    operands = {"operator": P} if Q is P else {"first operator": P, "second operator": Q}
    skew = [skew_check(op) for op in operands.values()]
    warnings = [
        f"{name} is not skew-adjoint ({res.witness}); only its skew part enters the bracket"
        for name, res in zip(operands, skew)
        if not res.ok
    ]
    SP = to_superfunction(P, table)
    elP = el_nonlocal(SP, fields, table)
    if Q is P:
        SQ, elQ = SP, elP
    else:
        SQ = to_superfunction(Q, table)
        elQ = el_nonlocal(SQ, fields, table)

    sides = [(elP, elQ)] if Q is P else [(elP, elQ), (elQ, elP)]
    pairs = [(a.el.du[i], b.el.dp[i]) for i in range(fields.n) for a, b in sides]
    three = _product_sum(pairs, 2 if Q is P else 1)  # [P, P] = 2 sum_i dP/du_i dP/dp_i

    elT = el_nonlocal(three, fields, table)
    return BracketOutcome(
        three_vector=three,
        el=elT.el,
        trivial=elT.el.is_zero(),
        independence_assumed=elP.formal_used or elQ.formal_used or elT.formal_used,
        skew=skew,
        warnings=warnings,
    )


@dataclass
class HamiltonianResult:
    skew: SkewResult
    bracket: BracketOutcome
    ok: bool


def is_hamiltonian(P: WNOperator, table: NonlocalVarTable | None = None) -> HamiltonianResult:
    """Poisson-property verdict: skew-adjointness and a trivial self-bracket."""
    bracket = schouten_bracket(P, P, table)
    (skew,) = bracket.skew
    return HamiltonianResult(skew=skew, bracket=bracket, ok=skew.ok and bracket.trivial)
