"""Weakly nonlocal operators, their encoding as degree-2 values, and the
variational bracket test for the Poisson property.

An operator is an n x n matrix of finite-order differential-operator
entries plus tail summands ``e * w d^(-1) z`` with rational constants e and
vectors w, z of rational-function coefficients.  The encoding sends a local
entry ``c d^k`` in slot (i, j) to ``c * p_i p_j[k]`` and each tail to
``e * (sum_i w_i p_i) * v`` for a nonlocal variable v whose density is
``sum_j z_j p_j``.

The odd-slot variational tuple of the encoding is ``(P - P*) p``, so the
skew test reads the local entries of ``P + P*`` off the words with one dual
factor in ``2 P(p) - dp``: the bracket computes that tuple anyway, and no
formal adjoint is taken.  A tail ``e * w d^(-1) w`` is minus its own
adjoint; only the other tails need the two-point kernel.

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
from itertools import islice, product

from .algebra import (
    Coeff, Fields, SuperPoly, _by_order, _coeff_text, _into, _lift, _merge, _product_sum, _two_point,
    coeff_field, normalize_word, p
)
from .jetcalc import ELResult
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


def _tail_witness(tails: list[Tail], field) -> str | None:
    """The first nonzero entry, as text, of the kernel of the ``tails`` (coefficients in ``field``),
    with copies u(y), u_x(y), ... of the jets in its second slot: equal kernels, equal actions."""
    if not tails:  # the two-point field is built for a tail only
        return None
    n = len(tails[0].left)
    pairs = list(product(range(n), repeat=2))
    K, ys = _two_point(field)
    kernel = [[K.zero] * n for _ in range(n)]
    for t in tails:
        left = [_lift(t.constant * w, K) for w in t.left]
        right = [_lift(z, K, ys) for z in t.right]  # the same exponents on the copies
        for i, j in pairs:
            kernel[i][j] = kernel[i][j] + left[i] * right[j]
    return next((f"tail kernel [{i + 1},{j + 1}]: {_coeff_text(kernel[i][j])}"
                 for i, j in pairs if kernel[i][j]), None)


@dataclass
class SkewResult:
    ok: bool
    witness: str | None = None


def _local_witness(P: WNOperator, dp: tuple[SuperPoly, ...]) -> str | None:
    """The first nonzero entry of P + P* off its tails, as text: entry (i, j) at order k is
    ``2 c - d`` for c the sum of P's entries c d^k and d the coefficient of p_j[k] in ``dp[i]``,
    both in one field, and a skew operator takes no difference."""
    K = coeff_field({s for f in (P.field, *(d.field for d in dp)) for s in f.symbols})
    for i, d in enumerate(dp):
        theirs = {(w[0].index - 1, w[0].order): _lift(c, K) for w, c in d.terms.items()
                  if len(w) == 1 and w[0].kind == "p"}
        for j, row in enumerate(P.local[i]):
            ours = {(j, order): _lift(c * 2, K) for c, order in _by_order(row)}
            for key in sorted(key for key in ours.keys() | theirs.keys() if key[0] == j):
                a, b = ours.get(key, K.zero), theirs.get(key, K.zero)
                if a != b:
                    return f"local[{i + 1},{j + 1}]: {_coeff_text(a - b)} * D^{key[1]}"
    return None


def skew_check(P: WNOperator, dp: tuple[SuperPoly, ...] | None = None) -> SkewResult:
    """Test P + P* == 0 on the local entries that ``dp``, the odd-slot variational tuple
    (P - P*) p of P's encoding, gives (``_local_witness``; computed here when not given), then
    on the kernel of the tails other than e w d^(-1) w.  The witness is the first nonzero entry."""
    if dp is None:
        dp = el_nonlocal(to_superfunction(P, table := NonlocalVarTable()), P.fields, table).el.dp
    tails = [t for t in P.tails if t.left != t.right]
    tails += [Tail(-t.constant, t.right, t.left) for t in tails]
    witness = _local_witness(P, dp) or _tail_witness(tails, P.field)
    return SkewResult(witness is None, witness)


def to_superfunction(P: WNOperator, table: NonlocalVarTable) -> SuperPoly:
    """Encode an operator as a degree-2 value, registering tail variables.  The terms are summed in
    one dict over ``P.field``, in the order and field that a sum of the pieces would give."""
    n = P.n
    local = [(normalize_word((p(i, 0), p(j, order))), c)
             for i, j in product(range(1, n + 1), repeat=2) for c, order in P.entry(i, j)]
    terms, used = _merge({}, ((w, c if s > 0 else -c) for (s, w), c in local if w)), bool(local)
    for tail in P.tails:
        density = SuperPoly.from_terms([(tail.right[j - 1], [p(j, 0)]) for j in range(1, n + 1)])
        if density.is_zero():
            continue
        content, reduced = scalar_content(density)
        v = table.factor(table.register(reduced))
        pieces = [((p(i, 0), v), c) for i, w in enumerate(tail.left, 1)  # a normal word: p_i sorts first
                  for c in (tail.constant * content * w,) if c]
        used = used or bool(pieces)
        terms = _merge({w: c for w, c in terms.items() if c}, pieces)  # zeros leave, as from a sum
    return SuperPoly(terms, P.field) if used else SuperPoly.zero()


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

    Each distinct operand is encoded, and its skew test read off its odd-slot variational
    tuple, once.  Operators failing the test are not rejected: the encoding only sees the skew
    part, and a warning is attached instead.
    """
    if P.fields != Q.fields:
        raise ValueError("operators live over different field sets")
    fields = P.fields
    if table is None:
        table = NonlocalVarTable()
    operands = {"operator": P} if Q is P else {"first operator": P, "second operator": Q}
    els = [el_nonlocal(to_superfunction(op, table), fields, table) for op in operands.values()]
    skew = [skew_check(op, el.el.dp) for op, el in zip(operands.values(), els)]
    warnings = [
        f"{name} is not skew-adjoint ({res.witness}); only its skew part enters the bracket"
        for name, res in zip(operands, skew)
        if not res.ok
    ]
    elP, elQ = els[0], els[-1]

    sides = [(elP, elQ)] if Q is P else [(elP, elQ), (elQ, elP)]
    pairs = [(a.el.du[i], b.el.dp[i]) for i in range(fields.n) for a, b in sides]
    three = _product_sum(pairs, 2 if Q is P else 1)  # [P, P] = 2 sum_i dP/du_i dP/dp_i

    elT = el_nonlocal(three, fields, table)
    return BracketOutcome(
        three_vector=three,
        el=elT.el,
        trivial=elT.el.is_zero(),
        independence_assumed=any(el.formal_used for el in els) or elT.formal_used,
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
