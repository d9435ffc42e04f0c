"""Formal nonlocal variables and the tail-aware variational calculus.

A nonlocal variable stands for an x-antiderivative of an odd density.  The
table records each variable's defining density, nesting level and origin;
registration deduplicates on the normalized density, so the antiderivative
of a tail density that is already registered resolves to the existing
variable.

``el_nonlocal`` computes variational-derivative tuples of values whose
terms carry at most two nonlocal factors.  For a term A*v with local
prefactor A of odd degree d and nonlocal factor v with defining density Z:

    delta(A v) = sum_k (-1)^k d^k( dA * v ) + (-1)^(d+1) sum_k (-1)^k d^k( dZ * a )

slot by slot, where ``a`` is an antiderivative of A: the explicit local one
when the density integrates, otherwise a fresh formal variable.  Terms
B*v*w with two nonlocal factors use the three-part rule

    delta(B v w) = S(B; v w) + S(Z_v; q_w) - S(Z_w; q_v)

with auxiliary antiderivatives q_w of B*w and q_v of B*v (even parity,
usually formal at level 2).  This form is antisymmetric under swapping
the two factors, follows from the same duality argument as the one-tail
rule, and agrees exactly with rewriting the term by depth reduction
whenever the reduction applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Fields, OddFactor, SuperPoly, Word, _lead_ratio, _packed_key, _top_order_linear, nl, p
from .jetcalc import ELResult, _variations, el_sum


class UnsupportedStructureError(ValueError):
    """Term shape outside the supported local / one-tail / two-tail forms."""


@dataclass
class NonlocalVar:
    density: SuperPoly
    level: int
    parity: int
    name: str
    formal: bool


def scalar_content(a: SuperPoly) -> tuple[Fraction, SuperPoly]:
    """Split off the rational content: ``a == content * reduced``.

    The content is the lex-leading coefficient ratio (``algebra._lead_ratio``) of the coefficient
    of the first word, so that of ``q*a`` is ``q`` times that of ``a`` and the two share one
    reduced density: densities differing by a rational multiple share one variable (their
    antiderivatives are proportional).
    """
    if not a.terms:
        return Fraction(1), a
    content = _lead_ratio(a.terms[min(a.terms)])
    return content, a.scale(1 / content)


class NonlocalVarTable:
    """Append-only registry of nonlocal variables."""

    def __init__(self):
        self.entries: dict[int, NonlocalVar] = {}
        self._by_density: dict[object, int] = {}
        self._counts = {"r": 0, "y": 0}

    def register(self, density: SuperPoly, *, formal: bool = False) -> int:
        """Register a defining density, deduplicating on its terms.

        The key (``algebra._packed_key``) is the density's words with their
        packed coefficients, moved into the field of the generators that
        occur.  Reduced coefficients are unique, so the key does not depend
        on the field a density sits in: equal densities share it and unequal
        ones do not, as with their coefficients' texts.  The density must be
        homogeneous with at least one odd factor; a purely even density
        defines no variable.
        """
        if density.is_zero():
            raise ValueError("cannot register the zero density")
        degrees = density.odd_degrees()
        if len(degrees) != 1:
            raise ValueError(f"density must be homogeneous; got degrees {sorted(degrees)}")
        degree = degrees.pop()
        if degree == 0:
            raise ValueError("density has no odd factors, so it defines no nonlocal variable")
        key = _packed_key(density)
        ident = self._by_density.get(key)
        if ident is not None:
            return ident
        level = 1
        for ident in density.nonlocal_ids():
            level = max(level, self.entries[ident].level + 1)
        parity = degree % 2
        prefix = "r" if (level == 1 and degree == 1 and not formal) else "y"
        self._counts[prefix] += 1
        ident = len(self.entries) + 1
        self.entries[ident] = NonlocalVar(
            density=density,
            level=level,
            parity=parity,
            name=f"{prefix}{self._counts[prefix]}",
            formal=formal,
        )
        self._by_density[key] = ident
        return ident

    def lookup(self, density: SuperPoly) -> int | None:
        """The id of the variable registered for ``density`` (by the key of ``register``), or None."""
        return self._by_density.get(_packed_key(density))

    def density(self, ident: int) -> SuperPoly:
        try:
            return self.entries[ident].density
        except KeyError:
            raise KeyError(f"nonlocal variable {ident} is not registered") from None

    def factor(self, ident: int) -> OddFactor:
        return nl(ident, self.entries[ident].parity)

    def names(self) -> dict[int, str]:
        return {ident: entry.name for ident, entry in self.entries.items()}


@dataclass
class IntegrationResult:
    """Outcome of ``integrate_density``.

    On success ``antiderivative`` satisfies total_x(antiderivative) == Y
    exactly and ``residual`` is None; on failure ``residual`` is Y itself,
    for reporting.
    """

    antiderivative: SuperPoly | None
    residual: SuperPoly | None

    @property
    def ok(self) -> bool:
        return self.residual is None


def integrate_density(Y: SuperPoly, fields: Fields) -> IntegrationResult:
    """The local antiderivative of a density whose every term has an odd factor, or failure.

    ``_top_order_linear`` reads each term once: if Y = D(eta), eta has order K - 1 for Y's top
    order K of jets and dual factors, so Y is affine in its order-K variables over coefficients of
    lower order (at most one order-K dual factor or jet per term, to the first power, none in a
    reduced denominator), and a nonzero Y of order 0 is not exact.  A Y that fails has a nonzero
    variational derivative.  Then each degree-d part, which D keeps, is tested slot group by slot
    group, cheapest first, on the Horner chain V_0, ..., V_K of ``jetcalc._variations``.  Euler's
    identity sum_(i,m) p_i^(m) dY/dp_i^(m) = d Y and p^(m) a = D(p^(m-1) a) - p^(m-1) D(a) give
    d Y = D(H) + sum_i p_i V_(i,0) for H = sum_i sum_(m<K) (-1)^(m+1) p_i^(m) V_(i,m+1), so eta =
    H / d once every V_(i,0) vanishes: rational by construction, and unique, as D has no kernel in
    odd degree d >= 1.  A term with no odd factor raises ``UnsupportedStructureError``; a density
    with nonlocal factors is not integrated here (use depth reduction).
    """
    if not Y.is_local():
        return IntegrationResult(None, Y)
    if Y.is_zero():
        return IntegrationResult(SuperPoly.zero(), None)
    degrees = Y.odd_degrees()
    if 0 in degrees:
        raise UnsupportedStructureError("only a density whose every term has an odd factor is integrated")
    if not _top_order_linear(Y, fields):
        return IntegrationResult(None, Y)

    eta = SuperPoly.zero()
    for d in sorted(degrees):
        H = SuperPoly.zero()
        for (slot, i), chain in _variations([(Y.degree_part(d), None)], fields):
            if chain[0]:
                return IntegrationResult(None, Y)
            if slot == "p":
                for m, V in enumerate(chain[1:]):
                    term = SuperPoly.factor(p(i, m)) * V
                    H = H + (term if m % 2 else -term)
        eta = eta + H.scale(Fraction(1, d))
    return IntegrationResult(eta, None)


@dataclass
class TailTerm:
    """One summand split as local prefactor times nonlocal suffix."""

    prefactor: SuperPoly
    suffix: tuple[int, ...]


def split_tails(a: SuperPoly, table: NonlocalVarTable) -> tuple[SuperPoly, list[TailTerm]]:
    """Separate the local part from tail terms grouped by nonlocal suffix.

    Terms with more than two nonlocal factors, or with an even-parity
    nonlocal factor, fall outside the supported forms.
    """
    local: dict[Word, object] = {}
    groups: dict[tuple[int, ...], dict[Word, object]] = {}
    for word, coeff in a.terms.items():
        tail = tuple(f for f in word if f.kind == "nl")
        if not tail:
            local[word] = coeff
            continue
        if len(tail) > 2:
            raise UnsupportedStructureError(
                f"term with {len(tail)} nonlocal factors is not supported: {word}"
            )
        if any(f.parity == 0 for f in tail):
            raise UnsupportedStructureError(
                "even-parity nonlocal factors may appear only in results, "
                f"not in inputs: {word}"
            )
        # odd nonlocal factors sort last, so the word is prefix + tail
        prefix = word[: len(word) - len(tail)]
        groups.setdefault(tuple(f.index for f in tail), {})[prefix] = coeff
    terms = [
        TailTerm(SuperPoly(prefix_terms, a.field), suffix)
        for suffix, prefix_terms in sorted(groups.items())
    ]
    return SuperPoly(local, a.field), terms


@dataclass
class Antiderivative:
    """Antiderivative of a prefactor: explicit local value or formal variable."""

    value: SuperPoly
    formal: bool
    ident: int | None = None  # the variable's registered id when value is a rational multiple of one


def _antiderivative(A: SuperPoly, fields: Fields, table: NonlocalVarTable) -> Antiderivative:
    """An antiderivative of A: its content times the variable registered for its reduced density,
    else an explicit one, else a new formal variable.  The table is read first because a registered
    local density never integrates: it is an operator tail's order-0 covector ``sum_j z_j p_j``,
    whose odd-slot variational derivative is z itself, or a density whose integration failed."""
    content, reduced = scalar_content(A)
    if reduced.is_zero():
        return Antiderivative(SuperPoly.zero(), False)
    if table.lookup(reduced) is None and reduced.is_local():
        result = integrate_density(reduced, fields)
        if result.ok:
            return Antiderivative(result.antiderivative.scale(content), False)
    ident = table.register(reduced, formal=True)
    return Antiderivative(
        SuperPoly.factor(table.factor(ident)).scale(content),
        table.entries[ident].formal,
        ident,
    )


@dataclass
class ELComputation:
    el: ELResult
    formal_used: bool


def el_nonlocal(a: SuperPoly, fields: Fields, table: NonlocalVarTable) -> ELComputation:
    """Variational-derivative tuple of a value with nonlocal tails: one ``el_sum`` over the
    ``(A, fixed)`` pairs of its local part and of the rules above for its tail terms.  Two-tail
    terms are first rewritten by depth reduction when their prefactor integrates explicitly (fewer
    formal variables means sharper verdicts); the symmetric rule with formal antiderivatives is
    the fallback.
    """
    local, tails = split_tails(a, table)
    pairs = [(local, None)] if local else []
    formal_used = False

    def single_tail(prefactor: SuperPoly, ident: int) -> None:
        nonlocal formal_used
        v = SuperPoly.factor(table.factor(ident))
        Z = table.density(ident)
        for degree in sorted(prefactor.odd_degrees()):
            A = prefactor.degree_part(degree)
            anti = _antiderivative(A, fields, table)
            formal_used = formal_used or anti.formal
            if anti.ident != ident:
                pairs.extend([(A, v), (Z, anti.value if degree % 2 else -anti.value)])  # (-1)^(d+1)
            elif degree % 2:  # A = c Z and anti = c v: the pair (Z, anti) is the pair (A, v)
                pairs.append((A, v.scale(2)))

    for term in tails:
        if len(term.suffix) == 1:
            single_tail(term.prefactor, term.suffix[0])
            continue

        degrees = term.prefactor.odd_degrees()
        if degrees - {1}:
            raise UnsupportedStructureError(
                "two-tail terms must have an odd-degree-1 prefactor; "
                f"got degrees {sorted(degrees)}"
            )
        reduced = reduce_depth(term, table, fields)
        if reduced is not None:
            for t in reduced:
                single_tail(t.prefactor, t.suffix[0])
            continue

        id1, id2 = term.suffix
        v1, v2 = (SuperPoly.factor(table.factor(ident)) for ident in term.suffix)
        B = term.prefactor
        q1 = _antiderivative(B * v1, fields, table)
        q2 = _antiderivative(B * v2, fields, table)
        formal_used = formal_used or q1.formal or q2.formal
        pairs.extend([(B, v1 * v2), (table.density(id1), q2.value), (table.density(id2), -q1.value)])

    return ELComputation(el_sum(pairs, fields, table), formal_used)


def reduce_depth(term: TailTerm, table: NonlocalVarTable, fields: Fields) -> list[TailTerm] | None:
    """Rewrite a two-tail term into one-tail terms modulo a total derivative.

    With y an explicit antiderivative of the prefactor B,

        B*v*w  ==  d_x(y*v*w) - y*Z_v*w - y*v*Z_w

    so the term is equivalent to the two right-hand products, each of
    strictly smaller nonlocal depth.  When B does not integrate, None, for
    the fallback rule of ``el_nonlocal``, which registers its formal level-2
    variables.
    """
    if len(term.suffix) != 2:
        raise UnsupportedStructureError("reduce_depth expects a two-tail term")
    result = integrate_density(term.prefactor, fields)
    if not result.ok:
        return None
    id1, id2 = term.suffix
    v1, v2 = (SuperPoly.factor(table.factor(ident)) for ident in term.suffix)
    y = result.antiderivative
    rewritten = (-y) * table.density(id1) * v2 + (-y) * v1 * table.density(id2)
    return split_tails(rewritten, table)[1]  # each term keeps v or w: no local part
