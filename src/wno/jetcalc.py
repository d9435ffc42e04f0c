"""Derivations on graded differential polynomials.

Total x-derivative (nonlocal-aware through a variable table), variational
derivatives of local values, linearization of a density, and the formal
adjoint.  Variational derivatives of values containing nonlocal factors
live in :mod:`wno.nonlocal_vars`; the functions here refuse such input
instead of silently computing the wrong thing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import Fields, SuperPoly, _by_order, _d_x, _merge, normalize_word, p


class NonlocalInputError(ValueError):
    """Raised when a local-only derivation receives nonlocal factors."""


class UnregisteredNonlocalError(KeyError):
    """Raised when a nonlocal factor has no table entry."""


def total_x(a: SuperPoly, fields: Fields, table=None) -> SuperPoly:
    """Total x-derivative.

    Acts as an even derivation: raises jet orders in the coefficients and
    in the odd factors, and unfolds each nonlocal factor into its defining
    density in place (same position, so no extra sign).  The result lives
    in a field that also holds the next-order jet of every jet present.
    """
    if not a.terms:
        return a
    ids = sorted(a.nonlocal_ids())
    if ids and table is None:
        raise UnregisteredNonlocalError(f"nonlocal factor {ids[0]} needs a variable table")
    densities = {ident: table.density(ident) for ident in ids}
    K, dx = _d_x(a, fields, tuple(d.field for d in densities.values()))
    a = a.set_field(K)
    densities = {ident: d.set_field(K).terms for ident, d in densities.items()}

    def unfolded():  # each factor of each word raised in place, as a normal word
        for word, coeff in a.terms.items():
            for pos, f in enumerate(word):
                head, tail = word[:pos], word[pos + 1 :]
                if f.kind == "p":  # p_i^(k) -> p_i^(k+1) keeps the order, or meets its copy next
                    up = p(f.index, f.order + 1)
                    if tail[:1] != (up,):
                        yield head + (up,) + tail, coeff
                else:  # a product only for a word that survives
                    for dw, dc in densities[f.index].items():
                        sign, w = normalize_word(head + dw + tail)
                        if w is not None:
                            yield w, coeff * dc if sign > 0 else -(coeff * dc)

    # the coefficients' derivatives keep their words, which are normal already
    return SuperPoly(_merge({w: dx(c) for w, c in a.terms.items()}, unfolded()), K)


def _require_local(a: SuperPoly, what: str) -> None:
    bad = a.nonlocal_ids()
    if bad:
        raise NonlocalInputError(
            f"{what} is defined for local values only; "
            f"nonlocal factors {sorted(bad)} present (use the nonlocal EL rules)"
        )


def el_sum(pairs, fields: Fields, table=None) -> ELResult:
    """sum_k (-1)^k d_x^k( (dA/dslot_k) * fixed ) over the even slots (jet variables) and odd
    slots (dual factors) of every field, summed over the pairs ``(A, fixed)`` of one EL tuple;
    ``fixed`` None stands for 1, so ``[(A, None)]`` gives the variational-derivative tuple of A."""
    chains, zero = dict(_variations(pairs, fields, table)), [SuperPoly.zero()]
    return ELResult(*(tuple(chains.get((slot, i), zero)[0] for i in range(1, fields.n + 1)) for slot in "up"))


def _variations(pairs, fields: Fields, table=None):
    """``((slot, field), [V_0, ..., V_k])`` per slot group of the pairs' values A, cheapest first
    (by top order k): ``V_m = sum_(j>=m) (-1)^j d_x^(j-m)(a_j)`` for ``a_j = sum over the pairs of
    dA/dslot_j * fixed``, so V_0 is the variational derivative.  One Horner chain per group,
    ``V_m = d_x(V_(m+1)) + (-1)^m a_m``: k total derivatives for the whole tuple, not k(k+1)/2 per
    pair.  A partial is taken when the loop reaches its order, so a caller that stops at a group
    takes none of the next."""
    groups: dict[tuple[str, int], dict[int, list]] = {}
    for A, fixed in pairs:
        for key, orders in _slots(A, fields).items():
            for m in orders:
                groups.setdefault(key, {}).setdefault(m, []).append((A, fixed))
    for key, orders in sorted(groups.items(), key=lambda g: max(g[1])):
        value, chain = SuperPoly.zero(), []  # V_m, and V_(m+1), ..., V_k reversed
        for m in range(max(orders), -1, -1):
            if value:  # a zero needs no derivative
                value = total_x(value, fields, table)
            for A, fixed in orders.get(m, ()):
                term = _partial(A, fields, key, m)
                term = term if fixed is None else term * fixed
                value = value + (term if m % 2 == 0 else -term)
            chain.append(value)
        yield key, chain[::-1]


def _slots(A: SuperPoly, fields: Fields) -> dict[tuple[str, int], set[int]]:
    """``{(slot, field): orders}`` over the even slots ``"u"`` (jet variables) and the odd slots
    ``"p"`` (dual factors) of A: the orders at which A depends on each."""
    groups: dict[tuple[str, int], set[int]] = {}
    for i, o in {(i, o) for c in A.terms.values() for _, i, o in fields.jet_symbols(c)}:
        groups.setdefault(("u", i), set()).add(o)
    for f in {f for w in A.terms for f in w if f.kind == "p"}:
        groups.setdefault(("p", f.index), set()).add(f.order)
    return groups


def _partial(A: SuperPoly, fields: Fields, key: tuple[str, int], order: int) -> SuperPoly:
    """The partial of A by the slot ``key`` at ``order``."""
    slot, i = key
    return A.partial_even(fields.jet(i, order)) if slot == "u" else A.partial_odd(p(i, order))


@dataclass
class ELResult:
    """Variational-derivative tuple, one entry per field and slot."""

    du: tuple[SuperPoly, ...]
    dp: tuple[SuperPoly, ...]

    def __add__(self, other: "ELResult") -> "ELResult":
        return ELResult(
            tuple(a + b for a, b in zip(self.du, other.du)),
            tuple(a + b for a, b in zip(self.dp, other.dp)),
        )

    def scale(self, value) -> "ELResult":
        return ELResult(
            tuple(a.scale(value) for a in self.du),
            tuple(a.scale(value) for a in self.dp),
        )

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.du) and all(a.is_zero() for a in self.dp)


def euler_lagrange(a: SuperPoly, fields: Fields) -> ELResult:
    """Full variational-derivative tuple of a local value."""
    _require_local(a, "euler_lagrange")
    return el_sum([(a, None)], fields)


@dataclass
class LinearizationOp:
    """Finite-order operator rows of a linearized density.

    ``rows[(slot, i)]`` is a list of ``(coefficient, order)`` pairs meaning
    sum of coefficient * d_x^order acting on the slot-i component of the
    argument.  Slots: ``"u"`` (even) and ``"p"`` (odd).
    """

    fields: Fields
    rows: dict[tuple[str, int], list[tuple[SuperPoly, int]]]

    def merged(self) -> "LinearizationOp":
        rows = {key: _by_order(entries) for key, entries in self.rows.items()}
        return LinearizationOp(self.fields, {key: row for key, row in rows.items() if row})

    def equals(self, other: "LinearizationOp") -> bool:
        # merged rows hold no zero coefficient, so equal operators have equal rows
        return self.merged().rows == other.merged().rows

    def apply_to_one(self) -> ELResult:
        """Evaluate the operator on the constant argument 1 in every slot."""
        n = self.fields.n
        du = [SuperPoly.zero() for _ in range(n)]
        dp = [SuperPoly.zero() for _ in range(n)]
        for (slot, i), entries in self.rows.items():
            out = du if slot == "u" else dp
            for coeff, order in entries:
                if order == 0:
                    out[i - 1] = out[i - 1] + coeff
        return ELResult(tuple(du), tuple(dp))


def linearize(a: SuperPoly, fields: Fields) -> LinearizationOp:
    """Linearization of a local density.

    Even rows carry the raw partials with respect to the jet variables;
    odd rows carry the odd partials with the parity sign (-1)^(parity+1)
    of each homogeneous part of the density folded in.
    """
    _require_local(a, "linearize")
    rows: dict[tuple[str, int], list[tuple[SuperPoly, int]]] = {}
    for A, want in ((a, "u"), (a.parity_part(1) - a.parity_part(0), "p")):
        for key, orders in _slots(A, fields).items():
            if key[0] == want:
                rows[key] = [(_partial(A, fields, key, order), order) for order in orders]
    return LinearizationOp(fields, rows).merged()


def adjoint(op: LinearizationOp) -> LinearizationOp:
    """Formal adjoint, row by row.

    A row c * d^k becomes (-1)^k sum_m C(k, m) d^(k-m)(c) * d^m.  Rows
    acting on the odd slot pick up an extra factor (-1)^(parity of c):
    the duality pairing is graded, and this is the convention under which
    evaluating the adjoint of a linearization at the constant 1 returns the
    variational-derivative tuple of its density (see README).
    """
    rows: dict[tuple[str, int], list[tuple[SuperPoly, int]]] = {}
    for key, entries in op.rows.items():
        for coeff, order in entries:
            if key[0] == "p":  # the pairing's sign (-1)^(parity) on c's parts, which D_x keeps
                coeff = coeff.parity_part(0) - coeff.parity_part(1)
            terms = _adjoint_terms(coeff, order, op.fields)
            rows.setdefault(key, []).extend((d.scale(factor), m) for factor, d, m in terms)
    return LinearizationOp(op.fields, rows).merged()


def _adjoint_terms(c: SuperPoly, k: int, fields: Fields) -> list[tuple[int, SuperPoly, int]]:
    """The Leibniz rule (c d^k)* = (-1)^k sum_m C(k, m) D^(k-m)(c) d^m, as
    ``((-1)^k C(k, m), D^(k-m)(c), m)`` for m = 0..k: k total derivatives."""
    derivs = [c]
    for _ in range(k):
        derivs.append(total_x(derivs[-1], fields))
    return [((-1) ** k * comb(k, m), derivs[k - m], m) for m in range(k + 1)]
