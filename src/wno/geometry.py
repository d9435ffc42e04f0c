"""First-order homogeneous weakly nonlocal operators from metric data.

Input is a contravariant metric g (entries rational functions of the
order-0 variables only) together with an affinor W.  The derived geometry
fixes the Levi-Civita connection of the inverse metric and the contravariant
Christoffel symbols; it is derived once per ``MetricData``, on the first read
of ``MetricData.geometry``, which the condition checks and the operator
assembly share.  Whether g is symmetric is tested once per derivation; for a
symmetric g the derivation computes the derivatives of the inverse and the
Christoffel symbols of both kinds on their independent entries only, and
mirrors the rest.  The curvature with both upper indices is computed from the
connection on first read, that of a symmetric g by the contravariant formula of
Dubrovin and Novikov on its C(n,2)^2 independent entries (``riemann_up``).  That
formula is not g^{js} R^i_skh for an asymmetric g, whose curvature keeps the
mixed tensor.  The module checks the classical system of conditions equivalent
to the Poisson property of

    P = g d + Gamma u_x + (W u_x) d^(-1) (W u_x)

independently of the bracket computation, for a symmetric g on independent
entries only (``check_conditions``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, product

from .algebra import Fields, Jet, _coeff_text, _fsum, _into, _inverse, _lift, coeff_field
from .schouten import Tail, WNOperator


class SingularMetricError(ValueError):
    """The metric determinant vanishes identically."""


@dataclass
class MetricData:
    """Concrete input: contravariant metric g and affinor W, functions of u
    only, as elements of QQ(u1..un); the constructor converts other kinds."""

    fields: Fields
    g: list
    W: list

    def __post_init__(self):
        n = self.fields.n
        for what, rows in (("g", self.g), ("W", self.W)):
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError(f"{what} must be an {n}x{n} matrix")
        K = coeff_field(self.coords())
        field, flat = _into(K, [c for rows in (self.g, self.W) for row in rows for c in row])
        if field is not K:  # a generator besides u1..un: the entries' jets, once per entry
            for pos, c in enumerate(flat):
                bad = [sym for sym, _, order in self.fields.jet_symbols(c) if order]
                if bad:
                    what = "g" if pos < n * n else "W"
                    raise ValueError(
                        f"{what} entries must depend on order-0 variables only; found {bad[0]}")
            flat = [_lift(c, K) for c in flat]
        self.g = [flat[i * n : (i + 1) * n] for i in range(n)]
        self.W = [flat[(n + i) * n : (n + i + 1) * n] for i in range(n)]

    @property
    def n(self) -> int:
        return self.fields.n

    def coords(self) -> list[Jet]:
        return [self.fields.jet(i, 0) for i in range(1, self.n + 1)]

    @cached_property
    def geometry(self) -> DerivedGeometry:
        """The geometry of this metric data, derived on first read."""
        return derive_geometry(self)

    @cached_property
    def operator(self) -> WNOperator:
        """The operator of this metric data, assembled on first read."""
        return build_operator(self)


@dataclass
class DerivedGeometry:
    """Metric data and its geometry as elements of the field QQ(u1..un).

    Tensors are nested lists of field elements.  The curvature is computed
    from the stored connection on first read.
    """

    coords: list  # coords[k] = the name of u^k
    g: list  # g[i][j] = g^ij
    W: list  # W[i][j] = W^i_j
    g_lo: list  # g_lo[i][j] = g_ij, the inverse of g^ij
    gamma: list  # gamma[i][j][k] = Gamma^i_jk of the lower metric
    gamma_up: list  # gamma_up[i][j][k] = Gamma^{ij}_k = -g^{is} Gamma^j_sk
    symmetric: bool  # whether g^ij = g^ji, tested once per derivation

    @cached_property
    def riemann_up(self) -> list:
        """riemann_up[i][j][k][h] = R^{ij}_kh = g^{js} R^i_skh; antisymmetric in k, h by
        its formula, for any input, so only k < h is computed.  For a symmetric g it is
        antisymmetric in i, j too, and for i < j it is (Dubrovin and Novikov, 1983)
            d_h G^{ji}_k - d_k G^{ji}_h + sum_s (G^{sj}_h Gamma^i_sk - G^{sj}_k Gamma^i_sh),
        G = gamma_up, by Gamma^i_sk = Gamma^i_ks and d_k g^{js} = G^{js}_k + G^{sj}_k.
        Neither holds in general for an asymmetric g, which keeps R^i_skh and g^{js}."""
        x, g, gamma, G, F = self.coords, self.g, self.gamma, self.gamma_up, coeff_field(self.coords)
        n, r = len(x), range(len(x))
        if self.symmetric:
            up = {(i, j): _skew(n, F.zero, lambda k, h: _fsum([
                G[j][i][k].diff(x[h]), -G[j][i][h].diff(x[k]),
                *(G[s][j][h] * gamma[i][s][k] for s in r),
                *(-(G[s][j][k] * gamma[i][s][h]) for s in r)], F)) for i, j in combinations(r, 2)}
            return _tensor(n, 4, lambda i, j, k, h: up[i, j][k][h] if i < j else
                           -up[j, i][k][h] if i > j else F.zero)
        riemann = _tensor(n, 2, lambda i, j: _skew(n, F.zero, lambda k, l: _fsum([
            gamma[i][l][j].diff(x[k]), -gamma[i][k][j].diff(x[l]),
            *(gamma[i][k][s] * gamma[s][l][j] for s in r),
            *(-(gamma[i][l][s] * gamma[s][k][j]) for s in r)], F)))
        return _tensor(n, 2, lambda i, j: _skew(n, F.zero, lambda k, h: _fsum(
            (g[j][s] * riemann[i][s][k][h] for s in r), F)))


def _tensor(n: int, rank: int, entry, *index):
    """Nested lists ``t[i][j]...`` of ``entry(i, j, ...)`` over ``range(n)``."""
    if rank == 0:
        return entry(*index)
    return [_tensor(n, rank - 1, entry, *index, i) for i in range(n)]


def _skew(n: int, zero, entry):
    """n x n matrix: ``entry(k, l)`` for k < l, its negative for k > l, zero on the diagonal."""
    up = {(k, l): entry(k, l) for k, l in combinations(range(n), 2)}
    return [[up[k, l] if k < l else -up[l, k] if k > l else zero for l in range(n)]
            for k in range(n)]


def _mirrored(symmetric: bool, a: int, entry):
    """``entry`` of three indices; if ``symmetric``, one symmetric in the indices at positions
    ``a`` and ``a + 1``, computed once per pair of them, at their sorted positions."""
    once = cache(entry)
    return (lambda *i: once(*i[:a], *sorted(i[a : a + 2]), *i[a + 2 :])) if symmetric else entry


def derive_geometry(m: MetricData) -> DerivedGeometry:
    """Exact inverse metric and Levi-Civita symbols, in the coefficient field
    QQ(u1..un) of the metric data, whose elements are reduced fractions.  For a
    symmetric g, whose inverse is symmetric too, the derivatives dg of the inverse
    and the symbols of both kinds are computed on their independent entries only."""
    n, r = m.n, range(m.n)
    x = m.coords()
    F = coeff_field(x)
    g_up, W = m.g, m.W
    symmetric = all(g_up[i][j] == g_up[j][i] for i, j in combinations(r, 2))
    g_lo = _inverse(g_up, F)
    if g_lo is None:
        raise SingularMetricError("metric is singular: det(g) == 0")
    dg = _tensor(n, 3, _mirrored(symmetric, 0, lambda s, j, k: g_lo[s][j].diff(x[k])))
    # first[s][j][k] = 2 Gamma_sjk, the Christoffel symbols of the first kind
    first = _tensor(n, 3, _mirrored(symmetric, 1, lambda s, j, k: _fsum(
        [dg[s][j][k], dg[s][k][j], -dg[j][k][s]], F)))
    gamma = _tensor(n, 3, _mirrored(symmetric, 1, lambda i, j, k: _fsum(
        (g_up[i][s] * first[s][j][k] for s in r), F) / 2))
    gamma_up = _tensor(n, 3, lambda i, j, k: -_fsum((g_up[i][s] * gamma[j][s][k] for s in r), F))
    return DerivedGeometry(x, g_up, W, g_lo, gamma, gamma_up, symmetric)


@dataclass
class ConditionCheck:
    name: str
    ok: bool
    witness: str | None = None


def check_conditions(m: MetricData) -> list[ConditionCheck]:
    """The six-condition system; each verdict carries a witness on failure.

    Each condition is a field element tested against zero; a witness shows
    the first nonzero one as a reduced-fraction expression.  For a symmetric g,
    metric_compatibility (symmetric in i, j) runs on i <= j and gauss_relation (antisymmetric)
    on i < j; a skipped entry is 0 or plus or minus one met before, so the witness is the same.
    An asymmetric g needs its i > j entries: in ``lower`` (cases/firstorder.wno) only dg[2,1]/du1 fails.
    nablaW_symmetry is one sum per i < k, the torsion term only for an asymmetric g.
    """
    geo, r = m.geometry, range(m.n)
    g, W, x, F, G, gamma = geo.g, geo.W, geo.coords, coeff_field(geo.coords), geo.gamma_up, geo.gamma
    upper = list(combinations(r, 2))  # index pairs i < j
    conditions = {  # name -> (label, value) pairs, evaluated lazily up to the first nonzero
        "metric_symmetry": ((f"g[{i + 1},{j + 1}] - g[{j + 1},{i + 1}]", g[i][j] - g[j][i])
                            for i, j in upper),
        "metric_compatibility": ((f"dg[{i + 1},{j + 1}]/du{k + 1}",
                                  _fsum([g[i][j].diff(x[k]), -G[i][j][k], -G[j][i][k]], F))
                                 for i, j, k in product(r, repeat=3) if i <= j or not geo.symmetric),
        "gGamma_symmetry": ((f"(i,j,k)=({i + 1},{j + 1},{k + 1})",
                             _fsum([*(g[i][s] * G[j][k][s] for s in r),
                                    *(-(g[j][s] * G[i][k][s]) for s in r)], F))
                            for (i, j), k in product(upper, r)),
        "gW_symmetry": ((f"(i,j)=({i + 1},{j + 1})",
                         _fsum([*(g[i][s] * W[j][s] for s in r), *(-(g[j][s] * W[i][s]) for s in r)], F))
                        for i, j in upper),
        "nablaW_symmetry": ((f"(i,j,k)=({i + 1},{j + 1},{k + 1})",
                             _fsum([W[j][k].diff(x[i]), -W[j][i].diff(x[k]),
                                    *(gamma[j][i][s] * W[s][k] for s in r),
                                    *(-(gamma[j][k][s] * W[s][i]) for s in r),
                                    *((gamma[s][k][i] - gamma[s][i][k]) * W[j][s]
                                      for s in r if not geo.symmetric)], F))
                            for i, j, k in product(r, repeat=3) if i < k),
        "gauss_relation": ((f"(i,j,k,h)=({i + 1},{j + 1},{k + 1},{h + 1})",
                            _fsum([geo.riemann_up[i][j][k][h], -(W[i][k] * W[j][h]),
                                   W[j][k] * W[i][h]], F))
                           for i, j, k, h in product(r, repeat=4) if k < h and (i < j or not geo.symmetric)),
    }
    out = []
    for name, pairs in conditions.items():
        witness = next((f"{label}: {_coeff_text(value)}" for label, value in pairs if value != 0), None)
        out.append(ConditionCheck(name, witness is None, witness))
    return out


def build_operator(m: MetricData) -> WNOperator:
    """Assemble g d + Gamma u_x + (W u_x) d^(-1) (W u_x) from metric data."""
    n, geo = m.n, m.geometry
    u_x = [m.fields.jet(k + 1, 1) for k in range(n)]
    L = coeff_field([*m.coords(), *u_x])
    ux = [L.gens[L.symbols.index(s)] for s in u_x]

    def contract(row):
        """sum_k row[k] u_x^k in the field over u and u_x."""
        return _fsum((_lift(c, L) * ux[k] for k, c in enumerate(row)), L)

    local: list[list[list[tuple]]] = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if m.g[i][j] != 0:
                local[i][j].append((m.g[i][j], 1))
            zeroth = contract(geo.gamma_up[i][j])
            if zeroth != 0:
                local[i][j].append((zeroth, 0))
    wvec = tuple(contract(geo.W[i]) for i in range(n))
    tails = [Tail(1, wvec, wvec)] if any(w != 0 for w in wvec) else []
    return WNOperator(m.fields, local, tails)
