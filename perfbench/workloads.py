"""Seeded workload generator for the wno benchmark.

Every op is one ``wno`` command line over a generated ``.wno`` file.  Its
expected exit code comes from the construction of the operator family it
belongs to, never from running ``wno``.  The families, and why each one is
in the benchmark:

``virasoro``
    ``D^k + lam*(2u D + u_x)``, lam != 0.  Hamiltonian for k = 1 and k = 3
    and for no odd k >= 5: ``D`` is a coboundary and ``D^3`` spans the
    Gelfand-Fuks 2-cocycles of the Virasoro algebra, while ``D^k`` for
    k >= 5 is no cocycle.  Cheap local operators whose cost is the per-op
    fixed cost (parse, skew tests, encoding, EL of a small 3-vector).
``first_order_1d``
    ``g D + g'/2 u_x + sum_a eps_a (w_a u_x) D^-1 (w_a u_x)`` in one field
    with 1-3 tails.  Always Hamiltonian: at n = 1 Ferapontov's six
    conditions hold trivially.  Exercises tail registration, explicit and
    formal antiderivatives and the two-tail EL rule.
``nonskew_tail``
    ``e [u^a u_x | u^b u_x]`` with a != b.  Never skew-adjoint, since the
    kernel ``w(x) z(y) - z(x) w(y)`` vanishes only for proportional w, z.
``scaled``
    A Virasoro or first-order instance multiplied by a nonzero rational.
    Rational scaling keeps the Jacobi identity, so the verdict is kept.
``bracket``
    ``bracket P Q`` of two scalar operators; the command exits 0 whatever
    the bracket is.
``malformed``
    Input that must be refused with exit 2.  One of them is the
    zero-denominator coefficient ``1/(u-u)``: it is a known defect that
    it parses to ``nan`` and exits 1.  It stays in the workload and counts
    as a failed op until the parser rejects it.
``constant_curvature``
    ``g = (1 + K|u|^2/4)^2 delta`` with ``W = c I`` and ``K = c^2`` for
    n = 1..3.  The metric has constant curvature K and ``R = W ^ W``
    holds, so every condition passes; ``geom`` exits 0.  Geometry
    derivation and the n-field bracket dominate, and little is rendered.
``sweep_passing``
    The passing instances of ``scripts/first_order_sweep.py``: the n = 1
    flat and rational metrics with affinor ``b u`` (n = 1 always passes)
    and the unit sphere with identity affinor.
``perturbed_affinor``
    The constant-curvature metric with ``W = c I + u1 E12`` for n = 2.
    ``g W`` is asymmetric, so ``gW_symmetry`` fails and ``check --el``
    exits 1 after rendering a large nonzero EL tuple.
``curved_flat_bracket``
    ``bracket`` of a constant-curvature and a flat first-order operator:
    a large nonzero 3-vector that is rendered; exit 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Small nonzero rationals: coefficient size moves sympy cost, so the pools
# are kept narrow enough that seeds give rounds of similar cost.
_LAMBDAS = ("1", "2", "3", "1/2", "2/3", "3/2", "-1", "-2", "-1/3", "-3/4")
# The seed flips the sign of c only.  K = c^2 moves the cost of geom (at
# n = 4, K = 1 or 1/4 took about 1.5 times as long as K = 4), and rounds of
# different seeds should cost alike.
_CURVATURE = ("2", "-2")


@dataclass
class Op:
    """One CLI invocation with its known answer."""

    name: str
    family: str
    argv: list[str]  # wno arguments; the input file is argv[1]
    expect: int
    known_defect: str | None = None


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)  # file name -> source

    def add(self, family: str, source: str, command: str, args: list[str],
            expect: int, known_defect: str | None = None) -> None:
        index = len(self.ops)
        fname = f"{index:03d}_{family}.wno"
        self.files[fname] = source
        self.ops.append(
            Op(f"{index:03d}_{family}", family, [command, fname, *args], expect,
               known_defect)
        )

    def write(self, directory: Path) -> list[Op]:
        """Write the input files and return ops whose paths point at them."""
        directory.mkdir(parents=True, exist_ok=True)
        for fname, source in self.files.items():
            (directory / fname).write_text(source, encoding="utf-8")
        return [
            Op(op.name, op.family, [op.argv[0], str(directory / op.argv[1]), *op.argv[2:]],
               op.expect, op.known_defect)
            for op in self.ops
        ]


def _q(text: str) -> str:
    """A rational constant in DSL spelling, parenthesized when signed."""
    return f"({text})" if text.startswith("-") or "/" in text else text


def _mul(a: str, b: str) -> str:
    return str(Fraction(a) * Fraction(b))


# -- scalar families ------------------------------------------------------

def _lie_entry(lam: str) -> str:
    """lam*(2u D + u_x), the Lie-Poisson operator of the Virasoro algebra."""
    return f"{_q(_mul('2', lam))}*u*D + {_q(lam)}*u_x"


def _virasoro_entry(k: int, lam: str, scale: str = "1") -> str:
    return f"{_q(scale)}*D^{k} + {_lie_entry(_mul(lam, scale))}"


# Tail vectors w_a u_x, taken in this order; the seed varies only the
# rational coefficients, so that rounds of different seeds cost alike.
_TAIL_SHAPES = ("u", "(1 + u^2)", "u^2")


def _first_order_1d(rng: random.Random, tails: int, m: int, scale: str = "1") -> str:
    """g D + g'/2 u_x with g = a + b u^m, plus ``tails`` tails eps (w u_x) D^-1 (w u_x)."""
    a = rng.choice(("1", "2", "3", "1/2"))
    b = rng.choice(("1", "2", "-1", "1/3"))
    g = f"{_q(_mul(a, scale))} + {_q(_mul(b, scale))}*u^{m}"
    dg_half = _q(str(Fraction(m, 2) * Fraction(b) * Fraction(scale)))
    u_power = "*u" if m == 2 else ""
    lines = [f"  local[1,1]: ({g})*D + {dg_half}{u_power}*u_x;"]
    for w in _TAIL_SHAPES[:tails]:
        eps = _mul(rng.choice(_LAMBDAS), scale)
        lines.append(f"  nonlocal[1,1]: {_q(eps)}*[{w}*u_x|{w}*u_x];")
    return "\n".join(lines)


def _scalar(rng: random.Random) -> Workload:
    wl = Workload()
    head = "fields u;\n"
    for k in (1, 3, 5, 7):
        for lam in rng.sample(_LAMBDAS, 3):
            wl.add("virasoro", f"{head}operator P {{\n  local[1,1]: "
                   f"{_virasoro_entry(k, lam)};\n}}\n", "check", ["P"],
                   0 if k <= 3 else 1)
    for tails in (1, 2, 3):
        for m in (1, 2, 2):
            wl.add("first_order_1d", f"{head}operator P {{\n"
                   f"{_first_order_1d(rng, tails, m)}\n}}\n", "check", ["P"], 0)
    for a, b in ((0, 1), (1, 2), (0, 2)):
        e = rng.choice(_LAMBDAS)
        wl.add("nonskew_tail", f"{head}operator P {{\n  nonlocal[1,1]: {_q(e)}*"
               f"[u^{a}*u_x|u^{b}*u_x];\n}}\n", "check", ["P"], 1)
    for k in (3, 5):
        lam, r = rng.choice(_LAMBDAS), rng.choice(_LAMBDAS)
        wl.add("scaled", f"{head}operator P {{\n  local[1,1]: "
               f"{_virasoro_entry(k, lam, r)};\n}}\n", "check", ["P"],
               0 if k <= 3 else 1)
    for tails in (1, 2):
        r = rng.choice(_LAMBDAS)
        wl.add("scaled", f"{head}operator P {{\n"
               f"{_first_order_1d(rng, tails, 2, r)}\n}}\n", "check", ["P"], 0)
    pairs = [
        ("D^3", _lie_entry(rng.choice(_LAMBDAS))),
        (_virasoro_entry(3, rng.choice(_LAMBDAS)), _virasoro_entry(3, rng.choice(_LAMBDAS))),
        (_virasoro_entry(1, rng.choice(_LAMBDAS)), _virasoro_entry(5, rng.choice(_LAMBDAS))),
    ]
    for left, right in pairs:
        wl.add("bracket", f"{head}operator P {{\n  local[1,1]: {left};\n}}\n"
               f"operator Q {{\n  local[1,1]: {right};\n}}\n", "bracket", ["P", "Q"], 0)
    wl.add("bracket", f"{head}operator P {{\n{_first_order_1d(rng, 1, 1)}\n}}\n"
           f"operator Q {{\n{_first_order_1d(rng, 1, 2)}\n}}\n", "bracket", ["P", "Q"], 0)
    c = rng.choice(_LAMBDAS)
    bad = [
        (f"{head}operator P {{\n  local[1,1]: 1/(u-u)*D;\n}}\n", "P",
         "zero-denominator coefficient 1/(u-u) parses to nan and exits 1"),
        (f"{head}operator P {{\n  local[1,1]: D^3 + {_q(c)}*u*D\n}}\n", "P", None),
        (f"{head}operator P {{\n  local[1,1]: D^3 + {_q(c)}*v*D;\n}}\n", "P", None),
        (f"{head}operator P {{\n  local[1,1]: 1.5*D;\n}}\n", "P", None),
        (f"{head}operator P {{\n  nonlocal[1,1]: {rng.randint(1, 9)}/0*[u_x|u_x];\n}}\n",
         "P", None),
        (f"{head}operator P {{\n  local[1,1]: D^3;\n}}\n", "Q", None),
    ]
    for source, name, defect in bad:
        wl.add("malformed", source, "check", [name], 2, defect)
    return wl


# -- first-order families ----------------------------------------------------

def _cc_block(name: str, n: int, c: str, perturb: bool = False) -> str:
    square = " + ".join(f"u{i}^2" for i in range(1, n + 1))
    k = _mul(c, c)
    lines = [f"firstorder {name} {{"]
    for i in range(1, n + 1):
        lines.append(f"  g[{i},{i}]: (1 + {_q(k)}*({square})/4)^2;")
    for i in range(1, n + 1):
        lines.append(f"  w[{i},{i}]: {_q(c)};")
    if perturb:
        lines.append("  w[1,2]: u1;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fields(n: int) -> str:
    return "fields " + ", ".join(f"u{i}" for i in range(1, n + 1)) + ";\n"


def _firstorder(rng: random.Random) -> Workload:
    wl = Workload()
    # Three n = 2 instances besides the sphere put the median op, and two
    # n = 3 instances the 90th percentile, among several samples of one
    # size.  n stops at 3: a single n = 4 op runs for 12-20 s, too long for
    # the machine-speed samples taken between ops to follow, and its time
    # alone spread by a third of the median across seeds.
    for n in (1, 2, 2, 2, 3, 3):
        c = rng.choice(_CURVATURE)
        wl.add("constant_curvature", _fields(n) + _cc_block("M", n, c), "geom", ["M"], 0)
    b = rng.choice(_LAMBDAS)
    a = rng.choice(("1", "2", "1/2", "3"))
    wl.add("sweep_passing", "fields u;\nfirstorder M {\n  g[1,1]: 1;\n"
           f"  w[1,1]: {_q(b)}*u;\n}}\n", "geom", ["M"], 0)
    wl.add("sweep_passing", "fields u;\nfirstorder M {\n"
           f"  g[1,1]: 1/(1 + {_q(a)}*u^2)^2;\n  w[1,1]: {_q(b)}*u;\n}}\n",
           "geom", ["M"], 0)
    wl.add("sweep_passing", _fields(2) + _cc_block("M", 2, "1"), "geom", ["M"], 0)
    return wl


def _reports(rng: random.Random) -> Workload:
    wl = Workload()
    formats = ["text", "json", rng.choice(("text", "json"))]
    rng.shuffle(formats)
    # n = 2 only, for the reason given for n = 4 in _firstorder: the n = 3
    # case is a single 13 s op.
    for fmt in ("text", "json"):
        c = rng.choice(_CURVATURE)
        wl.add("perturbed_affinor", _fields(2) + _cc_block("M", 2, c, perturb=True),
               "check", ["M", "--el", "--format", fmt], 1)
    # four brackets put the median op among several samples of one size
    for fmt in ("text", "json", "text", "json"):
        c = rng.choice(_CURVATURE)
        flat = "firstorder F {\n  g[1,1]: 1;\n  g[2,2]: 1;\n}\n"
        wl.add("curved_flat_bracket", _fields(2) + _cc_block("S", 2, c) + flat,
               "bracket", ["S", "F", "--format", fmt], 0)
    for k in (5, 7, 9):
        lam = rng.choice(_LAMBDAS)
        wl.add("virasoro", f"fields u;\noperator P {{\n  local[1,1]: "
               f"{_virasoro_entry(k, lam)};\n}}\n", "check",
               ["P", "--el", "--format", formats.pop()], 1)
    return wl


_GENERATORS = {"scalar": _scalar, "firstorder": _firstorder, "reports": _reports}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> Workload:
    """The op list of one round of ``workload``; equal seeds give equal lists."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
