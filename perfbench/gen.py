"""Seeded workload generator for the divgraph benchmark.

One generator serves all four workload families.  The seed picks concrete
inputs (generator sets, d1/d2 bounds, zxq element rows, `--pair` points)
from fixed families whose members cost about the same, so that runs with
different seeds stay comparable.  The program only ever receives the
generated config files.

Every window size V is pinned to a stated band (`V_TARGETS`, `V_BAND`);
`make_workload` raises if a seed ever leaves it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

SUBCOMMANDS = ("graph", "classify", "components", "topology", "atomicity", "check")

# Why each workload exists; copied into BENCHMARK.json.
WHY = {
    "value-ladder": (
        "numerical-monoid windows where build_graph's all-pairs quotient/is_atom "
        "tests and window_analysis's materialised multisets dominate"
    ),
    "poset-topology": (
        "d2, d1 and 4-generator windows where window_poset, check_axioms' "
        "triple loop and pairwise topology components dominate"
    ),
    "oracle-check": (
        "check on numerical, d2 and d1 windows: the brute-force factorization "
        "oracle and quotient_of_atomics dominate, graph building takes little"
    ),
    "zxq-explicit": (
        "all six subcommands on explicit zxq windows: the only workload where "
        "polynomials (factor_monic, RationalFunction gcd/divmod) dominate"
    ),
}

# Generator families.  Members were chosen so that, at the pinned V, each
# subcommand costs about the same whichever member the seed picks; 4-generator
# sets differ in classify and topology cost, so that family has one member.
MONO2 = ((2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5))
MONO3 = ((4, 6, 9), (4, 7, 9), (5, 6, 8))
MONO4 = ((5, 6, 7, 8),)
# Window shapes: (k_max, j_max) for d2, with V = k_max * (2 * j_max + 1), and
# (k_max, den_max, alpha_max) for d1.  Shapes of one size differ in topology
# cost, so the large windows have a single shape.
SHAPES = {
    "full": {"d2": ((9, 8),), "d2-small": ((6, 5), (5, 6)),
             "d1": ((4, 4, 2),), "d1-small": ((3, 4, 2), (3, 3, 3), (3, 6, 1))},
    "tiny": {"d2": ((3, 2),), "d2-small": ((3, 2),), "d1": ((2, 2, 1),), "d1-small": ((2, 2, 1),)},
}

# Targets and allowed bands for the window size V, per window role.
V_TARGETS = {
    "full": {"mono2": 180, "mono4": 110, "mono3": 56, "d2": 150, "d1": 100,
             "d2-small": 65, "d1-small": 75, "zxq": 20, "zxq-small": 12},
    "tiny": {"mono2": 20, "mono4": 12, "mono3": 12, "d2": 15, "d1": 10,
             "d2-small": 15, "d1-small": 10, "zxq": 10, "zxq-small": 6},
}
V_BAND = 0.15  # every V lies within +-15% of its target
ZXQ_WINDOWS = 3  # zxq windows per workload that uses them


@dataclass(frozen=True)
class Config:
    """One generated run configuration and the parameters it was made from."""

    name: str
    kind: str
    params: dict
    text: str
    vertex_count: int


@dataclass(frozen=True)
class Op:
    """One subcommand on one config: the unit the benchmark times."""

    id: str
    command: str
    config: str
    extra: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    configs: dict[str, Config] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def add_ops(self, config: str, commands, pair=None) -> None:
        for command in commands:
            extra: tuple[str, ...] = ()
            if command == "graph":
                extra = ("--dot",)
            elif command == "topology" and pair is not None:
                extra = ("--pair", *pair)
            self.ops.append(Op(f"{command}:{config}", command, config, extra))


# -- numerical monoids ---------------------------------------------------------

def monoid_members(gens, limit: int) -> list[bool]:
    """member[n] for 0 <= n <= limit: n is a sum of generators."""
    member = [True] + [False] * limit
    for n in range(1, limit + 1):
        member[n] = any(g <= n and member[n - g] for g in gens)
    return member


def _numerical(name: str, gens, target: int) -> Config:
    # pick max_value as the target-th nonzero member, so V equals the target
    limit = max(gens) * target
    member = monoid_members(gens, limit)
    values = [n for n in range(1, limit + 1) if member[n]]
    max_value = values[target - 1]
    text = (
        f"kind numerical-monoid\ngenerator {' '.join(map(str, gens))}\n"
        f"bound max_value {max_value}\n"
    )
    return Config(name, "numerical-monoid", {"generators": tuple(gens), "max_value": max_value},
                  text, target)


# -- d1 / d2 ---------------------------------------------------------------------

def positive_fractions(max_abs: int, max_den: int) -> list[Fraction]:
    return sorted({Fraction(n, d) for d in range(1, max_den + 1) for n in range(1, max_abs * d + 1)})


def _d2(name: str, k_max: int, j_max: int) -> Config:
    text = f"kind d2\nbound k_max {k_max}\nbound j_max {j_max}\n"
    return Config(name, "d2", {"k_max": k_max, "j_max": j_max}, text, k_max * (2 * j_max + 1))


def _d1(name: str, k_max: int, den_max: int, alpha_max: int) -> Config:
    text = f"kind d1\nbound k_max {k_max}\nbound den_max {den_max}\nbound alpha_max {alpha_max}\n"
    n_pos = len(positive_fractions(alpha_max, den_max))
    params = {"k_max": k_max, "den_max": den_max, "alpha_max": alpha_max}
    return Config(name, "d1", params, text, k_max * (2 * n_pos + 1))


# -- explicit zxq windows --------------------------------------------------------

# Atoms of the zxq model used as factors: integer primes and Q-irreducible
# polynomials with constant term 1 (ascending coefficients).
ZXQ_PRIMES = (2, 3, 5, 7)
ZXQ_DEG1 = ((1, 1), (1, -1), (1, 2), (1, Fraction(1, 2)), (1, 3), (1, -2))
ZXQ_DEG2 = ((1, 0, 1), (1, 1, 1), (1, -1, 1), (1, 0, 2), (1, 2, 2))
ZXQ_DEG3 = ((1, 1, 0, 1), (1, -1, 0, 1), (1, 2, 0, 1))
# Top elements of a zxq window as (order at x = 0, factor slots).  A slot
# ("d1", 2) is the third entry of the seed's shuffle of ZXQ_DEG1, so every
# seed gives a window of the same shape with different atoms.  Every top has
# degree <= 3.
ZXQ_TOPS = (
    (0, (("p", 0), ("d1", 0))), (1, (("d1", 1),)), (0, (("p", 1), ("p", 1), ("d1", 2))),
    (0, (("d2", 0), ("p", 2))), (1, (("p", 0), ("d1", 0))), (0, (("d3", 0),)),
    (2, (("p", 1),)), (0, (("d1", 3), ("d1", 4), ("p", 3))), (1, (("d2", 1),)),
    (0, (("p", 0), ("p", 2), ("p", 3))), (0, (("d1", 5), ("d2", 2))),
)


def poly_mul(p, q) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += Fraction(a) * Fraction(b)
    return tuple(out)


def zxq_coeffs(element) -> tuple[Fraction, ...]:
    """Coefficients of x^k times the product of the atom factors."""
    k, factors = element
    poly: tuple[Fraction, ...] = (Fraction(0),) * k + (Fraction(1),)
    for kind, value in factors:
        poly = poly_mul(poly, (value,) if kind == "p" else value)
    return poly


def _sub_multisets(factors):
    subs = {()}
    for f in factors:
        subs |= {tuple(sorted(s + (f,), key=repr)) for s in subs}
    return subs


def zxq_below(a, b) -> bool:
    """a is a proper multiple of b by an atom product: same order at x = 0
    and b's factors a proper sub-multiset of a's."""
    if a[0] != b[0] or len(b[1]) >= len(a[1]):
        return False
    rest = list(a[1])
    for f in b[1]:
        if f not in rest:
            return False
        rest.remove(f)
    return True


def _zxq(name: str, rng: random.Random, count: int) -> Config:
    """A window of exactly `count` elements x^k * (product of atoms), closed
    under dividing out atoms, so that every relation a >= b in the window is
    witnessed by a path of atom steps inside it."""
    pools = {"p": ZXQ_PRIMES, "d1": ZXQ_DEG1, "d2": ZXQ_DEG2, "d3": ZXQ_DEG3}
    fill = {kind: rng.sample(pool, len(pool)) for kind, pool in pools.items()}
    window: dict = {}  # (k, slots) -> None, in insertion order
    for k, slots in ZXQ_TOPS:
        for sub in sorted(_sub_multisets(slots), key=lambda s: (len(s), s)):
            if k or sub:  # the unit is never a window element
                window.setdefault((k, sub), None)
        if len(window) >= count:
            break
    elements = list(window)
    while len(elements) > count:
        # dropping a maximal element keeps the window closed
        top = next(e for e in reversed(elements) if not any(zxq_below(o, e) for o in elements))
        elements.remove(top)

    def concrete(slot):
        kind, i = slot
        return ("p" if kind == "p" else "f", fill[kind][i])

    elements = [(k, tuple(sorted(map(concrete, slots), key=repr))) for k, slots in elements]
    lines = ["kind zxq", "bound degree_cap 3"]
    lines += ["element " + " ".join(str(c) for c in zxq_coeffs(e)) for e in elements]
    return Config(name, "zxq", {"elements": tuple(elements)}, "\n".join(lines) + "\n", count)


# -- labels for --pair -------------------------------------------------------------

def _pair(rng: random.Random, cfg: Config) -> tuple[str, str]:
    """Two distinct window labels, computed without the package."""
    kind, p = cfg.kind, cfg.params
    if kind == "numerical-monoid":
        member = monoid_members(p["generators"], p["max_value"])
        labels = [str(n) for n in range(1, p["max_value"] + 1) if member[n]]
    elif kind == "d2":
        labels = ["x", "y", "y*x", "y^2"]
    elif kind == "d1":
        labels = ["y", "y^2", "x", "y*x"]
    else:
        # a prime and x are labelled by their own text
        labels = sorted([str(f[0][1]) for k, f in p["elements"]
                         if k == 0 and len(f) == 1 and f[0][0] == "p"]
                        + ["x"] * ((1, ()) in p["elements"]))
    a, b = rng.sample(labels[:8], 2)
    return a, b


# -- workloads ---------------------------------------------------------------------

def make_workload(name: str, seed: int, scale: str = "full") -> Workload:
    """Deterministic workload for (name, seed, scale); scale 'tiny' is for
    the benchmark's own smoke tests."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WHY)}")
    rng = random.Random(f"{name}:{seed}")
    v = V_TARGETS[scale]
    shapes = SHAPES[scale]
    w = Workload(name, seed, scale)

    def add(cfg: Config, role: str | None = None) -> Config:
        target = v[role or cfg.name]
        if abs(cfg.vertex_count - target) > V_BAND * target:
            raise AssertionError(
                f"{name} seed {seed}: {cfg.name} has V={cfg.vertex_count}, "
                f"outside {target} +-{V_BAND:.0%}"
            )
        w.configs[cfg.name] = cfg
        return cfg

    def zxq_windows(role: str, commands) -> None:
        # the cost of one zxq window depends on which atoms the seed puts in
        # which slots; summing over several windows keeps that seed effect small
        for i in range(1, ZXQ_WINDOWS + 1):
            z = add(_zxq(f"{role}{i}", rng, v[role]), role)
            w.add_ops(z.name, commands, pair=_pair(rng, z))

    # Every workload reports every subcommand metric: the subcommands a
    # workload does not stress run on small "zxq-small" windows.

    if name == "value-ladder":
        for cfg in (add(_numerical("mono2", rng.choice(MONO2), v["mono2"])),
                    add(_numerical("mono4", rng.choice(MONO4), v["mono4"]))):
            w.add_ops(cfg.name, ("graph", "classify", "components", "atomicity"))
        zxq_windows("zxq-small", ("topology", "check"))
    elif name == "poset-topology":
        d2 = add(_d2("d2", *rng.choice(shapes["d2"])))
        d1 = add(_d1("d1", *rng.choice(shapes["d1"])))
        m4 = add(_numerical("mono4", rng.choice(MONO4), v["mono4"]))
        w.add_ops(d2.name, ("topology",), pair=_pair(rng, d2))
        for cfg in (d1, m4):
            w.add_ops(cfg.name, ("topology",))
        for cfg in (d2, d1, m4):
            w.add_ops(cfg.name, ("components",))
        zxq_windows("zxq-small", ("graph", "classify", "atomicity", "check"))
    elif name == "oracle-check":
        for cfg in (add(_numerical("mono3", rng.choice(MONO3), v["mono3"])),
                    add(_d2("d2-small", *rng.choice(shapes["d2-small"]))),
                    add(_d1("d1-small", *rng.choice(shapes["d1-small"])))):
            w.add_ops(cfg.name, ("check",))
        zxq_windows("zxq-small", ("graph", "classify", "components", "topology", "atomicity"))
    else:  # zxq-explicit
        zxq_windows("zxq", SUBCOMMANDS)
    return w
