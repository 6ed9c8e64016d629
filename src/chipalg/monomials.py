"""Laurent monomials and artinian monomial ideals.

Monomials are plain exponent tuples (negative entries allowed for Laurent
monomials).  Ideals keep a minimized generator antichain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "MonomialIdeal",
    "degree",
    "degree_plus",
    "divides",
    "lcm_exp",
    "vec_add",
    "vec_sub",
    "require_artinian",
    "standard_monomials",
    "socle",
    "intersect_irreducible",
    "parse_ideal",
    "monomial_str",
]


def degree(v) -> int:
    return sum(v)


def degree_plus(v) -> int:
    """Sum of the positive coordinates."""
    return sum(x for x in v if x > 0)


def divides(a, b) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def lcm_exp(a, b) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def vec_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _minimize(gens):
    """Antichain of minimal elements under divisibility.

    In lexicographic order every proper divisor of g comes before g, so one
    pass over the sorted distinct generators drops every multiple.
    """
    gens = sorted(set(map(tuple, gens)))
    out = []
    for g in gens:
        if not any(divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators (an antichain)."""

    vars: int
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.vars:
                raise ValueError("generator length does not match variable count")
            if any(e < 0 for e in g):
                raise ValueError("generators must be non-negative")

    @classmethod
    def from_generators(cls, vars: int, gens) -> "MonomialIdeal":
        return cls(vars, _minimize(gens))

    def contains(self, b) -> bool:
        """Whether x^b lies in the ideal (false for any Laurent b not >= some generator)."""
        return any(divides(g, b) for g in self.generators)

    def is_artinian(self) -> bool:
        """Artinian iff each variable has a pure-power generator."""
        return all(self.pure_power(i) is not None for i in range(self.vars))

    def pure_power(self, i: int):
        """Exponent of the minimal pure power x_i^p among the generators, or None."""
        best = None
        for g in self.generators:
            if g[i] > 0 and all(e == 0 for k, e in enumerate(g) if k != i):
                if best is None or g[i] < best:
                    best = g[i]
        return best

    @cached_property
    def _socle(self) -> tuple:
        """Socle of an artinian ideal, built once per ideal from its staircase."""
        stair = _staircase(self)
        inside = set(stair)
        return tuple(
            u
            for u in stair
            if all(
                u[:i] + (u[i] + 1,) + u[i + 1 :] not in inside
                for i in range(self.vars)
            )
        )


def require_artinian(M: MonomialIdeal):
    if not M.is_artinian():
        raise ValueError("ideal must be artinian (a pure power in every variable)")


def _staircase(M: MonomialIdeal) -> list:
    """Standard monomials of an artinian ideal, walked in lexicographic order.

    The walk fixes u[0], u[1], ... in turn.  The prefix u[:i] carries the
    generators g with g[:i] dividing it, and u[i] runs below the least g[i]
    over the carried g with g[i+1:] == 0 (the pure power of x_i is one of
    them).  So every prefix visited extends by zeros to a standard monomial,
    and the work grows with the output, not with the box of pure powers.
    """
    require_artinian(M)
    if not M.vars:
        # 1 is the only monomial; it is standard unless M is the whole ring
        return [] if M.generators else [()]
    last = M.vars - 1
    gens = [
        (g, max((i for i, e in enumerate(g) if e), default=0))
        for g in M.generators
    ]
    out = []

    def walk(prefix, i, carried):
        bound = min(g[i] for g, end in carried if end <= i)
        if i == last:
            out.extend(prefix + (v,) for v in range(bound))
            return
        for v in range(bound):
            walk(prefix + (v,), i + 1, [ge for ge in carried if ge[0][i] <= v])

    walk((), 0, gens)
    return out


def standard_monomials(M: MonomialIdeal) -> list:
    """All monomials outside an artinian ideal, in lexicographic order."""
    return _staircase(M)


def socle(M: MonomialIdeal) -> list:
    """Standard monomials pushed into the ideal by every variable, in
    lexicographic order; computed once per ideal object."""
    return list(M._socle)


def intersect_irreducible(components, vars: int) -> MonomialIdeal:
    """Intersection of the irreducible ideals <x_1^{v_1}, ..., x_m^{v_m}>.

    Each component is the strictly positive vector of pure-power exponents.
    """
    components = [tuple(v) for v in components]
    if not components:
        raise ValueError("need at least one component")
    for v in components:
        if len(v) != vars:
            raise ValueError("component length does not match variable count")
        if any(e <= 0 for e in v):
            raise ValueError("components must be strictly positive")

    def pure_powers(v):
        return [
            tuple(v[i] if k == i else 0 for k in range(vars)) for i in range(vars)
        ]

    gens = pure_powers(components[0])
    for v in components[1:]:
        gens = _minimize(lcm_exp(a, b) for a in gens for b in pure_powers(v))
    return MonomialIdeal(vars, tuple(gens))


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the shared ideal text format: ``vars <m>`` then ``gen e_1 ... e_m`` lines."""
    m = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if m is None:
            if parts[0] != "vars" or len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'vars <m>'")
            m = int(parts[1])
            if m < 1:
                raise ValueError(f"line {lineno}: need at least one variable")
            continue
        if parts[0] != "gen" or len(parts) != m + 1:
            raise ValueError(f"line {lineno}: expected 'gen' with {m} exponents")
        g = tuple(int(x) for x in parts[1:])
        if any(e < 0 for e in g):
            raise ValueError(f"line {lineno}: exponents must be non-negative")
        gens.append(g)
    if m is None:
        raise ValueError("missing 'vars <m>' line")
    if not gens:
        raise ValueError("ideal needs at least one generator")
    return MonomialIdeal.from_generators(m, gens)


def monomial_str(v) -> str:
    """Human-readable monomial, e.g. (2, 0, -1) -> 'x1^2*x3^-1'."""
    parts = []
    for i, e in enumerate(v):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e != 0:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"
