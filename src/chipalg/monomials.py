"""Laurent monomials and artinian monomial ideals.

Monomials are plain exponent tuples (negative entries allowed for Laurent
monomials).  Ideals keep a minimized generator antichain.  Standard
monomials come from a walk down the staircase that lists columns along the
last variable; the socle comes from the corners of the irreducible
components, one generator at a time, without the staircase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter, le, sub

__all__ = [
    "MonomialIdeal",
    "degree",
    "degree_plus",
    "divides",
    "lcm_exp",
    "vec_add",
    "vec_sub",
    "require_artinian",
    "staircase_columns",
    "standard_monomials",
    "socle",
    "intersect_irreducible",
    "parse_ints",
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
    return all(map(le, a, b))


def lcm_exp(a, b) -> tuple:
    return tuple(map(max, a, b))


def vec_add(a, b) -> tuple:
    return tuple(map(add, a, b))


def vec_sub(a, b) -> tuple:
    return tuple(map(sub, a, b))


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

    @cached_property
    def _pure_powers(self) -> tuple:
        """Per variable, the least p with x_i^p among the generators, or None."""
        best = [None] * self.vars
        for g in self.generators:
            support = [k for k, e in enumerate(g) if e]
            if len(support) == 1:
                i = support[0]
                if best[i] is None or g[i] < best[i]:
                    best[i] = g[i]
        return tuple(best)

    def is_artinian(self) -> bool:
        """Artinian iff each variable has a pure-power generator."""
        return all(self.pure_power(i) is not None for i in range(self.vars))

    def pure_power(self, i: int):
        """Exponent of the minimal pure power x_i^p among the generators, or None."""
        return self._pure_powers[i]

    @cached_property
    def _socle(self) -> tuple:
        """Socle of an artinian ideal from the corners of its irreducible
        components, built once per ideal (see ``socle``).

        A corner of an ideal J is a b with b - 1 a maximal standard
        monomial; J is the intersection of <x_1^b_1, ..., x_m^b_m> over its
        corners.  The witnesses W_j(b) are the generators h of J with
        h <= b, h_j = b_j and h_k < b_k for every k != j, the ones that
        divide b - 1 + e_j; as b - 1 is maximal, none is empty.

        The pure powers p have the one corner p, with W_j(p) = [p_j e_j].
        Adding a generator g to J keeps every corner b that g does not hit
        (g < b fails), and g joins W_j(b) when g <= b agrees with b in
        coordinate j alone.  A hit corner b gives a candidate c = b with
        c_i := g_i for each i with g_i > 0, kept iff for every j != i some
        h in W_j(b) has h_i < g_i; then W_i(c) = [g] and W_j(c) = [h in
        W_j(b) : h_i < g_i].

        Why: c - 1 lies below b - 1 and, in coordinate i, below g, so it is
        standard in J + <g>; it is maximal iff c - 1 + e_j lies in J + <g>
        for every j.  For j = i, g divides it, as g < b.  For j != i, g
        does not (its i-th entry is g_i - 1), so a generator h of J must;
        h does not divide b - 1, so h_j = b_j, and h is a witness in W_j(b)
        with h_i < g_i, which is the test and W_j(c).  Any other h of J in
        W_i(c) would have h_i = g_i < b_i and h_k < b_k, so it would divide
        b - 1; hence W_i(c) = [g].  Conversely a maximal standard u of
        J + <g> lies below some b - 1 and, if b is hit, below the candidate
        c - 1 of an i with u_i < g_i, so u is b - 1 or c - 1.  Thus the kept
        corners are exactly those of J + <g>, with no check of one corner
        against another (two hit corners that gave the same c would agree
        off one coordinate, and so be comparable, or one would share g_i
        with g).  A repeated or redundant generator hits nothing; a zero
        generator makes J the whole ring, with no socle.  Each generator
        costs one pass over the corners and the witnesses of those it hits,
        never a pass over the staircase.
        """
        require_artinian(self)
        m = self.vars
        if (0,) * m in self.generators:
            return ()
        top = self._pure_powers
        corners = [(top, [[tuple(p if k == j else 0 for k in range(m))] for j, p in enumerate(top)])]
        # Widest support first: on the parking ideals of saturated graphs
        # (n = 7, 8) every candidate is then kept.
        steps = sorted(
            (-len(support), g, support)
            for g in set(self.generators)
            if len(support := [k for k, e in enumerate(g) if e]) > 1
        )
        for _, g, support in steps:
            at = itemgetter(*support)  # off it, g_k = 0 < b_k decides nothing
            gs = at(g)
            kept = []
            for b, wit in corners:
                low = min(map(sub, at(b), gs))
                if low > 0:
                    # per W_j(b), the least exponent of each variable
                    least = [w[0] if len(w) == 1 else tuple(map(min, *w)) for w in wit]
                    for i in support:
                        gi = g[i]
                        if all(j == i or h[i] < gi for j, h in enumerate(least)):
                            c = b[:i] + (gi,) + b[i + 1 :]
                            cw = [[g] if j == i else [h for h in w if h[i] < gi] for j, w in enumerate(wit)]
                            kept.append((c, cw))
                    continue
                if low == 0:
                    diff = tuple(map(sub, at(b), gs))
                    if diff.count(0) == 1:
                        wit[support[diff.index(0)]].append(g)
                kept.append((b, wit))
            corners = kept
        return tuple(sorted(tuple(e - 1 for e in b) for b, _ in corners))


def require_artinian(M: MonomialIdeal):
    if not M.is_artinian():
        raise ValueError("ideal must be artinian (a pure power in every variable)")


def staircase_columns(M: MonomialIdeal) -> list:
    """The standard monomials of an artinian ideal in at least one variable,
    as columns along the last variable, in lexicographic order.

    A column is a pair (prefix, bound) with bound >= 1: its standard
    monomials are prefix + (v,) for 0 <= v < bound, and prefix + (bound,)
    lies in M.  The walk fixes u[0], u[1], ... in turn.  The prefix u[:i]
    carries the generators g with g[:i] dividing it, and u[i] runs below
    the least g[i] over the carried g with g[i+1:] == 0 (the pure power of
    x_i is one of them).  So every prefix visited extends by zeros to a
    standard monomial, and the work grows with the number of columns, not
    with the box of pure powers.  A zero generator leaves no column.
    """
    require_artinian(M)
    if not M.vars:
        raise ValueError("staircase columns need at least one variable")
    last = M.vars - 1
    gens = [
        (g, max((i for i, e in enumerate(g) if e), default=0))
        for g in M.generators
    ]
    out = []

    def walk(prefix, i, carried):
        bound = min(g[i] for g, end in carried if end <= i)
        if i == last:
            if bound:
                out.append((prefix, bound))
            return
        for v in range(bound):
            walk(prefix + (v,), i + 1, [ge for ge in carried if ge[0][i] <= v])

    walk((), 0, gens)
    return out


def standard_monomials(M: MonomialIdeal) -> list:
    """All monomials outside an artinian ideal, in lexicographic order: the
    columns of ``staircase_columns``, expanded."""
    if not M.vars:
        # 1 is the only monomial; it is standard unless M is the whole ring
        return [] if M.generators else [()]
    return [prefix + (v,) for prefix, bound in staircase_columns(M) for v in range(bound)]


def socle(M: MonomialIdeal) -> list:
    """Standard monomials pushed into the ideal by every variable, in
    lexicographic order; computed once per ideal object.

    By Alexander duality these are the s for which <x_1^(s_1+1), ...,
    x_m^(s_m+1)> is an irreducible component of M (Miller and Sturmfels,
    Combinatorial Commutative Algebra, ch. 5).  The components are built by
    adding the generators one at a time to the pure powers, splitting each
    corner a generator cuts and keeping the splits that its witnesses prove
    maximal (see ``MonomialIdeal._socle``; Roune, J. Symbolic Comput. 2009,
    decomposes by slices instead), so the staircase is never listed.
    """
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
    return MonomialIdeal.from_generators(vars, gens)


def parse_ints(tokens, where: str) -> tuple:
    """The tokens as ints; the first that is not one raises ``ValueError``
    naming it and ``where`` it stands, such as a line or an option."""
    out = []
    for x in tokens:
        try:
            out.append(int(x))
        except ValueError:
            raise ValueError(f"{where}: {x!r} is not an integer") from None
    return tuple(out)


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
            (m,) = parse_ints(parts[1:], f"line {lineno}")
            if m < 1:
                raise ValueError(f"line {lineno}: need at least one variable")
            continue
        if parts[0] != "gen" or len(parts) != m + 1:
            raise ValueError(f"line {lineno}: expected 'gen' with {m} exponents")
        g = parse_ints(parts[1:], f"line {lineno}")
        if any(e < 0 for e in g):
            raise ValueError(f"line {lineno}: exponents must be non-negative")
        if not any(g):
            raise ValueError(f"line {lineno}: generator 1 makes the ideal the whole ring")
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
