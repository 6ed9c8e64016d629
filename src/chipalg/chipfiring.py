"""Toppling and parking-function ideals, connected flags, lattice points,
and divisor rank on a multigraph.

Node n is the distinguished node: lead monomials avoid x_n, parking
functions live on x_1..x_{n-1}, and divisor reduction is taken at n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .monomials import MonomialIdeal, degree_plus, standard_monomials, vec_sub
from .multigraph import GRAPH_CACHE_SIZE, Multigraph, Split, connected_splits, laplacian, tree_count

__all__ = [
    "SplitBinomial",
    "FlagSocle",
    "toppling_generators",
    "parking_ideal",
    "groebner_certificate",
    "flag_socles",
    "connected_flags",
    "lattice_socle_base",
    "canonical_divisor",
    "divisor_rank",
    "divisor_rank_oracle",
    "baker_norine_verify",
    "q_reduced",
    "lattice_points_in_box",
]


@dataclass(frozen=True)
class SplitBinomial:
    """The binomial x^(I->J) - x^(J->I) attached to a split; n lies in J,
    so the lead side is the x_n-free one."""

    split: Split
    lead: tuple  # exponents over [n]
    trail: tuple

    def __post_init__(self):
        if sum(self.lead) != sum(self.trail):
            raise ValueError("split binomial must be homogeneous")


@dataclass(frozen=True)
class FlagSocle:
    """A complete flag of [n-1] (as a permutation) with its socle monomial."""

    flag: tuple  # permutation of 1..n-1; T_i = first i entries
    monomial: tuple  # exponents over [n-1]


def _arrow(g: Multigraph, I, J) -> tuple:
    """Exponent vector over [n] of x^(I->J) = prod_{i in I} x_i^(sum_{k in J} u_ik)."""
    out = [0] * g.n
    for i in I:
        out[i - 1] = sum(g.u(i, k) for k in J)
    return tuple(out)


def toppling_generators(g: Multigraph) -> list:
    """Minimal generating binomials of the toppling ideal: one per connected
    split (I, J), each checked to be the Laplacian move L e_I."""
    lam = laplacian(g)
    out = []
    for s in connected_splits(g):
        b = SplitBinomial(s, _arrow(g, s.I, s.J), _arrow(g, s.J, s.I))
        e_I = tuple(1 if i + 1 in s.I else 0 for i in range(g.n))
        if vec_sub(b.lead, b.trail) != lam.mul_vec(e_I):
            raise AssertionError("split binomial does not represent the Laplacian move")
        out.append(b)
    return out


def parking_ideal(g: Multigraph) -> MonomialIdeal:
    """The parking-function ideal in x_1..x_{n-1}: lead monomials of the
    toppling generators."""
    gens = [b.lead[: g.n - 1] for b in toppling_generators(g)]
    return MonomialIdeal.from_generators(g.n - 1, gens)


def groebner_certificate(g: Multigraph, M: MonomialIdeal) -> dict:
    """Check that M, the parking ideal of g, has exactly tree-count many
    standard monomials."""
    trees = tree_count(g)
    std = len(standard_monomials(M))
    return {"tree_count": trees, "standard_monomials": std, "pass": trees == std}


def flag_socles(g: Multigraph) -> list:
    """The (n-1)! flag socle monomials of the parking ideal.

    For the flag T_1 c T_2 c ... c T_{n-1} of [n-1], the monomial is
    lcm(x^(T_i -> complement)) divided by x_1...x_{n-1}.
    """
    n = g.n
    out = []
    for perm in permutations(range(1, n)):
        exps = [0] * (n - 1)
        members = set()
        for i, v in enumerate(perm):
            members.add(v)
            outside = [k for k in range(1, n + 1) if k not in members]
            for j in members:
                e = sum(g.u(j, k) for k in outside)
                if e > exps[j - 1]:
                    exps[j - 1] = e
        out.append(FlagSocle(perm, tuple(e - 1 for e in exps)))
    return out


def _layerings(g: Multigraph, singletons: bool) -> list:
    """(k, c) for each connected flag (P, O) of g, with singleton blocks
    only when ``singletons`` is set; see ``connected_flags``.

    A flag is walked as the longest-path layering of O from the sink:
    vertex sets U_0, U_1, ... that partition the vertices, where U_0 is the
    block of node n and the blocks of U_i are the components of the
    subgraph that U_i induces (blocks of one layer are not adjacent, and
    every edge between layers points to the earlier one).  So a layering
    is valid when U_0 is connected and every component of each later U_i
    has a neighbour in U_(i-1), and it meets each flag once.  A vertex of
    U_i has degree equal to its edges into U_0, ..., U_(i-1).

    Cut: let C be a component of the vertices left unplaced after U_i.
    The first later layer that meets C needs a neighbour in the layer
    before it, and outside itself C has neighbours only in U_0, ..., U_i;
    so that layer is U_(i+1), and C must have a neighbour in U_i.  With
    this cut every branch of the walk ends in a flag.  Vertex sets are
    bitmasks.
    """
    n = g.n
    adj = [sum(1 << w for w, m in enumerate(row) if m) for row in g.mult]
    edges = [[(1 << w, m) for w, m in enumerate(row) if m] for row in g.mult]
    memo_nbhd, memo_comps, memo_degs = {}, {}, {}

    def nbhd(mask):
        out = memo_nbhd.get(mask)
        if out is None:
            out = 0
            for v in _bits(mask):
                out |= adj[v]
            memo_nbhd[mask] = out
        return out

    def comps(mask):
        """The vertex sets of the components of the subgraph on ``mask``."""
        out = memo_comps.get(mask)
        if out is None:
            out, left = [], mask
            while left:
                seen = left & -left
                while True:
                    grown = seen | nbhd(seen) & left
                    if grown == seen:
                        break
                    seen = grown
                out.append(seen)
                left ^= seen
            memo_comps[mask] = out
        return out

    def degs(rest):
        """Each unplaced vertex with its edges into the placed ones."""
        out = memo_degs.get(rest)
        if out is None:
            placed = ~rest
            out = memo_degs[rest] = {
                u: sum(m for bit, m in edges[u] if bit & placed) for u in _bits(rest)
            }
        return out

    def reaches(left, layer):
        """Whether every component of ``left`` has a neighbour in ``layer``."""
        around = nbhd(layer)
        return all(c & around for c in comps(left))

    deg = [0] * n
    out = []

    def walk(prev, rest, k):
        if not rest:
            out.append((k, tuple(deg)))
            return
        near = nbhd(prev)
        ds = degs(rest)
        pool = rest & near if singletons else rest
        sub = pool
        while sub:
            cs = comps(sub)
            if (
                all(c & near for c in cs)
                and not (singletons and nbhd(sub) & sub)
                and reaches(rest & ~sub, sub)
            ):
                for u in _bits(sub):
                    deg[u] = ds[u]
                walk(sub, rest & ~sub, k + len(cs))
            sub = (sub - 1) & pool

    full = (1 << n) - 1
    sink = 1 << (n - 1)
    others = 0 if singletons else full ^ sink
    sub = others
    while True:
        root = sub | sink
        if len(comps(root)) == 1 and reaches(full & ~root, root):
            for u in _bits(root):
                deg[u] = 0
            walk(root, full & ~root, 1)
        if not sub:
            return out
        sub = (sub - 1) & others


def _bits(mask) -> list:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def connected_flags(g: Multigraph) -> list:
    """(k, c) for each connected flag (P, O) of g: P is a partition of [n]
    into k blocks that each induce a connected subgraph, O an acyclic
    orientation of the quotient G/P whose only sink is the block of node n,
    and c_u, for each node u, the number of edges from u to the blocks that
    O points u's block to (so c_n = 0).

    These pairs count the graded Betti numbers: the parking ideal has
    beta_{k-1, c} equal to the number of pairs with k blocks and degree c
    (Manjunath-Schreyer-Wilmes, Trans. AMS 2015; Mohammadi-Shokrieh,
    IMRN 2014), and the toppling ideal the same counts per divisor class.
    """
    return _layerings(g, singletons=False)


def lattice_socle_base(g: Multigraph) -> list:
    """Distinct base socle monomials s / x_n of the lattice module, as
    exponent vectors over [n] (last coordinate -1), in lexicographic order.

    The socle of the parking ideal is the set of maximal superstables,
    which are c(v) = indeg_O(v) - 1 over the acyclic orientations O with
    node n as unique source (Benson-Chakrabarty-Tetali).  Reversing O makes
    n the unique sink, so these are the connected flags with singleton
    blocks, with one subtracted from each degree.
    """
    return sorted(tuple(d - 1 for d in c) for _, c in _layerings(g, singletons=True))


def canonical_divisor(g: Multigraph) -> tuple:
    """Exponent vector (d_1 - 2, ..., d_n - 2); degree is 2*genus - 2."""
    return tuple(g.degree(i) - 2 for i in range(1, g.n + 1))


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _reduced_laplacian_inverse(g: Multigraph) -> tuple:
    """The inverse of the Laplacian with row/column n deleted, as integers
    (adj, det, rows): inverse = adj / det with det = tree count, and rows
    are the n rows of the Laplacian with column n deleted.

    Fraction-free Gauss-Jordan (Bareiss) on [L' | I] keeps every entry a
    minor, so each division is exact, and ends at [det*I | adj].  L' is
    positive definite, so no pivot (a leading principal minor) is zero.
    """
    m = g.n - 1
    lam = laplacian(g)
    a = [[lam.at(i, j) for j in range(m)] + [int(i == j) for j in range(m)] for i in range(m)]
    prev = 1
    for k in range(m):
        ak = a[k]
        pk = ak[k]
        for i in range(m):
            if i != k:
                ai = a[i]
                aik = ai[k]
                a[i] = [(pk * x - aik * y) // prev for x, y in zip(ai, ak)]
        prev = pk
    adj = tuple(tuple(row[m:]) for row in a)
    det = prev
    # A wrong inverse would silently drop lattice points: check it once.
    if det != tree_count(g) or any(
        sum(adj[i][k] * lam.at(k, j) for k in range(m)) != det * (i == j)
        for i in range(m)
        for j in range(m)
    ):
        raise AssertionError("reduced Laplacian adjugate check failed")
    rows = tuple(tuple(lam.at(i, j) for j in range(m)) for i in range(g.n))
    return adj, det, rows


def lattice_points_in_box(g: Multigraph, lo, hi) -> list:
    """All Laplacian-lattice vectors w with lo <= w <= hi componentwise.

    Returns (v, w) pairs with w = Laplacian @ v and v normalized to v_n = 0.
    """
    n = g.n
    if any(l > h for l, h in zip(lo, hi)):
        return []
    adj, det, lap = _reduced_laplacian_inverse(g)
    m = n - 1
    # v' = adj @ w' / det over the box w' in prod [lo_i, hi_i], i < n
    vlo, vhi = [], []
    for row in adj:
        a = b = 0
        for cij, l, h in zip(row, lo, hi):
            if cij >= 0:
                a += cij * l
                b += cij * h
            else:
                a += cij * h
                b += cij * l
        vlo.append(-(-a // det))  # ceil
        vhi.append(b // det)  # floor

    # Suffix interval of each linear form w_i over the unfixed coordinates.
    sufmin = [[0] * n for _ in range(m + 1)]
    sufmax = [[0] * n for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        for i in range(n):
            c = lap[i][j]
            x, y = c * vlo[j], c * vhi[j]
            sufmin[j][i] = sufmin[j + 1][i] + min(x, y)
            sufmax[j][i] = sufmax[j + 1][i] + max(x, y)

    out = []
    partial = [0] * n

    def rec(j, prefix):
        if j == m:
            out.append((prefix + (0,), tuple(partial)))
            return
        # Tighten the range of v'_j from every constraint row.
        aj, bj = vlo[j], vhi[j]
        for i in range(n):
            c = lap[i][j]
            if c == 0:
                if partial[i] + sufmin[j + 1][i] > hi[i] or partial[i] + sufmax[j + 1][i] < lo[i]:
                    return
                continue
            # lo_i <= partial_i + c*v + rest <= hi_i with rest in the suffix interval
            low = lo[i] - partial[i] - sufmax[j + 1][i]
            high = hi[i] - partial[i] - sufmin[j + 1][i]
            if c > 0:
                aj = max(aj, -(-low // c))
                bj = min(bj, high // c)
            else:
                aj = max(aj, -(-high // c))
                bj = min(bj, low // c)
            if aj > bj:
                return
        for v in range(aj, bj + 1):
            for i in range(n):
                partial[i] += lap[i][j] * v
            rec(j + 1, prefix + (v,))
            for i in range(n):
                partial[i] -= lap[i][j] * v

    rec(0, ())
    return out


def divisor_rank(g: Multigraph, u) -> int:
    """Rank of the divisor x^u: min over lattice-module socle monomials c of
    degree_plus(u - c), minus 1.

    The socle is infinite: base monomials c0 plus lattice vectors w.  With
    x = u - c0, degree_plus(x - w) = deg(x) + excess, where the excess is
    sum_i max(0, w_i - x_i) and deg(x) = deg(u) - genus + 1 for every c0.
    So w beats the incumbent minimum only if its excess is below
    budget = incumbent - deg(x).  The incumbent starts at the least
    degree_plus(u - c0); one pass over the base searches each box with the
    budget of the current incumbent, which only shrinks, and stops once no
    point can beat it.

    Two boxes are complete linear systems, decided by one q-reduction
    (Baker-Norine: a divisor is equivalent to an effective one iff its
    q-reduced form is effective).  At budget 1 the points that beat the
    incumbent are the w <= x, which exist iff x is; at incumbent 1 they
    are the w >= x, which exist iff -x is.  Either hit lowers the
    incumbent by one and ends the pass.  By Riemann-Roch the pass ends at
    budget r(K - u) + 1, so K ends at budget 1, and 0 at incumbent 1.
    """
    if len(u) != g.n:
        raise ValueError("divisor length must equal the node count")
    u = tuple(u)
    base = lattice_socle_base(g)
    best = min(degree_plus(vec_sub(u, c0)) for c0 in base)
    degx = sum(u) - g.genus + 1
    for c0 in base:
        budget = best - degx
        # degree_plus is never negative, so 0 cannot be beaten
        if best <= 0 or budget <= 0:
            break
        x = vec_sub(u, c0)
        if budget == 1 or best == 1:
            y = x if budget == 1 else tuple(-xi for xi in x)
            if q_reduced(g, y)[-1] >= 0:
                best -= 1
            continue
        # each (x_i - w_i)^+ is at most degree_plus < best, and each
        # (w_i - x_i)^+ at most the excess < budget
        lo = tuple(xi - best + 1 for xi in x)
        hi = tuple(xi + budget - 1 for xi in x)
        for _, w in lattice_points_in_box(g, lo, hi):
            best = min(best, degree_plus(vec_sub(x, w)))
    return best - 1


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _q_layers(g: Multigraph) -> tuple:
    """The set-up of ``q_reduced``: per-vertex neighbour lists (w, mult), and
    the BFS layers t >= 1 from q = node n, deepest first, each with its
    edges (v, w, mult) from layer t to layer t - 1."""
    n = g.n
    q = n - 1
    nbrs = tuple(tuple((w, m) for w, m in enumerate(row) if m) for row in g.mult)
    dist = [-1] * n
    dist[q] = 0
    order = [q]
    for v in order:
        for w, _ in nbrs[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
    layers = []
    for t in range(dist[order[-1]], 0, -1):
        layer = tuple(v for v in order if dist[v] == t)
        edges = tuple((v, w, m) for v in layer for w, m in nbrs[v] if dist[w] == t - 1)
        layers.append((layer, edges))
    return nbrs, tuple(layers)


def q_reduced(g: Multigraph, d) -> tuple:
    """The q-reduced (superstable off the sink) representative of the
    divisor class of d, with q = node n.

    Stage 1 clears debt off q by unfiring the outer BFS layers; stage 2 is
    Dhar's burning algorithm.
    """
    n = g.n
    q = n - 1
    d = list(d)
    nbrs, layers = _q_layers(g)

    # Unfire U_t = {v : dist[v] >= t} from the deepest layer inward; a layer
    # never loses chips after its own pass.  BFS edges leaving U_t all join
    # layer t to layer t - 1, and each layer-t vertex has at least one.
    for layer, edges in layers:
        need = max(0, max(-d[v] for v in layer))
        if need == 0:
            continue
        for v, w, m in edges:
            d[v] += need * m
            d[w] -= need * m

    # Dhar burning: the fire spreads from q to every vertex with fewer chips
    # than burnt edges; if some vertices stay unburnt, they fire together.
    while True:
        burnt = [False] * n
        burnt[q] = True
        incoming = [0] * n
        stack = [q]
        nburnt = 1
        while stack:
            v = stack.pop()
            for w, m in nbrs[v]:
                if not burnt[w]:
                    incoming[w] += m
                    if d[w] < incoming[w]:
                        burnt[w] = True
                        nburnt += 1
                        stack.append(w)
        if nburnt == n:
            return tuple(d)
        for v in range(n):
            if not burnt[v]:
                for w, m in nbrs[v]:
                    if burnt[w]:
                        d[v] -= m
                        d[w] += m


def divisor_rank_oracle(g: Multigraph, u) -> int:
    """Independent divisor rank: largest r such that subtracting any
    effective divisor of degree r leaves an effective class, decided by
    q-reduction.

    A depth-first walk over the effective e as non-decreasing vertex
    sequences carries the q-reduced divisor d equivalent to u - e.  Taking a
    chip from a vertex that has one keeps d q-reduced; only a vertex without
    chips calls ``q_reduced``.  Effectiveness is monotone in e, so branches
    at or beyond the least degree of a failing e found so far are cut, and
    the rank is that degree minus one.  Node q comes last in the order and
    d is q-reduced, so e plus j copies of q stays effective exactly for
    j <= d_q: those chains bound the failing degree without being walked.
    The walk uses an explicit stack, as its depth reaches deg(u).
    """
    if len(u) != g.n:
        raise ValueError("divisor length must equal the node count")
    u = tuple(u)
    q = g.n - 1
    deg = sum(u)
    if deg < 0:
        return -1
    d = q_reduced(g, u)
    if d[q] < 0:
        return -1
    fail = deg + 1  # every e of degree deg(u) + 1 fails
    # (q-reduced divisor equivalent to u - e, deg e, least vertex e may still take)
    stack = [(d, 0, 0)]
    while stack:
        d, k, first = stack.pop()
        fail = min(fail, k + d[q] + 1)
        if k + 1 >= fail:
            continue
        for v in range(first, q):
            child = d[:v] + (d[v] - 1,) + d[v + 1 :]
            if d[v] == 0:
                child = q_reduced(g, child)
                if child[q] < 0:
                    fail = k + 1
                    break
            stack.append((child, k + 1, v))
    return fail - 1


def baker_norine_verify(g: Multigraph, u) -> dict:
    """Check rank(x^u) - rank(x^k / x^u) = deg(u) - genus + 1 exactly."""
    u = tuple(u)
    k = canonical_divisor(g)
    ru = divisor_rank(g, u)
    rk = divisor_rank(g, vec_sub(k, u))
    deg = sum(u)
    genus = g.genus
    return {
        "rank_u": ru,
        "rank_k_minus_u": rk,
        "degree": deg,
        "genus": genus,
        "pass": ru - rk == deg - genus + 1,
    }
