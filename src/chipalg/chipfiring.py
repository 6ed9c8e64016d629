"""Toppling and parking-function ideals, connected flags, lattice points,
and divisor rank on a multigraph.

Node n is the distinguished node: lead monomials avoid x_n, parking
functions live on x_1..x_{n-1}, and divisor reduction is taken at n.
Each toppling binomial is the Laplacian move L e_I of a connected split
(``multigraph.connected_splits``) cut into its positive and negative parts.

Debt off the sink is cleared in one place, ``_borrow``: ``q_reduced``
borrows off its debt and then runs Dhar's rounds as "q fires, the debts
are borrowed back", and the rank oracle borrows for each chip it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from operator import mul

from .kernels import bareiss
from .monomials import MonomialIdeal, degree_plus, standard_monomials, vec_sub
from .multigraph import (
    GRAPH_CACHE_SIZE,
    Multigraph,
    _adjacency,
    _bits,
    _components,
    connected_splits,
    laplacian,
    tree_count,
)

__all__ = [
    "SplitBinomial",
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
    """The binomial x^(I->J) - x^(J->I) of a split (I, J) with n in J, so
    the lead side is the x_n-free one."""

    I: tuple
    lead: tuple  # exponents over [n]
    trail: tuple

    def __post_init__(self):
        if sum(self.lead) != sum(self.trail):
            raise ValueError("split binomial must be homogeneous")


def toppling_generators(g: Multigraph) -> list:
    """Minimal generating binomials of the toppling ideal: one per connected
    split (I, J), whose L e_I has positive part x^(I->J) and negative part
    x^(J->I).  I is written as the sorted tuple of its 1-based nodes."""
    return [
        SplitBinomial(tuple(i + 1 for i in _bits(I)), tuple(max(x, 0) for x in d), tuple(max(-x, 0) for x in d))
        for I, d in connected_splits(g)
    ]


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
    """The distinct flag socle monomials of the parking ideal, sorted.

    For the flag T_1 c T_2 c ... c T_{n-1} of [n-1] whose T_i are the first
    i entries of a permutation, the monomial is lcm(x^(T_i -> complement))
    divided by x_1...x_{n-1}.  The exponent of x_v is largest at the first
    T_i that holds v, so it is the number of v's edges to the nodes after v
    in the permutation, node n included, minus 1.
    """
    n = g.n
    out = set()
    for perm in permutations(range(n - 1)):
        exps = [0] * (n - 1)
        for i, v in enumerate(perm):
            row = g.mult[v]
            exps[v] = row[n - 1] + sum(row[w] for w in perm[i + 1 :]) - 1
        out.add(tuple(exps))
    return sorted(out)


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
    bitmasks, split into components by ``multigraph._components``.
    """
    n = g.n
    adj = _adjacency(g.mult)
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
            out = memo_comps[mask] = _components(adj, mask)
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


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def lattice_socle_base(g: Multigraph) -> tuple:
    """Distinct base socle monomials s / x_n of the lattice module, as
    exponent vectors over [n] (last coordinate -1), in lexicographic order.
    Cached per graph (``baker_norine_verify`` ranks u and K - u), so the
    result is a tuple.

    The socle of the parking ideal is the set of maximal superstables,
    which are c(v) = indeg_O(v) - 1 over the acyclic orientations O with
    node n as unique source (Benson-Chakrabarty-Tetali).  Reversing O makes
    n the unique sink, so these are the connected flags with singleton
    blocks, with one subtracted from each degree.  They are distinct, as an
    acyclic orientation is determined by its indegree vector.
    """
    return tuple(sorted(tuple(d - 1 for d in c) for _, c in _layerings(g, singletons=True)))


def canonical_divisor(g: Multigraph) -> tuple:
    """Exponent vector (d_1 - 2, ..., d_n - 2); degree is 2*genus - 2."""
    return tuple(g.degree(i) - 2 for i in range(1, g.n + 1))


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _reduced_laplacian_inverse(g: Multigraph) -> tuple:
    """The inverse of the Laplacian L with row and column n deleted, as
    integers (adj, det, L): inverse = adj / det with det = tree count.

    One ``bareiss`` elimination of [L' | I] ends at [det*I | adj].  L' is
    positive definite, so no pivot (a leading principal minor) is zero and
    no row is swapped.
    """
    m = g.n - 1
    lam = laplacian(g)
    det, rows = bareiss([list(lam[i][:m]) + [int(i == j) for j in range(m)] for i in range(m)])
    adj = tuple(tuple(row[m:]) for row in rows)
    # A wrong inverse would silently drop lattice points: check it once.
    if det != tree_count(g) or any(
        sum(adj[i][k] * lam[k][j] for k in range(m)) != det * (i == j)
        for i in range(m)
        for j in range(m)
    ):
        raise AssertionError("reduced Laplacian adjugate check failed")
    return adj, det, lam


def lattice_points_in_box(g: Multigraph, lo, hi) -> list:
    """All Laplacian-lattice vectors w with lo <= w <= hi componentwise:
    the boxes that ``divisor_rank`` searches."""
    n = g.n
    if len(lo) != n or len(hi) != n:
        raise ValueError("box bounds must have one entry per node")
    if any(l > h for l, h in zip(lo, hi)):
        return []
    m = n - 1
    if m == 0:  # the walk below checks no row when it fixes no coordinate
        return [(0,)] if lo[0] <= 0 <= hi[0] else []
    adj, det, lap = _reduced_laplacian_inverse(g)
    # v' = adj @ w' / det over the box w' in prod [lo_i, hi_i], i < n.  L' is
    # a Stieltjes matrix, so adj = det * L'^-1 >= 0 (Berman-Plemmons) and
    # the corners lo and hi bound v'.
    vlo = [-(-sum(map(mul, row, lo)) // det) for row in adj]  # ceil
    vhi = [sum(map(mul, row, hi)) // det for row in adj]  # floor

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

    def rec(j):
        if j == m:
            out.append(tuple(partial))
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
            rec(j + 1)
            for i in range(n):
                partial[i] -= lap[i][j] * v

    rec(0)
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
        for w in lattice_points_in_box(g, lo, hi):
            best = min(best, degree_plus(vec_sub(x, w)))
    return best - 1


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _neighbours(g: Multigraph) -> tuple:
    """Per-vertex neighbour lists (w, mult) and vertex degrees."""
    nbrs = tuple(tuple((w, m) for w, m in enumerate(row) if m) for row in g.mult)
    degs = tuple(sum(row) for row in g.mult)
    return nbrs, degs


def _borrow(nbrs, degs, d: list, debt: list) -> None:
    """Clear, in place, the debt of the divisor list d off q, its last
    vertex; ``debt`` lists each vertex v != q with d[v] < 0, once.

    While some vertex w != q is in debt, w borrows ceil(-d[w] / deg w)
    times: each borrow adds deg w chips to w and takes m(w, x) from each
    neighbour x, q included.  Under c -> (deg - 1) - c a borrow is a
    toppling with sink q, so this is sandpile stabilization: it ends, with
    d >= 0 off q, and which vertices borrow does not depend on the order.
    A vertex joins ``debt`` when it goes into debt.

    The map takes the superstables off q onto the recurrent configurations
    (Holroyd-Levine-Meszaros-Peres-Propp-Wilson, 2008), and a recurrent
    configuration plus one chip stabilizes to the recurrent configuration
    of its class (Dhar, PRL 1990).  So a q-reduced divisor minus one chip
    borrows straight to its q-reduced form.  In the same dual, q firing
    adds Dhar's burning configuration; ``q_reduced`` builds on that.
    """
    q = len(d) - 1
    while debt:
        w = debt.pop()
        k = -(d[w] // degs[w])  # ceil(-d[w] / deg w)
        d[w] += k * degs[w]
        for x, m in nbrs[w]:
            had = d[x]
            d[x] = had - k * m
            if had >= 0 > d[x] and x != q:
                debt.append(x)


def q_reduced(g: Multigraph, d) -> tuple:
    """The q-reduced (superstable off the sink) representative of the
    divisor class of d, with q = node n.

    ``_borrow`` clears the debt off q.  Then, until a round gives d back,
    q fires once (each neighbour w loses m(w, q) chips to q) and ``_borrow``
    settles the neighbours in debt.  A round is one round of Dhar burning:
    with d >= 0 off q a vertex loses at most its degree, so it borrows at
    most once, and it borrows iff it has fewer chips than its edges to q
    and to the vertices that borrowed, i.e. iff Dhar burns it.  The others
    lose one chip per edge to the burnt set: Dhar fires the unburnt set.
    That changes d unless every vertex burns, which is superstability.
    """
    n = g.n
    if len(d) != n:
        raise ValueError("divisor length must equal the node count")
    q = n - 1
    d = list(d)
    nbrs, degs = _neighbours(g)
    _borrow(nbrs, degs, d, [v for v in range(q) if d[v] < 0])
    while True:
        before = tuple(d)
        d[q] += degs[q]
        for w, m in nbrs[q]:
            d[w] -= m
        _borrow(nbrs, degs, d, [w for w, _ in nbrs[q] if d[w] < 0])
        if tuple(d) == before:
            return before


def divisor_rank_oracle(g: Multigraph, u) -> int:
    """Independent divisor rank: largest r such that subtracting any
    effective divisor of degree r leaves an effective class, decided by
    q-reduction.

    A depth-first walk over the effective e as non-decreasing vertex
    sequences carries the q-reduced divisor d equivalent to u - e; only u
    itself goes through ``q_reduced``.  Taking a chip from a vertex that
    has one keeps d q-reduced; a vertex without chips goes into debt, and
    ``_borrow`` settles it.  Node q comes last in the order and d is
    q-reduced, so e plus j copies of q stays effective exactly for j <= d_q:
    those chains bound the failing degree without being walked.  The rank
    is the least degree ``fail`` of a failing e found, minus one.

    Two cuts keep the walk below ``fail``.  The divisors under a node
    (d, deg e = k, least vertex ``first``) are the e + h with h >= 0 on the
    vertices from ``first`` on, q's chains included.  If h <= d, then
    u - e - h ~ d - h >= 0 is effective; so a failing h takes more than d_v
    chips at some vertex v >= first, and k + 1 + min(d[first:]) >= fail
    cuts the node.  A child has degree k + 1, so when k + 2 >= fail its own
    chains and children cannot go below ``fail`` and the cut above takes
    it; such a child lowers ``fail`` only by failing itself, when the
    borrowing puts q in debt, and is built only to test that.  The walk
    uses an explicit stack, as its depth reaches deg(u).
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
    nbrs, degs = _neighbours(g)
    fail = deg + 1  # every e of degree deg(u) + 1 fails
    # (q-reduced divisor equivalent to u - e, deg e, least vertex e may still take)
    stack = [(d, 0, 0)]
    while stack:
        d, k, first = stack.pop()
        fail = min(fail, k + d[q] + 1)
        if k + 1 + min(d[first:]) >= fail:
            continue
        deep = k + 2 < fail  # else only a failing child matters
        for v in range(first, q):
            if d[v]:
                if deep:
                    stack.append((d[:v] + (d[v] - 1,) + d[v + 1 :], k + 1, v))
                continue
            child = list(d)
            child[v] = -1
            _borrow(nbrs, degs, child, [v])
            if child[q] < 0:
                fail = k + 1
                break
            if deep:
                stack.append((tuple(child), k + 1, v))
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
