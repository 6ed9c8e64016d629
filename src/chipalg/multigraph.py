"""Multigraphs, Laplacians, the subset table, and the divisor class group.

Nodes are named 1..n; node n is the distinguished node (the sink) by
convention throughout the package.  Inside the package a node set is a
bitmask, bit i - 1 for node i; this module writes them (``_adjacency``,
``_components``) and decodes them (``_bits``).  The subset table
(``subset_images``) holds each proper non-empty subset I of [n], as a
bitmask, with its Laplacian move L e_I, built once per graph by one vector
addition per subset and cached: the splits (``connected_splits``, cached as
well), the toppling binomials, the barycentric labels and the steps of the
lattice-point search are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import add, mul

from .exactla import determinant, smith_normal_form
from .monomials import parse_ints

#: Entries kept by each cache keyed on a ``Multigraph``.
GRAPH_CACHE_SIZE = 64

__all__ = [
    "Multigraph",
    "DivisorClassGroup",
    "laplacian",
    "tree_count",
    "subset_images",
    "connected_splits",
    "divisor_class_group",
    "div_class",
    "parse_graph",
]


@dataclass(frozen=True)
class Multigraph:
    """Connected loopless multigraph given by its edge-multiplicity matrix."""

    n: int
    mult: tuple  # tuple of n tuples of non-negative ints, symmetric, zero diagonal

    def __post_init__(self):
        n = self.n
        if n < 1 or len(self.mult) != n or any(len(r) != n for r in self.mult):
            raise ValueError("multiplicity matrix must be n x n")
        for i in range(n):
            if self.mult[i][i] != 0:
                raise ValueError("loops are not allowed")
            for j in range(n):
                if self.mult[i][j] < 0:
                    raise ValueError("multiplicities must be non-negative")
                if self.mult[i][j] != self.mult[j][i]:
                    raise ValueError("multiplicity matrix must be symmetric")
        if len(_components(_adjacency(self.mult), (1 << n) - 1)) != 1:
            raise ValueError("graph must be connected")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Multigraph":
        """Build from ``{(i, j): mult}``, 1-based."""
        m = [[0] * n for _ in range(n)]
        for (i, j), w in edges.items():
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            m[i - 1][j - 1] += w
            m[j - 1][i - 1] += w
        return cls(n, tuple(tuple(r) for r in m))

    def degree(self, i: int) -> int:
        return sum(self.mult[i - 1])

    @property
    def num_edges(self) -> int:
        return sum(self.mult[i][j] for i in range(self.n) for j in range(i + 1, self.n))

    @property
    def genus(self) -> int:
        return self.num_edges - self.n + 1

    def is_saturated(self) -> bool:
        n = self.n
        return all(self.mult[i][j] > 0 for i in range(n) for j in range(i + 1, n))

    def relabel_sink(self, i: int) -> "Multigraph":
        """Swap node i with node n (so i becomes the distinguished node)."""
        n = self.n
        if not 1 <= i <= n:
            raise ValueError(f"node {i} out of range")
        perm = list(range(n))
        perm[i - 1], perm[n - 1] = perm[n - 1], perm[i - 1]
        m = tuple(tuple(self.mult[perm[a]][perm[b]] for b in range(n)) for a in range(n))
        return Multigraph(n, m)


def _adjacency(mult) -> list:
    """Neighbour bitmask of each node (bit j for node j + 1)."""
    return [sum(1 << j for j, m in enumerate(row) if m) for row in mult]


def _components(adj, mask) -> list:
    """The node bitmasks of the components of the subgraph induced on the
    node bitmask ``mask``, by lowest node; ``adj`` is from ``_adjacency``."""
    out = []
    while mask:
        comp = todo = mask & -mask
        while todo:
            low = todo & -todo
            new = adj[low.bit_length() - 1] & mask & ~comp
            comp |= new
            todo ^= low | new
        out.append(comp)
        mask ^= comp
    return out


def _bits(mask) -> list:
    """Positions of the set bits of ``mask``, ascending: its 0-based nodes."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def laplacian(g: Multigraph) -> tuple:
    """Graph Laplacian as a tuple of rows: node degrees on the diagonal,
    -u_ij off it."""
    n = g.n
    return tuple(
        tuple(g.degree(i + 1) if i == j else -g.mult[i][j] for j in range(n))
        for i in range(n)
    )


def tree_count(g: Multigraph) -> int:
    """Number of spanning trees, by the Matrix-Tree theorem."""
    return determinant([row[:-1] for row in laplacian(g)[:-1]])


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def subset_images(g: Multigraph) -> tuple:
    """The pairs (I, L e_I) over the proper non-empty subsets I of [n], I a
    node bitmask, by |I| and then lexicographically.  Entry i of L e_I is
    the number of edges from i to [n] minus I for i in I, and minus the
    number from i to I otherwise.  A one-node graph has none.

    Built once per graph and cached, as a tuple.  Each image is one vector
    addition, L e_I = L e_(I - low) + column low of L with low the lowest
    node of I, as I - low comes earlier in the table (or is empty)."""
    n = g.n
    bits = [1 << i for i in range(n)]
    col = dict(zip(bits, zip(*laplacian(g))))
    img = [(0,) * n] * (1 << n)
    out = []
    for size in range(1, n):
        for I in combinations(bits, size):  # node bits, lowest first
            mask = sum(I)
            d = img[mask] = tuple(map(add, img[mask - I[0]], col[I[0]]))
            out.append((mask, d))
    return tuple(out)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def connected_splits(g: Multigraph) -> tuple:
    """The pairs (I, L e_I) of ``subset_images`` with n not in I and both I
    and [n] minus I inducing connected subgraphs, in the table's order.
    Cached per graph, as a tuple."""
    adj = _adjacency(g.mult)
    full = (1 << g.n) - 1
    return tuple(
        (I, d)
        for I, d in subset_images(g)
        if not I >> (g.n - 1) and len(_components(adj, I)) == len(_components(adj, full ^ I)) == 1
    )


@dataclass(frozen=True)
class DivisorClassGroup:
    """The degree-0 divisor class group Div_0(G) = Z^n_0 / image(Laplacian).

    ``invariant_factors`` are the cyclic orders (> 1); ``projection`` maps an
    integer vector of length n to residues modulo the invariant factors.
    """

    invariant_factors: tuple
    _proj_rows: tuple  # rows of the left SNF transform for the nontrivial factors

    def class_of(self, w) -> tuple:
        return tuple(
            sum(map(mul, row, w)) % d
            for row, d in zip(self._proj_rows, self.invariant_factors)
        )


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def divisor_class_group(g: Multigraph) -> DivisorClassGroup:
    """Invariant factors and projection for Div_0(G), via Smith normal form."""
    snf = smith_normal_form(laplacian(g))
    factors = []
    rows = []
    for i, d in enumerate(snf.diagonal):
        if d > 1:
            factors.append(d)
            rows.append(snf.left[i])
    return DivisorClassGroup(tuple(factors), tuple(rows))


def div_class(g: Multigraph, u) -> tuple:
    """Class in Div_0(G) of the degree-0 divisor (u, -sum(u)), with u over [n-1]."""
    if len(u) != g.n - 1:
        raise ValueError("exponent vector must have n-1 coordinates")
    w = tuple(u) + (-sum(u),)
    return divisor_class_group(g).class_of(w)


def parse_graph(text: str) -> Multigraph:
    """Parse the shared graph text format.

    Comment lines start with ``#``; the first data line is ``nodes <n>``,
    then ``edge <i> <j> <mult>`` lines with 1 <= i < j <= n and mult >= 1.
    """
    n = None
    edges = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "nodes" or len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'nodes <n>'")
            (n,) = parse_ints(parts[1:], f"line {lineno}")
            if n < 1:
                raise ValueError(f"line {lineno}: need at least one node")
            continue
        if parts[0] != "edge" or len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'edge <i> <j> <mult>'")
        i, j, w = parse_ints(parts[1:], f"line {lineno}")
        if not (1 <= i < j <= n):
            raise ValueError(f"line {lineno}: need 1 <= i < j <= n")
        if w < 1:
            raise ValueError(f"line {lineno}: multiplicity must be >= 1")
        if (i, j) in edges:
            raise ValueError(f"line {lineno}: duplicate edge {i} {j}")
        edges[(i, j)] = w
    if n is None:
        raise ValueError("missing 'nodes <n>' line")
    return Multigraph.from_edges(n, edges)
