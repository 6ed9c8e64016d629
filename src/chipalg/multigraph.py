"""Multigraphs, Laplacians, splits, and the divisor class group.

Nodes are named 1..n; node n is the distinguished node (the sink) by
convention throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .exactla import IntMatrix, determinant, smith_normal_form

#: Entries kept by each cache keyed on a ``Multigraph``.
GRAPH_CACHE_SIZE = 64

__all__ = [
    "Multigraph",
    "Split",
    "DivisorClassGroup",
    "laplacian",
    "tree_count",
    "splits",
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
        if not _connected(self.mult, range(n)):
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

    def u(self, i: int, j: int) -> int:
        """Edge multiplicity between nodes i and j (1-based)."""
        return self.mult[i - 1][j - 1]

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


@dataclass(frozen=True)
class Split:
    """A split (I, J) of [n]; the canonical side I avoids node n."""

    I: tuple
    J: tuple

    def __post_init__(self):
        if not self.I or not self.J or set(self.I) & set(self.J):
            raise ValueError("split sides must be non-empty and disjoint")
        n = max(self.J)
        if set(self.I) | set(self.J) != set(range(1, n + 1)):
            raise ValueError("split sides must cover [n]")
        if n in self.I:
            raise ValueError("canonical split has n on side J")


def _connected(mult, nodes) -> bool:
    nodes = list(nodes)
    if not nodes:
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    inside = set(nodes)
    while stack:
        v = stack.pop()
        for w in inside:
            if w not in seen and mult[v][w] > 0:
                seen.add(w)
                stack.append(w)
    return seen == inside


def laplacian(g: Multigraph) -> IntMatrix:
    """Graph Laplacian: node degrees on the diagonal, -u_ij off it."""
    n = g.n
    rows = [
        [g.degree(i + 1) if i == j else -g.mult[i][j] for j in range(n)]
        for i in range(n)
    ]
    return IntMatrix.from_rows(rows)


def tree_count(g: Multigraph) -> int:
    """Number of spanning trees, by the Matrix-Tree theorem."""
    return determinant(laplacian(g).delete_row_col(g.n - 1, g.n - 1))


def splits(n: int):
    """All 2**(n-1) - 1 canonical splits of [n], ordered by |I| then
    lexicographically; a one-node graph has none."""
    out = []
    for size in range(1, n):
        for I in combinations(range(1, n), size):
            J = tuple(sorted(set(range(1, n + 1)) - set(I)))
            out.append(Split(I, J))
    return out


def connected_splits(g: Multigraph):
    """Splits whose both induced subgraphs are connected."""
    out = []
    for s in splits(g.n):
        if _connected(g.mult, [i - 1 for i in s.I]) and _connected(
            g.mult, [j - 1 for j in s.J]
        ):
            out.append(s)
    return out


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
            sum(r * x for r, x in zip(row, w)) % d
            for row, d in zip(self._proj_rows, self.invariant_factors)
        )


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def divisor_class_group(g: Multigraph) -> DivisorClassGroup:
    """Invariant factors and projection for Div_0(G), via Smith normal form."""
    lam = laplacian(g)
    snf = smith_normal_form(lam)
    factors = []
    rows = []
    for i, d in enumerate(snf.diagonal):
        if d > 1:
            factors.append(d)
            rows.append(snf.left.row(i))
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
            n = int(parts[1])
            if n < 1:
                raise ValueError(f"line {lineno}: need at least one node")
            continue
        if parts[0] != "edge" or len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'edge <i> <j> <mult>'")
        i, j, w = int(parts[1]), int(parts[2]), int(parts[3])
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
