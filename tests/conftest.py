"""Shared fixtures: the named example graphs, random graph generators and
graph oracles."""

import random
from pathlib import Path

import pytest

from chipalg.multigraph import Multigraph

DATA = Path(__file__).parent / "data"


def k4() -> Multigraph:
    """Complete graph on 4 nodes."""
    return Multigraph.from_edges(
        4, {(i, j): 1 for i in range(1, 5) for j in range(i + 1, 5)}
    )


def c4() -> Multigraph:
    """4-cycle 1-2-3-4-1."""
    return Multigraph.from_edges(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1})


def cycle_family(delta: int, eps: int) -> Multigraph:
    """4-cycle edges with multiplicity delta, diagonals with multiplicity eps."""
    edges = {(1, 2): delta, (2, 3): delta, (3, 4): delta, (1, 4): delta}
    if eps:
        edges[(1, 3)] = eps
        edges[(2, 4)] = eps
    return Multigraph.from_edges(4, edges)


def prism() -> Multigraph:
    """Triangular prism: two triangles 123, 456 joined by a perfect matching."""
    return Multigraph.from_edges(
        6,
        {(1, 2): 1, (2, 3): 1, (1, 3): 1, (4, 5): 1, (5, 6): 1, (4, 6): 1,
         (1, 4): 1, (2, 5): 1, (3, 6): 1},
    )


def chain_graph() -> Multigraph:
    """4 nodes a,b,c,d with 2 a-b edges, 1 b-c edge, 3 c-d edges."""
    return Multigraph.from_edges(4, {(1, 2): 2, (2, 3): 1, (3, 4): 3})


def random_saturated(rng: random.Random, n: int, max_mult: int = 3) -> Multigraph:
    return Multigraph.from_edges(
        n,
        {
            (i, j): rng.randint(1, max_mult)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        },
    )


def random_connected(rng: random.Random, n: int, max_mult: int = 2) -> Multigraph:
    """Random connected multigraph: a random spanning tree plus random edges."""
    edges = {}
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    for a, b in zip(nodes, nodes[1:]):
        i, j = min(a, b), max(a, b)
        edges[(i, j)] = rng.randint(1, max_mult)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < 0.5:
                edges[(i, j)] = rng.randint(1, max_mult)
    return Multigraph.from_edges(n, edges)


def all_connected_graphs(n: int, max_mult: int):
    """Every connected multigraph on n labeled nodes with bounded multiplicities."""
    from itertools import product

    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mults in product(range(max_mult + 1), repeat=len(pairs)):
        edges = {p: m for p, m in zip(pairs, mults) if m}
        if len(edges) < n - 1:
            continue
        try:
            yield Multigraph.from_edges(n, edges)
        except ValueError:  # disconnected
            continue


def acyclic_orientations_unique_sink(g: Multigraph, sink: int) -> int:
    """Acyclic orientations of the underlying simple graph with the given
    node as unique sink, by a loop over all 2^|E| orientations (an oracle
    for the top Betti number and the size of the parking socle).

    Multi-edges are collapsed: an orientation only depends on the simple
    support of the graph.
    """
    n = g.n
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if g.mult[i][j] > 0
    ]
    q = sink - 1
    count = 0
    for mask in range(1 << len(edges)):
        # bit set: orient i -> j, else j -> i
        out = [[] for _ in range(n)]
        outdeg = [0] * n
        for k, (i, j) in enumerate(edges):
            if mask >> k & 1:
                out[i].append(j)
                outdeg[i] += 1
            else:
                out[j].append(i)
                outdeg[j] += 1
        if outdeg[q] != 0 or any(outdeg[v] == 0 for v in range(n) if v != q):
            continue
        if _is_acyclic(n, out):
            count += 1
    return count


def _is_acyclic(n, out) -> bool:
    indeg = [0] * n
    for v in range(n):
        for w in out[v]:
            indeg[w] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == n


@pytest.fixture(name="k4_graph")
def _k4_graph():
    return k4()


@pytest.fixture(name="c4_graph")
def _c4_graph():
    return c4()


@pytest.fixture(name="prism_graph")
def _prism_graph():
    return prism()


@pytest.fixture(name="chain")
def _chain():
    return chain_graph()
