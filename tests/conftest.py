"""Shared fixtures: the named example graphs, random graph generators,
graph oracles (the edge-sum monomials x^(I->J) among them), the box-scan
monomial rank, the full-boundary homology oracle, the apartment-slice
oracle for the toppling side, the upper Koszul faces from the maximal
facets, the class table from every flag of the origin, the divisor rank
by the uncut q-reduction walk, and the cyclic-partition free complex."""

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import or_
from pathlib import Path

import pytest

from chipalg.chipfiring import _borrow, _neighbours, q_reduced
from chipalg.kernels import sparse_rank
from chipalg.monomials import MonomialIdeal, _minimize, lcm_exp, require_artinian, vec_add, vec_sub
from chipalg.multigraph import Multigraph, divisor_class_group, parse_graph
from chipalg.resolutions import (
    LabeledComplex,
    OrderedPartition,
    _cliques,
    _subset_images,
    apt_region,
    cyc_partitions,
)
from chipalg.riemann_roch import RankWitness

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


def data_and_seeded_graphs(seed: int) -> list:
    """The data graphs c4, k4, chain, prism and sat5, then for n = 1-6 a
    seeded connected graph and, for n > 1, a seeded saturated one."""
    rng = random.Random(seed)
    graphs = [parse_graph((DATA / f"{name}.graph").read_text()) for name in ("c4", "k4", "chain", "prism", "sat5")]
    for n in range(1, 7):
        graphs.append(random_connected(rng, n, max_mult=3 if n < 6 else 1))
        if n > 1:
            graphs.append(random_saturated(rng, n))
    return graphs


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


def format_graph(g: Multigraph) -> str:
    """The graph in the text format that ``parse_graph`` reads."""
    lines = [f"nodes {g.n}"]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.mult[i][j]:
                lines.append(f"edge {i + 1} {j + 1} {g.mult[i][j]}")
    return "\n".join(lines) + "\n"


def _arrow(g: Multigraph, I, J) -> tuple:
    """Exponent vector over [n] of x^(I->J) = prod_{i in I} x_i^(sum_{k in J} u_ik),
    summed edge by edge."""
    out = [0] * g.n
    for i in I:
        out[i - 1] = sum(g.mult[i - 1][k - 1] for k in J)
    return tuple(out)


def induces_connected(g: Multigraph, nodes) -> bool:
    """Whether the non-empty node set (1-based) induces a connected
    subgraph, by a search over its edges."""
    nodes = set(nodes)
    seen, stack = set(), [min(nodes)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack += [w for w in nodes if g.mult[v - 1][w - 1]]
    return seen == nodes


def face_label(c: LabeledComplex, face) -> tuple:
    """The lcm of the face's vertex labels."""
    lab = c.vertex_labels[face[0]]
    for v in face[1:]:
        lab = lcm_exp(lab, c.vertex_labels[v])
    return lab


def face_counts(c: LabeledComplex) -> tuple:
    """Number of faces per dimension."""
    if not c.faces:
        return ()
    out = [0] * max(len(f) for f in c.faces)
    for f in c.faces:
        out[len(f) - 1] += 1
    return tuple(out)


def homology_ranks_oracle(c: LabeledComplex, char: int = 0) -> dict:
    """Reduced homology ranks from the full augmented chain complex: every
    face is ranked, and each vertex maps to the empty face."""
    by_dim = {}
    for f in c.faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    if not by_dim:
        return {-1: 1}
    top = max(by_dim)
    for d in by_dim:
        by_dim[d].sort()
    pos = {d: {f: i for i, f in enumerate(by_dim[d])} for d in by_dim}
    ranks = {0: 1, top + 1: 0}
    for d in range(1, top + 1):
        cols = []
        for f in by_dim[d]:
            col = {}
            for i in range(len(f)):
                col[pos[d - 1][f[:i] + f[i + 1 :]]] = -1 if i % 2 else 1
            cols.append(col)
        ranks[d] = sparse_rank(cols, char)
    out = {-1: 1 - ranks[0]}
    for d in range(top + 1):
        out[d] = len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1]
    return out


def cut_cliques(nbrs, labels, roots, cut, join=lcm_exp):
    """The clique walk of ``resolutions._cliques`` with a cut: yield
    ``(face, label)`` for each non-empty clique within the vertex bitmask
    ``roots`` whose label, the ``join`` of its vertex ``labels``, is not
    ``cut``, in lexicographic pre-order.  A face labelled ``cut`` ends its
    branch, so when the join only grows along a branch towards ``cut`` the
    faces yielded are those whose label stays below it."""

    def walk(face, label, cand):
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            lab = join(label, labels[j]) if face else labels[j]
            if lab != cut:
                nxt = face + (j,)
                yield nxt, lab
                yield from walk(nxt, lab, cand & nbrs[j])

    return walk((), None, roots)


def apartment_slices(g: Multigraph, degs) -> list:
    """Oracle for the toppling side: the apartment slice below each degree
    c of ``degs``, whose reduced homology in dimension i is beta_{i+1, c}.

    The vertices of every slice are the union of ``apt_region``'s points
    below the degrees, sorted, and the faces index them.  Two points are
    adjacent when they differ by an image L e_I, that is, when their classes
    are at tropical distance 1.  A slice's faces are the cliques of points
    w <= c whose lcm label properly divides x^c; below c a label is c
    exactly when every coordinate i is hit by some vertex with w_i = c_i, so
    the walk cuts on the bitwise or of those hits."""
    images = _subset_images(g)
    degs = [tuple(c) for c in degs]
    below = apt_region(g, degs, images)
    ws = tuple(sorted({w for pts in below for w in pts}))
    index = {w: k for k, w in enumerate(ws)}
    nbrs = [sum(1 << index[x] for d in images[1] if (x := vec_add(w, d)) in index) for w in ws]
    out = []
    for c, pts in zip(degs, below):
        hits = {index[w]: sum(1 << i for i, (a, b) in enumerate(zip(w, c)) if a == b) for w in pts}
        faces = cut_cliques(nbrs, hits, sum(1 << k for k in hits), (1 << g.n) - 1, or_)
        out.append(LabeledComplex(ws, tuple(f for f, _ in faces)))
    return out


def koszul_faces_by_facets(points, c) -> tuple:
    """Oracle for the face set of ``resolutions._koszul_ranks``: the upper
    Koszul complex K^c from the lattice ``points`` w <= c, by its maximal
    facets.  The facets are the sets {i : w_i < c_i}, as vertex bitmasks;
    returns the antichain of the maximal ones, as a frozenset, and the
    faces, every non-empty subset of a maximal facet as a sorted tuple, in
    lexicographic order."""
    n = len(c)
    facets = {sum(1 << i for i in range(n) if w[i] < c[i]) for w in points}
    top = frozenset(f for f in facets if not any(f != h and f & h == f for h in facets))
    faces = set()
    for f in top:
        vs = [i for i in range(n) if f >> i & 1]
        for k in range(1, len(vs) + 1):
            faces.update(combinations(vs, k))
    return top, tuple(sorted(faces))


def class_table_by_flag_walk(g: Multigraph, images) -> dict:
    """Oracle for ``resolutions._zero_incident_labels``: the class table
    from a walk over every flag of the origin.  The inclusion graph of the
    origin table ``images`` is walked from every subset, and each
    (degree, class) keeps the label of the first flag met in lexicographic
    pre-order, the empty flag first; each distinct label is classified
    once, at its first flag."""
    subsets, imgs, nbrs = images
    grp = divisor_class_group(g)
    zero = (0,) * g.n
    table = {(0, grp.class_of(zero)): zero}
    labels = [lcm_exp(zero, d) for d in imgs]  # each flag's label includes the origin's
    flags = _cliques(nbrs, labels, (1 << len(subsets)) - 1)
    for lab in dict.fromkeys(lab for _, lab in flags):
        table.setdefault((sum(lab), grp.class_of(lab)), lab)
    return table


def divisor_rank_uncut_walk(g: Multigraph, u) -> int:
    """Oracle for ``chipfiring.divisor_rank_oracle``: the same walk over the
    effective e as non-decreasing vertex sequences, carrying the q-reduced
    divisor d equivalent to u - e, cut only at nodes of degree fail - 1,
    with every child built and pushed."""
    u = tuple(u)
    q = g.n - 1
    deg = sum(u)
    if deg < 0:
        return -1
    d = q_reduced(g, u)
    if d[q] < 0:
        return -1
    nbrs, degs = _neighbours(g)
    fail = deg + 1
    stack = [(d, 0, 0)]
    while stack:
        d, k, first = stack.pop()
        fail = min(fail, k + d[q] + 1)
        if k + 1 >= fail:
            continue
        for v in range(first, q):
            if d[v]:
                child = d[:v] + (d[v] - 1,) + d[v + 1 :]
            else:
                child = list(d)
                child[v] = -1
                _borrow(nbrs, degs, child, [v])
                child = tuple(child)
                if child[q] < 0:
                    fail = k + 1
                    break
            stack.append((child, k + 1, v))
    return fail - 1


def alexander_dual_box_generators(M: MonomialIdeal, K) -> list:
    """Minimal u with 0 <= u <= K and x^(K-u) outside M, by a scan of the
    box: the generators of the Alexander dual at the corner K.  For a
    reflection-invariant ideal with canonical monomial x^K they are the
    socle."""
    require_artinian(M)
    K = tuple(K)
    if any(e < 0 for e in K):
        raise ValueError("box corner must be non-negative")
    hits = [u for u in product(*(range(k + 1) for k in K)) if not M.contains(vec_sub(K, u))]
    return list(_minimize(hits))


def mono_rank_box_oracle(M: MonomialIdeal, b) -> RankWitness:
    """Rank of x^b by a scan of the whole box 0 <= a <= b: the a of least
    (degree, lexicographic) order with x^(b-a) outside M, and its degree
    minus one."""
    require_artinian(M)
    b = tuple(b)
    hits = [a for a in product(*(range(e + 1) for e in b)) if not M.contains(vec_sub(b, a))]
    best = min(hits, key=lambda a: (sum(a), a))
    return RankWitness(sum(best) - 1, best)


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


def flag_socle_oracle(g: Multigraph) -> dict:
    """Map from each complete flag T_1 c ... c T_{n-1} of [n-1], given as
    the permutation whose first i entries are T_i, to its socle monomial
    lcm(x^(T_i -> complement)) / (x_1...x_{n-1}), with the lcm taken as a
    running max over every T_i and each of its members."""
    n = g.n
    out = {}
    for perm in permutations(range(1, n)):
        exps = [0] * (n - 1)
        members = set()
        for v in perm:
            members.add(v)
            outside = [k for k in range(1, n + 1) if k not in members]
            for j in members:
                exps[j - 1] = max(exps[j - 1], sum(g.mult[j - 1][k - 1] for k in outside))
        out[perm] = tuple(e - 1 for e in exps)
    return out


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


# The paper's cellular resolution on cyclically ordered partitions.  On a
# saturated graph it is minimal, so its ranks are the Betti numbers.


@dataclass(frozen=True)
class FreeComplex:
    """Complex of free modules with signed-monomial boundary matrices.

    ``matrices[i]`` maps step i+1 to step i; entries are maps from an
    exponent tuple to an integer coefficient, indexed by (row, col).
    ``labels[i][j]`` is the exponent-vector degree of basis element j.
    """

    nvars: int
    ranks: tuple
    basis: tuple  # per step, tuple of OrderedPartition
    labels: tuple
    matrices: tuple  # per step, dict (row, col) -> {exp: coeff}

    def d_squared_is_zero(self) -> bool:
        for a, b in zip(self.matrices, self.matrices[1:]):
            # product entry (i, k) = sum_j a[i,j] * b[j,k]
            prod = {}
            for (j, k), pb in b.items():
                for (i, j2), pa in a.items():
                    if j2 != j:
                        continue
                    acc = prod.setdefault((i, k), {})
                    for ea, ca in pa.items():
                        for eb, cb in pb.items():
                            e = vec_add(ea, eb)
                            acc[e] = acc.get(e, 0) + ca * cb
            if any(any(c for c in p.values()) for p in prod.values()):
                return False
        return True


def basis_label(g: Multigraph, p: OrderedPartition, nvars: int) -> tuple:
    """Degree of the basis element (I_1, ..., I_k): the lcm face label
    prod_{s<t} x^(I_s -> I_t), i.e. each block maps to the union of all
    later blocks."""
    out = (0,) * g.n
    k = len(p.blocks)
    for s in range(k - 1):
        later = tuple(sorted(v for b in p.blocks[s + 1 :] for v in b))
        out = vec_add(out, _arrow(g, p.blocks[s], later))
    return out[:nvars]


def _merge(blocks, s):
    merged = tuple(sorted(blocks[s] + blocks[s + 1]))
    return blocks[:s] + (merged,) + blocks[s + 2 :]


def _build_complex(g: Multigraph, with_wrap: bool, nvars: int) -> FreeComplex:
    n = g.n
    basis = tuple(tuple(cyc_partitions(n, k)) for k in range(1, n + 1))
    index = [{p: i for i, p in enumerate(bs)} for bs in basis]
    labels = tuple(
        tuple(basis_label(g, p, nvars) for p in bs) for bs in basis
    )
    matrices = []
    for k in range(1, n):  # map from step k (k+1 blocks) to step k-1
        mat = {}

        def put(row, col, exp, coeff):
            if coeff == 0:
                return
            entry = mat.setdefault((row, col), {})
            entry[exp] = entry.get(exp, 0) + coeff
            if entry[exp] == 0:
                del entry[exp]
                if not entry:
                    del mat[(row, col)]

        for col, p in enumerate(basis[k]):
            blocks = p.blocks
            r = len(blocks)
            for s in range(r - 1):
                mono = _arrow(g, blocks[s], blocks[s + 1])[:nvars]
                target = OrderedPartition(_merge(blocks, s))
                sign = -1 if s % 2 else 1
                put(index[k - 1][target], col, mono, sign)
            if with_wrap:
                mono = _arrow(g, blocks[-1], blocks[0])[:nvars]
                merged = tuple(sorted(blocks[0] + blocks[-1]))
                target = OrderedPartition(blocks[1:-1] + (merged,))
                put(index[k - 1][target], col, mono, -1)
        matrices.append(mat)
    return FreeComplex(
        nvars=nvars,
        ranks=tuple(len(bs) for bs in basis),
        basis=basis,
        labels=labels,
        matrices=tuple(matrices),
    )


def cyc_complex(g: Multigraph) -> FreeComplex:
    """The cellular free resolution of K[x]/I_G on cyclic partitions,
    wrap-around boundary terms included."""
    return _build_complex(g, with_wrap=True, nvars=g.n)


def scarf_complex_parking(g: Multigraph) -> FreeComplex:
    """The resolution of the parking ideal over x_1..x_{n-1}: the cyclic
    complex with the wrap-around terms dropped."""
    return _build_complex(g, with_wrap=False, nvars=g.n - 1)


def minimality_check(c: FreeComplex) -> bool:
    """A resolution is minimal iff no boundary entry carries a unit:
    every entry is graded, so a unit appears only as a nonzero constant."""
    zero = (0,) * c.nvars
    for mat in c.matrices:
        for poly in mat.values():
            if poly.get(zero, 0) != 0:
                return False
    return True


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
