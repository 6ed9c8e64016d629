"""Cellular free resolutions of toppling and parking ideals.

The Betti tables are counted from the connected flags of the graph
(``chipfiring.connected_flags``).  The parking-vs-toppling comparison takes
its Betti numbers from the reduced homology of label-restricted
subcomplexes of two labeled flag complexes: the barycentric subdivision of
the (n-2)-simplex with monomial labels, and the apartment complex of
lattice classes under the tropical metric.  A flag complex is given by one
neighbour bitmask per vertex, and one walk (``_cliques``) lists the faces
of both: every clique with its lcm label, cut where the label reaches a
degree.  ``apt_region`` builds one lattice box and hands out the apartment
slices below several degrees one at a time.  ``cyc_partitions`` lists the
cyclically ordered partitions of [n], which index the paper's free complex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .chipfiring import _arrow, _bits, connected_flags, lattice_points_in_box
from .exactla import check_char
from .kernels import sparse_rank
from .monomials import divides, lcm_exp, vec_add
from .multigraph import Multigraph, divisor_class_group, laplacian

__all__ = [
    "OrderedPartition",
    "LabeledComplex",
    "cyc_partitions",
    "bary_complex",
    "sub_below",
    "apt_region",
    "homology_ranks",
    "betti_parking",
    "betti_toppling",
    "conjecture_check",
]


@dataclass(frozen=True)
class OrderedPartition:
    """Cyclically ordered partition of [n], canonically rotated so that
    n lies in the last block."""

    blocks: tuple  # tuple of sorted tuples

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b or tuple(sorted(b)) != tuple(b):
                raise ValueError("blocks must be non-empty sorted tuples")
            if seen & set(b):
                raise ValueError("blocks must be disjoint")
            seen |= set(b)
        n = max(seen)
        if seen != set(range(1, n + 1)):
            raise ValueError("blocks must cover [n]")
        if n not in self.blocks[-1]:
            raise ValueError("canonical representative has n in the last block")


def _set_partitions(items, k):
    """All partitions of the list into k non-empty blocks (as sorted tuples)."""
    if k == 1:
        yield [tuple(items)]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    # first joins an existing block of a (k)-partition of the rest
    for part in _set_partitions(rest, k):
        for i in range(k):
            yield part[:i] + [tuple(sorted((first,) + part[i]))] + part[i + 1 :]
    # first is a singleton block
    for part in _set_partitions(rest, k - 1):
        yield [(first,)] + part


def _orderings(blocks):
    if len(blocks) <= 1:
        yield tuple(blocks)
        return
    for i, b in enumerate(blocks):
        for rest in _orderings(blocks[:i] + blocks[i + 1 :]):
            yield (b,) + rest


def cyc_partitions(n: int, k: int) -> list:
    """Canonical representatives of cyclically ordered partitions of [n]
    into k blocks; there are (k-1)!*S(n,k) of them."""
    if not 1 <= k <= n:
        raise ValueError("block count must satisfy 1 <= k <= n")
    out = []
    for part in _set_partitions(list(range(1, n + 1)), k):
        last = next(b for b in part if n in b)
        others = sorted(b for b in part if b is not last)
        for head in _orderings(others):
            out.append(OrderedPartition(head + (last,)))
    out.sort(key=lambda p: p.blocks)
    return out


@dataclass(frozen=True)
class LabeledComplex:
    """Simplicial complex with exponent-vector labels on the vertices.

    ``faces`` contains every face as a sorted tuple of vertex indices
    (singletons included); a face's label is the lcm of its vertex labels.
    """

    vertex_labels: tuple
    faces: tuple

    @cached_property
    def neighbours(self) -> list:
        """Bitmask of each vertex's neighbours along the edges."""
        nbrs = [0] * len(self.vertex_labels)
        for f in self.faces:
            if len(f) == 2:
                a, b = f
                nbrs[a] |= 1 << b
                nbrs[b] |= 1 << a
        return nbrs


def _cliques(nbrs, labels, roots, cut=None):
    """Yield ``(face, label)`` for each non-empty clique of the graph whose
    vertex k has the neighbour bitmask ``nbrs[k]``, within the vertex
    bitmask ``roots``: a face is a sorted tuple of vertices and its label
    the lcm of their ``labels``.  Faces come in lexicographic pre-order.

    A face labelled ``cut`` is not yielded and ends its branch: when every
    root label divides x^cut, the label only grows along a branch, so the
    faces yielded are those whose label properly divides x^cut.
    """

    def walk(face, label, cand):
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            lab = lcm_exp(label, labels[j]) if face else labels[j]
            if lab != cut:
                nxt = face + (j,)
                yield nxt, lab
                yield from walk(nxt, lab, cand & nbrs[j])

    return walk((), None, roots)


def _inclusion_graph(subsets) -> list:
    """Neighbour bitmasks of the subsets under proper inclusion: the
    cliques are the flags (chains) of subsets."""
    bits = [sum(1 << (i - 1) for i in s) for s in subsets]
    return [
        sum(1 << k for k, b in enumerate(bits) if a != b and a & b in (a, b))
        for a in bits
    ]


def bary_complex(g: Multigraph) -> LabeledComplex:
    """Barycentric subdivision of the (n-2)-simplex: vertices are the
    non-empty subsets I of [n-1] labeled x^(I -> [n] minus I), faces are
    chains of subsets."""
    n = g.n
    subsets = [s for size in range(1, n) for s in combinations(range(1, n), size)]
    labels = tuple(
        _arrow(g, s, tuple(k for k in range(1, n + 1) if k not in s))
        for s in subsets
    )
    flags = _cliques(_inclusion_graph(subsets), labels, (1 << len(subsets)) - 1)
    return LabeledComplex(labels, tuple(f for f, _ in flags))


def sub_below(c: LabeledComplex, deg) -> LabeledComplex:
    """Subcomplex of faces whose label properly divides x^deg.

    ``c`` must be a flag complex: its faces are the cliques of its edges.
    """
    deg = tuple(deg)
    labels = c.vertex_labels
    roots = sum(1 << v for v, lab in enumerate(labels) if divides(lab, deg))
    return LabeledComplex(labels, tuple(f for f, _ in _cliques(c.neighbours, labels, roots, deg)))


def _subset_images(g: Multigraph) -> tuple:
    """The proper non-empty subsets I of [n], by size, and the Laplacian
    images of their indicator vectors e_I."""
    n = g.n
    lam = laplacian(g)
    subsets = [s for size in range(1, n) for s in combinations(range(1, n + 1), size)]
    return subsets, [lam.mul_vec(tuple(int(i + 1 in s) for i in range(n))) for s in subsets]


def apt_region(g: Multigraph, degs, images):
    """Slice the apartment complex below each degree c of ``degs`` from one
    lattice box, and return an iterator over the slices in turn.

    A slice's vertices are the lattice classes v (normalized v_n = 0) with
    Laplacian@v <= c componentwise, labeled by Laplacian@v and sorted by
    label; its faces are the cliques of pairwise tropical distance <= 1
    whose lcm label properly divides x^c.  ``images`` are the subsets and
    their Laplacian images from ``_subset_images``.

    Laplacian images sum to 0, so a lattice vector w <= c has
    w_i >= c_i - sum(c) >= top_i - sum(top), where ``top`` is the
    componentwise max of the degrees: the box [top - sum(top), top] holds
    every slice.  Its points are sorted by w once, and bit k of a mask
    stands for the k-th of them.  A slice is the AND over i of the masks of
    points with w_i <= c_i.  The box, the masks and the neighbours are built
    here; each slice's cliques are walked as the iterator reaches it.
    """
    degs = [tuple(c) for c in degs]
    top = tuple(map(max, zip(*degs)))
    total = sum(top)
    lo = tuple(t - total for t in top)
    ws = sorted(lattice_points_in_box(g, lo, top))
    index = {w: k for k, w in enumerate(ws)}

    # at_most[i][t]: the points with w_i <= lo_i + t
    at_most = []
    for i in range(g.n):
        cum = [0] * (total + 1)
        for k, w in enumerate(ws):
            cum[w[i] - lo[i]] |= 1 << k
        for t in range(1, total + 1):
            cum[t] |= cum[t - 1]
        at_most.append(cum)
    masks = []
    for c in degs:
        mask = (1 << len(ws)) - 1
        for i, cum in enumerate(at_most):
            t = c[i] - lo[i]
            mask &= cum[t] if t >= 0 else 0
        masks.append(mask)

    # The neighbours of each point in some slice.  Tropical distance 1
    # means v' - v = e_I modulo the all-ones vector for a proper non-empty
    # I, that is, w' - w is the image of e_I.
    _, imgs = images
    union = 0
    for mask in masks:
        union |= mask
    nbrs = {}
    for k in _bits(union):
        nbrs[k] = sum(1 << j for j in (index.get(vec_add(ws[k], d)) for d in imgs) if j is not None)

    def cut(c, mask):
        idx = _bits(mask)
        pos = {k: a for a, k in enumerate(idx)}
        local = [sum(1 << pos[j] for j in _bits(nbrs[k] & mask)) for k in idx]
        labels = tuple(ws[k] for k in idx)
        faces = _cliques(local, labels, (1 << len(idx)) - 1, c)
        return LabeledComplex(labels, tuple(f for f, _ in faces))

    return map(cut, degs, masks)


def homology_ranks(c: LabeledComplex, char: int = 0) -> dict:
    """Reduced simplicial homology ranks over Q (char 0) or GF(char).

    Returns a map from dimension i (starting at -1) to the rank of the
    i-th reduced homology group; the empty complex has rank 1 in
    dimension -1.
    """
    check_char(char)
    by_dim = {}
    for f in c.faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    if not by_dim:
        return {-1: 1}
    top = max(by_dim)
    for d in by_dim:
        by_dim[d].sort()
    pos = {d: {f: i for i, f in enumerate(by_dim[d])} for d in by_dim}

    # ranks[d]: rank of the boundary from dimension d to d-1.  Every vertex
    # maps to the empty face, so ranks[0] is 1; nothing lies above the top.
    ranks = {0: 1, top + 1: 0}
    for d in range(1, top + 1):
        cols = []
        for f in by_dim[d]:
            col = {}
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                col[pos[d - 1][sub]] = -1 if i % 2 else 1
            cols.append(col)
        ranks[d] = sparse_rank(cols, char)
    out = {-1: 1 - ranks[0]}
    for d in range(top + 1):
        out[d] = len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1]
    return out


def _zero_incident_labels(g: Multigraph, images) -> dict:
    """The toppling class table: a map from each (degree, divisor class) of
    apartment face labels to one label of that class, in first-met order.

    Faces at the origin correspond to flags of proper non-empty subsets I of
    [n] (the neighbors are the classes of the indicator vectors e_I, labeled
    L e_I), the empty flag being the origin itself; every label orbit has
    such a representative by translation.  ``images`` are the subsets and
    their L e_I from ``_subset_images``.  Each class keeps the first label
    met with the flags in lexicographic pre-order, the empty flag first.
    """
    subsets, imgs = images
    grp = divisor_class_group(g)
    zero = (0,) * g.n
    table = {(0, grp.class_of(zero)): zero}
    labels = [lcm_exp(zero, d) for d in imgs]  # each flag's label includes the origin's
    for _, lab in _cliques(_inclusion_graph(subsets), labels, (1 << len(subsets)) - 1):
        table.setdefault((sum(lab), grp.class_of(lab)), lab)
    return table


def _count_table(n: int, flags) -> dict:
    """Betti table from (degree, index) pairs, one per connected flag."""
    counts = Counter(flags)
    total = [0] * n
    for (_, j), r in counts.items():
        total[j] += r
    return {"total": tuple(total), "entries": sorted((c, j, r) for (c, j), r in counts.items())}


def betti_parking(g: Multigraph) -> dict:
    """Betti table of the quotient by the parking ideal: beta_{k-1, c} is
    the number of connected flags with k blocks and degree c.

    The resolution is defined over the integers, so the table is the same
    in every characteristic.
    """
    return _count_table(g.n, ((c, k - 1) for k, c in connected_flags(g)))


def betti_toppling(g: Multigraph) -> dict:
    """Betti table of the quotient by the toppling ideal: the connected
    flag counts per divisor class of the degree, each class written as its
    label in the class table (``_zero_incident_labels``)."""
    grp = divisor_class_group(g)
    rep = _zero_incident_labels(g, _subset_images(g))
    return _count_table(
        g.n, ((rep[sum(c), grp.class_of(c)], k - 1) for k, c in connected_flags(g))
    )


def conjecture_check(g: Multigraph, char: int = 0) -> dict:
    """Compare parking-side and toppling-side graded Betti numbers.

    Barycentric face labels are x_n-free, but the apartment slice below a
    degree depends only on its divisor class, and distinct parking degrees
    can share a class.  The comparison therefore aggregates: for each
    class, the sum over its barycentric labels c of reduced homology in
    dimension i-1 of the subcomplex below c is compared with the homology
    in dimension i of the apartment slice.  Classes with several distinct
    barycentric labels are reported as ambiguous pairings; apartment label
    orbits hit by no barycentric label must carry no homology.  Every
    barycentric label is an apartment face label at the origin, so every
    class has an apartment slice.

    The report is written as ``chipalg conjecture`` prints it: each
    compared entry holds its ``parking`` and ``toppling`` ranks, and an
    unmatched orbit's homology is keyed by the dimension as a string.
    """
    n = g.n
    grp = divisor_class_group(g)

    # Parking side: the distinct barycentric face labels, as the walk over
    # the barycentric graph yields them, and the homology below each.
    bary = bary_complex(g)
    every = (1 << len(bary.vertex_labels)) - 1
    by_key, bsums = {}, {}
    for c in sorted({lab for _, lab in _cliques(bary.neighbours, bary.vertex_labels, every)}):
        k = (sum(c), grp.class_of(c))
        by_key.setdefault(k, []).append(c)
        bsum = bsums.setdefault(k, {})
        for i, r in homology_ranks(sub_below(bary, c), char).items():
            bsum[i] = bsum.get(i, 0) + r

    # Toppling side: the apartment slice below each label of the class
    # table, in ascending label order.
    images = _subset_images(g)
    rows = sorted(_zero_incident_labels(g, images).items(), key=lambda kc: kc[1])
    slices = apt_region(g, [c for _, c in rows], images)
    apt = {k: (c, homology_ranks(region, char)) for (k, c), region in zip(rows, slices)}

    mismatches = []
    detail = []
    for k, labels in by_key.items():
        ha = apt.pop(k)[1]
        for i in range(-1, n):
            b, a = bsums[k].get(i, 0), ha.get(i + 1, 0)
            if b or a:
                detail.append({"degrees": tuple(labels), "dimension": i, "parking": b, "toppling": a})
            if b != a:
                mismatches.append(detail[-1])

    unmatched = [
        {"degree": c, "homology": {str(i): r for i, r in ha.items() if r}}
        for c, ha in apt.values()
        if any(r for i, r in ha.items() if i >= 0)
    ]
    return {
        "compared": detail,
        "mismatches": mismatches,
        "unmatched_orbits": unmatched,
        "ambiguous_pairings": [tuple(v) for v in by_key.values() if len(v) > 1],
        "pass": not mismatches and not unmatched,
    }
