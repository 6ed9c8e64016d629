"""Cellular free resolutions of toppling and parking ideals.

The Betti tables are counted from the connected flags of the graph
(``chipfiring.connected_flags``).  The parking-vs-toppling comparison takes
its Betti numbers from the reduced homology of label-restricted
subcomplexes of two labeled complexes: the barycentric subdivision of the
(n-2)-simplex with monomial labels, and the apartment complex of lattice
classes under the tropical metric.  ``cyc_partitions`` lists the cyclically
ordered partitions of [n], which index the paper's free complex.
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
    def extensions(self) -> dict:
        """Map from each face (and the empty face) to the vertices, in
        ascending order, that extend it to a face by one more vertex."""
        ext = {}
        for f in self.faces:
            ext.setdefault(f[:-1], []).append(f[-1])
        return {f: tuple(sorted(vs)) for f, vs in ext.items()}

    def face_label(self, face) -> tuple:
        lab = self.vertex_labels[face[0]]
        for v in face[1:]:
            lab = lcm_exp(lab, self.vertex_labels[v])
        return lab


def _flags(subsets):
    """Flags (chains under strict inclusion) of the given subsets, as
    tuples of indices into ``subsets``, in lexicographic pre-order.

    ``subsets`` must list every set after its proper subsets (as sorting by
    size does), so a chain's indices ascend.
    """
    sets = [set(s) for s in subsets]
    above = [[j for j in range(i + 1, len(sets)) if sets[i] < sets[j]] for i in range(len(sets))]

    def walk(chain, cand):
        for j in cand:
            ext = chain + (j,)
            yield ext
            yield from walk(ext, above[j])

    return walk((), range(len(sets)))


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
    return LabeledComplex(labels, tuple(_flags(subsets)))


def _faces_below(labels, deg, roots, extend) -> tuple:
    """Faces whose lcm label properly divides x^deg, as a sorted tuple.

    Faces are walked as prefix extensions of the empty face in
    lexicographic pre-order: ``roots`` are the vertices that start a face,
    and ``extend(face, cand)`` gives the vertices, ascending and above the
    last one of ``face``, that extend it, where ``cand`` are the ones that
    extended its parent.  Every root and extension must have a label that
    divides x^deg, so every lcm label on the walk divides it too; the label
    only increases along the walk, so a branch ends where it reaches x^deg.
    """
    deg = tuple(deg)
    out = []

    def walk(face, label, cand):
        for j in cand:
            lab = lcm_exp(label, labels[j]) if face else labels[j]
            if lab != deg:
                nxt = face + (j,)
                out.append(nxt)
                walk(nxt, lab, extend(nxt, cand))

    walk((), None, roots)
    return tuple(out)


def sub_below(c: LabeledComplex, deg) -> LabeledComplex:
    """Subcomplex of faces whose label properly divides x^deg."""
    ext = c.extensions
    labels = c.vertex_labels
    below = {v for v, lab in enumerate(labels) if divides(lab, deg)}

    def extend(face, _):
        return [v for v in ext.get(face, ()) if v in below]

    faces = _faces_below(labels, deg, extend((), None), extend)
    return LabeledComplex(labels, faces)


def _subset_images(g: Multigraph) -> tuple:
    """The proper non-empty subsets I of [n], by size, and the Laplacian
    images of their indicator vectors e_I."""
    n = g.n
    lam = laplacian(g)
    subsets = [s for size in range(1, n) for s in combinations(range(1, n + 1), size)]
    return subsets, [lam.mul_vec(tuple(int(i + 1 in s) for i in range(n))) for s in subsets]


def _apartment_slices(g: Multigraph, degs):
    """Yield ``apt_region(g, c)`` for each degree c of ``degs`` in turn, all
    cut from one lattice box.

    Laplacian images sum to 0, so a lattice vector w <= c has
    w_i >= c_i - sum(c) >= top_i - sum(top), where ``top`` is the
    componentwise max of the degrees: the box [top - sum(top), top] holds
    every slice.  Its points are sorted by w once, and bit k of a mask
    stands for the k-th of them.  A slice is the AND over i of the masks of
    points with w_i <= c_i.
    """
    degs = [tuple(c) for c in degs]
    top = tuple(map(max, zip(*degs)))
    total = sum(top)
    lo = tuple(t - total for t in top)
    ws = sorted(w for _, w in lattice_points_in_box(g, lo, top))
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

    # The later neighbours of each point in some slice.  Tropical distance 1
    # means v' - v = e_I modulo the all-ones vector for a proper non-empty
    # I, that is, w' - w is the image of e_I.
    _, imgs = _subset_images(g)
    union = 0
    for mask in masks:
        union |= mask
    above = {}
    for k in _bits(union):
        above[k] = 0
        for d in imgs:
            j = index.get(vec_add(ws[k], d), -1)
            if j > k:
                above[k] |= 1 << j

    for c, mask in zip(degs, masks):
        idx = _bits(mask)
        pos = {k: a for a, k in enumerate(idx)}
        up = [{pos[j] for j in _bits(above[k] & mask)} for k in idx]
        labels = tuple(ws[k] for k in idx)

        def extend(face, cand):
            nbrs = up[face[-1]]
            return [k for k in cand if k in nbrs]

        yield LabeledComplex(labels, _faces_below(labels, c, range(len(idx)), extend))


def apt_region(g: Multigraph, deg) -> LabeledComplex:
    """Finite slice of the apartment complex below a degree.

    Vertices are the lattice classes v (normalized v_n = 0) with
    Laplacian@v <= deg componentwise, labeled by Laplacian@v and sorted by
    label; faces are cliques of pairwise tropical distance <= 1 whose lcm
    label properly divides x^deg.
    """
    return next(_apartment_slices(g, [deg]))


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


def _parking_homology(g: Multigraph, char: int):
    """Yield (c, reduced homology ranks of the barycentric subcomplex
    strictly below c) for each distinct barycentric face label c, ascending."""
    bary = bary_complex(g)
    for c in sorted({bary.face_label(f) for f in bary.faces}):
        yield c, homology_ranks(sub_below(bary, c), char)


def _zero_incident_labels(g: Multigraph) -> list:
    """Distinct divisor classes of apartment face labels, represented by
    labels of faces incident to the class of the origin.

    Faces at the origin correspond to chains of proper non-empty subsets
    I of [n] (the neighbors are the classes of the indicator vectors e_I);
    every label orbit has such a representative by translation.  Each class
    keeps the first label met with the flags in lexicographic pre-order.
    """
    n = g.n
    subsets, imgs = _subset_images(g)
    grp = divisor_class_group(g)
    label = {(): (0,) * n}
    seen = {(0, grp.class_of(label[()])): label[()]}
    for chain in _flags(subsets):
        lab = label[chain] = lcm_exp(label[chain[:-1]], imgs[chain[-1]])
        seen.setdefault((sum(lab), grp.class_of(lab)), lab)
    return sorted(seen.values())


def _toppling_homology(g: Multigraph, char: int):
    """Yield (c, reduced homology ranks of the apartment slice below c) for
    one label c per lattice orbit of apartment face labels, ascending."""
    labels = _zero_incident_labels(g)
    for c, region in zip(labels, _apartment_slices(g, labels)):
        yield c, homology_ranks(region, char)


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
    label from ``_zero_incident_labels``."""
    grp = divisor_class_group(g)
    rep = {(sum(c), grp.class_of(c)): c for c in _zero_incident_labels(g)}
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

    def key(c):
        return (sum(c), grp.class_of(c))

    by_key, bsums = {}, {}
    for c, hr in _parking_homology(g, char):
        k = key(c)
        by_key.setdefault(k, []).append(c)
        bsum = bsums.setdefault(k, {})
        for i, r in hr.items():
            bsum[i] = bsum.get(i, 0) + r
    apt = {key(c): (c, hr) for c, hr in _toppling_homology(g, char)}

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
