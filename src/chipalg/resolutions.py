"""Cellular free resolutions of toppling and parking ideals.

Three actors: the free complex on cyclically ordered partitions (with its
Scarf truncation for the parking ideal), the barycentric subdivision of the
(n-2)-simplex with monomial labels, and the apartment complex of lattice
classes under the tropical metric.  Betti numbers come from reduced
homology of label-restricted subcomplexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .chipfiring import _arrow, lattice_points_in_box
from .exactla import check_char
from .kernels import sparse_rank
from .monomials import divides, lcm_exp, vec_add
from .multigraph import Multigraph, divisor_class_group, laplacian

__all__ = [
    "OrderedPartition",
    "FreeComplex",
    "LabeledComplex",
    "cyc_partitions",
    "basis_label",
    "cyc_complex",
    "scarf_complex_parking",
    "minimality_check",
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

    def face_counts(self) -> tuple:
        """Number of faces per dimension."""
        if not self.faces:
            return ()
        top = max(len(f) for f in self.faces)
        out = [0] * top
        for f in self.faces:
            out[len(f) - 1] += 1
        return tuple(out)


def _chains(order, children):
    """All chains (by index) in a poset given by a strict order predicate."""
    out = [(i,) for i in range(len(order))]
    stack = list(out)
    while stack:
        chain = stack.pop()
        for j in children[chain[-1]]:
            ext = chain + (j,)
            out.append(ext)
            stack.append(ext)
    return out


def bary_complex(g: Multigraph) -> LabeledComplex:
    """Barycentric subdivision of the (n-2)-simplex: vertices are the
    non-empty subsets I of [n-1] labeled x^(I -> [n] minus I), faces are
    chains of subsets."""
    n = g.n
    subsets = []
    for size in range(1, n):
        subsets.extend(combinations(range(1, n), size))
    subsets.sort(key=lambda s: (len(s), s))
    labels = tuple(
        _arrow(g, s, tuple(k for k in range(1, n + 1) if k not in s))
        for s in subsets
    )
    sets = [set(s) for s in subsets]
    children = [
        [j for j in range(len(subsets)) if sets[i] < sets[j]]
        for i in range(len(subsets))
    ]
    faces = tuple(sorted(_chains(subsets, children)))
    return LabeledComplex(labels, faces)


def _faces_below(labels, deg, roots, extend) -> tuple:
    """Faces whose lcm label properly divides x^deg, as a sorted tuple.

    Faces are walked as prefix extensions of the empty face in
    lexicographic pre-order: ``roots`` are the vertices that start a face,
    and ``extend(face, cand)`` gives the vertices, ascending and above the
    last one of ``face``, that extend it, where ``cand`` are the ones that
    extended its parent.  The lcm label only grows along the walk, so a
    branch ends where its label stops properly dividing x^deg.
    """
    deg = tuple(deg)
    out = []

    def grow(face, label, cand):
        for j in cand:
            lab = lcm_exp(label, labels[j]) if face else labels[j]
            if lab != deg and divides(lab, deg):
                nxt = face + (j,)
                out.append(nxt)
                grow(nxt, lab, extend(nxt, cand))

    grow((), None, roots)
    return tuple(out)


def sub_below(c: LabeledComplex, deg) -> LabeledComplex:
    """Subcomplex of faces whose label properly divides x^deg."""
    ext = c.extensions
    faces = _faces_below(c.vertex_labels, deg, ext.get((), ()), lambda f, _: ext.get(f, ()))
    return LabeledComplex(c.vertex_labels, faces)


def apt_region(g: Multigraph, deg) -> LabeledComplex:
    """Finite slice of the apartment complex below a degree.

    Vertices are the lattice classes v (normalized v_n = 0) with
    Laplacian@v <= deg componentwise, labeled by Laplacian@v; faces are
    cliques of pairwise tropical distance <= 1 whose lcm label properly
    divides x^deg.
    """
    deg = tuple(deg)
    total = sum(deg)
    if total < 0:
        return LabeledComplex((), ())
    lo = tuple(d - total for d in deg)
    pts = lattice_points_in_box(g, lo, deg)
    pts.sort(key=lambda vw: vw[1])
    vs = [v for v, _ in pts]
    labels = tuple(w for _, w in pts)

    def dist_ok(i, j):
        d = [a - b for a, b in zip(vs[i], vs[j])]
        return max(d) - min(d) <= 1

    m = len(pts)
    adj = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            adj[i][j] = adj[j][i] = dist_ok(i, j)

    def extend(face, cand):
        j = face[-1]
        return [k for k in cand if k > j and adj[j][k]]

    return LabeledComplex(labels, _faces_below(labels, deg, range(m), extend))


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

    # boundary rank from dimension d to d-1 (d = 0 maps to the empty face)
    def brank(d):
        if d == 0:
            cols = [{0: 1} for _ in by_dim[0]]
            return sparse_rank(cols, char)
        cols = []
        for f in by_dim.get(d, ()):
            col = {}
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                col[pos[d - 1][sub]] = -1 if i % 2 else 1
            cols.append(col)
        return sparse_rank(cols, char)

    ranks = {d: brank(d) for d in range(top + 2)}
    out = {-1: 1 - ranks[0]}
    for d in range(top + 1):
        out[d] = len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1]
    return out


def betti_parking(g: Multigraph, char: int = 0) -> dict:
    """Betti table of the quotient by the parking ideal.

    Candidate degrees are the distinct face labels of the barycentric
    complex; entry j >= 1 in degree c is the rank of reduced homology in
    dimension j-2 of the subcomplex strictly below c.
    """
    bary = bary_complex(g)
    degrees = sorted({bary.face_label(f) for f in bary.faces})
    n = g.n
    total = [0] * n
    total[0] = 1
    entries = [((0,) * n, 0, 1)]
    for c in degrees:
        hr = homology_ranks(sub_below(bary, c), char)
        for i, r in hr.items():
            j = i + 2
            if r and 1 <= j < n:
                total[j] += r
                entries.append((c, j, r))
    return {"total": tuple(total), "entries": entries}


def _zero_incident_labels(g: Multigraph) -> list:
    """Distinct divisor classes of apartment face labels, represented by
    labels of faces incident to the class of the origin.

    Faces at the origin correspond to chains of proper non-empty subsets
    I of [n] (the neighbors are the classes of the indicator vectors e_I);
    every label orbit has such a representative by translation.
    """
    n = g.n
    lam = laplacian(g)
    subsets = []
    for size in range(1, n):
        subsets.extend(combinations(range(1, n + 1), size))
    imgs = {
        s: lam.mul_vec(tuple(1 if i + 1 in s else 0 for i in range(n)))
        for s in subsets
    }
    grp = divisor_class_group(g)
    seen = {}

    def visit(label):
        key = (sum(label), grp.class_of(label))
        if key not in seen:
            seen[key] = label

    visit((0,) * n)

    def grow(chain_top, label):
        for s in subsets:
            if set(chain_top) < set(s):
                lab = lcm_exp(label, imgs[s])
                visit(lab)
                grow(s, lab)

    for s in subsets:
        lab = lcm_exp((0,) * n, imgs[s])
        visit(lab)
        grow(s, lab)
    return sorted(seen.values())


def betti_toppling(g: Multigraph, char: int = 0) -> dict:
    """Betti table of the quotient by the toppling ideal via apartment
    homology, one candidate degree per lattice orbit of face labels."""
    n = g.n
    total = [0] * n
    entries = []
    for c in _zero_incident_labels(g):
        hr = homology_ranks(apt_region(g, c), char)
        for i, r in hr.items():
            j = i + 1
            if r and 0 <= j < n:
                total[j] += r
                entries.append((c, j, r))
    return {"total": tuple(total), "entries": entries}


def conjecture_check(g: Multigraph, char: int = 0) -> dict:
    """Compare parking-side and toppling-side graded Betti numbers.

    Barycentric face labels are x_n-free, but the apartment slice below a
    degree depends only on its divisor class, and distinct parking degrees
    can share a class.  The comparison therefore aggregates: for each
    class, the sum over its barycentric labels c of reduced homology in
    dimension i-1 of the subcomplex below c is compared with the homology
    in dimension i of the apartment slice.  Classes with several distinct
    barycentric labels are reported as ambiguous pairings; apartment label
    orbits hit by no barycentric label must carry no homology.
    """
    n = g.n
    bary = bary_complex(g)
    degrees = sorted({bary.face_label(f) for f in bary.faces})
    grp = divisor_class_group(g)

    def key(c):
        return (sum(c), grp.class_of(c))

    by_key = {}
    for c in degrees:
        by_key.setdefault(key(c), []).append(c)
    ambiguous = [tuple(v) for v in by_key.values() if len(v) > 1]

    mismatches = []
    detail = []
    for labels in by_key.values():
        bsum = {}
        for c in labels:
            for i, r in homology_ranks(sub_below(bary, c), char).items():
                bsum[i] = bsum.get(i, 0) + r
        rep = labels[0]
        ha = homology_ranks(apt_region(g, rep), char)
        for i in range(-1, n):
            b, a = bsum.get(i, 0), ha.get(i + 1, 0)
            if b or a:
                detail.append({"degrees": tuple(labels), "dimension": i, "bary": b, "apt": a})
            if b != a:
                mismatches.append(detail[-1])

    unmatched = []
    for c in _zero_incident_labels(g):
        if key(c) in by_key or c == (0,) * n:
            continue
        ha = homology_ranks(apt_region(g, c), char)
        if any(r for i, r in ha.items() if i >= 0):
            unmatched.append({"degree": c, "homology": {i: r for i, r in ha.items() if r}})

    return {
        "compared": detail,
        "mismatches": mismatches,
        "unmatched_orbits": unmatched,
        "ambiguous_pairings": ambiguous,
        "pass": not mismatches and not unmatched,
    }
