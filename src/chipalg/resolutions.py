"""Cellular free resolutions of toppling and parking ideals.

The Betti tables are counted from the connected flags of the graph
(``chipfiring.connected_flags``).  The parking-vs-toppling comparison takes
its Betti numbers from reduced homology in two independent ways.  The
parking side is cellular: the barycentric subdivision of the (n-2)-simplex
with monomial labels, cut below each label.  The toppling side uses the
upper Koszul complex K^c of the lattice module at each degree c, a complex
on at most n vertices whose homology gives beta_{i,c} with no resolution
(Miller-Sturmfels, *Combinatorial Commutative Algebra*, Thm 1.34 and
Ch. 9).  Both sides read the subset table ``multigraph.subset_images``,
cached per graph, so a job builds it once: the proper non-empty subsets I
of [n], as node bitmasks, and their images L e_I.  The labels
lcm(0, L e_I) of the subsets that avoid n (I >> (n - 1) == 0) are the
parking generators.  One walk (``_chains``) lists the chains of non-empty
subsets of [n-1], each the increasing tuple of its bitmasks with the lcm
of their labels, and these chains are the faces of ``bary_complex``.  A
barycentric chain U_1 < ... < U_m is the cyclically ordered partition
(U_1, U_2 - U_1, ..., [n] - U_m) with n in the last block, and its
rotations are the flags of the origin: the rotation that starts after
U_s is labelled the chain's label minus L e_U_s, a lattice translate in
the same class.  So the toppling class table reads one rotation off each
barycentric chain (``_class_table``) and maps each barycentric label to
its class's representative.  ``sub_below`` cuts the barycentric complex
by per-coordinate bitmasks (``_at_most``): it ANDs the masks of the
faces with label_i <= c_i and drops those labelled exactly c.
``apt_region`` finds the lattice points below the degrees >= 0 by a
reverse search from the origin (Avis-Fukuda 1996): the point L v, with
v >= 0 and min v = 0, has the parent L max(v - 1, 0), which lies below
every degree the point lies below, so each point is met once, from its
parent.  It lists a point's children when it pops the point, so it
visits only the supports it meets.  ``_koszul_ranks`` writes the face set
of K^c, read off the points below c, as one integer with a bit per face,
memoizes on it, and ranks it off the integer itself (``_face_set_ranks``).
The toppling Betti table names each connected flag's class by the class
table's representative of its degree.  K^c depends on the class of c
alone, as the lattice module is translation invariant, so
``conjecture_check`` groups the barycentric labels by class itself, reads
K^c at each class's least label, and compares the two sides in one loop
over the classes.  Both homology routines collapse the star of the vertex
in the most faces, a cone, and rank only the relative boundaries of the
faces outside it: ``_face_set_ranks`` on the face-set integer of a K^c,
and ``homology_ranks`` on the parking side's subcomplexes of sorted
tuples, whose vertices are too many for such an integer.
``cyc_partitions`` reads the cyclically ordered partitions of [n], which
index the paper's free complex, off the same barycentric chains, and
``_chain_blocks`` turns a chain into its blocks for both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, compress
from math import factorial
from operator import add, lt, neg, or_, sub

from .chipfiring import connected_flags
from .exactla import check_char
from .kernels import sparse_rank
from .monomials import lcm_exp
from .multigraph import GRAPH_CACHE_SIZE, Multigraph, _bits, divisor_class_group, subset_images

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


def cyc_partitions(n: int, k: int) -> list:
    """Canonical representatives of cyclically ordered partitions of [n]
    into k blocks; there are (k-1)!*S(n,k) of them.  With k >= 2 they are
    the barycentric chains of k - 1 non-empty subsets of [n-1]
    (``_chain_blocks``), and with k = 1 the one block [n]."""
    if not 1 <= k <= n:
        raise ValueError("block count must satisfy 1 <= k <= n")
    if k == 1:
        return [OrderedPartition((tuple(range(1, n + 1)),))]
    # the chains carry empty labels: only their blocks are read
    out = [
        OrderedPartition(tuple(tuple(i + 1 for i in _bits(b)) for b in _chain_blocks(face, n)))
        for face, _ in _chains([()] * (1 << (n - 1)))
        if len(face) == k - 1
    ]
    out.sort(key=lambda p: p.blocks)
    return out


def _chain_blocks(face, n: int) -> list:
    """The blocks, as bitmasks, of the chain U_1 < ... < U_m of subsets of
    [n], given as the tuple ``face`` of their bitmasks: the ordered
    partition (U_1, U_2 - U_1, ..., [n] - U_m)."""
    us = [0, *face, (1 << n) - 1]
    return [a ^ b for a, b in zip(us, us[1:])]


def _chains(labels) -> list:
    """The pairs ``(face, label)`` over the chains U_1 < ... < U_m, m >= 1,
    of non-empty subsets of [k], where ``labels`` holds one label per
    subset of [k], indexed by its node bitmask (the empty set's is not
    read).  A face is the tuple of its subsets' bitmasks, which increases,
    as a proper subset has the smaller bitmask, and its label is the lcm of
    theirs.  A chain is extended by each proper superset U_m + t of its top,
    t running over the non-empty subsets of the complement, and the faces
    come in lexicographic pre-order, each chain after its own prefix."""
    full = len(labels) - 1
    out, stack = [], [((u,), labels[u]) for u in range(full, 0, -1)]
    while stack:
        face, label = stack.pop()
        out.append((face, label))
        top = face[-1]
        rest = t = full ^ top
        while t:  # the larger supersets first, so the smaller pop first
            u = top | t
            stack.append((face + (u,), lcm_exp(label, labels[u])))
            t = (t - 1) & rest
    return out


@dataclass(frozen=True)
class LabeledComplex:
    """Simplicial complex, optionally with exponent-vector face labels.

    ``faces`` contains every face as a sorted tuple of integer vertices
    (singletons included); the faces of ``bary_complex`` are chains of node
    bitmasks.  ``face_labels``, in the order of ``faces``, come
    from the function that walked the faces, a face's label being the lcm of
    its vertex labels; ``sub_below`` cuts only a complex that has them.
    """

    faces: tuple
    face_labels: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def _face_masks(self) -> list:
        """The ``_at_most`` masks of the face labels, bit k for the k-th
        face."""
        return _at_most(self.face_labels)


def _at_most(points) -> list:
    """For each coordinate i, ``(lo, cum)``: lo is the least p_i over the
    points, and cum[t] the bitmask (bit k for the k-th point) of the points
    with p_i <= lo + t, for t up to the largest p_i - lo."""
    out = []
    for vals in zip(*points):
        lo = min(vals)
        cum = [0] * (max(vals) - lo + 1)
        for k, x in enumerate(vals):
            cum[x - lo] |= 1 << k
        for t in range(1, len(cum)):
            cum[t] |= cum[t - 1]
        out.append((lo, cum))
    return out


def _below(at_most, c, within) -> int:
    """The bitmask of the points p <= c componentwise, from their
    ``_at_most`` masks; ``within`` is a bitmask that holds every such point,
    such as the one with a bit for every point."""
    mask = within
    for (lo, cum), x in zip(at_most, c):
        t = x - lo
        if t < 0:
            return 0
        if t < len(cum):  # the last mask holds every point
            mask &= cum[t]
    return mask


def _cyclic_partition_count(n: int) -> int:
    """The number of cyclically ordered partitions of [n] into at least two
    blocks: the sum over k >= 2 of (k-1)! S(n, k)."""
    row = [1]  # the Stirling numbers S(m, k) of the second kind, k <= m
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < m else 0) + row[k - 1] for k in range(1, m + 1)]
    return sum(factorial(k - 1) * row[k] for k in range(2, n + 1))


def bary_complex(g: Multigraph) -> LabeledComplex:
    """Barycentric subdivision of the (n-2)-simplex: vertices are the
    non-empty subsets I of [n-1], as node bitmasks, and faces are chains of
    subsets, each the increasing tuple of its bitmasks (``_chains``) with
    the label the walk computed for it.

    Vertex I is labelled lcm(0, L e_I), the positive part of its image
    L e_I in ``subset_images``, which is the parking generator
    x^(I -> [n] minus I).

    A chain is a cyclically ordered partition of [n] into at least two
    blocks, with n in the last block, and the class table reads one
    rotation off each chain; a face count other than the number of those
    partitions raises ``AssertionError``.
    """
    zero = (0,) * g.n
    imgs = dict(subset_images(g))
    flags = _chains([zero] + [lcm_exp(zero, imgs[I]) for I in range(1, 1 << (g.n - 1))])
    # A missed chain would silently drop a toppling class: check the count.
    if len(flags) != _cyclic_partition_count(g.n):
        raise AssertionError(f"barycentric complex of a {g.n}-node graph has {len(flags)} faces")
    return LabeledComplex(tuple(f for f, _ in flags), tuple(lab for _, lab in flags))


def sub_below(c: LabeledComplex, deg) -> LabeledComplex:
    """Subcomplex of faces whose label properly divides x^deg, in the
    order of ``c.faces``.

    The faces with label_i <= t make one bitmask per coordinate i and value
    t, built once per complex (``_at_most``); the faces below deg are the
    AND over i of the masks for t = deg_i.  Among those, a face is labelled
    exactly deg when no label_i is <= deg_i - 1, and those are dropped.
    A complex without ``face_labels``, and a degree whose length is not
    that of the labels, raise ``ValueError``.
    """
    if c.face_labels is None:
        raise ValueError("sub_below needs the complex's face_labels, and this complex has none")
    deg = tuple(deg)
    at_most = c._face_masks
    if c.faces and len(deg) != len(at_most):
        raise ValueError(f"degree {deg} must have one entry per node, {len(at_most)}")
    keep = _below(at_most, deg, (1 << len(c.faces)) - 1)
    exact = keep
    for (lo, cum), x in zip(at_most, deg):
        t = x - lo
        if t >= len(cum):
            exact = 0
        elif t > 0:
            exact &= ~cum[t - 1]
    return LabeledComplex(tuple(c.faces[k] for k in _bits(keep ^ exact)))


def apt_region(g: Multigraph, degs) -> list:
    """For each degree c of ``degs``, the list of lattice points w <= c
    componentwise, found by one reverse search that meets each point once.

    The lattice points are w = Laplacian@v for integer vectors v, and they
    generate the lattice module whose upper Koszul complexes give the
    toppling side's Betti numbers (``_koszul_ranks``).  The steps L e_I, for
    proper non-empty subsets I of [n], are the images of
    ``subset_images``.

    Write a point as w = L v with v >= 0 and min v = 0; this v is unique, as
    the graph is connected.  For c >= 0 and w <= c, the point L u with
    u = max(v - t, 0) is <= c for every t >= 0: at a vertex x with
    v_x <= t, u_x = 0 and the entry is -sum_y m(x, y) u_y <= 0 <= c_x; at
    one with v_x > t, u_x - u_y <= v_x - v_y for every y, so the entry is at
    most w_x.  (So the points w <= c, the complete linear system |c|
    shifted by c, are connected under the steps L e_I, as linear systems
    are tropically convex: Haase-Musiker-Yu, Math. Z. 2012.)  The parent of
    w != 0 is L max(v - 1, 0), one step L e_S back with S the support of
    v, and by the case t = 1 it lies below every degree that w lies below.
    The children of a point with support S are w + L e_I for the proper
    non-empty I containing S, each of support I, and every point but the
    origin is the child of its parent alone.  So a reverse search over this
    tree from the origin (Avis-Fukuda, *Discrete Appl. Math.* 65, 1996),
    pruning a child that lies below no degree, meets exactly the union of
    the point sets, each point once, and needs no record of the points met.
    The children of a popped point are listed then, its support S joined
    with each subset t of [n] minus S but that complement itself, by
    ``t = (t - 1) & rest`` in decreasing order of t, the empty one last.
    Each point goes to the degrees above it, in search order, so a degree's
    list does not depend on the order of ``degs``.

    The degrees above a point w are the AND over i of the bitmasks of the
    degrees with c_i >= w_i.  Those are the ``_at_most`` masks of the
    negated degrees, read by ``_below`` at -w, so the search runs on -w and
    a child's mask starts from its parent's; -L e_I is the image L e_J of
    the complement J.  A degree whose length is not the node count, or with
    a negative entry, raises ``ValueError``.
    """
    n = g.n
    degs = [tuple(c) for c in degs]
    for c in degs:
        if len(c) != n or min(c) < 0:
            raise ValueError(f"degree {c} must have one non-negative entry per node, {n}")
    at_least = _at_most([tuple(map(neg, c)) for c in degs])
    full = (1 << n) - 1
    # -L e_I by the bitmask of I
    step = [None] * full
    for I, d in subset_images(g):
        step[full ^ I] = d

    # (-w, the bitmask of the degrees above w, the support of v); the origin
    # lies below every degree.
    out = [[] for _ in degs]
    stack = [((0,) * n, (1 << len(degs)) - 1, 0)]
    while stack:
        x, mask, s = stack.pop()
        w = tuple(map(neg, x))
        for k in _bits(mask):
            out[k].append(w)
        rest = t = full ^ s
        while t:  # the subsets t of rest but rest itself, the empty one last
            t = (t - 1) & rest
            I = s | t  # a child's support: a proper non-empty superset of s
            if I:
                y = tuple(map(add, x, step[I]))
                below = _below(at_least, y, mask)
                if below:
                    stack.append((y, below, I))
    return out


def homology_ranks(c: LabeledComplex, char: int = 0) -> dict:
    """Reduced simplicial homology ranks over Q (char 0) or GF(char).

    Returns a map from each dimension i, from -1 up to the top dimension of
    the complex, to the rank of the i-th reduced homology group; a complex
    with no vertex, the void one or {()}, has rank 1 in dimension -1.

    One star collapse: the closed star of a vertex v is a cone, so the
    reduced homology of a non-empty K is the homology of the pair
    (K, star v).  Its cells are the non-empty faces s with s + v not a face
    of K, and a cell's boundary drops the facets in the link of v.  The
    empty face lies in the star, so vertices have zero boundary and
    H_(-1) is 0.  v is the vertex in the most faces, the lowest on a tie,
    so only the faces outside its star are ranked.  The faces must be
    closed under taking faces: a facet of a cell that is neither a cell nor
    in the link, a link face that is not a face, and a link face with a
    facet outside the link raise ``ValueError``.
    """
    check_char(char)
    counts = Counter(chain.from_iterable(c.faces))
    if not counts:
        return {-1: 1}
    v = min(counts, key=lambda u: (-counts[u], u))
    link, rest = {}, []
    for f in c.faces:
        if v in f:
            i = f.index(v)
            link[f[:i] + f[i + 1 :]] = f
        else:
            rest.append(f)
    cells = [[] for _ in range(max(map(len, c.faces)))]
    linked = 0
    for f in rest:
        if f in link:
            linked += 1
        else:
            cells[len(f) - 1].append(f)
    # A face s + v of the star has the facets s and (s - u) + v, so every
    # non-empty link face is a face outside the star, and the link is
    # closed under taking facets.
    if linked < len(link) - (() in link):
        outside = set(rest)
        s = next(s for s in link if s and s not in outside)
        raise ValueError(f"face {s} of {link[s]} is not in the complex")
    missing = set(chain.from_iterable(combinations(s, len(s) - 1) for s in link if s))
    missing.difference_update(link)
    if missing:
        sub = min(missing)
        s = next(s for s in link if len(s) == len(sub) + 1 and set(sub) < set(s))
        raise ValueError(f"face {tuple(sorted(sub + (v,)))} of {link[s]} is not in the complex")

    # ranks[d]: rank of the relative boundary from dimension d to d - 1;
    # nothing lies below the vertices or above the top.
    ranks = [0] * (len(cells) + 1)
    below = {}
    for d, fs in enumerate(cells):
        if d and fs:
            cols = []
            for f in fs:
                col = {}
                for i in range(d + 1):
                    sub = f[:i] + f[i + 1 :]
                    j = below.get(sub)
                    if j is not None:
                        col[j] = -1 if i % 2 else 1
                    elif sub not in link:
                        raise ValueError(f"face {sub} of {f} is not in the complex")
                cols.append(col)
            ranks[d] = sparse_rank(cols, char)
        below = {f: j for j, f in enumerate(fs)}
    out = {-1: 0}
    for d, fs in enumerate(cells):
        out[d] = len(fs) - ranks[d] - ranks[d + 1]
    return out


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _face_tables(n: int) -> tuple:
    """The tables of ``_koszul_ranks`` for a complex on [n] written as an
    integer, face F being bit sum(2^i for i in F): the powers 2^i; for each
    vertex i the integer with a bit for every face that holds i; for each
    size k from 0 to n the level mask, with a bit for every face of k
    vertices."""
    pows = tuple(1 << i for i in range(n))
    has = tuple(sum(1 << f for f in range(1 << n) if f & p) for p in pows)
    levels = [0] * (n + 1)
    for f in range(1 << n):
        levels[f.bit_count()] |= 1 << f
    return pows, has, tuple(levels)


def _face_set_ranks(faces: int, n: int, char: int) -> dict:
    """Reduced homology ranks, as ``homology_ranks`` gives them, of the
    complex on [n] whose face set is the integer ``faces`` of
    ``_koszul_ranks``, which is closed under taking faces.

    The same star collapse: v is the vertex in the most faces, the lowest
    on a tie, its link is the face set of the faces that hold v, shifted
    down by bit 2^v, and the cells are the faces neither in the star nor
    in the link.  Each dimension's cells are read off with its level mask
    (``_face_tables``); a cell's boundary drops one vertex at a time with
    alternating sign, and keeps the facets that are cells.
    """
    pows, has, levels = _face_tables(n)
    counts = [(faces & h).bit_count() for h in has]
    most = max(counts, default=0)
    if not most:
        return {-1: 1}
    v = counts.index(most)
    link = (faces & has[v]) >> pows[v]
    cells = faces & ~has[v] & ~link
    # The rank of the boundary of the cells of k vertices is taken off
    # dimensions k - 1 and k - 2; nothing lies below the vertices.
    top = max(k for k, level in enumerate(levels) if faces & level)
    out, below = {-1: 0}, 0
    for k in range(1, top + 1):
        level = cells & levels[k]
        fs = _bits(level)
        out[k - 1] = len(fs)
        if below and fs:
            cols = []
            for f in fs:
                col, sign, rest = {}, 1, f
                while rest:
                    bit = rest & -rest
                    if below >> (f ^ bit) & 1:
                        col[f ^ bit] = sign
                    sign = -sign
                    rest ^= bit
                cols.append(col)
            r = sparse_rank(cols, char)
            out[k - 1] -= r
            out[k - 2] -= r
        below = level
    return out


def _koszul_ranks(points, c, memo: dict, char: int) -> dict:
    """Reduced homology ranks of the upper Koszul complex K^c of the
    lattice module, from the lattice ``points`` w <= c.

    K^c is the simplicial complex on [n] whose faces are the F with c - F
    above some lattice point, so its facets are the sets {i : w_i < c_i}
    over the points; the toppling Betti number beta_{i,c} is the rank in
    dimension i - 1 (Miller-Sturmfels, *Combinatorial Commutative Algebra*,
    Thm 1.34 and Ch. 9).  The face set is one integer with bit F set for
    each face F, F read as a bitmask of vertices (``_face_tables``): the
    bits of the facets, closed downwards one vertex i at a time by moving
    each face that holds i to the bit of the face without it.  The integer
    identifies the complex, so the ranks are kept in ``memo`` under it; a
    memo serves one characteristic.  On a miss they are ranked off the
    integer itself (``_face_set_ranks``), which needs no closure check, as
    the complex is closed by construction.
    """
    n = len(c)
    pows, has, _ = _face_tables(n)
    faces = 0
    for w in points:
        faces |= 1 << sum(compress(pows, map(lt, w, c)))
    for p, h in zip(pows, has):
        faces |= (faces & h) >> p
    ranks = memo.get(faces)
    if ranks is None:
        ranks = memo[faces] = _face_set_ranks(faces, n, char)
    return ranks


def _class_table(g: Multigraph, bary: LabeledComplex) -> dict:
    """The toppling class table: each distinct label of the barycentric
    complex ``bary`` mapped to the representative of its (degree, divisor
    class), the label of the first flag of the origin in that class, in
    lexicographic pre-order on the indices of its subsets.

    The flags of proper non-empty subsets I of [n] at the origin (the
    neighbours are the classes of the indicator vectors e_I, labelled
    L e_I) are the ordered partitions of [n], and every label orbit has
    such a representative by translation, the origin's being the empty
    flag, which the table leaves out.  A chain
    U_1 < ... < U_m of ``bary`` is the ordered partition with blocks
    B_1 = U_1, B_t = U_t - U_(t-1) and B_(m+1) = [n] - U_m, and its
    rotations are the flags of one cyclically ordered partition.  The
    rotation that starts at B_(s+1) is the flag (U_(s+1) - U_s, ...,
    [n] - U_s, ([n] - U_s) + U_1, ..., ([n] - U_s) + U_(s-1)), s = 0 giving
    the chain itself, and its label is the chain's label minus L e_U_s (U_0
    is empty), so every rotation has the chain's degree and class.
    A flag is read as the indices of its subsets in ``subset_images``,
    which is ordered by size, so a flag's indices increase, and the
    rotation met first is the one whose first block has the least index.
    Cyclic partitions of one class keep the one whose first rotation has
    the least index tuple.

    Only ``betti_toppling`` reads the table, to name each class in its
    report.  The upper Koszul complex K^c of the lattice module depends on
    the class of c alone, as x^(c + u - F) lies in the module iff x^(c - F)
    does for u in the lattice, so ``conjecture_check`` reads each class at
    its own least label and needs no representative.
    """
    table = subset_images(g)
    index = {I: k for k, (I, _) in enumerate(table)}
    imgs = dict(table)
    grp = divisor_class_group(g)
    keys, best = {}, {}
    for face, lab in zip(bary.faces, bary.face_labels):
        key = keys.get(lab)
        if key is None:
            key = keys[lab] = (sum(lab), grp.class_of(lab))
        blocks = _chain_blocks(face, g.n)
        firsts = [index[b] for b in blocks]
        s = firsts.index(min(firsts))
        # the rotation (B_(s+1), ..., B_(m+1), B_1, ..., B_s) as a flag
        flag = tuple(index[u] for u in accumulate((blocks[s:] + blocks[:s])[:-1], or_))
        if s:
            lab = tuple(map(sub, lab, imgs[face[s - 1]]))
        kept = best.get(key)
        if kept is None or flag < kept[0]:
            best[key] = flag, lab
    return {lab: best[key][1] for lab, key in keys.items()}


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
    representative in the class table (``_class_table``, read off the
    barycentric chains).  The Betti numbers depend on the class alone, as
    K^c does (``_koszul_ranks``), so any label of a class names it.

    The barycentric complex supports the parking resolution, so the degree
    of a flag with k >= 2 blocks is one of its labels, which the table
    maps; one that is not raises ``AssertionError``.  The one-block flag
    has degree 0, the origin, which labels its own class.
    """
    rep = _class_table(g, bary_complex(g))
    pairs = []
    for k, c in connected_flags(g):
        if k > 1:
            if c not in rep:
                raise AssertionError(f"Betti degree {c} is not a barycentric label")
            c = rep[c]
        pairs.append((c, k - 1))
    return _count_table(g.n, pairs)


def conjecture_check(g: Multigraph, char: int = 0) -> dict:
    """Compare parking-side and toppling-side graded Betti numbers, class
    by class.

    Barycentric face labels are x_n-free, but the toppling Betti numbers at
    a degree depend only on its divisor class, and distinct parking degrees
    can share a class.  So the distinct barycentric labels are grouped by
    (degree, class), in the order of each class's least label, and one loop
    over the classes sums, over a class's labels c, the reduced homology in
    dimension i-1 of the subcomplex below c, and compares that with the
    homology in dimension i of the upper Koszul complex of the lattice
    module at the class's least label (``_koszul_ranks``).  K^c depends on
    the class of c alone: for u in the lattice, x^(c + u - F) lies in the
    module iff x^(c - F) does.  One reverse search (``apt_region``) finds
    the lattice points below the least labels, and their Koszul ranks are
    taken before the loop.  Classes with several distinct barycentric
    labels are reported as ambiguous pairings.

    Every class of a flag with two or more blocks has a barycentric label
    (``_class_table``), so the one class left is the origin's, whose only
    lattice point below 0 is 0 itself.  It is checked on its own: homology
    in dimension >= 0 there is reported in ``unmatched_orbits``.  K^0 is
    the empty complex, so the list stays empty.

    The report is written as ``chipalg conjecture`` prints it: each
    compared entry holds its ``parking`` and ``toppling`` ranks, and an
    unmatched orbit's homology is keyed by the dimension as a string.  A
    characteristic that is neither 0 nor a prime raises ``ValueError``.
    """
    check_char(char)
    bary = bary_complex(g)
    grp = divisor_class_group(g)
    by_key = {}
    for c in sorted(set(bary.face_labels)):
        by_key.setdefault((sum(c), grp.class_of(c)), []).append(c)
    least = [labels[0] for labels in by_key.values()]
    memo = {}
    koszul = [_koszul_ranks(pts, c, memo, char) for c, pts in zip(least, apt_region(g, least))]

    detail, mismatches = [], []
    for labels, toppling in zip(by_key.values(), koszul):
        parking = {}
        for c in labels:
            for i, r in homology_ranks(sub_below(bary, c), char).items():
                parking[i] = parking.get(i, 0) + r
        for i in range(-1, g.n):
            b, a = parking.get(i, 0), toppling.get(i + 1, 0)
            if b or a:
                detail.append({"degrees": tuple(labels), "dimension": i, "parking": b, "toppling": a})
            if b != a:
                mismatches.append(detail[-1])

    zero = (0,) * g.n
    ha = _koszul_ranks([zero], zero, memo, char)
    unmatched = []
    if any(r for i, r in ha.items() if i >= 0):
        unmatched.append({"degree": zero, "homology": {str(i): r for i, r in ha.items() if r}})
    return {
        "compared": detail,
        "mismatches": mismatches,
        "unmatched_orbits": unmatched,
        "ambiguous_pairings": [tuple(v) for v in by_key.values() if len(v) > 1],
        "pass": not mismatches and not unmatched,
    }
