"""Cellular resolutions: cyclic-partition complexes, barycentric and
apartment subcomplexes, upper Koszul complexes, homology, and graded Betti
numbers."""

import json
import random
import sys
from collections import Counter
from functools import cache, reduce
from itertools import combinations
from math import factorial
from operator import or_

import pytest

from chipalg import resolutions
from chipalg.chipfiring import connected_flags, lattice_points_in_box, lattice_socle_base
from chipalg.cli import run
from chipalg.exactla import solve_integer
from chipalg.monomials import divides, lcm_exp, vec_add
from chipalg.multigraph import connected_splits, divisor_class_group, laplacian, parse_graph, subset_images
from chipalg.resolutions import (
    LabeledComplex,
    OrderedPartition,
    _chains,
    _class_table,
    _cyclic_partition_count,
    _face_set_ranks,
    _koszul_ranks,
    apt_region,
    bary_complex,
    betti_parking,
    betti_toppling,
    conjecture_check,
    cyc_partitions,
    homology_ranks,
    sub_below,
)
from conftest import (
    DATA,
    _arrow,
    _cliques,
    _inclusion_graph,
    acyclic_orientations_unique_sink,
    all_connected_graphs,
    apartment_slices,
    apt_region_by_kids_table,
    bary_vertex_labels,
    c4,
    chain_graph,
    class_table_by_flag_walk,
    cut_cliques,
    cyc_complex,
    cyc_partitions_by_set_partitions,
    data_and_seeded_graphs,
    face_counts,
    face_label,
    format_graph,
    homology_ranks_oracle,
    k4,
    koszul_faces_by_facets,
    minimality_check,
    prism,
    random_connected,
    random_saturated,
    scarf_complex_parking,
)


def _stirling2(n, k):
    if k == 0:
        return int(n == 0)
    if n == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_cyc_partition_counts():
    for n in range(1, 6):
        for k in range(1, n + 1):
            expect = factorial(k - 1) * _stirling2(n, k)
            assert len(cyc_partitions(n, k)) == expect


def test_cyc_partitions_match_set_partition_enumerator():
    # the chains of the barycentric walk give the same partitions, in the
    # same order, as ordering the blocks of every set partition
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert cyc_partitions(n, k) == cyc_partitions_by_set_partitions(n, k)


def test_ordered_partition_canonical_form():
    p = OrderedPartition(((1,), (2, 3)))
    assert p.blocks == ((1,), (2, 3))
    import pytest

    with pytest.raises(ValueError):
        OrderedPartition(((2, 3), (1,)))  # n not in the last block
    with pytest.raises(ValueError):
        OrderedPartition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        OrderedPartition(((1,), (2, 4)))  # does not cover [4]


def test_k4_complex_ranks(k4_graph):
    c = cyc_complex(k4_graph)
    assert c.ranks == (1, 7, 12, 6)
    s = scarf_complex_parking(k4_graph)
    assert s.ranks == (1, 7, 12, 6)
    assert s.nvars == 3 and c.nvars == 4


def test_d_squared_zero_and_minimality():
    rng = random.Random(20)
    graphs = [k4(), c4(), chain_graph()]
    graphs += [random_connected(rng, rng.randint(3, 5)) for _ in range(5)]
    graphs += [random_saturated(rng, rng.randint(3, 5)) for _ in range(3)]
    for g in graphs:
        c = cyc_complex(g)
        assert c.d_squared_is_zero()
        s = scarf_complex_parking(g)
        assert s.d_squared_is_zero()
        if g.is_saturated():
            assert minimality_check(c)
            assert minimality_check(s)


def test_k4_first_matrix_entries(k4_graph):
    """Spot-check boundary entries of the generator matrix against the
    toppling binomials: column for ({1},{2,3,4}) is x1^3 - x2*x3*x4."""
    c = cyc_complex(k4_graph)
    gens = c.basis[1]
    col = next(
        i for i, p in enumerate(gens) if p.blocks == ((1,), (2, 3, 4))
    )
    entries = {
        exp: coeff
        for (row, cc), poly in c.matrices[0].items()
        if cc == col and row == 0
        for exp, coeff in poly.items()
    }
    assert entries == {(3, 0, 0, 0): 1, (0, 1, 1, 1): -1}


def test_graded_consistency_of_boundaries(k4_graph):
    """Boundary entries respect the grading: literally for the parking
    resolution, and modulo the Laplacian lattice (class and total degree)
    for the cyclic complex with its wrap-around terms."""
    for g in (k4_graph, chain_graph()):
        s = scarf_complex_parking(g)
        for step, mat in enumerate(s.matrices):
            for (row, col), poly in mat.items():
                src = s.labels[step + 1][col]
                tgt = s.labels[step][row]
                for exp in poly:
                    assert vec_add(tgt, exp) == src
        grp = divisor_class_group(g)
        zero = grp.class_of((0,) * g.n)
        c = cyc_complex(g)
        for step, mat in enumerate(c.matrices):
            for (row, col), poly in mat.items():
                src = c.labels[step + 1][col]
                tgt = c.labels[step][row]
                for exp in poly:
                    diff = tuple(a - b - e for a, b, e in zip(src, tgt, exp))
                    assert sum(diff) == 0 and grp.class_of(diff) == zero


def test_bary_complex_shape(k4_graph):
    bary = bary_complex(k4_graph)
    # the vertices are the 7 non-empty subsets of [3], as node bitmasks,
    # and each face is a chain of them, increasing under inclusion
    assert {v for f in bary.faces for v in f} == set(range(1, 2 ** 3))
    assert all(a & b == a != b for f in bary.faces for a, b in zip(f, f[1:]))
    # barycentric subdivision of the 2-simplex: 7 vertices, 12 edges, 6 triangles
    assert face_counts(bary) == (7, 12, 6)


def _mask(nodes) -> int:
    """The node bitmask of a 1-based node set."""
    return sum(1 << (i - 1) for i in nodes)


def _old_bary_complex(g) -> tuple:
    """Reference for bary_complex: the non-empty subsets of [n-1] by size
    and then lexicographically, labelled x^(I -> [n] minus I) by ``_arrow``,
    and the flags of their own inclusion graph with their lcm labels."""
    n = g.n
    subsets = [s for size in range(1, n) for s in combinations(range(1, n), size)]
    labels = [_arrow(g, s, tuple(k for k in range(1, n + 1) if k not in s)) for s in subsets]
    flags = list(_cliques(_inclusion_graph(list(map(_mask, subsets))), labels, (1 << len(subsets)) - 1))
    return subsets, labels, flags


def test_bary_complex_matches_own_subsets():
    """bary_complex, whose faces are chains of node bitmasks, equals the
    barycentric complex built by a clique walk over the inclusion graph of
    the subsets of [n-1], face for face as chains of subsets with the same
    face labels; its faces come in lexicographic order, each a tuple of
    bitmasks of non-empty subsets of [n-1], strictly increasing under
    inclusion; and lcm(0, L e_I) is x^(I -> [n] minus I) for every
    non-empty I avoiding n."""
    faces = 0
    for g in data_and_seeded_graphs(27):
        imgs = dict(subset_images(g))
        bary = bary_complex(g)
        subsets, labels, flags = _old_bary_complex(g)
        for s, lab in zip(subsets, labels, strict=True):
            assert lcm_exp((0,) * g.n, imgs[_mask(s)]) == lab
        want = sorted((tuple(_mask(subsets[k]) for k in f), lab) for f, lab in flags)
        assert sorted(zip(bary.faces, bary.face_labels)) == want
        assert list(bary.faces) == sorted(bary.faces)
        for f in bary.faces:
            assert 0 < f[0] and f[-1] >> (g.n - 1) == 0
            assert all(a & b == a != b for a, b in zip(f, f[1:]))
        faces += len(flags)
    assert faces > 1000


DATA_GRAPHS = ("c4", "k4", "chain", "prism", "sat5", "rsat5", "g13", "rsat6", "one")


def test_bary_face_count_is_cyclic_partition_count(monkeypatch):
    """The face count that bary_complex checks, the sum over k >= 2 of
    (k-1)! S(n, k), is the number of cyclically ordered partitions of [n]
    but the one-block one, for n = 1-6, and the count of every data graph's
    complex; a walk that misses a chain fails the check."""
    for n in range(1, 7):
        assert _cyclic_partition_count(n) == sum(len(cyc_partitions(n, k)) for k in range(1, n + 1)) - 1
    for name in DATA_GRAPHS:
        g = parse_graph((DATA / f"{name}.graph").read_text())
        assert len(bary_complex(g).faces) == _cyclic_partition_count(g.n)
    walk = resolutions._chains
    monkeypatch.setattr(resolutions, "_chains", lambda labels: walk(labels)[:-1])
    with pytest.raises(AssertionError, match="barycentric complex of a 4-node graph has 24 faces"):
        bary_complex(k4())


def _class_table_graphs() -> list:
    """Every connected graph with n <= 4 and multiplicity <= 2, 30 seeded
    random connected 5-node and 8 6-node graphs, the data graphs, and a
    saturated 7-node graph of genus 17."""
    graphs = [g for n in range(1, 5) for g in all_connected_graphs(n, 2)]
    rng = random.Random(28)
    graphs += [random_connected(rng, 5) for _ in range(30)] + [random_connected(rng, 6) for _ in range(8)]
    graphs += [parse_graph((DATA / f"{name}.graph").read_text()) for name in DATA_GRAPHS]
    return graphs + [random_saturated(random.Random(5), 7, 17)]


def _least_labels(g) -> list:
    """The least label of each (degree, divisor class) of the barycentric
    labels, in increasing order: the degrees at which conjecture_check
    reads the upper Koszul complexes."""
    grp = divisor_class_group(g)
    least = {}
    for c in sorted(set(bary_complex(g).face_labels)):
        least.setdefault((sum(c), grp.class_of(c)), c)
    return list(least.values())


def test_class_table_matches_flag_walk():
    """The class table read off the barycentric chains, one rotation each,
    maps every distinct barycentric label to a representative of its own
    (degree, class), and those representatives are the oracle's walk over
    every flag of the origin, but for its origin row.  Many classes hold
    several cyclic partitions, so the tie-break between them is
    exercised."""
    graphs = _class_table_graphs()
    assert len(graphs) > 680
    shared = 0
    for g in graphs:
        bary = bary_complex(g)
        table = _class_table(g, bary)
        grp = divisor_class_group(g)
        want = class_table_by_flag_walk(g)
        del want[(0, grp.class_of((0,) * g.n))]
        assert set(table) == set(bary.face_labels)
        got = {}
        for c, rep in table.items():
            key = (sum(c), grp.class_of(c))
            assert (sum(rep), grp.class_of(rep)) == key, (g, c, rep)
            got[key] = rep
        assert got == want, g
        shared += sum(r > 1 for r in Counter(map(table.get, bary.face_labels)).values())
    assert shared > 1000


def test_koszul_ranks_are_class_invariant():
    """The upper Koszul complex K^c depends on the class of c alone: at
    every distinct barycentric label, _koszul_ranks gives the ranks that it
    gives at the label's class-table representative, in characteristics 0
    and 2, on the class-table graphs.  conjecture_check reads each class at
    its least label on this ground."""
    moved = 0
    for g in _class_table_graphs():
        table = _class_table(g, bary_complex(g))
        degs = sorted(set(table) | set(table.values()))
        points = dict(zip(degs, apt_region(g, degs)))
        for char in (0, 2):
            memo = {}
            for c, rep in table.items():
                assert _koszul_ranks(points[c], c, memo, char) == _koszul_ranks(points[rep], rep, memo, char), (g, c)
        moved += sum(c != rep for c, rep in table.items())
    assert moved > 15000


def _rp2() -> LabeledComplex:
    """Minimal 6-vertex triangulation of RP^2."""
    triangles = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    faces = set()
    for t in triangles:
        t = tuple(v - 1 for v in t)
        faces.add(t)
        faces.add((t[0],))
        faces.add((t[1],))
        faces.add((t[2],))
        faces.add((t[0], t[1]))
        faces.add((t[0], t[2]))
        faces.add((t[1], t[2]))
    return LabeledComplex(tuple(sorted(faces)))


def _octahedron(rng) -> tuple:
    """The vertex labels and the boundary of the octahedron, a flag complex
    that is no barycentric subdivision: vertices 2i and 2i + 1 are
    opposite, every other pair is an edge, and every triple of pairwise
    neighbours a triangle.  Labels are random exponent vectors over 3
    variables, and the complex carries the lcm labels of its faces."""
    faces = [f for k in (1, 2, 3) for f in combinations(range(6), k)
             if len({v // 2 for v in f}) == k]
    labels = tuple(tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(6))
    faces = tuple(sorted(faces))
    return labels, LabeledComplex(faces, tuple(reduce(lcm_exp, (labels[v] for v in f)) for f in faces))


def _scan_below(labeled, deg):
    """Reference for sub_below: filter every face by its label, given as
    a sorted list of (face, label) pairs."""
    deg = tuple(deg)
    return tuple(f for f, lab in labeled if lab != deg and divides(lab, deg))


def test_sub_below_matches_full_scan():
    rng = random.Random(23)
    labels, octahedron = _octahedron(rng)
    degrees = sorted({face_label(labels, f) for f in octahedron.faces})
    cases = [(octahedron, labels, degrees + [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(10)])]
    for n, saturated in ((3, False), (3, True), (4, False), (4, True), (5, False), (5, True), (6, False)):
        g = random_saturated(rng, n) if saturated else random_connected(rng, n, max_mult=3)
        bary = bary_complex(g)
        labels = bary_vertex_labels(g)
        degrees = sorted({face_label(labels, f) for f in bary.faces})
        top = [max(c[i] for c in degrees) for i in range(n)]
        degrees += [tuple(rng.randint(0, t + 1) for t in top) for _ in range(10)]
        degrees.append((0,) * n)  # no vertex label divides it
        cases.append((bary, labels, degrees))
    for c, labels, degrees in cases:
        labeled = [(f, face_label(labels, f)) for f in sorted(c.faces)]
        for deg in degrees:
            assert sub_below(c, deg).faces == _scan_below(labeled, deg)
    assert sub_below(cases[1][0], cases[1][2][-1]).faces == ()


def test_sub_below_needs_face_labels(k4_graph):
    """A complex without face labels, such as the result of ``sub_below``,
    is refused with a message that names them."""
    bary = bary_complex(k4_graph)
    c = max(bary.face_labels)
    with pytest.raises(ValueError, match="face_labels"):
        sub_below(sub_below(bary, c), c)


def test_sub_below_rejects_wrong_length(k4_graph):
    """A degree with missing or extra entries is named in the error, not
    read as a prefix of itself or cut short."""
    bary = bary_complex(k4_graph)
    with pytest.raises(ValueError, match=r"degree \(1, 1\) must have one entry per node, 4"):
        sub_below(bary, (1, 1))
    with pytest.raises(ValueError, match=r"degree \(1, 1, 1, 0, 5\) must have one entry per node, 4"):
        sub_below(bary, (1, 1, 1, 0, 5))


def _edge_nbrs(c, size) -> list:
    """Neighbour bitmask of each of the ``size`` vertices along the edges
    of ``c``."""
    nbrs = [0] * size
    for f in c.faces:
        if len(f) == 2:
            a, b = f
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
    return nbrs


def _walk_below(c, labels, deg) -> tuple:
    """Reference for sub_below on a flag complex: the cut walk over the
    edges of ``c``, rooted at the vertices of ``c`` whose label in
    ``labels`` divides deg and cut where the lcm label reaches deg."""
    deg = tuple(deg)
    verts = {v for f in c.faces for v in f}
    roots = sum(1 << v for v in verts if divides(labels[v], deg))
    return tuple(f for f, _ in cut_cliques(_edge_nbrs(c, len(labels)), labels, roots, deg))


def test_sub_below_matches_cut_walk():
    """sub_below keeps the faces of the cut walk, in the same order, below
    every distinct barycentric label of the data graphs and of seeded
    random 5-node graphs, from the labels bary_complex kept."""
    rng = random.Random(16)
    graphs = [parse_graph((DATA / f"{name}.graph").read_text()) for name in ("c4", "k4", "prism", "sat5")]
    graphs += [random_connected(rng, 5, max_mult=3) for _ in range(3)]
    graphs += [random_saturated(rng, 5) for _ in range(3)]
    cut = 0
    for g in graphs:
        bary = bary_complex(g)
        labels = bary_vertex_labels(g)
        assert bary.face_labels == tuple(face_label(labels, f) for f in bary.faces)
        for c in sorted(set(bary.face_labels)):
            assert sub_below(bary, c).faces == _walk_below(bary, labels, c)
            cut += 1
    assert cut > 500


def test_chains_match_brute_force():
    """The chain walk lists every chain of non-empty subsets of [m], for
    m = 0-5, once, labelled with the lcm of its subsets' seeded random
    labels, in lexicographic order, so each chain after its own prefix;
    there are sum over k >= 2 of (k-1)! S(m+1, k) of them."""
    rng = random.Random(37)
    for m in range(6):
        labels = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(1 << m)]
        # a chain increases as a tuple of bitmasks, so it is a combination
        want = {
            f: reduce(lcm_exp, (labels[u] for u in f))
            for k in range(1, m + 1)
            for f in combinations(range(1, 1 << m), k)
            if all(a & b == a for a, b in zip(f, f[1:]))
        }
        got = _chains(labels)
        faces = [f for f, _ in got]
        assert len(set(faces)) == len(faces) and dict(got) == want
        assert faces == sorted(faces)
        at = {f: k for k, f in enumerate(faces)}
        assert all(at[f[:-1]] < at[f] for f in faces[1:] if len(f) > 1)
        assert len(faces) == sum(factorial(k - 1) * _stirling2(m + 1, k) for k in range(2, m + 2))


def test_cliques_match_brute_force():
    """The oracles' clique walk yields every non-empty clique, each with its
    lcm label, in lexicographic order; their cut walk yields every clique
    within the roots whose label is not the cut.  Cutting on the coordinates that
    reach the cut, joined by bitwise or, yields the same faces."""
    rng = random.Random(26)
    walked = 0
    for _ in range(40):
        size, nvars = rng.randint(1, 8), rng.randint(1, 3)
        labels = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(size)]
        edges = {e for e in combinations(range(size), 2) if rng.random() < 0.6}
        nbrs = [sum(1 << u for u in range(size) if (min(u, v), max(u, v)) in edges) for v in range(size)]
        cliques = [
            (f, reduce(lcm_exp, (labels[v] for v in f)))
            for k in range(1, size + 1)
            for f in combinations(range(size), k)
            if all(e in edges for e in combinations(f, 2))
        ]
        cliques.sort()
        assert list(_cliques(nbrs, labels, (1 << size) - 1)) == cliques
        for cut in sorted({lab for _, lab in cliques} | {tuple(rng.randint(0, 2) for _ in range(nvars))}):
            roots = sum(1 << v for v in range(size) if divides(labels[v], cut))
            want = [(f, lab) for f, lab in cliques if all(roots >> v & 1 for v in f) and lab != cut]
            got = list(cut_cliques(nbrs, labels, roots, cut))
            assert got == want
            # below the cut, a label is the cut when every coordinate is hit
            hits = [sum(1 << i for i in range(nvars) if lab[i] == cut[i]) for lab in labels]
            by_hits = cut_cliques(nbrs, hits, roots, (1 << nvars) - 1, or_)
            assert [f for f, _ in by_hits] == [f for f, _ in want]
            walked += len(got)
    assert walked > 500


def test_homology_of_simple_complexes():
    # two isolated points: H~_0 has rank 1
    two_pts = LabeledComplex(((0,), (1,)))
    assert homology_ranks(two_pts) == {-1: 0, 0: 1}
    # empty complex, with or without the empty face: H~_(-1) has rank 1
    assert homology_ranks(LabeledComplex(())) == {-1: 1}
    empty_face = LabeledComplex(((),))
    assert homology_ranks(empty_face) == {-1: 1} == homology_ranks_oracle(empty_face)
    assert homology_ranks(LabeledComplex(((), (0,), (1,)))) == {-1: 0, 0: 1}
    # hollow triangle: circle
    tri = LabeledComplex(((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)))
    assert homology_ranks(tri) == {-1: 0, 0: 0, 1: 1}
    # filled triangle: contractible
    filled = LabeledComplex(tri.faces + ((0, 1, 2),))
    assert homology_ranks(filled) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_homology_rejects_non_prime_char():
    # conjecture_check ranks K^c off its face set, with no homology_ranks
    # call, and the one-node graph has no parking label to rank: it checks
    # the characteristic itself
    two_pts = LabeledComplex(((0,), (1,)))
    one = parse_graph((DATA / "one.graph").read_text())
    for char in (1, 4, -2):
        with pytest.raises(ValueError, match="characteristic"):
            homology_ranks(two_pts, char)
        for g in (one, k4()):
            with pytest.raises(ValueError, match="characteristic"):
                conjecture_check(g, char)


def test_projective_plane_homology_depends_on_char():
    """Minimal 6-vertex triangulation of RP^2: torsion visible only mod 2."""
    c = _rp2()
    assert homology_ranks(c, 0) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert homology_ranks(c, 2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    # its only torsion is 2-torsion, so a large prime sees char 0's ranks
    assert homology_ranks(c, 2**61 - 1) == homology_ranks(c, 0)


def _face_set(faces) -> int:
    """The face-set integer of ``_koszul_ranks`` of a complex given by its
    faces as tuples: bit sum(2^i for i in F) for each face F."""
    return reduce(or_, (1 << sum(1 << i for i in f) for f in faces), 0)


def _face_tuples(faces: int) -> tuple:
    """The non-empty faces of a face-set integer, as sorted tuples in
    lexicographic order."""
    return tuple(sorted(tuple(i for i in range(f.bit_length()) if f >> i & 1)
                        for f in range(1, faces.bit_length()) if faces >> f & 1))


def _closed_face_sets(n: int) -> list:
    """Every face-set integer on [n] that is closed under taking faces,
    the void complex 0 and {()} = 1 among them."""
    out = []
    for faces in range(1 << (1 << n)):
        fs = [f for f in range(1 << n) if faces >> f & 1]
        if all(faces >> (f & ~(1 << i)) & 1 for f in fs for i in range(n)):
            out.append(faces)
    return out


def test_face_set_ranks_match_oracle():
    """_face_set_ranks gives the ranks of the full augmented chain complex
    and of homology_ranks, in characteristics 0, 2 and 3: on every
    simplicial complex on at most 4 vertices (168 on 4, the Dedekind
    number), on seeded random complexes on 5 and 6 vertices, on RP^2,
    whose mod-2 torsion shows, and on the random complexes on at most 8
    vertices of test_star_collapse_matches_full_boundary.  Few complexes
    on 6 vertices or fewer keep an odd cycle outside the collapsed star,
    where a wrong boundary sign changes a rank in characteristics 0 and 3;
    some of the larger ones do.  And conjecture_check, which sets these
    ranks against homology_ranks on the parking side, passes at n = 7,
    where the face sets are 128-bit integers."""
    cases = [(faces, n) for n in range(5) for faces in _closed_face_sets(n)]
    assert sum(n == 4 for _, n in cases) == 168
    rng = random.Random(38)
    for n in (5, 6):
        for _ in range(100):
            facets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 5))]
            cases.append((_face_set(s for f in facets for k in range(len(f) + 1)
                                    for s in combinations(sorted(f), k)), n))
    cases += [(_face_set(((),) + c.faces), 8) for c in _random_complexes(random.Random(26), 200)]
    rp2 = _face_set(((),) + _rp2().faces)
    cases.append((rp2, 6))
    for char in (0, 2, 3):
        for faces, n in cases:
            c = LabeledComplex(_face_tuples(faces))
            got = _face_set_ranks(faces, n, char)
            assert got == homology_ranks_oracle(c, char) == homology_ranks(c, char), (faces, n, char)
    assert _face_set_ranks(rp2, 6, 0) != _face_set_ranks(rp2, 6, 2)
    g = random_saturated(random.Random(5), 7)
    for char in (0, 2):
        assert conjecture_check(g, char)["pass"]


def _with_apexes(faces, *apexes) -> tuple:
    """The faces of the join of ``faces`` with the discrete set ``apexes``,
    each apex a vertex above all of theirs: one apex gives the cone, two
    the suspension."""
    return faces + tuple(f + (a,) for a in apexes for f in ((),) + faces)


def _is_flag(faces, n) -> bool:
    """Whether every vertex set of size >= 3 whose facets are all faces is
    a face."""
    for k in range(3, n + 1):
        for s in combinations(range(n), k):
            if s not in faces and all(s[:i] + s[i + 1 :] in faces for i in range(k)):
                return False
    return True


def _random_complexes(rng, count) -> list:
    """Seeded complexes on at most 8 vertices that are not flag complexes:
    the downward closures of a few random facets."""
    out = []
    while len(out) < count:
        n = rng.randint(3, 8)
        facets = [rng.sample(range(n), rng.randint(1, min(n, 5))) for _ in range(rng.randint(1, 6))]
        faces = {s for f in facets for k in range(1, len(f) + 1)
                 for s in combinations(sorted(f), k)}
        if not _is_flag(faces, n):
            out.append(LabeledComplex(tuple(sorted(faces))))
    return out


def _data_slices() -> list:
    """Every ``sub_below`` slice that ``conjecture`` ranks on the data
    graphs c4, k4, chain, prism and sat5, and the oracle's apartment slice
    below the least label of each of their classes."""
    out = []
    for name in ("c4", "k4", "chain", "prism", "sat5"):
        g = parse_graph((DATA / f"{name}.graph").read_text())
        bary = bary_complex(g)
        labels = bary_vertex_labels(g)
        out += [sub_below(bary, c) for c in sorted({face_label(labels, f) for f in bary.faces})]
        out += apartment_slices(g, _least_labels(g))[1]
    return out


def test_star_collapse_matches_full_boundary():
    """One star collapse gives the ranks of the full augmented chain
    complex, in characteristics 0, 2 and 3, on the conjecture slices of the
    data graphs and on random complexes that are not flag complexes."""
    slices = _data_slices()
    assert len(slices) > 1000
    randoms = _random_complexes(random.Random(26), 200)
    for char in (0, 2, 3):
        for c in slices + randoms:
            assert homology_ranks(c, char) == homology_ranks_oracle(c, char)


def test_cone_and_suspension_homology():
    """A cone is acyclic whichever vertex is collapsed; over RP^2 the apex
    is the busiest vertex (32 faces against 22), and nothing lies outside
    its star.  The suspension of RP^2 shifts its mod-2 torsion up one
    dimension; there each RP^2 vertex lies in 33 faces and each apex in
    32, so an RP^2 vertex is collapsed and its link is a 2-sphere."""
    rp2 = _rp2().faces
    cones = [LabeledComplex(_with_apexes(rp2, 6))]
    for c in _random_complexes(random.Random(27), 20):
        cones.append(LabeledComplex(_with_apexes(c.faces, 8)))
    suspension = LabeledComplex(_with_apexes(rp2, 6, 7))
    for char in (0, 2, 3):
        for c in cones:
            assert set(homology_ranks(c, char).values()) == {0}
        expect = {-1: 0, 0: 0, 1: 0, 2: int(char == 2), 3: int(char == 2)}
        assert homology_ranks(suspension, char) == expect == homology_ranks_oracle(suspension, char)


def test_homology_rejects_faces_not_closed():
    """A triangle over a missing edge (0, 1): away from the busiest vertex
    3; inside the star of the busiest vertex 2, where (0, 1) is a link face;
    and inside the star of the busiest vertex 0, where (1,) is a link face
    but (1, 2) has it as a facet."""
    cases = [
        ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (0, 2), (1, 2), (0, 1, 2),
         (3, 4), (3, 5), (3, 6), (4, 5), (3, 4, 5)),
        ((0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)),
        ((0,), (1,), (2,), (3,), (0, 2), (0, 3), (1, 2), (1, 3), (0, 1, 2)),
    ]
    for faces in cases:
        with pytest.raises(ValueError, match=r"face \(0, 1\) of \(0, 1, 2\)"):
            homology_ranks(LabeledComplex(faces))


def test_betti_tables_k4(k4_graph):
    assert betti_parking(k4_graph)["total"] == (1, 7, 12, 6)
    assert betti_toppling(k4_graph)["total"] == (1, 7, 12, 6)


def test_betti_toppling_classifies_each_label_once(monkeypatch):
    """betti_toppling classifies each distinct barycentric label once, and
    not the origin, which names its own class, and reads every flag's
    class representative from the class table; a flag degree that is no
    barycentric label raises AssertionError naming the degree."""
    g = prism()
    labels = set(bary_complex(g).face_labels)
    group = type(divisor_class_group(g))
    class_of = group.class_of
    calls = Counter()

    def counted(self, w):
        calls[tuple(w)] += 1
        return class_of(self, w)

    monkeypatch.setattr(group, "class_of", counted)
    assert betti_toppling(g)["total"] == (1, 22, 92, 147, 102, 26)
    assert set(calls) == labels and set(calls.values()) == {1}
    flags = connected_flags(g)
    monkeypatch.setattr(resolutions, "connected_flags", lambda g: flags + [(2, (9, 0, 0, 0, 0, 0))])
    with pytest.raises(AssertionError, match=r"Betti degree \(9, 0, 0, 0, 0, 0\) is not a barycentric label"):
        betti_toppling(g)


def test_homology_betti_match_partition_counts():
    """For saturated graphs the graded Betti numbers from homology equal the
    ranks of the cyclic-partition resolution."""
    rng = random.Random(21)
    for _ in range(4):
        g = random_saturated(rng, rng.randint(3, 4), max_mult=2)
        expect = cyc_complex(g).ranks
        assert betti_parking(g)["total"] == expect
        assert betti_toppling(g)["total"] == expect


def test_top_betti_is_acyclic_orientation_count():
    rng = random.Random(22)
    for _ in range(4):
        g = random_connected(rng, 4, max_mult=2)
        total = betti_parking(g)["total"]
        assert total[-1] == acyclic_orientations_unique_sink(g, g.n)


def _betti_table(n: int, pairs, shift: int, entries: list) -> dict:
    """Oracle: Betti table from (degree, reduced homology ranks) pairs;
    homology in dimension i below degree c gives beta_{i+shift, c}, for
    indices below n."""
    for c, hr in pairs:
        entries += [(c, i + shift, r) for i, r in hr.items() if r and i + shift < n]
    total = [0] * n
    for _, j, r in entries:
        total[j] += r
    return {"total": tuple(total), "entries": sorted(entries)}


def _homology_tables(g, char):
    """The parking and the toppling Betti tables from the homology of the
    barycentric subcomplexes and of the oracle's apartment slices."""
    bary = bary_complex(g)
    vertex_labels = bary_vertex_labels(g)
    degrees = sorted({face_label(vertex_labels, f) for f in bary.faces})
    below = ((c, homology_ranks(sub_below(bary, c), char)) for c in degrees)
    parking = _betti_table(g.n, below, 2, [((0,) * g.n, 0, 1)])
    labels = sorted({(0,) * g.n, *_class_table(g, bary).values()})
    slices = ((c, homology_ranks(region, char)) for c, region in zip(labels, apartment_slices(g, labels)[1]))
    toppling = _betti_table(g.n, slices, 1, [])
    return parking, toppling


def _oracle_graphs():
    """Seeded graphs with n = 1-6, saturated or not, multiplicities up to 3
    (1 at n = 6), and the prism."""
    rng = random.Random(25)
    graphs = [k4(), c4(), chain_graph(), prism()]
    for n in range(1, 7):
        for max_mult in (1, 2, 3) if n < 6 else (1,):
            graphs.append(random_connected(rng, n, max_mult))
            if n > 1:
                graphs.append(random_saturated(rng, n, max_mult))
    return graphs


def test_betti_tables_match_homology():
    """The counted tables equal the homology tables entry for entry, degrees
    included, in characteristics 0, 2 and 3."""
    graphs = _oracle_graphs()
    assert len(graphs) >= 30
    assert sum(not g.is_saturated() for g in graphs) >= 10
    for k, g in enumerate(graphs):
        parking, toppling = betti_parking(g), betti_toppling(g)
        for char in (0, 2, 3) if g.n < 6 else ((0, 2, 3)[k % 3],):
            assert _homology_tables(g, char) == (parking, toppling)


def test_flag_counts():
    """Every flag has a degree with c_n = 0 and k - 1 blocks besides the
    sink's; the all-singleton flags are the parking socle, one per acyclic
    orientation with n as unique sink; and there is one flag per k = 1."""
    for g in _oracle_graphs():
        flags = connected_flags(g)
        assert all(c[-1] == 0 and 1 <= k <= g.n for k, c in flags)
        assert [c for k, c in flags if k == 1] == [(0,) * g.n]
        top = sorted(tuple(d - 1 for d in c) for k, c in flags if k == g.n)
        assert top == list(lattice_socle_base(g))
        assert len(top) == acyclic_orientations_unique_sink(g, g.n)


def test_chain_graph_example():
    g = chain_graph()
    # complete intersection: generators a^2, b, c^3
    from chipalg.chipfiring import parking_ideal

    assert set(parking_ideal(g).generators) == {(2, 0, 0), (0, 1, 0), (0, 0, 3)}
    # one minimal first syzygy in degree (2,0,3,0)
    deg = (2, 0, 3, 0)
    bary = sub_below(bary_complex(g), deg)
    verts = [f for f in bary.faces if len(f) == 1]
    assert len(verts) == 2 and len(bary.faces) == 2  # two isolated vertices
    labels = {face_label(bary_vertex_labels(g), f) for f in verts}
    assert labels == {(2, 0, 0, 0), (0, 0, 3, 0)}  # a^2 and c^3
    assert homology_ranks(bary)[0] == 1


def test_chain_graph_apartment_slice():
    g = chain_graph()
    points, (apt,) = apartment_slices(g, [(2, 0, 3, 0)])
    assert face_counts(apt) == (16, 28, 12)
    hr = homology_ranks(apt)
    assert hr[0] == 0 and hr[1] == 1  # homology of a circle
    expected_labels = {
        (0, 0, 0, 0), (0, -1, 1, 0), (0, -2, 2, 0), (0, -3, 3, 0),
        (-2, 0, 2, 0), (-2, -1, 3, 0), (0, 0, 3, -3), (2, 0, 1, -3),
        (2, 0, -2, 0), (2, -1, 2, -3), (2, -1, -1, 0), (2, -2, 3, -3),
        (2, -2, 0, 0), (2, -3, 1, 0), (2, -4, 2, 0), (2, -5, 3, 0),
    }
    assert set(points) == expected_labels


def _own_box_points(g, deg) -> list:
    """The lattice points w <= deg, from its own box [deg - sum(deg), deg],
    sorted."""
    total = sum(deg)
    return sorted(lattice_points_in_box(g, tuple(d - total for d in deg), tuple(deg)))


def _apt_region_own_box(g, deg) -> tuple:
    """Reference for the apartment slice below deg: the lattice points w of
    its own box [deg - sum(deg), deg], sorted by label, and the complex of
    every clique of pairwise tropical distance <= 1 whose lcm label
    properly divides x^deg, in lexicographic pre-order.  Distances are taken between the classes v
    with L v = w (``_lattice_class``)."""
    deg = tuple(deg)
    labels = tuple(_own_box_points(g, deg))
    vs = [_lattice_class(g, w) for w in labels]

    @cache
    def dist_ok(i, j):
        d = [a - b for a, b in zip(vs[i], vs[j])]
        return max(d) - min(d) <= 1

    faces = []

    def walk(face, label, start):
        for k in range(start, len(labels)):
            if all(dist_ok(j, k) for j in face):
                lab = lcm_exp(label, labels[k]) if face else labels[k]
                if lab != deg and divides(lab, deg):
                    faces.append(face + (k,))
                    walk(face + (k,), lab, k + 1)

    walk((), None, 0)
    return labels, LabeledComplex(tuple(faces))


@cache
def _lattice_class(g, w) -> tuple:
    """The class v with L v = w, solved for over the integers and
    normalized to v_n = 0; the boxes of one graph share most points."""
    v = solve_integer(laplacian(g), w)
    return tuple(x - v[-1] for x in v)


def _points(labels, c) -> tuple:
    """The faces of ``c``, each as its tuple of vertex labels from the
    table ``labels``."""
    return tuple(tuple(labels[v] for v in f) for f in c.faces)


def test_apartment_slices_match_own_boxes():
    """The points that apt_region finds below each degree by one walk over
    their union are those of the degree's own box: below the least label of
    each class alone, and below random degrees, alone and together with
    the labels.  On the data graphs k4, c4 and chain, the oracle's slices below
    the labels and the random degrees equal the slices from the own boxes,
    each face as its tuple of lattice points and in the same order."""
    rng = random.Random(24)
    graphs = [k4(), c4(), chain_graph()]
    for n in range(1, 7):
        for max_mult in (1, 2, 3) if n < 6 else (1,):
            graphs.append(random_connected(rng, n, max_mult))
            graphs.append(random_saturated(rng, n, max_mult))
    points = nonempty = 0
    for k, g in enumerate(graphs):
        labels = _least_labels(g)
        degs = []
        if g.n < 6:
            top = tuple(map(max, zip((0,) * g.n, *labels)))
            degs = [tuple(rng.randint(0, t + 1) for t in top) for _ in range(5)]
        want = [_own_box_points(g, c) for c in labels + degs]
        # the least label of each class alone is what conjecture_check asks
        # for; the random degrees add points to the walk
        assert [sorted(pts) for pts in apt_region(g, labels)] == want[: len(labels)]
        assert [sorted(pts) for pts in apt_region(g, labels + degs)] == want
        points += sum(map(len, want))
        for deg, pts in zip(degs, want[len(labels) :]):
            (one,) = apt_region(g, [deg])
            assert sorted(one) == pts
        if k < 3:
            ws, slices = apartment_slices(g, labels + degs)
            slices = [_points(ws, s) for s in slices]
            assert slices == [_points(*_apt_region_own_box(g, c)) for c in labels + degs]
            nonempty += sum(map(bool, slices))
    assert points > 11000 and nonempty > 50


def _koszul_graphs() -> list:
    """The data graphs, every connected graph with n <= 4 and multiplicity
    <= 1, and ten seeded random connected 5-node graphs."""
    names = ("c4", "k4", "chain", "prism", "sat5", "rsat5", "g13")
    graphs = [parse_graph((DATA / f"{name}.graph").read_text()) for name in names]
    graphs += [g for n in range(1, 5) for g in all_connected_graphs(n, 1)]
    rng = random.Random(26)
    return graphs + [random_connected(rng, 5) for _ in range(10)]


def _nonzero(ranks) -> dict:
    return {i: r for i, r in ranks.items() if r}


def test_koszul_matches_apartment_slices():
    """At the least label of each class, and at three random degrees in
    [0, 2]^n, the upper Koszul complex of the lattice points below the
    degree has the reduced homology of the oracle's apartment slice below
    it, in the same dimensions, in characteristics 0 and 2; one memo serves
    each graph and characteristic.  Every label has homology; the random
    degrees give cones, other acyclic complexes, and homology."""
    rng = random.Random(27)
    graphs = _koszul_graphs()
    assert len(graphs) == 7 + 44 + 10
    kinds = Counter()
    for g in graphs:
        labels = _least_labels(g)
        degs = labels + [tuple(rng.randint(0, 2) for _ in range(g.n)) for _ in range(3)]
        points = apt_region(g, degs)
        _, slices = apartment_slices(g, degs)
        for char in (0, 2):
            memo = {}
            for k, (c, pts, region) in enumerate(zip(degs, points, slices)):
                got = _nonzero(_koszul_ranks(pts, c, memo, char))
                assert got == _nonzero(homology_ranks(region, char)), (g, c, char)
                if k < len(labels):
                    assert got
                    kinds["label"] += 1
                elif any(all(map(int.__lt__, w, c)) for w in pts):
                    kinds["cone"] += 1
                else:
                    kinds["homology" if got else "acyclic"] += 1
    assert kinds["label"] > 3000 and min(kinds["cone"], kinds["acyclic"], kinds["homology"]) > 50


def test_koszul_faces_match_maximal_facets(monkeypatch):
    """The face-set integer that _koszul_ranks hands to _face_set_ranks,
    decoded, is the oracle's: every non-empty subset of a maximal facet,
    in lexicographic order.  At the least label of each class and at the
    three random degrees of test_koszul_matches_apartment_slices (cones,
    acyclic complexes and homology); the memo holds one entry per distinct
    antichain of maximal facets, so the integer key neither merges nor
    splits complexes."""
    passed = []
    monkeypatch.setattr(
        resolutions, "_face_set_ranks", lambda faces, n, char: passed.append(_face_tuples(faces)) or {}
    )
    rng = random.Random(27)
    graphs = _koszul_graphs()
    labels_seen = 0
    for g in graphs:
        labels = _least_labels(g)
        degs = labels + [tuple(rng.randint(0, 2) for _ in range(g.n)) for _ in range(3)]
        memo, tops = {}, set()
        for c, pts in zip(degs, apt_region(g, degs)):
            top, faces = koszul_faces_by_facets(pts, c)
            tops.add(top)
            _koszul_ranks(pts, c, memo, 0)
            _koszul_ranks(pts, c, {}, 0)
            assert passed[-1] == faces, (g, c)
        assert len(memo) == len(tops), g
        labels_seen += len(labels)
    assert labels_seen > 1900


def test_reverse_search_meets_each_point_once():
    """apt_region meets each lattice point below the degrees once, from its
    parent: no per-degree list repeats a point, and for each point
    w = L v other than the origin, with v >= 0 and min v = 0, the parent
    L max(v - 1, 0) is in the list of every degree that w is in.  On the
    data graphs and twelve seeded 5-node graphs, at the least label of each
    class and three random degrees."""
    rng = random.Random(29)
    names = ("c4", "k4", "chain", "prism", "sat5", "rsat5", "g13")
    graphs = [parse_graph((DATA / f"{name}.graph").read_text()) for name in names]
    graphs += [random_connected(rng, 5) for _ in range(12)]
    parents = 0
    for g in graphs:
        lam = laplacian(g)
        zero = (0,) * g.n
        labels = _least_labels(g)
        top = tuple(map(max, zip((0,) * g.n, *labels)))
        degs = labels + [tuple(rng.randint(0, t + 1) for t in top) for _ in range(3)]
        for c, pts in zip(degs, apt_region(g, degs)):
            members = set(pts)
            assert len(members) == len(pts), (g, c)
            for w in members - {zero}:
                v = _lattice_class(g, w)
                u = [max(x - min(v) - 1, 0) for x in v]
                assert tuple(sum(map(int.__mul__, row, u)) for row in lam) in members, (g, c, w)
                parents += 1
    assert parents > 12000


def test_apt_region_ignores_the_order_of_its_degrees():
    """apt_region gives each degree the same list, the same points in the
    same order, whatever the order of the degrees: the search prunes a
    child only when it lies below no degree, and walks the children in an
    order that the degrees do not set.  At the least label of each class of
    every sweep graph (n <= 4, multiplicity <= 2), twelve seeded 5-node graphs
    and the prism, each in three shuffled orders."""
    rng = random.Random(35)
    graphs = [g for n in range(1, 5) for g in all_connected_graphs(n, 2)]
    graphs += [random_connected(rng, 5) for _ in range(12)] + [prism()]
    for g in graphs:
        labels = _least_labels(g)
        want = dict(zip(labels, apt_region(g, labels)))
        for _ in range(3):
            degs = rng.sample(labels, len(labels))
            assert dict(zip(degs, apt_region(g, degs))) == want, g


def test_apt_region_matches_kids_table_oracle():
    """apt_region, listing each popped support's children as it goes, gives
    every degree the same points in the same order as the search over a
    table of every support's children, on seeded random connected graphs
    with n = 2-6: at random degrees with zero entries, the zero degree, a
    degree given twice, and the least labels that conjecture_check passes."""
    rng = random.Random(39)
    checked = 0
    for n in range(2, 7):
        for _ in range(8):
            g = random_connected(rng, n)
            degs = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(4)]
            degs += [(0,) * n, degs[0]] + _least_labels(g)[:12]
            rng.shuffle(degs)
            got = apt_region(g, degs)
            assert got == apt_region_by_kids_table(g, degs), g
            checked += sum(map(len, got))
    assert checked > 1000


def test_subset_table_is_built_once_per_job(tmp_path, capsys):
    """With the caches emptied, as a fresh process starts, conjecture_check,
    betti_toppling and ``chipalg ideal`` each build the subset table once,
    and walk the connected splits at most once: ``chipalg ideal`` asks for
    them twice, for the toppling generators and the parking ideal."""
    caches = {
        id(v): v
        for name, module in list(sys.modules.items())
        if name.startswith("chipalg")
        for v in vars(module).values()
        if hasattr(v, "cache_clear")
    }.values()
    for g in (k4(), prism(), random_saturated(random.Random(5), 6)):
        path = tmp_path / "g.graph"
        path.write_text(format_graph(g))
        for job in (conjecture_check, betti_toppling, lambda g: run(["ideal", str(path)])):
            for cached in caches:
                cached.cache_clear()
            job(g)
            assert subset_images.cache_info().misses == 1, (g, job)
            assert connected_splits.cache_info().misses <= 1, (g, job)
    capsys.readouterr()


def test_apartment_slices_reject_bad_degrees():
    """A degree whose length is not the node count, or with a negative
    entry, is named in the error, and no degrees give no slices."""
    g = k4()
    with pytest.raises(ValueError, match=r"degree \(1, 2, 0\) must have one non-negative entry per node, 4"):
        apt_region(g, [(1, 1, 0, 0), (1, 2, 0)])
    with pytest.raises(ValueError, match=r"degree \(0, 0, 0, 0, 0\)"):
        apt_region(g, [(0, 0, 0, 0, 0)])
    with pytest.raises(ValueError, match=r"degree \(2, -1, 1, 0\) must have one non-negative entry"):
        apt_region(g, [(1, 1, 0, 0), (2, -1, 1, 0)])
    assert list(apt_region(g, [])) == []


def test_linear_systems_are_connected():
    """The lattice points w <= c, found in the box [c - sum(c), c], are
    connected under the steps L e_I inside {w <= c}, for degrees with
    negative entries too: the lemma whose case c >= 0 lets apt_region find
    the slices by one walk from the origin."""
    rng = random.Random(31)
    graphs = data_and_seeded_graphs(32)
    nontrivial = 0
    for g in graphs:
        steps = [d for _, d in subset_images(g)]
        # a box that holds every class representative
        reps = _class_table(g, bary_complex(g)).values()
        top = tuple(map(max, zip((0,) * g.n, *reps)))
        for _ in range(20 if g.n < 6 else 4):
            deg = tuple(rng.randint(-2, t + 1) for t in top)
            points = set(lattice_points_in_box(g, tuple(x - sum(deg) for x in deg), deg))
            if not points:
                continue
            seen = {min(points)}
            todo = list(seen)
            while todo:
                w = todo.pop()
                for d in steps:
                    x = vec_add(w, d)
                    if x in points and x not in seen:
                        seen.add(x)
                        todo.append(x)
            assert seen == points, (g, deg)
            # several points below a degree that is not >= 0
            nontrivial += len(points) > 1 and min(deg) < 0
    assert nontrivial >= 80


def test_conjecture_walks_the_chains_once(monkeypatch):
    """One conjecture_check walks the chains of subsets of [n-1] once: the
    barycentric complex, whose labels it groups by class itself; sub_below
    cuts without walking.  betti_toppling walks them once too, for the
    barycentric chains whose rotations the class table reads."""
    g = prism()
    walk, cut = resolutions._chains, resolutions.sub_below
    walked, cutting = [], []

    def counting_walk(labels):
        assert not cutting
        walked.append(len(labels))
        return walk(labels)

    def flagged_cut(*args):
        cutting.append(True)
        try:
            return cut(*args)
        finally:
            cutting.pop()

    monkeypatch.setattr(resolutions, "_chains", counting_walk)
    monkeypatch.setattr(resolutions, "sub_below", flagged_cut)
    assert conjecture_check(g)["pass"]
    assert walked == [2 ** (g.n - 1)]
    walked.clear()
    betti_toppling(g)
    assert walked == [2 ** (g.n - 1)]


def test_conjecture_check_small_graphs():
    for g in (k4(), c4(), chain_graph()):
        for char in (0, 2):
            assert conjecture_check(g, char)["pass"]


def test_conjecture_check_aggregates_classes():
    rep = conjecture_check(chain_graph())
    # c^3, b^3, and a^2*b share one divisor class; the comparison groups them
    assert any(len(grp) > 1 for grp in rep["ambiguous_pairings"])


def test_conjecture_reports_a_mismatch(monkeypatch, capsys):
    """A toppling rank that is off by one in one dimension is listed as a
    mismatch and fails the comparison, and ``chipalg conjecture`` exits 2
    with ``betti_agreement`` failed.  The rank is raised at the degrees of
    the minimal generators, in dimension 0 of K^c, which the comparison
    sets against dimension -1 below the parking labels."""
    koszul = resolutions._koszul_ranks

    def off_by_one(points, c, memo, char):
        ranks = dict(koszul(points, c, memo, char))
        if ranks.get(0):
            ranks[0] += 1
        return ranks

    monkeypatch.setattr(resolutions, "_koszul_ranks", off_by_one)
    rep = conjecture_check(c4())
    assert not rep["pass"] and not rep["unmatched_orbits"]
    assert rep["mismatches"]
    assert all(m["dimension"] == -1 and m["toppling"] == m["parking"] + 1 for m in rep["mismatches"])
    assert all(m in rep["compared"] for m in rep["mismatches"])

    code = run(["conjecture", str(DATA / "c4.graph")])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 2 and "betti_agreement" in err
    (check,) = report["checks"]
    assert check["name"] == "betti_agreement" and not check["pass"]
    assert check["details"]["mismatches"] >= 1


def test_conjecture_reports_an_unmatched_orbit(monkeypatch, capsys):
    """The origin, the one class with no barycentric label, is checked on
    its own: homology of K^0 in dimension >= 0 is listed in
    ``unmatched_orbits`` and fails the comparison, with no mismatch, and
    ``chipalg conjecture`` exits 2 with ``betti_agreement`` failed."""
    g = c4()
    zero = (0,) * g.n
    koszul = resolutions._koszul_ranks

    def origin_with_homology(points, c, memo, char):
        ranks = koszul(points, c, memo, char)
        return {**ranks, 0: 1} if c == zero else ranks

    monkeypatch.setattr(resolutions, "_koszul_ranks", origin_with_homology)
    rep = conjecture_check(g)
    assert not rep["pass"] and not rep["mismatches"]
    assert rep["unmatched_orbits"] == [{"degree": zero, "homology": {"-1": 1, "0": 1}}]

    code = run(["conjecture", str(DATA / "c4.graph")])
    out, err = capsys.readouterr()
    assert code == 2 and "betti_agreement" in err
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "betti_agreement" and not check["pass"]
    assert check["details"]["mismatches"] == 0


def test_conjecture_needs_no_class_table(monkeypatch):
    """conjecture_check groups the barycentric labels by class itself and
    reads K^c at each class's least label, so it passes with the class
    table out of reach.  In characteristic 2^61 - 1 it compares the same
    ranks as in characteristic 0."""

    def no_table(*args):
        raise AssertionError("conjecture_check read the class table")

    monkeypatch.setattr(resolutions, "_class_table", no_table)
    for g in (k4(), c4(), chain_graph(), prism()):
        reports = [conjecture_check(g, char) for char in (0, 2, 2**61 - 1)]
        assert all(rep["pass"] for rep in reports)
        assert reports[2]["compared"] == reports[0]["compared"]
