"""Cellular resolutions: cyclic-partition complexes, barycentric and
apartment subcomplexes, homology, and graded Betti numbers."""

import random
from functools import reduce
from itertools import combinations
from math import factorial

import pytest

from chipalg.chipfiring import connected_flags, lattice_points_in_box, lattice_socle_base
from chipalg.exactla import solve_integer
from chipalg.monomials import divides, lcm_exp, vec_add
from chipalg.multigraph import laplacian
from chipalg.resolutions import (
    LabeledComplex,
    OrderedPartition,
    _cliques,
    _subset_images,
    _zero_incident_labels,
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
    acyclic_orientations_unique_sink,
    c4,
    chain_graph,
    cyc_complex,
    face_counts,
    face_label,
    k4,
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
    from chipalg.multigraph import divisor_class_group

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
    assert len(bary.vertex_labels) == 2 ** 3 - 1
    # barycentric subdivision of the 2-simplex: 7 vertices, 12 edges, 6 triangles
    assert face_counts(bary) == (7, 12, 6)


def _rp2() -> LabeledComplex:
    """Minimal 6-vertex triangulation of RP^2, vertex i labeled (i,)."""
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
    return LabeledComplex(tuple((i,) for i in range(6)), tuple(sorted(faces)))


def _octahedron(rng) -> LabeledComplex:
    """Boundary of the octahedron, a flag complex that is no barycentric
    subdivision: vertices 2i and 2i + 1 are opposite, every other pair is
    an edge, and every triple of pairwise neighbours a triangle.  Labels
    are random exponent vectors over 3 variables."""
    faces = [f for k in (1, 2, 3) for f in combinations(range(6), k)
             if len({v // 2 for v in f}) == k]
    labels = tuple(tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(6))
    return LabeledComplex(labels, tuple(sorted(faces)))


def _scan_below(labeled, deg):
    """Reference for sub_below: filter every face by its label, given as
    a sorted list of (face, label) pairs."""
    deg = tuple(deg)
    return tuple(f for f, lab in labeled if lab != deg and divides(lab, deg))


def test_sub_below_matches_full_scan():
    rng = random.Random(23)
    octahedron = _octahedron(rng)
    degrees = sorted({face_label(octahedron, f) for f in octahedron.faces})
    cases = [(octahedron, degrees + [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(10)])]
    for n, saturated in ((3, False), (3, True), (4, False), (4, True), (5, False), (5, True), (6, False)):
        g = random_saturated(rng, n) if saturated else random_connected(rng, n, max_mult=3)
        bary = bary_complex(g)
        degrees = sorted({face_label(bary, f) for f in bary.faces})
        top = [max(c[i] for c in degrees) for i in range(n)]
        degrees += [tuple(rng.randint(0, t + 1) for t in top) for _ in range(10)]
        degrees.append((0,) * n)  # no vertex label divides it
        cases.append((bary, degrees))
    for c, degrees in cases:
        labeled = [(f, face_label(c, f)) for f in sorted(c.faces)]
        for deg in degrees:
            got = sub_below(c, deg)
            assert got.faces == _scan_below(labeled, deg)
            assert got.vertex_labels == c.vertex_labels
    assert sub_below(cases[1][0], cases[1][1][-1]).faces == ()


def test_cliques_match_brute_force():
    """The walk yields every clique within the roots whose label is not the
    cut, each with its lcm label, in lexicographic order; the uncut walk
    yields every non-empty clique."""
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
            got = list(_cliques(nbrs, labels, roots, cut))
            assert got == want
            walked += len(got)
    assert walked > 500


def test_homology_of_simple_complexes():
    # two isolated points: H~_0 has rank 1
    two_pts = LabeledComplex(((1, 0), (0, 1)), ((0,), (1,)))
    assert homology_ranks(two_pts) == {-1: 0, 0: 1}
    # empty complex: H~_(-1) has rank 1
    assert homology_ranks(LabeledComplex((), ())) == {-1: 1}
    # hollow triangle: circle
    tri = LabeledComplex(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)),
    )
    assert homology_ranks(tri) == {-1: 0, 0: 0, 1: 1}
    # filled triangle: contractible
    filled = LabeledComplex(
        tri.vertex_labels, tri.faces + ((0, 1, 2),)
    )
    assert homology_ranks(filled) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_homology_rejects_non_prime_char():
    two_pts = LabeledComplex(((1, 0), (0, 1)), ((0,), (1,)))
    for char in (1, 4, -2):
        with pytest.raises(ValueError, match="characteristic"):
            homology_ranks(two_pts, char)


def test_projective_plane_homology_depends_on_char():
    """Minimal 6-vertex triangulation of RP^2: torsion visible only mod 2."""
    c = _rp2()
    assert homology_ranks(c, 0) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert homology_ranks(c, 2) == {-1: 0, 0: 0, 1: 1, 2: 1}


def test_betti_tables_k4(k4_graph):
    assert betti_parking(k4_graph)["total"] == (1, 7, 12, 6)
    assert betti_toppling(k4_graph)["total"] == (1, 7, 12, 6)


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
    barycentric subcomplexes and of the apartment slices."""
    bary = bary_complex(g)
    degrees = sorted({face_label(bary, f) for f in bary.faces})
    below = ((c, homology_ranks(sub_below(bary, c), char)) for c in degrees)
    parking = _betti_table(g.n, below, 2, [((0,) * g.n, 0, 1)])
    images = _subset_images(g)
    labels = sorted(_zero_incident_labels(g, images).values())
    slices = apt_region(g, labels, images)
    slices = ((c, homology_ranks(region, char)) for c, region in zip(labels, slices))
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
        assert top == lattice_socle_base(g)
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
    labels = {face_label(bary, f) for f in verts}
    assert labels == {(2, 0, 0, 0), (0, 0, 3, 0)}  # a^2 and c^3
    assert homology_ranks(bary)[0] == 1


def test_chain_graph_apartment_slice():
    g = chain_graph()
    apt = next(apt_region(g, [(2, 0, 3, 0)], _subset_images(g)))
    assert face_counts(apt) == (16, 28, 12)
    hr = homology_ranks(apt)
    assert hr[0] == 0 and hr[1] == 1  # homology of a circle
    expected_labels = {
        (0, 0, 0, 0), (0, -1, 1, 0), (0, -2, 2, 0), (0, -3, 3, 0),
        (-2, 0, 2, 0), (-2, -1, 3, 0), (0, 0, 3, -3), (2, 0, 1, -3),
        (2, 0, -2, 0), (2, -1, 2, -3), (2, -1, -1, 0), (2, -2, 3, -3),
        (2, -2, 0, 0), (2, -3, 1, 0), (2, -4, 2, 0), (2, -5, 3, 0),
    }
    assert set(apt.vertex_labels) == expected_labels


def _apt_region_own_box(g, deg) -> LabeledComplex:
    """Reference for the apartment slice below deg: the lattice points w of
    its own box [deg - sum(deg), deg], sorted by label, and every clique of
    pairwise tropical distance <= 1 whose lcm label properly divides x^deg,
    in lexicographic pre-order.  Distances are taken between the classes v
    with L v = w, solved for over the integers and normalized to v_n = 0."""
    deg = tuple(deg)
    total = sum(deg)
    if total < 0:
        return LabeledComplex((), ())
    labels = tuple(sorted(lattice_points_in_box(g, tuple(d - total for d in deg), deg)))
    lam = laplacian(g)
    vs = []
    for w in labels:
        v = solve_integer(lam, w)
        vs.append(tuple(x - v[-1] for x in v))

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
    return LabeledComplex(labels, tuple(faces))


def test_apartment_slices_match_own_boxes():
    """Every slice that apt_region cuts from the one box over the join of
    the zero-incident labels equals the slice from the label's own box,
    vertices and faces in the same order; so does the one slice of a degree
    that is not a label."""
    rng = random.Random(24)
    graphs = [k4(), c4(), chain_graph()]
    for n in range(1, 7):
        for max_mult in (1, 2, 3) if n < 6 else (1,):
            graphs.append(random_connected(rng, n, max_mult))
            graphs.append(random_saturated(rng, n, max_mult))
    nonempty = 0
    for g in graphs:
        images = _subset_images(g)
        labels = sorted(_zero_incident_labels(g, images).values())
        for c, got in zip(labels, apt_region(g, labels, images), strict=True):
            want = _apt_region_own_box(g, c)
            assert got.vertex_labels == want.vertex_labels
            assert got.faces == want.faces
            nonempty += bool(got.faces)
        if g.n < 6:
            top = tuple(map(max, zip(*labels)))
            for _ in range(5):
                deg = tuple(rng.randint(-2, t + 1) for t in top)
                (got,) = apt_region(g, [deg], images)
                assert got == _apt_region_own_box(g, deg)
    assert nonempty > 1000


def test_conjecture_check_small_graphs():
    for g in (k4(), c4(), chain_graph()):
        for char in (0, 2):
            assert conjecture_check(g, char)["pass"]


def test_conjecture_check_aggregates_classes():
    rep = conjecture_check(chain_graph())
    # c^3, b^3, and a^2*b share one divisor class; the comparison groups them
    assert any(len(grp) > 1 for grp in rep["ambiguous_pairings"])
