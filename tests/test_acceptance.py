"""End-to-end acceptance suite.

Ten criteria covering the named example graphs, randomized oracle
equivalence, the Hilbert identity, resolution validity, and the graded
Betti comparison sweep.  Each test prints one PASS/FAIL line.
"""

import random
from itertools import product
from math import factorial

from chipalg.chipfiring import (
    baker_norine_verify,
    divisor_rank,
    divisor_rank_oracle,
    flag_socles,
    groebner_certificate,
    parking_ideal,
    toppling_generators,
)
from chipalg.hilbert import hilbert_identity_check, hilbert_numerator
from chipalg.monomials import (
    MonomialIdeal,
    intersect_irreducible,
    monomial_str,
    socle,
    standard_monomials,
    vec_sub,
)
from chipalg.multigraph import connected_splits, tree_count
from chipalg.resolutions import (
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
from chipalg.riemann_roch import (
    mono_rank,
    mono_rank_bruteforce,
    rr_profile,
    rr_verify,
)
from conftest import (
    acyclic_orientations_unique_sink,
    alexander_dual_box_generators,
    all_connected_graphs,
    apartment_slices,
    bary_vertex_labels,
    c4,
    chain_graph,
    cyc_complex,
    cycle_family,
    face_counts,
    face_label,
    flag_socle_oracle,
    k4,
    minimality_check,
    prism,
    random_connected,
    random_saturated,
    scarf_complex_parking,
)


def _report(num, title, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {title}")
    assert ok, f"criterion {num}: {title}"


def _stirling2(n, k):
    if k == 0:
        return int(n == 0)
    if n == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_criterion_1_k4_fixtures():
    g = k4()
    ok = True
    gens = {(monomial_str(b.lead), monomial_str(b.trail)) for b in toppling_generators(g)}
    ok &= gens == {
        ("x1^3", "x2*x3*x4"),
        ("x2^3", "x1*x3*x4"),
        ("x3^3", "x1*x2*x4"),
        ("x1*x2*x3", "x4^3"),
        ("x1^2*x2^2", "x3^2*x4^2"),
        ("x1^2*x3^2", "x2^2*x4^2"),
        ("x2^2*x3^2", "x1^2*x4^2"),
    }
    M = parking_ideal(g)
    ok &= set(M.generators) == {
        (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2),
    }
    ok &= len(standard_monomials(M)) == 16 == tree_count(g)
    ok &= set(socle(M)) == {
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    }
    ok &= betti_parking(g)["total"] == (1, 7, 12, 6)
    ok &= betti_toppling(g)["total"] == (1, 7, 12, 6)
    counts = tuple(
        factorial(k - 1) * _stirling2(4, k) for k in range(1, 5)
    )
    ok &= counts == (1, 7, 12, 6)
    ok &= tuple(len(cyc_partitions(4, k)) for k in range(1, 5)) == counts
    _report(1, "complete-graph fixtures (generators, socle, Betti numbers)", ok)


def test_criterion_2_staircase_riemann_roch():
    M = MonomialIdeal.from_generators(2, [(9, 0), (6, 4), (5, 7), (2, 8), (0, 11)])
    prof = rr_profile(M)
    ok = prof.level and prof.genus == 12
    ok &= prof.canonical == (9, 13)
    ok &= set(prof.socle) == {(8, 3), (5, 6), (4, 7), (1, 10)}
    # box-dual identity: the dual at the canonical corner is the socle ideal
    ok &= set(alexander_dual_box_generators(M, (9, 13))) == set(prof.socle)
    # duality identity on the whole box
    for b in product(range(-3, 13), range(-3, 17)):
        rep = rr_verify(prof, (9, 13), b)
        ok &= rep["pass"]
        if not ok:
            break
    _report(2, "two-variable staircase ideal satisfies exact duality on the box", ok)


def test_criterion_3_saturated_parking_ideals_are_riemann_roch():
    rng = random.Random(303)
    ok = True
    for _ in range(20):
        n = rng.randint(2, 5)
        g = random_saturated(rng, n, max_mult=3)
        M = parking_ideal(g)
        prof = rr_profile(M)
        ok &= M.is_artinian() and prof.level
        ok &= prof.genus == g.num_edges - n + 2
        K = tuple(g.degree(i) + g.mult[i - 1][n - 1] - 2 for i in range(1, n))
        ok &= prof.reflection_invariant and K in prof.canonical_candidates
        # reversing a flag complements its socle monomial relative to K
        flags = flag_socle_oracle(g)
        for perm, mono in flags.items():
            ok &= flags[tuple(reversed(perm))] == vec_sub(K, mono)
        ok &= flag_socles(g) == sorted(set(flags.values()))
        if not ok:
            break
    _report(3, "random saturated graphs: level, genus, canonical, flag reversal", ok)


def test_criterion_4_prism():
    g = prism()
    ok = len(connected_splits(g)) == 22
    expect = (1, 22, 92, 147, 102, 26)
    ok &= betti_parking(g)["total"] == expect
    ok &= betti_toppling(g)["total"] == expect
    ok &= expect[-1] == acyclic_orientations_unique_sink(g, 6) == 26
    _report(4, "prism graph: 22 splits, Betti numbers, top Betti = orientations", ok)


def test_criterion_5_chain_graph_slices():
    g = chain_graph()
    gens = {(monomial_str(b.lead), monomial_str(b.trail)) for b in toppling_generators(g)}
    ok = gens == {("x1^2", "x2^2"), ("x2", "x3"), ("x3^3", "x4^3")}
    ok &= set(parking_ideal(g).generators) == {(2, 0, 0), (0, 1, 0), (0, 0, 3)}
    deg = (2, 0, 3, 0)
    bary = sub_below(bary_complex(g), deg)
    ok &= len(bary.faces) == 2 and all(len(f) == 1 for f in bary.faces)
    ok &= {face_label(bary_vertex_labels(g), f) for f in bary.faces} == {(2, 0, 0, 0), (0, 0, 3, 0)}
    ok &= homology_ranks(bary)[0] == 1
    labels, (apt,) = apartment_slices(g, [deg])
    ok &= face_counts(apt) == (16, 28, 12)
    hr = homology_ranks(apt)
    ok &= hr.get(1) == 1 and hr.get(0) == 0
    (points,) = apt_region(g, [deg])
    ok &= len(points) == 16 and set(points) == {
        (0, 0, 0, 0), (0, -1, 1, 0), (0, -2, 2, 0), (0, -3, 3, 0),
        (-2, 0, 2, 0), (-2, -1, 3, 0), (0, 0, 3, -3), (2, 0, 1, -3),
        (2, 0, -2, 0), (2, -1, 2, -3), (2, -1, -1, 0), (2, -2, 3, -3),
        (2, -2, 0, 0), (2, -3, 1, 0), (2, -4, 2, 0), (2, -5, 3, 0),
    }
    ok &= set(labels) == set(points)
    # the upper Koszul complex K^(2,0,3,0) has the slice's H_1
    kz = _koszul_ranks(points, deg, {}, 0)
    ok &= kz.get(1) == 1 and not any(r for i, r in kz.items() if i != 1)
    _report(5, "chain graph: syzygy degree slice on both sides, 16 labels", ok)


def test_criterion_6_cycle_family():
    ok = True
    for delta, eps in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        g = cycle_family(delta, eps)
        M = parking_ideal(g)
        prof = rr_profile(M)
        ok &= prof.level and prof.genus == 4 * delta + 2 * eps - 2
        K = (3 * delta + eps - 2, 2 * delta + 2 * eps - 2, 3 * delta + eps - 2)
        if g.is_saturated():
            ok &= prof.reflection_invariant and K in prof.canonical_candidates
            d, e = delta, eps
            expect = {
                (d - 1, d + e - 1, 2 * d + e - 1),
                (d - 1, 2 * d + e - 1, d + e - 1),
                (d + e - 1, 2 * d + e - 1, d - 1),
                (2 * d + e - 1, d + e - 1, d - 1),
                (2 * d + e - 1, e - 1, 2 * d - 1),
                (2 * d - 1, e - 1, 2 * d + e - 1),
            }
            ok &= set(prof.socle) == expect
    g = cycle_family(1, 0)
    M = parking_ideal(g)
    square = intersect_irreducible(
        [(2, 1, 1), (1, 2, 1), (1, 1, 2)], 3
    )
    ok &= M == MonomialIdeal.from_generators(
        3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    ) == square
    prof = rr_profile(M)
    ok &= set(prof.socle) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    ok &= not prof.reflection_invariant
    _report(6, "four-cycle family: genus, canonical, socle display, degeneration", ok)


def test_criterion_7_oracle_equivalence():
    rng = random.Random(707)
    ok = True
    # monomial ranks: formula vs direct search
    done = 0
    while done < 200:
        m = rng.randint(1, 3)
        comps = [
            tuple(rng.randint(1, 4) for _ in range(m))
            for _ in range(rng.randint(1, 4))
        ]
        M = intersect_irreducible(comps, m)
        b = tuple(rng.randint(0, 6) for _ in range(m))
        ok &= mono_rank(M, b) == mono_rank_bruteforce(M, b).rank
        done += 1
        if not ok:
            break
    # divisor ranks: socle formula vs effective-divisor search, plus duality
    done = 0
    while ok and done < 100:
        g = random_connected(rng, rng.randint(2, 5), max_mult=2)
        u = tuple(rng.randint(-2, 3) for _ in range(g.n))
        if not -3 <= sum(u) <= 8:
            continue
        ok &= divisor_rank(g, u) == divisor_rank_oracle(g, u)
        ok &= baker_norine_verify(g, u)["pass"]
        done += 1
    _report(7, "rank oracles agree (200 monomial + 100 divisor cases) with duality", ok)


def test_criterion_8_hilbert_identity():
    g = k4()
    ok = hilbert_identity_check(g, hilbert_numerator(g))["pass"]
    rng = random.Random(808)
    for _ in range(10):
        g = random_saturated(rng, rng.randint(2, 5), max_mult=3)
        ok &= hilbert_identity_check(g, hilbert_numerator(g))["pass"]
        if not ok:
            break
    _report(8, "graded Hilbert numerator identity, exact", ok)


def test_criterion_9_complex_validity():
    rng = random.Random(909)
    suite = [k4(), c4(), prism(), chain_graph()]
    suite += [cycle_family(d, e) for d, e in [(1, 1), (2, 1), (2, 2)]]
    suite += [random_connected(rng, rng.randint(2, 5)) for _ in range(5)]
    ok = True
    for g in suite:
        c = cyc_complex(g)
        ok &= c.d_squared_is_zero()
        ok &= scarf_complex_parking(g).d_squared_is_zero()
        if g.is_saturated():
            ok &= minimality_check(c)
        if not ok:
            break
    # homology Betti numbers equal partition counts for saturated graphs
    for n in (2, 3, 4, 5):
        g = random_saturated(rng, n, max_mult=2)
        counts = tuple(
            factorial(k - 1) * _stirling2(n, k) for k in range(1, n + 1)
        )
        ok &= betti_parking(g)["total"] == counts
        ok &= betti_toppling(g)["total"] == counts
        if not ok:
            break
    _report(9, "boundary squares to zero, minimality, partition-count Betti", ok)


def test_criterion_10_betti_comparison_sweep():
    ok = True
    checked = 0
    for g in all_connected_graphs(4, 2):
        for char in (0, 2):
            rep = conjecture_check(g, char)
            ok &= rep["pass"]
        checked += 1
        if not ok:
            break
    for n in (2, 3):
        for g in all_connected_graphs(n, 2):
            for char in (0, 2):
                ok &= conjecture_check(g, char)["pass"]
            checked += 1
            if not ok:
                break
    _report(
        10,
        f"graded Betti agreement for all {checked} small connected graphs, chars 0 and 2",
        ok,
    )
