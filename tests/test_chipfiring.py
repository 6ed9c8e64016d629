"""Toppling ideals, parking functions, lattice geometry, and divisor ranks."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from chipalg import chipfiring
from chipalg.chipfiring import (
    _reduced_laplacian_inverse,
    baker_norine_verify,
    canonical_divisor,
    divisor_rank,
    divisor_rank_oracle,
    flag_socles,
    groebner_certificate,
    lattice_points_in_box,
    lattice_socle_base,
    parking_ideal,
    q_reduced,
    toppling_generators,
)
from chipalg.exactla import solve_integer
from chipalg.monomials import MonomialIdeal, degree_plus, monomial_str, socle, vec_sub
from chipalg.multigraph import (
    Multigraph,
    Split,
    divisor_class_group,
    laplacian,
    tree_count,
)
from conftest import (
    acyclic_orientations_unique_sink,
    c4,
    chain_graph,
    flag_socle_oracle,
    k4,
    random_connected,
    random_saturated,
)

K4_BINOMIALS = {
    ("x1^3", "x2*x3*x4"),
    ("x2^3", "x1*x3*x4"),
    ("x3^3", "x1*x2*x4"),
    ("x1*x2*x3", "x4^3"),
    ("x1^2*x2^2", "x3^2*x4^2"),
    ("x1^2*x3^2", "x2^2*x4^2"),
    ("x2^2*x3^2", "x1^2*x4^2"),
}


def test_k4_toppling_generators(k4_graph):
    gens = toppling_generators(k4_graph)
    assert len(gens) == 7
    got = {(monomial_str(b.lead), monomial_str(b.trail)) for b in gens}
    assert got == K4_BINOMIALS


def test_split_binomial_is_laplacian_move():
    rng = random.Random(1)
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 5), max_mult=3)
        lam = laplacian(g)
        for b in toppling_generators(g):
            e_I = tuple(1 if i + 1 in b.split.I else 0 for i in range(g.n))
            assert vec_sub(b.lead, b.trail) == lam.mul_vec(e_I)
            assert b.lead[g.n - 1] == 0  # lead side avoids x_n


def test_parking_ideal_k4(k4_graph):
    M = parking_ideal(k4_graph)
    assert set(M.generators) == {
        (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2),
    }


def test_groebner_certificate_random():
    rng = random.Random(2)
    for _ in range(15):
        g = random_connected(rng, rng.randint(2, 5), max_mult=3)
        assert groebner_certificate(g, parking_ideal(g))["pass"]


def test_lattice_member():
    # v is in the Laplacian lattice iff Laplacian @ x = v has an integer solution
    g = k4()
    lam = laplacian(g)
    col = tuple(lam.at(i, 0) for i in range(4))
    witness = solve_integer(lam, col)
    assert witness is not None and lam.mul_vec(witness) == col
    assert solve_integer(lam, (1, 0, 0, -1)) is None


def test_flag_socles_k4(k4_graph):
    flags = flag_socles(k4_graph)
    assert len(flags) == 6
    assert flags == sorted(set(socle(parking_ideal(k4_graph))))


def test_flag_socles_match_nested_max_oracle():
    """The closed form per node equals the lcm over the flag's sets, on
    graphs with n = 1-7, saturated or not, multiplicities up to 3."""
    rng = random.Random(17)
    graphs = [Multigraph(1, ((0,),))]
    for n in range(2, 8):
        for max_mult in (1, 2, 3):
            graphs += [random_saturated(rng, n, max_mult), random_connected(rng, n, max_mult)]
    assert sum(not g.is_saturated() for g in graphs) >= 10
    for g in graphs:
        assert flag_socles(g) == sorted(set(flag_socle_oracle(g).values()))


def test_lattice_socle_base_c4():
    # Non-saturated case: the base comes from the parking socle, not flags.
    base = lattice_socle_base(c4())
    assert sorted(base) == [(0, 0, 1, -1), (0, 1, 0, -1), (1, 0, 0, -1)]


def _random_graphs(seed, count):
    """Seeded random multigraphs with n <= 6, saturated or not."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 6)
        if k % 3 == 0:
            yield random_saturated(rng, n, max_mult=2)
        else:
            yield random_connected(rng, n, max_mult=3)


def test_lattice_socle_base_matches_box_socle():
    for g in _random_graphs(11, 40):
        base = lattice_socle_base(g)
        assert base == [m + (-1,) for m in sorted(set(socle(parking_ideal(g))))]
        assert len(base) == acyclic_orientations_unique_sink(g, g.n)


def test_canonical_divisor(k4_graph, c4_graph):
    assert canonical_divisor(k4_graph) == (1, 1, 1, 1)
    assert canonical_divisor(c4_graph) == (0, 0, 0, 0)
    assert sum(canonical_divisor(k4_graph)) == 2 * k4_graph.genus - 2


def _fraction_inverse(g):
    """Exact inverse of the reduced Laplacian by Gauss-Jordan over Q."""
    m = g.n - 1
    lam = laplacian(g)
    a = [[Fraction(lam.at(i, j)) for j in range(m)] + [Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for k in range(m):
        piv = next(i for i in range(k, m) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(m):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[m:] for row in a]


def test_reduced_laplacian_adjugate_matches_fraction_inverse():
    rng = random.Random(14)
    for k in range(30):
        n = rng.randint(2, 6)
        g = random_saturated(rng, n) if k % 3 == 0 else random_connected(rng, n, max_mult=3)
        adj, det, _ = _reduced_laplacian_inverse(g)
        assert det == tree_count(g)
        inv = _fraction_inverse(g)
        assert [[Fraction(x, det) for x in row] for row in adj] == inv


def test_graph_caches_are_bounded():
    for cached in (divisor_class_group, _reduced_laplacian_inverse):
        assert cached.cache_info().maxsize is not None


def test_lattice_points_in_box_vs_bruteforce():
    rng = random.Random(3)
    graphs = [random_connected(rng, rng.randint(2, 4), max_mult=2) for _ in range(10)]
    graphs += [random_saturated(rng, rng.randint(3, 4), max_mult=3) for _ in range(4)]
    assert sum(tree_count(g) > 1 for g in graphs) >= 8
    for g in graphs:
        lam = laplacian(g)
        lo = tuple(rng.randint(-6, 0) for _ in range(g.n))
        hi = tuple(l + rng.randint(0, 5) for l in lo)
        got = set(lattice_points_in_box(g, lo, hi))
        # brute force (v_n = 0 normalization) over a window that holds every
        # v' = inverse @ w' with w' in the box
        inv = _fraction_inverse(g)
        reach = max(abs(x) for x in lo + hi) * max([sum(abs(c) for c in row) for row in inv] + [0])
        window = range(-int(reach) - 1, int(reach) + 2)
        expect = set()
        for v in product(window, repeat=g.n - 1):
            w = lam.mul_vec(v + (0,))
            if all(a <= x <= b for a, x, b in zip(lo, w, hi)):
                expect.add(w)
        assert got == expect


def test_lattice_points_in_box_rejects_wrong_length():
    g = k4()
    for lo, hi in [((0, 0, 0), (1, 1, 1, 1)), ((0, 0, 0, 0), (1, 1, 1, 1, 1))]:
        with pytest.raises(ValueError):
            lattice_points_in_box(g, lo, hi)


def test_q_reduced_properties():
    rng = random.Random(4)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 5), max_mult=3)
        d = tuple(rng.randint(-4, 6) for _ in range(g.n))
        r = q_reduced(g, d)
        # same divisor class and degree
        assert solve_integer(laplacian(g), vec_sub(d, r)) is not None
        # off-sink coordinates are non-negative and superstable:
        # no non-empty subset off the sink can fire without going negative
        assert all(x >= 0 for x in r[:-1])
        n = g.n
        for size in range(1, n):
            for S in _subsets(range(1, n), size):
                fired = list(r)
                for i in S:
                    fired[i - 1] -= sum(g.u(i, k) for k in range(1, n + 1) if k not in S)
                assert any(fired[i - 1] < 0 for i in S)


def test_q_reduced_is_superstable_and_equivalent():
    rng = random.Random(12)
    for g in _random_graphs(13, 40):
        d = tuple(rng.randint(-8, 8) for _ in range(g.n))
        red = q_reduced(g, d)
        assert all(x >= 0 for x in red[:-1])
        assert not parking_ideal(g).contains(red[:-1])
        assert solve_integer(laplacian(g), vec_sub(d, red)) is not None


def _subsets(items, size):
    from itertools import combinations

    return combinations(items, size)


def test_divisor_rank_matches_oracle():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected(rng, rng.randint(2, 4), max_mult=2)
        u = tuple(rng.randint(-2, 4) for _ in range(g.n))
        assert divisor_rank(g, u) == divisor_rank_oracle(g, u)


def _rank_by_rounds(g, u):
    """Oracle: the round-based socle search.  Every round enumerates each
    base socle element's whole box under the incumbent, until a round
    brings no improvement."""
    u = tuple(u)
    base = lattice_socle_base(g)
    best = min(degree_plus(vec_sub(u, c0)) for c0 in base)
    degu = sum(u)
    while True:
        bound_minus = best - (degu - g.genus + 1)
        improved = False
        for c0 in base:
            lo = tuple(ui - best - c0i for ui, c0i in zip(u, c0))
            hi = tuple(ui + bound_minus - c0i for ui, c0i in zip(u, c0))
            for w in lattice_points_in_box(g, lo, hi):
                val = degree_plus(vec_sub(u, tuple(a + b for a, b in zip(c0, w))))
                if val < best:
                    best = val
                    improved = True
        if not improved:
            return best - 1


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _rank_by_compositions(g, u):
    """Oracle: q-reduce u - e afresh for every effective e of degree
    r + 1, for r = 0, 1, ... up to deg(u)."""
    u = tuple(u)
    deg = sum(u)
    if deg < 0:
        return -1

    def eff(d):
        return q_reduced(g, d)[g.n - 1] >= 0

    if not eff(u):
        return -1
    r = 0
    while r < deg and all(eff(vec_sub(u, e)) for e in _compositions(r + 1, g.n)):
        r += 1
    return r


def _rank_cases(seed):
    """Seeded graphs with n = 2-6, saturated and not, multiplicity <= 3
    (at most 2 for n = 5 and 1 for n = 6, which keeps the compositions
    oracle fast), each with a negative divisor, divisors of degree near
    the genus, K, K - u and random degrees up to 2 * genus."""
    rng = random.Random(seed)
    for k in range(20):
        n = 2 + k % 5
        mult = {5: 2, 6: 1}.get(n, 3)
        if k % 2:
            g = random_saturated(rng, n, max_mult=mult)
        else:
            g = random_connected(rng, n, max_mult=mult)
        genus = g.genus
        K = canonical_divisor(g)

        def spread(deg):
            # a divisor of the given degree with entries of both signs
            d = [rng.randint(-2, 2) for _ in range(n)]
            d[rng.randrange(n)] += deg - sum(d)
            return tuple(d)

        near = [spread(genus + t) for t in (-1, 0, 1)]
        yield g, spread(-rng.randint(1, 3))
        for u in near:
            yield g, u
        yield g, K
        yield g, vec_sub(K, near[1])
        yield g, spread(rng.randint(0, 2 * genus))


def test_divisor_rank_matches_round_search(monkeypatch):
    # At budget 1 divisor_rank q-reduces x = u - c0, at incumbent 1 it
    # q-reduces -x, instead of walking the box; the round search walks it.
    cases = list(_rank_cases(21))
    assert {g.n for g, _ in cases} == {2, 3, 4, 5, 6}
    for g in dict.fromkeys(g for g, _ in cases):
        cases += [(g, (0,) * g.n), (g, canonical_divisor(g))]
    calls = []

    def counted(g, d):
        calls.append(d)
        return q_reduced(g, d)

    monkeypatch.setattr(chipfiring, "q_reduced", counted)
    budget_one = incumbent_one = 0
    for g, u in cases:
        calls.clear()
        assert divisor_rank(g, u) == _rank_by_rounds(g, u), (g, u)
        # budget 1 needs deg(x) >= 0; incumbent 1 with budget > 1 has deg(x) < 0
        degx = sum(u) - g.genus + 1
        xs = [vec_sub(u, c0) for c0 in lattice_socle_base(g)]
        expect = xs if degx >= 0 else [tuple(-xi for xi in x) for x in xs]
        assert all(d in expect for d in calls), (g, u)
        if calls:
            budget_one += degx >= 0
            incumbent_one += degx < 0
    assert budget_one and incumbent_one


def test_divisor_rank_of_k_and_0_walks_no_box(monkeypatch):
    # On a saturated graph some base element starts K at budget 1 and 0 at
    # incumbent 1, so neither rank walks a lattice box.
    g = random_saturated(random.Random(8), 6)
    assert g.genus >= 15

    def no_box(*args):
        raise AssertionError("lattice box walked")

    monkeypatch.setattr(chipfiring, "lattice_points_in_box", no_box)
    assert divisor_rank(g, canonical_divisor(g)) == g.genus - 1
    assert divisor_rank(g, (0,) * 6) == 0


def test_divisor_rank_oracle_matches_compositions():
    ranks = set()
    for g, u in _rank_cases(21):
        r = divisor_rank_oracle(g, u)
        assert r == _rank_by_compositions(g, u), (g, u)
        ranks.add(r)
    assert -1 in ranks and max(ranks) >= 5


def test_divisor_rank_with_spread_entries():
    # min degree_plus(u - c0) over the base is far from the rank here, so
    # the first boxes are large
    rng = random.Random(31)
    for _ in range(8):
        g = random_saturated(rng, 6, max_mult=2)
        u = tuple(rng.randint(-15, 15) for _ in range(6))
        assert divisor_rank(g, u) == divisor_rank_oracle(g, u), (g, u)


def test_divisor_rank_oracle_needs_no_recursion():
    # the walk reaches depth deg(u): 300 here
    g = Multigraph.from_edges(2, {(1, 2): 1})
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert divisor_rank_oracle(g, (300, 0)) == 300
    finally:
        sys.setrecursionlimit(limit)


def test_divisor_rank_is_class_invariant():
    rng = random.Random(6)
    g = chain_graph()
    lam = laplacian(g)
    u = (2, 1, 0, -1)
    r = divisor_rank(g, u)
    for _ in range(5):
        v = tuple(rng.randint(-2, 2) for _ in range(g.n))
        shift = lam.mul_vec(v)
        assert divisor_rank(g, tuple(a + b for a, b in zip(u, shift))) == r


def test_divisor_rank_negative_degree():
    g = c4()
    assert divisor_rank(g, (-1, 0, 0, 0)) == -1
    assert divisor_rank_oracle(g, (-1, 0, 0, 0)) == -1


def test_baker_norine_k4(k4_graph):
    for u in [(0, 0, 0, 0), (2, 1, 0, 0), (-1, 3, 0, 1), (1, 1, 1, 1)]:
        assert baker_norine_verify(k4_graph, u)["pass"]


def test_divisor_rank_validates_length():
    with pytest.raises(ValueError):
        divisor_rank(k4(), (1, 2, 3))


def test_q_reduced_rejects_wrong_length():
    triangle = Multigraph.from_edges(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
    assert q_reduced(triangle, (1, -2, 3)) == (0, 0, 2)
    for d in [(1, -2), (1, -2, 3, 7)]:
        with pytest.raises(ValueError):
            q_reduced(triangle, d)
