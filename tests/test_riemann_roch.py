"""Riemann-Roch theory for artinian monomial ideals."""

import random
from collections import Counter
from itertools import combinations, product

import pytest

from chipalg.chipfiring import parking_ideal
from chipalg.monomials import MonomialIdeal, degree, divides, intersect_irreducible, socle, vec_add, vec_sub
from chipalg.multigraph import Multigraph
from chipalg.riemann_roch import (
    construct_rr_ideal,
    mono_rank,
    mono_rank_bruteforce,
    rr_profile,
    rr_verify,
)
from conftest import mono_rank_box_oracle

K4_PARKING = MonomialIdeal.from_generators(
    3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2)]
)

STAIRCASE = MonomialIdeal.from_generators(
    2, [(9, 0), (6, 4), (5, 7), (2, 8), (0, 11)]
)


def rr_inequalities(M, K, b) -> bool:
    """genus_min - 1 <= degree(b) - rank(x^b) + rank(x^K/x^b) <= genus_max - 1,
    for an ideal that is reflection invariant with canonical monomial x^K."""
    prof = rr_profile(M)
    assert tuple(K) in prof.canonical_candidates
    mid = degree(b) - mono_rank(M, b) + mono_rank(M, vec_sub(K, b))
    return prof.genus_min - 1 <= mid <= prof.genus_max - 1


def clifford_check(M, K, b):
    """Clifford's bound 2 rank(x^b) <= degree(b) - 1, or None where it does
    not apply: unless b divides K and x^b and x^K/x^b have non-negative rank."""
    if not divides(b, K) or any(e < 0 for e in b):
        return None
    rb = mono_rank(M, b)
    if rb < 0 or mono_rank(M, vec_sub(K, b)) < 0:
        return None
    return 2 * rb <= degree(b) - 1


def superadditivity_check(M, a, b) -> bool:
    """rank(x^a x^b) >= rank(x^a) + rank(x^b)."""
    return mono_rank(M, vec_add(a, b)) >= mono_rank(M, a) + mono_rank(M, b)


def test_staircase_profile():
    prof = rr_profile(STAIRCASE)
    assert set(prof.socle) == {(8, 3), (5, 6), (4, 7), (1, 10)}
    assert prof.level and prof.genus == 12
    assert prof.reflection_invariant
    assert prof.canonical == (9, 13)
    assert degree(prof.canonical) == 2 * prof.genus - 2


def test_k4_profile():
    prof = rr_profile(K4_PARKING)
    assert prof.level and prof.genus == 4
    assert prof.canonical == (2, 2, 2)
    assert len(prof.socle) == 6


def _pair_sum_canonicals(M):
    """Every valid K, searched over all pair sums of socle monomials."""
    soc = socle(M)
    sums = sorted({vec_add(c, d) for c in soc for d in soc})
    return tuple(
        K for K in sums
        if all(all(e >= 0 for e in vec_sub(K, c)) and vec_sub(K, c) in soc for c in soc)
    )


def _random_seeded_ideal(rng):
    """A random artinian ideal in 1-3 variables: pure powers plus a few
    mixed generators, so most are not level."""
    m = rng.randint(1, 3)
    gens = [tuple(rng.randint(1, 5) if k == i else 0 for k in range(m)) for i in range(m)]
    gens += [tuple(rng.randint(0, 4) for _ in range(m)) for _ in range(rng.randint(0, 5))]
    return MonomialIdeal.from_generators(m, [g for g in gens if any(g)])


def test_canonical_search_matches_pair_sums():
    # non-level but reflection invariant: socle {x, y^2}, K = x y^2
    ideals = [STAIRCASE, K4_PARKING, MonomialIdeal.from_generators(2, [(2, 0), (1, 1), (0, 3)])]
    rng = random.Random(31)
    ideals += [_random_seeded_ideal(rng) for _ in range(150)]
    for K in ((2, 2, 2), (4, 2), (2, 4, 2)):
        half = degree(K) // 2
        seeds = [
            s for s in product(*(range(e + 1) for e in K)) if degree(s) == half
        ]
        for _ in range(4):
            ideals.append(construct_rr_ideal(K, rng.sample(seeds, rng.randint(1, 3))).ideal)
    kinds = set()
    for M in ideals:
        prof = rr_profile(M)
        assert prof.canonical_candidates == _pair_sum_canonicals(M)
        kinds.add((prof.level, prof.reflection_invariant))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_rank_definitions_agree_randomized():
    rng = random.Random(7)
    count = 0
    while count < 60:
        m = rng.randint(1, 3)
        comps = [
            tuple(rng.randint(1, 4) for _ in range(m))
            for _ in range(rng.randint(1, 4))
        ]
        from chipalg.monomials import intersect_irreducible

        M = intersect_irreducible(comps, m)
        b = tuple(rng.randint(0, 6) for _ in range(m))
        w = mono_rank_bruteforce(M, b)
        assert mono_rank(M, b) == w.rank
        # the witness is genuine: x^(b-a) outside M at minimal degree
        assert not M.contains(vec_sub(b, w.witness))
        count += 1


def _random_artinian(rng, m):
    """An artinian ideal in m variables: either a pure power of each
    variable plus up to four random generators, or an intersection of up to
    five irreducible ideals (whose socles tie more often)."""
    if rng.random() < 0.5:
        comps = [tuple(rng.randint(1, 4) for _ in range(m)) for _ in range(rng.randint(1, 5))]
        return intersect_irreducible(comps, m)
    gens = [tuple(rng.randint(1, 5) if k == i else 0 for k in range(m)) for i in range(m)]
    gens += [tuple(rng.randint(0, 4) for _ in range(m)) for _ in range(rng.randint(0, 4))]
    return MonomialIdeal.from_generators(m, [g for g in gens if any(g)])


def test_rank_search_matches_box_oracle():
    """The search by degree finds the rank and the (degree, lex) witness of
    the whole-box scan, on exponents with zero entries, ties within the
    witness's degree included."""
    rng = random.Random(27)
    ranks, ties = set(), 0
    for _ in range(400):
        m = rng.randint(1, 4)
        M = _random_artinian(rng, m)
        b = [rng.randint(0, 6) for _ in range(m)]
        b[rng.randrange(m)] = 0
        w = mono_rank_bruteforce(M, b)
        assert w == mono_rank_box_oracle(M, b)
        assert w.rank == mono_rank(M, b)
        ranks.add(w.rank)
        box = product(*(range(e + 1) for e in b))
        ties += sum(sum(a) == w.rank + 1 and not M.contains(vec_sub(b, a)) for a in box) > 1
    assert {-1, 0, 1, 2, 3} <= ranks and ties >= 5


def _saturated_of_genus(rng, n, genus):
    """Complete multigraph of the given genus, as the benchmark catalogues
    draw it: one edge on every pair, and each remaining edge on a uniformly
    drawn pair."""
    pairs = list(combinations(range(1, n + 1), 2))
    mults = [1] * len(pairs)
    for _ in range(genus + n - 1 - len(pairs)):
        mults[rng.randrange(len(pairs))] += 1
    return Multigraph.from_edges(n, dict(zip(pairs, mults)))


def test_rank_search_tests_only_low_degrees():
    """Membership tests stop at degree rank + 1: on the 7-node saturated
    parking ideal with b = (5,)*6 the search makes fewer than 17,000 of the
    46,656 tests a box scan makes."""
    calls = []

    class Counting(MonomialIdeal):
        def contains(self, b):
            calls.append(b)
            return super().contains(b)

    P = parking_ideal(_saturated_of_genus(random.Random(5), 7, 17))
    M = Counting(P.vars, P.generators)
    b = (5,) * 6
    w = mono_rank_bruteforce(M, b)
    assert w.rank == mono_rank(P, b) == 12
    below = Counter(sum(a) for a in product(range(6), repeat=6))
    # every a of degree <= rank is tested, and none of degree > rank + 1
    assert sum(below[k] for k in range(w.rank + 1)) < len(calls)
    assert len(calls) <= sum(below[k] for k in range(w.rank + 2)) == 16941
    assert len(set(calls)) == len(calls)


def test_rank_sign_convention():
    assert mono_rank(K4_PARKING, (0, 0, 0)) == -1  # standard monomial
    assert mono_rank(K4_PARKING, (3, 0, 0)) == 0  # generator sits on the border
    assert mono_rank(K4_PARKING, (2, 2, 2)) == 2  # canonical: genus - 2


def test_rank_rejects_wrong_length():
    # one exponent per variable: no entry is dropped or padded
    for b in [(2, 2), (2, 2, 2, 5), (-1, 2)]:
        for rank in (mono_rank, mono_rank_bruteforce):
            with pytest.raises(ValueError, match="length must equal the variable count"):
                rank(K4_PARKING, b)


def test_rr_verify_staircase():
    prof = rr_profile(STAIRCASE)
    for b in [(0, 0), (5, 5), (-2, 7), (12, 16), (9, 13)]:
        assert rr_verify(prof, (9, 13), b)["pass"]


def test_rr_verify_rejects_bad_preconditions():
    not_artinian = MonomialIdeal.from_generators(2, [(1, 1)])
    with pytest.raises(ValueError, match="artinian"):  # it has no profile
        rr_verify(rr_profile(not_artinian), (0, 0), (0, 0))
    c4_parking = MonomialIdeal.from_generators(
        3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    )
    with pytest.raises(ValueError, match="reflection"):
        rr_verify(rr_profile(c4_parking), (1, 1, 1), (0, 0, 0))


def test_rr_inequalities_collapse_for_level():
    # for a level reflection-invariant ideal the two-sided bound is tight
    prof = construct_rr_ideal((2, 2), [(2, 0), (1, 1)])
    M = prof.ideal
    assert prof.level and prof.genus_min == prof.genus_max
    rng = random.Random(8)
    for _ in range(10):
        b = (rng.randint(-3, 5), rng.randint(-3, 5))
        assert rr_inequalities(M, (2, 2), b)


def test_clifford_staircase():
    applied = 0
    # generators whose complement relative to K is also in the ideal
    for b in [(9, 0), (6, 4), (2, 8), (0, 11), (8, 3), (0, 0)]:
        holds = clifford_check(STAIRCASE, (9, 13), b)
        if holds is not None:
            assert holds
            applied += 1
    assert applied >= 4


def test_superadditivity():
    rng = random.Random(9)
    for _ in range(20):
        a = tuple(rng.randint(0, 5) for _ in range(3))
        b = tuple(rng.randint(0, 5) for _ in range(3))
        if mono_rank(K4_PARKING, a) < 0 or mono_rank(K4_PARKING, b) < 0:
            continue
        assert superadditivity_check(K4_PARKING, a, b)


def test_construct_rr_ideal_k4_seeds():
    prof = construct_rr_ideal((2, 2, 2), [(2, 1, 0), (2, 0, 1), (1, 2, 0)])
    assert prof.ideal == K4_PARKING and prof == rr_profile(K4_PARKING)


def test_construct_rr_ideal_validates():
    with pytest.raises(ValueError):
        construct_rr_ideal((2, 2, 1), [(2, 0, 0)])  # odd canonical degree
    with pytest.raises(ValueError):
        construct_rr_ideal((2, 2, 2), [(3, 0, 0)])  # seed does not divide K
    with pytest.raises(ValueError):
        construct_rr_ideal((2, 2, 2), [(1, 1, 1), (2, 0, 0)])  # wrong seed degree


def test_construct_rr_ideal_random_roundtrip():
    rng = random.Random(10)
    for _ in range(15):
        m = rng.randint(2, 3)
        K = tuple(2 * rng.randint(1, 2) for _ in range(m))
        while degree(K) % 2:
            K = tuple(rng.randint(0, 3) for _ in range(m))
        half = degree(K) // 2
        seeds = set()
        for _ in range(rng.randint(1, 3)):
            # random seed of degree half dividing K
            s = [0] * m
            left = half
            order = list(range(m))
            rng.shuffle(order)
            for i in order:
                take = min(left, K[i], rng.randint(0, half))
                s[i] = take
                left -= take
            if left == 0:
                seeds.add(tuple(s))
        if not seeds:
            continue
        prof = construct_rr_ideal(K, sorted(seeds))
        assert prof == rr_profile(prof.ideal)
        assert prof.reflection_invariant and K in prof.canonical_candidates
        b = tuple(rng.randint(-2, 4) for _ in range(m))
        assert rr_verify(prof, K, b)["pass"]
