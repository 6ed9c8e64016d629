"""Monomial ideals: membership, standard monomials, socle, Alexander duality."""

import random
import time
from itertools import product

import pytest

from chipalg.chipfiring import parking_ideal
from chipalg.monomials import (
    MonomialIdeal,
    _minimize,
    degree,
    degree_plus,
    divides,
    intersect_irreducible,
    lcm_exp,
    monomial_str,
    parse_ideal,
    socle,
    staircase_columns,
    standard_monomials,
    vec_add,
    vec_sub,
)
from chipalg.multigraph import tree_count
from chipalg.riemann_roch import construct_rr_ideal
from conftest import (
    alexander_dual_box_generators,
    random_connected,
    random_saturated,
    socle_by_staircase_scan,
)

K4_GENS = [
    (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2),
]
K4_SOCLE = {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}


def format_ideal(M):
    """The ideal in the text format that ``parse_ideal`` reads."""
    lines = [f"vars {M.vars}"]
    lines += ["gen " + " ".join(str(e) for e in g) for g in M.generators]
    return "\n".join(lines) + "\n"


def _box_standard(M):
    """Oracle: every point of the box prod pure powers that lies outside M."""
    bounds = [M.pure_power(i) for i in range(M.vars)]
    return [u for u in product(*(range(b) for b in bounds)) if not M.contains(u)]


def _box_socle(M):
    """Oracle: box-scanned standard monomials that every variable pushes into M."""
    return [
        u
        for u in _box_standard(M)
        if all(
            M.contains(u[:i] + (u[i] + 1,) + u[i + 1 :]) for i in range(M.vars)
        )
    ]


def _random_artinian(rng, m):
    """Generators of a random artinian ideal in m variables, with zero tails,
    repeated pure powers and multiples of earlier generators mixed in."""
    gens = [
        tuple(rng.randint(1, 5) if k == i else 0 for k in range(m))
        for i in range(m)
    ]
    for _ in range(rng.randint(0, 6)):
        v = [rng.randint(0, 4) for _ in range(m)]
        cut = rng.randint(1, m)
        if rng.random() < 0.4:
            v[cut:] = [0] * (m - cut)
        if any(v):
            gens.append(tuple(v))
    for _ in range(rng.randint(0, 3)):
        g = rng.choice(gens)
        gens.append(tuple(e + rng.randint(0, 2) for e in g))
    rng.shuffle(gens)
    return gens


def _random_ideals(seed, count):
    """Seeded artinian ideals with 1-5 variables, each once minimized and
    once with its redundant generators kept."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 5)
        gens = _random_artinian(rng, m)
        yield MonomialIdeal.from_generators(m, gens)
        yield MonomialIdeal(m, tuple(gens))


def _random_parking_ideals(seed, count):
    """Parking ideals of seeded multigraphs with n = 2-6, saturated or not,
    with the graph's tree count."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 6)
        if k % 2:
            g = random_saturated(rng, n, max_mult=2 if n < 6 else 1)
        else:
            g = random_connected(rng, n, max_mult=3 if n < 6 else 2)
        yield parking_ideal(g), tree_count(g)


def test_vector_helpers():
    assert degree((2, -1, 3)) == 4
    assert degree_plus((2, -1, 3)) == 5
    assert divides((1, 0), (1, 2))
    assert not divides((2, 0), (1, 2))
    assert lcm_exp((1, 3), (2, 0)) == (2, 3)
    assert vec_add((1, 2), (3, -1)) == (4, 1)
    assert vec_sub((1, 2), (3, -1)) == (-2, 3)


def test_generators_are_minimized():
    M = MonomialIdeal.from_generators(2, [(1, 0), (1, 1), (2, 3)])
    assert M.generators == ((1, 0),)
    assert M.contains((5, 2))
    assert not M.contains((0, 9))


def test_artinian_detection():
    assert MonomialIdeal.from_generators(2, [(2, 0), (0, 3)]).is_artinian()
    assert not MonomialIdeal.from_generators(2, [(2, 0), (1, 1)]).is_artinian()
    # Non-minimal generators: the least pure power counts, read from one
    # vector built once per ideal.
    M = MonomialIdeal(3, ((3, 0, 0), (0, 4, 0), (2, 0, 0), (1, 1, 0), (2, 0, 0)))
    assert [M.pure_power(i) for i in range(3)] == [2, 4, None]
    assert not M.is_artinian()
    assert vars(M)["_pure_powers"] == (2, 4, None)


def test_standard_monomials_k4():
    M = MonomialIdeal.from_generators(3, K4_GENS)
    std = standard_monomials(M)
    assert len(std) == 16
    assert all(not M.contains(u) for u in std)


def test_socle_k4():
    M = MonomialIdeal.from_generators(3, K4_GENS)
    assert set(socle(M)) == K4_SOCLE


def test_socle_definition_randomized():
    rng = random.Random(9)
    for _ in range(25):
        m = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 5)):
            v = tuple(rng.randint(0, 3) for _ in range(m))
            if any(v):
                gens.append(v)
        gens += [tuple(4 if i == j else 0 for i in range(m)) for j in range(m)]
        M = MonomialIdeal.from_generators(m, gens)
        soc = set(socle(M))
        e = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        for u in standard_monomials(M):
            is_socle = all(M.contains(vec_add(u, ej)) for ej in e)
            assert (tuple(u) in soc) == is_socle


def test_standard_monomials_match_box_scan():
    for M in _random_ideals(21, 200):
        assert standard_monomials(M) == _box_standard(M)
    for M, trees in _random_parking_ideals(22, 24):
        std = standard_monomials(M)
        assert std == _box_standard(M)
        assert len(std) == trees
    # The zero generator puts every monomial in the ideal.
    assert standard_monomials(MonomialIdeal(2, ((0, 0), (1, 0), (0, 1)))) == []


def _check_columns(M):
    """The columns hold as many monomials as the box scan finds outside M,
    their prefixes are distinct and in lexicographic order, and each column
    ends where the ideal starts."""
    cols = staircase_columns(M)
    assert sum(bound for _, bound in cols) == len(standard_monomials(M)) == len(_box_standard(M))
    prefixes = [p for p, _ in cols]
    assert prefixes == sorted(set(prefixes))
    for prefix, bound in cols:
        assert bound >= 1 and len(prefix) == M.vars - 1
        assert M.contains(prefix + (bound,)) and not M.contains(prefix + (bound - 1,))


def test_staircase_columns():
    ideals = list(_random_ideals(25, 150))
    assert len(ideals) == 300 and {M.vars for M in ideals} == set(range(1, 6))
    for M in ideals:
        _check_columns(M)
    for M, trees in _random_parking_ideals(26, 24):
        _check_columns(M)
        assert sum(bound for _, bound in staircase_columns(M)) == trees
    # k4's staircase: the 16 parking functions in 8 columns along x_3
    assert staircase_columns(MonomialIdeal.from_generators(3, K4_GENS)) == [
        ((0, 0), 3), ((0, 1), 3), ((0, 2), 2), ((1, 0), 3), ((1, 1), 1), ((1, 2), 1), ((2, 0), 2), ((2, 1), 1)
    ]
    # The zero generator leaves no column; an ideal in no variable is refused.
    assert staircase_columns(MonomialIdeal(2, ((0, 0), (1, 0), (0, 1)))) == []
    assert staircase_columns(MonomialIdeal(1, ((0,), (1,)))) == []
    with pytest.raises(ValueError):
        staircase_columns(MonomialIdeal(0, ()))


def test_socle_matches_box_scan():
    for M in _random_ideals(23, 200):
        assert socle(M) == _box_socle(M)
    for M, _ in _random_parking_ideals(24, 24):
        assert socle(M) == _box_socle(M)
    # The zero generator puts every monomial in the ideal; x^5 alone, or
    # with its multiples and a repeat, has the socle x^4.
    assert socle(MonomialIdeal(2, ((0, 0), (1, 0), (0, 1)))) == []
    assert socle(MonomialIdeal(1, ((5,),))) == [(4,)]
    assert socle(MonomialIdeal(1, ((7,), (5,), (5,)))) == [(4,)]


def test_staircase_is_output_sensitive():
    # Pure powers x_i^2000 and every x_i*x_j: 1 + 4 * 1999 standard monomials
    # in a box of 2000^4 = 1.6e13 points.
    gens = [tuple(2000 if k == i else 0 for k in range(4)) for i in range(4)]
    gens += [
        tuple(int(k in (i, j)) for k in range(4))
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    M = MonomialIdeal.from_generators(4, gens)
    start = time.perf_counter()
    std = standard_monomials(M)
    soc = socle(M)
    elapsed = time.perf_counter() - start
    assert len(std) == 7997
    assert soc == [(0, 0, 0, 1999), (0, 0, 1999, 0), (0, 1999, 0, 0), (1999, 0, 0, 0)]
    assert elapsed < 2.0


def test_socle_is_output_sensitive():
    # Pure powers x_i^(10^6) and every x_i*x_j: 1 + 3 * (10^6 - 1) standard
    # monomials, but three socle monomials, found without listing them.
    big = 10**6
    gens = [tuple(big if k == i else 0 for k in range(3)) for i in range(3)]
    gens += [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    M = MonomialIdeal.from_generators(3, gens)
    start = time.perf_counter()
    soc = socle(M)
    elapsed = time.perf_counter() - start
    assert soc == [(0, 0, big - 1), (0, big - 1, 0), (big - 1, 0, 0)]
    assert elapsed < 0.5


def test_socle_gives_irreducible_decomposition():
    # Alexander duality: M is the intersection of <x^(s+1)> over its socle.
    ideals = list(_random_ideals(27, 150)) + [M for M, _ in _random_parking_ideals(28, 10)]
    for M in ideals:
        corners = [tuple(e + 1 for e in s) for s in socle(M)]
        back = intersect_irreducible(corners, M.vars)
        assert back == MonomialIdeal.from_generators(M.vars, M.generators)


def _rr_ideals(seed, count):
    """Ideals from ``construct_rr_ideal`` for seeded canonical monomials in
    2-4 variables and one to three seeds each."""
    rng = random.Random(seed)
    for _ in range(count):
        K = tuple(rng.randint(0, 3) for _ in range(rng.randint(2, 4)))
        if sum(K) % 2:
            K = K[:-1] + (K[-1] + 1,)
        seeds = [s for s in product(*(range(e + 1) for e in K)) if 2 * sum(s) == sum(K)]
        yield construct_rr_ideal(K, rng.sample(seeds, min(len(seeds), rng.randint(1, 3)))).ideal


def test_socle_matches_staircase_scan():
    # Parking ideals of saturated graphs with n = 6, 7, past the box scan's
    # reach, and ideals from construct_rr_ideal; each again with
    # non-minimal generators: repeats, multiples and every pure power
    # raised by one.
    rng = random.Random(29)
    ideals = [parking_ideal(random_saturated(rng, n, max_mult=m)) for n, m in ((6, 2), (6, 3), (7, 1), (7, 2))]
    ideals += _rr_ideals(30, 40)
    for M in ideals:
        expected = socle_by_staircase_scan(M)
        assert socle(M) == expected
        gens = list(M.generators)
        gens += [rng.choice(gens) for _ in range(3)]
        gens += [vec_add(g, tuple(rng.randint(0, 2) for _ in g)) for g in rng.sample(gens, 4)]
        gens += [tuple(e and e + 1 for e in g) for g in M.generators if sum(map(bool, g)) == 1]
        rng.shuffle(gens)
        assert socle(MonomialIdeal(M.vars, tuple(gens))) == expected


def test_socle_cache_is_per_ideal():
    M = parse_ideal(format_ideal(MonomialIdeal.from_generators(3, K4_GENS)))
    first = socle(M)
    assert first == sorted(K4_SOCLE)
    first.append((9, 9, 9))
    first[0] = (7, 7, 7)
    assert socle(M) == sorted(K4_SOCLE)
    assert socle(M) is not socle(M)
    fresh = parse_ideal(format_ideal(M))
    assert M == fresh and hash(M) == hash(fresh)
    assert {M: 1}[fresh] == 1
    assert "_socle" in vars(M) and "_socle" not in vars(fresh)
    assert socle(fresh) == sorted(K4_SOCLE)


def test_minimize_matches_pairwise_filter():
    rng = random.Random(25)
    for M in _random_ideals(26, 60):
        K = tuple(rng.randint(0, 5) for _ in range(M.vars))
        hits = [
            u
            for u in product(*(range(k + 1) for k in K))
            if not M.contains(vec_sub(K, u))
        ]
        old = [u for u in hits if not any(divides(v, u) and v != u for v in hits)]
        assert list(_minimize(hits)) == old
        assert alexander_dual_box_generators(M, K) == old


def test_irreducible_decomposition_k4():
    components = [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    M = intersect_irreducible(components, 3)
    assert M == MonomialIdeal.from_generators(3, K4_GENS)


def test_intersect_one_component_is_minimized():
    # one component's pure powers come out in the order from_generators gives
    assert intersect_irreducible([(3, 2)], 2) == MonomialIdeal.from_generators(2, [(3, 0), (0, 2)])


def test_alexander_dual_k4():
    # The box dual at the canonical corner K = (2,2,2) recovers the socle.
    M = MonomialIdeal.from_generators(3, K4_GENS)
    dual = alexander_dual_box_generators(M, (2, 2, 2))
    assert set(dual) == K4_SOCLE
    # membership reflection: x^u in <socle> iff x^(K-u) outside M, within the box
    from itertools import product

    D = MonomialIdeal.from_generators(3, dual)
    for u in product(range(3), repeat=3):
        assert D.contains(u) == (not M.contains(vec_sub((2, 2, 2), u)))


def test_standard_monomials_requires_artinian():
    M = MonomialIdeal.from_generators(2, [(1, 1)])
    with pytest.raises(ValueError):
        standard_monomials(M)
    with pytest.raises(ValueError):
        staircase_columns(M)
    with pytest.raises(ValueError):
        socle(MonomialIdeal.from_generators(2, [(2, 0), (1, 1)]))


def test_parse_format_roundtrip():
    M = MonomialIdeal.from_generators(3, K4_GENS)
    assert parse_ideal(format_ideal(M)) == M
    with pytest.raises(ValueError):
        parse_ideal("gen 1 2")
    with pytest.raises(ValueError):
        parse_ideal("vars 2\ngen 1 -1")
    with pytest.raises(ValueError, match="line 2: .*whole ring"):
        parse_ideal("vars 2\ngen 0 0")


def test_monomial_str():
    assert monomial_str((2, 0, -1)) == "x1^2*x3^-1"
    assert monomial_str((0, 0)) == "1"
    assert monomial_str((1, 1)) == "x1*x2"
