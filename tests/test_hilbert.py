"""Group-algebra-graded Hilbert series of toppling quotients."""

import random

import pytest

from chipalg.hilbert import (
    GradedPolynomial,
    _times_one_minus,
    hilbert_identity_check,
    hilbert_numerator,
    parking_sum,
)
from chipalg.chipfiring import parking_ideal
from chipalg.monomials import standard_monomials
from chipalg.multigraph import div_class, divisor_class_group, tree_count
from chipalg.resolutions import cyc_partitions
from conftest import basis_label, c4, k4, random_connected, random_saturated


def psi(g, u, coeff=1):
    """Image of coeff * x^u (u over the first n-1 nodes) in the group
    algebra: the single term coeff * t^|u| q^div(u)."""
    u = tuple(u)
    if any(e < 0 for e in u):
        raise ValueError("psi needs a non-negative exponent vector")
    return GradedPolynomial(divisor_class_group(g).invariant_factors, {(sum(u), div_class(g, u)): coeff})


def test_graded_polynomial_ring_axioms():
    factors = (4, 4)
    a = GradedPolynomial(factors, {(1, (0, 1)): 2, (0, (0, 0)): 1})
    b = GradedPolynomial(factors, {(1, (0, 3)): 1})
    minus_a = GradedPolynomial(factors, {(1, (0, 1)): -2, (0, (0, 0)): -1})
    minus_b = GradedPolynomial(factors, {(1, (0, 3)): -1})
    assert a.add(b).add(minus_b) == a
    assert a.add(minus_a) == GradedPolynomial(factors, {})
    assert a.mul(b) == b.mul(a)
    # class addition wraps modulo the invariant factors
    c = GradedPolynomial(factors, {(0, (0, 2)): 1})
    assert b.mul(c).terms == {(1, (0, 1)): 1}


def test_graded_polynomial_validation():
    with pytest.raises(ValueError):
        GradedPolynomial((4,), {(0, (0, 0)): 1})  # class length mismatch
    with pytest.raises(ValueError):
        GradedPolynomial((4,), {(0, (0,)): 0})  # zero coefficient
    a = GradedPolynomial((2,), {(0, (0,)): 1})
    b = GradedPolynomial((3,), {(0, (0,)): 1})
    with pytest.raises(ValueError):
        a.add(b)


def test_psi_basic(k4_graph):
    one = psi(k4_graph, (0, 0, 0))
    x1 = psi(k4_graph, (1, 0, 0))
    assert list(one.terms) == [(0, (0, 0))]
    (t, q), = x1.terms
    assert t == 1 and q != (0, 0)
    with pytest.raises(ValueError):
        psi(k4_graph, (-1, 0, 0))


def test_parking_sum_term_count(k4_graph):
    ps = parking_sum(k4_graph)
    # one parking function per spanning tree, distinct classes: 16 terms
    assert sum(ps.terms.values()) == tree_count(k4_graph) == 16


def _termwise(g, signed):
    """Oracle: the sum folded one psi term at a time with GradedPolynomial.add."""
    out = GradedPolynomial(divisor_class_group(g).invariant_factors, {})
    for u, sign in signed:
        out = out.add(psi(g, u, sign))
    return out


def _cyclic_partition_terms(g):
    """Oracle for saturated graphs: the x_n-free degree of each cyclically
    ordered partition of [n] into j blocks, with sign (-1)^(j-1)."""
    n = g.n
    return [
        (basis_label(g, p, n - 1), 1 if j % 2 else -1)
        for j in range(1, n + 1)
        for p in cyc_partitions(n, j)
    ]


def test_sums_match_termwise_add():
    rng = random.Random(31)
    for k in range(8):
        n = rng.randint(2, 5)
        if k % 2:
            g = random_connected(rng, n, max_mult=3)
        else:
            g = random_saturated(rng, n, max_mult=3)
            assert hilbert_numerator(g) == _termwise(g, _cyclic_partition_terms(g))
        std = standard_monomials(parking_ideal(g))
        ps = parking_sum(g)
        assert ps == _termwise(g, [(u, 1) for u in std])
        assert sum(ps.terms.values()) == tree_count(g)


def test_shift_and_subtract_matches_mul():
    # the generic product with 1 - psi(x_i) is the oracle
    rng = random.Random(9)
    graphs = [k4(), c4()]
    graphs += [random_saturated(rng, rng.randint(2, 5), max_mult=2) for _ in range(4)]
    graphs += [random_connected(rng, rng.randint(2, 5), max_mult=3) for _ in range(4)]
    for g in graphs:
        factors = divisor_class_group(g).invariant_factors
        one = GradedPolynomial(factors, {(0, (0,) * len(factors)): 1})
        p = q = parking_sum(g)
        for i in range(g.n - 1):
            xi = tuple(int(j == i) for j in range(g.n - 1))
            p = _times_one_minus(p, div_class(g, xi))
            q = q.mul(one.add(psi(g, xi, -1)))
            assert p == q
        # (1 + t q^c)(1 - t q^c) = 1 - t^2 q^2c: the t-term cancels
        xi = (1,) + (0,) * (g.n - 2)
        f = one.add(psi(g, xi))
        assert _times_one_minus(f, div_class(g, xi)) == f.mul(one.add(psi(g, xi, -1)))


def test_hilbert_identity_k4(k4_graph):
    rep = hilbert_identity_check(k4_graph, parking_sum(k4_graph), hilbert_numerator(k4_graph))
    assert rep["pass"]
    assert rep["lhs_terms"] == rep["rhs_terms"] == 26


def test_numerator_matches_cyclic_partitions():
    # on saturated graphs every partition is connected and every quotient
    # complete, so the flags and the cyclic partitions give the same sum
    rng = random.Random(33)
    graphs = [k4()] + [random_saturated(rng, n, max_mult=3) for n in (2, 3, 4, 5, 5, 6)]
    for g in graphs:
        assert hilbert_numerator(g) == _termwise(g, _cyclic_partition_terms(g))


def test_hilbert_identity_c4():
    # not saturated: the numerator comes from the connected flags alone
    g = c4()
    rep = hilbert_identity_check(g, parking_sum(g), hilbert_numerator(g))
    assert rep["pass"] and rep["lhs_terms"] == rep["rhs_terms"]


def test_numerator_constant_term(k4_graph):
    num = hilbert_numerator(k4_graph)
    assert num.terms[(0, (0, 0))] == 1


def test_hilbert_identity_random_saturated():
    rng = random.Random(30)
    for _ in range(5):
        g = random_saturated(rng, rng.randint(2, 4), max_mult=3)
        assert hilbert_identity_check(g, parking_sum(g), hilbert_numerator(g))["pass"]


def test_hilbert_identity_random_not_saturated():
    rng = random.Random(32)
    graphs = [random_connected(rng, n, max_mult=3) for n in (2, 3, 4, 5, 5, 6) for _ in range(3)]
    assert sum(not g.is_saturated() for g in graphs) >= 10
    for g in graphs:
        assert hilbert_identity_check(g, parking_sum(g), hilbert_numerator(g))["pass"]


def test_to_json_sorted(k4_graph):
    js = psi(k4_graph, (2, 0, 0)).to_json()
    assert js == [{"t": 2, "q": list(js[0]["q"]), "coeff": 1}]
    num = hilbert_numerator(k4_graph).to_json()
    keys = [(e["t"], tuple(e["q"])) for e in num]
    assert keys == sorted(keys)
