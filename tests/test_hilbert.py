"""Group-algebra-graded Hilbert series of toppling quotients."""

import random

import pytest

from chipalg.hilbert import (
    GradedPolynomial,
    _staircase_k_polynomial,
    hilbert_identity_check,
    hilbert_numerator,
    parking_sum,
    parking_sum_check,
)
from chipalg.chipfiring import connected_flags, parking_ideal
from chipalg.monomials import standard_monomials
from chipalg.multigraph import Multigraph, div_class, divisor_class_group, tree_count
from chipalg.resolutions import cyc_partitions
from conftest import (
    basis_label,
    c4,
    coarse_identity_lhs,
    k4,
    random_connected,
    random_saturated,
    times_one_minus,
)


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


def test_sums_match_div_class_termwise():
    """One class projection per sum gives the terms of a div_class call per
    monomial, on cyclic class groups and on groups with several invariant
    factors (k4, and seeded graphs with every multiplicity doubled)."""
    rng = random.Random(27)
    graphs = [c4(), k4()]
    for n in (3, 4, 5):
        g = random_connected(rng, n, max_mult=1)
        graphs.append(Multigraph(n, tuple(tuple(2 * m for m in row) for row in g.mult)))
    factors = [divisor_class_group(g).invariant_factors for g in graphs]
    assert len(factors[0]) == 1 and all(len(f) >= 2 for f in factors[1:])
    for g in graphs:
        q = g.n - 1
        flags = [(c[:q], 1 if k % 2 else -1) for k, c in connected_flags(g)]
        assert hilbert_numerator(g) == _termwise(g, flags)
        std = standard_monomials(parking_ideal(g))
        assert parking_sum(g) == _termwise(g, [(u, 1) for u in std])


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
            p = times_one_minus(p, div_class(g, xi))
            q = q.mul(one.add(psi(g, xi, -1)))
            assert p == q
        # (1 + t q^c)(1 - t q^c) = 1 - t^2 q^2c: the t-term cancels
        xi = (1,) + (0,) * (g.n - 2)
        f = one.add(psi(g, xi))
        assert times_one_minus(f, div_class(g, xi)) == f.mul(one.add(psi(g, xi, -1)))


def test_hilbert_identity_k4(k4_graph):
    rep = hilbert_identity_check(k4_graph, hilbert_numerator(k4_graph))
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
    rep = hilbert_identity_check(g, hilbert_numerator(g))
    assert rep["pass"] and rep["lhs_terms"] == rep["rhs_terms"]


def test_numerator_constant_term(k4_graph):
    num = hilbert_numerator(k4_graph)
    assert num.terms[(0, (0, 0))] == 1


def test_hilbert_identity_random_saturated():
    rng = random.Random(30)
    for _ in range(5):
        g = random_saturated(rng, rng.randint(2, 4), max_mult=3)
        assert hilbert_identity_check(g, hilbert_numerator(g))["pass"]


def test_hilbert_identity_random_not_saturated():
    rng = random.Random(32)
    graphs = [random_connected(rng, n, max_mult=3) for n in (2, 3, 4, 5, 5, 6) for _ in range(3)]
    assert sum(not g.is_saturated() for g in graphs) >= 10
    for g in graphs:
        assert hilbert_identity_check(g, hilbert_numerator(g))["pass"]


def _doubled(g):
    """g with every multiplicity doubled: Div_0 then has at least two
    invariant factors."""
    return Multigraph(g.n, tuple(tuple(2 * m for m in row) for row in g.mult))


def _fine_product_graphs():
    """Seeded graphs with n = 1-6: connected ones, the same doubled for
    n <= 5, and saturated ones for n >= 2."""
    rng = random.Random(41)
    graphs = []
    for n in range(1, 7):
        for _ in range(3):
            g = random_connected(rng, n, max_mult=3 if n < 6 else 1)
            graphs.append(g)
            if n < 6:
                graphs.append(_doubled(g))
            if n > 1:
                graphs.append(random_saturated(rng, n, max_mult=3 if n < 6 else 1))
    return graphs


def test_fine_product_matches_coarse_oracle():
    """The identity check's left side, psi of the staircase's K-polynomial,
    is psum * prod_{i<n} (1 - psi(x_i)) taken one shift-and-subtract at a
    time in the coarse grading."""
    graphs = _fine_product_graphs()
    assert len(graphs) >= 40 and {g.n for g in graphs} == set(range(1, 7))
    assert sum(g.is_saturated() for g in graphs) >= 15 and sum(not g.is_saturated() for g in graphs) >= 10
    assert sum(len(divisor_class_group(g).invariant_factors) >= 2 for g in graphs) >= 12
    for g in graphs:
        coarse = coarse_identity_lhs(g, parking_sum(g))
        rep = hilbert_identity_check(g, coarse)
        assert rep["pass"] and rep["lhs_terms"] == len(coarse.terms)
        assert coarse == hilbert_numerator(g)


def test_fine_product_telescopes_columns(k4_graph):
    # k4's 8 columns give 16 terms times 1 - x_3; after the two other
    # factors the 26 left are the numerator's, one term per multidegree
    fine = _staircase_k_polynomial(k4_graph)
    assert len(fine) == len(hilbert_numerator(k4_graph).terms) == 26
    assert fine[(0, 0, 0)] == 1
    assert _staircase_k_polynomial(Multigraph(1, ((0,),))) == {(): 1}


def test_identity_check_fails_on_a_changed_numerator():
    rng = random.Random(43)
    graphs = [Multigraph(1, ((0,),)), c4(), k4(), _doubled(random_connected(rng, 4))]
    graphs += [random_saturated(rng, n) for n in (2, 3, 5)]
    for g in graphs:
        num = hilbert_numerator(g)
        assert hilbert_identity_check(g, num)["pass"]
        for k in list(num.terms)[:: max(1, len(num.terms) // 5)]:
            changed = dict(num.terms)
            changed[k] += 1 if changed[k] != -1 else 2
            rep = hilbert_identity_check(g, GradedPolynomial(num.factors, changed))
            assert not rep["pass"] and rep["lhs_terms"] == rep["rhs_terms"]
            dropped = {j: c for j, c in num.terms.items() if j != k}
            rep = hilbert_identity_check(g, GradedPolynomial(num.factors, dropped))
            assert not rep["pass"] and rep["lhs_terms"] == rep["rhs_terms"] + 1


def test_parking_sum_one_per_class():
    rng = random.Random(44)
    tree = Multigraph.from_edges(3, {(1, 2): 1, (2, 3): 1})  # trivial Div_0
    graphs = [Multigraph(1, ((0,),)), tree, c4(), k4(), _doubled(random_connected(rng, 4))]
    graphs += [random_saturated(rng, n) for n in (2, 3, 4, 5)]
    for g in graphs:
        trees = tree_count(g)
        psum = parking_sum(g)
        rep = parking_sum_check(g, psum)
        assert rep == {"terms": trees, "classes": trees, "tree_count": trees, "coefficients_not_one": 0, "pass": True}
        if trees < 2:
            continue
        (a, _), (b, _) = list(psum.terms.items())[:2]
        # two parking functions of one degree in one class: one term fewer,
        # with coefficient 2
        merged = {k: c for k, c in psum.terms.items() if k != a}
        merged[b] = 2
        rep = parking_sum_check(g, GradedPolynomial(psum.factors, merged))
        assert not rep["pass"] and rep["terms"] == trees - 1 and rep["coefficients_not_one"] == 1
        # two of different degrees in one class: as many terms, each with
        # coefficient 1
        moved = {k: c for k, c in psum.terms.items() if k != a}
        moved[(a[0] + 100, b[1])] = 1
        rep = parking_sum_check(g, GradedPolynomial(psum.factors, moved))
        assert not rep["pass"] and rep["terms"] == trees and rep["classes"] == trees - 1
        assert rep["coefficients_not_one"] == 0


def test_to_json_sorted(k4_graph):
    js = psi(k4_graph, (2, 0, 0)).to_json()
    assert js == [{"t": 2, "q": list(js[0]["q"]), "coeff": 1}]
    num = hilbert_numerator(k4_graph).to_json()
    keys = [(e["t"], tuple(e["q"])) for e in num]
    assert keys == sorted(keys)
