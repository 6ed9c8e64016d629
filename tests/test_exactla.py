"""Exact linear algebra on row tuples: Smith normal form, determinants,
ranks, solving, and the primality check on a characteristic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipalg.exactla import (
    _mat_vec,
    check_char,
    determinant,
    is_prime,
    smith_normal_form,
    solve_integer,
)
from chipalg.kernels import sparse_rank

# Matrices are drawn as tuples of row tuples, the form ``laplacian`` returns.
square_strategy = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple), min_size=n, max_size=n
    ).map(tuple)
)


def _matmul(a, b):
    """The product a @ b of two matrices given as rows."""
    assert all(len(row) == len(b) for row in a)
    columns = tuple(zip(*b))
    return tuple(_mat_vec(columns, row) for row in a)


def _rank(m, p):
    cols = [{i: x for i, x in enumerate(col) if x} for col in zip(*m)]
    return sparse_rank(cols, p)


rect_strategy = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-9, 9), min_size=nc, max_size=nc).map(tuple),
            min_size=nr,
            max_size=nr,
        ).map(tuple)
    )
)


@settings(max_examples=120, deadline=None)
@given(rows=rect_strategy)
def test_smith_form_reconstruction(rows):
    s = smith_normal_form(rows)
    # the transforms are square tuples of row tuples
    for t, k in ((s.left, len(rows)), (s.right, len(rows[0]))):
        assert type(t) is tuple and len(t) == k
        assert all(type(row) is tuple and len(row) == k for row in t)
    # left @ m @ right is the diagonal matrix
    prod = _matmul(_matmul(s.left, rows), s.right)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            expect = s.diagonal[i] if i == j and i < len(s.diagonal) else 0
            assert x == expect
    # transforms are unimodular
    assert determinant(s.left) in (-1, 1)
    assert determinant(s.right) in (-1, 1)
    # non-negative, nonzero entries first, each divides the next
    nz = [d for d in s.diagonal if d]
    assert all(d >= 0 for d in s.diagonal)
    assert list(s.diagonal[: len(nz)]) == nz
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
    assert sum(1 for d in s.diagonal if d) == _rank(rows, 0)


@settings(max_examples=120, deadline=None)
@given(rows=square_strategy)
def test_determinant_equals_smith_diagonal_product(rows):
    d = determinant(rows)
    s = smith_normal_form(rows)
    prod = 1
    for x in s.diagonal:
        prod *= x
    assert abs(d) == prod


@settings(max_examples=80, deadline=None)
@given(rows=rect_strategy, p=st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_p_at_most_rank_over_q(rows, p):
    assert _rank(rows, p) <= _rank(rows, 0)


def test_check_char_rejects_composite_characteristic():
    for char in (0, 2, 101, 1000000000039, 2**61 - 1):
        check_char(char)
    for char in (1, 4, -2, 2**64, 2**64 + 13):
        with pytest.raises(ValueError):
            check_char(char)
    # The least strong pseudoprime to the first twelve prime bases: is_prime
    # calls it prime, so check_char must stop below it.
    psi12 = 318665857834031151167461
    assert is_prime(psi12) and psi12 % 399165290221 == 0
    with pytest.raises(ValueError, match="2\\^64"):
        check_char(psi12)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(50000) if is_prime(n)] == [n for n in range(50000) if _trial_division(n)]
    # Carmichael numbers and strong pseudoprimes to small bases
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n)


@settings(max_examples=80, deadline=None)
@given(rows=rect_strategy, data=st.data())
def test_solve_integer_roundtrip(rows, data):
    c = len(rows[0])
    x = data.draw(st.lists(st.integers(-4, 4), min_size=c, max_size=c))
    b = _mat_vec(rows, x)
    sol = solve_integer(rows, b)
    assert sol is not None
    assert _mat_vec(rows, sol) == b


def test_solve_integer_detects_unsolvable():
    m = ((2, 0), (0, 2))
    assert solve_integer(m, (1, 0)) is None  # not in 2Z^2
    assert solve_integer(m, (2, -4)) == (1, -2)


def test_matrix_validation():
    ragged = ((1, 2), (3,))
    for call in (smith_normal_form, determinant, lambda m: solve_integer(m, (0, 0))):
        with pytest.raises(ValueError, match="ragged"):
            call(ragged)
    with pytest.raises(ValueError, match="square"):
        determinant(((1, 2),))
    with pytest.raises(ValueError):
        _mat_vec(((1, 2), (3, 4)), (1, 2, 3))
    with pytest.raises(ValueError):
        _mat_vec(((1, 2), (3, 4)), (1,))


def test_determinant_random_multiplicativity():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert determinant(_matmul(a, b)) == determinant(a) * determinant(b)
