"""Exact linear algebra: Smith normal form, determinants, ranks, solving."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipalg.exactla import (
    IntMatrix,
    check_char,
    determinant,
    smith_normal_form,
    solve_integer,
)
from chipalg.kernels import sparse_rank

square_strategy = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def _matmul(a, b):
    """The product a @ b."""
    assert a.cols == b.rows
    return IntMatrix(
        a.rows,
        b.cols,
        tuple(sum(a.at(i, k) * b.at(k, j) for k in range(a.cols)) for i in range(a.rows) for j in range(b.cols)),
    )


def _rank(m, p):
    cols = [{i: m.at(i, j) for i in range(m.rows) if m.at(i, j)} for j in range(m.cols)]
    return sparse_rank(cols, p)


rect_strategy = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(rows=rect_strategy)
def test_smith_form_reconstruction(rows):
    m = IntMatrix.from_rows(rows)
    s = smith_normal_form(m)
    # left @ m @ right is the diagonal matrix
    prod = _matmul(_matmul(s.left, m), s.right)
    for i in range(prod.rows):
        for j in range(prod.cols):
            expect = s.diagonal[i] if i == j and i < len(s.diagonal) else 0
            assert prod.at(i, j) == expect
    # transforms are unimodular
    assert determinant(s.left) in (-1, 1)
    assert determinant(s.right) in (-1, 1)
    # non-negative, nonzero entries first, each divides the next
    nz = [d for d in s.diagonal if d]
    assert all(d >= 0 for d in s.diagonal)
    assert list(s.diagonal[: len(nz)]) == nz
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
    assert sum(1 for d in s.diagonal if d) == _rank(m, 0)


@settings(max_examples=120, deadline=None)
@given(rows=square_strategy)
def test_determinant_equals_smith_diagonal_product(rows):
    m = IntMatrix.from_rows(rows)
    d = determinant(m)
    s = smith_normal_form(m)
    prod = 1
    for x in s.diagonal:
        prod *= x
    assert abs(d) == prod


@settings(max_examples=80, deadline=None)
@given(rows=rect_strategy, p=st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_p_at_most_rank_over_q(rows, p):
    m = IntMatrix.from_rows(rows)
    assert _rank(m, p) <= _rank(m, 0)


def test_check_char_rejects_composite_characteristic():
    for char in (0, 2, 101):
        check_char(char)
    for char in (1, 4, -2):
        with pytest.raises(ValueError):
            check_char(char)


@settings(max_examples=80, deadline=None)
@given(rows=rect_strategy, data=st.data())
def test_solve_integer_roundtrip(rows, data):
    m = IntMatrix.from_rows(rows)
    x = data.draw(
        st.lists(st.integers(-4, 4), min_size=m.cols, max_size=m.cols)
    )
    b = m.mul_vec(tuple(x))
    sol = solve_integer(m, b)
    assert sol is not None
    assert m.mul_vec(sol) == b


def test_solve_integer_detects_unsolvable():
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert solve_integer(m, (1, 0)) is None  # not in 2Z^2
    assert solve_integer(m, (2, -4)) == (1, -2)


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        determinant(IntMatrix.from_rows([[1, 2]]))


def test_determinant_random_multiplicativity():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        b = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert determinant(_matmul(a, b)) == determinant(a) * determinant(b)
