"""The elimination kernels agree with slow oracles."""

import random
from collections import Counter
from copy import deepcopy
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from chipalg.kernels import bareiss, bareiss_det, sparse_rank


#: The characteristics the kernel tests run in: 0, two small primes and
#: 2^61 - 1, the largest prime ``check_char`` is tested with.
CHARS = (0, 2, 101, 2**61 - 1)


def _dense_to_cols(rows):
    if not rows:
        return []
    return [
        {i: rows[i][j] for i in range(len(rows)) if rows[i][j]}
        for j in range(len(rows[0]))
    ]


def _rank_fraction_oracle(rows, p):
    """Rank by plain Gaussian elimination over Q or GF(p)."""
    a = [[Fraction(x) if p == 0 else x % p for x in r] for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    rank = 0
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        inv = (1 / pv) if p == 0 else pow(pv, -1, p)
        a[rank] = [x * inv if p == 0 else (x * inv) % p for x in a[rank]]
        for i in range(nr):
            if i != rank and a[i][col]:
                f = a[i][col]
                if p == 0:
                    a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
                else:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_cofactor(minor)
    return total


matrix_strategy = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-6, 6), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(rows=matrix_strategy, p=st.sampled_from([0, 2, 3, 5]))
def test_sparse_rank_matches_fraction_oracle(rows, p):
    assert sparse_rank(_dense_to_cols(rows), p) == _rank_fraction_oracle(rows, p)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_bareiss_matches_cofactor_expansion(rows):
    assert bareiss_det([list(r) for r in rows]) == _det_cofactor(rows)


def _pivot_swaps(rows):
    """Row swaps of Gaussian elimination over Q that replaces each zero
    pivot by the first row below it that is non-zero in its column, or
    None when a column has no pivot (the matrix is singular)."""
    a = [[Fraction(x) for x in r] for r in rows]
    swaps = 0
    for k in range(len(a)):
        if not a[k][k]:
            i = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if i is None:
                return None
            a[k], a[i] = a[i], a[k]
            swaps += 1
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return swaps


def test_bareiss_gives_determinant_and_adjugate():
    # [A | I] ends at [det*I | R] with R*A = det*I, through zero leading
    # pivots with odd and even swap counts; a singular A gives (0, None)
    rng = random.Random(32)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 6)
        a = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            a[-1] = [x - 2 * y for x, y in zip(a[0], a[1])]
        det, rows = bareiss([r + [int(i == j) for j in range(n)] for i, r in enumerate(a)])
        assert det == _det_cofactor(a) == bareiss_det(a)
        swaps = _pivot_swaps(a)
        if det == 0:
            assert rows is None and swaps is None
            seen["singular"] += 1
            continue
        seen["odd" if swaps % 2 else "even" if swaps else "none"] += 1
        eye = [[det * (i == j) for j in range(n)] for i in range(n)]
        assert [r[:n] for r in rows] == eye
        right = [r[n:] for r in rows]
        assert [[sum(right[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == eye
    assert min(seen[s] for s in ("singular", "odd", "even", "none")) >= 20, seen


def test_kernels_match_oracles_on_larger_random_matrices():
    rng = random.Random(42)
    squares = 0
    for _ in range(20):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        for p in CHARS:
            assert sparse_rank(_dense_to_cols(rows), p) == _rank_fraction_oracle(rows, p)
        if nr == nc:
            squares += 1
            assert bareiss_det([list(r) for r in rows]) == _det_cofactor(rows)
    assert squares


def _random_complex_boundaries(rng):
    """Boundary matrices (dense rows) of the downward closure of random
    faces on up to 8 vertices, one per dimension d >= 1."""
    nv = rng.randint(3, 8)
    faces = set()
    for _ in range(rng.randint(1, 8)):
        top = tuple(sorted(rng.sample(range(nv), rng.randint(2, min(nv, 5)))))
        for k in range(1, len(top) + 1):
            faces.update(combinations(top, k))
    by_dim = {}
    for f in sorted(faces):
        by_dim.setdefault(len(f) - 1, []).append(f)
    mats = []
    for d in range(1, max(by_dim) + 1):
        pos = {f: i for i, f in enumerate(by_dim[d - 1])}
        cols = by_dim[d]
        rows = [[0] * len(cols) for _ in pos]
        for j, f in enumerate(cols):
            for i in range(len(f)):
                rows[pos[f[:i] + f[i + 1 :]]][j] = -1 if i % 2 else 1
        mats.append(rows)
    return mats


def test_sparse_rank_on_boundary_matrices():
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        for rows in _random_complex_boundaries(rng):
            for p in CHARS:
                assert sparse_rank(_dense_to_cols(rows), p) == _rank_fraction_oracle(rows, p)
            checked += 1
    assert checked > 80


def test_sparse_rank_when_shortest_row_has_no_unit():
    # the pivot comes from a shortest row; here that row holds no +-1, so
    # the elimination takes the cross-multiplying branch first
    rng = random.Random(8)
    for _ in range(40):
        nr, nc = rng.randint(2, 9), rng.randint(3, 9)
        rows = [[rng.choice((0, 1, -1, rng.randint(-9, 9))) for _ in range(nc)] for _ in range(nr)]
        short = rng.sample(range(nc), 2)
        rows[0] = [rng.choice((2, -2, 3, -3, 4, 6, -9)) if j in short else 0 for j in range(nc)]
        for r in rows[1:]:
            for j in rng.sample(range(nc), 3):
                r[j] = r[j] or rng.choice((1, -1, 5))
        assert all(sum(map(bool, r)) > 2 for r in rows[1:])
        for p in CHARS:
            assert sparse_rank(_dense_to_cols(rows), p) == _rank_fraction_oracle(rows, p)


def test_sparse_rank_leaves_its_columns_unchanged():
    # the kernel eliminates on rows of its own; the caller's column dicts,
    # entries beyond p and non-unit pivots included, come back as they went in
    rng = random.Random(9)
    for _ in range(30):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice((0, 0, 1, -1, 2, -6, 2**61, 2**62 + 3)) for _ in range(nc)] for _ in range(nr)]
        cols = _dense_to_cols(rows)
        before = deepcopy(cols)
        for p in CHARS:
            assert sparse_rank(cols, p) == _rank_fraction_oracle(rows, p)
            assert cols == before


def test_empty_and_zero_matrices():
    assert sparse_rank([], 0) == 0
    assert sparse_rank([{}, {}], 0) == 0
    assert bareiss_det([]) == 1
    assert bareiss_det([[0, 0], [0, 0]]) == 0
