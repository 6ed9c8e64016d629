"""Exact integer linear algebra on matrices given as rows of equal length:
determinants, Smith normal form, integer linear solving, and the check on a
field characteristic.  Results are tuples of row tuples.  Everything is
exact; no floating point is used anywhere in the package.  The elimination
work is delegated to :mod:`chipalg.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import bareiss_det

__all__ = [
    "SmithForm",
    "check_char",
    "determinant",
    "is_prime",
    "smith_normal_form",
    "solve_integer",
]

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class SmithForm:
    """Smith normal form ``left @ a @ right == diag`` with unimodular transforms.

    ``diagonal`` has length ``min(rows, cols)``; its nonzero entries come
    first and each divides the next.
    """

    diagonal: tuple
    left: tuple
    right: tuple


def _rows(m) -> list:
    """The rows of ``m`` as fresh lists; ragged rows are rejected."""
    a = [list(row) for row in m]
    if any(len(row) != len(a[0]) for row in a):
        raise ValueError("ragged rows")
    return a


def _mat_vec(m, v) -> tuple:
    """The product ``m @ v``; v must have one entry per column."""
    return tuple(sum(x * y for x, y in zip(row, v, strict=True)) for row in m)


def determinant(m) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    a = _rows(m)
    if a and len(a[0]) != len(a):
        raise ValueError("determinant requires a square matrix")
    return bareiss_det(a)


def is_prime(p: int) -> bool:
    """Whether p is prime, by Miller-Rabin to the first twelve prime bases:
    exact below 318665857834031151167461, the least strong pseudoprime to
    all of them (Sorenson and Webster, 2015)."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # p - 1 = d 2^s with d odd; a proves p composite if a^d != 1 and
    # a^(d 2^k) != -1 for every k < s
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << k, p) != p - 1 for k in range(s)):
            return False
    return True


def check_char(char: int) -> None:
    """Reject a characteristic that is neither 0 nor a prime below 2^64,
    the range where ``is_prime`` is exact."""
    if char >= 2**64:
        raise ValueError(f"characteristic must be below 2^64, got {char}")
    if char != 0 and not is_prime(char):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def smith_normal_form(m) -> SmithForm:
    """Smith normal form with explicit unimodular transforms."""
    a = _rows(m)
    n, c = len(a), len(a[0]) if a else 0
    # Work on [[m, I_n], [I_c, 0]]: the row operations on its first n rows
    # build ``left`` past column c, and the column operations on its first
    # c columns build ``right`` past row n.
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    a += [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def addmul_row(i, j, q):
        # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]

    def addmul_col(i, j, q):
        # col i += q * col j
        for row in a:
            row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]

    def clear(t):
        # Reduce so that row t and column t vanish except at (t, t).
        while True:
            # Bring the smallest nonzero of row/col t to the pivot and
            # run Euclidean reduction.
            while True:
                dirty = False
                for i in range(t + 1, n):
                    if a[i][t]:
                        if a[t][t] == 0 or abs(a[i][t]) < abs(a[t][t]):
                            swap_rows(t, i)
                        q = -(a[i][t] // a[t][t])
                        addmul_row(i, t, q)
                        if a[i][t]:
                            dirty = True
                if not dirty:
                    break
            while True:
                dirty = False
                for j in range(t + 1, c):
                    if a[t][j]:
                        if a[t][t] == 0 or abs(a[t][j]) < abs(a[t][t]):
                            swap_cols(t, j)
                        q = -(a[t][j] // a[t][t])
                        addmul_col(j, t, q)
                        if a[t][j]:
                            dirty = True
                if not dirty:
                    break
            if all(a[i][t] == 0 for i in range(t + 1, n)):
                break

    r = min(n, c)
    for t in range(r):
        # Find any nonzero entry in the trailing submatrix.
        pivot = None
        for i in range(t, n):
            for j in range(t, c):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        clear(t)
        if a[t][t] < 0:
            negate_row(t)

    # Enforce the divisibility chain d_1 | d_2 | ...
    t = 0
    while t < r - 1:
        dt = a[t][t]
        bad = None
        if dt:
            for s in range(t + 1, r):
                if a[s][s] % dt:
                    bad = s
                    break
        if bad is None:
            t += 1
            continue
        addmul_row(t, bad, 1)
        clear(t)
        if a[t][t] < 0:
            negate_row(t)
        t = 0  # the repaired pivot may break earlier divisibility

    for t in range(r):
        if a[t][t] < 0:
            negate_row(t)

    diag = tuple(a[t][t] for t in range(r))
    return SmithForm(diag, tuple(tuple(row[c:]) for row in a[:n]), tuple(map(tuple, a[n:])))


def solve_integer(m, b):
    """Some integer solution of ``m @ x = b``, or None if there is none."""
    a = _rows(m)
    if len(b) != len(a):
        raise ValueError("right-hand side length does not match row count")
    snf = smith_normal_form(a)
    ub = _mat_vec(snf.left, b)
    y = [0] * len(snf.right)
    r = len(snf.diagonal)
    for i, u in enumerate(ub):
        d = snf.diagonal[i] if i < r else 0  # r <= len(y), so y[i] exists where d != 0
        if d == 0:
            if u:
                return None
        elif u % d:
            return None
        else:
            y[i] = u // d
    x = _mat_vec(snf.right, y)
    if _mat_vec(a, x) != tuple(b):
        return None
    return x
