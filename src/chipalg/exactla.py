"""Exact integer/rational linear algebra: determinants, Smith normal form,
integer linear solving, and the check on a field characteristic.

Everything is exact; no floating point is used anywhere in the package.
The elimination work is delegated to :mod:`chipalg.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import bareiss_det

__all__ = [
    "IntMatrix",
    "SmithForm",
    "check_char",
    "determinant",
    "is_prime",
    "smith_normal_form",
    "solve_integer",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, tuple(v for r in rows for v in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul_vec(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum(self.at(i, j) * v[j] for j in range(self.cols)) for i in range(self.rows)
        )

    def delete_row_col(self, i: int, j: int) -> "IntMatrix":
        rows = [
            [self.at(r, c) for c in range(self.cols) if c != j]
            for r in range(self.rows)
            if r != i
        ]
        return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class SmithForm:
    """Smith normal form ``left @ a @ right == diag`` with unimodular transforms.

    ``diagonal`` has length ``min(rows, cols)``; its nonzero entries come
    first and each divides the next.
    """

    diagonal: tuple
    left: IntMatrix
    right: IntMatrix


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    return bareiss_det(m.to_rows())


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_char(char: int) -> None:
    """Reject a characteristic that is neither 0 nor a prime."""
    if char != 0 and not is_prime(char):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form with explicit unimodular transforms."""
    n, c = m.rows, m.cols
    a = m.to_rows()
    left = IntMatrix.identity(n).to_rows()
    right = IntMatrix.identity(c).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def addmul_row(i, j, q):
        # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        left[i] = [x + q * y for x, y in zip(left[i], left[j])]

    def addmul_col(i, j, q):
        # col i += q * col j
        for row in a:
            row[i] += q * row[j]
        for row in right:
            row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

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
    return SmithForm(diag, IntMatrix.from_rows(left), IntMatrix.from_rows(right))


def solve_integer(m: IntMatrix, b):
    """Some integer solution of ``m @ x = b``, or None if there is none."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    snf = smith_normal_form(m)
    ub = snf.left.mul_vec(tuple(b))
    y = [0] * m.cols
    r = len(snf.diagonal)
    for i in range(m.rows):
        d = snf.diagonal[i] if i < r else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d:
                return None
            if i < m.cols:
                y[i] = ub[i] // d
    x = snf.right.mul_vec(tuple(y))
    check = m.mul_vec(x)
    if tuple(check) != tuple(b):
        return None
    return x
