"""Exact elimination kernels.

These are the hot inner loops of the package: every homology rank, tree
count and reduced-Laplacian inverse bottoms out here.

All arithmetic is exact.  ``sparse_rank`` takes a column-major sparse
matrix (a list of ``{row: value}`` dicts), turns it into a table of sparse
rows and eliminates on that table alone.  Each pivot is an entry of least
|v| in a shortest remaining row, so it is found without scanning the whole
matrix.  A unit pivot, which is every pivot over GF(p) and a +-1 over Q,
updates the other rows exactly by a multiple of the pivot row.  Over Q a
pivot of any other value cross-multiplies the row and re-normalizes it by
its gcd, which keeps entry growth tame on the incidence-like matrices we
feed it.
"""

from math import gcd

__all__ = ["sparse_rank", "bareiss", "bareiss_det", "BACKEND"]

#: Name of the kernel implementation, reported in benchmark environment stamps.
BACKEND = "_impl"


def sparse_rank(cols, p=0):
    """Rank of an integer matrix given as sparse columns.

    ``p = 0`` computes the rank over the rationals, a prime ``p`` the rank
    over GF(p).  Primality of ``p`` is the caller's responsibility.
    """
    rows = {}
    for c, col in enumerate(cols):
        for r, v in col.items():
            if p:
                v %= p
            if v:
                rows.setdefault(r, {})[c] = v

    rank = 0
    while rows:
        # Pivot at a least |v| of a shortest row: over Q that is a +-1
        # whenever the row holds one.
        _, r = min(zip(map(len, rows.values()), rows))
        prow = rows.pop(r)
        c = min(prow, key=lambda c: abs(prow[c]))
        pv = prow[c]
        unit = p or pv in (1, -1)
        inv = pow(pv, -1, p) if p else pv
        rank += 1

        for r2 in [r2 for r2, row2 in rows.items() if c in row2]:
            row2 = rows[r2]
            f = row2[c]
            if unit:
                # row2 <- row2 - (f/pv)*prow; over Q, 1/pv is pv
                mult = f * inv % p if p else f * inv
            else:
                # row2 <- pv*row2 - f*prow, then strip the content gcd
                mult = f
                for cc in row2:
                    row2[cc] *= pv
            for cc, vv in prow.items():
                nv = row2.get(cc, 0) - mult * vv
                if p:
                    nv %= p
                if nv:
                    row2[cc] = nv
                else:
                    # mult*vv is not 0, so cc was in row2
                    del row2[cc]
            if not unit:
                g = gcd(*row2.values())
                if g > 1:
                    for cc in row2:
                        row2[cc] //= g
            if not row2:
                del rows[r2]
    return rank


def bareiss(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss, *Math. Comp.* 22,
    1968) of the integer rows [A | rest], A square: ``(det A, rows)`` with
    rows [det*I | adj(A)*rest].

    Every entry stays a minor of the input, so each division is exact.  A
    zero pivot is swapped with the first row below that is non-zero in its
    column, and after an odd number of swaps the rows are negated.  A
    singular A gives ``(0, None)``.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign = prev = 1
    for k in range(n):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0, None
            a[k], a[i] = a[i], a[k]
            sign = -sign
        ak = a[k]
        pk = ak[k]
        for i in range(n):
            if i != k:
                ai = a[i]
                aik = ai[k]
                a[i] = [(pk * x - aik * y) // prev for x, y in zip(ai, ak)]
        prev = pk
    if sign < 0:
        a = [[-x for x in row] for row in a]
    return sign * prev, a


def bareiss_det(rows):
    """Exact determinant of a square integer matrix (list of rows), by
    ``bareiss``."""
    return bareiss(rows)[0]
