"""Exact elimination kernels.

These are the hot inner loops of the package: every homology rank, tree
count and reduced-Laplacian inverse bottoms out here.

All arithmetic is exact.  ``sparse_rank`` works on a column-major sparse
matrix (a list of ``{row: value}`` dicts) and performs fraction-free
Gaussian elimination: with a unit pivot the update is division-free, and
with a general pivot the row is cross-multiplied and re-normalized by its
gcd, which keeps entry growth tame on the incidence-like matrices we feed
it.  Over GF(p) the elimination is ordinary modular reduction.  Each pivot
comes from a shortest remaining row, so it is found without scanning the
whole matrix.
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
    colrows = {}
    for r, row in rows.items():
        for c in row:
            colrows.setdefault(c, set()).add(r)

    rank = 0
    while rows:
        # Pivot from a shortest row: a unit entry over Q first, then the
        # column with the fewest rows, then the smallest |v|.
        _, r = min(zip(map(len, rows.values()), rows))
        prow = rows.pop(r)
        if p:
            c = min(prow, key=lambda c: len(colrows[c]))
        else:
            c = min(prow, key=lambda c: (prow[c] not in (1, -1), len(colrows[c]), abs(prow[c])))
        pv = prow[c]
        for cc in prow:
            s = colrows[cc]
            s.discard(r)
            if not s:
                del colrows[cc]
        rank += 1

        victims = list(colrows.get(c, ()))
        for r2 in victims:
            row2 = rows[r2]
            f = row2[c]
            if p:
                mult = (f * pow(pv, -1, p)) % p
                for cc, vv in prow.items():
                    nv = (row2.get(cc, 0) - mult * vv) % p
                    _put(colrows, row2, r2, cc, nv)
            elif pv == 1 or pv == -1:
                mult = f * pv
                for cc, vv in prow.items():
                    nv = row2.get(cc, 0) - mult * vv
                    _put(colrows, row2, r2, cc, nv)
            else:
                # row2 <- pv*row2 - f*prow, then strip the content gcd.
                for cc in row2:
                    if cc not in prow:
                        row2[cc] *= pv
                for cc, vv in prow.items():
                    nv = pv * row2.get(cc, 0) - f * vv
                    _put(colrows, row2, r2, cc, nv)
                g = 0
                for vv in row2.values():
                    g = gcd(g, vv)
                if g > 1:
                    for cc in row2:
                        row2[cc] //= g
            if not row2:
                del rows[r2]
    return rank


def _put(colrows, row, r, c, v):
    if v:
        if c not in row:
            colrows.setdefault(c, set()).add(r)
        row[c] = v
    elif c in row:
        del row[c]
        s = colrows[c]
        s.discard(r)
        if not s:
            del colrows[c]


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
