"""Small exact linear algebra helpers.

GF(2) matrices are lists of int bit masks, one mask per row (bit j = column j).
Integer matrices are lists of lists of ints.
"""

from __future__ import annotations

from collections import Counter
from math import gcd


def _f2_echelon(rows: list[int], ncols: int) -> tuple[dict[int, int], bool]:
    """Row-reduce GF(2) bit rows on their first ``ncols`` columns.

    Each row is reduced until its lowest set bit below ``ncols`` is a new
    pivot; bits at ``ncols`` and above ride along.  Returns {pivot column:
    row} and whether some row reduced to zero below ``ncols`` but not above.
    Lowest-bit pivots are the columns outside the span of the columns before
    them, the pivot columns of a left-to-right Gauss-Jordan pass.
    """
    low_bits = (1 << ncols) - 1
    pivots: dict[int, int] = {}
    leftover = False
    for row in rows:
        while row & low_bits:
            col = (row & -row).bit_length() - 1
            if col not in pivots:
                pivots[col] = row
                break
            row ^= pivots[col]
        else:
            leftover = leftover or row != 0
    return pivots, leftover


def f2_rank(rows: list[int]) -> int:
    """Rank over GF(2); rows are bit masks."""
    return len(_f2_echelon(rows, max(rows, default=0).bit_length())[0])


def f2_is_invertible(rows: list[int], ncols: int) -> bool:
    return len(rows) == ncols and f2_rank(rows) == ncols


def f2_solve(rows: list[int], rhs: int, ncols: int) -> int:
    """Solve M x = b over GF(2); bit i of rhs is b[i].

    Returns a solution as a bit mask over the ncols columns (free columns set
    to zero).  Raises ValueError if inconsistent.
    """
    aug = [row | ((rhs >> i) & 1) << ncols for i, row in enumerate(rows)]
    pivots, leftover = _f2_echelon(aug, ncols)
    if leftover:
        raise ValueError("inconsistent linear system over GF(2)")
    # a pivot row holds x_col plus higher columns, all solved before it
    x = 0
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        if ((row >> ncols) + (row & x).bit_count()) & 1:
            x |= 1 << col
    return x


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(m, n) nonnegative entries d1 | d2 | ... (zeros trailing).
    Plain row/column reduction that pivots afresh on the smallest nonzero
    entry left after every round, so entries stay small; fine for the small
    matrices used here.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        # move the smallest nonzero entry left to (t, t), then reduce its
        # column by row operations and its row by column operations
        piv = min(
            ((abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n) if a[i][j]),
            default=None,
        )
        if piv is None:
            break
        _, i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        p = a[t][t]
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                for j in range(t, n):
                    a[i][j] -= q * a[t][j]
        for j in range(t + 1, n):
            q = a[t][j] // p
            if q:
                for i in range(t, m):
                    a[i][j] -= q * a[i][t]
        # a remainder left in the row or column is smaller than p: pick again
        if not any(a[i][t] for i in range(t + 1, m)) and not any(a[t][t + 1:]):
            diag.append(abs(p))
            t += 1
    diag += [0] * (min(m, n) - len(diag))
    # any order of the diagonal presents the same group, and so does
    # (d_i, d_j) -> (gcd, lcm); one pass of these makes the chain
    # d1 | d2 | ..., with zeros last since gcd(d, 0) = d
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            if g:
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def abelian_invariants(
    relations: list[list[int]], ngens: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Invariants of Z^ngens modulo the row span of ``relations``.

    Returns (free_rank, torsion); torsion holds (order, multiplicity) pairs
    for the invariant factors > 1, orders distinct and ascending.
    """
    for row in relations:
        if len(row) != ngens:
            raise ValueError("relation width does not match generator count")
    # a zero relation spans nothing
    diag = smith_diagonal([row for row in relations if any(row)])
    nonzero = [d for d in diag if d != 0]
    free = ngens - len(nonzero)
    torsion = Counter(d for d in nonzero if d > 1)
    return free, tuple(sorted(torsion.items()))
