"""Small exact linear algebra helpers.

GF(2) matrices are lists of int bit masks, one mask per row (bit j = column j).
Integer matrices are lists of lists of ints.
"""

from __future__ import annotations

from collections import Counter


def f2_rank(rows: list[int]) -> int:
    """Rank over GF(2); rows are bit masks."""
    basis: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            lead = cur.bit_length() - 1
            if lead in basis:
                cur ^= basis[lead]
            else:
                basis[lead] = cur
                break
    return len(basis)


def f2_is_invertible(rows: list[int], ncols: int) -> bool:
    return len(rows) == ncols and f2_rank(rows) == ncols


def f2_solve(rows: list[int], rhs: int, ncols: int) -> int:
    """Solve M x = b over GF(2); bit i of rhs is b[i].

    Returns a solution as a bit mask over the ncols columns (free columns set
    to zero).  Raises ValueError if inconsistent.
    """
    m = len(rows)
    aug = [rows[i] | (((rhs >> i) & 1) << ncols) for i in range(m)]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if (aug[i] >> c) & 1), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        for i in range(m):
            if i != r and (aug[i] >> c) & 1:
                aug[i] ^= aug[r]
        pivot_of_col[c] = r
        r += 1
    for i in range(r, m):
        if aug[i] >> ncols:
            raise ValueError("inconsistent linear system over GF(2)")
    x = 0
    for c, pr in pivot_of_col.items():
        if (aug[pr] >> ncols) & 1:
            x |= 1 << c
    return x


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(m, n) nonnegative entries d1 | d2 | ... (zeros trailing).
    Plain row/column reduction; fine for the small matrices used here.
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
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            # clear the pivot column by row operations
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
            # clear the pivot row by column operations
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        done = False
            if not done:
                continue
            # pivot must divide every remaining entry; if not, fold the
            # offending row in and reduce again
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n):
                a[t][j] += a[offender][j]
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


def abelian_invariants(
    relations: list[list[int]], ngens: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Invariants of Z^ngens modulo the row span of ``relations``.

    Returns (free_rank, torsion); torsion holds (order, multiplicity) pairs
    for the invariant factors > 1, orders distinct and ascending.
    """
    if not relations:
        return ngens, ()
    for row in relations:
        if len(row) != ngens:
            raise ValueError("relation width does not match generator count")
    diag = smith_diagonal(relations)
    nonzero = [d for d in diag if d != 0]
    free = ngens - len(nonzero)
    torsion = Counter(d for d in nonzero if d > 1)
    return free, tuple(sorted(torsion.items()))
