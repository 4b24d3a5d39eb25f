"""F2 linear algebra and Smith normal form against independent oracles."""

from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from kleinforge.linalg import (
    abelian_invariants,
    f2_is_invertible,
    f2_rank,
    f2_solve,
    smith_diagonal,
)


def test_f2_rank_examples():
    # rows are bitmask ints, bit i = column i
    assert f2_rank([]) == 0
    assert f2_rank([0b1, 0b10, 0b11]) == 2
    assert f2_rank([0b101, 0b011, 0b110]) == 2
    assert f2_rank([1, 2, 4, 8]) == 4


def test_f2_invertible():
    assert f2_is_invertible([0b01, 0b10], 2)
    assert not f2_is_invertible([0b01, 0b01], 2)
    assert f2_is_invertible([0b11, 0b01], 2)


def test_f2_solve_reproduces_rhs():
    rows = [0b011, 0b110, 0b100]
    x = f2_solve(rows, 0b010, 3)
    # multiply back: entry j of A x is parity of row_j AND x
    out = 0
    for j, row in enumerate(rows):
        if bin(row & x).count("1") % 2:
            out |= 1 << j
    assert out == 0b010


def test_f2_solve_rejects_inconsistent():
    with pytest.raises(ValueError):
        f2_solve([0b01, 0b01], 0b10, 2)


def _span(vectors):
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


# up to 6 rows of up to 6 columns: (ncols, rows)
f2_systems = st.integers(1, 6).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols), st.lists(st.integers(0, (1 << ncols) - 1), max_size=6)
    )
)


@given(f2_systems)
def test_f2_rank_matches_brute_force_span(system):
    ncols, rows = system
    assert 1 << f2_rank(rows) == len(_span(rows))


@given(f2_systems, st.integers(0, 63))
def test_f2_solve_returns_the_solution_on_the_pivot_columns(system, rhs):
    ncols, rows = system
    rhs &= (1 << len(rows)) - 1

    def apply(x):
        return sum(((row & x).bit_count() & 1) << i for i, row in enumerate(rows))

    solutions = [x for x in range(1 << ncols) if apply(x) == rhs]
    if not solutions:
        with pytest.raises(ValueError):
            f2_solve(rows, rhs, ncols)
        return
    # column c is a pivot column when it is not in the span of the columns before it
    cols = [sum(((row >> c) & 1) << i for i, row in enumerate(rows)) for c in range(ncols)]
    pivots = sum(1 << c for c in range(ncols) if cols[c] not in _span(cols[:c]))
    (expected,) = [x for x in solutions if not x & ~pivots]
    assert f2_solve(rows, rhs, ncols) == expected


matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(matrices)
def test_smith_diagonal_matches_sympy(rows):
    ours = [d for d in smith_diagonal([list(r) for r in rows]) if d != 0]
    ref = smith_normal_form(sympy.Matrix(rows))
    theirs = [abs(ref[i, i]) for i in range(min(ref.shape)) if ref[i, i] != 0]
    assert ours == theirs


@given(matrices)
def test_smith_divisibility_chain(rows):
    diag = [d for d in smith_diagonal([list(r) for r in rows]) if d != 0]
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


def test_abelian_invariants_klein_bottle_relations():
    # <a, b | abab^-1> abelianized: 2a = 0
    rank, torsion = abelian_invariants([[2, 0]], ngens=2)
    assert (rank, torsion) == (1, ((2, 1),))


def test_abelian_invariants_ignore_zero_relations():
    rows = [[0, 0, 0], [2, 0, 0], [0, 0, 0], [0, 4, 6], [0, 0, 0]]
    assert abelian_invariants(rows, ngens=3) == (1, ((2, 2),))
    assert abelian_invariants([[0, 0, 0]] * 3, ngens=3) == (3, ())


def test_abelian_invariants_trivializing_relations():
    rank, torsion = abelian_invariants([[1, 0], [0, 1]], ngens=2)
    assert (rank, torsion) == (0, ())


@given(matrices)
def test_abelian_invariants_match_sympy_snf(rows):
    ngens = len(rows[0])
    rank, torsion = abelian_invariants([list(r) for r in rows], ngens)
    ref = smith_normal_form(sympy.Matrix(rows))
    diag = [abs(ref[i, i]) for i in range(min(ref.shape))]
    nonzero = [d for d in diag if d != 0]
    assert rank == ngens - len(nonzero)
    assert torsion == tuple(sorted(Counter(d for d in nonzero if d > 1).items()))


def test_smith_handles_zero_matrix():
    assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
    rank, torsion = abelian_invariants([[0, 0]], ngens=2)
    assert (rank, torsion) == (2, ())


def test_smith_large_entries_stay_exact():
    # numpy would overflow here; the implementation must stay in Python ints
    big = 2**70
    diag = smith_diagonal([[big, 0], [0, 3 * big]])
    assert [d for d in diag if d] == [big, 3 * big]
    assert not isinstance(diag[0], np.integer)


def test_smith_diagonal_is_a_divisibility_chain_when_elimination_is_not():
    # elimination stops at diag(2, 3); the chain is (gcd, lcm) = (1, 6)
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[0, 0, 0], [0, 4, 0], [0, 0, 6]]) == [2, 12, 0]


def test_smith_entries_stay_small(time_limit):
    # swapping in each remainder as it appeared let this matrix's entries
    # grow past 4,000 digits before the form was reached
    mat = [
        [-28, -21, 0, -32, 0],
        [31, 33, -9, 22, -14],
        [37, -34, 0, 24, -37],
        [0, -18, 22, 0, -12],
    ]
    with time_limit(1.0):
        assert smith_diagonal(mat) == [1, 1, 1, 2]
