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
