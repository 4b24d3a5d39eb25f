"""Mod-2 cohomology ring of K_n: frozen tables, ring laws, Steenrod axioms.

The independent oracle multiplies in the free polynomial ring Z2[R, V_i]
and only then rewrites with R^2 = 0 and V_i^2 = R V_i; cup works directly
on the reduced basis, so agreement is meaningful.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinforge import cohomology_f2 as coh
from kleinforge.errors import CapacityError, FeasibilityError
from kleinforge.verification import check_cup_length_duality, cup_free_reduction


def klass(n, *texts):
    """Build a class from monomial texts like "R*V1" (test shorthand)."""
    keys = set()
    for text in texts:
        key = 0
        for factor in text.split("*"):
            if factor == "R":
                key |= 1
            elif factor != "1":
                key |= 1 << int(factor[1:])
        keys ^= {key}
    return coh.CohomologyClass(n, frozenset(keys))


# ----------------------------------------------------------- frozen tables

def test_poincare_polynomial_n4():
    assert coh.poincare_polynomial(4) == [1, 4, 6, 4, 1]


def test_poincare_polynomial_closed_form():
    for n in range(1, 11):
        dims = coh.poincare_polynomial(n)
        assert dims[0] == 1
        for d in range(1, n + 1):
            assert dims[d] == math.comb(n - 1, d) + math.comb(n - 1, d - 1)
        assert dims == dims[::-1], "K_n satisfies duality, dims palindromic"
        assert sum(dims) == 2**n
        assert [len(coh.basis(n, d)) for d in range(n + 1)] == dims


def test_basis_order_is_v_block_then_r_block():
    assert [coh.monomial_text(k) for k in coh.basis(4, 1)] == ["V1", "V2", "V3", "R"]
    assert [coh.monomial_text(k) for k in coh.basis(4, 2)] == [
        "V1*V2", "V1*V3", "V2*V3", "R*V1", "R*V2", "R*V3",
    ]
    assert [coh.monomial_text(k) for k in coh.basis(4, 4)] == ["R*V1*V2*V3"]
    degree_2 = coh.CohomologyClass(4, frozenset(coh.basis(4, 2)))
    assert degree_2.sorted_keys() == coh.basis(4, 2)


def test_class_keys_must_be_monomials_of_k_n():
    coh.CohomologyClass(3, frozenset({0, 7}))  # the unit and the top monomial
    for key in (-1, 8):
        with pytest.raises(ValueError):
            coh.CohomologyClass(3, frozenset({key}))


def test_enumeration_budgets_are_checked_before_any_work():
    with pytest.raises(FeasibilityError):
        coh.basis(30, 1)  # 2^30 basis monomials in the whole ring
    with pytest.raises(FeasibilityError):
        coh.duality_pairing(16, 8)  # C(16, 8)^2 entries
    with pytest.raises(CapacityError):
        coh.basis(64, 1)


# ------------------------------------------------------------ cup product

def test_cup_defining_relations():
    n = 4
    r = coh.CohomologyClass.r(n)
    v1 = coh.CohomologyClass.v(n, 1)
    assert (r * r).is_zero()
    assert (v1 * v1).text() == "R*V1"
    # char 2: (R + V1)^2 = R^2 + V1^2 = R V1
    s = r + v1
    assert (s * s).text() == "R*V1"


def test_cup_kills_cubes_of_generators():
    n = 5
    v2 = coh.CohomologyClass.v(n, 2)
    assert (v2 * v2 * v2).is_zero(), "V^3 = R^2 V = 0"


def test_cup_agrees_with_free_reduction_on_all_basis_pairs():
    for n in range(1, 5):
        keys = [k for d in range(n + 1) for k in coh.basis(n, d)]
        for a in keys:
            for b in keys:
                x = coh.CohomologyClass(n, frozenset({a}))
                y = coh.CohomologyClass(n, frozenset({b}))
                assert coh.cup(x, y) == cup_free_reduction(x, y), (
                    coh.monomial_text(a), coh.monomial_text(b)
                )


def random_class(n):
    keys = st.sets(st.integers(0, 2**n - 1), max_size=5)
    return keys.map(lambda ks: coh.CohomologyClass(n, frozenset(ks)))


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(random_class(n), random_class(n))))
def test_cup_commutes_and_matches_oracle(pair):
    a, b = pair
    for c in pair:
        assert coh.CohomologyClass(c.n, frozenset(c.sorted_keys())) == c
    assert coh.cup(a, b) == coh.cup(b, a)
    assert coh.cup(a, b) == cup_free_reduction(a, b)


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(random_class(n), random_class(n), random_class(n))
    )
)
def test_cup_ring_laws(triple):
    a, b, c = triple
    assert coh.cup(coh.cup(a, b), c) == coh.cup(a, coh.cup(b, c))
    assert coh.cup(a, b + c) == coh.cup(a, b) + coh.cup(a, c)
    one = coh.CohomologyClass.one(a.n)
    assert coh.cup(one, a) == a


def test_top_class_and_cup_length():
    for n in range(1, 9):
        length, witness = coh.cup_length(n)
        assert length == n
        assert len(witness) == n
        prod = coh.CohomologyClass.one(n)
        for w in witness:
            assert w.degree() == 1
            prod = prod * w
        assert coh.top_coefficient(prod) == 1


def test_cup_length_stops_when_the_product_is_not_nilpotent(monkeypatch, time_limit):
    # drop the |S & T| term, so V^2 = V and products of V's never vanish
    def idempotent_mul(k1, k2):
        e = (k1 & 1) + (k2 & 1)
        return None if e >= 2 else ((k1 | k2) >> 1 << 1) | e

    monkeypatch.setattr(coh, "_key_mul", idempotent_mul)
    with time_limit(1.0):
        assert coh.cup_length(4)[0] == 5
        check = check_cup_length_duality(max_n=4)
    assert not check.passed
    assert check.detail == "cup_length(2) = 3"


# ------------------------------------------------------- Steenrod squares

def test_sq1_on_generators():
    n = 4
    assert coh.sq(1, coh.CohomologyClass.v(n, 1)).text() == "R*V1"
    assert coh.sq(1, coh.CohomologyClass.r(n)).is_zero()
    assert coh.sq(1, klass(n, "V1*V2")).is_zero()
    assert coh.sq(1, klass(n, "V1*V2*V3")).text() == "R*V1*V2*V3"
    assert coh.sq(1, klass(n, "R*V1")).is_zero()


def test_sq_axioms_on_basis():
    for n in range(2, 6):
        for d in range(n + 1):
            for key in coh.basis(n, d):
                x = coh.CohomologyClass(n, frozenset({key}))
                assert coh.sq(0, x) == x
                assert coh.sq(d, x) == coh.cup(x, x)
                for j in range(d + 1, n + 2):
                    assert coh.sq(j, x).is_zero()


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), random_class(n), random_class(n))
    )
)
def test_sq1_is_a_derivation(args):
    n, a, b = args
    lhs = coh.sq(1, coh.cup(a, b))
    rhs = coh.cup(coh.sq(1, a), b) + coh.cup(a, coh.sq(1, b))
    assert lhs == rhs


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 5), random_class(n), random_class(n))
    )
)
def test_cartan_formula(args):
    n, j, a, b = args
    lhs = coh.sq(j, coh.cup(a, b))
    rhs = coh.CohomologyClass.zero(n)
    for i in range(j + 1):
        rhs = rhs + coh.cup(coh.sq(i, a), coh.sq(j - i, b))
    assert lhs == rhs


# ---------------------------------------------------------------- duality

def test_duality_pairing_frozen_n2():
    # basis in degree 1 is (V1, R); top class is R V1
    assert coh.duality_pairing(2, 1) == [0b11, 0b01]


def test_duality_pairing_nonsingular():
    from kleinforge.linalg import f2_is_invertible

    for n in range(1, 9):
        for d in range(n + 1):
            rows = coh.duality_pairing(n, d)
            assert f2_is_invertible(rows, len(rows)), (n, d)
