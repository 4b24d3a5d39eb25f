"""Mod-2 cohomology ring of K_n: frozen tables, ring laws, Steenrod axioms.

The independent oracle multiplies in the free polynomial ring Z2[R, V_i]
and only then rewrites with R^2 = 0 and V_i^2 = R V_i; cup works directly
on the reduced basis, so agreement is meaningful.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinforge import cohomology_f2 as coh
from kleinforge.errors import CapacityError, FeasibilityError
from kleinforge.verification import (
    check_cup_length_duality,
    check_ring_oracle,
    cup_free_reduction,
)


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


def loop_basis(n, d):
    """basis(n, d) built a key at a time over itertools.combinations, kept as
    the reference for the array build."""
    out = []
    for eps in (0, 1):
        k = d - eps
        if not 0 <= k <= n - 1:
            continue
        for vs in itertools.combinations(range(1, n), k):
            key = eps
            for i in vs:
                key |= 1 << i
            out.append(key)
    return out


@pytest.mark.parametrize("n", [*range(1, 17), 19])
def test_basis_matches_the_combinations_loop(n):
    for d in range(-1, n + 2):
        keys = coh.basis(n, d)
        assert keys == loop_basis(n, d), (n, d)
        assert all(type(k) is int for k in keys)


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


# ------------------------------------------------------- monomial texts

@pytest.mark.parametrize("n", range(1, 17))
def test_monomial_texts_match_the_one_key_formatter(n):
    assert coh.monomial_texts(n) == [coh.monomial_text(k) for k in range(1 << n)]


def test_monomial_texts_at_the_basis_budget():
    n = 19  # 2^19 keys, the largest ring the basis budget admits
    texts = coh.monomial_texts(n)
    assert len(texts) == 1 << n
    rng = np.random.default_rng(0)
    keys = {0, (1 << n) - 1, *(1 << i for i in range(n)), *rng.integers(0, 1 << n, 10_000).tolist()}
    for key in keys:
        assert texts[key] == coh.monomial_text(key), key
    assert texts[(1 << n) - 1] == "R*" + "*".join(f"V{i}" for i in range(1, n))


def test_monomial_texts_are_refused_before_any_are_built():
    with pytest.raises(FeasibilityError) as basis_error:
        coh.basis(20, 1)
    tracemalloc.start()
    try:
        with pytest.raises(FeasibilityError) as texts_error:
            coh.monomial_texts(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(texts_error.value) == str(basis_error.value)
    assert peak < 1e6, peak


# ------------------------------------------------------- the product rule

def scalar_key_mul(k1, k2):
    """The closed form on two packed monomials, one pair at a time; None for zero."""
    e = (k1 & 1) + (k2 & 1) + ((k1 >> 1) & (k2 >> 1)).bit_count()
    return None if e >= 2 else ((k1 | k2) >> 1 << 1) | e


def idempotent_products(k1, k2):
    """The rule without its |S & T| term, so V^2 = V and products of V's never vanish."""
    e = (k1 & 1) + (k2 & 1)
    return np.where(e < 2, ((k1 | k2) >> 1 << 1) | e, coh._ZERO)


def test_key_products_match_the_scalar_rule_on_every_pair_to_n8():
    # the keys of K_8 hold those of every smaller n
    keys = np.arange(1 << 8, dtype=np.uint64)
    got = coh._key_products(keys[:, None], keys[None, :])
    expected = [
        [coh._ZERO if k is None else k for k in (scalar_key_mul(a, b) for b in range(256))]
        for a in range(256)
    ]
    assert got.dtype == np.uint64
    assert got.tolist() == np.array(expected, dtype=np.uint64).tolist()


def test_key_products_at_the_largest_dimension():
    top = (1 << coh.MAX_DIMENSION) - 1  # R * V1 ... V62
    v_all = top - 1
    k1 = np.array([top, top, v_all, v_all, 1, 1 << 62], dtype=np.uint64)
    k2 = np.array([0, top, 1, v_all, 1 << 62, 1 << 62], dtype=np.uint64)
    expected = [scalar_key_mul(a, b) for a, b in zip(k1.tolist(), k2.tolist())]
    assert expected == [top, None, top, None, 1 | 1 << 62, 1 | 1 << 62]
    got = coh._key_products(k1, k2).tolist()
    assert got == [coh._ZERO if k is None else k for k in expected]
    assert int(coh._ZERO) > top, "the zero sentinel is no key of any K_n"


def big_class(keys):
    return coh.CohomologyClass(coh.MAX_DIMENSION, frozenset(keys))


@given(
    st.lists(
        st.tuples(
            st.sets(st.integers(0, 2**63 - 1), max_size=4),
            st.sets(st.integers(0, 2**63 - 1), max_size=4),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_class_products_are_cups_per_owner_up_to_n63(pairs):
    def rows(side):
        owned = [(o, k) for o, pair in enumerate(pairs) for k in pair[side]]
        return np.array([o for o, _ in owned], np.intp), np.array([k for _, k in owned], np.uint64)

    # the a side need not be in owner order, so it comes reversed
    owner, keys = coh._class_products(*(r[::-1] for r in rows(0)), *rows(1))
    got = {}
    for o, k in zip(owner.tolist(), keys.tolist()):
        got.setdefault(o, set()).add(k)
    for o, (a, b) in enumerate(pairs):
        expected = cup_free_reduction(big_class(a), big_class(b))
        assert coh.cup(big_class(a), big_class(b)) == expected
        assert frozenset(got.get(o, ())) == expected.keys, o


def test_idempotent_rule_fails_both_ring_checks(monkeypatch):
    assert check_ring_oracle(max_n=4, triples=200).passed
    assert check_cup_length_duality(max_n=4).passed
    monkeypatch.setattr(coh, "_key_products", idempotent_products)
    oracle = check_ring_oracle(max_n=4, triples=200)
    assert not oracle.passed
    assert oracle.detail.startswith("oracle mismatch at n=2: V1 * V1")
    assert not check_cup_length_duality(max_n=4).passed


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
    monkeypatch.setattr(coh, "_key_products", idempotent_products)
    with time_limit(1.0):
        assert coh.cup_length(4)[0] == 5
        check = check_cup_length_duality(max_n=4)
    assert not check.passed
    assert check.detail == "cup_length(2) = 3"


# ------------------------------------------------------- Steenrod squares

def scalar_key_sq(j, key):
    """Sq^j of one packed monomial by the parity rule; None for zero.

    Sq^1 adds R to a monomial without R and with oddly many variables, and
    kills every other one; Sq^0 is the identity and Sq^j, j >= 2, is zero.
    """
    if j == 0:
        return key
    if j >= 2 or key & 1 or (key >> 1).bit_count() % 2 == 0:
        return None
    return key | 1


def test_key_squares_match_the_scalar_rule_on_every_key_to_n12():
    # the keys of K_12 hold those of every smaller n
    keys = np.arange(1 << 12, dtype=np.uint64)
    for j in range(4):
        got = coh._key_squares(j, keys)
        assert got.dtype == np.uint64
        expected = [scalar_key_sq(j, k) for k in range(1 << 12)]
        assert got.tolist() == [coh._ZERO if k is None else k for k in expected], j


def test_key_squares_at_the_largest_dimension():
    top = (1 << coh.MAX_DIMENSION) - 1  # R * V1 ... V62
    keys = np.arange(top - 4096, top + 1, dtype=np.uint64)
    # V1 ... V62 has evenly many variables, V2 ... V62 oddly many
    assert scalar_key_sq(1, top - 1) is None
    assert scalar_key_sq(1, top - 3) == top - 2
    for j in range(4):
        expected = [scalar_key_sq(j, k) for k in keys.tolist()]
        got = coh._key_squares(j, keys).tolist()
        assert got == [coh._ZERO if k is None else k for k in expected], j


@given(
    st.integers(1, coh.MAX_DIMENSION).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, 3), st.sets(st.integers(0, 2**n - 1), max_size=40)
        )
    )
)
def test_sq_of_a_class_is_the_sum_of_its_terms_images(args):
    n, j, keys = args
    expected = set()
    for key in keys:
        image = scalar_key_sq(j, key)
        if image is not None:
            expected ^= {image}
    assert coh.sq(j, coh.CohomologyClass(n, frozenset(keys))).keys == expected


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


def test_duality_pairing_is_formed_in_bounded_memory():
    # unblocked, the degree-6 pairing of K_13 holds several 1716 x 1716
    # uint64 temporaries of 23.5 MB each; its 1716 rows of 1716 bits take 0.4 MB
    coh.basis(13, 6)  # anything cached on first use is not the pairing's
    tracemalloc.start()
    try:
        rows = coh.duality_pairing(13, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 1716
    assert peak < 3e6, peak
