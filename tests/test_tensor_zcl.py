"""Zero-divisor cup length in H*(K_n x K_n) and the TC bounds built on it."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinforge import cli
from kleinforge import cohomology_f2 as coh
from kleinforge import tensor_zcl as tz


# -------------------------------------------------------- tensor structure

def outer(left, right):
    """Key pairs of left (x) right, for two classes of one K_n."""
    return {(a, b) for a in left.keys for b in right.keys}


def diagonal_restriction(pairs):
    """Pull key pairs back along the diagonal: u (x) v -> u * v."""
    acc = set()
    for a, b in pairs:
        k = coh._key_mul(a, b)
        if k is not None:
            acc ^= {k}
    return acc


def test_outer_products_multiply_componentwise():
    n = 3
    r = coh.CohomologyClass.r(n)
    v1 = coh.CohomologyClass.v(n, 1)
    v2 = coh.CohomologyClass.v(n, 2)
    lhs = tz._mul_keysets(outer(r, v1), outer(v2, v2))
    assert lhs == outer(coh.cup(r, v2), coh.cup(v1, v2))


def random_class(n):
    keys = st.sets(st.integers(0, 2**n - 1), max_size=4)
    return keys.map(lambda ks: coh.CohomologyClass(n, frozenset(ks)))


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            random_class(n), random_class(n), random_class(n), random_class(n)
        )
    )
)
def test_outer_bilinearity(quad):
    a, b, c, d = quad
    lhs = tz._mul_keysets(outer(a, b), outer(c, d))
    assert lhs == outer(coh.cup(a, c), coh.cup(b, d))


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2),
            st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1),
        )
    ).filter(lambda case: case[1] + sum(case[2]) > 0)  # the empty product is 1 (x) 1
)
def test_zero_divisors_restrict_to_zero_on_the_diagonal(case):
    # the diagonal pullback u (x) v -> u * v is a ring map that kills each
    # generator zero divisor, so it kills every product of them
    n, r, v_powers = case
    for index in range(n):
        assert not diagonal_restriction(tz._generator_keys(n, index)), (n, index)
    assert not diagonal_restriction(tz._evaluate_multiset(n, r, tuple(v_powers)))


def test_generator_zero_divisor_relations():
    for n in (2, 3, 4):
        assert not tz._evaluate_multiset(n, 2, ()), "Rbar^2 = 0 since R^2 = 0"
        assert tz._evaluate_multiset(n, 0, (3,)), "Vbar^3 survives"
        assert not tz._evaluate_multiset(n, 0, (4,)), "Vbar^4 dies"


def test_canonical_multiset_count_matches_enumeration():
    for n in range(1, 9):
        for length in range(31):
            expected = len(list(tz._canonical_multisets(n, length)))
            assert tz.count_canonical_multisets(n, length) == expected, (n, length)


def test_partition_walk_takes_no_dead_branches(monkeypatch):
    # each call yields at least one partition and a partition has at most
    # n - 1 parts, so the calls number at most n per multiset
    walk = tz._partitions
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(tz, "_partitions", counted)
    for n, length in ((2, 500), (3, 60), (6, 20)):
        calls = 0
        found = len(list(tz._canonical_multisets(n, length)))
        assert calls <= n * found, (n, length, calls, found)


# ------------------------------------------------------- exhaustive search

def test_k2_zero_divisor_length_three_not_four():
    found = tz.zcl_exhaustive(2, 3)
    assert not found.all_zero
    assert found.witness.text() == "Vbar1^3"
    assert tz.zcl_exhaustive(2, 4).all_zero


def test_vanishing_at_length_n_plus_three():
    checked = {}
    for n in range(3, 7):
        res = tz.zcl_exhaustive(n, n + 3)
        assert res.all_zero, n
        assert res.witness is None
        checked[n] = res.checked
    # canonical multiset counts; a symmetry regression would change these
    assert checked == {3: 16, 4: 31, 5: 53, 6: 83}


def test_nonzero_at_length_n_plus_two():
    for n in range(3, 7):
        res = tz.zcl_exhaustive(n, n + 2)
        assert not res.all_zero, n


def test_canonical_reduction_agrees_with_full_enumeration():
    # n=3: evaluate every (r, e1, e2) product directly and compare against
    # the canonical (sorted-exponent) evaluation of its orbit representative
    n = 3
    for length in (4, 5, 6):
        seen_nonzero = False
        for r in (0, 1):
            for e1 in range(length - r + 1):
                e2 = length - r - e1
                value = tz._evaluate_multiset(n, r, (e1, e2))
                canon = tz._evaluate_multiset(n, r, tuple(sorted((e1, e2), reverse=True)))
                assert bool(value) == bool(canon), (r, e1, e2)
                seen_nonzero |= bool(value)
        assert seen_nonzero == (not tz.zcl_exhaustive(n, length).all_zero)


# ----------------------------------------------------------------- witness

def test_witness_shape_and_anchor_term():
    for n in range(3, 7):
        factors, value = tz.zcl_witness(n)
        assert factors.length() == n + 2
        assert value
        left = 1 | sum(1 << i for i in range(1, n - 1))  # R V1..V(n-2)
        right = 1 | 1 << 1 | 1 << (n - 1)  # R V1 V(n-1)
        assert coh.monomial_text(left) == "*".join(
            ["R"] + [f"V{i}" for i in range(1, n - 1)]
        )
        assert coh.monomial_text(right) == f"R*V1*V{n - 1}"
        assert (left, right) in value, n
        assert not diagonal_restriction(value), n


def test_witness_rejects_small_n():
    with pytest.raises(ValueError):
        tz.zcl_witness(2)


# ------------------------------------------------------------------ bounds

def test_compute_zcl_values():
    assert tz.compute_zcl(2) == 3
    assert tz.compute_zcl(3) == 5
    assert tz.compute_zcl(4) == 6
    assert tz.compute_zcl(5) == 7


def test_tc_bounds_frozen():
    assert (tz.tc_bounds(2).lower, tz.tc_bounds(2).upper) == (4, 5)
    assert (tz.tc_bounds(3).lower, tz.tc_bounds(3).upper) == (6, 7)
    b4 = tz.tc_bounds(4)
    assert (b4.lower, b4.upper) == (7, 9)
    assert b4.zcl == 6
    assert "exhaustive-search" in b4.method


def test_tc_bounds_general_shape():
    for m in (2, 3, 4, 5):
        b = tz.tc_bounds(m)
        assert b.upper == 2 * m + 1
        assert b.lower == b.zcl + 1
        assert b.lower <= b.upper


def test_tc_json_shape(capsys):
    assert cli.main(["tc", "--m", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "schema": "1",
        "m": 3,
        "zcl": 5,
        "lower": 6,
        "upper": 7,
        "method": data["method"],
    }


def test_search_result_json(capsys):
    assert cli.main(["zcl", "--n", "3", "--max-len", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_zero"] is True
    assert data["witness"] is None
    assert data["checked"] == 16
