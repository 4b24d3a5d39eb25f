"""Zero-divisor cup length in H*(K_n x K_n) and the TC bounds built on it."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinforge import cli
from kleinforge import cohomology_f2 as coh
from kleinforge import tensor_zcl as tz
from kleinforge import verification as vf


# -------------------------------------------------------- tensor structure

def diagonal_restriction(pairs):
    """Pull key pairs back along the diagonal: u (x) v -> u * v."""
    acc = set()
    for a, b in pairs:
        k = coh._key_mul(a, b)
        if k is not None:
            acc ^= {k}
    return acc


def subset_split(n, r, v_powers):
    """The product by the independent route: the public cup product on
    every split of the factors between the two sides."""
    classes = [coh.CohomologyClass.r(n)] * r
    for i, e in enumerate(v_powers, start=1):
        classes += [coh.CohomologyClass.v(n, i)] * e
    return vf.expand_zero_divisor_product(n, classes)


def test_factored_product_matches_subset_split_expansion():
    cases = [(n, length) for n in range(2, 5) for length in range(1, 2 * n + 2)]
    cases += [(5, length) for length in range(1, 9)]
    for n, length in cases:
        for r, parts in tz._canonical_multisets(n, length):
            expected = subset_split(n, r, parts)
            assert tz._expand(r, parts) == expected, (n, r, parts)
            assert tz._nonzero(r, parts) == bool(expected), (n, r, parts)


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2),
            st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1),
        )
    )
)
def test_factored_product_matches_subset_split_on_unsorted_exponents(case):
    n, r, v_powers = case
    expected = subset_split(n, r, v_powers)
    assert tz._expand(r, tuple(v_powers)) == expected
    assert tz._nonzero(r, tuple(v_powers)) == bool(expected)


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
    generators = [(1, ())] + [(0, (0,) * (i - 1) + (1,)) for i in range(1, n)]
    for g in generators:
        assert not diagonal_restriction(tz._expand(*g)), (n, g)
    assert not diagonal_restriction(tz._expand(r, tuple(v_powers)))


def test_generator_zero_divisor_relations():
    for n in (2, 3, 4):
        last = (0,) * (n - 2)  # powers of Vbar_(n-1)
        assert not tz._nonzero(2, last), "Rbar^2 = 0 since R^2 = 0"
        assert tz._nonzero(0, last + (3,)), "Vbar^3 survives"
        assert not tz._nonzero(0, last + (4,)), "Vbar^4 dies"
        assert not tz._expand(2, last)
        assert tz._expand(0, last + (3,))
        assert not tz._expand(0, last + (4,))


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


def test_search_records_of_the_exhaustive_route_at_m18():
    found = tz.zcl_exhaustive(18, 20)
    assert not found.all_zero
    assert (found.witness.rbar, found.witness.v_powers) == (0, (3, 2) + (1,) * 15)
    assert found.checked == 615
    vanished = tz.zcl_exhaustive(18, 21)
    assert vanished.all_zero and vanished.witness is None
    assert vanished.checked == 3492


def test_compute_zcl_is_m_plus_2_up_to_the_term_budget():
    assert [tz.compute_zcl(m) for m in range(3, 23)] == list(range(5, 25))


def test_canonical_reduction_agrees_with_full_enumeration():
    # n=3: evaluate every (r, e1, e2) product directly and compare against
    # the canonical (sorted-exponent) evaluation of its orbit representative
    n = 3
    for length in (4, 5, 6):
        seen_nonzero = False
        for r in (0, 1):
            for e1 in range(length - r + 1):
                e2 = length - r - e1
                value = tz._nonzero(r, (e1, e2))
                canon = tz._nonzero(r, tuple(sorted((e1, e2), reverse=True)))
                assert value == canon, (r, e1, e2)
                seen_nonzero |= value
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
