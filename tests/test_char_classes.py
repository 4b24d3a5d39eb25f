"""Wu and Stiefel-Whitney classes of K_n, plus the manifold summary."""

import json

import pytest

from kleinforge import char_classes as cc
from kleinforge import cli
from kleinforge import cohomology_f2 as coh


def test_wu_defining_property():
    # v_k is the unique class with <v_k x, [M]> = <Sq^k x, [M]> for all x
    for n in range(1, 8):
        wu = cc.wu_classes(n)
        assert len(wu) == n + 1
        for k in range(n + 1):
            vk = wu[k]
            for key in coh.basis(n, n - k):
                x = coh.CohomologyClass(n, frozenset({key}))
                lhs = coh.top_coefficient(coh.cup(vk, x))
                rhs = coh.top_coefficient(coh.sq(k, x))
                assert lhs == rhs, (n, k, coh.monomial_text(key))


def test_wu_vanish_above_half_dimension():
    for n in range(1, 9):
        for k, vk in enumerate(cc.wu_classes(n)):
            if 2 * k > n:
                assert vk.is_zero(), (n, k)


def test_stiefel_whitney_is_sq_of_wu():
    for n in range(1, 8):
        wu = cc.wu_classes(n)
        sw = cc.stiefel_whitney(n)
        for k in range(n + 1):
            total = coh.CohomologyClass.zero(n)
            for i in range(k + 1):
                total = total + coh.sq(i, wu[k - i])
            assert sw[k] == total, (n, k)


def test_stiefel_whitney_values():
    r2 = coh.CohomologyClass.r(2)
    assert [w.text() for w in cc.stiefel_whitney(2)] == ["1", "R", "0"]
    assert cc.stiefel_whitney(2)[1] == r2
    for n in range(1, 11):
        for k, wk in enumerate(cc.stiefel_whitney(n)):
            if k == 0:
                assert wk == coh.CohomologyClass.one(n)
            elif k == 1 and n % 2 == 0:
                assert wk == coh.CohomologyClass.r(n)
            else:
                assert wk.is_zero(), (n, k)


def test_report_orientability_alternates():
    for n in range(2, 9):
        report = cc.manifold_report(n)
        assert report.orientable == (n % 2 == 1)
        assert report.parallelizable == (n % 2 == 1)


def test_report_frozen_rows():
    r2 = cc.manifold_report(2)
    assert (r2.span, r2.immersion_dim, r2.embedding_dim, r2.category) == (1, 3, 4, 2)
    r4 = cc.manifold_report(4)
    assert (r4.span, r4.immersion_dim, r4.embedding_dim, r4.category) == (3, 5, 6, 4)
    r5 = cc.manifold_report(5)
    assert (r5.span, r5.immersion_dim, r5.embedding_dim) == (5, 6, 6)


def test_report_internal_consistency():
    for n in range(2, 9):
        report = cc.manifold_report(n)
        assert report.category == n
        assert (report.span == n) == report.parallelizable
        assert n <= report.immersion_dim <= report.embedding_dim
        assert set(report.provenance) == {
            "orientable", "parallelizable", "span", "immersion_dim",
            "embedding_dim", "category",
        }
        assert report.provenance["orientable"].startswith("computed")
        assert report.provenance["category"].startswith("computed")


def test_report_json_round_trip_shape(capsys):
    assert cli.main(["manifold", "--n", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 3
    assert data["orientable"] is True
    assert isinstance(data["provenance"], dict)


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        cc.manifold_report(0)
