"""Integral cohomology, the stable wedge splitting, and their consistency."""

import json

import pytest

from kleinforge import cli
from kleinforge import cohomology_f2 as coh
from kleinforge import integral_splitting as ints
from kleinforge.abelian import AbelianGroup
from kleinforge.fundamental_group import abelianization


def test_classical_klein_bottle():
    assert [g.text() for g in ints.integral_cohomology(2)] == ["Z", "Z", "Z/2"]
    assert ints.homology_from_splitting(2)[1] == AbelianGroup(1, ((2, 1),))


def test_abelian_group_torsion_is_distinct_ascending_pairs():
    g = AbelianGroup(2, ((2, 3), (4, 1), (6, 2)))
    assert g.text() == "Z^2 + (Z/2)^3 + Z/4 + (Z/6)^2"
    assert g.f2_dimension() == 2 + 3 + 1 + 2
    assert AbelianGroup(0, ((3, 5),)).f2_dimension() == 0
    for torsion in (((1, 1),), ((2, 0),), ((4, 1), (2, 1)), ((2, 1), (2, 1))):
        with pytest.raises(ValueError):
            AbelianGroup(1, torsion)
    with pytest.raises(ValueError):
        AbelianGroup(-1)


def test_integral_cohomology_n4_golden():
    texts = [g.text() for g in ints.integral_cohomology(4)]
    assert texts == ["Z", "Z", "Z^3 + (Z/2)^3", "Z^3", "Z/2"]


def test_splitting_small_cases():
    assert [s.text() for s in ints.splitting(2)] == ["S^2", "M^3(2)"]
    assert [s.text() for s in ints.splitting(3)] == ["S^2", "2 x M^3(2)", "S^3", "S^4"]


def test_splitting_counts_follow_binomials():
    import math

    for n in range(2, 10):
        by_kind = {}
        for s in ints.splitting(n):
            by_kind[(s.kind, s.dim)] = s.multiplicity
        # one family of summands per 0 <= i <= n-1, C(n-1, i) copies each;
        # sphere dims never collide across families so counts are exact
        assert by_kind[("sphere", 2)] == 1  # i = 0
        for i in range(1, n):
            copies = math.comb(n - 1, i)
            if i % 2 == 1:
                assert by_kind.get(("moore", i + 2), 0) == copies
            else:
                assert by_kind.get(("sphere", i + 1), 0) == copies
                assert by_kind.get(("sphere", i + 2), 0) == copies


def test_homology_matches_pi1_abelianized():
    for n in range(2, 11):
        assert ints.homology_from_splitting(n)[1] == abelianization(n)


def test_uct_round_trip():
    for n in range(2, 13):
        rebuilt = ints.cohomology_from_homology(ints.homology_from_splitting(n))
        assert rebuilt == ints.integral_cohomology(n), n


def test_f2_dimensions_match_mod2_ring():
    for n in range(2, 13):
        groups = ints.integral_cohomology(n)
        dims = coh.poincare_polynomial(n)
        for d in range(n + 1):
            torsion_above = groups[d + 1].torsion if d + 1 <= n else ()
            expect = groups[d].f2_dimension() + sum(
                k for t, k in torsion_above if t % 2 == 0
            )
            assert expect == dims[d], (n, d)


def test_euler_characteristic_vanishes():
    for n in range(2, 13):
        chi = sum(
            (-1) ** d * g.free_rank for d, g in enumerate(ints.integral_cohomology(n))
        )
        assert chi == 0, n


def test_consistency_check_passes_through_n12():
    for n in range(2, 13):
        report = ints.consistency_check(n)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert {c.name for c in report.checks} == {
            "f2-dimension-count",
            "splitting-vs-integral",
            "h1-vs-pi1-abelianized",
            "euler-characteristic-zero",
        }


def test_consistency_report_json(capsys):
    assert cli.main(["check", "--n", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2
    assert data["passed"] is True
    assert len(data["checks"]) == 4


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        ints.integral_cohomology(0)
    with pytest.raises(ValueError):
        ints.splitting(1)
