"""Genetic codes of planar polygon length vectors and their classification."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinforge import cli
from kleinforge import polygon_genetics as pg
from kleinforge.errors import FeasibilityError


HEXAGONS = [
    (("1", "1", "1", "1", "1", "4"), ((6,),), "RP^3"),
    (("1/24", "1/24", "1/24", "1", "1", "1"), ((6, 3, 2, 1),), "T^3"),
    (("1/24", "1/24", "1", "1", "1", "2"), ((6, 2, 1),), "K_3"),
]


def test_hexagon_examples():
    for lengths, genes, space in HEXAGONS:
        code = pg.genetic_code(lengths)
        assert code.genes == genes, lengths
        assert space in pg.classify(code).spaces


def test_hexagon_examples_via_zero_substitution():
    # degenerate vectors with zero edges land in the same chamber
    for lengths, genes in [
        (("0", "0", "0", "1", "1", "1"), ((6, 3, 2, 1),)),
        (("0", "0", "1", "1", "1", "2"), ((6, 2, 1),)),
    ]:
        prep = pg.prepare_lengths(lengths)
        assert prep.epsilon is not None
        assert prep.substituted == lengths.count("0")
        assert pg.genetic_code(prep).genes == genes


def test_code_text_format():
    code = pg.genetic_code(("1/24", "1/24", "1", "1", "1", "2"))
    assert code.text() == "<{6,2,1}>"
    assert code.gees() == ((2, 1),)


def test_klein_case_carries_tc_bounds():
    cls = pg.classify(pg.genetic_code(("1/24", "1/24", "1", "1", "1", "2")))
    assert cls.klein_m == 3
    assert (cls.tc.lower, cls.tc.upper) == (6, 7)


def test_rp_pattern_has_no_tc():
    cls = pg.classify(pg.genetic_code(("1", "1", "1", "1", "1", "4")))
    assert cls.rp and not cls.torus and cls.klein_m is None
    assert cls.tc is None


# -------------------------------------------------------------- domination

def injection_exists(a, b):
    """Brute force: any injective map b -> a raising every index."""
    for image in itertools.permutations(a, len(b)):
        if all(x >= y for x, y in zip(image, b)):
            return True
    return False


index_sets = st.sets(st.integers(1, 7), min_size=1, max_size=4).map(tuple)


@given(index_sets, index_sets)
def test_dominates_matches_injection_definition(a, b):
    assert pg.dominates(a, b) == injection_exists(a, b)


@given(index_sets, index_sets, index_sets)
def test_dominates_is_a_partial_order(a, b, c):
    assert pg.dominates(a, a)
    if pg.dominates(a, b) and pg.dominates(b, a):
        assert set(a) == set(b)  # antisymmetric on index sets
    if pg.dominates(a, b) and pg.dominates(b, c):
        assert pg.dominates(a, c)


def test_genes_form_a_complete_antichain():
    random.seed(7)
    for n in (4, 5, 6):
        for _ in range(20):
            lengths = [random.randint(1, 40) for _ in range(n)]
            prep = pg.prepare_lengths([str(v) for v in lengths])
            if not pg.is_generic(prep):
                continue
            code = pg.genetic_code(prep)
            genes = set(code.genes)
            # pairwise incomparable
            for g, h in itertools.combinations(genes, 2):
                assert not pg.dominates(g, h) and not pg.dominates(h, g)
            # every short subset containing n is dominated by a gene
            for k in range(n):
                for rest in itertools.combinations(range(1, n), k):
                    subset = (n,) + rest
                    if pg.is_short(prep, subset):
                        assert any(pg.dominates(g, subset) for g in genes), subset
            # genes themselves are short
            for g in genes:
                assert pg.is_short(prep, g)


def quadratic_genes(prep):
    """Reference filter: keep each short subset no kept one dominates, larger first."""
    n = prep.n
    shorts = [
        (n,) + tuple(reversed(rest))
        for k in range(n)
        for rest in itertools.combinations(range(1, n), k)
        if pg.is_short(prep, (n,) + rest)
    ]
    shorts.sort(key=lambda s: (-len(s), tuple(-x for x in s)))
    genes = []
    for s in shorts:
        if not any(pg.dominates(g, s) for g in genes):
            genes.append(s)
    return tuple(genes)


@given(st.lists(st.integers(1, 60), min_size=3, max_size=11))
def test_covering_moves_match_quadratic_filter(lengths):
    prep = pg.prepare_lengths([str(v) for v in lengths])
    if not pg.is_generic(prep):
        with pytest.raises(ValueError):
            pg.genetic_code(prep)
        return
    assert pg.genetic_code(prep).genes == quadratic_genes(prep)


@given(
    st.lists(st.integers(0, 60), min_size=3, max_size=11).filter(
        lambda ls: 0 in ls and any(ls)
    )
)
def test_covering_moves_match_quadratic_filter_with_zero_lengths(lengths):
    prep = pg.prepare_lengths([str(v) for v in lengths])
    assert prep.substituted == lengths.count(0)
    if not pg.is_generic(prep):  # e.g. 0, 0, 1, 1: eps + 1 is half
        with pytest.raises(ValueError):
            pg.genetic_code(prep)
        return
    assert pg.genetic_code(prep).genes == quadratic_genes(prep)


# denominators whose lcm is near 10^30, so the scaled sums leave int64
BIG_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081)


def test_subset_scan_beyond_int64():
    lengths = [f"{k}/{p}" for k, p in zip((1, 2, 3, 5, 8), BIG_PRIMES)] + ["1", "1", "3/2"]
    prep = pg.prepare_lengths(lengths)
    sums, total = pg._subset_sums(prep)
    assert sums.dtype == object and 2 * total >= 1 << 62
    assert pg.is_generic(prep)
    assert pg.genetic_code(prep).genes == quadratic_genes(prep)
    # each length twice: one copy of each is exactly half the total
    tied = [f"1/{p}" for p in BIG_PRIMES for _ in range(2)]
    assert not pg.is_generic(tied)
    with pytest.raises(ValueError):
        pg.genetic_code(tied)


def test_scale_invariance():
    base = ("1/24", "1/24", "1", "1", "1", "2")
    scaled = tuple(str(Fraction(v) * Fraction(7, 3)) for v in base)
    assert pg.genetic_code(base) == pg.genetic_code(scaled)


def test_input_order_invariance():
    a = pg.genetic_code(("2", "1", "1/24", "1", "1/24", "1"))
    b = pg.genetic_code(("1/24", "1/24", "1", "1", "1", "2"))
    assert a == b


# --------------------------------------------------------------- prep/edge

def test_prepare_rejects_bad_input():
    with pytest.raises(ValueError):
        pg.prepare_lengths(("1", "2"))  # needs n >= 3
    with pytest.raises(ValueError):
        pg.prepare_lengths(("1", "-2", "3"))
    with pytest.raises(FeasibilityError):
        pg.prepare_lengths(tuple(str(2 * i + 1) for i in range(25)))


def test_explicit_epsilon_override():
    prep = pg.prepare_lengths(("0", "1", "1", "1"), epsilon=Fraction(1, 100))
    assert prep.epsilon == Fraction(1, 100)
    assert Fraction(1, 100) in prep.lengths


def test_default_epsilon_is_small_enough():
    # epsilon must not flip any strict subset-sum comparison of the
    # original vector; a quarter of the smallest nonzero gap is safe
    prep = pg.prepare_lengths(("0", "0", "0", "1", "1", "1"))
    eps, n = prep.epsilon, prep.n
    assert eps * n * 2 < Fraction(1)  # total perturbation below the unit gap
    assert pg.genetic_code(prep).genes == ((6, 3, 2, 1),)


def test_non_generic_rejected():
    with pytest.raises(ValueError):
        pg.genetic_code(("1", "2", "3", "4", "5", "1"))  # 1+3+4 = 8 = half
    assert not pg.is_generic(("1", "1", "1", "1"))


def test_prepared_json(capsys):
    assert cli.main(["genes", "--lengths", "0,1,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["prepared"]
    assert data["substituted"] == 1
    assert len(data["lengths"]) == 4
