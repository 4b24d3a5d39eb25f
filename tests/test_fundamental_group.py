"""Normal forms in pi_1(K_n) against a rewriting oracle and hypothesis laws.

pi_1(K_n) = Z^(n-1) x| Z where the last generator conjugates each a_j
(j < n) to its inverse.  Elements are (k, m) with k in Z^(n-1), m in Z,
and (k, m)(k', m') = (k + (-1)^m k', m + m').
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinforge import fundamental_group as fg
from kleinforge import verification as vf
from kleinforge.abelian import AbelianGroup
from kleinforge.verification import rewrite_word, word_exponents


def test_parse_and_text_round_trip():
    # each token is one syllable, and a ^0 token is dropped
    w = fg.GroupWord.parse(3, "a1 an^2 a2^0 a2^-1")
    assert w.letters == ((1, 1), (3, 2), (2, -1))
    assert w.text() == "a1 an^2 a2^-1"
    assert fg.GroupWord.parse(3, w.text()) == w
    # an is an alias for the last generator
    assert fg.GroupWord.parse(3, "an") == fg.GroupWord.parse(3, "a3")


def test_parse_rejects_garbage():
    for text in ("a4", "b1", "a4^0", "a0^0"):
        with pytest.raises(ValueError):
            fg.GroupWord.parse(3, text)
    # digits outside ASCII 0-9: a Devanagari one, an Arabic-Indic three
    for text in ("a१", "a1^٣"):
        with pytest.raises(ValueError, match="cannot parse letter"):
            fg.GroupWord.parse(3, text)
    with pytest.raises(ValueError):
        fg.GroupWord(3, ((1, 0),))


def test_huge_power_is_one_syllable_and_reduces_exactly():
    big = 99999999999999999999
    w = fg.GroupWord.parse(3, f"a1^-{big} an a1^5 a2^10000000000")
    assert w.letters == ((1, -big), (3, 1), (1, 5), (2, 10000000000))
    # a1^5 lands behind an, so its exponent flips sign
    nf = fg.reduce_word(w)
    assert (nf.k, nf.m) == ((-big - 5, -10000000000), 1)
    assert nf.text() == f"a1^-{big + 5} a2^-10000000000 an"
    assert nf.to_word().letters == ((1, -big - 5), (2, -10000000000), (3, 1))


def test_conjugation_relation():
    # an a1 an^-1 = a1^-1
    n = 3
    w = fg.GroupWord.parse(n, "an a1 an^-1")
    nf = fg.reduce_word(w)
    assert (tuple(nf.k), nf.m) == ((-1, 0), 0)
    assert nf.text() == "a1^-1"


def test_sandwich_collapses():
    nf = fg.reduce_word(fg.GroupWord.parse(3, "a1 an a1"))
    assert nf.text() == "an"
    assert nf.to_word().text() == "an"


def test_defining_relators_reduce_to_identity():
    for n in range(2, 11):
        relators = fg.defining_relators(n)
        # one twisting relator per a_j plus commutators among the a_j
        assert len(relators) == (n - 1) + (n - 1) * (n - 2) // 2
        for rel in relators:
            assert fg.reduce_word(rel).is_identity(), (n, rel.text())


def test_normal_form_text_exponent_one_is_bare():
    nf = fg.NormalForm(3, (1, 0), 2)
    assert nf.text() == "a1 an^2"
    assert fg.NormalForm(3, (0, -2), 1).text() == "a2^-2 an"
    assert fg.NormalForm.identity(3).text() == "e"


def test_abelianization_values():
    assert fg.abelianization(1) == AbelianGroup(1)
    assert fg.abelianization(2) == AbelianGroup(1, ((2, 1),))
    for n in range(2, 11):
        assert fg.abelianization(n) == AbelianGroup(1, ((2, n - 1),))


def test_double_cover_image_is_even_rotation():
    nf = fg.reduce_word(fg.GroupWord.parse(3, "a1 a2"))
    assert fg.in_double_cover_image(nf)
    assert not fg.in_double_cover_image(fg.reduce_word(fg.GroupWord.parse(3, "an")))
    assert fg.in_double_cover_image(fg.reduce_word(fg.GroupWord.parse(3, "an^2")))


def test_reduce_agrees_with_rewriting_oracle_short_words():
    # every word of length <= 4 on a1, a2, a3=an and inverses, n=3
    n = 3
    letters = [(i, e) for i in range(1, n + 1) for e in (1, -1)]
    frontier = [fg.GroupWord(n, ())]
    for _ in range(4):
        frontier = [
            fg.GroupWord(n, w.letters + (l,)) for w in frontier for l in letters
        ]
        for w in frontier:
            fast = fg.reduce_word(w)
            slow = word_exponents(n, rewrite_word(n, w.letters))
            assert slow == (tuple(fast.k), fast.m), w.text()


@pytest.mark.parametrize("max_n, max_len", [(1, 1), (1, 5), (2, 3), (3, 4), (4, 2)])
def test_word_oracle_counts_every_word(max_n, max_len):
    # merged prefixes carry their multiplicity, so the count is of words
    words = sum((2 * n) ** d for n in range(1, max_n + 1) for d in range(1, max_len + 1))
    result = vf.check_word_oracle(max_n, max_len)
    assert result.passed
    assert result.detail == f"{words} words of length <= {max_len} agree for n <= {max_n}"


def test_word_oracle_reaches_inputs_first_seen_at_depth_five(monkeypatch):
    # wrong only for x with a_n exponent 4 times y = a1 at n = 2, so words of length >= 5
    multiply = fg.multiply

    def broken(x, y):
        z = multiply(x, y)
        if x.n == 2 and x.m == 4 and (y.k, y.m) == ((1,), 0):
            return fg.NormalForm(2, (z.k[0] + 1,), z.m)
        return z

    monkeypatch.setattr(vf.fg, "multiply", broken)
    assert vf.check_word_oracle(2, 4).passed
    deep = vf.check_word_oracle(2, 6)
    assert not deep.passed
    assert deep.detail.startswith("oracle mismatch at n=2")


words = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(1, n), st.sampled_from((1, -1))), max_size=8
    ).map(lambda ls: fg.GroupWord(n, tuple(ls)))
)


syllable_texts = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, n), st.integers(-5, 5)), max_size=8),
    )
)


@given(syllable_texts)
def test_syllable_words_reduce_like_their_expanded_letters(case):
    n, syllables = case
    text = " ".join(f"a{g}" if e == 1 else f"a{g}^{e}" for g, e in syllables)
    expanded = tuple((g, 1 if e > 0 else -1) for g, e in syllables for _ in range(abs(e)))
    nf = fg.reduce_word(fg.GroupWord.parse(n, text))
    assert nf == fg.reduce_word(fg.GroupWord(n, expanded))
    assert (nf.k, nf.m) == word_exponents(n, rewrite_word(n, expanded))
    assert len(nf.to_word().letters) <= n


@given(words)
def test_word_times_inverse_is_identity(w):
    assert fg.reduce_word(w * w.inverse()).is_identity()
    assert fg.reduce_word(w.inverse() * w).is_identity()


@given(words, words)
def test_reduce_is_a_homomorphism(u, v):
    if u.n != v.n:
        v = fg.GroupWord(u.n, tuple((min(i, u.n), e) for i, e in v.letters))
    assert fg.reduce_word(u * v) == fg.multiply(fg.reduce_word(u), fg.reduce_word(v))


@given(words)
def test_normal_form_word_round_trip(w):
    nf = fg.reduce_word(w)
    assert fg.reduce_word(nf.to_word()) == nf


@given(words)
def test_inverse_involution(w):
    nf = fg.reduce_word(w)
    assert fg.inverse(fg.inverse(nf)) == nf
    assert fg.multiply(nf, fg.inverse(nf)).is_identity()


def test_centre_behaviour_even_powers():
    # an^2 commutes with everything (it acts trivially)
    n = 4
    sq = fg.reduce_word(fg.GroupWord.parse(n, "an^2"))
    for text in ("a1", "a2 a3", "an", "a1^-1 an"):
        g = fg.reduce_word(fg.GroupWord.parse(n, text))
        assert fg.multiply(sq, g) == fg.multiply(g, sq)
