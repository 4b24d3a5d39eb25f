"""The fundamental group of K_n.

Generators a_1, ..., a_n; a_i and a_j commute for i, j < n, while the last
generator conjugates each of the others to its inverse:

    a_j a_n = a_n a_j^(-1)   (j < n).

Every element has a unique normal form a_1^k1 ... a_(n-1)^k(n-1) a_n^m,
written here as the pair (k, m) in Z^(n-1) x Z.  Pushing a_n past a_j flips
the sign of the a_j exponent, which gives the twisted multiplication

    (k, m) * (k', m') = (k + (-1)^m k', m + m').

The double cover (the n-torus) corresponds to the subgroup of even m.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .abelian import AbelianGroup
from .cohomology_f2 import _check_dimension
from .linalg import abelian_invariants

_TOKEN = re.compile(r"a(n|\d+)(?:\^(-?\d+))?$", re.ASCII)


@dataclass(frozen=True)
class GroupWord:
    """A word in the generators: a sequence of (generator index, power) syllables.

    A syllable (g, e) stands for a_g^e with e != 0, so a_1^k is one syllable
    however large k is.
    """

    n: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        # first-occurrence order, so the first bad syllable is the one named
        for g, e in dict.fromkeys(self.letters):
            if not 1 <= g <= self.n:
                raise ValueError(f"generator a_{g} out of range for n={self.n}")
            if e == 0:
                raise ValueError("syllable power must be nonzero")

    @classmethod
    def parse(cls, n: int, text: str) -> "GroupWord":
        """Parse words like ``"a1 an a1^-1 a2^3"`` (an = a_n).

        Each token becomes one syllable; a ``^0`` token is dropped once its
        generator has been checked.  Each distinct token is matched and
        checked once, in order of first occurrence, so the first bad token in
        the text is the one the ``ValueError`` names; every letter is then
        looked up in that table.
        """
        _check_dimension(n)
        tokens = text.replace("*", " ").split()
        table: dict[str, tuple[int, int] | None] = {}
        for tok in dict.fromkeys(tokens):
            m = _TOKEN.match(tok)
            if not m:
                raise ValueError(f"cannot parse letter {tok!r}")
            g = n if m.group(1) == "n" else int(m.group(1))
            if not 1 <= g <= n:
                raise ValueError(f"generator a_{g} out of range for n={n}")
            e = int(m.group(2)) if m.group(2) else 1
            table[tok] = (g, e) if e else None
        # a syllable is a nonempty tuple, so filter(None, ...) drops only ^0
        return cls(n, tuple(filter(None, map(table.__getitem__, tokens))))

    def inverse(self) -> "GroupWord":
        return GroupWord(self.n, tuple((g, -e) for g, e in reversed(self.letters)))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return GroupWord(self.n, self.letters + other.letters)

    def text(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(
            (f"a{g}" if g < self.n else "an") + ("" if e == 1 else f"^{e}")
            for g, e in self.letters
        )


@dataclass(frozen=True)
class NormalForm:
    """a_1^k[0] ... a_(n-1)^k[n-2] a_n^m."""

    n: int
    k: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        if len(self.k) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} twisted exponents")

    @classmethod
    def identity(cls, n: int) -> "NormalForm":
        return cls(n, (0,) * (n - 1), 0)

    def is_identity(self) -> bool:
        return self.m == 0 and all(e == 0 for e in self.k)

    def to_word(self) -> GroupWord:
        exponents = enumerate((*self.k, self.m), start=1)
        return GroupWord(self.n, tuple((g, e) for g, e in exponents if e))

    def text(self) -> str:
        return self.to_word().text()


def multiply(x: NormalForm, y: NormalForm) -> NormalForm:
    """(k, m) * (k', m') = (k + (-1)^m k', m + m')."""
    if x.n != y.n:
        raise ValueError("dimension mismatch")
    s = -1 if x.m % 2 else 1
    return NormalForm(x.n, tuple(a + s * b for a, b in zip(x.k, y.k)), x.m + y.m)


def inverse(x: NormalForm) -> NormalForm:
    s = -1 if x.m % 2 else 1
    return NormalForm(x.n, tuple(-s * e for e in x.k), -x.m)


def reduce_word(word: GroupWord) -> NormalForm:
    """Normal form of a word, folding one syllable at a time.

    A syllable a_j^e lands in the k-part with sign (-1)^m for the current a_n
    exponent m; a_n^e just shifts m.
    """
    k = [0] * (word.n - 1)
    m = 0
    for g, e in word.letters:
        if g == word.n:
            m += e
        elif m % 2:
            k[g - 1] -= e
        else:
            k[g - 1] += e
    return NormalForm(word.n, tuple(k), m)


def abelianization(n: int) -> AbelianGroup:
    """H_1 = Z x (Z/2)^(n-1), computed from the relators, not asserted.

    Abelianizing turns each defining relator into the row of its generators'
    summed exponents: a_j a_n a_j a_n^(-1) gives 2 a_j = 0 and each
    commutator gives a zero row.  Smith normal form of that relation matrix
    gives the invariant factors.
    """
    rows = []
    for rel in defining_relators(n):
        row = [0] * n
        for g, e in rel.letters:
            row[g - 1] += e
        rows.append(row)
    free, torsion = abelian_invariants(rows, n)
    return AbelianGroup(free, torsion)


def in_double_cover_image(x: NormalForm) -> bool:
    """Whether x lifts to the torus double cover (even a_n exponent)."""
    return x.m % 2 == 0


def defining_relators(n: int) -> list[GroupWord]:
    """Words that reduce to the identity: the group's defining relations."""
    _check_dimension(n)
    out = []
    for j in range(1, n):
        # a_j a_n a_j a_n^-1
        out.append(
            GroupWord(n, ((j, 1), (n, 1), (j, 1), (n, -1)))
        )
    for i in range(1, n):
        for j in range(i + 1, n):
            out.append(GroupWord(n, ((i, 1), (j, 1), (i, -1), (j, -1))))
    return out
