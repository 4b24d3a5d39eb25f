"""Genetic codes of planar polygon spaces, exactly over the rationals.

For a length vector l_1 <= ... <= l_n (positive rationals), a subset S of
indices is short when sum(S) < sum(complement).  The vector is generic when
no subset sums to exactly half the total, which keeps the moduli space of
planar n-gons with those side lengths a smooth closed (n-3)-manifold.

Index subsets are ordered by domination: T >= S when S can be injected into T
raising every index, equivalently |T| >= |S| and the k-th largest of T is
>= the k-th largest of S for every k.  The genetic code is the antichain of
maximal short subsets containing n; it determines the moduli space up to
diffeomorphism.

Three codes correspond to the model spaces treated elsewhere in this package:
<{n}> gives real projective space RP^(n-3), <{n, n-3, ..., 1}> the torus
T^(n-3), and <{n, n-4, ..., 1}> the higher Klein bottle K_(n-3), which links
these polygon spaces to the topological-complexity bounds of tensor_zcl.

Zero side lengths are handled by an exact perturbation: after scaling the
positive entries to integers, zeros become epsilon = 1/(4n(1+S)) with S the
scaled total.  Distinct integer subset sums differ by at least 1 while the
perturbation contributes at most n*epsilon < 1, so shortness of every subset
of positive entries is preserved and the resulting code is stable for any
smaller epsilon.  An explicit epsilon (in the original scale) can be supplied
instead.  Prepared lengths stay fractions.Fraction; the subset scan compares
them as integers after scaling by the lcm of their denominators, so it is
exact too.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import check_budget
from .tensor_zcl import TcBounds, tc_bounds

SUBSET_LIMIT = 24  # 2^(n-1) subset scans beyond this are refused


@dataclass(frozen=True)
class PreparedLengths:
    """Sorted positive side lengths, with any zero-substitution applied."""

    lengths: tuple[Fraction, ...]
    epsilon: Fraction | None
    substituted: int  # how many zero entries were replaced

    @property
    def n(self) -> int:
        return len(self.lengths)


def _fraction(value) -> Fraction:
    """Fraction(value), refusing first a decimal exponent too large to build.

    Fraction builds 10^|exponent|, in time that grows faster than the
    exponent.  A nonzero mantissa has at most len(value) digits, so beyond
    the int-to-str limit plus that many the value's numerator or denominator
    has more digits than str() may print, and the token is refused unbuilt.
    """
    limit = sys.get_int_max_str_digits()  # 0 when unlimited
    if isinstance(value, str) and limit:
        _, e, exponent = value.lower().partition("e")
        try:
            size = abs(int(exponent)) if e else 0
        except ValueError:  # not a decimal exponent; Fraction judges the token
            size = 0
        if size > limit + len(value):
            raise ValueError(
                f"{value[:40]!r} has a decimal exponent past the {limit}-digit "
                "int-to-str limit"
            )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


def prepare_lengths(values, epsilon=None) -> PreparedLengths:
    """Validate, sort ascending, and substitute zeros exactly.

    ``values`` may be ints, strings or Fractions; negatives are rejected.
    With zeros present and no explicit epsilon, the default described in the
    module docstring is computed (in the original scale).  An explicit
    epsilon must be positive, even where no zero needs it.
    """
    lengths = [_fraction(v) for v in values]
    n = len(lengths)
    if n < 3:
        raise ValueError("need at least 3 side lengths")
    check_budget(n, SUBSET_LIMIT, f"side lengths (a scan of 2^{n - 1} subsets)")
    if any(x < 0 for x in lengths):
        raise ValueError("side lengths must be nonnegative")
    zeros = sum(1 for x in lengths if x == 0)
    eps = _fraction(epsilon) if epsilon is not None else None
    if eps is not None and eps <= 0:
        raise ValueError("epsilon must be positive")
    if zeros:
        if eps is None:
            positive = [x for x in lengths if x > 0]
            if not positive:
                raise ValueError("all side lengths are zero")
            scale = lcm(*(x.denominator for x in positive))
            scaled_total = sum(x * scale for x in positive)
            eps = Fraction(1, 4 * n * (1 + scaled_total)) / scale
        lengths = [eps if x == 0 else x for x in lengths]
    else:
        eps = None  # nothing to substitute
    lengths.sort()
    return PreparedLengths(tuple(lengths), eps, zeros)


def _as_prepared(lengths) -> PreparedLengths:
    if isinstance(lengths, PreparedLengths):
        return lengths
    return prepare_lengths(lengths)


def _subset_sums(prep: PreparedLengths) -> tuple[np.ndarray, int]:
    """Twice the sums of the 2^(n-1) subsets containing index n, and the total.

    The lengths are scaled to integers by the lcm of their denominators, so
    every comparison stays exact: a subset is short when its entry is below
    the total.  Entry ``mask`` holds the subset whose bit j marks index
    j + 1; the table doubles once per index.  The entries are int64 when
    twice the total fits below 2^62, and Python ints otherwise, each a
    pointer to an int no larger than twice the total.  A table of more
    bytes than the int64 table at SUBSET_LIMIT is refused unallocated.
    """
    scale = lcm(*(x.denominator for x in prep.lengths))
    twice = [int(2 * x * scale) for x in prep.lengths]
    total = sum(twice) // 2
    wide = 2 * total >= 1 << 62
    entry = 8 + sys.getsizeof(2 * total) if wide else 8
    bits = (2 * total).bit_length()
    what = f"bytes for the subset table of {prep.n} lengths with {bits}-bit sums"
    check_budget(entry << (prep.n - 1), 8 << (SUBSET_LIMIT - 1), what)
    sums = np.empty(1 << (prep.n - 1), dtype=object if wide else np.int64)
    sums[0] = twice[-1]  # subset {n}
    for j, length in enumerate(twice[:-1]):
        np.add(sums[: 1 << j], length, out=sums[1 << j : 2 << j])
    return sums, total


def is_generic(lengths) -> bool:
    """No subset sums to exactly half the total.

    Scans the subsets containing index n: a subset and its complement split
    the half-sum property.
    """
    sums, total = _subset_sums(_as_prepared(lengths))
    return not np.any(sums == total)


@dataclass(frozen=True)
class GeneticCode:
    """Maximal short subsets containing n, each sorted descending."""

    n: int
    genes: tuple[tuple[int, ...], ...]

    def gees(self) -> tuple[tuple[int, ...], ...]:
        """The genes with the obligatory n stripped."""
        return tuple(tuple(i for i in g if i != self.n) for g in self.genes)

    def text(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, g)) + "}" for g in self.genes)
        return f"<{inner}>"


def genetic_code(lengths) -> GeneticCode:
    """Compute the genetic code of a generic length vector.

    Enumerates the short subsets containing n, then keeps the maximal ones
    under domination.  Non-generic vectors are rejected first.  Shortness
    is closed downward under domination, so a short subset is maximal
    exactly when none of its covers is short: adding index 1, or raising
    one index i to i + 1 when i + 1 is not in the subset.
    """
    prep = _as_prepared(lengths)
    n = prep.n
    sums, total = _subset_sums(prep)
    if np.any(sums == total):
        raise ValueError("length vector is not generic (a subset sums to half)")
    short = sums < total
    masks = np.flatnonzero(short)
    # a cover that adds index 1
    maximal = (masks & 1 == 1) | ~short[masks | 1]
    # covers that raise index j + 1 to j + 2 < n: bit j set, bit j + 1 clear
    for j in range(n - 2):
        movable = (masks >> j & 3) == 1
        maximal &= ~(movable & short[masks ^ (3 << j)])
    genes = [
        (n,) + tuple(j + 1 for j in range(n - 2, -1, -1) if mask >> j & 1)
        for mask in masks[maximal].tolist()
    ]
    genes.sort(key=lambda s: (-len(s), tuple(-x for x in s)))
    return GeneticCode(n, tuple(genes))


@dataclass(frozen=True)
class Classification:
    """Which model spaces a genetic code matches (flags may overlap for small n)."""

    n: int
    rp: bool
    torus: bool
    klein_m: int | None
    spaces: tuple[str, ...]
    tc: TcBounds | None


def classify(code: GeneticCode) -> Classification:
    """Match a code against the three model patterns.

    <{n}> is RP^(n-3); <{n, n-3, ..., 1}> is the torus T^(n-3);
    <{n, n-4, ..., 1}> is K_(n-3), in which case the report carries the
    topological-complexity bounds for that Klein bottle.
    """
    n = code.n
    genes = set(code.genes)
    rp = genes == {(n,)}
    torus_gene = (n,) + tuple(range(n - 3, 0, -1))
    torus = genes == {torus_gene}
    klein_gene = (n,) + tuple(range(n - 4, 0, -1))
    klein = n >= 4 and genes == {klein_gene}
    klein_m = n - 3 if klein else None
    spaces = []
    if rp:
        spaces.append(f"RP^{n - 3}")
    if torus:
        spaces.append(f"T^{n - 3}")
    if klein:
        spaces.append(f"K_{n - 3}")
    tc = tc_bounds(klein_m) if klein_m is not None and klein_m >= 2 else None
    return Classification(n, rp, torus, klein_m, tuple(spaces), tc)
