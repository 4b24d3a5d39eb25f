"""Zero-divisor cup length in H^*(K_m x K_m; Z2) and topological-complexity bounds.

By Kunneth the mod-2 cohomology of the square is the tensor square of the
ring handled in cohomology_f2.  For a class x the associated zero divisor is

    xbar = x (x) 1 + 1 (x) x,

which restricts to zero under the diagonal.  The zero-divisor cup length
(zcl) is the longest nonzero product of the generator zero divisors
Rbar, Vbar_1, ..., Vbar_(m-1); it pins the sharp lower bound zcl + 1 for
topological complexity, while dimension gives the upper bound 2m + 1.

Products are kept in factored form.  With Lambda = Z2[R]/(R^2), the ring is
the tensor product over Lambda of the A_i = Lambda[V_i]/(V_i^2 + R V_i), so

    H^* (x) H^* = (x)_Lambda2 (A_i (x) A_i),   Lambda2 = Z2[a, b]/(a^2, b^2),

with a = R (x) 1 and b = 1 (x) R.  Lambda2 has 16 elements, each a 4-bit mask
over the monomials 1, a, b, ab.  Each A_i (x) A_i is free over Lambda2 on the
four elements V_i^s (x) V_i^t (s, t in {0, 1}); multiplying two of them
carries a factor a when both left sides hold V_i (V_i^2 = R V_i) and b when
both right sides do.  Rbar is the scalar a + b, so a product
Rbar^r * Vbar_1^(e_1) * Vbar_2^(e_2) * ... is the scalar (a + b)^r times the
pure tensor of the local powers Vbar_i^(e_i).

Multiplying that pure tensor out picks one basis index per generator.
Distinct generators use disjoint variables, so the tensor product of the
chosen basis elements is a basis element of the free Lambda2-module, and two
different choices give two different ones: no terms of different choices
can cancel.  The product is therefore zero exactly when every choice's
coefficient, (a + b)^r times one coefficient of each local power, is zero in
Lambda2.  `_nonzero` decides that from the set of reachable nonzero
coefficients, at most 15, without ever listing the choices.

Permuting the V indices is a ring automorphism (the defining relations are
symmetric in i) and extends to the tensor square, so whether a product of
generator zero divisors vanishes depends only on the multiset of exponents.
The exhaustive search of one length, zcl_exhaustive, therefore enumerates
one canonical representative per multiset: Rbar^r * Vbar_1^(e1) * ... with
e1 >= e2 >= ...  It answers to one budget, SEARCH_BUDGET, on the canonical
multisets of that length, counted before any product is formed.

compute_zcl needs no such budget: the structure of `_nonzero` narrows every
product down to a handful of count vectors (see its docstring), and it
tests each of them with `_nonzero`, the one evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count, takewhile

from .cohomology_f2 import _check_dimension
from .errors import check_budget

# canonical exponent multisets per exhaustive search, not raw products
SEARCH_BUDGET = 10**6


def _lambda2_mul(x: int, y: int) -> int:
    """Product in Lambda2; bit m of a mask holds the monomial a^(m & 1) b^(m >> 1).

    Two monomials that share a variable multiply to zero (a^2 = b^2 = 0).
    """
    acc = 0
    for i in range(4):
        if x >> i & 1:
            for j in range(4):
                if y >> j & 1 and not i & j:
                    acc ^= 1 << (i | j)
    return acc


_MUL = [[_lambda2_mul(x, y) for y in range(16)] for x in range(16)]


def _local_mul(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """Product in A_i (x) A_i; an element maps basis index j to its nonzero coefficient.

    Index j stands for V_i^(j & 1) (x) V_i^(j >> 1).  Basis elements j and k
    multiply to basis element j | k times the monomial j & k, whose bit 0 is a
    from V_i * V_i on the left and bit 1 is b from V_i * V_i on the right.
    """
    acc = [0] * 4
    for j, cx in x.items():
        for k, cy in y.items():
            acc[j | k] ^= _MUL[_MUL[cx][cy]][1 << (j & k)]
    return {j: c for j, c in enumerate(acc) if c}


def _powers(x, one, mul) -> tuple:
    """one, x, x^2, ... up to the last nonzero power of x, which is nilpotent."""
    powers = [one]
    while nxt := mul(powers[-1], x):
        powers.append(nxt)
    return tuple(powers)


_RBAR_POWERS = _powers(0b0110, 1, _lambda2_mul)  # Rbar = a + b
_VBAR_POWERS = _powers({1: 1, 2: 1}, {0: 1}, _local_mul)  # V (x) 1 + 1 (x) V


def _nonzero(r: int, v_powers: tuple[int, ...]) -> bool:
    """Whether Rbar^r * Vbar_1^(v_powers[0]) * Vbar_2^(v_powers[1]) * ... is nonzero.

    Walks the generators in order, keeping the nonzero coefficients that some
    choice of basis indices reaches so far, and stops once none is left.
    """
    if r >= len(_RBAR_POWERS):
        return False
    reachable = {_RBAR_POWERS[r]}
    for e in v_powers:
        if e >= len(_VBAR_POWERS):
            return False
        coefficients = _VBAR_POWERS[e].values()
        reachable = {_MUL[x][c] for x in reachable for c in coefficients}
        reachable.discard(0)
        if not reachable:
            return False
    return True


@dataclass(frozen=True)
class FactorMultiset:
    """A product Rbar^rbar * Vbar_1^v[0] * Vbar_2^v[1] * ... (v descending)."""

    n: int
    rbar: int
    v_powers: tuple[int, ...]

    def text(self) -> str:
        parts = []
        if self.rbar:
            parts.append("Rbar" if self.rbar == 1 else f"Rbar^{self.rbar}")
        for i, e in enumerate(self.v_powers):
            parts.append(f"Vbar{i + 1}" if e == 1 else f"Vbar{i + 1}^{e}")
        return " * ".join(parts) if parts else "1"


def _partitions(s: int, max_parts: int, max_part: int):
    """Descending partitions of s into at most max_parts parts, largest first.

    The largest part is at least s / max_parts, so every branch taken yields
    a partition and the walk costs time in proportion to its output.
    """
    if s == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(s, max_part), (s - 1) // max_parts, -1):
        for rest in _partitions(s - first, max_parts - 1, first):
            yield (first,) + rest


def _canonical_multisets(n: int, length: int):
    """All canonical (rbar, v_powers) with rbar + sum(v_powers) = length."""
    for r in range(length + 1):
        yield from (
            (r, parts) for parts in _partitions(length - r, n - 1, length)
        )


def count_canonical_multisets(n: int, length: int) -> int:
    """The number of canonical (rbar, v_powers) of this length.

    That is the sum over s <= length of the partitions of s into at most
    n - 1 parts.  Counting stops once the sum passes SEARCH_BUDGET, so a
    larger count comes back as its first partial sum above the budget.
    """
    parts = n - 1
    if parts <= 1:  # each s has one partition into at most one part
        return 1 if parts == 0 else length + 1
    # ways[j - 1][s]: partitions of s into parts of size <= j, which are the
    # conjugates of the partitions of s into at most j parts
    ways = [[1] for _ in range(parts)]
    total = 1
    for s in range(1, length + 1):
        count = 0
        for j, row in enumerate(ways, start=1):
            if s >= j:
                count += row[s - j]
            row.append(count)
        total += count
        if total > SEARCH_BUDGET:
            break
    return total


@dataclass(frozen=True)
class ZclSearchResult:
    n: int
    length: int
    all_zero: bool
    witness: FactorMultiset | None
    checked: int


def zcl_exhaustive(n: int, length: int) -> ZclSearchResult:
    """Check every length-``length`` product of generator zero divisors.

    Enumerates canonical exponent multisets (see module docstring) in a fixed
    order and stops at the first nonzero product.  Raises FeasibilityError
    before testing any product if the multisets exceed SEARCH_BUDGET.
    """
    _check_dimension(n)
    if length < 1:
        raise ValueError("product length must be >= 1")
    what = f"or more exponent multisets of length {length} over K_{n}"  # the count stops early
    check_budget(count_canonical_multisets(n, length), SEARCH_BUDGET, what)
    checked = 0
    witness = None
    for r, parts in _canonical_multisets(n, length):
        checked += 1
        if _nonzero(r, parts):
            witness = FactorMultiset(n, r, parts)
            break
    return ZclSearchResult(n, length, witness is None, witness, checked)


@dataclass(frozen=True)
class TcBounds:
    m: int
    zcl: int
    lower: int
    upper: int
    method: str


def compute_zcl(m: int) -> int:
    """Zero-divisor cup length of K_m, exhaustively, from counts of exponents.

    Three facts of `_nonzero` make a few count vectors stand for every
    product of generator zero divisors:

    - `_VBAR_POWERS` has four entries, so any exponent >= 4 gives zero.
    - So whether a product vanishes depends only on r and the counts
      (c1, c2, c3) of the exponents 1, 2 and 3.
    - Vbar's first power has unit coefficients, so a factor Vbar_j on a
      generator not yet used never turns a nonzero product into zero.  A
      longest nonzero product therefore uses all m - 1 generators:
      c1 = m - 1 - c2 - c3.

    The scan grows r, then c3, then c2 from 0 until the product is zero or
    c2 + c3 would pass m - 1.  Each step multiplies the product by one more
    factor (Rbar, Vbar_j^2 or Vbar_j), so once a product is zero, so is
    every product with a larger count: the scan reaches every nonzero count
    vector, and no bound on a count is needed.
    """
    _check_dimension(m)
    if m < 2:
        raise ValueError("zcl needs m >= 2")

    def exponents(c3: int, c2: int) -> tuple[int, ...]:
        return (3,) * c3 + (2,) * c2 + (1,) * (m - 1 - c3 - c2)

    def nonzero(r: int, c3: int = 0, c2: int = 0) -> bool:
        return c3 + c2 < m and _nonzero(r, exponents(c3, c2))

    return max(
        r + sum(exponents(c3, c2))
        for r in takewhile(nonzero, count())
        for c3 in takewhile(partial(nonzero, r), count())
        for c2 in takewhile(partial(nonzero, r, c3), count())
    )


def tc_bounds(m: int) -> TcBounds:
    """Topological-complexity bounds for K_m: (zcl + 1, 2m + 1)."""
    z = compute_zcl(m)
    return TcBounds(
        m=m,
        zcl=z,
        lower=z + 1,
        upper=2 * m + 1,
        method="lower: zcl+1 (exhaustive-search); upper: cited dimension bound",
    )
