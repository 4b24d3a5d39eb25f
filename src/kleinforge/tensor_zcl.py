"""Zero-divisor cup length in H^*(K_m x K_m; Z2) and topological-complexity bounds.

By Kunneth the mod-2 cohomology of the square is the tensor square of the
ring handled in cohomology_f2; an element here is the F2 set of its terms
u (x) v, each stored as the pair of packed monomial keys (u, v).  For a
class x the associated zero divisor is

    xbar = x (x) 1 + 1 (x) x,

which restricts to zero under the diagonal.  The zero-divisor cup length
(zcl) is the longest nonzero product of the generator zero divisors
Rbar, Vbar_1, ..., Vbar_(m-1); it pins the sharp lower bound zcl + 1 for
topological complexity, while dimension gives the upper bound 2m + 1.
Only such products are ever formed: `_generator_keys` gives the key pairs
of one generator zero divisor and `_mul_keysets` multiplies two key-pair
sets.

Permuting the V indices is a ring automorphism (the defining relations are
symmetric in i) and extends to the tensor square, so whether a product of
generator zero divisors vanishes depends only on the multiset of exponents.
The exhaustive search therefore enumerates one canonical representative per
multiset: Rbar^r * Vbar_1^(e1) * ... with e1 >= e2 >= ...  It is the only
route to zcl.

Two budgets are checked from (n, length) before any product is formed.
SEARCH_BUDGET caps the canonical multisets of one length.  TERM_BUDGET caps
the terms of one product: every power of a generator zero divisor has two
terms or is zero (Rbar^2 = 0, Vbar^4 = 0), so a product of powers of k
distinct generators has at most 2^k terms, and a length-L product over K_n
at most 2^min(n, L).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology_f2 import _check_dimension, _key_mul
from .errors import FeasibilityError

# canonical exponent multisets per exhaustive search, not raw products
SEARCH_BUDGET = 10**6
# key pairs in one product, bounded by 2^min(n, length); admits m <= 22
TERM_BUDGET = 1 << 22


def _mul_keysets(a, b) -> set[tuple[int, int]]:
    """(u (x) v) * (u' (x) v') = uu' (x) vv' extended bilinearly, on key pairs.

    Signs never appear: coefficients are mod 2.
    """
    acc: set[tuple[int, int]] = set()
    for al, ar in a:
        for bl, br in b:
            left = _key_mul(al, bl)
            if left is None:
                continue
            right = _key_mul(ar, br)
            if right is None:
                continue
            pair = (left, right)
            if pair in acc:
                acc.remove(pair)
            else:
                acc.add(pair)
    return acc


def _check_term_budget(n: int, length: int) -> None:
    terms = 1 << min(n, length)
    if terms > TERM_BUDGET:
        raise FeasibilityError(
            f"a length-{length} zero-divisor product over K_{n} may have "
            f"2^{min(n, length)} terms; the budget is {TERM_BUDGET}"
        )


@dataclass(frozen=True)
class FactorMultiset:
    """A product Rbar^rbar * Vbar_1^v[0] * Vbar_2^v[1] * ... (v descending)."""

    n: int
    rbar: int
    v_powers: tuple[int, ...]

    def length(self) -> int:
        return self.rbar + sum(self.v_powers)

    def text(self) -> str:
        parts = []
        if self.rbar:
            parts.append("Rbar" if self.rbar == 1 else f"Rbar^{self.rbar}")
        for i, e in enumerate(self.v_powers):
            parts.append(f"Vbar{i + 1}" if e == 1 else f"Vbar{i + 1}^{e}")
        return " * ".join(parts) if parts else "1"


def _generator_keys(n: int, index: int) -> frozenset[tuple[int, int]]:
    """Key pairs of Rbar (index 0) or Vbar_index: x (x) 1 + 1 (x) x."""
    key = 1 if index == 0 else 1 << index  # packed keys: R -> 1, V_i -> 1 << i
    return frozenset({(key, 0), (0, key)})


def _evaluate_multiset(n: int, r: int, v_powers: tuple[int, ...]) -> set[tuple[int, int]]:
    """Packed key set of Rbar^r * Vbar_1^(v_powers[0]) * ...

    Stops at the first empty partial product: multiplying zero stays zero.
    """
    acc: set[tuple[int, int]] = {(0, 0)}
    for index, count in [(0, r)] + [(i + 1, e) for i, e in enumerate(v_powers)]:
        g = _generator_keys(n, index)
        for _ in range(count):
            acc = _mul_keysets(acc, g)
            if not acc:
                return acc
    return acc


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
    order and stops at the first nonzero product.  Raises FeasibilityError if
    the terms of one product or the multiset count exceed their budgets.
    """
    _check_dimension(n)
    if length < 1:
        raise ValueError("product length must be >= 1")
    _check_term_budget(n, length)
    total = count_canonical_multisets(n, length)
    if total > SEARCH_BUDGET:
        raise FeasibilityError(
            f"more than {SEARCH_BUDGET} exponent multisets of length {length} over K_{n}"
        )
    checked = 0
    witness = None
    for r, parts in _canonical_multisets(n, length):
        checked += 1
        if _evaluate_multiset(n, r, parts):
            witness = FactorMultiset(n, r, parts)
            break
    return ZclSearchResult(n, length, witness is None, witness, checked)


def zcl_witness(n: int) -> tuple[FactorMultiset, frozenset[tuple[int, int]]]:
    """The canonical maximal nonzero product Vbar_1^3 Vbar_2^2 Vbar_3 ... Vbar_(n-1).

    Defined for n >= 3; its length is n + 2.  Returns the factor multiset and
    the packed key pairs of the full product; `check_tensor_witness` checks
    that it is nonzero and holds R V_1 ... V_(n-2) (x) R V_1 V_(n-1).
    """
    _check_dimension(n)
    if n < 3:
        raise ValueError("the long witness needs n >= 3")
    powers = (3, 2) + (1,) * (n - 3)
    _check_term_budget(n, n + 2)
    value = frozenset(_evaluate_multiset(n, 0, powers))
    return FactorMultiset(n, 0, powers), value


@dataclass(frozen=True)
class TcBounds:
    m: int
    zcl: int
    lower: int
    upper: int
    method: str


def compute_zcl(m: int) -> int:
    """Zero-divisor cup length of K_m by exhaustive search.

    Scans lengths upward until every product vanishes (monotone: any longer
    product contains a vanishing sub-product).  Raises FeasibilityError up
    front when a product of the longest length scanned, 2m + 1, could exceed
    the term budget.
    """
    _check_dimension(m)
    if m < 2:
        raise ValueError("zcl needs m >= 2")
    _check_term_budget(m, 2 * m + 1)
    last_nonzero = 0
    for length in range(1, 2 * m + 2):
        if zcl_exhaustive(m, length).all_zero:
            return last_nonzero
        last_nonzero = length
    raise RuntimeError("zero-divisor products never vanished below 2m + 2")


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
