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

Permuting the V indices is a ring automorphism (the defining relations are
symmetric in i) and extends to the tensor square, so whether a product of
generator zero divisors vanishes depends only on the multiset of exponents.
The exhaustive search therefore enumerates one canonical representative per
multiset: Rbar^r * Vbar_1^(e1) * ... with e1 >= e2 >= ...
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cohomology_f2 import CohomologyClass, Monomial, _check_dimension, _check_keys, _key_mul
from .errors import FeasibilityError

# canonical exponent multisets per exhaustive search, not raw products
SEARCH_BUDGET = 10**7


@dataclass(frozen=True)
class TensorClass:
    """An element of H^* (x) H^* for K_n: an F2 set of packed key pairs."""

    n: int
    keys: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        _check_keys(self.n, [k for pair in self.keys for k in pair])

    @classmethod
    def outer(cls, left: CohomologyClass, right: CohomologyClass) -> "TensorClass":
        if left.n != right.n:
            raise ValueError("dimension mismatch")
        return cls(left.n, frozenset((a, b) for a in left.keys for b in right.keys))

    def is_zero(self) -> bool:
        return not self.keys

    def sorted_terms(self) -> list[tuple[Monomial, Monomial]]:
        pairs = (
            (Monomial.from_key(self.n, a), Monomial.from_key(self.n, b))
            for a, b in self.keys
        )
        return sorted(pairs, key=lambda p: (p[0].sort_key(), p[1].sort_key()))

    def __add__(self, other: "TensorClass") -> "TensorClass":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return TensorClass(self.n, self.keys ^ other.keys)

    def __mul__(self, other: "TensorClass") -> "TensorClass":
        return tensor_mul(self, other)

    def text(self) -> str:
        if not self.keys:
            return "0"
        return " + ".join(f"{a.text()} (x) {b.text()}" for a, b in self.sorted_terms())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"left": a.to_json(), "right": b.to_json()}
                for a, b in self.sorted_terms()
            ],
        }


def _mul_keysets(a, b) -> set[tuple[int, int]]:
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


def tensor_mul(a: TensorClass, b: TensorClass) -> TensorClass:
    """(u (x) v) * (u' (x) v') = uu' (x) vv' extended bilinearly.

    Signs never appear: coefficients are mod 2.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return TensorClass(a.n, frozenset(_mul_keysets(a.keys, b.keys)))


def zero_divisor(x: CohomologyClass) -> TensorClass:
    """xbar = x (x) 1 + 1 (x) x."""
    one = CohomologyClass.one(x.n)
    return TensorClass.outer(x, one) + TensorClass.outer(one, x)


def rbar(n: int) -> TensorClass:
    return zero_divisor(CohomologyClass.r(n))


def vbar(n: int, i: int) -> TensorClass:
    return zero_divisor(CohomologyClass.v(n, i))


def diagonal_restriction(t: TensorClass) -> CohomologyClass:
    """Pull back along the diagonal: u (x) v -> u * v."""
    acc: set[int] = set()
    for a, b in t.keys:
        k = _key_mul(a, b)
        if k is not None:
            acc.symmetric_difference_update({k})
    return CohomologyClass(t.n, frozenset(acc))


# ---------------------------------------------------------------------------
# exhaustive search over products of generator zero divisors


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

    def to_json(self) -> dict:
        return {"n": self.n, "rbar": self.rbar, "v_powers": list(self.v_powers)}


def _generator_keys(n: int, index: int) -> frozenset[tuple[int, int]]:
    # index 0 = Rbar, index i = Vbar_i; packed keys: R -> 1, V_i -> 1 << i
    key = 1 if index == 0 else 1 << index
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


@lru_cache(maxsize=None)
def _count_partitions(s: int, max_parts: int, max_part: int) -> int:
    if s == 0:
        return 1
    if max_parts == 0 or max_part == 0:
        return 0
    total = 0
    for first in range(min(s, max_part), 0, -1):
        total += _count_partitions(s - first, max_parts - 1, first)
    return total


def _partitions(s: int, max_parts: int, max_part: int):
    """Descending partitions of s into at most max_parts parts, largest first."""
    if s == 0:
        yield ()
        return
    for first in range(min(s, max_part), 0, -1):
        if max_parts == 0:
            return
        for rest in _partitions(s - first, max_parts - 1, first):
            yield (first,) + rest


def _canonical_multisets(n: int, length: int):
    """All canonical (rbar, v_powers) with rbar + sum(v_powers) = length."""
    for r in range(length + 1):
        yield from (
            (r, parts) for parts in _partitions(length - r, n - 1, length)
        )


def count_canonical_multisets(n: int, length: int) -> int:
    return sum(
        _count_partitions(length - r, n - 1, length) for r in range(length + 1)
    )


@dataclass(frozen=True)
class ZclSearchResult:
    n: int
    length: int
    all_zero: bool
    witness: FactorMultiset | None
    checked: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "length": self.length,
            "all_zero": self.all_zero,
            "witness": self.witness.to_json() if self.witness else None,
            "checked": self.checked,
        }


def zcl_exhaustive(n: int, length: int) -> ZclSearchResult:
    """Check every length-``length`` product of generator zero divisors.

    Enumerates canonical exponent multisets (see module docstring) in a fixed
    order and stops at the first nonzero product.  Raises FeasibilityError if
    the multiset count exceeds the search budget.
    """
    _check_dimension(n)
    if length < 1:
        raise ValueError("product length must be >= 1")
    total = count_canonical_multisets(n, length)
    if total > SEARCH_BUDGET:
        raise FeasibilityError(
            f"{total} exponent multisets exceed the budget of {SEARCH_BUDGET}"
        )
    checked = 0
    witness = None
    for r, parts in _canonical_multisets(n, length):
        checked += 1
        if _evaluate_multiset(n, r, parts):
            witness = FactorMultiset(n, r, parts)
            break
    return ZclSearchResult(n, length, witness is None, witness, checked)


def zcl_witness(n: int) -> tuple[FactorMultiset, TensorClass]:
    """The canonical maximal nonzero product Vbar_1^3 Vbar_2^2 Vbar_3 ... Vbar_(n-1).

    Defined for n >= 3; its length is n + 2.  Returns the factor multiset and
    the full product, which is verified nonzero and must contain the pair
    R V_1 ... V_(n-2) (x) R V_1 V_(n-1).
    """
    _check_dimension(n)
    if n < 3:
        raise ValueError("the long witness needs n >= 3")
    powers = (3, 2) + (1,) * (n - 3)
    ms = FactorMultiset(n, 0, powers)
    value = TensorClass(n, frozenset(_evaluate_multiset(n, 0, powers)))
    if value.is_zero():
        raise RuntimeError(f"maximal zero-divisor product vanished for n={n}")
    left = ((1 << (n - 2)) - 1) << 1 | 1  # R V_1 ... V_(n-2)
    right = (1 | (1 << (n - 2))) << 1 | 1  # R V_1 V_(n-1)
    if (left, right) not in value.keys:
        raise RuntimeError(
            f"expected proof term {Monomial.from_key(n, left).text()} (x) "
            f"{Monomial.from_key(n, right).text()} missing for n={n}"
        )
    return ms, value


@dataclass(frozen=True)
class TcBounds:
    m: int
    zcl: int
    lower: int
    upper: int
    method: str

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "zcl": self.zcl,
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
        }


def compute_zcl(m: int, *, allow_fallback: bool = True) -> tuple[int, str]:
    """Zero-divisor cup length of K_m, preferring the exhaustive search.

    Scans lengths upward until every product vanishes (monotone: any longer
    product contains a vanishing sub-product).  Falls back to the explicit
    length-(m+2) witness plus the cited vanishing bound when the enumeration
    would blow the budget; pass allow_fallback=False to surface the budget
    error instead.
    """
    _check_dimension(m)
    if m < 2:
        raise ValueError("zcl needs m >= 2")
    try:
        last_nonzero = 0
        for length in range(1, 2 * m + 2):
            res = zcl_exhaustive(m, length)
            if res.all_zero:
                return last_nonzero, "exhaustive-search"
            last_nonzero = length
        raise RuntimeError("zero-divisor products never vanished below 2m + 2")
    except FeasibilityError:
        if m < 3 or not allow_fallback:
            raise
        zcl_witness(m)  # raises if the witness fails
        return m + 2, "witness-plus-cited-vanishing"


def tc_bounds(m: int) -> TcBounds:
    """Topological-complexity bounds for K_m: (zcl + 1, 2m + 1)."""
    z, method = compute_zcl(m)
    return TcBounds(
        m=m,
        zcl=z,
        lower=z + 1,
        upper=2 * m + 1,
        method=f"lower: zcl+1 ({method}); upper: cited dimension bound",
    )
