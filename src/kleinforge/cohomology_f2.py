"""Mod-2 cohomology ring of the n-dimensional Klein bottle.

The ring is Z2[R, V1, ..., V_{n-1}] / (R^2, Vi^2 + R*Vi) with every generator
in degree one.  The square-free monomials R^eps * V_S (eps in {0,1}, S a
subset of {1, ..., n-1}) form a basis, and the product of two basis monomials
is again a basis monomial or zero:

    (R^e1 V_S) * (R^e2 V_T) = R^(e1+e2+|S&T|) V_(S|T),

zero whenever the R-exponent exceeds one.  That closed form follows from
Vi^2 = R*Vi (each index shared by S and T contributes one R) and R^2 = 0.

A monomial is packed into one int key, (mask << 1) | eps, with bit i-1 of
the mask holding V_i; the keys of K_n are exactly 0 .. 2^n - 1.  A class is
the frozen set of the keys of its terms (coefficients live in F2, so sets
with symmetric difference as addition).  A monomial's text, JSON and
canonical order (degree, then eps, then variables) are read off its key.
Everything here is exact integer arithmetic.

The unique top-degree basis monomial is R * V1 ... V_{n-1}, key 2^n - 1;
evaluating the coefficient of the top monomial gives the pairing used for
duality checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import CapacityError, check_budget

# Variable subsets sit in a machine word: bit i-1 holds V_i.
MAX_DIMENSION = 63
# Work budgets, checked from n alone before anything is enumerated.
BASIS_BUDGET = 1 << 19  # basis monomials of the whole ring, 2^n
PAIRING_BUDGET = 4_000_000  # entries of one duality pairing matrix


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"dimension must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n > MAX_DIMENSION:
        raise CapacityError(
            f"dimension {n} exceeds the bit-mask limit of {MAX_DIMENSION}"
        )


def _check_keys(n: int, keys) -> None:
    if keys and (min(keys) < 0 or max(keys) >= 1 << n):
        raise ValueError(f"monomial key out of range 0 .. 2^{n} - 1")


# ---------------------------------------------------------------------------
# key-level arithmetic: a monomial of K_n is packed as (mask << 1) | eps.
# These run in inner loops (tensor products, long searches); keep them lean.

def _key_mul(k1: int, k2: int) -> int | None:
    """Product of two packed monomials; None when the product is zero."""
    e = (k1 & 1) + (k2 & 1) + ((k1 >> 1) & (k2 >> 1)).bit_count()
    if e >= 2:
        return None
    return ((k1 | k2) >> 1 << 1) | e


def _key_degree(key: int) -> int:
    return (key & 1) + (key >> 1).bit_count()


def _key_sq1(key: int) -> int | None:
    """Sq^1 of a packed basis monomial; None when it vanishes.

    Sq^1(V_{i1} ... V_{ir}) = R V_{i1} ... V_{ir} for odd r, and Sq^1 kills
    every monomial that already carries R or has evenly many variables.
    """
    if key & 1:
        return None
    if (key >> 1).bit_count() % 2 == 0:
        return None
    return key | 1


def _key_variables(key: int) -> tuple[int, ...]:
    """Indices i with V_i in the packed monomial, ascending."""
    return tuple(i for i in range(1, key.bit_length()) if (key >> i) & 1)


def monomial_text(key: int) -> str:
    """A packed monomial as text: "R*V1*V3", or "1" for the unit."""
    parts = (["R"] if key & 1 else []) + [f"V{i}" for i in _key_variables(key)]
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class CohomologyClass:
    """An element of H^*(K_n; Z2): the packed keys of its terms (F2 coefficients)."""

    n: int
    keys: frozenset[int]

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        _check_keys(self.n, self.keys)

    @classmethod
    def zero(cls, n: int) -> "CohomologyClass":
        return cls(n, frozenset())

    @classmethod
    def one(cls, n: int) -> "CohomologyClass":
        return cls(n, frozenset({0}))

    @classmethod
    def r(cls, n: int) -> "CohomologyClass":
        return cls(n, frozenset({1}))

    @classmethod
    def v(cls, n: int, i: int) -> "CohomologyClass":
        if not 1 <= i <= n - 1:
            raise ValueError(f"V_{i} does not exist for n={n}")
        return cls(n, frozenset({1 << i}))

    def is_zero(self) -> bool:
        return not self.keys

    def degree(self) -> int | None:
        """Common degree of all terms; None for 0 or inhomogeneous classes."""
        degrees = {_key_degree(k) for k in self.keys}
        return degrees.pop() if len(degrees) == 1 else None

    def sorted_keys(self) -> list[int]:
        """Term keys in canonical order: by degree, then eps, then variables."""
        return sorted(
            self.keys, key=lambda k: (_key_degree(k), k & 1, _key_variables(k))
        )

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if self.n != other.n:
            raise ValueError("cannot add classes of different dimension")
        return CohomologyClass(self.n, self.keys ^ other.keys)

    def __mul__(self, other: "CohomologyClass") -> "CohomologyClass":
        return cup(self, other)

    def text(self) -> str:
        if not self.keys:
            return "0"
        return " + ".join(monomial_text(k) for k in self.sorted_keys())


def _check_pairing_budget(n: int, d: int) -> None:
    entries = comb(n, d) * comb(n, n - d)  # dim H^d = C(n, d)
    check_budget(entries, PAIRING_BUDGET, f"entries in the degree-{d} duality pairing of K_{n}")


def basis(n: int, d: int) -> list[int]:
    """Packed keys of the canonical basis of H^d(K_n; Z2), in canonical order.

    Size C(n-1, d) + C(n-1, d-1): the V-only monomials then the R-carrying
    ones.
    """
    _check_dimension(n)
    check_budget(1 << n, BASIS_BUDGET, f"basis monomials in H^*(K_{n})")
    if d < 0 or d > n:
        return []
    out: list[int] = []
    for eps in (0, 1):
        k = d - eps
        if not 0 <= k <= n - 1:
            continue
        for vs in combinations(range(1, n), k):
            key = eps
            for i in vs:
                key |= 1 << i
            out.append(key)
    return out


def cup(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Cup product of two classes."""
    if a.n != b.n:
        raise ValueError("cannot multiply classes of different dimension")
    acc: set[int] = set()
    for ka in a.keys:
        for kb in b.keys:
            k = _key_mul(ka, kb)
            if k is not None:
                acc.symmetric_difference_update({k})
    return CohomologyClass(a.n, frozenset(acc))


def sq(j: int, a: CohomologyClass) -> CohomologyClass:
    """Steenrod square Sq^j.

    On this ring Sq^0 is the identity, Sq^1 is determined by Sq^1(V_i) = R*V_i
    and the derivation rule (which collapses to the parity rule in _key_sq1),
    and Sq^j vanishes for j >= 2 because every indecomposable has degree one.
    """
    if j < 0:
        raise ValueError(f"Sq^{j} undefined")
    if j == 0:
        return a
    if j >= 2:
        return CohomologyClass.zero(a.n)
    acc: set[int] = set()
    for key in a.keys:
        k = _key_sq1(key)
        if k is not None:
            acc.symmetric_difference_update({k})
    return CohomologyClass(a.n, frozenset(acc))


def poincare_polynomial(n: int) -> list[int]:
    """Coefficient list [dim H^0, ..., dim H^n]."""
    _check_dimension(n)
    return [comb(n - 1, d) + (comb(n - 1, d - 1) if d else 0) for d in range(n + 1)]


def top_coefficient(a: CohomologyClass) -> int:
    """Coefficient (0 or 1) of the top monomial in a."""
    return 1 if (1 << a.n) - 1 in a.keys else 0


def cup_length(n: int) -> tuple[int, list[CohomologyClass]]:
    """Longest nonzero product of positive-degree classes, with a witness.

    Products of degree-one basis monomials stay monomials, and every
    positive-degree class is a sum of products of degree-one monomials, so a
    breadth-first search over monomial products of the n degree-one generators
    finds the exact maximum.  Returns (length, [factors]) where the factors
    multiply to a nonzero class.  The search stops after products of n + 1
    generators, which vanish in degree n + 1 > dim K_n, so a cup product
    that is not nilpotent cannot keep it running.
    """
    gens = basis(n, 1)
    # reachable product monomial -> factor chain (first hit wins; generators
    # are scanned in canonical order so the witness is deterministic)
    level: dict[int, tuple[int, ...]] = {g: (g,) for g in gens}
    length = 1
    while length <= n:
        nxt: dict[int, tuple[int, ...]] = {}
        for prod, chain in sorted(level.items()):
            for g in gens:
                k = _key_mul(prod, g)
                if k is not None and k not in nxt:
                    nxt[k] = chain + (g,)
        if not nxt:
            break
        level = nxt
        length += 1
    witness_chain = level[min(level)]
    witness = [CohomologyClass(n, frozenset({k})) for k in witness_chain]
    return length, witness


def duality_pairing(n: int, d: int) -> list[int]:
    """Pairing matrix H^d x H^(n-d) -> F2 against the top monomial.

    One GF(2) bit row per basis(n, d)[a], as in `linalg`: bit b is the
    top-monomial coefficient of basis(n, d)[a] * basis(n, n-d)[b].
    Nonsingular in every degree (Poincare duality for a closed manifold).
    """
    _check_dimension(n)
    if d < 0 or d > n:
        raise ValueError(f"degree {d} out of range for n={n}")
    _check_pairing_budget(n, d)
    cols = basis(n, n - d)
    top = (1 << n) - 1
    return [
        sum(1 << b for b, kb in enumerate(cols) if _key_mul(ka, kb) == top)
        for ka in basis(n, d)
    ]
