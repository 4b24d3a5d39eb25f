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
with symmetric difference as addition), held as Python ints.  A monomial's
text, JSON and canonical order (degree, then eps, then variables) are read
off its key: `monomial_text` renders one key, and `monomial_texts` the
whole ring at once, one table indexed by key and built by doubling.

Every product of keys goes through one rule on uint64 key arrays,
`_key_products`, and every product of classes through one batched product
over many classes at once, `_class_products`; `cup` is that batch with a
single class on each side.  Every Steenrod square of keys goes through one
rule on the same arrays, `_key_squares`; `sq` is that rule on one class's
keys.  Everything here is exact integer arithmetic.

The unique top-degree basis monomial is R * V1 ... V_{n-1}, key 2^n - 1;
evaluating the coefficient of the top monomial gives the pairing used for
duality checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import CapacityError, check_budget

# Variable subsets sit in a machine word: bit i-1 holds V_i.
MAX_DIMENSION = 63
# Work budgets, checked from n alone before anything is enumerated.
BASIS_BUDGET = 1 << 19  # basis monomials of the whole ring, 2^n
PAIRING_BUDGET = 4_000_000  # entries of one duality pairing matrix
# entries of a product table formed at once: 256 KB per uint64 temporary
_TABLE_BLOCK = 1 << 15


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
# Products and squares run on uint64 key arrays, a batch of keys per call: a
# scalar step through numpy costs far more than the work, so callers batch.

# the key of a zero product or square; keys of K_n stay below 2^63, so it is no monomial
_ZERO = np.uint64(2**64 - 1)


def _key_products(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Products of packed monomials, elementwise (broadcast); _ZERO where one vanishes.

    The R-exponent of the product is e = eps1 + eps2 + |S & T|, its variables
    S | T, and it vanishes for e >= 2.
    """
    e = (k1 & 1) + (k2 & 1) + np.bitwise_count((k1 >> 1) & (k2 >> 1))
    return np.where(e < 2, ((k1 | k2) >> 1 << 1) | e, _ZERO)


def _key_squares(j: int, keys: np.ndarray) -> np.ndarray:
    """Sq^j of packed monomials, elementwise; _ZERO where a square vanishes.

    Sq^0 is the identity.  Sq^1(V_{i1} ... V_{ir}) = R V_{i1} ... V_{ir} for
    odd r, and Sq^1 kills every monomial that already carries R or has evenly
    many variables.  Sq^j vanishes for j >= 2.  Distinct keys have distinct
    nonzero images, so the square of a class needs no parity pass.
    """
    if j == 0:
        return keys
    live = (j == 1) & ((keys & 1) == 0) & (np.bitwise_count(keys >> 1) % 2 == 1)
    return np.where(live, keys | 1, _ZERO)


def _distinct(*columns: np.ndarray, odd: bool = False) -> tuple[np.ndarray, ...]:
    """The distinct rows of `columns`, sorted with the first column most significant.

    With odd=True only the rows that occur an odd number of times are kept,
    which is their sum over F2.  A lexsort, so no column is packed into
    another and keys of every n up to 63 fit.
    """
    order = np.lexsort(columns[::-1])
    cols = [c[order] for c in columns]
    start = np.zeros(len(order), dtype=bool)
    start[:1] = True
    for c in cols:
        start[1:] |= c[1:] != c[:-1]
    first = np.flatnonzero(start)
    if odd:
        first = first[np.diff(first, append=len(order)) % 2 == 1]
    return tuple(c[first] for c in cols)


def _pairs(owner_a: np.ndarray, owner_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of every pair of rows with owner_a[i] == owner_b[j].

    owner_b must be ascending; the pairs come in the order of i, then j.
    """
    size = int(max(owner_a.max(initial=-1), owner_b.max(initial=-1))) + 1
    per_b = np.bincount(owner_b, minlength=size)
    reps = per_b[owner_a]
    i = np.repeat(np.arange(len(owner_a)), reps)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps, reps)
    return i, (np.cumsum(per_b) - per_b)[owner_a[i]] + offset


def _class_products(
    owner_a: np.ndarray, keys_a: np.ndarray, owner_b: np.ndarray, keys_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Products of many pairs of classes at once.

    Class a of owner o has the keys keys_a[owner_a == o], and likewise for b;
    owner_b is ascending and no key repeats within a class.  Every key pair
    of each owner is multiplied, and the keys that occur an odd number of
    times per owner are kept.  Returns the (owner, key) rows of the products,
    ascending, in the same form, so a product can be multiplied again.
    """
    i, j = _pairs(owner_a, owner_b)
    keys = _key_products(keys_a[i], keys_b[j])
    live = keys != _ZERO
    return _distinct(owner_a[i][live], keys[live], odd=True)


def _key_degree(key: int) -> int:
    return (key & 1) + (key >> 1).bit_count()


def _key_variables(key: int) -> tuple[int, ...]:
    """Indices i with V_i in the packed monomial, ascending."""
    return tuple(i for i in range(1, key.bit_length()) if (key >> i) & 1)


def monomial_text(key: int) -> str:
    """A packed monomial as text: "R*V1*V3", or "1" for the unit."""
    parts = (["R"] if key & 1 else []) + [f"V{i}" for i in _key_variables(key)]
    return "*".join(parts) if parts else "1"


def monomial_texts(n: int) -> list[str]:
    """Every monomial's text, indexed by key: texts[key] == monomial_text(key).

    Built by doubling: the keys with a generator's bit set are the keys
    below that bit with the generator appended, so each pass over R, V1,
    ..., V_{n-1} copies the table so far once.  Guarded from n before
    anything is built.
    """
    _check_basis_budget(n)
    texts = ["1"]
    for name in ["R", *(f"V{i}" for i in range(1, n))]:
        texts += [name] + [t + "*" + name for t in texts[1:]]
    return texts


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


def _check_basis_budget(n: int) -> None:
    _check_dimension(n)
    check_budget(1 << n, BASIS_BUDGET, f"basis monomials in H^*(K_{n})")


def basis(n: int, d: int) -> list[int]:
    """Packed keys of the canonical basis of H^d(K_n; Z2), in canonical order.

    Size C(n-1, d) + C(n-1, d-1): the V-only monomials then the R-carrying
    ones.
    """
    _check_basis_budget(n)
    if d < 0 or d > n:
        return []
    out: list[int] = []
    for eps in (0, 1):
        k = d - eps
        if not 0 <= k <= n - 1:
            continue
        if k == 0:  # one empty V-part; there is no column to reduce over
            out.append(eps)
            continue
        # one row of variable indices per subset, in combinations' order
        count = comb(n - 1, k)
        idx = np.fromiter(chain.from_iterable(combinations(range(1, n), k)), np.uint64, count * k)
        keys = np.bitwise_or.reduce(np.uint64(1) << idx.reshape(count, k), axis=1)
        out += (keys | np.uint64(eps)).tolist()
    return out


def cup(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Cup product of two classes."""
    if a.n != b.n:
        raise ValueError("cannot multiply classes of different dimension")
    keys_a = np.fromiter(a.keys, np.uint64, len(a.keys))
    keys_b = np.fromiter(b.keys, np.uint64, len(b.keys))
    _, keys = _class_products(
        np.zeros(len(keys_a), np.intp), keys_a, np.zeros(len(keys_b), np.intp), keys_b
    )
    return CohomologyClass(a.n, frozenset(keys.tolist()))


def sq(j: int, a: CohomologyClass) -> CohomologyClass:
    """Steenrod square Sq^j, by the rule `_key_squares` on the keys of a.

    On this ring Sq^0 is the identity, Sq^1 is determined by Sq^1(V_i) = R*V_i
    and the derivation rule (which collapses to the parity rule there), and
    Sq^j vanishes for j >= 2 because every indecomposable has degree one.
    """
    if j < 0:
        raise ValueError(f"Sq^{j} undefined")
    keys = _key_squares(j, np.fromiter(a.keys, np.uint64, len(a.keys)))
    return CohomologyClass(a.n, frozenset(keys[keys != _ZERO].tolist()))


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
    that is not nilpotent cannot keep it running.  Each level is formed
    about _TABLE_BLOCK products at a time and keeps one back-pointer per
    monomial, not its chain of factors.
    """
    gens = np.array(basis(n, 1), dtype=np.uint64)
    # one level per product length: its keys ascending, and for each the flat
    # index (level-before position * n + generator) of its first hit; the
    # products are scanned in ascending order and the generators in canonical
    # order for each, so the witness is deterministic
    levels = [(np.sort(gens), None)]
    step = max(1, _TABLE_BLOCK // n)
    while len(levels) <= n:
        prods = levels[-1][0]
        keys, at = [], []
        for start in range(0, len(prods), step):
            block = _key_products(prods[start : start + step, None], gens).ravel()
            hits = np.flatnonzero(block != _ZERO)
            # np.unique sorts stably for return_index, so each index is a first hit
            found, first = np.unique(block[hits], return_index=True)
            keys.append(found)
            at.append(hits[first] + start * n)
        found, first = np.unique(np.concatenate(keys), return_index=True)
        if not len(found):
            break
        levels.append((found, np.concatenate(at)[first]))
    # back from the smallest key of the longest level to its generators
    factors, i = [], 0
    for _, at in reversed(levels[1:]):
        i, g = divmod(int(at[i]), n)
        factors.append(int(gens[g]))
    factors.append(int(levels[0][0][i]))
    return len(levels), [CohomologyClass(n, frozenset({k})) for k in reversed(factors)]


def duality_pairing(n: int, d: int) -> list[int]:
    """Pairing matrix H^d x H^(n-d) -> F2 against the top monomial.

    One GF(2) bit row per basis(n, d)[a], as in `linalg`: bit b is the
    top-monomial coefficient of basis(n, d)[a] * basis(n, n-d)[b].
    Nonsingular in every degree (Poincare duality for a closed manifold).
    The matrix is formed a block of rows at a time, about _TABLE_BLOCK
    entries each.
    """
    _check_dimension(n)
    if d < 0 or d > n:
        raise ValueError(f"degree {d} out of range for n={n}")
    _check_pairing_budget(n, d)
    rows = np.array(basis(n, d), dtype=np.uint64)
    cols = np.array(basis(n, n - d), dtype=np.uint64)
    top = np.uint64((1 << n) - 1)
    step = max(1, _TABLE_BLOCK // len(cols))
    out: list[int] = []
    for block in np.split(rows, range(step, len(rows), step)):
        bits = np.packbits(_key_products(block[:, None], cols) == top, axis=1, bitorder="little")
        out += [int.from_bytes(row.tobytes(), "little") for row in bits]
    return out
