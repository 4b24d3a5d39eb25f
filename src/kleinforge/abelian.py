"""Finitely generated abelian groups as (free rank, torsion multiplicities)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank + sum of (Z/order)^multiplicity over the torsion pairs.

    Torsion is a tuple of (order, multiplicity) pairs with distinct orders
    in ascending order, so (Z/2)^b is one pair however large b is.
    """

    free_rank: int
    torsion: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        orders = [t for t, _ in self.torsion]
        if any(t < 2 for t in orders):
            raise ValueError("torsion orders must be >= 2")
        if any(k < 1 for _, k in self.torsion):
            raise ValueError("torsion multiplicities must be >= 1")
        if any(a >= b for a, b in zip(orders, orders[1:])):
            raise ValueError("torsion orders must be distinct and ascending")

    def f2_dimension(self) -> int:
        """dim over F2 of G tensor Z/2 (free rank plus even torsion factors)."""
        return self.free_rank + sum(k for t, k in self.torsion if t % 2 == 0)

    def text(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts += [f"Z/{t}" if k == 1 else f"(Z/{t})^{k}" for t, k in self.torsion]
        return " + ".join(parts) if parts else "0"
