"""Finitely generated abelian groups as (free rank, torsion orders)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank + sum of cyclic groups Z/t, torsion sorted ascending."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion orders must be >= 2")
        if tuple(sorted(self.torsion)) != self.torsion:
            raise ValueError("torsion orders must be sorted ascending")

    def f2_dimension(self) -> int:
        """dim over F2 of G tensor Z/2 (free rank plus even torsion factors)."""
        return self.free_rank + sum(1 for t in self.torsion if t % 2 == 0)

    def text(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        while i < len(self.torsion):
            t = self.torsion[i]
            k = self.torsion.count(t)
            parts.append(f"Z/{t}" if k == 1 else f"(Z/{t})^{k}")
            i += k
        return " + ".join(parts) if parts else "0"
