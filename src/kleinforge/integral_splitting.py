"""Integral cohomology of K_n and the stable splitting of its suspension.

Two independent descriptions of the same space meet here.  The integral
cohomology groups come from closed-form ranks:

    H^d free rank   C(n-1, d)   for even d,  C(n-1, d-1) for odd d,
    H^d torsion     (Z/2)^C(n-1, d-1) for even d >= 2, none otherwise.

The suspension of K_n splits into spheres and mod-2 Moore spaces; reading
homology off that wedge and shifting down one degree gives H_*(K_n), and the
universal-coefficient theorem turns that back into H^*(K_n).  consistency_check
confirms the two routes agree (plus the F2 dimension count and Euler
characteristic zero) without collapsing either computation into the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .abelian import AbelianGroup
from .cohomology_f2 import _check_dimension, poincare_polynomial
from .fundamental_group import abelianization

__all__ = [
    "AbelianGroup",
    "integral_cohomology",
    "WedgeSummand",
    "splitting",
    "homology_from_splitting",
    "cohomology_from_homology",
    "CheckResult",
    "ConsistencyReport",
    "consistency_check",
]

def _two_torsion(count: int) -> tuple[tuple[int, int], ...]:
    return ((2, count),) if count else ()


def integral_cohomology(n: int) -> list[AbelianGroup]:
    """[H^0(K_n; Z), ..., H^n(K_n; Z)]."""
    _check_dimension(n)
    out = []
    for d in range(n + 1):
        if d % 2 == 0:
            free = comb(n - 1, d)
            tors = comb(n - 1, d - 1) if d >= 2 else 0
        else:
            free = comb(n - 1, d - 1)
            tors = 0
        out.append(AbelianGroup(free, _two_torsion(tors)))
    return out


@dataclass(frozen=True)
class WedgeSummand:
    """One wedge factor of the suspension: a sphere S^dim or Moore space M^dim(2)."""

    kind: str  # "sphere" | "moore"
    dim: int
    multiplicity: int

    def __post_init__(self) -> None:
        if self.kind not in ("sphere", "moore"):
            raise ValueError(f"unknown summand kind {self.kind!r}")
        if self.dim < 1 or self.multiplicity < 1:
            raise ValueError("bad summand parameters")

    def text(self) -> str:
        base = f"S^{self.dim}" if self.kind == "sphere" else f"M^{self.dim}(2)"
        return base if self.multiplicity == 1 else f"{self.multiplicity} x {base}"


def splitting(n: int) -> list[WedgeSummand]:
    """Wedge summands of the suspension of K_n (n >= 2), sorted by dimension.

    One S^2 (from the bottom cell pair), and for 0 < i <= n-1 with C(n-1, i)
    copies each: a Moore space M^(i+2)(2) for odd i, and spheres
    S^(i+1) v S^(i+2) for even i.
    """
    _check_dimension(n)
    if n < 2:
        raise ValueError("the splitting is stated for n >= 2")
    out = [WedgeSummand("sphere", 2, 1)]
    for i in range(1, n):
        c = comb(n - 1, i)
        if c == 0:
            continue
        if i % 2 == 1:
            out.append(WedgeSummand("moore", i + 2, c))
        else:
            out.append(WedgeSummand("sphere", i + 1, c))
            out.append(WedgeSummand("sphere", i + 2, c))
    out.sort(key=lambda s: (s.dim, s.kind))
    return out


def homology_from_splitting(n: int) -> list[AbelianGroup]:
    """[H_0(K_n; Z), ..., H_n(K_n; Z)] read off the suspension splitting.

    A sphere S^d in the suspension contributes Z to H_(d-1) of the space, a
    Moore space M^d(2) contributes Z/2 to H_(d-2); H_0 = Z is the base point
    component.
    """
    summands = splitting(n)
    free = [0] * (n + 1)
    tors = [0] * (n + 1)
    for s in summands:
        if s.kind == "sphere":
            d = s.dim - 1
            if d <= n:
                free[d] += s.multiplicity
        else:
            d = s.dim - 2
            if d <= n:
                tors[d] += s.multiplicity
    free[0] = 1
    return [AbelianGroup(free[d], _two_torsion(tors[d])) for d in range(n + 1)]


def cohomology_from_homology(groups: list[AbelianGroup]) -> list[AbelianGroup]:
    """Universal coefficients: H^d = free part of H_d plus torsion of H_(d-1)."""
    out = []
    for d in range(len(groups)):
        tors = groups[d - 1].torsion if d >= 1 else ()
        out.append(AbelianGroup(groups[d].free_rank, tors))
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ConsistencyReport:
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def consistency_check(n: int) -> ConsistencyReport:
    """Cross-check the integral, mod-2 and splitting descriptions of K_n.

    (a) dim H^d(F2) = b_d + t_d + t_(d+1) where b/t are integral Betti and
        2-torsion counts (universal coefficients with F2);
    (b) cohomology rebuilt from the splitting homology equals the closed-form
        integral cohomology;
    (c) H_1 from the splitting equals the abelianized fundamental group;
    (d) the Euler characteristic vanishes, via both descriptions.
    """
    _check_dimension(n)
    if n < 2:
        raise ValueError("consistency_check needs the splitting, so n >= 2")
    integral = integral_cohomology(n)
    f2 = poincare_polynomial(n)
    homology = homology_from_splitting(n)
    checks = []

    # even-order cyclic summands of each degree; H^(n+1) = 0 has none
    t2 = [g.f2_dimension() - g.free_rank for g in integral] + [0]
    ok = all(
        f2[d] == integral[d].free_rank + t2[d] + t2[d + 1] for d in range(n + 1)
    )
    checks.append(
        CheckResult(
            "f2-dimension-count",
            ok,
            f"F2 dims {f2} vs integral ranks+torsion",
        )
    )

    rebuilt = cohomology_from_homology(homology)
    ok = rebuilt == integral
    checks.append(
        CheckResult(
            "splitting-vs-integral",
            ok,
            f"rebuilt {[g.text() for g in rebuilt]} vs closed form "
            f"{[g.text() for g in integral]}",
        )
    )

    ab = abelianization(n)
    ok = (
        homology[1].free_rank == ab.free_rank and homology[1].torsion == ab.torsion
    )
    checks.append(
        CheckResult(
            "h1-vs-pi1-abelianized",
            ok,
            f"H_1 = {homology[1].text()} vs pi_1 abelianized = {ab.text()}",
        )
    )

    chi_int = sum((-1) ** d * integral[d].free_rank for d in range(n + 1))
    chi_f2 = sum((-1) ** d * f2[d] for d in range(n + 1))
    checks.append(
        CheckResult(
            "euler-characteristic-zero",
            chi_int == 0 and chi_f2 == 0,
            f"chi = {chi_int} (integral), {chi_f2} (mod 2)",
        )
    )
    return ConsistencyReport(n, tuple(checks))
