"""Wu and Stiefel-Whitney classes of the n-dimensional Klein bottle.

The Wu class v_j is the unique degree-j class with v_j * x = Sq^j(x) for all
x of degree n-j; it is found by solving that linear condition against the
duality pairing, never by citing a formula.  Stiefel-Whitney classes then
come out of w = Sq(v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cohomology_f2 as coh
from .cohomology_f2 import CohomologyClass, _check_dimension
from .linalg import f2_solve


def wu_classes(n: int) -> list[CohomologyClass]:
    """[v_0, ..., v_n] with v_j * x = Sq^j(x) for every x of degree n - j.

    For each j the condition is linear in the coordinates of v_j: pairing a
    candidate against the degree-(n-j) basis must reproduce the top-monomial
    coefficients of the Sq^j values.  The pairing matrix is invertible, so the
    solution exists and is unique; a zero right-hand side gives v_j = 0, and
    only a nonzero one is solved.
    """
    _check_dimension(n)
    out = [CohomologyClass.one(n)]
    for j in range(1, n + 1):
        rhs = 0
        for bi, kb in enumerate(coh.basis(n, n - j)):
            sqb = coh.sq(j, CohomologyClass(n, frozenset({kb})))
            if coh.top_coefficient(sqb):
                rhs |= 1 << bi
        if not rhs:
            out.append(CohomologyClass.zero(n))
            continue
        bj = coh.basis(n, j)
        # one equation per degree-(n-j) basis element b: sum_a c_a <a, b>
        # equals the top coefficient of Sq^j(b); the cup product commutes,
        # so row b, bit a of the degree-(n-j) pairing is <a, b>
        rows = coh.duality_pairing(n, n - j)
        if len(rows) != len(bj):
            raise RuntimeError("duality pairing is not square; ring is broken")
        try:
            sol = f2_solve(rows, rhs, len(bj))
        except ValueError as exc:  # nonsingularity is a theorem; never expected
            raise RuntimeError(f"Wu class v_{j} has no solution for n={n}") from exc
        out.append(
            CohomologyClass(n, frozenset(bj[a] for a in range(len(bj)) if (sol >> a) & 1))
        )
    return out


def stiefel_whitney(n: int) -> list[CohomologyClass]:
    """[w_0, ..., w_n] via w_k = sum_j Sq^(k-j)(v_j)."""
    vs = wu_classes(n)
    out = []
    for k in range(n + 1):
        acc = CohomologyClass.zero(n)
        for j in range(k + 1):
            acc = acc + coh.sq(k - j, vs[j])
        out.append(acc)
    return out


@dataclass(frozen=True)
class ManifoldReport:
    """Classical manifold invariants of K_n.

    ``provenance`` records, per field, whether the value was computed here
    (from the cohomology ring) or cited from the structure theory of these
    manifolds.
    """

    n: int
    orientable: bool
    parallelizable: bool
    span: int
    immersion_dim: int
    embedding_dim: int
    category: int
    provenance: dict = field(default_factory=dict, compare=False)


def manifold_report(n: int) -> ManifoldReport:
    """Invariant summary for K_n.

    Orientability and category are computed (w_1 = 0 test, cup length); the
    tangent-bundle span, immersion/embedding dimensions and parallelizability
    are the known closed-form answers, split by the parity of n, and are
    labelled as cited.
    """
    _check_dimension(n)
    w = stiefel_whitney(n)
    orientable = w[1].is_zero()
    even = n % 2 == 0
    cat, _ = coh.cup_length(n)
    return ManifoldReport(
        n=n,
        orientable=orientable,
        parallelizable=not even,
        span=n - 1 if even else n,
        immersion_dim=n + 1,
        embedding_dim=n + 2 if even else n + 1,
        category=cat,
        provenance={
            "orientable": "computed (w_1 = 0 test)",
            "parallelizable": "cited",
            "span": "cited",
            "immersion_dim": "cited",
            "embedding_dim": "cited",
            "category": "computed (cup length)",
        },
    )
