"""Independent cross-checks for every component, shared by CLI and tests.

Each check recomputes a claim by a second route and compares:

* cup products against a free-polynomial oracle that multiplies exponent
  vectors and then applies the rewriting V_i^2 -> R V_i, R^2 -> 0 until
  exhaustion (no closed-form shortcut);
* group-element normal forms against a string-rewriting oracle driven by
  the defining relations only;
* tensor-square products against a subset-split expansion of the
  zero-divisor factors;
* the geometric identities numerically, at tolerances fixed here.

`verify_paper` bundles the checks behind one deterministic report; the
CLI exposes it and the acceptance tests call the same functions with
their default ranges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import char_classes as cc
from . import cohomology_f2 as coh
from . import fundamental_group as fg
from . import geometry as geo
from . import integral_splitting as ints
from . import polygon_genetics as pg
from . import tensor_zcl as tz
from .errors import FeasibilityError
from .linalg import f2_is_invertible

RNG_SEED = 988206131  # fixed so every run checks the identical samples


@dataclass(frozen=True)
class Verification:
    name: str
    passed: bool
    detail: str
    seconds: float

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _run(name: str, fn) -> Verification:
    """Time one check; any exception but a feasibility guard makes it a FAIL."""
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except FeasibilityError:
        raise
    except Exception as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return Verification(name, passed, detail, time.perf_counter() - start)


# ---------------------------------------------------------------- oracles

def cup_free_reduction(a: coh.CohomologyClass, b: coh.CohomologyClass) -> coh.CohomologyClass:
    """Cup product via free polynomial multiplication plus term rewriting.

    Multiplies exponent vectors freely, then rewrites any V_i^k with k >= 2
    one step at a time (V_i^k -> R V_i^(k-1)) and kills R^2.  Slower than
    the closed form but derived straight from the ring presentation.
    """
    if a.n != b.n:
        raise ValueError("mixed ambient dimensions")
    out: set[int] = set()
    for ka in a.keys:
        for kb in b.keys:
            r_exp = (ka & 1) + (kb & 1)
            v_exp = {}
            for key in (ka, kb):  # bit i of a key holds V_i
                for i in range(1, a.n):
                    if key >> i & 1:
                        v_exp[i] = v_exp.get(i, 0) + 1
            # rewrite V_i^k -> R V_i^(k-1) until all exponents are <= 1
            while True:
                high = [i for i, e in v_exp.items() if e >= 2]
                if not high:
                    break
                v_exp[high[0]] -= 1
                r_exp += 1
            if r_exp >= 2:
                continue
            key = r_exp
            for i in v_exp:
                key |= 1 << i
            out.symmetric_difference_update({key})
    return coh.CohomologyClass(a.n, frozenset(out))


def rewrite_word(n: int, letters) -> tuple:
    """Normalize a word using only the defining relations.

    Rules: cancel adjacent inverse pairs; push a_n letters rightward past
    smaller generators, inverting them (a_n^e a_j^f = a_j^(-f) a_n^e);
    sort adjacent commuting generators ascending.  Each productive pass
    shortens the word or lowers its inversion count, so this terminates.
    """
    w = list(letters)
    changed = True
    while changed:
        changed = False
        out = []
        for lt in w:
            if out and out[-1][0] == lt[0] and out[-1][1] == -lt[1]:
                out.pop()
                changed = True
            else:
                out.append(lt)
        w = out
        i = 0
        while i + 1 < len(w):
            (g1, e1), (g2, e2) = w[i], w[i + 1]
            if g1 == n and g2 < n:
                w[i], w[i + 1] = (g2, -e2), (g1, e1)
                changed = True
                i = max(i - 1, 0)
            elif g2 < g1 < n:
                w[i], w[i + 1] = w[i + 1], w[i]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return tuple(w)


def word_exponents(n: int, word) -> tuple[tuple[int, ...], int]:
    """Read (k_1..k_(n-1), m) off a rewritten word, checking its shape."""
    k = [0] * (n - 1)
    m = 0
    prev = 0
    for g, e in word:
        if g < prev:
            raise ValueError("word is not in sorted shape")
        prev = g
        if g == n:
            m += e
        else:
            k[g - 1] += e
    return tuple(k), m


def expand_zero_divisor_product(n: int, factors) -> frozenset[tuple[int, int]]:
    """Product of zero divisors by splitting factors between the sides.

    Each factor x gives x(x)1 + 1(x)x; distributing the product sends a
    subset S of factor positions to (prod_S x) (x) (prod_notS x).  XOR over
    all 2^len subsets, multiplying each side with the public cup product.
    Returns the packed key pairs of the product, the form `zcl_witness` returns.
    """
    one = coh.CohomologyClass.one(n)
    terms: set = set()
    L = len(factors)
    for s in range(1 << L):
        left = one
        right = one
        for i, x in enumerate(factors):
            if s >> i & 1:
                left = left * x
            else:
                right = right * x
        if left.is_zero() or right.is_zero():
            continue
        for kl in left.keys:
            for kr in right.keys:
                pair = (kl, kr)
                if pair in terms:
                    terms.remove(pair)
                else:
                    terms.add(pair)
    return frozenset(terms)


# ------------------------------------------------------- cohomology table

TABLE_N4_DIMS = (1, 4, 6, 4, 1)
TABLE_N4_BASIS = (
    ("1",),
    ("V1", "V2", "V3", "R"),
    ("V1*V2", "V1*V3", "V2*V3", "R*V1", "R*V2", "R*V3"),
    ("V1*V2*V3", "R*V1*V2", "R*V1*V3", "R*V2*V3"),
    ("R*V1*V2*V3",),
)
TABLE_N4_SQ1 = (
    ("V1", "R*V1"),
    ("V2", "R*V2"),
    ("V3", "R*V3"),
    ("V1*V2*V3", "R*V1*V2*V3"),
)


def cohomology_table(n: int) -> dict:
    """Basis per degree plus the Sq1 pairings, ready for rendering."""
    coh._check_dimension(n)
    basis = []
    sq1 = []
    for d in range(n + 1):
        row = []
        for key in coh.basis(n, d):
            row.append(coh.monomial_text(key))
            image = coh.sq(1, coh.CohomologyClass(n, frozenset({key})))
            if not image.is_zero():
                sq1.append((row[-1], image.text()))
        basis.append(tuple(row))
    return {
        "n": n,
        "dims": tuple(len(r) for r in basis),
        "basis": tuple(basis),
        "sq1": tuple(sq1),
    }


def check_cohomology_table() -> Verification:
    """Degree-4 table: 16 basis elements, dims (1,4,6,4,1), four Sq1 lines."""
    def body():
        data = cohomology_table(4)
        ok = (
            data["dims"] == TABLE_N4_DIMS
            and sum(data["dims"]) == 16
            and tuple(tuple(sorted(r)) for r in data["basis"])
            == tuple(tuple(sorted(r)) for r in TABLE_N4_BASIS)
            and sorted(data["sq1"]) == sorted(TABLE_N4_SQ1)
        )
        return ok, f"dims {data['dims']}, {sum(data['dims'])} basis elements, {len(data['sq1'])} Sq1 pairings"
    return _run("cohomology-table-n4", body)


# ------------------------------------------------------------- ring checks

def check_ring_oracle(max_n: int = 8, triples: int = 10_000) -> Verification:
    """Cup vs the free-reduction oracle, plus ring laws on random classes.

    Oracle agreement on every basis pair for n <= 4; associativity and
    commutativity on `triples` seeded random triples spread over n <= max_n
    (at most 32).  The samples are the top bits of one block of seeded 32-bit
    words: each class has 1 + (top 2 bits) keys, each key the top n bits of
    the next word.  numpy draws an integer below a power of two 2^k <= 2^32
    as the top k bits of one 32-bit word, so these are the same classes
    that one rng.integers(1, 5) and one rng.integers(0, 2^n, size) per
    class would give.
    """
    def body():
        pair_count = 0
        for n in range(1, min(4, max_n) + 1):
            classes = [coh.CohomologyClass(n, frozenset({k})) for k in range(1 << n)]
            for a in classes:
                for b in classes:
                    if a * b != cup_free_reduction(a, b):
                        return False, f"oracle mismatch at n={n}: {a.text()} * {b.text()}"
                    pair_count += 1
        rng = np.random.default_rng(RNG_SEED)
        # a triple reads at most 3 * (1 + 4) words
        words = iter(rng.integers(0, 1 << 32, size=15 * triples, dtype=np.uint64).tolist())
        ns = list(range(1, max_n + 1))
        per = triples // len(ns)
        done = 0
        for n in ns:
            budget = per if n != ns[-1] else triples - per * (len(ns) - 1)
            for _ in range(budget):
                cls = []
                for _ in range(3):
                    size = 1 + (next(words) >> 30)
                    keys = [w >> (32 - n) for w in islice(words, size)]
                    cls.append(coh.CohomologyClass(n, frozenset(keys)))
                a, b, c = cls
                ab = a * b
                if ab * c != a * (b * c):
                    return False, f"associativity broke at n={n}"
                if ab != b * a:
                    return False, f"commutativity broke at n={n}"
                done += 1
        return True, f"{pair_count} oracle basis pairs, {done} random triples to n={max_n}"
    return _run("cup-ring-oracle", body)


def check_cup_length_duality(max_n: int = 10) -> Verification:
    """cup_length(n) = n with a verified witness; duality nonsingular."""
    def body():
        for n in range(1, max_n + 1):
            length, witness = coh.cup_length(n)
            if length != n or len(witness) != n:
                return False, f"cup_length({n}) = {length}"
            prod = coh.CohomologyClass.one(n)
            for w in witness:
                prod = prod * w
            if coh.top_coefficient(prod) != 1:
                return False, f"cup_length witness fails at n={n}"
            for d in range(n + 1):
                rows = coh.duality_pairing(n, d)
                if not f2_is_invertible(rows, len(rows)):
                    return False, f"duality pairing singular at n={n}, d={d}"
        return True, f"cup_length(n)=n and nonsingular pairing for n<={max_n}"
    return _run("cup-length-and-duality", body)


def check_stiefel_whitney(max_n: int = 10) -> Verification:
    """w = R exactly when n is even (and only in degree 1), via Wu solve."""
    def body():
        for n in range(2, max_n + 1):
            w = cc.stiefel_whitney(n)
            r = coh.CohomologyClass.r(n)
            for k in range(1, n + 1):
                expect = r if (k == 1 and n % 2 == 0) else coh.CohomologyClass.zero(n)
                if w[k] != expect:
                    return False, f"w_{k} wrong at n={n}: {w[k].text()}"
        return True, f"w_1 = R for even n, all else zero, n<={max_n}"
    return _run("stiefel-whitney", body)


def check_integral_consistency(max_n: int = 12) -> Verification:
    """Integral groups, wedge splitting, and mod-2 dimensions agree."""
    def body():
        for n in range(2, max_n + 1):
            report = ints.consistency_check(n)
            if not report.passed:
                bad = [c.name for c in report.checks if not c.passed]
                return False, f"n={n} failed: {', '.join(bad)}"
        h = ints.integral_cohomology(2)
        if [g.text() for g in h] != ["Z", "Z", "Z/2"]:
            return False, f"n=2 integral groups wrong: {[g.text() for g in h]}"
        h1 = fg.abelianization(2)
        if h1.text() != "Z + Z/2":
            return False, f"n=2 H_1 wrong: {h1.text()}"
        return True, f"all consistency identities for n<={max_n}; n=2 gives (Z, Z, Z/2), H1 = Z + Z/2"
    return _run("integral-consistency", body)


# ------------------------------------------------------------ tensor checks

def check_tensor_witness(max_n: int = 8) -> Verification:
    """Length-(n+2) witness nonzero with its anchor term, 3 <= n <= max_n.

    For n <= 5 the whole product is independently recomputed by the
    subset-split expansion.
    """
    def body():
        for n in range(3, max_n + 1):
            factors, prod = tz.zcl_witness(n)
            if not prod or factors.length() != n + 2:
                return False, f"witness degenerate at n={n}"
            # R V_1 ... V_(n-2) (x) R V_1 V_(n-1), packed
            anchor = (((1 << (n - 2)) - 1) << 1 | 1, (1 | (1 << (n - 2))) << 1 | 1)
            if anchor not in prod:
                return False, f"anchor term missing at n={n}"
            if n <= 5:
                classes = []
                classes += [coh.CohomologyClass.r(n)] * factors.rbar
                for idx, power in enumerate(factors.v_powers, start=1):
                    classes += [coh.CohomologyClass.v(n, idx)] * power
                expanded = expand_zero_divisor_product(n, classes)
                if expanded != prod:
                    return False, f"subset-split expansion disagrees at n={n}"
        return True, f"witness nonzero with anchor term for 3<=n<={max_n}"
    return _run("tensor-witness", body)


def check_zcl_vanishing(max_n: int = 6) -> Verification:
    """Every length-(n+3) zero-divisor product vanishes, 3 <= n <= max_n."""
    def body():
        counts = []
        for n in range(3, max_n + 1):
            res = tz.zcl_exhaustive(n, n + 3)
            if not res.all_zero:
                return False, f"nonzero product of {n + 3} zero divisors at n={n}: {res.witness}"
            counts.append(res.checked)
        return True, f"all-zero at length n+3 for 3<=n<={max_n} (checked {counts})"
    return _run("zcl-vanishing", body)


def check_tc_bounds() -> Verification:
    """tc_bounds(4) = (7, 9): both bounds of the motion-planning estimate."""
    def body():
        b = tz.tc_bounds(4)
        ok = (b.lower, b.upper) == (7, 9)
        return ok, f"tc_bounds(4) = ({b.lower}, {b.upper}) via {b.method}"
    return _run("tc-bounds", body)


# ------------------------------------------------- fundamental group checks

def check_word_oracle(max_n: int = 4, max_len: int = 6) -> Verification:
    """Normal forms vs the rewriting oracle on every short word.

    A word w·x is checked by rewriting (rewritten w)·x and comparing it with
    the closed-form multiply of w's normal form by the letter x.  A prefix
    goes on only after its own check passed, so its normal form is fixed by
    its rewritten word, and the check of w·x depends only on the pair
    (rewritten w, x).  The walk therefore goes depth by depth over the
    distinct rewritten prefixes, each with the number of words that rewrite
    to it, and checks each distinct (prefix, letter) edge once: the same
    equalities as checking every word, which `checked` still counts.
    """
    def body():
        checked = 0
        for n in range(1, max_n + 1):
            letters = [(g, e) for g in range(1, n + 1) for e in (1, -1)]
            def letter_nf(g, e):
                if g == n:
                    return fg.NormalForm(n, (0,) * (n - 1), e)
                k = [0] * (n - 1)
                k[g - 1] = e
                return fg.NormalForm(n, tuple(k), 0)
            level = {(): (fg.NormalForm.identity(n), 1)}
            for depth in range(max_len):
                deeper = {}
                for word, (nf, count) in level.items():
                    for g, e in letters:
                        rewritten = rewrite_word(n, word + ((g, e),))
                        fast = fg.multiply(nf, letter_nf(g, e))
                        if word_exponents(n, rewritten) != (fast.k, fast.m):
                            return False, f"oracle mismatch at n={n}, word {word + ((g, e),)}"
                        checked += count
                        if depth + 1 < max_len:
                            _, seen = deeper.get(rewritten, (fast, 0))
                            deeper[rewritten] = (fast, seen + count)
                level = deeper
        return True, f"{checked} words of length <= {max_len} agree for n <= {max_n}"
    return _run("fundamental-group-oracle", body)


def check_relators_and_h1(max_n: int = 10) -> Verification:
    """Defining relators normalize to the identity; abelianization is H_1."""
    def body():
        for n in range(2, max_n + 1):
            for rel in fg.defining_relators(n):
                if not fg.reduce_word(rel).is_identity():
                    return False, f"relator fails to reduce at n={n}: {rel.text()}"
            ab = fg.abelianization(n)
            h1 = ints.homology_from_splitting(n)[1]
            if ab != h1:
                return False, f"H_1 mismatch at n={n}: {ab.text()} vs {h1.text()}"
        return True, f"relators trivial and abelianization = H_1 for n <= {max_n}"
    return _run("abelianization-h1", body)


# --------------------------------------------------------- geometry checks

WELD_TOL = 1e-9
FRAME_TOL = 1e-12


def _min_sq_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min |x - y|^2 over x in a and y in b, as |x|^2 + |y|^2 - 2 x.y.

    Taken over 256 rows of a at a time, so that a 4096-point b needs a
    block of 8 MB.  Rounding moves the result by about 1e-16 per unit of
    squared norm; at a shared point it is 0 to that precision.
    """
    b2 = np.sum(b * b, axis=1)
    return min(
        float(np.min(np.sum(block * block, axis=1)[:, None] + b2 - 2 * block @ b.T))
        for block in np.split(a, range(256, len(a), 256))
    )


def check_geometry_identities(samples: int = 10_000) -> Verification:
    """The sampled identities of the construction, at fixed tolerances.

    Covers the directrix frame, the tube-radius band, the fibre-torus
    symmetries and maxima, the weld identity for n in {2,3,4}, and the
    nested-family disjointness.
    """
    def body():
        rng = np.random.default_rng(RNG_SEED)
        # directrix frame
        tgrid = np.linspace(0.0, np.pi, 2001)
        v = geo.directrix_velocity(tgrid)
        h = 1e-6
        fd = (geo.directrix(tgrid + h) - geo.directrix(tgrid - h)) / (2 * h)
        if np.max(np.abs(v - fd)) > 1e-8:
            return False, "analytic directrix derivative disagrees with finite differences"
        jn = geo.directrix_normal(tgrid)
        if np.max(np.abs(np.linalg.norm(jn, axis=-1) - 1)) > FRAME_TOL:
            return False, "normal is not unit length"
        if np.max(np.abs(np.sum(jn * v, axis=-1) / np.linalg.norm(v, axis=-1))) > FRAME_TOL:
            return False, "normal not orthogonal to the tangent"
        if np.max(np.abs(geo.directrix_normal(np.pi) + geo.directrix_normal(0.0))) > FRAME_TOL:
            return False, "J(pi) != -J(0)"
        if np.max(np.abs(geo.directrix(np.pi) - geo.directrix(0.0))) > FRAME_TOL:
            return False, "directrix endpoints differ"
        if np.max(np.abs(geo.directrix(np.pi / 2) - np.array([5.0, 0.0]))) > FRAME_TOL:
            return False, "alpha(pi/2) != (5, 0)"
        for n in (2, 3, 4):
            # radius band
            r = geo.tube_radius(n, tgrid)
            band = np.pi**2 * geo.wave_amplitude(n) / 4
            if np.max(np.abs(r - 0.5)) > band + 1e-12:
                return False, f"tube radius leaves its band at n={n}"
            # weld identity on random samples
            th = rng.uniform(0, 2 * np.pi, size=(samples, n - 1))
            gap = np.abs(
                geo.immersion_point(n, th, 0.0) + geo.immersion_point(n, -th, np.pi)
            ).max()
            if gap > WELD_TOL:
                return False, f"weld identity off by {gap:.2e} at n={n}"
            # fibre symmetries with the standalone radii 2^(n-1-i)
            radii = [2.0 ** (n - 1 - i) for i in range(1, n)]
            x = geo.torus_point(radii, th)
            y = geo.torus_point(radii, -th)
            if np.max(np.abs(x[..., 0] - y[..., 0])) > WELD_TOL:
                return False, f"x1 not even in the angles at n={n}"
            if np.max(np.abs(x[..., 1:] + y[..., 1:])) > WELD_TOL:
                return False, f"x_i not odd in the angles at n={n}"
            # maximum at zero angles
            peak = geo.torus_point(radii, np.zeros(n - 1))
            if abs(peak[0] - sum(radii)) > WELD_TOL or np.max(np.abs(peak[1:])) > WELD_TOL:
                return False, f"theta=0 maximum wrong at n={n}"
            # nested-family extremes
            unit = geo.base_unit(n)
            for last, expect in ((unit, (2**n - 3) * unit), (2 * unit, (2**n - 2) * unit)):
                fam = [2.0 ** (n - i) * unit for i in range(1, n - 1)] + [last]
                top = geo.torus_point(fam, np.zeros(n - 1))[0]
                if abs(top - expect) > WELD_TOL:
                    return False, f"family maximum {top!r} != {expect!r} at n={n}"
        # explicit expansion at n=4 (three fibre angles)
        th = rng.uniform(0, 2 * np.pi, size=(512, 3))
        r1, r2, r3 = 4.0, 2.0, 1.0
        x = geo.torus_point([r1, r2, r3], th)
        t1, t2, t3 = th[:, 0], th[:, 1], th[:, 2]
        w2 = r2 + r3 * np.cos(t3)
        w1 = r1 + w2 * np.cos(t2)
        direct = np.stack(
            [w1 * np.cos(t1), w1 * np.sin(t1), w2 * np.sin(t2), r3 * np.sin(t3)], axis=-1
        )
        if np.max(np.abs(x - direct)) > FRAME_TOL:
            return False, "nested recursion disagrees with the expanded n=4 formula"
        # embedding separator coordinate
        for t, want in ((0.0, 0.0), (np.pi / 4, 1.0), (3 * np.pi / 4, -1.0), (np.pi, 0.0)):
            got = geo.embedding_point(2, np.zeros(1), t)[-1]
            if abs(got - want) > FRAME_TOL:
                return False, f"separator coordinate at t={t} is {got!r}"
        # two members of the nested family stay apart
        unit = geo.base_unit(3)
        grid = np.stack(
            np.meshgrid(*([2 * np.pi * np.arange(64) / 64] * 2), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        inner = geo.torus_point([4 * unit, 1.2 * unit], grid)
        outer = geo.torus_point([4 * unit, 1.8 * unit], grid)
        # their gap^2 is 0.002975, four times the threshold, far above rounding
        if _min_sq_distance(inner, outer) <= (0.3 * unit) ** 2:
            return False, "nested family members touch"
        return True, f"directrix frame, radius band, weld and symmetry identities hold ({samples} samples)"
    return _run("geometry-identities", body)


SCAN_SETTINGS = {
    2: {"res_theta": 200, "res_t": 400, "radius": 1e-2},
    3: {"res_theta": 48, "res_t": 96, "radius": 3e-2},
}
SEAM_BAND = 0.4  # fraction of pi: collisions must satisfy min(t, pi-t) < 0.4*pi


def check_self_intersection(n: int = 2) -> Verification:
    """Immersion scan nonempty near the seam; embedding scan empty.

    The immersed tubes genuinely overlap on a band around t = 0 and
    t = pi, so the immersion must report pairs and every pair must sit
    within the seam band; the embedding must report none.
    """
    s = SCAN_SETTINGS[n]
    def body():
        mesh = geo.build_mesh(geo.MeshSpec(n, "immersion", s["res_theta"], s["res_t"]))
        if mesh.weld_error > WELD_TOL:
            return False, f"immersion weld error {mesh.weld_error!r}"
        scan = geo.self_intersection_scan(mesh, s["radius"])
        if scan.num_pairs == 0:
            return False, "immersion scan found no self-intersections"
        reach = scan.seam_confinement
        if reach >= SEAM_BAND * np.pi:
            return False, f"collisions reach min(t,pi-t) = {reach!r}, beyond {SEAM_BAND}*pi"
        emesh = geo.build_mesh(geo.MeshSpec(n, "embedding", s["res_theta"], s["res_t"]))
        if emesh.weld_error > WELD_TOL:
            return False, f"embedding weld error {emesh.weld_error!r}"
        escan = geo.self_intersection_scan(emesh, s["radius"])
        if escan.num_pairs:
            return False, f"embedding scan found {escan.num_pairs} pairs"
        return True, (
            f"immersion: {scan.num_pairs} pairs within min(t,pi-t) < {SEAM_BAND}*pi "
            f"(reach {reach:.4f}); embedding: 0 pairs"
        )
    return _run(f"self-intersection-scan-n{n}", body)


# ---------------------------------------------------------- genetic checks

def check_genetic_codes() -> Verification:
    """The three hexagon examples, by explicit lengths and by zero-substitution."""
    def body():
        cases = [
            (("1", "1", "1", "1", "1", "4"), ((6,),), "RP^3"),
            (("1/24", "1/24", "1/24", "1", "1", "1"), ((6, 3, 2, 1),), "T^3"),
            (("1/24", "1/24", "1", "1", "1", "2"), ((6, 2, 1),), "K_3"),
            (("0", "0", "0", "1", "1", "1"), ((6, 3, 2, 1),), "T^3"),
            (("0", "0", "1", "1", "1", "2"), ((6, 2, 1),), "K_3"),
        ]
        for lengths, genes, space in cases:
            code = pg.genetic_code(lengths)
            if code.genes != genes:
                return False, f"{lengths} gave {code.text()}"
            cls = pg.classify(code)
            if space not in cls.spaces:
                return False, f"{lengths} classified as {cls.spaces}"
        cls = pg.classify(pg.genetic_code(("1/24", "1/24", "1", "1", "1", "2")))
        if cls.klein_m != 3 or cls.tc is None:
            return False, "K_3 case missing its motion-planning link"
        ref = tz.tc_bounds(3)
        if (cls.tc.lower, cls.tc.upper) != (ref.lower, ref.upper):
            return False, f"tc link ({cls.tc.lower},{cls.tc.upper}) != ({ref.lower},{ref.upper})"
        return True, f"three hexagon codes reproduced; K_3 links to tc ({ref.lower},{ref.upper})"
    return _run("genetic-codes", body)


# ------------------------------------------------------------ verify-paper

def verify_paper(max_n: int = 8) -> list[Verification]:
    """The end-to-end bundle behind `klein-forge verify-paper`.

    max_n is checked against the dimension limit and the largest duality
    pairing the checks build (degree max_n // 2) before any check runs.
    """
    if max_n < 4:
        raise ValueError("verify-paper needs max_n >= 4")
    coh._check_dimension(max_n)
    coh._check_pairing_budget(max_n, max_n // 2)
    checks = [
        check_cohomology_table(),
        check_ring_oracle(max_n=max_n),
        check_cup_length_duality(max_n=max_n),
        check_stiefel_whitney(max_n=max_n),
        check_integral_consistency(max_n=max_n),
        check_tensor_witness(max_n=min(max_n, 8)),
        check_zcl_vanishing(max_n=min(max_n, 6)),
        check_tc_bounds(),
        check_word_oracle(max_n=min(max_n, 4)),
        check_relators_and_h1(max_n=max_n),
        check_geometry_identities(),
        check_self_intersection(2),
        check_self_intersection(3),
        check_genetic_codes(),
    ]
    return checks
