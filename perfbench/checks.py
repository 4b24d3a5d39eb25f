"""Output checks for every operation the benchmark times.

Each check reads the exit code and stdout of one CLI call and returns
None when they are right, or a one-line reason.  The checks derive the
expected answer by a route of their own (closed forms from the paper, a
brute-force genetic code, the group law for normal forms, pair sets
compared across files and radii) and never call into klein-forge.  On top
of these, run.py compares stdout with the SHA-256 recorded for that argv
in digests.json, where one exists.
"""

from __future__ import annotations

import json
import math
import os
import re
from itertools import combinations, permutations

VERIFY_PAPER_CHECKS = 14
SEAM_BAND = 0.4 * math.pi  # collisions must satisfy min(t, pi - t) < 0.4 pi
WELD_TOL = 1e-9


def check(op, rc: int, out: str, ctx: dict) -> str | None:
    """Why the output of `op` is wrong, or None.  `ctx` is shared by one pass."""
    if rc != op.expect_rc:
        return f"exit code {rc}, expected {op.expect_rc}"
    return CHECKS[op.facts["kind"]](op, out, ctx)


def _verify_paper(op, out, ctx):
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    if len(names) != VERIFY_PAPER_CHECKS or len(set(names)) != len(names):
        return f"expected {VERIFY_PAPER_CHECKS} distinct checks, got {names}"
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or not report["passed"]:
        return f"failed checks: {failed}"
    return None


def _cohomology(op, out, ctx):
    n = op.facts["n"]
    data = json.loads(out)
    dims = data["dims"]
    if len(dims) != n + 1 or sum(dims) != 2**n:
        return f"dims {dims} do not sum to 2^{n}"
    if [len(row) for row in data["basis"]] != dims:
        return "basis rows disagree with dims"
    return None


def _manifold(op, out, ctx):
    n = op.facts["n"]
    report = json.loads(out)
    # w_1 vanishes exactly for odd n; the top class is a product of n degree-1 classes
    if report["orientable"] != (n % 2 == 1):
        return f"orientable={report['orientable']} for n={n}"
    if report["category"] != n:
        return f"cup length {report['category']}, expected {n}"
    return None


def _consistency(op, out, ctx):
    report = json.loads(out)
    if not report["passed"] or not all(c["passed"] for c in report["checks"]):
        return "consistency check failed"
    return None


def _zcl(op, out, ctx):
    m = op.facts["m"]
    data = json.loads(out)
    if (data["zcl"], data["method"]) != (m + 2, "exhaustive-search"):
        return f"zcl {data['zcl']} by {data['method']}, expected {m + 2} by exhaustive-search"
    return None


def _tc(op, out, ctx):
    m = op.facts["m"]
    data = json.loads(out)
    if (data["lower"], data["upper"]) != (m + 3, 2 * m + 1):
        return f"tc bounds ({data['lower']}, {data['upper']}), expected ({m + 3}, {2 * m + 1})"
    return None


_LETTER = re.compile(r"a(n|\d+)(\^-1)?$")


def _normal_form(n: int, word: str) -> tuple[list[int], int]:
    """(k, m) from the group law a_j a_n = a_n a_j^-1, letter by letter."""
    k = [0] * (n - 1)
    m = 0
    for token in word.split():
        g, inv = _LETTER.match(token).groups()
        e = -1 if inv else 1
        if g == "n":
            m += e
        else:
            k[int(g) - 1] += -e if m % 2 else e
    return k, m


def _pi1(op, out, ctx):
    n = op.facts["n"]
    word = op.argv[op.argv.index("--word") + 1]
    data = json.loads(out)
    k, m = _normal_form(n, word)
    if data["normal_form"] != {"n": n, "k": k, "m": m}:
        return "normal form disagrees with the group law"
    if data["in_double_cover_image"] != (m % 2 == 0):
        return "double-cover flag disagrees with the a_n exponent"
    return None


def _dominates(a, b) -> bool:
    aa, bb = sorted(a, reverse=True), sorted(b, reverse=True)
    return len(aa) >= len(bb) and all(x >= y for x, y in zip(aa, bb))


def _genes(op, out, ctx):
    """The genes are exactly the maximal short subsets containing n."""
    lengths = sorted(op.facts["lengths"])
    n, total = len(lengths), sum(lengths)
    data = json.loads(out)
    if data["prepared"]["lengths"] != [str(x) for x in lengths]:
        return "prepared lengths are not the sorted input"
    genes = [tuple(g) for g in data["code"]["genes"]]

    def short(subset):
        return 2 * sum(lengths[i - 1] for i in subset) < total

    if not all(n in g and short(g) for g in genes):
        return "a gene is long or misses n"
    if any(_dominates(a, b) for a, b in permutations(genes, 2)):
        return "genes are not an antichain"
    for size in range(n):
        for rest in combinations(range(1, n), size):
            subset = (n, *rest)
            if short(subset) and not any(_dominates(g, subset) for g in genes):
                return f"short subset {subset} is not dominated by a gene"
    if data["gees"] != [[i for i in g if i != n] for g in genes]:
        return "gees are not the genes without n"
    return None


def _usage_error(op, out, ctx):
    return None if out == "" else "usage error printed to stdout"


_WROTE = re.compile(r"wrote (\S+): (\d+) vertices, (\d+) quads in R\^(\d+), weld error (\S+)\n$")


def _mesh(op, out, ctx):
    name, dim = op.facts["file"], op.facts["dim"]
    found = _WROTE.match(out)
    if not found or found.group(1) != name:
        return f"unexpected mesh output {out[:80]!r}"
    if int(found.group(4)) != dim:
        return f"mesh in R^{found.group(4)}, expected R^{dim}"
    if not float(found.group(5)) <= WELD_TOL:
        return f"weld error {found.group(5)}"
    if not os.path.getsize(os.path.join(ctx["workdir"], name)):
        return f"{name} is empty"
    ctx.setdefault("vertices", {})[name] = int(found.group(2))
    return None


def _scan(op, out, ctx):
    facts = op.facts
    name, radius = facts["file"], float(facts["radius"])
    data = json.loads(out)
    pairs = [tuple(p) for p in data["pairs"]]
    dists = data["distances"]
    nv = data["num_vertices"]
    written = ctx.get("vertices", {}).get(name)
    if nv != written:
        return f"{nv} vertices scanned, the mesh wrote {written}"
    if data["num_pairs"] != len(pairs) or len(dists) != len(pairs):
        return "pair count disagrees with the pair list"
    if any(not 0 <= a < b < nv for a, b in pairs) or pairs != sorted(set(pairs)):
        return "pairs are not sorted, unique, in-range (i < j)"
    if any(not d <= radius * (1 + 1e-12) for d in dists):
        return "a pair lies beyond the radius"
    if "pairs" in facts and len(pairs) != facts["pairs"]:
        return f"{len(pairs)} pairs, expected {facts['pairs']}"
    if facts.get("seam_confined"):
        reach = data["seam_confinement"]
        if not pairs or reach is None or not reach < SEAM_BAND:
            return f"immersion pairs {len(pairs)} not confined near the seam (reach {reach})"
    # cross-file and cross-radius relations; whichever scan runs second compares
    here = dict(zip(pairs, dists))
    scans = ctx.setdefault("scans", {})
    scans[(name, radius)] = here
    twin = scans.get((facts.get("same_pairs_as"), radius))
    if twin is not None and twin.keys() != here.keys():
        return f"pairs differ from {facts['same_pairs_as']} at the same radius"
    for (other_name, r), other in scans.items():
        if other_name == name and r != radius:
            (r_small, small), (r_big, big) = sorted([(r, other), (radius, here)], key=lambda s: s[0])
            if {p for p, d in big.items() if d <= r_small} != small.keys():
                return f"pairs at radius {r_small} are not the pairs at {r_big} within {r_small}"
    return None


CHECKS = {
    "verify-paper": _verify_paper,
    "cohomology": _cohomology,
    "manifold": _manifold,
    "check": _consistency,
    "zcl": _zcl,
    "tc": _tc,
    "pi1": _pi1,
    "genes": _genes,
    "usage-error": _usage_error,
    "mesh": _mesh,
    "scan": _scan,
}
