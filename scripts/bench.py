"""Time verify-paper, the scans, compute_zcl, mesh I/O and the ring; write BENCH_<label>.json.

Every measurement runs in a fresh interpreter, so each peak RSS is that
run's own and no cache carries over between runs.  The file records:

- a machine line: nproc, Python version, numpy version;
- verify-paper (max_n = 8) wall time, the median of RUNS runs, and the
  median seconds of each of its checks;
- for each (n, target) of verification.SCAN_SETTINGS: median seconds of
  build_mesh and of self_intersection_scan, with vertex and pair counts;
- for each m from 2 to the largest the zcl term budget admits: median
  seconds of tensor_zcl.compute_zcl(m) and the zcl it returns;
- for each file of the mesh-files perfbench workload (MESH_IO_FILES): median
  seconds to write it (write_obj or write_mesh_text) and to read it back
  (load_mesh), and its size in bytes;
- for each case of RING_CASES: median seconds of char_classes.manifold_report(n)
  or fundamental_group.abelianization(n), with the category or group it gives;
- for each dimension of QUAD_DIMS: median seconds to scan one unit square,
  padded with zero coordinates and read back from a mesh text file, with its
  pair count, or "refused" where the scan exits 3 (a FeasibilityError);
- the peak RSS of each of those, the largest of its runs.

Only public API is used, so the same script measures any commit.  With
`--parent DIR` it times the checkout at DIR too: every job alternates
between DIR's `src` and this tree's, so the two files come from one
session under the same load.  The jobs are the ones this tree lists.
Files are written to the current directory.

Usage:
    PYTHONPATH=src python scripts/bench.py LABEL [--parent DIR]
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

RUNS = 3  # runs of each measurement; the file reports their median
# the files `perfbench/run.py --workload mesh-files` writes and scans:
# name -> (n, target, res_theta, res_t); a .obj name is written as OBJ
MESH_IO_FILES = {
    "k2-immersion.obj": (2, "immersion", 200, 400),
    "k2-coarse.obj": (2, "immersion", 100, 200),
    "k2-immersion.mesh": (2, "immersion", 200, 400),
    "k2-embedding.mesh": (2, "embedding", 200, 400),
    "k3-immersion.mesh": (3, "immersion", 32, 64),
    "k3-embedding.mesh": (3, "embedding", 24, 48),
}

# (function, n) cases of the ring job: the Wu and Stiefel-Whitney solves
# behind `manifold`, and the Smith form behind `pi1` and `check` at n = 63
RING_CASES = [("manifold_report", n) for n in range(8, 14)] + [("abelianization", 63)]
# dimensions of the one-square scans: the cost of a scan that is not its pairs
QUAD_DIMS = (4, 10, 13)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def job_verify_paper() -> dict:
    from kleinforge.verification import verify_paper

    start = time.perf_counter()
    checks = verify_paper(8)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "passed": all(c.passed for c in checks),
        "checks": {c.name: c.seconds for c in checks},
        "peak_rss_mb": peak_rss_mb(),
    }


def job_scan(n: int, target: str) -> dict:
    from kleinforge import geometry as geo
    from kleinforge.verification import SCAN_SETTINGS

    s = SCAN_SETTINGS[n]
    start = time.perf_counter()
    mesh = geo.build_mesh(geo.MeshSpec(n, target, s["res_theta"], s["res_t"]))
    built = time.perf_counter()
    result = geo.self_intersection_scan(mesh, s["radius"])
    done = time.perf_counter()
    return {
        "build_s": built - start,
        "scan_s": done - built,
        "vertices": result.num_vertices,
        "pairs": result.num_pairs,
        "peak_rss_mb": peak_rss_mb(),
    }


def job_zcl(m: int) -> dict:
    from kleinforge.tensor_zcl import compute_zcl

    start = time.perf_counter()
    zcl = compute_zcl(m)
    return {"zcl_s": time.perf_counter() - start, "zcl": zcl, "peak_rss_mb": peak_rss_mb()}


def job_mesh_io(name: str) -> dict:
    from kleinforge import geometry as geo

    mesh = geo.build_mesh(geo.MeshSpec(*MESH_IO_FILES[name]))
    write = geo.write_obj if name.endswith(".obj") else geo.write_mesh_text
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        start = time.perf_counter()
        write(mesh, path)
        written = time.perf_counter()
        back = geo.load_mesh(path)
        done = time.perf_counter()
        size = os.path.getsize(path)
    return {
        "write_s": written - start,
        "read_s": done - written,
        "bytes": size,
        "vertices": back.num_vertices,
        "peak_rss_mb": peak_rss_mb(),
    }


def job_ring(name: str, n: int) -> dict:
    from kleinforge.char_classes import manifold_report
    from kleinforge.fundamental_group import abelianization

    start = time.perf_counter()
    if name == "manifold_report":
        answer = manifold_report(n).category
    else:
        answer = abelianization(n).text()
    return {"seconds": time.perf_counter() - start, "answer": answer, "peak_rss_mb": peak_rss_mb()}


def job_quad_scan(dim: int) -> dict:
    from kleinforge import geometry as geo
    from kleinforge.errors import FeasibilityError

    pad = " 0" * (dim - 2)
    corners = "".join(f"v {x} {y}{pad}\n" for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "quad.txt")
        with open(path, "w") as fh:
            fh.write(corners + "f 0 1 2 3\n")
        mesh = geo.load_mesh(path)
    start = time.perf_counter()
    try:
        pairs = geo.self_intersection_scan(mesh, 0.5).num_pairs
    except FeasibilityError:
        pairs = "refused"
    return {"scan_s": time.perf_counter() - start, "pairs": pairs, "peak_rss_mb": peak_rss_mb()}


JOBS = {
    "verify-paper": job_verify_paper,
    "scan": lambda n, target: job_scan(int(n), target),
    "zcl": lambda m: job_zcl(int(m)),
    "mesh-io": job_mesh_io,
    "ring": lambda name, n: job_ring(name, int(n)),
    "quad-scan": lambda dim: job_quad_scan(int(dim)),
}


def run_job(src: str, *argv: str) -> dict:
    """Run one job in a fresh interpreter importing kleinforge from `src`; return its JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--job", *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(proc.stdout)


def measure(trees: dict, *argv: str) -> dict:
    """RUNS runs of one job in each tree, alternating between the trees.

    Each round runs the job once per tree, and the first tree of a round
    alternates too, so load on the host falls on both trees alike.
    """
    runs = {name: [] for name in trees}
    for r in range(RUNS):
        for name in list(trees)[:: 1 if r % 2 == 0 else -1]:
            runs[name].append(run_job(trees[name], *argv))
    return runs


def median_of(runs: list[dict], key: str) -> float:
    return round(statistics.median(r[key] for r in runs), 3)


def peak_of(runs: list[dict]) -> float:
    return round(max(r["peak_rss_mb"] for r in runs), 1)


def summary(runs: list[dict], medians: tuple[str, ...], facts: tuple[str, ...]) -> dict:
    """The median of each timing, the facts of the first run and the largest peak RSS."""
    out = {key: median_of(runs, key) for key in medians}
    out.update({key: runs[0][key] for key in facts})
    out["peak_rss_mb"] = peak_of(runs)
    return out


def verify_paper_summary(runs: list[dict]) -> dict:
    return {
        "wall_s": median_of(runs, "wall_s"),
        "wall_s_runs": [round(r["wall_s"], 3) for r in runs],
        "passed": all(r["passed"] for r in runs),
        "peak_rss_mb": peak_of(runs),
        "checks_s": {
            name: round(statistics.median(r["checks"][name] for r in runs), 3)
            for name in runs[0]["checks"]
        },
    }


def main() -> int:
    if sys.argv[1:2] == ["--job"]:  # one measurement, in the interpreter run_job starts
        kind, *rest = sys.argv[2:]
        print(json.dumps(JOBS[kind](*rest)))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label", help="names the output file, BENCH_<label>.json")
    ap.add_argument(
        "--parent", metavar="DIR",
        help="also time the checkout at DIR, alternating with this tree job by job, "
        "and write its results to BENCH_<label>_parent.json",
    )
    args = ap.parse_args()

    import numpy

    from kleinforge.tensor_zcl import TERM_BUDGET
    from kleinforge.verification import SCAN_SETTINGS

    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    trees = {args.label: here}
    if args.parent:
        trees[f"{args.label}_parent"] = os.path.join(os.path.abspath(args.parent), "src")
    reports = {
        label: {
            "label": label,
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "runs": RUNS,
            "verify_paper": {},
            "scans": {},
            "compute_zcl": {},
            "mesh_io": {},
            "ring": {},
            "quad_scans": {},
        }
        for label in trees
    }

    def record(section: str, key: str, argv: tuple, medians: tuple, facts: tuple) -> None:
        for label, runs in measure(trees, *argv).items():
            reports[label][section][key] = summary(runs, medians, facts)

    for label, runs in measure(trees, "verify-paper").items():
        reports[label]["verify_paper"] = verify_paper_summary(runs)
    for n in sorted(SCAN_SETTINGS):
        for target in ("immersion", "embedding"):
            record("scans", f"n{n}-{target}", ("scan", str(n), target),
                   ("build_s", "scan_s"), ("vertices", "pairs"))
    # a product over K_m has at most 2^m terms; the budget admits m <= this
    for m in range(2, TERM_BUDGET.bit_length()):
        record("compute_zcl", f"m{m}", ("zcl", str(m)), ("zcl_s",), ("zcl",))
    for name in MESH_IO_FILES:
        record("mesh_io", name, ("mesh-io", name), ("write_s", "read_s"), ("bytes", "vertices"))
    for name, n in RING_CASES:
        record("ring", f"{name}-n{n}", ("ring", name, str(n)), ("seconds",), ("answer",))
    for dim in QUAD_DIMS:
        record("quad_scans", f"R{dim}", ("quad-scan", str(dim)), ("scan_s",), ("pairs",))
    for label, report in reports.items():
        path = f"BENCH_{label}.json"
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}: verify-paper {report['verify_paper']['wall_s']} s (median of {RUNS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
