"""Time verify-paper, the scans, compute_zcl, mesh I/O and the ring; write BENCH_<label>.json.

Every measurement runs in a fresh interpreter, so each peak RSS is that
run's own and no cache carries over between runs.  The file records:

- a machine line: nproc, Python version, numpy version;
- verify-paper wall time at max_n = 8 and at max_n = 13 (`verify_paper`
  and `verify_paper_max13`), the median of RUNS runs, and the median
  seconds of each of its checks;
- for each (n, target) of verification.SCAN_SETTINGS: median seconds of
  build_mesh and of self_intersection_scan, with vertex and pair counts,
  and the peak RSS after build_mesh as well as after the scan, so that the
  scan's own rise shows; then, from a second build and scan under
  tracemalloc, the traced peak of each stage (STAGES), in MB; and the same
  again with the mesh's faces permuted by SHUFFLE_SEED (`-shuffled` rows),
  as a mesh file from another tool may order them;
- for each n of verification.SCAN_SETTINGS: median seconds of the
  embedding's full self_intersection_scan and of lifted_scan, which reads
  it off the immersion's scan as verify-paper does, with the pair count and
  whether the two results are equal (a tree without lifted_scan reports
  None for both);
- for each m = 2..cohomology_f2.MAX_DIMENSION: median seconds of
  tensor_zcl.compute_zcl(m) and the zcl it returns, or "refused" where a
  tree exits 3 (a FeasibilityError), as an older tree's budgeted search
  does from m = 37 on;
- for each file of the mesh-files perfbench workload (mesh_io_files): median
  seconds to write it (write_obj or write_mesh_text) and to read it back
  (load_mesh), its size in bytes and SHA-256, and the peak RSS after the
  write as well as after the read, so that a --parent pair shows whether
  the files are byte-identical and which of the two set the peak; the same
  for each OBJ file of EXPORTED_OBJ, one of those files rewritten as other
  tools write OBJ, whose write time is that of the file it is rewritten from;
- for each case of RING_CASES: median seconds of char_classes.manifold_report(n),
  verification.cohomology_table(n), fundamental_group.abelianization(n) or
  the parse and reduction of the `pi1` word at n of perfbench's
  algebra-queries (seed 0), with the category, the SHA-256 of the table's
  JSON (so a wrong basis or Sq1 text shows, not only a wrong count), the
  group or the normal form it gives;
- for each dimension of QUAD_DIMS: median seconds to scan one unit square,
  padded with zero coordinates and read back from a mesh text file, with its
  pair count, or "refused" where the scan exits 3 (a FeasibilityError);
- for each degree of FAN_DEGREES: median seconds to scan two quad fans, each
  around one pole of that degree, with the pair count or "refused";
- the peak RSS of each of those, the largest of its runs.

Only public API is used, so the same script measures any commit, except
for the stage peaks of a scan: they wrap geometry's private stage functions
by name, and a tree that lacks one reports no stage peaks.  With
`--parent DIR` it times the checkout at DIR too: every job alternates
between DIR's `src` and this tree's, so the two files come from one
session under the same load.  The jobs are the ones this tree lists.
Files are written to the current directory.

Usage:
    PYTHONPATH=src python scripts/bench.py LABEL [--parent DIR]
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

RUNS = 3  # runs of each measurement; the file reports their median
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def mesh_io_files() -> dict:
    """The files `perfbench/run.py --workload mesh-files` writes and scans.

    name -> (n, target, res_theta, res_t), read from the `mesh` argv of the
    workload list, which imports nothing from klein-forge; run_path compiles
    it without writing bytecode.  A .obj name is written as OBJ.
    """
    workloads = runpy.run_path(os.path.join(ROOT, "perfbench", "workloads.py"))
    files = {}
    for name, tail, _ in workloads["MESH_FILES"]:
        opts = dict(zip(tail[::2], tail[1::2]))
        theta, _, t = opts["--res"].partition("x")
        files[name] = (int(opts["--n"]), opts.get("--target", "immersion"), int(theta), int(t))
    return files


# OBJ files of the mesh-io job rewritten by export_like_other_tools, each
# from the mesh-files file it names
EXPORTED_OBJ = {"k2-exported.obj": "k2-immersion.obj"}
# (function, n) cases of the ring job: the Wu and Stiefel-Whitney solves
# behind `manifold` up to the basis budget, the Sq1 table behind `cohomology`
# at the largest n of perfbench's algebra-queries, at 16 and at the basis
# budget's edge, 19, the Smith form behind `pi1` and `check` at n = 63, and
# `pi1 --word` on algebra-queries' longest word, 50,000 letters at n = 16
RING_CASES = [
    *(("manifold_report", n) for n in range(8, 20)),
    ("cohomology_table", 13),
    ("cohomology_table", 16),
    ("cohomology_table", 19),
    ("abelianization", 63),
    ("reduce_word", 16),
]
# dimensions of the one-square scans: the cost of a scan that is not its pairs
QUAD_DIMS = (4, 10, 13)
# pole degrees of the two-fan scans: the neighbour test's cost at high degree
FAN_DEGREES = (100, 500)
# the stages of a scan job whose traced peaks it records, build first
STAGES = ("build", "cell_join", "d2_gather", "neighbour_test")
SHUFFLE_SEED = 38  # seeds the face permutation of the `-shuffled` scan rows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def job_verify_paper(max_n: int) -> dict:
    """Time each check of verify_paper(max_n) as it is drawn."""
    from kleinforge.verification import verify_paper

    checks = {}
    passed = True
    start = last = time.perf_counter()
    for c in verify_paper(max_n):
        now = time.perf_counter()
        checks[c.name] = now - last
        passed = passed and c.passed
        last = now
    return {
        "wall_s": last - start,
        "passed": passed,
        "checks": checks,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_mb() -> float:
    """The traced peak since the last reset, in MB; then reset it."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    return round(peak / 1e6, 1)


def shuffled_faces(geo, mesh):
    """`mesh` with its faces in the order of a permutation seeded by SHUFFLE_SEED."""
    import numpy as np

    order = np.random.default_rng(SHUFFLE_SEED).permutation(mesh.num_faces)
    return geo.Mesh(mesh.vertices, mesh.faces[order], mesh.t_values, mesh.spec, mesh.weld_error)


def stage_peaks(geo, spec, radius: float, shuffled: bool = False) -> dict | None:
    """The traced peak of each of STAGES in one build and scan of `spec`, in MB.

    Each peak counts all that is live, the mesh included.  The cell join
    runs from the start of _candidate_pairs to the end of _neighbour_cells
    (cell hashing and the join), the d^2 gather from there to the end of
    _candidate_pairs, and the neighbour test is _mesh_near_mask, which a
    scan with no close pair skips: its peak is then None.
    """
    names = ("_candidate_pairs", "_neighbour_cells", "_mesh_near_mask")
    if not all(hasattr(geo, name) for name in names):
        return None
    peaks = {}

    def staged(name: str, reset: bool = False, stage: str | None = None):
        """Wrap geometry's `name` to reset the traced peak as it starts, or record it as it ends."""
        inner = getattr(geo, name)

        def wrapper(*args):
            if reset:
                traced_mb()
            out = inner(*args)
            if stage:
                peaks[stage] = traced_mb()
            return out

        setattr(geo, name, wrapper)

    staged("_candidate_pairs", reset=True, stage="d2_gather")
    staged("_neighbour_cells", stage="cell_join")
    staged("_mesh_near_mask", reset=True, stage="neighbour_test")
    tracemalloc.start()
    try:
        mesh = geo.build_mesh(spec)
        peaks["build"] = traced_mb()
        if shuffled:
            mesh = shuffled_faces(geo, mesh)
        geo.self_intersection_scan(mesh, radius)
    finally:
        tracemalloc.stop()
    return {stage: peaks.get(stage) for stage in STAGES}


def job_scan(n: int, target: str, shuffled: bool = False) -> dict:
    """Build and scan one SCAN_SETTINGS mesh, its faces permuted (untimed) if `shuffled`."""
    from kleinforge import geometry as geo
    from kleinforge.verification import SCAN_SETTINGS

    s = SCAN_SETTINGS[n]
    spec = geo.MeshSpec(n, target, s["res_theta"], s["res_t"])
    start = time.perf_counter()
    mesh = geo.build_mesh(spec)
    build_s = time.perf_counter() - start
    build_rss = peak_rss_mb()
    if shuffled:
        mesh = shuffled_faces(geo, mesh)
    start = time.perf_counter()
    result = geo.self_intersection_scan(mesh, s["radius"])
    out = {
        "build_s": build_s,
        "scan_s": time.perf_counter() - start,
        "vertices": result.num_vertices,
        "pairs": result.num_pairs,
        "build_peak_rss_mb": build_rss,
        "peak_rss_mb": peak_rss_mb(),
    }
    del mesh, result
    out["stage_peak_mb"] = stage_peaks(geo, spec, s["radius"], shuffled)
    return out


def job_lift(n: int) -> dict:
    """The embedding's full scan against lifted_scan off the immersion's scan."""
    from kleinforge import geometry as geo
    from kleinforge.verification import SCAN_SETTINGS

    s = SCAN_SETTINGS[n]
    base, lift = (
        geo.build_mesh(geo.MeshSpec(n, target, s["res_theta"], s["res_t"]))
        for target in ("immersion", "embedding")
    )
    scan = geo.self_intersection_scan(base, s["radius"])
    start = time.perf_counter()
    full = geo.self_intersection_scan(lift, s["radius"])
    scanned = time.perf_counter()
    lifted = geo.lifted_scan(base, scan, lift) if hasattr(geo, "lifted_scan") else None
    done = time.perf_counter()
    return {
        "full_scan_s": scanned - start,
        "lifted_scan_s": None if lifted is None else done - scanned,
        "pairs": full.num_pairs,
        "lifted_equal": None if lifted is None else lifted == full,
        "peak_rss_mb": peak_rss_mb(),
    }


def job_zcl(m: int) -> dict:
    from kleinforge.errors import FeasibilityError
    from kleinforge.tensor_zcl import compute_zcl

    start = time.perf_counter()
    try:
        zcl = compute_zcl(m)
    except FeasibilityError:
        zcl = "refused"
    return {"zcl_s": time.perf_counter() - start, "zcl": zcl, "peak_rss_mb": peak_rss_mb()}


def export_like_other_tools(src: str, dst: str) -> str:
    """Rewrite the OBJ file at `src` to `dst` as other tools write OBJ; return `dst`.

    A comment, an object and a smoothing group; the `v` records with a tab
    after the letter, then one `vt` and one `vn` record per vertex; then the
    faces, with a tab after the letter and each index written `i/i/i`, or
    `i//i` in every other face.  It reads back as the same mesh.
    """
    with open(dst, "w") as out:
        out.write("# exported by another tool\no klein_bottle\n")
        # the v records, each one's numbers in place of {}, then a vt and a vn per vertex
        for record in ("v\t{}", "vt 0.5 0.5\n", "vn 0 0 1\n"):
            with open(src) as fh:
                out.writelines(record.format(line[2:]) for line in fh if line.startswith("v "))
        out.write("s off\n")
        with open(src) as fh:
            faces = (line.split()[1:] for line in fh if line.startswith("f "))
            for k, ids in enumerate(faces):
                index = "{0}//{0}" if k % 2 else "{0}/{0}/{0}"
                out.write("f\t" + " ".join(map(index.format, ids)) + "\n")
    return dst


def job_mesh_io(name: str) -> dict:
    from kleinforge import geometry as geo

    source = EXPORTED_OBJ.get(name, name)
    mesh = geo.build_mesh(geo.MeshSpec(*mesh_io_files()[source]))
    write = geo.write_obj if source.endswith(".obj") else geo.write_mesh_text
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, source)
        start = time.perf_counter()
        write(mesh, path)
        written = time.perf_counter()
        write_rss = peak_rss_mb()
        if name != source:  # untimed: the rewrite stands for another tool
            path = export_like_other_tools(path, os.path.join(tmp, name))
        loaded = time.perf_counter()
        back = geo.load_mesh(path)
        done = time.perf_counter()
        read_rss = peak_rss_mb()  # before the file is hashed
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        size = os.path.getsize(path)
    return {
        "write_s": written - start,
        "read_s": done - loaded,
        "bytes": size,
        "sha256": digest,
        "vertices": back.num_vertices,
        "write_peak_rss_mb": write_rss,
        "peak_rss_mb": read_rss,
    }


def algebra_queries_word(n: int) -> str:
    """The first `pi1 --word` at n of the algebra-queries workload, seed 0."""
    workloads = runpy.run_path(os.path.join(ROOT, "perfbench", "workloads.py"))
    return next(
        op.argv[4] for op in workloads["algebra_queries_ops"](0)
        if op.argv[:4] == ("pi1", "--n", str(n), "--word")
    )


def job_ring(name: str, n: int) -> dict:
    from kleinforge.char_classes import manifold_report
    from kleinforge.fundamental_group import GroupWord, abelianization, reduce_word
    from kleinforge.verification import cohomology_table

    word = algebra_queries_word(n) if name == "reduce_word" else ""
    start = time.perf_counter()
    if name == "manifold_report":
        answer = manifold_report(n).category
    elif name == "cohomology_table":
        answer = hashlib.sha256(json.dumps(cohomology_table(n)).encode()).hexdigest()
    elif name == "reduce_word":
        answer = reduce_word(GroupWord.parse(n, word)).text()
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


def job_fan_scan(quads: int) -> dict:
    """Two quad fans 0.01 apart, each around one pole of degree `quads`.

    The ring has radius 0.03, so at radius 0.05 each pole is a candidate
    with every ring vertex of both fans.
    """
    import numpy as np

    from kleinforge import geometry as geo
    from kleinforge.errors import FeasibilityError

    angle = np.linspace(0, 2 * np.pi, 2 * quads, endpoint=False)
    ring = 0.03 * np.stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)], axis=1)
    fan = np.concatenate([ring, np.zeros((1, 3))])
    k = np.arange(quads)
    faces = np.stack([0 * k + 2 * quads, 2 * k, 2 * k + 1, (2 * k + 2) % (2 * quads)], axis=1)
    vertices = np.concatenate([fan, fan + [0.0, 0.0, 0.01]])
    mesh = geo.Mesh(vertices, np.concatenate([faces, faces + len(fan)]), None, None, float("nan"))
    start = time.perf_counter()
    try:
        pairs = geo.self_intersection_scan(mesh, 0.05).num_pairs
    except FeasibilityError:
        pairs = "refused"
    return {"scan_s": time.perf_counter() - start, "pairs": pairs, "peak_rss_mb": peak_rss_mb()}


JOBS = {
    "verify-paper": lambda max_n="8": job_verify_paper(int(max_n)),
    "scan": lambda n, target, shuffled="": job_scan(int(n), target, shuffled == "shuffled"),
    "lift": lambda n: job_lift(int(n)),
    "zcl": lambda m: job_zcl(int(m)),
    "mesh-io": job_mesh_io,
    "ring": lambda name, n: job_ring(name, int(n)),
    "quad-scan": lambda dim: job_quad_scan(int(dim)),
    "fan-scan": lambda quads: job_fan_scan(int(quads)),
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


def median_of(runs: list[dict], key: str) -> float | None:
    """The median of `key` over the runs, or None where a run has none."""
    values = [r[key] for r in runs]
    return None if None in values else round(statistics.median(values), 3)


def peak_of(runs: list[dict], key: str = "peak_rss_mb") -> float:
    return round(max(r[key] for r in runs), 1)


def summary(runs: list[dict], medians: tuple[str, ...], facts: tuple[str, ...]) -> dict:
    """The median of each timing, the facts of the first run and the largest of each peak RSS."""
    out = {key: median_of(runs, key) for key in medians}
    out.update({key: runs[0][key] for key in facts})
    out.update({key: peak_of(runs, key) for key in runs[0] if key.endswith("peak_rss_mb")})
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

    from kleinforge.cohomology_f2 import MAX_DIMENSION
    from kleinforge.verification import SCAN_SETTINGS

    trees = {args.label: os.path.join(ROOT, "src")}
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
            "verify_paper_max13": {},
            "scans": {},
            "lift_scans": {},
            "compute_zcl": {},
            "mesh_io": {},
            "ring": {},
            "quad_scans": {},
            "fan_scans": {},
        }
        for label in trees
    }

    def record(section: str, key: str, argv: tuple, medians: tuple, facts: tuple) -> None:
        for label, runs in measure(trees, *argv).items():
            reports[label][section][key] = summary(runs, medians, facts)

    for section, max_n in (("verify_paper", "8"), ("verify_paper_max13", "13")):
        for label, runs in measure(trees, "verify-paper", max_n).items():
            reports[label][section] = verify_paper_summary(runs)
    for n in sorted(SCAN_SETTINGS):
        for target in ("immersion", "embedding"):
            for suffix, shuffled in (("", ()), ("-shuffled", ("shuffled",))):
                record("scans", f"n{n}-{target}{suffix}", ("scan", str(n), target, *shuffled),
                       ("build_s", "scan_s"), ("vertices", "pairs", "stage_peak_mb"))
    for n in sorted(SCAN_SETTINGS):
        record("lift_scans", f"n{n}", ("lift", str(n)),
               ("full_scan_s", "lifted_scan_s"), ("pairs", "lifted_equal"))
    for m in range(2, MAX_DIMENSION + 1):
        record("compute_zcl", f"m{m}", ("zcl", str(m)), ("zcl_s",), ("zcl",))
    for name in [*mesh_io_files(), *EXPORTED_OBJ]:
        record("mesh_io", name, ("mesh-io", name), ("write_s", "read_s"), ("bytes", "sha256", "vertices"))
    for name, n in RING_CASES:
        record("ring", f"{name}-n{n}", ("ring", name, str(n)), ("seconds",), ("answer",))
    for dim in QUAD_DIMS:
        record("quad_scans", f"R{dim}", ("quad-scan", str(dim)), ("scan_s",), ("pairs",))
    for quads in FAN_DEGREES:
        record("fan_scans", f"degree{quads}", ("fan-scan", str(quads)), ("scan_s",), ("pairs",))
    for label, report in reports.items():
        path = f"BENCH_{label}.json"
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}: verify-paper {report['verify_paper']['wall_s']} s (median of {RUNS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
