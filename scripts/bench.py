"""Time klein-forge's paper computations in fresh interpreters; write BENCH_<label>.json.

Each row of the file is one job (`--job KIND ARG...`, a key of JOBS) run
RUNS times, each run in a fresh interpreter so that its peak RSS is its own
and no cache carries over; `summary` reduces the runs to the row.  README's
"Experiment scripts" describes each section.  The jobs use only public API,
so the script measures any commit; a scan's stage peaks wrap geometry's
private stage functions by name, and read None in a tree without them.
With `--parent DIR` every job alternates between DIR's `src` and this
tree's, so the two files come from one session under the same load.  Files
are written to the current directory.

Usage:
    PYTHONPATH=src python scripts/bench.py LABEL [--parent DIR]
"""

import argparse
import hashlib
import inspect
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

RUNS = 3  # runs of each job in each tree
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


def job_verify_paper(max_n: int = 8) -> dict:
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
    return {"wall_s": last - start, "passed": passed, "checks": checks, "peak_rss_mb": peak_rss_mb()}


def traced_mb() -> float:
    """The traced peak since the last reset, in MB; then reset it."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    return round(peak / 1e6, 1)


def in_order(geo, mesh, order: str):
    """`mesh` in grid order; in "shuffled" order, its faces permuted as SHUFFLE_SEED seeds."""
    if order != "shuffled":
        return mesh
    import numpy as np

    perm = np.random.default_rng(SHUFFLE_SEED).permutation(mesh.num_faces)
    return geo.Mesh(mesh.vertices, mesh.faces[perm], mesh.t_values, mesh.spec, mesh.weld_error)


def stage_peaks(geo, spec, radius: float, order: str) -> dict | None:
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
        geo.self_intersection_scan(in_order(geo, mesh, order), radius)
    finally:
        tracemalloc.stop()
    return {stage: peaks.get(stage) for stage in STAGES}


def job_scan(n: int, target: str, order: str = "grid") -> dict:
    """Build and scan one SCAN_SETTINGS mesh, its faces permuted (untimed) in "shuffled" order."""
    from kleinforge import geometry as geo
    from kleinforge.verification import SCAN_SETTINGS

    s = SCAN_SETTINGS[n]
    spec = geo.MeshSpec(n, target, s["res_theta"], s["res_t"])
    start = time.perf_counter()
    mesh = geo.build_mesh(spec)
    build_s = time.perf_counter() - start
    build_rss = peak_rss_mb()
    mesh = in_order(geo, mesh, order)
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
    out["stage_peak_mb"] = stage_peaks(geo, spec, s["radius"], order)
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
        "base_pairs": scan.num_pairs,
        "lifted_equal": None if lifted is None else lifted == full,
        "peak_rss_mb": peak_rss_mb(),
    }


def timed_or_refused(call) -> tuple[float, object]:
    """The seconds `call()` takes and its value, or "refused" where it raises FeasibilityError."""
    from kleinforge.errors import FeasibilityError

    start = time.perf_counter()
    try:
        value = call()
    except FeasibilityError:
        value = "refused"
    return time.perf_counter() - start, value


def job_zcl(m: int) -> dict:
    from kleinforge.tensor_zcl import compute_zcl

    seconds, zcl = timed_or_refused(lambda: compute_zcl(m))
    return {"zcl_s": seconds, "zcl": zcl, "peak_rss_mb": peak_rss_mb()}


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
    seconds, answer = timed_or_refused({
        "manifold_report": lambda: manifold_report(n).category,
        "cohomology_table": lambda: hashlib.sha256(json.dumps(cohomology_table(n)).encode()).hexdigest(),
        "reduce_word": lambda: reduce_word(GroupWord.parse(n, word)).text(),
        "abelianization": lambda: abelianization(n).text(),
    }[name])
    return {"seconds": seconds, "answer": answer, "peak_rss_mb": peak_rss_mb()}


def job_quad_scan(dim: int) -> dict:
    from kleinforge import geometry as geo

    pad = " 0" * (dim - 2)
    corners = "".join(f"v {x} {y}{pad}\n" for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "quad.txt")
        with open(path, "w") as fh:
            fh.write(corners + "f 0 1 2 3\n")
        mesh = geo.load_mesh(path)
    seconds, pairs = timed_or_refused(lambda: geo.self_intersection_scan(mesh, 0.5).num_pairs)
    return {"scan_s": seconds, "pairs": pairs, "peak_rss_mb": peak_rss_mb()}


def job_fan_scan(quads: int) -> dict:
    """Two quad fans 0.01 apart, each around one pole of degree `quads`.

    The ring has radius 0.03, so at radius 0.05 each pole is a candidate
    with every ring vertex of both fans.
    """
    import numpy as np

    from kleinforge import geometry as geo

    angle = np.linspace(0, 2 * np.pi, 2 * quads, endpoint=False)
    ring = 0.03 * np.stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)], axis=1)
    fan = np.concatenate([ring, np.zeros((1, 3))])
    k = np.arange(quads)
    faces = np.stack([0 * k + 2 * quads, 2 * k, 2 * k + 1, (2 * k + 2) % (2 * quads)], axis=1)
    vertices = np.concatenate([fan, fan + [0.0, 0.0, 0.01]])
    mesh = geo.Mesh(vertices, np.concatenate([faces, faces + len(fan)]), None, None, float("nan"))
    seconds, pairs = timed_or_refused(lambda: geo.self_intersection_scan(mesh, 0.05).num_pairs)
    return {"scan_s": seconds, "pairs": pairs, "peak_rss_mb": peak_rss_mb()}


JOBS = {
    "verify-paper": job_verify_paper,
    "scan": job_scan,
    "lift": job_lift,
    "zcl": job_zcl,
    "mesh-io": job_mesh_io,
    "ring": job_ring,
    "quad-scan": job_quad_scan,
    "fan-scan": job_fan_scan,
}


def run_one(argv: list[str]) -> int:
    """Print the JSON of the job `argv` names, its digit arguments as ints; 2 on a bad argv."""
    kind, *rest = argv or [""]
    args = [int(a) if a.isdigit() else a for a in rest]
    try:
        inspect.signature(JOBS[kind]).bind(*args)
    except (KeyError, TypeError) as e:
        problem = f"{kind}: {e}" if kind in JOBS else f"no job kind {kind!r}"
        print(f"usage: bench.py --job KIND [ARG ...], KIND one of {', '.join(JOBS)}: {problem}",
              file=sys.stderr)
        return 2
    print(json.dumps(JOBS[kind](*args)))
    return 0


def measure(trees: dict, *argv: str) -> dict:
    """RUNS runs of one job in each tree, each in a fresh interpreter importing its `src`.

    Each round runs the job once per tree, and the first tree of a round
    alternates too, so load on the host falls on both trees alike.
    """
    runs = {name: [] for name in trees}
    for r in range(RUNS):
        for name in list(trees)[:: 1 if r % 2 == 0 else -1]:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--job", *argv],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": trees[name]},
            )
            runs[name].append(json.loads(proc.stdout))
    return runs


def entrywise(combine, values: list):
    """`combine(values)`, or where the values are dicts, `combine` of each entry's values."""
    if isinstance(values[0], dict):
        return {k: combine([v[k] for v in values]) for k in values[0]}
    return combine(values)


def summary(tree: str, row: str, runs: list[dict]) -> dict:
    """The runs of one job in one tree as one row of that tree's file.

    A key ending in _mb is a peak: the largest value over the runs, or None
    where a run has None.  Any other float is a timing: its median, and
    under `<key>_runs` its runs in order.  A dict of either is taken entry
    by entry.  Any other value is a fact, which every run must give alike;
    where the runs differ the session stops, naming the tree, row and key.
    """
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        leaves = [x for v in values for x in (v.values() if isinstance(v, dict) else [v])]
        if key.endswith("_mb"):
            out[key] = entrywise(lambda vs: None if None in vs else round(max(vs), 1), values)
        elif all(isinstance(x, float) for x in leaves):
            out[key] = entrywise(lambda vs: round(statistics.median(vs), 3), values)
            out[f"{key}_runs"] = entrywise(lambda vs: [round(x, 3) for x in vs], values)
        elif any(v != values[0] for v in values):
            raise SystemExit(f"{tree}: {row}: the runs disagree on {key!r}: {values}")
        else:
            out[key] = values[0]
    return out


def main() -> int:
    if sys.argv[1:2] == ["--job"]:  # one run, in an interpreter that measure starts
        return run_one(sys.argv[2:])
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

    # (section, row, job argv) of every row of the files, in their order;
    # a row of None is the whole section
    table = [
        ("verify_paper", None, ("verify-paper", "8")),
        ("verify_paper_max13", None, ("verify-paper", "13")),
        *(("scans", f"n{n}-{target}{suffix}", ("scan", str(n), target, *order))
          for n in sorted(SCAN_SETTINGS) for target in ("immersion", "embedding")
          for suffix, order in (("", ()), ("-shuffled", ("shuffled",)))),
        *(("lift_scans", f"n{n}", ("lift", str(n))) for n in sorted(SCAN_SETTINGS)),
        *(("compute_zcl", f"m{m}", ("zcl", str(m))) for m in range(2, MAX_DIMENSION + 1)),
        *(("mesh_io", name, ("mesh-io", name)) for name in [*mesh_io_files(), *EXPORTED_OBJ]),
        *(("ring", f"{name}-n{n}", ("ring", name, str(n))) for name, n in RING_CASES),
        *(("quad_scans", f"R{dim}", ("quad-scan", str(dim))) for dim in QUAD_DIMS),
        *(("fan_scans", f"degree{quads}", ("fan-scan", str(quads))) for quads in FAN_DEGREES),
    ]
    trees = {args.label: os.path.join(ROOT, "src")}
    if args.parent:
        trees[f"{args.label}_parent"] = os.path.join(os.path.abspath(args.parent), "src")
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}
    reports = {label: {"label": label, "machine": machine, "runs": RUNS} for label in trees}
    for section, row, argv in table:
        for label, runs in measure(trees, *argv).items():
            if row is None:
                reports[label][section] = summary(label, section, runs)
            else:
                reports[label].setdefault(section, {})[row] = summary(label, f"{section}/{row}", runs)
    for label, report in reports.items():
        path = f"BENCH_{label}.json"
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}: verify-paper {report['verify_paper']['wall_s']} s (median of {RUNS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
