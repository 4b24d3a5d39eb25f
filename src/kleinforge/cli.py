"""klein-forge: one binary over all the components.

Subcommands mirror the package modules (cohomology, manifold, integral,
splitting, check, pi1, zcl, tc, genes, mesh, scan) plus `verify-paper`,
which runs the bundled cross-checks end to end.

Output is deterministic byte-for-byte for fixed parameters: stable
orderings everywhere, timings on stderr only.  Every subcommand takes
--json for a machine-readable form carrying a "schema" field, "1" unless
the payload dict sets its own: `integral`, `splitting` and `pi1` without
--word set "2", which writes torsion as [order, multiplicity] pairs.
`_emit_json` is the one place JSON is formed: a result dataclass is
written as its fields, in declaration order, and a Fraction as its
string, so a result's fields are its JSON schema.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 feasibility
guard tripped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

from . import char_classes as cc
from . import cohomology_f2 as coh
from . import fundamental_group as fg
from . import geometry as geo
from . import integral_splitting as ints
from . import polygon_genetics as pg
from . import tensor_zcl as tz
from . import verification as vf
from .errors import FeasibilityError


def _json_value(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_json(payload) -> None:
    """Print a dict or a result dataclass as JSON, after a "schema" field."""
    if not isinstance(payload, dict):
        payload = _json_value(payload)
    print(json.dumps({"schema": "1", **payload}, indent=2, default=_json_value))


# ------------------------------------------------------------ subcommands

def cmd_cohomology(args) -> int:
    data = vf.cohomology_table(args.n)
    if args.json:
        _emit_json(data)
        return 0
    print(f"H^*(K_{args.n}; Z2)  dimensions: " + " ".join(str(d) for d in data["dims"]))
    for d, row in enumerate(data["basis"]):
        print(f"deg {d}: " + "  ".join(row))
    print("Sq1 pairings:")
    for src, dst in data["sq1"]:
        print(f"  {src} -> {dst}")
    return 0


def cmd_manifold(args) -> int:
    report = cc.manifold_report(args.n)
    if args.json:
        _emit_json(report)
        return 0
    print(f"K_{report.n} ({report.n}-manifold)")
    rows = [
        ("orientable", report.orientable),
        ("parallelizable", report.parallelizable),
        ("span", report.span),
        ("immersion_dim", report.immersion_dim),
        ("embedding_dim", report.embedding_dim),
        ("category", report.category),
    ]
    for name, value in rows:
        print(f"  {name}: {value} [{report.provenance[name]}]")
    return 0


def cmd_integral(args) -> int:
    groups = ints.integral_cohomology(args.n)
    if args.json:
        _emit_json({"schema": "2", "n": args.n, "groups": groups})
        return 0
    for d, g in enumerate(groups):
        print(f"H^{d} = {g.text()}")
    return 0


def cmd_splitting(args) -> int:
    summands = ints.splitting(args.n)
    homology = ints.homology_from_splitting(args.n)
    if args.json:
        _emit_json({"schema": "2", "n": args.n, "summands": summands, "homology": homology})
        return 0
    print(f"Sigma K_{args.n} = " + " v ".join(s.text() for s in summands))
    for d, g in enumerate(homology):
        print(f"H_{d} = {g.text()}")
    return 0


def cmd_check(args) -> int:
    report = ints.consistency_check(args.n)
    if args.json:
        _emit_json({"n": report.n, "passed": report.passed, "checks": report.checks})
    else:
        for c in report.checks:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    return 0 if report.passed else 1


def cmd_pi1(args) -> int:
    n = args.n
    if args.word is not None:
        nf = fg.reduce_word(fg.GroupWord.parse(n, args.word))
        if args.json:
            _emit_json(
                {
                    "word": args.word,
                    "normal_form": nf,
                    "text": nf.text(),
                    "in_double_cover_image": fg.in_double_cover_image(nf),
                }
            )
        else:
            print(nf.text())
        return 0
    ab = fg.abelianization(n)
    relators = fg.defining_relators(n)
    if args.json:
        _emit_json(
            {
                "schema": "2",
                "n": n,
                "generators": [f"a{i}" for i in range(1, n + 1)],
                "relators": [r.text() for r in relators],
                "abelianization": ab,
            }
        )
        return 0
    print(f"pi_1(K_{n}) = <a1..a{n} | a_j a{n} a_j a{n}^-1 (j < {n}), commutators>")
    print(f"relators: {', '.join(r.text() for r in relators)}")
    print(f"abelianization: {ab.text()}")
    return 0


def cmd_zcl(args) -> int:
    if args.max_len is not None:
        res = tz.zcl_exhaustive(args.n, args.max_len)
        if args.json:
            _emit_json(res)
        else:
            state = "all zero" if res.all_zero else f"nonzero: {res.witness.text()}"
            print(
                f"length-{res.length} zero-divisor products over K_{res.n}: "
                f"{state} ({res.checked} canonical products checked)"
            )
        return 0
    value = tz.compute_zcl(args.n)
    if args.json:
        _emit_json({"n": args.n, "zcl": value, "method": "exhaustive-search"})
    else:
        print(f"zcl(K_{args.n}) = {value} (exhaustive-search)")
    return 0


def cmd_tc(args) -> int:
    bounds = tz.tc_bounds(args.m)
    if args.json:
        _emit_json(bounds)
    else:
        print(
            f"TC(K_{bounds.m}) in [{bounds.lower}, {bounds.upper}] "
            f"(zcl {bounds.zcl}; {bounds.method})"
        )
    return 0


def cmd_genes(args) -> int:
    values = [v.strip() for v in args.lengths.split(",") if v.strip()]
    prep = pg.prepare_lengths(values, epsilon=args.epsilon)
    code = pg.genetic_code(prep)
    cls = pg.classify(code)
    if args.json:
        _emit_json(
            {
                "input": values,
                "prepared": prep,
                "code": code,
                "gees": code.gees(),
                "classification": cls,
            }
        )
        return 0
    print("lengths (sorted): " + " ".join(str(x) for x in prep.lengths))
    if prep.epsilon is not None:
        print(f"epsilon: {prep.epsilon} (substituted for {prep.substituted} zero length(s))")
    print(f"genetic code: {code.text()}")
    gees = ", ".join("{" + ",".join(map(str, g)) + "}" for g in code.gees())
    print(f"gees: {gees}")
    if cls.spaces:
        print("spaces: " + ", ".join(cls.spaces))
    if cls.tc is not None:
        print(f"TC(K_{cls.klein_m}) in [{cls.tc.lower}, {cls.tc.upper}]")
    return 0


def _parse_res(text: str) -> tuple[int, int]:
    try:
        a, _, t = text.partition("x")
        return int(a), int(t)
    except ValueError:
        raise ValueError(f"--res wants THETAxT (e.g. 200x400), got {text!r}") from None


def cmd_mesh(args) -> int:
    res_theta, res_t = _parse_res(args.res)
    spec = geo.MeshSpec(args.n, args.target, res_theta, res_t)
    mesh = geo.build_mesh(spec)
    axes = None
    if args.axes:
        axes = tuple(int(a) for a in args.axes.split(","))
    if args.out.endswith(".obj"):
        if mesh.dim > 3 and axes is None:
            axes = (0, 1, 2)
            print(
                f"note: projecting R^{mesh.dim} to coordinate axes 0,1,2 (lossy; pick with --axes)",
                file=sys.stderr,
            )
        geo.write_obj(mesh, args.out, axes=axes)
    else:
        geo.write_mesh_text(mesh, args.out)
    print(
        f"wrote {args.out}: {mesh.num_vertices} vertices, {mesh.num_faces} quads "
        f"in R^{mesh.dim}, weld error {mesh.weld_error!r}"
    )
    return 0


def cmd_scan(args) -> int:
    if args.infile:
        mesh = geo.load_mesh(args.infile)
    elif args.n is not None:
        res_theta, res_t = _parse_res(args.res)
        mesh = geo.build_mesh(geo.MeshSpec(args.n, args.target, res_theta, res_t))
    else:
        raise ValueError("pass --in FILE or --n/--target/--res")
    start = time.perf_counter()
    result = geo.self_intersection_scan(mesh, args.radius)
    print(f"scan took {time.perf_counter() - start:.2f}s", file=sys.stderr)
    if args.json:
        _emit_json(result)
        return 0
    print(
        f"{result.num_pairs} close non-neighbour pairs among {result.num_vertices} "
        f"vertices at radius {result.radius!r}"
    )
    if result.seam_confinement is not None:
        print(f"collisions confined to min(t, pi-t) <= {result.seam_confinement!r}")
    for (a, b), dist in list(zip(result.pairs, result.distances))[:10]:
        print(f"  {a} <-> {b}  dist {dist!r}")
    if result.num_pairs > 10:
        print(f"  ... {result.num_pairs - 10} more")
    return 0


def cmd_verify_paper(args) -> int:
    checks = vf.verify_paper(max_n=args.max_n)
    for c in checks:
        print(f"{c.name}: {'PASS' if c.passed else 'FAIL'} ({c.seconds:.2f}s)", file=sys.stderr)
    payload = {
        "max_n": args.max_n,
        "passed": all(c.passed for c in checks),
        "checks": [c.to_json() for c in checks],
    }
    _emit_json(payload)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------- plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klein-forge",
        description="Cohomology, fundamental group, motion-planning bounds and "
        "geometry of the higher-dimensional Klein bottles K_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("cohomology", cmd_cohomology, "mod-2 cohomology basis table with Sq1 pairings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("manifold", cmd_manifold, "orientability, span, immersion/embedding dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("integral", cmd_integral, "integral cohomology groups")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("splitting", cmd_splitting, "stable wedge splitting and homology")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("check", cmd_check, "cross-check integral/mod-2/splitting data (exit 1 on failure)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("pi1", cmd_pi1, "fundamental group: presentation, normal forms, abelianization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", help='word in a1..an to normalize, e.g. "a1 an a1"')
    p.add_argument("--json", action="store_true")

    p = add("zcl", cmd_zcl, "zero-divisor cup length of K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, help="only test products of this exact length")
    p.add_argument(
        "--exhaustive", action="store_true",
        help="accepted and ignored: the exhaustive search is the only route",
    )
    p.add_argument("--json", action="store_true")

    p = add("tc", cmd_tc, "topological-complexity bounds for K_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("genes", cmd_genes, "genetic code of a planar polygon length vector")
    p.add_argument("--lengths", required=True, help="comma-separated rationals; zeros allowed")
    p.add_argument("--epsilon", help="override the zero-substitution value (a rational)")
    p.add_argument("--json", action="store_true")

    p = add("mesh", cmd_mesh, "sample the immersion/embedding to OBJ or mesh text")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=("immersion", "embedding"), default="immersion")
    p.add_argument("--res", required=True, help="grid as THETAxT, e.g. 200x400")
    p.add_argument("--out", required=True)
    p.add_argument("--axes", help="projection axes for OBJ beyond 3D, e.g. 0,1,2")

    p = add("scan", cmd_scan, "self-intersection scan of a mesh")
    p.add_argument("--in", dest="infile", help="mesh file (.obj or mesh text)")
    p.add_argument("--n", type=int, help="build the mesh instead of reading one")
    p.add_argument("--target", choices=("immersion", "embedding"), default="immersion")
    p.add_argument("--res", default="200x400", help="grid as THETAxT when building")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--json", action="store_true")

    p = add("verify-paper", cmd_verify_paper, "run all cross-checks; JSON report on stdout")
    p.add_argument("--max-n", type=int, default=8)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except FeasibilityError as exc:
        print(f"feasibility guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
