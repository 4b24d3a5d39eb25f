"""klein-forge: one binary over all the components.

Subcommands mirror the package modules (cohomology, manifold, integral,
splitting, check, pi1, zcl, tc, genes, mesh, scan) plus `verify-paper`,
which runs the bundled cross-checks end to end.

Output is deterministic byte-for-byte for fixed parameters: stable
orderings everywhere, timings on stderr only.  Every subcommand but `mesh`
and `verify-paper` (which always prints JSON) takes --json for a
machine-readable form carrying a "schema" field, "1" unless the payload
dict sets its own: `integral`, `splitting` and `pi1` without
--word set "2", which writes torsion as [order, multiplicity] pairs.
`_emit_json` is the one place JSON is formed: a result dataclass is
written as its fields, in declaration order, and a Fraction as its
string, so a result's fields are its JSON schema.

Each `cmd_*` returns its payload (the dict or result dataclass that --json
writes) and its plain-text lines; `main` alone picks which to print.
Exit codes: 0 ok, 1 verification failure, 2 usage error (a failed stdout
write too), 3 feasibility guard tripped.  Only a payload whose "passed" is
false, a failed `check` or `verify-paper`, exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

from . import char_classes as cc
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

def cmd_cohomology(args):
    data = vf.cohomology_table(args.n)
    lines = [f"H^*(K_{args.n}; Z2)  dimensions: " + " ".join(str(d) for d in data["dims"])]
    lines += [f"deg {d}: " + "  ".join(row) for d, row in enumerate(data["basis"])]
    lines += ["Sq1 pairings:", *(f"  {src} -> {dst}" for src, dst in data["sq1"])]
    return data, lines


def cmd_manifold(args):
    report = cc.manifold_report(args.n)
    lines = [f"K_{report.n} ({report.n}-manifold)"]
    lines += [f"  {name}: {getattr(report, name)} [{src}]" for name, src in report.provenance.items()]
    return report, lines


def cmd_integral(args):
    groups = ints.integral_cohomology(args.n)
    return {"schema": "2", "n": args.n, "groups": groups}, [
        f"H^{d} = {g.text()}" for d, g in enumerate(groups)
    ]


def cmd_splitting(args):
    summands = ints.splitting(args.n)
    homology = ints.homology_from_splitting(args.n)
    lines = [f"Sigma K_{args.n} = " + " v ".join(s.text() for s in summands)]
    lines += [f"H_{d} = {g.text()}" for d, g in enumerate(homology)]
    return {"schema": "2", "n": args.n, "summands": summands, "homology": homology}, lines


def cmd_check(args):
    checks = ints.consistency_check(args.n)
    return {"n": args.n, "passed": all(c.passed for c in checks), "checks": checks}, [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks
    ]


def cmd_pi1(args):
    n = args.n
    if args.word is not None:
        nf = fg.reduce_word(fg.GroupWord.parse(n, args.word))
        text = nf.text()
        payload = {
            "word": args.word,
            "normal_form": nf,
            "text": text,
            "in_double_cover_image": fg.in_double_cover_image(nf),
        }
        return payload, [text]
    ab = fg.abelianization(n)
    relators = [r.text() for r in fg.defining_relators(n)]
    payload = {
        "schema": "2",
        "n": n,
        "generators": [f"a{i}" for i in range(1, n + 1)],
        "relators": relators,
        "abelianization": ab,
    }
    return payload, [
        f"pi_1(K_{n}) = <a1..a{n} | a_j a{n} a_j a{n}^-1 (j < {n}), commutators>",
        f"relators: {', '.join(relators)}",
        f"abelianization: {ab.text()}",
    ]


def cmd_zcl(args):
    if args.max_len is not None:
        res = tz.zcl_exhaustive(args.n, args.max_len)
        state = "all zero" if res.all_zero else f"nonzero: {res.witness.text()}"
        return res, [
            f"length-{res.length} zero-divisor products over K_{res.n}: "
            f"{state} ({res.checked} canonical products checked)"
        ]
    value = tz.compute_zcl(args.n)
    return {"n": args.n, "zcl": value, "method": "exhaustive-search"}, [
        f"zcl(K_{args.n}) = {value} (exhaustive-search)"
    ]


def cmd_tc(args):
    bounds = tz.tc_bounds(args.m)
    return bounds, [
        f"TC(K_{bounds.m}) in [{bounds.lower}, {bounds.upper}] "
        f"(zcl {bounds.zcl}; {bounds.method})"
    ]


def cmd_genes(args):
    values = [v.strip() for v in args.lengths.split(",") if v.strip()]
    prep = pg.prepare_lengths(values, epsilon=args.epsilon)
    code = pg.genetic_code(prep)
    cls = pg.classify(code)
    gees = code.gees()
    lines = ["lengths (sorted): " + " ".join(str(x) for x in prep.lengths)]
    if prep.epsilon is not None:
        lines.append(f"epsilon: {prep.epsilon} (substituted for {prep.substituted} zero length(s))")
    lines.append(f"genetic code: {code.text()}")
    lines.append("gees: " + ", ".join("{" + ",".join(map(str, g)) + "}" for g in gees))
    if cls.spaces:
        lines.append("spaces: " + ", ".join(cls.spaces))
    if cls.tc is not None:
        lines.append(f"TC(K_{cls.klein_m}) in [{cls.tc.lower}, {cls.tc.upper}]")
    payload = {"input": values, "prepared": prep, "code": code, "gees": gees, "classification": cls}
    return payload, lines


def _mesh_spec(args) -> geo.MeshSpec:
    """The sampling plan of --n, --target and --res (THETAxT)."""
    try:
        a, _, t = args.res.partition("x")
        res_theta, res_t = int(a), int(t)
    except ValueError:
        raise ValueError(f"--res wants THETAxT (e.g. 200x400), got {args.res!r}") from None
    return geo.MeshSpec(args.n, args.target, res_theta, res_t)


def cmd_mesh(args):
    spec = _mesh_spec(args)
    axes = None
    if args.axes is not None:
        if not args.out.endswith(".obj"):
            raise ValueError("--axes projects an OBJ file; mesh text keeps every coordinate")
        axes = tuple(int(a) for a in args.axes.split(","))
        geo._check_axes(axes, spec.dim)
    mesh = geo.build_mesh(spec)
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
    return None, [
        f"wrote {args.out}: {mesh.num_vertices} vertices, {mesh.num_faces} quads "
        f"in R^{mesh.dim}, weld error {mesh.weld_error!r}"
    ]


def cmd_scan(args):
    mesh = geo.load_mesh(args.infile) if args.n is None else geo.build_mesh(_mesh_spec(args))
    start = time.perf_counter()
    result = geo.self_intersection_scan(mesh, args.radius)
    print(f"scan took {time.perf_counter() - start:.2f}s", file=sys.stderr)
    lines = [
        f"{result.num_pairs} close non-neighbour pairs among {result.num_vertices} "
        f"vertices at radius {result.radius!r}"
    ]
    if result.seam_confinement is not None:
        lines.append(f"collisions confined to min(t, pi-t) <= {result.seam_confinement!r}")
    lines += [
        f"  {a} <-> {b}  dist {dist!r}"
        for (a, b), dist in zip(result.pairs[:10], result.distances[:10])
    ]
    if result.num_pairs > 10:
        lines.append(f"  ... {result.num_pairs - 10} more")
    return result, lines


def cmd_verify_paper(args):
    checks = []
    last = time.perf_counter()
    for c in vf.verify_paper(max_n=args.max_n):  # each check runs as it is drawn
        now = time.perf_counter()
        print(f"{c.name}: {'PASS' if c.passed else 'FAIL'} ({now - last:.2f}s)", file=sys.stderr)
        checks.append(c)
        last = now
    return {"max_n": args.max_n, "passed": all(c.passed for c in checks), "checks": checks}, []


# ---------------------------------------------------------------- plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klein-forge",
        description="Cohomology, fundamental group, motion-planning bounds and "
        "geometry of the higher-dimensional Klein bottles K_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options that several subcommands share, each declared once
    n_opt = argparse.ArgumentParser(add_help=False)
    n_opt.add_argument("--n", type=int, required=True)
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true")
    target_opt = argparse.ArgumentParser(add_help=False)
    target_opt.add_argument("--target", choices=("immersion", "embedding"), default="immersion")

    def add(name, fn, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(fn=fn, json=False)
        return p

    for name, fn, help_text in (
        ("cohomology", cmd_cohomology, "mod-2 cohomology basis table with Sq1 pairings"),
        ("manifold", cmd_manifold, "orientability, span, immersion/embedding dimensions"),
        ("integral", cmd_integral, "integral cohomology groups"),
        ("splitting", cmd_splitting, "stable wedge splitting and homology"),
        ("check", cmd_check, "cross-check integral/mod-2/splitting data (exit 1 on failure)"),
    ):
        add(name, fn, help_text, n_opt, json_opt)

    p = add("pi1", cmd_pi1, "fundamental group: presentation, normal forms, abelianization",
            n_opt, json_opt)
    p.add_argument("--word", help='word in a1..an to normalize, e.g. "a1 an a1"')

    p = add("zcl", cmd_zcl, "zero-divisor cup length of K_n", n_opt, json_opt)
    p.add_argument("--max-len", type=int, help="only test products of this exact length")
    p.add_argument(
        "--exhaustive", action="store_true",
        help="accepted and ignored: the count scan already covers every product",
    )

    p = add("tc", cmd_tc, "topological-complexity bounds for K_m", json_opt)
    p.add_argument("--m", type=int, required=True)

    p = add("genes", cmd_genes, "genetic code of a planar polygon length vector", json_opt)
    p.add_argument("--lengths", required=True, help="comma-separated rationals; zeros allowed")
    p.add_argument("--epsilon", help="override the zero-substitution value (a rational)")

    p = add("mesh", cmd_mesh, "sample the immersion/embedding to OBJ or mesh text",
            n_opt, target_opt)
    p.add_argument("--res", required=True, help="grid as THETAxT, e.g. 200x400")
    p.add_argument("--out", required=True)
    p.add_argument("--axes", help="projection axes for an .obj --out beyond 3D, e.g. 0,1,2")

    p = add("scan", cmd_scan, "self-intersection scan of a mesh", target_opt, json_opt)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="mesh file (.obj or mesh text)")
    source.add_argument("--n", type=int, help="build the mesh instead of reading one")
    p.add_argument("--res", default="200x400", help="grid as THETAxT when building")
    p.add_argument("--radius", type=float, required=True)

    p = add("verify-paper", cmd_verify_paper, "run all cross-checks; JSON report on stdout")
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(json=True)  # the report is JSON only

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        payload, lines = args.fn(args)
        if args.json:
            _emit_json(payload)
        else:
            print("\n".join(lines))
    except FeasibilityError as exc:
        print(f"feasibility guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # a failed stdout write included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(isinstance(payload, dict) and payload.get("passed") is False)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
