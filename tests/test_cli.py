"""Command-line surface: pinned outputs, exit codes, determinism."""

import argparse
import ast
import hashlib
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kleinforge import AbelianGroup, cli
from kleinforge import cohomology_f2 as coh
from kleinforge import geometry as geo
from kleinforge import tensor_zcl as tz
from kleinforge import verification as vf
from kleinforge.errors import FeasibilityError
from kleinforge.integral_splitting import CheckResult

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------- pinned outputs

def test_cohomology_table_n4(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "4")
    assert code == 0
    assert "dimensions: 1 4 6 4 1" in out
    assert "deg 2: V1*V2  V1*V3  V2*V3  R*V1  R*V2  R*V3" in out
    assert out.count("->") == 4
    assert "V1*V2*V3 -> R*V1*V2*V3" in out


def test_cohomology_json_shape(capsys):
    code, out, _ = run(capsys, "cohomology", "--n", "4", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["schema"] == "1"
    assert data["dims"] == [1, 4, 6, 4, 1]
    assert sum(data["dims"]) == 16
    assert len(data["sq1"]) == 4


def test_json_key_order_is_pinned(capsys, tmp_path, monkeypatch):
    # a result's JSON is its dataclass fields in declaration order, so
    # reordering or renaming a field changes the schema and must fail here
    def keys(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        return json.loads(out)

    assert list(keys("cohomology", "--n", "3", "--json")) == ["schema", "n", "dims", "basis", "sq1"]
    assert list(keys("manifold", "--n", "3", "--json")) == [
        "schema", "n", "orientable", "parallelizable", "span", "immersion_dim",
        "embedding_dim", "category", "provenance",
    ]
    # schema 2: an abelian group's torsion is a list of [order, multiplicity]
    data = keys("integral", "--n", "3", "--json")
    assert list(data) == ["schema", "n", "groups"]
    assert data["schema"] == "2"
    assert list(data["groups"][0]) == ["free_rank", "torsion"]
    assert [g["torsion"] for g in data["groups"]] == [[], [], [[2, 2]], []]
    data = keys("splitting", "--n", "3", "--json")
    assert list(data) == ["schema", "n", "summands", "homology"]
    assert data["schema"] == "2"
    assert list(data["summands"][0]) == ["kind", "dim", "multiplicity"]
    assert list(data["homology"][0]) == ["free_rank", "torsion"]
    assert [g["torsion"] for g in data["homology"]] == [[], [[2, 2]], [], []]
    data = keys("check", "--n", "3", "--json")
    assert list(data) == ["schema", "n", "passed", "checks"]
    assert data["schema"] == "1"
    assert list(data["checks"][0]) == ["name", "passed", "detail"]
    data = keys("pi1", "--n", "3", "--json")
    assert list(data) == ["schema", "n", "generators", "relators", "abelianization"]
    assert data["schema"] == "2"
    assert list(data["abelianization"]) == ["free_rank", "torsion"]
    assert data["abelianization"]["torsion"] == [[2, 2]]
    data = keys("pi1", "--n", "3", "--word", "a1 an", "--json")
    assert list(data) == ["schema", "word", "normal_form", "text", "in_double_cover_image"]
    assert data["schema"] == "1"
    assert list(data["normal_form"]) == ["n", "k", "m"]
    assert list(keys("zcl", "--n", "3", "--json")) == ["schema", "n", "zcl", "method"]
    data = keys("zcl", "--n", "3", "--max-len", "5", "--json")
    assert list(data) == ["schema", "n", "length", "all_zero", "witness", "checked"]
    assert list(data["witness"]) == ["n", "rbar", "v_powers"]
    assert list(keys("tc", "--m", "3", "--json")) == ["schema", "m", "zcl", "lower", "upper", "method"]
    data = keys("genes", "--lengths", "1/24,1/24,1,1,1,2", "--json")
    assert list(data) == ["schema", "input", "prepared", "code", "gees", "classification"]
    assert list(data["prepared"]) == ["lengths", "epsilon", "substituted"]
    assert list(data["code"]) == ["n", "genes"]
    assert list(data["classification"]) == ["n", "rp", "torus", "klein_m", "spaces", "tc"]
    assert list(data["classification"]["tc"]) == ["m", "zcl", "lower", "upper", "method"]
    mesh = tmp_path / "k2.txt"
    assert run(capsys, "mesh", "--n", "2", "--res", "36x40", "--out", str(mesh))[0] == 0
    assert list(keys("scan", "--in", str(mesh), "--radius", "0.15", "--json")) == [
        "schema", "radius", "num_vertices", "num_pairs", "pairs", "distances", "t_pairs",
        "seam_confinement",
    ]
    monkeypatch.setattr(vf, "verify_paper", lambda max_n: [vf.check_cohomology_table()])
    data = keys("verify-paper")
    assert list(data) == ["schema", "max_n", "passed", "checks"]
    assert list(data["checks"][0]) == ["name", "passed", "detail"]


# every text form, recorded before the subcommands returned their lines;
# test ids are the first three tokens, so the argv differ there
TEXT_OUTPUTS = {
    ("cohomology", "--n", "3"): """\
H^*(K_3; Z2)  dimensions: 1 3 3 1
deg 0: 1
deg 1: V1  V2  R
deg 2: V1*V2  R*V1  R*V2
deg 3: R*V1*V2
Sq1 pairings:
  V1 -> R*V1
  V2 -> R*V2
""",
    ("manifold", "--n", "4"): """\
K_4 (4-manifold)
  orientable: False [computed (w_1 = 0 test)]
  parallelizable: False [cited]
  span: 3 [cited]
  immersion_dim: 5 [cited]
  embedding_dim: 6 [cited]
  category: 4 [computed (cup length)]
""",
    ("integral", "--n", "4"): """\
H^0 = Z
H^1 = Z
H^2 = Z^3 + (Z/2)^3
H^3 = Z^3
H^4 = Z/2
""",
    ("splitting", "--n", "4"): """\
Sigma K_4 = S^2 v 3 x M^3(2) v 3 x S^3 v 3 x S^4 v M^5(2)
H_0 = Z
H_1 = Z + (Z/2)^3
H_2 = Z^3
H_3 = Z^3 + Z/2
H_4 = 0
""",
    ("check", "--n", "3"): """\
PASS f2-dimension-count: F2 dims [1, 3, 3, 1] vs integral ranks+torsion
PASS splitting-vs-integral: rebuilt ['Z', 'Z', 'Z + (Z/2)^2', 'Z'] vs closed form ['Z', 'Z', 'Z + (Z/2)^2', 'Z']
PASS h1-vs-pi1-abelianized: H_1 = Z + (Z/2)^2 vs pi_1 abelianized = Z + (Z/2)^2
PASS euler-characteristic-zero: chi = 0 (integral), 0 (mod 2)
""",
    ("pi1", "--n", "3"): """\
pi_1(K_3) = <a1..a3 | a_j a3 a_j a3^-1 (j < 3), commutators>
relators: a1 an a1 an^-1, a2 an a2 an^-1, a1 a2 a1^-1 a2^-1
abelianization: Z + (Z/2)^2
""",
    ("pi1", "--n", "4", "--word", "a1 a4 a2^-1 a1 a3^2"): "a2 a3^-2 an\n",
    ("zcl", "--n", "3"): "zcl(K_3) = 5 (exhaustive-search)\n",
    ("zcl", "--n", "4", "--max-len", "5"): (
        "length-5 zero-divisor products over K_4: nonzero: Vbar1^3 * Vbar2^2 "
        "(3 canonical products checked)\n"
    ),
    ("tc", "--m", "3"): (
        "TC(K_3) in [6, 7] (zcl 5; lower: zcl+1 (exhaustive-search); upper: cited dimension bound)\n"
    ),
    ("genes", "--lengths", "0,0,0,1,1,1"): """\
lengths (sorted): 1/96 1/96 1/96 1 1 1
epsilon: 1/96 (substituted for 3 zero length(s))
genetic code: <{6,3,2,1}>
gees: {3,2,1}
spaces: T^3
""",
    ("genes", "--lengths", "1/24,1/24,1,1,1,2"): """\
lengths (sorted): 1/24 1/24 1 1 1 2
genetic code: <{6,2,1}>
gees: {2,1}
spaces: K_3
TC(K_3) in [6, 7]
""",
    ("scan", "--n", "2", "--res", "36x40", "--radius", "0.15"): """\
40 close non-neighbour pairs among 1404 vertices at radius 0.15
collisions confined to min(t, pi-t) <= 1.5305194979027197
  385 <-> 590  dist 0.14648582338136842
  424 <-> 590  dist 0.14023481995186712
  501 <-> 591  dist 0.1302486663603932
  501 <-> 630  dist 0.1394798884033018
  540 <-> 591  dist 0.12603032140688342
  540 <-> 630  dist 0.12381738497162655
  579 <-> 630  dist 0.13186767495731289
  617 <-> 631  dist 0.13992069371147262
  617 <-> 670  dist 0.12768414652129179
  638 <-> 641  dist 0.14772390866767404
  ... 30 more
""",
    ("scan", "--res", "20x40", "--n", "2", "--radius", "0.2"): """\
69 close non-neighbour pairs among 780 vertices at radius 0.2
collisions confined to min(t, pi-t) <= 1.5305194979027197
  35 <-> 393  dist 0.19649282160814283
  36 <-> 393  dist 0.19198360501820097
  114 <-> 354  dist 0.19291101806257532
  152 <-> 355  dist 0.19982385254111576
  153 <-> 315  dist 0.1880804636519205
  191 <-> 316  dist 0.16073333134010442
  229 <-> 317  dist 0.15458988133617882
  230 <-> 316  dist 0.1903902065451036
  267 <-> 357  dist 0.19107254485045946
  268 <-> 317  dist 0.14375292867824513
  ... 59 more
""",
    ("mesh", "--n", "2", "--res", "8x6", "--out", "k2.txt"): (
        "wrote k2.txt: 40 vertices, 40 quads in R^3, weld error 6.613092715395707e-16\n"
    ),
}


@pytest.mark.parametrize("argv", list(TEXT_OUTPUTS), ids=lambda argv: " ".join(argv[:3]))
def test_text_output_is_pinned(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # `mesh --out` writes into the working directory
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == TEXT_OUTPUTS[argv]


def test_pi1_word_prints_bare_normal_form(capsys):
    code, out, _ = run(capsys, "pi1", "--n", "3", "--word", "a1 an a1")
    assert code == 0
    assert out == "an\n"


def test_pi1_presentation(capsys):
    code, out, _ = run(capsys, "pi1", "--n", "4")
    assert code == 0
    assert "abelianization: Z + (Z/2)^3" in out


def test_tc_line(capsys):
    code, out, _ = run(capsys, "tc", "--m", "4")
    assert code == 0
    assert out.startswith("TC(K_4) in [7, 9]")


def test_genes_epsilon_echo(capsys):
    code, out, _ = run(capsys, "genes", "--lengths", "0,0,0,1,1,1")
    assert code == 0
    assert "epsilon: 1/96 (substituted for 3 zero length(s))" in out
    assert "genetic code: <{6,3,2,1}>" in out
    assert "spaces: T^3" in out


def test_genes_klein_reports_tc(capsys):
    code, out, _ = run(capsys, "genes", "--lengths", "1/24,1/24,1,1,1,2", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["classification"]["klein_m"] == 3
    assert data["classification"]["tc"]["lower"] == 6


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", "--n", "6", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_zcl_single_length(capsys):
    code, out, _ = run(capsys, "zcl", "--n", "3", "--max-len", "6", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["all_zero"] is True
    assert data["checked"] == 16


# ------------------------------------------------------------ determinism

def test_json_output_is_byte_stable(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "manifold", "--n", "5", "--json")
        outs.add(out)
    assert len(outs) == 1
    for _ in range(2):
        _, out, _ = run(capsys, "splitting", "--n", "7", "--json")
        outs.add(out)
    assert len(outs) == 2


def test_benchmark_outputs_match_their_recorded_digests(capsys, tmp_path, monkeypatch):
    # perfbench/digests.json maps sha256(json.dumps(argv)) to the sha256 of
    # that argv's stdout; replaying part of it here pins the bytes in Tier-1
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    pinned = {"k2-coarse.obj", "k3-immersion.mesh", "k3-embedding.mesh"}
    ops = {op.argv: op for op in workloads["algebra_queries_ops"](0)}
    # each file's `mesh --out`, then its `scan --in ... --json`
    ops.update(
        (op.argv, op) for op in workloads["mesh_files_ops"](0) if op.facts["file"] in pinned
    )
    monkeypatch.chdir(tmp_path)  # `mesh --out` writes into the working directory
    wrong = []
    for op in ops.values():
        key = hashlib.sha256(json.dumps(list(op.argv)).encode()).hexdigest()
        code, out, _ = run(capsys, *op.argv)
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (op.expect_rc, digests[key]):
            wrong.append(op.argv[:3])
    assert len(ops) == 74 and wrong == []


# ------------------------------------------------------------- exit codes

def test_each_subcommand_keeps_its_option_set():
    # a dropped or renamed option still ends in exit 2, so the fuzz test
    # would not notice it; pin each subcommand's option strings instead
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    got = {
        name: {s for a in p._actions for s in a.option_strings} for name, p in sub.choices.items()
    }
    help_opts = {"-h", "--help"}
    assert got == {
        "cohomology": help_opts | {"--n", "--json"},
        "manifold": help_opts | {"--n", "--json"},
        "integral": help_opts | {"--n", "--json"},
        "splitting": help_opts | {"--n", "--json"},
        "check": help_opts | {"--n", "--json"},
        "pi1": help_opts | {"--n", "--word", "--json"},
        "zcl": help_opts | {"--n", "--max-len", "--exhaustive", "--json"},
        "tc": help_opts | {"--m", "--json"},
        "genes": help_opts | {"--lengths", "--epsilon", "--json"},
        "mesh": help_opts | {"--n", "--target", "--res", "--out", "--axes"},
        "scan": help_opts | {"--in", "--n", "--target", "--res", "--radius", "--json"},
        "verify-paper": help_opts | {"--max-n"},
    }
    # --n is required wherever it is declared, except where scan builds a mesh
    required_n = {
        name
        for name, p in sub.choices.items()
        for a in p._actions
        if "--n" in a.option_strings and a.required
    }
    assert required_n == {n for n in got if "--n" in got[n]} - {"scan"}


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "cohomology", "--n", "0")[0] == 2
    assert run(capsys, "pi1", "--n", "3", "--word", "b2")[0] == 2
    assert run(capsys, "mesh", "--n", "2", "--res", "banana", "--out", "/tmp/x.obj")[0] == 2
    assert run(capsys, "verify-paper", "--max-n", "3")[0] == 2
    code, out, err = run(capsys, "verify-paper", "--max-n", "64")
    assert (code, out) == (2, "")
    assert "bit-mask limit of 63" in err  # checked before any check runs
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "cohomology")[0] == 2  # --n is required
    assert run(capsys, "cohomology", "--n", "64")[0] == 2  # bit-mask capacity


def test_feasibility_exit_3(capsys):
    lengths = ",".join(str(2 * i + 1) for i in range(25))
    code, _, err = run(capsys, "genes", "--lengths", lengths)
    assert code == 3
    assert "feasibility" in err
    for argv in (("cohomology", "--n", "30"), ("manifold", "--n", "26")):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert "feasibility guard" in err, argv


def test_manifold_answers_every_n_the_basis_budget_admits(capsys):
    # 2^19 basis monomials, the most the budget admits; only v_1 has a
    # nonzero right-hand side, so no large pairing is built
    code, out, err = run(capsys, "manifold", "--n", "19", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["orientable"], report["category"]) == (True, 19)
    code, out, err = run(capsys, "manifold", "--n", "20")
    assert (code, out) == (3, "")
    assert "1048576 basis monomials in H^*(K_20), over the budget of 524288" in err


def test_oversized_mesh_exits_3_before_allocating(tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the mesh budget must be checked before sampling")

    monkeypatch.setattr(np, "meshgrid", no_grid)
    # over 2^23 coordinates; and 737,280 coordinates with 9,175,040 quad corners
    for n, res in (("6", "40x40"), ("8", "4x6")):
        out_file = tmp_path / f"k{n}.obj"
        code, _, err = run(capsys, "mesh", "--n", n, "--res", res, "--out", str(out_file))
        assert code == 3
        assert "feasibility guard" in err
        assert not out_file.exists()


def test_oversized_scan_exits_3_before_gathering_pairs(capsys, monkeypatch):
    # every pair of 79,800 vertices, about 3.2e9 raw candidates; the cell join
    # repeats arrays too, so the probe fails only a repeat past the budget
    repeat = np.repeat

    def bounded_repeat(a, repeats, *args, **kwargs):
        if np.sum(np.broadcast_to(repeats, np.shape(a))) > geo.SCAN_CANDIDATE_BUDGET:
            raise AssertionError("the candidate budget must be checked before the pair gather")
        return repeat(a, repeats, *args, **kwargs)

    monkeypatch.setattr(np, "repeat", bounded_repeat)
    code, out, err = run(capsys, "scan", "--n", "2", "--res", "200x400", "--radius", "1e6")
    assert code == 3
    assert "feasibility guard" in err
    assert out == ""


def test_scan_of_more_vertices_than_the_budget_exits_3_before_sorting(capsys, monkeypatch):
    # each vertex is a raw candidate with itself, so the vertex count alone
    # exceeds the budget: the scan is refused before any cell is hashed
    def no_sort(*args, **kwargs):
        raise AssertionError("the vertex count must be checked before the cell sort")

    monkeypatch.setattr(geo, "SCAN_CANDIDATE_BUDGET", 1403)
    monkeypatch.setattr(np, "lexsort", no_sort)
    code, out, err = run(capsys, "scan", "--n", "2", "--res", "36x40", "--radius", "0.15")
    assert (code, out) == (3, "")
    assert (
        "1404 or more candidate pairs in a scan of 1404 vertices at radius 0.15, "
        "over the budget of 1403"
    ) in err


WIDE_LENGTHS = ["1/1000003", "2/1000033", "3/1000037", "5/1000039", "8/1000081", "1", "1", "3/2"]


@pytest.mark.parametrize(
    "argv, patch, message",
    [
        pytest.param(
            ("verify-paper", "--max-n", "14"), {},
            "11778624 entries in the degree-7 duality pairing of K_14, over the budget of 4000000",
            id="pairing",
        ),
        pytest.param(
            ("cohomology", "--n", "20"), {},
            "1048576 basis monomials in H^*(K_20), over the budget of 524288",
            id="basis",
        ),
        pytest.param(
            ("zcl", "--n", "63", "--max-len", "64"), {},
            "1091745 or more exponent multisets of length 64 over K_63, "
            "over the budget of 1000000",
            id="search",
        ),
        pytest.param(
            ("genes", "--lengths", ",".join(str(2 * i + 1) for i in range(25))), {},
            "25 side lengths (a scan of 2^24 subsets), over the budget of 24",
            id="side-lengths",
        ),
        pytest.param(
            ("genes", "--lengths", ",".join(WIDE_LENGTHS)),
            {"polygon_genetics.SUBSET_LIMIT": len(WIDE_LENGTHS)},
            "6144 bytes for the subset table of 8 lengths with 104-bit sums, "
            "over the budget of 1024",
            id="subset-table",
        ),
        pytest.param(
            ("mesh", "--n", "8", "--res", "4x6", "--out", "{tmp}/k8.mesh"), {},
            "9912320 vertex coordinates and quad corners in a 4x6 mesh of K_8, "
            "over the budget of 8388608",
            id="mesh-entries",
        ),
        pytest.param(
            ("scan", "--n", "2", "--res", "200x400", "--radius", "1e6"), {},
            "6368040000 candidate pairs in a scan of 79800 vertices at radius 1000000.0, "
            "over the budget of 4194304",
            id="scan-candidates",
        ),
        pytest.param(
            ("scan", "--n", "2", "--res", "36x40", "--radius", "0.15"),
            {"geometry.SCAN_BALL_BUDGET": 42528 - 1},
            "42528 ball entries in the neighbour test of 2658 candidate pairs, "
            "over the budget of 42527",
            id="scan-balls",
        ),
    ],
)
def test_every_budget_refuses_in_one_shape(argv, patch, message, tmp_path, capsys, monkeypatch):
    # "<count> <what>, over the budget of <budget>", before any output
    for name, value in patch.items():
        monkeypatch.setattr(f"kleinforge.{name}", value)
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out, err) == (3, "", f"feasibility guard: {message}\n")
    assert not list(tmp_path.iterdir())


def test_only_the_budget_check_raises_feasibility_errors():
    # every budget goes through errors.check_budget; a scan whose squared
    # extent passes the float range, which is no count of work, is the one
    # direct refusal
    raises = []
    for path in sorted((ROOT / "src" / "kleinforge").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                exc = exc.func if isinstance(exc, ast.Call) else exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "FeasibilityError":
                    raises.append(f"{path.stem}.{func.name}")
    assert raises == ["errors.check_budget", "geometry._extent"]


@pytest.mark.parametrize("dim", [13, 40])
def test_tiny_mesh_in_high_dimension_scans_in_under_a_second(tmp_path, capsys, dim):
    # the cell join visits occupied neighbours only, never the 3^dim offsets
    path = tmp_path / f"quad{dim}.txt"
    pad = " 0" * (dim - 2)
    corners = "".join(f"v {x} {y}{pad}\n" for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
    path.write_text(corners + "f 0 1 2 3\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--in", str(path), "--radius", "0.5")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.startswith("0 close non-neighbour pairs among 4 vertices")


@pytest.mark.parametrize(
    "meta",
    [
        "meta n 2\nmeta target immersion\nmeta res_theta 5\nmeta res_t 4\n",
        "meta weld_error oops\n",
    ],
    ids=["odd-res-theta", "weld-error-not-a-number"],
)
def test_scan_skips_mesh_metadata(tmp_path, capsys, meta):
    # the scan reads vertices, faces and t values only, so no meta record refuses a mesh
    quad = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 0 1 2 3\n"
    plain, tagged = tmp_path / "plain.txt", tmp_path / "tagged.txt"
    plain.write_text(quad)
    tagged.write_text(meta + quad)
    for argv in ((), ("--json",)):
        expected = run(capsys, "scan", "--in", str(plain), "--radius", "2.0", *argv)
        code, out, _ = run(capsys, "scan", "--in", str(tagged), "--radius", "2.0", *argv)
        assert (code, out) == (0, expected[1])


def test_obj_as_other_tools_write_it_reads_as_the_plain_file(tmp_path, capsys, monkeypatch):
    # a comment, an object, a smoothing group, a vt and a vn record per
    # vertex, i/i/i and i//i faces and tabs, rewritten by the benchmark's
    # exporter; seven lines a block, so runs of records cross block ends
    export = runpy.run_path(str(ROOT / "scripts" / "bench.py"))["export_like_other_tools"]
    plain = str(tmp_path / "plain.obj")
    geo.write_obj(geo.build_mesh(geo.MeshSpec(2, "immersion", 20, 40)), plain)
    exported = export(plain, str(tmp_path / "exported.obj"))
    text = Path(exported).read_text()
    assert all(part in text for part in ("\nvt ", "\nvn ", "\no ", "\ns off\n", "/1/1 ", "//2 ", "v\t", "f\t"))
    monkeypatch.setattr(geo, "_IO_ROWS", 7)
    want, got = geo.read_obj(plain), geo.read_obj(exported)
    assert want.vertices.tobytes() == got.vertices.tobytes()
    assert np.array_equal(want.faces, got.faces)
    scans = [run(capsys, "scan", "--in", path, "--radius", "0.15")[:2] for path in (plain, exported)]
    assert scans[0] == scans[1] and scans[0][0] == 0
    assert "20 close non-neighbour pairs among 780 vertices" in scans[0][1]


def test_mesh_without_quads_reports_every_close_pair(tmp_path, capsys):
    # no vertex shares a quad, so every ball is its vertex alone
    path = tmp_path / "points.txt"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 5 5 5\n")
    code, out, _ = run(capsys, "scan", "--in", str(path), "--radius", "1.0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert data["distances"] == [1.0] * 4


@pytest.mark.parametrize(
    "name, bad",
    [
        ("ragged-alone.txt", "v 1 2\n"),  # a block of its own, narrower than the rest
        ("ragged-among.txt", "v 1 2 0\nv 1 2\n"),
        ("missing-vertex.txt", "f 0 1 2 99\n"),
        ("missing-vertex.obj", "f 1 2 3 99\n"),
        ("zero-index.obj", "f 1 2 3 0\n"),
        ("unknown.txt", "x 1 2\n"),
    ],
)
def test_bad_record_in_a_later_block_exits_2(tmp_path, capsys, monkeypatch, name, bad):
    # read three records at a time, the bad one lands in the third block or later
    monkeypatch.setattr(geo, "_IO_ROWS", 3)
    face = "f 1 2 3 4\n" if name.endswith(".obj") else "f 0 1 2 3\n"
    path = tmp_path / name
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n" * 2 + face * 6 + bad)
    code, out, err = run(capsys, "scan", "--in", str(path), "--radius", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("name, face", [("faces.txt", "f 0 1 2 3\n"), ("faces.obj", "f 1 2 3 4\n")])
def test_mesh_file_with_faces_but_no_vertices_exits_2(tmp_path, capsys, name, face):
    path = tmp_path / name
    path.write_text(face * 2)
    code, out, err = run(capsys, "scan", "--in", str(path), "--radius", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "no vertices" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_scan_rejects_non_finite_t_values(tmp_path, capsys, bad):
    # a t value that is not finite would reach the JSON as NaN, which is not JSON
    path = tmp_path / "square.txt"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        f"t 0\nt {bad}\nt 1\nt 1\nf 0 1 2 3\n"
    )
    code, out, err = run(capsys, "scan", "--in", str(path), "--radius", "0.5", "--json")
    assert (code, out) == (2, "")
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("zcl", "--n", "30", "--max-len", "61"),  # 1,083,479 multisets of length 61
        ("manifold", "--n", "20"),  # 2^20 basis monomials
        ("zcl", "--n", "10", "--max-len", "1000"),
        ("zcl", "--n", "3", "--max-len", "100000"),
        ("zcl", "--n", "3", "--max-len", "1000000000"),
        ("zcl", "--n", "3", "--max-len", "2000"),  # 1,002,001 multisets
        ("cohomology", "--n", "30"),  # 2^30 basis monomials
        ("zcl", "--n", "63", "--max-len", "64"),  # over 10^6 multisets of length 64
        ("verify-paper", "--max-n", "14"),  # the degree-7 pairing has 3432^2 entries
        ("zcl", "--n", "24", "--max-len", "49"),  # 1,050,355 multisets of length 49
        ("cohomology", "--n", "20"),
    ],
)
def test_zcl_basis_and_pairing_guards_exit_3_before_any_work(argv, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("work started before the feasibility guard")

    # testing any zero-divisor product fails, so a missing guard fails the
    # test instead of running out of time or memory
    monkeypatch.setattr(tz, "_nonzero", fail)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("feasibility guard: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        # a zero power must not hide a generator out of range
        (("pi1", "--n", "4", "--word", "a9^0"), 2),
        (("pi1", "--n", "4", "--word", "a0^0"), 2),
        (("genes", "--lengths", "1,1,1,1/0"), 2),
        (("genes", "--lengths", "1,1,1,0", "--epsilon", "1/0"), 2),
        (("cohomology", "--n", "-1"), 2),
        (("cohomology", "--n", "-1", "--json"), 2),
        # epsilon is checked even when no length is zero
        (("genes", "--lengths", "1,1,1,1,1,4", "--epsilon", "-1"), 2),
        (("genes", "--lengths", "1,1,1,1,1,4", "--epsilon", "0"), 2),
        # Fraction would build 10^30000000 before any check
        (("genes", "--lengths", "1e30000000,1,1,1"), 2),
        (("genes", "--lengths", "0,1,1,1", "--epsilon", "1e-30000000"), 2),
        (("genes", "--lengths", "0,0,0"), 2),  # all side lengths are zero
        (("genes", "--lengths", "1e5x,1,1"), 2),  # "e" that starts no decimal exponent
        (("scan", "--radius", "0.1"), 2),  # neither --in nor --n
        # --in and --n together: a scan reads one mesh source
        (("scan", "--in", "k2.txt", "--n", "3", "--target", "embedding", "--radius", "0.2"), 2),
        (("check", "--n", "1"), 2),  # the splitting is stated for n >= 2
    ],
)
def test_malformed_input_exits_cleanly(argv, expected, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == expected
    assert out == ""
    assert "Traceback" not in err


def _torsion_count(groups):
    return sum(k for g in groups for _, k in g["torsion"])


@pytest.mark.parametrize(
    "argv, expect",
    [
        # 2^61 Z/2 summands in all, written as one pair per degree
        pytest.param(
            ("integral", "--n", "63", "--json"),
            lambda out: _torsion_count(json.loads(out)["groups"]) == 2**61,
            id="integral-63",
        ),
        pytest.param(
            ("splitting", "--n", "63", "--json"),
            lambda out: _torsion_count(json.loads(out)["homology"]) == 2**61,
            id="splitting-63",
        ),
        pytest.param(
            ("check", "--n", "63"), lambda out: out.count("PASS ") == 4, id="check-63"
        ),
        pytest.param(
            ("pi1", "--n", "63", "--json"),
            lambda out: json.loads(out)["abelianization"]
            == {"free_rank": 1, "torsion": [[2, 62]]},
            id="pi1-63",
        ),
        # a power is one syllable of any size
        pytest.param(
            ("pi1", "--n", "3", "--word", "a1^10000000000"),
            lambda out: out == "a1^10000000000\n",
            id="word-a1^1e10",
        ),
        pytest.param(
            ("pi1", "--n", "3", "--word", "a1^-99999999999999999999"),
            lambda out: out == "a1^-99999999999999999999\n",
            id="word-a1^-1e20",
        ),
        pytest.param(
            ("zcl", "--n", "1", "--max-len", "1"),
            lambda out: out == "length-1 zero-divisor products over K_1: "
            "nonzero: Rbar (1 canonical products checked)\n",
            id="zcl-1-rbar",
        ),
    ],
)
def test_large_groups_and_powers_exit_0_in_bounded_time(argv, expect, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert expect(out)


@pytest.mark.parametrize(
    "argv, expect",
    [
        pytest.param(
            ("zcl", "--n", "23"),
            lambda out: out == "zcl(K_23) = 25 (exhaustive-search)\n",
            id="zcl-23",
        ),
        pytest.param(
            ("tc", "--m", "23", "--json"),
            lambda out: (json.loads(out)["lower"], json.loads(out)["upper"]) == (26, 47),
            id="tc-23",
        ),
        # 2^30 terms a product could have, which the search never lists
        pytest.param(
            ("zcl", "--n", "30", "--max-len", "40", "--json"),
            lambda out: (json.loads(out)["all_zero"], json.loads(out)["checked"])
            == (True, 214885),
            id="zcl-30-len-40",
        ),
    ],
)
def test_search_budget_alone_bounds_the_zcl_search(argv, expect, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10.0
    assert (code, err) == (0, "")
    assert expect(out)


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the count scan has no search budget
        (("zcl", "--n", "24"), "zcl(K_24) = 26 (exhaustive-search)\n"),
        (("tc", "--m", "30"), "TC(K_30) in [33, 61] (zcl 32; lower: zcl+1 (exhaustive-search); "
         "upper: cited dimension bound)\n"),
    ],
    ids=["zcl-24", "tc-30"],
)
def test_zcl_scans_past_the_old_up_front_check_exit_0(argv, expected, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out, err) == (0, expected, "")


OVER_THE_BUDGET = {
    ("zcl", "--n", "63"): "zcl(K_63) = 65 (exhaustive-search)\n",
    ("tc", "--m", "50"): "TC(K_50) in [53, 101] (zcl 52; lower: zcl+1 (exhaustive-search); "
    "upper: cited dimension bound)\n",
}


@pytest.mark.parametrize("argv", list(OVER_THE_BUDGET))
def test_zcl_scan_over_the_budget_exits_3_within_a_second(argv, capsys):
    # lengths 1..40 hold over 10^6 exponent multisets for every m >= 37, and
    # the count scan answers without a search budget
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.5
    assert (code, out, err) == (0, OVER_THE_BUDGET[argv], "")


def test_guards_admit_the_workload_sizes(capsys):
    code, out, _ = run(capsys, "zcl", "--n", "63", "--max-len", "5")
    assert code == 0
    assert out.startswith("length-5 zero-divisor products over K_63: nonzero")
    code, out, _ = run(capsys, "check", "--n", "22", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verification_failure_exit_1(capsys, monkeypatch):
    bad = (CheckResult("euler-characteristic-zero", False, "forced"),)
    monkeypatch.setattr("kleinforge.integral_splitting.consistency_check", lambda n: bad)
    code, out, _ = run(capsys, "check", "--n", "2")
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run(capsys, "check", "--n", "2", "--json")
    assert code == 1
    assert json.loads(out)["passed"] is False


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_failed_stdout_write_exits_2(json_flag, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    code = cli.main(["integral", "--n", "4", *json_flag])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_a_feasibility_guard_inside_a_check_propagates(monkeypatch):
    def guarded(m):
        raise FeasibilityError("too big")

    monkeypatch.setattr(tz, "tc_bounds", guarded)
    with pytest.raises(FeasibilityError):
        vf.check_tc_bounds()


@pytest.mark.parametrize("exc", [ValueError, RuntimeError])
def test_verify_paper_reports_a_raising_check_and_exits_1(exc, capsys, monkeypatch):
    def broken(m):
        raise exc("no bounds")

    monkeypatch.setattr(tz, "tc_bounds", broken)
    monkeypatch.setattr(
        vf, "verify_paper", lambda max_n: [vf.check_cohomology_table(), vf.check_tc_bounds()]
    )
    code, out, err = run(capsys, "verify-paper")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["checks"][1] == {
        "name": "tc-bounds", "passed": False, "detail": f"{exc.__name__}: no bounds"
    }
    assert "Traceback" not in err


@pytest.mark.parametrize("max_n, exc", [(3, ValueError), (64, ValueError), (14, FeasibilityError)])
def test_verify_paper_checks_max_n_when_called(max_n, exc):
    with pytest.raises(exc):
        vf.verify_paper(max_n)  # raises without drawing a check


def test_verify_paper_runs_each_check_when_it_is_drawn(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the second check ran before it was drawn")

    monkeypatch.setattr(vf, "check_ring_oracle", broken)
    assert next(vf.verify_paper(8)).name == "cohomology-table-n4"


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_removed_threads_option_is_a_usage_error(capsys):
    code, out, err = run(capsys, "zcl", "--n", "4", "--threads", "2")
    assert code == 2
    assert out == ""
    assert "--threads" in err


# ---------------------------------------------------------- mutation probe

def test_broken_sq_is_caught(monkeypatch):
    # the table check must actually exercise the square rule, not a cached copy
    real = coh._key_squares

    def broken(j, keys):  # Sq^1 vanishes everywhere
        return np.full_like(keys, coh._ZERO) if j == 1 else real(j, keys)

    monkeypatch.setattr(coh, "_key_squares", broken)
    assert not vf.check_cohomology_table().passed


def test_sq1_on_even_monomials_is_caught(monkeypatch):
    real = coh._key_squares

    def broken(j, keys):  # Sq^1 also squares monomials with evenly many variables
        return np.where((keys & 1) == 0, keys | 1, coh._ZERO) if j == 1 else real(j, keys)

    monkeypatch.setattr(coh, "_key_squares", broken)
    table = vf.check_cohomology_table()
    assert (table.passed, table.detail) == (
        False, "dims (1, 4, 6, 4, 1), 16 basis elements, 8 Sq1 pairings"
    )
    sw = vf.check_stiefel_whitney()
    assert (sw.passed, sw.detail) == (False, "w_1 wrong at n=2: 0")


def test_broken_cup_is_caught(monkeypatch):
    real = coh._key_products

    def broken(k1, k2):  # every product of two degree-one monomials vanishes
        degree_one = (np.bitwise_count(k1) == 1) & (np.bitwise_count(k2) == 1)
        return np.where(degree_one, coh._ZERO, real(k1, k2))

    monkeypatch.setattr(coh, "_key_products", broken)
    assert not vf.check_ring_oracle(max_n=3, triples=50).passed


def test_ring_oracle_samples_reach_the_last_dimension(monkeypatch):
    real = coh._key_products

    def broken(k1, k2):  # not commutative, and only on keys with V4, so at n = 5
        return np.where((k1 < k2) & (k2 >= 1 << 4), coh._ZERO, real(k1, k2))

    assert vf.check_ring_oracle(max_n=5, triples=200).passed
    monkeypatch.setattr(coh, "_key_products", broken)
    check = vf.check_ring_oracle(max_n=5, triples=200)
    assert not check.passed
    # a sample block that ran dry would fail with StopIteration instead
    assert check.detail.endswith("broke at n=5")


def _longer_normal(t, real=geo.directrix_normal):
    return 2 * real(t)


def _embedding_without_separator(n, thetas, t):
    # the immersion with 0 where sin(2t) goes: its branches still meet
    imm = geo.immersion_point(n, thetas, t)
    return np.concatenate([imm, np.zeros(imm.shape[:-1] + (1,))], axis=-1)


def _embedding_off_the_immersion(n, thetas, t, real=geo.embedding_point):
    # the embedding moved 1e-9 along e_1: no longer the immersion plus one coordinate
    out = real(n, thetas, t)
    out[..., 0] += 1e-9
    return out


def _members_coincide(radii, thetas, real=geo.torus_point):
    # every two-radius family whose last radius lies strictly between 1.1 and
    # 1.9 base units at n = 3 gets 1.5 units, so the two sampled members match
    unit = geo.base_unit(3)
    if len(radii) == 2 and 1.1 * unit < radii[-1] < 1.9 * unit:
        radii = [radii[0], 1.5 * unit]
    return real(radii, thetas)


@pytest.mark.parametrize(
    "check, target, broken, prefix",
    [
        pytest.param(
            lambda: vf.check_stiefel_whitney(max_n=4),
            "char_classes.wu_classes",
            lambda n: [coh.CohomologyClass.one(n)] + [coh.CohomologyClass.zero(n)] * n,
            "w_1 wrong at n=2",
            id="stiefel-whitney",
        ),
        pytest.param(
            lambda: vf.check_integral_consistency(max_n=4),
            "integral_splitting.poincare_polynomial",
            lambda n: [1] * (n + 1),
            "n=2 failed: f2-dimension-count",
            id="integral-consistency",
        ),
        pytest.param(
            lambda: vf.check_tensor_witness(max_n=4),
            "tensor_zcl._nonzero",
            lambda r, v: True,
            "anchor term missing at n=3",
            id="tensor-witness-always-nonzero",
        ),
        pytest.param(
            lambda: vf.check_tensor_witness(max_n=4),
            "tensor_zcl._nonzero",
            lambda r, v: False,
            "witness degenerate at n=3",
            id="tensor-witness-always-zero",
        ),
        pytest.param(
            lambda: vf.check_zcl_vanishing(max_n=4),
            "tensor_zcl._nonzero",
            lambda r, v: True,
            "nonzero product of 6 zero divisors at n=3",
            id="zcl-vanishing",
        ),
        pytest.param(
            lambda: vf.check_zcl_vanishing(max_n=4),
            "tensor_zcl._nonzero",
            lambda r, v: False,
            "every product of 5 zero divisors vanishes at n=3",
            id="zcl-vanishing-always-zero",
        ),
        pytest.param(
            lambda: vf.check_zcl_vanishing(max_n=4),
            "tensor_zcl.compute_zcl",
            lambda m: m + 1,
            "compute_zcl(3) = 4, expected 5",
            id="zcl-vanishing-count-scan",
        ),
        pytest.param(
            lambda: vf.check_relators_and_h1(max_n=4),
            "fundamental_group.abelianization",
            lambda n: AbelianGroup(n, ()),
            "H_1 mismatch at n=2",
            id="abelianization-h1",
        ),
        pytest.param(
            vf.check_geometry_identities,
            "geometry.directrix_normal",
            _longer_normal,
            "normal is not unit length",
            id="geometry-identities",
        ),
        pytest.param(
            vf.check_geometry_identities,
            "geometry.torus_point",
            _members_coincide,
            "nested family members touch",
            id="geometry-identities-members-touch",
        ),
        pytest.param(
            lambda: vf.check_self_intersection(2),
            "geometry.embedding_point",
            _embedding_without_separator,
            "embedding scan found",
            id="self-intersection-scan-n2",
        ),
        pytest.param(
            lambda: vf.check_self_intersection(3),
            "geometry.embedding_point",
            _embedding_without_separator,
            "embedding scan found 216 pairs",
            id="self-intersection-scan-n3",
        ),
        pytest.param(
            lambda: vf.check_self_intersection(2),
            "geometry.embedding_point",
            _embedding_off_the_immersion,
            "ValueError: a lifted scan needs",
            id="self-intersection-scan-not-a-lift",
        ),
        pytest.param(
            vf.check_genetic_codes,
            "polygon_genetics.tc_bounds",
            lambda m: tz.TcBounds(m, 0, 1, 2 * m + 1, "broken"),
            "tc link (1,7) != (6,7)",
            id="genetic-codes",
        ),
    ],
)
def test_each_check_fails_on_a_broken_input(check, target, broken, prefix, monkeypatch):
    monkeypatch.setattr(f"kleinforge.{target}", broken)
    result = check()
    assert not result.passed
    assert result.detail.startswith(prefix), result.detail


def test_ring_oracle_draws_keys_up_to_the_bit_mask_limit():
    check = vf.check_ring_oracle(max_n=63, triples=2000)
    assert check.passed, check.detail
    assert check.detail == "340 oracle basis pairs, 2000 random triples to n=63"


def test_checks_that_grow_with_max_n_pass_at_13():
    # 13 is the largest max_n whose duality pairings the budget admits
    checks = [
        vf.check_ring_oracle(max_n=13),
        vf.check_cup_length_duality(max_n=13),
        vf.check_stiefel_whitney(max_n=13),
        vf.check_integral_consistency(max_n=13),
        vf.check_relators_and_h1(max_n=13),
    ]
    assert all(c.passed for c in checks), checks
    assert {c.name: c.detail for c in checks} == {
        "cup-ring-oracle": "340 oracle basis pairs, 10000 random triples to n=13",
        "cup-length-and-duality": "cup_length(n)=n and nonsingular pairing for n<=13",
        "stiefel-whitney": "w_1 = R for even n, all else zero, n<=13",
        "integral-consistency": (
            "all consistency identities for n<=13; n=2 gives (Z, Z, Z/2), H1 = Z + Z/2"
        ),
        "abelianization-h1": "relators trivial and abelianization = H_1 for n <= 13",
    }


# ------------------------------------------------------------ file round trip

def test_mesh_then_scan_files(tmp_path, capsys):
    obj = tmp_path / "k2.obj"
    txt = tmp_path / "k2.txt"
    assert run(capsys, "mesh", "--n", "2", "--res", "36x40", "--out", str(obj))[0] == 0
    assert run(capsys, "mesh", "--n", "2", "--res", "36x40", "--out", str(txt))[0] == 0

    code, out, _ = run(capsys, "scan", "--in", str(obj), "--radius", "0.15", "--json")
    assert code == 0
    from_obj = json.loads(out)

    code, out, _ = run(capsys, "scan", "--in", str(txt), "--radius", "0.15", "--json")
    assert code == 0
    from_txt = json.loads(out)

    code, out, _ = run(capsys, "scan", "--n", "2", "--res", "36x40", "--radius", "0.15", "--json")
    assert code == 0
    direct = json.loads(out)

    assert from_obj["pairs"] == from_txt["pairs"] == direct["pairs"]
    assert from_obj["num_pairs"] > 0
    # t-values survive only through the text format and direct builds
    assert from_obj["seam_confinement"] is None
    assert from_txt["seam_confinement"] == direct["seam_confinement"]


@pytest.mark.parametrize(
    "name, argv, sha256",
    [
        ("k2.obj", ("--n", "2", "--res", "8x6"),
         "1b733d4fba8b0a55750bd7ee7e543329b7c904ddfe0c123a5b6b908f0c40e82d"),
        ("k2.txt", ("--n", "2", "--res", "8x6"),
         "2785dbf087573b8464d1d4a826fa8ed5d0d3fe8ca1965e895795b8088d403ba1"),
        ("k3.txt", ("--n", "3", "--target", "embedding", "--res", "8x6"),
         "5b2412048900f523fdb6910ab099b549cb16a984ae49ba3dfaa257c0d9e1f993"),
    ],
)
def test_mesh_files_are_pinned_byte_for_byte(tmp_path, capsys, name, argv, sha256):
    out_file = tmp_path / name
    assert run(capsys, "mesh", *argv, "--out", str(out_file))[0] == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == sha256


def test_mesh_obj_beyond_3d_warns_and_projects(tmp_path, capsys):
    out_file = tmp_path / "k3.obj"
    code, _, err = run(capsys, "mesh", "--n", "3", "--res", "8x6", "--out", str(out_file))
    assert code == 0
    assert "projecting" in err
    assert out_file.read_text().count("v ") > 0


@pytest.mark.parametrize(
    "out, axes",
    [
        ("k2.txt", "9,9,9"),
        ("k2.txt", "0,1,2"),
        ("k2.obj", "0,x,2"),
        # out of range for R^3, which the MeshSpec fixes before any sampling
        ("k2.obj", "9,9,9"),
        ("k2.obj", "-1,0,1"),
    ],
)
def test_mesh_axes_are_refused_before_the_mesh_is_built(tmp_path, capsys, monkeypatch, out, axes):
    def unbuilt(spec):
        raise AssertionError("the mesh was built before --axes was checked")

    monkeypatch.setattr(geo, "build_mesh", unbuilt)
    out_file = tmp_path / out
    # --axes=VALUE, so that a value with a leading minus reaches cmd_mesh
    code, text, err = run(
        capsys, "mesh", "--n", "2", "--res", "8x6", "--out", str(out_file), f"--axes={axes}"
    )
    assert (code, text) == (2, "")
    assert err.startswith("error: ")
    assert not out_file.exists()


def _src_env():
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_installed():
    # A source checkout has no `klein-forge` executable, so check what the
    # repo owns of it everywhere: the [project.scripts] declaration, run
    # through the same wrapper an installer writes. The installed script
    # itself is run wherever one is on PATH.
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["klein-forge"]
    module, attr = target.split(":")
    wrapper = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'klein-forge'; sys.exit({attr}())"
    )
    commands = [([sys.executable, "-c", wrapper], _src_env())]
    installed = shutil.which("klein-forge")
    if installed:
        commands.append(([installed], None))
    for command, env in commands:
        proc = subprocess.run(
            [*command, "tc", "--m", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("TC(K_2) in [4, 5]")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kleinforge", "tc", "--m", "2"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("TC(K_2) in [4, 5]")


def test_readme_python_examples_run():
    # every ```python block of the README, so one that names a deleted or
    # renamed function fails here
    readme = (ROOT / "README.md").read_text()
    blocks = [part.split("\n```", 1)[0] for part in readme.split("\n```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_scripts_run_on_the_public_api():
    demo = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "genetic_codes_demo.py"), "--samples", "50"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert demo.returncode == 0, demo.stderr
    generic = int(demo.stdout.split(" generic vectors of 50 sampled (n=6)")[0])
    assert 0 < generic <= 50
    assert "1/24,1/24,1,1,1,2 -> <{6,2,1}> ('K_3',), TC in [6, 7]" in demo.stdout

    bench = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--job", "scan", "2", "immersion"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert bench.returncode == 0, bench.stderr
    data = json.loads(bench.stdout)
    assert (data["vertices"], data["pairs"]) == (79800, 73)
    assert 0 < data["build_peak_rss_mb"] <= data["peak_rss_mb"]
    stages = data["stage_peak_mb"]  # traced peaks of a second build and scan
    assert list(stages) == ["build", "cell_join", "d2_gather", "neighbour_test"]
    assert all(peak > 0 for peak in stages.values())

    bench = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--job", "lift", "2"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert bench.returncode == 0, bench.stderr
    data = json.loads(bench.stdout)
    assert (data["pairs"], data["lifted_equal"]) == (0, True)
    assert data["full_scan_s"] > 0 and data["lifted_scan_s"] > 0

    bench = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--job", "mesh-io", "k2-coarse.obj"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert bench.returncode == 0, bench.stderr
    data = json.loads(bench.stdout)
    assert (data["vertices"], data["bytes"]) == (19900, 1666705)

    bench = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"),
         "--job", "ring", "manifold_report", "6"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert bench.returncode == 0, bench.stderr
    assert json.loads(bench.stdout)["answer"] == 6

    bench = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--job", "fan-scan", "100"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert bench.returncode == 0, bench.stderr
    assert json.loads(bench.stdout)["pairs"] == 24601

    for m, zcl in (("3", 5), ("24", 26), ("37", 39)):
        bench = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench.py"), "--job", "zcl", m],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert bench.returncode == 0, bench.stderr
        assert json.loads(bench.stdout)["zcl"] == zcl

    bench = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--job", "verify-paper"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert bench.returncode == 0, bench.stderr
    data = json.loads(bench.stdout)
    assert len(data["checks"]) == 14 and data["passed"] is True
    assert math.fsum(data["checks"].values()) <= data["wall_s"]  # exact: the times telescope


def test_bench_summary_reads_each_key_by_its_values():
    summary = runpy.run_path(str(ROOT / "scripts" / "bench.py"))["summary"]
    runs = [
        {"wall_s": 0.5, "passed": True, "checks": {"a": 0.1, "b": 0.2},
         "stage_peak_mb": {"build": 5.0, "neighbour_test": None}, "peak_rss_mb": 40.0,
         "lifted_scan_s": None, "new_count": 7},
        {"wall_s": 0.2, "passed": True, "checks": {"a": 0.4, "b": 0.2},
         "stage_peak_mb": {"build": 6.1, "neighbour_test": None}, "peak_rss_mb": 41.24,
         "lifted_scan_s": None, "new_count": 7},
        {"wall_s": 0.3, "passed": True, "checks": {"a": 0.2, "b": 0.1},
         "stage_peak_mb": {"build": 5.5, "neighbour_test": None}, "peak_rss_mb": 39.0,
         "lifted_scan_s": None, "new_count": 7},
    ]
    row = summary("tree", "scans/n2", runs)
    assert row == {
        "wall_s": 0.3, "wall_s_runs": [0.5, 0.2, 0.3],  # median, then every run in order
        "passed": True,
        "checks": {"a": 0.2, "b": 0.2}, "checks_runs": {"a": [0.1, 0.4, 0.2], "b": [0.2, 0.2, 0.1]},
        "stage_peak_mb": {"build": 6.1, "neighbour_test": None},  # the largest, entry by entry
        "peak_rss_mb": 41.2,
        "lifted_scan_s": None,  # not a float: a fact, as a tree without lifted_scan gives
        "new_count": 7,  # a key no list names reaches the row
    }
    assert list(row)[:2] == ["wall_s", "wall_s_runs"]

    runs[1]["new_count"] = 8
    with pytest.raises(SystemExit, match=r"^tree: scans/n2: the runs disagree on 'new_count'"):
        summary("tree", "scans/n2", runs)


def test_bench_job_forms_and_usage_errors():
    bench = [sys.executable, str(ROOT / "scripts" / "bench.py"), "--job"]
    for argv, pairs in ((("quad-scan", "4"), 0), (("scan", "2", "immersion", "shuffled"), 73)):
        proc = subprocess.run([*bench, *argv], capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pairs"] == pairs  # shuffled faces: as in grid order

    for argv in (("nope",), ("scan",), ("lift", "2", "3"), ()):
        proc = subprocess.run([*bench, *argv], capture_output=True, text=True, env=_src_env(), timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("usage: ")
        assert "verify-paper, scan, lift, zcl, mesh-io, ring, quad-scan, fan-scan" in proc.stderr
