"""Command-line surface: pinned outputs, exit codes, determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kleinforge import cli
from kleinforge import cohomology_f2 as coh
from kleinforge import geometry as geo
from kleinforge import tensor_zcl as tz
from kleinforge import verification as vf
from kleinforge.errors import FeasibilityError
from kleinforge.integral_splitting import CheckResult, ConsistencyReport

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


# ------------------------------------------------------------- exit codes

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
    # only v_1 has a nonzero right-hand side, so no large pairing is built
    code, out, err = run(capsys, "manifold", "--n", "14", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["category"] == 14
    code, out, err = run(capsys, "manifold", "--n", "20")
    assert (code, out) == (3, "")
    assert "2^20 basis monomials" in err


def test_oversized_mesh_exits_3_before_allocating(tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the mesh budget must be checked before sampling")

    monkeypatch.setattr(np, "meshgrid", no_grid)
    out_file = tmp_path / "k6.obj"
    code, _, err = run(capsys, "mesh", "--n", "6", "--res", "40x40", "--out", str(out_file))
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
    "name, bad",
    [
        ("ragged-alone.txt", "v 1 2\n"),  # a block of its own, narrower than the rest
        ("ragged-among.txt", "v 1 2 0\nv 1 2\n"),
        ("missing-vertex.txt", "f 0 1 2 99\n"),
        ("missing-vertex.obj", "f 1 2 3 99\n"),
        ("zero-index.obj", "f 1 2 3 0\n"),
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
        ("zcl", "--n", "30"),
        ("tc", "--m", "30"),
        ("zcl", "--n", "10", "--max-len", "1000"),
        ("zcl", "--n", "3", "--max-len", "100000"),
        ("zcl", "--n", "3", "--max-len", "1000000000"),
        ("zcl", "--n", "3", "--max-len", "2000"),  # 1,002,001 multisets
        ("cohomology", "--n", "30"),  # 2^30 basis monomials
        ("zcl", "--n", "63", "--max-len", "64"),  # 2^63 terms in one product
        ("verify-paper", "--max-n", "14"),  # the degree-7 pairing has 3432^2 entries
    ],
)
def test_zcl_basis_and_pairing_guards_exit_3_before_any_work(argv, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("work started before the feasibility guard")

    # testing or expanding any zero-divisor product fails, so a missing guard
    # fails the test instead of running out of time or memory
    monkeypatch.setattr(tz, "_nonzero", fail)
    monkeypatch.setattr(tz, "_expand", fail)
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
    ],
)
def test_large_groups_and_powers_exit_0_in_bounded_time(argv, expect, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert expect(out)


def test_guards_admit_the_workload_sizes(capsys):
    code, out, _ = run(capsys, "zcl", "--n", "63", "--max-len", "5")
    assert code == 0
    assert out.startswith("length-5 zero-divisor products over K_63: nonzero")
    code, out, _ = run(capsys, "check", "--n", "22", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verification_failure_exit_1(capsys, monkeypatch):
    bad = ConsistencyReport(
        n=2, checks=(CheckResult("euler-characteristic-zero", False, "forced"),)
    )
    monkeypatch.setattr("kleinforge.integral_splitting.consistency_check", lambda n: bad)
    code, out, _ = run(capsys, "check", "--n", "2")
    assert code == 1
    assert "FAIL" in out


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


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_removed_threads_option_is_a_usage_error(capsys):
    code, out, err = run(capsys, "zcl", "--n", "4", "--threads", "2")
    assert code == 2
    assert out == ""
    assert "--threads" in err


# ---------------------------------------------------------- mutation probe

def test_broken_sq_is_caught(monkeypatch):
    # the table check must actually exercise sq, not a cached copy
    real = coh.sq

    def broken(j, a):
        if j == 1:
            return coh.CohomologyClass.zero(a.n)
        return real(j, a)

    monkeypatch.setattr(coh, "sq", broken)
    assert not vf.check_cohomology_table().passed


def test_broken_cup_is_caught(monkeypatch):
    real = coh.cup
    r3 = coh.CohomologyClass.r(3)

    def broken(a, b):
        out = real(a, b)
        if a.degree() == b.degree() == 1 and not out.is_zero():
            return coh.CohomologyClass.zero(a.n)
        return out

    monkeypatch.setattr(coh, "cup", broken)
    assert not vf.check_ring_oracle(max_n=3, triples=50).passed


def test_ring_oracle_samples_reach_the_last_dimension(monkeypatch):
    real = coh.cup

    def broken(a, b):  # not commutative, and only at n = 5
        if a.n == 5 and min(a.keys, default=0) < min(b.keys, default=0):
            return coh.CohomologyClass.zero(5)
        return real(a, b)

    assert vf.check_ring_oracle(max_n=5, triples=200).passed
    monkeypatch.setattr(coh, "cup", broken)
    check = vf.check_ring_oracle(max_n=5, triples=200)
    assert not check.passed
    # a sample block that ran dry would fail with StopIteration instead
    assert check.detail.endswith("broke at n=5")


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
