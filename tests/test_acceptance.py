"""Acceptance gate: one test per required behaviour, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Each test also asserts its wall-clock budget, so a regression in
either correctness or feasibility turns the gate red.
"""

import json
import time

import pytest

from kleinforge import cli
from kleinforge import char_classes as cc
from kleinforge import cohomology_f2 as coh
from kleinforge import integral_splitting as ints
from kleinforge import tensor_zcl as tz
from kleinforge import verification as vf


def gate(num, label, budget_s, passed, elapsed_s, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num:02d} [{label}]: {status} in {elapsed_s:.2f}s (budget {budget_s:.0f}s) {detail}"
    print(line)
    assert passed, line
    assert elapsed_s < budget_s, line


def test_criterion_01_degree_table(capsys):
    start = time.perf_counter()
    code = cli.main(["cohomology", "--n", "4", "--json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    elapsed = time.perf_counter() - start
    ok = (
        code == 0
        and data["dims"] == [1, 4, 6, 4, 1]
        and sum(len(row) for row in data["basis"]) == 16
        and sorted(data["sq1"]) == [
            ["V1", "R*V1"],
            ["V1*V2*V3", "R*V1*V2*V3"],
            ["V2", "R*V2"],
            ["V3", "R*V3"],
        ]
    )
    with capsys.disabled():
        gate(1, "degree table n=4", 1.0, ok, elapsed, "16 classes, 4 Sq1 lines")


def test_criterion_02_ring_oracle(capsys):
    start = time.perf_counter()
    check = vf.check_ring_oracle(max_n=8, triples=10_000)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(2, "cup vs free reduction", 30.0, check.passed, elapsed, check.detail)


def test_criterion_03_cup_length_duality(capsys):
    start = time.perf_counter()
    check = vf.check_cup_length_duality(max_n=10)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(3, "cup length + duality", 30.0, check.passed, elapsed, check.detail)


def test_criterion_04_stiefel_whitney(capsys):
    start = time.perf_counter()
    check = vf.check_stiefel_whitney(max_n=10)
    # the Wu classes must satisfy their defining linear system, i.e. they
    # really were solved for, not copied from the expected answer
    wu_ok = True
    for n in range(1, 11):
        for k, vk in enumerate(cc.wu_classes(n)):
            for key in coh.basis(n, n - k):
                x = coh.CohomologyClass(n, frozenset({key}))
                if coh.top_coefficient(coh.cup(vk, x)) != coh.top_coefficient(
                    coh.sq(k, x)
                ):
                    wu_ok = False
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(
            4,
            "Stiefel-Whitney n<=10",
            10.0,
            check.passed and wu_ok,
            elapsed,
            check.detail + "; Wu defining identity re-verified",
        )


def test_criterion_05_integral_triangle(capsys):
    start = time.perf_counter()
    check = vf.check_integral_consistency(max_n=12)
    h = ints.integral_cohomology(2)
    base_ok = [g.text() for g in h] == ["Z", "Z", "Z/2"]
    h1_ok = ints.homology_from_splitting(2)[1].text() == "Z + Z/2"
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(
            5,
            "integral/UCT n<=12",
            10.0,
            check.passed and base_ok and h1_ok,
            elapsed,
            check.detail,
        )


def test_criterion_06_zero_divisors(capsys):
    start = time.perf_counter()
    witness = vf.check_tensor_witness(max_n=8)
    vanishing = vf.check_zcl_vanishing(max_n=6)
    b = tz.tc_bounds(4)
    bounds_ok = (b.lower, b.upper) == (7, 9)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(
            6,
            "zero-divisor lengths",
            180.0,
            witness.passed and vanishing.passed and bounds_ok,
            elapsed,
            f"{witness.detail}; {vanishing.detail}; tc(4)=({b.lower},{b.upper})",
        )


def test_criterion_07_fundamental_group(capsys):
    start = time.perf_counter()
    words = vf.check_word_oracle(max_n=4, max_len=6)
    ab = vf.check_relators_and_h1(max_n=10)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(
            7,
            "pi1 words n<=4 len<=6",
            60.0,
            words.passed and ab.passed,
            elapsed,
            f"{words.detail}; {ab.detail}",
        )


def test_criterion_08_geometry(capsys):
    start = time.perf_counter()
    frame = vf.check_geometry_identities()
    scan = vf.check_self_intersection(2)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(
            8,
            "weld + scan n=2",
            120.0,
            frame.passed and scan.passed,
            elapsed,
            f"{frame.detail}; {scan.detail}",
        )


def test_criterion_09_genetic_codes(capsys):
    start = time.perf_counter()
    check = vf.check_genetic_codes()
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        gate(9, "hexagon genetic codes", 1.0, check.passed, elapsed, check.detail)


def test_criterion_10_verify_paper_cli(capsys):
    start = time.perf_counter()
    outs = []
    for _ in range(2):
        code = cli.main(["verify-paper", "--max-n", "8"])
        outs.append(capsys.readouterr().out)
        if code != 0:
            break
    elapsed = time.perf_counter() - start
    report = json.loads(outs[-1])
    ok = (
        code == 0
        and report["passed"] is True
        and len(report["checks"]) == 14
        and len(outs) == 2
        and outs[0] == outs[1]  # byte-for-byte deterministic
    )
    with capsys.disabled():
        gate(
            10,
            "verify-paper end to end",
            300.0,
            ok,
            elapsed,
            f"{len(report['checks'])} checks, two identical runs",
        )
