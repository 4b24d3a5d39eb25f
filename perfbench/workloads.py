"""The benchmark's workloads: seeded lists of klein-forge CLI invocations.

Each workload is a list of `Op`s run in order by one closed-loop client
(the next call starts when the previous one returns).  The seed moves
content, never volume: it shuffles the order, picks the letters of the
`pi1` words at fixed word lengths and draws the `genes` length vectors at
fixed vector sizes.  The mesh-files and the fixed-size algebra queries
have the same argv for every seed, so their stdout digests always apply.

This module imports nothing from klein-forge, so the parent process can
build the same list to check a pass's outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_rc: int = 0
    # what the output check needs beyond the argv (see checks.py)
    facts: dict = field(default_factory=dict, hash=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def verify_paper_ops(seed: int) -> list[Op]:
    # inputs are fixed by the program's own RNG_SEED; the seed has no content to move
    return [Op(("verify-paper", "--max-n", "8"), facts={"kind": "verify-paper"})]


# fixed word lengths, geometric from 2k to 50k letters
WORD_LENGTHS = tuple(round(2000 * 25 ** (i / 15)) for i in range(16))
GENE_SIZES = (10, 11, 12, 13, 14)


def _word(rng: random.Random, n: int, length: int) -> str:
    names = [f"a{i}" for i in range(1, n)] + ["an"]
    return " ".join(
        rng.choice(names) + ("" if rng.random() < 0.5 else "^-1") for _ in range(length)
    )


def _lengths(rng: random.Random, size: int) -> list[int]:
    # entries >= 5 keep the longest side below the sum of the others; an odd
    # total means no subset sums to half of it, so the vector is generic
    values = [rng.randint(5, 30) for _ in range(size)]
    if sum(values) % 2 == 0:
        values[rng.randrange(size)] += 1
    return values


def algebra_queries_ops(seed: int) -> list[Op]:
    """About 100 `--json` queries over every algebraic layer.

    Sizes stay well below the inputs that hang or exhaust memory today
    (`cohomology --n 30`, `manifold --n 26`); those are robustness bugs
    with tests of their own, not throughput inputs.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    for n in (10, 11, 12, 13):
        for _ in range(3):
            ops.append(Op(("cohomology", "--n", str(n), "--json"), facts={"kind": "cohomology", "n": n}))
    for n in (8, 9, 10, 11):
        for _ in range(4):
            ops.append(Op(("manifold", "--n", str(n), "--json"), facts={"kind": "manifold", "n": n}))
    for n in range(16, 23):
        for _ in range(2):
            ops.append(Op(("check", "--n", str(n), "--json"), facts={"kind": "check", "n": n}))
    for m in range(12, 19):
        ops.append(Op(("zcl", "--n", str(m), "--json"), facts={"kind": "zcl", "m": m}))
        ops.append(Op(("zcl", "--n", str(m), "--exhaustive", "--json"), facts={"kind": "zcl", "m": m}))
        ops.append(Op(("tc", "--m", str(m), "--json"), facts={"kind": "tc", "m": m}))
    for i, length in enumerate(WORD_LENGTHS):
        n = 4 + (12 * i) // (len(WORD_LENGTHS) - 1)
        word = _word(rng, n, length)
        ops.append(Op(("pi1", "--n", str(n), "--word", word, "--json"), facts={"kind": "pi1", "n": n}))
    for size in GENE_SIZES:
        for _ in range(3):
            lengths = _lengths(rng, size)
            ops.append(Op(("genes", "--lengths", ",".join(map(str, lengths)), "--json"),
                          facts={"kind": "genes", "lengths": lengths}))
    # a generator index outside 1..n is a usage error, exit 2 with no stdout
    ops.append(Op(("pi1", "--n", "4", "--word", "a1 a9", "--json"), expect_rc=2, facts={"kind": "usage-error"}))
    rng.shuffle(ops)
    return ops


# (file, mesh argv tail, [(radius, facts)]); n=2 runs at the verify-paper grid
MESH_FILES = (
    ("k2-immersion.obj", ("--n", "2", "--res", "200x400"),
     [("1e-2", {"pairs": 73, "same_pairs_as": "k2-immersion.mesh"}),
      ("2e-2", {"pairs": 4737})]),
    ("k2-coarse.obj", ("--n", "2", "--res", "100x200"), [("2e-2", {})]),
    ("k2-immersion.mesh", ("--n", "2", "--res", "200x400"),
     [("1e-2", {"pairs": 73, "same_pairs_as": "k2-immersion.obj"})]),
    ("k2-embedding.mesh", ("--n", "2", "--target", "embedding", "--res", "200x400"),
     [("1e-2", {"pairs": 0})]),
    ("k3-immersion.mesh", ("--n", "3", "--res", "32x64"), [("3e-2", {"seam_confined": True})]),
    ("k3-embedding.mesh", ("--n", "3", "--target", "embedding", "--res", "24x48"),
     [("3e-2", {"pairs": 0})]),
)


def mesh_files_ops(seed: int) -> list[Op]:
    """`mesh --out FILE` then `scan --in FILE --json`, files in shuffled order.

    OBJ files carry no grid metadata, so the scan sees them exactly as it
    would see a file from another tool.  Every file is read only through
    `scan --in`.
    """
    rng = random.Random(seed)
    groups = []
    for name, tail, scans in MESH_FILES:
        target = "embedding" if "embedding" in tail else "immersion"
        n = int(tail[tail.index("--n") + 1])
        dim = n + 1 if target == "immersion" else n + 2
        mesh = Op(("mesh", *tail, "--out", name), facts={"kind": "mesh", "file": name, "dim": dim})
        scan_ops = [
            Op(("scan", "--in", name, "--radius", radius, "--json"),
               facts={"kind": "scan", "file": name, "radius": radius, **facts})
            for radius, facts in scans
        ]
        rng.shuffle(scan_ops)
        groups.append([mesh, *scan_ops])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


BUILDERS = {
    "verify-paper": verify_paper_ops,
    "algebra-queries": algebra_queries_ops,
    "mesh-files": mesh_files_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)
