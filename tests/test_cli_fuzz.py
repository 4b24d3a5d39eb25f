"""Exit-code fuzzing: every argv of every subcommand ends in 0, 1, 2 or 3.

Generated argv mix small valid values with malformed tokens.  Each case runs
`cli.main` in-process and must return a documented exit code, raise nothing,
print no traceback and finish within a per-case time bound.
"""

import contextlib
import io
import os
import random
import time

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from kleinforge import cli
from kleinforge import geometry as geo

CASE_SECONDS = 2.0

# words, signs, a number too long to parse, a decimal exponent too large to
# build, zero denominators, non-ASCII digits (int() reads them as 3) and
# blanks; every token int() reads is below 4, so none is a valid
# verify-paper size
MALFORMED = (
    "", " ", "x", "abc", "-1", "+3", "-0", "1.5", "nan", "inf",
    "9" * 5000, "1e30000000", "x/0", "1/0", "٣", "３",
)
BAD = st.sampled_from(MALFORMED)


def mostly(valid):
    """Draws from ``valid`` three times in four, else a malformed token."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else BAD)


SIZE = mostly(st.integers(0, 12).map(str))
MESH_N = mostly(st.sampled_from(("2", "3")))
# res_theta must be even; 0..24 by 0..24 covers the refusals too
GRID = mostly(st.builds("{}x{}".format, st.integers(0, 12).map(lambda k: 2 * k), st.integers(0, 24)))
RATIONAL = mostly(st.sampled_from(("0", "1", "2", "3", "1/24", "3/2", "0.5", "2e-3")))
LETTER = mostly(st.sampled_from(
    ("a1", "a2", "a3", "a4", "an", "a1^-1", "a2^3", "a3^0", "a13", "a0", "a1^99999999999", "b", "^")
))
# long words over a handful of tokens, valid and not, so that tokens repeat;
# a seeded choice spells each word, since drawing hundreds of list entries
# one by one is slow to generate
LONG_WORD = st.builds(
    lambda tokens, length, seed: " ".join(random.Random(seed).choices(tokens, k=length)),
    st.lists(LETTER, min_size=1, max_size=5),
    st.integers(0, 300),
    st.integers(0, 2**32),
)
TARGET = mostly(st.sampled_from(("immersion", "embedding")))

# relative paths, resolved in the directory the `files` fixture prepares
COMMANDS = {
    "cohomology": {"--n": SIZE},
    "manifold": {"--n": SIZE},
    "integral": {"--n": SIZE},
    "splitting": {"--n": SIZE},
    "check": {"--n": SIZE},
    "pi1": {"--n": SIZE, "--word": st.one_of(st.lists(LETTER, max_size=6).map(" ".join), LONG_WORD)},
    "zcl": {"--n": SIZE, "--max-len": mostly(st.integers(0, 30).map(str))},
    "tc": {"--m": SIZE},
    "genes": {
        "--lengths": st.lists(RATIONAL, max_size=8).map(",".join),
        "--epsilon": RATIONAL,
    },
    "mesh": {
        "--n": MESH_N,
        "--target": TARGET,
        "--res": GRID,
        "--out": mostly(st.sampled_from(("out.obj", "out.txt", ".", "missing/out.txt"))),
        "--axes": mostly(st.sampled_from(("0,1,2", "1,2,3", "0,1", "0,0,0", "-1,0,1", "9,9,9"))),
    },
    "scan": {
        "--in": mostly(st.sampled_from(
            ("mesh.txt", "mesh.obj", "garbage.txt", "empty.obj", ".", "missing.txt")
        )),
        "--n": MESH_N,
        "--target": TARGET,
        "--res": GRID,
        "--radius": mostly(st.sampled_from(("0.05", "0.3", "1", "0", "1e6"))),
    },
    "verify-paper": {"--max-n": BAD},
}
# options never left to their defaults, verify-paper --max-n 8 and a
# 200x400 scan grid, which are valid and large
ALWAYS = {"scan": "--res", "verify-paper": "--max-n"}
FLAGS = ("--json", "--exhaustive", "--help", "--bogus")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for option, values in COMMANDS[command].items():
        # each other option is present in three cases of four
        if option == ALWAYS.get(command) or draw(st.integers(0, 3)):
            argv += [option, draw(values)]
    return argv + draw(st.lists(st.sampled_from(FLAGS), max_size=1))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Work in a directory that holds the mesh files `scan --in` reads."""
    path = tmp_path_factory.mktemp("fuzz")
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 8, 5))
    geo.write_mesh_text(mesh, str(path / "mesh.txt"))
    geo.write_obj(mesh, str(path / "mesh.obj"))
    (path / "garbage.txt").write_text("v 1 x\nf 0 1\n")
    (path / "empty.obj").write_text("")
    previous = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(previous)


# a failing case can run for a minute (the exponent case did), so failures
# are reported as drawn, without shrinking
@settings(
    max_examples=500,
    derandomize=True,
    phases=(Phase.explicit, Phase.generate),
)
@given(argv=argvs())
@example(argv=["genes", "--lengths", "1e30000000,1,1,1"])
@example(argv=["genes", "--lengths", "0,1,1,1", "--epsilon", "1e-30000000"])
# the largest zcl scan, and the smallest dimension the bit masks refuse (exit 2)
@example(argv=["tc", "--m", "63"])
@example(argv=["zcl", "--n", "64"])
def test_every_argv_ends_in_a_documented_exit_code(files, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (argv, code)
    # exit 1 is a failed verification and nothing else
    assert code != 1 or argv[0] in ("check", "verify-paper"), argv
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < CASE_SECONDS, (argv, elapsed)


@settings(max_examples=200, derandomize=True)
@given(n=SIZE, word=LONG_WORD)
def test_long_words_with_repeats_exit_0_or_2(n, word):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["pi1", "--n", n, "--word", word, "--json"])
    assert code in (0, 2), (n, word, code)
    assert "Traceback" not in err.getvalue(), (n, word)
