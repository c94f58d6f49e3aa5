"""The benchmark's traced run still installs on the current program.

`bench/layers.py` wraps torelli functions from outside, by module and name;
a rename in `src` that it does not follow would otherwise surface only as a
crash of a `--trace 1` benchmark run.  Each case runs `bench/child.py 1` on
one job in a fresh interpreter, as that run does.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import torelli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(torelli.__file__).resolve().parents[1]

# argv -> the spans the job must enter; a call in `src` that no longer goes
# through a wrapped name, such as `borel`'s `invert_fraction_matrix` for
# linalg.inverse, leaves its span at 0 calls
CASES = {
    ("l-class", "--upto", "3"): ("lclasses.sequence", "graded.format"),
    ("l-class", "--upto", "3", "--hat"): ("lclasses.sequence", "graded.format"),
    ("p-from-l", "--upto", "3"): ("graded.format",),
    ("theoremB-series", "--n", "8", "--maxdeg", "12"): ("mt.series", "graded.series"),
    ("mt-series", "--n", "3", "--maxdeg", "4"): ("mt.series", "graded.series"),
    ("torelli-series", "--n", "4", "--maxdeg", "10"): ("mt.series", "graded.series"),
    ("borel-constant", "--family", "C", "--g", "2", "--k", "0", "--qmax", "4"): (
        "borel.constant",
        "borel.roots",
        "borel.cone",
        "linalg.inverse",
    ),
    # a request whose constant only a sum of greatest height decides
    ("borel-constant", "--family", "D", "--g", "3", "--k", "1", "--qmax", "4"): (
        "borel.constant",
        "borel.roots",
        "borel.cone",
        "linalg.inverse",
    ),
    ("crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "8", "--oracle"): (
        "invariants.crosscheck",
        "invariants.stable_series",
        "invariants.oracle",
        "invariants.piece_dimension",
        "graded.series",
    ),
    # the series workload's crosscheck, which runs no oracle
    ("crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "8"): (
        "invariants.crosscheck",
        "invariants.stable_series",
        "graded.series",
    ),
    ("invariant-oracle", "--type", "sp", "--g", "1", "--degrees", "1,3", "--deg", "4"): (
        "invariants.oracle",
        "invariants.piece_dimension",
    ),
    ("group-sample", "--type", "sp", "--g", "2", "--seed", "1", "--len", "8"): (
        "groups.sample",
        "groups.membership",
    ),
}


def _case_id(argv):
    crosscheck_alone = argv[0] == "crosscheck-sec6" and "--oracle" not in argv
    return argv[0] + "-hat" * ("--hat" in argv) + "-D" * ("D" in argv) + "-no-oracle" * crosscheck_alone


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_traced_child_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "1", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["code"] == 0, record["stderr"]
    assert json.loads(record["stdout"])["command"] == argv[0]
    spans = record["trace"]["spans"]
    assert spans["cli.run"]["calls"] == 1
    assert [span for span in CASES[argv] if not spans[span]["calls"]] == []
