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

# argv -> a span the job must enter
CASES = {
    ("l-class", "--upto", "3"): "lclasses.sequence",
    ("p-from-l", "--upto", "3"): "graded.poly_mul",
    ("theoremB-series", "--n", "8", "--maxdeg", "12"): "mt.series",
    ("invariant-oracle", "--type", "sp", "--g", "1", "--degrees", "1,3", "--deg", "4"): "invariants.oracle",
}


@pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
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
    assert spans[CASES[argv]]["calls"] >= 1
