import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

import torelli
from torelli.cli import SHIPPED_INVOCATIONS, main, run


def _capture(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_shipped_matrix_covers_every_subcommand_once():
    assert len(SHIPPED_INVOCATIONS) == 12
    assert len({argv[0] for argv in SHIPPED_INVOCATIONS}) == 12


@pytest.mark.parametrize("argv", SHIPPED_INVOCATIONS, ids=lambda a: a[0])
def test_shipped_invocations_deterministic(argv):
    code1, out1, _ = _capture(argv)
    code2, out2, _ = _capture(argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    envelope = json.loads(out1)
    assert set(envelope) == {"command", "parameters", "table", "provenance"}
    assert envelope["command"] == argv[0]
    assert isinstance(envelope["table"], list)
    assert envelope["provenance"]
    # canonical form: re-serializing with sorted keys reproduces the bytes
    assert (
        json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n" == out1
    )


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv", SHIPPED_INVOCATIONS, ids=lambda a: a[0])
def test_shipped_invocations_match_golden(argv):
    code, out, _ = _capture(argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{argv[0]}.json").read_bytes()


# argparse output, pinned while every run built the parser for all the
# subcommands: help on stdout, usage errors on stderr
USAGE_GOLDEN = {
    ("--help",): "torelli.txt",
    **{(argv[0], "--help"): f"{argv[0]}.txt" for argv in SHIPPED_INVOCATIONS},
    (): "error-empty.txt",
    ("no-such-command",): "error-unknown.txt",
    ("l-class",): "error-missing.txt",
    ("l-class", "--upto", "3", "--bogus"): "error-unrecognized.txt",
}


@pytest.mark.parametrize("argv", USAGE_GOLDEN, ids=lambda a: " ".join(a) or "empty")
def test_usage_output_matches_golden(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == (0 if "--help" in argv else 2)
    shown = captured.out if code == 0 else captured.err
    assert shown.encode() == (GOLDEN / "usage" / USAGE_GOLDEN[argv]).read_bytes()


# sha256 of the stdout of the series benchmark argvs, pinned while every
# series was still built by one convolution pass per generator
SERIES_DIGESTS = {
    ("theoremB-series", "--n", "340", "--maxdeg", "1000"):
        "221e2c35c79318ef6ff142c4497b9ec78450afb4e90086503e6a08bd8c064636",
    ("crosscheck-sec6", "--n", "340", "--g", "2", "--maxdeg", "900"):
        "2cb59a1b4088fdb8b131f772be4bf2288c9ce94ee22ce66f6af45c2ed4fc6aed",
    ("torelli-series", "--n", "24", "--maxdeg", "220"):
        "4c4a204b3f6fe900ce9d01976f351266c553f77ad7dc0623b687fdc5a7ef02ed",
    ("torelli-series", "--n", "20", "--maxdeg", "180"):
        "0aeb6e766df4a1f0fbbe1e069161910d3001c09757100335cfa95d640e309502",
    ("mt-series", "--n", "24", "--maxdeg", "220"):
        "1105cd9cfd52395b93c82e704c55020ed6818067e5e62936619b83e31551dd68",
    ("mt-series", "--n", "40", "--maxdeg", "400"):
        "70cad2f082850dc642f6704086e54d72c4cc9eb7d35c065c1065db48cc5e3eea",
}


@pytest.mark.parametrize("argv", SERIES_DIGESTS, ids=" ".join)
def test_series_outputs_match_digests(argv):
    code, out, _ = _capture(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_DIGESTS[argv]


def test_stable_range_golden():
    _, out, _ = _capture(["stable-range", "--g", "25", "--n", "23"])
    assert out == (
        '{"command":"stable-range","parameters":{"g":25,"n":23},'
        '"provenance":["cohomological-stability-range"],"table":[{"C":11}]}\n'
    )


def test_stable_range_outside():
    _, out, _ = _capture(["stable-range", "--g", "3", "--n", "3"])
    table = json.loads(out)["table"]
    assert table == [{"C": None, "note": "outside stable range"}]


def test_mt_series_golden():
    _, out, _ = _capture(["mt-series", "--n", "3", "--maxdeg", "4"])
    envelope = json.loads(out)
    assert [r["coefficient"] for r in envelope["table"]] == [1, 0, 2, 0, 4]


def test_borel_constant_golden():
    _, out, _ = _capture(
        ["borel-constant", "--family", "C", "--g", "2", "--k", "0", "--qmax", "4"]
    )
    assert json.loads(out)["table"] == [
        {"bound": 1, "bound_met": True, "c": 1, "capped": False}
    ]


def test_rationals_render_as_num_den():
    _, out, _ = _capture(["l-class", "--upto", "1"])
    table = json.loads(out)["table"]
    assert table[0]["class"] == "1/1"
    assert table[1]["class"] == "1/3*p_1"


def test_csv_output():
    _, out, _ = _capture(["lform-check", "--g", "6", "--k", "2", "--q", "3", "--format", "csv"])
    assert out == "holds\ntrue\n"
    _, out, _ = _capture(["mt-series", "--n", "3", "--maxdeg", "2", "--format", "csv"])
    assert out == "coefficient,degree\n1,0\n0,1\n2,2\n"


def test_csv_none_renders_empty():
    _, out, _ = _capture(["stable-range", "--g", "3", "--n", "3", "--format", "csv"])
    assert out == "C,note\n,outside stable range\n"


def test_quad_refine_modulus():
    _, out, _ = _capture(["quad-refine", "--n", "5", "--vector", "1,2,3,4"])
    assert json.loads(out)["table"] == [{"modulus": "2Z", "q": 1}]
    _, out, _ = _capture(["quad-refine", "--n", "2", "--vector", "1,2,3,4"])
    assert json.loads(out)["table"] == [{"modulus": "0", "q": 11}]


def test_group_sample_rows_form_the_matrix():
    _, out, _ = _capture(
        ["group-sample", "--type", "sp", "--g", "2", "--seed", "7", "--len", "10"]
    )
    table = json.loads(out)["table"]
    rows = [[int(x) for x in r["entries"].split()] for r in table]
    assert rows == [[-1, 2, -3, 0], [0, 1, 0, 0], [-1, 4, -4, 0], [-2, 3, -4, 1]]


def test_argument_errors_exit_2():
    code, out, _ = _capture(["stable-range", "--g", "25"])
    assert code == 2 and out == ""
    code, _, _ = _capture(["no-such-command"])
    assert code == 2
    code, _, _ = _capture(["mt-series", "--n", "x", "--maxdeg", "4"])
    assert code == 2


def test_range_errors_exit_3():
    code, out, err = _capture(["crosscheck-sec6", "--n", "3", "--g", "2", "--maxdeg", "6"])
    assert code == 3 and out == ""
    assert "n >= 8" in err
    code, _, err = _capture(
        ["invariant-oracle", "--type", "sp", "--g", "3", "--degrees", "2", "--deg", "30", "--seed", "1"]
    )
    assert code == 3
    assert "cap" in err


def test_cost_caps_exit_3_before_any_work():
    for argv in (["l-class", "--upto", "1000000"], ["p-from-l", "--upto", "1000000"]):
        started = time.perf_counter()
        code, out, err = _capture(argv)
        assert time.perf_counter() - started < 0.5
        assert code == 3 and out == ""
        assert "1000000" in err and "cap 12" in err
    # the largest indices below the cap still run
    code, _, _ = _capture(["p-from-l", "--upto", "12"])
    assert code == 0
    code, out, err = _capture(
        ["borel-constant", "--family", "C", "--g", "1000000", "--k", "0", "--qmax", "1"]
    )
    assert code == 3 and out == ""
    assert "1000000" in err and "cap 32" in err
    # g * (qmax + 1) * weights = 20 * 18 * 10720, refused before the weights
    # are listed; at k = 2 the same rank and degree run
    code, out, err = _capture(
        ["borel-constant", "--family", "C", "--g", "20", "--k", "3", "--qmax", "17"]
    )
    assert code == 3 and out == ""
    assert str(20 * 18 * 10720) in err and "cap 500000" in err
    code, _, err = _capture(
        ["borel-constant", "--family", "C", "--g", "4", "--k", "1000000", "--qmax", "1"]
    )
    assert code == 3 and "cap 500000" in err
    # the series commands cap maxdeg + 2n, crosscheck-sec6 with or without
    # the oracle
    for argv, size in (
        (["mt-series", "--n", "1000000", "--maxdeg", "4"], 2000004),
        (["torelli-series", "--n", "4", "--maxdeg", "1000000"], 1000008),
        (["theoremB-series", "--n", "2000", "--maxdeg", "2001"], 6001),
        (["crosscheck-sec6", "--n", "1000000", "--g", "2", "--maxdeg", "4"], 2000004),
        (["crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "6000", "--oracle"], 6016),
    ):
        started = time.perf_counter()
        code, out, err = _capture(argv)
        assert time.perf_counter() - started < 0.5
        assert code == 3 and out == ""
        assert f"= {size} is above the cap 6000" in err
    for argv in (
        ["mt-series", "--n", "2999", "--maxdeg", "2"],
        ["theoremB-series", "--n", "2000", "--maxdeg", "2000"],
    ):
        code, _, _ = _capture(argv)
        assert code == 0


def test_oracle_seed_defaults_to_zero():
    argv = ["invariant-oracle", "--type", "sp", "--g", "1", "--degrees", "1,3", "--deg", "4"]
    code, out, _ = _capture(argv)
    assert code == 0
    assert (code, out) == _capture(argv + ["--seed", "0"])[:2]


def test_vector_parse_error_exits_3():
    code, _, err = _capture(["quad-refine", "--n", "5", "--vector", "1,x"])
    assert code == 3
    assert "integer list" in err


def test_main_returns_exit_code():
    assert main(["stable-range", "--g", "25", "--n", "23"]) == 0


def test_console_script_matches_in_process():
    exe = shutil.which("torelli")
    if exe is None:
        pytest.skip("console script not installed")
    argv = ["mt-series", "--n", "3", "--maxdeg", "4"]
    proc = subprocess.run([exe, *argv], capture_output=True, text=True)
    _, out, _ = _capture(argv)
    assert proc.returncode == 0
    assert proc.stdout == out


def test_import_loads_no_numpy():
    src = str(pathlib.Path(torelli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, torelli.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project.get("dependencies", []) == []
