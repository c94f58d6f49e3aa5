import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

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
