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
from hypothesis import given, settings
from hypothesis import strategies as st

import torelli
from torelli.cli import (
    _FORMAT_ARGUMENT,
    _SUBCOMMANDS,
    SHIPPED_INVOCATIONS,
    _build_parser,
    _read_plain,
    main,
    run,
)


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


@pytest.mark.parametrize("argv", SHIPPED_INVOCATIONS, ids=lambda a: a[0])
def test_shipped_invocations_match_csv_golden(argv):
    code, out, _ = _capture([*argv, "--format", "csv"])
    assert code == 0
    assert out.encode() == (GOLDEN / "csv" / f"{argv[0]}.csv").read_bytes()


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


# -- the plain-request reader, which argparse backs for everything else -----

_PARSER = _build_parser()


def _typed(namespace) -> dict:
    # True == 1, so the types are compared too
    return {k: (type(v), v) for k, v in vars(namespace).items()}


@pytest.mark.parametrize("argv", SHIPPED_INVOCATIONS, ids=lambda a: a[0])
@pytest.mark.parametrize("fmt", [(), ("--format", "csv")], ids=["json", "csv"])
def test_reader_takes_the_shipped_invocations(argv, fmt):
    argv = [*argv, *fmt]
    args = _read_plain(argv)
    assert args is not None
    assert _typed(args) == _typed(_PARSER.parse_args(argv))


def _value(options):
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(0, 40).map(str)
    return st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
        lambda parts: ",".join(map(str, parts))
    )


_HOSTILE = (
    "-1", "", "-", "--", "-h", "--help", "--upto=3", "--up", "1_0", " 4", "+5", "\u0663",
    # outside the choices of --format, --family and invariant-oracle's --type
    "yaml", "E", "theta",
    *sorted({flag for _, _, arguments in _SUBCOMMANDS.values() for flag, _ in arguments}),
)


@st.composite
def _requests(draw) -> list[str]:
    """A valid request: a subcommand's flags in any order, each optional
    one possibly dropped."""
    name = draw(st.sampled_from(list(_SUBCOMMANDS)))
    pairs = []
    for flag, options in (*_SUBCOMMANDS[name][2], _FORMAT_ARGUMENT):
        if options.get("required") or draw(st.booleans()):
            pairs.append([flag] if "action" in options else [flag, draw(_value(options))])
    return [name, *(token for pair in draw(st.permutations(pairs)) for token in pair)]


@st.composite
def _mutated_requests(draw) -> list[str]:
    """A request with up to three tokens inserted, deleted, duplicated or
    replaced by hostile ones."""
    argv = draw(_requests())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "delete", "duplicate", "replace")))
        token = draw(st.sampled_from(_HOSTILE))
        if edit == "insert":
            argv.insert(at, token)
        elif edit == "duplicate":
            argv[at:at] = argv[at:at + 2]  # a flag with its value, say
        elif at < len(argv):
            if edit == "delete":
                del argv[at]
            else:
                argv[at] = token
    return argv


def _agrees_with_argparse(argv) -> None:
    args = _read_plain(argv)
    if args is None:
        return  # argparse's to parse or refuse
    try:
        expected = _PARSER.parse_args(argv)
    except SystemExit:
        pytest.fail(f"the reader takes {argv!r}, which argparse refuses")
    assert _typed(args) == _typed(expected)


def test_reader_agrees_with_argparse_on_each_hostile_token():
    # every hostile token in every place of every shipped request, in place
    # of the token there and before it
    for shipped in SHIPPED_INVOCATIONS:
        for request in (list(shipped), [*shipped, "--format", "csv"]):
            for at in range(len(request) + 1):
                for token in _HOSTILE:
                    _agrees_with_argparse([*request[:at], token, *request[at:]])
                    _agrees_with_argparse([*request[:at], token, *request[at + 1:]])


@settings(max_examples=600, deadline=None)
@given(_mutated_requests())
def test_reader_agrees_with_argparse(argv):
    _agrees_with_argparse(argv)


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
    # the genus and word length of group-sample and the oracle, the rank of
    # lform-check, and the degree and copy count of invariant-oracle
    for argv, named in (
        (["group-sample", "--type", "o", "--g", "30", "--seed", "1", "--len", "3"], "--g 30 is above the cap 10"),
        (["group-sample", "--type", "sp", "--g", "2", "--seed", "1", "--len", "200000"], "--len 200000 is above the cap 1000"),
        (["lform-check", "--g", "500", "--k", "2", "--q", "3"], "--g 500 is above the cap 32"),
        (["invariant-oracle", "--type", "o", "--g", "30", "--degrees", "1", "--deg", "1"], "--g 30 is above the cap 10"),
        (["crosscheck-sec6", "--n", "8", "--g", "30", "--maxdeg", "8", "--oracle"], "--g 30 is above the cap 10"),
        (["invariant-oracle", "--type", "o", "--g", "1", "--degrees", "2,4", "--deg", "200000000"], "--deg 200000000 is above the cap 2000"),
        (["invariant-oracle", "--type", "o", "--g", "1", "--degrees", ",".join(["9"] * 65), "--deg", "1"], "--degrees count 65 is above the cap 64"),
        # the piece and the work are counted before any allocation is listed
        (["invariant-oracle", "--type", "sp", "--g", "1", "--degrees", ",".join(["1"] * 15), "--deg", "12"], "dimension 86493225 > cap 4096"),
        (["invariant-oracle", "--type", "o", "--g", "1", "--degrees", ",".join(["1"] * 15), "--deg", "12"], "orbit-route work 345972900 > cap 2500000"),
        # every crosscheck piece is counted before either series is built;
        # the first above the cap is in degree 114 for n = 9 and 44 for n = 8
        (["crosscheck-sec6", "--n", "9", "--g", "1", "--maxdeg", "5000", "--oracle"], "dimension 4884 > cap 4096"),
        (["crosscheck-sec6", "--n", "8", "--g", "3", "--maxdeg", "5000", "--oracle"], "orbit-route work 5311472 > cap 2500000"),
    ):
        started = time.perf_counter()
        code, out, err = _capture(argv)
        assert time.perf_counter() - started < 0.5
        assert code == 3 and out == ""
        assert named in err
    # the largest sizes below the caps still run; the oracle's 2-dimensional
    # piece sits behind 3^20 prefixes that cannot complete
    for argv in (
        ["group-sample", "--type", "sp", "--g", "2", "--seed", "1", "--len", "1000"],
        ["lform-check", "--g", "32", "--k", "2", "--q", "3"],
        ["invariant-oracle", "--type", "sp", "--g", "1", "--degrees", ",".join(["1"] * 20 + ["1000"]), "--deg", "1000"],
        # neither route caps the symmetric exponent: Sym^26 V at g = 2 and
        # Sym^500 V at g = 1 (3654 and 501 dimensions)
        ["invariant-oracle", "--type", "sp", "--g", "2", "--degrees", "2", "--deg", "52"],
        ["invariant-oracle", "--type", "sp", "--g", "1", "--degrees", "2", "--deg", "1000"],
        # the orbit route has no basis cap either
        ["invariant-oracle", "--type", "o", "--g", "1", "--degrees", "2", "--deg", "2000"],
        ["crosscheck-sec6", "--n", "10", "--g", "1", "--maxdeg", "40", "--oracle"],
        ["crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "36", "--oracle"],
    ):
        started = time.perf_counter()
        code, _, _ = _capture(argv)
        assert time.perf_counter() - started < 1
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


# the environment of a fresh interpreter that imports this source tree
SRC_ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(torelli.__file__).resolve().parents[1]))


def _fresh_interpreter(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_console_script_matches_in_process():
    exe = shutil.which("torelli")
    if exe is None:
        pytest.skip("console script not installed")
    argv = ["mt-series", "--n", "3", "--maxdeg", "4"]
    proc = subprocess.run([exe, *argv], capture_output=True, text=True)
    _, out, _ = _capture(argv)
    assert proc.returncode == 0
    assert proc.stdout == out


def test_cli_import_leaves_heavy_modules_out():
    # numpy is test-side only; dataclasses pulls in inspect, ast, dis and
    # tokenize, which the records do without as named tuples; csv is loaded
    # by --format csv alone
    package = pathlib.Path(torelli.__file__).resolve().parent
    heavy = ("numpy", "dataclasses", "inspect", "csv")
    code = f"import sys, torelli.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _fresh_interpreter(code) == "[]\n"
    assert [p.name for p in package.glob("*.py") if "dataclass" in p.read_text()] == []


def test_plain_requests_leave_argparse_out():
    # argparse, with the gettext and locale its first message loads, is
    # built for help and usage errors only; site may import some of these
    # itself (a .pth file loading shutil, say), so what counts is what the
    # program adds
    code = """
import io, sys
before = set(sys.modules)
def added():
    return [m for m in ("argparse", "gettext", "locale", "shutil") if m in set(sys.modules) - before]
import torelli.cli
after_import = added()
for argv in torelli.cli.SHIPPED_INVOCATIONS:
    for fmt in ((), ("--format", "csv")):
        assert torelli.cli.run([*argv, *fmt], out=io.StringIO()) == 0
after_runs = added()
torelli.cli.run(["l-class", "--help"])  # the help goes to stdout
print(after_import, after_runs, "argparse" in sys.modules)
"""
    assert _fresh_interpreter(code).splitlines()[-1] == "[] [] True"


@pytest.mark.parametrize("argv", SHIPPED_INVOCATIONS, ids=lambda a: a[0])
def test_module_entry_point_matches_golden(argv):
    # `python -m torelli.cli`, each request in its own interpreter, as the
    # console script runs it
    proc = subprocess.run([sys.executable, "-m", "torelli.cli", *argv], capture_output=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{argv[0]}.json").read_bytes()


def test_package_root_loads_no_submodule():
    # each name is imported from the module that defines it; the package
    # root holds only its docstring and version
    code = "import sys, torelli; print(sorted(m for m in sys.modules if m.startswith('torelli.')))"
    assert _fresh_interpreter(code) == "[]\n"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project.get("dependencies", []) == []
