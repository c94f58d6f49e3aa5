import csv
import hashlib
import io
import itertools
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torelli
from torelli import groups, invariants
from torelli.cli import (
    _FORMAT_ARGUMENT,
    _SUBCOMMANDS,
    SHIPPED_INVOCATIONS,
    _build_parser,
    _emit,
    _read_plain,
    main,
    run,
)


def _capture(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _assert_keys_in_order(out):
    """The envelope, its parameters and every table row (or the CSV header)
    come out with their keys sorted: run builds the envelope and its
    parameters in that order and _emit orders the table's columns, since
    the encoder does not sort."""
    if out.startswith("{"):
        envelope = json.loads(out)
        keyed = [envelope, envelope["parameters"], *envelope["table"]]
    else:
        keyed = [out.split("\n", 1)[0].split(",")]
    assert all(list(keys) == sorted(keys) for keys in keyed)


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
    _assert_keys_in_order(out1)


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


def _flag_groups(argv):
    """The flags of a request, each with the value that follows it."""
    groups = []
    for token in argv[1:]:
        if token.startswith("--"):
            groups.append([token])
        else:
            groups[-1].append(token)
    return groups


def _reversed_flags(argv):
    return [argv[0], *(token for group in reversed(_flag_groups(argv)) for token in group)]


def _equals_spelling(argv):
    return [argv[0], *("=".join(group) for group in _flag_groups(argv))]


# the parameters come out in key order however the flags are given: read
# plainly with the flags reversed, and by argparse from "--flag=value"
@pytest.mark.parametrize("argv", SHIPPED_INVOCATIONS, ids=lambda a: a[0])
@pytest.mark.parametrize("respell", [_reversed_flags, _equals_spelling])
def test_respelled_invocations_match_golden(argv, respell):
    for fmt, golden in (((), f"{argv[0]}.json"), (("--format", "csv"), f"csv/{argv[0]}.csv")):
        request = respell([*argv, *fmt])
        assert (_read_plain(request) is None) == (respell is _equals_spelling)
        code, out, _ = _capture(request)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()


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


def test_every_argument_is_plain():
    # _read_plain understands these options and no other; a flag with any
    # other would be read wrong instead of going to argparse
    plain = {"type", "required", "help", "choices", "default", "action"}
    for name, (_, _, arguments) in _SUBCOMMANDS.items():
        for flag, options in (*arguments, _FORMAT_ARGUMENT):
            assert options.keys() <= plain, (name, flag)
            assert options.get("action", "store_true") == "store_true", (name, flag)


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
    # the requests at the series cap, whose Euler transforms split the most
    ("mt-series", "--n", "7", "--maxdeg", "5986"):
        "96131d9bdee2236edeb797acb85146bfbb48e82d0c21178911eb3e8913ea79e0",
    ("torelli-series", "--n", "7", "--maxdeg", "5986"):
        "3d68d333ad1a3e37578de9c3adb0ac50e5a1f1487bf31634518600d3c414d34b",
    ("theoremB-series", "--n", "8", "--maxdeg", "5984"):
        "a1cfff5bfd666fd86bbe1335cf5ae051662701fd600f816ad9c5844b6f698b5c",
    ("crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "5984"):
        "4b6530e0000d20c1bdd136c083346be0252b0b3e45070d3e4603cf0e82e454bd",
    # the two largest series benchmark argvs in CSV, pinned while the
    # encoder still sorted the keys
    ("theoremB-series", "--n", "340", "--maxdeg", "1000", "--format", "csv"):
        "c8243e7826ba7255edd130935fddff52a3bc55a2139908cc9b1dff7c57442156",
    ("crosscheck-sec6", "--n", "340", "--g", "2", "--maxdeg", "900", "--format", "csv"):
        "63866062f2323c58a2956ec867de9472a0cf10fc519efb91e386b49bee05b414",
}


@pytest.mark.parametrize("argv", SERIES_DIGESTS, ids=" ".join)
def test_series_outputs_match_digests(argv):
    code, out, _ = _capture(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_DIGESTS[argv]
    _assert_keys_in_order(out)


# sha256 of the stdout of every L-class request up to the cap, pinned while
# the coefficients, the log derivative and the scalars were still Fractions
CLASS_DIGESTS = {
    ("l-class", "--upto", "0"):
        "4867050c350fd7e95cc976923ac67d6ad4f0c256f5431c9314dec382db571e18",
    ("l-class", "--upto", "1"):
        "f1639b81d76585c71231588b12f2ae93e6207e8da8864ab59027b29ec623562c",
    ("l-class", "--upto", "2"):
        "6392fbccdb643c0a8533a7da63aa1af5b93be53a733de63d485fda26b9ccb941",
    ("l-class", "--upto", "3"):
        "19d830f3e06fbe8666a974a752e60fb1f5d926f625818a1af75070fbe3af434e",
    ("l-class", "--upto", "4"):
        "5a681973cabb9d2bb815a4bc6a100ed0c13eb8d9acec1aa3f1b47eb2121de94c",
    ("l-class", "--upto", "5"):
        "3821e0826af3fd0094a5f089b70504159bfb05e866c556f33e4abce813ed9f39",
    ("l-class", "--upto", "6"):
        "1686140c2a61aae47887328ce0bb2d200d32f0349182c665d42bf84d097917c0",
    ("l-class", "--upto", "7"):
        "7bf567e8fd920b41c14f0cf880cf69c94e1dc3c70e4ade359135afde5c948087",
    ("l-class", "--upto", "8"):
        "f8afee28c3e98b23455563b7aa915a326f3a44f8beba0a8452683881bc523868",
    ("l-class", "--upto", "9"):
        "17fb6853a8030621c8162f34699b587f8543492264b638ad72baa8b42f33cd69",
    ("l-class", "--upto", "10"):
        "0609d86be478be5ba3abf54c211f2de257e6f49461ed653257f6c58e946f8e08",
    ("l-class", "--upto", "11"):
        "a4c5b870f64430c1f01b08208f8217b6f0144fc2be0f6322110accdcfb437897",
    ("l-class", "--upto", "12"):
        "f5666e7c3d80760f15a3acf9aab73b527ed41685b6af6dfce3822fcccb3af25a",
    ("l-class", "--upto", "0", "--hat"):
        "1d3b10d6f68920e20843209472ff28cb100e9b03ecafcbe293dda5edd2d98970",
    ("l-class", "--upto", "1", "--hat"):
        "5528e63c8529642924e9344d62713c64d275a74f22bb39c82f2b97ce45cddf82",
    ("l-class", "--upto", "2", "--hat"):
        "b4ea33d981fdbda9a7b766c4db025f813149f73e62147d3ae787da021e10461b",
    ("l-class", "--upto", "3", "--hat"):
        "708aed5987c23fd146ab12e6e2b5d3e0f88d27092dda0844b3fe7ec27ba7b9d3",
    ("l-class", "--upto", "4", "--hat"):
        "edf05526eb1303273bdbec089fa4ab0d45cb15530199ccae939798c8bf14cbff",
    ("l-class", "--upto", "5", "--hat"):
        "1d514880afbdd09c27d0b9a55157bdc59a032c7cd5d90482531aed0b1beb9c2e",
    ("l-class", "--upto", "6", "--hat"):
        "d7a90b55443495ad1cd8b64667ecb7d45a792f4b7703e84c57d8d83f2eac977e",
    ("l-class", "--upto", "7", "--hat"):
        "1c6e3ccd67ad6dcb8e9c9952ffc9255f4770dd86fd04eaf04293606cc4778a36",
    ("l-class", "--upto", "8", "--hat"):
        "f3f637154b5f25822b29f61b092c24233b78f500c537f34ed4d43b6aa6b5854f",
    ("l-class", "--upto", "9", "--hat"):
        "75684a0095cfb16c6e98b9ccda6812d52dab8aea6a1f35f3d7d8593eace5e886",
    ("l-class", "--upto", "10", "--hat"):
        "015480b9576ee62053599afe111535ad616cb3d02a0f2a776e2fec5b7a2d7a8a",
    ("l-class", "--upto", "11", "--hat"):
        "ec0c51e8aabe1d39ebbe4e25279083eaaf673b9ea54ef634b14c717e33c05f6d",
    ("l-class", "--upto", "12", "--hat"):
        "daad2cc195796ac34c68f83d58afb843dff778cde15c6de79226fb78c86cb1d0",
    ("p-from-l", "--upto", "1"):
        "8fc471574de8b57ac55ecd8a8e379818e45a9d7161e05c36adc9032a43dc4d0e",
    ("p-from-l", "--upto", "2"):
        "369b7589d627ae84e00bc877b7edb605b6a56b17efb9beb2c784e830d8744d17",
    ("p-from-l", "--upto", "3"):
        "8d7cebe9778eb4d14715d49da58917e2c58732496a9506836f42bc2d401c326c",
    ("p-from-l", "--upto", "4"):
        "7651d59e92c88b603cdbd0838518914c721109439a7c7c252d516033e15550ae",
    ("p-from-l", "--upto", "5"):
        "b3737b367a2dded43c99f3735863236771200c7e33b2fbaa5a4b55c5410003d5",
    ("p-from-l", "--upto", "6"):
        "24eedf5ddab97cd38e60ea5e39f7d6e3c6b6d3a88a834f73e126389a4b22d828",
    ("p-from-l", "--upto", "7"):
        "d79b4604a97ab848ef4edd393c17c05a7590f3e366ed597ae17e38d7c49b5ea4",
    ("p-from-l", "--upto", "8"):
        "52542d9dae4f73d22511ff47e41aea66cc043affb39f4a3bc486e517f813be14",
    ("p-from-l", "--upto", "9"):
        "f6f08049159cdf05c8bec122f45318675245369d487e7bb4d3b7b9cf8e3d7160",
    ("p-from-l", "--upto", "10"):
        "30ad9919213bb06e86ec4447497f55cf70be82ac1d4728ec15edbb3913510054",
    ("p-from-l", "--upto", "11"):
        "2c4fab90616a0009e91ed39e242dff34d44430c16c059b3050512f0d22324d0d",
    ("p-from-l", "--upto", "12"):
        "4bd0d6bc04ed75abc32258070fa37adb466c82fdd53bdba91a3a3671e2274ab8",
    ("l-class", "--upto", "0", "--format", "csv"):
        "5e114498a45681c69be9c550c2c4482ad8009839ebc0d7f93366b89cf8b095b6",
    ("l-class", "--upto", "1", "--format", "csv"):
        "ee6262dc815a3a5668ca223e6a010a7fe2c5eebcdff4e441f9aea449c8d6bf69",
    ("l-class", "--upto", "2", "--format", "csv"):
        "dd5c87cae21f69c6faf000e0790145e11f00adb807959391af8781c6f63f15b7",
    ("l-class", "--upto", "3", "--format", "csv"):
        "2ee13e9ff4f6c1611f8ed48b7d7eb16c6743ce345d5c1ec6c18a459439feb1a5",
    ("l-class", "--upto", "4", "--format", "csv"):
        "98f7e07de7e035eece8fbc41b0c31047f57c33c8fe9c3d738d18fd342ebe95a9",
    ("l-class", "--upto", "5", "--format", "csv"):
        "6ac169ea3b4a73fe89f68f7b094c445c75e174166162a2f3048dce8524cdf078",
    ("l-class", "--upto", "6", "--format", "csv"):
        "781ce032a496707acc70dfcec1145d76a381c91957fb17fdbe5edab40cf19da6",
    ("l-class", "--upto", "7", "--format", "csv"):
        "9ec5738ff9cfaec264689f2601c12791286bd13a05d47ab637a3945254fe7169",
    ("l-class", "--upto", "8", "--format", "csv"):
        "7301e392ae69079dfd8c886101db914b8431414d4dc6f8fbb55c52a5de4eac6a",
    ("l-class", "--upto", "9", "--format", "csv"):
        "5b931aa85195b70eef4e1b556bd1d69edb7dbad96d8441fb20e0456fc7b9dd75",
    ("l-class", "--upto", "10", "--format", "csv"):
        "77a1fe3fe4bf0877629de225324389d4e12d98236ce649178d0df7c56ff61394",
    ("l-class", "--upto", "11", "--format", "csv"):
        "2af9becde909a11ff9ae9fb0da35875d9500187be106b8b93701b6c010419944",
    ("l-class", "--upto", "12", "--format", "csv"):
        "31ebec6dba2320913e79186fbdd2948a26c6b44c35e56daaea014f2aeedd96f7",
    ("l-class", "--upto", "0", "--hat", "--format", "csv"):
        "5e114498a45681c69be9c550c2c4482ad8009839ebc0d7f93366b89cf8b095b6",
    ("l-class", "--upto", "1", "--hat", "--format", "csv"):
        "22e8fbbdd3db7a218154e3b2a013ff38341f3fee6148a247e2ee1dc0107565a9",
    ("l-class", "--upto", "2", "--hat", "--format", "csv"):
        "87c8ac02303ee7da71278a3c4448c7e5f99ba74a2ede2a71cec91929a3487569",
    ("l-class", "--upto", "3", "--hat", "--format", "csv"):
        "1201249d93cee20446c7599c23066832c09a82396303cf718276c918720777f6",
    ("l-class", "--upto", "4", "--hat", "--format", "csv"):
        "82f8737d5a1391b8cb60a5c080f6b3f4f896848ccb4ef29c1e50212e30f6ffd0",
    ("l-class", "--upto", "5", "--hat", "--format", "csv"):
        "e6c3dd4e24afa03e4b330afd72c3b786011992c6b5f699c1a264f6498277d8e3",
    ("l-class", "--upto", "6", "--hat", "--format", "csv"):
        "07c42d1fdad1e441211916b96e31d59d6aefaed0e68570b2fbc420a81614e20b",
    ("l-class", "--upto", "7", "--hat", "--format", "csv"):
        "e0383d64b80be9c7b0291ed9eae2cf9e0bdcb43072e7f1765c79b668e42bef8a",
    ("l-class", "--upto", "8", "--hat", "--format", "csv"):
        "67087d62020715e36a0700dbb766b1458ab753e944bff528048ab7fee00ed384",
    ("l-class", "--upto", "9", "--hat", "--format", "csv"):
        "19d6b6de2d2a6f009c9f4b6b2bddc095a0a1e01d6d7b651d8a595aa200a51949",
    ("l-class", "--upto", "10", "--hat", "--format", "csv"):
        "4a2062606787ae7c48ba51ff9acbab284bfaf5173038137fbba8c028d5df612e",
    ("l-class", "--upto", "11", "--hat", "--format", "csv"):
        "8e4465e3619decf46111fadaec4458638cd88a7008b48724641ce6258c06ee95",
    ("l-class", "--upto", "12", "--hat", "--format", "csv"):
        "d0053dd7942ef8fcb9f94f16629973e2b69d0db40cd775140cd8c0674e2672cc",
    ("p-from-l", "--upto", "1", "--format", "csv"):
        "456ee2eff4da28e604567ce39ec93ab898b8a85d4d5dda4a2f1cdab08c657f67",
    ("p-from-l", "--upto", "2", "--format", "csv"):
        "25d6bd0f6b65cec6927ab133c15c7e7a827660771233519aa449a9fb3755e7a8",
    ("p-from-l", "--upto", "3", "--format", "csv"):
        "5818b8c6a0d3eb681ee5babfe0f74186677221907abd5873a51d8e2629396c35",
    ("p-from-l", "--upto", "4", "--format", "csv"):
        "793066119f7cafeb52058a8e127024e3682780aa598a7a77ae17735190e958ba",
    ("p-from-l", "--upto", "5", "--format", "csv"):
        "42affe1d4632f99ff925185254955076a7d73a10a1df4cc0dd2c7faaac3ff3dd",
    ("p-from-l", "--upto", "6", "--format", "csv"):
        "84f50f439b7f684e115610cbbc46edd0c9ee230304a71ce53b9dc1eb95f9f9d0",
    ("p-from-l", "--upto", "7", "--format", "csv"):
        "5a9c588224b6382c1b98d77fc5def412c4d155088bcbc47d8ff6cac48fa4203d",
    ("p-from-l", "--upto", "8", "--format", "csv"):
        "f1ca42731cb6d32e8265419c53824195ec46a8675b354664e8b46518adf467c3",
    ("p-from-l", "--upto", "9", "--format", "csv"):
        "895992c9b15a3458561c3338f784c2cef99f88a3d543cd75d8120e35fd8956df",
    ("p-from-l", "--upto", "10", "--format", "csv"):
        "5cda947ca9c57bc5f3f572962cc421b72780ad1e3dd7e43880ddb974b990b25c",
    ("p-from-l", "--upto", "11", "--format", "csv"):
        "e75251bb08500195c3438263f2c15f59711d5ceba500088e6ac6ccaf53a70cfa",
    ("p-from-l", "--upto", "12", "--format", "csv"):
        "a65ad7d894bba37a0d23a652cd0d4f768ef150768117cb1f7cfe520fe276cd60",
}


@pytest.mark.parametrize("argv", CLASS_DIGESTS, ids=" ".join)
def test_class_outputs_match_digests(argv):
    code, out, _ = _capture(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASS_DIGESTS[argv]
    _assert_keys_in_order(out)


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
    _assert_keys_in_order(out)


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


def _reference_emit(envelope, fmt, out):
    """Reference renderer: a table of row dicts, each keyed in output order,
    inside the envelope; JSON by one json.dumps, CSV one row at a time."""
    if fmt == "json":
        out.write(json.dumps(envelope, separators=(",", ":"), check_circular=False))
        out.write("\n")
        return
    rows = envelope["table"]
    columns = list(rows[0]) if rows else []
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_reference_cell(row.get(col)) for col in columns])


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# strings with the characters the one-call encoding must survive: a comma in
# a key or a cell sends the table to the cell-by-cell route
_TEXT = st.text(alphabet=st.sampled_from(',"\\ a1é€\n') | st.characters(), max_size=8)
_CELLS = (
    st.integers(-(2**80), 2**80),
    st.booleans() | st.none(),
    _TEXT,
    st.integers(-(2**80), 2**80) | st.booleans() | st.none() | _TEXT,
)


@st.composite
def _column_tables(draw):
    names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True))
    rows = draw(st.integers(1, 60))
    table = {}
    for name in names:
        kind = draw(st.integers(0, len(_CELLS)))
        if kind == len(_CELLS):
            start = draw(st.integers(-5, 5))
            table[name] = range(start, start + rows)
        else:
            cells = draw(st.lists(_CELLS[kind], min_size=rows, max_size=rows))
            table[name] = cells if draw(st.booleans()) else tuple(cells)
    return table


@settings(max_examples=100, deadline=None)
@given(_column_tables())
@example({"b": ["x,y", ""], "a": (2**64, -1)})
def test_emit_matches_the_row_dict_reference(table):
    envelope = {"command": "c", "parameters": {"n": 1}, "provenance": ["p"]}
    rows = len(next(iter(table.values())))
    reference = [{name: table[name][i] for name in sorted(table)} for i in range(rows)]
    for fmt in ("json", "csv"):
        out, expected = io.StringIO(), io.StringIO()
        _emit(envelope, table, fmt, out)
        _reference_emit({**envelope, "table": reference}, fmt, expected)
        assert out.getvalue() == expected.getvalue()


# one request per series subcommand near SERIES_CAP, and the largest
# crosscheck the benchmark runs
BIG_TABLES = (
    ("mt-series", "--n", "7", "--maxdeg", "5986"),
    ("torelli-series", "--n", "7", "--maxdeg", "5986"),
    ("theoremB-series", "--n", "8", "--maxdeg", "5984"),
    ("crosscheck-sec6", "--n", "340", "--g", "2", "--maxdeg", "900"),
)


@pytest.mark.parametrize("argv", BIG_TABLES, ids=lambda a: a[0])
def test_big_tables_match_a_sorting_encoder(argv):
    maxdeg = int(argv[argv.index("--maxdeg") + 1])
    code, out, _ = _capture(argv)
    assert code == 0
    envelope = json.loads(out)
    assert len(envelope["table"]) == maxdeg + 1
    assert json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n" == out
    code, out, _ = _capture([*argv, "--format", "csv"])
    assert code == 0
    assert out.count("\n") == maxdeg + 2


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
        ["invariant-oracle", "--type", "sp", "--g", "3", "--degrees", "2", "--deg", "40", "--seed", "1"]
    )
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--g", "0", "need g >= 1 and max_degree >= 0"),
        ("--n", "7", "the comparison window needs n >= 8"),
        ("--maxdeg", "-1", "need g >= 1 and max_degree >= 0"),
    ],
)
@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["ring", "oracle"])
def test_crosscheck_argument_errors_exit_3(flag, value, message, oracle):
    request = {"--n": "8", "--g": "2", "--maxdeg": "8", flag: value}
    argv = ["crosscheck-sec6", *itertools.chain(*request.items()), *oracle]
    assert _capture(argv) == (3, "", f"error: {message}\n")


def test_borel_sizes_are_checked_before_the_root_system(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the root system was built")

    monkeypatch.setattr(torelli.cli, "root_system", unreachable)
    for flag, message in (("--k", "--k must be nonnegative"), ("--qmax", "--qmax must be nonnegative")):
        request = {"--family": "D", "--g": "5", "--k": "1", "--qmax": "3", flag: "-1"}
        argv = ["borel-constant", *itertools.chain(*request.items())]
        assert _capture(argv) == (3, "", f"error: {message}\n")


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
    # no weight of the tensor power is listed, so the rank alone bounds the
    # work: requests that a cap on the weight count once refused now run
    for argv, row in (
        (["--g", "20", "--k", "3", "--qmax", "17"], {"bound": 16, "bound_met": True, "c": 16, "capped": False}),
        (["--g", "4", "--k", "1000000", "--qmax", "1"], {"bound": -999997, "bound_met": False, "c": None, "capped": False}),
    ):
        started = time.perf_counter()
        code, out, _ = _capture(["borel-constant", "--family", "C", *argv])
        assert time.perf_counter() - started < 0.5
        assert code == 0 and json.loads(out)["table"] == [row]
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
        (["borel-constant", "--family", "C", "--g", "6", "--k", "14", "--qmax", "-1"], "--qmax must be nonnegative"),
        (["crosscheck-sec6", "--n", "8", "--g", "30", "--maxdeg", "8", "--oracle"], "--g 30 is above the cap 10"),
        (["invariant-oracle", "--type", "o", "--g", "1", "--degrees", "2,4", "--deg", "200000000"], "--deg 200000000 is above the cap 2000"),
        (["invariant-oracle", "--type", "o", "--g", "1", "--degrees", ",".join(["9"] * 65), "--deg", "1"], "--degrees count 65 is above the cap 64"),
        # the piece and the work are counted before any allocation is listed
        (["invariant-oracle", "--type", "sp", "--g", "1", "--degrees", ",".join(["1"] * 15), "--deg", "12"], "orbit-route work 6227512200 > cap 2500000"),
        (["invariant-oracle", "--type", "o", "--g", "1", "--degrees", ",".join(["1"] * 15), "--deg", "12"], "orbit-route work 345972900 > cap 2500000"),
        # every crosscheck piece is counted before either series is built;
        # the first above the cap is in degree 16 for n = 9 at g = 10, 44
        # for n = 8 at g = 3 (24 times 178794 dimensions) and 36 for n = 8
        # at g = 4 (40 times 164560)
        (["crosscheck-sec6", "--n", "9", "--g", "10", "--maxdeg", "5000", "--oracle"], "orbit-route work 3283200 > cap 2500000"),
        (["crosscheck-sec6", "--n", "8", "--g", "3", "--maxdeg", "5000", "--oracle"], "orbit-route work 4291056 > cap 2500000"),
        (["crosscheck-sec6", "--n", "8", "--g", "4", "--maxdeg", "36", "--oracle"], "orbit-route work 6582400 > cap 2500000"),
        # and so is the orbit-route work summed over the pieces of a request
        (["crosscheck-sec6", "--n", "10", "--g", "1", "--maxdeg", "99", "--oracle"], "orbit-route work 13196312 summed up to degree 99 > cap 5000000"),
        (["crosscheck-sec6", "--n", "10", "--g", "2", "--maxdeg", "42", "--oracle"], "orbit-route work 6287256 summed up to degree 42 > cap 5000000"),
        # and on the symplectic side
        (["crosscheck-sec6", "--n", "9", "--g", "1", "--maxdeg", "114", "--oracle"], "orbit-route work 5063112 summed up to degree 114 > cap 5000000"),
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
        # nor the dimension: Lambda^4 V at g = 10 (4845 dimensions) and
        # Sym^1000 V at g = 1 are inside the work cap
        ["invariant-oracle", "--type", "sp", "--g", "10", "--degrees", "1", "--deg", "4"],
        ["invariant-oracle", "--type", "o", "--g", "1", "--degrees", "2", "--deg", "2000"],
        ["crosscheck-sec6", "--n", "10", "--g", "1", "--maxdeg", "40", "--oracle"],
        ["crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "36", "--oracle"],
        # the largest at n = 10, g = 2 and at n = 8, g = 4
        ["crosscheck-sec6", "--n", "10", "--g", "2", "--maxdeg", "41", "--oracle"],
        ["crosscheck-sec6", "--n", "8", "--g", "4", "--maxdeg", "35", "--oracle"],
    ):
        _clear_oracle_caches()
        started = time.perf_counter()
        code, _, _ = _capture(argv)
        assert time.perf_counter() - started < 1
        assert code == 0


def _clear_oracle_caches():
    """Forget what the oracle keeps across requests, so that a timed request
    runs cold whatever ran before it."""
    for cached in (
        invariants._oracle_setup,
        invariants._exponent_vectors,
        invariants._weights,
        groups.listed_generators,
        groups.monomial_moves,
    ):
        cached.cache_clear()
    invariants._TABLES.clear()


def _oracle_sweep():
    """Oracle requests of both kinds, crosschecks and single pieces, from
    the trivial to the slowest accepted orthogonal request."""
    requests = [
        ["crosscheck-sec6", "--n", str(n), "--g", str(g), "--maxdeg", "40", "--oracle"]
        for n in range(8, 12)
        for g in (1, 2, 3)
    ]
    requests += [
        ["invariant-oracle", "--type", kind, "--g", str(g), "--degrees", degrees, "--deg", str(deg)]
        for kind in ("sp", "o")
        for g in range(1, 5)
        for degrees in ("1", "2", "1,3", "2,4", "1,2", "2,3,4")
        for deg in (2, 3, 4, 6, 8)
    ]
    return requests + [
        argv.split()
        for argv in (
            "invariant-oracle --type o --g 2 --degrees 2 --deg 88",
            "invariant-oracle --type sp --g 9 --degrees 1 --deg 4",
            "invariant-oracle --type o --g 1 --degrees 2,4 --deg 40",
            "invariant-oracle --type o --g 1 --degrees 1,3,9,27 --deg 40",
            "crosscheck-sec6 --n 8 --g 1 --maxdeg 115 --oracle",
            "invariant-oracle --type sp --g 1 --degrees 1,3,9,27,81,243 --deg 364",
        )
    ]


# the two sweep requests whose verdict moved when the orthogonal work became
# a unit per piece element, without the count of the images under s
ORACLE_SWEEP_MOVED = (
    ("crosscheck-sec6", "--n", "10", "--g", "2", "--maxdeg", "40", "--oracle"),
    ("crosscheck-sec6", "--n", "10", "--g", "3", "--maxdeg", "40", "--oracle"),
)
# the sha256 of (argv, exit code, stdout, stderr) over the other 256, as the
# oracle printed them before that change
ORACLE_SWEEP_SHA256 = "285489b4fb9f5079012e56425e144f8b930e96290acd5ccbac3aa378b9a589bf"


def test_oracle_sweep_bytes():
    requests = _oracle_sweep()
    assert len(requests) == 258
    digest = hashlib.sha256()
    for argv in requests:
        code, out, err = _capture(argv)
        if code == 0:
            _assert_keys_in_order(out)
        if tuple(argv) not in ORACLE_SWEEP_MOVED:
            digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == ORACLE_SWEEP_SHA256
    # answered, every degree agreeing
    code, out, err = _capture(ORACLE_SWEEP_MOVED[0])
    rows = json.loads(out)["table"]
    assert (code, err, len(rows)) == (0, "", 41)
    assert all(row["agree"] and row["oracle"] == row["stable"] for row in rows)
    assert rows[40]["oracle"] == 143
    # refused at work 3230208, 24 times the 134592 dimensions of degree 28
    assert _capture(ORACLE_SWEEP_MOVED[1]) == (3, "", "error: orbit-route work 3230208 > cap 2500000\n")


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
