"""Deterministic command-line front end.

Every subcommand prints a single JSON envelope
{"command", "parameters", "provenance", "table"}, or a flat CSV table with
--format csv.  Each handler returns its table as columns: a dict from output
key to an equal-length column.  _emit alone knows the layout the table is
printed in and its key order: it orders the columns by name, encodes the
keys and every cell with one encoder call, cuts the text into cells and
writes one row object per index.  The envelope and its parameters are built
in key order, so the encoder neither re-sorts keys nor checks for cycles.
Exact rationals render as "num/den"; output is byte-identical across runs
for identical argv.
Exit codes: 0 success, 2 argument errors, 3 range or cap errors.

n always means the half-dimension (a 2n-manifold is specified by n).
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Sequence

from .borel import (
    borel_constant_rep,
    lform_inequality_check,
    representation_bound,
    root_system,
)
from .graded import format_polynomial
from .groups import GammaType, quadratic_modulus, quadratic_refinement, sample_group_element
from .invariants import (
    GradedVCopies,
    brute_force_invariant_dim,
    invariant_crosscheck,
    piece_dimension,
)
from .lclasses import l_classes, p_classes_in_l

# not called here, where each request takes its whole sequence at once; kept
# importable because bench/layers.py traces calls at these names
from .lclasses import l_hat_polynomial, l_polynomial, p_in_terms_of_l  # noqa: F401
from .mt import kappa_ll_series, mt_series, stable_range, torelli_invariant_series

if TYPE_CHECKING:
    import argparse

# output key -> column (a range, tuple or list), every column the same length
Table = dict[str, Sequence]
Provenance = list[str]

# a-priori cost caps, checked before any work; a request above one exits 3
UPTO_CAP = 12  # l-class and p-from-l: L_0..L_12 or p_1..p_12 take 3-6 ms
# borel-constant and lform-check: the root system and its coordinate tables
# take ~g^3 work, the linear form's exact sum ~g^3 digits.  borel-constant
# lists no weight, so the rank alone bounds it, whatever --k and --qmax are:
# the slowest requests found at the cap take about 0.05 s in process
# (--family C --g 32 at any --k and --qmax, and --family D --g 32 --k 3
# --qmax 2000), nearly all of it building the tables
BOREL_RANK_CAP = 32
# the series commands: maxdeg + 2n, the top L-weight they expand to; the
# slowest requests at the cap take about 0.45 s (torelli-series --n 11
# --maxdeg 5978, and mt-series at n = 7 and 13)
SERIES_CAP = 6000
# group-sample and the oracle: building and checking the O(g^2) sparse
# generators takes 3-5 ms at the cap (theta, the longest list)
GENUS_CAP = 10
# group-sample: --len products of a big-integer matrix and a sparse
# generator; 9-24 ms at both caps
WORD_CAP = 1000
# invariant-oracle: counting the piece fills a row of deg + 1 integers per
# copy, in 2g passes each; 0.26-0.36 s at these caps and GENUS_CAP, for
# either kind
ORACLE_DEGREE_CAP = 2000
ORACLE_COPIES_CAP = 64

# one invocation per subcommand; the determinism suite replays these
SHIPPED_INVOCATIONS: tuple[tuple[str, ...], ...] = (
    ("stable-range", "--g", "25", "--n", "23"),
    ("l-class", "--upto", "3", "--hat"),
    ("p-from-l", "--upto", "3"),
    ("mt-series", "--n", "3", "--maxdeg", "4"),
    ("torelli-series", "--n", "4", "--maxdeg", "10"),
    ("theoremB-series", "--n", "8", "--maxdeg", "12"),
    ("borel-constant", "--family", "C", "--g", "2", "--k", "0", "--qmax", "4"),
    ("lform-check", "--g", "6", "--k", "2", "--q", "3"),
    ("group-sample", "--type", "theta", "--g", "2", "--seed", "5", "--len", "8"),
    ("quad-refine", "--n", "5", "--vector", "1,2,3,4"),
    ("invariant-oracle", "--type", "sp", "--g", "1", "--degrees", "1,3", "--deg", "4", "--seed", "5"),
    ("crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "8", "--oracle", "--seed", "1"),
)


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{name} {value} is above the cap {cap}")


def _check_series_size(args) -> None:
    size = args.maxdeg + 2 * args.n
    if size > SERIES_CAP:
        raise ValueError(
            f"--maxdeg {args.maxdeg} + 2 * --n {args.n} = {size} is above the cap {SERIES_CAP}"
        )


def _series_table(args, series: Callable) -> Table:
    _check_series_size(args)
    coefficients = series(args.n, args.maxdeg).coefficients
    return {"coefficient": coefficients, "degree": range(len(coefficients))}


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


# -- handlers, one per subcommand: each returns (columns, provenance) --------


def _cmd_stable_range(args) -> tuple[Table, Provenance]:
    c = stable_range(args.g, args.n)
    table = {"C": [c]} if c is not None else {"C": [None], "note": ["outside stable range"]}
    return table, ["cohomological-stability-range"]


def _cmd_l_class(args) -> tuple[Table, Provenance]:
    if args.upto < 0:
        raise ValueError("--upto must be nonnegative")
    _check_cap("--upto", args.upto, UPTO_CAP)
    classes = l_classes(args.upto, args.hat)
    table = {"class": [format_polynomial(k) for k in classes], "i": range(len(classes))}
    return table, ["normalized-hirzebruch-l-class" if args.hat else "hirzebruch-l-class"]


def _cmd_p_from_l(args) -> tuple[Table, Provenance]:
    if args.upto < 1:
        raise ValueError("--upto must be at least 1")
    _check_cap("--upto", args.upto, UPTO_CAP)
    classes = p_classes_in_l(args.upto)
    indices = range(1, args.upto + 1)
    table = {"i": indices, "polynomial": [format_polynomial(classes[i]) for i in indices]}
    return table, ["pontryagin-inversion"]


def _cmd_mt_series(args) -> tuple[Table, Provenance]:
    return _series_table(args, mt_series), ["block-diffeomorphism-stable-ring"]


def _cmd_torelli_series(args) -> tuple[Table, Provenance]:
    return _series_table(args, torelli_invariant_series), ["torelli-invariant-ring"]


def _cmd_theorem_b_series(args) -> tuple[Table, Provenance]:
    return _series_table(args, kappa_ll_series), ["kappa-ll-ring"]


def _cmd_borel_constant(args) -> tuple[Table, Provenance]:
    _check_cap("rank --g", args.g, BOREL_RANK_CAP)
    if args.qmax < 0:
        raise ValueError("--qmax must be nonnegative")
    if args.k < 0:
        raise ValueError("--k must be nonnegative")
    rs = root_system(args.family, args.g)
    constant = borel_constant_rep(rs, args.k, args.qmax)
    bound = representation_bound(args.family, args.g, args.k)
    table = {
        "bound": [bound],
        "bound_met": [constant.meets(bound)],
        "c": [constant.value],
        "capped": [constant.capped],
    }
    return table, ["borel-stability-constant", "tensor-power-bound"]


def _cmd_lform_check(args) -> tuple[Table, Provenance]:
    _check_cap("rank --g", args.g, BOREL_RANK_CAP)
    return {"holds": [lform_inequality_check(args.g, args.k, args.q)]}, ["dominance-linear-form"]


def _cmd_group_sample(args) -> tuple[Table, Provenance]:
    _check_cap("--g", args.g, GENUS_CAP)
    _check_cap("--len", args.len, WORD_CAP)
    matrix = sample_group_element(GammaType(args.type), args.g, args.seed, args.len)
    table = {"entries": [" ".join(str(x) for x in row) for row in matrix], "row": range(len(matrix))}
    return table, ["arithmetic-group-generators"]


def _cmd_quad_refine(args) -> tuple[Table, Provenance]:
    value = quadratic_refinement(_parse_int_list(args.vector), args.n)
    return {"modulus": [quadratic_modulus(args.n).value], "q": [value]}, ["quadratic-refinement"]


def _cmd_invariant_oracle(args) -> tuple[Table, Provenance]:
    degrees = _parse_int_list(args.degrees)
    _check_cap("--g", args.g, GENUS_CAP)
    _check_cap("--deg", args.deg, ORACLE_DEGREE_CAP)
    _check_cap("--degrees count", len(degrees), ORACLE_COPIES_CAP)
    copies = GradedVCopies(args.g, degrees)
    result = brute_force_invariant_dim(GammaType(args.type), copies, args.deg)
    table = {
        "dimension": [result.dimension],
        "history": [" ".join(str(h) for h in result.history)],
        "piece": [piece_dimension(copies, args.deg)],
        "route": [result.route],
    }
    return table, ["invariant-dimension-oracle"]


def _cmd_crosscheck_sec6(args) -> tuple[Table, Provenance]:
    _check_series_size(args)
    if args.oracle:
        _check_cap("--g", args.g, GENUS_CAP)
    report = invariant_crosscheck(args.n, args.g, args.maxdeg, with_oracle=args.oracle)
    table = {
        "agree": report.agree,
        "degree": range(len(report.stable)),
        "oracle": report.oracle,
        "ring": report.ring,
        "stable": report.stable,
    }
    return table, [
        "stable-invariant-ring",
        "kappa-ll-ring",
        "observed-exact-agreement-at-all-truncations",
    ]


# -- plumbing ----------------------------------------------------------------


_MAXDEG_HELP = f"truncation degree; maxdeg + 2n is at most {SERIES_CAP}"
_SEED_HELP = (
    "echoed in the parameters only; the oracle is exact and draws no samples, "
    "so the count does not depend on it"
)


def _required_int(help_text: str | None = None) -> dict:
    return {"type": int, "required": True, "help": help_text}


_SERIES_ARGUMENTS = (
    ("--n", _required_int("half-dimension n")),
    ("--maxdeg", _required_int(_MAXDEG_HELP)),
)

# name -> (handler, help, arguments), in the order the full help lists them
_SUBCOMMANDS: dict[str, tuple[Callable, str, tuple[tuple[str, dict], ...]]] = {
    "stable-range": (
        _cmd_stable_range,
        "stability range C for (g, n)",
        (("--g", _required_int("genus")), ("--n", _required_int("half-dimension n"))),
    ),
    "l-class": (
        _cmd_l_class,
        "Hirzebruch L-classes in Pontryagin classes",
        (
            ("--upto", _required_int(f"largest index i, at most {UPTO_CAP}")),
            ("--hat", {"action": "store_true", "help": "half-weight normalized variant"}),
        ),
    ),
    "p-from-l": (
        _cmd_p_from_l,
        "Pontryagin classes in terms of L-classes",
        (("--upto", _required_int(f"largest index i, at most {UPTO_CAP}")),),
    ),
    "mt-series": (
        _cmd_mt_series,
        "Hilbert series of the stable block-diffeomorphism ring",
        _SERIES_ARGUMENTS,
    ),
    "torelli-series": (
        _cmd_torelli_series,
        "Hilbert series of the Torelli-invariant quotient ring",
        _SERIES_ARGUMENTS,
    ),
    "theoremB-series": (
        _cmd_theorem_b_series,
        "Hilbert series of the ring on kappa classes of L_a L_b",
        _SERIES_ARGUMENTS,
    ),
    "borel-constant": (
        _cmd_borel_constant,
        "stability constant of a tensor power, with its proved bound",
        (
            ("--family", {"choices": ("C", "D"), "required": True}),
            ("--g", _required_int(f"rank, at most {BOREL_RANK_CAP}")),
            ("--k", _required_int("tensor power")),
            ("--qmax", _required_int("search cap")),
        ),
    ),
    "lform-check": (
        _cmd_lform_check,
        "exact dominance certificate for the C-family linear form",
        (
            ("--g", _required_int("rank")),
            ("--k", _required_int("tensor power")),
            ("--q", _required_int("cohomological degree")),
        ),
    ),
    "group-sample": (
        _cmd_group_sample,
        "deterministic pseudo-random element of an arithmetic group",
        (
            ("--type", {"choices": ("sp", "o", "theta"), "required": True}),
            ("--g", _required_int("genus")),
            ("--seed", _required_int()),
            ("--len", _required_int("generator word length")),
        ),
    ),
    "quad-refine": (
        _cmd_quad_refine,
        "quadratic refinement of a vector, reduced for the given n",
        (
            ("--n", _required_int("half-dimension n")),
            ("--vector", {"required": True, "help": "comma-separated a_1,..,a_g,b_1,..,b_g"}),
        ),
    ),
    "invariant-oracle": (
        _cmd_invariant_oracle,
        "exact invariant dimension in a graded piece, as the joint kernel "
        "of the group generators",
        (
            ("--type", {"choices": ("sp", "o"), "required": True}),
            ("--g", _required_int("genus")),
            ("--degrees", {"required": True, "help": "comma-separated copy degrees, e.g. 2,4"}),
            ("--deg", _required_int("target degree")),
            ("--seed", {"type": int, "default": 0, "help": _SEED_HELP}),
        ),
    ),
    "crosscheck-sec6": (
        _cmd_crosscheck_sec6,
        "per-degree comparison of stable invariant and kappa-ring counts",
        (
            ("--n", _required_int("half-dimension n, >= 8")),
            ("--g", _required_int("genus")),
            ("--maxdeg", _required_int(_MAXDEG_HELP)),
            ("--oracle", {"action": "store_true", "help": "also run the group oracle"}),
            ("--seed", {"type": int, "default": 0, "help": _SEED_HELP}),
        ),
    ),
}


# the one flag that every subcommand takes
_FORMAT_ARGUMENT = (
    "--format",
    {"choices": ("json", "csv"), "default": "json", "help": "output format"},
)


def _build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand; only help and usage errors need it."""
    import argparse  # here, so that a plain request never loads it

    common = argparse.ArgumentParser(add_help=False)
    flag, options = _FORMAT_ARGUMENT
    common.add_argument(flag, **options)
    parser = argparse.ArgumentParser(
        prog="torelli",
        description=(
            "Exact computations for diffeomorphism and Torelli groups of "
            "2n-manifolds. All n flags take the half-dimension n, never 2n."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _read_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for a plain request, defaults included,
    read from the _SUBCOMMANDS table; None for anything else.  Plain: the
    subcommand's name, then each of its flags at most once, spelled exactly,
    either a store_true switch or followed by one value that does not start
    with "-", converts by the flag's type and is among its choices, with
    every required flag present.  Abbreviations, "--flag=value", repeats,
    help and every error are argparse's.  The table uses no argument option
    but type, required, help, choices, default and action="store_true"
    (tests/test_cli.py checks it)."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    specs = dict((*_SUBCOMMANDS[argv[0]][2], _FORMAT_ARGUMENT))
    values = {"subcommand": argv[0]}
    tokens = iter(argv[1:])
    for flag in tokens:
        options = specs.pop(flag, None)
        if options is None:
            return None
        if "action" in options:
            value = True
        else:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
            try:
                value = options.get("type", str)(text)
            except (TypeError, ValueError):
                return None
            if "choices" in options and value not in options["choices"]:
                return None
        values[flag[2:].replace("-", "_")] = value
    for flag, options in specs.items():
        if options.get("required"):
            return None
        values[flag[2:].replace("-", "_")] = options.get("default", False if "action" in options else None)
    return SimpleNamespace(**values)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# one encoder for every call: building one costs more than a one-row table
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _emit(envelope: dict, table: Table, fmt: str, out) -> None:
    """Print the envelope with the table spliced in after its last key, one
    row object per index with the keys in name order; or the table alone
    as CSV."""
    names = sorted(table)
    if fmt == "json":
        width, rows = len(names), len(table[names[0]])
        # the keys, then the cells row by row, encoded as one list and cut
        # at its commas: the text of an int, a bool or null holds none, so
        # only a string with a comma makes the pieces outnumber the items,
        # and then each item is encoded alone
        items = names * (rows + 1)
        for j, name in enumerate(names, width):
            items[j::width] = table[name]
        text = _ENCODER.encode(items)[1:-1].split(",")
        if len(text) != len(items):
            text = [_ENCODER.encode(v) for v in items]
        parts = [""] * (2 * width * rows)
        parts[1::2] = text[width:]
        for j, key in enumerate(text[:width]):
            # a row's first key follows "},{", the close of the row before
            parts[2 * j :: 2 * width] = [("},{" if j == 0 else ",") + key + ":"] * rows
        body = "[" + "".join(parts)[2:] + "}]" if rows else "[]"
        out.write(f'{_ENCODER.encode(envelope)[:-1]},"table":{body}}}\n')
        return
    import csv  # only here, so that a JSON request never loads it

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([_csv_cell(v) for v in row] for row in zip(*(table[name] for name in names)))


def run(argv: Sequence[str] | None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    try:
        table, provenance = _SUBCOMMANDS[args.subcommand][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 3
    # every subcommand's parameters are exactly its own flags, in key order;
    # "table", the last key, is spliced in by _emit
    parameters = {k: v for k, v in sorted(vars(args).items()) if k not in ("format", "subcommand")}
    envelope = {"command": args.subcommand, "parameters": parameters, "provenance": provenance}
    _emit(envelope, table, args.format, out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
