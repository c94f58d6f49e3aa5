"""Deterministic command-line front end.

Every subcommand prints a single JSON envelope
{"command", "parameters", "table", "provenance"} with sorted keys, or a flat
CSV table with --format csv.  Exact rationals render as "num/den"; output is
byte-identical across runs for identical argv.  Exit codes: 0 success,
2 argument errors, 3 range or cap errors.

n always means the half-dimension (a 2n-manifold is specified by n).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from .borel import (
    borel_constant_rep,
    lform_inequality_check,
    representation_bound,
    root_system,
    tensor_weight_count,
)
from .graded import format_polynomial, format_rational
from .groups import GammaType, quadratic_modulus, quadratic_refinement, sample_group_element
from .invariants import (
    GradedVCopies,
    brute_force_invariant_dim,
    invariant_crosscheck,
    piece_dimension,
)
from .lclasses import l_hat_polynomial, l_polynomial, p_in_terms_of_l
from .mt import kappa_ll_series, mt_series, stable_range, torelli_invariant_series

Envelope = dict[str, Any]

# a-priori cost caps, checked before any work; a request above one exits 3
UPTO_CAP = 12  # l-class and p-from-l: p_12 in L-classes takes about 0.4 s
BOREL_RANK_CAP = 32  # the root system and its coordinate tables: ~g^4 work
BOREL_SIZE_CAP = 500_000  # g * (qmax + 1) * the number of weights of V^{(x)k}
# the series commands: maxdeg + 2n, the top L-weight they expand to; the
# slowest requests at the cap take about 2 s
SERIES_CAP = 6000

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


def _envelope(command: str, parameters: dict, table: list[dict], provenance: list[str]) -> Envelope:
    return {
        "command": command,
        "parameters": parameters,
        "table": table,
        "provenance": provenance,
    }


def _series_table(series) -> list[dict]:
    return [
        {"degree": d, "coefficient": c} for d, c in enumerate(series.coefficients)
    ]


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


# -- handlers, one per subcommand -------------------------------------------


def _cmd_stable_range(args) -> Envelope:
    c = stable_range(args.g, args.n)
    table = [{"C": c}] if c is not None else [{"C": None, "note": "outside stable range"}]
    return _envelope(
        "stable-range",
        {"g": args.g, "n": args.n},
        table,
        ["cohomological-stability-range"],
    )


def _check_upto(upto: int) -> None:
    if upto > UPTO_CAP:
        raise ValueError(f"--upto {upto} is above the cap {UPTO_CAP}")


def _cmd_l_class(args) -> Envelope:
    if args.upto < 0:
        raise ValueError("--upto must be nonnegative")
    _check_upto(args.upto)
    poly = l_hat_polynomial if args.hat else l_polynomial
    table = [
        {"i": i, "class": format_polynomial(poly(i))} for i in range(args.upto + 1)
    ]
    tag = "normalized-hirzebruch-l-class" if args.hat else "hirzebruch-l-class"
    return _envelope(
        "l-class", {"hat": args.hat, "upto": args.upto}, table, [tag]
    )


def _cmd_p_from_l(args) -> Envelope:
    if args.upto < 1:
        raise ValueError("--upto must be at least 1")
    _check_upto(args.upto)
    table = [
        {"i": i, "polynomial": format_polynomial(p_in_terms_of_l(i))}
        for i in range(1, args.upto + 1)
    ]
    return _envelope(
        "p-from-l", {"upto": args.upto}, table, ["pontryagin-inversion"]
    )


def _check_series_size(args) -> None:
    size = args.maxdeg + 2 * args.n
    if size > SERIES_CAP:
        raise ValueError(
            f"--maxdeg {args.maxdeg} + 2 * --n {args.n} = {size} is above the cap {SERIES_CAP}"
        )


def _series_envelope(args, command: str, series: Callable, provenance: str) -> Envelope:
    _check_series_size(args)
    table = _series_table(series(args.n, args.maxdeg))
    return _envelope(command, {"maxdeg": args.maxdeg, "n": args.n}, table, [provenance])


def _cmd_mt_series(args) -> Envelope:
    return _series_envelope(args, "mt-series", mt_series, "block-diffeomorphism-stable-ring")


def _cmd_torelli_series(args) -> Envelope:
    return _series_envelope(args, "torelli-series", torelli_invariant_series, "torelli-invariant-ring")


def _cmd_theorem_b_series(args) -> Envelope:
    return _series_envelope(args, "theoremB-series", kappa_ll_series, "kappa-ll-ring")


def _cmd_borel_constant(args) -> Envelope:
    if args.g > BOREL_RANK_CAP:
        raise ValueError(f"rank --g {args.g} is above the cap {BOREL_RANK_CAP}")
    size = args.g * (args.qmax + 1) * tensor_weight_count(args.g, args.k)
    if size > BOREL_SIZE_CAP:
        raise ValueError(
            f"g * (qmax + 1) * (weights of the tensor power) = {size} is above "
            f"the cap {BOREL_SIZE_CAP}"
        )
    rs = root_system(args.family, args.g)
    constant = borel_constant_rep(rs, args.k, args.qmax)
    bound = representation_bound(args.family, args.g, args.k)
    table = [
        {
            "c": constant.value,
            "capped": constant.capped,
            "bound": bound,
            "bound_met": constant.meets(bound),
        }
    ]
    return _envelope(
        "borel-constant",
        {"family": args.family, "g": args.g, "k": args.k, "qmax": args.qmax},
        table,
        ["borel-stability-constant", "tensor-power-bound"],
    )


def _cmd_lform_check(args) -> Envelope:
    holds = lform_inequality_check(args.g, args.k, args.q)
    return _envelope(
        "lform-check",
        {"g": args.g, "k": args.k, "q": args.q},
        [{"holds": holds}],
        ["dominance-linear-form"],
    )


def _cmd_group_sample(args) -> Envelope:
    kind = GammaType(args.type)
    matrix = sample_group_element(kind, args.g, args.seed, args.len)
    table = [
        {"row": r, "entries": " ".join(str(x) for x in row)}
        for r, row in enumerate(matrix)
    ]
    return _envelope(
        "group-sample",
        {"g": args.g, "len": args.len, "seed": args.seed, "type": args.type},
        table,
        ["arithmetic-group-generators"],
    )


def _cmd_quad_refine(args) -> Envelope:
    vector = _parse_int_list(args.vector)
    value = quadratic_refinement(vector, args.n)
    table = [{"q": value, "modulus": quadratic_modulus(args.n).value}]
    return _envelope(
        "quad-refine",
        {"n": args.n, "vector": args.vector},
        table,
        ["quadratic-refinement"],
    )


def _cmd_invariant_oracle(args) -> Envelope:
    kind = GammaType(args.type)
    copies = GradedVCopies(args.g, _parse_int_list(args.degrees))
    result = brute_force_invariant_dim(kind, copies, args.deg)
    table = [
        {
            "dimension": result.dimension,
            "piece": piece_dimension(copies, args.deg),
            "history": " ".join(str(h) for h in result.history),
            "route": result.route,
        }
    ]
    return _envelope(
        "invariant-oracle",
        {
            "deg": args.deg,
            "degrees": args.degrees,
            "g": args.g,
            "seed": args.seed,
            "type": args.type,
        },
        table,
        ["invariant-dimension-oracle"],
    )


def _cmd_crosscheck_sec6(args) -> Envelope:
    _check_series_size(args)
    report = invariant_crosscheck(args.n, args.g, args.maxdeg, with_oracle=args.oracle)
    table = [
        {
            "degree": row.degree,
            "stable": row.stable_count,
            "ring": row.ring_count,
            "oracle": row.oracle_count,
            "agree": row.agree,
        }
        for row in report.rows
    ]
    return _envelope(
        "crosscheck-sec6",
        {
            "g": args.g,
            "maxdeg": args.maxdeg,
            "n": args.n,
            "oracle": args.oracle,
            "seed": args.seed,
        },
        table,
        [
            "stable-invariant-ring",
            "kappa-ll-ring",
            "observed-exact-agreement-at-all-truncations",
        ],
    )


# -- plumbing ----------------------------------------------------------------


_MAXDEG_HELP = f"truncation degree; maxdeg + 2n is at most {SERIES_CAP}"
_SEED_HELP = (
    "echoed in the parameters only; the oracle is exact and draws no samples, "
    "so the count does not depend on it"
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    parser = argparse.ArgumentParser(
        prog="torelli",
        description=(
            "Exact computations for diffeomorphism and Torelli groups of "
            "2n-manifolds. All n flags take the half-dimension n, never 2n."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "stable-range", parents=[common], help="stability range C for (g, n)"
    )
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--n", type=int, required=True, help="half-dimension n")
    p.set_defaults(handler=_cmd_stable_range)

    p = sub.add_parser(
        "l-class", parents=[common], help="Hirzebruch L-classes in Pontryagin classes"
    )
    p.add_argument(
        "--upto", type=int, required=True, help=f"largest index i, at most {UPTO_CAP}"
    )
    p.add_argument("--hat", action="store_true", help="half-weight normalized variant")
    p.set_defaults(handler=_cmd_l_class)

    p = sub.add_parser(
        "p-from-l", parents=[common], help="Pontryagin classes in terms of L-classes"
    )
    p.add_argument(
        "--upto", type=int, required=True, help=f"largest index i, at most {UPTO_CAP}"
    )
    p.set_defaults(handler=_cmd_p_from_l)

    for name, handler, ring in (
        ("mt-series", _cmd_mt_series, "the stable block-diffeomorphism ring"),
        ("torelli-series", _cmd_torelli_series, "the Torelli-invariant quotient ring"),
        ("theoremB-series", _cmd_theorem_b_series, "the ring on kappa classes of L_a L_b"),
    ):
        p = sub.add_parser(name, parents=[common], help=f"Hilbert series of {ring}")
        p.add_argument("--n", type=int, required=True, help="half-dimension n")
        p.add_argument("--maxdeg", type=int, required=True, help=_MAXDEG_HELP)
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "borel-constant",
        parents=[common],
        help="stability constant of a tensor power, with its proved bound",
    )
    p.add_argument("--family", choices=("C", "D"), required=True)
    p.add_argument("--g", type=int, required=True, help=f"rank, at most {BOREL_RANK_CAP}")
    p.add_argument("--k", type=int, required=True, help="tensor power")
    p.add_argument(
        "--qmax",
        type=int,
        required=True,
        help=f"search cap; g * (qmax + 1) * (weights of V^(x)k) is at most {BOREL_SIZE_CAP}",
    )
    p.set_defaults(handler=_cmd_borel_constant)

    p = sub.add_parser(
        "lform-check",
        parents=[common],
        help="exact dominance certificate for the C-family linear form",
    )
    p.add_argument("--g", type=int, required=True, help="rank")
    p.add_argument("--k", type=int, required=True, help="tensor power")
    p.add_argument("--q", type=int, required=True, help="cohomological degree")
    p.set_defaults(handler=_cmd_lform_check)

    p = sub.add_parser(
        "group-sample",
        parents=[common],
        help="deterministic pseudo-random element of an arithmetic group",
    )
    p.add_argument("--type", choices=("sp", "o", "theta"), required=True)
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--len", type=int, required=True, help="generator word length")
    p.set_defaults(handler=_cmd_group_sample)

    p = sub.add_parser(
        "quad-refine",
        parents=[common],
        help="quadratic refinement of a vector, reduced for the given n",
    )
    p.add_argument("--n", type=int, required=True, help="half-dimension n")
    p.add_argument(
        "--vector", required=True, help="comma-separated a_1,..,a_g,b_1,..,b_g"
    )
    p.set_defaults(handler=_cmd_quad_refine)

    p = sub.add_parser(
        "invariant-oracle",
        parents=[common],
        help="exact invariant dimension in a graded piece, as the joint kernel "
        "of the group generators",
    )
    p.add_argument("--type", choices=("sp", "o"), required=True)
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument(
        "--degrees", required=True, help="comma-separated copy degrees, e.g. 2,4"
    )
    p.add_argument("--deg", type=int, required=True, help="target degree")
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.set_defaults(handler=_cmd_invariant_oracle)

    p = sub.add_parser(
        "crosscheck-sec6",
        parents=[common],
        help="per-degree comparison of stable invariant and kappa-ring counts",
    )
    p.add_argument("--n", type=int, required=True, help="half-dimension n, >= 8")
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--maxdeg", type=int, required=True, help=_MAXDEG_HELP)
    p.add_argument("--oracle", action="store_true", help="also run the group oracle")
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.set_defaults(handler=_cmd_crosscheck_sec6)

    return parser


def _canonical(value):
    """Rationals to num/den strings, recursively; everything else untouched."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(envelope: Envelope, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(_canonical(envelope), sort_keys=True, separators=(",", ":")))
        out.write("\n")
        return
    rows = envelope["table"]
    columns = sorted(rows[0]) if rows else []
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(_canonical(row.get(col))) for col in columns])


def run(argv: Sequence[str] | None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    handler: Callable = args.handler
    try:
        envelope = handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 3
    _emit(envelope, args.format, out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
