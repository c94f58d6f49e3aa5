"""Tests of the benchmark's checkers: run with `python3 -m pytest bench`.

Each checker must reproduce known values, accept the table the program
prints today, and reject that table with one count or coefficient altered.
The tables are made by running the CLI in this process.
"""

from __future__ import annotations

import copy
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from jobs import WORKLOADS  # noqa: E402


def cli_envelope(*argv: str) -> dict:
    from torelli.cli import run

    out = io.StringIO()
    assert run(list(argv), out=out) == 0
    return json.loads(out.getvalue())


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


# -- known values -------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_sl2_count_of_even_tensor_powers_is_catalan(m):
    # base-3 degrees: the only allocation takes one vector from each copy
    degrees = tuple(3**i for i in range(2 * m))
    assert checks.sl2_invariant_count(degrees, sum(degrees)) == catalan(m)
    assert [catalan(k) for k in range(1, 5)] == [1, 2, 5, 14]


def test_sl2_count_of_odd_tensor_power_is_zero():
    assert checks.sl2_invariant_count((1, 3, 9), 13) == 0


def test_orthogonal_rank_one_group_and_its_sym2_count():
    group = checks.orthogonal_group_rank_one()
    assert sorted(map(str, group)) == sorted(
        map(str, [[[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]]])
    )
    assert checks.expected_oracle_count("o", 1, (2,), 4) == 2
    # fault (a): the piece below has 9 invariants, the oracle prints 16
    assert checks.expected_oracle_count("o", 1, (2, 4), 12) == 9


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tensor_powers_under_sp_count_matchings(m):
    degrees = tuple((2 * m + 1) ** i for i in range(2 * m))
    assert checks.classical_invariant_count("sp", m, degrees, sum(degrees)) == checks.double_factorial(2 * m - 1)
    assert [checks.double_factorial(k) for k in (1, 3, 5)] == [1, 3, 15]


def test_classical_counts_of_single_copies():
    assert checks.classical_invariant_count("o", 3, (2,), 8) == 1  # Sym^4
    assert checks.classical_invariant_count("o", 3, (2,), 6) == 0  # Sym^3
    assert checks.classical_invariant_count("sp", 3, (1,), 4) == 1  # Lambda^4
    assert checks.classical_invariant_count("o", 2, (1,), 4) == 0  # det
    assert checks.classical_invariant_count("sp", 2, (2, 4), 8) is None  # two allocations


def test_piece_dimension():
    assert checks.piece_dimension(2, (1, 5, 25, 125), 156) == 256
    assert checks.piece_dimension(1, (2, 4), 12) == 30
    assert checks.piece_dimension(3, (2,), 8) == math.comb(9, 4)


def test_l_classes_known_values():
    f = checks.x_over_tanh(2, hat=False)
    assert f == [1, Fraction(1, 3), Fraction(-1, 45)]
    rng = random.Random(0)
    u = checks.sample_roots(rng, 2)
    p1, p2 = checks.elementary(u)[1:3]
    values = checks.genus_values(f, u)
    assert values[1] == p1 / 3
    assert values[2] == (7 * p2 - p1**2) / 45


def test_bernoulli_numbers():
    b = checks.bernoulli(8)
    assert [b[i] for i in (0, 2, 4, 6, 8)] == [1, Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30)]


def test_parse_polynomial():
    assert checks.parse_polynomial("7/45*p_2 + -1/45*p_1^2") == {
        (("p_2", 1),): Fraction(7, 45),
        (("p_1", 2),): Fraction(-1, 45),
    }
    assert checks.parse_polynomial("1/1") == {(): 1}
    assert checks.parse_polynomial("0/1") == {}


def test_borel_scan_meets_the_bounds():
    for family, g, k in (("C", 2, 0), ("C", 3, 1), ("D", 3, 0), ("D", 4, 1)):
        bound = g - 1 - k if family == "C" else g - 2 - k
        c, _ = checks.borel_scan(family, g, k, bound + 1)
        assert c is not None and c >= bound


def test_euler_transform_counts_partitions():
    # prod 1/(1 - t^e) over all e: the partition numbers
    assert checks.euler_transform({e: 1 for e in range(1, 11)}, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    # one odd generator: exterior, 1 + t^3
    assert checks.free_series({3: 1}, 7) == [1, 0, 0, 1, 0, 0, 0, 0]


def test_pairing_degrees_small_case():
    # n = 8: shifted degrees 4, 8, 12; pairs (4,4), (4,8), (8,8), (4,12)
    assert checks.pairing_degrees(8, 16) == {8: 1, 12: 1, 16: 2}


def test_pairing_degrees_stop_where_b_would_pass_n():
    # n = 200: a >= 51, and a = 51, b = 201 has degree 4 * 252 - 400 = 608
    assert checks.disputed_degree(200) == 608
    checks.pairing_degrees(200, 607)
    with pytest.raises(ValueError):
        checks.pairing_degrees(200, 608)


# -- today's tables pass, a single altered value fails -------------------------


def _every_job():
    return [job for jobs in WORKLOADS.values() for job in jobs if job.known_fault is None]


CHEAP = [
    ("invariant-oracle", "--type", "sp", "--g", "1", "--degrees", "1,3,9,27", "--deg", "40", "--seed", "1"),
    ("invariant-oracle", "--type", "o", "--g", "2", "--degrees", "2", "--deg", "4", "--seed", "1"),
    ("invariant-oracle", "--type", "sp", "--g", "2", "--degrees", "1", "--deg", "2", "--seed", "1"),
    ("crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "12", "--oracle"),
    ("crosscheck-sec6", "--n", "9", "--g", "2", "--maxdeg", "32"),
    ("l-class", "--upto", "4"),
    ("l-class", "--upto", "4", "--hat"),
    ("p-from-l", "--upto", "4"),
    ("borel-constant", "--family", "C", "--g", "3", "--k", "1", "--qmax", "2"),
    ("borel-constant", "--family", "D", "--g", "4", "--k", "0", "--qmax", "3"),
    ("theoremB-series", "--n", "30", "--maxdeg", "95"),
    ("torelli-series", "--n", "12", "--maxdeg", "80"),
    ("mt-series", "--n", "11", "--maxdeg", "80"),
]

# the column a test alters, per command
ALTER = {
    "invariant-oracle": "dimension",
    "crosscheck-sec6": "ring",
    "l-class": "class",
    "p-from-l": "polynomial",
    "borel-constant": "c",
    "theoremB-series": "coefficient",
    "torelli-series": "coefficient",
    "mt-series": "coefficient",
}


def _check(argv, envelope):
    job = bench_run.Job("test", tuple(argv))
    return bench_run.check_table(job, envelope, random.Random(1))


def _altered(envelope: dict, column: str) -> dict:
    bad = copy.deepcopy(envelope)
    row = bad["table"][-1]
    value = row[column]
    if isinstance(value, str):  # a polynomial: change its first coefficient
        coeff, sep, rest = value.partition("*")
        row[column] = str(Fraction(coeff) + 1) + sep + rest
    else:
        row[column] = value + 1
    return bad


@pytest.mark.parametrize("argv", CHEAP, ids=lambda a: " ".join(a))
def test_checker_accepts_todays_table_and_rejects_one_altered_value(argv):
    envelope = cli_envelope(*argv)
    assert _check(argv, envelope) == []
    assert _check(argv, _altered(envelope, ALTER[argv[0]])) != []


def test_every_workload_job_has_a_checker_and_an_independent_count():
    for job in _every_job():
        if job.argv[0] == "invariant-oracle":
            args = dict(zip(job.argv[1::2], job.argv[2::2]))
            degrees = tuple(int(x) for x in args["--degrees"].split(","))
            count = checks.expected_oracle_count(args["--type"], int(args["--g"]), degrees, int(args["--deg"]))
            assert count is not None, job.name
        assert job.argv[0] in ALTER


def test_crosscheck_precondition_on_copies():
    envelope = cli_envelope("crosscheck-sec6", "--n", "8", "--g", "1", "--maxdeg", "12", "--oracle")
    with pytest.raises(ValueError):
        checks.check_crosscheck(envelope["parameters"], envelope["table"])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(bench_run.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench_run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
