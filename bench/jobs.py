"""The three workloads: fixed lists of torelli CLI jobs.

Every job is an argv for `torelli.cli.run`.  The lists are fixed, so every
run of a workload does the same work; the workload seed only orders the
jobs within a round and draws the points the L-class checks evaluate at.
The oracle's own `--seed` values are fixed per job: the oracle's work on one
piece moves by a factor of up to ten from one oracle seed to another, so
drawing them from the workload seed would spread every timing metric across
workload seeds by more than any usable bound, and fault (b) below would fail
a seeded job on some workload seeds only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    # the program fault this job shows; such a job is expected to fail
    known_fault: str | None = None


def _oracle(name: str, kind: str, g: int, degrees: str, deg: int, seed: int, fault=None) -> Job:
    return Job(
        f"{name}/seed{seed}",
        ("invariant-oracle", "--type", kind, "--g", str(g), "--degrees", degrees, "--deg", str(deg), "--seed", str(seed)),
        fault,
    )


FAULT_A = (
    "(a) at g = 1, orthogonal kind, every sample is an even word in the "
    "commuting involutions swap and -I, so it lies in {I, -swap}"
)
FAULT_B = (
    "(b) the oracle stops after three samples that leave the dimension "
    "unchanged, so a small piece over-counts for some oracle seeds"
)

ORACLE = [
    # SL_2 on V^{(x)6}: one vector from each of six exterior copies; the
    # base-3 degrees make the allocation unique.  Catalan count 5.
    _oracle("sl2-tensor6", "sp", 1, "1,3,9,27,81,243", 364, 2),
    # Sym^6 V under O_{2,2}(Z) and Sym^4 V under O_{3,3}(Z): the form's power
    _oracle("o2-sym6", "o", 2, "2", 12, 1),
    _oracle("o3-sym4", "o", 3, "2", 8, 1),
    # Lambda^4 V under Sp_6(Z): the square of the form
    _oracle("sp3-ext4", "sp", 3, "1", 4, 1),
    # a sweep of 17 small pieces over four even copies, at the cli's
    # default seed
    Job("crosscheck-n8-g2", ("crosscheck-sec6", "--n", "8", "--g", "2", "--maxdeg", "16", "--oracle")),
    # the known faults, each on an oracle seed it fails for
    _oracle("o1-sym-mixed", "o", 1, "2,4", 12, 1, FAULT_A),
    _oracle("o2-ext4", "o", 2, "1", 4, 2, FAULT_B),
    _oracle("o1-sym2", "o", 1, "2", 4, 4, FAULT_B),
]

CLASSES = [
    Job("l-class-7", ("l-class", "--upto", "7")),
    Job("l-class-7-hat", ("l-class", "--upto", "7", "--hat")),
    Job("p-from-l-7", ("p-from-l", "--upto", "7")),
] + [
    # qmax = bound + 1, as the Borel acceptance criterion uses
    Job(
        f"borel-{family}{g}-k{k}",
        ("borel-constant", "--family", family, "--g", str(g), "--k", str(k), "--qmax", str(bound + 1)),
    )
    for family, g, k in (
        ("C", 4, 0), ("C", 4, 2),
        ("D", 4, 0), ("D", 4, 1),
    )
    for bound in [g - 1 - k if family == "C" else g - 2 - k]
]

SERIES = [
    # n = 340 keeps maxdeg below 1028, where the pairs with b > n would
    # first count (checks.pairing_degrees)
    Job("theoremB-n340", ("theoremB-series", "--n", "340", "--maxdeg", "1000")),
    Job("crosscheck-n340-g2", ("crosscheck-sec6", "--n", "340", "--g", "2", "--maxdeg", "900")),
    Job("torelli-n24", ("torelli-series", "--n", "24", "--maxdeg", "220")),
    Job("torelli-n20", ("torelli-series", "--n", "20", "--maxdeg", "180")),
    # the largest generator enumeration and resident set of all the jobs
    Job("mt-n24", ("mt-series", "--n", "24", "--maxdeg", "220")),
]

WORKLOADS = {"oracle": ORACLE, "classes": CLASSES, "series": SERIES}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list in the order the seed gives it."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs
