"""Benchmark of the torelli command line.

    python3 bench/run.py --workload oracle|classes|series --seed N \
        --seconds S --trace 0|1

Runs the workload's fixed job list in whole rounds until S seconds have
passed, each job alone in a fresh interpreter (`child.py`), and checks every
printed table against the independent counts in `checks.py`.  With
--trace 0 the last line of stdout is the JSON result with the end-to-end
metrics; with --trace 1 each job runs once untraced and once traced per
round, and the result holds the per-layer metrics and the tracing overhead.
A per-job failure report goes to stdout before the result, and the raw
records to bench/out/.  Run from the root of a source tree holding
src/torelli.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from child import READY_MARK
from jobs import Job, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# every run must end within 180 s; no round is started that would end later
DEADLINE_S = 170.0
# Job and import times are reported at reference speed: t * CAL_REF_S / cal,
# where cal is the geometric mean of the times of child.calibrate() in the
# job's own process just before it imports torelli and just after the job,
# and CAL_REF_S that time on the 2-vCPU VM of README.md's reference figures
# when quiet.  Other tenants slowed that VM by 1.3-1.8x for seconds to
# minutes; the calibration sees the same slowdown (README.md, Noise).
CAL_REF_S = 0.0165

END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "job_s_p50": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# per-layer metric -> (what, span or counter): "self" and "incl" are the
# self or inclusive seconds of a span, "calls" its call count, "counter" a
# recorded count, all summed over the job list
PER_LAYER: dict[str, tuple[str, str]] = {
    "setup.numpy_import_s": ("setup", "numpy_import_s"),
    "setup.torelli_import_s": ("setup", "own_import_s"),
    "cli.self_s": ("self", "cli.run"),
    "invariants.oracle_self_s": ("self", "invariants.oracle"),
    "invariants.oracle_calls": ("calls", "invariants.oracle"),
    "invariants.samples": ("counter", "invariants.samples"),
    "invariants.piece_dim_sum": ("counter", "invariants.piece_dim_sum"),
    "invariants.piece_dimension_s": ("incl", "invariants.piece_dimension"),
    "invariants.stable_series_s": ("incl", "invariants.stable_series"),
    "linalg.kernel_s": ("incl", "linalg.kernel"),
    "linalg.kernel_calls": ("calls", "linalg.kernel"),
    "linalg.kernel_entries": ("counter", "linalg.kernel_entries"),
    "linalg.inverse_s": ("incl", "linalg.inverse"),
    "linalg.inverse_calls": ("calls", "linalg.inverse"),
    "groups.sample_s": ("incl", "groups.sample"),
    "groups.sample_calls": ("calls", "groups.sample"),
    "groups.membership_s": ("incl", "groups.membership"),
    "groups.membership_calls": ("calls", "groups.membership"),
    "lclasses.sequence_s": ("incl", "lclasses.sequence"),
    "lclasses.sequence_calls": ("calls", "lclasses.sequence"),
    "lclasses.inversion_self_s": ("self", "lclasses.inversion"),
    "lclasses.output_terms": ("counter", "lclasses.output_terms"),
    "graded.series_s": ("incl", "graded.series"),
    "graded.series_calls": ("calls", "graded.series"),
    "graded.series_generators": ("counter", "graded.series_generators"),
    "graded.poly_mul_s": ("incl", "graded.poly_mul"),
    "graded.poly_mul_calls": ("calls", "graded.poly_mul"),
    "graded.substitute_s": ("incl", "graded.substitute"),
    "mt.generators_s": ("incl", "mt.generators"),
    "mt.generators": ("counter", "mt.generators"),
    "mt.pairs_s": ("incl", "mt.pairs"),
    "borel.constant_s": ("incl", "borel.constant"),
    "borel.cone_tests": ("calls", "borel.cone"),
    "borel.cone_s": ("incl", "borel.cone"),
    "borel.etas": ("counter", "borel.etas"),
    "trace.overhead_s": ("overhead", ""),
}


def check_table(job: Job, envelope: dict, rng: random.Random) -> list[checks.Mismatch]:
    params, table = envelope["parameters"], envelope["table"]
    command = job.argv[0]
    if command == "invariant-oracle":
        return checks.check_invariant_oracle(params, table)
    if command == "crosscheck-sec6":
        return checks.check_crosscheck(params, table)
    if command == "l-class":
        return checks.check_l_class(params, table, rng)
    if command == "p-from-l":
        return checks.check_p_from_l(params, table, rng)
    if command == "borel-constant":
        return checks.check_borel_constant(params, table)
    if command == "theoremB-series":
        return checks.check_theorem_b_series(params, table)
    if command in ("torelli-series", "mt-series"):
        return checks.check_kappa_ring_series(params, table, torelli=command == "torelli-series")
    raise ValueError(f"no checker for {command}")


def check_record(job: Job, record: dict, seed: int) -> list[checks.Mismatch]:
    """Mismatches of one job execution; empty when its table is right."""
    if "crash" in record:
        return [("job process", "a JSON record", record["crash"])]
    if record["code"] != 0:
        return [("exit code", 0, f"{record['code']}: {record['stderr'].strip()}")]
    try:
        envelope = json.loads(record["stdout"])
        if envelope.get("command") != job.argv[0]:
            return [("command", job.argv[0], envelope.get("command"))]
        return check_table(job, envelope, random.Random(f"{seed}/{job.name}"))
    except (KeyError, TypeError, ValueError) as exc:
        return [("table", "a well-formed table", f"{type(exc).__name__}: {exc}")]


def numpy_import_s(report: str) -> float:
    """numpy's cumulative import time in a `python -X importtime` report,
    counting only imports before torelli.cli was ready; 0 if none."""
    for line in report.split(READY_MARK)[0].splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1e6
    return 0.0


def spawn(job: Job, traced: bool, env: dict, deadline: float) -> dict:
    # the traced child also reports its imports, to split set-up into layers
    flags = ["-X", "importtime"] if traced else []
    cmd = [sys.executable, *flags, str(CHILD), "1" if traced else "0", *job.argv]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"crash": "timed out"}
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    record["speed"] = CAL_REF_S / math.sqrt(record["cal_s"] * record["cal_after_s"])
    if traced:
        record["numpy_import_s"] = numpy_import_s(proc.stderr)
        record["own_import_s"] = record["import_s"] - record["numpy_import_s"]
    return record


def ref_s(record: dict) -> float:
    """The job time at reference speed."""
    return record["job_s"] * record["speed"]


def typical(records: list[dict]) -> dict:
    """The job's execution with the median time at reference speed (the
    lower middle one for an even count)."""
    return sorted(records, key=ref_s)[(len(records) - 1) // 2]


def span_value(record: dict, what: str, key: str):
    trace = record["trace"]
    if what == "counter":
        return trace["counters"].get(key, 0)
    span = trace["spans"].get(key)
    if span is None:
        return 0
    return {"self": span["self_s"], "incl": span["incl_s"], "calls": span["calls"]}[what]


def per_layer_metrics(plain: dict[str, list[dict]], traced: dict[str, list[dict]]) -> dict[str, float]:
    """Per-layer values from each job's typical traced execution, times at
    reference speed, summed over the job list; set-up times are medians over
    every traced process, at reference speed."""
    every = [r for recs in traced.values() for r in recs]
    chosen = [typical(recs) for recs in traced.values()]
    out: dict[str, float] = {}
    for name, (what, key) in PER_LAYER.items():
        if what == "setup":
            out[name] = statistics.median(r[key] * r["speed"] for r in every)
        elif what == "overhead":
            out[name] = sum(map(ref_s, chosen)) - sum(ref_s(typical(recs)) for recs in plain.values())
        elif what in ("self", "incl"):
            out[name] = sum(span_value(r, what, key) * r["speed"] for r in chosen)
        else:
            out[name] = sum(span_value(r, what, key) for r in chosen)
    return out


def layer_shares(traced: dict[str, list[dict]]) -> dict[str, float]:
    """Each layer's share of the summed self time (cli includes cli.run)."""
    own: dict[str, float] = {}
    for recs in traced.values():
        record = typical(recs)
        for name, span in record["trace"]["spans"].items():
            layer = name.split(".")[0]
            own[layer] = own.get(layer, 0.0) + span["self_s"] * record["speed"]
    total = sum(own.values())
    return {layer: own[layer] / total for layer in sorted(own)}


def end_to_end_metrics(plain: dict[str, list[dict]]) -> dict[str, float]:
    every = [r for recs in plain.values() for r in recs]
    times = [ref_s(typical(recs)) for recs in plain.values()]
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s_p50": statistics.median(times),
        "peak_rss_mb": max(r["peak_rss_kib"] for r in every) / 1024,
        "setup_s": statistics.median(r["import_s"] * r["speed"] for r in every),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "torelli" / "cli.py").is_file():
        print(f"error: no torelli sources under {src}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    # numpy's OpenBLAS otherwise starts a worker thread at import that spins
    # on the other CPU; on a 2-vCPU VM that slowed numpy's import by up to 2x
    # in some phases and not in others (README.md, Noise).  The program does
    # no BLAS work, so its output and job times do not change.
    env["OPENBLAS_NUM_THREADS"] = "1"
    jobs = jobs_for(args.workload, args.seed)
    plain: dict[str, list[dict]] = {job.name: [] for job in jobs}
    traced: dict[str, list[dict]] = {job.name: [] for job in jobs}
    rounds = 0
    while True:
        round_started = time.monotonic()
        for job in jobs:
            plain[job.name].append(spawn(job, False, env, deadline))
            if args.trace:
                traced[job.name].append(spawn(job, True, env, deadline))
        rounds += 1
        now = time.monotonic()
        if now - started >= args.seconds or now + (now - round_started) > deadline:
            break

    # check every execution; identical output is checked once
    verdicts: dict[tuple[str, str], list] = {}
    failures: dict[str, list] = {}
    attempted = failed = 0
    deterministic = True
    for job in jobs:
        outputs = set()
        for record in plain[job.name] + traced[job.name]:
            attempted += 1
            key = (job.name, record.get("stdout", record.get("crash", "")))
            if key not in verdicts:
                verdicts[key] = check_record(job, record, args.seed)
            outputs.add(key[1])
            if verdicts[key]:
                failed += 1
                failures[job.name] = verdicts[key]
        deterministic = deterministic and len(outputs) == 1
    by_name = {job.name: job for job in jobs}
    unexpected = sorted(name for name in failures if by_name[name].known_fault is None)
    mended = sorted(
        job.name for job in jobs if job.known_fault is not None and job.name not in failures
    )
    correct = deterministic and not unexpected

    print(f"# workload {args.workload}, seed {args.seed}, {rounds} rounds of {len(jobs)} jobs, "
          f"{time.monotonic() - started:.1f} s")
    for name in sorted(failures):
        where, expected, printed = failures[name][0]
        fault = by_name[name].known_fault or "UNEXPECTED"
        print(f"# FAIL {name}: {where} expected {expected}, printed {printed}  [{fault}]")
    for name in mended:
        print(f"# MENDED {name}: known to fail, now right  [{by_name[name].known_fault}]")
    if not deterministic:
        print("# NONDETERMINISTIC: a job printed different output in different rounds")

    complete = all("crash" not in r for recs in list(plain.values()) + list(traced.values()) for r in recs)
    if not complete:
        print("# some job process did not report; no metrics", file=sys.stderr)
        metrics: dict[str, float] = {}
    elif args.trace:
        metrics = per_layer_metrics(plain, traced)
        for layer, share in layer_shares(traced).items():
            print(f"# self-time share {layer}: {share:.3f}")
    else:
        metrics = end_to_end_metrics(plain)
        print(f"# job_s_p50: median of {len(plain)} jobs, each the median of {rounds} rounds")

    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds,
        "jobs": {
            job.name: {
                "argv": list(job.argv),
                "known_fault": job.known_fault,
                "failure": [list(map(str, m)) for m in failures.get(job.name, [])],
                "runs": [
                    {k: v for k, v in r.items() if k != "stdout"}
                    for r in plain[job.name] + traced[job.name]
                ],
            }
            for job in jobs
        },
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))

    if not complete:
        return 1
    units = {name: ("s" if name.endswith("_s") else "count") for name in PER_LAYER}
    units.update(END_TO_END_UNITS)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
