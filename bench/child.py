"""Run one torelli CLI job in this fresh interpreter and report it as JSON.

    python3 child.py <trace 0|1> <argv of the job...>

Prints one JSON object: the job's stdout and exit code, the calibration
times before the import and after the job, the import time of `torelli.cli` with everything it imports, the job
time (the wall time of `torelli.cli.run(argv)`, writing into memory), the
peak resident set, and with trace 1 the span and counter summary.  Once
`torelli.cli` is imported it writes READY_MARK to stderr, so that the
import-time report of `python -X importtime` can be cut at that point.
"""

import statistics
import time
import sys
from fractions import Fraction

READY_MARK = "bench: torelli.cli imported"


def calibrate() -> float:
    """Wall time of a fixed piece of exact arithmetic like the program's
    (Fractions, big integers, a dict); it measures how fast this machine is
    running this process right now."""
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 2000):
        total += Fraction(i % 7 + 1, i)
        seen[i] = total.numerator % 1000
    x = 3**4000
    for i in range(200):
        x = (x * 7 + i) % 5**4000
    return time.perf_counter() - start


def main() -> int:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    # before torelli is imported, so the program cannot change it
    cal_s = statistics.median(calibrate() for _ in range(5))
    started = time.perf_counter()
    import torelli.cli

    import_s = time.perf_counter() - started
    sys.stderr.write(READY_MARK + "\n")
    sys.stderr.flush()

    import io
    import json
    import resource

    run = torelli.cli.run
    recorder = None
    if trace:
        import layers

        recorder = layers.install()
        run = recorder.wrap(run, "cli.run")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = run(argv, out=out, err=err)
    job_s = time.perf_counter() - start
    # again after the job, so that a slow phase of the machine that starts
    # during the job is seen too; without the collector, which would scan
    # what the job left behind
    import gc

    gc.disable()
    cal_after_s = statistics.median(calibrate() for _ in range(5))
    record = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "cal_s": cal_s,
        "cal_after_s": cal_after_s,
        "import_s": import_s,
        "job_s": job_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": recorder.summary() if recorder else None,
    }
    sys.stdout.write(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
