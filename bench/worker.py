"""One batch in a fresh process: every job of a job list (read as JSON from
stdin), one at a time, through `mcvlie.cli.main(argv)` with stdin, stdout
and stderr captured.  Prints one JSON report on its own stdout.

    python3 bench/worker.py TRACE [SPANS_FILE] < jobs.json
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from speed import Speedometer  # noqa: E402

from mcvlie.cli import main as cli_main  # noqa: E402


def _call(job):
    """The job as a call returning (exit code, stdout), or (None, reason)
    when the CLI raises."""
    def call():
        out = io.StringIO()
        sys.stdin = io.StringIO(job["input"] or "")
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                return cli_main(job["argv"]), out.getvalue()
        except Exception as exc:  # a job that raises is a failed job, not a dead run
            return None, f"raised {type(exc).__name__}: {exc}"
        finally:
            sys.stdin = sys.__stdin__

    return call


def run_batch(jobs, tracer=None):
    """Run the job list once; returns (batch seconds, peak RSS in MB, per-job
    records).  Untraced batches also time each job against the machine's
    speed (see speed.py); traced batches do not, so probes add no spans."""
    results = []
    meter = None if tracer else Speedometer()
    if meter:
        meter.spin()  # speed samples before the first job
        meter.start()
    start = perf_counter()
    try:
        for i, job in enumerate(jobs):
            call = _call(job)
            t0 = perf_counter()
            code, out = tracer.run_job(i, call) if tracer else call()
            results.append((t0, perf_counter(), code, out))
        batch_s = perf_counter() - start
    finally:
        if meter:
            meter.stop()
    if meter:
        meter.spin()  # and after the last
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = []
    for job, (t0, t1, code, out) in zip(jobs, results):
        seconds, normalised = meter.normalise(t0, t1) if meter else (t1 - t0, None)
        golden = (ROOT / job["golden"]).read_text(encoding="utf-8") if "golden" in job else None
        records.append({
            "kind": job["kind"],
            "ms": seconds * 1000.0,
            "norm_ms": None if normalised is None else normalised * 1000.0,
            "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "bytes": len(out.encode("utf-8")),
            "failure": out if code is None else checks.failure(job, code, out, golden),
        })
    return batch_s, peak_rss_mb, records


def main(argv):
    jobs = json.load(sys.stdin)
    tracer = None
    trace = argv[0] == "1"
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        batch_s, peak_rss_mb, records = run_batch(jobs, tracer)
    finally:
        if tracer:
            tracer.remove()
    report = {
        "batch_s": batch_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": records,
    }
    if tracer:
        report["layers"] = tracer.metrics()
        if len(argv) > 1:
            with open(argv[1], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
