"""Every job of the three benchmark workloads, at the seed its digests were
recorded on, prints byte for byte what `bench/digests.json` records: CLI
output that drifts fails here, not only in a bench run.  The job lists come
from bench/workloads.py, loaded read-only, and run in-process through
`mcvlie.cli.main`."""

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def _stdout(job) -> str:
    from mcvlie.cli import main

    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(job["input"] or "")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            main(job["argv"])
    finally:
        sys.stdin = old_stdin
    return out.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_outputs_match_recorded_digests(workload):
    jobs = WORKLOADS.build(workload, WORKLOADS.DEFAULT_SEED)
    assert len(jobs) == len(DIGESTS[workload])
    for i, (job, digest) in enumerate(zip(jobs, DIGESTS[workload])):
        got = hashlib.sha256(_stdout(job).encode("utf-8")).hexdigest()
        assert got == digest, (workload, i, job["argv"])
