"""Self-tests of the benchmark harness (not part of the tier-1 suite):

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import mcvlie.arrangement  # noqa: E402

DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
OTHER_SEED = 7


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = json.dumps(workloads.build(workload, workloads.DEFAULT_SEED))
    again = json.dumps(workloads.build(workload, workloads.DEFAULT_SEED))
    assert first == again


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs_with_the_same_verdicts(workload):
    base = workloads.build(workload, workloads.DEFAULT_SEED)
    other = workloads.build(workload, OTHER_SEED)
    assert [j["argv"] for j in base] != [j["argv"] for j in other] or any(
        a["input"] != b["input"] for a, b in zip(base, other))
    _, _, records = worker.run_batch(other)
    assert [(i, r["failure"]) for i, r in enumerate(records) if r["failure"]] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_stdout_and_is_removed(workload):
    original = mcvlie.arrangement.codim2_flats
    jobs = workloads.build(workload, workloads.DEFAULT_SEED)
    _, _, plain = worker.run_batch(jobs)
    tracer = Tracer()
    tracer.install()
    try:
        assert mcvlie.arrangement.codim2_flats is not original
        _, _, traced = worker.run_batch(jobs, tracer)
    finally:
        tracer.remove()
    assert mcvlie.arrangement.codim2_flats is original
    assert [r["failure"] for r in plain] == [None] * len(plain)
    assert [r["sha256"] for r in plain] == DIGESTS[workload]
    assert [r["sha256"] for r in traced] == DIGESTS[workload]
    layers = tracer.metrics()
    assert layers["trace.spans"] == len(tracer.spans) > 0
    if workload == "tuple-certify":
        touched = {k: v for k, v in layers.items()
                   if k.startswith(("arrangement.", "holonomy.")) and v}
        assert touched == {}


def test_runner_fails_without_the_program():
    lone = BENCH / "out" / "lone-checkout"
    shutil.rmtree(lone, ignore_errors=True)
    shutil.copytree(BENCH, lone / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", lone)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kz-highrank", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=lone, capture_output=True, text=True, timeout=180)
    shutil.rmtree(lone)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
