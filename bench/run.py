"""mcvlie benchmark: seeded CLI workloads, end-to-end metrics, and a traced
per-layer run.

    python3 bench/run.py --workload kz-highrank --seed 1 --seconds 26 --trace 0

The closed loop has one client and runs one job at a time.  Each batch (the
workload's whole fixed job list) runs in a fresh worker process, so no cache
survives from one batch to the next; batches repeat until --seconds is used
up.  Job times are normalised to a reference machine speed (speed.py) and
each job's latency is the median over the batches.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 untraced and
traced batches alternate and it carries the per-layer metrics.  The line
before it is the run record.  Exit code 0 means the metrics are valid;
`correct` says whether every job's output was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402

SETUP_SPAWNS = 11
MIN_BATCHES = 3
DEADLINE_S = 170  # a run must end within 180 s, even when a job hangs
DIGESTS = BENCH / "digests.json"
SPANS_DIR = BENCH / "out"
# names, units and better directions of every reported metric
SPEC_FILE = ROOT / "BENCHMARK.json"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("MCVLIE_SEED", None)  # the CLI's seed must come from the job, not the shell
    return env


def _setup():
    """Time `import mcvlie.cli` in SETUP_SPAWNS fresh interpreters (after one
    untimed spawn, so bytecode compilation is not counted), each normalised
    by speed probes taken here just before and after the spawn.  Returns the
    median normalised import time, and the raw medians for the record."""
    argv = [sys.executable, str(BENCH / "setup_child.py")]
    meter = Speedometer()
    meter.spin()
    runs = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, timeout=60)
        t1 = time.perf_counter()
        meter.spin()
        if proc.returncode != 0:
            raise RuntimeError("cannot import mcvlie.cli: " + proc.stderr.decode()[-500:])
        if i:
            import_s = float(proc.stdout)
            runs.append((import_s * meter.factor(t0, t1), import_s, t1 - t0))
    setup_s, import_s, spawn_s = (statistics.median(col) for col in zip(*runs))
    return setup_s, {"import_s": import_s, "spawn_s": spawn_s}


def _batch(jobs_json, trace, deadline, spans_file=None):
    argv = [sys.executable, str(BENCH / "worker.py"), str(int(trace))]
    if spans_file:
        argv.append(str(spans_file))
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), input=jobs_json.encode("utf-8"),
                          capture_output=True, timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError("worker failed: " + proc.stderr.decode()[-2000:])
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _per_job(reports, key, pick):
    """One latency per job: pick() over the batches of each job's `key`."""
    return [pick(col) for col in zip(*([j[key] for j in r["jobs"]] for r in reports))]


def _run_batches(workload, seed, seconds, trace, deadline):
    """Alternate traced and untraced batches when tracing; returns the two
    lists of worker reports."""
    jobs_json = json.dumps(workloads.build(workload, seed))
    plain, traced = [], []
    start = time.perf_counter()
    walls = []
    while True:
        want_trace = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        spans_file = None
        if want_trace and not traced:
            SPANS_DIR.mkdir(exist_ok=True)
            spans_file = SPANS_DIR / f"{workload}-seed{seed}-spans.jsonl"
        (traced if want_trace else plain).append(_batch(jobs_json, want_trace, deadline, spans_file))
        walls.append(time.perf_counter() - t0)
        done = len(plain) + len(traced)
        enough = done >= MIN_BATCHES and (not trace or traced)
        if enough and time.perf_counter() - start + statistics.median(walls) > seconds:
            return plain, traced


def _failures(workload, seed, reports):
    """(job index, reason) for every failed job of every batch, counting
    digest mismatches on the default seed and stdout that changes between
    batches or under tracing."""
    digests = None
    if seed == workloads.DEFAULT_SEED and DIGESTS.exists():
        digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    reference = [j["sha256"] for j in reports[0]["jobs"]]
    out = []
    for report in reports:
        for i, job in enumerate(report["jobs"]):
            reason = job["failure"]
            if reason is None and job["sha256"] != reference[i]:
                reason = "stdout differs between batches (or with tracing on)"
            if reason is None and digests is not None and job["sha256"] != digests[i]:
                reason = "stdout differs from the digest recorded for the default seed"
            if reason is not None:
                out.append((i, reason))
    return out


def _premise(workload, layers):
    """Whether the traced run matches the reason the workload exists: the two
    named layers hold more than half of the time, by self time (`share`) and
    with exactcore's self time charged to its caller (`caller_share`); and
    tuple-certify never enters the arrangement or holonomy layers."""
    lead = {
        "arrangement-sweep": ("arrangement", "holonomy"),
        "kz-highrank": ("exactcore", "convolution"),
        "tuple-certify": ("analysis", "exactcore"),
    }[workload]
    out = {}
    for view in ("share", "caller_share"):
        total = sum(layers[f"{view}.{layer}"] for layer in lead)
        out[f"{'+'.join(lead)} {view}"] = round(total, 4)
        out[f"lead by {view}"] = total > 0.5
    if workload == "tuple-certify":
        touched = [k for k, v in layers.items()
                   if k.startswith(("arrangement.", "holonomy.")) and k.endswith("calls") and v]
        out["arrangement/holonomy untouched"] = not touched
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mcvlie" / "cli.py").is_file():
        print(f"bench: no mcvlie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup_s, setup_raw = _setup()
        plain, traced = _run_batches(args.workload, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    jobs = plain[0]["jobs"]
    failed = _failures(args.workload, args.seed, plain + traced)
    attempted = len(jobs) * (len(plain) + len(traced))
    latency = _per_job(plain, "norm_ms", statistics.median)
    end_to_end = {
        "setup_s": setup_s,
        "batch_s": sum(latency) / 1000.0,
        "job_p50_ms": statistics.median(latency),
        "job_p90_ms": statistics.quantiles(latency, n=10)[-1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    fail_ratio = len(failed) / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "batches": {"untraced": len(plain), "traced": len(traced)},
        "jobs_per_batch": len(jobs),
        "jobs_per_command": dict(sorted(Counter(j["kind"] for j in jobs).items())),
        "latency_samples": f"{len(latency)} jobs, each the median of {len(plain)} runs",
        "raw": dict(setup_raw, batch_wall_s=[r["batch_s"] for r in plain],
                    job_sum_fastest_s=sum(_per_job(plain, "ms", min)) / 1000.0),
        "failures": sorted({f"job {i}: {reason}" for i, reason in failed})[:20],
        # fail_ratio is 0 on a correct run, so it has no relative bound and is
        # not in BENCHMARK.json; the result line carries it as failed/attempted
        "end_to_end": dict(
            _described(spec["end_to_end"], end_to_end),
            fail_ratio={"value": fail_ratio, "unit": "ratio", "better": "lower",
                        "base": f"{attempted} jobs attempted"},
        ),
    }
    if args.trace:
        layers = _layer_metrics(plain, traced)
        record["premise"] = _premise(args.workload, layers)
        record["self_time_share"] = {k: v for k, v in layers.items() if "share." in k}
        record["per_layer"] = _described(spec["per_layer"], layers)
        metrics = record["per_layer"]
    else:
        metrics = record["end_to_end"]
    metrics = {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
               for k in (m["name"] for m in spec["per_layer" if args.trace else "end_to_end"])}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def _layer_metrics(plain, traced):
    first = traced[0]["layers"]
    out = {}
    for key, value in first.items():
        if key.endswith("self_s") or key.startswith(("share.", "caller_share.")):
            out[key] = statistics.median(r["layers"][key] for r in traced)
        else:
            out[key] = value  # counts and maxima: deterministic for a seed
    by_kind = {}
    for job, ms in zip(plain[0]["jobs"], _per_job(plain, "norm_ms", statistics.median)):
        by_kind.setdefault(job["kind"], []).append(ms)
    for kind in ("mc", "convolve", "closure", "check", "rh-check", "analyze",
                 "compose-check", "freelie"):
        out[f"cli.{kind}.p50_ms"] = statistics.median(by_kind[kind]) if kind in by_kind else 0.0
    out["cli.output_bytes"] = sum(j["bytes"] for j in plain[0]["jobs"])
    out["trace.overhead_ratio"] = (sum(_per_job(traced, "ms", min))
                                   / sum(_per_job(plain, "ms", min)))
    return out


def _described(specs, values):
    """Each specified metric with its value, unit and better direction."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"], "better": m["better"]}
            for m in specs}


if __name__ == "__main__":
    sys.exit(main())
