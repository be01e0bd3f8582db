"""Record the sha256 of every job's stdout on the default seed.

    python3 bench/record_digests.py

run.py compares default-seed runs against bench/digests.json, so CLI output
that drifts by a single byte counts as a failed job.  Re-record only in a
change that means to alter CLI output, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        _, _, records = worker.run_batch(workloads.build(name, workloads.DEFAULT_SEED))
        bad = [(i, r["failure"]) for i, r in enumerate(records) if r["failure"]]
        if bad:
            print(f"{name}: refusing to record failed jobs {bad}", file=sys.stderr)
            return 1
        digests[name] = [r["sha256"] for r in records]
    with open(worker.BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
