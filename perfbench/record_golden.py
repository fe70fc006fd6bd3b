"""Record the stdout sha256 of every job of every workload at the default seed.

    python3 perfbench/record_golden.py

Writes golden.json, which run.py compares against whenever it runs the
default seed.  Run it only at a commit whose reports are known good: the
program's contract is that reports stay byte-identical, so a later change
that alters any digest fails the benchmark's correctness gate.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from checks import check_report
from worker import run_job
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, run.SRC)
    from torloc import cli

    golden = {}
    for workload in WORKLOADS:
        manifest = run.prepare(workload, run.DEFAULT_SEED)
        digests = {}
        for job in manifest["jobs"]:
            code, stdout, _, error = run_job(cli, job["argv"])
            reason = error or check_report(job["check"], code, stdout)
            if reason is not None:
                print(f"{workload} {job['id']}: {reason}", file=sys.stderr)
                return 1
            digests[job["id"]] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        golden[workload] = digests
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
