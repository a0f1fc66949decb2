"""Write reference.json: exit code and --json payload of every job at the default seed.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted; the benchmark then
holds every later version of the program to these outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks      # noqa: E402
import workloads   # noqa: E402
from worker import run_job   # noqa: E402


def main() -> int:
    import nilpoisson.cli as cli

    reference = {}
    workdir = os.path.join(ROOT, ".bench_out", "reference-work")
    try:
        for name in workloads.WORKLOADS:
            files, jobs = workloads.build(name, workloads.DEFAULT_SEED, workdir)
            workloads.write_files(files, workdir)
            entries = {}
            for job in jobs:
                _, code, stdout = run_job(cli, job)
                if code != job.expect:
                    print(f"{name}: {job.key} exited {code}, expected {job.expect}",
                          file=sys.stderr)
                    return 1
                payload = json.loads(stdout) if job.json and code == 0 else None
                entries[job.key] = {"exit": code, "payload": payload}
            reference[name] = entries
            print(f"{name}: {len(entries)} jobs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
