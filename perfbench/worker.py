"""Benchmark worker: one process, one client, a closed loop of CLI jobs.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR [--setup-only]

The worker imports ``nilpoisson`` from ``src/``, writes the workload's
spec files into DIR and prints ``ready``; that line ends set-up.  It
then calls ``nilpoisson.cli.main(argv)`` for one job after another, so
each job builds its own ``ExteriorComplex`` as a CLI run does, and
repeats the job list while another full list fits in S seconds (at
least once).  With ``--trace 1`` it alternates untraced and traced
passes.  The last stdout line is a JSON object with the timings, the
check results and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

import checks
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_job(cli, job):
    """Run one job; returns (seconds, exit code, stdout).

    An exception escaping ``main`` reads as the exit code "crash: <exception>".
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except Exception as exc:   # a crash is a failed job, never the end of the run
            code = f"crash: {exc!r}"
    seconds = time.perf_counter() - start
    if job.save_stdout:
        with open(job.save_stdout, "w") as handle:
            handle.write(out.getvalue())
    return seconds, code, out.getvalue()


def run_pass(cli, jobs, reference, tracer=None, pass_id=0):
    """One pass over the job list; returns its timings and failures."""
    times, failures, job_wall = [], [], 0.0
    for index, job in enumerate(jobs):
        gc.collect()     # every job starts from a collected heap; not timed
        if tracer is not None:
            tracer.start_job(f"{pass_id}.{index}")
        seconds, code, stdout = run_job(cli, job)
        job_wall += seconds
        times.append(seconds)
        problems = checks.check_job(job, code, stdout, reference)
        if problems:
            failures.append({"job": job.key, "pass": pass_id, "problems": problems})
    return {"seconds": times, "batch_s": job_wall, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the spans of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nilpoisson.cli as cli

    files, jobs = workloads.build(args.workload, args.seed, args.workdir)
    workloads.write_files(files, args.workdir)
    reference = checks.load_reference(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    passes, layer_passes = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        pass_start = time.perf_counter()
        untraced = run_pass(cli, jobs, reference, pass_id=len(passes))
        passes.append(untraced)
        if tracer is not None:
            tracer.reset_pass()
            tracer.install()
            try:
                traced = run_pass(cli, jobs, reference, tracer, pass_id=len(passes))
            finally:
                tracer.uninstall()
            metrics = tracer.pass_metrics()
            metrics["trace.span_coverage"] = tracer.root_s / traced["batch_s"]
            metrics["trace.overhead"] = traced["batch_s"] / untraced["batch_s"]
            layer_passes.append(metrics)
            untraced["failures"] += traced["failures"]
        spent = time.perf_counter() - pass_start
        if time.perf_counter() + spent > deadline:
            break

    result = {
        "passes": [{"seconds": p["seconds"], "batch_s": p["batch_s"]} for p in passes],
        "job_keys": [job.key for job in jobs],
        "attempted": len(passes) * len(jobs) * (2 if tracer else 1),
        "failures": [f for p in passes for f in p["failures"]],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = layer_passes
        if args.spans:
            with open(args.spans, "w") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
