"""Run one workload of the nilpoisson benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It times set-up in several fresh
worker processes, then runs the workload in one more worker for about S
seconds, checks every job's output, and prints one line per metric
followed by a run record and, as the last line, a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run (spans are written to
``.bench_out/``).  It exits with a code other than 0, and prints no
result, when the program or a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
TIME_LIMIT_S = 170          # the whole run, set-up probes included
SETUP_PROBES = 9            # fresh workers timed to "ready", beside the measuring one
HASH_SEED = "0"             # PYTHONHASHSEED of every worker

sys.path.insert(0, HERE)
import tracer      # noqa: E402
import workloads   # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "job_s_p50": "s",
    "job_s_max": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = dict(tracer.layer_metric_units())


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("PYTHONPATH", None)
    return env


def _start_worker(args, workdir: str, deadline: float, extra=()):
    """Start a worker and wait for its "ready" line; returns (process, set-up seconds)."""
    command = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def _finish(proc, deadline: float) -> str:
    """Wait for a worker to end; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(result: dict, setups) -> dict:
    # Each job's time is its median over the passes.  On a shared host the
    # CPU throughput can dip for seconds at a time; a per-job median shrugs
    # off such a dip, where a per-pass sum would absorb it.
    passes = result["passes"]
    job_s = [statistics.median(p["seconds"][j] for p in passes)
             for j in range(len(result["job_keys"]))]
    return {
        "setup_s": statistics.median(setups),
        "batch_s": sum(job_s),
        "job_s_p50": statistics.median(job_s),
        "job_s_max": max(job_s),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }



def per_layer(result: dict) -> dict:
    """Median of each per-layer metric over the traced passes."""
    return {name: statistics.median(m[name] for m in result["layers"])
            for name in PER_LAYER_UNITS}


def run(args) -> tuple:
    if not os.path.isfile(os.path.join(ROOT, "src", "nilpoisson", "__init__.py")):
        raise BenchError("src/nilpoisson is missing: run from the root of a nilpoisson checkout")
    deadline = time.perf_counter() + TIME_LIMIT_S
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "loadavg_start": os.getloadavg(), "commit": _git_commit(),
        "pythonhashseed": HASH_SEED,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    try:
        # The first probe also fills the bytecode cache; it is not counted.
        setups = []
        for probe in range(SETUP_PROBES + 1):
            proc, setup = _start_worker(args, workdir, deadline, ["--setup-only"])
            _finish(proc, deadline)
            if probe:
                setups.append(setup)
        spans = os.path.join(OUT_DIR, f"spans-{tag}.jsonl")
        proc, setup = _start_worker(args, workdir, deadline,
                                    ["--spans", spans] if args.trace else [])
        setups.append(setup)
        result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()
    record["jobs"] = len(result["job_keys"])
    record["passes"] = len(result["passes"])
    record["setup_samples"] = setups
    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    summary = {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as handle:
        json.dump({"record": record, "result": result, "summary": summary}, handle, indent=1)
    return record, result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result, summary = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    for name, metric in summary["metrics"].items():
        print(f"{name:48s} {metric['value']:14.6f} {metric['unit']}")
    failed_frac = summary["failed"] / summary["attempted"]
    print(f"{'failed_frac':48s} {failed_frac:14.6f} ratio "
          f"({summary['failed']} of {summary['attempted']} jobs)")
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
