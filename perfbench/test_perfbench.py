"""Tests of the benchmark itself: generator, output checks, tracer, BENCHMARK.json."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks      # noqa: E402
import run         # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402
from worker import run_pass   # noqa: E402

import nilpoisson.algebra as algebra      # noqa: E402
import nilpoisson.cli as cli              # noqa: E402
import nilpoisson.cohomology as cohomology  # noqa: E402
import nilpoisson.exterior as exterior    # noqa: E402
import nilpoisson.sparse as sparse        # noqa: E402
from nilpoisson.catalog import parse_spec  # noqa: E402


def _reference(workload):
    return checks.load_reference(workload)


# -- seeded spec generator ------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_random_specs_are_reproducible_and_valid(seed):
    texts = [workloads.random_two_step_spec(seed, index) for index in range(3)]
    assert texts == [workloads.random_two_step_spec(seed, index) for index in range(3)]
    assert len(set(texts)) == 3
    assert texts[0] != workloads.random_two_step_spec(seed + 1, 0)
    for index, text in enumerate(texts):
        spec = parse_spec(text)
        assert spec.name == f"random-2step:{seed}.{index}"
        report = algebra.validate(spec)
        assert report.step == 2


def test_job_lists_are_seeded_orders_of_fixed_lists(tmp_path):
    _, first = workloads.build("small-batch", 1, str(tmp_path))
    _, again = workloads.build("small-batch", 1, str(tmp_path))
    _, other = workloads.build("small-batch", 2, str(tmp_path))
    assert first == again
    assert sorted(j.key for j in first) == sorted(j.key for j in other)
    assert len({j.key for j in first}) == len(first)
    emit = next(i for i, j in enumerate(first) if j.save_stdout)
    assert first[emit + 1].argv[1] == first[emit].save_stdout


# -- output checks ---------------------------------------------------------------


def test_compare_allows_added_keys_but_not_changed_values():
    reference = {"a": 1, "b": {"c": [1, 2]}, "d": True}
    assert checks.compare(reference, {**reference, "new": 3}) == []
    changed = copy.deepcopy(reference)
    changed["b"]["c"][1] = 5
    assert checks.compare(reference, changed) == ["$.b.c[1]: expected 2, got 5"]
    assert checks.compare(reference, {"a": 1, "b": {"c": [1, 2]}}) == ["$.d: missing"]
    assert checks.compare(reference, {**reference, "d": 1})   # bool is not int


def test_invariants_hold_on_reference_payloads_and_catch_breaks():
    ref = _reference("random-2step")
    payload = next(e["payload"] for e in ref.values() if e["payload"])
    assert payload["max_degree"] == payload["algebra"]["dim_l"]
    assert checks.invariants(payload, workloads.RANDOM_N * 2) == []

    broken = copy.deepcopy(payload)
    broken["hn_lambda"]["3"] += 1
    assert any("Euler sum of H^n" in p for p in checks.invariants(broken, None))

    broken = copy.deepcopy(payload)
    broken["hpq"]["1,2"] += 1
    problems = checks.invariants(broken, None)
    assert any("Dolbeault row p=1" in p for p in problems)

    broken = copy.deepcopy(payload)
    broken["hn_lambda"]["0"] = 99
    assert any("exceeds the Dolbeault sum" in p for p in checks.invariants(broken, None))

    deform = {"dims": {"0": 1, "1": 2, "2": 1}, "k1_kernel_dim": 2}
    assert checks.invariants(deform, 2) == []
    deform["dims"]["2"] = 2
    assert checks.invariants(deform, 2)
    assert checks.invariants(deform, 8) == []     # not at full degree: no check

    job = workloads.Job(key="x", argv=(), json=True)
    assert checks.check_job(job, 0, '{"hn_lambda": {}, "hpq": {}}', {})   # no crash


def test_checked_pass_counts_a_corrupted_reference_as_failed(tmp_path):
    _, jobs = workloads.build("small-batch", 0, str(tmp_path))
    job = next(j for j in jobs if j.key == "analyze w4n6:0 --poisson V^T2 --json")
    reference = _reference("small-batch")
    assert run_pass(cli, [job], reference)["failures"] == []

    corrupted = copy.deepcopy(reference)
    corrupted[job.key]["payload"]["hn_lambda"]["1"] += 1
    failures = run_pass(cli, [job], corrupted)["failures"]
    assert len(failures) == 1 and "hn_lambda" in failures[0]["problems"][0]

    wrong_exit = workloads.Job(key="x", argv=("analyze", "w4n6:0", "--poisson", "T1^T2"))
    assert run_pass(cli, [wrong_exit], {})["failures"][0]["problems"] == [
        "exit code 1, expected 0"]


def _copy_benchmark(destination, with_program: bool):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), destination)
    shutil.copytree(HERE, os.path.join(destination, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(destination, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def _run_benchmark(directory, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch", "--seed", "0",
         "--seconds", "1", *extra], cwd=directory, capture_output=True, text=True, timeout=170)


def test_run_with_a_corrupted_reference_reports_failures(tmp_path):
    _copy_benchmark(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    entry = reference["small-batch"]["analyze w4n6:0 --poisson V^T2 --json"]
    entry["payload"]["hn_lambda"]["1"] += 1
    path.write_text(json.dumps(reference))

    done = _run_benchmark(tmp_path, "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    _copy_benchmark(tmp_path, with_program=False)
    done = _run_benchmark(tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- tracer -------------------------------------------------------------------------


def test_tracer_wraps_every_binding_site_and_restores_them():
    originals = {
        (cli, "validate"): cli.validate, (cli, "analyze"): cli.analyze,
        (cli, "first_page"): cli.first_page, (cohomology, "rank"): cohomology.rank,
        (cohomology, "kernel_vectors"): cohomology.kernel_vectors,
        (algebra, "kernel_vectors"): algebra.kernel_vectors,
        (exterior, "validate"): exterior.validate, (sparse, "rank"): sparse.rank,
    }
    method = exterior.ExteriorComplex.__dict__["operator_block"]
    t = tracer.Tracer()
    found = t.install()
    try:
        assert len(found) == len(tracer.TARGETS)
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
        t.start_job("j")
        code = cli.main(["analyze", "w4n6:0", "--poisson", "V^T1", "--json"])
    finally:
        t.uninstall()
    assert code == 0
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    assert exterior.ExteriorComplex.__dict__["operator_block"] is method

    metrics = t.pass_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["cohomology.dolbeault_dims.calls"] == 2
    assert metrics["sparse.rank.dense.calls"] > 0          # through OperatorMatrix.rank
    assert metrics["sparse.kernel_vectors.calls"] > 0      # first_page and validate
    assert metrics["exterior.operator_block.built"] > 0
    assert 0 < metrics["exterior.operator_block.memo_hit_ratio"] < 1
    assert t.root_s > 0
    roots = [s for s in t.spans if s[2] == tracer.ROOT_SPAN]
    assert len(roots) == 1 and roots[0][1] is None
    assert all(s[3] == "j" for s in t.spans)


def test_tracer_reads_zero_for_targets_the_program_no_longer_has(monkeypatch):
    gone = tracer.Target("sparse.kernel_vectors", "sparse", "no_such_function")
    targets = tuple(t for t in tracer.TARGETS if t.name != "sparse.kernel_vectors") + (gone,)
    t = tracer.Tracer()
    found = t.install(targets)
    try:
        code = cli.main(["analyze", "w4n6:0", "--poisson", "V^T1", "--json"])
    finally:
        t.uninstall()
    assert code == 0 and "sparse.kernel_vectors" not in found
    metrics = t.pass_metrics()
    assert metrics["sparse.kernel_vectors.calls"] == 0
    assert metrics["sparse.kernel_vectors.vectors_out"] == 0
    assert metrics["sparse.rank.dense.calls"] > 0

    # Without DENSE_CUTOFF every rank call counts as sparse.
    small = sparse.SparseMatrix(2, 2, {})
    assert tracer._rank_route((small,), {}) == "dense"
    monkeypatch.setitem(sys.modules, "nilpoisson.sparse", types.SimpleNamespace())
    assert tracer._rank_route((small,), {}) == "sparse"


# -- BENCHMARK.json --------------------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert bench["paths"] == ["perfbench"]
