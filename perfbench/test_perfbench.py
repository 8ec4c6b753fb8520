"""Checks on the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


@pytest.fixture(scope="module")
def catalogue():
    return run.load_catalogue()


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory):
    """One traced collab_e2e pass (the cheapest workload) in a fresh child."""
    child = run.Child("collab_e2e", 2024, str(tmp_path_factory.mktemp("work")))
    return child.round(["1"])[0]


def test_benchmark_json_matches_the_metrics_the_code_reports(catalogue, benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(catalogue["workloads"])
    assert {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]} == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert declared == run.per_layer_units(catalogue)


def test_each_timed_pass_starts_cold(tmp_path):
    child = run.Child("collab_e2e", 2024, str(tmp_path))
    for record in child.round(["0"] * len(child.cpus)):
        assert record["cold"] == {
            "cpu.sgx._measured": 0,
            "core.system.steady_state_rates": 0,
        }
    assert len(child.setup_s) == len(child.cpus)


def test_traced_pass_reports_only_declared_metrics(catalogue, traced_pass):
    units = run.per_layer_units(catalogue)
    assert set(traced_pass["layers"]) | {"trace.overhead_s"} == set(units)
    assert traced_pass["layers"]["cpu.metadata_model.sample_lines"] > 0
    for layer in ("crypto", "mem.mee", "mem.metadata_cache", "npu.pipeline", "tee", "serve"):
        assert traced_pass["layers"][f"{layer}.calls"] == 0


def test_traced_pass_checks_out_at_the_default_seed(catalogue, traced_pass):
    checker = run.OpChecker(2024, catalogue["default_seed"])
    checker.check(traced_pass["ops"])
    assert checker.attempted == len(catalogue["workloads"]["collab_e2e"]["experiments"])
    assert checker.failures == []


def test_digest_mismatch_and_failure_count_as_failed_operations(catalogue):
    checker = run.OpChecker(2024, catalogue["default_seed"])
    ops = [
        {"name": "hw_overhead", "pass": "", "status": "executed", "digest": "0" * 64,
         "error_type": None},
        {"name": "fig18_hit_rate", "pass": "", "status": "failed", "digest": None,
         "error_type": "AssertionError"},
    ]
    checker.check(ops)
    assert checker.attempted == 2 and len(checker.failures) == 2


def test_without_the_program_it_fails_without_a_result(tmp_path, benchmark_json):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = benchmark_json["command"] + ["--workload", "adam_cpu", "--seed", "1", "--seconds", "1"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
