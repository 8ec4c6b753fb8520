"""Re-runs that finish a stopped sweep, failures, and the digest file.

A sweep that stopped early is finished by running it again: the points
it completed replay from the fsynced result cache, and the re-run must
reproduce the uninterrupted run's ``sweep.json``/``sweep.csv`` modulo
timing fields. A failed point fails its run with the worker traceback,
without stopping its siblings.
"""

import csv
import json
import multiprocessing
import os

import pytest

from repro.eval.orchestrator import Orchestrator, PointRequest
from repro.eval.registry import REGISTRY, ExperimentRegistry, experiment
from repro.eval.sweep import canonical_document, run_sweep, spec_from_dict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A cheap 2x2 matrix over the analytic mac_policy scenario.
MAC_2X2 = {
    "name": "m22",
    "experiment": "mac_policy",
    "axes": [
        {"param": "granule_bytes", "values": [64, 256]},
        {"param": "policy", "values": ["eager", "delayed"]},
    ],
    "metrics": [{"name": "perf", "path": "perf_overhead"}],
}


@pytest.fixture
def results_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def temp_experiment():
    """Inject a throwaway experiment into the global registry."""
    injected = []

    def inject(name, func, render=None):
        registry = ExperimentRegistry()
        experiment(name, render=render, registry=registry)(func)
        REGISTRY.load_all()
        REGISTRY._specs[name] = registry._specs[name]
        injected.append(name)
        return REGISTRY._specs[name]

    yield inject
    for name in injected:
        REGISTRY._specs.pop(name, None)


def canonical_csv(path):
    """CSV rows minus the run-volatile status/cached/elapsed columns."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    volatile = {header.index(c) for c in ("status", "cached", "elapsed_s")}
    return [
        [cell for i, cell in enumerate(row) if i not in volatile] for row in rows
    ]


class TestErrorCapture:
    """Regression: failures must carry the full worker-side traceback."""

    def test_pool_failure_keeps_worker_traceback(self, results_env):
        # policy="lazy" passes the str schema check and raises inside the
        # worker process; the recorded error must name the raising frame
        # in repro code, not just the pool join site.
        points = [
            PointRequest(experiment="mac_policy", params={"policy": "lazy"},
                         label="p/lazy"),
            PointRequest(experiment="mac_policy", params={"policy": "eager"},
                         label="p/eager"),
        ]
        report = Orchestrator(jobs=2, use_cache=False, verbose=False).run_points(points)
        assert not report.ok
        failed = next(r for r in report.runs if r.name == "p/lazy")
        assert failed.status == "failed"
        assert failed.error_type == "ConfigError"
        assert "unknown policy" in failed.error
        assert "scenarios.py" in failed.error  # the worker-side frame
        record = failed.manifest_record()
        assert record["error_type"] == "ConfigError"
        assert "unknown policy" in record["error"]
        # The healthy sibling point still completed: no poisoning.
        ok = next(r for r in report.runs if r.name == "p/eager")
        assert ok.status == "executed"

    def test_inline_failure_keeps_traceback(self, results_env, temp_experiment):
        def boom() -> str:
            raise RuntimeError("kaput from the experiment body")

        temp_experiment("boom", boom)
        report = Orchestrator(jobs=1, use_cache=False, verbose=False).run(
            only=["boom"]
        )
        run = report.runs[0]
        assert run.status == "failed"
        assert run.error_type == "RuntimeError"
        assert "kaput from the experiment body" in run.error
        assert "in boom" in run.error  # the raising frame, not just the message

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="temp experiments reach pool workers only under fork",
    )
    def test_hard_worker_death_fails_point_without_crashing_run(
        self, results_env, temp_experiment
    ):
        # A worker dying hard (segfault/OOM-kill shape, here os._exit)
        # breaks the process pool; the run must record the failures and
        # still produce its report and manifest instead of propagating
        # BrokenProcessPool.
        def die() -> str:
            os._exit(1)

        def fine() -> str:
            return "survivor"

        temp_experiment("die-hard", die)
        temp_experiment("fine", fine)
        report = Orchestrator(jobs=2, use_cache=False, verbose=False).run_points(
            [
                PointRequest(experiment="die-hard", label="p/die"),
                PointRequest(experiment="fine", label="p/fine"),
            ]
        )
        assert not report.ok
        died = next(r for r in report.runs if r.name == "p/die")
        assert died.status == "failed"
        assert "BrokenProcessPool" in died.error_type
        # Every point is in the report and in the written manifest.
        assert {r.name for r in report.runs} == {"p/die", "p/fine"}
        manifest = json.load(open(results_env / "manifest.json"))
        assert {row["name"] for row in manifest["experiments"]} == {"p/die", "p/fine"}


class TestRerun:
    def test_rerun_finishes_a_stopped_sweep(self, tmp_path, monkeypatch):
        """A sweep that stopped after two points is finished by a plain
        re-run: the two completed points replay from the result cache, the
        other two execute, and the outputs equal an uninterrupted run's
        (modulo timing fields)."""
        ref_dir = tmp_path / "reference"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(ref_dir))
        spec = spec_from_dict(MAC_2X2)
        reference = run_sweep(spec, jobs=1, verbose=False)
        ref_doc = json.load(open(reference.json_path))
        ref_rows = canonical_csv(reference.csv_path)

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "stopped"))
        stopped = run_sweep(spec, jobs=1, verbose=False, limit=2)
        assert stopped.report.counts() == {"executed": 2, "cached": 0, "failed": 0}
        finished = run_sweep(spec, jobs=1, verbose=False)
        assert finished.report.counts() == {"executed": 2, "cached": 2, "failed": 0}
        res_doc = json.load(open(finished.json_path))
        assert canonical_document(res_doc) == canonical_document(ref_doc)
        assert canonical_csv(finished.csv_path) == ref_rows
        # The output tree is the consolidated outputs, nothing else.
        assert sorted(os.listdir(finished.out_dir)) == [
            "manifest.json",
            "points",
            "sweep.csv",
            "sweep.json",
        ]


class TestCli:
    def test_digest_check_only_subset(self, results_env, capsys):
        from repro.cli import main

        path = os.path.join(REPO, "benchmarks", "artifact_digests.json")
        assert main(["digest", "--check", path,
                     "--only", "table1_config,hw_overhead"]) == 0
        out = capsys.readouterr().out
        assert "table1_config: ok" in out
        assert "fig16_overall" not in out  # the subset really subsets
        assert main(["digest", "--check", path, "--only", "nope"]) == 2
        assert "not in" in capsys.readouterr().err


class TestDigestFile:
    def test_all_sixteen_fixed_artifacts_tracked(self):
        recorded = json.load(
            open(os.path.join(REPO, "benchmarks", "artifact_digests.json"))
        )
        names = set(recorded["experiments"])
        assert len(names) == 16
        paper = {s.name for s in REGISTRY.select(tags=("paper",))}
        ablations = {s.name for s in REGISTRY.select(tags=("ablation",))}
        assert names == paper | ablations
