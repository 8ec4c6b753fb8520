"""Sweep shards and merge, re-runs that finish a stopped sweep, failures.

A sweep that stopped early is finished by running it again: the points
it completed replay from the fsynced result cache. Both that re-run and
``--shard`` + ``merge`` must reproduce the uninterrupted run's
``sweep.json``/``sweep.csv`` modulo timing fields. A failed point fails
its run with the worker traceback, without stopping its siblings.
"""

import csv
import json
import multiprocessing
import os

import pytest

from repro.errors import ConfigError, SchemaVersionError
from repro.eval import sweep as sweep_mod
from repro.eval.orchestrator import Orchestrator, PointRequest
from repro.eval.registry import REGISTRY, ExperimentRegistry, experiment
from repro.eval.sweep import (
    Shard,
    canonical_document,
    merge_shards,
    parse_shard,
    run_sweep,
    shard_points,
    spec_from_dict,
)

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

MAC_2X2_TOML = """
[sweep]
name = "m22"
experiment = "mac_policy"

[[sweep.axes]]
param = "granule_bytes"
values = [64, 256]

[[sweep.axes]]
param = "policy"
values = ["eager", "delayed"]

[[sweep.metrics]]
name = "perf"
path = "perf_overhead"
"""


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


class TestShardPartition:
    def test_parse_shard(self):
        assert parse_shard("2/4") == Shard(index=2, count=4)
        for bad in ("0/4", "5/4", "a/b", "1", "1/0", "-1/2"):
            with pytest.raises(ConfigError):
                parse_shard(bad)

    def test_round_robin_slices(self):
        points = sweep_mod.expand(spec_from_dict(MAC_2X2))
        one = shard_points(points, Shard(1, 2))
        two = shard_points(points, Shard(2, 2))
        assert [p.index for p in one] == [0, 2]
        assert [p.index for p in two] == [1, 3]
        assert shard_points(points, None) == points

    def test_more_shards_than_points_allows_empty(self, results_env):
        points = sweep_mod.expand(spec_from_dict(MAC_2X2))
        assert shard_points(points, Shard(6, 8)) == []


class TestShardMerge:
    def run_reference(self, monkeypatch, tmp_path):
        ref_dir = tmp_path / "reference"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(ref_dir))
        spec = spec_from_dict(MAC_2X2)
        result = run_sweep(spec, jobs=1, verbose=False)
        document = json.load(open(result.json_path))
        rows = canonical_csv(result.csv_path)
        return document, rows

    def test_two_shards_merge_equals_single_run(self, tmp_path, monkeypatch):
        ref_doc, ref_rows = self.run_reference(monkeypatch, tmp_path)
        shard_dir = tmp_path / "sharded"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(shard_dir))
        spec = spec_from_dict(MAC_2X2)
        for k in (1, 2):
            result = run_sweep(spec, jobs=1, verbose=False, shard=Shard(k, 2))
            shard_doc = json.load(open(result.json_path))
            assert shard_doc["shard"] == {"index": k, "count": 2}
            assert len(shard_doc["points"]) == 2
        merged, json_path, csv_path = merge_shards(spec, verbose=False)
        assert json_path == str(shard_dir / "sweeps" / "m22" / "sweep.json")
        written = json.load(open(json_path))
        assert written == merged
        assert canonical_document(written) == canonical_document(ref_doc)
        assert canonical_csv(csv_path) == ref_rows
        assert [s["index"] for s in written["shards"]] == [1, 2]
        assert written["counts"] == {"executed": 4, "cached": 0, "failed": 0}

    def test_merge_refuses_incomplete_coverage(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2))
        with pytest.raises(ConfigError, match="expected shards 1..2"):
            merge_shards(spec, verbose=False)

    def test_merge_refuses_crashed_shard(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2))
        # Shard 2 "crashed": its directory exists but holds no sweep.json.
        os.makedirs(results_env / "sweeps" / "m22" / "shards" / "2of2")
        with pytest.raises(ConfigError, match="no sweep.json"):
            merge_shards(spec, verbose=False)

    def test_merge_without_shards_is_config_error(self, results_env):
        with pytest.raises(ConfigError, match="no shard runs"):
            merge_shards(spec_from_dict(MAC_2X2), verbose=False)

    def test_merge_refuses_stale_schema_shard(self, results_env, tmp_path, capsys):
        from repro.cli import main

        spec = spec_from_dict(MAC_2X2)
        paths = [
            run_sweep(spec, jobs=1, verbose=False, shard=Shard(k, 2)).json_path for k in (1, 2)
        ]
        with open(paths[0], encoding="utf-8") as f:
            document = json.load(f)
        document.update(schema_version=1, schema=1)
        with open(paths[0], "w", encoding="utf-8") as f:
            json.dump(document, f)
        with pytest.raises(SchemaVersionError) as excinfo:
            merge_shards(spec, verbose=False)
        assert (excinfo.value.found, excinfo.value.expected) == (1, 2)
        toml_path = tmp_path / "m22.toml"
        toml_path.write_text(MAC_2X2_TOML, encoding="utf-8")
        assert main(["sweep", "merge", str(toml_path), "-q"]) == 2
        assert "schema version 1" in capsys.readouterr().err


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
    def write_spec(self, tmp_path):
        path = tmp_path / "m22.toml"
        path.write_text(MAC_2X2_TOML, encoding="utf-8")
        return str(path)

    def test_shard_run_merge_flow(self, results_env, tmp_path, capsys):
        from repro.cli import main

        path = self.write_spec(tmp_path)
        assert main(["sweep", "run", path, "--shard", "1/2", "-j", "1", "-q"]) == 0
        assert main(["sweep", "merge", path, "-q"]) != 0  # shard 2/2 missing
        assert "missing [2]" in capsys.readouterr().err
        assert main(["sweep", "run", path, "--shard", "2/2", "-j", "1", "-q"]) == 0
        capsys.readouterr()
        assert main(["sweep", "merge", path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["points"]) == 4

    def test_bad_shard_exits_2(self, results_env, tmp_path, capsys):
        from repro.cli import main

        path = self.write_spec(tmp_path)
        assert main(["sweep", "run", path, "--shard", "3/2"]) == 2
        assert "shard index" in capsys.readouterr().err

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
