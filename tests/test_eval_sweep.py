"""Sweep specs, matrix expansion, multi-point orchestration, and the CLI."""

import json
import os

import pytest

from repro.errors import ConfigError
from repro.eval import sweep as sweep_mod
from repro.eval.orchestrator import Orchestrator, PointRequest
from repro.eval.registry import REGISTRY
from repro.eval.sweep import (
    expand,
    extract_metric,
    load_spec,
    run_sweep,
    spec_from_dict,
)

#: A cheap 2x2 matrix over the analytic mac_policy scenario.
MAC_2X2 = {
    "name": "mac2x2",
    "experiment": "mac_policy",
    "description": "unit-test matrix",
    "axes": [
        {"param": "granule_bytes", "values": [64, 256]},
        {"param": "policy", "values": ["eager", "delayed"]},
    ],
    "metrics": [
        {"name": "perf", "path": "perf_overhead"},
        {"name": "storage", "path": "storage_overhead"},
        {"name": "missing", "path": "no.such.path"},
    ],
}


@pytest.fixture
def results_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


def write_toml(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


class TestSpecParsing:
    def test_from_dict_roundtrip(self):
        spec = spec_from_dict(MAC_2X2)
        assert spec.name == "mac2x2"
        assert spec.experiment == "mac_policy"
        assert spec.mode == "grid"
        assert spec.n_points() == 4
        assert [a.param for a in spec.axes] == ["granule_bytes", "policy"]
        assert [m.name for m in spec.metrics] == ["perf", "storage", "missing"]

    def test_toml_file(self, tmp_path):
        path = write_toml(
            tmp_path / "t.toml",
            """
            [sweep]
            name = "t"
            experiment = "mac_policy"

            [[sweep.axes]]
            param = "policy"
            values = ["eager", "delayed"]
            """,
        )
        spec = load_spec(path)
        assert spec.name == "t"
        assert spec.n_points() == 2

    def test_spec_by_name_from_sweeps_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEPS_DIR", str(tmp_path))
        write_toml(
            tmp_path / "mine.toml",
            """
            [sweep]
            name = "mine"
            experiment = "mac_policy"

            [[sweep.axes]]
            param = "granule_bytes"
            values = [64]
            """,
        )
        assert sweep_mod.available_specs() == ["mine"]
        assert load_spec("mine").name == "mine"

    def test_unknown_spec_listed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEPS_DIR", str(tmp_path))
        with pytest.raises(ConfigError, match="no sweep spec"):
            load_spec("nope")

    def test_missing_sweep_table(self, tmp_path):
        path = write_toml(tmp_path / "bad.toml", "[other]\nx = 1\n")
        with pytest.raises(ConfigError, match="missing \\[sweep\\] table"):
            load_spec(path)

    def test_unknown_experiment_rejected(self):
        raw = dict(MAC_2X2, experiment="fig99_nope")
        with pytest.raises(ConfigError, match="unknown experiment"):
            spec_from_dict(raw)

    def test_unknown_axis_param_rejected(self):
        raw = dict(MAC_2X2, axes=[{"param": "bogus", "values": [1]}])
        with pytest.raises(ConfigError, match="no parameter"):
            spec_from_dict(raw)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="'mode'"):
            spec_from_dict(dict(MAC_2X2, mode="diagonal"))

    def test_duplicate_axis_rejected(self):
        axes = [
            {"param": "policy", "values": ["eager"]},
            {"param": "policy", "values": ["delayed"]},
        ]
        with pytest.raises(ConfigError, match="duplicate axis"):
            spec_from_dict(dict(MAC_2X2, axes=axes))

    def test_zip_length_mismatch_rejected(self):
        axes = [
            {"param": "granule_bytes", "values": [64, 256]},
            {"param": "policy", "values": ["eager"]},
        ]
        with pytest.raises(ConfigError, match="equal-length"):
            spec_from_dict(dict(MAC_2X2, axes=axes, mode="zip"))

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError, match="'axes'"):
            spec_from_dict(dict(MAC_2X2, axes=[]))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            spec_from_dict(dict(MAC_2X2, extra=1))

    def test_type_mismatch_rejected_at_parse_time(self):
        # granule_bytes is annotated int; a string value must fail the
        # schema validation that every expanded point goes through.
        raw = dict(MAC_2X2, axes=[{"param": "granule_bytes", "values": ["big"]}])
        with pytest.raises(ConfigError, match="expects int"):
            spec_from_dict(raw)

    def test_malformed_toml_names_the_file(self, tmp_path):
        path = write_toml(tmp_path / "broken.toml", '[sweep]\nname = "open\n')
        with pytest.raises(ConfigError, match="cannot parse sweep spec .*broken.toml"):
            load_spec(path)

    def test_duplicate_axis_values_rejected(self):
        raw = dict(MAC_2X2, axes=[{"param": "granule_bytes", "values": [64, 64]}])
        with pytest.raises(ConfigError, match="duplicate values"):
            spec_from_dict(raw)
        # Mixed types that slug identically must raise the clean error,
        # not a TypeError from sorting unlike types.
        raw = dict(MAC_2X2, axes=[{"param": "policy", "values": [0, "0"]}])
        with pytest.raises(ConfigError, match="duplicate values"):
            spec_from_dict(raw)

    def test_shipped_specs_parse_with_enough_points(self):
        names = sweep_mod.available_specs()
        assert {"npu_scaling", "mee_geometry", "mac_policy"} <= set(names)
        for name in names:
            spec = load_spec(name)
            assert spec.n_points() >= 8, name
            assert spec.metrics, name


class TestExpansion:
    def test_grid_order_and_ids(self):
        spec = spec_from_dict(MAC_2X2)
        points = expand(spec)
        assert [p.point_id for p in points] == [
            "granule_bytes=64,policy=eager",
            "granule_bytes=64,policy=delayed",
            "granule_bytes=256,policy=eager",
            "granule_bytes=256,policy=delayed",
        ]
        assert points[0].params == {"granule_bytes": 64, "policy": "eager"}
        assert points[3].coords == {"granule_bytes": 256, "policy": "delayed"}

    def test_zip_mode(self):
        raw = dict(
            MAC_2X2,
            mode="zip",
            axes=[
                {"param": "granule_bytes", "values": [64, 256]},
                {"param": "policy", "values": ["eager", "delayed"]},
            ],
        )
        points = expand(spec_from_dict(raw))
        assert [p.point_id for p in points] == [
            "granule_bytes=64,policy=eager",
            "granule_bytes=256,policy=delayed",
        ]

    def test_quick_truncates_axes(self):
        raw = dict(
            MAC_2X2,
            axes=[
                {"param": "granule_bytes", "values": [64, 256, 1024, 4096]},
                {"param": "policy", "values": ["eager", "delayed"]},
            ],
        )
        spec = spec_from_dict(raw)
        assert len(expand(spec)) == 8
        assert len(expand(spec, quick=True)) == 4

    def test_limit(self):
        spec = spec_from_dict(MAC_2X2)
        assert len(expand(spec, limit=3)) == 3
        with pytest.raises(ConfigError, match="limit"):
            expand(spec, limit=0)

    def test_base_merged_under_axes(self):
        raw = dict(MAC_2X2, base={"preset": "410m"})
        point = expand(spec_from_dict(raw))[0]
        assert point.params["preset"] == "410m"
        assert point.params["granule_bytes"] == 64

    def test_nested_dataclass_axis(self):
        raw = {
            "name": "fig18geo",
            "experiment": "fig18_hit_rate",
            "base": {"iterations": 2},
            "axes": [
                {"param": "config.meta_table_capacity", "values": [128, 288]},
            ],
        }
        points = expand(spec_from_dict(raw))
        assert [p.params["config"].meta_table_capacity for p in points] == [128, 288]
        # Untouched fields keep the experiment default (FIG18_CONFIG).
        assert all(p.params["config"].n_layers == 24 for p in points)
        assert points[0].point_id == "meta_table_capacity=128"

    def test_fig18_merge_window_zero_is_a_config_error(self):
        raw = {
            "name": "fig18window",
            "experiment": "fig18_hit_rate",
            "base": {"iterations": 1},
            "axes": [{"param": "config.merge_window", "values": [0]}],
        }
        (point,) = expand(spec_from_dict(raw))
        with pytest.raises(ConfigError, match="merge window"):
            REGISTRY.get("fig18_hit_rate").execute(**point.params)

    def test_nested_unknown_field_rejected(self):
        raw = {
            "name": "bad",
            "experiment": "fig18_hit_rate",
            "axes": [{"param": "config.bogus_field", "values": [1]}],
        }
        with pytest.raises(ConfigError, match="no field 'bogus_field'"):
            spec_from_dict(raw)

    def test_nested_into_scalar_rejected(self):
        raw = {
            "name": "bad",
            "experiment": "mac_policy",
            "axes": [{"param": "granule_bytes.nope", "values": [1]}],
        }
        with pytest.raises(ConfigError, match="non-dataclass"):
            spec_from_dict(raw)


class TestMetricExtraction:
    SUMMARY = {"a": {"b": [10, {"c": 42}]}, "flat": 1.5}

    def test_paths(self):
        assert extract_metric(self.SUMMARY, "flat") == 1.5
        assert extract_metric(self.SUMMARY, "a.b.0") == 10
        assert extract_metric(self.SUMMARY, "a.b.1.c") == 42

    def test_missing_paths_are_none(self):
        assert extract_metric(self.SUMMARY, "nope") is None
        assert extract_metric(self.SUMMARY, "a.b.9") is None
        assert extract_metric(self.SUMMARY, "a.b.x") is None
        assert extract_metric(self.SUMMARY, "flat.deeper") is None
        assert extract_metric(None, "flat") is None


class TestSweepExecution:
    def test_end_to_end_2x2_and_cached_rerun(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        first = run_sweep(spec, jobs=1, verbose=False)
        assert first.ok
        assert first.report.counts()["executed"] == 4
        records = first.point_records()
        assert [r["point"] for r in records] == [p.point_id for p in first.points]
        for record in records:
            assert record["metrics"]["perf"] is not None
            assert record["metrics"]["missing"] is None
            assert os.path.exists(record["artifact"])
        # Consolidated outputs.
        document = json.load(open(first.json_path))
        assert document["schema_version"] == 2
        assert document["schema"] == 2
        assert document["sweep"] == "mac2x2"
        assert document["experiment"] == "mac_policy"
        assert len(document["points"]) == 4
        csv_text = open(first.csv_path).read().splitlines()
        assert csv_text[0] == (
            "point,granule_bytes,policy,status,cached,elapsed_s,perf,storage,missing"
        )
        assert len(csv_text) == 5
        manifest = json.load(open(results_env / "sweeps" / "mac2x2" / "manifest.json"))
        assert [e["experiment"] for e in manifest["experiments"]] == ["mac_policy"] * 4
        # Unchanged re-run: every point replays from the content-hash cache.
        second = run_sweep(spec, jobs=1, verbose=False)
        assert second.report.counts() == {"executed": 0, "cached": 4, "failed": 0}
        assert [r["metrics"] for r in second.point_records()] == [r["metrics"] for r in records]

    def test_delayed_policy_beats_eager_at_coarse_granularity(self, results_env):
        # The scenario the sweep exists to expose: at 4 KiB granules the
        # eager stall dwarfs the delayed barrier tail.
        raw = dict(
            MAC_2X2,
            name="coarse",
            axes=[
                {"param": "granule_bytes", "values": [4096]},
                {"param": "policy", "values": ["eager", "delayed"]},
            ],
        )
        result = run_sweep(spec_from_dict(raw), jobs=1, verbose=False)
        eager, delayed = [r["metrics"]["perf"] for r in result.point_records()]
        assert delayed < eager / 3

    def test_quick_run_records_truncation(self, results_env):
        raw = dict(
            MAC_2X2,
            name="quicky",
            axes=[
                {"param": "granule_bytes", "values": [64, 256, 1024]},
                {"param": "policy", "values": ["eager", "delayed"]},
            ],
        )
        result = run_sweep(spec_from_dict(raw), jobs=1, quick=True, verbose=False)
        document = result.document()
        assert document["quick"] is True
        assert len(document["points"]) == 4
        # The document's axes are what was actually swept, not the spec's
        # full value lists.
        assert document["axes"][0] == {"param": "granule_bytes", "values": [64, 256]}

    def test_table_renders_all_points(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        result = run_sweep(spec, jobs=1, verbose=False, write=False)
        table = result.table()
        assert "granule_bytes" in table and "policy" in table
        assert table.count("\n") >= 6  # title + header + rule + 4 rows

    @pytest.mark.slow
    def test_parallel_matches_serial(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        serial = run_sweep(spec, jobs=1, use_cache=False, verbose=False, write=False)
        parallel = run_sweep(spec, jobs=2, use_cache=False, verbose=False, write=False)
        assert [r["metrics"] for r in serial.point_records()] == [
            r["metrics"] for r in parallel.point_records()
        ]


class TestOrchestratorPoints:
    def test_duplicate_labels_rejected(self, results_env):
        points = [
            PointRequest(experiment="mac_policy", params={"policy": "eager"}),
            PointRequest(experiment="mac_policy", params={"policy": "delayed"}),
        ]
        with pytest.raises(ConfigError, match="duplicate point label"):
            Orchestrator(jobs=1, verbose=False).run_points(points)

    def test_points_share_experiment_distinct_cache_keys(self, results_env):
        points = [
            PointRequest(
                experiment="mac_policy", params={"policy": "eager"}, label="p/eager"
            ),
            PointRequest(
                experiment="mac_policy", params={"policy": "delayed"}, label="p/delayed"
            ),
        ]
        report = Orchestrator(jobs=1, verbose=False).run_points(points, write_manifest=False)
        assert report.ok
        keys = {r.cache_key for r in report.runs}
        assert len(keys) == 2
        assert all(r.experiment == "mac_policy" for r in report.runs)
        assert [r.name for r in report.runs] == ["p/eager", "p/delayed"]


class TestScenarioExperiments:
    def test_scenarios_registered(self):
        names = {s.name for s in REGISTRY.select(tags=("scenario",))}
        assert names == {
            "scale_npu_pipeline",
            "mee_cache_geometry",
            "mac_policy",
            "attention_layout",
            "stride_detection",
        }

    def test_mee_geometry_capacity_monotonic(self):
        small = REGISTRY.get("mee_cache_geometry").func(capacity_kib=8, iterations=2)
        large = REGISTRY.get("mee_cache_geometry").func(capacity_kib=128, iterations=2)
        assert large.hit_rate > small.hit_rate
        assert large.mean_covered_level < small.mean_covered_level

    def test_mac_policy_bad_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            REGISTRY.get("mac_policy").func(policy="lazy")

    @pytest.mark.parametrize("param, value", [("block_q", 0), ("block_k", -32), ("block_q", -32)])
    def test_attention_layout_bad_block_rejected(self, param, value):
        with pytest.raises(ConfigError, match=f"AttentionConfig.{param} must be positive"):
            REGISTRY.get("attention_layout").func(n_heads=1, seq_len=64, **{param: value})

    def test_attention_sweep_base_bad_block_fails_point(self, results_env):
        raw = {
            "name": "attn_bad_block",
            "experiment": "attention_layout",
            "base": {"n_heads": 1, "seq_len": 64, "block_k": -32},
            "axes": [{"param": "head_dim", "values": [16]}],
        }
        result = run_sweep(spec_from_dict(raw), jobs=1, verbose=False, write=False)
        [record] = result.point_records()
        assert record["status"] == "failed"
        assert record["error_type"] == "ConfigError"
        assert "AttentionConfig.block_k must be positive, got -32" in record["error"]

    @pytest.mark.slow
    def test_scale_npu_pipeline_batch_effect(self):
        run = REGISTRY.get("scale_npu_pipeline").func
        small = run(preset="410m", batch_size=1)
        large = run(preset="410m", batch_size=16)
        assert small.speedup > large.speedup > 1.0
        assert large.tensortee_s > small.tensortee_s


class TestScaledModels:
    def test_presets_resolve_and_derive_params(self):
        from repro.workloads.models import SCALING_PRESETS, scaled_model

        for preset in SCALING_PRESETS:
            model = scaled_model(preset.name)
            assert model.batch_size == preset.default_batch
            assert model.n_params > 0

    def test_batch_override_and_errors(self):
        from repro.workloads.models import scaled_model

        assert scaled_model("410m", batch_size=7).batch_size == 7
        with pytest.raises(ConfigError, match="unknown scaling preset"):
            scaled_model("900t")
        with pytest.raises(ConfigError, match="batch size"):
            scaled_model("410m", batch_size=-1)


class TestCli:
    def test_sweep_run_smoke(self, results_env, tmp_path, capsys):
        from repro.cli import main

        path = write_toml(
            tmp_path / "smoke.toml",
            """
            [sweep]
            name = "smoke"
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
            """,
        )
        assert main(["sweep", "run", path, "--jobs", "1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counts"]["executed"] == 4
        assert {p["point"] for p in document["points"]} == {
            "granule_bytes=64,policy=eager",
            "granule_bytes=64,policy=delayed",
            "granule_bytes=256,policy=eager",
            "granule_bytes=256,policy=delayed",
        }
        assert os.path.exists(results_env / "sweeps" / "smoke" / "sweep.csv")

    def test_sweep_run_json_is_the_written_document(self, results_env, capsys):
        from repro.cli import main

        assert main(["sweep", "run", "mac_policy", "--limit", "1", "--jobs", "1", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        with open(results_env / "sweeps" / "mac_policy" / "sweep.json", encoding="utf-8") as f:
            assert printed == json.load(f)

    def test_sweep_show_and_list(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SWEEPS_DIR", str(tmp_path))
        write_toml(
            tmp_path / "mini.toml",
            """
            [sweep]
            name = "mini"
            experiment = "mac_policy"

            [[sweep.axes]]
            param = "policy"
            values = ["eager", "delayed"]
            """,
        )
        assert main(["sweep", "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing == [
            {
                "name": "mini",
                "experiment": "mac_policy",
                "mode": "grid",
                "points": 2,
                "description": "",
            }
        ]
        assert main(["sweep", "show", "mini"]) == 0
        out = capsys.readouterr().out
        assert "policy=eager" in out and "policy=delayed" in out

    def test_sweep_unknown_spec_exits_2(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SWEEPS_DIR", str(tmp_path))
        assert main(["sweep", "run", "nope"]) == 2
        assert "no sweep spec" in capsys.readouterr().err

    def test_run_unknown_tag_exits_2(self, results_env, capsys):
        from repro.cli import main

        assert main(["run", "--tag", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "matches no experiments" in err
        assert "fig16_overall" in err  # the valid names are listed

    def test_run_empty_only_exits_2(self, results_env, capsys):
        from repro.cli import main

        assert main(["run", "--only", ","]) == 2
        assert "--only given but empty" in capsys.readouterr().err

    def test_list_unknown_tag_exits_2(self, capsys):
        from repro.cli import main

        assert main(["list", "--tag", "scenarios"]) == 2  # typo for 'scenario'
        assert "matches no experiments" in capsys.readouterr().err

    def test_digest_matches_written_artifact_bytes(self, results_env):
        # The digest must equal sha256sum of the results/<name>.txt a run
        # writes, not of the raw render text.
        import hashlib

        from repro.cli import artifact_digest
        from repro.eval.orchestrator import Orchestrator

        Orchestrator(jobs=1, use_cache=False, verbose=False).run(
            only=["fig20_mac_granularity"], write_manifest=False
        )
        written = (results_env / "fig20_mac_granularity.txt").read_bytes()
        assert artifact_digest("fig20_mac_granularity") == hashlib.sha256(written).hexdigest()

    def test_digest_update_check_and_drift(self, results_env, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "digests.json")
        assert main(["digest", "--update", path, "--only", "fig20_mac_granularity"]) == 0
        capsys.readouterr()
        assert main(["digest", "--check", path]) == 0
        assert "ok" in capsys.readouterr().out
        recorded = json.load(open(path))
        recorded["experiments"]["fig20_mac_granularity"] = "0" * 64
        json.dump(recorded, open(path, "w"))
        assert main(["digest", "--check", path]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_committed_digest_file_matches(self, results_env):
        # The CI artifact-digest lane must pass on a clean checkout: the
        # checked-in digests track the current models byte for byte. The
        # file now records all 16 fixed artifacts; regenerating the slow
        # ones takes ~30 s, so the unit test verifies the fast-cost subset
        # via --only and leaves the full sweep to the CI lane.
        from repro.cli import main
        from repro.eval.registry import REGISTRY

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(repo, "benchmarks", "artifact_digests.json")
        recorded = set(json.load(open(path))["experiments"])
        fast = [
            s.name
            for s in REGISTRY.specs()
            if s.cost == "fast" and s.name in recorded
        ]
        assert fast  # the subset is never empty
        assert main(["digest", "--check", path, "--only", ",".join(fast)]) == 0


class TestRegistryValidation:
    def test_scalar_type_checks(self):
        spec = REGISTRY.get("mac_policy")
        with pytest.raises(ConfigError, match="expects int"):
            spec.validate_params({"granule_bytes": "64"})
        with pytest.raises(ConfigError, match="expects str"):
            spec.validate_params({"policy": 3})
        with pytest.raises(ConfigError, match="expects int"):
            spec.validate_params({"granule_bytes": True})
        spec.validate_params({"granule_bytes": 64, "policy": "eager"})  # clean

    def test_default_of(self):
        spec = REGISTRY.get("mac_policy")
        assert spec.default_of("granule_bytes") == 512
        with pytest.raises(ConfigError, match="no parameter"):
            spec.default_of("bogus")
