"""The learned cost model and serve-side fan-out sizing.

Covers :mod:`repro.eval.cost` (manifest history ingestion, fallback
chain, static priors) and ``repro serve``'s ``--autosplit-min-seconds``
fan-out sizing.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.eval.cost import (
    SOURCE_EXPERIMENT,
    SOURCE_POINT,
    SOURCE_PRIOR,
    STATIC_PRIORS,
    CostModel,
)

from test_serve import (  # noqa: F401  (fixtures)
    service,
    sweeps_env,
)


@pytest.fixture
def results_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestCostModel:
    def test_static_priors_strictly_ordered(self):
        # The orchestrator's history-free fallback relies on this strict
        # ordering — the pre-fix binary sort left medium tied with fast.
        assert STATIC_PRIORS["slow"] > STATIC_PRIORS["medium"] > STATIC_PRIORS["fast"]
        model = CostModel()
        slow = model.predict("never-ran", cost_class="slow")
        medium = model.predict("never-ran", cost_class="medium")
        fast = model.predict("never-ran", cost_class="fast")
        assert slow.seconds > medium.seconds > fast.seconds
        assert {slow.source, medium.source, fast.source} == {SOURCE_PRIOR}
        assert slow.samples == 0

    def test_fallback_chain_point_experiment_prior(self):
        model = CostModel()
        model.observe("exp", {"a": 1}, 4.0)
        point = model.predict("exp", {"a": 1})
        assert point.source == SOURCE_POINT and point.seconds == 4.0
        sibling = model.predict("exp", {"a": 2})
        assert sibling.source == SOURCE_EXPERIMENT and sibling.seconds == 4.0
        unknown = model.predict("other", cost_class="slow")
        assert unknown.source == SOURCE_PRIOR
        assert unknown.seconds == STATIC_PRIORS["slow"]

    def test_median_estimator_resists_outliers(self):
        model = CostModel()
        for elapsed in (1.0, 2.0, 90.0):
            model.observe("exp", {}, elapsed)
        assert model.predict("exp", {}).seconds == 2.0

    def test_ewma_estimator_weights_recent(self):
        model = CostModel(estimator="ewma", ewma_alpha=0.5)
        model.observe("exp", {}, 2.0, ts=1.0)
        model.observe("exp", {}, 10.0, ts=2.0)
        assert model.predict("exp", {}).seconds == pytest.approx(6.0)

    def test_window_drops_ancient_samples(self):
        model = CostModel(window=2)
        model.observe("exp", {}, 100.0, ts=1.0)
        model.observe("exp", {}, 1.0, ts=2.0)
        model.observe("exp", {}, 3.0, ts=3.0)
        assert model.predict("exp", {}).seconds == 2.0

    def test_nonpositive_elapsed_dropped(self):
        model = CostModel()
        model.observe("exp", {}, 0.0)
        model.observe("exp", {}, -1.0)
        assert model.sample_count() == 0
        assert model.predict("exp", {}).source == SOURCE_PRIOR

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"estimator": "mean"},
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"window": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CostModel(**kwargs)

    def test_from_results_ingests_root_sweep_and_shard_manifests(self, results_env):
        def write_manifest(path, rows):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps({"generated_at": "2026-08-08T00:00:00", "experiments": rows})
            )

        write_manifest(
            results_env / "manifest.json",
            [
                {"experiment": "exp_a", "params": {"n": 1}, "status": "executed", "elapsed_s": 3.0},
                {"experiment": "exp_a", "status": "failed", "elapsed_s": 9.0},
                {"experiment": "exp_b", "status": "cached", "elapsed_s": 0.0},
            ],
        )
        write_manifest(
            results_env / "sweeps" / "s1" / "manifest.json",
            [
                {"experiment": "exp_b", "params": {"n": 2}, "status": "executed", "elapsed_s": 7.0},
                {"experiment": "exp_b", "params": {"n": 3}, "status": "failed", "elapsed_s": 5.0},
            ],
        )
        # A cached row carries its original execution's seconds.
        write_manifest(
            results_env / "sweeps" / "s1" / "shards" / "1of2" / "manifest.json",
            [{"experiment": "exp_c", "params": {"n": 4}, "status": "cached", "elapsed_s": 2.0}],
        )
        # A torn sibling manifest must be skipped, not fail the build.
        torn = results_env / "sweeps" / "s2" / "manifest.json"
        torn.parent.mkdir(parents=True)
        torn.write_text('{"experiments": [{"experiment": "exp_d", "elap')

        model = CostModel.from_results(root=str(results_env))
        assert model.predict("exp_a", {"n": 1}).seconds == 3.0
        assert model.predict("exp_a", {"n": 1}).source == SOURCE_POINT
        # Failed rows and zero-elapsed cached rows contribute nothing.
        assert model.predict("exp_b", {"n": 2}).seconds == 7.0
        assert model.predict("exp_b", {"n": 3}).source == SOURCE_EXPERIMENT
        assert model.predict("exp_c", {"n": 4}).seconds == 2.0
        assert model.predict("exp_c", {"n": 4}).source == SOURCE_POINT
        assert model.predict("exp_d", cost_class="slow").source == SOURCE_PRIOR
        assert model.sample_count() == 3


class TestAutosplitSizing:
    def test_sizing_shrinks_fanout_to_min_seconds(self, results_env, sweeps_env, service):
        # Four fast-prior points predict ~4s of work: at >= 2s per shard
        # the requested width of 4 must shrink to 2 shard jobs.
        svc, client = service(external_only=True, autosplit=4, autosplit_min_s=2.0)
        view = client.submit({"task": "sweep", "spec": "m22", "quick": True})
        assert len(view["children"]) == 2

    def test_sizing_collapses_tiny_sweeps_to_one_job(self, results_env, sweeps_env, service):
        svc, client = service(external_only=True, autosplit=4, autosplit_min_s=1000.0)
        view = client.submit({"task": "sweep", "spec": "m22", "quick": True})
        assert not view.get("children")

    def test_explicit_client_width_is_never_resized(self, results_env, sweeps_env, service):
        svc, client = service(external_only=True, autosplit=4, autosplit_min_s=1000.0)
        view = client.submit({"task": "sweep", "spec": "m22", "quick": True, "shards": 3})
        assert len(view["children"]) == 3

    def test_sizing_off_by_default(self, results_env, sweeps_env, service):
        svc, client = service(external_only=True, autosplit=4)
        view = client.submit({"task": "sweep", "spec": "m22", "quick": True})
        assert len(view["children"]) == 4

    def test_negative_min_seconds_rejected(self, results_env):
        from repro.serve.server import JobService

        with pytest.raises(ConfigError, match="autosplit-min-seconds"):
            JobService(port=0, verbose=False, autosplit_min_s=-1.0)
