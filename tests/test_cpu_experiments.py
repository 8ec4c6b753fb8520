"""CPU experiment drivers and timing model (Figs. 3, 18, 19 + GEMM claim)."""

import tracemalloc

import pytest

from repro.cpu import adam
from repro.cpu.adam import AdamExperiment, AdamExperimentConfig
from repro.cpu.config import CpuConfig
from repro.cpu.gemm import GemmExperiment
from repro.cpu.metadata_model import measure_sgx_metadata, tree_levels
from repro.cpu.sgx import sgx_costs
from repro.cpu.softvn import softvn_costs
from repro.cpu.tensortee_mode import AnalyzerRates, tensortee_costs
from repro.cpu.timing import adam_latency, non_secure_costs, slowdown
from repro.errors import ConfigError
from repro.units import GiB, KiB
from repro.workloads.traces import GemmConfig

P = 345_000_000


@pytest.fixture(scope="module")
def cpu_config():
    return CpuConfig()


class TestMetadataModel:
    def test_tree_levels_grow_with_region(self):
        assert tree_levels(1 << 20) < tree_levels(1 << 28)

    def test_streaming_rates_reasonable(self):
        t = measure_sgx_metadata(1 * GiB, sample_lines=20_000, streams=4)
        # VN and MAC lines each miss about 1/8 of the time when streaming.
        assert 0.15 < t.read_txns_per_line < 1.0
        assert t.write_txns_per_line > 0
        assert t.metadata_hit_rate > 0.5

    def test_transient_memory_stays_small(self):
        # Keys are built per stream and visit, not per slot: a call holds a
        # few tuples and ring buckets, whatever its sample size.
        tracemalloc.start()
        try:
            measure_sgx_metadata(4 * GiB, sample_lines=4000, streams=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * KiB

    @pytest.mark.parametrize("streams", [0, -2])
    def test_non_positive_streams_is_a_config_error(self, streams):
        with pytest.raises(ConfigError, match="streams must be positive"):
            measure_sgx_metadata(1 * GiB, sample_lines=1000, streams=streams)

    @pytest.mark.parametrize("write_fraction", [-0.5, 1.5, 2.0, float("nan")])
    def test_write_fraction_outside_unit_interval_is_a_config_error(self, write_fraction):
        with pytest.raises(ConfigError, match="write fraction must be within"):
            measure_sgx_metadata(1 * GiB, sample_lines=1000, write_fraction=write_fraction)


class TestTimingModel:
    def test_non_secure_scales_with_threads(self, cpu_config):
        t1 = adam_latency(cpu_config, P, 1, non_secure_costs()).total_s
        t8 = adam_latency(cpu_config, P, 8, non_secure_costs()).total_s
        assert 3.0 < t1 / t8 < 8.0

    @pytest.mark.slow
    def test_sgx_slowdown_grows_with_threads(self, cpu_config):
        s4 = slowdown(cpu_config, P, 4, sgx_costs(cpu_config, threads=4))
        s8 = slowdown(cpu_config, P, 8, sgx_costs(cpu_config, threads=8))
        assert s8 > s4 > 1.5

    def test_fig19_sgx_anchor_points(self, cpu_config):
        """Paper: 2.64x @4t, 3.65x @8t. Accept +/-15%."""
        s4 = slowdown(cpu_config, P, 4, sgx_costs(cpu_config, threads=4))
        s8 = slowdown(cpu_config, P, 8, sgx_costs(cpu_config, threads=8))
        assert s4 == pytest.approx(2.64, rel=0.15)
        assert s8 == pytest.approx(3.65, rel=0.15)

    def test_fig19_softvn_anchor_points(self, cpu_config):
        s4 = slowdown(cpu_config, P, 4, softvn_costs(cpu_config, threads=4))
        s8 = slowdown(cpu_config, P, 8, softvn_costs(cpu_config, threads=8))
        assert s4 == pytest.approx(1.04, abs=0.06)
        assert s8 == pytest.approx(1.13, abs=0.08)

    def test_tensortee_steady_state_near_non_secure(self, cpu_config):
        rates = AnalyzerRates(1.0, 0.0, 0.0, 1.0, 0.0)
        s8 = slowdown(cpu_config, P, 8, tensortee_costs(cpu_config, rates, threads=8))
        assert 1.0 <= s8 < 1.08

    def test_tensortee_cold_close_to_sgx(self, cpu_config):
        rates = AnalyzerRates(0.0, 0.0, 1.0, 0.0, 1.0)
        cold = slowdown(cpu_config, P, 8, tensortee_costs(cpu_config, rates, threads=8))
        sgx = slowdown(cpu_config, P, 8, sgx_costs(cpu_config, threads=8))
        assert cold == pytest.approx(sgx, rel=0.25)


class TestAdamExperiment:
    def test_convergence_and_consistency(self):
        experiment = AdamExperiment(
            AdamExperimentConfig(
                n_layers=4, lines_per_tensor=32, threads=4, meta_table_capacity=512
            )
        )
        records = experiment.run(4)  # raises internally on VN divergence
        assert records[0].hit_all < records[-1].hit_all + 1e-9
        assert records[-1].hit_in > 0.9

    def test_transfer_install_covers_grads_immediately(self):
        experiment = AdamExperiment(
            AdamExperimentConfig(
                n_layers=4,
                lines_per_tensor=32,
                threads=4,
                meta_table_capacity=512,
                install_transfer_descriptors=True,
            )
        )
        first = experiment.run_iteration()
        assert first.hit_in > 0.15  # grad reads hit the installed entries

    @pytest.mark.parametrize(
        "field, value",
        [("threads", 0), ("burst_lines", 0), ("thread_skew", 1.0), ("write_lag_bursts", -1)],
    )
    def test_bad_trace_shape_rejected_before_setup(self, monkeypatch, field, value):
        def build_adam_groups(*args, **kwargs):
            raise AssertionError("Adam groups built for a trace shape that is rejected")

        monkeypatch.setattr(adam, "build_adam_groups", build_adam_groups)
        with pytest.raises(ConfigError, match=f"AdamTraceConfig.{field} must"):
            AdamExperiment(AdamExperimentConfig(**{field: value}))


class TestGemmExperiment:
    def test_second_pass_hit_in_matches_paper_claim(self):
        """Sec. 6.2: 98.8% hit_in after structures are built."""
        experiment = GemmExperiment(GemmConfig())
        first = experiment.run_pass()
        second = experiment.run_pass()
        assert second.hit_in > 0.95
        assert second.hit_all > 0.98
        assert first.hit_all > 0.9  # boundary extensions dominate pass 0

    def test_entries_consolidate(self):
        experiment = GemmExperiment(GemmConfig(m=128, n=128, k=128))
        experiment.run_pass()
        experiment.run_pass()
        # Three matrices should end up in a handful of merged entries.
        assert experiment.analyzer.table.n_entries <= 12
