"""Workload layer: Table-2 zoo, inventories, ZeRO-Offload volumes, traces."""

import pytest

from repro.errors import ConfigError
from repro.sim.trace_batch import KIND_WRITE
from repro.workloads.models import MODEL_ZOO, SCALING_PRESETS, model_by_name, scaled_model
from repro.workloads.traces import (
    AdamTraceConfig,
    AttentionConfig,
    GemmConfig,
    adam_iteration_batch,
    build_adam_groups,
    build_gemm_tensors,
    gemm_batch,
)
from repro.workloads.transformer import TransformerInventory
from repro.workloads.zero_offload import ADAM_BYTES_PER_PARAM, ZeroOffloadSchedule


class TestModelZoo:
    def test_twelve_models(self):
        assert len(MODEL_ZOO) == 12

    @pytest.mark.parametrize("model", MODEL_ZOO, ids=lambda m: m.name)
    def test_derived_params_close_to_paper(self, model):
        assert model.n_params == pytest.approx(model.paper_params, rel=0.07)

    def test_batch_sizes_match_table2(self):
        assert model_by_name("GPT").batch_size == 60
        assert model_by_name("OPT-6.7B").batch_size == 2

    def test_lookup_case_insensitive(self):
        assert model_by_name("gpt2-m").name == "GPT2-M"

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            model_by_name("GPT-5")


class TestInventory:
    def test_tensor_count_few_hundred(self):
        # Fig. 4: tensor numbers stay at a few hundred.
        for model in MODEL_ZOO:
            inv = TransformerInventory(model)
            assert 50 <= inv.n_param_tensors <= 400

    def test_total_params_match_model(self):
        model = model_by_name("GPT2-M")
        assert TransformerInventory(model).total_params == model.n_params

    def test_comm_volumes(self):
        model = model_by_name("GPT2-M")
        inv = TransformerInventory(model)
        assert inv.grad_bytes == 4 * inv.total_params  # fp32 (Fig. 1)
        assert inv.weight_bytes == 2 * inv.total_params  # fp16

    def test_layer_grad_bytes_sum(self):
        model = model_by_name("GPT")
        inv = TransformerInventory(model)
        assert sum(inv.layer_grad_bytes()) == inv.grad_bytes


class TestZeroOffload:
    def test_adam_traffic_per_param(self):
        assert ADAM_BYTES_PER_PARAM == 30  # 4 reads + 3 writes fp32 + fp16 out

    def test_volumes_consistent(self):
        schedule = ZeroOffloadSchedule(model_by_name("GPT"))
        v = schedule.volumes()
        assert v.cpu_adam_bytes == v.n_params * 30
        assert v.grad_bytes == 2 * v.weight_bytes
        assert v.npu_flops > 0

    def test_overlap_fractions_bounded(self):
        g, w = ZeroOffloadSchedule(model_by_name("GPT")).overlap_fractions()
        assert 0 < g < 1 and 0 < w < 1

    @pytest.mark.parametrize(
        "model",
        [*MODEL_ZOO, *(scaled_model(preset.name) for preset in SCALING_PRESETS)],
        ids=lambda m: m.name,
    )
    def test_volumes_match_inventory_without_building_one(self, model, monkeypatch):
        inventory = TransformerInventory(model)

        def no_inventory(*args, **kwargs):
            raise AssertionError("volumes() built a tensor inventory")

        monkeypatch.setattr(TransformerInventory, "__init__", no_inventory)
        v = ZeroOffloadSchedule(model).volumes()
        assert v.n_params == inventory.total_params
        assert v.grad_bytes == inventory.grad_bytes
        assert v.weight_bytes == inventory.weight_bytes


class TestAdamTrace:
    def test_every_line_read_and_written_once(self, registry):
        groups = build_adam_groups(registry, n_layers=2, lines_per_tensor=32)
        batch = adam_iteration_batch(groups, AdamTraceConfig(threads=4, thread_skew=0.0))
        reads, writes = {}, {}
        for vaddr, kind in zip(*batch.columns()):
            bucket = writes if kind == KIND_WRITE else reads
            bucket[vaddr] = bucket.get(vaddr, 0) + 1
        # Reads: w32/m/v/g once each; writes: w32/m/v (+w16) once each.
        assert all(count == 1 for count in reads.values())
        assert all(count == 1 for count in writes.values())
        for group in groups:
            for t in group.read_tensors:
                for addr in t.line_addresses():
                    assert addr in reads
            for t in group.rmw_tensors:
                for addr in t.line_addresses():
                    assert addr in writes
            for addr in group.weight16.line_addresses():
                assert addr in writes

    def test_write_lag(self, registry):
        groups = build_adam_groups(registry, n_layers=1, lines_per_tensor=32)
        batch = adam_iteration_batch(
            groups, AdamTraceConfig(threads=1, thread_skew=0.0, write_lag_bursts=4)
        )
        vaddrs, kinds = batch.columns()
        w32_lines = set(groups[0].weight32.line_addresses())
        first_write = kinds.index(KIND_WRITE)
        reads_before = sum(vaddr in w32_lines for vaddr in vaddrs[:first_write])
        assert reads_before >= 4 * 4  # lag bursts x burst lines

    def test_deterministic_given_seed(self, registry):
        groups = build_adam_groups(registry, n_layers=1, lines_per_tensor=16)
        cfg = AdamTraceConfig(threads=2, seed=99)
        import random

        t1 = adam_iteration_batch(groups, cfg, random.Random(1))
        t2 = adam_iteration_batch(groups, cfg, random.Random(1))
        assert t1.columns() == t2.columns()

    def test_too_small_tensor_rejected(self, registry):
        with pytest.raises(ConfigError):
            build_adam_groups(registry, n_layers=1, lines_per_tensor=4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("threads", 0),
            ("threads", -2),
            ("burst_lines", 0),
            ("thread_skew", 1.0),
            ("thread_skew", -0.1),
            ("write_lag_bursts", -1),
        ],
    )
    def test_bad_shape_rejected(self, field, value):
        # Skew 1.0 skips every turn forever, zero threads or burst lines
        # crash the generator, and a negative lag writes before reading.
        with pytest.raises(ConfigError, match=f"AdamTraceConfig.{field} must"):
            AdamTraceConfig(**{field: value})


class TestGemmTrace:
    def test_trace_covers_matrices(self, registry):
        cfg = GemmConfig(m=128, n=128, k=128, tile_m=32, tile_n=32, tile_k=32)
        a, b, c = build_gemm_tensors(registry, cfg)
        touched = set(gemm_batch(a, b, c, cfg).vaddr.tolist())
        for t in (a, b, c):
            assert set(t.line_addresses()) <= touched

    def test_c_written_once_per_pass(self, registry):
        cfg = GemmConfig(m=128, n=128, k=128, tile_m=32, tile_n=32, tile_k=32)
        a, b, c = build_gemm_tensors(registry, cfg)
        writes = {}
        for vaddr, kind in zip(*gemm_batch(a, b, c, cfg).columns()):
            if kind == KIND_WRITE:
                writes[vaddr] = writes.get(vaddr, 0) + 1
        assert set(writes) == set(c.line_addresses())
        assert all(count == 1 for count in writes.values())

    def test_indivisible_tiles_rejected(self):
        with pytest.raises(ConfigError):
            GemmConfig(m=100, n=128, k=128, tile_m=32, tile_n=32, tile_k=32)

    @pytest.mark.parametrize("field", ["m", "n", "k", "tile_m", "tile_n", "tile_k"])
    @pytest.mark.parametrize("value", [0, -16])
    def test_non_positive_sizes_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"GemmConfig.{field} must be positive"):
            GemmConfig(**{field: value})


class TestAttentionConfig:
    @pytest.mark.parametrize("field", ["n_heads", "seq_len", "head_dim", "block_q", "block_k"])
    @pytest.mark.parametrize("value", [0, -32])
    def test_non_positive_sizes_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"AttentionConfig.{field} must be positive"):
            AttentionConfig(**{field: value})

    def test_indivisible_blocks_rejected(self):
        with pytest.raises(ConfigError, match="not divisible by block_k"):
            AttentionConfig(seq_len=128, block_k=48)
