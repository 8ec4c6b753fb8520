"""Columnar trace batches: round-trip properties and oracle parity.

This file is the contract behind the batched replay passes: the object
API and the columnar :class:`~repro.sim.trace_batch.TraceBatch` view are
lossless bridges of each other, and every batched pass produces results
identical to its per-element reference — an oracle in ``tests/oracles/``
or a per-element production API. The cache-layer docstrings
(:mod:`repro.mem.cache`) point here for the LRU-semantics parity
guarantee.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import metadata as metadata_oracle
from oracles import pipeline as pipeline_oracle
from oracles import traces as traces_oracle

from repro.cpu.metadata_model import measure_sgx_metadata
from repro.cpu.tenanalyzer import TenAnalyzer
from repro.eval.scenarios import mee_cache_geometry
from repro.mem.cache import LruCacheCore
from repro.mem.mee import FunctionalMee
from repro.npu.config import NpuConfig
from repro.npu.pipeline import simulate_delayed_pipeline, simulate_granule_pipeline
from repro.sim.trace import AccessKind, MemAccess, interleave_round_robin
from repro.sim.trace_batch import KIND_INST, KIND_READ, KIND_WRITE, TraceBatch
from repro.tensor.registry import TensorRegistry
from repro.units import CACHELINE_BYTES, KiB, MiB
from repro.workloads.traces import (
    AdamTraceConfig,
    GemmConfig,
    adam_iteration_batch,
    build_adam_groups,
    build_gemm_tensors,
    gemm_batch,
)

LINE = CACHELINE_BYTES

#: Arbitrary but representative accesses: any int64 address, every kind.
access_st = st.builds(
    MemAccess,
    st.integers(0, 1 << 61),
    st.sampled_from(list(AccessKind)),
    st.integers(0, 63),
    st.integers(-1, 1 << 20),
)


def _bursty_script(seed, windows=8, bursts=60):
    """A TenAnalyzer replay script of bursty windows over six tensors.

    Bursts are same-kind runs of 1-8 lines. Sequential walks read past
    entry ends (boundary hits), writes that do not advance their cursor
    are rewritten (Assert1), writes that start behind it run into
    half-collected Tensor Filter streams, strided transfer installs seed
    strided entries, and off-chip VN pokes make boundary predictions
    miss. Odd windows pass the batch's arrays, even ones ``columns()``
    lists.
    """
    rng = random.Random(seed)
    bases = [0x100000 + t * 512 * LINE for t in range(6)]
    cursors = [0] * len(bases)
    steps = []
    for window in range(windows):
        if rng.random() < 0.5:
            base = rng.choice(bases) + rng.randrange(64) * LINE
            n_lines, vn = rng.randint(2, 16), rng.randrange(4)
            steps.append(("install", base, n_lines, vn, rng.choice((1, 1, 2, 8))))
        if rng.random() < 0.5:
            steps.append(("poke", rng.choice(bases) + rng.randrange(96) * LINE, rng.randrange(4)))
        vaddrs, kinds = [], []
        for _ in range(bursts):
            t = rng.randrange(len(bases))
            if rng.random() < 0.3:
                cursors[t] = rng.randrange(96)
            n_lines = rng.randint(1, 8)
            kind = rng.choice((KIND_READ, KIND_READ, KIND_READ, KIND_WRITE, KIND_INST))
            if kind != KIND_READ and rng.random() < 0.3:
                cursors[t] = max(0, cursors[t] - rng.randint(1, 4))
            vaddrs.extend(bases[t] + (cursors[t] + i) * LINE for i in range(n_lines))
            kinds.extend([kind] * n_lines)
            if kind == KIND_READ or rng.random() < 0.5:
                cursors[t] = (cursors[t] + n_lines) % 128
        batch = TraceBatch.from_columns(vaddrs, kinds, [0] * len(vaddrs), [-1] * len(vaddrs))
        columns = (batch.vaddr, batch.kind) if window % 2 else batch.columns()[:2]
        steps.append(("replay", *columns))
    return steps


#: TenAnalyzer replay parity configs: (capacity, replacement, stride_detect, EnTMF).
REPLAY_CONFIGS = [
    (capacity, replacement, stride_detect, True)
    for capacity in (4, 16, 512)
    for replacement in ("random", "lru")
    for stride_detect in (False, True)
]
REPLAY_CONFIGS.append((512, "random", False, False))


def _assert_index_exact(table):
    """The invariant coalesced replay relies on: every covered line of every
    resident entry maps to that entry in the line index, and no other line
    is indexed."""
    for entry_id, entry in table._entries.items():
        for line in entry.geometry.covered_lines():
            assert table._line_map[line] == entry_id
    assert len(table._line_map) == sum(e.geometry.n_lines for e in table._entries.values())


def _analyzer_state(analyzer):
    """Everything a replay can change, in comparable form."""
    table, filt = analyzer.table, analyzer.filter
    return {
        "stats": analyzer.stats.as_dict(),
        "entries": dict(table._entries),
        "line_map": dict(table._line_map),
        "boundary_map": dict(table._boundary_map),
        "recent_updates": list(table._recent_updates),
        "ticks": (table._tick, table._next_id, filt._tick),
        "replacement_rng": table._rng.getstate(),
        "filter_entries": list(filt._entries),
        "vn_store": dict(analyzer.vn_store._vn),
    }


# -- round-trip properties -----------------------------------------------------


class TestRoundTrip:
    def test_kind_codes_match_enum_order(self):
        kinds = list(AccessKind)
        assert kinds[KIND_READ] is AccessKind.READ
        assert kinds[KIND_WRITE] is AccessKind.WRITE
        assert kinds[KIND_INST] is AccessKind.INST

    @given(accesses=st.lists(access_st, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_from_accesses_to_accesses_identity(self, accesses):
        batch = TraceBatch.from_accesses(accesses)
        assert len(batch) == len(accesses)
        assert batch.to_accesses() == accesses
        assert list(batch) == accesses  # __iter__ is the object view

    @given(accesses=st.lists(access_st, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_columnarize_is_mode_independent(self, accesses):
        # Columnarizing objects and building from columns give one batch.
        columns = (
            [a.vaddr for a in accesses],
            [list(AccessKind).index(a.kind) for a in accesses],
            [a.thread for a in accesses],
            [a.tensor_id for a in accesses],
        )
        batch = TraceBatch.from_accesses(accesses)
        assert batch == TraceBatch.from_columns(*columns)
        assert batch.columns() == columns

    @given(accesses=st.lists(access_st, max_size=64), size=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_windows_concat_identity(self, accesses, size):
        batch = TraceBatch.from_accesses(accesses)
        windows = list(batch.windows(size))
        assert sum(len(w) for w in windows) == len(batch)
        assert TraceBatch.concat(windows) == batch

    @given(
        streams=st.lists(st.lists(access_st, max_size=24), max_size=5),
        chunk=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleave_matches_object_reference(self, streams, chunk):
        merged = TraceBatch.interleave_round_robin(
            [TraceBatch.from_accesses(s) for s in streams], chunk=chunk
        )
        assert merged.to_accesses() == interleave_round_robin(
            [list(s) for s in streams], chunk=chunk
        )


# -- parity of the batched replay passes with their references --------------


def _replay_per_access(analyzer, vaddrs, kinds):
    """The per-access dataflow ``replay_window`` must reproduce."""
    return [
        analyzer.on_read_va(vaddr).vn if kind == KIND_READ else analyzer.on_write_va(vaddr).vn
        for vaddr, kind in zip(map(int, vaddrs), map(int, kinds))
    ]


class TestModeParity:
    def test_lru_core_matches_set_assoc_semantics(self):
        rng = random.Random(11)
        cache = metadata_oracle.SetAssocLru(capacity_bytes=4 * KiB, ways=2)
        core = LruCacheCore.for_cache(4 * KiB, ways=2)
        assert core.n_sets == cache.n_sets and core.ways == cache.ways
        for _ in range(5000):
            line = rng.randrange(256)
            write = rng.random() < 0.3
            assert core.touch(line, write=write) is cache.access(line * LINE, write=write)
        assert core.hits == cache.hits
        assert core.misses == cache.misses
        assert core.evictions == cache.evictions
        assert core.writebacks == cache.writebacks
        assert core.flush() == cache.flush()

    def test_sgx_metadata_parity(self):
        for kwargs in ({}, {"streams": 3, "write_fraction": 0.2}):
            expected = metadata_oracle.measure_sgx_metadata(64 * MiB, sample_lines=4000, **kwargs)
            assert measure_sgx_metadata(64 * MiB, sample_lines=4000, **kwargs) == expected

    def test_mee_geometry_parity(self):
        # 5 KiB / 2-way has 40 sets: unlike a power-of-two set count, it
        # maps each kind's key region to sets that depend on KEY_SHIFT.
        for kwargs in ({}, {"capacity_kib": 1, "ways": 2}, {"capacity_kib": 5, "ways": 2}):
            geometry = dict(tensors=12, lines_per_tensor=16, iterations=2, **kwargs)
            expected = metadata_oracle.mee_cache_geometry(**geometry)
            assert mee_cache_geometry(**geometry) == expected

    def test_pipeline_timing_parity(self):
        config, size = NpuConfig(), 2 * MiB
        compute = 0.9 * LINE / config.dram.effective_stream_bw
        # PipelineResult floats must match bit-for-bit.
        for granule in (64, 4096):
            expected = pipeline_oracle.simulate_granule_pipeline(config, size, granule, compute)
            assert simulate_granule_pipeline(config, size, granule, compute) == expected
        expected = pipeline_oracle.simulate_delayed_pipeline(config, size, compute)
        assert simulate_delayed_pipeline(config, size, compute) == expected

    def test_mee_batch_walk_matches_per_line_loop(self):
        rng = random.Random(3)
        n_lines = 96
        vaddrs = [i * LINE for i in range(n_lines)]
        payload = rng.randbytes(n_lines * LINE)
        keys = bytes(range(16)), bytes(range(16, 32))

        batched = FunctionalMee(*keys, protected_bytes=1 * MiB)
        old_b, new_b = batched.write_lines(vaddrs, payload, vn=None)
        plain_b = batched.read_lines(vaddrs, vn=None, verify=True)

        reference = FunctionalMee(*keys, protected_bytes=1 * MiB)
        old_r, new_r = [], []
        for i, vaddr in enumerate(vaddrs):
            old, new = reference.write_line(vaddr, payload[i * LINE : (i + 1) * LINE])
            old_r.append(old)
            new_r.append(new)
        plain_r = b"".join(reference.read_line(v, vn=None, verify=True) for v in vaddrs)

        assert plain_b == plain_r == payload
        assert (old_b, new_b) == (old_r, new_r)
        assert batched.vn_store == reference.vn_store
        assert batched.mac_store == reference.mac_store
        assert batched.stats["writes"] == reference.stats["writes"]
        assert batched.stats["reads"] == reference.stats["reads"]
        # The batch walks each Merkle leaf once, the loop once per line.
        assert 0 < batched.stats["merkle_updates"] <= reference.stats["merkle_updates"]
        assert 0 < batched.stats["merkle_walks"] <= reference.stats["merkle_walks"]

    def test_adam_generator_parity(self):
        configs = (
            AdamTraceConfig(threads=4, seed=99),
            AdamTraceConfig(threads=4, seed=99),  # second iteration: reused columns
            AdamTraceConfig(threads=3, burst_lines=2, write_lag_bursts=2, seed=99),
            AdamTraceConfig(threads=4, seed=99),
        )

        registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
        groups = build_adam_groups(registry, n_layers=3, lines_per_tensor=32)
        rng, reference_rng = random.Random(99), random.Random(99)
        for config in configs:
            expected = traces_oracle.adam_iteration_objects(groups, config, reference_rng)
            assert adam_iteration_batch(groups, config, rng) == TraceBatch.from_accesses(expected)
            assert rng.getstate() == reference_rng.getstate()  # identical skew-RNG consumption

    @pytest.mark.parametrize("capacity, replacement, stride_detect, enabled", REPLAY_CONFIGS)
    def test_tenanalyzer_replay_parity(self, capacity, replacement, stride_detect, enabled):
        def run(replay):
            analyzer = TenAnalyzer(capacity=capacity, stride_detect=stride_detect, enabled=enabled)
            analyzer.table.replacement = replacement
            vns = []
            for step in _bursty_script(seed=capacity + 3 * stride_detect):
                if step[0] == "install":
                    analyzer.install_from_transfer(*step[1:])
                elif step[0] == "poke":
                    analyzer.vn_store.set(*step[1:])
                else:
                    vns.append(replay(analyzer, *step[1:]))
                _assert_index_exact(analyzer.table)
            return vns, _analyzer_state(analyzer)

        batch_vns, batch_state = run(TenAnalyzer.replay_window)
        ref_vns, ref_state = run(_replay_per_access)
        assert batch_vns == ref_vns
        for key in ref_state:
            assert batch_state[key] == ref_state[key], key

    def test_gemm_generator_parity(self):
        registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
        config = GemmConfig(m=64, n=64, k=64, tile_m=32, tile_n=32, tile_k=32)
        a, b, c = build_gemm_tensors(registry, config)
        expected = traces_oracle.gemm_objects(a, b, c, config, thread=2)
        assert gemm_batch(a, b, c, config, thread=2) == TraceBatch.from_accesses(expected)
