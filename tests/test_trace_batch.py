"""Batched passes and trace generators: parity with their references.

This file is the contract behind the batched replay passes: every
batched pass, and every generator of
:class:`~repro.sim.trace_batch.TraceBatch` columns, produces results
identical to its per-element reference — an oracle in ``tests/oracles/``
or a per-element production API. The cache-layer docstrings
(:mod:`repro.mem.cache`) point here for the LRU-semantics parity
guarantee.
"""

import collections
import itertools
import random

import pytest
from oracles import meta_table as meta_table_oracle
from oracles import metadata as metadata_oracle
from oracles import pipeline as pipeline_oracle
from oracles import traces as traces_oracle

from repro.cpu.metadata_model import measure_sgx_metadata
from repro.cpu.tenanalyzer import TenAnalyzer
from repro.eval.scenarios import mee_cache_geometry
from repro.eval.sweep import expand, load_spec
from repro.mem.cache import LruCacheCore
from repro.mem.mee import FunctionalMee
from repro.npu.config import NpuConfig
from repro.npu.pipeline import simulate_delayed_pipeline, simulate_granule_pipeline
from repro.sim.trace_batch import KIND_READ, KIND_WRITE, TraceBatch
from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.tensor.tensor import TensorDesc
from repro.units import CACHELINE_BYTES, PAGE_BYTES, GiB, KiB, MiB
from repro.workloads.traces import (
    AdamTraceConfig,
    AttentionConfig,
    GemmConfig,
    adam_iteration_batch,
    attention_batch,
    build_adam_groups,
    build_attention_tensors,
    build_gemm_tensors,
    gemm_batch,
)

LINE = CACHELINE_BYTES


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
            kind = rng.choice((KIND_READ,) * 3 + (KIND_WRITE,) * 2)
            if kind != KIND_READ and rng.random() < 0.3:
                cursors[t] = max(0, cursors[t] - rng.randint(1, 4))
            vaddrs.extend(bases[t] + (cursors[t] + i) * LINE for i in range(n_lines))
            kinds.extend([kind] * n_lines)
            if kind == KIND_READ or rng.random() < 0.5:
                cursors[t] = (cursors[t] + n_lines) % 128
        batch = TraceBatch(vaddrs, kinds)
        columns = (batch.vaddr, batch.kind) if window % 2 else batch.columns()
        steps.append(("replay", *columns))
    return steps


def _streak_scripts():
    """Hand-built replay scripts, one per way a hit-boundary streak starts,
    stops or resumes.

    Line numbers count from line 0x4000. Entries come from transfer
    installs. Two runs of equal length and VN merge into one strided
    entry, so entries meant to stay apart differ in length.
    """
    base = 0x4000

    def install(first, n_lines, vn, stride=1):
        return ("install", (base + first) * LINE, n_lines, vn, stride)

    def window(*spans):
        """Access each ``(first, stop[, kind])`` span of lines in turn
        (reads unless a kind is given)."""
        vaddrs, kinds = [], []
        for first, stop, *kind in spans:
            vaddrs.extend((base + line) * LINE for line in range(first, stop))
            kinds.extend((kind or [KIND_READ]) * (stop - first))
        return ("replay", vaddrs, kinds)

    return {
        # Lines 8 and 16 are rows of a strided entry, line 50 starts a
        # contiguous one.
        "into_coverage": [
            install(0, 5, 0),
            install(8, 3, 5, stride=8),
            install(40, 6, 0),
            install(50, 7, 0),
            window((5, 20), (46, 60)),
        ],
        # A merged entry with 4-line rows 16 lines apart completes row 2
        # in one streak and row 3 over two windows; its boundary jumps to
        # the next row each time. A one-line-row entry jumps every line.
        "row_end": [
            install(0, 4, 0),
            install(16, 4, 0),
            install(100, 3, 0, stride=8),
            window((32, 40), (124, 128), (48, 50)),
            window((50, 53), (132, 134)),
        ],
        # Line 8 (the streak's fourth) and line 26 (a streak's first) hold
        # another off-chip VN.
        "vn_poke": [
            install(0, 5, 0),
            install(20, 6, 0),
            ("poke", (base + 8) * LINE, 1),
            ("poke", (base + 26) * LINE, 3),
            window((5, 12), (26, 30)),
        ],
        # Cut by the window's end, by a jump and by a write, then resumed.
        "resumed": [
            install(0, 4, 0),
            window((4, 7)),
            window((7, 9), (60, 61), (9, 12)),
            window((12, 14), (14, 15, KIND_WRITE), (14, 18), (18, 20)),
        ],
        # The strided entry at 0 (lines 0 and 4) has claimed line 8 as its
        # boundary; the streak from 7 passes through it.
        "claimed_key": [
            install(0, 2, 2, stride=4),
            install(5, 2, 0),
            window((7, 11), (11, 13)),
        ],
        # Misses at 7 and 8 leave a half-collected Tensor Filter stream
        # that the streak from 5 then covers.
        "over_filter_stream": [
            install(0, 5, 0),
            window((7, 9)),
            window((5, 12)),
        ],
        # The fourth miss completes a stream; the next line is the new
        # entry's boundary. Lines two apart seed a strided entry when
        # stride detection is on.
        "detection_mid_run": [
            window((200, 212)),
            window((300, 301), (302, 303), (304, 305), (306, 307), (308, 311)),
        ],
    }


#: TenAnalyzer replay parity configs: (capacity, replacement, stride_detect, EnTMF).
REPLAY_CONFIGS = [
    (capacity, replacement, stride_detect, True)
    for capacity in (4, 16, 512)
    for replacement in ("random", "lru")
    for stride_detect in (False, True)
]
REPLAY_CONFIGS.append((512, "random", False, False))


#: (seq_len, block_q, block_k) of the attention parity cases.
ATTENTION_SHAPES = [(128, 32, 32), (96, 32, 48), (64, 16, 32)]


def _tile_views(dtype):
    """Small 2D views of every stride pattern ``tile_row_lines`` serves."""
    grid = TensorDesc("grid", 0x10000, (12, 40), dtype)
    cube = TensorDesc("cube", 0x20000, (3, 6, 20), dtype)
    line_elems = LINE // dtype.nbytes
    return (
        grid.slice_(0, 0, 6),  # contiguous
        grid.slice_(0, 5, 11),  # dense rows from a storage offset
        grid.slice_(1, 5, 29),  # interleaved per-head column band
        grid.slice_(0, 1, 12, 2).slice_(1, 3, 40, 3),  # stepped rows and columns
        grid.slice_(0, 0, 12, 5).slice_(1, 1, 40, line_elems - 1),  # step just under a line
        grid.slice_(0, 2, 12, 4).slice_(1, 0, 40, line_elems + 1),  # step just over a line
        grid.transpose().slice_(0, 0, 40, 7),  # transposed: column-major walk
        cube.select(0, 1),  # head-major per-head view
        cube.select(1, 4),  # rows strided by a whole plane
        cube.select(2, 7),  # columns strided by a whole row
        TensorDesc("overlap", 0x30000, (6, 16), dtype, strides=(3, 1)),
        TensorDesc("padded", 0x40000, (5, 9), dtype, strides=(50, 2), storage_offset=7),
        TensorDesc(
            "one_line_step", 0x50000, (4, 6), dtype, strides=(200, line_elems), storage_offset=3
        ),
    )


def _assert_index_exact(table):
    """The invariant coalesced replay relies on: every covered line of every
    resident entry maps to that entry in the line index, through the one id
    cell all of the entry's lines share, and no other line is indexed."""
    for entry_id, entry in table._entries.items():
        cell = table._line_map[entry.geometry.base_va]
        assert cell == [entry_id]
        for line in entry.geometry.covered_lines():
            assert table._line_map[line] is cell
    assert len(table._line_map) == sum(e.geometry.n_lines for e in table._entries.values())


def _analyzer_state(analyzer):
    """Everything a replay can change, in comparable form."""
    table, filt = analyzer.table, analyzer.filter
    return {
        "stats": analyzer.stats.as_dict(),
        "entries": dict(table._entries),
        "line_map": {line: cell[0] for line, cell in table._line_map.items()},
        "boundary_map": dict(table._boundary_map),
        "recent_updates": list(table._recent_updates),
        "ticks": (table._tick, table._next_id, filt._tick),
        "replacement_rng": table._rng.getstate(),
        "filter_entries": list(filt._entries),
        "vn_store": dict(analyzer.vn_store._vn),
    }


# -- parity of the batched replay passes with their references --------------


def _sampler_grid(points=40, seed=16):
    """Seeded ``measure_sgx_metadata`` arguments over every input it has.

    Regions run from one cacheline, which every stream wraps onto, to
    beyond 100 GiB (a ten-level tree). Caches run from one set to 80; 10
    and 80 sets are not powers of two, so a stream's VN and MAC lines fall
    in different sets. Cycling tuples of coprime lengths pairs each cache
    with every write fraction; the stream count cycles from 1 to 11.
    """
    rng = random.Random(seed)
    regions = (64, 640, 64 * 4001, 64 * MiB + 192, 4 * GiB, 37 * GiB + 320, 101 * GiB)
    caches = (512, 4 * KiB, 5 * KiB, 32 * KiB, 40 * KiB)
    fractions = (0, 0.2, 0.45, 1)
    grid = [
        (
            regions[i % len(regions)],
            dict(
                sample_lines=rng.randint(1, 4000),
                write_fraction=fractions[i % len(fractions)],
                metadata_cache_bytes=caches[i % len(caches)],
                streams=1 + i % 11,
            ),
        )
        for i in range(points)
    ]
    # 11 streams overlap in 656 lines over 80 sets. MAC line v - 32 then
    # falls in VN line v's set under MAC line v's tag (when v % 80 < 48)
    # and is often that set's MRU line: a steady-slot check that compared
    # tags without checking that V and M share a set would fire here.
    alias = dict(sample_lines=2557, write_fraction=0.2, metadata_cache_bytes=40 * KiB, streams=11)
    return grid + [(42013, alias)]


def _wrapping_sampler_grid():
    """``measure_sgx_metadata`` arguments whose streams each wrap the
    region at least three times, over 1 to 11 streams.

    Regions of 1, 5, 13 and 4,001 lines are not multiples of
    ``VNS_PER_LINE``: a stream's visit to the last VN line ends early, when
    its walk wraps to line 0. On the small regions every key stays cached,
    so a stream keyed to the wrong lines shows mostly on the 4,001-line
    points, which overflow their caches.
    """
    caches = (512, 5 * KiB, 32 * KiB, 40 * KiB)
    fractions = (0.2, 1, 0.45)
    shapes = [((1, 5, 13)[streams % 3], streams) for streams in range(1, 12)]
    grid = []
    for i, (lines, streams) in enumerate(shapes + [(4001, 1), (4001, 2)]):
        kwargs = dict(
            sample_lines=streams * (3 * lines + 11),
            write_fraction=fractions[i % len(fractions)],
            metadata_cache_bytes=caches[i % len(caches)],
            streams=streams,
        )
        grid.append((64 * lines, kwargs))
    return grid


def _run_script(analyzer, replay, script):
    """Apply a replay script's steps to ``analyzer``, checking the line
    index after each; returns the VNs of each replay step and the final
    state."""
    vns = []
    for step in script:
        if step[0] == "install":
            analyzer.install_from_transfer(*step[1:])
        elif step[0] == "poke":
            analyzer.vn_store.set(*step[1:])
        else:
            vns.append(replay(analyzer, *step[1:]))
        _assert_index_exact(analyzer.table)
    return vns, _analyzer_state(analyzer)


def _adam_install_script():
    """Three fig19-shaped Adam iterations (24 layers of 64-line tensors, 8
    threads). Each installs every layer's grad32 and weight16 from its
    transfer descriptor, under the VN the tensor's first line has been
    written to so far, then replays the iteration's batch."""
    registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
    groups = build_adam_groups(registry, n_layers=24, lines_per_tensor=64)
    config = AdamTraceConfig(threads=8, seed=2024)
    rng = random.Random(config.seed)
    writes = collections.Counter()
    script = []
    for _ in range(3):
        for group in groups:
            for tensor in (group.grad32, group.weight16):
                script.append(("install", tensor.base_va, tensor.n_lines, writes[tensor.base_va]))
        batch = adam_iteration_batch(groups, config, rng)
        script.append(("replay", batch.vaddr, batch.kind))
        writes.update(batch.vaddr[batch.kind != KIND_READ].tolist())
    return script


def _attention_quick_scripts():
    """(point id, ``stride_detect``, one-window script) of each
    ``attention_layout --quick`` sweep point."""
    for point in expand(load_spec("attention_layout"), quick=True):
        params = dict(point.params)
        layout, stride_detect = params.pop("layout"), params.pop("stride_detect")
        config = AttentionConfig(**params)
        tensors = build_attention_tensors(TensorRegistry(guard_bytes=PAGE_BYTES), config, layout)
        batch = attention_batch(tensors, config)
        yield point.point_id, stride_detect, [("replay", batch.vaddr, batch.kind)]


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
        # On the wrapping points, each wrap to line 0 ends a visit before
        # VNS_PER_LINE positions have passed.
        for grid in (_sampler_grid(), _wrapping_sampler_grid()):
            expected = [metadata_oracle.measure_sgx_metadata(size, **kw) for size, kw in grid]
            assert [measure_sgx_metadata(size, **kw) for size, kw in grid] == expected

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
            expected = traces_oracle.adam_iteration_columns(groups, config, reference_rng)
            assert adam_iteration_batch(groups, config, rng).columns() == expected
            assert rng.getstate() == reference_rng.getstate()  # identical skew-RNG consumption

    @pytest.mark.parametrize("capacity, replacement, stride_detect, enabled", REPLAY_CONFIGS)
    def test_tenanalyzer_replay_parity(self, capacity, replacement, stride_detect, enabled):
        def run(replay, script):
            analyzer = TenAnalyzer(capacity=capacity, stride_detect=stride_detect, enabled=enabled)
            analyzer.table.replacement = replacement
            return _run_script(analyzer, replay, script)

        scripts = {"bursty": _bursty_script(seed=capacity + 3 * stride_detect)}
        scripts.update(_streak_scripts())
        for name, script in scripts.items():
            batch_vns, batch_state = run(TenAnalyzer.replay_window, script)
            ref_vns, ref_state = run(_replay_per_access, script)
            assert batch_vns == ref_vns, name
            for key in ref_state:
                assert batch_state[key] == ref_state[key], (name, key)

    def test_meta_table_merge_matches_full_reindex(self):
        # A merge re-points only its smaller part's lines; the oracle table
        # pops every line of both parts and indexes the merged entry anew.
        cases = [("adam fig19 x3", dict(capacity=512, merge_window=4), _adam_install_script())]
        cases += [
            (point, dict(stride_detect=stride_detect), script)
            for point, stride_detect, script in _attention_quick_scripts()
        ]
        merges = {}
        for name, kwargs, script in cases:
            vns, state = _run_script(TenAnalyzer(**kwargs), TenAnalyzer.replay_window, script)
            reference = meta_table_oracle.reindexing_analyzer(**kwargs)
            ref_vns, ref_state = _run_script(reference, TenAnalyzer.replay_window, script)
            assert vns == ref_vns, name
            for key in ref_state:
                assert state[key] == ref_state[key], (name, key)
            merges[name] = state["stats"].get("tenanalyzer.meta_table.merges", 0)
        assert len(cases) == 9
        assert merges["adam fig19 x3"] > 0
        assert sum(merges.values()) > merges["adam fig19 x3"]

    @pytest.mark.parametrize("dtype", list(DType))
    def test_tile_row_lines_match_geometry_walk(self, dtype):
        for view in _tile_views(dtype):
            n_rows, n_cols = view.shape
            for r in range(n_rows):
                row = view.geometry.slice_(0, r, r + 1)
                for c0 in range(n_cols):
                    for n in range(1, n_cols - c0 + 1):
                        expected = row.slice_(1, c0, c0 + n).line_addresses(view.base_va)
                        assert view.tile_row_lines(r, c0, n) == expected, (view.name, r, c0, n)

    @pytest.mark.parametrize("seq_len, block_q, block_k", ATTENTION_SHAPES)
    @pytest.mark.parametrize("layout", ["head_major", "interleaved"])
    def test_attention_generator_parity(self, layout, seq_len, block_q, block_k):
        # Head dims under one line's worth of elements put several rows on
        # one line, so each block's dedupe matters.
        for head_dim, n_heads in itertools.product((1, 3, 8, 15, 16, 17, 32, 64, 100), (1, 3)):
            config = AttentionConfig(
                n_heads=n_heads,
                seq_len=seq_len,
                head_dim=head_dim,
                block_q=block_q,
                block_k=block_k,
            )
            registry = TensorRegistry(guard_bytes=PAGE_BYTES)
            tensors = build_attention_tensors(registry, config, layout)
            expected = traces_oracle.attention_columns(tensors, config)
            assert attention_batch(tensors, config).columns() == expected, (head_dim, n_heads)

    def test_gemm_generator_parity(self):
        registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
        config = GemmConfig(m=64, n=64, k=64, tile_m=32, tile_n=32, tile_k=32)
        a, b, c = build_gemm_tensors(registry, config)
        expected = traces_oracle.gemm_columns(a, b, c, config)
        assert gemm_batch(a, b, c, config).columns() == expected
