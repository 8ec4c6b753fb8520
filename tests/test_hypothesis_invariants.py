"""Cross-cutting property tests: security invariants, result-cache keying
and the job-queue journal codec."""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.tenanalyzer import TenAnalyzer
from repro.cpu.tenanalyzer.entry import EntryGeometry, try_merge_geometries
from repro.eval.cache import cache_key
from repro.eval.journal import JOB_STATUSES, JobRecord, RunJournal, read_journal
from repro.eval.registry import normalize_params
from repro.mem.mee import FunctionalMee
from repro.sim.trace_batch import KIND_READ
from repro.tensor.registry import TensorRegistry
from repro.units import KiB
from repro.workloads.traces import GemmConfig, build_gemm_tensors, gemm_batch

LINE = 64


@given(
    tile=st.sampled_from([16, 32]),
    passes=st.integers(1, 2),
)
@settings(max_examples=6, deadline=None)
def test_gemm_vn_consistency_any_tiling(tile, passes):
    """The VN invariant holds for any tile size and pass count."""
    registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
    config = GemmConfig(m=64, n=64, k=64, tile_m=tile, tile_n=tile, tile_k=tile)
    a, b, c = build_gemm_tensors(registry, config)
    analyzer = TenAnalyzer()
    truth = {}
    for _ in range(passes):
        for vaddr, kind in zip(*gemm_batch(a, b, c, config).columns()):
            if kind == KIND_READ:
                result = analyzer.on_read_va(vaddr)
                assert result.vn == truth.get(vaddr, 0)
            else:
                outcome = analyzer.on_write_va(vaddr)
                truth[vaddr] = truth.get(vaddr, 0) + 1
                assert outcome.vn == truth[vaddr]


@given(
    base_a=st.integers(0, 32),
    run_a=st.integers(1, 8),
    base_b=st.integers(0, 64),
    run_b=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_merge_never_fabricates_coverage(base_a, run_a, base_b, run_b):
    """Whatever merges, the result covers exactly the union of the inputs."""
    a = EntryGeometry(base_a * LINE, run_a, run_a, 1)
    b = EntryGeometry(base_b * LINE, run_b, run_b, 1)
    cover_a, cover_b = set(a.covered_lines()), set(b.covered_lines())
    merged = try_merge_geometries(a, b)
    if merged is None:
        return
    assert set(merged.covered_lines()) == cover_a | cover_b


# -- result-cache keying and the job journal ----------------------------------


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

_PARAM_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@given(
    params=st.dictionaries(st.text(min_size=1, max_size=12), _PARAM_VALUES, max_size=6),
    seed=st.integers(0, 2**31),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_cache_key_is_order_insensitive_and_stable(params, seed, order):
    """The content-hash key must not depend on dict insertion order, and
    normalization must be idempotent (a replayed manifest row re-keys
    identically)."""
    keys = list(params)
    order.shuffle(keys)
    shuffled = {k: params[k] for k in keys}
    norm = normalize_params(params)
    assert normalize_params(shuffled) == norm
    assert normalize_params(norm) == norm  # idempotent
    json.dumps(norm)  # JSON-stable by construction
    base = cache_key("exp", norm, seed, "digest")
    assert cache_key("exp", normalize_params(shuffled), seed, "digest") == base
    assert cache_key("exp", norm, seed, "digest") == base


_RECORDS = st.builds(
    JobRecord,
    job_id=st.text(min_size=1, max_size=40),
    task=st.sampled_from(["experiment", "sweep", "bench"]),
    status=st.sampled_from(JOB_STATUSES),
    spec=st.dictionaries(st.text(min_size=1, max_size=8), _SCALARS, max_size=4),
    attempt=st.integers(0, 9),
    elapsed_s=st.floats(0, 1e6, allow_nan=False),
    error=st.one_of(st.none(), st.text(max_size=200)),
    error_type=st.one_of(st.none(), st.text(min_size=1, max_size=30)),
    ts=st.floats(0, 2e9, allow_nan=False),
)


@given(records=st.lists(_RECORDS, max_size=12))
@settings(max_examples=50, deadline=None)
def test_journal_roundtrips_arbitrary_job_records(records):
    """Whatever the job queue journals — unicode ids, tracebacks, odd
    float spec values — must replay bit-for-bit, and a torn tail must
    never corrupt the records before it."""
    for record in records:
        assert JobRecord.from_json(record.to_json()) == record
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        journal = RunJournal.start(path, {"queue": "prop"})
        for record in records:
            journal.append_job(record)
        view = read_journal(path)
        assert view.jobs == records
        assert not view.truncated
        # Torn tail: chop the file mid-way through its final line.
        if records:
            with open(path, "rb") as f:
                data = f.read()
            with open(path, "wb") as f:
                f.write(data[:-3])
            torn = read_journal(path)
            assert torn.jobs == records[:-1]


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 15), st.booleans(), st.binary(min_size=64, max_size=64)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=15, deadline=None)
def test_mee_analyzer_composition_confidential_and_fresh(ops):
    """Random read/write traffic through TenAnalyzer + MEE stays consistent:
    every read decrypts to the last value written to that line."""
    analyzer = TenAnalyzer(capacity=8)
    mee = FunctionalMee(b"P" * 16, b"Q" * 16, with_merkle=False, protected_bytes=1 << 18)
    contents = {}
    for line, is_write, data in ops:
        va = 0x40000 + line * LINE
        if is_write or va not in contents:
            outcome = analyzer.on_write_va(va)
            mee.write_line(va, data, vn=outcome.vn)
            contents[va] = data
        else:
            result = analyzer.on_read_va(va)
            assert mee.read_line(va, vn=result.vn) == contents[va]
