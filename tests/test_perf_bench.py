"""The bench subsystem: registry, harness, CLI, and batch-kernel parity.

The parity tests are the contract behind every NumPy batch kernel: it must
agree bit-for-bit on random inputs with its per-element reference — the
per-element production API where there is one (``encrypt_block``,
``keystream``/``encrypt_line``, ``write_line``/``read_line``,
``gemm_time``), an oracle in ``tests/oracles/`` otherwise.
"""

import functools
import json
import operator
import random

import pytest
from oracles import streams as streams_oracle

from repro.cli import main as cli_main
from repro.cpu.tenanalyzer.tensor_filter import detect_streams
from repro.crypto.aes import AES128
from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import TensorMacAccumulator, xor_macs
from repro.errors import ConfigError, SchemaVersionError
from repro.mem.mee import FunctionalMee
from repro.npu.config import NpuConfig
from repro.npu.delayed import DelayedVerificationEngine
from repro.npu.systolic import GemmShape, gemm_time, gemm_times
from repro.npu.vn import TensorVnTable
from repro.perf.harness import (
    BENCH_SCHEMA,
    BenchContext,
    compare_reports,
    run_benchmarks,
    validate_report,
)
from repro.perf.registry import BENCH_REGISTRY, BenchRegistry, benchmark
from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.units import CACHELINE_BYTES, MiB

LINE = CACHELINE_BYTES
KEY_A = bytes(range(16))
KEY_B = bytes(range(16, 32))

# -- batch kernels against their per-element references ------------------------


class TestKernelParity:
    def test_aes_blocks_match_block_loop(self):
        rng = random.Random(1)
        aes = AES128(KEY_A)
        blocks = rng.randbytes(16 * 257)
        expected = b"".join(
            aes.encrypt_block(blocks[i : i + 16]) for i in range(0, len(blocks), 16)
        )
        assert aes.encrypt_blocks(blocks) == expected

    def test_aes_fips_vector_batched(self):
        aes = AES128(bytes(range(16)))
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes.encrypt_blocks(block * 8) == expected * 8

    def test_ctr_lines_match_scalar(self):
        rng = random.Random(2)
        cipher = CounterModeCipher(KEY_A)
        pas = [rng.randrange(1 << 48) * LINE for _ in range(63)]
        vns = [rng.randrange(1 << 56) for _ in pas]
        data = rng.randbytes(len(pas) * LINE)
        assert cipher.keystream_lines(pas, vns) == b"".join(
            cipher.keystream(pa, vn) for pa, vn in zip(pas, vns)
        )
        batched = cipher.encrypt_lines(data, pas, vns)
        assert batched == b"".join(
            cipher.encrypt_line(data[i * LINE : (i + 1) * LINE], pa, vn)
            for i, (pa, vn) in enumerate(zip(pas, vns))
        )
        # XOR is an involution.
        assert cipher.decrypt_lines(batched, pas, vns) == data

    def test_xor_macs_matches_fold(self):
        rng = random.Random(3)
        macs = [rng.randrange(1 << 56) for _ in range(999)]
        expected = functools.reduce(operator.xor, macs, 0)
        assert xor_macs(macs) == expected
        assert xor_macs(iter(macs)) == expected
        assert xor_macs([]) == 0

    def test_batch_apis_reject_mismatched_lengths(self):
        from repro.crypto.mac import MacEngine

        engine = MacEngine(KEY_B)
        cipher = CounterModeCipher(KEY_A)
        with pytest.raises(ConfigError):
            engine.line_macs(bytes(2 * LINE), LINE, [0, LINE], [1])
        with pytest.raises(ConfigError):
            cipher.encrypt_lines(bytes(2 * LINE), [0, LINE], [1])
        with pytest.raises(ConfigError):
            cipher.keystream_lines([0, LINE], [1])

    def test_accumulator_absorb_many(self):
        rng = random.Random(4)
        macs = [rng.randrange(1 << 56) for _ in range(64)]
        one_by_one = TensorMacAccumulator(expected_lines=64)
        for mac in macs:
            one_by_one.absorb(mac)
        batched = TensorMacAccumulator(expected_lines=64)
        batched.absorb_many(macs)
        assert (batched.value, batched.complete) == (one_by_one.value, True)

    def test_mee_bulk_matches_per_line(self):
        rng = random.Random(5)
        vaddrs = [i * LINE for i in range(40)]
        payload = rng.randbytes(len(vaddrs) * LINE)

        def populate(bulk: bool) -> FunctionalMee:
            mee = FunctionalMee(KEY_A, KEY_B, protected_bytes=1 * MiB)
            if bulk:
                mee.write_lines(vaddrs, payload, vn=None)
            else:
                for i, vaddr in enumerate(vaddrs):
                    mee.write_line(vaddr, payload[i * LINE : (i + 1) * LINE])
            return mee

        bulk = populate(bulk=True)
        reference = populate(bulk=False)
        assert bulk.vn_store == reference.vn_store
        assert bulk.mac_store == reference.mac_store
        for vaddr in vaddrs:
            assert bulk.snoop(vaddr) == reference.snoop(vaddr)
        assert bulk.read_lines(vaddrs) == payload
        assert b"".join(reference.read_line(vaddr) for vaddr in vaddrs) == payload
        assert bulk.line_macs_of(vaddrs, vn=1) == [
            reference.line_mac_of(vaddr, vn=1) for vaddr in vaddrs
        ]

    def test_mee_bulk_read_still_detects_tamper(self):
        mee = FunctionalMee(KEY_A, KEY_B, protected_bytes=1 * MiB)
        vaddrs = [i * LINE for i in range(8)]
        mee.write_lines(vaddrs, bytes(len(vaddrs) * LINE))
        mee.tamper_ciphertext(vaddrs[3], flip_bit=7)
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            mee.read_lines(vaddrs)

    def test_delayed_engine_parity(self):
        registry = TensorRegistry(base_va=0x4200_0000_0000)
        mee = FunctionalMee(KEY_A, KEY_B, with_merkle=False, protected_bytes=1 * MiB)
        vn_table = TensorVnTable(registry)
        engine = DelayedVerificationEngine(NpuConfig(), mee, vn_table)
        tensor = registry.allocate("t", (300,), DType.FP32)
        payload = bytes(i % 251 for i in range(tensor.nbytes))
        engine.write_tensor(tensor, payload)
        data = engine.read_tensor_delayed(tensor)
        assert engine.poll_verification() == []
        # Per-line reference: strict line reads and the XOR of line MACs.
        vn = vn_table.vn_of(tensor)
        vaddrs = list(tensor.line_addresses())
        lines = b"".join(mee.read_line(vaddr, vn=vn, verify=True) for vaddr in vaddrs)
        assert data == lines[: tensor.nbytes] == payload
        line_macs = [mee.line_mac_of(vaddr, vn) for vaddr in vaddrs]
        assert engine.mac_table.mac_of(tensor.tensor_id) == functools.reduce(
            operator.xor, line_macs
        )

    def test_detect_streams_parity(self):
        rng = random.Random(6)
        vaddrs, vns = [], []
        va = 0
        for _ in range(200):
            run = rng.randrange(1, 12)
            vn = rng.randrange(1, 50)
            for i in range(run):
                vaddrs.append(va + i * LINE)
                vns.append(vn)
            va += (run + rng.randrange(0, 3)) * LINE
        batched = detect_streams(vaddrs, vns, min_run=4)
        assert batched == streams_oracle.detect_streams(vaddrs, vns, min_run=4)
        assert batched and all(vn > 0 for _, vn in batched)
        assert detect_streams([], [], min_run=4) == []

    def test_prime_from_trace_matches_filter_detection(self):
        from repro.cpu.tenanalyzer.analyzer import ReadKind, TenAnalyzer
        from repro.sim.trace import MemAccess

        def trace():
            vaddrs, vns = [], []
            for t in range(3):
                base = 0x100000 + t * 0x10000
                for i in range(16):
                    vaddrs.append(base + i * LINE)
                    vns.append(t + 1)
            return vaddrs, vns

        vaddrs, vns = trace()
        primed = TenAnalyzer(enabled=True)
        assert primed.prime_from_trace(vaddrs, vns) == 3
        assert primed.table.n_entries == 3
        # Every primed line now answers reads on-chip, VN intact.
        for vaddr, vn in zip(vaddrs, vns):
            result = primed.on_read(MemAccess(vaddr=vaddr))
            assert result.kind is ReadKind.HIT_IN
            assert result.vn == vn

        # vns=None reads the off-chip store (read_many path).
        offchip = TenAnalyzer(enabled=True)
        for vaddr, vn in zip(vaddrs, vns):
            offchip.vn_store.set(vaddr, vn)
        assert offchip.prime_from_trace(vaddrs) == 3
        assert offchip.stats["trace_primes"] == 3

        disabled = TenAnalyzer(enabled=False)
        assert disabled.prime_from_trace(vaddrs, vns) == 0

    def test_gemm_times_parity(self):
        rng = random.Random(7)
        config = NpuConfig()
        shapes = [
            GemmShape(rng.randrange(1, 5000), rng.randrange(1, 5000), rng.randrange(1, 5000))
            for _ in range(100)
        ]
        assert gemm_times(config, shapes) == [gemm_time(config, shape) for shape in shapes]
        assert gemm_times(config, []) == []


# -- bench registry ------------------------------------------------------------


class TestBenchRegistry:
    def test_registered_benchmarks_load(self):
        specs = BENCH_REGISTRY.specs()
        assert len(specs) >= 6
        assert len({s.name for s in specs}) == len(specs)

    def test_duplicate_name_rejected(self):
        registry = BenchRegistry()

        @benchmark("dup", registry=registry)
        def first(ctx):  # pragma: no cover - factory never run
            return lambda: None

        with pytest.raises(ConfigError):

            @benchmark("dup", registry=registry)
            def second(ctx):  # pragma: no cover - factory never run
                return lambda: None

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            BENCH_REGISTRY.get("no_such_benchmark")

    def test_select_by_tag(self):
        crypto = BENCH_REGISTRY.select(tags=["crypto"])
        assert crypto and all("crypto" in s.tags for s in crypto)

    def test_clear_then_load_all_re_registers(self):
        before = {s.name for s in BENCH_REGISTRY.specs()}
        try:
            BENCH_REGISTRY.clear()
            assert {s.name for s in BENCH_REGISTRY.specs()} == before
        finally:
            if not BENCH_REGISTRY.specs():  # pragma: no cover - safety net
                BENCH_REGISTRY.clear()
                BENCH_REGISTRY.load_all()


# -- harness -------------------------------------------------------------------


def _tiny_registry() -> BenchRegistry:
    registry = BenchRegistry()

    @benchmark("tiny.fold", registry=registry)
    def fold(ctx: BenchContext):
        macs = [ctx.rng.randrange(1 << 56) for _ in range(ctx.n(64))]
        ctx.items = len(macs)
        return lambda: xor_macs(macs)

    registry._loaded = True  # no modules to import
    return registry


class TestHarness:
    def test_report_shape_and_validation(self):
        registry = _tiny_registry()
        report = run_benchmarks(registry.specs(), quick=True)
        assert validate_report(report) == []
        record = report["benchmarks"][0]
        assert record["name"] == "tiny.fold"
        assert set(record["modes"]) == {"vector"}
        assert record["speedup"] is None
        for stats in record["modes"].values():
            assert stats["p10_s"] <= stats["median_s"] <= stats["p90_s"]
            assert stats["throughput_items_per_s"] > 0

    def test_validate_rejects_garbage(self):
        with pytest.raises(SchemaVersionError):
            validate_report({})
        with pytest.raises(SchemaVersionError) as excinfo:
            validate_report({"schema": 99, "kind": "repro-bench"})
        assert excinfo.value.expected == BENCH_SCHEMA
        assert excinfo.value.found == 99
        assert validate_report({"schema_version": BENCH_SCHEMA, "kind": "nope"}) != []

    def test_validate_rejects_pre_versioned_documents(self):
        # A v1 report (written before the schema_version field existed)
        # must fail loudly, naming the version it carries.
        with pytest.raises(SchemaVersionError, match="schema version 1"):
            validate_report({"schema": 1, "kind": "repro-bench"})

    def test_compare_flags_regressions(self):
        registry = _tiny_registry()
        report = run_benchmarks(registry.specs(), quick=True)
        same_lines, same_regressions = compare_reports(report, report, threshold=1.25)
        assert not same_regressions
        assert any("ok" in line for line in same_lines)
        # A baseline that was 100x faster makes the current run a regression.
        faster = json.loads(json.dumps(report))
        for record in faster["benchmarks"]:
            for stats in record["modes"].values():
                stats["median_s"] /= 100.0
        _, regressions = compare_reports(report, faster, threshold=1.25)
        assert regressions and all(r.ratio > 1.25 for r in regressions)

    def test_compare_tolerates_suite_growth(self):
        registry = _tiny_registry()
        report = run_benchmarks(registry.specs(), quick=True)
        baseline = {"schema_version": BENCH_SCHEMA, "quick": True, "benchmarks": []}
        lines, regressions = compare_reports(report, baseline, threshold=1.25)
        assert not regressions
        assert any("no baseline" in line for line in lines)

    def test_compare_ignores_retired_scalar_mode(self):
        # Baselines recorded before benches were timed once also carry a
        # "scalar" mode and a speedup; the comparison only reads shared modes.
        registry = _tiny_registry()
        report = run_benchmarks(registry.specs(), quick=True)
        baseline = json.loads(json.dumps(report))
        for record in baseline["benchmarks"]:
            record["modes"]["scalar"] = dict(record["modes"]["vector"], median_s=1e-9)
            record["speedup"] = 42.0
        lines, regressions = compare_reports(report, baseline, threshold=1.25)
        assert not regressions
        assert not any("/scalar" in line for line in lines)

    def test_compare_rejects_quick_mode_mismatch(self):
        registry = _tiny_registry()
        report = run_benchmarks(registry.specs(), quick=True)
        full_baseline = json.loads(json.dumps(report))
        full_baseline["quick"] = False
        with pytest.raises(ConfigError):
            compare_reports(report, full_baseline, threshold=1.25)

    def test_compare_skips_changed_work_sizes(self):
        registry = _tiny_registry()
        report = run_benchmarks(registry.specs(), quick=True)
        resized = json.loads(json.dumps(report))
        for record in resized["benchmarks"]:
            record["items"] *= 2
            for stats in record["modes"].values():
                stats["median_s"] /= 100.0  # would regress if compared
        lines, regressions = compare_reports(report, resized, threshold=1.25)
        assert not regressions
        assert any("work size changed" in line for line in lines)


# -- CLI -----------------------------------------------------------------------


class TestBenchCli:
    def test_quick_round_trips_valid_json(self, tmp_path):
        out = tmp_path / "bench.json"
        code = cli_main(
            ["bench", "--quick", "-q", "--only", "crypto.mac_fold", "--json", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert validate_report(report) == []
        names = [record["name"] for record in report["benchmarks"]]
        assert names == ["crypto.mac_fold"]

    def test_compare_exits_nonzero_on_injected_regression(self, tmp_path):
        out = tmp_path / "bench.json"
        assert (
            cli_main(["bench", "--quick", "-q", "--only", "crypto.mac_fold",
                      "--json", str(out)])
            == 0
        )
        report = json.loads(out.read_text())
        for record in report["benchmarks"]:
            for stats in record["modes"].values():
                stats["median_s"] /= 1000.0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(report))
        code = cli_main(
            ["bench", "--quick", "-q", "--only", "crypto.mac_fold",
             "--json", str(out), "--compare", str(baseline), "--threshold", "1.25"]
        )
        assert code == 1

    def test_compare_passes_against_self(self, tmp_path):
        out = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(["bench", "--quick", "-q", "--only", "crypto.mac_fold",
                      "--json", str(baseline)])
            == 0
        )
        code = cli_main(
            ["bench", "--quick", "-q", "--only", "crypto.mac_fold",
             "--json", str(out), "--compare", str(baseline), "--threshold", "100"]
        )
        assert code == 0

    def test_compare_against_stale_schema_baseline_exits_2(self, tmp_path):
        out = tmp_path / "bench.json"
        stale = tmp_path / "baseline.json"
        stale.write_text(json.dumps({"schema": 1, "kind": "repro-bench",
                                     "quick": True, "benchmarks": []}))
        code = cli_main(
            ["bench", "--quick", "-q", "--only", "crypto.mac_fold",
             "--json", str(out), "--compare", str(stale)]
        )
        assert code == 2

    def test_committed_baseline_is_schema_valid(self):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "baseline.json")
        with open(path, "r", encoding="utf-8") as f:
            baseline = json.load(f)
        assert validate_report(baseline) == []

    def test_missing_baseline_is_a_usage_error(self, tmp_path):
        out = tmp_path / "bench.json"
        code = cli_main(
            ["bench", "--quick", "-q", "--only", "crypto.mac_fold",
             "--json", str(out), "--compare", str(tmp_path / "nope.json")]
        )
        assert code == 2

    def test_list_flag(self, capsys):
        assert cli_main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "crypto.ctr_keystream" in out
