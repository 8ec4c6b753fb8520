"""The hot-path kernel benchmarks ``python -m repro bench`` runs.

Each benchmark is a factory returning a zero-argument workload over one of
the NumPy batch APIs (AES blocks, counter-mode keystreams, MAC folding, MEE
line streams, stream detection, the systolic roofline sweep) or the
keyed-hash line MACs, so the report carries the time trajectory of every
hot kernel.
"""

from __future__ import annotations

from repro.cpu.tenanalyzer.tensor_filter import detect_streams
from repro.crypto.aes import AES128
from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import MacEngine, xor_macs
from repro.mem.mee import FunctionalMee
from repro.npu.config import NpuConfig
from repro.npu.delayed import DelayedVerificationEngine
from repro.npu.systolic import GemmShape, gemm_times
from repro.npu.vn import TensorVnTable
from repro.perf.harness import BenchContext
from repro.perf.registry import benchmark
from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.units import CACHELINE_BYTES, MiB

LINE = CACHELINE_BYTES

_AES_KEY = bytes(range(16))
_MAC_KEY = bytes(range(16, 32))


@benchmark("crypto.aes_blocks", tags=("crypto", "vector"))
def bench_aes_blocks(ctx: BenchContext):
    """Batched AES-128 over a stream of counter blocks."""
    n_blocks = ctx.n(2048, 512)
    ctx.items = n_blocks
    aes = AES128(_AES_KEY)
    blocks = ctx.random_bytes(16 * n_blocks)

    def run():
        return aes.encrypt_blocks(blocks)

    return run


@benchmark("crypto.ctr_keystream", tags=("crypto", "vector"))
def bench_ctr_keystream(ctx: BenchContext):
    """Counter-mode keystream generation for a stream of (PA, VN) lines."""
    n_lines = ctx.n(512, 128)
    ctx.items = n_lines
    cipher = CounterModeCipher(_AES_KEY)
    pas = [0x1000_0000 + i * LINE for i in range(n_lines)]
    vns = [ctx.rng.randrange(1, 1 << 40) for _ in range(n_lines)]

    def run():
        return cipher.keystream_lines(pas, vns)

    return run


@benchmark("crypto.mac_fold", tags=("crypto", "vector"))
def bench_mac_fold(ctx: BenchContext):
    """XOR-folding a tensor's per-line MACs into its tensor MAC."""
    n_macs = ctx.n(200_000, 25_000)
    ctx.items = n_macs
    macs = [ctx.rng.randrange(1 << 56) for _ in range(n_macs)]

    def run():
        return xor_macs(macs)

    return run


@benchmark("mem.mee_stream", tags=("mem", "vector"))
def bench_mee_stream(ctx: BenchContext):
    """MEE bulk write+read of a tensor-sized line stream (with Merkle)."""
    n_lines = ctx.n(192, 48)
    ctx.items = n_lines
    mee = FunctionalMee(_AES_KEY, _MAC_KEY, protected_bytes=4 * MiB)
    vaddrs = [i * LINE for i in range(n_lines)]
    payload = ctx.random_bytes(n_lines * LINE)

    def run():
        mee.write_lines(vaddrs, payload, vn=None)
        return mee.read_lines(vaddrs, vn=None, verify=True)

    return run


@benchmark("npu.tensor_stream", tags=("npu", "vector"))
def bench_npu_tensor_stream(ctx: BenchContext):
    """Delayed-verification engine: write, stream-read, verify one tensor."""
    n_elements = ctx.n(2048, 512)
    registry = TensorRegistry(base_va=0x4200_0000_0000)
    mee = FunctionalMee(_AES_KEY, _MAC_KEY, with_merkle=False, protected_bytes=4 * MiB)
    engine = DelayedVerificationEngine(NpuConfig(), mee, TensorVnTable(registry))
    tensor = registry.allocate("bench", (n_elements,), DType.FP32)
    ctx.items = tensor.n_lines
    payload = ctx.random_bytes(tensor.nbytes)

    def run():
        engine.write_tensor(tensor, payload)
        engine.read_tensor_delayed(tensor)
        failed = engine.poll_verification()
        assert not failed
        return failed

    return run


@benchmark("cpu.tenanalyzer_scan", tags=("cpu", "vector"))
def bench_tenanalyzer_scan(ctx: BenchContext):
    """Batch tensor-condition detection over a synthetic miss trace."""
    n_accesses = ctx.n(65_536, 8_192)
    ctx.items = n_accesses
    rng = ctx.rng
    vaddrs = []
    vns = []
    va = 0x1000_0000
    while len(vaddrs) < n_accesses:
        run_lines = rng.choice((4, 8, 16, 32, 64))
        vn = rng.randrange(1, 1 << 20)
        for i in range(min(run_lines, n_accesses - len(vaddrs))):
            vaddrs.append(va + i * LINE)
            vns.append(vn)
        va += (run_lines + rng.randrange(1, 8)) * LINE

    def run():
        return detect_streams(vaddrs, vns, min_run=4)

    return run


@benchmark("npu.gemm_sweep", tags=("npu", "vector"))
def bench_gemm_sweep(ctx: BenchContext):
    """Batched systolic roofline over a sweep of GEMM shapes."""
    n_shapes = ctx.n(4096, 512)
    ctx.items = n_shapes
    rng = ctx.rng
    config = NpuConfig()
    shapes = [
        GemmShape(
            m=rng.randrange(64, 8192),
            n=rng.randrange(64, 8192),
            k=rng.randrange(64, 8192),
        )
        for _ in range(n_shapes)
    ]

    def run():
        return gemm_times(config, shapes)

    return run


@benchmark("crypto.mac_engine", tags=("crypto",))
def bench_mac_engine(ctx: BenchContext):
    """Keyed-hash line MACs for a stream (C-speed hash, one call per line)."""
    n_lines = ctx.n(4096, 512)
    ctx.items = n_lines
    engine = MacEngine(_MAC_KEY)
    ciphertexts = ctx.random_bytes(n_lines * LINE)
    pas = [i * LINE for i in range(n_lines)]
    vns = [1] * n_lines

    def run():
        return engine.line_macs(ciphertexts, LINE, pas, vns)

    return run
