"""ZeRO-Offload iteration structure (Fig. 1 of the paper).

One training iteration is four stages:

1. **NPU fwd+bwd** — forward and backward computation on the NPU.
2. **NPU→CPU gradient transfer** — fp32 gradients (Fig. 1 "Comm grad").
3. **CPU Adam update** — optimizer states and master weights on the CPU.
4. **CPU→NPU weight transfer** — fp16 weights (Fig. 1 "Comm weight").

This module computes the *volumes* (bytes, FLOPs) of each stage; timing
lives in the device models, and overlap policy in
:mod:`repro.comm.scheduler`. Gradients are produced layer-by-layer during
backward (so their transfer can overlap backward), and weights are consumed
layer-by-layer by the next forward (so their transfer can partially overlap
the optimizer tail).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tensor.dtype import DType
from repro.workloads.models import ModelConfig

#: Bytes of CPU DRAM traffic per parameter in one Adam step:
#: reads w32+m+v+g (4 x fp32) and writes w32+m+v (3 x fp32) + w16 out (fp16).
ADAM_BYTES_PER_PARAM: int = 4 * 4 + 3 * 4 + 2

#: Arithmetic operations per parameter in one Adam step (mul/add/sqrt/div).
ADAM_OPS_PER_PARAM: int = 14


@dataclass(frozen=True)
class IterationVolumes:
    """Per-iteration work volumes of one model."""

    model_name: str
    npu_flops: float
    npu_weight_bytes: int  # fp16 weights streamed by fwd+bwd kernels
    npu_activation_bytes: int  # activation traffic to/from GDDR
    grad_bytes: int  # NPU -> CPU, fp32
    weight_bytes: int  # CPU -> NPU, fp16
    cpu_adam_bytes: int
    cpu_adam_ops: float
    n_params: int

    @property
    def comm_total_bytes(self) -> int:
        return self.grad_bytes + self.weight_bytes


class ZeroOffloadSchedule:
    """Computes stage volumes and per-layer overlap structure for a model."""

    def __init__(self, model: ModelConfig) -> None:
        self.model = model

    def volumes(self) -> IterationVolumes:
        """Work volumes of one training iteration.

        ``ModelConfig.n_params`` is the parameter total of the model's
        :class:`~repro.workloads.transformer.TransformerInventory` by
        construction, so no tensor inventory is built here.
        """
        m = self.model
        n_params = m.n_params
        # fwd reads weights once, bwd reads them again (recompute-free):
        weight_traffic = 2 * n_params * DType.FP16.nbytes
        # Activations: ~2 bytes/elem, read+write in fwd, read in bwd, for
        # roughly 12 activation maps of size (tokens x hidden) per layer.
        act_elems = m.tokens_per_batch * m.hidden * m.n_layers * 12
        act_traffic = 3 * act_elems * DType.FP16.nbytes
        return IterationVolumes(
            model_name=m.name,
            npu_flops=m.fwd_bwd_flops(),
            npu_weight_bytes=weight_traffic,
            npu_activation_bytes=act_traffic,
            grad_bytes=n_params * DType.FP32.nbytes,
            weight_bytes=n_params * DType.FP16.nbytes,
            cpu_adam_bytes=n_params * ADAM_BYTES_PER_PARAM,
            cpu_adam_ops=float(n_params * ADAM_OPS_PER_PARAM),
            n_params=n_params,
        )

    def overlap_fractions(self) -> tuple[float, float]:
        """(grad_overlap, weight_overlap): fraction of each transfer that can
        be hidden when transfers may run concurrently with computation.

        Gradients stream out during backward: every layer's chunk except the
        last one produced can be hidden. Weights can stream layer-by-layer
        under the optimizer tail and the next forward — but only when the
        protocol allows transfer/compute concurrency (TensorTEE's direct
        channel; the baseline serializes, and the paper's non-secure
        schedule uploads weights in one exposed step, Fig. 5).
        """
        n = max(1, self.model.n_layers)
        grad_overlap = (n - 1) / n
        weight_overlap = (n - 1) / n
        return grad_overlap, weight_overlap
