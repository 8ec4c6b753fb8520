"""Transformer tensor inventory.

Builds the concrete tensor set of a model in a :class:`TensorRegistry`:
the fp32 master weights plus Adam state (momentum, variance) and fp32
gradients that live in *CPU* host memory under ZeRO-Offload, and the fp16
weights/activations that live on the NPU. This inventory drives Fig. 4
(tensor count/size characteristics). Its parameter total equals
``ModelConfig.n_params`` by construction, which is what the ZeRO-Offload
volumes read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.tensor.tensor import TensorDesc
from repro.workloads.models import ModelConfig

#: Adam state kept per parameter tensor in CPU memory (role -> dtype).
OPTIMIZER_ROLES: Tuple[Tuple[str, DType], ...] = (
    ("weight32", DType.FP32),
    ("momentum", DType.FP32),
    ("variance", DType.FP32),
    ("grad32", DType.FP32),
)


@dataclass
class ParamGroup:
    """One logical parameter tensor and its optimizer companions."""

    name: str
    shape: Tuple[int, ...]
    layer: int  # -1 for embeddings / final norm
    cpu_tensors: Dict[str, TensorDesc] = field(default_factory=dict)
    npu_weight16: TensorDesc | None = None

    @property
    def n_elements(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count


class TransformerInventory:
    """All tensors of one model, allocated on CPU and NPU registries."""

    def __init__(self, model: ModelConfig, include_embeddings: bool = True) -> None:
        self.model = model
        self.include_embeddings = include_embeddings
        self.cpu = TensorRegistry(base_va=0x7F00_0000_0000)
        self.npu = TensorRegistry(base_va=0x4200_0000_0000)
        self.groups: List[ParamGroup] = []
        self._build()

    def _param_shapes(self) -> List[Tuple[str, Tuple[int, ...], int]]:
        """(name, shape, layer) of every parameter tensor (no biases)."""
        m = self.model
        shapes: List[Tuple[str, Tuple[int, ...], int]] = []
        if self.include_embeddings:
            shapes.append(("embed.weight", (m.vocab, m.hidden), -1))
        for layer in range(m.n_layers):
            prefix = f"layer{layer}"
            for proj in ("q", "k", "v", "o"):
                shapes.append((f"{prefix}.attn.{proj}", (m.hidden, m.hidden), layer))
            if m.gated_mlp:
                shapes.append((f"{prefix}.mlp.gate", (m.hidden, m.ffn), layer))
                shapes.append((f"{prefix}.mlp.up", (m.hidden, m.ffn), layer))
                shapes.append((f"{prefix}.mlp.down", (m.ffn, m.hidden), layer))
            else:
                shapes.append((f"{prefix}.mlp.up", (m.hidden, m.ffn), layer))
                shapes.append((f"{prefix}.mlp.down", (m.ffn, m.hidden), layer))
            shapes.append((f"{prefix}.ln1", (m.hidden,), layer))
            shapes.append((f"{prefix}.ln2", (m.hidden,), layer))
        shapes.append(("final_ln", (m.hidden,), -1))
        return shapes

    def _build(self) -> None:
        for name, shape, layer in self._param_shapes():
            group = ParamGroup(name=name, shape=shape, layer=layer)
            for role, dtype in OPTIMIZER_ROLES:
                group.cpu_tensors[role] = self.cpu.allocate(
                    f"{name}.{role}", shape, dtype=dtype, role=role
                )
            group.npu_weight16 = self.npu.allocate(
                f"{name}.weight16", shape, dtype=DType.FP16, role="weight16"
            )
            self.groups.append(group)

    # -- Fig. 4 characteristics ----------------------------------------------

    @property
    def n_param_tensors(self) -> int:
        """Number of logical parameter tensors ("Tensor num" of Fig. 4)."""
        return len(self.groups)

    @property
    def n_cpu_tensors(self) -> int:
        """All CPU-resident tensors touched by an optimizer step."""
        return len(self.cpu)

    @property
    def total_params(self) -> int:
        return sum(g.n_elements for g in self.groups)

    @property
    def max_tensor_bytes(self) -> int:
        """Largest single fp32 tensor ("Tensor size" of Fig. 4)."""
        return max(g.cpu_tensors["weight32"].nbytes for g in self.groups)

    @property
    def max_layer_tensor_bytes(self) -> int:
        """Largest per-layer tensor (excludes the embedding outlier)."""
        layer_groups = [g for g in self.groups if g.layer >= 0]
        return max(g.cpu_tensors["weight32"].nbytes for g in layer_groups)

    @property
    def mean_tensor_bytes(self) -> float:
        return sum(g.cpu_tensors["weight32"].nbytes for g in self.groups) / len(self.groups)

    # -- communication volumes ----------------------------------------------

    @property
    def grad_bytes(self) -> int:
        """NPU→CPU gradient volume per iteration (fp32, per Fig. 1)."""
        return self.total_params * DType.FP32.nbytes

    @property
    def weight_bytes(self) -> int:
        """CPU→NPU weight volume per iteration (fp16, per Fig. 1)."""
        return self.total_params * DType.FP16.nbytes

    def layer_grad_bytes(self) -> List[int]:
        """Per-layer gradient bytes in backward (last layer first)."""
        per_layer: Dict[int, int] = {}
        for group in self.groups:
            per_layer.setdefault(group.layer, 0)
            per_layer[group.layer] += group.n_elements * DType.FP32.nbytes
        ordered = [per_layer[k] for k in sorted(per_layer) if k >= 0]
        ordered.reverse()
        tail = per_layer.get(-1, 0)
        if tail:
            ordered.append(tail)  # embeddings/final norm at the end of bwd
        return ordered
