"""Operator taxonomy for LLM computation graphs.

Each :class:`Operator` is a node in a :class:`~repro.graph.graph.ComputationGraph`
and carries the cost-model quantities every platform compiler needs:

* ``flops`` — floating-point operations per *training step* (fwd or bwd,
  depending on the op instance),
* ``weight_bytes`` — parameter storage attributed to this op,
* ``input_bytes`` / ``output_bytes`` — activation traffic per step,
* structural metadata (which decoder layer the op belongs to, whether it is
  a forward or backward op, fusion affinity).

Operators are deliberately coarse — one node per logical layer component
(QKV projection, attention score, FFN matmul, ...) — matching the
granularity at which the paper's platforms map work (Sec. III-A: "each
layer in the model is mapped to a kernel").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

from repro.common.errors import ConfigurationError


class OpKind(enum.Enum):
    """Coarse operator categories used by fusion and placement policies."""

    EMBEDDING = "embedding"
    LAYERNORM = "layernorm"
    QKV_PROJ = "qkv_proj"
    ATTENTION = "attention"
    ATTN_OUT_PROJ = "attn_out_proj"
    FFN_UP = "ffn_up"
    FFN_GATE = "ffn_gate"
    FFN_ACT = "ffn_act"
    FFN_DOWN = "ffn_down"
    RESIDUAL_ADD = "residual_add"
    LM_HEAD = "lm_head"
    LOSS = "loss"
    OPTIMIZER = "optimizer"
    COMMUNICATION = "communication"

    @property
    def is_matmul(self) -> bool:
        """Whether the op is dominated by dense matrix multiplication."""
        return self in _MATMUL_KINDS

    @property
    def is_elementwise(self) -> bool:
        """Whether the op is elementwise/normalization (fusion-friendly)."""
        return self in _ELEMENTWISE_KINDS


_MATMUL_KINDS = frozenset(
    {
        OpKind.QKV_PROJ,
        OpKind.ATTENTION,
        OpKind.ATTN_OUT_PROJ,
        OpKind.FFN_UP,
        OpKind.FFN_GATE,
        OpKind.FFN_DOWN,
        OpKind.LM_HEAD,
    }
)

_ELEMENTWISE_KINDS = frozenset(
    {
        OpKind.LAYERNORM,
        OpKind.FFN_ACT,
        OpKind.RESIDUAL_ADD,
        OpKind.LOSS,
        OpKind.OPTIMIZER,
    }
)


@dataclass(frozen=True)
class Operator:
    """A single computation-graph node with its cost-model quantities.

    Attributes:
        name: unique node identifier within a graph.
        kind: coarse operator category.
        flops: floating-point operations performed per training step.
        weight_bytes: parameter bytes resident for this operator.
        input_bytes: activation bytes read per step.
        output_bytes: activation bytes written per step.
        layer_index: decoder-layer the op belongs to; ``-1`` for
            model-level ops (embedding, LM head, loss, optimizer).
        backward: ``True`` for gradient-computation twin ops.
        attrs: free-form metadata (e.g. matmul dims) used by compilers.
    """

    name: str
    kind: OpKind
    flops: float = 0.0
    weight_bytes: float = 0.0
    input_bytes: float = 0.0
    output_bytes: float = 0.0
    layer_index: int = -1
    backward: bool = False
    attrs: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("operator name must be non-empty")
        for label in ("flops", "weight_bytes", "input_bytes", "output_bytes"):
            value = getattr(self, label)
            if value < 0:
                raise ConfigurationError(
                    f"operator {self.name!r}: {label} must be >= 0, got {value}"
                )

    @property
    def activation_bytes(self) -> float:
        """Total activation traffic (input + output) per step."""
        return self.input_bytes + self.output_bytes

    @property
    def memory_bytes(self) -> float:
        """Total bytes touched per step: weights plus activations."""
        return self.weight_bytes + self.activation_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte touched; ``0.0`` for zero-traffic ops."""
        mem = self.memory_bytes
        return self.flops / mem if mem > 0 else 0.0

    @property
    def is_decoder_op(self) -> bool:
        """Whether the op belongs to a decoder layer (vs model-level)."""
        return self.layer_index >= 0

    def as_backward(self, flops_multiplier: float = 2.0) -> "Operator":
        """Derive this op's backward twin.

        Backward matmuls cost roughly 2x the forward FLOPs (grad wrt input
        and grad wrt weights), which is the standard 2:4 forward:backward
        split behind the paper's ``6 x P`` FLOPs-per-token estimate (Eq. 5).
        """
        return Operator(
            name=f"{self.name}.bwd",
            kind=self.kind,
            flops=self.flops * flops_multiplier,
            weight_bytes=self.weight_bytes,
            input_bytes=self.output_bytes,
            output_bytes=self.input_bytes,
            layer_index=self.layer_index,
            backward=True,
            attrs=self.attrs,
        )

    def scaled(self, factor: float, *, suffix: str = "") -> "Operator":
        """Return a copy with compute and traffic scaled by ``factor``.

        Used by sharding (a shard does ``1/n`` of the work) and by batch
        rescaling. Weight bytes scale too: a shard holds a weight slice.
        """
        if factor < 0:
            raise ConfigurationError(f"scale factor must be >= 0, got {factor}")
        return replace(
            self,
            name=self.name + suffix,
            flops=self.flops * factor,
            weight_bytes=self.weight_bytes * factor,
            input_bytes=self.input_bytes * factor,
            output_bytes=self.output_bytes * factor,
        )
