"""Lower a model + training config once, as one decoder layer x L.

:func:`lower_model` returns a :class:`ModelLowering`: the forward
operators of decoder layer 0, the model-level operators and the layer
count. The decoder stack is L identical blocks, so layer ``i``'s
operators are layer 0's, relabelled. The lowering fixes the order of
the training graph (paper Sec. III: "programs are represented as
computation graphs, where nodes denote operators and edges represent
data dependencies"), and the RDU compiler walks that order without
building the graph. :func:`build_training_graph` builds the full
:class:`~repro.graph.graph.ComputationGraph` from the lowering's
operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.graph.graph import ComputationGraph
from repro.graph.ops import OpKind, Operator
from repro.models.config import ModelConfig, TrainConfig
from repro.models.costmodel import TransformerCostModel


def _hidden_bytes(model: ModelConfig, train: TrainConfig) -> float:
    """Bytes of one (B, S, H) hidden-state tensor."""
    return (train.batch_size * train.seq_len * model.hidden_size
            * train.precision.activation_bytes_per_value)


def _layer_forward_ops(model: ModelConfig, train: TrainConfig,
                       layer: int) -> list[Operator]:
    """Forward operators of decoder layer ``layer``, in execution order."""
    h = model.hidden_size
    f = model.ffn_hidden
    tokens = train.tokens_per_step
    s = train.seq_len
    wbytes = train.precision.weight_bytes_per_param
    hid = _hidden_bytes(model, train)
    ffn_hid = hid * f / h
    kv_hid = hid * model.kv_hidden / h
    score_bytes = (train.batch_size * model.n_heads * s * s
                   * train.precision.activation_bytes_per_value)
    prefix = f"layer{layer}"
    bias = 1 if model.family == "gpt2" else 0
    per_norm_params = 2 * h if model.family == "gpt2" else h

    ops = [
        Operator(f"{prefix}.ln1", OpKind.LAYERNORM,
                 flops=5.0 * tokens * h,
                 weight_bytes=per_norm_params * wbytes,
                 input_bytes=hid, output_bytes=hid, layer_index=layer),
        Operator(f"{prefix}.qkv", OpKind.QKV_PROJ,
                 flops=2.0 * (h * h + 2 * h * model.kv_hidden) * tokens,
                 weight_bytes=(h * h + 2 * h * model.kv_hidden
                               + bias * (h + 2 * model.kv_hidden)) * wbytes,
                 input_bytes=hid, output_bytes=hid + 2 * kv_hid,
                 layer_index=layer,
                 attrs={"m": tokens, "k": h, "n": h + 2 * model.kv_hidden}),
        # Score/softmax maps are internal to the attention operator (they
        # are produced and consumed inside it), so they appear as
        # ``internal_bytes`` rather than boundary traffic.
        Operator(f"{prefix}.attn", OpKind.ATTENTION,
                 flops=2.0 * 2.0 * s * h * tokens * 0.5,
                 input_bytes=hid + 2 * kv_hid,
                 output_bytes=hid, layer_index=layer,
                 attrs={"heads": model.n_heads, "seq": s,
                        "internal_bytes": score_bytes}),
        Operator(f"{prefix}.attn_out", OpKind.ATTN_OUT_PROJ,
                 flops=2.0 * h * h * tokens,
                 weight_bytes=(h * h + bias * h) * wbytes,
                 input_bytes=hid, output_bytes=hid, layer_index=layer,
                 attrs={"m": tokens, "k": h, "n": h}),
        Operator(f"{prefix}.res1", OpKind.RESIDUAL_ADD,
                 flops=1.0 * tokens * h,
                 input_bytes=2 * hid, output_bytes=hid, layer_index=layer),
        Operator(f"{prefix}.ln2", OpKind.LAYERNORM,
                 flops=5.0 * tokens * h,
                 weight_bytes=per_norm_params * wbytes,
                 input_bytes=hid, output_bytes=hid, layer_index=layer),
        Operator(f"{prefix}.ffn_up", OpKind.FFN_UP,
                 flops=2.0 * h * f * tokens,
                 weight_bytes=(h * f + bias * f) * wbytes,
                 input_bytes=hid, output_bytes=ffn_hid, layer_index=layer,
                 attrs={"m": tokens, "k": h, "n": f}),
    ]
    if model.uses_gated_ffn:
        ops.append(
            Operator(f"{prefix}.ffn_gate", OpKind.FFN_GATE,
                     flops=2.0 * h * f * tokens,
                     weight_bytes=h * f * wbytes,
                     input_bytes=hid, output_bytes=ffn_hid,
                     layer_index=layer,
                     attrs={"m": tokens, "k": h, "n": f}))
    ops.extend([
        Operator(f"{prefix}.ffn_act", OpKind.FFN_ACT,
                 flops=4.0 * tokens * f,
                 input_bytes=ffn_hid * (2 if model.uses_gated_ffn else 1),
                 output_bytes=ffn_hid, layer_index=layer),
        Operator(f"{prefix}.ffn_down", OpKind.FFN_DOWN,
                 flops=2.0 * f * h * tokens,
                 weight_bytes=(f * h + bias * h) * wbytes,
                 input_bytes=ffn_hid, output_bytes=hid, layer_index=layer,
                 attrs={"m": tokens, "k": f, "n": h}),
        Operator(f"{prefix}.res2", OpKind.RESIDUAL_ADD,
                 flops=1.0 * tokens * h,
                 input_bytes=2 * hid, output_bytes=hid, layer_index=layer),
    ])
    return ops


@dataclass(frozen=True)
class ModelLowering:
    """A model + training config lowered once: one decoder layer x L.

    Attributes:
        layer: layer 0's forward operators, in execution order.
        model_forward: the embedding, final norm, LM head and loss.
        model_backward: when training, the LM head's, final norm's and
            embedding's backward twins and the optimizer, in the order
            the backward pass reaches them; empty for inference.
        n_layers: decoder-layer count L.
        training: whether the config trains (backward + optimizer).
    """

    layer: tuple[Operator, ...]
    model_forward: tuple[Operator, ...]
    model_backward: tuple[Operator, ...]
    n_layers: int
    training: bool

    @property
    def model_ops(self) -> tuple[Operator, ...]:
        """Every model-level operator: forward, then backward."""
        return self.model_forward + self.model_backward

    @staticmethod
    def name_at(op: Operator, layer: int) -> str:
        """The name ``op`` -- a layer-0 operator or its backward twin, or
        a model-level operator (``layer`` -1) -- has in ``layer``."""
        if layer <= 0:
            return op.name
        return f"layer{layer}{op.name[len('layer0'):]}"

    @classmethod
    def at(cls, op: Operator, layer: int) -> Operator:
        """``op`` as it stands in decoder layer ``layer``: renamed, with
        its ``layer_index`` set (unchanged for layer 0 and ``-1``)."""
        if layer <= 0:
            return op
        return replace(op, name=cls.name_at(op, layer), layer_index=layer)

    def layer_backward(self) -> list[Operator]:
        """Layer 0's backward twins in execution order (none for
        inference)."""
        if not self.training:
            return []
        return [op.as_backward() for op in reversed(self.layer)]

    def training_order(self) -> Iterator[tuple[Operator, int]]:
        """The training graph's topological order as ``(op, layer)``.

        Decoder entries pair a layer-0 operator with the layer it
        stands for (:meth:`at` gives the operator in that layer);
        model-level operators come with ``-1``::

            embedding -> [layer ops]*L -> final_norm -> lm_head -> loss
                     -> [backward twins in reverse] -> optimizer
        """
        embedding, *head = self.model_forward
        yield embedding, -1
        for layer in range(self.n_layers):
            for op in self.layer:
                yield op, layer
        for op in head:
            yield op, -1
        if not self.training:
            return
        *head_backward, embedding_backward, optimizer = self.model_backward
        for op in head_backward:
            yield op, -1
        backward = self.layer_backward()
        for layer in reversed(range(self.n_layers)):
            for op in backward:
                yield op, layer
        yield embedding_backward, -1
        yield optimizer, -1

    @property
    def total_flops(self) -> float:
        """Per-step FLOPs of the whole training graph, summed in its
        order (bit-identical to the graph's ``total_flops``)."""
        return sum(op.flops for op, _layer in self.training_order())

    def layer_graph(self) -> ComputationGraph:
        """Layer 0's forward and backward operators with their edges:
        the forward chain, the ``res1 -> res2`` skip and the backward
        chain -- the full graph's layer-0 subgraph."""
        forward = list(self.layer)
        backward = self.layer_backward()
        graph = ComputationGraph(name="layer0")
        for op in forward + backward:
            graph.add_op(op)
        graph.chain(op.name for op in forward)
        res1, res2 = (op.name for op in forward
                      if op.kind is OpKind.RESIDUAL_ADD)
        graph.add_edge(res1, res2)
        graph.chain(op.name for op in backward)
        return graph


def lower_model(model: ModelConfig, train: TrainConfig) -> ModelLowering:
    """Lower ``model`` under ``train``: layer 0 and the model-level
    operators, each constructed once."""
    cost = TransformerCostModel(model)
    tokens = train.tokens_per_step
    hid = _hidden_bytes(model, train)
    wbytes = train.precision.weight_bytes_per_param
    act = train.precision.activation_bytes_per_value
    logits_bytes = train.batch_size * train.seq_len * model.vocab_size * act

    embed = Operator(
        "embedding", OpKind.EMBEDDING,
        flops=cost.embedding_forward_flops(train),
        weight_bytes=cost.embedding_params() * wbytes,
        input_bytes=tokens * 4.0,  # int32 token ids
        output_bytes=hid)
    final_norm = Operator(
        "final_norm", OpKind.LAYERNORM,
        flops=5.0 * tokens * model.hidden_size,
        weight_bytes=cost.final_norm_params() * wbytes,
        input_bytes=hid, output_bytes=hid)
    lm_head = Operator(
        "lm_head", OpKind.LM_HEAD,
        flops=cost.lm_head_forward_flops(train),
        weight_bytes=cost.lm_head_params() * wbytes,
        input_bytes=hid, output_bytes=logits_bytes,
        attrs={"m": tokens, "k": model.hidden_size, "n": model.vocab_size})
    loss = Operator(
        "loss", OpKind.LOSS,
        flops=10.0 * tokens,
        input_bytes=logits_bytes, output_bytes=8.0)
    model_backward: tuple[Operator, ...] = ()
    if train.training:
        optimizer = Operator(
            "optimizer", OpKind.OPTIMIZER,
            # Adam: ~a dozen elementwise ops/param
            flops=12.0 * cost.total_params(),
            weight_bytes=cost.optimizer_state_bytes(train),
            input_bytes=cost.gradient_bytes(train),
            output_bytes=cost.weight_bytes(train))
        # The decoder layers' twins come between the final norm's and
        # the embedding's.
        model_backward = (lm_head.as_backward(), final_norm.as_backward(),
                          embed.as_backward(), optimizer)
    return ModelLowering(
        layer=tuple(_layer_forward_ops(model, train, 0)),
        model_forward=(embed, final_norm, lm_head, loss),
        model_backward=model_backward,
        n_layers=model.n_layers,
        training=train.training,
    )


def build_training_graph(model: ModelConfig,
                         train: TrainConfig) -> ComputationGraph:
    """The full forward+backward+optimizer training graph, built from
    :func:`lower_model`'s operators.

    Structure::

        embedding -> [layer ops]*L -> final_norm -> lm_head -> loss
                 -> [backward twins in reverse] -> optimizer

    Residual skip connections are represented as extra edges into the
    ``res1``/``res2`` adds, so section/stage boundary cuts see realistic
    communication volumes. Inference graphs end at the loss node.
    """
    hid = _hidden_bytes(model, train)
    graph = ComputationGraph(name=f"{model.name}-train")
    order = lower_model(model, train).training_order()
    embedding, _layer = next(order)
    graph.add_op(embedding)
    # ``stream`` is the residual stream's latest producer: the block
    # input joins res1, res1's output joins res2.
    previous = stream = embedding.name
    for op, layer in order:
        op = ModelLowering.at(op, layer)
        graph.add_op(op)
        graph.add_edge(previous, op.name)
        if op.kind is OpKind.RESIDUAL_ADD and not op.backward:
            graph.add_edge(stream, op.name, hid)
            stream = op.name
        previous = op.name
    graph.validate()
    return graph
