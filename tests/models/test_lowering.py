"""The one-layer model lowering against the full training-graph builder.

``oracle_training_graph`` is the builder that lowered every decoder
layer separately, kept verbatim. The lowering, the
``build_training_graph`` view over it and every RDU compile mode must
reproduce it exactly: the same operators in the same order, the same
edges, bit-identical FLOP totals and the same sections.
"""

import pytest

from repro.graph.graph import ComputationGraph
from repro.graph.ops import OpKind, Operator
from repro.graph.partition import fuse_linear_chains
from repro.models.config import TrainConfig, gpt2_model, llama2_model
from repro.models.costmodel import TransformerCostModel
from repro.models.graph_builder import (
    _hidden_bytes,
    _layer_forward_ops,
    build_training_graph,
    lower_model,
)
from repro.models.precision import Precision, PrecisionPolicy
from repro.sambanova.compiler import RDUCompiler
from repro.sambanova.sections import Section
from tests.sambanova.test_compiler import (
    _section_rows,
    reference_sections_o3,
)


def oracle_training_graph(model, train):
    """Build the full forward+backward+optimizer training graph.

    Structure::

        embedding -> [layer ops]*L -> final_norm -> lm_head -> loss
                 -> [backward twins in reverse] -> optimizer

    Residual skip connections are represented as extra edges into the
    ``res1``/``res2`` adds, so section/stage boundary cuts see realistic
    communication volumes.
    """
    cost = TransformerCostModel(model)
    graph = ComputationGraph(name=f"{model.name}-train")
    tokens = train.tokens_per_step
    hid = _hidden_bytes(model, train)
    wbytes = train.precision.weight_bytes_per_param
    act = train.precision.activation_bytes_per_value
    logits_bytes = train.batch_size * train.seq_len * model.vocab_size * act

    embed = graph.add_op(Operator(
        "embedding", OpKind.EMBEDDING,
        flops=cost.embedding_forward_flops(train),
        weight_bytes=cost.embedding_params() * wbytes,
        input_bytes=tokens * 4.0,  # int32 token ids
        output_bytes=hid))

    forward_order: list[Operator] = [embed]
    previous = embed.name
    for layer in range(model.n_layers):
        layer_ops = _layer_forward_ops(model, train, layer)
        block_input = previous
        for op in layer_ops:
            graph.add_op(op)
            forward_order.append(op)
        names = [op.name for op in layer_ops]
        graph.chain([block_input] + names)
        # Residual skips: block input joins res1, res1 output joins res2.
        graph.add_edge(block_input, f"layer{layer}.res1", hid)
        graph.add_edge(f"layer{layer}.res1", f"layer{layer}.res2", hid)
        previous = names[-1]

    final_norm = graph.add_op(Operator(
        "final_norm", OpKind.LAYERNORM,
        flops=5.0 * tokens * model.hidden_size,
        weight_bytes=cost.final_norm_params() * wbytes,
        input_bytes=hid, output_bytes=hid))
    lm_head = graph.add_op(Operator(
        "lm_head", OpKind.LM_HEAD,
        flops=cost.lm_head_forward_flops(train),
        weight_bytes=cost.lm_head_params() * wbytes,
        input_bytes=hid, output_bytes=logits_bytes,
        attrs={"m": tokens, "k": model.hidden_size, "n": model.vocab_size}))
    loss = graph.add_op(Operator(
        "loss", OpKind.LOSS,
        flops=10.0 * tokens,
        input_bytes=logits_bytes, output_bytes=8.0))
    graph.chain([previous, final_norm.name, lm_head.name, loss.name])
    forward_order.extend([final_norm, lm_head, loss])

    if not train.training:
        # Inference graphs end at the logits/loss node: no gradient
        # twins, no optimizer.
        graph.validate()
        return graph

    # Backward pass: twin every forward op (except loss), reverse order.
    backward_source = loss.name
    for op in reversed(forward_order[:-1]):
        bwd = graph.add_op(op.as_backward())
        graph.add_edge(backward_source, bwd.name)
        backward_source = bwd.name

    total_params = cost.total_params()
    optimizer = graph.add_op(Operator(
        "optimizer", OpKind.OPTIMIZER,
        flops=12.0 * total_params,  # Adam: ~a dozen elementwise ops/param
        weight_bytes=cost.optimizer_state_bytes(train),
        input_bytes=cost.gradient_bytes(train),
        output_bytes=cost.weight_bytes(train)))
    graph.add_edge(backward_source, optimizer.name)
    graph.validate()
    return graph


def reference_sections(compiler, graph, model, train, tp, mode):
    """The O0/O1 sectioners as they read the full training graph."""
    order = graph.topological_order()
    layer0 = [op for op in order if op.layer_index == 0]
    model_level = [op for op in order if op.layer_index < 0]
    sections = []
    if mode == "O0":
        for op in layer0 + model_level:
            invocations = model.n_layers if op.layer_index >= 0 else 1
            if compiler._needs_sharding(op, train, tp):
                sections.extend(
                    compiler._shard_sections(op, train, tp, invocations))
                continue
            sections.append(Section(
                name=op.name,
                ops=[compiler._demand_of(op, train, tp)],
                invocations=invocations,
                kind=compiler._section_kind(op)))
        return sections
    layer_graph = graph.subgraph([op.name for op in layer0], name="layer0")
    for index, module in enumerate(fuse_linear_chains(layer_graph)):
        if len(module) == 1 and compiler._needs_sharding(
                module[0], train, tp):
            sections.extend(compiler._shard_sections(
                module[0], train, tp, model.n_layers))
            continue
        sections.append(Section(
            name=f"module{index}({module[0].name})",
            ops=[compiler._demand_of(op, train, tp) for op in module],
            invocations=model.n_layers,
            kind=compiler._section_kind(module[0])))
    for op in model_level:
        if compiler._needs_sharding(op, train, tp):
            sections.extend(compiler._shard_sections(op, train, tp, 1))
            continue
        sections.append(Section(
            name=op.name,
            ops=[compiler._demand_of(op, train, tp)],
            invocations=1,
            kind=compiler._section_kind(op)))
    return sections


def _op_rows(ops):
    """Every field of every operator, ``attrs`` included."""
    return [(op.name, op.kind, op.flops, op.weight_bytes, op.input_bytes,
             op.output_bytes, op.layer_index, op.backward, op.attrs)
            for op in ops]


MODELS = [gpt2_model("small"), llama2_model("7b")]
LAYERS = [1, 12, 24, 48]


@pytest.fixture(scope="module")
def compiler():
    return RDUCompiler()


@pytest.fixture(params=[(model, layers, training)
                        for model in MODELS
                        for layers in LAYERS
                        for training in (True, False)],
                ids=lambda p: (f"{p[0].family}-L{p[1]}-"
                               f"{'train' if p[2] else 'infer'}"))
def case(request):
    model, layers, training = request.param
    train = TrainConfig(batch_size=16, seq_len=1024, training=training,
                        precision=PrecisionPolicy.pure(Precision.BF16))
    model = model.with_layers(layers)
    return model, train, oracle_training_graph(model, train)


def test_view_equals_oracle(case):
    model, train, oracle = case
    view = build_training_graph(model, train)
    assert view.name == oracle.name
    assert _op_rows(view) == _op_rows(oracle)
    assert view.edges == oracle.edges
    assert ([[p.name for p in view.predecessors(op.name)] for op in view]
            == [[p.name for p in oracle.predecessors(op.name)]
                for op in oracle])


@pytest.mark.parametrize("mode", ["O0", "O1", "O3"])
def test_step_flops_equal_oracle_total(compiler, case, mode):
    model, train, oracle = case
    report = compiler.compile(model, train, mode=mode)
    assert report.meta["step_flops"] == oracle.total_flops


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("mode", ["O0", "O1", "O3"])
def test_sections_equal_oracle_sections(compiler, case, mode, tp):
    model, train, oracle = case
    got = compiler.compile(model, train, mode=mode, tp=tp).meta["sections"]
    if mode == "O3":
        want = reference_sections_o3(compiler, oracle, model, train, tp)
    else:
        want = reference_sections(compiler, oracle, model, train, tp, mode)
    if tp > 1:
        want += compiler._comm_sections(model, train, tp)
    assert _section_rows(got) == _section_rows(want)


def test_layer_graph_equals_oracle_subgraph(case):
    model, train, oracle = case
    names = [op.name for op in oracle if op.layer_index == 0]
    want = oracle.subgraph(names, name="layer0")
    got = lower_model(model, train).layer_graph()
    assert _op_rows(got) == _op_rows(want)
    assert got.edges == want.edges
    assert ([_op_rows(module) for module in fuse_linear_chains(got)]
            == [_op_rows(module) for module in fuse_linear_chains(want)])
