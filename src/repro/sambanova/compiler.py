"""RDU compiler: operator demands, fusion, and section partitioning.

Demand model
------------
PCU demand follows a sub-linear law in operator size — ``pcus ~ 1.33 *
(weight elements)^0.3`` for matmuls — reflecting that larger matrices use
deeper per-PCU tiles rather than proportionally more units (the paper
observes per-section PCU counts tracking shard geometry, not hidden size;
Table II(b)). PMU demand stages resident weights plus a fraction of the
streaming activation traffic.

Section partitioning (paper Sec. III-B, Fig. 4)
-----------------------------------------------
* **O0** — one operator per section, invoked once per decoder layer.
* **O1** — :func:`~repro.graph.partition.fuse_linear_chains` groups each
  matmul with its trailing elementwise ops into a module; one module per
  section, invoked per layer. Oversized matrices shard via
  :mod:`repro.sambanova.sharding`.
* **O3** — the full multi-layer training order is packed
  decoder-by-decoder into sections under a PCU/PMU budget; large hidden
  sizes force decoders to split across sections (the Table II(a)
  "Ratio" column), small ones let sections span multiple decoders.

Tensor parallelism shards every matmul across ``tp`` RDUs and inserts
per-layer all-reduce sections whose cost depends on whether the group
fits inside one SN30 machine (Sec. VI-A3b).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.core.backend import (
    CompileReport,
    MemoryBreakdown,
    PhaseProfile,
    TaskProfile,
)
from repro.core.stages import (
    STAGE_GRAPH,
    STAGE_PARTITION,
    STAGE_REPORT,
    CompileStage,
    hardware_digest,
    run_stages,
    unfingerprinted,
)
from repro.graph.ops import OpKind, Operator
from repro.graph.partition import fuse_linear_chains
from repro.hardware.specs import SN30_SYSTEM, SystemSpec
from repro.models.config import ModelConfig, TrainConfig
from repro.models.costmodel import TransformerCostModel
from repro.models.graph_builder import ModelLowering, lower_model
from repro.sambanova.sections import OpDemand, Section
from repro.sambanova.sharding import SHARD_WEIGHT_BYTES, plan_shards

# --- demand-model calibration constants ------------------------------------
PCU_PER_WEIGHT_ROOT = 1.33     # pcus = this * (weight elements)^0.3
PCU_PER_ELEMWISE_ROOT = 0.5    # pcus = this * (activation elements)^0.3
PMU_STAGE_FRACTION = 0.2       # fraction of streaming IO staged in PMUs
MAX_SINGLE_OP_UNITS = 480.0    # clamp for ops that exceed the fabric
BACKWARD_PCU_FACTOR = 1.6      # grad ops hold two matmul pipelines
BACKWARD_PMU_FACTOR = 2.0      # grad ops also stage stashed activations
# O3 packs ops into sections under these budgets.
SECTION_PCU_BUDGET = 400.0
SECTION_PMU_BUDGET = 520.0
# O3 trades per-operator parallelism for fewer sections: grants shrink
# so ~1.5 decoders share a section at hidden 768 (Table II(a)'s 0.66
# forward ratio), unlike O0/O1 where each op keeps its full grant.
O3_PACKING_FACTOR = 0.45
# Fraction of per-PCU peak sustained by a mapped dataflow pipeline.
PCU_EFFICIENCY = 0.35
# O0 runs each operator in isolation: the fabric pipeline fills and
# drains per operator with no producer/consumer overlap, collapsing the
# utilization of the allocated PCUs (Fig. 9b: "O0 severely limited").
OPERATOR_MODE_EFFICIENCY = 0.25
# Reconfiguration cost of swapping a section onto the fabric (loading PCU
# programs and switch routes). Milliseconds-scale on real RDUs; this fixed
# per-invocation cost is what makes small-batch RDU throughput overhead-
# dominated and batch scaling near-linear (Fig. 12).
SECTION_SWITCH_SECONDS = 4.0e-3
# Matmul slowdown when activations are wider than the datapath and must
# be cast at every operator boundary (Table IV's "BF16" baseline).
ACTIVATION_CAST_PENALTY = 0.75
COMM_SECTION_PCUS = 16.0
COMM_SECTION_PMUS = 32.0

MATMUL_KINDS = {
    OpKind.QKV_PROJ, OpKind.ATTN_OUT_PROJ, OpKind.FFN_UP,
    OpKind.FFN_GATE, OpKind.FFN_DOWN, OpKind.LM_HEAD,
}
# Operators tensor parallelism splits across RDUs (matmuls by weight
# columns, attention by heads).
TP_SHARDED_KINDS = MATMUL_KINDS | {OpKind.ATTENTION}


class RDUCompiler:
    """Maps an LLM training workload onto SN30 RDUs."""

    def __init__(self, system: SystemSpec = SN30_SYSTEM) -> None:
        self.system = system
        self.chip = system.chip
        self.pmu_bytes = self.chip.shared_memory_per_unit

    # ------------------------------------------------------------------
    def compile(self, model: ModelConfig, train: TrainConfig,
                mode: str = "O1", tp: int = 1) -> CompileReport:
        """Compile under one of the three RDU modes, optionally with TP."""
        return run_stages(self.compile_stages(
            model, train, unfingerprinted, mode=mode, tp=tp))

    def compile_stages(self, model: ModelConfig, train: TrainConfig,
                       fp_of: Callable[..., str | None],
                       mode: str = "O1",
                       tp: int = 1) -> list[CompileStage]:
        """:meth:`compile` as a staged pipeline (graph → partition →
        report).

        The graph stage lowers the model once, as one decoder layer
        x L (:func:`~repro.models.graph_builder.lower_model`), and keys
        only on the model/train digests — an O0/O1/O3 or TP sweep
        lowers the model exactly once.
        Sectioning adds the mode, the TP degree, and the hardware spec;
        the report stage is pure downstream of the sections. There is
        no distinct placement stage on the RDU: section mapping *is*
        the placement.
        """
        if mode not in ("O0", "O1", "O3"):
            raise ConfigurationError(f"unknown RDU compile mode: {mode!r}")
        if tp < 1:
            raise ConfigurationError("tp must be >= 1")
        if tp > self.system.total_chips:
            raise ConfigurationError(
                f"tp={tp} exceeds the {self.system.total_chips} RDUs of "
                f"{self.system.name}")

        def build_graph(_prev: None) -> ModelLowering:
            return lower_model(model, train)

        def partition(lowering: ModelLowering) -> dict[str, Any]:
            if mode == "O0":
                sections = self._sections_o0(lowering, train, tp)
            elif mode == "O1":
                sections = self._sections_o1(lowering, train, tp)
            else:
                sections = self._sections_o3(lowering, train, tp)
            if tp > 1:
                sections.extend(self._comm_sections(model, train, tp))
            return {"sections": tuple(sections),
                    "step_flops": lowering.total_flops}

        def report(part: dict[str, Any]) -> CompileReport:
            sections = part["sections"]
            rate = (self.chip.flops_per_compute_unit
                    * train.precision.compute.compute_scale / 2.0
                    * PCU_EFFICIENCY)
            if mode == "O0":
                rate *= OPERATOR_MODE_EFFICIENCY
            if train.precision.needs_activation_casts:
                rate *= ACTIVATION_CAST_PENALTY
            phases = tuple(
                self._phase_of(section, rate) for section in sections)
            memory = self._shared_memory(sections)
            global_memory = self._global_memory(model, train, tp,
                                                sections)
            self._check_ddr(model, global_memory)
            return CompileReport(
                platform=self.system.name,
                model=model,
                train=train,
                phases=phases,
                total_compute_units=float(self.chip.compute_units),
                total_memory_units=float(self.chip.memory_units),
                shared_memory=memory,
                global_memory=global_memory,
                n_chips=tp,
                meta={
                    "mode": mode,
                    "tp": tp,
                    "sections": list(sections),
                    "pcu_rate": rate,
                    "step_flops": part["step_flops"],
                },
            )

        graph_fp = fp_of(STAGE_GRAPH, "",
                         model=model.content_digest(),
                         train=train.content_digest())
        partition_fp = fp_of(STAGE_PARTITION, graph_fp,
                             system=hardware_digest(self),
                             mode=mode, tp=tp)
        report_fp = fp_of(STAGE_REPORT, partition_fp)
        return [
            CompileStage(STAGE_GRAPH, graph_fp, build_graph),
            CompileStage(STAGE_PARTITION, partition_fp, partition),
            CompileStage(STAGE_REPORT, report_fp, report),
        ]

    # ------------------------------------------------------------------
    # Demand model
    # ------------------------------------------------------------------
    def _matmul_elements(self, op: Operator, tp: int) -> float:
        """Logical weight elements of a matmul (even when tied)."""
        if "k" in op.attrs and "n" in op.attrs:
            return float(op.attrs["k"]) * float(op.attrs["n"]) / tp
        return max(op.weight_bytes / 2.0, 1.0) / tp

    def _demand_of(self, op: Operator, train: TrainConfig,
                   tp: int) -> OpDemand:
        """One operator's PCU/PMU/traffic demand."""
        shard = 1.0 / tp if op.kind in TP_SHARDED_KINDS else 1.0
        if op.kind in MATMUL_KINDS:
            elements = self._matmul_elements(op, tp)
            pcus = PCU_PER_WEIGHT_ROOT * elements ** 0.3
        elif op.kind is OpKind.ATTENTION:
            pcus = PCU_PER_WEIGHT_ROOT * float(train.seq_len) ** 0.6
        else:
            per_sample = max(
                op.output_bytes
                / train.precision.activation_bytes_per_value
                / train.batch_size, 1.0)
            pcus = PCU_PER_ELEMWISE_ROOT * per_sample ** 0.3
        if op.backward:
            pcus *= BACKWARD_PCU_FACTOR
        io_bytes = (op.input_bytes + op.output_bytes) * shard
        weight_bytes = op.weight_bytes * shard
        pmus = (weight_bytes + PMU_STAGE_FRACTION * io_bytes) / self.pmu_bytes
        if op.backward:
            pmus *= BACKWARD_PMU_FACTOR
        pcus = min(pcus, MAX_SINGLE_OP_UNITS)
        pmus = max(min(pmus, MAX_SINGLE_OP_UNITS), 2.0)
        return OpDemand(
            name=op.name,
            kind=op.kind.value,
            flops=op.flops * shard,
            pcus=pcus,
            pmus=pmus,
            weight_bytes=weight_bytes,
            io_bytes=io_bytes,
            backward=op.backward,
        )

    def _needs_sharding(self, op: Operator, train: TrainConfig,
                        tp: int) -> bool:
        if op.kind not in MATMUL_KINDS:
            return False
        logical_bytes = (self._matmul_elements(op, tp)
                         * train.precision.weight_bytes_per_param)
        return logical_bytes > SHARD_WEIGHT_BYTES

    def _shard_sections(self, op: Operator, train: TrainConfig, tp: int,
                        invocations: int) -> list[Section]:
        """Expand an oversized matmul into shard sections (Table II(b))."""
        logical_bytes = (self._matmul_elements(op, tp)
                         * train.precision.weight_bytes_per_param)
        plan = plan_shards(logical_bytes, self.pmu_bytes,
                           PCU_PER_WEIGHT_ROOT)
        base = self._demand_of(op, train, tp)
        sections = []
        shards_left = plan.n_shards
        for index in range(plan.n_sections):
            in_section = min(plan.shards_per_section, shards_left)
            shards_left -= in_section
            fraction = in_section / plan.n_shards
            ops = [OpDemand(
                name=f"{op.name}.shard{index}",
                kind=base.kind,
                flops=base.flops * fraction,
                pcus=plan.pcus_per_section * (in_section
                                              / plan.shards_per_section),
                pmus=plan.pmus_per_section * (in_section
                                              / plan.shards_per_section),
                weight_bytes=op.weight_bytes / tp * fraction,
                io_bytes=base.io_bytes * fraction,
                backward=op.backward,
                meta={"shards": in_section, "total_shards": plan.n_shards},
            )]
            sections.append(Section(
                name=f"{op.name}.S{index}",
                ops=ops,
                invocations=invocations,
                kind="backward" if op.backward else "forward",
            ))
        return sections

    # ------------------------------------------------------------------
    # Mode-specific sectioners
    # ------------------------------------------------------------------
    def _sections_o0(self, lowering: ModelLowering, train: TrainConfig,
                     tp: int) -> list[Section]:
        """One operator per section."""
        layer0 = list(lowering.layer) + lowering.layer_backward()
        sections: list[Section] = []
        for op in layer0 + list(lowering.model_ops):
            invocations = lowering.n_layers if op.layer_index >= 0 else 1
            if self._needs_sharding(op, train, tp):
                sections.extend(
                    self._shard_sections(op, train, tp, invocations))
                continue
            sections.append(Section(
                name=op.name,
                ops=[self._demand_of(op, train, tp)],
                invocations=invocations,
                kind=self._section_kind(op),
            ))
        return sections

    def _sections_o1(self, lowering: ModelLowering, train: TrainConfig,
                     tp: int) -> list[Section]:
        """One fused module per section."""
        modules = fuse_linear_chains(lowering.layer_graph())
        sections: list[Section] = []
        for index, module in enumerate(modules):
            if len(module) == 1 and self._needs_sharding(
                    module[0], train, tp):
                sections.extend(self._shard_sections(
                    module[0], train, tp, lowering.n_layers))
                continue
            demands = [self._demand_of(op, train, tp) for op in module]
            sections.append(Section(
                name=f"module{index}({module[0].name})",
                ops=demands,
                invocations=lowering.n_layers,
                kind=self._section_kind(module[0]),
            ))
        for op in lowering.model_ops:
            if self._needs_sharding(op, train, tp):
                sections.extend(self._shard_sections(op, train, tp, 1))
                continue
            sections.append(Section(
                name=op.name,
                ops=[self._demand_of(op, train, tp)],
                invocations=1,
                kind=self._section_kind(op),
            ))
        return sections

    def _sections_o3(self, lowering: ModelLowering, train: TrainConfig,
                     tp: int) -> list[Section]:
        """Pack the full multi-layer training order into budgeted
        sections.

        Decoder layer ``i`` repeats layer 0, so each layer-0 op's
        sharding decision and packed demand are worked out once and
        relabelled per layer.
        """
        # op name -> packed demand, or None when the op shards
        plans: dict[str, OpDemand | None] = {}
        sections: list[Section] = []
        pending: list[OpDemand] = []
        pending_kind = "forward"
        # Running sums of ``pending``, added left to right like
        # ``sum(d.pcus for d in pending)`` would.
        pending_pcus = pending_pmus = 0
        counter = {"n": 0}

        def flush() -> None:
            nonlocal pending_pcus, pending_pmus
            if not pending:
                return
            sections.append(Section(
                name=f"sec{counter['n']}",
                ops=list(pending),
                invocations=1,
                kind=pending_kind,
            ))
            counter["n"] += 1
            pending.clear()
            pending_pcus = pending_pmus = 0

        for op, layer in lowering.training_order():
            if op.name not in plans:
                plans[op.name] = self._packed_demand(op, train, tp)
            demand = plans[op.name]
            if demand is None:
                flush()
                sections.extend(self._shard_sections(
                    lowering.at(op, layer), train, tp, 1))
                continue
            if layer > 0:
                demand = demand.renamed(lowering.name_at(op, layer))
            kind = self._section_kind(op)
            if pending and (pending_pcus + demand.pcus > SECTION_PCU_BUDGET
                            or pending_pmus + demand.pmus > SECTION_PMU_BUDGET
                            or kind != pending_kind):
                flush()
            pending_kind = kind
            pending.append(demand)
            pending_pcus += demand.pcus
            pending_pmus += demand.pmus
        flush()
        return sections

    def _packed_demand(self, op: Operator, train: TrainConfig,
                       tp: int) -> OpDemand | None:
        """``op``'s O3 demand, its grants shrunk by
        :data:`O3_PACKING_FACTOR`; ``None`` when the op shards."""
        if self._needs_sharding(op, train, tp):
            return None
        base = self._demand_of(op, train, tp)
        return OpDemand(
            name=base.name,
            kind=base.kind,
            flops=base.flops,
            pcus=base.pcus * O3_PACKING_FACTOR,
            pmus=base.pmus * O3_PACKING_FACTOR,
            weight_bytes=base.weight_bytes,
            io_bytes=base.io_bytes,
            backward=base.backward,
            meta=base.meta,
        )

    @staticmethod
    def _section_kind(op: Operator) -> str:
        if op.kind is OpKind.OPTIMIZER:
            return "model"
        if op.backward:
            return "backward"
        if op.layer_index < 0:
            return "model"
        return "forward"

    def _comm_sections(self, model: ModelConfig, train: TrainConfig,
                       tp: int) -> list[Section]:
        """Per-layer all-reduce sections for tensor parallelism."""
        hidden_bytes = (train.batch_size * train.seq_len * model.hidden_size
                        * train.precision.activation_bytes_per_value)
        volume = 2.0 * (tp - 1) / tp * hidden_bytes
        # Two all-reduces per layer (attention output, FFN output), times
        # two for the backward pass.
        op = OpDemand(
            name="allreduce",
            kind="communication",
            flops=0.0,
            pcus=COMM_SECTION_PCUS,
            pmus=COMM_SECTION_PMUS,
            io_bytes=volume,
            meta={"volume": volume, "tp": tp},
        )
        return [Section(name="allreduce", ops=[op],
                        invocations=4 * model.n_layers, kind="comm")]

    # ------------------------------------------------------------------
    # Timing and memory
    # ------------------------------------------------------------------
    def _phase_of(self, section: Section, rate: float) -> PhaseProfile:
        tasks = []
        bottleneck = 0.0
        for op in section.ops:
            if op.kind == "communication":
                bw = self._tp_bandwidth(op)
                service = op.io_bytes / bw
            else:
                service = op.flops / max(op.pcus * rate, 1.0)
            bottleneck = max(bottleneck, service)
            tasks.append(TaskProfile(
                name=op.name,
                compute_units=op.pcus,
                memory_units=op.pmus,
                role="compute",
                throughput=1.0 / service if service > 0 else 0.0,
                flops=op.flops,
                meta={**op.meta, "kind": op.kind,
                      "backward": op.backward},
            ))
        ddr_time = section.ddr_bytes / self.chip.global_memory.bandwidth
        runtime = SECTION_SWITCH_SECONDS + max(bottleneck, ddr_time)
        return PhaseProfile(
            name=section.name,
            runtime=runtime,
            tasks=tuple(tasks),
            invocations=section.invocations,
        )

    def _tp_bandwidth(self, op: OpDemand) -> float:
        tp = op.meta.get("tp", 0)
        if tp and tp > self.system.chips_per_node:
            return self.system.inter_node_bandwidth
        return self.system.intra_node_bandwidth

    def _shared_memory(self, sections: list[Section]) -> MemoryBreakdown:
        peak = max((s.pmus for s in sections), default=0.0) * self.pmu_bytes
        return MemoryBreakdown(
            capacity_bytes=self.chip.shared_memory.capacity_bytes,
            weight_bytes=peak * 0.5,
            activation_bytes=peak * 0.5,
        )

    def _global_memory(self, model: ModelConfig, train: TrainConfig,
                       tp: int, sections: list[Section]) -> MemoryBreakdown:
        """Per-RDU DDR footprint.

        Activations spilled to DDR are the *section-boundary* tensors
        stashed until the backward pass — intra-section intermediates
        (including attention score maps) stream through PMUs and never
        land in DDR.
        """
        cost = TransformerCostModel(model)
        weights = (cost.weight_bytes(train)
                   + cost.gradient_bytes(train)) / tp
        optimizer = cost.optimizer_state_bytes(train) / tp
        # Checkpoint-style stashing: one layer-boundary tensor per decoder
        # layer survives until the backward pass (intermediates are
        # recomputed), plus the logits produced by the LM head. Inference
        # holds only the transient boundary and the logits.
        hidden = (train.batch_size * train.seq_len * model.hidden_size
                  * train.precision.activation_bytes_per_value)
        logits = (train.batch_size * train.seq_len * model.vocab_size
                  * train.precision.activation_bytes_per_value)
        stashed_layers = (model.n_layers + 1) if train.training else 1
        spill = stashed_layers * hidden + logits
        del sections  # spill is checkpoint-based, not section-based
        return MemoryBreakdown(
            capacity_bytes=self.chip.global_memory.capacity_bytes,
            weight_bytes=weights,
            activation_bytes=spill,
            optimizer_bytes=optimizer,
        )

    def _check_ddr(self, model: ModelConfig,
                   memory: MemoryBreakdown) -> None:
        if memory.total_bytes > memory.capacity_bytes:
            raise OutOfMemoryError(
                f"{model.name}: training state "
                f"({memory.total_bytes / 1e9:.0f} GB) exceeds per-RDU DDR "
                f"({memory.capacity_bytes / 1e9:.0f} GB); increase tp",
                required_bytes=memory.total_bytes,
                available_bytes=memory.capacity_bytes,
            )

    # ------------------------------------------------------------------
    def partition_summary(self, report: CompileReport) -> dict[str, Any]:
        """Table II(a)-style accounting: sections per decoder and ratios."""
        sections: list[Section] = report.meta["sections"]
        n_layers = report.model.n_layers
        forward = [s for s in sections if s.kind == "forward"]
        backward = [s for s in sections if s.kind == "backward"]
        fwd_decoder = [s for s in forward
                       if any(d.kind not in ("embedding", "lm_head")
                              for d in s.ops)]
        bwd_decoder = [s for s in backward
                       if any(d.kind not in ("embedding", "lm_head")
                              for d in s.ops)]
        return {
            "forward_sections": len(forward),
            "backward_sections": len(backward),
            "forward_ratio": len(fwd_decoder) / max(n_layers, 1),
            "backward_ratio": len(bwd_decoder) / max(n_layers, 1),
        }
