"""WSE-2 compiler: elastic PE allocation, placement, and memory planning.

Allocation policy (reproducing paper Sec. V-A1):

1. Every kernel has a scalability cap (``Kernel.cap_pes``) and a weight
   floor (``Kernel.min_pes``).
2. If the summed caps fit in the usable wafer region, every kernel takes
   its cap — the under-subscribed regime where small models leave PEs
   idle (Table I: 33% at one layer, 60% at six).
3. Otherwise the compiler water-fills PEs proportionally to kernel FLOPs,
   clamped to [floor, cap] — the elastic regime where "PE usage per
   attention kernel decreases as model size increases".
4. The placement engine packs the grants as rectangles; fragmentation on
   a nearly-full wafer shrinks grants a few percent further.

Memory planning models the Fig. 9a breakdown: configuration memory grows
quadratically with kernel count (routing/program state), and what remains
after weights+optimizer state bounds the number of in-flight samples the
dataflow pipeline can hold — the mechanism behind the TFLOPs collapse
beyond 36 layers and the hard compile failure at 78.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.common.errors import CompilationError, ConfigurationError, OutOfMemoryError
from repro.common.units import MB
from repro.core.backend import (
    CompileReport,
    MemoryBreakdown,
    PhaseProfile,
    TaskProfile,
)
from repro.core.stages import (
    STAGE_GRAPH,
    STAGE_PARTITION,
    STAGE_PLACEMENT,
    STAGE_REPORT,
    CompileStage,
    hardware_digest,
    run_stages,
    unfingerprinted,
)
from repro.cerebras.kernels import Kernel, extract_kernels
from repro.cerebras.placement import Placement, WaferPlacer
from repro.hardware.specs import CS2_SYSTEM, SystemSpec
from repro.models.config import ModelConfig, TrainConfig
from repro.models.costmodel import TransformerCostModel

# --- calibration constants -------------------------------------------------
# Fraction of the wafer the compiler may allocate (fabric/IO margin).
USABLE_FRACTION = 0.93
# Share of each kernel's grant that routes data rather than computing
# (Fig. 6 shows computation and transmission PEs in close proportion).
TRANSMISSION_FRACTION = 0.40
# Sustained fraction of per-PE peak a dataflow kernel achieves before
# inter-PE communication losses (see ``_comm_efficiency``).
DATAFLOW_EFFICIENCY = 0.80
# Configuration memory: base bytes per kernel + quadratic routing term.
CONFIG_BASE_PER_KERNEL = 20.0 * MB
CONFIG_QUADRATIC_PER_KERNEL2 = 1.4 * MB
# Pipeline occupancy: in-flight samples wanted per kernel for full rate,
# and the minimum depth below which compilation fails.
PIPELINE_DEPTH_FACTOR = 3.0
MIN_PIPELINE_DEPTH = 2.0


class WSECompiler:
    """Maps an LLM training workload onto the WSE-2 wafer."""

    def __init__(self, system: SystemSpec = CS2_SYSTEM) -> None:
        self.system = system
        self.chip = system.chip
        side = int(math.sqrt(self.chip.compute_units))
        self.grid_width = side
        self.grid_height = self.chip.compute_units // side

    # ------------------------------------------------------------------
    def compile(self, model: ModelConfig, train: TrainConfig,
                n_replicas: int = 1,
                mode: str = "pipeline",
                respect_caps: bool = True) -> CompileReport:
        """Compile; raises :class:`CompilationError` when the model cannot map.

        Args:
            model / train: the workload.
            n_replicas: intra-chip data-parallel replicas (Sec. VI-A3a).
            mode: ``"pipeline"`` (whole model resident) or
                ``"weight_streaming"`` (weights streamed from MemoryX).
            respect_caps: ``False`` disables the per-kernel scalability
                thresholds (the DESIGN.md ablation): every kernel then
                water-fills the whole wafer, which inflates allocation to
                the usable ceiling but pays the communication-efficiency
                penalty of oversized kernels.
        """
        return run_stages(self.compile_stages(
            model, train, unfingerprinted, n_replicas=n_replicas,
            mode=mode, respect_caps=respect_caps))

    def compile_stages(self, model: ModelConfig, train: TrainConfig,
                       fp_of: Callable[..., str | None],
                       n_replicas: int = 1,
                       mode: str = "pipeline",
                       respect_caps: bool = True) -> list[CompileStage]:
        """:meth:`compile` as a staged pipeline (graph → partition →
        placement → report).

        ``fp_of(name, parent, **params)`` supplies each stage's
        fingerprint (the backend adapter passes
        :meth:`~repro.core.backend.AcceleratorBackend.stage_fingerprint`;
        plain ``compile`` passes
        :func:`~repro.core.stages.unfingerprinted`). The graph stage
        keys only on the model/train digests, so a replica or mode
        sweep re-extracts kernels exactly once; allocation adds the
        hardware and replica geometry, placement is pure downstream of
        it, and only the report stage sees ``mode``.
        """
        if n_replicas < 1:
            raise ConfigurationError("n_replicas must be >= 1")
        if mode not in ("pipeline", "weight_streaming"):
            raise ConfigurationError(f"unknown WSE mode: {mode!r}")
        if train.batch_size < n_replicas:
            raise ConfigurationError(
                "batch size must be at least the replica count")

        def build_graph(_prev: None) -> tuple[Kernel, ...]:
            return tuple(extract_kernels(model, train))

        def partition(kernels: tuple[Kernel, ...]) -> dict[str, Any]:
            usable_height = max(1,
                                int(self.grid_height * USABLE_FRACTION))
            region_width = max(1, self.grid_width // n_replicas)
            region_pes = float(region_width * usable_height)
            grants = self._allocate(kernels, region_pes,
                                    respect_caps=respect_caps)
            return {"kernels": kernels, "grants": grants,
                    "region_width": region_width,
                    "usable_height": usable_height}

        def place(part: dict[str, Any]) -> dict[str, Any]:
            placer = WaferPlacer(part["region_width"],
                                 part["usable_height"])
            grants, placement = self._fit_placement(
                placer, part["kernels"], part["grants"])
            return {**part, "grants": grants, "placement": placement}

        def report(part: dict[str, Any]) -> CompileReport:
            kernels = part["kernels"]
            grants = part["grants"]
            memory, pipeline_eff, depth = self._plan_memory(
                model, train, kernels, n_replicas, mode)

            rate = (self.chip.flops_per_compute_unit
                    * train.precision.compute.compute_scale / 2.0
                    * DATAFLOW_EFFICIENCY)
            tasks: list[TaskProfile] = []
            service_times: dict[str, float] = {}
            for replica in range(n_replicas):
                prefix = f"r{replica}/" if n_replicas > 1 else ""
                for kernel in kernels:
                    grant = grants[kernel.name]
                    compute = grant * (1.0 - TRANSMISSION_FRACTION)
                    trans = grant * TRANSMISSION_FRACTION
                    efficiency = self._comm_efficiency(grant,
                                                       kernel.cap_pes)
                    service = kernel.flops_per_sample / (
                        compute * rate * efficiency)
                    if replica == 0:
                        service_times[kernel.name] = service
                    tasks.append(TaskProfile(
                        name=prefix + kernel.name,
                        compute_units=compute,
                        memory_units=compute,
                        role="compute",
                        throughput=1.0 / service,
                        flops=kernel.flops_per_sample,
                        meta={"kind": kernel.kind,
                              "layer": kernel.layer_index},
                    ))
                    tasks.append(TaskProfile(
                        name=prefix + kernel.name + ".tx",
                        compute_units=trans,
                        memory_units=trans,
                        role="transmission",
                        meta={"kind": kernel.kind,
                              "layer": kernel.layer_index},
                    ))

            per_replica_batch = max(1, train.batch_size // n_replicas)
            t_max = max(service_times.values())
            fill = sum(service_times.values())
            step_estimate = fill + (per_replica_batch - 1) * t_max
            step_estimate /= pipeline_eff

            phase = PhaseProfile(name="graph", runtime=step_estimate,
                                 tasks=tuple(tasks))
            return CompileReport(
                platform=self.system.name,
                model=model,
                train=train,
                phases=(phase,),
                total_compute_units=float(self.chip.compute_units),
                total_memory_units=float(self.chip.memory_units),
                shared_memory=memory,
                global_memory=memory,  # on-chip tier plays both roles
                n_chips=1,
                meta={
                    "mode": mode,
                    "n_replicas": n_replicas,
                    "kernel_order": [k.name for k in kernels],
                    "service_times": service_times,
                    "pipeline_efficiency": pipeline_eff,
                    "pipeline_depth": depth,
                    "per_replica_batch": per_replica_batch,
                    "placement": part["placement"],
                    "flops_per_sample": sum(
                        k.flops_per_sample for k in kernels),
                    "kernel_weight_bytes": {
                        k.name: k.weight_bytes for k in kernels},
                    "boundary_bytes": {
                        k.name: k.boundary_bytes for k in kernels},
                },
            )

        graph_fp = fp_of(STAGE_GRAPH, "",
                         model=model.content_digest(),
                         train=train.content_digest())
        partition_fp = fp_of(STAGE_PARTITION, graph_fp,
                             system=hardware_digest(self),
                             n_replicas=n_replicas,
                             respect_caps=respect_caps)
        placement_fp = fp_of(STAGE_PLACEMENT, partition_fp)
        report_fp = fp_of(STAGE_REPORT, placement_fp, mode=mode)
        return [
            CompileStage(STAGE_GRAPH, graph_fp, build_graph),
            CompileStage(STAGE_PARTITION, partition_fp, partition),
            CompileStage(STAGE_PLACEMENT, placement_fp, place),
            CompileStage(STAGE_REPORT, report_fp, report),
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _comm_efficiency(grant: float, cap: float) -> float:
        """Per-PE efficiency at a given grant: ``1 / (1 + p / cap)``.

        Inter-PE communication overhead grows with kernel footprint, so
        PEs in a smaller kernel each do more useful work. At the
        scalability cap the efficiency is 0.5 — the diminishing-returns
        point where the compiler stops growing a kernel (Sec. V-A1). This
        is also why intra-chip data parallelism speeds up models that
        already fill the wafer (Fig. 11a): two half-size replicas run
        more efficiently than one full-size graph.
        """
        if cap <= 0:
            return 1.0
        return 1.0 / (1.0 + grant / cap)

    def _allocate(self, kernels: list[Kernel], budget: float,
                  respect_caps: bool = True) -> dict[str, float]:
        """Cap-then-water-fill PE allocation (see module docstring)."""
        floors = {k.name: min(k.min_pes, k.cap_pes) for k in kernels}
        caps = {k.name: k.cap_pes if respect_caps else budget
                for k in kernels}
        if sum(floors.values()) > budget:
            raise OutOfMemoryError(
                "kernel weight floors exceed the wafer region: "
                f"{sum(floors.values()):.0f} PEs needed, {budget:.0f} available",
                required_bytes=sum(floors.values()),
                available_bytes=budget,
            )
        if sum(caps.values()) <= budget:
            return dict(caps)
        # Water-fill: grant ~ lambda * flops, clamped to [floor, cap].
        lo, hi = 0.0, budget / max(min(k.flops_per_sample for k in kernels), 1.0)
        rows = [(caps[k.name], floors[k.name], k.flops_per_sample)
                for k in kernels]

        def total(lam: float) -> float:
            return sum([min(cap, max(floor, lam * flops))
                        for cap, floor, flops in rows])

        for _ in range(80):
            mid = (lo + hi) / 2.0
            if total(mid) < budget:
                lo = mid
            else:
                hi = mid
        lam = (lo + hi) / 2.0
        return {
            k.name: min(caps[k.name],
                        max(floors[k.name], lam * k.flops_per_sample))
            for k in kernels
        }

    def _fit_placement(self, placer: WaferPlacer, kernels: list[Kernel],
                       grants: dict[str, float]
                       ) -> tuple[dict[str, float], Placement]:
        """Shrink grants by the packing efficiency and return placed sizes."""
        demands = [(k.name, grants[k.name]) for k in kernels]
        efficiency = placer.packing_efficiency(demands)
        if efficiency <= 0:
            raise CompilationError(
                "placement failed: kernels cannot be packed onto the wafer")
        scaled = [(name, pes * efficiency) for name, pes in demands]
        placement = placer.place(scaled)
        placed = {rect.name: float(rect.pes) for rect in placement.rects}
        missing = [k.name for k in kernels if k.name not in placed]
        if missing:  # pragma: no cover - placement records all rects
            raise CompilationError(f"kernels not placed: {missing}")
        return placed, placement

    def _plan_memory(self, model: ModelConfig, train: TrainConfig,
                     kernels: list[Kernel], n_replicas: int,
                     mode: str) -> tuple[MemoryBreakdown, float, float]:
        """Memory breakdown, pipeline efficiency, and in-flight depth.

        Raises :class:`OutOfMemoryError` when configuration + training
        state leave no room for even :data:`MIN_PIPELINE_DEPTH` in-flight
        samples — the Table I "Fail" at 78 layers.
        """
        cost = TransformerCostModel(model)
        capacity = self.chip.shared_memory.capacity_bytes
        n_kernels = len(kernels)
        config = n_replicas * (
            CONFIG_BASE_PER_KERNEL * n_kernels
            + CONFIG_QUADRATIC_PER_KERNEL2 * n_kernels ** 2
        )
        weights = cost.weight_bytes(train) + cost.gradient_bytes(train)
        optimizer = cost.optimizer_state_bytes(train)
        if mode == "weight_streaming":
            # Weights and optimizer state live off-chip in MemoryX; only a
            # working copy of the active layer is resident.
            resident_state = (weights + optimizer) / max(model.n_layers, 1)
        else:
            resident_state = weights + optimizer
        resident_state *= n_replicas

        if train.training:
            # Each in-flight sample holds every kernel-boundary tensor
            # from its forward pass until its backward completes.
            per_sample = sum(k.boundary_bytes for k in kernels)
        else:
            # Inference consumes boundaries immediately: only a couple
            # of live tensors per in-flight sample.
            per_sample = 2.0 * max(k.boundary_bytes for k in kernels)
        fixed = config + resident_state
        available = capacity - fixed
        min_needed = MIN_PIPELINE_DEPTH * per_sample * n_replicas
        if available < min_needed:
            raise OutOfMemoryError(
                f"{model.name}: configuration ({config / 1e9:.1f} GB) and "
                f"training state ({resident_state / 1e9:.1f} GB) leave "
                f"{available / 1e9:.1f} GB, below the "
                f"{min_needed / 1e9:.2f} GB pipeline minimum",
                required_bytes=fixed + min_needed,
                available_bytes=capacity,
            )
        depth_max = available / (per_sample * n_replicas)
        depth_target = PIPELINE_DEPTH_FACTOR * n_kernels
        depth = min(depth_max, depth_target)
        pipeline_eff = min(1.0, depth_max / depth_target)
        activations = depth * per_sample * n_replicas
        breakdown = MemoryBreakdown(
            capacity_bytes=capacity,
            configuration_bytes=config,
            weight_bytes=(weights * n_replicas
                          if mode == "pipeline" else resident_state),
            activation_bytes=activations,
            optimizer_bytes=optimizer * n_replicas if mode == "pipeline" else 0.0,
        )
        return breakdown, pipeline_eff, depth

    # ------------------------------------------------------------------
    def max_layers(self, model: ModelConfig, train: TrainConfig,
                   upper: int = 256) -> int:
        """Largest layer count that still compiles (binary search).

        Reproduces the paper's scalability-limit finding ("supporting up
        to 72 decoder layers in our experiments").
        """
        lo, hi = 0, upper
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                self.compile(model.with_layers(mid), train)
            except CompilationError:
                hi = mid - 1
            else:
                lo = mid
        return lo


def meta_of(report: CompileReport, key: str) -> Any:
    """Typed-ish accessor for WSE compile metadata."""
    return report.meta[key]
