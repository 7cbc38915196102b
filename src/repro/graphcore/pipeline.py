"""Pipeline execution on IPUs: GPipe-style schedule via discrete events.

Micro-batches flow forward through the stage chain, then backward in
reverse order (backward work costs twice the forward). Stages are
capacity-1 resources, so the steady-state rate is set by the slowest
stage — "overall system throughput is primarily limited by the most
heavily loaded IPU" (paper Sec. VI-A3c) — while the fill/drain ramp and
the optimizer step add the per-step overheads that make batch-size
scaling near-linear (Fig. 12).
"""

from __future__ import annotations

from repro.core.backend import CompileReport, PhaseProfile, RunReport, TaskProfile
from repro.graphcore.compiler import StagePlan
from repro.hardware.specs import BOW2000_SYSTEM, SystemSpec
from repro.sim.engine import Resource, Simulator
from repro.sim.trace import Trace

# Relative cost of a backward pass through a stage.
BACKWARD_FACTOR = 2.0


class PipelineExecutor:
    """Executes a compiled IPU pipeline and measures throughput."""

    def __init__(self, system: SystemSpec = BOW2000_SYSTEM) -> None:
        self.system = system
        self.chip = system.chip

    def run(self, compiled: CompileReport) -> RunReport:
        """Simulate one optimizer step (all micro-batches, fwd+bwd)."""
        stages: list[StagePlan] = compiled.meta["stages"]
        micro_batches: int = compiled.meta["micro_batches"]
        micro_size: int = compiled.meta["micro_size"]

        trace = Trace()
        sim = Simulator()
        resources = [Resource(sim, capacity=1, name=s.name) for s in stages]
        n_stages = len(stages)
        training = compiled.train.training
        done = {"count": 0}

        def enter(micro: int, index: int, backward: bool) -> None:
            resources[index].request(start, micro, index, backward)

        def start(micro: int, index: int, backward: bool) -> None:
            service = stages[index].compute_seconds
            if backward:
                service *= BACKWARD_FACTOR
            sim.schedule(service, finish, micro, index, backward, sim.now)

        def finish(micro: int, index: int, backward: bool,
                   began: float) -> None:
            trace.append(began, sim.now, stages[index].name,
                         "backward" if backward else "compute", micro)
            resources[index].release()
            if not backward:
                if index + 1 < n_stages:
                    enter(micro, index + 1, False)
                elif training:
                    enter(micro, index, True)
                else:
                    done["count"] += 1
            else:
                if index > 0:
                    enter(micro, index - 1, True)
                else:
                    done["count"] += 1

        for micro in range(micro_batches):
            enter(micro, 0, False)
        sim.run()

        update_time = (self._weight_update_time(stages, compiled)
                       if training else 0.0)
        step_time = sim.now + update_time
        train = compiled.train
        samples = micro_batches * micro_size
        samples_per_s = samples / step_time
        flops_per_micro = sum(s.flops_per_micro for s in stages)
        achieved = flops_per_micro * micro_batches / step_time

        throughputs = trace.task_throughputs()
        tasks = tuple(
            TaskProfile(
                name=stage.name,
                compute_units=stage.tiles_used,
                memory_units=stage.tiles_used,
                role="compute",
                throughput=throughputs.get(stage.name, 0.0) / 2.0,
                flops=stage.flops_per_micro,
                meta={"ipu": stage.ipu_index, "layers": stage.n_layers},
            )
            for stage in stages
        )
        bottleneck = max(s.compute_seconds for s in stages)
        busy = sum(r.busy_time for r in resources) / max(len(resources), 1)
        return RunReport(
            platform=compiled.platform,
            tokens_per_second=samples_per_s * train.seq_len,
            samples_per_second=samples_per_s,
            step_time=step_time,
            achieved_flops=achieved,
            phases=(PhaseProfile(name="pipeline", runtime=step_time,
                                 tasks=tasks),),
            global_traffic_bytes_per_step=self._stream_bytes(compiled),
            trace=trace,
            meta={
                "micro_batches": micro_batches,
                "bottleneck_stage": max(
                    stages, key=lambda s: s.compute_seconds).name,
                "bottleneck_seconds": bottleneck,
                "pipeline_fill_fraction": 1.0 - busy / step_time,
                "compute_fraction": busy / step_time,
                "update_time": update_time,
            },
        )

    # ------------------------------------------------------------------
    def _weight_update_time(self, stages: list[StagePlan],
                            compiled: CompileReport) -> float:
        """Optimizer step: streaming state through the Gateway DDR.

        Runs once per step on every IPU in parallel; the slowest stage
        (largest resident state) bounds it.
        """
        ddr_bw = self.chip.global_memory.bandwidth
        worst = max(stage.weight_bytes for stage in stages)
        return 2.0 * worst / ddr_bw

    def _stream_bytes(self, compiled: CompileReport) -> float:
        """DDR traffic per step: optimizer state in and out."""
        stages: list[StagePlan] = compiled.meta["stages"]
        return 2.0 * sum(stage.weight_bytes for stage in stages)
