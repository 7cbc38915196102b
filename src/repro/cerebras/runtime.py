"""WSE-2 runtime: discrete-event execution of the kernel pipeline.

Samples flow through the kernel chain in a data-driven fashion; the
number of in-flight samples is bounded by the pipeline depth the memory
planner granted. Steady-state throughput is therefore
``min(1/t_bottleneck, depth / sum(t_k))`` — which is what produces the
paper's batch-size saturation on WSE (Fig. 12: strong gains below ~200,
little beyond) and the TFLOPs collapse when configuration memory starves
the pipeline (Fig. 9a).
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from repro.common.errors import SimulationError
from repro.core.backend import CompileReport, PhaseProfile, RunReport, TaskProfile
from repro.hardware.specs import CS2_SYSTEM, SystemSpec
from repro.sim.trace import Trace

# Relative efficiency of weight-streaming execution (layer-sequential
# scheduling leaves bubbles between layer swaps) — calibrated to the
# paper's ~20% throughput reduction (Sec. VI-A3a).
WEIGHT_STREAMING_EFFICIENCY = 0.8
# Fraction of a PE's fabric links available at a replica boundary.
FABRIC_LINKS_PER_PE = 5


class WSERuntime:
    """Executes a compiled WSE-2 mapping and measures throughput."""

    def __init__(self, system: SystemSpec = CS2_SYSTEM) -> None:
        self.system = system
        self.chip = system.chip

    # ------------------------------------------------------------------
    def run(self, compiled: CompileReport) -> RunReport:
        """Simulate one optimizer step; returns measured results."""
        meta = compiled.meta
        order: list[str] = meta["kernel_order"]
        service: dict[str, float] = meta["service_times"]
        depth = max(1, int(meta["pipeline_depth"]))
        batch = int(meta["per_replica_batch"])
        n_replicas = int(meta["n_replicas"])
        mode = meta["mode"]

        trace = Trace()
        pipeline_time = self._simulate_pipeline(order, service, depth,
                                                batch, trace)
        sync_time = self._replica_sync_time(compiled, n_replicas)
        step_time = pipeline_time + sync_time
        if mode == "weight_streaming":
            step_time = max(step_time / WEIGHT_STREAMING_EFFICIENCY,
                            self._stream_time(compiled))

        samples = batch * n_replicas
        samples_per_s = samples / step_time
        train = compiled.train
        tokens_per_s = samples_per_s * train.seq_len
        flops_per_sample = meta["flops_per_sample"]
        achieved = samples_per_s * flops_per_sample

        tasks = self._measured_tasks(compiled, trace)
        phase = PhaseProfile(name="graph", runtime=step_time, tasks=tasks)
        weight_bytes = sum(meta["kernel_weight_bytes"].values())
        boundary = sum(meta["boundary_bytes"].values())
        traffic = samples * boundary * 2.0 + weight_bytes * 3.0
        return RunReport(
            platform=compiled.platform,
            tokens_per_second=tokens_per_s,
            samples_per_second=samples_per_s,
            step_time=step_time,
            achieved_flops=achieved,
            phases=(phase,),
            global_traffic_bytes_per_step=traffic,
            trace=trace,
            meta={
                "mode": mode,
                "n_replicas": n_replicas,
                "pipeline_time": pipeline_time,
                "sync_time": sync_time,
                "compute_fraction": pipeline_time / step_time,
            },
        )

    # ------------------------------------------------------------------
    def _simulate_pipeline(self, order: list[str],
                           service: dict[str, float], depth: int,
                           batch: int, trace: Trace) -> float:
        """Tandem-queue DES with bounded work-in-progress.

        Each stage serves one sample at a time from a FIFO queue; at
        most ``depth`` samples are in flight, and a new one is admitted
        to the first stage when one leaves the last. The heap holds one
        entry ``(end, seq, sample, stage, start)`` per granted service,
        and a completion is handled in one step: the stage passes to its
        next waiter, then the sample queues for the next stage (or
        leaves and admits the next sample). Ties in ``end`` complete in
        grant order, the order of ``seq``.
        """
        if not order:
            raise SimulationError("empty kernel pipeline")
        times = [service[name] for name in order]
        if min(times) < 0:
            raise SimulationError(
                f"negative kernel service time: {min(times)}")
        last = len(order) - 1
        busy = [False] * len(order)
        waiting: list[deque[int]] = [deque() for _ in order]
        heap: list[tuple[float, int, int, int, float]] = []
        push, pop = heapq.heappush, heapq.heappop
        append = trace.append

        # Admission at time zero: the first sample starts on stage 0,
        # the rest of the first ``depth`` queue behind it.
        admitted = min(depth, batch)
        seq = 0
        if admitted:
            busy[0] = True
            heap.append((times[0], 0, 0, 0, 0.0))
            seq = 1
            waiting[0].extend(range(1, admitted))
        now = 0.0
        done = 0
        while heap:
            now, _seq, sample, stage, start = pop(heap)
            append(start, now, order[stage], "compute", sample)
            queue = waiting[stage]
            if queue:
                push(heap, (now + times[stage], seq, queue.popleft(), stage,
                            now))
                seq += 1
            else:
                busy[stage] = False
            if stage < last:
                stage += 1
                if busy[stage]:
                    waiting[stage].append(sample)
                    continue
                busy[stage] = True
            else:
                done += 1
                if admitted == batch:
                    continue
                sample = admitted
                admitted += 1
                stage = 0
                if busy[0]:
                    waiting[0].append(sample)
                    continue
                busy[0] = True
            push(heap, (now + times[stage], seq, sample, stage, now))
            seq += 1
        if done != batch:
            raise SimulationError(
                f"pipeline completed {done} of {batch} samples")
        return now

    # ------------------------------------------------------------------
    def _replica_sync_time(self, compiled: CompileReport,
                           n_replicas: int) -> float:
        """Ring all-reduce of gradients across replica boundaries.

        Each boundary is a column of PEs whose fabric links carry the
        reduction; with two replicas the paper notes placement makes the
        communication distance effectively zero, and the cost indeed
        stays negligible here, growing with replica count.
        """
        if n_replicas <= 1:
            return 0.0
        grad_bytes = sum(compiled.meta["kernel_weight_bytes"].values())
        per_link = self.chip.fabric_bandwidth / (
            self.chip.compute_units * FABRIC_LINKS_PER_PE)
        boundary_links = int(math.sqrt(self.chip.compute_units))
        boundary_bw = per_link * boundary_links
        volume = 2.0 * (n_replicas - 1) / n_replicas * grad_bytes
        # Beyond two replicas, optimal adjacency is no longer achievable
        # (Sec. VI-A3a): reductions relay through intermediate regions,
        # serializing across the replica chain.
        relay_hops = max(1, n_replicas - 1)
        return volume * relay_hops / boundary_bw

    def _stream_time(self, compiled: CompileReport) -> float:
        """Time to stream one full weight set from MemoryX per step."""
        weight_bytes = sum(compiled.meta["kernel_weight_bytes"].values())
        return weight_bytes / self.system.host_link_bandwidth

    def _measured_tasks(self, compiled: CompileReport,
                        trace: Trace) -> tuple[TaskProfile, ...]:
        """Compile-time tasks with throughput replaced by measured rates."""
        throughputs = trace.task_throughputs()
        measured: list[TaskProfile] = []
        for task in compiled.phases[0].tasks:
            bare_name = task.name.split("/", 1)[-1]
            throughput = throughputs.get(bare_name, 0.0)
            measured.append(TaskProfile(
                name=task.name,
                compute_units=task.compute_units,
                memory_units=task.memory_units,
                role=task.role,
                throughput=throughput if task.role == "compute" else 0.0,
                flops=task.flops,
                meta=dict(task.meta),
            ))
        return tuple(measured)
