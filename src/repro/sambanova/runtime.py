"""RDU runtime: sequential section execution over DDR.

Each section invocation reconfigures the fabric, DMAs its weights and
boundary activations from DDR, and streams the batch through the mapped
dataflow pipeline; DMA for the next invocation overlaps compute for the
current one, so invocation time is ``switch + max(compute, ddr)``. The
whole training step is the sum over sections — there is no cross-section
overlap, which is exactly why section count (O0 vs O1 vs O3) dominates
RDU performance in the paper.
"""

from __future__ import annotations

from repro.core.backend import CompileReport, PhaseProfile, RunReport
from repro.hardware.specs import SN30_SYSTEM, SystemSpec
from repro.sambanova.compiler import SECTION_SWITCH_SECONDS
from repro.sambanova.sections import Section
from repro.sim.engine import Simulator
from repro.sim.trace import Trace


class RDURuntime:
    """Executes a compiled RDU mapping and measures throughput."""

    def __init__(self, system: SystemSpec = SN30_SYSTEM) -> None:
        self.system = system
        self.chip = system.chip

    def run(self, compiled: CompileReport) -> RunReport:
        """Simulate one optimizer step across all sections."""
        sections: list[Section] = compiled.meta["sections"]
        rate: float = compiled.meta["pcu_rate"]
        phases = list(compiled.phases)

        sim = Simulator()
        trace = Trace()
        timings = {"compute": 0.0, "ddr": 0.0, "switch": 0.0, "comm": 0.0}

        def run_section(index: int, invocation: int) -> None:
            section = sections[index]
            phase = phases[index]
            start = sim.now
            duration = phase.runtime
            category = "comm" if section.kind == "comm" else "compute"
            sim.schedule(duration, finish_section, index, invocation,
                         start, category)

        def finish_section(index: int, invocation: int, start: float,
                           category: str) -> None:
            section = sections[index]
            trace.append(start, sim.now, section.name, category, invocation)
            self._account(section, phases[index], timings)
            if invocation + 1 < section.invocations:
                sim.schedule(0.0, run_section, index, invocation + 1)
            elif index + 1 < len(sections):
                sim.schedule(0.0, run_section, index + 1, 0)

        if sections:
            sim.schedule(0.0, run_section, 0, 0)
        step_time = sim.run()

        train = compiled.train
        step_flops = compiled.meta["step_flops"]
        samples_per_s = train.batch_size / step_time
        achieved = step_flops / step_time
        traffic = sum(s.ddr_bytes * s.invocations for s in sections)
        compute_fraction = (
            timings["compute"] / step_time if step_time > 0 else 0.0)
        return RunReport(
            platform=compiled.platform,
            tokens_per_second=samples_per_s * train.seq_len,
            samples_per_second=samples_per_s,
            step_time=step_time,
            achieved_flops=achieved,
            phases=compiled.phases,
            global_traffic_bytes_per_step=traffic,
            trace=trace,
            meta={
                "mode": compiled.meta["mode"],
                "tp": compiled.meta["tp"],
                "compute_fraction": compute_fraction,
                "ddr_time": timings["ddr"],
                "switch_time": timings["switch"],
                "comm_time": timings["comm"],
                "n_sections": len(sections),
                "pcu_rate": rate,
            },
        )

    def _account(self, section: Section, phase: PhaseProfile,
                 timings: dict[str, float]) -> None:
        """Split one invocation's duration into bounding categories."""
        ddr_time = section.ddr_bytes / self.chip.global_memory.bandwidth
        body = phase.runtime - SECTION_SWITCH_SECONDS
        timings["switch"] += SECTION_SWITCH_SECONDS
        if section.kind == "comm":
            timings["comm"] += body
        elif ddr_time >= body:
            timings["ddr"] += body
        else:
            timings["compute"] += body
