"""Parallel multi-backend sweep campaigns.

DABench-LLM's Tier-1/Tier-2 tables come from large grids of independent
(model, train, options) cells. The paper's harness — and PR 1's
resilient re-implementation — executed them strictly sequentially, one
backend at a time, making the harness the throughput bottleneck (the
same observation LLM-Inference-Bench makes for multi-accelerator
campaigns). This package puts a pooled campaign engine on top of the
PR 1 primitives:

* a :class:`Campaign` takes a list of ``(backend, specs)`` lanes plus
  one :class:`~repro.resilience.ExecutionPolicy` and fans the cells out
  across workers **and** across backends concurrently — on threads, or
  on supervised processes with ``dispatch="process"``; one drain loop
  (:mod:`repro.campaign.engine`) serves both;
* each lane gets its own :class:`~repro.resilience.CircuitBreaker` and
  a :class:`~repro.resilience.ResilientExecutor` sharing the policy's
  retry/deadline settings, so a broken platform fail-fasts without
  slowing the healthy ones;
* journaling uses whatever store the policy names — a
  :class:`~repro.resilience.ShardedJournal` directory gives each worker
  thread its own append-only shard, keeping resume crash-tolerant with
  concurrent writers;
* results come back in deterministic spec order regardless of
  completion order, with per-backend progress callbacks and
  breaker/retry statistics ready for
  :class:`~repro.core.report.BenchmarkReport`.

Example::

    from repro import Campaign, CerebrasBackend, SambaNovaBackend
    from repro.resilience import ExecutionPolicy, RetryPolicy

    policy = ExecutionPolicy(retry=RetryPolicy(max_retries=2),
                             journal=ShardedJournal("journal/"),
                             resume=True, max_workers=8)
    result = Campaign([(CerebrasBackend(), specs),
                       (SambaNovaBackend(), specs)], policy).run()
    print(result.report().render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.campaign.engine import (
    CellResult,
    CellTask,
    run_cell_tasks,
    run_cells,
)
# engine must import before scheduler: scheduler type-hints engine tasks.
from repro.campaign.scheduler import (
    AnalyticCostPredictor,
    CostPredictor,
    EWMACostPredictor,
    Scheduler,
    SchedulerStats,
    estimate_cell_seconds,
    make_predictor,
    simulate_makespan,
)
from repro.campaign.process import CellSpec, WorkerSpec, run_cell_specs
from repro.campaign.supervisor import SupervisionStats, Supervisor
from repro.common.errors import ConfigurationError
from repro.core.backend import AcceleratorBackend
from repro.core.report import BenchmarkReport, GRID_HEADERS, sweep_cell_row
from repro.observe import (
    ObservabilityStats,
    aggregate_observability,
    load_events,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import Clock
from repro.resilience.executor import ResilientExecutor
from repro.resilience.journal import STATUS_GATED, STATUS_OK
from repro.resilience.policy import ExecutionPolicy

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.workloads.sweeps import SweepCell, SweepSpec

__all__ = [
    "Campaign",
    "CampaignLane",
    "CampaignResult",
    "BackendStats",
    "CellTask",
    "CellResult",
    "run_cell_tasks",
    "CellSpec",
    "WorkerSpec",
    "run_cell_specs",
    "Supervisor",
    "SupervisionStats",
    "ObservabilityStats",
    "Scheduler",
    "SchedulerStats",
    "CostPredictor",
    "AnalyticCostPredictor",
    "EWMACostPredictor",
    "estimate_cell_seconds",
    "make_predictor",
    "simulate_makespan",
]


@dataclass
class CampaignLane:
    """One backend and the specs it should sweep.

    ``label`` defaults to the backend's display name (deduplicated by
    the campaign when two lanes share it); ``clock`` optionally gives
    the lane its own time source — with per-lane fake clocks a test can
    read each lane's simulated busy time independently, which is how
    the parallel-speedup acceptance test stays deterministic.
    """

    backend: AcceleratorBackend
    specs: "Sequence[SweepSpec]"
    label: str | None = None
    clock: Clock | None = None


@dataclass(frozen=True)
class BackendStats:
    """Aggregated health/throughput statistics for one campaign lane."""

    backend: str
    cells: int
    ok: int
    failed: int
    gated: int
    resumed: int
    attempts: int
    retries: int
    elapsed_seconds: float
    breaker: dict[str, Any] = field(default_factory=dict)
    #: Watchdog threads this lane's executor abandoned on hung cells
    #: (thread dispatch only; worker processes take theirs with them).
    abandoned_watchdogs: int = 0

    @property
    def executed(self) -> int:
        return self.cells - self.resumed


@dataclass
class CampaignResult:
    """Everything one campaign run produced.

    ``cells`` maps lane label → :class:`SweepCell` list in the lane's
    spec order (the deterministic-ordering guarantee); ``stats`` maps
    lane label → :class:`BackendStats` including the lane breaker's
    trip count and open time.
    """

    labels: list[str]
    cells: "dict[str, list[SweepCell]]"
    stats: dict[str, BackendStats]
    policy: ExecutionPolicy
    scheduling: SchedulerStats | None = None
    #: Supervisor telemetry (process dispatch only; ``None`` on the
    #: thread path, where workers share the parent's address space).
    supervision: SupervisionStats | None = None
    #: Per-lane trace rollup (``None`` when the policy's tracing is
    #: off) — see :func:`repro.observe.aggregate_observability`.
    observability: list[ObservabilityStats] | None = None

    @property
    def total_cells(self) -> int:
        return sum(len(cells) for cells in self.cells.values())

    @property
    def resumed_cells(self) -> int:
        return sum(stats.resumed for stats in self.stats.values())

    @property
    def executed_cells(self) -> int:
        return self.total_cells - self.resumed_cells

    @property
    def sequential_seconds(self) -> float:
        """Injected-clock seconds a one-worker campaign would have
        spent executing (the sum of per-cell elapsed time)."""
        return sum(stats.elapsed_seconds for stats in self.stats.values())

    def report(self, title: str = "Campaign") -> BenchmarkReport:
        """Per-lane result tables plus the infrastructure health table."""
        report = BenchmarkReport(title)
        for label in self.labels:
            report.add_table(f"Grid on {label}", GRID_HEADERS,
                             [sweep_cell_row(cell)
                              for cell in self.cells[label]])
        report.add_infrastructure_health(
            [self.stats[label] for label in self.labels])
        if self.scheduling is not None:
            report.add_scheduling([self.scheduling])
        if self.supervision is not None:
            report.add_supervision(self.supervision)
        if self.observability is not None:
            report.add_observability(self.observability)
        report.add_insight(
            f"{self.executed_cells} of {self.total_cells} cells executed "
            f"({self.resumed_cells} resumed from the journal) across "
            f"{len(self.labels)} backend(s) with "
            f"max_workers={self.policy.max_workers}.")
        return report


class Campaign:
    """A pooled, multi-backend sweep campaign.

    Args:
        lanes: ``(backend, specs)`` pairs or :class:`CampaignLane`
            objects; lane order fixes result order.
        policy: the :class:`ExecutionPolicy` governing every cell.
            The campaign always builds one circuit breaker per lane
            from the policy's threshold fields (pass a policy with
            ``breaker=``:class:`CircuitBreaker` only for single-lane
            campaigns).
        measure: when ``False`` cells only compile.
    """

    def __init__(self,
                 lanes: Iterable["CampaignLane |"
                                 " tuple[AcceleratorBackend,"
                                 " Sequence[SweepSpec]]"],
                 policy: ExecutionPolicy | None = None, *,
                 measure: bool = True) -> None:
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.measure = measure
        self.lanes: list[CampaignLane] = []
        seen: dict[str, int] = {}
        for lane in lanes:
            if not isinstance(lane, CampaignLane):
                backend, specs = lane
                lane = CampaignLane(backend=backend, specs=specs)
            label = lane.label or lane.backend.name
            count = seen.get(label, 0)
            seen[label] = count + 1
            if count:
                label = f"{label}#{count + 1}"
            self.lanes.append(CampaignLane(backend=lane.backend,
                                           specs=list(lane.specs),
                                           label=label, clock=lane.clock))
        if not self.lanes:
            raise ConfigurationError("a campaign needs at least one lane")
        if (isinstance(self.policy.breaker, CircuitBreaker)
                and len(self.lanes) > 1):
            raise ConfigurationError(
                "a shared CircuitBreaker instance cannot serve multiple "
                "campaign lanes; use the policy's breaker_threshold/"
                "breaker_reset fields instead")

    def run(self, on_cell: "Callable[[str, SweepCell], None] | None" = None,
            ) -> CampaignResult:
        """Execute the campaign; see :class:`CampaignResult`.

        ``on_cell(label, cell)`` fires once per cell as it resolves
        (completion order under a pool; spec order when sequential).
        Under ``dispatch="process"`` the cells cross to supervised
        worker processes as :class:`CellSpec` data; each worker
        rebuilds the per-lane executors/breakers once and journals
        into its own shard (see :mod:`repro.campaign.process`).
        Results, ordering, resume, and scheduler feedback match thread
        dispatch; the parent-side health table shows no breaker state,
        which lives and dies with the workers.
        """
        # Imported here, not at module level: sweeps builds on the
        # engine in this package, so the cell converters must load late.
        from repro.workloads.sweeps import cell_from_result, sweep_cells

        policy = self.policy
        tracer = policy.make_tracer()
        cache = policy.normalized_cache()
        lanes = {str(lane.label): lane for lane in self.lanes}
        cells: list[CellSpec] = []
        owners: list[tuple[str, "SweepSpec"]] = []
        for label, lane in lanes.items():
            cells += sweep_cells(lane.backend, lane.specs, lane=label,
                                 key_prefix=f"{label}::",
                                 measure=self.measure,
                                 fingerprints=cache is not None)
            owners += [(label, spec) for spec in lane.specs]

        breakers: dict[str, CircuitBreaker] = {}
        executors: dict[str, ResilientExecutor] = {}

        def executor_for(label: str) -> ResilientExecutor:
            clock = lanes[label].clock or policy.clock
            if isinstance(policy.breaker, CircuitBreaker):
                breaker = policy.breaker
            else:
                breaker = policy.new_breaker(label, clock)
            breakers[label] = breaker
            executors[label] = policy.make_executor(
                label, breaker=breaker, clock=clock, tracer=tracer)
            return executors[label]

        def relay(result: CellResult) -> None:
            label, spec = owners[result.index]
            assert on_cell is not None
            on_cell(label, cell_from_result(spec, result))

        scheduler = policy.make_scheduler(tracer)
        results, supervision = run_cells(
            cells, {label: lane.backend for label, lane in lanes.items()},
            policy, api="Campaign", executor_for=executor_for,
            breakers=True,
            on_result=relay if on_cell is not None else None,
            scheduler=scheduler, tracer=tracer, cache=cache,
            injected_clock=any(lane.clock is not None
                               for lane in self.lanes))

        swept: dict[str, list[SweepCell]] = {}
        stats: dict[str, BackendStats] = {}
        cursor = 0
        for label, lane in lanes.items():
            lane_results = results[cursor:cursor + len(lane.specs)]
            cursor += len(lane.specs)
            swept[label] = [cell_from_result(spec, result)
                            for spec, result in zip(lane.specs,
                                                    lane_results)]
            stats[label] = self._stats(label, lane_results,
                                       breakers.get(label),
                                       executors.get(label))
        labels = list(lanes)
        observability: list[ObservabilityStats] | None = None
        if tracer is not None:
            observability = aggregate_observability(
                load_events(tracer.directory, run=tracer.run), labels)
        if cache is not None:
            # Eviction is parent-owned: workers only read and publish.
            cache.prune()
        return CampaignResult(labels=labels, cells=swept, stats=stats,
                              policy=policy,
                              scheduling=scheduler.stats(
                                  policy.max_workers, policy.dispatch),
                              supervision=supervision,
                              observability=observability)

    @staticmethod
    def _stats(label: str, results: list[CellResult],
               breaker: CircuitBreaker | None,
               executor: ResilientExecutor | None = None) -> BackendStats:
        ok = failed = gated = resumed = attempts = retries = 0
        elapsed = 0.0
        for result in results:
            if result.resumed:
                resumed += 1
            status = result.status
            if status == STATUS_OK:
                ok += 1
            elif status == STATUS_GATED:
                gated += 1
            else:
                failed += 1
            attempts += result.attempts
            elapsed += result.elapsed
            if result.outcome is not None:
                retries += len(result.outcome.retried)
        abandoned = (executor.metrics()["abandoned_watchdogs"]
                     if executor is not None else 0)
        return BackendStats(backend=label, cells=len(results), ok=ok,
                            failed=failed, gated=gated, resumed=resumed,
                            attempts=attempts, retries=retries,
                            elapsed_seconds=elapsed,
                            breaker=(breaker.metrics()
                                     if breaker is not None else {}),
                            abandoned_watchdogs=abandoned)
