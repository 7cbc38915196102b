"""Generic sweep execution: run a grid of workloads against a backend.

The benchmark harness uses :func:`run_grid` to regenerate the paper's
tables: each cell compiles + runs one configuration and failures are
recorded rather than raised (a "Fail" cell is a result — Table I).

Any :class:`~repro.common.errors.ReproError` escaping the backend
becomes a failed cell with a structured
:class:`~repro.common.errors.ErrorRecord` (compile-phase and run-phase
failures are distinguished). Execution behaviour — retry, per-cell
deadlines, circuit breaking, journaling/resume, and worker-thread
fan-out — is described by one
:class:`~repro.resilience.ExecutionPolicy`::

    cells = run_grid(backend, specs,
                     policy=ExecutionPolicy(retry=RetryPolicy(2),
                                            journal="sweep.jsonl",
                                            resume=True, max_workers=4))

The pre-policy keywords (``executor=``, ``journal=``, ``resume=``,
``retry_failed=``) were removed in 0.3 — passing one raises
``TypeError`` with a migration hint. Cells always come back in spec
order, whatever order they executed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign.engine import CellResult, run_cells
from repro.campaign.process import CellSpec
from repro.common.errors import ErrorRecord
from repro.core.backend import AcceleratorBackend, CompileReport, RunReport
from repro.models.config import ModelConfig, TrainConfig
from repro.resilience.policy import ExecutionPolicy, reject_removed_kwargs


@dataclass(frozen=True)
class SweepSpec:
    """One sweep cell: a labelled (model, train, options) triple."""

    label: str
    model: ModelConfig
    train: TrainConfig
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepCell:
    """The outcome of one cell.

    ``error`` keeps the human-readable message; ``failure`` carries the
    structured record (exception type, phase, and attributes such as
    ``required_bytes``). ``resumed`` cells were restored from a journal
    without touching the backend — their reports are ``None`` but
    ``summary`` holds the journaled run metrics.
    """

    spec: SweepSpec
    compiled: CompileReport | None
    run: RunReport | None
    error: str | None = None
    failure: ErrorRecord | None = None
    attempts: int = 1
    resumed: bool = False
    summary: dict[str, Any] | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def phase(self) -> str | None:
        """Which harness phase failed (``None`` for successful cells)."""
        return self.failure.phase if self.failure is not None else None


def cell_from_result(spec: SweepSpec, result: CellResult) -> SweepCell:
    """Convert an engine :class:`CellResult` back into a sweep cell."""
    if result.resumed:
        entry = result.entry
        assert entry is not None
        return SweepCell(spec=spec, compiled=None, run=None,
                         error=str(entry.error) if entry.error else None,
                         failure=entry.error, attempts=entry.attempts,
                         resumed=True, summary=entry.summary)
    outcome = result.outcome
    assert outcome is not None
    if outcome.ok:
        return SweepCell(spec=spec, compiled=outcome.compiled,
                         run=outcome.run, attempts=outcome.attempts)
    return SweepCell(spec=spec, compiled=None, run=None,
                     error=str(outcome.error), failure=outcome.error,
                     attempts=max(1, outcome.attempts))


def sweep_cells(backend: AcceleratorBackend, specs: list[SweepSpec], *,
                lane: str, key_prefix: str = "", measure: bool = True,
                fingerprints: bool = False) -> list[CellSpec]:
    """Picklable engine cells for a spec grid on one backend lane.

    Every cell is stamped with its analytic cost prediction and
    workload-family key (``"<lane>::<model family>"``) so a cost-aware
    :class:`~repro.campaign.scheduler.Scheduler` can order dispatch;
    with ``fingerprints`` each cell also carries its content-addressed
    cache key (see :func:`repro.cache.cell_fingerprint`).
    """
    from repro.cache import cell_fingerprint
    from repro.campaign.scheduler import estimate_cell_seconds

    return [
        CellSpec(
            key=f"{key_prefix}{spec.label}",
            lane=lane,
            model=spec.model,
            train=spec.train,
            options=dict(spec.options),
            measure=measure,
            cost_hint=estimate_cell_seconds(backend, spec.model,
                                            spec.train, measure=measure),
            family=f"{lane}::{spec.model.family}",
            fingerprint=(cell_fingerprint(backend, spec.model,
                                          spec.train, spec.options,
                                          measure=measure)
                         if fingerprints else None),
        )
        for spec in specs
    ]


def run_grid(backend: AcceleratorBackend,
             specs: list[SweepSpec],
             measure: bool = True,
             on_cell: Callable[[SweepCell], None] | None = None,
             *,
             policy: ExecutionPolicy | None = None,
             **removed: Any) -> list[SweepCell]:
    """Compile (and optionally run) every spec; failures become cells.

    Args:
        backend: the accelerator to drive.
        specs: the grid.
        measure: when ``False`` only compile (compile-time metrics are
            enough for most Tier-1 tables, matching the paper's
            "most metrics are from compile time" note).
        on_cell: optional progress callback (also fired for resumed
            cells). With ``max_workers=1`` it fires in spec order; under
            a pool, in completion order.
        policy: the :class:`ExecutionPolicy` governing retry, deadlines,
            journaling, resume, ``max_workers`` fan-out, the dispatch
            ``schedule``, tracing, and the run ledger. The pre-policy
            ``executor``/``journal``/``resume``/``retry_failed``
            keywords were removed in 0.3 and raise :class:`TypeError`.
    """
    reject_removed_kwargs("run_grid", removed)
    if policy is None:
        policy = ExecutionPolicy()

    def relay(result: CellResult) -> None:
        assert on_cell is not None
        on_cell(cell_from_result(specs[result.index], result))

    tracer = policy.make_tracer()
    cache = policy.normalized_cache()
    results, _ = run_cells(
        sweep_cells(backend, specs, lane=backend.name, measure=measure,
                    fingerprints=cache is not None),
        {backend.name: backend}, policy, api="run_grid",
        executor_for=lambda lane: policy.make_executor(lane,
                                                       tracer=tracer),
        breakers=bool(policy.breaker),
        on_result=relay if on_cell is not None else None,
        scheduler=policy.make_scheduler(tracer), tracer=tracer,
        cache=cache)
    if cache is not None:
        cache.prune()
    return [cell_from_result(spec, result)
            for spec, result in zip(specs, results)]
