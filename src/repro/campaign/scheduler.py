"""Cost-aware cell scheduling for campaigns and pooled sweeps.

A campaign's wall-clock is dominated by its longest cells (large-model,
low-optimization compiles — the paper's Section IV harness observation),
and lane-major dispatch can strand one of them at the tail of the queue:
every worker but one goes idle while the straggler finishes. Classic
LPT (longest-processing-time-first) dispatch fixes that *when cell
costs are known* — which a benchmark harness is unusually well placed
to do, since :mod:`repro.models.costmodel` already prices every
(model, train) cell analytically.

This module supplies the pieces:

* :class:`CostPredictor` — the protocol a cost source implements:
  ``predict(task)`` prices a pending cell, ``observe(task, seconds)``
  feeds back what it actually took.
* :class:`AnalyticCostPredictor` — static: trusts the
  :func:`estimate_cell_seconds` hint stamped on each task.
* :class:`EWMACostPredictor` — online: starts from the analytic hint
  and learns per-(backend, workload-family) durations as cells finish,
  so systematic mispricing (a slow compiler service, say) is corrected
  mid-campaign.
* :class:`Scheduler` — picks the next cell to dispatch under a policy
  (``lane-major`` | ``longest-first`` | ``shortest-first``) and keeps
  the predicted-vs-actual telemetry that
  :class:`~repro.core.report.BenchmarkReport` renders as the
  "Scheduling" table.

Scheduling changes *dispatch order only*. Results still come back in
spec order, journal keys are unchanged (so resume skips exactly the
same cells), and per-lane breaker/executor wiring is untouched — the
PR 2 invariants hold under every policy.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.common.errors import ConfigurationError
from repro.models.costmodel import TransformerCostModel
from repro.resilience.policy import (
    DISPATCH_THREAD,
    PREDICTOR_ANALYTIC,
    PREDICTOR_EWMA,
    PREDICTORS,
    SCHEDULE_LANE_MAJOR,
    SCHEDULE_LONGEST_FIRST,
    SCHEDULE_POLICIES,
    SCHEDULE_SHORTEST_FIRST,
)

if TYPE_CHECKING:
    from repro.campaign.engine import CellTask
    from repro.core.backend import AcceleratorBackend
    from repro.models.config import ModelConfig, TrainConfig
    from repro.observe import RunLedger, TraceRecorder

__all__ = [
    "SCHEDULE_LANE_MAJOR",
    "SCHEDULE_LONGEST_FIRST",
    "SCHEDULE_SHORTEST_FIRST",
    "SCHEDULE_POLICIES",
    "PREDICTOR_ANALYTIC",
    "PREDICTOR_EWMA",
    "PREDICTORS",
    "CostPredictor",
    "AnalyticCostPredictor",
    "EWMACostPredictor",
    "Scheduler",
    "SchedulerStats",
    "estimate_cell_seconds",
    "make_predictor",
    "simulate_makespan",
]

#: Prediction for a task with no analytic hint and no learned family
#: history. Any constant works: constant predictions make every policy
#: collapse to lane-major order (earliest task wins all ties).
DEFAULT_COST_SECONDS = 1.0


def estimate_cell_seconds(backend: "AcceleratorBackend",
                          model: "ModelConfig", train: "TrainConfig", *,
                          measure: bool = True) -> float:
    """Analytic prediction of one cell's harness seconds on a backend.

    Compile time from the cost model's compile proxy, plus — when the
    cell also measures — one step at the chip's peak with the paper's
    ~20% achieved efficiency. Relative accuracy is all the scheduler
    needs: it ranks cells, it never bills them.
    """
    cost = TransformerCostModel(model)
    seconds = cost.estimated_compile_seconds()
    if measure:
        seconds += cost.estimated_step_seconds(
            train, backend.system.chip.peak_flops)
    return seconds


@runtime_checkable
class CostPredictor(Protocol):
    """Prices pending cells; learns (optionally) from finished ones."""

    name: str

    def predict(self, task: "CellTask") -> float:
        """Predicted harness seconds for a pending task."""
        ...

    def observe(self, task: "CellTask", seconds: float) -> None:
        """Feed back a finished task's measured seconds."""
        ...


class AnalyticCostPredictor:
    """Static predictor: the task's stamped analytic cost hint.

    :func:`~repro.workloads.sweeps.sweep_cells` (behind
    :class:`~repro.campaign.Campaign` and ``run_grid``) stamps every
    cell with :func:`estimate_cell_seconds`; this predictor simply
    trusts it and ignores observations.
    """

    name = PREDICTOR_ANALYTIC

    def predict(self, task: "CellTask") -> float:
        hint = task.cost_hint
        return hint if hint is not None else DEFAULT_COST_SECONDS

    def observe(self, task: "CellTask", seconds: float) -> None:
        pass


class EWMACostPredictor:
    """Online predictor: per-family EWMA seeded by the analytic hint.

    ``family`` is the task's workload-family key — the campaign stamps
    ``"<lane>::<model family>"`` so the estimator is per-(backend,
    family), matching how real cell costs cluster (a slow compiler
    service slows *every* cell on that backend by a similar factor).
    A family with no observations yet falls back to the analytic hint,
    so the very first pick is as good as :class:`AnalyticCostPredictor`
    and later picks are better.

    ``prior`` warm-starts the per-family table — a
    :class:`~repro.observe.RunLedger`'s persisted EWMAs carry one run's
    observations into the next, so a warm-started campaign prices cells
    realistically from its very first pick.
    """

    name = PREDICTOR_EWMA

    def __init__(self, alpha: float = 0.3,
                 prior: dict[str, float] | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"EWMA alpha must be in (0, 1]: {alpha}")
        self.alpha = alpha
        self._ewma: dict[str, float] = dict(prior) if prior else {}
        self._lock = threading.Lock()

    def predict(self, task: "CellTask") -> float:
        with self._lock:
            learned = self._ewma.get(task.family)
        if learned is not None:
            return learned
        hint = task.cost_hint
        return hint if hint is not None else DEFAULT_COST_SECONDS

    def observe(self, task: "CellTask", seconds: float) -> None:
        with self._lock:
            previous = self._ewma.get(task.family)
            if previous is None:
                self._ewma[task.family] = seconds
            else:
                self._ewma[task.family] = (self.alpha * seconds
                                           + (1.0 - self.alpha) * previous)


def make_predictor(spec: Any,
                   prior: dict[str, float] | None = None) -> CostPredictor:
    """Resolve a policy's ``predictor`` field to an instance.

    Accepts the built-in names (``"analytic"`` / ``"ewma"``) or any
    object already implementing the :class:`CostPredictor` protocol.
    ``prior`` (a ledger's persisted family EWMAs) only applies to the
    built-in ``"ewma"`` predictor — the analytic model is static and a
    caller-supplied instance owns its own state.
    """
    if isinstance(spec, str):
        if spec == PREDICTOR_ANALYTIC:
            return AnalyticCostPredictor()
        if spec == PREDICTOR_EWMA:
            return EWMACostPredictor(prior=prior)
        raise ConfigurationError(
            f"predictor must be one of {PREDICTORS}: {spec!r}")
    if not (callable(getattr(spec, "predict", None))
            and callable(getattr(spec, "observe", None))):
        raise ConfigurationError(
            f"predictor object must implement the CostPredictor "
            f"protocol (predict/observe): {spec!r}")
    return spec


def simulate_makespan(costs: list[float], max_workers: int) -> float:
    """Makespan of dispatching ``costs`` in order across a worker pool.

    The standard greedy list-scheduling model: each cost goes to the
    earliest-free worker. Deterministic — which is exactly why the
    scheduler reports *simulated* makespan instead of trying to time a
    real pool, where concurrent sleeps on a shared fake clock would
    make per-cell elapsed time racy.
    """
    if not costs:
        return 0.0
    free = [0.0] * max(1, min(max_workers, len(costs)))
    for cost in costs:
        heapq.heapreplace(free, free[0] + cost)
    return max(free)


@dataclass(frozen=True)
class SchedulerStats:
    """One scheduler's telemetry for a finished run.

    ``makespan_seconds`` is the simulated makespan of the observed
    per-cell costs dispatched in this schedule's order across
    ``max_workers`` workers (see :func:`simulate_makespan`);
    ``mean_abs_error`` / ``mape`` compare the dispatch-time predictions
    against what cells actually took (MAPE skips zero-cost cells).
    ``dispatch`` records how the workers were realized (``"thread"`` or
    ``"process"``) so a report line is self-describing.
    """

    schedule: str
    predictor: str
    cells: int
    predicted_seconds: float
    actual_seconds: float
    mean_abs_error: float
    mape: float | None
    makespan_seconds: float
    max_workers: int
    dispatch: str = DISPATCH_THREAD


class Scheduler:
    """Orders pending cells by predicted cost under one policy.

    The engine calls :meth:`pick` to choose which pending task to
    dispatch next and :meth:`observe` as each finishes; both run on the
    dispatch thread, so the scheduler itself needs no locking (the
    shared :class:`EWMACostPredictor` guards its own state). One
    instance serves one run — :meth:`stats` summarizes it afterwards.
    """

    def __init__(self, schedule: str = SCHEDULE_LANE_MAJOR,
                 predictor: CostPredictor | None = None,
                 ledger: "RunLedger | None" = None,
                 tracer: "TraceRecorder | None" = None) -> None:
        if schedule not in SCHEDULE_POLICIES:
            raise ConfigurationError(
                f"schedule must be one of {SCHEDULE_POLICIES}: "
                f"{schedule!r}")
        self.schedule = schedule
        self.predictor: CostPredictor = (predictor if predictor is not None
                                         else EWMACostPredictor())
        self.ledger = ledger
        self.tracer = tracer
        self._order: list[str] = []
        self._forecast: dict[str, float] = {}
        self._actual: dict[str, float] = {}

    @property
    def is_lane_major(self) -> bool:
        """True when dispatch order equals task-list order."""
        return self.schedule == SCHEDULE_LANE_MAJOR

    def pick(self, pending: "list[tuple[int, CellTask]]") -> int:
        """Position in ``pending`` of the next task to dispatch.

        ``lane-major`` always takes the head; the cost policies price
        every pending task and take the extreme, earliest task winning
        ties (so constant predictions degrade gracefully to lane-major
        order). The price the comparison used is what the telemetry
        records — re-predicting after the loop could diverge from the
        decision under a predictor whose state moves between calls
        (and would double the predict() traffic).
        """
        position = 0
        price = self.predictor.predict(pending[0][1])
        if not self.is_lane_major and len(pending) > 1:
            longest = self.schedule == SCHEDULE_LONGEST_FIRST
            best = price
            for i in range(1, len(pending)):
                cost = self.predictor.predict(pending[i][1])
                if (cost > best) if longest else (cost < best):
                    best, position = cost, i
            price = best
        chosen = pending[position][1]
        self._order.append(chosen.key)
        self._forecast[chosen.key] = price
        if self.tracer is not None:
            self.tracer.emit("schedule", key=chosen.key,
                             status=self.schedule, predicted=price)
        return position

    def observe(self, task: "CellTask", seconds: float) -> None:
        """Record a finished task's measured (injected-clock) seconds.

        A configured :class:`~repro.observe.RunLedger` gets the same
        observation, persisting it for the next run's warm start.
        Zero-cost cells — cache replays and gated skips — still land in
        the telemetry (the Scheduling table should show them) but carry
        no cost signal, so neither the online predictor nor the ledger
        learns from them: a warm run must not teach the EWMA that every
        cell is free.
        """
        self._actual[task.key] = seconds
        if seconds > 0.0:
            self.predictor.observe(task, seconds)
            if self.ledger is not None:
                self.ledger.record(task.family, seconds)

    def flush(self) -> None:
        """Persist the run ledger's batched observations, if any.

        The engine calls this once per drain (in a ``finally``), so a
        campaign writes its ledger file once per run instead of once
        per cell — see :meth:`~repro.observe.RunLedger.flush`.
        """
        if self.ledger is not None:
            self.ledger.flush()

    def stats(self, max_workers: int = 1,
              dispatch: str = DISPATCH_THREAD) -> SchedulerStats:
        """Summarize the run's predictions against its observations."""
        pairs = [(self._forecast[key], self._actual[key])
                 for key in self._order if key in self._actual]
        predicted = sum(p for p, _ in pairs)
        actual = sum(a for _, a in pairs)
        errors = [abs(p - a) for p, a in pairs]
        ratios = [abs(p - a) / a for p, a in pairs if a > 0]
        return SchedulerStats(
            schedule=self.schedule,
            predictor=getattr(self.predictor, "name",
                              type(self.predictor).__name__),
            cells=len(pairs),
            predicted_seconds=predicted,
            actual_seconds=actual,
            mean_abs_error=(sum(errors) / len(errors)) if errors else 0.0,
            mape=(sum(ratios) / len(ratios)) if ratios else None,
            makespan_seconds=simulate_makespan(
                [a for _, a in pairs], max_workers),
            max_workers=max_workers,
            dispatch=dispatch,
        )
