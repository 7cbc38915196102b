"""The one cell dispatcher behind every sweep and campaign.

A sweep is a list of independent cells. Every entry point —
:func:`~repro.workloads.sweeps.run_grid`, the Tier-2 analyzers and
:class:`~repro.campaign.Campaign` — reduces its work to such a list
and hands it to :func:`drain`, the single dispatch loop. The loop runs
over a small pool interface, :class:`CellPool`, with three
implementations:

* :class:`InlinePool` — no threads; each cell runs on the calling
  thread as it is dispatched (``max_workers == 1``, or at most one
  pending cell);
* :class:`ThreadPool` — a :class:`~concurrent.futures.ThreadPoolExecutor`;
* :class:`~repro.campaign.supervisor.Supervisor` — a supervised
  process pool (heartbeats, hard kills, quarantine, pool rebuild),
  whose cells are picklable :class:`~repro.campaign.process.CellSpec`
  data.

Whatever the pool, one function, :func:`execute_cell`, runs a cell:
cache read, executor, journal record, ``cell`` trace event, cache
store. Dispatch is incremental: one scheduler pick per free slot
(FIFO without a scheduler), so an online cost predictor learns from
every finished cell before the next pick.

Guarantees:

* **Deterministic ordering** — results come back in task-list order,
  whatever order cells completed in.
* **Sequential fidelity** — on the inline pool with task-order
  dispatch, ``on_result`` fires in strict task order, resumed cells
  at their own positions, exactly like the pre-campaign harness.
  Otherwise resumed cells resolve first and executed cells as they
  complete — still exactly once per cell.
* **Crash tolerance** — each finished cell is journaled (fsynced)
  before its result is surfaced; a non-:class:`ReproError` escaping a
  cell (a harness bug, or an injected "kill") stops dispatch, drains
  the running cells, and re-raises — journaled outcomes survive for
  the resume.
* **Backend serialization** — tasks carrying a ``serializer`` lock
  (backends audited ``thread_safe = False``) never overlap their
  backend calls, while their retries/backoffs still interleave freely.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.stages import run_stages
from repro.resilience.executor import CellOutcome, ResilientExecutor
from repro.resilience.journal import JournalEntry, ShardedJournal, SweepJournal
from repro.resilience.policy import DISPATCH_PROCESS

if TYPE_CHECKING:  # the scheduler module imports nothing from here
    from repro.cache import CompileCache, StageMemo
    from repro.campaign.process import CellSpec
    from repro.campaign.scheduler import Scheduler
    from repro.campaign.supervisor import SupervisionStats
    from repro.core.backend import AcceleratorBackend
    from repro.observe import TraceRecorder
    from repro.resilience.policy import ExecutionPolicy

#: A dispatchable cell (a :class:`CellTask`, or a picklable
#: :class:`~repro.campaign.process.CellSpec` on the process pool) at
#: its task-list index.
Pending = tuple[int, Any]


@dataclass(frozen=True)
class CellTask:
    """One independent unit of sweep work.

    Attributes:
        key: the cell's journal key (unique within the task list).
        compile_fn: zero-arg callable producing the compile artifact.
        run_fn: optional callable taking the compile artifact.
        is_transient: the owning backend's fault taxonomy.
        executor: the retry/deadline/breaker engine for this cell
            (lanes of a campaign share one executor per backend).
        summary_extra: optional hook computing extra journal-summary
            fields from a successful outcome (e.g. allocation ratios)
            so a resume can restore them without re-executing.
        serializer: optional lock serializing the backend calls of a
            non-thread-safe backend.
        cost_hint: analytic prediction of the cell's harness seconds
            (see :func:`~repro.campaign.scheduler.estimate_cell_seconds`);
            ``None`` means unpriced.
        family: workload-family key cost observations generalize over
            (the campaign stamps ``"<lane>::<model family>"``).
        fingerprint: the cell's content-addressed cache key (see
            :func:`repro.cache.cell_fingerprint`); ``None`` means the
            cell bypasses any configured compile cache.
        stages_fn: zero-arg callable building the cell's staged compile
            pipeline (a :class:`~repro.core.stages.CompileStage` list).
            When the engine runs with a :class:`~repro.cache.StageMemo`
            this replaces ``compile_fn`` so stage artifacts are shared
            across cells; without a memo ``compile_fn`` runs as before.
    """

    key: str
    compile_fn: Callable[[], Any]
    run_fn: Callable[[Any], Any] | None = None
    is_transient: Callable[[BaseException], bool] | None = None
    executor: ResilientExecutor | None = None
    summary_extra: Callable[[CellOutcome],
                            dict[str, Any] | None] | None = None
    serializer: threading.Lock | None = None
    cost_hint: float | None = None
    family: str = ""
    fingerprint: str | None = None
    stages_fn: Callable[[], list[Any]] | None = None


@dataclass(frozen=True)
class CellResult:
    """What the engine produced for one task, at its input index.

    Executed cells carry the live :class:`CellOutcome` (and the
    :class:`JournalEntry` that was recorded, when journaling); resumed
    cells carry only the journaled entry.
    """

    index: int
    key: str
    outcome: CellOutcome | None
    entry: JournalEntry | None
    resumed: bool

    @property
    def status(self) -> str:
        if self.outcome is not None:
            return self.outcome.status
        assert self.entry is not None
        return self.entry.status

    @property
    def attempts(self) -> int:
        if self.outcome is not None:
            return max(1, self.outcome.attempts)
        assert self.entry is not None
        return self.entry.attempts

    @property
    def elapsed(self) -> float:
        """Injected-clock seconds this run spent on the cell (0 if
        resumed)."""
        return self.outcome.elapsed if self.outcome is not None else 0.0


def _locked(fn: Callable[..., Any],
            lock: threading.Lock | None) -> Callable[..., Any]:
    if lock is None:
        return fn

    def guarded(*args: Any) -> Any:
        with lock:
            return fn(*args)

    return guarded


def cell_task(cell: "CellSpec", backend: "AcceleratorBackend",
              executor: ResilientExecutor,
              serializer: threading.Lock | None = None) -> CellTask:
    """The executable task for one cell spec on its backend.

    Thread dispatch builds its tasks here in the parent; a process
    worker builds the same task from the spec it was sent.
    """
    def compile_fn() -> Any:
        return backend.compile(cell.model, cell.train, **cell.options)

    def stages_fn() -> list[Any]:
        return backend.compile_pipeline(cell.model, cell.train,
                                        **cell.options)

    return CellTask(
        key=cell.key,
        compile_fn=compile_fn,
        stages_fn=stages_fn,
        run_fn=(backend.run if cell.measure else None),
        is_transient=backend.is_transient,
        executor=executor,
        serializer=serializer,
        cost_hint=cell.cost_hint,
        family=cell.family,
        fingerprint=cell.fingerprint,
    )


def execute_cell(task: CellTask, index: int,
                 journal: SweepJournal | ShardedJournal | None = None,
                 fallback: ResilientExecutor | None = None,
                 tracer: "TraceRecorder | None" = None,
                 cache: "CompileCache | None" = None,
                 memo: "StageMemo | None" = None) -> CellResult:
    """Run one cell: cache read, executor, journal, trace, cache store.

    A fingerprinted cell already in ``cache`` replays without touching
    the backend; otherwise the task's executor (``fallback`` when the
    task carries none) runs it, through the stage ``memo`` when the
    task has a ``stages_fn``. The outcome is journaled and traced
    either way, and a fresh one is published to the cache.
    """
    outcome = None
    if cache is not None:
        from repro.cache import cached_outcome
        outcome = cached_outcome(cache, task.key, task.fingerprint,
                                 tracer)
    replayed = outcome is not None
    if outcome is None:
        executor = task.executor if task.executor is not None else fallback
        assert executor is not None, "a task without an executor"
        compile_fn = task.compile_fn
        if memo is not None and task.stages_fn is not None:
            stages_fn = task.stages_fn

            def compile_fn() -> Any:
                return run_stages(stages_fn(), memo, key=task.key,
                                  tracer=tracer)
        run_fn = task.run_fn
        outcome = executor.execute(
            task.key,
            _locked(compile_fn, task.serializer),
            _locked(run_fn, task.serializer) if run_fn is not None else None,
            is_transient=task.is_transient,
        )
    entry = None
    if journal is not None:
        extra = None
        if task.summary_extra is not None:
            extra = task.summary_extra(outcome)
        entry = outcome.journal_entry(extra)
        journal.record(entry)
    if tracer is not None:
        tracer.emit("cell", key=task.key, status=outcome.status,
                    attempt=outcome.attempts, duration=outcome.elapsed)
    if cache is not None and not replayed:
        from repro.cache import store_outcome
        store_outcome(cache, task.fingerprint, outcome)
    return CellResult(index=index, key=task.key, outcome=outcome,
                      entry=entry, resumed=False)


# -- pools ---------------------------------------------------------------
class CellPool:
    """Where :func:`drain` runs cells, plus the hooks it calls.

    The defaults describe a pool that never loses a cell: every cell
    may be dispatched, nothing needs watching, and any exception a
    future raises is a harness error.
    """

    #: Cells the pool runs at once.
    capacity = 1
    #: Seconds :func:`drain` waits for a result before it calls
    #: :meth:`patrol` again (``None`` blocks until a cell finishes).
    tick: float | None = None
    #: Whether cells complete in dispatch order, so task-order
    #: dispatch can fire callbacks in strict task order.
    in_order = False

    def submit(self, index: int, task: Any) -> Future:
        raise NotImplementedError

    def eligible(self, queue: list[Pending],
                 inflight: dict[Future, Pending]) -> Sequence[int]:
        """Positions in ``queue`` that may be dispatched now."""
        return range(len(queue))

    def patrol(self, inflight: dict[Future, Pending]) -> None:
        """Watch the running cells between waits."""

    def broken(self, exc: BaseException) -> bool:
        """Whether ``exc`` means the pool died under its cell."""
        return False

    def recover(self, lost: list[Pending]
                ) -> list[tuple[int, Any, CellResult | None]]:
        """Resolve cells lost to a broken pool: each comes back with
        its final result, or ``None`` to dispatch it again."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the pool's workers and files."""


class InlinePool(CellPool):
    """Runs each cell on the calling thread as it is submitted."""

    in_order = True

    def __init__(self, run: Callable[[Any, int], CellResult]) -> None:
        self.run = run

    def submit(self, index: int, task: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(self.run(task, index))
        except Exception as exc:  # noqa: BLE001 — the drain re-raises
            future.set_exception(exc)
        return future


class ThreadPool(CellPool):
    """Runs cells on ``workers`` threads sharing the caller's memory."""

    def __init__(self, run: Callable[[Any, int], CellResult],
                 workers: int) -> None:
        self.run = run
        self.capacity = workers
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="campaign")

    def submit(self, index: int, task: Any) -> Future:
        return self._pool.submit(self.run, task, index)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


# -- the dispatch loop ---------------------------------------------------
def resume_skip(cells: Sequence[Any],
                journal: SweepJournal | ShardedJournal | None,
                resume: bool, retry_failed: bool,
                tracer: "TraceRecorder | None" = None,
                ) -> tuple[list[CellResult | None], list[Pending]]:
    """Restore journaled cells; return the results so far and what is
    left to run.

    With ``resume``, a cell whose key the journal holds a final
    outcome for resolves as a resumed result (journaled failures too,
    unless ``retry_failed``); every other cell is pending.
    """
    journaled: dict[str, JournalEntry] = {}
    if resume and journal is not None:
        journaled = journal.load()
    results: list[CellResult | None] = [None] * len(cells)
    pending: list[Pending] = []
    for index, cell in enumerate(cells):
        entry = journaled.get(cell.key)
        if (entry is not None and entry.finished
                and not (retry_failed and entry.failed)):
            results[index] = CellResult(index=index, key=cell.key,
                                        outcome=None, entry=entry,
                                        resumed=True)
            if tracer is not None:
                tracer.emit("resume", key=cell.key, status=entry.status)
        else:
            pending.append((index, cell))
    return results, pending


def drain(results: list[CellResult | None], pending: list[Pending],
          pool: CellPool, *,
          scheduler: "Scheduler | None" = None,
          on_result: Callable[[CellResult], None] | None = None,
          tracer: "TraceRecorder | None" = None) -> list[CellResult]:
    """Run every pending cell on ``pool``; return all results in order.

    ``results`` holds the resumed cells already (see
    :func:`resume_skip`). Each free slot takes the scheduler's pick
    from the eligible pending cells, or the queue head. The first
    harness error stops dispatch; the running cells finish and the
    error is re-raised. The pool is closed and the scheduler's ledger
    flushed on the way out, whatever path the drain took.
    """
    queue = list(pending)
    inflight: dict[Future, Pending] = {}
    first_error: BaseException | None = None
    ordered = pool.in_order and (scheduler is None
                                 or scheduler.is_lane_major)
    announced = 0  # ordered: callbacks have fired for results[:announced]

    def announce(result: CellResult) -> None:
        nonlocal announced
        if on_result is None:
            return
        if not ordered:
            on_result(result)
            return
        while announced < len(results) and results[announced] is not None:
            on_result(results[announced])  # type: ignore[arg-type]
            announced += 1

    def deliver(task: Any, result: CellResult) -> None:
        results[result.index] = result
        if first_error is not None:
            return
        if scheduler is not None and not result.resumed:
            scheduler.observe(task, result.elapsed)
        announce(result)

    try:
        # Resumed cells resolve first — at their own positions when
        # ordered.
        for result in [r for r in results if r is not None]:
            announce(result)
        while True:
            while (queue and first_error is None
                   and len(inflight) < pool.capacity):
                positions = pool.eligible(queue, inflight)
                if not positions:
                    break
                choice = (scheduler.pick([queue[p] for p in positions])
                          if scheduler is not None else 0)
                index, task = queue.pop(positions[choice])
                if tracer is not None:
                    tracer.emit("dispatch", key=task.key)
                inflight[pool.submit(index, task)] = (index, task)
            if not inflight:
                break
            done, _ = wait(inflight, timeout=pool.tick,
                           return_when=FIRST_COMPLETED)
            lost: list[Pending] = []
            for future in done:
                index, task = inflight.pop(future)
                try:
                    result = future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised
                    if pool.broken(exc):
                        lost.append((index, task))
                    elif first_error is None:
                        first_error = exc
                        queue.clear()
                    continue
                deliver(task, result)
            if lost:
                # The pool died: every cell still in it went down too.
                lost.extend(inflight.values())
                inflight.clear()
                if first_error is None:
                    for index, task, result in pool.recover(lost):
                        if result is None:
                            queue.append((index, task))
                        else:
                            deliver(task, result)
                    queue.sort(key=lambda item: item[0])
            elif first_error is None:
                pool.patrol(inflight)
    finally:
        pool.close()
        if scheduler is not None:
            scheduler.flush()
    if first_error is not None:
        raise first_error
    return [r for r in results if r is not None]


# -- entry points --------------------------------------------------------
def run_cell_tasks(
    tasks: list[CellTask], *,
    max_workers: int = 1,
    journal: SweepJournal | ShardedJournal | None = None,
    resume: bool = False,
    retry_failed: bool = False,
    on_result: Callable[[CellResult], None] | None = None,
    scheduler: "Scheduler | None" = None,
    tracer: "TraceRecorder | None" = None,
    cache: "CompileCache | None" = None,
    memo: "StageMemo | None" = None,
) -> list[CellResult]:
    """Execute every task in this process; return results in task order.

    Cells run on the :class:`InlinePool` when ``max_workers == 1`` or
    at most one cell is pending, else on a :class:`ThreadPool`.
    ``on_result`` fires once per cell as it resolves (resumed cells
    resolve immediately). On the inline pool that is strict task
    order; on a thread pool it is completion order.

    ``scheduler`` (a :class:`~repro.campaign.scheduler.Scheduler`)
    reorders *dispatch* only: it picks which pending cell each free
    worker takes next and is told what every cell actually cost.
    Results, journal keys, and resume behaviour are identical under
    every schedule; a non-lane-major schedule on the inline pool
    executes cells in predicted-cost order, so ``on_result`` fires in
    dispatch order rather than task order (resumed cells still resolve
    first, in task order).

    ``tracer`` (a :class:`~repro.observe.TraceRecorder`) records the
    dispatch/resume/cell lifecycle as JSONL trace events — pure
    telemetry, never touching results or the journal.

    ``cache`` (a :class:`~repro.cache.CompileCache`) replays
    fingerprinted cells read-through and publishes clean first-attempt
    successes; replayed cells journal exactly what a cold execution
    would have. Whatever path the drain takes, a scheduler's run
    ledger is flushed once on the way out (batched persistence — see
    :meth:`~repro.observe.RunLedger.flush`).

    ``memo`` (a :class:`~repro.cache.StageMemo`) memoizes *stage*
    artifacts across cells that carry a ``stages_fn`` — the
    compile-side complement of ``cache``, sharing upstream work (graph
    build, partitioning) between cells that differ only downstream.
    """
    results, pending = resume_skip(tasks, journal, resume, retry_failed,
                                   tracer)
    fallback = ResilientExecutor()

    def run(task: CellTask, index: int) -> CellResult:
        return execute_cell(task, index, journal, fallback, tracer, cache,
                            memo)

    workers = min(max_workers, len(pending))
    pool = ThreadPool(run, workers) if workers > 1 else InlinePool(run)
    return drain(results, pending, pool, scheduler=scheduler,
                 on_result=on_result, tracer=tracer)


def run_cells(cells: "list[CellSpec]",
              backends: "dict[str, AcceleratorBackend]",
              policy: "ExecutionPolicy", *,
              api: str,
              executor_for: Callable[[str], ResilientExecutor],
              breakers: bool,
              on_result: Callable[[CellResult], None] | None = None,
              scheduler: "Scheduler | None" = None,
              tracer: "TraceRecorder | None" = None,
              cache: "CompileCache | None" = None,
              injected_clock: bool = False,
              ) -> "tuple[list[CellResult], SupervisionStats | None]":
    """Run cell specs under ``policy``'s dispatch; results in order.

    ``backends`` maps each cell's ``lane`` to its backend. Thread
    dispatch builds one executor per lane with ``executor_for(lane)``
    and runs :func:`run_cell_tasks`; process dispatch ships the specs
    to supervised workers that build their own executors (with a
    circuit breaker per lane when ``breakers``) and returns the
    supervision telemetry too. ``api`` and ``injected_clock`` word
    and widen the check of what cannot cross a process boundary.
    """
    journal = policy.normalized_journal()
    common: dict[str, Any] = dict(
        max_workers=policy.max_workers, journal=journal,
        resume=policy.resume, retry_failed=policy.retry_failed,
        on_result=on_result, scheduler=scheduler, tracer=tracer)
    if policy.dispatch == DISPATCH_PROCESS:
        from repro.campaign.process import (
            WorkerSpec,
            check_process_policy,
            run_cell_specs,
        )
        check_process_policy(policy, journal, api=api,
                             injected_clock=injected_clock)
        assert journal is None or isinstance(journal, ShardedJournal)
        trace_dir = policy.trace_directory()
        worker = WorkerSpec(
            backends=dict(backends),
            retry=policy.retry,
            deadline=policy.deadline,
            breakers=breakers,
            breaker_threshold=policy.breaker_threshold,
            breaker_reset=policy.breaker_reset,
            journal_dir=(str(journal.directory)
                         if journal is not None else None),
            journal_prefix=(journal.prefix if journal is not None
                            else "shard"),
            trace_dir=str(trace_dir) if trace_dir is not None else None,
            trace_run=tracer.run if tracer is not None else "",
            cache_dir=(str(cache.directory) if cache is not None
                       else None),
            stage_memo=policy.stage_memo,
        )
        supervisor = policy.make_supervisor(
            tracer, families={cell.family for cell in cells})
        results = run_cell_specs(cells, worker=worker,
                                 supervisor=supervisor, **common)
        return results, supervisor.stats()
    memo = None
    if policy.stage_memo:
        from repro.cache import StageMemo
        memo = StageMemo(spill=cache)
    executors = {lane: executor_for(lane) for lane in backends}
    serializers = {lane: None if backend.thread_safe else threading.Lock()
                   for lane, backend in backends.items()}
    tasks = [cell_task(cell, backends[cell.lane], executors[cell.lane],
                       serializers[cell.lane]) for cell in cells]
    return run_cell_tasks(tasks, cache=cache, memo=memo, **common), None
