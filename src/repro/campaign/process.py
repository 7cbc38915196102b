"""Process dispatch: picklable cells and the per-process worker harness.

Thread dispatch shares one address space, so tasks can carry closures
and every worker writes the same journal instance. The simulator
backends, though, are pure Python — CPU-bound cells serialize on the
GIL and a thread pool buys no wall-clock at all. Process dispatch runs
the same :func:`~repro.campaign.engine.drain` loop over a supervised
process pool (:class:`~repro.campaign.supervisor.Supervisor`); this
module supplies what crosses the process boundary and what runs on
the far side of it:

* :class:`CellSpec` — a *picklable* description of one cell (no
  closures): key, lane, (model, train, options), and the cost
  hint/family the scheduler prices it by;
* :class:`WorkerSpec` — everything a worker process needs to rebuild
  the harness once: the lane backends plus the retry / deadline /
  breaker settings of the :class:`~repro.resilience.ExecutionPolicy`;
* :class:`CampaignWorker` — the per-process harness; it turns each
  spec into a task (:func:`~repro.campaign.engine.cell_task`) and runs
  it through the same :func:`~repro.campaign.engine.execute_cell` as
  thread dispatch;
* :func:`run_cell_specs` — the parent-side entry point: the shared
  resume-skip, then the drain on the supervised pool.

Each worker process builds its own
:class:`~repro.resilience.ResilientExecutor` + circuit breaker per
lane and journals finished cells into its own
:class:`~repro.resilience.ShardedJournal` shard — the journal's
atomic generation claim guarantees the processes never share a file,
and the canonical ``merged_text()`` is byte-identical to a sequential
run's. Full :class:`~repro.resilience.CellOutcome` objects (compile
and run reports included) travel back over the results pipe, so the
parent's results — and the scheduler's elapsed-seconds feedback — are
exactly what thread dispatch would have produced.

Known limits (enforced with :class:`ConfigurationError` up front):
backends and fault plans must pickle; the journal must be sharded (a
single :class:`~repro.resilience.SweepJournal` file cannot take
appends from several processes); injected clocks and pre-built
executors/breakers cannot cross a process boundary. Breaker state
lives in the workers, so the parent-side health table reports no trips
for process-dispatched lanes.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.campaign.engine import (
    CellResult,
    cell_task,
    drain,
    execute_cell,
    resume_skip,
)
from repro.campaign.supervisor import Supervisor, write_heartbeat
from repro.common.errors import ConfigurationError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.executor import ResilientExecutor
from repro.resilience.journal import ShardedJournal
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.campaign.scheduler import Scheduler
    from repro.core.backend import AcceleratorBackend
    from repro.models.config import ModelConfig, TrainConfig
    from repro.resilience.policy import ExecutionPolicy

__all__ = [
    "CellSpec",
    "WorkerSpec",
    "CampaignWorker",
    "run_cell_specs",
    "check_process_policy",
]


@dataclass(frozen=True)
class CellSpec:
    """One cell as pure data — the process-dispatch unit of work.

    Duck-types with :class:`~repro.campaign.engine.CellTask` where the
    scheduler is concerned (``key`` / ``cost_hint`` / ``family``), but
    carries the (model, train, options) triple instead of closures so
    it can cross a process boundary.
    """

    key: str
    lane: str
    model: "ModelConfig"
    train: "TrainConfig"
    options: dict[str, Any] = field(default_factory=dict)
    measure: bool = True
    cost_hint: float | None = None
    family: str = ""
    #: Content-addressed cache key (see
    #: :func:`repro.cache.cell_fingerprint`); ``None`` bypasses any
    #: configured compile cache.
    fingerprint: str | None = None


@dataclass(frozen=True)
class WorkerSpec:
    """The seed a worker process rebuilds its harness from.

    One :class:`WorkerSpec` describes every lane, so a single pool
    serves a whole multi-backend campaign; ``breakers`` mirrors
    whether the policy asked for circuit breaking (campaigns always
    do). ``journal_dir`` being ``None`` means unjournaled.
    """

    backends: "dict[str, AcceleratorBackend]"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: float | None = None
    breakers: bool = True
    breaker_threshold: int = 5
    breaker_reset: float = 300.0
    journal_dir: str | None = None
    journal_prefix: str = "shard"
    #: Trace-shard directory (``None`` = tracing off) and the parent's
    #: run token, so every worker's shards group under one campaign.
    trace_dir: str | None = None
    trace_run: str = ""
    #: Compile-cache directory (``None`` = caching off). Workers open
    #: the cache read-through and publish clean first-attempt results
    #: with O_EXCL-style atomic writes, so concurrent workers never
    #: corrupt an entry; eviction stays parent-side.
    cache_dir: str | None = None
    #: Memoize compile-stage artifacts in each worker (spilling to
    #: ``cache_dir``'s stage tier when caching is on, so workers share
    #: upstream work through the filesystem).
    stage_memo: bool = True


class CampaignWorker:
    """Per-process harness: executors, breakers, and a journal shard.

    Built once per worker process by the pool initializer; every cell
    the process executes reuses the same per-lane executor (so retries
    and breaker state accumulate exactly as they would on a thread)
    and appends to the same journal generation. Worker processes are
    single-threaded, so non-thread-safe backends need no serializer
    here.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.journal = (ShardedJournal(spec.journal_dir,
                                       spec.journal_prefix)
                        if spec.journal_dir is not None else None)
        self.tracer = None
        if spec.trace_dir is not None:
            from repro.observe import TraceRecorder
            self.tracer = TraceRecorder(spec.trace_dir,
                                        run=spec.trace_run or None)
        self.cache = None
        if spec.cache_dir is not None:
            from repro.cache import CompileCache
            self.cache = CompileCache(spec.cache_dir)
        self.memo = None
        if spec.stage_memo:
            from repro.cache import StageMemo
            self.memo = StageMemo(spill=self.cache)
        self.executors: dict[str, ResilientExecutor] = {}
        for label in spec.backends:
            breaker = None
            if spec.breakers:
                breaker = CircuitBreaker(
                    label, failure_threshold=spec.breaker_threshold,
                    reset_timeout=spec.breaker_reset)
            self.executors[label] = ResilientExecutor(
                retry=spec.retry, cell_timeout=spec.deadline,
                breaker=breaker, tracer=self.tracer)

    def execute(self, index: int, cell: CellSpec) -> CellResult:
        """Run one cell to a journaled :class:`CellResult`."""
        task = cell_task(cell, self.spec.backends[cell.lane],
                         self.executors[cell.lane])
        return execute_cell(task, index, self.journal, tracer=self.tracer,
                            cache=self.cache, memo=self.memo)


class _WorkerHeartbeat:
    """Worker-side heartbeat stamper: a daemon thread plus sync marks.

    The daemon thread re-stamps every ``interval`` seconds so the
    supervisor can tell a *wedged* worker (stale beat — even its
    stamper froze, e.g. SIGSTOP) from a busy one. :meth:`mark` stamps
    synchronously at cell start/end so the in-flight cell key and its
    wall-clock start are on disk *before* the cell runs — a SIGKILL'd
    worker leaves behind exactly which cell it died holding.
    """

    def __init__(self, directory: str, interval: float,
                 token: str) -> None:
        self.directory = directory
        self.interval = interval
        self.token = token
        self._cell: str | None = None
        self._cell_started: float | None = None
        self._seq = 0
        self._lock = threading.Lock()

    def start(self) -> None:
        self._stamp()
        thread = threading.Thread(target=self._beat_forever,
                                  daemon=True, name="heartbeat")
        thread.start()

    def mark(self, cell: str | None) -> None:
        with self._lock:
            self._cell = cell
            self._cell_started = (time.monotonic()
                                  if cell is not None else None)
        self._stamp()

    def _stamp(self) -> None:
        with self._lock:
            self._seq += 1
            try:
                write_heartbeat(self.directory, pid=os.getpid(),
                                token=self.token,
                                beat=time.monotonic(),
                                cell=self._cell,
                                cell_started=self._cell_started,
                                seq=self._seq)
            except OSError:
                # Never let heartbeat IO take down real work; a
                # missing stamp only risks one spurious stale-kill.
                pass

    def _beat_forever(self) -> None:
        while True:
            time.sleep(self.interval)
            self._stamp()


#: The process-local worker, set once by :func:`_init_worker`.
_WORKER: CampaignWorker | None = None

#: The process-local heartbeat stamper, set with the worker.
_HEARTBEAT: _WorkerHeartbeat | None = None


def _init_worker(payload: bytes, heartbeat_dir: str,
                 heartbeat_interval: float, pool_token: str) -> None:
    """Pool initializer: rebuild the harness from the pickled seed and
    start the heartbeat stamper the supervisor watches.

    The seed is shipped as explicit pickle bytes (not raw ``initargs``)
    so fork- and spawn-started pools behave identically and every
    worker gets its own deep copy of backend state — fault-plan RNGs
    included, which keeps injection deterministic *per worker*.
    """
    global _WORKER, _HEARTBEAT
    _WORKER = CampaignWorker(pickle.loads(payload))
    _HEARTBEAT = _WorkerHeartbeat(heartbeat_dir, heartbeat_interval,
                                  pool_token)
    _HEARTBEAT.start()


def _execute_cell(index: int, cell: CellSpec) -> CellResult:
    assert _WORKER is not None and _HEARTBEAT is not None, \
        "pool initializer did not run"
    _HEARTBEAT.mark(cell.key)
    try:
        return _WORKER.execute(index, cell)
    finally:
        _HEARTBEAT.mark(None)


def check_process_policy(policy: "ExecutionPolicy", journal: Any, *,
                         api: str, injected_clock: bool = False) -> None:
    """Reject policy features that cannot cross a process boundary."""
    if journal is not None and not isinstance(journal, ShardedJournal):
        raise ConfigurationError(
            f"{api}: process dispatch needs a ShardedJournal directory "
            "(or no journal) — a single journal file cannot take "
            "appends from multiple processes")
    if injected_clock or policy.clock is not None:
        raise ConfigurationError(
            f"{api}: an injected clock cannot be shared across "
            "processes; use thread dispatch for fake-clock runs")
    if policy.executor is not None:
        raise ConfigurationError(
            f"{api}: a pre-built executor cannot cross a process "
            "boundary; describe retry/deadline on the policy instead")
    if isinstance(policy.breaker, CircuitBreaker):
        raise ConfigurationError(
            f"{api}: a pre-built CircuitBreaker cannot cross a process "
            "boundary; use breaker_threshold/breaker_reset instead")


def _seed_bytes(worker: WorkerSpec, cells: list[CellSpec]) -> bytes:
    """Pickle the seed (and prove the cells pickle) with a clear error."""
    try:
        payload = pickle.dumps(worker)
        pickle.dumps(cells)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ConfigurationError(
            "process dispatch requires picklable backends and specs "
            f"(closures and locks cannot cross processes): {exc}"
        ) from exc
    return payload


def run_cell_specs(
    cells: list[CellSpec], *,
    worker: WorkerSpec,
    max_workers: int = 1,
    journal: ShardedJournal | None = None,
    resume: bool = False,
    retry_failed: bool = False,
    on_result: Callable[[CellResult], None] | None = None,
    scheduler: "Scheduler | None" = None,
    supervisor: Supervisor | None = None,
    tracer: Any = None,
) -> list[CellResult]:
    """Execute every cell spec across a process pool; results in order.

    The process-dispatch twin of
    :func:`~repro.campaign.engine.run_cell_tasks`: the same resume-skip
    and the same :func:`~repro.campaign.engine.drain`, so the same
    ordering, callback, scheduling and error guarantees. Journaling
    happens *in the workers* — each process appends finished cells to
    its own shard, fsynced before the result travels home, so a killed
    campaign resumes exactly-once from whatever reached disk.

    The pool is always supervised — by ``supervisor``, or a default
    :class:`~repro.campaign.supervisor.Supervisor` — so the drain also
    survives worker death: crashed/wedged workers are detected
    (heartbeats), killed (hard deadlines), and the pool is rebuilt
    with exactly-once resume from the journal.
    """
    results, pending = resume_skip(cells, journal, resume, retry_failed,
                                   tracer)
    if supervisor is None:
        supervisor = Supervisor(tracer=tracer)
    # The seed pickles (and is checked) only when a worker will start.
    payload = (_seed_bytes(worker, [cell for _, cell in pending])
               if pending else b"")
    supervisor.bind(payload, workers=min(max_workers, len(pending)),
                    journal=journal)
    return drain(results, pending, supervisor, scheduler=scheduler,
                 on_result=on_result, tracer=tracer)
