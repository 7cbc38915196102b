"""The supervised process pool: heartbeats, hard kills, quarantine.

Process dispatch runs the engine's one
:func:`~repro.campaign.engine.drain` loop over a
:class:`Supervisor` — the engine's third
:class:`~repro.campaign.engine.CellPool`, beside the inline and thread
pools. It makes process campaigns *self-healing*: a worker that is
SIGKILL'd, OOM-killed, or truly wedged surfaces as
``BrokenProcessPool``, and per-cell deadlines inside a worker are only
cooperative — a hung backend call could stall a lane forever. The
drain calls the supervisor's hooks for four mechanisms:

* **Heartbeats** (:meth:`Supervisor.patrol`, every poll tick of
  ``min(0.25, max(0.02, heartbeat_interval / 2))`` seconds) — each
  worker process stamps a monotonic beat (plus its in-flight cell key)
  into an ``hb-<pid>.json`` file in the journal directory on every
  ``heartbeat_interval``. Heartbeat files carry a per-pool token, so
  stale files from a previous pool era are ignored.
* **Hard deadline enforcement** (also :meth:`~Supervisor.patrol`) — a
  worker whose in-flight cell has been running longer than
  ``deadline * grace_factor`` wall-clock seconds, or whose heartbeat
  is older than ``heartbeat_interval * grace_factor``, is SIGKILL'd.
  The worker's own watchdog normally cuts a hang at ``deadline`` — the
  supervisor is the backstop for workers too wedged to self-report (a
  stopped process freezes its watchdog and heartbeat threads too).
* **Poison-cell quarantine** (:meth:`~Supervisor.eligible` and
  :meth:`~Supervisor.recover`) — crash attribution is conservative:
  when the pool breaks, every in-flight cell that did not reach the
  journal becomes a *suspect* and is re-run one at a time in
  isolation; completing clears suspicion, crashing alone is
  unambiguous. A cell that kills its worker ``quarantine_after``
  times is journaled as a final ``QuarantinedError`` failure instead
  of being retried forever.
* **Pool rebuild with exactly-once resume** (:meth:`~Supervisor.recover`
  and the next :meth:`~Supervisor.submit`) — after a break the pool
  is rebuilt (up to ``max_pool_rebuilds`` times) and work resumes
  from the :class:`~repro.resilience.ShardedJournal`: cells whose
  results were lost in the broken pipe but whose journal entries
  reached disk are restored (as resumed cells), never re-executed.

Because the loop is the engine's, the dispatch invariants are the
same as on threads: results stay spec-ordered, ``on_result`` fires
exactly once per cell, the scheduler keeps its cost feedback, a
harness error (non-pool-related) stops dispatch and re-raises, and
the canonical ``merged_text()`` of a crash-recovered run is
byte-identical to an unfaulted one's for the surviving cells.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
import uuid
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.campaign.engine import CellPool, CellResult
from repro.common.errors import (
    DeadlineExceededError,
    ErrorRecord,
    QuarantinedError,
)
from repro.resilience.executor import CellOutcome
from repro.resilience.journal import (
    STATUS_FAILED,
    JournalEntry,
    ShardedJournal,
)

if TYPE_CHECKING:
    from repro.campaign.process import CellSpec
    from repro.observe import TraceRecorder

__all__ = [
    "HEARTBEAT_PREFIX",
    "Heartbeat",
    "write_heartbeat",
    "read_heartbeats",
    "SupervisionStats",
    "Supervisor",
]

#: Heartbeat files live next to the journal shards; the prefix keeps
#: them out of the shard filter (shards start with the journal prefix).
HEARTBEAT_PREFIX = "hb-"


@dataclass(frozen=True)
class Heartbeat:
    """One worker's most recent heartbeat stamp.

    ``beat`` and ``cell_started`` are ``time.monotonic()`` values; on
    Linux that clock is system-wide, so the supervising process can
    compare them against its own monotonic reads directly.
    """

    pid: int
    token: str
    beat: float
    cell: str | None
    cell_started: float | None
    seq: int
    path: Path


def write_heartbeat(directory: str | os.PathLike[str], *, pid: int,
                    token: str, beat: float, cell: str | None,
                    cell_started: float | None, seq: int) -> Path:
    """Atomically write one worker's heartbeat file.

    Written to a temp file and ``os.replace``'d into place, so a
    reader never sees a torn stamp.
    """
    path = Path(directory) / f"{HEARTBEAT_PREFIX}{pid}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({
        "pid": pid, "token": token, "beat": beat, "cell": cell,
        "cell_started": cell_started, "seq": seq,
    }), encoding="utf-8")
    os.replace(tmp, path)
    return path


def read_heartbeats(directory: str | os.PathLike[str],
                    token: str | None = None) -> list[Heartbeat]:
    """All parseable heartbeats in ``directory``.

    Torn or malformed files are skipped (a worker may be mid-replace
    or freshly killed). With ``token``, stamps from other pool eras
    are filtered out — the defense against heartbeat files surviving
    a pool rebuild or an earlier campaign on the same journal dir.
    """
    root = Path(directory)
    if not root.exists():
        return []
    beats: list[Heartbeat] = []
    for path in sorted(root.iterdir()):
        name = path.name
        if not (name.startswith(HEARTBEAT_PREFIX)
                and name.endswith(".json")):
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            beat = Heartbeat(
                pid=int(payload["pid"]),
                token=str(payload["token"]),
                beat=float(payload["beat"]),
                cell=payload.get("cell"),
                cell_started=(float(payload["cell_started"])
                              if payload.get("cell_started") is not None
                              else None),
                seq=int(payload.get("seq", 0)),
                path=path,
            )
        except (OSError, ValueError, TypeError, KeyError):
            continue
        if token is not None and beat.token != token:
            continue
        beats.append(beat)
    return beats


@dataclass(frozen=True)
class SupervisionStats:
    """What the supervisor did during one campaign run.

    ``quarantined`` lists the journal keys finalized as
    ``QuarantinedError``; ``corrupt_lines`` is the highest
    malformed-line count any journal load observed (crash-truncated
    shards made visible — see
    :attr:`~repro.resilience.ShardedJournal.corrupt_lines`).
    """

    deadline_kills: int = 0
    stale_kills: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    quarantined: tuple[str, ...] = ()
    corrupt_lines: int = 0
    heartbeat_interval: float = 5.0
    grace_factor: float = 2.0
    quarantine_after: int = 2
    max_pool_rebuilds: int = 5

    @property
    def kills(self) -> int:
        return self.deadline_kills + self.stale_kills


class Supervisor(CellPool):
    """The supervised process pool: heartbeats, kills, and recovery.

    One instance supervises one campaign run as the pool of the
    engine's :func:`~repro.campaign.engine.drain`; :meth:`stats`
    reports the accumulated telemetry afterwards. Built from an
    :class:`~repro.resilience.ExecutionPolicy` by
    :meth:`~repro.resilience.ExecutionPolicy.make_supervisor`, and
    given its worker seed, width and journal by :meth:`bind`. The
    process pool itself starts at the first dispatch and is rebuilt
    there after a break.
    """

    def __init__(self, *, deadline: float | None = None,
                 heartbeat_interval: float = 5.0,
                 grace_factor: float = 2.0,
                 quarantine_after: int = 2,
                 max_pool_rebuilds: int = 5,
                 tracer: "TraceRecorder | None" = None) -> None:
        self.deadline = deadline
        self.heartbeat_interval = heartbeat_interval
        self.grace_factor = grace_factor
        self.quarantine_after = quarantine_after
        self.max_pool_rebuilds = max_pool_rebuilds
        self.tracer = tracer
        self.tick = min(0.25, max(0.02, heartbeat_interval / 2.0))
        self._deadline_kills = 0
        self._stale_kills = 0
        self._worker_crashes = 0
        self._pool_rebuilds = 0
        self._quarantined: list[str] = []
        self._corrupt_lines = 0
        # The run being supervised (see bind) and its live pool era.
        self._payload = b""
        self._journal: ShardedJournal | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._broke: BrokenProcessPool | None = None
        self._token = ""
        self._hb_dir: Path | None = None
        self._own_dir: str | None = None
        # Journal entries that predate the current era's dispatches.
        self._baseline: dict[str, JournalEntry] = {}
        # cell key -> worker crashes it survived unjournaled.
        self._crashes: dict[str, int] = {}
        # cell key -> (reason, elapsed) for this era's supervisor kills.
        self._killed: dict[str, tuple[str, float]] = {}
        # Keys whose submit failed on an already-broken pool.
        self._unsent: set[str] = set()

    def stats(self) -> SupervisionStats:
        return SupervisionStats(
            deadline_kills=self._deadline_kills,
            stale_kills=self._stale_kills,
            worker_crashes=self._worker_crashes,
            pool_rebuilds=self._pool_rebuilds,
            quarantined=tuple(self._quarantined),
            corrupt_lines=self._corrupt_lines,
            heartbeat_interval=self.heartbeat_interval,
            grace_factor=self.grace_factor,
            quarantine_after=self.quarantine_after,
            max_pool_rebuilds=self.max_pool_rebuilds,
        )

    def bind(self, payload: bytes, *, workers: int,
             journal: ShardedJournal | None) -> None:
        """Set the pickled :class:`~repro.campaign.process.WorkerSpec`
        every worker starts from, the pool width, and the journal the
        workers write (heartbeat files go beside its shards)."""
        self._payload = payload
        self.capacity = workers
        self._journal = journal

    # -- the pool hooks ------------------------------------------------
    def submit(self, index: int, cell: "CellSpec") -> Future:
        from repro.campaign.process import _execute_cell

        pool = self._live_pool()
        crashes = self._crashes.get(cell.key, 0)
        if crashes and self.tracer is not None:
            self.tracer.emit("isolate", key=cell.key, attempt=crashes)
        try:
            return pool.submit(_execute_cell, index, cell)
        except BrokenProcessPool as exc:
            self._unsent.add(cell.key)
            future: Future = Future()
            future.set_exception(exc)
            return future

    def eligible(self, queue: "list[tuple[int, CellSpec]]",
                 inflight: "dict[Future, tuple[int, CellSpec]]",
                 ) -> Sequence[int]:
        """Innocent cells fan out freely; a suspect (survived a pool
        break unjournaled) flies alone, so a second crash attributes
        to it unambiguously."""
        if any(self._crashes.get(cell.key)
               for _, cell in inflight.values()):
            return ()
        innocents = [p for p, (_, cell) in enumerate(queue)
                     if not self._crashes.get(cell.key)]
        if innocents or inflight:
            return innocents
        return range(len(queue))

    def broken(self, exc: BaseException) -> bool:
        if not isinstance(exc, BrokenProcessPool):
            return False
        if self._broke is None:
            self._broke = exc
        return True

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._hb_dir is not None:
            self._clear_heartbeats(self._hb_dir)
        if self._own_dir is not None:
            try:
                os.rmdir(self._own_dir)
            except OSError:
                pass
            self._own_dir = None

    def _live_pool(self) -> ProcessPoolExecutor:
        """The current era's pool; the first call of the run sets up
        the heartbeat directory, and the first after a break rebuilds."""
        if self._pool is not None:
            return self._pool
        from repro.campaign.process import _init_worker

        if self._hb_dir is None:
            if self._journal is not None:
                self._hb_dir = Path(self._journal.directory)
                self._hb_dir.mkdir(parents=True, exist_ok=True)
                self._baseline = self._journal.load()
                self._note_corrupt()
            else:
                self._own_dir = tempfile.mkdtemp(prefix="repro-hb-")
                self._hb_dir = Path(self._own_dir)
        if self._broke is not None:  # a previous era broke the pool
            self._pool_rebuilds += 1
            if self.tracer is not None:
                self.tracer.emit("pool-rebuild",
                                 attempt=self._pool_rebuilds)
            if self._pool_rebuilds > self.max_pool_rebuilds:
                raise self._broke
            self._broke = None
        self._token = uuid.uuid4().hex
        self._clear_heartbeats(self._hb_dir)
        self._pool = ProcessPoolExecutor(
            max_workers=self.capacity,
            initializer=_init_worker,
            initargs=(self._payload, str(self._hb_dir),
                      self.heartbeat_interval, self._token))
        return self._pool

    def patrol(self, inflight: "dict[Future, tuple[int, CellSpec]]",
               ) -> None:
        """One monitoring pass: kill workers past their budgets."""
        assert self._hb_dir is not None
        running = {cell.key for _, cell in inflight.values()}
        now = time.monotonic()
        stale_after = self.heartbeat_interval * self.grace_factor
        hard_deadline = (self.deadline * self.grace_factor
                         if self.deadline is not None else None)
        for beat in read_heartbeats(self._hb_dir, self._token):
            reason = None
            elapsed = 0.0
            if (hard_deadline is not None and beat.cell in running
                    and beat.cell_started is not None
                    and now - beat.cell_started > hard_deadline):
                reason = "deadline"
                elapsed = now - beat.cell_started
            elif now - beat.beat > stale_after:
                reason = "stale"
                if beat.cell_started is not None:
                    elapsed = now - beat.cell_started
            if reason is None:
                continue
            self._kill(beat.pid)
            if self.tracer is not None:
                self.tracer.emit("sigkill", key=beat.cell or "",
                                 status=reason, pid=beat.pid,
                                 elapsed=elapsed)
            if reason == "deadline":
                self._deadline_kills += 1
            else:
                self._stale_kills += 1
            if beat.cell is not None:
                self._killed[beat.cell] = (reason, elapsed)
            try:
                beat.path.unlink()
            except OSError:
                pass

    @staticmethod
    def _kill(pid: int) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    @staticmethod
    def _clear_heartbeats(hb_dir: Path) -> None:
        """Best-effort removal of heartbeat files from previous eras."""
        if not hb_dir.exists():
            return
        for path in hb_dir.iterdir():
            name = path.name
            if name.startswith(HEARTBEAT_PREFIX) and (
                    name.endswith(".json") or name.endswith(".tmp")):
                try:
                    path.unlink()
                except OSError:
                    pass

    def _note_corrupt(self) -> None:
        if self._journal is not None:
            self._corrupt_lines = max(self._corrupt_lines,
                                      self._journal.corrupt_lines)

    def recover(self, lost: "list[tuple[int, CellSpec]]",
                ) -> "list[tuple[int, CellSpec, CellResult | None]]":
        """Resolve every cell lost to a pool break.

        Journal-finished cells are restored (exactly-once: only
        entries *newer than the pre-run baseline* count as this run's
        work); deadline-killed cells finalize as
        ``DeadlineExceededError``; the rest accumulate crash counts
        and are requeued — or quarantined at ``quarantine_after``.
        Cells whose submit hit the already-broken pool never ran and
        are simply requeued. The next dispatch rebuilds the pool.
        """
        assert self._pool is not None
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        self._worker_crashes += 1
        fresh: dict[str, JournalEntry] = {}
        if self._journal is not None:
            fresh = self._journal.load()
            self._note_corrupt()

        resolved: list[tuple[int, CellSpec, CellResult | None]] = []
        for index, cell in sorted(lost, key=lambda item: item[0]):
            key = cell.key
            if key in self._unsent:
                resolved.append((index, cell, None))
                continue
            entry = fresh.get(key)
            if (entry is not None and entry.finished
                    and entry != self._baseline.get(key)):
                # Finished in the worker; only the result pipe died.
                self._baseline[key] = entry
                if self.tracer is not None:
                    self.tracer.emit("recovered", key=key,
                                     status=entry.status)
                resolved.append((index, cell, CellResult(
                    index=index, key=key, outcome=None, entry=entry,
                    resumed=True)))
                continue
            reason, elapsed = self._killed.get(key, (None, 0.0))
            if reason == "deadline":
                assert self.deadline is not None
                record = ErrorRecord.from_exception(
                    DeadlineExceededError(
                        f"worker SIGKILL'd: cell exceeded the hard "
                        f"{self.deadline * self.grace_factor:g}s "
                        f"wall-clock deadline "
                        f"(deadline={self.deadline:g}s x "
                        f"grace_factor={self.grace_factor:g})",
                        elapsed=elapsed,
                        deadline=self.deadline * self.grace_factor),
                    phase="supervise", transient=False)
                resolved.append((index, cell, self._finalize(
                    index, cell, record, attempts=1, elapsed=elapsed)))
                continue
            crashes = self._crashes.get(key, 0) + 1
            self._crashes[key] = crashes
            if self.tracer is not None:
                self.tracer.emit("worker-crash", key=key,
                                 attempt=crashes,
                                 reason=reason or "crash")
            if crashes < self.quarantine_after:
                resolved.append((index, cell, None))
                continue
            record = ErrorRecord.from_exception(
                QuarantinedError(
                    f"cell killed its worker process {crashes} "
                    f"time(s); quarantined to protect the grid",
                    crashes=crashes),
                phase="supervise", transient=False)
            if self.tracer is not None:
                self.tracer.emit("quarantine", key=key, attempt=crashes)
            resolved.append((index, cell, self._finalize(
                index, cell, record, attempts=crashes, elapsed=elapsed)))
            self._quarantined.append(key)
        self._killed.clear()
        self._unsent.clear()
        return resolved

    def _finalize(self, index: int, cell: "CellSpec",
                  record: ErrorRecord, *, attempts: int,
                  elapsed: float) -> CellResult:
        """Journal and trace a supervisor-issued final failure."""
        entry = JournalEntry(key=cell.key, status=STATUS_FAILED,
                             attempts=attempts, error=record)
        if self._journal is not None:
            self._journal.record(entry)
            self._baseline[cell.key] = entry
        outcome = CellOutcome(key=cell.key, status=STATUS_FAILED,
                              error=record, attempts=attempts,
                              elapsed=elapsed)
        if self.tracer is not None:
            self.tracer.emit("cell", key=cell.key, status=STATUS_FAILED,
                             attempt=attempts, duration=elapsed,
                             error=record.type)
        return CellResult(index=index, key=cell.key, outcome=outcome,
                          entry=entry, resumed=False)
