"""Execution traces: what ran where, and for how long.

Platform runtimes append one row per completed unit of work; the
framework's Tier-1 profiler then derives busy time, per-task throughput,
and utilization from the trace — the "runtime information" category of
paper Sec. IV-D(b).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterator, NamedTuple


class _Fields(NamedTuple):
    start: float
    end: float
    task: str
    category: str
    item: int
    meta: dict[str, Any]


class TraceRecord(_Fields):
    """One completed unit of work.

    Attributes:
        start / end: simulation timestamps (seconds).
        task: logical task name (kernel, section, or pipeline stage).
        category: coarse grouping (``compute``, ``transfer``, ``host``).
        item: which work item (micro-batch index, section invocation).
        meta: free-form annotations (flops, bytes, device).

    A record is an immutable tuple, so a trace of hundreds of thousands
    of rows iterates cheaply. Equality and hashing cover every field but
    ``meta``, a record never equals a plain tuple, and records are not
    ordered.
    """

    __slots__ = ()

    def __new__(cls, start: float, end: float, task: str,
                category: str = "compute", item: int = 0,
                meta: dict[str, Any] | None = None) -> "TraceRecord":
        return tuple.__new__(cls, (start, end, task, category, item,
                                   {} if meta is None else meta))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceRecord):
            return self[:5] == other[:5]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self[:5])

    def _unordered(self, other: object) -> bool:
        raise TypeError("trace records are not ordered; sort them by a "
                        "key such as their start")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """An append-only trace with aggregate queries.

    Records are stored as plain row tuples ``(start, end, task,
    category, item, meta)`` -- a simulator appends hundreds of thousands
    of them per run, and most are only ever aggregated. Iteration and
    :attr:`records` build :class:`TraceRecord` tuples when read.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[float, float, str, str, int,
                               dict[str, Any] | None]] = []

    def append(self, start: float, end: float, task: str,
               category: str = "compute", item: int = 0,
               meta: dict[str, Any] | None = None) -> None:
        """Append one row; the runtimes' hot path."""
        if end < start:
            raise ValueError(
                f"trace record for {task!r} ends before it starts")
        self._rows.append((start, end, task, category, item, meta or None))

    def add(self, record: TraceRecord) -> None:
        self.append(record.start, record.end, record.task, record.category,
                    record.item, record.meta)

    def record(self, start: float, end: float, task: str,
               category: str = "compute", item: int = 0,
               **meta: Any) -> TraceRecord:
        """Convenience constructor + append."""
        rec = TraceRecord(start=start, end=end, task=task,
                          category=category, item=item, meta=meta)
        self.add(rec)
        return rec

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        # Rows are already in field order: skip TraceRecord.__new__.
        new = tuple.__new__
        for start, end, task, category, item, meta in self._rows:
            yield new(TraceRecord, (start, end, task, category, item,
                                    {} if meta is None else meta))

    @property
    def records(self) -> list[TraceRecord]:
        return list(self)

    @property
    def makespan(self) -> float:
        """End of the last record minus start of the first."""
        rows = self._rows
        if not rows:
            return 0.0
        return max(r[1] for r in rows) - min(r[0] for r in rows)

    def busy_time_by_task(self) -> dict[str, float]:
        """Summed record durations per task (overlap not collapsed)."""
        totals: dict[str, float] = defaultdict(float)
        for start, end, task, _category, _item, _meta in self._rows:
            totals[task] += end - start
        return dict(totals)

    def busy_time_by_category(self) -> dict[str, float]:
        """Summed record durations per category."""
        totals: dict[str, float] = defaultdict(float)
        for start, end, _task, category, _item, _meta in self._rows:
            totals[category] += end - start
        return dict(totals)

    def items_by_task(self) -> dict[str, int]:
        """Completed item count per task."""
        counts: dict[str, int] = defaultdict(int)
        for row in self._rows:
            counts[row[2]] += 1
        return dict(counts)

    def task_throughputs(self) -> dict[str, float]:
        """Items per second each task completed over its active span.

        One pass over the rows; a task whose span is zero reports
        ``inf``.
        """
        spans: dict[str, list[Any]] = {}
        for start, end, task, _category, _item, _meta in self._rows:
            span = spans.get(task)
            if span is None:
                spans[task] = [1, start, end]
            else:
                span[0] += 1
                if start < span[1]:
                    span[1] = start
                if end > span[2]:
                    span[2] = end
        return {task: float("inf") if last - first <= 0
                else count / (last - first)
                for task, (count, first, last) in spans.items()}

    def task_throughput(self, task: str) -> float:
        """Items per second completed by ``task`` over its active span
        (0.0 for a task with no records)."""
        return self.task_throughputs().get(task, 0.0)

    def filter(self, category: str | None = None,
               task: str | None = None) -> "Trace":
        """A new trace containing only matching records."""
        out = Trace()
        out._rows = [row for row in self._rows
                     if (category is None or row[3] == category)
                     and (task is None or row[2] == task)]
        return out
