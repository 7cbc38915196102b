"""Per-layer spans for the traced run, recorded from outside ``src/``.

:class:`LayerTracer` replaces the public entry points of each layer --
backend ``compile``/``run``, the compile-stage functions, the compile
cache, the journal, the trace recorder, the campaign and the analyzers
-- with wrappers that record one span per call, and puts the originals
back on :meth:`LayerTracer.uninstall`. Spans stay in memory.

Campaign worker processes are forked from the traced process (the
default start method of the process pool on Linux), so they inherit
the wrappers. A span that ends in another process is appended to
``spans-<pid>.jsonl`` in the spill directory, because the worker's
memory is gone when it exits; :meth:`LayerTracer.collect` reads those
files back. If the pool ever starts workers another way, no spill files
appear and the worker-side numbers are reported as not available.

Self time of a span is its duration minus the part of its interval
that its child spans cover. A span opened on a pool thread or in a
worker process has no parent on its own stack; it is attributed to the
root span (``campaign.run`` or an analyzer call) whose interval
contains it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

#: Backend class name -> platform label used in metric names.
PLATFORMS = {
    "CerebrasBackend": "cerebras",
    "SambaNovaBackend": "sambanova",
    "GraphcoreBackend": "graphcore",
    "GPUBackend": "gpu",
}

#: Stages each platform's ``compile_pipeline()`` exposes.
STAGES = {
    "cerebras": ("graph", "partition", "placement", "report"),
    "sambanova": ("graph", "partition", "report"),
    "graphcore": ("partition", "placement", "report"),
    "gpu": ("partition", "report"),
}

#: Root layers: spans of other threads and processes that fall inside
#: one of these are its children.
ROOTS = ("campaign.run", "analysis.tier1", "analysis.scaling",
         "analysis.deploy")


@dataclass
class Span:
    name: str
    start: float
    end: float
    id: int
    parent: int | None
    error: bool = False
    extra: dict[str, Any] = field(default_factory=dict)
    worker: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class LayerTracer:
    """Wraps layer entry points and keeps their spans."""

    def __init__(self, spill_dir: Path) -> None:
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans: list[Span] = []
        self.memos: list[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spill: Any = None
        self._spill_pid = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------
    def _stack(self) -> list[int]:
        if os.getpid() != self._spill_pid and os.getpid() != self.pid:
            # First span in a forked worker: its copy of the parent's
            # stacks and spans is meaningless here.
            self._local = threading.local()
            self._spill_pid = os.getpid()
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            self._spill = open(self.spill_dir / f"spans-{os.getpid()}.jsonl",
                               "a", encoding="utf-8")
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., Any], args: tuple,
             kwargs: dict, note: Callable[[Any], dict] | None = None
             ) -> Any:
        stack = self._stack()
        span_id = next(self._ids) + (os.getpid() << 32)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        error, extra = False, {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            error = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if not error and note is not None:
                extra = note(result)
            span = Span(name, start, end, span_id, parent, error, extra)
            if os.getpid() == self.pid:
                self.spans.append(span)
            else:
                self._spill.write(json.dumps(
                    [name, start, end, span_id, parent, error, extra])
                    + "\n")
                self._spill.flush()
        return result

    # -- installing wrappers -----------------------------------------
    def _patch(self, owner: Any, attr: str,
               make: Callable[[Any], Callable[..., Any]]) -> None:
        original = owner.__dict__[attr]
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str,
                      note: Callable[[Any], dict] | None = None
                      ) -> Callable[[Any], Callable[..., Any]]:
        def make(original: Any) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return self.call(name, original, args, kwargs, note)
            return wrapper
        return make

    def install(self) -> None:
        import repro.campaign.engine as engine
        import repro.core.serialize as serialize
        import repro.core.stages as stages
        from repro import (
            CerebrasBackend,
            DeploymentOptimizer,
            GPUBackend,
            GraphcoreBackend,
            SambaNovaBackend,
            ScalabilityAnalyzer,
            Tier1Profiler,
        )
        from repro.cache import CompileCache, StageMemo
        from repro.campaign import Campaign
        from repro.core.report import BenchmarkReport
        from repro.observe import TraceRecorder
        from repro.resilience import ShardedJournal

        def records(run: Any) -> dict:
            trace = getattr(run, "trace", None)
            return {"records": len(trace) if trace is not None else 0}

        for cls in (CerebrasBackend, SambaNovaBackend, GraphcoreBackend,
                    GPUBackend):
            platform = PLATFORMS[cls.__name__]
            self._patch(cls, "compile",
                        self._span_wrapper(f"compile.{platform}"))
            self._patch(cls, "run",
                        self._span_wrapper(f"run.{platform}", records))
            # The method that builds the stage list on both the plain
            # compile() path and the memoized campaign path.
            builder = ("compile_stages" if cls is GPUBackend
                       else "compile_pipeline")
            self._patch(cls, builder, self._pipeline_wrapper(platform))

        def run_stages_wrapper(original: Any) -> Callable[..., Any]:
            def wrapper(pipeline: Any, *args: Any, **kwargs: Any) -> Any:
                pipeline = list(pipeline)
                platform = getattr(pipeline[0].compute, "platform",
                                   "other") if pipeline else "other"
                return self.call(f"compile.{platform}", original,
                                 (pipeline, *args), kwargs)
            return wrapper

        # The thread engine bound run_stages at import; the process
        # worker imports it from repro.core.stages at call time.
        self._patch(engine, "run_stages", run_stages_wrapper)
        self._patch(stages, "run_stages", run_stages_wrapper)

        self._patch(CompileCache, "lookup", self._span_wrapper(
            "cache.lookup", lambda entry: {"hit": entry is not None}))
        self._patch(CompileCache, "store",
                    self._span_wrapper("cache.store"))
        self._patch(CompileCache, "stage_lookup",
                    self._span_wrapper("cache.stage_lookup"))
        self._patch(CompileCache, "stage_store",
                    self._span_wrapper("cache.stage_store"))
        self._patch(CompileCache, "prune",
                    self._span_wrapper("cache.prune"))
        self._patch(ShardedJournal, "record",
                    self._span_wrapper("journal.record"))
        self._patch(TraceRecorder, "emit",
                    self._span_wrapper("observe.emit"))
        self._patch(Campaign, "run", self._span_wrapper("campaign.run"))
        self._patch(BenchmarkReport, "render",
                    self._span_wrapper("core.report"))
        self._patch(serialize, "campaign_to_dict",
                    self._span_wrapper("core.report"))
        for method in ("profile", "sweep_layers", "sweep_hidden",
                       "max_feasible"):
            self._patch(Tier1Profiler, method,
                        self._span_wrapper("analysis.tier1"))
        self._patch(ScalabilityAnalyzer, "sweep",
                    self._span_wrapper("analysis.scaling"))
        for method in ("batch_sweep", "compare_precision"):
            self._patch(DeploymentOptimizer, method,
                        self._span_wrapper("analysis.deploy"))

        def memo_init(original: Any) -> Callable[..., Any]:
            def wrapper(memo: Any, *args: Any, **kwargs: Any) -> None:
                original(memo, *args, **kwargs)
                if os.getpid() == self.pid:
                    self.memos.append(memo)
            return wrapper

        self._patch(StageMemo, "__init__", memo_init)

    def _pipeline_wrapper(self, platform: str
                          ) -> Callable[[Any], Callable[..., Any]]:
        def make(original: Any) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return [replace(stage, compute=self._stage(
                    platform, stage.name, stage.compute))
                    for stage in original(*args, **kwargs)]
            return wrapper
        return make

    def _stage(self, platform: str, stage: str,
               compute: Callable[[Any], Any]) -> Callable[[Any], Any]:
        name = f"compile.{platform}.{stage}"

        def timed(upstream: Any) -> Any:
            return self.call(name, compute, (upstream,), {})
        timed.platform = platform  # type: ignore[attr-defined]
        return timed

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading back ------------------------------------------------
    def collect(self) -> tuple[list[Span], bool]:
        """Every span recorded so far, worker spans included, and
        whether any worker process spilled spans. Clears the buffers."""
        spans, self.spans = self.spans, []
        spilled = False
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spilled = True
            for line in path.read_text(encoding="utf-8").splitlines():
                try:
                    name, start, end, sid, parent, error, extra = (
                        json.loads(line))
                except ValueError:  # a worker killed mid-line
                    continue
                spans.append(Span(name, start, end, sid, parent, error,
                                  extra, worker=True))
            path.unlink()
        return spans, spilled


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time, after attributing orphans to roots."""
    roots = [s for s in spans if s.name in ROOTS and s.parent is None
             and not s.worker]
    for span in spans:
        if span.parent is None and span.name not in ROOTS:
            for root in roots:
                if root.start <= span.start and span.end <= root.end:
                    span.parent = root.id
                    break
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {s.id: s.duration - _covered(children.get(s.id, []), s.start,
                                        s.end)
            for s in spans}
