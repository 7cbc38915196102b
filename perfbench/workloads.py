"""The benchmark's three workloads and the checks on their outputs.

* ``paper-suite`` -- every experiment of :mod:`paper` through the public
  API, one worker, default policy, no journal, trace or cache.
* ``campaign-cold`` -- the 48-cell reference grid as one ``Campaign``,
  process dispatch on 2 supervised workers, sharded journal, trace on,
  and a fresh cache directory on every pass.
* ``campaign-warm`` -- the same grid and journal/trace settings on 2
  worker threads, replayed from a cache filled during set-up.
* ``campaign-heavy`` -- campaign-cold's settings on the heavy grid.

BENCHMARK.json lists paper-suite and campaign-heavy; ``run.py`` says why.

A pass is one closed-loop iteration: it starts when the previous one
ends. Everything a pass returns is checked afterwards, outside the
timed region, against the expected outcomes recorded in ``expected/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import (
    BOW_POD,
    BatchSweepResult,
    Campaign,
    CerebrasBackend,
    ExecutionPolicy,
    GPUBackend,
    GraphcoreBackend,
    PrecisionComparison,
    ReproError,
    SambaNovaBackend,
    ShardedJournal,
    Tier1Result,
    TrainConfig,
    gpt2_model,
)
from repro.common.errors import ErrorRecord
from repro.core import serialize
from repro.core.backend import CompileReport, RunReport
from repro.core.tier2 import ScalingPoint
from repro.observe import load_events, merged_trace_text, trace_shard_paths
from repro.workloads.sweeps import SweepSpec

import paper

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Campaign grids of GPT-2 small on all four backends: (layers,
#: batches, sequence length), full and smoke. The reference grid has 48
#: cheap cells, two of them Bow-2000 out-of-memory failures (L12/b16,
#: L12/b32). The heavy grid has 32 cells, 24/48 layers at seq 1024,
#: whose compile and simulation outweigh the harness; every Bow-2000
#: cell fails to fit. Each smoke grid keeps one expected failure.
GRIDS = {
    "reference": (((4, 8, 12), (4, 8, 16, 32), 512),
                  ((4, 12), (16,), 512)),
    "heavy": (((24, 48), (8, 16, 32, 64), 1024),
              ((24,), (8,), 1024)),
}

#: Canonical trace events whose presence depends on the cache state:
#: a cache hit replaces the compile and run spans.
CACHE_DEPENDENT_EVENTS = ('"name": "cache"', '"name": "compile"',
                          '"name": "run"')


# -- outcomes ----------------------------------------------------------
def _canonical(value: Any) -> Any:
    if isinstance(value, RunReport):
        flat = serialize.run_report_to_dict(value)
        flat["trace"] = ([(r.start, r.end, r.task, r.category, r.item)
                          for r in value.trace]
                         if value.trace is not None else None)
        return flat
    if isinstance(value, CompileReport):
        return serialize.compile_report_to_dict(value)
    if isinstance(value, Tier1Result):
        flat = serialize.tier1_to_dict(value)
        flat["run"] = _canonical(value.run)
        return flat
    if isinstance(value, ScalingPoint):
        return serialize.scaling_point_to_dict(value)
    if isinstance(value, BatchSweepResult):
        return serialize.batch_sweep_to_dict(value)
    if isinstance(value, PrecisionComparison):
        return serialize.precision_to_dict(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()
                if k != "traceback"}
    return value


def digest(*values: Any) -> str:
    """SHA-256 of every simulated statistic in ``values``."""
    text = json.dumps(_canonical(list(values)), sort_keys=True,
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def ok_outcome(*values: Any) -> dict[str, Any]:
    return {"status": "ok", "digest": digest(*values)}


def failed_outcome(record: ErrorRecord) -> dict[str, Any]:
    return {"status": "failed", "type": record.type,
            "message": record.message, "phase": record.phase}


def cell_outcome(cell: Any) -> dict[str, Any]:
    """The outcome of one campaign cell (a ``SweepCell``)."""
    return (failed_outcome(cell.failure) if cell.failed
            else ok_outcome(cell.compiled, cell.run))


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(directory: Path, name: str) -> dict[str, Any]:
    return json.loads((directory / f"{name}.json").read_text())


@dataclass
class PassResult:
    """One pass: its wall time, the gaps between consecutive results,
    and what the checks need."""

    wall: float
    gaps_ms: list[float]
    #: cell id -> outcome, in the layout of the expected file.
    outcomes: dict[str, Any]
    #: (name, passed) for every check beyond the cell outcomes.
    checks: list[tuple[str, bool]] = field(default_factory=list)
    #: Cells that raised something other than a ReproError.
    harness_errors: int = 0
    first_result_s: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)


def compare(expected: dict[str, Any], actual: dict[str, Any]
            ) -> tuple[int, list[str]]:
    """How many cells were compared (expected or produced), and the ids
    of those whose outcome differs from the expected one."""
    keys = expected.keys() | actual.keys()
    return len(keys), sorted(key for key in keys
                             if expected.get(key) != actual.get(key))


def make_backends() -> dict[str, Any]:
    return {
        "cerebras": CerebrasBackend(),
        "sambanova": SambaNovaBackend(),
        "graphcore": GraphcoreBackend(),
        "graphcore_pod": GraphcoreBackend(BOW_POD),
        "gpu": GPUBackend(),
    }


# -- paper-suite -------------------------------------------------------
class Recorder:
    """Makes each direct API call of a pass and keeps its outcome."""

    def __init__(self) -> None:
        self.experiment = ""
        self.outcomes: dict[str, dict[str, Any]] = {}
        self.values: dict[str, dict[str, Any]] = {}
        self.stamps: list[float] = []
        self.harness_errors = 0

    def call(self, cell: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
        values = self.values.setdefault(self.experiment, {})
        outcomes = self.outcomes.setdefault(self.experiment, {})
        try:
            value = fn(*args, **kwargs)
        except ReproError as exc:
            self.stamps.append(time.perf_counter())
            outcomes[cell] = failed_outcome(ErrorRecord.from_exception(exc))
            return None
        except Exception as exc:  # a harness error: record and go on
            self.stamps.append(time.perf_counter())
            self.harness_errors += 1
            outcomes[cell] = {"status": "error",
                              "type": type(exc).__name__,
                              "message": str(exc)}
            raise
        self.stamps.append(time.perf_counter())
        values[cell] = value
        return value


class PaperSuite:
    name = "paper-suite"

    def __init__(self, workdir: Path, smoke: bool,
                 expected_dir: Path) -> None:
        self.experiments = (paper.SMOKE_EXPERIMENTS if smoke
                            else tuple(paper.EXPERIMENTS))
        self.expected_dir = expected_dir
        self.backends: dict[str, Any] = {}

    def setup(self) -> None:
        self.backends = make_backends()

    def references(self) -> None:
        self.expected = load_expected(self.expected_dir, self.name)

    def run_pass(self, rng: Any) -> PassResult:
        order = list(self.experiments)
        rng.shuffle(order)
        rec = Recorder()
        checks: dict[str, list[paper.Check]] = {}
        start = time.perf_counter()
        for name in order:
            rec.experiment = name
            try:
                checks[name] = paper.EXPERIMENTS[name](self.backends, rec)
            except Exception as exc:  # a harness error fails the pass
                checks[name] = [(f"{name}: raised {exc!r}", lambda: False)]
        wall = time.perf_counter() - start
        # Digests happen here, outside the timed region.
        outcomes = {name: dict(rec.outcomes.get(name, {})) for name in order}
        for name, values in rec.values.items():
            for cell, value in values.items():
                outcomes[name][cell] = ok_outcome(value)
        results = []
        for name in order:
            for label, predicate in checks[name]:
                try:
                    passed = bool(predicate())
                except Exception:  # a result too broken to check
                    passed = False
                results.append((label, passed))
        return PassResult(wall=wall, gaps_ms=_gaps(rec.stamps),
                          outcomes=outcomes, checks=results,
                          harness_errors=rec.harness_errors)

    def verify(self, result: PassResult) -> tuple[int, list[str]]:
        expected = self.expected["experiments"]
        compared, mismatches = 0, []
        for name in self.experiments:
            count, differ = compare(expected.get(name, {}),
                                    result.outcomes.get(name, {}))
            compared += count
            mismatches += [f"{name}/{cell}" for cell in differ]
        return compared, mismatches

    def cells(self, result: PassResult) -> int:
        return sum(len(v) for v in result.outcomes.values())

    def end_pass(self, result: PassResult, traced: bool
                 ) -> dict[str, float]:
        return {}


def _gaps(stamps: list[float]) -> list[float]:
    """Milliseconds between consecutive results of one pass. The wait
    for the first result (pool start-up on process dispatch) is not a
    gap between results; the traced run reports it as
    ``campaign.first_result_s``."""
    return [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]


# -- campaigns -----------------------------------------------------------
def grid_specs(grid: str, smoke: bool) -> list[SweepSpec]:
    layers, batches, seq = GRIDS[grid][smoke]
    small = gpt2_model("small")
    return [SweepSpec(f"L{n}/b{b}", small.with_layers(n),
                      TrainConfig(batch_size=b, seq_len=seq))
            for n in layers for b in batches]


def strip_cache_events(text: str) -> str:
    return "".join(line + "\n" for line in text.splitlines()
                   if not any(e in line for e in CACHE_DEPENDENT_EVENTS))


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*")
               if p.is_file())


class CampaignWorkload:
    """One grid as one campaign; ``cold`` picks the variant."""

    def __init__(self, name: str, workdir: Path, smoke: bool,
                 expected_dir: Path, cold: bool, grid: str) -> None:
        self.name = name
        self.cold = cold
        self.grid = grid
        self.smoke = smoke
        self.workdir = workdir
        self.expected_dir = expected_dir
        self.specs = grid_specs(grid, smoke)
        self.lanes: list[Any] = []
        self.passes = 0
        self.refs: dict[str, str] = {}

    def _run(self, tag: str, dispatch: str, workers: int, cache: Path,
             lanes: list[Any] | None = None, on_cell: Any = None
             ) -> tuple[Any, ShardedJournal]:
        journal = ShardedJournal(self.workdir / tag)
        policy = ExecutionPolicy(dispatch=dispatch, max_workers=workers,
                                 journal=journal, trace=True, cache=cache)
        result = Campaign(lanes or self.lanes, policy).run(on_cell)
        return result, journal

    def _texts(self, journal: ShardedJournal) -> tuple[str, str]:
        return (journal.merged_text(),
                merged_trace_text(load_events(journal.directory)))

    @staticmethod
    def _worker_stage_consults(events: list[Any]) -> dict[str, float]:
        """Stage-memo hits and misses that worker processes traced."""
        mine = f"-{os.getpid()}-"
        counts = {"worker_stage_hits": 0.0, "worker_stage_misses": 0.0}
        for event in events:
            if event.name == "stage_cache" and mine not in event.writer:
                key = ("worker_stage_hits" if event.status == "hit"
                       else "worker_stage_misses")
                counts[key] += 1
        return counts

    def setup(self) -> None:
        backends = make_backends()
        self.lanes = [(backends[name], list(self.specs))
                      for name in ("cerebras", "sambanova", "graphcore",
                                   "gpu")]
        if not self.cold:
            # The one-worker reference run fills the warm cache.
            self.reference_cold(self.workdir / "cache")

    def reference_cold(self, cache: Path) -> Any:
        """One-worker thread run on an empty cache; keeps its texts."""
        result, journal = self._run("ref-cold", "thread", 1, cache)
        self.refs["journal"], self.refs["trace_cold"] = self._texts(journal)
        return result

    def reference_warm(self, cache: Path) -> None:
        """One-worker thread replay of the cache ``reference_cold``
        filled; keeps its texts."""
        _, journal = self._run("ref-warm", "thread", 1, cache)
        self.refs["journal_warm"], self.refs["trace_warm"] = (
            self._texts(journal))

    def references(self) -> None:
        """The one-worker runs every pass must match, and the checks
        of those runs against the recorded texts."""
        cache = self.workdir / "cache"
        if self.cold:
            self.reference_cold(cache)
        self.reference_warm(cache)
        self.expected = load_expected(self.expected_dir,
                                      "campaign")[self.grid]
        recorded = self.expected["texts"]["smoke" if self.smoke else "full"]
        keys = {f"{backend.name}::{spec.label}"
                for backend, specs in self.lanes for spec in specs}
        self.expected_cells = {k: v for k, v
                               in self.expected["cells"].items()
                               if k in keys}
        self.ref_checks = [
            ("one-worker journal equals the recorded one",
             text_digest(self.refs["journal"]) == recorded["journal"]),
            ("one-worker warm journal equals the cold one",
             self.refs["journal_warm"] == self.refs["journal"]),
            ("one-worker cold trace equals the recorded one",
             text_digest(self.refs["trace_cold"])
             == recorded["trace_cold"]),
            ("one-worker warm trace equals the recorded one",
             text_digest(self.refs["trace_warm"])
             == recorded["trace_warm"]),
            ("cold and warm traces agree outside cache events",
             strip_cache_events(self.refs["trace_cold"])
             == strip_cache_events(self.refs["trace_warm"])),
        ]

    def run_pass(self, rng: Any) -> PassResult:
        self.passes += 1
        tag = f"pass-{self.passes}"
        lanes = []
        for backend, specs in self.lanes:
            order = list(specs)
            rng.shuffle(order)
            lanes.append((backend, order))
        cells: dict[str, Any] = {}
        stamps: list[float] = []

        def on_cell(label: str, cell: Any) -> None:
            stamps.append(time.perf_counter())
            cells[f"{label}::{cell.spec.label}"] = cell

        cache = (self.workdir / tag / "cache" if self.cold
                 else self.workdir / "cache")
        dispatch = "process" if self.cold else "thread"
        start = time.perf_counter()
        try:
            result, journal = self._run(tag, dispatch, 2, cache, lanes,
                                        on_cell)
            result.report().render()
            serialize.campaign_to_dict(result)
        except Exception as exc:  # a harness error: every cell fails
            return PassResult(
                wall=time.perf_counter() - start,
                gaps_ms=_gaps(stamps), outcomes={},
                checks=[(f"campaign raised {exc!r}", False)],
                harness_errors=1,
                info={"dir": self.workdir / tag})
        wall = time.perf_counter() - start

        outcomes = {key: cell_outcome(cell) for key, cell in cells.items()}
        events = load_events(journal.directory)
        journal_text = journal.merged_text()
        trace_text = merged_trace_text(events)
        same_state = self.refs["trace_cold" if self.cold else "trace_warm"]
        other_state = self.refs["trace_warm" if self.cold else "trace_cold"]
        checks = list(self.ref_checks) if self.passes == 1 else []
        checks += [
            ("merged journal equals the one-worker run",
             journal_text == self.refs["journal"]),
            ("merged trace equals the one-worker run",
             trace_text == same_state),
            ("merged trace equals the other cache state outside cache "
             "events", strip_cache_events(trace_text)
             == strip_cache_events(other_state)),
            ("no worker kills, pool rebuilds or retries",
             _kills(result) == 0 and _rebuilds(result) == 0
             and _retries(result) == 0),
        ]
        return PassResult(
            wall=wall, gaps_ms=_gaps(stamps), outcomes=outcomes,
            checks=checks,
            first_result_s=stamps[0] - start if stamps else 0.0,
            info={"result": result, "journal": journal, "cache": cache,
                  "dir": self.workdir / tag,
                  "stages": self._worker_stage_consults(events)})

    def verify(self, result: PassResult) -> tuple[int, list[str]]:
        return compare(self.expected_cells, result.outcomes)

    def cells(self, result: PassResult) -> int:
        return len(result.outcomes)

    def end_pass(self, result: PassResult, traced: bool
                 ) -> dict[str, float]:
        """Per-layer numbers of a traced pass; then its directories go."""
        info = result.info
        if not traced or "journal" not in info:
            shutil.rmtree(info["dir"], ignore_errors=True)
            return {}
        journal = info["journal"]
        run = info["result"]
        numbers = {
            "cache_disk_mb": dir_bytes(info["cache"]) / 1e6,
            "journal_bytes": float(sum(p.stat().st_size
                                       for p in journal.shard_paths())),
            "trace_bytes": float(sum(
                p.stat().st_size
                for p in trace_shard_paths(journal.directory))),
            "worker_kills": float(_kills(run)),
            "pool_rebuilds": float(_rebuilds(run)),
            "retries": float(_retries(run)),
            **info["stages"],
        }
        shutil.rmtree(info["dir"], ignore_errors=True)
        return numbers


def _kills(result: Any) -> int:
    sup = result.supervision
    return sup.deadline_kills + sup.stale_kills if sup else 0


def _rebuilds(result: Any) -> int:
    return result.supervision.pool_rebuilds if result.supervision else 0


def _retries(result: Any) -> int:
    return sum(stats.retries for stats in result.stats.values())


WORKLOADS = {
    "paper-suite": lambda workdir, smoke, expected: PaperSuite(
        workdir, smoke, expected),
    "campaign-heavy": lambda workdir, smoke, expected: CampaignWorkload(
        "campaign-heavy", workdir, smoke, expected, cold=True,
        grid="heavy"),
    "campaign-cold": lambda workdir, smoke, expected: CampaignWorkload(
        "campaign-cold", workdir, smoke, expected, cold=True,
        grid="reference"),
    "campaign-warm": lambda workdir, smoke, expected: CampaignWorkload(
        "campaign-warm", workdir, smoke, expected, cold=False,
        grid="reference"),
}
