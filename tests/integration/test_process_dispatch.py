"""Process-dispatch acceptance: every PR 2/3 invariant, across
processes.

The contract: ``dispatch="process"`` changes *where* cells execute and
nothing else. Results stay spec-ordered and report-identical to a
sequential run (traces compare by record), the canonical merged
journal is byte-identical, resume is exactly-once across dispatch
modes in both directions, and a harness error in a worker cancels the
campaign while journaled work survives.
"""

import dataclasses

import pytest

from repro.campaign import Campaign
from repro.common.errors import ReproError
from repro.core.report import GRID_HEADERS, BenchmarkReport, sweep_cell_row
from repro.models.config import TrainConfig, gpt2_model
from repro.observe import load_events, merged_trace_text
from repro.resilience import (
    ExecutionPolicy,
    FaultInjectingBackend,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ShardedJournal,
    compiler_flake,
)
from repro.workloads.reference import CpuBoundBackend
from repro.workloads.sweeps import SweepSpec, run_grid


def grid(layers=(2, 3, 4, 5)):
    return [SweepSpec(f"L{n}", gpt2_model("mini").with_layers(n),
                      TrainConfig(batch_size=4, seq_len=64))
            for n in layers]


def fast_backend():
    return CpuBoundBackend(spins_per_layer=10)


def runs_equal(a, b):
    """Run reports equal up to the identity-compared trace object."""
    if (a is None) != (b is None):
        return False
    if a is None:
        return True
    if dataclasses.replace(a, trace=None) != dataclasses.replace(
            b, trace=None):
        return False
    ta = a.trace.records if a.trace is not None else None
    tb = b.trace.records if b.trace is not None else None
    return ta == tb


class KillError(RuntimeError):
    """A harness bug (not a ReproError) injected into one cell."""


class KillBackend(CpuBoundBackend):
    """Raises a harness error when compiling ``kill_layers`` layers."""

    def __init__(self, kill_layers):
        super().__init__(spins_per_layer=10)
        self.kill_layers = kill_layers

    def compile(self, model, train, **options):
        if model.n_layers == self.kill_layers:
            raise KillError(f"harness bug at L{model.n_layers}")
        return super().compile(model, train, **options)


def paper_grid():
    """GPT-2 small at L4/L12 x b16, seq 512: on Bow-2000 the L12 cell
    is the paper's expected out-of-memory failure."""
    return [SweepSpec(f"L{n}/b16", gpt2_model("small").with_layers(n),
                      TrainConfig(batch_size=16, seq_len=512))
            for n in (4, 12)]


def grid_tables(result):
    """The campaign report's per-lane result tables, rendered."""
    report = BenchmarkReport("Campaign")
    for label in result.labels:
        report.add_table(f"Grid on {label}", GRID_HEADERS,
                         [sweep_cell_row(c) for c in result.cells[label]])
    return report.render()


class TestProcessMatchesSequential:
    @pytest.mark.parametrize("schedule",
                             ["lane-major", "longest-first"])
    def test_multibackend_campaign_invariants(self, tmp_path, schedule):
        from repro import (
            CerebrasBackend,
            GPUBackend,
            GraphcoreBackend,
            SambaNovaBackend,
        )

        specs = paper_grid()
        lanes = lambda: [(CerebrasBackend(), specs),  # noqa: E731
                         (SambaNovaBackend(), specs),
                         (GraphcoreBackend(), specs),
                         (GPUBackend(), specs)]
        process = Campaign(lanes(), ExecutionPolicy(
            max_workers=2, dispatch="process", schedule=schedule,
            journal=ShardedJournal(tmp_path / "proc"),
            trace=True)).run()
        sequential = Campaign(lanes(), ExecutionPolicy(
            max_workers=1, schedule=schedule,
            journal=ShardedJournal(tmp_path / "seq"),
            trace=True)).run()

        assert process.labels == sequential.labels
        for label in process.labels:
            got = process.cells[label]
            want = sequential.cells[label]
            assert [c.spec.label for c in got] == \
                [c.spec.label for c in want]  # spec order
            for a, b in zip(got, want):
                assert a.compiled == b.compiled
                assert runs_equal(a.run, b.run)
        assert (ShardedJournal(tmp_path / "proc").merged_text()
                == ShardedJournal(tmp_path / "seq").merged_text())
        assert process.scheduling.dispatch == "process"
        assert process.scheduling.cells == process.total_cells
        assert process.scheduling.actual_seconds > 0
        # Every lane of the paper's platforms, one expected Bow-2000
        # out-of-memory cell, and byte-identical report and trace.
        failed = {f"{label}::{c.spec.label}": c.failure.type
                  for label in process.labels
                  for c in process.cells[label] if c.failed}
        assert failed == {"Bow-2000::L12/b16": "OutOfMemoryError"}
        assert grid_tables(process) == grid_tables(sequential)
        trace = merged_trace_text(load_events(tmp_path / "proc"))
        assert trace
        assert trace == merged_trace_text(load_events(tmp_path / "seq"))

    def test_on_cell_fires_exactly_once_per_cell(self, tmp_path):
        specs = grid()
        seen = []
        Campaign([(fast_backend(), specs)], ExecutionPolicy(
            max_workers=2, dispatch="process",
            journal=ShardedJournal(tmp_path))).run(
            on_cell=lambda label, cell: seen.append(cell.spec.label))
        assert sorted(seen) == sorted(s.label for s in specs)

    def test_retries_happen_inside_the_worker(self, tmp_path,
                                              no_backoff_sleep):
        # The retry backoff would really sleep (~3 s); the forked
        # workers inherit the stub.
        plan = FaultPlan(specs=[FaultSpec(fault=compiler_flake,
                                          match="L3", attempts=(0,))])
        backend = FaultInjectingBackend(fast_backend(), plan)
        cells = run_grid(backend, grid(), policy=ExecutionPolicy(
            retry=RetryPolicy(max_retries=2), max_workers=2,
            dispatch="process"))
        by_label = {c.spec.label: c for c in cells}
        assert not by_label["L3"].failed
        # same attempt accounting as thread dispatch: the faulted
        # compile, its retry, and the run
        assert by_label["L3"].attempts == 3
        assert by_label["L2"].attempts == 1


class TestResumeAcrossDispatchModes:
    def test_thread_run_resumes_under_process_and_back(self, tmp_path):
        specs = grid()
        journal = ShardedJournal(tmp_path)
        # first half sequentially, on threads
        run_grid(fast_backend(), specs[:2], policy=ExecutionPolicy(
            journal=journal))
        # finish under process dispatch: the first half must be skipped
        counter = FaultInjectingBackend(fast_backend())
        cells = run_grid(counter, specs, policy=ExecutionPolicy(
            journal=journal, resume=True, max_workers=2,
            dispatch="process"))
        assert [c.resumed for c in cells] == [True, True, False, False]
        # the parent-side counter proves nothing ran locally; the
        # journal proves exactly the missing cells ran in workers
        assert counter.calls["compile"] == 0
        assert set(journal.finished_keys()) == {s.label for s in specs}
        # and a thread resume of the process-written journal skips all
        counter2 = FaultInjectingBackend(fast_backend())
        again = run_grid(counter2, specs, policy=ExecutionPolicy(
            journal=journal, resume=True))
        assert all(c.resumed for c in again)
        assert counter2.calls["compile"] == 0

    def test_harness_error_cancels_but_journaled_work_survives(
            self, tmp_path):
        journal = ShardedJournal(tmp_path)
        with pytest.raises(KillError):
            run_grid(KillBackend(kill_layers=5), grid(),
                     policy=ExecutionPolicy(journal=journal,
                                            max_workers=2,
                                            dispatch="process"))
        finished = journal.finished_keys()
        assert "L5" not in finished  # the killed cell never journaled
        assert finished  # but completed cells reached disk
        # resume completes the grid, re-executing only what's missing
        cells = run_grid(fast_backend(), grid(), policy=ExecutionPolicy(
            journal=journal, resume=True, max_workers=2,
            dispatch="process"))
        assert all(not c.failed for c in cells)
        assert sum(c.resumed for c in cells) == len(finished)

    def test_retry_failed_reexecutes_failures_only(self, tmp_path):
        journal = ShardedJournal(tmp_path)
        plan = FaultPlan(specs=[FaultSpec(fault=compiler_flake,
                                          match="L4", attempts=None)])
        cells = run_grid(FaultInjectingBackend(fast_backend(), plan),
                         grid(), policy=ExecutionPolicy(
                             journal=journal, max_workers=2,
                             dispatch="process"))
        assert sum(c.failed for c in cells) == 1
        healed = run_grid(fast_backend(), grid(),
                          policy=ExecutionPolicy(
                              journal=journal, resume=True,
                              retry_failed=True, max_workers=2,
                              dispatch="process"))
        assert all(not c.failed for c in healed)
        assert sum(c.resumed for c in healed) == 3


class TestWorkerFaultTaxonomy:
    def test_repro_errors_stay_results_not_crashes(self, tmp_path):
        plan = FaultPlan(specs=[FaultSpec(fault=compiler_flake,
                                          match="L2", attempts=None)])
        cells = run_grid(FaultInjectingBackend(fast_backend(), plan),
                         grid(), policy=ExecutionPolicy(
                             max_workers=2, dispatch="process"))
        by_label = {c.spec.label: c for c in cells}
        assert by_label["L2"].failed
        assert isinstance(by_label["L2"].failure.type, str)
        assert not by_label["L3"].failed
        # ReproError subclasses defined across the codebase must
        # pickle home intact inside the ErrorRecord
        assert "transient compiler failure" in by_label["L2"].error

    def test_error_record_round_trips_from_worker(self, tmp_path):
        import pickle

        from repro.common.errors import ErrorRecord
        record = ErrorRecord.from_exception(
            ReproError("boom"), phase="compile")
        assert pickle.loads(pickle.dumps(record)) == record
