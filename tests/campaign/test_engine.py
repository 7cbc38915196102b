"""The pooled cell dispatcher: ordering, resume, errors, serialization."""

import threading

import pytest

from repro.campaign.engine import CellTask, run_cell_tasks
from repro.common.errors import TransientError
from repro.resilience.clock import FakeClock
from repro.resilience.executor import ResilientExecutor
from repro.resilience.journal import (
    STATUS_FAILED,
    STATUS_OK,
    ShardedJournal,
    SweepJournal,
)
from repro.resilience.retry import RetryPolicy


def make_task(key, compile_fn, **kwargs):
    return CellTask(key=key, compile_fn=compile_fn, **kwargs)


class TestOrdering:
    def test_results_in_task_order_despite_completion_order(self):
        # Task 0 blocks until task 2 has finished, so completion order
        # is the reverse of task order; results must still be ordered.
        release = threading.Event()

        def slow_first():
            assert release.wait(10.0)
            return "first"

        def fast_last():
            release.set()
            return "last"

        tasks = [
            make_task("a", slow_first),
            make_task("b", lambda: "middle"),
            make_task("c", fast_last),
        ]
        results = run_cell_tasks(tasks, max_workers=3)
        assert [r.key for r in results] == ["a", "b", "c"]
        assert [r.outcome.compiled for r in results] == [
            "first", "middle", "last"]
        assert all(r.index == i for i, r in enumerate(results))

    def test_sequential_path_preserves_callback_order(self):
        seen = []
        tasks = [make_task(f"k{i}", lambda i=i: i) for i in range(5)]
        run_cell_tasks(tasks, max_workers=1,
                       on_result=lambda r: seen.append(r.key))
        assert seen == ["k0", "k1", "k2", "k3", "k4"]

    def test_pool_callback_fires_exactly_once_per_cell(self):
        seen = []
        lock = threading.Lock()

        def on_result(result):
            with lock:
                seen.append(result.key)

        tasks = [make_task(f"k{i}", lambda i=i: i) for i in range(8)]
        run_cell_tasks(tasks, max_workers=4, on_result=on_result)
        assert sorted(seen) == [f"k{i}" for i in range(8)]


class TestJournalAndResume:
    def test_journal_records_every_cell(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        tasks = [make_task(f"k{i}", lambda i=i: i) for i in range(3)]
        run_cell_tasks(tasks, max_workers=2, journal=journal)
        entries = journal.load()
        assert set(entries) == {"k0", "k1", "k2"}
        assert all(e.status == STATUS_OK for e in entries.values())

    def test_resume_skips_finished_cells(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        executed = []

        def build(i):
            def fn():
                executed.append(i)
                return i
            return fn

        tasks = [make_task(f"k{i}", build(i)) for i in range(4)]
        run_cell_tasks(tasks[:2], journal=journal)
        executed.clear()
        results = run_cell_tasks(tasks, journal=journal, resume=True)
        assert executed == [2, 3]
        assert [r.resumed for r in results] == [True, True, False, False]
        assert [r.key for r in results] == ["k0", "k1", "k2", "k3"]

    def test_retry_failed_reruns_journaled_failures(self, tmp_path,
                                                    no_backoff_sleep):
        # The default retry backoff would really sleep (~3 s).
        journal = SweepJournal(tmp_path / "j.jsonl")

        def boom():
            raise TransientError("flaky")

        run_cell_tasks([make_task("bad", boom)], journal=journal)
        assert journal.load()["bad"].status == STATUS_FAILED
        results = run_cell_tasks([make_task("bad", lambda: 42)],
                                 journal=journal, resume=True,
                                 retry_failed=True)
        assert not results[0].resumed
        assert results[0].outcome.compiled == 42
        assert journal.load()["bad"].status == STATUS_OK

    def test_resumed_callbacks_fire_before_pooled_results(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        tasks = [make_task(f"k{i}", lambda i=i: i) for i in range(4)]
        run_cell_tasks(tasks[:2], journal=journal)
        seen = []
        lock = threading.Lock()

        def on_result(result):
            with lock:
                seen.append(result.key)

        run_cell_tasks(tasks, max_workers=2, journal=journal,
                       resume=True, on_result=on_result)
        assert seen[:2] == ["k0", "k1"]
        assert sorted(seen[2:]) == ["k2", "k3"]

    def test_sharded_journal_backs_a_pool(self, tmp_path):
        journal = ShardedJournal(tmp_path)
        tasks = [make_task(f"k{i}", lambda i=i: i) for i in range(6)]
        run_cell_tasks(tasks, max_workers=3, journal=journal)
        assert set(journal.load()) == {f"k{i}" for i in range(6)}
        assert 1 <= len(journal.shard_paths()) <= 3


class TestErrorPropagation:
    def test_harness_bug_re_raises_after_drain(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")

        def kill():
            raise RuntimeError("harness bug")

        tasks = [make_task("good", lambda: 1), make_task("dead", kill)]
        with pytest.raises(RuntimeError, match="harness bug"):
            run_cell_tasks(tasks, max_workers=2, journal=journal)
        # the journaled good cell survives for a resume
        assert journal.load().get("good") is not None

    def test_sequential_error_propagates(self):
        def kill():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_cell_tasks([make_task("dead", kill)], max_workers=1)


class TestExecutorWiring:
    def test_task_executor_retries_transients(self):
        clock = FakeClock()
        executor = ResilientExecutor(
            retry=RetryPolicy(max_retries=2, jitter=0.0), clock=clock)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("flake")
            return "done"

        results = run_cell_tasks(
            [make_task("k", flaky, executor=executor)])
        assert results[0].outcome.compiled == "done"
        assert results[0].attempts == 3

    def test_summary_extra_lands_in_journal(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")

        class FakeRun:
            tokens_per_second = 5.0
            step_time = 0.1
            achieved_flops = 1.0

        task = CellTask(
            key="k", compile_fn=lambda: "c",
            run_fn=lambda compiled: FakeRun(),
            summary_extra=lambda outcome: {"custom": 7})
        run_cell_tasks([task], journal=journal)
        assert journal.load()["k"].summary["custom"] == 7

    def test_serializer_prevents_overlapping_backend_calls(self):
        lock = threading.Lock()
        active = 0
        overlap = []

        def tracked(i):
            nonlocal active
            active += 1
            if active > 1:
                overlap.append(i)
            # widen the race window: yield to the other workers
            threading.Event().wait(0.005)
            active -= 1
            return i

        tasks = [make_task(f"k{i}", lambda i=i: tracked(i),
                           serializer=lock) for i in range(8)]
        run_cell_tasks(tasks, max_workers=4)
        assert overlap == []
