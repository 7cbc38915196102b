"""Execution traces."""

import pickle

import pytest

from repro.sim.trace import Trace, TraceRecord


@pytest.fixture()
def trace():
    t = Trace()
    t.record(0.0, 1.0, "attn", item=0)
    t.record(1.0, 2.0, "attn", item=1)
    t.record(0.5, 3.0, "ffn", category="compute", item=0)
    t.record(3.0, 3.5, "dma", category="transfer", item=0)
    return t


class TestRecord:
    def test_duration(self):
        rec = TraceRecord(start=1.0, end=3.5, task="x")
        assert rec.duration == 2.5

    def test_equality_and_hash_ignore_meta(self):
        rec = TraceRecord(start=1.0, end=3.5, task="x", meta={"flops": 1})
        same = TraceRecord(1.0, 3.5, "x", "compute", 0, {"flops": 2})
        assert rec == same and not rec != same
        assert hash(rec) == hash(same)
        assert rec != TraceRecord(1.0, 3.5, "x", item=1)
        assert len({rec, same}) == 1

    def test_never_equals_a_plain_tuple(self):
        rec = TraceRecord(start=1.0, end=3.5, task="x")
        for row in [(1.0, 3.5, "x", "compute", 0, {}),
                    (1.0, 3.5, "x", "compute", 0)]:
            assert rec != row and row != rec
            assert not rec == row and not row == rec

    def test_records_are_not_ordered(self):
        rec = TraceRecord(start=1.0, end=3.5, task="x", meta={"a": 1})
        same = TraceRecord(start=1.0, end=3.5, task="x", meta={"b": 2})
        for other in [same, (1.0, 3.5, "x", "compute", 0, {})]:
            for compare in [lambda a, b: a < b, lambda a, b: a <= b,
                            lambda a, b: a > b, lambda a, b: a >= b]:
                with pytest.raises(TypeError):
                    compare(rec, other)
                with pytest.raises(TypeError):
                    compare(other, rec)

    def test_immutable_with_its_own_meta(self):
        first = TraceRecord(start=0.0, end=1.0, task="a")
        second = TraceRecord(start=0.0, end=1.0, task="a")
        assert first.meta == {} and first.meta is not second.meta
        with pytest.raises(AttributeError):
            first.start = 2.0
        trace = Trace()
        trace.append(0.0, 1.0, "a")
        trace.append(1.0, 2.0, "a")
        metas = [r.meta for r in trace]
        assert metas == [{}, {}] and metas[0] is not metas[1]

    def test_reversed_interval_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError):
            trace.add(TraceRecord(start=2.0, end=1.0, task="x"))

    def test_record_convenience_stores_meta(self):
        trace = Trace()
        rec = trace.record(0.0, 1.0, "k", flops=42)
        assert rec.meta["flops"] == 42

    @pytest.mark.parametrize("write", [
        lambda t: t.append(2.0, 1.0, "x"),
        lambda t: t.add(TraceRecord(start=2.0, end=1.0, task="x")),
        lambda t: t.record(2.0, 1.0, "x"),
    ], ids=["append", "add", "record"])
    def test_every_writer_rejects_reversed_interval(self, write):
        trace = Trace()
        with pytest.raises(ValueError, match="ends before it starts"):
            write(trace)
        assert len(trace) == 0

    def test_append_reads_back_as_a_record(self):
        trace = Trace()
        trace.append(0.5, 1.5, "k", "transfer", 3)
        assert trace.records == [TraceRecord(start=0.5, end=1.5, task="k",
                                             category="transfer", item=3)]
        assert trace.records[0].meta == {}

    def test_meta_survives_iteration_and_filter(self):
        trace = Trace()
        trace.add(TraceRecord(start=0.0, end=1.0, task="a",
                              meta={"bytes": 8}))
        trace.record(1.0, 2.0, "b", category="transfer", flops=42)
        assert [r.meta for r in trace] == [{"bytes": 8}, {"flops": 42}]
        assert [r.meta for r in trace.filter(task="a")] == [{"bytes": 8}]
        assert [r.meta for r in trace.filter(category="transfer")] == [
            {"flops": 42}]

    def test_pickle_round_trip_preserves_rows(self, trace):
        trace.record(4.0, 5.0, "attn", item=2, flops=7)
        copy = pickle.loads(pickle.dumps(trace))
        assert len(copy) == len(trace)
        assert copy.records == trace.records
        assert [r.meta for r in copy] == [r.meta for r in trace]


class TestAggregates:
    def test_len_and_iter(self, trace):
        assert len(trace) == 4
        assert len(list(trace)) == 4

    def test_makespan(self, trace):
        assert trace.makespan == 3.5

    def test_makespan_empty(self):
        assert Trace().makespan == 0.0

    def test_busy_time_by_task(self, trace):
        busy = trace.busy_time_by_task()
        assert busy["attn"] == pytest.approx(2.0)
        assert busy["ffn"] == pytest.approx(2.5)

    def test_busy_time_by_category(self, trace):
        by_cat = trace.busy_time_by_category()
        assert by_cat["transfer"] == pytest.approx(0.5)

    def test_items_by_task(self, trace):
        assert trace.items_by_task()["attn"] == 2

    def test_task_throughput(self, trace):
        # attn: 2 items over a [0, 2] span.
        assert trace.task_throughput("attn") == pytest.approx(1.0)

    def test_task_throughput_unknown(self, trace):
        assert trace.task_throughput("nope") == 0.0

    def test_task_throughput_zero_span(self):
        t = Trace()
        t.record(1.0, 1.0, "instant")
        assert t.task_throughput("instant") == float("inf")

    def test_task_throughputs_agree_with_task_throughput(self, trace):
        trace.record(5.0, 5.0, "instant")
        trace.record(0.1, 0.3, "ffn", item=1)
        every = trace.task_throughputs()
        assert set(every) == {"attn", "ffn", "dma", "instant"}
        for task, rate in every.items():
            assert trace.task_throughput(task) == rate
        assert every["instant"] == float("inf")
        assert every["ffn"] == 2 / (3.0 - 0.1)
        assert "nope" not in every
        assert trace.task_throughput("nope") == 0.0

    def test_task_throughputs_empty(self):
        assert Trace().task_throughputs() == {}


class TestFilter:
    def test_by_category(self, trace):
        assert len(trace.filter(category="transfer")) == 1

    def test_by_task(self, trace):
        assert len(trace.filter(task="attn")) == 2

    def test_by_both(self, trace):
        assert len(trace.filter(category="compute", task="ffn")) == 1

    def test_filter_returns_new_trace(self, trace):
        filtered = trace.filter(task="attn")
        filtered.record(10.0, 11.0, "extra")
        assert len(trace) == 4
