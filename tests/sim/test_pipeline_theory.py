"""Validate the DES against tandem-queue theory.

The WSE runtime's pipeline is a tandem queue with bounded WIP; queueing
theory gives closed forms for its makespan in special cases. The DES
must agree — this is the cross-check that the simulation engine, not
just the calibration, is sound. A differential test also pins the
runtime's loop to a reference written on the generic
:class:`~repro.sim.engine.Simulator` and :class:`~repro.sim.engine.Resource`,
row for row.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cerebras.runtime import WSERuntime
from repro.common.errors import SimulationError
from repro.sim.engine import Resource, Simulator
from repro.sim.trace import Trace


def simulate(service_times, depth, batch):
    runtime = WSERuntime()
    order = [f"s{i}" for i in range(len(service_times))]
    services = dict(zip(order, service_times))
    trace = Trace()
    makespan = runtime._simulate_pipeline(order, services, depth, batch,
                                          trace)
    return makespan, trace


class TestClosedForms:
    def test_unbounded_wip_formula(self):
        """With depth >= batch, makespan = sum(t) + (B-1) * t_max."""
        services = [0.5, 2.0, 1.0]
        batch = 7
        makespan, _trace = simulate(services, depth=batch, batch=batch)
        assert makespan == pytest.approx(sum(services) + (batch - 1) * 2.0)

    def test_wip_one_serializes(self):
        """Depth 1: samples pass one at a time; makespan = B * sum(t)."""
        services = [0.5, 2.0, 1.0]
        batch = 5
        makespan, _trace = simulate(services, depth=1, batch=batch)
        assert makespan == pytest.approx(batch * sum(services))

    def test_single_stage(self):
        makespan, _trace = simulate([1.5], depth=4, batch=6)
        assert makespan == pytest.approx(9.0)

    def test_uniform_stages(self):
        """n equal stages: makespan = (n + B - 1) * t."""
        makespan, _trace = simulate([1.0] * 5, depth=100, batch=10)
        assert makespan == pytest.approx((5 + 10 - 1) * 1.0)


@settings(max_examples=30, deadline=None)
@given(services=st.lists(st.floats(min_value=0.01, max_value=3.0),
                         min_size=1, max_size=8),
       depth=st.integers(min_value=1, max_value=12),
       batch=st.integers(min_value=1, max_value=12))
def test_bounds_and_conservation(services, depth, batch):
    makespan, trace = simulate(services, depth, batch)
    total = sum(services)
    t_max = max(services)
    # Lower bounds: critical path of one sample, bottleneck serialization,
    # and WIP-limited rate.
    assert makespan >= total - 1e-9
    assert makespan >= batch * t_max - 1e-9
    assert makespan >= batch * total / max(depth, 1) / 2 - 1e-9
    # Upper bound: full serialization.
    assert makespan <= batch * total + 1e-9
    # Conservation: every stage served every sample exactly once.
    counts = trace.items_by_task()
    assert all(count == batch for count in counts.values())
    assert len(counts) == len(services)


@settings(max_examples=20, deadline=None)
@given(services=st.lists(st.floats(min_value=0.05, max_value=2.0),
                         min_size=2, max_size=6),
       batch=st.integers(min_value=4, max_value=16))
def test_deeper_wip_never_slower(services, batch):
    shallow, _t1 = simulate(services, depth=1, batch=batch)
    deep, _t2 = simulate(services, depth=batch, batch=batch)
    assert deep <= shallow + 1e-9


def reference_pipeline(order, service, depth, batch, trace):
    """The tandem queue on the generic Simulator and Resource: one
    zero-delay wake per grant and one completion event per
    (sample, stage). The oracle for the runtime's dedicated loop."""
    if not order:
        raise SimulationError("empty kernel pipeline")
    sim = Simulator()
    stages = [Resource(sim, capacity=1, name=name) for name in order]
    in_flight = {"count": 0, "next_sample": 0, "done": 0}

    def admit():
        while (in_flight["count"] < depth
               and in_flight["next_sample"] < batch):
            sample = in_flight["next_sample"]
            in_flight["next_sample"] += 1
            in_flight["count"] += 1
            enter_stage(sample, 0)

    def enter_stage(sample, idx):
        stages[idx].request(start_service, sample, idx)

    def start_service(sample, idx):
        start = sim.now
        sim.schedule(service[order[idx]], finish_service,
                     sample, idx, start)

    def finish_service(sample, idx, start):
        trace.record(start, sim.now, order[idx], category="compute",
                     item=sample)
        stages[idx].release()
        if idx + 1 < len(stages):
            enter_stage(sample, idx + 1)
        else:
            in_flight["count"] -= 1
            in_flight["done"] += 1
            admit()

    sim.schedule(0.0, admit)
    sim.run()
    if in_flight["done"] != batch:
        raise SimulationError(
            f"pipeline completed {in_flight['done']} of {batch} samples")
    return sim.now


def rows(trace):
    return [(r.start, r.end, r.task, r.category, r.item) for r in trace]


#: Service times from a small pool, so that zeros and repeated values
#: (and with them tied completion times) are common.
service_time = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]),
                         st.floats(min_value=0.0, max_value=3.0))


@settings(max_examples=200, deadline=None)
@given(services=st.lists(service_time, min_size=1, max_size=8),
       depth=st.integers(min_value=1, max_value=12),
       batch=st.integers(min_value=0, max_value=16))
def test_matches_the_generic_engine_row_for_row(services, depth, batch):
    order = [f"s{i}" for i in range(len(services))]
    service = dict(zip(order, services))
    expected_trace, actual_trace = Trace(), Trace()
    expected = reference_pipeline(order, service, depth, batch,
                                  expected_trace)
    actual = WSERuntime()._simulate_pipeline(order, service, depth, batch,
                                             actual_trace)
    assert actual == expected
    assert rows(actual_trace) == rows(expected_trace)


def test_empty_pipeline_rejected():
    with pytest.raises(SimulationError, match="empty kernel pipeline"):
        WSERuntime()._simulate_pipeline([], {}, 1, 4, Trace())


def test_negative_service_time_rejected():
    with pytest.raises(SimulationError):
        WSERuntime()._simulate_pipeline(["a", "b"], {"a": 1.0, "b": -0.5},
                                        1, 4, Trace())
