"""Simulator-performance benchmarks (not a paper figure).

Guards the framework's own speed: the discrete-event engine and the
end-to-end compile+run paths must stay fast enough that full paper
sweeps run in seconds. pytest-benchmark tracks regressions;
``test_engine_event_throughput`` asserts an events/s floor and
``test_wse_pipeline_row_throughput`` a trace-rows/s floor.
"""

import time

import pytest

from repro import TrainConfig, gpt2_model
from repro.models.precision import Precision, PrecisionPolicy
from repro.sim.engine import Resource, Simulator
from repro.sim.trace import Trace

#: Floor on the raw DES dispatch rate: about a third of the best-of-5
#: rate measured on a 2-vCPU host (2.0-2.9 M events/s).
MIN_EVENTS_PER_S = 700_000

#: Floor on the Cerebras pipeline loop, in trace rows per second: about
#: half the slowest best-of-5 rate measured on a 2-vCPU host (0.9-1.9 M
#: rows/s), and over twice the rate of the loop on the generic
#: Simulator and Resource it replaced (0.17-0.23 M rows/s).
MIN_WSE_ROWS_PER_S = 500_000


@pytest.mark.benchmark(group="engine")
def test_engine_event_throughput(benchmark):
    """Raw DES event dispatch rate."""

    def run_events(n: int = 50_000) -> int:
        sim = Simulator()

        def tick(remaining: int) -> None:
            if remaining > 0:
                sim.schedule(1.0, tick, remaining - 1)

        sim.schedule(0.0, tick, n)
        sim.run()
        return sim.events_processed

    processed = benchmark(run_events)
    assert processed == 50_001
    # Timed here too, so the floor holds with --benchmark-disable.
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        run_events()
        best = min(best, time.perf_counter() - start)
    rate = processed / best
    print(f"\n  DES dispatch: {rate:,.0f} events/s "
          f"(floor {MIN_EVENTS_PER_S:,})")
    assert rate >= MIN_EVENTS_PER_S


def test_wse_pipeline_row_throughput(cerebras):
    """Cerebras run-phase loop on a paper-scale mapping."""
    model = gpt2_model("small").with_layers(24)
    meta = cerebras.compile(
        model, TrainConfig(batch_size=64, seq_len=1024)).meta
    args = (meta["kernel_order"], meta["service_times"],
            max(1, int(meta["pipeline_depth"])),
            int(meta["per_replica_batch"]))
    best, rows = float("inf"), 0
    for _ in range(5):
        trace = Trace()
        start = time.perf_counter()
        cerebras.runtime._simulate_pipeline(*args, trace)
        best = min(best, time.perf_counter() - start)
        rows = len(trace)
    assert rows == len(args[0]) * args[3]
    rate = rows / best
    print(f"\n  WSE pipeline: {rate:,.0f} rows/s over {rows:,} rows "
          f"(floor {MIN_WSE_ROWS_PER_S:,})")
    assert rate >= MIN_WSE_ROWS_PER_S


@pytest.mark.benchmark(group="engine")
def test_engine_contended_resource(benchmark):
    """Resource queueing under heavy contention."""

    def run_contended(jobs: int = 5_000) -> float:
        sim = Simulator()
        res = Resource(sim, capacity=4)

        def work() -> None:
            sim.schedule(1.0, res.release)

        for _ in range(jobs):
            res.request(work)
        return sim.run()

    makespan = benchmark(run_contended)
    assert makespan == pytest.approx(5_000 / 4)


@pytest.mark.benchmark(group="engine")
def test_wse_compile_run_latency(benchmark, cerebras):
    """One full compile+run on the heaviest backend."""
    model = gpt2_model("small").with_layers(24)
    train = TrainConfig(batch_size=64, seq_len=1024)

    def compile_and_run():
        return cerebras.run(cerebras.compile(model, train))

    run = benchmark(compile_and_run)
    assert run.tokens_per_second > 0


@pytest.mark.benchmark(group="engine")
def test_rdu_o3_compile_latency(benchmark, sambanova):
    """Full-graph sectioning of a deep model."""
    model = gpt2_model("small").with_layers(48)
    train = TrainConfig(batch_size=16, seq_len=1024,
                        precision=PrecisionPolicy.pure(Precision.BF16))

    def compile_only():
        return sambanova.compile(model, train, mode="O3")

    report = benchmark(compile_only)
    assert len(report.phases) > 48
