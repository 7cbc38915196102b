"""Shared fixtures: backends, models, and training configs.

Session-scoped backends are safe because backends hold no mutable state
across compile/run calls.
"""

from __future__ import annotations

import types

import pytest

from repro import (
    CerebrasBackend,
    GPUBackend,
    GraphcoreBackend,
    Precision,
    PrecisionPolicy,
    SambaNovaBackend,
    TrainConfig,
    gpt2_model,
    llama2_model,
)


@pytest.fixture(scope="session")
def cerebras() -> CerebrasBackend:
    return CerebrasBackend()


@pytest.fixture(scope="session")
def sambanova() -> SambaNovaBackend:
    return SambaNovaBackend()


@pytest.fixture(scope="session")
def graphcore() -> GraphcoreBackend:
    return GraphcoreBackend()


@pytest.fixture(scope="session")
def gpu() -> GPUBackend:
    return GPUBackend()


@pytest.fixture()
def gpt2_small():
    return gpt2_model("small")


@pytest.fixture()
def gpt2_mini():
    return gpt2_model("mini")


@pytest.fixture()
def llama7b():
    return llama2_model("7b")


@pytest.fixture()
def train_fp16() -> TrainConfig:
    return TrainConfig(batch_size=32, seq_len=1024)


@pytest.fixture()
def train_bf16() -> TrainConfig:
    return TrainConfig(batch_size=16, seq_len=1024,
                       precision=PrecisionPolicy.pure(Precision.BF16))


@pytest.fixture()
def train_small_batch() -> TrainConfig:
    return TrainConfig(batch_size=8, seq_len=512)


@pytest.fixture()
def no_backoff_sleep(monkeypatch):
    """Make the wall clock's retry-backoff sleep a no-op.

    Stubs the ``time`` reference in :mod:`repro.resilience.clock` only,
    which is what ``SystemClock.sleep`` calls; ``now`` still reads real
    monotonic time. Forked campaign workers inherit the stub.
    """
    from repro.resilience import clock
    monkeypatch.setattr(clock, "time", types.SimpleNamespace(
        monotonic=clock.time.monotonic, sleep=lambda seconds: None))
