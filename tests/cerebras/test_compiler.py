"""WSE-2 compiler: allocation regimes, memory planning, failures."""

import pytest

from repro.cerebras.compiler import USABLE_FRACTION, WSECompiler
from repro.cerebras.kernels import extract_kernels
from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.core.metrics import allocation_ratio, weighted_load_imbalance
from repro.models.config import TrainConfig, gpt2_model, llama2_model


@pytest.fixture(scope="module")
def compiler():
    return WSECompiler()


@pytest.fixture(scope="module")
def train():
    return TrainConfig(batch_size=64, seq_len=1024)


@pytest.fixture(scope="module")
def small():
    return gpt2_model("small")


class TestAllocationRegimes:
    def test_one_layer_near_paper_33pct(self, compiler, small, train):
        report = compiler.compile(small.with_layers(1), train)
        assert allocation_ratio(report) == pytest.approx(0.33, abs=0.03)

    def test_six_layers_near_paper_60pct(self, compiler, small, train):
        report = compiler.compile(small.with_layers(6), train)
        assert allocation_ratio(report) == pytest.approx(0.60, abs=0.04)

    def test_saturation_at_92_93pct(self, compiler, small, train):
        for layers in (24, 36, 48):
            report = compiler.compile(small.with_layers(layers), train)
            assert 0.88 <= allocation_ratio(report) <= 0.94

    def test_allocation_monotone_through_regimes(self, compiler, small,
                                                 train):
        ratios = [allocation_ratio(compiler.compile(small.with_layers(n),
                                                    train))
                  for n in (1, 6, 12, 18)]
        assert ratios == sorted(ratios)

    def test_under_subscribed_kernels_sit_at_cap(self, compiler, small,
                                                 train):
        # Below ~12 layers, per-attention-kernel PE usage is stable
        # (paper Fig. 6): the grants track the caps, not the layer count.
        r4 = compiler.compile(small.with_layers(4), train)
        r8 = compiler.compile(small.with_layers(8), train)

        def attn_pes(report):
            tasks = [t for t in report.phases[0].tasks
                     if t.meta.get("kind") == "attention"
                     and t.role == "compute"]
            return tasks[0].compute_units

        assert attn_pes(r4) == pytest.approx(attn_pes(r8), rel=0.05)

    def test_elastic_shrink_beyond_saturation(self, compiler, small, train):
        # Past saturation, per-kernel grants shrink with more layers.
        r18 = compiler.compile(small.with_layers(18), train)
        r36 = compiler.compile(small.with_layers(36), train)

        def attn_pes(report):
            tasks = [t for t in report.phases[0].tasks
                     if t.meta.get("kind") == "attention"
                     and t.role == "compute"]
            return tasks[0].compute_units

        assert attn_pes(r36) < attn_pes(r18)


class TestTransmissionPEs:
    def test_roles_partition_the_grant(self, compiler, small, train):
        report = compiler.compile(small, train)
        compute = sum(t.compute_units for t in report.phases[0].tasks
                      if t.role == "compute")
        trans = sum(t.compute_units for t in report.phases[0].tasks
                    if t.role == "transmission")
        # Fig. 6: "close proportions" — 40% of each grant routes data.
        assert trans / (compute + trans) == pytest.approx(0.40, abs=0.01)


class TestLoadBalance:
    def test_li_is_high(self, compiler, small, train):
        # Paper Fig. 8a: WSE LI between 0.96 and 1.0; ours lands >= 0.9.
        for layers in (6, 18, 36):
            report = compiler.compile(small.with_layers(layers), train)
            assert weighted_load_imbalance(report) >= 0.90


class TestMemoryPlanning:
    def test_config_memory_grows_superlinearly(self, compiler, small, train):
        c12 = compiler.compile(small.with_layers(12), train)
        c48 = compiler.compile(small.with_layers(48), train)
        growth = (c48.shared_memory.configuration_bytes
                  / c12.shared_memory.configuration_bytes)
        assert growth > 4.0  # 4x layers -> much more than 4x config

    def test_pipeline_efficiency_collapses_past_36(self, compiler, small,
                                                   train):
        eff36 = compiler.compile(small.with_layers(36),
                                 train).meta["pipeline_efficiency"]
        eff60 = compiler.compile(small.with_layers(60),
                                 train).meta["pipeline_efficiency"]
        assert eff36 > 0.9
        assert eff60 < 0.5

    def test_78_layers_fails_like_table1(self, compiler, small, train):
        with pytest.raises(OutOfMemoryError):
            compiler.compile(small.with_layers(78), train)

    def test_72_layers_still_compiles(self, compiler, small, train):
        compiler.compile(small.with_layers(72), train)

    def test_max_layers_matches_paper_envelope(self, compiler, small, train):
        # Paper: "supporting up to 72 decoder layers in our experiments".
        assert compiler.max_layers(small, train, upper=96) in range(70, 78)


class TestModesAndOptions:
    def test_unknown_mode_rejected(self, compiler, small, train):
        with pytest.raises(ConfigurationError):
            compiler.compile(small, train, mode="magic")

    def test_zero_replicas_rejected(self, compiler, small, train):
        with pytest.raises(ConfigurationError):
            compiler.compile(small, train, n_replicas=0)

    def test_batch_below_replicas_rejected(self, compiler, small):
        with pytest.raises(ConfigurationError):
            compiler.compile(small, TrainConfig(batch_size=2, seq_len=128),
                             n_replicas=4)

    def test_weight_streaming_frees_memory(self, compiler, small, train):
        pipeline = compiler.compile(small.with_layers(24), train)
        streaming = compiler.compile(small.with_layers(24), train,
                                     mode="weight_streaming")
        assert (streaming.shared_memory.training_bytes
                < pipeline.shared_memory.training_bytes)

    def test_replicas_split_batch(self, compiler, small, train):
        report = compiler.compile(small, train, n_replicas=4)
        assert report.meta["per_replica_batch"] == train.batch_size // 4

    def test_replica_tasks_enumerated(self, compiler, small, train):
        r1 = compiler.compile(small, train)
        r2 = compiler.compile(small, train, n_replicas=2)
        assert len(r2.phases[0].tasks) == 2 * len(r1.phases[0].tasks)


class TestReportShape:
    def test_single_phase(self, compiler, small, train):
        report = compiler.compile(small, train)
        assert len(report.phases) == 1
        assert report.phases[0].name == "graph"

    def test_totals_are_chip_counts(self, compiler, small, train):
        report = compiler.compile(small, train)
        assert report.total_compute_units == 850_000

    def test_service_times_positive(self, compiler, small, train):
        report = compiler.compile(small, train)
        for service in report.meta["service_times"].values():
            assert service > 0


def reference_allocate(kernels, budget, respect_caps=True):
    """The original cap-then-water-fill allocator, with per-step lookups."""
    floors = {k.name: min(k.min_pes, k.cap_pes) for k in kernels}
    caps = {k.name: k.cap_pes if respect_caps else budget
            for k in kernels}
    if sum(floors.values()) > budget:
        raise OutOfMemoryError(
            "kernel weight floors exceed the wafer region: "
            f"{sum(floors.values()):.0f} PEs needed, {budget:.0f} available",
            required_bytes=sum(floors.values()),
            available_bytes=budget,
        )
    if sum(caps.values()) <= budget:
        return dict(caps)
    lo, hi = 0.0, budget / max(min(k.flops_per_sample for k in kernels), 1.0)

    def total(lam: float) -> float:
        return sum(
            min(caps[k.name], max(floors[k.name],
                                  lam * k.flops_per_sample))
            for k in kernels
        )

    for _ in range(80):
        mid = (lo + hi) / 2.0
        if total(mid) < budget:
            lo = mid
        else:
            hi = mid
    lam = (lo + hi) / 2.0
    return {
        k.name: min(caps[k.name],
                    max(floors[k.name], lam * k.flops_per_sample))
        for k in kernels
    }


def _allocation(allocate, *args, **kwargs):
    try:
        return allocate(*args, **kwargs)
    except OutOfMemoryError as exc:
        return ("oom", str(exc))


@pytest.mark.parametrize("respect_caps", [True, False])
@pytest.mark.parametrize("n_replicas", [1, 2])
@pytest.mark.parametrize("layers", [1, 12, 24, 48])
@pytest.mark.parametrize("model", [gpt2_model("small"), llama2_model("7b")],
                         ids=["gpt2", "llama2"])
def test_allocate_matches_lookup_water_fill(compiler, train, model, layers,
                                            n_replicas, respect_caps):
    kernels = tuple(extract_kernels(model.with_layers(layers), train))
    budget = float(max(1, compiler.grid_width // n_replicas)
                   * max(1, int(compiler.grid_height * USABLE_FRACTION)))
    got = _allocation(compiler._allocate, kernels, budget,
                      respect_caps=respect_caps)
    want = _allocation(reference_allocate, kernels, budget,
                       respect_caps=respect_caps)
    assert got == want
    if isinstance(want, dict):
        assert list(got) == list(want)
