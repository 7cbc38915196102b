"""Tier-2 analyzers: scalability sweeps and deployment optimization."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.tier2 import (
    BatchSweepResult,
    DeploymentOptimizer,
    ScalabilityAnalyzer,
)
from repro.models.config import TrainConfig, gpt2_model
from repro.models.precision import Precision, PrecisionPolicy
from repro.workloads import decoder_block_probe


class TestScalabilityAnalyzer:
    def test_wse_dp_sweep(self, cerebras):
        train = TrainConfig(batch_size=256, seq_len=1024)
        points = ScalabilityAnalyzer(cerebras).sweep(
            gpt2_model("small"), train,
            [("DP1", {"n_replicas": 1}), ("DP2", {"n_replicas": 2})])
        assert all(not p.failed for p in points)
        assert points[1].tokens_per_second > points[0].tokens_per_second

    def test_failures_become_points(self, cerebras):
        train = TrainConfig(batch_size=64, seq_len=1024)
        points = ScalabilityAnalyzer(cerebras).sweep(
            gpt2_model("small").with_layers(78), train,
            [("base", {})])
        assert points[0].failed
        assert points[0].tokens_per_second == 0.0

    def test_scaling_efficiency_normalization(self, cerebras):
        train = TrainConfig(batch_size=256, seq_len=1024)
        analyzer = ScalabilityAnalyzer(cerebras)
        points = analyzer.sweep(
            gpt2_model("mini"), train,
            [("DP1", {"n_replicas": 1}), ("DP4", {"n_replicas": 4})])
        eff = analyzer.scaling_efficiency(points, {"DP1": 1, "DP4": 4})
        assert eff["DP1"] == pytest.approx(1.0)
        assert 0.1 < eff["DP4"] < 1.5

    def test_scaling_efficiency_needs_points(self, cerebras):
        analyzer = ScalabilityAnalyzer(cerebras)
        with pytest.raises(ConfigurationError):
            analyzer.scaling_efficiency([], {})

    def test_rdu_tp_sweep_records_allocation(self, sambanova, llama7b):
        train = TrainConfig(batch_size=8, seq_len=4096,
                            precision=PrecisionPolicy.pure(Precision.BF16))
        points = ScalabilityAnalyzer(sambanova).sweep(
            llama7b, train, [("TP2", {"mode": "O1", "tp": 2}),
                             ("TP4", {"mode": "O1", "tp": 4})])
        assert points[0].compute_allocation > points[1].compute_allocation
        assert points[1].communication_fraction > \
            points[0].communication_fraction


class TestBatchSweep:
    def test_wse_saturation_detected(self, cerebras):
        optimizer = DeploymentOptimizer(cerebras)
        result = optimizer.batch_sweep(
            gpt2_model("small"), TrainConfig(batch_size=8, seq_len=1024),
            [32, 64, 128, 256, 512])
        assert result.saturation_batch is not None
        assert 64 <= result.saturation_batch <= 256
        assert not result.near_linear

    def test_rdu_near_linear(self, sambanova):
        optimizer = DeploymentOptimizer(sambanova)
        result = optimizer.batch_sweep(
            gpt2_model("small"),
            TrainConfig(batch_size=4, seq_len=1024,
                        precision=PrecisionPolicy.pure(Precision.BF16)),
            [4, 8, 16, 32], mode="O1")
        assert result.near_linear

    def test_failed_batches_recorded(self, graphcore):
        optimizer = DeploymentOptimizer(graphcore)
        result = optimizer.batch_sweep(
            gpt2_model("small").with_layers(8),
            TrainConfig(batch_size=8, seq_len=1024),
            [16, 4096], n_ipus=2)
        assert result.tokens_per_second[0] > 0
        assert result.tokens_per_second[1] == 0.0
        assert 4096 in result.errors

    def test_saturation_none_for_short_series(self):
        result = BatchSweepResult(platform="x", batch_sizes=(4,),
                                  tokens_per_second=(1.0,))
        assert result.saturation_batch is None
        assert not result.near_linear


class TestPrecisionComparison:
    def test_wse_cb16_gain(self, cerebras):
        optimizer = DeploymentOptimizer(cerebras)
        cmp = optimizer.compare_precision(
            gpt2_model("small"), TrainConfig(batch_size=128, seq_len=1024),
            baseline=PrecisionPolicy.pure(Precision.FP16),
            optimized=PrecisionPolicy.pure(Precision.CB16))
        assert 0.05 < cmp.gain < 0.15  # paper: +10.7%

    def test_gain_zero_when_baseline_zero(self):
        from repro.core.tier2 import PrecisionComparison
        cmp = PrecisionComparison(
            platform="x", baseline_label="a", optimized_label="b",
            baseline_tokens_per_second=0.0,
            optimized_tokens_per_second=10.0)
        assert cmp.gain == 0.0

    def test_labels_propagated(self, cerebras):
        optimizer = DeploymentOptimizer(cerebras)
        cmp = optimizer.compare_precision(
            decoder_block_probe(256, 2),
            TrainConfig(batch_size=32, seq_len=256),
            baseline=PrecisionPolicy.pure(Precision.FP16),
            optimized=PrecisionPolicy.pure(Precision.CB16))
        assert cmp.baseline_label == "fp16"
        assert cmp.optimized_label == "cb16"


class TestTier2Robustness:
    """Run-phase faults become points/records, and journals resume."""

    def probe_train(self):
        return decoder_block_probe(256, 2), TrainConfig(batch_size=8,
                                                        seq_len=256)

    def test_scaling_sweep_survives_run_phase_fault(self, cerebras):
        from repro.common.errors import SimulationError
        from repro.resilience import (
            FaultInjectingBackend,
            FaultPlan,
            FaultSpec,
        )

        model, train = self.probe_train()
        plan = FaultPlan().add(FaultSpec(
            fault=lambda: SimulationError("engine desync"),
            phase="run", attempts=(0,)))
        wrapped = FaultInjectingBackend(cerebras, plan)
        points = ScalabilityAnalyzer(wrapped).sweep(
            model, train, [("DP1", {"n_replicas": 1}),
                           ("DP2", {"n_replicas": 2})])
        assert points[0].failed
        assert points[0].failure.type == "SimulationError"
        assert points[0].failure.phase == "run"
        assert not points[1].failed  # sweep continued

    def test_scaling_failure_keeps_structured_attrs(self, cerebras):
        train = TrainConfig(batch_size=64, seq_len=1024)
        points = ScalabilityAnalyzer(cerebras).sweep(
            gpt2_model("small").with_layers(78), train, [("base", {})])
        assert points[0].failure is not None
        assert points[0].failure.type
        assert points[0].failure.phase == "compile"

    def test_scaling_sweep_resumes_from_journal(self, cerebras, tmp_path):
        from repro.resilience import (
            ExecutionPolicy,
            FaultInjectingBackend,
            FaultPlan,
        )

        model, train = self.probe_train()
        journal = tmp_path / "scaling.jsonl"
        counted = FaultInjectingBackend(cerebras, FaultPlan())
        configs = [("DP1", {"n_replicas": 1}), ("DP2", {"n_replicas": 2})]
        first = ScalabilityAnalyzer(counted).sweep(
            model, train, configs[:1],
            policy=ExecutionPolicy(journal=journal))
        assert counted.calls["compile"] == 1
        points = ScalabilityAnalyzer(counted).sweep(
            model, train, configs,
            policy=ExecutionPolicy(journal=journal, resume=True))
        assert counted.calls["compile"] == 2  # only DP2 executed
        assert points[0].resumed
        assert points[0].tokens_per_second == pytest.approx(
            first[0].tokens_per_second)
        # Allocation metrics survive the journal round-trip too.
        assert points[0].compute_allocation == pytest.approx(
            first[0].compute_allocation)
        assert points[0].communication_fraction == pytest.approx(
            first[0].communication_fraction)
        assert not points[1].resumed

    def test_batch_sweep_records_structured_failures(self, graphcore):
        model, train = self.probe_train()
        from repro.common.errors import OutOfMemoryError
        from repro.resilience import (
            FaultInjectingBackend,
            FaultPlan,
            FaultSpec,
        )

        plan = FaultPlan().add(FaultSpec(
            fault=lambda: OutOfMemoryError("tiles full",
                                           required_bytes=5.0,
                                           available_bytes=4.0),
            match="/b32", attempts=None))
        wrapped = FaultInjectingBackend(graphcore, plan)
        sweep = DeploymentOptimizer(wrapped).batch_sweep(
            model, train, [8, 32])
        assert 32 in sweep.failures
        assert sweep.failures[32].attrs["required_bytes"] == 5.0
        assert sweep.tokens_per_second[1] == 0.0

    def test_batch_sweep_resumes_from_journal(self, cerebras, tmp_path):
        from repro.resilience import (
            ExecutionPolicy,
            FaultInjectingBackend,
            FaultPlan,
        )

        model, train = self.probe_train()
        journal = tmp_path / "batch.jsonl"
        counted = FaultInjectingBackend(cerebras, FaultPlan())
        optimizer = DeploymentOptimizer(counted)
        optimizer.batch_sweep(model, train, [8],
                              policy=ExecutionPolicy(journal=journal))
        sweep = optimizer.batch_sweep(
            model, train, [8, 16],
            policy=ExecutionPolicy(journal=journal, resume=True))
        assert counted.calls["compile"] == 2  # batch=8 skipped on resume
        assert sweep.batch_sizes == (8, 16)
        assert all(rate > 0 for rate in sweep.tokens_per_second)

    def test_parallel_sweep_matches_sequential(self, cerebras):
        from repro.resilience import ExecutionPolicy

        model, train = self.probe_train()
        configs = [(f"DP{n}", {"n_replicas": n}) for n in (1, 2, 4)]
        pooled = ScalabilityAnalyzer(cerebras).sweep(
            model, train, configs,
            policy=ExecutionPolicy(max_workers=3))
        serial = ScalabilityAnalyzer(cerebras).sweep(model, train, configs)
        assert [p.label for p in pooled] == ["DP1", "DP2", "DP4"]
        assert [p.tokens_per_second for p in pooled] == \
            [p.tokens_per_second for p in serial]


class TestRemovedKeywords:
    """The pre-policy keywords were removed in 0.3 (satellite 1)."""

    def probe_train(self):
        return decoder_block_probe(256, 2), TrainConfig(batch_size=8,
                                                        seq_len=256)

    def test_sweep_journal_keyword_raises(self, cerebras, tmp_path):
        model, train = self.probe_train()
        with pytest.raises(TypeError,
                           match="ScalabilityAnalyzer.sweep.*removed "
                                 "in 0.3.*ExecutionPolicy"):
            ScalabilityAnalyzer(cerebras).sweep(
                model, train, [("DP1", {"n_replicas": 1})],
                journal=tmp_path / "j.jsonl")
        assert not (tmp_path / "j.jsonl").exists()

    def test_batch_sweep_resume_keyword_raises(self, cerebras, tmp_path):
        model, train = self.probe_train()
        journal = tmp_path / "batch.jsonl"
        optimizer = DeploymentOptimizer(cerebras)
        with pytest.raises(TypeError,
                           match="DeploymentOptimizer.batch_sweep"):
            optimizer.batch_sweep(model, train, [8], journal=journal)
        with pytest.raises(TypeError, match="journal, resume"):
            optimizer.batch_sweep(model, train, [8],
                                  journal=journal, resume=True)

    def test_batch_sweep_still_forwards_compile_options(self, cerebras):
        # **options must keep flowing to backend.compile — only the
        # four removed names are rejected.
        model, train = self.probe_train()
        from repro.resilience import ExecutionPolicy
        sweep = DeploymentOptimizer(cerebras).batch_sweep(
            model, train, [8], policy=ExecutionPolicy(), n_replicas=1)
        assert sweep.tokens_per_second[0] > 0


class TestUnsupportedPolicyFields:
    """The analyzers run closures in-process with no tracer, cache,
    ledger or scheduler: those policy fields are refused, not
    silently ignored."""

    def sweeps(self, cerebras):
        model, train = (decoder_block_probe(256, 2),
                        TrainConfig(batch_size=8, seq_len=256))
        return [
            ("ScalabilityAnalyzer.sweep",
             lambda policy: ScalabilityAnalyzer(cerebras).sweep(
                 model, train, [("DP1", {"n_replicas": 1})],
                 policy=policy)),
            ("DeploymentOptimizer.batch_sweep",
             lambda policy: DeploymentOptimizer(cerebras).batch_sweep(
                 model, train, [8], policy=policy)),
        ]

    def assert_rejected(self, cerebras, field, policy, tmp_path):
        for api, sweep in self.sweeps(cerebras):
            with pytest.raises(ConfigurationError,
                               match=f"{api} does not support "
                                     f"ExecutionPolicy.{field}="):
                sweep(policy)
        assert not any(tmp_path.iterdir())  # nothing was written

    def test_process_dispatch_rejected(self, cerebras, tmp_path):
        from repro.resilience import ExecutionPolicy
        self.assert_rejected(cerebras, "dispatch",
                             ExecutionPolicy(dispatch="process"),
                             tmp_path)

    def test_trace_rejected(self, cerebras, tmp_path):
        from repro.resilience import ExecutionPolicy
        self.assert_rejected(cerebras, "trace",
                             ExecutionPolicy(trace=tmp_path / "t"),
                             tmp_path)

    def test_cache_rejected(self, cerebras, tmp_path):
        from repro.resilience import ExecutionPolicy
        self.assert_rejected(cerebras, "cache",
                             ExecutionPolicy(cache=tmp_path / "c"),
                             tmp_path)

    def test_ledger_rejected(self, cerebras, tmp_path):
        from repro.resilience import ExecutionPolicy
        self.assert_rejected(cerebras, "ledger",
                             ExecutionPolicy(
                                 ledger=tmp_path / "ledger.json"),
                             tmp_path)

    def test_non_lane_major_schedule_rejected(self, cerebras, tmp_path):
        from repro.resilience import ExecutionPolicy
        self.assert_rejected(cerebras, "schedule",
                             ExecutionPolicy(schedule="longest-first"),
                             tmp_path)
