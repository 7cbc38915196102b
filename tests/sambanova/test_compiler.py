"""RDU compiler: modes, allocation, partitioning accounting."""

import dataclasses

import pytest

import repro.cache
from repro.cache import CompileCache, StageMemo
from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.core.stages import run_stages
from repro.core.metrics import allocation_ratio, weighted_load_imbalance
from repro.models.config import TrainConfig, gpt2_model, llama2_model
from repro.models.precision import Precision, PrecisionPolicy
from repro.models import graph_builder
from repro.models.graph_builder import build_training_graph, lower_model
from repro.sambanova.backend import SambaNovaBackend
from repro.sambanova.compiler import (
    O3_PACKING_FACTOR,
    RDUCompiler,
    SECTION_PCU_BUDGET,
    SECTION_PMU_BUDGET,
)
from repro.sambanova.sections import Section
from repro.workloads import decoder_block_probe


@pytest.fixture(scope="module")
def compiler():
    return RDUCompiler()


@pytest.fixture(scope="module")
def train():
    return TrainConfig(batch_size=16, seq_len=1024,
                       precision=PrecisionPolicy.pure(Precision.BF16))


@pytest.fixture(scope="module")
def small():
    return gpt2_model("small")


class TestModeStructure:
    def test_o0_one_op_per_section(self, compiler, small, train):
        report = compiler.compile(small, train, mode="O0")
        for phase in report.phases:
            assert len(phase.tasks) == 1

    def test_o1_has_fused_modules(self, compiler, small, train):
        report = compiler.compile(small, train, mode="O1")
        multi = [p for p in report.phases if len(p.tasks) > 1]
        assert multi, "O1 must fuse at least some operators"

    def test_o1_fewer_sections_than_o0(self, compiler, small, train):
        o0 = compiler.compile(small, train, mode="O0")
        o1 = compiler.compile(small, train, mode="O1")
        assert len(o1.phases) < len(o0.phases)

    def test_o0_o1_sections_invoked_per_layer(self, compiler, small, train):
        report = compiler.compile(small.with_layers(7), train, mode="O1")
        layer_phases = [p for p in report.phases
                        if p.invocations == 7]
        assert layer_phases, "decoder sections must run once per layer"

    def test_o3_sections_respect_budget(self, compiler, small, train):
        report = compiler.compile(small, train, mode="O3")
        for phase in report.phases:
            if len(phase.tasks) > 1:  # packed sections
                assert phase.compute_units <= SECTION_PCU_BUDGET + 1e-6
                assert phase.memory_units <= SECTION_PMU_BUDGET + 1e-6

    def test_o3_all_sections_run_once(self, compiler, small, train):
        report = compiler.compile(small, train, mode="O3")
        assert all(p.invocations == 1 for p in report.phases)

    def test_unknown_mode_rejected(self, compiler, small, train):
        with pytest.raises(ConfigurationError):
            compiler.compile(small, train, mode="O2")


class TestAllocation:
    def test_never_exceeds_60pct(self, compiler, small, train):
        """The paper's headline RDU finding (Fig. 7)."""
        for mode in ("O0", "O1", "O3"):
            for layers in (4, 12, 24):
                report = compiler.compile(small.with_layers(layers), train,
                                          mode=mode)
                assert allocation_ratio(report) < 0.62

    def test_mode_ordering_o3_highest_o0_lowest(self, compiler, small,
                                                train):
        ratios = {mode: allocation_ratio(
            compiler.compile(small, train, mode=mode))
            for mode in ("O0", "O1", "O3")}
        assert ratios["O3"] > ratios["O1"] > ratios["O0"]

    def test_o3_rises_then_stabilizes_with_layers(self, compiler, small,
                                                  train):
        ratios = [allocation_ratio(
            compiler.compile(small.with_layers(n), train, mode="O3"))
            for n in (4, 8, 16, 32)]
        assert ratios[1] > ratios[0]
        assert abs(ratios[3] - ratios[2]) < 0.05

    def test_o0_allocation_rises_with_hidden(self, compiler, train):
        ratios = [allocation_ratio(compiler.compile(
            decoder_block_probe(hs, 8), train, mode="O0"))
            for hs in (480, 1024, 1600)]
        assert ratios == sorted(ratios)


class TestLoadImbalance:
    def test_o1_beats_o3(self, compiler, small, train):
        """Fig. 8: fusion balances better than O3's packing."""
        o1 = weighted_load_imbalance(compiler.compile(small, train,
                                                      mode="O1"))
        o3 = weighted_load_imbalance(compiler.compile(small, train,
                                                      mode="O3"))
        assert o1 > o3

    def test_o3_li_degrades_with_layers(self, compiler, small, train):
        li4 = weighted_load_imbalance(
            compiler.compile(small.with_layers(4), train, mode="O3"))
        li32 = weighted_load_imbalance(
            compiler.compile(small.with_layers(32), train, mode="O3"))
        assert li32 < li4

    def test_o1_o3_gap_holds_across_hidden(self, compiler, train):
        # Fig. 8b's dominant feature: O1's fusion stays far better
        # balanced than O3 at every hidden size. (The paper's mild
        # rising-with-HS trend is a noted deviation; see EXPERIMENTS.md.)
        for hs in (480, 1024, 1600):
            probe = decoder_block_probe(hs, 8)
            o1 = weighted_load_imbalance(
                compiler.compile(probe, train, mode="O1"))
            o3 = weighted_load_imbalance(
                compiler.compile(probe, train, mode="O3"))
            assert o1 > o3 + 0.15


class TestSharding:
    def test_lm_head_sharded_at_large_hidden(self, compiler, train):
        model = llama2_model("7b").with_hidden(5120).with_layers(4)
        report = compiler.compile(model, train, mode="O1")
        shard_phases = [p for p in report.phases if ".S" in p.name]
        assert len(shard_phases) >= 2

    def test_small_hidden_head_unsharded(self, compiler, train):
        model = decoder_block_probe(768, 4)  # probe vocab: tiny head
        report = compiler.compile(model, train, mode="O1")
        assert not [p for p in report.phases if "lm_head.S" in p.name]

    def test_partition_summary_ratios(self, compiler, small, train):
        report = compiler.compile(small.with_layers(8), train, mode="O3")
        summary = compiler.partition_summary(report)
        # Table II(a): backward needs more sections per decoder than
        # forward.
        assert summary["backward_ratio"] > summary["forward_ratio"]
        assert summary["forward_sections"] >= 1


class TestTensorParallel:
    def test_tp_bounds(self, compiler, small, train):
        with pytest.raises(ConfigurationError):
            compiler.compile(small, train, tp=0)
        with pytest.raises(ConfigurationError):
            compiler.compile(small, train, tp=16)

    def test_tp_adds_comm_sections(self, compiler, small, train):
        report = compiler.compile(small, train, tp=2)
        assert any(p.name == "allreduce" for p in report.phases)

    def test_tp_shrinks_per_chip_demands(self, compiler, small, train):
        r1 = compiler.compile(small, train, tp=1)
        r4 = compiler.compile(small, train, tp=4)
        assert (allocation_ratio(r4, kind="compute")
                < allocation_ratio(r1, kind="compute"))

    def test_ddr_capacity_enforced(self, compiler, train):
        huge = llama2_model("70b")
        big_batch = TrainConfig(
            batch_size=64, seq_len=4096,
            precision=PrecisionPolicy.mixed(Precision.BF16))
        with pytest.raises(OutOfMemoryError):
            compiler.compile(huge, big_batch, tp=1)
        # Tensor parallelism divides the state and fits.
        compiler.compile(huge, big_batch, tp=8)


class TestPrecisionEffects:
    def test_cast_penalty_applied(self, compiler, small):
        pure = compiler.compile(small, TrainConfig(
            batch_size=16, seq_len=1024,
            precision=PrecisionPolicy.mixed(Precision.BF16)))
        casty = compiler.compile(small, TrainConfig(
            batch_size=16, seq_len=1024,
            precision=PrecisionPolicy.matmul_only(Precision.BF16)))
        assert casty.meta["pcu_rate"] < pure.meta["pcu_rate"]


def reference_sections_o3(self, graph, model, train, tp):
    """The original O3 packer: rescans ``pending`` for every operator."""
    order = graph.topological_order()
    sections = []
    pending = []
    pending_kind = "forward"
    counter = {"n": 0}

    def flush() -> None:
        if not pending:
            return
        sections.append(Section(
            name=f"sec{counter['n']}",
            ops=list(pending),
            invocations=1,
            kind=pending_kind,
        ))
        counter["n"] += 1
        pending.clear()

    for op in order:
        if self._needs_sharding(op, train, tp):
            flush()
            sections.extend(self._shard_sections(op, train, tp, 1))
            continue
        demand = self._demand_of(op, train, tp)
        demand = dataclasses.replace(
            demand,
            pcus=demand.pcus * O3_PACKING_FACTOR,
            pmus=demand.pmus * O3_PACKING_FACTOR)
        kind = self._section_kind(op)
        pcu_total = sum(d.pcus for d in pending) + demand.pcus
        pmu_total = sum(d.pmus for d in pending) + demand.pmus
        if pending and (pcu_total > SECTION_PCU_BUDGET
                        or pmu_total > SECTION_PMU_BUDGET
                        or kind != pending_kind):
            flush()
        pending_kind = kind
        pending.append(demand)
    flush()
    return sections


def _section_rows(sections):
    """Every field of every section and op, ``meta`` included."""
    return [(s.name, s.invocations, s.kind,
             [dataclasses.astuple(op) for op in s.ops]) for s in sections]


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("layers", [1, 12, 24, 48])
@pytest.mark.parametrize("model", [gpt2_model("small"), llama2_model("7b")],
                         ids=["gpt2", "llama2"])
# At batch 32 x seq 2048 the PMU budget, not the PCU one, closes most
# GPT-2 sections.
@pytest.mark.parametrize("batch,seq,training", [
    (16, 1024, True), (16, 1024, False), (32, 2048, True),
], ids=["train", "infer", "train-pmu-bound"])
def test_sections_o3_matches_rescanning_packer(compiler, model, layers, tp,
                                               batch, seq, training):
    model = model.with_layers(layers)
    train = TrainConfig(batch_size=batch, seq_len=seq, training=training,
                        precision=PrecisionPolicy.pure(Precision.BF16))
    got = compiler._sections_o3(lower_model(model, train), train, tp)
    want = reference_sections_o3(compiler, build_training_graph(model, train),
                                 model, train, tp)
    assert _section_rows(got) == _section_rows(want)


def test_compile_lowers_one_layer(compiler, train, monkeypatch):
    """An O3 compile of 48 layers lowers one decoder layer, not 48."""
    calls = []
    layer_forward_ops = graph_builder._layer_forward_ops

    def counted(*args):
        calls.append(args)
        return layer_forward_ops(*args)

    monkeypatch.setattr(graph_builder, "_layer_forward_ops", counted)
    report = compiler.compile(gpt2_model("small").with_layers(48), train,
                              mode="O3")
    assert len(calls) == 1
    assert report.meta["sections"][-1].ops[-1].name == "optimizer"


def test_graph_artifact_spilled_under_cache_v3_is_not_replayed(
        tmp_path, monkeypatch, train):
    """Cache v3 spilled the graph stage's ``ComputationGraph``; the
    stage now returns a ``ModelLowering``, so the old spill must miss."""
    backend = SambaNovaBackend()
    model = gpt2_model("small").with_layers(4)
    cache = CompileCache(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(repro.cache, "CACHE_VERSION", 3)
        old = backend.compile_pipeline(model, train, mode="O3")[0]
        assert cache.stage_store(old.name, old.fingerprint,
                                 build_training_graph(model, train))
    new = backend.compile_pipeline(model, train, mode="O3")[0]
    assert new.name == old.name and new.fingerprint != old.fingerprint
    assert cache.stage_lookup(new.name, new.fingerprint) == (False, None)
    memo = StageMemo(spill=cache)
    assert (run_stages(backend.compile_pipeline(model, train, mode="O3"),
                       memo)
            == backend.compile(model, train, mode="O3"))
