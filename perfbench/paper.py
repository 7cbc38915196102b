"""The paper-suite workload: the numbers behind Tables I-IV, Figs. 6-12
and the ablations, computed through the public API.

Every experiment is a function ``(backends, rec)`` that makes its calls
through ``rec.call(cell_id, fn, ...)`` -- one cell per direct API call,
so the recorder sees each result as it returns -- and returns a list of
shape checks ``(name, predicate)``. The checks are the paper shapes
listed in EXPERIMENTS.md; they are evaluated after the pass, outside
the timed region.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import (
    DeploymentOptimizer,
    RooflineModel,
    ScalabilityAnalyzer,
    Tier1Profiler,
    TrainConfig,
    allocation_ratio,
    gpt2_model,
    llama2_model,
    weighted_load_imbalance,
)
from repro.cerebras.placement import WaferPlacer
from repro.common.errors import ConfigurationError
from repro.core.metrics import load_imbalance, phase_allocation_ratio
from repro.models.precision import Precision, PrecisionPolicy
from repro.workloads import (
    decoder_block_probe,
    paper_rdu_hidden_sweep_o0_o3,
    paper_rdu_hidden_sweep_o1,
)

Check = tuple[str, Callable[[], bool]]

BF16 = PrecisionPolicy.pure(Precision.BF16)


def _ascending(values: list[float]) -> bool:
    return list(values) == sorted(values)


def table1(bk: dict[str, Any], rec: Any) -> list[Check]:
    """WSE-2 PE allocation vs layers; fails at 78 layers."""
    train = TrainConfig(batch_size=64, seq_len=1024)
    layers = [1, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72, 78]
    small = gpt2_model("small")
    pct = []
    for n in layers:
        report = rec.call(f"table1/L{n}", bk["cerebras"].compile,
                          small.with_layers(n), train)
        pct.append(None if report is None
                   else 100.0 * allocation_ratio(report))
    return [
        ("table1: 78 layers fails to compile", lambda: pct[-1] is None),
        ("table1: 1 layer ~33%", lambda: abs(pct[0] - 33.0) <= 3.0),
        ("table1: 6 layers ~60%", lambda: abs(pct[1] - 60.0) <= 4.0),
        ("table1: saturates at 88-94% from 24 layers",
         lambda: all(88.0 <= v <= 94.0 for v in pct[4:-1])),
        ("table1: rises up to 24 layers", lambda: _ascending(pct[:5])),
    ]


def fig6(bk: dict[str, Any], rec: Any) -> list[Check]:
    """WSE-2 compute vs transmission PEs and per-kernel usage."""
    train = TrainConfig(batch_size=64, seq_len=1024)
    small = gpt2_model("small")
    rows = []
    for n in [1, 6, 12, 18, 24, 36, 48]:
        report = rec.call(f"fig6/L{n}", bk["cerebras"].compile,
                          small.with_layers(n), train)
        tasks = report.phases[0].tasks
        compute = sum(t.compute_units for t in tasks if t.role == "compute")
        trans = sum(t.compute_units for t in tasks
                    if t.role == "transmission")
        attn = [t.compute_units for t in tasks if t.role == "compute"
                and t.meta.get("kind") == "attention"][0]
        rows.append((compute, trans, attn))
    attn = [r[2] for r in rows]
    return [
        ("fig6: transmission/compute ratio in (0.5, 0.8)",
         lambda: all(0.5 < t / c < 0.8 for c, t, _ in rows)),
        ("fig6: attention kernel at its cap below 12 layers",
         lambda: abs(attn[0] - attn[1]) <= 0.05 * attn[1]),
        ("fig6: attention kernel shrinks past saturation",
         lambda: attn[-1] < attn[-2] < attn[3]),
        ("fig6: PE pools grow until saturation",
         lambda: _ascending([c + t for c, t, _ in rows[:4]])),
    ]


def fig7(bk: dict[str, Any], rec: Any) -> list[Check]:
    """RDU allocation vs layers and vs hidden size."""
    sn = bk["sambanova"]
    train = TrainConfig(batch_size=16, seq_len=1024, precision=BF16)
    small = gpt2_model("small")
    layers = [4, 8, 12, 16, 24, 32]
    by_layers: dict[str, list[float]] = {}
    for mode in ("O0", "O1", "O3"):
        by_layers[mode] = [100.0 * allocation_ratio(rec.call(
            f"fig7a/{mode}/L{n}", sn.compile, small.with_layers(n), train,
            mode=mode)) for n in layers]
    by_hidden: dict[str, list[float]] = {"O0": [], "O3": [], "O1": []}
    for model in paper_rdu_hidden_sweep_o0_o3(n_layers=8):
        for mode in ("O0", "O3"):
            by_hidden[mode].append(100.0 * allocation_ratio(rec.call(
                f"fig7b/{mode}/H{model.hidden_size}", sn.compile, model,
                train, mode=mode)))
    o1_train = TrainConfig(batch_size=8, seq_len=2048, precision=BF16)
    for model in paper_rdu_hidden_sweep_o1(n_layers=4):
        by_hidden["O1"].append(100.0 * allocation_ratio(rec.call(
            f"fig7b/O1/H{model.hidden_size}", sn.compile, model, o1_train,
            mode="O1")))
    a = by_layers
    return [
        ("fig7a: allocation stays under 62%",
         lambda: all(v < 62.0 for c in a.values() for v in c)),
        ("fig7a: O3 > O1 > O0 at every layer count",
         lambda: all(o3 > o1 > o0 for o0, o1, o3
                     in zip(a["O0"], a["O1"], a["O3"]))),
        ("fig7a: O3 rises then stabilizes",
         lambda: a["O3"][1] > a["O3"][0]
         and abs(a["O3"][-1] - a["O3"][-2]) < 3.0),
        ("fig7a: O0 and O1 decline with layers",
         lambda: a["O0"][-1] < a["O0"][0] and a["O1"][-1] < a["O1"][0]),
        ("fig7b: O0 climbs with hidden size",
         lambda: _ascending(by_hidden["O0"])),
        ("fig7b: O1 plateau within 40-70%",
         lambda: all(40.0 < v < 70.0 for v in by_hidden["O1"])),
        ("fig7b: O3 oscillates within 12 points",
         lambda: max(by_hidden["O3"]) - min(by_hidden["O3"]) < 12.0),
    ]


def table2(bk: dict[str, Any], rec: Any) -> list[Check]:
    """O3 partitioning per decoder and O1 LM-head sharding."""
    sn = bk["sambanova"]
    train = TrainConfig(batch_size=16, seq_len=1024, precision=BF16)
    o3 = {}
    for hidden in (480, 768, 1024, 1280, 1600):
        report = rec.call(f"table2a/H{hidden}", sn.compile,
                          decoder_block_probe(hidden, 8), train, mode="O3")
        o3[hidden] = sn.compiler.partition_summary(report)
    o1_train = TrainConfig(batch_size=8, seq_len=2048, precision=BF16)
    shards, pcu = [], []
    for model in paper_rdu_hidden_sweep_o1(n_layers=4):
        report = rec.call(f"table2b/H{model.hidden_size}", sn.compile,
                          model, o1_train, mode="O1")
        phases = [p for p in report.phases if "lm_head" in p.name
                  and ".S" in p.name and ".bwd" not in p.name]
        shards.append(sum(t.meta.get("shards", 1)
                          for p in phases for t in p.tasks))
        pcu.append(max(p.compute_units for p in phases))
    fwd = [o3[h]["forward_ratio"] for h in sorted(o3)]
    return [
        ("table2a: backward needs more sections than forward",
         lambda: all(s["backward_ratio"] > s["forward_ratio"]
                     for s in o3.values())),
        ("table2a: forward ratio grows with hidden size",
         lambda: fwd[-1] >= fwd[0]),
        ("table2b: every hidden size shards, counts grow",
         lambda: all(s > 1 for s in shards) and _ascending(shards)),
        ("table2b: PCU per section set by shard geometry",
         lambda: max(pcu) / min(pcu) < 1.5),
    ]


def fig8(bk: dict[str, Any], rec: Any) -> list[Check]:
    """Load imbalance of WSE-2 and RDU vs layers and hidden size."""
    cs, sn = bk["cerebras"], bk["sambanova"]
    wse_train = TrainConfig(batch_size=64, seq_len=1024)
    rdu_train = TrainConfig(batch_size=16, seq_len=1024, precision=BF16)
    small = gpt2_model("small")
    li: dict[str, list[float]] = {"WSE": [], "O1": [], "O3": []}
    for n in [4, 8, 12, 16, 24, 32]:
        model = small.with_layers(n)
        li["WSE"].append(weighted_load_imbalance(rec.call(
            f"fig8a/WSE/L{n}", cs.compile, model, wse_train)))
        for mode in ("O1", "O3"):
            li[mode].append(weighted_load_imbalance(rec.call(
                f"fig8a/{mode}/L{n}", sn.compile, model, rdu_train,
                mode=mode)))
    by_hidden: dict[str, list[float]] = {"O1": [], "O3": []}
    for hidden in [480, 768, 1024, 1280, 1600]:
        probe = decoder_block_probe(hidden, 8)
        for mode in ("O1", "O3"):
            by_hidden[mode].append(weighted_load_imbalance(rec.call(
                f"fig8b/{mode}/H{hidden}", sn.compile, probe, rdu_train,
                mode=mode)))
    return [
        ("fig8a: WSE balance >= 0.90", lambda: min(li["WSE"]) >= 0.90),
        ("fig8a: O1 beats O3 at every layer count",
         lambda: all(a > b for a, b in zip(li["O1"], li["O3"]))),
        ("fig8a: O3 degrades with depth, O1 flat",
         lambda: li["O3"][-1] < li["O3"][0] - 0.03
         and abs(li["O1"][-1] - li["O1"][0]) < 0.08),
        ("fig8b: O1 beats O3 by > 0.15 at every hidden size",
         lambda: all(a > b + 0.15 for a, b
                     in zip(by_hidden["O1"], by_hidden["O3"]))),
    ]


def fig9(bk: dict[str, Any], rec: Any) -> list[Check]:
    """Memory and compute: WSE, RDU and IPU."""
    cs, sn, gc = bk["cerebras"], bk["sambanova"], bk["graphcore"]
    train = TrainConfig(batch_size=256, seq_len=1024)
    small = gpt2_model("small")
    tflops, config = {}, {}
    for n in [6, 12, 18, 24, 30, 36, 48, 60, 72]:
        report = rec.call(f"fig9a/L{n}/compile", cs.compile,
                          small.with_layers(n), train)
        run = rec.call(f"fig9a/L{n}/run", cs.run, report)
        memory = report.shared_memory
        config[n] = memory.configuration_bytes / memory.capacity_bytes
        tflops[n] = run.achieved_flops / 1e12
    rdu_train = TrainConfig(batch_size=16, seq_len=1024, precision=BF16)
    rdu: dict[str, list[float]] = {}
    for mode in ("O0", "O1", "O3"):
        rdu[mode] = []
        for n in [4, 8, 16, 32]:
            report = rec.call(f"fig9b/{mode}/L{n}/compile", sn.compile,
                              decoder_block_probe(768, n), rdu_train,
                              mode=mode)
            rdu[mode].append(rec.call(f"fig9b/{mode}/L{n}/run", sn.run,
                                      report).achieved_flops / 1e12)
    o1_train = TrainConfig(batch_size=32, seq_len=2048, precision=BF16)
    llama = llama2_model("7b")
    hidden = []
    for h in [3072, 4096, 5120, 8192]:
        report = rec.call(f"fig9c/H{h}/compile", sn.compile,
                          llama.with_hidden(h).with_layers(4), o1_train,
                          mode="O1")
        hidden.append(rec.call(f"fig9c/H{h}/run", sn.run,
                               report).achieved_flops / 1e12)
    ipu_train = TrainConfig(batch_size=32, seq_len=1024)
    ipu = {}
    for n in [1, 2, 4, 6, 8, 9, 10]:
        report = rec.call(f"fig9d/L{n}/compile", gc.compile,
                          small.with_layers(n), ipu_train, n_ipus=2)
        if report is None:
            ipu[n] = None
            continue
        run = rec.call(f"fig9d/L{n}/run", gc.run, report)
        ipu[n] = (report.shared_memory.total_bytes / 1e6,
                  run.achieved_flops / 1e12)
    peak = max(tflops, key=tflops.get)
    mem = [(n, v[0]) for n, v in ipu.items() if v is not None and n >= 2]
    slopes = [(m1 - m0) / (l1 - l0)
              for (l0, m0), (l1, m1) in zip(mem, mem[1:])]
    return [
        ("fig9a: TFLOPs peak at 18-36 layers then collapse",
         lambda: 18 <= peak <= 36 and tflops[72] < 0.3 * tflops[peak]),
        ("fig9a: configuration memory superlinear past 36 layers",
         lambda: config[72] / config[36] > 3.0),
        ("fig9b: O0 severely limited",
         lambda: max(rdu["O0"]) < 0.4 * max(rdu["O3"])),
        ("fig9b: O1/O3 grow with layers, gains slowing",
         lambda: all(_ascending(rdu[m])
                     and rdu[m][-1] / rdu[m][-2] < rdu[m][1] / rdu[m][0]
                     for m in ("O1", "O3"))),
        ("fig9c: O1 TFLOPs grow with hidden inside the paper band",
         lambda: _ascending(hidden) and 0.5 * 35.6 < hidden[0]
         and hidden[-1] < 1.6 * 50.6),
        ("fig9d: IPU fails at exactly 10 layers",
         lambda: ipu[10] is None and ipu[9] is not None),
        ("fig9d: TFLOPs plateau near 4 layers",
         lambda: ipu[4][1] > 1.2 * ipu[1][1]
         and abs(ipu[8][1] - ipu[4][1]) < 0.3 * ipu[4][1]),
        ("fig9d: memory grows linearly",
         lambda: max(slopes) / min(slopes) < 1.2),
    ]


def fig10(bk: dict[str, Any], rec: Any) -> list[Check]:
    """Roofline classification through the Tier-1 profiler."""
    fp16 = TrainConfig(batch_size=32, seq_len=1024)
    bf16 = fp16.with_precision(BF16)
    small = gpt2_model("small")
    points: dict[str, list[Any]] = {"CS-2": [], "SN30": [], "Bow-2000": []}
    for n in [4, 6, 8]:
        model = small.with_layers(n)
        points["CS-2"].append(rec.call(
            f"fig10/CS-2/L{n}", Tier1Profiler(bk["cerebras"]).profile,
            model, fp16))
        points["SN30"].append(rec.call(
            f"fig10/SN30/L{n}", Tier1Profiler(bk["sambanova"]).profile,
            model, bf16, mode="O3"))
        points["Bow-2000"].append(rec.call(
            f"fig10/Bow-2000/L{n}", Tier1Profiler(bk["graphcore"]).profile,
            model, fp16, n_ipus=2))
    bounds = {"CS-2": "compute", "SN30": "memory", "Bow-2000": "memory"}
    ridge = RooflineModel(bk["cerebras"].system.chip).ridge_intensity
    ipu_tf = [r.achieved_flops / 1e12 for r in points["Bow-2000"]]
    return [
        ("fig10: WSE compute-bound, RDU and IPU memory-bound",
         lambda: all(r.roofline.bound == bounds[p]
                     for p, rs in points.items() for r in rs)),
        ("fig10: WSE ridge below 1 FLOP/B", lambda: ridge < 1.0),
        ("fig10: no point exceeds its roof",
         lambda: all(r.achieved_flops <= r.roofline.attainable_flops
                     for rs in points.values() for r in rs)),
        ("fig10: IPU band brackets 91-143 TFLOP/s",
         lambda: max(ipu_tf) > 91.0 and min(ipu_tf) < 143.0 * 1.4),
        ("fig10: WSE efficiency near 20% of peak",
         lambda: 0.05 < max(r.compute_efficiency
                            for r in points["CS-2"]) < 0.35),
    ]


def table3(bk: dict[str, Any], rec: Any) -> list[Check]:
    """Scalability across all platforms (Tier-2 sweeps)."""
    cs, sn, gpu = bk["cerebras"], bk["sambanova"], bk["gpu"]
    pod = bk["graphcore_pod"]
    wse_train = TrainConfig(batch_size=256, seq_len=1024)
    wse = {p.label: p.tokens_per_second for p in rec.call(
        "table3/WSE/small", ScalabilityAnalyzer(cs).sweep,
        gpt2_model("small"), wse_train,
        [("DP0", {"n_replicas": 1}), ("DP2", {"n_replicas": 2}),
         ("PP(stream)", {"mode": "weight_streaming"})])}
    for label, preset, replicas in (("DP4", "mini", 4), ("DP8", "tiny", 8)):
        report = rec.call(f"table3/WSE/{label}/compile", cs.compile,
                          gpt2_model(preset), wse_train,
                          n_replicas=replicas)
        wse[label] = rec.call(f"table3/WSE/{label}/run", cs.run,
                              report).tokens_per_second
    ipu_train = TrainConfig(batch_size=128, seq_len=1024)
    ipu = {}
    for n, layers in ((4, 6), (4, 12), (8, 18), (8, 24), (16, 30),
                      (16, 36), (16, 42), (16, 48)):
        [point] = rec.call(f"table3/IPU/{n}PP{layers}L",
                           ScalabilityAnalyzer(pod).sweep,
                           decoder_block_probe(768, layers), ipu_train,
                           [(f"{n}PP", {"n_ipus": n})])
        ipu[(n, layers)] = point.tokens_per_second
    rdu_train = TrainConfig(batch_size=8, seq_len=4096, precision=BF16)
    rdu = {p.options["tp"]: p.tokens_per_second for p in rec.call(
        "table3/RDU", ScalabilityAnalyzer(sn).sweep, llama2_model("7b"),
        rdu_train, [(f"TP{tp}", {"mode": "O1", "tp": tp})
                    for tp in (2, 4, 8)])}
    gpu_train = TrainConfig(batch_size=64, seq_len=1024,
                            precision=PrecisionPolicy.mixed(Precision.BF16))
    xl = gpt2_model("xlarge")
    per_gpu = {}
    for tp, pp, dp in ((8, 1, 1), (4, 2, 1), (2, 4, 1), (1, 8, 1),
                       (8, 8, 16), (4, 4, 64)):
        report = rec.call(f"table3/GPU/T{tp}P{pp}D{dp}/compile",
                          gpu.compile, xl,
                          gpu_train.with_batch_size(64 * dp), tp=tp, pp=pp,
                          dp=dp, micro_batches=128 if dp > 1 else None)
        run = rec.call(f"table3/GPU/T{tp}P{pp}D{dp}/run", gpu.run, report)
        per_gpu[(tp, pp, dp)] = run.meta["per_gpu_flops"] / 1e12
    return [
        ("table3: WSE DP2 beats DP0 by > 15%",
         lambda: wse["DP2"] > 1.15 * wse["DP0"]),
        ("table3: WSE weight streaming ~0.8x DP0",
         lambda: abs(wse["PP(stream)"] / wse["DP0"] - 0.8) <= 0.064),
        ("table3: smaller WSE models replicate further",
         lambda: wse["DP8"] > wse["DP2"] and wse["DP4"] > wse["DP2"]),
        ("table3: IPU throughput falls with layers per IPU",
         lambda: ipu[(4, 6)] > ipu[(4, 12)] and ipu[(8, 18)] > ipu[(8, 24)]
         and ipu[(16, 30)] > ipu[(16, 36)] >= ipu[(16, 42)]
         > ipu[(16, 48)]),
        ("table3: RDU cross-machine cliff and plateau",
         lambda: rdu[4] < 0.75 * rdu[2]
         and abs(rdu[8] - rdu[4]) < 0.15 * rdu[4]),
        ("table3: GPU TP-heavy beats PP-heavy in a node",
         lambda: per_gpu[(8, 1, 1)] > per_gpu[(4, 2, 1)]
         > per_gpu[(2, 4, 1)] > per_gpu[(1, 8, 1)]),
        ("table3: GPU large clusters stay competitive",
         lambda: per_gpu[(4, 4, 64)] > per_gpu[(1, 8, 1)]),
        ("table3: GPU per-GPU TFLOP/s in 70-200",
         lambda: all(70.0 < v < 200.0 for v in per_gpu.values())),
    ]


def fig11(bk: dict[str, Any], rec: Any) -> list[Check]:
    """WSE replicas, RDU TP utilization, IPU layer distributions."""
    cs, sn, pod = bk["cerebras"], bk["sambanova"], bk["graphcore_pod"]
    tiny_train = TrainConfig(batch_size=256, seq_len=1024)
    tokens, comm = [], []
    for replicas in (1, 2, 4, 8):
        report = rec.call(f"fig11a/R{replicas}/compile", cs.compile,
                          gpt2_model("tiny"), tiny_train,
                          n_replicas=replicas)
        run = rec.call(f"fig11a/R{replicas}/run", cs.run, report)
        tokens.append(run.tokens_per_second)
        comm.append(run.meta["sync_time"] / run.step_time)
    rdu_train = TrainConfig(batch_size=8, seq_len=4096, precision=BF16)
    util = {}
    for tp in (2, 4, 8):
        report = rec.call(f"fig11b/TP{tp}", sn.compile, llama2_model("7b"),
                          rdu_train, mode="O1", tp=tp)
        util[tp] = (allocation_ratio(report, kind="compute"),
                    allocation_ratio(report, kind="memory"))
    ipu_train = TrainConfig(batch_size=64, seq_len=1024)
    probe = decoder_block_probe(768, 12)
    best: dict[int, list[float]] = {}
    for dist in ([3, 3, 3, 3, 0], [3, 3, 2, 2, 2], [2, 3, 3, 2, 2],
                 [4, 2, 2, 2, 2], [4, 4, 2, 2, 0], [2, 2, 4, 2, 2],
                 [5, 3, 2, 1, 1], [2, 4, 4, 1, 1], [6, 2, 2, 2, 0]):
        tag = "".join(map(str, dist))
        report = rec.call(f"fig11c/{tag}/compile", pod.compile, probe,
                          ipu_train, n_ipus=8, layers_per_ipu=dist)
        run = rec.call(f"fig11c/{tag}/run", pod.run, report)
        best.setdefault(max(dist), []).append(run.samples_per_second)
    loads = sorted(best)
    return [
        ("fig11a: replication keeps improving throughput",
         lambda: _ascending(tokens)),
        ("fig11a: comm share grows from ~0 at two replicas",
         lambda: comm[1] < 0.02 and comm[3] > comm[2] > comm[1] >= comm[0]),
        ("fig11b: cross-machine TP cuts per-chip PCU/PMU",
         lambda: util[4][0] < 0.7 * util[2][0]
         and util[4][1] < 0.85 * util[2][1] and util[8][0] <= util[4][0]),
        ("fig11c: throughput ordered by the most loaded IPU",
         lambda: all(min(best[a]) > max(best[b])
                     for a, b in zip(loads, loads[1:]))),
    ]


def fig12(bk: dict[str, Any], rec: Any) -> list[Check]:
    """Batch-size scaling through the deployment optimizer."""
    wse = rec.call("fig12/WSE", DeploymentOptimizer(bk["cerebras"])
                   .batch_sweep, gpt2_model("small"),
                   TrainConfig(batch_size=8, seq_len=1024),
                   [32, 64, 128, 200, 256, 400, 512])
    rdu = rec.call("fig12/RDU", DeploymentOptimizer(bk["sambanova"])
                   .batch_sweep, gpt2_model("small"),
                   TrainConfig(batch_size=4, seq_len=1024, precision=BF16),
                   [4, 8, 16, 32], mode="O1")
    ipu = rec.call("fig12/IPU", DeploymentOptimizer(bk["graphcore"])
                   .batch_sweep, decoder_block_probe(768, 4),
                   TrainConfig(batch_size=8, seq_len=1024), [8, 16, 32],
                   n_ipus=2)
    rates = dict(zip(wse.batch_sizes, wse.tokens_per_second))
    return [
        ("fig12: RDU and IPU near-linear, WSE saturates",
         lambda: rdu.near_linear and ipu.near_linear
         and not wse.near_linear),
        ("fig12: WSE knee at or below batch 256",
         lambda: wse.saturation_batch is not None
         and wse.saturation_batch <= 256),
        ("fig12: small WSE gain past 200, large below 128",
         lambda: rates[400] / rates[200] < 1.10
         and rates[128] / rates[64] > 1.10),
    ]


def table4(bk: dict[str, Any], rec: Any) -> list[Check]:
    """Mixed-precision gains; RDU > IPU > WSE."""
    wse = rec.call("table4/WSE", DeploymentOptimizer(bk["cerebras"])
                   .compare_precision, gpt2_model("small"),
                   TrainConfig(batch_size=128, seq_len=1024),
                   baseline=PrecisionPolicy.pure(Precision.FP16),
                   optimized=PrecisionPolicy.pure(Precision.CB16))
    ipu = rec.call("table4/IPU", DeploymentOptimizer(bk["graphcore"])
                   .compare_precision,
                   decoder_block_probe(768, 4, vocab_size=50257),
                   TrainConfig(batch_size=16, seq_len=1024),
                   baseline=PrecisionPolicy.full(),
                   optimized=PrecisionPolicy.mixed(Precision.FP16),
                   n_ipus=2)
    rdu = rec.call("table4/RDU", DeploymentOptimizer(bk["sambanova"])
                   .compare_precision, llama2_model("7b"),
                   TrainConfig(batch_size=16, seq_len=4096, precision=BF16),
                   baseline=PrecisionPolicy.matmul_only(Precision.BF16),
                   optimized=PrecisionPolicy.mixed(Precision.BF16),
                   mode="O1", tp=2)
    return [
        ("table4: sensitivity RDU > IPU > WSE",
         lambda: rdu.gain > ipu.gain > wse.gain),
        ("table4: WSE gain 10.7% +- 4", lambda: abs(wse.gain - 0.107) <= 0.04),
        ("table4: IPU gain 22% +- 8", lambda: abs(ipu.gain - 0.22) <= 0.08),
        ("table4: RDU gain 34.3% +- 10",
         lambda: abs(rdu.gain - 0.343) <= 0.10),
    ]


def ablations(bk: dict[str, Any], rec: Any) -> list[Check]:
    """The five design ablations of EXPERIMENTS.md."""
    cs, sn, pod = bk["cerebras"], bk["sambanova"], bk["graphcore_pod"]
    demands = [(f"k{i}", 18_000.0 + 997.0 * (i % 7)) for i in range(40)]
    strips = rec.call("ablation/placement/strips", WaferPlacer(
        922, 857, strategy="strips").packing_efficiency, demands)
    shelves = rec.call("ablation/placement/shelves", WaferPlacer(
        922, 857, strategy="shelves").packing_efficiency, demands)

    train = TrainConfig(batch_size=64, seq_len=1024)
    caps = {}
    for n in (1, 6, 24):
        model = gpt2_model("small").with_layers(n)
        caps[n] = (
            allocation_ratio(rec.call(f"ablation/caps/L{n}/on", cs.compile,
                                      model, train)),
            allocation_ratio(rec.call(f"ablation/caps/L{n}/off", cs.compile,
                                      model, train, respect_caps=False)))

    rdu_train = TrainConfig(batch_size=16, seq_len=1024, precision=BF16)
    small = gpt2_model("small")
    fusion = {}
    for mode in ("O0", "O1"):
        report = rec.call(f"ablation/fusion/{mode}/compile", sn.compile,
                          small, rdu_train, mode=mode)
        run = rec.call(f"ablation/fusion/{mode}/run", sn.run, report)
        fusion[mode] = (len(report.phases),
                        run.global_traffic_bytes_per_step,
                        run.tokens_per_second)

    ipu_train = TrainConfig(batch_size=64, seq_len=1024)
    probe = decoder_block_probe(768, 13)
    grouping = {}
    for tag, dist in (("balanced", None), ("naive", [5, 5, 3, 0, 0])):
        options = {"n_ipus": 8}
        if dist is not None:
            options["layers_per_ipu"] = dist
        report = rec.call(f"ablation/grouping/{tag}/compile", pod.compile,
                          probe, ipu_train, **options)
        grouping[tag] = rec.call(f"ablation/grouping/{tag}/run", pod.run,
                                 report).samples_per_second

    report = rec.call("ablation/weighting", sn.compile, small, rdu_train,
                      mode="O3")
    w_alloc = allocation_ratio(report)
    u_alloc = sum(phase_allocation_ratio(p, report.total_compute_units)
                  for p in report.phases) / len(report.phases)
    lis = []
    for phase in report.phases:
        try:
            lis.append(load_imbalance(phase.tasks))
        except ConfigurationError:  # a phase without compute tasks
            continue
    w_li, u_li = weighted_load_imbalance(report), sum(lis) / len(lis)
    return [
        ("ablation: strip packing beats shelves, > 0.9",
         lambda: strips >= shelves and strips > 0.9),
        ("ablation: caps needed for Table I's under-subscription",
         lambda: caps[1][0] < 0.40 and caps[1][1] > 0.85
         and caps[6][0] < 0.70 and abs(caps[24][0] - caps[24][1]) <= 0.03),
        ("ablation: O1 fusion cuts sections and traffic, > 1.5x O0",
         lambda: fusion["O1"][0] < fusion["O0"][0]
         and fusion["O1"][1] < fusion["O0"][1]
         and fusion["O1"][2] > 1.5 * fusion["O0"][2]),
        ("ablation: balanced IPU grouping > 1.3x naive",
         lambda: grouping["balanced"] > 1.3 * grouping["naive"]),
        ("ablation: Eq. 2/4 weighting changes the numbers",
         lambda: abs(w_alloc - u_alloc) > 0.01 and abs(w_li - u_li) > 0.002),
    ]


#: Every experiment of the suite, in paper order.
EXPERIMENTS = {fn.__name__: fn for fn in (
    table1, fig6, fig7, table2, fig8, fig9, fig10, table3, fig11, fig12,
    table4, ablations)}

#: The smoke subset: one Tier-1 sweep with a capability failure, and the
#: Tier-2 precision study.
SMOKE_EXPERIMENTS = ("table1", "table4")
