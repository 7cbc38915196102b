"""Turns measured passes into the end-to-end and per-layer metrics.

End-to-end metrics come from the untraced passes; per-layer metrics
from the traced ones, as values per pass. Each metric carries its unit,
and the result file adds sample counts, bases of ratios and, for a
metric a workload cannot reach, ``n/a`` with the reason.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from hostspeed import REFERENCE_S, at_reference_speed
from layers import PLATFORMS, ROOTS, STAGES, self_times

ROOT = Path(__file__).resolve().parent.parent

def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for platform_ in PLATFORMS.values():
        units[f"run.{platform_}.calls"] = "count"
        units[f"run.{platform_}.s"] = "s"
    units["sim.records"] = "count"
    units["sim.records_per_s"] = "1/s"
    for platform_, stages in STAGES.items():
        units[f"compile.{platform_}.calls"] = "count"
        units[f"compile.{platform_}.s"] = "s"
        units[f"compile.{platform_}.self_s"] = "s"
        units[f"compile.{platform_}.failed"] = "count"
        for stage in stages:
            units[f"compile.{platform_}.{stage}.s"] = "s"
    units.update({
        "memo.stage_hits": "count",
        "memo.stage_misses": "count",
        "memo.hit_ratio": "ratio",
        "cache.store.calls": "count",
        "cache.store.s": "s",
        "cache.stage_store.s": "s",
        "cache.prune.s": "s",
        "cache.lookup.calls": "count",
        "cache.lookup.s": "s",
        "cache.stage_lookup.s": "s",
        "cache.hits": "count",
        "cache.misses": "count",
        "cache.hit_ratio": "ratio",
        "cache.disk_mb": "MB",
        "journal.record.calls": "count",
        "journal.record.s": "s",
        "journal.bytes": "B",
        "observe.emit.calls": "count",
        "observe.emit.s": "s",
        "observe.trace_bytes": "B",
        "campaign.self_s": "s",
        "campaign.first_result_s": "s",
        "campaign.worker_kills": "count",
        "campaign.pool_rebuilds": "count",
        "resilience.retries": "count",
        "core.analysis.self_s": "s",
        "core.report.s": "s",
        "bench.trace_overhead_s": "s",
    })
    return units


#: Per-layer metrics that need spans from campaign worker processes
#: when the campaign dispatches to processes.
WORKER_SIDE = ("run.", "sim.", "compile.", "cache.store", "cache.stage",
               "cache.lookup", "cache.hits", "cache.misses",
               "cache.hit_ratio", "journal.record", "observe.emit")


def _metric(value: float | None, unit: str, **extra: Any) -> dict:
    return {"value": value, "unit": unit, **extra}


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups: list[tuple[float, float]], passes: list[dict],
               peak_rss_mb: float) -> dict[str, dict]:
    """Medians of the set-up samples and of the untraced passes; every
    time at the reference host speed (see ``hostspeed``)."""
    setup = [at_reference_speed(*sample) for sample in setups]
    walls = [at_reference_speed(p["wall"], p["reference"]) for p in passes]
    rates = [p["cells"] / wall for p, wall in zip(passes, walls)]
    return {
        "setup_s": _metric(statistics.median(setup), "s",
                           samples=len(setup)),
        "wall_s": _metric(statistics.median(walls), "s",
                          samples=len(walls)),
        "cells_per_s": _metric(statistics.median(rates), "1/s",
                               samples=len(rates)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def raw_times(setups: list[tuple[float, float]], passes: list[dict]
              ) -> dict[str, float]:
    """Medians of the times as measured, and of the reference kernel."""
    return {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "reference_s": statistics.median(
            [r for _, r in setups] + [p["reference"] for p in passes]),
    }


def cell_gaps(passes: list[dict]) -> dict[str, dict]:
    """Median and 99th percentile of the gaps between consecutive
    results. Reported, not gated in BENCHMARK.json: across runs on a
    shared 2-vCPU machine the median's spread reached 0.25 of its value
    on campaign-heavy and the 99th percentile's 0.3-0.4 on
    campaign-warm, at or above the largest bound a metric may have."""
    gaps = [g for p in passes for g in p["gaps_ms"]]
    return {
        "cell_ms_p50": _metric(statistics.median(gaps), "ms",
                               samples=len(gaps)),
        "cell_ms_p99": _metric(_percentile(gaps, 99), "ms",
                               samples=len(gaps),
                               beyond=len(gaps) // 100),
    }


def _ratio(part: float, base: float, unit: str, what: str) -> dict:
    """``part / base`` (both per pass), given with its base: ``what``
    names the base."""
    if base == 0:
        return _metric(None, unit, na=f"no {what}", base=f"0 {what}")
    return _metric(part / base, unit, base=f"{base:.6g} {what} per pass")


def per_layer(workload: Any, plain: list[dict], traced: list[dict]
              ) -> tuple[dict[str, dict], list[dict]]:
    """Per-pass per-layer metrics and the layer table."""
    n = len(traced)
    spans = [s for p in traced for s in p["spans"]]
    self_of = self_times(spans)
    spilled = any(p["spilled"] for p in traced)
    by_name: dict[str, list[Any]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str) -> float:
        return len(by_name.get(name, ())) / n

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ())) / n

    def own(names: tuple[str, ...] | str) -> float:
        names = (names,) if isinstance(names, str) else names
        return sum(self_of[s.id] for name in names
                   for s in by_name.get(name, ())) / n

    def numbers(key: str) -> float:
        return sum(p["numbers"].get(key, 0.0) for p in traced) / n

    units = per_layer_units()
    out: dict[str, dict] = {}
    for platform_, stages in STAGES.items():
        out[f"run.{platform_}.calls"] = _metric(calls(f"run.{platform_}"),
                                                "count")
        out[f"run.{platform_}.s"] = _metric(total(f"run.{platform_}"), "s")
        name = f"compile.{platform_}"
        out[f"{name}.calls"] = _metric(calls(name), "count")
        out[f"{name}.s"] = _metric(total(name), "s")
        out[f"{name}.self_s"] = _metric(own(name), "s")
        out[f"{name}.failed"] = _metric(
            sum(s.error for s in by_name.get(name, ())) / n, "count")
        for stage in stages:
            out[f"{name}.{stage}.s"] = _metric(total(f"{name}.{stage}"),
                                               "s")
    runs = [s for p in PLATFORMS.values() for s in by_name.get(f"run.{p}",
                                                               ())]
    records = sum(s.extra.get("records", 0) for s in runs)
    out["sim.records"] = _metric(records / n, "count")
    out["sim.records_per_s"] = _ratio(
        records / n, sum(s.duration for s in runs) / n, "1/s",
        "s in simulator runs")

    hits = sum(sum(m["hits"].values()) for p in traced for m in p["memo"])
    misses = sum(sum(m["misses"].values()) for p in traced
                 for m in p["memo"])
    hits += numbers("worker_stage_hits") * n
    misses += numbers("worker_stage_misses") * n
    out["memo.stage_hits"] = _metric(hits / n, "count")
    out["memo.stage_misses"] = _metric(misses / n, "count")
    out["memo.hit_ratio"] = _ratio(hits / n, (hits + misses) / n, "ratio",
                                   "stage-memo consults")

    lookups = by_name.get("cache.lookup", [])
    cache_hits = sum(1 for s in lookups if s.extra.get("hit"))
    out["cache.store.calls"] = _metric(calls("cache.store"), "count")
    out["cache.store.s"] = _metric(total("cache.store"), "s")
    out["cache.stage_store.s"] = _metric(total("cache.stage_store"), "s")
    out["cache.prune.s"] = _metric(total("cache.prune"), "s")
    out["cache.lookup.calls"] = _metric(calls("cache.lookup"), "count")
    out["cache.lookup.s"] = _metric(total("cache.lookup"), "s")
    out["cache.stage_lookup.s"] = _metric(total("cache.stage_lookup"), "s")
    out["cache.hits"] = _metric(cache_hits / n, "count")
    out["cache.misses"] = _metric((len(lookups) - cache_hits) / n, "count")
    out["cache.hit_ratio"] = _ratio(cache_hits / n, len(lookups) / n,
                                    "ratio", "cache lookups")
    out["cache.disk_mb"] = _metric(numbers("cache_disk_mb"), "MB")
    out["journal.record.calls"] = _metric(calls("journal.record"), "count")
    out["journal.record.s"] = _metric(total("journal.record"), "s")
    out["journal.bytes"] = _metric(numbers("journal_bytes"), "B")
    out["observe.emit.calls"] = _metric(calls("observe.emit"), "count")
    out["observe.emit.s"] = _metric(total("observe.emit"), "s")
    out["observe.trace_bytes"] = _metric(numbers("trace_bytes"), "B")

    campaign = "campaign.run" in by_name
    if campaign:
        out["campaign.self_s"] = _metric(own("campaign.run"), "s")
        out["campaign.first_result_s"] = _metric(
            sum(p["first_result_s"] for p in traced) / n, "s")
    else:
        for key in ("campaign.self_s", "campaign.first_result_s"):
            out[key] = _metric(None, units[key],
                               na="no Campaign.run in this workload")
    out["campaign.worker_kills"] = _metric(numbers("worker_kills"), "count")
    out["campaign.pool_rebuilds"] = _metric(numbers("pool_rebuilds"),
                                            "count")
    out["resilience.retries"] = _metric(numbers("retries"), "count")
    analysis = tuple(r for r in ROOTS if r.startswith("analysis."))
    if any(name in by_name for name in analysis):
        out["core.analysis.self_s"] = _metric(own(analysis), "s")
    else:
        out["core.analysis.self_s"] = _metric(
            None, "s", na="no Tier-1/Tier-2 analyzer calls in this workload")
    out["core.report.s"] = _metric(total("core.report"), "s")
    plain_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced)
    out["bench.trace_overhead_s"] = _metric(traced_wall - plain_wall, "s")

    if getattr(workload, "cold", False) and not spilled:
        for key in out:
            if key.startswith(WORKER_SIDE):
                out[key] = _metric(None, units[key],
                                   na="worker processes left no spans")

    table = [{"layer": name, "calls": len(group) / n,
              "total_s": sum(s.duration for s in group) / n,
              "self_s": sum(self_of[s.id] for s in group) / n,
              "failed": sum(s.error for s in group) / n}
             for name, group in sorted(by_name.items())]
    return {key: out[key] for key in units}, table


def _git_commit() -> str:
    """HEAD of the repository this checkout is, or ``unknown`` -- also
    when the checkout merely sits inside some other repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel",
                               "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the package sources: identifies the code measured
    where no git metadata exists."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sha.update(path.relative_to(ROOT).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def build(args: Any, workload: Any, setups: list[tuple[float, float]],
          plain: list[dict], traced: list[dict],
          peak_rss_mb: float) -> dict[str, Any]:
    e2e = end_to_end(setups, plain, peak_rss_mb)
    passes = plain + traced
    attempted = sum(p["compared"] + p["checks"] for p in passes)
    failed = sum(len(p["mismatches"]) + len(p["failed_checks"])
                 for p in passes)
    result: dict[str, Any] = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "passes": {"untraced": len(plain), "traced": len(traced)},
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
        },
        "end_to_end": e2e,
        "reference_s": REFERENCE_S,
        "raw": raw_times(setups, plain),
        "setup_samples_s": [s for s, _ in setups],
        "cell_gaps": cell_gaps(plain),
        "pass_walls_s": {"untraced": [p["wall"] for p in plain],
                         "traced": [p["wall"] for p in traced]},
        "reference_samples_s": {
            "setup": [r for _, r in setups],
            "untraced": [p["reference"] for p in plain],
            "traced": [p["reference"] for p in traced]},
        "verification": {
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "harness_errors": sum(p["harness_errors"] for p in passes),
            "mismatches": sorted({m for p in passes
                                  for m in p["mismatches"]}),
            "failed_checks": sorted({c for p in passes
                                     for c in p["failed_checks"]}),
        },
    }
    if traced:
        result["per_layer"], result["layers"] = per_layer(workload, plain,
                                                          traced)
        result["metrics"] = result["per_layer"]
    else:
        result["metrics"] = e2e
    return result


def _fmt(entry: dict) -> str:
    if entry["value"] is None:
        return f"n/a ({entry['na']})"
    text = f"{entry['value']:.6g} {entry['unit']}"
    if "samples" in entry:
        text += f"  (n={entry['samples']})"
    if "base" in entry:
        text += f"  (of {entry['base']})"
    return text


def render(result: dict[str, Any]) -> str:
    meta = result["meta"]
    ver = result["verification"]
    lines = [f"perfbench {meta['workload']}  seed={meta['seed']}  "
             f"passes={meta['passes']}  nproc={meta['nproc']}  "
             f"python={meta['python']}  commit={meta['git_commit'][:12]}",
             "", "end to end (untraced passes; times at the reference "
             f"host speed, reference kernel {result['reference_s']} s):"]
    lines += [f"  {name:<16} {_fmt(entry)}"
              for name, entry in result["end_to_end"].items()]
    lines.append("  as measured:    " + "  ".join(
        f"{name} {value:.6g} s" for name, value in result["raw"].items()))
    lines += [f"  {name:<16} {_fmt(entry)}  (reported, not gated)"
              for name, entry in result["cell_gaps"].items()]
    lines.append(f"  {'failed_ratio':<16} {ver['failed_ratio']:.6g}  "
                 f"({ver['failed']} of {ver['attempted']} cells and checks)")
    for item in ver["mismatches"] + ver["failed_checks"]:
        lines.append(f"    FAILED: {item}")
    if "per_layer" in result:
        lines += ["", "layers (per traced pass):",
                  f"  {'layer':<28} {'calls':>9} {'total s':>10} "
                  f"{'self s':>10} {'failed':>7}"]
        lines += [f"  {row['layer']:<28} {row['calls']:>9.1f} "
                  f"{row['total_s']:>10.4f} {row['self_s']:>10.4f} "
                  f"{row['failed']:>7.1f}" for row in result["layers"]]
        lines += ["", "per-layer metrics (per traced pass):"]
        lines += [f"  {name:<28} {_fmt(entry)}"
                  for name, entry in result["per_layer"].items()]
    return "\n".join(lines)
