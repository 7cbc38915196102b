"""perfbench: the repository's end-to-end and per-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 1 \
        --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``paper-suite``, ``campaign-heavy``,
``campaign-cold`` and ``campaign-warm``. BENCHMARK.json lists the first
two. The reference grid of campaign-cold and campaign-warm is cheap, so
journal fsyncs and cache files make up most of a pass; on a shared
2-vCPU machine whose disk has slow spells their timings spread by
0.12-0.37 of the median across runs, above the 0.25 bound a gated
metric may have. They stay runnable by hand. campaign-heavy runs
campaign-cold's settings on a grid whose compile and simulation
outweigh that I/O; it still replays its grid from a warm cache once per
run to check the byte identity of the results.

One process, closed loop, a single client: each pass
starts when the previous one ends, and no workload uses more than two
workers. ``--seed`` sets the order of the experiments (paper-suite) or
of the cells within each lane (campaigns); the set of cells is fixed.

With ``--trace 0`` the run measures end-to-end metrics with the
benchmark's tracing off. With ``--trace 1`` it spends the first half of
``--seconds`` the same way and the second half with the per-layer
wrappers of ``layers.py`` installed, and reports the per-layer metrics
(per pass) plus the tracing overhead. Every pass is checked against
the expected outcomes in ``expected/``; a mismatch counts as failed.

The gated times -- set-up, pass wall time and the rate derived from
it -- are reported at a reference host speed: each is rescaled by the
time of a fixed kernel run right beside it (``hostspeed.py``), because
the speed of a shared host drifts over minutes by more than a run can
average out. The result file keeps them as measured too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result
-- samples, sample counts, bases of ratios, per-layer table, failed
checks, machine facts -- goes to ``perfbench/results/``. A per-layer
metric that cannot be measured on a workload is marked ``n/a`` there,
with its reason; the JSON line, which holds numbers only, carries 0.

Other modes: ``--smoke`` runs a tiny grid and the smoke subset of the
paper suite; ``--expected DIR`` reads expected outcomes from ``DIR``;
``--record-expected`` rewrites ``expected/`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from hostspeed import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("paper-suite", "campaign-heavy", "campaign-cold",
                  "campaign-warm")
#: Set-up is repeated this many times per run (once here, the rest in
#: fresh interpreters) and the median reported.
SETUP_SAMPLES = 5
MIN_PASSES = 2


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expected", type=Path, default=None)
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_expected:
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload or 'record'}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_expected:
            import record
            record.record_expected(workdir)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still works there
            pass


def timed_setup(args: argparse.Namespace, workdir: Path) -> tuple[Any, float]:
    start = time.perf_counter()
    import workloads
    expected = args.expected or workloads.EXPECTED_DIR
    workload = workloads.WORKLOADS[args.workload](workdir, args.smoke,
                                                  expected)
    workload.setup()
    return workload, time.perf_counter() - start


def setup_samples(args: argparse.Namespace, first: tuple[float, float]
                  ) -> list[tuple[float, float]]:
    """This run's own set-up time plus that of fresh interpreters, each
    with the reference kernel's time measured right after it."""
    samples = [first]
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload]
    if args.smoke:
        command.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        setup, reference = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(reference)))
    return samples


def run(args: argparse.Namespace, workdir: Path) -> int:
    workload, first_setup = timed_setup(args, workdir)
    first = (first_setup, reference_seconds())
    if args.setup_probe:
        print(*map(repr, first))
        return 0
    import report
    setups = setup_samples(args, first)
    workload.references()
    rng = random.Random(args.seed)

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = measure(workload, rng, budget)
    traced, tracer = [], None
    if args.trace:
        from layers import LayerTracer
        tracer = LayerTracer(workdir / "spans")
        tracer.install()
        try:
            traced = measure(workload, rng, budget, tracer)
        finally:
            tracer.uninstall()
    _join_children()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = report.build(args, workload, setups, plain, traced,
                          peak_rss_mb)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"{'-smoke' if args.smoke else ''}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(report.render(result))
    print(f"full result: {path.relative_to(ROOT)}")
    line = {
        "correct": result["verification"]["failed"] == 0,
        "attempted": result["verification"]["attempted"],
        "failed": result["verification"]["failed"],
        "metrics": {
            name: {"value": entry["value"] if entry["value"] is not None
                   else 0.0, "unit": entry["unit"]}
            for name, entry in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


def _join_children() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def measure(workload: Any, rng: random.Random, budget: float,
            tracer: Any = None) -> list[dict]:
    """Passes until their summed wall time reaches ``budget``; each is
    checked and, when traced, its spans collected, outside the timing.
    The reference kernel runs between passes; a pass's reference time
    is the mean of the runs just before and just after it."""
    passes = []
    references = []
    spent = 0.0
    while spent < budget or len(passes) < MIN_PASSES:
        # A process pool shuts down without waiting: let the previous
        # pass's workers exit before this pass starts its own.
        _join_children()
        references.append(reference_seconds())
        result = workload.run_pass(rng)
        spent += result.wall
        compared, mismatches = workload.verify(result)
        failed_checks = [name for name, ok in result.checks if not ok]
        record = {
            "wall": result.wall,
            "gaps_ms": result.gaps_ms,
            "cells": workload.cells(result),
            "compared": compared,
            "checks": len(result.checks),
            "mismatches": mismatches,
            "failed_checks": failed_checks,
            "harness_errors": result.harness_errors,
            "first_result_s": result.first_result_s,
            "numbers": workload.end_pass(result, tracer is not None),
        }
        if tracer is not None:
            record["spans"], record["spilled"] = tracer.collect()
            record["memo"] = [memo.stats() for memo in tracer.memos]
            tracer.memos.clear()
        passes.append(record)
    _join_children()
    references.append(reference_seconds())
    for record, before, after in zip(passes, references, references[1:]):
        record["reference"] = (before + after) / 2
    return passes


if __name__ == "__main__":
    sys.exit(main())
