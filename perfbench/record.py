"""Records the expected outcomes the benchmark checks every pass against.

``python3 perfbench/run.py --record-expected`` runs the paper suite once
and each campaign grid (full and smoke) as one-worker thread campaigns,
then rewrites ``expected/paper-suite.json`` and ``expected/campaign.json``:
per cell its status, failure type, message and phase, and a digest of
every simulated statistic; per grid the SHA-256 of the merged journal
and of the canonical merged traces on an empty and on a filled cache.
Recording refuses to write while a paper shape check fails.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import workloads


def _write(name: str, payload: dict) -> None:
    path = workloads.EXPECTED_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def record_expected(workdir: Path) -> None:
    suite = workloads.PaperSuite(workdir, False, workloads.EXPECTED_DIR)
    suite.setup()
    result = suite.run_pass(random.Random(0))
    broken = [name for name, ok in result.checks if not ok]
    if broken or result.harness_errors:
        raise SystemExit(f"not recording: {result.harness_errors} harness "
                         f"errors; failed shape checks: {broken}")
    _write("paper-suite", {"experiments": result.outcomes})

    campaign: dict = {}
    for grid in workloads.GRIDS:
        campaign[grid] = {"cells": {}, "texts": {}}
        for smoke in (False, True):
            bench = workloads.CampaignWorkload(
                "record", workdir / f"{grid}-{smoke}", smoke,
                workloads.EXPECTED_DIR, cold=True, grid=grid)
            bench.setup()
            run = bench.reference_cold(bench.workdir / "cache")
            bench.reference_warm(bench.workdir / "cache")
            if not smoke:
                campaign[grid]["cells"] = {
                    f"{label}::{cell.spec.label}":
                        workloads.cell_outcome(cell)
                    for label in run.labels for cell in run.cells[label]}
            campaign[grid]["texts"]["smoke" if smoke else "full"] = {
                name: workloads.text_digest(bench.refs[name])
                for name in ("journal", "trace_cold", "trace_warm")}
    _write("campaign", campaign)
