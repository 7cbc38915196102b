"""Smoke tests of the benchmark itself, on the tiny grid.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload run.py knows, BENCHMARK.json's and the by-hand ones.
WORKLOADS = ("paper-suite", "campaign-heavy", "campaign-cold",
             "campaign-warm")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT
          ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.2", "--trace",
         str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    line = last_line(bench(workload, trace))
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in line["metrics"].items()
            } == {m["name"]: m["unit"] for m in declared}
    for entry in line["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_times_are_rescaled_by_a_reference_beside_each_sample():
    line = last_line(bench("campaign-warm", 0))
    result = json.loads((ROOT / "perfbench" / "results" /
                         "campaign-warm-seed3-trace0-smoke.json").read_text())
    references = result["reference_samples_s"]
    assert len(references["untraced"]) == len(
        result["pass_walls_s"]["untraced"])
    assert len(references["setup"]) == len(result["setup_samples_s"])
    assert all(r > 0 for r in references["setup"] + references["untraced"])
    raw, scale = result["raw"], result["reference_s"]
    # Every sample is rescaled by its own reference, so the medians agree
    # with the raw ones to within the spread of the references.
    for name in ("setup_s", "wall_s"):
        ratio = line["metrics"][name]["value"] / raw[name]
        assert (scale / max(references["setup"] + references["untraced"])
                <= ratio <= scale / min(references["setup"]
                                        + references["untraced"]))


@pytest.mark.parametrize("workload, file, group, cell", [
    ("paper-suite", "paper-suite", "table1", "table1/L78"),
    ("campaign-heavy", "campaign", "heavy", "CS-2::L24/b8"),
    ("campaign-warm", "campaign", "reference", "Bow-2000::L12/b16"),
    ("campaign-cold", "campaign", "reference", "CS-2::L4/b16"),
])
def test_a_corrupted_expected_outcome_raises_failed_ratio(
        tmp_path, workload, file, group, cell):
    expected = tmp_path / "expected"
    shutil.copytree(ROOT / "perfbench" / "expected", expected)
    path = expected / f"{file}.json"
    payload = json.loads(path.read_text())
    cells = (payload["experiments"][group] if file == "paper-suite"
             else payload[group]["cells"])
    cells[cell] = {"status": "ok", "digest": "corrupted"}
    path.write_text(json.dumps(payload))

    line = last_line(bench(workload, 0, "--expected", str(expected)))
    assert not line["correct"]
    assert line["failed"] >= 1
    result = json.loads((ROOT / "perfbench" / "results" /
                         f"{workload}-seed3-trace0-smoke.json").read_text())
    assert result["verification"]["failed_ratio"] > 0
    assert any(cell in m for m in result["verification"]["mismatches"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = bench("paper-suite", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
