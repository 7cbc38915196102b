"""Folds result files of one commit into one baseline file.

    python3 perfbench/baseline.py perfbench/baseline/<name>.json \\
        perfbench/results/*.json

For each workload: the median and quartiles of every end-to-end metric
over the untraced runs, the median of every per-layer metric over the
traced runs, the seeds, pass counts and failed counts, and the machine
facts the runs recorded. Each later change that claims a gain adds one
such file, so the trajectory stays in the repository.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def fold(paths: list[Path]) -> dict:
    runs = [json.loads(path.read_text()) for path in paths]
    out: dict = {"meta": {}, "workloads": {}}
    for run in runs:
        meta = run["meta"]
        out["meta"] = {key: meta[key] for key in
                       ("git_commit", "source_sha256", "nproc", "python",
                        "platform", "seconds")}
        entry = out["workloads"].setdefault(meta["workload"], {
            "seeds": [], "passes": [], "attempted": 0, "failed": 0,
            "end_to_end": {}, "per_layer": {}})
        entry["seeds"].append(meta["seed"])
        entry["passes"].append(meta["passes"])
        entry["attempted"] += run["verification"]["attempted"]
        entry["failed"] += run["verification"]["failed"]
        section = "per_layer" if meta["trace"] else "end_to_end"
        for name, metric in run[section].items():
            entry[section].setdefault(name, {"unit": metric["unit"],
                                             "values": []})
            entry[section][name]["values"].append(metric["value"])
    for entry in out["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            for metric in entry[section].values():
                values = [v for v in metric.pop("values") if v is not None]
                metric.update(_spread(values) if values
                              else {"median": None, "runs": 0})
    return out


if __name__ == "__main__":
    target = Path(sys.argv[1])
    payload = fold([Path(p) for p in sys.argv[2:]])
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
