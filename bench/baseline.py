"""Summarize the runs in .bench_results/ into the baseline record.

    python3 bench/baseline.py > bench/baseline.json

For each workload: the seeds, and for every metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median;
the worst err/tol and the failure count of every oracle row.  The spread
is flagged against the metric's bound from BENCHMARK.json.  Traced runs
contribute the per-layer medians and the frames built per job; the run
environment is copied from the records.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def oracle_summary(recs) -> dict:
    """Per job and row: the worst err/tol over all runs, and how many failed."""
    rows = defaultdict(list)
    for rec in recs:
        for entry in rec["table"]:
            for r in entry["rows"]:
                rows[f"{r['job']} {r['label']}"].append(r)
    return {k: {"worst_err_over_tol": max(r["err"] / r["tol"] for r in v),
                "failed": sum(not r["pass"] for r in v), "checked": len(v)}
            for k, v in sorted(rows.items())}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = defaultdict(list)
    for path in sorted((ROOT / ".bench_results").glob("*.json")):
        rec = json.loads(path.read_text())
        runs[(rec["workload"], rec["trace"])].append(rec)
    out, worst = {"env": None, "workloads": {}}, []
    for (workload, trace), recs in sorted(runs.items()):
        out["env"] = recs[0]["env"]
        entry = out["workloads"].setdefault(workload, {})
        key = "traced" if trace else "end_to_end"
        entry[key] = {"seeds": sorted(r["seed"] for r in recs), "metrics": {}}
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name] for r in recs]
            med = statistics.median(vals)
            stats = {"median": med}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                stats.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
                if name in bounds and name != "setup_s":
                    worst.append((stats["spread"] / bounds[name], workload, name))
            entry[key]["metrics"][name] = stats
        entry[key]["oracle"] = oracle_summary(recs)
        if trace:
            entry[key]["frames_per_job"] = {
                e["job"]: {"built": e["frames_built"], "nodes": e["frame_nodes"]}
                for e in recs[0]["table"] if e.get("frame_nodes")}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    for ratio, workload, name in sorted(worst, reverse=True)[:5]:
        sys.stderr.write(f"spread/bound {ratio:.2f}  {workload} {name}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
