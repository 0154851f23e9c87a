"""Quartiles of every metric over the run records under ``.bench_out/``.

Usage: python3 perfbench/summarize.py [OUT.json]

Groups the ``result.json`` of each run by workload and trace mode and gives,
for every metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, their distance as a share of the
median (the spread), the seeds and the number of runs.  Prints one line per
metric and, given a path, writes the summary there as JSON.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records):
    groups = {}
    for record in records:
        env = record["env"]
        groups.setdefault(f"{env['workload']} trace={env['trace']}", []).append(record)
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name, metric in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else None,
            }
        env = dict(runs[0]["env"])
        del env["seed"]
        out[key] = {
            "runs": len(runs),
            "seeds": sorted(run["env"]["seed"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "env": env,
            "metrics": metrics,
        }
    return out


def main(argv):
    paths = sorted((ROOT / ".bench_out").glob("*/result.json"))
    summary = summarize([json.loads(p.read_text()) for p in paths])
    for key, group in summary.items():
        print(f"== {key}: {group['runs']} runs, {group['failed']}/{group['attempted']} failed")
        for name, m in group["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{name:34s} {m['median']:12.6g} {m['unit']:8s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread}")
    if argv:
        Path(argv[0]).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
