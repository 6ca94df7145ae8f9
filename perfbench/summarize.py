"""Summarize benchmark result records.

    python3 perfbench/summarize.py [RECORD.json ...] [--out SUMMARY.json]

Reads the records run.py writes (by default every file under
.perfbench/results/) and, per workload and trace mode, gives each metric's
median, quartiles and spread: the distance between the quartiles as a share
of the median, as statistics.quantiles(values, n=4) gives them. Also lists
the seeds, failures, quality figures, verdict counts and output digests per
run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for r in records:
        groups[f"{r['workload']} trace={r['trace']}"].append(r)
    out = {}
    for key, runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out[key] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "git_commit": runs[0].get("git_commit"),
            "environment": runs[0]["environment"],
            "seconds": runs[0]["seconds"],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "quality": [r["quality"] for r in runs],
            "verdicts": [r["verdicts"] for r in runs],
            "digests": [r["digests"] for r in runs],
            "metrics": metrics,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()
    paths = args.records or sorted(Path(".perfbench/results").glob("*.json"))
    summary = summarize([json.loads(p.read_text(encoding="utf-8")) for p in paths])
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, seeds {group['seeds']}, failed {sum(group['failed'])}")
        for name, m in group["metrics"].items():
            print(
                f"  {name:58s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                f"q3 {m['q3']:<12.6g} spread {m['spread']:.3f} {m['unit']}"
            )
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
