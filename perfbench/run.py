"""jointmeas benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a jointmeas checkout; the library is imported from
`src`, nothing is installed. Each workload runs in its own worker process
(perfbench/worker.py), one at a time, with BLAS threads pinned to 1.

--trace 0 starts one worker that runs untraced passes for about S seconds
and SETUP_WORKERS more, half before it and half after, that stop at the
first timed call; it prints the end-to-end metrics, with every time at the
reference pace of pace.py. --trace 1 starts one worker that runs untraced and
traced passes and the layer micro-benchmarks, and prints the per-layer
metrics. Either way every output is checked against an oracle, a full
record goes to .perfbench/results/, and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_WORKERS = 4
# Every worker must end before this many seconds have passed since start.
DEADLINE_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, root: Path, work: Path, mode: str, tag: str, started: float, spans=None) -> dict:
    """Start one worker, wait for it, and return its record with `setup_s`,
    the time from its start to its first timed call at the reference pace."""
    out = work / f"{tag}.json"
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    cmd += ["--workdir", str(work / "inputs" / tag), "--out", str(out)]
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise WorkerError(f"no time left to start the {tag} worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{tag} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.exists():
        raise WorkerError(f"{tag} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(out.read_text(encoding="utf-8"))
    record["raw_setup_s"] = record["first_call_at"] - spawned
    record["setup_s"] = record["raw_setup_s"] / record["setup_slowdown"]
    return record


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups: list[float], main: dict) -> dict[str, float]:
    """wall_s is the median time of a whole pass over the input set. The
    item percentiles pool the units of every pass, a call of k units counting
    k times at 1/k of its latency."""
    units = main["item_units"]
    lat = [t / k for p in main["item_seconds"] for t, k in zip(p, units) for _ in range(k)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([sum(p) for p in main["item_seconds"]]),
        "item_p50_s": statistics.median(lat),
        "item_p90_s": percentile(lat, 90),
        "peak_rss_mb": main["peak_rss_kb"] / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    # SIGTERM raises SystemExit, so the worker being waited on is killed and
    # reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "jointmeas" / "cli.py").is_file():
        print(f"error: {root} is not a jointmeas checkout (no src/jointmeas/cli.py)", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = out_dir / "work" / run_id
    work.mkdir(parents=True)
    try:
        if args.trace:
            (out_dir / "spans").mkdir(exist_ok=True)
            spans = out_dir / "spans" / f"{run_id}.npz"
            main_rec = run_worker(args, root, work, "trace", "trace", started, spans)
            setups = [main_rec["setup_s"]]
            raw_setups = [main_rec["raw_setup_s"]]
            units = layers.metric_units()
            values = main_rec["per_layer"]
        else:
            spans = None
            # set-up samples before and after the measuring worker, so they
            # do not all fall into one spell of the host
            setup = lambda k: run_worker(args, root, work, "setup", f"setup{k}", started)  # noqa: E731
            setup_recs = [setup(k) for k in range(SETUP_WORKERS // 2)]
            main_rec = run_worker(args, root, work, "measure", "measure", started)
            setup_recs += [main_rec] + [setup(k) for k in range(SETUP_WORKERS // 2, SETUP_WORKERS)]
            setups = [r["setup_s"] for r in setup_recs]
            raw_setups = [r["raw_setup_s"] for r in setup_recs]
            units = END_TO_END_UNITS
            values = end_to_end(setups, main_rec)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = main_rec["attempted"], main_rec["failed"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "environment": main_rec["environment"],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": main_rec["failures"],
        "metrics": metrics,
        "quality": main_rec["quality"],
        "verdicts": main_rec["verdicts"],
        "digests": main_rec["digests"],
        "outputs_identical_across_passes": main_rec["outputs_identical_across_passes"],
        "samples": {
            "setup": len(setups),
            "passes": main_rec["passes"],
            "traced_passes": main_rec.get("traced_passes", 0),
            "items": len(main_rec["item_units"]),
            "item_samples": main_rec["passes"] * sum(main_rec["item_units"]),
            "setup_s": setups,
            "raw_setup_s": raw_setups,
            "item_seconds": main_rec["item_seconds"],
            "raw_item_seconds": main_rec.get("raw_item_seconds"),
            "pace_samples": main_rec.get("pace_samples"),
        },
        "spans_file": str(spans.relative_to(root)) if spans else None,
    }
    (out_dir / "results").mkdir(exist_ok=True)
    record_path = out_dir / "results" / f"{run_id}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    quality = " ".join(f"{k}={v:.6g}" for k, v in sorted(record["quality"].items()))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} passes={main_rec['passes']} "
        f"item_samples={record['samples']['item_samples']} failed_ratio={record['failed_ratio']:.6g} "
        f"verdicts={json.dumps(record['verdicts'], sort_keys=True)} {quality} "
        f"record={record_path.relative_to(root)}"
    )
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
