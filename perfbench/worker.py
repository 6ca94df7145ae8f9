"""One workload in one single-threaded process.

run.py starts this with the BLAS thread variables set to 1 and `src` on
PYTHONPATH. The process imports the library, generates the workload's inputs
from the seed, and then, by mode:

- setup:   stops at the first timed call (run.py times interpreter start to
           that point);
- measure: runs untraced passes over the workload for about --seconds,
           with the CPU's pace sampled (pace.py);
- trace:   runs untraced and traced passes in turn, then the layer
           micro-benchmarks, and writes the spans.

Its findings go to --out as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import pace
import workloads
from jointmeas.cli import cli_dispatch
from tracer import Tracer

MAX_REPORTED_FAILURES = 20


@dataclass
class Pass:
    item_intervals: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def item_seconds(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.item_intervals]

    @property
    def wall(self) -> float:
        return sum(self.item_seconds)


def run_item(item: workloads.Item, tracer: Tracer | None) -> tuple[float, float, int | None, str]:
    """One timed CLI call: (start, seconds, exit code or None if it raised,
    stdout)."""
    for path in item.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    sid = tracer.open(tracer.name_id(f"cli.{item.argv[0]}")) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(item.argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(sid)
    stdout = out.getvalue()
    if code is None:
        stdout += err.getvalue()
    return start, seconds, code, stdout


def checked(item: workloads.Item, code: int | None, stdout: str) -> workloads.Check:
    """The item's oracle verdict; every unit fails if the call raised or its
    output cannot be read."""
    if code is None:
        reason = "raised: " + stdout.strip().splitlines()[-1]
    else:
        try:
            return item.check(code, stdout)
        except Exception as e:
            reason = f"output could not be checked: {e!r}"
    check = workloads.Check()
    for unit in range(item.units):
        check.fail(unit, reason)
    return check


def run_pass(items: list[workloads.Item], tracer: Tracer | None = None) -> Pass:
    p = Pass()
    for item in items:
        start, seconds, code, stdout = run_item(item, tracer)
        p.item_intervals.append((start, start + seconds))
        p.attempted += item.units
        check = checked(item, code, stdout)
        p.failures += [f"{item.name}[{u}]: {why}" for u, why in sorted(check.failures.items())]
        if check.verdict:
            p.verdicts[check.verdict] += 1
        p.quality.update(check.quality)
        p.digests[item.name] = workloads.sha256(stdout.encode())
        for path in item.outputs:
            if path.exists():
                p.digests[f"{item.name}:{path.name}"] = workloads.sha256(path.read_bytes())
    return p


def run_for(budget: float, items) -> list[Pass]:
    """Two whole passes, so that wall_s is a median of two or more, then more
    while the next one is expected to end within `budget` seconds."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(items))
        if len(passes) >= 2 and time.monotonic() - start + passes[-1].wall > budget:
            return passes


def run_traced(budget: float, items, tracer: Tracer) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes in turn, so that both meet the same spells
    of the host, while the next pair is expected to end within `budget`
    seconds: (untraced, traced)."""
    untraced, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start + untraced[-1].wall + traced[-1].wall <= budget:
        untraced.append(run_pass(items))
        layers.install(tracer)
        try:
            traced.append(run_pass(items, tracer))
        finally:
            tracer.uninstall()
    return untraced, traced


def pooled(passes: list[Pass]) -> dict:
    first = passes[0]
    quality = dict(first.quality)
    n_verdicts = sum(first.verdicts.values())
    if n_verdicts:
        quality["undecided_rate"] = first.verdicts["undecided"] / first.attempted
    failures = [f for p in passes for f in p.failures]
    return {
        "passes": len(passes),
        "item_seconds": [p.item_seconds for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "verdicts": dict(first.verdicts),
        "quality": quality,
        "digests": first.digests,
        "outputs_identical_across_passes": all(p.digests == first.digests for p in passes),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="trace mode: where to write the spans")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    items = workloads.build(args.workload, args.seed, args.workdir)
    record: dict = {"first_call_at": time.monotonic(), "item_units": [i.units for i in items]}
    record["setup_slowdown"] = pace.probe()
    if args.mode == "measure":
        with pace.Pace() as sampler:
            passes = run_for(args.seconds, items)
        record.update(pooled(passes))
        record["raw_item_seconds"] = record["item_seconds"]
        record["item_seconds"] = [sampler.at_reference(p.item_intervals) for p in passes]
        record["pace_samples"] = len(sampler.durations)
    elif args.mode == "trace":
        tracer = Tracer(run_id=args.spans.stem)
        untraced, traced = run_traced(args.seconds, items, tracer)
        per_layer = layers.summarize(tracer, len(traced))
        walls = [statistics.median(p.wall for p in ps) for ps in (traced, untraced)]
        per_layer["trace.overhead_ratio"] = walls[0] / walls[1]
        per_layer.update(layers.micro_benchmarks(workloads.micro_inputs(args.seed)))
        tracer.write(args.spans)
        record.update(pooled(untraced + traced))
        record["traced_passes"] = len(traced)
        record["per_layer"] = per_layer
    if args.mode != "setup":
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["environment"] = environment()
    args.out.write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
