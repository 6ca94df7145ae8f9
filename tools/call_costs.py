"""Time the calls of the check-joint path, to compare two checkouts.

    python3 tools/call_costs.py [--seed N]

The script builds the joint-corpus inputs of perfbench/workloads.py for the
seed in a temporary directory and picks the first feasible qubit pair and
the first feasible d = 3 pair. For each call below it prints

    call pair microseconds-per-call runs

where the time is the best of REPEATS rounds, each of which times N runs
of every call, with N chosen so that one timing takes about TIMING_S. A
timing reads the CPU time of the calling thread (`time.thread_time`),
kernel time included, which other processes on a shared host disturb less
than wall time. The calls are:

- `load_povm` of the pair's A document;
- `save_povm` of the pair's witness (4 and 9 outcomes) into a new file;
- `validate_povm` of A;
- `check_corollary_joint` of the pair;
- `check_joint_measurability` of the qubit pair;
- the whole `check-joint` CLI item of the qubit pair through
  `cli_dispatch`, with its stdout kept in memory and its witness written
  into a new file.

The script imports the library from the `src` directory beside it and sets
the BLAS thread variables to 1, as the benchmark does, unless they are set.
It reads the benchmark's workload definitions and changes nothing under
perfbench/. To compare two checkouts, run a copy of it in each, alternating
the processes, and take each row's median over the runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from jointmeas.bounds import check_corollary_joint  # noqa: E402
from jointmeas.cli import cli_dispatch  # noqa: E402
from jointmeas.feasibility import check_joint_measurability  # noqa: E402
from jointmeas.io import load_povm, save_povm  # noqa: E402
from jointmeas.povm import Povm, validate_povm  # noqa: E402

REPEATS = 7
TIMING_S = 0.02


def timing(run, inputs, n: int) -> float:
    """Seconds of CPU time that run(x) takes over the n values x of
    inputs(n), which are made untimed."""
    xs = inputs(n)
    start = time.thread_time()
    for x in xs:
        run(x)
    return time.thread_time() - start


def runs_per_timing(run, inputs) -> int:
    """N such that N runs take about TIMING_S, after a warm-up run."""
    timing(run, inputs, 1)
    n = 1
    while (seconds := timing(run, inputs, n)) < TIMING_S / 4 and n < 1 << 16:
        n *= 2
    return max(1, round(n * TIMING_S / max(seconds, 1e-9)))


def feasible_pair(items, dim: int):
    """(A path, B path, witness) of the first feasible pair of `dim`."""
    for item in items:
        pa, pb = Path(item.argv[1]), Path(item.argv[2])
        (a, _), (b, _) = load_povm(pa), load_povm(pb)
        if a.dim == dim and (result := check_joint_measurability(a, b)).status == "feasible":
            return pa, pb, result.witness
    raise SystemExit(f"no feasible d = {dim} pair in the corpus")


def pair_calls(pa: Path, pb: Path, w, out: Path, cli: bool) -> list[tuple]:
    """(call, run, inputs) of each timed call on the pair of documents pa and
    pb with the witness w, and of the CLI item if `cli`. Each call gets its
    inputs as the CLI has them: the POVMs as `load_povm` returns them, a new
    one each run (`validate_povm` gets them unvalidated), and a path that
    names no file for each write."""
    a, _ = load_povm(pa)
    fresh = (a.outcomes, a.elements)

    def loaded(n: int) -> list[tuple]:
        return [(load_povm(pa)[0], load_povm(pb)[0]) for _ in range(n)]

    def new_paths(n: int) -> list[Path]:
        paths = [out / f"{k}.json" for k in range(n)]
        for path in paths:
            path.unlink(missing_ok=True)
        return paths

    def cli_item(path: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_dispatch(["check-joint", str(pa), str(pb), "--witness-out", str(path)]) != 0:
                raise SystemExit("the feasible pair's check-joint failed")

    calls = [
        ("load_povm", lambda x: load_povm(pa), lambda n: [None] * n),
        ("save_povm", lambda path: save_povm(w, path), new_paths),
        ("validate_povm", validate_povm, lambda n: [Povm(*fields) for fields in [fresh] * n]),
        ("check_corollary_joint", lambda ab: check_corollary_joint(*ab), loaded),
    ]
    if cli:
        calls += [
            ("check_joint_measurability", lambda ab: check_joint_measurability(*ab), loaded),
            ("cli_check_joint", cli_item, new_paths),
        ]
    return calls


def cost_lines(seed: int, work: Path):
    """One 'call pair microseconds runs' line per timed call, the CLI item
    for the qubit pair only."""
    items = workloads.build("joint-corpus", seed, work)
    out = work / "out"
    out.mkdir()
    rows = []
    for name, dim in (("qubit", 2), ("d3", 3)):
        calls = pair_calls(*feasible_pair(items, dim), out, cli=dim == 2)
        rows += [(f"{call} {name}", run, inputs) for call, run, inputs in calls]
    runs = [runs_per_timing(run, inputs) for _, run, inputs in rows]
    # each round times every row once, so a spell of a busy host slows one
    # round of all rows, which the best of REPEATS rounds leaves out
    best = [float("inf")] * len(rows)
    for _ in range(REPEATS):
        for k, ((_, run, inputs), n) in enumerate(zip(rows, runs)):
            best[k] = min(best[k], timing(run, inputs, n))
    for (label, _, _), n, seconds in zip(rows, runs, best):
        yield f"{label} {seconds / n * 1e6:.1f} {n}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        for line in cost_lines(args.seed, Path(work)):
            print(line, flush=True)


if __name__ == "__main__":
    main()
