"""Digest every benchmark item's complete output, to compare two checkouts.

    python3 tools/output_digests.py WORK_DIR SEED...

For each seed and each workload of perfbench/workloads.py, the script
generates the workload's inputs into WORK_DIR and runs its items through
`cli_dispatch` in this one process. Each item prints one line,

    workload item sha256

where the digest covers the exit code, stdout, stderr and every output file
of the call. The script imports the library from the `src` directory beside
it, so to compare two checkouts, run a copy of it in each with the same
WORK_DIR and diff the lines; generated paths then print the same in both.
It reads the benchmark's workload definitions and changes nothing under
perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from jointmeas.cli import cli_dispatch  # noqa: E402


def item_digest(item: workloads.Item) -> str:
    """sha256 of one call's exit code, stdout, stderr and output files, each
    part prefixed by its length. A call that raises records its exception
    line, not the traceback, whose paths differ between checkouts."""
    for path in item.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli_dispatch(item.argv))
        except Exception as e:
            code = "raised"
            err.write("".join(traceback.format_exception_only(e)))
    parts = [code.encode(), out.getvalue().encode(), err.getvalue().encode()]
    for path in item.outputs:
        parts.append(path.name.encode())
        parts.append(path.read_bytes() if path.exists() else b"(absent)")
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def digest_lines(work: Path, seed: int, names=workloads.WORKLOADS):
    """One 'workload item sha256' line per item of each named workload."""
    for name in names:
        for item in workloads.build(name, seed, work):
            yield f"{name} {item.name} {item_digest(item)}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work", type=Path, metavar="WORK_DIR")
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        for line in digest_lines(args.work, seed):
            print(line, flush=True)


if __name__ == "__main__":
    main()
