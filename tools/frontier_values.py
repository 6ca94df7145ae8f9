"""Digest every frontier point of three fixed pairs, to compare two checkouts.

    python3 tools/frontier_values.py

The script runs three frontiers and prints one line per point,

    pair x_target x_achieved y_achieved y_lower sha256

with each float as its repr and the digest over the witness's outcome
labels and element bytes. The pairs are:

- `qubit`: the orthogonal sharp z/x qubits, `frontier_sweep` on grid 6 at
  the default resolution and budget, which is `jointmeas frontier --grid 6`;
- `qutrit-seed7`: the first two sharp PVMs of the benchmark's
  `noisy_pvm(default_rng(7), 3, 1.0)`, at X = 0, 0.05, 0.1 and 0.2, one
  sweep at resolution 1e-3 and QUTRIT_MAX_ITER iterations;
- `random-101-201`: `random_povm(3, 3, 101)` against
  `random_povm(3, 3, 201)`, `frontier_sweep` on grid 3 up to X = 0.002 at
  60 iterations, where the witness carried forward and the lower end
  carried backward both decide a point.

Any changed bit of a value or a witness changes a line. The script imports
the library from the `src` directory beside it, and the seed-7 pair's draw
from `perfbench/workloads.py`, so to compare two checkouts, run a copy of it
in each and diff the lines.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from jointmeas import feasibility  # noqa: E402
from jointmeas.povm import Povm, bloch_pvm, random_povm  # noqa: E402

QUTRIT_XS = [0.0, 0.05, 0.1, 0.2]
QUTRIT_MAX_ITER = 600


def qutrit_seed7() -> tuple[Povm, Povm]:
    rng = np.random.default_rng(7)
    a, b = (workloads.noisy_pvm(rng, 3, 1.0) for _ in range(2))
    return Povm(("a0", "a1", "a2"), a), Povm(("b0", "b1", "b2"), b)


def frontiers():
    """(pair name, frontier points) for each of the three pairs."""
    z, x = bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))
    yield "qubit", feasibility.frontier_sweep(z, x, 6)
    a, b = qutrit_seed7()
    yield "qutrit-seed7", feasibility._frontier(a, b, QUTRIT_XS, 1e-3, QUTRIT_MAX_ITER)
    a, b = random_povm(3, 3, 101), random_povm(3, 3, 201)
    yield "random-101-201", feasibility.frontier_sweep(a, b, 3, x_max=0.002, max_iter=60)


def witness_digest(w: Povm) -> str:
    h = hashlib.sha256(repr(w.outcomes).encode())
    h.update(w.elements.tobytes())
    return h.hexdigest()


def value_lines():
    """One 'pair x_target x_achieved y_achieved y_lower sha256' line per point."""
    for name, points in frontiers():
        for p in points:
            values = (p.x_target, p.x_achieved, p.y_achieved, p.y_lower)
            yield f"{name} {' '.join(map(repr, values))} {witness_digest(p.witness)}"


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for line in value_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
