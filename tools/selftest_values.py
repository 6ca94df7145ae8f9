"""Digest every value the selftest suites check, to compare two checkouts.

    python3 tools/selftest_values.py SEED...

For each seed the script runs `run_selftest(200, seed)`, the suites of
`jointmeas selftest --trials 200 --seed SEED`, with a recorder around each
function a suite calls to get the values it checks: the theorem reports,
the observable and distribution distances, the intrinsic uncertainties, the
POVM validation reports and the marginals. A suite that evaluates many
instances with one call of a stacked form (`tradeoff_reports`,
`observable_distances`, `intrinsic_uncertainties`, `validate_povms`,
`marginals`) has each item of the result recorded under the name of its
one-instance function, encoded as that function's result would be: so
`tradeoff_reports("theorem1", ...)` feeds the `check_theorem1` stream, and
a marginal is recorded by its target labels and elements, as a `Povm`.
The items of a quantity's stacked calls are taken instance by instance:
item i of each call, in call order, before item i + 1, as a suite that
makes its four coarse-grainings of an instance one after another would
check them. Each suite prints one line,

    seed suite sha256

where the digest covers each quantity's stream of results in the order the
suite checks its instances, stream by stream in name order. Evaluating many
instances in one call changes only how the streams interleave, which the
digest does not see; any changed value, or an instance checked out of order
or not at all, changes it. The selftest's own stdout at 0 violations is the
same whatever instances a suite draws; these lines change with any of them.
The script imports the library from the `src` directory beside it, and
records only the functions the checkout's selftest module has, so to
compare two checkouts, run a copy of it in each and diff the lines.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import sys
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

import jointmeas  # noqa: E402
from jointmeas import selftest  # noqa: E402
from jointmeas.distances import distance_value  # noqa: E402
from jointmeas.povm import Povm  # noqa: E402

SUITES = (
    "suite_theorem1",
    "suite_theorem2",
    "suite_metric_axioms",
    "suite_duality",
    "suite_povm_invariants",
)
CHECKED = (
    "check_theorem1",
    "check_theorem2",
    "D_inf",
    "D_l1",
    "dist_inf",
    "dist_l1",
    "intrinsic_uncertainty_inf",
    "intrinsic_uncertainty_l1",
    "validate_povm",
    "marginalize",
)
# the stacked forms: from a call's arguments and result, the name of the
# one-instance function and that function's result for each item
STACKED = {
    "tradeoff_reports": lambda args, out: (f"check_{args[0]}", out),
    "observable_distances": lambda args, out: (
        f"D_{args[0]}",
        [distance_value(args[0], out, i, args[1].labels(i)) for i in range(len(args[1].counts))],
    ),
    "intrinsic_uncertainties": lambda args, out: (f"intrinsic_uncertainty_{args[0]}", out),
    "validate_povms": lambda args, out: ("validate_povm", out),
    "marginals": lambda args, out: ("marginalize", [out.povm(i) for i in range(len(out.counts))]),
}


def encode(value) -> bytes:
    """The bytes of one checked result: floats and arrays by their bits,
    POVMs by labels and elements, dataclasses field by field, sequences
    item by item, anything else by its repr. Each part is prefixed by its
    length."""
    if isinstance(value, Povm):
        raw = repr(value.outcomes).encode() + value.elements.tobytes()
    elif isinstance(value, np.ndarray):
        raw = repr(value.shape).encode() + value.tobytes()
    elif isinstance(value, (float, np.floating)):
        raw = np.float64(value).tobytes()
    elif dataclasses.is_dataclass(value):
        raw = b"".join(encode(getattr(value, f.name)) for f in dataclasses.fields(value))
    elif isinstance(value, (list, tuple)):
        raw = b"".join(encode(v) for v in value)
    else:
        raw = repr(value).encode()
    return len(raw).to_bytes(8, "little") + raw


@contextlib.contextmanager
def patched(names, wrap):
    """Within the block, each named function that the selftest module has
    is replaced by wrap(name, function), so the suites' calls reach the
    wrapper."""
    originals = {name: getattr(selftest, name) for name in names if hasattr(selftest, name)}
    try:
        for name, function in originals.items():
            setattr(selftest, name, wrap(name, function))
        yield
    finally:
        for name, function in originals.items():
            setattr(selftest, name, function)


@contextlib.contextmanager
def recording(sink):
    """Within the block, every value the suites check goes to
    sink(quantity, raw) as its encoding: the result of each CHECKED
    function as it returns, and each item that a stacked form returns,
    under the name of its one-instance function, when the block ends,
    instance by instance across the calls of each quantity. The block gets
    a namespace of the CHECKED functions of the package that record in the
    same way, for a reference that checks instances one at a time."""
    calls: dict[str, list[list[bytes]]] = {}

    def one(name, real):
        def call(*args):
            out = real(*args)
            sink(name, encode(out))
            return out

        return call

    def many(name, real):
        def call(*args):
            out = real(*args)
            quantity, items = STACKED[name](args, out)
            calls.setdefault(quantity, []).append([encode(item) for item in items])
            return out

        return call

    with patched(CHECKED, one), patched(STACKED, many):
        yield types.SimpleNamespace(
            **{name: one(name, getattr(jointmeas, name)) for name in CHECKED}
        )
    for quantity, found in calls.items():
        for i in range(max(map(len, found))):
            for items in found:
                if i < len(items):
                    sink(quantity, items[i])


def value_lines(seed: int, trials: int = 200):
    """One 'suite sha256' line per suite of `run_selftest(trials, seed)`."""
    digests: dict[str, str] = {}
    streams: dict = {}  # the running suite's quantity -> sha256

    def suite(name, real):
        def run(*args):
            streams.clear()
            try:
                with recording(sink):
                    return real(*args)
            finally:
                total = hashlib.sha256()
                for quantity in sorted(streams):
                    total.update(encode(quantity) + streams[quantity].digest())
                digests[name] = total.hexdigest()

        return run

    def sink(quantity, raw):
        streams.setdefault(quantity, hashlib.sha256()).update(raw)

    with patched(SUITES, suite), contextlib.redirect_stdout(io.StringIO()):
        selftest.run_selftest(trials, seed)
    for name in SUITES:
        yield f"{name.removeprefix('suite_')} {digests[name]}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args()
    for seed in args.seeds:
        for line in value_lines(seed):
            print(f"{seed} {line}", flush=True)


if __name__ == "__main__":
    main()
