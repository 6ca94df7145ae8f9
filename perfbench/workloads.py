"""Seeded inputs and oracles for the benchmark workloads.

Everything here uses numpy only, so neither the inputs nor the checks depend
on the code being measured. A workload is a fixed list of CLI calls
(`Item`s) whose inputs are written into a work directory; each item checks
its own exit code, stdout and output files.

An item covers one or more *units*: a frontier call covers one unit per grid
point, every other call covers one. Attempted and failed counts are kept in
units.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Tolerances of the library's own witness verification (feasibility.py):
# entrywise completeness and operator-norm marginal deviation. The PSD floor
# is validate_povm's default.
WITNESS_COMPLETENESS_TOL = 1e-7
WITNESS_MARGINAL_TOL = 1e-6
PSD_TOL = 1e-9
# Printed numbers carry 12 significant digits.
PRINT_RTOL = 1e-9
BOUND_TOL = 1e-9

FRONTIER_GRID = 6
# Draws the fixed d = 3 part of the joint corpus.
CORPUS_SEED = 2008
SELFTEST_TRIALS = 200

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


@dataclass
class Check:
    """What one call produced: failed units with a reason, the verdict (for
    check-joint) and any quality figures."""

    failures: dict[int, str] = field(default_factory=dict)
    verdict: str | None = None
    quality: dict[str, float] = field(default_factory=dict)

    def fail(self, unit: int, reason: str) -> None:
        self.failures.setdefault(unit, reason)


@dataclass
class Item:
    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[int, str], Check]
    units: int = 1


# --- generators ------------------------------------------------------------


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def wishart_povm(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Full-rank random POVM: S^(-1/2) G_k S^(-1/2) with Wishart G_k."""
    r = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    g = r @ np.conj(np.swapaxes(r, -1, -2))
    w, u = np.linalg.eigh(g.sum(axis=0))
    inv_sqrt = (u / np.sqrt(w)) @ np.conj(u.T)
    e = inv_sqrt @ g @ inv_sqrt
    return (e + np.conj(np.swapaxes(e, -1, -2))) / 2


def qubit_povm(r: np.ndarray) -> np.ndarray:
    """Unbiased two-outcome qubit POVM {(I + r.sigma)/2, (I - r.sigma)/2}."""
    s = np.einsum("k,kij->ij", r, PAULI)
    eye = np.eye(2, dtype=complex)
    return np.stack([(eye + s) / 2, (eye - s) / 2])


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def busch_value(a: np.ndarray, b: np.ndarray) -> float:
    """Busch (1986): unbiased qubit POVMs with Bloch vectors a, b are jointly
    measurable iff ||a + b|| + ||a - b|| <= 2."""
    return float(np.linalg.norm(a + b) + np.linalg.norm(a - b))


def busch_pair(rng: np.random.Generator, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors of unequal length at a random angle, scaled so that the
    Busch value is 2 (1 + delta)."""
    while True:
        n = random_unit(rng)
        w = random_unit(rng)
        w = w - np.dot(w, n) * n
        w /= np.linalg.norm(w)
        theta = rng.uniform(math.pi / 4, math.pi / 2)
        m = math.cos(theta) * n + math.sin(theta) * w
        ratio = rng.uniform(0.5, 0.9)
        eta = 2 * (1 + delta) / busch_value(n, ratio * m)
        if eta <= 1:
            return eta * n, eta * ratio * m


def noisy_pvm(rng: np.random.Generator, d: int, eta: float) -> np.ndarray:
    """Rank-one PVM in a Haar-random basis, mixed with white noise."""
    u = haar_unitary(rng, d)
    proj = np.einsum("ik,jk->kij", u, np.conj(u))
    return eta * proj + (1 - eta) * np.eye(d) / d


# --- file formats ----------------------------------------------------------


def labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in range(n)]


def write_povm(path: Path, outcomes: list[str], mats: np.ndarray) -> None:
    """POVM document in the format of docs/file-formats.md."""
    doc = {
        "format_version": "1",
        "dim": int(mats.shape[1]),
        "outcomes": outcomes,
        "elements": {
            o: [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
            for o, m in zip(outcomes, mats)
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_povm(path: Path) -> tuple[list[str], np.ndarray]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    d = doc["dim"]
    outcomes = doc["outcomes"]
    mats = np.array(
        [[complex(re, im) for re, im in doc["elements"][o]] for o in outcomes]
    ).reshape(len(outcomes), d, d)
    return outcomes, mats


def parse_fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- independent numerics --------------------------------------------------


def op_norms(ms: np.ndarray) -> np.ndarray:
    h = (ms + np.conj(np.swapaxes(ms, -1, -2))) / 2
    return np.abs(np.linalg.eigvalsh(h)).max(axis=-1)


def subset_sums(e: np.ndarray) -> np.ndarray:
    """Sums of e over every subset of its first axis, built by doubling.
    Subset k holds element j iff bit j of k is set."""
    sums = np.zeros((1,) + e.shape[1:], dtype=complex)
    for m in e:
        sums = np.concatenate([sums, sums + m])
    return sums


# The oracles run in the measuring process, whose peak RSS is a metric, so
# they hold at most 2^CHUNK_BITS subset sums (256 KiB at dim 4) at a time.
CHUNK_BITS = 10


def subset_sum_chunks(e: np.ndarray):
    """The sums of subset_sums(e), in chunks of at most 2^CHUNK_BITS."""
    low = subset_sums(e[:CHUNK_BITS])
    for high in subset_sums(e[CHUNK_BITS:]):
        yield low + high


def close(printed: str, exact: float) -> bool:
    return abs(float(printed) - exact) <= PRINT_RTOL * max(1.0, abs(exact))


def d_l1(a: np.ndarray, b: np.ndarray) -> float:
    # the differences sum to zero, so a subset and its complement tie and
    # the last outcome can be left out
    return max(float(op_norms(s).max()) for s in subset_sum_chunks((a - b)[:-1]))


def v_l1(a: np.ndarray) -> float:
    return max(float(op_norms(s - s @ s).max()) for s in subset_sum_chunks(a[:-1]))


def subset_comm(a: np.ndarray, b: np.ndarray) -> float:
    best = 0.0
    for sb in subset_sum_chunks(b[:-1]):
        for sa in subset_sum_chunks(a[:-1]):
            for x in sa:
                prod = x @ sb
                best = max(best, float(op_norms(1j * (prod - np.conj(np.swapaxes(prod, -1, -2)))).max()))
    return best


def frontier_exact(x: float) -> float:
    """Closed-form frontier of the orthogonal sharp qubit pair."""
    return (1 - math.sqrt(max(0.0, 1 - (1 - 2 * x) ** 2))) / 2


def product_bound_lhs(x: float, y: float) -> float:
    return 2 * x * y + x + y + 4 * math.sqrt(x * y)


def additive_bound(theta: float) -> float:
    return math.sqrt(0.5) * (math.cos(theta / 2) + math.sin(theta / 2) - 1)


# --- workloads -------------------------------------------------------------


def frontier_qubit(rng: np.random.Generator, work: Path) -> list[Item]:
    """The sharp z/x qubit pair in a seeded random frame (the frontier is
    unitarily invariant, so the oracle does not depend on the frame)."""
    u = haar_unitary(rng, 2)
    z = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    x = np.stack([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]]).astype(complex)
    a = u @ z @ np.conj(u.T)
    b = u @ x @ np.conj(u.T)
    pa, pb, out = work / "A.json", work / "B.json", work / "frontier.csv"
    write_povm(pa, ["+", "-"], a)
    write_povm(pb, ["+", "-"], b)
    grid = np.linspace(0.0, 0.5, FRONTIER_GRID)
    comm = 0.5  # ||[Z+, X+]|| = sin(pi/2) / 2
    line = additive_bound(math.pi / 2)

    def check(code: int, stdout: str) -> Check:
        c = Check()
        if code != 0:
            for k in range(FRONTIER_GRID):
                c.fail(k, f"exit code {code}")
            return c
        rows = out.read_text(encoding="utf-8").splitlines()
        if rows[0] != "X_target,X_achieved,Y_achieved" or len(rows) != FRONTIER_GRID + 1:
            for k in range(FRONTIER_GRID):
                c.fail(k, "malformed frontier CSV")
            return c
        err = 0.0
        for k, row in enumerate(rows[1:]):
            xt, xa, ya = (float(v) for v in row.split(","))
            if abs(xt - grid[k]) > 1e-12:
                c.fail(k, f"X_target {xt} is not grid point {grid[k]}")
            if xa > xt + WITNESS_MARGINAL_TOL:
                c.fail(k, f"X_achieved {xa} exceeds the budget {xt}")
            if product_bound_lhs(xa, ya) < comm - BOUND_TOL:
                c.fail(k, f"({xa}, {ya}) lies below the product-bound curve")
            if xa + ya < line - BOUND_TOL:
                c.fail(k, f"({xa}, {ya}) lies below the additive line")
            err = max(err, abs(ya - frontier_exact(xt)))
        c.quality["frontier_max_err"] = err
        return c

    item = Item(
        "frontier",
        ["frontier", str(pa), str(pb), "--grid", str(FRONTIER_GRID), "--out", str(out)],
        [out],
        check,
        units=FRONTIER_GRID,
    )
    return [item]


def _check_witness(path: Path, a: np.ndarray, b: np.ndarray, oa, ob) -> str | None:
    """Re-check a feasible witness: PSD elements, completeness and both
    marginals, against the library's tolerances."""
    if not path.exists():
        return "feasible without a witness file"
    outcomes, f = read_povm(path)
    index = {o: k for k, o in enumerate(outcomes)}
    expected = [f"{x}|{y}" for x in oa for y in ob]
    if sorted(outcomes) != sorted(expected):
        return "witness outcomes are not the product outcome set"
    d = a.shape[1]
    grid = f[[index[o] for o in expected]].reshape(len(oa), len(ob), d, d)
    if np.abs(f - np.conj(np.swapaxes(f, -1, -2))).max() > 1e-9:
        return "witness element is not Hermitian"
    if np.linalg.eigvalsh(f).min() < -PSD_TOL:
        return "witness element is not PSD"
    if np.abs(f.sum(axis=0) - np.eye(d)).max() > WITNESS_COMPLETENESS_TOL:
        return "witness elements do not sum to the identity"
    dev = max(op_norms(grid.sum(axis=1) - a).max(), op_norms(grid.sum(axis=0) - b).max())
    if dev > WITNESS_MARGINAL_TOL:
        return f"witness marginals deviate by {dev:.3e}"
    return None


def _joint_item(work: Path, k: int, a: np.ndarray, b: np.ndarray, busch: float | None) -> Item:
    oa, ob = labels("a", a.shape[0]), labels("b", b.shape[0])
    pa, pb, pw = work / f"A{k:02d}.json", work / f"B{k:02d}.json", work / f"W{k:02d}.json"
    write_povm(pa, oa, a)
    write_povm(pb, ob, b)

    def check(code: int, stdout: str) -> Check:
        c = Check()
        status = parse_fields(stdout).get("status")
        c.verdict = status
        expected_code = {"feasible": 0, "infeasible": 1, "undecided": 1}.get(status)
        if expected_code is None:
            c.fail(0, f"no verdict (exit code {code})")
        elif code != expected_code:
            c.fail(0, f"{status} with exit code {code}")
        elif busch is not None and status == "feasible" and busch > 2:
            c.fail(0, f"feasible but the Busch value is {busch:.6f} > 2")
        elif busch is not None and status == "infeasible" and busch <= 2:
            c.fail(0, f"infeasible but the Busch value is {busch:.6f} <= 2")
        elif status == "feasible":
            reason = _check_witness(pw, a, b, oa, ob)
            if reason:
                c.fail(0, reason)
        return c

    argv = ["check-joint", str(pa), str(pb), "--witness-out", str(pw)]
    return Item(f"pair{k:02d}", argv, [pw], check)


def joint_corpus(rng: np.random.Generator, work: Path) -> list[Item]:
    """20 unbiased qubit pairs within 1-5% of the Busch boundary (alternately
    inside and outside) and 20 noisy rank-one PVM pairs in d = 3, called in
    turn: a qubit pair takes a few ms and a d = 3 pair up to 1 s, so the
    qubit calls, which set item_p50_s, are spread over the whole pass and
    meet many states of a shared host, not the one of a 0.1 s stretch.

    The qubit pairs are drawn from the seed. The d = 3 pairs are one fixed
    corpus, drawn from CORPUS_SEED, seen in a random frame W A W*, W B W*
    drawn from the seed. Verdicts and solver iterations are unitarily
    invariant, and they set the time per corpus, so every seed costs the
    same while the bytes the program reads differ. Independent draws put
    10 to 13 of the 20 pairs into the stalled `undecided` path, which moves
    the corpus time by about 10% from seed to seed.

    The d = 3 visibilities are stratified: ten over the whole 0.55-0.80 range
    and ten over 0.68-0.76, where random bases mostly leave the solver
    undecided.
    """
    qubit, d3 = [], []
    for k in range(20):
        sign = -1.0 if k % 2 == 0 else 1.0
        ra, rb = busch_pair(rng, sign * rng.uniform(0.01, 0.05))
        qubit.append(_joint_item(work, k, qubit_povm(ra), qubit_povm(rb), busch_value(ra, rb)))
    fixed = np.random.default_rng(CORPUS_SEED)
    etas = np.concatenate(
        [
            0.55 + 0.25 * (np.arange(10) + fixed.uniform(size=10)) / 10,
            0.68 + 0.08 * (np.arange(10) + fixed.uniform(size=10)) / 10,
        ]
    )
    fixed.shuffle(etas)
    for k, eta in enumerate(etas, start=20):
        a, b = noisy_pvm(fixed, 3, eta), noisy_pvm(fixed, 3, eta)
        w = haar_unitary(rng, 3)
        frame = lambda m: w @ m @ np.conj(w.T)  # noqa: E731
        d3.append(_joint_item(work, k, frame(a), frame(b), None))
    return [item for pair in zip(qubit, d3) for item in pair]


def _distance_item(work: Path, rng: np.random.Generator, n: int) -> Item:
    a, b = wishart_povm(rng, 4, n), wishart_povm(rng, 4, n)
    outcomes = labels("o", n)
    pa, pb = work / f"A{n}.json", work / f"B{n}.json"
    write_povm(pa, outcomes, a)
    write_povm(pb, outcomes, b)
    # oracle values are computed on first use, after the timed calls
    exact = functools.cache(lambda: d_l1(a, b))

    def check(code: int, stdout: str) -> Check:
        c = Check()
        f = parse_fields(stdout)
        if code != 0 or "value" not in f or "witness_subset" not in f:
            c.fail(0, f"exit code {code} or missing fields")
            return c
        if not close(f["value"], exact()):
            c.fail(0, f"D_l1 = {f['value']}, expected {exact():.12g}")
        chosen = [s.strip() for s in f["witness_subset"].strip("{}").split(",") if s.strip()]
        idx = [outcomes.index(s) for s in chosen if s in outcomes]
        if len(idx) != len(chosen) or not close(f["value"], float(op_norms((a - b)[idx].sum(axis=0)))):
            c.fail(0, "witness subset does not attain the value")
        return c

    return Item(f"distance_l1_n{n}", ["distance", "--metric", "l1", str(pa), str(pb)], [], check)


def _theorem2_item(work: Path, rng: np.random.Generator) -> Item:
    a, b, f = wishart_povm(rng, 4, 8), wishart_povm(rng, 4, 8), wishart_povm(rng, 4, 64)
    oa, ob, of = labels("a", 8), labels("b", 8), labels("f", 64)
    paths = [work / n for n in ("T2_A.json", "T2_B.json", "T2_F.json", "T2_fa.txt", "T2_fb.txt")]
    write_povm(paths[0], oa, a)
    write_povm(paths[1], ob, b)
    write_povm(paths[2], of, f)
    paths[3].write_text("".join(f"f{k} a{k // 8}\n" for k in range(64)), encoding="utf-8")
    paths[4].write_text("".join(f"f{k} b{k % 8}\n" for k in range(64)), encoding="utf-8")

    @functools.cache
    def expected() -> dict[str, float]:
        grid = f.reshape(8, 8, 4, 4)
        x, y = d_l1(a, grid.sum(axis=1)), d_l1(b, grid.sum(axis=0))
        v_a, v_b = v_l1(a), v_l1(b)
        return {
            "X": x,
            "Y": y,
            "V_A": v_a,
            "V_B": v_b,
            "lhs": 2 * x * y + x + y + 2 * math.sqrt(2 * x + v_a) * math.sqrt(2 * y + v_b),
            "rhs": subset_comm(a, b),
        }

    def check(code: int, stdout: str) -> Check:
        c = Check()
        fields = parse_fields(stdout)
        if code != 0 or fields.get("satisfied") != "true":
            c.fail(0, f"exit code {code}, satisfied = {fields.get('satisfied')}")
            return c
        for key, value in expected().items():
            if key not in fields or not close(fields[key], value):
                c.fail(0, f"{key} = {fields.get(key)}, expected {value:.12g}")
        return c

    argv = ["bounds", "--inequality", "theorem2", *map(str, paths[:2])]
    argv += ["--joint", str(paths[2]), "--map-a", str(paths[3]), "--map-b", str(paths[4])]
    return Item("theorem2_8x8", argv, [], check)


def subset_l1(rng: np.random.Generator, work: Path) -> list[Item]:
    return [_distance_item(work, rng, 14), _distance_item(work, rng, 16), _theorem2_item(work, rng)]


def selftest_small(seed: int) -> list[Item]:
    def check(code: int, stdout: str) -> Check:
        c = Check()
        if code != 0 or parse_fields(stdout).get("total violations") != "0":
            c.fail(0, f"selftest exit code {code}: {stdout.strip().splitlines()[-1:]}")
        return c

    argv = ["selftest", "--trials", str(SELFTEST_TRIALS), "--seed", str(seed)]
    return [Item("selftest", argv, [], check)]


def micro_inputs(seed: int) -> dict[str, object]:
    """Inputs of the layer micro-benchmarks: stacks of 2x2 Hermitian
    matrices, dim-4 POVM pairs at 14 and 16 outcomes, an 8x8-outcome pair."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])

    def herm(n):
        m = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        return (m + np.conj(np.swapaxes(m, -1, -2))) / 2

    return {
        "stacks": {n: herm(n) for n in (4, 80, 4000)},
        "l1": {n: (wishart_povm(rng, 4, n), wishart_povm(rng, 4, n)) for n in (14, 16)},
        "comm": (wishart_povm(rng, 4, 8), wishart_povm(rng, 4, 8)),
    }


WORKLOADS = ("frontier-qubit", "joint-corpus", "subset-l1", "selftest-small")


def build(name: str, seed: int, work: Path) -> list[Item]:
    """Generate the workload's inputs from the seed into `work`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "frontier-qubit":
        return frontier_qubit(rng, work)
    if name == "joint-corpus":
        return joint_corpus(rng, work)
    if name == "subset-l1":
        return subset_l1(rng, work)
    return selftest_small(seed)
