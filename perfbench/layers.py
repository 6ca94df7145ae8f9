"""The library layers the benchmark traces, the per-layer metrics derived
from their spans, and the layer micro-benchmarks.

Only public functions are wrapped. Private helpers such as `_dykstra` or
`_query` are not, so a frontier point's iterations are computed from its
`clip_operator_norm_stack` calls (two per Dykstra iteration).
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

from tracer import Tracer

PACKAGE = "jointmeas"
STACKS = ("project_psd_stack", "clip_operator_norm_stack", "herm_norm_stack")
SPANNED = {
    "linalg": STACKS,
    "feasibility": ("check_joint_measurability", "frontier_point"),
    "distances": ("D_l1", "D_inf"),
    "povm": ("intrinsic_uncertainty_l1", "validate_povm", "random_povm"),
    "bounds": (
        "max_subset_commutator_norm",
        "max_commutator_norm",
        "check_theorem1",
        "check_theorem2",
        "check_corollary_joint",
    ),
    "smearing": ("marginalize",),
    "io": ("load_povm", "save_povm"),
}
COUNTED = {"subsets": ("gray_walk",)}
DECIDED = ("feasible", "infeasible")


def _matrices(ms, *args) -> float:
    return ms.size / (ms.shape[-1] * ms.shape[-2])


def _masks(a, *args) -> float:
    return 2.0 ** (a.n_outcomes - 1)


def _record_verdict(tracer: Tracer, sid: int, result) -> None:
    tracer.work[sid] = result.iterations
    tracer.status[sid] = result.status


WORK = {
    **{f"linalg.{f}": _matrices for f in STACKS},
    "distances.D_l1": _masks,
}
ON_RESULT = {"feasibility.check_joint_measurability": _record_verdict}


def install(tracer: Tracer) -> None:
    for module, funcs in SPANNED.items():
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        for f in funcs:
            name = f"{module}.{f}"
            original = getattr(mod, f)
            wrapper = tracer.span(name, original, WORK.get(name), ON_RESULT.get(name))
            tracer.install(PACKAGE, original, wrapper)
    for module, funcs in COUNTED.items():
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        for f in funcs:
            original = getattr(mod, f)
            tracer.install(PACKAGE, original, tracer.counter(f"{module}.{f}", original))


# metrics other than each spanned function's `.calls` and `.self_s`; values
# from spans are per traced pass
DERIVED_UNITS = {
    **{f"linalg.{f}.us_per_matrix": "us/matrix" for f in STACKS},
    **{f"linalg.psd_stack{n}.us_per_matrix": "us/matrix" for n in (4, 80, 4000)},
    "feasibility.check_joint_measurability.iterations": "count",
    "feasibility.check_joint_measurability.us_per_iteration": "us/iteration",
    "feasibility.check_joint_measurability.useful_iteration_ratio": "ratio",
    "feasibility.frontier_point.iterations": "count_computed",
    "feasibility.frontier_point.us_per_iteration": "us/iter_computed",
    "feasibility.probe_feasible_s": "s",
    "feasibility.probe_infeasible_s": "s",
    "distances.D_l1.ns_per_mask": "ns/mask",
    "distances.D_l1_n14_s": "s",
    "distances.D_l1_n16_s": "s",
    "subsets.gray_walk.calls": "count",
    "bounds.subset_comm_8x8_s": "s",
    "trace.untraced_s": "s/pass",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for module, funcs in SPANNED.items():
        for f in funcs:
            units[f"{module}.{f}.calls"] = "count"
            units[f"{module}.{f}.self_s"] = "s/pass"
    return {**units, **DERIVED_UNITS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of `passes` traced passes.

    Self time is a span's duration minus that of its direct children;
    `trace.untraced_s` is item time that no layer span covers.
    """
    s = tracer.arrays()
    dur = s["t1"] - s["t0"]
    n_names = len(tracer.names)
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    calls = np.bincount(s["name"], minlength=n_names)
    incl = np.bincount(s["name"], weights=dur, minlength=n_names)
    own = np.bincount(s["name"], weights=self_time, minlength=n_names)
    work = np.bincount(s["name"], weights=s["work"], minlength=n_names)
    nid = {n: k for k, n in enumerate(tracer.names)}
    out: dict[str, float] = {}
    for module, funcs in SPANNED.items():
        for f in funcs:
            k = nid[f"{module}.{f}"]
            out[f"{module}.{f}.calls"] = calls[k] / passes
            out[f"{module}.{f}.self_s"] = own[k] / passes
    for f in STACKS:
        k = nid[f"linalg.{f}"]
        out[f"linalg.{f}.us_per_matrix"] = _ratio(incl[k], work[k]) * 1e6
    k = nid["distances.D_l1"]
    out["distances.D_l1.ns_per_mask"] = _ratio(incl[k], work[k]) * 1e9

    cjm = "feasibility.check_joint_measurability"
    k = nid[cjm]
    decided = sum(s["work"][sid] for sid, st in tracer.status.items() if st in DECIDED)
    out[f"{cjm}.iterations"] = work[k] / passes
    out[f"{cjm}.us_per_iteration"] = _ratio(incl[k], work[k]) * 1e6
    out[f"{cjm}.useful_iteration_ratio"] = _ratio(decided, work[k])

    # clip calls nested in each frontier_point span, via a prefix count over
    # start order (descendants of s are the spans s+1 .. end[s]-1)
    fp = "feasibility.frontier_point"
    k = nid[fp]
    is_clip = s["name"] == nid["linalg.clip_operator_norm_stack"]
    prefix = np.concatenate([[0], np.cumsum(is_clip)])
    fps = np.flatnonzero(s["name"] == k)
    clips = float((prefix[s["end"][fps]] - prefix[fps + 1]).sum())
    out[f"{fp}.iterations"] = clips / 2 / passes
    out[f"{fp}.us_per_iteration"] = _ratio(incl[k], clips / 2) * 1e6

    for module, funcs in COUNTED.items():
        for f in funcs:
            out[f"{module}.{f}.calls"] = tracer.counts[f"{module}.{f}"] / passes

    roots = ~has_parent
    top = has_parent & np.isin(s["parent"], np.flatnonzero(roots))
    out["trace.untraced_s"] = (dur[roots].sum() - dur[top].sum()) / passes
    return out


def _median_time(fn, reps: int = 3, min_time: float = 0.0) -> float:
    """Median wall time of one call, after one warm-up call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < reps or time.perf_counter() - start < min_time:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def micro_benchmarks(inputs: dict) -> dict[str, float]:
    """Direct, untraced calls into public layer functions."""
    from jointmeas import bounds, distances, feasibility, linalg
    from jointmeas.povm import Povm, bloch_pvm

    out = {}
    for n, ms in inputs["stacks"].items():
        t = _median_time(lambda: linalg.project_psd_stack(ms), min_time=0.2)
        out[f"linalg.psd_stack{n}.us_per_matrix"] = t / n * 1e6
    z, x = bloch_pvm((0, 0, 1)), bloch_pvm((1, 0, 0))
    # one bisection probe each (y_resolution 0.3 > y_base / 2): at X = 0.1
    # the probe Y = 0.25 is feasible, at X = 0.05 it is not and stalls
    for name, budget in (("probe_feasible_s", 0.1), ("probe_infeasible_s", 0.05)):
        t = _median_time(lambda: feasibility.frontier_point(z, x, budget, y_resolution=0.3))
        out[f"feasibility.{name}"] = t
    for n, (a, b) in inputs["l1"].items():
        outcomes = tuple(f"o{k}" for k in range(n))
        pa, pb = Povm(outcomes, a), Povm(outcomes, b)
        out[f"distances.D_l1_n{n}_s"] = _median_time(lambda: distances.D_l1(pa, pb))
    a, b = inputs["comm"]
    outcomes = tuple(f"o{k}" for k in range(8))
    pa, pb = Povm(outcomes, a), Povm(outcomes, b)
    out["bounds.subset_comm_8x8_s"] = _median_time(
        lambda: bounds.max_subset_commutator_norm(pa, pb)
    )
    return out
