"""In-memory spans around library functions, installed from outside.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started and a numeric amount of work (matrices,
masks or iterations). Spans are kept in flat arrays, in start order, so
every descendant of span s has an index in (s, end[s]). They are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("d")
        self.end = array("q")
        self.status: dict[int, str] = {}
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid: int, work: float = 0.0) -> int:
        sid = len(self.t0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.t1.append(0.0)
        self.end.append(0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter()
        self.end[sid] = len(self.t0)
        self._stack.pop()

    def span(self, name: str, fn, work=None, on_result=None):
        """Wrap fn so that every call records a span. `work(*args)` gives the
        span's amount of work; `on_result(tracer, sid, result)` may amend it."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(nid, work(*args) if work else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result:
                on_result(self, sid, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap a generator function: count calls only, so the time spent
        iterating is charged to the caller's span."""
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str, original, wrapper) -> None:
        """Replace `original` by `wrapper` in every namespace of the package
        that holds it, so each caller's lookup finds the wrapper."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "t0": np.frombuffer(self.t0, dtype=np.float64),
            "t1": np.frombuffer(self.t1, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        status_ids = np.array(sorted(self.status), dtype=np.int64)
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            status_span=status_ids,
            status=np.array([self.status[s] for s in status_ids.tolist()], dtype=str),
            **self.arrays(),
        )
