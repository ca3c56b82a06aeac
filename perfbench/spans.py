"""Span recording for the traced benchmark run.

A Tracer wraps the public functions and methods of the adadiffuse modules
(for the duration of one traced run only, then restores them), records one
span per call -- name, start, end, parent span and run id -- in memory, and
adds per-call counts through optional counter callbacks. Spans are written
out once, when the run ends.

Self time of a span is its duration minus the durations of its direct
children; because children nest inside their parent, summing self times
over all spans of a phase gives the phase's covered time exactly.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def phase(self, run_id: str):
        """Root span for one phase of the run; its id tags every span inside."""
        previous, self.run_id = self.run_id, run_id
        try:
            with self.span(run_id):
                yield
        finally:
            self.run_id = previous

    def _wrapper(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def wrap(self, package: str, module: str, qualname: str, name: str, counter=None) -> None:
        """Trace every reference to package.module.qualname under package.

        name is the span name, or a function of the call's (args, kwargs)
        returning it. Methods are replaced on their class. A module-level
        function is replaced in every package module that imported it by
        name, so calls made inside the program are traced as well. Counters
        run after the span closes, so their cost lands in the parent span.
        """
        mod = sys.modules[f"{package}.{module}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapper(raw.__func__, name, counter))
            else:
                new = self._wrapper(raw, name, counter)
            self._patch(owner, attr, raw, new)
            return
        fn = getattr(mod, qualname)
        new = self._wrapper(fn, name, counter)
        for mod_name, other in list(sys.modules.items()):
            if not isinstance(other, types.ModuleType):
                continue
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(other).items()):
                if value is fn:
                    self._patch(other, attr, value, new)

    def _patch(self, owner, attr: str, old, new) -> None:
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- summaries -------------------------------------------------------
    def self_times_ms(self) -> list[float]:
        """Self time of every span, in ms, indexed like self.spans."""
        own = [(s[END] - s[START]) * 1e3 for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= (s[END] - s[START]) * 1e3
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive ms, self ms and call count."""
        incl: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for s, self_ms in zip(self.spans, self.self_times_ms()):
            incl[s[NAME]] += (s[END] - s[START]) * 1e3
            own[s[NAME]] += self_ms
            calls[s[NAME]] += 1
        return dict(incl), dict(own), dict(calls)

    def layer_self_ms(self, run_id: str, layers) -> dict[str, float]:
        """Self time per layer within one phase; the phase root's own self
        time (code outside every layer) is reported as 'other'."""
        out = {layer: 0.0 for layer in (*layers, "other")}
        for s, self_ms in zip(self.spans, self.self_times_ms()):
            if s[RUN] != run_id:
                continue
            layer = "other" if s[NAME] == run_id else s[NAME].split(".", 1)[0]
            out[layer if layer in out else "other"] += self_ms
        return out

    def phases(self) -> list[str]:
        return [s[NAME] for s in self.spans if s[PARENT] == -1]

    def phase_ms(self, run_id: str) -> float:
        for s in self.spans:
            if s[NAME] == run_id and s[PARENT] == -1:
                return (s[END] - s[START]) * 1e3
        raise KeyError(run_id)

    def write(self, path) -> None:
        """All spans as JSON lines, times in ms from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT], "run": s[RUN],
                    "start_ms": round((s[START] - t0) * 1e3, 4),
                    "end_ms": round((s[END] - t0) * 1e3, 4),
                }) + "\n")
