"""Benchmark-owned spans around the layers' public entry points.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install`
replaces the entry points named in :data:`SYNC_LAYERS` with timing
wrappers for the duration of the traced window and :meth:`Tracer.remove`
puts the originals back.  Spans stay in memory until the window ends.

A span is ``(name, parent, start, end, items, key)``: ``parent`` is the
index of the span that was open on the same thread when this one
started (``None`` for a root -- one coalescer flush, one in-process
``plan`` call), so the spans of one request share their root.
``items`` is how much work the call carried (requests in a flush, specs
in a sweep, ops in an update batch) and ``key`` tells sweeps of
different RSPNs apart.

``AsyncDeepDB.submit`` is a coroutine -- many are open at once on the
loop thread, so it cannot sit on the per-thread span stack.  Its wall
clock is kept as a plain interval and matched to the flush it waited
for by :func:`flush_of`.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time

RUN_BATCH = "serving.session.run_batch"
APPLY_BATCH = "serving.session.apply_batch"
PARSE = "engine.parser"
COMPILE = "core.compilation.compile"
EVALUATE = "core.compilation.evaluate"
SWEEP = "core.compiled.sweep"
PLAN = "optimizer.plan"
ENUMERATION = "optimizer.enumeration"
STAGE = "core.updates.stage"
COMMIT = "core.updates.commit"
SUBMIT = "serving.server.submit"


def _first_len(args):
    return len(args[1]), None


def _sweep_detail(args):
    return len(args[1]), id(args[0])


def _sync_layers():
    """``(owner, attribute, span name, detail)`` for every wrapped
    entry point.  Imported lazily: ``run.py`` puts ``src`` on the path."""
    import repro.optimizer as optimizer
    from repro.core.compilation import ProbabilisticQueryCompiler as Compiler
    from repro.core.modelstore import MappedRSPN
    from repro.core.rspn import RSPN
    from repro.deepdb import DeepDB
    from repro.serving.session import ModelSession

    return [
        (ModelSession, "run_batch", RUN_BATCH, _first_len),
        (ModelSession, "apply_batch", APPLY_BATCH, _first_len),
        (DeepDB, "parse", PARSE, None),
        (Compiler, "cardinality_batch", COMPILE, None),
        (Compiler, "answer_batch", COMPILE, None),
        (Compiler, "estimate_count", COMPILE, None),
        (Compiler, "estimate_avg", COMPILE, None),
        (Compiler, "estimate_sum", COMPILE, None),
        (Compiler, "evaluate_estimates", EVALUATE, None),
        (RSPN, "evaluate_specs", SWEEP, _sweep_detail),
        (MappedRSPN, "evaluate_specs", SWEEP, _sweep_detail),
        (DeepDB, "plan", PLAN, None),
        (optimizer, "optimal_plan", ENUMERATION, None),
        (DeepDB, "stage_update_batch", STAGE, _first_len),
        (DeepDB, "commit_update_batch", COMMIT, None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent, start, end, items, key]
        self.intervals = []  # (name, start, end) of coroutine entry points
        self._lock = threading.Lock()
        self._stack = threading.local()
        self._originals = []

    # -- recording -----------------------------------------------------
    def begin(self, name, items=0, key=None):
        stack = self._stack.__dict__.setdefault("open", [])
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, parent, 0.0, 0.0, items, key])
        stack.append(index)
        self.spans[index][2] = time.perf_counter()
        return index

    def end(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.open.pop()

    def _traced(self, original, name, detail):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            items, key = detail(args) if detail else (0, None)
            index = self.begin(name, items, key)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def _traced_coroutine(self, original, name):
        @functools.wraps(original)
        async def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                self.intervals.append((name, start, time.perf_counter()))

        return traced

    # -- wrapping ------------------------------------------------------
    def install(self):
        from repro.serving.server import AsyncDeepDB

        for owner, attribute, name, detail in _sync_layers():
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._traced(original, name, detail))
        original = AsyncDeepDB.__dict__["submit"]
        self._originals.append((AsyncDeepDB, "submit", original))
        AsyncDeepDB.submit = self._traced_coroutine(original, SUBMIT)
        return self

    def remove(self):
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- reading -------------------------------------------------------
    def finished(self):
        """Completed spans as tuples, parents re-indexed."""
        keep = {}
        out = []
        for i, (name, parent, start, end, items, key) in enumerate(self.spans):
            if end == 0.0 or (parent is not None and parent not in keep):
                continue  # still open when the window closed
            keep[i] = len(out)
            out.append((
                name, None if parent is None else keep[parent],
                start, end, items, key,
            ))
        return out

    def write(self, path):
        """One JSON object per span / interval (see the README)."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, parent, start, end, items, _key) in enumerate(
                self.finished()
            ):
                handle.write(json.dumps({
                    "span": i, "parent": parent, "name": name,
                    "start_s": start, "end_s": end, "items": items,
                }) + "\n")
            for name, start, end in self.intervals:
                handle.write(json.dumps(
                    {"interval": name, "start_s": start, "end_s": end}
                ) + "\n")


def flush_of(interval, flushes, starts):
    """The flush a ``submit`` interval waited for: the first root span
    in ``flushes`` (sorted by start, ``starts`` their start times) that
    begins at or after the submit and ends inside it.  ``None`` when
    the answer came without a flush of its own."""
    _name, start, end = interval
    i = bisect.bisect_left(starts, start)
    if i < len(flushes) and flushes[i][3] <= end:
        return flushes[i]
    return None
