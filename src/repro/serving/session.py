"""Serving sessions: snapshot reads, update exclusion and result caching.

A :class:`ModelSession` wraps one named :class:`~repro.deepdb.DeepDB`
instance with the state the serving layer needs around it:

- a **read-write lock** -- a flushed batch answers under one shared
  read acquisition (one consistent snapshot of the model), while
  ``insert``/``delete`` maintenance takes the exclusive write side, so
  queries never observe a half-applied update;
- an **LRU result cache** keyed on ``(kind, normalized SQL text)``.
  Invalidation is not guessed per update path: the cache records the
  model's :attr:`~repro.deepdb.DeepDB.generation` and drops all entries
  as soon as the current generation differs (every insert/delete and
  any out-of-band maintenance moves the counter);
- the **batch runner** (:meth:`ModelSession.run_batch`) the coalescer
  flushes into: it parses each request individually (a parse error
  fails only that request), deduplicates identical request texts,
  serves cache hits, and answers the rest through the batched estimator
  protocol -- ``cardinality_batch`` / ``answer_batch`` and the
  prefetching plan oracle.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.lru import LRUCache as ResultCache

KINDS = ("cardinality", "approximate", "plan")

_STRING_LITERAL = re.compile(r"('[^']*')")


def normalize_sql(sql: str) -> str:
    """Cache key normalization: collapse whitespace runs *outside*
    string literals, drop a trailing semicolon.  Literal content is
    preserved verbatim (``'EU  X'`` and ``'EU X'`` are different
    values) and identifier case is preserved (identifiers are
    case-sensitive in the supported subset)."""
    parts = _STRING_LITERAL.split(str(sql))
    for i in range(0, len(parts), 2):  # even slots are outside literals
        parts[i] = re.sub(r"\s+", " ", parts[i])
    return "".join(parts).strip().rstrip(";").strip()


def _copy_result(value):
    """Results are handed out by value: mutable answers (GROUP BY
    dicts, plan dicts -- both flat, with scalar values) are shallow-
    copied so a client mutating its answer cannot corrupt the cache or
    a batchmate's result."""
    return dict(value) if isinstance(value, dict) else value


@dataclass(frozen=True)
class Request:
    """One client request: what to compute (``kind``) for which SQL."""

    kind: str
    sql: str


class ReadWriteLock:
    """A writer-preferring read-write lock (threading-based).

    Readers share the lock; a writer excludes readers and other
    writers.  Arriving writers block *new* readers so maintenance is
    never starved by a steady query stream.
    """

    def __init__(self):
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if self._readers == 0:
                    self._condition.notify_all()

    @contextmanager
    def write(self):
        with self._condition:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._condition:
                self._writer = False
                self._condition.notify_all()


class ModelSession:
    """One named, servable DeepDB model (see module docstring)."""

    def __init__(self, name, deepdb, cache_size=256):
        self.name = name
        self.deepdb = deepdb
        self._rwlock = ReadWriteLock()
        # Serializes *writers* (batch staging + commit).  Staging runs
        # under this lock only -- concurrent readers keep sweeping the
        # live tree -- and the exclusive write lock is taken just for
        # the O(touched-nodes) pointer-swap commit.
        self._ingest_lock = threading.Lock()
        self._cache = ResultCache(cache_size)
        self._generation_lock = threading.Lock()
        self._cache_generation = deepdb.generation

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def run_batch(self, requests):
        """Answer a batch of :class:`Request`s under one snapshot read.

        Returns one result per request, positionally; a failed request's
        slot holds the raising ``Exception`` instance (the coalescer's
        per-slot error contract), so one bad query never fails its
        batchmates.  Identical normalized requests within the batch are
        computed once; every slot (and the cache) receives its own copy
        of mutable answers.
        """
        results = [None] * len(requests)
        with self._rwlock.read():
            cache = self._checked_cache()
            todo: dict[str, OrderedDict] = {kind: OrderedDict() for kind in KINDS}
            for i, request in enumerate(requests):
                kind = getattr(request, "kind", None)
                if kind not in KINDS:
                    results[i] = ValueError(
                        f"unknown request kind {kind!r}; expected one of {KINDS}"
                    )
                    continue
                key = (kind, normalize_sql(request.sql))
                hit, value = cache.get(key)
                if hit:
                    results[i] = _copy_result(value)
                else:
                    todo[kind].setdefault(key, []).append(i)
            self._answer_batched(
                todo["cardinality"], results, cache,
                lambda queries: [
                    float(v) for v in self.deepdb.cardinality_batch(queries)
                ],
            )
            self._answer_batched(
                todo["approximate"], results, cache,
                self.deepdb.approximate_batch,
            )
            self._answer_plans(todo["plan"], results, cache)
        return results

    def run_one(self, request):
        """Serial convenience wrapper over :meth:`run_batch`; raises."""
        result = self.run_batch([request])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def _answer_batched(self, pending, results, cache, batch_fn):
        """Parse, batch-evaluate and distribute one kind's requests.

        ``pending`` maps cache key -> indices sharing that key; parsing
        happens per key with per-slot error capture, evaluation happens
        in **one** batched call for every key that parsed.
        """
        if not pending:
            return
        parsed, keys = [], []
        for key, indices in pending.items():
            try:
                parsed.append(self.deepdb.parse(key[1]))
                keys.append(key)
            except Exception as error:
                for i in indices:
                    results[i] = error
        if not parsed:
            return
        try:
            values = batch_fn(parsed)
        except Exception as error:  # whole-batch evaluation failure
            for key in keys:
                for i in pending[key]:
                    results[i] = error
            return
        for key, value in zip(keys, values):
            cache.put(key, _copy_result(value))
            for i in pending[key]:
                results[i] = _copy_result(value)

    def _answer_plans(self, pending, results, cache):
        """Plan requests: each is already one batched prefetch internally
        (``SubqueryCardinalities`` answers every connected subset's
        sub-query in a single ``cardinality_batch`` call)."""
        for key, indices in pending.items():
            try:
                plan, cost, oracle = self.deepdb.plan(key[1])
                value = {
                    "plan": plan.describe(),
                    "estimated_cost": float(cost),
                    "subqueries": oracle.calls,
                    "batch_calls": oracle.batch_calls,
                }
            except Exception as error:
                for i in indices:
                    results[i] = error
                continue
            cache.put(key, _copy_result(value))
            for i in indices:
                results[i] = _copy_result(value)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, table, row):
        """Apply one insert (a one-op :meth:`apply_batch`)."""
        result = self.apply_batch([("insert", table, row)])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def delete(self, table, row):
        """Apply one delete (a one-op :meth:`apply_batch`)."""
        result = self.apply_batch([("delete", table, row)])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def apply_batch(self, ops):
        """Apply a batch of ``(op, table, row)`` updates.

        The serving write path, run by the front-end's writer thread,
        never by the loop that answers reads.  The expensive
        part -- encoding, routing the batch node by node, histogram
        arithmetic -- is *staged* against copy-on-write shadows under
        the ingest lock only, so readers keep answering from one
        consistent snapshot throughout.  The exclusive write lock is
        held just for the commit -- the only section a read can wait
        for: O(touched nodes) pointer swaps plus one generation bump per
        touched RSPN (never one per tuple).  Returns per-slot results:
        the post-commit generation for applied ops, the validation
        ``Exception`` for rejected ones (the coalescer's contract).
        """
        with self._ingest_lock:
            pending = self.deepdb.stage_update_batch(ops)
            with self._rwlock.write():
                return self.deepdb.commit_update_batch(pending)

    @contextmanager
    def write_lock(self):
        """Exclusive access for out-of-band maintenance (drift repair
        swaps, bulk absorbs).  Takes the ingest lock first so a staged
        batch can never commit against a tree that was swapped under
        it."""
        with self._ingest_lock:
            with self._rwlock.write():
                yield

    def invalidate(self):
        """Explicitly drop all cached results (normally unnecessary:
        the generation check does this automatically)."""
        self._cache.clear(invalidated=True)
        plan_cache = getattr(self.deepdb, "plan_cache", None)
        if plan_cache is not None:
            plan_cache.invalidate()

    def _checked_cache(self):
        """The result cache, emptied first if the model's generation
        moved since the last look -- the single invalidation hook.
        The plan cache invalidates alongside it: plans were chosen
        under the old generation's estimates."""
        generation = self.deepdb.generation
        with self._generation_lock:
            if generation != self._cache_generation:
                self._cache.clear(invalidated=True)
                plan_cache = getattr(self.deepdb, "plan_cache", None)
                if plan_cache is not None:
                    plan_cache.invalidate()
                self._cache_generation = generation
        return self._cache

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Model state for ``GET /stats``.  ``kernel`` reports the active
        sweep kernel plus aggregate sweep telemetry (per-sweep ns, arena
        bytes) across the ensemble."""
        snap = {
            "name": self.name,
            "generation": self.deepdb.generation,
            "cache": self._cache.snapshot(),
        }
        plan_cache = getattr(self.deepdb, "plan_cache", None)
        if plan_cache is not None:
            snap["plan_cache"] = plan_cache.snapshot()
        kernel_stats = getattr(self.deepdb, "kernel_stats", None)
        if kernel_stats is not None:
            snap["kernel"] = kernel_stats()
        return snap

    def __repr__(self):
        return (f"ModelSession({self.name!r}, "
                f"generation={self.deepdb.generation})")
