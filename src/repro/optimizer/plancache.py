"""A plan cache keyed on the canonical query form + the model generation.

Planning a join order costs one estimator prefetch (a compiled sweep
per RSPN) plus the DP enumeration; serving workloads repeat the same
queries constantly.  :class:`PlanCache` memoises the chosen plan, its
estimated cost and the fully-prefetched cardinality oracle behind it,
keyed on

- the **canonical query form** :meth:`repro.engine.query.Query.normalized`
  (predicates, OR groups and IN values sorted, every literal kept
  exactly -- so ``a.x > 1 AND b.y < 2`` and its permutation share a
  plan, while two queries one literal apart never do), and
- the **epoch**: the model generation -- any data update changes the
  estimates behind every cached plan, so the whole cache invalidates.

Its hit/miss/eviction/invalidation counters ride ``/stats`` under
``models.<name>.plan_cache``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


def cache_epoch(estimator):
    """The invalidation epoch for plans computed under ``estimator``:
    its model generation, read from the estimator itself or its
    ensemble (0 for estimators that never change)."""
    generation = getattr(estimator, "generation", None)
    if generation is None:
        generation = getattr(
            getattr(estimator, "ensemble", None), "generation", 0
        )
    return generation


class PlanCache:
    """Thread-safe LRU cache of ``(plan, estimated_cost, oracle)``
    planning entries.

    An entry is keyed on ``(query.normalized(), linear)``.  The caller
    passes the current epoch (see :func:`cache_epoch`) to every
    ``lookup`` / ``store``; an epoch change clears the cache and counts
    one invalidation.
    """

    def __init__(self, maxsize=128):
        self.maxsize = int(maxsize)
        self._entries: OrderedDict = OrderedDict()
        # One lock serializes the epoch check with the lookup/store it
        # guards and the LRU order with the counters.
        self._lock = threading.Lock()
        self._epoch = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def key(query, linear=False):
        """The cache key for ``query``: its canonical form, plus
        ``linear`` -- left-deep and bushy enumerations cache
        separately."""
        return (query.normalized(), bool(linear))

    # ------------------------------------------------------------------
    # Cache protocol
    # ------------------------------------------------------------------
    def lookup(self, query, epoch, linear=False):
        """The cached entry for ``query`` at ``epoch``, or ``None``."""
        key = self.key(query, linear)
        with self._lock:
            self._sync_locked(epoch)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return entry

    def store(self, query, entry, epoch, linear=False):
        """Cache ``entry`` for ``query`` at ``epoch``."""
        key = self.key(query, linear)
        with self._lock:
            self._sync_locked(epoch)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def _sync_locked(self, epoch):
        if epoch == self._epoch:
            return
        if self._epoch is not None and self._entries:
            self._entries.clear()
            self.invalidations += 1
        self._epoch = epoch

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self):
        with self._lock:
            return len(self._entries)

    def snapshot(self):
        """Counter snapshot for ``/stats``."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "epoch": self._epoch,
            }
