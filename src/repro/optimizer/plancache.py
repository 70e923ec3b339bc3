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

:class:`PlanCache` is a :class:`repro.lru.LRUCache`, the same class
behind the serving result cache, so operators watch both through
``/stats`` with the same hit/miss/invalidation/eviction counters.
"""

from __future__ import annotations

import threading

from repro.lru import LRUCache


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


class PlanCache(LRUCache):
    """LRU cache of ``(plan, estimated_cost, oracle)`` planning entries.

    An entry is keyed on ``(query.normalized(), linear)``.  The caller
    passes the current epoch (see :func:`cache_epoch`) to every
    ``lookup`` / ``store``; an epoch change clears the cache and counts
    one invalidation, exactly like the serving result cache's
    generation-riding invalidation.
    """

    def __init__(self, maxsize=128):
        super().__init__(maxsize)
        # Serializes the epoch check with the lookup/store it guards.
        self._epoch_lock = threading.Lock()
        self._epoch = None

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
        with self._epoch_lock:
            self._sync_locked(epoch)
            return self.get(key)[1]

    def store(self, query, entry, epoch, linear=False):
        """Cache ``entry`` for ``query`` at ``epoch``."""
        key = self.key(query, linear)
        with self._epoch_lock:
            self._sync_locked(epoch)
            self.put(key, entry)

    def invalidate(self):
        """Drop every entry (counted), e.g. on an explicit flush."""
        self.clear(invalidated=True)

    def _sync_locked(self, epoch):
        if epoch == self._epoch:
            return
        if self._epoch is not None and len(self):
            self.clear(invalidated=True)
        self._epoch = epoch

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self):
        """Counter snapshot for ``/stats`` (the result cache's counters,
        ``size`` for its ``entries``, plus the current epoch)."""
        with self._epoch_lock:
            snap = super().snapshot()
            epoch = self._epoch
        snap["size"] = snap.pop("entries")
        snap["epoch"] = epoch
        return snap
