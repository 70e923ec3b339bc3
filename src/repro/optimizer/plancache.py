"""A plan cache keyed on normalized query shape + model generations.

Planning a join order costs one estimator prefetch (a compiled sweep
per RSPN) plus the DP enumeration; serving workloads repeat the same
query shapes constantly.  :class:`PlanCache` memoises the chosen plan,
its estimated cost and the fully-prefetched cardinality oracle behind
it, keyed on

- the **normalized query shape**: the MSCN featurization of
  :class:`~repro.feedback.featurize.QueryFeaturizer` (tables, join
  edges, per-column normalized predicate ranges -- order-invariant, so
  ``a.x > 1 AND b.y < 2`` and its permutation share a plan), falling
  back to the whitespace-normalized SQL text for queries the
  featurizer cannot cover, and
- the **epoch**: the (ensemble generation, corrector generation) pair
  -- any data update or committed corrector training changes the
  estimates behind every cached plan, so the whole cache invalidates.

:class:`PlanCache` is a :class:`repro.lru.LRUCache`, the same class
behind the serving result cache, so operators watch both through
``/stats`` with the same hit/miss/invalidation/eviction counters.
"""

from __future__ import annotations

import threading

from repro.lru import LRUCache


def cache_epoch(estimator, feedback=None):
    """The invalidation epoch for plans computed under ``estimator``.

    ``(model generation, corrector generation)``: the model generation
    comes from the estimator itself (feedback wrappers expose their
    base model's) or its ensemble; the corrector generation is the
    feedback trainer's committed-training count, which is exactly when
    ``apply``-mode estimates -- and therefore plans -- change.
    """
    generation = getattr(estimator, "generation", None)
    if generation is None:
        generation = getattr(
            getattr(estimator, "ensemble", None), "generation", 0
        )
    trainings = 0
    if feedback is None:
        feedback = estimator  # the estimator may itself be the wrapper
    trainer = getattr(feedback, "trainer", None)
    if trainer is not None:
        trainings = getattr(trainer, "trainings", 0)
    return (generation, trainings)


class PlanCache(LRUCache):
    """LRU cache of ``(plan, estimated_cost, oracle)`` planning entries.

    ``featurizer`` (a :class:`~repro.feedback.featurize.QueryFeaturizer`)
    provides the shape key; without one -- or for queries it cannot
    featurize -- the whitespace-normalized query text keys the entry,
    which still catches verbatim repeats.  The caller passes the
    current epoch (see :func:`cache_epoch`) to every ``lookup`` /
    ``store``; an epoch change clears the cache and counts one
    invalidation, exactly like the serving result cache's
    generation-riding invalidation.
    """

    def __init__(self, featurizer=None, maxsize=128):
        super().__init__(maxsize)
        self.featurizer = featurizer
        # Serializes the epoch check with the lookup/store it guards.
        self._epoch_lock = threading.Lock()
        self._epoch = None

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def shape_key(self, query, linear=False):
        """The normalized shape key for ``query``.

        Featurized when possible: the layout fingerprint plus a digest
        of the (order-invariant) feature vector, so permuted predicates
        and alternate spellings of the same normalized shape share one
        entry.  ``linear`` is part of the key -- left-deep and bushy
        enumerations cache separately.
        """
        shape = None
        if self.featurizer is not None:
            from repro.feedback.featurize import FeaturizationError

            try:
                shape = "mscn:" + self.featurizer.signature(query)
            except FeaturizationError:
                shape = None
        if shape is None:
            shape = "sql:" + " ".join(query.describe().split())
        return (shape, bool(linear))

    # ------------------------------------------------------------------
    # Cache protocol
    # ------------------------------------------------------------------
    def lookup(self, query, epoch, linear=False):
        """The cached entry for ``query`` at ``epoch``, or ``None``."""
        key = self.shape_key(query, linear)
        with self._epoch_lock:
            self._sync_locked(epoch)
            return self.get(key)[1]

    def store(self, query, entry, epoch, linear=False):
        """Cache ``entry`` for ``query``'s shape at ``epoch``."""
        key = self.shape_key(query, linear)
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
        snap["epoch"] = list(epoch) if epoch is not None else None
        return snap
