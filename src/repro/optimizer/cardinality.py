"""Cardinality oracles for the join enumerator.

The enumerator asks one question: "how many rows does the inner join of
this connected table subset produce, with the query's predicates
applied?".  :class:`SubqueryCardinalities` turns any estimator of the
batched protocol (see :mod:`repro.estimator`) -- the DeepDB compiler,
the Postgres-style baseline, random sampling, or the exact executor --
into an oracle over sub-queries of one query.

Two evaluation modes:

- **Batched prefetch** (default): before DP runs, every connected table
  subset of the query is enumerated, its pushed-down COUNT sub-query
  materialised, and the whole set answered with **one**
  ``cardinality_batch`` call.  For the compiled DeepDB path that means
  one flat-array bottom-up sweep per RSPN for *all* sub-plans of the
  query -- the shape learned-estimator work (Deep Sketches, Neo) shows
  matters most, because the optimizer loop requests thousands of
  sub-plan estimates per query.  Estimators without a native batch
  kernel answer the prefetch through the protocol's serial-loop
  fallback, so the oracle's observable behaviour never changes.
- **Serial memoisation** (``batch=False``): the PR-1 behaviour -- one
  scalar ``cardinality`` call per distinct subset, on demand.  Kept as
  the reference the property tests and the optimizer benchmarks compare
  the batched path against.
"""

from __future__ import annotations

from repro.engine.query import Query
from repro.estimator import cardinality_batch as _cardinality_batch


class SubqueryCardinalities:
    """Per-subset cardinalities of one query's sub-joins.

    ``batch=True`` enables the one-call prefetch (triggered by
    :func:`~repro.optimizer.enumeration.optimal_plan` through
    :meth:`prefetch`); ``batch=False`` preserves the serial memoised
    oracle.  ``batch_calls`` counts batched estimator invocations and
    ``estimator_calls`` counts sub-queries actually sent to the
    estimator, so benchmarks can report both modes' work.
    """

    def __init__(self, estimator, query: Query, batch: bool = True):
        if query.has_disjunctions:
            raise ValueError("join ordering requires a conjunctive query")
        self.estimator = estimator
        self.query = query
        self.batch = batch
        self.batch_calls = 0
        self.estimator_calls = 0
        self._cache: dict[frozenset, float] = {}
        self._raw: dict[frozenset, float] = {}

    def subquery(self, tables):
        """The COUNT sub-query over ``tables`` with pushed-down filters."""
        tables = tuple(sorted(tables))
        predicates = tuple(
            p for p in self.query.predicates if p.table in tables
        )
        return Query(tables=tables, predicates=predicates)

    def prefetch(self, schema):
        """Answer every connected-subset sub-query in one batched call.

        Enumerates the connected subsets of the query's tables under
        ``schema``'s FK edges (sizes >= 2 -- exactly the subsets the DP
        and the C_out cost model ask for; for a single-table query, the
        one singleton subset, so even that estimate is batched and
        counted), materialises their pushed-down sub-queries, and fills
        the cache from a single ``cardinality_batch`` call.  No-op when
        batching is disabled or everything is cached.
        """
        if not self.batch:
            return
        from repro.optimizer.enumeration import connected_subsets

        tables = sorted(set(self.query.tables))
        if len(tables) < 2:
            wanted = [frozenset(tables)] if tables else []
        else:
            by_size = connected_subsets(schema, tables)
            wanted = [
                subset
                for size in range(2, len(tables) + 1)
                for subset in by_size.get(size, ())
            ]
        subsets = [subset for subset in wanted if subset not in self._cache]
        if not subsets:
            return
        values = _cardinality_batch(
            self.estimator, [self.subquery(subset) for subset in subsets]
        )
        self.batch_calls += 1
        self.estimator_calls += len(subsets)
        for subset, value in zip(subsets, values):
            self._raw[subset] = float(value)
            self._cache[subset] = max(float(value), 1.0)

    def __call__(self, tables) -> float:
        """Estimated rows of the inner join over ``tables`` (>= 1)."""
        key = frozenset(tables)
        cached = self._cache.get(key)
        if cached is None:
            raw = float(self.estimator.cardinality(self.subquery(key)))
            cached = max(raw, 1.0)
            self.estimator_calls += 1
            self._raw[key] = raw
            self._cache[key] = cached
        return cached

    def raw_estimate(self, tables) -> float:
        """The estimator's *unclamped* estimate for ``tables``.

        The >= 1 clamp exists for the optimizer (C_out charges and cost
        ratios must not hit zero); the ``join_gaps`` an
        :class:`~repro.optimizer.execution.OptimizedExecution` reports
        show what the estimator actually said, so a true-zero estimate
        reads 0.0, not the clamp.
        """
        key = frozenset(tables)
        if key not in self._raw:
            self(key)
        return self._raw[key]

    def patch(self, tables, realized) -> None:
        """Overwrite one subset's estimate with its realised truth.

        Called by mid-execution re-optimisation after a join
        materialises: the subset itself becomes exact, and the observed
        multiplicative error (realised / previous clamped estimate) is
        propagated to every cached estimate of a strict superset --
        those estimates were produced by the same model on a join that
        *contains* the misestimated one, so scaling them by the observed
        factor is the principled correction that lets the remainder DP
        actually change its mind (patching the already-sunk subset alone
        would provably re-derive the old plan under C_out).
        """
        key = frozenset(tables)
        realized = float(realized)
        previous = self._cache.get(key)
        self._raw[key] = realized
        self._cache[key] = max(realized, 1.0)
        if previous is None or previous <= 0:
            return
        factor = self._cache[key] / previous
        for other in list(self._cache):
            if key < other:
                self._cache[other] = max(self._cache[other] * factor, 1.0)
                if other in self._raw:
                    self._raw[other] *= factor

    @property
    def calls(self):
        """Number of distinct sub-queries estimated so far."""
        return len(self._cache)

    @property
    def estimates(self):
        """Immutable view of the per-subset estimates (for comparisons)."""
        return dict(self._cache)
