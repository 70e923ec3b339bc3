"""The user-facing DeepDB facade (Figure 2 of the paper).

``DeepDB.learn(database)`` runs the offline phase: tuple factors are
computed, table correlations measured, and the RSPN ensemble learned.
The resulting object serves the runtime tasks:

- :meth:`DeepDB.cardinality` -- cardinality estimation for an optimizer,
- :meth:`DeepDB.plan` / :meth:`DeepDB.optimize_and_execute` -- join-order
  optimization driven by the batched estimator protocol,
- :meth:`DeepDB.approximate` / :meth:`DeepDB.approximate_with_confidence`
  -- approximate query processing with optional confidence intervals,
- :meth:`DeepDB.regressor` / :meth:`DeepDB.classifier` -- ML tasks,
- :meth:`DeepDB.insert` / :meth:`DeepDB.delete` -- direct updates.
"""

from __future__ import annotations

import os

from repro.core import kernels
from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.core.ml import RspnClassifier, RspnRegressor
from repro.engine.join import qualify
from repro.engine.parser import parse_query


class DeepDB:
    """An RSPN ensemble plus probabilistic query compilation.

    ``plan_cache`` (default ``True``) memoises join-order planning per
    canonical query form (:mod:`repro.optimizer.plancache`):
    :meth:`plan` and :meth:`optimize_and_execute` skip the estimator
    prefetch and the DP enumeration on repeated queries, invalidating
    whenever :attr:`generation` moves.  Pass a prebuilt
    :class:`~repro.optimizer.PlanCache` to share or tune one, or a
    falsy value to disable caching.
    """

    def __init__(self, database, ensemble, store=None, plan_cache=True):
        self.database = database
        self.ensemble = ensemble
        self.compiler = ProbabilisticQueryCompiler(ensemble)
        # The mmapped ModelStore backing this ensemble, when it was
        # loaded from a store file; None for learned models.  close()
        # releases it deterministically.
        self._store = store
        # Plan cache (repro.optimizer.plancache): True builds one; a
        # prebuilt PlanCache may be shared; falsy disables caching.
        if plan_cache is True:
            from repro.optimizer.plancache import PlanCache

            self.plan_cache = PlanCache()
        else:
            self.plan_cache = plan_cache or None

    @classmethod
    def learn(cls, database, config: EnsembleConfig | None = None,
              plan_cache=True):
        """Offline learning phase: build the RSPN ensemble for a database."""
        ensemble = learn_ensemble(database, config)
        return cls(database, ensemble, plan_cache=plan_cache)

    def close(self):
        """Release the backing store, if any.

        When the model was loaded from a store file this drops the
        ensemble and unmaps the store **deterministically**: the tree
        views die with the ensemble reference (trees are acyclic, so a
        refcount cascade frees them synchronously), after which the
        mapping can close without waiting for the garbage collector.
        The instance is unusable afterwards in that case; otherwise
        this is a no-op.
        """
        if self._store is not None:
            store, self._store = self._store, None
            # Order matters: release every reference into the mapping
            # (ensemble tree + compiled forms cached off its root)
            # before asking the store to unmap.
            self.ensemble = None
            self.compiler = None
            store.close()
            from repro.core import modelstore

            modelstore.sweep_pending()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The backing :class:`~repro.core.modelstore.ModelStore`, if any."""
        return self._store

    def save(self, path):
        """Persist the learned ensemble (not the data) to ``path``.

        Writes the mmap-able model store (:mod:`repro.core.modelstore`):
        flat specpack blobs, checksummed, millisecond cold start.
        """
        from repro.core.modelstore import write_store

        write_store(self.ensemble, path)

    @classmethod
    def load(cls, path, database, plan_cache=True):
        """Re-open a persisted ensemble against its database.

        The store is mmapped (O(metadata) cold start, histograms stay on
        disk until touched).  A missing file raises
        :class:`FileNotFoundError`; any other file that is not a store
        raises :class:`~repro.core.modelstore.ModelStoreError`.
        """
        from repro.core.modelstore import open_store

        os.stat(path)  # open_store reports every OSError as ModelStoreError
        store = open_store(path)
        try:
            ensemble = store.load_ensemble(database)
        except BaseException:
            store.close()
            raise
        return cls(database, ensemble, store=store, plan_cache=plan_cache)

    # ------------------------------------------------------------------
    # Runtime tasks
    # ------------------------------------------------------------------
    def parse(self, sql):
        """Parse a SQL string of the supported subset into a Query."""
        return parse_query(sql, self.database.schema)

    def cardinality(self, query):
        """Cardinality estimate (>= 1) for the query optimizer."""
        if isinstance(query, str):
            query = self.parse(query)
        return self.compiler.cardinality(query)

    def cardinality_batch(self, queries):
        """Cardinality estimates for many queries in one batched pass.

        Accepts SQL strings and/or parsed queries; all expectation
        sub-queries are grouped per RSPN and answered with one compiled
        bottom-up sweep each, which is substantially faster than calling
        :meth:`cardinality` in a loop.
        """
        parsed = [self.parse(q) if isinstance(q, str) else q for q in queries]
        return self.compiler.cardinality_batch(parsed)

    def plan(self, query, linear=False):
        """Join order for ``query`` under batched DeepDB cardinalities.

        Every sub-plan estimate of the System-R enumeration is answered
        from one :meth:`cardinality_batch`-style prefetch (a single
        compiled sweep per RSPN).  Returns ``(plan, estimated C_out,
        oracle)`` -- the oracle exposes the per-subset estimates and the
        ``batch_calls`` / ``estimator_calls`` counters.

        With the plan cache enabled (the default), a repeated query --
        equal up to the order of its conjuncts and IN values -- skips
        both the prefetch and the enumeration: the cached
        plan, cost and fully-prefetched oracle are returned as long as
        the model generation is unchanged.
        """
        from repro.optimizer import SubqueryCardinalities, optimal_plan

        if isinstance(query, str):
            query = self.parse(query)
        epoch = None
        if self.plan_cache is not None:
            epoch = self.generation
            entry = self.plan_cache.lookup(query, epoch, linear=linear)
            if entry is not None:
                return entry
        oracle = SubqueryCardinalities(self.compiler, query)
        plan, cost = optimal_plan(
            query, self.database.schema, oracle, linear=linear
        )
        if self.plan_cache is not None:
            self.plan_cache.store(
                query, (plan, cost, oracle), epoch, linear=linear
            )
        return plan, cost, oracle

    def optimize_and_execute(self, query, linear=False,
                             replan_threshold=16.0):
        """Optimise ``query`` with batched estimates, then run the plan
        with real hash joins.  Returns an
        :class:`~repro.optimizer.execution.OptimizedExecution`.

        The adaptive loop is on by default: repeated queries are
        planned from the plan cache, and a join that materialises more
        than ``replan_threshold`` times its estimate triggers
        mid-execution re-optimisation of the remaining join order
        (``math.inf`` disables it)."""
        from repro.optimizer import optimize_and_execute

        if isinstance(query, str):
            query = self.parse(query)
        return optimize_and_execute(
            query, self.database, self.compiler, linear=linear,
            replan_threshold=replan_threshold,
            plan_cache=self.plan_cache,
        )

    def approximate(self, query):
        """Approximate answer: scalar or ``{group: value}``."""
        if isinstance(query, str):
            query = self.parse(query)
        return self.compiler.answer(query)

    def approximate_batch(self, queries):
        """Approximate answers for many queries in one batched pass."""
        parsed = [self.parse(q) if isinstance(q, str) else q for q in queries]
        return self.compiler.answer_batch(parsed)

    def approximate_with_confidence(self, query, confidence=0.95):
        """Approximate answer plus confidence interval(s)."""
        if isinstance(query, str):
            query = self.parse(query)
        return self.compiler.answer_with_confidence(query, confidence)

    def regressor(self, table, target_column, feature_columns=None):
        """Regression model for ``table.target_column`` (Section 4.3)."""
        rspn = self._model_for_column(table, target_column)
        features = None
        if feature_columns is not None:
            features = [qualify(table, c) for c in feature_columns]
        return RspnRegressor(rspn, qualify(table, target_column), features)

    def classifier(self, table, target_column, feature_columns=None):
        """Classification model for ``table.target_column``."""
        rspn = self._model_for_column(table, target_column)
        features = None
        if feature_columns is not None:
            features = [qualify(table, c) for c in feature_columns]
        return RspnClassifier(rspn, qualify(table, target_column), features)

    def _model_for_column(self, table, column):
        qualified = qualify(table, column)
        candidates = [
            r for r in self.ensemble.rspns if r.has_column(qualified)
        ]
        if not candidates:
            raise KeyError(f"no RSPN models column {qualified!r}")
        # Deterministic tie-break: prefer the smallest table set, then the
        # lexicographically first, so regressor/classifier results never
        # depend on ensemble insertion order.
        return min(candidates, key=lambda r: (len(r.tables), sorted(r.tables)))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    @property
    def generation(self):
        """Monotonic change counter of the underlying ensemble.

        This is the **single invalidation hook** for anything caching
        results computed from this model: record the generation a result
        was computed under, and treat the result as stale once
        ``deepdb.generation`` differs.  Every :meth:`insert` /
        :meth:`delete` moves it (as does out-of-band tree maintenance),
        which is how the serving layer's LRU result cache and the
        compiled flat-array cache stay correct without knowing about
        individual update paths.
        """
        return self.ensemble.generation

    def insert(self, table, row: dict):
        """Insert one tuple into every RSPN covering ``table``.

        ``row`` maps column names to *raw* values; they are encoded with
        the table's vocabularies.  Unknown column names raise
        ``KeyError``; schema columns absent from ``row`` are NULL-filled
        explicitly.  Join RSPNs receive the tuple with the join-partner
        columns NULL-extended, matching how a fresh tuple without
        partners enters the full outer join.  Bumps :attr:`generation`,
        invalidating dependent caches.
        """
        self._apply_update(table, row, insert=True)

    def delete(self, table, row: dict):
        """Delete one tuple from every RSPN covering ``table``.
        Bumps :attr:`generation`, invalidating dependent caches."""
        self._apply_update(table, row, insert=False)

    def _apply_update(self, table, row, insert):
        op = "insert" if insert else "delete"
        result = self.apply_update_batch([(op, table, row)])[0]
        if isinstance(result, Exception):
            raise result

    # -- batched updates (streaming ingest) ----------------------------
    def stage_update_batch(self, ops):
        """Validate, encode and stage a batch of updates without mutating.

        ``ops`` is a sequence of ``(op, table, row)`` triples with ``op``
        one of ``"insert"``/``"delete"`` and ``row`` a raw-value dict as
        in :meth:`insert`.  Each op is validated independently: a bad
        op (unknown table/column, unknown op name) is recorded as the
        exception for its slot and contributes nothing, while the good
        ops around it proceed -- the per-slot contract the serving
        coalescer relies on.

        All tuples for one RSPN land in a single copy-on-write
        :class:`~repro.core.updates.TreeBatch` that stages them node by
        node (:meth:`~repro.core.rspn.RSPN.stage_batch`), so concurrent
        readers keep sweeping one consistent snapshot during staging and
        the eventual :meth:`commit_update_batch` -- the only step that
        must exclude readers -- costs one generation bump per *touched
        RSPN*, not one per tuple.  The serving front-end calls this on
        its writer thread, off the loop that answers reads.
        Staging/committing must be serialized against other writers;
        readers need no coordination.
        """
        slots = [None] * len(ops)
        per_rspn = {}
        for i, (op, table, row) in enumerate(ops):
            try:
                if op == "insert":
                    sign = +1
                elif op == "delete":
                    sign = -1
                else:
                    raise ValueError(f"unknown update op {op!r}")
                targets = self._model_rows(table, row)
            except Exception as exc:
                slots[i] = exc
                continue
            for rspn, model_row in targets:
                entry = per_rspn.setdefault(id(rspn), (rspn, []))
                entry[1].append((model_row, sign))
        staged = [
            (rspn, rspn.stage_batch(rows))
            for rspn, rows in per_rspn.values()
        ]
        return (staged, slots)

    def _model_rows(self, table, row):
        """``[(rspn, model row)]``: the raw ``row`` of ``table`` encoded
        for every RSPN covering it, join-partner indicators NULL-extended
        (see :meth:`insert`).  Raises ``KeyError`` for an unknown table
        or column."""
        encoded = self._encode_row(table, row)
        targets = self.ensemble.touching(table)
        if not targets:
            raise KeyError(f"no RSPN covers table {table!r}")
        out = []
        for rspn in targets:
            model_row = {
                name: encoded.get(name)
                for name in rspn.column_names
                if name in encoded
            }
            if rspn.is_join_model:
                model_row[qualify(table, "__present__")] = 1.0
                for other in rspn.tables - {table}:
                    model_row[qualify(other, "__present__")] = 0.0
            out.append((rspn, model_row))
        return out

    def commit_update_batch(self, pending):
        """Commit a staged batch: publish every touched RSPN's shadows
        (one generation bump each, compiled form patched in place).

        Returns per-slot results aligned with the staged ops: the
        post-commit :attr:`generation` for applied slots, the validation
        exception for rejected ones.
        """
        staged, slots = pending
        for rspn, batch in staged:
            rspn.commit_batch(batch)
        generation = self.generation
        return [
            slot if isinstance(slot, Exception) else generation
            for slot in slots
        ]

    def apply_update_batch(self, ops):
        """Stage and immediately commit a batch of updates (see
        :meth:`stage_update_batch`); returns the per-slot results of
        :meth:`commit_update_batch`."""
        return self.commit_update_batch(self.stage_update_batch(ops))

    def _encode_row(self, table_name, row):
        """Qualify and encode a raw row dict against one table.

        Unknown column names raise ``KeyError`` (historically they were
        dropped silently, turning a typo'd column into a NULL update);
        schema columns the caller omitted are NULL-filled explicitly so
        the absorbed tuple's shape never depends on which keys the
        caller happened to pass.
        """
        table = self.database.table(table_name)
        schema = table.schema
        encoded = {}
        for column, value in row.items():
            if not schema.has_attribute(column):
                raise KeyError(
                    f"table {table_name!r} has no column {column!r}"
                )
            encoded[qualify(table_name, column)] = (
                None if value is None else table.encode_value(column, value)
            )
        for attr in schema.non_key_attributes:
            encoded.setdefault(qualify(table_name, attr.name), None)
        return encoded

    def describe(self):
        return self.ensemble.describe()

    def kernel_stats(self):
        """Aggregate compiled-kernel telemetry across the ensemble.

        Sums sweep counters and peak arena sizes over every RSPN whose
        compiled form is currently cached (models never swept report
        nothing).  Surfaced through serving ``/stats`` so operators can
        see the active kernel, per-sweep latency, the arena's per-column
        memory footprint and what the fused leaf fill holds resident
        (``scope_tables`` / ``scope_table_bytes``) without
        instrumenting anything.
        """
        totals = {
            "n_models": 0,
            "sweeps": 0,
            "sweep_queries": 0,
            "sweep_ns_total": 0,
            "arena_allocations": 0,
            "arena_bytes_per_column": 0,
            "scope_tables": 0,
            "scope_table_bytes": 0,
        }
        for rspn in self.ensemble.rspns:
            form = rspn.compiled_peek()
            if form is None:
                continue
            stats = form.kernel_stats()
            totals["n_models"] += 1
            totals["sweeps"] += stats["sweeps"]
            totals["sweep_queries"] += stats["sweep_queries"]
            totals["sweep_ns_total"] += stats["sweep_ns_total"]
            totals["arena_allocations"] += stats["arena_allocations"]
            totals["arena_bytes_per_column"] += stats["arena_bytes_per_column"]
            totals["scope_tables"] += stats["scope_tables"]
            totals["scope_table_bytes"] += stats["scope_table_bytes"]
        queries = totals["sweep_queries"]
        totals["sweep_ns_per_query"] = (
            totals["sweep_ns_total"] / queries if queries else None
        )
        return {**kernels.describe(), **totals}
