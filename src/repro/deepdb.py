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

from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.core.ml import RspnClassifier, RspnRegressor
from repro.engine.join import qualify
from repro.engine.parser import parse_query


class DeepDB:
    """An RSPN ensemble plus probabilistic query compilation.

    ``shards=N`` fans every batched compiled sweep out across ``N``
    worker processes (:class:`~repro.core.sharding.ShardedEvaluator`):
    large ``cardinality_batch``/``approximate_batch`` calls, the plan
    prefetch, the ML heads and each coalesced serving flush all ride
    the same shared pool.  Sharded answers are bit-identical to the
    in-process sweep, and any pool failure falls back to it, so
    ``shards`` is purely a throughput knob.  ``transport`` picks how
    specs and the model cross the process boundary: ``"shm"`` (the
    default where shared memory works) publishes the model's flat
    arrays once per generation and each spec batch once per flush into
    named shared-memory segments that workers slice zero-copy;
    ``"pickle"`` is the portability fallback.  Pass a prebuilt
    ``evaluator`` instead to share one pool across several models;
    call :meth:`close` to shut the pool down.

    ``kernel`` selects the compiled-sweep execution kernel
    (:mod:`repro.core.kernels`): ``"auto"`` (default), ``"numpy"``
    (fused NumPy), ``"numba"`` (JIT-lowered sweep; silently equivalent
    to ``"numpy"`` when numba is not installed) or ``"legacy"`` (the
    pre-fusion full-matrix sweep).  All kernels return bit-identical
    answers -- the knob only moves speed and memory.

    ``corrector`` turns on the workload feedback loop
    (:mod:`repro.feedback`): ``"observe"`` logs every estimate and the
    realized cardinalities ``optimize_and_execute`` sees without
    changing any answer (bit-identical to ``corrector=None``);
    ``"apply"`` additionally multiplies estimates by the learned
    residual correction once the corrector has trained, falling back to
    the raw estimate for queries it cannot featurize.  A prebuilt
    :class:`~repro.feedback.CorrectedEstimator` may be passed instead to
    share a log/corrector or tune hyper-parameters.

    ``plan_cache`` (default ``True``) memoises join-order planning per
    normalized query shape (:mod:`repro.optimizer.plancache`):
    :meth:`plan` and :meth:`optimize_and_execute` skip the estimator
    prefetch and the DP enumeration on repeated shapes, invalidating
    whenever :attr:`generation` or the corrector's committed-training
    count moves.  Pass a prebuilt
    :class:`~repro.optimizer.PlanCache` to share or tune one, or a
    falsy value to disable caching.
    """

    def __init__(self, database, ensemble, shards=None, evaluator=None,
                 transport=None, kernel=None, store=None, corrector=None,
                 plan_cache=True):
        if kernel is not None:
            from repro.core import kernels

            kernels.set_kernel(kernel)
        self.database = database
        self.ensemble = ensemble
        self.compiler = ProbabilisticQueryCompiler(ensemble)
        # Workload feedback (repro.feedback): "off"/None is a hard zero
        # -- no log, no wrapper, estimates flow exactly as before.
        self.feedback = None
        self._corrector_document = None
        if corrector is not None and corrector != "off":
            from repro.feedback import make_feedback

            self.feedback = make_feedback(
                self.compiler, corrector, database=database
            )
        # The mmapped ModelStore backing this ensemble, when it was
        # loaded from a store file; None for learned / JSON-loaded
        # models.  close() releases it deterministically.
        self._store = store
        self._owns_evaluator = False
        if evaluator is None and shards:
            from repro.core.sharding import ShardedEvaluator

            evaluator = ShardedEvaluator(
                n_workers=int(shards), transport=transport
            )
            self._owns_evaluator = True
        self.evaluator = evaluator
        if evaluator is not None:
            ensemble.set_evaluator(evaluator)
        # Plan cache (repro.optimizer.plancache): True builds one keyed
        # on this database's featurized query shapes; a prebuilt
        # PlanCache may be shared; falsy disables caching entirely.
        if plan_cache is True:
            from repro.optimizer.plancache import PlanCache

            self.plan_cache = PlanCache(self._plan_featurizer())
        else:
            self.plan_cache = plan_cache or None

    def _plan_featurizer(self):
        """The featurizer keying the plan cache (shared with feedback)."""
        if self.feedback is not None:
            corrector = getattr(self.feedback, "corrector", None)
            featurizer = getattr(corrector, "featurizer", None)
            if featurizer is not None:
                return featurizer
        from repro.feedback.featurize import QueryFeaturizer

        try:
            return QueryFeaturizer(self.database)
        except Exception:
            return None  # text keys still catch verbatim repeats

    @classmethod
    def learn(cls, database, config: EnsembleConfig | None = None, shards=None,
              transport=None, kernel=None, corrector=None, plan_cache=True):
        """Offline learning phase: build the RSPN ensemble for a database."""
        ensemble = learn_ensemble(database, config)
        return cls(database, ensemble, shards=shards, transport=transport,
                   kernel=kernel, corrector=corrector, plan_cache=plan_cache)

    def close(self):
        """Detach this model from its evaluator; afterwards its batches
        evaluate in-process (answers are unchanged).  The worker pool
        itself is only shut down when this instance created it
        (``shards=N``) -- a caller-supplied shared evaluator keeps
        serving its other models and is the caller's to close.

        When the model was loaded from a store file this also drops the
        ensemble and unmaps the store **deterministically**: the tree
        views die with the ensemble reference (trees are acyclic, so a
        refcount cascade frees them synchronously), after which the
        mapping can close without waiting for the garbage collector.
        The instance is unusable afterwards in that case.
        """
        if self.evaluator is not None:
            self.ensemble.set_evaluator(None)
            if self._owns_evaluator:
                self.evaluator.close()
            self.evaluator = None
            self._owns_evaluator = False
        if self._store is not None:
            store, self._store = self._store, None
            # Order matters: release every reference into the mapping
            # (ensemble tree + compiled forms cached off its root)
            # before asking the store to unmap.
            if self.feedback is not None:
                self.feedback.detach()
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

    def save(self, path, format="store"):
        """Persist the learned ensemble (not the data) to ``path``.

        ``format="store"`` (default) writes the mmap-able model store
        (:mod:`repro.core.modelstore`): flat specpack blobs, checksummed,
        millisecond cold start.  ``format="json"`` writes the legacy
        JSON document -- inspectable and diff-able, but O(model) to
        load; keep it for debugging and portability.
        """
        if format == "store":
            from repro.core.modelstore import write_store

            write_store(self.ensemble, path,
                        corrector=self._corrector_state())
        elif format == "json":
            from repro.core.serialization import save_ensemble

            save_ensemble(self.ensemble, path)
        else:
            raise ValueError(f"unknown save format {format!r}")

    def _corrector_state(self):
        """The corrector document to persist alongside the ensemble.

        A live fitted corrector wins; otherwise the document this model
        was loaded with is carried forward, so converting or re-saving a
        store never silently drops trained corrector state.
        """
        if self.feedback is not None and self.feedback.corrector is not None \
                and self.feedback.corrector.fitted:
            return self.feedback.corrector.to_document()
        return self._corrector_document

    @classmethod
    def load(cls, path, database, shards=None, transport=None, kernel=None,
             corrector=None, plan_cache=True):
        """Re-open a persisted ensemble against its database.

        The file's magic bytes decide the decode path: model-store files
        are mmapped (O(metadata) cold start, histograms stay on disk
        until touched); anything else goes through the legacy JSON
        loader with a one-line slow-path warning.

        With ``corrector`` set, a corrector section persisted in the
        store (``DeepDB.save`` after training) is restored, so a
        restarted server keeps correcting exactly as it did before.
        """
        from repro.core.modelstore import is_store_file, open_store

        if is_store_file(path):
            store = open_store(path)
            try:
                ensemble = store.load_ensemble(database)
                document = store.corrector_document()
            except BaseException:
                store.close()
                raise
            instance = cls(database, ensemble, shards=shards,
                           transport=transport, kernel=kernel, store=store,
                           corrector=corrector, plan_cache=plan_cache)
            instance._corrector_document = document
            if document is not None and instance.feedback is not None:
                from repro.feedback import ResidualCorrector

                instance.feedback.adopt_corrector(
                    ResidualCorrector.from_document(document, database=database)
                )
            return instance
        import logging

        logging.getLogger(__name__).warning(
            "%s is not a model store file; falling back to the legacy JSON "
            "loader (slow path -- re-save with format='store' for "
            "millisecond cold start)", path,
        )
        from repro.core.serialization import load_ensemble

        return cls(database, load_ensemble(path, database), shards=shards,
                   transport=transport, kernel=kernel, corrector=corrector,
                   plan_cache=plan_cache)

    # ------------------------------------------------------------------
    # Runtime tasks
    # ------------------------------------------------------------------
    def parse(self, sql):
        """Parse a SQL string of the supported subset into a Query."""
        return parse_query(sql, self.database.schema)

    @property
    def _estimator(self):
        """The estimator consumers see: feedback-wrapped when enabled."""
        return self.compiler if self.feedback is None else self.feedback

    def cardinality(self, query):
        """Cardinality estimate (>= 1) for the query optimizer."""
        if isinstance(query, str):
            query = self.parse(query)
        return self._estimator.cardinality(query)

    def cardinality_batch(self, queries):
        """Cardinality estimates for many queries in one batched pass.

        Accepts SQL strings and/or parsed queries; all expectation
        sub-queries are grouped per RSPN and answered with one compiled
        bottom-up sweep each, which is substantially faster than calling
        :meth:`cardinality` in a loop.
        """
        parsed = [self.parse(q) if isinstance(q, str) else q for q in queries]
        return self._estimator.cardinality_batch(parsed)

    def plan(self, query, linear=False):
        """Join order for ``query`` under batched DeepDB cardinalities.

        Every sub-plan estimate of the System-R enumeration is answered
        from one :meth:`cardinality_batch`-style prefetch (a single
        compiled sweep per RSPN).  Returns ``(plan, estimated C_out,
        oracle)`` -- the oracle exposes the per-subset estimates and the
        ``batch_calls`` / ``estimator_calls`` counters.

        With the plan cache enabled (the default), repeated query
        shapes skip both the prefetch and the enumeration: the cached
        plan, cost and fully-prefetched oracle are returned as long as
        the model generation and corrector generation are unchanged.
        """
        from repro.optimizer import SubqueryCardinalities, optimal_plan

        if isinstance(query, str):
            query = self.parse(query)
        epoch = None
        if self.plan_cache is not None:
            from repro.optimizer import cache_epoch

            epoch = cache_epoch(self._estimator, self.feedback)
            entry = self.plan_cache.lookup(query, epoch, linear=linear)
            if entry is not None:
                return entry
        oracle = SubqueryCardinalities(self._estimator, query)
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

        The adaptive loop is on by default: repeated query shapes are
        planned from the plan cache, and a join that materialises more
        than ``replan_threshold`` times its estimate triggers
        mid-execution re-optimisation of the remaining join order
        (``math.inf`` disables it).  With feedback enabled the realized
        result *and every realized intermediate* are recorded as
        labeled observations, so executed plans train the corrector on
        exactly the joins the optimizer got wrong."""
        from repro.optimizer import optimize_and_execute

        if isinstance(query, str):
            query = self.parse(query)
        return optimize_and_execute(
            query, self.database, self._estimator, linear=linear,
            feedback=self.feedback, replan_threshold=replan_threshold,
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
        :class:`~repro.core.updates.TreeBatch`, so concurrent readers
        keep sweeping one consistent snapshot during staging and the
        eventual :meth:`commit_update_batch` costs one generation bump
        per *touched RSPN*, not one per tuple.  Staging/committing must
        be serialized against other writers; readers need no
        coordination.
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
                encoded = self._encode_row(table, row)
                targets = self.ensemble.touching(table)
                if not targets:
                    raise KeyError(f"no RSPN covers table {table!r}")
            except Exception as exc:
                slots[i] = exc
                continue
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
                entry = per_rspn.setdefault(id(rspn), (rspn, []))
                entry[1].append((model_row, sign))
        staged = [
            (rspn, rspn.stage_batch(rows))
            for rspn, rows in per_rspn.values()
        ]
        return (staged, slots)

    def commit_update_batch(self, pending):
        """Commit a staged batch: publish every touched RSPN's shadows
        (one generation bump each, compiled form patched in place) and
        hand the touched-node delta to the sharded evaluator so workers
        receive a leaf-delta patch instead of a whole-tree republish.

        Returns per-slot results aligned with the staged ops: the
        post-commit :attr:`generation` for applied slots, the validation
        exception for rejected ones.
        """
        staged, slots = pending
        for rspn, batch in staged:
            before = rspn.generation
            delta = rspn.commit_batch(batch)
            if delta is None or self.evaluator is None:
                continue
            record = getattr(self.evaluator, "record_tree_delta", None)
            if record is not None:
                record(rspn.root, before, delta.generation,
                       delta.sum_rows, delta.leaf_rows)
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

    def feedback_stats(self):
        """Workload-feedback counters, or ``None`` when disabled.

        Mirrors :meth:`kernel_stats`: surfaced through serving
        ``/stats`` so operators can watch the log fill, trainings
        commit and the applied/gated split without instrumenting
        anything.
        """
        if self.feedback is None:
            return None
        return self.feedback.stats()

    def kernel_stats(self):
        """Aggregate compiled-kernel telemetry across the ensemble.

        Sums sweep counters and peak arena sizes over every RSPN whose
        compiled form is currently cached (models never swept report
        nothing).  Surfaced through serving ``/stats`` so operators can
        see the active kernel, per-sweep latency, the arena-vs-legacy
        memory footprint and what the fused leaf fill holds resident
        (``scope_tables`` / ``scope_table_bytes``) without
        instrumenting anything.
        """
        from repro.core import kernels

        totals = {
            "n_models": 0,
            "sweeps": 0,
            "sweep_queries": 0,
            "sweep_ns_total": 0,
            "arena_allocations": 0,
            "arena_bytes_per_column": 0,
            "legacy_bytes_per_column": 0,
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
            totals["legacy_bytes_per_column"] += (
                stats["legacy_bytes_per_column"]
            )
            totals["scope_tables"] += stats["scope_tables"]
            totals["scope_table_bytes"] += stats["scope_table_bytes"]
        queries = totals["sweep_queries"]
        totals["sweep_ns_per_query"] = (
            totals["sweep_ns_total"] / queries if queries else None
        )
        return {**kernels.describe(), **totals}
