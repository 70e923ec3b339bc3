"""Streaming ingest: batched updates, copy-on-write snapshots and
incremental invalidation.

The load-bearing properties, all asserted with ``==`` (never allclose):

- a committed batch leaves every touched RSPN *bit-identical* to a twin
  that absorbed the same tuples one at a time through the serial
  reference of Algorithm 1 (``tests/update_reference.py``);
- one batch costs one generation bump per touched RSPN, not one per
  tuple;
- concurrent readers racing a stream of batches only ever observe one
  of the serially-reachable snapshot states -- never a torn tree;
- a read never waits for an update flush to stage: the serving loop
  answers while the writer thread stages.
"""

from __future__ import annotations

import asyncio
import copy
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import compiled
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.core.leaves import DiscreteLeaf, DiscreteScopeTable
from repro.core.nodes import SumNode
from repro.core.updates import TreeBatch
from repro.datasets.workloads import job_light
from repro.deepdb import DeepDB
from repro.ingest import DriftMonitor
from repro.serving import AsyncDeepDB, ModelRegistry, start_server
from repro.serving.session import ModelSession, Request
from repro.stats.kmeans import KMeans
from tests.conftest import build_customer_orders
from tests.test_nodes_inference import _random_spec, _random_spn
from tests.update_reference import (
    assert_states_equal,
    model_state,
    serial_apply,
    serial_update,
    tree_state,
)


@pytest.fixture(scope="module")
def template_deepdb():
    """Learned once; mutating tests work on deep copies."""
    database = build_customer_orders(n_customers=400, seed=0)
    return DeepDB.learn(database, EnsembleConfig(sample_size=4_000))


def _clone(deepdb):
    # DeepDB itself holds locks (plan cache); copy the pure state and
    # rewrap, so twins share nothing while answering identically.
    database, ensemble = copy.deepcopy((deepdb.database, deepdb.ensemble))
    return DeepDB(database, ensemble)


MIXED_OPS = (
    [("insert", "customer", {"region": "EU", "age": 71.0})] * 5
    + [("insert", "customer", {"region": "ASIA", "age": 23.0})] * 5
    + [("insert", "customer", {"region": None, "age": None})] * 3
    + [("delete", "customer", {"region": "EU", "age": 60.0})] * 3
    + [("insert", "orders", {"channel": "ONLINE"})] * 4
    + [("delete", "orders", {"channel": "STORE"})] * 2
)


# ----------------------------------------------------------------------
# Batch == serial bit-identity
# ----------------------------------------------------------------------
BATCH_SIZES = (1, 2, 31, 64)


@pytest.fixture(scope="module")
def learned_imdb(tiny_imdb):
    return DeepDB.learn(tiny_imdb, EnsembleConfig(sample_size=3_000))


def _customer_ops(rng, n=96):
    """Existing and brand-new ages (``np.insert``), NULLs, and deletes
    that drive a leaf count past zero (the clamp)."""
    ops = list(MIXED_OPS)
    while len(ops) < n:
        age = float(rng.choice([23.0, 40.0, 71.0, 150.5, 999.0]))
        region = rng.choice(["EU", "ASIA", None])
        row = {"region": region, "age": None if rng.random() < 0.1 else age}
        ops.append(("insert", "customer", row))
        if rng.random() < 0.3:
            ops.extend([("delete", "customer", row)] * 3)
        if rng.random() < 0.2:
            ops.append(("insert", "orders", {"channel": "STORE"}))
    return ops


def _imdb_ops(rng, database, n=96):
    """Sampled rows (some NULLed, some with unseen years or orders),
    and deletes of earlier inserts, repeated past their count."""
    ops, inserted = [], []
    while len(ops) < n:
        if inserted and rng.random() < 0.25:
            table, row = inserted[int(rng.integers(0, len(inserted)))]
            ops.extend([("delete", table, row)] * int(rng.integers(1, 4)))
            continue
        table = str(rng.choice(["title", "cast_info", "movie_keyword"]))
        source = database.table(table)
        pick = int(rng.integers(0, source.n_rows))
        row = {}
        for attribute in source.schema.non_key_attributes:
            if attribute.name.startswith("F__"):
                continue
            value = source.decode_value(
                attribute.name, source.columns[attribute.name][pick]
            )
            if value is not None and not isinstance(value, str):
                value = float(value)
                if rng.random() < 0.2:
                    value += 1_000.0 + float(rng.integers(0, 3))  # unseen
            row[attribute.name] = None if rng.random() < 0.1 else value
        ops.append(("insert", table, row))
        inserted.append((table, row))
    return ops


def _random_tree(seed):
    """A random SPN with discrete and binned leaves whose sum nodes
    route by k-means half of the time, by the count argmax otherwise.
    Counts are small, so a short delete-heavy stream clamps them."""
    rng = np.random.default_rng(seed)
    root = _random_spn(rng, range(4), depth=3)
    for node in compiled.post_order(root):
        if isinstance(node, SumNode):
            node.counts = rng.uniform(0.5, 6.0, len(node.children))
            if rng.random() < 0.5:
                node.kmeans = KMeans(
                    n_clusters=len(node.children), seed=seed
                ).fit(rng.normal(size=(40, len(node.scope))))
        else:
            node.null_count = float(rng.integers(0, 3))
    return root


def _random_stream(seed, n=96):
    """Rows over the random trees' domains (unseen discrete values and
    NULLs included) with a delete share high enough to clamp counts."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(np.arange(-6.0, 17.0), size=(n, 4))
    binned = rng.random((n, 4)) < 0.3
    rows[binned] = rng.normal(0.0, 40.0, binned.sum())
    rows[rng.random((n, 4)) < 0.1] = np.nan
    # Odd seeds mostly delete: argmax-routed sums drain to all-zero
    # counts, where the clamp and the first-index tie-break decide.
    signs = np.where(rng.random(n) < (0.8 if seed % 2 else 0.45), -1.0, 1.0)
    return rows, signs


class TestBatchBitIdentity:
    def test_batch_commit_equals_serial_twin(
        self, template_deepdb, learned_imdb, tiny_imdb
    ):
        """Staged batches land on exactly the state the serial
        reference (:func:`serial_apply`) produces, one tuple at a time --
        arrays compared with ``==``, at every batch size, on learned
        customer/orders and IMDb ensembles and on random trees with
        argmax-routed sum nodes, binned leaves, NULLs, unseen values and
        deletes clamped at zero."""
        rng = np.random.default_rng(11)
        for template, ops in (
            (template_deepdb, _customer_ops(rng)),
            (learned_imdb, _imdb_ops(rng, tiny_imdb)),
        ):
            serial = _clone(template)
            serial_apply(serial, ops)
            for size in BATCH_SIZES:
                batched = _clone(template)
                for start in range(0, len(ops), size):
                    chunk = ops[start:start + size]
                    results = batched.apply_update_batch(chunk)
                    assert not any(isinstance(r, Exception) for r in results)
                assert_states_equal(
                    model_state(batched), model_state(serial)
                )

        clamped = argmax_routed = grown = 0
        for seed in range(6):
            template = _random_tree(seed)
            rows, signs = _random_stream(seed)
            serial = copy.deepcopy(template)
            for row, sign in zip(rows, signs):
                serial_update(serial, row, sign)
            for size in BATCH_SIZES:
                batched = copy.deepcopy(template)
                for start in range(0, len(signs), size):
                    batch = TreeBatch(batched)
                    batch.stage_rows(
                        rows[start:start + size], signs[start:start + size]
                    )
                    batch.commit()
                assert_states_equal(tree_state(batched), tree_state(serial))
            before = compiled.post_order(template)
            for old, new in zip(before, compiled.post_order(serial)):
                if isinstance(new, SumNode):
                    clamped += int((new.counts == 0).any())
                    argmax_routed += new.kmeans is None
                elif isinstance(new, DiscreteLeaf):
                    grown += new.values.shape[0] > old.values.shape[0]
        # The streams reached every path the batched stager must match.
        assert clamped and argmax_routed and grown

    def test_one_generation_bump_per_touched_rspn(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        before = {id(r): r.generation for r in deepdb.ensemble.rspns}
        deepdb.apply_update_batch(
            [("insert", "customer", {"region": "EU", "age": 50.0})] * 40
        )
        for rspn in deepdb.ensemble.rspns:
            expected = 1 if "customer" in rspn.tables else 0
            assert rspn.generation == before[id(rspn)] + expected

    def test_commit_patches_compiled_form_in_place(self, template_deepdb):
        """Incremental invalidation: the cached compiled form survives a
        batch commit (weights re-baked, same object), and its signature
        matches a from-scratch recompilation of the updated tree."""
        deepdb = _clone(template_deepdb)
        rspn = deepdb.ensemble.touching("customer")[0]
        form_before = compiled.compiled_for(rspn.root)
        deepdb.apply_update_batch(
            [("insert", "customer", {"region": "EU", "age": 40.0})] * 10
        )
        form_after = compiled.compiled_for(rspn.root)
        assert form_after is form_before  # patched, not rebuilt
        fresh = compiled.CompiledRSPN(rspn.root)
        assert form_after.plan_signature() == fresh.plan_signature()

    def test_staging_does_not_mutate_until_commit(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        state_before = model_state(deepdb)
        generation = deepdb.generation
        pending = deepdb.stage_update_batch(MIXED_OPS)
        assert_states_equal(model_state(deepdb), state_before)
        assert deepdb.generation == generation
        deepdb.commit_update_batch(pending)
        assert deepdb.generation > generation


class TestScopeTablesFollowUpdates:
    """Stale-table regression: the fused leaf fill bakes histograms
    into per-scope tables, so a batch commit patches them and every
    other mutation path drops them -- answers after an update ``==`` a
    twin that compiles from scratch."""

    PROBES = [
        "SELECT COUNT(*) FROM customer WHERE customer.age > 40",
        "SELECT COUNT(*) FROM customer WHERE customer.region = 'EU' "
        "AND customer.age BETWEEN 20 AND 75",
        "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_id = o.c_id "
        "AND o.channel = 'ONLINE' AND c.age < 60",
    ]
    INSERTS = (
        [("insert", "customer", {"region": "EU", "age": 71.0})] * 9
        + [("insert", "customer", {"region": "ASIA", "age": 133.0})] * 3
        + [("insert", "orders", {"channel": "ONLINE"})] * 5
    )
    DELETES = (
        [("delete", "customer", {"region": "EU", "age": 71.0})] * 4
        + [("delete", "orders", {"channel": "ONLINE"})] * 2
    )
    # Values every touched scope already holds: the commit patches
    # every table.  (INSERTS adds an age of 133 and, through an orders
    # row, a 0 to the join's customer indicator: those two scopes
    # leave their domains and rebuild.)
    IN_DOMAIN = (
        [("insert", "customer", {"region": "EU", "age": 71.0})] * 6
        + [("insert", "customer", {"region": "ASIA", "age": 40.0})] * 3
        + [("delete", "customer", {"region": "EU", "age": 40.0})] * 2
        + [("insert", "customer", {"region": None, "age": None})] * 2
    )
    RACE_PROBE = "SELECT COUNT(*) FROM customer WHERE customer.region = 'ASIA'"

    def _answers(self, deepdb, probes=None):
        return [
            float(v) for v in deepdb.cardinality_batch(probes or self.PROBES)
        ]

    def _assert_matches_fresh_twin(self, deepdb):
        tables = deepdb.kernel_stats()["scope_tables"]
        got = self._answers(deepdb)
        # The clone shares no compiled form: it lowers the updated
        # trees and builds its tables from their current histograms.
        assert got == self._answers(_clone(deepdb))
        return got, tables

    @staticmethod
    def _assert_tables_fresh(deepdb):
        """Every table a compiled form holds ``==`` one built from
        scratch over the current leaves; returns how many it checked."""
        checked = 0
        for rspn in deepdb.ensemble.rspns:
            form = rspn.compiled_peek()
            if form is None:
                continue
            for scope, (table, _) in form._scope_tables.items():
                if table is None:
                    continue
                fresh = DiscreteScopeTable([
                    entry for entry in form.plan.leaf_slots_by_scope[scope]
                    if type(entry[1]) is DiscreteLeaf
                ])
                for name in ("domain", "slots", "counts", "present", "cum",
                             "null_counts", "totals", "divisors", "empty"):
                    assert np.array_equal(
                        getattr(table, name), getattr(fresh, name)
                    ), (scope, name)
                checked += 1
        return checked

    def test_batch_commits_patch_the_tables(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        warm = self._answers(deepdb)
        stats = deepdb.kernel_stats()
        tables, builds = stats["scope_tables"], stats["scope_table_builds"]
        assert tables > 0 and builds == tables
        deepdb.apply_update_batch(self.IN_DOMAIN)
        # refresh_weights kept the forms and swapped in patched tables.
        assert deepdb.kernel_stats()["scope_tables"] == tables
        assert self._assert_tables_fresh(deepdb) == tables
        patched, _ = self._assert_matches_fresh_twin(deepdb)
        assert patched != warm
        assert deepdb.kernel_stats()["scope_table_builds"] == builds
        # Values outside a scope's domain: that scope's table is
        # dropped and rebuilds on the next read; the rest are patched.
        deepdb.apply_update_batch(self.INSERTS)
        assert 0 < deepdb.kernel_stats()["scope_tables"] < tables
        self._assert_tables_fresh(deepdb)
        after_insert, _ = self._assert_matches_fresh_twin(deepdb)
        assert after_insert != patched
        assert deepdb.kernel_stats()["scope_tables"] == tables
        builds = deepdb.kernel_stats()["scope_table_builds"]
        deepdb.apply_update_batch(self.DELETES)
        assert self._assert_tables_fresh(deepdb) == tables
        after_delete, _ = self._assert_matches_fresh_twin(deepdb)
        assert after_delete != after_insert
        assert deepdb.kernel_stats()["scope_table_builds"] == builds

    def test_table_built_while_a_batch_stages_is_not_kept(
        self, template_deepdb
    ):
        """A read between staging and commit builds a table from the
        pre-commit leaves; the commit must not keep it stale."""
        deepdb = _clone(template_deepdb)
        deepdb.cardinality(self.PROBES[0])  # warms the age scope only
        pending = deepdb.stage_update_batch(self.IN_DOMAIN)
        # A read between staging and commit builds the region table
        # (not warmed yet) from the live, pre-commit leaves.
        built = deepdb.kernel_stats()["scope_table_builds"]
        before = float(deepdb.cardinality(self.RACE_PROBE))
        assert deepdb.kernel_stats()["scope_table_builds"] > built
        deepdb.commit_update_batch(pending)
        self._assert_tables_fresh(deepdb)
        after = float(deepdb.cardinality(self.RACE_PROBE))
        assert after != before
        assert after == float(_clone(deepdb).cardinality(self.RACE_PROBE))
        self._assert_matches_fresh_twin(deepdb)

    def test_patched_tables_answer_like_fresh_ones_after_every_commit(
        self, learned_imdb, tiny_imdb
    ):
        """After every batch commit, answers from the kept (patched)
        tables are ``==`` a form compiled from scratch, whose tables
        are built from the updated leaves: on random SPNs (unseen
        values, NULLs, clamped deletes) and on learned IMDb."""
        patched = 0
        for seed in range(6):
            root = _random_tree(seed)
            rows, signs = _random_stream(seed)
            rng = np.random.default_rng(seed)
            specs = [_random_spec(rng, range(4)) for _ in range(48)]
            compiled.compiled_for(root).evaluate_batch(specs)
            for start in range(0, len(signs), 16):
                batch = TreeBatch(root)
                batch.stage_rows(rows[start:start + 16], signs[start:start + 16])
                batch.commit()
                form = compiled.compiled_for(root)
                patched += len(form._scope_tables)
                got = form.evaluate_batch(specs)
                fresh = compiled.CompiledRSPN(root).evaluate_batch(specs)
                assert np.array_equal(got, fresh, equal_nan=True)
        assert patched  # some tables were kept across commits

        deepdb = _clone(learned_imdb)
        probes = [named.query for named in job_light(tiny_imdb)][:24]
        deepdb.cardinality_batch(probes)
        ops = _imdb_ops(np.random.default_rng(5), tiny_imdb, n=192)
        for start in range(0, len(ops), 32):
            deepdb.apply_update_batch(ops[start:start + 32])
            kept = deepdb.kernel_stats()["scope_tables"]
            assert self._assert_tables_fresh(deepdb) == kept > 0
            assert self._answers(deepdb, probes) == self._answers(
                _clone(deepdb), probes
            )

    def test_post_commit_reads_build_no_table(self, template_deepdb):
        """``scope_table_builds`` in ``/stats``: warm the probes, commit
        a batch through the serving session, re-run the probes, and no
        table is built."""
        deepdb = _clone(template_deepdb)
        session = ModelSession("m", deepdb, cache_size=0)

        def served():
            return [float(value) for value in session.run_batch(
                [Request("cardinality", sql) for sql in self.PROBES]
            )]

        warm = served()
        builds = session.snapshot()["kernel"]["scope_table_builds"]
        assert builds > 0
        session.apply_batch(self.IN_DOMAIN)
        after = served()
        assert after != warm
        assert session.snapshot()["kernel"]["scope_table_builds"] == builds
        assert after == self._answers(_clone(deepdb))

    def test_one_op_updates_patch_the_tables(self, template_deepdb):
        """``DeepDB.insert``/``delete`` are one-op batches: an in-domain
        one makes the reads after it build no table."""
        deepdb = _clone(template_deepdb)
        warm = self._answers(deepdb)
        stats = deepdb.kernel_stats()
        tables, builds = stats["scope_tables"], stats["scope_table_builds"]
        deepdb.insert("customer", {"region": "EU", "age": 71.0})
        assert self._assert_tables_fresh(deepdb) == tables
        after_insert, _ = self._assert_matches_fresh_twin(deepdb)
        assert after_insert != warm
        assert deepdb.kernel_stats()["scope_table_builds"] == builds
        deepdb.delete("customer", {"region": "EU", "age": 71.0})
        self._assert_matches_fresh_twin(deepdb)
        assert deepdb.kernel_stats()["scope_table_builds"] == builds

    def test_store_mapped_forms_drop_the_tables(self, template_deepdb, tmp_path):
        path = tmp_path / "model.rspn"
        template_deepdb.save(path)
        mapped = DeepDB.load(path, template_deepdb.database)
        live = _clone(template_deepdb)
        try:
            assert self._answers(mapped) == self._answers(live)
            assert mapped.kernel_stats()["scope_tables"] > 0
            for deepdb in (mapped, live):
                deepdb.apply_update_batch(self.INSERTS)
            assert self._answers(mapped) == self._answers(live)
            for deepdb in (mapped, live):
                deepdb.delete("customer", {"region": "EU", "age": 71.0})
            assert self._answers(mapped) == self._answers(live)
        finally:
            mapped.close()

    def test_drift_monitor_swap_serves_fresh_tables(self):
        database = _people_database(seed=31)
        deepdb = DeepDB(database, learn_ensemble(database, _drift_config()))
        registry = ModelRegistry()
        registry.register("people", deepdb)
        session = registry.session("people")
        probes = [
            "SELECT COUNT(*) FROM people WHERE people.age > 60",
            "SELECT COUNT(*) FROM people WHERE people.region = 'EU' "
            "AND people.age > 60",
        ]

        def served():
            results = session.run_batch(
                [Request("cardinality", sql) for sql in probes]
            )
            return [float(value) for value in results]

        warm = served()
        assert deepdb.kernel_stats()["scope_tables"] > 0
        rng = np.random.default_rng(32)
        extra = 6_000
        region = rng.choice(["EU", "ASIA"], extra)
        age = np.where(
            region == "EU", rng.normal(75, 3, extra), rng.normal(18, 2, extra)
        ).round()
        database.table("people").append_rows({
            "p_id": np.arange(20_000, 20_000 + extra, dtype=float),
            "region": list(region),
            "age": age,
        })
        session.apply_batch([
            ("insert", "people", {"region": r, "age": float(a)})
            for r, a in zip(region[:500], age[:500])
        ])
        absorbed = served()
        assert absorbed != warm
        assert absorbed == [
            float(v) for v in _clone(deepdb).cardinality_batch(probes)
        ]
        monitor = DriftMonitor(registry, config=_drift_config(),
                               interval_s=3_600, seed=33)
        assert monitor.run_once() >= 1
        swapped = served()
        assert swapped != absorbed  # the rebuilt model answers
        assert swapped == [
            float(v) for v in _clone(deepdb).cardinality_batch(probes)
        ]


# ----------------------------------------------------------------------
# Update validation (the _apply_update regression)
# ----------------------------------------------------------------------
class TestUpdateValidation:
    def test_unknown_column_raises(self, template_deepdb):
        """Historically a typo'd column was dropped silently, turning
        the intended update into a NULL update; now it raises."""
        deepdb = _clone(template_deepdb)
        with pytest.raises(KeyError, match="no column 'agee'"):
            deepdb.insert("customer", {"agee": 30})

    def test_unknown_table_raises(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        with pytest.raises(KeyError):
            deepdb.insert("nope", {"age": 30})

    def test_missing_columns_null_fill_matches_explicit_none(
        self, template_deepdb
    ):
        partial = _clone(template_deepdb)
        explicit = _clone(template_deepdb)
        partial.insert("customer", {"age": 33.0})
        explicit.insert("customer", {"age": 33.0, "region": None})
        assert_states_equal(model_state(partial), model_state(explicit))

    def test_batch_isolates_bad_slots(self, template_deepdb):
        """The per-slot contract: a bad op fails alone, its batchmates
        apply -- and apply exactly as if the bad op never existed."""
        deepdb = _clone(template_deepdb)
        twin = _clone(template_deepdb)
        good = ("insert", "customer", {"region": "EU", "age": 44.0})
        results = deepdb.apply_update_batch(
            [good, ("insert", "customer", {"bogus": 1}), good]
        )
        assert isinstance(results[1], KeyError)
        assert results[0] == results[2] == deepdb.generation
        twin.apply_update_batch([good, good])
        assert_states_equal(model_state(deepdb), model_state(twin))


# ----------------------------------------------------------------------
# Session write path and snapshot isolation
# ----------------------------------------------------------------------
class TestSessionIngest:
    def test_session_apply_batch_and_single_ops(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        session = ModelSession("m", deepdb, cache_size=0)
        generation = session.insert("customer", {"region": "EU", "age": 40})
        assert generation == deepdb.generation
        results = session.apply_batch(
            [("insert", "customer", {"region": "ASIA", "age": 25.0}),
             ("delete", "customer", {"region": "EU", "age": 40.0})]
        )
        assert results == [deepdb.generation, deepdb.generation]
        with pytest.raises(KeyError):
            session.insert("customer", {"bogus": 1})

    def test_readers_never_observe_torn_snapshot(self, template_deepdb):
        """The differential test of the acceptance criteria: every value
        concurrent readers observe while batches stream in must equal
        (``==``) one of the states a serially-updated twin steps
        through -- a reader can never see half a batch."""
        deepdb = _clone(template_deepdb)
        twin = _clone(template_deepdb)
        probe = "SELECT COUNT(*) FROM customer WHERE customer.age > 100"
        rng = np.random.default_rng(7)
        batches = [
            [("insert", "customer",
              {"region": "EU", "age": float(rng.integers(110, 140))})
             for _ in range(25)]
            for _ in range(6)
        ]

        # The serially-reachable states S0..Sk and their probe answers.
        allowed = [float(twin.cardinality_batch([probe])[0])]
        for batch in batches:
            twin.apply_update_batch(batch)
            allowed.append(float(twin.cardinality_batch([probe])[0]))

        session = ModelSession("m", deepdb, cache_size=0)
        observed = []
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    result = session.run_batch([Request("cardinality", probe)])[0]
                    if isinstance(result, Exception):
                        raise result
                    observed.append(float(result))
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for batch in batches:
            session.apply_batch(batch)
        stop.set()
        for thread in threads:
            thread.join(30.0)

        assert not errors
        assert observed  # readers actually raced the stream
        torn = [value for value in observed if value not in allowed]
        assert torn == []
        assert float(deepdb.cardinality_batch([probe])[0]) == allowed[-1]
        assert_states_equal(model_state(deepdb), model_state(twin))


# ----------------------------------------------------------------------
# HTTP batched /update
# ----------------------------------------------------------------------
def _post(url, path, body, timeout=30):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class TestHttpBatchedUpdate:
    def test_batched_update_round_trip(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        twin = _clone(template_deepdb)
        registry = ModelRegistry()
        registry.register("m", deepdb)
        ops = [
            {"op": "insert", "table": "customer",
             "row": {"region": "EU", "age": 77}},
            {"op": "insert", "table": "customer", "row": {"bogus": 1}},
            {"op": "delete", "table": "customer",
             "row": {"region": "ASIA", "age": 25}},
        ]
        with start_server(registry) as server:
            payload = _post(server.url, "/update", {"ops": ops})
            assert payload["ok"] is False  # one slot rejected
            assert payload["applied"] == 2
            assert payload["generation"] == deepdb.generation
            slots = payload["results"]
            assert slots[0]["ok"] and slots[2]["ok"]
            assert not slots[1]["ok"] and "bogus" in slots[1]["error"]

            # Legacy single-op form still works and bumps the generation.
            single = _post(server.url, "/update", {
                "op": "insert", "table": "customer",
                "row": {"region": "EU", "age": 30},
            })
            assert single["ok"] is True
            assert single["generation"] == deepdb.generation
        twin.apply_update_batch([
            ("insert", "customer", {"region": "EU", "age": 77}),
            ("delete", "customer", {"region": "ASIA", "age": 25}),
        ])
        twin.insert("customer", {"region": "EU", "age": 30})
        assert_states_equal(model_state(deepdb), model_state(twin))

    def test_batched_update_validation_errors(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        registry = ModelRegistry()
        registry.register("m", deepdb)
        with start_server(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as empty:
                _post(server.url, "/update", {"ops": []})
            empty.value.close()
            assert empty.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as bad_op:
                _post(server.url, "/update", {
                    "ops": [{"op": "upsert", "table": "customer", "row": {}}],
                })
            bad_op.value.close()
            assert bad_op.value.code == 400


# ----------------------------------------------------------------------
# The writer thread: update flushes never block the serving loop
# ----------------------------------------------------------------------
PROBE = "SELECT COUNT(*) FROM customer WHERE customer.age > 30"


class _HeldStaging:
    """Patch ``DeepDB.stage_update_batch`` to wait (bounded) for
    :meth:`release` once staging began; records the staging threads."""

    def __init__(self, monkeypatch, timeout=10.0):
        self.started = threading.Event()
        self.released = threading.Event()
        self.finished = threading.Event()
        self.threads = []
        original = DeepDB.stage_update_batch

        def held(deepdb, ops):
            self.threads.append(threading.current_thread())
            self.started.set()
            self.released.wait(timeout)
            try:
                return original(deepdb, ops)
            finally:
                self.finished.set()

        monkeypatch.setattr(DeepDB, "stage_update_batch", held)

    def release(self):
        self.released.set()


class TestWriterThread:
    def test_reads_answer_while_an_update_stages(
        self, template_deepdb, monkeypatch
    ):
        """A ``/query`` over HTTP and an in-process ``cardinality`` both
        return while an update flush is held mid-stage."""
        deepdb = _clone(template_deepdb)
        expected = deepdb.cardinality(PROBE)
        hold = _HeldStaging(monkeypatch)
        registry = ModelRegistry()
        registry.register("m", deepdb, cache_size=0)
        update = {"op": "insert", "table": "customer",
                  "row": {"region": "EU", "age": 44}}
        with start_server(registry) as server:
            answers = {}
            writer = threading.Thread(target=lambda: answers.setdefault(
                "update", _post(server.url, "/update", {"ops": [update]})
            ))
            writer.start()
            try:
                assert hold.started.wait(10)
                read = _post(server.url, "/query", {"sql": PROBE}, timeout=5)
                assert not hold.finished.is_set()  # answered mid-stage
                assert read["value"] == expected
            finally:
                hold.release()
                writer.join(15)
            assert answers["update"]["applied"] == 1

        expected = deepdb.cardinality(PROBE)
        hold = _HeldStaging(monkeypatch)
        async_db = AsyncDeepDB(deepdb, cache_size=0)

        async def scenario():
            pending = asyncio.ensure_future(async_db.update_batch(
                [("insert", "customer", {"region": "ASIA", "age": 35.0})]
            ))
            try:
                for _ in range(1_000):
                    if hold.started.is_set():
                        break
                    await asyncio.sleep(0.01)
                value = await asyncio.wait_for(
                    async_db.cardinality(PROBE), timeout=5
                )
                mid_stage = not hold.finished.is_set()
            finally:
                hold.release()
            return value, mid_stage, await asyncio.wait_for(pending, 15)

        try:
            value, mid_stage, results = asyncio.run(scenario())
        finally:
            async_db.close()
        assert mid_stage
        assert value == expected
        assert results == [deepdb.generation]

    def test_sequential_updates_equal_a_serial_twin(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        twin = _clone(template_deepdb)
        registry = ModelRegistry()
        registry.register("m", deepdb)
        rng = np.random.default_rng(3)
        requests = [_customer_ops(rng, n=40)[-40:] for _ in range(4)]
        with start_server(registry) as server:
            for ops in requests:
                payload = _post(server.url, "/update", {"ops": [
                    {"op": op, "table": table, "row": row}
                    for op, table, row in ops
                ]})
                assert payload["applied"] == len(ops)
            stats = server.stats()["serving"]["update_coalescers"]["m"]
        # One request, one flush: its ops are never split.
        assert stats["flushes"] == len(requests)
        assert stats["max_occupancy"] == 40
        for ops in requests:
            serial_apply(twin, ops)
        assert_states_equal(model_state(deepdb), model_state(twin))

    def test_updates_arriving_mid_stage_group_into_one_flush(
        self, template_deepdb, monkeypatch
    ):
        """One flush stages at a time: requests submitted while it is
        held all join the next flush (one commit), in order."""
        deepdb = _clone(template_deepdb)
        twin = _clone(template_deepdb)
        hold = _HeldStaging(monkeypatch)
        async_db = AsyncDeepDB(deepdb)
        rng = np.random.default_rng(5)
        requests = [_customer_ops(rng, n=8)[-8:] for _ in range(5)]

        async def scenario():
            first = asyncio.ensure_future(async_db.update_batch(requests[0]))
            try:
                for _ in range(1_000):
                    if hold.started.is_set():
                        break
                    await asyncio.sleep(0.01)
                rest = []
                for ops in requests[1:]:  # each past max_wait_ms alone
                    rest.append(asyncio.ensure_future(
                        async_db.update_batch(ops)
                    ))
                    await asyncio.sleep(0.02)
            finally:
                hold.release()
            return await asyncio.wait_for(asyncio.gather(first, *rest), 15)

        try:
            results = asyncio.run(scenario())
        finally:
            async_db.close()
        stats = async_db.stats()["update_coalescers"]["default"]
        assert stats["flushes"] == 2
        assert stats["max_occupancy"] == 8 * (len(requests) - 1)
        assert all(isinstance(r, int) for slots in results for r in slots)
        for ops in requests:
            serial_apply(twin, ops)
        assert_states_equal(model_state(deepdb), model_state(twin))

    def test_close_joins_the_writer_and_resolves_every_future(
        self, template_deepdb, monkeypatch
    ):
        """``close()`` while one update flush is held mid-stage and a
        second waits behind it: both answer, the writer thread exits."""
        deepdb = _clone(template_deepdb)
        hold = _HeldStaging(monkeypatch)
        registry = ModelRegistry()
        registry.register("m", deepdb)
        server = start_server(registry)
        answers = []

        def post(age):
            answers.append(_post(server.url, "/update", {"ops": [
                {"op": "insert", "table": "customer",
                 "row": {"region": "EU", "age": age}},
            ]}))

        clients = [threading.Thread(target=post, args=(age,))
                   for age in (50, 51)]
        closer = threading.Thread(target=server.close)
        try:
            clients[0].start()
            assert hold.started.wait(10)
            clients[1].start()
            for _ in range(500):  # the second waits behind the first
                updates = server.async_db._updates
                if updates is not None and updates.pending == 1:
                    break
                time.sleep(0.01)
            closer.start()
            time.sleep(0.1)  # let close() reach the held flush
        finally:
            hold.release()
            for thread in (closer, *clients):
                if thread.ident is not None:
                    thread.join(15)
            server.close()  # idempotent
        assert not closer.is_alive()
        assert [a["applied"] for a in answers] == [1, 1]
        assert hold.threads and not any(t.is_alive() for t in hold.threads)


# ----------------------------------------------------------------------
# Drift monitor
# ----------------------------------------------------------------------
def _drift_config():
    return EnsembleConfig(sample_size=10_000, correlation_sample=1_000)


def _people_database(n=3_000, seed=0, correlated=False):
    from tests.test_maintenance_drift import _single_table_db

    rng = np.random.default_rng(seed)
    region = rng.choice(["EU", "ASIA"], n)
    if correlated:
        age = np.where(
            region == "EU", rng.normal(75, 3, n), rng.normal(18, 2, n)
        ).round()
    else:
        age = rng.normal(40, 12, n).round()
    return _single_table_db(region, age)


class TestDriftMonitor:
    def test_no_rebuild_without_drift(self):
        database = _people_database(seed=21)
        deepdb = DeepDB(database, learn_ensemble(database, _drift_config()))
        registry = ModelRegistry()
        registry.register("people", deepdb)
        monitor = DriftMonitor(registry, config=_drift_config(),
                               interval_s=3_600, seed=22)
        assert monitor.run_once() == 0
        stats = monitor.stats()
        assert stats["checks"] == 1
        assert stats["rebuilds"] == 0

    def test_monitor_rebuilds_drifted_model_and_stays_monotonic(self):
        database = _people_database(seed=23)
        deepdb = DeepDB(database, learn_ensemble(database, _drift_config()))
        registry = ModelRegistry()
        registry.register("people", deepdb)
        session = registry.session("people")

        # Absorb correlated rows through the session's ingest path, so
        # the model has non-zero update generations before the swap.
        rng = np.random.default_rng(24)
        extra = 6_000
        region = rng.choice(["EU", "ASIA"], extra)
        age = np.where(
            region == "EU", rng.normal(75, 3, extra), rng.normal(18, 2, extra)
        ).round()
        database.table("people").append_rows({
            "p_id": np.arange(20_000, 20_000 + extra, dtype=float),
            "region": list(region),
            "age": age,
        })
        session.apply_batch([
            ("insert", "people", {"region": r, "age": float(a)})
            for r, a in zip(region[:500], age[:500])
        ])
        generation_before = deepdb.generation

        monitor = DriftMonitor(registry, config=_drift_config(),
                               interval_s=3_600, seed=25)
        rebuilt = monitor.run_once()
        assert rebuilt >= 1
        # The replace kept the ensemble generation strictly monotonic,
        # so every generation-keyed cache sees the swap as fresh state.
        assert deepdb.generation > generation_before
        assert monitor.stats()["drift_flags"] >= 1

    def test_registry_loaded_session(self, template_deepdb, tmp_path):
        """The monitor checks the model once it is in memory and never
        loads a store-backed one just to check it."""
        deepdb = _clone(template_deepdb)
        registry = ModelRegistry()
        session = registry.register("m", deepdb)
        assert registry.loaded_session() is session

        path = tmp_path / "m.rspn"
        deepdb.save(path)
        lazy = ModelRegistry()
        lazy.register_store("m", path, deepdb.database)
        try:
            monitor = DriftMonitor(lazy, config=_drift_config(),
                                   interval_s=3_600)
            assert monitor.run_once() == 0
            assert lazy.loaded_session() is None  # still on disk
            assert monitor.stats()["checks"] == 0
            assert monitor.stats()["rounds"] == 1
        finally:
            lazy.close()
