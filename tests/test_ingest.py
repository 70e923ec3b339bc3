"""Streaming ingest: bounded queue, batch applier, copy-on-write
snapshots and incremental invalidation.

The load-bearing properties, all asserted with ``==`` (never allclose):

- a committed batch leaves every touched RSPN *bit-identical* to a twin
  that absorbed the same tuples one at a time through the serial path;
- one batch costs one generation bump per touched RSPN, not one per
  tuple;
- concurrent readers racing a stream of batches only ever observe one
  of the serially-reachable snapshot states -- never a torn tree.
"""

from __future__ import annotations

import copy
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import compiled
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.core.leaves import BinnedLeaf, DiscreteLeaf
from repro.core.nodes import SumNode
from repro.deepdb import DeepDB
from repro.ingest import BatchApplier, DriftMonitor, QueueClosed, UpdateOp, UpdateQueue
from repro.serving import ModelRegistry, start_server
from repro.serving.session import ModelSession, Request
from tests.conftest import build_customer_orders


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


def _tree_state(root):
    """Every mutable array of the tree, in post-order -- the bit-identity
    comparison vocabulary."""
    state = []
    for node in compiled.post_order(root):
        if isinstance(node, SumNode):
            state.append(np.asarray(node.counts, dtype=float).copy())
        elif isinstance(node, DiscreteLeaf):
            state.append(np.asarray(node.values, dtype=float).copy())
            state.append(np.asarray(node.counts, dtype=float).copy())
            state.append(np.asarray([node.null_count], dtype=float))
        elif isinstance(node, BinnedLeaf):
            state.append(np.asarray(node.counts, dtype=float).copy())
            state.append(np.asarray(node.sums, dtype=float).copy())
            state.append(np.asarray([node.null_count], dtype=float))
    return state


def _assert_states_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y, equal_nan=True)


def _model_state(deepdb):
    state = []
    for rspn in deepdb.ensemble.rspns:
        state.append(np.asarray([rspn.full_size, rspn.sample_size]))
        state.extend(_tree_state(rspn.root))
    return state


MIXED_OPS = (
    [("insert", "customer", {"region": "EU", "age": 71.0})] * 5
    + [("insert", "customer", {"region": "ASIA", "age": 23.0})] * 5
    + [("insert", "customer", {"region": None, "age": None})] * 3
    + [("delete", "customer", {"region": "EU", "age": 60.0})] * 3
    + [("insert", "orders", {"channel": "ONLINE"})] * 4
    + [("delete", "orders", {"channel": "STORE"})] * 2
)


# ----------------------------------------------------------------------
# Bounded queue
# ----------------------------------------------------------------------
class TestUpdateQueue:
    def test_fifo_and_batch_coalescing(self):
        queue = UpdateQueue(maxsize=16)
        for i in range(5):
            queue.put(UpdateOp("insert", "customer", {"age": float(i)}))
        first = queue.get_batch(max_batch=3, max_wait_s=0.0)
        second = queue.get_batch(max_batch=3, max_wait_s=0.0)
        assert [op.row["age"] for op in first] == [0.0, 1.0, 2.0]
        assert [op.row["age"] for op in second] == [3.0, 4.0]
        assert queue.stats()["dequeued"] == 5

    def test_put_blocks_on_full_queue_until_consumed(self):
        queue = UpdateQueue(maxsize=2)
        op = UpdateOp("insert", "customer", {"age": 1.0})
        queue.put(op)
        queue.put(op)
        assert queue.put(op, timeout=0.05) is False  # full: backpressure

        consumed = threading.Event()

        def consumer():
            queue.get_batch(max_batch=1, max_wait_s=0.0)
            consumed.set()

        thread = threading.Thread(target=consumer)
        thread.start()
        assert queue.put(op, timeout=5.0) is True  # unblocked by the get
        thread.join(5.0)
        assert consumed.is_set()
        assert queue.stats()["put_waits"] >= 1
        assert queue.stats()["high_water"] == 2

    def test_close_refuses_producers_but_drains_consumers(self):
        queue = UpdateQueue(maxsize=8)
        queue.put(UpdateOp("insert", "customer", {"age": 1.0}))
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(UpdateOp("insert", "customer", {"age": 2.0}))
        remaining = queue.get_batch(max_batch=8, max_wait_s=0.0)
        assert len(remaining) == 1
        assert queue.get_batch(max_batch=8, max_wait_s=0.0) is None


# ----------------------------------------------------------------------
# Batch == serial bit-identity
# ----------------------------------------------------------------------
class TestBatchBitIdentity:
    def test_batch_commit_equals_serial_twin(self, template_deepdb):
        """One staged batch lands on exactly the state N serial
        insert/delete calls produce -- arrays compared with ``==``."""
        batched = _clone(template_deepdb)
        serial = _clone(template_deepdb)

        results = batched.apply_update_batch(MIXED_OPS)
        assert not any(isinstance(r, Exception) for r in results)
        for op, table, row in MIXED_OPS:
            if op == "insert":
                serial.insert(table, row)
            else:
                serial.delete(table, row)
        _assert_states_equal(_model_state(batched), _model_state(serial))

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
        state_before = _model_state(deepdb)
        generation = deepdb.generation
        pending = deepdb.stage_update_batch(MIXED_OPS)
        _assert_states_equal(_model_state(deepdb), state_before)
        assert deepdb.generation == generation
        deepdb.commit_update_batch(pending)
        assert deepdb.generation > generation


class TestScopeTablesFollowUpdates:
    """Stale-table regression: the fused leaf fill bakes histograms
    into per-scope tables, so every mutation path must drop them --
    answers after an update ``==`` a twin that compiles from scratch."""

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

    def _answers(self, deepdb):
        return [float(v) for v in deepdb.cardinality_batch(self.PROBES)]

    def _assert_matches_fresh_twin(self, deepdb):
        tables = deepdb.kernel_stats()["scope_tables"]
        got = self._answers(deepdb)
        # The clone shares no compiled form: it lowers the updated
        # trees and builds its tables from their current histograms.
        assert got == self._answers(_clone(deepdb))
        return got, tables

    def test_batch_commits_drop_the_tables(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        warm = self._answers(deepdb)
        assert deepdb.kernel_stats()["scope_tables"] > 0
        deepdb.apply_update_batch(self.INSERTS)
        # refresh_weights kept the forms and emptied their tables.
        assert deepdb.kernel_stats()["scope_tables"] == 0
        after_insert, _ = self._assert_matches_fresh_twin(deepdb)
        assert after_insert != warm
        deepdb.apply_update_batch(self.DELETES)
        after_delete, _ = self._assert_matches_fresh_twin(deepdb)
        assert after_delete != after_insert

    def test_serial_updates_drop_the_tables(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        warm = self._answers(deepdb)
        deepdb.insert("customer", {"region": "EU", "age": 71.0})
        after_insert, _ = self._assert_matches_fresh_twin(deepdb)
        assert after_insert != warm
        deepdb.delete("customer", {"region": "EU", "age": 71.0})
        self._assert_matches_fresh_twin(deepdb)

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
        _assert_states_equal(_model_state(partial), _model_state(explicit))

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
        _assert_states_equal(_model_state(deepdb), _model_state(twin))


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
        _assert_states_equal(_model_state(deepdb), _model_state(twin))


# ----------------------------------------------------------------------
# Batch applier thread
# ----------------------------------------------------------------------
class TestBatchApplier:
    def test_applier_drains_and_coalesces(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        twin = _clone(template_deepdb)
        session = ModelSession("m", deepdb, cache_size=0)
        queue = UpdateQueue(maxsize=1_000)
        ops = [
            UpdateOp("insert", "customer",
                     {"region": "EU" if i % 2 else "ASIA", "age": float(i % 90)})
            for i in range(400)
        ]
        applier = BatchApplier(session, queue, max_batch=128, max_wait_s=0.01)
        with applier:
            for op in ops:
                queue.put(op)
        assert not applier.running
        stats = applier.stats()
        assert stats["applied"] == 400
        assert stats["rejected"] == 0
        assert stats["flushes"] < 400  # actually coalesced
        assert stats["last_generation"] == deepdb.generation
        assert stats["queue"]["enqueued"] == stats["queue"]["dequeued"] == 400
        # Bit-identical to the same stream applied serially.
        for op in ops:
            twin.insert(op.table, op.row)
        _assert_states_equal(_model_state(deepdb), _model_state(twin))

    def test_applier_survives_rejected_ops(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        session = ModelSession("m", deepdb, cache_size=0)
        queue = UpdateQueue(maxsize=100)
        applier = BatchApplier(session, queue, max_batch=16, max_wait_s=0.01)
        with applier:
            queue.put(UpdateOp("insert", "customer", {"age": 30.0}))
            queue.put(UpdateOp("insert", "customer", {"bogus": 1}))
            queue.put(UpdateOp("insert", "customer", {"age": 40.0}))
        stats = applier.stats()
        assert stats["applied"] == 2
        assert stats["rejected"] == 1


# ----------------------------------------------------------------------
# HTTP batched /update
# ----------------------------------------------------------------------
class TestHttpBatchedUpdate:
    def _post(self, url, path, body):
        request = urllib.request.Request(
            url + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))

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
            payload = self._post(server.url, "/update", {"ops": ops})
            assert payload["ok"] is False  # one slot rejected
            assert payload["applied"] == 2
            assert payload["generation"] == deepdb.generation
            slots = payload["results"]
            assert slots[0]["ok"] and slots[2]["ok"]
            assert not slots[1]["ok"] and "bogus" in slots[1]["error"]

            # Legacy single-op form still works and bumps the generation.
            single = self._post(server.url, "/update", {
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
        _assert_states_equal(_model_state(deepdb), _model_state(twin))

    def test_batched_update_validation_errors(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        registry = ModelRegistry()
        registry.register("m", deepdb)
        with start_server(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as empty:
                self._post(server.url, "/update", {"ops": []})
            assert empty.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as bad_op:
                self._post(server.url, "/update", {
                    "ops": [{"op": "upsert", "table": "customer", "row": {}}],
                })
            assert bad_op.value.code == 400


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

    def test_registry_resident_sessions(self, template_deepdb):
        deepdb = _clone(template_deepdb)
        registry = ModelRegistry()
        session = registry.register("m", deepdb)
        assert registry.resident_sessions() == [session]
