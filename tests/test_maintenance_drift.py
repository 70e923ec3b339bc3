"""Structure-drift detection and ensemble refresh (Section 5.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.core.maintenance import (
    absorb_inserts,
    check_structure_drift,
    refresh_ensemble,
)
from repro.engine.executor import Executor
from repro.engine.join import compute_tuple_factors
from repro.engine.query import Predicate, Query
from repro.engine.table import Database, Table
from repro.evaluation.metrics import q_error
from repro.schema.schema import Attribute, SchemaGraph, TableSchema


def _single_table_db(region, age, n=None):
    schema = SchemaGraph()
    schema.add_table(
        TableSchema(
            "people",
            [
                Attribute("p_id", "key"),
                Attribute("region", "categorical"),
                Attribute("age", "numeric"),
            ],
            primary_key="p_id",
        )
    )
    database = Database(schema)
    n = n if n is not None else len(age)
    database.add_table(
        Table.from_columns(
            schema.table("people"),
            {
                "p_id": np.arange(n, dtype=float),
                "region": list(region),
                "age": np.asarray(age, dtype=float),
            },
        )
    )
    compute_tuple_factors(database)
    return database


def _independent_db(n=3_000, seed=0):
    rng = np.random.default_rng(seed)
    region = rng.choice(["EU", "ASIA"], n)
    age = rng.normal(40, 12, n).round()
    return _single_table_db(region, age)


def _config():
    return EnsembleConfig(sample_size=10_000, correlation_sample=1_000)


class TestDriftDetection:
    def test_no_drift_on_unchanged_data(self):
        database = _independent_db()
        ensemble = learn_ensemble(database, _config())
        reports = check_structure_drift(ensemble, database, seed=1)
        assert all(not r.has_drift for r in reports)

    def test_no_drift_on_stationary_inserts(self):
        """Inserts from the same distribution must not trigger rebuilds."""
        database = _independent_db(seed=2)
        ensemble = learn_ensemble(database, _config())
        rng = np.random.default_rng(3)
        extra = 1_000
        database.table("people").append_rows(
            {
                "p_id": np.arange(10_000, 10_000 + extra, dtype=float),
                "region": list(rng.choice(["EU", "ASIA"], extra)),
                "age": rng.normal(40, 12, extra).round(),
            }
        )
        mask = np.zeros(database.table("people").n_rows, dtype=bool)
        mask[-extra:] = True
        absorb_inserts(ensemble, database, {"people": mask})
        reports = check_structure_drift(ensemble, database, seed=4)
        assert all(not r.has_drift for r in reports)

    def test_new_dependency_detected(self):
        """Inserts that correlate previously independent columns fire."""
        database = _independent_db(seed=5)
        ensemble = learn_ensemble(database, _config())
        # Flood the table with strongly correlated rows: EU -> old,
        # ASIA -> young, with twice the original population.
        rng = np.random.default_rng(6)
        extra = 6_000
        region = rng.choice(["EU", "ASIA"], extra)
        age = np.where(
            region == "EU",
            rng.normal(75, 3, extra),
            rng.normal(18, 2, extra),
        ).round()
        database.table("people").append_rows(
            {
                "p_id": np.arange(20_000, 20_000 + extra, dtype=float),
                "region": list(region),
                "age": age,
            }
        )
        reports = check_structure_drift(ensemble, database, seed=7)
        assert any(r.has_drift for r in reports)
        drifted = next(r for r in reports if r.has_drift)
        columns = {c for a, b, _v in drifted.violations for c in (a, b)}
        assert columns == {"people.region", "people.age"}
        assert "broken column splits" in drifted.describe()

    def test_report_describe_without_drift(self):
        database = _independent_db(seed=8)
        ensemble = learn_ensemble(database, _config())
        report = check_structure_drift(ensemble, database, seed=9)[0]
        assert "still valid" in report.describe()


class TestRefresh:
    def test_refresh_rebuilds_only_drifted(self):
        database = _independent_db(seed=10)
        ensemble = learn_ensemble(database, _config())
        before = list(ensemble.rspns)
        reports, rebuilt, _seconds = refresh_ensemble(
            ensemble, database, _config(), seed=11
        )
        assert rebuilt == 0
        assert ensemble.rspns == before

    def test_refresh_restores_accuracy(self):
        """After drift, the rebuilt RSPN answers correlated predicates
        accurately again while Algorithm-1 updates alone cannot."""
        database = _independent_db(seed=12)
        ensemble = learn_ensemble(database, _config())

        rng = np.random.default_rng(13)
        extra = 9_000
        region = rng.choice(["EU", "ASIA"], extra)
        age = np.where(
            region == "EU", rng.normal(75, 3, extra), rng.normal(18, 2, extra)
        ).round()
        table = database.table("people")
        table.append_rows(
            {
                "p_id": np.arange(30_000, 30_000 + extra, dtype=float),
                "region": list(region),
                "age": age,
            }
        )
        mask = np.zeros(table.n_rows, dtype=bool)
        mask[-extra:] = True
        absorb_inserts(ensemble, database, {"people": mask})

        query = Query(
            ("people",),
            predicates=(
                Predicate("people", "region", "=", "EU"),
                Predicate("people", "age", ">", 60),
            ),
        )
        truth = Executor(database).cardinality(query)
        updated_error = q_error(
            truth, ProbabilisticQueryCompiler(ensemble).cardinality(query)
        )

        reports, rebuilt, _seconds = refresh_ensemble(
            ensemble, database, _config(), seed=14
        )
        assert rebuilt >= 1
        refreshed_error = q_error(
            truth, ProbabilisticQueryCompiler(ensemble).cardinality(query)
        )
        assert refreshed_error < updated_error
        assert refreshed_error < 1.5

    def test_refresh_preserves_ensemble_size(self):
        database = _independent_db(seed=15)
        ensemble = learn_ensemble(database, _config())
        n_before = len(ensemble.rspns)
        refresh_ensemble(ensemble, database, _config(), seed=16)
        assert len(ensemble.rspns) == n_before


class TestJoinModelDrift:
    def test_join_rspn_checked_on_full_outer_join(self, customer_orders_db):
        ensemble = learn_ensemble(
            customer_orders_db,
            EnsembleConfig(sample_size=4_000, correlation_sample=500),
        )
        reports = check_structure_drift(ensemble, customer_orders_db, seed=17)
        assert len(reports) == len(ensemble.rspns)
        join_reports = [r for r in reports if r.rspn.is_join_model]
        assert join_reports  # the fixture's correlation forces a join RSPN
        assert all(not r.has_drift for r in reports)


class TestReportDeterminism:
    """The per-child seed fix: recursing into every product child with
    the parent's seed made sibling subtrees draw identical RDC
    subsamples, so reports depended on recursion order."""

    @staticmethod
    def _plant_drift(database, seed):
        rng = np.random.default_rng(seed)
        extra = 6_000
        region = rng.choice(["EU", "ASIA"], extra)
        age = np.where(
            region == "EU", rng.normal(75, 3, extra), rng.normal(18, 2, extra)
        ).round()
        database.table("people").append_rows(
            {
                "p_id": np.arange(20_000, 20_000 + extra, dtype=float),
                "region": list(region),
                "age": age,
            }
        )

    def test_same_seed_same_report(self):
        database = _independent_db(seed=30)
        ensemble = learn_ensemble(database, _config())
        self._plant_drift(database, seed=33)
        first = check_structure_drift(ensemble, database, seed=31)
        second = check_structure_drift(ensemble, database, seed=31)
        assert [r.violations for r in first] == [r.violations for r in second]
        assert any(r.has_drift for r in first)

    def test_join_model_report_deterministic(self, customer_orders_db):
        ensemble = learn_ensemble(
            customer_orders_db,
            EnsembleConfig(sample_size=4_000, correlation_sample=500),
        )
        first = check_structure_drift(ensemble, customer_orders_db, seed=32)
        second = check_structure_drift(ensemble, customer_orders_db, seed=32)
        assert [r.violations for r in first] == [r.violations for r in second]


class TestAbsorbBatching:
    """absorb_inserts now stages one copy-on-write batch per RSPN
    instead of a per-tuple insert storm."""

    def test_absorb_bit_identical_to_serial_inserts(self):
        """Same rng draw, same tuples: the batched absorb must land on
        exactly the per-tuple loop's final state (``==``, not allclose),
        at one generation bump per RSPN instead of one per tuple."""
        import copy

        from repro.core.maintenance import delta_database
        from repro.engine.join import qualify
        from tests.update_reference import (
            assert_states_equal,
            serial_insert,
            tree_state,
        )

        database = _independent_db(seed=40)
        ensemble = learn_ensemble(database, _config())
        twin = copy.deepcopy(ensemble)

        rng = np.random.default_rng(41)
        extra = 2_000
        database.table("people").append_rows(
            {
                "p_id": np.arange(10_000, 10_000 + extra, dtype=float),
                "region": list(rng.choice(["EU", "ASIA"], extra)),
                "age": rng.normal(40, 12, extra).round(),
            }
        )
        mask = np.zeros(database.table("people").n_rows, dtype=bool)
        mask[-extra:] = True

        inserted, _seconds = absorb_inserts(
            ensemble, database, {"people": mask}, seed=42
        )
        assert inserted > 0

        # Replay the exact same draw through the serial reference of
        # Algorithm 1, one tuple at a time.
        serial_rng = np.random.default_rng(42)
        delta = delta_database(database, {"people": mask})
        serial_inserted = 0
        for rspn in twin.rspns:
            table = delta.table(next(iter(rspn.tables)))
            columns = [
                qualify(table.name, a.name)
                for a in table.schema.non_key_attributes
            ]
            data = np.column_stack(
                [table.columns[c.split(".", 1)[1]] for c in columns]
            )
            keep = serial_rng.random(data.shape[0]) < rspn.sample_fraction
            for row in data[keep]:
                serial_insert(rspn, dict(zip(columns, row)))
                serial_inserted += 1

        assert inserted == serial_inserted
        for batched, serial in zip(ensemble.rspns, twin.rspns):
            assert batched.full_size == serial.full_size
            assert batched.sample_size == serial.sample_size
            assert_states_equal(
                tree_state(batched.root), tree_state(serial.root)
            )
            # One absorb = one invalidation, not one per tuple.
            assert batched.generation == 1
            assert serial.generation == serial_inserted

    def test_absorb_tracks_full_relearn_cardinality(self):
        """An ensemble that absorbed stationary inserts answers within a
        whisker of one re-learned from scratch on the full data."""
        database = _independent_db(n=4_000, seed=43)
        ensemble = learn_ensemble(database, _config())
        rng = np.random.default_rng(44)
        extra = 4_000
        database.table("people").append_rows(
            {
                "p_id": np.arange(10_000, 10_000 + extra, dtype=float),
                "region": list(rng.choice(["EU", "ASIA"], extra)),
                "age": rng.normal(40, 12, extra).round(),
            }
        )
        mask = np.zeros(database.table("people").n_rows, dtype=bool)
        mask[-extra:] = True
        absorb_inserts(ensemble, database, {"people": mask}, seed=45)

        compute_tuple_factors(database)
        relearned = learn_ensemble(database, _config())
        executor = Executor(database)
        queries = [
            Query(("people",), predicates=(Predicate("people", "region", "=", "EU"),)),
            Query(("people",), predicates=(Predicate("people", "age", ">", 50),)),
            Query(
                ("people",),
                predicates=(
                    Predicate("people", "region", "=", "ASIA"),
                    Predicate("people", "age", "<", 35),
                ),
            ),
        ]
        for query in queries:
            truth = executor.cardinality(query)
            absorbed = ProbabilisticQueryCompiler(ensemble).cardinality(query)
            fresh = ProbabilisticQueryCompiler(relearned).cardinality(query)
            assert q_error(truth, absorbed) < 1.5
            assert q_error(fresh, absorbed) < 1.3


class TestRefreshSwap:
    def _two_table_db(self, seed):
        """Two unrelated tables -> two independent RSPNs; only
        ``people`` will be made to drift."""
        schema = SchemaGraph()
        schema.add_table(
            TableSchema(
                "people",
                [
                    Attribute("p_id", "key"),
                    Attribute("region", "categorical"),
                    Attribute("age", "numeric"),
                ],
                primary_key="p_id",
            )
        )
        schema.add_table(
            TableSchema(
                "items",
                [
                    Attribute("i_id", "key"),
                    Attribute("color", "categorical"),
                    Attribute("weight", "numeric"),
                ],
                primary_key="i_id",
            )
        )
        database = Database(schema)
        rng = np.random.default_rng(seed)
        n = 3_000
        database.add_table(
            Table.from_columns(
                schema.table("people"),
                {
                    "p_id": np.arange(n, dtype=float),
                    "region": list(rng.choice(["EU", "ASIA"], n)),
                    "age": rng.normal(40, 12, n).round(),
                },
            )
        )
        database.add_table(
            Table.from_columns(
                schema.table("items"),
                {
                    "i_id": np.arange(n, dtype=float),
                    "color": list(rng.choice(["red", "blue"], n)),
                    "weight": rng.normal(10, 3, n).round(),
                },
            )
        )
        compute_tuple_factors(database)
        return database

    def test_swap_preserves_untouched_rspn_and_stays_monotonic(self):
        database = self._two_table_db(seed=50)
        ensemble = learn_ensemble(database, _config())
        people_index = next(
            i for i, r in enumerate(ensemble.rspns) if "people" in r.tables
        )
        items_index = next(
            i for i, r in enumerate(ensemble.rspns) if "items" in r.tables
        )

        # Give both models incremental state (generation > 0) so the
        # swap's monotonicity actually has something to preserve.
        ensemble.rspns[items_index].apply_batch(
            [({"items.color": None, "items.weight": 12.0}, +1)] * 3
        )
        ensemble.rspns[people_index].apply_batch(
            [({"people.region": None, "people.age": 30.0}, +1)] * 3
        )
        items_before = ensemble.rspns[items_index]
        items_generation = items_before.generation
        ensemble_generation = ensemble.generation

        # Drift only people: flood it with correlated rows.
        rng = np.random.default_rng(51)
        extra = 6_000
        region = rng.choice(["EU", "ASIA"], extra)
        age = np.where(
            region == "EU", rng.normal(75, 3, extra), rng.normal(18, 2, extra)
        ).round()
        database.table("people").append_rows(
            {
                "p_id": np.arange(20_000, 20_000 + extra, dtype=float),
                "region": list(region),
                "age": age,
            }
        )

        reports, rebuilt, _seconds = refresh_ensemble(
            ensemble, database, _config(), seed=52
        )
        assert rebuilt >= 1
        assert reports[people_index].has_drift
        # The drifted model was swapped for a fresh learn...
        assert ensemble.rspns[people_index].generation == 0
        # ...the untouched one is the *same object* with its
        # incremental state intact...
        assert ensemble.rspns[items_index] is items_before
        assert ensemble.rspns[items_index].generation == items_generation
        # ...and the ensemble generation moved strictly forward, so
        # generation-keyed caches all see the swap as fresh state.
        assert ensemble.generation > ensemble_generation
