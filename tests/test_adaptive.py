"""The adaptive planning loop: plan cache and mid-execution
re-optimization.

Three contracts, asserted with ``==`` where bit-identity is the claim:

- a **cache hit returns the cold plan**: same join tree, same estimated
  cost, the very same prefetched oracle -- the key is the query's exact
  canonical form, so two queries one literal apart never share an
  entry, and any generation movement (insert/delete) invalidates the
  cache;
- with the replan threshold disabled (``inf``/``None``) the adaptive
  executor is **bit-for-bit the static pipeline** (same plan, same
  intermediates in the same order, same result rows, same cost);
- a planted 100x misestimate triggers **exactly one** replan whose
  realised C_out beats the static plan, and every executed join reports
  the estimator's *raw* (unclamped, pre-patch) estimate in
  ``join_gaps`` -- a zero estimate reads ``0.0``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tests.conftest import build_customer_orders
from repro.deepdb import DeepDB
from repro.engine.executor import Executor
from repro.engine.query import Predicate, Query, count_query
from repro.engine.table import Database, Table
from repro.estimator import CardinalityEstimator
from repro.optimizer import (
    PlanCache,
    SubqueryCardinalities,
    cache_epoch,
    execute_plan,
    optimal_plan,
    optimize_and_execute,
)
from repro.schema.schema import Attribute, SchemaGraph, TableSchema
from repro.serving.session import ModelSession, Request


# ----------------------------------------------------------------------
# Shared fixtures / builders
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def adaptive_db():
    return build_customer_orders(n_customers=300, seed=7)


@pytest.fixture(scope="module")
def adaptive_deepdb(adaptive_db):
    return DeepDB.learn(adaptive_db)


def _chain_db():
    """a <- b <- c <- d with sizes picked so one misestimate matters.

    Truth: |a|=100, |ab|=|bc|=|abc|=10,000 (every a has 100 b's, one c
    per b), |cd|=|bcd|=|abcd|=200 (200 d's on distinct c's).  A plan
    that descends through ab is 50x worse realised than one that starts
    from cd.
    """
    schema = SchemaGraph()
    names = ("a", "b", "c", "d")
    for name, parent in zip(names, (None,) + names[:-1]):
        attributes = [Attribute(f"{name}_id", "key")]
        if parent is not None:
            attributes.append(Attribute(f"{parent}_id", "key"))
        schema.add_table(
            TableSchema(name, attributes, primary_key=f"{name}_id")
        )
    database = Database(schema)
    database.add_table(Table.from_columns(
        schema.table("a"), {"a_id": np.arange(100, dtype=float)},
    ))
    database.add_table(Table.from_columns(
        schema.table("b"),
        {
            "b_id": np.arange(10_000, dtype=float),
            "a_id": np.repeat(np.arange(100, dtype=float), 100),
        },
    ))
    database.add_table(Table.from_columns(
        schema.table("c"),
        {
            "c_id": np.arange(10_000, dtype=float),
            "b_id": np.arange(10_000, dtype=float),
        },
    ))
    database.add_table(Table.from_columns(
        schema.table("d"),
        {
            "d_id": np.arange(200, dtype=float),
            "c_id": np.arange(200, dtype=float),
        },
    ))
    for parent, child in zip(names, names[1:]):
        schema.add_foreign_key(parent, child, f"{parent}_id")
    return database


class _PlantedEstimator(CardinalityEstimator):
    """Exact truth everywhere except explicitly planted table subsets --
    the adversarial estimator of the replan tests."""

    def __init__(self, database, plants=()):
        self.truth = Executor(database)
        self.plants = {
            frozenset(key): float(value)
            for key, value in dict(plants).items()
        }

    def cardinality(self, query):
        key = frozenset(query.tables)
        if key in self.plants:
            return self.plants[key]
        return self.truth.cardinality(query)


# The adversarial plants: the estimator claims the ab spine is tiny, so
# the static optimizer descends straight into the 10,000-row joins.
_CHAIN_PLANTS = {("a", "b"): 100.0, ("a", "b", "c"): 100.0}
_CHAIN_QUERY = count_query(["a", "b", "c", "d"])


# ----------------------------------------------------------------------
# cache_epoch
# ----------------------------------------------------------------------
class _FakeModel:
    def __init__(self, generation):
        self.generation = generation


class TestCacheEpoch:
    def test_generation_from_estimator(self):
        assert cache_epoch(_FakeModel(7)) == 7

    def test_generation_from_ensemble_fallback(self):
        class _Wrapped:
            ensemble = _FakeModel(3)

        assert cache_epoch(_Wrapped()) == 3


# ----------------------------------------------------------------------
# PlanCache unit behaviour
# ----------------------------------------------------------------------
def _q(low):
    return count_query(
        ["customer"], predicates=(Predicate("customer", "age", ">=", low),)
    )


class TestPlanCacheUnit:
    def test_miss_store_hit_returns_the_same_entry(self):
        cache = PlanCache()
        query = _q(30.0)
        assert cache.lookup(query, 0) is None
        entry = ("plan", 12.5, "oracle")
        cache.store(query, entry, 0)
        assert cache.lookup(query, 0) is entry
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_epoch_change_invalidates(self):
        cache = PlanCache()
        query = _q(30.0)
        cache.store(query, "entry", 0)
        # Model generation moved: the cached plan was chosen under
        # estimates that no longer exist.
        assert cache.lookup(query, 1) is None
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_first_epoch_is_not_an_invalidation(self):
        cache = PlanCache()
        assert cache.lookup(_q(30.0), 5) is None
        assert cache.invalidations == 0

    def test_explicit_invalidate(self):
        cache = PlanCache()
        cache.store(_q(30.0), "entry", 0)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.lookup(_q(30.0), 0) is None

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        queries = [_q(10.0), _q(20.0), _q(30.0)]
        for i, query in enumerate(queries):
            cache.store(query, f"entry{i}", 0)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup(queries[0], 0) is None  # oldest evicted
        assert cache.lookup(queries[1], 0) == "entry1"
        assert cache.lookup(queries[2], 0) == "entry2"

    def test_linear_and_bushy_cache_separately(self):
        cache = PlanCache()
        query = _q(30.0)
        cache.store(query, "bushy", 0, linear=False)
        cache.store(query, "linear", 0, linear=True)
        assert cache.lookup(query, 0, linear=False) == "bushy"
        assert cache.lookup(query, 0, linear=True) == "linear"

    def test_snapshot_counters(self):
        cache = PlanCache(maxsize=8)
        cache.store(_q(30.0), "entry", 2)
        cache.lookup(_q(30.0), 2)
        snap = cache.snapshot()
        assert snap["size"] == 1
        assert snap["maxsize"] == 8
        assert snap["hits"] == 1
        assert snap["epoch"] == 2


_AGE = ("customer", "age")


def _age(op, value):
    return Predicate(*_AGE, op, value)


# Pairs a lossy featurized key merges (literals pooled to min/max, IN
# sets counted, values clipped to [-1, 2]): each pair must get two keys,
# and the second plan must be its own cold plan.
_COLLISIONS = {
    "in_values": (
        (_age("IN", (20, 30, 60)),),
        (_age("IN", (20, 50, 60)),),
    ),
    "not_equal_count": (
        (_age("<>", 20), _age("<>", 40), _age("<>", 60)),
        (_age("<>", 20), _age("<>", 60)),
    ),
    "clipped_literal": (
        (_age(">", 1000),),
        (_age(">", 5000),),
    ),
}


def _join(*predicates):
    return count_query(["customer", "orders"], predicates=predicates)


class TestShapeKeys:
    def test_key_is_the_canonical_query_form(self):
        query = _q(30.0)
        assert PlanCache.key(query) == (query.normalized(), False)
        assert PlanCache.key(query, linear=True) == (
            query.normalized(), True
        )
        assert PlanCache.key(_q(30.0)) == PlanCache.key(query)
        assert PlanCache.key(_q(40.0)) != PlanCache.key(query)

    def test_keys_are_predicate_order_invariant(self):
        age = Predicate("customer", "age", ">=", 30.0)
        channel = Predicate("orders", "channel", "=", "ONLINE")
        one = _join(age, channel)
        two = _join(channel, age)
        assert one.describe() != two.describe()  # text keys would differ
        assert PlanCache.key(one) == PlanCache.key(two)

    def test_keys_separate_different_literals(self):
        one = _join(_age(">=", 30.0))
        two = _join(_age(">=", 55.0))
        assert PlanCache.key(one) != PlanCache.key(two)

    def test_normalized_sorts_in_values_and_or_groups(self):
        region = Predicate("customer", "region", "=", "EU")
        one = Query(
            tables=("customer",),
            predicates=(_age("IN", [60, 20, 30, 20]), region),
            disjunctions=((_age("<", 25), _age(">", 50)), (region,)),
        )
        two = Query(
            tables=("customer",),
            predicates=(region, _age("IN", (20, 30, 60))),
            disjunctions=((region,), (_age(">", 50), _age("<", 25))),
        )
        assert one != two
        assert one.normalized() == two.normalized()
        assert hash(one.normalized()) == hash(two.normalized())
        (in_predicate,) = [
            p for p in one.normalized().predicates if p.op == "IN"
        ]
        assert in_predicate.value == (20, 30, 60)
        # Every other field is kept as it is, and normalizing is
        # idempotent.
        assert one.normalized().tables == one.tables
        assert one.normalized().aggregate == one.aggregate
        assert one.normalized().normalized() == one.normalized()

    @pytest.mark.parametrize("pair", sorted(_COLLISIONS))
    def test_collision_pairs_get_distinct_keys(self, pair):
        first, second = _COLLISIONS[pair]
        assert PlanCache.key(_join(*first)) != PlanCache.key(_join(*second))
        # Permuting a query's predicates still shares its key.
        assert PlanCache.key(_join(*second)) == PlanCache.key(
            _join(*reversed(second))
        )

    @pytest.mark.parametrize("pair", sorted(_COLLISIONS))
    def test_second_plan_of_a_collision_pair_is_its_cold_plan(
        self, pair, adaptive_db, adaptive_deepdb
    ):
        first, second = _COLLISIONS[pair]
        cached = DeepDB(adaptive_db, adaptive_deepdb.ensemble)
        uncached = DeepDB(
            adaptive_db, adaptive_deepdb.ensemble, plan_cache=False
        )
        _plan, _cost, first_oracle = cached.plan(_join(*first))
        plan, cost, oracle = cached.plan(_join(*second))
        cold_plan, cold_cost, _ = uncached.plan(_join(*second))
        assert oracle is not first_oracle
        assert (plan, cost) == (cold_plan, cold_cost)
        assert cached.plan_cache.hits == 0
        # A permuted repeat is a hit on the second query's own entry.
        assert cached.plan(_join(*reversed(second)))[2] is oracle
        assert cached.plan_cache.hits == 1


# ----------------------------------------------------------------------
# DeepDB + serving integration
# ----------------------------------------------------------------------
_JOIN_SQL = (
    "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_id = o.c_id "
    "AND c.age > 40"
)


class TestDeepDBPlanCache:
    def test_cached_plan_is_the_cold_plan(self, adaptive_deepdb):
        deepdb = adaptive_deepdb
        assert deepdb.plan_cache is not None
        misses = deepdb.plan_cache.misses
        hits = deepdb.plan_cache.hits
        cold_plan, cold_cost, cold_oracle = deepdb.plan(_JOIN_SQL)
        assert deepdb.plan_cache.misses == misses + 1
        hit_plan, hit_cost, hit_oracle = deepdb.plan(_JOIN_SQL)
        assert deepdb.plan_cache.hits == hits + 1
        # Not merely equivalent: the identical planning artefacts.
        assert hit_plan is cold_plan
        assert hit_cost == cold_cost
        assert hit_oracle is cold_oracle

    def test_insert_and_delete_invalidate(self, adaptive_deepdb):
        deepdb = adaptive_deepdb
        row = {"c_id": 999_983.0, "region": "EU", "age": 44.0}
        deepdb.plan(_JOIN_SQL)  # populate under the current epoch
        invalidations = deepdb.plan_cache.invalidations
        misses = deepdb.plan_cache.misses
        deepdb.insert("customer", row)
        deepdb.plan(_JOIN_SQL)  # epoch moved: cleared, then re-planned
        assert deepdb.plan_cache.invalidations == invalidations + 1
        assert deepdb.plan_cache.misses == misses + 1
        deepdb.delete("customer", row)
        deepdb.plan(_JOIN_SQL)
        assert deepdb.plan_cache.invalidations == invalidations + 2
        assert deepdb.plan_cache.misses == misses + 2

    def test_plan_cache_can_be_disabled(self, adaptive_db, adaptive_deepdb):
        cached = adaptive_deepdb
        uncached = DeepDB(adaptive_db, cached.ensemble, plan_cache=False)
        assert uncached.plan_cache is None
        plan_one, cost_one, _ = uncached.plan(_JOIN_SQL)
        plan_two, cost_two, _ = uncached.plan(_JOIN_SQL)
        assert plan_one is not plan_two  # re-planned from scratch
        assert plan_one.describe() == plan_two.describe()
        assert cost_one == cost_two


class TestServingPlanCache:
    def test_snapshot_and_generation_invalidation(self, adaptive_db):
        deepdb = DeepDB.learn(adaptive_db)
        session = ModelSession("adaptive", deepdb, cache_size=16)
        request = Request("plan", _JOIN_SQL)
        session.run_one(request)
        snap = session.snapshot()
        assert "plan_cache" in snap
        assert snap["plan_cache"]["size"] == 1
        invalidations = deepdb.plan_cache.invalidations
        session.insert("customer", {"c_id": 999_991.0, "region": "ASIA",
                                    "age": 28.0})
        # The generation check that drops the result cache drops the
        # plan cache alongside it.
        session.run_one(request)
        assert deepdb.plan_cache.invalidations == invalidations + 1

    def test_explicit_invalidate_reaches_the_plan_cache(self, adaptive_db):
        deepdb = DeepDB.learn(adaptive_db)
        session = ModelSession("adaptive2", deepdb, cache_size=16)
        session.run_one(Request("plan", _JOIN_SQL))
        session.invalidate()
        assert deepdb.plan_cache.invalidations == 1
        assert len(deepdb.plan_cache) == 0


# ----------------------------------------------------------------------
# Mid-execution re-optimization
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chain_db():
    return _chain_db()


class TestMidExecutionReplan:
    def test_static_plan_follows_the_misestimate(self, chain_db):
        estimator = _PlantedEstimator(chain_db, _CHAIN_PLANTS)
        outcome = optimize_and_execute(
            _CHAIN_QUERY, chain_db, estimator, replan_threshold=math.inf
        )
        assert outcome.replans == 0
        # The poisoned estimates steer the DP through the 10,000-row
        # spine: ab + abc + abcd materialised.
        assert outcome.execution.total_intermediate_rows == 20_200.0

    def test_planted_misestimate_triggers_exactly_one_replan(self, chain_db):
        estimator = _PlantedEstimator(chain_db, _CHAIN_PLANTS)
        outcome = optimize_and_execute(
            _CHAIN_QUERY, chain_db, estimator, replan_threshold=16.0
        )
        assert outcome.replans == 1
        # ab (already materialised when the blow-up was caught) + cd +
        # abcd: the re-optimised remainder avoids the second 10,000-row
        # intermediate entirely.
        assert outcome.execution.total_intermediate_rows == 10_400.0
        assert outcome.execution.result_rows == 200

    def test_adaptive_beats_static_on_realized_cout(self, chain_db):
        static = optimize_and_execute(
            _CHAIN_QUERY, chain_db,
            _PlantedEstimator(chain_db, _CHAIN_PLANTS),
            replan_threshold=math.inf,
        )
        adaptive = optimize_and_execute(
            _CHAIN_QUERY, chain_db,
            _PlantedEstimator(chain_db, _CHAIN_PLANTS),
            replan_threshold=16.0,
        )
        assert (adaptive.execution.total_intermediate_rows
                < static.execution.total_intermediate_rows)
        assert (adaptive.execution.result_rows
                == static.execution.result_rows)

    def test_replan_patches_the_oracle_with_realized_truth(self, chain_db):
        estimator = _PlantedEstimator(chain_db, _CHAIN_PLANTS)
        outcome = optimize_and_execute(
            _CHAIN_QUERY, chain_db, estimator, replan_threshold=16.0
        )
        oracle = outcome.oracle
        assert oracle(frozenset(("a", "b"))) == 10_000.0
        # The observed 100x error propagated to the planted superset.
        assert oracle(frozenset(("a", "b", "c"))) == 10_000.0

    def test_join_gaps_record_raw_estimates(self, chain_db):
        estimator = _PlantedEstimator(chain_db, _CHAIN_PLANTS)
        outcome = optimize_and_execute(
            _CHAIN_QUERY, chain_db, estimator, replan_threshold=16.0
        )
        by_tables = {tuple(g["tables"]): g for g in outcome.join_gaps}
        blown = by_tables[("a", "b")]
        assert blown["estimate"] == 100.0  # the plant, not the patch
        assert blown["realized"] == 10_000.0
        assert blown["gap"] == 100.0

    def test_join_gaps_report_a_zero_estimate_as_zero(self, chain_db):
        # The optimizer clamps a hard-zero estimate to 1.0 internally;
        # join_gaps report what the estimator actually said.
        planted = _PlantedEstimator(chain_db, {("a", "b"): 0.0})
        outcome = optimize_and_execute(
            count_query(["a", "b"]), chain_db, planted,
            replan_threshold=math.inf,
        )
        assert outcome.execution.result_rows == 10_000
        (gap,) = outcome.join_gaps
        assert gap["estimate"] == 0.0
        assert gap["realized"] == 10_000.0
        assert gap["gap"] == 10_000.0

    def test_accurate_estimates_never_replan(self, chain_db):
        estimator = _PlantedEstimator(chain_db)  # exact truth
        outcome = optimize_and_execute(
            _CHAIN_QUERY, chain_db, estimator, replan_threshold=16.0
        )
        assert outcome.replans == 0
        assert all(g["gap"] == 1.0 for g in outcome.join_gaps)

    @pytest.mark.parametrize("threshold", [math.inf, None])
    def test_disabled_threshold_is_bit_identical_to_static(
        self, chain_db, threshold
    ):
        estimator = _PlantedEstimator(chain_db, _CHAIN_PLANTS)
        outcome = optimize_and_execute(
            _CHAIN_QUERY, chain_db, estimator, replan_threshold=threshold
        )
        oracle = SubqueryCardinalities(
            _PlantedEstimator(chain_db, _CHAIN_PLANTS), _CHAIN_QUERY
        )
        plan, cost = optimal_plan(_CHAIN_QUERY, chain_db.schema, oracle)
        static = execute_plan(plan, chain_db, _CHAIN_QUERY)
        assert outcome.replans == 0
        assert outcome.plan == plan
        assert outcome.estimated_cost == cost
        assert outcome.execution.intermediates == static.intermediates
        assert outcome.execution.result_rows == static.result_rows

    def test_replan_refreshes_the_plan_cache(self, chain_db):
        estimator = _PlantedEstimator(chain_db, _CHAIN_PLANTS)
        cache = PlanCache()
        first = optimize_and_execute(
            _CHAIN_QUERY, chain_db, estimator, replan_threshold=16.0,
            plan_cache=cache,
        )
        assert first.replans == 1
        # The cached entry was recomputed over the patched oracle, so
        # the repeated shape starts from the corrected plan: a cache
        # hit, no replan, and a far cheaper execution.
        second = optimize_and_execute(
            _CHAIN_QUERY, chain_db, estimator, replan_threshold=16.0,
            plan_cache=cache,
        )
        assert cache.hits == 1
        assert second.replans == 0
        assert (second.execution.total_intermediate_rows
                < first.execution.total_intermediate_rows)
