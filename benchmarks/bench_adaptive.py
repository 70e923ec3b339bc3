"""The adaptive planning loop under an adversarial JOB-light workload.

Three legs, all recorded into ``BENCH_optimizer.json``:

- **Plan cache**: cold planning (estimator prefetch + DP enumeration
  over a learned DeepDB ensemble) vs a cache hit.  The hit must be at
  least 10x faster -- the cache's whole point is that a serving
  workload repeating the same queries stops paying the compiled sweep
  per plan.
- **Adversarial replanning**: exact-truth estimates with one planted
  128x under-estimate per query (the largest true 2-table subset and
  its strict supersets), the classic correlated-join trap that steers a
  C_out optimizer into the worst join spine.  The adaptive executor
  must finish with total realised C_out no worse than the static
  pipeline, and must actually replan somewhere across the workload.
- **Drift-free**: the same workload planned under exact truth must
  never replan -- re-optimisation fires on real blow-ups only, not on
  well-estimated plans.
- **Chain replanning**: on the IMDb star every remainder join goes
  through the pinned blown unit (and the patch scales every superset
  charge by the same factor), so a replan can match but never beat the
  static continuation -- the star legs assert ``<=``.  A chain join
  graph is where re-optimisation pays: the remainder can join the far
  end of the chain among itself and *bypass* the blown intermediate,
  so this leg asserts a strict improvement.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datasets import workloads
from repro.engine.executor import Executor
from repro.engine.query import count_query
from repro.engine.table import Database, Table
from repro.schema.schema import Attribute, SchemaGraph, TableSchema
from repro.estimator import CardinalityEstimator
from repro.evaluation.report import Report
from repro.optimizer import (
    PlanCache,
    SubqueryCardinalities,
    cache_epoch,
    optimal_plan,
    optimize_and_execute,
)
from repro.optimizer.enumeration import connected_subsets


class _AdversarialEstimator(CardinalityEstimator):
    """Exact truth except for planted 128x under-estimates.

    ``scaled`` is the set of table subsets whose estimate is divided by
    ``factor`` -- per workload query, the largest true 2-table connected
    subset and every strict superset of it except the full set, so the
    optimizer is lured into joining the biggest pair first and the blown
    intermediate is always a *sub*-plan the adaptive loop can still fix.
    """

    def __init__(self, truth, scaled, factor=128.0):
        self.truth = truth
        self.scaled = frozenset(scaled)
        self.factor = float(factor)

    def cardinality(self, query):
        value = float(self.truth.cardinality(query))
        if frozenset(query.tables) in self.scaled:
            return value / self.factor
        return value


def _planted_subsets(query, schema, executor):
    """The subsets to under-estimate for ``query`` (see above)."""
    by_size = connected_subsets(schema, query.tables)
    pairs = by_size.get(2, [])
    if not pairs:
        return frozenset()
    truth = SubqueryCardinalities(executor, query, batch=False)
    target = max(pairs, key=lambda pair: truth(pair))
    full = frozenset(query.tables)
    scaled = {target}
    for size, subsets in by_size.items():
        if size <= 2:
            continue
        scaled.update(
            s for s in subsets if target < s and s != full
        )
    return frozenset(scaled)


def _adversarial_workload(database, executor, n_queries=6, seed=31):
    named = workloads.imdb_workload(
        database, n_queries, table_range=(3, 4), predicate_range=(2, 3),
        seed=seed,
    )
    return [
        (nq, _planted_subsets(nq.query, database.schema, executor))
        for nq in named
    ]


def test_adaptive_beats_static_under_planted_misestimates(
    imdb_env, record_optimizer_timing
):
    database = imdb_env.database
    workload = _adversarial_workload(database, imdb_env.executor)

    report = Report(
        "Adaptive vs static realised C_out (128x planted under-estimates)",
        ["query", "static C_out", "adaptive C_out", "replans"],
    )
    static_total = 0.0
    adaptive_total = 0.0
    total_replans = 0
    for named, scaled in workload:
        static = optimize_and_execute(
            named.query, database,
            _AdversarialEstimator(imdb_env.executor, scaled),
            replan_threshold=math.inf,
        )
        adaptive = optimize_and_execute(
            named.query, database,
            _AdversarialEstimator(imdb_env.executor, scaled),
            replan_threshold=16.0,
        )
        # Same query, same data: the answer cannot depend on the plan.
        assert adaptive.execution.result_rows == static.execution.result_rows
        static_total += static.execution.total_intermediate_rows
        adaptive_total += adaptive.execution.total_intermediate_rows
        total_replans += adaptive.replans
        report.add(
            named.name,
            static.execution.total_intermediate_rows,
            adaptive.execution.total_intermediate_rows,
            adaptive.replans,
        )
    report.add("TOTAL", static_total, adaptive_total, total_replans)
    report.print()

    # The adaptive loop must catch at least one planted blow-up and
    # must never end up worse than riding the bad plan to the end.
    assert total_replans >= 1
    assert adaptive_total <= static_total + 1e-9

    # Drift-free control: exact estimates never trigger a replan.
    drift_free_replans = 0
    for named, _scaled in workload:
        outcome = optimize_and_execute(
            named.query, database, imdb_env.executor, replan_threshold=16.0
        )
        drift_free_replans += outcome.replans
    assert drift_free_replans == 0

    record_optimizer_timing(
        "adaptive_replanning_cout", 0.0,
        static_cout=static_total,
        adaptive_cout=adaptive_total,
        replans=total_replans,
        drift_free_replans=drift_free_replans,
        queries=len(workload),
    )


def _chain_database(n_anchor=100, fan_out=100, n_tail=200):
    """a <- b <- c <- d: a wide spine (|ab| = |abc| = anchor x fan_out)
    with a thin tail (|cd| = n_tail) -- the shape where starting from
    the wrong end is ~50x more expensive realised."""
    schema = SchemaGraph()
    names = ("a", "b", "c", "d")
    for name, parent in zip(names, (None,) + names[:-1]):
        attributes = [Attribute(f"{name}_id", "key")]
        if parent is not None:
            attributes.append(Attribute(f"{parent}_id", "key"))
        schema.add_table(
            TableSchema(name, attributes, primary_key=f"{name}_id")
        )
    spine = n_anchor * fan_out
    database = Database(schema)
    database.add_table(Table.from_columns(
        schema.table("a"), {"a_id": np.arange(n_anchor, dtype=float)},
    ))
    database.add_table(Table.from_columns(
        schema.table("b"),
        {
            "b_id": np.arange(spine, dtype=float),
            "a_id": np.repeat(np.arange(n_anchor, dtype=float), fan_out),
        },
    ))
    database.add_table(Table.from_columns(
        schema.table("c"),
        {
            "c_id": np.arange(spine, dtype=float),
            "b_id": np.arange(spine, dtype=float),
        },
    ))
    database.add_table(Table.from_columns(
        schema.table("d"),
        {
            "d_id": np.arange(n_tail, dtype=float),
            "c_id": np.arange(n_tail, dtype=float),
        },
    ))
    for parent, child in zip(names, names[1:]):
        schema.add_foreign_key(parent, child, f"{parent}_id")
    return database


def test_chain_replanning_strictly_improves_realized_cout(
    record_optimizer_timing
):
    database = _chain_database()
    executor = Executor(database)
    query = count_query(["a", "b", "c", "d"])
    # The correlated spine looks 128x cheaper than it is: exactly the
    # trap that makes a C_out optimizer descend through ab.
    scaled = {frozenset(("a", "b")), frozenset(("a", "b", "c"))}

    static = optimize_and_execute(
        query, database, _AdversarialEstimator(executor, scaled),
        replan_threshold=math.inf,
    )
    adaptive = optimize_and_execute(
        query, database, _AdversarialEstimator(executor, scaled),
        replan_threshold=16.0,
    )

    report = Report(
        "Chain replanning: one blown spine join, remainder re-enumerated",
        ["path", "realised C_out", "replans"],
    )
    report.add("static", static.execution.total_intermediate_rows,
               static.replans)
    report.add("adaptive", adaptive.execution.total_intermediate_rows,
               adaptive.replans)
    report.print()

    assert adaptive.execution.result_rows == static.execution.result_rows
    assert adaptive.replans == 1
    assert (adaptive.execution.total_intermediate_rows
            < static.execution.total_intermediate_rows)
    record_optimizer_timing(
        "adaptive_replanning_chain_cout", 0.0,
        static_cout=static.execution.total_intermediate_rows,
        adaptive_cout=adaptive.execution.total_intermediate_rows,
        replans=adaptive.replans,
    )


def test_plan_cache_hit_is_10x_faster_than_cold_planning(
    imdb_env, best_of, record_optimizer_timing
):
    database = imdb_env.database
    compiler = imdb_env.compiler  # learned ensemble: the realistic cost
    query = workloads.imdb_workload(
        database, 1, table_range=(4, 5), predicate_range=(2, 3), seed=47
    )[0].query

    def cold():
        oracle = SubqueryCardinalities(compiler, query)
        return optimal_plan(query, database.schema, oracle)

    cache = PlanCache()
    epoch = cache_epoch(compiler)
    oracle = SubqueryCardinalities(compiler, query)
    plan, cost = optimal_plan(query, database.schema, oracle)
    cache.store(query, (plan, cost, oracle), epoch)

    def hit():
        assert cache.lookup(query, epoch) is not None

    cold_seconds = best_of(cold)
    hit_seconds = best_of(hit)
    speedup = cold_seconds / hit_seconds

    report = Report(
        "Plan cache: cold planning vs cache hit",
        ["path", "seconds", "speedup"],
    )
    report.add("cold (prefetch + DP)", cold_seconds, 1.0)
    report.add("cache hit", hit_seconds, speedup)
    report.print()

    assert speedup >= 10.0
    record_optimizer_timing(
        "plan_cache_cold_planning", cold_seconds, tables=len(query.tables)
    )
    record_optimizer_timing(
        "plan_cache_hit", hit_seconds, speedup=speedup,
        tables=len(query.tables),
    )
