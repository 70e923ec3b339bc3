"""30-second inference + serving + optimizer + ML smoke check for CI.

Learns a small flights ensemble, answers a 40-query workload through the
scalar path and the batched compiled path, and verifies that

- the two paths agree to 1e-9,
- the batched path is not slower than the scalar loop,
- per-query latency stays in the milliseconds.

It checks that GROUP BY, compiled once per stage and bound per group,
answers ``==`` one full compilation per group (a two-column AVG and a
HAVING query), then smokes the consumer layers of the batched
estimator protocol:

- **serving**: 8 concurrent closed-loop clients through the in-process
  ``AsyncDeepDB`` facade must be coalesced into multi-request flushes
  whose answers match the scalar loop to 1e-9; then one batched
  ``/update`` over HTTP stages on the writer thread while readers keep
  querying: every read must be a serially reachable value and the end
  state ``==`` a serially-updated twin,
- **restart**: the ensemble saved to a model store file and cold-started
  in a **fresh process** (run with ``-W error::ResourceWarning``) must
  serve its first answer from the mmapped store within a second,
  bit-identical to the live model, and release the mapping
  deterministically on ``close()``,
- **ML heads**: ``RspnRegressor.predict`` / ``RspnClassifier.predict``
  on the flights ensemble must agree with the scalar ``predict_one``
  loop to 1e-9,
- **join ordering**: a 5-6-way IMDb join optimised with the batched
  prefetch must pick the same plan (and the same sub-query estimates)
  as the serial memoised oracle, from exactly one ``cardinality_batch``
  call,
- **adaptive planning**: the same SQL planned twice must hit the plan
  cache, an ingest between plans must invalidate it (the replan-under-
  drift path), and a chain join with its spine estimate planted 128x
  low must trigger exactly one mid-execution replan whose realised
  C_out beats the static plan -- with the refreshed cache entry serving
  the repeat without replanning,
- **streaming ingest**: a writer thread applies hundreds of updates in
  64-op batches to a served copy of the model while a concurrent
  reader queries it; every reader answer must equal a whole-batch
  snapshot state of a serially-updated twin (``==``), and the end
  state must be bit-identical to the twin's.

This is deliberately tiny (it must finish well inside CI's 30-second
budget); the full comparisons with throughput assertions live in
``bench_single_table_selectivity.py``, ``bench_table1_job_light.py``,
``bench_join_ordering.py``, ``bench_figure13_ml.py`` and
``bench_serving.py``.

Run with ``PYTHONPATH=src python benchmarks/smoke_inference.py``.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.core.rspn import RspnConfig
from repro.datasets import flights
from repro.engine.query import Aggregate, Having, Predicate, Query, count_query

_NUMERIC = ("distance", "dep_delay", "taxi_out", "air_time", "arr_delay")


def _workload(database, n_queries, seed):
    rng = np.random.default_rng(seed)
    table = database.table("flights")
    queries = []
    while len(queries) < n_queries:
        columns = rng.choice(_NUMERIC, size=rng.integers(1, 4), replace=False)
        predicates = []
        for column in columns:
            values = table.columns[column]
            finite = values[~np.isnan(values)]
            span = finite.max() - finite.min()
            width = span * rng.uniform(0.05, 0.3)
            low = rng.uniform(finite.min(), finite.max() - width)
            predicates.append(Predicate("flights", column, ">=", float(low)))
            predicates.append(Predicate("flights", column, "<=", float(low + width)))
        queries.append(count_query(["flights"], predicates=predicates))
    return queries


def main():
    start = time.perf_counter()
    database = flights.generate(scale=0.05, seed=0)
    ensemble = learn_ensemble(
        database,
        EnsembleConfig(sample_size=10_000, rspn=RspnConfig(min_instances_fraction=0.01)),
    )
    compiler = ProbabilisticQueryCompiler(ensemble)
    queries = _workload(database, 40, seed=7)
    print(f"setup: {time.perf_counter() - start:.1f}s")

    scalar_start = time.perf_counter()
    scalar = [compiler.cardinality(q) for q in queries]
    scalar_seconds = time.perf_counter() - scalar_start
    batch_start = time.perf_counter()
    batched = compiler.cardinality_batch(queries)
    batch_seconds = time.perf_counter() - batch_start

    print(f"scalar : {scalar_seconds * 1e3:7.1f} ms "
          f"({scalar_seconds / len(queries) * 1e3:.2f} ms/query)")
    print(f"batched: {batch_seconds * 1e3:7.1f} ms "
          f"({batch_seconds / len(queries) * 1e3:.2f} ms/query)")

    if not np.allclose(batched, scalar, rtol=1e-9, atol=1e-9):
        print("FAIL: batched and scalar estimates disagree beyond 1e-9")
        return 1
    if batch_seconds > scalar_seconds:
        print("FAIL: batched path slower than the scalar loop")
        return 1
    if scalar_seconds / len(queries) > 0.1:
        print("FAIL: scalar latency above 100 ms/query")
        return 1
    print(f"OK: batched speedup {scalar_seconds / batch_seconds:.1f}x, "
          "estimates agree to 1e-9")

    if _smoke_kernels(database, ensemble, queries, compiler, batched):
        return 1
    if _smoke_group_by(compiler):
        return 1
    if _smoke_serving(database, ensemble):
        return 1
    if _smoke_restart(database, ensemble):
        return 1
    if _smoke_ml_heads(database, ensemble):
        return 1
    if _smoke_join_ordering():
        return 1
    if _smoke_adaptive(database, ensemble):
        return 1
    if _smoke_ingest(database, ensemble):
        return 1
    return 0


def _smoke_kernels(database, ensemble, queries, compiler, reference):
    """Kernel smoke: the fused sweep ``==`` its reference oracle.

    Replays the 40-query workload under the test suite's reference
    sweep (``tests/reference_sweep.py``) and requires the answers to be
    **bit-identical** (``==``) to the fused batch, not merely close.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.reference_sweep import reference_sweep

    start = time.perf_counter()
    with reference_sweep():
        answers = compiler.cardinality_batch(queries)
    if answers != reference:
        print("FAIL: reference answers are not bit-identical to the fused "
              "sweep")
        return 1
    print(f"OK: fused sweep bit-identical to the reference oracle on "
          f"{len(queries)} queries ({time.perf_counter() - start:.1f}s)")
    return 0


def _per_group_answer(compiler, query):
    """A GROUP BY answer from one full compilation per group and stage."""
    scalar = query.without_group_by()
    answer = {}
    for combo in itertools.product(*compiler._group_domains(query)):
        grouped = scalar.with_extra_predicates(tuple(
            Predicate(table, column, "=", value)
            for (table, column), value in zip(query.group_by, combo)
        ))

        def value(aggregate):
            estimate = compiler._estimate(grouped.with_aggregate(aggregate))
            compiler.evaluate_estimates([estimate])
            return estimate.value

        if value(Aggregate.count()) < compiler.min_group_count:
            continue
        if all(clause.accepts(value(clause.aggregate)) for clause in query.having):
            answer[combo] = value(query.aggregate)
    return answer


def _smoke_group_by(compiler):
    """GROUP BY smoke: the compiled-once template, bound per group,
    answers ``==`` the per-group compilation it replaces."""
    start = time.perf_counter()
    f = "flights"
    queries = [
        Query((f,), aggregate=Aggregate.avg(f, "arr_delay"),
              predicates=(Predicate(f, "distance", ">=", 800.0),),
              group_by=((f, "origin"), (f, "day_of_week"))),
        Query((f,), aggregate=Aggregate.sum(f, "dep_delay"),
              predicates=(Predicate(f, "unique_carrier", "=", "CARRIER_00"),),
              group_by=((f, "dest"),),
              having=(Having(Aggregate.count(), ">", 95.0),
                      Having(Aggregate.sum(f, "arr_delay"), "<", 1750.0))),
    ]
    groups = 0
    for query in queries:
        answer = compiler.answer(query)
        if not answer or answer != _per_group_answer(compiler, query):
            print(f"FAIL: GROUP BY answer differs from per-group "
                  f"compilation: {query}")
            return 1
        groups += len(answer)
    print(f"OK: {groups} groups of {len(queries)} GROUP BY queries "
          f"(two-column AVG, HAVING) equal per-group compilation "
          f"({time.perf_counter() - start:.1f}s)")
    return 0


def _smoke_serving(database, ensemble, n_clients=8, rounds=3):
    """Serving smoke: concurrent clients must coalesce and agree.

    Spins up the in-process async facade over the already-learned
    flights ensemble, drives ``n_clients`` closed-loop clients through
    it, and checks that the coalescer actually formed batches and that
    every coalesced answer matches the scalar loop to 1e-9.
    """
    import asyncio

    from repro.deepdb import DeepDB
    from repro.serving import AsyncDeepDB

    start = time.perf_counter()
    deepdb = DeepDB(database, ensemble)
    rng = np.random.default_rng(29)
    distances = database.table("flights").columns["distance"]
    finite = distances[~np.isnan(distances)]
    sqls = [
        "SELECT COUNT(*) FROM flights WHERE flights.distance >= "
        f"{low:.6f} AND flights.distance <= {low + width:.6f}"
        for low, width in zip(
            rng.uniform(finite.min(), finite.mean(), n_clients * rounds),
            rng.uniform(50, 800, n_clients * rounds),
        )
    ]
    scalar = [deepdb.cardinality(sql) for sql in sqls]

    async_db = AsyncDeepDB(
        deepdb, max_batch_size=n_clients, max_wait_ms=2.0, cache_size=0
    )
    answers = [None] * len(sqls)

    async def client(c):
        for r in range(rounds):
            index = c * rounds + r
            answers[index] = await async_db.cardinality(sqls[index])

    async def closed_loop():
        await asyncio.gather(*(client(c) for c in range(n_clients)))

    asyncio.run(closed_loop())

    if not np.allclose(answers, scalar, rtol=1e-9, atol=1e-9):
        print("FAIL: coalesced serving answers disagree with the scalar loop")
        return 1
    stats = async_db.stats()["coalescers"]["default"]
    if stats["max_occupancy"] < 2:
        print(f"FAIL: no coalescing occurred ({n_clients} concurrent "
              f"clients, max occupancy {stats['max_occupancy']})")
        return 1
    print(f"OK: {n_clients} concurrent clients coalesced into "
          f"{stats['flushes']} flushes (mean occupancy "
          f"{stats['mean_occupancy']:.1f}, max {stats['max_occupancy']}), "
          f"answers match the scalar loop "
          f"({time.perf_counter() - start:.1f}s)")
    return _smoke_update_beside_reads(database, ensemble)


def _smoke_update_beside_reads(database, ensemble, n_ops=256, n_readers=2):
    """One batched ``/update`` stages on the server's writer thread while
    ``n_readers`` HTTP clients keep querying.  The batch commits at
    once, so every read must be the before or the after value, and the
    end state must be ``==`` a twin fed the same ops one tuple at a time
    through the serial reference of Algorithm 1.  The commit patches the fused leaf tables
    built before the batch staged, so the final read after it builds
    none (``/stats`` ``scope_table_builds``).  It reads ``month``, which
    the batch updates only through NULLs: the inserted distances lie
    outside the learned domain, so the ``distance`` table is dropped
    and rebuilt by the first read after the commit, by design."""
    import copy
    import json
    import threading
    import urllib.request

    from repro.deepdb import DeepDB
    from repro.serving import ModelRegistry, start_server

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.update_reference import model_state, serial_apply, states_equal

    start = time.perf_counter()
    deepdb = DeepDB(*copy.deepcopy((database, ensemble)))
    twin = DeepDB(*copy.deepcopy((database, ensemble)))
    probe = "SELECT COUNT(*) FROM flights WHERE flights.distance > 20000"
    patched_probe = "SELECT COUNT(*) FROM flights WHERE flights.month = 7"
    rng = np.random.default_rng(37)
    ops = [
        {"op": "insert", "table": "flights",
         "row": {"distance": float(rng.integers(21_000, 25_000))}}
        for _ in range(n_ops)
    ]
    allowed = {float(twin.cardinality(probe))}
    serial_apply(twin, [(op["op"], op["table"], op["row"]) for op in ops])
    final = float(twin.cardinality(probe))
    allowed.add(final)

    def post(url, path, body):
        request = urllib.request.Request(
            url + path, data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=20) as response:
            return json.loads(response.read().decode("utf-8"))

    def table_builds(url):
        with urllib.request.urlopen(url + "/stats", timeout=20) as response:
            stats = json.loads(response.read().decode("utf-8"))
        return stats["serving"]["models"]["flights"]["kernel"][
            "scope_table_builds"
        ]

    registry = ModelRegistry()
    registry.register("flights", deepdb, cache_size=0)
    observed, updated = [], threading.Event()
    with start_server(registry) as server:
        # Built before the batch stages, so the staged patch covers it.
        post(server.url, "/query", {"sql": patched_probe})

        def reader():
            while not updated.is_set():
                observed.append(
                    post(server.url, "/query", {"sql": probe})["value"]
                )

        readers = [threading.Thread(target=reader) for _ in range(n_readers)]
        for thread in readers:
            thread.start()
        try:
            payload = post(server.url, "/update", {"ops": ops})
        finally:
            updated.set()
            for thread in readers:
                thread.join(20)
        observed.append(post(server.url, "/query", {"sql": probe})["value"])
        builds = table_builds(server.url)
        patched = post(server.url, "/query", {"sql": patched_probe})["value"]
        rebuilt = table_builds(server.url) - builds
        flushes = server.stats()["serving"]["update_coalescers"]["flights"]

    if payload.get("applied") != n_ops or flushes["flushes"] != 1:
        print(f"FAIL: batched /update applied {payload.get('applied')} of "
              f"{n_ops} ops in {flushes['flushes']} flushes (want 1)")
        return 1
    torn = [value for value in observed if value not in allowed]
    if torn:
        print(f"FAIL: {len(torn)} reads beside the /update are not "
              f"serially reachable (first: {torn[0]!r})")
        return 1
    if observed[-1] != final or not states_equal(
        model_state(deepdb), model_state(twin)
    ):
        print(f"FAIL: end state ({observed[-1]!r}) != serial twin "
              f"({final!r})")
        return 1
    if rebuilt or patched != float(twin.cardinality(patched_probe)):
        print(f"FAIL: the final read after the /update commit built "
              f"{rebuilt} fused leaf tables (the commit patches them) "
              f"or answered {patched!r}, not the serial twin's")
        return 1
    print(f"OK: one {n_ops}-op /update staged on the writer thread beside "
          f"{len(observed) - 1} concurrent HTTP reads, all serially "
          f"reachable, end state == the serial twin, no table rebuilt "
          f"({time.perf_counter() - start:.1f}s)")
    return 0


_RESTART_CHILD = """
import json, sys, time
from repro.datasets import flights
from repro.deepdb import DeepDB

store_path, sqls = sys.argv[1], json.loads(sys.argv[2])
database = flights.generate(scale=0.05, seed=0)
start = time.perf_counter_ns()
deepdb = DeepDB.load(store_path, database)
first = float(deepdb.cardinality(sqls[0]))
cold_ns = time.perf_counter_ns() - start
rest = [float(v) for v in deepdb.cardinality_batch(sqls[1:])]
store = deepdb.store
deepdb.close()
assert store.closed, "store not unmapped by DeepDB.close()"
print(json.dumps({
    "cold_ns": cold_ns,
    "answers": [v.hex() for v in [first] + rest],
}))
"""


def _smoke_restart(database, ensemble):
    """Restart smoke: cold-start the saved store in a fresh process.

    Saves the live ensemble as a model store file and serves from it in
    a subprocess (the real restart path: nothing warm but the OS page
    cache), run under ``-W error::ResourceWarning`` so an unclosed
    handle fails the build.  The child's first answer must arrive
    within a second of ``DeepDB.load`` being called, every answer must
    be **bit-identical** (``float.hex``) to the live in-memory model,
    and ``DeepDB.close()`` must leave the store unmapped.
    """
    import json
    import os
    import shutil
    import subprocess
    import tempfile

    import repro
    from repro.deepdb import DeepDB

    start = time.perf_counter()
    sqls = [
        "SELECT COUNT(*) FROM flights WHERE flights.distance > 1000",
        "SELECT COUNT(*) FROM flights WHERE flights.dep_delay > 30",
        "SELECT COUNT(*) FROM flights "
        "WHERE flights.distance BETWEEN 200 AND 800",
    ]
    live = DeepDB(database, ensemble)
    expected = [float(live.cardinality(sqls[0]))]
    expected += [float(v) for v in live.cardinality_batch(sqls[1:])]

    tmpdir = tempfile.mkdtemp(prefix="repro-restart-")
    try:
        store_path = os.path.join(tmpdir, "flights.rspn")
        live.save(store_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c",
             _RESTART_CHILD, store_path, json.dumps(sqls)],
            capture_output=True, text=True, env=env, timeout=120,
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if proc.returncode != 0:
        print(f"FAIL: restarted process exited {proc.returncode}\n"
              f"{proc.stderr.strip()}")
        return 1
    if "ResourceWarning" in proc.stderr:
        print(f"FAIL: restarted process leaked a resource\n"
              f"{proc.stderr.strip()}")
        return 1
    payload = json.loads(proc.stdout)
    if payload["answers"] != [v.hex() for v in expected]:
        print("FAIL: restarted answers are not bit-identical to the "
              f"live model ({payload['answers']} vs "
              f"{[v.hex() for v in expected]})")
        return 1
    if payload["cold_ns"] >= 1_000_000_000:
        print(f"FAIL: cold start took {payload['cold_ns'] / 1e6:.0f} ms "
              "(budget: 1000 ms)")
        return 1
    print(f"OK: fresh-process cold start served the first answer in "
          f"{payload['cold_ns'] / 1e6:.1f} ms from the mmapped store, "
          f"{len(sqls)} answers bit-identical, mapping released on close "
          f"({time.perf_counter() - start:.1f}s)")
    return 0


def _smoke_ml_heads(database, ensemble, n_rows=12):
    """Batched ML prediction smoke: ``predict`` == scalar loop to 1e-9."""
    from repro.core.ml import RspnClassifier, RspnRegressor
    from repro.datasets.flights import feature_matrix

    start = time.perf_counter()
    rspn = max(ensemble.rspns, key=lambda r: len(r.column_names))
    rows, _targets, names = feature_matrix(
        database, "arr_delay", n_rows=n_rows, seed=3
    )
    regressor = RspnRegressor(rspn, "flights.arr_delay", names)
    batched = regressor.predict(rows)
    scalar = [regressor.predict_one(row) for row in rows]
    if not np.allclose(batched, scalar, rtol=1e-9, atol=1e-9):
        print("FAIL: batched regressor disagrees with predict_one")
        return 1
    classifier = RspnClassifier(
        rspn, "flights.day_of_week",
        [n for n in names if n != "flights.day_of_week"],
    )
    if classifier.predict(rows) != [classifier.predict_one(r) for r in rows]:
        print("FAIL: batched classifier disagrees with predict_one")
        return 1
    print(f"OK: batched ML heads match the scalar loop on {len(rows)} rows "
          f"({time.perf_counter() - start:.1f}s)")
    return 0


def _smoke_join_ordering():
    """Batched join-ordering smoke: the prefetched oracle must pick the
    serial oracle's plan from exactly one ``cardinality_batch`` call."""
    from repro.core.ensemble import EnsembleConfig, learn_ensemble
    from repro.datasets import imdb, workloads
    from repro.optimizer import SubqueryCardinalities, optimal_plan

    start = time.perf_counter()
    database = imdb.generate(scale=0.01, seed=0)
    ensemble = learn_ensemble(
        database,
        EnsembleConfig(sample_size=4_000, max_join_tables=2,
                       rspn=RspnConfig(min_instances_fraction=0.02)),
    )
    compiler = ProbabilisticQueryCompiler(ensemble)
    named = workloads.imdb_workload(
        database, 2, table_range=(5, 6), predicate_range=(1, 3), seed=13
    )
    for entry in named:
        batched_oracle = SubqueryCardinalities(compiler, entry.query)
        batched_plan, _ = optimal_plan(
            entry.query, database.schema, batched_oracle
        )
        serial_oracle = SubqueryCardinalities(compiler, entry.query, batch=False)
        serial_plan, _ = optimal_plan(entry.query, database.schema, serial_oracle)
        if batched_oracle.batch_calls != 1:
            print(f"FAIL: expected 1 batched estimator call, "
                  f"saw {batched_oracle.batch_calls}")
            return 1
        if batched_plan.describe() != serial_plan.describe():
            print("FAIL: batched prefetch picked a different plan than the "
                  "serial oracle")
            return 1
        estimates = batched_oracle.estimates
        reference = serial_oracle.estimates
        if estimates.keys() != reference.keys() or not all(
            np.isclose(estimates[k], reference[k], rtol=1e-9, atol=1e-9)
            for k in reference
        ):
            print("FAIL: batched sub-query estimates disagree with serial")
            return 1
    tables = max(len(entry.query.tables) for entry in named)
    print(f"OK: batched join ordering matches the serial oracle on "
          f"{len(named)} queries (up to {tables}-way, one batch call each, "
          f"{time.perf_counter() - start:.1f}s)")
    return 0


def _smoke_adaptive(database, ensemble):
    """Adaptive planning smoke: cache hits, invalidation under ingest,
    and one forced mid-execution replan.

    Runs last: the ingest leg moves the shared ensemble's generation,
    which must not perturb the bit-identity checks of earlier legs.
    Three checks: (1) planning the same SQL twice hits the plan cache
    and returns the identical cached artefacts; (2) an insert between
    plans (the replan-under-drift path: ingest mid-workload) moves the
    generation, so the next plan invalidates and re-plans; (3) on a
    deterministic chain database whose spine estimate is planted 128x
    low, execution triggers exactly one mid-execution replan whose
    realised C_out beats the static plan, and the cache entry refreshed
    from the patched oracle serves the repeated shape with no replan at
    a strictly lower realised C_out.
    """
    from repro.deepdb import DeepDB
    from repro.engine.executor import Executor
    from repro.engine.table import Database, Table
    from repro.estimator import CardinalityEstimator
    from repro.optimizer import PlanCache, optimize_and_execute
    from repro.schema.schema import Attribute, SchemaGraph, TableSchema

    start = time.perf_counter()
    deepdb = DeepDB(database, ensemble)
    sql = ("SELECT COUNT(*) FROM flights WHERE flights.distance >= 400 "
           "AND flights.distance <= 900")
    cold = deepdb.plan(sql)
    warm = deepdb.plan(sql)
    cache = deepdb.plan_cache
    if cache.hits < 1 or warm[0] is not cold[0] or warm[1] != cold[1]:
        print(f"FAIL: repeated plan did not hit the plan cache "
              f"({cache.snapshot()})")
        return 1

    # Ingest mid-workload: the generation bump must drop every cached
    # plan before the next one is served.
    table = database.table("flights")
    row = {
        column: table.decode_value(
            column, None if np.isnan(code) else code
        )
        for column, code in table.row(0).items()
    }
    deepdb.insert("flights", row)
    invalidations = cache.invalidations
    deepdb.plan(sql)
    if cache.invalidations < invalidations + 1:
        print(f"FAIL: ingest did not invalidate the plan cache "
              f"({cache.snapshot()})")
        return 1

    # A chain a <- b <- c <- d with a wide spine (|ab| = |abc| = 2500)
    # and a thin tail (|cd| = 100); the spine estimates are planted
    # 128x low, so the static optimizer descends straight into it.
    schema = SchemaGraph()
    names = ("a", "b", "c", "d")
    for name, parent in zip(names, (None,) + names[:-1]):
        attributes = [Attribute(f"{name}_id", "key")]
        if parent is not None:
            attributes.append(Attribute(f"{parent}_id", "key"))
        schema.add_table(
            TableSchema(name, attributes, primary_key=f"{name}_id")
        )
    chain = Database(schema)
    chain.add_table(Table.from_columns(
        schema.table("a"), {"a_id": np.arange(50, dtype=float)},
    ))
    chain.add_table(Table.from_columns(
        schema.table("b"),
        {"b_id": np.arange(2_500, dtype=float),
         "a_id": np.repeat(np.arange(50, dtype=float), 50)},
    ))
    chain.add_table(Table.from_columns(
        schema.table("c"),
        {"c_id": np.arange(2_500, dtype=float),
         "b_id": np.arange(2_500, dtype=float)},
    ))
    chain.add_table(Table.from_columns(
        schema.table("d"),
        {"d_id": np.arange(100, dtype=float),
         "c_id": np.arange(100, dtype=float)},
    ))
    for parent, child in zip(names, names[1:]):
        schema.add_foreign_key(parent, child, f"{parent}_id")

    class _Planted(CardinalityEstimator):
        def __init__(self, truth, scaled, factor=128.0):
            self.truth = truth
            self.scaled = frozenset(scaled)
            self.factor = factor

        def cardinality(self, query):
            value = float(self.truth.cardinality(query))
            if frozenset(query.tables) in self.scaled:
                return value / self.factor
            return value

    truth = Executor(chain)
    scaled = {frozenset(("a", "b")), frozenset(("a", "b", "c"))}
    query = count_query(["a", "b", "c", "d"])
    import math

    static = optimize_and_execute(
        query, chain, _Planted(truth, scaled), replan_threshold=math.inf
    )
    plan_cache = PlanCache()
    first = optimize_and_execute(
        query, chain, _Planted(truth, scaled), replan_threshold=16.0,
        plan_cache=plan_cache,
    )
    second = optimize_and_execute(
        query, chain, _Planted(truth, scaled), replan_threshold=16.0,
        plan_cache=plan_cache,
    )
    static_cout = static.execution.total_intermediate_rows
    first_cout = first.execution.total_intermediate_rows
    second_cout = second.execution.total_intermediate_rows
    if first.replans != 1 or first_cout >= static_cout:
        print(f"FAIL: planted 128x spine misestimate did not replan into "
              f"a better plan (replans={first.replans}, adaptive "
              f"C_out={first_cout}, static C_out={static_cout})")
        return 1
    if (plan_cache.hits != 1 or second.replans != 0
            or second_cout >= first_cout):
        print(f"FAIL: refreshed cache entry did not serve the repeat "
              f"replan-free (hits={plan_cache.hits}, "
              f"replans={second.replans}, C_out={second_cout} vs "
              f"{first_cout})")
        return 1
    if not (second.execution.result_rows == first.execution.result_rows
            == static.execution.result_rows):
        print("FAIL: adaptive and static executions disagree on the "
              "query result")
        return 1
    print(f"OK: plan cache hit + ingest invalidation on flights, one "
          f"replan cut realised C_out {static_cout:.0f} -> "
          f"{first_cout:.0f} (repeat from refreshed cache: "
          f"{second_cout:.0f}, 0 replans) "
          f"({time.perf_counter() - start:.1f}s)")
    return 0


def _smoke_ingest(database, ensemble, n_ops=400, chunk=64):
    """Streaming-ingest smoke: untorn reads beside a writer thread.

    A writer thread applies ``n_ops`` inserts to a served *copy* of the
    flights model through ``ModelSession.apply_batch`` in ``chunk``-op
    batches while one reader thread hammers the same session.  Each
    reader answer must equal (``==``) the answer of a twin fed the same
    ops one tuple at a time through the serial reference of Algorithm 1
    after some whole number of batches -- never part of one -- and the
    end state must be bit-identical to the twin's.
    """
    import copy
    import threading

    from repro.deepdb import DeepDB
    from repro.serving.session import ModelSession, Request

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.update_reference import model_state, serial_apply, states_equal

    start = time.perf_counter()
    deepdb = DeepDB(*copy.deepcopy((database, ensemble)))
    twin = DeepDB(*copy.deepcopy((database, ensemble)))

    probe = "SELECT COUNT(*) FROM flights WHERE flights.distance > 20000"
    rng = np.random.default_rng(31)
    ops = [
        ("insert", "flights",
         {"distance": float(rng.integers(21_000, 25_000))})
        for _ in range(n_ops)
    ]
    batches = [ops[i:i + chunk] for i in range(0, n_ops, chunk)]
    allowed = {float(twin.cardinality_batch([probe])[0])}
    for batch in batches:
        serial_apply(twin, batch)
        allowed.add(float(twin.cardinality_batch([probe])[0]))
    final = float(twin.cardinality_batch([probe])[0])

    session = ModelSession("flights", deepdb, cache_size=0)
    observed, rejected = [], []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            result = session.run_batch([Request("cardinality", probe)])[0]
            observed.append(float(result))

    def writer():
        for batch in batches:
            results = session.apply_batch(batch)
            rejected.extend(r for r in results if isinstance(r, Exception))

    reading = threading.Thread(target=reader)
    reading.start()
    writing = threading.Thread(target=writer)
    writing.start()
    writing.join(30.0)
    stop.set()
    reading.join(30.0)

    if rejected:
        print(f"FAIL: {len(rejected)} of {n_ops} ops rejected "
              f"(first: {rejected[0]!r})")
        return 1
    torn = [value for value in observed if value not in allowed]
    if torn:
        print(f"FAIL: reader observed {len(torn)} torn snapshots "
              f"(first: {torn[0]!r})")
        return 1
    streamed = float(deepdb.cardinality_batch([probe])[0])
    if streamed != final or not states_equal(
        model_state(deepdb), model_state(twin)
    ):
        print(f"FAIL: streamed end state {streamed!r} != serial twin "
              f"{final!r}")
        return 1
    print(f"OK: {n_ops} updates in {len(batches)} {chunk}-op batches on a "
          f"writer thread, {len(observed)} concurrent reads all on "
          f"whole-batch snapshots, end state bit-identical to the serial "
          f"twin ({time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
