"""Model-store cold start and LRU paging (BENCH_modelstore.json).

Cold start is measured as **load -> first answer**: the time from a
persisted model file on disk to a served cardinality, which is what a
restarting (or newly scheduled) tenant server pays.  The store mmaps
the file and imports flat-array evaluation twins whose leaf histograms
are views into the mapping, so it pays O(metadata) plus one compiled
sweep.  Every run asserts bit-identity (``==``) against the live
in-memory model.

The pager leg registers the same store under three tenant names with a
memory budget of 1.5x one model (smaller than the 3-model total), runs
a round-robin query stream, and records page-in latency distribution
plus the eviction/page-in/resident-bytes counters.
"""

from __future__ import annotations

import gc
import os
import time

from repro.core import modelstore
from repro.core.modelstore import read_catalog, write_store
from repro.deepdb import DeepDB
from repro.serving import ModelRegistry, Request

FIRST_ANSWER_SQL = (
    "SELECT COUNT(*) FROM flights WHERE flights.distance > 1000"
)
EXTRA_SQLS = [
    "SELECT COUNT(*) FROM flights WHERE flights.origin = 'ATL'",
    "SELECT COUNT(*) FROM flights WHERE flights.dep_delay > 30",
    "SELECT COUNT(*) FROM flights "
    "WHERE flights.distance BETWEEN 200 AND 800",
]
REPEATS = 5


def _cold_start_seconds(path, database, sql):
    """One full cold start: open the file, load, answer one query."""
    start = time.perf_counter()
    deepdb = DeepDB.load(path, database)
    answer = deepdb.cardinality(sql)
    seconds = time.perf_counter() - start
    deepdb.close()
    return seconds, answer


def test_cold_start_store(flights_serving_env, tmp_path,
                          record_modelstore_timing):
    env = flights_serving_env
    live = DeepDB(env.database, env.ensemble)
    expected = float(live.cardinality(FIRST_ANSWER_SQL))
    expected_extra = [float(v) for v in live.cardinality_batch(EXTRA_SQLS)]

    store_path = tmp_path / "flights.rspn"
    live.save(store_path)
    store_file_bytes = os.path.getsize(store_path)
    blob_bytes = read_catalog(store_path)["blob_bytes"]

    store_runs = []
    for _ in range(REPEATS):
        seconds, answer = _cold_start_seconds(
            store_path, env.database, FIRST_ANSWER_SQL
        )
        assert float(answer) == expected  # bit-identity, every run
        store_runs.append(seconds)

    # Full-batch bit-identity on top of the timed first answer.
    loaded = DeepDB.load(store_path, env.database)
    try:
        assert [
            float(v) for v in loaded.cardinality_batch(EXTRA_SQLS)
        ] == expected_extra
    finally:
        loaded.close()

    store_best = min(store_runs)
    print(f"\ncold start (load -> first answer), best of {REPEATS}: "
          f"{store_best * 1e3:.2f} ms ({store_file_bytes:,} bytes, "
          f"{blob_bytes:,} blob)")
    record_modelstore_timing(
        "cold_start_store", store_best,
        runs_s=store_runs, file_bytes=store_file_bytes,
        blob_bytes=blob_bytes, bit_identical=True,
    )


def test_pager_under_memory_pressure(flights_serving_env, tmp_path,
                                     record_modelstore_timing):
    """Three tenants, a budget that holds one model and a half: the
    round-robin stream forces an eviction + re-page-in per switch, and
    every answer stays bit-identical to the live model."""
    env = flights_serving_env
    live = DeepDB(env.database, env.ensemble)
    expected = float(live.cardinality(FIRST_ANSWER_SQL))

    names = ("tenant-a", "tenant-b", "tenant-c")
    paths = {}
    for name in names:
        paths[name] = tmp_path / f"{name}.rspn"
        write_store(env.ensemble, paths[name], name=name)
    blob_bytes = read_catalog(paths[names[0]])["blob_bytes"]
    budget = int(blob_bytes * 1.5)
    total = blob_bytes * len(names)
    assert budget < total  # the pager must actually be exercised

    registry = ModelRegistry(memory_budget_bytes=budget)
    for name in names:
        registry.register_store(name, paths[name], env.database)

    page_in_seconds = []
    rounds = 4
    try:
        for _ in range(rounds):
            for name in names:
                start = time.perf_counter()
                session = registry.session(name)
                page_in_seconds.append(time.perf_counter() - start)
                answer = session.run_one(
                    Request("cardinality", FIRST_ANSWER_SQL)
                )
                assert float(answer) == expected
                assert registry.stats()["resident_bytes"] <= budget
        stats = registry.stats()
    finally:
        registry.close()
        gc.collect()
        modelstore.sweep_pending()

    assert stats["page_ins"] >= len(names) + 1  # re-page-ins happened
    assert stats["evictions"] >= stats["page_ins"] - len(names)
    page_in_seconds.sort()
    n = len(page_in_seconds)
    distribution = {
        "min_s": page_in_seconds[0],
        "p50_s": page_in_seconds[n // 2],
        "p90_s": page_in_seconds[int(n * 0.9)],
        "max_s": page_in_seconds[-1],
    }
    print(f"\npager: {stats['page_ins']} page-ins, "
          f"{stats['evictions']} evictions over {rounds} round-robin "
          f"rounds of {len(names)} tenants "
          f"(budget {budget:,} of {total:,} total bytes)")
    print(f"  session acquisition p50 {distribution['p50_s'] * 1e3:.2f} ms, "
          f"max {distribution['max_s'] * 1e3:.2f} ms "
          f"(cold-start mean {stats['cold_start_ns_mean'] / 1e6:.2f} ms)")
    record_modelstore_timing(
        "pager_round_robin", sum(page_in_seconds),
        memory_budget_bytes=budget, total_blob_bytes=total,
        page_ins=stats["page_ins"], evictions=stats["evictions"],
        dirty_pins=stats["dirty_pins"],
        resident_bytes_final=stats["resident_bytes"],
        cold_start_ns_mean=stats["cold_start_ns_mean"],
        page_in_distribution=distribution,
        bit_identical=True,
    )
