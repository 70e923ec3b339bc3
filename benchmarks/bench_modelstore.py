"""Model-store cold start (BENCH_modelstore.json).

Cold start is measured as **load -> first answer**: the time from a
persisted model file on disk to a served cardinality, which is what a
restarting (or newly scheduled) server pays.  The store mmaps
the file and imports flat-array evaluation twins whose leaf histograms
are views into the mapping, so it pays O(metadata) plus one compiled
sweep.  Every run asserts bit-identity (``==``) against the live
in-memory model.
"""

from __future__ import annotations

import os
import time

from repro.core.modelstore import read_catalog
from repro.deepdb import DeepDB

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

