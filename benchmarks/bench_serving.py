"""Serving front-end: closed-loop client throughput, coalesced vs serial.

The ISSUE-3 acceptance benchmark.  N closed-loop clients (each sends a
query, awaits the answer, sends the next) drive the in-process
:class:`~repro.serving.AsyncDeepDB` facade, whose micro-batching
coalescer folds the concurrent requests into single
``cardinality_batch`` calls.  The baseline executes the *same* request
stream one query at a time -- the per-request path a naive server would
run for every client.

Asserts, at 32 clients:

- coalesced closed-loop throughput >= **3x** the one-query-at-a-time
  baseline,
- every coalesced answer equals the serial answer to 1e-9 (the
  compiled kernels are batch-size invariant, so they are in fact
  bit-identical),
- real batch shape formed (mean occupancy well above 1).

Every request text is distinct, so the speedup measures pure
coalescing.  Results are recorded to ``benchmarks/BENCH_serving.json``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q``.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.deepdb import DeepDB
from repro.serving import AsyncDeepDB

N_CLIENTS = 32
ROUNDS = 8  # requests per client -> 256 total
_NUMERIC = ("distance", "dep_delay", "taxi_out", "air_time", "arr_delay")


def _workload(database, n_queries, seed):
    """Distinct range-predicate COUNT queries as SQL strings."""
    rng = np.random.default_rng(seed)
    table = database.table("flights")
    sqls = []
    while len(sqls) < n_queries:
        columns = rng.choice(_NUMERIC, size=rng.integers(1, 4), replace=False)
        predicates = []
        for column in columns:
            values = table.columns[column]
            finite = values[~np.isnan(values)]
            span = finite.max() - finite.min()
            width = span * rng.uniform(0.05, 0.3)
            low = rng.uniform(finite.min(), finite.max() - width)
            predicates.append(f"flights.{column} >= {low:.6f}")
            predicates.append(f"flights.{column} <= {low + width:.6f}")
        sqls.append(
            "SELECT COUNT(*) FROM flights WHERE " + " AND ".join(predicates)
        )
    return sqls


def test_closed_loop_throughput_coalesced_vs_serial(
    flights_env, record_serving_timing
):
    deepdb = DeepDB(flights_env.database, flights_env.ensemble)
    sqls = _workload(flights_env.database, N_CLIENTS * ROUNDS, seed=23)

    # Baseline: the same request stream, one query at a time (parse +
    # scalar estimate per request, exactly what each client would get
    # from a server without a coalescer).
    start = time.perf_counter()
    serial = [deepdb.cardinality(sql) for sql in sqls]
    serial_seconds = time.perf_counter() - start

    # Coalesced: 32 closed-loop clients over the async facade.
    async_db = AsyncDeepDB(deepdb, max_batch_size=N_CLIENTS, max_wait_ms=2.0)
    answers = [None] * len(sqls)

    async def client(c):
        for r in range(ROUNDS):
            index = c * ROUNDS + r
            answers[index] = await async_db.cardinality(sqls[index])

    async def closed_loop():
        await asyncio.gather(*(client(c) for c in range(N_CLIENTS)))

    start = time.perf_counter()
    asyncio.run(closed_loop())
    coalesced_seconds = time.perf_counter() - start

    assert np.allclose(answers, serial, rtol=1e-9, atol=1e-9)
    speedup = serial_seconds / coalesced_seconds
    occupancy = async_db.stats()["coalescers"]["default"]

    print(f"\n{N_CLIENTS} closed-loop clients x {ROUNDS} rounds "
          f"({len(sqls)} requests)")
    print(f"  serial    : {serial_seconds * 1e3:8.1f} ms "
          f"({len(sqls) / serial_seconds:7.0f} req/s)")
    print(f"  coalesced : {coalesced_seconds * 1e3:8.1f} ms "
          f"({len(sqls) / coalesced_seconds:7.0f} req/s)")
    print(f"  speedup   : {speedup:.1f}x; occupancy mean "
          f"{occupancy['mean_occupancy']:.1f} / max "
          f"{occupancy['max_occupancy']} over {occupancy['flushes']} flushes")

    record_serving_timing(
        "closed_loop_serial", serial_seconds,
        clients=N_CLIENTS, requests=len(sqls),
        requests_per_second=len(sqls) / serial_seconds,
    )
    record_serving_timing(
        "closed_loop_coalesced", coalesced_seconds,
        clients=N_CLIENTS, requests=len(sqls),
        requests_per_second=len(sqls) / coalesced_seconds,
        speedup=speedup,
        flushes=occupancy["flushes"],
        mean_occupancy=occupancy["mean_occupancy"],
        max_occupancy=occupancy["max_occupancy"],
    )

    assert occupancy["mean_occupancy"] > 2.0
    assert speedup >= 3.0
