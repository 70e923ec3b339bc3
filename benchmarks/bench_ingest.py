"""Streaming ingest: sustained update throughput under concurrent reads.

Two legs:

1. **Sustained ingest + snapshot isolation** -- a bounded queue and
   batch applier stream thousands of inserts into a served model while
   reader threads hammer the same session.  Every answer a reader
   observes must equal (``==``, never allclose) one of the states a
   serially-updated twin steps through: batch commits are
   copy-on-write, so a torn tree is unobservable by construction.
   Records sustained updates/sec and concurrent reader queries/sec.
2. **q-error drift over the stream** -- the model's COUNT estimate is
   checked against analytic ground truth at every serially-reachable
   state; the worst q-error across the stream is recorded and bounded.

Results land in ``benchmarks/BENCH_ingest.json``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_ingest.py -q``.
"""

from __future__ import annotations

import copy
import threading
import time

import numpy as np

from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.deepdb import DeepDB
from repro.engine.join import compute_tuple_factors
from repro.engine.table import Database, Table
from repro.ingest import BatchApplier, UpdateOp, UpdateQueue
from repro.serving.session import ModelSession, Request
from repro.schema.schema import Attribute, SchemaGraph, TableSchema

N_OPS = 2_000
N_READERS = 2
PROBE = "SELECT COUNT(*) FROM people WHERE people.age > 100"


def _people_database(n=3_000, seed=0):
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
    rng = np.random.default_rng(seed)
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
    compute_tuple_factors(database)
    return database


def _learned(database):
    # sample_size > n_rows -> sample fraction 1, so each absorbed
    # insert moves the represented count by exactly 1 and the analytic
    # ground truth for the probe is base + inserts.
    return learn_ensemble(database, EnsembleConfig(sample_size=10_000))


def _ops(seed):
    rng = np.random.default_rng(seed)
    return [
        ("insert", "people",
         {"region": str(rng.choice(["EU", "ASIA"])),
          "age": float(rng.integers(110, 160))})
        for _ in range(N_OPS)
    ]


def test_sustained_ingest_with_concurrent_readers(record_ingest_timing):
    database = _people_database(seed=0)
    deepdb = DeepDB(database, _learned(database))
    twin_db, twin_ensemble = copy.deepcopy((database, deepdb.ensemble))
    twin = DeepDB(twin_db, twin_ensemble)
    ops = _ops(seed=1)

    # The serially-reachable states S0..SN and their probe answers.
    # Batch state is bit-identical to serial state at every op count,
    # so a commit of any batch split lands on one of these.
    truth0 = float(np.sum(database.table("people").columns["age"] > 100))
    allowed = [float(twin.cardinality_batch([PROBE])[0])]
    for op, table, row in ops:
        twin.insert(table, row)
        allowed.append(float(twin.cardinality_batch([PROBE])[0]))
    allowed_set = set(allowed)

    # q-error drift across the whole stream, against analytic truth.
    q_errors = [
        max(est, truth0 + n) / max(min(est, truth0 + n), 1.0)
        for n, est in enumerate(allowed)
    ]
    worst_q = float(max(q_errors))

    session = ModelSession("people", deepdb, cache_size=0)
    queue = UpdateQueue(maxsize=1_000)
    applier = BatchApplier(session, queue, max_batch=128, max_wait_s=0.005)

    observed = []
    reads = []
    stop = threading.Event()
    reader_errors = []

    def reader():
        values = []
        try:
            while not stop.is_set():
                result = session.run_batch([Request("cardinality", PROBE)])[0]
                if isinstance(result, Exception):
                    raise result
                values.append(float(result))
        except Exception as error:  # noqa: BLE001
            reader_errors.append(error)
        observed.extend(values)
        reads.append(len(values))

    threads = [threading.Thread(target=reader) for _ in range(N_READERS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    with applier:
        for op, table, row in ops:
            queue.put(UpdateOp(op, table, row))
    ingest_seconds = time.perf_counter() - start
    stop.set()
    for thread in threads:
        thread.join(60.0)

    stats = applier.stats()
    assert not reader_errors
    assert stats["applied"] == N_OPS
    assert stats["rejected"] == 0
    assert stats["flushes"] < N_OPS  # the queue actually coalesced

    # Snapshot isolation: nothing a reader saw is outside S0..SN.
    torn = [value for value in observed if value not in allowed_set]
    assert torn == []
    # And the stream landed on exactly the serial end state.
    assert float(deepdb.cardinality_batch([PROBE])[0]) == allowed[-1]

    assert worst_q < 1.5

    updates_per_second = N_OPS / ingest_seconds
    reads_total = sum(reads)
    print(f"\n{N_OPS} streamed updates in {ingest_seconds * 1e3:.0f} ms "
          f"({updates_per_second:,.0f} updates/s) over "
          f"{stats['flushes']} flushes (mean {stats['mean_flush']:.0f} "
          f"ops/flush)")
    print(f"  {N_READERS} concurrent readers: {reads_total} queries, "
          f"0 torn snapshots observed (of {len(observed)} reads)")
    print(f"  worst q-error across the stream: {worst_q:.3f}")
    record_ingest_timing(
        "sustained_ingest", ingest_seconds,
        ops=N_OPS,
        updates_per_second=updates_per_second,
        flushes=stats["flushes"],
        mean_flush=stats["mean_flush"],
        readers=N_READERS,
        reader_queries=reads_total,
        torn_snapshots=len(torn),
        worst_q_error=worst_q,
    )
