"""Async serving subsystem: the front-end of the batched kernels.

The compiled flat-array kernels (PR 1) and the batched estimator
protocol (PR 2) answer a batch of queries for barely more than one --
but concurrent independent clients each arrive holding a single query.
This package turns that concurrency into batch shape:

- :mod:`repro.serving.coalescer` -- micro-batching: accumulate
  concurrent requests, flush by ``max_batch_size`` or ``max_wait_ms``
  into one batched call, answer per-request futures;
- :mod:`repro.serving.session` -- one servable model: snapshot reads
  vs. exclusive updates (read-write lock).  There is no result cache:
  every update changes every answer, so a cache keyed on query text
  would hit only on verbatim repeats between commits.  The model
  generation is what the plan cache and the compiled forms check;
- :mod:`repro.serving.registry` -- the one model a process serves; a
  store-backed model (:mod:`repro.core.modelstore`) registers by file
  and loads lazily on first use (mmap, millisecond cold start);
- :mod:`repro.serving.server` -- the fronts: the in-process
  :class:`AsyncDeepDB` facade with admission control and its one
  writer thread for update flushes, and a stdlib HTTP/JSON server
  (``repro serve`` / ``repro client`` in the CLI).

Minimal in-process use::

    import asyncio
    from repro.serving import AsyncDeepDB

    async def client(async_db, sql):
        return await async_db.cardinality(sql)

    async def main(deepdb, queries):
        async_db = AsyncDeepDB(deepdb)          # coalesces concurrent tasks
        return await asyncio.gather(*(client(async_db, q) for q in queries))
"""

from repro.serving.coalescer import CoalescerStats, MicroBatchCoalescer
from repro.serving.registry import ModelRegistry
from repro.serving.server import (
    AsyncDeepDB,
    ServerOverloadedError,
    ServingServer,
    start_server,
)
from repro.serving.session import (
    ModelSession,
    ReadWriteLock,
    Request,
    normalize_sql,
)

__all__ = [
    "AsyncDeepDB",
    "CoalescerStats",
    "MicroBatchCoalescer",
    "ModelRegistry",
    "ModelSession",
    "ReadWriteLock",
    "Request",
    "ServerOverloadedError",
    "ServingServer",
    "normalize_sql",
    "start_server",
]
