"""Micro-batching coalescer: concurrent requests into one batched call.

PR 1 made batched inference fast (one compiled bottom-up sweep answers a
whole batch of expectation sub-queries) and PR 2 put the
``cardinality_batch`` protocol under every consumer -- but a batch only
exists if *someone* forms it.  Independent concurrent clients each hold
one query; the coalescer is the component that turns their temporal
proximity into batch shape.

The mechanics follow the classic serving-system micro-batching design
(as in learned-component serving front-ends such as Clipper or the
inference servers discussed alongside Neo): requests submitted through
:meth:`MicroBatchCoalescer.submit` accumulate in a pending list and are
flushed into **one** call of the ``flush`` callable when either

- the pending list reaches ``max_batch_size`` (an early *size* flush), or
- ``max_wait_ms`` elapsed since the first pending request (a *timeout*
  flush with a partial batch).

Each submitter awaits its own future.  The flush callable receives the
list of pending items and returns one result per item, positionally;
returning an ``Exception`` instance in a slot fails only that slot's
future (used for per-request parse errors), while an exception *raised*
by the flush callable fails the whole batch.

By default the flush callable runs synchronously in the event-loop
thread, so one flush sees one consistent snapshot of the model (the
serving session additionally takes its read lock for the duration of
the batch).  Results are therefore bit-identical to running the same
flush callable serially -- the compiled batch kernels guarantee
batch-of-1 equals batch-of-N.  A coalescer built with an ``executor``
(the serving front-end's update coalescers, on its one writer thread)
runs each flush there instead, so a slow flush never holds up the
loop; the loop only resolves the batch's futures once it is done.  It
keeps one flush in the executor at a time: whatever is submitted
meanwhile groups into the next flush, handed over as soon as the
previous one delivered (a group commit per writer turn).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


@dataclass
class CoalescerStats:
    """Occupancy and flush-policy counters of one coalescer."""

    requests: int = 0
    flushes: int = 0
    size_flushes: int = 0
    timeout_flushes: int = 0
    drain_flushes: int = 0
    max_occupancy: int = 0
    failed_requests: int = 0
    flush_seconds: float = 0.0

    @property
    def mean_occupancy(self) -> float:
        """Requests per flush: the batching the coalescer achieved (an
        item submitted with ``size=n`` counts as ``n`` requests)."""
        return self.requests / self.flushes if self.flushes else 0.0

    def record_flush(self, occupancy, reason, seconds, failures):
        self.requests += occupancy
        self.flushes += 1
        if reason == "size":
            self.size_flushes += 1
        elif reason == "timeout":
            self.timeout_flushes += 1
        else:
            self.drain_flushes += 1
        self.max_occupancy = max(self.max_occupancy, occupancy)
        self.failed_requests += failures
        self.flush_seconds += seconds

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "flushes": self.flushes,
            "size_flushes": self.size_flushes,
            "timeout_flushes": self.timeout_flushes,
            "drain_flushes": self.drain_flushes,
            "mean_occupancy": self.mean_occupancy,
            "max_occupancy": self.max_occupancy,
            "failed_requests": self.failed_requests,
            "flush_seconds": self.flush_seconds,
        }


class MicroBatchCoalescer:
    """Accumulate concurrent submissions and flush them as one batch.

    ``flush`` is a callable ``(items) -> results`` with the per-slot
    error contract described in the module docstring.  All bookkeeping
    runs on the event loop, so no locking is needed; :meth:`submit` must
    be awaited from a running loop (cross-thread callers go through
    ``asyncio.run_coroutine_threadsafe``, as the HTTP front-end does).

    With an ``executor`` the flush callable runs there instead of on the
    loop: the loop hands the batch over, goes on serving other
    coalescers, and resolves the batch's futures when the flush is
    done.  At most one flush is in the executor at a time; submissions
    arriving meanwhile, however many, flush together when it is done,
    so batches follow in submission order.
    """

    def __init__(self, flush, max_batch_size=32, max_wait_ms=2.0,
                 executor=None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self._flush = flush
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.stats = CoalescerStats()
        self._executor = executor
        self._pending = []  # [(item, future)]
        self._pending_size = 0
        self._running = None  # the executor flush not yet delivered
        self._timer = None  # asyncio.TimerHandle for the deadline flush

    async def submit(self, item, size=1):
        """Enqueue ``item`` and await its result.

        ``size`` is the item's share of ``max_batch_size`` (an item
        carrying several operations counts each of them).  Raises
        whatever exception the flush assigned to this item's slot (or
        raised for the whole batch).
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append((item, future))
        self._pending_size += size
        if self._pending_size >= self.max_batch_size:
            self._flush_now("size")
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_wait_ms / 1000.0, self._flush_now, "timeout"
            )
        return await future

    async def drain(self):
        """Flush whatever is pending without waiting for the deadline,
        then wait until every flush handed to the executor delivered."""
        self._flush_now("drain")
        while self._running is not None:
            await asyncio.wait({self._running})
            self._flush_now("drain")

    @property
    def pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _flush_now(self, reason):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._running is not None:
            return  # groups into the flush handed over on delivery
        batch, self._pending = self._pending, []
        occupancy, self._pending_size = self._pending_size, 0
        if not batch:
            return
        items = [item for item, _future in batch]
        start = time.perf_counter()
        if self._executor is None:
            try:
                results, error = self._flush(items), None
            except Exception as exc:  # whole-batch failure
                results, error = None, exc
            self._deliver(batch, occupancy, reason, start, results, error)
            return
        try:
            running = asyncio.get_running_loop().run_in_executor(
                self._executor, self._flush, items
            )
        except Exception as exc:  # the executor was shut down
            self._deliver(batch, occupancy, reason, start, None, exc)
            return
        self._running = running
        running.add_done_callback(
            lambda done: self._delivered(done, batch, occupancy, reason, start)
        )

    def _delivered(self, running, batch, occupancy, reason, start):
        self._running = None
        try:
            results, error = running.result(), None
        except Exception as exc:  # whole-batch failure
            results, error = None, exc
        self._deliver(batch, occupancy, reason, start, results, error)
        if self._pending:  # what arrived while the executor was busy
            full = self._pending_size >= self.max_batch_size
            self._flush_now("size" if full else "timeout")

    def _deliver(self, batch, occupancy, reason, start, results, error):
        """Resolve every submitter's future from one flush's outcome."""
        if error is None:
            try:
                results = list(results)
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"flush returned {len(results)} results for "
                        f"{len(batch)} items"
                    )
            except Exception as exc:
                error = exc
        seconds = time.perf_counter() - start
        if error is not None:
            for _item, future in batch:
                if not future.done():
                    future.set_exception(error)
            self.stats.record_flush(occupancy, reason, seconds, len(batch))
            return
        failures = 0
        for (_item, future), result in zip(batch, results):
            if future.done():  # submitter cancelled / timed out
                continue
            if isinstance(result, Exception):
                failures += 1
                future.set_exception(result)
            else:
                future.set_result(result)
        self.stats.record_flush(occupancy, reason, seconds, failures)
