"""The batch applier: drains the update queue into the serving session.

One worker thread per (queue, session) pair.  Each drained batch becomes
one :meth:`ModelSession.apply_batch
<repro.serving.session.ModelSession.apply_batch>` call: staging runs
against copy-on-write shadows while readers keep answering, and the
commit is one short exclusive section per flush with one generation
bump per touched RSPN instead of one per op.
Rejected ops (unknown table/column) are counted, not fatal -- the stream
keeps flowing around them.
"""

from __future__ import annotations

import threading
import time


class BatchApplier:
    """Background thread applying queued updates in coalesced batches."""

    def __init__(self, session, queue, max_batch=256, max_wait_s=0.05,
                 on_error=None):
        self.session = session
        self.queue = queue
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self._on_error = on_error
        self._thread = threading.Thread(
            target=self._run, name=f"repro-ingest-{session.name}", daemon=True
        )
        self._lock = threading.Lock()
        self.flushes = 0
        self.applied = 0
        self.rejected = 0
        self.max_flush = 0
        self.flush_seconds = 0.0
        self.last_generation = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        self._thread.start()
        return self

    def stop(self, timeout=30.0):
        """Close the queue, drain what is pending and join the thread."""
        self.queue.close()
        self._thread.join(timeout)
        return not self._thread.is_alive()

    @property
    def running(self):
        return self._thread.is_alive()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _run(self):
        while True:
            batch = self.queue.get_batch(
                max_batch=self.max_batch, max_wait_s=self.max_wait_s
            )
            if batch is None:  # closed and drained
                return
            start = time.perf_counter()
            try:
                results = self.session.apply_batch(
                    [op.triple() for op in batch]
                )
            except Exception as error:  # noqa: BLE001 - keep the stream alive
                with self._lock:
                    self.flushes += 1
                    self.rejected += len(batch)
                if self._on_error is not None:
                    self._on_error(error, batch)
                continue
            seconds = time.perf_counter() - start
            applied = rejected = 0
            generation = None
            for result in results:
                if isinstance(result, Exception):
                    rejected += 1
                else:
                    applied += 1
                    generation = result
            with self._lock:
                self.flushes += 1
                self.applied += applied
                self.rejected += rejected
                self.max_flush = max(self.max_flush, len(batch))
                self.flush_seconds += seconds
                if generation is not None:
                    self.last_generation = generation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            flushes = self.flushes
            return {
                "flushes": flushes,
                "applied": self.applied,
                "rejected": self.rejected,
                "mean_flush": (
                    (self.applied + self.rejected) / flushes if flushes else 0.0
                ),
                "max_flush": self.max_flush,
                "flush_seconds": self.flush_seconds,
                "last_generation": self.last_generation,
                "queue": self.queue.stats(),
            }
