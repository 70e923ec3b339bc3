"""Continuous ingest: bounded queueing, batch application, drift repair.

The streaming counterpart of Section 5.2's update story.  Three small
components compose into a pipeline that absorbs a stream of
inserts/deletes without ever blocking readers:

- :class:`~repro.ingest.queue.UpdateQueue` -- a bounded producer/consumer
  queue with blocking-put backpressure and coalescing ``get_batch``;
- :class:`~repro.ingest.applier.BatchApplier` -- the worker thread that
  drains the queue into :meth:`ModelSession.apply_batch
  <repro.serving.session.ModelSession.apply_batch>`: one copy-on-write
  staged commit per batch and one generation bump per touched RSPN,
  its compiled form patched in place rather than rebuilt;
- :class:`~repro.ingest.monitor.DriftMonitor` -- the background thread
  running :func:`repro.core.maintenance.check_structure_drift` on a
  cadence and shadow-rebuilding drifted RSPNs, committing each swap
  under the owning session's write lock.
"""

from repro.ingest.applier import BatchApplier
from repro.ingest.monitor import DriftMonitor
from repro.ingest.queue import QueueClosed, UpdateOp, UpdateQueue

__all__ = [
    "BatchApplier",
    "DriftMonitor",
    "QueueClosed",
    "UpdateOp",
    "UpdateQueue",
]
