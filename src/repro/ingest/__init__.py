"""Drift repair for models that absorb a stream of updates.

Updates themselves need no package of their own: every insert and
delete is applied through :meth:`DeepDB.apply_update_batch
<repro.deepdb.DeepDB.apply_update_batch>` (or, behind a serving
session, :meth:`ModelSession.apply_batch
<repro.serving.session.ModelSession.apply_batch>`) -- one copy-on-write
staged commit per batch and one generation bump per touched RSPN.
What Algorithm 1 cannot do is change tree structure, so this package
holds :class:`~repro.ingest.monitor.DriftMonitor`: the background
thread running :func:`repro.core.maintenance.check_structure_drift` on
a cadence and shadow-rebuilding drifted RSPNs, committing each swap
under the owning session's write lock (Section 5.2).
"""

from repro.ingest.monitor import DriftMonitor

__all__ = ["DriftMonitor"]
