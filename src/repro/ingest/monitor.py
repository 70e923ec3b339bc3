"""Background drift monitoring and shadow ensemble refresh.

Algorithm 1 never changes tree *structure*, so correlations that appear
after heavy inserts go unrepresented (Section 5.2).  The paper's remedy
-- re-checking product splits cyclically and regenerating affected
RSPNs "in the background, as for traditional indexes" -- runs here:

1. on a cadence, :func:`repro.core.maintenance.check_structure_drift`
   re-validates the served model's column splits;
2. drifted RSPNs are *shadow-learned* off any lock
   (:func:`repro.core.maintenance.rebuild_drifted` only reads the live
   ensemble), so queries and ingest continue unimpeded;
3. the finished replacements are swapped in atomically under the owning
   session's write lock (:func:`repro.core.maintenance.commit_refresh`
   -> :meth:`SPNEnsemble.replace`), which keeps the ensemble generation
   strictly monotonic -- the plan cache and the compiled forms
   invalidate through the ordinary generation machinery.
"""

from __future__ import annotations

import logging
import threading
import time

logger = logging.getLogger(__name__)


class DriftMonitor:
    """Daemon thread re-validating the served model on a cadence.

    ``registry`` is a :class:`~repro.serving.registry.ModelRegistry`;
    its model is checked once it has loaded, and never loaded just to
    be checked (a model still on disk cannot drift).  ``config`` is the
    :class:`~repro.core.ensemble.EnsembleConfig` used to re-learn
    flagged RSPNs; ``None`` uses the defaults.  ``threshold`` overrides
    each RSPN's learning RDC threshold for the check.
    """

    def __init__(self, registry, config=None, interval_s=30.0, sample=2_000,
                 threshold=None, seed=0):
        if config is None:
            from repro.core.ensemble import EnsembleConfig

            config = EnsembleConfig()
        self.registry = registry
        self.config = config
        self.interval_s = float(interval_s)
        self.sample = int(sample)
        self.threshold = threshold
        self.seed = int(seed)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-drift-monitor", daemon=True
        )
        self._lock = threading.Lock()
        self.rounds = 0
        self.checks = 0
        self.drift_flags = 0
        self.rebuilds = 0
        self.errors = 0
        self.check_seconds = 0.0
        self.last_round_at = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        self._thread.start()
        return self

    def stop(self, timeout=30.0):
        self._stop.set()
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
        while not self._stop.wait(self.interval_s):
            self.run_once()

    def run_once(self):
        """One monitoring round over the loaded model.

        Exposed for tests and for operators who want an on-demand check
        without waiting for the cadence.  Returns the number of RSPNs
        rebuilt this round.
        """
        from repro.core.maintenance import commit_refresh, rebuild_drifted

        with self._lock:
            round_seed = self.seed + self.rounds
            self.rounds += 1
            self.last_round_at = time.time()
        session = self.registry.loaded_session()
        if session is None or self._stop.is_set():
            return 0
        start = time.perf_counter()
        try:
            deepdb = session.deepdb
            reports, replacements = rebuild_drifted(
                deepdb.ensemble, deepdb.database, self.config,
                sample=self.sample, seed=round_seed,
            )
            flagged = sum(1 for r in reports if r.has_drift)
            rebuilt = 0
            if replacements:
                # The expensive learning ran above, off-lock; only the
                # O(replacements) pointer swaps block writers and
                # readers.
                with session.write_lock():
                    rebuilt = commit_refresh(deepdb.ensemble, replacements)
        except Exception:  # noqa: BLE001 - a failed check must not kill the cadence
            logger.exception("drift check failed for model %r", session.name)
            with self._lock:
                self.errors += 1
            return 0
        with self._lock:
            self.checks += 1
            self.drift_flags += flagged
            self.rebuilds += rebuilt
            self.check_seconds += time.perf_counter() - start
        return rebuilt

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "interval_s": self.interval_s,
                "rounds": self.rounds,
                "checks": self.checks,
                "drift_flags": self.drift_flags,
                "rebuilds": self.rebuilds,
                "errors": self.errors,
                "check_seconds": self.check_seconds,
                "last_round_at": self.last_round_at,
                "running": self._thread.is_alive(),
            }
