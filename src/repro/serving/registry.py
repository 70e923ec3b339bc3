"""Model registry: the one model a serving process answers from.

DeepDB learns one ensemble per database, and one serving process serves
one of them.  The registry holds it as a
:class:`~repro.serving.session.ModelSession`, registered once: directly
(:meth:`ModelRegistry.register`) or by store file
(:meth:`ModelRegistry.register_store`).  A second registration is
refused.  A request may carry a ``database`` field: absent or equal to
the model's name it is served, any other name raises ``LookupError``
(HTTP 400).

A store-backed model registers by reading only the store header
(O(bytes of metadata)) and loads lazily, under the lock, on the first
:meth:`~ModelRegistry.session` call -- ``open_store`` + mmap +
evaluation-twin import, millisecond-scale.
"""

from __future__ import annotations

import threading

from repro.serving.session import ModelSession


class ModelRegistry:
    """Thread-safe holder of one :class:`ModelSession` (see module
    docstring)."""

    def __init__(self):
        self.name = None
        self._session = None
        # How to load a store-backed model: its registration record.
        self._store = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name, deepdb, cache_size=256) -> ModelSession:
        """Wrap ``deepdb`` in the serving session registered as ``name``.

        The model belongs to the caller: :meth:`close` leaves it open."""
        with self._lock:
            self._claim(name)
            self._session = ModelSession(name, deepdb, cache_size=cache_size)
            return self._session

    def register_store(self, name, path, database, cache_size=256,
                       kernel=None, plan_cache=True) -> dict:
        """Register the model by store file without loading it.

        Validates the header (magic, CRC, version -- raising
        :class:`~repro.core.modelstore.ModelStoreError` on corruption)
        and records how to load the model on the first :meth:`session`
        call.  ``kernel`` must be ``None`` or ``"auto"``: the fused
        sweep is the only kernel.  Returns the store catalog.
        """
        from repro.core import kernels
        from repro.core.modelstore import read_catalog

        kernels.check(kernel)
        catalog = read_catalog(path)
        with self._lock:
            self._claim(name)
            self._store = {
                "path": catalog["path"],
                "database": database,
                "cache_size": cache_size,
                "plan_cache": plan_cache,
            }
            return catalog

    def _claim(self, name):
        # Caller holds self._lock.
        if self.name is not None:
            raise ValueError(
                f"model {self.name!r} is already registered; a serving "
                f"process holds one model, so {name!r} cannot join it"
            )
        self.name = name

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def session(self, name=None) -> ModelSession:
        """The model's session; ``name`` is ``None`` or the model's name.

        A store-backed model loads here on first use."""
        with self._lock:
            if self.name is None:
                raise LookupError("no model is registered")
            if name is not None and name != self.name:
                raise LookupError(
                    f"no model named {name!r}; this process serves "
                    f"{self.name!r}"
                )
            if self._session is None:
                self._session = self._load()
            return self._session

    def _load(self) -> ModelSession:
        # Caller holds self._lock.  mmap + twin import is millisecond-
        # scale, so loading under the lock rules out a double load.
        from repro.deepdb import DeepDB

        store = self._store
        deepdb = DeepDB.load(
            store["path"], store["database"], plan_cache=store["plan_cache"]
        )
        return ModelSession(self.name, deepdb, cache_size=store["cache_size"])

    def loaded_session(self) -> ModelSession | None:
        """The session if the model is in memory, else ``None``; never
        loads it (the drift monitor's view: a model still on disk has
        taken no updates, so it cannot drift)."""
        with self._lock:
            return self._session

    def snapshot(self) -> dict:
        """``{name: session state}`` once the model is in memory, else
        ``{}``."""
        session = self.loaded_session()
        return {} if session is None else {session.name: session.snapshot()}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Release a store-backed model's mapping; idempotent.

        A thread mid-``run_batch`` keeps its own tree references, so
        only the *store* closes here (refusing new loads); the unmap
        waits for the last tree view to die with the ensemble.  A
        directly-registered model is left untouched."""
        from repro.core import modelstore

        with self._lock:
            if self._store is not None and self._session is not None:
                deepdb = self._session.deepdb
                self._session = None
                store, deepdb._store = deepdb.store, None
                if store is not None:
                    store.close()
        modelstore.sweep_pending()
