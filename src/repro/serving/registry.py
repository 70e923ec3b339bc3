"""Model registry: named DeepDB instances routed by database name.

One serving process can hold several learned models (one per database,
or several ensembles of one database under different names).  The
registry maps names to :class:`~repro.serving.session.ModelSession`
objects; every front-end request carries an optional ``database`` field
that routes it to the session of that name.  A registry holding exactly
one model serves unnamed requests from it, so single-model deployments
need no routing ceremony.

**Multi-tenant paging.**  Models can also be registered *by store file*
(:meth:`ModelRegistry.register_store`): registration only reads the
store header (O(bytes of metadata)), and the model pages in lazily on
its first query -- ``open_store`` + mmap + evaluation-twin import,
millisecond-scale.  Under a byte budget (``memory_budget_bytes``) the
registry runs an LRU pager: when paged-in blob bytes exceed the budget,
the least-recently-used paged model is evicted -- its session and
mapping are dropped but the catalog entry stays, so the next query for
that name transparently pages it back in.  Models mutated since page-in
(generation moved: inserts/deletes thawed the mapped tree) are **dirty**
and never evicted, because their in-memory state is newer than the
store file; the ``dirty_pins`` counter surfaces how many are pinned.
A model with a write in flight (:meth:`ModelRegistry.writing`) is
never evicted either, even before its commit moves the generation.
Paging counters (``page_ins``, ``evictions``, ``resident_bytes``,
cold-start ns) are exported by :meth:`stats` and ride ``GET /stats``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager

from repro.serving.session import ModelSession


class ModelRegistry:
    """Thread-safe name -> :class:`ModelSession` mapping with LRU paging.

    Paging keeps its own LRU order (byte budget, dirty pins), not LRUCache's.
    """

    def __init__(self, memory_budget_bytes=None):
        # Insertion/access order is LRU order: oldest first.
        self._sessions: OrderedDict[str, ModelSession] = OrderedDict()
        # name -> registration record for store-backed models (kept
        # across evictions; this is the catalog the pager reloads from).
        self._stores: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.memory_budget_bytes = (
            None if memory_budget_bytes is None else int(memory_budget_bytes)
        )
        self.page_ins = 0
        self.evictions = 0
        self.dirty_pins = 0
        self.resident_bytes = 0
        self._cold_start_ns: list[int] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name, deepdb, cache_size=256) -> ModelSession:
        """Wrap ``deepdb`` in a serving session registered under ``name``.

        One session per model: registering the same underlying ensemble
        under a second name is refused, because each session guards its
        model with its own read-write lock -- two sessions over one
        ensemble would let a write through one bypass the other's
        snapshot reads.  Sessions registered this way are pinned in
        memory (the pager only evicts store-backed models it can
        reload).
        """
        with self._lock:
            self._check_name_free(name)
            for existing in self._sessions.values():
                if existing.deepdb.ensemble is deepdb.ensemble:
                    raise ValueError(
                        f"this model is already registered as "
                        f"{existing.name!r}; route by that name (one "
                        "session per model keeps snapshot isolation)"
                    )
            session = ModelSession(name, deepdb, cache_size=cache_size)
            self._sessions[name] = session
            return session

    def register_store(self, name, path, database, cache_size=256,
                       kernel=None, plan_cache=True) -> dict:
        """Register a model by store file without loading it.

        Validates the header (magic, CRC, version -- raising
        :class:`~repro.core.modelstore.ModelStoreError` on corruption)
        and records how to page the model in later; the blobs stay on
        disk until the first query routed at ``name``.  ``kernel`` must
        be ``None`` or ``"auto"``: the fused sweep is the only kernel.
        Returns the store catalog.
        """
        from repro.core import kernels
        from repro.core.modelstore import read_catalog

        kernels.check(kernel)
        catalog = read_catalog(path)
        with self._lock:
            self._check_name_free(name)
            self._stores[name] = {
                "path": catalog["path"],
                "database": database,
                "cache_size": cache_size,
                "plan_cache": plan_cache,
                "catalog": catalog,
            }
            return catalog

    def _check_name_free(self, name):
        # Caller holds self._lock.
        if name in self._sessions or name in self._stores:
            raise ValueError(f"model {name!r} is already registered")

    def unregister(self, name) -> ModelSession | None:
        """Drop a model.  Returns its session (``None`` when the model
        was a store entry currently paged out)."""
        with self._lock:
            store_entry = self._stores.pop(name, None)
            session = self._sessions.pop(name, None)
            if session is None and store_entry is None:
                raise LookupError(
                    f"no model named {name!r}; registered: {self._names()}"
                )
            if session is not None and session.paging is not None:
                self._release(session)
            return session

    # ------------------------------------------------------------------
    # Routing (pages store-backed models in on demand)
    # ------------------------------------------------------------------
    def session(self, name=None) -> ModelSession:
        """The session for ``name``; ``None`` routes to the only model.

        Store-backed models page in here on first use (and after an
        eviction), then count as the most recently used."""
        with self._lock:
            return self._route(name)

    @contextmanager
    def writing(self, name=None):
        """The session for ``name`` (routed as by :meth:`session`),
        pinned in memory while the caller writes to it.

        A write moves the generation only at its commit, so until then
        the pager would take the model for clean; evicting it then
        would commit the write into a dropped session and lose it.  The
        pager skips a session while any write is in flight."""
        with self._lock:
            session = self._route(name)
            if session.paging is not None:
                session.paging["writes"] += 1
        try:
            yield session
        finally:
            if session.paging is not None:
                with self._lock:
                    session.paging["writes"] -= 1

    def _route(self, name) -> ModelSession:
        # Caller holds self._lock.
        if name is None:
            names = set(self._sessions) | set(self._stores)
            if len(names) != 1:
                raise LookupError(
                    f"registry holds {len(names)} models; name one "
                    f"of {sorted(names)}"
                )
            name = next(iter(names))
        session = self._sessions.get(name)
        if session is not None:
            self._sessions.move_to_end(name)
            return session
        entry = self._stores.get(name)
        if entry is None:
            raise LookupError(
                f"no model named {name!r}; registered: {self._names()}"
            )
        return self._page_in(name, entry)

    def _page_in(self, name, entry) -> ModelSession:
        # Caller holds self._lock.  mmap + twin import is millisecond-
        # scale, so paging in under the lock keeps double-load races
        # impossible without a per-name latch.
        from repro.core import modelstore
        from repro.deepdb import DeepDB

        start = time.perf_counter_ns()
        deepdb = DeepDB.load(
            entry["path"], entry["database"],
            plan_cache=entry.get("plan_cache", True),
        )
        cold_start_ns = time.perf_counter_ns() - start
        session = ModelSession(name, deepdb, cache_size=entry["cache_size"])
        blob_bytes = deepdb.store.blob_bytes if deepdb.store else 0
        session.paging = {
            "store": entry["path"],
            "blob_bytes": blob_bytes,
            "cold_start_ns": cold_start_ns,
            "paged_generation": deepdb.generation,
            "dirty": False,
            "writes": 0,  # in flight, see writing()
        }
        self._sessions[name] = session
        self._sessions.move_to_end(name)
        self.page_ins += 1
        self.resident_bytes += blob_bytes
        self._cold_start_ns.append(cold_start_ns)
        del self._cold_start_ns[:-256]
        self._evict_over_budget(keep=name)
        modelstore.sweep_pending()
        return session

    def _evict_over_budget(self, keep):
        # Caller holds self._lock.
        if self.memory_budget_bytes is None:
            return
        while self.resident_bytes > self.memory_budget_bytes:
            victim = None
            for name, session in self._sessions.items():  # oldest first
                if (name == keep or session.paging is None
                        or session.paging["writes"]):
                    continue
                if session.deepdb.generation != session.paging["paged_generation"]:
                    # Mutated since page-in: the mapped tree was thawed
                    # and the file is stale.  Evicting would serve old
                    # answers after re-page-in -- pin it instead.
                    if not session.paging["dirty"]:
                        session.paging["dirty"] = True
                        self.dirty_pins += 1
                    continue
                victim = name
                break
            if victim is None:
                return
            self._evict(victim)

    def _evict(self, name):
        # Caller holds self._lock.  The catalog entry in self._stores
        # survives, so the next query for this name pages it back in.
        session = self._sessions.pop(name)
        self.evictions += 1
        self._release(session)

    def _release(self, session):
        # Caller holds self._lock.  Transparent to concurrent queries:
        # a thread mid-run_batch holds its own session/tree references,
        # so we only close the *store* (refusing new loads); the actual
        # unmap is deferred until the last tree view dies with the
        # ensemble.
        self.resident_bytes -= session.paging["blob_bytes"]
        deepdb = session.deepdb
        store = deepdb.store
        if store is not None:
            deepdb._store = None
            store.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _names(self) -> list:
        # Caller holds self._lock.
        return sorted(set(self._sessions) | set(self._stores))

    def names(self) -> list:
        with self._lock:
            return self._names()

    def resident_sessions(self) -> list:
        """The currently paged-in sessions, without touching LRU order.

        The drift monitor walks this on its cadence: paged-out models
        cannot drift (their trees are on disk, untouched by updates), so
        they are deliberately *not* paged in just to be checked.
        """
        with self._lock:
            return list(self._sessions.values())

    def __len__(self):
        with self._lock:
            return len(set(self._sessions) | set(self._stores))

    def __contains__(self, name):
        with self._lock:
            return name in self._sessions or name in self._stores

    def snapshot(self) -> dict:
        """Per-model serving state (generation, cache counters).

        Store-backed models currently paged out appear as
        ``{"resident": False, ...}`` catalog stubs, so ``/stats`` shows
        the whole fleet, not just the resident slice."""
        with self._lock:
            sessions = list(self._sessions.values())
            paged_out = {
                name: entry for name, entry in self._stores.items()
                if name not in self._sessions
            }
        snap = {session.name: session.snapshot() for session in sessions}
        for name, entry in paged_out.items():
            snap[name] = {
                "name": name,
                "resident": False,
                "store": entry["path"],
                "blob_bytes": entry["catalog"]["blob_bytes"],
            }
        return snap

    def stats(self) -> dict:
        """Pager counters for ``/stats`` (see module docstring)."""
        with self._lock:
            cold = list(self._cold_start_ns)
            return {
                "models": len(set(self._sessions) | set(self._stores)),
                "resident": len(self._sessions),
                "memory_budget_bytes": self.memory_budget_bytes,
                "resident_bytes": self.resident_bytes,
                "page_ins": self.page_ins,
                "evictions": self.evictions,
                "dirty_pins": self.dirty_pins,
                "cold_start_ns_last": cold[-1] if cold else None,
                "cold_start_ns_mean": (sum(cold) / len(cold)) if cold else None,
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Release every paged-in store mapping; idempotent.

        Directly-registered sessions (no backing store) are left
        untouched -- their models belong to the caller."""
        from repro.core import modelstore

        with self._lock:
            for name in [
                n for n, s in self._sessions.items() if s.paging is not None
            ]:
                session = self._sessions.pop(name)
                self._release(session)
        modelstore.sweep_pending()
