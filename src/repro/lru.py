"""The one thread-safe LRU cache behind the serving result cache and the
optimizer's plan cache."""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRUCache:
    """Thread-safe LRU cache with hit/miss/eviction/invalidation counters.

    ``maxsize <= 0`` disables caching entirely (every lookup misses,
    puts are dropped) -- benchmarks use that to measure pure coalescing.
    """

    def __init__(self, maxsize=256):
        self.maxsize = int(maxsize)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key):
        """``(hit, value)`` -- two-tuple so cached falsy values work."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return True, self._entries[key]
            self.misses += 1
            return False, None

    def put(self, key, value):
        if self.maxsize <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self, invalidated=False):
        with self._lock:
            self._entries.clear()
            if invalidated:
                self.invalidations += 1

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
