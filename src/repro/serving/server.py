"""The serving front-end: in-process async facade and HTTP/JSON server.

Two entry points share the same machinery (registry -> per-model
coalescer -> batched session runner):

- :class:`AsyncDeepDB` -- the in-process facade.  ``await
  async_db.cardinality(sql)`` from any number of concurrent tasks;
  temporally-close requests coalesce into one
  ``cardinality_batch``/``answer_batch`` call.  **Admission control**
  caps the number of in-flight requests; beyond the cap submissions
  fail fast with :class:`ServerOverloadedError` instead of growing the
  queue without bound.
- :class:`ServingServer` -- a stdlib ``ThreadingHTTPServer`` speaking
  JSON, with a background event-loop thread hosting the coalescers.
  Handler threads submit through ``asyncio.run_coroutine_threadsafe``,
  so concurrent HTTP clients batch exactly like in-process tasks.

Endpoints::

    POST /query   {"sql": ..., "kind": "cardinality"|"approximate"|"plan",
                   "database": optional-model-name}
    POST /update  {"op": "insert"|"delete", "table": ..., "row": {...},
                   "database": optional-model-name}
                  or batched: {"ops": [{"op", "table", "row"}, ...]} --
                  the whole request flushes as one staged commit with
                  per-slot results
    GET  /stats   also carries "update_coalescers" (write-path batching)
                  and "drift_monitor" (when --drift-interval is set)
    GET  /stats   per-endpoint latency/throughput, coalescer occupancy,
                  cache and admission counters
    GET  /models  registered model names

Overload maps to HTTP 503, bad requests (unknown model, parse errors)
to 400, so clients can tell "back off" from "fix the query".
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.registry import ModelRegistry
from repro.serving.session import KINDS, Request


class ServerOverloadedError(RuntimeError):
    """Raised when admission control rejects a request (queue full)."""


class AsyncDeepDB:
    """Admission-controlled async facade over a model registry.

    Accepts either a :class:`ModelRegistry` or a bare
    :class:`~repro.deepdb.DeepDB` (registered as ``"default"``).  One
    micro-batching coalescer is kept per model; mixed request kinds
    (cardinality / approximate / plan) share a flush, and the session
    splits them onto the right batched entry points.
    """

    def __init__(self, models, max_batch_size=32, max_wait_ms=2.0,
                 max_inflight=1024, cache_size=256):
        if isinstance(models, ModelRegistry):
            self.registry = models
        else:
            self.registry = ModelRegistry()
            self.registry.register("default", models, cache_size=cache_size)
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_inflight = int(max_inflight)
        # name -> (session, coalescer): keyed on session *identity*, not
        # just name, because the registry's LRU pager can evict and
        # re-page a model -- the new page-in gets a fresh session, and a
        # coalescer still bound to the old session's run_batch would pin
        # the evicted model alive and serve it forever.
        self._coalescers: dict[str, tuple] = {}
        # Same, for the write path: concurrent inserts/deletes coalesce
        # into one session.apply_batch (one staged copy-on-write batch,
        # one generation bump per touched RSPN) instead of taking the
        # write lock once per tuple.
        self._update_coalescers: dict[str, tuple] = {}
        self._inflight = 0
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Queries (coalesced)
    # ------------------------------------------------------------------
    async def cardinality(self, sql, database=None) -> float:
        """Coalesced cardinality estimate for one SQL query."""
        return await self.submit("cardinality", sql, database)

    async def approximate(self, sql, database=None):
        """Coalesced approximate answer (scalar or ``{group: value}``)."""
        return await self.submit("approximate", sql, database)

    async def plan(self, sql, database=None) -> dict:
        """Join order under batched DeepDB cardinalities (one prefetched
        ``cardinality_batch`` call per request, inside the flush)."""
        return await self.submit("plan", sql, database)

    async def submit(self, kind, sql, database=None):
        """Admission check, then enqueue on the model's coalescer."""
        if kind not in KINDS:
            raise ValueError(f"unknown request kind {kind!r}; expected one of {KINDS}")
        session = self.registry.session(database)
        if self._inflight >= self.max_inflight:
            self.rejected += 1
            raise ServerOverloadedError(
                f"{self._inflight} requests in flight (cap {self.max_inflight}); "
                "retry later"
            )
        self._inflight += 1
        self.admitted += 1
        try:
            return await self._coalescer(session).submit(Request(kind, sql))
        finally:
            self._inflight -= 1

    # ------------------------------------------------------------------
    # Updates (coalesced onto the batch write path)
    # ------------------------------------------------------------------
    async def insert(self, table, row, database=None) -> int:
        """Insert one tuple.  Returns the new generation (the
        result-cache invalidation token)."""
        return await self.update("insert", table, row, database)

    async def delete(self, table, row, database=None) -> int:
        """Delete one tuple (see :meth:`insert`)."""
        return await self.update("delete", table, row, database)

    async def update(self, op, table, row, database=None) -> int:
        """Enqueue one update on the model's *update* coalescer.

        Temporally-close updates flush as one
        :meth:`~repro.serving.session.ModelSession.apply_batch`: staged
        against copy-on-write shadows while readers keep answering,
        committed with one generation bump per touched RSPN, and shipped
        to shard workers as a leaf-delta patch.  A rejected op (unknown
        table/column) raises only for its own caller -- the per-slot
        coalescer contract."""
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown update op {op!r}")
        session = self.registry.session(database)
        return await self._update_coalescer(session).submit((op, table, row))

    async def update_batch(self, ops, database=None) -> list:
        """Apply a client-supplied batch of ``(op, table, row)`` triples.

        All ops join the same update coalescer (batchmates included),
        so one HTTP request carrying 100 ops costs one staged commit.
        Returns per-slot results: the post-commit generation, or the
        rejecting exception instance."""
        results = await asyncio.gather(
            *(self.update(op, table, row, database) for op, table, row in ops),
            return_exceptions=True,
        )
        return list(results)

    async def drain(self):
        """Flush every coalescer's pending requests immediately."""
        for _session, coalescer in list(self._coalescers.values()):
            await coalescer.drain()
        for _session, coalescer in list(self._update_coalescers.values()):
            await coalescer.drain()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _coalescer(self, session) -> MicroBatchCoalescer:
        entry = self._coalescers.get(session.name)
        if entry is None or entry[0] is not session:
            # First request for this model, or the pager swapped the
            # session (evict + re-page-in): bind a fresh coalescer to
            # the live session and drop any stale one (its in-flight
            # futures resolve against the old session, then it is GC'd).
            coalescer = MicroBatchCoalescer(
                session.run_batch,
                max_batch_size=self.max_batch_size,
                max_wait_ms=self.max_wait_ms,
            )
            self._coalescers[session.name] = (session, coalescer)
            return coalescer
        return entry[1]

    def _update_coalescer(self, session) -> MicroBatchCoalescer:
        entry = self._update_coalescers.get(session.name)
        if entry is None or entry[0] is not session:
            coalescer = MicroBatchCoalescer(
                session.apply_batch,
                max_batch_size=self.max_batch_size,
                max_wait_ms=self.max_wait_ms,
            )
            self._update_coalescers[session.name] = (session, coalescer)
            return coalescer
        return entry[1]

    def stats(self) -> dict:
        """Admission, coalescing, paging and per-model cache counters."""
        return {
            "admission": {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
            },
            # Copy first: HTTP handler threads read this while the
            # event-loop thread may be inserting a new model's coalescer.
            "coalescers": {
                name: entry[1].stats.snapshot()
                for name, entry in dict(self._coalescers).items()
            },
            "update_coalescers": {
                name: entry[1].stats.snapshot()
                for name, entry in dict(self._update_coalescers).items()
            },
            "registry": self.registry.stats(),
            "models": self.registry.snapshot(),
        }


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
class _EndpointStats:
    """Latency/throughput accumulator for one HTTP endpoint."""

    __slots__ = ("count", "errors", "total_seconds", "max_seconds")

    def __init__(self):
        self.count = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds, error=False):
        self.count += 1
        self.errors += int(error)
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def snapshot(self, uptime_seconds) -> dict:
        mean = self.total_seconds / self.count if self.count else 0.0
        throughput = self.count / uptime_seconds if uptime_seconds > 0 else 0.0
        return {
            "requests": self.count,
            "errors": self.errors,
            "mean_latency_ms": mean * 1e3,
            "max_latency_ms": self.max_seconds * 1e3,
            "throughput_rps": throughput,
        }


def _jsonable(result):
    """Session results -> JSON-encodable payloads (GROUP BY answers have
    tuple keys, which JSON objects cannot carry)."""
    if isinstance(result, dict) and result and all(
        isinstance(key, tuple) for key in result
    ):
        return {
            "groups": [
                {"key": list(key), "value": value}
                for key, value in sorted(result.items())
            ]
        }
    return {"value": result}


class _Handler(BaseHTTPRequestHandler):
    """JSON request handler; the owning :class:`ServingServer` is
    attached to the HTTP server object as ``serving``."""

    server_version = "repro-serving/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # noqa: D102 - silence per-request noise
        pass

    @property
    def serving(self) -> "ServingServer":
        return self.server.serving

    # ------------------------------------------------------------------
    def do_GET(self):
        path = urlparse(self.path).path
        if path == "/stats":
            self._timed(path, self._get_stats)
        elif path == "/models":
            self._timed(path, lambda: (200, {"models": self.serving.registry.names()}))
        else:
            self._send(404, {"error": f"unknown endpoint {path!r}"})

    def do_POST(self):
        path = urlparse(self.path).path
        if path == "/query":
            self._timed(path, self._post_query)
        elif path == "/update":
            self._timed(path, self._post_update)
        else:
            # Drain the unread body so the keep-alive connection is not
            # desynced for the client's next request.
            self._discard_body()
            self._send(404, {"error": f"unknown endpoint {path!r}"})

    # ------------------------------------------------------------------
    def _get_stats(self):
        return 200, self.serving.stats()

    def _post_query(self):
        body = self._read_json()
        kind = body.get("kind", "cardinality")
        sql = body.get("sql")
        if not sql:
            return 400, {"error": "missing 'sql'"}
        start = time.perf_counter()
        result = self.serving.call(
            self.serving.async_db.submit(kind, sql, body.get("database"))
        )
        payload = _jsonable(result)
        payload["kind"] = kind
        payload["latency_ms"] = (time.perf_counter() - start) * 1e3
        return 200, payload

    def _post_update(self):
        body = self._read_json()
        if "ops" in body:
            return self._post_update_batch(body)
        op = body.get("op", "insert")
        if op not in ("insert", "delete"):
            return 400, {"error": f"unknown op {op!r}"}
        table, row = body.get("table"), body.get("row")
        if not table or not isinstance(row, dict):
            return 400, {"error": "need 'table' and a 'row' object"}
        method = getattr(self.serving.async_db, op)
        generation = self.serving.call(method(table, row, body.get("database")))
        return 200, {"ok": True, "generation": generation}

    def _post_update_batch(self, body):
        """Batched form: ``{"ops": [{"op","table","row"}, ...]}``.

        The whole request joins one update-coalescer flush (one staged
        commit, one generation bump per touched RSPN).  Per-slot errors
        come back in-band so one bad op never fails its batchmates."""
        ops = body.get("ops")
        if not isinstance(ops, list) or not ops:
            return 400, {"error": "'ops' must be a non-empty list"}
        triples = []
        for i, entry in enumerate(ops):
            if not isinstance(entry, dict):
                return 400, {"error": f"ops[{i}] must be an object"}
            op = entry.get("op", "insert")
            if op not in ("insert", "delete"):
                return 400, {"error": f"ops[{i}]: unknown op {op!r}"}
            table, row = entry.get("table"), entry.get("row")
            if not table or not isinstance(row, dict):
                return 400, {
                    "error": f"ops[{i}]: need 'table' and a 'row' object"
                }
            triples.append((op, table, row))
        results = self.serving.call(
            self.serving.async_db.update_batch(triples, body.get("database"))
        )
        slots = []
        generation = None
        applied = 0
        for result in results:
            if isinstance(result, BaseException):
                slots.append({"ok": False, "error": str(result)})
            else:
                applied += 1
                generation = result
                slots.append({"ok": True, "generation": result})
        return 200, {
            "ok": applied == len(slots),
            "applied": applied,
            "generation": generation,
            "results": slots,
        }

    # ------------------------------------------------------------------
    def _timed(self, path, handler):
        start = time.perf_counter()
        error = True
        try:
            status, payload = handler()
            error = status >= 400
        except ServerOverloadedError as exc:
            status, payload = 503, {"error": str(exc)}
        except (SyntaxError, ValueError, KeyError, LookupError) as exc:
            status, payload = 400, {"error": str(exc)}
        except TimeoutError:
            status, payload = 504, {"error": "request timed out"}
        except Exception as exc:  # noqa: BLE001 - surface, don't crash the thread
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self.serving.record(path, time.perf_counter() - start, error)
        self._send(status, payload)

    def _discard_body(self):
        length = int(self.headers.get("Content-Length", 0))
        if length:
            self.rfile.read(length)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError:
            raise ValueError("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _send(self, status, payload):
        """Status line, headers, blank line and body leave in ONE write.

        ``end_headers()`` followed by ``wfile.write(body)`` is two
        segments on a keep-alive socket: the second waits out the
        client's delayed ACK of the first (~40 ms per request)."""
        encoded = json.dumps(payload).encode("utf-8")
        if self.request_version == "HTTP/0.9":
            # A simple-request gets the bare body: the stdlib buffers no
            # status line or headers for it.
            self.wfile.write(encoded)
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self._headers_buffer.append(b"\r\n" + encoded)
        self.flush_headers()


class ServingServer:
    """HTTP front-end wiring: registry + coalescing loop + HTTP threads.

    The asyncio loop (and with it every coalescer flush) runs on one
    background thread; ``ThreadingHTTPServer`` handler threads submit
    coroutines into it and block on the result, so N concurrent HTTP
    clients become one batch exactly like N in-process tasks.
    """

    def __init__(self, registry, host="127.0.0.1", port=8080,
                 max_batch_size=32, max_wait_ms=2.0, max_inflight=1024,
                 request_timeout_s=60.0, drift_interval_s=None,
                 drift_config=None, drift_sample=2_000):
        self.registry = registry
        self.async_db = AsyncDeepDB(
            registry, max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
            max_inflight=max_inflight,
        )
        self.request_timeout_s = request_timeout_s
        # Background drift repair (Section 5.2): check resident models
        # every drift_interval_s seconds, shadow-rebuild drifted RSPNs
        # off-lock and swap them in under the session write lock.
        self.drift_monitor = None
        if drift_interval_s is not None and drift_interval_s > 0:
            from repro.ingest.monitor import DriftMonitor

            self.drift_monitor = DriftMonitor(
                registry, config=drift_config,
                interval_s=drift_interval_s, sample=drift_sample,
            ).start()
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-serving-loop", daemon=True
        )
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.serving = self
        self._http_thread = None
        self._endpoints: dict[str, _EndpointStats] = {}
        self._stats_lock = threading.Lock()
        self._started_at = time.perf_counter()
        self._loop_thread.start()

    def _run_loop(self):
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 resolves here)."""
        return self._http.server_address

    @property
    def url(self):
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        """Serve in a background thread (returns immediately)."""
        if self._http_thread is None:
            self._http_thread = threading.Thread(
                target=self._http.serve_forever, name="repro-serving-http",
                daemon=True,
            )
            self._http_thread.start()
        return self

    def serve_forever(self):
        """Serve on the calling thread (the CLI's blocking mode)."""
        self._http.serve_forever()

    def close(self):
        """Stop the HTTP server and the coalescing loop; idempotent."""
        if self._loop.is_closed():
            return
        if self.drift_monitor is not None:
            self.drift_monitor.stop()
            self.drift_monitor = None
        self._http.shutdown()
        self._http.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5)
            self._http_thread = None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=5)
        if not self._loop_thread.is_alive():
            # Release the loop's selector/self-pipe fds; skipping this
            # leaks an "unclosed event loop" ResourceWarning at GC (the
            # CI spawn leg promotes those to failures).
            self._loop.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    # Cross-thread plumbing and stats
    # ------------------------------------------------------------------
    def call(self, coroutine):
        """Run ``coroutine`` on the serving loop, blocking this thread."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=self.request_timeout_s)

    def record(self, path, seconds, error):
        with self._stats_lock:
            stats = self._endpoints.get(path)
            if stats is None:
                stats = self._endpoints[path] = _EndpointStats()
            stats.record(seconds, error)

    def stats(self) -> dict:
        uptime = time.perf_counter() - self._started_at
        with self._stats_lock:
            endpoints = {
                path: stats.snapshot(uptime)
                for path, stats in self._endpoints.items()
            }
        snap = {
            "uptime_s": uptime,
            "endpoints": endpoints,
            "serving": self.async_db.stats(),
        }
        if self.drift_monitor is not None:
            snap["drift_monitor"] = self.drift_monitor.stats()
        return snap


def start_server(registry, host="127.0.0.1", port=0, **kwargs) -> ServingServer:
    """Create and start a :class:`ServingServer` in the background.

    ``port=0`` binds an ephemeral port; read it back from
    ``server.address`` / ``server.url``.  Use as a context manager for
    deterministic shutdown.
    """
    return ServingServer(registry, host=host, port=port, **kwargs).start()
