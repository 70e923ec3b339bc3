"""The serving front-end: in-process async facade and HTTP/JSON server.

Two entry points share the same machinery (the registry's one model ->
its coalescer -> batched session runner):

- :class:`AsyncDeepDB` -- the in-process facade.  ``await
  async_db.cardinality(sql)`` from any number of concurrent tasks;
  temporally-close requests coalesce into one
  ``cardinality_batch``/``answer_batch`` call.  **Admission control**
  caps the number of in-flight requests and update ops; beyond the cap
  submissions fail fast with :class:`ServerOverloadedError` instead of
  growing the queue without bound.
- :class:`ServingServer` -- a stdlib ``ThreadingHTTPServer`` speaking
  JSON, with a background event-loop thread hosting the coalescers.
  Handler threads submit through ``asyncio.run_coroutine_threadsafe``,
  so concurrent HTTP clients batch exactly like in-process tasks.

A read never waits for a write to stage.  Query flushes run on the
event loop; update flushes run on one writer thread the facade owns,
one flush at a time (updates arriving meanwhile group into
the next one, in order).  Staging (encoding, routing each batch node by node,
histogram arithmetic) runs there against copy-on-write shadows while
the loop keeps answering; the only section that excludes readers is
the O(touched-nodes) commit under the session's write lock.

Endpoints::

    POST /query   {"sql": ..., "kind": "cardinality"|"approximate"|"plan"}
    POST /update  {"op": "insert"|"delete", "table": ..., "row": {...}}
                  or batched: {"ops": [{"op", "table", "row"}, ...]} --
                  the whole request is one item of the update coalescer,
                  so it flushes as one staged commit, with per-slot
                  results
    GET  /stats   per-endpoint latency/throughput, query and update
                  coalescer occupancy, cache and admission counters, and
                  "drift_monitor" (when --drift-interval is set)

A ``/query`` or ``/update`` body may carry ``"database"``: absent or
the model's name is served, any other name is a 400.  Overload (reads
or update ops beyond ``max_inflight``) maps to HTTP 503, bad requests
(another model's name, parse errors, a malformed ``Content-Length``,
an ``/update`` with more ops than ``max_inflight``) to 400, so clients
can tell "back off" from "fix the query".
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.registry import ModelRegistry
from repro.serving.session import KINDS, Request


class ServerOverloadedError(RuntimeError):
    """Raised when admission control rejects a request (queue full)."""


class AsyncDeepDB:
    """Admission-controlled async facade over the registry's one model.

    Accepts either a :class:`ModelRegistry` or a bare
    :class:`~repro.deepdb.DeepDB` (registered as ``"default"``).  One
    micro-batching coalescer, bound to the model's session on first
    use, takes every query; mixed request kinds (cardinality /
    approximate / plan) share a flush, and the session splits them onto
    the right batched entry points.  Updates go through a second
    coalescer whose flushes run on the facade's one writer thread;
    :meth:`close` joins it.
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
        # The query and update coalescers, bound to the model's session
        # on first use.  Concurrent inserts/deletes coalesce into one
        # session.apply_batch (one staged copy-on-write batch, one
        # generation bump per touched RSPN) instead of taking the write
        # lock once per tuple; those flushes run on the writer thread,
        # one at a time, off the serving loop.
        self._queries = None
        self._updates = None
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving-writer"
        )
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
        """Admission check, then enqueue on the query coalescer."""
        if kind not in KINDS:
            raise ValueError(f"unknown request kind {kind!r}; expected one of {KINDS}")
        session = self.registry.session(database)
        self._admit(1)
        try:
            return await self._coalescer(session).submit(Request(kind, sql))
        finally:
            self._inflight -= 1

    def _admit(self, n):
        """Count ``n`` requests or update ops in flight, or refuse them
        all when that would pass ``max_inflight``."""
        if self._inflight + n > self.max_inflight:
            self.rejected += n
            raise ServerOverloadedError(
                f"{self._inflight} requests in flight, {n} more asked "
                f"(cap {self.max_inflight}); retry later"
            )
        self._inflight += n
        self.admitted += n

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
        """Enqueue one update on the *update* coalescer.

        Temporally-close updates flush as one
        :meth:`~repro.serving.session.ModelSession.apply_batch` on the
        writer thread: staged node by node against copy-on-write
        shadows while the loop keeps answering reads, then committed
        under the session's write lock -- the only section a read can
        wait for -- with one generation bump per touched RSPN.  A
        rejected op (unknown table/column) raises only for its own
        caller -- the per-slot coalescer contract."""
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown update op {op!r}")
        result = (await self.update_batch([(op, table, row)], database))[0]
        if isinstance(result, Exception):
            raise result
        return result

    async def update_batch(self, ops, database=None) -> list:
        """Apply a client-supplied batch of ``(op, table, row)`` triples.

        The ops travel as **one** item of the update coalescer that
        counts all of them against ``max_batch_size``, so a request
        carrying 64 ops is one staged commit (one generation bump per
        touched RSPN), never split across flushes.  Each op counts
        against ``max_inflight``; a request with more ops than the cap
        could never be admitted, so it is refused as a bad request
        (``ValueError``), not as overload.  Returns per-slot results:
        the post-commit generation, or the rejecting exception instance
        (every slot holds the exception of a flush that failed as a
        whole)."""
        ops = list(ops)
        if len(ops) > self.max_inflight:
            raise ValueError(
                f"{len(ops)} update ops in one request exceed the "
                f"in-flight cap of {self.max_inflight}; split the batch"
            )
        session = self.registry.session(database)
        self._admit(len(ops))
        try:
            return await self._update_coalescer(session).submit(
                ops, size=len(ops)
            )
        except Exception as error:  # the whole flush failed
            return [error] * len(ops)
        finally:
            self._inflight -= len(ops)

    async def drain(self):
        """Flush both coalescers' pending requests immediately and wait
        for the writer thread to deliver every update flush."""
        for coalescer in (self._queries, self._updates):
            if coalescer is not None:
                await coalescer.drain()

    def close(self):
        """Join the writer thread once its queued flushes ran (await
        :meth:`drain` first so nothing is still pending); idempotent."""
        self._writer.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _coalescer(self, session) -> MicroBatchCoalescer:
        if self._queries is None:
            self._queries = MicroBatchCoalescer(
                session.run_batch,
                max_batch_size=self.max_batch_size,
                max_wait_ms=self.max_wait_ms,
            )
        return self._queries

    def _update_coalescer(self, session) -> MicroBatchCoalescer:
        if self._updates is None:
            self._updates = MicroBatchCoalescer(
                lambda requests: _apply_requests(session, requests),
                max_batch_size=self.max_batch_size,
                max_wait_ms=self.max_wait_ms,
                executor=self._writer,
            )
        return self._updates

    def stats(self) -> dict:
        """Admission and coalescing counters, and the model's cache
        counters; ``coalescers``, ``update_coalescers`` and ``models``
        are keyed by the model's name (empty until its first use)."""
        name = self.registry.name
        return {
            "admission": {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
            },
            "coalescers": _keyed(name, self._queries),
            "update_coalescers": _keyed(name, self._updates),
            "models": self.registry.snapshot(),
        }


def _keyed(name, coalescer) -> dict:
    return {} if coalescer is None else {name: coalescer.stats.snapshot()}


def _apply_requests(session, requests):
    """One update flush: every request's ops in one
    :meth:`~repro.serving.session.ModelSession.apply_batch`, the
    per-op results handed back per request."""
    results = session.apply_batch([op for ops in requests for op in ops])
    out, start = [], 0
    for ops in requests:
        out.append(results[start:start + len(ops)])
        start += len(ops)
    return out


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
            try:
                self._discard_body()
            except ValueError as exc:
                self._send(400, {"error": str(exc)})
            else:
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

    def _content_length(self) -> int:
        """The request body's length.  A non-integer or negative
        ``Content-Length`` leaves no way to find where the next request
        on a keep-alive connection starts, so the ``ValueError`` (a 400)
        also closes the connection."""
        raw = self.headers.get("Content-Length", 0)
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ValueError(f"malformed Content-Length {raw!r}")
        return length

    def _discard_body(self):
        length = self._content_length()
        if length:
            self.rfile.read(length)

    def _read_json(self) -> dict:
        length = self._content_length()
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
        if self.close_connection:
            self.send_header("Connection", "close")
        self._headers_buffer.append(b"\r\n" + encoded)
        self.flush_headers()


class ServingServer:
    """HTTP front-end wiring: registry + coalescing loop + HTTP threads.

    The asyncio loop (and with it every query flush) runs on one
    background thread; ``ThreadingHTTPServer`` handler threads submit
    coroutines into it and block on the result, so N concurrent HTTP
    clients become one batch exactly like N in-process tasks.  Update
    flushes run on the :class:`AsyncDeepDB` writer thread, so a
    ``/query`` never queues behind a ``/update`` that is staging.
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
        # Background drift repair (Section 5.2): check the loaded model
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
        """Stop the HTTP server, the writer thread and the coalescing
        loop; idempotent.  Pending requests flush first, so no
        submitter is left waiting on a future nobody resolves."""
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
        try:
            try:
                self.call(self.async_db.drain())
            finally:
                self.async_db.close()
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=5)
            if not self._loop_thread.is_alive():
                # Release the loop's selector/self-pipe fds; skipping
                # this leaks an "unclosed event loop" ResourceWarning at
                # GC (the CI spawn leg promotes those to failures).
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
