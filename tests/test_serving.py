"""Serving subsystem: coalesced == serial, sessions, registry, HTTP.

The ordering inside this module matters: the model-mutating tests
(inserts, generation bumps) run in the classes at the bottom so the
equivalence tests above them observe an untouched model.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.ensemble import EnsembleConfig
from repro.deepdb import DeepDB
from repro.serving import (
    AsyncDeepDB,
    ModelRegistry,
    ReadWriteLock,
    Request,
    ServerOverloadedError,
    normalize_sql,
    start_server,
)
from repro.serving.server import _Handler
from tests.conftest import build_customer_orders

CARDINALITY_SQLS = [
    "SELECT COUNT(*) FROM customer WHERE customer.age > 40",
    "SELECT COUNT(*) FROM customer WHERE customer.region = 'EU'",
    "SELECT COUNT(*) FROM orders WHERE orders.channel = 'ONLINE'",
    "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_id = o.c_id "
    "AND c.region = 'ASIA'",
    "SELECT COUNT(*) FROM customer WHERE customer.age BETWEEN 25 AND 35",
]
APPROXIMATE_SQLS = [
    "SELECT AVG(customer.age) FROM customer WHERE customer.region = 'EU'",
    "SELECT AVG(customer.age) FROM customer GROUP BY customer.region",
    "SELECT SUM(customer.age) FROM customer WHERE customer.age < 50",
]
PLAN_SQL = (
    "SELECT COUNT(*) FROM customer c, orders o WHERE c.c_id = o.c_id"
)


@pytest.fixture(scope="module")
def served_deepdb():
    database = build_customer_orders(n_customers=600, seed=0)
    return DeepDB.learn(database, EnsembleConfig(sample_size=5_000))


def gather_on(async_db, coroutines):
    async def scenario():
        return await asyncio.gather(*coroutines(async_db), return_exceptions=True)

    return asyncio.run(scenario())


class TestCoalescedEquivalence:
    def test_mixed_kinds_coalesce_into_one_flush_and_match_serial(
        self, served_deepdb
    ):
        """The ISSUE's property test: N concurrent requests of mixed
        kinds in ONE flush return answers identical to serial calls."""
        deepdb = served_deepdb
        serial_cards = [deepdb.cardinality(sql) for sql in CARDINALITY_SQLS]
        serial_answers = [deepdb.approximate(sql) for sql in APPROXIMATE_SQLS]
        serial_plan, serial_cost, _ = deepdb.plan(PLAN_SQL)

        total = len(CARDINALITY_SQLS) + len(APPROXIMATE_SQLS) + 1
        async_db = AsyncDeepDB(
            deepdb, max_batch_size=total, max_wait_ms=50, cache_size=0
        )
        results = gather_on(async_db, lambda adb: (
            [adb.cardinality(sql) for sql in CARDINALITY_SQLS]
            + [adb.approximate(sql) for sql in APPROXIMATE_SQLS]
            + [adb.plan(PLAN_SQL)]
        ))
        assert not any(isinstance(r, Exception) for r in results)
        cards = results[: len(CARDINALITY_SQLS)]
        answers = results[len(CARDINALITY_SQLS):-1]
        plan = results[-1]

        # The compiled kernels are batch-size invariant, so coalesced
        # answers are bit-identical to the serial scalar path.
        assert cards == serial_cards
        assert answers == serial_answers
        assert plan["plan"] == serial_plan.describe()
        assert plan["estimated_cost"] == serial_cost
        assert plan["batch_calls"] == 1

        stats = async_db.stats()["coalescers"]["default"]
        assert stats["flushes"] == 1  # every kind shared the flush
        assert stats["requests"] == total
        assert stats["max_occupancy"] == total

    def test_many_concurrent_clients_match_serial(self, served_deepdb):
        """Closed-loop clients over randomized predicates: every answer
        equals the serial path, while flushes stay well below requests."""
        deepdb = served_deepdb
        queries = {
            (client, round_):
                "SELECT COUNT(*) FROM customer WHERE "
                f"customer.age > {20 + 3 * client} AND "
                f"customer.age <= {60 + round_}"
            for client in range(12)
            for round_ in range(3)
        }
        serial = {key: deepdb.cardinality(sql) for key, sql in queries.items()}

        async_db = AsyncDeepDB(
            deepdb, max_batch_size=12, max_wait_ms=5, cache_size=0
        )
        answers = {}

        async def client(adb, c):
            for r in range(3):
                answers[c, r] = await adb.cardinality(queries[c, r])

        async def scenario():
            await asyncio.gather(*(client(async_db, c) for c in range(12)))

        asyncio.run(scenario())
        assert answers == serial
        stats = async_db.stats()["coalescers"]["default"]
        assert stats["requests"] == len(queries)
        assert stats["flushes"] <= len(queries) // 3  # real coalescing
        assert stats["mean_occupancy"] > 1.0

    def test_parse_error_fails_only_its_own_future(self, served_deepdb):
        async_db = AsyncDeepDB(
            served_deepdb, max_batch_size=3, max_wait_ms=50, cache_size=0
        )
        results = gather_on(async_db, lambda adb: [
            adb.cardinality(CARDINALITY_SQLS[0]),
            adb.cardinality("SELECT COUNT(*) FROM nowhere WHERE broken >"),
            adb.cardinality(CARDINALITY_SQLS[1]),
        ])
        assert results[0] == served_deepdb.cardinality(CARDINALITY_SQLS[0])
        assert isinstance(results[1], Exception)
        assert results[2] == served_deepdb.cardinality(CARDINALITY_SQLS[1])
        stats = async_db.stats()["coalescers"]["default"]
        assert stats["flushes"] == 1
        assert stats["failed_requests"] == 1

    def test_duplicate_requests_share_one_computation(self, served_deepdb):
        async_db = AsyncDeepDB(served_deepdb, max_batch_size=4, max_wait_ms=50)
        sql = CARDINALITY_SQLS[0]
        spaced = "  " + sql.replace(" WHERE ", "\n WHERE  ") + " ; "
        results = gather_on(async_db, lambda adb: [
            adb.cardinality(sql), adb.cardinality(spaced),
            adb.cardinality(sql), adb.cardinality(CARDINALITY_SQLS[2]),
        ])
        assert results[0] == results[1] == results[2]
        assert results[0] == served_deepdb.cardinality(sql)
        session = async_db.registry.session()
        # Normalization folded the three variants onto one cache entry.
        assert session.snapshot()["cache"]["entries"] == 2


class TestSessionAndRegistry:
    def test_normalize_sql(self):
        assert normalize_sql("  SELECT *\n  FROM t ;  ") == "SELECT * FROM t"
        assert normalize_sql("a  b") == normalize_sql("a\tb")
        # Whitespace inside string literals is VALUE, not formatting:
        # distinct literals must keep distinct cache keys.
        spaced = "SELECT COUNT(*)  FROM t WHERE t.r = 'EU  X'"
        assert normalize_sql(spaced).endswith("'EU  X'")
        assert normalize_sql(spaced) != normalize_sql(
            "SELECT COUNT(*) FROM t WHERE t.r = 'EU X'"
        )

    def test_cache_hit_returns_equal_private_copy(self, served_deepdb):
        registry = ModelRegistry()
        session = registry.register("orders_db", served_deepdb)
        first = session.run_one(Request("approximate", APPROXIMATE_SQLS[1]))
        before = session.snapshot()["cache"]
        second = session.run_one(Request("approximate", APPROXIMATE_SQLS[1]))
        assert second == first  # cached: bit-identical values
        assert second is not first  # ...but a private copy per client
        assert session.snapshot()["cache"]["hits"] == before["hits"] + 1
        # Mutating a handed-out answer must not corrupt the cache.
        second.clear()
        third = session.run_one(Request("approximate", APPROXIMATE_SQLS[1]))
        assert third == first

    def test_registry_routes_by_name(self, served_deepdb):
        second = DeepDB.learn(
            build_customer_orders(n_customers=200, seed=7),
            EnsembleConfig(sample_size=2_000, single_tables_only=True),
        )
        registry = ModelRegistry()
        registry.register("a", served_deepdb)
        registry.register("b", second)
        assert registry.names() == ["a", "b"]
        assert registry.session("a").name == "a"
        with pytest.raises(LookupError, match="name one of"):
            registry.session(None)  # ambiguous with two models
        with pytest.raises(LookupError, match="registered"):
            registry.session("missing")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", second)  # name collision
        with pytest.raises(ValueError, match="snapshot isolation"):
            # One session per model: a second session over the same
            # ensemble would bypass the first one's read-write lock.
            registry.register("alias", served_deepdb)
        registry.unregister("b")
        assert registry.session(None).name == "a"  # unambiguous again

    def test_admission_control_rejects_beyond_cap(self, served_deepdb):
        async_db = AsyncDeepDB(
            served_deepdb, max_batch_size=64, max_wait_ms=100, max_inflight=2
        )

        async def scenario():
            tasks = [
                asyncio.ensure_future(
                    async_db.cardinality(CARDINALITY_SQLS[i])
                )
                for i in range(2)
            ]
            await asyncio.sleep(0)  # both admitted, waiting on the flush
            with pytest.raises(ServerOverloadedError):
                await async_db.cardinality(CARDINALITY_SQLS[2])
            await async_db.drain()
            return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        assert len(results) == 2
        admission = async_db.stats()["admission"]
        assert admission["admitted"] == 2
        assert admission["rejected"] == 1

    def test_read_write_lock_excludes_writers(self):
        lock = ReadWriteLock()
        log = []
        with lock.read():

            def write():
                with lock.write():
                    log.append("w")

            writer = threading.Thread(target=write)
            writer.start()
            writer.join(timeout=0.1)
            assert log == []  # writer blocked while the read is held
        writer.join(timeout=2)
        assert log == ["w"]  # and admitted once the reader left


class TestServingUnderUpdates:
    """Mutating tests: keep them after the equivalence tests."""

    def test_requests_during_insert_see_before_or_after(self, served_deepdb):
        deepdb = served_deepdb
        sql = "SELECT COUNT(*) FROM customer WHERE customer.age > 30"
        before = deepdb.cardinality(sql)
        async_db = AsyncDeepDB(
            deepdb, max_batch_size=4, max_wait_ms=1, cache_size=0
        )
        row = {"c_id": 600_000, "region": "EU", "age": 52}

        async def scenario():
            async def reader(i):
                await asyncio.sleep(0.002 * i)
                return await async_db.cardinality(sql)

            readers = [asyncio.ensure_future(reader(i)) for i in range(10)]
            await asyncio.sleep(0.008)
            await async_db.insert("customer", row)
            post_insert = await async_db.cardinality(sql)
            return await asyncio.gather(*readers), post_insert

        results, post_insert = asyncio.run(scenario())
        after = deepdb.cardinality(sql)
        assert after != before  # the insert is visible serially
        # Snapshot isolation: every concurrent read saw exactly the
        # model before or after the update, never a half-applied state.
        assert set(results) <= {before, after}
        assert post_insert == after  # a read after the insert sees it

    def test_insert_invalidates_cached_results_via_generation(
        self, served_deepdb
    ):
        deepdb = served_deepdb
        registry = ModelRegistry()
        session = registry.register("orders_db", deepdb)
        sql = "SELECT COUNT(*) FROM customer WHERE customer.age > 45"
        cached = session.run_one(Request("cardinality", sql))
        generation = deepdb.generation
        session.insert("customer", {"c_id": 600_001, "region": "EU", "age": 61})
        assert deepdb.generation > generation
        fresh = session.run_one(Request("cardinality", sql))
        assert fresh != cached  # recomputed on the updated model
        assert fresh == deepdb.cardinality(sql)
        assert session.snapshot()["cache"]["invalidations"] >= 1

    def test_generation_counter_is_the_compiled_cache_check(
        self, served_deepdb
    ):
        from repro.core import compiled

        rspn = served_deepdb.ensemble.rspns[0]
        first = compiled.compiled_for(rspn.root)
        assert compiled.compiled_for(rspn.root) is first  # cached
        generation = rspn.generation
        rspn.invalidate_compiled()
        assert rspn.generation == generation + 1
        assert served_deepdb.generation > 0
        second = compiled.compiled_for(rspn.root)
        assert second is not first  # stale entry replaced lazily
        assert second.generation == rspn.generation


class _RecordingFile:
    """A ``wfile`` that keeps every write it receives apart."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


def _detached_handler(path="/", body=b""):
    """A ``_Handler`` wired to in-memory files instead of a socket."""
    handler = object.__new__(_Handler)
    handler.request_version = "HTTP/1.1"
    handler.requestline = f"POST {path} HTTP/1.1"
    handler.command, handler.path = "POST", path
    handler.client_address = ("127.0.0.1", 0)
    handler.headers = {"Content-Length": str(len(body))}
    handler.rfile = io.BytesIO(body + b"NEXT")
    handler.wfile = _RecordingFile()
    return handler


class TestOneWriteResponses:
    """A response leaves in one write: two writes on a keep-alive
    socket make the body wait ~40 ms for the client's delayed ACK."""

    def _assert_single_write(self, handler, status, payload):
        assert len(handler.wfile.writes) == 1
        head, _, body = handler.wfile.writes[0].partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].startswith(b"HTTP/1.1 %d " % status)
        headers = dict(line.split(b": ", 1) for line in lines[1:])
        assert headers[b"Content-Type"] == b"application/json"
        assert int(headers[b"Content-Length"]) == len(body)
        assert json.loads(body) == payload

    def test_send_is_one_write(self):
        handler = _detached_handler()
        payload = {"value": 12.5, "kind": "cardinality"}
        handler._send(200, payload)
        self._assert_single_write(handler, 200, payload)

    def test_simple_request_gets_the_bare_body(self):
        """HTTP/0.9 has no status line or headers to buffer."""
        handler = _detached_handler()
        handler.request_version = "HTTP/0.9"
        handler._send(200, {"models": []})
        assert handler.wfile.writes == [b'{"models": []}']

    def test_unknown_post_drains_its_body_and_answers_in_one_write(self):
        handler = _detached_handler("/nope", b'{"sql": "SELECT 1"}')
        handler.do_POST()
        self._assert_single_write(
            handler, 404, {"error": "unknown endpoint '/nope'"}
        )
        assert handler.rfile.read() == b"NEXT"  # next request not eaten

    def test_keep_alive_requests_do_not_wait_out_a_delayed_ack(
        self, served_deepdb
    ):
        registry = ModelRegistry()
        registry.register("orders_db", served_deepdb)
        with start_server(registry) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=30)
            try:
                latencies = []
                for _ in range(50):
                    start = time.perf_counter()
                    connection.request("GET", "/models")
                    response = connection.getresponse()
                    body = response.read()
                    latencies.append(time.perf_counter() - start)
                    assert response.status == 200
                    assert json.loads(body) == {"models": ["orders_db"]}
            finally:
                connection.close()
        # The stall is ~44 ms per request; without it a /models round
        # trip is well under a millisecond of work.
        assert statistics.median(latencies) < 0.020


class TestHttpFrontEnd:
    """HTTP server round-trip (mutates the model via /update: last)."""

    def _post(self, url, path, body):
        request = urllib.request.Request(
            url + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))

    def _get(self, url, path):
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))

    def test_http_round_trip(self, served_deepdb):
        registry = ModelRegistry()
        registry.register("orders_db", served_deepdb)
        with start_server(registry) as server:
            url = server.url

            assert self._get(url, "/models") == {"models": ["orders_db"]}

            payload = self._post(url, "/query", {"sql": CARDINALITY_SQLS[0]})
            assert payload["value"] == served_deepdb.cardinality(
                CARDINALITY_SQLS[0]
            )

            grouped = self._post(url, "/query", {
                "sql": APPROXIMATE_SQLS[1], "kind": "approximate",
                "database": "orders_db",
            })
            serial = served_deepdb.approximate(APPROXIMATE_SQLS[1])
            assert {
                tuple(g["key"]): g["value"] for g in grouped["groups"]
            } == serial

            with pytest.raises(urllib.error.HTTPError) as bad_sql:
                self._post(url, "/query", {"sql": "SELECT broken FROM"})
            assert bad_sql.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as bad_model:
                self._post(url, "/query", {
                    "sql": CARDINALITY_SQLS[0], "database": "missing",
                })
            assert bad_model.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as bad_path:
                self._get(url, "/nope")
            assert bad_path.value.code == 404

            updated = self._post(url, "/update", {
                "op": "insert", "table": "customer",
                "row": {"c_id": 600_002, "region": "ASIA", "age": 28},
            })
            assert updated["ok"] is True
            assert updated["generation"] == served_deepdb.generation

            stats = self._get(url, "/stats")
            assert stats["endpoints"]["/query"]["requests"] == 4
            assert stats["endpoints"]["/query"]["errors"] == 2
            assert stats["endpoints"]["/update"]["requests"] == 1
            assert stats["serving"]["coalescers"]["orders_db"]["requests"] >= 2
            assert stats["serving"]["models"]["orders_db"]["cache"]["misses"] >= 2
