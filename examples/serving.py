"""Serving: coalesce concurrent clients into batched model calls.

Starts the in-process async front-end over a learned model, fires
concurrent closed-loop clients at it, and shows that

- temporally-close requests are micro-batched into single
  ``cardinality_batch`` calls (batch occupancy stats),
- coalesced answers are identical to serial ``DeepDB.cardinality``
  calls,
- an ``insert`` moves the model's generation counter and the next
  read sees the new value -- answers are never cached, and the
  generation is what the plan cache and the compiled forms check,
- the same model is reachable over HTTP (``repro serve`` wraps this):
  one process serves one model, and a request naming another is a 400.

Run with: ``PYTHONPATH=src python examples/serving.py``
"""

import asyncio
import json
import urllib.error
import urllib.request

from repro import DeepDB
from repro.core.ensemble import EnsembleConfig
from repro.datasets import flights
from repro.serving import AsyncDeepDB, ModelRegistry, start_server

N_CLIENTS = 16
ROUNDS = 4


def build_queries():
    """A distinct query per (client, round): pure coalescing."""
    return {
        (client, round_): (
            "SELECT COUNT(*) FROM flights "
            f"WHERE flights.distance > {200 + 37 * client} "
            f"AND flights.dep_delay <= {5 * (round_ + 1)}"
        )
        for client in range(N_CLIENTS)
        for round_ in range(ROUNDS)
    }


async def closed_loop_client(async_db, client, queries, answers):
    """One client: send a query, await the answer, send the next."""
    for round_ in range(ROUNDS):
        answers[client, round_] = await async_db.cardinality(
            queries[client, round_]
        )


async def serve_concurrent_clients(deepdb, queries):
    async_db = AsyncDeepDB(deepdb, max_batch_size=N_CLIENTS, max_wait_ms=2.0)
    answers = {}
    await asyncio.gather(
        *(closed_loop_client(async_db, c, queries, answers)
          for c in range(N_CLIENTS))
    )
    return async_db, answers


def main():
    print("Learning a flights model (offline phase)...")
    database = flights.generate(scale=0.05, seed=0)
    deepdb = DeepDB.learn(database, EnsembleConfig(sample_size=10_000))
    print(f"  {database}")

    queries = build_queries()
    print(f"\n{N_CLIENTS} concurrent closed-loop clients x {ROUNDS} rounds...")
    async_db, answers = asyncio.run(serve_concurrent_clients(deepdb, queries))

    serial = {key: deepdb.cardinality(sql) for key, sql in queries.items()}
    agree = all(serial[key] == answers[key] for key in queries)
    print(f"  coalesced answers identical to serial calls: {agree}")

    stats = async_db.stats()
    coalescer = stats["coalescers"]["default"]
    print("  batch occupancy: "
          f"{coalescer['requests']} requests in {coalescer['flushes']} "
          f"flushes (mean {coalescer['mean_occupancy']:.1f}, "
          f"max {coalescer['max_occupancy']})")

    print("\nAn insert moves the generation; the next read sees it...")
    session = async_db.registry.session()
    sql = queries[0, 0]
    before = asyncio.run(async_db.cardinality(sql))
    generation = deepdb.generation
    session.insert("flights", {"f_id": 10**6, "distance": 5000.0, "dep_delay": 0.0})
    print(f"  insert moved the generation counter: "
          f"{deepdb.generation != generation}")
    after = asyncio.run(async_db.cardinality(sql))
    print(f"  next read answers from the updated model: "
          f"{before:,.1f} -> {after:,.1f} "
          f"(== serial: {after == deepdb.cardinality(sql)})")

    print("\nThe same model over HTTP (what `repro serve` runs)...")
    registry = ModelRegistry()
    registry.register("flights", deepdb)
    with start_server(registry) as server:
        def post_query(body):
            request = urllib.request.Request(
                server.url + "/query", json.dumps(body).encode(),
                {"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read())

        payload = post_query({"sql": sql, "database": "flights"})
        print(f"  POST /query -> {payload['value']:,.0f} "
              f"({payload['latency_ms']:.1f} ms)")
        try:
            post_query({"sql": sql, "database": "imdb"})
        except urllib.error.HTTPError as refused:
            print(f"  POST /query naming another model -> HTTP {refused.code}")
            refused.close()
        served = json.loads(urllib.request.urlopen(server.url + "/stats").read())
        print(f"  GET /stats -> endpoints {sorted(served['endpoints'])}")


if __name__ == "__main__":
    main()
