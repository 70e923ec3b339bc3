"""Command-line interface: train, persist, query and inspect ensembles.

The datasets are deterministic synthetic generators, so a persisted
ensemble plus the ``(dataset, scale, seed)`` triple fully reproduces a
session.  Typical flow::

    python -m repro.cli train   --dataset imdb --scale 0.05 --out model.rspn
    python -m repro.cli estimate --dataset imdb --scale 0.05 --model model.rspn \
        --sql "SELECT COUNT(*) FROM title WHERE title.production_year > 2005"
    python -m repro.cli query   --dataset imdb --scale 0.05 --model model.rspn \
        --sql "SELECT AVG(title.production_year) FROM title" --confidence 0.95
    python -m repro.cli plan    --dataset imdb --scale 0.05 --model model.rspn \
        --sql "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id"
    python -m repro.cli inspect --model model.rspn

Models persist in the mmap-able store format
(:mod:`repro.core.modelstore`; millisecond cold start).  ``models``
lists a store directory's catalog -- and verifies checksums with
``--verify`` -- without loading any model::

    python -m repro.cli models --store ./fleet --verify

``estimate`` and ``query`` accept ``--sql`` several times; multi-query
invocations are answered through the batched compiled-inference path
(one bottom-up sweep per RSPN for the whole batch).

The serving pair exposes the same model to concurrent clients::

    python -m repro.cli serve  --dataset imdb --scale 0.05 --model model.rspn \
        --port 8080
    python -m repro.cli client --url http://127.0.0.1:8080 \
        --sql "SELECT COUNT(*) FROM title WHERE title.production_year > 2005" \
        --sql "SELECT COUNT(*) FROM title WHERE title.kind_id = 0" --stats

``ingest`` applies inserts/deletes (a JSONL file, stdin, or a synthetic
resample of an existing table) in ``--batch-size`` chunks, each one
copy-on-write staged commit with one generation bump per touched RSPN::

    python -m repro.cli ingest --dataset imdb --scale 0.05 \
        --model model.rspn --synthetic 5000 --table title

``serve`` starts the HTTP/JSON front-end of :mod:`repro.serving`:
concurrent client queries are coalesced into single batched estimator
calls (micro-batching) and ``GET /stats`` reports
latency/throughput/batch-occupancy.  Answers are not cached: every
update changes every answer, and the model generation is what the plan
cache and the compiled forms check.  ``client`` fires its ``--sql``
queries concurrently so a single invocation already exercises
coalescing.  One ``serve`` process serves one model, named by its
``--dataset``; it registers the store lazily and maps it in (mmap) on
the first query.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _add_dataset_arguments(parser):
    parser.add_argument(
        "--dataset", required=True, choices=("imdb", "ssb", "flights"),
        help="synthetic dataset generator to use",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale factor (default 0.05)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")


def _build_database(args):
    from repro.datasets import flights, imdb, ssb

    generator = {"imdb": imdb, "ssb": ssb, "flights": flights}[args.dataset]
    return generator.generate(scale=args.scale, seed=args.seed)


def _load_model(args, database):
    from repro.deepdb import DeepDB

    return DeepDB.load(args.model, database)


def _cmd_train(args, out):
    from repro.core.ensemble import EnsembleConfig
    from repro.deepdb import DeepDB

    database = _build_database(args)
    print(f"dataset: {database}", file=out)
    config = EnsembleConfig(
        sample_size=args.sample_size,
        budget_factor=args.budget_factor,
        single_tables_only=args.single_tables,
    )
    start = time.perf_counter()
    deepdb = DeepDB.learn(database, config)
    seconds = time.perf_counter() - start
    print(deepdb.describe(), file=out)
    print(f"training took {seconds:.1f}s", file=out)
    deepdb.save(args.out)
    print(f"saved ensemble to {args.out}", file=out)
    return 0


def _cmd_models(args, out):
    import os

    from repro.core.modelstore import (
        ModelStoreError,
        is_store_file,
        open_store,
        read_catalog,
    )

    if os.path.isdir(args.store):
        paths = sorted(
            os.path.join(args.store, entry)
            for entry in os.listdir(args.store)
            if is_store_file(os.path.join(args.store, entry))
        )
        if not paths:
            print(f"no model store files under {args.store}", file=out)
            return 0
    else:
        paths = [args.store]
    failures = 0
    for path in paths:
        try:
            catalog = read_catalog(path)
        except ModelStoreError as error:
            print(f"{path}: CORRUPT: {error}", file=out)
            failures += 1
            continue
        name = catalog["name"] or "-"
        print(
            f"{path}: name={name} v{catalog['version']}, "
            f"{len(catalog['rspns'])} RSPN(s), "
            f"{catalog['blob_bytes']:,} blob bytes "
            f"({catalog['file_bytes']:,} on disk)",
            file=out,
        )
        for rspn in catalog["rspns"]:
            print(
                f"  - {'/'.join(rspn['tables'])}: "
                f"{rspn['full_size']:,.0f} rows, "
                f"{rspn['blob_bytes']:,} bytes, "
                f"plan {str(rspn['plan_signature'])[:16]}",
                file=out,
            )
        if args.verify:
            try:
                with open_store(path) as store:
                    n_blobs = store.verify()
                print(f"  checksums OK ({n_blobs} blob(s))", file=out)
            except ModelStoreError as error:
                print(f"  CORRUPT: {error}", file=out)
                failures += 1
    return 1 if failures else 0


def _cmd_estimate(args, out):
    from repro.engine.executor import Executor
    from repro.evaluation.metrics import q_error

    database = _build_database(args)
    deepdb = _load_model(args, database)
    try:
        return _run_estimate(args, out, database, deepdb, Executor, q_error)
    finally:
        deepdb.close()


def _run_estimate(args, out, database, deepdb, Executor, q_error):
    queries = [deepdb.parse(sql) for sql in args.sql]
    if len(queries) > 1:
        # Batched path: all expectation sub-queries share one compiled
        # bottom-up sweep per RSPN.
        start = time.perf_counter()
        estimates = deepdb.cardinality_batch(queries)
        latency = time.perf_counter() - start
        for sql, estimate in zip(args.sql, estimates):
            print(f"{sql}", file=out)
            print(f"  estimated cardinality: {estimate:,.0f}", file=out)
        print(f"batch of {len(queries)}: {latency * 1e3:.2f} ms total "
              f"({latency * 1e3 / len(queries):.2f} ms/query)", file=out)
        if args.truth:
            executor = Executor(database)
            for sql, query, estimate in zip(args.sql, queries, estimates):
                truth = executor.cardinality(query)
                print(f"{sql}: truth {truth:,.0f}, "
                      f"q-error {q_error(truth, estimate):.3f}", file=out)
        if args.explain:
            for sql, query in zip(args.sql, queries):
                print(deepdb.compiler.explain(query), file=out)
        return 0
    query = queries[0]
    start = time.perf_counter()
    estimate = deepdb.cardinality(query)
    latency = time.perf_counter() - start
    print(f"estimated cardinality: {estimate:,.0f}  ({latency * 1e3:.2f} ms)",
          file=out)
    if args.truth:
        truth = Executor(database).cardinality(query)
        print(f"true cardinality     : {truth:,.0f}", file=out)
        print(f"q-error              : {q_error(truth, estimate):.3f}", file=out)
    if args.explain:
        print(deepdb.compiler.explain(query), file=out)
    return 0


def _print_answer(answer, confidence, out):
    if isinstance(answer, dict):
        for group, (value, (low, high)) in sorted(answer.items()):
            key = ", ".join(str(k) for k in group)
            print(f"{key}: {value:,.2f}  "
                  f"[{low:,.2f}, {high:,.2f}]", file=out)
    else:
        value, (low, high) = answer
        print(f"answer: {value:,.2f}  "
              f"{confidence:.0%} CI [{low:,.2f}, {high:,.2f}]", file=out)


def _cmd_query(args, out):
    database = _build_database(args)
    deepdb = _load_model(args, database)
    try:
        return _run_query(args, out, deepdb)
    finally:
        deepdb.close()


def _run_query(args, out, deepdb):
    queries = [deepdb.parse(sql) for sql in args.sql]
    if len(queries) > 1:
        start = time.perf_counter()
        answers = deepdb.compiler.answer_with_confidence_batch(
            queries, confidence=args.confidence
        )
        latency = time.perf_counter() - start
        for sql, answer in zip(args.sql, answers):
            print(f"{sql}", file=out)
            if isinstance(answer, dict):
                for group, (value, (low, high)) in sorted(answer.items()):
                    key = ", ".join(str(k) for k in group)
                    print(f"  {key}: {value:,.2f}  [{low:,.2f}, {high:,.2f}]",
                          file=out)
            else:
                value, (low, high) = answer
                print(f"  answer: {value:,.2f}  {args.confidence:.0%} CI "
                      f"[{low:,.2f}, {high:,.2f}]", file=out)
        print(f"batch of {len(queries)}: {latency * 1e3:.2f} ms total "
              f"({latency * 1e3 / len(queries):.2f} ms/query)", file=out)
        return 0
    query = queries[0]
    start = time.perf_counter()
    answer = deepdb.approximate_with_confidence(query, confidence=args.confidence)
    latency = time.perf_counter() - start
    _print_answer(answer, args.confidence, out)
    print(f"latency: {latency * 1e3:.2f} ms", file=out)
    return 0


def _cmd_plan(args, out):
    from repro.optimizer.cost import intermediate_sizes

    database = _build_database(args)
    deepdb = _load_model(args, database)
    try:
        return _run_plan(args, out, database, deepdb, intermediate_sizes)
    finally:
        deepdb.close()


def _run_plan(args, out, database, deepdb, intermediate_sizes):
    query = deepdb.parse(args.sql)
    start = time.perf_counter()
    plan, cost, oracle = deepdb.plan(query, linear=args.left_deep)
    latency = time.perf_counter() - start
    print(f"plan : {plan.describe()}", file=out)
    print(f"C_out: {cost:,.0f} (estimated)", file=out)
    print(f"enumeration: {latency * 1e3:.2f} ms, "
          f"{oracle.calls} sub-queries in {oracle.batch_calls} batched "
          "estimator call(s)", file=out)
    print("estimated intermediates:", file=out)
    for tables, size in intermediate_sizes(plan, oracle):
        print(f"  {' ⨝ '.join(tables):<50s} {size:>14,.0f}", file=out)
    if args.execute:
        outcome = deepdb.optimize_and_execute(
            query, linear=args.left_deep,
            replan_threshold=args.replan_threshold,
        )
        execution = outcome.execution
        print("realised intermediates:", file=out)
        for tables, size in execution.intermediates:
            print(f"  {' ⨝ '.join(tables):<50s} {size:>14,.0f}", file=out)
        realised = execution.total_intermediate_rows
        print(f"C_out: {realised:,.0f} (realised, "
              f"{outcome.estimation_gap:.2f}x the estimate)", file=out)
        if outcome.replans:
            print(f"replans: {outcome.replans} (threshold "
                  f"{args.replan_threshold:g}x)", file=out)
    return 0


def _cmd_serve(args, out):
    from repro.serving import ModelRegistry, ServingServer

    database = _build_database(args)
    name = args.dataset
    registry = ModelRegistry()
    catalog = registry.register_store(name, args.model, database)
    print(f"store-backed model {name!r}: {catalog['blob_bytes']:,} blob "
          "bytes, maps in (mmap) on first query", file=out)
    server = ServingServer(
        registry,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        max_inflight=args.max_inflight,
        drift_interval_s=args.drift_interval or None,
    )
    print(f"serving model {name!r} at {server.url}", file=out)
    print("endpoints: POST /query, POST /update, GET /stats", file=out)
    if args.drift_interval:
        print(f"drift monitor: re-validating column splits every "
              f"{args.drift_interval:g}s; drifted RSPNs are shadow-rebuilt "
              "off-lock and swapped in atomically", file=out)
    print(f"coalescing: batches of up to {args.max_batch_size} every "
          f"{args.max_wait_ms:g} ms; admission cap {args.max_inflight} "
          "in-flight", file=out)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=out)
    finally:
        server.close()
        registry.close()
    return 0


def _synthetic_ops(database, table_name, count, seed, delete_fraction=0.0):
    """Sample raw-value update ops from an existing table.

    Rows are drawn (with replacement) from the live table and decoded
    back to raw values, so synthetic streams exercise the same
    vocabulary-encoding path real clients hit.
    """
    import numpy as np

    table = database.table(table_name)
    if table.n_rows == 0:
        raise ValueError(f"table {table_name!r} is empty; nothing to sample")
    columns = [a.name for a in table.schema.non_key_attributes]
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, table.n_rows, size=int(count))
    ops = []
    for pick in picks:
        row = {
            c: table.decode_value(c, table.columns[c][int(pick)])
            for c in columns
        }
        op = (
            "delete"
            if delete_fraction and rng.random() < delete_fraction
            else "insert"
        )
        ops.append((op, table_name, row))
    return ops


def _ops_from_jsonl(handle):
    """Parse ``{"op", "table", "row"}`` JSONL lines into
    ``(op, table, row)`` triples."""
    ops = []
    for number, line in enumerate(handle, 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            raise ValueError(f"ops line {number} is not valid JSON") from None
        if not isinstance(entry, dict) or "table" not in entry \
                or not isinstance(entry.get("row"), dict):
            raise ValueError(
                f"ops line {number}: need an object with 'table' and 'row'"
            )
        ops.append((entry.get("op", "insert"), entry["table"], entry["row"]))
    return ops


def _cmd_ingest(args, out):
    if bool(args.ops) == bool(args.synthetic):
        print("error: pass exactly one of --ops / --synthetic", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    database = _build_database(args)
    deepdb = _load_model(args, database)
    try:
        if args.synthetic:
            table = args.table or database.table_names()[0]
            ops = _synthetic_ops(
                database, table, args.synthetic, args.seed,
                delete_fraction=args.delete_fraction,
            )
        elif args.ops == "-":
            ops = _ops_from_jsonl(sys.stdin)
        else:
            with open(args.ops) as handle:
                ops = _ops_from_jsonl(handle)
        if not ops:
            print("no ops to ingest", file=out)
            return 0
        generation_before = deepdb.generation
        applied = rejected = batches = 0
        start = time.perf_counter()
        for first in range(0, len(ops), args.batch_size):
            results = deepdb.apply_update_batch(
                ops[first:first + args.batch_size]
            )
            failed = sum(isinstance(r, Exception) for r in results)
            rejected += failed
            applied += len(results) - failed
            batches += 1
        elapsed = time.perf_counter() - start
        generation_after = deepdb.generation
        rate = applied / elapsed if elapsed > 0 else 0.0
        print(f"ingested {applied:,} update(s) ({rejected} rejected) in "
              f"{elapsed:.2f}s ({rate:,.0f} updates/s)", file=out)
        print(f"batches: {batches} of up to {args.batch_size} op(s)",
              file=out)
        print(f"generation: {generation_before} -> {generation_after} "
              f"({generation_after - generation_before} bump(s) for "
              f"{applied:,} tuple(s) -- one per batch per touched RSPN, "
              "not one per tuple)", file=out)
        return 1 if rejected else 0
    finally:
        deepdb.close()


def _http_json(url, payload=None, timeout=60.0):
    import urllib.request

    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _cmd_client(args, out):
    import concurrent.futures
    import urllib.error

    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    if args.concurrency < 1:
        print("error: --concurrency must be >= 1", file=sys.stderr)
        return 2
    url = args.url.rstrip("/")
    bodies = [
        {"sql": sql, "kind": args.kind}
        for sql in args.sql
        for _ in range(args.repeat)
    ]

    def one(body):
        try:
            return _http_json(url + "/query", body, timeout=args.timeout)
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except ValueError:
                pass
            return {"error": f"HTTP {error.code}: {detail}"}
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            return {"error": f"transport: {error}"}

    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=min(len(bodies), args.concurrency)
    ) as pool:
        payloads = list(pool.map(one, bodies))
    elapsed = time.perf_counter() - start

    failed = 0
    for body, payload in zip(bodies, payloads):
        if "error" in payload:
            failed += 1
            print(f"{body['sql']}\n  error: {payload['error']}", file=out)
        elif "groups" in payload:
            print(f"{body['sql']}", file=out)
            for group in payload["groups"]:
                key = ", ".join(str(k) for k in group["key"])
                print(f"  {key}: {group['value']:,.2f}", file=out)
        else:
            print(f"{body['sql']}\n  {args.kind}: {payload['value']}", file=out)
    print(f"{len(bodies)} requests in {elapsed * 1e3:.1f} ms "
          f"({len(bodies) / elapsed:,.0f} req/s, {failed} failed)", file=out)
    if args.stats:
        stats = _http_json(url + "/stats", timeout=args.timeout)
        for name, coalescer in stats["serving"]["coalescers"].items():
            print(f"server coalescer {name!r}: "
                  f"{coalescer['requests']} requests in "
                  f"{coalescer['flushes']} flushes "
                  f"(mean occupancy {coalescer['mean_occupancy']:.1f}, "
                  f"max {coalescer['max_occupancy']})", file=out)
        for path, endpoint in stats["endpoints"].items():
            print(f"server endpoint {path}: {endpoint['requests']} requests, "
                  f"mean {endpoint['mean_latency_ms']:.2f} ms, "
                  f"{endpoint['throughput_rps']:.1f} req/s", file=out)
    return 1 if failed else 0


def _cmd_inspect(args, out):
    from repro.core.modelstore import open_store

    with open_store(args.model) as store:
        catalog = store.catalog()
        ensemble = store.load_ensemble(None)
        print(f"model store with {len(ensemble.rspns)} RSPNs "
              f"(v{catalog['version']}, {catalog['blob_bytes']:,} blob bytes, "
              f"trained in {ensemble.training_seconds:.1f}s)", file=out)
        for rspn, entry in zip(ensemble.rspns, catalog["rspns"]):
            nodes = rspn.node_counts()
            print(
                f"  - {'/'.join(sorted(rspn.tables))}: "
                f"{rspn.full_size:,.0f} rows, "
                f"{len(rspn.column_names)} columns, "
                f"{nodes['sum']} sum / {nodes['product']} product / "
                f"{nodes['leaf']} leaf nodes, "
                f"{entry['blob_bytes']:,} bytes, "
                f"plan {str(entry['plan_signature'])[:16]}",
                file=out,
            )
        if args.tree:
            from repro.core.describe import render_tree

            for rspn in ensemble.rspns:
                print(file=out)
                print(render_tree(rspn, max_depth=args.tree_depth), file=out)
        # Drop the tree views before the store closes so the unmap is
        # immediate rather than deferred to garbage collection.
        rspn = entry = ensemble = None
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepDB reproduction: RSPN ensembles from the command line.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="learn and persist an ensemble")
    _add_dataset_arguments(train)
    train.add_argument("--out", required=True, help="output model path")
    train.add_argument("--sample-size", type=int, default=25_000)
    train.add_argument("--budget-factor", type=float, default=0.0)
    train.add_argument("--single-tables", action="store_true",
                       help="the paper's cheap single-table-only strategy")
    train.set_defaults(handler=_cmd_train)

    models = commands.add_parser(
        "models", help="list a model store file or fleet directory"
    )
    models.add_argument("--store", required=True,
                        help="a store file, or a directory of store files")
    models.add_argument("--verify", action="store_true",
                        help="validate every blob checksum (reads the full "
                             "file; models are still never loaded)")
    models.set_defaults(handler=_cmd_models)

    estimate = commands.add_parser(
        "estimate", help="cardinality estimate for a SQL query"
    )
    _add_dataset_arguments(estimate)
    estimate.add_argument("--model", required=True)
    estimate.add_argument("--sql", required=True, action="append",
                          help="SQL query; repeat the flag to estimate a "
                               "whole batch in one compiled sweep")
    estimate.add_argument("--truth", action="store_true",
                          help="also run the exact executor")
    estimate.add_argument("--explain", action="store_true",
                          help="print the probabilistic query compilation")
    estimate.set_defaults(handler=_cmd_estimate)

    query = commands.add_parser(
        "query", help="approximate answer with confidence interval"
    )
    _add_dataset_arguments(query)
    query.add_argument("--model", required=True)
    query.add_argument("--sql", required=True, action="append",
                       help="SQL query; repeat the flag to answer a whole "
                            "batch in one compiled sweep")
    query.add_argument("--confidence", type=float, default=0.95)
    query.set_defaults(handler=_cmd_query)

    plan = commands.add_parser(
        "plan", help="join order chosen with DeepDB cardinalities"
    )
    _add_dataset_arguments(plan)
    plan.add_argument("--model", required=True)
    plan.add_argument("--sql", required=True)
    plan.add_argument("--left-deep", action="store_true",
                      help="restrict the enumeration to left-deep plans")
    plan.add_argument("--execute", action="store_true",
                      help="run the chosen plan with real hash joins and "
                           "report the realised intermediate sizes")
    plan.add_argument("--replan-threshold", type=float, default=16.0,
                      help="re-optimise mid-execution when a join "
                           "materialises more than this multiple of its "
                           "estimate (default 16; inf disables)")
    plan.set_defaults(handler=_cmd_plan)

    serve = commands.add_parser(
        "serve", help="HTTP serving front-end with micro-batching: one "
                      "process serves one model, named by its --dataset"
    )
    _add_dataset_arguments(serve)
    serve.add_argument("--model", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--max-batch-size", type=int, default=32,
                       help="coalescer flush size (default 32)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="coalescer flush deadline in ms (default 2)")
    serve.add_argument("--max-inflight", type=int, default=1024,
                       help="admission-control cap on in-flight requests")
    serve.add_argument("--drift-interval", type=float, default=0,
                       help="re-validate the loaded model's column splits "
                            "every N seconds in the background, shadow-"
                            "rebuilding drifted RSPNs (0 = off)")
    serve.set_defaults(handler=_cmd_serve)

    ingest = commands.add_parser(
        "ingest", help="apply inserts/deletes to a model in batches"
    )
    _add_dataset_arguments(ingest)
    ingest.add_argument("--model", required=True)
    ingest.add_argument("--ops", default=None,
                        help="JSONL file of {'op','table','row'} updates "
                             "('-' reads stdin)")
    ingest.add_argument("--synthetic", type=int, default=0,
                        help="generate N insert ops by resampling existing "
                             "rows of --table instead of reading --ops")
    ingest.add_argument("--table", default=None,
                        help="table for --synthetic (default: first table)")
    ingest.add_argument("--delete-fraction", type=float, default=0.0,
                        help="turn this fraction of synthetic ops into "
                             "deletes (default 0)")
    ingest.add_argument("--batch-size", type=int, default=256,
                        help="ops per staged commit (default 256)")
    ingest.set_defaults(handler=_cmd_ingest)

    client = commands.add_parser(
        "client", help="fire concurrent queries at a serving front-end"
    )
    client.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:8080")
    client.add_argument("--sql", required=True, action="append",
                        help="SQL query; repeat the flag to send several "
                             "concurrently (they coalesce server-side)")
    client.add_argument("--kind", default="cardinality",
                        choices=("cardinality", "approximate", "plan"))
    client.add_argument("--repeat", type=int, default=1,
                        help="send each query this many times")
    client.add_argument("--concurrency", type=int, default=32,
                        help="client thread cap (default 32)")
    client.add_argument("--timeout", type=float, default=60.0)
    client.add_argument("--stats", action="store_true",
                        help="print server-side coalescing/latency stats")
    client.set_defaults(handler=_cmd_client)

    inspect = commands.add_parser(
        "inspect", help="summarise a persisted ensemble file"
    )
    inspect.add_argument("--model", required=True)
    inspect.add_argument("--tree", action="store_true",
                         help="render each RSPN's structure as a tree")
    inspect.add_argument("--tree-depth", type=int, default=3,
                         help="tree rendering depth (default 3)")
    inspect.set_defaults(handler=_cmd_inspect)
    return parser


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.core.modelstore import ModelStoreError

    try:
        return args.handler(args, out)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (SyntaxError, ValueError, KeyError, ModelStoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
