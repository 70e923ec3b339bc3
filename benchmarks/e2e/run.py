#!/usr/bin/env python3
"""The repo's end-to-end, layer-attributed benchmark (see README.md).

    python3 benchmarks/e2e/run.py --workload job_light_http --seed 1 \\
        --seconds 10 --trace 0

One run = set-up (dataset, ``learn``, store write, server ready), an
untimed warm-up, one measured window, and a check of every answer.  With
``--trace 0`` the window drives a ``repro.cli serve`` subprocess and the
end-to-end metrics are printed; with ``--trace 1`` the server runs
in-process behind benchmark-owned timing wrappers and the per-layer
metrics are printed.  The last stdout line is the result object the
driver reads; the line before it is the full record (host block, sample
counts, what this host cannot show).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import harness
import stats

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

# End-to-end metrics only one workload has.  The driver wants every
# BENCHMARK.json end-to-end metric from every workload, so these ride in
# the record line of ``ingest_mixed_http`` and are gated by ``--repeat``.
RECORD_ONLY = {
    "update_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.20},
    "update_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "update_ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.20},
}

WARMUP_S = 2.0
TRACE_WARMUP_S = 1.0
UNTRACED_SHARE = 0.3   # of --seconds, in a --trace 1 run
VERIFY_BUDGET_S = 2.5  # recomputing flights answers costs what serving them did
HOT_SET = 32
ACCURACY_QUERIES = 200  # p95 needs >= 10 samples beyond it
OPS_PER_UPDATE = 64

# ``per_s`` sizes the pre-generated request pool: that many requests per
# second of window (several times today's rate, so a faster server still
# never sees a text twice); a window whose pool runs dry ends early.
WORKLOADS = {
    "job_light_http": {
        "dataset": "imdb", "scale": 0.05, "quick_scale": 0.01,
        "kind": "cardinality", "tables": (2, 3, 4, 5, 6), "per_s": 240,
        "warm": 300,
    },
    "flights_aqp_http": {
        "dataset": "flights", "scale": 0.1, "quick_scale": 0.02,
        "kind": "approximate", "per_s": 100, "warm": 200,
    },
    "optimizer_inproc": {
        "dataset": "imdb", "scale": 0.05, "quick_scale": 0.01,
        "tables": (4, 5, 5, 6), "per_s": 240, "warm": 300,
    },
    "ingest_mixed_http": {
        "dataset": "imdb", "scale": 0.05, "quick_scale": 0.01,
        "kind": "cardinality", "tables": (2, 3, 4, 5, 6), "per_s": 40,
        "warm": 40,
    },
}
PROBE = {
    "imdb": "SELECT COUNT(*) FROM title",
    "flights": "SELECT COUNT(*) FROM flights",
}


class CheckFailed(RuntimeError):
    """The run cannot produce a trustworthy record (renderer mismatch,
    leaked shared-memory segment, missing metric): exit non-zero, print
    no result."""


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Learned:
    """A generated database and its freshly trained store file."""

    def __init__(self, dataset, scale, work):
        from repro.deepdb import DeepDB
        from workloads import DATA_SEED

        self.store_path = Path(work) / f"{dataset}.rspn"
        generator = importlib.import_module(f"repro.datasets.{dataset}")
        start = time.perf_counter()
        self.database = generator.generate(scale=scale, seed=DATA_SEED)
        self.generate_s = time.perf_counter() - start
        start = time.perf_counter()
        deepdb = DeepDB.learn(self.database)
        self.learn_s = time.perf_counter() - start
        start = time.perf_counter()
        deepdb.save(self.store_path)
        self.write_s = time.perf_counter() - start
        self.nodes = sum(
            sum(rspn.node_counts().values()) for rspn in deepdb.ensemble.rspns
        )
        self.model_bytes = self.store_path.stat().st_size


class Run:
    """State of one workload run; ``learned`` lets ``--quick`` share one
    trained store between the workloads of a dataset."""

    def __init__(self, workload, seed, seconds, trace, quick, work,
                 learned=None, trace_out=None):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.work = trace, Path(work)
        self.trace_out = trace_out
        self.spec = WORKLOADS[workload]
        self.dataset = self.spec["dataset"]
        self.scale = self.spec["quick_scale" if quick else "scale"]
        self.warmup_s = 0.5 if quick else (TRACE_WARMUP_S if trace else WARMUP_S)
        self.pool = math.ceil(self.spec["per_s"] * seconds)
        self.accuracy_queries = 50 if quick else ACCURACY_QUERIES
        self.learned = learned
        self.server = self.ref = self.sut = None
        self.metrics = {}       # name -> value
        self.samples = {}       # name -> sample count behind a timing
        self.record_only = {}
        self.attempted = self.failed = self.verified = 0
        self.misses = []        # why the first few failures failed
        self.highest_percentile = {}  # per timing, by the ten-beyond rule
        self.ungated = {}       # reported in the record, never compared

    # -- set-up: what a user waits for before the first answer ---------
    def set_up(self, with_server):
        from repro.deepdb import DeepDB

        start = time.perf_counter()
        reused = self.learned is not None
        if not reused:
            self.learned = Learned(self.dataset, self.scale, self.work)
        learned = self.learned
        self.database = learned.database
        if with_server:
            self.server = harness.ServerProcess(
                self.dataset, self.scale, 0, learned.store_path,
                self.work / f"{self.workload}.server.log",
            )
            self.server.wait_ready(PROBE[self.dataset])
        else:
            self.sut = DeepDB.load(learned.store_path, self.database)
            self.sut.cardinality(PROBE[self.dataset])
        setup_s = time.perf_counter() - start
        if reused:  # --quick: count the shared training as if it were ours
            setup_s += learned.generate_s + learned.learn_s + learned.write_s
        self.metrics["setup_s"] = setup_s
        self.metrics["model_bytes"] = learned.model_bytes
        # The reference model: the same store, opened in this process.
        start = time.perf_counter()
        self.ref = DeepDB.load(
            learned.store_path, self.database, plan_cache=False
        )
        self.ref.cardinality(PROBE[self.dataset])
        self.layer("core.modelstore.cold_start_ms",
                   (time.perf_counter() - start) * 1e3)
        self.layer("core.ensemble.learn_s", learned.learn_s)
        self.layer("core.ensemble.nodes", learned.nodes)
        self.layer("core.modelstore.write_s", learned.write_s)
        self.layer("datasets.generate_s", learned.generate_s)

    def check(self, ok, why):
        """Count one failed, refused, timed-out or wrong answer."""
        if not ok:
            self.failed += 1
            if len(self.misses) < 5:
                self.misses.append(why)

    def layer(self, name, value):
        if name not in PER_LAYER:
            raise KeyError(name)
        self.metrics[name] = value

    def stop_server(self):
        """Reap the server and keep its peak resident set."""
        server, self.server = self.server, None
        server.stop()
        self.metrics["peak_rss_mb"] = server.peak_rss_mb

    def latencies(self, prefix, samples):
        """``(p50, p90)`` of client-observed latencies in ms.  p90 is
        the highest percentile every workload's window supports (ten
        samples beyond it: reads beside writes complete about 110 times
        in 10 s); the count, the percentile this sample would support
        and the ungated p95 go into the record."""
        values = [s.ms for s in samples]
        self.samples[f"{prefix}_p50_ms"] = len(values)
        self.samples[f"{prefix}_p90_ms"] = len(values)
        self.highest_percentile[prefix] = stats.supported_percentile(len(values))
        self.ungated[f"{prefix}_p95_ms"] = stats.latency_percentile(values, 95.0)
        return (stats.latency_percentile(values, 50.0),
                stats.latency_percentile(values, 90.0))

    # -- accuracy: a fixed sample against the exact engine -------------
    def accuracy(self):
        import numpy as np

        import sqlgen
        import workloads as W
        from repro.engine.executor import Executor
        from repro.evaluation.metrics import average_relative_error, q_error

        def average_q_error(truth, estimate):
            if not isinstance(truth, dict):
                return q_error(truth, estimate)
            known = {g: v for g, v in truth.items() if v is not None}
            return sum(
                q_error(value, estimate.get(group) or 0.0)
                for group, value in known.items()
            ) / len(known)

        rng = np.random.default_rng(W.ACCURACY_SEED)
        domains = W.Domains(self.database)
        if self.dataset == "imdb":
            def make(k):
                return W.imdb_query(rng, domains, k, (2, 3, 4, 5, 6))
        else:
            def make(k):
                return W.flights_query(
                    rng, domains, k, W.FLIGHTS_ACCURACY_GROUPINGS
                )
        # Keep drawing until the sample holds ACCURACY_QUERIES queries
        # with a non-empty true answer: an empty one has no error.
        executor = Executor(self.database)
        queries, truths, seen = [], [], set()
        while len(queries) < self.accuracy_queries:
            query = make(len(queries))
            text = sqlgen.render(query)
            if text in seen:
                continue
            seen.add(text)
            if len(seen) > 20 * self.accuracy_queries:
                raise CheckFailed("accuracy sample: too few non-empty answers")
            truth = executor.execute(query)
            if any(truth.values()) if isinstance(truth, dict) else truth:
                queries.append(query)
                truths.append(truth)
        if self.dataset == "imdb":
            estimates = self.ref.cardinality_batch(queries)
        else:
            estimates = self.ref.approximate_batch(queries)
        for name, error in (("qerror", average_q_error),
                            ("rel_error", average_relative_error)):
            values = list(map(error, truths, estimates))
            self.metrics[f"{name}_median"] = stats.median(values)
            self.metrics[f"{name}_p95"] = stats.percentile(values, 95.0)
            self.samples[f"{name}_median"] = len(values)
            self.samples[f"{name}_p95"] = len(values)


def checked_texts(ref, queries, texts):
    """Abort unless every rendered text parses back to its query and
    estimates the same cardinality.  Returns the estimates by text."""
    by_text = [float(v) for v in ref.cardinality_batch(texts)]
    by_query = [float(v) for v in ref.cardinality_batch(queries)]
    for query, text, a, b in zip(queries, texts, by_text, by_query):
        if a != b or ref.parse(text) != query:
            raise CheckFailed(f"sqlgen mismatch on {text!r}: {a} vs {b}")
    return by_text


def query_inputs(run, count):
    """``count`` distinct queries of the run's workload, from its seed."""
    import numpy as np

    import sqlgen
    import workloads as W

    rng = np.random.default_rng(run.seed)
    domains = W.Domains(run.database)
    if run.dataset == "imdb":
        def make(k):
            return W.imdb_query(rng, domains, k, run.spec["tables"])
    else:
        def make(k):
            return W.flights_query(rng, domains, k)
    queries, texts = W.distinct_queries(make, count, sqlgen.render)
    return rng, texts, checked_texts(run.ref, queries, texts)


def query_body(sql, kind):
    return json.dumps({"sql": sql, "kind": kind}).encode()


# ----------------------------------------------------------------------
# The traced, in-process server
# ----------------------------------------------------------------------
class TracedServer:
    """The server of ``repro.cli serve`` (same defaults) inside this
    process, behind the timing wrappers; keeps what one traced window
    leaves behind."""

    def __init__(self, tracer, server):
        self.tracer, self.server = tracer, server
        self.address, self.stats = server.address, server.stats

    def begin_window(self):
        # No request is in flight between windows, so no span is open.
        self.tracer.spans.clear()
        self.tracer.intervals.clear()
        self.before = self.server.stats()

    def end_window(self):
        self.after = self.server.stats()
        self.spans = self.tracer.finished()
        self.intervals = list(self.tracer.intervals)


@contextmanager
def traced_server(run):
    from repro.serving import ModelRegistry, ServingServer
    from tracing import Tracer

    tracer = Tracer().install()
    registry = ModelRegistry()
    try:
        registry.register_store(
            run.dataset, run.learned.store_path, run.database, kernel="auto"
        )
        server = ServingServer(registry, host="127.0.0.1", port=0).start()
        try:
            yield TracedServer(tracer, server)
        finally:
            server.close()
    finally:
        registry.close()
        tracer.remove()
        if run.trace_out:
            tracer.write(run.trace_out)


def counter(snapshot, *path):
    for key in path:
        snapshot = (snapshot or {}).get(key)
    return snapshot or 0


def ratio(numerator, denominator):
    return numerator / denominator if denominator > 0 else 0.0


def serving_counters(run, before, after):
    """Per-layer counts from ``/stats`` deltas over the window."""
    model = ("serving", "models", run.dataset)

    def delta(*path):
        return counter(after, *path) - counter(before, *path)

    for layer, kind in (("serving.coalescer.mean_occupancy", "coalescers"),
                        ("serving.coalescer.update_mean_occupancy",
                         "update_coalescers")):
        run.layer(layer, ratio(
            delta("serving", kind, run.dataset, "requests"),
            delta("serving", kind, run.dataset, "flushes")))
    run.layer("serving.coalescer.timeout_flush_ratio", ratio(
        delta("serving", "coalescers", run.dataset, "timeout_flushes"),
        delta("serving", "coalescers", run.dataset, "flushes")))
    hits, misses = delta(*model, "cache", "hits"), delta(*model, "cache", "misses")
    run.layer("serving.session.cache_hit_ratio", ratio(hits, hits + misses))
    run.layer("serving.session.cache_invalidations",
              delta(*model, "cache", "invalidations"))
    run.layer("serving.server.http_errors", sum(
        delta("endpoints", path, "errors") for path in after["endpoints"]
    ))
    run.layer("core.updates.generation_bumps", delta(*model, "generation"))
    run.layer("core.kernels.sweep_ns_per_query", ratio(
        delta(*model, "kernel", "sweep_ns_total"),
        delta(*model, "kernel", "sweep_queries")))


def span_metrics(run, spans, root_name):
    """Per-layer self times (median ms per root span: one flush, one
    in-process ``plan`` call) and work counts from a traced window."""
    import tracing as T

    plain = [s[:4] for s in spans]
    by_root = stats.self_time_by_root(plain)
    roots = stats.root_of(plain)

    def median_ms(root_kind, layer):
        values = [
            selfs.get(layer, 0.0) * 1e3
            for i, selfs in by_root.items() if spans[i][0] == root_kind
        ]
        return stats.median(values) if values else 0.0

    for layer, root_kind, span_name in (
        ("serving.session.run_batch_self_ms", T.RUN_BATCH, T.RUN_BATCH),
        ("engine.parser.parse_ms", root_name, T.PARSE),
        ("core.compilation.compile_ms", root_name, T.COMPILE),
        ("core.compilation.evaluate_self_ms", root_name, T.EVALUATE),
        ("core.compiled.sweep_ms", root_name, T.SWEEP),
        ("optimizer.enumeration_self_ms", root_name, T.ENUMERATION),
        ("core.updates.stage_ms", T.APPLY_BATCH, T.STAGE),
        ("core.updates.commit_ms", T.APPLY_BATCH, T.COMMIT),
    ):
        run.layer(layer, median_ms(root_kind, span_name))
    plan_walls = [(s[3] - s[2]) * 1e3 for s in spans if s[0] == T.PLAN]
    run.layer("optimizer.plan_ms",
              stats.median(plan_walls) if plan_walls else 0.0)
    stage_ops = [s[4] for s in spans if s[0] == T.STAGE]
    run.layer("core.updates.ops_per_flush",
              ratio(sum(stage_ops), len(stage_ops)))
    # Work counts per query, over the workload's own kind of root.
    queries = sum(
        max(s[4], 1) for s in spans if s[0] == root_name and s[1] is None
    )
    sweeps = [
        (roots[i], s) for i, s in enumerate(spans)
        if s[0] == T.SWEEP and spans[roots[i]][0] == root_name
    ]
    specs = sum(s[4] for _root, s in sweeps)
    run.layer("core.compilation.specs_per_query", ratio(specs, queries))
    run.layer("core.compilation.rspns_per_query",
              ratio(len({(root, s[5]) for root, s in sweeps}), queries))
    run.layer("core.compiled.sweeps_per_query", ratio(len(sweeps), queries))
    run.layer("core.compiled.sweep_ns_per_spec", ratio(
        sum(s[3] - s[2] for _root, s in sweeps) * 1e9, specs))


def transport_metrics(run, traced, decoded, untraced):
    """Transport, coalescer wait and the validity of the breakdown.
    ``decoded`` is ``[(sample, payload)]`` of the traced window's
    answered query requests, ``untraced`` the samples of the untraced
    window against the subprocess server."""
    import tracing as T

    walls = [sample.ms for sample, _payload in decoded]
    transports = [
        sample.ms - payload["latency_ms"] for sample, payload in decoded
    ]
    run.layer("serving.server.transport_ms", stats.median(transports))
    run.layer("serving.server.response_bytes",
              stats.median([len(sample.body) for sample, _p in decoded]))
    run.layer("serving.server.request_p99_ms", stats.percentile(walls, 99.0))
    flushes = sorted(
        (s for s in traced.spans if s[0] == T.RUN_BATCH and s[1] is None),
        key=lambda s: s[2],
    )
    starts = [s[2] for s in flushes]
    submits = [iv for iv in traced.intervals if iv[0] == T.SUBMIT]
    waits = []
    for interval in submits:
        flush = T.flush_of(interval, flushes, starts)
        if flush is not None:
            waits.append(
                ((interval[2] - interval[1]) - (flush[3] - flush[2])) * 1e3
            )
    run.layer("serving.coalescer.wait_ms",
              stats.median(waits) if waits else 0.0)
    # Server-side, a request is its submit (coalescer wait + the flush,
    # whose spans add up to its wall); the client sees transport on top.
    submitted_ms = sum(iv[2] - iv[1] for iv in submits) * 1e3
    # What neither covers: the handler thread waiting for the event loop
    # (busy with another flush) to start its submit.
    run.layer("serving.server.handoff_ms", ratio(
        sum(p["latency_ms"] for _s, p in decoded) - submitted_ms,
        len(decoded)))
    run.layer("trace.attributed_ratio",
              ratio(sum(transports) + submitted_ms, sum(walls)))
    run.layer("trace.overhead_ratio", ratio(
        stats.median(walls), stats.median([s.ms for s in untraced])))


def serving_layers(run, traced, decoded, untraced):
    import tracing as T

    serving_counters(run, traced.before, traced.after)
    span_metrics(run, traced.spans, T.RUN_BATCH)
    transport_metrics(
        run, traced, [d for d in decoded if d[1] is not None],
        [s for s in untraced if s.status == 200],
    )


# ----------------------------------------------------------------------
# Answer checking
# ----------------------------------------------------------------------
def decode(samples):
    """``[(sample, payload | None)]``; ``None`` for a failed request."""
    out = []
    for sample in samples:
        payload = None
        if sample.status == 200:
            try:
                payload = json.loads(sample.body)
            except ValueError:
                payload = None
        out.append((sample, payload))
    return out


def expected_payload(answer):
    """An in-process answer, shaped like the server's JSON reply."""
    if isinstance(answer, dict) and answer and all(
        isinstance(key, tuple) for key in answer
    ):
        return {"groups": json.loads(json.dumps([
            {"key": list(key), "value": value}
            for key, value in sorted(answer.items())
        ]))}
    return {"value": answer}


def verify_queries(run, decoded, texts, counts):
    """Compare HTTP answers ``==`` with in-process answers from the same
    store.  Cardinalities were computed for every text in set-up; AQP
    answers are recomputed here, in seeded order, until
    ``VERIFY_BUDGET_S`` is spent -- the rest are only checked for shape."""
    import numpy as np

    pending = []
    for sample, payload in decoded:
        if payload is None:
            run.check(False, f"HTTP {sample.status} for {texts[sample.tag]!r}")
        elif run.spec["kind"] == "cardinality":
            run.verified += 1
            run.check(payload.get("value") == counts[sample.tag],
                      f"{texts[sample.tag]!r}: {payload.get('value')} over "
                      f"HTTP, {counts[sample.tag]} in-process")
        elif "value" not in payload and "groups" not in payload:
            run.check(False, f"no answer in reply to {texts[sample.tag]!r}")
        else:
            pending.append((sample, payload))
    order = np.random.default_rng(run.seed).permutation(len(pending))
    deadline = time.perf_counter() + VERIFY_BUDGET_S
    for i in order:
        if time.perf_counter() > deadline:
            break
        sample, payload = pending[int(i)]
        expected = expected_payload(run.ref.approximate(texts[sample.tag]))
        run.verified += 1
        run.check(all(payload.get(k) == v for k, v in expected.items()),
                  f"{texts[sample.tag]!r}: HTTP and in-process answers differ")


def throughput(run, good, elapsed):
    """The three client-side end-to-end metrics of a window."""
    p50, p90 = run.latencies("query", good)
    run.metrics.update(query_p50_ms=p50, query_p90_ms=p90,
                       queries_per_s=len(good) / elapsed)
    run.samples["queries_per_s"] = len(good)


# ----------------------------------------------------------------------
# Workloads: job_light_http, flights_aqp_http
# ----------------------------------------------------------------------
def run_http_queries(run):
    spec = run.spec
    run.set_up(with_server=True)
    if not run.trace:
        run.accuracy()
    _rng, texts, counts = query_inputs(run, spec["warm"] + run.pool)
    bodies = [
        (i, "/query", query_body(text, spec["kind"]))
        for i, text in enumerate(texts)
    ]
    warm, pool = bodies[:spec["warm"]], bodies[spec["warm"]:]
    threads = harness.client_threads()

    def drive(address, items, seconds):
        source = harness.SharedSource(items)
        outs, elapsed = harness.closed_loop(
            address, [source] * threads, seconds
        )
        return [s for out in outs for s in out], elapsed

    if not run.trace:
        drive(run.server.address, warm, run.warmup_s)
        samples, elapsed = drive(run.server.address, pool, run.seconds)
        run.stop_server()
        decoded = decode(samples)
        throughput(run, [s for s, p in decoded if p is not None], elapsed)
    else:
        half, third = len(warm) // 2, len(pool) // 3
        drive(run.server.address, warm[:half], run.warmup_s)
        untraced, _ = drive(run.server.address, pool[:third],
                            run.seconds * UNTRACED_SHARE)
        run.stop_server()
        with traced_server(run) as traced:
            drive(traced.address, warm[half:], run.warmup_s)
            traced.begin_window()
            samples, _ = drive(traced.address, pool[third:],
                               run.seconds * (1 - UNTRACED_SHARE))
            traced.end_window()
        decoded = decode(samples)
        serving_layers(run, traced, decoded, untraced)
        decoded += decode(untraced)
    run.attempted = len(decoded)
    verify_queries(run, decoded, texts, counts)


# ----------------------------------------------------------------------
# Workload: optimizer_inproc
# ----------------------------------------------------------------------
def plan_loop(run, order, texts, seconds, results):
    """Closed loop of ``DeepDB.plan`` calls on this thread."""
    samples = []
    start = time.perf_counter()
    deadline = start + seconds
    for index in order:
        begin = time.perf_counter()
        if begin >= deadline:
            break
        try:
            plan, cost, oracle = run.sut.plan(texts[index])
            results.append((index, plan.describe(), float(cost), oracle))
            status = 200
        except Exception as error:  # noqa: BLE001 - counted as a failed call
            results.append((index, repr(error), math.nan, None))
            status = 0
        samples.append(
            harness.Sample(index, begin, time.perf_counter(), status, b"")
        )
    return samples, time.perf_counter() - start


def verify_plans(run, results, texts):
    """A repeat must return what its first occurrence returned; every
    tenth distinct text is re-planned on a cache-less model from the
    same store and must give the same plan at the same cost."""
    first = {}
    for index, described, cost, oracle in results:
        if oracle is None:
            run.check(False, f"plan({texts[index]!r}) raised {described}")
        elif index in first:
            run.check(first[index] == (described, cost),
                      f"repeat of {texts[index]!r} planned differently")
        else:
            first[index] = (described, cost)
            if index % 10 == 0:
                plan, ref_cost, _oracle = run.ref.plan(texts[index])
                run.check(
                    (plan.describe(), float(ref_cost)) == (described, cost),
                    f"{texts[index]!r}: cache-less model plans differently")
        run.verified += 1


def optimizer_layers(run, spans, samples, untraced, results, before, after):
    from tracing import PLAN

    span_metrics(run, spans, PLAN)
    (cache_before, kernel_before), (cache_after, kernel_after) = before, after
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    run.layer("optimizer.plancache.hit_ratio", ratio(hits, hits + misses))
    run.layer("core.kernels.sweep_ns_per_query", ratio(
        kernel_after["sweep_ns_total"] - kernel_before["sweep_ns_total"],
        kernel_after["sweep_queries"] - kernel_before["sweep_queries"]))
    # A cache hit hands back the oracle of the call that planned it.
    oracles = {id(r[3]): r[3] for r in results if r[3] is not None}
    run.layer("optimizer.subqueries_per_plan", ratio(
        sum(o.estimator_calls for o in oracles.values()), len(oracles)))
    run.layer("optimizer.batch_calls_per_plan", ratio(
        sum(o.batch_calls for o in oracles.values()), len(oracles)))
    plan_wall = sum(s[3] - s[2] for s in spans if s[0] == PLAN and s[1] is None)
    run.layer("trace.attributed_ratio",
              ratio(plan_wall * 1e3, sum(s.ms for s in samples)))
    run.layer("trace.overhead_ratio", ratio(
        stats.median([s.ms for s in samples]),
        stats.median([s.ms for s in untraced])))


def run_optimizer(run):
    import workloads as W

    spec = run.spec
    run.set_up(with_server=False)
    if not run.trace:
        run.accuracy()
    n_warm = spec["warm"]
    rng, texts, _counts = query_inputs(run, n_warm + run.pool)
    warm_order = W.repeating_order(rng, n_warm)
    order = [n_warm + i for i in W.repeating_order(rng, run.pool)]
    results = []
    plan_loop(run, warm_order, texts, run.warmup_s, [])
    if not run.trace:
        samples, elapsed = plan_loop(run, order, texts, run.seconds, results)
        throughput(run, [s for s in samples if s.status == 200], elapsed)
    else:
        from tracing import Tracer

        def counters():
            return run.sut.plan_cache.snapshot(), run.sut.kernel_stats()

        cut = len(order) // 3
        untraced, _ = plan_loop(
            run, order[:cut], texts, run.seconds * UNTRACED_SHARE, results
        )
        tracer = Tracer().install()
        try:
            plan_loop(run, warm_order, texts, run.warmup_s, [])
            tracer.spans.clear()
            before = counters()
            samples, _ = plan_loop(
                run, order[cut:], texts, run.seconds * (1 - UNTRACED_SHARE),
                results,
            )
            after = counters()
        finally:
            tracer.remove()
            if run.trace_out:
                tracer.write(run.trace_out)
        optimizer_layers(run, tracer.finished(), samples, untraced, results,
                         before, after)
        samples = samples + untraced
    run.attempted = len(samples)
    verify_plans(run, results, texts)
    run.metrics["peak_rss_mb"] = harness.peak_rss_mb()


# ----------------------------------------------------------------------
# Workload: ingest_mixed_http
# ----------------------------------------------------------------------
INGEST_TABLES = ("title", "cast_info")


def table_counts(address):
    counts = {}
    for table in INGEST_TABLES:
        status, body = harness.request_json(
            address, "POST", "/query",
            {"sql": f"SELECT COUNT(*) FROM {table}", "kind": "cardinality"},
        )
        if status != 200:
            raise CheckFailed(f"COUNT(*) of {table} failed: {body}")
        counts[table] = body["value"]
    return counts


def verify_updates(run, decoded, requests, before, after, generations):
    """Every slot ``ok``, the generation advanced, and the unfiltered
    COUNT(*) of each touched table moved by exactly inserts - deletes."""
    moved = dict.fromkeys(INGEST_TABLES, 0)
    for sample, payload in decoded:
        slots = (payload or {}).get("results") or []
        ops = requests[sample.tag]
        run.check(
            len(slots) == len(ops) and all(s.get("ok") for s in slots),
            f"update {sample.tag}: HTTP {sample.status}, "
            f"{sum(bool(s.get('ok')) for s in slots)}/{len(ops)} slots ok")
        for op, slot in zip(ops, slots):
            if slot.get("ok"):
                moved[op["table"]] += 1 if op["op"] == "insert" else -1
        run.verified += 1
    run.check(not decoded or generations[1] > generations[0],
              f"generation did not advance: {generations}")
    for table, delta in moved.items():
        got = after[table] - before[table]
        run.check(abs(got - delta) <= 1e-6 * max(1.0, abs(before[table])),
                  f"COUNT(*) of {table} moved by {got}, acknowledged ops "
                  f"say {delta}")


def ingest_phase(run, rng, address, get_stats, reads, n_warm, n_measured,
                 seconds, traced=None):
    """One self-contained update stream (its deletes only name its own
    inserts) beside the hot read set: warm up, measure, then check the
    acknowledged ops against the model's own counts."""
    import itertools

    import workloads as W

    requests = W.update_requests(
        rng, run.database, n_warm + n_measured, OPS_PER_UPDATE, INGEST_TABLES
    )
    updates = [
        (i, "/update", json.dumps({"ops": ops}).encode())
        for i, ops in enumerate(requests)
    ]

    def drive(items, window_s):
        outs, elapsed = harness.closed_loop(
            address, [iter(items), itertools.cycle(reads)], window_s
        )
        return outs[0], outs[1], elapsed

    def generation():
        return counter(get_stats(), "serving", "models", run.dataset,
                       "generation")

    counts_before, generation_before = table_counts(address), generation()
    warm_writes, _reads, _ = drive(updates[:n_warm], run.warmup_s)
    if traced is not None:
        traced.begin_window()
    writes, read_samples, elapsed = drive(updates[n_warm:], seconds)
    if traced is not None:
        traced.end_window()
    verify_updates(
        run, decode(warm_writes + writes), requests, counts_before,
        table_counts(address), (generation_before, generation()),
    )
    good_reads = []
    for sample, payload in decode(read_samples):
        value = (payload or {}).get("value")
        ok = isinstance(value, float) and math.isfinite(value) and value >= 1.0
        run.check(ok, f"read {sample.tag}: HTTP {sample.status}, {value!r}")
        if ok:
            good_reads.append((sample, payload))
        run.verified += 1
    run.attempted += len(writes) + len(read_samples)
    return [s for s in writes if s.status == 200], good_reads, elapsed


def run_ingest(run):
    spec = run.spec
    run.set_up(with_server=True)
    if not run.trace:
        run.accuracy()
    rng, texts, _counts = query_inputs(run, HOT_SET)
    reads = [
        (i, "/query", query_body(text, spec["kind"]))
        for i, text in enumerate(texts)
    ]
    n_warm, n_updates = spec["warm"], run.pool
    if not run.trace:
        writes, good_reads, elapsed = ingest_phase(
            run, rng, run.server.address, run.server.stats, reads,
            n_warm, n_updates, run.seconds,
        )
        run.stop_server()
        throughput(run, [s for s, _p in good_reads], elapsed)
    else:
        _writes, untraced, _ = ingest_phase(
            run, rng, run.server.address, run.server.stats, reads,
            n_warm // 2, n_updates // 3, run.seconds * UNTRACED_SHARE,
        )
        run.stop_server()
        with traced_server(run) as traced:
            writes, good_reads, elapsed = ingest_phase(
                run, rng, traced.address, traced.stats, reads,
                n_warm // 2, n_updates - n_updates // 3,
                run.seconds * (1 - UNTRACED_SHARE), traced,
            )
        serving_layers(run, traced, good_reads, [s for s, _p in untraced])
    p50, p90 = run.latencies("update", writes)
    ops_per_s = OPS_PER_UPDATE * len(writes) / elapsed
    if not run.trace:
        run.record_only = {"update_p50_ms": p50, "update_p90_ms": p90,
                           "update_ops_per_s": ops_per_s}
    else:
        run.layer("serving.server.update_p50_ms", p50)
        run.layer("serving.server.update_p90_ms", p90)
        run.layer("serving.server.update_ops_per_s", ops_per_s)


RUNNERS = {
    "job_light_http": run_http_queries,
    "flights_aqp_http": run_http_queries,
    "optimizer_inproc": run_optimizer,
    "ingest_mixed_http": run_ingest,
}


# ----------------------------------------------------------------------
# One run, and what it prints
# ----------------------------------------------------------------------
def run_once(work, workload, seed, seconds, trace, quick=False, learned=None,
             trace_out=None):
    """Run one workload in scratch directory ``work``; returns
    ``(result, record, learned)``."""
    segments_before = harness.shm_segments()
    run = Run(workload, seed, seconds, trace, quick, work, learned, trace_out)
    try:
        RUNNERS[workload](run)
    finally:
        if run.server is not None:
            run.server.stop()
        for model in (run.ref, run.sut):
            if model is not None:
                model.close()
    leaked = harness.shm_segments() - segments_before
    if leaked:
        raise CheckFailed(f"shared-memory segments outlived the run: {leaked}")
    if trace:
        for name in PER_LAYER:  # a layer the workload never enters reports 0
            run.metrics.setdefault(name, 0)
    wanted = PER_LAYER if trace else END_TO_END
    missing = [name for name in wanted if name not in run.metrics]
    if missing:
        raise CheckFailed(f"metrics not produced: {missing}")
    metrics = {
        name: {"value": run.metrics[name], "unit": wanted[name]["unit"]}
        for name in wanted
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    host, not_covered = harness.host_block()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick, "claim": None,
        "host": host, "not_covered": not_covered,
        "scale": run.scale,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "verified": run.verified,
        "misses": run.misses,
        "samples": run.samples,
        "highest_percentile": run.highest_percentile,
        "ungated": run.ungated,
        "record_only": {
            name: {"value": value, "unit": RECORD_ONLY[name]["unit"]}
            for name, value in run.record_only.items()
        },
    }
    return result, record, run.learned


def emit(result, record):
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)


# ----------------------------------------------------------------------
# --quick, --repeat, --selftest
# ----------------------------------------------------------------------
def quick(args):
    """Every workload at tiny scale with 3 s windows, one trained store
    per dataset, no bounds: a smoke run for CI."""
    learned, ok = {}, True
    with harness.work_dir("quick-") as work:
        for workload in ([args.workload] if args.workload else WORKLOADS):
            dataset = WORKLOADS[workload]["dataset"]
            result, record, learned[dataset] = run_once(
                work, workload, args.seed, 3.0, bool(args.trace), quick=True,
                learned=learned.get(dataset),
            )
            emit(result, record)
            ok = ok and result["correct"]
    return 0 if ok else 1


def disagreements(sets, definitions):
    """``[(metric, best, worst, share)]`` for every metric whose sets
    differ by more than its bound."""
    out = []
    for name, definition in definitions.items():
        values = [s[name] for s in sets if name in s]
        if len(values) < 2:
            continue
        lower = definition["better"] == "lower"
        best = min(values) if lower else max(values)
        worst = max(values) if lower else min(values)
        share = stats.worse_by(definition["better"], best, worst)
        if share > definition["bound"]:
            out.append((name, best, worst, share))
    return out


def repeat(args):
    """Run N sets of every workload in fresh processes; non-zero when
    two sets of the same code disagree beyond a metric's bound."""
    definitions = {**END_TO_END, **RECORD_ONLY}
    status = 0
    for workload in ([args.workload] if args.workload else WORKLOADS):
        sets = []
        for _ in range(args.repeat):
            lines = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            values.update({k: v["value"] for k, v in
                           record["record"]["record_only"].items()})
            if result["failed"]:
                print(f"{workload}: {result['failed']} failed requests")
                status = 1
            sets.append(values)
        for name, best, worst, share in disagreements(sets, definitions):
            print(f"{workload}: {name} sets disagree: {best:.6g} vs "
                  f"{worst:.6g} ({share:.1%} > "
                  f"{definitions[name]['bound']:.0%})")
            status = 1
        print(f"{workload}: {len(sets)} sets compared")
    return status


def selftest():
    """Unit checks of the arithmetic behind the reported numbers."""
    # Percentile rule: the highest percentile with >= 10 samples beyond.
    assert stats.supported_percentile(9) is None
    assert stats.supported_percentile(20) == 50.0
    assert stats.supported_percentile(199) == 90.0
    assert stats.supported_percentile(200) == 95.0
    assert stats.supported_percentile(1000) == 99.0
    assert stats.supported_percentile(10_000) == 99.9
    assert stats.percentile([1, 2, 3, 4], 50.0) == 2.5
    assert stats.percentile(range(101), 95.0) == 95.0
    assert math.isclose(stats.latency_percentile(range(101), 50.0), 50.0)
    stepped = [48.0] * 60 + [52.0] * 34 + [56.0] * 3 + [60.0] * 3
    assert 52.0 < stats.latency_percentile(stepped, 95.0) < 60.0
    # Self time on nested spans: a root with two children, one of which
    # has a child of its own; a second root alone.
    spans = [
        ("flush", None, 0.0, 10.0),
        ("parse", 0, 1.0, 2.0),
        ("compile", 0, 2.0, 8.0),
        ("sweep", 2, 3.0, 7.0),
        ("flush", None, 20.0, 21.0),
    ]
    assert stats.self_times(spans) == [3.0, 1.0, 2.0, 4.0, 1.0]
    assert stats.root_of(spans) == [0, 0, 0, 0, 4]
    by_root = stats.self_time_by_root(spans)
    assert dict(by_root[0]) == {
        "flush": 3.0, "parse": 1.0, "compile": 2.0, "sweep": 4.0}
    assert sum(by_root[0].values()) == 10.0 and dict(by_root[4]) == {"flush": 1.0}
    # Matching a submit interval to the flush it waited for.
    from tracing import flush_of

    flushes = [("f", None, 1.0, 2.0), ("f", None, 5.0, 6.0)]
    starts = [1.0, 5.0]
    assert flush_of(("s", 0.5, 2.1), flushes, starts) == flushes[0]
    assert flush_of(("s", 4.0, 6.5), flushes, starts) == flushes[1]
    assert flush_of(("s", 2.5, 3.0), flushes, starts) is None
    # Bounds: direction-aware, relative to the baseline.
    assert math.isclose(stats.worse_by("lower", 100.0, 110.0), 0.10)
    assert math.isclose(stats.worse_by("higher", 100.0, 90.0), 0.10)
    assert stats.worse_by("lower", 100.0, 90.0) < 0
    bounds = {"p50_ms": {"better": "lower", "bound": 0.10},
              "per_s": {"better": "higher", "bound": 0.10}}
    sets = [{"p50_ms": 50.0, "per_s": 40.0}, {"p50_ms": 56.0, "per_s": 39.0}]
    assert [d[0] for d in disagreements(sets, bounds)] == ["p50_ms"]
    # BENCHMARK.json and this file name the same things.
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert "setup_s" in END_TO_END and not set(RECORD_ONLY) & set(END_TO_END)
    print("selftest ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process run, per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1, write the spans as JSON lines")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny scales, 3 s windows, no bounds")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run N sets; fail when they disagree beyond a bound")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if not (harness.SRC / "repro").is_dir():
        print(f"no program to measure: {harness.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    if args.quick:
        return quick(args)
    if args.repeat:
        return repeat(args)
    if not args.workload:
        parser.error("--workload is required")
    try:
        with harness.work_dir("run-") as work:
            result, record, _learned = run_once(
                work, args.workload, args.seed, args.seconds,
                bool(args.trace), trace_out=args.trace_out,
            )
    except CheckFailed as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 1
    emit(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
