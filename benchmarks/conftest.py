"""Shared benchmark environments (built once per session).

Every benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index) and prints the same
rows/series the paper reports.  Scales are laptop-sized; absolute
numbers differ from the paper's testbed but the comparisons' *shape*
(who wins, by roughly what factor) is the reproduction target --
EXPERIMENTS.md records paper-vs-measured per experiment.

Set ``REPRO_BENCH_SCALE`` (default 1.0) to grow/shrink every dataset.

Timing records: every ``benchmark``-fixture measurement plus any value
registered through :func:`record_timing` is appended to
``benchmarks/BENCH_inference.json`` at session end, one run object per
session, so the perf trajectory (scalar vs. batched inference latency in
particular) is tracked across PRs.
"""

from __future__ import annotations

import datetime
import json
import os
import time

import pytest

from repro.baselines.ibjs import IndexBasedJoinSampling
from repro.baselines.mcsn import MCSN
from repro.baselines.postgres_estimator import PostgresEstimator
from repro.baselines.sampling import RandomSamplingEstimator
from repro.baselines.tablesample import TableSample
from repro.baselines.verdictdb import VerdictDBStyle
from repro.baselines.wander_join import WanderJoin
from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.datasets import flights, imdb, ssb, workloads
from repro.engine.executor import Executor

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

IMDB_SCALE = 0.15 * SCALE
FLIGHTS_SCALE = 0.5 * SCALE
SSB_SCALE = 1.0 * SCALE
RSPN_SAMPLE = int(25_000 * SCALE)
MCSN_TRAINING_QUERIES = int(1_500 * SCALE)


class TimedResult:
    """Helper carrying a value and the seconds it took to produce."""

    def __init__(self, value, seconds):
        self.value = value
        self.seconds = seconds


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return TimedResult(value, time.perf_counter() - start)


# ----------------------------------------------------------------------
# Perf-trajectory records (BENCH_inference.json / BENCH_optimizer.json)
# ----------------------------------------------------------------------
_TIMING_PATH = os.path.join(os.path.dirname(__file__), "BENCH_inference.json")
_OPTIMIZER_PATH = os.path.join(os.path.dirname(__file__), "BENCH_optimizer.json")
_SERVING_PATH = os.path.join(os.path.dirname(__file__), "BENCH_serving.json")
_MODELSTORE_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_modelstore.json"
)
# path -> the session's named timing records destined for that file.
_TRAJECTORIES: dict = {}


def _recorder(path):
    """A ``record(name, seconds, **extra)`` appending to ``path``'s
    session records (flushed in :func:`pytest_sessionfinish`)."""
    records = _TRAJECTORIES.setdefault(path, [])

    def record(name, seconds, **extra):
        records.append({"name": name, "seconds": float(seconds), **extra})

    return record


# BENCH_inference.json: scalar-vs-batched inference comparisons.
record_timing = _recorder(_TIMING_PATH)
# BENCH_optimizer.json: optimizer-loop / ML-head trajectory.
record_optimizer_timing = _recorder(_OPTIMIZER_PATH)
# BENCH_serving.json: serving front-end closed-loop throughput.
record_serving_timing = _recorder(_SERVING_PATH)
# BENCH_modelstore.json: mmapped cold start.
record_modelstore_timing = _recorder(_MODELSTORE_PATH)


def best_of(fn, repeats=3):
    """Best wall-clock seconds of ``repeats`` runs of ``fn``."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    return min(seconds)


@pytest.fixture(scope="session", name="best_of")
def best_of_fixture():
    """Fixture handing benches the :func:`best_of` timer."""
    return best_of


@pytest.fixture(scope="session")
def record_inference_timing():
    """Fixture handing benches the :func:`record_timing` recorder."""
    return record_timing


@pytest.fixture(scope="session", name="record_optimizer_timing")
def record_optimizer_timing_fixture():
    """Fixture handing benches the :func:`record_optimizer_timing`
    recorder (BENCH_optimizer.json)."""
    return record_optimizer_timing


@pytest.fixture(scope="session", name="record_serving_timing")
def record_serving_timing_fixture():
    """Fixture handing benches the :func:`record_serving_timing`
    recorder (BENCH_serving.json)."""
    return record_serving_timing


@pytest.fixture(scope="session", name="record_modelstore_timing")
def record_modelstore_timing_fixture():
    """Fixture handing benches the :func:`record_modelstore_timing`
    recorder (BENCH_modelstore.json)."""
    return record_modelstore_timing


def _benchmark_records(session):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return []
    records = []
    for bench in getattr(bench_session, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        stats = getattr(stats, "stats", stats)  # pytest-benchmark metadata
        if stats is None:
            continue
        records.append(
            {
                "name": bench.name,
                "mean_s": float(stats.mean),
                "min_s": float(stats.min),
                "stddev_s": float(stats.stddev),
                "rounds": int(stats.rounds),
            }
        )
    return records


def _append_run(path, run):
    try:
        with open(path) as handle:
            history = json.load(handle)
        if not isinstance(history, list):
            history = []
    except (OSError, ValueError):
        history = []
    history.append(run)
    try:
        with open(path, "w") as handle:
            json.dump(history, handle, indent=2)
    except OSError:
        pass  # recording must never fail the bench run


def pytest_sessionfinish(session, exitstatus):
    """Append this session's timing records to the trajectory files."""
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    benchmarks = _benchmark_records(session)
    for path, timings in _TRAJECTORIES.items():
        run = {
            "timestamp": timestamp,
            "scale": SCALE,
            "timings": list(timings),
        }
        if path == _TIMING_PATH:  # also carries benchmark-fixture stats
            run["benchmarks"] = benchmarks
            if not (timings or benchmarks):
                continue
        elif not timings:
            continue
        _append_run(path, run)


# ----------------------------------------------------------------------
# IMDb environment (Table 1, Figures 1/7/8, Table 2)
# ----------------------------------------------------------------------
class ImdbEnvironment:
    def __init__(self):
        self.database = imdb.generate(scale=IMDB_SCALE, seed=0)
        self.executor = Executor(self.database)
        self.job_light = workloads.job_light(self.database)
        self.job_light_truth = [
            self.executor.cardinality(q.query) for q in self.job_light
        ]
        self._ensemble = None
        self._compiler = None
        self._mcsn = None
        self.ensemble_seconds = None
        self.mcsn_seconds = None
        self.mcsn_label_seconds = None

    @property
    def ensemble(self):
        if self._ensemble is None:
            start = time.perf_counter()
            self._ensemble = learn_ensemble(
                self.database,
                EnsembleConfig(sample_size=RSPN_SAMPLE, budget_factor=0.5,
                               max_join_tables=3),
            )
            self.ensemble_seconds = time.perf_counter() - start
        return self._ensemble

    @property
    def compiler(self):
        if self._compiler is None:
            self._compiler = ProbabilisticQueryCompiler(self.ensemble)
        return self._compiler

    @property
    def mcsn(self):
        """MCSN trained on <= 3-table queries (the paper's training regime)."""
        if self._mcsn is None:
            training = workloads.imdb_workload(
                self.database,
                MCSN_TRAINING_QUERIES,
                table_range=(1, 3),
                predicate_range=(1, 4),
                seed=17,
            )
            queries = [nq.query for nq in training]
            self.mcsn_training_size = len(queries)
            start = time.perf_counter()
            labels = [self.executor.cardinality(q) for q in queries]
            self.mcsn_label_seconds = time.perf_counter() - start
            start = time.perf_counter()
            model = MCSN(self.database, hidden=48, epochs=20, seed=0)
            model.fit(queries, labels)
            self.mcsn_seconds = time.perf_counter() - start
            self._mcsn = model
        return self._mcsn

    def baselines(self):
        return {
            "Postgres": PostgresEstimator(self.database),
            "IBJS": IndexBasedJoinSampling(self.database, n_walks=1_000),
            "Random Sampling": RandomSamplingEstimator(self.database, sample_rows=1_000),
        }


@pytest.fixture(scope="session")
def imdb_env():
    return ImdbEnvironment()


# ----------------------------------------------------------------------
# Flights environment (Figures 9, 11, 13)
# ----------------------------------------------------------------------
class FlightsEnvironment:
    def __init__(self):
        from repro.core.rspn import RspnConfig

        self.database = flights.generate(scale=FLIGHTS_SCALE, seed=0)
        self.executor = Executor(self.database)
        self.queries = workloads.flights_queries(self.database)
        start = time.perf_counter()
        self.ensemble = learn_ensemble(
            self.database,
            EnsembleConfig(
                sample_size=RSPN_SAMPLE,
                rspn=RspnConfig(min_instances_fraction=0.003),
            ),
        )
        self.ensemble_seconds = time.perf_counter() - start
        self.compiler = ProbabilisticQueryCompiler(self.ensemble)
        self.verdict = VerdictDBStyle(self.database, sample_rate=0.01, seed=0)
        self.tablesample = TableSample(self.database, sample_rate=0.01, seed=0)

    def truth(self, named):
        if named.is_difference:
            first = self.executor.execute(named.query)
            second = self.executor.execute(named.query2)
            return _difference(first, second)
        return self.executor.execute(named.query)

    def deepdb_answer(self, named):
        if named.is_difference:
            return _difference(
                self.compiler.answer(named.query), self.compiler.answer(named.query2)
            )
        return self.compiler.answer(named.query)

    def baseline_answer(self, system, named):
        if named.is_difference:
            return _difference(
                system.answer(named.query), system.answer(named.query2)
            )
        return system.answer(named.query)


def _difference(first, second):
    if first is None or second is None:
        return None
    if isinstance(first, dict) or isinstance(second, dict):
        first = first or {}
        second = second or {}
        keys = set(first) | set(second)
        return {
            k: (first.get(k) or 0.0) - (second.get(k) or 0.0) for k in keys
        }
    return first - second


@pytest.fixture(scope="session")
def flights_env():
    return FlightsEnvironment()


class FlightsServingEnvironment:
    """A serving-sized flights model for the cold-start benchmark.

    The figure environments above keep models deliberately small so the
    accuracy sweeps stay fast; cold start is about what a restarting
    server pays on a *production-sized* model, so this one learns
    from a 100k-row sample of a 2x flights table (the paper's serving
    scenarios sample 1M+ rows -- this is still conservative).
    """

    def __init__(self):
        from repro.core.rspn import RspnConfig

        self.database = flights.generate(scale=2.0 * SCALE, seed=0)
        start = time.perf_counter()
        self.ensemble = learn_ensemble(
            self.database,
            EnsembleConfig(
                sample_size=int(100_000 * SCALE),
                rspn=RspnConfig(min_instances_fraction=0.003),
            ),
        )
        self.ensemble_seconds = time.perf_counter() - start


@pytest.fixture(scope="session")
def flights_serving_env():
    return FlightsServingEnvironment()


# ----------------------------------------------------------------------
# SSB environment (Figures 10, 11, 12)
# ----------------------------------------------------------------------
class SsbEnvironment(FlightsEnvironment):
    def __init__(self):  # noqa: D401 - same interface, different dataset
        from repro.core.rspn import RspnConfig

        self.database = ssb.generate(scale=SSB_SCALE, seed=0)
        self.executor = Executor(self.database)
        self.queries = workloads.ssb_queries(self.database)
        start = time.perf_counter()
        self.ensemble = learn_ensemble(
            self.database,
            EnsembleConfig(
                sample_size=RSPN_SAMPLE,
                rspn=RspnConfig(min_instances_fraction=0.003),
            ),
        )
        self.ensemble_seconds = time.perf_counter() - start
        self.compiler = ProbabilisticQueryCompiler(self.ensemble)
        self.verdict = VerdictDBStyle(self.database, sample_rate=0.01, seed=0)
        self.tablesample = TableSample(self.database, sample_rate=0.01, seed=0)
        self.wander = WanderJoin(self.database, n_walks=20_000, seed=0)


@pytest.fixture(scope="session")
def ssb_env():
    return SsbEnvironment()
