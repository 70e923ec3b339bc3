"""Ablation: update throughput vs update sampling rate (Section 6.1).

The paper reports "using a sampling rate of 1%, we can handle up to
55,000 updates per second": Algorithm 1 is applied only to a sample of
the inserted tuples -- at the same rate used for learning -- so most
inserts pay nothing but a Bernoulli draw.  This bench offers a fixed
insert stream under sampling rates 100% / 10% / 1% and reports offered
tuples per second plus the post-update estimation quality.

To isolate *throughput* from learning-sample quality, the learned model
is identical across rates (deep-copied, sharing the one database);
each clone's bookkeeping sample fraction is set to the target rate,
which is exactly how a model learned at that rate absorbs a sampled
update stream (insertions scale the represented size by 1/rate).

Expected shape: throughput scales roughly with the inverse sampling
rate while the q-error stays flat.
"""

import copy
import time

import numpy as np

from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.core.maintenance import absorb_inserts, delta_database
from repro.datasets import imdb, workloads
from repro.engine.executor import Executor
from repro.evaluation.metrics import q_error
from repro.evaluation.report import Report


def _split_database(scale, keep_fraction, seed):
    """(full, initial_masks, delta_masks): random row split per table."""
    database = imdb.generate(scale=scale, seed=seed)
    rng = np.random.default_rng(seed + 1)
    initial, delta = {}, {}
    for name in database.table_names():
        n = database.table(name).n_rows
        mask = rng.random(n) < keep_fraction
        initial[name] = mask
        delta[name] = ~mask
    return database, initial, delta


def test_update_throughput_ablation(benchmark):
    database, initial_masks, delta_masks = _split_database(
        scale=0.08, keep_fraction=0.8, seed=41
    )
    initial = delta_database(database, initial_masks)
    base_ensemble = learn_ensemble(
        initial, EnsembleConfig(sample_size=20_000, correlation_sample=1_000)
    )

    queries = workloads.imdb_workload(
        database, 30, table_range=(2, 4), predicate_range=(1, 3), seed=43
    )
    truths = [Executor(database).cardinality(q.query) for q in queries]
    offered = sum(int(m.sum()) for m in delta_masks.values())

    report = Report(
        "Update throughput vs sampling rate "
        f"({offered} offered inserts)",
        ["rate", "tuples/s", "absorbed", "median q-error after"],
    )
    throughputs = {}
    for rate in (1.0, 0.1, 0.01):
        ensemble = copy.deepcopy(base_ensemble, {id(initial): initial})
        for rspn in ensemble.rspns:
            rspn.sample_size = rspn.full_size * rate
        start = time.perf_counter()
        absorbed, _ = absorb_inserts(ensemble, database, delta_masks, seed=45)
        seconds = max(time.perf_counter() - start, 1e-9)
        throughput = offered / seconds
        throughputs[rate] = throughput
        compiler = ProbabilisticQueryCompiler(ensemble)
        errors = [
            q_error(truth, compiler.cardinality(named.query))
            for named, truth in zip(queries, truths)
        ]
        report.add(
            f"{rate:.0%}", throughput, absorbed, float(np.median(errors))
        )
    report.print()

    # Shape: lower sampling rates absorb the same insert stream much
    # faster (the paper's 55k updates/s at 1%).
    assert throughputs[0.01] > 5 * throughputs[1.0]
    assert throughputs[0.1] > throughputs[1.0]

    # Representative single-insert latency (full-rate Algorithm 1).
    ensemble = copy.deepcopy(base_ensemble, {id(initial): initial})
    rspn = ensemble.rspns[0]
    row = {name: 0.0 for name in rspn.column_names}
    benchmark(lambda: (rspn.insert(row), rspn.delete(row)))
