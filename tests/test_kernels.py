"""Differential property suite for the fused sweep kernels.

The kernel knob of :mod:`repro.core.kernels` promises that every
execution kernel -- ``legacy`` (full-matrix sweep), ``numpy`` (fused
arena sweep) and ``numba`` (tape-interpreter lowering, exercised here
through its pure-Python twins on hosts without numba) -- returns
**bit-identical** answers, ``==`` not ``allclose``.  This suite turns
that promise into properties:

- random SPNs x random specs, both leaf types, across all kernels;
- uneven chunk boundaries (``_CHUNK_BUDGET`` swept down so batches
  split into ragged chunks over a reused arena lease);
- GROUP BY fan-out through the full query compiler;
- 1/2/4-worker sharded evaluation over the shared-memory transport,
  including the shipped plan-signature handshake (a signature mismatch
  would force a serial fallback, which the tests assert never happens);
- the arena lease/pool contract (one allocation per evaluator, reused
  across chunks and batches);
- the transform dedup key (well-known singletons share a slot across
  distinct list objects; a label thief never steals a singleton's
  slot);
- the crossover auto-tuner (serial-only on one CPU, the measured
  crossover formula and its clamps, static mode, failure degradation).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import autotune
from repro.core import compiled as compiled_mod
from repro.core import kernels
from repro.core.compiled import (
    compiled_for,
    export_tree_arrays,
    import_tree_arrays,
)
from repro.core.ensemble import EnsembleConfig
from repro.core.inference import EvaluationSpec, evaluate_batch
from repro.core.leaves import (
    IDENTITY,
    INVERSE_FACTOR,
    SQUARE,
    DiscreteLeaf,
    DiscreteScopeTable,
    Transform,
    transform_dedup_key,
    well_known_label,
)
from repro.core.nodes import LeafNode
from repro.core.ranges import Interval, Range
from repro.core.sharding import ShardedEvaluator, shm_available
from repro.deepdb import DeepDB
from tests.conftest import build_customer_orders
from tests.test_nodes_inference import _random_spec, _random_spn

_MP_CONTEXT = os.environ.get("REPRO_TEST_MP_CONTEXT", "fork")

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable"
)


def _workload(seed, n_specs=64):
    rng = np.random.default_rng(seed)
    scope = tuple(range(int(rng.integers(1, 5))))
    spn = _random_spn(rng, scope, depth=int(rng.integers(1, 4)))
    specs = [_random_spec(rng, scope) for _ in range(n_specs)]
    return spn, specs


def _kernel_results(spn, specs):
    """``{kernel: values}`` for every executable kernel.

    The numba path runs through its pure-Python twins when numba is
    absent -- the exact loops numba would compile -- and additionally
    through the jitted kernels when it is installed.
    """
    results = {}
    with kernels.use("legacy"):
        results["legacy"] = evaluate_batch(spn, specs)
    with kernels.use("numpy"):
        results["numpy"] = evaluate_batch(spn, specs)
    with kernels.python_twins(), kernels.use("numba"):
        assert kernels.resolve() == "numba"
        results["numba-twin"] = evaluate_batch(spn, specs)
    if kernels.HAVE_NUMBA:
        with kernels.use("numba"):
            results["numba-jit"] = evaluate_batch(spn, specs)
    return results


def _assert_all_equal(results):
    reference = results["legacy"]
    for name, values in results.items():
        assert values.shape == reference.shape
        assert (values == reference).all(), (
            f"kernel {name!r} diverged from legacy"
        )


@pytest.fixture(scope="module")
def small_model():
    database = build_customer_orders(n_customers=500, seed=3)
    return DeepDB.learn(database, EnsembleConfig(sample_size=4_000))


class TestKernelDifferential:
    """fused == legacy == numba, bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_spns_random_specs(self, seed):
        spn, specs = _workload(seed)
        _assert_all_equal(_kernel_results(spn, specs))

    @pytest.mark.parametrize("budget", [1, 200, 5_000])
    def test_uneven_chunk_boundaries(self, budget, monkeypatch):
        """Chunked sweeps (including ragged tails over a wider reused
        arena lease) must match the unchunked full-batch sweep."""
        spn, specs = _workload(77, n_specs=101)
        unchunked = _kernel_results(spn, specs)
        _assert_all_equal(unchunked)
        monkeypatch.setattr(compiled_mod, "_CHUNK_BUDGET", budget)
        chunked = _kernel_results(spn, specs)
        for name, values in chunked.items():
            assert (values == unchunked["legacy"]).all(), (
                f"kernel {name!r} diverged under _CHUNK_BUDGET={budget}"
            )

    def test_batch_composition_invariance_fused(self):
        """Splitting one batch into sub-batches changes nothing."""
        spn, specs = _workload(5, n_specs=40)
        with kernels.use("numpy"):
            whole = evaluate_batch(spn, specs)
            parts = np.concatenate(
                [evaluate_batch(spn, specs[i:i + 7])
                 for i in range(0, len(specs), 7)]
            )
        assert (whole == parts).all()

    def test_group_by_fanout(self, small_model):
        """GROUP BY queries fan one query out into one spec per group;
        every kernel must agree on every group's value, bitwise."""
        queries = [
            "SELECT COUNT(*) FROM customer GROUP BY customer.region",
            "SELECT AVG(customer.age) FROM customer "
            "WHERE customer.age > 30 GROUP BY customer.region",
            "SELECT COUNT(*) FROM customer, orders "
            "WHERE customer.age > 25 GROUP BY orders.channel",
        ]
        with kernels.use("legacy"):
            reference = small_model.approximate_batch(queries)
        for name in ("numpy", "numba"):
            with kernels.python_twins(), kernels.use(name):
                answers = small_model.approximate_batch(queries)
            assert len(answers) == len(reference)
            for got, want in zip(answers, reference):
                assert isinstance(got, dict) == isinstance(want, dict)
                if isinstance(want, dict):
                    assert set(got) == set(want)
                    for key in want:
                        assert got[key] == want[key]
                else:
                    assert got == want


def _learned_specs(rspn, rng, n):
    """Random specs over a learned RSPN's own columns: interval bounds
    and IN lists drawn from values its leaves hold (so bounds tie with
    histogram values), NULL-including ranges, ``<>`` two-interval
    ranges and transforms."""
    domains: dict = {}
    for node in compiled_mod.post_order(rspn.root):
        if isinstance(node, LeafNode):
            domains.setdefault(node.scope_index, []).append(node.domain_values())
    domains = {
        scope: np.unique(np.concatenate(parts))
        for scope, parts in domains.items()
    }
    scopes = sorted(domains)
    specs = []
    for _ in range(n):
        spec = EvaluationSpec()
        touched = rng.choice(
            scopes, size=min(len(scopes), int(rng.integers(1, 4))),
            replace=False,
        )
        for scope in map(int, touched):
            values = domains[scope]
            roll = rng.random()
            if roll < 0.4:
                low, high = np.sort(rng.choice(values, 2))
                spec.condition(scope, Range(
                    (Interval(float(low), float(high),
                              bool(rng.integers(2)), bool(rng.integers(2))),),
                    include_null=bool(rng.integers(2)),
                ))
            elif roll < 0.7:
                picked = rng.choice(values, size=int(rng.integers(1, 6)))
                spec.condition(scope, Range.points(map(float, picked)))
            elif roll < 0.85:
                spec.condition(
                    scope, Range.from_operator("<>", float(rng.choice(values)))
                )
            if roll >= 0.85 or rng.random() < 0.25:
                spec.transform(
                    scope, (IDENTITY, SQUARE, INVERSE_FACTOR)[int(rng.integers(3))]
                )
        specs.append(spec)
    return specs


class TestFusedFillOnLearnedModels:
    """The scope-fused leaf fill ``==`` the legacy per-leaf sweep on
    learned IMDb and flights ensembles, at the batch sizes serving
    produces (a lone request, a 2-query flush) and a large one."""

    @pytest.fixture(scope="class", params=["imdb", "flights"])
    def learned(self, request, tiny_imdb, tiny_flights):
        database = {"imdb": tiny_imdb, "flights": tiny_flights}[request.param]
        return DeepDB.learn(database, EnsembleConfig(sample_size=3_000))

    @pytest.mark.parametrize("n_specs", [1, 2, 300])
    def test_fused_equals_legacy(self, learned, n_specs):
        rng = np.random.default_rng(n_specs)
        for rspn in learned.ensemble.rspns:
            specs = _learned_specs(rspn, rng, n_specs)
            with kernels.use("legacy"):
                reference = rspn.evaluate_specs(specs)
            with kernels.use("numpy"):
                fused = rspn.evaluate_specs(specs)
            assert (fused == reference).all()
            assert compiled_for(rspn.root).kernel_stats()["scope_tables"] >= 1

    def test_store_mapped_form_fuses_too(self, learned, tmp_path):
        path = tmp_path / "model.rspn"
        learned.save(path)
        mapped = DeepDB.load(path, learned.database)
        try:
            rng = np.random.default_rng(17)
            for live, rspn in zip(learned.ensemble.rspns, mapped.ensemble.rspns):
                specs = _learned_specs(live, rng, 40)
                with kernels.use("numpy"):
                    fused = rspn.evaluate_specs(specs)
                    assert not rspn.materialized  # served from the mapping
                assert rspn.compiled_peek().kernel_stats()["scope_tables"] >= 1
                with kernels.use("legacy"):
                    reference = live.evaluate_specs(specs)
                assert (fused == reference).all()
        finally:
            mapped.close()

    def test_tables_are_built_by_the_first_query_only(self, learned, tmp_path):
        """Nothing is built at learn, save or load: the first query that
        conditions on a scope pays for that scope's table."""
        fresh = DeepDB.learn(learned.database, EnsembleConfig(sample_size=3_000))
        assert fresh.kernel_stats()["n_models"] == 0  # nothing compiled
        path = tmp_path / "model.rspn"
        fresh.save(path)
        mapped = DeepDB.load(path, learned.database)
        try:
            assert mapped.kernel_stats()["n_models"] == 0
            rspn = mapped.ensemble.rspns[0]
            rng = np.random.default_rng(3)
            rspn.evaluate_specs(_learned_specs(fresh.ensemble.rspns[0], rng, 1))
            stats = mapped.kernel_stats()
            assert 1 <= stats["scope_tables"] <= 3
            assert stats["scope_table_bytes"] > 0
        finally:
            mapped.close()


class TestPlanTransport:
    """The fused plan survives export/import and the sharded transport."""

    def test_plan_signature_round_trip(self):
        spn, _ = _workload(11)
        meta, arrays = export_tree_arrays(spn)
        signature = compiled_for(spn).plan_signature()
        assert meta["plan_signature"] == signature
        twin = import_tree_arrays(meta, arrays)
        assert compiled_for(twin).plan_signature() == signature

    def test_signatures_differ_across_trees(self):
        a, _ = _workload(11)
        b, _ = _workload(12)
        assert (
            compiled_for(a).plan_signature()
            != compiled_for(b).plan_signature()
        )

    @needs_shm
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_shm_bit_identity(self, workers):
        """Serial == sharded through the shm transport, all worker
        counts, with zero serial fallbacks -- which also proves the
        shipped plan signature matched the workers' recompiled plans."""
        spn, specs = _workload(21, n_specs=96)
        compiled = compiled_for(spn)
        with kernels.use("numpy"):
            serial = compiled.evaluate_batch(specs)
        evaluator = ShardedEvaluator(
            n_workers=workers, min_shard_size=1, mp_context=_MP_CONTEXT,
            transport="shm",
        )
        try:
            with kernels.use("numpy"):
                sharded = evaluator.evaluate_batch(compiled, specs)
            stats = evaluator.stats()
            assert stats["serial_fallbacks"] == 0
            assert stats["sharded_batches"] == 1
        finally:
            evaluator.close()
        assert (sharded == serial).all()


class TestArenaReuse:
    """Satellite: the arena is allocated once and reused everywhere."""

    def _fresh_compiled(self, seed=31):
        rng = np.random.default_rng(seed)
        scope = tuple(range(4))
        spn = _random_spn(rng, scope, depth=3)
        specs = [_random_spec(rng, scope) for _ in range(120)]
        return compiled_for(spn), specs

    def test_one_allocation_across_chunks(self, monkeypatch):
        compiled, specs = self._fresh_compiled()
        rows = compiled.plan.arena_rows + compiled.plan.stage_rows
        # Force ~8 chunks; the lease must still be taken exactly once.
        monkeypatch.setattr(compiled_mod, "_CHUNK_BUDGET", rows * 16)
        assert compiled.arena_allocations == 0
        with kernels.use("numpy"):
            compiled.evaluate_batch(specs)
        assert compiled.sweep_count >= 8
        assert compiled.arena_allocations == 1

    def test_pool_reuse_across_batches(self, monkeypatch):
        compiled, specs = self._fresh_compiled(seed=32)
        rows = compiled.plan.arena_rows + compiled.plan.stage_rows
        monkeypatch.setattr(compiled_mod, "_CHUNK_BUDGET", rows * 16)
        with kernels.use("numpy"):
            for _ in range(5):
                compiled.evaluate_batch(specs)
        # Same width every batch -> the pooled buffers are reused and
        # steady-state evaluation stops allocating.
        assert compiled.arena_allocations == 1

    def test_arena_smaller_than_legacy_matrix(self, small_model):
        """On learned ensembles the register-allocated arena (plus its
        staging block) undercuts the legacy n_nodes-row matrix."""
        small_model.cardinality("SELECT COUNT(*) FROM customer "
                                "WHERE customer.age > 40")
        stats = small_model.kernel_stats()
        assert stats["n_models"] >= 1
        assert stats["arena_bytes_per_column"] < stats["legacy_bytes_per_column"]

    def test_kernel_stats_shape(self, small_model):
        small_model.cardinality("SELECT COUNT(*) FROM customer "
                                "WHERE customer.age > 20")
        stats = small_model.kernel_stats()
        assert stats["active"] in ("numpy", "numba", "legacy")
        assert stats["sweeps"] >= 1
        assert stats["sweep_queries"] >= 1
        assert stats["sweep_ns_per_query"] > 0


class TestTransformDedupKey:
    """Satellite: dedup keys on the well-known label, ids otherwise."""

    def test_singletons_share_keys_across_list_objects(self):
        assert transform_dedup_key(IDENTITY) == "x"
        first = tuple(transform_dedup_key(t) for t in [IDENTITY, SQUARE])
        second = tuple(transform_dedup_key(t) for t in [IDENTITY, SQUARE])
        assert first == second  # distinct lists, same key

    def test_label_thief_stays_id_keyed(self):
        thief = Transform(lambda v: np.full_like(v, 7.0), 0.0, "x")
        assert well_known_label(thief) is None
        assert transform_dedup_key(thief) == id(thief)
        assert transform_dedup_key(thief) != transform_dedup_key(IDENTITY)

    def _leaf_spn(self):
        return DiscreteLeaf(
            0, "a0", np.array([1.0, 2.0, 3.0]),
            np.array([1.0, 1.0, 2.0]), 0.0,
        )

    def test_dedup_collapses_equal_singleton_lists(self, monkeypatch):
        """Two specs carrying IDENTITY in *distinct* list objects must
        evaluate the leaf once, not once per spec."""
        spn = self._leaf_spn()
        seen = []
        original = DiscreteScopeTable.evaluate

        def spy(self, prepared):
            seen.append(len(prepared.ranges))
            return original(self, prepared)

        monkeypatch.setattr(DiscreteScopeTable, "evaluate", spy)
        specs = []
        for _ in range(4):
            spec = EvaluationSpec()
            spec.transform(0, IDENTITY)  # fresh list per spec
            specs.append(spec)
        with kernels.use("numpy"):
            evaluate_batch(spn, specs)
        assert seen and seen[-1] == 1

    def test_thief_never_conflated_with_singleton(self):
        """A label thief with IDENTITY's label but different semantics
        must keep its own dedup slot -- conflation would silently apply
        the wrong transform to one of the specs."""
        spn = self._leaf_spn()
        thief = Transform(lambda v: np.full_like(v, 7.0), 0.0, "x")
        spec_real, spec_thief = EvaluationSpec(), EvaluationSpec()
        spec_real.transform(0, IDENTITY)
        spec_thief.transform(0, thief)
        results = {}
        for name in ("legacy", "numpy"):
            with kernels.use(name):
                results[name] = evaluate_batch(spn, [spec_real, spec_thief])
        expected_mean = (1.0 + 2.0 + 2.0 * 3.0) / 4.0
        for values in results.values():
            assert values[0] == pytest.approx(expected_mean)
            assert values[1] == pytest.approx(7.0)


class TestKernelTwins:
    """The pure-Python twins match their NumPy counterparts exactly."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 16, 33])
    def test_ordered_rowsum_matches_scalar_twin(self, m):
        rng = np.random.default_rng(m)
        matrix = rng.uniform(-10, 10, size=(5, m))
        vectorised = kernels.ordered_rowsum(matrix.copy())
        scalar = kernels.rowsum_fold_py(matrix.copy())
        assert (vectorised == scalar).all()
        np.testing.assert_allclose(vectorised, matrix.sum(axis=1), rtol=1e-12)

    def test_jitted_twins_match_python_twins(self):
        """On hosts with numba, jit(f) and f must agree bitwise; without
        numba they are the same function by construction."""
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0, 5, size=(4, 11))
        assert (
            kernels.rowsum_fold(matrix.copy())
            == kernels.rowsum_fold_py(matrix.copy())
        ).all()


class TestSilentFallback:
    """Satellite: kernel=numba without numba degrades silently."""

    def test_numba_resolves_without_numba(self):
        with kernels.use("numba"):
            active = kernels.resolve()
        if kernels.HAVE_NUMBA:
            assert active == "numba"
        else:
            assert active == "numpy"

    def test_describe_reports_request_and_resolution(self):
        with kernels.use("numba"):
            info = kernels.describe()
        assert info["requested"] == "numba"
        assert info["numba_available"] == kernels.HAVE_NUMBA
        if not kernels.HAVE_NUMBA:
            assert info["active"] == "numpy"

    def test_numba_request_still_answers_correctly(self):
        spn, specs = _workload(41, n_specs=20)
        with kernels.use("numpy"):
            reference = evaluate_batch(spn, specs)
        with kernels.use("numba"):  # resolves to numpy when numba absent
            values = evaluate_batch(spn, specs)
        assert (values == reference).all()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_kernel("bogus")

    def test_none_is_a_noop(self):
        before = kernels.get_kernel()
        kernels.set_kernel(None)
        assert kernels.get_kernel() == before


class TestAutotune:
    """Satellite: per-host crossover calibration."""

    def test_one_cpu_is_serial_only(self, monkeypatch):
        monkeypatch.setattr(autotune, "usable_cpus", lambda: 1)
        evaluator = ShardedEvaluator(n_workers=4, mp_context=_MP_CONTEXT)
        try:
            assert evaluator.autotune.mode == "serial-only"
            assert evaluator.min_shard_size == autotune.SERIAL_ONLY
            assert not evaluator.should_shard(10**9)
            stats = evaluator.stats()
            assert stats["pool_alive"] is False  # never even started
            assert stats["autotune"]["mode"] == "serial-only"
        finally:
            evaluator.close()

    def test_crossover_formula(self, monkeypatch):
        monkeypatch.setattr(autotune, "usable_cpus", lambda: 8)
        monkeypatch.setattr(autotune, "_serial_ns_per_spec", lambda: 1000.0)
        monkeypatch.setattr(
            autotune, "_dispatch_overhead_ns", lambda evaluator: 600_000.0
        )
        evaluator = ShardedEvaluator(n_workers=4, mp_context=_MP_CONTEXT)
        try:
            result = evaluator.autotune
            assert result.mode == "calibrated"
            # saved/spec = 1000 * (1 - 1/4) = 750; 600_000 / 750 = 800.
            assert result.min_shard_size == 800
            assert evaluator.min_shard_size == 800
            assert evaluator.should_shard(800)
            assert not evaluator.should_shard(799)
        finally:
            evaluator.close()

    @pytest.mark.parametrize(
        "overhead,expected", [(1.0, 16), (10**12, 8192)]
    )
    def test_crossover_clamps(self, monkeypatch, overhead, expected):
        monkeypatch.setattr(autotune, "usable_cpus", lambda: 8)
        monkeypatch.setattr(autotune, "_serial_ns_per_spec", lambda: 1000.0)
        monkeypatch.setattr(
            autotune, "_dispatch_overhead_ns", lambda evaluator: overhead
        )
        evaluator = ShardedEvaluator(n_workers=4, mp_context=_MP_CONTEXT)
        try:
            assert evaluator.min_shard_size == expected
        finally:
            evaluator.close()

    def test_explicit_threshold_is_static(self):
        evaluator = ShardedEvaluator(
            n_workers=2, min_shard_size=7, mp_context=_MP_CONTEXT
        )
        try:
            assert evaluator.autotune.mode == "static"
            assert evaluator.min_shard_size == 7
            assert evaluator.stats()["autotune"]["min_shard_size"] == 7
        finally:
            evaluator.close()

    def test_calibration_failure_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(autotune, "usable_cpus", lambda: 8)

        def boom():
            raise RuntimeError("measurement failed")

        monkeypatch.setattr(autotune, "_serial_ns_per_spec", boom)
        evaluator = ShardedEvaluator(n_workers=4, mp_context=_MP_CONTEXT)
        try:
            assert evaluator.autotune.mode == "serial-only"
            assert evaluator.min_shard_size == autotune.SERIAL_ONLY
        finally:
            evaluator.close()

    def test_calibration_runs_on_this_host(self):
        """Whatever this host is, calibrate() must return a sane record
        (on the 1-CPU CI container: serial-only, no pool)."""
        evaluator = ShardedEvaluator(n_workers=2, mp_context=_MP_CONTEXT)
        try:
            result = evaluator.autotune
            assert result.mode in ("serial-only", "calibrated")
            assert result.min_shard_size >= 1
            if autotune.usable_cpus() <= 1:
                assert result.mode == "serial-only"
                assert not evaluator.stats()["pool_alive"]
        finally:
            evaluator.close()


class TestServingStats:
    """/stats carries the kernel + autotune telemetry."""

    def test_snapshot_includes_kernel_stats(self, small_model):
        from repro.serving.session import ModelSession

        session = ModelSession("m", small_model)
        small_model.cardinality("SELECT COUNT(*) FROM customer")
        snap = session.snapshot()
        assert "kernel" in snap
        assert snap["kernel"]["active"] in ("numpy", "numba", "legacy")
        assert snap["kernel"]["sweeps"] >= 1
