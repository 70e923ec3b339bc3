"""Differential property suite for the fused sweep.

The fused arena sweep of :mod:`repro.core.compiled` is the only
production kernel; the full-matrix sweep of ``tests/reference_sweep.py``
is its reference oracle.  The two must return **bit-identical**
answers, ``==`` not ``allclose``.  This suite turns that promise into
properties:

- random SPNs x random specs, both leaf types;
- batches of one, uneven batch sizes and empty selections pinned to
  exactly ``0.0``;
- uneven chunk boundaries (``_CHUNK_BUDGET`` swept down so batches
  split into ragged chunks over a reused arena lease);
- GROUP BY fan-out through the full query compiler;
- the fused plan surviving the store's tree export/import;
- the arena lease/pool contract (one allocation per evaluator, reused
  across chunks and batches);
- the transform dedup key (well-known singletons share a slot across
  distinct list objects; a label thief never steals a singleton's
  slot);
- the surface the end-to-end benchmark relies on (``kernel="auto"``,
  ``kernels.describe()``, ``kernel_stats()``, the ``serve`` flags).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import compiled as compiled_mod
from repro.core import kernels, specpack
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
    BinnedLeaf,
    DiscreteLeaf,
    DiscreteScopeTable,
    Transform,
    transform_dedup_key,
    well_known_label,
)
from repro.core.nodes import LeafNode, ProductNode, SumNode, iter_nodes
from repro.core.ranges import Interval, Range
from repro.deepdb import DeepDB
from tests.conftest import build_customer_orders
from tests.reference_sweep import reference_evaluate, reference_sweep
from tests.test_nodes_inference import _random_spec, _random_spn


def _workload(seed, n_specs=64):
    rng = np.random.default_rng(seed)
    scope = tuple(range(int(rng.integers(1, 5))))
    spn = _random_spn(rng, scope, depth=int(rng.integers(1, 4)))
    specs = [_random_spec(rng, scope) for _ in range(n_specs)]
    return spn, specs


def _spn_with_both_leaf_kinds(rng, scope):
    """A random SPN holding at least one DiscreteLeaf and one BinnedLeaf."""
    while True:
        spn = _random_spn(rng, scope, depth=2)
        kinds = {
            type(node) for node in iter_nodes(spn)
            if isinstance(node, (DiscreteLeaf, BinnedLeaf))
        }
        if kinds == {DiscreteLeaf, BinnedLeaf}:
            return spn


def _kernel_results(spn, specs):
    """``{sweep: values}``: the reference oracle and the fused sweep."""
    return {
        "reference": reference_evaluate(spn, specs),
        "numpy": evaluate_batch(spn, specs),
    }


def _assert_all_equal(results):
    reference = results["reference"]
    for name, values in results.items():
        assert values.shape == reference.shape
        assert (values == reference).all(), (
            f"kernel {name!r} diverged from the reference sweep"
        )


def _requests(rspn, n):
    """``n`` distinct expectation requests over one RSPN, mixing range
    widths, transforms and an unconstrained entry."""
    numeric = next(name for name in rspn.column_names if name.endswith("age"))
    requests = [(None, None)]
    for i in range(n - 1):
        low = 15 + (i * 3) % 40
        conditions = {numeric: Range.from_operator(">", float(low))}
        transforms = {numeric: [IDENTITY]} if i % 3 == 0 else None
        requests.append((conditions, transforms))
    return requests[:n]


@pytest.fixture(scope="module")
def small_model():
    database = build_customer_orders(n_customers=500, seed=3)
    return DeepDB.learn(database, EnsembleConfig(sample_size=4_000))


class TestKernelDifferential:
    """fused == reference, bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_spns_random_specs(self, seed):
        spn, specs = _workload(seed)
        _assert_all_equal(_kernel_results(spn, specs))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_spns_with_binned_leaves(self, seed):
        """Trees guaranteed to mix discrete and binned leaves: binned
        leaves are where batch-composition invariance is easiest to
        lose (see the row-wise reduction note in
        ``BinnedLeaf.evaluate_batch``)."""
        rng = np.random.default_rng(400 + seed)
        scope = tuple(range(3))
        spn = _spn_with_both_leaf_kinds(rng, scope)
        specs = [_random_spec(rng, scope) for _ in range(31)]
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
            assert (values == unchunked["reference"]).all(), (
                f"kernel {name!r} diverged under _CHUNK_BUDGET={budget}"
            )

    def test_batch_composition_invariance_fused(self):
        """Splitting one batch into sub-batches changes nothing."""
        spn, specs = _workload(5, n_specs=40)
        whole = evaluate_batch(spn, specs)
        parts = np.concatenate(
            [evaluate_batch(spn, specs[i:i + 7])
             for i in range(0, len(specs), 7)]
        )
        assert (whole == parts).all()

    def test_uneven_batches(self, small_model):
        """A batch of one and uneven batch sizes on a learned RSPN: the
        fused sweep ``==`` the oracle, and every request ``==`` its
        answer inside the largest batch."""
        rspn = max(small_model.ensemble.rspns, key=lambda r: len(r.column_names))
        full = rspn.expectation_batch(_requests(rspn, 23))
        for size in (1, 3, 5, 7, 10, 23):
            requests = _requests(rspn, size)
            fused = rspn.expectation_batch(requests)
            with reference_sweep():
                reference = rspn.expectation_batch(requests)
            assert list(fused) == list(reference), f"batch of {size}"
            assert list(fused) == list(full[:size]), f"batch of {size}"

    def test_empty_selection_pinned_zero(self, small_model):
        rspn = small_model.ensemble.rspns[0]
        column = rspn.column_names[0]
        requests = _requests(rspn, 8)
        empty_slots = (0, 3, 7)
        for slot in empty_slots:
            requests[slot] = ({column: Range.nothing()}, None)
        fused = rspn.expectation_batch(requests)
        with reference_sweep():
            reference = rspn.expectation_batch(requests)
        for slot in empty_slots:
            assert fused[slot] == 0.0
        assert list(fused) == list(reference)

    def test_group_by_fanout(self, small_model):
        """GROUP BY queries fan one query out into one spec per group;
        the fused sweep must agree with the oracle on every group's
        value, bitwise."""
        queries = [
            "SELECT COUNT(*) FROM customer GROUP BY customer.region",
            "SELECT AVG(customer.age) FROM customer "
            "WHERE customer.age > 30 GROUP BY customer.region",
            "SELECT COUNT(*) FROM customer, orders "
            "WHERE customer.age > 25 GROUP BY orders.channel",
        ]
        with reference_sweep():
            reference = small_model.approximate_batch(queries)
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
    """The scope-fused leaf fill ``==`` the per-leaf reference sweep on
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
            reference = reference_evaluate(rspn.root, specs)
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
                fused = rspn.evaluate_specs(specs)
                assert not rspn.materialized  # served from the mapping
                assert rspn.compiled_peek().kernel_stats()["scope_tables"] >= 1
                reference = reference_evaluate(live.root, specs)
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


class TestFusedFillErrors:
    def test_leaf_type_error_propagates_after_one_call(self, monkeypatch):
        """A ``TypeError`` raised inside a binned leaf's kernel is a
        bug, not a signal to retry without ``prepared``: it must reach
        the caller after exactly one call."""
        rng = np.random.default_rng(402)
        scope = tuple(range(3))
        spn = _spn_with_both_leaf_kinds(rng, scope)
        binned = next(n for n in iter_nodes(spn) if isinstance(n, BinnedLeaf))
        spec = EvaluationSpec()
        spec.condition(binned.scope_index, Range.from_operator(">", 0.0))
        calls = []

        def broken(self, ranges, transforms, prepared=None):
            calls.append(prepared)
            raise TypeError("broken binned kernel")

        monkeypatch.setattr(BinnedLeaf, "evaluate_batch", broken)
        with pytest.raises(TypeError, match="broken binned kernel"):
            evaluate_batch(spn, [spec])
        assert len(calls) == 1


class TestPlanTransport:
    """The fused plan survives the store's tree export/import."""

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

    @pytest.mark.parametrize("seed", range(4))
    def test_imported_twin_evaluates_bit_identically(self, seed):
        """A tree round-tripped through the flat-array export and the
        blob codec (both leaf types) answers ``==`` the original."""
        rng = np.random.default_rng(950 + seed)
        scope = tuple(range(3))
        spn = _spn_with_both_leaf_kinds(rng, scope)
        specs = [_random_spec(rng, scope) for _ in range(21)]
        expected = evaluate_batch(spn, specs)
        meta, arrays = export_tree_arrays(spn)
        twin = import_tree_arrays(
            *specpack.read_blob(specpack.blob_bytes(meta, arrays))
        )
        actual = compiled_mod.CompiledRSPN(twin).evaluate_batch(specs)
        assert list(actual) == list(expected)


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
        compiled.evaluate_batch(specs)
        assert compiled.sweep_count >= 8
        assert compiled.arena_allocations == 1

    def test_pool_reuse_across_batches(self, monkeypatch):
        compiled, specs = self._fresh_compiled(seed=32)
        rows = compiled.plan.arena_rows + compiled.plan.stage_rows
        monkeypatch.setattr(compiled_mod, "_CHUNK_BUDGET", rows * 16)
        for _ in range(5):
            compiled.evaluate_batch(specs)
        # Same width every batch -> the pooled buffers are reused and
        # steady-state evaluation stops allocating.
        assert compiled.arena_allocations == 1

    def test_arena_smaller_than_legacy_matrix(self, small_model):
        """On learned ensembles the register-allocated arena (plus its
        staging block) undercuts a full n_nodes-row matrix."""
        small_model.cardinality("SELECT COUNT(*) FROM customer "
                                "WHERE customer.age > 40")
        stats = small_model.kernel_stats()
        forms = [rspn.compiled_peek() for rspn in small_model.ensemble.rspns]
        full_matrix = sum(8 * form.n_nodes for form in forms if form is not None)
        assert stats["n_models"] >= 1
        assert stats["arena_bytes_per_column"] < full_matrix

    def test_kernel_stats_shape(self, small_model):
        small_model.cardinality("SELECT COUNT(*) FROM customer "
                                "WHERE customer.age > 20")
        stats = small_model.kernel_stats()
        assert stats["active"] == "numpy"
        assert stats["sweeps"] >= 1
        assert stats["sweep_queries"] >= 1
        assert stats["sweep_ns_per_query"] > 0


class TestCacheLifetime:
    """A cached compiled form never keeps its own root alive: the cache
    is keyed weakly on the root, so a form that references its root
    (a sum root is one of the plan's sum nodes) would pin both."""

    @pytest.mark.parametrize("root_type", [SumNode, ProductNode])
    def test_cache_entry_dies_with_its_root(self, root_type):
        rng = np.random.default_rng(5)
        scope = (0, 1)

        def product():
            return ProductNode(scope, [_random_spn(rng, (i,), depth=0)
                                       for i in scope])

        root = (SumNode(scope, [product(), product()], counts=[2.0, 3.0])
                if root_type is SumNode else product())
        evaluate_batch(root, [_random_spec(rng, scope) for _ in range(4)])
        form = compiled_mod.compiled_for(root)
        assert form.refresh_weights()  # the plan still reaches its nodes
        cached = len(compiled_mod._CACHE)
        root_ref, form_ref = weakref.ref(root), weakref.ref(form)
        del root, form
        gc.collect()
        assert root_ref() is None
        assert form_ref() is None
        assert len(compiled_mod._CACHE) < cached


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
        results = _kernel_results(spn, [spec_real, spec_thief])
        expected_mean = (1.0 + 2.0 + 2.0 * 3.0) / 4.0
        for values in results.values():
            assert values[0] == pytest.approx(expected_mean)
            assert values[1] == pytest.approx(7.0)


class TestSilentFallback:
    """``None``/``"auto"`` resolve to the fused sweep without a word;
    every other kernel name is refused."""

    def test_describe_reports_request_and_resolution(self):
        assert kernels.describe()["requested"] == "auto"
        assert kernels.describe()["active"] == "numpy"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernels.check("bogus")

    def test_none_is_a_noop(self):
        before = kernels.describe()
        kernels.check(None)
        kernels.check("auto")
        assert kernels.describe() == before


def _scalar_fold(a):
    """Scalar reference for :func:`kernels.ordered_rowsum`: the same
    halving fold, one element at a time (consumes ``a``)."""
    n_rows, m = a.shape
    out = np.zeros(n_rows, dtype=np.float64)
    if m == 0:
        return out
    for r in range(n_rows):
        mm = m
        while mm > 1:
            h = (mm + 1) // 2
            for j in range(mm - h):
                a[r, j] = a[r, j] + a[r, j + h]
            mm = h
        out[r] = a[r, 0]
    return out


class TestKernelTwins:
    """The vectorised fold matches its scalar reference exactly."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 16, 33])
    def test_ordered_rowsum_matches_scalar_twin(self, m):
        rng = np.random.default_rng(m)
        matrix = rng.uniform(-10, 10, size=(5, m))
        vectorised = kernels.ordered_rowsum(matrix.copy())
        scalar = _scalar_fold(matrix.copy())
        assert (vectorised == scalar).all()
        np.testing.assert_allclose(vectorised, matrix.sum(axis=1), rtol=1e-12)


class TestServingStats:
    """/stats carries the kernel telemetry."""

    def test_snapshot_includes_kernel_stats(self, small_model):
        from repro.serving.session import ModelSession

        session = ModelSession("m", small_model)
        small_model.cardinality("SELECT COUNT(*) FROM customer")
        snap = session.snapshot()
        assert "kernel" in snap
        assert snap["kernel"]["active"] == "numpy"
        assert snap["kernel"]["sweeps"] >= 1


def test_benchmark_surface_contract(small_model, tmp_path, capsys):
    """What ``benchmarks/e2e`` calls keeps working: ``kernel="auto"``
    serves, other kernel names are refused, ``kernels.describe()`` and
    ``kernel_stats()`` keep their keys, and ``serve`` lists none of the
    removed flags."""
    from repro.cli import main
    from repro.serving import ModelRegistry, Request

    path = tmp_path / "model.rspn"
    small_model.save(path)
    sql = "SELECT COUNT(*) FROM customer WHERE customer.age > 30"
    registry = ModelRegistry()
    try:
        registry.register_store("m", path, small_model.database, kernel="auto")
        served = registry.session("m").run_one(Request("cardinality", sql))
        assert served == small_model.cardinality(sql)
        for kernel in ("numba", "numpy", "legacy"):
            with pytest.raises(ValueError, match="the only kernel"):
                registry.register_store(
                    kernel, path, small_model.database, kernel=kernel
                )
    finally:
        registry.close()

    assert kernels.describe() == {
        "requested": "auto", "active": "numpy", "numba_available": False,
    }
    stats = small_model.kernel_stats()
    assert stats["sweep_queries"] >= 1
    assert stats["sweep_ns_total"] > 0

    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    usage = capsys.readouterr().out
    assert "--model" in usage
    for flag in ("--shards", "--transport", "--kernel", "--memory-budget-mb",
                 "--name"):
        assert flag not in usage
