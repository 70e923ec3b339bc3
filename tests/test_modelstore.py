"""Model store: mmapped persistence, corruption safety, lazy page-in.

The differential contract is ``==``, never ``allclose``: a model loaded
from a store file must answer bit-identically to the live model it was
saved from -- under the fused sweep and its reference oracle
(``tests/reference_sweep.py``), and through the serving registry that
maps it in on first use.
"""

from __future__ import annotations

import gc
import json
import shutil

import numpy as np
import pytest

from repro.core import compiled, modelstore
from repro.core.ensemble import EnsembleConfig
from repro.core.modelstore import (
    MappedRSPN,
    ModelStoreError,
    is_store_file,
    open_store,
    read_catalog,
    write_store,
)
from repro.deepdb import DeepDB
from repro.serving import ModelRegistry, Request
from tests.conftest import build_customer_orders, mapped_store_files
from tests.reference_sweep import reference_sweep

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


@pytest.fixture(scope="module")
def database():
    return build_customer_orders(n_customers=500, seed=7)


@pytest.fixture(scope="module")
def live(database):
    return DeepDB.learn(database, EnsembleConfig(sample_size=4_000))


@pytest.fixture(scope="module")
def store_path(live, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "model.rspn"
    live.save(path)
    return path


@pytest.fixture(scope="module")
def expected(live):
    cards = [float(v) for v in live.cardinality_batch(CARDINALITY_SQLS)]
    approx = [live.approximate(sql) for sql in APPROXIMATE_SQLS]
    return cards, approx


def _answers(deepdb):
    cards = [float(v) for v in deepdb.cardinality_batch(CARDINALITY_SQLS)]
    approx = [deepdb.approximate(sql) for sql in APPROXIMATE_SQLS]
    return cards, approx


def _assert_bit_identical(got, expected):
    got_cards, got_approx = got
    exp_cards, exp_approx = expected
    assert got_cards == exp_cards
    assert got_approx == exp_approx


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_save_default_is_store_format(self, store_path):
        assert is_store_file(store_path)

    def test_store_answers_bit_identical(self, store_path, database, expected):
        loaded = DeepDB.load(store_path, database)
        try:
            _assert_bit_identical(_answers(loaded), expected)
            assert all(
                isinstance(rspn, MappedRSPN) for rspn in loaded.ensemble.rspns
            )
        finally:
            loaded.close()

    @pytest.mark.parametrize("kernel", ["numpy", "legacy"])
    def test_bit_identical_across_kernels(
        self, store_path, database, expected, kernel
    ):
        loaded = DeepDB.load(store_path, database)
        try:
            if kernel == "legacy":
                with reference_sweep():
                    _assert_bit_identical(_answers(loaded), expected)
            else:
                _assert_bit_identical(_answers(loaded), expected)
        finally:
            loaded.close()

    def test_plan_signature_preserved(self, store_path, live, database):
        live_meta, _ = compiled.export_tree_arrays(live.ensemble.rspns[0].root)
        catalog = read_catalog(store_path)
        assert catalog["rspns"][0]["plan_signature"] == live_meta["plan_signature"]
        loaded = DeepDB.load(store_path, database)
        try:
            twin_meta, _ = compiled.export_tree_arrays(
                loaded.ensemble.rspns[0].root
            )
            assert twin_meta["plan_signature"] == live_meta["plan_signature"]
        finally:
            loaded.close()

    def test_non_store_files_rejected(self, live, database, tmp_path):
        """Only the store loads: a JSON model document, an empty file and
        random bytes each fail with ModelStoreError (a missing file stays
        FileNotFoundError)."""
        document = tmp_path / "model.json"
        document.write_text(json.dumps({"format": "repro-rspn", "rspns": []}))
        empty = tmp_path / "empty.rspn"
        empty.write_bytes(b"")
        noise = tmp_path / "noise.rspn"
        noise.write_bytes(np.random.default_rng(0).bytes(4096))
        for path in (document, empty, noise):
            with pytest.raises(ModelStoreError):
                DeepDB.load(path, database)
        with pytest.raises(FileNotFoundError):
            DeepDB.load(tmp_path / "absent.rspn", database)

    def test_routing_state_survives(self, store_path, database, expected):
        """Updates after a store load route through the same persisted
        KMeans state as updates on a live learned twin -- the two must
        stay bit-identical even after mutation."""
        twin = DeepDB.learn(database, EnsembleConfig(sample_size=4_000))
        _assert_bit_identical(_answers(twin), expected)
        from_store = DeepDB.load(store_path, database)
        try:
            rows = [
                {"c_id": 900_000 + i, "region": "EU", "age": 20.0 + i}
                for i in range(12)
            ]
            for row in rows:
                from_store.insert("customer", row)
                twin.insert("customer", row)
            _assert_bit_identical(_answers(from_store), _answers(twin))
        finally:
            from_store.close()


class TestLazyLeafSlots:
    """A store-loaded model's lazy ``scope -> leaf slots`` map answers
    ``in``, ``[]``, iteration and ``len`` exactly like the eager map of
    the same tree, absent scope ids included."""

    @pytest.fixture(scope="class", params=["imdb", "flights"])
    def forms(self, request, tmp_path_factory):
        database = request.getfixturevalue(f"tiny_{request.param}")
        live = DeepDB.learn(database, EnsembleConfig(sample_size=2_000))
        path = tmp_path_factory.mktemp("lazy") / "model.rspn"
        live.save(path)
        loaded = DeepDB.load(path, database)
        pairs = [
            (mapped._compiled().plan.leaf_slots_by_scope,
             compiled.compiled_for(rspn.root).plan.leaf_slots_by_scope)
            for mapped, rspn in zip(loaded.ensemble.rspns, live.ensemble.rspns)
        ]
        yield pairs
        loaded.close()

    def test_lazy_map_equals_eager_map(self, forms):
        for lazy, eager in forms:
            assert len(lazy) == len(eager)
            assert list(lazy) == sorted(eager)
            for scope in eager:
                assert scope in lazy
                got, expected = lazy[scope], eager[scope]
                assert [slot for slot, _ in got] == [slot for slot, _ in expected]
                assert [
                    (type(leaf), leaf.scope_index, leaf.attribute) for _, leaf in got
                ] == [
                    (type(leaf), leaf.scope_index, leaf.attribute)
                    for _, leaf in expected
                ]

    def test_absent_scopes(self, forms):
        for lazy, eager in forms:
            present = sorted(eager)
            for scope in (present[0] - 1, present[-1] + 1):
                assert scope not in eager
                assert scope not in lazy
                with pytest.raises(KeyError):
                    lazy[scope]

    def test_absent_scopes_between_present_ids(self):
        # Learned models cover every column, so gaps need a synthetic map.
        lazy = compiled._LazyLeafSlots(
            scopes=np.array([2, 5, 9]), starts=np.array([0, 2, 3]),
            order=np.arange(4), kinds=None, attributes=None, offsets=None,
            ns=None, leaf_data=None,
        )
        assert len(lazy) == 3 and list(lazy) == [2, 5, 9]
        for scope in range(-1, 12):
            assert (scope in lazy) == (scope in (2, 5, 9))
            if scope not in (2, 5, 9):
                with pytest.raises(KeyError):
                    lazy[scope]


# ----------------------------------------------------------------------
# Corruption safety
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.fixture()
    def copy(self, store_path, tmp_path):
        path = tmp_path / "copy.rspn"
        shutil.copy(store_path, path)
        return path

    def test_catalog_and_verify_clean(self, store_path):
        catalog = read_catalog(store_path)
        assert catalog["format"] == "repro-modelstore"
        assert catalog["blob_bytes"] > 0
        with open_store(store_path) as store:
            assert store.verify() == len(catalog["rspns"])

    @pytest.mark.parametrize("keep", [4, 12, 19])
    def test_truncated_prefix(self, copy, keep):
        with open(copy, "r+b") as handle:
            handle.truncate(keep)
        with pytest.raises(ModelStoreError):
            read_catalog(copy)

    def test_truncated_blob(self, copy, database):
        catalog = read_catalog(copy)
        with open(copy, "r+b") as handle:
            handle.truncate(catalog["file_bytes"] - 32)
        with open_store(copy) as store:  # header intact: open succeeds
            with pytest.raises(ModelStoreError, match="truncated"):
                store.load_ensemble(database)

    def test_bit_flip_in_blob(self, copy, database):
        catalog = read_catalog(copy)
        offset = catalog["payload_base"] + catalog["blob_bytes"] // 2
        with open(copy, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with open_store(copy) as store:
            with pytest.raises(ModelStoreError, match="checksum"):
                store.load_ensemble(database)

    def test_bit_flip_in_header(self, copy):
        with open(copy, "r+b") as handle:
            handle.seek(24)
            byte = handle.read(1)
            handle.seek(24)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ModelStoreError, match="header"):
            read_catalog(copy)

    def test_checksum_validated_lazily_once(self, store_path, database):
        with open_store(store_path) as store:
            assert store._verified == set()
            ensemble = store.load_ensemble(database)
            assert store._verified == {0}
            ensemble = None  # noqa: F841 - release views before close

    def test_bad_magic_is_not_a_store(self, copy):
        with open(copy, "r+b") as handle:
            handle.write(b"NOTASTOR")
        assert not is_store_file(copy)
        with pytest.raises(ModelStoreError, match="magic"):
            read_catalog(copy)


# ----------------------------------------------------------------------
# Mapping lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_leaf_views_are_read_only_and_zero_copy(self, store_path, database):
        loaded = DeepDB.load(store_path, database)
        try:
            root = loaded.ensemble.rspns[0].root
            frozen = [
                array
                for node in compiled.post_order(root)
                for attr in ("counts", "values", "edges", "sums", "distinct")
                if isinstance(array := getattr(node, attr, None), np.ndarray)
            ]
            assert frozen and all(not a.flags.writeable for a in frozen)
            assert all(not a.flags.owndata for a in frozen)
        finally:
            loaded.close()

    def test_close_unmaps_deterministically(self, store_path, database):
        loaded = DeepDB.load(store_path, database)
        loaded.cardinality(CARDINALITY_SQLS[0])
        store = loaded.store
        target = str(store_path)
        assert target in mapped_store_files()
        loaded.close()
        assert store.closed
        assert target not in mapped_store_files()

    def test_store_refuses_load_after_close(self, store_path, database):
        store = open_store(store_path)
        store.close()
        with pytest.raises(ModelStoreError, match="closed"):
            store.load_ensemble(database)

    def test_gc_sweep_unmaps_abandoned_model(self, store_path, database):
        loaded = DeepDB.load(store_path, database)
        loaded.store.close()  # want-close with the ensemble still alive
        assert str(store_path) in mapped_store_files()
        loaded = None  # noqa: F841
        gc.collect()
        modelstore.sweep_pending()
        assert str(store_path) not in mapped_store_files()

    def test_insert_thaws_copy_on_write(self, store_path, database):
        loaded = DeepDB.load(store_path, database)
        try:
            rspn = loaded.ensemble.rspns[0]
            generation = loaded.generation
            loaded.insert(
                "customer", {"c_id": 987_654, "region": "EU", "age": 33}
            )
            assert loaded.generation > generation
            thawed = [
                r for r in loaded.ensemble.rspns if "customer" in r.tables
            ]
            assert thawed and all(r._thawed for r in thawed)
            mutable = [
                getattr(node, attr)
                for r in thawed
                for node in compiled.post_order(r.root)
                for attr in ("counts", "values", "edges", "sums", "distinct")
                if isinstance(getattr(node, attr, None), np.ndarray)
            ]
            assert all(a.flags.writeable for a in mutable)
            assert rspn is loaded.ensemble.rspns[0]
        finally:
            loaded.close()

    def test_thaw_tree_counts_copies(self, store_path, database):
        loaded = DeepDB.load(store_path, database)
        try:
            root = loaded.ensemble.rspns[0].root
            first = compiled.thaw_tree(root)
            assert first > 0
            assert compiled.thaw_tree(root) == 0  # idempotent
        finally:
            loaded.close()


# ----------------------------------------------------------------------
# Lazy page-in of the one store-backed model
# ----------------------------------------------------------------------
@pytest.fixture()
def lazy_registry(store_path, database):
    registry = ModelRegistry()
    registry.register_store("only", store_path, database)
    yield registry
    registry.close()
    gc.collect()
    modelstore.sweep_pending()


class TestPager:
    """A store-backed model maps in on its first ``session()`` call; a
    registry holds one model."""

    def test_lazy_registration_pages_in_on_first_query(
        self, lazy_registry, expected
    ):
        assert lazy_registry.loaded_session() is None
        assert lazy_registry.snapshot() == {}
        session = lazy_registry.session()
        assert lazy_registry.loaded_session() is session
        assert session.deepdb.store is not None  # mapped, not parsed
        assert session.run_one(
            Request("cardinality", CARDINALITY_SQLS[0])
        ) == expected[0][0]
        got = session.run_batch(
            [Request("cardinality", sql) for sql in CARDINALITY_SQLS]
            + [Request("approximate", sql) for sql in APPROXIMATE_SQLS]
        )
        _assert_bit_identical(
            (got[:len(CARDINALITY_SQLS)], got[len(CARDINALITY_SQLS):]),
            expected,
        )
        assert set(lazy_registry.snapshot()) == {"only"}

    def test_unnamed_routing_to_single_store(self, live, database, tmp_path):
        path = tmp_path / "only.rspn"
        write_store(live.ensemble, path)
        registry = ModelRegistry()
        registry.register_store("only", path, database)
        try:
            assert registry.session() is registry.session("only")
            with pytest.raises(LookupError, match="serves 'only'"):
                registry.session("other")
        finally:
            registry.close()

    def test_name_conflicts_refused(
        self, lazy_registry, store_path, live, database
    ):
        """A second ``register``/``register_store`` is refused, under
        the same name or another one."""
        for name in ("only", "second"):
            with pytest.raises(ValueError, match="already registered"):
                lazy_registry.register_store(name, store_path, database)
            with pytest.raises(ValueError, match="already registered"):
                lazy_registry.register(name, live)
        assert lazy_registry.session().name == "only"
        direct = ModelRegistry()
        direct.register("live", live)
        with pytest.raises(ValueError, match="already registered"):
            direct.register_store("store", store_path, database)

    def test_register_store_validates_header(self, database, tmp_path):
        path = tmp_path / "bad.rspn"
        path.write_bytes(b"RSPNSTR\x01" + b"\xff" * 64)
        registry = ModelRegistry()
        with pytest.raises(ModelStoreError):
            registry.register_store("bad", path, database)
        with pytest.raises(LookupError, match="no model is registered"):
            registry.session()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_models_lists_and_verifies(self, store_path, capsys):
        from repro.cli import main

        assert main(["models", "--store", str(store_path), "--verify"]) == 0
        output = capsys.readouterr().out
        assert "blob bytes" in output
        assert "checksums OK" in output

    def test_models_directory_and_corruption_exit_code(
        self, store_path, tmp_path, capsys
    ):
        from repro.cli import main

        good = tmp_path / "good.rspn"
        bad = tmp_path / "bad.rspn"
        shutil.copy(store_path, good)
        shutil.copy(store_path, bad)
        catalog = read_catalog(bad)
        with open(bad, "r+b") as handle:
            handle.seek(catalog["payload_base"] + 100)
            handle.write(b"\xff\xff\xff\xff")
        assert main(["models", "--store", str(tmp_path), "--verify"]) == 1
        output = capsys.readouterr().out
        assert "CORRUPT" in output
        assert "checksums OK" in output  # the good one still listed
