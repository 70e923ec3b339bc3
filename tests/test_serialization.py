"""Round-trip tests for the model store's metadata codec.

Every RSPN and ensemble here goes through the one on-disk format:
``write_store`` -> ``open_store`` -> ``load_ensemble``.  The node tree
travels as flat specpack arrays; everything else (sizes, config,
functional dependencies, edges, RDC caches) rides in the JSON header
encoded by :mod:`repro.core.serialization`.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compiled
from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, SPNEnsemble, learn_ensemble
from repro.core.leaves import BinnedLeaf, DiscreteLeaf, IDENTITY
from repro.core.modelstore import (
    _HEADER_PREFIX,
    MAGIC,
    ModelStoreError,
    open_store,
    read_catalog,
    write_store,
)
from repro.core.nodes import LeafNode, ProductNode
from repro.core.ranges import Range
from repro.core.rspn import RSPN, FunctionalDependency, RspnConfig
from repro.engine.query import Predicate, Query


def _learn_small_rspn(seed=0, rows=600):
    rng = np.random.default_rng(seed)
    region = rng.integers(0, 3, rows).astype(float)
    age = np.where(region == 0, rng.normal(60, 5, rows), rng.normal(30, 5, rows))
    age[rng.random(rows) < 0.05] = np.nan
    income = rng.normal(100, 40, rows)
    data = np.column_stack([region, age, income])
    return RSPN.learn(
        data,
        ["t.region", "t.age", "t.income"],
        [True, False, False],
        tables={"t"},
        config=RspnConfig(max_distinct_leaf=16, seed=seed),
    )


def _single(rspn):
    ensemble = SPNEnsemble(None)
    ensemble.add(rspn)
    return ensemble


@contextlib.contextmanager
def _reloaded(ensemble, path, database=None):
    """Write ``ensemble`` as a store and yield its mapped reload."""
    write_store(ensemble, path)
    with open_store(path) as store:
        yield store.load_ensemble(database)


def _leaf_pairs(original, restored, kind):
    pairs = [
        (a, b)
        for a, b in zip(compiled.post_order(original.root),
                        compiled.post_order(restored.root))
        if isinstance(a, kind)
    ]
    assert pairs, f"fixture RSPN has no {kind.__name__}"
    for a, b in pairs:
        assert type(b) is type(a)
        assert (b.scope_index, b.attribute) == (a.scope_index, a.attribute)
    return pairs


def _header(raw):
    (length,) = struct.unpack_from("<Q", raw, len(MAGIC))
    return raw[_HEADER_PREFIX:_HEADER_PREFIX + length]


def _strict_json(payload):
    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    return json.loads(payload, parse_constant=reject)


@pytest.fixture(scope="module")
def small_rspn():
    return _learn_small_rspn()


@pytest.fixture(scope="module")
def fd_rspn():
    """An RSPN whose FD mapping holds a NaN key and a NULL dependent."""
    rng = np.random.default_rng(4)
    source = rng.integers(0, 5, 400).astype(float)
    dependent = source * 10.0
    other = rng.normal(0, 1, 400)
    mapping = {s: s * 10.0 for s in range(5)}
    mapping[math.nan] = None
    mapping[7.0] = math.inf
    return RSPN.learn(
        np.column_stack([source, dependent, other]),
        ["t.a", "t.b", "t.c"],
        [True, True, False],
        tables={"t"},
        functional_dependencies=[FunctionalDependency("t.a", "t.b", mapping)],
    )


@pytest.fixture(scope="module")
def ensemble(customer_orders_db):
    return learn_ensemble(
        customer_orders_db,
        EnsembleConfig(sample_size=4_000, correlation_sample=500),
    )


class TestNodeRoundTrip:
    def test_discrete_leaf_round_trip(self, small_rspn, tmp_path):
        with _reloaded(_single(small_rspn), tmp_path / "m.rspn") as restored:
            for leaf, back in _leaf_pairs(
                small_rspn, restored.rspns[0], DiscreteLeaf
            ):
                np.testing.assert_array_equal(back.values, leaf.values)
                np.testing.assert_array_equal(back.counts, leaf.counts)
                assert back.null_count == leaf.null_count

    def test_binned_leaf_round_trip(self, small_rspn, tmp_path):
        with _reloaded(_single(small_rspn), tmp_path / "m.rspn") as restored:
            pairs = _leaf_pairs(small_rspn, restored.rspns[0], BinnedLeaf)
            for leaf, back in pairs:
                np.testing.assert_array_equal(back.edges, leaf.edges)
                np.testing.assert_array_equal(back.counts, leaf.counts)
                np.testing.assert_array_equal(back.sums, leaf.sums)
                np.testing.assert_array_equal(back.distinct, leaf.distinct)
                assert back.null_count == leaf.null_count
            assert any(leaf.null_count for leaf, _ in pairs)

    def test_unknown_node_type_raises(self, small_rspn, tmp_path):
        class Mystery(LeafNode):
            pass

        rspn = RSPN(
            root=ProductNode((0,), [Mystery(0, "t.region")]),
            column_names=small_rspn.column_names,
            tables=small_rspn.tables,
            full_size=1.0,
            sample_size=1.0,
        )
        path = tmp_path / "m.rspn"
        with pytest.raises(TypeError, match="Mystery"):
            write_store(_single(rspn), path)
        assert not path.exists()

    def test_document_is_json_compatible(self, fd_rspn, tmp_path):
        # NaN / inf are not valid JSON; the header and every routing
        # section must encode them.
        path = tmp_path / "m.rspn"
        write_store(_single(fd_rspn), path)
        raw = path.read_bytes()
        document = _strict_json(_header(raw))
        base = read_catalog(path)["payload_base"]
        for entry in document["rspns"]:
            section = entry["routing"]
            start = base + section["offset"]
            _strict_json(raw[start:start + section["nbytes"]])


class TestRspnRoundTrip:
    def test_probabilities_identical(self, small_rspn, tmp_path):
        conditions = {
            "t.region": Range.point(0.0),
            "t.age": Range.from_operator("<", 50.0),
        }
        with _reloaded(_single(small_rspn), tmp_path / "m.rspn") as restored:
            assert restored.rspns[0].probability(conditions) == (
                small_rspn.probability(conditions)
            )

    def test_expectations_identical(self, small_rspn, tmp_path):
        transforms = {"t.income": [IDENTITY]}
        with _reloaded(_single(small_rspn), tmp_path / "m.rspn") as restored:
            assert restored.rspns[0].expectation(transforms=transforms) == (
                small_rspn.expectation(transforms=transforms)
            )

    def test_metadata_preserved(self, small_rspn, tmp_path):
        with _reloaded(_single(small_rspn), tmp_path / "m.rspn") as restored:
            back = restored.rspns[0]
            assert back.column_names == small_rspn.column_names
            assert back.tables == small_rspn.tables
            assert back.full_size == small_rspn.full_size
            assert back.sample_size == small_rspn.sample_size
            assert back.config == small_rspn.config
            assert back.internal_edges == small_rspn.internal_edges
            assert back.node_counts() == small_rspn.node_counts()

    def test_updates_work_after_round_trip(self, small_rspn, tmp_path):
        twin = _learn_small_rspn()
        rows = [{"t.region": 1.0, "t.age": 30.0 + i % 7, "t.income": 90.0}
                for i in range(50)]
        point = {"t.region": Range.point(1.0)}
        with _reloaded(_single(small_rspn), tmp_path / "m.rspn") as restored:
            back = restored.rspns[0]
            before = back.probability(point)
            for row in rows:
                back.insert(row)
                twin.insert(row)
            assert back.probability(point) > before
            assert back.probability(point) == twin.probability(point)
            assert back.full_size == twin.full_size

    def test_functional_dependency_preserved(self, fd_rspn, tmp_path):
        with _reloaded(_single(fd_rspn), tmp_path / "m.rspn") as restored:
            back = restored.rspns[0]
            fd = back.functional_dependencies["t.b"]
            original = fd_rspn.functional_dependencies["t.b"]
            assert (fd.source, fd.dependent) == ("t.a", "t.b")
            nan_keys = [k for k in fd.mapping if math.isnan(k)]
            assert len(nan_keys) == 1 and fd.mapping[nan_keys[0]] is None
            assert {k: v for k, v in fd.mapping.items() if not math.isnan(k)} \
                == {k: v for k, v in original.mapping.items()
                    if not math.isnan(k)}
            point = {"t.b": Range.point(30.0)}
            assert back.probability(point) == fd_rspn.probability(point)

    def test_file_round_trip(self, small_rspn, tmp_path):
        path = tmp_path / "m.rspn"
        write_store(_single(small_rspn), path)
        catalog = read_catalog(path)
        assert [r["tables"] for r in catalog["rspns"]] == [["t"]]
        assert catalog["rspns"][0]["full_size"] == small_rspn.full_size

    def test_header_validation(self, small_rspn, tmp_path):
        path = tmp_path / "m.rspn"
        write_store(_single(small_rspn), path)
        document = json.loads(_header(path.read_bytes()))
        for change, match in (({"format": "other"}, "format"),
                              ({"version": 99}, "version")):
            header = json.dumps(dict(document, **change)).encode("utf-8")
            path.write_bytes(
                MAGIC + struct.pack("<Q", len(header))
                + struct.pack("<I", zlib.crc32(header) & 0xFFFFFFFF) + header
            )
            with pytest.raises(ModelStoreError, match=match):
                read_catalog(path)


class TestEnsembleRoundTrip:
    def test_cardinalities_identical(self, ensemble, customer_orders_db, tmp_path):
        queries = [
            Query(("customer",), predicates=(Predicate("customer", "region", "=", "EU"),)),
            Query(
                ("customer", "orders"),
                predicates=(
                    Predicate("customer", "region", "=", "EU"),
                    Predicate("orders", "channel", "=", "ONLINE"),
                ),
            ),
        ]
        original = ProbabilisticQueryCompiler(ensemble)
        with _reloaded(ensemble, tmp_path / "e.rspn",
                       customer_orders_db) as restored:
            loaded = ProbabilisticQueryCompiler(restored)
            for query in queries:
                assert loaded.cardinality(query) == original.cardinality(query)

    def test_rdc_metadata_preserved(self, ensemble, customer_orders_db, tmp_path):
        assert ensemble.attribute_rdc and ensemble.table_dependency
        with _reloaded(ensemble, tmp_path / "e.rspn",
                       customer_orders_db) as restored:
            assert restored.attribute_rdc == ensemble.attribute_rdc
            assert restored.table_dependency == ensemble.table_dependency
            assert restored.training_seconds == ensemble.training_seconds
            assert restored.rspn_training_seconds == \
                ensemble.rspn_training_seconds

    def test_rspn_count_preserved(self, ensemble, customer_orders_db, tmp_path):
        with _reloaded(ensemble, tmp_path / "e.rspn",
                       customer_orders_db) as restored:
            assert len(restored.rspns) == len(ensemble.rspns)
            for original, loaded in zip(ensemble.rspns, restored.rspns):
                assert loaded.tables == original.tables
                assert loaded.internal_edges == original.internal_edges


class TestFloatEncoding:
    @given(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_round_trip(self, value):
        from repro.core.serialization import _decode_float, _encode_float

        encoded = _encode_float(value)
        json.dumps(encoded)  # must be JSON-serialisable
        decoded = _decode_float(encoded)
        if math.isnan(value):
            assert math.isnan(decoded)
        else:
            assert decoded == value

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_array_round_trip(self, values):
        from repro.core.serialization import _decode_array, _encode_array

        array = np.asarray(values, dtype=float)
        np.testing.assert_array_equal(_decode_array(_encode_array(array)), array)
