"""Tests for SPN structure learning and Algorithm-1 incremental updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learning import LearningConfig, learn_structure
from repro.core.nodes import LeafNode, ProductNode, SumNode, count_nodes, iter_nodes
from repro.core.ranges import Range
from repro.core.rspn import RSPN
from repro.core.updates import update_tuple


def correlated_data(n=8_000, seed=0):
    rng = np.random.default_rng(seed)
    cluster = rng.choice([0, 1], n, p=[0.4, 0.6])
    x = np.where(cluster == 0, rng.normal(10, 1, n), rng.normal(-10, 1, n))
    y = np.where(cluster == 0, rng.normal(5, 1, n), rng.normal(-5, 1, n))
    z = rng.normal(size=n)  # independent of everything
    return np.column_stack([cluster, x, y, z])


class TestStructureLearning:
    def test_independent_column_splits_into_product(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5_000, 2))
        root = learn_structure(data, [False, False])
        assert isinstance(root, ProductNode)

    def test_correlated_columns_need_sum_node(self):
        data = correlated_data()
        root = learn_structure(data, [True, False, False, False])
        kinds = count_nodes(root)
        assert kinds["sum"] >= 1

    def test_single_column_yields_leaf(self):
        data = np.random.default_rng(0).normal(size=(500, 1))
        root = learn_structure(data, [False])
        assert isinstance(root, LeafNode)

    def test_small_data_naive_factorisation(self):
        data = np.random.default_rng(0).normal(size=(30, 3))
        config = LearningConfig(min_instances_absolute=64)
        root = learn_structure(data, [False] * 3, config)
        assert isinstance(root, ProductNode)
        assert all(isinstance(child, LeafNode) for child in root.children)

    def test_scope_covers_all_columns(self):
        data = correlated_data(2_000)
        root = learn_structure(data, [True, False, False, False])
        assert sorted(root.scope) == [0, 1, 2, 3]

    def test_leaves_cover_each_column(self):
        data = correlated_data(2_000)
        root = learn_structure(data, [True, False, False, False])
        leaf_scopes = {n.scope_index for n in iter_nodes(root) if isinstance(n, LeafNode)}
        assert leaf_scopes == {0, 1, 2, 3}

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            learn_structure(np.empty((0, 2)), [False, False])

    def test_flag_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            learn_structure(np.ones((10, 2)), [False])

    def test_constant_columns_handled(self):
        data = np.column_stack(
            [np.ones(1_000), np.random.default_rng(0).normal(size=1_000)]
        )
        root = learn_structure(data, [True, False])
        assert isinstance(root, ProductNode)

    def test_sum_nodes_keep_kmeans_for_routing(self):
        data = correlated_data()
        root = learn_structure(data, [True, False, False, False])
        sums = [n for n in iter_nodes(root) if isinstance(n, SumNode)]
        assert sums and all(s.kmeans is not None for s in sums)


class TestUpdates:
    @pytest.fixture()
    def rspn(self):
        data = correlated_data()
        return RSPN.learn(
            data,
            ["t.cluster", "t.x", "t.y", "t.z"],
            [True, False, False, False],
            tables={"t"},
        )

    def test_insert_increases_count_estimate(self, rspn):
        conditions = {"t.cluster": Range.point(0.0)}
        before = rspn.estimate_count(conditions)
        for _ in range(500):
            rspn.insert({"t.cluster": 0.0, "t.x": 10.0, "t.y": 5.0, "t.z": 0.0})
        after = rspn.estimate_count(conditions)
        assert after - before == pytest.approx(500, rel=0.15)

    def test_insert_then_delete_roundtrip(self, rspn):
        conditions = {"t.cluster": Range.point(1.0), "t.x": Range.from_operator("<", 0.0)}
        before = rspn.estimate_count(conditions)
        row = {"t.cluster": 1.0, "t.x": -10.0, "t.y": -5.0, "t.z": 0.3}
        rspn.insert(row)
        rspn.delete(row)
        assert rspn.estimate_count(conditions) == pytest.approx(before, rel=1e-6)

    def test_insert_routes_to_matching_cluster(self, rspn):
        """New tuples matching cluster 0's profile shift its weight up."""
        root = rspn.root
        sums = [n for n in iter_nodes(root) if isinstance(n, SumNode)]
        assert sums
        total_before = sum(float(s.counts.sum()) for s in sums)
        for _ in range(100):
            rspn.insert({"t.cluster": 0.0, "t.x": 10.0, "t.y": 5.0, "t.z": 0.0})
        total_after = sum(float(s.counts.sum()) for s in sums)
        assert total_after > total_before

    def test_full_size_tracks_sample_fraction(self):
        data = correlated_data(2_000)
        rspn = RSPN.learn(
            data,
            ["t.cluster", "t.x", "t.y", "t.z"],
            [True, False, False, False],
            tables={"t"},
            full_size=20_000,  # the sample is 10% of the relation
        )
        before = rspn.full_size
        rspn.insert({"t.cluster": 0.0, "t.x": 10.0, "t.y": 5.0, "t.z": 0.0})
        assert rspn.full_size == pytest.approx(before + 10.0, rel=0.01)

    def test_update_with_null_value(self, rspn):
        rspn.insert({"t.cluster": 0.0, "t.x": None, "t.y": 5.0, "t.z": 0.0})
        null_prob = rspn.probability({"t.x": Range.from_operator("IS NULL", None)})
        assert null_prob > 0.0

    def test_update_tuple_rejects_unknown_node(self):
        with pytest.raises(TypeError):
            update_tuple(object(), np.zeros(3))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50))
def test_model_probability_close_to_empirical(seed):
    """P(cluster=0) under the model tracks the empirical frequency."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.2, 0.8)
    n = 3_000
    cluster = (rng.random(n) < p).astype(float)
    x = np.where(cluster == 1, rng.normal(3, 1, n), rng.normal(-3, 1, n))
    rspn = RSPN.learn(
        np.column_stack([cluster, x]), ["t.c", "t.x"], [True, False], tables={"t"}
    )
    model_p = rspn.probability({"t.c": Range.point(1.0)})
    assert model_p == pytest.approx(cluster.mean(), abs=0.03)


def test_learned_store_payload_is_reproducible(tmp_path):
    """``DeepDB.learn`` twice over the same data saves equal bytes below
    the store header (the header carries wall-clock strings): the
    guard behind every result-identical speed-up of the learner."""
    from repro.core import modelstore
    from repro.datasets import imdb
    from repro.deepdb import DeepDB

    payloads = []
    for name in ("first.rspn", "second.rspn"):
        path = tmp_path / name
        DeepDB.learn(imdb.generate(scale=0.01, seed=0)).save(path)
        with open(path, "rb") as handle:
            _, blob_base = modelstore._read_header(handle, path)
            handle.seek(blob_base)
            payloads.append(handle.read())
    assert len(payloads[0]) > 10_000
    assert payloads[0] == payloads[1]
