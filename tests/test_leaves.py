"""Tests for RSPN histogram leaves (NULL buckets, transforms, updates)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leaves import (
    BinnedLeaf,
    DiscreteLeaf,
    DiscreteScopeTable,
    IDENTITY,
    INVERSE_FACTOR,
    PreparedBatch,
    SQUARE,
    Transform,
    build_leaf,
    product_transform,
)
from repro.core.ranges import Interval, Range


def make_discrete(values, nulls=0):
    column = np.concatenate([np.asarray(values, dtype=float), np.full(nulls, np.nan)])
    return DiscreteLeaf.fit(0, "t.x", column)


class TestDiscreteLeaf:
    def test_full_range_probability_is_one(self):
        leaf = make_discrete([1, 2, 2, 3], nulls=2)
        assert leaf.evaluate(Range.everything(include_null=True), None) == pytest.approx(1.0)

    def test_point_probability(self):
        leaf = make_discrete([1, 2, 2, 3])
        assert leaf.evaluate(Range.point(2.0), None) == pytest.approx(0.5)

    def test_null_bucket_partition(self):
        leaf = make_discrete([1, 2], nulls=2)
        not_null = leaf.evaluate(Range.from_operator("IS NOT NULL", None), None)
        null = leaf.evaluate(Range.from_operator("IS NULL", None), None)
        assert not_null == pytest.approx(0.5)
        assert null == pytest.approx(0.5)
        assert not_null + null == pytest.approx(1.0)

    def test_range_excludes_null(self):
        leaf = make_discrete([1, 2, 3], nulls=3)
        assert leaf.evaluate(Range.from_operator(">", 0.0), None) == pytest.approx(0.5)

    def test_expectation_identity(self):
        leaf = make_discrete([1, 2, 3, 4])
        assert leaf.evaluate(None, IDENTITY) == pytest.approx(2.5)

    def test_expectation_with_condition(self):
        leaf = make_discrete([1, 2, 3, 4])
        value = leaf.evaluate(Range.from_operator(">", 2.0), IDENTITY)
        assert value == pytest.approx((3 + 4) / 4)

    def test_null_contributes_zero_to_identity(self):
        leaf = make_discrete([2, 2], nulls=2)
        assert leaf.evaluate(None, IDENTITY) == pytest.approx(1.0)  # (2+2+0+0)/4

    def test_inverse_factor_null_contributes_one(self):
        leaf = make_discrete([2, 4], nulls=2)
        value = leaf.evaluate(None, INVERSE_FACTOR)
        assert value == pytest.approx((0.5 + 0.25 + 1 + 1) / 4)

    def test_inverse_factor_zero_clamped(self):
        leaf = make_discrete([0, 2])
        assert leaf.evaluate(None, INVERSE_FACTOR) == pytest.approx((1.0 + 0.5) / 2)

    def test_square_transform(self):
        leaf = make_discrete([1, 3])
        assert leaf.evaluate(None, SQUARE) == pytest.approx(5.0)

    def test_update_insert_existing_value(self):
        leaf = make_discrete([1, 2])
        leaf.update(2.0, +1)
        assert leaf.evaluate(Range.point(2.0), None) == pytest.approx(2 / 3)

    def test_update_insert_new_value_keeps_sorted(self):
        leaf = make_discrete([1, 3])
        leaf.update(2.0, +1)
        assert list(leaf.values) == [1.0, 2.0, 3.0]

    def test_update_delete(self):
        leaf = make_discrete([1, 2, 2])
        leaf.update(2.0, -1)
        assert leaf.evaluate(Range.point(2.0), None) == pytest.approx(0.5)

    def test_update_null(self):
        leaf = make_discrete([1])
        leaf.update(np.nan, +1)
        assert leaf.null_count == 1

    def test_delete_never_goes_negative(self):
        leaf = make_discrete([1])
        leaf.update(5.0, -1)
        assert (leaf.counts >= 0).all()

    def test_mean_excludes_nulls(self):
        leaf = make_discrete([2, 4], nulls=10)
        assert leaf.mean() == pytest.approx(3.0)


class TestBinnedLeaf:
    @pytest.fixture()
    def leaf(self):
        rng = np.random.default_rng(0)
        column = rng.uniform(0, 100, 20_000)
        return BinnedLeaf.fit(0, "t.x", column, n_bins=64)

    def test_full_range_probability(self, leaf):
        assert leaf.evaluate(Range.everything(include_null=True), None) == pytest.approx(1.0)

    def test_uniform_range_probability(self, leaf):
        value = leaf.evaluate(Range.from_operator("<", 25.0), None)
        assert value == pytest.approx(0.25, abs=0.02)

    def test_expectation_matches_uniform_mean(self, leaf):
        assert leaf.evaluate(None, IDENTITY) == pytest.approx(50.0, rel=0.05)

    def test_conditional_expectation(self, leaf):
        value = leaf.evaluate(Range.from_operator(">", 50.0), IDENTITY)
        assert value == pytest.approx(75.0 * 0.5, rel=0.08)

    def test_point_query_uses_distinct_correction(self):
        column = np.repeat(np.arange(1000, dtype=float), 3)
        leaf = BinnedLeaf.fit(0, "t.x", column, n_bins=10)
        prob = leaf.evaluate(Range.point(500.0), None)
        assert prob == pytest.approx(3 / 3000, rel=0.5)

    def test_update_shifts_mass(self, leaf):
        before = leaf.evaluate(Range.from_operator("<", 10.0), None)
        for _ in range(2000):
            leaf.update(5.0, +1)
        after = leaf.evaluate(Range.from_operator("<", 10.0), None)
        assert after > before

    def test_nulls_tracked(self):
        column = np.concatenate([np.linspace(0, 1, 1000), np.full(1000, np.nan)])
        leaf = BinnedLeaf.fit(0, "t.x", column)
        assert leaf.evaluate(Range.from_operator("IS NULL", None), None) == pytest.approx(0.5)

    def test_skewed_data_equi_depth_bins(self):
        rng = np.random.default_rng(1)
        column = rng.exponential(10.0, 50_000)
        leaf = BinnedLeaf.fit(0, "t.x", column, n_bins=64)
        median = float(np.median(column))
        value = leaf.evaluate(Range.from_operator("<", median), None)
        assert value == pytest.approx(0.5, abs=0.03)


class TestBuildLeaf:
    def test_categorical_always_discrete(self):
        column = np.arange(10_000, dtype=float) % 3
        leaf = build_leaf(0, "t.c", column, discrete=True)
        assert isinstance(leaf, DiscreteLeaf)

    def test_numeric_few_distinct_values_exact(self):
        column = np.arange(10_000, dtype=float) % 50
        leaf = build_leaf(0, "t.x", column, discrete=False, max_distinct=512)
        assert isinstance(leaf, DiscreteLeaf)

    def test_numeric_many_distinct_values_binned(self):
        column = np.random.default_rng(0).normal(size=10_000)
        leaf = build_leaf(0, "t.x", column, discrete=False, max_distinct=512)
        assert isinstance(leaf, BinnedLeaf)


class TestTransforms:
    def test_product_transform_composes(self):
        composed = product_transform([IDENTITY, IDENTITY])
        values = np.array([2.0, 3.0])
        assert np.allclose(composed.fn(values), values**2)
        assert composed.null_value == 0.0

    def test_single_transform_passthrough(self):
        assert product_transform([SQUARE]) is SQUARE

    def test_custom_transform(self):
        halve = Transform(lambda v: v / 2, 0.0, "x/2")
        leaf = make_discrete([4, 8])
        assert leaf.evaluate(None, halve) == pytest.approx(3.0)


class TestDiscreteScopeTable:
    """The fused per-scope table ``==`` the per-leaf kernel, bit for bit."""

    SHIFT = Transform(lambda v: v - 3.0, -2.0, "x-3")  # changes sign
    RECIPROCAL = Transform(lambda v: 1.0 / v, 0.0, "1/x")  # inf at 0

    @staticmethod
    def _random_leaves(rng, n_leaves):
        """Leaves over overlapping slices of one small domain, so the
        union domain is wider than every leaf's own and range bounds
        tie with values some leaves have and others lack."""
        leaves = []
        for _ in range(n_leaves):
            size = int(rng.integers(1, 9))
            values = np.sort(rng.choice(np.arange(0.0, 12.0), size, replace=False))
            # Fractional counts make every summation order visible in
            # the last bits; integer ones include deleted-to-zero values.
            counts = (
                rng.uniform(0.0, 5.0, size) if rng.integers(2)
                else rng.integers(0, 6, size).astype(float)
            )
            nulls = float(rng.integers(0, 4))
            leaves.append(DiscreteLeaf(0, "t.x", values, counts, nulls))
        # A leaf whose every count was deleted away: total == 0.
        leaves.append(DiscreteLeaf(0, "t.x", [2.0, 5.0], [0.0, 0.0], 0.0))
        return leaves

    @staticmethod
    def _random_range(rng):
        bound = lambda: float(rng.integers(-1, 13)) + float(rng.choice([0.0, 0.5]))
        kind = int(rng.integers(0, 6))
        if kind == 0:
            return None  # unconstrained, NULL included
        if kind == 1:  # IN list: many point intervals
            return Range.points(bound() for _ in range(int(rng.integers(1, 6))))
        if kind == 2:
            return Range.null_only()
        if kind == 3:  # hand-built empty and inverted intervals
            low = bound()
            return Range((
                Interval(low, low, bool(rng.integers(2)), False),
                Interval(low + 2.0, low, True, True),
            ), include_null=bool(rng.integers(2)))
        low, width = bound(), float(rng.integers(0, 7))
        first = Interval(low, low + width,
                         bool(rng.integers(2)), bool(rng.integers(2)))
        if kind == 4:
            return Range((first,), include_null=bool(rng.integers(2)))
        second = Interval(low + width + 1.0, math.inf, bool(rng.integers(2)), True)
        return Range((first, second), include_null=bool(rng.integers(2)))

    @pytest.mark.parametrize("seed", range(25))
    def test_table_equals_per_leaf_kernel(self, seed):
        rng = np.random.default_rng(seed)
        leaves = self._random_leaves(rng, int(rng.integers(1, 7)))
        pool = [None, None, IDENTITY, SQUARE, INVERSE_FACTOR, self.SHIFT,
                self.RECIPROCAL, product_transform([IDENTITY, self.SHIFT])]
        n = int(rng.choice([1, 2, 40]))
        ranges = [self._random_range(rng) for _ in range(n)]
        transforms = [pool[int(rng.integers(len(pool)))] for _ in range(n)]
        table = DiscreteScopeTable(list(enumerate(leaves)))
        with np.errstate(all="ignore"):  # 1/x at 0, inf - inf
            fused = table.evaluate(PreparedBatch(ranges, transforms))
            for row, leaf in enumerate(leaves):
                oracle = leaf.evaluate_batch(ranges, transforms)
                assert np.array_equal(fused[row], oracle, equal_nan=True), (
                    f"leaf {row} diverged"
                )

    def test_absent_value_never_poisons_a_leaf(self):
        """``1/x`` is inf at 0: a leaf *without* the value 0 must stay
        finite even though the scope's union domain contains it."""
        with_zero = DiscreteLeaf(0, "t.x", [0.0, 2.0], [1.0, 1.0], 0.0)
        without = DiscreteLeaf(0, "t.x", [1.0, 4.0], [3.0, 1.0], 0.0)
        table = DiscreteScopeTable([(0, with_zero), (1, without)])
        with np.errstate(all="ignore"):
            fused = table.evaluate(PreparedBatch([None], [self.RECIPROCAL]))
        assert fused[0, 0] == np.inf
        assert fused[1, 0] == (3.0 / 1.0 + 1.0 / 4.0) / 4.0

    def test_table_reports_its_footprint(self):
        table = DiscreteScopeTable([(3, make_discrete([1, 2, 2, 5], nulls=1))])
        assert table.slots.tolist() == [3]
        assert table.nbytes >= table.counts.nbytes + table.cum.nbytes


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(0, 20), min_size=1, max_size=50),
    threshold=st.integers(-1, 21),
)
def test_discrete_probability_matches_empirical(values, threshold):
    column = np.asarray(values, dtype=float)
    leaf = DiscreteLeaf.fit(0, "t.x", column)
    expected = float((column <= threshold).mean())
    assert leaf.evaluate(
        Range.from_operator("<=", float(threshold)), None
    ) == pytest.approx(expected)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(0, 10), min_size=1, max_size=30),
    inserted=st.integers(0, 10),
)
def test_insert_then_delete_restores_probabilities(values, inserted):
    column = np.asarray(values, dtype=float)
    leaf = DiscreteLeaf.fit(0, "t.x", column)
    before = {
        float(v): leaf.evaluate(Range.point(float(v)), None) for v in set(values)
    }
    leaf.update(float(inserted), +1)
    leaf.update(float(inserted), -1)
    for v, probability in before.items():
        assert leaf.evaluate(Range.point(v), None) == pytest.approx(probability)
    assert leaf.evaluate(Range.everything(include_null=True), None) == pytest.approx(1.0)
