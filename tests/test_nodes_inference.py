"""Tests for SPN nodes and bottom-up inference.

Includes a literal reconstruction of the paper's Figure 3/4 running
example: an SPN over (region, age) with a 0.3/0.7 sum node, from which
the paper derives P = 5% for young European customers and E(age | EU).
"""

import copy

import numpy as np
import pytest

from repro.core.inference import (
    EvaluationSpec,
    evaluate,
    evaluate_batch,
    evaluate_walk,
    probability,
)
from repro.core.leaves import (
    BinnedLeaf,
    DiscreteLeaf,
    IDENTITY,
    INVERSE_FACTOR,
    SQUARE,
)
from repro.core.nodes import ProductNode, SumNode, count_nodes, iter_nodes
from repro.core.ranges import Interval, Range
from repro.core.updates import TreeBatch
from tests.update_reference import assert_states_equal, serial_update, tree_state

EU, ASIA = 0.0, 1.0


def paper_figure3_spn():
    """The customer SPN of Figure 3c.

    Left cluster (30%): 80% EU, ages mostly high (15% < 30).
    Right cluster (70%): 10% EU, ages mostly low (20% < 30).
    """
    region_left = DiscreteLeaf(0, "c.region", [EU, ASIA], [80.0, 20.0], 0.0)
    age_left = DiscreteLeaf(1, "c.age", [20.0, 60.0], [15.0, 85.0], 0.0)
    region_right = DiscreteLeaf(0, "c.region", [EU, ASIA], [10.0, 90.0], 0.0)
    age_right = DiscreteLeaf(1, "c.age", [20.0, 60.0], [20.0, 80.0], 0.0)
    left = ProductNode((0, 1), [region_left, age_left])
    right = ProductNode((0, 1), [region_right, age_right])
    return SumNode((0, 1), [left, right], counts=[30.0, 70.0])


class TestPaperExample:
    def test_figure3d_probability(self):
        """P(EU and age < 30) = 12% * 0.3 + 2% * 0.7 = 5%."""
        spn = paper_figure3_spn()
        value = probability(
            spn, {0: Range.point(EU), 1: Range.from_operator("<", 30.0)}
        )
        assert value == pytest.approx(0.05)

    def test_figure4b_marginal(self):
        """P(EU) = 0.8 * 0.3 + 0.1 * 0.7 = 31%."""
        spn = paper_figure3_spn()
        assert probability(spn, {0: Range.point(EU)}) == pytest.approx(0.31)

    def test_figure4a_expectation_with_indicator(self):
        """E(age * 1_EU) mirrors Figure 4a's bottom-up pass."""
        spn = paper_figure3_spn()
        spec = EvaluationSpec()
        spec.condition(0, Range.point(EU))
        spec.transform(1, IDENTITY)
        value = evaluate(spn, spec)
        # left: 0.8 * (0.15*20 + 0.85*60); right: 0.1 * (0.2*20 + 0.8*60)
        expected = 0.3 * 0.8 * 54.0 + 0.7 * 0.1 * 52.0
        assert value == pytest.approx(expected)

    def test_conditional_expectation_ratio(self):
        spn = paper_figure3_spn()
        spec = EvaluationSpec()
        spec.condition(0, Range.point(EU))
        spec.transform(1, IDENTITY)
        numerator = evaluate(spn, spec)
        denominator = probability(spn, {0: Range.point(EU)})
        conditional = numerator / denominator
        assert 52.0 < conditional < 54.0  # between the two cluster means


class TestNodes:
    def test_product_requires_partition(self):
        a = DiscreteLeaf(0, "x", [0.0], [1.0], 0.0)
        b = DiscreteLeaf(0, "x", [0.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            ProductNode((0, 1), [a, b])  # both children cover scope 0

    def test_sum_weights_normalised(self):
        a = DiscreteLeaf(0, "x", [0.0], [1.0], 0.0)
        b = DiscreteLeaf(0, "x", [1.0], [1.0], 0.0)
        node = SumNode((0,), [a, b], counts=[1.0, 3.0])
        assert np.allclose(node.weights, [0.25, 0.75])

    def test_sum_weight_count_mismatch(self):
        a = DiscreteLeaf(0, "x", [0.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            SumNode((0,), [a], counts=[1.0, 2.0])

    def test_zero_counts_fall_back_to_uniform(self):
        a = DiscreteLeaf(0, "x", [0.0], [1.0], 0.0)
        b = DiscreteLeaf(0, "x", [1.0], [1.0], 0.0)
        node = SumNode((0,), [a, b], counts=[0.0, 0.0])
        assert np.allclose(node.weights, [0.5, 0.5])

    def test_iter_and_count_nodes(self):
        spn = paper_figure3_spn()
        assert len(list(iter_nodes(spn))) == 7
        assert count_nodes(spn) == {"sum": 1, "product": 2, "leaf": 4}


class TestInference:
    def test_unconstrained_evaluates_to_one(self):
        spn = paper_figure3_spn()
        assert evaluate(spn, EvaluationSpec()) == pytest.approx(1.0)

    def test_empty_range_short_circuits(self):
        spn = paper_figure3_spn()
        spec = EvaluationSpec()
        spec.condition(0, Range.nothing())
        assert evaluate(spn, spec) == 0.0

    def test_condition_intersection_in_spec(self):
        spec = EvaluationSpec()
        spec.condition(0, Range.from_operator(">", 1.0))
        spec.condition(0, Range.from_operator("<", 3.0))
        assert spec.ranges[0].contains(2.0)
        assert not spec.ranges[0].contains(4.0)

    def test_probability_additivity(self):
        spn = paper_figure3_spn()
        eu = probability(spn, {0: Range.point(EU)})
        asia = probability(spn, {0: Range.point(ASIA)})
        assert eu + asia == pytest.approx(1.0)

    def test_product_pruning_skips_untouched_children(self):
        spn = paper_figure3_spn()
        value = probability(spn, {1: Range.from_operator("<", 30.0)})
        expected = 0.3 * 0.15 + 0.7 * 0.2
        assert value == pytest.approx(expected)

    def test_expectation_linearity(self):
        spn = paper_figure3_spn()
        spec_x = EvaluationSpec()
        spec_x.transform(1, IDENTITY)
        e_x = evaluate(spn, spec_x)
        # E[X * 1_everything] decomposes into the two region parts
        spec_eu = EvaluationSpec()
        spec_eu.condition(0, Range.point(EU))
        spec_eu.transform(1, IDENTITY)
        spec_asia = EvaluationSpec()
        spec_asia.condition(0, Range.point(ASIA))
        spec_asia.transform(1, IDENTITY)
        assert evaluate(spn, spec_eu) + evaluate(spn, spec_asia) == pytest.approx(e_x)

    def test_spec_copy_is_independent(self):
        spec = EvaluationSpec()
        spec.condition(0, Range.point(EU))
        duplicate = spec.copy()
        duplicate.condition(1, Range.point(20.0))
        assert 1 not in spec.ranges


# ----------------------------------------------------------------------
# Property tests: compiled batched evaluation vs the reference walk
# ----------------------------------------------------------------------
def _random_leaf(rng, scope_index):
    if rng.random() < 0.4:
        column = rng.normal(rng.uniform(-50.0, 50.0), rng.uniform(1.0, 30.0), 300)
        column[rng.random(300) < 0.1] = np.nan
        return BinnedLeaf.fit(scope_index, f"a{scope_index}", column, n_bins=8)
    size = int(rng.integers(2, 9))
    values = np.sort(
        rng.choice(np.arange(-5.0, 15.0), size=size, replace=False)
    )
    counts = rng.integers(1, 50, size).astype(float)
    return DiscreteLeaf(
        scope_index, f"a{scope_index}", values, counts, float(rng.integers(0, 5))
    )


def _random_spn(rng, scope, depth):
    scope = tuple(sorted(scope))
    if len(scope) == 1:
        if depth > 0 and rng.random() < 0.3:
            children = [
                _random_spn(rng, scope, depth - 1)
                for _ in range(int(rng.integers(2, 4)))
            ]
            return SumNode(scope, children, rng.uniform(0.5, 100.0, len(children)))
        return _random_leaf(rng, scope[0])
    if depth <= 0:
        return ProductNode(scope, [_random_leaf(rng, i) for i in scope])
    if rng.random() < 0.5:
        split = int(rng.integers(1, len(scope)))
        shuffled = list(scope)
        rng.shuffle(shuffled)
        parts = [shuffled[:split], shuffled[split:]]
        return ProductNode(
            scope, [_random_spn(rng, tuple(p), depth - 1) for p in parts]
        )
    children = [
        _random_spn(rng, scope, depth - 1) for _ in range(int(rng.integers(2, 4)))
    ]
    return SumNode(scope, children, rng.uniform(0.5, 100.0, len(children)))


def _random_range(rng):
    kind = rng.random()
    if kind < 0.2:
        return Range.point(float(rng.integers(-5, 15)))
    if kind < 0.4:
        low = float(rng.uniform(-60.0, 40.0))
        interval = Interval(
            low, low + float(rng.uniform(0.0, 60.0)),
            bool(rng.random() < 0.5), bool(rng.random() < 0.5),
        )
        return Range((interval,), include_null=bool(rng.random() < 0.2))
    if kind < 0.55:
        points = rng.choice(np.arange(-5.0, 15.0), size=int(rng.integers(1, 4)),
                            replace=False)
        return Range.points([float(p) for p in points])
    if kind < 0.7:
        return Range.from_operator(
            str(rng.choice(["<", "<=", ">", ">="])), float(rng.uniform(-20, 20))
        )
    if kind < 0.8:
        return Range.from_operator("IS NULL", None)
    if kind < 0.9:
        return Range.from_operator("IS NOT NULL", None)
    return Range.nothing() if rng.random() < 0.3 else Range.everything(True)


def _random_spec(rng, scope):
    spec = EvaluationSpec()
    transforms = (IDENTITY, SQUARE, INVERSE_FACTOR)
    for index in scope:
        roll = rng.random()
        if roll < 0.45:
            continue
        if roll < 0.85:
            spec.condition(index, _random_range(rng))
        if rng.random() < 0.35:
            spec.transform(index, transforms[int(rng.integers(len(transforms)))])
            if rng.random() < 0.3:  # composed transform on one attribute
                spec.transform(
                    index, transforms[int(rng.integers(len(transforms)))]
                )
    return spec


def _assert_batch_matches_walk(spn, specs):
    batched = evaluate_batch(spn, specs)
    reference = np.array([evaluate_walk(spn, spec) for spec in specs])
    np.testing.assert_allclose(batched, reference, rtol=1e-9, atol=1e-9)


class TestCompiledAgainstWalk:
    """Batched compiled inference must agree with the recursive walk."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_spns_random_specs(self, seed):
        rng = np.random.default_rng(seed)
        scope = tuple(range(int(rng.integers(1, 5))))
        spn = _random_spn(rng, scope, depth=int(rng.integers(1, 4)))
        specs = [_random_spec(rng, scope) for _ in range(17)]
        _assert_batch_matches_walk(spn, specs)

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_survives_insert_delete(self, seed):
        """Updates re-route sum weights; the cached compiled form must
        be patched, not serve stale weights.  One-row batches land on
        the serial reference's tree state (``==``)."""
        rng = np.random.default_rng(100 + seed)
        scope = tuple(range(3))
        spn = _random_spn(rng, scope, depth=2)
        serial = copy.deepcopy(spn)
        specs = [_random_spec(rng, scope) for _ in range(9)]
        _assert_batch_matches_walk(spn, specs)  # builds + caches the form
        for sign in [+1.0] * 5 + [-1.0]:
            row = rng.uniform(-5.0, 15.0, len(scope))
            batch = TreeBatch(spn)
            batch.stage_rows(row[None, :], [sign])
            batch.commit()
            serial_update(serial, row, sign)
            _assert_batch_matches_walk(spn, specs)
        assert_states_equal(tree_state(spn), tree_state(serial))

    def test_scalar_is_batch_of_one(self):
        spn = paper_figure3_spn()
        spec = EvaluationSpec()
        spec.condition(0, Range.point(EU))
        spec.transform(1, IDENTITY)
        assert evaluate(spn, spec) == evaluate_batch(spn, [spec])[0]

    def test_batch_empty_selection_is_exact_zero(self):
        spn = paper_figure3_spn()
        empty = EvaluationSpec()
        empty.condition(0, Range.nothing())
        values = evaluate_batch(spn, [empty, EvaluationSpec()])
        assert values[0] == 0.0
        assert values[1] == pytest.approx(1.0)

    def test_empty_interval_selects_exact_zero_mass(self):
        """A hand-constructed empty interval (exclusive point) must give
        0, not the negative prefix-sum difference of inverted indices."""
        leaf = DiscreteLeaf(0, "x", [1.0, 2.0, 3.0], [5.0, 5.0, 5.0], 0.0)
        empty = Range((Interval(2.0, 2.0, False, False),))
        assert leaf.evaluate_batch([empty], [None])[0] == 0.0
        assert leaf.evaluate_batch([empty], [IDENTITY])[0] == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_chunked_batch_is_bit_identical_to_unchunked(self, seed, monkeypatch):
        """A batch straddling the ``_CHUNK_BUDGET`` split must agree
        **bit-for-bit** with the single-sweep evaluation: per-query
        columns of the values matrix are independent, so where the
        chunk boundary falls cannot matter."""
        from repro.core import compiled as compiled_mod

        rng = np.random.default_rng(700 + seed)
        scope = tuple(range(3))
        spn = _random_spn(rng, scope, depth=2)
        specs = [_random_spec(rng, scope) for _ in range(40)]
        unchunked = evaluate_batch(spn, specs)
        # The chunk size floors at 16 queries, so a budget of 1 forces
        # ceil(40 / 16) = 3 chunks including a ragged tail.
        monkeypatch.setattr(compiled_mod, "_CHUNK_BUDGET", 1)
        chunked = evaluate_batch(spn, specs)
        assert list(chunked) == list(unchunked)

    @pytest.mark.parametrize("seed", range(3))
    def test_chunk_boundaries_fused_equals_legacy(self, seed, monkeypatch):
        """Across ``_CHUNK_BUDGET`` chunk boundaries the fused sweep
        must equal the reference sweep **bit for bit** -- for
        both leaf types, including uneven sub-batches (a 1-spec sliver)
        each chunked again internally.  BinnedLeaf is the kernel where
        batch-composition invariance is easiest to lose (its batch
        kernel must stay a row-wise reduction, never a BLAS matvec)."""
        from repro.core import compiled as compiled_mod
        from tests.reference_sweep import reference_evaluate

        rng = np.random.default_rng(800 + seed)
        scope = tuple(range(3))
        # Keep drawing until the tree holds both leaf kinds.
        while True:
            spn = _random_spn(rng, scope, depth=2)
            kinds = {
                type(node).__name__
                for node in iter_nodes(spn)
                if isinstance(node, (DiscreteLeaf, BinnedLeaf))
            }
            if kinds == {"DiscreteLeaf", "BinnedLeaf"}:
                break
        specs = [_random_spec(rng, scope) for _ in range(40)]
        reference = reference_evaluate(spn, specs)
        monkeypatch.setattr(compiled_mod, "_CHUNK_BUDGET", 1)
        parts = []
        for lo, hi in ((0, 1), (1, 17), (17, 40)):
            parts.extend(evaluate_batch(spn, specs[lo:hi]))
        assert parts == list(reference)
        assert list(evaluate_batch(spn, specs)) == list(reference)


def _commit_rows(root, values, sign):
    """Stage one-column ``values`` with one ``sign`` and commit."""
    batch = TreeBatch(root)
    batch.stage_rows(np.asarray(values, dtype=float)[:, None],
                     [sign] * len(values))
    batch.commit()


class TestSumWeightCache:
    def test_adjust_count_invalidates_cache(self):
        """A committed count adjustment re-derives the cached weights."""
        a = DiscreteLeaf(0, "x", [0.0], [1.0], 0.0)
        b = DiscreteLeaf(0, "x", [1.0], [1.0], 0.0)
        node = SumNode((0,), [a, b], counts=[1.0, 3.0])
        assert np.allclose(node.weights, [0.25, 0.75])
        _commit_rows(node, [1.0], +1.0)  # argmax routes it to child 1
        assert node.counts.tolist() == [1.0, 4.0]
        assert np.allclose(node.weights, [0.2, 0.8])

    def test_weights_cached_between_reads(self):
        a = DiscreteLeaf(0, "x", [0.0], [1.0], 0.0)
        b = DiscreteLeaf(0, "x", [1.0], [1.0], 0.0)
        node = SumNode((0,), [a, b], counts=[2.0, 2.0])
        assert node.weights is node.weights  # same cached array

    def test_adjust_count_clamps_at_zero(self):
        """Deletes past zero clamp every count there, and the weights
        fall back to uniform."""
        a = DiscreteLeaf(0, "x", [0.0], [1.0], 0.0)
        b = DiscreteLeaf(0, "x", [1.0], [1.0], 0.0)
        node = SumNode((0,), [a, b], counts=[1.0, 2.0])
        assert np.allclose(node.weights, [1.0 / 3.0, 2.0 / 3.0])
        _commit_rows(node, [0.0] * 5, -1.0)
        assert node.counts.tolist() == [0.0, 0.0]
        assert np.allclose(node.weights, [0.5, 0.5])  # uniform fallback
