"""Tests for confidence intervals (Section 5.1)."""

import numpy as np
import pytest

from repro.core import confidence as ci
from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.engine.executor import Executor
from repro.engine.query import Aggregate, Predicate, Query
from tests.conftest import build_customer_orders


class TestMomentAlgebra:
    def test_product_moments_two_factors(self):
        mean, variance = ci.product_moments([(2.0, 0.1), (3.0, 0.2)])
        assert mean == pytest.approx(6.0)
        # V(XY) = VxVy + Vx my^2 + Vy mx^2
        assert variance == pytest.approx(0.1 * 0.2 + 0.1 * 9 + 0.2 * 4)

    def test_product_moments_identity(self):
        assert ci.product_moments([(5.0, 0.3)]) == (5.0, 0.3)

    def test_ratio_moments_delta_method(self):
        mean, variance = ci.ratio_moments((4.0, 0.4), (2.0, 0.1))
        assert mean == pytest.approx(2.0)
        assert variance == pytest.approx(4.0 * (0.4 / 16 + 0.1 / 4))

    def test_ratio_by_zero_is_zero(self):
        assert ci.ratio_moments((1.0, 0.1), (0.0, 0.0)) == (0.0, 0.0)

    def test_interval_symmetric_and_ordered(self):
        low, high = ci.interval(10.0, 4.0, 0.95)
        assert low < 10.0 < high
        assert high - 10.0 == pytest.approx(10.0 - low)

    def test_interval_widens_with_confidence(self):
        low95, high95 = ci.interval(0.0, 1.0, 0.95)
        low99, high99 = ci.interval(0.0, 1.0, 0.99)
        assert high99 > high95

    @pytest.mark.parametrize("confidence, z", [
        (0.90, 1.6448536269514722),
        (0.95, 1.959963984540054),
        (0.99, 2.5758293035489004),
    ])
    def test_z_values_are_the_normal_quantiles(self, confidence, z):
        """The interval is ``mean +- z * sd`` with the standard normal
        quantile (computed by the stdlib, not scipy)."""
        low, high = ci.interval(0.0, 1.0, confidence)
        assert high == pytest.approx(z, rel=0, abs=1e-12)
        assert low == pytest.approx(-z, rel=0, abs=1e-12)

    def test_zero_variance_collapses(self):
        low, high = ci.interval(7.0, 0.0)
        assert low == high == 7.0

    def test_relative_interval_length(self):
        assert ci.relative_interval_length(100.0, 90.0) == pytest.approx(0.1)
        assert ci.relative_interval_length(0.0, -1.0) == 0.0


class TestEndToEndIntervals:
    @pytest.fixture(scope="class")
    def setup(self):
        database = build_customer_orders(n_customers=3_000, seed=11)
        ensemble = learn_ensemble(database, EnsembleConfig(sample_size=50_000))
        return database, ProbabilisticQueryCompiler(ensemble), Executor(database)

    def test_count_interval_contains_truth(self, setup):
        database, compiler, executor = setup
        query = Query(
            ("customer",), predicates=(Predicate("customer", "region", "=", "EU"),)
        )
        value, (low, high) = compiler.answer_with_confidence(query, 0.99)
        true = executor.cardinality(query)
        assert low <= true <= high

    def test_avg_interval_contains_truth(self, setup):
        database, compiler, executor = setup
        query = Query(
            ("customer",),
            aggregate=Aggregate.avg("customer", "age"),
            predicates=(Predicate("customer", "region", "=", "ASIA"),),
        )
        value, (low, high) = compiler.answer_with_confidence(query, 0.99)
        true = executor.execute(query)
        assert low <= true <= high

    def test_sum_interval_contains_truth(self, setup):
        database, compiler, executor = setup
        query = Query(
            ("customer",),
            aggregate=Aggregate.sum("customer", "age"),
        )
        value, (low, high) = compiler.answer_with_confidence(query, 0.99)
        true = executor.execute(query)
        assert low <= true <= high

    def test_interval_tightens_for_common_predicates(self, setup):
        """Relative CI length shrinks as selectivity grows."""
        database, compiler, executor = setup
        common = Query(
            ("customer",), predicates=(Predicate("customer", "age", ">", 0),)
        )
        rare = Query(
            ("customer",), predicates=(Predicate("customer", "age", ">", 70),)
        )
        value_common, (low_common, _h) = compiler.answer_with_confidence(common)
        value_rare, (low_rare, _h2) = compiler.answer_with_confidence(rare)
        rel_common = ci.relative_interval_length(value_common, low_common)
        rel_rare = ci.relative_interval_length(value_rare, low_rare)
        assert rel_rare > rel_common

    def test_group_by_intervals(self, setup):
        database, compiler, executor = setup
        query = Query(("customer",), group_by=(("customer", "region"),))
        results = compiler.answer_with_confidence(query)
        true = executor.execute(query)
        for key, (value, (low, high)) in results.items():
            assert low <= value <= high
            assert true[key] == pytest.approx(value, rel=0.2)

    def test_interval_matches_sample_based_ground_truth(self, setup):
        """Figure 11: model CI length close to the binomial CI of an
        equal-size sample."""
        database, compiler, executor = setup
        query = Query(
            ("customer",), predicates=(Predicate("customer", "region", "=", "EU"),)
        )
        value, (low, _high) = compiler.answer_with_confidence(query, 0.95)
        model_rel = ci.relative_interval_length(value, low)
        n = database.table("customer").n_rows
        p = executor.cardinality(query) / n
        sample_std = np.sqrt(p * (1 - p) / n)
        sample_rel = 1.96 * sample_std / p
        assert model_rel == pytest.approx(sample_rel, rel=0.5)
