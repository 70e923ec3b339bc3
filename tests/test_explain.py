"""EXPLAIN output of the probabilistic query compiler."""

from __future__ import annotations

import pytest

from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.engine.query import Aggregate, Predicate, Query


@pytest.fixture(scope="module")
def compiler(three_table_db):
    ensemble = learn_ensemble(
        three_table_db,
        EnsembleConfig(sample_size=5_000, correlation_sample=600),
    )
    return ProbabilisticQueryCompiler(ensemble)


class TestExplain:
    def test_shows_query_strategy_and_estimate(self, compiler):
        query = Query(
            ("customer",),
            predicates=(Predicate("customer", "region", "=", "EU"),),
        )
        text = compiler.explain(query)
        assert "query    :" in text
        assert "strategy : rdc" in text
        assert "estimate :" in text
        assert "RSPN(" in text

    def test_decodes_categorical_constants(self, compiler):
        query = Query(
            ("customer",),
            predicates=(Predicate("customer", "region", "=", "EU"),),
        )
        text = compiler.explain(query)
        assert "'EU'" in text
        assert "np.str_" not in text

    def test_estimate_in_explain_matches_api(self, compiler):
        query = Query(
            ("customer", "orders"),
            predicates=(Predicate("orders", "channel", "=", "ONLINE"),),
        )
        text = compiler.explain(query)
        value = compiler.estimate_count(query).value
        assert f"{value:,.4f}" in text

    def test_join_rspn_shows_indicators(self, compiler):
        query = Query(("customer", "orders"))
        text = compiler.explain(query)
        assert "__present__" in text

    def test_avg_shows_ratio(self, compiler):
        query = Query(
            ("customer",),
            aggregate=Aggregate.avg("customer", "age"),
            predicates=(Predicate("customer", "region", "=", "EU"),),
        )
        text = compiler.explain(query)
        assert " / " in text
        assert "customer.age" in text

    def test_disjunction_shows_signed_expansion(self, compiler):
        query = Query(
            ("customer",),
            disjunctions=(
                (
                    Predicate("customer", "region", "=", "EU"),
                    Predicate("customer", "age", "<", 30),
                ),
            ),
        )
        text = compiler.explain(query)
        assert "inclusion-exclusion over 3 conjunctive terms" in text
        assert "sign +" in text and "sign -" in text

    def test_group_by_shows_template(self, compiler):
        query = Query(
            ("customer", "orders"),
            group_by=(("orders", "channel"),),
        )
        text = compiler.explain(query)
        assert "candidate groups" in text
        assert "compiled once and bound per group" in text
        assert "0 shared expectation(s)" in text
        assert "1_{orders.channel = <group>}" in text

    def test_group_by_counts_shared_expectations(self, three_table_db):
        """Grouped by ``orders.channel`` on single-table RSPNs, the
        Case-3 expansion onto ``customer`` reads no group attribute:
        both of its expectations are shared by every group."""
        ensemble = learn_ensemble(
            three_table_db,
            EnsembleConfig(
                sample_size=2_000, correlation_sample=400, single_tables_only=True
            ),
        )
        query = Query(
            ("customer", "orders"),
            group_by=(("orders", "channel"),),
        )
        text = ProbabilisticQueryCompiler(ensemble).explain(query)
        assert "2 shared expectation(s)" in text

    def test_empty_selection_is_marked(self, compiler):
        query = Query(
            ("customer",),
            predicates=(
                Predicate("customer", "age", "<", 0),
                Predicate("customer", "age", ">", 100),
            ),
        )
        text = compiler.explain(query)
        assert "empty selection" in text

    def test_tuple_factor_rendered_for_subset_query(self, compiler):
        """A single-table query answered by a join RSPN shows the 1/F'
        normalisation of Theorem 1."""
        query = Query(
            ("customer",),
            predicates=(Predicate("customer", "region", "=", "EU"),),
        )
        text = compiler.explain(query)
        if "RSPN(customer/orders" in text:
            assert "1/max(" in text
