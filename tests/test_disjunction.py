"""Disjunctive predicates: inclusion-exclusion expansion, parser CNF
normalisation, exact execution and compiled estimates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compilation import ProbabilisticQueryCompiler
from repro.core.disjunction import ExpansionError, expand, expansion_size
from repro.core.ensemble import EnsembleConfig, learn_ensemble
from repro.engine.executor import Executor
from repro.engine.parser import parse_query
from repro.engine.query import Aggregate, Predicate, Query


@pytest.fixture(scope="module")
def compiler(customer_orders_db):
    ensemble = learn_ensemble(
        customer_orders_db,
        EnsembleConfig(sample_size=6_000, correlation_sample=800),
    )
    return ProbabilisticQueryCompiler(ensemble)


@pytest.fixture(scope="module")
def executor(customer_orders_db):
    return Executor(customer_orders_db)


def _or_query(*groups, tables=("customer",), aggregate=None, predicates=()):
    return Query(
        tables=tables,
        aggregate=aggregate or Aggregate.count(),
        predicates=tuple(predicates),
        disjunctions=tuple(tuple(g) for g in groups),
    )


class TestExpansion:
    def test_single_group_size(self):
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "age", "<", 30),
            )
        )
        assert expansion_size(query) == 3
        terms = expand(query)
        signs = sorted(sign for sign, _ in terms)
        assert signs == [-1, 1, 1]

    def test_two_groups_multiply(self):
        group_a = (
            Predicate("customer", "region", "=", "EU"),
            Predicate("customer", "region", "=", "ASIA"),
        )
        group_b = (
            Predicate("customer", "age", "<", 30),
            Predicate("customer", "age", ">", 60),
        )
        query = _or_query(group_a, group_b)
        assert expansion_size(query) == 9
        assert len(expand(query)) == 9

    def test_conjunctive_query_expands_to_itself(self):
        query = Query(("customer",), predicates=(
            Predicate("customer", "region", "=", "EU"),
        ))
        assert expand(query) == [(1, query)]

    def test_oversized_expansion_rejected(self):
        group = tuple(
            Predicate("customer", "age", "=", v) for v in range(12)
        )
        with pytest.raises(ExpansionError):
            expand(_or_query(group), max_terms=100)

    def test_expanded_terms_are_conjunctive(self):
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "age", "<", 30),
            )
        )
        for _sign, term in expand(query):
            assert not term.has_disjunctions


class TestExactExecution:
    def test_single_table_or_count(self, executor, customer_orders_db):
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "age", "<", 25),
            )
        )
        expected = self._brute_force_count(customer_orders_db, query)
        assert executor.execute(query) == expected

    def test_or_is_not_sum_of_atoms(self, executor):
        """The overlap correction must actually fire."""
        atom_a = Predicate("customer", "region", "=", "ASIA")
        atom_b = Predicate("customer", "age", "<", 40)
        union = executor.execute(_or_query((atom_a, atom_b)))
        count_a = executor.execute(Query(("customer",), predicates=(atom_a,)))
        count_b = executor.execute(Query(("customer",), predicates=(atom_b,)))
        both = executor.execute(Query(("customer",), predicates=(atom_a, atom_b)))
        assert union == count_a + count_b - both
        assert both > 0  # the planted data guarantees overlap

    def test_cross_table_or_count(self, executor, customer_orders_db):
        """OR across tables cannot factorise; the expansion handles it."""
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("orders", "channel", "=", "ONLINE"),
            ),
            tables=("customer", "orders"),
        )
        materialised = self._brute_force_join_count(customer_orders_db, query)
        assert executor.execute(query) == materialised

    def test_or_with_conjunctive_context(self, executor, customer_orders_db):
        query = _or_query(
            (
                Predicate("customer", "age", "<", 25),
                Predicate("customer", "age", ">", 65),
            ),
            predicates=(Predicate("customer", "region", "=", "EU"),),
        )
        expected = self._brute_force_count(customer_orders_db, query)
        assert executor.execute(query) == expected

    def test_group_by_with_or(self, executor):
        query = Query(
            ("customer",),
            group_by=(("customer", "region"),),
            disjunctions=(
                (
                    Predicate("customer", "age", "<", 30),
                    Predicate("customer", "age", ">", 60),
                ),
            ),
        )
        groups = executor.execute(query)
        scalar = executor.execute(query.without_group_by())
        assert sum(groups.values()) == scalar

    @staticmethod
    def _brute_force_count(database, query):
        table = database.table("customer")
        age = table.columns["age"]
        region = table.columns["region"]
        eu = table.encode_value("region", "EU")
        keep = np.ones(table.n_rows, dtype=bool)
        for predicate in query.predicates:
            assert predicate.op == "="
            keep &= region == eu
        for group in query.disjunctions:
            group_mask = np.zeros(table.n_rows, dtype=bool)
            for predicate in group:
                if predicate.column == "region":
                    group_mask |= region == eu
                elif predicate.op == "<":
                    with np.errstate(invalid="ignore"):
                        group_mask |= age < predicate.value
                else:
                    with np.errstate(invalid="ignore"):
                        group_mask |= age > predicate.value
            keep &= group_mask
        return float(keep.sum())

    @staticmethod
    def _brute_force_join_count(database, query):
        customer = database.table("customer")
        orders = database.table("orders")
        eu = customer.encode_value("region", "EU")
        online = orders.encode_value("channel", "ONLINE")
        owner = orders.columns["c_id"].astype(int)
        customer_is_eu = customer.columns["region"] == eu
        order_is_online = orders.columns["channel"] == online
        return float((customer_is_eu[owner] | order_is_online).sum())


class TestCompiledEstimates:
    def test_count_close_to_exact(self, compiler, executor):
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "age", "<", 25),
            )
        )
        exact = executor.execute(query)
        estimate = compiler.estimate_count(query).value
        assert estimate == pytest.approx(exact, rel=0.1)

    def test_cross_table_or_close_to_exact(self, compiler, executor):
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("orders", "channel", "=", "ONLINE"),
            ),
            tables=("customer", "orders"),
        )
        exact = executor.execute(query)
        estimate = compiler.estimate_count(query).value
        assert estimate == pytest.approx(exact, rel=0.15)

    def test_avg_over_disjunction(self, compiler, executor):
        query = _or_query(
            (
                Predicate("customer", "age", "<", 30),
                Predicate("customer", "age", ">", 60),
            ),
            aggregate=Aggregate.avg("customer", "age"),
        )
        exact = executor.execute(query)
        estimate = compiler.estimate_avg(query).value
        assert estimate == pytest.approx(exact, rel=0.1)

    def test_sum_over_disjunction(self, compiler, executor):
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "age", "<", 25),
            ),
            aggregate=Aggregate.sum("customer", "age"),
        )
        exact = executor.execute(query)
        estimate = compiler.estimate_sum(query).value
        assert estimate == pytest.approx(exact, rel=0.1)

    def test_confidence_interval_brackets_estimate(self, compiler):
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "age", "<", 25),
            )
        )
        estimate = compiler.estimate_count(query)
        low, high = estimate.confidence_interval(0.95)
        assert low <= estimate.value <= high

    @pytest.mark.parametrize("aggregate", [
        Aggregate.count(),
        Aggregate.sum("customer", "age"),
        Aggregate.avg("customer", "age"),
    ])
    def test_group_by_over_disjunction(self, compiler, executor, aggregate):
        """Each group's answer is the disjunctive scalar answer with the
        group's ``=`` predicate added, and close to the exact one."""
        or_group = (
            Predicate("customer", "region", "=", "EU"),
            Predicate("customer", "age", "<", 25),
        )
        query = Query(
            ("customer", "orders"),
            aggregate=aggregate,
            disjunctions=(or_group,),
            group_by=(("orders", "channel"),),
        )
        answer = compiler.answer(query)
        exact = executor.execute(query)
        assert set(answer) == set(exact)
        for (channel,), value in answer.items():
            scalar = _or_query(
                or_group, tables=("customer", "orders"), aggregate=aggregate,
                predicates=(Predicate("orders", "channel", "=", channel),),
            )
            assert value == compiler.answer(scalar)
            assert value == pytest.approx(exact[(channel,)], rel=0.15)

    def test_disjoint_or_equals_in_predicate(self, compiler):
        """region = 'EU' OR region = 'ASIA' must agree with IN (both)."""
        union = compiler.estimate_count(
            _or_query(
                (
                    Predicate("customer", "region", "=", "EU"),
                    Predicate("customer", "region", "=", "ASIA"),
                )
            )
        ).value
        via_in = compiler.estimate_count(
            Query(
                ("customer",),
                predicates=(
                    Predicate("customer", "region", "IN", ("EU", "ASIA")),
                ),
            )
        ).value
        assert union == pytest.approx(via_in, rel=1e-6)


class TestParserDisjunctions:
    def test_plain_or(self, customer_orders_db):
        query = parse_query(
            "SELECT COUNT(*) FROM customer WHERE region = 'EU' OR age < 25",
            customer_orders_db.schema,
        )
        assert len(query.disjunctions) == 1
        assert len(query.disjunctions[0]) == 2
        assert not query.predicates

    def test_parenthesised_or_with_and(self, customer_orders_db):
        query = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE region = 'EU' AND (age < 25 OR age > 60)",
            customer_orders_db.schema,
        )
        assert len(query.predicates) == 1
        assert len(query.disjunctions) == 1

    def test_or_of_conjunctions_distributes(self, customer_orders_db):
        """(a AND b) OR c normalises to (a OR c) AND (b OR c)."""
        query = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE (region = 'EU' AND age < 25) OR age > 60",
            customer_orders_db.schema,
        )
        assert not query.predicates
        assert len(query.disjunctions) == 2
        assert all(len(group) == 2 for group in query.disjunctions)

    def test_cnf_equivalence_on_execution(self, customer_orders_db):
        """The distributed form returns the same exact count."""
        executor = Executor(customer_orders_db)
        distributed = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE (region = 'EU' AND age < 25) OR age > 60",
            customer_orders_db.schema,
        )
        table = customer_orders_db.table("customer")
        eu = table.encode_value("region", "EU")
        region, age = table.columns["region"], table.columns["age"]
        with np.errstate(invalid="ignore"):
            expected = float(
                (((region == eu) & (age < 25)) | (age > 60)).sum()
            )
        assert executor.execute(distributed) == expected

    def test_or_parsing_respects_precedence(self, customer_orders_db):
        """a OR b AND c means a OR (b AND c): CNF is (a OR b)(a OR c)."""
        query = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE age > 60 OR region = 'EU' AND age < 25",
            customer_orders_db.schema,
        )
        assert len(query.disjunctions) == 2

    def test_join_condition_inside_or_rejected(self, customer_orders_db):
        with pytest.raises(SyntaxError):
            parse_query(
                "SELECT COUNT(*) FROM customer, orders "
                "WHERE customer.c_id = orders.c_id OR customer.age < 25",
                customer_orders_db.schema,
            )

    def test_too_complex_where_rejected(self, customer_orders_db):
        clause = " OR ".join(
            f"(age = {i} AND region = 'EU')" for i in range(10)
        )
        with pytest.raises(SyntaxError):
            parse_query(
                f"SELECT COUNT(*) FROM customer WHERE {clause}",
                customer_orders_db.schema,
            )

    def test_end_to_end_sql_or(self, compiler, executor, customer_orders_db):
        sql = (
            "SELECT COUNT(*) FROM customer "
            "WHERE region = 'ASIA' OR age > 55"
        )
        query = parse_query(sql, customer_orders_db.schema)
        exact = executor.execute(query)
        estimate = compiler.estimate_count(query).value
        assert estimate == pytest.approx(exact, rel=0.1)


class TestBaselineExpansion:
    """Conjunctive-only baselines answer OR queries via expansion."""

    def test_postgres_handles_disjunctions(self, customer_orders_db, executor):
        from repro.baselines.postgres_estimator import PostgresEstimator
        from repro.evaluation.metrics import q_error

        estimator = PostgresEstimator(customer_orders_db)
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "region", "=", "ASIA"),
            )
        )
        truth = executor.execute(query)
        assert q_error(truth, estimator.cardinality(query)) < 1.5

    def test_chow_liu_handles_disjunctions(self, customer_orders_db, executor):
        from repro.baselines.bayesnet import ChowLiuEstimator
        from repro.evaluation.metrics import q_error

        estimator = ChowLiuEstimator(customer_orders_db, seed=0)
        query = _or_query(
            (
                Predicate("customer", "age", "<", 25),
                Predicate("customer", "age", ">", 65),
            )
        )
        truth = executor.execute(query)
        assert q_error(truth, estimator.cardinality(query)) < 2.0

    def test_ibjs_handles_disjunctions(self, customer_orders_db, executor):
        from repro.baselines.ibjs import IndexBasedJoinSampling
        from repro.evaluation.metrics import q_error

        estimator = IndexBasedJoinSampling(customer_orders_db, n_walks=500)
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("orders", "channel", "=", "ONLINE"),
            ),
            tables=("customer", "orders"),
        )
        truth = executor.execute(query)
        assert q_error(truth, estimator.cardinality(query)) < 3.0

    def test_mcsn_rejects_disjunctions(self, customer_orders_db):
        from repro.baselines.mcsn import MCSN

        model = MCSN(customer_orders_db, hidden=8, epochs=1, seed=0)
        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "age", "<", 30),
            )
        )
        with pytest.raises(ValueError):
            model.predict(query)

    def test_expansion_helper_matches_exact_executor(
        self, customer_orders_db, executor
    ):
        from repro.core.disjunction import cardinality_via_expansion

        query = _or_query(
            (
                Predicate("customer", "region", "=", "EU"),
                Predicate("customer", "age", "<", 25),
            )
        )
        via_helper = cardinality_via_expansion(executor, query)
        direct = executor.execute(query)
        assert via_helper == pytest.approx(max(direct, 1.0))


class TestNegation:
    """NOT in WHERE clauses: De Morgan + atom negation."""

    def test_not_comparison(self, customer_orders_db, executor):
        negated = parse_query(
            "SELECT COUNT(*) FROM customer WHERE NOT age < 40",
            customer_orders_db.schema,
        )
        direct = parse_query(
            "SELECT COUNT(*) FROM customer WHERE age >= 40",
            customer_orders_db.schema,
        )
        assert executor.execute(negated) == executor.execute(direct)

    def test_not_excludes_nulls(self, customer_orders_db, executor):
        """SQL three-valued logic: NOT (x = c) is not true for NULL x,
        so NOT(=) plus (=) never double-counts NULL rows."""
        positive = parse_query(
            "SELECT COUNT(*) FROM customer WHERE region = 'EU'",
            customer_orders_db.schema,
        )
        negated = parse_query(
            "SELECT COUNT(*) FROM customer WHERE NOT region = 'EU'",
            customer_orders_db.schema,
        )
        not_null = parse_query(
            "SELECT COUNT(*) FROM customer WHERE region IS NOT NULL",
            customer_orders_db.schema,
        )
        total = executor.execute(positive) + executor.execute(negated)
        assert total == executor.execute(not_null)

    def test_not_in_becomes_conjunction(self, customer_orders_db):
        query = parse_query(
            "SELECT COUNT(*) FROM customer WHERE NOT region IN ('EU', 'ASIA')",
            customer_orders_db.schema,
        )
        assert len(query.predicates) == 2
        assert all(p.op == "<>" for p in query.predicates)

    def test_not_between_becomes_or_group(self, customer_orders_db, executor):
        query = parse_query(
            "SELECT COUNT(*) FROM customer WHERE NOT age BETWEEN 30 AND 50",
            customer_orders_db.schema,
        )
        assert len(query.disjunctions) == 1
        assert len(query.disjunctions[0]) == 2
        direct = parse_query(
            "SELECT COUNT(*) FROM customer WHERE age < 30 OR age > 50",
            customer_orders_db.schema,
        )
        assert executor.execute(query) == executor.execute(direct)

    def test_de_morgan_over_and(self, customer_orders_db, executor):
        negated = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE NOT (region = 'EU' AND age < 40)",
            customer_orders_db.schema,
        )
        expanded = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE region <> 'EU' OR age >= 40",
            customer_orders_db.schema,
        )
        assert executor.execute(negated) == executor.execute(expanded)

    def test_de_morgan_over_or(self, customer_orders_db, executor):
        negated = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE NOT (region = 'EU' OR age < 40)",
            customer_orders_db.schema,
        )
        expanded = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE region <> 'EU' AND age >= 40",
            customer_orders_db.schema,
        )
        assert executor.execute(negated) == executor.execute(expanded)

    def test_double_negation(self, customer_orders_db, executor):
        double = parse_query(
            "SELECT COUNT(*) FROM customer WHERE NOT NOT region = 'EU'",
            customer_orders_db.schema,
        )
        plain = parse_query(
            "SELECT COUNT(*) FROM customer WHERE region = 'EU'",
            customer_orders_db.schema,
        )
        assert double.predicates == plain.predicates
        assert executor.execute(double) == executor.execute(plain)

    def test_not_is_null(self, customer_orders_db):
        query = parse_query(
            "SELECT COUNT(*) FROM customer WHERE NOT age IS NULL",
            customer_orders_db.schema,
        )
        assert query.predicates[0].op == "IS NOT NULL"

    def test_negated_join_condition_rejected(self, customer_orders_db):
        with pytest.raises(SyntaxError):
            parse_query(
                "SELECT COUNT(*) FROM customer, orders "
                "WHERE NOT customer.c_id = orders.c_id",
                customer_orders_db.schema,
            )

    def test_compiled_estimate_on_negated_query(
        self, compiler, executor, customer_orders_db
    ):
        query = parse_query(
            "SELECT COUNT(*) FROM customer "
            "WHERE NOT (region = 'EU' AND age < 40)",
            customer_orders_db.schema,
        )
        truth = executor.execute(query)
        assert compiler.estimate_count(query).value == pytest.approx(
            truth, rel=0.1
        )
