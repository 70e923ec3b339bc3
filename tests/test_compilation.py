"""Tests for probabilistic query compilation (Section 4, Theorems 1-2).

The key instrument is :class:`EmpiricalRSPN`: an RSPN whose expectation
operator is evaluated *exactly* on the materialised full outer join
instead of a learned SPN.  With a perfect density model, Theorem 1
(Cases 1 and 2) must reproduce exact query results, and Theorem 2 (Case
3) must be exact whenever its conditional-independence premise holds by
construction.  This separates the compilation math from SPN
approximation error.
"""

import itertools

import numpy as np
import pytest

from repro.core import compilation
from repro.core.compilation import CompilationError, ProbabilisticQueryCompiler
from repro.core.ensemble import EnsembleConfig, SPNEnsemble, learn_ensemble
from repro.core.leaves import product_transform
from repro.engine.executor import Executor
from repro.engine.filters import conjunction_mask
from repro.engine.join import (
    full_outer_join_size,
    join_frame,
    join_learning_columns,
    materialize_full_outer_join,
)
from repro.engine.query import Aggregate, Having, Predicate, Query
from tests.conftest import build_customer_orders


class EmpiricalRSPN:
    """Oracle 'RSPN': exact expectations over the materialised join."""

    def __init__(self, database, tables):
        self.tables = frozenset(tables)
        self.full_size = full_outer_join_size(database, list(tables))
        self.internal_edges = database.schema.edges_between(list(tables))
        self.column_names = join_learning_columns(database, list(tables))
        if len(tables) == 1:
            table = database.table(list(tables)[0])
            self._data = np.column_stack(
                [table.columns[c.split(".", 1)[1]] for c in self.column_names]
            )
        else:
            join = materialize_full_outer_join(database, list(tables))
            self._data = join_frame(join, self.column_names)
        self.sample_size = float(self._data.shape[0])
        self._index = {name: i for i, name in enumerate(self.column_names)}

    @property
    def is_join_model(self):
        return len(self.tables) > 1

    def has_column(self, name):
        return name in self._index

    def expectation(self, conditions=None, transforms=None):
        values = np.ones(self._data.shape[0])
        for name, rng in (conditions or {}).items():
            column = self._data[:, self._index[name]]
            mask = np.array([rng.contains(v) for v in column])
            values = values * mask
        for name, transform_list in (transforms or {}).items():
            column = self._data[:, self._index[name]]
            transform = product_transform(transform_list)
            contribution = np.where(
                np.isnan(column), transform.null_value, transform.fn(np.where(np.isnan(column), 1.0, column))
            )
            values = values * contribution
        return float(values.mean())


def oracle_ensemble(database, table_sets):
    ensemble = SPNEnsemble(database)
    for tables in table_sets:
        ensemble.add(EmpiricalRSPN(database, tables))
    return ensemble


@pytest.fixture(scope="module")
def db():
    return build_customer_orders(n_customers=300, with_orderlines=True, seed=21)


@pytest.fixture(scope="module")
def executor(db):
    return Executor(db)


def q_count(tables, *predicates):
    return Query(tuple(tables), predicates=tuple(predicates))


class TestCase1And2Exact:
    """With a perfect model, Theorem 1 is exact for any predicate set."""

    def test_single_table_exact(self, db, executor):
        compiler = ProbabilisticQueryCompiler(oracle_ensemble(db, [["customer"]]))
        query = q_count(["customer"], Predicate("customer", "region", "=", "EU"))
        assert compiler.estimate_count(query).value == pytest.approx(
            executor.cardinality(query)
        )

    def test_join_query_on_matching_rspn(self, db, executor):
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders"]])
        )
        query = q_count(
            ["customer", "orders"],
            Predicate("customer", "region", "=", "EU"),
            Predicate("orders", "channel", "=", "ONLINE"),
        )
        assert compiler.estimate_count(query).value == pytest.approx(
            executor.cardinality(query)
        )

    def test_single_table_query_on_larger_rspn(self, db, executor):
        """Case 2: tuple-factor normalisation undoes join duplication."""
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders"]])
        )
        query = q_count(["customer"], Predicate("customer", "region", "=", "EU"))
        assert compiler.estimate_count(query).value == pytest.approx(
            executor.cardinality(query)
        )

    def test_two_table_query_on_three_table_rspn(self, db, executor):
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders", "orderline"]])
        )
        query = q_count(
            ["customer", "orders"],
            Predicate("orders", "channel", "=", "STORE"),
        )
        assert compiler.estimate_count(query).value == pytest.approx(
            executor.cardinality(query)
        )

    def test_middle_table_query_on_three_table_rspn(self, db, executor):
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders", "orderline"]])
        )
        query = q_count(["orders"], Predicate("orders", "channel", "=", "ONLINE"))
        assert compiler.estimate_count(query).value == pytest.approx(
            executor.cardinality(query)
        )

    def test_leaf_table_query_on_three_table_rspn(self, db, executor):
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders", "orderline"]])
        )
        query = q_count(["orderline"], Predicate("orderline", "qty", ">", 5))
        assert compiler.estimate_count(query).value == pytest.approx(
            executor.cardinality(query)
        )

    def test_empty_predicate_range_returns_zero(self, db):
        compiler = ProbabilisticQueryCompiler(oracle_ensemble(db, [["customer"]]))
        query = q_count(
            ["customer"],
            Predicate("customer", "age", ">", 100),
            Predicate("customer", "age", "<", 50),
        )
        assert compiler.estimate_count(query).value == 0.0


class TestPaperExampleQ2:
    """Query Q2 of the paper: count of European online orders."""

    def build_paper_db(self):
        from tests.test_join import paper_example_db
        from repro.engine.join import compute_tuple_factors

        database = paper_example_db()
        compute_tuple_factors(database)
        return database

    def test_case1_full_outer_join_formula(self):
        """|C join O| * P(online, europe, N_C, N_O) = 5 * 1/5 = 1."""
        database = self.build_paper_db()
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(database, [["customer", "orders"]])
        )
        query = q_count(
            ["customer", "orders"],
            Predicate("customer", "c_region", "=", "EUROPE"),
            Predicate("orders", "o_channel", "=", "ONLINE"),
        )
        assert compiler.estimate_count(query).value == pytest.approx(1.0)

    def test_case2_customer_count(self):
        """European customers via the join RSPN = 2 (Section 4.1)."""
        database = self.build_paper_db()
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(database, [["customer", "orders"]])
        )
        query = q_count(["customer"], Predicate("customer", "c_region", "=", "EUROPE"))
        assert compiler.estimate_count(query).value == pytest.approx(2.0)

    def test_case3_combination(self):
        """Separate customer and order RSPNs combine to 1 (Section 4.1)."""
        database = self.build_paper_db()
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(database, [["customer"], ["orders"]])
        )
        query = q_count(
            ["customer", "orders"],
            Predicate("customer", "c_region", "=", "EUROPE"),
            Predicate("orders", "o_channel", "=", "ONLINE"),
        )
        assert compiler.estimate_count(query).value == pytest.approx(1.0)


class TestCase3:
    def test_exact_under_independence(self):
        """Uniform fan-out and independent predicates: Theorem 2 is exact."""
        rng = np.random.default_rng(0)
        from repro.engine.table import Database, Table
        from repro.schema.schema import Attribute, SchemaGraph, TableSchema
        from repro.engine.join import compute_tuple_factors

        schema = SchemaGraph()
        schema.add_table(
            TableSchema(
                "a",
                [Attribute("id", "key"), Attribute("color", "categorical")],
                primary_key="id",
            )
        )
        schema.add_table(
            TableSchema(
                "b",
                [
                    Attribute("id", "key"),
                    Attribute("a_id", "key"),
                    Attribute("shape", "categorical"),
                ],
                primary_key="id",
            )
        )
        schema.add_foreign_key("a", "b", "a_id")
        n = 200
        database = Database(schema)
        database.add_table(
            Table.from_columns(
                schema.table("a"),
                {
                    "id": np.arange(n, dtype=float),
                    "color": ["red" if i % 2 else "blue" for i in range(n)],
                },
            )
        )
        owner = np.repeat(np.arange(n), 2)  # constant fan-out of 2
        database.add_table(
            Table.from_columns(
                schema.table("b"),
                {
                    "id": np.arange(2 * n, dtype=float),
                    "a_id": owner.astype(float),
                    # each parent has exactly one square and one circle, so
                    # shape is independent of color by construction
                    "shape": ["square" if i % 2 == 0 else "circle" for i in range(2 * n)],
                },
            )
        )
        compute_tuple_factors(database)
        compiler = ProbabilisticQueryCompiler(oracle_ensemble(database, [["a"], ["b"]]))
        query = q_count(
            ["a", "b"],
            Predicate("a", "color", "=", "red"),
            Predicate("b", "shape", "=", "circle"),
        )
        assert compiler.estimate_count(query).value == pytest.approx(
            Executor(database).cardinality(query)
        )

    def test_three_table_chain_from_singles(self, db, executor):
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer"], ["orders"], ["orderline"]])
        )
        query = q_count(
            ["customer", "orders", "orderline"],
            Predicate("orderline", "qty", ">", 5),
        )
        true = executor.cardinality(query)
        estimate = compiler.estimate_count(query).value
        assert estimate == pytest.approx(true, rel=0.15)

    def test_parent_direction_expansion(self, db, executor):
        """Anchor on orders, expand to the parent customer table."""
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer"], ["orders", "orderline"]])
        )
        query = q_count(
            ["customer", "orders"],
            Predicate("customer", "region", "=", "EU"),
            Predicate("orders", "channel", "=", "ONLINE"),
        )
        true = executor.cardinality(query)
        estimate = compiler.estimate_count(query).value
        # predicates are correlated across tables, so Case 3 approximates
        assert estimate == pytest.approx(true, rel=0.35)

    def test_uncoverable_query_raises(self, db):
        compiler = ProbabilisticQueryCompiler(oracle_ensemble(db, [["customer"]]))
        with pytest.raises(CompilationError):
            compiler.estimate_count(q_count(["customer", "orders"]))


class TestAvgSumGroupBy:
    def test_avg_exact_on_matching_rspn(self, db, executor):
        compiler = ProbabilisticQueryCompiler(oracle_ensemble(db, [["customer"]]))
        query = Query(
            ("customer",),
            aggregate=Aggregate.avg("customer", "age"),
            predicates=(Predicate("customer", "region", "=", "EU"),),
        )
        assert compiler.estimate_avg(query).value == pytest.approx(
            executor.execute(query)
        )

    def test_avg_with_factor_normalisation(self, db, executor):
        """AVG over a single table served from the join RSPN (paper 4.2)."""
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders"]])
        )
        query = Query(
            ("customer",),
            aggregate=Aggregate.avg("customer", "age"),
            predicates=(Predicate("customer", "region", "=", "EU"),),
        )
        assert compiler.estimate_avg(query).value == pytest.approx(
            executor.execute(query)
        )

    def test_avg_over_join_weights_by_fanout(self, db, executor):
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders"]])
        )
        query = Query(
            ("customer", "orders"),
            aggregate=Aggregate.avg("customer", "age"),
        )
        assert compiler.estimate_avg(query).value == pytest.approx(
            executor.execute(query)
        )

    def test_sum_equals_count_times_avg(self, db, executor):
        compiler = ProbabilisticQueryCompiler(oracle_ensemble(db, [["customer"]]))
        query = Query(
            ("customer",),
            aggregate=Aggregate.sum("customer", "age"),
            predicates=(Predicate("customer", "region", "=", "ASIA"),),
        )
        assert compiler.estimate_sum(query).value == pytest.approx(
            executor.execute(query)
        )

    def test_group_by_counts(self, db, executor):
        compiler = ProbabilisticQueryCompiler(oracle_ensemble(db, [["customer"]]))
        query = Query(("customer",), group_by=(("customer", "region"),))
        estimated = compiler.answer(query)
        true = executor.execute(query)
        assert set(estimated) == set(true)
        for key, value in true.items():
            assert estimated[key] == pytest.approx(value)

    def test_group_by_avg_across_join(self, db, executor):
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders"]])
        )
        query = Query(
            ("customer", "orders"),
            aggregate=Aggregate.avg("customer", "age"),
            group_by=(("orders", "channel"),),
        )
        estimated = compiler.answer(query)
        true = executor.execute(query)
        for key, value in true.items():
            assert estimated[key] == pytest.approx(value, rel=1e-6)


class TestOuterJoinCompilation:
    def test_full_outer_count(self, db, executor):
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer", "orders"]])
        )
        query = Query(("customer", "orders"), join_kind="full_outer")
        assert compiler.estimate_count(query).value == pytest.approx(
            executor.execute(query)
        )


class TestLearnedEndToEnd:
    """The full pipeline with actually learned RSPNs (statistical bounds)."""

    def test_learned_ensemble_median_qerror(self, db, executor):
        ensemble = learn_ensemble(db, EnsembleConfig(sample_size=20_000))
        compiler = ProbabilisticQueryCompiler(ensemble)
        queries = [
            q_count(["customer"], Predicate("customer", "region", "=", "EU")),
            q_count(["customer"], Predicate("customer", "age", "<", 40)),
            q_count(
                ["customer", "orders"],
                Predicate("customer", "region", "=", "ASIA"),
                Predicate("orders", "channel", "=", "STORE"),
            ),
            q_count(["orders"], Predicate("orders", "channel", "=", "ONLINE")),
        ]
        from repro.evaluation.metrics import q_error

        errors = [
            q_error(executor.cardinality(q), compiler.cardinality(q)) for q in queries
        ]
        assert float(np.median(errors)) < 1.6


# ----------------------------------------------------------------------
# GROUP BY: one template per stage, bound per group
# ----------------------------------------------------------------------
def per_group_domain(compiler, table_name, column, query):
    """A group column's domain from a filtered copy of its table."""
    table = compiler.database.table(table_name)
    predicates = query.predicates_on(table_name)
    if not predicates:
        return table.distinct_values(column, decoded=True)
    selected = table.select(conjunction_mask(table, predicates))
    return selected.distinct_values(column, decoded=True)


def per_group_estimates(compiler, query):
    """GROUP BY with one full compilation per group and stage: the
    oracle the compiled-once templates must reproduce spec for spec."""
    per_column = [
        per_group_domain(compiler, table, column, query)
        for table, column in query.group_by
    ]
    scalar = query.without_group_by()
    groups = [
        (
            combo,
            scalar.with_extra_predicates(tuple(
                Predicate(table, column, "=", value)
                for (table, column), value in zip(query.group_by, combo)
            )),
        )
        for combo in itertools.product(*per_column)
    ]
    counts = [
        compiler.estimate_count(grouped.with_aggregate(Aggregate.count()))
        for _, grouped in groups
    ]
    compiler.evaluate_estimates(counts)
    survivors = [
        (combo, grouped, count)
        for (combo, grouped), count in zip(groups, counts)
        if count.value >= compiler.min_group_count
    ]
    for clause in query.having:
        if clause.aggregate.function == "COUNT":
            estimates = [count for _, _, count in survivors]
        else:
            estimates = [
                compiler._estimate(grouped.with_aggregate(clause.aggregate))
                for _, grouped, _ in survivors
            ]
            compiler.evaluate_estimates(estimates)
        survivors = [
            entry
            for entry, estimate in zip(survivors, estimates)
            if clause.accepts(estimate.value)
        ]
    if query.aggregate.function == "COUNT":
        results = [(combo, count) for combo, _, count in survivors]
    else:
        estimates = [compiler._estimate(grouped) for _, grouped, _ in survivors]
        compiler.evaluate_estimates(estimates)
        results = [
            (combo, estimate)
            for (combo, _, _), estimate in zip(survivors, estimates)
        ]
    return compiler._order_and_limit(results, query)


def expectation_specs(estimate):
    """Every expectation's (ordered conditions, transforms), in order."""
    return [
        (list(expectation.conditions.items()), expectation.transform_map())
        for expectation in estimate.expectations()
    ]


_C, _O, _L = "customer", "orders", "orderline"
_EU = Predicate(_C, "region", "=", "EU")
_YOUNG = Predicate(_C, "age", "<", 30)
_GROUP_BY_SHAPES = {
    "count": Query((_C,), predicates=(Predicate(_C, "age", ">=", 30),),
                   group_by=((_C, "region"),)),
    "avg": Query((_C,), aggregate=Aggregate.avg(_C, "age"),
                 group_by=((_C, "region"),)),
    "sum": Query((_C,), aggregate=Aggregate.sum(_C, "age"),
                 predicates=(Predicate(_C, "age", "<", 50),),
                 group_by=((_C, "region"),)),
    "join_two_columns": Query((_C, _O), group_by=((_C, "region"), (_O, "channel"))),
    "join_avg": Query((_O, _L), aggregate=Aggregate.avg(_L, "qty"),
                      predicates=(Predicate(_L, "qty", ">=", 3),),
                      group_by=((_O, "channel"),)),
    "three_way": Query((_C, _O, _L), aggregate=Aggregate.sum(_L, "qty"),
                       predicates=(_EU,), group_by=((_O, "channel"),)),
    "filter_on_grouped_column": Query(
        (_C,), predicates=(Predicate(_C, "age", ">=", 60),),
        group_by=((_C, "age"),)),
    "group_by_aggregated_column": Query(
        (_C,), aggregate=Aggregate.avg(_C, "age"),
        predicates=(Predicate(_C, "age", ">=", 60),), group_by=((_C, "age"),)),
    "disjunctive_count": Query((_C,), disjunctions=((_EU, _YOUNG),),
                               group_by=((_C, "age"),)),
    "disjunctive_sum": Query((_C,), aggregate=Aggregate.sum(_C, "age"),
                             disjunctions=((_EU, _YOUNG),),
                             group_by=((_C, "age"),)),
    "disjunctive_avg_join": Query((_C, _O), aggregate=Aggregate.avg(_C, "age"),
                                  disjunctions=((_EU, _YOUNG),),
                                  group_by=((_O, "channel"),)),
    "having": Query((_C, _O), aggregate=Aggregate.avg(_C, "age"),
                    group_by=((_C, "region"), (_O, "channel")),
                    having=(Having(Aggregate.count(), ">", 50),
                            Having(Aggregate.sum(_C, "age"), ">", 1_000))),
    "order_limit": Query((_C,), group_by=((_C, "age"),), order="desc", limit=5),
}


@pytest.fixture(scope="module")
def learned(db):
    """Learned ensembles: ``joined`` (a customer-orders RSPN), ``single``
    (one RSPN per table: every join is a Case-3 expansion) and ``mixed``
    (both, so the median strategy has several candidates)."""
    config = dict(sample_size=3_000, correlation_sample=400)
    joined = learn_ensemble(db, EnsembleConfig(**config))
    single = learn_ensemble(db, EnsembleConfig(**config, single_tables_only=True))
    mixed = SPNEnsemble(db)
    for rspn in joined.rspns + single.rspns:
        mixed.add(rspn)
    mixed.attribute_rdc = dict(joined.attribute_rdc)
    return {"joined": joined, "single": single, "mixed": mixed}


class TestGroupTemplate:
    """Each GROUP BY stage compiles once and binds every group's value;
    the bound estimates must be, spec for spec, the per-group
    compilations they replace, with ``==`` values and intervals."""

    @staticmethod
    def _assert_matches_oracle(compiler, query):
        bound = compiler._group_estimates(query)
        oracle = per_group_estimates(compiler, query)
        assert [combo for combo, _ in bound] == [combo for combo, _ in oracle]
        for (combo, estimate), (_, expected) in zip(bound, oracle):
            assert expectation_specs(estimate) == expectation_specs(expected), combo
            assert estimate.value == expected.value, combo
            assert (
                estimate.confidence_interval() == expected.confidence_interval()
            ), combo
        assert compiler.answer_with_confidence(query) == {
            combo: (estimate.value, estimate.confidence_interval())
            for combo, estimate in oracle
        }
        return bound

    @pytest.mark.parametrize("strategy", ["rdc", "median", "first"])
    @pytest.mark.parametrize("shape", sorted(_GROUP_BY_SHAPES))
    def test_template_equals_per_group_compilation(self, learned, shape, strategy):
        compiler = ProbabilisticQueryCompiler(learned["mixed"], strategy=strategy)
        assert self._assert_matches_oracle(compiler, _GROUP_BY_SHAPES[shape])

    @pytest.mark.parametrize("shape", sorted(_GROUP_BY_SHAPES))
    def test_case3_template_equals_per_group_compilation(self, learned, shape):
        compiler = ProbabilisticQueryCompiler(learned["single"])
        assert self._assert_matches_oracle(compiler, _GROUP_BY_SHAPES[shape])

    def test_exact_oracle_rspns(self, db, executor):
        """Theorem 1/2 on exact expectations: grouped Case-3 answers
        equal the per-group compilation and the executor."""
        compiler = ProbabilisticQueryCompiler(
            oracle_ensemble(db, [["customer"], ["orders"], ["orderline"]])
        )
        query = Query((_C, _O), group_by=((_C, "region"),))
        self._assert_matches_oracle(compiler, query)
        estimated = compiler.answer(query)
        for key, value in executor.execute(query).items():
            assert estimated[key] == pytest.approx(value, rel=1e-6)

    def test_groups_outside_a_disjunct_bind_to_empty_units(self, learned):
        """``age < 30`` misses most age groups: those inclusion-exclusion
        components must bind to the exact zero a per-group compilation
        returns for an empty range."""
        compiler = ProbabilisticQueryCompiler(learned["joined"])
        query = _GROUP_BY_SHAPES["disjunctive_count"]
        bound = dict(compiler._group_estimates(query))
        old = [estimate for (age,), estimate in bound.items() if age >= 30]
        assert old
        for estimate in old:
            values = [component.value for _, component in estimate.components]
            assert values.count(0.0) == 2  # age < 30, and EU AND age < 30

    def test_expectations_without_group_attributes_are_shared(self, learned):
        """A Case-3 denominator without conditions is one spec for every
        group, not one per group; single-table templates share none."""
        compiler = ProbabilisticQueryCompiler(learned["single"])
        query = Query((_C, _O), group_by=((_O, "channel"),))
        bound = compiler._group_estimates(query)
        oracle = per_group_estimates(compiler, query)
        assert len(bound) == len(oracle) > 1

        def distinct(results):
            return len({
                id(expectation)
                for _, estimate in results
                for expectation in estimate.expectations()
            })

        assert distinct(bound) < distinct(oracle)
        single = _GROUP_BY_SHAPES["avg"]
        assert distinct(compiler._group_estimates(single)) == distinct(
            per_group_estimates(compiler, single)
        )


class TestGroupDomains:
    """The group domains come from one mask per grouped table and equal
    the per-column filtered copies they replace."""

    @staticmethod
    def _assert_domains_equal(compiler, query):
        got = compiler._group_domains(query)
        expected = [
            per_group_domain(compiler, table, column, query)
            for table, column in query.group_by
        ]
        assert [type(values) for values in got] == [type(v) for v in expected]
        assert [list(values) for values in got] == [list(v) for v in expected]
        return got

    @pytest.mark.parametrize("predicates", [
        (),
        (Predicate(_C, "age", ">=", 40), Predicate(_C, "region", "=", "EU")),
        (Predicate(_C, "age", "<", 0),),  # empties the table
    ])
    def test_two_columns_on_one_table(self, learned, predicates):
        compiler = ProbabilisticQueryCompiler(learned["joined"])
        query = Query((_C,), predicates=predicates,
                      group_by=((_C, "region"), (_C, "age")))
        regions, ages = self._assert_domains_equal(compiler, query)
        if predicates and predicates[0].value == 0:
            assert list(regions) == [] and list(ages) == []
            assert compiler.answer(query) == {}
        else:
            assert all(isinstance(region, str) for region in regions)

    def test_each_grouped_table_is_masked_once(self, learned, monkeypatch):
        compiler = ProbabilisticQueryCompiler(learned["joined"])
        query = Query(
            (_C, _O),
            predicates=(Predicate(_C, "age", ">=", 40),
                        Predicate(_O, "channel", "=", "ONLINE")),
            group_by=((_C, "region"), (_O, "channel"), (_C, "age")),
        )
        masked = []

        def counting_mask(table, predicates):
            masked.append(table.name)
            return conjunction_mask(table, predicates)

        monkeypatch.setattr(compilation, "conjunction_mask", counting_mask)
        self._assert_domains_equal(compiler, query)
        assert sorted(masked) == [_C, _O]
