"""Query AST for the query class supported by the paper.

Supported (Section 4.1/4.2 of the paper): COUNT/SUM/AVG aggregates,
conjunctions of predicates of the form ``attribute op constant`` with
``op`` one of ``= <> < <= > >= IN BETWEEN IS NULL / IS NOT NULL``,
equi-joins along foreign-key edges, GROUP BY, and left/right/full outer
joins.  String pattern matching, arithmetic expressions and UDFs are out
of scope, exactly as in the paper.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=", "IN", "BETWEEN", "IS NULL", "IS NOT NULL")

INNER = "inner"
FULL_OUTER = "full_outer"
LEFT_OUTER = "left_outer"


def _literal_key(value):
    """A total order over literals of mixed type: numbers, text, the rest."""
    if isinstance(value, numbers.Real):
        return (0, value, "")
    if isinstance(value, str):
        return (1, 0, value)
    return (2, 0, repr(value))


def _predicate_key(predicate):
    return (predicate.table, predicate.column, predicate.op,
            _literal_key(predicate.value))


def _sorted_predicates(predicates):
    return tuple(sorted((p.normalized() for p in predicates),
                        key=_predicate_key))


@dataclass(frozen=True)
class Predicate:
    """One filter condition ``table.column op value``.

    ``value`` holds the raw (unencoded) constant: a scalar for comparison
    operators, a tuple/list for ``IN``, a ``(low, high)`` pair for
    ``BETWEEN`` and ``None`` for the NULL tests.
    """

    table: str
    column: str
    op: str
    value: object = None

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported operator {self.op!r}")
        if self.op == "IN" and not isinstance(self.value, (tuple, list, set, frozenset)):
            raise ValueError("IN predicate requires a collection value")
        if self.op == "BETWEEN":
            if not isinstance(self.value, (tuple, list)) or len(self.value) != 2:
                raise ValueError("BETWEEN requires a (low, high) pair")

    @property
    def qualified_column(self):
        return f"{self.table}.{self.column}"

    def normalized(self):
        """This predicate with its literal in canonical form: an IN set
        sorted and deduplicated, a BETWEEN pair as a tuple."""
        if self.op == "IN":
            value = tuple(sorted(set(self.value), key=_literal_key))
        elif self.op == "BETWEEN":
            value = tuple(self.value)
        else:
            return self
        return Predicate(self.table, self.column, self.op, value)

    def describe(self):
        if self.op in ("IS NULL", "IS NOT NULL"):
            return f"{self.qualified_column} {self.op}"
        return f"{self.qualified_column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class Aggregate:
    """Aggregate function: COUNT(*), SUM(t.c) or AVG(t.c)."""

    function: str
    table: str | None = None
    column: str | None = None

    def __post_init__(self):
        if self.function not in ("COUNT", "SUM", "AVG"):
            raise ValueError(f"unsupported aggregate {self.function!r}")
        if self.function != "COUNT" and (self.table is None or self.column is None):
            raise ValueError(f"{self.function} requires a target column")

    @property
    def qualified_column(self):
        if self.table is None:
            return None
        return f"{self.table}.{self.column}"

    def describe(self):
        if self.function == "COUNT":
            return "COUNT(*)"
        return f"{self.function}({self.qualified_column})"

    @classmethod
    def count(cls):
        return cls("COUNT")

    @classmethod
    def sum(cls, table, column):
        return cls("SUM", table, column)

    @classmethod
    def avg(cls, table, column):
        return cls("AVG", table, column)


_HAVING_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Having:
    """One HAVING condition: ``aggregate op constant``.

    The aggregate may differ from the query's selected aggregate (e.g.
    ``SELECT AVG(x) ... GROUP BY g HAVING COUNT(*) > 10``); several
    Having clauses are combined with AND.
    """

    aggregate: Aggregate
    op: str
    value: float

    def __post_init__(self):
        if self.op not in _HAVING_OPS:
            raise ValueError(f"unsupported HAVING operator {self.op!r}")

    def accepts(self, aggregate_value):
        """SQL comparison; NULL aggregate values never qualify."""
        if aggregate_value is None:
            return False
        comparators = {
            "=": lambda a, b: a == b,
            "<>": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        return comparators[self.op](aggregate_value, self.value)

    def describe(self):
        return f"{self.aggregate.describe()} {self.op} {self.value!r}"


@dataclass(frozen=True)
class Query:
    """One aggregate query over a connected set of tables.

    Joins are implicit: the FK edges of the schema graph induced by
    ``tables`` define the (tree-shaped) join.  ``join_kind`` applies to
    all joins of the query; the paper's outer-join extension (Section
    4.2) only changes which NULL-extended tuples are filtered out.

    ``disjunctions`` extends the conjunctive predicate class with OR:
    each entry is a tuple of predicates combined with OR, and all entries
    are combined with AND with each other and with ``predicates`` (i.e.
    the WHERE clause is in conjunctive normal form with atomic literals).
    The query compiler answers such queries through the
    inclusion-exclusion principle, as the paper suggests in Section 4.1.

    Group-by queries additionally support ``having`` (AND of
    :class:`Having` conditions on per-group aggregates), ordering of the
    groups by the selected aggregate value (``order`` of ``"asc"`` /
    ``"desc"``) and ``limit`` (top-k groups after ordering).
    """

    tables: tuple
    aggregate: Aggregate = field(default_factory=Aggregate.count)
    predicates: tuple = ()
    group_by: tuple = ()
    join_kind: str = INNER
    disjunctions: tuple = ()
    having: tuple = ()
    order: str | None = None
    limit: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "predicates", tuple(self.predicates))
        object.__setattr__(self, "group_by", tuple(self.group_by))
        object.__setattr__(
            self, "disjunctions", tuple(tuple(group) for group in self.disjunctions)
        )
        if self.join_kind not in (INNER, FULL_OUTER, LEFT_OUTER):
            raise ValueError(f"unsupported join kind {self.join_kind!r}")
        for predicate in self.predicates:
            if predicate.table not in self.tables:
                raise ValueError(
                    f"predicate on {predicate.table!r} but query tables are {self.tables}"
                )
        for group in self.disjunctions:
            if not group:
                raise ValueError("empty OR group")
            for predicate in group:
                if predicate.table not in self.tables:
                    raise ValueError(
                        f"predicate on {predicate.table!r} but query tables "
                        f"are {self.tables}"
                    )
        for table, _column in self.group_by:
            if table not in self.tables:
                raise ValueError(f"group-by on {table!r} not in query tables")
        object.__setattr__(self, "having", tuple(self.having))
        if (self.having or self.order or self.limit is not None) and not self.group_by:
            raise ValueError("HAVING / ORDER / LIMIT require GROUP BY")
        for clause in self.having:
            table = clause.aggregate.table
            if table is not None and table not in self.tables:
                raise ValueError(f"HAVING on {table!r} not in query tables")
        if self.order not in (None, "asc", "desc"):
            raise ValueError(f"unsupported order {self.order!r}")
        if self.limit is not None and self.limit < 1:
            raise ValueError("LIMIT must be positive")

    @property
    def has_disjunctions(self):
        return bool(self.disjunctions)

    def predicates_on(self, table):
        return [p for p in self.predicates if p.table == table]

    def with_extra_predicates(self, extra):
        return Query(
            tables=self.tables,
            aggregate=self.aggregate,
            predicates=tuple(self.predicates) + tuple(extra),
            group_by=(),
            join_kind=self.join_kind,
            disjunctions=self.disjunctions,
        )

    def without_group_by(self):
        if not self.group_by:
            return self
        return Query(
            tables=self.tables,
            aggregate=self.aggregate,
            predicates=self.predicates,
            group_by=(),
            join_kind=self.join_kind,
            disjunctions=self.disjunctions,
        )

    def without_disjunctions(self):
        if not self.disjunctions:
            return self
        return Query(
            tables=self.tables,
            aggregate=self.aggregate,
            predicates=self.predicates,
            group_by=self.group_by,
            join_kind=self.join_kind,
            having=self.having,
            order=self.order,
            limit=self.limit,
        )

    def with_aggregate(self, aggregate):
        return Query(
            tables=self.tables,
            aggregate=aggregate,
            predicates=self.predicates,
            group_by=self.group_by,
            join_kind=self.join_kind,
            disjunctions=self.disjunctions,
            having=self.having,
            order=self.order,
            limit=self.limit,
        )

    def normalized(self):
        """A hashable canonical form of this query that keeps every
        literal exactly: predicates sorted, IN values sorted and
        deduplicated, each OR group and the groups themselves sorted,
        every other field as it is.  Two queries that differ only in
        the order of their conjuncts, disjuncts or IN values normalize
        to equal forms; any other difference -- one literal -- keeps
        them apart."""
        groups = sorted(
            (_sorted_predicates(group) for group in self.disjunctions),
            key=lambda group: [_predicate_key(p) for p in group],
        )
        return replace(
            self,
            predicates=_sorted_predicates(self.predicates),
            disjunctions=tuple(groups),
        )

    def describe(self):
        parts = [f"SELECT {self.aggregate.describe()}"]
        parts.append("FROM " + ", ".join(self.tables))
        clauses = [p.describe() for p in self.predicates]
        clauses += [
            "(" + " OR ".join(p.describe() for p in group) + ")"
            for group in self.disjunctions
        ]
        if clauses:
            parts.append("WHERE " + " AND ".join(clauses))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(f"{t}.{c}" for t, c in self.group_by))
        if self.having:
            parts.append("HAVING " + " AND ".join(h.describe() for h in self.having))
        if self.order:
            parts.append(f"ORDER BY {self.aggregate.describe()} {self.order.upper()}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    def __str__(self):
        return self.describe()


def count_query(tables, predicates=(), join_kind=INNER):
    """Convenience constructor for cardinality-style COUNT queries."""
    return Query(tables=tuple(tables), predicates=tuple(predicates), join_kind=join_kind)
