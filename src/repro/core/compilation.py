"""Probabilistic query compilation (Section 4 of the paper).

Incoming COUNT/SUM/AVG queries are translated into products of
expectations and probabilities over the RSPN ensemble:

- **Case 1 / Case 2** -- a single RSPN covers all query tables.  The
  COUNT is ``|J| * E[ 1/F'(Q, J) * 1_C * prod N_T ]`` (Theorem 1): the
  filter conditions ``C`` become leaf ranges, the NULL indicators
  ``N_T`` restrict to real (inner-join) tuples, and the inverse tuple
  factors ``1/F'`` undo the duplication caused by join partners of
  tables outside the query.
- **Case 3** -- the query spans several RSPNs.  The estimate starts from
  an anchor RSPN and is expanded one FK edge at a time (Theorem 2): the
  expansion multiplier is a ratio of two expectations over the RSPN
  covering the new table, and fan-out tuple factors are folded into the
  expectation anchoring the parent table when the expanding RSPN does
  not contain it.
- **Execution strategy** -- when several RSPNs apply, the one handling
  the filter predicates with the highest sum of pairwise RDC values
  (measured during ensemble creation) is chosen greedily.

AVG queries become ratios of conditional expectations normalised by
tuple factors (Section 4.2); SUM = COUNT x AVG; outer joins relax the
NULL indicators and treat zero factors as one.  GROUP BY answers one
query per group (Section 4.2), but compiles it once: a template with an
unbound slot per group attribute, into which each group's value is
bound (:class:`_GroupBinding`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core import confidence as ci
from repro.core import disjunction
from repro.core.leaves import (
    FACTOR_OUTER,
    FACTOR_OUTER_SQUARE,
    IDENTITY,
    INVERSE_FACTOR,
    INVERSE_FACTOR_SQUARE,
    SQUARE,
)
from repro.core.ranges import Range
from repro.engine.filters import conjunction_mask
from repro.engine.join import factor_qualified_name, indicator_qualified_name
from repro.engine.query import INNER, Aggregate, Predicate, Query
from repro.estimator import CardinalityEstimator

_FACTOR_TRANSFORMS = {
    "identity": (IDENTITY, SQUARE),
    "inverse": (INVERSE_FACTOR, INVERSE_FACTOR_SQUARE),
    "outer": (FACTOR_OUTER, FACTOR_OUTER_SQUARE),
    "value": (IDENTITY, SQUARE),
}

_MAX_GROUPS = 100_000

# The value of a GROUP BY template's slot predicate: the group attribute
# is conditioned on, but on no value yet (see :class:`_GroupBinding`).
_SLOT = object()


class CompilationError(RuntimeError):
    """Raised when the ensemble cannot answer a query."""


def _normalisation_edges(rspn, subset):
    """FK edges whose tuple factors duplicate subset-query tuples in the
    RSPN's full outer join (the ``F'(Q, J)`` of Theorem 1).

    Orient the RSPN's join tree outward from the queried ``subset`` by
    BFS.  An edge traversed towards its FK *child* multiplies every
    subset tuple by the child fan-out and needs ``1/F'`` normalisation;
    an edge traversed towards its FK *parent* adds exactly one partner
    (or a NULL extension) and needs none -- a tuple of a leaf table
    appears exactly once in the join.
    """
    adjacency = {}
    for fk in rspn.internal_edges:
        adjacency.setdefault(fk.parent, []).append((fk, fk.child, True))
        adjacency.setdefault(fk.child, []).append((fk, fk.parent, False))
    visited = set(subset)
    frontier = list(subset)
    edges = []
    while frontier:
        table = frontier.pop()
        for fk, other, other_is_child in adjacency.get(table, []):
            if other in visited:
                continue
            visited.add(other)
            frontier.append(other)
            if other_is_child:
                edges.append(fk)
    return edges


@dataclass
class _Expectation:
    """One expectation over one RSPN: conditions plus factor transforms.

    The plain (un-squared) value is cached so that batched evaluation --
    one :meth:`~repro.core.rspn.RSPN.expectation_batch` sweep priming
    many expectations at once -- and the later scalar reads through
    :class:`_Term` observe the same number.
    """

    rspn: object
    conditions: dict = field(default_factory=dict)
    factors: list = field(default_factory=list)  # [(column, kind)]
    _value: float | None = field(default=None, repr=False, compare=False)

    def transform_map(self, squared=False, square_kinds=None):
        """Per-column transform lists realising the factor product."""
        transforms = {}
        for column, kind in self.factors:
            square = squared or (square_kinds is not None and kind in square_kinds)
            transform = _FACTOR_TRANSFORMS[kind][1 if square else 0]
            transforms.setdefault(column, []).append(transform)
        return transforms

    def evaluate(self, squared=False, square_kinds=None):
        """E[T * 1_C]; ``squared`` squares the whole transform product,
        ``square_kinds`` squares only the named factor kinds (used for
        conditional second moments, where the tuple-factor weights define
        the measure and must stay un-squared)."""
        plain = not squared and square_kinds is None
        if plain and self._value is not None:
            return self._value
        value = self.rspn.expectation(
            conditions=self.conditions,
            transforms=self.transform_map(squared, square_kinds),
        )
        if plain:
            self._value = value
        return value

    def prime(self, value):
        """Store a batch-computed plain value."""
        self._value = float(value)

    @property
    def is_primed(self):
        return self._value is not None

    @property
    def has_factors(self):
        return bool(self.factors)


@dataclass
class _Term:
    """An absolute count term, an expansion ratio, or a conditional
    expectation (AVG), distinguished for the confidence-interval math."""

    nominator: _Expectation
    denominator: _Expectation | None = None
    scale: float = 1.0
    conditional: bool = False

    def value(self):
        nominator = self.nominator.evaluate()
        if self.denominator is None:
            return self.scale * nominator
        denominator = self.denominator.evaluate()
        if denominator <= 0:
            return 0.0
        return self.scale * nominator / denominator

    def moments(self):
        if self.conditional:
            return self._conditional_moments()
        nom = ci.expectation_moments(self.nominator)
        if self.denominator is None:
            return self.scale * nom[0], self.scale**2 * nom[1]
        den = ci.expectation_moments(self.denominator)
        mean, variance = ci.ratio_moments(nom, den)
        return self.scale * mean, self.scale**2 * variance

    def _conditional_moments(self):
        """Moments of E[T | C]: the shared selectivity cancels in the
        ratio, so the variance is the Koenig-Huygens conditional variance
        scaled by the conditioned sample count (Section 5.1)."""
        p = self.denominator.evaluate()
        if p <= 0:
            return 0.0, 0.0
        t1 = self.nominator.evaluate() / p
        t2 = self.nominator.evaluate(square_kinds={"value"}) / p
        n = max(self.nominator.rspn.sample_size, 1.0)
        variance = max(t2 - t1 * t1, 0.0) / max(n * p, 1.0)
        return self.scale * t1, self.scale**2 * variance


class Estimate:
    """A compiled estimate: point value plus variance for CIs.

    The value is **lazy**: compilation only assembles the
    :class:`_Term` structure, and the first ``.value`` read evaluates the
    underlying expectations (each cached on its :class:`_Expectation`).
    This split is what allows
    :meth:`ProbabilisticQueryCompiler.evaluate_estimates` to collect the
    expectations of many estimates and prime them with one batched sweep
    per RSPN before any value is read.

    ``parts`` optionally names sub-estimates whose values multiply into
    this one (SUM = COUNT x AVG) -- kept as estimates rather than terms
    so exact zeros (empty selections) survive the product.

    ``slots`` maps each GROUP BY slot attribute of a template unit to
    its merged range (see :class:`_GroupBinding`).
    """

    def __init__(self, value=None, terms=None, parts=None):
        self.terms = list(terms) if terms else []
        self._parts = tuple(parts) if parts else None
        self._value = value
        self.slots = {}

    @property
    def value(self):
        if self._value is None:
            if self._parts is not None:
                value = 1.0
                for part in self._parts:
                    value *= part.value
            else:
                value = 1.0
                for term in self.terms:
                    value *= term.value()
            self._value = value
        return self._value

    def expectations(self):
        """Every :class:`_Expectation` this estimate's value reads."""
        if self._parts is not None:
            for part in self._parts:
                yield from part.expectations()
            return
        for term in self.terms:
            yield term.nominator
            if term.denominator is not None:
                yield term.denominator

    def moments(self):
        if not self.terms:
            return self.value, 0.0
        moments = [term.moments() for term in self.terms]
        return ci.product_moments(moments)

    def confidence_interval(self, confidence=0.95):
        mean, variance = self.moments()
        return ci.interval(mean, variance, confidence)

    def bind(self, binding):
        """One estimate per group of ``binding``, with the group's values
        bound into this template (see :class:`_GroupBinding`)."""
        if self._parts is not None:
            return [
                Estimate(terms=[term for part in parts for term in part.terms],
                         parts=parts)
                for parts in zip(*(part.bind(binding) for part in self._parts))
            ]
        if not self.terms:
            return [self] * binding.n_groups
        return [
            Estimate(0.0) if missed else Estimate(terms=terms)
            for missed, terms in zip(
                binding.misses(self.slots),
                zip(*(binding.term(term) for term in self.terms)),
            )
        ]


class _MedianEstimate(Estimate):
    """Median over several candidate compilations (Section 4.1).

    All candidates' expectations are exposed for batching; forcing the
    value picks the median and keeps the closest term for CI math.
    """

    def __init__(self, candidates):
        super().__init__()
        self.candidates = list(candidates)

    @property
    def value(self):
        if self._value is None:
            values = sorted(term.value() for term in self.candidates)
            median = values[len(values) // 2]
            if len(values) % 2 == 0:
                median = (median + values[len(values) // 2 - 1]) / 2.0
            # The CI follows the term whose estimate is closest to the
            # median.
            closest = min(self.candidates, key=lambda t: abs(t.value() - median))
            self.terms = [closest]
            self._value = median
        return self._value

    def expectations(self):
        for term in self.candidates:
            yield term.nominator
            if term.denominator is not None:
                yield term.denominator

    def moments(self):
        self.value  # noqa: B018 - force the median / closest-term choice
        return super().moments()

    def bind(self, binding):
        return [
            Estimate(0.0) if missed else _MedianEstimate(candidates)
            for missed, candidates in zip(
                binding.misses(self.slots),
                zip(*(binding.term(term) for term in self.candidates)),
            )
        ]


@dataclass
class SumEstimate:
    """A signed sum of estimates (inclusion-exclusion expansions).

    Treating the conjunctive terms as independent, the variance of the
    signed sum is the sum of the term variances.
    """

    components: list  # [(sign, estimate)]

    @property
    def value(self):
        return sum(sign * estimate.value for sign, estimate in self.components)

    def expectations(self):
        for _sign, estimate in self.components:
            yield from estimate.expectations()

    def moments(self):
        mean, variance = 0.0, 0.0
        for sign, estimate in self.components:
            m, v = estimate.moments()
            mean += sign * m
            variance += v
        return mean, variance

    def confidence_interval(self, confidence=0.95):
        mean, variance = self.moments()
        return ci.interval(mean, variance, confidence)

    def bind(self, binding):
        signs = [sign for sign, _ in self.components]
        return [
            SumEstimate(list(zip(signs, components)))
            for components in zip(
                *(estimate.bind(binding) for _, estimate in self.components)
            )
        ]


@dataclass
class RatioEstimate:
    """A ratio of two estimates (AVG over a disjunctive predicate)."""

    nominator: object
    denominator: object

    @property
    def value(self):
        denominator = self.denominator.value
        if denominator <= 0:
            return 0.0
        return self.nominator.value / denominator

    def expectations(self):
        yield from self.nominator.expectations()
        yield from self.denominator.expectations()

    def moments(self):
        return ci.ratio_moments(self.nominator.moments(), self.denominator.moments())

    def confidence_interval(self, confidence=0.95):
        mean, variance = self.moments()
        return ci.interval(mean, variance, confidence)

    def bind(self, binding):
        return [
            RatioEstimate(nominator, denominator)
            for nominator, denominator in zip(
                self.nominator.bind(binding), self.denominator.bind(binding)
            )
        ]


class _GroupBinding:
    """Binds the values of a batch of groups into a GROUP BY template.

    A template is one GROUP BY stage compiled once: the stage's query
    plus a slot predicate per group attribute, placed where a group's
    ``=`` predicates go.  A slot's range is
    ``Range.everything(include_null=True)``, and intersecting with it
    changes no range.  RSPN choice, Theorem case, term structure and
    the AVG denominator's ``IS NOT NULL`` read only condition *keys*, so
    the template has exactly the structure of each group's own
    compilation.  ``template.bind(binding)`` returns one estimate per
    group, spec for spec what the group's own compilation builds:

    - every range on a group attribute becomes
      ``template_range.intersect(point)``, computed once per distinct
      ``(attribute, template range)`` pair and group value; intersecting
      with a point is order-independent, so it is ``==`` the range the
      group's own compilation merges;
    - a compiled unit (one ``_compile_count`` / ``_compile_avg``
      result) whose merged range on a group attribute misses the point
      binds to ``Estimate(0.0)``, as the group's own compilation does;
    - an expectation on no group attribute is shared by every group:
      one spec instead of one per group.

    ``points[k]`` holds the point range of each domain value of
    ``attrs[k]``; each group is a tuple of domain indices, one per
    attribute.
    """

    def __init__(self, attrs, points, groups):
        self.n_groups = len(groups)
        self.columns = {
            attr: (points[k], [group[k] for group in groups])
            for k, attr in enumerate(attrs)
        }
        self.ranges = {}  # (attr, template range) -> bound range per group
        self.bound = {}  # id(template expectation) -> bound per group

    def range(self, attr, rng):
        bound = self.ranges.get((attr, rng))
        if bound is None:
            points, indices = self.columns[attr]
            per_value = [rng.intersect(point) for point in points]
            bound = self.ranges[attr, rng] = [per_value[i] for i in indices]
        return bound

    def misses(self, slots):
        """Per group: does any of a unit's slot ranges miss its value?"""
        if not slots:
            return [False] * self.n_groups
        return [
            any(rng.is_empty() for rng in ranges)
            for ranges in zip(*(self.range(a, r) for a, r in slots.items()))
        ]

    def term(self, term):
        nominators = self.expectation(term.nominator)
        denominators = (
            [None] * self.n_groups
            if term.denominator is None
            else self.expectation(term.denominator)
        )
        return [
            _Term(nominator, denominator, term.scale, term.conditional)
            for nominator, denominator in zip(nominators, denominators)
        ]

    def expectation(self, expectation):
        bound = self.bound.get(id(expectation))
        if bound is not None:
            return bound
        conditions = expectation.conditions
        if any(attr in self.columns for attr in conditions):
            keys = list(conditions)
            per_key = [
                self.range(attr, rng) if attr in self.columns
                else [rng] * self.n_groups
                for attr, rng in conditions.items()
            ]
            bound = [
                _Expectation(
                    expectation.rspn, dict(zip(keys, ranges)),
                    list(expectation.factors),
                )
                for ranges in zip(*per_key)
            ]
        else:
            bound = [expectation] * self.n_groups
        self.bound[id(expectation)] = bound
        return bound


def _format_constant(value):
    """Decoded predicate constant for EXPLAIN output."""
    if value is None:
        return "NULL"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, (int, float)):
        return str(value)
    return repr(str(value))


class ProbabilisticQueryCompiler(CardinalityEstimator):
    """Compiles queries against an :class:`~repro.core.ensemble.SPNEnsemble`.

    ``strategy`` selects how the compiler picks among several applicable
    RSPNs for a COUNT (Section 4.1's execution-strategy discussion):

    - ``"rdc"`` (default, the paper's choice) -- greedily use the RSPN
      handling the filter predicates with the highest sum of pairwise
      RDC values;
    - ``"median"`` -- enumerate every covering RSPN's compilation and
      return the median estimate (the alternative the paper
      "experimented with" and found not superior);
    - ``"first"`` -- an arbitrary applicable RSPN (the no-strategy
      ablation baseline).
    """

    def __init__(self, ensemble, min_group_count=0.5, strategy="rdc"):
        if strategy not in ("rdc", "median", "first"):
            raise ValueError(f"unknown execution strategy {strategy!r}")
        self.ensemble = ensemble
        self.database = ensemble.database
        self.min_group_count = min_group_count
        self.strategy = strategy

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def cardinality(self, query: Query) -> float:
        """Cardinality estimate for the optimizer (clamped to >= 1)."""
        return max(self.estimate_count(query).value, 1.0)

    def cardinality_batch(self, queries) -> list:
        """Batched :meth:`cardinality`: one compiled sweep per RSPN.

        All queries are compiled first (compilation never reads
        expectation values), their expectation sub-queries are grouped
        per RSPN and evaluated with one
        :meth:`~repro.core.rspn.RSPN.expectation_batch` call each, and
        only then are the per-query values assembled.
        """
        estimates = [self.estimate_count(query) for query in queries]
        self.evaluate_estimates(estimates)
        return [max(estimate.value, 1.0) for estimate in estimates]

    def answer_batch(self, queries) -> list:
        """Batched :meth:`answer`; scalar queries share one batch, each
        GROUP BY query is internally batched over its groups."""
        results = [None] * len(queries)
        scalar = [
            (i, self._estimate(query))
            for i, query in enumerate(queries)
            if not query.group_by
        ]
        self.evaluate_estimates([estimate for _, estimate in scalar])
        for i, estimate in scalar:
            results[i] = estimate.value
        for i, query in enumerate(queries):
            if query.group_by:
                results[i] = self._answer_groups(query)
        return results

    def answer_with_confidence_batch(self, queries, confidence=0.95):
        """Batched :meth:`answer_with_confidence`: point estimates share
        one batched sweep per RSPN; the CI moments (squared-transform
        expectations) are computed per query on top of the primed
        values."""
        results = [None] * len(queries)
        scalar = [
            (i, self._estimate(query))
            for i, query in enumerate(queries)
            if not query.group_by
        ]
        self.evaluate_estimates([estimate for _, estimate in scalar])
        for i, estimate in scalar:
            results[i] = (estimate.value, estimate.confidence_interval(confidence))
        for i, query in enumerate(queries):
            if query.group_by:
                results[i] = self.answer_with_confidence(query, confidence)
        return results

    def evaluate_estimates(self, estimates):
        """Prime every expectation behind ``estimates`` with one batched
        bottom-up sweep per RSPN (Section 4's sub-queries, batched)."""
        pending, seen = [], set()
        for estimate in estimates:
            for expectation in estimate.expectations():
                if expectation.is_primed or id(expectation) in seen:
                    continue
                seen.add(id(expectation))
                pending.append(expectation)
        by_rspn = {}
        for expectation in pending:
            by_rspn.setdefault(id(expectation.rspn), []).append(expectation)
        for group in by_rspn.values():
            batch = getattr(group[0].rspn, "expectation_batch", None)
            if batch is None:  # duck-typed model without a batch kernel
                for expectation in group:
                    expectation.evaluate()
                continue
            values = batch([(e.conditions, e.transform_map()) for e in group])
            for expectation, value in zip(group, values):
                expectation.prime(value)

    def estimate_count(self, query: Query):
        query = query.without_group_by()
        if query.has_disjunctions:
            return self._expand_signed(query, self._compile_count)
        return self._compile_count(query)

    def estimate_avg(self, query: Query):
        query = query.without_group_by()
        if query.has_disjunctions:
            # AVG over a union is not linear; compute it as SUM / COUNT
            # of the expansions (both are linear in the row indicator).
            not_null = self._aggregate_not_null(query)
            nominator = self.estimate_sum(query)
            denominator = self.estimate_count(
                query.with_extra_predicates((not_null,))
            )
            return RatioEstimate(nominator, denominator)
        return self._compile_avg(query)

    def estimate_sum(self, query: Query):
        query = query.without_group_by()
        if query.has_disjunctions:
            return self._expand_signed(query, self._conjunctive_sum)
        return self._conjunctive_sum(query)

    def _conjunctive_sum(self, query: Query) -> Estimate:
        count = self._compile_count(
            query.with_extra_predicates((self._aggregate_not_null(query),))
        )
        avg = self._compile_avg(query)
        return Estimate(terms=count.terms + avg.terms, parts=(count, avg))

    @staticmethod
    def _aggregate_not_null(query):
        return Predicate(
            query.aggregate.table, query.aggregate.column, "IS NOT NULL"
        )

    def _expand_signed(self, query, compile_one) -> SumEstimate:
        """Inclusion-exclusion expansion (Section 4.1's suggestion)."""
        components = [
            (sign, compile_one(conjunctive))
            for sign, conjunctive in disjunction.expand(query)
        ]
        return SumEstimate(components)

    def answer(self, query: Query):
        """Approximate answer: scalar, or ``{group: value}`` for GROUP BY."""
        if query.group_by:
            return self._answer_groups(query)
        return self._answer_scalar(query)

    def answer_with_confidence(self, query: Query, confidence=0.95):
        """(value, (low, high)) for scalar queries, dicts for GROUP BY."""
        if query.group_by:
            values = {}
            for combo, estimate in self._group_estimates(query):
                values[combo] = (
                    estimate.value,
                    estimate.confidence_interval(confidence),
                )
            return values
        estimate = self._estimate(query)
        return estimate.value, estimate.confidence_interval(confidence)

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------
    def explain(self, query: Query) -> str:
        """Human-readable rendering of the probabilistic compilation.

        Shows, per term, which RSPN answers it, the leaf conditions, the
        tuple-factor corrections, and -- for multi-RSPN plans -- the
        Theorem-2 expansion ratios, mirroring the formulas of Section 4.
        """
        lines = [f"query    : {query.describe()}"]
        lines.append(f"strategy : {self.strategy}")
        slots = ()
        if query.group_by:
            n_groups = 1
            for domain in self._group_domains(query):
                n_groups *= max(len(domain), 1)
            slots = tuple(f"{table}.{column}" for table, column in query.group_by)
            template = self._estimate(self._group_template_query(query))
            shared = {
                id(expectation)
                for expectation in template.expectations()
                if not any(attr in expectation.conditions for attr in slots)
            }
            lines.append(
                f"group-by : {n_groups} candidate groups; template below, "
                "compiled once and bound per group (Section 4.2); "
                f"{len(shared)} shared expectation(s)"
            )
            lines.extend(self._explain_estimate(template, slots=slots))
            query = query.without_group_by()
        estimate = self._estimate(query)
        if not slots:
            lines.extend(self._explain_estimate(estimate))
        lines.append(f"estimate : {estimate.value:,.4f}")
        return "\n".join(lines)

    def _explain_estimate(self, estimate, indent="  ", slots=()):
        if isinstance(estimate, SumEstimate):
            lines = [
                f"{indent}inclusion-exclusion over "
                f"{len(estimate.components)} conjunctive terms:"
            ]
            for sign, component in estimate.components:
                lines.append(f"{indent}  sign {'+' if sign > 0 else '-'}:")
                lines.extend(
                    self._explain_estimate(component, indent + "    ", slots)
                )
            return lines
        if isinstance(estimate, RatioEstimate):
            lines = [f"{indent}ratio (SUM / COUNT):"]
            lines.extend(
                self._explain_estimate(estimate.nominator, indent + "  ", slots)
            )
            lines.append(f"{indent}over:")
            lines.extend(
                self._explain_estimate(estimate.denominator, indent + "  ", slots)
            )
            return lines
        if not estimate.terms:
            return [f"{indent}(empty selection -> {estimate.value:,.4f})"]
        lines = []
        for i, term in enumerate(estimate.terms, start=1):
            header = f"{indent}term {i}: "
            if term.scale != 1.0:
                header += f"{term.scale:,.0f} * "
            header += self._describe_expectation(term.nominator, slots)
            if term.denominator is not None:
                header += " / " + self._describe_expectation(term.denominator, slots)
            lines.append(header)
        return lines

    def _describe_expectation(self, expectation, slots=()):
        parts = []
        for column, kind in expectation.factors:
            symbol = {
                "identity": column,
                "value": column,
                "inverse": f"1/max({column},1)",
                "outer": f"max({column},1)",
            }[kind]
            parts.append(symbol)
        for attr, rng in expectation.conditions.items():
            if attr in slots and rng.is_unconstrained():
                parts.append(f"1_{{{attr} = <group>}}")
            elif attr in slots:
                described = self._describe_range(attr, rng)
                parts.append(f"1_{{{attr} in {described}, = <group>}}")
            else:
                parts.append(f"1_{{{attr} in {self._describe_range(attr, rng)}}}")
        body = " * ".join(parts) if parts else "1"
        tables = "/".join(sorted(expectation.rspn.tables))
        return f"E[ {body} ] on RSPN({tables})"

    def _describe_range(self, qualified, rng):
        """Range description with categorical point codes decoded."""
        table_name, column = qualified.split(".", 1)
        table = self.database.tables.get(table_name)
        points = rng.point_values()
        if (
            table is None
            or points is None
            or not points
            or not table.is_categorical(column)
        ):
            return rng.describe()
        decoded = [_format_constant(table.decode_value(column, p)) for p in points]
        if rng.include_null:
            decoded.append("NULL")
        return "{" + ", ".join(decoded) + "}"

    # ------------------------------------------------------------------
    # Scalar dispatch
    # ------------------------------------------------------------------
    def _estimate(self, query) -> Estimate:
        function = query.aggregate.function
        if function == "COUNT":
            return self.estimate_count(query)
        if function == "AVG":
            return self.estimate_avg(query)
        if function == "SUM":
            return self.estimate_sum(query)
        raise CompilationError(f"unsupported aggregate {function!r}")

    def _answer_scalar(self, query):
        return self._estimate(query).value

    def _answer_groups(self, query):
        return {combo: est.value for combo, est in self._group_estimates(query)}

    def _group_estimates(self, query):
        """One estimate per group: the n-queries-per-group-by of Section 4.2,
        compiled once and bound per group.

        Group domains are the distinct column values observed in the data,
        restricted by the query's predicates on the same table (one mask
        per grouped table) so that e.g. a brand group-by under a category
        filter only enumerates that category's brands.

        Evaluation is staged: all group COUNTs first (they gate on
        ``min_group_count``), then each HAVING aggregate across the
        surviving groups, then the query aggregate itself.  Each stage
        is compiled once, as a template of the scalar query with a slot
        per group attribute, and each group's value is bound into it
        (:class:`_GroupBinding`) -- spec for spec the group's own
        compilation -- so all groups of a stage share one batched sweep
        per RSPN.  HAVING conditions apply to per-group aggregate
        *estimates*; ORDER/LIMIT sort and truncate by the estimated
        value.
        """
        per_column = self._group_domains(query)
        total = 1
        for values in per_column:
            total *= max(len(values), 1)
        if total > _MAX_GROUPS:
            raise CompilationError(
                f"group-by would enumerate {total} groups (> {_MAX_GROUPS})"
            )
        groups = list(itertools.product(*(range(len(v)) for v in per_column)))
        if not groups:
            return []
        template = self._group_template_query(query)
        attrs = tuple(f"{table}.{column}" for table, column in query.group_by)
        points = [
            [
                self._predicate_range(
                    self.database.table(table), Predicate(table, column, "=", value)
                )
                for value in values
            ]
            for (table, column), values in zip(query.group_by, per_column)
        ]

        def bind(stage_query, stage_groups):
            estimates = self._estimate(stage_query).bind(
                _GroupBinding(attrs, points, stage_groups)
            )
            self.evaluate_estimates(estimates)
            return estimates

        counts = bind(template.with_aggregate(Aggregate.count()), groups)
        survivors = [
            (group, count)
            for group, count in zip(groups, counts)
            if count.value >= self.min_group_count
        ]
        for clause in query.having:
            if not survivors:
                break
            if clause.aggregate.function == "COUNT":
                estimated = [count for _, count in survivors]
            else:
                estimated = bind(
                    template.with_aggregate(clause.aggregate),
                    [group for group, _ in survivors],
                )
            survivors = [
                entry
                for entry, estimate in zip(survivors, estimated)
                if clause.accepts(estimate.value)
            ]
        if query.aggregate.function != "COUNT" and survivors:
            kept = [group for group, _ in survivors]
            survivors = list(zip(kept, bind(template, kept)))
        results = [
            (tuple(values[i] for values, i in zip(per_column, group)), estimate)
            for group, estimate in survivors
        ]
        return self._order_and_limit(results, query)

    @staticmethod
    def _group_template_query(query):
        """The scalar query with a slot predicate per group attribute,
        where a group's ``=`` predicates go."""
        return query.without_group_by().with_extra_predicates(tuple(
            Predicate(table, column, "=", _SLOT) for table, column in query.group_by
        ))

    @staticmethod
    def _order_and_limit(results, query):
        if query.order is None and query.limit is None:
            return results
        reverse = query.order == "desc"
        ordered = sorted(
            results, key=lambda pair: pair[1].value, reverse=reverse
        )
        if query.limit is not None:
            ordered = ordered[: query.limit]
        return ordered

    def _group_domains(self, query):
        """Each group column's distinct values under the query's
        predicates on its table, masking each grouped table once."""
        masks = {}
        domains = []
        for table_name, column in query.group_by:
            table = self.database.table(table_name)
            if table_name not in masks:
                predicates = query.predicates_on(table_name)
                masks[table_name] = (
                    conjunction_mask(table, predicates) if predicates else None
                )
            domains.append(
                table.distinct_values(column, decoded=True, mask=masks[table_name])
            )
        return domains

    # ------------------------------------------------------------------
    # Conditions and scoring
    # ------------------------------------------------------------------
    def _conditions(self, query):
        """Merged per-attribute ranges from the query's predicates."""
        merged = {}
        for predicate in query.predicates:
            table = self.database.table(predicate.table)
            rng = self._predicate_range(table, predicate)
            key = predicate.qualified_column
            existing = merged.get(key)
            merged[key] = rng if existing is None else existing.intersect(rng)
        return merged

    @staticmethod
    def _predicate_range(table, predicate):
        op, value = predicate.op, predicate.value
        if value is _SLOT:
            return Range.everything()
        if op in ("IS NULL", "IS NOT NULL"):
            return Range.from_operator(op, None)
        if op == "IN":
            encoded = [table.encode_value(predicate.column, v) for v in value]
            return Range.from_operator(op, encoded)
        if op == "BETWEEN":
            low = table.encode_value(predicate.column, value[0])
            high = table.encode_value(predicate.column, value[1])
            return Range.from_operator(op, (low, high))
        return Range.from_operator(op, table.encode_value(predicate.column, value))

    def _score(self, rspn, conditions, target_tables, extra_attrs=()):
        """Greedy execution-strategy score: RDC mass of handled predicates."""
        covered = [
            attr
            for attr in list(conditions) + list(extra_attrs)
            if attr.split(".", 1)[0] in rspn.tables
        ]
        score = 0.0
        for i in range(len(covered)):
            for j in range(i + 1, len(covered)):
                score += self.ensemble.rdc_value(covered[i], covered[j])
        score += 0.01 * len(covered)
        score += 0.005 * len(rspn.tables & set(target_tables))
        score -= 1e-6 * len(rspn.column_names)
        return score

    # ------------------------------------------------------------------
    # Expectation assembly
    # ------------------------------------------------------------------
    def _count_expectation(self, rspn, subset, conditions, query, with_conditions=True):
        """Theorem-1 expectation for counting ``subset``-join rows in ``rspn``.

        ``conditions`` holds the query's per-attribute ranges; only those
        on ``subset`` tables apply.  Inverse tuple factors are added for
        every FK edge internal to the RSPN whose child lies outside
        ``subset``; NULL indicators restrict to real tuples of ``subset``
        tables (relaxed for outer joins).
        """
        expectation = _Expectation(rspn)
        subset = set(subset)
        if with_conditions:
            for attr, rng in conditions.items():
                if attr.split(".", 1)[0] in subset:
                    expectation.conditions[attr] = rng
        if rspn.is_join_model:
            for table in self._indicator_tables(query, subset):
                expectation.conditions[indicator_qualified_name(table)] = Range.point(1.0)
            for fk in _normalisation_edges(rspn, subset):
                expectation.factors.append((factor_qualified_name(fk), "inverse"))
        return expectation

    @staticmethod
    def _indicator_tables(query, subset):
        if query.join_kind == INNER:
            return subset
        if query.join_kind == "left_outer":
            root = query.tables[0]
            return {root} & subset
        return set()

    def _fold_kind(self, query):
        return "identity" if query.join_kind == INNER else "outer"

    # ------------------------------------------------------------------
    # COUNT compilation (Cases 1-3)
    # ------------------------------------------------------------------
    @staticmethod
    def _slot_ranges(query, conditions):
        """Merged range of every GROUP BY slot attribute of ``query``."""
        return {
            predicate.qualified_column: conditions[predicate.qualified_column]
            for predicate in query.predicates
            if predicate.value is _SLOT
        }

    def _compile_count(self, query) -> Estimate:
        conditions = self._conditions(query)
        if any(rng.is_empty() for rng in conditions.values()):
            return Estimate(0.0)
        query_tables = set(query.tables)
        full_cover = self.ensemble.covering(query_tables)
        if not full_cover:
            estimate = self._compile_count_multi(query, conditions, query_tables)
        elif self.strategy == "median" and len(full_cover) > 1:
            estimate = self._median_count(full_cover, query_tables, conditions, query)
        else:
            if self.strategy == "first":
                rspn = full_cover[0]
            else:
                rspn = max(
                    full_cover,
                    key=lambda r: self._score(r, conditions, query_tables),
                )
            expectation = self._count_expectation(rspn, query_tables, conditions, query)
            estimate = Estimate(terms=[_Term(expectation, scale=rspn.full_size)])
        estimate.slots = self._slot_ranges(query, conditions)
        return estimate

    def _median_count(self, full_cover, query_tables, conditions, query) -> Estimate:
        """Median over every covering RSPN's compilation ("median of
        several probabilistic query compilations", Section 4.1)."""
        candidates = []
        for rspn in full_cover:
            expectation = self._count_expectation(
                rspn, query_tables, conditions, query
            )
            candidates.append(_Term(expectation, scale=rspn.full_size))
        return _MedianEstimate(candidates)

    def _compile_count_multi(self, query, conditions, query_tables) -> Estimate:
        """Case 3: combine several RSPNs along the query's join tree."""
        anchor_rspn = self._choose_anchor(conditions, query_tables)
        covered = self._covered_component(anchor_rspn, query_tables)
        anchor_exp = self._count_expectation(anchor_rspn, covered, conditions, query)
        terms = [_Term(anchor_exp, scale=anchor_rspn.full_size)]
        anchors = {table: anchor_exp for table in covered}
        fold_kind = self._fold_kind(query)

        remaining_edges = list(self.database.schema.edges_between(query_tables))
        while covered != query_tables:
            step = self._next_edge(remaining_edges, covered)
            if step is None:
                raise CompilationError(
                    f"cannot cover tables {sorted(query_tables - covered)} "
                    "with the available ensemble"
                )
            fk, a, b, b_is_child = step
            term, nominator = self._expansion_term(
                fk, a, b, b_is_child, conditions, query, covered, anchors, fold_kind
            )
            terms.append(term)
            anchors[b] = nominator
            covered.add(b)

        return Estimate(terms=terms)

    def _choose_anchor(self, conditions, query_tables):
        candidates = [
            r for r in self.ensemble.rspns if r.tables & query_tables
        ]
        if not candidates:
            raise CompilationError(f"no RSPN touches tables {sorted(query_tables)}")
        return max(
            candidates, key=lambda r: self._score(r, conditions, query_tables)
        )

    def _covered_component(self, rspn, query_tables):
        """Largest connected component of the covered query tables."""
        overlap = rspn.tables & query_tables
        components = self._components(overlap)
        return max(components, key=len)

    def _components(self, tables):
        import networkx as nx

        graph = self.database.schema.as_networkx().subgraph(tables)
        return [set(c) for c in nx.connected_components(graph)] or [set()]

    @staticmethod
    def _next_edge(edges, covered):
        for fk in edges:
            if fk.parent in covered and fk.child not in covered:
                return fk, fk.parent, fk.child, True
            if fk.child in covered and fk.parent not in covered:
                return fk, fk.child, fk.parent, False
        return None

    def _expansion_term(
        self, fk, a, b, b_is_child, conditions, query, covered, anchors, fold_kind
    ):
        """Theorem-2 multiplier adding table ``b`` through anchor table ``a``."""
        candidates = self.ensemble.touching(b)
        if not candidates:
            raise CompilationError(f"no RSPN covers table {b!r}")
        with_a = [r for r in candidates if a in r.tables]
        if with_a:
            rspn = max(
                with_a, key=lambda r: self._score(r, conditions, {a, b})
            )
            overlap = self._overlap_component(rspn, covered, a)
            nominator = self._count_expectation(
                rspn, overlap | {b}, conditions, query
            )
            denominator = self._count_expectation(rspn, overlap, conditions, query)
            return _Term(nominator, denominator), nominator
        rspn = max(candidates, key=lambda r: self._score(r, conditions, {b}))
        subset = self._covered_component(rspn, {b} | covered) | {b}
        subset &= rspn.tables
        if b_is_child:
            # Fold the fan-out factor F_{a<-b} into a's anchoring
            # expectation; the new term only contributes b's selectivity.
            anchors[a].factors.append((factor_qualified_name(fk), fold_kind))
            nominator = self._count_expectation(rspn, {b}, conditions, query)
            denominator = self._count_expectation(
                rspn, {b}, conditions, query, with_conditions=False
            )
            return _Term(nominator, denominator), nominator
        # Parent direction without a shared RSPN: weight the parent-side
        # RSPN by the tuple factor F_{b<-a} (the paper's alternative
        # formulation of Theorem 2).
        factor = factor_qualified_name(fk)
        nominator = self._count_expectation(rspn, {b}, conditions, query)
        nominator.factors.append((factor, "value"))
        denominator = self._count_expectation(
            rspn, {b}, conditions, query, with_conditions=False
        )
        denominator.factors.append((factor, "value"))
        return _Term(nominator, denominator), nominator

    def _overlap_component(self, rspn, covered, anchor_table):
        overlap = rspn.tables & covered
        for component in self._components(overlap):
            if anchor_table in component:
                return component
        return {anchor_table}

    # ------------------------------------------------------------------
    # AVG compilation (Section 4.2)
    # ------------------------------------------------------------------
    def _compile_avg(self, query) -> Estimate:
        aggregate = query.aggregate
        agg_attr = aggregate.qualified_column
        conditions = self._conditions(query)
        if any(rng.is_empty() for rng in conditions.values()):
            return Estimate(0.0)
        candidates = [
            r
            for r in self.ensemble.touching(aggregate.table)
            if r.has_column(agg_attr)
        ]
        if not candidates:
            raise CompilationError(f"no RSPN models column {agg_attr!r}")
        query_tables = set(query.tables)
        rspn = max(
            candidates,
            key=lambda r: self._score(
                r, conditions, query_tables, extra_attrs=(agg_attr,)
            ),
        )
        subset = set()
        for component in self._components(rspn.tables & query_tables):
            if aggregate.table in component:
                subset = component
        nominator = self._count_expectation(rspn, subset, conditions, query)
        nominator.factors.append((agg_attr, "value"))
        denominator = self._count_expectation(rspn, subset, conditions, query)
        not_null = Range.from_operator("IS NOT NULL", None)
        existing = denominator.conditions.get(agg_attr)
        denominator.conditions[agg_attr] = (
            not_null if existing is None else existing.intersect(not_null)
        )
        estimate = Estimate(terms=[_Term(nominator, denominator, conditional=True)])
        estimate.slots = self._slot_ranges(query, conditions)
        return estimate
