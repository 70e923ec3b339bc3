"""Physical execution of join plans (hash joins over the column store).

The enumerator scores plans with *estimated* intermediate sizes; this
module actually runs a plan bottom-up with in-memory hash joins and
reports the real ones.  That closes the validation loop: the C_out cost
of a plan under the true-cardinality oracle must equal the total number
of intermediate rows a real executor materialises, which the tests
assert exactly.

On top of the static path sits the **adaptive loop**
(:func:`optimize_and_execute`): every join's realised size is compared
against the oracle's estimate for that subset, and when it blows past
``replan_threshold`` the already-materialised relations are pinned as
indivisible units, the oracle is patched with the realised truth (with
the observed error propagated to superset estimates), and the remaining
join order is re-enumerated -- so one misestimate stops cascading
through the rest of the plan.

Plans execute inner-join semantics (the query class join ordering is
defined for); NULL join keys never match, per SQL.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.filters import conjunction_mask
from repro.optimizer.plans import BaseRelation, Join, plan_joins


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed against the database."""


@dataclass
class _Relation:
    """An intermediate result: aligned row-index vectors per table."""

    rows: dict  # table name -> np.ndarray of row indices

    @property
    def tables(self):
        return frozenset(self.rows)

    def __len__(self):
        first = next(iter(self.rows.values()), np.empty(0, dtype=int))
        return int(first.shape[0])


@dataclass(frozen=True)
class MaterializedRelation:
    """A plan leaf pinning an already-materialised intermediate result.

    Mid-execution re-optimisation treats everything it has already
    joined as an indivisible unit: the remainder DP enumerates over
    these leaves plus the not-yet-joined base relations.  The leaf only
    carries the covered table set -- the executor resolves it to the
    live :class:`_Relation` by that key.
    """

    table_set: frozenset

    @property
    def tables(self):
        return self.table_set

    def describe(self):
        return "[" + " ⨝ ".join(sorted(self.table_set)) + "]"


@dataclass
class PlanExecution:
    """Outcome of running one plan: final size plus per-join sizes."""

    result_rows: int
    intermediates: list = field(default_factory=list)  # [(tables, n_rows)]

    @property
    def total_intermediate_rows(self):
        """Sum of all join output sizes -- the realised C_out."""
        return float(sum(n for _tables, n in self.intermediates))


def _scan(database, query, table_name):
    table = database.table(table_name)
    mask = conjunction_mask(table, query.predicates_on(table_name))
    return _Relation({table_name: np.flatnonzero(mask)})


def _join_edge(schema, left_tables, right_tables):
    """The unique FK edge joining the two sides.

    A single-edge hash join applies exactly one equality predicate, so
    multiple FK edges between the sides would silently drop the others
    and over-count.  Schema forests make that unreachable today; this
    guard keeps it that way by raising instead of picking the first.
    """
    matches = []
    for fk in schema.foreign_keys:
        if fk.parent in left_tables and fk.child in right_tables:
            matches.append((fk, True))
        elif fk.child in left_tables and fk.parent in right_tables:
            matches.append((fk, False))
    if not matches:
        raise ExecutionError(
            f"no FK edge joins {sorted(left_tables)} with {sorted(right_tables)}"
        )
    if len(matches) > 1:
        names = ", ".join(fk.name for fk, _ in matches)
        raise ExecutionError(
            f"ambiguous join between {sorted(left_tables)} and "
            f"{sorted(right_tables)}: {len(matches)} FK edges ({names}) "
            "connect the two sides; a single-edge hash join would drop "
            "the other equality predicates"
        )
    return matches[0]


def _match_positions(parent_keys, child_keys):
    """Matching (parent, child) position pairs under float equality.

    Vectorised factorised matching: NaN keys are excluded on both sides
    (NULL never joins), the valid parent keys are stably sorted, and
    each child key's run of equal parent keys is located with two
    ``searchsorted`` probes and expanded with the repeat/offset trick.
    The emission order is **identical** to the dict-bucket reference
    loop (:func:`_hash_join_reference`): child position ascending, and
    within one child, parent positions ascending (stable sort keeps
    equal keys in insertion order, exactly like bucket append order).
    """
    parent_valid = np.flatnonzero(~np.isnan(parent_keys))
    child_valid = np.flatnonzero(~np.isnan(child_keys))
    sortable = parent_keys[parent_valid]
    order = np.argsort(sortable, kind="stable")
    sorted_keys = sortable[order]
    probes = child_keys[child_valid]
    left = np.searchsorted(sorted_keys, probes, side="left")
    right = np.searchsorted(sorted_keys, probes, side="right")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    run_starts = np.cumsum(counts) - counts
    offsets = np.arange(total) - np.repeat(run_starts, counts)
    parent_positions = parent_valid[order[np.repeat(left, counts) + offsets]]
    child_positions = child_valid[np.repeat(np.arange(probes.shape[0]), counts)]
    return parent_positions, child_positions


def _join_sides(database, left, right, fk, parent_on_left):
    parent_side, child_side = (left, right) if parent_on_left else (right, left)
    parent_keys = database.table(fk.parent).columns[fk.pk_column][
        parent_side.rows[fk.parent]
    ]
    child_keys = database.table(fk.child).columns[fk.fk_column][
        child_side.rows[fk.child]
    ]
    return parent_side, child_side, parent_keys, child_keys


def _gather(parent_side, child_side, parent_positions, child_positions):
    rows = {}
    for table, indices in parent_side.rows.items():
        rows[table] = indices[parent_positions]
    for table, indices in child_side.rows.items():
        rows[table] = indices[child_positions]
    return _Relation(rows)


def _hash_join(database, left, right, fk, parent_on_left):
    """Inner hash join of two relations along one FK edge (vectorised)."""
    parent_side, child_side, parent_keys, child_keys = _join_sides(
        database, left, right, fk, parent_on_left
    )
    parent_positions, child_positions = _match_positions(
        parent_keys, child_keys
    )
    return _gather(parent_side, child_side, parent_positions, child_positions)


def _hash_join_reference(database, left, right, fk, parent_on_left):
    """The row-at-a-time dict-bucket join the vectorised path must match.

    Kept as the behavioural reference: ``tests/test_plan_execution.py``
    asserts the vectorised join's row-index arrays are bit-identical
    (``==``) to this loop, including NaN keys, duplicate keys and
    emission order.
    """
    parent_side, child_side, parent_keys, child_keys = _join_sides(
        database, left, right, fk, parent_on_left
    )
    buckets = {}
    for position, key in enumerate(parent_keys):
        if np.isnan(key):
            continue
        buckets.setdefault(float(key), []).append(position)
    parent_positions = []
    child_positions = []
    for position, key in enumerate(child_keys):
        if np.isnan(key):
            continue
        for match in buckets.get(float(key), ()):
            parent_positions.append(match)
            child_positions.append(position)
    return _gather(
        parent_side, child_side,
        np.asarray(parent_positions, dtype=int),
        np.asarray(child_positions, dtype=int),
    )


@dataclass
class OptimizedExecution:
    """Outcome of :func:`optimize_and_execute`: the chosen plan, its
    estimated C_out, the (prefetched) oracle behind the choice, and the
    realised execution with true intermediate sizes.

    ``replans`` counts mid-execution re-optimisations and ``join_gaps``
    records one entry per executed join -- ``{"tables", "estimate"
    (the estimator's raw, unclamped value at planning time),
    "realized", "gap" (realised / clamped estimate)}`` -- where the
    estimator went wrong, join by join."""

    plan: object
    estimated_cost: float
    oracle: object
    execution: "PlanExecution"
    latency_ns: int = 0
    replans: int = 0
    join_gaps: list = field(default_factory=list)

    @property
    def estimation_gap(self):
        """Realised C_out / estimated C_out (1.0 = perfectly estimated).

        A zero (or negative) estimate against realised rows is an
        *infinitely* wrong estimate, not a perfect one -- only the true
        0/0 case (nothing estimated, nothing materialised) reports 1.0.
        """
        realized = self.execution.total_intermediate_rows
        if self.estimated_cost <= 0:
            return math.inf if realized > 0 else 1.0
        return realized / self.estimated_cost


def _execute_adaptive(plan, database, query, oracle, replan_threshold,
                      linear):
    """Run ``plan`` bottom-up, re-optimising when estimates blow up.

    Returns ``(PlanExecution, replans, join_gaps)``.  With the
    threshold disabled (``None`` / ``inf``) this executes exactly the
    joins of ``plan`` in :func:`plan_joins` order -- the same order the
    recursive :func:`execute_plan` materialises them, so intermediates
    and the result are bit-identical to the static path.
    """
    from repro.optimizer.enumeration import replan_over_units

    replan_enabled = (
        replan_threshold is not None and math.isfinite(replan_threshold)
    )
    full = frozenset(query.tables)
    schema = database.schema
    intermediates = []
    join_gaps = []
    replans = 0
    scans: dict[str, _Relation] = {}
    live: dict[frozenset, _Relation] = {}

    def take(node):
        if isinstance(node, BaseRelation):
            if node.table not in scans:
                scans[node.table] = _scan(database, query, node.table)
            return scans[node.table]
        return live.pop(frozenset(node.tables))

    while True:
        joins = plan_joins(plan)
        if not joins:
            result = take(plan)
            break
        restart = False
        for node in joins:
            left = take(node.left)
            right = take(node.right)
            fk, parent_on_left = _join_edge(schema, left.tables, right.tables)
            joined = _hash_join(database, left, right, fk, parent_on_left)
            key = frozenset(node.tables)
            live[key] = joined
            realized = len(joined)
            intermediates.append((sorted(key), realized))
            estimate = oracle(key)
            join_gaps.append({
                "tables": sorted(key),
                "estimate": oracle.raw_estimate(key)
                if hasattr(oracle, "raw_estimate") else estimate,
                "realized": float(realized),
                "gap": float(realized) / estimate,
            })
            if (replan_enabled and key != full
                    and realized > replan_threshold * estimate
                    and hasattr(oracle, "patch")):
                # Everything materialised so far is exact truth now:
                # patch it in (propagating the observed error to
                # superset estimates) and re-enumerate the remainder
                # with the live relations pinned as indivisible units.
                for live_key, relation in live.items():
                    oracle.patch(live_key, len(relation))
                units = [MaterializedRelation(live_key) for live_key in live]
                covered = frozenset().union(*live)
                units += [
                    BaseRelation(t) for t in sorted(full - covered)
                ]
                plan, _ = replan_over_units(
                    units, schema, oracle, linear=linear
                )
                replans += 1
                restart = True
                break
        if not restart:
            result = live.pop(full)
            break

    execution = PlanExecution(
        result_rows=len(result), intermediates=intermediates
    )
    return execution, replans, join_gaps


def optimize_and_execute(query, database, estimator, linear=False, batch=True,
                         replan_threshold=16.0, plan_cache=None):
    """Optimise ``query`` under ``estimator`` and run the chosen plan.

    The estimator is wrapped in the same batched
    :class:`~repro.optimizer.cardinality.SubqueryCardinalities` oracle
    the plan-quality harness uses: one ``cardinality_batch`` call
    answers every sub-plan estimate of the enumeration (``batch=False``
    restores the serial memoised path), then the plan is executed with
    real hash joins.  Returns an :class:`OptimizedExecution`.

    ``replan_threshold`` arms mid-execution re-optimisation: when a
    join materialises more than ``threshold x`` its estimate, the
    remaining join order is re-enumerated with realised truth patched
    into the oracle (``None`` or ``inf`` disables, restoring the static
    pipeline bit-for-bit).  ``plan_cache`` (a
    :class:`~repro.optimizer.plancache.PlanCache`) skips enumeration
    for repeated queries; after a replan the cached entry is
    recomputed from the patched oracle so a repeated query does not
    repeat the mistake.
    """
    from repro.optimizer.cardinality import SubqueryCardinalities
    from repro.optimizer.enumeration import optimal_plan

    epoch = None
    entry = None
    if plan_cache is not None:
        from repro.optimizer.plancache import cache_epoch

        epoch = cache_epoch(estimator)
        entry = plan_cache.lookup(query, epoch, linear=linear)
    if entry is not None:
        plan, cost, oracle = entry
    else:
        oracle = SubqueryCardinalities(estimator, query, batch=batch)
        plan, cost = optimal_plan(
            query, database.schema, oracle, linear=linear
        )
        if plan_cache is not None:
            plan_cache.store(query, (plan, cost, oracle), epoch,
                             linear=linear)
    start = time.perf_counter_ns()
    execution, replans, join_gaps = _execute_adaptive(
        plan, database, query, oracle, replan_threshold, linear
    )
    latency_ns = time.perf_counter_ns() - start
    if replans and plan_cache is not None:
        refreshed_plan, refreshed_cost = optimal_plan(
            query, database.schema, oracle, linear=linear
        )
        plan_cache.store(
            query, (refreshed_plan, refreshed_cost, oracle), epoch,
            linear=linear,
        )
    return OptimizedExecution(
        plan=plan, estimated_cost=cost, oracle=oracle, execution=execution,
        latency_ns=latency_ns, replans=replans, join_gaps=join_gaps,
    )


def execute_plan(plan, database, query):
    """Run ``plan`` for ``query`` and return a :class:`PlanExecution`.

    Filters are pushed down to the scans; every join is an inner hash
    join along the FK edge connecting its two inputs.
    """
    intermediates = []

    def run(node):
        if isinstance(node, BaseRelation):
            return _scan(database, query, node.table)
        if isinstance(node, Join):
            left = run(node.left)
            right = run(node.right)
            fk, parent_on_left = _join_edge(
                database.schema, left.tables, right.tables
            )
            joined = _hash_join(database, left, right, fk, parent_on_left)
            intermediates.append((sorted(joined.tables), len(joined)))
            return joined
        raise ExecutionError(f"unknown plan node {type(node)!r}")

    result = run(plan)
    return PlanExecution(result_rows=len(result), intermediates=intermediates)
