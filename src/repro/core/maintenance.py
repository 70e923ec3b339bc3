"""Bulk maintenance of RSPN ensembles under inserts (Section 6.1 / 5.2).

Two maintenance paths, mirroring the paper:

- :func:`absorb_inserts` -- the update experiment of Section 6.1: an
  ensemble learned on a share of the data absorbs the remaining tuples
  through Algorithm 1.  Join RSPNs are updated with the *delta rows of
  their full outer join* (new tuples joined with their new partners),
  sampled at the same rate that was used for learning ("the same sample
  rate has to be used for the updates").
- :func:`check_structure_drift` / :func:`refresh_ensemble` -- the
  background re-validation of Section 5.2: Algorithm 1 never changes the
  tree *structure*, so dependencies that appear after heavy inserts go
  unrepresented.  The paper's remedy is "checking the database
  cyclically for changed dependencies by calculating the pairwise RDC
  values ... on column splits of product nodes" and regenerating
  affected RSPNs, "as for traditional indexes ... in the background".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.nodes import ProductNode, SumNode
from repro.engine.join import (
    compute_tuple_factors,
    join_frame,
    join_learning_columns,
    materialize_full_outer_join,
    qualify,
    sample_full_outer_join,
)
from repro.engine.table import Database
from repro.stats.rdc import rdc_matrix


def delta_database(database, delta_masks):
    """A database view holding only the new rows (shared vocabularies)."""
    delta = Database(database.schema)
    for name in database.table_names():
        table = database.table(name)
        mask = delta_masks.get(name)
        if mask is None:
            mask = np.zeros(table.n_rows, dtype=bool)
        delta.add_table(table.select(np.asarray(mask, dtype=bool)))
    compute_tuple_factors(delta)
    return delta


def absorb_inserts(ensemble, database, delta_masks, seed=0):
    """Insert the masked rows of ``database`` into every RSPN.

    Returns ``(inserted_tuples, seconds)``.  Each RSPN receives a sample
    of its relation's delta rows at its learning sample fraction.
    """
    rng = np.random.default_rng(seed)
    delta = delta_database(database, delta_masks)
    inserted = 0
    start = time.perf_counter()
    for rspn in ensemble.rspns:
        fraction = rspn.sample_fraction
        if rspn.is_join_model:
            join = materialize_full_outer_join(delta, sorted(rspn.tables))
            columns = join_learning_columns(delta, list(join.plan.order))
            data = join_frame(join, columns)
        else:
            table = delta.table(next(iter(rspn.tables)))
            columns = [
                qualify(table.name, a.name) for a in table.schema.non_key_attributes
            ]
            data = (
                np.column_stack(
                    [table.columns[c.split(".", 1)[1]] for c in columns]
                )
                if columns
                else np.empty((table.n_rows, 0))
            )
        if data.shape[0] == 0:
            continue
        keep = rng.random(data.shape[0]) < fraction
        ops = [(dict(zip(columns, row)), +1) for row in data[keep]]
        if not ops:
            continue
        # One copy-on-write batch per RSPN: a bulk absorb costs one
        # generation bump / one compiled-form patch instead of one full
        # invalidation per tuple, and concurrent readers keep a
        # consistent snapshot throughout.  Final counts are
        # bit-identical to the per-tuple rspn.insert loop this replaces.
        rspn.apply_batch(ops)
        inserted += len(ops)
    return inserted, time.perf_counter() - start


# ----------------------------------------------------------------------
# Structure-drift detection (Section 5.2)
# ----------------------------------------------------------------------
@dataclass
class DriftReport:
    """Independence violations found in one RSPN's product splits."""

    rspn: object
    violations: list = field(default_factory=list)  # [(col_a, col_b, rdc)]

    @property
    def has_drift(self):
        return bool(self.violations)

    def describe(self):
        tables = "/".join(sorted(self.rspn.tables))
        if not self.has_drift:
            return f"{tables}: structure still valid"
        worst = max(self.violations, key=lambda v: v[2])
        return (
            f"{tables}: {len(self.violations)} broken column splits, "
            f"worst {worst[0]} ~ {worst[1]} (rdc {worst[2]:.2f})"
        )


def _fresh_sample(database, rspn, sample, seed):
    """Current-data matrix aligned with ``rspn.column_names``."""
    if rspn.is_join_model:
        join = sample_full_outer_join(
            database, sorted(rspn.tables), sample, seed=seed
        )
        return join_frame(join, rspn.column_names)
    table = database.table(next(iter(rspn.tables)))
    rows = np.arange(table.n_rows)
    if table.n_rows > sample:
        rows = np.random.default_rng(seed).choice(
            table.n_rows, size=sample, replace=False
        )
    return np.column_stack(
        [table.columns[c.split(".", 1)[1]][rows] for c in rspn.column_names]
    )


def _product_split_violations(node, data, threshold, seed, min_rows):
    """Cross-child RDC violations of every product node, cluster-aware.

    The sample rows are routed down the tree exactly like inserted
    tuples (Algorithm 1), so each product node is checked on *its own
    cluster's* data -- two globally correlated columns that a sum node
    already separates into independent clusters are not flagged.
    """
    if data.shape[0] < min_rows:
        return []
    if isinstance(node, SumNode):
        labels = node.kmeans.predict(data[:, np.asarray(node.scope)]) \
            if node.kmeans is not None else np.zeros(data.shape[0], dtype=int)
        violations = []
        for i, child in enumerate(node.children):
            violations.extend(
                _product_split_violations(
                    child, data[labels == i], threshold, seed + i + 1, min_rows
                )
            )
        return violations
    if isinstance(node, ProductNode):
        scope = list(node.scope)
        matrix = rdc_matrix(data[:, np.asarray(scope)], seed=seed)
        position = {s: i for i, s in enumerate(scope)}
        violations = []
        for a_index, child_a in enumerate(node.children):
            for child_b in node.children[a_index + 1:]:
                for a in child_a.scope:
                    for b in child_b.scope:
                        value = float(matrix[position[a], position[b]])
                        if value >= threshold:
                            violations.append((a, b, value))
        for i, child in enumerate(node.children):
            # Derive a distinct seed per child (as the sum branch above
            # does): recursing with the parent's seed made sibling
            # subtrees draw identical RDC subsamples, so reports could
            # differ between runs that happened to order recursion
            # differently and correlated columns hiding behind an
            # unlucky shared draw were checked with zero diversity.
            violations.extend(
                _product_split_violations(
                    child, data, threshold, seed + i + 1, min_rows
                )
            )
        return violations
    return []


def check_structure_drift(ensemble, database, sample=2_000, threshold=None,
                          seed=0, min_rows=100):
    """Re-validate every RSPN's column splits against the current data.

    Returns one :class:`DriftReport` per RSPN.  ``threshold`` defaults to
    each RSPN's learning RDC threshold.  Violations name the qualified
    columns whose independence assumption no longer holds.
    """
    reports = []
    for index, rspn in enumerate(ensemble.rspns):
        data = _fresh_sample(database, rspn, sample, seed + index)
        limit = threshold if threshold is not None else rspn.config.rdc_threshold
        raw = _product_split_violations(
            rspn.root, data, limit, seed + index, min_rows
        )
        named = sorted(
            {
                (rspn.column_names[a], rspn.column_names[b], value)
                for a, b, value in raw
            },
            key=lambda v: -v[2],
        )
        reports.append(DriftReport(rspn, named))
    return reports


def rebuild_drifted(ensemble, database, config, sample=2_000, seed=0):
    """Shadow-learn replacements for drifted RSPNs without mutating.

    Runs :func:`check_structure_drift` and re-learns every flagged RSPN
    from the current data into *scratch* ensembles -- ``ensemble``
    itself is only read, so this (expensive) phase can run off any
    serving lock while readers keep answering from the live models.
    Returns ``(reports, replacements)`` with ``replacements`` a list of
    ``(index, fresh_rspn, seconds)`` ready for :func:`commit_refresh`.
    """
    from repro.core.ensemble import SPNEnsemble, _learn_join, _learn_single_table

    compute_tuple_factors(database)
    reports = check_structure_drift(ensemble, database, sample=sample, seed=seed)
    replacements = []
    for index, report in enumerate(reports):
        if not report.has_drift:
            continue
        start = time.perf_counter()
        scratch = SPNEnsemble(database)
        tables = sorted(report.rspn.tables)
        if len(tables) == 1:
            fresh = _learn_single_table(database, scratch, tables[0], config)
        else:
            fresh = _learn_join(database, scratch, tables, config)
        replacements.append((index, fresh, time.perf_counter() - start))
    return reports, replacements


def commit_refresh(ensemble, replacements):
    """Atomically swap shadow-learned replacements into ``ensemble``.

    The cheap O(replacements) commit phase of :func:`rebuild_drifted`:
    run it under the serving session's write lock.  Each swap goes
    through :meth:`~repro.core.ensemble.SPNEnsemble.replace`, which
    keeps the ensemble generation strictly monotonic.  Untouched RSPNs
    keep their incremental state.  Returns the number of models swapped.
    """
    for index, fresh, seconds in replacements:
        ensemble.replace(index, fresh, seconds=seconds)
    return len(replacements)


def refresh_ensemble(ensemble, database, config, sample=2_000, seed=0):
    """Regenerate RSPNs whose structure has drifted (Section 5.2).

    Runs :func:`check_structure_drift` and re-learns every flagged RSPN
    from the current data with the given
    :class:`~repro.core.ensemble.EnsembleConfig`.  Returns
    ``(reports, rebuilt_count, seconds)``; untouched RSPNs keep their
    incremental state.  This is the convenience one-call form of
    :func:`rebuild_drifted` + :func:`commit_refresh`; the serving
    layer's drift monitor calls the two phases separately so only the
    pointer swap runs under its write lock.
    """
    start = time.perf_counter()
    reports, replacements = rebuild_drifted(
        ensemble, database, config, sample=sample, seed=seed
    )
    rebuilt = commit_refresh(ensemble, replacements)
    return reports, rebuilt, time.perf_counter() - start
