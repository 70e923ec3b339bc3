"""RSPN ensembles: base ensemble creation and budget-constrained
optimization (Sections 3.3 and 5.3 of the paper).

Base ensemble procedure: for every FK relationship, learn one RSPN over
the *full outer join* of the two tables when any attribute pair across
the tables has an RDC value above the threshold; otherwise keep
single-table RSPNs.  Tables not covered by any join RSPN get a
single-table RSPN so every query can be compiled.

Ensemble optimization: given a budget factor ``B`` (extra training cost
relative to the base ensemble), additional RSPNs spanning more than two
tables are selected greedily by the highest mean pairwise-maximum RDC
value and the lowest relative creation cost ``cols(r)^2 * rows(r)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine import join as join_ops
from repro.engine.join import (
    full_outer_join_size,
    join_frame,
    join_learning_columns,
    sample_full_outer_join,
)
from repro.core.rspn import RSPN, RspnConfig
from repro.stats.rdc import rdc_matrix


@dataclass
class EnsembleConfig:
    """Hyperparameters of ensemble creation (paper defaults)."""

    rdc_threshold: float = 0.3       # table-correlation threshold (paper: 0.3)
    budget_factor: float = 0.0       # B of Section 5.3 (paper default: 0.5)
    sample_size: int = 100_000       # samples per RSPN
    correlation_sample: int = 2_000  # rows used for pairwise RDC tests
    max_join_tables: int = 4         # candidate size cap for optimization
    single_tables_only: bool = False  # the paper's "cheap strategy"
    rspn: RspnConfig = field(default_factory=RspnConfig)
    seed: int = 0


class SPNEnsemble:
    """A set of RSPNs plus the correlation metadata used at runtime.

    ``attribute_rdc`` maps ``frozenset({qualified_a, qualified_b})`` to
    the RDC value measured during ensemble creation; the greedy
    execution strategy of Section 4.1 reuses these values, which is why
    the paper calls the strategy "very compute-efficient".
    """

    def __init__(self, database):
        self.database = database
        self.rspns: list[RSPN] = []
        self.attribute_rdc: dict[frozenset, float] = {}
        self.table_dependency: dict[frozenset, float] = {}
        self.training_seconds: float = 0.0
        self.rspn_training_seconds: list[float] = []
        self._structure_generation = 0

    def add(self, rspn, seconds=0.0):
        self.rspns.append(rspn)
        self.rspn_training_seconds.append(seconds)
        self.training_seconds += seconds
        self._structure_generation += 1
        return rspn

    def replace(self, index, rspn, seconds=0.0):
        """Swap member ``index`` for a freshly learned ``rspn``.

        The drift-repair path (:func:`repro.core.maintenance.refresh_ensemble`)
        builds the replacement off-line and commits it here.  A naive
        ``ensemble.rspns[index] = fresh`` would make :attr:`generation`
        *jump backwards* (the fresh tree starts at generation 0 while
        the old one had absorbed updates), silently un-invalidating
        every generation-keyed cache -- so the structure counter is
        advanced past everything the outgoing model contributed, keeping
        the ensemble counter strictly monotonic.
        """
        old = self.rspns[index]
        self._structure_generation += 1 + int(old.generation)
        self.rspns[index] = rspn
        self.training_seconds += seconds
        if index < len(self.rspn_training_seconds):
            self.rspn_training_seconds[index] = seconds
        return rspn

    @property
    def generation(self):
        """Monotonic change counter: the single invalidation hook.

        Moves whenever any member RSPN absorbs an insert/delete (or is
        invalidated out-of-band) and whenever the ensemble itself gains
        an RSPN.  Anything caching results derived from this ensemble --
        the serving layer's LRU result cache in particular -- records
        the generation it computed under and drops its entries when the
        current value differs, instead of guessing which update paths
        exist.  The compiled flat-array forms ride the same per-RSPN
        counters (:attr:`~repro.core.rspn.RSPN.generation`).
        """
        return self._structure_generation + sum(
            rspn.generation for rspn in self.rspns
        )

    def covering(self, tables):
        """RSPNs whose table set contains all of ``tables``."""
        required = frozenset(tables)
        return [r for r in self.rspns if required <= r.tables]

    def touching(self, table):
        return [r for r in self.rspns if table in r.tables]

    def rdc_value(self, attr_a, attr_b):
        return self.attribute_rdc.get(frozenset((attr_a, attr_b)), 0.0)

    def invalidate_compiled(self):
        """Drop every RSPN's cached flat-array form.

        Normal inserts/deletes invalidate per-RSPN automatically; this
        is the blunt instrument for callers that mutate node trees
        directly (drift repair, ablations)."""
        for rspn in self.rspns:
            rspn.invalidate_compiled()

    def describe(self):
        lines = [f"SPNEnsemble with {len(self.rspns)} RSPNs "
                 f"(training {self.training_seconds:.1f}s):"]
        for rspn, seconds in zip(self.rspns, self.rspn_training_seconds):
            lines.append(f"  - {sorted(rspn.tables)}: {rspn.full_size:.0f} rows, "
                         f"{len(rspn.column_names)} columns, {seconds:.1f}s")
        return "\n".join(lines)


def learn_ensemble(database, config: EnsembleConfig | None = None):
    """Learn a full RSPN ensemble for ``database``.

    Tuple factors must already be attached
    (:func:`repro.engine.join.compute_tuple_factors`); this function
    attaches them when absent.
    """
    config = config or EnsembleConfig()
    _ensure_tuple_factors(database)
    ensemble = SPNEnsemble(database)
    _measure_correlations(database, ensemble, config)

    if config.single_tables_only:
        for name in database.table_names():
            _learn_single_table(database, ensemble, name, config)
        return ensemble

    joined_tables = set()
    for fk in database.schema.foreign_keys:
        pair = frozenset((fk.parent, fk.child))
        if ensemble.table_dependency.get(pair, 0.0) >= config.rdc_threshold:
            _learn_join(database, ensemble, (fk.parent, fk.child), config)
            joined_tables |= pair
    for name in database.table_names():
        if name not in joined_tables:
            _learn_single_table(database, ensemble, name, config)

    if config.budget_factor > 0:
        _optimize_ensemble(database, ensemble, config)
    return ensemble


# ----------------------------------------------------------------------
# Correlation measurement
# ----------------------------------------------------------------------
def _learned_attribute_columns(database, table_name):
    """Qualified non-key, non-factor attributes of one table."""
    table = database.table(table_name)
    return [
        join_ops.qualify(table_name, attr.name)
        for attr in table.schema.non_key_attributes
        if not attr.name.startswith("F__")
    ]


def _column_discrete_flags(database, columns):
    flags = []
    for qualified in columns:
        table_name, column = qualified.split(".", 1)
        attr = database.table(table_name).schema.attribute(column)
        flags.append(attr.kind == "categorical")
    return flags


def _measure_correlations(database, ensemble, config):
    """Pairwise attribute RDC values, within tables and across FK edges."""
    rng_seed = config.seed
    for name in database.table_names():
        columns = _learned_attribute_columns(database, name)
        if len(columns) < 1:
            continue
        table = database.table(name)
        data = np.column_stack(
            [table.columns[c.split(".", 1)[1]] for c in columns]
        )
        _store_rdc(ensemble, columns, data, config, seed=rng_seed,
                   flags=_column_discrete_flags(database, columns))
        rng_seed += 1
    for fk in database.schema.foreign_keys:
        pair = (fk.parent, fk.child)
        sample = sample_full_outer_join(
            database, list(pair), config.correlation_sample, seed=rng_seed
        )
        rng_seed += 1
        columns = (
            _learned_attribute_columns(database, fk.parent)
            + _learned_attribute_columns(database, fk.child)
        )
        data = join_frame(sample, columns)
        matrix = _store_rdc(ensemble, columns, data, config, seed=rng_seed,
                            flags=_column_discrete_flags(database, columns))
        cross = 0.0
        n_parent = len(_learned_attribute_columns(database, fk.parent))
        for i in range(n_parent):
            for j in range(n_parent, len(columns)):
                cross = max(cross, matrix[i, j])
        ensemble.table_dependency[frozenset(pair)] = cross


def _store_rdc(ensemble, columns, data, config, seed, flags=None):
    matrix = rdc_matrix(
        data, seed=seed, n_samples=config.correlation_sample, discrete_flags=flags
    )
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            key = frozenset((columns[i], columns[j]))
            ensemble.attribute_rdc[key] = max(
                ensemble.attribute_rdc.get(key, 0.0), float(matrix[i, j])
            )
    return matrix


def _dependency_value(database, ensemble, config, table_a, table_b):
    """Max cross-attribute RDC between two (possibly non-adjacent) tables."""
    key = frozenset((table_a, table_b))
    if key in ensemble.table_dependency:
        return ensemble.table_dependency[key]
    try:
        path = _connecting_path(database.schema, table_a, table_b)
    except ValueError:
        ensemble.table_dependency[key] = 0.0
        return 0.0
    sample = sample_full_outer_join(
        database, path, config.correlation_sample, seed=config.seed + hash(key) % 1000
    )
    columns_a = _learned_attribute_columns(database, table_a)
    columns_b = _learned_attribute_columns(database, table_b)
    columns = columns_a + columns_b
    data = join_frame(sample, columns)
    matrix = _store_rdc(ensemble, columns, data, config, seed=config.seed,
                        flags=_column_discrete_flags(database, columns))
    cross = 0.0
    for i in range(len(columns_a)):
        for j in range(len(columns_a), len(columns)):
            cross = max(cross, matrix[i, j])
    ensemble.table_dependency[key] = float(cross)
    return float(cross)


def _connecting_path(schema, table_a, table_b):
    import networkx as nx

    graph = schema.as_networkx()
    return nx.shortest_path(graph, table_a, table_b)


# ----------------------------------------------------------------------
# RSPN construction
# ----------------------------------------------------------------------
def _single_table_learning_data(database, table_name, config):
    table = database.table(table_name)
    names = [
        join_ops.qualify(table_name, attr.name)
        for attr in table.schema.non_key_attributes
    ]
    data = np.column_stack([table.columns[n.split(".", 1)[1]] for n in names])
    flags = [
        table.schema.attribute(n.split(".", 1)[1]).kind == "categorical" for n in names
    ]
    if data.shape[0] > config.sample_size:
        rng = np.random.default_rng(config.seed)
        keep = rng.choice(data.shape[0], size=config.sample_size, replace=False)
        data = data[keep]
    return names, data, flags


def _learn_single_table(database, ensemble, table_name, config, fds=()):
    start = time.perf_counter()
    names, data, flags = _single_table_learning_data(database, table_name, config)
    rspn = RSPN.learn(
        data,
        names,
        flags,
        tables={table_name},
        full_size=database.table(table_name).n_rows,
        internal_edges=(),
        functional_dependencies=fds,
        config=config.rspn,
    )
    return ensemble.add(rspn, time.perf_counter() - start)


def _discrete_flags(database, columns):
    flags = []
    for qualified in columns:
        table_name, column = qualified.split(".", 1)
        if column == "__present__":
            flags.append(True)
            continue
        attr = database.table(table_name).schema.attribute(column)
        flags.append(attr.kind == "categorical")
    return flags


def _learn_join(database, ensemble, tables, config, fds=()):
    start = time.perf_counter()
    tables = list(tables)
    full_size = full_outer_join_size(database, tables)
    sample = sample_full_outer_join(
        database, tables, config.sample_size, seed=config.seed
    )
    columns = join_learning_columns(database, tables)
    data = join_frame(sample, columns)
    flags = _discrete_flags(database, columns)
    rspn = RSPN.learn(
        data,
        columns,
        flags,
        tables=set(tables),
        full_size=full_size,
        internal_edges=database.schema.edges_between(tables),
        functional_dependencies=fds,
        config=config.rspn,
    )
    return ensemble.add(rspn, time.perf_counter() - start)


# ----------------------------------------------------------------------
# Ensemble optimization (Section 5.3)
# ----------------------------------------------------------------------
def _candidate_subsets(database, config):
    """Connected table subsets of size 3..max_join_tables."""
    schema = database.schema
    graph = schema.as_networkx()
    frontier = {frozenset((fk.parent, fk.child)) for fk in schema.foreign_keys}
    candidates = set()
    current = frontier
    for _size in range(3, config.max_join_tables + 1):
        grown = set()
        for subset in current:
            for table in subset:
                for neighbor in graph.neighbors(table):
                    if neighbor not in subset:
                        grown.add(subset | {neighbor})
        candidates |= grown
        current = grown
    return candidates


def _mean_dependency(database, ensemble, config, subset):
    tables = sorted(subset)
    values = []
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            values.append(
                _dependency_value(database, ensemble, config, tables[i], tables[j])
            )
    return float(np.mean(values)) if values else 0.0


def _relative_cost(database, subset, sample_size):
    """The paper's cost proxy ``cols(r)^2 * rows(r)``.

    ``rows`` is the size of the *training data*, which is capped at the
    configured sample size (RSPNs over large joins are learned on a
    sample, Section 6.1).
    """
    columns = sum(
        len(database.table(t).schema.non_key_attributes) for t in subset
    )
    rows = min(full_outer_join_size(database, list(subset)), sample_size)
    return columns**2 * rows


def _optimize_ensemble(database, ensemble, config):
    """Greedy selection of additional larger RSPNs under the budget."""
    base_cost = sum(
        _relative_cost(database, r.tables, config.sample_size)
        for r in ensemble.rspns
    )
    budget = config.budget_factor * base_cost
    existing = {r.tables for r in ensemble.rspns}
    candidates = [
        subset for subset in _candidate_subsets(database, config)
        if subset not in existing
    ]
    scored = []
    for subset in candidates:
        mean_rdc = _mean_dependency(database, ensemble, config, subset)
        if mean_rdc < config.rdc_threshold:
            continue
        scored.append(
            (mean_rdc, -_relative_cost(database, subset, config.sample_size), subset)
        )
    scored.sort(reverse=True)
    spent = 0.0
    for mean_rdc, negative_cost, subset in scored:
        cost = -negative_cost
        if spent + cost > budget:
            continue
        _learn_join(database, ensemble, sorted(subset), config)
        existing.add(frozenset(subset))
        spent += cost


def _ensure_tuple_factors(database):
    for fk in database.schema.foreign_keys:
        parent = database.table(fk.parent)
        if fk.factor_name not in parent.columns:
            join_ops.compute_tuple_factors(database)
            return
