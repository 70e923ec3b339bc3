"""The RSPN facade: a learned model of one relation (table or join).

An RSPN wraps an SPN tree with everything the paper layers on top
(Section 3.2):

- qualified column names mapped to scope indices,
- NULL-aware leaves (handled inside :mod:`repro.core.leaves`),
- functional dependency dictionaries (columns determined by another
  column are kept out of the model and predicates on them translated),
- direct updates (insert/delete) that also maintain the represented
  full relation size, honouring the sampling rate used for learning,
- the table metadata the probabilistic query compiler needs: which
  tables the model spans, the FK edges internal to its join, tuple
  factor columns and NULL indicator columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import inference
from repro.core.inference import EvaluationSpec
from repro.core.learning import LearningConfig, learn_structure
from repro.core.nodes import count_nodes
from repro.core.ranges import Range
from repro.core.updates import TreeBatch


@dataclass
class RspnConfig:
    """User-facing hyperparameters (paper defaults in parentheses)."""

    rdc_threshold: float = 0.3          # (0.3)
    min_instances_fraction: float = 0.01  # (1% of the input data)
    max_distinct_leaf: int = 512
    n_bins: int = 128
    rdc_sample: int = 5_000
    seed: int = 0

    def learning_config(self):
        return LearningConfig(
            rdc_threshold=self.rdc_threshold,
            min_instances_fraction=self.min_instances_fraction,
            max_distinct_leaf=self.max_distinct_leaf,
            n_bins=self.n_bins,
            rdc_sample=self.rdc_sample,
            seed=self.seed,
        )


@dataclass
class FunctionalDependency:
    """``source -> dependent``: the dependent column is determined by source.

    ``mapping`` maps encoded source values to encoded dependent values;
    it is learned from the data when the RSPN is built.
    """

    source: str
    dependent: str
    mapping: dict = field(default_factory=dict)

    def translate(self, dependent_range: Range) -> Range:
        """Translate a range over the dependent column into source values."""
        sources = [s for s, d in self.mapping.items() if dependent_range.contains(d)]
        translated = Range.points(sources) if sources else Range.nothing()
        if dependent_range.include_null:
            translated = Range(translated.intervals, include_null=True)
        return translated


class RSPN:
    """A learned SPN over one relation, with relational metadata."""

    def __init__(
        self,
        root,
        column_names,
        tables,
        full_size,
        sample_size,
        internal_edges=(),
        functional_dependencies=(),
        config=None,
    ):
        self.root = root
        self.column_names = list(column_names)
        self.column_index = {name: i for i, name in enumerate(self.column_names)}
        self.tables = frozenset(tables)
        self.full_size = float(full_size)
        self.sample_size = float(sample_size)
        self.internal_edges = list(internal_edges)
        self.functional_dependencies = {
            fd.dependent: fd for fd in functional_dependencies
        }
        self.config = config or RspnConfig()

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    @classmethod
    def learn(
        cls,
        data,
        column_names,
        discrete_flags,
        tables,
        full_size=None,
        internal_edges=(),
        functional_dependencies=(),
        config=None,
    ):
        """Learn an RSPN from a data matrix (rows x columns, NaN = NULL).

        ``full_size`` is the size of the represented relation (the full
        table or full outer join); when the matrix is a sample, pass the
        true size so query compilation scales correctly.  Columns listed
        as functional-dependency dependents are excluded from the SPN and
        served through the learned dictionary instead.
        """
        data = np.asarray(data, dtype=float)
        column_names = list(column_names)
        config = config or RspnConfig()
        fds = []
        dependents = set()
        for fd in functional_dependencies:
            fd = _learn_fd(fd, data, column_names)
            fds.append(fd)
            dependents.add(fd.dependent)
        keep = [i for i, name in enumerate(column_names) if name not in dependents]
        kept_names = [column_names[i] for i in keep]
        kept_flags = [discrete_flags[i] for i in keep]
        kept_data = data[:, keep]
        root = learn_structure(kept_data, kept_flags, config.learning_config())
        return cls(
            root=root,
            column_names=kept_names,
            tables=tables,
            full_size=float(full_size if full_size is not None else data.shape[0]),
            sample_size=float(data.shape[0]),
            internal_edges=internal_edges,
            functional_dependencies=fds,
            config=config,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_join_model(self):
        return len(self.tables) > 1

    @property
    def sample_fraction(self):
        if self.full_size <= 0:
            return 1.0
        return min(1.0, self.sample_size / self.full_size)

    def has_column(self, name):
        return name in self.column_index or name in self.functional_dependencies

    def node_counts(self):
        return count_nodes(self.root)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _build_spec(self, conditions=None, transforms=None):
        spec = EvaluationSpec()
        for name, rng in (conditions or {}).items():
            fd = self.functional_dependencies.get(name)
            if fd is not None:
                name, rng = fd.source, fd.translate(rng)
            if name not in self.column_index:
                raise KeyError(f"RSPN over {sorted(self.tables)} has no column {name!r}")
            spec.condition(self.column_index[name], rng)
        for name, transform_list in (transforms or {}).items():
            if name not in self.column_index:
                raise KeyError(f"RSPN over {sorted(self.tables)} has no column {name!r}")
            for transform in transform_list:
                spec.transform(self.column_index[name], transform)
        return spec

    def evaluate_specs(self, specs):
        """Evaluate prepared :class:`EvaluationSpec`\\ s in one sweep.

        The single funnel every expectation takes to the compiled form;
        :class:`~repro.core.modelstore.MappedRSPN` overrides it to serve
        from the store-restored compiled form without materialising the
        node tree.
        """
        return inference.evaluate_batch(self.root, specs)

    def expectation(self, conditions=None, transforms=None):
        """E[ prod h_i(X_i) * 1_{conditions} ] under the model."""
        spec = self._build_spec(conditions, transforms)
        return float(self.evaluate_specs([spec])[0])

    def expectation_batch(self, requests):
        """Batched :meth:`expectation`: one compiled bottom-up sweep.

        ``requests`` is a sequence of ``(conditions, transforms)`` pairs
        (either element may be ``None``); returns an array of
        ``len(requests)`` floats.  This is the entry point the
        probabilistic query compiler uses to evaluate all expectation
        sub-queries of one SQL query -- and all GROUP BY groups -- in a
        single pass over this RSPN.
        """
        specs = [
            self._build_spec(conditions, transforms)
            for conditions, transforms in requests
        ]
        return self.evaluate_specs(specs)

    def invalidate_compiled(self):
        """Mark the cached flat-array form stale after out-of-band tree
        mutations by bumping :attr:`generation`.  :meth:`insert`,
        :meth:`delete` and :meth:`commit_batch` bump it themselves."""
        from repro.core import compiled

        compiled.invalidate(self.root)

    @property
    def generation(self):
        """Monotonic mutation counter of this model (0 when untouched).

        Every :meth:`insert`/:meth:`delete` (and any out-of-band
        :meth:`invalidate_compiled`) bumps it.  Consumers that cache
        anything derived from this RSPN -- the compiled flat-array form,
        the plan cache -- compare generations instead of guessing when
        to invalidate.
        """
        from repro.core import compiled

        return compiled.generation(self.root)

    def compiled_peek(self):
        """The cached compiled form if present and current, else ``None``
        (never compiles -- the telemetry-safe accessor
        :meth:`~repro.deepdb.DeepDB.kernel_stats` aggregates over)."""
        from repro.core import compiled

        return compiled.peek(self.root)

    def probability(self, conditions):
        """P(conditions) under the model."""
        return self.expectation(conditions=conditions)

    def estimate_count(self, conditions):
        """Estimated number of rows of the represented relation matching."""
        return self.full_size * self.probability(conditions)

    # ------------------------------------------------------------------
    # Updates (Section 5.2)
    # ------------------------------------------------------------------
    def _row_vector(self, row: dict):
        vector = np.full(len(self.column_names), np.nan)
        for name, value in row.items():
            if name in self.functional_dependencies:
                continue
            index = self.column_index.get(name)
            if index is None:
                raise KeyError(f"unknown column {name!r}")
            vector[index] = np.nan if value is None else float(value)
        return vector

    def insert(self, row: dict):
        """Absorb one inserted tuple (encoded values, keyed by column name).

        A one-row :meth:`apply_batch`.  The represented full size grows
        by ``1 / sample_fraction`` so a model learned on a p%-sample
        stays calibrated when updated with a p%-sample of the inserted
        tuples, as in Section 6.1.
        """
        self.apply_batch([(row, +1)])

    def delete(self, row: dict):
        """Remove one tuple (encoded values, keyed by column name); a
        one-row :meth:`apply_batch`."""
        self.apply_batch([(row, -1)])

    # -- batched updates (streaming ingest) ----------------------------
    def stage_batch(self, ops):
        """Stage many ``(row, sign)`` tuple updates without mutating.

        ``ops`` is an iterable of ``(row dict, +1/-1)``.  Routing and
        histogram arithmetic run now, against copy-on-write shadows
        (:meth:`repro.core.updates.TreeBatch.stage_rows`): the batch
        goes down the tree node by node -- one k-means ``predict`` per
        sum node -- not tuple by tuple, and every
        node still sees its tuples in order, so the result is ``==``
        applying them one at a time.  Concurrent readers
        keep sweeping one consistent tree meanwhile (the serving
        front-end stages on its writer thread).  Returns an opaque
        pending batch for :meth:`commit_batch`, which is the only step
        that must exclude readers.  Staging and committing must be
        serialized against other writers (the serving session's ingest
        lock does this); readers need no coordination.
        """
        batch = TreeBatch(self.root)
        ops = list(ops)
        signs = [sign for _row, sign in ops]
        if ops:
            batch.stage_rows(
                np.stack([self._row_vector(row) for row, _sign in ops]), signs
            )
        return (batch, signs)

    def commit_batch(self, pending):
        """Publish a staged batch: one generation bump for the whole
        batch, size bookkeeping replayed per tuple in batch order (an
        insert grows the sizes, a delete shrinks them, clamped at
        zero)."""
        batch, signs = pending
        batch.commit()
        for sign in signs:
            if sign > 0:
                self.sample_size += 1
                self.full_size += (
                    1.0 / self.sample_fraction
                    if self.sample_fraction > 0 else 1.0
                )
            else:
                growth = (
                    1.0 / self.sample_fraction
                    if self.sample_fraction > 0 else 1.0
                )
                self.sample_size = max(0.0, self.sample_size - 1)
                self.full_size = max(0.0, self.full_size - growth)

    def apply_batch(self, ops):
        """Stage and immediately commit ``(row, sign)`` updates; the
        single-caller convenience over
        :meth:`stage_batch`/:meth:`commit_batch`."""
        self.commit_batch(self.stage_batch(ops))

    def __repr__(self):
        counts = self.node_counts()
        return (
            f"RSPN(tables={sorted(self.tables)}, rows={self.full_size:.0f}, "
            f"cols={len(self.column_names)}, nodes={counts})"
        )


def _learn_fd(fd, data, column_names):
    """Fill a FunctionalDependency's mapping from the data."""
    if fd.mapping:
        return fd
    if fd.source not in column_names or fd.dependent not in column_names:
        raise KeyError(f"functional dependency {fd.source} -> {fd.dependent} "
                       "references unknown columns")
    source = data[:, column_names.index(fd.source)]
    dependent = data[:, column_names.index(fd.dependent)]
    mapping = {}
    mask = ~np.isnan(source)
    for s, d in zip(source[mask], dependent[mask]):
        mapping.setdefault(float(s), None if np.isnan(d) else float(d))
    return FunctionalDependency(fd.source, fd.dependent, mapping)
