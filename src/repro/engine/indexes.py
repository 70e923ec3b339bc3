"""Adjacency indexes over foreign keys for the sampling baselines.

Index-Based Join Sampling and Wander Join both need, for a given row of
one table, the set of join partners in a neighbouring table in O(1)-ish
time -- the role secondary indexes play in the paper's baselines.  The
:class:`JoinIndex` below precomputes, per FK edge and direction, a CSR
style (offsets, row ids) adjacency list.
"""

from __future__ import annotations

import numpy as np

from repro.engine.join import match_parent_rows


class _Adjacency:
    """CSR adjacency: partners of row ``i`` are ``rows[offsets[i]:offsets[i+1]]``."""

    def __init__(self, offsets, rows):
        self.offsets = offsets
        self.rows = rows

    def partners(self, i):
        return self.rows[self.offsets[i] : self.offsets[i + 1]]

    def degree(self, i):
        return int(self.offsets[i + 1] - self.offsets[i])


class JoinIndex:
    """All FK adjacencies of a database, in both directions."""

    def __init__(self, database):
        self.database = database
        self._adjacency = {}
        for fk in database.schema.foreign_keys:
            parent = database.table(fk.parent)
            child = database.table(fk.child)
            parent_rows = match_parent_rows(
                parent.columns[fk.pk_column], child.columns[fk.fk_column]
            )
            # parent -> children
            valid = parent_rows >= 0
            owners = parent_rows[valid]
            child_rows = np.flatnonzero(valid)
            order = np.argsort(owners, kind="mergesort")
            counts = np.bincount(owners, minlength=parent.n_rows)
            offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._adjacency[(fk.parent, fk.child)] = _Adjacency(
                offsets, child_rows[order]
            )
            # child -> parent (degree 0 or 1)
            counts = (parent_rows >= 0).astype(np.int64)
            offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._adjacency[(fk.child, fk.parent)] = _Adjacency(
                offsets, parent_rows[parent_rows >= 0]
            )

    def adjacency(self, from_table, to_table) -> _Adjacency:
        return self._adjacency[(from_table, to_table)]
