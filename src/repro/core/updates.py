"""Algorithm 1 of the paper: incremental RSPN updates.

Inserted (deleted) tuples traverse the tree top-down.  Sum nodes route
the tuple to the nearest KMeans cluster and adjust that child's weight;
product nodes split the tuple by scope and recurse into every child;
leaves adjust their value distribution.  The tree *structure* never
changes -- exactly the behaviour (and limitation) the paper describes
and evaluates in Table 2.

Two appliers share that traversal:

- :func:`update_tuple` -- the original one-tuple path.  Every call
  invalidates the compiled form, so a stream of N inserts pays N full
  re-lowerings.
- :class:`TreeBatch` -- the streaming-ingest path.  Tuples are *staged*
  against copy-on-write shadows of exactly the nodes they touch (the
  live tree is never mutated while readers sweep it), then *committed*
  as one O(touched) pointer swap followed by a single
  :func:`repro.core.compiled.refresh_weights` -- one generation bump
  per batch, compiled plan patched in place rather than rebuilt.
  Staging calls the **same** leaf ``update``/count arithmetic as the
  serial path in the same per-tuple order, so a committed batch is
  bit-identical (``==``) to applying its tuples one at a time.
"""

from __future__ import annotations

import numpy as np

from repro.core import compiled
from repro.core.leaves import BinnedLeaf, DiscreteLeaf
from repro.core.nodes import LeafNode, ProductNode, SumNode


def update_tuple(node, row, sign=1):
    """Insert (``sign=+1``) or delete (``sign=-1``) one tuple.

    ``row`` is the full attribute vector indexed by scope index (NaN for
    NULL); only the slice covered by each node's scope is inspected.
    Routing through sum nodes changes their mixture weights, so any
    compiled flat-array form of the tree is invalidated.
    """
    row = np.asarray(row, dtype=float)
    compiled.invalidate(node)
    _update(node, row, float(sign))


def _update(node, row, sign):
    if isinstance(node, LeafNode):
        node.update(row[node.scope_index], sign)
        return
    if isinstance(node, SumNode):
        nearest = node.route(row[np.asarray(node.scope)])
        node.adjust_count(nearest, sign)
        _update(node.children[nearest], row, sign)
        return
    if isinstance(node, ProductNode):
        for child in node.children:
            _update(child, row, sign)
        return
    raise TypeError(f"unknown node type {type(node)!r}")


class TreeBatch:
    """Copy-on-write staging of many tuple updates against one tree.

    ``stage()`` may be called freely while other threads *read* the
    tree: every mutation lands in a private shadow (copied sum counts,
    copied leaf histograms), and routing decisions read those shadows
    so the staged stream sees its own earlier tuples exactly as the
    serial path would.  ``commit()`` publishes the shadows onto the
    live nodes -- plain attribute assignments, no array is mutated in
    place -- and performs the batch's single generation bump.  The
    caller (the serving session) runs ``commit()`` under its write
    lock; a reader that raced an assignment still computes from a
    consistent tree because every swapped array is fully formed before
    being attached.
    """

    def __init__(self, root):
        self.root = root
        self.staged = 0
        # id(node) -> (node, shadow counts) / (node, shadow leaf).
        self._sums: dict[int, tuple] = {}
        self._leaves: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def stage(self, row, sign=1):
        """Stage one tuple (see :func:`update_tuple` for ``row``)."""
        row = np.asarray(row, dtype=float)
        self._stage(self.root, row, float(sign))
        self.staged += 1

    def _shadow_counts(self, node):
        entry = self._sums.get(id(node))
        if entry is None:
            entry = (node, np.asarray(node.counts, dtype=float).copy())
            self._sums[id(node)] = entry
        return entry[1]

    def _shadow_leaf(self, node):
        entry = self._leaves.get(id(node))
        if entry is None:
            if isinstance(node, DiscreteLeaf):
                shadow = DiscreteLeaf(
                    node.scope_index, node.attribute,
                    np.asarray(node.values, dtype=float).copy(),
                    np.asarray(node.counts, dtype=float).copy(),
                    node.null_count,
                )
            elif isinstance(node, BinnedLeaf):
                shadow = BinnedLeaf(
                    node.scope_index, node.attribute,
                    node.edges,
                    np.asarray(node.counts, dtype=float).copy(),
                    np.asarray(node.sums, dtype=float).copy(),
                    node.distinct,
                    node.null_count,
                )
            else:
                raise TypeError(
                    f"cannot batch-update {type(node).__name__}: no "
                    "copy-on-write shadow for this leaf kind"
                )
            entry = (node, shadow)
            self._leaves[id(node)] = entry
        return entry[1]

    def _stage(self, node, row, sign):
        if isinstance(node, LeafNode):
            self._shadow_leaf(node).update(row[node.scope_index], sign)
            return
        if isinstance(node, SumNode):
            counts = self._shadow_counts(node)
            if node.kmeans is None:
                # Serial routing reads the live counts, which by now
                # include this batch's earlier tuples -- the shadow is
                # that state.
                nearest = int(np.argmax(counts))
            else:
                nearest = node.kmeans.nearest_center(
                    row[np.asarray(node.scope)]
                )
            counts[nearest] = max(0.0, counts[nearest] + sign)
            self._stage(node.children[nearest], row, sign)
            return
        if isinstance(node, ProductNode):
            for child in node.children:
                self._stage(child, row, sign)
            return
        raise TypeError(f"unknown node type {type(node)!r}")

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self):
        """Publish the shadows and bump the generation once.

        An empty batch is a no-op (no mutation, no bump).  The batch is
        spent afterwards; stage into a fresh one.
        """
        if not self.staged:
            return
        for node, counts in self._sums.values():
            node.counts = counts
            node._weights = None
        for node, shadow in self._leaves.values():
            if isinstance(node, DiscreteLeaf):
                node.values = shadow.values
                node.counts = shadow.counts
            else:
                node.counts = shadow.counts
                node.sums = shadow.sums
            node.null_count = shadow.null_count
        compiled.refresh_weights(self.root)
        self.staged = 0
        self._sums = {}
        self._leaves = {}
