"""Algorithm 1 of the paper: incremental RSPN updates.

Inserted (deleted) tuples traverse the tree top-down.  Sum nodes route
the tuple to the nearest KMeans cluster and adjust that child's weight;
product nodes split the tuple by scope and recurse into every child;
leaves adjust their value distribution.  The tree *structure* never
changes -- exactly the behaviour (and limitation) the paper describes
and evaluates in Table 2.

Two appliers share that arithmetic:

- :func:`update_tuple` -- the one-tuple path and the serial reference.
  Every call invalidates the compiled form, so a stream of N inserts
  pays N full re-lowerings.
- :class:`TreeBatch` -- the streaming-ingest path.  A batch is *staged*
  node by node (:meth:`TreeBatch.stage_rows`): each node takes its whole
  sub-batch at once -- a k-means sum node routes it with one
  ``predict`` -- into copy-on-write shadows of exactly the nodes it
  touches, so the live tree is never mutated while readers sweep it.
  The end of staging also patches the compiled form's fused leaf
  tables from the shadows
  (:meth:`repro.core.compiled.CompiledRSPN.stage_scope_tables`).
  The batch is then *committed* as one O(touched) pointer swap
  followed by a single :func:`repro.core.compiled.refresh_weights` --
  one generation bump per batch, compiled plan patched in place and
  the patched tables swapped in, so no read after the commit rebuilds
  a table.  The commit is the only step that must exclude readers;
  the serving front-end stages on its writer thread, off the loop that
  answers reads.  Every node sees the same tuples in the same order as
  under the serial path, with the same count arithmetic (the
  ``max(0, ...)`` clamp included), so a committed batch is
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

    ``stage_rows()`` may be called freely while other threads *read*
    the tree: every mutation lands in a private shadow (copied sum
    counts, copied leaf histograms), and routing decisions read those
    shadows so the staged stream sees its own earlier tuples exactly as
    the serial path would.  ``commit()`` publishes the shadows onto the
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
        # (compiled form, its fused tables patched from the shadows),
        # swapped in by commit().
        self._tables = None

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def stage_rows(self, rows, signs):
        """Stage a batch of tuples, one tree node at a time.

        ``rows`` is an ``(n, n_columns)`` matrix of attribute vectors
        (see :func:`update_tuple`), ``signs`` the ``n`` matching
        ``+1``/``-1``.  Each node receives its whole sub-batch at once
        and processes it in tuple order, so it steps through exactly
        the states the serial path would.  Ends by patching the
        compiled form's fused leaf tables from the shadows, still
        outside any lock readers wait on.
        """
        rows = np.asarray(rows, dtype=float)
        signs = np.asarray(signs, dtype=float)
        if signs.shape[0]:
            self._stage(self.root, rows, signs, np.arange(signs.shape[0]))
            self.staged += signs.shape[0]
            form = compiled.peek(self.root)
            self._tables = None if form is None else (
                form, form.stage_scope_tables({
                    key: shadow for key, (_, shadow) in self._leaves.items()
                }),
            )

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

    def _stage(self, node, rows, signs, index):
        """Stage the tuples ``index`` (ascending, i.e. in tuple order)
        into the subtree at ``node``."""
        if isinstance(node, LeafNode):
            leaf = self._shadow_leaf(node)
            for value, sign in zip(rows[index, node.scope_index].tolist(),
                                   signs[index].tolist()):
                leaf.update(value, sign)
            return
        if isinstance(node, SumNode):
            counts = self._shadow_counts(node)
            shadow = counts.tolist()
            if node.kmeans is None:
                # Serial routing reads the live counts, which include
                # the batch's earlier tuples: route one tuple at a time.
                labels = []
                for sign in signs[index].tolist():
                    nearest = shadow.index(max(shadow))  # np.argmax
                    shadow[nearest] = max(0.0, shadow[nearest] + sign)
                    labels.append(nearest)
                labels = np.asarray(labels)
            else:
                # Nearest-center routing reads no state: one predict
                # routes the node's whole sub-batch.
                labels = node.kmeans.predict(rows[index[:, None], node.scope])
                for nearest, sign in zip(labels.tolist(),
                                         signs[index].tolist()):
                    shadow[nearest] = max(0.0, shadow[nearest] + sign)
            counts[:] = shadow
            for child_index, child in enumerate(node.children):
                routed = index[labels == child_index]
                if routed.shape[0]:
                    self._stage(child, rows, signs, routed)
            return
        if isinstance(node, ProductNode):
            for child in node.children:
                self._stage(child, rows, signs, index)
            return
        raise TypeError(f"unknown node type {type(node)!r}")

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self):
        """Publish the shadows and bump the generation once.

        The compiled form keeps its plan (sum weights re-baked) and
        swaps in the fused tables patched at the end of staging; a
        table a reader built from the pre-commit leaves meanwhile is
        dropped and rebuilds lazily.  An empty batch is a no-op (no
        mutation, no bump).  The batch is spent afterwards; stage into
        a fresh one.
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
        compiled.refresh_weights(self.root, self._tables)
        self.staged = 0
        self._sums = {}
        self._leaves = {}
        self._tables = None
