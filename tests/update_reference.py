"""The serial update reference: the ``==`` oracle of batched staging.

The paper's Algorithm 1 (Section 3.3), one tuple at a time: a tuple
goes down the tree, each sum node routes it to its nearest k-means
cluster (the count argmax when the node kept no k-means) and adjusts
that child's count, clamped at zero; each product node hands it to
every child; each leaf adjusts its histogram.  :func:`serial_update`
applies one tuple to a tree, :func:`serial_insert`/:func:`serial_delete`
one tuple to an RSPN (size bookkeeping included) and
:func:`serial_apply` a list of ``(op, table, row)`` triples to a
``DeepDB``.  Production code stages batches node by node
(:class:`repro.core.updates.TreeBatch`); this module exists so that
path is compared against an independent one, never against itself.

:func:`tree_state`/:func:`model_state` list every mutable array of a
tree or a model in post order -- the vocabulary a batch-staged model is
compared in, ``==`` (NaN equal to NaN) via :func:`assert_states_equal`.
"""

from __future__ import annotations

import numpy as np

from repro.core import compiled
from repro.core.compiled import post_order
from repro.core.leaves import BinnedLeaf, DiscreteLeaf
from repro.core.nodes import LeafNode, ProductNode, SumNode


def serial_update(root, row, sign):
    """Insert (``sign=+1``) or delete (``sign=-1``) one tuple in place.

    ``row`` is the full attribute vector indexed by scope index (NaN
    for NULL).  The tree is mutated out of band, so its compiled form
    is invalidated (one generation bump per tuple).
    """
    compiled.invalidate(root)
    _update(root, np.asarray(row, dtype=float), float(sign))


def _update(node, row, sign):
    if isinstance(node, LeafNode):
        node.update(row[node.scope_index], sign)
    elif isinstance(node, SumNode):
        if node.kmeans is None:
            nearest = int(np.argmax(node.counts))
        else:
            values = row[np.asarray(node.scope)].reshape(1, -1)
            nearest = int(node.kmeans.predict(values)[0])
        node.counts[nearest] = max(0.0, node.counts[nearest] + sign)
        node._weights = None
        _update(node.children[nearest], row, sign)
    elif isinstance(node, ProductNode):
        for child in node.children:
            _update(child, row, sign)
    else:
        raise TypeError(f"unknown node type {type(node)!r}")


def _growth(rspn):
    return 1.0 / rspn.sample_fraction if rspn.sample_fraction > 0 else 1.0


def serial_insert(rspn, row):
    """Absorb one tuple (encoded values keyed by column name)."""
    serial_update(rspn.root, rspn._row_vector(row), +1)
    rspn.sample_size += 1
    rspn.full_size += _growth(rspn)


def serial_delete(rspn, row):
    """Remove one tuple (encoded values keyed by column name)."""
    serial_update(rspn.root, rspn._row_vector(row), -1)
    growth = _growth(rspn)  # the fraction before this tuple leaves
    rspn.sample_size = max(0.0, rspn.sample_size - 1)
    rspn.full_size = max(0.0, rspn.full_size - growth)


def serial_apply(deepdb, ops):
    """Apply ``(op, table, row)`` triples to ``deepdb`` tuple by tuple."""
    for op, table, row in ops:
        for rspn, model_row in deepdb._model_rows(table, row):
            if op == "insert":
                serial_insert(rspn, model_row)
            else:
                serial_delete(rspn, model_row)


def tree_state(root):
    """Every mutable array of the tree, in post order."""
    state = []
    for node in post_order(root):
        if isinstance(node, SumNode):
            state.append(np.asarray(node.counts, dtype=float).copy())
        elif isinstance(node, DiscreteLeaf):
            state.append(np.asarray(node.values, dtype=float).copy())
            state.append(np.asarray(node.counts, dtype=float).copy())
            state.append(np.asarray([node.null_count], dtype=float))
        elif isinstance(node, BinnedLeaf):
            state.append(np.asarray(node.counts, dtype=float).copy())
            state.append(np.asarray(node.sums, dtype=float).copy())
            state.append(np.asarray([node.null_count], dtype=float))
    return state


def model_state(deepdb):
    """Every RSPN's sizes and tree state, in ensemble order."""
    state = []
    for rspn in deepdb.ensemble.rspns:
        state.append(np.asarray([rspn.full_size, rspn.sample_size]))
        state.extend(tree_state(rspn.root))
    return state


def states_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b)
    )


def assert_states_equal(a, b):
    assert states_equal(a, b)
