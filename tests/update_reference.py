"""The serial update reference: the ``==`` oracle of batched staging.

:func:`serial_apply` feeds each op's tuples one at a time through
:func:`repro.core.updates.update_tuple` (``RSPN.insert``/``delete``).
:func:`tree_state`/:func:`model_state` list every mutable array of a
tree or a model in post order -- the vocabulary a batch-staged model is
compared in, ``==`` (NaN equal to NaN) via :func:`assert_states_equal`.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import post_order
from repro.core.leaves import BinnedLeaf, DiscreteLeaf
from repro.core.nodes import SumNode


def serial_apply(deepdb, ops):
    """Apply ``(op, table, row)`` triples to ``deepdb`` tuple by tuple."""
    for op, table, row in ops:
        for rspn, model_row in deepdb._model_rows(table, row):
            if op == "insert":
                rspn.insert(model_row)
            else:
                rspn.delete(model_row)


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
