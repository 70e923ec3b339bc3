"""The reference sweep: the ``==`` oracle of the fused arena sweep.

A plain bottom-up evaluation of a node tree over a full
``(n_nodes, n_queries)`` matrix in post order.  Touched leaves are
filled per leaf through ``leaf.evaluate_batch``; untouched ones keep
the marginalisation identity ``1.0``.  Sum nodes accumulate
``w0*c0``, then ``+= w_p*c_p``, and product nodes take ``c0``, then
``*= c_p``, children left to right -- the same elementwise operations
in the same order as :class:`repro.core.compiled.CompiledRSPN`, so the
fused sweep must equal it bit for bit (see :mod:`repro.core.kernels`).
It needs no speed: no arena, no plan, no dedup, no scope tables.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.compiled import post_order
from repro.core.leaves import product_transform
from repro.core.modelstore import MappedRSPN
from repro.core.nodes import LeafNode, SumNode
from repro.core.rspn import RSPN


def reference_evaluate(root, specs):
    """``len(specs)`` expectations of the tree at ``root``; specs with
    an empty selection give exactly ``0.0``."""
    out = np.zeros(len(specs), dtype=float)
    live = [spec for spec in specs if not spec.is_empty_selection()]
    order = post_order(root)
    row_of = {id(node): row for row, node in enumerate(order)}
    values = np.ones((len(order), len(live)), dtype=float)
    for row, node in enumerate(order):
        if isinstance(node, LeafNode):
            scope = node.scope_index
            cols = [c for c, spec in enumerate(live)
                    if scope in spec.ranges or scope in spec.transforms]
            if cols:
                ranges = [live[c].ranges.get(scope) for c in cols]
                transforms = [live[c].transforms.get(scope) for c in cols]
                transforms = [None if t is None else product_transform(t)
                              for t in transforms]
                values[row, cols] = node.evaluate_batch(ranges, transforms)
            continue
        children = [values[row_of[id(child)]] for child in node.children]
        if isinstance(node, SumNode):
            acc = node.weights[0] * children[0]
            for weight, child in zip(node.weights[1:], children[1:]):
                acc += weight * child
        else:
            acc = children[0].copy()
            for child in children[1:]:
                acc *= child
        values[row] = acc
    out[[not spec.is_empty_selection() for spec in specs]] = values[-1]
    return out


@contextmanager
def reference_sweep():
    """Answer every RSPN expectation with :func:`reference_evaluate`
    inside the block.  A store-mapped RSPN materialises its node tree
    for it."""
    saved = RSPN.evaluate_specs, MappedRSPN.evaluate_specs

    def evaluate_specs(self, specs):
        return reference_evaluate(self.root, specs)

    RSPN.evaluate_specs = MappedRSPN.evaluate_specs = evaluate_specs
    try:
        yield
    finally:
        RSPN.evaluate_specs, MappedRSPN.evaluate_specs = saved
