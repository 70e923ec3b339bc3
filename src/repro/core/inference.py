"""Bottom-up SPN inference for probabilities and expectations.

The evaluation primitive mirrors Section 3.2 / Figure 4 of the paper:
an *evaluation spec* assigns to some attributes a predicate
:class:`~repro.core.ranges.Range` and/or a value
:class:`~repro.core.leaves.Transform`.  Leaves return

    E[ h(X_i) * 1_{X_i in R_i} ]

product nodes multiply child results (independent scopes), sum nodes
take the weighted average.  With indicator-only specs this computes
``P(C)``; with transforms it computes the mixed expectations the
probabilistic query compiler needs, e.g. ``E[X * 1_C]`` or
``E[1/F' * 1_C * N_T]`` from Theorem 1.

Evaluation is backed by the compiled flat-array representation of
:mod:`repro.core.compiled`: :func:`evaluate_batch` lowers the tree once
(cached per root) and answers a whole batch of specs in one vectorised
bottom-up sweep, and the scalar :func:`evaluate` is a thin batch-of-one
wrapper over it.  The original recursive walk is kept as
:func:`evaluate_walk` -- it is the executable reference semantics the
property tests compare the compiled path against, and the building
block :mod:`repro.core.sampling` drives node-locally.
"""

from __future__ import annotations

from repro.core import compiled as compiled_mod
from repro.core.leaves import Transform, product_transform
from repro.core.nodes import LeafNode, ProductNode, SumNode
from repro.core.ranges import Range


class EvaluationSpec:
    """Per-attribute conditions and transforms, keyed by scope index."""

    def __init__(self):
        self.ranges: dict[int, Range] = {}
        self.transforms: dict[int, list[Transform]] = {}

    def condition(self, scope_index, rng: Range):
        existing = self.ranges.get(scope_index)
        self.ranges[scope_index] = rng if existing is None else existing.intersect(rng)
        return self

    def transform(self, scope_index, transform: Transform):
        self.transforms.setdefault(scope_index, []).append(transform)
        return self

    @property
    def touched(self):
        return set(self.ranges) | set(self.transforms)

    def leaf_arguments(self, scope_index):
        rng = self.ranges.get(scope_index)
        transforms = self.transforms.get(scope_index)
        transform = product_transform(transforms) if transforms else None
        return rng, transform

    def is_empty_selection(self):
        return any(rng.is_empty() for rng in self.ranges.values())

    def copy(self):
        duplicate = EvaluationSpec()
        duplicate.ranges = dict(self.ranges)
        duplicate.transforms = {k: list(v) for k, v in self.transforms.items()}
        return duplicate


def evaluate(node, spec: EvaluationSpec):
    """E[ prod_i h_i(X_i) * 1_{X_i in R_i} ] under the SPN distribution.

    Thin batch-of-one wrapper over :func:`evaluate_batch`.
    """
    return float(evaluate_batch(node, (spec,))[0])


def evaluate_batch(node, specs):
    """Evaluate many specs in one compiled bottom-up sweep.

    Returns an array of ``len(specs)`` floats; the compiled form of the
    tree is built (and cached) on first use.
    """
    return compiled_mod.compiled_for(node).evaluate_batch(specs)


def evaluate_walk(node, spec: EvaluationSpec):
    """Reference implementation: the recursive per-query tree walk."""
    if spec.is_empty_selection():
        return 0.0
    touched = spec.touched
    return _evaluate(node, spec, touched)


def _evaluate(node, spec, touched):
    if isinstance(node, LeafNode):
        if node.scope_index not in touched:
            return 1.0
        rng, transform = spec.leaf_arguments(node.scope_index)
        return node.evaluate(rng, transform)
    if isinstance(node, ProductNode):
        result = 1.0
        for child in node.children:
            if touched.isdisjoint(child.scope):
                continue
            result *= _evaluate(child, spec, touched)
            if result == 0.0:
                return 0.0
        return result
    if isinstance(node, SumNode):
        weights = node.weights
        return float(
            sum(
                w * _evaluate(child, spec, touched)
                for w, child in zip(weights, node.children)
            )
        )
    raise TypeError(f"unknown node type {type(node)!r}")


def probability(node, ranges: dict):
    """P(all attributes fall in their ranges); ``ranges`` keyed by scope index."""
    spec = EvaluationSpec()
    for scope_index, rng in ranges.items():
        spec.condition(scope_index, rng)
    return evaluate(node, spec)
