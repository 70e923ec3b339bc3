"""SPN node structure: sum nodes, product nodes, leaves.

Tree-structured SPNs as reviewed in Section 3.1 of the paper: sum nodes
mix row clusters, product nodes factorise independent column groups,
leaves model single attributes.  Sum nodes keep their KMeans cluster
centers and per-child row counts so Algorithm 1 can route updates and
renormalise weights.
"""

from __future__ import annotations

import numpy as np


class Node:
    """Base node; ``scope`` is the tuple of attribute indices it models."""

    def __init__(self, scope):
        self.scope = tuple(scope)

    @property
    def scope_set(self):
        return frozenset(self.scope)


class SumNode(Node):
    """Mixture over row clusters.

    ``counts[i]`` is the (possibly fractional after weighted learning)
    number of training rows routed to child ``i``; weights are derived.
    ``kmeans`` retains the clustering model used to split the rows so
    that inserted/deleted tuples can be routed to the nearest cluster.
    """

    def __init__(self, scope, children, counts, kmeans=None):
        super().__init__(scope)
        self.children = list(children)
        self.counts = np.asarray(counts, dtype=float)
        if self.counts.shape[0] != len(self.children):
            raise ValueError("one count per child required")
        self.kmeans = kmeans
        self._weights = None

    @property
    def weights(self):
        """Normalised mixture weights, cached until the counts change.

        Callers must treat the returned array as read-only.  Counts
        change only through :class:`repro.core.updates.TreeBatch`, whose
        commit swaps in new counts, resets this cache and refreshes any
        compiled form of the tree.
        """
        if self._weights is None:
            total = self.counts.sum()
            if total <= 0:
                self._weights = np.full(
                    self.counts.shape[0], 1.0 / self.counts.shape[0]
                )
            else:
                self._weights = self.counts / total
        return self._weights


class ProductNode(Node):
    """Factorisation over independent column groups (disjoint child scopes)."""

    def __init__(self, scope, children):
        super().__init__(scope)
        self.children = list(children)
        covered = [i for child in self.children for i in child.scope]
        if sorted(covered) != sorted(scope) or len(set(covered)) != len(covered):
            raise ValueError("product children must partition the scope")


class LeafNode(Node):
    """Univariate leaf; concrete distributions live in :mod:`repro.core.leaves`."""

    def __init__(self, scope_index, attribute):
        super().__init__((scope_index,))
        self.attribute = attribute

    @property
    def scope_index(self):
        return self.scope[0]


def iter_nodes(root):
    """All nodes of the tree, depth-first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (SumNode, ProductNode)):
            stack.extend(node.children)


def count_nodes(root):
    counts = {"sum": 0, "product": 0, "leaf": 0}
    for node in iter_nodes(root):
        if isinstance(node, SumNode):
            counts["sum"] += 1
        elif isinstance(node, ProductNode):
            counts["product"] += 1
        else:
            counts["leaf"] += 1
    return counts
