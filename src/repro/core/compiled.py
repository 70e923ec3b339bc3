"""Compiled flat-array RSPN inference with batched evaluation.

The recursive tree walk of :mod:`repro.core.inference` evaluates one
:class:`~repro.core.inference.EvaluationSpec` per call, paying Python
dispatch for every node it visits.  DeepDB's runtime workload is the
opposite shape: one SQL query compiles into *several* expectation
sub-queries over the same RSPN, and a GROUP BY multiplies that by the
number of groups (Section 4 of the paper).  This module lowers the node
tree into flat NumPy arrays once and evaluates a whole batch of specs in
a single bottom-up sweep.

Lowering (:class:`CompiledRSPN`):

- Nodes are laid out in **topological (post) order** -- every child
  precedes its parent -- so one forward pass over the order is a valid
  bottom-up evaluation.  The root is the last row.
- Internal nodes are grouped by **height** (leaves = 0, parent = 1 + max
  child height), giving a level schedule where every level only reads
  rows produced by strictly lower levels.
- On top of that schedule a **fused sweep plan** (:class:`_FusedPlan`)
  is computed at compile time:

  * nodes of one (level, kind) become one *op* whose segments are
    sorted by descending child count, so the op's position-``p`` slice
    always covers a contiguous prefix of segments -- each position is
    a single gather + elementwise kernel call over contiguous rows;
  * a liveness pass register-allocates rows into a small reusable
    **arena**: a child's row is dead the moment its parent's op
    consumes it, so the values "matrix" shrinks from ``n_nodes`` rows
    to peak-live rows (``plan.arena_rows``) and is leased from a pool
    instead of reallocated per chunk;
  * each op fuses the sum-weighting multiply with the accumulate into
    pre-planned ``np.take`` / ``np.multiply`` / ``np.add`` calls, or --
    under the ``numba`` kernel (:mod:`repro.core.kernels`) -- into one
    jitted tape interpreter over the plan's flattened instruction
    stream.

- Leaves keep pointers to the live leaf objects.  Structure and
  sum-node weights are frozen at lowering, and the first sweep that
  conditions on a scope additionally bakes that scope's discrete
  histograms into a fused table (below) -- which is why
  :func:`invalidate` or :func:`refresh_weights` must be called
  whenever sum counts *or leaf histograms* change
  (:mod:`repro.core.updates` does this); both drop the tables.

Accumulation order is **pinned** (see :mod:`repro.core.kernels`): sum
and product nodes accumulate children left to right with the weight
multiply rounding before the add.  Every kernel -- the fused NumPy
executor, the numba tape, and the retained ``legacy`` full-matrix
reference sweep -- performs those same elementwise operations in the
same order, which is what makes the three bit-identical (``==``), and
what lets sharded workers (whose twins recompile the same plan from the
same post-order; checked via :meth:`CompiledRSPN.plan_signature`)
return bit-identical slices.

Batched evaluation (:meth:`CompiledRSPN.evaluate_batch`):

- Untouched leaves contribute an exact ``1.0`` (the marginalisation
  identity), so the arena's leaf block is reset to ones and only
  touched ``(leaf, query)`` entries are filled.
- The batch's ``(range, transform)`` pairs are deduplicated **once per
  scope** (every leaf row of a scope sees the same pairs), the shared
  interval flattening is computed once per scope
  (:class:`~repro.core.leaves.PreparedBatch`), and only the distinct
  pairs are evaluated; a GROUP BY over ``k`` groups touches the grouped
  column with ``k`` distinct ranges but every other predicate column
  with exactly one.
- The fill is **scope-fused**: all ``DiscreteLeaf`` rows of a touched
  scope are evaluated in one pass over a per-scope table
  (:class:`~repro.core.leaves.DiscreteScopeTable`: union value domain,
  dense count matrix, row-wise prefix sums) built lazily on the
  scope's first touch and cached on the compiled form, instead of one
  ``evaluate_batch`` call per leaf -- bit-identical to the per-leaf
  kernel, which the ``legacy`` sweep keeps using as the oracle.
  ``BinnedLeaf`` rows keep the per-leaf path.
- Large batches are evaluated in bounded-memory chunks that *reuse* one
  leased arena (no per-chunk allocation; ``arena_allocations`` counts
  pool misses).

The compiled form is cached per root in a :class:`weakref` mapping; the
owning :class:`~repro.core.rspn.RSPN` (and
:func:`repro.core.updates.update_tuple`) call :func:`invalidate` after
mutations that change sum-node weights.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref

import numpy as np

from repro.core import kernels
from repro.core.leaves import (
    BinnedLeaf,
    DiscreteLeaf,
    DiscreteScopeTable,
    PreparedBatch,
    product_transform,
    transform_dedup_key,
)
from repro.core.nodes import LeafNode, ProductNode, SumNode

# Soft cap on the size (floats) of one chunk's working set; batches are
# split into chunks of ``max(16, _CHUNK_BUDGET // rows)`` queries where
# ``rows`` is the sweep's row footprint (``n_nodes`` for the legacy
# full-matrix kernel, ``arena_rows + stage_rows`` for the fused ones --
# the arena being much smaller, fused chunks are correspondingly wider
# for the same memory budget).
_CHUNK_BUDGET = 8_000_000

# Leased (arena, stage) buffer pairs kept per compiled form for reuse
# across batches (and across concurrent serving readers).
_ARENA_POOL_CAP = 4


def _positions(starts, total):
    """Per-position index arrays for one level's segment list.

    ``starts`` are segment offsets into a flat child array of length
    ``total``.  Returns, for each child position ``p``, the segment
    indices that have a ``p``-th child and the flat offsets of those
    children -- the access pattern of the pinned left-to-right
    accumulation (the legacy kernel's replacement for ``reduceat``,
    whose intra-segment order is a SIMD implementation detail).
    """
    counts = np.diff(np.append(starts, total))
    out = []
    for p in range(int(counts.max()) if counts.size else 0):
        segs = np.flatnonzero(counts > p).astype(np.intp)
        out.append((segs, (starts[segs] + p).astype(np.intp)))
    return out


class _Level:
    """All internal nodes of one height, split by kind, as flat arrays."""

    __slots__ = (
        "sum_rows", "sum_starts", "sum_child_index", "sum_weights", "sum_pos",
        "prod_rows", "prod_starts", "prod_child_index", "prod_pos",
    )

    def __init__(self, sums, products, index_of):
        self.sum_rows = np.array([index_of[id(n)] for n in sums], dtype=np.intp)
        self.prod_rows = np.array([index_of[id(n)] for n in products], dtype=np.intp)
        sum_children, sum_starts, sum_weights = [], [], []
        for node in sums:
            sum_starts.append(len(sum_children))
            sum_children.extend(index_of[id(c)] for c in node.children)
            sum_weights.extend(node.weights)
        self.sum_starts = np.array(sum_starts, dtype=np.intp)
        self.sum_child_index = np.array(sum_children, dtype=np.intp)
        self.sum_weights = np.array(sum_weights, dtype=float)
        prod_children, prod_starts = [], []
        for node in products:
            prod_starts.append(len(prod_children))
            prod_children.extend(index_of[id(c)] for c in node.children)
        self.prod_starts = np.array(prod_starts, dtype=np.intp)
        self.prod_child_index = np.array(prod_children, dtype=np.intp)
        self.sum_pos = _positions(self.sum_starts, self.sum_child_index.shape[0])
        self.prod_pos = _positions(self.prod_starts, self.prod_child_index.shape[0])


# ----------------------------------------------------------------------
# Fused sweep plan
# ----------------------------------------------------------------------
class _SlotAllocator:
    """First-fit allocator of contiguous arena row blocks.

    ``size`` is the high-water mark -- the arena height the plan needs.
    Freed single rows are merged back into gaps so sibling levels reuse
    the rows of nodes that just died.
    """

    def __init__(self):
        self._free: list[tuple[int, int]] = []  # sorted disjoint [start, end)
        self.size = 0

    def alloc(self, k):
        for i, (start, end) in enumerate(self._free):
            if end - start >= k:
                if end - start == k:
                    self._free.pop(i)
                else:
                    self._free[i] = (start + k, end)
                return start
        start = self.size
        self.size += k
        return start

    def release(self, slot):
        import bisect

        start, end = slot, slot + 1
        i = bisect.bisect_left(self._free, (start, start))
        if i > 0 and self._free[i - 1][1] == start:
            start = self._free[i - 1][0]
            self._free.pop(i - 1)
            i -= 1
        if i < len(self._free) and self._free[i][0] == end:
            end = self._free[i][1]
            self._free.pop(i)
        self._free.insert(i, (start, end))


class _FusedOp:
    """One fused kernel call: all same-kind nodes of one level.

    Segments (nodes) are sorted by descending child count, so position
    ``p`` covers segments ``[0, len(pos_slots[p]))`` -- a contiguous
    prefix of the op's destination block ``[dst_lo, dst_lo + n_seg)``.
    ``pos_slots[p]`` holds the arena rows of every segment's ``p``-th
    child; for sum ops ``pos_weights[p]`` holds the matching mixture
    weights as a ``(k, 1)`` column.
    """

    __slots__ = ("is_sum", "dst_lo", "n_seg", "pos_slots", "pos_weights")

    def __init__(self, is_sum, dst_lo, n_seg, pos_slots, pos_weights):
        self.is_sum = is_sum
        self.dst_lo = dst_lo
        self.n_seg = n_seg
        self.pos_slots = pos_slots
        self.pos_weights = pos_weights


class _FusedPlan:
    """The compile-time sweep plan: ops over a liveness-sized arena.

    Derived deterministically from the tree's post-order alone, so a
    sharded worker that recompiles an imported twin
    (:func:`import_tree_arrays` preserves post-order) produces the
    *same* plan -- asserted end-to-end via :meth:`signature`.
    """

    __slots__ = (
        "arena_rows", "stage_rows", "root_slot", "n_leaves",
        "leaf_slots_by_scope", "leaf_slot_of_row", "ops", "op_nodes",
        "_tape", "_signature", "_scope_slots",
    )

    def __init__(self, order, index_of, heights, root_row):
        self._scope_slots = None
        alloc = _SlotAllocator()
        slot_of: dict[int, int] = {}
        leaf_rows = []
        for i, node in enumerate(order):
            if isinstance(node, LeafNode):
                slot_of[i] = alloc.alloc(1)
                leaf_rows.append(i)
        self.n_leaves = len(leaf_rows)
        # Allocated from an empty free list, leaves land in arena rows
        # 0..n_leaves-1 in post order; the per-chunk reset to the
        # marginalisation identity is one contiguous fill.
        self.leaf_slot_of_row = dict(zip(leaf_rows, range(self.n_leaves)))
        by_scope: dict[int, list] = {}
        for row in leaf_rows:
            leaf = order[row]
            by_scope.setdefault(leaf.scope_index, []).append(
                (self.leaf_slot_of_row[row], leaf)
            )
        self.leaf_slots_by_scope = {
            scope: tuple(entries) for scope, entries in by_scope.items()
        }

        self.ops = []
        # Per-op node back-references in segment order (sum ops only;
        # None for products): what refresh_weights() walks to re-bake
        # pos_weights after a batch of count mutations without a full
        # replan.  Tape-restored plans have no nodes (op_nodes is None
        # there) and fall back to a full recompile.
        self.op_nodes = []
        max_height = max(heights) if heights else 0
        n = len(order)
        for height in range(1, max_height + 1):
            for node_type in (ProductNode, SumNode):
                group = [
                    (i, order[i]) for i in range(n)
                    if heights[i] == height and type(order[i]) is node_type
                ]
                if not group:
                    continue
                # Stable sort by descending child count: positions are
                # prefixes, ties keep post order (determinism).
                segs = sorted(group, key=lambda entry: -len(entry[1].children))
                n_seg = len(segs)
                # Destination block allocated while every child is still
                # live, so it can never alias a row the op reads.
                dst_lo = alloc.alloc(n_seg)
                is_sum = node_type is SumNode
                max_children = len(segs[0][1].children)
                pos_slots, pos_weights = [], []
                for p in range(max_children):
                    k = 0
                    while k < n_seg and len(segs[k][1].children) > p:
                        k += 1
                    slots = np.array(
                        [
                            slot_of[index_of[id(segs[s][1].children[p])]]
                            for s in range(k)
                        ],
                        dtype=np.intp,
                    )
                    pos_slots.append(slots)
                    if is_sum:
                        weights = np.array(
                            [float(segs[s][1].weights[p]) for s in range(k)],
                            dtype=float,
                        )
                        pos_weights.append(weights[:, None])
                    else:
                        pos_weights.append(None)
                for s, (row, node) in enumerate(segs):
                    for child in node.children:
                        child_slot = slot_of.pop(index_of[id(child)], None)
                        if child_slot is not None:  # strict trees only
                            alloc.release(child_slot)
                    slot_of[row] = dst_lo + s
                self.ops.append(
                    _FusedOp(is_sum, dst_lo, n_seg, pos_slots, pos_weights)
                )
                self.op_nodes.append(
                    [node for _, node in segs] if is_sum else None
                )
        self.root_slot = slot_of[root_row]
        self.arena_rows = max(alloc.size, 1)
        self.stage_rows = max((op.n_seg for op in self.ops), default=1)
        self._tape = None
        self._signature = None

    @classmethod
    def from_tape(cls, tape, scalars, leaf_slots_by_scope, scope_slots):
        """Restore a plan from its persisted tape -- no allocator pass.

        ``tape`` is the 7-tuple :meth:`tape` produces (typically
        read-only views into a model store mapping), ``scalars`` the
        dict the store's writer saved from this plan's attributes.
        Rebuilding the numpy-kernel ops is pure slicing of the tape
        arrays -- O(ops + positions), not O(nodes) -- which is what
        makes a store cold start independent of model size.
        ``scope_slots`` supplies the sorted ``(scope, [slots])`` items
        :meth:`signature` hashes -- either the list itself or a
        zero-argument callable producing it on first use -- so the
        restored plan's digest can be computed (and compared against
        the saved one) without instantiating a single leaf object.
        """
        plan = object.__new__(cls)
        plan.arena_rows = int(scalars["arena_rows"])
        plan.stage_rows = int(scalars["stage_rows"])
        plan.root_slot = int(scalars["root_slot"])
        plan.n_leaves = int(scalars["n_leaves"])
        plan.leaf_slots_by_scope = leaf_slots_by_scope
        # Leaf slots are post-order ranks by construction; the dict is
        # only used while *building* a plan, so the restored form keeps
        # the invariant implicitly.
        plan.leaf_slot_of_row = None
        op_is_sum, op_dst, op_pos_off, pos_count, pos_child_off, \
            child_slots, weights = tape
        plan.ops = []
        for o in range(op_is_sum.shape[0]):
            is_sum = bool(op_is_sum[o])
            p0, p1 = int(op_pos_off[o]), int(op_pos_off[o + 1])
            pos_slots, pos_weights = [], []
            for p in range(p0, p1):
                c0, c1 = int(pos_child_off[p]), int(pos_child_off[p + 1])
                pos_slots.append(child_slots[c0:c1])
                pos_weights.append(weights[c0:c1][:, None] if is_sum else None)
            # Segments are sorted by descending child count, so the
            # first position covers every segment of the op.
            n_seg = int(pos_count[p0]) if p1 > p0 else 0
            plan.ops.append(
                _FusedOp(is_sum, int(op_dst[o]), n_seg, pos_slots, pos_weights)
            )
        plan.op_nodes = None
        plan._tape = tuple(tape)
        plan._signature = None
        plan._scope_slots = scope_slots
        return plan

    def refresh_weights(self):
        """Re-bake ``pos_weights`` from the live sum nodes.

        The in-place analogue of a replan after sum-count mutations:
        topology, slots and the liveness allocation are functions of
        structure alone (which updates never change), so only the baked
        weight columns -- and the cached tape/signature derived from
        them -- go stale.  Returns ``False`` for tape-restored plans
        (no node back-references; the caller must recompile).
        """
        if self.op_nodes is None:
            return False
        for op, nodes in zip(self.ops, self.op_nodes):
            if not op.is_sum:
                continue
            for p in range(len(op.pos_slots)):
                k = op.pos_slots[p].shape[0]
                weights = np.array(
                    [float(nodes[s].weights[p]) for s in range(k)],
                    dtype=float,
                )
                op.pos_weights[p] = weights[:, None]
        self._tape = None
        self._signature = None
        return True

    def tape(self):
        """The plan flattened into the numba tape interpreter's arrays."""
        if self._tape is None:
            op_is_sum, op_dst, op_pos_off = [], [], [0]
            pos_count, pos_child_off = [], [0]
            child_slots: list[int] = []
            weights: list[float] = []
            for op in self.ops:
                op_is_sum.append(1 if op.is_sum else 0)
                op_dst.append(op.dst_lo)
                for p, slots in enumerate(op.pos_slots):
                    pos_count.append(slots.shape[0])
                    child_slots.extend(int(s) for s in slots)
                    if op.is_sum:
                        weights.extend(float(w) for w in op.pos_weights[p].ravel())
                    else:
                        weights.extend(0.0 for _ in range(slots.shape[0]))
                    pos_child_off.append(len(child_slots))
                op_pos_off.append(len(pos_count))
            self._tape = (
                np.asarray(op_is_sum, dtype=np.int8),
                np.asarray(op_dst, dtype=np.int64),
                np.asarray(op_pos_off, dtype=np.int64),
                np.asarray(pos_count, dtype=np.int64),
                np.asarray(pos_child_off, dtype=np.int64),
                np.asarray(child_slots, dtype=np.int64),
                np.asarray(weights, dtype=np.float64),
            )
        return self._tape

    def signature(self) -> str:
        """A stable digest of the whole plan (ops, slots, weights bits).

        Equal signatures mean bit-identical sweeps for the same leaf
        values; the sharded evaluator ships the parent's signature with
        the tree so workers can verify their recompiled plan matches.
        """
        if self._signature is None:
            digest = hashlib.sha1()
            digest.update(
                np.asarray(
                    [self.arena_rows, self.stage_rows, self.root_slot,
                     self.n_leaves],
                    dtype=np.int64,
                ).tobytes()
            )
            if self._scope_slots is not None:
                if callable(self._scope_slots):
                    self._scope_slots = self._scope_slots()
                slot_items = self._scope_slots
            else:
                slot_items = [
                    (scope,
                     [slot for slot, _ in self.leaf_slots_by_scope[scope]])
                    for scope in sorted(self.leaf_slots_by_scope)
                ]
            for scope, slots in slot_items:
                digest.update(
                    np.asarray([scope, *slots], dtype=np.int64).tobytes()
                )
            for array in self.tape():
                digest.update(array.tobytes())
            self._signature = digest.hexdigest()
        return self._signature


class CompiledRSPN:
    """A node tree lowered to topologically-ordered flat arrays."""

    def __init__(self, root):
        order = _post_order(root)
        index_of = {id(node): i for i, node in enumerate(order)}
        self.n_nodes = len(order)
        self.root_row = index_of[id(root)]
        # Root generation this form was lowered at; maintained by
        # :func:`compiled_for` for its staleness check.
        self.generation = 0
        # Weak back-reference to the live tree: the sharded evaluator
        # needs the root (to serialize it for worker processes) and must
        # not keep it alive past its owner.
        self.root_ref = weakref.ref(root)

        heights = [0] * self.n_nodes
        for i, node in enumerate(order):
            if isinstance(node, (SumNode, ProductNode)):
                heights[i] = 1 + max(heights[index_of[id(c)]] for c in node.children)

        self._leaf_at = {
            i: node for i, node in enumerate(order) if isinstance(node, LeafNode)
        }
        self.leaf_rows_by_scope: dict[int, tuple] = {}
        for row, leaf in self._leaf_at.items():
            self.leaf_rows_by_scope.setdefault(leaf.scope_index, []).append(row)
        self.leaf_rows_by_scope = {
            scope: tuple(rows) for scope, rows in self.leaf_rows_by_scope.items()
        }

        max_height = max(heights) if heights else 0
        self.levels = []
        # Per-level sum-node lists (same order _Level bakes sum_weights
        # in), kept so refresh_weights() can re-bake the legacy sweep's
        # weight arrays without re-lowering.
        self._level_sums = []
        for height in range(1, max_height + 1):
            sums = [
                order[i] for i in range(self.n_nodes)
                if heights[i] == height and isinstance(order[i], SumNode)
            ]
            products = [
                order[i] for i in range(self.n_nodes)
                if heights[i] == height and isinstance(order[i], ProductNode)
            ]
            self.levels.append(_Level(sums, products, index_of))
            self._level_sums.append(sums)

        self.plan = _FusedPlan(order, index_of, heights, self.root_row)

        self._scope_tables: dict = {}
        # Arena pool + sweep telemetry (kernel_stats / serving /stats).
        self._pool_lock = threading.Lock()
        self._arena_pool: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.arena_allocations = 0
        self.sweep_count = 0
        self.sweep_ns = 0
        self.sweep_queries = 0

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(self, specs, executor=None):
        """Evaluate a batch of :class:`EvaluationSpec`-like objects.

        Returns an array of ``len(specs)`` values
        ``E[ prod_i h_i(X_i) * 1_{X_i in R_i} ]``, one per spec; specs
        with an empty selection evaluate to exactly ``0.0``.

        ``executor`` plugs in a batch executor such as
        :class:`repro.core.sharding.ShardedEvaluator`: batches of at
        least its ``min_shard_size`` are split into per-worker column
        slices and evaluated by worker processes (per-query columns are
        independent, so sharding is bit-identical to this serial
        sweep).  ``None`` -- and any executor failure, which falls back
        internally -- evaluates in-process.

        The executing kernel is the process-wide knob of
        :mod:`repro.core.kernels`; all kernels are bit-identical.
        """
        if executor is not None and executor.should_shard(len(specs)):
            return executor.evaluate_batch(self, specs)
        results = np.zeros(len(specs), dtype=float)
        live = [
            (col, spec)
            for col, spec in enumerate(specs)
            if not spec.is_empty_selection()
        ]
        if not live:
            return results
        kernel = kernels.resolve()
        if kernel == "legacy":
            chunk = max(16, _CHUNK_BUDGET // max(self.n_nodes, 1))
            for start in range(0, len(live), chunk):
                part = live[start:start + chunk]
                values = self._sweep_legacy([spec for _, spec in part])
                results[[col for col, _ in part]] = values
            return results
        rows = self.plan.arena_rows + self.plan.stage_rows
        chunk = max(16, _CHUNK_BUDGET // max(rows, 1))
        width = min(chunk, len(live))
        arena, stage = self._lease(width)
        try:
            for start in range(0, len(live), chunk):
                part = live[start:start + chunk]
                values = self._sweep_fused(
                    [spec for _, spec in part], arena, stage, kernel
                )
                results[[col for col, _ in part]] = values
        finally:
            self._release(width, arena, stage)
        return results

    def evaluate(self, spec):
        """Scalar evaluation as a batch of one."""
        return float(self.evaluate_batch([spec])[0])

    def _sweep_fused(self, specs, arena, stage, kernel):
        """One arena sweep over the fused plan; returns the root row.

        The arena may be wider than ``len(specs)`` (a reused lease whose
        trailing columns belong to a previous, larger chunk): kernels
        always sweep the full width -- the leaf block is reset to the
        all-ones marginalisation identity across it, so spare columns
        compute a harmless (and discarded) full marginal.
        """
        started = time.perf_counter_ns()
        n_queries = len(specs)
        plan = self.plan
        arena[: plan.n_leaves].fill(1.0)
        self._fill_leaves(arena, specs)
        if kernel == "numba":
            kernels.pick(kernels.sweep_tape, kernels.sweep_tape_py)(
                arena, *plan.tape()
            )
        else:
            for op in plan.ops:
                dst = arena[op.dst_lo: op.dst_lo + op.n_seg]
                if op.is_sum:
                    for p, slots in enumerate(op.pos_slots):
                        k = slots.shape[0]
                        buf = stage[:k]
                        np.take(arena, slots, axis=0, out=buf)
                        if p == 0:
                            np.multiply(buf, op.pos_weights[0], out=dst)
                        else:
                            np.multiply(buf, op.pos_weights[p], out=buf)
                            np.add(dst[:k], buf, out=dst[:k])
                else:
                    for p, slots in enumerate(op.pos_slots):
                        k = slots.shape[0]
                        buf = stage[:k]
                        np.take(arena, slots, axis=0, out=buf)
                        if p == 0:
                            np.copyto(dst, buf)
                        else:
                            np.multiply(dst[:k], buf, out=dst[:k])
        out = arena[plan.root_slot, :n_queries].copy()
        self.sweep_count += 1
        self.sweep_queries += n_queries
        self.sweep_ns += time.perf_counter_ns() - started
        return out

    def _sweep_legacy(self, specs):
        """The pre-fusion reference sweep: full ``(n_nodes, n_queries)``
        matrix, per-leaf-row fills, per-level gathers -- with the same
        pinned left-to-right accumulation as the fused kernels, so it
        stays bit-identical while remaining the memory/speed baseline
        the kernel bench compares against."""
        started = time.perf_counter_ns()
        n_queries = len(specs)
        values = np.ones((self.n_nodes, n_queries), dtype=float)
        for row, qcols in self._touched_leaves(specs).items():
            self._fill_leaf_row(values, row, qcols, specs)
        for level in self.levels:
            if level.prod_rows.size:
                segs0, flat0 = level.prod_pos[0]
                out = values[level.prod_child_index[flat0]]
                for segs, flat in level.prod_pos[1:]:
                    out[segs] *= values[level.prod_child_index[flat]]
                values[level.prod_rows] = out
            if level.sum_rows.size:
                segs0, flat0 = level.sum_pos[0]
                out = (
                    values[level.sum_child_index[flat0]]
                    * level.sum_weights[flat0][:, None]
                )
                for segs, flat in level.sum_pos[1:]:
                    out[segs] += (
                        values[level.sum_child_index[flat]]
                        * level.sum_weights[flat][:, None]
                    )
                values[level.sum_rows] = out
        result = values[self.root_row]
        self.sweep_count += 1
        self.sweep_queries += n_queries
        self.sweep_ns += time.perf_counter_ns() - started
        return result

    # ------------------------------------------------------------------
    # Leaf filling
    # ------------------------------------------------------------------
    def _touched_scopes(self, specs):
        """Map ``scope_index -> [query column, ...]`` needing leaf fills."""
        pending: dict[int, list[int]] = {}
        by_scope = self.plan.leaf_slots_by_scope
        for qcol, spec in enumerate(specs):
            for scope_index in set(spec.ranges) | set(spec.transforms):
                if scope_index in by_scope:
                    pending.setdefault(scope_index, []).append(qcol)
        return pending

    def _fill_leaves(self, arena, specs):
        """Fill every touched leaf row of the arena.

        The ``(range, transform)`` dedup runs **once per scope** -- all
        leaf rows of a scope see identical pairs, the legacy per-row
        dedup recomputed (and re-hashed) them for every row -- and the
        flattened interval arrays are shared across the scope's rows
        via :class:`~repro.core.leaves.PreparedBatch`.  The scope's
        ``DiscreteLeaf`` rows are then filled in one pass by its fused
        :class:`~repro.core.leaves.DiscreteScopeTable`; other leaf
        kinds evaluate per leaf.
        """
        for scope_index, qcols in self._touched_scopes(specs).items():
            slots_map: dict = {}
            composed: dict = {}
            ranges, transforms = [], []
            assign = np.empty(len(qcols), dtype=np.intp)
            for k, qcol in enumerate(qcols):
                spec = specs[qcol]
                rng = spec.ranges.get(scope_index)
                transform_list = spec.transforms.get(scope_index)
                transform_key = (
                    tuple(transform_dedup_key(t) for t in transform_list)
                    if transform_list else None
                )
                key = (rng, transform_key)
                slot = slots_map.get(key)
                if slot is None:
                    slot = len(ranges)
                    slots_map[key] = slot
                    ranges.append(rng)
                    if transform_list is None:
                        transforms.append(None)
                    else:
                        transform = composed.get(transform_key)
                        if transform is None:
                            transform = product_transform(transform_list)
                            composed[transform_key] = transform
                        transforms.append(transform)
                assign[k] = slot
            prepared = PreparedBatch(ranges, transforms)
            cols = np.asarray(qcols, dtype=np.intp)
            table, per_leaf = self._scope_table(scope_index)
            if table is not None:
                arena[table.slots[:, None], cols] = (
                    table.evaluate(prepared)[:, assign]
                )
            for leaf_slot, leaf in per_leaf:
                batch = getattr(leaf, "evaluate_batch", None)
                if batch is not None:
                    try:
                        distinct = np.asarray(
                            batch(ranges, transforms, prepared=prepared),
                            dtype=float,
                        )
                    except TypeError:  # a leaf predating the prepared API
                        distinct = np.asarray(batch(ranges, transforms), dtype=float)
                else:  # generic leaf without a vectorised kernel
                    distinct = np.array(
                        [leaf.evaluate(r, t) for r, t in zip(ranges, transforms)],
                        dtype=float,
                    )
                arena[leaf_slot, cols] = distinct[assign]

    def _scope_table(self, scope_index):
        """``(table, per_leaf)`` for one scope: the fused
        :class:`~repro.core.leaves.DiscreteScopeTable` over its
        ``DiscreteLeaf`` rows (``None`` when it has none) and the
        ``(slot, leaf)`` entries of every other leaf kind, which keep
        the per-leaf fill.  Built on the first query that conditions on
        the scope -- never at load, start-up or learn -- and dropped by
        :meth:`drop_scope_tables`."""
        cached = self._scope_tables.get(scope_index)
        if cached is None:
            entries = self.plan.leaf_slots_by_scope[scope_index]
            fused = [e for e in entries if type(e[1]) is DiscreteLeaf]
            per_leaf = tuple(e for e in entries if type(e[1]) is not DiscreteLeaf)
            cached = (DiscreteScopeTable(fused) if fused else None, per_leaf)
            self._scope_tables[scope_index] = cached
        return cached

    def drop_scope_tables(self):
        """Forget the fused leaf tables: they bake leaf histograms, so
        every mutation path calls this before the next sweep."""
        self._scope_tables = {}

    def _touched_leaves(self, specs):
        """Map ``row -> [query column, ...]`` of leaf entries to fill."""
        pending: dict[int, list[int]] = {}
        for qcol, spec in enumerate(specs):
            for scope_index in set(spec.ranges) | set(spec.transforms):
                for row in self.leaf_rows_by_scope.get(scope_index, ()):
                    pending.setdefault(row, []).append(qcol)
        return pending

    def _fill_leaf_row(self, values, row, qcols, specs):
        """Deduplicate the specs hitting one leaf and evaluate them
        (the legacy kernel's per-row fill)."""
        leaf = self._leaf_at[row]
        scope = leaf.scope_index
        slots: dict = {}
        composed: dict = {}  # share one composed transform per key-tuple
        ranges, transforms = [], []
        assign = np.empty(len(qcols), dtype=np.intp)
        for k, qcol in enumerate(qcols):
            spec = specs[qcol]
            rng = spec.ranges.get(scope)
            transform_list = spec.transforms.get(scope)
            # Key on the well-known label where the transform IS the
            # registered singleton (labels are str, ids are int -- the
            # key spaces cannot collide): equal well-known transforms
            # always share a dedup slot, ad-hoc ones stay id-keyed.
            transform_key = (
                tuple(transform_dedup_key(t) for t in transform_list)
                if transform_list else None
            )
            key = (rng, transform_key)
            slot = slots.get(key)
            if slot is None:
                slot = len(ranges)
                slots[key] = slot
                ranges.append(rng)
                if transform_list is None:
                    transforms.append(None)
                else:
                    transform = composed.get(transform_key)
                    if transform is None:
                        transform = product_transform(transform_list)
                        composed[transform_key] = transform
                    transforms.append(transform)
            assign[k] = slot
        batch = getattr(leaf, "evaluate_batch", None)
        if batch is not None:
            distinct = np.asarray(batch(ranges, transforms), dtype=float)
        else:  # generic leaf without a vectorised kernel
            distinct = np.array(
                [leaf.evaluate(r, t) for r, t in zip(ranges, transforms)],
                dtype=float,
            )
        values[row, qcols] = distinct[assign]

    # ------------------------------------------------------------------
    # Arena pool
    # ------------------------------------------------------------------
    def _lease(self, width):
        """A (arena, stage) buffer pair for sweeps of ``width`` columns.

        Reused across chunks, batches and concurrent readers (each
        lease is exclusive); a pool miss allocates fresh buffers and
        bumps ``arena_allocations`` -- the no-new-large-allocations
        tests pin that steady-state evaluation stops allocating.
        """
        with self._pool_lock:
            for i, (w, arena, stage) in enumerate(self._arena_pool):
                if w == width:
                    self._arena_pool.pop(i)
                    return arena, stage
            self.arena_allocations += 1
        arena = np.empty((self.plan.arena_rows, width), dtype=float)
        stage = np.empty((self.plan.stage_rows, width), dtype=float)
        return arena, stage

    def _release(self, width, arena, stage):
        with self._pool_lock:
            if len(self._arena_pool) < _ARENA_POOL_CAP:
                self._arena_pool.append((width, arena, stage))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def plan_signature(self) -> str:
        """Digest of the fused plan; see :meth:`_FusedPlan.signature`."""
        return self.plan.signature()

    def refresh_weights(self):
        """Re-bake every baked sum-weight array from the live nodes.

        The incremental-invalidation fast path: after a batch of count
        mutations the structure, slots and leaf wiring of this form are
        all still exact -- only the frozen mixture weights (fused-plan
        ``pos_weights`` and the legacy levels' ``sum_weights``) drifted.
        Patching them in place is O(sum nodes) instead of the O(nodes)
        re-lowering ``compiled_for`` would do.  Returns ``False`` when
        this form has no node back-references (tape-restored mapped
        forms): the caller falls back to a full recompile.
        """
        self.drop_scope_tables()  # leaf payloads moved with the counts
        level_sums = getattr(self, "_level_sums", None)
        if level_sums is None or not self.plan.refresh_weights():
            return False
        for level, sums in zip(self.levels, level_sums):
            if not sums:
                continue
            weights: list[float] = []
            for node in sums:
                weights.extend(node.weights)
            level.sum_weights = np.array(weights, dtype=float)
        return True

    def kernel_stats(self) -> dict:
        """Kernel + sweep telemetry for benches and serving ``/stats``."""
        with self._pool_lock:
            allocations = self.arena_allocations
            pooled = len(self._arena_pool)
        queries = self.sweep_queries
        tables = [
            table for table, _ in list(self._scope_tables.values())
            if table is not None
        ]
        return {
            **kernels.describe(),
            "n_nodes": self.n_nodes,
            "arena_rows": self.plan.arena_rows,
            "stage_rows": self.plan.stage_rows,
            "arena_bytes_per_column": 8 * (self.plan.arena_rows + self.plan.stage_rows),
            "legacy_bytes_per_column": 8 * self.n_nodes,
            "arena_allocations": allocations,
            "arena_pooled": pooled,
            "scope_tables": len(tables),
            "scope_table_bytes": sum(table.nbytes for table in tables),
            "sweeps": self.sweep_count,
            "sweep_queries": queries,
            "sweep_ns_total": self.sweep_ns,
            "sweep_ns_per_query": (self.sweep_ns / queries) if queries else None,
        }


def _post_order(root):
    """Iterative post-order: children always precede their parent."""
    order, stack = [], [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or isinstance(node, LeafNode):
            order.append(node)
            continue
        stack.append((node, True))
        for child in node.children:
            stack.append((child, False))
    return order


# ----------------------------------------------------------------------
# Flat-array export / import (shared-memory tree transport)
# ----------------------------------------------------------------------
# A node tree lowered to plain arrays plus a small JSON-able structure
# header, so the sharded evaluator can publish the whole model into one
# shared-memory segment and workers can rebuild an evaluation twin whose
# leaf histograms are zero-copy views into the externally-owned buffer.
# Only what evaluation needs is exported: node kinds, child topology,
# sum-node counts (weights are derived exactly as the live tree derives
# them) and the leaf payload arrays.  Update-only state (KMeans routing
# models, FD dictionaries) stays behind -- imported trees are read-only
# evaluation twins, which is all a sharding worker ever runs.
#
# The fused sweep plan itself is NOT exported: it is a pure function of
# the post order, which export/import preserve exactly, so the worker's
# recompiled plan is identical (the transport ships the parent's
# ``plan_signature`` and the worker verifies the match).

_KIND_SUM, _KIND_PRODUCT, _KIND_DISCRETE, _KIND_BINNED = 0, 1, 2, 3


def _build_leaf(kind, scope_index, attribute, offset, n, leaf_data):
    """One histogram leaf over views into a flat payload array."""
    if kind == _KIND_DISCRETE:
        return DiscreteLeaf(
            scope_index,
            attribute,
            leaf_data[offset:offset + n],
            leaf_data[offset + n:offset + 2 * n],
            float(leaf_data[offset + 2 * n]),
        )
    if kind == _KIND_BINNED:
        edges_end = offset + n + 1
        return BinnedLeaf(
            scope_index,
            attribute,
            leaf_data[offset:edges_end],
            leaf_data[edges_end:edges_end + n],
            leaf_data[edges_end + n:edges_end + 2 * n],
            leaf_data[edges_end + 2 * n:edges_end + 3 * n],
            float(leaf_data[edges_end + 3 * n]),
        )
    raise ValueError(f"unknown leaf kind {kind}")


def export_tree_arrays(root):
    """Lower a node tree to ``(meta, arrays)`` for an external buffer.

    ``arrays`` values are flat NumPy arrays (shippable through the
    segment codec of :mod:`repro.core.specpack`); ``meta`` carries the
    structure header (root row, per-leaf attribute names and payload
    offsets) plus the compiled form's ``plan_signature``.  All float
    payloads travel as raw float64 bytes, so :func:`import_tree_arrays`
    reproduces evaluation bit-for-bit.
    """
    order = _post_order(root)
    index_of = {id(node): i for i, node in enumerate(order)}
    kinds = np.empty(len(order), dtype=np.int8)
    leaf_scope = np.full(len(order), -1, dtype=np.int64)
    child_offsets = [0]
    child_index: list[int] = []
    child_counts: list[float] = []
    leaf_meta = []
    leaf_chunks: list[np.ndarray] = []
    leaf_offset = 0
    for i, node in enumerate(order):
        if isinstance(node, SumNode):
            kinds[i] = _KIND_SUM
            child_index.extend(index_of[id(c)] for c in node.children)
            child_counts.extend(np.asarray(node.counts, dtype=float))
        elif isinstance(node, ProductNode):
            kinds[i] = _KIND_PRODUCT
            child_index.extend(index_of[id(c)] for c in node.children)
            child_counts.extend(0.0 for _ in node.children)
        elif isinstance(node, DiscreteLeaf):
            kinds[i] = _KIND_DISCRETE
            leaf_scope[i] = node.scope_index
            payload = [
                np.asarray(node.values, dtype=np.float64),
                np.asarray(node.counts, dtype=np.float64),
                np.asarray([node.null_count], dtype=np.float64),
            ]
            leaf_meta.append(
                {
                    "row": i,
                    "attribute": node.attribute,
                    "offset": leaf_offset,
                    "n": int(node.values.shape[0]),
                }
            )
            leaf_chunks.extend(payload)
            leaf_offset += sum(chunk.shape[0] for chunk in payload)
        elif isinstance(node, BinnedLeaf):
            kinds[i] = _KIND_BINNED
            leaf_scope[i] = node.scope_index
            payload = [
                np.asarray(node.edges, dtype=np.float64),
                np.asarray(node.counts, dtype=np.float64),
                np.asarray(node.sums, dtype=np.float64),
                np.asarray(node.distinct, dtype=np.float64),
                np.asarray([node.null_count], dtype=np.float64),
            ]
            leaf_meta.append(
                {
                    "row": i,
                    "attribute": node.attribute,
                    "offset": leaf_offset,
                    "n": int(node.counts.shape[0]),
                }
            )
            leaf_chunks.extend(payload)
            leaf_offset += sum(chunk.shape[0] for chunk in payload)
        else:
            raise TypeError(
                f"cannot export {type(node).__name__}: only sum/product "
                "nodes and the histogram leaves have a flat-array form"
            )
        child_offsets.append(len(child_index))
    meta = {
        "kind": "rspn-tree",
        "root_row": index_of[id(root)],
        "leaves": leaf_meta,
        # The worker recompiles the plan from the (preserved) post
        # order; shipping the parent's digest lets it prove the plans
        # match before answering (plan drift -> error -> serial
        # fallback, never a wrong answer).
        "plan_signature": compiled_for(root).plan_signature(),
    }
    arrays = {
        "kinds": kinds,
        "leaf_scope": leaf_scope,
        "child_offsets": np.asarray(child_offsets, dtype=np.int64),
        "child_index": np.asarray(child_index, dtype=np.int64),
        "child_counts": np.asarray(child_counts, dtype=np.float64),
        "leaf_data": (
            np.concatenate(leaf_chunks)
            if leaf_chunks else np.empty(0, dtype=np.float64)
        ),
    }
    return meta, arrays


def import_tree_arrays(meta, arrays):
    """Rebuild an evaluation twin from :func:`export_tree_arrays` output.

    Leaf histogram arrays are **views into the caller's buffer** -- no
    copies -- so the buffer (e.g. an attached shared-memory segment)
    must outlive the returned tree.  The twin evaluates bit-identically
    to the exported tree (post order, and therefore the fused sweep
    plan, are preserved exactly); it is read-only (no KMeans routing
    state), so never route updates at it.
    """
    kinds = arrays["kinds"]
    leaf_scope = arrays["leaf_scope"]
    child_offsets = arrays["child_offsets"]
    child_index = arrays["child_index"]
    child_counts = arrays["child_counts"]
    leaf_data = arrays["leaf_data"]
    leaf_meta = {entry["row"]: entry for entry in meta["leaves"]}
    nodes: list = [None] * len(kinds)
    for i in range(len(kinds)):
        kind = int(kinds[i])
        if kind in (_KIND_SUM, _KIND_PRODUCT):
            a, b = int(child_offsets[i]), int(child_offsets[i + 1])
            children = [nodes[int(j)] for j in child_index[a:b]]
            scope = tuple(sorted({s for c in children for s in c.scope}))
            if kind == _KIND_SUM:
                nodes[i] = SumNode(scope, children, child_counts[a:b])
            else:
                nodes[i] = ProductNode(scope, children)
            continue
        entry = leaf_meta[i]
        nodes[i] = _build_leaf(
            kind,
            int(leaf_scope[i]),
            entry["attribute"],
            int(entry["offset"]),
            int(entry["n"]),
            leaf_data,
        )
    return nodes[int(meta["root_row"])]


# Per-root ``id(node) -> post-order row`` maps.  Updates never change
# structure, so the map stays valid for the life of the tree; keyed
# weakly by root so it dies with its owner (the root keeps every node
# alive, so the stored ids cannot be recycled while the entry lives).
_ROW_INDEX: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def row_index(root) -> dict:
    """Cached ``id(node) -> post-order row`` map of a tree.

    The batch applier (:mod:`repro.core.updates`) uses it to name the
    nodes it touched by their canonical rows, which is the vocabulary
    :func:`export_tree_delta` and the shard transport speak.
    """
    index = _ROW_INDEX.get(root)
    if index is None:
        index = {
            id(node): i for i, node in enumerate(_post_order(root))
        }
        _ROW_INDEX[root] = index
    return index


def export_tree_delta(root, sum_rows, leaf_rows, from_generation,
                      to_generation):
    """Lower the *touched* rows of a tree to a ``(meta, arrays)`` patch.

    The delta is **absolute state, not diffs**: for every touched sum
    row it carries the full current counts array, for every touched
    leaf row the full current payload (same per-kind layout as
    :func:`export_tree_arrays`).  Applying it therefore lands any twin
    whose *untouched* rows match the base state exactly on
    ``to_generation`` -- workers lagging at any generation in
    ``[from_generation, to_generation)`` patch with the same blob.
    ``meta`` ships the parent's post-refresh ``plan_signature`` so the
    patched worker can prove its re-baked plan matches.
    """
    order = _post_order(root)
    sum_rows = sorted(int(row) for row in set(sum_rows))
    leaf_rows = sorted(int(row) for row in set(leaf_rows))
    sum_offsets = [0]
    sum_chunks: list[np.ndarray] = []
    for row in sum_rows:
        node = order[row]
        if not isinstance(node, SumNode):
            raise TypeError(f"delta row {row} is not a sum node")
        counts = np.asarray(node.counts, dtype=np.float64)
        sum_chunks.append(counts)
        sum_offsets.append(sum_offsets[-1] + counts.shape[0])
    leaf_kinds = np.empty(len(leaf_rows), dtype=np.int8)
    leaf_ns = np.empty(len(leaf_rows), dtype=np.int64)
    leaf_offsets = [0]
    leaf_chunks: list[np.ndarray] = []
    for slot, row in enumerate(leaf_rows):
        node = order[row]
        if isinstance(node, DiscreteLeaf):
            leaf_kinds[slot] = _KIND_DISCRETE
            leaf_ns[slot] = int(node.values.shape[0])
            payload = [
                np.asarray(node.values, dtype=np.float64),
                np.asarray(node.counts, dtype=np.float64),
                np.asarray([node.null_count], dtype=np.float64),
            ]
        elif isinstance(node, BinnedLeaf):
            leaf_kinds[slot] = _KIND_BINNED
            leaf_ns[slot] = int(node.counts.shape[0])
            payload = [
                np.asarray(node.edges, dtype=np.float64),
                np.asarray(node.counts, dtype=np.float64),
                np.asarray(node.sums, dtype=np.float64),
                np.asarray(node.distinct, dtype=np.float64),
                np.asarray([node.null_count], dtype=np.float64),
            ]
        else:
            raise TypeError(f"delta row {row} is not a histogram leaf")
        leaf_chunks.extend(payload)
        leaf_offsets.append(
            leaf_offsets[-1] + sum(chunk.shape[0] for chunk in payload)
        )
    meta = {
        "kind": "rspn-tree-delta",
        "from_generation": int(from_generation),
        "to_generation": int(to_generation),
        "plan_signature": compiled_for(root).plan_signature(),
    }
    arrays = {
        "sum_rows": np.asarray(sum_rows, dtype=np.int64),
        "sum_offsets": np.asarray(sum_offsets, dtype=np.int64),
        "sum_counts": (
            np.concatenate(sum_chunks)
            if sum_chunks else np.empty(0, dtype=np.float64)
        ),
        "leaf_rows": np.asarray(leaf_rows, dtype=np.int64),
        "leaf_kinds": leaf_kinds,
        "leaf_ns": leaf_ns,
        "leaf_offsets": np.asarray(leaf_offsets, dtype=np.int64),
        "leaf_data": (
            np.concatenate(leaf_chunks)
            if leaf_chunks else np.empty(0, dtype=np.float64)
        ),
    }
    return meta, arrays


def apply_tree_delta(root, meta, arrays):
    """Patch a tree in place from an :func:`export_tree_delta` blob.

    Touched arrays are replaced with private **copies** (never views),
    so the delta's backing buffer can be released immediately after the
    call.  Does not touch the generation machinery: the caller decides
    whether the patched tree's compiled form can be weight-refreshed
    (:meth:`CompiledRSPN.refresh_weights`) or must recompile.  Returns
    ``(sum nodes patched, leaves patched)``.
    """
    if meta.get("kind") != "rspn-tree-delta":
        raise ValueError(f"not a tree delta: {meta.get('kind')!r}")
    order = _post_order(root)
    sum_rows = arrays["sum_rows"]
    sum_offsets = arrays["sum_offsets"]
    sum_counts = arrays["sum_counts"]
    for i in range(sum_rows.shape[0]):
        node = order[int(sum_rows[i])]
        if not isinstance(node, SumNode):
            raise TypeError(f"delta row {int(sum_rows[i])} is not a sum node")
        a, b = int(sum_offsets[i]), int(sum_offsets[i + 1])
        node.counts = sum_counts[a:b].copy()
        node._weights = None
    leaf_rows = arrays["leaf_rows"]
    leaf_kinds = arrays["leaf_kinds"]
    leaf_ns = arrays["leaf_ns"]
    leaf_offsets = arrays["leaf_offsets"]
    leaf_data = arrays["leaf_data"]
    for i in range(leaf_rows.shape[0]):
        node = order[int(leaf_rows[i])]
        kind = int(leaf_kinds[i])
        n = int(leaf_ns[i])
        offset = int(leaf_offsets[i])
        if kind == _KIND_DISCRETE:
            if not isinstance(node, DiscreteLeaf):
                raise TypeError(
                    f"delta row {int(leaf_rows[i])} is not a DiscreteLeaf"
                )
            node.values = leaf_data[offset:offset + n].copy()
            node.counts = leaf_data[offset + n:offset + 2 * n].copy()
            node.null_count = float(leaf_data[offset + 2 * n])
        elif kind == _KIND_BINNED:
            if not isinstance(node, BinnedLeaf):
                raise TypeError(
                    f"delta row {int(leaf_rows[i])} is not a BinnedLeaf"
                )
            edges_end = offset + n + 1
            node.edges = leaf_data[offset:edges_end].copy()
            node.counts = leaf_data[edges_end:edges_end + n].copy()
            node.sums = leaf_data[edges_end + n:edges_end + 2 * n].copy()
            node.distinct = (
                leaf_data[edges_end + 2 * n:edges_end + 3 * n].copy()
            )
            node.null_count = float(leaf_data[edges_end + 3 * n])
        else:
            raise ValueError(f"unknown leaf kind {kind}")
    return int(sum_rows.shape[0]), int(leaf_rows.shape[0])


def post_order(root):
    """The tree's nodes in post order (children before parents).

    This ordering is the tree's canonical row numbering: it is the order
    :func:`export_tree_arrays` assigns rows in, import preserves it
    exactly, and the fused sweep plan (and thus ``plan_signature``) is a
    pure function of it.  External metadata keyed "by row" -- the model
    store's per-sum-node KMeans routing state in particular -- resolves
    through this function on either side of an export/import round trip.
    """
    return _post_order(root)


# Node-array attributes an update path may mutate in place; thawing
# copies exactly these (SumNode.counts plus every leaf payload array).
_MUTABLE_ARRAY_ATTRS = ("counts", "values", "edges", "sums", "distinct")


def thaw_tree(root):
    """Copy-on-write release of a tree from its backing buffer.

    An :func:`import_tree_arrays` twin aliases the exporter's buffer
    (a shared-memory segment or a file mapping) through read-only array
    views; in-place updates would fail on them, and the buffer cannot
    be unmapped while they live.  Thawing replaces every read-only
    array in the tree with a private writable copy -- bit-identical, so
    evaluation and the fused plan are unchanged -- after which the tree
    no longer references the buffer at all.  Returns the number of
    arrays copied (0 when the tree was never frozen).
    """
    copied = 0
    for node in _post_order(root):
        for attr in _MUTABLE_ARRAY_ATTRS:
            array = getattr(node, attr, None)
            if isinstance(array, np.ndarray) and not array.flags.writeable:
                setattr(node, attr, array.copy())
                copied += 1
    return copied


# ----------------------------------------------------------------------
# Compiled form restored from exported arrays (model store cold start)
# ----------------------------------------------------------------------
# A tree lowered by ``CompiledRSPN.__init__`` costs an O(nodes) Python
# pass -- fine after learning, fatal for cold start: a restarting server
# would pay it before the first answer even though the sweep itself only
# ever reads the *plan* (flat arrays) and the touched scopes' leaf
# histograms.  The model store therefore persists the plan tape next to
# the tree arrays, and this section rebuilds an evaluation-equivalent
# compiled form straight from those buffers: O(ops) plan restore, leaf
# objects built lazily per scope on first touch, and the Python node
# tree not built at all until something actually needs it (the legacy
# kernel, the sharded transport, or an update).

# Array names the model store persists for the plan tape, in
# ``_FusedPlan.tape()`` order.
PLAN_TAPE_KEYS = (
    "plan_op_kind", "plan_op_dst", "plan_op_pos_off", "plan_pos_count",
    "plan_pos_child_off", "plan_child_slots", "plan_weights",
)


def plan_store_payload(form):
    """``(scalars, tape_arrays)`` of a compiled form for persistence.

    ``scalars`` is a JSON-able dict for the store's blob header;
    ``tape_arrays`` maps :data:`PLAN_TAPE_KEYS` to the plan's flattened
    instruction stream (the exact arrays the numba kernel interprets).
    :func:`restore_compiled` inverts both.
    """
    plan = form.plan
    scalars = {
        "arena_rows": plan.arena_rows,
        "stage_rows": plan.stage_rows,
        "root_slot": plan.root_slot,
        "n_leaves": plan.n_leaves,
    }
    return scalars, dict(zip(PLAN_TAPE_KEYS, plan.tape()))


# Array names the model store persists for the leaf table (indexed by
# leaf slot, i.e. post-order rank among leaves).
LEAF_TABLE_KEYS = ("leaf_rows", "leaf_offsets", "leaf_ns")


def leaf_table_arrays(leaf_meta):
    """``(arrays, attributes)`` columnar form of an exported leaf table.

    The store persists the numeric columns as int64 arrays (mmap views
    at load, so a cold start touches no per-leaf Python objects) and the
    attribute names as one flat JSON list.  Inverted by
    :func:`leaf_entries_from_arrays`.
    """
    count = len(leaf_meta)
    arrays = {
        "leaf_rows": np.fromiter(
            (entry["row"] for entry in leaf_meta), np.int64, count
        ),
        "leaf_offsets": np.fromiter(
            (entry["offset"] for entry in leaf_meta), np.int64, count
        ),
        "leaf_ns": np.fromiter(
            (entry["n"] for entry in leaf_meta), np.int64, count
        ),
    }
    return arrays, [entry["attribute"] for entry in leaf_meta]


def leaf_entries_from_arrays(arrays, attributes):
    """Rebuild :func:`export_tree_arrays`-shaped leaf entries.

    O(leaves) Python -- used only when a mapped tree materialises, never
    on the cold-start path.
    """
    return [
        {"row": int(row), "attribute": attribute,
         "offset": int(offset), "n": int(n)}
        for row, attribute, offset, n in zip(
            arrays["leaf_rows"], attributes,
            arrays["leaf_offsets"], arrays["leaf_ns"],
        )
    ]


class _LazyLeafSlots:
    """``scope -> ((slot, leaf), ...)``, leaves built on first touch.

    The eager equivalent (``_FusedPlan.leaf_slots_by_scope``) holds live
    leaf objects for every scope; here a scope's leaves materialise from
    the flat payload only when a query actually conditions on it, so a
    cold start instantiates a handful of leaves instead of thousands.
    Built leaves are cached -- repeated queries see identical objects,
    like the eager map.

    Backed entirely by the persisted leaf-table arrays (no per-leaf
    Python work at construction): ``order`` holds leaf slots grouped by
    scope (ascending slot within a scope, matching the eager map's post
    order), ``scopes``/``starts`` delimit the groups.
    """

    __slots__ = ("_scopes", "_starts", "_order", "_kinds", "_attributes",
                 "_offsets", "_ns", "_leaf_data", "_built")

    def __init__(self, scopes, starts, order, kinds, attributes, offsets,
                 ns, leaf_data):
        self._scopes = scopes          # unique scope indices, ascending
        self._starts = starts          # group start index into order
        self._order = order            # leaf slots grouped by scope
        self._kinds = kinds            # per-slot leaf kind
        self._attributes = attributes  # per-slot attribute name
        self._offsets = offsets        # per-slot payload offset
        self._ns = ns                  # per-slot histogram size
        self._leaf_data = leaf_data
        self._built = {}

    def _group(self, position):
        lo = int(self._starts[position])
        hi = (
            int(self._starts[position + 1])
            if position + 1 < self._starts.shape[0]
            else self._order.shape[0]
        )
        return self._order[lo:hi]

    def _position(self, scope):
        position = int(np.searchsorted(self._scopes, scope))
        if (position >= self._scopes.shape[0]
                or int(self._scopes[position]) != scope):
            return None
        return position

    def __contains__(self, scope):
        return self._position(scope) is not None

    def __iter__(self):
        return (int(scope) for scope in self._scopes)

    def __len__(self):
        return self._scopes.shape[0]

    def slot_items(self):
        """Sorted ``(scope, [slot, ...])`` pairs without building leaves
        (what :meth:`_FusedPlan.signature` hashes)."""
        return [
            (int(self._scopes[position]),
             [int(slot) for slot in self._group(position)])
            for position in range(self._scopes.shape[0])
        ]

    def __getitem__(self, scope):
        built = self._built.get(scope)
        if built is None:
            position = self._position(scope)
            if position is None:
                raise KeyError(scope)
            built = tuple(
                (int(slot),
                 _build_leaf(int(self._kinds[slot]), scope,
                             self._attributes[slot], int(self._offsets[slot]),
                             int(self._ns[slot]), self._leaf_data))
                for slot in self._group(position)
            )
            self._built[scope] = built
        return built


class MappedCompiledRSPN(CompiledRSPN):
    """A compiled form over exported tree arrays -- no Python tree.

    Construction is O(plan ops + leaf count) cheap slicing over buffers
    that typically live in a model store mapping; nothing is copied.
    Evaluation through the fused numpy/numba kernels is bit-identical to
    the tree-lowered form (same plan tape, same leaf payloads).  Paths
    that genuinely need the node tree -- the ``legacy`` reference
    kernel, the sharded evaluator's transport, updates -- call
    ``materialize()``, which imports the twin and re-homes this form
    onto it (see :func:`adopt`).
    """

    def __init__(self, meta, arrays, materialize):
        kinds = arrays["kinds"]
        leaf_scope = arrays["leaf_scope"]
        leaf_data = arrays["leaf_data"]
        self.n_nodes = int(kinds.shape[0])
        self.root_row = int(meta["root_row"])
        self.generation = 0
        # ``materialize`` must not strongly reference the owning RSPN
        # (the owner references this form: a cycle would defeat the
        # refcount cascade DeepDB.close() relies on for a deterministic
        # unmap) -- the model store passes a weak-method closure.
        self._materialize = materialize

        # Group leaf slots by scope with array ops only -- per-leaf
        # Python work here would put O(leaves) back on the cold-start
        # path.  The stable sort keeps slots ascending within a scope,
        # matching the eager map's post order (signature parity).
        leaf_rows = arrays["leaf_rows"]
        slot_scopes = leaf_scope[leaf_rows]
        order = np.argsort(slot_scopes, kind="stable")
        scopes, starts = np.unique(slot_scopes[order], return_index=True)
        lazy = _LazyLeafSlots(
            scopes, starts, order, kinds[leaf_rows],
            meta["leaf_attributes"], arrays["leaf_offsets"],
            arrays["leaf_ns"], leaf_data,
        )
        tape = tuple(arrays[key] for key in PLAN_TAPE_KEYS)
        self.plan = _FusedPlan.from_tape(
            tape, meta["plan"], lazy, lazy.slot_items,
        )

        self._scope_tables = {}
        self._pool_lock = threading.Lock()
        self._arena_pool = []
        self.arena_allocations = 0
        self.sweep_count = 0
        self.sweep_ns = 0
        self.sweep_queries = 0

    def root_ref(self):
        # Class-level counterpart of CompiledRSPN's ``root_ref``
        # instance attribute (a weakref to the tree): the sharded
        # transport calls it, and for a mapped form that means
        # materialising the tree on demand.  :func:`adopt` shadows this
        # with a real weakref once the twin exists.  A method (not a
        # stored bound method) so the form never references itself.
        return self._materialize()

    def evaluate_batch(self, specs, executor=None):
        # The legacy reference kernel sweeps the full node-value matrix
        # and needs the tree; build the real lowered form for it.
        if kernels.resolve() == "legacy":
            return self._full_form().evaluate_batch(specs, executor=executor)
        return super().evaluate_batch(specs, executor=executor)

    def _full_form(self):
        root = self._materialize()
        form = _CACHE.get(root)
        if form is None or form is self or form.generation != generation(root):
            form = CompiledRSPN(root)
            form.generation = generation(root)
            _CACHE[root] = form
        return form


# ----------------------------------------------------------------------
# Per-root compilation cache, guarded by a generation counter
# ----------------------------------------------------------------------
# Mutations never pop the cache directly; they bump the root's
# *generation* and the next ``compiled_for`` notices the mismatch and
# re-lowers.  The same counter is the invalidation hook the serving
# layer's result cache rides (surfaced as ``RSPN.generation`` and
# ``SPNEnsemble.generation``), so one mechanism answers both "is this
# compiled form stale?" and "are cached query results stale?".
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_GENERATIONS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def generation(root) -> int:
    """Monotonic mutation counter of a node tree (0 for untouched)."""
    return _GENERATIONS.get(root, 0)


def compiled_for(root) -> CompiledRSPN:
    """The (cached) compiled form of a node tree.

    Stale forms are detected by comparing the cache entry's recorded
    generation against the root's current one, so out-of-date entries
    are replaced lazily on the next evaluation.
    """
    compiled = _CACHE.get(root)
    current = generation(root)
    if compiled is None or compiled.generation != current:
        compiled = CompiledRSPN(root)
        compiled.generation = current
        _CACHE[root] = compiled
    return compiled


def adopt(root, form):
    """Seed the compilation cache: ``form`` becomes ``root``'s compiled
    form.

    Used when a :class:`MappedCompiledRSPN` materialises its node tree:
    the restored form evaluates bit-identically to what
    ``CompiledRSPN(root)`` would lower (same plan, same leaf payloads),
    so adopting it avoids an immediate O(nodes) recompile.  The normal
    generation machinery takes over from here -- the first mutation
    bumps the root's generation and :func:`compiled_for` re-lowers from
    the (by then thawed) tree.
    """
    form.generation = generation(root)
    form.root_ref = weakref.ref(root)
    _CACHE[root] = form


def peek(root):
    """The cached compiled form if present and current, else ``None``
    (never compiles; for telemetry like ``DeepDB.kernel_stats``)."""
    compiled = _CACHE.get(root)
    if compiled is not None and compiled.generation == generation(root):
        return compiled
    return None


def invalidate(root):
    """Mark the compiled form stale after a mutation of sum-node weights
    or tree structure by bumping the root's generation; the next
    evaluation re-lowers the tree.  The stale entry is dropped eagerly
    so write-heavy phases don't retain dead flat arrays; the generation
    check in :func:`compiled_for` stays as the correctness backstop."""
    _GENERATIONS[root] = generation(root) + 1
    form = _CACHE.pop(root, None)
    if form is not None:
        # An adopted mapped form outlives its cache entry (its
        # MappedRSPN still holds it): release what it baked.
        form.drop_scope_tables()


def refresh_weights(root) -> int:
    """Incremental invalidation: bump the generation but *keep* the
    compiled form, patching its baked sum weights in place.

    The contract every cache rides (generation moved == answers may
    have changed) is preserved -- only the recovery cost changes: where
    :func:`invalidate` schedules an O(nodes) re-lowering,
    this re-bakes O(sum nodes) weight arrays and leaves the plan,
    arena allocation and leaf wiring untouched.  Only valid after
    mutations that change **sum counts and leaf payloads** (the batch
    applier's footprint); anything structural must use
    :func:`invalidate`.  Falls back to dropping the cache entry when
    the form cannot be patched (mapped forms).  Returns the new
    generation.
    """
    current = generation(root) + 1
    _GENERATIONS[root] = current
    form = _CACHE.get(root)
    if form is not None:
        if form.refresh_weights():
            form.generation = current
        else:
            _CACHE.pop(root, None)
    return current
