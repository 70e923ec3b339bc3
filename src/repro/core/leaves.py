"""Histogram leaves of RSPNs (Section 3.2 of the paper).

Two leaf flavours, both with a dedicated NULL bucket:

- :class:`DiscreteLeaf` stores *each individual value and its frequency*
  -- the representation the paper chooses over SPFlow's piecewise-linear
  approximation so that the model represents the data "as accurate as
  possible".  Used for categorical columns and for continuous columns
  with few distinct values.
- :class:`BinnedLeaf` falls back to binning "if the number of distinct
  values exceeds a given limit".  Equi-depth bin edges are chosen at
  build time; per-bin counts, value sums and distinct counts support
  range probabilities (uniform within a bin), expectations (exact bin
  means) and point predicates.

Leaves expose a single evaluation primitive::

    E[ h(X) * 1_{X in range} ]

where ``h`` is an optional transform (identity for AVG/SUM numerators,
``x -> 1/max(x, 1)`` for the tuple-factor normalisation of Theorem 1,
``x -> x**2`` for confidence intervals).  NULL contributes ``null_value``
(0 for SQL aggregates, 1 for tuple-factor inversion) when the range
includes NULL.  Both leaf types support the incremental insert/delete of
Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.nodes import LeafNode
from repro.core.ranges import Range


class Transform:
    """A per-attribute transform with an explicit NULL contribution."""

    def __init__(self, fn, null_value, label):
        self.fn = fn
        self.null_value = null_value
        self.label = label

    def __repr__(self):
        return f"Transform({self.label})"

    def __reduce_ex__(self, protocol):
        # The module-level transforms below copy and pickle *by name*:
        # ``copy.deepcopy`` of a model or spec (update twins, drift
        # shadows) must keep pointing at the same singletons, or the
        # identity-based dedup and grouping of the sweep would treat a
        # copied IDENTITY as an ad-hoc transform.  Ad-hoc transforms
        # fall through to the default behaviour (functions copy
        # atomically).
        if _WELL_KNOWN.get(self.label) is self:
            return (_well_known_transform, (self.label,))
        return super().__reduce_ex__(protocol)


IDENTITY = Transform(lambda v: v, 0.0, "x")
SQUARE = Transform(lambda v: v * v, 0.0, "x^2")
INVERSE_FACTOR = Transform(lambda v: 1.0 / np.maximum(v, 1.0), 1.0, "1/max(x,1)")
INVERSE_FACTOR_SQUARE = Transform(
    lambda v: 1.0 / np.maximum(v, 1.0) ** 2, 1.0, "1/max(x,1)^2"
)
# Outer-join variant of tuple factors: "factors F with value zero have to
# be handled as value one to support the semantics of the corresponding
# outer join" (Section 4.2).
FACTOR_OUTER = Transform(lambda v: np.maximum(v, 1.0), 1.0, "max(x,1)")
FACTOR_OUTER_SQUARE = Transform(lambda v: np.maximum(v, 1.0) ** 2, 1.0, "max(x,1)^2")

# label -> singleton, the copy-by-name registry.
_WELL_KNOWN = {
    t.label: t
    for t in (
        IDENTITY, SQUARE,
        INVERSE_FACTOR, INVERSE_FACTOR_SQUARE,
        FACTOR_OUTER, FACTOR_OUTER_SQUARE,
    )
}


def _well_known_transform(label):
    """Unpickle hook resolving a well-known transform by its label."""
    return _WELL_KNOWN[label]


def well_known_label(transform) -> str | None:
    """The label of a well-known transform singleton, else ``None``.

    A transform counts as well known exactly when it *is* the
    registered singleton -- an ad-hoc transform that merely reuses a
    well-known label must never be mistaken for it.
    """
    label = getattr(transform, "label", None)
    if label is not None and _WELL_KNOWN.get(label) is transform:
        return label
    return None


def transform_dedup_key(transform):
    """A stable dedup key for one transform.

    The well-known label when the transform *is* the registered
    singleton, the object id otherwise.  Labels are ``str`` and ids are
    ``int``, so the two key spaces cannot collide -- and a label thief
    (an ad-hoc transform reusing a well-known label) fails the
    identity check in :func:`well_known_label` and stays id-keyed,
    never sharing a dedup slot with the singleton's semantics.
    """
    return well_known_label(transform) or id(transform)


def product_transform(transforms):
    """Compose several transforms on the same attribute multiplicatively."""
    transforms = list(transforms)
    if len(transforms) == 1:
        return transforms[0]
    null_value = 1.0
    for t in transforms:
        null_value *= t.null_value
    label = "*".join(t.label for t in transforms)

    def fn(values, _ts=tuple(transforms)):
        out = np.ones_like(values, dtype=float)
        for t in _ts:
            out = out * t.fn(values)
        return out

    return Transform(fn, null_value, label)


def _interval_bounds(values, lows, highs, low_inc, high_inc):
    """``(left, right)`` positions in sorted ``values`` such that
    ``values[left:right]`` are the ones inside each interval.

    The index is clamped, not the mass: an empty interval (only
    possible when hand-constructed) must select exactly zero values,
    while masses themselves may be legitimately negative under
    sign-changing transforms.
    """
    left = np.where(
        low_inc,
        np.searchsorted(values, lows, side="left"),
        np.searchsorted(values, lows, side="right"),
    )
    right = np.where(
        high_inc,
        np.searchsorted(values, highs, side="right"),
        np.searchsorted(values, highs, side="left"),
    )
    return left, np.maximum(right, left)


class DiscreteLeaf(LeafNode):
    """Exact value-frequency histogram with a NULL bucket."""

    kind = "discrete"

    def __init__(self, scope_index, attribute, values, counts, null_count):
        super().__init__(scope_index, attribute)
        self.values = np.asarray(values, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.null_count = float(null_count)

    @classmethod
    def fit(cls, scope_index, attribute, column):
        column = np.asarray(column, dtype=float)
        null_count = float(np.isnan(column).sum())
        finite = column[~np.isnan(column)]
        values, counts = np.unique(finite, return_counts=True)
        return cls(scope_index, attribute, values, counts.astype(float), null_count)

    @property
    def total(self):
        return float(self.counts.sum() + self.null_count)

    def _in_range_mask(self, rng: Range):
        mask = np.zeros(self.values.shape[0], dtype=bool)
        for interval in rng.intervals:
            with np.errstate(invalid="ignore"):
                part = (
                    (self.values > interval.low)
                    if not interval.low_inclusive
                    else (self.values >= interval.low)
                )
                part &= (
                    (self.values < interval.high)
                    if not interval.high_inclusive
                    else (self.values <= interval.high)
                )
            mask |= part
        return mask

    def evaluate(self, rng: Range | None, transform: Transform | None):
        """E[h(X) * indicator(range)] under this leaf's distribution."""
        total = self.total
        if total == 0:
            return 0.0
        if rng is None:
            rng = Range.everything(include_null=True)
        mask = self._in_range_mask(rng)
        if transform is None:
            mass = float(self.counts[mask].sum())
            if rng.include_null:
                mass += self.null_count
            return mass / total
        weighted = float((transform.fn(self.values[mask]) * self.counts[mask]).sum())
        if rng.include_null:
            weighted += self.null_count * transform.null_value
        return weighted / total

    def evaluate_batch(self, ranges, transforms, prepared=None):
        """Vectorised :meth:`evaluate` over parallel range/transform lists.

        ``ranges[k]`` / ``transforms[k]`` follow the scalar convention
        (``None`` meaning unconstrained / indicator-only).  Queries are
        grouped per transform, the weighted histogram is turned into one
        prefix-sum, and every interval of every range becomes two
        ``np.searchsorted`` lookups -- ``O(log n)`` per interval instead
        of an ``O(n)`` mask.  Agrees with the scalar path to ~1e-12
        relative (prefix-sum rounding), well inside the 1e-9 contract.

        ``prepared`` is an optional :class:`PreparedBatch` for the same
        ``(ranges, transforms)``: the compiled sweep computes the
        transform grouping and interval flattening once per *scope* and
        shares it across every leaf of that scope.
        """
        out = np.zeros(len(ranges), dtype=float)
        total = self.total
        if total == 0 or not len(ranges):
            return out
        if prepared is None:
            prepared = PreparedBatch(ranges, transforms)
        for g, (group, transform) in enumerate(prepared.groups):
            if transform is None:
                weights = self.counts
                null_mass = self.null_count
            else:
                weights = transform.fn(self.values) * self.counts
                null_mass = self.null_count * transform.null_value
            cum = np.concatenate(([0.0], np.cumsum(weights)))
            lows, highs, low_inc, high_inc, k_idx, null_ks = (
                prepared.group_intervals(g)
            )
            if k_idx.size:
                left, right = _interval_bounds(
                    self.values, lows, highs, low_inc, high_inc
                )
                np.add.at(out, k_idx, cum[right] - cum[left])
            if null_ks.size:
                out[null_ks] += null_mass
        return out / total

    def update(self, value, sign):
        if value is None or (isinstance(value, float) and np.isnan(value)):
            self.null_count = max(0.0, self.null_count + sign)
            return
        value = float(value)
        pos = int(np.searchsorted(self.values, value))
        if pos < self.values.shape[0] and self.values[pos] == value:
            self.counts[pos] = max(0.0, self.counts[pos] + sign)
        elif sign > 0:
            self.values = np.insert(self.values, pos, value)
            self.counts = np.insert(self.counts, pos, float(sign))

    def domain_values(self):
        return self.values

    def mean(self):
        total = float(self.counts.sum())
        if total == 0:
            return 0.0
        return float((self.values * self.counts).sum() / total)


class DiscreteScopeTable:
    """Every :class:`DiscreteLeaf` of one scope fused into one table.

    A sweep fills all leaf rows of a touched scope with the *same*
    distinct ``(range, transform)`` pairs, so calling
    :meth:`DiscreteLeaf.evaluate_batch` once per leaf repeats the same
    binary searches (and pays the same fixed NumPy call overheads) for
    every row.  The table does the scope in one pass: ``domain`` is the
    sorted union of the leaves' values, ``counts`` a dense
    ``(leaves x domain)`` matrix (0 where a leaf lacks the value) and
    ``cum`` its row-wise prefix sums, so one set of searches on the
    domain and one ``cum[:, right] - cum[:, left]`` gather give every
    leaf's interval masses at once.

    :meth:`evaluate` is **bit-identical** (``==``) to the per-leaf
    kernel, which stays the oracle: a zero inserted into a running sum
    leaves it unchanged, so ``cum[l, j]`` equals leaf ``l``'s own prefix
    sum over the values below ``domain[j]``, and binary search on the
    union domain counts exactly the leaf's values on each side of a
    bound.  Relies on what ``fit``/``update`` maintain: a leaf's values
    are strictly increasing.

    The table bakes the histograms.  Its owner (the compiled form)
    keeps it current across a batch commit with :meth:`patched`, and
    drops it on every other mutation path (``compiled.invalidate``,
    the drift swap).
    """

    __slots__ = ("slots", "domain", "counts", "present", "cum",
                 "null_counts", "totals", "divisors", "empty", "rows")

    def __init__(self, entries):
        """``entries`` are ``(arena slot, DiscreteLeaf)`` pairs."""
        leaves = [leaf for _, leaf in entries]
        self.slots = np.array([slot for slot, _ in entries], dtype=np.intp)
        # id(live leaf) -> row: how a batch commit finds a leaf's row.
        self.rows = {id(leaf): row for row, leaf in enumerate(leaves)}
        self.domain = np.unique(np.concatenate([leaf.values for leaf in leaves]))
        shape = (len(leaves), self.domain.shape[0])
        self.counts = np.zeros(shape, dtype=float)
        self.present = np.zeros(shape, dtype=bool)
        for row, leaf in enumerate(leaves):
            columns = np.searchsorted(self.domain, leaf.values)
            self.counts[row, columns] = leaf.counts
            self.present[row, columns] = True
        self.cum = self._prefix(self.counts)
        self.null_counts = np.array([leaf.null_count for leaf in leaves])
        # Each leaf's own ``total`` (its pairwise sum over its own
        # counts), not ``cum[:, -1]``: the divisor must carry the
        # oracle's exact bits.
        self.totals = np.array([leaf.total for leaf in leaves])
        self._set_divisors()

    def _set_divisors(self):
        self.empty = np.flatnonzero(self.totals == 0.0)
        self.divisors = np.where(self.totals == 0.0, 1.0, self.totals)[:, None]

    def patched(self, shadows):
        """This table with the rows of updated leaves rebuilt, ``==`` a
        fresh table over the updated leaves.

        ``shadows`` maps ``id(live leaf)`` to the leaf's staged
        :class:`DiscreteLeaf` shadow (a batch's copy-on-write state).
        Returns ``self`` when no shadow belongs to this table, and
        ``None`` when a shadow holds a value outside ``domain`` (a
        fresh table would have a wider domain; the owner rebuilds it
        lazily).  Copy-on-write: readers may still sweep ``self``, so
        the changed arrays are copies and the rest (``slots``,
        ``domain``, ``rows``, and ``present`` unless a leaf gained a
        value) are shared.  A leaf's values only grow under updates, so
        the union domain of the updated leaves is ``domain`` itself;
        row-wise prefix sums are per row, so recomputing the touched
        rows gives the fresh table's bits.
        """
        picked = [
            (row, shadows[key]) for key, row in self.rows.items()
            if key in shadows
        ]
        if not picked:
            return self
        domain = self.domain
        rows = np.array([row for row, _ in picked], dtype=np.intp)
        sizes = [leaf.values.shape[0] for _, leaf in picked]
        values = np.concatenate([leaf.values for _, leaf in picked])
        columns = np.searchsorted(domain, values)
        if (columns == domain.shape[0]).any() or not np.array_equal(
            domain[columns], values
        ):
            return None
        owners = np.repeat(np.arange(rows.shape[0]), sizes)
        present = np.zeros((rows.shape[0], domain.shape[0]), dtype=bool)
        present[owners, columns] = True
        table = object.__new__(DiscreteScopeTable)
        table.slots, table.domain, table.rows = self.slots, domain, self.rows
        table.present = self.present
        if not np.array_equal(self.present[rows], present):
            table.present = self.present.copy()
            table.present[rows] = present
        table.counts = self.counts.copy()
        table.counts[rows] = 0.0
        table.counts[rows[owners], columns] = np.concatenate(
            [leaf.counts for _, leaf in picked]
        )
        table.cum = self.cum.copy()
        table.cum[rows, 1:] = np.cumsum(table.counts[rows], axis=1)
        table.null_counts = self.null_counts.copy()
        table.null_counts[rows] = [leaf.null_count for _, leaf in picked]
        table.totals = self.totals.copy()
        table.totals[rows] = [leaf.total for _, leaf in picked]
        table._set_divisors()
        return table

    @staticmethod
    def _prefix(weights):
        cum = np.zeros((weights.shape[0], weights.shape[1] + 1), dtype=float)
        np.cumsum(weights, axis=1, out=cum[:, 1:])
        return cum

    @property
    def nbytes(self):
        return sum(
            getattr(self, name).nbytes
            for name in self.__slots__ if name != "rows"
        )

    def evaluate(self, prepared):
        """``(leaves, len(prepared.ranges))`` leaf values for one
        :class:`PreparedBatch`; row ``l`` ``==`` what leaf ``l``'s
        ``evaluate_batch`` returns for the same batch."""
        n_leaves, n = self.slots.shape[0], len(prepared.ranges)
        out = np.zeros((n_leaves, n), dtype=float)
        domain = self.domain
        for g, (_, transform) in enumerate(prepared.groups):
            if transform is None:
                cum = self.cum
                null_mass = self.null_counts
            else:
                factors = transform.fn(domain)
                weights = factors * self.counts
                if not np.isfinite(factors).all():
                    # inf * (the 0 count of a value the leaf lacks) is
                    # NaN and would poison the running sum; for the
                    # leaf itself that value does not exist.
                    weights[~self.present] = 0.0
                cum = self._prefix(weights)
                null_mass = self.null_counts * transform.null_value
            lows, highs, low_inc, high_inc, k_idx, null_ks = (
                prepared.group_intervals(g)
            )
            if k_idx.size:
                left, right = _interval_bounds(
                    domain, lows, highs, low_inc, high_inc
                )
                # One sequential scatter-add over the flattened matrix
                # (leaf-major, intervals in order within a leaf): the
                # per-leaf ``np.add.at(out, k_idx, ...)`` for all rows.
                flat = (np.arange(n_leaves)[:, None] * n + k_idx).ravel()
                np.add.at(
                    out.reshape(-1), flat,
                    (cum[:, right] - cum[:, left]).ravel(),
                )
            if null_ks.size:
                out[:, null_ks] += null_mass[:, None]
        out /= self.divisors
        if self.empty.size:
            out[self.empty] = 0.0
        return out


class BinnedLeaf(LeafNode):
    """Equi-depth binned histogram for high-cardinality continuous columns."""

    kind = "binned"

    def __init__(self, scope_index, attribute, edges, counts, sums, distinct, null_count):
        super().__init__(scope_index, attribute)
        self.edges = np.asarray(edges, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.sums = np.asarray(sums, dtype=float)
        self.distinct = np.asarray(distinct, dtype=float)
        self.null_count = float(null_count)

    @classmethod
    def fit(cls, scope_index, attribute, column, n_bins=128):
        column = np.asarray(column, dtype=float)
        null_count = float(np.isnan(column).sum())
        finite = column[~np.isnan(column)]
        quantiles = np.linspace(0.0, 1.0, n_bins + 1)
        edges = np.unique(np.quantile(finite, quantiles))
        if edges.shape[0] < 2:
            edges = np.array([finite.min(), finite.min() + 1.0])
        bins = np.clip(np.searchsorted(edges, finite, side="right") - 1, 0, edges.shape[0] - 2)
        n = edges.shape[0] - 1
        counts = np.bincount(bins, minlength=n).astype(float)
        sums = np.bincount(bins, weights=finite, minlength=n)
        distinct = np.ones(n)
        for b in range(n):
            members = finite[bins == b]
            distinct[b] = max(1, np.unique(members).shape[0])
        return cls(scope_index, attribute, edges, counts, sums, distinct, null_count)

    @property
    def total(self):
        return float(self.counts.sum() + self.null_count)

    def _bin_means(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            means = self.sums / self.counts
        centers = (self.edges[:-1] + self.edges[1:]) / 2.0
        return np.where(self.counts > 0, means, centers)

    def _coverage(self, interval):
        """Fraction of each bin's mass covered by ``interval``.

        Mass is uniform within a bin; point intervals select an estimated
        ``1/distinct`` share of the containing bin, the standard distinct
        count correction.
        """
        low, high = self.edges[:-1], self.edges[1:]
        if interval.is_point():
            value = interval.low
            inside = (value >= low) & (
                (value < high) | ((value <= high) & (high == self.edges[-1]))
            )
            return np.where(inside, 1.0 / self.distinct, 0.0)
        left = np.clip(interval.low, low, high)
        right = np.clip(interval.high, low, high)
        width = high - low
        with np.errstate(invalid="ignore", divide="ignore"):
            fraction = np.where(width > 0, (right - left) / width, 0.0)
        # Degenerate zero-width bins (a single repeated value) are fully
        # covered when the value lies inside the interval.
        degenerate = (width == 0) & (interval.low <= low) & (high <= interval.high)
        return np.where(degenerate, 1.0, np.clip(fraction, 0.0, 1.0))

    def evaluate(self, rng: Range | None, transform: Transform | None):
        total = self.total
        if total == 0:
            return 0.0
        if rng is None:
            rng = Range.everything(include_null=True)
        coverage = np.zeros(self.counts.shape[0])
        for interval in rng.intervals:
            coverage = np.minimum(coverage + self._coverage(interval), 1.0)
        covered_counts = self.counts * coverage
        if transform is None:
            mass = float(covered_counts.sum())
            if rng.include_null:
                mass += self.null_count
            return mass / total
        weighted = float((transform.fn(self._bin_means()) * covered_counts).sum())
        if rng.include_null:
            weighted += self.null_count * transform.null_value
        return weighted / total

    def evaluate_batch(self, ranges, transforms, prepared=None):
        """Vectorised :meth:`evaluate` over parallel range/transform lists.

        All intervals of all ranges are broadcast against the bin edges
        at once, producing a ``(n_queries, n_bins)`` coverage matrix
        that is then reduced per query.

        The per-query reduction is **row-wise with a pinned order**
        (:func:`repro.core.kernels.ordered_rowsum`), NOT
        ``coverage[group] @ weights`` and not ``sum(axis=1)``: the BLAS
        matvec picks different accumulation kernels depending on the
        number of rows, and ``sum``'s accumulation order is a SIMD
        implementation detail -- either way one query's bits could
        change with its batchmates or with the executing kernel.  The
        explicit halving fold reduces each row independently and
        identically everywhere, keeping every query bit-identical
        across batch compositions (the invariance chunked evaluation
        relies on).

        ``prepared`` shares the interval flattening across the leaves
        of one scope, exactly as in :meth:`DiscreteLeaf.evaluate_batch`.
        """
        out = np.zeros(len(ranges), dtype=float)
        total = self.total
        if total == 0 or not len(ranges):
            return out
        if prepared is None:
            prepared = PreparedBatch(ranges, transforms)
        coverage, null_flags = self._coverage_batch(prepared)
        for group, transform in prepared.groups:
            if transform is None:
                weights = self.counts
                null_mass = self.null_count
            else:
                weights = transform.fn(self._bin_means()) * self.counts
                null_mass = self.null_count * transform.null_value
            out[group] = kernels.ordered_rowsum(coverage[group] * weights)
            out[group[null_flags[group]]] += null_mass
        return out / total

    def _coverage_batch(self, prepared):
        """``(n_queries, n_bins)`` coverage fractions plus NULL flags."""
        low_edges, high_edges = self.edges[:-1], self.edges[1:]
        lows, highs, low_inc, high_inc, k_idx, null_ks = prepared.all_intervals()
        n_queries = len(prepared.ranges)
        coverage = np.zeros((n_queries, self.counts.shape[0]), dtype=float)
        if k_idx.size:
            lows_m = lows[:, None]
            highs_m = highs[:, None]
            left = np.clip(lows_m, low_edges, high_edges)
            right = np.clip(highs_m, low_edges, high_edges)
            width = (high_edges - low_edges)[None, :]
            with np.errstate(invalid="ignore", divide="ignore"):
                fraction = np.where(
                    width > 0, (right - left) / np.where(width > 0, width, 1.0), 0.0
                )
            degenerate = (width == 0) & (lows_m <= low_edges) & (high_edges <= highs_m)
            span = np.where(degenerate, 1.0, np.clip(fraction, 0.0, 1.0))
            is_point = (lows == highs) & low_inc & high_inc
            if is_point.any():
                inside = (lows_m >= low_edges) & (
                    (lows_m < high_edges)
                    | ((lows_m <= high_edges) & (high_edges == self.edges[-1]))
                )
                point = np.where(inside, 1.0 / self.distinct[None, :], 0.0)
                span = np.where(is_point[:, None], point, span)
            np.add.at(coverage, k_idx, span)
            np.minimum(coverage, 1.0, out=coverage)
        null_flags = np.zeros(n_queries, dtype=bool)
        null_flags[null_ks] = True
        return coverage, null_flags

    def update(self, value, sign):
        if value is None or (isinstance(value, float) and np.isnan(value)):
            self.null_count = max(0.0, self.null_count + sign)
            return
        value = float(value)
        b = int(np.clip(np.searchsorted(self.edges, value, side="right") - 1, 0, self.counts.shape[0] - 1))
        self.counts[b] = max(0.0, self.counts[b] + sign)
        self.sums[b] += sign * value

    def domain_values(self):
        return self._bin_means()

    def mean(self):
        total = float(self.counts.sum())
        if total == 0:
            return 0.0
        return float(self.sums.sum() / total)


class PreparedBatch:
    """Shared precomputation for one ``(ranges, transforms)`` pair.

    The compiled sweep deduplicates specs once per *scope* but every
    leaf row of that scope evaluates the same distinct pairs -- without
    sharing, each row would redo the transform grouping and the
    interval flattening (the dominant Python-side cost of a sweep).
    Group and interval arrays are built lazily: the discrete leaf wants
    per-group intervals, the binned leaf wants the full flattening.
    """

    __slots__ = ("ranges", "groups", "_group_intervals", "_all_intervals")

    def __init__(self, ranges, transforms):
        self.ranges = ranges
        self.groups = list(_transform_groups(transforms))
        self._group_intervals = [None] * len(self.groups)
        self._all_intervals = None

    def group_intervals(self, g):
        """Interval arrays for transform group ``g`` (cached)."""
        cached = self._group_intervals[g]
        if cached is None:
            cached = _interval_arrays(self.ranges, self.groups[g][0])
            self._group_intervals[g] = cached
        return cached

    def all_intervals(self):
        """Interval arrays over the whole batch (cached)."""
        if self._all_intervals is None:
            self._all_intervals = _interval_arrays(
                self.ranges, np.arange(len(self.ranges))
            )
        return self._all_intervals


def _transform_groups(transforms):
    """Group query indices by transform identity (``None`` = indicator).

    Batched leaf kernels weight the histogram once per distinct
    transform and reuse it for every query in the group.
    """
    by_key: dict = {}
    for k, transform in enumerate(transforms):
        key = id(transform) if transform is not None else None
        entry = by_key.get(key)
        if entry is None:
            by_key[key] = entry = (transform, [])
        entry[1].append(k)
    for transform, ks in by_key.values():
        yield np.asarray(ks, dtype=np.intp), transform


def _interval_arrays(ranges, group):
    """Flatten the intervals of ``ranges[k] for k in group`` into parallel
    arrays ``(lows, highs, low_inc, high_inc, query_index)`` plus the
    query indices whose range includes NULL.  ``None`` ranges follow the
    scalar convention: everything, NULL included."""
    lows, highs, low_inc, high_inc, k_idx, null_ks = [], [], [], [], [], []
    for k in group:
        rng = ranges[k]
        if rng is None:
            rng = Range.everything(include_null=True)
        if rng.include_null:
            null_ks.append(k)
        for interval in rng.intervals:
            k_idx.append(k)
            lows.append(interval.low)
            highs.append(interval.high)
            low_inc.append(interval.low_inclusive)
            high_inc.append(interval.high_inclusive)
    return (
        np.asarray(lows, dtype=float),
        np.asarray(highs, dtype=float),
        np.asarray(low_inc, dtype=bool),
        np.asarray(high_inc, dtype=bool),
        np.asarray(k_idx, dtype=np.intp),
        np.asarray(null_ks, dtype=np.intp),
    )


def build_leaf(scope_index, attribute, column, discrete, max_distinct=512, n_bins=128):
    """Choose and fit the right leaf for a column.

    Categorical columns always use exact histograms.  Numeric columns use
    exact value-frequency histograms while the number of distinct values
    stays below ``max_distinct`` (the paper's "given limit"), otherwise
    equi-depth bins.
    """
    column = np.asarray(column, dtype=float)
    finite = column[~np.isnan(column)]
    if discrete or np.unique(finite).shape[0] <= max_distinct:
        return DiscreteLeaf.fit(scope_index, attribute, column)
    return BinnedLeaf.fit(scope_index, attribute, column, n_bins=n_bins)
