"""Join machinery: tuple factors, full outer joins, exact join sizes.

This module implements the relational bookkeeping of Section 4.1 of the
paper:

- **Tuple factors** ``F_{S<-T}``: for every FK relationship ``S <- T``
  a column on the parent ``S`` counting the referencing rows in ``T``.
- **Full outer joins** over a connected set of tables, materialised as a
  row-index matrix.  Every original tuple of every table appears at
  least once; tuples without join partners are NULL-extended, and the
  per-table NULL indicator columns ``N_T`` record membership.
- **Exact full-outer-join sizes** via a factorized product formula
  (no materialisation needed), used for the ``|J|`` multiplier of the
  probabilistic query compilation and to drive unbiased join sampling.

The implementation assumes referential integrity (every non-NULL foreign
key references an existing parent row), which all our dataset generators
guarantee and :func:`validate_referential_integrity` checks.
"""

from __future__ import annotations

import numpy as np



def qualify(table, column):
    return f"{table}.{column}"


def factor_qualified_name(fk):
    """Qualified column name of the tuple factor ``F_{parent<-child}``."""
    return qualify(fk.parent, fk.factor_name)


def indicator_qualified_name(table):
    """Qualified name of the NULL indicator ``N_T`` of a table in a join."""
    return qualify(table, "__present__")


def match_parent_rows(parent_key, child_key):
    """Row index in the parent table for every child row (-1 if none).

    Both arrays are float key columns; NaN foreign keys match nothing.
    """
    parent_key = np.asarray(parent_key, dtype=float)
    child_key = np.asarray(child_key, dtype=float)
    if parent_key.shape[0] == 0:
        return np.full(child_key.shape[0], -1, dtype=np.int64)
    order = np.argsort(parent_key, kind="mergesort")
    sorted_keys = parent_key[order]
    safe_child = np.where(np.isnan(child_key), np.inf, child_key)
    pos = np.searchsorted(sorted_keys, safe_child)
    result = np.full(child_key.shape[0], -1, dtype=np.int64)
    in_range = pos < sorted_keys.shape[0]
    candidates = np.where(in_range, pos, 0)
    matches = in_range & (sorted_keys[candidates] == safe_child)
    result[matches] = order[candidates[matches]]
    return result


def compute_tuple_factors(database):
    """Attach every tuple factor column ``F_{S<-T}`` to its parent table.

    The paper computes these once per FK pair during ensemble creation
    and keeps them current under updates; callers re-invoke this after
    bulk appends (:func:`refresh_tuple_factors`).
    """
    for fk in database.schema.foreign_keys:
        parent = database.table(fk.parent)
        child = database.table(fk.child)
        parent_rows = match_parent_rows(
            parent.columns[fk.pk_column], child.columns[fk.fk_column]
        )
        counts = np.bincount(parent_rows[parent_rows >= 0], minlength=parent.n_rows)
        parent.add_column(fk.factor_name, counts.astype(float), kind="numeric")
    return database


refresh_tuple_factors = compute_tuple_factors


def validate_referential_integrity(database):
    """Raise if any non-NULL foreign key has no parent row."""
    for fk in database.schema.foreign_keys:
        parent = database.table(fk.parent)
        child = database.table(fk.child)
        parent_rows = match_parent_rows(
            parent.columns[fk.pk_column], child.columns[fk.fk_column]
        )
        fk_values = child.columns[fk.fk_column]
        broken = (parent_rows < 0) & ~np.isnan(fk_values)
        if broken.any():
            raise ValueError(
                f"foreign key {fk.name} violates referential integrity "
                f"({int(broken.sum())} orphan child rows)"
            )


class JoinPlan:
    """Tree-shaped join plan over a connected table set.

    ``steps`` lists ``(near, far, fk, far_is_fk_child)`` in BFS order
    from the root: ``far`` is joined into the running result through
    ``near``, either as the FK child (one-to-many expansion) or as the
    FK parent (many-to-one lookup).
    """

    def __init__(self, schema, tables, root=None):
        self.tables = list(dict.fromkeys(tables))
        if root is None:
            root = _prefer_parent_root(schema, self.tables)
        self.root, edges = schema.join_tree(self.tables, root=root)
        self.steps = []
        joined = {self.root}
        for fk in edges:
            if fk.parent in joined:
                self.steps.append((fk.parent, fk.child, fk, True))
                joined.add(fk.child)
            else:
                self.steps.append((fk.child, fk.parent, fk, False))
                joined.add(fk.parent)
        self.order = [self.root] + [far for _near, far, _fk, _child in self.steps]


def _prefer_parent_root(schema, tables):
    """Pick a root that is never the FK child within the table set.

    Rooting at the top-most parent makes every join step a one-to-many
    expansion, which avoids orphan-parent bookkeeping for snowflakes
    like IMDb.  When no such table exists (e.g. SSB's fact table joins
    several dimension parents) any table works and orphan parents are
    appended explicitly.
    """
    inner_edges = schema.edges_between(tables)
    children = {fk.child for fk in inner_edges}
    for name in tables:
        if name not in children:
            return name
    return tables[0]


def _matches_by_near_row(near_table, far_table, fk, far_is_fk_child):
    """For each near row: (offsets into flat array, flat far-row indices).

    Returns ``(counts, starts, flat_far_rows)`` such that the far rows
    matching near row ``i`` are ``flat_far_rows[starts[i]:starts[i]+counts[i]]``.
    """
    if far_is_fk_child:
        parent_rows = match_parent_rows(
            near_table.columns[fk.pk_column], far_table.columns[fk.fk_column]
        )
        valid = parent_rows >= 0
        child_rows = np.flatnonzero(valid)
        owners = parent_rows[valid]
        order = np.argsort(owners, kind="mergesort")
        flat = child_rows[order]
        counts = np.bincount(owners, minlength=near_table.n_rows)
    else:
        match = match_parent_rows(
            far_table.columns[fk.pk_column], near_table.columns[fk.fk_column]
        )
        counts = (match >= 0).astype(np.int64)
        flat = match[match >= 0]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return counts, starts, flat


def subtree_combos(database, plan):
    """Per-row full-outer-join combination counts for every table.

    ``combos[T][i]`` is the number of join rows the subtree rooted at
    table ``T`` (in the join plan) produces for row ``i`` of ``T``.
    ``combos[plan.root].sum()`` plus orphan-parent contributions equals
    the exact full outer join size.
    """
    combos = {
        name: np.ones(database.table(name).n_rows, dtype=float) for name in plan.order
    }
    orphan_terms = []
    for near, far, fk, far_is_fk_child in reversed(plan.steps):
        near_table = database.table(near)
        far_table = database.table(far)
        counts, starts, flat = _matches_by_near_row(near_table, far_table, fk, far_is_fk_child)
        weights = combos[far]
        # Sum of far-subtree combos per near row; NULL-extension keeps a
        # minimum of one row per near tuple (the max(.,1) of the paper).
        summed = np.zeros(near_table.n_rows, dtype=float)
        if flat.size:
            segment_ids = np.repeat(np.arange(near_table.n_rows), counts)
            np.add.at(summed, segment_ids, weights[flat])
        combos[near] *= np.maximum(summed, 1.0)
        if not far_is_fk_child:
            referenced = np.zeros(far_table.n_rows, dtype=bool)
            referenced[flat] = True
            orphan_rows = np.flatnonzero(~referenced)
            if orphan_rows.size:
                orphan_terms.append((far, orphan_rows, weights[orphan_rows]))
    return combos, orphan_terms


def full_outer_join_size(database, tables):
    """Exact size of the full outer join over ``tables`` (no materialisation)."""
    plan = JoinPlan(database.schema, tables)
    combos, orphan_terms = subtree_combos(database, plan)
    total = float(combos[plan.root].sum())
    total += sum(float(weights.sum()) for _t, _rows, weights in orphan_terms)
    return total


class JoinResult:
    """A materialised join as a row-index matrix.

    ``indices[:, k]`` holds the row index into table ``plan.order[k]``
    for every join row, with ``-1`` marking NULL-extension.  Columns of
    the join are materialised on demand.
    """

    def __init__(self, database, plan, indices):
        self.database = database
        self.plan = plan
        self.indices = indices
        self._positions = {name: k for k, name in enumerate(plan.order)}

    @property
    def tables(self):
        return list(self.plan.order)

    def __len__(self):
        return self.indices.shape[0]

    def table_rows(self, table):
        return self.indices[:, self._positions[table]]

    def column(self, table, column):
        """Materialise one column of the join (NaN where NULL-extended)."""
        rows = self.table_rows(table)
        source = self.database.table(table).columns[column]
        values = np.where(rows >= 0, source[np.maximum(rows, 0)], np.nan)
        return values

    def qualified_column(self, qualified):
        table, column = qualified.split(".", 1)
        if column == "__present__":
            return self.indicator(table)
        return self.column(table, column)

    def indicator(self, table):
        """The ``N_T`` column: 1.0 where the table contributed a real row."""
        return (self.table_rows(table) >= 0).astype(float)

    def subsample(self, n_samples, seed=0):
        if len(self) <= n_samples:
            return self
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(self), size=n_samples, replace=False)
        return JoinResult(self.database, self.plan, self.indices[keep])


def materialize_full_outer_join(database, tables, max_rows=30_000_000):
    """Materialise the full outer join over ``tables`` as a JoinResult.

    Raises ``MemoryError`` when the exact join size exceeds ``max_rows``
    (callers should fall back to :func:`sample_full_outer_join`).
    """
    plan = JoinPlan(database.schema, tables)
    size = full_outer_join_size(database, tables)
    if size > max_rows:
        raise MemoryError(
            f"full outer join over {tables} has {size:.0f} rows (> {max_rows})"
        )
    n_tables = len(plan.order)
    root_table = database.table(plan.root)
    indices = np.full((root_table.n_rows, n_tables), -1, dtype=np.int64)
    indices[:, 0] = np.arange(root_table.n_rows)
    for near, far, fk, far_is_fk_child in plan.steps:
        near_pos = plan.order.index(near)
        far_pos = plan.order.index(far)
        near_table = database.table(near)
        far_table = database.table(far)
        counts, starts, flat = _matches_by_near_row(near_table, far_table, fk, far_is_fk_child)
        near_rows = indices[:, near_pos]
        # Number of copies of each current join row: the matched far rows,
        # or one NULL-extended copy when there is no partner (or the near
        # side itself is already NULL-extended).
        row_counts = np.where(near_rows >= 0, counts[np.maximum(near_rows, 0)], 0)
        copies = np.maximum(row_counts, 1)
        expanded = np.repeat(indices, copies, axis=0)
        far_column = np.full(expanded.shape[0], -1, dtype=np.int64)
        has_match = np.repeat(row_counts > 0, copies)
        # Positions of matched far rows: for join row blocks with k matches,
        # enumerate flat[start], ..., flat[start + k - 1].
        if flat.size:
            block_starts = np.where(near_rows >= 0, starts[np.maximum(near_rows, 0)], 0)
            offsets = _within_block_offsets(copies)
            flat_positions = np.repeat(block_starts, copies) + offsets
            far_column[has_match] = flat[
                np.minimum(flat_positions, flat.size - 1)
            ][has_match]
        expanded[:, far_pos] = far_column
        indices = expanded
        if not far_is_fk_child:
            referenced = np.zeros(far_table.n_rows, dtype=bool)
            referenced[flat] = True
            orphan_rows = np.flatnonzero(~referenced)
            if orphan_rows.size:
                orphan_block = np.full((orphan_rows.size, n_tables), -1, dtype=np.int64)
                orphan_block[:, far_pos] = orphan_rows
                indices = np.vstack([indices, orphan_block])
    return JoinResult(database, plan, indices)


def _within_block_offsets(copies):
    """``[0..c0-1, 0..c1-1, ...]`` for block sizes ``copies``."""
    total = int(copies.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    block_starts = np.concatenate(([0], np.cumsum(copies)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(block_starts, copies)


def sample_full_outer_join(database, tables, n_samples, seed=0, max_rows=30_000_000):
    """Uniform sample of full-outer-join rows.

    Materialises when the exact join is small enough, otherwise samples
    root rows proportionally to their combination counts and expands one
    uniformly random combination each -- an unbiased join-row sample,
    mirroring how the paper trains RSPNs on samples of large joins.
    """
    size = full_outer_join_size(database, tables)
    if size <= max_rows:
        result = materialize_full_outer_join(database, tables, max_rows=max_rows)
        return result.subsample(n_samples, seed=seed)
    plan = JoinPlan(database.schema, tables)
    combos, orphan_terms = subtree_combos(database, plan)
    rng = np.random.default_rng(seed)
    match_cache = {}

    def matches(near, far, fk, far_is_fk_child):
        key = (near, far)
        if key not in match_cache:
            match_cache[key] = _matches_by_near_row(
                database.table(near), database.table(far), fk, far_is_fk_child
            )
        return match_cache[key]

    children_of = {}
    for step in plan.steps:
        children_of.setdefault(step[0], []).append(step)

    positions = {name: k for k, name in enumerate(plan.order)}
    weights = combos[plan.root]
    prob = weights / weights.sum()
    rows = np.full((n_samples, len(plan.order)), -1, dtype=np.int64)
    root_draws = rng.choice(weights.shape[0], size=n_samples, p=prob)
    for sample_idx in range(n_samples):
        frontier = [(plan.root, int(root_draws[sample_idx]))]
        while frontier:
            near, near_row = frontier.pop()
            rows[sample_idx, positions[near]] = near_row
            for _near, far, fk, far_is_fk_child in children_of.get(near, []):
                counts, starts, flat = matches(near, far, fk, far_is_fk_child)
                k = counts[near_row]
                if k == 0:
                    continue
                block = flat[starts[near_row] : starts[near_row] + k]
                far_weights = combos[far][block]
                pick = rng.choice(k, p=far_weights / far_weights.sum())
                frontier.append((far, int(block[pick])))
    return JoinResult(database, plan, rows)


def join_learning_columns(database, tables):
    """Column inventory an RSPN over ``tables`` learns (Section 4.1).

    Non-key attributes of every table, the tuple-factor columns of every
    FK edge whose parent lies in ``tables`` (raw counts; the ``F' >= 1``
    correction is applied by the inference transforms), plus one NULL
    indicator ``N_T`` per table when the set spans a join.
    """
    columns = []
    for name in tables:
        schema = database.table(name).schema
        for attr in schema.non_key_attributes:
            columns.append(qualify(name, attr.name))
    if len(tables) > 1:
        for name in tables:
            columns.append(indicator_qualified_name(name))
    return columns


def join_frame(join_result, columns):
    """Materialise the listed qualified columns of a join as a matrix."""
    if not columns:
        return np.empty((len(join_result), 0))
    return np.column_stack([join_result.qualified_column(c) for c in columns])
