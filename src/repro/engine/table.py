"""Dictionary-encoded column-store tables and the database container.

Every column is stored as a ``float64`` numpy array.  Categorical values
are dictionary-encoded to integer codes (exact in float64 far beyond any
vocabulary size used here); ``NaN`` represents SQL NULL uniformly for
both categorical and numeric columns.  This single representation keeps
the exact executor, the RSPN learner and all baselines on one data path.
"""

from __future__ import annotations

import numpy as np

from repro.schema.schema import Attribute, TableSchema


class Table:
    """One table: a :class:`TableSchema` plus encoded column arrays."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.columns: dict[str, np.ndarray] = {}
        self.vocabularies: dict[str, list] = {}
        self._vocab_index: dict[str, dict] = {}
        self.n_rows = 0

    @property
    def name(self):
        return self.schema.name

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, schema: TableSchema, columns: dict):
        """Build a table from raw (unencoded) column data.

        ``columns`` maps attribute name to a sequence; ``None`` entries
        and ``NaN`` floats become NULL.  Categorical columns may contain
        arbitrary hashable values (strings, ints); they are dictionary
        encoded in order of first appearance.
        """
        table = cls(schema)
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise ValueError("all columns must have equal length")
        table.n_rows = lengths.pop() if lengths else 0
        for attr in schema.attributes:
            if attr.name not in columns:
                raise KeyError(f"missing column {attr.name!r} for table {schema.name!r}")
            raw = columns[attr.name]
            if attr.kind == "categorical":
                table._set_categorical(attr.name, raw)
            else:
                table.columns[attr.name] = _to_float_array(raw)
        return table

    def _set_categorical(self, name, raw):
        vocab = self.vocabularies.setdefault(name, [])
        index = self._vocab_index.setdefault(name, {})
        codes = np.empty(len(raw), dtype=float)
        for i, value in enumerate(raw):
            if value is None or (isinstance(value, float) and np.isnan(value)):
                codes[i] = np.nan
                continue
            code = index.get(value)
            if code is None:
                code = len(vocab)
                vocab.append(value)
                index[value] = code
            codes[i] = code
        self.columns[name] = codes

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    def is_categorical(self, column):
        return column in self.vocabularies

    def encode_value(self, column, value):
        """Encode one raw constant for use in predicates.

        Returns ``None`` when a categorical constant does not occur in
        the vocabulary (the predicate then selects nothing for ``=`` /
        everything for ``<>``).
        """
        if value is None:
            return None
        if column in self.vocabularies:
            return self._vocab_index[column].get(value)
        return float(value)

    def decode_value(self, column, code):
        if code is None or (isinstance(code, float) and np.isnan(code)):
            return None
        if column in self.vocabularies:
            return self.vocabularies[column][int(code)]
        return code

    def distinct_values(self, column, decoded=False, mask=None):
        """Sorted distinct non-NULL values of a column (of the rows
        ``mask`` selects, if given)."""
        values = self.columns[column]
        if mask is not None:
            values = values[mask]
        codes = np.unique(values[~np.isnan(values)])
        if decoded and column in self.vocabularies:
            return [self.vocabularies[column][int(c)] for c in codes]
        return codes

    def null_fraction(self, column):
        if self.n_rows == 0:
            return 0.0
        return float(np.isnan(self.columns[column]).mean())

    # ------------------------------------------------------------------
    # Mutation (used by the update experiments)
    # ------------------------------------------------------------------
    def add_column(self, name, values, kind="numeric"):
        """Attach a derived column (e.g. a tuple factor) to this table."""
        values = _to_float_array(values)
        if self.n_rows and len(values) != self.n_rows:
            raise ValueError("column length mismatch")
        if not self.schema.has_attribute(name):
            self.schema.attributes.append(Attribute(name, kind))
        self.columns[name] = values

    def append_rows(self, columns: dict):
        """Append raw rows (same format as :meth:`from_columns`)."""
        new_sizes = {len(values) for values in columns.values()}
        if len(new_sizes) != 1:
            raise ValueError("all appended columns must have equal length")
        extra = new_sizes.pop()
        for attr in self.schema.attributes:
            if attr.name not in columns:
                raise KeyError(f"missing column {attr.name!r} in append")
            raw = columns[attr.name]
            if attr.name in self.vocabularies:
                old = self.columns[attr.name]
                self._append_categorical(attr.name, raw)
                assert len(self.columns[attr.name]) == len(old) + extra
            else:
                self.columns[attr.name] = np.concatenate(
                    [self.columns[attr.name], _to_float_array(raw)]
                )
        self.n_rows += extra

    def _append_categorical(self, name, raw):
        vocab = self.vocabularies[name]
        index = self._vocab_index[name]
        codes = np.empty(len(raw), dtype=float)
        for i, value in enumerate(raw):
            if value is None or (isinstance(value, float) and np.isnan(value)):
                codes[i] = np.nan
                continue
            code = index.get(value)
            if code is None:
                code = len(vocab)
                vocab.append(value)
                index[value] = code
            codes[i] = code
        self.columns[name] = np.concatenate([self.columns[name], codes])

    def select(self, mask_or_rows):
        """New table holding the selected rows (shares schema/vocabs)."""
        selected = Table(self.schema)
        selected.vocabularies = self.vocabularies
        selected._vocab_index = self._vocab_index
        for name, values in self.columns.items():
            selected.columns[name] = values[mask_or_rows]
        any_column = next(iter(selected.columns.values()), np.empty(0))
        selected.n_rows = len(any_column)
        return selected

    def row(self, i, columns=None):
        names = columns if columns is not None else list(self.columns)
        return {name: self.columns[name][i] for name in names}

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return f"Table({self.name!r}, rows={self.n_rows}, cols={len(self.columns)})"


class Database:
    """A schema graph plus the tables holding its data."""

    def __init__(self, schema_graph):
        self.schema = schema_graph
        self.tables: dict[str, Table] = {}

    def add_table(self, table: Table):
        if table.name not in self.schema.tables:
            raise KeyError(f"table {table.name!r} not in schema")
        self.tables[table.name] = table
        return table

    def table(self, name) -> Table:
        return self.tables[name]

    def __contains__(self, name):
        return name in self.tables

    def table_names(self):
        return list(self.tables)

    def total_rows(self):
        return sum(t.n_rows for t in self.tables.values())

    def __repr__(self):
        parts = ", ".join(f"{t.name}={t.n_rows}" for t in self.tables.values())
        return f"Database({parts})"


def _to_float_array(raw):
    if isinstance(raw, np.ndarray) and raw.dtype == float:
        return raw.astype(float, copy=True)
    values = np.empty(len(raw), dtype=float)
    for i, value in enumerate(raw):
        values[i] = np.nan if value is None else float(value)
    return values
