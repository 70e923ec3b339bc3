"""Schema graph: tables, attributes and foreign-key relationships.

Terminology follows the paper.  A foreign key relationship ``S <- T``
means the *parent* table ``S`` exposes a primary key that the *child*
table ``T`` references; the tuple factor ``F_{S<-T}`` stored on ``S``
counts how many ``T`` rows reference each ``S`` row (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

CATEGORICAL = "categorical"
NUMERIC = "numeric"
KEY = "key"


@dataclass(frozen=True)
class Attribute:
    """A single column of a table.

    ``kind`` is one of ``categorical`` (dictionary-encoded), ``numeric``
    (continuous or integer measure) or ``key`` (primary/foreign key;
    excluded from learned models just like in the paper).
    """

    name: str
    kind: str = CATEGORICAL

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC, KEY):
            raise ValueError(f"unknown attribute kind: {self.kind!r}")

    @property
    def is_key(self):
        return self.kind == KEY


@dataclass(frozen=True)
class ForeignKey:
    """Foreign-key edge ``parent <- child`` (``child.fk_column`` references
    ``parent.pk_column``)."""

    parent: str
    child: str
    fk_column: str
    pk_column: str

    @property
    def name(self):
        return f"{self.parent}<-{self.child}"

    @property
    def factor_name(self):
        """Name of the tuple-factor column ``F_{parent<-child}`` stored on
        the parent table."""
        return f"F__{self.parent}__{self.child}"


@dataclass
class TableSchema:
    """Schema of one table: attributes, primary key, row identity."""

    name: str
    attributes: list = field(default_factory=list)
    primary_key: str | None = None

    def attribute(self, name):
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"table {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name):
        return any(attr.name == name for attr in self.attributes)

    @property
    def non_key_attributes(self):
        return [attr for attr in self.attributes if not attr.is_key]


class SchemaGraph:
    """A collection of tables plus foreign-key edges.

    The graph of tables connected by FK edges must be a forest for the
    query class of the paper (equi-joins along FK paths); the helper
    methods below assume and validate this.
    """

    def __init__(self):
        self.tables: dict[str, TableSchema] = {}
        self.foreign_keys: list[ForeignKey] = []

    def add_table(self, table: TableSchema):
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table
        return table

    def add_foreign_key(self, parent, child, fk_column, pk_column=None):
        if parent not in self.tables or child not in self.tables:
            raise KeyError("both tables must be registered before the FK")
        if pk_column is None:
            pk_column = self.tables[parent].primary_key
            if pk_column is None:
                raise ValueError(f"table {parent!r} has no primary key")
        fk = ForeignKey(parent=parent, child=child, fk_column=fk_column, pk_column=pk_column)
        self.foreign_keys.append(fk)
        return fk

    def table(self, name):
        return self.tables[name]

    def foreign_key(self, parent, child):
        for fk in self.foreign_keys:
            if fk.parent == parent and fk.child == child:
                return fk
        raise KeyError(f"no foreign key {parent!r} <- {child!r}")

    def edges_between(self, table_names):
        """All FK edges whose endpoints both lie in ``table_names``."""
        names = set(table_names)
        return [fk for fk in self.foreign_keys if fk.parent in names and fk.child in names]

    def children_of(self, table_name):
        return [fk for fk in self.foreign_keys if fk.parent == table_name]

    def parents_of(self, table_name):
        return [fk for fk in self.foreign_keys if fk.child == table_name]

    def as_networkx(self):
        graph = nx.Graph()
        graph.add_nodes_from(self.tables)
        for fk in self.foreign_keys:
            graph.add_edge(fk.parent, fk.child, fk=fk)
        return graph

    def is_connected(self, table_names):
        names = list(table_names)
        if len(names) <= 1:
            return True
        sub = self.as_networkx().subgraph(names)
        return nx.is_connected(sub)

    def join_tree(self, table_names, root=None):
        """Join tree over ``table_names``: ``(root, [(fk, parent_side_table)])``.

        Returns the chosen root table plus the FK edges of the induced
        subtree in BFS order from the root.  Raises if the tables are not
        connected or the induced subgraph is not a tree (the query class
        of the paper never needs cyclic join graphs).
        """
        names = list(dict.fromkeys(table_names))
        if not names:
            raise ValueError("join tree of empty table set")
        sub = self.as_networkx().subgraph(names)
        if not nx.is_connected(sub):
            raise ValueError(f"tables {names} are not connected by FK edges")
        if sub.number_of_edges() != len(names) - 1:
            raise ValueError(f"join graph over {names} is not a tree")
        if root is None:
            root = names[0]
        edges = []
        for near, far in nx.bfs_edges(sub, root):
            edges.append(sub.edges[near, far]["fk"])
        return root, edges

    def join_order(self, table_names, root=None):
        """BFS table order of the join tree, starting at ``root``."""
        root, edges = self.join_tree(table_names, root=root)
        order = [root]
        for fk in edges:
            nxt = fk.child if fk.parent in order else fk.parent
            order.append(nxt)
        return order
