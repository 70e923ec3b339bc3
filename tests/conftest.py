"""Shared fixtures: small synthetic databases used across the test suite,
plus the session-wide store-mapping leak hunter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.join import compute_tuple_factors
from repro.engine.table import Database, Table
from repro.schema.schema import Attribute, SchemaGraph, TableSchema


def mapped_store_files():
    """Paths of model store files currently mmapped into this process."""
    try:
        with open("/proc/self/maps") as handle:
            maps = handle.read()
    except OSError:  # non-Linux: nothing to hunt
        return []
    return sorted(
        {
            line.split(None, 5)[5].strip()
            for line in maps.splitlines()
            if line.count(" ") >= 5 and line.rstrip().endswith(".rspn")
        }
    )


@pytest.fixture(scope="session", autouse=True)
def no_leaked_store_mappings():
    """Fail the run if a model store mapping survives the session.

    ``ModelStore.close()`` defers the unmap while tree views are alive
    (finalizer ordering), so a collect + sweep runs first: anything
    still mapped afterwards is a real leak -- a store nobody closed or
    a view pinned by a surviving global.
    """
    before = set(mapped_store_files())
    yield
    import gc

    from repro.core import modelstore

    gc.collect()
    modelstore.sweep_pending()
    survivors = [p for p in mapped_store_files() if p not in before]
    assert not survivors, (
        f"model store files left mmapped by this test session: {survivors}"
    )


def build_customer_orders(
    n_customers=2_000, seed=0, with_orderlines=False, order_rate_eu=3.0,
    order_rate_asia=1.0,
):
    """The paper's running example: customer <- orders (<- orderline).

    Planted correlations: region determines age distribution and order
    rate; region of the customer influences the order channel; the
    channel influences the number of orderlines.
    """
    rng = np.random.default_rng(seed)
    schema = SchemaGraph()
    schema.add_table(
        TableSchema(
            "customer",
            [
                Attribute("c_id", "key"),
                Attribute("region", "categorical"),
                Attribute("age", "numeric"),
            ],
            primary_key="c_id",
        )
    )
    schema.add_table(
        TableSchema(
            "orders",
            [
                Attribute("o_id", "key"),
                Attribute("c_id", "key"),
                Attribute("channel", "categorical"),
            ],
            primary_key="o_id",
        )
    )
    region = rng.choice(["EU", "ASIA"], n_customers, p=[0.4, 0.6])
    age = np.where(
        region == "EU", rng.normal(60, 10, n_customers), rng.normal(30, 8, n_customers)
    ).round()
    per_customer = np.where(
        region == "EU",
        rng.poisson(order_rate_eu, n_customers),
        rng.poisson(order_rate_asia, n_customers),
    )
    owner = np.repeat(np.arange(n_customers), per_customer)
    n_orders = owner.shape[0]
    p_online = np.where(region[owner] == "EU", 0.8, 0.3)
    channel = np.where(rng.random(n_orders) < p_online, "ONLINE", "STORE")

    database = Database(schema)
    database.add_table(
        Table.from_columns(
            schema.table("customer"),
            {
                "c_id": np.arange(n_customers, dtype=float),
                "region": list(region),
                "age": age,
            },
        )
    )
    database.add_table(
        Table.from_columns(
            schema.table("orders"),
            {
                "o_id": np.arange(n_orders, dtype=float),
                "c_id": owner.astype(float),
                "channel": list(channel),
            },
        )
    )
    if with_orderlines:
        schema.add_table(
            TableSchema(
                "orderline",
                [
                    Attribute("ol_id", "key"),
                    Attribute("o_id", "key"),
                    Attribute("qty", "numeric"),
                ],
                primary_key="ol_id",
            )
        )
        per_order = np.where(
            channel == "ONLINE", rng.poisson(2.5, n_orders), rng.poisson(1.2, n_orders)
        )
        ol_owner = np.repeat(np.arange(n_orders), per_order)
        n_lines = ol_owner.shape[0]
        database.add_table(
            Table.from_columns(
                schema.table("orderline"),
                {
                    "ol_id": np.arange(n_lines, dtype=float),
                    "o_id": ol_owner.astype(float),
                    "qty": rng.integers(1, 10, n_lines).astype(float),
                },
            )
        )
    schema.add_foreign_key("customer", "orders", "c_id")
    if with_orderlines:
        schema.add_foreign_key("orders", "orderline", "o_id")
    compute_tuple_factors(database)
    return database


@pytest.fixture(scope="session")
def customer_orders_db():
    return build_customer_orders()

@pytest.fixture(scope="session")
def three_table_db():
    return build_customer_orders(n_customers=1_500, with_orderlines=True, seed=3)


@pytest.fixture(scope="session")
def tiny_imdb():
    from repro.datasets import imdb

    return imdb.generate(scale=0.03, seed=1)


@pytest.fixture(scope="session")
def tiny_flights():
    from repro.datasets import flights

    return flights.generate(scale=0.02, seed=1)


@pytest.fixture(scope="session")
def tiny_ssb():
    from repro.datasets import ssb

    return ssb.generate(scale=0.05, seed=1)
