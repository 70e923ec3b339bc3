"""Seeded input generators for the four workloads.

Everything here is a pure function of ``(database, seed)``: the same
seed gives the same query texts and the same update ops.  The database
itself (and so the trained model) is *not* seeded by the benchmark --
it is the system's fixed input, generated with :data:`DATA_SEED`.
"""

from __future__ import annotations

from repro.engine.query import Aggregate, Predicate, Query

DATA_SEED = 0
ACCURACY_SEED = 20_200_313  # the fixed accuracy sample, independent of --seed

# The JOB-light shape distribution of repro.datasets.workloads: ``title``
# joined with dimension tables, predicates drawn from these pools.
IMDB_DIMENSIONS = (
    "movie_companies", "cast_info", "movie_info", "movie_info_idx",
    "movie_keyword",
)
IMDB_PREDICATE_POOLS = {
    "title": ["production_year", "kind_id"],
    "movie_companies": ["company_type_id", "company_id"],
    "cast_info": ["role_id"],
    "movie_info": ["info_type_id"],
    "movie_info_idx": ["info_type_id"],
    "movie_keyword": ["keyword_id"],
}

# Flights aggregates stay on columns that are positive wherever they
# are not NULL, so q-error and relative error are both defined.
FLIGHTS_MEASURES = ("distance", "air_time", "taxi_out", "taxi_in")
# The two dearest groupings (about 340 groups each) are a quarter of the
# requests, so the 90th percentile lies well inside a class of like
# requests, not on the edge between two; they sit half a cycle apart so
# the two connections seldom send both at once.
FLIGHTS_GROUPINGS = (
    ("origin", "day_of_week"), (), ("month",), ("unique_carrier", "month"),
    ("dest", "day_of_week"), ("unique_carrier",), ("dest",), ("origin",),
)
# The accuracy sample keeps to at most one grouping column: the exact
# engine's GROUP BY is a Python loop over groups, and the sample is
# recomputed on every run.
FLIGHTS_ACCURACY_GROUPINGS = (
    (), ("month",), ("unique_carrier",), ("dest",), ("origin",),
    ("year_date",),
)
FLIGHTS_FILTERS = (
    "year_date", "unique_carrier", "origin", "dest", "month", "day_of_week",
    "distance",
)


class Domains:
    """Decoded distinct values per column, looked up once."""

    def __init__(self, database):
        self.database = database
        self._values = {}

    def __call__(self, table, column):
        key = (table, column)
        if key not in self._values:
            values = self.database.table(table).distinct_values(
                column, decoded=True
            )
            self._values[key] = [
                v if isinstance(v, str) else float(v) for v in values
            ]
        return self._values[key]


def _pick(rng, values):
    return values[int(rng.integers(0, len(values)))]


def _range_or_point(rng, table, column, values):
    """A comparison / BETWEEN / IN / = predicate on an ordered column."""
    op = str(rng.choice(["<", ">", "<=", ">=", "BETWEEN", "=", "IN"]))
    if op == "BETWEEN":
        pair = sorted((_pick(rng, values), _pick(rng, values)))
        return Predicate(table, column, "BETWEEN", tuple(pair))
    if op == "IN":
        size = min(3, len(values))
        chosen = rng.choice(len(values), size=size, replace=False)
        return Predicate(
            table, column, "IN", tuple(values[int(i)] for i in sorted(chosen))
        )
    return Predicate(table, column, op, _pick(rng, values))


def _categorical(rng, table, column, values):
    if len(values) > 20 and rng.random() < 0.3:
        chosen = rng.choice(len(values), size=3, replace=False)
        return Predicate(
            table, column, "IN", tuple(values[int(i)] for i in sorted(chosen))
        )
    return Predicate(table, column, "=", _pick(rng, values))


def imdb_query(rng, domains, k, table_cycle, predicate_range=(1, 4)):
    """The ``k``-th JOB-light-style COUNT(*) join.

    The *shape* (how many tables, from ``table_cycle``; how many
    predicates) cycles with ``k`` through every combination, so any
    stretch of the sequence -- and any seed -- carries the same mix of
    cheap and dear requests; the seed picks which tables, which columns
    and which literals."""
    predicate_choices = predicate_range[1] - predicate_range[0] + 1
    n_tables = table_cycle[k % len(table_cycle)]
    n_predicates = (
        predicate_range[0] + (k // len(table_cycle)) % predicate_choices
    )
    dims = [
        str(d)
        for d in rng.choice(IMDB_DIMENSIONS, size=n_tables - 1, replace=False)
    ]
    tables = ["title"] + dims
    slots = [(t, c) for t in tables for c in IMDB_PREDICATE_POOLS[t]]
    rng.shuffle(slots)
    predicates = []
    for table, column in slots[:n_predicates]:
        values = domains(table, column)
        if column == "production_year":
            predicates.append(_range_or_point(rng, table, column, values))
        else:
            predicates.append(_categorical(rng, table, column, values))
    return Query(tuple(tables), predicates=tuple(predicates))


def flights_query(rng, domains, k, groupings=FLIGHTS_GROUPINGS):
    """The ``k``-th Figure-9-shaped aggregate: COUNT/AVG/SUM, 1-3
    filters, grouped by zero, one or two columns (one to hundreds of
    groups).  As in :func:`imdb_query` the shape cycles with ``k`` and
    the seed picks measures, filter columns and literals."""
    f = "flights"
    grouping = groupings[k % len(groupings)]
    function = ("COUNT", "AVG", "SUM")[(k // len(groupings)) % 3]
    # At least one filter: an unfiltered shape has a handful of texts.
    n_filters = 1 + (k // (3 * len(groupings))) % 3
    aggregate = (
        Aggregate.count() if function == "COUNT"
        else Aggregate(function, f, str(rng.choice(FLIGHTS_MEASURES)))
    )
    candidates = [c for c in FLIGHTS_FILTERS if c not in grouping]
    chosen = rng.choice(len(candidates), size=n_filters, replace=False)
    predicates = []
    for i in sorted(chosen):
        column = candidates[int(i)]
        values = domains(f, column)
        if isinstance(values[0], str):
            predicates.append(Predicate(f, column, "=", _pick(rng, values)))
        else:
            predicates.append(_range_or_point(rng, f, column, values))
    return Query(
        (f,), aggregate=aggregate, predicates=tuple(predicates),
        group_by=tuple((f, c) for c in grouping),
    )


def distinct_queries(make, count, render):
    """``count`` queries, the ``k``-th from ``make(k)``, with pairwise
    different SQL text -- the result cache is keyed on the text, so it
    can never hit."""
    queries, texts, seen = [], [], set()
    attempts = 0
    while len(queries) < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError(f"cannot generate {count} distinct queries")
        query = make(len(queries))
        text = render(query)
        if text not in seen:
            seen.add(text)
            queries.append(query)
            texts.append(text)
    return queries, texts


def repeating_order(rng, n_calls, repeat_share=0.25, window=32):
    """Index sequence for ``optimizer_inproc``: each call is, with
    probability ``repeat_share``, a verbatim repeat of one of the last
    ``window`` calls (recent enough to still be in the 128-entry plan
    cache), else the next unseen query."""
    order, fresh = [], 0
    for _ in range(n_calls):
        if order and rng.random() < repeat_share:
            order.append(order[-int(rng.integers(1, min(window, len(order)) + 1))])
        else:
            order.append(fresh)
            fresh += 1
    return order


def sampled_row(rng, table):
    """A raw-value row of the data columns of a random tuple.  Keys and
    the ``F__`` tuple-factor columns are left out: a fresh tuple has no
    join partners yet, and a copied factor of 2 would make it count as
    half a row."""
    pick = int(rng.integers(0, table.n_rows))
    row = {}
    for attribute in table.schema.non_key_attributes:
        if attribute.name.startswith("F__"):
            continue
        value = table.decode_value(
            attribute.name, table.columns[attribute.name][pick]
        )
        row[attribute.name] = (
            value if value is None or isinstance(value, str) else float(value)
        )
    return row


def update_requests(rng, database, n_requests, ops_per_request=64,
                    tables=("title", "cast_info"), delete_share=0.2):
    """``POST /update`` bodies: 80 % inserts of rows sampled from the
    live tables, 20 % deletes of a row inserted by an *earlier* request
    (so it was acknowledged before its delete is sent)."""
    requests, deletable = [], []
    for _ in range(n_requests):
        ops, inserted_now = [], []
        for _ in range(ops_per_request):
            if deletable and rng.random() < delete_share:
                table, row = deletable.pop(int(rng.integers(0, len(deletable))))
                ops.append({"op": "delete", "table": table, "row": row})
            else:
                table = str(rng.choice(tables))
                row = sampled_row(rng, database.table(table))
                ops.append({"op": "insert", "table": table, "row": row})
                inserted_now.append((table, row))
        deletable.extend(inserted_now)
        requests.append(ops)
    return requests
