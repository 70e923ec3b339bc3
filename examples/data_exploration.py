"""Data exploration with a generative RSPN: sampling, clusters, MPE.

The paper's conclusion sketches this use: "SPNs naturally provide a
notion of correlated clusters that can also be used for suggesting
interesting patterns in data exploration".  This example exercises the
generative side of the model on the Flights data:

1. draw synthetic flights from the learned joint distribution and
   compare their marginals to the real data,
2. draw *conditional* samples ("what do long-haul flights look like?"),
3. ask for the most probable explanation (MPE) of partial evidence --
   the model's archetype of a severely delayed flight,
4. persist the model and reload it, showing the saved ensemble answers
   identically.

Run with: ``python examples/data_exploration.py``
"""

import numpy as np

from repro import DeepDB
from repro.core.ensemble import EnsembleConfig
from repro.core.ranges import Range
from repro.core.sampling import draw, most_probable_explanation
from repro.datasets import flights


def _decode(table, column, code):
    if code is None or (isinstance(code, float) and np.isnan(code)):
        return "NULL"
    return table.decode_value(column, code)


def main():
    print("Generating the Flights data set and learning the model...")
    database = flights.generate(scale=0.1, seed=0)
    deepdb = DeepDB.learn(database, EnsembleConfig(sample_size=25_000))
    rspn = deepdb.ensemble.rspns[0]
    table = database.table("flights")

    print("\n1. Unconditional synthetic flights vs the real data")
    synthetic = draw(rspn, 2_000, seed=1)
    column = rspn.column_index["flights.distance"]
    real = table.columns["distance"]
    print(f"   mean distance   real {np.nanmean(real):8.1f}   "
          f"synthetic {np.nanmean(synthetic[:, column]):8.1f}")
    column = rspn.column_index["flights.arr_delay"]
    real = table.columns["arr_delay"]
    print(f"   mean arr. delay real {np.nanmean(real):8.1f}   "
          f"synthetic {np.nanmean(synthetic[:, column]):8.1f}")

    print("\n2. Conditional samples: flights with distance > 2000")
    long_haul = draw(
        rspn, 1_000,
        conditions={"flights.distance": Range.from_operator(">", 2000.0)},
        seed=2,
    )
    air_time = long_haul[:, rspn.column_index["flights.air_time"]]
    all_air_time = synthetic[:, rspn.column_index["flights.air_time"]]
    print(f"   mean air time overall   : {np.nanmean(all_air_time):6.1f}")
    print(f"   mean air time long-haul : {np.nanmean(air_time):6.1f} "
          "(correlation learned from data, no query feedback)")

    print("\n3. MPE: the archetype of a badly delayed flight")
    assignment, _score = most_probable_explanation(
        rspn, {"flights.arr_delay": Range.from_operator(">", 60.0)}
    )
    for name in ("flights.unique_carrier", "flights.origin",
                 "flights.month", "flights.dep_delay"):
        raw = assignment.get(name)
        column = name.split(".", 1)[1]
        print(f"   {column:<16s}: {_decode(table, column, raw)}")

    print("\n4. Persistence round-trip")
    deepdb.save("/tmp/flights_ensemble.rspn")
    reloaded = DeepDB.load("/tmp/flights_ensemble.rspn", database)
    sql = "SELECT COUNT(*) FROM flights WHERE flights.arr_delay > 60"
    original = deepdb.cardinality(sql)
    restored = reloaded.cardinality(sql)
    print(f"   estimate before save : {original:,.0f}")
    print(f"   estimate after load  : {restored:,.0f}")
    assert original == restored


if __name__ == "__main__":
    main()
