"""Reproduce Table 3: running time (s) under the linear cost model.

Runs RMA / TI-CARM / TI-CSRM on the LastFM and Flixster stand-ins across
α ∈ {0.1, …, 0.5}; also prints the revenue grid the runs produce (Fig. 1's
linear rows), since the same records feed EXPERIMENTS.md, and each run's
RR-index bytes (Fig. 4's memory).
"""
from _common import get_spark, print_table
from repro.experiments.tables import table3_runtime, _pivot

if __name__ == "__main__":
    spark = get_spark("table3")
    pivot, records = table3_runtime()
    print_table("Table 3: Running time (s), linear cost model", pivot.round(1))
    print_table("Revenue at the same settings", _pivot(records, "revenue").round(0))
    print_table("Seed counts (Fig. 3 analogue)", _pivot(records, "n_seeds"))
    index_mb = _pivot(records, "index_bytes").set_index(["dataset", "algo"]) / 2**20
    print_table(
        "RR-index MB: RMA's R1+R2 at return, TI's largest sample per "
        "advertiser summed (Fig. 4 analogue)",
        index_mb.round(2).reset_index(),
    )
    spark.stop()
