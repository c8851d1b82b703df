"""Reproduce Table 5: running time as τ varies (linear model, α=0.1)."""
from _common import get_spark, print_table
from repro.experiments.tables import table5_tau

if __name__ == "__main__":
    spark = get_spark("table5")
    rows, _ = table5_tau()
    print_table("Table 5: Running time (s) when τ changes", rows.round(2))
    spark.stop()
