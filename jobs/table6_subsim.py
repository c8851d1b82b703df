"""Reproduce Table 6: running time with the SUBSIM RR-generation kernel."""
from _common import get_spark, print_table
from repro.experiments.tables import table6_subsim, _pivot

if __name__ == "__main__":
    spark = get_spark("table6")
    pivot, records = table6_subsim()
    print_table("Table 6: Running time (s) using SUBSIM", pivot.round(1))
    print_table("Revenue using SUBSIM", _pivot(records, "revenue").round(0))
    spark.stop()
