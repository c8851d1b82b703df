"""Tests for the table builders (structure + tiny-scale smoke)."""
import pytest

from repro.experiments import tables


def test_table1_rows():
    t1 = tables.table1_datasets()
    assert list(t1["dataset"]) == [
        "lastfm_lite", "flixster_lite", "dblp_lite", "livejournal_lite",
    ]
    assert t1.loc[0, "n_nodes"] == 1300
    assert set(t1["type"]) == {"directed", "undirected"}
    # Edge counts close to the configured m (generator dedupes a little).
    assert t1.loc[0, "n_edges"] >= 0.9 * 14700


def test_table2_rows():
    t2 = tables.table2_budgets()
    assert len(t2) == 2
    lastfm = t2[t2["dataset"] == "lastfm_lite"].iloc[0]
    assert lastfm["budget_min"] == 100 and lastfm["budget_max"] == 1200
    assert lastfm["cpe_mean"] == pytest.approx(1.5)


@pytest.mark.parametrize("kernel", ["standard", "subsim"])
def test_run_all_tiny(spark, kernel):
    """The Table 3/6 inner loop end-to-end on the tiny preset."""
    recs = tables._run_all(spark, "tiny", 0.1, kernel=kernel)
    algos = {r.algo for r in recs}
    assert algos == {"RMA", "TI-CARM", "TI-CSRM"}
    for r in recs:
        assert r.wall_s > 0
        assert r.kernel == kernel


def test_table3_pivot_shape(spark):
    pivot, records = tables.table3_runtime(
        spark, datasets=("tiny",), alphas=[0.1, 0.3]
    )
    assert set(pivot["algo"]) == {"RMA", "TI-CARM", "TI-CSRM"}
    assert 0.1 in pivot.columns and 0.3 in pivot.columns
    assert len(records) == 6
    index_bytes = tables._pivot(records, "index_bytes")
    assert (index_bytes[[0.1, 0.3]] > 0).all().all()


def test_table5_rows(spark):
    rows, records = tables.table5_tau(spark, dataset="tiny", taus=[0.1, 0.45])
    rma_rows = rows[rows["algo"] == "RMA"]
    assert len(rma_rows) == 2
    assert set(rows["algo"]) == {"RMA", "TI-CARM", "TI-CSRM"}
