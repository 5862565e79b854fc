"""Oracle-SQL parity for every SQL-expressible query (SURVEY.md §5.2-3),
mimicking the driver: sort columns by name, order-insensitive value compare.
Runs at sf0.001 for speed; the driver re-runs at sf0.01."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _sql_names():
    from gitprov_ray.queries import ORACLE_SQL

    return sorted(ORACLE_SQL)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", _sql_names())
def test_query_matches_oracle(name, con):
    from gitprov_ray.queries import ORACLE_SQL, QUERIES

    res = QUERIES[name](SF)
    rdf = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    odf = con.sql(ORACLE_SQL[name]).df()
    a, b = _norm(rdf), _norm(odf)
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b)
    for c in a.columns:
        av, bv = a[c], b[c]
        # driver-strict: the value hash is dtype-sensitive (int64 5 vs
        # float64 5.0; datetime ns vs us), so pin EXACT dtype equality
        assert str(av.dtype) == str(bv.dtype), \
            f"{c}: engine {av.dtype} vs oracle {bv.dtype}"
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            assert np.allclose(av.astype(float), bv.astype(float),
                               rtol=1e-9, equal_nan=True), c
        else:
            assert (av.astype(str) == bv.astype(str)).all(), c


@pytest.mark.usefixtures("ray_session")
def test_rows_only_queries_execute():
    """Non-SQL-expressible ops: execute and sanity-check shapes."""
    from gitprov_ray.queries import ORACLE_SQL, QUERIES

    for name, fn in QUERIES.items():
        if name in ORACLE_SQL or name == "kg_flagship_triples":
            continue
        out = fn(SF)
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
        assert len(df) >= 0, name
        if name in ("q_langid_docs", "q_simhash_docs"):
            assert len(df) == 500, name


@pytest.mark.usefixtures("ray_session")
def test_multiprobe_recall_at_least_single_probe():
    """Multi-probe LSH must recover at least the single-probe neighbor
    set's brute-force recall (it searches a superset of buckets)."""
    from gitprov_ray.queries import QUERIES

    bf = QUERIES["q_ann_topk"](SF).to_pandas()
    single = QUERIES["q_ann_lsh_topk"](SF).to_pandas()
    multi = QUERIES["q_ann_lsh_multiprobe"](SF).to_pandas()
    truth = set(map(tuple, bf[["query_id", "neighbor_id"]].to_numpy()))
    r1 = len(set(map(tuple,
                     single[["query_id", "neighbor_id"]].to_numpy()))
             & truth) / len(truth)
    rm = len(set(map(tuple,
                     multi[["query_id", "neighbor_id"]].to_numpy()))
             & truth) / len(truth)
    assert rm >= r1


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name,fmt,table", [
    ("q_sqlite_roundtrip_events", "sqlite", "events"),
    ("q_delta_roundtrip_events", "delta", "events"),
    ("q_iceberg_roundtrip_docs", "iceberg", "documents"),
    ("q_xlsx_roundtrip_events", "xlsx", "events"),
    ("q_avro_roundtrip_events", "avro", "events"),
    ("q_webdataset_roundtrip", "wds", "documents")])
def test_roundtrip_queries_leave_no_scratch_dir(name, fmt, table, con,
                                                tmp_path):
    """Round-trip queries write to a fresh temp dir per call and remove it
    (``queries._scratch_dir``): a dir shared per ``sf_dir`` let concurrent
    runs delete each other's files. The input is copied to a fresh
    ``sf_dir`` so no earlier run's dir can hide a leak."""
    import glob
    import shutil
    import tempfile

    from gitprov_ray.queries import ORACLE_SQL, QUERIES

    sf = tmp_path / "sf"
    sf.mkdir()
    shutil.copy(f"{SF}/{table}.parquet", sf / f"{table}.parquet")
    roots = {"/tmp", tempfile.gettempdir()}

    def scratch():
        return {p for r in roots for p in glob.glob(f"{r}/gitprov_{fmt}_*")}

    before = scratch()
    res = QUERIES[name](str(sf))
    assert scratch() <= before
    if not isinstance(res, pd.DataFrame):  # a materialized Dataset
        res = res.to_pandas()
    a, b = _norm(res), _norm(con.sql(ORACLE_SQL[name]).df())
    pd.testing.assert_frame_equal(a, b)
