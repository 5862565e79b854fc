"""SQL front door: differential testing against DuckDB on the same
parquet — every battery query must match row-for-row after canonical
sort (floats to 9 decimals)."""

import duckdb
import pandas as pd
import pytest

from gitprov_ray import sqlfront

SF = "/root/testdata/sf0.001"
TABLES = {t: f"{SF}/{t}.parquet"
          for t in ("events", "documents", "orders", "customer",
                    "nation", "region")}

BATTERY = [
    "SELECT event_type, COUNT(*) AS n FROM events GROUP BY event_type "
    "ORDER BY n DESC, event_type",

    "SELECT user_id, COUNT(*) AS n, MIN(value) AS lo, MAX(value) AS hi "
    "FROM events WHERE event_type IN ('click', 'view') "
    "GROUP BY user_id HAVING COUNT(*) > 3 ORDER BY n DESC, user_id "
    "LIMIT 25",

    "SELECT lang, SUM(n_chars) AS chars, AVG(n_chars) AS mean_chars "
    "FROM documents WHERE n_chars BETWEEN 50 AND 5000 "
    "GROUP BY lang ORDER BY lang",

    "SELECT doc_id, n_chars FROM documents "
    "WHERE lang = 'en' AND NOT n_chars < 100 "
    "ORDER BY n_chars DESC, doc_id LIMIT 10",

    "SELECT source, COUNT(*) AS n FROM documents "
    "WHERE source LIKE 'sr%' GROUP BY source ORDER BY source",

    # empty result set through the whole aggregate path
    "SELECT source, COUNT(*) AS n FROM documents "
    "WHERE source LIKE 'zz%' GROUP BY source ORDER BY source",

    "SELECT COUNT(*) AS n, SUM(value) AS tot FROM events "
    "WHERE value > 0 AND event_type <> 'error'",

    "SELECT DISTINCT event_type FROM events ORDER BY event_type",

    "SELECT event_id, value * 2 + 1 AS v2 FROM events "
    "WHERE event_id % 97 = 0 ORDER BY event_id",

    "SELECT o_custkey, COUNT(*) AS n, SUM(o_totalprice) AS tot "
    "FROM orders GROUP BY o_custkey "
    "ORDER BY tot DESC, o_custkey LIMIT 15",

    "SELECT n_name, COUNT(*) AS n FROM customer "
    "JOIN nation ON customer.c_nationkey = nation.n_nationkey "
    "GROUP BY n_name ORDER BY n DESC, n_name",

    # COUNT(DISTINCT): exact; the argument joins the partial's group keys
    "SELECT event_type, COUNT(DISTINCT user_id) AS nu, COUNT(*) AS n "
    "FROM events GROUP BY event_type ORDER BY event_type",

    "SELECT COUNT(DISTINCT event_type) AS nt, "
    "COUNT(DISTINCT user_id % 7) AS nb FROM events",

    "SELECT lang, COUNT(DISTINCT source) AS ns FROM documents "
    "WHERE n_chars > 50 GROUP BY lang "
    "HAVING COUNT(DISTINCT source) > 2 ORDER BY lang",

    # RIGHT / FULL outer joins (NULL-bearing group keys + aggregates)
    "SELECT n_name, COUNT(c_custkey) AS n FROM customer "
    "RIGHT JOIN nation ON c_nationkey = n_nationkey "
    "GROUP BY n_name ORDER BY n_name",

    "SELECT c_mktsegment, COUNT(*) AS n, "
    "COUNT(DISTINCT c_nationkey) AS nn "
    "FROM orders FULL JOIN customer ON o_custkey = c_custkey "
    "GROUP BY c_mktsegment ORDER BY c_mktsegment",

    "SELECT r_name, COUNT(*) AS n FROM customer "
    "JOIN nation ON customer.c_nationkey = nation.n_nationkey "
    "JOIN region ON nation.n_regionkey = region.r_regionkey "
    "GROUP BY r_name ORDER BY r_name",

    "SELECT event_type, user_id FROM events "
    "WHERE (value > 40 OR event_type = 'error') AND user_id < 50 "
    "ORDER BY event_type, user_id, value LIMIT 30",

    "SELECT event_type, SUM(CASE WHEN value > 50 THEN 1 ELSE 0 END) "
    "AS hi, COUNT(*) AS n FROM events GROUP BY event_type "
    "ORDER BY event_type",

    "SELECT event_id, CASE WHEN value < 0 THEN 'neg' "
    "WHEN value < 50 THEN 'mid' ELSE 'hi' END AS band FROM events "
    "WHERE event_id < 50 ORDER BY event_id",

    # LEFT JOIN: COUNT(col) counts matches only, COUNT(*) all rows
    "SELECT c_mktsegment, COUNT(*) AS rows_out, "
    "COUNT(o_orderkey) AS with_order FROM customer "
    "LEFT JOIN orders ON customer.c_custkey = orders.o_custkey "
    "GROUP BY c_mktsegment ORDER BY c_mktsegment",

    "SELECT UPPER(lang) AS l, SUM(LENGTH(text)) AS chars FROM documents "
    "GROUP BY lang ORDER BY l",

    "SELECT doc_id, SUBSTR(source, 1, 3) AS pre, "
    "ROUND(n_chars / 100, 1) AS hundreds FROM documents "
    "WHERE ABS(doc_id - 50) < 5 ORDER BY doc_id",

    "SELECT event_type, COALESCE(MIN(value), 0) AS lo FROM events "
    "WHERE value > 99990 GROUP BY event_type ORDER BY event_type",

    # truncated modulo on NEGATIVE dividends (SQL sign-of-dividend rule;
    # pandas floored % silently diverged — ADVICE r04)
    "SELECT event_id, (event_id - 50) % 7 AS m, (0 - event_id) % 3 AS m2 "
    "FROM events WHERE event_id < 100 ORDER BY event_id",

    # empty-result string MIN/MAX through the GROUP BY path: the
    # synthesized empty partial must keep VARCHAR dtype, not float64
    "SELECT lang, MIN(source) AS lo_src, MAX(source) AS hi_src "
    "FROM documents WHERE n_chars < 0 GROUP BY lang ORDER BY lang",

    # same shape, non-empty (string aggregate baseline)
    "SELECT lang, MIN(source) AS lo_src, MAX(source) AS hi_src "
    "FROM documents GROUP BY lang ORDER BY lang",

    # --- GROUP BY expressions (round-5: hidden-key materialization)
    "SELECT user_id % 10 AS cohort, COUNT(*) AS n, SUM(value) AS tot "
    "FROM events GROUP BY user_id % 10 ORDER BY cohort",

    "SELECT SUBSTR(source, 1, 3) AS pre, COUNT(*) AS n "
    "FROM documents GROUP BY SUBSTR(source, 1, 3) ORDER BY pre",

    "SELECT CASE WHEN value < 50 THEN 'lo' ELSE 'hi' END AS band, "
    "COUNT(*) AS n, MIN(value) AS v0 FROM events "
    "GROUP BY CASE WHEN value < 50 THEN 'lo' ELSE 'hi' END "
    "ORDER BY band",

    # expression key + HAVING over the aggregate
    "SELECT event_id % 7 AS b, COUNT(*) AS n FROM events "
    "GROUP BY event_id % 7 HAVING COUNT(*) > 1000 ORDER BY b",

    # GROUP BY without aggregates == DISTINCT over the keys
    "SELECT user_id % 5 AS g FROM events GROUP BY user_id % 5 "
    "ORDER BY g",

    # --- derived tables
    "SELECT t, COUNT(*) AS n FROM "
    "(SELECT UPPER(event_type) AS t, value FROM events "
    "WHERE value > 10) d GROUP BY t ORDER BY t",

    # aggregated derived table re-aggregated outside
    "SELECT COUNT(*) AS groups, SUM(n) AS total FROM "
    "(SELECT event_type, COUNT(*) AS n FROM events "
    "GROUP BY event_type) s",

    # derived table joined to a base table
    "SELECT n_name, big.cnt AS cnt FROM "
    "(SELECT c_nationkey AS k, COUNT(*) AS cnt FROM customer "
    "GROUP BY c_nationkey) big "
    "JOIN nation ON big.k = nation.n_nationkey "
    "ORDER BY cnt DESC, n_name LIMIT 8",

    # derived table with WHERE outside and inside
    "SELECT d.doc_id, d.l2 FROM "
    "(SELECT doc_id, n_chars * 2 AS l2, lang FROM documents "
    "WHERE n_chars > 100) AS d "
    "WHERE d.lang = 'en' ORDER BY d.l2 DESC, d.doc_id LIMIT 12",

    # high-cardinality COUNT(DISTINCT): about one distinct value per row
    # of each group, next to an argument that is NULL on some rows
    "SELECT event_type, COUNT(DISTINCT event_id) AS ne, "
    "COUNT(DISTINCT CASE WHEN value > 100 THEN user_id END) AS nu, "
    "COUNT(*) AS n FROM events GROUP BY event_type ORDER BY event_type",
]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(9)
    df = df[sorted(df.columns)]
    return (df.sort_values(list(df.columns), kind="mergesort")
            .reset_index(drop=True))


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t, path in TABLES.items():
        c.sql(f"CREATE VIEW {t} AS FROM '{path}'")
    return c


@pytest.mark.parametrize("sql", BATTERY, ids=range(len(BATTERY)))
def test_differential_vs_duckdb(ray_session, con, sql):
    mine = sqlfront.sql_query(sql, TABLES)
    ref = con.sql(sql).df()
    a, b = _canon(mine), _canon(ref)
    assert list(a.columns) == list(b.columns), (a.columns, b.columns)
    assert len(a) == len(b), (len(a), len(b), sql)
    pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                  check_exact=False, rtol=1e-9)


@pytest.mark.parametrize("empty", ["left", "right"])
@pytest.mark.parametrize("jt", ["INNER", "LEFT", "RIGHT", "FULL"])
def test_join_with_empty_side_matches_duckdb(ray_session, jt, empty):
    """Invariant 11: a JOIN with an empty side answers like DuckDB on the
    same frames (typed empty result, or the kept side NULL-extended)
    instead of crashing in Ray's hash join."""
    import pyarrow as pa
    import ray.data as rd

    a = pa.table({"k": pa.array([1, 2], pa.int64()),
                  "x": pa.array([10, 20], pa.int64())})
    b = pa.table({"k": pa.array([2, 3], pa.int64()),
                  "y": pa.array(["p", "q"], pa.string())})
    if empty == "left":
        a = a.slice(0, 0)
    else:
        b = b.slice(0, 0)
    sql = f"SELECT x, y FROM a {jt} JOIN b ON a.k = b.k"
    mine = sqlfront.sql_query(sql, {"a": rd.from_arrow(a),
                                    "b": rd.from_arrow(b)})
    c = duckdb.connect()
    c.register("a", a)
    c.register("b", b)
    ref = c.sql(sql).df()
    m, r = _canon(mine), _canon(ref)
    assert list(m.columns) == list(r.columns) == ["x", "y"]
    assert len(m) == len(r), (len(m), len(r), sql)
    pd.testing.assert_frame_equal(m, r, check_dtype=False)


def test_column_pruning_at_read(ray_session):
    """Only referenced columns are scanned from parquet."""
    q = sqlfront.parse_select(
        "SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang")
    need = set()
    for e, _ in q["items"]:
        if e != "star":
            sqlfront._cols_of(e, need)
    for g in q["group"]:
        need.add(g)
    assert need == {"lang"}


def test_parse_errors_are_named(ray_session):
    with pytest.raises(ValueError, match="only equality joins"):
        sqlfront.sql_query(
            "SELECT * FROM events JOIN orders ON events.a < orders.b",
            TABLES)
    with pytest.raises(ValueError, match="expected"):
        sqlfront.sql_query("SELECT FROM events", TABLES)
    with pytest.raises(ValueError, match="unknown column"):
        sqlfront.sql_query("SELECT nope FROM events LIMIT 1", TABLES)


def test_like_wildcards(ray_session):
    out = sqlfront.sql_query(
        "SELECT DISTINCT event_type FROM events "
        "WHERE event_type LIKE '_rror' ORDER BY event_type", TABLES)
    assert out["event_type"].tolist() == ["error"]


def _gen_queries(seed=77, n=12):
    """Seeded random SELECTs from a small grammar — deterministic, so
    failures reproduce; every query runs differentially vs DuckDB."""
    import random

    rng = random.Random(seed)
    numcols = ["event_id", "user_id", "value"]
    out = []
    for _ in range(n):
        preds = []
        for _ in range(rng.randint(1, 3)):
            c = rng.choice(numcols)
            op = rng.choice(["<", "<=", ">", ">=", "<>", "="])
            v = rng.choice([0, 7, 50, 99, 1000])
            preds.append(f"{c} {op} {v}")
        if rng.random() < 0.5:
            ets = rng.sample(["click", "view", "error", "purchase",
                              "signup"], rng.randint(1, 3))
            preds.append("event_type IN (" + ", ".join(
                f"'{e}'" for e in ets) + ")")
        glue = rng.choice([" AND ", " OR "])
        where = glue.join(preds)
        shape = rng.random()
        if shape < 0.25:
            aggs = rng.sample(["COUNT(*) AS n", "MIN(event_id) AS lo",
                               "MAX(event_id) AS hi",
                               "SUM(user_id) AS su"], rng.randint(1, 3))
            q = (f"SELECT event_type, {', '.join(aggs)} FROM events "
                 f"WHERE {where} GROUP BY event_type ORDER BY "
                 f"event_type")
        elif shape < 0.5:
            # GROUP BY expression key
            mod = rng.choice([3, 5, 9])
            aggs = rng.sample(["COUNT(*) AS n", "SUM(value) AS sv",
                               "MAX(user_id) AS hi"], rng.randint(1, 2))
            q = (f"SELECT user_id % {mod} AS g, {', '.join(aggs)} "
                 f"FROM events WHERE {where} GROUP BY user_id % {mod} "
                 f"ORDER BY g")
        elif shape < 0.7:
            # derived table with an inner row transform
            thr = rng.choice([5, 40, 90])
            q = (f"SELECT t, COUNT(*) AS n, MIN(v2) AS lo FROM "
                 f"(SELECT UPPER(event_type) AS t, value * 2 AS v2 "
                 f"FROM events WHERE {where}) d "
                 f"WHERE v2 > {thr} GROUP BY t ORDER BY t")
        else:
            # arithmetic projections with negative operands exercise the
            # truncated-modulo / sign rules the aggregate arm can't
            off = rng.choice([13, 50, 97])
            mod = rng.choice([3, 7, 11])
            q = (f"SELECT event_id, user_id, event_type, "
                 f"(event_id - {off}) % {mod} AS m, "
                 f"(user_id - {off}) * -1 AS neg FROM events "
                 f"WHERE {where} ORDER BY event_id LIMIT 40")
        out.append(q)
    return out


@pytest.mark.parametrize("sql", _gen_queries(),
                         ids=[f"fuzz{i}" for i in range(12)])
def test_differential_fuzz(ray_session, con, sql):
    mine = sqlfront.sql_query(sql, TABLES)
    ref = con.sql(sql).df()
    a, b = _canon(mine), _canon(ref)
    assert len(a) == len(b), sql
    pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                  check_exact=False, rtol=1e-9)


UNION_SUB_BATTERY = [
    "SELECT event_type AS k, COUNT(*) AS n FROM events "
    "GROUP BY event_type UNION ALL "
    "SELECT lang, COUNT(*) FROM documents GROUP BY lang "
    "ORDER BY k, n",

    "SELECT user_id, COUNT(*) AS n FROM events "
    "WHERE user_id IN (SELECT user_id FROM events "
    "WHERE event_type = 'error') "
    "GROUP BY user_id ORDER BY n DESC, user_id LIMIT 20",

    "SELECT doc_id FROM documents WHERE doc_id NOT IN "
    "(SELECT doc_id FROM documents WHERE lang = 'en') "
    "AND doc_id < 40 ORDER BY doc_id",
]


@pytest.mark.parametrize("sql", UNION_SUB_BATTERY,
                         ids=["union", "insub", "notinsub"])
def test_union_and_subqueries(ray_session, con, sql):
    mine = sqlfront.sql_query(sql, TABLES)
    ref = con.sql(sql).df()
    a, b = _canon(mine), _canon(ref)
    assert len(a) == len(b), sql
    pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                  check_exact=False, rtol=1e-9)


WINDOW_BATTERY = [
    "SELECT event_id, ROW_NUMBER() OVER (PARTITION BY event_type "
    "ORDER BY value DESC, event_id) AS rn FROM events "
    "WHERE user_id < 20 ORDER BY event_id",

    "SELECT event_id, RANK() OVER (ORDER BY user_id) AS r, "
    "DENSE_RANK() OVER (ORDER BY user_id) AS dr FROM events "
    "WHERE event_id < 60 ORDER BY event_id",

    "SELECT event_id, SUM(value) OVER (PARTITION BY event_type "
    "ORDER BY event_id) AS running, "
    "MAX(value) OVER (PARTITION BY event_type) AS peak FROM events "
    "WHERE user_id < 10 ORDER BY event_id",

    "SELECT event_id, LAG(value) OVER (PARTITION BY user_id "
    "ORDER BY ts, event_id) AS prev_v FROM events "
    "WHERE user_id < 6 ORDER BY event_id",

    "SELECT event_id, COUNT(*) OVER (PARTITION BY event_type "
    "ORDER BY value, event_id) AS c FROM events "
    "WHERE user_id < 8 ORDER BY event_id",
]


@pytest.mark.parametrize("sql", WINDOW_BATTERY,
                         ids=["rownum", "ranks", "running", "lag",
                              "count_running"])
def test_window_functions(ray_session, con, sql):
    mine = sqlfront.sql_query(sql, TABLES)
    ref = con.sql(sql).df()
    a, b = _canon(mine), _canon(ref)
    assert len(a) == len(b), sql
    pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                  check_exact=False, rtol=1e-9)


def test_sql_dataset_streams(ray_session, tmp_path):
    """The streaming variant returns a LAZY Dataset that pipes into a
    parquet sink without driver materialization."""
    import ray.data

    ds = sqlfront.sql_dataset(
        "SELECT event_id, value * 2 AS v2, UPPER(event_type) AS t "
        "FROM events WHERE value > 50", TABLES)
    assert isinstance(ds, ray.data.Dataset)
    out = str(tmp_path / "sqlout")
    ds.write_parquet(out, compression="zstd")
    import duckdb

    back = duckdb.sql(f"SELECT COUNT(*) n, MIN(v2) lo FROM '{out}/*.parquet'").df()
    ref = duckdb.sql(
        "SELECT COUNT(*) n, MIN(value*2) lo FROM "
        f"'{TABLES['events']}' WHERE value > 50").df()
    assert back["n"][0] == ref["n"][0]
    assert abs(back["lo"][0] - ref["lo"][0]) < 1e-9
    # star passthrough stays the pruned scan
    ds2 = sqlfront.sql_dataset("SELECT * FROM nation", TABLES)
    assert ds2.count() == 25
    with pytest.raises(NotImplementedError, match="sql_query"):
        sqlfront.sql_dataset(
            "SELECT COUNT(*) AS n FROM events", TABLES)
