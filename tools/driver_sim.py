"""Driver-style correctness simulation (the CORRECTNESS_r{N}.json gate).

Runs every ``__ray_entry__.queries()`` entry over ``--sf-dir`` and compares
against its ``oracle_sql()`` twin through DuckDB on the same parquet files,
with the driver's semantics approximated conservatively:

  * row count must match;
  * schema = column-name set must match (driver sorts columns by name);
  * value hash: columns sorted by name, rows sorted by every column,
    then an EXACT dtype-strict frame compare (stricter than the driver's
    stringified hash — if this passes, the driver's hash passes).

Queries with no oracle twin are run rows-only (must not raise, row count
recorded), mirroring the driver's weaker check.

The registry runs in a child process with its own Ray session. A Ray core
abort kills only the child: the query it was running counts as a failure
(``core_abort``) and a new child resumes from the next query, so the run
always ends with its summary line. ``--out`` gets one JSON line per query
the moment it finishes.

Usage:  python tools/driver_sim.py [--sf-dir /root/testdata/sf0.01]
                                   [--num-cpus 32] [--only q1,q2,...]
                                   [--out results.jsonl]
Exit code is non-zero if any query fails. CLAUDE.md: run one at sf0.01 /
32 CPUs before shipping a round — partition-count- and dtype-dependent
failures do not reproduce at pytest's sf0.001 / 4-CPU scale.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback

TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def _to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def _canon(df):
    """Driver-style canonical frame: columns sorted by name, rows sorted
    by every column, fresh index."""
    df = df[sorted(df.columns)]
    if len(df.columns):
        df = df.sort_values(list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def _compare(ray_df, ora_df):
    out = {"rows_match": len(ray_df) == len(ora_df),
           "schema_match": sorted(ray_df.columns) == sorted(ora_df.columns),
           "hash_match": False,
           "spark_rows": len(ray_df), "oracle_rows": len(ora_df),
           "err": None}
    if out["rows_match"] and out["schema_match"]:
        a, b = _canon(ray_df), _canon(ora_df)
        try:
            import pandas.testing as pdt

            pdt.assert_frame_equal(a, b, check_exact=True)
            out["hash_match"] = True
        except AssertionError as e:
            out["err"] = "value_mismatch: " + str(e).split("\n")[0]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=os.environ.get(
        "GRAFT_SF_DIR", "/root/testdata/sf0.01"))
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--only", default=None,
                    help="comma-separated subset of query names")
    ap.add_argument("--out", default=None,
                    help="append one JSON line per query here")
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import multiprocessing as mp

    import __ray_entry__ as E

    only = set(args.only.split(",")) if args.only else None
    todo = [n for n in E.queries() if not only or n in only]
    if args.out:
        open(args.out, "w").close()

    results, failures = {}, []

    def record(name, r, ok):
        results[name] = r
        if not ok:
            failures.append(name)
        if "sec" in r:
            print(("ok   " if ok else "FAIL ") +
                  f"{name}  rows={r['spark_rows']}  {r['sec']}s" +
                  ("" if ok else f"  {json.dumps({k: r[k] for k in ('rows_match','schema_match','hash_match','err')})}"),
                  flush=True)
        else:
            print(f"FAIL  {name}: {r['err'].split(':')[0]}", flush=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"query": name, **r}) + "\n")

    ctx = mp.get_context("spawn")
    while todo:
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_run_queries,
                            args=(todo, args.sf_dir, args.num_cpus, writer))
        child.start()
        writer.close()
        running, started = None, False
        while True:
            try:
                msg = reader.recv()
            except EOFError:
                break
            if msg[0] == "start":
                running, started = msg[1], True
            else:
                record(*msg[1:])
                todo.remove(msg[1])
                running = None
        child.join()
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if todo and not started:
            raise SystemExit(f"driver_sim: the query child exited "
                             f"{child.exitcode} before its first query")
        if running is not None:
            # the child died inside a query (a Ray core abort): count it,
            # and resume from the next one in a new child and Ray session
            record(running, {"err": "core_abort",
                             "exitcode": child.exitcode}, False)
            todo.remove(running)

    n_oracle = sum(1 for r in results.values() if r.get("oracle_rows") is not None)
    summary = {"queries": len(results), "oracle_twins": n_oracle,
               "failures": failures}
    print(json.dumps(summary))
    return 1 if failures else 0


def _run_queries(names, sf_dir, num_cpus, conn) -> None:
    """Child process: run ``names`` in order in one Ray session, sending
    ("start", name) before each query and ("done", name, result, ok)
    after it. It leads a new session, so that the parent can stop
    whatever a Ray core abort leaves of its Ray processes."""
    os.setsid()
    import duckdb
    import ray

    ray.init(address="local", num_cpus=num_cpus,
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    qs, osql = E.queries(), E.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    for name in names:
        conn.send(("start", name))
        t0 = time.time()
        try:
            ray_df = _to_pandas(qs[name](sf_dir))
        except Exception:
            conn.send(("done", name,
                       {"err": "query_raised:\n" + traceback.format_exc()},
                       False))
            continue
        if name in osql:
            ora_df = con.execute(osql[name]).fetchdf()
            r = _compare(ray_df, ora_df)
            ok = r["rows_match"] and r["schema_match"] and r["hash_match"]
        else:
            r = {"rows_match": None, "schema_match": None,
                 "hash_match": None, "spark_rows": len(ray_df),
                 "oracle_rows": None, "err": "no_oracle"}
            ok = True
        r["sec"] = round(time.time() - t0, 2)
        conn.send(("done", name, r, ok))
    ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
