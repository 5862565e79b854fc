"""The traced run: spans around each public call, Ray Data runtime counts,
and a Ray-free kernel pass.

A traced run makes one pass over all three workloads' calls with the
run's seed, so every layer reports on every workload:

* build — staged: the flagship's public stage functions called one at a
  time with a ``materialize`` barrier between them, so each layer gets a
  wall time, then ``store.write_store``;
* query — one round over the store that build wrote;
* update — the base preparation, the merges and the re-send;
* kernels — the per-batch kernels on the build's rows, in process and
  without Ray, at fixed batch sizes (the per-layer ``kernel_s``);
* oracle — the single-threaded oracle on the build's events.

Spans are kept in memory and written to ``.kgb/traces/`` at the end.
Each span has a name, trace id, id, parent, start, end and counts. Ray
Data's execution plans and operator metrics are captured from its logger
while a span is open; all-to-all (sort, repartition, aggregate), hash
shuffle, hash aggregate and join operators count as exchanges.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import statistics
import time
import traceback
import uuid
from contextlib import contextmanager

import pyarrow as pa

from . import corpus as C
from . import workloads as W

KERNEL_PAGES = 256       # pages per page_events_batch call
KERNEL_ROWS = 4096       # rows per emit / flatten / bucket call
TRACE_TIMEOUT_S = 130.0

_EXCHANGES = ("AllToAllOperator", "HashShuffleOperator",
              "HashAggregateOperator", "JoinOperator")
_OP_RE = re.compile(r"\b(\w+Operator|InputDataBuffer|AggregateNumRows)\[")
_BYTES_IN = re.compile(r"'bytes_inputs_received': (\d+)")
_TASK_S = re.compile(
    r"'task_completion_time_without_backpressure': ([0-9.e+-]+)")

RAY_CALLS = ["build.pages_read", "build.parse", "build.emit",
             "build.versions", "build.triples", "build.store_write",
             "query.store_read", "query.sparql_dist", "query.sparql_driver",
             "query.canon", "update.merge", "update.resend"]

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "triples_per_s": "1/s",
                    "peak_rss_mb": "MB"}
LAYER_METRICS = [
    "pages.read_s", "pages.parse_s", "pages.parse_kernel_s",
    "pages.overhead_s", "pages.pages_in", "pages.events_out",
    "pages.quarantined",
    "emit.wall_s", "emit.kernel_s", "emit.overhead_s", "emit.statements_out",
    "versions.wall_s", "versions.kernel_s", "versions.overhead_s",
    "versions.exchange_bytes", "versions.statements_out",
    "triples.wall_s", "triples.flatten_kernel_s", "triples.bucket_kernel_s",
    "triples.dedup_kernel_s", "triples.expand_kernel_s",
    "triples.overhead_s", "triples.compact_rows", "triples.triples_out",
    "triples.dedup_ratio", "triples.exchange_bytes", "triples.bucket_skew",
    "store.write_s", "store.read_s", "store.bytes_written",
    "store.partitions",
    "checkpoint.update_s", "checkpoint.resend_s",
    "checkpoint.graphs_touched", "checkpoint.new_events",
    "checkpoint.triples_written",
    "sparql.dist_s", "sparql.driver_s", "sparql.binding_rows",
    "linking.map_s", "linking.map_rows",
    *(f"ray_data.{call}.{kind}" for call in RAY_CALLS
      for kind in ("executions", "exchanges", "op_task_s")),
    "logs.warnings", "oracle.build_s",
    "trace.setup_s", "trace.build_s", "trace.query_round_s",
    "trace.update_round_s", "trace.self_cover", "trace.spans",
    "trace.span_cost_s",
]


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_ratio", "_skew", "_cover")):
        return "ratio"
    return "count"


UNITS = {n: _unit(n) for n in [*END_TO_END_UNITS, *LAYER_METRICS]}


class _Capture(logging.Handler):
    """Ray Data log records, kept in memory while the traced run lasts."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records: list[tuple[int, str]] = []

    def emit(self, record):
        self.records.append((record.levelno, record.getMessage()))


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.capture = _Capture()

    def __enter__(self):
        logging.getLogger("ray.data").addHandler(self.capture)
        return self

    def __exit__(self, *exc):
        logging.getLogger("ray.data").removeHandler(self.capture)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "id": len(self.spans),
               "trace_id": parent["trace_id"] if parent else uuid.uuid4().hex,
               "parent": parent["id"] if parent else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        first_log = len(self.capture.records)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            rec["ray"] = _ray_counts(self.capture.records[first_log:])

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def dur(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_times(self) -> dict[int, float]:
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


def _ray_counts(records) -> dict:
    out = {"executions": 0, "exchanges": 0, "exchange_bytes": 0,
           "op_task_s": 0.0, "warnings": 0}
    for level, msg in records:
        if level >= logging.WARNING:
            out["warnings"] += 1
        if msg.startswith("Execution plan of Dataset"):
            out["executions"] += 1
            ops = _OP_RE.findall(msg)
            out["exchanges"] += sum(op in _EXCHANGES for op in ops)
        elif msg.startswith("Operator ") and "Operator Metrics" in msg:
            head = msg.split("[", 1)[0][len("Operator "):]
            task = _TASK_S.search(msg)
            if task:
                out["op_task_s"] += float(task.group(1))
            if head in _EXCHANGES:
                m = _BYTES_IN.search(msg)
                out["exchange_bytes"] += int(m.group(1)) if m else 0
    return out


def _span_cost_s(n: int = 2000) -> float:
    """Seconds one empty span costs the tracer."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / n


# ---------------------------------------------------------------------------
# the pass over every workload
# ---------------------------------------------------------------------------

def staged_build(tr: Tracer, b: W.Build) -> dict:
    """``flagship.flagship_from_pages_parquet`` one stage at a time: the
    same calls with the same arguments, plus a barrier after each."""
    import ray
    import ray.data as rd

    from gitprov_ray import store
    from gitprov_ray.pipelines import flagship
    from gitprov_ray.stages import emit, triples, versions
    from gitprov_ray.util import read_parquet_clean, tune_context

    tune_context()
    nb = W.NUM_BUCKETS
    ncpu = int(ray.cluster_resources()["CPU"])
    with tr.span("build"):
        with tr.span("build.pages_read") as c:
            pages = read_parquet_clean(
                b.pages_path, columns=["url", "warc_ts", "html"]).materialize()
            c["rows_out"] = pages.count()
        with tr.span("build.parse") as c:
            # the flagship's re-split of the materialized events
            revs = flagship.revisions_from_pages(pages).materialize()
            revs = revs.repartition(max(16, 2 * ncpu)).materialize()
            c["rows_in"], c["rows_out"] = pages.count(), revs.count()
        with tr.span("build.emit") as c:
            stateless = revs.map_batches(
                emit.make_emitter(emit.agents_index(b.contributors)),
                batch_format="pyarrow").materialize()
            c["rows_out"] = stateless.count()
        with tr.span("build.versions") as c:
            versioned = versions.version_statements(
                revs, num_buckets=nb).materialize()
            c["rows_out"] = versioned.count()
        agents = rd.from_arrow(emit.emit_agents_table(b.contributors))
        with tr.span("build.triples") as c:
            tri = triples.statements_to_triples_compact(
                stateless.union(versioned).union(agents),
                num_buckets=nb).materialize()
            c["rows_out"] = tri.count()
        shutil.rmtree(b.store, ignore_errors=True)
        with tr.span("build.store_write") as c:
            written = store.write_store(tri, b.store)
            c["rows_out"] = sum(written.values())
    with tr.span("check"):
        b.check()
    return {"partitions": len(written),
            "bytes_written": sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, fs in os.walk(b.store) for f in fs
                if f.endswith(".parquet"))}


def query_round(tr: Tracer, q: W.Query) -> None:
    out, m = {}, None
    with tr.span("query"):
        for name, fn in q.calls():
            with tr.span(f"query.{name}") as c:
                out[name] = fn(m)
                c["rows_out"] = (out[name].count() if name == "store_read"
                                 else len(out[name]))
            if name == "store_read":
                m = out[name]
    with tr.span("check"):
        q.check(out)


def update_round(tr: Tracer, u: W.Update) -> None:
    with tr.span("update.prepare"):
        u.prepare()
        u.reset()
    with tr.span("update"):
        for i in range(len(u.batch_tables)):
            with tr.span("update.merge") as c:
                res = u.merge(i)
                c.update(graphs=len(res["graphs"]),
                         new_events=res["new_events"],
                         triples_written=res["triples_written"])
        with tr.span("check"):
            before = W.store_triples(u.store), u.revisions_rows()
        with tr.span("update.resend") as c:
            res = u.merge(0)
            c["triples_written"] = res["triples_written"]
    with tr.span("check"):
        u.check(before)


def kernel_pass(tr: Tracer, b: W.Build, pages: pa.Table) -> dict:
    """The flagship's per-batch kernels, in process and without Ray, over
    the build's rows at fixed batch sizes. The result must equal the
    oracle: the pass is the Ray-free twin of the build."""
    import pyarrow.compute as pc

    from gitprov_ray import schemas
    from gitprov_ray.stages import emit, pages as pages_stage, triples, versions
    from gitprov_ray.util import pandas_to_arrow

    nb = W.NUM_BUCKETS
    with tr.span("kernels"):
        with tr.span("kernel.parse"):
            events = pa.concat_tables(
                pages_stage.page_events_batch(pages.slice(i, KERNEL_PAGES))
                for i in range(0, pages.num_rows, KERNEL_PAGES))
        with tr.span("kernel.emit"):
            agents = emit.agents_index(b.contributors)
            stateless = [emit.emit_stateless_arrow(events.slice(i, KERNEL_ROWS),
                                                   agents)
                         for i in range(0, events.num_rows, KERNEL_ROWS)]
        keyed = versions.add_bucket_column(
            events.select(versions.LAG_COLUMNS), nb).to_pandas()
        groups = [g.drop(columns=["bucket"]).reset_index(drop=True)
                  for _, g in keyed.groupby("bucket")]
        with tr.span("kernel.versions"):
            lagged = [versions.version_lag_group(g) for g in groups]
        versioned = [pandas_to_arrow(df, schemas.STATEMENTS) for df in lagged]
        stmts = pa.concat_tables(
            [*stateless, *versioned, emit.emit_agents_table(b.contributors)])
        with tr.span("kernel.flatten"):
            compact = [triples.flatten_batch_compact(stmts.slice(i, KERNEL_ROWS))
                       for i in range(0, stmts.num_rows, KERNEL_ROWS)]
        with tr.span("kernel.bucket"):
            keyed_c = pa.concat_tables(
                [triples.add_compact_bucket(t, nb) for t in compact],
                promote_options="permissive")
        buckets = [keyed_c.filter(pc.equal(keyed_c["bucket"], k))
                   for k in range(nb)]
        with tr.span("kernel.dedup"):
            out = [triples._dedup_expand_sort_group(t) for t in buckets]
        with tr.span("kernel.expand"):
            for t in buckets:
                triples.expand_compact(t.drop_columns(["bucket"]))
    with tr.span("check"):
        got = pa.concat_tables(out)
        W.check(set(zip(*(got.column(k).to_pylist() for k in C.KEY)))
                == b.expected, "kernel pass differs from the oracle")
    sizes = [t.num_rows for t in buckets]
    snaps = pc.count_distinct(events["snapshot_id"]).as_py()
    return {"quarantined": pages.num_rows - snaps,
            "compact_rows": keyed_c.num_rows,
            "bucket_skew": max(sizes) / statistics.mean(sizes)}


def traced_run(sess, workload: str, seed: int, docs, root: str) -> dict:
    """The traced pass under one timeout; a raise, a failed check or a
    hang makes the run incorrect with one failed op."""
    span_cost = _span_cost_s()
    with Tracer() as tr:
        t0 = time.perf_counter()
        try:
            built, kern = W.timed(lambda: _traced_pass(tr, seed, docs,
                                                       sess.work),
                                  timeout_s=TRACE_TIMEOUT_S)[0]
        except Exception:
            traceback.print_exc()
            return {"correct": False, "attempted": len(tr.spans) or 1,
                    "failed": 1, "metrics": {}}
        wall = time.perf_counter() - t0

    metrics = layer_metrics(tr, built, kern, wall, span_cost)
    metrics["logs.warnings"] += _worker_warnings(sess.logs_dir())
    _write_spans(root, workload, seed, tr)
    calls = sum(s["name"] != "check" for s in tr.spans)
    return {"correct": True, "attempted": calls, "failed": 0,
            "metrics": metrics}


def _traced_pass(tr: Tracer, seed: int, docs, work: str):
    from gitprov_ray import oracle

    b = W.Build(docs, os.path.join(work, "trace_build"))
    built = staged_build(tr, b)
    q = W.Query(b)
    with tr.span("check"):
        q.load()
    query_round(tr, q)
    update_round(tr, W.Update(docs, os.path.join(work, "trace_update"), seed))
    kern = kernel_pass(tr, b, C.pages_table([p for d in docs for p in d.pages]))
    with tr.span("oracle.build"):
        oracle.build_triples(C.revisions_for(docs), b.contributors)
    return built, kern


def layer_metrics(tr: Tracer, built: dict, kern: dict, wall: float,
                  span_cost: float) -> dict:
    d = tr.dur

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in tr.named(name))

    def ray(name, key):
        spans = tr.named(name)
        return sum(s["ray"][key] for s in spans) / max(len(spans), 1)

    merges = [s["end"] - s["start"] for s in tr.named("update.merge")]
    flatten_k = d("kernel.flatten") + d("kernel.bucket") + d("kernel.dedup")
    m = {
        "pages.read_s": d("build.pages_read"),
        "pages.parse_s": d("build.parse"),
        "pages.parse_kernel_s": d("kernel.parse"),
        "pages.overhead_s": d("build.parse") - d("kernel.parse"),
        "pages.pages_in": count("build.parse", "rows_in"),
        "pages.events_out": count("build.parse", "rows_out"),
        "pages.quarantined": kern["quarantined"],
        "emit.wall_s": d("build.emit"),
        "emit.kernel_s": d("kernel.emit"),
        "emit.overhead_s": d("build.emit") - d("kernel.emit"),
        "emit.statements_out": count("build.emit", "rows_out"),
        "versions.wall_s": d("build.versions"),
        "versions.kernel_s": d("kernel.versions"),
        "versions.overhead_s": d("build.versions") - d("kernel.versions"),
        "versions.exchange_bytes": ray("build.versions", "exchange_bytes"),
        "versions.statements_out": count("build.versions", "rows_out"),
        "triples.wall_s": d("build.triples"),
        "triples.flatten_kernel_s": d("kernel.flatten"),
        "triples.bucket_kernel_s": d("kernel.bucket"),
        "triples.dedup_kernel_s": d("kernel.dedup"),
        "triples.expand_kernel_s": d("kernel.expand"),
        "triples.overhead_s": d("build.triples") - flatten_k,
        "triples.compact_rows": kern["compact_rows"],
        "triples.triples_out": count("build.triples", "rows_out"),
        "triples.dedup_ratio": (count("build.triples", "rows_out")
                                / kern["compact_rows"]),
        "triples.exchange_bytes": ray("build.triples", "exchange_bytes"),
        "triples.bucket_skew": kern["bucket_skew"],
        "store.write_s": d("build.store_write"),
        "store.read_s": d("query.store_read"),
        "store.bytes_written": built["bytes_written"],
        "store.partitions": built["partitions"],
        "checkpoint.update_s": statistics.median(merges),
        "checkpoint.resend_s": d("update.resend"),
        "checkpoint.graphs_touched": count("update.merge", "graphs"),
        "checkpoint.new_events": count("update.merge", "new_events"),
        "checkpoint.triples_written": count("update.merge",
                                            "triples_written"),
        "sparql.dist_s": d("query.sparql_dist"),
        "sparql.driver_s": d("query.sparql_driver"),
        "sparql.binding_rows": count("query.sparql_dist", "rows_out"),
        "linking.map_s": d("query.canon"),
        "linking.map_rows": count("query.canon", "rows_out"),
        "logs.warnings": sum(s["ray"]["warnings"] for s in tr.spans
                             if s["parent"] is None),
        "oracle.build_s": d("oracle.build"),
        "trace.build_s": d("build"),
        "trace.query_round_s": d("query"),
        "trace.update_round_s": d("update"),
        "trace.self_cover": sum(tr.self_times().values()) / wall,
        "trace.spans": len(tr.spans),
        "trace.span_cost_s": span_cost * len(tr.spans),
    }
    for call in RAY_CALLS:
        for kind in ("executions", "exchanges", "op_task_s"):
            m[f"ray_data.{call}.{kind}"] = ray(call, kind)
    return m


def _worker_warnings(logs_dir: str | None) -> int:
    """WARNING lines Ray worker processes wrote to their log files."""
    if not logs_dir or not os.path.isdir(logs_dir):
        return 0
    n = 0
    for f in os.listdir(logs_dir):
        if f.startswith("worker-") and f.endswith((".err", ".out")):
            with open(os.path.join(logs_dir, f), errors="replace") as fh:
                n += sum("WARNING" in line for line in fh)
    return n


def _write_spans(root: str, workload: str, seed: int, tr: Tracer) -> None:
    out = os.path.join(root, ".kgb", "traces")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{workload}-seed{seed}.json"), "w") as f:
        json.dump(tr.spans, f, indent=1)
