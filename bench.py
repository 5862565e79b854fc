#!/usr/bin/env python
"""Benchmark harness.

Plain run: executes the headline flagship KG pipeline + representative
queries over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) under
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and
prints ONE JSON line:
  {"metric": "flagship_kg_sec", "value": N, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "triples": N,
   "triples_per_sec": N}

``--scaling``: runs the headline pipeline in TWO fresh subprocesses
(num_cpus=$GRAFT_SCALING_CPUS_LO=4 then $GRAFT_SCALING_CPUS_HI=16) on the
same input — the sandbox stand-in for N vs 4N cluster nodes — and prints
both throughputs plus the scaling efficiency ((t_lo/t_hi)/4; 1.0 = linear).
4 vs 16 (not 8 vs 32) because the host has exactly 32 vCPUs: a 32-worker
leg oversubscribes the box (driver + raylet + GCS share the same cores),
so the high leg measures contention, not scaling. On a real N- vs 4N-node
cluster every node brings its own cores/memory-bus/object store; 4-vs-16
leaves that headroom while still measuring a true 4x worker ratio.

``--kernels``: Ray-free timing of the flagship's per-batch kernels over the
kgbench corpus ``kgbench.corpus.make_docs($GRAFT_KERNEL_SEED=7, 500)``:
``page_markers`` and ``parse_page`` (per page), ``page_markers_fallback``
(``page_markers`` over the same pages with a '<' appended that no '>'
closes, so each page is scanned to its end and then takes the
``parse_page`` walk), ``page_events_batch``,
``flagship.compact_from_lagged`` and ``triples._dedup_expand_sort_group``
(each over the whole corpus as one batch). Prints ONE JSON line with the
best of 5 runs per kernel, in seconds.

The page cache is warmed with one untimed read so timings measure
compute + shuffle, not first-touch disk I/O.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPEAT = int(os.environ.get("GRAFT_BENCH_REPEAT", "10"))
# --scaling uses a larger corpus so per-stage compute dominates the fixed
# per-shuffle costs (the quantity the efficiency criterion is about)
SCALING_REPEAT = int(os.environ.get("GRAFT_SCALING_REPEAT", "60"))
SCALING_LO = int(os.environ.get("GRAFT_SCALING_CPUS_LO", "4"))
SCALING_HI = int(os.environ.get("GRAFT_SCALING_CPUS_HI", "16"))


def _host_meta() -> dict:
    """Load / cold-start metadata embedded in the bench JSON so
    cross-round comparisons carry their own evidence (VERDICT r04 #9):
    this host's timings are bimodal under external load, and a cold Ray
    worker pool adds tens of seconds that are session overhead, not
    pipeline throughput. ``ray`` and ``ray_data_reservation`` name the
    scheduler: the version and Ray Data's per-operator CPU reservation
    flag, which ``util.tune_context`` switches off; read after a run, they
    tell records made under either scheduling mode apart."""
    import ray
    from ray.data import DataContext

    try:
        la1, la5, _ = os.getloadavg()
    except OSError:
        la1 = la5 = -1.0
    # "cold" = no live Ray session directory was reusable when we
    # started, i.e. this process spawned its own cluster from nothing
    cold = not os.path.isdir("/tmp/ray/ray_current_cluster")
    return {"load_avg_1m": round(la1, 2), "load_avg_5m": round(la5, 2),
            "cold_start": cold, "ray": ray.__version__,
            "ray_data_reservation":
                DataContext.get_current().op_resource_reservation_enabled}


def run_bench() -> dict:
    meta = _host_meta()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import ray

    obj_gb = os.environ.get("GRAFT_OBJ_STORE_GB")
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             object_store_memory=(int(obj_gb) << 30) if obj_gb else None)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from gitprov_ray.pipelines import flagship
    from gitprov_ray import queries as Q

    # warm page cache (untimed)
    for t in ("documents", "lineitem", "events", "embeddings", "orders",
              "customer", "supplier", "nation"):
        with open(f"{SF_DIR}/{t}.parquet", "rb") as f:
            while f.read(1 << 24):
                pass

    out_dir = "/tmp/bench_triples"
    shutil.rmtree(out_dir, ignore_errors=True)

    # warm the Ray worker pool (process spawn is session overhead, not
    # pipeline throughput): one tiny pipeline before the timed run
    import ray.data as _rd
    _rd.range(10_000).map_batches(lambda b: b, batch_format="pyarrow").count()

    t0 = time.time()
    # bucket count 12×CPUs (floor 64): the dedup reduce+write tasks have
    # ~3× hash-size skew, so many small tasks pipeline with the zstd write
    # far better than a few big ones — measured round 4: 16cpu/repeat=60
    # 27.0 s @64 → 24.1 s @192; 32cpu/repeat=10 8.6 s @64 → 7.3-8.1 s @384;
    # 4cpu is bucket-insensitive (64 and 192 within noise, ~100-104 s)
    tri = flagship.flagship(SF_DIR, num_buckets=max(64, NCPU * 12),
                            repeat=REPEAT)
    tri.write_parquet(out_dir, compression="zstd")
    flagship_sec = time.time() - t0

    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    n_triples = pads.dataset(out_dir).count_rows()

    qtimes: dict[str, float] = {}
    qnames = () if os.environ.get("GRAFT_SKIP_QUERIES") else (
        "q1_pricing_summary", "q_lag_events", "q_hourly_user_activity",
        "q_exact_dedup_docs", "q_minhash_neardup_pairs", "q_ann_topk",
        "q_token_stats", "q_top_orders")
    for name in qnames:
        t0 = time.time()
        res = Q.QUERIES[name](SF_DIR)
        # consume: small results → to_pandas; larger → count
        try:
            res.to_pandas() if hasattr(res, "to_pandas") else None
        except Exception:
            res.count()
        qtimes[name] = round(time.time() - t0, 3)

    end = _host_meta()
    ray.shutdown()
    return {
        "metric": "flagship_kg_sec",
        "value": round(flagship_sec, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NCPU,
        "bench_repeat": REPEAT,
        "triples": n_triples,
        "triples_per_sec": round(n_triples / flagship_sec, 1),
        **meta,
        "ray_data_reservation": end["ray_data_reservation"],
        "load_avg_1m_end": end["load_avg_1m"],
    }


def run_scaling() -> dict:
    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_REPEAT=str(SCALING_REPEAT),
                   GRAFT_SKIP_QUERIES="1",
                   # pin the object store so both legs get the same
                   # streaming memory budget (a real N-node vs 4N-node
                   # cluster scales memory with nodes; one box does not)
                   GRAFT_OBJ_STORE_GB=os.environ.get("GRAFT_OBJ_STORE_GB", "20"))
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    # hi leg FIRST, then an optional cooldown: the second leg otherwise
    # inherits the first leg's thermal/steal state on this one-box host
    # (measured: hi-leg 33.1 s fresh vs 37-46.5 s run after the 114 s lo
    # leg, while the lo leg is insensitive — 114.4±0.5 s at any load).
    # Real N- vs 4N-node clusters don't share a heat budget, so the
    # fresh-state measurement is the faithful one.
    hi = one(SCALING_HI)
    time.sleep(int(os.environ.get("GRAFT_SCALING_COOLDOWN_S", "60")))
    lo = one(SCALING_LO)
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (SCALING_HI / SCALING_LO)
    return {
        "metric": "scaling_efficiency",
        "cpus_lo": SCALING_LO,
        "cpus_hi": SCALING_HI,
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "triples_per_sec_lo": lo["triples_per_sec"],
        "triples_per_sec_hi": hi["triples_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "sf": SF_DIR,
        "load_lo": {k: lo.get(k) for k in
                    ("load_avg_1m", "load_avg_5m", "load_avg_1m_end")},
        "load_hi": {k: hi.get(k) for k in
                    ("load_avg_1m", "load_avg_5m", "load_avg_1m_end")},
    }


def run_kernels() -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import platform

    import pyarrow as pa

    from gitprov_ray import extract
    from gitprov_ray.pipelines import flagship
    from gitprov_ray.stages import emit, pages as pages_stage, triples, versions
    from kgbench import corpus

    seed = int(os.environ.get("GRAFT_KERNEL_SEED", "7"))
    docs = corpus.make_docs(seed, 500)
    pages = corpus.pages_table([p for d in docs for p in d.pages])
    htmls = pages.column("html").to_pylist()
    strays = [h + b"<" for h in htmls]
    contributors = corpus.contributors(corpus.graphs_of(docs))
    agents_idx = emit.agents_index(contributors)
    agents = triples.flatten_batch_compact(emit.emit_agents_table(contributors))
    events = pages_stage.page_events_batch(pages)
    lagged = versions.lag_events(events)
    compact = flagship.compact_from_lagged(lagged, agents_idx, agents)

    def best_of_5(fn) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return round(min(times), 4)

    kernels = {
        "page_markers": lambda: [extract.page_markers(h) for h in htmls],
        "parse_page": lambda: [extract.parse_page(h) for h in htmls],
        "page_markers_fallback":
            lambda: [extract.page_markers(h) for h in strays],
        "page_events_batch": lambda: pages_stage.page_events_batch(pages),
        "compact_from_lagged": lambda: flagship.compact_from_lagged(
            lagged, agents_idx, agents),
        "dedup_expand_sort_group":
            lambda: triples._dedup_expand_sort_group(compact),
    }
    try:
        la1 = os.getloadavg()[0]
    except OSError:
        la1 = -1.0
    return {
        "metric": "kernel_best_of_5_s",
        "kernels": {name: best_of_5(fn) for name, fn in kernels.items()},
        "seed": seed, "docs": len(docs), "pages": pages.num_rows,
        "events": events.num_rows, "compact_rows": compact.num_rows,
        "python": platform.python_version(), "pyarrow": pa.__version__,
        "cpus": len(os.sched_getaffinity(0)), "load_avg_1m": round(la1, 2),
    }


if __name__ == "__main__":
    if "--kernels" in sys.argv:
        print(json.dumps(run_kernels()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
