"""Tests of the KG benchmark itself.

    python3 -m pytest kgbench/tests -q

The smoke tests run each workload once, and the traced pass once, on a
tiny corpus. Every test that needs Ray runs in a fresh process, which
starts its own Ray session: ``_in_process`` calls one of the ``_child_*``
functions below there. The check tests need no Ray: they corrupt one row
of a correct output and show the workload's check rejects it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from gitprov_ray import oracle  # noqa: E402
from kgbench import corpus as C  # noqa: E402
from kgbench import run, session, trace, workloads as W  # noqa: E402

TINY = 40           # documents, in place of workloads.N_DOCS


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _in_process(fn: str, *args: str) -> dict:
    """Call ``fn(*args)`` of this module in a fresh Python process; return
    the JSON object it prints last."""
    p = subprocess.run(
        [sys.executable, "-c",
         f"from kgbench.tests.test_kgbench import {fn}; {fn}(*{args!r})"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def _child_run(*args: str) -> None:
    W.N_DOCS = TINY
    sys.exit(run.main(["--seed", "3", "--seconds", "0", *args]))


def _child_staged_build() -> None:
    sess = session.Session(ROOT)
    try:
        sess.setup()
        docs = C.make_docs(3, TINY)
        flag = W.Build(docs, os.path.join(sess.work, "flagship"))
        flag.round()
        staged = W.Build(docs, os.path.join(sess.work, "staged"))
        trace.staged_build(trace.Tracer(), staged)
        same = W.store_triples(staged.store) == W.store_triples(flag.store)
    finally:
        sess.close()
    print(json.dumps({"same": same}))


def _child_stall() -> None:
    import ray.data as rd

    from gitprov_ray import sparql_lite

    session.NUM_CPUS = 1
    sess = session.Session(ROOT)
    try:
        sess.setup()
        docs = C.make_docs(3, TINY)
        rows, _ = oracle.build_triples(C.revisions_for(docs),
                                       C.contributors(C.graphs_of(docs)))
        m = rd.from_arrow(pa.Table.from_pylist(rows)).materialize()
        t0 = time.perf_counter()
        try:
            W.timed(lambda: sparql_lite.select_text_distributed(
                m, W.ACTIVITY_STATS).to_pandas(), timeout_s=5)
            out = "finished"
        except W.CallTimeout:
            out = "timeout"
        took = time.perf_counter() - t0
    finally:
        sess.close()
    print(json.dumps({"out": out, "s": took}))


def _run(*args: str) -> dict:
    return _in_process("_child_run", *args)


@pytest.mark.parametrize("workload", ["build", "update"])
def test_workload_smoke(workload):
    r = _run("--workload", workload, "--trace", "0")
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    r = _run("--workload", "build", "--trace", "1")
    assert r["correct"] and r["failed"] == 0
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    # the spans account for the traced wall time
    assert r["metrics"]["trace.self_cover"]["value"] > 0.9


def test_benchmark_json_names_match_the_code():
    spec = _spec()
    assert [m["name"] for m in spec["per_layer"]] == trace.LAYER_METRICS
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert trace.UNITS[m["name"]] == m["unit"]


def test_timeout_is_raised_as_a_failed_call():
    t0 = time.perf_counter()
    with pytest.raises(W.CallTimeout):
        W.timed(lambda: time.sleep(5), timeout_s=0.2)
    assert time.perf_counter() - t0 < 2


def test_timeout_interrupts_a_stalled_ray_call():
    # at 1 logical CPU the distributed SPARQL join never schedules (the
    # traced run's query round shows it completes at 2): the driver,
    # blocked in Ray Data's executor, still gets CallTimeout on time
    r = _in_process("_child_stall")
    assert r["out"] == "timeout" and r["s"] < 10


def test_staged_build_equals_the_flagship():
    assert _in_process("_child_staged_build")["same"]


def _oracle_store(b: W.Build, docs, mutate=None) -> None:
    """Write the oracle's triples where the build's store belongs."""
    rows, _ = oracle.build_triples(C.revisions_for(docs), b.contributors)
    if mutate:
        mutate(rows)
    os.makedirs(os.path.join(b.store, "gpart=all"), exist_ok=True)
    pq.write_table(pa.Table.from_pylist(rows),
                   os.path.join(b.store, "gpart=all", "part.parquet"))


def test_build_check_rejects_one_corrupted_row(tmp_path):
    docs = C.make_docs(3, TINY)
    b = W.Build(docs, str(tmp_path / "ok"))
    _oracle_store(b, docs)
    b.check()

    bad = W.Build(docs, str(tmp_path / "bad"))

    def corrupt(rows):
        rows[len(rows) // 2]["obj"] += "x"
    _oracle_store(bad, docs, corrupt)
    with pytest.raises(W.CheckFailed):
        bad.check()


def test_query_check_rejects_one_corrupted_row(tmp_path):
    docs = C.make_docs(3, TINY)
    q = W.Query(W.Build(docs, str(tmp_path)))
    q.n_triples = 7
    q.expected_canon = {"a#x": "a#w"}
    used = sorted(q.expected_used.items())
    frame = pd.DataFrame({"g": [g for g, _ in used],
                          "n_used": [n for _, n in used]})

    class Read:
        def count(self):
            return 7

    def out(dist):
        return {"store_read": Read(), "sparql_dist": dist,
                "sparql_driver": frame,
                "canon": pd.DataFrame({"agent_uri": ["a#x"],
                                       "canonical_uri": ["a#w"]})}

    q.check(out(frame))
    bad = frame.copy()
    bad.loc[0, "n_used"] += 1
    with pytest.raises(W.CheckFailed):
        q.check(out(bad))
