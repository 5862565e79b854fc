"""KG benchmark entry point.

    python3 kgbench/run.py --workload build|update --seed N \
        --seconds S --trace 0|1

Runs from the root of a checkout of this repository. ``--trace 0``
measures the workload's end-to-end metrics; ``--trace 1`` runs the traced
pass over every layer instead (see trace.py), the read side included. The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}; the line before it carries host facts and per-call
detail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3          # setup_s is the median of this many Ray set-ups
RUN_DEADLINE_S = 150.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["build", "update"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, ROOT)
    import ray  # noqa: F401

    from gitprov_ray.pipelines import flagship  # noqa: F401
    from kgbench import corpus, session, trace, workloads
    import_s = time.perf_counter() - started

    sess = session.Session(ROOT)
    try:
        # the driver's one-off imports are reported apart: timed once, they
        # spread more than the set-ups, whose warm-up imports the engine in
        # every new worker
        setups = [sess.setup() for _ in range(SETUPS)]
        setup_s = statistics.median(setups)
        docs = corpus.make_docs(args.seed, workloads.N_DOCS)
        if args.trace:
            result = trace.traced_run(sess, args.workload, args.seed, docs,
                                      ROOT)
            result["metrics"]["trace.setup_s"] = setup_s
        else:
            result = measure(sess, args.workload, args.seed, docs,
                             args.seconds, started)
            result["metrics"]["setup_s"] = setup_s
        sess.sample_rss()
        host = {**session.host_facts(), "steal_pct": sess.steal_pct()}
    finally:
        sess.close()
    detail = result.pop("detail", {})
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "docs": workloads.N_DOCS,
                      "import_s": import_s, "setup_runs_s": setups,
                      "detail": detail}))
    units = trace.UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in sorted(result["metrics"].items())}
    print(json.dumps(result))
    return 0


def measure(sess, name: str, seed: int, docs, seconds: float,
            started: float) -> dict:
    """Untraced closed loop: prepare, then rounds until their timed calls
    add up to ``seconds`` (at least one round), each round checked before
    the next starts. A raise, a failed check or a timeout is one failed op and
    ends the loop; the whole loop ends by the run's deadline. ``round_s``
    and ``triples_per_s`` are medians over the rounds' timed units."""
    from kgbench import workloads as W

    t0 = time.perf_counter()
    if name == "build":
        wl = W.Build(docs, sess.work)
    else:
        wl = W.Update(docs, sess.work, seed)
    units, calls, per_s = [], [], []
    phases = {"inputs_s": time.perf_counter() - t0}

    def loop():
        t0 = time.perf_counter()
        wl.prepare()
        phases["prepare_s"] = time.perf_counter() - t0
        sess.sample_rss()
        # --seconds counts timed calls only, not the untimed checks, so
        # the number of rounds does not depend on how long checks take
        while not units or sum(units) < seconds:
            for times, triples in wl.round():
                calls.append(times)
                units.append(sum(times))
                per_s.append(triples / sum(times))
            sess.sample_rss()

    error = None
    try:
        W.timed(loop, RUN_DEADLINE_S - (time.perf_counter() - started))
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    failed = int(error is not None)
    metrics = {}
    if units and not failed:
        metrics = {"round_s": statistics.median(units),
                   "triples_per_s": statistics.median(per_s),
                   "peak_rss_mb": sess.peak_rss_mb()}
    return {"correct": not failed,
            "attempted": sum(map(len, calls)) + failed, "failed": failed,
            "metrics": metrics,
            "detail": {"units_s": units, "calls_s": calls, **phases,
                       "run_s": time.perf_counter() - started,
                       "error": error}}


if __name__ == "__main__":
    sys.exit(main())
