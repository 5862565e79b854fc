"""Shuffle audit: build every registered query's LAZY Ray Data plan at
sf0.001 and count the all-to-all exchanges (Sort / Aggregate / Repartition /
Join / HashShuffle operators) in the final Dataset's logical plan.

Sorts are reported in two kinds: ``Sort[bounds]`` partitions on boundaries
given up front (``ops.bucket_exchange``), ``Sort[sampled]`` first runs a
blocking boundary-sampling round over every input block (a plain
``sort(key)`` and every sort-based ``groupby().map_groups``), so the audit
shows which exchanges still pay that round. ``Union`` operators are listed
in the plan column too, not counted as exchanges: a union in front of an
exchange stalled the flagship 15× above ~4,000 documents.

This is the static half of the 100-TB scale review: a query whose plan
carries more exchanges than its algorithm needs is a candidate for the
bucketed-combine treatment (CLAUDE.md invariants 3/4). Queries that
return pandas (driver-small results) execute eagerly and are reported
as 'eager' — their shuffle shape is documented in their docstrings.

Usage: python tools/shuffle_audit.py [--sf-dir DIR] [--out PLANS.md]
"""

import argparse
import re
import sys
import time

sys.path.insert(0, ".")

_EXCHANGE = r"Sort|Aggregate|Repartition|Join|RandomShuffle|Distinct"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ray.data._internal.logical.operators.all_to_all_operator import Sort

    from gitprov_ray.queries import QUERIES

    rows = []
    for name, fn in sorted(QUERIES.items()):
        t0 = time.time()
        try:
            res = fn(args.sf_dir)
        except Exception as e:                        # pragma: no cover
            rows.append((name, "ERROR", str(e)[:80]))
            continue
        dt = time.time() - t0
        if not hasattr(res, "_plan"):
            rows.append((name, "eager", f"returns {type(res).__name__} "
                         f"(driver-small result), built in {dt:.1f}s"))
            continue
        ops_seen: list[str] = []

        def walk(op):
            name = type(op).__name__
            if isinstance(op, Sort):
                name += "[bounds]" if op._sort_key.boundaries else "[sampled]"
            ops_seen.append(name)
            for d in op.input_dependencies:
                walk(d)

        walk(res._logical_plan.dag)
        exchanges = [o for o in ops_seen if re.match(_EXCHANGE, o)]
        shown = [o for o in ops_seen if re.match(_EXCHANGE, o) or o == "Union"]
        rows.append((name, str(len(exchanges)),
                     "+".join(shown) if shown else "map-only"))
    out_lines = ["| query | exchanges | plan |", "|---|---|---|"]
    for name, n, detail in rows:
        out_lines.append(f"| {name} | {n} | {detail} |")
    text = "\n".join(out_lines)
    counts = [int(n) for _, n, _ in rows if n.isdigit()]
    eager = sum(1 for _, n, _ in rows if n == "eager")
    err = sum(1 for _, n, _ in rows if n == "ERROR")
    sampled = [d.count("Sort[sampled]") for _, n, d in rows if n.isdigit()]
    unions = [d.split("+").count("Union") for _, n, d in rows if n.isdigit()]
    summary = (f"lazy plans: {len(counts)}, eager: {eager}, errors: {err}, "
               f"max exchanges: {max(counts) if counts else 0}, "
               f"sampled sorts: {sum(sampled)} in "
               f"{sum(1 for k in sampled if k)} plans, "
               f"unions: {sum(unions)} in {sum(1 for k in unions if k)} plans")
    if args.out:
        with open(args.out, "w") as f:
            f.write("# Per-query exchange audit (lazy plans, sf0.001)\n\n"
                    + text + "\n\n" + summary + "\n")
    print(text)
    print("\n" + summary, file=sys.stderr)
    ray.shutdown()


if __name__ == "__main__":
    main()
