"""Small shared helpers."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def cluster_cpus() -> int:
    """The session's logical CPU count; 8 with no Ray session (plain
    pytest, oracle replays). The one ``ray.cluster_resources()`` lookup
    every fan-out decision derives from."""
    import ray

    try:
        return int(ray.cluster_resources().get("CPU", 8)) \
            if ray.is_initialized() else 8
    except Exception:
        return 8


def fanout() -> int:
    """Blocks per split: 2×CPUs, no floor. Two blocks per core keep every
    core busy through a straggler; more only adds scheduling (a 16-block
    floor at 2 CPUs ran 2–9 ms tasks that cost more to schedule than to
    run). Both figures were measured while Ray Data still capped each
    operator at one task (see ``tune_context``)."""
    return 2 * cluster_cpus()


def tune_context() -> None:
    """Size Ray Data's shuffle/read parallelism to ``fanout()`` and let
    every operator use the whole session.

    The default of 200 partitions creates hundreds of near-empty shuffle
    tasks at small scale (pure scheduling overhead: a 6-group aggregate was
    spending 20s of wall on ~2s of compute). ``fanout()`` (2×CPUs, no
    floor) keeps every core busy while bounding task count; at real
    cluster scale the CPU count grows and the setting scales with it.

    Ray Data's per-operator CPU reservation is switched off: at 2–4 CPUs
    it left nothing to share, so every flagship operator ran one task at
    a time while the other cores idled. Without it Ray Data applies no
    backpressure of its own; the flagship's exchanges hold their whole
    input either way, and a streaming read→map→write chain is bounded by
    Ray core's object spilling.

    Idempotent and cheap — called from every pipeline entry point."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    p = fanout()
    for attr in ("min_parallelism", "read_op_min_num_blocks",
                 "default_hash_shuffle_parallelism"):
        if hasattr(ctx, attr):
            setattr(ctx, attr, p)
    # Ray 2.49 _internal/execution/resource_manager.py:496-560 reserves at
    # least one task's CPU per unfinished operator, upstream first, and
    # shares only the rest; :91-100 builds that allocator only while this
    # flag is on.
    ctx.op_resource_reservation_enabled = False


def read_parquet_clean(path, columns=None, **kwargs):
    """``rd.read_parquet`` with the file's pandas schema metadata stripped.

    Parquet written by pandas embeds a ``b'pandas'`` metadata dict in the
    file schema; Ray propagates it into every downstream block, and a
    pa.Schema carrying metadata is UNHASHABLE — defeating Ray's
    reduce-side schema dedup and flooding every shuffle's logs with
    "Failed to hash the schemas (for deduplication)" warnings (VERDICT r2
    #9). Passing an explicit metadata-free schema keeps every read block
    clean at the source; one driver-side footer read, no extra map stage.

    A list of 1 < k < ``fanout()`` files reads as k blocks, one per task:
    Ray split each task's output to reach ``fanout()`` blocks, a task
    holding its CPU pauses at 2 unconsumed blocks, and a queued task then
    waited out the executor's 0.1 s poll (CLAUDE.md invariant 19). One
    file still splits to ``fanout()`` blocks: one task, none queued.
    """
    import pyarrow.parquet as pq
    import ray.data as rd

    if isinstance(path, (list, tuple)) and 1 < len(path) < fanout():
        kwargs.setdefault("override_num_blocks", len(path))
    if "schema" not in kwargs:
        first = path[0] if isinstance(path, (list, tuple)) else path
        try:
            sch = pq.read_schema(first).remove_metadata()
            if columns is not None:
                sch = pa.schema([sch.field(c) for c in columns])
            kwargs["schema"] = sch
        except Exception:
            pass  # directory paths / odd stores: fall back to plain read
    return rd.read_parquet(path, columns=columns, **kwargs)


def pandas_to_arrow(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """Normalize a (possibly empty/column-less) pandas block to an Arrow
    table with the canonical schema — keeps every operator's output schema
    stable regardless of empty shuffle partitions.

    The pandas metadata dict ``from_pandas`` attaches is stripped: it is
    unhashable, which defeats Ray's reduce-side schema dedup and floods the
    logs with "Failed to hash the schemas" warnings."""
    if df is None or len(df) == 0 or df.shape[1] == 0:
        return pa.Table.from_pylist([], schema=schema)
    return pa.Table.from_pandas(df, schema=schema,
                                preserve_index=False).replace_schema_metadata(None)
