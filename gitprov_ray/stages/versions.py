"""ST1 — the version-chain lag shuffle: the flagship's one event exchange.

The reference's only cross-record state is ``entityVersions: Map<filename,
List<sha>>`` (ProvenanceService.java:92,:294-299,:548-551): the parent of a
'modified' file event is the sha of the LAST prior event (any status) of the
same file. Distributed re-expression: hash-partition the event stream by
(graph, page_key), re-establish per-key order INSIDE the partition, and
compute the lag with vectorized Arrow kernels — never a global state object
(the reference's own concurrency bug, SURVEY.md §3.4, is the cautionary
tale).

The exchange carries every REVISIONS column, so it is the ONLY shuffle the
events take: ``lag_events`` also keeps the events distinct on their
identity (graph, page_key, snapshot_id, event_seq) — an incremental merge
re-sending pages already merged needs no separate dedup pass — and every
statement emitter (stateless and status-dependent) runs on its output.

This stage also owns the within-commit first-event-wins dedup — a
DELIBERATE engine policy pinned by oracle.py, NOT a reference behavior:
the reference's commitFiles.forEach (ProvenanceService.java:167) has no
per-commit filename dedup (a duplicate filename would emit twice and
registerVersion appends each occurrence); the engine instead quarantines
the duplicate so version chains stay well-formed. A page that lists the
same resource twice keeps only the first event (by in-page ``event_seq``):
``lag_events`` flags it ``lag_first`` and ``emit_status_arrow`` emits the
status-dependent statements — wasGeneratedBy / wasInvalidatedBy / used /
wasDerivedFrom — for flagged rows only. The stateless emitter handles only
status-independent statements (identical across duplicate rows, collapsed
by the final triple dedup). The tie-break is deterministic: stable sort by
(graph, page_key, ts, snapshot_id, event_seq), first row wins, so
conflicting duplicate rows resolve identically on every run and match the
oracle's page-order semantics.

Scale design: instead of one map_groups group per file key (per-group Python
call overhead at 10^12 keys), the shuffle key is ``bucket =
hash64(graph,page_key) % num_buckets`` and ``ops.bucket_exchange`` hands
each kernel call a partition of whole buckets — the per-key lag inside it
is one vectorized pass. Hot keys spread over
buckets by the hash; a single pathological key still fits one bucket, which
is the documented partitioning assumption (one key's event chain fits one
worker — the same assumption the reference makes with its in-memory map).
The bucket hash is a fixed-key siphash, process-stable, so reruns partition
identically (checkpoint/resume safe).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..ops import bucket_exchange, bucket_ids

# the columns the status-dependent emitter reads
LAG_COLUMNS = ["graph", "page_key", "snapshot_id", "ts", "change_status",
               "event_seq", "additions", "changes", "deletions"]
# the in-bucket order: per key chronological, then in-page order
_ORDER = ["graph", "page_key", "ts", "snapshot_id", "event_seq"]
EVENT_KEY = ["graph", "page_key", "snapshot_id", "event_seq"]
LAG_KEY = ["graph", "page_key"]
_COMMIT_KEY = ["graph", "page_key", "snapshot_id"]
LAGGED = schemas.REVISIONS.append(pa.field("parent", pa.string())) \
                          .append(pa.field("lag_first", pa.bool_()))


def add_bucket_column(batch: pa.Table, num_buckets: int) -> pa.Table:
    """``batch`` plus its int64 lag ``bucket`` (:func:`ops.bucket_ids` of
    :data:`LAG_KEY`)."""
    return batch.append_column("bucket", pa.array(
        bucket_ids(batch, LAG_KEY, num_buckets), pa.int64()))


def _lagged_schema(schema: pa.Schema) -> pa.Schema:
    if not schema.names:  # a column-less empty frame
        return LAGGED
    return schema.append(LAGGED.field("parent")).append(LAGGED.field("lag_first"))


def _first_rows(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Ascending row indices of the first row of each distinct ``keys``
    value (Arrow hash grouping, no string concat, no sort)."""
    idx = t.select(keys).append_column(
        "__i", pa.array(np.arange(t.num_rows, dtype=np.int64)))
    first = idx.group_by(keys, use_threads=False).aggregate([("__i", "min")])
    return np.sort(first.column("__i_min").to_numpy())


def lag_events(batch: pa.Table) -> pa.Table:
    """One or more whole hash buckets of events → their distinct events in
    per-key order, plus two columns:

    * ``lag_first`` — the row is the first event of its (graph, page_key,
      snapshot_id): the one whose status statements the oracle emits;
    * ``parent`` — on ``lag_first`` rows, the snapshot id of the previous
      ``lag_first`` row of the same (graph, page_key) (the reference's
      ``entityVersions`` lag; null for a key's first version and on the
      other rows).

    Rows repeating an event identity (graph, page_key, snapshot_id,
    event_seq) are dropped, the first in sort order kept. Every key here
    determines the bucket, so a block of several whole buckets gives the
    same rows as each bucket alone (the ``ops.bucket_exchange`` contract).
    Any columns ride along; an empty block returns the typed empty lagged
    table."""
    t = batch.drop_columns(["bucket"]) if "bucket" in batch.column_names \
        else batch
    if t.num_rows == 0:
        return _lagged_schema(t.schema).empty_table()
    t = t.combine_chunks()
    t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in _ORDER]))
    t = t.take(pa.array(_first_rows(t, EVENT_KEY)))
    n = t.num_rows
    first = _first_rows(t, _COMMIT_KEY)
    heads = t.select(["graph", "page_key", "snapshot_id"]).take(pa.array(first))
    m = len(first)

    def prev_equal(name: str) -> pa.Array:
        col = heads.column(name).combine_chunks()
        return pc.fill_null(pc.equal(col.slice(1), col.slice(0, m - 1)), False)

    snap = heads.column("snapshot_id").combine_chunks()
    same_key = pc.and_(prev_equal("graph"), prev_equal("page_key"))
    head_parent = pa.concat_arrays([
        pa.nulls(1, snap.type),
        pc.if_else(same_key, snap.slice(0, m - 1), pa.scalar(None, snap.type))])
    # scatter the heads' parents back to full length: null off the heads
    pos = np.full(n, -1, dtype=np.int64)
    pos[first] = np.arange(m)
    parent = head_parent.take(pa.array(pos, mask=pos < 0))
    lag_first = np.zeros(n, dtype=bool)
    lag_first[first] = True
    return t.append_column(LAGGED.field("parent"), parent) \
            .append_column(LAGGED.field("lag_first"), pa.array(lag_first))


def emit_status_arrow(lagged: pa.Table) -> pa.Table:
    """Lagged events → status-dependent STATEMENTS rows (wasGeneratedBy /
    wasInvalidatedBy / used / wasDerivedFrom) for the ``lag_first`` rows,
    all Arrow kernels (same distributive-escape invariants as
    emit.emit_stateless_arrow; byte-exact attrs JSON template). Pinned by
    test_emit_vec.py multiset parity against ``oracle.build_statements``.

    Quirk-4 policy: 'modified' with no prior version → generation only, no
    usage/derivation (counted by checkpoint._run_metrics as
    ``modified_without_prior_quarantined``)."""
    from .emit import _dict_map
    from .. import idgen
    from ..schemas import STMT_RANK

    if lagged.num_rows == 0:
        return schemas.STATEMENTS.empty_table()
    d = lagged.filter(lagged.column("lag_first"))
    col = {name: d.column(name).combine_chunks()
           for name in LAG_COLUMNS + ["parent"]}
    sha, status = col["snapshot_id"], col["change_status"]
    base = _dict_map(col["page_key"],
                     lambda v: idgen.escape_ncname(idgen.base_entity_name(v)))
    ts = pc.cast(col["ts"], pa.timestamp("us"))
    parts: list[pa.Table] = []

    def block(stmt_type, mask, id_a, subj_a, obj_a, secondary_a, t_a,
              attrs_a):
        k = pc.sum(mask).as_py() or 0
        if not k:
            return
        f = lambda a: a.filter(mask) if not isinstance(a, pa.Scalar) \
            else pa.repeat(a, k)
        parts.append(pa.Table.from_arrays(
            [pa.repeat(pa.scalar(stmt_type), k), f(id_a), f(subj_a),
             f(obj_a), f(secondary_a), f(t_a), f(attrs_a), f(col["graph"]),
             pa.repeat(pa.scalar(STMT_RANK[stmt_type], pa.int32()), k)],
            schema=schemas.STATEMENTS))

    spec = pc.binary_join_element_wise(base, sha, "_commit-")
    act = pc.binary_join_element_wise("commit-", sha, "")
    no_s = pa.scalar(None, pa.string())
    no_t = pa.scalar(None, pa.timestamp("us"))
    empty = pa.scalar("{}")
    block("wasGeneratedBy", pc.is_in(status, pa.array(["added", "modified"])),
          pc.binary_join_element_wise("generation-", base, "-", sha, ""),
          spec, act, no_s, ts, empty)
    block("wasInvalidatedBy", pc.fill_null(pc.equal(status, "removed"), False),
          pc.binary_join_element_wise("invalidation-", base, "-", sha, ""),
          spec, act, no_s, ts, empty)

    parent = col["parent"]
    used = pc.fill_null(pc.and_(pc.equal(status, "modified"),
                                pc.is_valid(parent)), False)
    parent_spec = pc.binary_join_element_wise(base, parent, "_commit-")
    usage = pc.binary_join_element_wise(sha, parent, "-")
    block("used", used,
          pc.binary_join_element_wise("usage-", base, "-", usage, ""),
          act, parent_spec, no_s, ts, empty)
    count = lambda name: pc.cast(col[name], pa.string())
    attrs = pc.binary_join_element_wise(
        '{"gitprov:additions": [', count("additions"),
        ', "xsd:int"], "gitprov:changes": [', count("changes"),
        ', "xsd:int"], "gitprov:deletions": [', count("deletions"),
        ', "xsd:int"], "prov:hadGeneration": ["generation-', sha,
        '", "@uri"], "prov:hadUsage": ["usage-', usage, '", "@uri"]}', "")
    block("wasDerivedFrom", used,
          pc.binary_join_element_wise("derivation-", spec, "-", parent, ""),
          spec, parent_spec, act, no_t, attrs)

    if not parts:
        return schemas.STATEMENTS.empty_table()
    return pa.concat_tables(parts).combine_chunks()


def lag_exchange(events_ds, num_buckets: int = 64):
    """Events Dataset → its lagged events (:func:`lag_events` per
    partition of whole buckets): the one keyed exchange, on
    hash(graph, page_key) through ``ops.bucket_exchange``, every column
    carried (SURVEY.md §4.3 shuffle #1)."""
    return bucket_exchange(events_ds, LAG_KEY, lag_events, num_buckets)


def version_lag_group(df: pd.DataFrame) -> pd.DataFrame:
    """One bucket of events as a pandas frame → its status-dependent
    STATEMENT rows (the per-bucket :func:`lag_events` +
    :func:`emit_status_arrow` pass, for callers holding pandas)."""
    t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
    return emit_status_arrow(lag_events(t)).to_pandas()


def version_statements(revisions_ds, num_buckets: int = 64):
    """revisions Dataset → status-dependent statements Dataset
    (wasGeneratedBy / wasInvalidatedBy / used / wasDerivedFrom) through
    :func:`lag_exchange` over the ``LAG_COLUMNS`` only."""
    return lag_exchange(revisions_ds.select_columns(LAG_COLUMNS),
                        num_buckets).map_batches(emit_status_arrow,
                                                 batch_format="pyarrow")
