"""ST1 — the version-chain lag shuffle (all status-dependent statements).

The reference's only cross-record state is ``entityVersions: Map<filename,
List<sha>>`` (ProvenanceService.java:92,:294-299,:548-551): the parent of a
'modified' file event is the sha of the LAST prior event (any status) of the
same file. Distributed re-expression: hash-partition the event stream by
(graph, page_key), re-establish per-key order INSIDE the partition, and
compute the lag with a vectorized pandas groupby/shift — never a global
state object (the reference's own concurrency bug, SURVEY.md §3.4, is the
cautionary tale).

This stage also owns the within-commit first-event-wins dedup — a
DELIBERATE engine policy pinned by oracle.py, NOT a reference behavior:
the reference's commitFiles.forEach (ProvenanceService.java:167) has no
per-commit filename dedup (a duplicate filename would emit twice and
registerVersion appends each occurrence); the engine instead quarantines
the duplicate so version chains stay well-formed. A page that lists the
same resource twice keeps only the first event (by in-page ``event_seq``),
so the status-dependent statements — wasGeneratedBy / wasInvalidatedBy /
used / wasDerivedFrom — are ALL emitted here, after the global
(graph, page_key, snapshot_id) dedup. The stateless emitter handles only
status-independent statements (identical across duplicate rows, collapsed
by the final triple dedup). The dedup tie-break is deterministic: stable
sort by (graph, page_key, ts, snapshot_id, event_seq) then keep-first, so
conflicting duplicate rows resolve identically on every run and match the
oracle's page-order semantics.

Scale design: instead of one map_groups group per file key (per-group Python
call overhead at 10^12 keys), the shuffle key is ``bucket =
hash64(graph,page_key) % num_buckets`` — each group is a whole bucket and
the per-key lag inside it is one vectorized pandas groupby/shift. Hot keys
spread over buckets by the hash; a single pathological key still fits one
bucket, which is the documented partitioning assumption (one key's event
chain fits one worker — the same assumption the reference makes with its
in-memory map). The bucket hash is sha1-based and process-stable, so reruns
partition identically (checkpoint/resume safe).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import schemas

LAG_COLUMNS = ["graph", "page_key", "snapshot_id", "ts", "change_status",
               "event_seq", "additions", "changes", "deletions"]


def stable_bucket(graph: pd.Series, key: pd.Series, num_buckets: int) -> np.ndarray:
    """Deterministic, process-stable bucket id per (graph, key) — vectorized
    pandas siphash (fixed default hash key → identical across workers)."""
    joined = graph.astype(str) + "\x1f" + key.astype(str)
    h = pd.util.hash_pandas_object(joined, index=False).to_numpy()
    return (h % num_buckets).astype(np.int64)


def add_bucket_column(batch: pa.Table, num_buckets: int) -> pa.Table:
    g = batch.column("graph").to_pandas()
    k = batch.column("page_key").to_pandas()
    return batch.append_column(
        "bucket", pa.array(stable_bucket(g, k, num_buckets), type=pa.int64())
    )


_EMPTY = pd.DataFrame(
    {
        "stmt_type": pd.Series(dtype=object), "id": pd.Series(dtype=object),
        "subj": pd.Series(dtype=object), "obj": pd.Series(dtype=object),
        "secondary": pd.Series(dtype=object),
        "t": pd.Series(dtype="datetime64[us]"),
        "attrs": pd.Series(dtype=object), "graph": pd.Series(dtype=object),
        "stmt_rank": pd.Series(dtype="int32"),
    }
)


def dedup_lag(df: pd.DataFrame) -> pd.DataFrame:
    """One hash bucket of events → deduped rows + ``parent`` lag column.

    Replicates: per-key chronological order (ts, snapshot_id); within-commit
    first-event-wins dedup by event_seq (oracle seen_files); parent =
    previous event sha of any status."""
    df = df.sort_values(["graph", "page_key", "ts", "snapshot_id", "event_seq"],
                        kind="mergesort")
    df = df.drop_duplicates(["graph", "page_key", "snapshot_id"]).copy()
    df["parent"] = df.groupby(["graph", "page_key"], sort=False)["snapshot_id"].shift(1)
    return df


def version_lag_group(df: pd.DataFrame) -> pd.DataFrame:
    """One hash bucket of events → STATEMENT rows for every status-dependent
    emitter (wasGeneratedBy / wasInvalidatedBy / used / wasDerivedFrom).

    Quirk-4 policy: 'modified' with no prior version → generation only, no
    usage/derivation (counted by checkpoint._run_metrics as
    ``modified_without_prior_quarantined``)."""
    if len(df) == 0:
        return _EMPTY.copy()
    return _emit_status_stmts_vec(dedup_lag(df))


def _emit_status_stmts_vec(d: pd.DataFrame) -> pd.DataFrame:
    """Deduped+lagged rows → status-dependent STATEMENT rows, vectorized
    (same distributive-escape invariants as emit.emit_stateless_arrow;
    byte-exact attrs JSON template). Pinned by test_emit_vec.py multiset
    parity against ``oracle.build_statements``."""
    from .. import idgen
    from ..schemas import STMT_RANK

    base_of = {v: idgen.escape_ncname(idgen.base_entity_name(v))
               for v in pd.unique(d["page_key"])}
    base = d["page_key"].map(base_of)
    sha = d["snapshot_id"]
    spec = base + "_commit-" + sha
    act = "commit-" + sha
    frames: list[pd.DataFrame] = []

    gen_mask = d["change_status"].isin(["added", "modified"]).to_numpy()
    if gen_mask.any():
        g = d[gen_mask]
        frames.append(pd.DataFrame({
            "stmt_type": "wasGeneratedBy",
            "id": ("generation-" + base[gen_mask] + "-" + g["snapshot_id"]).to_numpy(),
            "subj": spec[gen_mask].to_numpy(),
            "obj": act[gen_mask].to_numpy(), "secondary": None,
            "t": g["ts"].to_numpy(), "attrs": "{}",
            "graph": g["graph"].to_numpy(),
            "stmt_rank": STMT_RANK["wasGeneratedBy"]}))
    inv_mask = (d["change_status"] == "removed").to_numpy()
    if inv_mask.any():
        iv = d[inv_mask]
        frames.append(pd.DataFrame({
            "stmt_type": "wasInvalidatedBy",
            "id": ("invalidation-" + base[inv_mask] + "-" + iv["snapshot_id"]).to_numpy(),
            "subj": spec[inv_mask].to_numpy(),
            "obj": act[inv_mask].to_numpy(), "secondary": None,
            "t": iv["ts"].to_numpy(), "attrs": "{}",
            "graph": iv["graph"].to_numpy(),
            "stmt_rank": STMT_RANK["wasInvalidatedBy"]}))

    m = d[(d["change_status"] == "modified") & d["parent"].notna()]
    if len(m):
        mbase = base[m.index]
        msha, parent = m["snapshot_id"], m["parent"]
        mspec = mbase + "_commit-" + msha
        parent_spec = mbase + "_commit-" + parent
        mact = "commit-" + msha
        frames.append(pd.DataFrame({
            "stmt_type": "used",
            "id": ("usage-" + mbase + "-" + msha + "-" + parent).to_numpy(),
            "subj": mact.to_numpy(), "obj": parent_spec.to_numpy(),
            "secondary": None, "t": m["ts"].to_numpy(), "attrs": "{}",
            "graph": m["graph"].to_numpy(), "stmt_rank": STMT_RANK["used"]}))

        attrs = ('{"gitprov:additions": [' + m["additions"].astype(str)
                 + ', "xsd:int"], "gitprov:changes": [' + m["changes"].astype(str)
                 + ', "xsd:int"], "gitprov:deletions": [' + m["deletions"].astype(str)
                 + ', "xsd:int"], "prov:hadGeneration": ["generation-' + msha
                 + '", "@uri"], "prov:hadUsage": ["usage-' + msha + "-" + parent
                 + '", "@uri"]}')
        frames.append(pd.DataFrame({
            "stmt_type": "wasDerivedFrom",
            "id": ("derivation-" + mspec + "-" + parent).to_numpy(),
            "subj": mspec.to_numpy(), "obj": parent_spec.to_numpy(),
            "secondary": mact.to_numpy(), "t": pd.NaT, "attrs": attrs.to_numpy(),
            "graph": m["graph"].to_numpy(),
            "stmt_rank": STMT_RANK["wasDerivedFrom"]}))

    if not frames:
        return _EMPTY.copy()
    frames = [f for f in frames if len(f)]
    for f in frames:
        # align all-NaT ns columns to the us event timestamps (see emit.py)
        if str(f["t"].dtype) != "datetime64[us]":
            f["t"] = f["t"].astype("datetime64[us]")
    out = pd.concat(frames, ignore_index=True) if len(frames) > 1 else frames[0].copy()
    out["t"] = pd.to_datetime(out["t"])
    out["stmt_rank"] = out["stmt_rank"].astype("int32")
    return out


def version_statements(revisions_ds, num_buckets: int = 64):
    """revisions Dataset → status-dependent statements Dataset
    (wasGeneratedBy / wasInvalidatedBy / used / wasDerivedFrom).

    Shuffle #1 of the physical plan (SURVEY.md §4.3): key = hash bucket of
    (graph, page_key). Columns are pruned BEFORE the shuffle so only the
    lag-relevant fields move.
    """
    keyed = revisions_ds.select_columns(LAG_COLUMNS).map_batches(
        lambda b: add_bucket_column(b, num_buckets), batch_format="pyarrow")
    grouped = keyed.groupby("bucket").map_groups(
        lambda df: version_lag_group(df.drop(columns=["bucket"])),
        batch_format="pandas",
    )
    # normalize back to Arrow blocks with the canonical STATEMENTS schema so
    # the downstream union sees one schema
    from ..util import pandas_to_arrow

    return grouped.map_batches(
        lambda df: pandas_to_arrow(df, schemas.STATEMENTS),
        batch_format="pandas",
    )
