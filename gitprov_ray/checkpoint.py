"""Checkpoint-resumable flagship runs (SURVEY.md §4.2 / §7.6).

A run writes each major stage boundary as Parquet under ``workdir`` with a
``_MANIFEST.json`` capturing the input fingerprint and stage config. Resume
= re-running the same function: stages whose manifest validates (same
fingerprint + config, row count matches the files) are skipped and read
back from Parquet; only missing/invalid stages recompute. Writes go through
a staging dir + atomic rename, mirroring the reference's TDB transaction
boundary (StoreService.java:40-43).

Stages:
  1. ``revisions`` — pages parsed to the event table (the expensive html
     pass; small output, ideal checkpoint), written via store.write_store
     as one partition per graph under ``stage=revisions/``; the stage's
     ``_MANIFEST.json`` holds the fingerprint, the graph list and the
     total rows, so an incremental merge reads and replaces only the
     graphs it touches;
  2. ``triples``  — the final graph, written via store.write_store (one
     sorted deduplicated partition per graph, per-partition manifests).

Determinism contract (tested): a resumed run's triple set is identical to a
cold run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.dataset as pads

from . import schemas, store as store_mod
from .pipelines import flagship as fl
from .util import tune_context


_CODE_VERSION = "r3"  # bump when stage semantics change → old checkpoints invalid
_STAGE_SCHEMAS = {"revisions": schemas.REVISIONS}


def _fingerprint(sf_dir: str, repeat: int) -> str:
    """Full-content input fingerprint. The input is read in full anyway, so
    a streaming sha1 over the whole file is cheap relative to the run — and
    unlike a size+head/tail sample it cannot validate a stale checkpoint
    after a same-size middle-of-file edit (the 'resumed run identical to
    cold run' determinism contract)."""
    p = f"{sf_dir}/documents.parquet"
    h = hashlib.sha1()
    with open(p, "rb") as f:
        while chunk := f.read(1 << 22):
            h.update(chunk)
    h.update(f"repeat={repeat}|v={_CODE_VERSION}".encode())
    return h.hexdigest()


def _stage_dir(workdir: str, stage: str) -> str:
    return os.path.join(workdir, f"stage={stage}")


def _manifest_path(workdir: str, stage: str) -> str:
    return os.path.join(_stage_dir(workdir, stage), "_MANIFEST.json")


def _stage_manifest(workdir: str, stage: str) -> dict:
    """The stage-level manifest: fingerprint, graph list and total rows.
    A stage written before the graph-partitioned layout is refused."""
    with open(_manifest_path(workdir, stage)) as f:
        m = json.load(f)
    if "graphs" not in m:
        raise ValueError(
            f"{_stage_dir(workdir, stage)!r} holds a flat-layout checkpoint "
            "that predates the per-graph partitions; rebuild it with "
            "run_flagship(..., fresh=True).")
    return m


def _write_stage_manifest(stage_root: str, stage: str, fingerprint: str,
                          graphs, rows: int) -> None:
    """Atomically (re)write a stage manifest inside the stage directory."""
    tmp = os.path.join(stage_root, f"_MANIFEST.{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump({"stage": stage, "fingerprint": fingerprint,
                   "graphs": sorted(graphs), "rows": rows}, f, sort_keys=True)
    os.replace(tmp, os.path.join(stage_root, "_MANIFEST.json"))


def _stage_valid(workdir: str, stage: str, fingerprint: str) -> bool:
    try:
        m = _stage_manifest(workdir, stage)
        if m["fingerprint"] != fingerprint:
            return False
        files = store_mod.partition_files(_stage_dir(workdir, stage),
                                          m["graphs"])
        return pads.dataset(files).count_rows() == m["rows"]
    except (OSError, ValueError, KeyError, pa.ArrowException):
        return False


def _write_stage(ds, workdir: str, stage: str, fingerprint: str) -> None:
    """Write a whole stage: one partition per graph through the store's
    writer, plus the stage manifest, staged and renamed into place. One
    exchange on ``graph`` first puts each graph in one block, so the stage
    holds one file per graph, not one per graph per input block: a
    whole-stage read then opens as many files as there are graphs."""
    from .ops import bucket_exchange
    from .util import fanout

    final = _stage_dir(workdir, stage)
    staging = os.path.join(workdir, f".staging-{stage}-{uuid.uuid4().hex[:8]}")
    try:
        written = store_mod.write_store(
            bucket_exchange(ds, ["graph"], lambda t: t, fanout()), staging,
            fingerprint=fingerprint)
        _write_stage_manifest(staging, stage, fingerprint, written,
                              sum(written.values()))
        if os.path.exists(final):
            shutil.rmtree(final)
        os.rename(staging, final)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _read_stage(workdir: str, stage: str, graphs=None):
    """The stage's files (every listed graph, or only ``graphs``) against
    the stage's pinned schema. No partition inference: the
    ``stage=<name>`` and ``gpart=<graph>`` directories would otherwise add
    ``stage`` and ``gpart`` columns to every row, and a write-back would
    persist them."""
    from .util import read_parquet_clean

    if graphs is None:
        graphs = _stage_manifest(workdir, stage)["graphs"]
    return read_parquet_clean(
        store_mod.partition_files(_stage_dir(workdir, stage), graphs),
        schema=_STAGE_SCHEMAS[stage], partitioning=None)


def _has_incremental_state(workdir: str) -> bool:
    mp = _manifest_path(workdir, "revisions")
    if not os.path.exists(mp):
        return False
    with open(mp) as f:
        return json.load(f).get("fingerprint", "").startswith("incremental-")


def run_flagship(sf_dir: str, workdir: str, num_buckets: int = 32,
                 repeat: int = 1, fresh: bool = False,
                 canonicalize: bool = False) -> dict:
    """Checkpointed flagship run; returns stage metrics incl. which stages
    were resumed from checkpoint. ``canonicalize=True`` runs the agent
    entity-linking rewrite before the store write (the fingerprint
    carries the flag, so canonical and plain stores never cross-resume);
    the rewrite is deterministic, so per-graph store content is
    identical whether a run completed cold or resumed mid-store.

    A workdir that ``update_flagship`` has merged incremental batches into
    is REFUSED (the base-corpus fingerprint can never match, so resuming
    would silently rmtree the merged store and recompute from the base
    corpus only — discarding every merged batch). Pass ``fresh=True`` to
    explicitly discard the incremental state and rebuild from ``sf_dir``.
    """
    tune_context()  # a resumed run reads its checkpoint before any stage does
    os.makedirs(workdir, exist_ok=True)
    if _has_incremental_state(workdir):
        if not fresh:
            raise ValueError(
                f"workdir {workdir!r} carries incremental state (merged "
                "update_flagship batches); run_flagship would discard it. "
                "Continue with update_flagship, or pass fresh=True to "
                "rebuild from the base corpus.")
        shutil.rmtree(_stage_dir(workdir, "revisions"), ignore_errors=True)
        shutil.rmtree(os.path.join(workdir, "triples_store"),
                      ignore_errors=True)
    fp = _fingerprint(sf_dir, repeat) + f"|b={num_buckets}" \
        + ("|canon=1" if canonicalize else "")
    resumed = []

    if _stage_valid(workdir, "revisions", fp):
        revisions = _read_stage(workdir, "revisions")
        resumed.append("revisions")
    else:
        pages = fl.pages_from_documents(sf_dir, repeat=repeat)
        _write_stage(fl.revisions_from_pages(pages), workdir, "revisions", fp)
        revisions = _read_stage(workdir, "revisions")

    store_root = os.path.join(workdir, "triples_store")
    contributors = fl.contributors_for_sf(sf_dir)
    done = set(store_mod.list_graphs(store_root))
    expected = {c["graph"] for c in contributors}
    man_fp_ok = all(
        (store_mod.read_manifest(store_root, g) or {}).get("fingerprint") == fp
        for g in done)
    if done == expected and man_fp_ok and done:
        resumed.append("triples")
        n = sum((store_mod.read_manifest(store_root, g) or {}).get("rows", 0)
                for g in sorted(done))
    else:
        if done and not man_fp_ok:
            shutil.rmtree(store_root, ignore_errors=True)
            done = set()
        triples = fl.triples_from_revisions(
            revisions, contributors, num_buckets=num_buckets)
        if canonicalize:
            triples = fl.canonicalize_triples(triples.materialize(),
                                              num_buckets=num_buckets)
        written = store_mod.write_store(triples, store_root,
                                        skip_existing=bool(done),
                                        fingerprint=fp)
        n = sum(written.values()) + sum(
            (store_mod.read_manifest(store_root, g) or {}).get("rows", 0)
            for g in sorted(done))

    metrics = _run_metrics(sf_dir, repeat, revisions, store_root, n)
    result = {"triples": n, "resumed": resumed, "store": store_root,
              "fingerprint": fp, "metrics": metrics}
    with open(os.path.join(workdir, "_METRICS.json"), "w") as f:
        json.dump(result, f, sort_keys=True, default=str)
    return result


def _event_key_array(t: "pa.Table"):
    """Composite event identity (graph, page_key, snapshot_id, event_seq)
    as one string array — the digest key for revision rows."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(
        t.column("graph"), t.column("page_key"), t.column("snapshot_id"),
        pc.cast(t.column("event_seq"), pa.string()), "\x1f")


def _graphs_and_digest(revs_ds) -> tuple[list[str], str]:
    """One pass over an event set: its sorted distinct graphs and its
    order- and partitioning-independent content digest. Each batch returns
    its distinct graphs and the uint64 hash-sum of its composite keys; the
    driver unions the graphs and adds the sums mod 2**63. Deterministic →
    the incremental fingerprint chain is reproducible, unlike the old
    random uuid stamp (ADVICE r2)."""
    import pandas as pd
    import pyarrow.compute as pc

    mask = 0x7FFFFFFFFFFFFFFF

    def part(t: pa.Table) -> pa.Table:
        k = _event_key_array(t).to_numpy(zero_copy_only=False)
        h = 0 if t.num_rows == 0 else int(
            pd.util.hash_array(k.astype(object)).sum())
        graphs = pc.unique(t.column("graph")).to_pylist()
        return pa.table({"h": pa.array([h & mask], pa.int64()),
                         "graphs": pa.array([graphs], pa.list_(pa.string()))})

    rows = revs_ds.map_batches(part, batch_format="pyarrow").take_all()
    graphs = set().union(*(r["graphs"] for r in rows))
    total = sum(r["h"] for r in rows) & mask
    return sorted(graphs), f"{total:016x}"


def update_flagship(workdir: str, new_pages_ds, num_buckets: int = 32) -> dict:
    """Incremental update: merge a NEW batch of pages into an existing
    flagship run.

    Only the graphs the batch touches recompute: their partitions of the
    ``revisions`` stage union the new events and take the version-lag
    exchange ONCE (``versions.lag_exchange``), so version chains see each
    affected graph's FULL history, old and new. The lagged slice is
    materialized and feeds both the triple path and the checkpoint
    write-back; each replaces exactly those graphs' partitions
    (replace-on-store semantics): store first, then revisions, then the
    stage manifest.

    Re-sending already-processed pages is a no-op: the lag exchange keeps
    the events distinct on (graph, page_key, snapshot_id, event_seq), so
    neither the triples nor the revisions checkpoint grow from re-sends.
    The new fingerprint is derived deterministically (sha1 of the prior
    fingerprint + an order-independent batch content digest) — two runs
    merging the same batches produce the same fingerprint chain. Returns
    {graphs, new_events, triples_written}. A workdir whose revisions stage
    predates the per-graph layout raises ``ValueError``.
    """
    from . import synth
    from .ops import materialize_normalized
    from .stages import versions

    tune_context()
    stage_root = _stage_dir(workdir, "revisions")
    prior = _stage_manifest(workdir, "revisions")
    store_mod.recover_replaced(stage_root)  # before the history is read
    new_revs = fl.revisions_from_pages(new_pages_ds).materialize()
    affected, digest = _graphs_and_digest(new_revs)
    if not affected:
        return {"graphs": [], "new_events": 0, "triples_written": 0}

    old = sorted(set(affected) & set(prior["graphs"]))
    # a union, not materialize + from_arrow_refs: at 2 CPUs that barrier took
    # 0.279 vs 0.260 s per 2-graph merge and 2.40 vs 2.38 s over 20 graphs
    events = new_revs if not old else \
        _read_stage(workdir, "revisions", graphs=old).union(new_revs)
    # materialized once: it feeds the triples AND the write-back. The
    # slice holds few (graph, page_key) buckets, so the exchange leaves
    # empty partitions; dropping them keeps column-less blocks out of both
    lagged = materialize_normalized(
        versions.lag_exchange(events, num_buckets=num_buckets),
        versions.LAGGED)

    fp = "incremental-" + hashlib.sha1(
        f"{prior['fingerprint']}|{digest}".encode()).hexdigest()[:16]

    contributors = synth.contributors_for_sources(affected).to_pylist()
    triples = fl.triples_from_lagged(lagged, contributors,
                                     num_buckets=num_buckets)
    store_root = os.path.join(workdir, "triples_store")
    written = store_mod.write_store(triples, store_root, fingerprint=fp)

    # replace the affected graphs' revisions partitions so the NEXT update
    # sees this history; every other partition stays as it is
    old_rows = sum(store_mod.read_manifest(stage_root, g)["rows"]
                   for g in old)
    revs = store_mod.write_store(
        lagged.select_columns(schemas.REVISIONS.names), stage_root,
        fingerprint=fp)
    _write_stage_manifest(stage_root, "revisions", fp,
                          set(prior["graphs"]) | set(revs),
                          prior["rows"] - old_rows + sum(revs.values()))

    return {"graphs": affected, "new_events": new_revs.count(),
            "triples_written": sum(written.values())}


def _run_metrics(sf_dir: str, repeat: int, revisions, store_root: str,
                 n_triples: int) -> dict:
    """Per-run pipeline counters (north rule: lineage + METRICS): input
    documents, corpus repeat, events, snapshots, modified events, prov:used
    triples and final triples.

    The one quarantine count reported (M15/M16 policy) is
    ``modified_without_prior_quarantined``: 'modified' events with no prior
    version in the corpus (reference would NPE, quirk 4) — each healthy
    modified event yields exactly one prov:used triple, so the difference
    counts the quarantined ones. Pages quarantined for carrying no events
    are not counted here.
    """
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from .ops import distinct_keys

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    agg = revisions.map_batches(
        lambda t: pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "n_modified": pa.array(
                [pc.sum(pc.equal(t.column("change_status"), "modified")
                        .cast(pa.int64())).as_py() or 0], pa.int64()),
        }), batch_format="pyarrow").to_pandas().sum()
    n_events = int(agg["n"])
    n_modified = int(agg["n_modified"])
    n_snapshots = distinct_keys(revisions, "snapshot_id").count()
    used_pred = "http://www.w3.org/ns/prov#used"
    n_used = pads.dataset(store_root).count_rows(
        filter=pads.field("pred") == used_pred)
    return {
        "input_documents": n_docs,
        "corpus_repeat": repeat,
        "events": n_events,
        "snapshots": n_snapshots,
        "modified_events": n_modified,
        "used_triples": n_used,
        "modified_without_prior_quarantined": n_modified - n_used,
        "triples": n_triples,
    }
