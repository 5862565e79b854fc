"""Persistent incremental dedup index: streaming-curation state.

A crawl pipeline processes batches over weeks; exact dedup must hold
ACROSS batches without recomputing the world. The index is a
hash-partitioned parquet directory (``bucket=NN/part-*.parquet`` of
md5-prefix buckets) holding one row per seen content hash; each
``update()``:

1. hashes the new batch (vectorized md5 over text, same rule as
   ``q_exact_dedup_docs``),
2. drops rows whose hash is already IN the index via the bucketed
   semi-join (``ops.semi_join`` anti mode — never the index on the
   driver),
3. dedups the batch internally (first doc_id per hash wins, the A1
   grouped-first rule),
4. appends the novel hashes to their bucket partitions ATOMICALLY
   (stage + rename, the store.py pattern), so a crashed update never
   half-writes the index.

Work per update is proportional to the BATCH (one semi-join against the
index Dataset, which Ray reads partition-parallel), not the corpus.
Re-sending a batch is a no-op. Reference analog: the reference dedups
base entities within one run only (SURVEY §2.6 ST3); this extends the
rule across runs, which a 100-TB rolling crawl needs.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

_NBUCKETS = 16


def _hash_batch(df: pd.DataFrame, id_col: str, text_col: str) -> pd.DataFrame:
    import hashlib

    h = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
         for t in df[text_col]]
    return pd.DataFrame({
        id_col: df[id_col].to_numpy(),
        text_col: df[text_col].to_numpy(),
        "text_md5": pd.Series(h, dtype="object")})


def _empty_index(root: str) -> bool:
    return not os.path.isdir(root) or not any(
        f.endswith(".parquet") for _, _, fs in os.walk(root) for f in fs)


def read_index(root: str):
    """Index → Dataset of (text_md5, keep_id)."""
    import ray.data as rd

    from .util import tune_context

    tune_context()
    return rd.read_parquet(root)


def update(root: str, docs_ds, id_col: str = "doc_id",
           text_col: str = "text") -> dict:
    """Process one batch: returns {novel: Dataset of novel rows,
    novel_count, dropped_count}; appends the novel hashes to the index
    atomically. Novel = hash unseen in the index AND first id within
    the batch."""
    import uuid

    import pyarrow as pa
    import pyarrow.parquet as pq

    from .ops import bucket_exchange, bucket_ids, semi_join

    hashed = docs_ds.map_batches(
        lambda df: _hash_batch(df, id_col, text_col),
        batch_format="pandas")
    total = hashed.count()

    if not _empty_index(root):
        fresh = semi_join(hashed, read_index(root),
                          "text_md5", "text_md5", anti=True)
    else:
        fresh = hashed

    # in-batch dedup: first id per hash (A1 grouped-first)
    def first_per_hash(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col], kind="mergesort")
        return df.drop_duplicates("text_md5", keep="first")

    novel = bucket_exchange(fresh, ["text_md5"], first_per_hash, _NBUCKETS,
                            "pandas").materialize()
    novel_count = novel.count()

    # atomic append: stage new partition files, then rename into place
    stage = f"{root}.staging-{uuid.uuid4().hex[:8]}"
    os.makedirs(stage, exist_ok=True)
    written = []
    for batch in novel.iter_batches(batch_format="pandas",
                                    batch_size=65536):
        if not len(batch):
            continue
        b = bucket_ids(pa.table({"text_md5": batch["text_md5"]}),
                       ["text_md5"], _NBUCKETS)
        for bucket, sub in batch.groupby(b):
            d = os.path.join(root, f"bucket={bucket:02d}")
            os.makedirs(d, exist_ok=True)
            sd = os.path.join(stage, f"bucket={bucket:02d}")
            os.makedirs(sd, exist_ok=True)
            name = f"part-{uuid.uuid4().hex[:12]}.parquet"
            t = pa.table({
                "text_md5": pa.array(sub["text_md5"], pa.string()),
                "keep_id": pa.array(sub[id_col].astype("int64"),
                                    pa.int64())})
            pq.write_table(t, os.path.join(sd, name),
                           compression="zstd")
            written.append((os.path.join(sd, name),
                            os.path.join(d, name)))
    for src, dst in written:
        os.replace(src, dst)
    import shutil

    shutil.rmtree(stage, ignore_errors=True)
    return {"novel": novel, "novel_count": int(novel_count),
            "dropped_count": int(total - novel_count)}
