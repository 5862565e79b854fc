"""Deduplication & near-dup linking: exact, MinHash+LSH, SimHash, n-gram
Jaccard — the canonicalization machinery of the KG pipeline and the
dedup ops of a training-data pipeline.

Scale design notes (per SURVEY.md §7.4):
  * exact dedup: content-hash in a stateless map_batches, PARTIAL per-batch
    combine, then a small groupby aggregate — the shuffle moves one row per
    distinct hash per batch, not one per input row;
  * MinHash LSH: signatures are stateless & vectorized (one token-hash pass
    per batch + rolling-window combine + segment-min, no per-gram Python
    hashing); candidate generation is a groupby on (band_id, band_hash) —
    the classic hot-bucket skew point, so buckets larger than `max_bucket`
    are truncated-with-logging (no silent caps) and the pairing is
    in-bucket pairwise over signatures only (shingle sets never move
    through the shuffle);
  * clusters: large-star / small-star contraction over the pair graph
    (`min_label_components`) — two keyed exchanges per round, no driver
    union-find, converges in O(log² n) rounds;
  * n-gram verify: candidate pairs are hash-joined to the documents table
    on each endpoint (two shuffle joins), so only candidate docs' texts
    move and nothing corpus-sized ever lands on the driver.

Seeded MinHash permutations are module-level constants (seed pinned) so
signatures are reproducible across workers and runs.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd

_MERSENNE = (1 << 61) - 1
_K = 64                      # signature length
_BANDS = 16                  # LSH bands (r = _K // _BANDS = 4)
_rng = np.random.RandomState(42)
_A = _rng.randint(1, _MERSENNE, size=_K, dtype=np.int64).astype(np.uint64)
_B = _rng.randint(0, _MERSENNE, size=_K, dtype=np.int64).astype(np.uint64)

# rolling-window combine constants (odd multipliers, uint64 wraparound)
_P1_INT = 0x9E3779B97F4A7C15
_P1 = np.uint64(_P1_INT)
_P2 = np.uint64((_P1_INT * _P1_INT) & 0xFFFFFFFFFFFFFFFF)


def _tokenize_batch_arrow(texts) -> tuple[np.ndarray, np.ndarray]:
    """Lower + whitespace-tokenize a batch of texts with Arrow C++
    kernels → (flat token-hash array, per-doc token counts).

    The per-text ``.lower().split()`` Python loop was the text-heaviest
    pandas cost in the MinHash stage (VERDICT r04 #2); lowercasing and
    splitting now run in Arrow (utf8_lower + utf8_split_whitespace,
    boundary empties filtered), and ONLY the token hash touches Python
    objects — through the same ``pd.util.hash_array`` siphash as before,
    so token hashes (and therefore signatures) are unchanged for any
    text where Arrow's simple case mapping agrees with ``str.lower``
    (everything but exotic case-mapping codepoints like U+0130, pinned
    by the parity test against the readable twin)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array(list(texts), pa.string())
    if arr.null_count:
        arr = arr.fill_null("")
    toks = pc.utf8_split_whitespace(pc.utf8_lower(arr))
    seg_lens = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    # pyarrow 16.1 utf8_split_whitespace has a state-dependent bug on
    # texts ENDING in whitespace: after certain prior kernel
    # executions in the same process, the final token keeps its
    # trailing separator ("all " instead of "all" + trailing "") —
    # nondeterministically per process, which made identical documents
    # hash to 63/64-matching MinHash signatures depending on which
    # worker computed them. Trimming each flattened token is a no-op
    # on correct kernel output and repairs the corrupt one (split
    # tokens contain no interior whitespace by construction); the
    # empty-filter below then drops separator residue either way.
    flat = pc.utf8_trim_whitespace(flat)
    nonempty = pc.not_equal(flat, "")
    mask = nonempty.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.zeros(len(seg_lens), np.int64)
    live = seg_lens > 0
    if live.any():
        offsets = np.cumsum(seg_lens) - seg_lens
        # reduceat misbehaves on zero-length segments — reduce only the
        # live ones and scatter back
        counts[live] = np.add.reduceat(mask, offsets[live]) \
            if mask.size else 0
    flat_tokens = flat.filter(nonempty)
    if len(flat_tokens):
        th = pd.util.hash_array(
            flat_tokens.to_numpy(zero_copy_only=False))
    else:
        th = np.empty(0, dtype=np.uint64)
    return th, counts


def _shingle_hashes_batch(texts, n: int = 3) -> list[np.ndarray]:
    """Word-n-gram shingle hash sets for a BATCH of texts.

    Tokenization is Arrow-native (_tokenize_batch_arrow); one vectorized
    `pd.util.hash_array` call hashes every token in the batch (stable
    fixed-key siphash, identical across workers); n-gram hashes are a
    vectorized rolling combine of the token-hash windows
    (h0*P² + h1*P + h2 mod 2⁶⁴) — no per-gram string construction or
    Python-level hashing. Clamped to 61 bits (< the Mersenne prime) for
    the universal-hash MinHash step."""
    th_all, counts = _tokenize_batch_arrow(texts)
    out: list[np.ndarray] = []
    pos = 0
    for cnt in counts:
        h = th_all[pos: pos + cnt]
        pos += cnt
        if cnt < n:
            # mirror the single-gram " ".join(toks) fallback: one combined
            # hash over all tokens (constant for the empty text); python-int
            # arithmetic avoids numpy's uint64 scalar-overflow warnings
            g = 0x6A09E667F3BCC908
            for x in h:
                g = (g * _P1_INT + int(x)) & 0xFFFFFFFFFFFFFFFF
            grams = np.array([g], dtype=np.uint64)
        else:
            grams = h[: len(h) - n + 1] * _P2 + h[1: len(h) - n + 2] * _P1 \
                + h[2: len(h) - n + 3]
        out.append(np.unique(grams >> np.uint64(3)))
    return out


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Single-document adapter over the batch kernel."""
    return _shingle_hashes_batch([text], n)[0]


def minhash_signature(text: str) -> np.ndarray:
    """k=64 MinHash signature of the word-3-gram shingle set."""
    return _minhash_of(_shingle_hashes(text))


def _minhash_of(x: np.ndarray) -> np.ndarray:
    if len(x) == 0:
        return np.zeros(_K, dtype=np.uint64)
    # h_i(x) = (a_i * x + b_i) mod p, vectorized over (K, n)
    v = (_A[:, None] * x[None, :] + _B[:, None]) % np.uint64(_MERSENNE)
    return v.min(axis=1)


def band_keys(sig: np.ndarray) -> list[str]:
    """Per-band bucket keys for the DRIVER twin (`canonical_agent_map`).
    The distributed path uses the vectorized int64 `band_hashes_matrix`
    keys instead — bucket membership may differ on hash collisions, but
    pair emission compares full signatures, so the pair SET is identical
    (pinned by test_canonical_map_ds_matches_driver_twin)."""
    r = _K // _BANDS
    return [
        f"{b}:" + hashlib.md5(sig[b * r : (b + 1) * r].tobytes()).hexdigest()[:16]
        for b in range(_BANDS)
    ]


_P3 = np.uint64((_P1_INT * _P1_INT * _P1_INT) & 0xFFFFFFFFFFFFFFFF)


def band_hashes_matrix(sigs: np.ndarray) -> np.ndarray:
    """(n, K) uint64 signatures → (n, BANDS) uint64 band-slice hashes via
    the rolling-multiplier combine — one vectorized pass, replacing the old
    per-doc-per-band md5 loop in the explode stage."""
    n = sigs.shape[0]
    r = _K // _BANDS
    R = sigs.reshape(n, _BANDS, r)
    bh = R[:, :, 0] * _P3 + R[:, :, 1] * _P2 + R[:, :, 2] * _P1 + R[:, :, 3]
    return bh


def _signatures_matrix(texts: list) -> np.ndarray:
    """texts → (n, K) uint64 MinHash signature matrix.

    Batch-vectorized: one token-hash pass for the whole batch, then ONE
    (K × total_shingles) universal-hash matrix with per-document
    segment-min (`np.minimum.reduceat`) — no per-document Python loop in
    the hash path."""
    shingles = _shingle_hashes_batch(texts)
    lens = np.array([len(s) for s in shingles], dtype=np.int64)
    sigs = np.zeros((len(shingles), _K), dtype=np.uint64)
    nz = lens > 0
    if nz.any():
        allsh = np.concatenate([s for s in shingles if len(s)])
        v = (_A[:, None] * allsh[None, :] + _B[:, None]) % np.uint64(_MERSENNE)
        offsets = np.concatenate([[0], np.cumsum(lens[nz])[:-1]])
        mins = np.minimum.reduceat(v, offsets, axis=1)  # (K, n_nonzero_docs)
        sigs[nz] = mins.T
    return sigs


def signature_batch(df: pd.DataFrame, id_col: str, text_col: str) -> pd.DataFrame:
    """documents batch → (doc_id, sig: list<uint64 as int64>) rows (the
    readable pandas twin; the pipeline uses the fused Arrow band stage)."""
    sigs = _signatures_matrix(list(df[text_col]))
    return pd.DataFrame({
        id_col: df[id_col].to_numpy(),
        "sig": [s.astype(np.int64) for s in sigs],
    })


def _bands_table(ids: "pa.Array", sigs: np.ndarray,
                 id_col: str, num_buckets: int) -> "pa.Table":
    """(ids, (n,K) uint64 sig matrix) → (bucket, bkey, id, sigb) Arrow
    rows, one per LSH band — the narrow exchange (VERDICT r2 #1a).

    * ``bkey`` is an 8-byte int (band index in the top byte, vectorized
      band-slice hash below) replacing the old 19-char md5 string — and
      the md5-per-doc-per-band Python loop. A key collision only
      co-buckets extra docs; pair emission still compares FULL signatures,
      so the pair set is unchanged.
    * ``sigb`` is the 512-byte signature as a DICTIONARY-encoded binary
      column: each doc's signature is serialized once per block instead of
      once per band row (~6× fewer shuffle bytes; Ray's sort shuffle
      preserves dictionary encoding — decoded post-shuffle in
      bucket_group, where pandas can't represent the merged dictionary).
    """
    import pyarrow as pa

    n = len(ids)
    bh = band_hashes_matrix(sigs)                              # (n, BANDS)
    bidx = np.arange(_BANDS, dtype=np.uint64)
    bkey_u = (bh >> np.uint64(8)) | (bidx[None, :] << np.uint64(56))
    flat_u = bkey_u.reshape(-1)
    # dictionary VALUES must be unique (exact-dup docs share a signature;
    # pandas Categorical — which some Ray paths convert blocks through —
    # rejects duplicate categories)
    if n:
        uniq, inv = np.unique(sigs, axis=0, return_inverse=True)
    else:
        uniq, inv = sigs, np.zeros(0, dtype=np.int64)
    sigb = pa.DictionaryArray.from_arrays(
        pa.array(np.repeat(inv.astype(np.int32), _BANDS)),
        pa.array([s.tobytes() for s in uniq], pa.binary()))
    rep = ids.take(pa.array(np.repeat(np.arange(n, dtype=np.int64), _BANDS)))
    return pa.table({
        "bucket": pa.array((flat_u % np.uint64(num_buckets)).astype(np.int64)),
        "bkey": pa.array(flat_u.view(np.int64)),
        id_col: rep,
        "sigb": sigb,
    })


def signature_bands_batch(t: "pa.Table", id_col: str, text_col: str,
                          num_buckets: int = 32) -> "pa.Table":
    """documents Arrow batch → LSH band rows, fused signature+explode in
    one Arrow-native stage (the whole chain stays Arrow — a pandas stage
    before the sort made Ray's sort reduce normalize blocks to pandas,
    which cannot represent concat-merged dictionary columns)."""
    sigs = _signatures_matrix(t.column(text_col))
    return _bands_table(t.column(id_col), sigs, id_col, num_buckets)


def explode_bands(df: pd.DataFrame, id_col: str,
                  num_buckets: int = 32) -> "pa.Table":
    """(id, sig list<int64>) pandas batch → band rows (adapter over
    `_bands_table` for pre-computed signature frames)."""
    import pyarrow as pa

    n = len(df)
    sigs = (np.stack([np.asarray(s) for s in df["sig"]]).astype(np.uint64)
            if n else np.zeros((0, _K), np.uint64))
    return _bands_table(pa.Array.from_pandas(df[id_col]), sigs, id_col,
                        num_buckets)


def _pairs_from_arrays(ids: np.ndarray, sigs: np.ndarray, threshold: float,
                       band_idx: int) -> tuple[list, list, list]:
    """Exact pairwise candidate emission over one (sub-)bucket: pair (a, b)
    emitted iff est_jaccard (fraction of equal signature components) ≥
    threshold AND ``band_idx`` is the first band whose slices fully match
    (emit-once: no second global pair-dedup shuffle needed, because both
    docs' full signatures are present in every matching bucket)."""
    r = _K // _BANDS
    rows_a: list = []
    rows_b: list = []
    est: list = []
    n = len(ids)
    for i in range(n - 1):
        eqc = sigs[i + 1:] == sigs[i]            # (n-i-1, K) component equality
        eq = eqc.mean(axis=1)
        hit = np.nonzero(eq >= threshold)[0]
        for j in hit:
            if band_idx > 0:
                bands_eq = eqc[j].reshape(_BANDS, r).all(axis=1)
                if bands_eq[:band_idx].any():
                    continue
            rows_a.append(ids[i])
            rows_b.append(ids[i + 1 + j])
            est.append(float(eq[j]))
    return rows_a, rows_b, est


def bucket_pairs(df: pd.DataFrame, id_col: str, threshold: float,
                 band_idx: int | None = None, exact_limit: int = 4096,
                 sub_chunk: int = 512, presorted: bool = False) -> pd.DataFrame:
    """One LSH band bucket → candidate pairs with estimated Jaccard.
    Deterministic: ids sorted, a < b. Integer or string ids (dtype
    preserved). ``df`` carries the signature as 512-byte ``sigb`` binaries.

    NO truncation (VERDICT r2 #1b — the old ``max_bucket=200`` head-cut
    dropped exactly the boilerplate-heavy pairs dedup exists for):

    * n ≤ ``exact_limit``: complete pairwise emission — every pair sharing
      this fully-matching band with est ≥ threshold is recovered.
    * n > ``exact_limit`` (logged): salted sub-chunks of ``sub_chunk`` docs
      are paired completely, plus a representative pass (each chunk's
      min-id doc) pairing across chunks — connectivity of the near-dup
      cluster is preserved (giant buckets are near-identical boilerplate,
      so representatives match), while the full quadratic pair list (10^11
      pairs for a 1M-doc bucket) is deliberately NOT materialized. The
      emit-once band check stays exact in the complete regime; in the
      sub-chunk regime a pair whose first matching band chunk-separated it
      may emit from a later band or via representatives (documented
      approximation, replacing the old silent recall loss).
    """
    if not presorted:
        df = df.sort_values(id_col).drop_duplicates(id_col)
    n = len(df)
    empty = pd.DataFrame({"a": df[id_col].head(0),
                          "b": df[id_col].head(0),
                          "est_jaccard": pd.Series(dtype="float64")})
    if n < 2:
        return empty
    ids = df[id_col].to_numpy()
    sigs = np.stack([np.frombuffer(b, dtype=np.uint64) for b in df["sigb"]])
    bi = band_idx if band_idx is not None else 0
    if n <= exact_limit:
        rows_a, rows_b, est = _pairs_from_arrays(ids, sigs, threshold, bi)
    else:
        logging.getLogger(__name__).warning(
            "LSH bucket of %d docs > exact_limit=%d: sub-chunk pairing + "
            "representative pass (complete pair list would be quadratic)",
            n, exact_limit)
        rows_a, rows_b, est = [], [], []
        starts = range(0, n, sub_chunk)
        for s in starts:
            ca, cb, ce = _pairs_from_arrays(ids[s:s + sub_chunk],
                                            sigs[s:s + sub_chunk],
                                            threshold, bi)
            rows_a += ca; rows_b += cb; est += ce
        reps = np.array([s for s in starts], dtype=np.int64)
        ca, cb, ce = _pairs_from_arrays(ids[reps], sigs[reps], threshold, bi)
        rows_a += ca; rows_b += cb; est += ce
    if not rows_a:
        return empty
    return pd.DataFrame({"a": pd.Series(rows_a).astype(df[id_col].dtype),
                         "b": pd.Series(rows_b).astype(df[id_col].dtype),
                         "est_jaccard": pd.Series(est, dtype="float64")})


def minhash_candidate_pairs(docs_ds, id_col="doc_id", text_col="text",
                            threshold: float = 0.8, num_buckets: int = 32):
    """documents Dataset → deduped candidate near-dup pairs Dataset.

    pipeline: map_batches(fused signature+band explode, Arrow-native)
            → groupby(bkey % B).map_groups(per-band pairs, vectorized
              pandas groupby inside the bucket — NOT one Ray group per
              band, which would mean one Python call per band).
    ONE shuffle total: a pair is emitted only by its FIRST fully-matching
    band (the lower-band check is local because full signatures travel
    with every band row), so no second pair-dedup exchange is needed.
    """
    bands = docs_ds.map_batches(
        lambda t: signature_bands_batch(t, id_col, text_col, num_buckets),
        batch_format="pyarrow")
    return _lsh_candidate_pairs(bands, id_col, threshold)


def _lsh_candidate_pairs(bands_ds, id_col: str, threshold: float):
    """Pre-exploded band-row Dataset (`_bands_table` layout) → deduped
    candidate pairs via the single bucketed band shuffle with
    first-matching-band emit-once (shared by document near-dup and agent
    canonicalization). The exchange ships int64 band keys +
    dictionary-encoded binary signatures."""

    def bucket_group(t) -> pd.DataFrame:
        import pyarrow as pa

        # decode the dictionary sigb to plain binary HERE (post-shuffle);
        # a pandas-format UDF would trip on concat-duplicated categories
        sigb = t.column("sigb")
        if pa.types.is_dictionary(sigb.type):
            sigb = sigb.cast(pa.binary())
        df = pd.DataFrame({
            "bkey": t.column("bkey").to_numpy(),
            id_col: t.column(id_col).to_pandas().to_numpy(),
            "sigb": sigb.to_pandas().to_numpy(),
        })
        # vectorized pre-pass: dedup + drop SINGLETON band-buckets (the
        # overwhelming majority) before the per-bucket Python loop — a
        # measured 10× on the bench (one pandas-DataFrame construction per
        # singleton bucket dominated the stage otherwise)
        df = df.drop_duplicates(["bkey", id_col])
        vc = df["bkey"].value_counts()
        df = df[df["bkey"].map(vc) >= 2]
        if not len(df):
            return bucket_pairs(df, id_col, threshold)
        df = df.sort_values(["bkey", id_col], kind="mergesort")
        # band index lives in the key's top byte
        outs = [bucket_pairs(g, id_col, threshold,
                             band_idx=(int(key) & 0xFFFFFFFFFFFFFFFF) >> 56,
                             presorted=True)
                for key, g in df.groupby("bkey", sort=True)]
        outs = [o for o in outs if len(o)]
        if not outs:
            return bucket_pairs(df.head(0), id_col, threshold)
        return pd.concat(outs, ignore_index=True).drop_duplicates(["a", "b"])

    # stays on map_groups (CLAUDE.md invariant 4): not bucket-agnostic —
    # the closing drop_duplicates(a, b) spans bands, and past exact_limit
    # a pair can emit from two bands, so several buckets in one call can
    # give fewer rows than each bucket alone
    return bands_ds.groupby("bucket").map_groups(bucket_group,
                                                 batch_format="pyarrow")


# ---------------------------------------------------------------------------
# distributed connected components (large-star / small-star contraction)
# ---------------------------------------------------------------------------

# hard cap on contraction rounds: a chain of n nodes closes in about
# log2(n) + 2 (1,000 nodes: 9-10), so reaching this cap is a bug, not a
# large input
_STAR_MAX_ROUNDS = 64


def _large_star(df: pd.DataFrame) -> pd.DataFrame:
    """Large-star over symmetric (u, v) edges, grouped on u: every
    neighbor v > u points at m = min(u, Γ(u)), and u points at itself
    when u is m."""
    df = df.drop_duplicates()
    u = df["u"]
    g = df.groupby("u")["v"].transform("min")
    m = g.where(g < u, u)
    up = df["v"] > u
    root = u[m == u].drop_duplicates()
    return pd.DataFrame({
        "u": np.concatenate([df["v"][up].to_numpy(), root.to_numpy()]),
        "v": np.concatenate([m[up].to_numpy(), root.to_numpy()])})


def _small_star(df: pd.DataFrame) -> pd.DataFrame:
    """Small-star over (u, v ≤ u) edges, grouped on u: u and each of its
    neighbors point at m = min(v). The only self-loop emitted is (u, u)
    when u is m, so at the fixpoint each node has exactly one edge."""
    df = df.drop_duplicates()
    u, v = df["u"], df["v"]
    m = df.groupby("u")["v"].transform("min")
    kid = (v != m) & (v != u)
    own = ~u.duplicated()
    return pd.DataFrame({
        "u": np.concatenate([v[kid].to_numpy(), u[own].to_numpy()]),
        "v": np.concatenate([m[kid].to_numpy(), m[own].to_numpy()]),
    }).drop_duplicates()


def _symmetric(t):
    """(u, v) Arrow edges → both directions, for grouping on either end."""
    import pyarrow as pa

    return pa.table({"u": pa.chunked_array(t["u"].chunks + t["v"].chunks),
                     "v": pa.chunked_array(t["v"].chunks + t["u"].chunks)})


def _edge_fingerprint(edges) -> tuple[int, int]:
    """(row count, wrapping uint64 sum of row hashes) of an edge Dataset:
    order-free, so equal fingerprints mean an unchanged edge multiset."""
    def part(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[["u", "v"]], index=False)
        return pd.DataFrame({"n": [len(df)],
                             "h": [h.to_numpy().sum(dtype=np.uint64)]})

    parts = edges.map_batches(part, batch_format="pandas").to_pandas()
    if not len(parts):
        return 0, 0
    return (int(parts["n"].sum()),
            int(parts["h"].to_numpy(np.uint64).sum(dtype=np.uint64)))


def min_label_components(pairs_ds, a_col="a", b_col="b"):
    """Connected components over an (a, b) pair Dataset by large-star /
    small-star contraction (Kiveris et al., SoCC 2014): each round is two
    keyed exchanges on u (`_large_star`, `_small_star`), and the edge set
    is materialized once per round. A round's output depends only on its
    input edge set, so an unchanged (count, hash sum) fingerprint is the
    fixpoint, reached in O(log² n) rounds. At the fixpoint every node u
    has exactly one edge (u, min of its component), which IS the result:
    a Dataset (node, label) over the pair endpoints. Past
    `_STAR_MAX_ROUNDS` it raises.

    Works for integer or string node ids (min = numeric or lexicographic).
    """
    import pyarrow as pa
    import ray.data as rd

    from .ops import bucket_exchange, nonempty_blocks

    edges = pairs_ds.map_batches(
        lambda t: pa.table({"u": t[a_col], "v": t[b_col]}),
        batch_format="pyarrow")
    prev = None
    for rounds in range(1, _STAR_MAX_ROUNDS + 1):
        large = bucket_exchange(
            edges.map_batches(_symmetric, batch_format="pyarrow"),
            ["u"], _large_star, 64, "pandas")
        edges = bucket_exchange(large, ["u"], _small_star, 64,
                                "pandas").materialize()
        fp = _edge_fingerprint(edges)
        if fp[0] == 0:
            return rd.from_pandas(pd.DataFrame({"node": [], "label": []}))
        if fp == prev:
            logging.getLogger(__name__).debug(
                "min_label_components: converged in %d rounds", rounds)
            return nonempty_blocks(edges).map_batches(
                lambda t: t.rename_columns(["node", "label"]),
                batch_format="pyarrow")
        prev = fp
    raise RuntimeError(
        f"min_label_components: no fixpoint after {_STAR_MAX_ROUNDS} rounds")


def neardup_clusters(docs_ds, id_col="doc_id", text_col="text",
                     threshold: float = 0.8):
    """Connected components over the near-dup pair graph
    (`min_label_components`: no driver union-find, no whole-corpus driver
    materialization). Returns (doc_id, cluster_id)."""
    from .ops import _default_partitions

    pairs = minhash_candidate_pairs(docs_ds, id_col, text_col, threshold)
    labels = min_label_components(pairs)
    ids = docs_ds.select_columns([id_col])
    if labels.count() == 0:          # no near-dups: every doc is its own cluster
        return ids.map_batches(
            lambda df: pd.DataFrame({id_col: df[id_col].to_numpy(),
                                     "cluster_id": df[id_col].to_numpy()}),
            batch_format="pandas")
    renamed = labels.map_batches(
        lambda df: df.rename(columns={"node": id_col}), batch_format="pandas")
    joined = ids.join(renamed, "left_outer", _default_partitions(),
                      on=(id_col,))

    def finish(t):
        # Arrow coalesce, NOT a pandas fillna: int64-with-nulls converts to
        # float64 in pandas and silently corrupts ids above 2^53 (64-bit
        # hash doc ids are the stated web-scale key space)
        import pyarrow as pa
        import pyarrow.compute as pc

        lab = pc.coalesce(t.column("label"), t.column(id_col))
        return pa.table({id_col: t.column(id_col), "cluster_id": lab})

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact dedup (hash-partition + per-group first) as a reusable operator
# ---------------------------------------------------------------------------

def exact_dedup_stats(docs_ds, id_col="doc_id", text_col="text"):
    """→ (text_md5, keep_id, dup_count): min-id per exact content hash.

    Partial per-batch combine before the groupby so the shuffle moves at
    most one row per distinct hash per batch."""
    from ray.data.aggregate import Min, Sum

    from .textops import md5_series

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = md5_series(df[text_col].fillna(""))
        g = pd.DataFrame({"text_md5": h, id_col: df[id_col]})
        agg = g.groupby("text_md5", sort=False)[id_col].agg(["min", "size"])
        return pd.DataFrame({"text_md5": agg.index,
                             "partial_min": agg["min"].to_numpy(),
                             "partial_cnt": agg["size"].to_numpy()})

    partials = docs_ds.map_batches(partial, batch_format="pandas")
    return partials.groupby("text_md5").aggregate(
        Min("partial_min", alias_name="keep_id"),
        Sum("partial_cnt", alias_name="dup_count"),
    )


def ngram_jaccard_pairs(docs_ds, id_col="doc_id", text_col="text",
                        threshold: float = 0.5):
    """Exact n-gram Jaccard verification over MinHash candidates: the
    two-stage near-dup verify (candidates from LSH, exact set Jaccard on
    the pair).

    Scale path: candidate pairs are hash-joined to the documents table on
    each endpoint (two shuffle joins) so only candidate docs' texts ever
    move — the corpus is never collected to the driver."""
    import pyarrow as pa

    import ray.data as rd

    from .ops import _default_partitions, _pa_type_of, materialize_normalized

    P = _default_partitions()
    cand = minhash_candidate_pairs(docs_ds, id_col, text_col,
                                   threshold=0.5).materialize()
    sample = cand.take(1)
    if not sample:
        # empty-result schema mirrors the documents id dtype (int OR string)
        dsample = docs_ds.take(1)       # ray Schema types may be python types
        idt = _pa_type_of(dsample[0][id_col]) if dsample else pa.string()
        return rd.from_arrow(pa.table({
            "a": pa.array([], idt), "b": pa.array([], idt),
            "jaccard": pa.array([], pa.float64())}))
    idt = _pa_type_of(sample[0]["a"])
    # pin block schemas before the joins (zero-row pass-through blocks
    # carry the pre-projection schema and break join partitions)
    cand = materialize_normalized(cand, pa.schema([("a", idt), ("b", idt)]))
    docs = docs_ds.select_columns([id_col, text_col])
    da = docs.map_batches(
        lambda df: df.rename(columns={id_col: "a", text_col: "text_a"}),
        batch_format="pandas")
    db = docs.map_batches(
        lambda df: df.rename(columns={id_col: "b", text_col: "text_b"}),
        batch_format="pandas")
    j1 = cand.join(da, "inner", P, on=("a",))
    # invariant 7 applies BETWEEN the joins too: join #1's empty output
    # partitions are column-less blocks, and join #2's left side then has
    # no "b" key column in those partitions (ArrowInvalid at finalize —
    # reproduced at sf0.01/32 cpus where candidate pairs are sparse
    # across 64 hash partitions)
    j1 = materialize_normalized(j1, pa.schema(
        [("a", idt), ("b", idt), ("text_a", pa.string())]))
    j = j1.join(db, "inner", P, on=("b",))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        sa = _shingle_hashes_batch(list(df["text_a"]))
        sb = _shingle_hashes_batch(list(df["text_b"]))
        keep, jac = [], []
        for k, (ha, hb) in enumerate(zip(sa, sb)):
            inter = len(np.intersect1d(ha, hb, assume_unique=True))
            union = len(ha) + len(hb) - inter
            j = inter / union if union else 1.0
            if j >= threshold:
                keep.append(k); jac.append(j)
        out = df.iloc[keep]  # id dtype preserved (int or string), like bucket_pairs
        return pd.DataFrame({"a": out["a"].to_numpy(),
                             "b": out["b"].to_numpy(),
                             "jaccard": pd.Series(jac, dtype="float64")}
                            ).astype({"a": df["a"].dtype, "b": df["b"].dtype})

    return j.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# agent canonicalization (north-star stage 3: entity linking + rewrite)
# ---------------------------------------------------------------------------

def _char_ngram_hashes(s: str, n: int = 3) -> np.ndarray:
    s = s.lower()
    grams = {s[i : i + n] for i in range(max(1, len(s) - n + 1))} or {s}
    return np.fromiter(
        (int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "big") >> 3
         for g in grams),
        dtype=np.uint64)


def _agent_uris_ds(triples_ds):
    """Distinct prov:Agent subject URIs as a distributed Dataset."""
    import pyarrow.compute as pc

    from .ops import distinct_keys
    from .prov import PREFIXES

    agent_type = PREFIXES["prov"] + "Agent"
    rdf_type = PREFIXES["rdf"] + "type"

    agents = triples_ds.map_batches(
        lambda t: t.filter(pc.and_(pc.equal(t["pred"], rdf_type),
                                   pc.equal(t["obj"], agent_type)))
                   .select(["subj"]),
        batch_format="pyarrow")
    return distinct_keys(agents, "subj")


def _agent_bands_batch(t, num_buckets: int):
    """(subj) Arrow batch → LSH band rows: MinHash over character 3-grams
    of the agent's local name, fused with the band explode (Arrow-native
    like signature_bands_batch)."""
    uris = t.column("subj").to_pylist()
    sigs = (np.stack([_minhash_of(_char_ngram_hashes(u.rsplit("#", 1)[-1]))
                      for u in uris])
            if uris else np.zeros((0, _K), np.uint64))
    return _bands_table(t.column("subj"), sigs, "subj", num_buckets)


def canonical_agent_pairs(triples_ds, threshold: float = 0.7,
                          num_buckets: int = 32):
    """Near-duplicate agent URI pairs via the same bucketed MinHash+LSH
    shuffle the document near-dup path uses — fully distributed (the agent
    slice at web scale is millions of distinct URIs)."""
    uris = _agent_uris_ds(triples_ds)
    bands = uris.map_batches(
        lambda t: _agent_bands_batch(t, num_buckets), batch_format="pyarrow")
    pairs = _lsh_candidate_pairs(bands, "subj", threshold)
    return pairs.map_batches(
        lambda df: df[["a", "b"]].drop_duplicates(), batch_format="pandas")


def canonical_agent_map_ds(triples_ds, threshold: float = 0.7,
                           num_buckets: int = 32):
    """Distributed agent canonicalization: (agent_uri, canonical_uri) rows
    for every non-canonical agent. canonical = lexicographically smallest
    URI of the connected component (same contract as the driver-side
    `canonical_agent_map`, proven equal by test_linking_canonical)."""
    pairs = canonical_agent_pairs(triples_ds, threshold, num_buckets)
    labels = min_label_components(pairs)
    return labels.map_batches(
        lambda df: df[df["node"] != df["label"]].rename(
            columns={"node": "agent_uri", "label": "canonical_uri"}),
        batch_format="pandas")


def canonical_agent_map(triples_ds, threshold: float = 0.7) -> dict[str, str]:
    """Driver-side reference twin of `canonical_agent_map_ds`, kept as the
    expected value of kgbench's canonical-map check; its components come
    from `oracle.components`. Returns {agent_uri: canonical_uri}."""
    from .oracle import components

    agents = _agent_uris_ds(triples_ds).to_pandas()
    uris = sorted(set(agents["subj"]))

    buckets: dict[str, list[int]] = {}
    sigs = []
    for i, uri in enumerate(uris):
        local = uri.rsplit("#", 1)[-1]
        sig = _minhash_of(_char_ngram_hashes(local))
        sigs.append(sig)
        for key in band_keys(sig):
            buckets.setdefault(key, []).append(i)

    labels = components(
        (uris[a], uris[b])
        for members in buckets.values()
        for ai, a in enumerate(members) for b in members[ai + 1:]
        if (sigs[a] == sigs[b]).mean() >= threshold)
    return {uri: canon for uri, canon in labels.items() if canon != uri}


def rewrite_canonical_ds(triples_ds, mapping_ds, num_partitions=None):
    """Distributed canonical-id rewrite via two bucketed left_outer joins —
    the scale path (VERDICT r2 #2). ``mapping_ds`` is the
    (agent_uri, canonical_uri) Dataset from `canonical_agent_map_ds`; it is
    never collected to the driver, so a web-scale agent slice (millions of
    near-dup URIs) stays in the cluster. subj joins unconditionally; obj
    only rewrites non-literal rows (Arrow if_else — no pandas). The
    rewritten set may contain new duplicates → follow with dedup_triples."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .ops import _default_partitions, materialize_normalized
    from .schemas import TRIPLES

    P = num_partitions or _default_partitions()
    cols = TRIPLES.names
    # mapping came off a hash aggregate → normalize (column-less empty
    # blocks break join partitions; perf invariant #7)
    mapping_ds = materialize_normalized(
        mapping_ds, pa.schema([("agent_uri", pa.string()),
                               ("canonical_uri", pa.string())]))
    msub = mapping_ds.map_batches(
        lambda t: t.rename_columns(["subj", "__canon_s"]),
        batch_format="pyarrow")
    mobj = mapping_ds.map_batches(
        lambda t: t.rename_columns(["obj", "__canon_o"]),
        batch_format="pyarrow")

    def fix_subj(t: "pa.Table") -> "pa.Table":
        s = pc.coalesce(t.column("__canon_s"), t.column("subj"))
        return t.drop_columns(["subj", "__canon_s"]).append_column("subj", s)

    def fix_obj(t: "pa.Table") -> "pa.Table":
        hit = pc.and_(pc.invert(t.column("obj_is_literal")),
                      pc.is_valid(t.column("__canon_o")))
        o = pc.if_else(hit, t.column("__canon_o"), t.column("obj"))
        return (t.drop_columns(["obj", "__canon_o"]).append_column("obj", o)
                .select(cols))

    # invariant 7 between the joins: join #1's empty partitions are
    # column-less blocks with no "obj" key for join #2
    j1 = materialize_normalized(
        triples_ds.join(msub, "left_outer", P, on=("subj",))
        .map_batches(fix_subj, batch_format="pyarrow"), TRIPLES)
    return (j1.join(mobj, "left_outer", P, on=("obj",))
            .map_batches(fix_obj, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# benchmark decontamination (n-gram overlap against an eval set)
# ---------------------------------------------------------------------------
#
# Standard LLM-training-data hygiene: before training, drop (or flag)
# corpus documents that share word n-grams with evaluation benchmarks so
# reported scores are not memorization (the GPT-3/PaLM 8-to-13-gram
# protocol). The reference has no analogue — this is a north-star
# training-data op like minhash dedup above.

_TOKEN_SPLIT = None         # compiled lazily (regex import kept top-light)


def _word_ngrams(text: str, n: int = 8) -> set[str]:
    """Distinct word n-grams of lower-cased alphanumeric tokens. The
    tokenization (split on non-alphanumeric runs, drop empties) matches
    the DuckDB oracle twin exactly:
    string_split_regex(lower(text), '[^a-z0-9]+') + list_filter."""
    global _TOKEN_SPLIT
    if _TOKEN_SPLIT is None:
        import re

        _TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
    toks = [t for t in _TOKEN_SPLIT.split((text or "").lower()) if t]
    return {" ".join(toks[i: i + n]) for i in range(len(toks) - n + 1)}


class _ContaminationScorer:
    """Actor-pool stage: benchmark n-gram set deserialized ONCE per actor
    in __init__ (not per batch), membership counting per batch."""

    def __init__(self, bench_ref, n: int, id_col: str, text_col: str):
        import ray

        self.grams = ray.get(bench_ref)
        self.n, self.id_col, self.text_col = n, id_col, text_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        hits = [len(_word_ngrams(t, self.n) & self.grams)
                for t in df[self.text_col]]
        out = pd.DataFrame({self.id_col: df[self.id_col].to_numpy(),
                            "n_overlap": np.asarray(hits, dtype=np.int64)})
        return out[out["n_overlap"] > 0]


def decontaminate(docs_ds, bench_ds, n: int = 8, id_col: str = "doc_id",
                  text_col: str = "text", concurrency=(1, 8)):
    """Broadcast decontamination (fast path): the benchmark n-gram set —
    small by definition, eval sets are thousands of docs, not billions —
    is collected once, ray.put once, and read per ACTOR; the corpus
    streams through in one pass. Returns (id_col, n_overlap) for every
    contaminated doc (distinct shared n-grams > 0).

    For benchmark sets too large to broadcast, use
    decontaminate_bucketed (same answer, parity-tested)."""
    import ray

    def bench_batch(df: pd.DataFrame) -> pd.DataFrame:
        out: set[str] = set()
        for t in df[text_col]:
            out |= _word_ngrams(t, n)
        return pd.DataFrame({"g": sorted(out)})

    grams = frozenset(
        bench_ds.map_batches(bench_batch, batch_format="pandas")
        .to_pandas()["g"])
    ref = ray.put(grams)
    return docs_ds.map_batches(
        _ContaminationScorer,
        fn_constructor_kwargs={"bench_ref": ref, "n": n, "id_col": id_col,
                               "text_col": text_col},
        batch_format="pandas", concurrency=concurrency)


def decontaminate_bucketed(docs_ds, bench_ds, n: int = 8,
                           id_col: str = "doc_id", text_col: str = "text",
                           num_buckets: int = 32):
    """Scale-path decontamination: corpus docs explode to distinct
    (id, gram) pairs, benchmark grams dedup distributed, the overlap is
    ONE bucketed semi-join on the gram (ops.semi_join), and per-doc
    counts come from an in-bucket groupby (invariant 4: no Ray multi-key
    aggregate). Neither gram set ever lands on the driver."""
    from .ops import bucket_exchange, semi_join

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids, gs = [], []
        for i, t in zip(df[id_col], df[text_col]):
            for g in _word_ngrams(t, n):
                ids.append(i)
                gs.append(g)
        return pd.DataFrame({id_col: np.asarray(ids),
                             "g": np.asarray(gs, dtype=object)})

    corpus = docs_ds.map_batches(explode, batch_format="pandas")
    bench = bench_ds.map_batches(
        lambda df: explode(df)[["g"]].drop_duplicates(),
        batch_format="pandas")
    hits = semi_join(corpus, bench, left_key="g", right_key="g")

    def count_group(df: pd.DataFrame) -> pd.DataFrame:
        a = df.groupby(id_col, sort=False).size()
        return pd.DataFrame({id_col: a.index.to_numpy(),
                             "n_overlap": a.to_numpy().astype(np.int64)})

    return bucket_exchange(hits.select_columns([id_col]), [id_col],
                           count_group, num_buckets, "pandas")


# ---------------------------------------------------------------------------
# Winnowing fingerprints (Schleimer/Wilkerson/Aiken 2003, the MOSS local
# fingerprinting scheme) -> duplicated-span candidate pairs, the
# ExactSubstr-dedup building block (Lee et al. 2022 dedups training data by
# shared long substrings; winnowing finds them with bounded state).
# ---------------------------------------------------------------------------

_WINNOW_B = 257          # polynomial base
_WINNOW_M = 2**31 - 1    # modulus; every term < M*B fits int64


def _winnow_doc(text: str, k: int, w: int) -> np.ndarray:
    """Distinct winnowed k-gram hashes of one document, vectorized.

    Hash of gram at 0-based char position p (code points, so the SQL twin's
    ascii(substr(..)) matches):  sum_j code[p+j] * B^(k-1-j)  mod M.
    Selection rule: for EVERY position e, take the rightmost minimum of the
    trailing window of the last min(w, e+1) hashes (the trailing-window
    winnowing variant: same coverage guarantee as the paper's scheme, plus
    prefix windows, and expressible as a plain SQL window frame
    `ROWS BETWEEN w-1 PRECEDING AND CURRENT ROW`)."""
    codes = np.frombuffer(text.encode("utf-32-le"), np.uint32).astype(np.int64)
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, np.int64)
    pows = np.array([pow(_WINNOW_B, k - 1 - j, _WINNOW_M) for j in range(k)],
                    dtype=np.int64)
    h = np.zeros(n, np.int64)
    for j in range(k):
        h = (h + codes[j:j + n] * pows[j]) % _WINNOW_M
    pad = np.full(w - 1, _WINNOW_M, np.int64)     # > any hash, never selected
    win = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, h]), w)              # one window per end pos e
    # the DISTINCT selected hashes == distinct window minima (which
    # occurrence of a tied value wins never changes the value set)
    return np.unique(win.min(axis=1))


def winnow_fingerprints(docs_ds, k: int = 16, w: int = 8,
                        id_col: str = "doc_id", text_col: str = "text"):
    """Dataset of distinct (id, fp) winnowed fingerprints per document."""

    def fp_batch(df: pd.DataFrame) -> pd.DataFrame:
        ids, fps = [], []
        for i, t in zip(df[id_col], df[text_col].fillna("")):
            f = _winnow_doc(t, k, w)
            ids.append(np.full(f.size, i))
            fps.append(f)
        if not ids:
            return pd.DataFrame({id_col: np.empty(0, np.int64),
                                 "fp": np.empty(0, np.int64)})
        return pd.DataFrame({id_col: np.concatenate(ids),
                             "fp": np.concatenate(fps)})

    return docs_ds.map_batches(fp_batch, batch_format="pandas")


def winnow_duplicate_pairs(docs_ds, k: int = 16, w: int = 8,
                           min_shared: int = 8, id_col: str = "doc_id",
                           text_col: str = "text", num_buckets: int = 64,
                           max_bucket_docs: int = 200):
    """Pairs of documents sharing >= min_shared winnowed fingerprints —
    duplicated-span candidates. ONE fp-bucketed shuffle colocates each
    fingerprint's posting list; pairs are emitted per fingerprint group
    and counted with a second (tiny, pre-combined) shuffle. A fingerprint
    shared by more than max_bucket_docs documents is boilerplate (emitting
    its O(g^2) pairs would blow up any engine) and is dropped — the same
    giant-bucket policy as the MinHash exchange (bucket_pairs)."""
    from .ops import bucket_exchange

    fps = winnow_fingerprints(docs_ds, k, w, id_col, text_col)

    def pairs_group(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, g in df.groupby("fp", sort=False):
            ids = np.sort(g[id_col].to_numpy())
            if len(ids) < 2 or len(ids) > max_bucket_docs:
                continue
            ia, ib = np.triu_indices(len(ids), 1)
            out_a.append(ids[ia])
            out_b.append(ids[ib])
        if not out_a:
            return pd.DataFrame({"a": np.empty(0, np.int64),
                                 "b": np.empty(0, np.int64),
                                 "shared": np.empty(0, np.int64)})
        pairs = pd.DataFrame({"a": np.concatenate(out_a),
                              "b": np.concatenate(out_b)})
        # pre-combine: one (a, b, count) row per pair per bucket moves on
        c = pairs.groupby(["a", "b"], sort=False).size()
        idx = c.index.to_frame(index=False)
        return pd.DataFrame({"a": idx["a"].to_numpy(),
                             "b": idx["b"].to_numpy(),
                             "shared": c.to_numpy().astype(np.int64)})

    per_bucket = bucket_exchange(fps, ["fp"], pairs_group, num_buckets,
                                 "pandas")

    def sum_group(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b"], sort=False, as_index=False)["shared"].sum()
        g = g[g["shared"] >= min_shared]
        return pd.DataFrame({"a": g["a"].to_numpy(),
                             "b": g["b"].to_numpy(),
                             "shared": g["shared"].astype("int64").to_numpy()})

    return bucket_exchange(per_bucket, ["a", "b"], sum_group, num_buckets,
                           "pandas")


# ---------------------------------------------------------------------------
# Edit-distance verification (the string-similarity verify next to n-gram
# Jaccard; DuckDB levenshtein() is the oracle)
# ---------------------------------------------------------------------------

def levenshtein(a: str, b: str) -> int:
    """Unit-cost Levenshtein, one numpy vector op per row of the DP table.

    The in-row dependency cur[j] = min(m[j-1], cur[j-1]+1) is resolved in
    closed form: cur[j] = j + min(i, running_min_k<=j(m[k-1] - k)), so each
    row is O(|b|) vectorized instead of a Python loop over columns."""
    ca = np.frombuffer(a.encode("utf-32-le"), np.uint32)
    cb = np.frombuffer(b.encode("utf-32-le"), np.uint32)
    if not len(ca):
        return len(cb)
    if not len(cb):
        return len(ca)
    prev = np.arange(len(cb) + 1, dtype=np.int64)
    ks = np.arange(1, len(cb) + 1, dtype=np.int64)
    for i, c in enumerate(ca, 1):
        # candidates ignoring in-row insertions: delete or substitute
        m = np.minimum(prev[1:] + 1, prev[:-1] + (cb != c))
        cur = np.empty(len(cb) + 1, dtype=np.int64)
        cur[0] = i
        cur[1:] = ks + np.minimum(np.minimum.accumulate(m - ks), i)
        prev = cur
    return int(prev[-1])


def edit_distance_pairs(docs_ds, pairs_ds, id_col: str = "doc_id",
                        text_col: str = "text"):
    """(a, b) candidate pairs -> (a, b, edit_dist): hash-join each endpoint
    to the documents table (texts of candidate docs only ever move; the
    corpus never lands on the driver), then per-pair Levenshtein. The DP is
    inherently O(|a|·|b|) per pair — the verify set is assumed small
    relative to the corpus (it comes out of an LSH/Jaccard filter)."""
    import pyarrow as pa

    from .ops import _default_partitions, _pa_type_of, materialize_normalized

    P = _default_partitions()
    cand = pairs_ds.materialize()
    sample = cand.take(1)
    if not sample:
        import ray.data as rd
        dsample = docs_ds.take(1)
        idt = _pa_type_of(dsample[0][id_col]) if dsample else pa.string()
        return rd.from_arrow(pa.table({
            "a": pa.array([], idt), "b": pa.array([], idt),
            "edit_dist": pa.array([], pa.int64())}))
    idt = _pa_type_of(sample[0]["a"])
    cand = materialize_normalized(cand, pa.schema([("a", idt), ("b", idt)]))
    docs = docs_ds.select_columns([id_col, text_col])
    da = docs.map_batches(
        lambda df: df.rename(columns={id_col: "a", text_col: "text_a"}),
        batch_format="pandas")
    db = docs.map_batches(
        lambda df: df.rename(columns={id_col: "b", text_col: "text_b"}),
        batch_format="pandas")
    j1 = cand.join(da, "inner", P, on=("a",))
    # invariant 7: normalize BETWEEN chained joins
    j1 = materialize_normalized(j1, pa.schema(
        [("a", idt), ("b", idt), ("text_a", pa.string())]))
    j = j1.join(db, "inner", P, on=("b",))

    def dist(df: pd.DataFrame) -> pd.DataFrame:
        d = [levenshtein(x or "", y or "")
             for x, y in zip(df["text_a"], df["text_b"])]
        return pd.DataFrame({"a": df["a"].to_numpy(),
                             "b": df["b"].to_numpy(),
                             "edit_dist": pd.Series(d, dtype="int64")})

    return j.map_batches(dist, batch_format="pandas")


def containment_pairs(docs_ds, id_col: str = "doc_id",
                      text_col: str = "text", threshold: float = 0.8,
                      max_df: int = 1000, num_buckets: int = 64):
    """Containment near-dup pairs: |A∩B| / min(|A|,|B|) >= threshold over
    word-3-gram shingle sets — the subset-duplicate detector Jaccard
    misses (a short doc quoted inside a long one scores low Jaccard but
    containment ~1; Lee et al. 2022 §4 motivates exactly this case).

    Scale shape (no MinHash, no all-pairs): each doc's gram set is
    computed where its row lives (one row = one doc, so per-doc set
    sizes are exact locally); distinct (doc, gram) rows take ONE
    gram-keyed bucketed shuffle; grams with document frequency >
    ``max_df`` are dropped from intersection counting (the standard
    posting-list cap — boilerplate grams pair everything with
    everything; the cap is part of the CONTRACT and the SQL twin applies
    the same HAVING). In-bucket self-merge emits per-gram pair partials,
    a pair-keyed shuffle sums intersections, and two hash joins attach
    the set sizes. Returns (a, b) with a < b."""
    import pyarrow as pa

    import ray.data as rd

    from .ops import (_default_partitions, _pa_type_of, bucket_exchange,
                      materialize_normalized, sum_by_key)

    P = _default_partitions()

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        hs = _shingle_hashes_batch(list(df[text_col]))
        uniq = [np.unique(h) for h in hs]
        reps = [len(u) for u in uniq]
        docs = np.repeat(df[id_col].to_numpy(), reps)
        g = (np.concatenate(uniq) if uniq else
             np.empty(0, dtype=np.uint64)).astype("uint64")
        return pd.DataFrame({"doc": docs, "g": g})

    def sizes_rows(df: pd.DataFrame) -> pd.DataFrame:
        hs = _shingle_hashes_batch(list(df[text_col]))
        return pd.DataFrame({
            "doc": df[id_col].to_numpy(),
            "n": pd.Series([len(np.unique(h)) for h in hs],
                           dtype="int64")})

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["doc", "g"])
        vc = df["g"].value_counts()
        keep = vc[(vc > 1) & (vc <= max_df)].index
        df = df[df["g"].isin(keep)]
        if not len(df):
            return pd.DataFrame({"a": pd.Series(dtype=object),
                                 "b": pd.Series(dtype=object),
                                 "i": pd.Series(dtype="int64")})
        m = df.merge(df, on="g")
        m = m[m["doc_x"] < m["doc_y"]]
        g = (m.groupby(["doc_x", "doc_y"], sort=False).size()
             .rename("i").reset_index())
        return g.rename(columns={"doc_x": "a", "doc_y": "b"}) \
            .astype({"i": "int64"})

    part = bucket_exchange(
        docs_ds.map_batches(gram_rows, batch_format="pandas"), ["g"],
        bucket_pairs, num_buckets, "pandas")
    inter = sum_by_key(part, ["a", "b"], ["i"], num_buckets)
    sample = inter.take(1)
    dsample = docs_ds.take(1)
    idt = _pa_type_of(dsample[0][id_col]) if dsample else pa.string()
    if not sample:
        return rd.from_arrow(pa.table({
            "a": pa.array([], idt), "b": pa.array([], idt)}))
    inter = materialize_normalized(inter, pa.schema(
        [("a", idt), ("b", idt), ("i", pa.int64())]))
    sizes = docs_ds.map_batches(sizes_rows, batch_format="pandas")
    sa = sizes.map_batches(
        lambda df: df.rename(columns={"doc": "a", "n": "na"}),
        batch_format="pandas")
    sb = sizes.map_batches(
        lambda df: df.rename(columns={"doc": "b", "n": "nb"}),
        batch_format="pandas")
    j1 = inter.join(sa, "inner", P, on=("a",))
    j1 = materialize_normalized(j1, pa.schema(
        [("a", idt), ("b", idt), ("i", pa.int64()), ("na", pa.int64())]))
    j = j1.join(sb, "inner", P, on=("b",))

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        mn = np.minimum(df["na"].to_numpy(), df["nb"].to_numpy())
        keep = df["i"].to_numpy() >= threshold * mn
        out = df[keep]
        return pd.DataFrame({"a": out["a"].to_numpy(),
                             "b": out["b"].to_numpy()}).astype(
            {"a": df["a"].dtype, "b": df["b"].dtype})

    return j.map_batches(flt, batch_format="pandas")


# ---------------------------------------------------------------------------
# paragraph-level exact dedup (FineWeb / CCNet line-dedup step)
# ---------------------------------------------------------------------------

_PARA_M = 1_000_000  # per-doc paragraph-index bound for the packed key


def _explode_paras(df: pd.DataFrame, id_col: str, text_col: str,
                   sep: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized doc -> (ids, idx, paras) explode; idx is the in-doc
    paragraph position (0-based)."""
    lst = df[text_col].fillna("").str.split(sep)
    counts = lst.str.len().to_numpy(dtype=np.int64)
    tot = int(counts.sum())
    ids = np.repeat(df[id_col].to_numpy(), counts)
    paras = np.fromiter((p for row in lst for p in row), dtype=object,
                        count=tot)
    starts = np.cumsum(counts) - counts
    idx = np.arange(tot, dtype=np.int64) - np.repeat(starts, counts)
    if tot and int(idx.max()) >= _PARA_M:
        raise ValueError(f"document with >= {_PARA_M} paragraphs")
    return ids, idx, paras


def paragraph_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                    sep: str = "\n"):
    """Corpus-wide paragraph-level exact dedup (the FineWeb / CCNet
    line-dedup stage): split every document on `sep`, keep only the FIRST
    corpus-wide occurrence of each distinct paragraph (first = smallest
    (doc_id, idx)), and reassemble each document from its survivors.

    Distributed shape — nothing corpus-sized touches the driver:
      scan 1 (winners): per-batch md5(para) -> partial min packed key
        (doc_id*M + idx), then ONE bucketed exchange keyed on the hash —
        only (hash, key) pairs move, never paragraph text;
      scan 2 (rebuild): re-explode, LEFT hash-join the winner key set on
        the packed int64 key (paragraph text shuffles once, by key), then
        a bucketed doc_id group pass reassembles text, total and kept
        counts in one reduction.
    Returns (doc_id, total_paras, kept_paras, dedup_text), matching the
    DuckDB twin's group-by-paragraph min-key semantics exactly (md5 is
    collision-free at any realistic corpus size).
    """
    import pyarrow as pa

    from .ops import _default_partitions, bucket_exchange, materialize_normalized

    P = _default_partitions()

    def winner_partial(df: pd.DataFrame) -> pd.DataFrame:
        ids, idx, paras = _explode_paras(df, id_col, text_col, sep)
        h = pd.Series(paras).map(
            lambda s: hashlib.md5(s.encode("utf-8")).digest()[:12])
        k = ids * _PARA_M + idx
        g = pd.DataFrame({"h": h, "k": k}).groupby("h", sort=False)[
            "k"].min().reset_index()
        return g

    def winner_reduce(df: pd.DataFrame) -> pd.DataFrame:
        k = df.groupby("h", sort=False)["k"].min()
        return pd.DataFrame({"k": k.to_numpy(dtype=np.int64)})

    winners = bucket_exchange(
        ds.map_batches(winner_partial, batch_format="pandas"), ["h"],
        winner_reduce, 64, "pandas")
    marked = winners.map_batches(
        lambda df: df.assign(__keep=np.int8(1)), batch_format="pandas")
    marked = materialize_normalized(marked, pa.schema(
        [("k", pa.int64()), ("__keep", pa.int8())]))

    def explode_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids, idx, paras = _explode_paras(df, id_col, text_col, sep)
        counts = df[text_col].fillna("").str.split(sep).str.len() \
            .to_numpy(dtype=np.int64)
        total = np.repeat(counts, counts)
        return pd.DataFrame({id_col: ids, "idx": idx, "para": paras,
                             "total": total,
                             "k": ids * _PARA_M + idx})

    exploded = ds.map_batches(explode_rows, batch_format="pandas")
    if not exploded.take(1):  # empty corpus: nothing to join (invariant 11)
        return exploded.map_batches(
            lambda df: pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                     "total_paras": pd.Series(dtype="int64"),
                                     "kept_paras": pd.Series(dtype="int64"),
                                     "dedup_text": pd.Series(dtype=object)}),
            batch_format="pandas")
    joined = exploded.join(marked, "left_outer", P, on=("k",))

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "idx"], kind="mergesort")
        keep = df["__keep"].notna().to_numpy()
        g = df.groupby(id_col, sort=True)
        total = g["total"].first()
        kept_n = pd.Series(keep.astype(np.int64), index=df.index) \
            .groupby(df[id_col], sort=True).sum()
        texts = df[keep].groupby(id_col, sort=True)["para"].agg(sep.join)
        return pd.DataFrame({
            id_col: total.index.to_numpy(),
            "total_paras": total.to_numpy(dtype=np.int64),
            "kept_paras": kept_n.to_numpy(dtype=np.int64),
            "dedup_text": texts.reindex(total.index, fill_value="")
            .to_numpy()})

    return bucket_exchange(joined, [id_col], reassemble, 64, "pandas")


# ---------------------------------------------------------------------------
# duplicate-span detection (Lee et al. 2022 exact-substring dedup, window
# formulation: every L-token window is hashed; a window whose hash occurs
# more than once corpus-wide is a duplicated span member)
# ---------------------------------------------------------------------------

def dup_span_stats(ds, id_col: str = "doc_id", text_col: str = "text",
                   L: int = 8):
    """Per-document duplicated-span statistics: n_windows, dup_windows
    (members of an L-token window whose text occurs >1 time corpus-wide,
    self-repeats included), dup_spans (maximal runs of consecutive
    duplicated windows — the spans Lee et al. would cut), and dup_milli.

    Distributed shape (two text scans, window TEXT never shuffles):
      scan 1: per-batch window-hash rows -> ONE bucketed count ->
              the >1 hash set (12-byte md5 hex keys);
      scan 2: (doc, widx, hash) rows LEFT-join the dup marker on the
              hash, then a doc-bucketed pass computes counts + the
              gaps-and-islands span count vectorized.
    """
    import pyarrow as pa

    from .ops import _default_partitions, bucket_exchange, materialize_normalized

    P = _default_partitions()

    def windows_of(df: pd.DataFrame):
        toks = df[text_col].fillna("").str.split()
        ids, widx, hs, nwin = [], [], [], []
        for did, tl in zip(df[id_col].to_numpy(), toks):
            n = max(len(tl) - L + 1, 0)
            nwin.append(n)
            for i in range(n):
                ids.append(did)
                widx.append(i)
                hs.append(hashlib.md5(
                    " ".join(tl[i:i + L]).encode("utf-8")).hexdigest()[:24])
        return ids, widx, hs, np.asarray(nwin, dtype=np.int64)

    def hash_rows(df: pd.DataFrame) -> pd.DataFrame:
        _, _, hs, _ = windows_of(df)
        g = pd.Series(hs).value_counts()
        return pd.DataFrame({"h": g.index.to_numpy(),
                             "n": g.to_numpy(dtype=np.int64)})

    def dup_reduce(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h", sort=False)["n"].sum()
        keep = g[g > 1]
        return pd.DataFrame({"h": keep.index.to_numpy()})

    dups = bucket_exchange(ds.map_batches(hash_rows, batch_format="pandas"),
                           ["h"], dup_reduce, 64, "pandas")
    marked = dups.map_batches(
        lambda df: df.assign(__dup=np.int8(1)), batch_format="pandas")
    marked = materialize_normalized(marked, pa.schema(
        [("h", pa.string()), ("__dup", pa.int8())]))

    def win_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids, widx, hs, nwin = windows_of(df)
        # docs with zero windows still need a row: emit a sentinel widx=-1
        zmask = nwin == 0
        zids = df[id_col].to_numpy()[zmask]
        tot = np.repeat(nwin, np.maximum(nwin, 0))
        return pd.DataFrame({
            id_col: np.concatenate([np.asarray(ids, dtype=np.int64), zids]),
            "widx": np.concatenate([np.asarray(widx, dtype=np.int64),
                                    np.full(len(zids), -1,
                                            dtype=np.int64)]),
            "h": np.concatenate([np.asarray(hs, dtype=object),
                                 np.full(len(zids), "", dtype=object)]),
            "n_windows": np.concatenate([tot, np.zeros(len(zids),
                                                       dtype=np.int64)])})

    wins = ds.map_batches(win_rows, batch_format="pandas")
    if not wins.take(1):
        return wins.map_batches(
            lambda df: pd.DataFrame({
                id_col: pd.Series(dtype="int64"),
                "n_windows": pd.Series(dtype="int64"),
                "dup_windows": pd.Series(dtype="int64"),
                "dup_spans": pd.Series(dtype="int64"),
                "dup_milli": pd.Series(dtype="int64")}),
            batch_format="pandas")
    if not marked.take(1):
        joined = wins.map_batches(
            lambda df: df.assign(__dup=pd.Series(np.nan, index=df.index)),
            batch_format="pandas")
    else:
        joined = wins.join(marked, "left_outer", P, on=("h",))

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "widx"], kind="mergesort")
        flag = df["__dup"].notna().to_numpy() & (df["widx"].to_numpy() >= 0)
        g = df.groupby(id_col, sort=True)
        nw = g["n_windows"].first()
        dupn = pd.Series(flag.astype(np.int64), index=df.index) \
            .groupby(df[id_col], sort=True).sum()
        # islands: a flagged widx starts a span iff widx-1 is not flagged
        d = df[flag]
        if len(d):
            same_doc = d[id_col].to_numpy()[1:] == d[id_col].to_numpy()[:-1]
            consec = d["widx"].to_numpy()[1:] == d["widx"].to_numpy()[:-1] + 1
            starts = np.concatenate([[True], ~(same_doc & consec)])
            spans = pd.Series(starts.astype(np.int64),
                              index=d.index).groupby(d[id_col],
                                                     sort=True).sum()
        else:
            spans = pd.Series(dtype="int64")
        return pd.DataFrame({
            id_col: nw.index.to_numpy(),
            "n_windows": nw.to_numpy(dtype=np.int64),
            "dup_windows": dupn.to_numpy(dtype=np.int64),
            "dup_spans": spans.reindex(nw.index, fill_value=0)
            .to_numpy(dtype=np.int64),
            "dup_milli": (dupn.to_numpy(dtype=np.int64) * 1000
                          // np.maximum(nw.to_numpy(dtype=np.int64), 1))})

    return bucket_exchange(joined, [id_col], per_doc, 64, "pandas")


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def simhash_neardup_pairs(ds, max_hamming: int = 3,
                          num_buckets: int = 64):
    """SimHash near-duplicate pairs (Charikar 2002; the banded blocking
    is Manku et al. 2007's pigeonhole: hamming <= 3 over 64 bits forces
    at least one of the 4 16-bit bands to match exactly). Shape: one
    signature map, band rows through ONE stable-bucket exchange, exact
    Hamming verify inside each (band, sub) group via a uint8 XOR +
    popcount-table pass; a pair is emitted ONCE — by its FIRST equal
    band (the minhash emit-once trick), so no downstream dedup shuffle
    is needed. Hamming <= max_hamming (default 3) IS the pair
    predicate; the band prefilter is lossless for it.
    → (a, b, hamming) with a < b."""
    from . import textops

    def with_hash(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64").to_numpy(),
            "hex": textops.simhash64(df["text"]).to_numpy()})

    return hamming_neardup_pairs(
        ds.map_batches(with_hash, batch_format="pandas"),
        max_hamming=max_hamming, num_buckets=num_buckets)


def hamming_neardup_pairs(ds, max_hamming: int = 3,
                          num_buckets: int = 64):
    """Banded Hamming near-dup pairs over a precomputed 64-bit hash
    column (``doc_id``, ``hex`` = 16 lowercase hex chars) — the shared
    exchange behind SimHash text near-dup and dHash image near-dup.
    Same lossless 4x16 pigeonhole blocking, one stable-bucket exchange,
    in-group XOR+popcount verify, emit-once-per-first-equal-band.
    → (a, b, hamming) with a < b."""
    from .ops import bucket_exchange

    def sig(df: pd.DataFrame) -> pd.DataFrame:
        h = df["hex"].astype(str)
        parts = []
        for band in range(4):
            parts.append(pd.DataFrame({
                "doc_id": df["doc_id"].astype("int64").to_numpy(),
                "hex": h.to_numpy(),
                "band": np.int64(band),
                "sub": h.str.slice(band * 4, band * 4 + 4).to_numpy()}))
        return pd.concat(parts, ignore_index=True)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        res_a: list = []
        res_b: list = []
        res_h: list = []
        for (band, _sub), g in df.groupby(["band", "sub"], sort=False):
            if len(g) < 2:
                continue
            g = g.drop_duplicates("doc_id").sort_values("doc_id")
            ids = g["doc_id"].to_numpy()
            hexes = g["hex"].to_numpy()
            m = len(ids)
            if m < 2:
                continue
            by = np.frombuffer(bytes.fromhex("".join(hexes)),
                               dtype=np.uint8).reshape(m, 8)
            ham = _POP8[by[:, None, :] ^ by[None, :, :]].sum(axis=2)
            iu, ju = np.triu_indices(m, 1)
            ok = ham[iu, ju] <= max_hamming
            ai, bi, hv = iu[ok], ju[ok], ham[iu, ju][ok]
            if not len(ai):
                continue
            # emit once: only if this band is the first equal band
            keep = np.zeros(len(ai), dtype=bool)
            for p in range(len(ai)):
                x, y = hexes[ai[p]], hexes[bi[p]]
                first = next(bb for bb in range(4)
                             if x[bb*4:bb*4+4] == y[bb*4:bb*4+4])
                keep[p] = first == band
            res_a.extend(ids[ai[keep]].tolist())
            res_b.extend(ids[bi[keep]].tolist())
            res_h.extend(hv[keep].tolist())
        return pd.DataFrame({"a": pd.Series(res_a, dtype="int64"),
                             "b": pd.Series(res_b, dtype="int64"),
                             "hamming": pd.Series(res_h, dtype="int64")})

    return bucket_exchange(ds.map_batches(sig, batch_format="pandas"),
                           ["band", "sub"], pairs, num_buckets, "pandas")
