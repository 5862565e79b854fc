"""Driver-facing query registry: one entry per operator family from
SURVEY.md §2, each a Ray Data pipeline over ``{sf_dir}/*.parquet`` with (for
SQL-expressible ops) a DuckDB oracle twin in ``ORACLE_SQL``.

Conventions for driver value-hash parity:
  * every computed/aggregate column is explicitly named, identically in the
    Ray result and the SQL (``AS <name>``);
  * money/value aggregates are summed in integer cents
    (``CAST(ROUND(x*100) AS BIGINT)`` per row, then SUM) so no
    floating-point association-order noise can break the hash;
  * results that are rankings return integer (id, rank) pairs, never raw
    float scores.

Scale notes are inline per query: broadcast small sides, partial pre-agg
before groupbys, column pruning at the read.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from . import annsearch, linking, textops
from .ops import bucket_exchange, distinct_rows, sum_by_key


def _read(sf_dir: str, table: str, columns=None):
    from .util import tune_context

    from .util import read_parquet_clean

    tune_context()
    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


@contextlib.contextmanager
def _scratch_dir(fmt: str):
    """A fresh ``gitprov_<fmt>_*`` temp dir per call, removed once the
    caller's result is on the driver: a dir shared per ``sf_dir`` let
    concurrent runs delete each other's files. Only for queries that
    return eager results or a materialized Dataset — a lazy one would
    read the dir after it is gone."""
    out_dir = tempfile.mkdtemp(prefix=f"gitprov_{fmt}_")
    try:
        yield out_dir
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _cents(x: pd.Series) -> pd.Series:
    # half-away-from-zero to match DuckDB ROUND (numpy round is half-to-even)
    v = np.asarray(x, dtype=np.float64) * 100
    return pd.Series(np.sign(v) * np.floor(np.abs(v) + 0.5), index=x.index).astype("int64")


# ---------------------------------------------------------------------------
# relational battery (TPC-H-ish tables)
# ---------------------------------------------------------------------------

def q1_pricing_summary(sf_dir: str):
    """Grouped aggregate with per-batch partial combine (A-family).
    Engine mapping of reference A1/A3 (SURVEY.md §2.5)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            qty=df["l_quantity"].astype("int64"),
            base=_cents(df["l_extendedprice"]),
            disc=_cents(df["l_extendedprice"] * (1 - df["l_discount"])),
            n=1,
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("qty", "sum"), sum_base_cents=("base", "sum"),
            sum_disc_cents=("disc", "sum"), count_order=("n", "sum"))
        return g.reset_index()

    # distributed partial combine per batch; the surviving partials are a
    # handful of rows per (flag,status) per block, so the FINAL merge is a
    # driver-side pandas groupby (two-phase aggregate; at high group
    # cardinality the bucketed shuffle of stages/triples.py is the path)
    partials = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return (partials.groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .sum().sort_values(["l_returnflag", "l_linestatus"])
            .reset_index(drop=True))


def q_top_orders(sf_dir: str):
    """Global sort + limit (O-family; engine top-k)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(10)


def q_segment_revenue(sf_dir: str):
    """Broadcast hash join (J1/J2 engine mapping): customer is the small
    side, shipped once into the batch fn closure — never per batch."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_of = dict(zip(cust["c_custkey"], cust["c_mktsegment"]))
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def join_agg(df: pd.DataFrame) -> pd.DataFrame:
        seg = df["o_custkey"].map(seg_of)
        g = pd.DataFrame({"c_mktsegment": seg,
                          "cents": _cents(df["o_totalprice"]), "n": 1})
        a = g.groupby("c_mktsegment", sort=False).agg(
            sum_price_cents=("cents", "sum"), n_orders=("n", "sum"))
        return a.reset_index()

    partials = ds.map_batches(join_agg, batch_format="pandas").to_pandas()
    return (partials.groupby("c_mktsegment", as_index=False).sum()
            .sort_values("c_mktsegment").reset_index(drop=True))


def q_supplier_nation(sf_dir: str):
    """Second broadcast join: supplier ⋈ nation → per-nation stats."""
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    name_of = dict(zip(nation["n_nationkey"], nation["n_name"]))
    ds = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"n_name": df["s_nationkey"].map(name_of),
                          "bal": _cents(df["s_acctbal"]), "n": 1})
        a = g.groupby("n_name", sort=False).agg(
            sum_acctbal_cents=("bal", "sum"), n_suppliers=("n", "sum"))
        return a.reset_index()

    partials = ds.map_batches(f, batch_format="pandas").to_pandas()
    return (partials.groupby("n_name", as_index=False).sum()
            .sort_values("n_name").reset_index(drop=True))


def q_lag_events(sf_dir: str):
    """Per-key ordered lag (reference ST1/J3 as-of semantics on the events
    table): previous event id per user, ordered by (ts, event_id).
    Hash-bucketed groupby + vectorized pandas shift (same pattern as the
    version-chain shuffle)."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def lag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        df["prev_event_id"] = df.groupby("user_id", sort=False)["event_id"].shift(1)
        out = df[["event_id", "user_id", "prev_event_id"]].copy()
        # float64, matching DuckDB's LAG(BIGINT)-with-NULLs → pandas float64
        # (driver hashes values WITH dtype; Int64 vs float64 broke parity)
        out["prev_event_id"] = out["prev_event_id"].astype("float64")
        return out

    return (bucket_exchange(ds, ["user_id"], lag, 32, "pandas")
            .sort("event_id"))


def q_hourly_user_activity(sf_dir: str):
    """Tumbling-window aggregate (streaming-shaped op over the events log):
    events per (user, hour) with partial pre-agg. The final combine is a
    distributed hash aggregate — (user, hour) cardinality grows with the
    corpus, so it must never land on the driver."""
    ds = _read(sf_dir, "events", ["ts", "user_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"user_id": df["user_id"],
                          "hour": df["ts"].dt.floor("h"),
                          "cents": _cents(df["value"]), "n": 1})
        a = g.groupby(["user_id", "hour"], sort=False).agg(
            n_events=("n", "sum"), sum_value_cents=("cents", "sum"))
        return a.reset_index()

    # distributed final combine through the keyed exchange (Ray's
    # multi-key aggregate was measured 20x slower here — per-group overhead
    # on ~100k (user, hour) groups)
    return (sum_by_key(ds.map_batches(partial, batch_format="pandas"),
                       ["user_id", "hour"], ["n_events", "sum_value_cents"])
            .sort(["user_id", "hour"]))


def q_event_type_stats(sf_dir: str):
    """Plain grouped aggregate over the stream table."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"event_type": df["event_type"],
                          "cents": _cents(df["value"]), "n": 1})
        a = g.groupby("event_type", sort=False).agg(
            n=("n", "sum"), sum_value_cents=("cents", "sum"))
        return a.reset_index()

    out = ds.map_batches(partial, batch_format="pandas").groupby(
        "event_type").aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_value_cents", alias_name="sum_value_cents"))
    return out.sort("event_type")


def q_distinct_sources(sf_dir: str):
    """Distinct values (reference A4 / S12 catalog listing)."""
    ds = _read(sf_dir, "documents", ["source"])
    vals = sorted(ds.unique("source"))
    return pa.table({"source": pa.array(vals, type=pa.string())})


def q_filter_en_docs(sf_dir: str):
    """Vectorized filter + projection (M-family) with pushdown at the read."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return (ds.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], "en")).select(["doc_id", "n_chars"]),
        batch_format="pyarrow")
        .sort("doc_id"))


def q_explode_embeddings(sf_dir: str):
    """List-explode (J4 parents-explode engine mapping) on a list<float>
    column, vectorized via pyarrow list kernels."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def explode(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["vec_id"], 50))
        col = t["embedding"].combine_chunks()
        parent = pc.list_parent_indices(col)
        flat = pc.list_flatten(col)
        lens = pc.list_value_length(col).to_numpy()
        idx = np.concatenate([np.arange(n, dtype=np.int64) for n in lens]) \
            if len(lens) else np.array([], dtype=np.int64)
        return pa.table({
            "vec_id": pc.take(t["vec_id"].combine_chunks(), parent),
            "idx": pa.array(idx, type=pa.int64()),
            "val": flat,
        })

    return ds.map_batches(explode, batch_format="pyarrow").sort(["vec_id", "idx"])


def q_exact_dedup_docs(sf_dir: str):
    """Exact dedup: hash-partition + per-group first (min id) + count."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return linking.exact_dedup_stats(ds).sort("text_md5")


def q_anti_join_customers(sf_dir: str):
    """Anti join via broadcast key set: customers with NO high-value order
    (>400k). The key set is small (filtered first), so it broadcasts; the
    scale path for a large key set is a bucketed hash anti-join or a Bloom
    filter broadcast."""
    import pyarrow.compute as pc

    hi = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 400000.0))
                   .select(["o_custkey"]),
        batch_format="pyarrow")
    okeys = pa.array(hi.unique("o_custkey"), type=pa.int64())
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    return ds.map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(t["c_custkey"], value_set=okeys))),
        batch_format="pyarrow").sort("c_custkey")


def q_semi_join_orders(sf_dir: str):
    """Semi join via broadcast key set (orders having a big lineitem)."""
    import pyarrow.compute as pc

    from .ops import semi_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        lambda t: t.filter(pc.greater_equal(t["l_quantity"], 48.0))
                   .select(["l_orderkey"]),
        batch_format="pyarrow")
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    # the qualifying key set is ~40% of orders — NOT small, so this goes
    # through the bucketed hash semi-join, not a broadcast value_set
    # (q_anti_join_customers keeps the broadcast fast path for small sets)
    return semi_join(ds, li, "o_orderkey", "l_orderkey").sort("o_orderkey")


def q_token_stats(sf_dir: str):
    """Token counting + quality stats (text-analysis ops, integers only)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = textops.quality_stats(df)
        out.insert(0, "doc_id", df["doc_id"].to_numpy())
        return out[["doc_id", "tok_cnt", "punct_cnt"]]

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_fingerprint_docs(sf_dir: str):
    """Normalization fingerprint (md5 of lower+collapsed text)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                                 "fp_md5": textops.fingerprint(df["text"])}),
        batch_format="pandas").sort("doc_id")


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k (similarity-search baseline)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return annsearch.brute_force_topk(ds, query_ids=[0, 1, 2, 3, 4], k=5) \
        .sort(["query_id", "rank"])


# ---------------------------------------------------------------------------
# non-SQL-expressible ops (driver records rows-only checks)
# ---------------------------------------------------------------------------

def kg_flagship_triples(sf_dir: str):
    """The flagship KG pipeline over the documents-derived page corpus."""
    from .pipelines import flagship

    return flagship.flagship(sf_dir, num_buckets=32)


def q_langid_docs(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                                 "lang_pred": textops.lang_id(df["text"])}),
        batch_format="pandas").sort("doc_id")


def q_simhash_docs(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                                 "simhash_hex": textops.simhash64(df["text"])}),
        batch_format="pandas").sort("doc_id")


def q_minhash_neardup_pairs(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = linking.minhash_candidate_pairs(ds, threshold=0.8)
    return out.select_columns(["a", "b"]).sort(["a", "b"])


def q_neardup_clusters(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return linking.neardup_clusters(ds, threshold=0.8).sort("doc_id")


def q_ngram_jaccard_pairs(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = linking.ngram_jaccard_pairs(ds, threshold=0.5)
    return out.select_columns(["a", "b"]).sort(["a", "b"])


def q_percent_rank_events(sf_dir: str):
    """PERCENT_RANK / CUME_DIST per event type (the order-statistics
    window family completing RANK/NTILE): per-type bucketed shuffle,
    vectorized in-group ranks; both statistics emitted as exact integer
    millis via big-int round-half-up, so the twin hash-matches without
    float division noise."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def ranks(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, g in df.groupby("event_type", sort=False):
            g = g.sort_values(["value", "event_id"], kind="mergesort")
            n = len(g)
            v = g["value"].to_numpy()
            # RANK(): 1 + count of strictly-smaller values
            rank = np.searchsorted(v, v, side="left") + 1
            # CUME_DIST numerator: count of <= values
            le = np.searchsorted(v, v, side="right")
            rank = rank.astype(np.int64)
            le = le.astype(np.int64)
            if n > 1:
                pr = (2000 * (rank - 1) + (n - 1)) // (2 * (n - 1))
            else:
                pr = np.zeros(n, dtype=np.int64)
            cd = (2000 * le + n) // (2 * n)
            frames.append(pd.DataFrame({
                "event_id": g["event_id"].to_numpy(),
                "event_type": g["event_type"].to_numpy(),
                "pr_millis": pd.Series(pr, dtype="int64"),
                "cd_millis": pd.Series(cd, dtype="int64")}))
        return (pd.concat(frames, ignore_index=True) if frames else
                pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                              "event_type": pd.Series([], dtype=object),
                              "pr_millis": pd.Series([], dtype="int64"),
                              "cd_millis": pd.Series([], dtype="int64")}))

    return (bucket_exchange(ds, ["event_type"], ranks, 32, "pandas")
            .sort("event_id"))


def q_novelty_docs(sf_dir: str):
    """N-gram novelty score per document: the fraction (integer millis)
    of a doc's distinct word-3-grams that appear in NO other document —
    the memorization/novelty diagnostic of corpus curation. One
    gram-keyed bucketed shuffle computes document frequencies (each
    gram's posting list colocates), a doc-keyed shuffle folds the
    novel-gram counts back per doc; millis = round-half-up of
    1000*novel/n in exact integers."""
    from .linking import _shingle_hashes_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        hs = _shingle_hashes_batch(list(df["text"]))
        uniq = [np.unique(h) for h in hs]
        reps = [len(u) for u in uniq]
        g = (np.concatenate(uniq) if uniq else
             np.empty(0, dtype=np.uint64)).astype("uint64")
        return pd.DataFrame({
            "doc_id": np.repeat(df["doc_id"].to_numpy(), reps), "g": g})

    def df_counts(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["doc_id", "g"])
        dfreq = df.groupby("g", sort=False)["doc_id"].transform("size")
        part = pd.DataFrame({"doc_id": df["doc_id"],
                             "novel": (dfreq == 1).astype("int64"),
                             "n": np.int64(1)})
        return (part.groupby("doc_id", sort=False, as_index=False)
                [["novel", "n"]].sum())

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("doc_id", sort=False, as_index=False)
             [["novel", "n"]].sum())
        millis = [(2 * 1000 * int(a) + int(b)) // (2 * int(b)) if b else 0
                  for a, b in zip(g["novel"], g["n"])]
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64"),
            "n_grams": g["n"].astype("int64"),
            "novelty_millis": pd.Series(millis, dtype="int64")})

    grams = ds.map_batches(gram_rows, batch_format="pandas")
    counts = bucket_exchange(grams, ["g"], df_counts, 64, "pandas")
    return (bucket_exchange(counts, ["doc_id"], fold, 32, "pandas")
            .sort("doc_id"))


def q_hll_by_type(sf_dir: str):
    """GROUPED HyperLogLog: distinct-user sketch PER event type
    (ops.hll_distinct_by) — one 4 KB register row per (batch, key)
    moves, merged by elementwise max per key; md5 registers + the
    pinned estimate tree make every per-key estimate oracle-exact."""
    from . import ops

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return ops.hll_distinct_by(ds, "event_type", "user_id")


def q_kcenter_coreset(sf_dir: str):
    """k-center greedy coreset over the embeddings (farthest-first,
    k=4): the deterministic data-selection op; integer quantized
    distances make the greedy trajectory oracle-exact
    (annsearch.kcenter_coreset)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return annsearch.kcenter_coreset(ds, k=4)


def q_skipgram_pairs(sf_dir: str, window: int = 2, topn: int = 50):
    """Skip-gram (center, context) pair counts within a ±2 token window
    — the word2vec/embedding-training data-prep op. Pure vectorized
    row expansion per batch (one shifted-array concat per offset, no
    Python loop over tokens), per-batch partial counts, ONE bucketed
    shuffle on the pair key; top-N by (count desc, pair asc)."""
    ds = _read(sf_dir, "documents", ["text"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        n = toks.str.len().to_numpy(dtype=np.int64)
        if n.sum() == 0:
            return pd.DataFrame({"center": pd.Series(dtype=object),
                                 "context": pd.Series(dtype=object),
                                 "n": pd.Series(dtype="int64")})
        flat = np.concatenate(
            [np.asarray(t, dtype=object) for t in toks if len(t)])
        doc_of = np.repeat(np.arange(len(n)), n)
        cs, xs = [], []
        for off in range(1, window + 1):
            same = doc_of[off:] == doc_of[:-off]
            a, b = flat[:-off][same], flat[off:][same]
            cs.append(np.concatenate([a, b]))   # symmetric window
            xs.append(np.concatenate([b, a]))
        g = (pd.DataFrame({"center": np.concatenate(cs),
                           "context": np.concatenate(xs)})
             .groupby(["center", "context"], sort=False).size()
             .rename("n").reset_index())
        return g

    agg = sum_by_key(ds.map_batches(pairs, batch_format="pandas"),
                     ["center", "context"], ["n"], 32).to_pandas()
    agg["n"] = agg["n"].astype("int64")
    out = (agg.sort_values(["n", "center", "context"],
                           ascending=[False, True, True],
                           kind="mergesort").head(topn)
           .reset_index(drop=True))
    return out


def q_containment_pairs(sf_dir: str):
    """Containment near-dup pairs (|A∩B|/min >= 0.8 over word-3-gram
    sets) — the subset-duplicate detector: a short doc quoted inside a
    long one scores low Jaccard but containment ~1
    (linking.containment_pairs; gram-bucketed, df-capped, no MinHash,
    no all-pairs)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return linking.containment_pairs(ds, threshold=0.8).sort(["a", "b"])


def q_ann_lsh_topk(sf_dir: str):
    """Approximate top-k via sign-random-projection LSH (round 4:
    oracle-checked — the Rademacher hyperplanes derive from md5 and the
    projections run over round(v*1000) integers, so the DuckDB twin
    reproduces the bucket ids exactly and the approximation itself is
    pinned, not just smoke-tested)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return annsearch.lsh_topk(ds, query_ids=[0, 1, 2, 3, 4], k=5,
                              n_planes=4) \
        .sort(["query_id", "rank"])


def q_ann_lsh_multiprobe(sf_dir: str):
    """Multi-probe LSH top-k (Lv et al. 2007): own bucket + every
    single-bit-flip bucket — the recall lever without more hash tables.
    Oracle-checked end-to-end: integer buckets mean the twin reproduces
    the probe sets exactly (annsearch.lsh_multiprobe_topk)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return annsearch.lsh_multiprobe_topk(
        ds, query_ids=[0, 1, 2, 3, 4], k=5, n_planes=4) \
        .sort(["query_id", "rank"])


def q_url_canonicalize(sf_dir: str):
    """URL canonicalization (the first dedup key of any web crawl):
    scheme/host lowercased, default port stripped, fragment dropped,
    query parameters sorted, trailing slash trimmed. The corpus has no
    URL column, so messy URLs are DERIVED deterministically per doc —
    identically in engine and twin (the injection trick) — with three
    mess variants (upper host + :443, unsorted params + fragment,
    trailing slash). Output = canonical url + dedup count per
    canonical form."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64")
        src = df["source"].astype(str)
        v = d % 3
        raw = np.where(
            v == 0,
            "HTTPS://" + src.str.upper() + ".EXAMPLE:443/Doc/"
            + d.astype(str) + "#frag",
            np.where(
                v == 1,
                "https://" + src + ".example/Doc/" + d.astype(str)
                + "?z=2&a=1",
                "https://" + src + ".example/Doc/" + d.astype(str) + "/"))
        raw = pd.Series(raw, index=df.index)
        parts = raw.str.extract(
            r"^(?P<scheme>[A-Za-z]+)://(?P<host>[^/?#]+)"
            r"(?P<path>[^?#]*)(?:\?(?P<query>[^#]*))?(?:#.*)?$")
        scheme = parts["scheme"].str.lower()
        host = parts["host"].str.lower()
        host = host.str.replace(r":443$", "", regex=True) \
            .str.replace(r":80$", "", regex=True)
        path = parts["path"].str.replace(r"/$", "", regex=True)
        q = parts["query"].fillna("")
        q = q.map(lambda s: "&".join(sorted(s.split("&"))) if s else "")
        url = scheme + "://" + host + path + np.where(q != "", "?" + q, "")
        return pd.DataFrame({"doc_id": d.to_numpy(),
                             "canon_url": pd.Series(url).to_numpy()})

    out = ds.map_batches(canon, batch_format="pandas")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby("canon_url", sort=False).size()
             .rename("n").reset_index())
        return g

    agg = (out.map_batches(partial, batch_format="pandas")
           .groupby("canon_url")
           .aggregate(Sum("n", alias_name="n")))
    return agg.map_batches(
        lambda df: pd.DataFrame({"canon_url": df["canon_url"],
                                 "n": df["n"].astype("int64")}),
        batch_format="pandas").sort("canon_url")


_ROBOTS_TXT = """\
# crawl-politeness fixture (RFC 9309) — groups + wildcards + anchors
User-agent: datasetbot
User-agent: gitprovbot
Disallow: /private
Allow: /private/pub
Disallow: /*.tmp$
Disallow: /search
Allow: /search/about$

User-agent: *
Disallow: /
"""


def _robots_paths(d: pd.Series) -> pd.Series:
    """Deterministic per-doc URL paths (the robots-twin injection) —
    shared by q_robots_filter_docs and the composed curation query."""
    v = (d % 6).to_numpy()
    ids = d.astype(str)
    return pd.Series(np.select(
        [v == 0, v == 1, v == 2, v == 3, v == 4],
        ["/private/doc" + ids, "/private/pub/doc" + ids,
         "/cache/doc" + ids + ".tmp", "/search/about",
         "/search/q" + ids],
        default="/docs/doc" + ids), index=d.index)


def _gopher_aug(d: pd.Series, t: pd.Series) -> pd.Series:
    """Deterministic Gopher-gate line injection (twin-mirrored) —
    shared by q_gopher_filter_docs and the composed curation query."""
    def inj(cond, s):
        return pd.Series(np.where(cond, s, ""), index=t.index)

    reg = d % 16 != 0              # the bullet-heavy class stands alone
    return (t
            + inj(reg & (d % 5 != 0),
                  "\nGood words of and to that with here.")
            + inj(reg & (d % 4 == 0),
                  "\n- item one\n- item two\n- item three")
            + inj(reg & (d % 6 == 0),
                  "\nwell then a trailing thought...")
            + inj(reg & (d % 7 == 0), "\n# # # ## # ## ##")
            + inj(reg & (d % 9 == 0), "\nrepeat line\nrepeat line")
            + inj(d % 16 == 0,
                  "".join("\n- bullet row %d here" % k
                          for k in range(10)))
            + inj(d % 16 == 8, "\n" + "a " * 79 + "a"))


def _card_aug(d: pd.Series, t: pd.Series) -> pd.Series:
    """Deterministic PAN/phone injection (twin-mirrored) — shared by
    q_card_luhn_docs and the composed curation query."""
    card = ("4" + (d * 37 % 10**14).astype(str).str.zfill(14)
            + (d % 10).astype(str))
    phone = pd.Series(np.where(
        d % 3 != 0,
        "+1-555-" + (100 + d % 900).astype(str) + "-"
        + (1000 + d % 9000).astype(str), ""), index=t.index)
    return t + " card " + card + " ref 1234567 " + phone


def q_robots_filter_docs(sf_dir: str):
    """robots.txt URL filtering (RFC 9309), the crawl-politeness gate of
    a web pipeline: parse the agent's rule group once on the driver,
    ship the compiled rules in the batch closure (tiny — rules are few,
    paths are many), and decide each derived doc path by the spec's
    longest-match / allow-wins-ties precedence, one vectorized regex
    sweep per RULE (robots.match_paths_vec). Paths are injected
    deterministically from doc_id — identically in the DuckDB twin —
    covering prefix disallow, longer-allow override, * and $ wildcards,
    and the no-match default-allow. At 100 TB the same stage runs with
    per-host matchers built in an actor's __init__ from a broadcast
    host→robots dict; the precedence engine is what this query pins."""
    from .robots import RobotsMatcher, match_paths_vec

    rules = RobotsMatcher(_ROBOTS_TXT, "gitprovbot/1.0").rules
    ds = _read(sf_dir, "documents", ["doc_id"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64")
        path = _robots_paths(d)
        allowed, rule_len = match_paths_vec(path, rules)
        return pd.DataFrame({"doc_id": d.to_numpy(),
                             "path": path.to_numpy(),
                             "allowed": allowed,
                             "rule_len": rule_len})

    return ds.map_batches(fn, batch_format="pandas").sort("doc_id")


def q_catalog_search(sf_dir: str):
    """Catalog search (S6-S8 engine mapping) with the reference's
    query-param multimap flatten (M12, GithubService.java:61-66: last value
    wins) and namespace-URL projection (M13/M14): documents matching the
    flattened params -> distinct graph namespace URLs."""
    from . import idgen
    import pyarrow.compute as pc

    multimap = [("lang", "de"), ("source", "src9"), ("lang", "en")]
    params: dict[str, str] = {}
    for k, v in multimap:          # M12 flatten: last value wins
        params[k] = v

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def f(t: pa.Table) -> pa.Table:
        m = pc.equal(t["lang"], params["lang"])
        if "source" in params:
            m = pc.and_(m, pc.equal(t["source"], params["source"]))
        return t.filter(m).select(["source"])

    sources = sorted(set(ds.map_batches(f, batch_format="pyarrow")
                         .unique("source")))
    return pa.table({"ns_url": pa.array(
        [idgen.graph_ns(f"{s}.example") for s in sources], pa.string())})


def q_sessionize(sf_dir: str):
    """Gap-based sessionization (streaming-shaped op): per-user sessions
    split on >30min inactivity; bucketed per-key ordered pass (same shuffle
    pattern as the version-lag stage), vectorized cumsum inside buckets."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = df.groupby("user_id", sort=False)["ts"].shift(1)
        new_sess = (prev.isna() |
                    ((df["ts"] - prev) > pd.Timedelta(minutes=30))).astype("int64")
        df = df.assign(session_id=new_sess.groupby(
            df["user_id"], sort=False).cumsum())
        g = df.groupby(["user_id", "session_id"], sort=False).agg(
            n_events=("event_id", "size"))
        return g.reset_index()

    # per-(user, session) output cardinality grows with the corpus: stay
    # distributed end-to-end (Ray sort, no driver to_pandas)
    return (bucket_exchange(ds, ["user_id"], sessions, 32, "pandas")
            .sort(["user_id", "session_id"]))



def q_media_features(sf_dir: str):
    """Multimodal: synthetic netpbm image corpus -> actor-pool REAL decode
    + pooled-grid feature extraction (pure-numpy codec; compressed formats
    are the documented stub). Rows-only check."""
    import ray.data as rd
    from . import multimodal

    media = rd.from_arrow(multimodal.synth_media_table(48))
    feats = multimodal.image_pipeline(media)
    return feats.select_columns(["media_id"]).sort("media_id")


def q_media_audio_stats(sf_dir: str):
    """Multimodal audio: REAL WAV decode (stdlib) -> duration/RMS/ZCR per
    clip via an actor pool. Rows-only (integer duration is the stable
    column)."""
    import ray.data as rd
    from . import multimodal

    media = rd.from_arrow(multimodal.synth_media_table(48))
    out = multimodal.audio_pipeline(media)
    return out.select_columns(["media_id", "duration_ms"]).sort("media_id")


def q_media_video_frames(sf_dir: str):
    """Multimodal video: REAL frame sampling over concatenated-PPM streams
    (exploded rows). Rows-only."""
    import ray.data as rd
    from . import multimodal

    media = rd.from_arrow(multimodal.synth_media_table(24))
    out = multimodal.video_pipeline(media, k=2)
    return out.select_columns(["media_id", "frame_idx"]) \
        .sort(["media_id", "frame_idx"])


def q_shot_boundary_media(sf_dir: str):
    """Shot-boundary (scene-cut) detection over the video corpus
    (multimodal.ShotBoundary): every container/codec the engine decodes
    (animated GIF/PNG/WebP, MJPEG MP4, AVI) streams through the
    pairwise integer luma-histogram comparison. Rows-only (the frames
    come from the engine's own codecs — not SQL-expressible), but
    deterministic bit-for-bit: all-integer histogram milli-diffs."""
    import ray.data as rd
    from . import multimodal

    media = rd.from_arrow(multimodal.synth_media_table(24))
    out = multimodal.shot_boundary_pipeline(media, threshold_milli=400)
    return out.sort(["media_id", "frame_idx"])


def q_media_probe(sf_dir: str):
    """Multimodal metadata extraction WITHOUT decode: header-only probes
    (JPEG SOF walk, PNG IHDR, GIF block walk, WAV header, MP4 moov,
    netpbm headers) over the full mixed corpus — the cheap first stage
    of a media curation pipeline. Rows-only (deterministic columns:
    format/codec/dims/frames)."""
    import ray.data as rd
    from . import multimodal

    media = rd.from_arrow(multimodal.synth_media_table(48))
    out = multimodal.probe_pipeline(media)
    return out.select_columns(["media_id", "kind", "format", "codec",
                               "width", "height", "frames"]) \
        .sort("media_id")


def kg_canonical_agents(sf_dir: str):
    """Agent canonicalization over the flagship triples: MinHash-linked
    near-duplicate agent nodes -> (agent_uri, canonical_uri) map rows via
    the fully distributed path (bucketed LSH shuffle + star-contraction
    components — the web-scale agent slice never lands on the driver).
    Rows-only (linking is not SQL-expressible)."""
    from . import linking
    from .pipelines import flagship

    tri = flagship.flagship(sf_dir, num_buckets=32)
    return linking.canonical_agent_map_ds(tri, threshold=0.7) \
        .sort(["agent_uri", "canonical_uri"])


def kg_sparql_activity_stats(sf_dir: str):
    """End-to-end KG-construction → SPARQL: the flagship triples stream
    straight into the distributed string front-end — per-graph counts of
    commit Activities that used at least one entity. Rows-only (the KG
    derivation is not SQL-expressible); every stage (render → parse →
    emit → dedup → GRAPH-scan BGP joins → two-phase aggregate) stays a
    Dataset."""
    from . import sparql_lite
    from .pipelines import flagship

    # invariant 10: the SPARQL front-end scans the triples ONCE PER BGP
    # PATTERN (two scans here) — an unmaterialized flagship would re-run
    # its whole render→emit→dedup DAG per scan, doubling every exchange
    # (the round-4 audit's 11-exchange outlier, VERDICT r04 #8)
    tri = flagship.flagship(sf_dir, num_buckets=32).materialize()
    q = """
        PREFIX prov: <http://www.w3.org/ns/prov#>
        SELECT ?g (COUNT(?a) AS ?n_used) WHERE {
            GRAPH ?g { ?a rdf:type prov:Activity .
                       ?a prov:used ?e }
        } GROUP BY ?g ORDER BY ?g
    """
    return sparql_lite.select_text_distributed(tri, q)


def q_source_counts_salted(sf_dir: str):
    """Salted two-phase count per source (hot-key skew handling, SURVEY.md
    §4.2): the partial phase keys on (source, salt) so a dominant source
    spreads across reducers; the final combine drops the salt. Exact."""
    from .ops import salted_value_counts

    ds = _read(sf_dir, "documents", ["source"])
    out = salted_value_counts(ds, "source", num_salts=16, final="shuffle")
    return out.rename(columns={"source": "source", "n": "n_docs"})


def q_topk_per_group(sf_dir: str):
    """Top-k per key (grouped ranking): 2 highest-value orders per market
    segment. Broadcast segment join + per-group head inside a groupby."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_of = dict(zip(cust["c_custkey"], cust["c_mktsegment"]))
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["c_mktsegment"] = df["o_custkey"].map(seg_of)
        # local pre-top-k per batch: at most k rows per segment move on
        return (df.sort_values(["o_totalprice", "o_orderkey"],
                               ascending=[False, True], kind="mergesort")
                .groupby("c_mktsegment", sort=False).head(2))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = (df.sort_values(["o_totalprice", "o_orderkey"],
                             ascending=[False, True], kind="mergesort")
              .groupby("c_mktsegment", sort=False).head(2).copy())
        df["rk"] = df.groupby("c_mktsegment", sort=False).cumcount() + 1
        return df[["c_mktsegment", "rk", "o_orderkey"]]

    # final per-segment top-k runs inside a distributed groupby (k × blocks
    # candidate rows per segment shuffle to that segment's reducer — never
    # to the driver)
    return (bucket_exchange(ds.map_batches(tag, batch_format="pandas"),
                            ["c_mktsegment"], final, 16, "pandas")
            .sort(["c_mktsegment", "rk"]))


def q_moving_sum_events(sf_dir: str):
    """Sliding-window aggregate (O/ST-family): per-user 3-row moving sum
    of value cents, ordered by (ts, event_id) — same bucketed per-key
    shuffle as the version-lag stage, vectorized pandas rolling inside."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def roll(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cents = _cents(df["value"])
        mv = (cents.groupby(df["user_id"], sort=False)
              .rolling(3, min_periods=1).sum()
              .reset_index(level=0, drop=True))
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                             "user_id": df["user_id"].to_numpy(),
                             "mv_sum_cents": mv.astype("int64").to_numpy()})

    return (bucket_exchange(ds, ["user_id"], roll, 32, "pandas")
            .sort("event_id"))


def q_nation_revenue_3way(sf_dir: str):
    """Three-way join (J-family): orders ⋈ customer ⋈ nation → revenue per
    nation. Both small sides broadcast once into the batch closure."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nat_of_cust = dict(zip(
        cust["c_custkey"],
        cust["c_nationkey"].map(dict(zip(nation["n_nationkey"],
                                         nation["n_name"])))))
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"n_name": df["o_custkey"].map(nat_of_cust),
                          "cents": _cents(df["o_totalprice"]), "n": 1})
        return (g.groupby("n_name", sort=False)
                .agg(sum_revenue_cents=("cents", "sum"), n_orders=("n", "sum"))
                .reset_index())

    return (ds.map_batches(f, batch_format="pandas")
            .groupby("n_name")
            .aggregate(Sum("sum_revenue_cents", alias_name="sum_revenue_cents"),
                       Sum("n_orders", alias_name="n_orders"))
            .sort("n_name"))


def q_orders_by_month(sf_dir: str):
    """Calendar-bucketed aggregate: orders and revenue per month."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # us precision: DuckDB's date_trunc lands in pandas as datetime64[us]
        month = pd.to_datetime(df["o_orderdate"]).dt.to_period("M") \
            .dt.to_timestamp().astype("datetime64[us]")
        g = pd.DataFrame({"month": month,
                          "cents": _cents(df["o_totalprice"]), "n": 1})
        return (g.groupby("month", sort=False)
                .agg(n_orders=("n", "sum"), sum_cents=("cents", "sum"))
                .reset_index())

    out = (ds.map_batches(partial, batch_format="pandas")
           .groupby("month")
           .aggregate(Sum("n_orders", alias_name="n_orders"),
                      Sum("sum_cents", alias_name="sum_cents"))
           .sort("month")
           .to_pandas())           # bounded: one row per calendar month
    # Ray's pandas conversion upcasts to ns; pin DuckDB's us convention
    out["month"] = out["month"].astype("datetime64[us]")
    return out


def q_distinct_users_per_type(sf_dir: str):
    """COUNT(DISTINCT ...) per group, two-phase: per-batch distinct
    (event_type, user_id) pairs (combiner), then the bucketed-shuffle
    pattern — global pair dedup + local counts inside each hash bucket
    (each distinct pair lands in exactly one bucket), then a tiny
    per-type Sum. The shuffle carries one row per distinct pair per
    batch, never raw events; the pair-cardinality groupby never goes
    through Ray's multi-key aggregate (CLAUDE.md invariant 4)."""
    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    pairs = ds.map_batches(
        lambda df: df.drop_duplicates(["event_type", "user_id"]),
        batch_format="pandas")

    def count_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["event_type", "user_id"])
        return (d.groupby("event_type", sort=False).size()
                .reset_index(name="n_users"))

    return (bucket_exchange(pairs, ["event_type", "user_id"],
                            count_in_bucket, 64, "pandas")
            .groupby("event_type")

            .aggregate(Sum("n_users", alias_name="n_users"))
            .sort("event_type"))


def q_value_buckets(sf_dir: str):
    """CASE-WHEN range bucketing (M-family): event counts per value band."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["value"])

    def partial(t: pa.Table) -> pa.Table:
        v = t.column("value")
        band = pc.if_else(
            pc.less(v, 10.0), "low",
            pc.if_else(pc.less(v, 100.0), "mid", "high"))
        return pa.table({"band": band})

    out = ds.map_batches(partial, batch_format="pyarrow")

    def count(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("band", sort=False).size().reset_index(name="n")
        return g

    from ray.data.aggregate import Sum as _Sum

    return (out.map_batches(count, batch_format="pandas")
            .groupby("band").aggregate(_Sum("n", alias_name="n"))
            .sort("band"))


def q_part_brand_stats(sf_dir: str):
    """Grouped min/max/sum over the part table (A-family over a table the
    battery didn't touch yet)."""
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(cents=_cents(df["p_retailprice"]), n=1)
        out = (g.groupby("p_brand", sort=False)
               .agg(n_parts=("n", "sum"), min_size=("p_size", "min"),
                    max_size=("p_size", "max"),
                    sum_retail_cents=("cents", "sum"))
               .reset_index())
        # pin int64: p_size is int32 in parquet; the oracle CASTs to BIGINT
        for c in ("min_size", "max_size"):
            out[c] = out[c].astype("int64")
        return out

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("p_brand")
            .aggregate(Sum("n_parts", alias_name="n_parts"),
                       Min("min_size", alias_name="min_size"),
                       Max("max_size", alias_name="max_size"),
                       Sum("sum_retail_cents", alias_name="sum_retail_cents"))
            .sort("p_brand"))


def q_union_tagged(sf_dir: str):
    """UNION ALL (set-op family): high-value orders and negative-balance
    customers as one tagged key stream."""
    import pyarrow.compute as pc

    def tag(kind, key_col, mask_fn):
        def f(t: pa.Table) -> pa.Table:
            sel = t.filter(mask_fn(t))
            return pa.table({
                "kind": pa.repeat(pa.scalar(kind), sel.num_rows),
                "key": sel.column(key_col),
            })
        return f

    hi = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        tag("order", "o_orderkey",
            lambda t: pc.greater(t["o_totalprice"], 400000.0)),
        batch_format="pyarrow")
    neg = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        tag("customer", "c_custkey",
            lambda t: pc.less(t["c_acctbal"], 0.0)),
        batch_format="pyarrow")
    return hi.union(neg).sort(["kind", "key"])


def q_string_ops(sf_dir: str):
    """Vectorized scalar string functions (§2.8 battery): upper, substr,
    length, concat over customer names — Arrow C++ kernels end to end."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])

    def f(t: pa.Table) -> pa.Table:
        name = t.column("c_name")
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "name_upper": pc.utf8_upper(name),
            "name_prefix": pc.utf8_slice_codeunits(name, 0, 8),
            "name_len": pc.utf8_length(name).cast(pa.int64()),
            "tag": pc.binary_join_element_wise(
                t.column("c_mktsegment"), name, ":"),
        })

    return ds.map_batches(f, batch_format="pyarrow").sort("c_custkey")


def q_rollup_revenue(sf_dir: str):
    """Two-level rollup (GROUPING SETS composition): revenue per
    (c_mktsegment, o_orderstatus) plus per-segment subtotals and a grand
    total, as a union of three grouped aggregates — the distributed
    re-expression of ROLLUP."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_of = dict(zip(cust["c_custkey"], cust["c_mktsegment"]))
    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderstatus", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"seg": df["o_custkey"].map(seg_of),
                          "status": df["o_orderstatus"],
                          "cents": _cents(df["o_totalprice"])})
        return (g.groupby(["seg", "status"], sort=False)["cents"].sum()
                .reset_index(name="sum_cents"))

    detail = (ds.map_batches(partial, batch_format="pandas")
              .groupby(["seg", "status"])
              .aggregate(Sum("sum_cents", alias_name="sum_cents")))

    def to_subtotal(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("seg", sort=False)["sum_cents"].sum()
                .reset_index().assign(status="ALL")
                [["seg", "status", "sum_cents"]])

    def to_total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"seg": ["ALL"], "status": ["ALL"],
                             "sum_cents": [df["sum_cents"].sum()]})

    sub = (detail.map_batches(to_subtotal, batch_format="pandas")
           .groupby("seg").aggregate(Sum("sum_cents", alias_name="sum_cents"))
           .map_batches(lambda df: df.assign(status="ALL")
                        [["seg", "status", "sum_cents"]],
                        batch_format="pandas"))
    total = (detail.map_batches(to_total, batch_format="pandas")
             .groupby(["seg", "status"])
             .aggregate(Sum("sum_cents", alias_name="sum_cents")))
    return detail.union(sub).union(total).sort(["seg", "status"])


def q_curation_pipeline(sf_dir: str):
    """End-to-end training-data curation (pipelines/curation.py): language
    + token-length gate composed with exact dedup via the bucketed hash
    semi-join — the full multi-stage composition oracle-checked in one
    query."""
    from .pipelines.curation import curate_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return curate_documents(ds, lang="en", min_tokens=10).sort("doc_id")


def q_curation_full(sf_dir: str):
    """Round-4 full curation composition (pipelines/curation.py:
    curate_documents_full): Gopher gates + repetition + PII scrub +
    language/length gate + exact dedup, oracle-checked end-to-end
    INCLUDING the redacted text bytes."""
    from .pipelines.curation import curate_documents_full

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return curate_documents_full(ds, lang="en", min_tokens=10) \
        .sort("doc_id")


def q_curation_langid(sf_dir: str):
    """The same curation pipeline with the engine's heuristic language-ID
    instead of the table's lang column (rows-only: the n-gram heuristic
    has no SQL twin)."""
    from .pipelines.curation import curate_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return curate_documents(ds, lang="en", min_tokens=10,
                            predict_lang=True).sort("doc_id")


def q_hash_sample_docs(sf_dir: str):
    """Deterministic systematic sample (O-family sampling, SURVEY.md §2.6):
    keep every doc whose id ≡ 3 (mod 10). Seeded-random sampling exists
    via ds.random_sample(f, seed=...); the modulus form is the
    oracle-checkable deterministic variant (same rows on every run and
    every worker layout)."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(pc.equal(
            pc.subtract(t["doc_id"],
                        pc.multiply(pc.divide(t["doc_id"], 10), 10)), 3)),
        batch_format="pyarrow").sort("doc_id")


def q_json_extract_stats(sf_dir: str):
    """Semi-structured field extraction (M-family; webtext pipelines carry
    JSON sidecar columns): pull props.k out of the JSON string column,
    vectorized, and aggregate per event_type."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = (df["props"].str.extract(r'"k":\s*(-?\d+)', expand=False)
             .astype("float64").fillna(0).astype("int64"))
        g = pd.DataFrame({"event_type": df["event_type"], "k": k})
        return (g.groupby("event_type", sort=False)["k"].sum()
                .reset_index(name="sum_k"))

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("event_type")
            .aggregate(Sum("sum_k", alias_name="sum_k"))
            .sort("event_type"))


def q_regex_extract_docs(sf_dir: str):
    """Vectorized regex extraction over document text (text-analysis op):
    first >=6-letter lowercase word per document."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        w = df["text"].fillna("").str.extract(r"([a-z]{6,})", expand=False) \
            .fillna("")
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(), "w": w})

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


_DOCS_NS = "http://docs.example/"


def _docs_triples(sf_dir: str, en_lang_only: bool = False,
                  graph_by_source: bool = False):
    """documents table rendered as RDF triples (subj = doc URI; one
    `lang` and one `source` triple per doc) — the shared fixture for the
    SPARQL-surface queries. ``en_lang_only``: emit the lang triple only
    for English docs, making `lang` a PARTIAL predicate (exercises
    OPTIONAL's unmatched rows). ``graph_by_source``: name each doc's
    graph after its source (quad-shaped corpus for GRAPH-clause
    queries) instead of the single "docs" graph."""
    NS = _DOCS_NS
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def to_triples(df: pd.DataFrame) -> pd.DataFrame:
        def mk(sub: pd.DataFrame, pred: str, obj: pd.Series) -> pd.DataFrame:
            return pd.DataFrame({
                "subj": NS + "doc/" + sub["doc_id"].astype(str),
                "pred": NS + pred, "obj": obj.astype(str),
                "obj_is_literal": True, "obj_dtype": "xsd:string",
                "graph": sub["source"].astype(str) if graph_by_source
                else "docs"})

        lang_rows = df[df["lang"] == "en"] if en_lang_only else df
        return pd.concat([mk(lang_rows, "lang", lang_rows["lang"]),
                          mk(df, "source", df["source"])],
                         ignore_index=True)

    return ds.map_batches(to_triples, batch_format="pandas")


def q_sparql_select(sf_dir: str):
    """SPARQL query-STRING front-end (the reference's ad-hoc query surface,
    SparqlService.java:22-31): the documents table rendered as RDF triples,
    queried with SPARQL text — parser → BGP compile → vectorized pattern
    scans → binding join. The per-pattern selections are small (filters
    push down into the Arrow scan), so the binding join is driver-side; the
    scale path for large bindings is the bucketed Dataset.join."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?d ?s WHERE {
            ?d ex:lang "en" .
            ?d ex:source ?s .
            FILTER (?s != "src3")
        } ORDER BY ?d ?s
    """
    return sparql_lite.select_text(tri, q)


def q_sparql_distributed(sf_dir: str):
    """SPARQL BGP over the distributed join path (sparql_lite.
    select_distributed): bindings stay Datasets and shared variables join
    via the bucketed hash join — the scale surface for large binding
    sets."""
    from . import sparql_lite

    NS = _DOCS_NS
    tri = _docs_triples(sf_dir)
    out = sparql_lite.select_distributed(
        tri, [("?d", NS + "lang", "en"), ("?d", NS + "source", "?s")],
        variables=["?d", "?s"], order_by=["?d", "?s"])
    return out


def q_sparql_optional(sf_dir: str):
    """SPARQL OPTIONAL — left-outer binding join (SPARQL 1.1 §5.3; the
    reference's query surface is full Jena SPARQL, SparqlService.java:22-31).
    Fixture makes `lang` a PARTIAL predicate (only English docs carry it),
    so ?l stays unbound (NULL) for every non-English doc while the required
    ?s binding is preserved."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir, en_lang_only=True)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?d ?s ?l WHERE {
            ?d ex:source ?s .
            OPTIONAL { ?d ex:lang ?l }
        } ORDER BY ?d
    """
    return sparql_lite.select_text(tri, q)


def q_sparql_union(sf_dir: str):
    """SPARQL UNION — bag-semantics concat of BGP branches (SPARQL 1.1
    §5.4), via the query-string front-end."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?d ?s WHERE {
            { ?d ex:lang "en" } UNION { ?d ex:lang "de" } .
            ?d ex:source ?s .
        } ORDER BY ?d
    """
    return sparql_lite.select_text(tri, q)


def q_sparql_optional_distributed(sf_dir: str):
    """Distributed OPTIONAL: required BGP and each OPTIONAL group stay
    Datasets end-to-end; the left-outer merge is a bucketed
    `Dataset.join` (sparql_lite.select_optional_distributed) — bindings
    never materialize on the driver."""
    from . import sparql_lite

    NS = _DOCS_NS
    tri = _docs_triples(sf_dir, en_lang_only=True)
    out = sparql_lite.select_optional_distributed(
        tri, [("?d", NS + "source", "?s")], [[("?d", NS + "lang", "?l")]])
    return out.sort("d")


def q_sparql_agg(sf_dir: str):
    """SPARQL aggregates + GROUP BY (SPARQL 1.1 §11) via the string
    front-end: docs-per-source counts over the docs-triples fixture. The
    aggregation runs on the joined binding table like Jena's (driver-side,
    cardinality bounded by the BGP); the distributed twin for huge binding
    sets is select_distributed + ops.salted_count."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?s (COUNT(?d) AS ?n) WHERE {
            ?d ex:source ?s .
        } GROUP BY ?s ORDER BY ?s
    """
    return sparql_lite.select_text(tri, q)


def q_sparql_construct(sf_dir: str):
    """SPARQL CONSTRUCT (SPARQL 1.1 §16.2): template instantiation over
    WHERE solutions → deduplicated triples frame."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    q = """
        PREFIX ex: <http://docs.example/>
        CONSTRUCT { ?d ex:tongue ?l } WHERE { ?d ex:lang ?l }
    """
    out = sparql_lite.construct_text(tri, q)
    return out.sort_values(["subj", "obj"]).reset_index(drop=True)


def q_sparql_construct_distributed(sf_dir: str):
    """Distributed CONSTRUCT: bindings and template instantiation stay
    Datasets end-to-end; set semantics via one bucketed dedup shuffle —
    same answer as q_sparql_construct with nothing on the driver."""
    from . import sparql_lite

    NS = _DOCS_NS
    tri = _docs_triples(sf_dir)
    out = sparql_lite.construct_distributed(
        tri, [("?d", NS + "tongue", "?l")], [("?d", NS + "lang", "?l")])
    return out.sort(["subj", "obj"])


def q_sparql_ask(sf_dir: str):
    """SPARQL ASK (SPARQL 1.1 §16.3) → one-row boolean frame (true here:
    every sf has English docs)."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    a = sparql_lite.ask_text(
        tri, 'PREFIX ex: <http://docs.example/> ASK { ?d ex:lang "en" }')
    b = sparql_lite.ask_text(
        tri, 'PREFIX ex: <http://docs.example/> ASK { ?d ex:lang "xx" }')
    return pd.DataFrame({"en_exists": [a], "xx_exists": [b]})


def q_sparql_describe(sf_dir: str):
    """SPARQL DESCRIBE (SPARQL 1.1 §16.4): subject-outgoing triples of the
    described resource (= CBD here — engine triples carry no bnodes)."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    out = sparql_lite.describe_text(
        tri, "DESCRIBE <http://docs.example/doc/1>")
    return out.sort_values(["pred", "obj"]).reset_index(drop=True)


def q_sparql_agg_distributed(sf_dir: str):
    """Distributed SPARQL GROUP BY aggregate (the §11 scale path):
    bindings stay a Dataset via select_distributed and the count is a
    per-batch partial combine + one bucketed shuffle — the same answer
    as q_sparql_agg with no driver-side binding table."""
    from . import sparql_lite

    NS = _DOCS_NS
    tri = _docs_triples(sf_dir)
    out = sparql_lite.aggregate_distributed(
        tri, [("?d", NS + "source", "?s")], ["?s"], agg="count", alias="n")
    return out.sort("s")


def q_transitive_closure(sf_dir: str):
    """Distributed transitive closure (the `pred+` property-path /
    reachability op) by path doubling: 8 chains of 25 docs (doc i →
    i+1) close in ceil(log2(25)) = 5 bucketed join rounds. Oracle is a
    DuckDB recursive CTE."""
    from .ops import transitive_closure

    ds = _read(sf_dir, "documents", ["doc_id"])

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"]
        keep = (d < 200) & (d % 25 != 24)
        return pd.DataFrame({"s": d[keep].astype("int64"),
                             "o": (d[keep] + 1).astype("int64")})

    # small fixed num_partitions: each doubling round spins up that many
    # join-aggregator actors, pure overhead at this pair count (closure
    # callers size it to their edge volume)
    return transitive_closure(ds.map_batches(edges, batch_format="pandas"),
                              num_partitions=4).sort(["s", "o"])


def q_mojibake_fix_docs(sf_dir: str):
    """Double-encoded-UTF-8 repair (textops.fix_mojibake, the ftfy core
    move): even docs get a mojibake suffix (caf + U+00C3 U+00A9 — the
    latin-1 misreading of UTF-8 e-acute) that the GENERIC
    encode-latin1/decode-utf8 repair must fix; odd docs get the already
    -clean suffix whose lone U+00E9 must survive untouched (the repair
    self-guards: a bare 0xE9 byte is invalid UTF-8). The twin replays
    the arithmetic outcome — identical post-lengths and tails only hold
    if the repair fired exactly on the even class."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        suffix = pd.Series(np.where(d % 2 == 0,
                                    " moji cafÃ© fin",
                                    " moji café fin"),
                           index=t.index)
        out = textops.fix_mojibake(t + suffix)
        fixed = out["fixed_text"]
        return pd.DataFrame({
            "doc_id": d.to_numpy(),
            "was_fixed": out["was_fixed"].to_numpy(),
            "post_len": fixed.str.len().astype("int64"),
            "tail": fixed.str[-10:]})

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_simhash_neardup_pairs(sf_dir: str):
    """SimHash near-duplicate pairs (linking.simhash_neardup_pairs —
    Charikar bits + Manku-style 4x16 band blocking, lossless for
    hamming<=3 by pigeonhole): planted near-dup pairs (doc_id%20 in
    {0,1} share a 30-token anchor differing in ONE token; the group id
    repeats 3x so cross-group hamming stays high) ride the same
    signature both engine- and twin-side — the twin derives simhash
    from the q_simhash_docs SQL by CTE surgery and verifies hamming
    with a nibble-popcount table over ALL band-colliding pairs."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def aug(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        g = (d // 20).astype(str)
        planted = ("anchor seq alpha beta gamma delta " * 5
                   + "tail" + (d % 20).astype(str)
                   + " grp" + g + " grp" + g + " grp" + g)
        return pd.DataFrame({"doc_id": d.to_numpy(),
                             "text": np.where((d % 20) < 2, planted, t)})

    out = linking.simhash_neardup_pairs(
        ds.map_batches(aug, batch_format="pandas"))
    return out.sort(["a", "b"])


def q_subtitle_stats_docs(sf_dir: str):
    """Subtitle/caption parsing roundtrip (subtitles.py): per doc a
    3-cue caption file is WRITTEN in a real format (SRT for even ids,
    WebVTT for odd — both parsers exercised) and parsed back; the
    integer-ms cue stats the twin reproduces arithmetically pin the
    timestamp grammar, cue framing and text carry of both formats.
    Stateless map, zero shuffles."""
    from . import subtitles as st

    ds = _read(sf_dir, "documents", ["doc_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for i in df["doc_id"].astype("int64"):
            i = int(i)
            dur = 1500 + i % 500
            cues = [{"idx": j + 1,
                     "start_ms": (i % 3600) * 1000 + j * 2000,
                     "end_ms": (i % 3600) * 1000 + j * 2000 + dur,
                     "text": f"cue {i}-{j}"} for j in range(3)]
            if i % 2 == 0:
                back = st.parse_srt(st.write_srt(cues))
            else:
                back = st.parse_vtt(st.write_vtt(cues))
            rows.append({
                "doc_id": i, "n_cues": len(back),
                "first_start_ms": back[0]["start_ms"],
                "last_end_ms": back[-1]["end_ms"],
                "total_dur_ms": sum(c["end_ms"] - c["start_ms"]
                                    for c in back),
                "text_chars": sum(len(c["text"]) for c in back)})
        return pd.DataFrame(rows).astype("int64")

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_exif_roundtrip_docs(sf_dir: str):
    """EXIF metadata roundtrip (exif.py): per doc a REAL JPEG gets a
    REAL APP1/TIFF-IFD EXIF block (camera fields + GPS rationals
    derived arithmetically from doc_id), which the engine's own parser
    extracts back — so the oracle pins the whole byte path (marker
    walk, IFD offsets, rational math, signed GPS collapse), not a
    lookup table. GPS is omitted for doc_id%4==0 (sentinel -10^9,
    keeping the column int64). One shared 8x8 baseline JPEG ships in
    the closure; per-row work is EXIF build+parse only."""
    from . import exif, jpegcodec

    base_jpeg = jpegcodec.encode_jpeg_baseline(
        np.arange(64, dtype=np.uint8).reshape(8, 8) * 3, quality=90)
    ds = _read(sf_dir, "documents", ["doc_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for i in df["doc_id"].astype("int64"):
            i = int(i)
            gps = {}
            if i % 4 != 0:
                gps = dict(
                    lat=((i % 90, 1), (i % 60, 1), ((i * 7) % 6000, 100)),
                    lat_ref="S" if i % 2 else "N",
                    lon=((i % 180, 1), ((i * 3) % 60, 1),
                         ((i * 11) % 6000, 100)),
                    lon_ref="W" if i % 3 == 0 else "E")
            app1 = exif.build_app1(
                make=f"Cam{i % 5}", model=f"M{i % 3}",
                orientation=1 + i % 8, iso=100 + (i % 32) * 25,
                exposure=(1, 50 + i % 200),
                fnumber=(28 + i % 50, 10), pixel_x=8, pixel_y=8, **gps)
            meta = exif.parse_exif(exif.insert_app1(base_jpeg, app1))
            rows.append({
                "doc_id": i, "make": meta["make"],
                "model": meta["model"],
                "orientation": meta["orientation"], "iso": meta["iso"],
                "exposure_den": meta["exposure_den"],
                "fnumber_tenths": meta["fnumber_tenths"],
                "lat_milli": (meta["lat_milli"]
                              if meta["lat_milli"] is not None
                              else -10**9),
                "lon_milli": (meta["lon_milli"]
                              if meta["lon_milli"] is not None
                              else -10**9)})
        out = pd.DataFrame(rows)
        for c in ["doc_id", "orientation", "iso", "exposure_den",
                  "fnumber_tenths", "lat_milli", "lon_milli"]:
            out[c] = out[c].astype("int64")
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_ip_range_lookup_events(sf_dir: str):
    """CIDR-style IP-range lookup (the GeoIP enrichment op): derive a
    deterministic uint32 ip per event, then point-in-interval lookup
    against a 16-range network table — the table is tiny and ships in
    the closure (ray.put-equivalent broadcast); each batch does ONE
    numpy searchsorted over the sorted range starts, never a shuffle.
    Half the address space is uncovered so NULL enrichment is
    exercised. Twin: LEFT JOIN ON ip BETWEEN lo AND hi."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])
    los = np.arange(16, dtype=np.int64) << 28
    his = los + (1 << 27) - 1
    labels = np.array([f"net-{i}" for i in range(16)], dtype=object)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        e = df["event_id"].astype("int64").to_numpy()
        u = df["user_id"].astype("int64").to_numpy()
        ip = (u * 2654435761 + e * 40503) % (1 << 32)
        idx = np.clip(np.searchsorted(los, ip, side="right") - 1, 0, 15)
        ok = ip <= his[idx]
        lab = np.where(ok, labels[idx], None)
        return pd.DataFrame({"event_id": e, "ip": ip.astype("int64"),
                             "label": lab})

    return ds.map_batches(f, batch_format="pandas").sort("event_id")


def q_scd2_events(sf_dir: str):
    """SCD Type-2 dimension history build (the warehouse
    slowly-changing-dimension op): per user, collapse consecutive
    equal event_type states and emit validity intervals
    (valid_from, valid_to, is_current) — valid_to = the next CHANGE's
    timestamp, NULL while current. ONE stable-bucket shuffle on
    user_id, then a fully vectorized shift-compare inside each bucket
    (no per-user Python loop); the twin is the LAG-change-filter +
    LEAD-interval window pattern."""
    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type"])

    def build(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        change = ((df["user_id"] != df["user_id"].shift())
                  | (df["event_type"] != df["event_type"].shift()))
        g = df[change].copy()
        same_next = g["user_id"].shift(-1) == g["user_id"]
        g["valid_to"] = g["ts"].shift(-1).where(same_next)
        return pd.DataFrame({
            "user_id": g["user_id"].astype("int64").to_numpy(),
            "event_id": g["event_id"].astype("int64").to_numpy(),
            "state": g["event_type"].to_numpy(),
            "valid_from": g["ts"].to_numpy(),
            "valid_to": g["valid_to"].to_numpy(),
            "is_current": (~same_next).to_numpy()})

    return (bucket_exchange(ds, ["user_id"], build, 32, "pandas")
            .sort(["user_id", "valid_from"]))


def q_web_curation_docs(sf_dir: str):
    """The composed web-curation gate — robots.txt politeness AND
    Gopher quality AND PII-clean (no Luhn-valid card) — evaluated in
    ONE stateless streaming pass per batch (all three stage functions
    are maps sharing the same injection contracts as their standalone
    twins), zero shuffles before the presentation sort. This is the
    shape a 100-TB crawl filter actually runs: gates fuse into a
    single map_batches, not a join of three passes. The twin composes
    the three standalone oracle SQLs as CTE subqueries."""
    from .robots import RobotsMatcher, match_paths_vec

    rules = RobotsMatcher(_ROBOTS_TXT, "gitprovbot/1.0").rules
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        lang = df["lang"].reset_index(drop=True)
        allowed, _ = match_paths_vec(_robots_paths(d), rules)
        gopher = textops.gopher_stats(_gopher_aug(d, t))["gopher_pass"] \
            .to_numpy()
        clean = textops.luhn_card_stats(_card_aug(d, t))["n_valid"] \
            .to_numpy() == 0
        keep = allowed & gopher & clean
        return pd.DataFrame({"doc_id": d[keep].to_numpy(),
                             "lang": lang[keep].to_numpy()})

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_ann_hamming_topk(sf_dir: str):
    """1-bit binary-code ANN (annsearch.hamming_topk): sign-quantized
    embeddings ranked by exact Hamming distance via a ±1 int matmul —
    the 64×-compressed retrieval baseline alongside SQ8/PQ. Integer
    distances make the twin exact (zipped unnest + sign compare)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return annsearch.hamming_topk(ds, query_ids=[0, 1, 2, 3, 4], k=5) \
        .sort(["query_id", "rank"])


def q_zorder_events(sf_dir: str):
    """Z-order layout clustering stats (ops.zorder_layout_stats — the
    OPTIMIZE ZORDER primitive): Morton-interleave (user_id, ts-minute)
    into 8 z-range files and emit each file's zone map (count + min/max
    of both dims) — the metadata a 100-TB reader uses to skip files on
    EITHER predicate. The twin interleaves the same 16 bits via an
    unnest/SUM bit pass."""
    from . import ops

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].astype("datetime64[us]").astype("int64")
        return pd.DataFrame({
            "x": df["user_id"].astype("int64").to_numpy(),
            "y": (us // 60_000_000).to_numpy()})

    return ops.zorder_layout_stats(
        ds.map_batches(prep, batch_format="pandas"), "x", "y",
        num_files=8)


def q_kmv_distinct_events(sf_dir: str):
    """KMV distinct-count sketch over event props (ops.kmv_distinct,
    k=64): the k-smallest-md5-prefix sketch in exact 48-bit integer
    arithmetic — at sf0.001 props has ~100 distinct values so the
    query exercises the true ESTIMATION regime, and the twin
    reproduces k-th hash and estimate bit-for-bit (ROW_NUMBER over
    the distinct hash order)."""
    from . import ops

    ds = _read(sf_dir, "events", ["props"])
    return ops.kmv_distinct(ds, "props", k=64)


def q_unicode_nfc_docs(sf_dir: str):
    """Unicode NFC normalization (the first byte-level cleanup of any
    multilingual web corpus — mojibake-adjacent combining sequences
    collapse to precomposed forms): docs get a deterministic suffix
    with combining marks (e+U+0301, A+U+030A) on even ids and the
    already-precomposed forms on odd ids; the engine normalizes with
    unicodedata.normalize('NFC') (CPython's UCD tables), the twin with
    DuckDB nfc_normalize (its utf8proc tables) — agreement pins both
    against the same published UAX #15 algorithm. Output = codepoint
    lengths before/after + changed flag + the normalized tail."""
    import unicodedata

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        suffix = pd.Series(np.where(d % 2 == 0,
                                    " cafe\u0301 A\u030A \uFB01",
                                    " caf\u00E9 \u00C5 \uFB01"),
                           index=t.index)
        aug = t + suffix
        norm = aug.map(lambda s: unicodedata.normalize("NFC", s))
        return pd.DataFrame({
            "doc_id": d.to_numpy(),
            "pre_len": aug.str.len().astype("int64"),
            "post_len": norm.str.len().astype("int64"),
            "changed": (aug != norm).to_numpy(),
            "tail": norm.str[-8:]})

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_card_luhn_docs(sf_dir: str):
    """Credit-card PII detection with REAL Luhn mod-10 validation
    (textops.luhn_card_stats) — the checksum is dual-implemented: a
    vectorized digit-matrix pass in the engine vs an unnest/group SUM
    in the DuckDB twin, so the arithmetic itself is pinned, not just
    the regex. Per doc a deterministic 16-digit candidate is injected
    whose check digit is doc_id%10 (so ~10% validate), plus a 7-digit
    decoy that must NOT match the 13-19 PAN-length rule, plus a NANP
    phone for doc_id%3!=0. Stateless map_batches, zero shuffles."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        out = textops.luhn_card_stats(_card_aug(d, t))
        out.insert(0, "doc_id", d.to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_webdataset_roundtrip(sf_dir: str):
    """WebDataset tar-shard roundtrip (sources.write_webdataset /
    read_webdataset — the standard sharded multimodal training layout):
    documents become samples ({key}.txt + {key}.json + {key}.cls),
    hash-sharded into tars in a fresh per-call scratch dir
    (``_scratch_dir``), read BACK shard-parallel, and aggregated per lang
    from the .cls/.txt members — so the counts prove the tar framing,
    sample grouping and member decode, not just the write. The twin
    aggregates documents directly. The result is materialized before the
    scratch dir is removed."""
    import json

    from . import sources

    ds = _read(sf_dir, "documents",
               ["doc_id", "text", "lang", "source", "n_chars"])

    def to_sample(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "__key__": df["doc_id"].astype("int64").map("{:010d}".format),
            "txt": df["text"].fillna(""),
            "json": [json.dumps({"lang": l, "source": s},
                                sort_keys=True)
                     for l, s in zip(df["lang"], df["source"])],
            "cls": df["n_chars"].astype("int64")})

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        lang = df["json"].map(lambda j: json.loads(j)["lang"])
        g = pd.DataFrame({
            "lang": lang,
            "n_docs": np.int64(1),
            "sum_chars": df["cls"].astype("int64"),
            "sum_text_len": df["txt"].str.len().astype("int64")})
        return g.groupby("lang", as_index=False).sum()

    with _scratch_dir("wds") as wds_dir:
        sources.write_webdataset(ds.map_batches(to_sample,
                                                batch_format="pandas"),
                                 wds_dir, num_shards=8, skip_existing=False)
        out = (sources.read_webdataset(wds_dir)
               .map_batches(agg, batch_format="pandas")
               .groupby("lang")
               .aggregate(Sum("n_docs", alias_name="n_docs"),
                          Sum("sum_chars", alias_name="sum_chars"),
                          Sum("sum_text_len", alias_name="sum_text_len")))
        return out.map_batches(
            lambda df: df.astype({"n_docs": "int64", "sum_chars": "int64",
                                  "sum_text_len": "int64"}),
            batch_format="pandas").sort("lang").materialize()


def q_upsert_events(sf_dir: str):
    """Lakehouse MERGE / CDC upsert (ops.merge_upsert): the base
    snapshot is every event strictly before the fixed cutoff
    2024-01-08, the changelog everything at-or-after; per
    (user_id, event_type) key the greatest (ts, event_id) record wins,
    and a winning changelog row with value < 10 is a tombstone that
    deletes its key. Per-batch partial winners + ONE stable-bucket
    exchange, no broadcast, no window — the 100-TB MERGE shape. The
    DuckDB twin ranks with ROW_NUMBER over (ts, event_id) DESC and
    drops tombstoned keys."""
    from . import ops

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])
    cut = pd.Timestamp("2024-01-08")

    def split(is_base: bool):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            m = (df["ts"] < cut) if is_base else (df["ts"] >= cut)
            p = df[m]
            out = pd.DataFrame({
                "user_id": p["user_id"].astype("int64").to_numpy(),
                "event_type": p["event_type"].to_numpy(),
                "ts": p["ts"].to_numpy(),
                "event_id": p["event_id"].astype("int64").to_numpy(),
                "val_cents": _cents(p["value"]).to_numpy()})
            if not is_base:
                out["del"] = (p["value"] < 10.0).to_numpy()
            return out
        return f

    base = ds.map_batches(split(True), batch_format="pandas")
    chg = ds.map_batches(split(False), batch_format="pandas")
    out = ops.merge_upsert(base, chg, keys=["user_id", "event_type"],
                           order=["ts", "event_id"], delete_col="del")
    return out.map_batches(
        lambda df: df[["user_id", "event_type", "ts", "event_id",
                       "val_cents"]],
        batch_format="pandas").sort(["user_id", "event_type"])


def q_asof_join_events(sf_dir: str):
    """Distributed AS-OF join (ops.asof_join — the time-series enrichment
    op Ray Data lacks): each click event gets the cents value of the
    user's most recent purchase at-or-before its timestamp; one bucketed
    shuffle, merge_asof inside co-partitioned groups. DuckDB ASOF LEFT
    JOIN twin."""
    from . import ops

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])
    left = ds.map_batches(
        lambda df: df.loc[df["event_type"] == "click",
                          ["event_id", "ts", "user_id"]],
        batch_format="pandas")

    def purchases(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df["event_type"] == "purchase"]
        c = np.asarray(p["value"], dtype=np.float64) * 100
        return pd.DataFrame({"user_id": p["user_id"].to_numpy(),
                             "ts": p["ts"].to_numpy(),
                             "last_purchase_cents":
                                 np.sign(c) * np.floor(np.abs(c) + 0.5)})

    right = ds.map_batches(purchases, batch_format="pandas")
    out = ops.asof_join(left, right, "user_id", "ts",
                        ["event_id"], ["last_purchase_cents"])
    return out.map_batches(
        lambda df: pd.DataFrame(
            {"event_id": df["event_id"].astype("int64"),
             "user_id": df["user_id"].astype("int64"),
             "last_purchase_cents":
                 df["last_purchase_cents"].astype("float64")}),
        batch_format="pandas").sort("event_id")


def q_band_join_events(sf_dir: str):
    """Distributed BAND (range) join (ops.band_join_count): for each click
    event, how many view events — across ALL users — follow within 10
    minutes. Non-equi time-window join via halo time-bucketing + two
    searchsorted calls per group; oracle is a DuckDB inequality join."""
    from . import ops

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])
    left = ds.map_batches(
        lambda df: df.loc[df["event_type"] == "click", ["event_id", "ts"]],
        batch_format="pandas")
    right = ds.map_batches(
        lambda df: df.loc[df["event_type"] == "view", ["event_id", "ts"]],
        batch_format="pandas")
    out = ops.band_join_count(left, right, "ts", 600_000_000, "event_id")
    return out.map_batches(
        lambda df: df.astype({"event_id": "int64", "n_follow": "int64"}),
        batch_format="pandas").sort("event_id")


def q_cube_revenue(sf_dir: str):
    """CUBE grouping sets (A-family extension): revenue by
    (status × priority) plus all three subtotal planes, from ONE
    distributed partial-combine scan — the subtotal planes re-aggregate
    the tiny base aggregate on the driver, so no second shuffle.
    'ALL' marks the rolled-up level (COALESCE twin dodges NULL-vs-NaN
    hash ambiguity)."""
    ds = _read(sf_dir, "orders",
               ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"o_orderstatus": df["o_orderstatus"],
                          "o_orderpriority": df["o_orderpriority"],
                          "cents": _cents(df["o_totalprice"]), "n": 1})
        return (g.groupby(["o_orderstatus", "o_orderpriority"], sort=False)
                .agg(sum_price_cents=("cents", "sum"), n_orders=("n", "sum"))
                .reset_index())

    base = (ds.map_batches(partial, batch_format="pandas").to_pandas()
            .groupby(["o_orderstatus", "o_orderpriority"], as_index=False)
            .sum())
    vals = ["sum_price_cents", "n_orders"]
    by_s = (base.groupby("o_orderstatus", as_index=False)[vals].sum()
            .assign(o_orderpriority="ALL"))
    by_p = (base.groupby("o_orderpriority", as_index=False)[vals].sum()
            .assign(o_orderstatus="ALL"))
    tot = pd.DataFrame({"o_orderstatus": ["ALL"], "o_orderpriority": ["ALL"],
                        "sum_price_cents": [base["sum_price_cents"].sum()],
                        "n_orders": [base["n_orders"].sum()]})
    out = pd.concat([base, by_s, by_p, tot], ignore_index=True)[
        ["o_orderstatus", "o_orderpriority"] + vals]
    out[vals] = out[vals].astype("int64")
    return (out.sort_values(["o_orderstatus", "o_orderpriority"])
            .reset_index(drop=True))


def q_quantile_hist_events(sf_dir: str):
    """Sort-free distributed quantiles (ops.histogram_quantiles): a
    two-pass mergeable equal-width histogram — the 100-TB alternative to
    the exact sort-based q_quantiles_events. The sketch arithmetic is
    plain float64 on both engines, so even the approximation is
    oracle-exact."""
    from . import ops

    ds = _read(sf_dir, "events", ["value"])
    return ops.histogram_quantiles(ds, "value",
                                   ps=(0.1, 0.5, 0.9, 0.99), bins=4096)


def q_cumsum_events(sf_dir: str):
    """Per-key running total (window-function family): cumulative value
    cents per user ordered by (ts, event_id) — same bucketed per-key
    shuffle as the lag/moving-sum stages, vectorized groupby cumsum
    inside. SQL twin: SUM() OVER (PARTITION BY … ROWS UNBOUNDED
    PRECEDING)."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def cum(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cents = _cents(df["value"])
        cs = cents.groupby(df["user_id"], sort=False).cumsum()
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                             "user_id": df["user_id"].to_numpy(),
                             "cum_cents": cs.astype("int64").to_numpy()})

    return (bucket_exchange(ds, ["user_id"], cum, 32, "pandas")
            .sort("event_id"))


def q_tfidf_top_terms(sf_dir: str):
    """Corpus TF-IDF, top-3 terms per source (the feature-weighting op
    of text curation): ONE token-bucketed shuffle computes both the
    (source, tok) term frequencies AND each token's document frequency
    (the bucket key is the token, so a token's whole posting list
    colocates); scores are integer millis so the SQL twin hash-matches;
    a second (tiny, pre-combined) shuffle ranks per source."""
    from . import ops

    ds = _read(sf_dir, "documents", ["source", "text"])
    ns = float(ops.distinct_keys(ds, "source").count())

    def partial_tf(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        reps = toks.str.len().to_numpy()
        flat = pd.DataFrame({
            "source": np.repeat(df["source"].to_numpy(), reps),
            "tok": np.concatenate(
                [np.array(t, dtype=object) for t in toks] or
                [np.array([], dtype=object)])})
        return (flat.groupby(["source", "tok"], sort=False).size()
                .rename("tf").reset_index())

    def tok_group(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["source", "tok"], sort=False, as_index=False)["tf"]
             .sum())
        dfreq = g.groupby("tok", sort=False)["tok"].transform("size")
        score = np.floor(g["tf"].to_numpy()
                         * np.log(ns / dfreq.to_numpy()) * 1000
                         + 0.5).astype("int64")
        g["tf"] = g["tf"].astype("int64")
        g["score_millis"] = score
        # pre-combine: only each source's LOCAL top-3 rides the second
        # shuffle (top-3 of a union ⊆ union of per-group top-3s)
        g = g.sort_values(["source", "score_millis", "tok"],
                          ascending=[True, False, True], kind="mergesort")
        return g[g.groupby("source", sort=False).cumcount() < 3]

    def top3(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "score_millis", "tok"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df = df.assign(
            rank=(df.groupby("source", sort=False).cumcount() + 1)
            .astype("int64"))
        return df.loc[df["rank"] <= 3,
                      ["source", "rank", "tok", "tf", "score_millis"]]

    tf_scored = bucket_exchange(
        ds.map_batches(partial_tf, batch_format="pandas"), ["tok"],
        tok_group, 64, "pandas")
    return (bucket_exchange(tf_scored, ["source"], top3, 32, "pandas")
            .sort(["source", "rank"]))


def q_rank_events(sf_dir: str):
    """Ranking window functions — RANK / DENSE_RANK / NTILE(4) per user
    over event values (the remaining O-family window shapes next to
    cumsum / moving-sum / topk-per-group). ONE bucketed per-key shuffle;
    ranks computed vectorized in-group. NTILE's row order is pinned to
    (value DESC, event_id) in both engines; RANK/DENSE_RANK tie on equal
    float values exactly like SQL (same parquet doubles, same compares)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def rank_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value", "event_id"],
                            ascending=[True, False, True], kind="mergesort")
        g = df.groupby("user_id", sort=False)
        rnk = g["value"].rank(method="min", ascending=False)
        drnk = g["value"].rank(method="dense", ascending=False)
        pos = g.cumcount().to_numpy()
        n = g["value"].transform("size").to_numpy()
        # DuckDB NTILE(4): q=n//4 r=n%4; first r buckets hold q+1 rows
        q, r = n // 4, n % 4
        big = r * (q + 1)
        in_big = pos < big
        tile = np.where(
            in_big,
            pos // np.maximum(q + 1, 1) + 1,
            r + np.where(q > 0, (pos - big) // np.maximum(q, 1), 0) + 1)
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                             "user_id": df["user_id"].to_numpy(),
                             "rnk": rnk.astype("int64").to_numpy(),
                             "drnk": drnk.astype("int64").to_numpy(),
                             "tile": tile.astype("int64")})

    return (bucket_exchange(ds, ["user_id"], rank_group, 32, "pandas")
            .sort("event_id"))



def q_pivot_events(sf_dir: str):
    """Pivot (long→wide conditional aggregation): value cents per
    event_type × month-of-2024 matrix. Distributed partial combine on
    (type, month) — only one pre-summed row per (type, month) per batch
    moves — then the tiny wide reshape. SQL twin: SUM(CASE WHEN …)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"event_type": df["event_type"],
                            "m": df["ts"].dt.month.astype("int64"),
                            "cents": _cents(df["value"])})
        return (out.groupby(["event_type", "m"], sort=False, as_index=False)
                ["cents"].sum())

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby(["event_type", "m"])
           .aggregate(Sum("cents", alias_name="cents"))
           .to_pandas())
    wide = (agg.pivot_table(index="event_type", columns="m",
                            values="cents", aggfunc="sum", fill_value=0)
            .reindex(columns=range(1, 13), fill_value=0))
    wide.columns = [f"m{m:02d}" for m in wide.columns]
    return (wide.astype("int64").reset_index()
            .sort_values("event_type").reset_index(drop=True))


def q_set_ops_docs(sf_dir: str):
    """Distributed INTERSECT / EXCEPT (§2.7 set-op family, completing
    union): doc ids with lang='en' vs doc ids with n_chars > 300, via the
    bucketed semi/anti hash join (ops.semi_join) — no driver-side sets."""
    from . import ops

    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    # Arrow-kernel filters, not per-row lambdas (scale anti-pattern)
    a = docs.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], "en")).select(["doc_id"]),
        batch_format="pyarrow")
    b = docs.map_batches(
        lambda t: t.filter(pc.greater(t["n_chars"], 300))
        .select(["doc_id"]), batch_format="pyarrow")
    inter = ops.semi_join(a, b, "doc_id", "doc_id").map_batches(
        lambda df: df.assign(op="intersect"), batch_format="pandas")
    exc = ops.semi_join(a, b, "doc_id", "doc_id", anti=True).map_batches(
        lambda df: df.assign(op="except"), batch_format="pandas")
    return (inter.union(exc)
            .map_batches(lambda df: df[["op", "doc_id"]],
                         batch_format="pandas")
            .sort(["op", "doc_id"]))


def q_weighted_sample_docs(sf_dir: str):
    """Weighted reservoir sampling, Efraimidis–Spirakis for INTEGER
    weights with NO floating point: a doc of weight w gets key
    max(md5(id:0)…md5(id:w-1)) — the max of w iid uniforms, so
    P(selected) is exactly proportional as in A-ES — and the top-10 keys
    win. Deterministic, hash-exact in SQL. Weight = 1 + n_chars//100
    capped at 8; per-batch local top-10 pre-combine, global top-10 via
    sort+limit over ≤10·blocks candidate rows."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        w = np.minimum(df["n_chars"].to_numpy() // 100 + 1, 8)
        ids = df["doc_id"].astype(str)
        key = pd.Series([""] * len(df), index=df.index, dtype=object)
        for i in range(8):
            mask = w > i
            if not mask.any():
                break
            hi = textops.md5_series(ids[mask] + f":{i}")
            cur = key[mask]
            key[mask] = np.where(hi.to_numpy() > cur.to_numpy(),
                                 hi.to_numpy(), cur.to_numpy())
        out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                            "skey": key.to_numpy(dtype=object)})
        return out.sort_values(["skey", "doc_id"],
                               ascending=[False, True]).head(10)

    return (ds.map_batches(keyed, batch_format="pandas")
            .sort(["skey", "doc_id"], descending=[True, False])
            .limit(10))


def q_winnow_dup_pairs(sf_dir: str):
    """Duplicated-span candidate pairs via winnowing fingerprints
    (Schleimer et al. 2003 / the ExactSubstr-dedup building block of
    Lee et al. 2022): char-16-gram polynomial rolling hashes, window-8
    minima, pairs sharing >= 8 distinct fingerprints. ONE fp-bucketed
    shuffle + one tiny pre-combined pair-count shuffle
    (linking.winnow_duplicate_pairs); finds exactly the planted
    duplicate pairs on the synthetic corpus."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (linking.winnow_duplicate_pairs(ds, k=16, w=8, min_shared=8)
            .sort(["a", "b"]))


def q_edit_distance_pairs(sf_dir: str):
    """Edit-distance verification of near-dup candidates (the
    string-similarity verify stage next to n-gram Jaccard): candidate
    pairs from the exact-Jaccard filter, endpoint texts hash-joined in,
    unit-cost Levenshtein per pair (linking.levenshtein, pinned against
    DuckDB's levenshtein() by a 400-case property test)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = (linking.ngram_jaccard_pairs(ds, threshold=0.5)
             .select_columns(["a", "b"]))
    return linking.edit_distance_pairs(ds, pairs).sort(["a", "b"])


def q_triangle_count(sf_dir: str):
    """Distributed triangle counting (graph-centrality family, next to
    BFS/PageRank/closure): the co-occurrence graph joins users active in
    the same (event_type, hour); ops.triangle_count orients edges u<v,
    emits per-source wedges, and closes them with a bucketed semi-join
    against the edge set."""
    from . import ops

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].astype("int64"),
            "k": df["event_type"].astype(str) + ":"
                 + df["ts"].dt.floor("h").astype(str)}).drop_duplicates()

    def cooccur_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, g in df.groupby("k", sort=False):
            us = np.unique(g["user_id"].to_numpy())
            if len(us) < 2:
                continue
            ia, ib = np.triu_indices(len(us), 1)
            out_a.append(us[ia])
            out_b.append(us[ib])
        if not out_a:
            return pd.DataFrame({"s": np.empty(0, np.int64),
                                 "o": np.empty(0, np.int64)})
        return pd.DataFrame({"s": np.concatenate(out_a),
                             "o": np.concatenate(out_b)})

    edges = bucket_exchange(ds.map_batches(keyed, batch_format="pandas"),
                            ["k"], cooccur_pairs, 64, "pandas")
    n = ops.triangle_count(edges)
    return pd.DataFrame({"n_triangles": pd.Series([n], dtype="int64")})


def q_collect_events(sf_dir: str):
    """Ordered list collection per key (the A2 version-list collect as a
    generic query): each user's event ids joined in (ts, event_id) order.
    One bucketed per-key shuffle, vectorized in-group string_agg; the
    comma-joined string keeps the driver value-hash list-free."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def collect(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = (df.assign(e=df["event_id"].astype(str))
             .groupby("user_id", sort=False)["e"]
             .agg(",".join))
        n = df.groupby("user_id", sort=False)["event_id"].size()
        return pd.DataFrame({"user_id": g.index.to_numpy(),
                             "events": g.to_numpy(dtype=object),
                             "n_events": n.to_numpy().astype("int64")})

    return (bucket_exchange(ds, ["user_id"], collect, 32, "pandas")
            .sort("user_id"))


_BM25_TERMS = ("data", "query", "sort")
_BM25_K1, _BM25_B = 1.2, 0.75


def q_bm25_docs(sf_dir: str):
    """BM25 relevance ranking (the search-engine scoring op next to
    TF-IDF): top-5 docs per query term. Corpus stats (N, avgdl, df) come
    from ONE partial-combined pass; scoring is a second streaming pass
    with the tiny stats broadcast in the closure; integer-millis scores.
    The float expression tree is written identically in the SQL twin so
    IEEE doubles agree bit-for-bit."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tok(df: pd.DataFrame):
        return df["text"].fillna("").str.lower().str.findall(r"[a-z]+")

    def partial_stats(df: pd.DataFrame) -> pd.DataFrame:
        toks = tok(df)
        dl = toks.str.len().astype("int64")
        out = {"n": [np.int64(len(df))], "sumdl": [dl.sum()]}
        for t in _BM25_TERMS:
            out[f"df_{t}"] = [np.int64(sum(t in s for s in toks))]
        return pd.DataFrame(out)

    st = (ds.map_batches(partial_stats, batch_format="pandas").to_pandas()
          .sum())
    n_docs, avgdl = float(st["n"]), float(st["sumdl"]) / float(st["n"])
    dfreq = {t: float(st[f"df_{t}"]) for t in _BM25_TERMS}

    def score(df: pd.DataFrame) -> pd.DataFrame:
        toks = tok(df)
        dl = toks.str.len().to_numpy(dtype=np.float64)
        rows = []
        for t in _BM25_TERMS:
            tf = toks.map(lambda s, t=t: s.count(t)).to_numpy(np.float64)
            idf = np.log((n_docs - dfreq[t] + 0.5) / (dfreq[t] + 0.5) + 1.0)
            s = idf * (tf * (_BM25_K1 + 1.0)) / (
                tf + _BM25_K1 * (1.0 - _BM25_B + _BM25_B * dl / avgdl))
            keep = tf > 0
            rows.append(pd.DataFrame({
                "term": t,
                "doc_id": df["doc_id"].to_numpy()[keep],
                "score_millis": np.floor(s[keep] * 1000 + 0.5)
                .astype("int64")}))
        out = pd.concat(rows, ignore_index=True) if rows else pd.DataFrame(
            {"term": [], "doc_id": [], "score_millis": []})
        # local pre-top-5 per term, then the tiny global head per term
        out = out.sort_values(["term", "score_millis", "doc_id"],
                              ascending=[True, False, True],
                              kind="mergesort")
        return out[out.groupby("term", sort=False).cumcount() < 5]

    def head5(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["term", "score_millis", "doc_id"],
                            ascending=[True, False, True], kind="mergesort")
        df = df[df.groupby("term", sort=False).cumcount() < 5].copy()
        df["rank"] = (df.groupby("term", sort=False).cumcount() + 1) \
            .astype("int64")
        return df[["term", "rank", "doc_id", "score_millis"]]

    return (bucket_exchange(ds.map_batches(score, batch_format="pandas"),
                            ["term"], head5, 8, "pandas")
            .sort(["term", "rank"]))


def q_cust_order_dist(sf_dir: str):
    """Customer-order-count distribution (TPC-H Q13 shape): LEFT OUTER
    join so zero-order customers count — the join type the other
    TPC-H-ish queries don't cover. Orders pre-aggregate to one row per
    custkey (partial per-batch combine first), the left join is a
    distributed hash join, and the final histogram is a tiny groupby.
    Invariant 7: the aggregate side is schema-normalized before the
    join."""
    from . import ops

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", sort=False).size()
        return pd.DataFrame({"c_custkey": g.index.to_numpy(),
                             "n": g.to_numpy().astype("int64")})

    counts = sum_by_key(orders.map_batches(partial, batch_format="pandas"),
                        ["c_custkey"], ["n"], 32)

    counts = ops.materialize_normalized(counts, pa.schema(
        [("c_custkey", pa.int64()), ("n", pa.int64())]))
    joined = cust.join(counts, "left_outer",
                       ops._default_partitions(), on=("c_custkey",))

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        c = df["n"].fillna(0).astype("int64")
        g = c.value_counts()
        return pd.DataFrame({"c_count": g.index.to_numpy(dtype="int64"),
                             "custdist": g.to_numpy().astype("int64")})

    return (joined.map_batches(hist, batch_format="pandas")
            .groupby("c_count").aggregate(Sum("custdist",
                                              alias_name="custdist"))
            .map_batches(lambda df: df.astype({"custdist": "int64"}),
                         batch_format="pandas")
            .sort(["custdist", "c_count"], descending=[True, True]))


def q_heavy_hitter_tokens(sf_dir: str):
    """EXACT corpus-wide top-20 tokens via the Misra–Gries two-pass
    heavy-hitter pattern (ops.exact_topk): sketch summaries + certified
    exact recount — no token-level shuffle at any scale. Tokenization
    pinned to the SQL twin: lowercase, maximal [a-z]+ runs."""
    from . import ops

    ds = _read(sf_dir, "documents", ["text"])

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        return pd.DataFrame({"tok": np.concatenate(
            [np.array(x, dtype=object) for x in t] or
            [np.array([], dtype=object)])})

    out = ops.exact_topk(ds.map_batches(toks, batch_format="pandas"),
                         "tok", k=20, capacity=256)
    out["n"] = out["n"].astype("int64")
    return out


def q_bfs_distances(sf_dir: str):
    """Distributed single-source BFS (ops.bfs_distances): minimum hop
    counts from doc 0 over a DAG on doc_id<64 — binary-tree edges
    (s→2s+1, s→2s+2) plus skip edges (s→s+10), so the min-dist field
    differs from plain tree depth. Oracle: DuckDB recursive CTE with
    MIN(dist)."""
    from . import ops

    ds = _read(sf_dir, "documents", ["doc_id"])

    def edges(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64")
        t1 = d[(2 * d + 1) < 64]
        t2 = d[(2 * d + 2) < 64]
        t3 = d[(d + 10) < 64]
        return pd.concat(
            [pd.DataFrame({"s": t1, "o": 2 * t1 + 1}),
             pd.DataFrame({"s": t2, "o": 2 * t2 + 2}),
             pd.DataFrame({"s": t3, "o": t3 + 10})],
            ignore_index=True).astype("int64")

    # small fixed num_partitions: per-round join actors are pure overhead
    # at this node count (callers size to their edge volume)
    return ops.bfs_distances(ds.map_batches(edges, batch_format="pandas"),
                             source=0, num_partitions=4).sort("node")


def q_sparql_having(sf_dir: str):
    """SPARQL GROUP BY + HAVING over an aggregate expression (SPARQL 1.1
    §11.5): sources with more than one document."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?s (COUNT(?d) AS ?n) WHERE { ?d ex:source ?s }
        GROUP BY ?s HAVING (COUNT(?d) > 1) ORDER BY ?s
    """
    return sparql_lite.select_text(tri, q)


def q_sparql_not_exists(sf_dir: str):
    """SPARQL FILTER NOT EXISTS (SPARQL 1.1 §8.1): docs with no lang
    triple (the en-only fixture makes `lang` partial)."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir, en_lang_only=True)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?d ?s WHERE {
            ?d ex:source ?s .
            FILTER NOT EXISTS { ?d ex:lang ?l }
        } ORDER BY ?d
    """
    return sparql_lite.select_text(tri, q)


def q_sparql_expr(sf_dir: str):
    """SPARQL §17 expression surface end-to-end: boolean connectives
    (&&, !), IN lists, string tests (STRSTARTS) and BIND IF over the
    docs-triples fixture — the FILTER/BIND grammar the reference gets
    from Jena's expression engine (SparqlService.java:22-31)."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?d ?s ?band WHERE {
            ?d ex:lang ?l .
            ?d ex:source ?s .
            FILTER (?l IN ("en", "de") && !(?s = "src3"))
            BIND (IF(STRSTARTS(?s, "src1"), "one", "other") AS ?band)
        } ORDER BY ?d ?s
    """
    return sparql_lite.select_text(tri, q)


def q_sparql_text_distributed(sf_dir: str):
    """The SPARQL STRING front-end on the Dataset scale path
    (sparql_lite.select_text_distributed): parse → bucketed BGP join →
    per-batch FILTER evaluation → two-phase distributed COUNT — the
    query text surface with nothing materialized on the driver."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?s (COUNT(?d) AS ?n) WHERE {
            ?d ex:lang ?l .
            ?d ex:source ?s .
            FILTER (?l IN ("en", "de"))
        } GROUP BY ?s ORDER BY ?s
    """
    return sparql_lite.select_text_distributed(tri, q)


def q_sparql_agg_full_distributed(sf_dir: str):
    """The generalized distributed aggregate surface
    (sparql_lite._aggregate_binding_ds_full) in one query: multiple
    aggregates (COUNT(*), COUNT DISTINCT, MIN, GROUP_CONCAT DISTINCT),
    HAVING evaluated in the merge, and DESC ORDER BY — all on the
    Dataset scale path (value-shipping shape: the DISTINCT/concat
    aggregates co-locate each group whole through ONE bucketed
    shuffle). GROUP_CONCAT order is pinned codepoint-sorted on this
    path, matching the oracle's string_agg(... ORDER BY)."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?s (COUNT(*) AS ?n) (COUNT(DISTINCT ?l) AS ?nl)
               (MIN(?l) AS ?lo)
               (GROUP_CONCAT(DISTINCT ?l; SEPARATOR=",") AS ?langs)
        WHERE { ?d ex:source ?s . ?d ex:lang ?l }
        GROUP BY ?s HAVING (COUNT(*) > 1) ORDER BY DESC(?s)
    """
    return sparql_lite.select_text_distributed(tri, q)


def q_sparql_graph(sf_dir: str):
    """SPARQL GRAPH clause (SPARQL 1.1 §13.3) over a quad-shaped corpus
    (docs triples named by their source graph): GRAPH ?g binds the graph
    name per solution, counted per graph."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir, graph_by_source=True)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?g (COUNT(?d) AS ?n) WHERE {
            GRAPH ?g { ?d ex:lang "en" }
        } GROUP BY ?g ORDER BY ?g
    """
    return sparql_lite.select_text(tri, q)


def q_lm_quality_docs(sf_dir: str):
    """CCNet-style LM quality scoring (rows-only: an iterative model fit
    is not SQL-expressible): char-trigram LM fitted on the en-language
    slice, broadcast once, corpus scored in one streaming actor-pool
    pass. Deterministic (fixed sample, integer millibits)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ref = ds.map_batches(lambda df: df[df.lang == "en"][["doc_id", "text"]],
                         batch_format="pandas").sort("doc_id")
    return (textops.lm_quality_scores(ds, ref)
            .sort("doc_id"))


def q_stratified_sample_docs(sf_dir: str):
    """Stratified (per-stratum) deterministic sampling — the balanced-
    subset op of a training-data pipeline: 3 docs per source, chosen by
    md5-of-id rank so the pick is uniform-ish, reproducible, and
    oracle-checkable. Per-batch pre-top-k combiner (≤k rows per stratum
    leave each batch) then the per-stratum head inside a distributed
    groupby — the q_topk_per_group pattern with a hash ranking."""
    import hashlib

    k = 3
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hkey"] = [hashlib.md5(str(i).encode()).hexdigest()
                      for i in df["doc_id"]]
        return (df.sort_values(["hkey", "doc_id"], kind="mergesort")
                .groupby("source", sort=False).head(k))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = (df.sort_values(["hkey", "doc_id"], kind="mergesort")
              .groupby("source", sort=False).head(k))
        return df[["source", "doc_id"]]

    return (bucket_exchange(ds.map_batches(rank, batch_format="pandas"),
                            ["source"], final, 16, "pandas")
            .sort(["source", "doc_id"]))


def q_decontaminate_docs(sf_dir: str):
    """Benchmark decontamination (the GPT-3/PaLM n-gram protocol): flag
    corpus docs sharing ≥1 distinct 8-gram with the eval set (docs with
    doc_id % 29 == 0). Runs the SCALE path — exploded (doc, gram) pairs
    through one bucketed semi-join + in-bucket counts
    (linking.decontaminate_bucketed); the broadcast fast path is
    parity-pinned in tests."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = ds.map_batches(lambda df: df[df.doc_id % 29 == 0],
                           batch_format="pandas")
    corpus = ds.map_batches(lambda df: df[df.doc_id % 29 != 0],
                            batch_format="pandas")
    from .ops import materialize_normalized

    out = materialize_normalized(          # empty buckets → column-less
        linking.decontaminate_bucketed(corpus, bench),
        pa.schema([("doc_id", pa.int64()), ("n_overlap", pa.int64())]))
    return out.sort("doc_id")


def q_sparql_graph_distributed(sf_dir: str):
    """GRAPH ?g on the Dataset scale path (select_graph_distributed via
    select_text_distributed): the graph column rides the bucketed
    binding joins, the per-graph COUNT runs in the two-phase distributed
    aggregate — nothing on the driver."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir, graph_by_source=True)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?g (COUNT(?d) AS ?n) WHERE {
            GRAPH ?g { ?d ex:lang "en" }
        } GROUP BY ?g ORDER BY ?g
    """
    return sparql_lite.select_text_distributed(tri, q)


def q_sparql_not_exists_distributed(sf_dir: str):
    """FILTER NOT EXISTS on the Dataset scale path: the inner BGP
    anti-joins the bindings through ops.semi_join's bucketed exchange
    (sparql_lite._exists_minus_ds)."""
    from . import sparql_lite

    tri = _docs_triples(sf_dir, en_lang_only=True)
    q = """
        PREFIX ex: <http://docs.example/>
        SELECT ?d ?s WHERE {
            ?d ex:source ?s .
            FILTER NOT EXISTS { ?d ex:lang ?l }
        } ORDER BY ?d
    """
    return sparql_lite.select_text_distributed(tri, q)


def q_ann_ivf_topk(sf_dir: str):
    """IVF-bucketed approximate nearest neighbours (scale-path ANN).
    Round 4: oracle-checked — the coarse quantizer is the distributed
    k-means whose unrolled CTE is per-row exact, so the inverted lists
    (and the approximation itself) are pinned by SQL. The float-sampled
    ivf_topk variant stays in the library."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return annsearch.ivf_kmeans_topk(ds, query_ids=[0, 1, 2, 3, 4],
                                     k=5, n_centroids=4, iters=3) \
        .sort(["query_id", "rank"])


def _planted_embeddings(sf_dir: str):
    """embeddings + exact copies of vec_id<40 at vec_id+100000 — the
    synthetic vectors are random (max off-diagonal cosine ≈0.51), so
    planted duplicates give the near-dup ops a deterministic signal with
    a wide numeric margin to any threshold ≥0.9."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        dup = df[df["vec_id"] < 40].copy()
        dup["vec_id"] = dup["vec_id"] + 100000
        return pd.concat([df, dup], ignore_index=True)

    return ds.map_batches(plant, batch_format="pandas")


def q_cosine_neardup_pairs(sf_dir: str):
    """Embedding-cosine near-duplicate pairs, EXACT baseline: broadcast
    normalized matrix, per-batch float64 matmul, emit (a, b) with
    cos >= 0.9 — the dedup-family counterpart of ANN top-k."""
    out = annsearch.cosine_neardup_pairs(_planted_embeddings(sf_dir),
                                         threshold=0.9)
    return out.sort(["a", "b"])


def q_gopher_quality_docs(sf_dir: str):
    """Gopher-style quality gates (Rae et al. §A1.1): word-count bounds,
    mean word length, symbol-to-word and bullet-line ratios — integer
    millis so the SQL twin hash-matches. Stateless vectorized pass."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = textops.gopher_quality(df)
        out.insert(0, "doc_id", df["doc_id"].to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_repetition_docs(sf_dir: str):
    """Duplicate-line fraction (repetition removal signal)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = textops.repetition_stats(df["text"])
        out.insert(0, "doc_id", df["doc_id"].to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_pii_scrub_docs(sf_dir: str):
    """PII redaction (emails then IPv4, RE2-compatible patterns shared
    verbatim with the DuckDB twin). Deterministic PII is injected per
    doc so the redaction actually fires — the scrubbed text equality
    pins both regex engines' match semantics."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"]
        aug = (df["text"].fillna("") + " contact user" + ids.astype(str)
               + "@example.com from 10.0." + (ids % 256).astype(str)
               + ".7")
        out = textops.pii_scrub(aug)
        out.insert(0, "doc_id", ids.to_numpy())
        return out[["doc_id", "scrubbed", "n_emails", "n_ips"]]

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_pagerank_docs(sf_dir: str):
    """Distributed PageRank (ops.pagerank power iteration) over a
    deterministic synthetic citation graph on the documents table
    (doc → (31·doc+7) mod n and (17·doc+3) mod n): per iteration ONE
    hash join + ONE bucketed sum; scores rounded to 9 decimals to pin
    the unrolled-CTE oracle."""
    from . import ops

    ds = _read(sf_dir, "documents", ["doc_id"])
    n = ds.count()

    def edges(df: pd.DataFrame, n=n) -> pd.DataFrame:
        s = df["doc_id"].to_numpy()
        return pd.DataFrame({
            "src": np.concatenate([s, s]).astype("int64"),
            "dst": np.concatenate([(s * 31 + 7) % n,
                                   (s * 17 + 3) % n]).astype("int64")})

    e = ds.map_batches(edges, batch_format="pandas")
    return ops.pagerank(e, iters=3).sort("node")


def q_quantiles_events(sf_dir: str):
    """EXACT distributed quantiles of events.value (ops.exact_quantiles):
    one global sort, then target ranks located via block metadata — only
    the rank-holding blocks are fetched, never the column. Rank rule
    floor(p·(n−1)), float64 on both engine and oracle."""
    from . import ops

    ds = _read(sf_dir, "events", ["value"])
    return ops.exact_quantiles(ds, "value")


def q_hll_users(sf_dir: str):
    """HyperLogLog distinct-user sketch over events (ops.hll_distinct,
    p=12, md5 hash): deterministic md5-nibble registers, one tiny
    register row per batch, elementwise-max merge — the mergeable
    cardinality pattern for 100-TB streams. ORACLE-CHECKED: the md5
    variant's registers, exact-integer 2^-reg sum and pinned float
    estimate tree are reproduced in the DuckDB twin bit-for-bit (round
    half-away to 3 decimals absorbs the ln() 1-ulp libm margin)."""
    from . import ops

    ds = _read(sf_dir, "events", ["user_id"])
    est, _ = ops.hll_distinct(ds, "user_id", p=12, hash="md5")
    est3 = np.floor(est * 1000 + 0.5) / 1000
    return pd.DataFrame({"distinct_users_est": pd.Series([est3],
                                                         dtype="float64")})


def q_bpe_token_stats(sf_dir: str):
    """BPE-ish pretokenizer counts (textops.BPE_PRETOKEN_RE, the RE2 ∩
    Python-re subset of the GPT-2 pattern, shared verbatim with the
    DuckDB twin) — the LLM token-budget estimator."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = textops.bpe_token_stats(df["text"])
        out.insert(0, "doc_id", df["doc_id"].to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd's k-means over the embeddings table (the
    clustering primitive behind semantic dedup): k=4, 3 update
    iterations + final assignment, deterministic smallest-id init,
    ties to the lowest cluster. One streaming pass per iteration —
    batches emit k×d partial sums, the corpus never concentrates."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out, _ = annsearch.kmeans_embeddings(ds, k=4, iters=3)
    return out.sort("vec_id")


def q_semdedup_embeddings(sf_dir: str):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): distributed
    k-means + within-cluster cosine dedup over the planted-duplicates
    corpus; keep = no smaller-id neighbor with cos >= 0.9 (the planted
    copies are bit-identical, so the decision margin to the threshold is
    wide on both engines). Oracle reuses the unrolled k-means CTE over
    the planted table + a NOT EXISTS pair probe."""
    out = annsearch.semdedup(_planted_embeddings(sf_dir), k=4, iters=3,
                             threshold=0.9)
    return out.sort("vec_id")


def q_cosine_neardup_lsh(sf_dir: str):
    """Embedding-cosine near-dup, LSH scale path: hyperplane buckets +
    within-bucket pairs via one bucketed shuffle (identical vectors
    always share a bucket, so the planted pairs recover fully;
    general recall < 1 by design)."""
    out = annsearch.cosine_neardup_pairs_lsh(_planted_embeddings(sf_dir),
                                             threshold=0.9)
    return out.sort(["a", "b"])


def q_median_per_type(sf_dir: str):
    """Grouped EXACT median (A-family order statistic per group): the
    per-type median event value, discrete rule (element at index
    floor((n-1)/2) of the sorted group — DuckDB's quantile_disc(0.5)),
    so the answer is an actual data element and float-exact on both
    engines. event_type is low-cardinality, so ONE bucketed per-key
    shuffle colocates each group; the in-group selection is a vectorized
    sort + index, never a driver-side pass."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def med(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for t, g in df.groupby("event_type", sort=False):
            v = np.sort(g["value"].to_numpy(dtype=np.float64))
            out.append((t, v[(len(v) - 1) // 2], np.int64(len(v))))
        return pd.DataFrame(out, columns=["event_type", "median_value",
                                          "n"]).astype({"n": "int64"})

    return (bucket_exchange(ds, ["event_type"], med, 16, "pandas")
            .sort("event_type"))


def q_lead_events(sf_dir: str):
    """LEAD / FIRST_VALUE / LAST_VALUE per user ordered by (ts, event_id)
    — the forward-looking window family next to q_lag_events' LAG. ONE
    bucketed per-key shuffle; in-group shift/head/tail vectorized. The
    SQL twin pins LAST_VALUE's frame to the whole partition (ROWS
    UNBOUNDED PRECEDING..UNBOUNDED FOLLOWING), matching the engine."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def win(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = df.groupby("user_id", sort=False)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "user_id": df["user_id"].to_numpy(),
            "next_value": g["value"].shift(-1).to_numpy(),
            "first_value": g["value"].transform("first").to_numpy(),
            "last_value": g["value"].transform("last").to_numpy()})

    return (bucket_exchange(ds, ["user_id"], win, 32, "pandas")
            .sort("event_id"))


def q_daily_activity_full(sf_dir: str):
    """Distributed FULL OUTER join (completing the §2.4 join-type family
    next to inner/left/semi/anti): clicks-per-(day,user) ⟗
    purchases-per-(day,user). Both sides partial-combine per batch before
    the exchange; the join is Ray's hash full_outer with inputs
    normalized per invariant 7 (hash-aggregate outputs feed a join)."""
    from . import ops

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def daily(df: pd.DataFrame, typ: str, name: str) -> pd.DataFrame:
        df = df[df["event_type"] == typ]
        if not len(df):
            return pd.DataFrame({"day": pd.Series([], dtype="int64"),
                                 "user_id": pd.Series([], dtype="int64"),
                                 name: pd.Series([], dtype="int64")})
        day = (df["ts"].astype("int64") // (86_400_000_000)).astype("int64")
        g = (pd.DataFrame({"day": day, "user_id": df["user_id"]})
             .groupby(["day", "user_id"], sort=False).size())
        out = g.reset_index(name=name)
        return out.astype({"day": "int64", "user_id": "int64",
                           name: "int64"})

    schema_c = pa.schema([("day", pa.int64()), ("user_id", pa.int64()),
                          ("n_clicks", pa.int64())])
    schema_p = pa.schema([("day", pa.int64()), ("user_id", pa.int64()),
                          ("n_purchases", pa.int64())])
    clicks = (ds.map_batches(lambda df: daily(df, "click", "n_clicks"),
                             batch_format="pandas")
              .groupby(["day", "user_id"])
              .aggregate(Sum("n_clicks", alias_name="n_clicks")))
    purch = (ds.map_batches(lambda df: daily(df, "purchase", "n_purchases"),
                            batch_format="pandas")
             .groupby(["day", "user_id"])
             .aggregate(Sum("n_purchases", alias_name="n_purchases")))
    clicks = ops.materialize_normalized(clicks, schema_c)
    purch = ops.materialize_normalized(purch, schema_p)
    joined = clicks.join(purch, "full_outer", ops._default_partitions(),
                         on=("day", "user_id"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "day": df["day"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "n_clicks": df["n_clicks"].fillna(0).astype("int64"),
            "n_purchases": df["n_purchases"].fillna(0).astype("int64")})

    return (joined.map_batches(finish, batch_format="pandas")
            .sort(["day", "user_id"]))


def q_corr_lineitem(sf_dir: str):
    """Distributed Pearson correlation + least-squares slope (the
    statistical A-family: CORR / REGR_SLOPE) of order quantity vs price
    per returnflag. Moment sums (n, Σx, Σy, Σx², Σy², Σxy) accumulate as
    EXACT int64 per batch (quantity is integral, price rounded to whole
    dollars) — one 6-number row per group per batch moves — and the final
    formula is a pinned float64 expression tree, identical in the SQL
    twin, so the doubles match bit-exactly. Sums stay exact to sf≈1000
    (Σy² < 2^63)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["l_quantity"].astype("int64")
        v = df["l_extendedprice"].to_numpy(dtype=np.float64)
        y = pd.Series(np.sign(v) * np.floor(np.abs(v) + 0.5),
                      index=df.index).astype("int64")
        g = pd.DataFrame({
            "l_returnflag": df["l_returnflag"], "n": 1,
            "sx": x, "sy": y, "sxx": x * x, "syy": y * y, "sxy": x * y})
        return (g.groupby("l_returnflag", sort=False, as_index=False)
                .sum())

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("l_returnflag")
           .aggregate(*[Sum(c, alias_name=c)
                        for c in ("n", "sx", "sy", "sxx", "syy", "sxy")]))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].astype("float64")
        sx, sy = df["sx"].astype("float64"), df["sy"].astype("float64")
        sxx, syy = df["sxx"].astype("float64"), df["syy"].astype("float64")
        sxy = df["sxy"].astype("float64")
        cov_n = n * sxy - sx * sy
        var_x = n * sxx - sx * sx
        var_y = n * syy - sy * sy
        return pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "n": df["n"].astype("int64"),
            "corr_r": cov_n / (np.sqrt(var_x) * np.sqrt(var_y)),
            "slope": cov_n / var_x})

    return (agg.map_batches(finish, batch_format="pandas")
            .sort("l_returnflag"))


def q_funnel_events(sf_dir: str):
    """Funnel analysis (ordered event-sequence matching): per user, stage
    reached in the strict view → click → purchase sequence (each later
    stage strictly after the earlier stage's FIRST occurrence), then
    users per stage. ONE bucketed per-user shuffle; the stage logic is
    vectorized group mins. Stages with zero users still emit a row, so
    the output shape is stable at every sf."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def funnel_rows(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["event_type"], pa.array(
            ["view", "click", "purchase"])))

    def stage_group(df: pd.DataFrame) -> pd.DataFrame:
        users = pd.DataFrame({"user_id": df["user_id"].unique()})
        t1 = (df[df["event_type"] == "view"]
              .groupby("user_id", as_index=False)["ts"].min()
              .rename(columns={"ts": "t1"}))
        c = df[df["event_type"] == "click"].merge(t1, on="user_id")
        t2 = (c[c["ts"] > c["t1"]]
              .groupby("user_id", as_index=False)["ts"].min()
              .rename(columns={"ts": "t2"}))
        p = df[df["event_type"] == "purchase"].merge(t2, on="user_id")
        t3 = (p[p["ts"] > p["t2"]]
              .groupby("user_id", as_index=False)["ts"].min()
              .rename(columns={"ts": "t3"}))
        m = (users.merge(t1, on="user_id", how="left")
             .merge(t2, on="user_id", how="left")
             .merge(t3, on="user_id", how="left"))
        stage = (m["t1"].notna().astype("int64")
                 + m["t2"].notna().astype("int64")
                 + m["t3"].notna().astype("int64"))
        return pd.DataFrame({"user_id": m["user_id"].astype("int64"),
                             "stage": stage})

    stages = bucket_exchange(
        ds.map_batches(funnel_rows, batch_format="pyarrow"), ["user_id"],
        stage_group, 32, "pandas")

    counts = (stages.groupby("stage")
              .aggregate(Count(on="stage", alias_name="users"))
              .to_pandas())
    full = pd.DataFrame({"stage": np.arange(4, dtype="int64")})
    out = full.merge(counts, on="stage", how="left")
    out["users"] = out["users"].fillna(0).astype("int64")
    return out


def q_source_divergence(sf_dir: str):
    """Corpus-drift measurement: EXACT total-variation distance between
    the add-one-smoothed token distributions of two sources (the
    distribution-shift monitor a 100-TB ingest pipeline runs between
    crawl snapshots). |p−q| terms are summed as exact INTEGER numerators
    over the common denominator (N_a+V)(N_b+V) — no float accumulation
    order anywhere — and only the final scale is one pinned float
    division. Token counts colocate in ONE token-bucketed shuffle."""
    ds = _read(sf_dir, "documents", ["source", "text"])
    src_a, src_b = "src0", "src1"

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["source"].isin([src_a, src_b])]
        if not len(df):
            return pd.DataFrame({"tok": pd.Series([], dtype="object"),
                                 "ca": pd.Series([], dtype="int64"),
                                 "cb": pd.Series([], dtype="int64")})
        rows = []
        for src, sub in df.groupby("source", sort=False):
            t = sub["text"].fillna("").str.lower().str.findall(r"[a-z]+")
            arr = np.concatenate([np.array(x, dtype=object) for x in t]
                                 + [np.array([], dtype=object)])
            u, c = np.unique(arr.astype(str), return_counts=True)
            rows.append(pd.DataFrame({
                "tok": u,
                "ca": c.astype("int64") if src == src_a else 0,
                "cb": c.astype("int64") if src == src_b else 0}))
        out = pd.concat(rows, ignore_index=True)
        return (out.groupby("tok", sort=False, as_index=False)
                [["ca", "cb"]].sum())

    counts = (ds.map_batches(toks, batch_format="pandas")
              .groupby("tok")
              .aggregate(Sum("ca", alias_name="ca"),
                         Sum("cb", alias_name="cb"))
              .materialize())
    tot = counts.map_batches(
        lambda df: pd.DataFrame({"na": [int(df["ca"].sum())],
                                 "nb": [int(df["cb"].sum())],
                                 "v": [np.int64(len(df))]}),
        batch_format="pandas").to_pandas().sum()
    na, nb, v = int(tot["na"]), int(tot["nb"]), int(tot["v"])

    def numer(df: pd.DataFrame) -> pd.DataFrame:
        num = np.abs((df["ca"].astype("int64") + 1) * (nb + v)
                     - (df["cb"].astype("int64") + 1) * (na + v))
        return pd.DataFrame({"s": [np.int64(num.sum())]})

    s = int(counts.map_batches(numer, batch_format="pandas")
            .to_pandas()["s"].sum())
    tv = 0.5 * (float(s) / (float(na + v) * float(nb + v)))
    return pd.DataFrame({
        "source_a": [src_a], "source_b": [src_b],
        "n_a": pd.Series([na], dtype="int64"),
        "n_b": pd.Series([nb], dtype="int64"),
        "vocab": pd.Series([v], dtype="int64"),
        "tv_distance": pd.Series([tv], dtype="float64")})


def q_mode_per_group(sf_dir: str):
    """Per-key MODE (most frequent value; tie -> lexicographically
    smallest) — the categorical summary aggregate. Per-batch partial
    (user, type) counts shrink the exchange to one row per distinct pair
    per batch; ONE bucketed shuffle on user_id resolves the argmax
    in-group (invariant 4: no multi-key groupby.aggregate)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["user_id", "event_type"], sort=False)
                .size().rename("n").reset_index())

    def mode(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["user_id", "event_type"], sort=False,
                        as_index=False)["n"].sum())
        g = g.sort_values(["user_id", "n", "event_type"],
                          ascending=[True, False, True], kind="mergesort")
        top = g.drop_duplicates("user_id", keep="first")
        return pd.DataFrame({
            "user_id": top["user_id"].to_numpy(),
            "mode_type": top["event_type"].to_numpy(),
            "mode_n": top["n"].astype("int64").to_numpy()})

    return (bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                            ["user_id"], mode, 32, "pandas")
            .sort("user_id"))


def q_group_variance(sf_dir: str):
    """Distributed population variance via mergeable (n, sum, sumsq)
    partials — the one-pass moment aggregate. All arithmetic on the
    final tiny table is EXACT (Python big ints; round-half-up done as
    (2*num + den) // (2*den)), so the result hash-matches the HUGEINT
    SQL twin bit-for-bit with no float association-order noise."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = _cents(df["value"])
        g = pd.DataFrame({"event_type": df["event_type"], "c": c,
                          "c2": c * c, "n": np.int64(1)})
        return (g.groupby("event_type", sort=False, as_index=False)
                [["n", "c", "c2"]].sum())

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("c", alias_name="s"),
                      Sum("c2", alias_name="ss"))
           .to_pandas())

    def var_millis(row) -> int:
        n, s, ss = int(row["n"]), int(row["s"]), int(row["ss"])
        num = (n * ss - s * s) * 1000
        den = n * n
        return (2 * num + den) // (2 * den)

    out = pd.DataFrame({
        "event_type": agg["event_type"],
        "n": agg["n"].astype("int64"),
        "sum_cents": agg["s"].astype("int64"),
        "var_pop_millis": agg.apply(var_millis, axis=1).astype("int64")})
    return out.sort_values("event_type").reset_index(drop=True)


def q_retention_cohorts(sf_dir: str):
    """Cohort retention matrix (the classic product-analytics op):
    cohort = month of each user's first event; cell = distinct users of
    that cohort active in month cohort+k. ONE bucketed shuffle on
    user_id carries BOTH the per-batch min-ts partials and the per-batch
    distinct (user, month) pairs (tagged union), so the cohort lookup is
    an in-bucket join — no broadcast of a potentially huge user map."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = df["ts"].dt.to_period("M").dt.to_timestamp()
        pairs = pd.DataFrame({"user_id": df["user_id"], "m": m})
        dis = pairs.drop_duplicates()
        first = (pairs.assign(ts=df["ts"]).groupby("user_id", sort=False)
                 ["ts"].min().reset_index())
        nat_us = pd.Series(pd.NaT, dtype="datetime64[us]")
        return pd.concat([
            dis.assign(kind="a",
                       ts=nat_us.reindex(range(len(dis))).to_numpy()),
            pd.DataFrame({"user_id": first["user_id"],
                          "m": nat_us.reindex(
                              range(len(first))).to_numpy(),
                          "kind": "f", "ts": first["ts"]})],
            ignore_index=True)

    def cell(df: pd.DataFrame) -> pd.DataFrame:
        f = df[df["kind"] == "f"].groupby("user_id", sort=False)["ts"].min()
        cohort = f.dt.to_period("M").dt.to_timestamp().rename("cohort")
        a = (df[df["kind"] == "a"][["user_id", "m"]].drop_duplicates()
             .merge(cohort.reset_index(), on="user_id"))
        off = ((a["m"].dt.year - a["cohort"].dt.year) * 12
               + (a["m"].dt.month - a["cohort"].dt.month))
        g = (pd.DataFrame({"cohort_month": a["cohort"],
                           "month_offset": off.astype("int64"),
                           "n_users": np.int64(1)})
             .groupby(["cohort_month", "month_offset"], sort=False,
                      as_index=False)["n_users"].sum())
        return g

    part = bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                           ["user_id"], cell, 32, "pandas").to_pandas()
    out = (part.groupby(["cohort_month", "month_offset"], as_index=False)
           ["n_users"].sum())
    out["n_users"] = out["n_users"].astype("int64")
    out["cohort_month"] = out["cohort_month"].astype("datetime64[us]")
    return (out.sort_values(["cohort_month", "month_offset"])
            .reset_index(drop=True))


def q_chunk_docs(sf_dir: str, window: int = 64, stride: int = 48):
    """Training-data chunking: split each document into overlapping
    token windows (size ``window``, stride ``stride``) — the standard
    LLM context-window prep step. Pure row-expansion flat-map: fully
    vectorized per batch (one np.concatenate of token arrays + offset
    arithmetic, no Python loop over rows), no shuffle at all; output
    keeps (first, last) token per chunk so the hash pins window
    placement without shipping the full chunk text."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def chunks(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        n = toks.str.len().to_numpy(dtype=np.int64)
        keep = n > 0
        toks, n = toks[keep], n[keep]
        doc_id = df["doc_id"].to_numpy()[keep]
        if len(n) == 0:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "chunk_idx": pd.Series([], dtype="int64"),
                "chunk_len": pd.Series([], dtype="int64"),
                "first_tok": pd.Series([], dtype=object),
                "last_tok": pd.Series([], dtype=object)})
        k_per = (n - 1) // stride + 1
        flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
        doc_off = np.concatenate([[0], np.cumsum(n)[:-1]])
        idx = np.concatenate([np.arange(k) for k in k_per])
        rep_doc = np.repeat(doc_id, k_per)
        rep_off = np.repeat(doc_off, k_per)
        rep_n = np.repeat(n, k_per)
        start = idx * stride
        clen = np.minimum(window, rep_n - start)
        g0 = rep_off + start
        return pd.DataFrame({
            "doc_id": rep_doc,
            "chunk_idx": idx.astype("int64"),
            "chunk_len": clen.astype("int64"),
            "first_tok": flat[g0],
            "last_tok": flat[g0 + clen - 1]})

    return ds.map_batches(chunks, batch_format="pandas").sort(
        ["doc_id", "chunk_idx"])


def q_pack_sequences(sf_dir: str, budget: int = 256):
    """Greedy sequence packing (LLM batch prep): walk each source's
    docs in doc_id order, open a new bin whenever adding the next doc's
    (budget-capped) token count would overflow the budget. ONE bucketed
    shuffle on source; in-group assignment loops over BINS, not rows
    (searchsorted on the token cumsum), so the group pass is
    O(bins log n). The SQL twin replays the identical walk as a
    recursive CTE."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        t = (df["text"].fillna("").str.lower().str.count(r"[a-z]+")
             .astype("int64").clip(upper=budget))
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "source": df["source"], "t": t})

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for src, g in df.groupby("source", sort=False):
            g = g.sort_values("doc_id", kind="mergesort")
            t = g["t"].to_numpy(dtype=np.int64)
            cum = np.concatenate([[0], np.cumsum(t)])
            bins = np.empty(len(g), dtype=np.int64)
            pos, b = 0, 0
            while pos < len(g):
                end = int(np.searchsorted(cum, cum[pos] + budget,
                                          side="right")) - 1
                end = max(end, pos + 1)
                bins[pos:end] = b
                b += 1
                pos = end
            frames.append(pd.DataFrame({
                "doc_id": g["doc_id"].to_numpy(), "source": src,
                "bin_id": bins, "tok_used": t}))
        return (pd.concat(frames, ignore_index=True) if frames else
                pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                              "source": pd.Series([], dtype=object),
                              "bin_id": pd.Series([], dtype="int64"),
                              "tok_used": pd.Series([], dtype="int64")}))

    return (bucket_exchange(ds.map_batches(counts, batch_format="pandas"),
                            ["source"], pack, 32, "pandas")
            .sort(["source", "doc_id"]))



def q_hardneg_mining(sf_dir: str):
    """Contrastive-training hard-negative mining: per query vector, the
    top-5 most-cosine-similar embeddings carrying a DIFFERENT label —
    the negatives random sampling never surfaces. Broadcast query
    matrix, one matmul per batch, ≤k rows per query per batch shuffle
    (annsearch.hard_negative_topk)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return annsearch.hard_negative_topk(
        ds, query_ids=[0, 1, 2, 3, 4], k=5).sort(["query_id", "rank"])


def q_bloom_semi_join(sf_dir: str):
    """Selective large-large semi join with a Bloom prefilter
    (ops.bloom_semi_join): lineitem rows whose order is high-value. The
    filter is built distributively over the right key set, broadcast
    once via ray.put, and drops non-matching left rows BEFORE the
    bucketed exact join — at 100 TB that converts a full lineitem
    shuffle into a shuffle of just the ~selectivity fraction. False
    positives are re-checked by the exact join, so the result is
    oracle-exact."""
    from . import ops

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity"])
    import pyarrow.compute as pc

    hi = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]) \
        .map_batches(lambda t: t.filter(
            pc.greater(t["o_totalprice"], 450000.0)),
            batch_format="pyarrow")
    out = ops.bloom_semi_join(li, hi, "l_orderkey", "o_orderkey")
    return (out.map_batches(
        lambda df: pd.DataFrame({
            "l_orderkey": df["l_orderkey"].astype("int64"),
            "l_linenumber": df["l_linenumber"].astype("int64"),
            "l_quantity": df["l_quantity"].astype("float64")}),
        batch_format="pandas")
        .sort(["l_orderkey", "l_linenumber"]))


def q_event_transitions(sf_dir: str):
    """Per-user event-type transition counts (the Markov-chain /
    session-flow op): pairs (prev_type -> type) along each user's
    (ts, event_id) timeline, aggregated corpus-wide. Same bucketed
    per-key shuffle as the lag family; the pair counting is a
    vectorized in-group shift, then a tiny (|types|^2) partial-combined
    aggregate."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        prev = df["event_type"].shift(1)
        same = df["user_id"].eq(df["user_id"].shift(1))
        sub = pd.DataFrame({"prev_type": prev[same],
                            "next_type": df["event_type"][same]})
        return (sub.groupby(["prev_type", "next_type"], sort=False)
                .size().rename("n").reset_index())

    part = bucket_exchange(ds, ["user_id"], pairs, 32, "pandas").to_pandas()
    out = (part.groupby(["prev_type", "next_type"], as_index=False)
           ["n"].sum())
    out["n"] = out["n"].astype("int64")
    return (out.sort_values(["prev_type", "next_type"])
            .reset_index(drop=True))


def q_outlier_events(sf_dir: str):
    """Per-type 3-sigma outliers with EXACT integer arithmetic: event is
    an outlier iff (c*n - s)^2 > 9*(n*ss - s^2) — the z-score rule with
    both sides scaled by n^2 so no floats appear (Python big ints here,
    HUGEINT in the twin). Two passes: tiny per-type moment table
    (broadcast via closure), then a streaming filter."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = _cents(df["value"])
        g = pd.DataFrame({"event_type": df["event_type"], "c": c,
                          "c2": c * c, "n": np.int64(1)})
        return (g.groupby("event_type", sort=False, as_index=False)
                [["n", "c", "c2"]].sum())

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("c", alias_name="s"),
                      Sum("c2", alias_name="ss"))
           .to_pandas())
    moments = {r["event_type"]: (int(r["n"]), int(r["s"]), int(r["ss"]))
               for _, r in agg.iterrows()}

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        c = _cents(df["value"])
        keep = np.zeros(len(df), dtype=bool)
        for t, (n, s, ss) in moments.items():
            m = (df["event_type"] == t).to_numpy()
            if not m.any():
                continue
            lhs = (c[m].astype(object) * n - s) ** 2   # exact big ints
            rhs = 9 * (n * ss - s * s)
            keep[m] = (lhs > rhs).to_numpy(dtype=bool)
        out = df[keep]
        return pd.DataFrame({
            "event_id": out["event_id"].astype("int64"),
            "event_type": out["event_type"],
            "value_cents": _cents(out["value"]).to_numpy()})

    return ds.map_batches(flag, batch_format="pandas").sort("event_id")


def q_skew_join_enrich(sf_dir: str):
    """Skew-aware dimension enrichment (ops.skew_join): every event
    joined to its user's customer record. The synthetic corpus has ~70
    events per user — far over the hot_threshold here — so this
    exercises the salted hot path (hot keys spread over 8 salt
    partitions) unioned with the plain bucketed cold join; the result is
    the exact inner join either way."""
    from . import ops

    ev = _read(sf_dir, "events", ["event_id", "user_id"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    out = ops.skew_join(ev, cust, "user_id", "c_custkey",
                        hot_threshold=40, num_salts=8)
    return (out.map_batches(
        lambda df: pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "c_name": df["c_name"]}), batch_format="pandas")
        .sort("event_id"))


def q_normalize_docs(sf_dir: str):
    """Text normalization (the first stage of any web-text curation
    recipe): lowercase -> accent strip (NFD minus combining marks, the
    exact strip_accents semantics — verified char-by-char against
    DuckDB) -> whitespace collapse -> trim. The corpus is pure ASCII, so
    accented characters are INJECTED deterministically (doc_id % 5 == 0:
    a->á, e->ê) identically in engine and twin — the same make-the-op-
    fire trick as q_pii_scrub_docs. Output ships md5 + length, not the
    text."""
    import unicodedata

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        inj = df["doc_id"] % 5 == 0
        t = t.where(~inj, t.str.replace("a", "á", regex=False)
                    .str.replace("e", "ê", regex=False))
        low = t.str.lower()
        # strip accents: NFD then drop combining marks (== strip_accents)
        stripped = low.map(lambda s: "".join(
            c for c in unicodedata.normalize("NFD", s)
            if not unicodedata.combining(c)))
        nt = (stripped.str.replace(r"\s+", " ", regex=True).str.strip())
        import hashlib

        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "norm_md5": nt.map(
                lambda s: hashlib.md5(s.encode("utf-8")).hexdigest()),
            "n_chars_norm": nt.str.len().astype("int64")})

    return ds.map_batches(norm, batch_format="pandas").sort("doc_id")


def q_pq_adc_topk(sf_dir: str):
    """ADC top-5 over PQ codes (the Jégou-style compressed-domain ANN
    scan): per-query integer distance tables to each subspace codebook,
    candidates ranked by two table lookups. Integer millis distances
    make the approximate ranking itself oracle-exact
    (annsearch.pq_adc_topk)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return annsearch.pq_adc_topk(ds, query_ids=[0, 1, 2, 3, 4], k=5,
                                 n_sub=2, n_codes=4, iters=3) \
        .sort(["query_id", "rank"])


def q_pq_codes(sf_dir: str):
    """Product quantization over the embeddings table: 2 subspaces of
    32 dims, 4-entry codebooks each (annsearch.pq_codes). The oracle is
    TWO copies of the unrolled k-means CTE, each run over a list-sliced
    subspace view — derived mechanically so quantizer and twin stay in
    lockstep."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return annsearch.pq_codes(ds, n_sub=2, k=4, iters=3).sort("vec_id")


def q_range_window_events(sf_dir: str, minutes: int = 10):
    """TIME-based trailing window (RANGE, not ROWS — the streaming
    windowed-aggregate shape): per user, the sum of value cents over the
    trailing 10 minutes INCLUDING equal-timestamp peers after the
    current row (the SQL RANGE ... CURRENT ROW peer rule). One bucketed
    per-key shuffle; in-group the window bounds come from two
    vectorized searchsorted calls over the sorted timestamps — no
    per-row loop."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def window(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for uid, g in df.groupby("user_id", sort=False):
            g = g.sort_values(["ts", "event_id"], kind="mergesort")
            ts = g["ts"].to_numpy()
            cents = _cents(g["value"]).to_numpy()
            cum = np.concatenate([[0], np.cumsum(cents)])
            lo = np.searchsorted(ts, ts - np.timedelta64(minutes, "m"),
                                 side="left")
            hi = np.searchsorted(ts, ts, side="right")  # equal-ts peers
            frames.append(pd.DataFrame({
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "win_cents": (cum[hi] - cum[lo]).astype("int64")}))
        return (pd.concat(frames, ignore_index=True) if frames else
                pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                              "user_id": pd.Series([], dtype="int64"),
                              "win_cents": pd.Series([], dtype="int64")}))

    return (bucket_exchange(ds, ["user_id"], window, 32, "pandas")
            .sort("event_id"))


def q_paragraph_dedup_docs(sf_dir: str):
    """Corpus-wide paragraph-level exact dedup (the FineWeb/CCNet
    line-dedup stage, linking.paragraph_dedup): first corpus-wide
    occurrence of each distinct line survives, docs reassembled from
    survivors. Winners move as (md5, packed-key) pairs through ONE
    bucketed exchange; paragraph text shuffles exactly twice (k-join +
    doc_id regroup). The testdata docs are single-line, so deterministic
    shared/duplicate paragraphs are injected per doc (pii_scrub idiom) —
    a cross-doc shared para (doc_id%7), a unique tail, and a within-doc
    repeat — so the dedup demonstrably fires; the twin injects the same."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def aug(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype(str)
        mod = (df["doc_id"] % 7).astype(str)
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "text": (df["text"].fillna("")
                     + "\ncommon paragraph " + mod
                     + "\nunique tail " + ids
                     + "\ncommon paragraph " + mod)})

    return linking.paragraph_dedup(
        ds.map_batches(aug, batch_format="pandas")).sort("doc_id")


def q_c4_filter_docs(sf_dir: str):
    """C4-style line-level cleaning (Raffel et al. 2020 §2.2 subset;
    textops.c4_line_filter): terminal-punctuation + >=3-words + no '{' +
    no 'lorem ipsum' line gates, doc passes with >=3 surviving lines.
    Stateless vectorized pass, embarrassingly parallel. Deterministic
    lines exercising every gate are appended per doc (the pii_scrub
    injection idiom — the synthetic corpus has no punctuation at all),
    including a doc_id%3-conditional terminal '?' so c4_pass varies."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"]
        aug = (df["text"].fillna("")
               + "\nThis is a clean sentence with id "
               + ids.astype(str) + "."
               + "\nshort line."
               + "\nbad line with { brace yes."
               + "\nAnother clean line for bucket "
               + (ids % 5).astype(str) + " right here!"
               + "\nLorem ipsum dolor sit amet."
               + "\ntail line for doc " + ids.astype(str)
               + (ids % 3 == 0).map({True: "?", False: ""}))
        out = textops.c4_line_filter(aug)
        out.insert(0, "doc_id", ids.to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_gopher_filter_docs(sf_dir: str):
    """Gopher/MassiveText quality + repetition filtering (Rae et al.
    2021 App. A1.1 subset; textops.gopher_stats): 9 integer-arithmetic
    gates (word count, mean word length, alpha-word fraction, stop
    words, bullet/ellipsis line fractions, symbol ratio, duplicate-line
    fraction, top word-2-gram char fraction). Stateless vectorized
    pass, embarrassingly parallel — the 100-TB shape is map_batches
    with zero shuffles. Deterministic lines exercising the line-based
    gates are injected per doc_id mod class (the corpus is single-line
    word soup; its natural 2-gram repetition exercises g_top2
    unmodified); the twin injects byte-identically."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        out = textops.gopher_stats(_gopher_aug(d, t))
        out.insert(0, "doc_id", d.to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_mixture_sample_docs(sf_dir: str):
    """Data-mixture construction (The-Pile-style per-source sampling
    weights): every source gets a deterministic keep-rate in [100, 900)
    millis derived from md5(source), and a doc survives iff its own
    md5('doc:'+id) 12-bit prefix mod 1000 clears the rate — stateless,
    reproducible across runs and worker layouts, no shuffle at all.
    Both hashes are reproduced nibble-for-nibble in the DuckDB twin."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "lang"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        rate = df["source"].map(lambda s: 100 + int(
            hashlib.md5(s.encode()).hexdigest()[:3], 16) % 800)
        draw = df["doc_id"].map(lambda i: int(
            hashlib.md5(f"doc:{i}".encode()).hexdigest()[:3], 16) % 1000)
        out = df[draw.to_numpy() < rate.to_numpy()].copy()
        out["rate_milli"] = rate[draw < rate].astype("int64")
        return out[["doc_id", "source", "lang", "rate_milli"]]

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_profile_events(sf_dir: str):
    """Distributed column profiler (ops.profile_columns) over events —
    rows/nulls/exact-distinct/min/max per numeric column in two
    streaming passes (tiny stat partials + one bucketed distinct
    exchange)."""
    from . import ops

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    return ops.profile_columns(ds, ["event_id", "user_id", "value"])


def q_bpe_train_merges(sf_dir: str):
    """Distributed BPE tokenizer training (textops.bpe_train, Sennrich
    et al. 2016): whitespace word counts (bucketed high-cardinality
    combine, invariant 4) -> 4 merge rounds, each ONE streaming
    pair-count pass + a vocabulary-bounded aggregate + a broadcast
    2-pass replace merge. Returns the learned merge table."""
    ds = _read(sf_dir, "documents", ["text"])
    return textops.bpe_train(_word_counts_ds(ds), n_merges=4)


def q_embedding_covariance(sf_dir: str, d: int = 8):
    """Distributed Gram/covariance accumulation (the front half of PCA /
    embedding whitening): per-batch q^T·q partial over the first `d`
    dims in ROUND(x*1000) integer millis (exact, association-order
    free), one tiny d·(d+1)/2-row aggregate. The corpus streams; only
    d² numbers ever move per batch."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy())[:, :d].astype(np.float64)
        q = np.floor(np.abs(m) * 1000 + 0.5) * np.sign(m)
        g = (q.T @ q).astype(np.int64)
        iu = np.triu_indices(d)
        return pd.DataFrame({"i": iu[0].astype("int64"),
                             "j": iu[1].astype("int64"),
                             "g": g[iu]})

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby(["i", "j"]).aggregate(Sum("g", alias_name="gram"))
            .sort(["i", "j"]))


def q_watermark_window_events(sf_dir: str):
    """Streaming tumbling-window aggregate with watermark/late-data
    semantics (ops.late_data_window_counts), replayed deterministically:
    arrival time is synthesized as event-time + a deterministic
    per-event jitter (Knuth-hash millis, up to 2 h), watermark = running
    max event-time over strictly-earlier arrivals − 10 min lateness,
    1 h tumbling windows. SQL twin: MAX() OVER (ORDER BY arrival ROWS
    … AND 1 PRECEDING) — exact integer microseconds throughout."""
    from . import ops

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def arr(df: pd.DataFrame) -> pd.DataFrame:
        ts_us = df["ts"].astype("datetime64[us]").astype("int64")
        jit = (df["event_id"].to_numpy() * 2654435761) % 7_200_000_000
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(),
                             "ts_us": ts_us.to_numpy(),
                             "arr_us": ts_us.to_numpy() + jit})

    return ops.late_data_window_counts(
        ds.map_batches(arr, batch_format="pandas"),
        "ts_us", "arr_us", "event_id",
        window_us=3_600_000_000, lateness_us=600_000_000)


def q_cms_user_counts(sf_dir: str):
    """Count-Min Sketch point-frequency estimates (ops.count_min_sketch,
    d=4 w=256 md5 buckets) for users 0-9 over events — completes the
    mergeable-sketch family (HLL, Misra-Gries, histogram, Bloom, CMS).
    ORACLE-CHECKED: the twin rebuilds the registers bit-for-bit, so the
    APPROXIMATION ITSELF is pinned, not just a tolerance."""
    from . import ops

    ds = _read(sf_dir, "events", ["user_id"])
    return ops.count_min_sketch(ds, "user_id", probes=list(range(10)))


def q_html_extract_docs(sf_dir: str):
    """HTML -> text extraction (textops.html_to_text — the crawl
    boilerplate-strip stage): script/style subtrees, comments and tags
    removed in that order, core entities decoded (&amp; last),
    whitespace collapsed. Each doc is wrapped in a deterministic HTML
    envelope (title/style/script-with-'<'/comment/entities) so every
    rule demonstrably fires; the twin shares the RE2 patterns and the
    wrapper verbatim."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"]
        aug = ('<html><head><title>Doc ' + ids.astype(str)
               + '</title><style>p{color:red}</style>'
               + '<script>var x=1<2;</script></head><body><!-- nav -->'
               + '<p>' + df["text"].fillna("") + '</p>'
               + '<div class="foo">tail &amp; more &lt;b&gt;</div>'
               + '</body></html>')
        out = textops.html_to_text(aug)
        out.insert(0, "doc_id", ids.to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_sq8_embeddings(sf_dir: str, d: int = 16):
    """SQ8 scalar quantization of embeddings (the vector-index
    compression primitive): pass 1 streams per-dim min/max over
    ROUND(x*1000) integer millis (tiny partials), pass 2 encodes
    code = (x−min)·255 // (max−min) per dim — all integer arithmetic,
    so the twin reproduces every code exactly. Long-format output over
    the first `d` dims."""
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def mat(df: pd.DataFrame) -> np.ndarray:
        m = np.stack(df["embedding"].to_numpy())[:, :d].astype(np.float64)
        return (np.floor(np.abs(m) * 1000 + 0.5)
                * np.sign(m)).astype(np.int64)

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        q = mat(df)
        return pd.DataFrame({"i": np.arange(d, dtype=np.int64),
                             "mn": q.min(axis=0), "mx": q.max(axis=0)})

    stats = (ds.map_batches(stat_partial, batch_format="pandas")
             .groupby("i").aggregate(Min("mn", alias_name="mn"),
                                     Max("mx", alias_name="mx"))
             .to_pandas().sort_values("i"))
    mn = stats["mn"].to_numpy()
    mx = stats["mx"].to_numpy()
    span = np.maximum(mx - mn, 1)

    def encode(df: pd.DataFrame, mn=mn, span=span) -> pd.DataFrame:
        q = mat(df)
        codes = (q - mn[None, :]) * 255 // span[None, :]
        n = len(df)
        return pd.DataFrame({
            "vec_id": np.repeat(df["vec_id"].to_numpy(), d),
            "i": np.tile(np.arange(d, dtype=np.int64), n),
            "code": codes.reshape(-1).astype(np.int64)})

    return (ds.map_batches(encode, batch_format="pandas")
            .sort(["vec_id", "i"]))


def q_dup_span_docs(sf_dir: str):
    """Duplicate-span detection (linking.dup_span_stats — the window
    formulation of Lee et al. 2022 exact-substring dedup): every 8-token
    window is hashed; windows whose text recurs corpus-wide mark
    duplicated spans, merged by the gaps-and-islands rule. A shared
    trailing sentence (doc_id%5 variants) is injected so cross-doc spans
    demonstrably fire; the twin injects the same."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def aug(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "text": (df["text"].fillna("")
                     + " common trailing sentence variant "
                     + (df["doc_id"] % 5).astype(str)
                     + " for span duplication test end")})

    return linking.dup_span_stats(
        ds.map_batches(aug, batch_format="pandas")).sort("doc_id")


def _word_counts_ds(ds):
    """documents text -> distributed (word, cnt) vocabulary (the bucketed
    high-cardinality combine shared by the BPE train/apply queries)."""
    def wc_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.split().explode().dropna()
        toks = toks[toks != ""]
        g = toks.value_counts()
        return pd.DataFrame({"word": g.index.to_numpy(),
                             "cnt": g.to_numpy(dtype=np.int64)})

    return sum_by_key(ds.map_batches(wc_partial, batch_format="pandas"),
                      ["word"], ["cnt"])


def q_bpe_tokenize_docs(sf_dir: str):
    """BPE tokenizer APPLICATION (closes the train->encode loop): the
    4-merge vocabulary from textops.bpe_train maps each distinct word to
    its post-merge token count; corpus words hash-join that vocabulary
    and per-doc BPE token totals come out of one bucketed sum. Twin:
    the unrolled training CTE extended with the word<-sym recovery
    (strip + de-space) and a doc-level join."""
    import pyarrow as pa

    from . import ops

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    _, vocab = textops.bpe_train(_word_counts_ds(ds), n_merges=4,
                                 return_vocab=True)
    vocab_tok = vocab.map_batches(
        lambda df: pd.DataFrame({
            "tok": df["sym"].str.strip().str.replace(" ", "", regex=False),
            "ntok": df["sym"].str.split().str.len().astype("int64")}),
        batch_format="pandas")
    vocab_tok = ops.materialize_normalized(vocab_tok, pa.schema(
        [("tok", pa.string()), ("ntok", pa.int64())]))

    def doc_tok_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.split()
        reps = toks.str.len().to_numpy(dtype=np.int64)
        flat = pd.DataFrame({
            "doc_id": np.repeat(df["doc_id"].to_numpy(), reps),
            "tok": np.concatenate(
                [np.array(t, dtype=object) for t in toks] or
                [np.array([], dtype=object)])})
        flat = flat[flat["tok"] != ""]
        g = (flat.groupby(["doc_id", "tok"], sort=False).size()
             .rename("n").reset_index())
        return g

    joined = (ds.map_batches(doc_tok_partial, batch_format="pandas")
              .join(vocab_tok, "inner", ops._default_partitions(),
                    on=("tok",)))

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        tot = (df["n"].to_numpy() * df["ntok"].to_numpy())
        g = pd.Series(tot, index=df.index).groupby(df["doc_id"],
                                                   sort=True).sum()
        return pd.DataFrame({"doc_id": g.index.to_numpy(),
                             "n_bpe_tokens": g.to_numpy(dtype=np.int64)})

    return (bucket_exchange(joined, ["doc_id"], per_doc, 64, "pandas")
            .sort("doc_id"))



LINK_ANCHOR_RE = r'href="https://site(\d+)\.example'

KEYWORDS = ["batch", "data", "graph", "model", "node", "query",
            "ray", "shuffle", "the", "token", "train", "vector"]


def q_link_graph_docs(sf_dir: str):
    """Hyperlink-graph extraction from HTML (the Common-Crawl web-graph
    builder): each doc is wrapped in a deterministic anchor envelope
    (three absolute links to site{(d*7+1)%997, (d*13+5)%997, d%31} plus
    mailto/relative decoys that must NOT match), hrefs are regex-parsed
    from the HTML, and the edge list is aggregated to per-target
    in-degree + distinct-source counts. The d%31 hub targets give real
    in-degree skew. Scale: extraction is a stateless vectorized
    map_batches; per-batch partial (dst -> counts) combine means only
    <=997+31 key rows leave each block (two-phase aggregate)."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        t1 = ((ids * 7 + 1) % 997).astype(str)
        t2 = ((ids * 13 + 5) % 997).astype(str)
        t3 = (ids % 31).astype(str)
        s = ids.astype(str)
        h = ('<p>intro</p><a href="https://site' + t1 + '.example/p/' + s
             + '">a</a> <a href="mailto:nobody@example.org">m</a>'
             + '<a href="https://site' + t2 + '.example/p/' + s + '">b</a>'
             + '<a href="/local/path">rel</a>'
             + '<a href="https://site' + t3 + '.example/p/' + s + '">c</a>')
        hits = h.str.findall(LINK_ANCHOR_RE)
        edges = pd.DataFrame({
            "src": np.repeat(ids.to_numpy(), hits.str.len().to_numpy()),
            "dst": pd.to_numeric(
                hits.explode().dropna(), downcast=None).astype("int64"),
        })
        per = edges.groupby("dst", sort=False).agg(
            in_deg=("src", "size"), n_srcs=("src", "nunique"))
        return per.reset_index().astype(
            {"dst": "int64", "in_deg": "int64", "n_srcs": "int64"})

    # n_srcs partials sum correctly: each src doc lives in exactly one
    # input block, so (src, dst) pairs never straddle partials.
    partials = ds.map_batches(extract, batch_format="pandas").to_pandas()
    out = (partials.groupby("dst", as_index=False)[["in_deg", "n_srcs"]]
           .sum().sort_values("dst").reset_index(drop=True))
    return out.astype({"in_deg": "int64", "n_srcs": "int64"})


class _KeywordMatcher:
    """Multi-keyword corpus scan: patterns compiled ONCE per actor in
    __init__ (the stateful actor-pool contract), vectorized
    ``Series.str.count`` per batch. Leftmost non-overlapping literal
    counts — identical semantics to RE2 ``regexp_extract_all`` in the
    DuckDB twin."""

    def __init__(self):
        import re
        self.pats = [(k, re.compile(re.escape(k))) for k in KEYWORDS]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        txt = df["text"].fillna("")
        rows = []
        for k, p in self.pats:
            c = txt.str.count(p)
            rows.append((k, int((c > 0).sum()), int(c.sum())))
        return pd.DataFrame(rows, columns=["keyword", "n_docs", "n_matches"])


def _actor_pool() -> dict:
    """``map_batches`` arguments for a pool of up to 2 actors that leaves
    one CPU to the reads feeding it: two 1-CPU actors at 2 CPUs held both,
    and the ReadParquet tasks never scheduled. The pool shares the other
    CPUs; at 1 CPU its one actor takes none."""
    from .util import cluster_cpus

    spare = cluster_cpus() - 1
    n = max(1, min(2, spare))
    return {"concurrency": n, "num_cpus": min(1.0, spare / n)}


def q_keyword_match_docs(sf_dir: str):
    """Multi-keyword match statistics over the corpus (the blocklist /
    taxonomy-tagging primitive): per keyword, how many docs contain it
    and total occurrence count. Partials are 12 rows per batch; the
    final merge is a driver-side sum (two-phase aggregate)."""
    ds = _read(sf_dir, "documents", ["text"])
    partials = ds.map_batches(
        _KeywordMatcher, batch_format="pandas", **_actor_pool()).to_pandas()
    out = (partials.groupby("keyword", as_index=False)[["n_docs", "n_matches"]]
           .sum().sort_values("keyword").reset_index(drop=True))
    return out.astype({"n_docs": "int64", "n_matches": "int64"})


def q_hopping_window_events(sf_dir: str):
    """Hopping (sliding) window counts — 2 h windows every 30 min, so
    each event lands in exactly 4 windows (the overlapping-window
    companion to the tumbling q_watermark_window_events). Expansion is
    a vectorized repeat/tile inside map_batches; per-batch partial
    counts combine before the tiny final merge (window x type
    cardinality is bounded by time-span/30min, not input rows)."""
    HOP = 1_800_000_000  # 30 min in us
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        base = ts // HOP * HOP
        n = len(df)
        g = pd.DataFrame({
            "ws_us": (np.repeat(base, 4)
                      - np.tile(np.arange(4, dtype=np.int64), n) * HOP),
            "event_type": np.repeat(df["event_type"].to_numpy(), 4)})
        p = (g.groupby(["ws_us", "event_type"], sort=False)
             .size().reset_index(name="n"))
        return p.astype({"ws_us": "int64", "n": "int64"})

    partials = ds.map_batches(expand, batch_format="pandas").to_pandas()
    out = (partials.groupby(["ws_us", "event_type"], as_index=False)["n"]
           .sum().sort_values(["ws_us", "event_type"])
           .reset_index(drop=True))
    return out.astype({"ws_us": "int64", "n": "int64"})


def q_gap_fill_events(sf_dir: str):
    """Dense time-series resample with zero-fill (gap filling): hourly
    counts per event_type over the FULL [min, max] hour range, missing
    buckets emitted as 0. Counts come from per-batch partial combine;
    the dense grid is bounded by (hours-in-span x n_types) — independent
    of input row count — so the driver-side reindex is scale-safe."""
    H = 3_600_000_000  # 1 h in us
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        hb = df["ts"].astype("datetime64[us]").astype("int64") // H
        g = (pd.DataFrame({"event_type": df["event_type"], "hb": hb})
             .groupby(["event_type", "hb"], sort=False)
             .size().reset_index(name="n"))
        return g.astype({"hb": "int64", "n": "int64"})

    partials = ds.map_batches(part, batch_format="pandas").to_pandas()
    counts = partials.groupby(["event_type", "hb"], as_index=False)["n"].sum()
    types = sorted(counts["event_type"].unique())
    mn, mx = int(counts["hb"].min()), int(counts["hb"].max())
    idx = pd.MultiIndex.from_product(
        [types, range(mn, mx + 1)], names=["event_type", "hb"])
    dense = (counts.set_index(["event_type", "hb"])
             .reindex(idx, fill_value=0).reset_index())
    dense["hr_us"] = (dense["hb"] * H).astype("int64")
    dense["n"] = dense["n"].astype("int64")
    return (dense[["event_type", "hr_us", "n"]]
            .sort_values(["event_type", "hr_us"]).reset_index(drop=True))


def q_dsir_select_docs(sf_dir: str):
    """DSIR-style hashed n-gram importance scoring (Xie et al. 2023,
    'Data Selection for Language Models via Importance Resampling'):
    tokens hash into 256 md5 buckets; a target distribution (lang='en'
    docs) and the raw distribution are estimated as bucket counts in ONE
    streaming pass; each doc then gets an importance score. The paper's
    log-likelihood-ratio is replaced by the exact-integer linear score
    sum_tok(ct[b]*Nr - cr[b]*Nt) (same sign/ordering signal for
    bucket-level ratios) so the oracle twin reproduces every score
    bit-for-bit — no float log in either side. Scale: pass 1 moves <=256
    partial rows per batch; the 256-int tables broadcast in the pass-2
    closure; docs never straddle batches so per-doc scores are complete
    per block."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def _bucket(tokens: pd.Series) -> np.ndarray:
        uniq = pd.unique(tokens)
        bmap = {t: int(hashlib.md5(t.encode()).hexdigest()[:2], 16)
                for t in uniq}
        return tokens.map(bmap).to_numpy(np.int64)

    def _tokens(df: pd.DataFrame) -> pd.Series:
        toks = df["text"].fillna("").str.split().explode().dropna()
        return toks[toks != ""]

    def p1(df: pd.DataFrame) -> pd.DataFrame:
        toks = _tokens(df)
        en = df["lang"].eq("en").loc[toks.index].to_numpy()
        g = (pd.DataFrame({"b": _bucket(toks), "cr": 1,
                           "ct": en.astype(np.int64)})
             .groupby("b", as_index=False).sum())
        return g.astype({"b": "int64", "cr": "int64", "ct": "int64"})

    cnt = (ds.map_batches(p1, batch_format="pandas").to_pandas()
           .groupby("b", as_index=False).sum())
    ct = np.zeros(256, np.int64)
    cr = np.zeros(256, np.int64)
    ct[cnt["b"].to_numpy()] = cnt["ct"].to_numpy()
    cr[cnt["b"].to_numpy()] = cnt["cr"].to_numpy()
    nt, nr = int(ct.sum()), int(cr.sum())

    def p2(df: pd.DataFrame, ct=ct, cr=cr, nt=nt, nr=nr) -> pd.DataFrame:
        toks = _tokens(df)
        b = _bucket(toks)
        ids = df["doc_id"].loc[toks.index].to_numpy()
        s = (pd.DataFrame({"doc_id": ids, "score": ct[b] * nr - cr[b] * nt})
             .groupby("doc_id", as_index=False)["score"].sum())
        return s.astype({"doc_id": "int64", "score": "int64"})

    out = ds.map_batches(p2, batch_format="pandas").to_pandas()
    return (out.groupby("doc_id", as_index=False)["score"].sum()
            .sort_values("doc_id").reset_index(drop=True)
            .astype({"doc_id": "int64", "score": "int64"}))


class _PdfRoundtrip:
    """Doc text → multi-page FlateDecode PDF → extracted text (the
    crawl PDF→text stage, pdfextract.py): newlines injected after
    sentences, lines paginated 5 per page, pages joined back with
    newlines by the extractor — so extracted == input exactly and the
    whole codec path (writer, page-tree walk, zlib, string escapes) is
    oracle-checked. Codec module resolved once per actor."""

    def __init__(self):
        from . import pdfextract
        self.x = pdfextract

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        outs, npages, nchars = [], [], []
        for t in df["text"].fillna(""):
            t = t.replace(". ", ".\n")
            lines = t.split("\n")
            pages = ["\n".join(lines[k:k + 5])
                     for k in range(0, len(lines), 5)]
            b = self.x.encode_pdf_text(pages)
            outs.append(self.x.extract_pdf_text(b))
            npages.append(self.x.probe_pdf(b)["pages"])
            nchars.append(len(outs[-1]))
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "extracted": outs,
            "n_pages": np.asarray(npages, np.int64),
            "n_chars": np.asarray(nchars, np.int64)})


def q_pdf_extract_docs(sf_dir: str):
    """PDF text extraction over the corpus (actor-pool codec stage —
    see _PdfRoundtrip). n_pages comes from probe_pdf on the real bytes,
    so the twin's ceil(lines/5) arithmetic checks the writer's page
    tree, not just the text."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_PdfRoundtrip, batch_format="pandas",
                          **_actor_pool()).sort("doc_id")


def q_validate_events(sf_dir: str):
    """Data-quality expectation audit (a Great-Expectations-style rule
    suite as ONE distributed pass): per-rule violation counts over the
    events stream. The four stateless rules combine per batch (four
    ints per block move). The duplicate-key rule needs co-location:
    (user_id, minute) pairs pre-count per batch, then ONE bucketed
    shuffle where each bucket sums the group sizes >1 — one int per
    bucket returns. At 100 TB nothing but rule partials crosses the
    wire."""
    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value",
                "props"])
    cutoff = np.datetime64("2024-01-25T00:00:00")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].str.extract(r'"k":\s*(-?\d+)', expand=False)
        return pd.DataFrame({
            "value_over_250": [int((df["value"] > 250).sum())],
            "type_is_error": [int((df["event_type"] == "error").sum())],
            "ts_after_jan25":
                [int((df["ts"].to_numpy() >= cutoff).sum())],
            "props_k_zero":
                [int((k.astype("float64") == 0).sum())]})

    flat = (ds.map_batches(partial, batch_format="pandas")
            .to_pandas().sum())

    # duplicate (user, minute) keys: per-batch partial counts, bucketed
    # final sum of sizes>1 (vectorized; high-cardinality-safe)
    def dup_partial(df: pd.DataFrame) -> pd.DataFrame:
        m = df["ts"].dt.floor("min")
        return (pd.DataFrame({"user_id": df["user_id"], "m": m, "c": 1})
                .groupby(["user_id", "m"], sort=False, as_index=False)
                .sum())

    def dup_fold(df: pd.DataFrame) -> pd.DataFrame:
        sz = df.groupby(["user_id", "m"], sort=False)["c"].sum()
        return pd.DataFrame({"v": [int(sz[sz > 1].sum())]})

    dup = bucket_exchange(ds.map_batches(dup_partial, batch_format="pandas"),
                          ["user_id"], dup_fold, 32,
                          "pandas").to_pandas()["v"].sum()

    rules = {"dup_user_minute": int(dup),
             "props_k_zero": int(flat["props_k_zero"]),
             "ts_after_jan25": int(flat["ts_after_jan25"]),
             "type_is_error": int(flat["type_is_error"]),
             "value_over_250": int(flat["value_over_250"])}
    out = pd.DataFrame({"rule": list(rules), "n_violations":
                        pd.Series(list(rules.values()), dtype="int64")})
    return out.sort_values("rule").reset_index(drop=True)


def q_kanon_events(sf_dir: str):
    """k-anonymity audit (privacy gate before corpus release): rows
    whose quasi-identifier tuple (event_type, day, value bucket of 50)
    is shared by fewer than k=5 rows are re-identifiable. Per-batch
    partial counts per QI tuple → one hash aggregate → per-type risk
    rollup. Only (QI, count) partials shuffle."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "event_type": df["event_type"],
            "day": df["ts"].dt.floor("D"),
            "vb": (df["value"].to_numpy(dtype=np.float64) // 50)
                  .astype("int64"),
            "c": 1})
        return g.groupby(["event_type", "day", "vb"], sort=False,
                         as_index=False).sum()

    groups = (ds.map_batches(partial, batch_format="pandas")
              .groupby(["event_type", "day", "vb"])
              .aggregate(Sum(on="c", alias_name="c")))

    def risk(df: pd.DataFrame) -> pd.DataFrame:
        small = df["c"] < 5
        return pd.DataFrame({
            "event_type": df["event_type"],
            "n_groups": np.ones(len(df), dtype="int64"),
            "n_small_groups": small.astype("int64"),
            "n_rows_at_risk": (df["c"] * small).astype("int64")})

    out = (groups.map_batches(risk, batch_format="pandas").to_pandas()
           .groupby("event_type", as_index=False).sum())
    for c in ("n_groups", "n_small_groups", "n_rows_at_risk"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def q_table_diff_events(sf_dir: str):
    """Snapshot reconciliation (table diff): OLD = events with
    event_id%3!=0, NEW = events with event_id%5!=0 and value bumped by
    1 where event_id%7==0 — the injected-envelope pattern. A REAL
    distributed diff: both sides tag and co-locate in ONE bucketed
    shuffle on event_id; each bucket classifies added / removed /
    changed / unchanged vectorized and returns per-status partials
    (count + id checksum), so the diff report is O(statuses), never the
    table."""
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        eid = df["event_id"].astype("int64")
        cents = _cents(df["value"])
        old = pd.DataFrame({"event_id": eid, "cents": cents,
                            "side": "old"})[(eid % 3 != 0).to_numpy()]
        newc = cents + (eid % 7 == 0).astype("int64") * 100
        new = pd.DataFrame({"event_id": eid, "cents": newc,
                            "side": "new"})[(eid % 5 != 0).to_numpy()]
        return pd.concat([old, new], ignore_index=True)

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        p = df.pivot_table(index="event_id", columns="side",
                           values="cents", aggfunc="first")
        for c in ("old", "new"):
            if c not in p.columns:
                p[c] = np.nan
        status = np.where(
            p["old"].isna(), "added",
            np.where(p["new"].isna(), "removed",
                     np.where(p["old"] != p["new"], "changed",
                              "unchanged")))
        g = pd.DataFrame({"status": status,
                          "n": np.ones(len(p), dtype="int64"),
                          "id_sum": p.index.to_numpy(dtype="int64")})
        return g.groupby("status", sort=False, as_index=False).sum()

    parts = bucket_exchange(ds.map_batches(tag, batch_format="pandas"),
                            ["event_id"], classify, 32,
                            "pandas").to_pandas()
    out = parts.groupby("status", as_index=False).sum()
    out["n"] = out["n"].astype("int64")
    out["id_sum"] = out["id_sum"].astype("int64")
    return out.sort_values("status").reset_index(drop=True)


def _inject_sentences(d: pd.Series, t: pd.Series) -> pd.Series:
    """Deterministic sentence-punctuation envelope for the corpus (the
    synth docs carry none): '.' after every k-th word, k = 5+doc_id%3.
    Vectorized explode → mark → groupby-join; used by the sentence-split
    and readability twins, whose SQL replays the arithmetic outcome."""
    k = (5 + d % 3).to_numpy()
    ex = t.str.split(" ").explode()
    pos = ex.groupby(level=0).cumcount().to_numpy()
    k_ex = k[ex.index.to_numpy()]
    w2 = ex + np.where((pos + 1) % k_ex == 0, ".", "")
    joined = w2.groupby(level=0).agg(" ".join)
    return joined.reindex(t.index, fill_value="")


def q_sentence_split_docs(sf_dir: str):
    """Sentence segmentation (textops.sentence_split_stats — split on
    terminal-punctuation runs, strip, drop empties) over the
    punctuation-injected corpus. Stateless per batch; the twin replays
    the injection arithmetic: n = ceil(nw/k), chars = len+1-n."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        st = textops.sentence_split_stats(_inject_sentences(d, t))
        n = st["n_sentences"]
        avg = np.where(n > 0, (1000 * st["sum_chars"]) // n.clip(lower=1),
                       0)
        return pd.DataFrame({"doc_id": d, "n_sentences": n,
                             "sum_chars": st["sum_chars"],
                             "avg_len_milli": avg.astype("int64")})

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_readability_docs(sf_dir: str):
    """Flesch reading-ease scoring (the classic readability gate) in
    EXACT integer milli-units: words and vowel-group syllables count
    vectorized (textops.syllable_counts), sentences come from the REAL
    splitter over the injected punctuation, and the formula
    206.835 − 1.015 W/S − 84.6 Syl/W evaluates with floor division —
    no float anywhere, so the twin is bit-exact."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        ex = t.str.split(" ").explode()
        ex = ex[ex.ne("")]
        w = ex.groupby(level=0).size().reindex(t.index, fill_value=0)
        syl = (textops.syllable_counts(ex).groupby(level=0).sum()
               .reindex(t.index, fill_value=0))
        s = textops.sentence_split_stats(
            _inject_sentences(d, t))["n_sentences"]
        ws, ss = w.clip(lower=1), s.clip(lower=1)
        fre = (206835 - (1015 * w) // ss - (84600 * syl) // ws)
        fre = np.where((w > 0) & (s > 0), fre, 0)
        return pd.DataFrame({
            "doc_id": d, "n_words": w.astype("int64"),
            "n_sentences": s.astype("int64"),
            "n_syllables": syl.astype("int64"),
            "fre_milli": fre.astype("int64")})

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_feature_hash_docs(sf_dir: str):
    """Hashing-trick featurization (the 64-dim bag-of-words a linear
    quality classifier trains on at 100 TB): bucket = md5(token) first
    byte mod 64 — the registry's oracle-checkable hash idiom — counted
    per doc. Emits the sparse-vector summary (nnz, l1, argmax bucket
    with smallest-id tie-break) so the result is rankable, not raw
    floats. Tokens hash once per unique word per batch."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    dim = 64

    def f(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        t = df["text"].fillna("").reset_index(drop=True)
        ex = t.str.split(" ").explode()
        ex = ex[ex.ne("")]
        bmap = {w: int(hashlib.md5(w.encode()).hexdigest()[:2], 16) % dim
                for w in pd.unique(ex)}
        cnt = (pd.DataFrame({"row": ex.index.to_numpy(),
                             "b": ex.map(bmap).to_numpy(dtype="int64"),
                             "c": 1})
               .groupby(["row", "b"], as_index=False).sum()
               .sort_values(["row", "c", "b"],
                            ascending=[True, False, True]))
        top = cnt.groupby("row", as_index=False).first()
        agg = cnt.groupby("row").agg(nnz=("b", "size"), l1=("c", "sum"))
        out = pd.DataFrame({"doc_id": d})
        out["nnz"] = agg["nnz"].reindex(out.index, fill_value=0).astype("int64")
        out["l1"] = agg["l1"].reindex(out.index, fill_value=0).astype("int64")
        top = top.set_index("row")
        out["top_bucket"] = top["b"].reindex(out.index, fill_value=-1).astype("int64")
        out["top_count"] = top["c"].reindex(out.index, fill_value=0).astype("int64")
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_porter_stem_docs(sf_dir: str):
    """Porter stemming (M.F. Porter 1980, the ORIGINAL published rule
    set) over the document corpus: tokenize `[a-z]+` of the lowercased
    text, stem every token (textops.porter_stem — per-batch
    unique-vocabulary memoization, so cost is O(vocab) not O(tokens)),
    then one tiny grouped aggregate (stem -> distinct surface forms,
    token occurrences).

    Oracle contract: the synthetic corpus vocabulary is CLOSED (31
    words at every sf — verified in tests), so the SQL twin maps tokens
    through a hand-derived CASE of the same published rules (the only
    non-identity stems: customer->custom, key->kei, merge->merg,
    query->queri, table->tabl, value->valu).  The algorithm itself is
    pinned independently by ~60 published example pairs from the 1980
    paper in tests/test_porter.py, so the twin checks the distributed
    pipeline while the unit suite checks the rule set."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df["text"].fillna("").str.lower()
                .str.findall(r"[a-z]+").explode().dropna())
        if toks.empty:
            return pd.DataFrame({"stem": pd.Series([], dtype="object"),
                                 "token": pd.Series([], dtype="object"),
                                 "cnt": pd.Series([], dtype="int64")})
        cnt = toks.value_counts()
        out = pd.DataFrame({"token": cnt.index.to_numpy(dtype="object"),
                            "cnt": cnt.to_numpy(dtype="int64")})
        out.insert(0, "stem", textops.porter_stem(out["token"]).to_numpy())
        return out

    def per_stem(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("stem", sort=False).agg(
            n_forms=("token", "nunique"), n_tokens=("cnt", "sum"))
        return g.reset_index().astype({"n_forms": "int64",
                                       "n_tokens": "int64"})

    return (bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                            ["stem"], per_stem, 16, "pandas")
            .sort("stem"))


def q_copurchase_pairs(sf_dir: str, min_item_support: int = 2,
                       min_pair_support: int = 2):
    """Market-basket co-occurrence pairs (A-Priori / PCY, Park-Chen-Yu
    SIGMOD'95): baskets = distinct parts per order, support(a,b) =
    number of orders containing both, keep support >= 2.

    Scale shape: ONE bucketed shuffle on orderkey builds globally
    distinct baskets (an order's lines can span input blocks); the
    A-Priori stage-1 frequent-item table is a tiny partial-combined
    aggregate broadcast by closure (frequent items are small by
    definition for any meaningful threshold — the monotonicity argument
    of the paper); pair expansion is a vectorized per-bucket self-merge
    emitting PRE-COMBINED partial counts; the final (a,b) combine is a
    second bucketed exchange. The item prefilter cannot change the
    result (pair support <= item support), so the SQL twin states the
    pair rule directly."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    b = distinct_rows(ds.rename_columns({"l_orderkey": "o",
                                         "l_partkey": "p"}), ["o", "p"])
    b = b.materialize()  # consumed twice (invariant 10)

    # A-Priori stage 1: frequent items (tiny; |parts| rows max)
    isup = (b.map_batches(
        lambda df: df.groupby("p", as_index=False).agg(n=("o", "size")),
        batch_format="pandas").to_pandas())
    isup = isup.groupby("p")["n"].sum()
    freq = frozenset(isup.index[isup >= min_item_support].tolist())

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["p"].isin(freq)][["o", "p"]]
        m = df.merge(df, on="o")
        m = m[m["p_x"] < m["p_y"]]
        out = (m.groupby(["p_x", "p_y"], sort=False).size()
               .rename("n").reset_index()
               .rename(columns={"p_x": "a", "p_y": "b"}))
        return out

    part = bucket_exchange(b, ["o"], pairs, 64, "pandas")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["a", "b"], as_index=False)["n"].sum()
             .rename(columns={"n": "support"}))
        g = g[g["support"] >= min_pair_support]
        g["support"] = g["support"].astype("int64")
        return g

    return (bucket_exchange(part, ["a", "b"], combine, 64, "pandas")
            .sort(["a", "b"]))



def q_pmi_bigrams(sf_dir: str):
    """PMI collocation mining (pointwise mutual information over
    adjacent-token bigrams, Church & Hanks 1990), float-free: the PMI
    ordering statistic exp(PMI) = P(xy)/(P(x)P(y)) is emitted as the
    exact integer micro-ratio  n_xy*N*N*10^6 // (B*n_x*n_y)  (Python
    big ints in the engine, HUGEINT in the twin), so the hash gate sees
    no log/division noise.

    Scale shape: per-batch TAGGED partial counts (unigram rows + bigram
    rows, pre-combined inside the batch so only O(vocab + vocab^2) rows
    ever move), one tiny driver-side final combine — the aggregate is
    bounded by vocabulary size, not corpus size."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df["text"].fillna("").str.lower()
                .str.findall(r"[a-z]+"))
        ex = toks.explode().dropna()
        uni = ex.value_counts()
        nxt = ex.groupby(level=0).shift(-1)
        both = pd.DataFrame({"w1": ex.to_numpy(dtype=object),
                             "w2": nxt.to_numpy(dtype=object)}).dropna()
        bi = both.groupby(["w1", "w2"], sort=False).size()
        u = pd.DataFrame({"kind": "u", "w1": uni.index.to_numpy(dtype=object),
                          "w2": "", "cnt": uni.to_numpy(dtype="int64")})
        b = bi.rename("cnt").reset_index()
        b.insert(0, "kind", "b")
        b["cnt"] = b["cnt"].astype("int64")
        out = pd.concat([u, b], ignore_index=True)
        return out[["kind", "w1", "w2", "cnt"]]

    part = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = part.groupby(["kind", "w1", "w2"], as_index=False)["cnt"].sum()
    uni = agg[agg["kind"] == "u"].set_index("w1")["cnt"]
    bi = agg[agg["kind"] == "b"]
    n_total = int(uni.sum())
    b_total = int(bi["cnt"].sum())
    nx = bi["w1"].map(uni).to_numpy(dtype="int64")
    ny = bi["w2"].map(uni).to_numpy(dtype="int64")
    nxy = bi["cnt"].to_numpy(dtype="int64")
    ratio = [int(x) * n_total * n_total * 10**6 // (b_total * int(a) * int(c))
             for x, a, c in zip(nxy, nx, ny)]
    out = pd.DataFrame({"w1": bi["w1"].to_numpy(dtype=object),
                        "w2": bi["w2"].to_numpy(dtype=object),
                        "n_xy": nxy,
                        "pmi_ratio_micro": pd.array(ratio, dtype="int64")})
    return (out.sort_values(["w1", "w2"]).reset_index(drop=True))


def q_bleu_pairs(sf_dir: str):
    """BLEU overlap statistics (Papineni et al. 2002) between paired
    documents (candidate = even doc_id, reference = doc_id+1): per pair
    the CLIPPED n-gram match counts m1..m4 (sum over distinct grams of
    min(count_cand, count_ref) — the modified-precision numerators),
    the candidate gram totals t1..t4 (denominators) and both lengths
    (brevity-penalty inputs).  All outputs are raw integers, so the
    composite BLEU score is reconstructible downstream without any
    float leaving the engine.

    Scale shape: one bucketed shuffle on pair_id co-locates each pair;
    n-gram counting is per-pair local (the inherent O(tokens) work) and
    emits 11 ints per pair — no second exchange."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def pair_stats(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        toks = df["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        df = pd.DataFrame({"pid": df["pid"].to_numpy(),
                           "role": (df["doc_id"] % 2).to_numpy(),
                           "toks": toks.to_numpy(dtype=object)})
        rows = []
        for pid, g in df.groupby("pid", sort=False):
            if len(g) != 2 or set(g["role"]) != {0, 1}:
                continue
            c = g.loc[g["role"] == 0, "toks"].iloc[0]
            r = g.loc[g["role"] == 1, "toks"].iloc[0]
            rec = {"pair_id": int(pid),
                   "len_c": len(c), "len_r": len(r)}
            for n in range(1, 5):
                cg = Counter(tuple(c[i:i + n])
                             for i in range(len(c) - n + 1))
                rg = Counter(tuple(r[i:i + n])
                             for i in range(len(r) - n + 1))
                rec[f"t{n}"] = max(len(c) - n + 1, 0)
                rec[f"m{n}"] = sum(min(v, rg[k])
                                   for k, v in cg.items() if k in rg)
            rows.append(rec)
        cols = ["pair_id", "len_c", "len_r",
                "t1", "t2", "t3", "t4", "m1", "m2", "m3", "m4"]
        if not rows:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        out = pd.DataFrame(rows, columns=cols)
        return out.astype("int64")

    return (bucket_exchange(_with_pair_id(ds), ["pid"], pair_stats, 64,
                            "pandas")
            .sort("pair_id"))


def _with_pair_id(ds):
    """documents + ``pid = doc_id // 2``: the (even, odd) document
    pairing of the BLEU and ROUGE-L queries."""
    return ds.map_batches(lambda df: df.assign(pid=df["doc_id"] // 2),
                          batch_format="pandas")


def q_interval_coverage_events(sf_dir: str):
    """Interval union length per user (the merge-overlapping-intervals /
    gaps-and-islands op): each event spans [ts, ts + dur) with the
    deterministic duration  dur_s = abs(cents(value)) % 300 + 1;
    overlapping spans merge, and the query reports per user the number
    of merged islands and the total covered microseconds — union
    length, NOT the double-counted sum.

    Scale shape: one bucketed shuffle on user_id, then a fully
    vectorized in-bucket island pass (sort + per-user shifted running
    max — no Python loop); 2 ints per user leave the bucket."""
    ds = _read(sf_dir, "events", ["ts", "user_id", "value"])

    def spans(df: pd.DataFrame) -> pd.DataFrame:
        s = df["ts"].astype("datetime64[us]").astype("int64")
        dur = (np.abs(_cents(df["value"]).to_numpy()) % 300 + 1) * 1_000_000
        return pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                             "s": s, "e": s + dur})

    def islands(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "s", "e"], kind="mergesort")
        u = df["user_id"].to_numpy()
        s = df["s"].to_numpy()
        e = df["e"].to_numpy()
        new_user = np.r_[True, u[1:] != u[:-1]]
        seg_id = np.cumsum(new_user) - 1
        # per-user running max of interval ends, shifted one row
        pmax = pd.Series(e).groupby(seg_id).cummax().to_numpy()
        prev = np.r_[np.int64(0), pmax[:-1]]
        new_island = new_user | (s > prev)
        isl = np.cumsum(new_island) - 1
        per = (pd.DataFrame({"user_id": u, "isl": isl, "s": s, "e": e})
               .groupby(["user_id", "isl"], sort=False)
               .agg(lo=("s", "min"), hi=("e", "max")).reset_index())
        per["cov"] = per["hi"] - per["lo"]
        out = per.groupby("user_id", as_index=False).agg(
            n_islands=("isl", "size"), covered_us=("cov", "sum"))
        return out.astype({"n_islands": "int64", "covered_us": "int64"})

    return (bucket_exchange(ds.map_batches(spans, batch_format="pandas"),
                            ["user_id"], islands, 64, "pandas")
            .sort("user_id"))


def q_ewma_events(sf_dir: str):
    """Integer EWMA (alpha = 1/2) per user over the event timeline:
    e_1 = c_1,  e_t = (e_{t-1} + c_t) // 2  over c = abs(cents(value)),
    ordered by (ts, event_id).  Nonnegative ints keep Python floor-div
    and DuckDB's truncating `//` identical, so the recursive-CTE twin
    is exact.

    Scale shape: one bucketed shuffle on user_id; the inherently
    sequential recurrence is STEP-vectorized — one numpy update over
    ALL users per timeline position (O(max_seq_len) kernel launches,
    no per-row Python), the same trick a GPU scan would use."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def magnitudes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "ts": df["ts"].to_numpy(),
            "event_id": df["event_id"].to_numpy(),
            "c": np.abs(_cents(df["value"]).to_numpy())})

    def ewma(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        codes, uniques = pd.factorize(df["user_id"], sort=False)
        pos = df.groupby(codes).cumcount().to_numpy()
        c = df["c"].to_numpy()
        state = np.zeros(len(uniques), dtype=np.int64)
        counts = np.bincount(codes, minlength=len(uniques))
        for t in range(int(pos.max()) + 1 if len(pos) else 0):
            sel = pos == t
            uc = codes[sel]
            if t == 0:
                state[uc] = c[sel]
            else:
                state[uc] = (state[uc] + c[sel]) // 2
        return pd.DataFrame({
            "user_id": np.asarray(uniques, dtype="int64"),
            "n": counts.astype("int64"),
            "ewma_final": state})

    return (bucket_exchange(ds.map_batches(magnitudes, batch_format="pandas"),
                            ["user_id"], ewma, 64, "pandas")
            .sort("user_id"))


ROUGE_CAP = 12


def q_rouge_l_pairs(sf_dir: str, cap: int = ROUGE_CAP):
    """ROUGE-L overlap statistics (Lin 2004) between paired documents
    (candidate = even doc_id, reference = doc_id+1, the q_bleu_pairs
    pairing): per pair the LCS length of the first ``cap`` tokens per
    side plus both FULL token counts — raw integers only, so ROUGE-L
    precision/recall/F are reconstructible downstream with no float
    leaving the engine. The prefix cap is the documented contract (it
    bounds the O(cap²) DP and keeps the SQL twin tractable).

    Scale shape: one bucketed shuffle on pair_id co-locates each pair;
    the LCS DP is vectorized ACROSS pairs (cap² scalar steps, each a
    numpy op over the whole pair dimension — never a per-pair Python
    DP). The twin unrolls the running-max row reformulation
    dp[i][j] = max(dp[i-1][j], max_{j'≤j, a_i=b_j'} dp[i-1][j'-1]+1),
    which makes each DP row ONE window function over the previous
    row's CTE — cap chained CTEs, all integer."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def pair_lcs(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(r"[a-z]+")
        df = pd.DataFrame({"pid": df["pid"].to_numpy(),
                           "role": (df["doc_id"] % 2).to_numpy(),
                           "toks": toks.to_numpy(dtype=object)})
        pids, cands, refs = [], [], []
        for pid, g in df.groupby("pid", sort=False):
            if len(g) != 2 or set(g["role"]) != {0, 1}:
                continue
            pids.append(int(pid))
            cands.append(g.loc[g["role"] == 0, "toks"].iloc[0])
            refs.append(g.loc[g["role"] == 1, "toks"].iloc[0])
        cols = ["pair_id", "len_c", "len_r", "lcs"]
        if not pids:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in cols})
        P = len(pids)
        # distinct pads so a padding cell never matches anything
        A = np.full((P, cap), "\x00", dtype=object)
        B = np.full((P, cap), "\x01", dtype=object)
        for r, (c, rf) in enumerate(zip(cands, refs)):
            for i, t in enumerate(c[:cap]):
                A[r, i] = t
            for j, t in enumerate(rf[:cap]):
                B[r, j] = t
        dp = np.zeros((P, cap + 1), dtype=np.int64)
        for i in range(1, cap + 1):
            ndp = np.zeros_like(dp)
            ai = A[:, i - 1]
            for j in range(1, cap + 1):
                m = np.where(ai == B[:, j - 1], dp[:, j - 1] + 1, 0)
                ndp[:, j] = np.maximum(np.maximum(dp[:, j],
                                                  ndp[:, j - 1]), m)
            dp = ndp
        return pd.DataFrame({
            "pair_id": np.asarray(pids, dtype="int64"),
            "len_c": np.asarray([len(c) for c in cands], dtype="int64"),
            "len_r": np.asarray([len(r) for r in refs], dtype="int64"),
            "lcs": dp[:, cap]})

    return (bucket_exchange(_with_pair_id(ds), ["pid"], pair_lcs, 64,
                            "pandas")
            .sort("pair_id"))



def q_image_dhash_pairs(sf_dir: str):
    """Perceptual-hash image near-dup pairs (dHash, the integer member
    of the aHash/dHash/pHash family): per doc a deterministic 16x16 RGB
    image (squared-key hash pixels — the square decorrelates gradient
    orderings across docs; odd doc = its even twin with a 2-cell
    perturbation) goes through the REAL image path — PNG encode
    → engine PNG decode → integer luma → nearest resize to 8x9 → 64
    horizontal-gradient bits — then linking.hamming_neardup_pairs finds
    hamming<=3 pairs with the lossless 4x16 band exchange. Every
    arithmetic step (pixel formula, 299/587/114//1000 luma, (i*16)//n
    resize sampling, bit packing, band blocking, nibble popcount) is
    integer, so the DuckDB twin reproduces the pairs EXACTLY without
    decoding a single image — the PNG roundtrip is pinned by parity.

    Scale shape: stateless per-doc signature map (tiny images), then
    ONE stable-bucket band exchange — the image corpus never joins
    all-pairs."""
    from . import multimodal, pngcodec

    ds = _read(sf_dir, "documents", ["doc_id"])

    def dhash_hex(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64").to_numpy()
        base = ids // 2
        r = np.arange(16).reshape(1, 16, 1, 1)
        c = np.arange(16).reshape(1, 1, 16, 1)
        ch = np.arange(3).reshape(1, 1, 1, 3)
        k = (base.reshape(-1, 1, 1, 1) * 12289 + r * 769 + c * 49
             + ch * 7 + 1)
        px = ((k * k) // 8192) % 256
        odd = (ids % 2 == 1)
        px[odd, 0, 0:2, :] = (px[odd, 0, 0:2, :] + 96) % 256
        px = px.astype(np.uint8)
        grays = np.empty((len(ids), 16, 16), np.int64)
        for i in range(len(ids)):                  # real codec roundtrip
            arr = multimodal.decode_image(pngcodec.encode_png(px[i]))
            a = arr.astype(np.int64)
            grays[i] = (299 * a[..., 0] + 587 * a[..., 1]
                        + 114 * a[..., 2]) // 1000
        rr = (np.arange(8) * 16) // 8
        cc = (np.arange(9) * 16) // 9
        g = grays[:, rr][:, :, cc]                 # (D, 8, 9)
        bits = (g[:, :, :8] > g[:, :, 1:]).astype(np.uint64)  # (D, 8, 8)
        p = (np.arange(8).reshape(8, 1) * 8
             + np.arange(8).reshape(1, 8)).astype(np.uint64)
        hv = (bits << p).reshape(len(ids), 64).sum(axis=1)
        return pd.DataFrame({
            "doc_id": ids,
            "hex": [format(int(x), "016x") for x in hv]})

    return linking.hamming_neardup_pairs(
        ds.map_batches(dhash_hex, batch_format="pandas"),
        max_hamming=3).sort(["a", "b"])


def q_wordpiece_stats_docs(sf_dir: str):
    """WordPiece tokenization stats (greedy longest-match-first,
    Schuster & Nakajima / BERT, over textops.WORDPIECE_VOCAB — a fixed
    closed vocab whose single-letter pieces guarantee no [UNK]): per
    doc the word count, total piece count and continuation-piece count.
    Stateless vectorized map (per-batch word memoization), zero
    shuffles before the presentation sort. The twin precomputes the
    longest vocab match per (word, pos) NON-recursively (a vocab join +
    MAX), then replays the greedy walk as pure pointer-chasing in a
    recursive CTE — the same split that makes the engine's loop
    O(word_len) per distinct word."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = textops.wordpiece_stats(df["text"])
        out.insert(0, "doc_id", df["doc_id"].astype("int64").to_numpy())
        return out

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def q_hits_docs(sf_dir: str):
    """Distributed HITS hubs & authorities (ops.hits power iteration)
    over a deterministic synthetic citation graph on the documents
    table (doc → (13·doc+5) mod n and (29·doc+11) mod n): per
    half-step ONE hash join + ONE bucketed sum + a scalar L1 total in
    the join regime; node-bounded broadcast regime below the
    threshold. Scores L1-normalized each half-step and rounded to 9
    decimals to pin the unrolled-CTE oracle."""
    from . import ops

    ds = _read(sf_dir, "documents", ["doc_id"])
    n = ds.count()

    def edges(df: pd.DataFrame, n=n) -> pd.DataFrame:
        s = df["doc_id"].to_numpy()
        return pd.DataFrame({
            "src": np.concatenate([s, s]).astype("int64"),
            "dst": np.concatenate([(s * 13 + 5) % n,
                                   (s * 29 + 11) % n]).astype("int64")})

    e = ds.map_batches(edges, batch_format="pandas")
    return ops.hits(e, iters=3).sort("node")


def _doc_ring_edges(sf_dir: str):
    """The deterministic doc link graph shared by the graph-family
    queries (HITS/k-core/link-prediction): each doc points at
    (13·id+5) mod n and (29·id+11) mod n — an expander-ish 2-out
    digraph the SQL twins rebuild from the documents table."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    n = ds.count()

    def edges(df: pd.DataFrame, n=n) -> pd.DataFrame:
        s = df["doc_id"].to_numpy()
        return pd.DataFrame({
            "s": np.concatenate([s, s]).astype("int64"),
            "o": np.concatenate([(s * 13 + 5) % n,
                                 (s * 29 + 11) % n]).astype("int64")})

    return ds.map_batches(edges, batch_format="pandas")


def q_kcore_docs(sf_dir: str):
    """k-core decomposition (ops.kcore, k=4, 4 peel rounds) of the doc
    link graph: the degeneracy-ordering primitive of graph curation
    (dense-subgraph mining, spam-farm detection). The bounded-round
    peel is the pinned contract — the twin unrolls the same 4 rounds
    as MATERIALIZED CTEs; at this k the graph is mid-peel after round
    4 (996 → 500 edges), so the query exercises real peeling, not a
    fixpoint."""
    from . import ops

    e = _doc_ring_edges(sf_dir)
    return ops.kcore(e, k=4, rounds=4).sort("node")


def q_ra_link_pred_docs(sf_dir: str):
    """Common-neighbors + resource-allocation link prediction
    (ops.ra_link_scores) over the doc link graph: for every
    non-adjacent pair sharing neighbors, cn = shared-neighbor count
    and ra_micro = Σ 10⁶//deg(z) — integer micro-units, so the
    prediction scores themselves are oracle-exact. The shared-neighbor
    bucketing gets deg(z) for free as the group size; the hub cap
    (max_degree) is mirrored in the twin's HAVING."""
    from . import ops

    e = _doc_ring_edges(sf_dir)
    return ops.ra_link_scores(e).sort(["p", "q"])


def q_sqlite_roundtrip_events(sf_dir: str):
    """SQLite ingestion edge (sources.read_table/write_table
    fmt='sqlite'): events stream into one .db through the single-writer
    export path, then read BACK rowid-range-parallel (immutable
    read-only connections, dtypes pinned from declared affinities,
    pruning in the SELECT) and aggregated per event_type — counts, sum
    of integer cents, distinct users — so the twin (straight over the
    parquet) proves the full write→read→compute loop, not just the
    file format."""
    from . import sources

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "n": np.int64(1),
            "cents": _cents(df["value"]),
            "user_id": df["user_id"].astype("int64")})

    with _scratch_dir("sqlite") as out_dir:
        db = f"{out_dir}/events.db"
        sources.write_table(ds, db, fmt="sqlite", sqlite_table="events")
        back = sources.read_table(
            db, columns=["event_type", "user_id", "value"],
            sqlite_rows_per_task=2000)
        g = (back.map_batches(partial, batch_format="pandas")
             .groupby("event_type")
             .aggregate(Count(alias_name="n_events"),
                        Sum("cents", alias_name="sum_value_cents")))
        users = (back.map_batches(
            lambda df: df[["event_type", "user_id"]].drop_duplicates(),
            batch_format="pandas")
            .groupby(["event_type", "user_id"]).count()
            .groupby("event_type").count())
        gp = g.to_pandas()
        up = users.to_pandas().rename(columns={"count()": "n_users"})
    out = gp.merge(up, on="event_type").sort_values("event_type")
    return pd.DataFrame({
        "event_type": out["event_type"],
        "n_events": out["n_events"].astype("int64"),
        "sum_value_cents": out["sum_value_cents"].astype("int64"),
        "n_users": out["n_users"].astype("int64")}).reset_index(drop=True)


def q_naive_bayes_docs(sf_dir: str):
    """Multinomial Naive Bayes text classification with an EXACT
    integer argmax (ops.nb_classify): deterministic class markers
    (zqm0/zqm1/zqm2, class = doc_id%3, every 7th doc missing its
    confuser marker) are injected into the text, the model trains on
    the doc_id%5≠0 split and classifies the holdout. No float logs
    anywhere — classes compare by integer cross-multiplication, so the
    twin reproduces every prediction bit-for-bit in HUGEINT. Output =
    (doc_id, true_cls, pred_cls) over the test split."""
    from . import ops

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def featurize(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].astype("int64").reset_index(drop=True)
        c = d % 3
        t = (df["text"].fillna("").reset_index(drop=True)
             + " zqm" + c.astype(str) + " zqm" + c.astype(str)
             + pd.Series(np.where(d % 7 != 0,
                                  " zqm" + ((d + 1) % 3).astype(str),
                                  ""), index=d.index))
        return pd.DataFrame({
            "doc_id": d, "cls": c.astype("int64"),
            "is_test": (d % 5 == 0),
            "f0": t.str.contains("zqm0", regex=False),
            "f1": t.str.contains("zqm1", regex=False),
            "f2": t.str.contains("zqm2", regex=False)})

    feat = ds.map_batches(featurize, batch_format="pandas")
    out = ops.nb_classify(feat, ["f0", "f1", "f2"], "cls", "is_test",
                          "doc_id")
    return out.sort("doc_id")


def q_phrase_search_docs(sf_dir: str):
    """Positional phrase search (textops.phrase_search — the inverted-
    index phrase query): exact-occurrence counts and first match
    position of the two-word phrase "sort merge" per doc. Offset-
    aligned vote counting, one doc-bucketed exchange; tokenization
    (single-space split, 0-based positions) shared verbatim with the
    twin's generate_subscripts."""
    from . import textops

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return textops.phrase_search(ds, "sort merge").sort("doc_id")


def q_gini_user_diversity(sf_dir: str):
    """Per-user behavioral diversity as GINI IMPURITY of the event-type
    distribution — the log-free diversity index (1 - Σp²) that stays
    EXACT in integer micro-units: gini_micro = 10⁶ - Σn_i²·10⁶ // N².
    Per-batch partial (user, type) counts, one bucketed combine, the
    impurity fold in-group — entropy would need floats; Gini doesn't."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["user_id", "event_type"], as_index=False)
             .size().rename(columns={"size": "n"}))
        return g.astype({"n": "int64"})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["user_id", "event_type"], as_index=False)["n"]
             .sum())
        out = []
        for uid, grp in g.groupby("user_id", sort=False):
            n = grp["n"].to_numpy(np.int64)
            tot = int(n.sum())
            gini = 1_000_000 - int((n.astype(object) ** 2).sum()) \
                * 1_000_000 // (tot * tot)
            out.append((uid, tot, len(n), gini))
        return pd.DataFrame(out, columns=["user_id", "n_events",
                                          "n_types", "gini_micro"]) \
            .astype({"user_id": "int64", "n_events": "int64",
                     "n_types": "int64", "gini_micro": "int64"})

    return (bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                            ["user_id"], fold, 64, "pandas")
            .sort("user_id"))


def q_ab_test_events(sf_dir: str):
    """Two-proportion A/B test in DIVISION-FREE exact integers (the
    outlier-z-score trick applied to the z² statistic): arms = even/odd
    user_id, conversion = a 'purchase' event. z² = (p̂₁-p̂₂)²/(p̂q̂(1/n₁+
    1/n₂)) cross-multiplies to num = (c₁n₂-c₂n₁)²·N and den =
    c(N-c)(n₁+n₂)² with N=n₁+n₂, c=c₁+c₂ — exact Python ints
    (HUGEINT in the twin); the reported statistic is z2_micro =
    num·10⁶//den, significant at α=0.05 iff z2_micro ≥ 3,841,600
    (1.96²·10⁶) — NO float anywhere."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        arm = (df["user_id"].astype("int64") % 2)
        conv = (df["event_type"].astype(str) == "purchase")
        g = pd.DataFrame({"arm": arm, "n": np.int64(1),
                          "c": conv.astype("int64")})
        return g.groupby("arm", as_index=False).sum()

    p = (ds.map_batches(partial, batch_format="pandas").to_pandas()
         .groupby("arm").sum())
    n1, c1 = int(p.loc[0, "n"]), int(p.loc[0, "c"])
    n2, c2 = int(p.loc[1, "n"]), int(p.loc[1, "c"])
    N, c = n1 + n2, c1 + c2
    num = (c1 * n2 - c2 * n1) ** 2 * N       # exact python ints (the
    den = c * (N - c) * (n1 + n2) ** 2       # twin uses HUGEINT)
    z2_micro = num * 1_000_000 // den if den else 0
    return pd.DataFrame({
        "n_a": pd.Series([n1], dtype="int64"),
        "conv_a": pd.Series([c1], dtype="int64"),
        "n_b": pd.Series([n2], dtype="int64"),
        "conv_b": pd.Series([c2], dtype="int64"),
        "z2_micro": pd.Series([z2_micro], dtype="int64"),
        "significant_05": pd.Series([z2_micro >= 3_841_600],
                                    dtype="bool")})


def q_interval_join_events(sf_dir: str):
    """Interval-OVERLAP join (ops.interval_join — the temporal/genomic
    range-intersect): even-id events become [ts, ts+(1+id%7)min)
    intervals, odd-id events [ts, ts+(1+id%5)min); per left interval
    the count and total micros of overlap with right intervals.
    Span-replicated halo buckets, canonical-bucket pair emit (no dedup
    exchange), ONE shuffle + a tiny per-left fold."""
    from . import ops

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def mk(parity: int, mod: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            d = df[df["event_id"].astype("int64") % 2 == parity]
            t = d["ts"].astype("int64")
            eid = d["event_id"].astype("int64")
            return pd.DataFrame({
                "event_id": eid,
                "s": t,
                "e": t + (1 + eid % mod) * 60_000_000})
        return f

    left = ds.map_batches(mk(0, 7), batch_format="pandas")
    right = ds.map_batches(mk(1, 5), batch_format="pandas")
    return ops.interval_join(left, right,
                             id_col="event_id").sort("event_id")


def q_power_iteration_embeddings(sf_dir: str, d: int = 8,
                                 iters: int = 3):
    """Dominant eigenvector of the embedding Gram matrix by POWER
    ITERATION in fixed-point integers — the core of PCA/spectral
    methods, made oracle-exact: the Gram accumulates as integer-milli
    partials (the q_embedding_covariance shape), and each iteration
    renormalizes v ← (G·v)·1000 // max|G·v| with TRUNCATING division
    (DuckDB's `//` semantics — the engine mirrors it as
    sign·(abs·1000//mx)). Three unrolled iterations; the twin rebuilds
    every intermediate bit-for-bit. Only d² numbers move per batch;
    the iteration state is the tiny d-vector."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy())[:, :d].astype(np.float64)
        q = np.floor(np.abs(m) * 1000 + 0.5) * np.sign(m)
        g = (q.T @ q).astype(np.int64)
        ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        return pd.DataFrame({"i": ii.ravel().astype("int64"),
                             "j": jj.ravel().astype("int64"),
                             "g": g.ravel()})

    gram = (ds.map_batches(partial, batch_format="pandas")
            .groupby(["i", "j"]).aggregate(Sum("g", alias_name="g"))
            .to_pandas())
    G = np.zeros((d, d), dtype=object)
    G[gram["i"].to_numpy(), gram["j"].to_numpy()] =         [int(x) for x in gram["g"]]
    v = np.full(d, 1000, dtype=object)
    for _ in range(iters):
        w = G @ v
        mx = max(int(abs(x)) for x in w)
        if mx == 0:
            break
        v = np.array([(1 if x >= 0 else -1) * (abs(int(x)) * 1000 // mx)
                      for x in w], dtype=object)
    return pd.DataFrame({"dim": pd.Series(range(d), dtype="int64"),
                         "eig_milli": pd.Series([int(x) for x in v],
                                                dtype="int64")})


def q_soundex_docs(sf_dir: str):
    """Soundex phonetic blocking (textops.soundex_vec — the classic
    entity-resolution blocking key, NARA simple variant): every corpus
    token codes to first-letter + collapsed digit codes, grouped into
    phonetic buckets with distinct-word and occurrence counts. The
    twin rebuilds the algorithm in SQL (translate + 5 nested pairwise
    run-collapse replaces per digit — exact for runs ≤ 32)."""
    from . import textops

    ds = _read(sf_dir, "documents", ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.split(" ").explode()
        toks = toks[toks.str.len() > 0]
        codes = textops.soundex_vec(toks)
        g = pd.DataFrame({"code": codes.to_numpy(),
                          "word": toks.to_numpy()})
        out = g.groupby(["code", "word"], as_index=False).size()
        out["size"] = out["size"].astype("int64")
        return out

    counts = (ds.map_batches(partial, batch_format="pandas")
              .groupby(["code", "word"])
              .aggregate(Sum("size", alias_name="n")).to_pandas())
    g = counts.groupby("code").agg(
        n_words=("word", "nunique"), n_occurrences=("n", "sum"))
    return pd.DataFrame({
        "code": g.index.to_numpy(),
        "n_words": g["n_words"].to_numpy(np.int64),
        "n_occurrences": g["n_occurrences"].to_numpy(np.int64)})         .sort_values("code").reset_index(drop=True)


def q_chi2_events(sf_dir: str):
    """Chi-square independence test (event_type × user-parity
    contingency table) in EXACT integers: per cell, the χ² term
    (O·N − R·C)²·10⁶ // (N·R·C) — cross-multiplied so no expected-count
    division ever happens in floats; the statistic is the SUM of the
    per-cell floored micro terms (the pinned contract). Tiny partial
    contingency counts per batch, driver-bounded fold."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "event_type": df["event_type"].astype(str),
            "parity": (df["user_id"].astype("int64") % 2),
            "n": np.int64(1)})
        return g.groupby(["event_type", "parity"], as_index=False).sum()

    cells = (ds.map_batches(partial, batch_format="pandas").to_pandas()
             .groupby(["event_type", "parity"], as_index=False)["n"]
             .sum())
    N = int(cells["n"].sum())
    rows = cells.groupby("event_type")["n"].sum()
    colsum = cells.groupby("parity")["n"].sum()
    out = []
    for _, r in cells.sort_values(["event_type", "parity"]).iterrows():
        O = int(r["n"])
        R = int(rows[r["event_type"]])
        C = int(colsum[r["parity"]])
        term = (O * N - R * C) ** 2 * 1_000_000 // (N * R * C)
        out.append((r["event_type"], int(r["parity"]), O, term))
    df = pd.DataFrame(out, columns=["event_type", "parity", "observed",
                                    "chi2_term_micro"])         .astype({"parity": "int64", "observed": "int64",
                 "chi2_term_micro": "int64"})
    total = int(df["chi2_term_micro"].sum())
    df["chi2_total_micro"] = np.int64(total)
    return df


def q_random_walks_docs(sf_dir: str):
    """Deterministic random walks on the doc link graph
    (ops.random_walks — DeepWalk/node2vec training-data prep): 3 steps
    from every node, step t at node u moving to id-ordered neighbor
    md5(u:t)[:8] % deg(u). Walks are md5-reproducible, so the twin's
    unrolled rank-joins land on the SAME neighbor every time."""
    from . import ops

    e = _doc_ring_edges(sf_dir)
    return ops.random_walks(e, length=3).sort(["start", "step"])


def q_ann_recall_eval(sf_dir: str):
    """ANN quality harness: recall@5 of the LSH index against the
    brute-force ground truth, per query, in integer micro-units — the
    eval loop every ANN deployment runs before trusting an index. Both
    sides are the already-pinned operators (annsearch.lsh_topk /
    brute_force_topk); the twin composes their SQL twins by CTE
    surgery, so even the RECALL NUMBERS are oracle-exact."""
    exact = annsearch.brute_force_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        query_ids=[0, 1, 2, 3, 4], k=5).to_pandas()
    appr = annsearch.lsh_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        query_ids=[0, 1, 2, 3, 4], k=5, n_planes=4).to_pandas()
    m = exact.merge(appr[["query_id", "neighbor_id"]].assign(hit=1),
                    on=["query_id", "neighbor_id"], how="left")
    g = m.groupby("query_id")["hit"].agg(lambda x: int(x.notna().sum()))
    return pd.DataFrame({
        "query_id": g.index.to_numpy(np.int64),
        "n_hit": g.to_numpy(np.int64),
        "recall_micro": (g.to_numpy(np.int64) * 1_000_000 // 5)
        .astype("int64")})


def q_geo_join_events(sf_dir: str):
    """Spatial distance join (ops.grid_distance_join — the geo
    enrichment every location pipeline needs): events become integer
    planar points (md5-derived uniform scatter on a 100k×100k grid —
    a multiplicative lattice scatter correlates the axes and yields
    ZERO neighbors), even-id points probe odd-id points within radius
    2000; per left point the within-radius count and the nearest
    neighbor (exact integer d², ties to smallest id). 3×3 halo grid
    cells, ONE shuffle."""
    from . import ops

    ds = _read(sf_dir, "events", ["event_id"])

    def pts(parity: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            import hashlib

            e = df["event_id"].astype("int64")
            d = e[e % 2 == parity]

            def h(tag: str, v: int) -> int:
                return int(hashlib.md5(f"{tag}{v}".encode())
                           .hexdigest()[:8], 16) % 100000

            return pd.DataFrame({
                "event_id": d.to_numpy(),
                "x": np.array([h("x", v) for v in d], dtype=np.int64),
                "y": np.array([h("y", v) for v in d], dtype=np.int64)})
        return f

    left = ds.map_batches(pts(0), batch_format="pandas")
    right = ds.map_batches(pts(1), batch_format="pandas")
    return ops.grid_distance_join(left, right, id_col="event_id",
                                  radius=2000).sort("event_id")


_BENFORD_MICRO = {1: 301030, 2: 176091, 3: 124939, 4: 96910,
                  5: 79181, 6: 66947, 7: 57992, 8: 51153, 9: 45757}


def q_benford_values(sf_dir: str):
    """Benford's-law conformance audit (the classic fraud/data-quality
    screen): leading-digit distribution of event values (integer cents)
    vs the published log10(1+1/d) expectations in micro-units (they sum
    to exactly 10⁶) — per digit the observed count and the absolute
    proportion deviation dev_micro = |obs·10⁶ − exp·N| // N, all exact
    integers; the constant table is shared verbatim with the twin's
    VALUES list. Tiny per-batch digit counts, driver-bounded fold."""
    ds = _read(sf_dir, "events", ["value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["value"])
        cents = cents[cents > 0]
        lead = cents.astype(str).str[0].astype(int)
        vc = lead.value_counts()
        return pd.DataFrame({"digit": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    counts = (ds.map_batches(partial, batch_format="pandas").to_pandas()
              .groupby("digit")["n"].sum())
    N = int(counts.sum())
    out = []
    for d in range(1, 10):
        obs = int(counts.get(d, 0))
        exp = _BENFORD_MICRO[d]
        dev = abs(obs * 1_000_000 - exp * N) // N
        out.append((d, obs, exp, dev))
    return pd.DataFrame(out, columns=["digit", "observed",
                                      "expected_micro", "dev_micro"])         .astype({"digit": "int64", "observed": "int64",
                 "expected_micro": "int64", "dev_micro": "int64"})


def q_decayed_heavy_hitters(sf_dir: str):
    """Recency-weighted trending values (the exponentially-decayed
    heavy-hitters of every streaming dashboard) in EXACT integers: a
    props value's score is Σ over day-windows of count_w >> age_days —
    halving per day of age via integer shift, so no float decay factor
    ever appears. Per-batch (window, value) partials, one tiny combine,
    driver-bounded fold; top 20 by (score desc, value)."""
    ds = _read(sf_dir, "events", ["ts", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].astype("int64") // 86_400_000_000)
        g = pd.DataFrame({"day": day, "props": df["props"].astype(str),
                          "n": np.int64(1)})
        return g.groupby(["day", "props"], as_index=False).sum()

    counts = (ds.map_batches(partial, batch_format="pandas").to_pandas()
              .groupby(["day", "props"], as_index=False)["n"].sum())
    max_day = int(counts["day"].max())
    age = (max_day - counts["day"].astype("int64")) \
        .clip(0, 62).to_numpy(np.int64)
    counts["score"] = np.right_shift(
        counts["n"].to_numpy(np.int64), age)
    g = counts.groupby("props", as_index=False)["score"].sum()
    g = g.sort_values(["score", "props"],
                      ascending=[False, True]).head(20)
    return pd.DataFrame({
        "props": g["props"].to_numpy(),
        "decayed_score": g["score"].to_numpy(np.int64)})         .reset_index(drop=True)


def q_debounce_events(sf_dir: str):
    """Burst debouncing (the bot-double-fire dedup every event pipeline
    runs first): within each (user, event_type), an event starting ≤ 60 s
    after the previous one belongs to the same burst and drops; burst
    FIRSTs survive, with the burst length attached. One bucketed
    shuffle, vectorized diff inside the group; twin = LAG gap → running
    burst ids (SUM OVER of gap flags) → ROW_NUMBER."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "event_type": df["event_type"].astype(str),
            "ts_us": df["ts"].astype("int64")})

    def debounce(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_type", "ts_us",
                             "event_id"], kind="mergesort")
        same = (df["user_id"].eq(df["user_id"].shift())
                & df["event_type"].eq(df["event_type"].shift()))
        gap = df["ts_us"] - df["ts_us"].shift()
        new_burst = (~same) | (gap > 60_000_000)
        burst = new_burst.cumsum()
        size = burst.map(burst.value_counts())
        keep = df[new_burst].copy()
        keep["burst_len"] = size[new_burst].to_numpy(np.int64)
        return keep[["event_id", "user_id", "event_type",
                     "burst_len"]]

    return (bucket_exchange(ds.map_batches(tag, batch_format="pandas"),
                            ["user_id", "event_type"], debounce, 64,
                            "pandas")
            .sort("event_id"))


def q_ams_f2_events(sf_dir: str):
    """AMS / tug-of-war second-frequency-moment sketch (ops.ams_f2) over
    event user_ids: F2 = Σ f_u² is the self-join size / repeat-rate
    diagnostic a planner consults before shuffling a skewed key. 17
    ±1-hash counters in exact integer arithmetic, lower-median-of-squares
    estimate — the twin rebuilds every counter bit-for-bit, so the
    APPROXIMATION itself is the oracle contract."""
    from . import ops

    ds = _read(sf_dir, "events", ["user_id"])
    return ops.ams_f2(ds, "user_id", r=17)


def q_kmv_set_ops_events(sf_dir: str):
    """Theta-sketch-style set operations (ops.kmv_set_ops): distinct-UNION
    and distinct-INTERSECTION estimates between two overlapping event
    slices (A = everything but errors, B = everything but clicks, keyed
    by props|event_type → per-side distinct 400, true overlap 300 —
    a genuine estimation regime at k=64). 48-bit md5-prefix KMV
    sketches, floor-division estimators, all integers: the twin
    reproduces union AND intersection estimates bit-for-bit."""
    from . import ops

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def side(drop: str):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            m = df["event_type"].astype(str) != drop
            k = (df["props"].astype(str) + "|"
                 + df["event_type"].astype(str))[m]
            return pd.DataFrame({"k": k.reset_index(drop=True)})
        return f

    a = ds.map_batches(side("error"), batch_format="pandas")
    b = ds.map_batches(side("click"), batch_format="pandas")
    return ops.kmv_set_ops(a, b, "k", k=64)


def q_cusum_events(sf_dir: str):
    """CUSUM changepoint alarms per event_type over its hourly count
    series, integer-exact end to end: with n = #hours observed and
    T = total events for the type, the per-hour drift d_i = n*c_i - T
    is the deviation from the mean scaled by n (no division), and the
    one-sided CUSUM recurrence H_t = max(0, H_{t-1} + d_t) unrolls to
    the closed form S_t - min(0, min_{j<=t} S_j) — prefix sum minus
    running minimum — so BOTH engines evaluate it with window
    primitives (cumsum + minimum.accumulate here, nested SUM/MIN OVER
    in the twin) instead of a sequential loop. Alarm where H_t > 2*T.
    Hourly counts come from per-batch partial pre-agg + ONE bucketed
    shuffle; the per-type series scan is vectorized in-group."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "event_type": df["event_type"].astype(str),
            "hour_id": (df["ts"].astype("int64")
                        // 3_600_000_000).astype("int64"),
            "c": np.int64(1)})
            .groupby(["event_type", "hour_id"], sort=False,
                     as_index=False)["c"].sum())

    def cusum(df: pd.DataFrame) -> pd.DataFrame:
        hc = df.groupby(["event_type", "hour_id"], sort=False,
                        as_index=False)["c"].sum()
        rows = []
        for et, grp in hc.groupby("event_type", sort=False):
            grp = grp.sort_values("hour_id")
            c = grp["c"].to_numpy(np.int64)
            n = np.int64(len(c))
            total = np.int64(c.sum())
            s = np.cumsum(n * c - total)
            h = s - np.minimum(np.minimum.accumulate(s), 0)
            alarm = h > 2 * total
            hrs = grp["hour_id"].to_numpy(np.int64)[alarm]
            rows.append((et, int(n), int(total), int(alarm.sum()),
                         int(hrs.min()) if len(hrs) else -1))
        return pd.DataFrame(rows, columns=[
            "event_type", "n_hours", "total_events", "n_alarms",
            "first_alarm_hour"])

    out = bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                          ["event_type"], cusum, 32, "pandas").to_pandas()
    out = out.sort_values("event_type").reset_index(drop=True)
    return out.astype({"n_hours": "int64", "total_events": "int64",
                       "n_alarms": "int64", "first_alarm_hour": "int64"})


def q_fd_mine_events(sf_dir: str):
    """Functional-dependency discovery (the constraint-mining side of
    data profiling): for six candidate FDs over derived event columns
    (hour_id/day_id/month_id time hierarchy + event_type/user_id),
    count LHS groups and LHS groups with >1 distinct RHS (violations);
    the FD holds iff violations = 0. ALL candidates share ONE exchange:
    per-batch distinct (fd, x, y) triples, bucketed by (fd, x) so each
    LHS group lands whole in one reducer, per-bucket nunique, then a
    tiny (6 x 64 rows) driver combine. Epoch floor-division hour/day
    ids make hour_id->day_id and day_id->month_id hold by construction
    — the miner must PROVE it, not assume it."""
    FDS = [("hour_id", "day_id"), ("day_id", "month_id"),
           ("day_id", "hour_id"), ("event_type", "day_id"),
           ("user_id", "event_type"), ("hour_id", "event_type")]

    ds = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].astype("int64")
        cols = {
            "hour_id": (us // 3_600_000_000).astype(str),
            "day_id": (us // 86_400_000_000).astype(str),
            "month_id": (df["ts"].dt.year * 12
                         + df["ts"].dt.month).astype(str),
            "event_type": df["event_type"].astype(str),
            "user_id": df["user_id"].astype(str)}
        parts = [pd.DataFrame({"fd": f"{lhs}->{rhs}", "x": cols[lhs],
                               "y": cols[rhs]}).drop_duplicates()
                 for lhs, rhs in FDS]
        return pd.concat(parts, ignore_index=True)

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["fd", "x", "y"]].drop_duplicates()
        per_x = (d.groupby(["fd", "x"], sort=False)["y"].nunique()
                 .reset_index(name="ny"))
        return (per_x.assign(viol=(per_x["ny"] > 1).astype("int64"),
                             one=np.int64(1))
                .groupby("fd", sort=False, as_index=False)
                .agg(n_groups=("one", "sum"), n_violations=("viol", "sum")))

    p = bucket_exchange(ds.map_batches(derive, batch_format="pandas"),
                        ["fd", "x"], reduce, 64, "pandas").to_pandas()

    g = (p.groupby("fd", as_index=False)[["n_groups", "n_violations"]]
         .sum().sort_values("fd").reset_index(drop=True))
    g["holds"] = (g["n_violations"] == 0).astype("int64")
    return g.astype({"n_groups": "int64", "n_violations": "int64"})


def q_autocorr_events(sf_dir: str):
    """Lag-k autocorrelation of the global hourly event-count series
    (the periodicity probe every event pipeline runs before capacity
    modeling), exact integers: the series is densified over
    [min_hour, max_hour] with zero fill, deviations are scaled by n
    (d_t = n*c_t - T, no division), and the result per lag k in
    {1, 2, 24} is the exact integer pair (num, den) with
    r_k = num/den, num = sum d_t*d_{t+k}, den = sum d_t^2. The hourly
    aggregate is distributed (partial value_counts per batch + hash
    combine); the AGGREGATED series is bounded by wall-clock hours, so
    the O(n) lag products run on the driver by design."""
    ds = _read(sf_dir, "events", ["ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = df["ts"].astype("int64") // 3_600_000_000
        return (h.value_counts().rename_axis("hour_id")
                .reset_index(name="c"))

    hc = (ds.map_batches(partial, batch_format="pandas")
          .groupby("hour_id")
          .aggregate(Sum("c", alias_name="c"))).to_pandas()
    mn = int(hc["hour_id"].min())
    mx = int(hc["hour_id"].max())
    dense = np.zeros(mx - mn + 1, dtype=np.int64)
    dense[hc["hour_id"].to_numpy(np.int64) - mn] = (
        hc["c"].to_numpy(np.int64))
    n = np.int64(len(dense))
    total = np.int64(dense.sum())
    d = n * dense - total
    den = int((d * d).sum())
    rows = [(k, int((d[:-k] * d[k:]).sum()) if k < len(d) else 0, den)
            for k in (1, 2, 24)]
    return pd.DataFrame(rows, columns=["lag_h", "num", "den"]).astype(
        {"lag_h": "int64", "num": "int64", "den": "int64"})


def q_delta_roundtrip_events(sf_dir: str):
    """Delta Lake lakehouse lifecycle (deltalake.py — the open
    transaction-log protocol, implemented from the spec): events stream
    into a table PARTITIONED by event_type (commit 0: id%3!=0; commit 1:
    append id%3==0), then a partition-level DELETE tombstones every
    'error' file with remove actions only (no rewrite), a checkpoint
    parquet + _last_checkpoint compacts the log, and commit 3 re-appends
    the id%5==0 error rows ON TOP of the checkpoint — so the read path
    proves checkpoint-seed + JSON-tail replay + partition-column
    injection + column pruning in one pass. The twin states the final
    LOGICAL table directly over the raw parquet."""
    from . import deltalake as dl

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def split(keep_mod3):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            m = (df["event_id"] % 3 != 0) if keep_mod3 else \
                (df["event_id"] % 3 == 0)
            return df[m].reset_index(drop=True)
        return f

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"].astype(str),
            "n": np.int64(1),
            "cents": _cents(df["value"]),
            "eid": df["event_id"].astype("int64")})

    with _scratch_dir("delta") as out_dir:
        tbl = f"{out_dir}/events"
        dl.write_delta(ds.map_batches(split(True), batch_format="pandas"),
                       tbl, partition_cols=["event_type"])
        dl.write_delta(ds.map_batches(split(False), batch_format="pandas"),
                       tbl, mode="append", partition_cols=["event_type"])
        dl.delete_where(tbl, lambda pv: pv.get("event_type") == "error")
        dl.checkpoint(tbl)
        dl.write_delta(
            ds.map_batches(
                lambda df: df[(df["event_type"] == "error")
                              & (df["event_id"] % 5 == 0)]
                .reset_index(drop=True), batch_format="pandas"),
            tbl, mode="append", partition_cols=["event_type"])

        back = dl.read_delta(tbl, columns=["event_id", "event_type", "value"])

        g = (back.map_batches(partial, batch_format="pandas")
             .groupby("event_type")
             .aggregate(Count(alias_name="n_events"),
                        Sum("cents", alias_name="sum_value_cents"),
                        Min("eid", alias_name="min_event_id"),
                        Max("eid", alias_name="max_event_id"))).to_pandas()
    g = g.sort_values("event_type").reset_index(drop=True)
    return g.astype({"n_events": "int64", "sum_value_cents": "int64",
                     "min_event_id": "int64", "max_event_id": "int64"})


def q_iceberg_roundtrip_docs(sf_dir: str):
    """Iceberg table lifecycle (iceberg.py — the open spec's two-level
    Avro manifest tree through the engine's OWN avro codec): documents
    stream into snapshot 1 (doc_id%3==0), snapshot 2 fast-appends
    doc_id%3==1 (previous manifests carried forward in the new manifest
    list), then the CURRENT snapshot is read back — version-hint →
    metadata.json → manifest list avro → manifest avro → pruned parquet
    — and aggregated per lang. The twin states the final snapshot
    contents directly over the raw parquet."""
    from . import iceberg as ice

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def pick(mod):
        return lambda df: df[df["doc_id"] % 3 == mod].reset_index(
            drop=True)

    with _scratch_dir("iceberg") as out_dir:
        tbl = f"{out_dir}/docs"
        ice.write_iceberg(ds.map_batches(pick(0), batch_format="pandas"),
                          tbl)
        ice.write_iceberg(ds.map_batches(pick(1), batch_format="pandas"),
                          tbl, mode="append")
        back = ice.read_iceberg(tbl, columns=["doc_id", "lang", "n_chars"])

        g = (back.map_batches(
            lambda df: pd.DataFrame({
                "lang": df["lang"].astype(str),
                "chars": df["n_chars"].astype("int64"),
                "did": df["doc_id"].astype("int64")}),
            batch_format="pandas")
            .groupby("lang")
            .aggregate(Count(alias_name="n_docs"),
                       Sum("chars", alias_name="sum_chars"),
                       Min("did", alias_name="min_doc_id"),
                       Max("did", alias_name="max_doc_id"))).to_pandas()
    g = g.sort_values("lang").reset_index(drop=True)
    return g.astype({"n_docs": "int64", "sum_chars": "int64",
                     "min_doc_id": "int64", "max_doc_id": "int64"})


def q_ranktests_events(sf_dir: str):
    """Nonparametric two-sample tests ('click' vs 'error' value
    distributions) in EXACT integers: Mann-Whitney U with midrank tie
    handling (ranks doubled so midranks stay integral: doubled midrank
    of a tie group = 2*cum_before + t + 1) and the Kolmogorov-Smirnov
    distance as max|cum1*N2 − cum2*N1| (the CDF gap scaled by N1*N2 —
    no division anywhere). The heavy step is ONE distributed per-value
    aggregation (value cents → per-group counts); the rank/CDF walks run
    on the aggregated value histogram, which is bounded by distinct
    cents values, not row count."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["event_type"].isin(["click", "error"])]
        g = pd.DataFrame({
            "cents": _cents(sub["value"]),
            "one": np.int64(1),
            "is1": (sub["event_type"] == "click").astype("int64")})
        a = (g.groupby("cents", sort=False)
             .agg(n1=("is1", "sum"), n=("one", "sum")).reset_index())
        a["n2"] = a["n"] - a["n1"]
        return a[["cents", "n1", "n2"]]

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("cents")
           .aggregate(Sum("n1", alias_name="n1"),
                      Sum("n2", alias_name="n2"))).to_pandas()
    agg = agg.sort_values("cents").reset_index(drop=True)
    n1v = agg["n1"].to_numpy(np.int64)
    n2v = agg["n2"].to_numpy(np.int64)
    t = n1v + n2v
    cum_before = np.concatenate([[np.int64(0)], np.cumsum(t)[:-1]])
    dr = 2 * cum_before + t + 1               # doubled midranks
    big_n1, big_n2 = int(n1v.sum()), int(n2v.sum())
    u1_dbl = int((dr * n1v).sum()) - big_n1 * (big_n1 + 1)
    u2_dbl = 2 * big_n1 * big_n2 - u1_dbl
    cum1, cum2 = np.cumsum(n1v), np.cumsum(n2v)
    ks_scaled = int(np.abs(cum1 * big_n2 - cum2 * big_n1).max())
    return pd.DataFrame([{
        "n1": big_n1, "n2": big_n2, "u1_dbl": u1_dbl, "u2_dbl": u2_dbl,
        "ks_scaled": ks_scaled}]).astype("int64")


def q_theil_sen_events(sf_dir: str):
    """Theil-Sen robust trend per event_type over its hourly count
    series, integer-exact: every pair slope is keyed by the TRUNCATING
    integer division (dc*1e6)//dh (DuckDB's `//` truncates toward zero;
    the engine mirrors it sign-safely — numpy's // floors), and the
    estimator is the lower-median key. Hourly counts come from one
    bucketed pre-agg shuffle; the O(n²) pair walk runs vectorized on
    the per-type AGGREGATED series (bounded by wall-clock hours, ≤720
    here), never on raw rows."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (pd.DataFrame({
            "event_type": df["event_type"].astype(str),
            "h": (df["ts"].astype("int64")
                  // 3_600_000_000).astype("int64"),
            "c": np.int64(1)})
            .groupby(["event_type", "h"], sort=False,
                     as_index=False)["c"].sum())

    def theil(df: pd.DataFrame) -> pd.DataFrame:
        hc = df.groupby(["event_type", "h"], sort=False,
                        as_index=False)["c"].sum()
        rows = []
        for et, grp in hc.groupby("event_type", sort=False):
            grp = grp.sort_values("h")
            h = grp["h"].to_numpy(np.int64)
            c = grp["c"].to_numpy(np.int64)
            i, j = np.triu_indices(len(h), k=1)
            dh = h[j] - h[i]
            dc = (c[j] - c[i]) * 1_000_000
            key = np.where(dc >= 0, dc // dh, -((-dc) // dh))
            key.sort()
            m = len(key)
            rows.append((et, m, int(key[(m - 1) // 2]) if m else 0))
        return pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                           "median_slope_key"])

    out = bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                          ["event_type"], theil, 32, "pandas").to_pandas()
    out = out.sort_values("event_type").reset_index(drop=True)
    return out.astype({"n_pairs": "int64", "median_slope_key": "int64"})


def q_rank_fusion_docs(sf_dir: str):
    """Borda rank fusion (the integer-exact cousin of reciprocal-rank
    fusion search engines run over retriever ensembles): two
    deterministic per-lang rankings — length signal (n_chars DESC) and
    a relevance stand-in (md5(text) ASC, matching DuckDB's md5 hex
    lexicographically) — fused by rank SUM, top 3 per lang. Ranks are
    computed vectorized inside each lang's bucket group (one shuffle);
    every tie is broken by doc_id in BOTH engines, so the fusion is
    bit-reproducible."""
    import hashlib as _h

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text",
                                     "n_chars"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": df["lang"].astype(str),
            "doc_id": df["doc_id"].astype("int64"),
            "n_chars": df["n_chars"].astype("int64"),
            "h": [_h.md5(t.encode("utf-8")).hexdigest()
                  for t in df["text"].astype(str)]})

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, grp in df.groupby("lang", sort=False):
            g = grp.reset_index(drop=True)
            r1 = np.empty(len(g), np.int64)
            order1 = np.lexsort((g["doc_id"].to_numpy(),
                                 -g["n_chars"].to_numpy()))
            r1[order1] = np.arange(1, len(g) + 1)
            r2 = np.empty(len(g), np.int64)
            order2 = np.lexsort((g["doc_id"].to_numpy(),
                                 g["h"].to_numpy()))
            r2[order2] = np.arange(1, len(g) + 1)
            borda = r1 + r2
            top = np.lexsort((g["doc_id"].to_numpy(), borda))[:3]
            for i in top:
                rows.append((lang, int(g["doc_id"][i]), int(borda[i])))
        return pd.DataFrame(rows, columns=["lang", "doc_id", "borda"])

    out = bucket_exchange(ds.map_batches(prep, batch_format="pandas"),
                          ["lang"], fuse, 16, "pandas").to_pandas()
    out = (out.sort_values(["lang", "borda", "doc_id"])
           .reset_index(drop=True))
    return out.astype({"doc_id": "int64", "borda": "int64"})


def q_lpa_communities_docs(sf_dir: str):
    """Community detection by synchronous label propagation
    (ops.label_propagation, Raghavan et al. 2007) over the
    deterministic citation graph (doc → 31d+7, 17d+3 mod n): 3 rounds
    of adopt-the-neighbor-mode with (count DESC, label ASC) tie-break
    on the DISTINCT undirected edge set — one dedup exchange up front,
    one bucketed per-node argmax exchange per round, label vector
    broadcast zero-copy below 500k nodes (hash-join regime above).
    Output: top-20 communities by size."""
    from . import ops

    ds = _read(sf_dir, "documents", ["doc_id"])
    n = ds.count()

    def edges(df: pd.DataFrame, n=n) -> pd.DataFrame:
        s = df["doc_id"].to_numpy()
        return pd.DataFrame({
            "src": np.concatenate([s, s]).astype("int64"),
            "dst": np.concatenate([(s * 31 + 7) % n,
                                   (s * 17 + 3) % n]).astype("int64")})

    labels = ops.label_propagation(
        ds.map_batches(edges, batch_format="pandas"), rounds=3)
    g = (labels.groupby("label")
         .aggregate(Count(alias_name="size"))).to_pandas()
    g = (g.sort_values(["size", "label"], ascending=[False, True])
         .head(20).reset_index(drop=True))
    return pd.DataFrame({"community": g["label"].astype("int64"),
                         "size": g["size"].astype("int64")})


def q_dbscan_embeddings(sf_dir: str):
    """Density-based clustering (DBSCAN, Ester et al. 1996) over the
    embeddings table in EXACT integers: coordinates quantized to milli
    units (half-away rounding, the covariance/SQ8 convention), squared
    L2 in int64, eps²=1,450,000 / minPts=5 (sized so the corpus splits
    into cores, borders AND noise). Core points = eps-neighbor count
    (self included) ≥ minPts; clusters = distributed
    connected components over core-core eps edges
    (linking.min_label_components — no driver union-find); borders
    adopt the MIN cluster among their core neighbors; noise = −1.
    Exact-pair regime broadcasts the integer matrix (same documented
    corpus ceiling as exact cosine; LSH blocking is the 100-TB path);
    neighbor counts and edge emission stream per batch against it."""
    import ray

    from . import linking

    EPS2, MINPTS = 1_450_000, 5
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pdf = ds.to_pandas().sort_values("vec_id").reset_index(drop=True)
    ids = pdf["vec_id"].to_numpy(np.int64)
    v = np.stack(pdf["embedding"].to_numpy()) * 1000.0
    m = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
    ids_ref, m_ref = ray.put(ids), ray.put(m)

    def nbmask(batch_m, full_m):
        # exact integer d2 via |a|²+|b|²−2a·b (int64 matmul)
        aa = (batch_m * batch_m).sum(1)[:, None]
        bb = (full_m * full_m).sum(1)[None, :]
        d2 = aa + bb - 2 * (batch_m @ full_m.T)
        return d2 <= EPS2

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        full = ray.get(m_ref)
        vv = np.stack(df["embedding"].to_numpy()) * 1000.0
        bm = (np.sign(vv) * np.floor(np.abs(vv) + 0.5)).astype(np.int64)
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype("int64"),
            "n": nbmask(bm, full).sum(1).astype("int64")})

    nb = (ds.map_batches(counts, batch_format="pandas")).to_pandas()
    core_ids = np.sort(nb.loc[nb["n"] >= MINPTS,
                              "vec_id"].to_numpy(np.int64))
    core_ref = ray.put(core_ids)

    def core_edges(df: pd.DataFrame) -> pd.DataFrame:
        full, fids = ray.get(m_ref), ray.get(ids_ref)
        cores = ray.get(core_ref)
        vv = np.stack(df["embedding"].to_numpy()) * 1000.0
        bm = (np.sign(vv) * np.floor(np.abs(vv) + 0.5)).astype(np.int64)
        bids = df["vec_id"].to_numpy(np.int64)
        mask = nbmask(bm, full)
        is_core_b = np.isin(bids, cores)
        is_core_f = np.isin(fids, cores)
        r, c = np.nonzero(mask & is_core_b[:, None]
                          & is_core_f[None, :])
        a, b = bids[r], fids[c]
        keep = a < b                          # dedup + drop self
        return pd.DataFrame({"a": a[keep], "b": b[keep]})

    labels = linking.min_label_components(
        ds.map_batches(core_edges, batch_format="pandas")).to_pandas()
    lut = dict(zip(labels["node"].astype("int64"),
                   labels["label"].astype("int64")))
    # isolated cores (no core neighbor) are their own cluster
    for cid in core_ids:
        lut.setdefault(int(cid), int(cid))
    lut_ref = ray.put(lut)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        full, fids = ray.get(m_ref), ray.get(ids_ref)
        cores = ray.get(core_ref)
        lu = ray.get(lut_ref)
        vv = np.stack(df["embedding"].to_numpy()) * 1000.0
        bm = (np.sign(vv) * np.floor(np.abs(vv) + 0.5)).astype(np.int64)
        bids = df["vec_id"].to_numpy(np.int64)
        mask = nbmask(bm, full)
        is_core_f = np.isin(fids, cores)
        out = []
        for i, vid in enumerate(bids):
            if int(vid) in lu:
                out.append((int(vid), lu[int(vid)], 1))
                continue
            nbr_cores = fids[mask[i] & is_core_f]
            if len(nbr_cores):
                out.append((int(vid),
                            min(lu[int(x)] for x in nbr_cores), 0))
            else:
                out.append((int(vid), -1, 0))
        return pd.DataFrame(out, columns=["vec_id", "cluster",
                                          "is_core"])

    res = (ds.map_batches(assign, batch_format="pandas")).to_pandas()
    res = res.sort_values("vec_id").reset_index(drop=True)
    return res.astype({"vec_id": "int64", "cluster": "int64",
                       "is_core": "int64"})


def q_kaplan_meier_events(sf_dir: str):
    """Kaplan-Meier survival curve of user lifetimes, integer-exact:
    lifetime = hours between a user's first and last event, censored
    when the last event falls in the final 24h of the log (the user may
    still be active). The product-limit estimator runs as the
    truncating integer recurrence s_i = s_{i−1}·(n_i−d_i) // n_i in
    micro units — sequential by nature, so the twin is a recursive CTE
    over ranked event times and the engine mirrors it on the
    AGGREGATED per-duration table (≤ wall-clock hours). The heavy
    steps — per-user first/last and the per-duration death/censor
    counts — are distributed aggregates; nothing user-shaped lands on
    the driver. First 20 event times reported."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    tmax = int(pd.Timestamp(ds.max("ts")).value // 1000)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].astype("int64")
        g = (pd.DataFrame({"user_id": df["user_id"].astype("int64"),
                           "f": us, "l": us})
             .groupby("user_id", as_index=False)
             .agg(f=("f", "min"), l=("l", "max")))
        return g

    per_user = (ds.map_batches(partial, batch_format="pandas")
                .groupby("user_id")
                .aggregate(Min("f", alias_name="f"),
                           Max("l", alias_name="l")))

    def durs(df: pd.DataFrame, tmax=tmax) -> pd.DataFrame:
        dur = ((df["l"].astype("int64") - df["f"].astype("int64"))
               // 3_600_000_000)
        obs = (df["l"].astype("int64")
               <= tmax - 86_400_000_000).astype("int64")
        g = (pd.DataFrame({"dur": dur, "deaths": obs,
                           "ends": np.int64(1)})
             .groupby("dur", as_index=False).sum())
        return g

    agg = (per_user.map_batches(durs, batch_format="pandas")
           .groupby("dur")
           .aggregate(Sum("deaths", alias_name="deaths"),
                      Sum("ends", alias_name="ends"))).to_pandas()
    agg = agg.sort_values("dur").reset_index(drop=True)
    n = int(agg["ends"].sum())
    ends_before = np.concatenate(
        [[np.int64(0)], np.cumsum(agg["ends"].to_numpy(np.int64))[:-1]])
    agg["n_risk"] = n - ends_before
    ev = agg[agg["deaths"] > 0].reset_index(drop=True)
    s = 1_000_000
    rows = []
    for i in range(min(20, len(ev))):
        nr = int(ev["n_risk"][i])
        d = int(ev["deaths"][i])
        s = s * (nr - d) // nr
        rows.append((int(ev["dur"][i]), nr, d, s))
    return pd.DataFrame(rows, columns=[
        "duration_h", "n_risk", "n_events", "surv_micro"]).astype(
        {"duration_h": "int64", "n_risk": "int64", "n_events": "int64",
         "surv_micro": "int64"})


def q_decision_stump_events(sf_dir: str):
    """Supervised binning / depth-1 decision tree: the best value-cents
    threshold separating 'click' from 'error' events by Gini, with an
    EXACT integer goodness contract — maximizing
    ((aL²+bL²)·1e6)//nL + ((aR²+bR²)·1e6)//nR (the impurity identity
    n − Σ(a²+b²)/n_side with the division pinned to truncating micro
    units, so both engines pick the identical split; ties → smallest
    threshold). One distributed per-value class-histogram exchange
    (same shape as the rank tests); the prefix-sum scan runs on the
    aggregated value histogram. Split semantics: left = cents ≤ t."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["event_type"].isin(["click", "error"])]
        g = pd.DataFrame({
            "cents": _cents(sub["value"]),
            "one": np.int64(1),
            "a": (sub["event_type"] == "click").astype("int64")})
        out = (g.groupby("cents", sort=False)
               .agg(a=("a", "sum"), n=("one", "sum")).reset_index())
        out["b"] = out["n"] - out["a"]
        return out[["cents", "a", "b"]]

    agg = (ds.map_batches(partial, batch_format="pandas")
           .groupby("cents")
           .aggregate(Sum("a", alias_name="a"),
                      Sum("b", alias_name="b"))).to_pandas()
    agg = agg.sort_values("cents").reset_index(drop=True)
    av = agg["a"].to_numpy(np.int64)
    bv = agg["b"].to_numpy(np.int64)
    ta, tb = int(av.sum()), int(bv.sum())
    al = np.cumsum(av)[:-1]                   # left = cents <= t
    bl = np.cumsum(bv)[:-1]
    nl = al + bl
    ar, br = ta - al, tb - bl
    nr = ar + br
    score = ((al * al + bl * bl) * 1_000_000 // nl
             + (ar * ar + br * br) * 1_000_000 // nr)
    i = int(np.argmax(score))                 # first max = min threshold
    return pd.DataFrame([{
        "split_cents": int(agg["cents"][i]),
        "score_micro": int(score[i]),
        "n_left": int(nl[i]), "n_right": int(nr[i]),
        "a_left": int(al[i]), "b_left": int(bl[i])}]).astype("int64")


def q_privacy_audit_events(sf_dir: str):
    """Privacy audit beyond k-anonymity (which q_kanon_events covers):
    for each quasi-identifier equivalence class (event_type,
    hour-of-day), the l-DIVERSITY count (distinct sensitive values,
    sensitive = user_id%10) and the t-CLOSENESS distance as the ordered
    earth-mover's distance between the class and global sensitive
    distributions — kept integer-exact by scaling both CDFs to the
    common denominator N·n_class: EMD_scaled = Σ_s |cumGlobal_s·n_c −
    cumClass_s·N|. ONE distributed (class, sensitive) count exchange;
    the per-class EMD walk is vectorized over the dense 10-value
    sensitive grid. Worst 10 classes by scaled EMD."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "event_type": df["event_type"].astype(str),
            "hod": df["ts"].dt.hour.astype("int64"),
            "s": (df["user_id"] % 10).astype("int64"),
            "n": np.int64(1)})
        return g.groupby(["event_type", "hod", "s"], sort=False,
                         as_index=False)["n"].sum()

    cls = (ds.map_batches(partial, batch_format="pandas")
           .groupby(["event_type", "hod", "s"])
           .aggregate(Sum("n", alias_name="n"))).to_pandas()
    gtot = (cls.groupby("s")["n"].sum()
            .reindex(range(10), fill_value=0).to_numpy(np.int64))
    big_n = int(gtot.sum())
    cum_g = np.cumsum(gtot)
    rows = []
    for (et, hod), grp in cls.groupby(["event_type", "hod"],
                                      sort=True):
        cnt = (grp.set_index("s")["n"]
               .reindex(range(10), fill_value=0).to_numpy(np.int64))
        nc = int(cnt.sum())
        ell = int((cnt > 0).sum())
        emd = int(np.abs(cum_g * nc - np.cumsum(cnt) * big_n).sum())
        rows.append((et, int(hod), nc, ell, emd))
    out = pd.DataFrame(rows, columns=["event_type", "hod", "size",
                                      "l_div", "emd_scaled"])
    out = (out.sort_values(["emd_scaled", "event_type", "hod"],
                           ascending=[False, True, True])
           .head(10).reset_index(drop=True))
    return out.astype({"hod": "int64", "size": "int64",
                       "l_div": "int64", "emd_scaled": "int64"})


def q_mad_outlier_events(sf_dir: str):
    """Robust dispersion + outlier counts per event_type in EXACT
    integers: lower-median of value cents (rank rule: first value whose
    cumulative count reaches floor((n−1)/2)+1 — no interpolation, so
    both engines agree on even counts), MAD as the lower-median of
    |x − med| over the same histogram, outliers = values with deviation
    > 5·MAD. ONE distributed per-(type, cents) histogram exchange; the
    two median walks run on the aggregated histogram (bounded by
    distinct cents), never on raw rows."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"event_type": df["event_type"].astype(str),
                          "c": _cents(df["value"]),
                          "n": np.int64(1)})
        return g.groupby(["event_type", "c"], sort=False,
                         as_index=False)["n"].sum()

    h = (ds.map_batches(partial, batch_format="pandas")
         .groupby(["event_type", "c"])
         .aggregate(Sum("n", alias_name="n"))).to_pandas()

    def lower_median(vals: np.ndarray, cnt: np.ndarray) -> int:
        order = np.argsort(vals, kind="stable")
        cum = np.cumsum(cnt[order])
        tot = int(cum[-1])
        k = (tot - 1) // 2 + 1
        return int(vals[order][np.searchsorted(cum, k)])

    rows = []
    for et, grp in h.groupby("event_type", sort=True):
        vals = grp["c"].to_numpy(np.int64)
        cnt = grp["n"].to_numpy(np.int64)
        med = lower_median(vals, cnt)
        dev = np.abs(vals - med)
        mad = lower_median(dev, cnt)
        n_out = int(cnt[dev > 5 * mad].sum())
        rows.append((et, med, mad, n_out))
    return pd.DataFrame(rows, columns=[
        "event_type", "median_cents", "mad_cents",
        "n_outliers"]).astype({"median_cents": "int64",
                               "mad_cents": "int64",
                               "n_outliers": "int64"})


SQLFRONT_DEMO = (
    "SELECT event_type, COUNT(*) AS n_events, MIN(event_id) AS min_id, "
    "MAX(event_id) AS max_id FROM events "
    "WHERE value > 10 AND event_type <> 'error' "
    "GROUP BY event_type ORDER BY event_type")


def q_sql_front_events(sf_dir: str):
    """The SQL front door end to end (sqlfront.py): the registered
    oracle twin IS the identical SQL string — the engine parses it,
    prunes the scan to the referenced columns, filters vectorized, runs
    the grouped aggregate through the bucketed-exchange pattern, and
    must reproduce DuckDB's answer for its own query language."""
    from . import sqlfront

    out = sqlfront.sql_query(
        SQLFRONT_DEMO, {"events": f"{sf_dir}/events.parquet"})
    return out.astype({"n_events": "int64", "min_id": "int64",
                       "max_id": "int64"})


SQLFRONT_OUTER = (
    "SELECT n_name, COUNT(c_custkey) AS n_cust, "
    "COUNT(DISTINCT c_mktsegment) AS n_seg FROM customer "
    "RIGHT JOIN nation ON c_nationkey = n_nationkey "
    "GROUP BY n_name ORDER BY n_name")


def q_sql_front_outer(sf_dir: str):
    """SQL front door round 5 surface: RIGHT OUTER JOIN (NULL-bearing
    left side) + exact distributed COUNT(DISTINCT) — the oracle twin is
    the identical SQL string run by DuckDB, so parser, Ray-native
    outer join, and the pickled-distinct-set aggregate must all agree
    down to the NULL semantics."""
    from . import sqlfront

    out = sqlfront.sql_query(
        SQLFRONT_OUTER, {"customer": f"{sf_dir}/customer.parquet",
                         "nation": f"{sf_dir}/nation.parquet"})
    return out.astype({"n_cust": "int64", "n_seg": "int64"})



def q_dp_counts_events(sf_dir: str):
    """Differentially-private count release (derandomized): per
    event_type, count(*) plus discrete-Laplace noise — the two-sided
    geometric mechanism with alpha = 1/2 (epsilon = ln 2, Ghosh-
    Roughgarden-Sundararajan's universally-optimal count mechanism) —
    realized by EXACT integer inverse-CDF transform of a seeded md5
    fraction u = m / 2^48, so engine and oracle agree bit-for-bit.
    The seeding makes the release deterministic (reproducible
    pipelines); a production DP deployment would draw u from real
    randomness — documented simplification, the mechanism math is the
    real one. Noise support truncated to [-40, 40] (tail mass 2^-40).

    Scale shape: per-batch partial counts, driver merge over the tiny
    event_type cardinality (q1 pattern), noise per GROUP — nothing
    row-sized leaves the cluster."""
    import hashlib

    ds = _read(sf_dir, "events", ["event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("event_type", as_index=False)
                .size().rename(columns={"size": "n"}))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    g = parts.groupby("event_type", as_index=False)["n"].sum()

    M = 1 << 48

    def noise_of(key: str) -> int:
        # inverse CDF of the two-sided geometric, alpha = 1/2:
        # F(-k) = 2^(1-k)/3,  F(n>=0) = 1 - 2^(-n)/3 — all
        # comparisons in exact integers against u = m / 2^48
        m = int(hashlib.md5(key.encode()).hexdigest()[:12], 16)
        for nz in range(-40, 41):
            if nz < 0:
                if 3 * m * (1 << (-nz - 1)) < M:
                    return nz
            else:
                if M < 3 * (M - m) * (1 << nz):
                    return nz
        return 40

    g["noise"] = [np.int64(noise_of(t + ":dp1"))
                  for t in g["event_type"]]
    g["noisy_count"] = (g["n"].astype("int64")
                        + g["noise"]).astype("int64")
    return (g[["event_type", "noisy_count", "noise"]]
            .sort_values("event_type").reset_index(drop=True)
            .astype({"noisy_count": "int64", "noise": "int64"}))



def q_embedding_decontaminate(sf_dir: str):
    """Embedding-space benchmark decontamination (the vector-similarity
    analogue of the n-gram protocol, q_decontaminate_docs): the held-out
    set is every ``vec_id % 17 == 0``; a TRAIN vector is contaminated
    when its EXACT integer-milli squared-L2 distance to any held-out
    vector is ≤ D2MAX. Scale shape: the held-out matrix is small by
    construction (a benchmark, not the corpus) and broadcasts once via
    ray.put; the corpus streams through one int64-matmul batch pass —
    zero shuffles, per-row integer outputs, per-row-exact DuckDB twin.
    nearest_test ties break to the smallest held-out id."""
    import ray

    D2MAX = 1_450_000
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    test = (ds.map_batches(lambda df: df[df["vec_id"] % 17 == 0],
                           batch_format="pandas")
            .to_pandas().sort_values("vec_id"))
    tids = test["vec_id"].to_numpy(np.int64)
    tv = np.stack(test["embedding"].to_numpy()) * 1000.0
    tm = (np.sign(tv) * np.floor(np.abs(tv) + 0.5)).astype(np.int64)
    tids_ref, tm_ref = ray.put(tids), ray.put(tm)

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["vec_id"] % 17 != 0]
        if not len(df):
            return pd.DataFrame({
                "vec_id": pd.Series([], dtype="int64"),
                "min_d2": pd.Series([], dtype="int64"),
                "nearest_test": pd.Series([], dtype="int64"),
                "contaminated": pd.Series([], dtype="int64")})
        t_ids, t_m = ray.get(tids_ref), ray.get(tm_ref)
        vv = np.stack(df["embedding"].to_numpy()) * 1000.0
        bm = (np.sign(vv) * np.floor(np.abs(vv) + 0.5)).astype(np.int64)
        d2 = ((bm * bm).sum(1)[:, None] + (t_m * t_m).sum(1)[None, :]
              - 2 * (bm @ t_m.T))
        mind2 = d2.min(1)
        eq = d2 == mind2[:, None]
        nearest = np.where(eq, t_ids[None, :],
                           np.iinfo(np.int64).max).min(1)
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype("int64").to_numpy(),
            "min_d2": mind2.astype("int64"),
            "nearest_test": nearest.astype("int64"),
            "contaminated": (mind2 <= D2MAX).astype("int64")})

    return ds.map_batches(scan, batch_format="pandas").sort("vec_id")


def q_perceptron_docs(sf_dir: str):
    """Distributed BATCH perceptron (Rosenblatt rule, epoch-level
    updates) training a quality gate: predict ``lang == 'en'`` from
    INTEGER document features (n_chars, token count, digit count, upper
    count, bias). All-integer weights, 3 epochs, so the run is exact:
    each epoch streams one batch pass emitting the misclassified
    gradient partial sums (k-means-style partial rows — only d+2 ints
    per batch reach the driver), w += sum(y·x) over misclassified.
    Returns the weight trajectory per epoch plus final error count; the
    DuckDB twin unrolls the 3 epochs as chained CTEs."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].fillna("")
        return pd.DataFrame({
            "x0": np.int64(1),
            "x1": t.str.len().astype("int64") // 100,
            "x2": (t.str.count(" ").astype("int64") + 1) // 10,
            "x3": t.str.count(r"\d").astype("int64"),
            "x4": t.str.count(r"[A-Z]").astype("int64"),
            "y": np.where(df["lang"] == "en", 1, -1).astype("int64")})

    fds = ds.map_batches(feats, batch_format="pandas").materialize()
    D = 5
    w = np.zeros(D, np.int64)
    rows = []
    for epoch in range(1, 4):
        def partial(df: pd.DataFrame, w=w.copy()) -> pd.DataFrame:
            X = df[["x0", "x1", "x2", "x3", "x4"]].to_numpy(np.int64)
            y = df["y"].to_numpy(np.int64)
            mis = (X @ w) * y <= 0
            g = (X[mis] * y[mis, None]).sum(0)
            out = {f"g{i}": np.int64(g[i]) for i in range(D)}
            out["n_mis"] = np.int64(int(mis.sum()))
            return pd.DataFrame([out])

        agg = fds.map_batches(partial, batch_format="pandas").to_pandas()
        w = w + agg[[f"g{i}" for i in range(D)]].sum().to_numpy(np.int64)
        rows.append({"epoch": np.int64(epoch),
                     "n_mis": np.int64(agg["n_mis"].sum()),
                     **{f"w{i}": np.int64(w[i]) for i in range(D)}})
    return pd.DataFrame(rows).astype("int64")


def q_bigram_coverage_docs(sf_dir: str):
    """Bigram-coverage contamination/novelty stats: docs split
    train/test on doc_id % 10 (test = 0); per TEST doc, how many of its
    word bigrams appear anywhere in the train split. Tokenization is
    the decontamination protocol's (lowercase, split on non-alnum runs,
    pinned to DuckDB's string_split_regex). Distributed shape: exploded
    (hash(bigram)) rows from both splits co-locate in ONE bucketed
    exchange (semi-join idiom); per-doc counts aggregate on the test
    side — bigram text itself never shuffles (md5 keys do)."""
    import hashlib

    from .ops import semi_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def bigrams(df: pd.DataFrame, split: str) -> pd.DataFrame:
        sel = (df["doc_id"] % 10 == 0) if split == "test" \
            else (df["doc_id"] % 10 != 0)
        df = df[sel]
        out_doc, out_h, out_idx = [], [], []
        for did, text in zip(df["doc_id"], df["text"].fillna("")):
            toks = [t for t in _re.split(r"[^a-z0-9]+", text.lower())
                    if t]
            for i in range(len(toks) - 1):
                out_doc.append(did)
                out_idx.append(i)
                out_h.append(hashlib.md5(
                    (toks[i] + " " + toks[i + 1]).encode()).hexdigest()[:16])
        return pd.DataFrame({"doc_id": pd.Series(out_doc, dtype="int64"),
                             "idx": pd.Series(out_idx, dtype="int64"),
                             "h": pd.Series(out_h, dtype=object)})

    test = ds.map_batches(lambda df: bigrams(df, "test"),
                          batch_format="pandas")
    train = ds.map_batches(
        lambda df: bigrams(df, "train")[["h"]].drop_duplicates(),
        batch_format="pandas")
    hit = semi_join(test, train, "h", "h")

    def count_part(df: pd.DataFrame, col: str) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False).size()
        out = pd.DataFrame({"doc_id": g.index.to_numpy(np.int64),
                            "n": np.int64(0), "c": np.int64(0)})
        out[col] = g.to_numpy(np.int64)
        return out

    # per-doc totals and hits are partial rows; ONE bucketed exchange
    # combines them — the per-test-doc result never lands on the driver
    u = (test.map_batches(lambda df: count_part(df, "n"),
                          batch_format="pandas")
         .union(hit.map_batches(lambda df: count_part(df, "c"),
                                batch_format="pandas")))

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", as_index=False)[["n", "c"]].sum()
        g["covered_milli"] = (g["c"] * 2000 + g["n"]) // (2 * g["n"])
        return (g.rename(columns={"n": "n_bigrams", "c": "n_covered"})
                .astype("int64"))

    return (bucket_exchange(u, ["doc_id"], combine, 64, "pandas")
            .sort("doc_id"))



def q_xlsx_roundtrip_events(sf_dir: str):
    """XLSX ingestion edge (xlsxcodec — the engine's own ECMA-376
    SpreadsheetML subset, stdlib zip+xml): events stream out as one
    .xlsx per block (shared-strings text, numeric cells, ISO-text
    timestamps), read BACK block-parallel by file, and aggregate per
    event_type — the twin over the original parquet proves the full
    write→read→compute loop including the timestamp text round-trip."""
    from . import sources

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ts = pd.to_datetime(df["ts"])
        return pd.DataFrame({
            "event_type": df["event_type"],
            "n": np.int64(1),
            "cents": _cents(df["value"]),
            "user_id": df["user_id"].astype("int64"),
            "day": ts.dt.strftime("%Y-%m-%d")})

    with _scratch_dir("xlsx") as out_dir:
        sources.write_table(ds, out_dir, fmt="xlsx")
        back = sources.read_table(out_dir, fmt="xlsx",
                                  columns=["ts", "event_type", "user_id",
                                           "value"])
        out = bucket_exchange(back.map_batches(partial, batch_format="pandas"),
                              ["event_type"], _roundtrip_rollup, 16,
                              "pandas").to_pandas()
    return (out.sort_values("event_type")
            .reset_index(drop=True)
            .astype({"n_events": "int64", "sum_value_cents": "int64",
                     "n_users": "int64", "n_days": "int64"}))


def _roundtrip_rollup(df: pd.DataFrame) -> pd.DataFrame:
    """Per event_type: events, value cents, distinct users and days — the
    aggregate the XLSX and Avro round-trip queries check."""
    g = df.groupby("event_type", sort=False)
    return pd.DataFrame({"n_events": g.size(),
                         "sum_value_cents": g["cents"].sum(),
                         "n_users": g["user_id"].nunique(),
                         "n_days": g["day"].nunique()}).reset_index()


def q_avro_roundtrip_events(sf_dir: str):
    """Avro OCF ingestion edge (avrocodec — the engine's own container
    reader/writer from the Avro 1.11 spec: zigzag varints, deflate
    codec, sync markers): events stream out as one .avro object
    container file per block (timestamps as timestamp-micros longs),
    read BACK block-parallel by file, and aggregate per event_type —
    the parquet twin proves the full write→read→compute loop including
    the micros timestamp mapping. Scale shape: one file per block both
    ways (block-parallel, nothing driver-sized), partial per-batch
    aggregate before the one small groupby."""
    from . import sources

    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # ts decoded from the OCF as timestamp-micros int64
        ts = pd.to_datetime(df["ts"].astype("int64"), unit="us")
        return pd.DataFrame({
            "event_type": df["event_type"],
            "cents": _cents(df["value"]),
            "user_id": df["user_id"].astype("int64"),
            "day": ts.dt.strftime("%Y-%m-%d")})

    with _scratch_dir("avro") as out_dir:
        sources.write_table(ds, out_dir, fmt="avro")
        back = sources.read_table(out_dir, fmt="avro",
                                  columns=["ts", "event_type", "user_id",
                                           "value"])
        out = bucket_exchange(back.map_batches(partial, batch_format="pandas"),
                              ["event_type"], _roundtrip_rollup, 16,
                              "pandas").to_pandas()
    return (out.sort_values("event_type")
            .reset_index(drop=True)
            .astype({"n_events": "int64", "sum_value_cents": "int64",
                     "n_users": "int64", "n_days": "int64"}))


def q_mmr_select_docs(sf_dir: str):
    """Maximal-marginal-relevance diverse selection (Carbonell &
    Goldstein 1998, the diversity-sampling curation primitive) over the
    embeddings table, in EXACT integers: coordinates milli-quantized;
    relevance = −d2 to the truncated integer centroid; diversity = min
    squared distance to the already-selected set; each round picks
    argmax(min_sel_d2 − d2c), ties to the smallest vec_id, k=4.

    Scale shape: centroid = one partial-sum pass (d ints per batch);
    each selection round is one streaming pass emitting ONE best-row
    partial per batch against the broadcast selected matrix (k-center
    idiom) — nothing corpus-sized on the driver, zero shuffles. The
    DuckDB twin chains the four rounds as CTEs on the same integer
    arithmetic."""
    import ray

    K = 4
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def to_int(df: pd.DataFrame) -> np.ndarray:
        v = np.stack(df["embedding"].to_numpy()) * 1000.0
        return (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)

    # pass 1: truncated integer centroid from partial sums
    def cent_part(df: pd.DataFrame) -> pd.DataFrame:
        m = to_int(df)
        out = {f"s{i}": np.int64(m[:, i].sum()) for i in range(m.shape[1])}
        out["n"] = np.int64(len(df))
        return pd.DataFrame([out])

    agg = ds.map_batches(cent_part, batch_format="pandas").to_pandas()
    n = int(agg["n"].sum())
    d = len(agg.columns) - 1
    cent = np.array([int(agg[f"s{i}"].sum()) // n for i in range(d)],
                    np.int64)
    cent_ref = ray.put(cent)

    sel_ids: list[int] = []
    sel_m = np.zeros((0, d), np.int64)
    rows = []
    for rank in range(1, K + 1):
        sel_ref = ray.put(sel_m)

        def best_part(df: pd.DataFrame, sel_ids=tuple(sel_ids)) \
                -> pd.DataFrame:
            df = df[~df["vec_id"].isin(sel_ids)]
            if not len(df):
                return pd.DataFrame({
                    "vec_id": pd.Series([], dtype="int64"),
                    "d2c": pd.Series([], dtype="int64"),
                    "score": pd.Series([], dtype="int64")})
            m = to_int(df)
            c = ray.get(cent_ref)
            d2c = ((m - c[None, :]) ** 2).sum(1)
            sm = ray.get(sel_ref)
            if len(sm):
                d2s = ((m * m).sum(1)[:, None]
                       + (sm * sm).sum(1)[None, :]
                       - 2 * (m @ sm.T)).min(1)
                score = d2s - d2c
            else:
                score = -d2c
            # batch-best: max score, tie smallest id
            order = np.lexsort((df["vec_id"].to_numpy(np.int64),
                                -score))
            b = order[0]
            return pd.DataFrame({
                "vec_id": df["vec_id"].to_numpy(np.int64)[b:b + 1],
                "d2c": d2c[b:b + 1].astype(np.int64),
                "score": score[b:b + 1].astype(np.int64)})

        cand = (ds.map_batches(best_part, batch_format="pandas")
                .to_pandas()
                .sort_values(["score", "vec_id"],
                             ascending=[False, True]))
        top = cand.iloc[0]
        sel_ids.append(int(top["vec_id"]))
        rows.append({"sel_rank": np.int64(rank),
                     "vec_id": np.int64(top["vec_id"]),
                     "d2c": np.int64(top["d2c"])})
        pick = ds.map_batches(
            lambda df, vid=int(top["vec_id"]): df[df["vec_id"] == vid],
            batch_format="pandas").to_pandas()
        sel_m = np.concatenate([sel_m, to_int(pick)], axis=0)
    return pd.DataFrame(rows).astype("int64")


def q_domain_centroid_dist(sf_dir: str):
    """Domain-similarity matrix (dataset-mixing diagnostics): per-source
    integer-milli embedding centroid (floor-divided), then exact int64
    squared distances between every source pair. Scale shape: pruned
    reads of both tables, ONE normalized hash join on the id, then each
    batch emits n_sources×d partial-sum rows — only (sources × dims)
    ints reach the driver; the 20×20 distance matrix is driver-trivial.
    Twin mirrors the floor-divide centroid arithmetic."""
    from . import ops

    import pyarrow as pa

    def to_bytes_tbl(df: pd.DataFrame) -> "pa.Table":
        # Arrow's hash join rejects list<float> payload columns — ship
        # the vector as fixed-width bytes across the exchange
        return pa.table({
            "vec_id": pa.array(df["vec_id"].astype("int64")),
            "emb_b": pa.array([np.asarray(e, np.float32).tobytes()
                               for e in df["embedding"]], pa.binary())})

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]) \
        .map_batches(to_bytes_tbl, batch_format="pandas")
    docs = _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        lambda df: df.rename(columns={"doc_id": "vec_id"}),
        batch_format="pandas")
    emb_n = ops.materialize_normalized(
        emb, pa.schema([("vec_id", pa.int64()), ("emb_b", pa.binary())]))
    docs_n = ops.materialize_normalized(
        docs, pa.schema([("vec_id", pa.int64()),
                         ("source", pa.string())]))
    joined = emb_n.join(docs_n, "inner", ops._default_partitions(),
                        on=("vec_id",))

    def part(df: pd.DataFrame) -> pd.DataFrame:
        v = np.stack([np.frombuffer(b, np.float32)
                      for b in df["emb_b"]]).astype(np.float64) * 1000.0
        m = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        out = []
        for src, idx in df.groupby("source").indices.items():
            s = m[idx].sum(0)
            row = {"source": src, "n": np.int64(len(idx))}
            row.update({f"s{i}": np.int64(s[i]) for i in range(m.shape[1])})
            out.append(row)
        return pd.DataFrame(out)

    agg = joined.map_batches(part, batch_format="pandas").to_pandas()
    d = len([c for c in agg.columns
             if c[0] == "s" and c[1:].isdigit()])
    g = agg.groupby("source", as_index=False).sum()
    cents = {}
    for _, r in g.iterrows():
        n = int(r["n"])
        cents[r["source"]] = np.array(
            [int(r[f"s{i}"]) // n for i in range(d)], np.int64)
    rows = []
    srcs = sorted(cents)
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            diff = cents[a] - cents[b]
            rows.append({"src_a": a, "src_b": b,
                         "d2": np.int64((diff * diff).sum())})
    out = pd.DataFrame(rows).astype({"d2": "int64"})
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


def q_record_linkage_customers(sf_dir: str):
    """Deterministic Fellegi–Sunter-style record linkage over the
    customer table: candidate pairs BLOCK on c_nationkey (the classic
    blocking key — only within-block pairs are ever scored), integer
    agreement weights per field (+30 same market segment, +25 account
    balance within 1000.00 as integer cents, +20 matching custkey%100
    check digits), pairs scoring ≥ 45 reported, top 20 by (weight desc,
    a, b). One bucketed exchange on the blocking key; within-block
    scoring is vectorized; pair rows never leave their block."""
    ds = _read(sf_dir, "customer",
               ["c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"])

    def score_block(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in df.groupby("c_nationkey"):
            g = g.sort_values("c_custkey")
            k = g["c_custkey"].to_numpy(np.int64)
            seg = g["c_mktsegment"].to_numpy()
            cents = np.round(g["c_acctbal"].to_numpy() * 100) \
                .astype(np.int64)
            dig = k % 100
            n = len(g)
            for i in range(n - 1):
                w = (30 * (seg[i + 1:] == seg[i]).astype(np.int64)
                     + 25 * (np.abs(cents[i + 1:] - cents[i])
                             < 100_000).astype(np.int64)
                     + 20 * (dig[i + 1:] == dig[i]).astype(np.int64))
                hit = np.nonzero(w >= 45)[0]
                for j in hit:
                    out.append((int(k[i]), int(k[i + 1 + j]), int(w[j])))
        return pd.DataFrame(out, columns=["cust_a", "cust_b", "weight"]) \
            .astype("int64") if out else pd.DataFrame({
                "cust_a": pd.Series([], dtype="int64"),
                "cust_b": pd.Series([], dtype="int64"),
                "weight": pd.Series([], dtype="int64")})

    pairs = bucket_exchange(ds, ["c_nationkey"], score_block, 32,
                            "pandas").to_pandas()
    return (pairs.sort_values(["weight", "cust_a", "cust_b"],
                              ascending=[False, True, True])
            .head(20).reset_index(drop=True))


def q_group_sample_docs(sf_dir: str):
    """Exact-k-per-group deterministic sampling (pick k=3 docs per
    source by md5 priority — the 'k examples per domain' curation
    primitive; hash order ≙ uniform-without-replacement but
    reproducible). One bucketed exchange on the group key; the per-group
    head runs inside the group — no global sort, no driver state."""
    import hashlib

    K = 3
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def pri(df: pd.DataFrame) -> pd.DataFrame:
        h = [hashlib.md5(f"gs|{d}".encode()).hexdigest()[:16]
             for d in df["doc_id"]]
        return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                             "source": df["source"],
                             "pri": pd.Series(h, dtype=object)})

    def head_k(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "pri", "doc_id"],
                            kind="mergesort")
        out = df.groupby("source", sort=True).head(K)
        out = out.assign(pick_rank=out.groupby("source").cumcount()
                         .astype("int64") + 1)
        return out[["source", "pick_rank", "doc_id"]].astype(
            {"doc_id": "int64", "pick_rank": "int64"})

    return (bucket_exchange(ds.map_batches(pri, batch_format="pandas"),
                            ["source"], head_k, 32, "pandas")
            .sort(["source", "pick_rank"]))



QUERIES = {
    # --- driver certification set (first 50): flagship + the round-3/4
    # operators never yet certified by a CORRECTNESS_r*.json (VERDICT r04 #1).
    "kg_flagship_triples": kg_flagship_triples,
    "q_sql_front_events": q_sql_front_events,
    "q_delta_roundtrip_events": q_delta_roundtrip_events,
    "q_iceberg_roundtrip_docs": q_iceberg_roundtrip_docs,
    "q_paragraph_dedup_docs": q_paragraph_dedup_docs,
    "q_lpa_communities_docs": q_lpa_communities_docs,
    "q_dbscan_embeddings": q_dbscan_embeddings,
    "q_watermark_window_events": q_watermark_window_events,
    "q_pq_adc_topk": q_pq_adc_topk,
    "q_pq_codes": q_pq_codes,
    "q_decontaminate_docs": q_decontaminate_docs,
    "q_sparql_text_distributed": q_sparql_text_distributed,
    "q_sparql_agg_full_distributed": q_sparql_agg_full_distributed,
    "q_sparql_graph_distributed": q_sparql_graph_distributed,
    "q_sparql_not_exists_distributed": q_sparql_not_exists_distributed,
    "q_sparql_construct_distributed": q_sparql_construct_distributed,
    "q_sparql_optional_distributed": q_sparql_optional_distributed,
    "q_sparql_distributed": q_sparql_distributed,
    "q_transitive_closure": q_transitive_closure,
    "q_bpe_train_merges": q_bpe_train_merges,
    "q_bpe_tokenize_docs": q_bpe_tokenize_docs,
    "q_dup_span_docs": q_dup_span_docs,
    "q_c4_filter_docs": q_c4_filter_docs,
    "q_mixture_sample_docs": q_mixture_sample_docs,
    "q_profile_events": q_profile_events,
    "q_embedding_covariance": q_embedding_covariance,
    "q_cms_user_counts": q_cms_user_counts,
    "q_html_extract_docs": q_html_extract_docs,
    "q_sq8_embeddings": q_sq8_embeddings,
    "q_kaplan_meier_events": q_kaplan_meier_events,
    "q_ranktests_events": q_ranktests_events,
    "q_theil_sen_events": q_theil_sen_events,
    "q_rank_fusion_docs": q_rank_fusion_docs,
    "q_mad_outlier_events": q_mad_outlier_events,
    "q_privacy_audit_events": q_privacy_audit_events,
    "q_decision_stump_events": q_decision_stump_events,
    "q_cusum_events": q_cusum_events,
    "q_debounce_events": q_debounce_events,
    "q_fd_mine_events": q_fd_mine_events,
    "q_autocorr_events": q_autocorr_events,
    "q_ann_lsh_multiprobe": q_ann_lsh_multiprobe,
    "q_ann_hamming_topk": q_ann_hamming_topk,
    "q_kcenter_coreset": q_kcenter_coreset,
    "q_hll_by_type": q_hll_by_type,
    "q_containment_pairs": q_containment_pairs,
    "q_range_window_events": q_range_window_events,
    "q_pack_sequences": q_pack_sequences,
    "q_chunk_docs": q_chunk_docs,
    "q_bloom_semi_join": q_bloom_semi_join,
    "q_skew_join_enrich": q_skew_join_enrich,
    # --- previously certified in rounds 1-4 (CORRECTNESS_r01..r04)
    "q1_pricing_summary": q1_pricing_summary,
    "q_top_orders": q_top_orders,
    "q_segment_revenue": q_segment_revenue,
    "q_supplier_nation": q_supplier_nation,
    "q_lag_events": q_lag_events,
    "q_hourly_user_activity": q_hourly_user_activity,
    "q_event_type_stats": q_event_type_stats,
    "q_distinct_sources": q_distinct_sources,
    "q_filter_en_docs": q_filter_en_docs,
    "q_explode_embeddings": q_explode_embeddings,
    "q_exact_dedup_docs": q_exact_dedup_docs,
    "q_anti_join_customers": q_anti_join_customers,
    "q_semi_join_orders": q_semi_join_orders,
    "q_token_stats": q_token_stats,
    "q_fingerprint_docs": q_fingerprint_docs,
    "q_ann_topk": q_ann_topk,
    "q_langid_docs": q_langid_docs,
    "q_simhash_docs": q_simhash_docs,
    "q_minhash_neardup_pairs": q_minhash_neardup_pairs,
    "q_neardup_clusters": q_neardup_clusters,
    "q_ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "q_ann_lsh_topk": q_ann_lsh_topk,
    "q_catalog_search": q_catalog_search,
    "q_sessionize": q_sessionize,
    "q_media_features": q_media_features,
    "q_media_probe": q_media_probe,
    "q_media_audio_stats": q_media_audio_stats,
    "q_media_video_frames": q_media_video_frames,
    "kg_canonical_agents": kg_canonical_agents,
    "q_source_counts_salted": q_source_counts_salted,
    "q_topk_per_group": q_topk_per_group,
    "q_ann_ivf_topk": q_ann_ivf_topk,
    "q_cosine_neardup_pairs": q_cosine_neardup_pairs,
    "q_cosine_neardup_lsh": q_cosine_neardup_lsh,
    "q_kmeans_embeddings": q_kmeans_embeddings,
    "q_semdedup_embeddings": q_semdedup_embeddings,
    "q_gopher_quality_docs": q_gopher_quality_docs,
    "q_repetition_docs": q_repetition_docs,
    "q_pii_scrub_docs": q_pii_scrub_docs,
    "q_pagerank_docs": q_pagerank_docs,
    "q_quantiles_events": q_quantiles_events,
    "q_hll_users": q_hll_users,
    "q_bpe_token_stats": q_bpe_token_stats,
    "q_asof_join_events": q_asof_join_events,
    "q_band_join_events": q_band_join_events,
    "q_cube_revenue": q_cube_revenue,
    "q_bfs_distances": q_bfs_distances,
    "q_heavy_hitter_tokens": q_heavy_hitter_tokens,
    "q_quantile_hist_events": q_quantile_hist_events,
    # --- remainder (validated via tools/driver_sim.py at sf0.01)
    "q_avro_roundtrip_events": q_avro_roundtrip_events,
    "q_sql_front_outer": q_sql_front_outer,
    "q_dp_counts_events": q_dp_counts_events,
    "q_embedding_decontaminate": q_embedding_decontaminate,
    "q_perceptron_docs": q_perceptron_docs,
    "q_bigram_coverage_docs": q_bigram_coverage_docs,
    "q_xlsx_roundtrip_events": q_xlsx_roundtrip_events,
    "q_mmr_select_docs": q_mmr_select_docs,
    "q_domain_centroid_dist": q_domain_centroid_dist,
    "q_record_linkage_customers": q_record_linkage_customers,
    "q_group_sample_docs": q_group_sample_docs,
    "q_cumsum_events": q_cumsum_events,
    "q_tfidf_top_terms": q_tfidf_top_terms,
    "q_rank_events": q_rank_events,
    "q_pivot_events": q_pivot_events,
    "q_set_ops_docs": q_set_ops_docs,
    "q_weighted_sample_docs": q_weighted_sample_docs,
    "q_winnow_dup_pairs": q_winnow_dup_pairs,
    "q_edit_distance_pairs": q_edit_distance_pairs,
    "q_triangle_count": q_triangle_count,
    "q_collect_events": q_collect_events,
    "q_bm25_docs": q_bm25_docs,
    "q_cust_order_dist": q_cust_order_dist,
    "q_sparql_select": q_sparql_select,
    "q_sparql_optional": q_sparql_optional,
    "q_sparql_union": q_sparql_union,
    "q_sparql_agg": q_sparql_agg,
    "q_sparql_construct": q_sparql_construct,
    "q_sparql_ask": q_sparql_ask,
    "q_sparql_describe": q_sparql_describe,
    "q_sparql_agg_distributed": q_sparql_agg_distributed,
    "q_sparql_having": q_sparql_having,
    "q_sparql_expr": q_sparql_expr,
    "q_sparql_graph": q_sparql_graph,
    "q_stratified_sample_docs": q_stratified_sample_docs,
    "q_lm_quality_docs": q_lm_quality_docs,
    "kg_sparql_activity_stats": kg_sparql_activity_stats,
    "q_sparql_not_exists": q_sparql_not_exists,
    "q_moving_sum_events": q_moving_sum_events,
    "q_nation_revenue_3way": q_nation_revenue_3way,
    "q_orders_by_month": q_orders_by_month,
    "q_distinct_users_per_type": q_distinct_users_per_type,
    "q_value_buckets": q_value_buckets,
    "q_part_brand_stats": q_part_brand_stats,
    "q_union_tagged": q_union_tagged,
    "q_json_extract_stats": q_json_extract_stats,
    "q_regex_extract_docs": q_regex_extract_docs,
    "q_hash_sample_docs": q_hash_sample_docs,
    "q_string_ops": q_string_ops,
    "q_rollup_revenue": q_rollup_revenue,
    "q_curation_pipeline": q_curation_pipeline,
    "q_curation_full": q_curation_full,
    "q_curation_langid": q_curation_langid,
    "q_median_per_type": q_median_per_type,
    "q_lead_events": q_lead_events,
    "q_daily_activity_full": q_daily_activity_full,
    "q_corr_lineitem": q_corr_lineitem,
    "q_funnel_events": q_funnel_events,
    "q_source_divergence": q_source_divergence,
    "q_mode_per_group": q_mode_per_group,
    "q_group_variance": q_group_variance,
    "q_retention_cohorts": q_retention_cohorts,
    "q_hardneg_mining": q_hardneg_mining,
    "q_event_transitions": q_event_transitions,
    "q_outlier_events": q_outlier_events,
    "q_normalize_docs": q_normalize_docs,
    "q_url_canonicalize": q_url_canonicalize,
    "q_robots_filter_docs": q_robots_filter_docs,
    "q_gopher_filter_docs": q_gopher_filter_docs,
    "q_upsert_events": q_upsert_events,
    "q_webdataset_roundtrip": q_webdataset_roundtrip,
    "q_card_luhn_docs": q_card_luhn_docs,
    "q_unicode_nfc_docs": q_unicode_nfc_docs,
    "q_kmv_distinct_events": q_kmv_distinct_events,
    "q_ams_f2_events": q_ams_f2_events,
    "q_kmv_set_ops_events": q_kmv_set_ops_events,
    "q_kcore_docs": q_kcore_docs,
    "q_ra_link_pred_docs": q_ra_link_pred_docs,
    "q_sqlite_roundtrip_events": q_sqlite_roundtrip_events,
    "q_naive_bayes_docs": q_naive_bayes_docs,
    "q_phrase_search_docs": q_phrase_search_docs,
    "q_gini_user_diversity": q_gini_user_diversity,
    "q_ab_test_events": q_ab_test_events,
    "q_interval_join_events": q_interval_join_events,
    "q_power_iteration_embeddings": q_power_iteration_embeddings,
    "q_soundex_docs": q_soundex_docs,
    "q_chi2_events": q_chi2_events,
    "q_random_walks_docs": q_random_walks_docs,
    "q_ann_recall_eval": q_ann_recall_eval,
    "q_geo_join_events": q_geo_join_events,
    "q_benford_values": q_benford_values,
    "q_decayed_heavy_hitters": q_decayed_heavy_hitters,
    "q_shot_boundary_media": q_shot_boundary_media,
    "q_zorder_events": q_zorder_events,
    "q_web_curation_docs": q_web_curation_docs,
    "q_scd2_events": q_scd2_events,
    "q_ip_range_lookup_events": q_ip_range_lookup_events,
    "q_exif_roundtrip_docs": q_exif_roundtrip_docs,
    "q_subtitle_stats_docs": q_subtitle_stats_docs,
    "q_simhash_neardup_pairs": q_simhash_neardup_pairs,
    "q_mojibake_fix_docs": q_mojibake_fix_docs,
    "q_validate_events": q_validate_events,
    "q_kanon_events": q_kanon_events,
    "q_table_diff_events": q_table_diff_events,
    "q_sentence_split_docs": q_sentence_split_docs,
    "q_readability_docs": q_readability_docs,
    "q_feature_hash_docs": q_feature_hash_docs,
    "q_skipgram_pairs": q_skipgram_pairs,
    "q_novelty_docs": q_novelty_docs,
    "q_percent_rank_events": q_percent_rank_events,
    "q_link_graph_docs": q_link_graph_docs,
    "q_keyword_match_docs": q_keyword_match_docs,
    "q_hopping_window_events": q_hopping_window_events,
    "q_gap_fill_events": q_gap_fill_events,
    "q_dsir_select_docs": q_dsir_select_docs,
    "q_pdf_extract_docs": q_pdf_extract_docs,
    "q_porter_stem_docs": q_porter_stem_docs,
    "q_copurchase_pairs": q_copurchase_pairs,
    "q_pmi_bigrams": q_pmi_bigrams,
    "q_bleu_pairs": q_bleu_pairs,
    "q_interval_coverage_events": q_interval_coverage_events,
    "q_ewma_events": q_ewma_events,
    "q_rouge_l_pairs": q_rouge_l_pairs,
    "q_hits_docs": q_hits_docs,
    "q_image_dhash_pairs": q_image_dhash_pairs,
    "q_wordpiece_stats_docs": q_wordpiece_stats_docs,
}


ORACLE_SQL = {
    "q1_pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
               CAST(SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
               CAST(SUM(CAST(ROUND(l_extendedprice*(1-l_discount)*100) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
               COUNT(*) AS count_order
        FROM lineitem
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "q_top_orders": """
        SELECT o_orderkey, o_custkey, o_totalprice
        FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
    """,
    "q_segment_revenue": """
        SELECT c.c_mktsegment,
               CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
               COUNT(*) AS n_orders
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment
    """,
    "q_supplier_nation": """
        SELECT n.n_name,
               CAST(SUM(CAST(ROUND(s.s_acctbal*100) AS BIGINT)) AS BIGINT) AS sum_acctbal_cents,
               COUNT(*) AS n_suppliers
        FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
        GROUP BY n.n_name ORDER BY n.n_name
    """,
    "q_lag_events": """
        SELECT event_id, user_id,
               LAG(event_id) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   AS prev_event_id
        FROM events ORDER BY event_id
    """,
    "q_hourly_user_activity": """
        SELECT user_id, date_trunc('hour', ts) AS hour,
               COUNT(*) AS n_events,
               CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sum_value_cents
        FROM events GROUP BY user_id, date_trunc('hour', ts)
        ORDER BY user_id, hour
    """,
    "q_event_type_stats": """
        SELECT event_type, COUNT(*) AS n,
               CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sum_value_cents
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "q_distinct_sources": """
        SELECT DISTINCT source FROM documents ORDER BY source
    """,
    "q_filter_en_docs": """
        SELECT doc_id, n_chars FROM documents WHERE lang = 'en' ORDER BY doc_id
    """,
    "q_explode_embeddings": """
        SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS idx,
               unnest(embedding) AS val
        FROM embeddings WHERE vec_id < 50 ORDER BY vec_id, idx
    """,
    "q_exact_dedup_docs": """
        SELECT md5(COALESCE(text, '')) AS text_md5,
               MIN(doc_id) AS keep_id, COUNT(*) AS dup_count
        FROM documents GROUP BY md5(COALESCE(text, '')) ORDER BY text_md5
    """,
    "q_anti_join_customers": """
        SELECT c_custkey, c_name FROM customer c
        WHERE NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_totalprice > 400000)
        ORDER BY c_custkey
    """,
    "q_semi_join_orders": """
        SELECT o_orderkey, o_totalprice FROM orders o
        WHERE EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity >= 48)
        ORDER BY o_orderkey
    """,
    "q_token_stats": r"""
        SELECT doc_id,
               CASE WHEN trim(COALESCE(text,'')) = '' THEN 0
                    ELSE len(string_split_regex(trim(text), '\s+')) END AS tok_cnt,
               len(regexp_extract_all(COALESCE(text,''), '[.,;:!?]')) AS punct_cnt
        FROM documents ORDER BY doc_id
    """,
    "q_fingerprint_docs": r"""
        SELECT doc_id,
               md5(trim(regexp_replace(lower(COALESCE(text,'')), '\s+', ' ', 'g')))
                   AS fp_md5
        FROM documents ORDER BY doc_id
    """,
    # stopword lists inlined verbatim from textops.STOPWORDS (sorted);
    # ties break like Python's max((score, lang)) -> score DESC, lang DESC
    "q_langid_docs": r"""
        WITH d AS (SELECT doc_id, lower(COALESCE(text,'')) AS t FROM documents),
        toks AS (
          SELECT doc_id,
                 unnest(list_filter(string_split_regex(t, '\s+'),
                                    x -> x <> '')) AS tok
          FROM d),
        counts AS (
          SELECT doc_id, COUNT(*) AS n,
                 SUM(CASE WHEN tok IN ('auf','das','der','die','ein','für',
                                       'ist','mit','nicht','und')
                     THEN 1 ELSE 0 END) AS c_de,
                 SUM(CASE WHEN tok IN ('a','and','for','in','is','it','of',
                                       'that','the','to')
                     THEN 1 ELSE 0 END) AS c_en,
                 SUM(CASE WHEN tok IN ('con','de','el','es','la','los','por',
                                       'que','un','una')
                     THEN 1 ELSE 0 END) AS c_es,
                 SUM(CASE WHEN tok IN ('dans','est','et','la','le','les',
                                       'pour','que','un','une')
                     THEN 1 ELSE 0 END) AS c_fr
          FROM toks GROUP BY doc_id),
        scores AS (
          SELECT doc_id, 'de' AS lang, CAST(c_de AS DOUBLE)/n AS score FROM counts
          UNION ALL
          SELECT doc_id, 'en', CAST(c_en AS DOUBLE)/n FROM counts
          UNION ALL
          SELECT doc_id, 'es', CAST(c_es AS DOUBLE)/n FROM counts
          UNION ALL
          SELECT doc_id, 'fr', CAST(c_fr AS DOUBLE)/n FROM counts),
        best AS (
          SELECT doc_id, lang, score,
                 ROW_NUMBER() OVER (PARTITION BY doc_id
                                    ORDER BY score DESC, lang DESC) AS rn
          FROM scores)
        SELECT d0.doc_id,
               COALESCE(CASE WHEN b.score >= 0.08 THEN b.lang ELSE 'und' END,
                        'und') AS lang_pred
        FROM (SELECT doc_id FROM documents) d0
        LEFT JOIN (SELECT * FROM best WHERE rn = 1) b USING (doc_id)
        ORDER BY doc_id
    """,
    # bit b of the md5-prefix uint64 extracted straight from the hex nibble
    # (nibble 16 - b//4 from the left), so no hex->int cast is needed
    "q_simhash_docs": r"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(list_filter(string_split_regex(COALESCE(text,''),
                                                       '\s+'),
                                    x -> x <> '')) AS tok
          FROM documents),
        hs AS (SELECT doc_id, substr(md5(tok), 1, 16) AS h FROM toks),
        bits AS (
          SELECT doc_id, b.b,
                 ((strpos('0123456789abcdef', substr(h, 16 - b.b // 4, 1)) - 1)
                  >> (b.b % 4)) & 1 AS bit
          FROM hs CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b),
        votes AS (
          SELECT doc_id, b,
                 CASE WHEN 2 * SUM(bit) > COUNT(*) THEN 1 ELSE 0 END AS sig
          FROM bits GROUP BY doc_id, b),
        nibs AS (
          SELECT doc_id, b // 4 AS j, SUM(sig << (b % 4)) AS nib
          FROM votes GROUP BY doc_id, b // 4),
        hexes AS (
          SELECT doc_id,
                 string_agg(substr('0123456789abcdef',
                                   CAST(nib AS INTEGER) + 1, 1),
                            '' ORDER BY j DESC) AS simhash_hex
          FROM nibs GROUP BY doc_id)
        SELECT d0.doc_id,
               COALESCE(h.simhash_hex, '0000000000000000') AS simhash_hex
        FROM (SELECT doc_id FROM documents) d0
        LEFT JOIN hexes h USING (doc_id)
        ORDER BY doc_id
    """,
    "q_catalog_search": """
        SELECT DISTINCT 'https://gitprov.example/graph/' || source || '.example#'
               AS ns_url
        FROM documents WHERE lang = 'en' AND source = 'src9' ORDER BY ns_url
    """,
    "q_source_counts_salted": """
        SELECT source, COUNT(*) AS n_docs FROM documents
        GROUP BY source ORDER BY source
    """,
    "q_sessionize": """
        WITH x AS (
            SELECT user_id, ts, event_id,
                   LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                       AS prev_ts
            FROM events),
        y AS (
            SELECT user_id, event_id,
                   CAST(SUM(CASE WHEN prev_ts IS NULL
                             OR ts - prev_ts > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
            FROM x)
        SELECT user_id, session_id, COUNT(*) AS n_events
        FROM y GROUP BY user_id, session_id ORDER BY user_id, session_id
    """,
    "q_topk_per_group": """
        SELECT c_mktsegment, rk, o_orderkey FROM (
            SELECT c.c_mktsegment, o.o_orderkey,
                   ROW_NUMBER() OVER (PARTITION BY c.c_mktsegment
                                      ORDER BY o.o_totalprice DESC,
                                               o.o_orderkey) AS rk
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey)
        WHERE rk <= 2 ORDER BY c_mktsegment, rk
    """,
    "q_moving_sum_events": """
        SELECT event_id, user_id,
               CAST(SUM(CAST(ROUND(value*100) AS BIGINT))
                    OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                    AS BIGINT) AS mv_sum_cents
        FROM events ORDER BY event_id
    """,
    "q_nation_revenue_3way": """
        SELECT n.n_name,
               CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT)
                   AS sum_revenue_cents,
               COUNT(*) AS n_orders
        FROM orders o
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY n.n_name ORDER BY n.n_name
    """,
    "q_orders_by_month": """
        SELECT date_trunc('month', o_orderdate) AS month,
               COUNT(*) AS n_orders,
               CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT)
                   AS sum_cents
        FROM orders GROUP BY date_trunc('month', o_orderdate) ORDER BY month
    """,
    "q_distinct_users_per_type": """
        SELECT event_type, COUNT(DISTINCT user_id) AS n_users
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "q_value_buckets": """
        SELECT CASE WHEN value < 10 THEN 'low'
                    WHEN value < 100 THEN 'mid' ELSE 'high' END AS band,
               COUNT(*) AS n
        FROM events GROUP BY band ORDER BY band
    """,
    "q_part_brand_stats": """
        SELECT p_brand, COUNT(*) AS n_parts,
               CAST(MIN(p_size) AS BIGINT) AS min_size,
               CAST(MAX(p_size) AS BIGINT) AS max_size,
               CAST(SUM(CAST(ROUND(p_retailprice*100) AS BIGINT)) AS BIGINT)
                   AS sum_retail_cents
        FROM part GROUP BY p_brand ORDER BY p_brand
    """,
    "q_union_tagged": """
        SELECT 'order' AS kind, o_orderkey AS key FROM orders
        WHERE o_totalprice > 400000
        UNION ALL
        SELECT 'customer' AS kind, c_custkey AS key FROM customer
        WHERE c_acctbal < 0
        ORDER BY kind, key
    """,
    "q_string_ops": """
        SELECT c_custkey, upper(c_name) AS name_upper,
               substr(c_name, 1, 8) AS name_prefix,
               CAST(length(c_name) AS BIGINT) AS name_len,
               c_mktsegment || ':' || c_name AS tag
        FROM customer ORDER BY c_custkey
    """,
    "q_rollup_revenue": """
        SELECT COALESCE(c.c_mktsegment, 'ALL') AS seg,
               COALESCE(o.o_orderstatus, 'ALL') AS status,
               CAST(SUM(CAST(ROUND(o.o_totalprice*100) AS BIGINT)) AS BIGINT)
                   AS sum_cents
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY ROLLUP (c.c_mktsegment, o.o_orderstatus)
        ORDER BY seg, status
    """,
    "q_hash_sample_docs": """
        SELECT doc_id, n_chars FROM documents
        WHERE doc_id % 10 = 3 ORDER BY doc_id
    """,
    "q_curation_pipeline": r"""
        WITH keep AS (
            SELECT MIN(doc_id) AS keep_id
            FROM documents GROUP BY md5(COALESCE(text, ''))
        ),
        ann AS (
            SELECT doc_id, lang,
                   CASE WHEN trim(COALESCE(text,'')) = '' THEN 0
                        ELSE CAST(len(string_split_regex(trim(text), '\s+'))
                                  AS BIGINT) END AS tok_cnt,
                   CAST(length(COALESCE(text, '')) AS BIGINT) AS n_chars,
                   md5(COALESCE(text, '')) AS text_md5
            FROM documents
        )
        SELECT a.doc_id, a.lang, a.tok_cnt, a.n_chars, a.text_md5
        FROM ann a JOIN keep k ON a.doc_id = k.keep_id
        WHERE a.lang = 'en' AND a.tok_cnt BETWEEN 10 AND 1000000
        ORDER BY a.doc_id
    """,
    "q_curation_full": """
        WITH keep AS (
            SELECT MIN(doc_id) AS keep_id
            FROM documents GROUP BY md5(COALESCE(text, ''))
        ),
        t AS (
          SELECT doc_id, lang, COALESCE(text, '') AS text,
                 list_filter(string_split_regex(COALESCE(text, ''), '\\s+'),
                             x -> x <> '') AS toks,
                 string_split(COALESCE(text, ''), chr(10)) AS lines
          FROM documents
        ),
        m AS (
          SELECT doc_id, lang, text,
                 CASE WHEN trim(text) = '' THEN 0
                      ELSE CAST(len(string_split_regex(trim(text), '\\s+'))
                                AS BIGINT) END AS tok_cnt,
                 md5(text) AS text_md5,
                 CAST(len(toks) AS BIGINT) AS n_words,
                 CAST(COALESCE(list_sum(list_transform(toks,
                     x -> length(x))), 0) AS BIGINT) AS char_sum,
                 CAST(length(text) - length(replace(text, '#', ''))
                      AS BIGINT)
                   + CAST(len(regexp_extract_all(text, '\\.\\.\\.'))
                          AS BIGINT) AS n_sym,
                 CAST(len(lines) AS BIGINT) AS n_lines,
                 CAST(len(list_filter(lines, l ->
                     starts_with(ltrim(l, ' ' || chr(9) || chr(13)), '-')
                     OR starts_with(ltrim(l, ' ' || chr(9) || chr(13)),
                                    '•'))) AS BIGINT) AS n_bullet,
                 CAST(len(list_distinct(lines)) AS BIGINT) AS n_distinct
          FROM t
        ),
        g AS (
          SELECT doc_id, lang, text, tok_cnt, text_md5, n_words,
                 CAST(n_words >= 50 AND n_words <= 100000
                  AND (char_sum * 1000) // GREATEST(n_words, 1)
                      BETWEEN 3000 AND 10000
                  AND (n_sym * 1000) // GREATEST(n_words, 1) <= 100
                  AND (n_bullet * 1000) // GREATEST(n_lines, 1) <= 900
                  AS BIGINT) AS gopher_pass,
                 ((n_lines - n_distinct) * 1000)
                   // GREATEST(n_lines, 1) AS dup_line_milli
          FROM m
        ),
        p AS (
          SELECT doc_id,
                 CAST(len(regexp_extract_all(text,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                     AS BIGINT) AS n_emails,
                 regexp_replace(text,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                     '<EMAIL>', 'g') AS t1
          FROM g
        ),
        p2 AS (
          SELECT doc_id, n_emails,
                 CAST(len(regexp_extract_all(t1,
                     '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'))
                     AS BIGINT) AS n_ips,
                 regexp_replace(t1,
                     '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                     '<IP>', 'g') AS scrubbed
          FROM p
        )
        SELECT g.doc_id, g.lang, g.tok_cnt, g.text_md5, g.n_words,
               g.gopher_pass, g.dup_line_milli, p2.n_emails, p2.n_ips,
               p2.scrubbed
        FROM g JOIN p2 USING (doc_id) JOIN keep k ON g.doc_id = k.keep_id
        WHERE g.lang = 'en' AND g.tok_cnt BETWEEN 10 AND 1000000
          AND g.gopher_pass = 1 AND g.dup_line_milli <= 300
        ORDER BY g.doc_id
    """,
    "q_json_extract_stats": """
        SELECT event_type,
               CAST(SUM(COALESCE(CAST(json_extract_string(props, '$.k')
                                      AS BIGINT), 0)) AS BIGINT) AS sum_k
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "q_regex_extract_docs": r"""
        SELECT doc_id, regexp_extract(COALESCE(text, ''), '[a-z]{6,}') AS w
        FROM documents ORDER BY doc_id
    """,
    "q_sparql_select": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s
        FROM documents WHERE lang = 'en' AND source <> 'src3'
        ORDER BY d, s
    """,
    "q_sparql_distributed": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s
        FROM documents WHERE lang = 'en' ORDER BY d, s
    """,
    "q_sparql_optional": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s,
               CASE WHEN lang = 'en' THEN lang END AS l
        FROM documents ORDER BY d
    """,
    "q_sparql_union": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s
        FROM documents WHERE lang = 'en'
        UNION ALL
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s
        FROM documents WHERE lang = 'de'
        ORDER BY d
    """,
    "q_sparql_optional_distributed": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s,
               CASE WHEN lang = 'en' THEN lang END AS l
        FROM documents ORDER BY d
    """,
    "q_cosine_neardup_pairs": """
        WITH planted AS (
            SELECT vec_id, embedding FROM embeddings
            UNION ALL
            SELECT vec_id + 100000, embedding FROM embeddings
            WHERE vec_id < 40
        )
        SELECT x.vec_id AS a, y.vec_id AS b
        FROM planted x JOIN planted y ON x.vec_id < y.vec_id
        WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.9
        ORDER BY a, b
    """,
    # identical result contract to q_cosine_neardup_pairs: the planted
    # duplicate vectors are bit-identical, so they always share an LSH
    # bucket and the bucketed path's recall on them is 1 (pinned by
    # test_cosine_neardup_exact_and_lsh) — the exact-SQL oracle therefore
    # checks the LSH path too.
    "q_cosine_neardup_lsh": """
        WITH planted AS (
            SELECT vec_id, embedding FROM embeddings
            UNION ALL
            SELECT vec_id + 100000, embedding FROM embeddings
            WHERE vec_id < 40
        )
        SELECT x.vec_id AS a, y.vec_id AS b
        FROM planted x JOIN planted y ON x.vec_id < y.vec_id
        WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.9
        ORDER BY a, b
    """,
    # exact word-3-gram Jaccard over DISTINCT shingles (the engine hashes
    # shingles — hash-set Jaccard equals string-set Jaccard absent 61-bit
    # collisions); tokenization pinned to python str.split == '\\s+' regex
    # split with empties dropped; docs under 3 tokens fall back to ONE
    # whole-text shingle (linking._shingle_hashes_batch). The synthetic
    # corpus has no pair within 0.3 Jaccard of either threshold, so the
    # MinHash candidate stage's recall/precision on it is exactly 1 and the
    # true-Jaccard SQL is a faithful oracle for both queries.
    "q_ngram_jaccard_pairs": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ),
        grams AS (
          SELECT doc_id, array_to_string(t[i:i+2], ' ') AS g
          FROM toks, LATERAL (SELECT unnest(range(1, len(t) - 1)) AS i) s
          WHERE len(t) >= 3
          UNION ALL
          SELECT doc_id, array_to_string(t, ' ') AS g FROM toks
          WHERE len(t) < 3
        ),
        dg AS (SELECT DISTINCT doc_id, g FROM grams),
        sets AS (SELECT doc_id, COUNT(*) AS n FROM dg GROUP BY doc_id),
        inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS i
          FROM dg x JOIN dg y USING (g)
          WHERE x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id
        )
        SELECT a, b
        FROM inter JOIN sets sa ON sa.doc_id = inter.a
                   JOIN sets sb ON sb.doc_id = inter.b
        WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.5
        ORDER BY a, b
    """,
    "q_minhash_neardup_pairs": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ),
        grams AS (
          SELECT doc_id, array_to_string(t[i:i+2], ' ') AS g
          FROM toks, LATERAL (SELECT unnest(range(1, len(t) - 1)) AS i) s
          WHERE len(t) >= 3
          UNION ALL
          SELECT doc_id, array_to_string(t, ' ') AS g FROM toks
          WHERE len(t) < 3
        ),
        dg AS (SELECT DISTINCT doc_id, g FROM grams),
        sets AS (SELECT doc_id, COUNT(*) AS n FROM dg GROUP BY doc_id),
        inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS i
          FROM dg x JOIN dg y USING (g)
          WHERE x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id
        )
        SELECT a, b
        FROM inter JOIN sets sa ON sa.doc_id = inter.a
                   JOIN sets sb ON sb.doc_id = inter.b
        WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8
        ORDER BY a, b
    """,
    # connected components over the near-dup pair graph: recursive
    # reachability + min label, singletons label themselves — the SQL twin
    # of linking.min_label_components
    "q_neardup_clusters": """
        WITH RECURSIVE toks AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ),
        grams AS (
          SELECT doc_id, array_to_string(t[i:i+2], ' ') AS g
          FROM toks, LATERAL (SELECT unnest(range(1, len(t) - 1)) AS i) s
          WHERE len(t) >= 3
          UNION ALL
          SELECT doc_id, array_to_string(t, ' ') AS g FROM toks
          WHERE len(t) < 3
        ),
        dg AS (SELECT DISTINCT doc_id, g FROM grams),
        sets AS (SELECT doc_id, COUNT(*) AS n FROM dg GROUP BY doc_id),
        inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS i
          FROM dg x JOIN dg y USING (g)
          WHERE x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id
        ),
        pairs AS (
          SELECT a, b
          FROM inter JOIN sets sa ON sa.doc_id = inter.a
                     JOIN sets sb ON sb.doc_id = inter.b
          WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8
        ),
        edges AS (
          SELECT a AS s, b AS o FROM pairs
          UNION SELECT b, a FROM pairs
        ),
        reach AS (
          SELECT s AS node, o AS r FROM edges
          UNION
          SELECT reach.node, e.o FROM reach JOIN edges e ON reach.r = e.s
        ),
        labels AS (
          SELECT node AS doc_id, LEAST(node, MIN(r)) AS cluster_id
          FROM reach GROUP BY node
        )
        SELECT d.doc_id, COALESCE(l.cluster_id, d.doc_id) AS cluster_id
        FROM documents d LEFT JOIN labels l USING (doc_id)
        ORDER BY doc_id
    """,
    # Lloyd's k-means unrolled: init c0 = 4 smallest-id vectors, three
    # assign+update rounds (a_i/c_i), final assignment a4 — float64
    # throughout, argmin ties to the lowest cluster (row_number order)
    "q_kmeans_embeddings": """
        WITH c0 AS (
          SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS c,
                 embedding::DOUBLE[] AS e
          FROM (SELECT vec_id, embedding FROM embeddings
                ORDER BY vec_id LIMIT 4)
        ),
        a1 AS (
          SELECT vec_id, c AS cluster FROM (
            SELECT e.vec_id, c.c,
                   row_number() OVER (PARTITION BY e.vec_id
                       ORDER BY list_distance(e.embedding::DOUBLE[], c.e),
                                c.c) AS rn
            FROM embeddings e CROSS JOIN c0 c) WHERE rn = 1
        ),
        c1 AS (
          SELECT cluster AS c, list(m ORDER BY dim) AS e FROM (
            SELECT a.cluster, u.dim, AVG(u.val) AS m
            FROM a1 a JOIN (
              SELECT vec_id, unnest(embedding::DOUBLE[]) AS val,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings) u USING (vec_id)
            GROUP BY a.cluster, u.dim) GROUP BY cluster
        ),
        a2 AS (
          SELECT vec_id, c AS cluster FROM (
            SELECT e.vec_id, c.c,
                   row_number() OVER (PARTITION BY e.vec_id
                       ORDER BY list_distance(e.embedding::DOUBLE[], c.e),
                                c.c) AS rn
            FROM embeddings e CROSS JOIN c1 c) WHERE rn = 1
        ),
        c2 AS (
          SELECT cluster AS c, list(m ORDER BY dim) AS e FROM (
            SELECT a.cluster, u.dim, AVG(u.val) AS m
            FROM a2 a JOIN (
              SELECT vec_id, unnest(embedding::DOUBLE[]) AS val,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings) u USING (vec_id)
            GROUP BY a.cluster, u.dim) GROUP BY cluster
        ),
        a3 AS (
          SELECT vec_id, c AS cluster FROM (
            SELECT e.vec_id, c.c,
                   row_number() OVER (PARTITION BY e.vec_id
                       ORDER BY list_distance(e.embedding::DOUBLE[], c.e),
                                c.c) AS rn
            FROM embeddings e CROSS JOIN c2 c) WHERE rn = 1
        ),
        c3 AS (
          SELECT cluster AS c, list(m ORDER BY dim) AS e FROM (
            SELECT a.cluster, u.dim, AVG(u.val) AS m
            FROM a3 a JOIN (
              SELECT vec_id, unnest(embedding::DOUBLE[]) AS val,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings) u USING (vec_id)
            GROUP BY a.cluster, u.dim) GROUP BY cluster
        ),
        a4 AS (
          SELECT vec_id, c AS cluster FROM (
            SELECT e.vec_id, c.c,
                   row_number() OVER (PARTITION BY e.vec_id
                       ORDER BY list_distance(e.embedding::DOUBLE[], c.e),
                                c.c) AS rn
            FROM embeddings e CROSS JOIN c3 c) WHERE rn = 1
        )
        SELECT vec_id, cluster FROM a4 ORDER BY vec_id
    """,
    "q_gopher_quality_docs": """
        WITH t AS (
          SELECT doc_id, text,
                 list_filter(string_split_regex(text, '\\s+'),
                             x -> x <> '') AS toks,
                 string_split(text, chr(10)) AS lines
          FROM documents
        ), m AS (
          SELECT doc_id,
                 CAST(len(toks) AS BIGINT) AS n_words,
                 CAST(COALESCE(list_sum(list_transform(toks,
                     x -> length(x))), 0) AS BIGINT) AS char_sum,
                 CAST(length(text) - length(replace(text, '#', ''))
                      AS BIGINT)
                   + CAST(len(regexp_extract_all(text, '\\.\\.\\.'))
                          AS BIGINT) AS n_sym,
                 CAST(len(lines) AS BIGINT) AS n_lines,
                 CAST(len(list_filter(lines, l ->
                     starts_with(ltrim(l, ' ' || chr(9) || chr(13)), '-')
                     OR starts_with(ltrim(l, ' ' || chr(9) || chr(13)),
                                    '•'))) AS BIGINT) AS n_bullet
          FROM t
        )
        SELECT doc_id, n_words,
               (char_sum * 1000) // GREATEST(n_words, 1)
                   AS mean_word_len_milli,
               (n_sym * 1000) // GREATEST(n_words, 1) AS symbol_word_milli,
               (n_bullet * 1000) // GREATEST(n_lines, 1) AS bullet_milli,
               CAST(n_words >= 50 AND n_words <= 100000
                AND (char_sum * 1000) // GREATEST(n_words, 1)
                    BETWEEN 3000 AND 10000
                AND (n_sym * 1000) // GREATEST(n_words, 1) <= 100
                AND (n_bullet * 1000) // GREATEST(n_lines, 1) <= 900
                AS BIGINT) AS gopher_pass
        FROM m ORDER BY doc_id
    """,
    "q_repetition_docs": """
        SELECT doc_id,
               CAST(len(string_split(text, chr(10))) AS BIGINT) AS n_lines,
               CAST(len(list_distinct(string_split(text, chr(10))))
                    AS BIGINT) AS n_distinct_lines,
               ((CAST(len(string_split(text, chr(10))) AS BIGINT)
                 - CAST(len(list_distinct(string_split(text, chr(10))))
                        AS BIGINT)) * 1000)
                // GREATEST(CAST(len(string_split(text, chr(10)))
                            AS BIGINT), 1) AS dup_line_milli
        FROM documents ORDER BY doc_id
    """,
    "q_pii_scrub_docs": """
        WITH aug AS (
          SELECT doc_id,
                 text || ' contact user' || CAST(doc_id AS VARCHAR)
                      || '@example.com from 10.0.'
                      || CAST(doc_id % 256 AS VARCHAR) || '.7' AS t
          FROM documents
        ), s1 AS (
          SELECT doc_id,
                 CAST(len(regexp_extract_all(t,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                     AS BIGINT) AS n_emails,
                 regexp_replace(t,
                     '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                     '<EMAIL>', 'g') AS t1
          FROM aug
        )
        SELECT doc_id,
               regexp_replace(t1,
                   '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                   '<IP>', 'g') AS scrubbed,
               n_emails,
               CAST(len(regexp_extract_all(t1,
                   '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'))
                   AS BIGINT) AS n_ips
        FROM s1 ORDER BY doc_id
    """,
    # PageRank power iteration unrolled (damping 0.85, uniform init,
    # synthetic citation graph; no dangling nodes in this graph — the
    # engine computes the dangling term generically and it is 0 here)
    "q_pagerank_docs": """
        WITH cnt AS (SELECT COUNT(*) AS n FROM documents),
        edges AS (
          SELECT doc_id AS src,
                 (doc_id * 31 + 7) % (SELECT n FROM cnt) AS dst
          FROM documents
          UNION ALL
          SELECT doc_id, (doc_id * 17 + 3) % (SELECT n FROM cnt)
          FROM documents
        ),
        nodes AS (SELECT src AS node FROM edges
                  UNION SELECT dst FROM edges),
        deg AS (SELECT src AS node, COUNT(*) AS deg FROM edges
                GROUP BY src),
        w AS (SELECT e.src AS node, e.dst, 1.0 / d.deg AS w
              FROM edges e JOIN deg d ON d.node = e.src),
        s0 AS (SELECT node, 1.0 / (SELECT n FROM cnt) AS score FROM nodes),
        s1 AS (
          SELECT nd.node, 0.15 / (SELECT n FROM cnt)
                 + 0.85 * COALESCE(c.c, 0) AS score
          FROM nodes nd LEFT JOIN (
            SELECT w.dst AS node, SUM(w.w * s.score) AS c
            FROM w JOIN s0 s ON s.node = w.node GROUP BY w.dst) c
          USING (node)
        ),
        s2 AS (
          SELECT nd.node, 0.15 / (SELECT n FROM cnt)
                 + 0.85 * COALESCE(c.c, 0) AS score
          FROM nodes nd LEFT JOIN (
            SELECT w.dst AS node, SUM(w.w * s.score) AS c
            FROM w JOIN s1 s ON s.node = w.node GROUP BY w.dst) c
          USING (node)
        ),
        s3 AS (
          SELECT nd.node, 0.15 / (SELECT n FROM cnt)
                 + 0.85 * COALESCE(c.c, 0) AS score
          FROM nodes nd LEFT JOIN (
            SELECT w.dst AS node, SUM(w.w * s.score) AS c
            FROM w JOIN s2 s ON s.node = w.node GROUP BY w.dst) c
          USING (node)
        )
        SELECT node, ROUND(score, 9) AS score FROM s3 ORDER BY node
    """,
    "q_quantiles_events": """
        WITH ranked AS (
          SELECT value, row_number() OVER (ORDER BY value) AS rn
          FROM events
        ), cnt AS (SELECT COUNT(*) AS n FROM events),
        ps AS (SELECT * FROM (VALUES (0.1), (0.25), (0.5), (0.75),
                                     (0.9), (0.99)) AS t(p))
        SELECT CAST(p AS DOUBLE) AS p, value
        FROM ps JOIN ranked
          ON rn = CAST(FLOOR(CAST(p AS DOUBLE)
                             * ((SELECT n FROM cnt) - 1)) AS BIGINT) + 1
        ORDER BY p
    """,
    "q_bpe_token_stats": r"""
        WITH t AS (
          SELECT doc_id,
                 regexp_extract_all(COALESCE(text, ''),
                     '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+') AS toks
          FROM documents
        )
        SELECT doc_id,
               CAST(len(toks) AS BIGINT) AS n_pretokens,
               CAST(len(list_filter(toks, x ->
                   regexp_matches(ltrim(x, ' '), '^[A-Za-z]')))
                   AS BIGINT) AS n_word_toks,
               CAST(len(list_filter(toks, x ->
                   regexp_matches(ltrim(x, ' '), '^[0-9]')))
                   AS BIGINT) AS n_num_toks
        FROM t ORDER BY doc_id
    """,
    "q_asof_join_events": """
        SELECT l.event_id, l.user_id,
               CAST(ROUND(r.value*100) AS DOUBLE) AS last_purchase_cents
        FROM (SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'click') l
        ASOF LEFT JOIN (SELECT user_id, ts, value FROM events
                        WHERE event_type = 'purchase') r
          ON l.user_id = r.user_id AND l.ts >= r.ts
        ORDER BY l.event_id
    """,
    "q_band_join_events": """
        SELECT l.event_id, CAST(COUNT(r.event_id) AS BIGINT) AS n_follow
        FROM (SELECT event_id, ts FROM events WHERE event_type = 'click') l
        LEFT JOIN (SELECT event_id, ts FROM events
                   WHERE event_type = 'view') r
          ON r.ts > l.ts AND r.ts <= l.ts + INTERVAL 10 MINUTE
        GROUP BY l.event_id ORDER BY l.event_id
    """,
    "q_cube_revenue": """
        SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
               COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
               CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT)
                   AS sum_price_cents,
               CAST(COUNT(*) AS BIGINT) AS n_orders
        FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)
        ORDER BY 1, 2
    """,
    "q_bfs_distances": """
        WITH RECURSIVE e AS (
          SELECT CAST(doc_id AS BIGINT) AS s,
                 CAST(2*doc_id+1 AS BIGINT) AS o
          FROM documents WHERE 2*doc_id+1 < 64
          UNION ALL
          SELECT doc_id, 2*doc_id+2 FROM documents WHERE 2*doc_id+2 < 64
          UNION ALL
          SELECT doc_id, doc_id+10 FROM documents WHERE doc_id+10 < 64
        ),
        b AS (
          SELECT CAST(0 AS BIGINT) AS node, CAST(0 AS BIGINT) AS dist
          UNION
          SELECT e.o, b.dist + 1 FROM b JOIN e ON e.s = b.node
          WHERE b.dist < 16
        )
        SELECT node, CAST(MIN(dist) AS BIGINT) AS dist
        FROM b GROUP BY node ORDER BY node
    """,
    "q_quantile_hist_events": """
        WITH s AS (SELECT MIN(value) AS mn, MAX(value) AS mx,
                          COUNT(*) AS n FROM events),
        b AS (SELECT LEAST(CAST(FLOOR((value - s.mn)
                                      / ((s.mx - s.mn) / 4096.0))
                               AS BIGINT), 4095) AS bin
              FROM events, s),
        h AS (SELECT bin, COUNT(*) AS c FROM b GROUP BY bin),
        cum AS (SELECT bin, SUM(c) OVER (ORDER BY bin) AS cumc FROM h),
        ps(p) AS (VALUES (0.1), (0.5), (0.9), (0.99)),
        pick AS (
          SELECT ps.p, MIN(cum.bin) AS bin
          FROM ps, cum, s
          WHERE cum.cumc >= CAST(FLOOR(ps.p * (s.n - 1)) AS BIGINT) + 1
          GROUP BY ps.p)
        SELECT CAST(pick.p AS DOUBLE) AS p,
               CAST(s.mn + pick.bin * ((s.mx - s.mn) / 4096.0)
                    AS DOUBLE) AS value
        FROM pick, s ORDER BY p
    """,
    "q_cumsum_events": """
        SELECT event_id, user_id,
               CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_cents
        FROM events ORDER BY event_id
    """,
    "q_tfidf_top_terms": """
        WITH toks AS (
          SELECT source, unnest(list_filter(
                     string_split_regex(lower(COALESCE(text, '')),
                                        '[^a-z]+'),
                     x -> x <> '')) AS tok
          FROM documents
        ),
        tf AS (
          SELECT source, tok, CAST(COUNT(*) AS BIGINT) AS tf
          FROM toks GROUP BY source, tok
        ),
        dfreq AS (SELECT tok, COUNT(*) AS df FROM tf GROUP BY tok),
        ns AS (SELECT COUNT(DISTINCT source) AS n FROM documents),
        scored AS (
          SELECT tf.source, tf.tok, tf.tf,
                 CAST(ROUND(tf.tf * ln(CAST(ns.n AS DOUBLE) / dfreq.df)
                            * 1000) AS BIGINT) AS score_millis
          FROM tf JOIN dfreq USING (tok) CROSS JOIN ns
        ),
        ranked AS (
          SELECT source, tok, tf, score_millis,
                 ROW_NUMBER() OVER (PARTITION BY source
                     ORDER BY score_millis DESC, tok) AS rnk
          FROM scored)
        SELECT source, CAST(rnk AS BIGINT) AS rank, tok, tf, score_millis
        FROM ranked WHERE rnk <= 3 ORDER BY source, rank
    """,
    "q_rank_events": """
        SELECT event_id, user_id,
               CAST(RANK() OVER (PARTITION BY user_id
                                 ORDER BY value DESC) AS BIGINT) AS rnk,
               CAST(DENSE_RANK() OVER (PARTITION BY user_id
                                       ORDER BY value DESC) AS BIGINT) AS drnk,
               CAST(NTILE(4) OVER (PARTITION BY user_id
                                   ORDER BY value DESC, event_id)
                    AS BIGINT) AS tile
        FROM events ORDER BY event_id
    """,
    "q_pivot_events": """
        SELECT event_type, """ + ", ".join(
        f"CAST(SUM(CASE WHEN month(ts) = {m} THEN "
        f"CAST(ROUND(value*100) AS BIGINT) ELSE 0 END) AS BIGINT) AS m{m:02d}"
        for m in range(1, 13)) + """
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "q_set_ops_docs": """
        WITH a AS (SELECT doc_id FROM documents WHERE lang = 'en'),
             b AS (SELECT doc_id FROM documents WHERE n_chars > 300)
        SELECT 'intersect' AS op, doc_id
        FROM (SELECT doc_id FROM a INTERSECT SELECT doc_id FROM b)
        UNION ALL
        SELECT 'except' AS op, doc_id
        FROM (SELECT doc_id FROM a EXCEPT SELECT doc_id FROM b)
        ORDER BY op, doc_id
    """,
    "q_cust_order_dist": """
        WITH co AS (
          SELECT c.c_custkey, COUNT(o.o_custkey) AS c_count
          FROM customer c LEFT OUTER JOIN orders o
            ON c.c_custkey = o.o_custkey
          GROUP BY c.c_custkey)
        SELECT CAST(c_count AS BIGINT) AS c_count,
               CAST(COUNT(*) AS BIGINT) AS custdist
        FROM co GROUP BY c_count
        ORDER BY custdist DESC, c_count DESC
    """,
    "q_collect_events": """
        SELECT user_id,
               string_agg(CAST(event_id AS VARCHAR), ','
                          ORDER BY ts, event_id) AS events,
               CAST(COUNT(*) AS BIGINT) AS n_events
        FROM events GROUP BY user_id ORDER BY user_id
    """,
    # constants appear as the same unevaluated expressions as the engine
    # ((1.2 + 1.0), 1.0 - 0.75 + 0.75*...) so the IEEE doubles agree
    "q_bm25_docs": """
        WITH terms(term) AS (VALUES ('data'), ('query'), ('sort')),
        toks AS (
          SELECT doc_id, unnest(list_filter(
                     string_split_regex(lower(COALESCE(text, '')),
                                        '[^a-z]+'),
                     x -> x <> '')) AS tok
          FROM documents),
        dl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
               FROM toks GROUP BY doc_id),
        n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents),
        sumdl AS (SELECT CAST(COUNT(*) AS DOUBLE) AS s FROM toks),
        stats AS (SELECT n.n, sumdl.s / n.n AS avgdl FROM n, sumdl),
        dfreq AS (
          SELECT t.term,
                 CAST(COUNT(DISTINCT toks.doc_id) AS DOUBLE) AS df
          FROM terms t LEFT JOIN toks ON toks.tok = t.term
          GROUP BY t.term),
        tf AS (
          SELECT t.term, toks.doc_id, CAST(COUNT(*) AS DOUBLE) AS tf
          FROM terms t JOIN toks ON toks.tok = t.term
          GROUP BY t.term, toks.doc_id),
        scored AS (
          SELECT tf.term, tf.doc_id,
                 CAST(FLOOR(
                   ln((stats.n - dfreq.df + 0.5) / (dfreq.df + 0.5) + 1.0)
                   * (tf.tf * (1.2 + 1.0))
                   / (tf.tf + 1.2 * (1.0 - 0.75
                                     + 0.75 * dl.dl / stats.avgdl))
                   * 1000 + 0.5) AS BIGINT) AS score_millis
          FROM tf JOIN dfreq USING (term) JOIN dl USING (doc_id)
               CROSS JOIN stats),
        ranked AS (
          SELECT term, doc_id, score_millis,
                 ROW_NUMBER() OVER (PARTITION BY term
                     ORDER BY score_millis DESC, doc_id) AS rnk
          FROM scored)
        SELECT term, CAST(rnk AS BIGINT) AS rank, doc_id, score_millis
        FROM ranked WHERE rnk <= 5 ORDER BY term, rank
    """,
    "q_edit_distance_pairs": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ),
        grams AS (
          SELECT doc_id, array_to_string(t[i:i+2], ' ') AS g
          FROM toks, LATERAL (SELECT unnest(range(1, len(t) - 1)) AS i) s
          WHERE len(t) >= 3
          UNION ALL
          SELECT doc_id, array_to_string(t, ' ') AS g FROM toks
          WHERE len(t) < 3
        ),
        dg AS (SELECT DISTINCT doc_id, g FROM grams),
        sets AS (SELECT doc_id, COUNT(*) AS n FROM dg GROUP BY doc_id),
        inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS i
          FROM dg x JOIN dg y USING (g)
          WHERE x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id
        ),
        pairs AS (
          SELECT a, b
          FROM inter JOIN sets sa ON sa.doc_id = inter.a
                     JOIN sets sb ON sb.doc_id = inter.b
          WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.5
        )
        SELECT p.a, p.b,
               CAST(levenshtein(COALESCE(da.text, ''),
                                COALESCE(db.text, '')) AS BIGINT)
                   AS edit_dist
        FROM pairs p JOIN documents da ON da.doc_id = p.a
                     JOIN documents db ON db.doc_id = p.b
        ORDER BY a, b
    """,
    "q_triangle_count": """
        WITH uh AS (
          SELECT DISTINCT user_id, event_type, date_trunc('hour', ts) AS h
          FROM events),
        e AS (
          SELECT DISTINCT x.user_id AS u, y.user_id AS v
          FROM uh x JOIN uh y ON x.event_type = y.event_type
                            AND x.h = y.h AND x.user_id < y.user_id)
        SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
        FROM e e1 JOIN e e2 ON e2.u = e1.v
                  JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v
    """,
    # pows inlined = 257^(k-1-j) mod 2147483647 for j = 0..15; the engine's
    # utf-32 code points == DuckDB ascii(substr(t, i, 1)); the distinct
    # fingerprint set per doc == distinct trailing-window minima, so no
    # argmin tie rule is needed on either side
    "q_winnow_dup_pairs": """
        WITH pows(j, pw) AS (VALUES """ + ", ".join(
        f"({j}, {pow(257, 15 - j, 2**31 - 1)})" for j in range(16)) + """),
        d AS (SELECT doc_id, COALESCE(text,'') AS t FROM documents),
        poss AS (
          SELECT doc_id, t,
                 unnest(generate_series(1, length(t) - 16 + 1)) AS p
          FROM d WHERE length(t) >= 16),
        grams AS (
          SELECT doc_id, p,
                 CAST(SUM(CAST(ascii(substr(t, p + pows.j, 1)) AS BIGINT)
                          * pows.pw) % 2147483647 AS BIGINT) AS h
          FROM poss CROSS JOIN pows GROUP BY doc_id, p),
        mins AS (
          SELECT doc_id,
                 MIN(h) OVER (PARTITION BY doc_id ORDER BY p
                              ROWS BETWEEN 7 PRECEDING AND CURRENT ROW) AS fp
          FROM grams),
        fps AS (SELECT DISTINCT doc_id, fp FROM mins),
        keep AS (SELECT fp FROM fps GROUP BY fp HAVING COUNT(*) <= 200),
        fk AS (SELECT fps.doc_id, fps.fp FROM fps JOIN keep USING (fp))
        SELECT a.doc_id AS a, b.doc_id AS b,
               CAST(COUNT(*) AS BIGINT) AS shared
        FROM fk a JOIN fk b ON a.fp = b.fp AND a.doc_id < b.doc_id
        GROUP BY a.doc_id, b.doc_id HAVING COUNT(*) >= 8
        ORDER BY a, b
    """,
    "q_weighted_sample_docs": """
        WITH w AS (SELECT doc_id, LEAST(n_chars // 100 + 1, 8) AS w
                   FROM documents),
        k AS (
          SELECT doc_id,
                 MAX(md5(CAST(doc_id AS VARCHAR) || ':'
                         || CAST(t.i AS VARCHAR))) AS skey
          FROM w, unnest(generate_series(0, CAST(w.w - 1 AS BIGINT))) t(i)
          GROUP BY doc_id)
        SELECT doc_id, skey FROM k ORDER BY skey DESC, doc_id LIMIT 10
    """,
    "q_heavy_hitter_tokens": """
        WITH toks AS (
          SELECT unnest(list_filter(
                     string_split_regex(lower(COALESCE(text, '')),
                                        '[^a-z]+'),
                     x -> x <> '')) AS tok
          FROM documents
        )
        SELECT tok, CAST(COUNT(*) AS BIGINT) AS n
        FROM toks GROUP BY tok
        ORDER BY n DESC, tok LIMIT 20
    """,
    "q_sparql_agg": """
        SELECT source AS s, COUNT(*) AS n
        FROM documents GROUP BY source ORDER BY s
    """,
    "q_sparql_agg_distributed": """
        SELECT source AS s, COUNT(*) AS n
        FROM documents GROUP BY source ORDER BY s
    """,
    "q_transitive_closure": """
        WITH RECURSIVE edges AS (
            SELECT doc_id AS s, doc_id + 1 AS o FROM documents
            WHERE doc_id < 200 AND doc_id % 25 <> 24
        ), closure AS (
            SELECT s, o FROM edges
            UNION
            SELECT c.s, e.o FROM closure c JOIN edges e ON c.o = e.s
        )
        SELECT s, o FROM closure ORDER BY s, o
    """,
    "q_sparql_having": """
        SELECT source AS s, COUNT(*) AS n
        FROM documents GROUP BY source HAVING COUNT(*) > 1 ORDER BY s
    """,
    "q_sparql_expr": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s,
               CASE WHEN source LIKE 'src1%' THEN 'one' ELSE 'other' END
                   AS band
        FROM documents
        WHERE lang IN ('en', 'de') AND source <> 'src3'
        ORDER BY d, s
    """,
    "q_sparql_text_distributed": """
        SELECT source AS s, COUNT(*) AS n
        FROM documents WHERE lang IN ('en', 'de')
        GROUP BY source ORDER BY s
    """,
    "q_sparql_agg_full_distributed": """
        SELECT source AS s, COUNT(*) AS n, COUNT(DISTINCT lang) AS nl,
               MIN(lang) AS lo,
               string_agg(DISTINCT lang, ',' ORDER BY lang) AS langs
        FROM documents GROUP BY source HAVING COUNT(*) > 1
        ORDER BY s DESC
    """,
    "q_sparql_graph": """
        SELECT source AS g, COUNT(*) AS n
        FROM documents WHERE lang = 'en'
        GROUP BY source ORDER BY g
    """,
    "q_sparql_not_exists": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s
        FROM documents WHERE lang <> 'en' ORDER BY d
    """,
    "q_sparql_graph_distributed": """
        SELECT source AS g, COUNT(*) AS n
        FROM documents WHERE lang = 'en'
        GROUP BY source ORDER BY g
    """,
    "q_stratified_sample_docs": """
        SELECT source, doc_id FROM (
          SELECT source, doc_id,
                 row_number() OVER (
                   PARTITION BY source
                   ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
          FROM documents) t
        WHERE rn <= 3 ORDER BY source, doc_id
    """,
    "q_decontaminate_docs": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),
                             x -> x <> '') AS t
          FROM documents
        ),
        grams AS (
          SELECT doc_id, array_to_string(t[i:i+7], ' ') AS g
          FROM toks, LATERAL (SELECT unnest(range(1, len(t) - 6)) AS i) s
          WHERE len(t) >= 8
        ),
        bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 29 = 0),
        hits AS (
          SELECT DISTINCT c.doc_id, c.g
          FROM grams c JOIN bench USING (g)
          WHERE c.doc_id % 29 <> 0
        )
        SELECT doc_id, COUNT(*) AS n_overlap
        FROM hits GROUP BY doc_id ORDER BY doc_id
    """,
    "q_sparql_not_exists_distributed": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS d,
               source AS s
        FROM documents WHERE lang <> 'en' ORDER BY d
    """,
    "q_sparql_construct": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS subj,
               'http://docs.example/tongue' AS pred,
               lang AS obj
        FROM documents ORDER BY subj, obj
    """,
    "q_sparql_construct_distributed": """
        SELECT 'http://docs.example/doc/' || CAST(doc_id AS VARCHAR) AS subj,
               'http://docs.example/tongue' AS pred,
               lang AS obj
        FROM documents ORDER BY subj, obj
    """,
    "q_sparql_ask": """
        SELECT EXISTS(SELECT 1 FROM documents WHERE lang = 'en') AS en_exists,
               EXISTS(SELECT 1 FROM documents WHERE lang = 'xx') AS xx_exists
    """,
    "q_sparql_describe": """
        SELECT 'docs' AS graph,
               'http://docs.example/doc/1' AS subj,
               'http://docs.example/' || p.pred AS pred,
               CASE p.pred WHEN 'lang' THEN d.lang ELSE d.source END AS obj
        FROM documents d CROSS JOIN (VALUES ('lang'), ('source')) p(pred)
        WHERE d.doc_id = 1
        ORDER BY pred, obj
    """,
    "q_ann_topk": """
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                   FROM embeddings WHERE vec_id IN (0,1,2,3,4)),
        sims AS (
            SELECT q.query_id, e.vec_id AS neighbor_id,
                   list_cosine_similarity(q.qe, e.embedding) AS sim
            FROM q, embeddings e WHERE e.vec_id <> q.query_id),
        ranked AS (
            SELECT query_id, neighbor_id,
                   ROW_NUMBER() OVER (PARTITION BY query_id
                                      ORDER BY sim DESC, neighbor_id) AS rank
            FROM sims)
        SELECT query_id, rank, neighbor_id FROM ranked
        WHERE rank <= 5 ORDER BY query_id, rank
    """,
    "q_median_per_type": """
        SELECT event_type,
               quantile_disc(value, 0.5) AS median_value,
               COUNT(*) AS n
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "q_lead_events": """
        SELECT event_id, user_id,
               LEAD(value) OVER w AS next_value,
               FIRST_VALUE(value) OVER w AS first_value,
               LAST_VALUE(value) OVER (PARTITION BY user_id
                   ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING
                            AND UNBOUNDED FOLLOWING) AS last_value
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ORDER BY event_id
    """,
    "q_daily_activity_full": """
        WITH c AS (
            SELECT CAST(ts AS DATE) - DATE '1970-01-01' AS day, user_id,
                   COUNT(*) AS n_clicks
            FROM events WHERE event_type = 'click' GROUP BY 1, 2),
        p AS (
            SELECT CAST(ts AS DATE) - DATE '1970-01-01' AS day, user_id,
                   COUNT(*) AS n_purchases
            FROM events WHERE event_type = 'purchase' GROUP BY 1, 2)
        SELECT CAST(COALESCE(c.day, p.day) AS BIGINT) AS day,
               COALESCE(c.user_id, p.user_id) AS user_id,
               CAST(COALESCE(c.n_clicks, 0) AS BIGINT) AS n_clicks,
               CAST(COALESCE(p.n_purchases, 0) AS BIGINT) AS n_purchases
        FROM c FULL OUTER JOIN p
          ON c.day = p.day AND c.user_id = p.user_id
        ORDER BY day, user_id
    """,
    # q_curation_langid = the q_curation_pipeline twin with the table's
    # lang column replaced by the q_langid_docs heuristic (stopword-ratio
    # scores, Python-max tie-break as ORDER BY score DESC, lang DESC).
    "q_curation_langid": r"""
        WITH d AS (SELECT doc_id, lower(COALESCE(text,'')) AS t FROM documents),
        toks AS (
          SELECT doc_id,
                 unnest(list_filter(string_split_regex(t, '\s+'),
                                    x -> x <> '')) AS tok
          FROM d),
        counts AS (
          SELECT doc_id, COUNT(*) AS n,
                 SUM(CASE WHEN tok IN ('auf','das','der','die','ein','für',
                                       'ist','mit','nicht','und')
                     THEN 1 ELSE 0 END) AS c_de,
                 SUM(CASE WHEN tok IN ('a','and','for','in','is','it','of',
                                       'that','the','to')
                     THEN 1 ELSE 0 END) AS c_en,
                 SUM(CASE WHEN tok IN ('con','de','el','es','la','los','por',
                                       'que','un','una')
                     THEN 1 ELSE 0 END) AS c_es,
                 SUM(CASE WHEN tok IN ('dans','est','et','la','le','les',
                                       'pour','que','un','une')
                     THEN 1 ELSE 0 END) AS c_fr
          FROM toks GROUP BY doc_id),
        scores AS (
          SELECT doc_id, 'de' AS lang, CAST(c_de AS DOUBLE)/n AS score FROM counts
          UNION ALL
          SELECT doc_id, 'en', CAST(c_en AS DOUBLE)/n FROM counts
          UNION ALL
          SELECT doc_id, 'es', CAST(c_es AS DOUBLE)/n FROM counts
          UNION ALL
          SELECT doc_id, 'fr', CAST(c_fr AS DOUBLE)/n FROM counts),
        best AS (
          SELECT doc_id, lang, score,
                 ROW_NUMBER() OVER (PARTITION BY doc_id
                                    ORDER BY score DESC, lang DESC) AS rn
          FROM scores),
        pred AS (
          SELECT d0.doc_id,
                 COALESCE(CASE WHEN b.score >= 0.08 THEN b.lang
                          ELSE 'und' END, 'und') AS lang_pred
          FROM (SELECT doc_id FROM documents) d0
          LEFT JOIN (SELECT * FROM best WHERE rn = 1) b USING (doc_id)),
        keep AS (
            SELECT MIN(doc_id) AS keep_id
            FROM documents GROUP BY md5(COALESCE(text, ''))
        ),
        ann AS (
            SELECT doc_id, p.lang_pred AS lang,
                   CASE WHEN trim(COALESCE(text,'')) = '' THEN 0
                        ELSE CAST(len(string_split_regex(trim(text), '\s+'))
                                  AS BIGINT) END AS tok_cnt,
                   CAST(length(COALESCE(text, '')) AS BIGINT) AS n_chars,
                   md5(COALESCE(text, '')) AS text_md5
            FROM documents JOIN pred p USING (doc_id)
        )
        SELECT a.doc_id, a.lang, a.tok_cnt, a.n_chars, a.text_md5
        FROM ann a JOIN keep k ON a.doc_id = k.keep_id
        WHERE a.lang = 'en' AND a.tok_cnt BETWEEN 10 AND 1000000
        ORDER BY a.doc_id
    """,
    # corr/slope: integer moment sums, then the engine's exact float64
    # expression tree (CAST each sum to DOUBLE first).
    "q_corr_lineitem": """
        WITH s AS (
            SELECT l_returnflag,
                   COUNT(*) AS n,
                   SUM(CAST(l_quantity AS BIGINT)) AS sx,
                   SUM(CAST(ROUND(l_extendedprice) AS BIGINT)) AS sy,
                   SUM(CAST(l_quantity AS BIGINT)
                       * CAST(l_quantity AS BIGINT)) AS sxx,
                   SUM(CAST(ROUND(l_extendedprice) AS BIGINT)
                       * CAST(ROUND(l_extendedprice) AS BIGINT)) AS syy,
                   SUM(CAST(l_quantity AS BIGINT)
                       * CAST(ROUND(l_extendedprice) AS BIGINT)) AS sxy
            FROM lineitem GROUP BY l_returnflag)
        SELECT l_returnflag, CAST(n AS BIGINT) AS n,
               (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
               / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                       - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                  * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                         - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
                 AS corr_r,
               (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
               / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                  - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) AS slope
        FROM s ORDER BY l_returnflag
    """,
    "q_funnel_events": """
        WITH v AS (SELECT user_id, MIN(ts) AS t1 FROM events
                   WHERE event_type = 'view' GROUP BY user_id),
        c AS (SELECT e.user_id, MIN(e.ts) AS t2
              FROM events e JOIN v USING (user_id)
              WHERE e.event_type = 'click' AND e.ts > v.t1
              GROUP BY e.user_id),
        p AS (SELECT e.user_id, MIN(e.ts) AS t3
              FROM events e JOIN c USING (user_id)
              WHERE e.event_type = 'purchase' AND e.ts > c.t2
              GROUP BY e.user_id),
        u AS (SELECT DISTINCT user_id FROM events
              WHERE event_type IN ('view', 'click', 'purchase')),
        st AS (
            SELECT u.user_id,
                   (CASE WHEN v.user_id IS NOT NULL THEN 1 ELSE 0 END
                    + CASE WHEN c.user_id IS NOT NULL THEN 1 ELSE 0 END
                    + CASE WHEN p.user_id IS NOT NULL THEN 1 ELSE 0 END)
                     AS stage
            FROM u LEFT JOIN v USING (user_id)
                   LEFT JOIN c USING (user_id)
                   LEFT JOIN p USING (user_id))
        SELECT CAST(g.stage AS BIGINT) AS stage,
               CAST(COALESCE(cnt, 0) AS BIGINT) AS users
        FROM (VALUES (0), (1), (2), (3)) g(stage)
        LEFT JOIN (SELECT stage, COUNT(*) AS cnt FROM st GROUP BY stage) s
          ON g.stage = s.stage
        ORDER BY g.stage
    """,
    "q_source_divergence": r"""
        WITH t AS (
            SELECT source,
                   unnest(regexp_extract_all(lower(COALESCE(text, '')),
                                             '[a-z]+')) AS tok
            FROM documents WHERE source IN ('src0', 'src1')),
        c AS (
            SELECT tok,
                   SUM(CASE WHEN source = 'src0' THEN 1 ELSE 0 END) AS ca,
                   SUM(CASE WHEN source = 'src1' THEN 1 ELSE 0 END) AS cb
            FROM t GROUP BY tok),
        tot AS (
            SELECT CAST(SUM(ca) AS BIGINT) AS na,
                   CAST(SUM(cb) AS BIGINT) AS nb,
                   CAST(COUNT(*) AS BIGINT) AS v
            FROM c),
        num AS (
            SELECT CAST(SUM(ABS((c.ca + 1) * (t.nb + t.v)
                                - (c.cb + 1) * (t.na + t.v)))
                        AS BIGINT) AS s
            FROM c, tot t)
        SELECT 'src0' AS source_a, 'src1' AS source_b,
               t.na AS n_a, t.nb AS n_b, t.v AS vocab,
               0.5 * (CAST(num.s AS DOUBLE)
                      / (CAST(t.na + t.v AS DOUBLE)
                         * CAST(t.nb + t.v AS DOUBLE))) AS tv_distance
        FROM tot t, num
    """,
    # HLL p=12, md5 hash: bucket = first 3 hex nibbles, rank = exact
    # nibble leading-zero count of the next 13 nibbles; Σ2^-reg kept as
    # the exact integer Σ2^(63-reg); estimate = the engine's pinned
    # float64 tree (alpha * m² * (2^63 / S)), linear counting below
    # 2.5m, half-away 3-decimal round.
    "q_hll_users": r"""
        WITH u AS (SELECT DISTINCT CAST(user_id AS VARCHAR) AS sv
                   FROM events),
        h AS (SELECT substr(md5(sv), 1, 16) AS hx FROM u),
        n3 AS (
            SELECT hx,
                   (strpos('0123456789abcdef', substr(hx, 1, 1)) - 1) * 256
                 + (strpos('0123456789abcdef', substr(hx, 2, 1)) - 1) * 16
                 + (strpos('0123456789abcdef', substr(hx, 3, 1)) - 1) AS idx,
                   substr(hx, 4, 13) AS rest
            FROM h),
        rk AS (
            SELECT idx,
                   CAST(length(regexp_extract(rest, '^0*')) AS BIGINT) AS z,
                   CASE WHEN length(regexp_extract(rest, '^0*')) >= 13
                        THEN 0
                        ELSE strpos('0123456789abcdef',
                                    substr(rest,
                                           length(regexp_extract(rest, '^0*'))
                                           + 1, 1)) - 1 END AS d
            FROM n3),
        ranks AS (
            SELECT idx,
                   LEAST(4 * z + (CASE WHEN d >= 8 THEN 0
                                       WHEN d >= 4 THEN 1
                                       WHEN d >= 2 THEN 2
                                       ELSE 3 END) + 1, 53) AS rnk
            FROM rk),
        regs AS (SELECT idx, MAX(rnk) AS reg FROM ranks GROUP BY idx),
        agg AS (
            SELECT CAST(SUM(CAST(power(2, 63 - reg) AS HUGEINT)) AS HUGEINT)
                   + CAST(4096 - COUNT(*) AS HUGEINT)
                     * CAST(power(2, 63) AS HUGEINT) AS s,
                   4096 - COUNT(*) AS zeros
            FROM regs),
        est AS (
            SELECT (0.7213 / (1 + 1.079 / 4096.0)) * 16777216.0
                   * (9223372036854775808.0 / CAST(s AS DOUBLE)) AS raw,
                   zeros
            FROM agg)
        SELECT floor((CASE WHEN raw <= 2.5 * 4096 AND zeros > 0
                           THEN 4096.0 * ln(4096.0 / CAST(zeros AS DOUBLE))
                           ELSE raw END) * 1000 + 0.5) / 1000
               AS distinct_users_est
        FROM est
    """,
    "q_mode_per_group": """
        WITH c AS (
          SELECT user_id, event_type, COUNT(*) AS n
          FROM events GROUP BY user_id, event_type),
        r AS (
          SELECT user_id, event_type, n,
                 ROW_NUMBER() OVER (PARTITION BY user_id
                     ORDER BY n DESC, event_type) AS rk
          FROM c)
        SELECT user_id, event_type AS mode_type, CAST(n AS BIGINT) AS mode_n
        FROM r WHERE rk = 1 ORDER BY user_id
    """,
    # exact integer variance: num/den kept in HUGEINT, round-half-up as
    # (2*num + den) // (2*den) — identical big-int arithmetic on both sides
    "q_group_variance": """
        WITH p AS (
          SELECT event_type, CAST(ROUND(value*100) AS BIGINT) AS c
          FROM events),
        a AS (
          SELECT event_type,
                 CAST(COUNT(*) AS HUGEINT) AS n,
                 CAST(SUM(c) AS HUGEINT) AS s,
                 CAST(SUM(CAST(c AS HUGEINT) * c) AS HUGEINT) AS ss
          FROM p GROUP BY event_type)
        SELECT event_type,
               CAST(n AS BIGINT) AS n,
               CAST(s AS BIGINT) AS sum_cents,
               CAST((2 * ((n*ss - s*s) * 1000) + n*n) // (2 * n*n)
                    AS BIGINT) AS var_pop_millis
        FROM a ORDER BY event_type
    """,
    "q_retention_cohorts": """
        WITH f AS (
          SELECT user_id, date_trunc('month', MIN(ts)) AS cohort
          FROM events GROUP BY user_id),
        a AS (
          SELECT DISTINCT user_id, date_trunc('month', ts) AS m
          FROM events),
        j AS (
          SELECT f.cohort,
                 (year(a.m) - year(f.cohort)) * 12
                 + (month(a.m) - month(f.cohort)) AS off,
                 a.user_id
          FROM a JOIN f USING (user_id))
        SELECT cohort AS cohort_month,
               CAST(off AS BIGINT) AS month_offset,
               CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
        FROM j GROUP BY cohort, off ORDER BY cohort, off
    """,
    "q_chunk_docs": """
        WITH t AS (
          SELECT doc_id, list_filter(
                   string_split_regex(lower(COALESCE(text, '')), '[^a-z]+'),
                   x -> x <> '') AS toks
          FROM documents),
        n AS (SELECT doc_id, toks, len(toks) AS n FROM t WHERE len(toks) > 0),
        c AS (
          SELECT doc_id, toks, n,
                 unnest(generate_series(0, CAST((n-1) // 48 AS INT))) AS k
          FROM n)
        SELECT doc_id,
               CAST(k AS BIGINT) AS chunk_idx,
               CAST(LEAST(64, n - k*48) AS BIGINT) AS chunk_len,
               toks[k*48 + 1] AS first_tok,
               toks[k*48 + LEAST(64, n - k*48)] AS last_tok
        FROM c ORDER BY doc_id, chunk_idx
    """,
    # PERCENT_RANK = (rank-1)/(n-1), CUME_DIST = cume/n — both rebuilt
    # in exact integer millis from RANK()/COUNT() so no float division
    "q_percent_rank_events": """
        WITH w AS (
          SELECT event_id, event_type,
                 RANK() OVER (PARTITION BY event_type
                              ORDER BY value) AS r,
                 CAST(COUNT(*) OVER (PARTITION BY event_type ORDER BY value
                      RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                      AS HUGEINT) AS c,
                 CAST(COUNT(*) OVER (PARTITION BY event_type)
                      AS HUGEINT) AS n
          FROM events)
        SELECT event_id, event_type,
               CAST(CASE WHEN n > 1
                    THEN (2 * 1000 * (CAST(r AS HUGEINT) - 1) + (n - 1))
                         // (2 * (n - 1))
                    ELSE 0 END AS BIGINT) AS pr_millis,
               CAST((2 * 1000 * c + n) // (2 * n) AS BIGINT) AS cd_millis
        FROM w ORDER BY event_id
    """,
    "q_novelty_docs": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ),
        grams AS (
          SELECT doc_id, array_to_string(t[i:i+2], ' ') AS g
          FROM toks, LATERAL (SELECT unnest(range(1, len(t) - 1)) AS i) s
          WHERE len(t) >= 3
          UNION ALL
          SELECT doc_id, array_to_string(t, ' ') AS g FROM toks
          WHERE len(t) < 3
        ),
        dg AS (SELECT DISTINCT doc_id, g FROM grams),
        dfreq AS (SELECT g, COUNT(*) AS df FROM dg GROUP BY g),
        per AS (
          SELECT dg.doc_id,
                 CAST(SUM(CASE WHEN dfreq.df = 1 THEN 1 ELSE 0 END)
                      AS HUGEINT) AS novel,
                 CAST(COUNT(*) AS HUGEINT) AS n
          FROM dg JOIN dfreq USING (g) GROUP BY dg.doc_id)
        SELECT doc_id, CAST(n AS BIGINT) AS n_grams,
               CAST((2 * 1000 * novel + n) // (2 * n) AS BIGINT)
                   AS novelty_millis
        FROM per ORDER BY doc_id
    """,
    # the q_hll_users register/estimate rule with event_type carried
    # through every CTE — per-key sketches, same pinned arithmetic
    "q_hll_by_type": r"""
        WITH u AS (SELECT DISTINCT event_type,
                          CAST(user_id AS VARCHAR) AS sv
                   FROM events),
        h AS (SELECT event_type, substr(md5(sv), 1, 16) AS hx FROM u),
        n3 AS (
            SELECT event_type, hx,
                   (strpos('0123456789abcdef', substr(hx, 1, 1)) - 1) * 256
                 + (strpos('0123456789abcdef', substr(hx, 2, 1)) - 1) * 16
                 + (strpos('0123456789abcdef', substr(hx, 3, 1)) - 1) AS idx,
                   substr(hx, 4, 13) AS rest
            FROM h),
        rk AS (
            SELECT event_type, idx,
                   CAST(length(regexp_extract(rest, '^0*')) AS BIGINT) AS z,
                   CASE WHEN length(regexp_extract(rest, '^0*')) >= 13
                        THEN 0
                        ELSE strpos('0123456789abcdef',
                                    substr(rest,
                                           length(regexp_extract(rest, '^0*'))
                                           + 1, 1)) - 1 END AS d
            FROM n3),
        ranks AS (
            SELECT event_type, idx,
                   LEAST(4 * z + (CASE WHEN d >= 8 THEN 0
                                       WHEN d >= 4 THEN 1
                                       WHEN d >= 2 THEN 2
                                       ELSE 3 END) + 1, 53) AS rnk
            FROM rk),
        regs AS (SELECT event_type, idx, MAX(rnk) AS reg
                 FROM ranks GROUP BY event_type, idx),
        agg AS (
            SELECT event_type,
                   CAST(SUM(CAST(power(2, 63 - reg) AS HUGEINT)) AS HUGEINT)
                   + CAST(4096 - COUNT(*) AS HUGEINT)
                     * CAST(power(2, 63) AS HUGEINT) AS s,
                   4096 - COUNT(*) AS zeros
            FROM regs GROUP BY event_type),
        est AS (
            SELECT event_type,
                   (0.7213 / (1 + 1.079 / 4096.0)) * 16777216.0
                   * (9223372036854775808.0 / CAST(s AS DOUBLE)) AS raw,
                   zeros
            FROM agg)
        SELECT event_type,
               floor((CASE WHEN raw <= 2.5 * 4096 AND zeros > 0
                           THEN 4096.0 * ln(4096.0 / CAST(zeros AS DOUBLE))
                           ELSE raw END) * 1000 + 0.5) / 1000
               AS distinct_est
        FROM est ORDER BY event_type
    """,
    # k-center greedy unrolled: integer quantized distances, argmax with
    # ties to the smallest id — identical trajectory to the engine
    "q_kcenter_coreset": """
        WITH qv AS (
          SELECT vec_id, list_transform(embedding,
                     x -> CAST(ROUND(CAST(x AS DOUBLE)*1000) AS BIGINT))
                 AS q
          FROM embeddings),
        u AS (SELECT vec_id, generate_subscripts(q, 1) AS i,
                     unnest(q) AS v
              FROM qv),
        s0 AS (SELECT MIN(vec_id) AS id FROM embeddings),
        d1 AS (
          SELECT a.vec_id, SUM((a.v - b.v) * (a.v - b.v)) AS d
          FROM u a JOIN u b ON b.i = a.i
          WHERE b.vec_id = (SELECT id FROM s0)
          GROUP BY a.vec_id),
        s1 AS (SELECT vec_id AS id FROM d1
               ORDER BY d DESC, vec_id LIMIT 1),
        d2 AS (
          SELECT d1.vec_id, LEAST(d1.d, x.d) AS d
          FROM d1 JOIN (
            SELECT a.vec_id, SUM((a.v - b.v) * (a.v - b.v)) AS d
            FROM u a JOIN u b ON b.i = a.i
            WHERE b.vec_id = (SELECT id FROM s1)
            GROUP BY a.vec_id) x USING (vec_id)),
        s2 AS (SELECT vec_id AS id FROM d2
               ORDER BY d DESC, vec_id LIMIT 1),
        d3 AS (
          SELECT d2.vec_id, LEAST(d2.d, x.d) AS d
          FROM d2 JOIN (
            SELECT a.vec_id, SUM((a.v - b.v) * (a.v - b.v)) AS d
            FROM u a JOIN u b ON b.i = a.i
            WHERE b.vec_id = (SELECT id FROM s2)
            GROUP BY a.vec_id) x USING (vec_id)),
        s3 AS (SELECT vec_id AS id FROM d3
               ORDER BY d DESC, vec_id LIMIT 1)
        SELECT CAST(0 AS BIGINT) AS sel_order, id AS vec_id FROM s0
        UNION ALL SELECT 1, id FROM s1
        UNION ALL SELECT 2, id FROM s2
        UNION ALL SELECT 3, id FROM s3
        ORDER BY sel_order
    """,
    "q_skipgram_pairs": """
        WITH toks AS (
          SELECT row_number() OVER () AS doc,
                 list_filter(string_split_regex(lower(COALESCE(text,'')),
                                                '[^a-z]+'),
                             x -> x <> '') AS t
          FROM documents),
        pos AS (
          SELECT doc, unnest(t) AS w,
                 generate_subscripts(t, 1) AS i
          FROM toks),
        prs AS (
          SELECT a.w AS center, b.w AS context
          FROM pos a JOIN pos b
            ON a.doc = b.doc AND a.i <> b.i
           AND abs(a.i - b.i) <= 2),
        cnt AS (
          SELECT center, context, CAST(COUNT(*) AS BIGINT) AS n
          FROM prs GROUP BY center, context),
        ranked AS (
          SELECT center, context, n,
                 ROW_NUMBER() OVER (ORDER BY n DESC, center, context)
                     AS rk
          FROM cnt)
        SELECT center, context, n FROM ranked WHERE rk <= 50
        ORDER BY n DESC, center, context
    """,
    # same gram construction as the Jaccard twin; df cap (HAVING <= 1000)
    # is part of the containment CONTRACT, mirrored by the engine
    "q_containment_pairs": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ),
        grams AS (
          SELECT doc_id, array_to_string(t[i:i+2], ' ') AS g
          FROM toks, LATERAL (SELECT unnest(range(1, len(t) - 1)) AS i) s
          WHERE len(t) >= 3
          UNION ALL
          SELECT doc_id, array_to_string(t, ' ') AS g FROM toks
          WHERE len(t) < 3
        ),
        dg AS (SELECT DISTINCT doc_id, g FROM grams),
        sets AS (SELECT doc_id, COUNT(*) AS n FROM dg GROUP BY doc_id),
        kept AS (SELECT g FROM dg GROUP BY g HAVING COUNT(*) <= 1000),
        inter AS (
          SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS i
          FROM dg x JOIN dg y USING (g) JOIN kept USING (g)
          WHERE x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id
        )
        SELECT a, b
        FROM inter JOIN sets sa ON sa.doc_id = inter.a
                   JOIN sets sb ON sb.doc_id = inter.b
        WHERE CAST(i AS DOUBLE) >= 0.8 * LEAST(sa.n, sb.n)
        ORDER BY a, b
    """,
    "q_url_canonicalize": """
        WITH raw AS (
          SELECT doc_id,
                 CASE doc_id % 3
                   WHEN 0 THEN 'HTTPS://' || upper(source)
                        || '.EXAMPLE:443/Doc/' || doc_id || '#frag'
                   WHEN 1 THEN 'https://' || source || '.example/Doc/'
                        || doc_id || '?z=2&a=1'
                   ELSE 'https://' || source || '.example/Doc/'
                        || doc_id || '/'
                 END AS u
          FROM documents),
        parts AS (
          SELECT doc_id,
                 lower(regexp_extract(u,
                     '^([A-Za-z]+)://([^/?#]+)([^?#]*)', 1)) AS scheme,
                 regexp_replace(regexp_replace(
                     lower(regexp_extract(u,
                         '^([A-Za-z]+)://([^/?#]+)([^?#]*)', 2)),
                     ':443$', ''), ':80$', '') AS host,
                 regexp_replace(regexp_extract(u,
                     '^([A-Za-z]+)://([^/?#]+)([^?#]*)', 3),
                     '/$', '') AS path,
                 COALESCE(regexp_extract(u, '\\?([^#]*)', 1), '') AS q
          FROM raw),
        canon AS (
          SELECT scheme || '://' || host || path
                 || CASE WHEN q <> ''
                         THEN '?' || array_to_string(
                                  list_sort(string_split(q, '&')), '&')
                         ELSE '' END AS canon_url
          FROM parts)
        SELECT canon_url, CAST(COUNT(*) AS BIGINT) AS n
        FROM canon GROUP BY canon_url ORDER BY canon_url
    """,
    "q_mojibake_fix_docs": """
        SELECT doc_id,
               (doc_id % 2 = 0) AS was_fixed,
               CAST(length(COALESCE(text,'')) + 14 AS BIGINT)
                   AS post_len,
               'i caf' || chr(233) || ' fin' AS tail
        FROM documents ORDER BY doc_id
    """,
    "q_validate_events": """
        WITH dup AS (
            SELECT user_id, date_trunc('minute', ts) AS m, COUNT(*) AS c
            FROM events GROUP BY 1, 2
        )
        SELECT rule, n_violations FROM (
            SELECT 'dup_user_minute' AS rule,
                   (SELECT CAST(COALESCE(SUM(c), 0) AS BIGINT)
                    FROM dup WHERE c > 1) AS n_violations
            UNION ALL SELECT 'props_k_zero',
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM events
                    WHERE CAST(json_extract_string(props, '$.k')
                               AS BIGINT) = 0)
            UNION ALL SELECT 'ts_after_jan25',
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM events
                    WHERE ts >= TIMESTAMP '2024-01-25 00:00:00')
            UNION ALL SELECT 'type_is_error',
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM events
                    WHERE event_type = 'error')
            UNION ALL SELECT 'value_over_250',
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM events
                    WHERE value > 250)
        ) ORDER BY rule
    """,
    "q_kanon_events": """
        WITH g AS (
            SELECT event_type, date_trunc('day', ts) AS day,
                   CAST(floor(value / 50) AS BIGINT) AS vb,
                   COUNT(*) AS c
            FROM events GROUP BY 1, 2, 3
        )
        SELECT event_type,
               CAST(COUNT(*) AS BIGINT) AS n_groups,
               CAST(SUM(CASE WHEN c < 5 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_small_groups,
               CAST(SUM(CASE WHEN c < 5 THEN c ELSE 0 END) AS BIGINT)
                   AS n_rows_at_risk
        FROM g GROUP BY event_type ORDER BY event_type
    """,
    "q_sentence_split_docs": """
        WITH b AS (
            SELECT doc_id, COALESCE(text, '') AS t,
                   5 + doc_id % 3 AS k,
                   CASE WHEN COALESCE(text, '') = '' THEN 0
                        ELSE length(string_split(COALESCE(text, ''), ' '))
                   END AS nw
            FROM documents
        ), s AS (
            SELECT doc_id, t, nw,
                   CASE WHEN nw = 0 THEN 0
                        ELSE (nw + k - 1) // k END AS ns
            FROM b
        )
        SELECT doc_id, CAST(ns AS BIGINT) AS n_sentences,
               CAST(CASE WHEN nw = 0 THEN 0
                         ELSE length(t) + 1 - ns END AS BIGINT)
                   AS sum_chars,
               CAST(CASE WHEN ns = 0 THEN 0
                         ELSE (1000 * (length(t) + 1 - ns)) // ns
                    END AS BIGINT) AS avg_len_milli
        FROM s ORDER BY doc_id
    """,
    "q_readability_docs": """
        WITH b AS (
            SELECT doc_id, COALESCE(text, '') AS t, 5 + doc_id % 3 AS k
            FROM documents
        ),
        toks AS (
            SELECT doc_id, unnest(string_split(t, ' ')) AS w
            FROM b WHERE t <> ''
        ),
        agg AS (
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS nw,
                   CAST(SUM(GREATEST(length(regexp_extract_all(
                       lower(w), '[aeiouy]+')), 1)) AS BIGINT) AS syl
            FROM toks WHERE w <> '' GROUP BY doc_id
        ),
        j AS (
            SELECT b.doc_id, COALESCE(agg.nw, 0) AS nw,
                   COALESCE(agg.syl, 0) AS syl,
                   CASE WHEN COALESCE(agg.nw, 0) = 0 THEN 0
                        ELSE (agg.nw + b.k - 1) // b.k END AS ns
            FROM b LEFT JOIN agg ON b.doc_id = agg.doc_id
        )
        SELECT doc_id, CAST(nw AS BIGINT) AS n_words,
               CAST(ns AS BIGINT) AS n_sentences,
               CAST(syl AS BIGINT) AS n_syllables,
               CAST(CASE WHEN nw = 0 OR ns = 0 THEN 0
                         ELSE 206835 - (1015 * nw) // ns
                                     - (84600 * syl) // nw
                    END AS BIGINT) AS fre_milli
        FROM j ORDER BY doc_id
    """,
    "q_feature_hash_docs": """
        WITH toks AS (
            SELECT doc_id, unnest(string_split(COALESCE(text, ''), ' '))
                   AS w
            FROM documents
        ),
        hb AS (
            SELECT doc_id,
                   ((strpos('0123456789abcdef', substr(md5(w), 1, 1)) - 1)
                    * 16
                    + strpos('0123456789abcdef', substr(md5(w), 2, 1)) - 1)
                   % 64 AS b
            FROM toks WHERE w <> ''
        ),
        cnt AS (
            SELECT doc_id, b, COUNT(*) AS c FROM hb GROUP BY doc_id, b
        ),
        r AS (
            SELECT doc_id, b, c,
                   ROW_NUMBER() OVER (PARTITION BY doc_id
                                      ORDER BY c DESC, b ASC) AS rn
            FROM cnt
        ),
        agg AS (
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS nnz,
                   CAST(SUM(c) AS BIGINT) AS l1
            FROM cnt GROUP BY doc_id
        )
        SELECT d.doc_id,
               COALESCE(agg.nnz, 0) AS nnz,
               COALESCE(agg.l1, 0) AS l1,
               CAST(COALESCE(r.b, -1) AS BIGINT) AS top_bucket,
               CAST(COALESCE(r.c, 0) AS BIGINT) AS top_count
        FROM documents d
        LEFT JOIN agg ON d.doc_id = agg.doc_id
        LEFT JOIN r ON d.doc_id = r.doc_id AND r.rn = 1
        ORDER BY d.doc_id
    """,
    "q_table_diff_events": """
        WITH base AS (
            SELECT event_id, CAST(ROUND(value * 100) AS BIGINT) AS cents
            FROM events
        ),
        o AS (SELECT event_id, cents FROM base WHERE event_id % 3 <> 0),
        n AS (SELECT event_id, cents + CASE WHEN event_id % 7 = 0
                                            THEN 100 ELSE 0 END AS cents
              FROM base WHERE event_id % 5 <> 0),
        j AS (
            SELECT COALESCE(o.event_id, n.event_id) AS event_id,
                   CASE WHEN o.event_id IS NULL THEN 'added'
                        WHEN n.event_id IS NULL THEN 'removed'
                        WHEN o.cents <> n.cents THEN 'changed'
                        ELSE 'unchanged' END AS status
            FROM o FULL OUTER JOIN n ON o.event_id = n.event_id
        )
        SELECT status, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(event_id) AS BIGINT) AS id_sum
        FROM j GROUP BY status ORDER BY status
    """,
    "q_subtitle_stats_docs": """
        SELECT doc_id,
               CAST(3 AS BIGINT) AS n_cues,
               CAST((doc_id % 3600) * 1000 AS BIGINT) AS first_start_ms,
               CAST((doc_id % 3600) * 1000 + 4000
                    + 1500 + doc_id % 500 AS BIGINT) AS last_end_ms,
               CAST(3 * (1500 + doc_id % 500) AS BIGINT)
                   AS total_dur_ms,
               CAST(3 * (6 + length(CAST(doc_id AS VARCHAR)))
                    AS BIGINT) AS text_chars
        FROM documents ORDER BY doc_id
    """,
    "q_exif_roundtrip_docs": """
        SELECT doc_id,
               'Cam' || (doc_id % 5) AS make,
               'M' || (doc_id % 3) AS model,
               CAST(1 + doc_id % 8 AS BIGINT) AS orientation,
               CAST(100 + (doc_id % 32) * 25 AS BIGINT) AS iso,
               CAST(50 + doc_id % 200 AS BIGINT) AS exposure_den,
               CAST(28 + doc_id % 50 AS BIGINT) AS fnumber_tenths,
               CAST(CASE WHEN doc_id % 4 = 0 THEN -1000000000
                    ELSE (CASE WHEN doc_id % 2 = 1 THEN -1 ELSE 1 END)
                         * ((doc_id % 90) * 3600000
                            + (doc_id % 60) * 60000
                            + ((doc_id * 7) % 6000) * 10)
                    END AS BIGINT) AS lat_milli,
               CAST(CASE WHEN doc_id % 4 = 0 THEN -1000000000
                    ELSE (CASE WHEN doc_id % 3 = 0 THEN -1 ELSE 1 END)
                         * ((doc_id % 180) * 3600000
                            + ((doc_id * 3) % 60) * 60000
                            + ((doc_id * 11) % 6000) * 10)
                    END AS BIGINT) AS lon_milli
        FROM documents ORDER BY doc_id
    """,
    "q_ip_range_lookup_events": """
        WITH ips AS (
          SELECT event_id,
                 (user_id * 2654435761 + event_id * 40503)
                     % 4294967296 AS ip
          FROM events),
        r AS (
          SELECT CAST(i * 268435456 AS BIGINT) AS lo,
                 CAST(i * 268435456 + 134217727 AS BIGINT) AS hi,
                 'net-' || i AS label
          FROM (SELECT unnest(generate_series(0, 15)) AS i))
        SELECT i.event_id, i.ip, r.label
        FROM ips i LEFT JOIN r ON i.ip BETWEEN r.lo AND r.hi
        ORDER BY i.event_id
    """,
    "q_scd2_events": """
        WITH o AS (
          SELECT user_id, event_type, ts, event_id,
                 LAG(event_type) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev
          FROM events),
        ch AS (
          SELECT user_id, event_id, event_type AS state,
                 ts AS valid_from
          FROM o WHERE prev IS NULL OR prev <> event_type),
        fin AS (
          SELECT user_id, event_id, state, valid_from,
                 LEAD(valid_from) OVER (PARTITION BY user_id
                         ORDER BY valid_from, event_id) AS valid_to
          FROM ch)
        SELECT user_id, event_id, state, valid_from, valid_to,
               (valid_to IS NULL) AS is_current
        FROM fin ORDER BY user_id, valid_from
    """,
    "q_ann_hamming_topk": """
        WITH q AS (
          SELECT vec_id AS query_id, embedding AS qe
          FROM embeddings WHERE vec_id IN (0, 1, 2, 3, 4)),
        zipped AS (
          SELECT q.query_id, e.vec_id AS neighbor_id,
                 unnest(q.qe) AS qv, unnest(e.embedding) AS ev
          FROM q CROSS JOIN embeddings e
          WHERE e.vec_id <> q.query_id),
        d AS (
          SELECT query_id, neighbor_id,
                 CAST(SUM(CASE WHEN (qv > 0) <> (ev > 0)
                               THEN 1 ELSE 0 END) AS BIGINT) AS hamming
          FROM zipped GROUP BY query_id, neighbor_id),
        ranked AS (
          SELECT query_id, neighbor_id, hamming,
                 ROW_NUMBER() OVER (PARTITION BY query_id
                                    ORDER BY hamming, neighbor_id) AS rk
          FROM d)
        SELECT query_id, CAST(rk AS BIGINT) AS rank, neighbor_id,
               hamming
        FROM ranked WHERE rk <= 5 ORDER BY query_id, rank
    """,
    "q_zorder_events": """
        WITH d AS (
          SELECT event_id,
                 (user_id % 65536) AS x,
                 ((epoch_us(ts) // 60000000) % 65536) AS y
          FROM events),
        bitrows AS (
          SELECT event_id, x, y,
                 unnest(generate_series(0, 15)) AS i
          FROM d),
        zs AS (
          SELECT event_id, MIN(x) AS x, MIN(y) AS y,
                 SUM((((x >> i) & 1) << (2*i))
                     + (((y >> i) & 1) << (2*i + 1))) AS z
          FROM bitrows GROUP BY event_id)
        SELECT CAST(z * 8 // 4294967296 AS BIGINT) AS file_id,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(MIN(x) AS BIGINT) AS min_x,
               CAST(MAX(x) AS BIGINT) AS max_x,
               CAST(MIN(y) AS BIGINT) AS min_y,
               CAST(MAX(y) AS BIGINT) AS max_y
        FROM zs GROUP BY z * 8 // 4294967296 ORDER BY file_id
    """,
    "q_kmv_distinct_events": """
        WITH hs AS (
          SELECT DISTINCT CAST(('0x' || substr(md5(props), 1, 12))
                               AS BIGINT) AS h
          FROM events),
        ranked AS (
          SELECT h, ROW_NUMBER() OVER (ORDER BY h) AS rn,
                 COUNT(*) OVER () AS n
          FROM hs)
        SELECT CAST(LEAST(n, 64) AS BIGINT) AS k_used,
               h AS kth_hash,
               CAST(CASE WHEN n >= 64
                         THEN 63 * 281474976710656 // h
                         ELSE n END AS BIGINT) AS est_distinct
        FROM ranked WHERE rn = LEAST(n, 64)
    """,
    "q_unicode_nfc_docs": """
        WITH aug AS (
          SELECT doc_id, COALESCE(text,'')
            || CASE WHEN doc_id % 2 = 0
               THEN ' cafe' || chr(769) || ' A' || chr(778) || ' '
                    || chr(64257)
               ELSE ' caf' || chr(233) || ' ' || chr(197) || ' '
                    || chr(64257) END AS t
          FROM documents),
        n AS (SELECT doc_id, t, nfc_normalize(t) AS nt FROM aug)
        SELECT doc_id,
               CAST(length(t) AS BIGINT) AS pre_len,
               CAST(length(nt) AS BIGINT) AS post_len,
               (t <> nt) AS changed,
               substring(nt, length(nt) - 7, 8) AS tail
        FROM n ORDER BY doc_id
    """,
    "q_card_luhn_docs": """
        WITH aug AS (
          SELECT doc_id, COALESCE(text,'') || ' card ' || '4'
              || lpad(CAST(doc_id*37 % 100000000000000 AS VARCHAR),
                      14, '0')
              || CAST(doc_id % 10 AS VARCHAR)
              || ' ref 1234567 '
              || CASE WHEN doc_id % 3 <> 0 THEN '+1-555-'
                   || CAST(100 + doc_id % 900 AS VARCHAR) || '-'
                   || CAST(1000 + doc_id % 9000 AS VARCHAR)
                 ELSE '' END AS t
          FROM documents),
        cands AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(t, '\\b\\d{13,19}\\b')) AS c
          FROM aug),
        digs AS (
          SELECT doc_id, c,
                 unnest(generate_series(1, length(c))) AS i
          FROM cands),
        sums AS (
          SELECT doc_id, c,
                 SUM(CASE WHEN i % 2 = 0 THEN
                       CASE WHEN 2*CAST(substring(c, length(c)-i+1, 1)
                                    AS BIGINT) > 9
                            THEN 2*CAST(substring(c, length(c)-i+1, 1)
                                    AS BIGINT) - 9
                            ELSE 2*CAST(substring(c, length(c)-i+1, 1)
                                    AS BIGINT) END
                     ELSE CAST(substring(c, length(c)-i+1, 1) AS BIGINT)
                     END) AS s
          FROM digs GROUP BY doc_id, c),
        per_doc AS (
          SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_cands,
                 CAST(COUNT(*) FILTER (s % 10 = 0) AS BIGINT) AS n_valid
          FROM sums GROUP BY doc_id)
        SELECT a.doc_id,
               COALESCE(p.n_cands, 0) AS n_cands,
               COALESCE(p.n_valid, 0) AS n_valid,
               CAST((length(a.t)
                    - length(regexp_replace(a.t,
                          '\\+1-\\d{3}-\\d{3}-\\d{4}', '', 'g')))
                    // 15 AS BIGINT) AS n_phones
        FROM aug a LEFT JOIN per_doc p USING (doc_id)
        ORDER BY a.doc_id
    """,
    "q_webdataset_roundtrip": """
        SELECT lang,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
               CAST(SUM(length(COALESCE(text,''))) AS BIGINT)
                   AS sum_text_len
        FROM documents GROUP BY lang ORDER BY lang
    """,
    "q_upsert_events": """
        WITH tagged AS (
          SELECT user_id, event_type, ts, event_id,
                 CAST(ROUND(value*100) AS BIGINT) AS val_cents,
                 (ts >= TIMESTAMP '2024-01-08' AND value < 10) AS del
          FROM events),
        win AS (
          SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                        ORDER BY ts DESC, event_id DESC) AS rk
          FROM tagged)
        SELECT user_id, event_type, ts, event_id, val_cents
        FROM win WHERE rk = 1 AND NOT del
        ORDER BY user_id, event_type
    """,
    "q_gopher_filter_docs": """
        WITH aug AS (
          SELECT doc_id, COALESCE(text,'')
            || CASE WHEN doc_id % 16 <> 0 AND doc_id % 5 <> 0
               THEN chr(10) ||
                 'Good words of and to that with here.' ELSE '' END
            || CASE WHEN doc_id % 16 <> 0 AND doc_id % 4 = 0
               THEN chr(10) || '- item one'
                 || chr(10) || '- item two' || chr(10) || '- item three'
               ELSE '' END
            || CASE WHEN doc_id % 16 <> 0 AND doc_id % 6 = 0
               THEN chr(10) ||
                 'well then a trailing thought...' ELSE '' END
            || CASE WHEN doc_id % 16 <> 0 AND doc_id % 7 = 0
               THEN chr(10) || '# # # ## # ## ##' ELSE '' END
            || CASE WHEN doc_id % 16 <> 0 AND doc_id % 9 = 0
               THEN chr(10) || 'repeat line'
                 || chr(10) || 'repeat line' ELSE '' END
            || CASE WHEN doc_id % 16 = 0 THEN (
                 SELECT string_agg(chr(10) || '- bullet row ' || k
                                   || ' here', '' ORDER BY k)
                 FROM generate_series(0, 9) AS gs(k)) ELSE '' END
            || CASE WHEN doc_id % 16 = 8
               THEN chr(10) || repeat('a ', 79) || 'a' ELSE '' END AS t
          FROM documents),
        toks AS (
          SELECT doc_id, t,
                 list_filter(string_split_regex(t, '\\s+'),
                             x -> x <> '') AS w,
                 string_split(t, chr(10)) AS ls
          FROM aug),
        base AS (
          SELECT doc_id,
            CAST(len(w) AS BIGINT) AS n_words,
            CAST(length(regexp_replace(t, '\\s+', '', 'g'))
                 AS BIGINT) AS word_chars,
            CAST(len(list_filter(w,
                 x -> regexp_matches(x, '[A-Za-z]')))
                 AS BIGINT) AS alpha_words,
            CAST(len(list_distinct(list_filter(w,
                 x -> list_contains(['the','be','to','of','and','that',
                                     'have','with'], lower(x)))))
                 AS BIGINT) AS stop_kinds,
            CAST(len(ls) AS BIGINT) AS n_lines,
            CAST(len(list_filter(ls,
                 l -> l LIKE '- %' OR l LIKE '* %'))
                 AS BIGINT) AS bullet_lines,
            CAST(len(list_filter(ls, l -> l LIKE '%...'))
                 AS BIGINT) AS ellipsis_lines,
            CAST((length(t) - length(replace(t, '#', '')))
                 + (length(t) - length(replace(t, '...', ''))) // 3
                 AS BIGINT) AS symbols,
            CAST(len(ls) - len(list_distinct(ls)) AS BIGINT)
                 AS dup_lines
          FROM toks),
        pos AS (
          SELECT doc_id, unnest(w) AS wd, generate_subscripts(w, 1) AS i
          FROM toks),
        grams AS (
          SELECT a.doc_id, a.wd || ' ' || b.wd AS g
          FROM pos a JOIN pos b
            ON a.doc_id = b.doc_id AND b.i = a.i + 1),
        gcnt AS (
          SELECT doc_id, g, COUNT(*) AS cnt
          FROM grams GROUP BY doc_id, g),
        gtop AS (
          SELECT doc_id, CAST(cnt * (length(g) - 1) AS BIGINT)
                     AS top2_chars,
                 ROW_NUMBER() OVER (PARTITION BY doc_id
                                    ORDER BY cnt DESC, g DESC) AS rk
          FROM gcnt),
        m AS (
          SELECT b.*, COALESCE(gt.top2_chars, 0) AS top2_chars
          FROM base b LEFT JOIN (SELECT doc_id, top2_chars FROM gtop
                                 WHERE rk = 1) gt USING (doc_id))
        SELECT doc_id, n_words, word_chars, alpha_words, stop_kinds,
               n_lines, bullet_lines, ellipsis_lines, symbols,
               dup_lines, top2_chars,
               (n_words >= 50 AND n_words <= 100000) AS g_count,
               (3*n_words <= word_chars AND word_chars <= 10*n_words)
                   AS g_meanlen,
               (5*alpha_words >= 4*n_words) AS g_alpha,
               (stop_kinds >= 2) AS g_stop,
               (10*bullet_lines < 9*n_lines) AS g_bullet,
               (10*ellipsis_lines < 3*n_lines) AS g_ellipsis,
               (10*symbols < n_words) AS g_symbol,
               (10*dup_lines <= 3*n_lines) AS g_dupline,
               (5*top2_chars <= word_chars) AS g_top2,
               ((n_words >= 50 AND n_words <= 100000)
                AND (3*n_words <= word_chars
                     AND word_chars <= 10*n_words)
                AND (5*alpha_words >= 4*n_words)
                AND (stop_kinds >= 2)
                AND (10*bullet_lines < 9*n_lines)
                AND (10*ellipsis_lines < 3*n_lines)
                AND (10*symbols < n_words)
                AND (10*dup_lines <= 3*n_lines)
                AND (5*top2_chars <= word_chars)) AS gopher_pass
        FROM m ORDER BY doc_id
    """,
    "q_robots_filter_docs": """
        WITH paths AS (
          SELECT doc_id,
                 CASE doc_id % 6
                   WHEN 0 THEN '/private/doc' || doc_id
                   WHEN 1 THEN '/private/pub/doc' || doc_id
                   WHEN 2 THEN '/cache/doc' || doc_id || '.tmp'
                   WHEN 3 THEN '/search/about'
                   WHEN 4 THEN '/search/q' || doc_id
                   ELSE '/docs/doc' || doc_id
                 END AS path
          FROM documents),
        -- the gitprovbot group of _ROBOTS_TXT, pattern → anchored regex,
        -- plen = raw pattern length (RFC 9309 §2.2.2 specificity)
        rules(allow, rx, plen) AS (VALUES
          (FALSE, '^/private',        8),
          (TRUE,  '^/private/pub',   12),
          (FALSE, '^/.*\\.tmp$',      7),
          (FALSE, '^/search',         7),
          (TRUE,  '^/search/about$', 14)),
        scored AS (
          SELECT p.doc_id, p.path,
                 MAX(CASE WHEN regexp_matches(p.path, r.rx)
                          THEN CAST(r.plen AS BIGINT) * 2
                               + CAST(r.allow AS BIGINT)
                          ELSE -1 END) AS best
          FROM paths p CROSS JOIN rules r
          GROUP BY p.doc_id, p.path)
        SELECT doc_id, path,
               (best < 0 OR best % 2 = 1) AS allowed,
               CAST(CASE WHEN best < 0 THEN -1 ELSE best // 2 END
                    AS BIGINT) AS rule_len
        FROM scored ORDER BY doc_id
    """,
    "q_range_window_events": """
        SELECT event_id, user_id,
               CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) OVER (
                    PARTITION BY user_id ORDER BY ts
                    RANGE BETWEEN INTERVAL 10 MINUTE PRECEDING
                          AND CURRENT ROW) AS BIGINT) AS win_cents
        FROM events ORDER BY event_id
    """,
    "q_normalize_docs": r"""
        WITH inj AS (
          SELECT doc_id,
                 CASE WHEN doc_id % 5 = 0
                      THEN replace(replace(COALESCE(text, ''),
                                           'a', 'á'), 'e', 'ê')
                      ELSE COALESCE(text, '') END AS t
          FROM documents),
        n AS (
          SELECT doc_id,
                 trim(regexp_replace(strip_accents(lower(t)),
                                     '\s+', ' ', 'g')) AS nt
          FROM inj)
        SELECT doc_id, md5(nt) AS norm_md5,
               CAST(length(nt) AS BIGINT) AS n_chars_norm
        FROM n ORDER BY doc_id
    """,
    # the ±1 planes and integer projections reproduce the ENGINE's LSH
    # buckets exactly: plane weight = low bit of md5 digest byte
    # (hex char 2k+2 odd <=> bit set), dot over ROUND(v*1000) BIGINTs
    "q_ann_lsh_topk": """
        WITH planes AS (
          SELECT p.p, j.j * 16 + k.k AS i,
                 CASE WHEN substring(md5('plane' || CAST(p.p AS VARCHAR)
                                         || '_' || CAST(j.j AS VARCHAR)),
                                     2 * k.k + 2, 1)
                           IN ('1','3','5','7','9','b','d','f')
                      THEN 1 ELSE -1 END AS w
          FROM range(4) p(p), range(4) j(j), range(16) k(k)),
        vals AS (
          SELECT vec_id,
                 generate_subscripts(embedding, 1) - 1 AS i,
                 CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000)
                      AS BIGINT) AS q
          FROM embeddings),
        dots AS (
          SELECT v.vec_id, pl.p, SUM(v.q * pl.w) AS dot
          FROM vals v JOIN planes pl USING (i)
          GROUP BY v.vec_id, pl.p),
        buckets AS (
          SELECT vec_id,
                 CAST(SUM(CASE WHEN dot > 0
                               THEN CAST(power(2, p) AS BIGINT)
                               ELSE 0 END) AS BIGINT) AS bucket
          FROM dots GROUP BY vec_id),
        q AS (SELECT e.vec_id AS query_id, e.embedding AS qe, b.bucket
              FROM embeddings e JOIN buckets b USING (vec_id)
              WHERE e.vec_id IN (0,1,2,3,4)),
        sims AS (
          SELECT q.query_id, e.vec_id AS neighbor_id,
                 list_cosine_similarity(q.qe, e.embedding) AS sim
          FROM q JOIN buckets b ON b.bucket = q.bucket
               JOIN embeddings e ON e.vec_id = b.vec_id
          WHERE e.vec_id <> q.query_id),
        ranked AS (
          SELECT query_id, neighbor_id,
                 ROW_NUMBER() OVER (PARTITION BY query_id
                                    ORDER BY sim DESC, neighbor_id) AS rank
          FROM sims)
        SELECT query_id, rank, neighbor_id FROM ranked
        WHERE rank <= 5 ORDER BY query_id, rank
    """,
    "q_skew_join_enrich": """
        SELECT e.event_id, e.user_id, c.c_name
        FROM events e JOIN customer c ON e.user_id = c.c_custkey
        ORDER BY e.event_id
    """,
    "q_event_transitions": """
        WITH w AS (
          SELECT user_id, event_type,
                 LAG(event_type) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS prev_type
          FROM events)
        SELECT prev_type, event_type AS next_type,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM w WHERE prev_type IS NOT NULL
        GROUP BY prev_type, next_type ORDER BY prev_type, next_type
    """,
    # z-score rule cleared of division: (c*n - s)^2 > 9*(n*ss - s^2),
    # HUGEINT end-to-end — identical exact integers on both engines
    "q_outlier_events": """
        WITH p AS (
          SELECT event_id, event_type,
                 CAST(ROUND(value*100) AS BIGINT) AS c
          FROM events),
        m AS (
          SELECT event_type,
                 CAST(COUNT(*) AS HUGEINT) AS n,
                 CAST(SUM(c) AS HUGEINT) AS s,
                 CAST(SUM(CAST(c AS HUGEINT) * c) AS HUGEINT) AS ss
          FROM p GROUP BY event_type)
        SELECT p.event_id, p.event_type, p.c AS value_cents
        FROM p JOIN m USING (event_type)
        WHERE (CAST(p.c AS HUGEINT) * m.n - m.s)
              * (CAST(p.c AS HUGEINT) * m.n - m.s)
              > 9 * (m.n * m.ss - m.s * m.s)
        ORDER BY p.event_id
    """,
    "q_bloom_semi_join": """
        SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
               l_quantity
        FROM lineitem l
        WHERE EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_orderkey = l.l_orderkey
                        AND o.o_totalprice > 450000.0)
        ORDER BY l_orderkey, l_linenumber
    """,
    "q_hardneg_mining": """
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe, label AS ql
                   FROM embeddings WHERE vec_id IN (0,1,2,3,4)),
        sims AS (
            SELECT q.query_id, e.vec_id AS neighbor_id,
                   list_cosine_similarity(q.qe, e.embedding) AS sim
            FROM q, embeddings e WHERE e.label <> q.ql),
        ranked AS (
            SELECT query_id, neighbor_id,
                   ROW_NUMBER() OVER (PARTITION BY query_id
                                      ORDER BY sim DESC, neighbor_id) AS rank
            FROM sims)
        SELECT query_id, rank, neighbor_id FROM ranked
        WHERE rank <= 5 ORDER BY query_id, rank
    """,
    # the recursive CTE replays the engine's greedy walk row by row;
    # per-source depth = docs per source, tiny because source partitions
    "q_pack_sequences": """
        WITH RECURSIVE o AS (
          SELECT source, doc_id,
                 LEAST(CAST(len(regexp_extract_all(
                         lower(COALESCE(text, '')), '[a-z]+')) AS BIGINT),
                       256) AS t,
                 ROW_NUMBER() OVER (PARTITION BY source
                                    ORDER BY doc_id) AS rn
          FROM documents),
        walk(source, rn, bin, running) AS (
          SELECT source, rn, CAST(0 AS BIGINT), t FROM o WHERE rn = 1
          UNION ALL
          SELECT o.source, o.rn,
                 CASE WHEN w.running + o.t > 256 THEN w.bin + 1
                      ELSE w.bin END,
                 CASE WHEN w.running + o.t > 256 THEN o.t
                      ELSE w.running + o.t END
          FROM walk w JOIN o ON o.source = w.source AND o.rn = w.rn + 1)
        SELECT o.doc_id, o.source, CAST(w.bin AS BIGINT) AS bin_id,
               CAST(o.t AS BIGINT) AS tok_used
        FROM walk w JOIN o USING (source, rn)
        ORDER BY o.source, o.doc_id
    """,
}

# SemDeDup oracle = the unrolled k-means CTE run over the PLANTED table
# (same iteration count / init / tie rules), with the final select replaced
# by the keep rule: no smaller-id row in the same cluster with cosine >=
# 0.9. Derived from the q_kmeans twin so the two stay in lockstep.
_sem = ORACLE_SQL["q_kmeans_embeddings"].replace("FROM embeddings",
                                                 "FROM planted")
_sem = _sem.replace(
    "WITH c0 AS (",
    "WITH planted AS (\n"
    "          SELECT vec_id, embedding FROM embeddings\n"
    "          UNION ALL\n"
    "          SELECT vec_id + 100000, embedding FROM embeddings\n"
    "          WHERE vec_id < 40\n"
    "        ),\n"
    "        c0 AS (", 1)
ORACLE_SQL["q_semdedup_embeddings"] = _sem.replace(
    "SELECT vec_id, cluster FROM a4 ORDER BY vec_id",
    """SELECT a.vec_id, a.cluster,
               NOT EXISTS (
                 SELECT 1 FROM a4 b
                 JOIN planted pb ON pb.vec_id = b.vec_id
                 WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id
                   AND list_cosine_similarity(pa.embedding, pb.embedding)
                       >= 0.9
               ) AS keep
        FROM a4 a JOIN planted pa ON pa.vec_id = a.vec_id
        ORDER BY a.vec_id""")
del _sem

# IVF oracle = the SAME unrolled k-means CTE (the engine's coarse
# quantizer IS kmeans_embeddings), final select replaced by the n_probe=1
# search: each query ranks only its own cluster's inverted list by
# cosine. Derived by string surgery so quantizer and twin stay in
# lockstep (same trick as q_semdedup_embeddings).
ORACLE_SQL["q_ann_ivf_topk"] = ORACLE_SQL["q_kmeans_embeddings"].replace(
    "SELECT vec_id, cluster FROM a4 ORDER BY vec_id",
    """, q AS (
          SELECT a.vec_id AS query_id, a.cluster, e.embedding AS qe
          FROM a4 a JOIN embeddings e USING (vec_id)
          WHERE a.vec_id IN (0,1,2,3,4)),
        sims AS (
          SELECT q.query_id, b.vec_id AS neighbor_id,
                 list_cosine_similarity(q.qe, e2.embedding) AS sim
          FROM q JOIN a4 b ON b.cluster = q.cluster
               JOIN embeddings e2 ON e2.vec_id = b.vec_id
          WHERE b.vec_id <> q.query_id),
        ranked AS (
          SELECT query_id, neighbor_id,
                 ROW_NUMBER() OVER (PARTITION BY query_id
                                    ORDER BY sim DESC, neighbor_id)
                     AS rank
          FROM sims)
        SELECT query_id, rank, neighbor_id FROM ranked
        WHERE rank <= 5 ORDER BY query_id, rank""")

# Multi-probe LSH oracle = the single-probe LSH twin with the sims CTE
# widened to the probe set (own bucket + every single-bit flip) — the
# integer buckets make the probe sets bit-identical on both engines.
ORACLE_SQL["q_ann_lsh_multiprobe"] = ORACLE_SQL["q_ann_lsh_topk"].replace(
    """        sims AS (
          SELECT q.query_id, e.vec_id AS neighbor_id,
                 list_cosine_similarity(q.qe, e.embedding) AS sim
          FROM q JOIN buckets b ON b.bucket = q.bucket
               JOIN embeddings e ON e.vec_id = b.vec_id
          WHERE e.vec_id <> q.query_id),""",
    """        pr AS (
          SELECT query_id, bucket AS pb FROM q
          UNION
          SELECT q.query_id,
                 xor(q.bucket, CAST(power(2, p.p) AS BIGINT))
          FROM q, range(4) p(p)),
        sims AS (
          SELECT q.query_id, e.vec_id AS neighbor_id,
                 list_cosine_similarity(q.qe, e.embedding) AS sim
          FROM q JOIN pr USING (query_id)
               JOIN buckets b ON b.bucket = pr.pb
               JOIN embeddings e ON e.vec_id = b.vec_id
          WHERE e.vec_id <> q.query_id),""")

# PQ oracle = TWO renamed copies of the unrolled k-means CTE, each over a
# list-sliced subspace view of the embeddings (sub 0 = dims 1..32, sub 1
# = 33..64), joined on vec_id. Derived mechanically from the q_kmeans
# twin so the quantizer and its oracle can never drift apart.
import re as _re


def _pq_kmeans_body(prefix: str) -> str:
    sql = ORACLE_SQL["q_kmeans_embeddings"]
    body = sql.split("WITH", 1)[1].rsplit(
        "SELECT vec_id, cluster FROM a4 ORDER BY vec_id", 1)[0]
    for name in ("c0", "a1", "c1", "a2", "c2", "a3", "c3", "a4"):
        body = _re.sub(rf"\b{name}\b", f"{prefix}{name}", body)
    return body.replace("FROM embeddings", f"FROM {prefix}src").rstrip()


_PQ_PREAMBLE = (
    "WITH p0src AS (SELECT vec_id, embedding[1:32] AS embedding"
    " FROM embeddings),\n"
    "     p1src AS (SELECT vec_id, embedding[33:64] AS embedding"
    " FROM embeddings),\n"
    + _pq_kmeans_body("p0") + ",\n" + _pq_kmeans_body("p1"))

ORACLE_SQL["q_pq_codes"] = (
    _PQ_PREAMBLE + "\n"
    "SELECT a.vec_id, CAST(a.cluster AS BIGINT) AS code0,\n"
    "       CAST(b.cluster AS BIGINT) AS code1\n"
    "FROM p0a4 a JOIN p1a4 b USING (vec_id) ORDER BY a.vec_id")

# ADC twin: integer codebooks/query tables (ROUND(x*1000) BIGINTs) make
# the asymmetric distances — i.e. the approximation's RANKING — exact
ORACLE_SQL["q_pq_adc_topk"] = _PQ_PREAMBLE + """,
cb AS (
  SELECT 0 AS sub, c,
         list_transform(e, x -> CAST(ROUND(x*1000) AS BIGINT)) AS qe
  FROM p0c3
  UNION ALL
  SELECT 1, c, list_transform(e, x -> CAST(ROUND(x*1000) AS BIGINT))
  FROM p1c3),
qv AS (
  SELECT vec_id AS query_id, 0 AS sub,
         list_transform(embedding[1:32],
             x -> CAST(ROUND(CAST(x AS DOUBLE)*1000) AS BIGINT)) AS qe
  FROM embeddings WHERE vec_id IN (0,1,2,3,4)
  UNION ALL
  SELECT vec_id, 1,
         list_transform(embedding[33:64],
             x -> CAST(ROUND(CAST(x AS DOUBLE)*1000) AS BIGINT))
  FROM embeddings WHERE vec_id IN (0,1,2,3,4)),
dq AS (SELECT query_id, sub, generate_subscripts(qe, 1) AS i,
              unnest(qe) AS v FROM qv),
dc AS (SELECT sub, c, generate_subscripts(qe, 1) AS i,
              unnest(qe) AS v FROM cb),
dt AS (SELECT dq.query_id, dq.sub, dc.c,
              SUM((dq.v - dc.v) * (dq.v - dc.v)) AS dist
       FROM dq JOIN dc USING (sub, i)
       GROUP BY dq.query_id, dq.sub, dc.c),
codes AS (SELECT a.vec_id, a.cluster AS code0, b.cluster AS code1
          FROM p0a4 a JOIN p1a4 b USING (vec_id)),
scored AS (
  SELECT q.query_id, n.vec_id AS neighbor_id,
         t0.dist + t1.dist AS dist
  FROM (SELECT DISTINCT query_id FROM qv) q
  JOIN codes n ON n.vec_id <> q.query_id
  JOIN dt t0 ON t0.query_id = q.query_id AND t0.sub = 0
            AND t0.c = n.code0
  JOIN dt t1 ON t1.query_id = q.query_id AND t1.sub = 1
            AND t1.c = n.code1),
ranked AS (
  SELECT query_id, neighbor_id, dist,
         ROW_NUMBER() OVER (PARTITION BY query_id
                            ORDER BY dist, neighbor_id) AS rank
  FROM scored)
SELECT query_id, rank, neighbor_id, CAST(dist AS BIGINT) AS dist
FROM ranked WHERE rank <= 5 ORDER BY query_id, rank"""
del _pq_kmeans_body, _PQ_PREAMBLE

ORACLE_SQL["q_paragraph_dedup_docs"] = """
WITH d AS (
  SELECT doc_id,
         COALESCE(text,'')
         || chr(10) || 'common paragraph ' || CAST(doc_id % 7 AS VARCHAR)
         || chr(10) || 'unique tail ' || CAST(doc_id AS VARCHAR)
         || chr(10) || 'common paragraph ' || CAST(doc_id % 7 AS VARCHAR)
             AS text
  FROM documents
), p AS (
  SELECT doc_id,
         unnest(string_split(COALESCE(text,''), chr(10))) AS para,
         unnest(range(len(string_split(COALESCE(text,''), chr(10)))))
             AS idx
  FROM d
), w AS (
  SELECT para, MIN(doc_id * 1000000 + idx) AS k FROM p GROUP BY para
), kept AS (
  SELECT p.doc_id, p.idx, p.para FROM p JOIN w
    ON w.para = p.para AND p.doc_id * 1000000 + p.idx = w.k
), tot AS (
  SELECT doc_id, COUNT(*) AS total_paras FROM p GROUP BY doc_id
), agg AS (
  SELECT doc_id, COUNT(*) AS kept_paras,
         string_agg(para, chr(10) ORDER BY idx) AS dedup_text
  FROM kept GROUP BY doc_id
)
SELECT t.doc_id, CAST(t.total_paras AS BIGINT) AS total_paras,
       CAST(COALESCE(a.kept_paras, 0) AS BIGINT) AS kept_paras,
       COALESCE(a.dedup_text, '') AS dedup_text
FROM tot t LEFT JOIN agg a USING (doc_id) ORDER BY t.doc_id"""

ORACLE_SQL["q_c4_filter_docs"] = """
WITH d AS (
  SELECT doc_id,
         COALESCE(text,'')
         || chr(10) || 'This is a clean sentence with id '
            || CAST(doc_id AS VARCHAR) || '.'
         || chr(10) || 'short line.'
         || chr(10) || 'bad line with { brace yes.'
         || chr(10) || 'Another clean line for bucket '
            || CAST(doc_id % 5 AS VARCHAR) || ' right here!'
         || chr(10) || 'Lorem ipsum dolor sit amet.'
         || chr(10) || 'tail line for doc ' || CAST(doc_id AS VARCHAR)
            || CASE WHEN doc_id % 3 = 0 THEN '?' ELSE '' END AS text
  FROM documents
), t AS (
  SELECT doc_id, string_split(COALESCE(text,''), chr(10)) AS lines
  FROM d
), k AS (
  SELECT doc_id, lines,
         list_filter(lines, l ->
            regexp_matches(rtrim(l, ' '), '[.!?"]$')
            AND len(list_filter(string_split_regex(l, '\\s+'),
                                x -> x <> '')) >= 3
            AND strpos(l, '{') = 0
            AND strpos(lower(l), 'lorem ipsum') = 0) AS kept
  FROM t
)
SELECT doc_id,
       CAST(len(lines) AS BIGINT) AS n_lines,
       CAST(len(kept) AS BIGINT) AS kept_lines,
       CAST(len(kept) >= 3 AS BIGINT) AS c4_pass,
       COALESCE(array_to_string(kept, chr(10)), '') AS cleaned_text
FROM k ORDER BY doc_id"""

# both md5 draws decoded 3 hex nibbles at a time via strpos lookup (the
# pinned hex->int idiom from the simhash/HLL twins)
ORACLE_SQL["q_mixture_sample_docs"] = """
WITH v AS (
  SELECT doc_id, source, lang,
         100 + (((strpos('0123456789abcdef',
                         substr(md5(source), 1, 1)) - 1) * 256
               + (strpos('0123456789abcdef',
                         substr(md5(source), 2, 1)) - 1) * 16
               + (strpos('0123456789abcdef',
                         substr(md5(source), 3, 1)) - 1)) % 800)
             AS rate_milli,
         ((strpos('0123456789abcdef',
                  substr(md5('doc:' || CAST(doc_id AS VARCHAR)), 1, 1))
               - 1) * 256
          + (strpos('0123456789abcdef',
                  substr(md5('doc:' || CAST(doc_id AS VARCHAR)), 2, 1))
               - 1) * 16
          + (strpos('0123456789abcdef',
                  substr(md5('doc:' || CAST(doc_id AS VARCHAR)), 3, 1))
               - 1)) % 1000 AS draw
  FROM documents
)
SELECT doc_id, source, lang, CAST(rate_milli AS BIGINT) AS rate_milli
FROM v WHERE draw < rate_milli ORDER BY doc_id"""

ORACLE_SQL["q_profile_events"] = """
SELECT 'event_id' AS col_name, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN event_id IS NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_null,
       CAST(COUNT(DISTINCT event_id) AS BIGINT) AS n_distinct,
       CAST(MIN(event_id) AS DOUBLE) AS min_v,
       CAST(MAX(event_id) AS DOUBLE) AS max_v
FROM events
UNION ALL
SELECT 'user_id', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(COUNT(DISTINCT user_id) AS BIGINT),
       CAST(MIN(user_id) AS DOUBLE), CAST(MAX(user_id) AS DOUBLE)
FROM events
UNION ALL
SELECT 'value', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CASE WHEN value IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(COUNT(DISTINCT value) AS BIGINT),
       CAST(MIN(value) AS DOUBLE), CAST(MAX(value) AS DOUBLE)
FROM events
ORDER BY col_name"""

# BPE training twin: 4 unrolled merge rounds. Each round r explodes the
# space-delimited symbol strings (sym is a unique per-word key — removing
# spaces recovers the word), self-joins position i with i+1 for the
# OVERLAPPING adjacent-pair counts (get_stats semantics), picks the best
# pair by (count DESC, left, right), and applies the merge with replace()
# NESTED TWICE (consecutive occurrences share the delimiter space; see
# textops.bpe_train).
def _bpe_sql(n_merges: int = 4) -> str:
    parts = [r"""
WITH toks AS (
  SELECT unnest(string_split_regex(COALESCE(text,''), '\s+')) AS tok
  FROM documents
), words AS (
  SELECT tok AS word, CAST(COUNT(*) AS BIGINT) AS cnt FROM toks
  WHERE tok <> '' GROUP BY tok
), w0 AS (
  SELECT ' ' || array_to_string(string_split(word, ''), ' ') || ' '
             AS sym, cnt
  FROM words
)"""]
    for r in range(1, n_merges + 1):
        p = r - 1
        parts.append(f""", s{r} AS (
  SELECT sym, cnt,
         unnest(list_filter(string_split(sym, ' '), x -> x <> '')) AS t,
         unnest(range(len(list_filter(string_split(sym, ' '),
                                      x -> x <> '')))) AS i
  FROM w{p}
), p{r} AS (
  SELECT a.t AS a, b.t AS b, CAST(SUM(a.cnt) AS BIGINT) AS w
  FROM s{r} a JOIN s{r} b ON a.sym = b.sym AND b.i = a.i + 1
  GROUP BY a.t, b.t
), b{r} AS (
  SELECT a, b, w FROM p{r} ORDER BY w DESC, a, b LIMIT 1
), w{r} AS (
  SELECT replace(replace(w{p}.sym,
                 ' ' || b{r}.a || ' ' || b{r}.b || ' ',
                 ' ' || b{r}.a || b{r}.b || ' '),
                 ' ' || b{r}.a || ' ' || b{r}.b || ' ',
                 ' ' || b{r}.a || b{r}.b || ' ') AS sym, cnt
  FROM w{p} CROSS JOIN b{r}
)""")
    selects = [f"""SELECT CAST({r} AS BIGINT) AS step, a AS "left",
  b AS "right", w AS pair_count FROM b{r}""" for r in range(1, n_merges + 1)]
    parts.append("\n" + "\nUNION ALL\n".join(selects) + "\nORDER BY step")
    return "".join(parts)


def _bpe_tokenize_sql(n_merges: int = 4) -> str:
    """Tokenizer-application twin: the training CTEs, then word<-sym
    recovery (trim + de-space is exact — symbols never contain spaces)
    and a doc-level vocabulary join."""
    train = _bpe_sql(n_merges)
    ctes = train[:train.rindex("\nSELECT CAST(1")]
    return ctes + f"""
, vocab AS (
  SELECT replace(trim(sym), ' ', '') AS tok,
         len(list_filter(string_split(sym, ' '), x -> x <> '')) AS ntok
  FROM w{n_merges}
), dtoks AS (
  SELECT doc_id, unnest(string_split_regex(COALESCE(text,''), '\\s+'))
      AS tok
  FROM documents
)
SELECT d.doc_id, CAST(SUM(v.ntok) AS BIGINT) AS n_bpe_tokens
FROM dtoks d JOIN vocab v USING (tok)
WHERE d.tok <> ''
GROUP BY d.doc_id ORDER BY d.doc_id"""


ORACLE_SQL["q_bpe_train_merges"] = _bpe_sql(4)
ORACLE_SQL["q_bpe_tokenize_docs"] = _bpe_tokenize_sql(4)

ORACLE_SQL["q_embedding_covariance"] = """
WITH e AS (
  SELECT vec_id, unnest(embedding) AS v,
         unnest(range(len(embedding))) AS i
  FROM embeddings
), q AS (
  SELECT vec_id, i, CAST(ROUND(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM e WHERE i < 8
)
SELECT a.i AS i, b.i AS j, CAST(SUM(a.q * b.q) AS BIGINT) AS gram
FROM q a JOIN q b ON a.vec_id = b.vec_id AND b.i >= a.i
GROUP BY a.i, b.i ORDER BY i, j"""

ORACLE_SQL["q_watermark_window_events"] = """
WITH e AS (
  SELECT event_id, epoch_us(ts) AS ts_us,
         epoch_us(ts) + (event_id * 2654435761) % 7200000000 AS arr
  FROM events
), w AS (
  SELECT ts_us,
         MAX(ts_us) OVER (ORDER BY arr, event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING) AS prevmax
  FROM e
), f AS (
  SELECT (ts_us // 3600000000) * 3600000000 AS window_start_us,
         CASE WHEN prevmax IS NOT NULL
              AND (ts_us // 3600000000) * 3600000000 + 3600000000
                  <= prevmax - 600000000
              THEN 1 ELSE 0 END AS late
  FROM w
)
SELECT window_start_us,
       CAST(SUM(1 - late) AS BIGINT) AS n_kept,
       CAST(SUM(late) AS BIGINT) AS n_late
FROM f GROUP BY window_start_us ORDER BY window_start_us"""

# CMS twin: registers rebuilt bit-for-bit — bucket = first 2 md5 nibbles of
# '<value>:<row>' mod 256 (the 3-nibble hex->int idiom, 2 nibbles here)
ORACLE_SQL["q_cms_user_counts"] = """
WITH uc AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events
  GROUP BY user_id
), rs AS (SELECT unnest(generate_series(0, 3)) AS r),
pos AS (
  SELECT uc.user_id, uc.n, rs.r,
         ((strpos('0123456789abcdef',
                  substr(md5(CAST(uc.user_id AS VARCHAR) || ':'
                             || CAST(rs.r AS VARCHAR)), 1, 1)) - 1) * 16
          + (strpos('0123456789abcdef',
                  substr(md5(CAST(uc.user_id AS VARCHAR) || ':'
                             || CAST(rs.r AS VARCHAR)), 2, 1)) - 1)) % 256
             AS b
  FROM uc CROSS JOIN rs
), regs AS (
  SELECT r, b, CAST(SUM(n) AS BIGINT) AS c FROM pos GROUP BY r, b
), probes AS (SELECT unnest(generate_series(0, 9)) AS user_id),
ppos AS (
  SELECT p.user_id, rs.r,
         ((strpos('0123456789abcdef',
                  substr(md5(CAST(p.user_id AS VARCHAR) || ':'
                             || CAST(rs.r AS VARCHAR)), 1, 1)) - 1) * 16
          + (strpos('0123456789abcdef',
                  substr(md5(CAST(p.user_id AS VARCHAR) || ':'
                             || CAST(rs.r AS VARCHAR)), 2, 1)) - 1)) % 256
             AS b
  FROM probes p CROSS JOIN rs
)
SELECT pp.user_id, CAST(MIN(COALESCE(rg.c, 0)) AS BIGINT) AS est
FROM ppos pp LEFT JOIN regs rg ON rg.r = pp.r AND rg.b = pp.b
GROUP BY pp.user_id ORDER BY pp.user_id"""

ORACLE_SQL["q_html_extract_docs"] = r"""
WITH d AS (
  SELECT doc_id,
         '<html><head><title>Doc ' || CAST(doc_id AS VARCHAR)
         || '</title><style>p{color:red}</style>'
         || '<script>var x=1<2;</script></head><body><!-- nav -->'
         || '<p>' || COALESCE(text, '') || '</p>'
         || '<div class="foo">tail &amp; more &lt;b&gt;</div>'
         || '</body></html>' AS h
  FROM documents
), s1 AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(h, '(?s)<[^>]*>')) AS BIGINT)
             AS n_tags,
         regexp_replace(regexp_replace(regexp_replace(h,
             '(?s)<(script|style)[^>]*>.*?</(script|style)>', ' ', 'g'),
             '(?s)<!--.*?-->', ' ', 'g'),
             '(?s)<[^>]*>', ' ', 'g') AS t
  FROM d
), s2 AS (
  SELECT doc_id, n_tags,
         trim(regexp_replace(
             replace(replace(replace(replace(replace(t,
                 '&lt;', '<'), '&gt;', '>'), '&quot;', '"'),
                 '&#39;', chr(39)), '&amp;', '&'),
             '\s+', ' ', 'g')) AS extracted
  FROM s1
)
SELECT doc_id, extracted, n_tags,
       CAST(length(extracted) AS BIGINT) AS text_len
FROM s2 ORDER BY doc_id"""

ORACLE_SQL["q_sq8_embeddings"] = """
WITH e AS (
  SELECT vec_id, unnest(embedding) AS v,
         unnest(range(len(embedding))) AS i
  FROM embeddings
), q AS (
  SELECT vec_id, i, CAST(ROUND(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS xq
  FROM e WHERE i < 16
), s AS (
  SELECT i, MIN(xq) AS mn, MAX(xq) AS mx FROM q GROUP BY i
)
SELECT q.vec_id, q.i,
       CAST(((q.xq - s.mn) * 255) // GREATEST(s.mx - s.mn, 1) AS BIGINT)
           AS code
FROM q JOIN s USING (i) ORDER BY q.vec_id, q.i"""

ORACLE_SQL["q_dup_span_docs"] = r"""
WITH d AS (
  SELECT doc_id, COALESCE(text,'') || ' common trailing sentence variant '
         || CAST(doc_id % 5 AS VARCHAR)
         || ' for span duplication test end' AS text
  FROM documents
), t AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'),
                             x -> x <> '') AS toks
  FROM d
), w AS (
  SELECT doc_id, i AS widx,
         array_to_string(list_slice(toks, i + 1, i + 8), ' ') AS win
  FROM t, unnest(range(GREATEST(len(toks) - 7, 0))) AS u(i)
), c AS (SELECT win, COUNT(*) AS n FROM w GROUP BY win),
dupw AS (SELECT w.doc_id, w.widx FROM w JOIN c ON c.win = w.win
         WHERE c.n > 1),
isl AS (
  SELECT doc_id, widx,
         CASE WHEN lag(widx) OVER (PARTITION BY doc_id ORDER BY widx)
                   = widx - 1
              THEN 0 ELSE 1 END AS start
  FROM dupw
), per AS (
  SELECT doc_id, COUNT(*) AS dup_windows, SUM(start) AS dup_spans
  FROM isl GROUP BY doc_id
), nw AS (
  SELECT doc_id, GREATEST(len(toks) - 7, 0) AS n_windows FROM t
)
SELECT nw.doc_id, CAST(nw.n_windows AS BIGINT) AS n_windows,
       CAST(COALESCE(p.dup_windows, 0) AS BIGINT) AS dup_windows,
       CAST(COALESCE(p.dup_spans, 0) AS BIGINT) AS dup_spans,
       CAST(COALESCE(p.dup_windows, 0) * 1000
            // GREATEST(nw.n_windows, 1) AS BIGINT) AS dup_milli
FROM nw LEFT JOIN per p USING (doc_id) ORDER BY nw.doc_id"""

ORACLE_SQL["q_link_graph_docs"] = r"""
WITH d AS (
  SELECT doc_id,
         '<p>intro</p><a href="https://site'
         || CAST((doc_id * 7 + 1) % 997 AS VARCHAR) || '.example/p/'
         || CAST(doc_id AS VARCHAR)
         || '">a</a> <a href="mailto:nobody@example.org">m</a>'
         || '<a href="https://site'
         || CAST((doc_id * 13 + 5) % 997 AS VARCHAR) || '.example/p/'
         || CAST(doc_id AS VARCHAR) || '">b</a>'
         || '<a href="/local/path">rel</a>'
         || '<a href="https://site' || CAST(doc_id % 31 AS VARCHAR)
         || '.example/p/' || CAST(doc_id AS VARCHAR) || '">c</a>' AS h
  FROM documents
), x AS (
  SELECT doc_id,
         CAST(unnest(regexp_extract_all(
             h, 'href="https://site(\d+)\.example', 1)) AS BIGINT) AS dst
  FROM d
)
SELECT dst, CAST(COUNT(*) AS BIGINT) AS in_deg,
       CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_srcs
FROM x GROUP BY dst ORDER BY dst"""

ORACLE_SQL["q_keyword_match_docs"] = """
WITH k(kw) AS (VALUES ('batch'), ('data'), ('graph'), ('model'), ('node'),
                      ('query'), ('ray'), ('shuffle'), ('the'), ('token'),
                      ('train'), ('vector')),
c AS (
  SELECT k.kw,
         CAST(len(regexp_extract_all(COALESCE(d.text, ''), k.kw))
              AS BIGINT) AS c
  FROM documents d CROSS JOIN k
)
SELECT kw AS keyword,
       CAST(COUNT(*) FILTER (WHERE c > 0) AS BIGINT) AS n_docs,
       CAST(SUM(c) AS BIGINT) AS n_matches
FROM c GROUP BY kw ORDER BY kw"""

ORACLE_SQL["q_hopping_window_events"] = """
WITH k(i) AS (VALUES (0), (1), (2), (3)),
x AS (
  SELECT (epoch_us(ts) // 1800000000 - i) * 1800000000 AS ws_us, event_type
  FROM events CROSS JOIN k
)
SELECT CAST(ws_us AS BIGINT) AS ws_us, event_type,
       CAST(COUNT(*) AS BIGINT) AS n
FROM x GROUP BY ws_us, event_type ORDER BY ws_us, event_type"""

ORACLE_SQL["q_gap_fill_events"] = """
WITH c AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hb, COUNT(*) AS n
  FROM events GROUP BY 1, 2
), b AS (SELECT MIN(hb) AS mn, MAX(hb) AS mx FROM c),
h AS (SELECT unnest(generate_series(mn, mx)) AS hb FROM b),
t AS (SELECT DISTINCT event_type FROM events)
SELECT t.event_type, CAST(h.hb * 3600000000 AS BIGINT) AS hr_us,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n
FROM t CROSS JOIN h
LEFT JOIN c ON c.event_type = t.event_type AND c.hb = h.hb
ORDER BY t.event_type, hr_us"""

ORACLE_SQL["q_dsir_select_docs"] = r"""
WITH tok AS (
  SELECT doc_id, lang,
         unnest(list_filter(string_split_regex(COALESCE(text, ''), '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
), tb AS (
  SELECT doc_id, lang,
         (strpos('0123456789abcdef', substr(md5(tok), 1, 1)) - 1) * 16
         + (strpos('0123456789abcdef', substr(md5(tok), 2, 1)) - 1) AS b
  FROM tok
), cnt AS (
  SELECT b, COUNT(*) AS cr,
         COUNT(*) FILTER (WHERE lang = 'en') AS ct
  FROM tb GROUP BY b
), tot AS (SELECT SUM(cr) AS nr, SUM(ct) AS nt FROM cnt)
SELECT tb.doc_id,
       CAST(SUM(c.ct * t.nr - c.cr * t.nt) AS BIGINT) AS score
FROM tb JOIN cnt c USING (b) CROSS JOIN tot t
GROUP BY tb.doc_id ORDER BY tb.doc_id"""

ORACLE_SQL["q_pdf_extract_docs"] = """
WITH d AS (
  SELECT doc_id,
         replace(COALESCE(text, ''), '. ', '.' || chr(10)) AS t
  FROM documents
)
SELECT doc_id, t AS extracted,
       CAST((len(string_split(t, chr(10))) + 4) // 5 AS BIGINT) AS n_pages,
       CAST(length(t) AS BIGINT) AS n_chars
FROM d ORDER BY doc_id"""

# The composed curation twin derives from the three standalone twins by
# CTE composition, so engine and oracle stay in lockstep by construction
ORACLE_SQL["q_web_curation_docs"] = f"""
    WITH g AS ({ORACLE_SQL["q_gopher_filter_docs"]}),
         r AS ({ORACLE_SQL["q_robots_filter_docs"]}),
         c AS ({ORACLE_SQL["q_card_luhn_docs"]})
    SELECT g.doc_id, d.lang
    FROM g JOIN r USING (doc_id) JOIN c USING (doc_id)
         JOIN documents d USING (doc_id)
    WHERE g.gopher_pass AND r.allowed AND c.n_valid = 0
    ORDER BY g.doc_id
"""

# SimHash pairs twin: the signature derives from the q_simhash_docs SQL
# by CTE surgery (aug text replaces the raw column), the verify is an
# exact nibble-popcount over band-colliding pairs — lossless for
# hamming<=3 by the 4x16 pigeonhole.
_SIM_OVER_AUG = ORACLE_SQL["q_simhash_docs"] \
    .replace("COALESCE(text,'')", "t") \
    .replace("FROM documents)", "FROM aug)") \
    .replace("(SELECT doc_id FROM documents) d0",
             "(SELECT doc_id FROM aug) d0")
ORACLE_SQL["q_simhash_neardup_pairs"] = f"""
    WITH aug AS (
      SELECT doc_id,
             CASE WHEN doc_id % 20 < 2 THEN
               repeat('anchor seq alpha beta gamma delta ', 5)
               || 'tail' || (doc_id % 20)
               || ' grp' || (doc_id // 20) || ' grp' || (doc_id // 20)
               || ' grp' || (doc_id // 20)
             ELSE COALESCE(text,'') END AS t
      FROM documents),
    sim AS ({_SIM_OVER_AUG}),
    cand AS (
      SELECT x.doc_id AS a, y.doc_id AS b,
             x.simhash_hex AS ha, y.simhash_hex AS hb
      FROM sim x JOIN sim y ON x.doc_id < y.doc_id
       AND (substr(x.simhash_hex, 1, 4) = substr(y.simhash_hex, 1, 4)
         OR substr(x.simhash_hex, 5, 4) = substr(y.simhash_hex, 5, 4)
         OR substr(x.simhash_hex, 9, 4) = substr(y.simhash_hex, 9, 4)
         OR substr(x.simhash_hex, 13, 4)
              = substr(y.simhash_hex, 13, 4))),
    nib AS (
      SELECT a, b, ha, hb, unnest(generate_series(1, 16)) AS i
      FROM cand),
    hh AS (
      SELECT a, b,
             CAST(SUM(CAST(substr('0112122312232334',
                  CAST(xor(strpos('0123456789abcdef', substr(ha, i, 1))
                             - 1,
                           strpos('0123456789abcdef', substr(hb, i, 1))
                             - 1) AS INT) + 1, 1) AS BIGINT))
                  AS BIGINT) AS hamming
      FROM nib GROUP BY a, b)
    SELECT a, b, hamming FROM hh WHERE hamming <= 3 ORDER BY a, b
"""

# Porter twin: the synthetic corpus vocabulary is closed, so the CASE maps
# each surface form through a HAND-DERIVED application of the published
# 1980 rules (NOT generated from the engine — a disagreement between this
# table and textops.porter_stem is a real finding, caught by the hash
# gate).  Identity stems fall through the ELSE.
ORACLE_SQL["q_porter_stem_docs"] = r"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(COALESCE(text,'')), '[a-z]+'))
           AS token
  FROM documents),
m AS (
  SELECT token,
         CASE token
           WHEN 'customer' THEN 'custom'
           WHEN 'key'      THEN 'kei'
           WHEN 'merge'    THEN 'merg'
           WHEN 'query'    THEN 'queri'
           WHEN 'table'    THEN 'tabl'
           WHEN 'value'    THEN 'valu'
           ELSE token END AS stem
  FROM toks)
SELECT stem,
       CAST(COUNT(DISTINCT token) AS BIGINT) AS n_forms,
       CAST(COUNT(*) AS BIGINT) AS n_tokens
FROM m GROUP BY stem ORDER BY stem
"""

# Co-purchase twin: the A-Priori item prefilter is result-invariant
# (support(a,b) <= support(a)), so the SQL states the pair rule directly.
ORACLE_SQL["q_copurchase_pairs"] = r"""
WITH b AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
pr AS (SELECT x.p AS a, y.p AS b, COUNT(*) AS support
       FROM b x JOIN b y ON x.o = y.o AND x.p < y.p
       GROUP BY x.p, y.p)
SELECT a, b, CAST(support AS BIGINT) AS support
FROM pr WHERE support >= 2 ORDER BY a, b
"""

ORACLE_SQL["q_pmi_bigrams"] = r"""
WITH d AS (SELECT regexp_extract_all(lower(COALESCE(text,'')), '[a-z]+')
             AS l FROM documents),
uni AS (SELECT unnest(l) AS w FROM d),
un AS (SELECT w, COUNT(*) AS n FROM uni GROUP BY w),
tot AS (SELECT COUNT(*) AS n_total FROM uni),
bi AS (SELECT unnest(list_zip(l, list_slice(l, 2, len(l)))) AS pr FROM d),
bi2 AS (SELECT pr[1] AS w1, pr[2] AS w2 FROM bi WHERE pr[2] IS NOT NULL),
bc AS (SELECT w1, w2, COUNT(*) AS n_xy FROM bi2 GROUP BY w1, w2),
btot AS (SELECT COUNT(*) AS b_total FROM bi2)
SELECT w1, w2, CAST(n_xy AS BIGINT) AS n_xy,
       CAST((n_xy::HUGEINT * n_total * n_total * 1000000)
            // (b_total::HUGEINT * x.n * y.n) AS BIGINT) AS pmi_ratio_micro
FROM bc JOIN un x ON bc.w1 = x.w JOIN un y ON bc.w2 = y.w
CROSS JOIN tot CROSS JOIN btot
ORDER BY w1, w2
"""

ORACLE_SQL["q_bleu_pairs"] = r"""
WITH d AS (SELECT doc_id // 2 AS pid, doc_id % 2 AS role,
                  regexp_extract_all(lower(COALESCE(text,'')), '[a-z]+')
                    AS l
           FROM documents),
p AS (SELECT pid FROM d GROUP BY pid HAVING COUNT(*) = 2),
dd AS (SELECT d.* FROM d JOIN p USING (pid)),
idx AS (SELECT unnest(generate_series(1,
          (SELECT COALESCE(MAX(len(l)), 1) FROM dd))) AS i),
ns AS (SELECT unnest(generate_series(1, 4)) AS n),
g AS (SELECT pid, role, n,
             array_to_string(list_slice(l, i, i + n - 1), ' ') AS gr
      FROM dd CROSS JOIN ns CROSS JOIN idx
      WHERE i + n - 1 <= len(l)),
cnt AS (SELECT pid, role, n, gr, COUNT(*) AS c FROM g
        GROUP BY pid, role, n, gr),
m AS (SELECT c.pid, c.n, SUM(LEAST(c.c, r.c)) AS mt
      FROM cnt c JOIN cnt r
        ON c.pid = r.pid AND c.n = r.n AND c.gr = r.gr
      WHERE c.role = 0 AND r.role = 1 GROUP BY c.pid, c.n),
t AS (SELECT pid, n, SUM(c) AS tt FROM cnt WHERE role = 0
      GROUP BY pid, n),
lens AS (SELECT pid,
                SUM(CASE WHEN role = 0 THEN len(l) ELSE 0 END) AS len_c,
                SUM(CASE WHEN role = 1 THEN len(l) ELSE 0 END) AS len_r
         FROM dd GROUP BY pid)
SELECT lens.pid AS pair_id,
       CAST(len_c AS BIGINT) AS len_c, CAST(len_r AS BIGINT) AS len_r,
       CAST(COALESCE(MAX(CASE WHEN t.n = 1 THEN tt END), 0) AS BIGINT) AS t1,
       CAST(COALESCE(MAX(CASE WHEN t.n = 2 THEN tt END), 0) AS BIGINT) AS t2,
       CAST(COALESCE(MAX(CASE WHEN t.n = 3 THEN tt END), 0) AS BIGINT) AS t3,
       CAST(COALESCE(MAX(CASE WHEN t.n = 4 THEN tt END), 0) AS BIGINT) AS t4,
       CAST(COALESCE(MAX(CASE WHEN t.n = 1 THEN COALESCE(mt, 0) END), 0)
            AS BIGINT) AS m1,
       CAST(COALESCE(MAX(CASE WHEN t.n = 2 THEN COALESCE(mt, 0) END), 0)
            AS BIGINT) AS m2,
       CAST(COALESCE(MAX(CASE WHEN t.n = 3 THEN COALESCE(mt, 0) END), 0)
            AS BIGINT) AS m3,
       CAST(COALESCE(MAX(CASE WHEN t.n = 4 THEN COALESCE(mt, 0) END), 0)
            AS BIGINT) AS m4
FROM lens LEFT JOIN t ON lens.pid = t.pid
          LEFT JOIN m ON t.pid = m.pid AND t.n = m.n
GROUP BY lens.pid, len_c, len_r
ORDER BY pair_id
"""

ORACLE_SQL["q_interval_coverage_events"] = r"""
WITH e AS (SELECT user_id, epoch_us(ts) AS s,
                  epoch_us(ts)
                    + (abs(CAST(ROUND(value*100) AS BIGINT)) % 300 + 1)
                      * 1000000 AS e
           FROM events),
w AS (SELECT user_id, s, e,
             MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                          ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING) AS pmax
      FROM e),
isl AS (SELECT user_id, s, e,
               SUM(CASE WHEN pmax IS NULL OR s > pmax THEN 1 ELSE 0 END)
                 OVER (PARTITION BY user_id ORDER BY s, e
                       ROWS UNBOUNDED PRECEDING) AS gid
        FROM w),
per AS (SELECT user_id, gid, MAX(e) - MIN(s) AS cov
        FROM isl GROUP BY user_id, gid)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_islands,
       CAST(SUM(cov) AS BIGINT) AS covered_us
FROM per GROUP BY user_id ORDER BY user_id
"""

# EWMA twin: abs() keeps every state nonnegative, where Python floor-div
# and DuckDB's truncating // agree.
ORACLE_SQL["q_ewma_events"] = r"""
WITH RECURSIVE base AS (
  SELECT user_id, abs(CAST(ROUND(value*100) AS BIGINT)) AS c,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events),
rec AS (
  SELECT user_id, rn, c AS ewma FROM base WHERE rn = 1
  UNION ALL
  SELECT b.user_id, b.rn, (r.ewma + b.c) // 2
  FROM rec r JOIN base b
    ON b.user_id = r.user_id AND b.rn = r.rn + 1)
SELECT r.user_id, CAST(m.n AS BIGINT) AS n,
       CAST(r.ewma AS BIGINT) AS ewma_final
FROM rec r JOIN (SELECT user_id, MAX(rn) AS n FROM base
                 GROUP BY user_id) m
  ON r.user_id = m.user_id AND r.rn = m.n
ORDER BY r.user_id
"""


def _rouge_l_sql(cap: int = ROUGE_CAP) -> str:
    """Unrolled LCS DP twin for q_rouge_l_pairs: one CTE per DP row,
    each row ONE running-max window over the previous row's CTE (the
    dp[i][j] = max(dp[i-1][j], max_{j'≤j, a_i=b_j'} dp[i-1][j'-1]+1)
    reformulation — valid because DP rows are non-decreasing in j)."""
    rows = []
    for i in range(1, cap + 1):
        prev = f"r{i - 1}"
        rows.append(f"""
        r{i} AS MATERIALIZED (
          SELECT tb.pid, tb.j,
            MAX(GREATEST(
              COALESCE(p1.v, 0),
              CASE WHEN ai.tok IS NOT NULL AND ai.tok = tb.tok
                   THEN COALESCE(p0.v, 0) + 1 ELSE 0 END))
              OVER (PARTITION BY tb.pid ORDER BY tb.j) AS v
          FROM tb
          LEFT JOIN {prev} p1 ON p1.pid = tb.pid AND p1.j = tb.j
          LEFT JOIN {prev} p0 ON p0.pid = tb.pid AND p0.j = tb.j - 1
          LEFT JOIN ta ai ON ai.pid = tb.pid AND ai.i = {i}
        )""")
    return f"""
        WITH d AS MATERIALIZED (SELECT doc_id // 2 AS pid, doc_id % 2 AS role,
                      list_slice(regexp_extract_all(
                        lower(COALESCE(text,'')), '[a-z]+'), 1, {cap}) AS l,
                      len(regexp_extract_all(
                        lower(COALESCE(text,'')), '[a-z]+')) AS full_len
                   FROM documents),
        p AS (SELECT pid FROM d GROUP BY pid HAVING COUNT(*) = 2),
        dd AS MATERIALIZED (SELECT d.* FROM d JOIN p USING (pid)),
        gs AS (SELECT unnest(generate_series(1, {cap})) AS i),
        ta AS MATERIALIZED (SELECT pid, gs.i AS i, l[gs.i] AS tok
               FROM dd CROSS JOIN gs WHERE role = 0 AND gs.i <= len(l)),
        tb AS MATERIALIZED (SELECT pid, gs.i AS j, l[gs.i] AS tok
               FROM dd CROSS JOIN gs WHERE role = 1 AND gs.i <= len(l)),
        r0 AS MATERIALIZED (SELECT pid, j, 0 AS v FROM tb),{','.join(rows)},
        lens AS (SELECT pid,
                   SUM(CASE WHEN role = 0 THEN full_len ELSE 0 END) AS len_c,
                   SUM(CASE WHEN role = 1 THEN full_len ELSE 0 END) AS len_r
                 FROM dd GROUP BY pid),
        mx AS (SELECT pid, MAX(v) AS v FROM r{cap} GROUP BY pid)
        SELECT lens.pid AS pair_id,
               CAST(len_c AS BIGINT) AS len_c,
               CAST(len_r AS BIGINT) AS len_r,
               CAST(COALESCE(mx.v, 0) AS BIGINT) AS lcs
        FROM lens LEFT JOIN mx USING (pid)
        ORDER BY pair_id"""


ORACLE_SQL["q_rouge_l_pairs"] = _rouge_l_sql()


def _hits_sql(iters: int = 3) -> str:
    """Unrolled power-iteration twin for q_hits_docs: per half-step a
    SUM join on the propagating endpoint, a scalar L1 total and a
    zero-filled normalize — mirroring ops.hits' pinned update rule."""
    steps = []
    prev_h = "h0"
    for k in range(1, iters + 1):
        steps.append(f"""
        ap{k} AS MATERIALIZED (SELECT e.dst AS node, SUM(h.v) AS s
                  FROM edges e JOIN {prev_h} h ON h.node = e.src
                  GROUP BY e.dst),
        a{k} AS MATERIALIZED (SELECT nd.node,
                        COALESCE(ap{k}.s, 0) / (SELECT SUM(s) FROM ap{k})
                          AS v
                 FROM nodes nd LEFT JOIN ap{k} USING (node)),
        hp{k} AS MATERIALIZED (SELECT e.src AS node, SUM(a.v) AS s
                  FROM edges e JOIN a{k} a ON a.node = e.dst
                  GROUP BY e.src),
        h{k} AS MATERIALIZED (SELECT nd.node,
                        COALESCE(hp{k}.s, 0) / (SELECT SUM(s) FROM hp{k})
                          AS v
                 FROM nodes nd LEFT JOIN hp{k} USING (node))""")
        prev_h = f"h{k}"
    return f"""
        WITH cnt AS (SELECT COUNT(*) AS n FROM documents),
        edges AS MATERIALIZED (
          SELECT doc_id AS src,
                 (doc_id * 13 + 5) % (SELECT n FROM cnt) AS dst
          FROM documents
          UNION ALL
          SELECT doc_id, (doc_id * 29 + 11) % (SELECT n FROM cnt)
          FROM documents
        ),
        nodes AS MATERIALIZED (SELECT src AS node FROM edges
                  UNION SELECT dst FROM edges),
        h0 AS MATERIALIZED (SELECT node, 1.0 AS v FROM nodes),{','.join(steps)}
        SELECT nodes.node,
               ROUND(h{iters}.v, 9) AS hub,
               ROUND(a{iters}.v, 9) AS auth
        FROM nodes JOIN h{iters} USING (node) JOIN a{iters} USING (node)
        ORDER BY nodes.node"""


ORACLE_SQL["q_hits_docs"] = _hits_sql()


ORACLE_SQL["q_image_dhash_pairs"] = """
    WITH rs AS (SELECT unnest(generate_series(0, 7)) AS r),
    cs AS (SELECT unnest(generate_series(0, 8)) AS c),
    chs AS (SELECT unnest(generate_series(0, 2)) AS ch),
    -- per-channel pixel value at the 8x9 nearest-resize sample grid,
    -- computed directly at the sampled source coordinates
    -- (src_r=(r*16)//8, src_c=(c*16)//9) with the odd-doc perturbation
    px AS MATERIALIZED (
      SELECT doc_id, r, c, ch,
             (((((doc_id // 2) * 12289 + ((r*16)//8) * 769
                    + ((c*16)//9) * 49 + ch * 7 + 1)
                 * ((doc_id // 2) * 12289 + ((r*16)//8) * 769
                    + ((c*16)//9) * 49 + ch * 7 + 1))
               // 8192) % 256
              + CASE WHEN doc_id % 2 = 1 AND (r*16)//8 = 0
                          AND (c*16)//9 <= 1 THEN 96 ELSE 0 END) % 256
               AS v
      FROM documents CROSS JOIN rs CROSS JOIN cs CROSS JOIN chs),
    g AS MATERIALIZED (
      SELECT doc_id, r, c,
             SUM(CASE ch WHEN 0 THEN 299 * v WHEN 1 THEN 587 * v
                 ELSE 114 * v END) // 1000 AS gray
      FROM px GROUP BY doc_id, r, c),
    bits AS (
      SELECT g1.doc_id, g1.r * 8 + g1.c AS p,
             CASE WHEN g1.gray > g2.gray THEN 1 ELSE 0 END AS bit
      FROM g g1 JOIN g g2 ON g2.doc_id = g1.doc_id AND g2.r = g1.r
                         AND g2.c = g1.c + 1
      WHERE g1.c <= 7),
    nibs AS (SELECT doc_id, p // 4 AS j, SUM(bit << (p % 4)) AS nib
             FROM bits GROUP BY doc_id, p // 4),
    hexes AS MATERIALIZED (
      SELECT doc_id,
             string_agg(substr('0123456789abcdef',
                               CAST(nib AS INTEGER) + 1, 1),
                        '' ORDER BY j DESC) AS hex
      FROM nibs GROUP BY doc_id),
    cand AS (
      SELECT x.doc_id AS a, y.doc_id AS b, x.hex AS ha, y.hex AS hb
      FROM hexes x JOIN hexes y ON x.doc_id < y.doc_id
       AND (substr(x.hex, 1, 4) = substr(y.hex, 1, 4)
         OR substr(x.hex, 5, 4) = substr(y.hex, 5, 4)
         OR substr(x.hex, 9, 4) = substr(y.hex, 9, 4)
         OR substr(x.hex, 13, 4) = substr(y.hex, 13, 4))),
    nib AS (
      SELECT a, b, ha, hb, unnest(generate_series(1, 16)) AS i
      FROM cand),
    hh AS (
      SELECT a, b,
             CAST(SUM(CAST(substr('0112122312232334',
                  CAST(xor(strpos('0123456789abcdef', substr(ha, i, 1))
                             - 1,
                           strpos('0123456789abcdef', substr(hb, i, 1))
                             - 1) AS INT) + 1, 1) AS BIGINT))
                  AS BIGINT) AS hamming
      FROM nib GROUP BY a, b)
    SELECT a, b, hamming FROM hh WHERE hamming <= 3 ORDER BY a, b
"""


def _wordpiece_sql() -> str:
    """Twin for q_wordpiece_stats_docs: vocab VALUES generated from
    textops.WORDPIECE_VOCAB so engine and twin can never drift."""
    rows = ",\n             ".join(
        f"('{p}', {'true' if c else 'false'})"
        for p, c in textops.WORDPIECE_VOCAB)
    cap = textops.WORDPIECE_WORD_CAP
    return f"""
    WITH RECURSIVE
    vocab(txt, is_cont) AS (VALUES
             {rows}),
    words AS MATERIALIZED (
      SELECT doc_id, substr(w, 1, {cap}) AS word
      FROM (SELECT doc_id,
                   unnest(regexp_extract_all(lower(COALESCE(text, '')),
                                             '[a-z]+')) AS w
            FROM documents)),
    uw AS MATERIALIZED (SELECT DISTINCT word FROM words),
    pos AS (SELECT unnest(generate_series(1, {cap})) AS pos),
    best AS MATERIALIZED (
      SELECT u.word, p.pos, MAX(len(v.txt)) AS step
      FROM uw u CROSS JOIN pos p
      JOIN vocab v ON v.is_cont = (p.pos > 1)
                  AND substr(u.word, p.pos, len(v.txt)) = v.txt
      WHERE p.pos <= len(u.word)
      GROUP BY u.word, p.pos),
    walk(word, pos, n_pieces, n_cont) AS (
      SELECT word, 1 + step, 1, 0 FROM best WHERE pos = 1
      UNION ALL
      SELECT w.word, w.pos + b.step, w.n_pieces + 1, w.n_cont + 1
      FROM walk w JOIN best b ON b.word = w.word AND b.pos = w.pos
      WHERE w.pos <= len(w.word)),
    fin AS (SELECT word, n_pieces, n_cont FROM walk
            WHERE pos = len(word) + 1),
    per_doc AS (
      SELECT w.doc_id, COUNT(*) AS n_words, SUM(f.n_pieces) AS n_pieces,
             SUM(f.n_cont) AS n_cont
      FROM words w JOIN fin f USING (word) GROUP BY w.doc_id)
    SELECT d.doc_id,
           CAST(COALESCE(p.n_words, 0) AS BIGINT) AS n_words,
           CAST(COALESCE(p.n_pieces, 0) AS BIGINT) AS n_pieces,
           CAST(COALESCE(p.n_cont, 0) AS BIGINT) AS n_cont
    FROM documents d LEFT JOIN per_doc p USING (doc_id)
    ORDER BY d.doc_id"""


ORACLE_SQL["q_wordpiece_stats_docs"] = _wordpiece_sql()

ORACLE_SQL["q_ams_f2_events"] = """
WITH uc AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events
  GROUP BY user_id
), js AS (SELECT unnest(generate_series(0, 16)) AS j),
c AS (
  SELECT js.j,
         CAST(SUM(n * (1 - 2 * ((strpos('0123456789abcdef',
               substr(md5(CAST(user_id AS VARCHAR) || ':'
                          || CAST(js.j AS VARCHAR)), 1, 1)) - 1) % 2)))
              AS BIGINT) AS c
  FROM uc CROSS JOIN js GROUP BY js.j
), r AS (
  SELECT c * c AS s, abs(c) AS a,
         ROW_NUMBER() OVER (ORDER BY c * c) AS rn
  FROM c)
SELECT CAST(s AS BIGINT) AS est_f2,
       CAST(a AS BIGINT) AS median_counter_abs,
       CAST(17 AS BIGINT) AS n_counters
FROM r WHERE rn = 9"""

ORACLE_SQL["q_kmv_set_ops_events"] = """
WITH ka AS (
  SELECT h FROM (
    SELECT h, ROW_NUMBER() OVER (ORDER BY h) AS rn FROM (
      SELECT DISTINCT CAST(('0x' || substr(md5(props || '|' || event_type),
                                           1, 12)) AS BIGINT) AS h
      FROM events WHERE event_type <> 'error'))
  WHERE rn <= 64
), kb AS (
  SELECT h FROM (
    SELECT h, ROW_NUMBER() OVER (ORDER BY h) AS rn FROM (
      SELECT DISTINCT CAST(('0x' || substr(md5(props || '|' || event_type),
                                           1, 12)) AS BIGINT) AS h
      FROM events WHERE event_type <> 'click'))
  WHERE rn <= 64
), cut AS (
  SELECT h, rn, n FROM (
    SELECT h, ROW_NUMBER() OVER (ORDER BY h) AS rn, COUNT(*) OVER () AS n
    FROM (SELECT DISTINCT h FROM (SELECT h FROM ka
                                  UNION ALL SELECT h FROM kb)))
  WHERE rn <= LEAST(n, 64)
), stats AS (
  SELECT MAX(n) AS n,
         MAX(CASE WHEN rn = LEAST(n, 64) THEN h END) AS kth,
         CAST(SUM(CASE WHEN h IN (SELECT h FROM ka)
                        AND h IN (SELECT h FROM kb)
                  THEN 1 ELSE 0 END) AS BIGINT) AS rho
  FROM cut)
SELECT CAST(CASE WHEN n >= 64 THEN 63 * 281474976710656 // kth
            ELSE n END AS BIGINT) AS est_union,
       CAST(CASE WHEN n >= 64
            THEN rho * (63 * 281474976710656 // kth) // 64
            ELSE rho END AS BIGINT) AS est_intersect,
       rho,
       CAST(LEAST(n, 64) AS BIGINT) AS k_used
FROM stats"""

_GRAPH_EDGES_SQL = """
nn AS MATERIALIZED (SELECT COUNT(*) AS n FROM documents),
e0 AS MATERIALIZED (
  SELECT DISTINCT LEAST(u, v) AS u, GREATEST(u, v) AS v FROM (
    SELECT doc_id AS u,
           (doc_id * 13 + 5) % (SELECT n FROM nn) AS v FROM documents
    UNION ALL
    SELECT doc_id, (doc_id * 29 + 11) % (SELECT n FROM nn)
    FROM documents)
  WHERE u <> v)"""


def _kcore_sql(k: int = 4, rounds: int = 4) -> str:
    parts, prev = [], "e0"
    for i in range(1, rounds + 1):
        parts.append(f"""
d{i} AS MATERIALIZED (
  SELECT node, COUNT(*) AS d FROM (
    SELECT u AS node FROM {prev} UNION ALL SELECT v FROM {prev})
  GROUP BY node),
k{i} AS MATERIALIZED (SELECT node FROM d{i} WHERE d >= {k}),
e{i} AS MATERIALIZED (
  SELECT e.u, e.v FROM {prev} e
  JOIN k{i} a ON e.u = a.node JOIN k{i} b ON e.v = b.node)""")
        prev = f"e{i}"
    return ("WITH " + _GRAPH_EDGES_SQL + "," + ",".join(parts) + f"""
SELECT node, CAST(COUNT(*) AS BIGINT) AS d FROM (
  SELECT u AS node FROM {prev} UNION ALL SELECT v FROM {prev})
GROUP BY node ORDER BY node""")


ORACLE_SQL["q_kcore_docs"] = _kcore_sql()

ORACLE_SQL["q_ra_link_pred_docs"] = "WITH " + _GRAPH_EDGES_SQL + """,
adj AS MATERIALIZED (
  SELECT u AS z, v AS nb FROM e0 UNION ALL SELECT v, u FROM e0),
dz AS MATERIALIZED (
  SELECT z, COUNT(*) AS d FROM adj GROUP BY z
  HAVING COUNT(*) BETWEEN 2 AND 1000),
pairs AS (
  SELECT a.nb AS p, b.nb AS q, dz.d AS d
  FROM adj a JOIN adj b ON a.z = b.z AND a.nb < b.nb
  JOIN dz ON dz.z = a.z),
sc AS (
  SELECT p, q, CAST(COUNT(*) AS BIGINT) AS cn,
         CAST(SUM(1000000 // d) AS BIGINT) AS ra_micro
  FROM pairs GROUP BY p, q)
SELECT p, q, cn, ra_micro
FROM sc LEFT JOIN e0 ON e0.u = sc.p AND e0.v = sc.q
WHERE e0.u IS NULL
ORDER BY p, q"""

ORACLE_SQL["q_sqlite_roundtrip_events"] = """
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type ORDER BY event_type"""

ORACLE_SQL["q_naive_bayes_docs"] = """
WITH aug AS MATERIALIZED (
  SELECT doc_id, doc_id % 3 AS cls, (doc_id % 5 = 0) AS is_test,
         COALESCE(text, '')
         || ' zqm' || CAST(doc_id % 3 AS VARCHAR)
         || ' zqm' || CAST(doc_id % 3 AS VARCHAR)
         || CASE WHEN doc_id % 7 <> 0
                 THEN ' zqm' || CAST((doc_id + 1) % 3 AS VARCHAR)
                 ELSE '' END AS t
  FROM documents),
feat AS MATERIALIZED (
  SELECT doc_id, cls, is_test,
         CAST(contains(t, 'zqm0') AS BIGINT) AS f0,
         CAST(contains(t, 'zqm1') AS BIGINT) AS f1,
         CAST(contains(t, 'zqm2') AS BIGINT) AS f2
  FROM aug),
model AS MATERIALIZED (
  SELECT cls, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(f0) AS BIGINT) AS c0,
         CAST(SUM(f1) AS BIGINT) AS c1,
         CAST(SUM(f2) AS BIGINT) AS c2
  FROM feat WHERE NOT is_test GROUP BY cls),
scored AS MATERIALIZED (
  SELECT f.doc_id, f.cls AS true_cls, m.cls AS cand,
         CAST(m.n AS HUGEINT)
           * (CASE WHEN f.f0 = 1 THEN m.c0 + 1 ELSE 1 END)
           * (CASE WHEN f.f1 = 1 THEN m.c1 + 1 ELSE 1 END)
           * (CASE WHEN f.f2 = 1 THEN m.c2 + 1 ELSE 1 END) AS num,
         CAST(CASE WHEN f.f0 + f.f1 + f.f2 >= 1
                   THEN m.c0 + m.c1 + m.c2 + 3 ELSE 1 END AS HUGEINT)
           * (CASE WHEN f.f0 + f.f1 + f.f2 >= 2
                   THEN m.c0 + m.c1 + m.c2 + 3 ELSE 1 END)
           * (CASE WHEN f.f0 + f.f1 + f.f2 >= 3
                   THEN m.c0 + m.c1 + m.c2 + 3 ELSE 1 END) AS den
  FROM feat f CROSS JOIN model m WHERE f.is_test)
SELECT s1.doc_id, CAST(s1.true_cls AS BIGINT) AS true_cls,
       CAST(s1.cand AS BIGINT) AS pred_cls
FROM scored s1
WHERE NOT EXISTS (
  SELECT 1 FROM scored s2
  WHERE s2.doc_id = s1.doc_id AND s2.cand <> s1.cand
    AND (s2.num * s1.den > s1.num * s2.den
         OR (s2.num * s1.den = s1.num * s2.den
             AND s2.cand < s1.cand)))
ORDER BY s1.doc_id"""

ORACLE_SQL["q_phrase_search_docs"] = """
WITH toks AS (
  SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS t
  FROM documents),
pos AS (
  SELECT doc_id, unnest(t) AS w,
         generate_subscripts(t, 1) - 1 AS p
  FROM toks),
widx AS (SELECT * FROM (VALUES ('sort', 0), ('merge', 1)) AS w(w, i)),
votes AS (
  SELECT doc_id, p - i AS adj
  FROM pos JOIN widx USING (w)
  WHERE p - i >= 0),
starts AS (
  SELECT doc_id, adj FROM votes GROUP BY doc_id, adj
  HAVING COUNT(*) = 2)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_matches,
       CAST(MIN(adj) AS BIGINT) AS first_pos
FROM starts GROUP BY doc_id ORDER BY doc_id"""

ORACLE_SQL["q_gini_user_diversity"] = """
WITH g AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY user_id, event_type)
SELECT user_id,
       CAST(SUM(n) AS BIGINT) AS n_events,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(1000000 - SUM(n * n) * 1000000
            // (SUM(n) * SUM(n)) AS BIGINT) AS gini_micro
FROM g GROUP BY user_id ORDER BY user_id"""

ORACLE_SQL["q_ab_test_events"] = """
WITH arms AS (
  SELECT user_id % 2 AS arm,
         CAST(COUNT(*) AS HUGEINT) AS n,
         CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
              AS HUGEINT) AS c
  FROM events GROUP BY user_id % 2),
w AS (
  SELECT MAX(CASE WHEN arm = 0 THEN n END) AS n1,
         MAX(CASE WHEN arm = 0 THEN c END) AS c1,
         MAX(CASE WHEN arm = 1 THEN n END) AS n2,
         MAX(CASE WHEN arm = 1 THEN c END) AS c2
  FROM arms),
z AS (
  SELECT n1, c1, n2, c2,
         (c1 * n2 - c2 * n1) * (c1 * n2 - c2 * n1) * (n1 + n2) AS num,
         (c1 + c2) * (n1 + n2 - c1 - c2) * (n1 + n2) * (n1 + n2) AS den
  FROM w)
SELECT CAST(n1 AS BIGINT) AS n_a, CAST(c1 AS BIGINT) AS conv_a,
       CAST(n2 AS BIGINT) AS n_b, CAST(c2 AS BIGINT) AS conv_b,
       CAST(CASE WHEN den = 0 THEN 0
                 ELSE num * 1000000 // den END AS BIGINT) AS z2_micro,
       (CASE WHEN den = 0 THEN 0
             ELSE num * 1000000 // den END) >= 3841600 AS significant_05
FROM z"""

ORACLE_SQL["q_interval_join_events"] = """
WITH l AS (
  SELECT event_id, epoch_us(ts) AS s,
         epoch_us(ts) + (1 + event_id % 7) * 60000000 AS e
  FROM events WHERE event_id % 2 = 0),
r AS (
  SELECT event_id, epoch_us(ts) AS s,
         epoch_us(ts) + (1 + event_id % 5) * 60000000 AS e
  FROM events WHERE event_id % 2 = 1),
p AS (
  SELECT l.event_id,
         least(l.e, r.e) - greatest(l.s, r.s) AS ov
  FROM l JOIN r ON l.s <= r.e AND r.s <= l.e)
SELECT event_id, CAST(COUNT(*) AS BIGINT) AS n_overlaps,
       CAST(SUM(ov) AS BIGINT) AS sum_overlap_us
FROM p GROUP BY event_id ORDER BY event_id"""

ORACLE_SQL["q_power_iteration_embeddings"] = """
WITH e AS (
  SELECT vec_id, unnest(embedding) AS v,
         unnest(range(len(embedding))) AS i
  FROM embeddings
), q AS (
  SELECT vec_id, i, CAST(ROUND(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM e WHERE i < 8
), g AS MATERIALIZED (
  SELECT a.i AS i, b.i AS j, CAST(SUM(a.q * b.q) AS BIGINT) AS v
  FROM q a JOIN q b ON a.vec_id = b.vec_id
  GROUP BY a.i, b.i
), v0 AS MATERIALIZED (
  SELECT unnest(range(8)) AS j, CAST(1000 AS BIGINT) AS v),
w1 AS MATERIALIZED (
  SELECT g.i, SUM(g.v * v0.v) AS w
  FROM g JOIN v0 ON g.j = v0.j GROUP BY g.i),
m1 AS MATERIALIZED (SELECT MAX(ABS(w)) AS m FROM w1),
v1 AS MATERIALIZED (
  SELECT i AS j, CAST(w * 1000 // (SELECT m FROM m1) AS BIGINT) AS v
  FROM w1),
w2 AS MATERIALIZED (
  SELECT g.i, SUM(g.v * v1.v) AS w
  FROM g JOIN v1 ON g.j = v1.j GROUP BY g.i),
m2 AS MATERIALIZED (SELECT MAX(ABS(w)) AS m FROM w2),
v2 AS MATERIALIZED (
  SELECT i AS j, CAST(w * 1000 // (SELECT m FROM m2) AS BIGINT) AS v
  FROM w2),
w3 AS MATERIALIZED (
  SELECT g.i, SUM(g.v * v2.v) AS w
  FROM g JOIN v2 ON g.j = v2.j GROUP BY g.i),
m3 AS MATERIALIZED (SELECT MAX(ABS(w)) AS m FROM w3),
v3 AS MATERIALIZED (
  SELECT i AS j, CAST(w * 1000 // (SELECT m FROM m3) AS BIGINT) AS v
  FROM w3)
SELECT j AS dim, CAST(v AS BIGINT) AS eig_milli FROM v3 ORDER BY dim"""

ORACLE_SQL["q_soundex_docs"] = """
WITH toks AS (
  SELECT unnest(string_split(COALESCE(text, ''), ' ')) AS w
  FROM documents),
norm AS (
  SELECT w, regexp_replace(lower(w), '[^a-z]', '', 'g') AS lw
  FROM toks WHERE length(w) > 0),
coded AS (
  SELECT w, lw,
         translate(lw, 'abcdefghijklmnopqrstuvwxyz',
                   '01230120022455012623010202') AS c
  FROM norm WHERE length(lw) > 0),
coll AS (SELECT w, lw, replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(c, '00', '0'), '11', '1'), '22', '2'), '33', '3'), '44', '4'), '55', '5'), '66', '6'), '00', '0'), '11', '1'), '22', '2'), '33', '3'), '44', '4'), '55', '5'), '66', '6'), '00', '0'), '11', '1'), '22', '2'), '33', '3'), '44', '4'), '55', '5'), '66', '6'), '00', '0'), '11', '1'), '22', '2'), '33', '3'), '44', '4'), '55', '5'), '66', '6'), '00', '0'), '11', '1'), '22', '2'), '33', '3'), '44', '4'), '55', '5'), '66', '6') AS cc FROM coded),
code AS (
  SELECT w, rpad(substr(upper(substr(lw, 1, 1))
                        || replace(substr(cc, 2), '0', ''),
                        1, 4), 4, '0') AS code
  FROM coll)
SELECT code, CAST(COUNT(DISTINCT w) AS BIGINT) AS n_words,
       CAST(COUNT(*) AS BIGINT) AS n_occurrences
FROM code GROUP BY code ORDER BY code"""

ORACLE_SQL["q_chi2_events"] = """
WITH cells AS (
  SELECT event_type, user_id % 2 AS parity,
         CAST(COUNT(*) AS HUGEINT) AS o
  FROM events GROUP BY event_type, user_id % 2),
tot AS (SELECT SUM(o) AS n FROM cells),
rows_ AS (SELECT event_type, SUM(o) AS r FROM cells GROUP BY event_type),
cols_ AS (SELECT parity, SUM(o) AS c FROM cells GROUP BY parity),
terms AS (
  SELECT cells.event_type, cells.parity, cells.o,
         (cells.o * tot.n - rows_.r * cols_.c)
           * (cells.o * tot.n - rows_.r * cols_.c) * 1000000
           // (tot.n * rows_.r * cols_.c) AS t
  FROM cells JOIN rows_ USING (event_type)
  JOIN cols_ USING (parity) CROSS JOIN tot)
SELECT event_type, CAST(parity AS BIGINT) AS parity,
       CAST(o AS BIGINT) AS observed,
       CAST(t AS BIGINT) AS chi2_term_micro,
       CAST(SUM(t) OVER () AS BIGINT) AS chi2_total_micro
FROM terms ORDER BY event_type, parity"""

ORACLE_SQL["q_random_walks_docs"] = "WITH " + _GRAPH_EDGES_SQL + """,
adj AS MATERIALIZED (
  SELECT z, nb,
         ROW_NUMBER() OVER (PARTITION BY z ORDER BY nb) - 1 AS rnk,
         COUNT(*) OVER (PARTITION BY z) AS deg
  FROM (SELECT u AS z, v AS nb FROM e0
        UNION ALL SELECT v, u FROM e0)),
s0 AS MATERIALIZED (SELECT DISTINCT z AS start, z AS cur FROM adj),
s1 AS MATERIALIZED (
  SELECT s.start, a.nb AS cur
  FROM s0 s JOIN adj a ON a.z = s.cur
   AND a.rnk = CAST(('0x' || substr(md5(CAST(s.cur AS VARCHAR)
                                        || ':1'), 1, 8)) AS BIGINT)
               % a.deg),
s2 AS MATERIALIZED (
  SELECT s.start, a.nb AS cur
  FROM s1 s JOIN adj a ON a.z = s.cur
   AND a.rnk = CAST(('0x' || substr(md5(CAST(s.cur AS VARCHAR)
                                        || ':2'), 1, 8)) AS BIGINT)
               % a.deg),
s3 AS MATERIALIZED (
  SELECT s.start, a.nb AS cur
  FROM s2 s JOIN adj a ON a.z = s.cur
   AND a.rnk = CAST(('0x' || substr(md5(CAST(s.cur AS VARCHAR)
                                        || ':3'), 1, 8)) AS BIGINT)
               % a.deg)
SELECT start, CAST(0 AS BIGINT) AS step, cur AS node FROM s0
UNION ALL SELECT start, 1, cur FROM s1
UNION ALL SELECT start, 2, cur FROM s2
UNION ALL SELECT start, 3, cur FROM s3
ORDER BY start, step"""

ORACLE_SQL["q_ann_recall_eval"] = (
    "WITH ex AS MATERIALIZED (SELECT * FROM ("
    + ORACLE_SQL["q_ann_topk"]
    + ")), ap AS MATERIALIZED (SELECT * FROM ("
    + ORACLE_SQL["q_ann_lsh_topk"] + """))
SELECT ex.query_id,
       CAST(COUNT(ap.neighbor_id) AS BIGINT) AS n_hit,
       CAST(COUNT(ap.neighbor_id) * 1000000 // 5 AS BIGINT)
           AS recall_micro
FROM ex LEFT JOIN ap ON ap.query_id = ex.query_id
                    AND ap.neighbor_id = ex.neighbor_id
GROUP BY ex.query_id ORDER BY ex.query_id""")

ORACLE_SQL["q_geo_join_events"] = """
WITH pts AS (
  SELECT event_id,
         CAST(('0x' || substr(md5('x' || CAST(event_id AS VARCHAR)),
                              1, 8)) AS BIGINT) % 100000 AS x,
         CAST(('0x' || substr(md5('y' || CAST(event_id AS VARCHAR)),
                              1, 8)) AS BIGINT) % 100000 AS y
  FROM events),
l AS (SELECT * FROM pts WHERE event_id % 2 = 0),
r AS (SELECT * FROM pts WHERE event_id % 2 = 1),
cand AS (
  SELECT l.event_id, r.event_id AS rid,
         (l.x - r.x) * (l.x - r.x) + (l.y - r.y) * (l.y - r.y) AS d2
  FROM l JOIN r
    ON r.x BETWEEN l.x - 2000 AND l.x + 2000
   AND r.y BETWEEN l.y - 2000 AND l.y + 2000
  WHERE (l.x - r.x) * (l.x - r.x) + (l.y - r.y) * (l.y - r.y)
        <= 4000000),
ranked AS (
  SELECT event_id, rid, d2,
         ROW_NUMBER() OVER (PARTITION BY event_id
                            ORDER BY d2, rid) AS rn,
         COUNT(*) OVER (PARTITION BY event_id) AS n
  FROM cand)
SELECT event_id, CAST(n AS BIGINT) AS n_within,
       CAST(rid AS BIGINT) AS nearest_id,
       CAST(d2 AS BIGINT) AS nearest_d2
FROM ranked WHERE rn = 1 ORDER BY event_id"""

ORACLE_SQL["q_benford_values"] = """
WITH cents AS (
  SELECT CAST(ROUND(value * 100) AS BIGINT) AS c FROM events
  WHERE CAST(ROUND(value * 100) AS BIGINT) > 0),
obs AS (
  SELECT CAST(substr(CAST(c AS VARCHAR), 1, 1) AS BIGINT) AS digit,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM cents GROUP BY 1),
exp_ AS (
  SELECT * FROM (VALUES (1, 301030), (2, 176091), (3, 124939),
                        (4, 96910), (5, 79181), (6, 66947),
                        (7, 57992), (8, 51153), (9, 45757))
       AS t(digit, micro)),
tot AS (SELECT SUM(n) AS nn FROM obs)
SELECT CAST(e.digit AS BIGINT) AS digit,
       CAST(COALESCE(o.n, 0) AS BIGINT) AS observed,
       CAST(e.micro AS BIGINT) AS expected_micro,
       CAST(abs(COALESCE(o.n, 0) * 1000000 - e.micro * tot.nn)
            // tot.nn AS BIGINT) AS dev_micro
FROM exp_ e LEFT JOIN obs o ON o.digit = e.digit CROSS JOIN tot
ORDER BY e.digit"""

ORACLE_SQL["q_decayed_heavy_hitters"] = """
WITH c AS (
  SELECT epoch_us(ts) // 86400000000 AS day, props,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
m AS (SELECT MAX(day) AS md FROM c),
sc AS (
  SELECT props,
         CAST(SUM(n // CAST(power(2, LEAST(m.md - c.day, 62)) AS BIGINT))
              AS BIGINT) AS decayed_score
  FROM c CROSS JOIN m GROUP BY props)
SELECT props, decayed_score FROM sc
ORDER BY decayed_score DESC, props LIMIT 20"""

ORACLE_SQL["q_debounce_events"] = """
WITH e AS (
  SELECT event_id, user_id, event_type, epoch_us(ts) AS ts_us
  FROM events),
g AS (
  SELECT *,
         CASE WHEN epoch_us_lag IS NULL
                OR ts_us - epoch_us_lag > 60000000 THEN 1 ELSE 0 END
             AS is_new
  FROM (SELECT *, LAG(ts_us) OVER (PARTITION BY user_id, event_type
                                   ORDER BY ts_us, event_id)
                      AS epoch_us_lag FROM e)),
b AS (
  SELECT *, SUM(is_new) OVER (PARTITION BY user_id, event_type
                              ORDER BY ts_us, event_id) AS burst
  FROM g),
sized AS (
  SELECT *, COUNT(*) OVER (PARTITION BY user_id, event_type, burst)
                AS blen,
         ROW_NUMBER() OVER (PARTITION BY user_id, event_type, burst
                            ORDER BY ts_us, event_id) AS rn
  FROM b)
SELECT event_id, user_id, event_type,
       CAST(blen AS BIGINT) AS burst_len
FROM sized WHERE rn = 1 ORDER BY event_id"""

ORACLE_SQL["q_cusum_events"] = """
WITH hc AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hour_id,
         COUNT(*) AS c
  FROM events GROUP BY 1, 2),
t AS (
  SELECT event_type, SUM(c) AS tot, COUNT(*) AS n
  FROM hc GROUP BY 1),
s AS (
  SELECT hc.event_type, hour_id, n * c - tot AS d, tot
  FROM hc JOIN t USING (event_type)),
c1 AS (
  SELECT event_type, hour_id, tot,
         SUM(d) OVER (PARTITION BY event_type ORDER BY hour_id) AS s_t
  FROM s),
c2 AS (
  SELECT *, LEAST(MIN(s_t) OVER (PARTITION BY event_type
                                 ORDER BY hour_id), 0) AS mn
  FROM c1),
al AS (
  SELECT event_type, COUNT(*) AS n_alarms, MIN(hour_id) AS first_hour
  FROM c2 WHERE s_t - mn > 2 * tot GROUP BY event_type)
SELECT t.event_type,
       CAST(n AS BIGINT) AS n_hours,
       CAST(tot AS BIGINT) AS total_events,
       CAST(COALESCE(al.n_alarms, 0) AS BIGINT) AS n_alarms,
       CAST(COALESCE(al.first_hour, -1) AS BIGINT) AS first_alarm_hour
FROM t LEFT JOIN al USING (event_type)
ORDER BY event_type"""

ORACLE_SQL["q_fd_mine_events"] = """
WITH base AS (
  SELECT epoch_us(ts) // 3600000000 AS hour_id,
         epoch_us(ts) // 86400000000 AS day_id,
         year(ts) * 12 + month(ts) AS month_id,
         event_type, user_id
  FROM events),
u AS (
  SELECT 'hour_id->day_id' AS fd, hour_id AS x,
         COUNT(DISTINCT day_id) AS ny FROM base GROUP BY 1, 2
  UNION ALL
  SELECT 'day_id->month_id', day_id,
         COUNT(DISTINCT month_id) FROM base GROUP BY 1, 2
  UNION ALL
  SELECT 'day_id->hour_id', day_id,
         COUNT(DISTINCT hour_id) FROM base GROUP BY 1, 2
  UNION ALL
  SELECT 'event_type->day_id', hash(event_type),
         COUNT(DISTINCT day_id) FROM base GROUP BY 1, 2
  UNION ALL
  SELECT 'user_id->event_type', user_id,
         COUNT(DISTINCT event_type) FROM base GROUP BY 1, 2
  UNION ALL
  SELECT 'hour_id->event_type', hour_id,
         COUNT(DISTINCT event_type) FROM base GROUP BY 1, 2)
SELECT fd,
       CAST(COUNT(*) AS BIGINT) AS n_groups,
       CAST(SUM(CASE WHEN ny > 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_violations,
       CAST(CASE WHEN SUM(CASE WHEN ny > 1 THEN 1 ELSE 0 END) = 0
                 THEN 1 ELSE 0 END AS BIGINT) AS holds
FROM u GROUP BY fd ORDER BY fd"""

ORACLE_SQL["q_autocorr_events"] = """
WITH hc AS (
  SELECT epoch_us(ts) // 3600000000 AS hour_id, COUNT(*) AS c
  FROM events GROUP BY 1),
b AS (SELECT MIN(hour_id) AS mn, MAX(hour_id) AS mx FROM hc),
dense AS (
  SELECT gs.h AS hour_id, COALESCE(hc.c, 0) AS c
  FROM (SELECT unnest(generate_series(mn, mx)) AS h FROM b) gs
  LEFT JOIN hc ON hc.hour_id = gs.h),
st AS (SELECT COUNT(*) AS n, SUM(c) AS tot FROM dense),
dv AS (SELECT hour_id, n * c - tot AS d FROM dense CROSS JOIN st),
lags AS (SELECT unnest([1, 2, 24]) AS lag_h),
prod AS (
  SELECT l.lag_h, SUM(a.d * b2.d) AS num
  FROM lags l
  JOIN dv a ON TRUE
  JOIN dv b2 ON b2.hour_id = a.hour_id + l.lag_h
  GROUP BY l.lag_h)
SELECT CAST(l.lag_h AS BIGINT) AS lag_h,
       CAST(COALESCE(p.num, 0) AS BIGINT) AS num,
       CAST((SELECT SUM(d * d) FROM dv) AS BIGINT) AS den
FROM lags l LEFT JOIN prod p USING (lag_h)
ORDER BY lag_h"""

ORACLE_SQL["q_delta_roundtrip_events"] = """
WITH logical AS (
  SELECT event_id, event_type, value FROM events
  WHERE event_type <> 'error'
  UNION ALL
  SELECT event_id, event_type, value FROM events
  WHERE event_type = 'error' AND event_id % 5 = 0)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents,
       CAST(MIN(event_id) AS BIGINT) AS min_event_id,
       CAST(MAX(event_id) AS BIGINT) AS max_event_id
FROM logical GROUP BY event_type ORDER BY event_type"""

ORACLE_SQL["q_iceberg_roundtrip_docs"] = """
SELECT lang,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       CAST(MIN(doc_id) AS BIGINT) AS min_doc_id,
       CAST(MAX(doc_id) AS BIGINT) AS max_doc_id
FROM documents WHERE doc_id % 3 IN (0, 1)
GROUP BY lang ORDER BY lang"""

ORACLE_SQL["q_ranktests_events"] = """
WITH s AS (
  SELECT CAST(ROUND(value * 100) AS BIGINT) AS cents,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS is1
  FROM events WHERE event_type IN ('click', 'error')),
a AS (
  SELECT cents, SUM(is1) AS n1, COUNT(*) - SUM(is1) AS n2
  FROM s GROUP BY cents),
w AS (
  SELECT cents, n1, n2,
         COALESCE(SUM(n1 + n2) OVER (ORDER BY cents
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
             AS cb,
         SUM(n1) OVER (ORDER BY cents) AS c1,
         SUM(n2) OVER (ORDER BY cents) AS c2
  FROM a),
t AS (SELECT SUM(n1) AS bn1, SUM(n2) AS bn2 FROM a),
r1 AS (SELECT SUM((2 * cb + n1 + n2 + 1) * n1) AS rsum FROM w)
SELECT CAST(bn1 AS BIGINT) AS n1,
       CAST(bn2 AS BIGINT) AS n2,
       CAST(rsum - bn1 * (bn1 + 1) AS BIGINT) AS u1_dbl,
       CAST(2 * bn1 * bn2 - (rsum - bn1 * (bn1 + 1)) AS BIGINT)
           AS u2_dbl,
       CAST((SELECT MAX(ABS(c1 * bn2 - c2 * bn1)) FROM w) AS BIGINT)
           AS ks_scaled
FROM t CROSS JOIN r1"""

ORACLE_SQL["q_theil_sen_events"] = """
WITH hc AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS h, COUNT(*) AS c
  FROM events GROUP BY 1, 2),
p AS (
  SELECT a.event_type,
         ((b.c - a.c) * 1000000) // (b.h - a.h) AS key
  FROM hc a JOIN hc b
    ON a.event_type = b.event_type AND b.h > a.h),
r AS (
  SELECT event_type, key,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY key) AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS m
  FROM p)
SELECT event_type, CAST(m AS BIGINT) AS n_pairs,
       CAST(key AS BIGINT) AS median_slope_key
FROM r WHERE rn = (m - 1) // 2 + 1 ORDER BY event_type"""

ORACLE_SQL["q_rank_fusion_docs"] = """
WITH r AS (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS r1,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY md5(text), doc_id) AS r2
  FROM documents),
f AS (
  SELECT lang, doc_id, r1 + r2 AS borda,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY r1 + r2, doc_id) AS rn
  FROM r)
SELECT lang, doc_id, CAST(borda AS BIGINT) AS borda
FROM f WHERE rn <= 3
ORDER BY lang, borda, doc_id"""

ORACLE_SQL["q_lpa_communities_docs"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
e0 AS (
  SELECT doc_id AS s, (doc_id * 31 + 7) % n AS d
  FROM documents CROSS JOIN nn
  UNION ALL
  SELECT doc_id, (doc_id * 17 + 3) % n FROM documents CROSS JOIN nn),
und AS (
  SELECT DISTINCT u, v FROM (
    SELECT s AS u, d AS v FROM e0
    UNION ALL
    SELECT d AS u, s AS v FROM e0)),
l0 AS (SELECT DISTINCT u AS node, u AS label FROM und),
c1 AS (SELECT und.u, l.label, COUNT(*) AS c
       FROM und JOIN l0 l ON l.node = und.v GROUP BY 1, 2),
l1 AS (SELECT u AS node, label FROM (
         SELECT u, label, ROW_NUMBER() OVER (
             PARTITION BY u ORDER BY c DESC, label) AS rn FROM c1)
       WHERE rn = 1),
c2 AS (SELECT und.u, l.label, COUNT(*) AS c
       FROM und JOIN l1 l ON l.node = und.v GROUP BY 1, 2),
l2 AS (SELECT u AS node, label FROM (
         SELECT u, label, ROW_NUMBER() OVER (
             PARTITION BY u ORDER BY c DESC, label) AS rn FROM c2)
       WHERE rn = 1),
c3 AS (SELECT und.u, l.label, COUNT(*) AS c
       FROM und JOIN l2 l ON l.node = und.v GROUP BY 1, 2),
l3 AS (SELECT u AS node, label FROM (
         SELECT u, label, ROW_NUMBER() OVER (
             PARTITION BY u ORDER BY c DESC, label) AS rn FROM c3)
       WHERE rn = 1)
SELECT CAST(label AS BIGINT) AS community,
       CAST(COUNT(*) AS BIGINT) AS size
FROM l3 GROUP BY label
ORDER BY size DESC, community LIMIT 20"""

ORACLE_SQL["q_dbscan_embeddings"] = """
WITH e AS (
  SELECT vec_id, unnest(embedding) AS v,
         unnest(range(len(embedding))) AS i
  FROM embeddings),
q AS (
  SELECT vec_id, i,
         CAST(ROUND(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM e),
d2 AS (
  SELECT a.vec_id AS i, b.vec_id AS j,
         SUM((a.q - b.q) * (a.q - b.q)) AS d2
  FROM q a JOIN q b ON a.i = b.i GROUP BY 1, 2),
nb AS (
  SELECT i AS vec_id, COUNT(*) AS n
  FROM d2 WHERE d2 <= 1450000 GROUP BY i),
core AS (SELECT vec_id FROM nb WHERE n >= 5),
eu AS (
  SELECT d2.i AS a, d2.j AS b FROM d2
  WHERE d2.d2 <= 1450000 AND d2.i <> d2.j
    AND d2.i IN (SELECT vec_id FROM core)
    AND d2.j IN (SELECT vec_id FROM core)),
rec AS (
  WITH RECURSIVE walk(node, lab) AS (
    SELECT vec_id, vec_id FROM core
    UNION
    SELECT eu.b, walk.lab FROM walk JOIN eu ON eu.a = walk.node
  ) SELECT node, MIN(lab) AS cluster FROM walk GROUP BY node),
border AS (
  SELECT d2.i AS vec_id, MIN(rec.cluster) AS cluster
  FROM d2 JOIN rec ON rec.node = d2.j
  WHERE d2.d2 <= 1450000 AND d2.i <> d2.j
    AND d2.i NOT IN (SELECT vec_id FROM core)
  GROUP BY d2.i)
SELECT em.vec_id,
       CAST(COALESCE(r.cluster, border.cluster, -1) AS BIGINT)
           AS cluster,
       CAST(CASE WHEN r.node IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
           AS is_core
FROM embeddings em
LEFT JOIN rec r ON r.node = em.vec_id
LEFT JOIN border ON border.vec_id = em.vec_id
ORDER BY em.vec_id"""

ORACLE_SQL["q_kaplan_meier_events"] = """
WITH bounds AS (SELECT MAX(epoch_us(ts)) AS tmax FROM events),
u AS (
  SELECT user_id, MIN(epoch_us(ts)) AS f, MAX(epoch_us(ts)) AS l
  FROM events GROUP BY 1),
d AS (
  SELECT user_id, (l - f) // 3600000000 AS dur,
         CASE WHEN l <= tmax - 86400000000 THEN 1 ELSE 0 END AS obs
  FROM u CROSS JOIN bounds),
tot AS (SELECT COUNT(*) AS n FROM d),
ev AS (
  SELECT dur, SUM(obs) AS deaths, COUNT(*) AS ends
  FROM d GROUP BY dur),
ord AS (
  SELECT dur, deaths,
         n - COALESCE(SUM(ends) OVER (ORDER BY dur
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
             AS n_risk
  FROM ev CROSS JOIN tot),
evd AS (
  SELECT dur, deaths, n_risk,
         ROW_NUMBER() OVER (ORDER BY dur) AS ern
  FROM ord WHERE deaths > 0),
km AS (
  WITH RECURSIVE k(ern, dur, n_risk, deaths, s) AS (
    SELECT ern, dur, n_risk, deaths,
           1000000 * (n_risk - deaths) // n_risk
    FROM evd WHERE ern = 1
    UNION ALL
    SELECT e.ern, e.dur, e.n_risk, e.deaths,
           k.s * (e.n_risk - e.deaths) // e.n_risk
    FROM k JOIN evd e ON e.ern = k.ern + 1)
  SELECT * FROM k)
SELECT dur AS duration_h, CAST(n_risk AS BIGINT) AS n_risk,
       CAST(deaths AS BIGINT) AS n_events,
       CAST(s AS BIGINT) AS surv_micro
FROM km WHERE ern <= 20 ORDER BY duration_h"""

ORACLE_SQL["q_decision_stump_events"] = """
WITH s AS (
  SELECT CAST(ROUND(value * 100) AS BIGINT) AS cents,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS isa
  FROM events WHERE event_type IN ('click', 'error')),
h AS (
  SELECT cents, SUM(isa) AS a, COUNT(*) - SUM(isa) AS b
  FROM s GROUP BY cents),
t AS (SELECT SUM(a) AS ta, SUM(b) AS tb FROM h),
cum AS (
  SELECT cents,
         SUM(a) OVER (ORDER BY cents) AS al,
         SUM(b) OVER (ORDER BY cents) AS bl
  FROM h),
cand AS (
  SELECT cents, al, bl, ta - al AS ar, tb - bl AS br
  FROM cum CROSS JOIN t
  WHERE al + bl > 0 AND (ta - al) + (tb - bl) > 0),
sc AS (
  SELECT cents,
         (al * al + bl * bl) * 1000000 // (al + bl)
         + (ar * ar + br * br) * 1000000 // (ar + br) AS score,
         al + bl AS nl, ar + br AS nr, al, bl
  FROM cand)
SELECT CAST(cents AS BIGINT) AS split_cents,
       CAST(score AS BIGINT) AS score_micro,
       CAST(nl AS BIGINT) AS n_left, CAST(nr AS BIGINT) AS n_right,
       CAST(al AS BIGINT) AS a_left, CAST(bl AS BIGINT) AS b_left
FROM sc ORDER BY score DESC, cents LIMIT 1"""

ORACLE_SQL["q_sql_front_events"] = SQLFRONT_DEMO
ORACLE_SQL["q_sql_front_outer"] = SQLFRONT_OUTER

ORACLE_SQL["q_dp_counts_events"] = """
WITH g AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n
           FROM events GROUP BY event_type),
hx AS (SELECT event_type, n,
              substr(md5(event_type || ':dp1'), 1, 12) AS h FROM g),
mm AS (SELECT event_type, n,
              (SELECT CAST(SUM(
                   (strpos('0123456789abcdef', substr(h, d.i, 1)) - 1)
                   * CAST(power(16, 12 - d.i) AS BIGINT)) AS BIGINT)
               FROM (SELECT unnest(generate_series(1, 12)) AS i) d)
              AS m
       FROM hx),
ok AS (SELECT event_type, n, c.nz FROM mm
       CROSS JOIN (SELECT unnest(generate_series(-40, 40)) AS nz) c
       WHERE (c.nz < 0 AND CAST(3 AS HUGEINT) * m
                * CAST(power(2, -c.nz - 1) AS HUGEINT)
                < CAST(power(2, 48) AS HUGEINT))
          OR (c.nz >= 0 AND CAST(power(2, 48) AS HUGEINT)
                < CAST(3 AS HUGEINT)
                  * (CAST(power(2, 48) AS HUGEINT) - m)
                  * CAST(power(2, c.nz) AS HUGEINT))),
sel AS (SELECT event_type, n, MIN(nz) AS noise
        FROM ok GROUP BY event_type, n)
SELECT event_type, CAST(n + noise AS BIGINT) AS noisy_count,
       CAST(noise AS BIGINT) AS noise
FROM sel ORDER BY event_type"""

ORACLE_SQL["q_mad_outlier_events"] = """
WITH h AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS c,
         COUNT(*) AS n
  FROM events GROUP BY 1, 2),
t AS (SELECT event_type, SUM(n) AS tot FROM h GROUP BY 1),
w AS (
  SELECT h.event_type, c, n, tot,
         SUM(n) OVER (PARTITION BY h.event_type ORDER BY c) AS cum
  FROM h JOIN t USING (event_type)),
med AS (
  SELECT event_type, MIN(c) AS m
  FROM w WHERE cum >= (tot - 1) // 2 + 1 GROUP BY event_type),
d AS (
  SELECT w.event_type, ABS(c - m) AS dev, n
  FROM w JOIN med USING (event_type)),
dh AS (
  SELECT event_type, dev, SUM(n) AS n FROM d GROUP BY 1, 2),
w2 AS (
  SELECT dh.event_type, dev, dh.n, t.tot,
         SUM(dh.n) OVER (PARTITION BY dh.event_type ORDER BY dev)
             AS cum
  FROM dh JOIN t USING (event_type)),
madt AS (
  SELECT event_type, MIN(dev) AS mad
  FROM w2 WHERE cum >= (tot - 1) // 2 + 1 GROUP BY event_type),
outs AS (
  SELECT d.event_type,
         SUM(CASE WHEN dev > 5 * mad THEN n ELSE 0 END) AS n_out
  FROM d JOIN madt USING (event_type) GROUP BY 1)
SELECT med.event_type,
       CAST(m AS BIGINT) AS median_cents,
       CAST(mad AS BIGINT) AS mad_cents,
       CAST(n_out AS BIGINT) AS n_outliers
FROM med JOIN madt USING (event_type) JOIN outs USING (event_type)
ORDER BY event_type"""

ORACLE_SQL["q_privacy_audit_events"] = """
WITH base AS (
  SELECT event_type, EXTRACT(hour FROM ts) AS hod,
         user_id % 10 AS s
  FROM events),
cls AS (
  SELECT event_type, hod, s, COUNT(*) AS n
  FROM base GROUP BY 1, 2, 3),
ctot AS (
  SELECT event_type, hod, SUM(n) AS nc, COUNT(DISTINCT s) AS l_div
  FROM cls GROUP BY 1, 2),
gtot AS (
  SELECT g.s, COALESCE(SUM(cls.n), 0) AS gn
  FROM (SELECT unnest(range(10)) AS s) g
  LEFT JOIN cls ON cls.s = g.s GROUP BY g.s),
nt AS (SELECT SUM(n) AS big_n FROM cls),
grid AS (
  SELECT c.event_type, c.hod, g.s, g.gn, COALESCE(x.n, 0) AS n
  FROM ctot c CROSS JOIN gtot g
  LEFT JOIN cls x ON x.event_type = c.event_type AND x.hod = c.hod
                 AND x.s = g.s),
cum AS (
  SELECT event_type, hod, s,
         SUM(n) OVER (PARTITION BY event_type, hod ORDER BY s) AS cc,
         SUM(gn) OVER (PARTITION BY event_type, hod ORDER BY s) AS cg
  FROM grid),
emd AS (
  SELECT cum.event_type, cum.hod,
         SUM(ABS(cg * nc - cc * big_n)) AS emd_scaled
  FROM cum
  JOIN ctot ON ctot.event_type = cum.event_type
           AND ctot.hod = cum.hod
  CROSS JOIN nt
  GROUP BY 1, 2)
SELECT e.event_type, CAST(e.hod AS BIGINT) AS hod,
       CAST(c.nc AS BIGINT) AS size,
       CAST(c.l_div AS BIGINT) AS l_div,
       CAST(e.emd_scaled AS BIGINT) AS emd_scaled
FROM emd e JOIN ctot c ON c.event_type = e.event_type
                      AND c.hod = e.hod
ORDER BY e.emd_scaled DESC, e.event_type, e.hod LIMIT 10"""

ORACLE_SQL["q_embedding_decontaminate"] = """
WITH e AS (
  SELECT vec_id, unnest(embedding) AS v,
         unnest(range(len(embedding))) AS i
  FROM embeddings),
q AS (
  SELECT vec_id, i,
         CAST(ROUND(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM e),
t AS (SELECT * FROM q WHERE vec_id % 17 = 0),
tr AS (SELECT * FROM q WHERE vec_id % 17 <> 0),
d2 AS (
  SELECT a.vec_id AS ti, b.vec_id AS tj,
         SUM((a.q - b.q) * (a.q - b.q)) AS d2
  FROM tr a JOIN t b ON a.i = b.i GROUP BY 1, 2),
m AS (SELECT ti, MIN(d2) AS min_d2 FROM d2 GROUP BY ti),
n AS (
  SELECT d2.ti, MIN(d2.tj) AS nearest_test
  FROM d2 JOIN m ON m.ti = d2.ti AND d2.d2 = m.min_d2 GROUP BY d2.ti)
SELECT m.ti AS vec_id, CAST(m.min_d2 AS BIGINT) AS min_d2,
       CAST(n.nearest_test AS BIGINT) AS nearest_test,
       CAST(CASE WHEN m.min_d2 <= 1450000 THEN 1 ELSE 0 END AS BIGINT)
           AS contaminated
FROM m JOIN n ON n.ti = m.ti ORDER BY vec_id"""

# batch perceptron: the 3 epochs unroll as chained CTEs; features and
# label mirror q_perceptron_docs exactly (integer arithmetic only)
ORACLE_SQL["q_perceptron_docs"] = """
WITH f AS (
  SELECT CAST(1 AS BIGINT) AS x0,
         CAST(length(COALESCE(text, '')) // 100 AS BIGINT) AS x1,
         CAST((length(COALESCE(text, ''))
               - length(replace(COALESCE(text, ''), ' ', '')) + 1) // 10
              AS BIGINT) AS x2,
         CAST(length(regexp_replace(COALESCE(text, ''), '[^0-9]', '',
                                    'g')) AS BIGINT) AS x3,
         CAST(length(regexp_replace(COALESCE(text, ''), '[^A-Z]', '',
                                    'g')) AS BIGINT) AS x4,
         CAST(CASE WHEN lang = 'en' THEN 1 ELSE -1 END AS BIGINT) AS y
  FROM documents),
e1 AS (
  SELECT CAST(SUM(CASE WHEN 0 * 1 <= 0 THEN y * x0 ELSE 0 END) AS BIGINT) AS w0,
         CAST(SUM(CASE WHEN 0 * 1 <= 0 THEN y * x1 ELSE 0 END) AS BIGINT) AS w1,
         CAST(SUM(CASE WHEN 0 * 1 <= 0 THEN y * x2 ELSE 0 END) AS BIGINT) AS w2,
         CAST(SUM(CASE WHEN 0 * 1 <= 0 THEN y * x3 ELSE 0 END) AS BIGINT) AS w3,
         CAST(SUM(CASE WHEN 0 * 1 <= 0 THEN y * x4 ELSE 0 END) AS BIGINT) AS w4,
         CAST(COUNT(*) AS BIGINT) AS n_mis
  FROM f),
e2 AS (
  SELECT CAST(e1.w0 + SUM(CASE WHEN (e1.w0*x0 + e1.w1*x1 + e1.w2*x2
                 + e1.w3*x3 + e1.w4*x4) * y <= 0 THEN y * x0 ELSE 0 END)
              AS BIGINT) AS w0,
         CAST(e1.w1 + SUM(CASE WHEN (e1.w0*x0 + e1.w1*x1 + e1.w2*x2
                 + e1.w3*x3 + e1.w4*x4) * y <= 0 THEN y * x1 ELSE 0 END)
              AS BIGINT) AS w1,
         CAST(e1.w2 + SUM(CASE WHEN (e1.w0*x0 + e1.w1*x1 + e1.w2*x2
                 + e1.w3*x3 + e1.w4*x4) * y <= 0 THEN y * x2 ELSE 0 END)
              AS BIGINT) AS w2,
         CAST(e1.w3 + SUM(CASE WHEN (e1.w0*x0 + e1.w1*x1 + e1.w2*x2
                 + e1.w3*x3 + e1.w4*x4) * y <= 0 THEN y * x3 ELSE 0 END)
              AS BIGINT) AS w3,
         CAST(e1.w4 + SUM(CASE WHEN (e1.w0*x0 + e1.w1*x1 + e1.w2*x2
                 + e1.w3*x3 + e1.w4*x4) * y <= 0 THEN y * x4 ELSE 0 END)
              AS BIGINT) AS w4,
         CAST(SUM(CASE WHEN (e1.w0*x0 + e1.w1*x1 + e1.w2*x2 + e1.w3*x3
                 + e1.w4*x4) * y <= 0 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_mis
  FROM f, e1 GROUP BY e1.w0, e1.w1, e1.w2, e1.w3, e1.w4),
e3 AS (
  SELECT CAST(e2.w0 + SUM(CASE WHEN (e2.w0*x0 + e2.w1*x1 + e2.w2*x2
                 + e2.w3*x3 + e2.w4*x4) * y <= 0 THEN y * x0 ELSE 0 END)
              AS BIGINT) AS w0,
         CAST(e2.w1 + SUM(CASE WHEN (e2.w0*x0 + e2.w1*x1 + e2.w2*x2
                 + e2.w3*x3 + e2.w4*x4) * y <= 0 THEN y * x1 ELSE 0 END)
              AS BIGINT) AS w1,
         CAST(e2.w2 + SUM(CASE WHEN (e2.w0*x0 + e2.w1*x1 + e2.w2*x2
                 + e2.w3*x3 + e2.w4*x4) * y <= 0 THEN y * x2 ELSE 0 END)
              AS BIGINT) AS w2,
         CAST(e2.w3 + SUM(CASE WHEN (e2.w0*x0 + e2.w1*x1 + e2.w2*x2
                 + e2.w3*x3 + e2.w4*x4) * y <= 0 THEN y * x3 ELSE 0 END)
              AS BIGINT) AS w3,
         CAST(e2.w4 + SUM(CASE WHEN (e2.w0*x0 + e2.w1*x1 + e2.w2*x2
                 + e2.w3*x3 + e2.w4*x4) * y <= 0 THEN y * x4 ELSE 0 END)
              AS BIGINT) AS w4,
         CAST(SUM(CASE WHEN (e2.w0*x0 + e2.w1*x1 + e2.w2*x2 + e2.w3*x3
                 + e2.w4*x4) * y <= 0 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_mis
  FROM f, e2 GROUP BY e2.w0, e2.w1, e2.w2, e2.w3, e2.w4)
SELECT CAST(1 AS BIGINT) AS epoch, n_mis, w0, w1, w2, w3, w4 FROM e1
UNION ALL
SELECT CAST(2 AS BIGINT), n_mis, w0, w1, w2, w3, w4 FROM e2
UNION ALL
SELECT CAST(3 AS BIGINT), n_mis, w0, w1, w2, w3, w4 FROM e3
ORDER BY epoch"""

ORACLE_SQL["q_bigram_coverage_docs"] = """
WITH toks AS (
  SELECT doc_id, t.tok, t.i
  FROM documents,
       LATERAL (SELECT unnest(list_filter(
                    string_split_regex(lower(COALESCE(text, '')),
                                       '[^a-z0-9]+'),
                    x -> x <> '')) AS tok,
                unnest(range(len(list_filter(
                    string_split_regex(lower(COALESCE(text, '')),
                                       '[^a-z0-9]+'),
                    x -> x <> '')))) AS i) t),
bg AS (
  SELECT a.doc_id, a.tok || ' ' || b.tok AS bigram
  FROM toks a JOIN toks b
    ON a.doc_id = b.doc_id AND b.i = a.i + 1),
train AS (
  SELECT DISTINCT bigram FROM bg WHERE doc_id % 10 <> 0),
test AS (SELECT * FROM bg WHERE doc_id % 10 = 0)
SELECT test.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       CAST(SUM(CASE WHEN train.bigram IS NOT NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_covered,
       CAST((SUM(CASE WHEN train.bigram IS NOT NULL THEN 1 ELSE 0 END)
             * 2000 + COUNT(*)) // (2 * COUNT(*)) AS BIGINT)
           AS covered_milli
FROM test LEFT JOIN train ON train.bigram = test.bigram
GROUP BY test.doc_id ORDER BY test.doc_id"""

ORACLE_SQL["q_xlsx_roundtrip_events"] = """
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(COUNT(DISTINCT strftime(ts, '%Y-%m-%d')) AS BIGINT) AS n_days
FROM events GROUP BY event_type ORDER BY event_type"""

ORACLE_SQL["q_avro_roundtrip_events"] = """
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(COUNT(DISTINCT strftime(ts, '%Y-%m-%d')) AS BIGINT) AS n_days
FROM events GROUP BY event_type ORDER BY event_type"""

ORACLE_SQL["q_mmr_select_docs"] = """
WITH e AS (
  SELECT vec_id, unnest(embedding) AS v,
         unnest(range(len(embedding))) AS i
  FROM embeddings),
q AS (
  SELECT vec_id, i,
         CAST(ROUND(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM e),
c AS (
  SELECT i, CAST(floor(CAST(SUM(q) AS DOUBLE)
                 / (SELECT COUNT(*) FROM embeddings)) AS BIGINT) AS cq
  FROM q GROUP BY i),
dc AS (
  SELECT q.vec_id,
         CAST(SUM((q.q - c.cq) * (q.q - c.cq)) AS BIGINT) AS d2c
  FROM q JOIN c ON c.i = q.i GROUP BY q.vec_id),
d2p AS (
  SELECT a.vec_id AS pi, b.vec_id AS pj,
         CAST(SUM((a.q - b.q) * (a.q - b.q)) AS BIGINT) AS d2
  FROM q a JOIN q b ON a.i = b.i GROUP BY 1, 2),
s1 AS (SELECT vec_id, d2c FROM dc ORDER BY d2c ASC, vec_id LIMIT 1),
s2 AS (
  SELECT d.vec_id, d.d2c
  FROM dc d JOIN d2p p ON p.pi = d.vec_id
                      AND p.pj = (SELECT vec_id FROM s1)
  WHERE d.vec_id <> (SELECT vec_id FROM s1)
  ORDER BY (p.d2 - d.d2c) DESC, d.vec_id LIMIT 1),
s3 AS (
  SELECT d.vec_id, d.d2c
  FROM dc d JOIN (
      SELECT p.pi AS v, MIN(p.d2) AS md FROM d2p p
      WHERE p.pj IN (SELECT vec_id FROM s1
                     UNION ALL SELECT vec_id FROM s2)
      GROUP BY p.pi) m ON m.v = d.vec_id
  WHERE d.vec_id NOT IN (SELECT vec_id FROM s1
                         UNION ALL SELECT vec_id FROM s2)
  ORDER BY (m.md - d.d2c) DESC, d.vec_id LIMIT 1),
s4 AS (
  SELECT d.vec_id, d.d2c
  FROM dc d JOIN (
      SELECT p.pi AS v, MIN(p.d2) AS md FROM d2p p
      WHERE p.pj IN (SELECT vec_id FROM s1
                     UNION ALL SELECT vec_id FROM s2
                     UNION ALL SELECT vec_id FROM s3)
      GROUP BY p.pi) m ON m.v = d.vec_id
  WHERE d.vec_id NOT IN (SELECT vec_id FROM s1
                         UNION ALL SELECT vec_id FROM s2
                         UNION ALL SELECT vec_id FROM s3)
  ORDER BY (m.md - d.d2c) DESC, d.vec_id LIMIT 1)
SELECT CAST(1 AS BIGINT) AS sel_rank, vec_id, d2c FROM s1
UNION ALL SELECT CAST(2 AS BIGINT), vec_id, d2c FROM s2
UNION ALL SELECT CAST(3 AS BIGINT), vec_id, d2c FROM s3
UNION ALL SELECT CAST(4 AS BIGINT), vec_id, d2c FROM s4
ORDER BY sel_rank"""

ORACLE_SQL["q_domain_centroid_dist"] = """
WITH e AS (
  SELECT d.source, em.vec_id, unnest(em.embedding) AS v,
         unnest(range(len(em.embedding))) AS i
  FROM embeddings em JOIN documents d ON d.doc_id = em.vec_id),
q AS (
  SELECT source, i,
         CAST(ROUND(CAST(v AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM e),
c AS (
  SELECT source, i,
         CAST(floor(CAST(SUM(q) AS DOUBLE) / COUNT(*)) AS BIGINT) AS cq
  FROM q GROUP BY source, i)
SELECT a.source AS src_a, b.source AS src_b,
       CAST(SUM((a.cq - b.cq) * (a.cq - b.cq)) AS BIGINT) AS d2
FROM c a JOIN c b ON a.i = b.i AND a.source < b.source
GROUP BY 1, 2 ORDER BY src_a, src_b"""

ORACLE_SQL["q_record_linkage_customers"] = """
WITH c AS (
  SELECT c_custkey, c_nationkey, c_mktsegment,
         CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents,
         c_custkey % 100 AS dig
  FROM customer)
SELECT a.c_custkey AS cust_a, b.c_custkey AS cust_b,
       CAST(CASE WHEN a.c_mktsegment = b.c_mktsegment THEN 30 ELSE 0 END
          + CASE WHEN abs(a.cents - b.cents) < 100000 THEN 25 ELSE 0 END
          + CASE WHEN a.dig = b.dig THEN 20 ELSE 0 END AS BIGINT)
           AS weight
FROM c a JOIN c b ON a.c_nationkey = b.c_nationkey
                 AND b.c_custkey > a.c_custkey
WHERE CASE WHEN a.c_mktsegment = b.c_mktsegment THEN 30 ELSE 0 END
    + CASE WHEN abs(a.cents - b.cents) < 100000 THEN 25 ELSE 0 END
    + CASE WHEN a.dig = b.dig THEN 20 ELSE 0 END >= 45
ORDER BY weight DESC, cust_a, cust_b LIMIT 20"""

ORACLE_SQL["q_group_sample_docs"] = """
WITH p AS (
  SELECT doc_id, source,
         substr(md5('gs|' || CAST(doc_id AS VARCHAR)), 1, 16) AS pri
  FROM documents),
r AS (
  SELECT source, doc_id,
         ROW_NUMBER() OVER (PARTITION BY source
                            ORDER BY pri, doc_id) AS pick_rank
  FROM p)
SELECT source, CAST(pick_rank AS BIGINT) AS pick_rank,
       CAST(doc_id AS BIGINT) AS doc_id
FROM r WHERE pick_rank <= 3 ORDER BY source, pick_rank"""
