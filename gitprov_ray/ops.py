"""Reusable distributed operator helpers: salted aggregation for hot-key
skew (SURVEY.md §4.2 "Shuffles" row; the north rule's explicit skew
handling).

A power-law key (one domain holding 20% of rows, one ubiquitous agent)
makes a plain ``groupby(key)`` place that key's entire weight on one
reducer. ``salted_*`` split each key into ``num_salts`` sub-keys during the
partial phase so the heavy key's work spreads across reducers, then a small
second-phase combine removes the salt. Exact for decomposable aggregates
(count/sum/min/max).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def salted_value_counts(ds, col: str, num_salts: int = 16,
                        final: str = "driver"):
    """Exact per-value counts with salted two-phase aggregation.

    Phase 1 (map): per-batch partial counts keyed by (value, salt) where
    salt = row_position % num_salts — a hot value's partials spread over
    ``num_salts`` reducer keys instead of one.
    Phase 2: combine per value with the salt dropped. ``final='driver'``
    merges the (tiny) salted partials on the driver; ``final='shuffle'``
    runs a bucketed groupby for high-cardinality value domains.
    Returns a pandas DataFrame (value, n) sorted by value.
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        salt = np.arange(len(df), dtype=np.int64) % num_salts
        g = pd.DataFrame({col: df[col].to_numpy(), "salt": salt, "n": 1})
        a = g.groupby([col, "salt"], sort=False)["n"].sum()
        return a.reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")

    if final == "shuffle":
        combined = sum_by_key(partials, [col], ["n"],
                              max(8, num_salts)).to_pandas()
        return combined.sort_values(col).reset_index(drop=True)

    merged = partials.to_pandas().groupby(col, as_index=False)["n"].sum()
    return merged.sort_values(col).reset_index(drop=True)


def _default_partitions() -> int:
    """Join/aggregate partition count sized to the cluster: Ray's hash join
    spins up `num_partitions` aggregating actors — more partitions than
    cores just queues actors (and can starve a small test session)."""
    from .util import cluster_cpus

    return max(2, cluster_cpus())


def materialize_normalized(ds, schema):
    """Materialize `ds` with every block cast to an explicit Arrow `schema`
    and column-less EMPTY blocks dropped.

    Ray's hash aggregate emits column-less empty blocks for empty
    partitions, and ``map_batches`` skips zero-row blocks (so a schema-fix
    UDF never sees them); a downstream ``Dataset.join`` whose partition is
    assembled only from such blocks fails with ArrowInvalid ("no match for
    key field") because the built side lacks the key column. Dropping the
    empties is a metadata-only operation over block refs — no data moves
    through the driver."""
    import pyarrow as pa
    import ray.data as rd

    def norm(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_pylist([], schema=schema)
        return t.select(schema.names).cast(schema)

    mat = ds.map_batches(norm, batch_format="pyarrow").materialize()
    if not mat.count():
        return rd.from_arrow(pa.Table.from_pylist([], schema=schema))
    return nonempty_blocks(mat)


def nonempty_blocks(mat):
    """The non-empty blocks of a materialized Dataset with at least one
    row, as a Dataset: drops an exchange's column-less empty partitions
    by block metadata alone (no data moves through the driver)."""
    import ray.data as rd

    return rd.from_arrow_refs([ref
                               for bundle in mat.iter_internal_ref_bundles()
                               for ref, meta in bundle.blocks
                               if meta.num_rows])


def _key_strings(col):
    """One key column as Arrow strings, spelled as pandas ``astype(str)``
    spells them (``None`` for a null string), so the bucket of a key does
    not depend on whether it arrived as Arrow or pandas; binary keys are
    spelled in hex."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if pa.types.is_dictionary(col.type):
        col = col.cast(col.type.value_type)
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pc.fill_null(col, "None") if col.null_count else col
    if pa.types.is_integer(t) and col.null_count == 0:
        return pc.cast(col, pa.string())
    s = col.to_pandas()
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        s = s.map(bytes.hex, na_action="ignore")
    return pa.array(s.astype(str), pa.string())


def bucket_ids(table, key_cols, num_buckets: int) -> np.ndarray:
    """The one bucket hash: int64 ids in ``[0, num_buckets)`` per row of an
    Arrow ``table``, ``pd.util.hash_array`` (fixed-key siphash, the same in
    every process and run) over the ``"\x1f"``-joined string key. Persisted
    layouts depend on it (``sources.write_partitioned``, the WebDataset
    shards, the dedup index's ``bucket=NN``), so its values never change.
    ``key_cols=None`` keys on every column (in name order); no key columns
    put every row in bucket 0."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if key_cols is None:
        key_cols = sorted(table.column_names)
    if not key_cols:
        return np.zeros(table.num_rows, dtype=np.int64)
    parts = [_key_strings(table.column(c)) for c in key_cols]
    key = parts[0] if len(parts) == 1 else \
        pc.binary_join_element_wise(*parts, "\x1f")
    if isinstance(key, pa.ChunkedArray):
        key = key.combine_chunks()
    h = pd.util.hash_array(key.to_numpy(zero_copy_only=False))
    return (h % num_buckets).astype(np.int64)


def stable_bucket(graph: pd.Series, key: pd.Series,
                  num_buckets: int) -> np.ndarray:
    """:func:`bucket_ids` of the pandas pair (graph, key), both spelled
    ``astype(str)`` — the id the partitioned writers persist."""
    import pyarrow as pa

    t = pa.table({"g": pa.array(graph.astype(str), pa.string()),
                  "k": pa.array(key.astype(str), pa.string())})
    return bucket_ids(t, ["g", "k"], num_buckets)


def bucket_exchange(ds, key_cols, fn, num_buckets: int,
                    batch_format: str = "pyarrow"):
    """The one keyed shuffle. Each row gets the ``bucket`` of its
    ``key_cols`` (:func:`bucket_ids`, on the Arrow map side, so every
    non-empty block entering the sort is Arrow), rows move to ``P = min(num_buckets,
    fanout())`` partitions of CONTIGUOUS bucket ranges fixed up front (a
    boundary-given sort — no sampling round, and a bucket's partition
    depends only on its id, never on the input block layout), and ``fn``
    runs ONCE per partition on its rows, ``bucket`` column dropped, as a
    ``batch_format`` batch.

    Contract for ``fn``: it receives one or more WHOLE buckets and must
    give the same rows as applying it to each bucket alone — true when
    every key it groups or sorts on determines the bucket. Empty-frame
    policy: a partition that receives no rows leaves the sort as a
    column-less empty block, and ``map_batches`` passes zero-row blocks on
    without calling ``fn``; so an empty input gives zero rows and no
    schema, and ``materialize_normalized`` types the result where a
    consumer needs one."""
    import pyarrow as pa

    from .util import fanout

    def keyed(t: pa.Table) -> pa.Table:
        return t.append_column("bucket", pa.array(
            bucket_ids(t, key_cols, num_buckets), pa.int64()))

    def reduce(batch):
        if batch_format == "pandas":
            return fn(batch.drop(columns="bucket"))
        return fn(batch.drop_columns(["bucket"]))

    p = min(num_buckets, fanout())
    bounds = [i * num_buckets // p for i in range(1, p)]
    return (ds.map_batches(keyed, batch_format="pyarrow")
            .sort("bucket", boundaries=bounds)
            .map_batches(reduce, batch_format=batch_format, batch_size=None))


def distinct_rows(ds, key_cols, num_buckets: int = 64):
    """Rows distinct on ``key_cols`` (``None``: every column), one row kept
    per key: a per-batch ``drop_duplicates`` combiner, then one
    :func:`bucket_exchange`."""
    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(key_cols)

    return bucket_exchange(ds.map_batches(dedup, batch_format="pandas"),
                           key_cols, dedup, num_buckets, "pandas")


def sum_by_key(ds, key_cols: list[str], val_cols: list[str],
               num_buckets: int = 64):
    """Per-key sums of ``val_cols`` (the combine side of a partial
    aggregate) through one :func:`bucket_exchange`; other columns drop."""
    def total(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(key_cols, sort=False, as_index=False)[
            val_cols].sum()

    return bucket_exchange(ds, key_cols, total, num_buckets, "pandas")


def each_group(key: str, fn):
    """``fn`` once per ``key`` group of a :func:`bucket_exchange`
    partition, results concatenated: the kernel form for a reduce written
    for ONE natural-key group (it compares every row of its frame, or
    reads the key through ``iloc[0]``), so several groups in one call
    give the rows each group gives alone."""
    def run(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([fn(g) for _, g in df.groupby(key, sort=False)],
                         ignore_index=True)
    return run


def _pa_type_of(value):
    """Arrow type for a sampled key value (ints widened to int64, floats to
    float64, plus dates/timestamps/binary via scalar inference)."""
    import pyarrow as pa

    if isinstance(value, (bool, np.bool_)):
        return pa.bool_()
    if isinstance(value, (int, np.integer)):
        return pa.int64()
    if isinstance(value, (float, np.floating)):
        return pa.float64()
    if isinstance(value, str):
        return pa.string()
    try:
        return pa.scalar(value).type
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return pa.string()


def distinct_keys(ds, key: str):
    """Distributed distinct on one key column (:func:`distinct_rows`).
    Never materializes the key set on the driver."""
    return distinct_rows(ds.select_columns([key]), [key])


def semi_join(left_ds, right_ds, left_key: str, right_key: str,
              num_partitions: int | None = None, anti: bool = False,
              broadcast_max: int = 200_000):
    """Distributed semi/anti join, size-aware: the right side is reduced
    to distinct keys first (so no join can duplicate left rows); when
    that key set fits ``broadcast_max`` it ships once via ``ray.put``
    and the left side streams through a per-batch ``isin`` filter — NO
    shuffle at all (the standard small-side broadcast). Above the
    threshold, the bucketed hash-join path runs: keys tagged with a
    marker column, semi = inner join, anti = left_outer + null-marker
    filter — the shape that survives a 40%-selective filter at 100 TB
    (a multi-GB key set must not land on the driver).
    """
    import pyarrow as pa
    import ray

    if num_partitions is None:
        num_partitions = _default_partitions()
    keys = distinct_keys(right_ds, right_key)
    sample = keys.take(1)
    if not sample:
        # empty right side: semi keeps nothing, anti keeps everything
        return left_ds.limit(0) if not anti else left_ds
    keys = keys.materialize()
    if keys.count() <= broadcast_max:
        vals = keys.to_pandas()[right_key].to_numpy()
        ref = ray.put(vals)

        def flt(df: pd.DataFrame, ref=ref) -> pd.DataFrame:
            m = df[left_key].isin(ray.get(ref))
            return df[~m] if anti else df[m]

        return left_ds.map_batches(flt, batch_format="pandas")
    if not left_ds.take(1):
        # invariant 11: Ray's hash join breaks on a fully-empty side
        # (column-less shuffle partitions); answer without the join.
        # take(1) streams until the first row only.
        return left_ds.limit(0)
    marked = keys.map_batches(
        lambda df: df.assign(__match=np.int8(1)), batch_format="pandas")
    if right_key != left_key:
        marked = marked.map_batches(
            lambda df, rk=right_key, lk=left_key: df.rename(columns={rk: lk}),
            batch_format="pandas")
    # pin the schema: empty aggregate partitions are column-less and would
    # break the join (see materialize_normalized)
    marked = materialize_normalized(marked, pa.schema([
        (left_key, _pa_type_of(sample[0][right_key])), ("__match", pa.int8())]))
    if anti:
        joined = left_ds.join(marked, "left_outer", num_partitions,
                              on=(left_key,))
        return joined.map_batches(
            lambda df: df[df["__match"].isna()].drop(columns=["__match"]),
            batch_format="pandas")
    joined = left_ds.join(marked, "inner", num_partitions, on=(left_key,))
    return joined.map_batches(
        lambda df: df.drop(columns=["__match"]), batch_format="pandas")


def _bloom_positions(keys: pd.Series, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via vectorized double hashing — two
    independent 64-bit hashes (pd.util.hash_pandas_object with distinct
    categories; invariant 4: never per-row hashing in a loop)."""
    s = keys.astype(str)
    h1 = pd.util.hash_pandas_object(s, index=False,
                                    hash_key="b10om!filter0001").to_numpy()
    h2 = pd.util.hash_pandas_object(s, index=False,
                                    hash_key="b10om!filter0002").to_numpy()
    h2 = h2 | 1                                   # odd → full-period stride
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(m_bits)).astype(np.int64)


def _bloom_member(keys: pd.Series, bitmap: np.ndarray,
                  m_bits: int, k: int) -> np.ndarray:
    pos = _bloom_positions(keys, m_bits, k)
    bits = (bitmap[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return bits.all(axis=1)


def bloom_semi_join(left_ds, right_ds, left_key: str, right_key: str,
                    num_partitions: int | None = None,
                    m_bits: int = 1 << 23, k: int = 4):
    """Semi join with a Bloom prefilter — the classic shuffle-volume
    saver for selective joins at scale: the right key set is summarized
    into an m-bit filter (built distributively: per-batch local
    bitmaps OR-combined in a tree, never the key set on the driver),
    broadcast once via ray.put, and applied inside map_batches to drop
    left rows that CANNOT match before the exact bucketed
    :func:`semi_join` runs on the survivors. False positives only ever
    add survivors, so the result is exactly the semi join."""
    import ray

    keys = distinct_keys(right_ds, right_key)

    def local_bitmap(df: pd.DataFrame) -> pd.DataFrame:
        bm = np.zeros(m_bits // 8, dtype=np.uint8)
        if len(df):
            pos = _bloom_positions(df[right_key], m_bits, k).ravel()
            np.bitwise_or.at(bm, pos >> 3,
                             np.uint8(1) << (pos & 7).astype(np.uint8))
        return pd.DataFrame({"bm": [bm.tobytes()]})

    def or_batch(df: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(m_bits // 8, dtype=np.uint8)
        for b in df["bm"]:
            acc |= np.frombuffer(b, dtype=np.uint8)
        return pd.DataFrame({"bm": [acc.tobytes()]})

    partial = (keys.map_batches(local_bitmap, batch_format="pandas",
                                batch_size=65536)
               .repartition(4)
               .map_batches(or_batch, batch_format="pandas"))
    acc = np.zeros(m_bits // 8, dtype=np.uint8)
    for row in partial.take_all():            # ≤4 fixed-size bitmaps
        acc |= np.frombuffer(row["bm"], dtype=np.uint8)
    bm_ref = ray.put(acc)

    def prefilter(df: pd.DataFrame) -> pd.DataFrame:
        bm = ray.get(bm_ref)
        return df[_bloom_member(df[left_key], bm, m_bits, k)]

    survivors = left_ds.map_batches(prefilter, batch_format="pandas")
    # invariant 11: Ray's hash join breaks on a fully-empty side — when
    # the prefilter removes every left row (no-overlap join), answer
    # without the join. take(1) streams until the first survivor only.
    if not survivors.take(1):
        return survivors.limit(0)
    return semi_join(survivors, right_ds, left_key, right_key,
                     num_partitions)


def _arrow_schema_of(ds):
    """Dataset schema → pyarrow.Schema (pandas-block object dtypes map
    to string; numpy dtypes convert)."""
    import pyarrow as pa

    s = ds.schema()
    fields = []
    for n, t in zip(s.names, s.types):
        if isinstance(t, pa.DataType):
            fields.append((n, t))
        else:
            try:
                fields.append((n, pa.from_numpy_dtype(t)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append((n, pa.string()))
    return pa.schema(fields)


def skew_join(left_ds, right_ds, left_key: str, right_key: str,
              num_partitions: int | None = None,
              hot_threshold: int = 100_000, num_salts: int = 16,
              capacity: int = 256):
    """Skew-aware inner equi-join: the fix for the one hash partition
    that receives a hot key's entire row set and straggles the stage.

    Pass 1 sketches left-side key frequencies with per-batch Misra–Gries
    summaries (≤ capacity+1 rows per batch to the driver — never the key
    column itself); any key whose estimate + EPS reaches
    ``hot_threshold`` is treated as hot. Overestimation is SAFE — a cold
    key classified hot merely gets replicated right rows — so the
    sketch's one-sided error never affects correctness. Hot left rows
    get a round-robin salt, hot right rows are replicated once per salt,
    and the hot join runs on (key, salt) — spreading each hot key over
    ``num_salts`` partitions. Cold rows take the plain bucketed join.
    Result = exact inner join, any row order."""
    if num_partitions is None:
        num_partitions = _default_partitions()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[left_key].value_counts()
        sub = 0
        if len(vc) > capacity:
            sub = int(vc.iloc[capacity])
            vc = (vc - sub)[lambda s: s > 0]
        out = pd.DataFrame({left_key: vc.index.to_numpy(),
                            "est": vc.to_numpy().astype("int64"),
                            "__sub": np.int64(0)})
        meta = pd.DataFrame({left_key: [None], "est": np.int64(0),
                             "__sub": np.int64(sub)})
        return pd.concat([out, meta], ignore_index=True)

    summ = left_ds.map_batches(partial, batch_format="pandas").to_pandas()
    eps = int(summ["__sub"].sum())
    est = (summ[summ[left_key].notna()]
           .groupby(left_key, as_index=False)["est"].sum())
    hot = set(est.loc[est["est"] + eps >= hot_threshold, left_key])

    right = right_ds
    if right_key != left_key:
        right = right_ds.map_batches(
            lambda df, rk=right_key, lk=left_key: df.rename(
                columns={rk: lk}), batch_format="pandas")
    if not hot:
        return left_ds.join(right, "inner", num_partitions,
                            on=(left_key,))

    def l_cold(df):
        return df[~df[left_key].isin(hot)]

    def l_hot(df):
        sub = df[df[left_key].isin(hot)].copy()
        sub["__salt"] = (np.arange(len(sub)) % num_salts).astype("int64")
        return sub

    def r_cold(df):
        return df[~df[left_key].isin(hot)]

    def r_hot(df):
        sub = df[df[left_key].isin(hot)]
        rep = sub.loc[sub.index.repeat(num_salts)].reset_index(drop=True)
        rep["__salt"] = np.tile(np.arange(num_salts, dtype="int64"),
                                len(sub))
        return rep

    # invariant 7 (extended): a filter can leave a join side ALL-empty
    # (e.g. every key hot) — normalize each side to a pinned schema so
    # the hash join never builds from column-less blocks
    import pyarrow as pa

    l_schema = _arrow_schema_of(left_ds)
    r_schema = _arrow_schema_of(right_ds)
    if right_key != left_key:
        r_schema = pa.schema([
            (left_key if f.name == right_key else f.name, f.type)
            for f in r_schema])
    salt = pa.field("__salt", pa.int64())
    cold_l = materialize_normalized(
        left_ds.map_batches(l_cold, batch_format="pandas"), l_schema)
    cold_r = materialize_normalized(
        right.map_batches(r_cold, batch_format="pandas"), r_schema)
    hot_l = materialize_normalized(
        left_ds.map_batches(l_hot, batch_format="pandas"),
        pa.schema(list(l_schema) + [salt]))
    hot_r = materialize_normalized(
        right.map_batches(r_hot, batch_format="pandas"),
        pa.schema(list(r_schema) + [salt]))
    # Ray's hash join cannot build from a fully-empty side (column-less
    # shuffle partitions) — short-circuit like semi_join does
    parts = []
    if cold_l.take(1) and cold_r.take(1):
        parts.append(cold_l.join(cold_r, "inner", num_partitions,
                                 on=(left_key,)))
    if hot_l.take(1) and hot_r.take(1):
        hotj = hot_l.join(hot_r, "inner", num_partitions,
                          on=(left_key, "__salt"))
        parts.append(hotj.map_batches(
            lambda t: t.drop_columns(["__salt"]), batch_format="pyarrow"))
    if not parts:
        import ray.data as rd

        joined = pa.schema(list(l_schema)
                           + [f for f in r_schema if f.name != left_key])
        return rd.from_arrow(pa.Table.from_pylist([], schema=joined))
    return parts[0] if len(parts) == 1 else parts[0].union(parts[1])


def salted_sum(ds, key_col: str, val_col: str, num_salts: int = 16,
               final: str = "driver"):
    """Exact per-key integer sum with salted two-phase aggregation.

    ``final='driver'`` merges the (tiny) salted partials on the driver —
    right for low-cardinality keys; ``final='shuffle'`` runs a bucketed
    groupby for high-cardinality key domains (mirrors
    :func:`salted_value_counts`)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        salt = np.arange(len(df), dtype=np.int64) % num_salts
        g = pd.DataFrame({key_col: df[key_col].to_numpy(), "salt": salt,
                          "v": df[val_col].to_numpy()})
        return g.groupby([key_col, "salt"], sort=False)["v"].sum().reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")
    out_col = f"sum_{val_col}"

    if final == "shuffle":
        merged = sum_by_key(partials, [key_col], ["v"],
                            max(8, num_salts)).to_pandas()
    else:
        merged = partials.to_pandas().groupby(key_col, as_index=False)["v"].sum()
    return merged.rename(columns={"v": out_col}) \
                 .sort_values(key_col).reset_index(drop=True)


def _dedup_pairs(ds, a: str, b: str, num_buckets: int = 32):
    """Distinct (a, b) pairs via per-batch combiner + ONE bucket exchange
    (invariant 4: Ray's multi-key aggregate is ~20× slower)."""
    return distinct_rows(ds, [a, b], num_buckets)


# path-doubling rounds before transitive_closure gives up: round k closes
# paths of up to 2^k edges, so a cap of 64 is never reached by a real graph;
# past it the call raises rather than return a partial closure
_CLOSURE_MAX_ROUNDS = 64


def transitive_closure(edges_ds, src: str = "s", dst: str = "o",
                       num_partitions: int | None = None):
    """Distributed transitive closure of a binary relation by PATH
    DOUBLING: after round k the pair set holds every pair connected by a
    path of length ≤ 2^k, so ceil(log2(graph diameter)) bucketed
    ``Dataset.join`` rounds close any graph — a 250-hop chain needs 8
    rounds, not 250 (semi-naive iteration). Each round joins the set
    with itself on dst==src, unions, and dedups through one
    bucket exchange; fixpoint = pair count unchanged. No fixpoint within
    ``_CLOSURE_MAX_ROUNDS`` raises ``RuntimeError``.

    Scale note: the RESULT is inherently quadratic in chain length
    (that is the semantics of closure, not an implementation cost);
    the per-round exchanges are bucketed and the pair set never lands
    on the driver — only its count does."""
    import pyarrow as pa

    if num_partitions is None:
        num_partitions = _default_partitions()
    total = _dedup_pairs(edges_ds, src, dst)
    sample = total.take(1)
    if not sample:
        return total.limit(0)                 # empty relation
    # invariant 7: _dedup_pairs' exchange emits column-less empty
    # blocks for empty partitions; normalize before EVERY Dataset.join
    # (small fixtures leave most of the 32 buckets empty)
    tschema = pa.schema([(src, _pa_type_of(sample[0][src])),
                         (dst, _pa_type_of(sample[0][dst]))])
    total = materialize_normalized(total, tschema)
    n = total.count()
    for _ in range(_CLOSURE_MAX_ROUNDS):
        right = total.map_batches(
            lambda df: df.rename(columns={src: dst, dst: "__far"}),
            batch_format="pandas")
        stepped = total.join(right, "inner", num_partitions, on=(dst,),
                             left_suffix="", right_suffix="__r")
        stepped = stepped.map_batches(
            lambda df: df[[src, "__far"]].rename(columns={"__far": dst}),
            batch_format="pandas")
        total = materialize_normalized(
            _dedup_pairs(total.union(stepped), src, dst), tschema)
        n2 = total.count()
        if n2 == n:
            return total
        n = n2
    raise RuntimeError(
        f"transitive_closure: no fixpoint after {_CLOSURE_MAX_ROUNDS} rounds")


def pagerank(edges_ds, iters: int = 3, damping: float = 0.85,
             num_partitions: int | None = None, src: str = "src",
             dst: str = "dst", broadcast_max: int = 500_000):
    """Distributed PageRank by power iteration → Dataset of
    (node, score) with ``score`` rounded to 9 decimals (so the unrolled
    SQL oracle twin hash-matches despite summation-order ulps).

    Scale shape: the node set and per-edge weight (1/outdeg) are built
    once with bucketed aggregates; each iteration is ONE hash join
    (edges ⋈ scores on src) + ONE bucketed sum on dst — the score and
    edge tables stay Datasets throughout, nothing node-shaped lands on
    the driver. Dangling mass (nodes without out-edges) is redistributed
    uniformly each round, per the standard formulation; n and the
    dangling total are the only scalars collected.

    Size-aware two-regime design (same precedent as bfs_distances): when
    the NODE count fits ``broadcast_max``, the score vector broadcasts
    via ray.put and each round is ONE streaming pass over the edges
    (per-batch partial dst sums, node-bounded combine on the driver) —
    the classic vertex-state-in-memory / edges-streamed regime; the
    join loop below is the arbitrarily-many-nodes continuation."""
    import pyarrow as pa

    from ray.data.aggregate import Count, Sum

    P = num_partitions or _default_partitions()
    e_schema = pa.schema([(src, pa.int64()), (dst, pa.int64())])
    edges = materialize_normalized(
        edges_ds.map_batches(
            lambda df: df[[src, dst]].astype("int64"),
            batch_format="pandas"), e_schema)
    nodes = materialize_normalized(
        distinct_keys(
            edges.map_batches(lambda df: pd.DataFrame(
                {"node": np.concatenate([df[src].to_numpy(),
                                         df[dst].to_numpy()])}),
                batch_format="pandas"), "node"),
        pa.schema([("node", pa.int64())]))
    n = nodes.count()
    if n <= broadcast_max:
        return _pagerank_broadcast(edges, nodes, n, iters, damping,
                                   src, dst)
    outdeg = materialize_normalized(
        edges.groupby(src).aggregate(Count(on=src, alias_name="deg"))
        .map_batches(lambda df: df.rename(columns={src: "node"}),
                     batch_format="pandas"),
        pa.schema([("node", pa.int64()), ("deg", pa.int64())]))
    # per-edge weight 1/outdeg(src): one upfront join, reused every round
    wedges = materialize_normalized(
        edges.map_batches(lambda df: df.rename(columns={src: "node"}),
                          batch_format="pandas")
        .join(outdeg, "inner", P, on=("node",))
        .map_batches(lambda df: pd.DataFrame(
            {"node": df["node"].astype("int64"),
             dst: df[dst].astype("int64"),
             "w": 1.0 / df["deg"].to_numpy()}), batch_format="pandas"),
        pa.schema([("node", pa.int64()), (dst, pa.int64()),
                   ("w", pa.float64())]))
    s_schema = pa.schema([("node", pa.int64()), ("score", pa.float64())])
    scores = materialize_normalized(
        nodes.map_batches(lambda df: df.assign(score=1.0 / n),
                          batch_format="pandas"), s_schema)
    # the DANGLING NODE SET is static — compute it once; when empty
    # (every node has out-edges) the per-round mass join is skipped
    dang = materialize_normalized(
        nodes.join(outdeg, "left_outer", P, on=("node",))
        .map_batches(lambda df: df.loc[df["deg"].isna(), ["node"]],
                     batch_format="pandas"),
        pa.schema([("node", pa.int64())]))
    n_dang = dang.count()
    base = (1.0 - damping) / n
    for _ in range(iters):
        if n_dang:
            dangling = scores.join(dang, "inner", P, on=("node",)) \
                .map_batches(lambda df: pd.DataFrame(
                    {"s": [float(df["score"].sum())]}),
                    batch_format="pandas").to_pandas()["s"].sum()
        else:
            dangling = 0.0
        contrib = (wedges.join(scores, "inner", P, on=("node",))
                   .map_batches(lambda df: pd.DataFrame(
                       {"node": df[dst].astype("int64"),
                        "c": df["w"].to_numpy() * df["score"].to_numpy()}),
                       batch_format="pandas")
                   .groupby("node").aggregate(Sum(on="c", alias_name="c")))
        contrib = materialize_normalized(
            contrib, pa.schema([("node", pa.int64()), ("c", pa.float64())]))
        add = base + damping * dangling / n
        scores = materialize_normalized(
            nodes.join(contrib, "left_outer", P, on=("node",))
            .map_batches(lambda df, a=add: pd.DataFrame(
                {"node": df["node"].astype("int64"),
                 "score": a + damping * df["c"].fillna(0.0).to_numpy()}),
                batch_format="pandas"), s_schema)
    return scores.map_batches(
        lambda df: df.assign(score=df["score"].round(9)),
        batch_format="pandas")


def exact_quantiles(ds, col: str, ps=(0.1, 0.25, 0.5, 0.75, 0.9, 0.99)):
    """EXACT distributed quantiles of a numeric column → pandas
    (p, value), both float64.

    One global Ray sort, then each target rank is located by walking the
    sorted dataset's BLOCK METADATA (row counts) and fetching ONLY the
    block that holds it — O(#quantiles) block reads, never a driver
    collect of the column. Rank rule (pinned for the SQL twin): value at
    0-based index floor(p · (n−1)) of the ascending sort, float64
    multiply on both sides."""
    import math

    import ray

    n = ds.count()
    if n == 0:
        raise ValueError("exact_quantiles on an empty dataset")
    srt = ds.sort(col).materialize()
    blocks = [(ref, meta.num_rows)
              for bundle in srt.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows]
    out_p, out_v = [], []
    pos = bi = 0
    cached = (None, None)
    for p in sorted(ps):
        r = int(math.floor(p * (n - 1)))
        while pos + blocks[bi][1] <= r:
            pos += blocks[bi][1]
            bi += 1
        if cached[0] != bi:
            blk = ray.get(blocks[bi][0])
            cached = (bi, blk)
        blk = cached[1]
        v = blk.column(col)[r - pos].as_py() if hasattr(blk, "column") \
            else blk[col].iloc[r - pos]
        out_p.append(float(p))
        out_v.append(float(v))
    return pd.DataFrame({"p": pd.Series(out_p, dtype="float64"),
                         "value": pd.Series(out_v, dtype="float64")})


def asof_join(left_ds, right_ds, key: str, ts: str, left_cols: list[str],
              right_vals: list[str], num_buckets: int = 64):
    """Distributed AS-OF join (the J3 lag-join generalized): every left row
    gets ``right_vals`` from the LATEST right row with ``right.ts <=
    left.ts`` for the same ``key`` — DuckDB ``ASOF LEFT JOIN`` semantics,
    ``pd.merge_asof`` inside co-partitioned buckets.

    Shape: ONE bucket exchange total — both sides are schema-aligned
    (missing columns null-filled), tagged and unioned so each key's rows
    land in the same reduce group; inside the group a vectorized
    merge_asof runs. The right side is never broadcast, so the op composes
    at 100 TB. Partitioning assumptions: (key, ts) unique on the right
    (pre-aggregate otherwise), and a single key's rows fit one reducer
    (salt hot keys upstream if not). Left id columns ride the union as
    float64 (null-fill promotion) — cast them back downstream.
    """
    cols = [key, ts] + list(left_cols) + list(right_vals)

    def tag(side: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({key: df[key].to_numpy(),
                                ts: df[ts].to_numpy()})
            for c in left_cols:
                out[c] = df[c].to_numpy() if side == 0 else np.nan
            for c in right_vals:
                out[c] = df[c].to_numpy() if side == 1 else np.nan
            out["__side"] = np.int8(side)
            return out[cols + ["__side"]]
        return f

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        lhs = df.loc[df["__side"] == 0, [key, ts] + list(left_cols)]
        rhs = df.loc[df["__side"] == 1, [key, ts] + list(right_vals)]
        if len(lhs) == 0:
            return df.iloc[0:0][cols]       # dtype-preserving empty
        lhs = lhs.sort_values(ts, kind="mergesort")
        rhs = rhs.sort_values(ts, kind="mergesort")
        out = pd.merge_asof(lhs, rhs, on=ts, by=key, direction="backward",
                            allow_exact_matches=True)
        return out[cols]

    tagged_l = left_ds.map_batches(tag(0), batch_format="pandas")
    tagged_r = right_ds.map_batches(tag(1), batch_format="pandas")
    return bucket_exchange(tagged_l.union(tagged_r), [key], merge,
                           num_buckets, "pandas")


def morton2(x: np.ndarray, y: np.ndarray, bits: int = 16) -> np.ndarray:
    """Vectorized 2-D Morton (Z-order) code: interleave the low `bits`
    bits of x (even positions) and y (odd positions) — one numpy pass
    per bit, no Python loop over rows."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    z = np.zeros(len(x), dtype=np.int64)
    for i in range(bits):
        z |= ((x >> i) & 1) << (2 * i)
        z |= ((y >> i) & 1) << (2 * i + 1)
    return z


def zorder_layout_stats(ds, x_col: str, y_col: str, num_files: int = 8,
                        bits: int = 16):
    """Z-order data-layout clustering (the Delta/Iceberg OPTIMIZE
    ZORDER primitive): assign every row a Morton code over two integer
    dimensions, split the z-space uniformly into ``num_files`` ranges,
    and report each file's ZONE MAP (count + min/max of BOTH
    dimensions). Because Morton ranges are axis-aligned-ish rectangles,
    each file covers a narrow slice of both dims simultaneously — the
    stats this op emits are exactly what a reader uses to SKIP files on
    either predicate at 100 TB. One partial-combine pass + a tiny
    groupby; the data itself never re-sorts here (write_partitioned is
    the sink that would)."""
    shift_den = 1 << (2 * bits)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].to_numpy(dtype=np.int64) % (1 << bits)
        y = df[y_col].to_numpy(dtype=np.int64) % (1 << bits)
        z = morton2(x, y, bits)
        f = z * num_files // shift_den
        g = pd.DataFrame({"file_id": f, "x": x, "y": y})
        return g.groupby("file_id", as_index=False).agg(
            n=("x", "size"), min_x=("x", "min"), max_x=("x", "max"),
            min_y=("y", "min"), max_y=("y", "max"))

    parts = ds.map_batches(partial, batch_format="pandas")
    from ray.data.aggregate import Max, Min, Sum
    out = (parts.groupby("file_id")
           .aggregate(Sum("n", alias_name="n"),
                      Min("min_x", alias_name="min_x"),
                      Max("max_x", alias_name="max_x"),
                      Min("min_y", alias_name="min_y"),
                      Max("max_y", alias_name="max_y")))
    return out.map_batches(
        lambda df: df.astype({c: "int64" for c in df.columns}),
        batch_format="pandas").sort("file_id")


def kmv_distinct(ds, col: str, k: int = 64):
    """K-Minimum-Values distinct-count sketch (Bar-Yossef et al. 2002):
    keep the k smallest distinct hash values of a column; with hashes
    uniform on [0, 2^48) the estimator is (k-1) * 2^48 // h_(k) —
    EXACT integer arithmetic end-to-end (h = first 12 hex chars of
    md5), so the DuckDB twin reproduces the sketch bit-for-bit.

    Mergeable shape: each batch emits its k smallest distinct hashes
    (≤ k rows per batch move); the union — k × nblocks rows, the same
    driver-bounded sketch-merge state as HLL/CMS here — dedups and cuts
    to k. Fewer than k distinct hashes means the sketch IS the exact
    distinct set and the estimate is exact by construction. Returns a
    1-row DataFrame (k_used, kth_hash, est_distinct)."""
    import hashlib

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = df[col].astype(str).map(lambda s: int(
            hashlib.md5(s.encode()).hexdigest()[:12], 16))
        u = np.unique(h.to_numpy())
        return pd.DataFrame({"h": u[:k].astype("int64")})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    u = np.unique(parts["h"].to_numpy())
    if len(u) >= k:
        kth = int(u[k - 1])
        est, n_used = (k - 1) * (1 << 48) // kth, k
    else:
        kth = int(u[-1]) if len(u) else 0
        est, n_used = len(u), len(u)
    return pd.DataFrame({"k_used": [np.int64(n_used)],
                         "kth_hash": [np.int64(kth)],
                         "est_distinct": [np.int64(est)]})


def merge_upsert(base_ds, changes_ds, keys: list[str], order: list[str],
                 delete_col: str | None = None, num_buckets: int = 64):
    """Lakehouse MERGE / CDC upsert: apply a changelog Dataset to a base
    Dataset; per key the row with the greatest ``order`` tuple wins
    (changelog beats base only on a full order tie — supply a unique id
    in ``order`` for a total order), and a winning changelog row with
    ``delete_col`` true tombstones its key out of the result.

    Shape: per-batch PARTIAL winner combine (vectorized mergesort +
    drop_duplicates — at most one row per key per batch moves), ONE
    bucket exchange, per-bucket final argmax. Neither side is
    broadcast or driver-collected, so the op composes at 100 TB; the
    partitioning assumption is only that one key's candidate winners
    (≤ one per upstream batch) fit a reducer.
    """
    ordcols = list(order) + ["__src"]

    def tag(src: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["__src"] = np.int8(src)
            if delete_col is not None and delete_col not in out.columns:
                out[delete_col] = False
            return out[sorted(out.columns)]
        return f

    def winners(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(list(keys) + ordcols, kind="mergesort") \
            .drop_duplicates(subset=list(keys), keep="last")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = winners(df)
        if delete_col is not None:
            df = df[~df[delete_col].astype(bool)]
            df = df.drop(columns=[delete_col])
        return df.drop(columns=["__src"])

    base_t = base_ds.map_batches(tag(0), batch_format="pandas")
    chg_t = changes_ds.map_batches(tag(1), batch_format="pandas")
    return bucket_exchange(
        base_t.map_batches(winners, batch_format="pandas")
        .union(chg_t.map_batches(winners, batch_format="pandas")),
        list(keys), final, num_buckets, "pandas")


def band_join_count(left_ds, right_ds, ts: str, band_us: int,
                    id_col: str, out_col: str = "n_follow",
                    bucket_width_us: int = 3_600_000_000,
                    num_buckets: int = 64):
    """Distributed BAND (range) join, count form: for every left row, the
    number of right rows with ``left.ts < right.ts <= left.ts + band`` —
    a non-equi time-window join the Dataset API has no operator for.

    Shape: each side is assigned a time bucket ``floor(ts / W)``; right
    rows are REPLICATED into the preceding bucket too when the band can
    reach back across the boundary, so every left row finds its full
    window inside one reduce group (halo/ghost-cell partitioning).
    Requires ``band_us <= bucket_width_us`` (asserted). Inside a group
    the count is two vectorized searchsorted calls over the sorted right
    timestamps — no pairwise materialization. ONE shuffle total; the
    replication factor is ≤ 2 on the (small, filtered) right side.
    """
    assert band_us <= bucket_width_us, "halo only covers one bucket back"

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        t = df[ts].astype("int64")          # epoch micros
        return pd.DataFrame({id_col: df[id_col].to_numpy(), "__t": t,
                             "__tb": t // bucket_width_us,
                             "__side": np.int8(0)})

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        t = df[ts].astype("int64").to_numpy()
        home = t // bucket_width_us
        halo = (t - band_us) // bucket_width_us
        tb = np.concatenate([home, halo])
        tt = np.concatenate([t, t])
        keep = np.concatenate([np.ones(len(t), bool), halo != home])
        return pd.DataFrame({id_col: np.int64(-1), "__t": tt[keep],
                             "__tb": tb[keep], "__side": np.int8(1)})

    def count(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("__tb", sort=False):
            lhs = g[g["__side"] == 0]
            if len(lhs) == 0:
                continue
            rts = np.sort(g.loc[g["__side"] == 1, "__t"].to_numpy())
            lt = lhs["__t"].to_numpy()
            n = (np.searchsorted(rts, lt + band_us, side="right")
                 - np.searchsorted(rts, lt, side="right"))
            outs.append(pd.DataFrame({id_col: lhs[id_col].to_numpy(),
                                      out_col: n.astype("int64")}))
        if not outs:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 out_col: pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    tl = left_ds.map_batches(tag_left, batch_format="pandas")
    tr = right_ds.map_batches(tag_right, batch_format="pandas")
    return bucket_exchange(tl.union(tr), ["__tb"], count, num_buckets,
                           "pandas")


def bfs_distances(edges_ds, source: int, src: str = "s", dst: str = "o",
                  max_rounds: int = 32, num_partitions: int | None = None,
                  broadcast_max: int = 200_000):
    """Distributed single-source BFS: Dataset of (node, dist) with the
    MINIMUM hop count from ``source``.

    Size-aware two-regime design (the frontier of a real graph is tiny
    relative to the edge set, and join-actor spin-up dominated the
    all-join variant — measured 22 s at sf0.01 for a ~10-round graph):

    * broadcast regime (node state <= ``broadcast_max``): the frontier
      ships via ``ray.put`` and each round is ONE streaming filter pass
      over the (materialized-once) edges — per-batch ``isin`` + local
      distinct, a node-bounded aggregate back; the settled map lives on
      the driver, bounded by the threshold, NOT by the edge count.
    * join regime (bigger node state): the original Dataset loop — per
      round ONE bucketed hash join (frontier ⋈ edges) + ONE anti
      semi-join against the settled set; only counts reach the driver.

    Complements :func:`transitive_closure` (path doubling, all sources).
    """
    import pyarrow as pa
    import ray
    import ray.data as rd

    if num_partitions is None:
        num_partitions = _default_partitions()
    e_schema = pa.schema([(src, pa.int64()), (dst, pa.int64())])
    edges = materialize_normalized(
        edges_ds.map_batches(lambda df: df[[src, dst]].astype("int64"),
                             batch_format="pandas"), e_schema)
    d_schema = pa.schema([("node", pa.int64()), ("dist", pa.int64())])

    settled: dict[int, int] = {int(source): 0}
    frontier_set = {int(source)}
    depth = 0
    while (frontier_set and depth < max_rounds
           and len(settled) <= broadcast_max):
        depth += 1
        fr_ref = ray.put(np.fromiter(frontier_set, dtype=np.int64,
                                     count=len(frontier_set)))

        def step(df: pd.DataFrame, fr_ref=fr_ref) -> pd.DataFrame:
            fr = ray.get(fr_ref)
            m = df[df[src].isin(fr)]
            return pd.DataFrame({"node": pd.unique(m[dst])})

        nxt_df = edges.map_batches(step, batch_format="pandas").to_pandas()
        nxt = set(int(n) for n in pd.unique(nxt_df["node"])) \
            - settled.keys()
        for n in nxt:
            settled[n] = depth
        frontier_set = nxt

    dist = rd.from_arrow(pa.table({
        "node": pa.array(list(settled.keys()), pa.int64()),
        "dist": pa.array(list(settled.values()), pa.int64())}))
    if not frontier_set or depth >= max_rounds:
        return dist

    # join regime: node state outgrew the broadcast budget
    dist = materialize_normalized(dist, d_schema)
    frontier = materialize_normalized(rd.from_arrow(pa.table({
        "node": pa.array(sorted(frontier_set), pa.int64()),
        "dist": pa.array([depth] * len(frontier_set), pa.int64())})),
        d_schema)
    for d in range(depth + 1, max_rounds + 1):
        stepped = (frontier.map_batches(
            lambda df: df[["node"]].rename(columns={"node": src}),
            batch_format="pandas")
            .join(edges, "inner", num_partitions, on=(src,))
            .map_batches(lambda df, d=d: pd.DataFrame(
                {"node": df[dst].astype("int64"),
                 "dist": np.int64(d)}), batch_format="pandas"))
        # GLOBAL dedup via one grouped aggregate (a per-batch
        # drop_duplicates is only batch-local — it silently relied on
        # the anti-join's node partitioning before semi_join grew its
        # shuffle-free broadcast branch)
        from ray.data.aggregate import Min

        stepped = materialize_normalized(
            stepped.map_batches(lambda df: df.drop_duplicates(["node"]),
                                batch_format="pandas")
            .groupby("node").aggregate(Min("dist", alias_name="dist")),
            d_schema)
        if stepped.count() == 0:
            break
        # drop already-settled nodes (their dist is smaller by induction)
        fresh = materialize_normalized(
            semi_join(stepped, dist, "node", "node",
                      num_partitions, anti=True), d_schema)
        if fresh.count() == 0:
            break
        dist = materialize_normalized(dist.union(fresh), d_schema)
        frontier = fresh
    return dist


def exact_topk(ds, col: str, k: int = 20, capacity: int = 256):
    """EXACT distributed top-k most-frequent values of ``col`` by the
    two-pass heavy-hitter pattern (Misra–Gries candidates + exact
    recount) — the scale shape for "top tokens over 100 TB" where a full
    groupby(col) would shuffle the whole column.

    Pass 1: each batch emits a Misra–Gries summary of ≤ ``capacity``
    rows (trim rule: subtract the (capacity+1)-th largest count, drop
    ≤0) plus the amount it subtracted. Summed summaries under-estimate
    any value's true count by at most EPS = Σ per-batch subtractions, so
    every value that could reach the k-th place satisfies
    est + EPS >= k-th-largest est — that set is the candidate set (ties
    included, so the final answer is exact even at the boundary).
    Pass 2: candidates (tiny) broadcast into a second streaming pass for
    exact counts. Only sketch rows ever move; no shuffle in either pass.

    Returns pandas (col, n) sorted by n desc, value asc, length ≤ k.
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[col].value_counts()
        sub = 0
        if len(vc) > capacity:
            sub = int(vc.iloc[capacity])
            vc = (vc - sub)[lambda s: s > 0]
        out = pd.DataFrame({col: vc.index.to_numpy(),
                            "est": vc.to_numpy().astype("int64"),
                            "__sub": np.int64(0)})
        meta = pd.DataFrame({col: [None], "est": np.int64(0),
                             "__sub": np.int64(sub)})
        return pd.concat([out, meta], ignore_index=True)

    summ = ds.map_batches(partial, batch_format="pandas").to_pandas()
    eps = int(summ["__sub"].sum())
    est = (summ[summ[col].notna()].groupby(col, as_index=False)["est"].sum()
           .sort_values("est", ascending=False))
    if len(est) == 0 and eps == 0:
        return pd.DataFrame({col: pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})

    exact = None
    if len(est):
        kth = int(est["est"].iloc[min(k, len(est)) - 1])
        cand = set(est.loc[est["est"] + eps >= kth, col])

        def recount(df: pd.DataFrame) -> pd.DataFrame:
            vc = df.loc[df[col].isin(cand), col].value_counts()
            return pd.DataFrame({col: vc.index.to_numpy(),
                                 "n": vc.to_numpy().astype("int64")})

        exact = (ds.map_batches(recount, batch_format="pandas").to_pandas()
                 .groupby(col, as_index=False)["n"].sum()
                 .sort_values(["n", col], ascending=[False, True],
                              kind="mergesort").head(k)
                 .reset_index(drop=True))
    # certificate: a value absent from every summary has freq <= EPS, so
    # the sketch answer is provably exact iff k results exist and the
    # k-th exact count beats EPS (always true on skewed corpora with
    # adequate capacity). On tiny/uniform inputs where it fails, fall
    # back to an exact full aggregate — same streaming shape, just
    # without the candidate pruning.
    if exact is None or len(exact) < k or int(exact["n"].iloc[-1]) <= eps:
        full = (ds.map_batches(
            lambda df: df[col].value_counts().rename("n").rename_axis(col)
            .reset_index(), batch_format="pandas").to_pandas()
            .groupby(col, as_index=False)["n"].sum())
        full["n"] = full["n"].astype("int64")
        exact = (full.sort_values(["n", col], ascending=[False, True],
                                  kind="mergesort").head(k)
                 .reset_index(drop=True))
    return exact


def histogram_quantiles(ds, col: str, ps=(0.1, 0.5, 0.9, 0.99),
                        bins: int = 4096):
    """Approximate distributed quantiles WITHOUT a global sort (the
    100-TB path next to :func:`exact_quantiles`, which sorts): a
    two-pass mergeable equal-width histogram.

    Pass 1 streams (min, max, count) per batch; pass 2 streams per-batch
    bin-count vectors (one ``bins``-long int64 row per batch — the
    column itself never moves). The quantile is the LEFT EDGE of the
    bin holding rank floor(p·(n−1)); value error ≤ (max−min)/bins.
    Every arithmetic step ((v−mn)/w, floor, clip, mn + bin·w) is plain
    float64 in both this code and the SQL twin, so the result is
    bit-deterministic and oracle-checkable despite being a sketch."""

    def mm(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy(dtype=np.float64)
        return pd.DataFrame({"mn": [v.min()], "mx": [v.max()],
                             "n": [np.int64(len(v))]})

    stats = ds.map_batches(mm, batch_format="pandas").to_pandas()
    mn, mx = float(stats["mn"].min()), float(stats["mx"].max())
    n = int(stats["n"].sum())
    if n == 0:
        raise ValueError("histogram_quantiles on an empty dataset")
    if mx == mn:
        return pd.DataFrame({"p": pd.Series(sorted(ps), dtype="float64"),
                             "value": np.float64(mn)})
    w = (mx - mn) / float(bins)

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy(dtype=np.float64)
        b = np.minimum(np.floor((v - mn) / w).astype(np.int64), bins - 1)
        counts = np.bincount(b, minlength=bins).astype(np.int64)
        return pd.DataFrame({"counts": [counts.tobytes()]})

    merged = ds.map_batches(hist, batch_format="pandas").to_pandas()
    total = np.zeros(bins, np.int64)
    for b in merged["counts"]:
        total += np.frombuffer(b, np.int64)
    cum = np.cumsum(total)
    out_p, out_v = [], []
    for p in sorted(ps):
        rank = int(np.floor(p * (n - 1)))
        bi = int(np.searchsorted(cum, rank + 1, side="left"))
        out_p.append(float(p))
        out_v.append(mn + bi * w)
    return pd.DataFrame({"p": pd.Series(out_p, dtype="float64"),
                         "value": pd.Series(out_v, dtype="float64")})


def _md5_registers(series: pd.Series, m: int, p: int) -> np.ndarray:
    """md5-variant HLL register array for one value series — the
    oracle-checkable register rule (bucket = first 3 hex nibbles, rank
    by exact nibble arithmetic). Shared by the global and the grouped
    sketches so their twins stay one rule."""
    from .textops import md5_series

    hx = md5_series(series.astype(str))
    reg = np.zeros(m, np.int8)
    if not len(hx):
        return reg
    b = (np.frombuffer("".join(hx).encode("ascii"), np.uint8)
         .reshape(-1, 32)[:, :16])
    nib = np.where(b <= 57, b - 48, b - 87).astype(np.int64)
    idx = nib[:, 0] * 256 + nib[:, 1] * 16 + nib[:, 2]
    rest = nib[:, 3:16]                       # 13 nibbles = 52 bits
    nz = rest != 0
    z = np.where(nz.any(axis=1), nz.argmax(axis=1), 13)
    d = np.where(z < 13,
                 rest[np.arange(len(z)), np.minimum(z, 12)], 0)
    extra = np.where(d >= 8, 0,
                     np.where(d >= 4, 1, np.where(d >= 2, 2, 3)))
    ranks = np.minimum(4 * z + extra + 1, 64 - p + 1)
    g = pd.DataFrame({"i": idx, "r": ranks}).groupby("i")["r"].max()
    reg[g.index.to_numpy()] = g.to_numpy().astype(np.int8)
    return reg


def _hll_estimate_md5(regs: np.ndarray, m: int) -> float:
    """The pinned md5-HLL estimate tree (exact-integer register sum +
    linear counting), rounded half-up to 3 decimals — bit-identical to
    the DuckDB twin expression."""
    import math

    alpha = 0.7213 / (1 + 1.079 / m)
    zeros = int((regs == 0).sum())
    s = sum(1 << (63 - int(r)) for r in regs)
    est = alpha * float(m * m) * (float(1 << 63) / float(s))
    if est <= 2.5 * m and zeros:
        est = float(m) * math.log(float(m) / float(zeros))
    return float(np.floor(est * 1000 + 0.5) / 1000)


def hll_distinct_by(ds, key_col: str, col: str, p: int = 12):
    """GROUPED HyperLogLog: one mergeable sketch per key — the per-key
    cardinality pattern (distinct users per event type over a 100-TB
    stream without a per-key distinct shuffle). Per batch: one register
    row per key present (4 KB each); rows merge per key by elementwise
    max; only sketch rows ever move. md5 registers + the pinned
    estimate tree, so the whole grouped sketch is oracle-checkable.
    Returns pandas (key, distinct_est) sorted by key."""
    m = 1 << p

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, g in df.groupby(key_col, sort=False):
            rows.append({key_col: k,
                         "regs": _md5_registers(g[col], m, p).tobytes()})
        return pd.DataFrame(rows, columns=[key_col, "regs"])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(m, np.int8)
        for b in df["regs"]:
            acc = np.maximum(acc, np.frombuffer(b, np.int8))
        return pd.DataFrame({key_col: [df[key_col].iloc[0]],
                             "regs": [acc.tobytes()]})

    merged = bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                             [key_col], each_group(key_col, merge), 16,
                             "pandas").to_pandas()
    out = pd.DataFrame({
        key_col: merged[key_col],
        "distinct_est": [
            _hll_estimate_md5(np.frombuffer(b, np.int8), m)
            for b in merged["regs"]]})
    out["distinct_est"] = out["distinct_est"].astype("float64")
    return out.sort_values(key_col).reset_index(drop=True)


def hll_distinct(ds, col: str, p: int = 12, hash: str = "stable"):
    """HyperLogLog distinct-count sketch → (estimate, registers).

    Per batch: one vectorized stable hash (`pd.util.hash_array`, fixed
    key — identical across workers and runs, so the estimate is
    DETERMINISTIC), registers = per-bucket max leading-zero rank; the
    2^p-byte register arrays merge by elementwise max (one tiny row per
    batch moves, never the column). Standard HLL bias correction for
    the small-range regime (linear counting) and the 64-bit hash large
    range. Relative error ≈ 1.04/√(2^p) (~1.6% at p=12).

    ``hash="md5"`` (p=12 only) makes the whole sketch ORACLE-CHECKABLE:
    the 64-bit hash is the first 16 hex nibbles of md5(str(value)), the
    bucket is the first 3 nibbles, and the leading-zero rank of the
    remaining 13 nibbles is computed by EXACT nibble arithmetic (no
    float log anywhere); the register sum Σ2^-reg is accumulated as the
    exact integer Σ2^(63-reg) so the estimate is a single pinned float
    expression a DuckDB twin reproduces bit-for-bit (q_hll_users)."""
    m = 1 << p
    if hash == "md5" and p != 12:
        raise ValueError("md5-hash HLL is pinned to p=12 (3 hex nibbles)")

    def partial_md5(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"regs": [_md5_registers(df[col], m, p)
                                      .tobytes()]})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_array(df[col].to_numpy())     # uint64, stable
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
        # vectorized leading-zero count: float64 log2 is only exact to 52
        # mantissa bits, so compute it on the TOP 52 bits (rest>>12) —
        # exact there. Ranks deeper than 52 (probability 2^-52 per item)
        # clamp to 52; the bias is far below the sketch's own error.
        top = (rest >> np.uint64(12)).astype(np.uint64)
        fl = np.floor(np.log2(np.maximum(top, 1).astype(np.float64)))
        lz = (51 - fl).astype(np.int64)
        ranks = np.minimum(lz + 1, 64 - p + 1)
        g = pd.DataFrame({"i": idx, "r": ranks}).groupby("i")["r"].max()
        reg = np.zeros(m, np.int8)
        reg[g.index.to_numpy()] = g.to_numpy().astype(np.int8)
        return pd.DataFrame({"regs": [reg.tobytes()]})

    fn = partial_md5 if hash == "md5" else partial
    merged = ds.map_batches(fn, batch_format="pandas").to_pandas()
    regs = np.zeros(m, np.int8)
    for b in merged["regs"]:
        regs = np.maximum(regs, np.frombuffer(b, np.int8))
    alpha = 0.7213 / (1 + 1.079 / m)
    zeros = int((regs == 0).sum())
    if hash == "md5":
        # exact-integer register sum: Σ2^-reg = S / 2^63, S exact
        import math

        s = sum(1 << (63 - int(r)) for r in regs)
        est = alpha * float(m * m) * (float(1 << 63) / float(s))
        if est <= 2.5 * m and zeros:         # linear counting, pinned tree
            est = float(m) * math.log(float(m) / float(zeros))
        return float(est), regs
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    if est <= 2.5 * m:                       # small-range: linear counting
        if zeros:
            est = m * np.log(m / zeros)
    return float(est), regs


def triangle_count(edges_ds, s_col: str = "s", o_col: str = "o",
                   num_buckets: int = 64, max_neighbors: int = 1000):
    """Distributed triangle counting (compact-forward / node-iterator on
    the id-oriented graph): edges orient u<v and dedup in ONE bucketed
    shuffle; wedges (v, w) are emitted per source vertex u from its
    (id-ordered) out-neighborhood; a bucketed semi-join of the wedge list
    against the edge set closes the triangles. Orientation bounds each
    out-neighborhood by the vertex's higher-id degree; a vertex exceeding
    max_neighbors (a hub whose wedge fan-out would be O(d^2)) is dropped
    with a log line — same giant-bucket policy as the LSH exchanges.

    Returns the triangle count as an int.
    """
    import logging

    log = logging.getLogger(__name__)
    edges = _orient_dedup_edges(edges_ds, s_col, o_col, num_buckets) \
        .materialize()                # reused twice below (invariant 10)

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        out_v, out_w = [], []
        for _, g in df.groupby("u", sort=False):
            nb = np.sort(g["v"].to_numpy())
            if len(nb) < 2:
                continue
            if len(nb) > max_neighbors:
                log.warning("triangle_count: dropping hub u with %d "
                            "out-neighbors (max_neighbors=%d)",
                            len(nb), max_neighbors)
                continue
            ia, ib = np.triu_indices(len(nb), 1)
            out_v.append(nb[ia])
            out_w.append(nb[ib])
        if not out_v:
            return pd.DataFrame({"u2": np.empty(0, np.int64),
                                 "v2": np.empty(0, np.int64)})
        return pd.DataFrame({"u2": np.concatenate(out_v),
                             "v2": np.concatenate(out_w)})

    wedge_ds = bucket_exchange(edges, ["u"], wedges, num_buckets, "pandas")

    def key_pairs(df: pd.DataFrame, a: str, b: str) -> pd.DataFrame:
        return pd.DataFrame(
            {"k": df[a].astype(str) + ":" + df[b].astype(str)})

    closed = semi_join(
        wedge_ds.map_batches(lambda df: key_pairs(df, "u2", "v2"),
                             batch_format="pandas"),
        edges.map_batches(lambda df: key_pairs(df, "u", "v"),
                          batch_format="pandas"),
        left_key="k", right_key="k")
    return closed.count()


def profile_columns(ds, cols: list[str]):
    """Dataset profiler — the distributed DESCRIBE a 100-TB ingest needs
    before any pipeline runs: per numeric column -> row count, null count,
    exact distinct count, min, max (extremes as float64 for a uniform
    long-format schema).

    Two streaming passes, nothing corpus-sized on the driver:
      1. per-batch (rows, nulls, min, max) partials -> one tiny
         len(cols)-group aggregate;
      2. per-batch per-column distinct partial -> ONE bucketed exchange on
         hash(col, value) -> per-bucket dedup + count -> tiny sum.
    Returns a pandas DataFrame (len(cols) rows — a small result).
    """
    from ray.data.aggregate import Max, Min, Sum

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            s = df[c]
            nn = s.dropna()
            rows.append({
                "col_name": c, "n_rows": np.int64(len(s)),
                "n_null": np.int64(s.isna().sum()),
                "min_v": float(nn.min()) if len(nn) else np.inf,
                "max_v": float(nn.max()) if len(nn) else -np.inf})
        return pd.DataFrame(rows)

    stats = (ds.map_batches(stat_partial, batch_format="pandas")
             .groupby("col_name")
             .aggregate(Sum("n_rows", alias_name="n_rows"),
                        Sum("n_null", alias_name="n_null"),
                        Min("min_v", alias_name="min_v"),
                        Max("max_v", alias_name="max_v"))
             .to_pandas())

    def distinct_partial(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            u = pd.unique(df[c].dropna().astype("float64"))
            frames.append(pd.DataFrame({"col_name": c, "val": u}))
        return pd.concat(frames, ignore_index=True)

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["col_name", "val"])
        g = d.groupby("col_name", sort=False).size()
        return pd.DataFrame({"col_name": g.index.to_numpy(),
                             "n_distinct": g.to_numpy(dtype=np.int64)})

    dist = (bucket_exchange(
                ds.map_batches(distinct_partial, batch_format="pandas"),
                ["col_name", "val"], count_part, 64, "pandas")
            .groupby("col_name")
            .aggregate(Sum("n_distinct", alias_name="n_distinct"))
            .to_pandas())

    out = stats.merge(dist, on="col_name", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_null"] = out["n_null"].astype("int64")
    out = out[["col_name", "n_rows", "n_null", "n_distinct",
               "min_v", "max_v"]]
    return out.sort_values("col_name").reset_index(drop=True)


def late_data_window_counts(ds, ts_us_col: str, arrival_us_col: str,
                            id_col: str, window_us: int, lateness_us: int,
                            bucket_us: int = 3_600_000_000):
    """Streaming tumbling-window aggregate with WATERMARK semantics,
    replayed deterministically over a bounded table: events are processed
    in arrival order (ties by id); the watermark before event i is
    max(event-time of all j arriving strictly before i) − allowed
    lateness; an event whose tumbling window has already closed
    (window_end ≤ watermark) is counted late and dropped, everything
    else lands in its window.

    Distributed shape — the global prefix-max never requires a global
    ordered scan: arrival time is range-bucketed (bucket_us), a tiny
    per-bucket max-event-time table comes back to the driver (one row
    per bucket — bounded by the stream's time span, not its row count),
    an exclusive running max over ordered buckets is broadcast back, and
    each bucket replays its own events exactly (in-bucket sort +
    exclusive cummax + the carry). One shuffle for the replay, one tiny
    aggregate for the windows.

    Returns (window_start_us, n_kept, n_late) sorted by window.
    """
    from ray.data.aggregate import Max, Sum

    def bmax_partial(df: pd.DataFrame) -> pd.DataFrame:
        b = df[arrival_us_col].to_numpy() // bucket_us
        g = pd.DataFrame({"b": b, "t": df[ts_us_col].to_numpy()}) \
            .groupby("b", sort=False)["t"].max()
        return pd.DataFrame({"b": g.index.to_numpy(dtype=np.int64),
                             "t": g.to_numpy(dtype=np.int64)})

    bmax = (ds.map_batches(bmax_partial, batch_format="pandas")
            .groupby("b").aggregate(Max("t", alias_name="t")).to_pandas())
    bmax = bmax.sort_values("b").reset_index(drop=True)
    # exclusive prefix max over ordered buckets: carry[b] = max ts of all
    # STRICTLY EARLIER buckets
    carry = {}
    # -inf sentinel at int64.min//4: far below any epoch-us value, but
    # `sentinel - lateness_us` cannot wrap (int64.min - L overflows and
    # flags the very first arrival as late)
    run = np.iinfo(np.int64).min // 4
    for _, row in bmax.iterrows():
        carry[int(row["b"])] = run
        run = max(run, int(row["t"]))

    def tag_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b"] = df[arrival_us_col].to_numpy() // bucket_us
        return df

    def replay(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([arrival_us_col, id_col], kind="mergesort")
        ts = df[ts_us_col].to_numpy()
        b = int(df["__b"].iloc[0])
        prev = np.empty(len(ts), dtype=np.int64)
        prev[0] = carry.get(b, np.iinfo(np.int64).min // 4)
        if len(ts) > 1:
            np.maximum.accumulate(ts[:-1], out=prev[1:])
            np.maximum(prev[1:], prev[0], out=prev[1:])
        win = ts // window_us * window_us
        late = (win + window_us) <= (prev - lateness_us)
        out = pd.DataFrame({"window_start_us": win,
                            "n_kept": (~late).astype(np.int64),
                            "n_late": late.astype(np.int64)})
        return (out.groupby("window_start_us", sort=False, as_index=False)
                [["n_kept", "n_late"]].sum())

    return (bucket_exchange(ds.map_batches(tag_bucket, batch_format="pandas"),
                            ["__b"], each_group("__b", replay), 64, "pandas")
            .groupby("window_start_us")
            .aggregate(Sum("n_kept", alias_name="n_kept"),
                       Sum("n_late", alias_name="n_late"))
            .sort("window_start_us"))


def _cms_positions(vals: pd.Series, depth: int, width: int) -> np.ndarray:
    """Deterministic md5-derived bucket per (value, row): row r uses the
    first 2 hex nibbles of md5(f"{v}:{r}") (width <= 256). Returns an
    (n, depth) int array. Shared nibble-for-nibble with the SQL twin."""
    import hashlib

    out = np.empty((len(vals), depth), dtype=np.int64)
    for r in range(depth):
        out[:, r] = [int(hashlib.md5(f"{v}:{r}".encode()).hexdigest()[:2],
                         16) % width for v in vals]
    return out


def count_min_sketch(ds, col: str, probes: list, depth: int = 4,
                     width: int = 256):
    """Count-Min Sketch (Cormode & Muthukrishnan 2005) — the mergeable
    point-frequency sketch for 100-TB streams: each batch contributes a
    depth×width integer partial (one np.add.at pass over per-batch value
    counts), partials merge by elementwise sum through ONE tiny
    grouped aggregate (depth·width rows total), and point queries read
    min over rows. Estimates are deterministic (md5-derived buckets) and
    always >= the true count; the DuckDB twin reproduces the registers
    bit-for-bit.

    Returns a pandas DataFrame (probe key, est) — driver-small.
    """
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[col].value_counts()
        pos = _cms_positions(pd.Series(vc.index), depth, width)
        cnt = vc.to_numpy(dtype=np.int64)
        sk = np.zeros((depth, width), dtype=np.int64)
        for r in range(depth):
            np.add.at(sk[r], pos[:, r], cnt)
        rr, bb = np.nonzero(sk)
        return pd.DataFrame({"r": rr.astype("int64"),
                             "b": bb.astype("int64"),
                             "c": sk[rr, bb]})

    regs = (ds.map_batches(partial, batch_format="pandas")
            .groupby(["r", "b"]).aggregate(Sum("c", alias_name="c"))
            .to_pandas())
    sk = np.zeros((depth, width), dtype=np.int64)
    sk[regs["r"].to_numpy(), regs["b"].to_numpy()] = regs["c"].to_numpy()
    ppos = _cms_positions(pd.Series(probes), depth, width)
    est = sk[np.arange(depth)[None, :], ppos].min(axis=1)
    return pd.DataFrame({col: probes, "est": est.astype("int64")})


def _pagerank_broadcast(edges, nodes, n: int, iters: int, damping: float,
                        src: str, dst: str):
    """Broadcast regime of :func:`pagerank`: node-indexed score/outdeg
    vectors on the driver (bounded by broadcast_max), edges streamed
    once per round via ray.put'd score vectors."""
    import ray
    import ray.data as rd

    ids = np.sort(nodes.to_pandas()["node"].to_numpy(dtype=np.int64))
    idx_ref = ray.put(ids)

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[src].value_counts()
        return pd.DataFrame({"node": vc.index.to_numpy(dtype=np.int64),
                             "deg": vc.to_numpy(dtype=np.int64)})

    degp = edges.map_batches(deg_partial, batch_format="pandas") \
        .to_pandas().groupby("node")["deg"].sum()
    deg = np.zeros(n, dtype=np.int64)
    deg[np.searchsorted(ids, degp.index.to_numpy())] = degp.to_numpy()
    deg_ref = ray.put(deg)

    scores = np.full(n, 1.0 / n, dtype=np.float64)
    base = (1.0 - damping) / n
    for _ in range(iters):
        s_ref = ray.put(scores)

        def contrib_partial(df: pd.DataFrame, s_ref=s_ref,
                            idx_ref=idx_ref,
                            deg_ref=deg_ref) -> pd.DataFrame:
            ids_w = ray.get(idx_ref)
            sc = ray.get(s_ref)
            dg = ray.get(deg_ref)
            sp = np.searchsorted(ids_w, df[src].to_numpy())
            dp = np.searchsorted(ids_w, df[dst].to_numpy())
            w = sc[sp] / dg[sp]            # deg>0 for every edge source
            out = np.zeros(len(ids_w), dtype=np.float64)
            np.add.at(out, dp, w)
            nz = np.nonzero(out)[0]
            return pd.DataFrame({"p": nz.astype(np.int64), "c": out[nz]})

        part = edges.map_batches(contrib_partial,
                                 batch_format="pandas").to_pandas()
        contrib = np.zeros(n, dtype=np.float64)
        if len(part):
            np.add.at(contrib, part["p"].to_numpy(), part["c"].to_numpy())
        dangling = float(scores[deg == 0].sum())
        scores = base + damping * (contrib + dangling / n)
    out = pd.DataFrame({"node": ids,
                        "score": np.round(scores, 9)})
    return rd.from_pandas(out)


def hits(edges_ds, iters: int = 3, num_partitions: int | None = None,
         src: str = "src", dst: str = "dst",
         broadcast_max: int = 500_000):
    """Distributed HITS (Kleinberg 1999, hubs & authorities) by power
    iteration → Dataset of (node, hub, auth), rounded to 9 decimals so
    the unrolled SQL oracle twin hash-matches despite summation-order
    ulps.

    Update rule pinned for the oracle: hub_0(u)=1 for every node; per
    round, auth'(v)=Σ_{u→v} hub(u) then L1-normalized
    (auth = auth'/Σauth'), then hub'(u)=Σ_{u→v} auth(v), L1-normalized.
    A graph with edges always has Σ>0; an edgeless input raises
    upstream (no nodes).

    Scale shape mirrors :func:`pagerank`: a node-bounded broadcast
    regime (score vectors via ray.put, edges streamed once per
    half-step with np.add.at partials) under ``broadcast_max`` nodes;
    above it, each half-step is ONE hash join (edges ⋈ scores) + ONE
    bucketed sum + a scalar L1 total — nothing node-shaped lands on the
    driver."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    P = num_partitions or _default_partitions()
    e_schema = pa.schema([(src, pa.int64()), (dst, pa.int64())])
    edges = materialize_normalized(
        edges_ds.map_batches(
            lambda df: df[[src, dst]].astype("int64"),
            batch_format="pandas"), e_schema)
    nodes = materialize_normalized(
        distinct_keys(
            edges.map_batches(lambda df: pd.DataFrame(
                {"node": np.concatenate([df[src].to_numpy(),
                                         df[dst].to_numpy()])}),
                batch_format="pandas"), "node"),
        pa.schema([("node", pa.int64())]))
    n = nodes.count()
    if n == 0:
        raise ValueError("hits on an empty edge set")
    if n <= broadcast_max:
        return _hits_broadcast(edges, nodes, n, iters, src, dst)

    s_schema = pa.schema([("node", pa.int64()), ("score", pa.float64())])
    c_schema = pa.schema([("node", pa.int64()), ("c", pa.float64())])

    def half_step(scores, key_in, key_out):
        # contrib(v) = Σ_{edge} score(key_in endpoint); then L1-normalize
        contrib = materialize_normalized(
            edges.map_batches(
                lambda df: df.rename(columns={key_in: "node"}),
                batch_format="pandas")
            .join(scores, "inner", P, on=("node",))
            .map_batches(lambda df: pd.DataFrame(
                {"node": df[key_out].astype("int64"),
                 "c": df["score"].to_numpy()}), batch_format="pandas")
            .groupby("node").aggregate(Sum(on="c", alias_name="c")),
            c_schema)
        total = float(contrib.map_batches(
            lambda df: pd.DataFrame({"s": [float(df["c"].sum())]}),
            batch_format="pandas").to_pandas()["s"].sum())
        return materialize_normalized(
            nodes.join(contrib, "left_outer", P, on=("node",))
            .map_batches(lambda df, t=total: pd.DataFrame(
                {"node": df["node"].astype("int64"),
                 "score": df["c"].fillna(0.0).to_numpy() / t}),
                batch_format="pandas"), s_schema)

    hubs = materialize_normalized(
        nodes.map_batches(lambda df: df.assign(score=1.0),
                          batch_format="pandas"), s_schema)
    auths = None
    for _ in range(iters):
        auths = half_step(hubs, src, dst)
        hubs = half_step(auths, dst, src)
    return materialize_normalized(
        hubs.map_batches(lambda df: df.rename(columns={"score": "hub"}),
                         batch_format="pandas")
        .join(auths.map_batches(
            lambda df: df.rename(columns={"score": "auth"}),
            batch_format="pandas"), "inner", P, on=("node",)),
        pa.schema([("node", pa.int64()), ("hub", pa.float64()),
                   ("auth", pa.float64())])) \
        .map_batches(lambda df: pd.DataFrame(
            {"node": df["node"].astype("int64"),
             "hub": df["hub"].round(9),
             "auth": df["auth"].round(9)}), batch_format="pandas")


def _hits_broadcast(edges, nodes, n: int, iters: int, src: str, dst: str):
    """Broadcast regime of :func:`hits`: node-indexed hub/auth vectors
    on the driver (bounded by broadcast_max), edges streamed once per
    half-step via ray.put'd score vectors."""
    import ray
    import ray.data as rd

    ids = np.sort(nodes.to_pandas()["node"].to_numpy(dtype=np.int64))
    idx_ref = ray.put(ids)

    def propagate(scores, key_in, key_out):
        s_ref = ray.put(scores)

        def partial(df: pd.DataFrame, s_ref=s_ref,
                    idx_ref=idx_ref) -> pd.DataFrame:
            ids_w = ray.get(idx_ref)
            sc = ray.get(s_ref)
            ip = np.searchsorted(ids_w, df[key_in].to_numpy())
            op = np.searchsorted(ids_w, df[key_out].to_numpy())
            out = np.zeros(len(ids_w), dtype=np.float64)
            np.add.at(out, op, sc[ip])
            nz = np.nonzero(out)[0]
            return pd.DataFrame({"p": nz.astype(np.int64), "c": out[nz]})

        part = edges.map_batches(partial, batch_format="pandas").to_pandas()
        out = np.zeros(n, dtype=np.float64)
        if len(part):
            np.add.at(out, part["p"].to_numpy(), part["c"].to_numpy())
        return out / out.sum()

    hubs = np.ones(n, dtype=np.float64)
    auths = np.zeros(n, dtype=np.float64)
    for _ in range(iters):
        auths = propagate(hubs, src, dst)
        hubs = propagate(auths, dst, src)
    return rd.from_pandas(pd.DataFrame(
        {"node": ids, "hub": np.round(hubs, 9),
         "auth": np.round(auths, 9)}))


def ams_f2(ds, col: str, r: int = 17):
    """Tug-of-war / AMS second-frequency-moment sketch (Alon, Matias &
    Szegedy 1996): F2 = sum over distinct values of f_v^2 estimated from
    ``r`` independent +/-1 counters. Counter j accumulates
    ``sum_v f_v * sign_j(v)`` where ``sign_j(v) = +1`` when the first
    hex nibble of ``md5(f"{v}:{j}")`` is even, else -1 — the same
    md5-nibble idiom as the CMS buckets, so the DuckDB twin rebuilds the
    counters bit-for-bit. The estimate is the LOWER MEDIAN of the r
    squared counters (index (r-1)//2 of the sorted squares; r odd), an
    exact integer with no averaging, so the APPROXIMATION ITSELF is
    oracle-checkable.

    Mergeable shape: each batch emits one r-vector of integer counter
    partials (r rows move per batch); partials merge by elementwise sum
    through one tiny grouped aggregate — the same driver-bounded
    sketch-merge state as CMS/HLL/KMV here. Returns a 1-row DataFrame
    (est_f2, median_counter_abs, n_counters)."""
    import hashlib

    from ray.data.aggregate import Sum

    def signs(vals: pd.Series) -> np.ndarray:
        out = np.empty((len(vals), r), dtype=np.int64)
        for j in range(r):
            out[:, j] = [1 - 2 * (int(hashlib.md5(
                f"{v}:{j}".encode()).hexdigest()[:1], 16) % 2)
                for v in vals]
        return out

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[col].value_counts()
        sg = signs(pd.Series(vc.index))
        c = sg.T @ vc.to_numpy(dtype=np.int64)
        return pd.DataFrame({"j": np.arange(r, dtype=np.int64), "c": c})

    regs = (ds.map_batches(partial, batch_format="pandas")
            .groupby("j").aggregate(Sum("c", alias_name="c")).to_pandas())
    counters = np.zeros(r, dtype=np.int64)
    counters[regs["j"].to_numpy()] = regs["c"].to_numpy()
    sq = np.sort(counters ** 2)
    med = int(sq[(r - 1) // 2])
    return pd.DataFrame({"est_f2": [np.int64(med)],
                         "median_counter_abs": [np.int64(
                             int(np.sqrt(med)))],
                         "n_counters": [np.int64(r)]})


def kmv_set_ops(ds_a, ds_b, col: str, k: int = 64):
    """Theta-sketch-style SET OPERATIONS on two KMV sketches (the
    union/intersection estimators of Beyer et al. 2007 / the
    DataSketches theta family): build :func:`kmv_distinct`-shaped
    sketches of A and B (48-bit md5-prefix hashes, exact integer
    arithmetic), then

      * union estimate = the plain KMV estimate over the k smallest
        hashes of A ∪ B (distinct-union of the two sketch sets);
      * intersection estimate = rho * est_union // k where rho counts
        the union-sketch hashes present in BOTH sketches (the Jaccard
        estimator over the combined sample, scaled by the union).

    Everything stays 48-bit integers (estimates use // floor division),
    so the DuckDB twin reproduces union AND intersection estimates
    bit-for-bit — the approximation itself is the pinned contract.
    Below k distinct values the sketch degenerates to the exact set and
    both estimates are exact by construction.

    Shape: two streaming k-smallest partial passes (≤ k rows per batch
    move per side), driver-bounded merge — no shuffle. Returns a 1-row
    DataFrame (est_union, est_intersect, rho, k_used)."""
    import hashlib

    def sketch(ds) -> np.ndarray:
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            h = df[col].astype(str).map(lambda s: int(
                hashlib.md5(s.encode()).hexdigest()[:12], 16))
            u = np.unique(h.to_numpy())
            return pd.DataFrame({"h": u[:k].astype("int64")})

        parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
        return np.unique(parts["h"].to_numpy())[:k]

    ka, kb = sketch(ds_a), sketch(ds_b)
    union = np.unique(np.concatenate([ka, kb]))
    if len(union) >= k:
        cut = union[:k]
        est_union, k_used = (k - 1) * (1 << 48) // int(cut[k - 1]), k
    else:
        cut = union
        est_union, k_used = len(union), len(union)
    in_both = np.isin(cut, ka) & np.isin(cut, kb)
    rho = int(in_both.sum())
    if k_used and k_used < k:
        est_intersect = rho          # exact regime: cut IS the union set
    else:
        est_intersect = rho * est_union // k if k_used else 0
    return pd.DataFrame({"est_union": [np.int64(est_union)],
                         "est_intersect": [np.int64(est_intersect)],
                         "rho": [np.int64(rho)],
                         "k_used": [np.int64(k_used)]})


def _orient_dedup_edges(edges_ds, s_col: str, o_col: str,
                        num_buckets: int):
    """Shared edge normalizer for the undirected-graph ops: orient u<v,
    drop self-loops, global dedup in ONE bucket exchange (the front end
    of :func:`triangle_count`, :func:`kcore` and the neighborhood ops)."""
    def orient(df: pd.DataFrame) -> pd.DataFrame:
        s = df[s_col].to_numpy()
        o = df[o_col].to_numpy()
        u, v = np.minimum(s, o), np.maximum(s, o)
        keep = u != v
        return pd.DataFrame({"u": u[keep], "v": v[keep]})

    return distinct_rows(edges_ds.map_batches(orient, batch_format="pandas"),
                         ["u", "v"], num_buckets)


def _adjacency(df: pd.DataFrame) -> pd.DataFrame:
    """Oriented (u, v) edges → both directions as (z, nb) rows."""
    z = pd.concat([df["u"], df["v"]], ignore_index=True)
    nb = pd.concat([df["v"], df["u"]], ignore_index=True)
    return pd.DataFrame({"z": z.to_numpy(np.int64),
                         "nb": nb.to_numpy(np.int64)})


def _edge_degrees(edges, num_buckets: int):
    """(node, d) undirected degrees of an oriented (u, v) edge Dataset:
    per-batch partial value_counts over both endpoints, ONE bucket
    exchange combine (invariant 4: high-cardinality group-by goes
    through the exchange, not Ray's hash aggregate)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = pd.concat([df["u"], df["v"]],
                       ignore_index=True).value_counts()
        return pd.DataFrame({"node": vc.index.to_numpy(np.int64),
                             "d": vc.to_numpy(np.int64)})

    return sum_by_key(edges.map_batches(partial, batch_format="pandas"),
                      ["node"], ["d"], num_buckets)


def kcore(edges_ds, k: int = 3, rounds: int = 4, s_col: str = "s",
          o_col: str = "o", num_buckets: int = 64):
    """k-core decomposition by iterative peeling (Seidman 1983 /
    Batagelj-Zaversnik): repeatedly drop every vertex of degree < k and
    every edge touching one, for a FIXED number of peel rounds — the
    bounded-round contract (like the unrolled k-means) that the DuckDB
    twin reproduces exactly; peeling is monotone, so stopping early at
    the fixpoint (no vertex dropped in a round) returns the identical
    result to running all rounds.

    Per round: one bucketed degree combine + two size-aware semi-joins
    (ops.semi_join broadcasts the surviving node set when small). The
    edge Dataset is re-consumed across rounds, so each round's survivor
    set materializes ONCE (invariant 10). Returns a Dataset of
    (node, deg) — degree WITHIN the surviving core after ``rounds``
    peels."""
    edges = _orient_dedup_edges(edges_ds, s_col, o_col,
                                num_buckets).materialize()
    for _ in range(rounds):
        deg = _edge_degrees(edges, num_buckets).materialize()

        def survivors(df: pd.DataFrame) -> pd.DataFrame:
            return df.loc[df["d"] >= k, ["node"]]

        keep = deg.map_batches(survivors,
                               batch_format="pandas").materialize()
        if keep.count() == deg.count():
            break                      # fixpoint: nothing peeled
        if keep.count() == 0:
            import ray.data as rd
            return rd.from_pandas(pd.DataFrame({
                "node": np.empty(0, np.int64),
                "d": np.empty(0, np.int64)}))
        edges = semi_join(edges, keep, "u", "node")
        edges = semi_join(edges, keep, "v", "node").materialize()
    return _edge_degrees(edges, num_buckets)


def ra_link_scores(edges_ds, s_col: str = "s", o_col: str = "o",
                   num_buckets: int = 64, max_degree: int = 1000):
    """Common-neighbors + resource-allocation link prediction (the
    Liben-Nowell & Kleinberg 2003 neighborhood scores; RA is Zhou, Lü &
    Zhang 2009): for every NON-adjacent pair (p, q) sharing ≥1 neighbor,
    cn = |N(p) ∩ N(q)| and ra_micro = Σ_z 10^6 // deg(z) over the shared
    neighbors z — integer micro-units, so the score itself is
    oracle-exact (no float 1/log noise; RA uses plain 1/deg).

    Shape: adjacency rows bucket by the shared neighbor z; deg(z) is the
    z-group's own size (no degree join needed); each z emits its
    id-ordered neighbor pairs (the triangle_count wedge pattern, with
    the same hub cap: z with deg > max_degree is dropped — the cap is
    part of the contract and mirrored in the twin's HAVING). Pair
    partials combine in ONE pair-bucketed shuffle; existing edges leave
    via a size-aware anti semi-join. Returns a Dataset (p, q, cn,
    ra_micro)."""
    edges = _orient_dedup_edges(edges_ds, s_col, o_col,
                                num_buckets).materialize()

    def wedge_scores(df: pd.DataFrame) -> pd.DataFrame:
        out_p, out_q, out_ra = [], [], []
        for _, g in df.groupby("z", sort=False):
            d = len(g)
            if d < 2 or d > max_degree:
                continue
            nb = np.sort(g["nb"].to_numpy())
            ia, ib = np.triu_indices(d, 1)
            out_p.append(nb[ia])
            out_q.append(nb[ib])
            out_ra.append(np.full(len(ia), 1_000_000 // d,
                                  dtype=np.int64))
        if not out_p:
            return pd.DataFrame({"p": np.empty(0, np.int64),
                                 "q": np.empty(0, np.int64),
                                 "cn": np.empty(0, np.int64),
                                 "ra_micro": np.empty(0, np.int64)})
        return pd.DataFrame({"p": np.concatenate(out_p),
                             "q": np.concatenate(out_q),
                             "cn": np.ones(sum(map(len, out_p)),
                                           dtype=np.int64),
                             "ra_micro": np.concatenate(out_ra)})

    partial = bucket_exchange(
        edges.map_batches(_adjacency, batch_format="pandas"), ["z"],
        wedge_scores, num_buckets, "pandas")
    scores = sum_by_key(partial, ["p", "q"], ["cn", "ra_micro"], num_buckets)

    def with_pk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pk"] = df["p"].astype(str) + ":" + df["q"].astype(str)
        return df

    def with_ek(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"ek": df["u"].astype(str) + ":"
                             + df["v"].astype(str)})

    keyed = scores.map_batches(with_pk, batch_format="pandas")
    ekeys = edges.map_batches(with_ek, batch_format="pandas")
    out = semi_join(keyed, ekeys, "pk", "ek", anti=True)
    return out.map_batches(lambda df: df.drop(columns=["pk"]),
                           batch_format="pandas")


def nb_classify(ds, feature_cols: list[str], class_col: str,
                test_col: str, id_col: str, smoothing: int = 1):
    """Multinomial Naive Bayes over PRESENCE features with an
    EXACT-integer argmax (McCallum & Nigam 1998's multinomial model,
    restricted to a closed feature set): train on rows where
    ``test_col`` is false — per-class doc counts n_c and per-feature
    presence counts c_jc — then classify the held-out rows by

        score(d, c) = n_c · Π_{j present in d} (c_jc + s) / (tot_c + sF)

    Instead of summing float logs (libm differs between numpy and any
    SQL oracle), candidate classes compare by CROSS-MULTIPLICATION:
    c beats c' iff num_c · den_c' > num_c' · den_c, all arbitrary-
    precision Python ints (the oracle twin mirrors it in HUGEINT —
    bounded because the feature set is closed). Ties break to the
    smaller class id. The argmax is therefore bit-exact at any scale.

    Shape: ONE streaming pass emits tiny per-batch count partials
    (classes × (features+1) numbers); the learned table — bounded by
    the closed feature set — broadcasts back inside a second streaming
    pass that classifies per-batch via a pattern-indexed lookup (2^F
    patterns precomputed exactly on the driver). Returns a Dataset of
    (id_col, true_cls, pred_cls) for the test rows."""
    import itertools

    F = len(feature_cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tr = df[~df[test_col].astype(bool)]
        g = tr.groupby(class_col)
        out = g[feature_cols].sum().astype("int64")
        out["n"] = g.size().astype("int64")
        return out.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    model = parts.groupby(class_col, as_index=False).sum()
    classes = model[class_col].tolist()
    n_c = {r[class_col]: int(r["n"]) for _, r in model.iterrows()}
    cnt = {r[class_col]: [int(r[f]) for f in feature_cols]
           for _, r in model.iterrows()}
    tot = {c: sum(cnt[c]) for c in classes}

    def pred_for(pattern: tuple) -> int:
        k = sum(pattern)
        best = None
        for c in sorted(classes):
            num = n_c[c]
            for j, p in enumerate(pattern):
                if p:
                    num *= cnt[c][j] + smoothing
            den = (tot[c] + smoothing * F) ** k
            if best is None or num * best[2] > best[1] * den:
                best = (c, num, den)
        return best[0]

    table = {pat: pred_for(pat)
             for pat in itertools.product((0, 1), repeat=F)}

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        te = df[df[test_col].astype(bool)]
        key = np.zeros(len(te), dtype=np.int64)
        for j, f in enumerate(feature_cols):
            key = key * 2 + te[f].astype("int64").to_numpy()
        lut = np.array([table[pat] for pat in sorted(table)],
                       dtype=np.int64)
        # sorted(table) enumerates patterns in binary order: key works
        return pd.DataFrame({
            id_col: te[id_col].astype("int64").to_numpy(),
            "true_cls": te[class_col].astype("int64").to_numpy(),
            "pred_cls": lut[key]})

    return ds.map_batches(classify, batch_format="pandas")


def interval_join(left_ds, right_ds, start: str = "s", end: str = "e",
                  id_col: str = "id",
                  bucket_width_us: int = 3_600_000_000,
                  num_buckets: int = 64):
    """Distributed INTERVAL-OVERLAP join (the temporal/genomic range-
    intersect the Dataset API has no operator for): for every left
    interval, the right intervals with ``l.s <= r.e AND r.s <= l.e``
    (closed-interval overlap), reduced to per-left stats.

    Shape: each interval REPLICATES into every time bucket its span
    touches (halo factor = span/W + 1 — bounded when spans are bounded,
    the genomics/AsOf standard); a candidate pair is counted ONLY in
    the canonical bucket containing max(l.s, r.s), so no dedup exchange
    is needed. Inside a group: sort rights by start, searchsorted upper
    bound (r.s <= l.e), vectorized expansion, overlap/canonical filter.
    ONE shuffle total. Returns a Dataset (id_col, n_overlaps,
    sum_overlap_us) for left intervals with >= 1 overlap."""
    def tag(side: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            s = df[start].astype("int64").to_numpy()
            e = df[end].astype("int64").to_numpy()
            ids = df[id_col].astype("int64").to_numpy()
            b0 = s // bucket_width_us
            b1 = e // bucket_width_us
            reps = (b1 - b0 + 1).astype(np.int64)
            rid = np.repeat(ids, reps)
            rs = np.repeat(s, reps)
            re_ = np.repeat(e, reps)
            tb = np.repeat(b0, reps) + _ragged_arange(reps)
            return pd.DataFrame({id_col: rid, "__s": rs, "__e": re_,
                                 "__tb": tb, "__side": np.int8(side)})
        return f

    def overlap(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for tb, g in df.groupby("__tb", sort=False):
            lhs = g[g["__side"] == 0]
            rhs = g[g["__side"] == 1]
            if not len(lhs) or not len(rhs):
                continue
            r = rhs.sort_values("__s")
            rss = r["__s"].to_numpy()
            res = r["__e"].to_numpy()
            rid = r[id_col].to_numpy()
            ls = lhs["__s"].to_numpy()
            le = lhs["__e"].to_numpy()
            lid = lhs[id_col].to_numpy()
            hi = np.searchsorted(rss, le, side="right")  # r.s <= l.e
            li = np.repeat(np.arange(len(lhs)), hi)
            ri = _ragged_arange(hi)
            keep = res[ri] >= ls[li]                     # r.e >= l.s
            li, ri = li[keep], ri[keep]
            canon = np.maximum(ls[li], rss[ri]) // bucket_width_us == tb
            li, ri = li[canon], ri[canon]
            if not len(li):
                continue
            ov = np.minimum(le[li], res[ri]) \
                - np.maximum(ls[li], rss[ri])
            outs.append(pd.DataFrame({
                id_col: lid[li], "__rid": rid[ri],
                "__ov": ov.astype("int64")}))
        if not outs:
            return pd.DataFrame({
                id_col: pd.Series([], dtype="int64"),
                "n_overlaps": pd.Series([], dtype="int64"),
                "sum_overlap_us": pd.Series([], dtype="int64")})
        pairs = pd.concat(outs, ignore_index=True)
        g = pairs.groupby(id_col)["__ov"].agg(["count", "sum"])
        return pd.DataFrame({
            id_col: g.index.to_numpy(np.int64),
            "n_overlaps": g["count"].to_numpy(np.int64),
            "sum_overlap_us": g["sum"].to_numpy(np.int64)})

    tl = left_ds.map_batches(tag(0), batch_format="pandas")
    tr = right_ds.map_batches(tag(1), batch_format="pandas")
    partial = bucket_exchange(tl.union(tr), ["__tb"], overlap, num_buckets,
                              "pandas")
    # a left interval spanning several buckets can collect overlaps in
    # each — tiny per-left partials fold in one more small combine
    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, as_index=False)[
            ["n_overlaps", "sum_overlap_us"]].sum()
        return g.astype({id_col: "int64", "n_overlaps": "int64",
                         "sum_overlap_us": "int64"})

    return bucket_exchange(partial, [id_col], fold, num_buckets, "pandas")


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """[3,1,2] → [0,1,2,0,0,1] — the vectorized per-group arange."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def random_walks(edges_ds, length: int = 4, s_col: str = "s",
                 o_col: str = "o", num_buckets: int = 64):
    """Deterministic random walks (the node2vec/DeepWalk training-data
    prep, Perozzi et al. 2014 / Grover & Leskovec 2016) with md5-derived
    steps so the walks are REPRODUCIBLE and oracle-exact: from every
    node, ``length`` steps where step t from node u goes to the
    id-ordered neighbor at index ``md5(f"{u}:{t}")[:8] % deg(u)`` —
    the same hex-prefix idiom as the sketch family, reproduced verbatim
    by the SQL twin's unrolled joins.

    Shape: adjacency ranks build in ONE bucketed exchange (rank = sort
    index inside the neighbor group, deg = group size); each step is
    one state-to-adjacency bucketed merge (state moves, adjacency is
    re-read pre-bucketed). Walk state is (start, cur) — never the
    corpus. Returns a Dataset (start, step, node), step 0..length."""
    import hashlib

    edges = _orient_dedup_edges(edges_ds, s_col, o_col,
                                num_buckets).materialize()

    def rank_group(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["z", "nb"], kind="mergesort")
        df["rank"] = df.groupby("z").cumcount().astype("int64")
        df["deg"] = df.groupby("z")["nb"].transform("size") \
            .astype("int64")
        return df

    adj = bucket_exchange(edges.map_batches(_adjacency, batch_format="pandas"),
                          ["z"], rank_group, num_buckets,
                          "pandas").materialize()

    def start_state(df: pd.DataFrame) -> pd.DataFrame:
        z = df["z"].drop_duplicates()
        return pd.DataFrame({"start": z.to_numpy(np.int64),
                             "cur": z.to_numpy(np.int64)})

    state = adj.map_batches(start_state,
                            batch_format="pandas").materialize()
    outs = [state.map_batches(
        lambda df: pd.DataFrame({"start": df["start"],
                                 "step": np.int64(0),
                                 "node": df["cur"]}),
        batch_format="pandas")]
    for t in range(1, length + 1):
        # union sides share ONE schema (null-free -1 fills): Ray's
        # union aligns blocks by schema, not by name subsets; the
        # exchange key ``__node`` is the state's cur and the adjacency's z
        _COLS = ["start", "cur", "z", "nb", "rank", "deg"]

        def tag_state(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({c: df[c].astype("int64").to_numpy()
                                if c in ("start", "cur")
                                else np.full(len(df), -1, np.int64)
                                for c in _COLS})
            out["__node"] = out["cur"]
            out["__side"] = np.int8(0)
            return out

        def tag_adj(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({c: df[c].astype("int64").to_numpy()
                                if c in ("z", "nb", "rank", "deg")
                                else np.full(len(df), -1, np.int64)
                                for c in _COLS})
            out["__node"] = out["z"]
            out["__side"] = np.int8(1)
            return out

        def step(df: pd.DataFrame, t=t) -> pd.DataFrame:
            st = df[df["__side"] == 0]
            ad = df[df["__side"] == 1]
            if not len(st) or not len(ad):
                return pd.DataFrame({"start": np.empty(0, np.int64),
                                     "cur": np.empty(0, np.int64)})
            st = st[["start", "cur"]].copy()
            st["pick"] = [
                int(hashlib.md5(f"{int(c)}:{t}".encode())
                    .hexdigest()[:8], 16)
                for c in st["cur"]]
            m = st.merge(ad[["z", "nb", "rank", "deg"]],
                         left_on="cur", right_on="z")
            m = m[m["rank"] == m["pick"] % m["deg"]]
            return pd.DataFrame({
                "start": m["start"].to_numpy(np.int64),
                "cur": m["nb"].to_numpy(np.int64)})

        state = bucket_exchange(
            state.map_batches(tag_state, batch_format="pandas")
            .union(adj.map_batches(tag_adj, batch_format="pandas")),
            ["__node"], step, num_buckets, "pandas").materialize()
        outs.append(state.map_batches(
            lambda df, t=t: pd.DataFrame({"start": df["start"],
                                          "step": np.int64(t),
                                          "node": df["cur"]}),
            batch_format="pandas"))
    out = outs[0]
    for o in outs[1:]:
        out = out.union(o)
    return out


def grid_distance_join(left_ds, right_ds, x: str = "x", y: str = "y",
                       id_col: str = "id", radius: int = 1000,
                       num_buckets: int = 64):
    """Distributed SPATIAL distance join on integer planar coordinates
    (milli-degrees / millimeters — exact arithmetic): for every left
    point, the right points with squared euclidean distance ≤ radius²
    — the geo-enrichment join, grid-partitioned the way every spatial
    engine does it: cells of side ``radius``, each LEFT point probes
    its own cell, each RIGHT point REPLICATES into the 3×3 cell
    neighborhood (halo factor ≤ 9, constant), so every candidate pair
    co-locates in exactly the left point's home cell — counted ONCE,
    no dedup exchange. Inside a cell: vectorized candidate expansion
    via sorted-x searchsorted pruning, then the exact integer distance
    filter. Returns (id_col, n_within, nearest_id, nearest_d2) per
    left point with ≥ 1 match (ties on d2 → smallest neighbor id)."""
    R2 = radius * radius

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        xs = df[x].astype("int64").to_numpy()
        ys = df[y].astype("int64").to_numpy()
        return pd.DataFrame({id_col: df[id_col].astype("int64").to_numpy(),
                             "__x": xs, "__y": ys,
                             "__cx": xs // radius, "__cy": ys // radius,
                             "__side": np.int8(0)})

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        xs = df[x].astype("int64").to_numpy()
        ys = df[y].astype("int64").to_numpy()
        ids = df[id_col].astype("int64").to_numpy()
        n = len(df)
        reps = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                reps.append(pd.DataFrame({
                    id_col: ids, "__x": xs, "__y": ys,
                    "__cx": xs // radius + dx,
                    "__cy": ys // radius + dy}))
        out = pd.concat(reps, ignore_index=True)
        out["__side"] = np.int8(1)
        return out

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby(["__cx", "__cy"], sort=False):
            lhs = g[g["__side"] == 0]
            rhs = g[g["__side"] == 1]
            if not len(lhs) or not len(rhs):
                continue
            r = rhs.sort_values(["__x", id_col], kind="mergesort")
            rx = r["__x"].to_numpy()
            ry = r["__y"].to_numpy()
            rid = r[id_col].to_numpy()
            lx = lhs["__x"].to_numpy()
            ly = lhs["__y"].to_numpy()
            lid = lhs[id_col].to_numpy()
            lo = np.searchsorted(rx, lx - radius, side="left")
            hi = np.searchsorted(rx, lx + radius, side="right")
            cnt = hi - lo
            li = np.repeat(np.arange(len(lhs)), cnt)
            ri = np.repeat(lo, cnt) + _ragged_arange(cnt)
            d2 = (rx[ri] - lx[li]) ** 2 + (ry[ri] - ly[li]) ** 2
            keep = d2 <= R2
            li, ri, d2 = li[keep], ri[keep], d2[keep]
            if not len(li):
                continue
            cand = pd.DataFrame({id_col: lid[li], "__rid": rid[ri],
                                 "__d2": d2.astype("int64")})
            cand = cand.sort_values([id_col, "__d2", "__rid"],
                                    kind="mergesort")
            agg = cand.groupby(id_col).agg(
                n_within=("__d2", "size"),
                nearest_id=("__rid", "first"),
                nearest_d2=("__d2", "first"))
            outs.append(pd.DataFrame({
                id_col: agg.index.to_numpy(np.int64),
                "n_within": agg["n_within"].to_numpy(np.int64),
                "nearest_id": agg["nearest_id"].to_numpy(np.int64),
                "nearest_d2": agg["nearest_d2"].to_numpy(np.int64)}))
        if not outs:
            return pd.DataFrame({
                id_col: pd.Series([], dtype="int64"),
                "n_within": pd.Series([], dtype="int64"),
                "nearest_id": pd.Series([], dtype="int64"),
                "nearest_d2": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    tl = left_ds.map_batches(tag_left, batch_format="pandas")
    tr = right_ds.map_batches(tag_right, batch_format="pandas")
    return bucket_exchange(tl.union(tr), ["__cx", "__cy"], probe,
                           num_buckets, "pandas")


def label_propagation(edges_ds, rounds: int = 3,
                      num_partitions: int | None = None,
                      src: str = "src", dst: str = "dst",
                      broadcast_max: int = 500_000):
    """Synchronous label-propagation community detection (Raghavan et
    al. 2007, the deterministic variant): every node starts labeled
    with its own id; each round it adopts the MODE of its neighbors'
    previous-round labels over the DISTINCT undirected edge set, ties
    broken by the smallest label. Returns a Dataset of (node, label).

    Scale shape: the undirected edge set is deduplicated with ONE
    distinct exchange (packed u<<32|v keys) and materialized once
    (invariant 10 — it is re-consumed every round). Below
    ``broadcast_max`` nodes the label vector broadcasts via ray.put and
    each round is one streamed edge pass + ONE bucketed per-node argmax
    exchange; above it, the lookup becomes a hash join (same argmax
    exchange), nothing node-shaped on the driver."""
    import pyarrow as pa
    import ray

    P = num_partitions or _default_partitions()

    def pack_undirected(df: pd.DataFrame) -> pd.DataFrame:
        s = df[src].to_numpy(np.int64)
        d = df[dst].to_numpy(np.int64)
        # the (u<<32)|v packing is only injective for ids in [0, 2^31):
        # wider or negative ids would silently alias/merge edges
        # (ADVICE r04) — reject them loudly instead
        for a in (s, d):
            if len(a) and (a.min() < 0 or a.max() >= (1 << 31)):
                raise ValueError(
                    "label_propagation: node ids must be in [0, 2^31) "
                    "for the packed-int64 edge key; remap wider/string "
                    "ids to dense ints first")
        return pd.DataFrame({"k": np.concatenate([
            (s << 32) | d, (d << 32) | s])}).drop_duplicates()

    packed = edges_ds.map_batches(pack_undirected, batch_format="pandas")
    und = materialize_normalized(
        distinct_keys(packed, "k").map_batches(
            lambda df: pd.DataFrame({
                "u": (df["k"].to_numpy(np.int64) >> 32),
                "v": (df["k"].to_numpy(np.int64)
                      & 0xFFFFFFFF)}).astype("int64"),
            batch_format="pandas"),
        pa.schema([("u", pa.int64()), ("v", pa.int64())]))
    nodes = materialize_normalized(
        distinct_keys(und, "u").map_batches(
            lambda df: df.rename(columns={"u": "node"}),
            batch_format="pandas"),
        pa.schema([("node", pa.int64())]))
    n = nodes.count()
    lbl_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    labels = materialize_normalized(
        nodes.map_batches(lambda df: pd.DataFrame(
            {"node": df["node"].astype("int64"),
             "label": df["node"].astype("int64")}),
            batch_format="pandas"), lbl_schema)

    def argmax_mode(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["u", "label"], sort=False, as_index=False)
             ["c"].sum())
        g = g.sort_values(["u", "c", "label"],
                          ascending=[True, False, True],
                          kind="mergesort")
        top = g.drop_duplicates("u", keep="first")
        return pd.DataFrame({"node": top["u"].astype("int64"),
                             "label": top["label"].astype("int64")})

    for _ in range(rounds):
        if n <= broadcast_max:
            lp = labels.to_pandas().sort_values("node")
            na = ray.put(np.ascontiguousarray(
                lp["node"].to_numpy(np.int64)))
            la = ray.put(np.ascontiguousarray(
                lp["label"].to_numpy(np.int64)))

            def tag(df: pd.DataFrame, na=na, la=la) -> pd.DataFrame:
                nav, lav = ray.get(na), ray.get(la)  # zero-copy views
                idx = np.searchsorted(nav, df["v"].to_numpy(np.int64))
                out = pd.DataFrame({
                    "u": df["u"].astype("int64"),
                    "label": lav[idx],
                    "c": np.int64(1)})
                return out.groupby(["u", "label"], sort=False,
                                   as_index=False)["c"].sum()

            tagged = und.map_batches(tag, batch_format="pandas")
        else:
            lv = labels.map_batches(
                lambda df: df.rename(columns={"node": "v"}),
                batch_format="pandas")
            joined = und.join(lv, "inner", P, on=("v",))

            def pre(df: pd.DataFrame) -> pd.DataFrame:
                return (df.assign(c=np.int64(1))
                        .groupby(["u", "label"], sort=False,
                                 as_index=False)["c"].sum())

            tagged = joined.map_batches(pre, batch_format="pandas")
        labels = materialize_normalized(
            bucket_exchange(tagged, ["u"], argmax_mode, 64, "pandas"),
            lbl_schema)
    return labels


def schema_of_dataset(ds):
    """Arrow schema of a Dataset whether its blocks are arrow- or
    pandas-backed (Ray reports numpy dtypes for the latter); pairs with
    materialize_normalized when no explicit schema is at hand."""
    import pyarrow as pa

    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base.remove_metadata()

    def conv(t):
        if isinstance(t, pa.DataType):
            return t
        dt = np.dtype(t)
        if dt.kind in ("O", "U"):
            return pa.string()
        if dt.kind == "M":
            return pa.timestamp("us")
        return pa.from_numpy_dtype(dt)

    return pa.schema([(n, conv(t)) for n, t in zip(sch.names, sch.types)])
