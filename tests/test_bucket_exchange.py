"""``ops.bucket_exchange``: the one keyed exchange. Rows move to
``min(num_buckets, fanout())`` partitions of fixed contiguous ranges of
``ops.bucket_ids``, and the kernel runs once per partition on whole
buckets. Its kernels (the flagship's ``lag_events`` and
``_dedup_expand_sort_group``, the library's pandas reduces) must give the
same rows on a partition as on each of its buckets alone. The bucket ids
of persisted layouts are pinned."""

import hashlib
import os
import random
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from gitprov_ray import ops, schemas, synth
from gitprov_ray.stages import triples as T, versions

from oracle_parity import engine_statements

NB = 16


def _rows(t) -> Counter:
    """Table (Arrow or pandas) → multiset of row tuples (list cells as
    tuples)."""
    if isinstance(t, pd.DataFrame):
        t = pa.Table.from_pandas(t, preserve_index=False)

    def cell(v):
        return tuple(v) if isinstance(v, list) else v
    return Counter(tuple(cell(v) for v in r.values()) for r in t.to_pylist())


def _blocks(ds) -> list[pa.Table]:
    """A Dataset's blocks, the column-less empty ones included."""
    import ray

    return [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]


def _ds_rows(ds) -> Counter:
    out = Counter()
    for b in _blocks(ds.materialize()):
        out += _rows(b)
    return out


def _split(t: pa.Table, n: int, seed: int):
    """``t`` shuffled by a seeded permutation and cut into ``n`` blocks."""
    import ray.data as rd

    order = list(range(t.num_rows))
    random.Random(seed).shuffle(order)
    t = t.take(pa.array(order, pa.int64()))
    step = -(-t.num_rows // n)
    return rd.from_arrow([t.slice(i * step, step) for i in range(n)])


def _per_bucket(t: pa.Table, key_cols, kernel, pandas: bool = False) -> Counter:
    """The reference: ``kernel`` applied to each bucket of ``t`` alone."""
    ids = ops.bucket_ids(t, key_cols, NB)
    out = Counter()
    for b in np.unique(ids):
        part = t.filter(pa.array(ids == b))
        out += _rows(kernel(part.to_pandas() if pandas else part))
    return out


def _events(seed: int) -> pa.Table:
    """Random corpus events, some repeated (re-sent pages)."""
    _, revs, _ = synth.gen_corpus(24, seed=seed)
    rng = random.Random(seed)
    again = revs.take(pa.array(rng.sample(range(revs.num_rows),
                                          revs.num_rows // 5), pa.int64()))
    return pa.concat_tables([revs, again])


def _compact(seed: int) -> pa.Table:
    """Random compact triple rows, each batch flattened on its own so the
    union repeats rows across batches (as the dedup exchange sees them)."""
    _, revs, contributors = synth.gen_corpus(24, seed=seed)
    contributors = contributors.to_pylist()
    half = revs.num_rows // 2
    return pa.concat_tables([
        T.flatten_batch_compact(engine_statements(part, contributors))
        for part in (revs.slice(0, half), revs.slice(half), revs)])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [3, 11])
def test_lag_exchange_equals_per_bucket_kernel(seed):
    from gitprov_ray.util import fanout

    events = _events(seed)
    want = _per_bucket(events, versions.LAG_KEY, versions.lag_events)
    for n in (1, 3 * fanout()):
        assert _ds_rows(versions.lag_exchange(_split(events, n, seed),
                                              NB)) == want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [5, 13])
def test_dedup_compact_equals_per_bucket_kernel(seed):
    from gitprov_ray.util import fanout

    compact = _compact(seed)
    want = _per_bucket(compact, T._BUCKET_KEY, T._dedup_expand_sort_group)
    for n in (1, 3 * fanout()):
        assert _ds_rows(T.dedup_compact(_split(compact, n, seed),
                                        NB)) == want
        assert sum(want.values()) == len(want)  # distinct triples


def _keys_per_bucket(num_buckets: int, per: int) -> pa.Table:
    """String keys, ``per`` of them in every one of ``num_buckets``
    buckets."""
    cand = pa.table({"k": [f"key-{i}" for i in range(200 * num_buckets)]})
    b = ops.bucket_ids(cand, ["k"], num_buckets)
    pick = [i for bk in range(num_buckets) for i in (b == bk).nonzero()[0][:per]]
    assert len(pick) == per * num_buckets
    return cand.take(pa.array(pick, pa.int64()))


def _edges(seed: int) -> pa.Table:
    """Random oriented (u, v) edges over a few nodes, many repeated."""
    rng = random.Random(seed)
    pairs = [sorted(rng.sample(range(40), 2)) for _ in range(300)]
    return pa.table({"u": pa.array([p[0] for p in pairs], pa.int64()),
                     "v": pa.array([p[1] for p in pairs], pa.int64())})


def _degree_partials(edges: pa.Table) -> pa.Table:
    """``_edge_degrees``' exchange input: per-node partial degrees."""
    vc = pd.concat([edges.column("u").to_pandas(),
                    edges.column("v").to_pandas()]).value_counts()
    return pa.table({"node": pa.array(vc.index.to_numpy(np.int64)),
                     "d": pa.array(vc.to_numpy(np.int64))})


def _mixed_pairs(seed: int) -> pa.Table:
    """(a int, b string) pairs with unicode values, many repeated."""
    rng = random.Random(seed)
    words = ["α", "beta", "页面", "", "x\x1fy", "12"]
    rows = [(rng.randrange(-3, 5), rng.choice(words)) for _ in range(200)]
    return pa.table({"a": pa.array([r[0] for r in rows], pa.int64()),
                     "b": pa.array([r[1] for r in rows], pa.string())})


# pandas adopters: (input, exchange-input table, key, per-bucket kernel,
# the Dataset op); _dedup_pairs keys on an int and a string column
PANDAS_CASES = {
    "edge_degrees": (_edges, _degree_partials, ["node"],
                     lambda df: df.groupby("node", as_index=False)["d"].sum(),
                     lambda ds: ops._edge_degrees(ds, NB)),
    "dedup_pairs": (_mixed_pairs, lambda t: t, ["a", "b"],
                    lambda df: df.drop_duplicates(["a", "b"]),
                    lambda ds: ops._dedup_pairs(ds, "a", "b", NB)),
}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", sorted(PANDAS_CASES))
def test_pandas_exchange_equals_per_bucket_kernel(case):
    """Library adopters with pandas kernels keep the contract: several
    whole buckets per call give the rows of each bucket alone."""
    from gitprov_ray.util import fanout

    make, exchanged, key, kernel, op = PANDAS_CASES[case]
    t = make(9)
    want = _per_bucket(exchanged(t), key, kernel, pandas=True)
    assert sum(want.values()) == len(want)      # one row per key
    for n in (1, 3 * fanout()):
        assert _ds_rows(op(_split(t, n, 9))) == want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("num_buckets", [3, 64])
def test_partition_count_and_ranges(num_buckets):
    """One partition per fixed contiguous bucket range, one kernel call per
    partition: ``min(num_buckets, fanout())`` partitions, also where most
    buckets are empty. The kernel sees its rows without ``bucket``."""
    import ray.data as rd

    from gitprov_ray.ops import bucket_exchange, bucket_ids
    from gitprov_ray.util import fanout

    def span(t: pa.Table) -> pa.Table:
        assert t.column_names == ["k"]
        b = bucket_ids(t, ["k"], num_buckets)
        return pa.table({"lo": [int(b.min())], "hi": [int(b.max())],
                         "n": [t.num_rows]})

    p = min(num_buckets, fanout())
    edges = [i * num_buckets // p for i in range(p + 1)]
    keyed = _keys_per_bucket(num_buckets, 3)
    blocks = _blocks(bucket_exchange(
        rd.from_arrow([keyed.slice(i, 7) for i in range(0, keyed.num_rows, 7)]),
        ["k"], span, num_buckets).materialize())
    assert len(blocks) == p
    spans = sorted((r["lo"], r["hi"] + 1, r["n"])
                   for blk in blocks for r in blk.to_pylist())
    assert [s[:2] for s in spans] == list(zip(edges, edges[1:]))
    assert sum(s[2] for s in spans) == keyed.num_rows

    one = keyed.slice(0, 3)          # the three keys of bucket 0
    sparse = bucket_exchange(rd.from_arrow(one), ["k"], span,
                             num_buckets).materialize()
    assert len(_blocks(sparse)) == p
    assert sparse.take_all() == [{"lo": 0, "hi": 0, "n": 3}]


@pytest.mark.usefixtures("ray_session")
def test_partitions_do_not_depend_on_block_layout():
    """A bucket's partition follows from its id alone, so the lag exchange
    cuts the same rows into the same partitions whatever the input block
    layout (a sampled sort moves its boundaries with the layout)."""
    from gitprov_ray.util import fanout

    events = _events(7)

    def partitions(n: int, seed: int) -> list[list[tuple]]:
        ds = versions.lag_exchange(_split(events, n, seed), NB).materialize()
        parts = [sorted(_rows(b.select(versions.EVENT_KEY)).elements())
                 for b in _blocks(ds) if b.num_rows]
        return sorted(parts)

    one = partitions(1, 0)
    assert len(one) > 1
    assert partitions(3 * fanout(), 1) == one
    assert partitions(5, 2) == one


@pytest.mark.usefixtures("ray_session")
def test_empty_input_is_typed():
    """Empty in, typed empty out: the exchange passes empty partitions on
    as zero-row blocks, ``materialize_normalized`` types them, and each
    kernel maps a zero-row table (column-less too) to its typed empty
    output."""
    import ray.data as rd

    from gitprov_ray.ops import materialize_normalized

    lagged = versions.lag_exchange(
        rd.from_arrow(schemas.REVISIONS.empty_table()), NB)
    lagged = materialize_normalized(lagged, versions.LAGGED)
    assert lagged.count() == 0
    assert lagged.schema().base_schema.equals(versions.LAGGED)
    tri = T.dedup_compact(rd.from_arrow(T.COMPACT_SCHEMA.empty_table()), NB)
    tri = materialize_normalized(tri, schemas.TRIPLES)
    assert tri.count() == 0
    assert tri.schema().base_schema.equals(schemas.TRIPLES)
    for empty in (pa.table({}), versions.add_bucket_column(
            schemas.REVISIONS.empty_table(), NB)):
        assert versions.lag_events(empty).schema.equals(versions.LAGGED)
    for empty in (pa.table({}), T.add_compact_bucket(
            T.COMPACT_SCHEMA.empty_table(), NB)):
        assert T._dedup_expand_sort_group(empty).schema.equals(
            schemas.TRIPLES)
    # a pandas adopter over an empty input: zero rows, no crash
    for make, _, _, _, op in PANDAS_CASES.values():
        assert op(rd.from_arrow(make(0).slice(0, 0))).count() == 0


KEYS = ["a", "graph.example", "ünïcödé/页面", "", "12345", "x\x1fy"]
INTS = [0, -7, 2**40, 12345, 1, 99]


def test_persisted_bucket_ids_are_pinned():
    """The ids of every persisted or flagship layout, pinned at the values
    the engine has always written (mixed string, int and unicode keys):
    the dedup index's ``bucket=NN`` (one key, no join), the partitioned
    writers' ``stable_bucket(s, s, n)`` (``"s\x1fs"``) and the flagship's
    lag, compact and triple hashes. A moved id breaks ``skip_existing``
    resumes and existing dedup indexes."""
    md5 = [hashlib.md5(k.encode()).hexdigest() for k in KEYS]
    assert ops.bucket_ids(pa.table({"text_md5": md5}), ["text_md5"],
                          16).tolist() == [1, 15, 10, 11, 8, 14]
    s = pd.Series(KEYS, dtype=object)
    i = pd.Series(INTS).astype(str)
    assert ops.stable_bucket(s, s, 64).tolist() == [41, 5, 34, 56, 18, 23]
    assert ops.stable_bucket(i, i, 64).tolist() == [5, 5, 51, 18, 57, 0]
    assert ops.stable_bucket(s, s, 8).tolist() == [1, 5, 2, 0, 2, 7]
    ints = [str(x) for x in INTS]
    ev = pa.table({"graph": KEYS, "page_key": ints})
    assert versions.add_bucket_column(ev, 64).column("bucket").to_pylist() \
        == [45, 50, 27, 48, 62, 0]
    comp = pa.table({
        "graph": pa.array(KEYS).dictionary_encode(), "s_local": ints,
        "pred_code": pa.array(range(6), pa.int8()),
        "obj_kind": pa.array([0, 1] * 3, pa.int8()),
        "o_val": KEYS[::-1], "obj_dtype": pa.array([""] * 6)})
    assert T.add_compact_bucket(comp, 64).column("bucket").to_pylist() \
        == [52, 36, 17, 23, 56, 61]
    tri = pa.table({"graph": KEYS, "subj": ints, "pred": KEYS[::-1],
                    "obj": KEYS[::2] * 2})
    assert ops.bucket_ids(tri, T._KEY_COLS, 64).tolist() == \
        [49, 21, 46, 63, 37, 58]


@pytest.mark.usefixtures("ray_session")
def test_writers_persist_pinned_ids(tmp_path):
    """The writers themselves: each key lands in the directory its pinned
    id names."""
    import ray.data as rd

    from gitprov_ray import dedup_index, sources

    docs = pd.DataFrame({"doc_id": range(len(KEYS)), "text": KEYS})
    dedup_index.update(str(tmp_path / "idx"), rd.from_pandas(docs))
    want = {h: b for h, b in zip(
        [hashlib.md5(k.encode()).hexdigest() for k in KEYS],
        [1, 15, 10, 11, 8, 14])}
    for d in os.listdir(tmp_path / "idx"):
        got = pd.read_parquet(tmp_path / "idx" / d)["text_md5"]
        assert {want[h] for h in got} == {int(d.split("=")[1])}

    for col, ids in (("k", [41, 5, 34, 56, 18, 23]),
                     ("n", [5, 5, 51, 18, 57, 0])):
        out = tmp_path / f"part_{col}"
        frame = pd.DataFrame({"k": KEYS, "n": INTS})
        sources.write_partitioned(rd.from_pandas(frame), str(out), key=col)
        for d in os.listdir(out):
            got = pd.read_parquet(out / d / "data.parquet")[col].tolist()
            want = {ids[frame[col].tolist().index(v)] for v in got}
            assert want == {int(d.split("=")[1])}


# Calls that may bypass ``ops.bucket_exchange``, by enclosing top-level
# function: the LSH band pairs are not bucket-agnostic (a pair can emit
# from two bands, and the closing dedup spans bands), and each sources
# writer makes one directory or tar per group.
_MAP_GROUPS_SITES = {"linking._lsh_candidate_pairs",
                     "sources.write_partitioned",
                     "sources.write_webdataset"}
_STABLE_BUCKET_SITES = {"sources.write_partitioned",
                        "sources.write_webdataset"}


def _call_sites(name: str) -> set[str]:
    """``module.function`` of every call to ``name`` (a method or a plain
    function) in the package source."""
    import ast
    from pathlib import Path

    import gitprov_ray

    root = Path(gitprov_ray.__file__).parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        mod = ".".join(path.relative_to(root).with_suffix("").parts)
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                f = getattr(node, "func", None)
                if isinstance(node, ast.Call) and name in (
                        getattr(f, "attr", None), getattr(f, "id", None)):
                    sites.add(f"{mod}.{getattr(top, 'name', '<module>')}")
    return sites


def test_only_listed_sites_bypass_the_keyed_exchange():
    """Every keyed shuffle goes through ``ops.bucket_exchange``: a new
    ``groupby().map_groups`` or a hand-rolled ``stable_bucket`` column
    outside the listed sites fails here."""
    assert _call_sites("map_groups") == _MAP_GROUPS_SITES
    stable = {s for s in _call_sites("stable_bucket")
              if not s.startswith("ops.")}
    assert stable == _STABLE_BUCKET_SITES
