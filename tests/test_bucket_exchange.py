"""``ops.bucket_exchange``: the flagship's one bucketed exchange. Rows move
to ``min(num_buckets, fanout())`` partitions of fixed contiguous bucket
ranges, and the kernel runs once per partition on whole buckets. Its
kernels (``lag_events``, ``_dedup_expand_sort_group``) must give the same
rows on a partition as on each of its buckets alone."""

import random
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gitprov_ray import schemas, synth
from gitprov_ray.stages import triples as T, versions

from oracle_parity import engine_statements

NB = 16


def _rows(t: pa.Table) -> Counter:
    """Table → multiset of row tuples (list cells as tuples)."""
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


def _per_bucket(keyed: pa.Table, kernel) -> Counter:
    """The reference: ``kernel`` applied to each bucket alone."""
    out = Counter()
    for b in pc.unique(keyed.column("bucket")).to_pylist():
        out += _rows(kernel(keyed.filter(pc.equal(keyed.column("bucket"), b))))
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
    want = _per_bucket(versions.add_bucket_column(events, NB),
                       versions.lag_events)
    for n in (1, 3 * fanout()):
        assert _ds_rows(versions.lag_exchange(_split(events, n, seed),
                                              NB)) == want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [5, 13])
def test_dedup_compact_equals_per_bucket_kernel(seed):
    from gitprov_ray.util import fanout

    compact = _compact(seed)
    want = _per_bucket(T.add_compact_bucket(compact, NB),
                       T._dedup_expand_sort_group)
    for n in (1, 3 * fanout()):
        assert _ds_rows(T.dedup_compact(_split(compact, n, seed),
                                        NB)) == want
        assert sum(want.values()) == len(want)  # distinct triples


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("num_buckets", [3, 64])
def test_partition_count_and_ranges(num_buckets):
    """One partition per fixed contiguous bucket range, one kernel call per
    partition: ``min(num_buckets, fanout())`` partitions, also where most
    buckets are empty."""
    import ray.data as rd

    from gitprov_ray.ops import bucket_exchange
    from gitprov_ray.util import fanout

    def span(t: pa.Table) -> pa.Table:
        b = t.column("bucket")
        return pa.table({"lo": [pc.min(b).as_py()], "hi": [pc.max(b).as_py()],
                         "n": [t.num_rows]})

    p = min(num_buckets, fanout())
    edges = [i * num_buckets // p for i in range(p + 1)]
    keyed = pa.table({"bucket": pa.array(
        [b for b in range(num_buckets) for _ in range(3)], pa.int64())})
    blocks = _blocks(bucket_exchange(
        rd.from_arrow([keyed.slice(i, 7) for i in range(0, keyed.num_rows, 7)]),
        span, num_buckets).materialize())
    assert len(blocks) == p
    spans = sorted((r["lo"], r["hi"] + 1, r["n"])
                   for blk in blocks for r in blk.to_pylist())
    assert [s[:2] for s in spans] == list(zip(edges, edges[1:]))
    assert sum(s[2] for s in spans) == keyed.num_rows

    sparse = bucket_exchange(rd.from_arrow(keyed.slice(0, 3)), span,
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
