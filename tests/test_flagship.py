"""End-to-end golden parity: Ray pipeline vs single-threaded oracle
(SURVEY.md §5.2-2/4): P/R must be 1.0 on the tiny corpus, and the result
must be invariant to input row order."""

import pandas as pd
import pytest


def _engine_triples(pages_table, contributors, num_buckets=8):
    import ray.data as rd
    from gitprov_ray.pipelines import flagship

    ds = flagship.triples_from_pages(
        rd.from_arrow(pages_table), contributors.to_pylist(),
        num_buckets=num_buckets)
    return ds.to_pandas()


def _keys(df: pd.DataFrame):
    return set(zip(df.graph, df.subj, df.pred, df.obj))


_ROW = ["subj", "pred", "obj", "obj_is_literal", "obj_dtype", "graph"]


def _pages_ds(pages, page_blocks: str):
    """The pages as one block, or cut into 3×fan-out blocks."""
    import numpy as np
    import ray.data as rd
    from gitprov_ray.util import fanout

    if page_blocks == "one":
        return rd.from_arrow(pages)
    cuts = np.array_split(np.arange(pages.num_rows), 3 * fanout())
    return rd.from_arrow([pages.slice(int(c[0]), len(c)) for c in cuts])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("page_blocks", ["one", "3xfanout"])
@pytest.mark.parametrize("num_buckets", [2, 8, 32])
def test_engine_matches_oracle_exactly(tiny_corpus, num_buckets, page_blocks):
    """Set-exact at fewer, equal and more buckets than the fan-out (8
    blocks at 4 CPUs), from one pages block or from 3×fan-out blocks."""
    from gitprov_ray import oracle
    from gitprov_ray.pipelines import flagship

    pages, revisions, contributors = tiny_corpus
    engine = flagship.triples_from_pages(
        _pages_ds(pages, page_blocks), contributors.to_pylist(),
        num_buckets=num_buckets).to_pandas()
    golden, _ = oracle.build_triples(revisions.to_pylist(),
                                     contributors.to_pylist())
    rows = set(map(tuple, engine[_ROW].itertuples(index=False)))
    assert rows == {tuple(t[c] for c in _ROW) for t in golden}  # P = R = 1.0
    # engine output itself is exactly deduplicated
    assert len(engine) == len(_keys(engine)) == len(rows)


@pytest.mark.parametrize("pages_input", ["parquet", "one", "3xfanout"])
def test_agents_of_graphs_without_events(tiny_corpus, ray_session, tmp_path,
                                         pages_input):
    """Contributors of a graph with no pages give no triples: the oracle
    emits agents only for graphs with revisions, and so does the engine,
    from a pages parquet or from one or 3×fan-out pages blocks."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from gitprov_ray import oracle, synth
    from gitprov_ray.pipelines import flagship

    pages, revisions, contributors = tiny_corpus
    extra = "src99.example"
    assert extra not in set(revisions.column("graph").to_pylist())
    rows = pa.concat_tables(
        [contributors, synth.contributors_for_sources([extra])]).to_pylist()
    if pages_input == "parquet":
        p = str(tmp_path / "pages.parquet")
        pq.write_table(pages, p)
        ds = flagship.flagship_from_pages_parquet(p, rows, num_buckets=4)
    else:
        ds = flagship.triples_from_pages(_pages_ds(pages, pages_input), rows,
                                         num_buckets=4)
    engine = ds.to_pandas()
    golden, _ = oracle.build_triples(revisions.to_pylist(), rows)
    got = set(map(tuple, engine[_ROW].itertuples(index=False)))
    assert got == {tuple(t[c] for c in _ROW) for t in golden}
    assert len(engine) == len(got)
    assert extra not in set(engine["graph"])


@pytest.mark.usefixtures("ray_session")
def test_order_insensitivity(tiny_corpus):
    """Shuffled input blocks ⇒ identical triple set (SURVEY.md §5.2-4)."""
    import pyarrow as pa

    pages, revisions, contributors = tiny_corpus
    idx = list(range(pages.num_rows))[::-1]
    shuffled = pages.take(pa.array(idx))
    a = _engine_triples(pages, contributors, num_buckets=4)
    b = _engine_triples(shuffled, contributors, num_buckets=8)
    assert _keys(a) == _keys(b)


@pytest.mark.usefixtures("ray_session")
def test_sorted_deterministic_output(tiny_corpus):
    """The output is sorted per dedup bucket: read in block order, the rows
    form at most ``num_buckets`` ascending runs of the triple key."""
    import ray.data as rd
    from gitprov_ray.pipelines import flagship

    pages, _, contributors = tiny_corpus
    ds = flagship.triples_from_pages(rd.from_arrow(pages),
                                     contributors.to_pylist(), num_buckets=8)
    df = ds.to_pandas()
    key = list(df[["graph", "subj", "pred", "obj"]].itertuples(index=False))
    descents = sum(b < a for a, b in zip(key, key[1:]))
    assert len(key) > 8 and descents < 8


@pytest.mark.usefixtures("ray_session")
def test_text_extraction_through_pipeline_matches_direct(tiny_corpus):
    """Per-row invariant: pipeline-extracted text == direct extraction, byte
    for byte (input_hint)."""
    import ray.data as rd
    from gitprov_ray import extract
    from gitprov_ray.stages.pages import extract_text_batch

    pages, _, _ = tiny_corpus
    out = (rd.from_arrow(pages)
           .map_batches(extract_text_batch, batch_format="pyarrow")
           .to_pandas())
    direct = {(r["url"], r["warc_ts"]): extract.extract_text(r["html"])
              for r in pages.to_pylist()}
    for _, row in out.iterrows():
        assert row["text"] == direct[(row["url"], row["warc_ts"].to_pydatetime())]


def test_flagship_from_pages_parquet(tiny_corpus, ray_session, tmp_path):
    """The real-crawl entry point (pages parquet of the input_hint shape)
    must equal the in-memory pages path."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gitprov_ray.pipelines import flagship

    pages, _, contributors = tiny_corpus
    p = str(tmp_path / "pages.parquet")
    pq.write_table(pages, p)
    a = flagship.flagship_from_pages_parquet(
        p, contributors.to_pylist(), num_buckets=4).to_pandas()
    b = flagship.triples_from_pages(
        rd.from_arrow(pages), contributors.to_pylist(),
        num_buckets=4).to_pandas()
    ka = set(zip(a.graph, a.subj, a.pred, a.obj))
    kb = set(zip(b.graph, b.subj, b.pred, b.obj))
    assert ka == kb and len(a) == len(b)


def _plan_ops(ds) -> list:
    """Every logical operator in ``ds``'s plan, each once."""
    ops, todo = {}, [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        if id(op) not in ops:
            ops[id(op)] = op
            todo.extend(op.input_dependencies)
    return list(ops.values())


def test_flagship_plan_has_two_exchanges(tiny_corpus, ray_session, tmp_path):
    """The flagship's logical plan holds exactly two all-to-all operators —
    the version-lag exchange and the triple dedup exchange — and no
    Repartition: the events take one shuffle and are consumed once. Both
    are ``ops.bucket_exchange`` Sorts on ``bucket`` with boundaries given
    up front, so neither runs a sampling round. No ``Union`` feeds an
    exchange, in the build or in the merge's ``triples_from_lagged`` path:
    the agents' rows ride inside the compact map. The plan runs without
    Ray Data's per-operator CPU reservation (``util.tune_context``)."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll, Repartition, Sort)
    from ray.data._internal.logical.operators.n_ary_operator import Union

    from gitprov_ray.pipelines import flagship
    from gitprov_ray.stages import versions

    pages, revisions, contributors = tiny_corpus
    p = str(tmp_path / "pages.parquet")
    pq.write_table(pages, p)
    ds = flagship.flagship_from_pages_parquet(
        p, contributors.to_pylist(), num_buckets=4)
    assert ds.context.op_resource_reservation_enabled is False
    ops = _plan_ops(ds)
    exchanges = [o for o in ops if isinstance(o, AbstractAllToAll)]
    assert len(exchanges) == 2
    assert not any(isinstance(o, (Repartition, Union)) for o in ops)
    for o in exchanges:
        assert isinstance(o, Sort)
        assert o._sort_key.get_columns() == ["bucket"]
        assert o._sort_key.boundaries
    merge_ops = _plan_ops(flagship.triples_from_lagged(
        rd.from_arrow(versions.lag_events(revisions)),
        contributors.to_pylist(), num_buckets=4))
    assert not any(isinstance(o, Union) for o in merge_ops)


def test_triples_order_insensitive_to_input_permutation(ray_session):
    """SURVEY §5.2 property 4: shuffled input rows ⇒ identical triple set
    (the engine's shuffles must not leak input order into the output)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gitprov_ray import schemas, synth
    from gitprov_ray.pipelines import flagship

    _, revisions, contributors = synth.gen_corpus(10, seed=99)
    rows = revisions.to_pylist()
    rng = np.random.RandomState(5)
    perm = [rows[i] for i in rng.permutation(len(rows))]
    mk = lambda rs: flagship.triples_from_revisions(
        rd.from_arrow(pa.Table.from_pylist(rs, schema=schemas.REVISIONS)),
        contributors.to_pylist(), num_buckets=4).to_pandas()
    a, b = mk(rows), mk(perm)
    key = ["graph", "subj", "pred", "obj"]
    assert set(map(tuple, a[key].itertuples(index=False))) == \
        set(map(tuple, b[key].itertuples(index=False)))
    assert len(a) == len(b)
