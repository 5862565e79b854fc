"""One fan-out rule: every flagship split is ``util.fanout()`` = 2×CPUs with
no floor, and join partitions are ``max(2, CPUs)``. The test session has 4
CPUs (conftest), below the 8 where the old 16-block floor stopped applying.
``util.tune_context`` also switches off Ray Data's per-operator CPU
reservation, so one operator can run as many tasks as the session has
CPUs. ``util.read_parquet_clean`` reads a short file list one block per
file."""

import pytest


@pytest.mark.usefixtures("ray_session")
def test_fanout_follows_cluster_cpus():
    from gitprov_ray import ops, util

    assert util.cluster_cpus() == 4
    assert util.fanout() == 8
    assert ops._default_partitions() == 4


@pytest.mark.usefixtures("ray_session")
def test_tune_context_sets_fanout_without_floor():
    from ray.data import DataContext

    from gitprov_ray import util

    util.tune_context()
    ctx = DataContext.get_current()
    for attr in ("min_parallelism", "read_op_min_num_blocks",
                 "default_hash_shuffle_parallelism"):
        assert getattr(ctx, attr) == 8, attr
    assert ctx.op_resource_reservation_enabled is False


@pytest.mark.usefixtures("ray_session")
def test_operators_run_tasks_concurrently():
    """Four one-row blocks through a 0.5 s map, then the keyed exchange:
    with the reservation on, the map ran one task at a time at 4 CPUs."""
    import time

    import pyarrow as pa
    import ray.data as rd

    from gitprov_ray import ops, util

    def slow(t: pa.Table) -> pa.Table:
        start = time.time()
        time.sleep(0.5)
        return t.append_column("start", pa.array([start] * t.num_rows)) \
            .append_column("end", pa.array([time.time()] * t.num_rows))

    util.tune_context()
    ds = rd.from_items([{"k": i} for i in range(4)], override_num_blocks=4)
    rows = ops.bucket_exchange(ds.map_batches(slow, batch_format="pyarrow"),
                               ["k"], lambda t: t, 4).take_all()
    assert sorted(r["k"] for r in rows) == [0, 1, 2, 3]
    overlap = max(sum(o["start"] <= r["start"] < o["end"] for o in rows)
                  for r in rows)
    assert overlap >= 2


def test_cluster_cpus_without_session(monkeypatch):
    import ray

    from gitprov_ray import util

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert util.cluster_cpus() == 8 and util.fanout() == 16


@pytest.mark.usefixtures("ray_session")
def test_file_list_reads_one_block_per_file(tiny_corpus, tmp_path):
    """A read of k < ``fanout()`` files gives one block per file: Ray's
    split of each file into several blocks made the read task that had
    no CPU wait out the executor's 0.1 s poll. A single file still splits
    to ``fanout()`` blocks."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from gitprov_ray import checkpoint, util
    from gitprov_ray.pipelines import flagship as fl

    files = []
    for i in range(5):
        files.append(str(tmp_path / f"f{i}.parquet"))
        pq.write_table(pa.table({"k": list(range(16 * i, 16 * i + 16))}),
                       files[-1])
    ds = util.read_parquet_clean(files).materialize()
    assert ds.num_blocks() == 5 and ds.count() == 80
    assert "SplitBlocks" not in ds.stats()
    assert util.read_parquet_clean(files[:1]).materialize().num_blocks() \
        == util.fanout()

    wd = str(tmp_path / "wd")
    pages, _, _ = tiny_corpus
    checkpoint._write_stage(fl.revisions_from_pages(rd.from_arrow(pages)),
                            wd, "revisions", "init")
    graphs = checkpoint._stage_manifest(wd, "revisions")["graphs"]
    assert 1 < len(graphs) < util.fanout()
    hist = checkpoint._read_stage(wd, "revisions", graphs=graphs)
    assert hist.materialize().num_blocks() == len(graphs)
