"""One fan-out rule: every flagship split is ``util.fanout()`` = 2×CPUs with
no floor, and join partitions are ``max(2, CPUs)``. The test session has 4
CPUs (conftest), below the 8 where the old 16-block floor stopped applying."""

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


def test_cluster_cpus_without_session(monkeypatch):
    import ray

    from gitprov_ray import util

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert util.cluster_cpus() == 8 and util.fanout() == 16
