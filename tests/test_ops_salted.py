"""Salted two-phase aggregation: exactness under hot-key skew."""

import pandas as pd
import pytest


@pytest.mark.usefixtures("ray_session")
def test_salted_counts_exact_with_hot_key():
    import ray.data as rd
    from gitprov_ray.ops import salted_value_counts

    # hot key: 'hot' holds 80% of rows
    vals = ["hot"] * 8000 + [f"k{i % 50}" for i in range(2000)]
    ds = rd.from_pandas(pd.DataFrame({"v": vals}))
    for final in ("driver", "shuffle"):
        out = salted_value_counts(ds, "v", num_salts=8, final=final)
        assert int(out[out["v"] == "hot"]["n"].iloc[0]) == 8000
        assert int(out["n"].sum()) == 10000


@pytest.mark.usefixtures("ray_session")
def test_salted_sum_matches_pandas():
    import numpy as np
    import ray.data as rd
    from gitprov_ray.ops import salted_sum

    df = pd.DataFrame({"k": [f"g{i % 7}" for i in range(5000)],
                       "x": np.arange(5000, dtype="int64")})
    exp = df.groupby("k", as_index=False)["x"].sum().sort_values("k")
    for final in ("driver", "shuffle"):
        out = salted_sum(rd.from_pandas(df), "k", "x", num_salts=4,
                         final=final)
        assert list(out["k"]) == list(exp["k"])
        assert list(out["sum_x"]) == list(exp["x"])


@pytest.mark.usefixtures("ray_session")
def test_transitive_closure_runs_to_fixpoint_or_raises(monkeypatch):
    """A 20-node chain closes to all 190 pairs (6 doubling rounds); a cap
    that stops short raises instead of returning a partial closure."""
    import ray.data as rd

    from gitprov_ray import ops

    chain = pd.DataFrame({"s": range(19), "o": range(1, 20)}).astype("int64")
    got = ops.transitive_closure(rd.from_pandas(chain),
                                 num_partitions=2).to_pandas()
    assert set(zip(got.s, got.o)) == \
        {(i, j) for i in range(20) for j in range(i + 1, 20)}
    monkeypatch.setattr(ops, "_CLOSURE_MAX_ROUNDS", 2)
    with pytest.raises(RuntimeError, match="no fixpoint"):
        ops.transitive_closure(rd.from_pandas(chain), num_partitions=2)


@pytest.mark.usefixtures("ray_session")
def test_transitive_closure_path_doubling():
    """ops.transitive_closure: chains close in log2 rounds; result equals
    the brute-force reachability set."""
    import itertools

    import ray.data as rd

    from gitprov_ray.ops import transitive_closure

    # two chains (0..5), (10..13) and a diamond 20->21,20->22,21->23,22->23
    edges = ([(i, i + 1) for i in range(5)] +
             [(i, i + 1) for i in range(10, 13)] +
             [(20, 21), (20, 22), (21, 23), (22, 23)])
    df = pd.DataFrame(edges, columns=["s", "o"]).astype("int64")
    out = transitive_closure(rd.from_pandas(df), num_partitions=2) \
        .to_pandas().sort_values(["s", "o"]).reset_index(drop=True)

    want = set()
    adj = {}
    for s, o in edges:
        adj.setdefault(s, set()).add(o)
    for start in {s for s, _ in edges}:
        seen, stack = set(), [start]
        while stack:
            for nxt in adj.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        want.update((start, x) for x in seen)
    got = set(zip(out.s, out.o))
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_pagerank_known_graph_with_dangling():
    """ops.pagerank on a 3-ring + feeder + a truly DANGLING node (4 has
    no out-edges, so its mass redistributes uniformly each round):
    converged ranks match a brute-force power-iteration reference and
    total mass stays 1."""
    import numpy as np
    import ray.data as rd

    from gitprov_ray.ops import pagerank

    # 0->1, 1->2, 2->0 ring; 3 -> 0 feeder; 4 receives from nobody and
    # has NO out-edges (dangling: its mass redistributes uniformly)
    e = pd.DataFrame({"src": [0, 1, 2, 3, 0],
                      "dst": [1, 2, 0, 0, 4]})
    out = pagerank(rd.from_pandas(e), iters=40).to_pandas() \
        .set_index("node")["score"]
    assert abs(out.sum() - 1.0) < 1e-9          # mass conserved
    # brute-force reference power iteration
    nodes = [0, 1, 2, 3, 4]
    outd = {0: 2, 1: 1, 2: 1, 3: 1}
    s = {v: 1 / 5 for v in nodes}
    for _ in range(40):
        dang = sum(s[v] for v in nodes if v not in outd)
        new = {v: 0.15 / 5 + 0.85 * dang / 5 for v in nodes}
        for src, dst in zip(e["src"], e["dst"]):
            new[dst] += 0.85 * s[src] / outd[src]
        s = new
    for v in nodes:
        assert abs(out[v] - round(s[v], 9)) < 1e-9, v


@pytest.mark.usefixtures("ray_session")
def test_hll_distinct_accuracy_and_determinism():
    """HLL sketch: ≤3% relative error at p=12 across cardinality regimes
    (linear-counting AND raw-estimate branches), identical estimate
    under different partitionings (mergeable + stable hash)."""
    import numpy as np
    import ray.data as rd

    from gitprov_ray.ops import hll_distinct

    for n_distinct in (100, 5000, 60000):
        vals = np.arange(n_distinct).repeat(2)
        est1, _ = hll_distinct(
            rd.from_pandas(pd.DataFrame({"u": vals})).repartition(3), "u")
        est2, _ = hll_distinct(
            rd.from_pandas(pd.DataFrame({"u": vals})).repartition(11), "u")
        assert est1 == est2                     # partition-invariant
        assert abs(est1 - n_distinct) / n_distinct < 0.03


@pytest.mark.usefixtures("ray_session")
def test_hll_md5_partition_invariant_and_accurate():
    """md5-hash HLL (the oracle-checkable variant): identical estimate
    under different partitionings, <3% error in both regimes, and p!=12
    rejected (the nibble math is pinned to 3-nibble buckets)."""
    import numpy as np
    import ray.data as rd

    from gitprov_ray.ops import hll_distinct

    for n_distinct in (150, 20000):
        vals = np.arange(n_distinct).repeat(2)
        est1, _ = hll_distinct(
            rd.from_pandas(pd.DataFrame({"u": vals})).repartition(3),
            "u", hash="md5")
        est2, _ = hll_distinct(
            rd.from_pandas(pd.DataFrame({"u": vals})).repartition(11),
            "u", hash="md5")
        assert est1 == est2
        assert abs(est1 - n_distinct) / n_distinct < 0.03
    with pytest.raises(ValueError):
        hll_distinct(rd.range(10), "id", p=10, hash="md5")


def test_pagerank_regimes_agree():
    """broadcast_max=2 forces the join regime — scores must equal the
    broadcast regime at the round-9 contract."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gitprov_ray.ops import pagerank

    rng = np.random.default_rng(5)
    e = pd.DataFrame({"src": rng.integers(0, 40, 300),
                      "dst": rng.integers(0, 40, 300)}).astype("int64")
    ds = rd.from_pandas(e).repartition(4)
    a = (pagerank(ds, iters=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    b = (pagerank(ds, iters=3, broadcast_max=2).to_pandas()
         .sort_values("node").reset_index(drop=True))
    assert (a["node"] == b["node"]).all()
    assert np.abs(a["score"] - b["score"]).max() <= 2e-9


@pytest.mark.usefixtures("ray_session")
def test_hits_known_graph():
    """ops.hits on a tiny directed graph matches a brute-force
    numpy power iteration with the pinned L1-normalize-per-half-step
    rule (incl. a pure-sink and a pure-source node)."""
    import numpy as np
    import ray.data as rd

    from gitprov_ray.ops import hits

    # 0->1, 0->2, 1->2, 3->2 (2 is a pure sink, 3 a pure source)
    e = pd.DataFrame({"src": [0, 0, 1, 3], "dst": [1, 2, 2, 2]})
    out = hits(rd.from_pandas(e), iters=5).to_pandas() \
        .set_index("node").sort_index()
    nodes = [0, 1, 2, 3]
    h = np.ones(4)
    a = np.zeros(4)
    for _ in range(5):
        a = np.zeros(4)
        for s, d in zip(e["src"], e["dst"]):
            a[d] += h[s]
        a /= a.sum()
        h = np.zeros(4)
        for s, d in zip(e["src"], e["dst"]):
            h[s] += a[d]
        h /= h.sum()
    assert np.abs(out["hub"].to_numpy() - np.round(h, 9)).max() <= 1e-9
    assert np.abs(out["auth"].to_numpy() - np.round(a, 9)).max() <= 1e-9
    # hubs/auths each sum to 1 (L1-normalized contract)
    assert abs(out["hub"].sum() - 1.0) < 1e-7
    assert abs(out["auth"].sum() - 1.0) < 1e-7


@pytest.mark.usefixtures("ray_session")
def test_hits_regimes_agree():
    """broadcast_max=2 forces the join regime — hub/auth must equal
    the broadcast regime at the round-9 contract."""
    import numpy as np
    import ray.data as rd

    from gitprov_ray.ops import hits

    rng = np.random.default_rng(11)
    e = pd.DataFrame({"src": rng.integers(0, 30, 200),
                      "dst": rng.integers(0, 30, 200)}).astype("int64")
    ds = rd.from_pandas(e).repartition(4)
    a = (hits(ds, iters=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    b = (hits(ds, iters=3, broadcast_max=2).to_pandas()
         .sort_values("node").reset_index(drop=True))
    assert (a["node"] == b["node"]).all()
    assert np.abs(a["hub"] - b["hub"]).max() <= 2e-9
    assert np.abs(a["auth"] - b["auth"]).max() <= 2e-9


@pytest.mark.usefixtures("ray_session")
def test_rouge_l_dp_matches_bruteforce(tmp_path):
    """q_rouge_l_pairs' pair-vectorized DP equals a classic per-pair
    O(nm) reference LCS on 60 random token-pair docs (cap boundary,
    empty sides and all-match cases included)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gitprov_ray.queries import ROUGE_CAP, q_rouge_l_pairs

    rng = np.random.default_rng(7)
    vocab = ["a", "b", "c", "dd", "ee"]
    texts, want = [], {}
    for pid in range(60):
        nc, nr = int(rng.integers(0, 16)), int(rng.integers(0, 16))
        c = [vocab[i] for i in rng.integers(0, len(vocab), nc)]
        r = [vocab[i] for i in rng.integers(0, len(vocab), nr)]
        if pid == 0:
            c = r = ["a"] * 15          # all-match, beyond the cap
        texts += [" ".join(c), " ".join(r)]
        a, b = c[:ROUGE_CAP], r[:ROUGE_CAP]
        dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                dp[i][j] = (dp[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1]
                            else max(dp[i - 1][j], dp[i][j - 1]))
        want[pid] = (len(c), len(r), dp[len(a)][len(b)])
    pq.write_table(pa.table({"doc_id": list(range(120)),
                             "text": texts}),
                   str(tmp_path / "documents.parquet"))
    out = q_rouge_l_pairs(str(tmp_path)).to_pandas().set_index("pair_id")
    assert len(out) == 60
    for pid, (lc, lr, lcs) in want.items():
        row = out.loc[pid]
        assert (row["len_c"], row["len_r"], row["lcs"]) == (lc, lr, lcs), pid
