"""Resume semantics (SURVEY.md §5.2-4): cold run == resumed run, stage skip
works, partial store completion is resumed per partition."""

import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st


@pytest.mark.usefixtures("ray_session")
def test_cold_then_resume_identical(tmp_path):
    from gitprov_ray import checkpoint, store

    SF = "/root/testdata/sf0.001"
    wd = str(tmp_path / "run")
    r1 = checkpoint.run_flagship(SF, wd, num_buckets=8)
    assert r1["resumed"] == []
    cold = store.read_store(r1["store"]).to_pandas()

    r2 = checkpoint.run_flagship(SF, wd, num_buckets=8)
    assert set(r2["resumed"]) == {"revisions", "triples"}
    warm = store.read_store(r2["store"]).to_pandas()
    assert set(zip(cold.graph, cold.subj, cold.pred, cold.obj)) == \
           set(zip(warm.graph, warm.subj, warm.pred, warm.obj))
    assert r1["triples"] == r2["triples"]


@pytest.mark.usefixtures("ray_session")
def test_resume_after_partial_store_loss(tmp_path):
    from gitprov_ray import checkpoint, store

    SF = "/root/testdata/sf0.001"
    wd = str(tmp_path / "run")
    r1 = checkpoint.run_flagship(SF, wd, num_buckets=8)
    full = store.read_store(r1["store"]).to_pandas()

    # simulate a crashed run: drop two graph partitions
    graphs = store.list_graphs(r1["store"])
    import os
    for g in graphs[:2]:
        shutil.rmtree(os.path.join(r1["store"], "gpart=" + g))
    assert len(store.list_graphs(r1["store"])) == len(graphs) - 2

    r2 = checkpoint.run_flagship(SF, wd, num_buckets=8)
    # revisions stage skipped; triples recomputed only for missing graphs
    assert "revisions" in r2["resumed"]
    back = store.read_store(r2["store"]).to_pandas()
    assert set(zip(back.graph, back.subj, back.pred, back.obj)) == \
           set(zip(full.graph, full.subj, full.pred, full.obj))


@pytest.mark.usefixtures("ray_session")
def test_config_change_invalidates(tmp_path):
    from gitprov_ray import checkpoint

    SF = "/root/testdata/sf0.001"
    wd = str(tmp_path / "run")
    checkpoint.run_flagship(SF, wd, num_buckets=8)
    r2 = checkpoint.run_flagship(SF, wd, num_buckets=16)
    assert r2["resumed"] == []  # fingerprint embeds config


def test_run_flagship_refuses_incremental_workdir(ray_session, tiny_corpus,
                                                  tmp_path):
    """ADVICE r2 (medium): run_flagship on a workdir that update_flagship
    merged batches into must refuse (not silently wipe the merged store);
    fresh=True explicitly rebuilds. Incremental fingerprints are
    deterministic: same batch chain → same fingerprint."""
    import pyarrow as pa
    import ray.data as rd

    from gitprov_ray import checkpoint, schemas, store, synth
    from gitprov_ray.pipelines import flagship as fl

    pages, _, _ = tiny_corpus
    pdf = pages.to_pandas().sort_values(["url", "warc_ts"], kind="mergesort")
    first = pdf.drop_duplicates("url", keep="first")
    rest = pdf[~pdf.index.isin(first.index)]
    to_tbl = lambda d: pa.Table.from_pandas(d.reset_index(drop=True),
                                            schema=schemas.PAGES,
                                            preserve_index=False)
    graphs = sorted({u.split("/")[2] for u in pdf["url"]})
    contributors = synth.contributors_for_sources(graphs).to_pylist()

    import json
    import os

    fps = []
    for name in ("wd1", "wd2"):
        wd = str(tmp_path / name)
        os.makedirs(wd)
        revs = fl.revisions_from_pages(rd.from_arrow(to_tbl(first)))
        checkpoint._write_stage(revs, wd, "revisions", "init")
        tri = fl.triples_from_revisions(
            checkpoint._read_stage(wd, "revisions"), contributors,
            num_buckets=4)
        store.write_store(tri, f"{wd}/triples_store", fingerprint="init")
        checkpoint.update_flagship(wd, rd.from_arrow(to_tbl(rest)),
                                   num_buckets=4)
        with open(checkpoint._manifest_path(wd, "revisions")) as f:
            fps.append(json.load(f)["fingerprint"])
    assert fps[0] == fps[1] and fps[0].startswith("incremental-")

    wd = str(tmp_path / "wd1")
    with pytest.raises(ValueError, match="incremental state"):
        checkpoint.run_flagship("/root/testdata/sf0.001", wd, num_buckets=4)
    # merged store untouched by the refused call
    assert store.list_graphs(f"{wd}/triples_store")
    # fresh=True rebuilds from the base corpus without error
    r = checkpoint.run_flagship("/root/testdata/sf0.001", wd, num_buckets=4,
                                fresh=True)
    assert r["triples"] > 0 and r["resumed"] == []


def test_graphs_and_digest_match_the_two_pass_form(ray_session, tiny_corpus):
    """The one-pass graphs + digest of an event batch equal what the two
    former passes computed — the distinct graphs, and the
    ``pd.util.hash_array`` sum over ``_event_key_array`` mod 2**63 — at any
    block split, so existing fingerprint chains stay valid."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from gitprov_ray import checkpoint

    _, revisions, _ = tiny_corpus
    k = checkpoint._event_key_array(revisions).to_numpy(zero_copy_only=False)
    h = int(pd.util.hash_array(k.astype(object)).sum()) & 0x7FFFFFFFFFFFFFFF
    want = (sorted(set(revisions.column("graph").to_pylist())), f"{h:016x}")
    for n in (1, 7):
        cuts = np.array_split(np.arange(revisions.num_rows), n)
        ds = rd.from_arrow([revisions.slice(int(c[0]), len(c)) for c in cuts])
        assert checkpoint._graphs_and_digest(ds.materialize()) == want


def test_incremental_resend_does_not_grow_checkpoint(ray_session, tiny_corpus,
                                                     tmp_path):
    """ADVICE r2 (low): re-sending a batch must not duplicate rows in the
    revisions checkpoint."""
    import pyarrow as pa
    import ray.data as rd

    from gitprov_ray import checkpoint, schemas, store, synth
    from gitprov_ray.pipelines import flagship as fl

    pages, _, _ = tiny_corpus
    pdf = pages.to_pandas().sort_values(["url", "warc_ts"], kind="mergesort")
    first = pdf.drop_duplicates("url", keep="first")
    rest = pdf[~pdf.index.isin(first.index)]
    to_tbl = lambda d: pa.Table.from_pandas(d.reset_index(drop=True),
                                            schema=schemas.PAGES,
                                            preserve_index=False)
    graphs = sorted({u.split("/")[2] for u in pdf["url"]})
    contributors = synth.contributors_for_sources(graphs).to_pylist()

    import os
    wd = str(tmp_path / "wd")
    os.makedirs(wd)
    revs = fl.revisions_from_pages(rd.from_arrow(to_tbl(first)))
    checkpoint._write_stage(revs, wd, "revisions", "init")
    tri = fl.triples_from_revisions(
        checkpoint._read_stage(wd, "revisions"), contributors, num_buckets=4)
    store.write_store(tri, f"{wd}/triples_store", fingerprint="init")

    checkpoint.update_flagship(wd, rd.from_arrow(to_tbl(rest)), num_buckets=4)
    n1 = checkpoint._read_stage(wd, "revisions").count()
    checkpoint.update_flagship(wd, rd.from_arrow(to_tbl(rest)), num_buckets=4)
    n2 = checkpoint._read_stage(wd, "revisions").count()
    assert n1 == n2  # re-send deduped, checkpoint stable


def test_incremental_update_matches_full_run(ray_session, tiny_corpus, tmp_path):
    """update_flagship: first-snapshot batch, then the rest — the merged
    store must equal a full run over all pages (version chains span the
    batches), and re-sending the update batch must be a no-op."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from gitprov_ray import checkpoint, schemas, store, synth
    from gitprov_ray.pipelines import flagship as fl

    pages, _, _ = tiny_corpus
    pdf = pages.to_pandas().sort_values(["url", "warc_ts"], kind="mergesort")
    first = pdf.drop_duplicates("url", keep="first")
    rest = pdf[~pdf.index.isin(first.index)]
    assert len(rest) > 0
    to_tbl = lambda d: pa.Table.from_pandas(d.reset_index(drop=True),
                                            schema=schemas.PAGES,
                                            preserve_index=False)

    graphs = sorted({u.split("/")[2] for u in pdf["url"]})
    contributors = synth.contributors_for_sources(graphs).to_pylist()

    workdir = str(tmp_path / "wd")
    import os
    os.makedirs(workdir, exist_ok=True)
    revsA = fl.revisions_from_pages(rd.from_arrow(to_tbl(first)))
    checkpoint._write_stage(revsA, workdir, "revisions", "init")
    triA = fl.triples_from_revisions(checkpoint._read_stage(workdir, "revisions"),
                                     contributors, num_buckets=4)
    store.write_store(triA, f"{workdir}/triples_store", fingerprint="init")

    res = checkpoint.update_flagship(workdir, rd.from_arrow(to_tbl(rest)),
                                     num_buckets=4)
    assert res["new_events"] > 0 and res["triples_written"] > 0

    got = store.read_store(f"{workdir}/triples_store").to_pandas()
    full = fl.triples_from_pages(rd.from_arrow(pages), contributors,
                                 num_buckets=4).to_pandas()
    key = ["graph", "subj", "pred", "obj"]
    assert set(map(tuple, got[key].itertuples(index=False))) == \
        set(map(tuple, full[key].itertuples(index=False)))
    assert len(got) == len(full)

    # idempotence: re-sending the same batch leaves the store identical
    checkpoint.update_flagship(workdir, rd.from_arrow(to_tbl(rest)),
                               num_buckets=4)
    again = store.read_store(f"{workdir}/triples_store").to_pandas()
    assert set(map(tuple, again[key].itertuples(index=False))) == \
        set(map(tuple, full[key].itertuples(index=False)))
    assert len(again) == len(full)


def test_incremental_soak_three_batches_resend_and_rebuild(
        ray_session, tiny_corpus, tmp_path):
    """Soak the incremental chain (VERDICT r3 #10): THREE update batches in
    sequence (snapshot waves split per url), a mid-chain re-send, and a
    final fresh=True rebuild — asserting merged-store == cold-run over the
    union of delivered pages at EVERY step. Pins the deterministic
    fingerprint chain under longer histories than the 2-batch test."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from gitprov_ray import checkpoint, schemas, store, synth
    from gitprov_ray.pipelines import flagship as fl

    pages, _, _ = tiny_corpus
    pdf = pages.to_pandas().sort_values(["url", "warc_ts"], kind="mergesort")
    # wave k = each url's k-th snapshot: every batch touches every graph,
    # and version chains grow one link per batch (the worst case for the
    # lag state)
    pdf["wave"] = pdf.groupby("url").cumcount()
    waves = [pdf[pdf.wave == 0], pdf[pdf.wave == 1],
             pdf[pdf.wave >= 2]]
    assert all(len(w) > 0 for w in waves)
    drop = lambda d: d.drop(columns=["wave"]).reset_index(drop=True)
    to_tbl = lambda d: pa.Table.from_pandas(drop(d), schema=schemas.PAGES,
                                            preserve_index=False)
    graphs = sorted({u.split("/")[2] for u in pdf["url"]})
    contributors = synth.contributors_for_sources(graphs).to_pylist()
    key = ["graph", "subj", "pred", "obj"]

    def store_equals_cold_run(workdir, delivered_frames):
        got = store.read_store(f"{workdir}/triples_store").to_pandas()
        import pandas as pd

        all_pages = pa.Table.from_pandas(
            drop(pd.concat(delivered_frames)), schema=schemas.PAGES,
            preserve_index=False)
        full = fl.triples_from_pages(rd.from_arrow(all_pages), contributors,
                                     num_buckets=4).to_pandas()
        assert len(got) == len(full)
        assert set(map(tuple, got[key].itertuples(index=False))) == \
            set(map(tuple, full[key].itertuples(index=False)))

    wd = str(tmp_path / "soak")
    os.makedirs(wd)
    revs = fl.revisions_from_pages(rd.from_arrow(to_tbl(waves[0])))
    checkpoint._write_stage(revs, wd, "revisions", "init")
    tri = fl.triples_from_revisions(checkpoint._read_stage(wd, "revisions"),
                                    contributors, num_buckets=4)
    store.write_store(tri, f"{wd}/triples_store", fingerprint="init")
    store_equals_cold_run(wd, [waves[0]])

    fps = []
    for k in (1, 2):
        res = checkpoint.update_flagship(wd, rd.from_arrow(to_tbl(waves[k])),
                                         num_buckets=4)
        assert res["new_events"] > 0
        store_equals_cold_run(wd, waves[: k + 1])
        with open(checkpoint._manifest_path(wd, "revisions")) as f:
            import json

            fps.append(json.load(f)["fingerprint"])
    assert fps[0] != fps[1]                 # chain advances per batch

    # mid-chain re-send of wave 1: rows dedup away — store unchanged and
    # the revisions checkpoint does not grow (the chain fp still advances
    # deterministically, by design)
    n_before = checkpoint._read_stage(wd, "revisions").count()
    checkpoint.update_flagship(wd, rd.from_arrow(to_tbl(waves[1])),
                               num_buckets=4)
    store_equals_cold_run(wd, waves)
    assert checkpoint._read_stage(wd, "revisions").count() == n_before
    with open(checkpoint._manifest_path(wd, "revisions")) as f:
        import json

        fp_resend = json.load(f)["fingerprint"]
    assert fp_resend.startswith("incremental-")

    # plain run_flagship still refuses the incremental workdir…
    with pytest.raises(ValueError, match="incremental state"):
        checkpoint.run_flagship("/root/testdata/sf0.001", wd, num_buckets=4)
    # …and fresh=True rebuilds the base corpus from scratch
    r = checkpoint.run_flagship("/root/testdata/sf0.001", wd, num_buckets=4,
                                fresh=True)
    assert r["triples"] > 0 and r["resumed"] == []
    assert store.list_graphs(f"{wd}/triples_store")


def test_merge_touches_only_its_own_graphs(ray_session, tiny_corpus,
                                           tmp_path):
    """A merge reads and replaces only the revisions partitions of the
    graphs its batch touches: every other graph's partition keeps its file
    names and mtimes, nothing else is left in the stage directory (a
    partition an interrupted replace left aside is restored first), and
    the stage manifest's row count stays the sum of the partition row
    counts. A stage written in the flat layout is refused."""
    import json
    import os

    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from gitprov_ray import checkpoint, schemas, store, synth
    from gitprov_ray.pipelines import flagship as fl

    pages, _, _ = tiny_corpus
    pdf = pages.to_pandas().sort_values(["url", "warc_ts"], kind="mergesort")
    pdf["g"] = pdf["url"].str.split("/").str[2]
    first = pdf.drop_duplicates("url", keep="first")
    rest = pdf[~pdf.index.isin(first.index)]
    target = sorted(set(rest["g"]))[0]
    to_tbl = lambda d: pa.Table.from_pandas(
        d.drop(columns=["g"]).reset_index(drop=True), schema=schemas.PAGES,
        preserve_index=False)
    graphs = sorted(set(pdf["g"]))
    assert len(graphs) > 1
    contributors = synth.contributors_for_sources(graphs).to_pylist()

    wd = str(tmp_path / "wd")
    os.makedirs(wd)
    checkpoint._write_stage(fl.revisions_from_pages(
        rd.from_arrow(to_tbl(first))), wd, "revisions", "init")
    store.write_store(fl.triples_from_revisions(
        checkpoint._read_stage(wd, "revisions"), contributors,
        num_buckets=4), f"{wd}/triples_store", fingerprint="init")

    d = checkpoint._stage_dir(wd, "revisions")

    def partitions():
        return {e: sorted((f, os.stat(os.path.join(d, e, f)).st_mtime_ns)
                          for f in os.listdir(os.path.join(d, e)))
                for e in os.listdir(d) if e != "_MANIFEST.json"}

    before = partitions()
    assert sorted(before) == [f"gpart={g}" for g in graphs]
    with open(checkpoint._manifest_path(wd, "revisions")) as f:
        rows_before = json.load(f)["rows"]
    # a crash mid-replace left the target's partition moved aside: the
    # merge restores it before it reads the graph's history
    os.rename(os.path.join(d, f"gpart={target}"),
              os.path.join(d, f"gpart={target}.replaced"))
    res = checkpoint.update_flagship(
        wd, rd.from_arrow(to_tbl(rest[rest["g"] == target])), num_buckets=4)
    assert res["graphs"] == [target] and res["new_events"] > 0
    after = partitions()
    assert sorted(after) == sorted(before)
    assert {e for e in before if after[e] != before[e]} == {f"gpart={target}"}

    with open(checkpoint._manifest_path(wd, "revisions")) as f:
        m = json.load(f)
    assert m["graphs"] == graphs and m["fingerprint"].startswith("incremental-")
    assert m["rows"] == rows_before + res["new_events"]
    assert m["rows"] == sum(store.read_manifest(d, g)["rows"] for g in graphs)
    assert m["rows"] == pads.dataset(d, format="parquet").count_rows()
    assert m["rows"] == checkpoint._read_stage(wd, "revisions").count()

    flat = tmp_path / "flat"
    (flat / "stage=revisions").mkdir(parents=True)
    with open(checkpoint._manifest_path(str(flat), "revisions"), "w") as f:
        json.dump({"stage": "revisions", "rows": 0, "files": [],
                   "fingerprint": "incremental-0"}, f)
    with pytest.raises(ValueError, match=r"run_flagship\(\.\.\., fresh=True\)"):
        checkpoint.update_flagship(str(flat), rd.from_arrow(to_tbl(rest)),
                                   num_buckets=4)


@pytest.mark.usefixtures("ray_session")
def test_canonicalize_cold_vs_crash_resume(tmp_path):
    """VERDICT r04 #6 twin (sf0.001): the canonicalize=True flagship
    through the checkpoint machinery — a crashed-and-resumed run's store
    equals the cold run's EXACTLY, i.e. the entity-linking rewrite is
    deterministic per graph even when half the store survived the crash
    and the other half is rewritten by the resumed run."""
    import os

    from gitprov_ray import checkpoint, store

    SF = "/root/testdata/sf0.001"
    wd_cold = str(tmp_path / "cold")
    r_cold = checkpoint.run_flagship(SF, wd_cold, num_buckets=8,
                                     canonicalize=True)
    cold = store.read_store(r_cold["store"]).to_pandas()
    assert "|canon=1" in r_cold["fingerprint"]
    # the rewrite actually ran: canonical stores differ from plain ones
    r_plain = checkpoint.run_flagship(SF, str(tmp_path / "plain"),
                                      num_buckets=8)
    plain = store.read_store(r_plain["store"]).to_pandas()
    assert set(cold.subj) != set(plain.subj) or \
        set(cold.obj) != set(plain.obj)

    # crash simulation: drop two graph partitions mid-store, resume
    wd = str(tmp_path / "crash")
    r1 = checkpoint.run_flagship(SF, wd, num_buckets=8, canonicalize=True)
    graphs = store.list_graphs(r1["store"])
    for g in graphs[:2]:
        shutil.rmtree(os.path.join(r1["store"], "gpart=" + g))
    r2 = checkpoint.run_flagship(SF, wd, num_buckets=8, canonicalize=True)
    assert "revisions" in r2["resumed"]
    back = store.read_store(r2["store"]).to_pandas()
    assert set(zip(back.graph, back.subj, back.pred, back.obj)) == \
           set(zip(cold.graph, cold.subj, cold.pred, cold.obj))
    # canonical and plain fingerprints never cross-resume
    r3 = checkpoint.run_flagship(SF, wd, num_buckets=8)
    assert r3["resumed"] == [] or "triples" not in r3["resumed"]


def test_revisions_checkpoint_keeps_the_revisions_schema(ray_session,
                                                         tiny_corpus,
                                                         tmp_path):
    """After ``run_flagship`` and two ``update_flagship`` calls every
    revisions file carries exactly ``schemas.REVISIONS``: the read-back
    infers no hive ``stage`` or ``gpart`` column from the
    ``stage=revisions/gpart=<graph>`` directories, and the write-back
    persists no column the events do not have."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from gitprov_ray import checkpoint, schemas

    docs = tmp_path / "docs"
    docs.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(12), pa.int64()),
        "text": [f"document {i} about provenance graphs" for i in range(12)],
        "lang": ["en"] * 12,
        "source": [f"src{i % 3}" for i in range(12)]}),
        docs / "documents.parquet")
    wd = str(tmp_path / "wd")
    checkpoint.run_flagship(str(docs), wd, num_buckets=4)
    pages, _, _ = tiny_corpus
    half = pages.num_rows // 2
    for batch in (pages.slice(0, half), pages.slice(half)):
        checkpoint.update_flagship(wd, rd.from_arrow(batch), num_buckets=4)
    d = checkpoint._stage_dir(wd, "revisions")
    files = sorted(os.path.join(root, f) for root, _, names in os.walk(d)
                   for f in names if f.endswith(".parquet"))
    assert files
    for f in files:
        got = pq.read_schema(f).remove_metadata()
        assert got.equals(schemas.REVISIONS), f
    assert checkpoint._read_stage(wd, "revisions").schema().base_schema \
        .equals(schemas.REVISIONS)


def test_flagship_entry_points_tune_a_fresh_context(ray_session, tiny_corpus,
                                                    tmp_path):
    """``run_flagship`` (resumed: it reads only its checkpoint) and
    ``update_flagship`` each tune the process's Ray Data context
    themselves, so neither depends on an earlier build having done it."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data import DataContext

    from gitprov_ray import checkpoint, util

    docs = tmp_path / "docs"
    docs.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": [f"document {i} about provenance" for i in range(6)],
        "lang": ["en"] * 6,
        "source": [f"src{i % 2}" for i in range(6)]}),
        docs / "documents.parquet")
    wd = str(tmp_path / "wd")
    checkpoint.run_flagship(str(docs), wd, num_buckets=4)
    pages, _, _ = tiny_corpus

    def resume():
        r = checkpoint.run_flagship(str(docs), wd, num_buckets=4)
        assert set(r["resumed"]) == {"revisions", "triples"}

    def merge():
        checkpoint.update_flagship(wd, rd.from_arrow(pages), num_buckets=4)

    prior = DataContext.get_current()
    try:
        for call in (resume, merge):
            fresh = DataContext()
            fresh.enable_progress_bars = False
            DataContext._set_current(fresh)
            call()
            ctx = DataContext.get_current()
            assert ctx.op_resource_reservation_enabled is False, call
            for attr in ("min_parallelism", "read_op_min_num_blocks",
                         "default_hash_shuffle_parallelism"):
                assert getattr(ctx, attr) == util.fanout(), attr
    finally:
        DataContext._set_current(prior)


def _dup_resource_page(url: str, ts) -> dict:
    """One page listing dup.txt twice with conflicting statuses."""
    from gitprov_ray import synth

    res = [{"name": "dup.txt", "status": s, "additions": a, "changes": 1,
            "deletions": 0} for s, a in (("added", 4), ("removed", 9))]
    html = synth.render_html({"label": "dup", "author": "user1",
                              "author_name": "User One", "resources": res,
                              "parents": []}, ["w"] * 8)
    return {"url": url, "warc_ts": ts, "html": html, "text": "", "lang": "en"}


@st.composite
def _deliveries(draw):
    """A small corpus and its delivery: a base and 1-3 update batches.
    Pages land in random batches (so a later snapshot can arrive before an
    earlier one), some are re-sent in later batches, and one page lists a
    resource twice with conflicting statuses."""
    import datetime as dt

    from gitprov_ray import synth

    pages, _, _ = synth.gen_corpus(draw(st.integers(2, 4)),
                                   seed=draw(st.integers(0, 10_000)))
    rows = pages.to_pylist()
    rows.append(_dup_resource_page(
        "https://site0.example/p/dup",
        synth.BASE_TS + dt.timedelta(days=draw(st.integers(0, 100)))))
    n_batches = draw(st.integers(1, 3))
    batches = [[] for _ in range(n_batches + 1)]
    for i, row in enumerate(rows):
        # the corpus' first page (an added → … chain) seeds the base
        first = 0 if i == 0 else draw(st.integers(0, n_batches))
        batches[first].append(row)
        for again in draw(st.lists(st.integers(first, n_batches),
                                   max_size=2)):
            batches[again].append(row)
    return batches


def _row_key(r: dict) -> tuple:
    return tuple(tuple(v) if isinstance(v, list) else v for v in r.values())


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_deliveries())
def test_incremental_equals_batch(ray_session, batches):
    """Base + update batches (re-sends, out-of-order earlier snapshots,
    duplicate resources): the store equals ``oracle.build_triples`` over
    everything delivered, and the revisions checkpoint equals the delivered
    events kept distinct on (graph, page_key, snapshot_id, event_seq) — a
    cold run's event set — with no repeated row in any merged graph."""
    import os
    import tempfile

    import pyarrow as pa
    import ray
    import ray.data as rd

    from gitprov_ray import checkpoint, oracle, schemas, store, synth
    from gitprov_ray.pipelines import flagship as fl
    from gitprov_ray.stages.pages import page_events_batch

    def events(rows):
        return page_events_batch(pa.Table.from_pylist(rows,
                                                      schema=schemas.PAGES))

    def contributors(evs):
        graphs = set(evs.column("graph").to_pylist())
        return synth.contributors_for_sources(sorted(graphs)).to_pylist()

    with tempfile.TemporaryDirectory() as wd:
        base = events(batches[0])
        checkpoint._write_stage(rd.from_arrow(base), wd, "revisions", "init")
        store.write_store(fl.triples_from_revisions(
            checkpoint._read_stage(wd, "revisions"), contributors(base),
            num_buckets=4), os.path.join(wd, "triples_store"),
            fingerprint="init")
        for batch in batches[1:]:
            checkpoint.update_flagship(
                wd, rd.from_arrow(pa.Table.from_pylist(batch,
                                                       schema=schemas.PAGES)),
                num_buckets=4)

        delivered = events([r for b in batches for r in b])
        distinct = {}
        for r in delivered.to_pylist():
            distinct.setdefault((r["graph"], r["page_key"], r["snapshot_id"],
                                 r["event_seq"]), r)
        gold, _ = oracle.build_triples(list(distinct.values()),
                                       contributors(delivered))
        got = store.read_store(os.path.join(wd, "triples_store")).to_pandas()
        cols = ["subj", "pred", "obj", "obj_is_literal", "obj_dtype", "graph"]
        rows = list(map(tuple, got[cols].itertuples(index=False)))
        assert set(rows) == {tuple(t[c] for c in cols) for t in gold}
        assert len(rows) == len(set(rows))

        ckpt = [_row_key(r) for t in ray.get(
            checkpoint._read_stage(wd, "revisions").to_arrow_refs())
            for r in t.to_pylist()]
        assert set(ckpt) == set(map(_row_key, distinct.values()))
        # the base is written as delivered; every graph a merge rewrote is
        # distinct
        merged = set(events([r for b in batches[1:] for r in b])
                     .column("graph").to_pylist())
        rewritten = [r for r in ckpt if r[0] in merged]
        assert len(rewritten) == len(set(rewritten))
