"""The emit kernels must equal the oracle per batch: stateless statements
(``emit_stateless_arrow``) as a set — the engine emits one base-entity
candidate per event and relies on the triple dedup — and status-dependent
statements (``versions.emit_status_arrow`` over ``versions.lag_events``,
reached through ``versions.version_lag_group``) as a multiset."""

import datetime as dt
from collections import Counter

import pyarrow as pa
import pytest

from gitprov_ray import schemas, synth
from gitprov_ray.stages import emit

from oracle_parity import (STATELESS, STATUS, edge_case_batch,
                           oracle_statements, status_statements, stmt_rows)


def _assert_stateless_parity(batch: pa.Table, contributors: list[dict]):
    got = emit.emit_stateless_arrow(batch.combine_chunks(),
                                    emit.agents_index(contributors))
    assert got.schema.equals(schemas.STATEMENTS)
    assert set(stmt_rows(got)) == set(stmt_rows(
        oracle_statements(batch, contributors, STATELESS)))


@pytest.mark.parametrize("n_urls", [6, 12])
def test_emit_vec_parity(n_urls):
    _, revisions, contributors = synth.gen_corpus(n_urls, seed=7 + n_urls)
    _assert_stateless_parity(revisions, contributors.to_pylist())


def test_emit_arrow_edge_cases():
    batch, contributors = edge_case_batch()
    _assert_stateless_parity(batch, contributors)
    agents = emit.agents_index(contributors)
    assert emit.emit_stateless_arrow(batch.slice(0, 0), agents).num_rows == 0


def test_emit_vec_parity_docs_derived():
    import pyarrow.parquet as pq

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet").to_pylist()
    rows = []
    for d in docs[:200]:
        rows.extend(synth.revisions_rows_from_doc_row(
            d["doc_id"], d["text"] or "", d["lang"], d["source"]))
    batch = pa.Table.from_pylist(rows, schema=schemas.REVISIONS)
    graphs = sorted({f"{d['source']}.example" for d in docs})
    _assert_stateless_parity(
        batch, synth.contributors_for_sources(graphs).to_pylist())


def _assert_status_parity(revisions: pa.Table, contributors: list[dict]):
    expected = oracle_statements(revisions, contributors, STATUS)
    got = status_statements(revisions)
    assert Counter(stmt_rows(got)) == Counter(stmt_rows(expected))
    return {s["stmt_type"] for s in expected}


def test_version_stmts_vec_parity():
    _, revisions, contributors = synth.gen_corpus(14, seed=3)
    kinds = _assert_status_parity(revisions, contributors.to_pylist())
    # the batch must exercise every status-dependent emitter
    assert kinds == STATUS


def test_version_stmts_edge_cases():
    # one filename touched by two commits of one graph → usage/derivation
    # over hostile filenames
    kinds = _assert_status_parity(*edge_case_batch())
    assert {"used", "wasDerivedFrom"} <= kinds


def _rev_batch(rows: list[dict]) -> pa.Table:
    full = [{"graph": "g.example", "page_key": "f.txt", "snapshot_id": "s0",
             "ts": dt.datetime(2024, 1, 1), "author": "alice",
             "author_name": "Alice Smith", "label": "m",
             "change_status": "added", "event_seq": 0, "additions": 1,
             "changes": 2, "deletions": 3, "parents": [], "url": "https://x/",
             **r} for r in rows]
    return pa.Table.from_pylist(full, schema=schemas.REVISIONS)


def test_lag_events_empty_bucket_is_typed():
    from gitprov_ray.stages import versions

    empty = schemas.REVISIONS.empty_table()
    assert versions.lag_events(empty).schema.equals(versions.LAGGED)
    keyed = versions.add_bucket_column(empty, 4)
    assert versions.lag_events(keyed).schema.equals(versions.LAGGED)
    assert versions.lag_events(pa.table({})).schema.equals(versions.LAGGED)
    assert versions.emit_status_arrow(
        versions.LAGGED.empty_table()).schema.equals(schemas.STATEMENTS)
    assert len(versions.version_lag_group(
        empty.select(versions.LAG_COLUMNS).to_pandas())) == 0


def test_lag_events_single_row():
    from gitprov_ray.stages import versions

    batch = _rev_batch([{"change_status": "modified"}])
    lagged = versions.lag_events(batch)
    assert lagged.column("lag_first").to_pylist() == [True]
    assert lagged.column("parent").to_pylist() == [None]
    # quirk 4: a modified event with no prior version → generation only
    assert _assert_status_parity(batch, []) == {"wasGeneratedBy"}


def test_lag_events_same_snapshot_two_graphs():
    from gitprov_ray.stages import versions

    batch = _rev_batch([
        {"graph": g, "snapshot_id": s, "change_status": st,
         "ts": dt.datetime(2024, 1, 1 + i)}
        for g in ("a.example", "b.example")
        for i, (s, st) in enumerate([("s0", "added"), ("s1", "modified")])])
    lagged = versions.lag_events(batch)
    assert lagged.column("lag_first").to_pylist() == [True] * 4
    assert lagged.column("parent").to_pylist() == [None, "s0", None, "s0"]
    assert _assert_status_parity(batch, []) == {"wasGeneratedBy", "used",
                                                "wasDerivedFrom"}


def test_lag_events_duplicate_resource_reversed_seq():
    """One page lists f.txt twice with conflicting statuses, the rows given
    in reversed ``event_seq`` order: the lower ``event_seq`` wins."""
    from gitprov_ray.stages import versions

    batch = _rev_batch([{"change_status": "removed", "event_seq": 1},
                        {"change_status": "added", "event_seq": 0},
                        {"change_status": "added", "event_seq": 0}])
    lagged = versions.lag_events(batch)
    assert lagged.num_rows == 2  # the repeated event identity is dropped
    assert lagged.column("event_seq").to_pylist() == [0, 1]
    assert lagged.column("lag_first").to_pylist() == [True, False]
    assert _assert_status_parity(batch, []) == {"wasGeneratedBy"}
