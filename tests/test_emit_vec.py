"""The emit kernels must equal the oracle per batch: stateless statements
(``emit_stateless_arrow``) as a set — the engine emits one base-entity
candidate per event and relies on the triple dedup — and status-dependent
statements (``versions._emit_status_stmts_vec``) as a multiset."""

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
