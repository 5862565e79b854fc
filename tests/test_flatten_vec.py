"""The compact flatten kernel must equal ``prov.statement_to_triples`` per
batch: ``expand_compact(flatten_batch_compact(·))`` over the engine's
statements for a batch, and over the oracle's, gives the oracle's triple
set with no duplicate rows (the local combiner dedups)."""

import pyarrow as pa

from gitprov_ray import schemas, synth
from gitprov_ray.stages import triples as T

from oracle_parity import (edge_case_batch, engine_statements,
                           oracle_statements, oracle_triples, triple_rows)


def _assert_flatten_parity(revisions: pa.Table, contributors: list[dict]):
    oracle_stmts = oracle_statements(revisions, contributors)
    expected = oracle_triples(oracle_stmts)
    engine_stmts = engine_statements(revisions, contributors)
    for stmts in (engine_stmts,
                  pa.Table.from_pylist(oracle_stmts, schema=schemas.STATEMENTS)):
        got = triple_rows(T.expand_compact(T.flatten_batch_compact(stmts)))
        assert len(got) == len(set(got))
        assert set(got) == expected
    return set(engine_stmts.column("stmt_type").to_pylist())


def test_flatten_vec_parity_all_types():
    _, revisions, contributors = synth.gen_corpus(12, seed=42)
    kinds = _assert_flatten_parity(revisions, contributors.to_pylist())
    assert kinds == set(schemas.STMT_RANK)


def test_flatten_compact_edge_cases():
    _assert_flatten_parity(*edge_case_batch())
